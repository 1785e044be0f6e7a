// Recovery time vs retained log size — the payoff of bounded recovery.
//
// §3 bounds the replay work by the TF/TP thresholds; this PR's segmented
// TM-log GC additionally bounds the *retained* log (log.retained_txns
// plateaus). This bench draws the resulting curve: preload N committed
// transactions (N = base x {1, 3, 10}), crash a region server, and measure
// the three recovery phases separately —
//
//   detect  crash -> the master marks the server dead. Nothing reads or
//           writes the dead server here, so no RPC can prove the crash and
//           detection waits for the session expiry (TTL 400 ms).
//   split   the parallel WAL split (master.last_split_us)
//   replay  region reassignment + gate replay (master.last_replay_us)
//
// in two modes:
//
//   bounded    the paper's thresholds + segmented truncation (default):
//              the retained log and the replay work plateau, so recovery
//              time is flat in the preload.
//   unbounded  the legacy replay-the-whole-log ablation (ignore_thresholds,
//              which also disables checkpoint truncation): retained log and
//              recovery time grow linearly with the preload.
//
// Shape target: bounded recovery at 10x preload stays within ~2x of 1x,
// while unbounded degrades with the preload. Emits BENCH_recovery.json.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/metrics.h"

using namespace tfr;
using namespace tfr::bench;

namespace {

struct Point {
  int preload_txns = 0;
  bool bounded = true;
  std::int64_t retained_records = 0;  // TM-log records held at the crash
  std::int64_t log_segments = 0;
  std::int64_t gc_segments = 0;  // whole segments reclaimed before the crash
  std::int64_t replayed = 0;     // write-sets replayed by the gates
  double detect_ms = 0;
  double split_ms = 0;
  double replay_ms = 0;
  double total_ms = 0;  // crash -> every affected region recovered
};

Point run_point(bool bounded, int preload_txns) {
  TestbedConfig cfg = paper_config(2, false);
  // Moderate latencies and quick detection: the curve measures split/replay
  // work as a function of retained log size, not the heartbeat-expiry wait.
  cfg.cluster.dfs.sync_latency = 500;
  cfg.cluster.dfs.read_latency = 300;
  cfg.cluster.server.rpc_latency = 100;
  cfg.cluster.server.read_service = 50;
  cfg.cluster.server.write_service = 50;
  cfg.cluster.server.heartbeat_interval = millis(100);
  cfg.cluster.server.session_ttl = millis(400);
  cfg.client.heartbeat_interval = millis(100);
  cfg.client.session_ttl = millis(400);
  cfg.txn_log.sync_latency = 200;
  // Small segments so the preload spans many of them and GC has work to do.
  cfg.txn_log.segment_records = 256;
  cfg.recovery.poll_interval = millis(20);
  cfg.recovery.ignore_thresholds = !bounded;

  constexpr std::uint64_t kRows = 2'000;
  Testbed bed(cfg);
  if (auto s = prepare(bed, kRows, 4, 64); !s.is_ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", s.to_string().c_str());
    std::exit(1);
  }

  Rng rng(11);
  for (int i = 0; i < preload_txns; ++i) {
    Transaction txn = bed.client().begin("usertable");
    txn.put(Testbed::row_key(rng.next_below(kRows)), "field0", "v" + std::to_string(i));
    auto ts = txn.commit();
    if (!ts.is_ok()) --i;  // conflicts just retry
  }
  (void)bed.client().wait_flushed(seconds(120));
  // Let the poller publish the post-preload TP and truncate/GC behind it, so
  // the retained size we record is the steady state, not a sampling race.
  sleep_micros(cfg.recovery.poll_interval * 4);

  Point p;
  p.preload_txns = preload_txns;
  p.bounded = bounded;
  const auto log_stats = bed.tm().log().stats();
  p.retained_records = static_cast<std::int64_t>(log_stats.retained_records);
  p.log_segments = static_cast<std::int64_t>(log_stats.segments);
  p.gc_segments = static_cast<std::int64_t>(log_stats.gc_segments);

  const std::int64_t replayed_before = bed.rm().stats().writesets_replayed_server;
  const Micros t0 = now_micros();
  bed.crash_server(0);
  while (bed.master().live_servers().size() != 1) sleep_micros(200);
  p.detect_ms = static_cast<double>(now_micros() - t0) / 1e3;
  if (!bed.wait_server_recoveries(1, seconds(300))) {
    std::fprintf(stderr, "recovery did not complete\n");
    std::exit(1);
  }
  bed.wait_for_recovery();
  p.total_ms = static_cast<double>(now_micros() - t0) / 1e3;
  p.split_ms = static_cast<double>(global_gauge("master.last_split_us").get()) / 1e3;
  p.replay_ms = static_cast<double>(global_gauge("master.last_replay_us").get()) / 1e3;
  p.replayed = bed.rm().stats().writesets_replayed_server - replayed_before;
  return p;
}

}  // namespace

int main() {
  print_header("Recovery time vs retained log size (bounded vs unbounded)",
               "§3's bounded-replay motivation + segmented TM-log truncation");

  const int base = bench_scale() < 1.0 ? 150 : 400;
  const int multipliers[] = {1, 3, 10};

  std::printf("%-10s %-10s %-16s %-10s %-10s %-10s %-10s %-10s %-10s\n", "mode", "preload",
              "retained_txns", "segments", "gc_segs", "detect_ms", "split_ms", "replay_ms",
              "total_ms");
  std::vector<Point> points;
  double bounded_1x = 0, bounded_10x = 0, unbounded_10x = 0;
  for (const bool bounded : {true, false}) {
    for (const int m : multipliers) {
      const Point p = run_point(bounded, base * m);
      std::printf("%-10s %-10d %-16lld %-10lld %-10lld %-10.1f %-10.1f %-10.1f %-10.1f\n",
                  bounded ? "bounded" : "unbounded", p.preload_txns,
                  static_cast<long long>(p.retained_records),
                  static_cast<long long>(p.log_segments), static_cast<long long>(p.gc_segments),
                  p.detect_ms, p.split_ms, p.replay_ms, p.total_ms);
      points.push_back(p);
      if (bounded && m == 1) bounded_1x = p.total_ms;
      if (bounded && m == 10) bounded_10x = p.total_ms;
      if (!bounded && m == 10) unbounded_10x = p.total_ms;
    }
  }

  std::printf("\n-- shape check --\n");
  const double ratio = bounded_1x > 0 ? bounded_10x / bounded_1x : 0;
  std::printf("bounded total at 10x vs 1x preload: %.2fx %s\n", ratio,
              ratio <= 2.0 ? "[OK: recovery time plateaus]" : "[UNEXPECTED: grows with preload]");
  std::printf("unbounded total at 10x: %.1fms vs bounded %.1fms %s\n", unbounded_10x, bounded_10x,
              unbounded_10x >= bounded_10x ? "[OK]" : "[UNEXPECTED]");

  std::FILE* out = std::fopen("BENCH_recovery.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_recovery.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"recovery_curve\",\n");
  std::fprintf(out, "  \"base_preload_txns\": %d,\n", base);
  std::fprintf(out, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"preload_txns\": %d, \"retained_txns\": %lld, "
                 "\"segments\": %lld, \"gc_segments\": %lld, \"replayed\": %lld, "
                 "\"detect_ms\": %.2f, \"split_ms\": %.2f, \"replay_ms\": %.2f, "
                 "\"total_ms\": %.2f}%s\n",
                 p.bounded ? "bounded" : "unbounded", p.preload_txns,
                 static_cast<long long>(p.retained_records),
                 static_cast<long long>(p.log_segments), static_cast<long long>(p.gc_segments),
                 static_cast<long long>(p.replayed), p.detect_ms, p.split_ms, p.replay_ms,
                 p.total_ms, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"bounded_10x_over_1x\": %.3f\n", ratio);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_recovery.json\n");
  return 0;
}
