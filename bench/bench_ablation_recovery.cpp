// Ablation A1 — threshold-based recovery vs replay-the-whole-log.
//
// §3 motivates the checkpointing scheme: "In principle, it would be correct
// if the recovery manager simply replays all write-sets that exist in the
// recovery log, as replaying write-sets is idempotent. ... However,
// replaying all write-sets would be extremely inefficient."
//
// This bench quantifies that: for run lengths of 1x, 3x and 10x (log
// sizes), crash a region server and measure how many write-sets the
// recovery manager replays, how many records the TM log still holds at the
// crash, and how long the region outage lasts, with
//   (a) the paper's TF/TP threshold tracking, whose checkpoint lets segment
//       GC reclaim the log below TP, and
//   (b) the ablated replay-everything baseline (ignore_thresholds, which
//       also disables checkpoint truncation).
//
// Shape target: (a) replays a bounded number of write-sets (determined by
// throughput x heartbeat interval, §3.1), segment GC keeps its retained
// log bounded, and its recovery time at 10x stays within 2x of 1x; (b)
// grows linearly with the run length.
#include "bench/bench_common.h"

using namespace tfr;
using namespace tfr::bench;

namespace {

struct Outcome {
  std::int64_t replayed = 0;
  double recovery_ms = 0;
  std::int64_t log_records = 0;       // replayable (above the checkpoint)
  std::int64_t retained_records = 0;  // still held in segments
};

Outcome run_once(bool ignore_thresholds, int txns) {
  TestbedConfig cfg = paper_config(2, false);
  // Moderate latencies; detection is on proof (the read after the crash),
  // so we measure replay work, not the heartbeat-expiry wait.
  cfg.cluster.dfs.sync_latency = 500;
  cfg.cluster.dfs.read_latency = 300;
  cfg.cluster.server.rpc_latency = 100;
  cfg.cluster.server.read_service = 50;
  cfg.cluster.server.write_service = 50;
  cfg.cluster.server.heartbeat_interval = millis(200);
  cfg.cluster.server.session_ttl = millis(600);
  cfg.client.heartbeat_interval = millis(200);
  cfg.client.session_ttl = millis(600);
  cfg.txn_log.sync_latency = 200;
  // Small segments so the shortest run spans several and GC has work to do.
  cfg.txn_log.segment_records = 256;
  cfg.recovery.poll_interval = millis(50);
  cfg.recovery.ignore_thresholds = ignore_thresholds;

  constexpr std::uint64_t kRows = 5'000;
  Testbed bed(cfg);
  if (auto s = prepare(bed, kRows, 4, 64); !s.is_ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", s.to_string().c_str());
    std::exit(1);
  }

  // Build up the run history.
  Rng rng(7);
  for (int i = 0; i < txns; ++i) {
    Transaction txn = bed.client().begin("usertable");
    txn.put(Testbed::row_key(rng.next_below(kRows)), "field0", "v" + std::to_string(i));
    auto ts = txn.commit();
    if (!ts.is_ok()) --i;  // conflicts just retry
  }
  (void)bed.client().wait_flushed(seconds(120));

  Outcome out;
  const TxnLogStats log = bed.tm().log().stats();
  out.log_records = log.live_records;
  out.retained_records = log.retained_records;

  // A row server 0 hosts. One read of it right after the crash bounces off
  // with ServerDown, so the master takes the server over on proof instead
  // of waiting out the session TTL: the time below is recovery work.
  std::string probe_row;
  for (const auto& loc : bed.master().table_regions("usertable")) {
    if (loc.server_id != bed.cluster().server(0).id()) continue;
    probe_row = loc.descriptor.start_key.empty() ? Testbed::row_key(0) : loc.descriptor.start_key;
    break;
  }

  const Micros t0 = now_micros();
  bed.crash_server(0);
  if (!probe_row.empty()) {
    Transaction probe = bed.client().begin("usertable");
    (void)probe.get(probe_row, "field0");
    probe.abort();
  }
  (void)bed.wait_server_recoveries(1, seconds(120));
  bed.wait_for_recovery();
  out.recovery_ms = static_cast<double>(now_micros() - t0) / 1e3;
  out.replayed = bed.rm().stats().writesets_replayed_server;
  return out;
}

}  // namespace

int main() {
  print_header("Ablation A1: threshold-based recovery vs replay-the-whole-log",
               "§3's motivation for lightweight checkpointing");

  const int base = bench_scale() < 1.0 ? 400 : 800;
  const int multipliers[] = {1, 3, 10};

  std::printf("%-12s %-14s %-22s %-18s %-20s %-14s\n", "run_txns", "mode",
              "log_records_at_crash", "retained_records", "writesets_replayed", "recovery_ms");
  double tracked_worst = 0, replay_all_worst = 0;
  std::int64_t tracked_replayed_max = 0, replay_all_replayed_max = 0;
  Outcome tracked_1x, tracked_10x, replay_all_10x;
  for (const int m : multipliers) {
    for (const bool ignore : {false, true}) {
      const Outcome o = run_once(ignore, base * m);
      std::printf("%-12d %-14s %-22lld %-18lld %-20lld %-14.1f\n", base * m,
                  ignore ? "replay-all" : "thresholds", static_cast<long long>(o.log_records),
                  static_cast<long long>(o.retained_records), static_cast<long long>(o.replayed),
                  o.recovery_ms);
      if (ignore) {
        replay_all_worst = std::max(replay_all_worst, o.recovery_ms);
        replay_all_replayed_max = std::max(replay_all_replayed_max, o.replayed);
        if (m == 10) replay_all_10x = o;
      } else {
        tracked_worst = std::max(tracked_worst, o.recovery_ms);
        tracked_replayed_max = std::max(tracked_replayed_max, o.replayed);
        if (m == 1) tracked_1x = o;
        if (m == 10) tracked_10x = o;
      }
    }
  }

  std::printf("\n-- shape check --\n");
  std::printf("max write-sets replayed: thresholds=%lld, replay-all=%lld %s\n",
              static_cast<long long>(tracked_replayed_max),
              static_cast<long long>(replay_all_replayed_max),
              tracked_replayed_max < replay_all_replayed_max / 2 ? "[OK: bounded by tracking]"
                                                                  : "[UNEXPECTED]");
  std::printf("worst recovery time: thresholds=%.1f ms, replay-all=%.1f ms %s\n", tracked_worst,
              replay_all_worst,
              tracked_worst <= replay_all_worst ? "[OK]" : "[UNEXPECTED]");
  std::printf("retained log records at 10x: thresholds=%lld, replay-all=%lld %s\n",
              static_cast<long long>(tracked_10x.retained_records),
              static_cast<long long>(replay_all_10x.retained_records),
              tracked_10x.retained_records < replay_all_10x.retained_records / 2
                  ? "[OK: GC keeps it bounded]"
                  : "[UNEXPECTED]");
  const double ratio = tracked_10x.recovery_ms / tracked_1x.recovery_ms;
  std::printf("thresholds recovery time at 10x vs 1x: %.2fx %s\n", ratio,
              ratio <= 2.0 ? "[OK: recovery time plateaus]" : "[UNEXPECTED]");
  return 0;
}
