// Failover availability — the write-unavailability window across a fenced
// takeover. A probe client flushes single-row write-sets in a tight loop
// against a region whose server is crash-failed mid-run; flush_writesets
// retries until the fenced reassignment brings the region back, so the one
// probe that straddles the outage measures it end to end:
//
//   crash ──> the probe's next write bounces with ServerDown ──> the
//   master's own probe confirms the crash ──> epoch bump + WAL fence/split
//   ──> reassignment + replay ──> probe ack
//
// No session TTL is waited out: a crash is taken over on proof (silence —
// a partition or a stalled heartbeat — would still wait for the expiry).
// Reported per trial: crash-to-detection (master marks the server dead) and
// crash-to-restore (first acked write under the new epoch), plus the
// longest single probe stall. Emits BENCH_failover.json alongside the
// human-readable report so the perf trajectory can be tracked run to run.
//
// bench_recovery.cpp extends this measurement into the full recovery-time
// vs retained-log-size curve (preload sweep, detect/split/replay phase
// breakdown, bounded vs unbounded log) — see BENCH_recovery.json.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/kv/cluster.h"
#include "src/kv/kv_client.h"

using namespace tfr;

namespace {

constexpr int kTrials = 5;
constexpr Micros kHeartbeat = millis(20);
constexpr Micros kSessionTtl = millis(100);

struct Trial {
  double detect_ms = 0;   // crash -> master marks the server dead
  double restore_ms = 0;  // crash -> first acked write on the new owner
  double stall_ms = 0;    // longest single probe flush
  std::uint64_t epoch = 0;  // region epoch after the takeover (1 before)
};

WriteSet probe_ws(Timestamp ts, const std::string& row) {
  WriteSet ws;
  ws.txn_id = static_cast<std::uint64_t>(ts);
  ws.client_id = "probe";
  ws.commit_ts = ts;
  ws.table = "t";
  ws.mutations.push_back(Mutation{row, "c", "v" + std::to_string(ts), false});
  return ws;
}

Trial run_trial() {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.coord_check_interval = millis(5);
  cfg.server.heartbeat_interval = kHeartbeat;
  cfg.server.session_ttl = kSessionTtl;
  cfg.server.wal_sync_interval = millis(10);
  Cluster cluster(cfg);
  if (!cluster.start().is_ok() || !cluster.master().create_table("t", {"m"}).is_ok()) {
    std::fprintf(stderr, "trial setup failed\n");
    return {};
  }

  // Probe the region hosted by the server we are about to crash.
  const std::string victim = cluster.server(0).id();
  const std::string row =
      cluster.master().locate("t", "apple").value().server_id == victim ? "apple" : "zebra";
  const std::string region = cluster.master().locate("t", row).value().region_name;

  KvClient client(cluster.master(), millis(1));
  client.set_client_id("probe");
  Timestamp ts = 1;
  (void)client.flush_writesets({probe_ws(ts++, row)});  // warm the route

  // Watcher: timestamps the master's failure detection.
  std::atomic<Micros> crash_at{0};
  std::atomic<Micros> detected_at{0};
  std::thread watcher([&] {
    while (crash_at.load(std::memory_order_acquire) == 0) sleep_micros(200);
    while (cluster.master().live_servers().size() != 1) sleep_micros(200);
    detected_at.store(now_micros(), std::memory_order_release);
  });

  Trial t;
  const Micros bench_start = now_micros();
  Micros restored_at = 0;
  while (true) {
    const Micros t0 = now_micros();
    if (crash_at.load(std::memory_order_acquire) == 0 && t0 - bench_start > millis(30)) {
      cluster.crash_server(0);
      crash_at.store(now_micros(), std::memory_order_release);
    }
    (void)client.flush_writesets({probe_ws(ts++, row)});
    const Micros t1 = now_micros();
    t.stall_ms = std::max(t.stall_ms, static_cast<double>(t1 - t0) / 1e3);
    if (crash_at.load(std::memory_order_acquire) != 0) {
      // First ack after the crash necessarily ran against the new owner
      // (the old one is dead), i.e. under the bumped epoch.
      restored_at = t1;
      break;
    }
  }
  watcher.join();
  cluster.master().wait_for_idle();
  t.detect_ms = static_cast<double>(detected_at.load() - crash_at.load()) / 1e3;
  t.restore_ms = static_cast<double>(restored_at - crash_at.load()) / 1e3;
  t.epoch = cluster.master().region_epoch(region);
  return t;
}

}  // namespace

int main() {
  std::printf("==============================================================\n");
  std::printf("Failover bench: write-unavailability across a fenced takeover\n");
  std::printf("heartbeat=%lldms  session_ttl=%lldms  trials=%d\n",
              static_cast<long long>(kHeartbeat / 1000),
              static_cast<long long>(kSessionTtl / 1000), kTrials);
  std::printf("==============================================================\n");

  std::vector<Trial> trials;
  for (int i = 0; i < kTrials; ++i) {
    const Trial t = run_trial();
    std::printf("trial %d: detect=%7.1fms  restore=%7.1fms  max_stall=%7.1fms  epoch=%llu %s\n",
                i + 1, t.detect_ms, t.restore_ms, t.stall_ms,
                static_cast<unsigned long long>(t.epoch),
                t.epoch >= 2 ? "[fenced]" : "[UNEXPECTED: epoch not bumped]");
    trials.push_back(t);
  }

  auto mean = [&](double Trial::*f) {
    double s = 0;
    for (const auto& t : trials) s += t.*f;
    return s / static_cast<double>(trials.size());
  };
  const double detect = mean(&Trial::detect_ms);
  const double restore = mean(&Trial::restore_ms);
  const double stall = mean(&Trial::stall_ms);
  std::printf("\nmean: detect=%.1fms  restore=%.1fms  max_stall=%.1fms\n", detect, restore, stall);
  std::printf("(detection is one bounced write plus the master's probe; restore adds the\n");
  std::printf(" epoch bump, WAL fence + split, reassignment, and replay.)\n");

  std::FILE* out = std::fopen("BENCH_failover.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_failover.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"failover\",\n");
  std::fprintf(out, "  \"heartbeat_ms\": %lld,\n", static_cast<long long>(kHeartbeat / 1000));
  std::fprintf(out, "  \"session_ttl_ms\": %lld,\n", static_cast<long long>(kSessionTtl / 1000));
  std::fprintf(out, "  \"trials\": [\n");
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Trial& t = trials[i];
    std::fprintf(out,
                 "    {\"detect_ms\": %.2f, \"restore_ms\": %.2f, \"max_stall_ms\": %.2f, "
                 "\"epoch_after\": %llu}%s\n",
                 t.detect_ms, t.restore_ms, t.stall_ms,
                 static_cast<unsigned long long>(t.epoch),
                 i + 1 < trials.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"mean_detect_ms\": %.2f,\n", detect);
  std::fprintf(out, "  \"mean_restore_ms\": %.2f,\n", restore);
  std::fprintf(out, "  \"mean_max_stall_ms\": %.2f\n", stall);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_failover.json\n");
  return 0;
}
