// Failure drill — a narrated tour of every failure mode the recovery
// middleware handles (§3), with INFO logging on so you can watch the
// protocol: crashes proven by a bounced RPC or heartbeats expiring, the
// master splitting WALs, regions being
// gated, the recovery manager replaying write-sets, thresholds advancing.
//
//   drill 1: region-server crash      (Algorithm 3/4: replay after TPr(s))
//   drill 2: client crash mid-flush   (Algorithm 1/2: replay after TFr(c))
//   drill 3: cascaded server crash    (TP inheritance via piggyback)
//   drill 4: recovery-manager restart (§3.3: state from the coordination svc)
//
//   $ ./examples/failure_drill
#include <cstdio>

#include "src/common/logging.h"
#include "src/testbed/testbed.h"

using namespace tfr;

namespace {

int g_row = 0;

/// Commit `n` single-row transactions and return their commit timestamps.
std::vector<Timestamp> commit_burst(Testbed& bed, TxnClient& client, int n) {
  std::vector<Timestamp> out;
  for (int i = 0; i < n; ++i) {
    Transaction txn = client.begin("drill");
    txn.put(Testbed::row_key(static_cast<std::uint64_t>(g_row)), "v",
            "payload-" + std::to_string(g_row));
    ++g_row;
    auto ts = txn.commit();
    if (ts.is_ok()) out.push_back(ts.value());
  }
  return out;
}

bool verify_all(Testbed& bed, TxnClient& reader, int upto) {
  Transaction txn = reader.begin("drill");
  for (int i = 0; i < upto; ++i) {
    auto v = txn.get(Testbed::row_key(static_cast<std::uint64_t>(i)), "v");
    if (!v.is_ok() || !v.value().has_value() ||
        *v.value() != "payload-" + std::to_string(i)) {
      std::fprintf(stderr, "!! row %d lost or wrong\n", i);
      txn.abort();
      return false;
    }
  }
  txn.abort();
  return true;
}

void banner(const char* text) {
  std::printf("\n=============================================================\n");
  std::printf("%s\n", text);
  std::printf("=============================================================\n");
}

}  // namespace

int main() {
  set_log_level(LogLevel::kINFO);

  TestbedConfig cfg = fast_test_config(/*num_servers=*/3, /*num_clients=*/2);
  // Slow the WAL syncer down so crashes genuinely lose the in-memory tail.
  cfg.cluster.server.wal_sync_interval = seconds(100);
  Testbed bed(cfg);
  if (!bed.start().is_ok() || !bed.create_table("drill", 100000, 6).is_ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }
  TxnClient& worker = bed.client(0);
  TxnClient& observer = bed.client(1);

  banner("drill 1: region-server crash — un-persisted updates must come back "
         "from the TM recovery log");
  auto ts1 = commit_burst(bed, worker, 40);
  worker.wait_flushed();
  std::printf(">>> crashing rs1 (its memstores and un-synced WAL die with it)\n");
  bed.crash_server(0);
  bed.wait_server_recoveries(1);
  bed.wait_for_recovery();
  worker.wait_flushed();
  bed.wait_stable(ts1.back());
  if (!verify_all(bed, observer, g_row)) return 1;
  std::printf("drill 1 OK — %zu transactions intact after server recovery\n", ts1.size());

  // Elastic scale-out (§2.1): bring a fresh server into the cluster so the
  // later drills still have spare capacity to fail over to.
  std::printf(">>> adding a replacement region server\n");
  if (!bed.cluster().add_server().is_ok()) {
    std::fprintf(stderr, "add_server failed\n");
    return 1;
  }

  banner("drill 2: client crash — committed but un-flushed write-sets are "
         "replayed from the log");
  auto ts2 = commit_burst(bed, worker, 40);  // do NOT wait for the flush
  std::printf(">>> crashing client-1 with %zu transactions possibly in flight\n",
              worker.flush_backlog());
  bed.crash_client(0);
  bed.wait_client_recoveries(1);
  bed.wait_for_recovery();
  bed.wait_stable(ts2.back());
  if (!verify_all(bed, observer, g_row)) return 1;
  std::printf("drill 2 OK — the recovery client re-flushed the dead client's commits\n");

  banner("drill 3: cascaded crash — the server that received the replay "
         "inherits TP(s) and its own failure replays again");
  auto ts3 = commit_burst(bed, observer, 40);
  observer.wait_flushed();
  std::printf(">>> crashing rs2; its regions (and the earlier replays) move on\n");
  bed.crash_server(1);
  bed.wait_server_recoveries(2);
  bed.wait_for_recovery();
  std::printf(">>> and immediately crashing rs3 before it can persist\n");
  bed.crash_server(2);
  bed.wait_server_recoveries(3);
  bed.wait_for_recovery();
  observer.wait_flushed();
  bed.wait_stable(ts3.back());
  if (!verify_all(bed, observer, g_row)) return 1;
  std::printf("drill 3 OK — durability held across back-to-back failures\n");

  banner("drill 4: recovery-manager restart — thresholds come back from the "
         "coordination service; processing never stopped");
  auto ts4 = commit_burst(bed, observer, 20);
  // The restarted RM counts from zero: keep what drills 1-3 replayed.
  const RecoveryClientStats replayed = bed.rm().recovery_client_stats();
  bed.restart_recovery_manager();
  auto ts5 = commit_burst(bed, observer, 20);
  observer.wait_flushed();
  bed.wait_stable(ts5.back());
  if (!verify_all(bed, observer, g_row)) return 1;
  std::printf("drill 4 OK — RM restarted, TF/TP recovered, %zu+%zu commits fine\n",
              ts4.size(), ts5.size());

  banner("all drills passed");
  std::printf("replay stats (drills 1-3): client write-sets=%lld, region write-sets=%lld, "
              "mutations=%lld (skipped as out-of-region: %lld)\n",
              static_cast<long long>(replayed.client_writesets_replayed),
              static_cast<long long>(replayed.region_writesets_replayed),
              static_cast<long long>(replayed.mutations_replayed),
              static_cast<long long>(replayed.mutations_skipped));
  bed.stop();
  return 0;
}
