// §3.2 — server failure handling: store-internal WAL-split recovery, the
// region gate, transactional replay after TPr(s), TP inheritance across
// cascading failures, and interrupted client flushes; and the two detection
// triggers — a crash is taken over on proof, silence only after the TTL.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "src/common/fault.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/kv/kv_client.h"
#include "src/recovery/recovery_client.h"
#include "src/testbed/testbed.h"
#include "tests/integration/soak.h"

namespace tfr {
namespace {

class ServerRecoveryTest : public ::testing::Test {
 protected:
  ServerRecoveryTest() : bed_(config()) {}

  static TestbedConfig config() {
    TestbedConfig cfg = fast_test_config(3, 1);
    // Keep the WAL syncer effectively off so a crash reliably loses the
    // in-memory tail (the paper's asynchronous-persistence window).
    cfg.cluster.server.wal_sync_interval = seconds(100);
    return cfg;
  }

  void SetUp() override {
    ASSERT_TRUE(bed_.start().is_ok());
    ASSERT_TRUE(bed_.create_table("t", 3000, 6).is_ok());
  }

  std::vector<Timestamp> commit_rows(int from, int to) {
    std::vector<Timestamp> out;
    for (int i = from; i < to; ++i) {
      Transaction txn = bed_.client().begin("t");
      txn.put(Testbed::row_key(i), "c", "value-" + std::to_string(i));
      auto ts = txn.commit();
      EXPECT_TRUE(ts.is_ok());
      out.push_back(ts.value_or(kNoTimestamp));
    }
    return out;
  }

  void verify_rows(int from, int to) {
    Transaction r = bed_.client().begin("t");
    for (int i = from; i < to; ++i) {
      auto v = r.get(Testbed::row_key(i), "c");
      ASSERT_TRUE(v.is_ok());
      ASSERT_TRUE(v.value().has_value()) << "lost committed row " << i;
      EXPECT_EQ(*v.value(), "value-" + std::to_string(i));
    }
    r.abort();
  }

  /// Index of the server hosting `row`.
  int host_of(const std::string& row) {
    auto loc = bed_.master().locate("t", row);
    EXPECT_TRUE(loc.is_ok());
    for (int i = 0; i < bed_.cluster().num_servers(); ++i) {
      if (loc.is_ok() && bed_.cluster().server(i).id() == loc.value().server_id) return i;
    }
    ADD_FAILURE() << "no server hosts " << row;
    return 0;
  }

  /// Fail every WAL sync of server i: its TP(s) never advances, so a crash
  /// leaves every write-set it received to the gate replay.
  void fail_wal_syncs(int i) {
    FaultRule rule;
    rule.op = FaultOp::kDfsSync;
    rule.target = bed_.cluster().server(i).wal_path();
    rule.error_probability = 1.0;
    bed_.fault().add_rule(rule);
  }

  Testbed bed_;
};

TEST_F(ServerRecoveryTest, UnpersistedWritesSurviveServerCrash) {
  auto tss = commit_rows(0, 60);
  ASSERT_TRUE(bed_.client().wait_flushed());
  // Nothing has been WAL-synced: the crash loses every memstore update, and
  // only the TM-log replay can bring them back.
  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  ASSERT_GE(bed_.rm().stats().server_recoveries, 1);

  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 60);
}

TEST_F(ServerRecoveryTest, RecoveryDoesNotDisturbSurvivingServers) {
  auto tss = commit_rows(0, 30);
  ASSERT_TRUE(bed_.client().wait_flushed());
  const auto victim_regions = bed_.cluster().server(0).region_names();
  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  // Regions that were NOT on the victim stayed where they were.
  for (const auto& loc : bed_.master().table_regions("t")) {
    if (std::find(victim_regions.begin(), victim_regions.end(), loc.region_name) ==
        victim_regions.end()) {
      EXPECT_NE(loc.server_id, "rs1");
    }
  }
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 30);
}

TEST_F(ServerRecoveryTest, OnlyWritesetsAfterTprAreReplayed) {
  // Persist a first batch everywhere and let TP advance past it; commit a
  // second batch that stays unpersisted, then crash. Only the second batch
  // should be replayed.
  auto first = commit_rows(0, 20);
  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(first.back()));
  const Micros deadline = now_micros() + seconds(10);
  while (bed_.rm().global_tp() < first.back() && now_micros() < deadline) {
    for (int s = 0; s < bed_.cluster().num_servers(); ++s) {
      bed_.cluster().server(s).heartbeat_now();
    }
    bed_.rm().refresh_now();
    sleep_millis(1);
  }
  ASSERT_GE(bed_.rm().global_tp(), first.back());

  auto second = commit_rows(20, 40);
  ASSERT_TRUE(bed_.client().wait_flushed());
  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();

  const auto stats = bed_.rm().recovery_client_stats();
  // Each region replay filters the candidate write-sets; the replayed
  // mutations can only come from the second batch.
  EXPECT_LE(stats.mutations_replayed, 20);
  ASSERT_TRUE(bed_.wait_stable(second.back()));
  verify_rows(0, 40);
}

TEST_F(ServerRecoveryTest, CascadedFailureInheritanceKeepsDurability) {
  // The §3.2 scenario: replay lands on s', s' crashes before persisting the
  // replayed updates. Because s' inherited TP(s), its own recovery replays
  // them again. Without the piggyback this loses data.
  auto tss = commit_rows(0, 60);
  ASSERT_TRUE(bed_.client().wait_flushed());

  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.client().wait_flushed());

  // Immediately crash a second server — the one(s) that inherited replayed
  // updates have not WAL-synced them (syncer is off; heartbeats may not
  // have fired yet with a fresh TF).
  bed_.crash_server(1);
  ASSERT_TRUE(bed_.wait_server_recoveries(2));
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.client().wait_flushed());

  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 60);
}

TEST_F(ServerRecoveryTest, InterruptedFlushRetriesUntilRegionsReturn) {
  // Crash first, then commit transactions whose rows live on the dead
  // server's regions: the flush blocks, retries without limit (§3.2), and
  // completes once recovery brings the regions back online.
  bed_.crash_server(0);
  auto tss = commit_rows(0, 20);  // commits succeed regardless (TM log)
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  EXPECT_TRUE(bed_.client().wait_flushed(seconds(30)))
      << "flushes must complete once the regions are back";
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 20);
}

TEST_F(ServerRecoveryTest, AtomicityAcrossRecoveryNoTornWritesets) {
  // A multi-region write-set is either fully visible or not at all at any
  // stable snapshot, even right after a failover.
  for (int i = 0; i < 10; ++i) {
    Transaction txn = bed_.client().begin("t");
    // Rows in different regions (spread across the keyspace).
    txn.put(Testbed::row_key(i), "c", "pair-" + std::to_string(i));
    txn.put(Testbed::row_key(2500 + i), "c", "pair-" + std::to_string(i));
    ASSERT_TRUE(txn.commit().is_ok());
  }
  ASSERT_TRUE(bed_.client().wait_flushed());
  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.client().wait_flushed());

  // Stable snapshots never show half a write-set.
  Transaction r = bed_.client().begin("t");
  for (int i = 0; i < 10; ++i) {
    auto a = r.get(Testbed::row_key(i), "c");
    auto b = r.get(Testbed::row_key(2500 + i), "c");
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    EXPECT_EQ(a.value().has_value(), b.value().has_value()) << "torn write-set " << i;
    if (a.value().has_value()) EXPECT_EQ(*a.value(), *b.value());
  }
  r.abort();
}

TEST_F(ServerRecoveryTest, CleanShutdownNeedsNoTransactionalReplay) {
  auto tss = commit_rows(0, 20);
  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.cluster().server(0).shutdown().is_ok());
  bed_.wait_for_recovery();
  EXPECT_EQ(bed_.rm().stats().server_recoveries, 0);
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 20);
}

TEST_F(ServerRecoveryTest, CleanShutdownRacingReadsLeavesCleanly) {
  // Readers keep hitting the server while it shuts down. A stopping server
  // answers a plain Unavailable, never ServerDown, so no read can get it
  // taken over as crashed: the master sees it leave cleanly — no WAL fence,
  // no transactional replay.
  constexpr int kRows = 60;
  auto tss = commit_rows(0, kRows);
  ASSERT_TRUE(bed_.client().wait_flushed());
  RegionServer& server = bed_.cluster().server(host_of(Testbed::row_key(0)));
  Counter& proofs = global_counter("master.takeovers_on_proof");
  Counter& expiries = global_counter("master.takeovers_on_expiry");
  const std::int64_t proofs_before = proofs.get();
  const std::int64_t expiries_before = expiries.get();

  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      KvClient reader(bed_.master(), millis(1));
      for (int i = t; !stop.load(std::memory_order_acquire); i = (i + 1) % kRows) {
        auto v = reader.get("t", Testbed::row_key(i), "c", tss.back());
        ASSERT_TRUE(v.is_ok()) << v.status();
        ASSERT_TRUE(v.value().has_value()) << "row " << i;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (reads.load(std::memory_order_relaxed) < 20) sleep_micros(100);
  EXPECT_TRUE(server.shutdown().is_ok());
  const Micros deadline = now_micros() + seconds(10);
  while (bed_.master().live_servers().size() == 3 && now_micros() < deadline) sleep_millis(1);
  bed_.master().wait_for_idle();
  const int reads_after_handover = reads.load(std::memory_order_relaxed);
  while (reads.load(std::memory_order_relaxed) < reads_after_handover + 20) sleep_micros(100);
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(bed_.master().live_servers().size(), 2u);
  EXPECT_FALSE(bed_.cluster().dfs().is_fenced(server.wal_path()));
  EXPECT_EQ(bed_.rm().stats().server_recoveries, 0);
  EXPECT_EQ(bed_.rm().recovery_client_stats().region_writesets_replayed, 0);
  EXPECT_EQ(proofs.get(), proofs_before);
  EXPECT_EQ(expiries.get(), expiries_before);
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, kRows);
}

TEST_F(ServerRecoveryTest, SplitWalEditsCombineWithTmLogReplay) {
  // Partially persist: sync the WALs midway, then keep committing. After a
  // crash, the synced prefix returns via HBase's split-WAL recovery and the
  // suffix via the TM log; together they must cover everything.
  auto first = commit_rows(0, 20);
  ASSERT_TRUE(bed_.client().wait_flushed());
  for (int s = 0; s < bed_.cluster().num_servers(); ++s) {
    ASSERT_TRUE(bed_.cluster().server(s).persist_wal().is_ok());
  }
  auto second = commit_rows(20, 40);
  ASSERT_TRUE(bed_.client().wait_flushed());

  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.wait_stable(second.back()));
  verify_rows(0, 40);
}

TEST_F(ServerRecoveryTest, GateReplaysARegionInOneFrameWithOneInheritance) {
  // Every row below lies in the table's first region. Its host never syncs
  // its WAL, so the gate replays every write-set into the one region.
  constexpr int kRows = 20;
  const int victim = host_of(Testbed::row_key(0));
  fail_wal_syncs(victim);
  auto tss = commit_rows(0, kRows);
  ASSERT_TRUE(bed_.client().wait_flushed());
  Counter& inheritances = global_counter("tracker.inheritances");
  const auto inherited_before = inheritances.get();

  bed_.crash_server(victim);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();

  // One apply frame carries the region's whole candidate list; the target
  // inherits TPr(s) — and pays the inheritance heartbeat's WAL sync — once
  // per frame, not once per write-set.
  const auto stats = bed_.rm().recovery_client_stats();
  EXPECT_EQ(stats.region_writesets_replayed, kRows);
  EXPECT_GE(stats.flush_rpcs, 1);
  EXPECT_LT(stats.flush_rpcs, kRows);
  const auto inherited = inheritances.get() - inherited_before;
  EXPECT_GE(inherited, 1);
  EXPECT_LE(inherited, stats.flush_rpcs);

  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, kRows);
}

TEST_F(ServerRecoveryTest, ReplayedWritesSurviveTargetCrashRightAfterItsGate) {
  // §5 invariant 6 with per-frame inheritance: the gate's replay frame is
  // WAL-synced on the target before it is acked, so crashing the target
  // the moment its gate returns loses none of the replayed write-sets.
  constexpr int kRows = 20;
  const int victim = host_of(Testbed::row_key(0));
  const std::string region = bed_.master().locate("t", Testbed::row_key(0)).value().region_name;
  fail_wal_syncs(victim);
  auto tss = commit_rows(0, kRows);
  ASSERT_TRUE(bed_.client().wait_flushed());

  // A gate can still fire after this test body returns (an assertion that
  // ends it early leaves recovery in flight), so the gates share ownership
  // of what they write.
  auto target = std::make_shared<std::atomic<int>>(-1);
  for (int i = 0; i < bed_.cluster().num_servers(); ++i) {
    bed_.cluster().server(i).set_region_gate(
        [this, i, region, target](const std::string& name, const std::string& server_id,
                                  const std::vector<WalRecord>& recovered) {
          bed_.rm().on_region_recovered(name, server_id, recovered);
          if (name == region) target->store(i, std::memory_order_release);
        });
  }
  bed_.crash_server(victim);
  const Micros deadline = now_micros() + seconds(30);
  while (target->load(std::memory_order_acquire) < 0 && now_micros() < deadline) {
    sleep_micros(100);
  }
  const int next = target->load(std::memory_order_acquire);
  ASSERT_GE(next, 0) << "the region was never gated";
  ASSERT_NE(next, victim);
  bed_.crash_server(next);
  EXPECT_GE(bed_.rm().recovery_client_stats().region_writesets_replayed, kRows);

  ASSERT_TRUE(bed_.wait_server_recoveries(2));
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, kRows);
}

TEST_F(ServerRecoveryTest, SupersededReassignmentReFlushesSplitWalEdits) {
  // §8 superseded-edit rule: the victim's split-WAL edits for a region are
  // re-flushed through the routed write path when a later failure takes the
  // region's reassignment away from the first recovery. Here the region's
  // first new host dies inside its gate, and the gate returns only once the
  // master has fenced the region again: the first handler's open then fails,
  // and its retry finds the later epoch and takes the superseded branch.
  constexpr int kRows = 20;  // every row lies in the table's first region
  const int victim = host_of(Testbed::row_key(0));
  const std::string region = bed_.master().locate("t", Testbed::row_key(0)).value().region_name;
  auto tss = commit_rows(0, kRows);
  ASSERT_TRUE(bed_.client().wait_flushed());
  RegionServer& victim_server = bed_.cluster().server(victim);
  ASSERT_TRUE(victim_server.persist_wal().is_ok());
  auto records = Wal::read_records(bed_.cluster().dfs(), victim_server.wal_path());
  ASSERT_TRUE(records.is_ok()) << records.status();
  std::int64_t region_records = 0;
  for (const WalRecord& rec : records.value()) region_records += rec.region == region ? 1 : 0;
  ASSERT_GT(region_records, 0);

  // Shared ownership: a gate can still fire after an early test exit.
  auto fired = std::make_shared<std::atomic<bool>>(false);
  for (int i = 0; i < bed_.cluster().num_servers(); ++i) {
    bed_.cluster().server(i).set_region_gate(
        [this, i, region, fired](const std::string& name, const std::string& server_id,
                                 const std::vector<WalRecord>& recovered) {
          if (name != region || fired->exchange(true)) {
            bed_.rm().on_region_recovered(name, server_id, recovered);
            return;
          }
          const std::uint64_t opened_at = bed_.master().region_epoch(name);
          bed_.crash_server(i);
          const Micros deadline = now_micros() + seconds(10);
          while (bed_.master().region_epoch(name) <= opened_at && now_micros() < deadline) {
            sleep_millis(1);
          }
        });
  }
  Counter& replays = global_counter("master.superseded_edit_replays");
  const std::int64_t replays_before = replays.get();

  bed_.crash_server(victim);
  ASSERT_TRUE(bed_.wait_server_recoveries(2));
  bed_.wait_for_recovery();
  ASSERT_TRUE(fired->load());
  EXPECT_EQ(replays.get() - replays_before, region_records);

  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, kRows);
}

TEST(InFlightApplyTest, CrashUnderAnInFlightFlushIsRetriedNotDropped) {
  // The crash closes the WAL segment under an apply that has passed the
  // server's liveness check. The flusher must retry the write-set into the
  // recovered region, not drop it: a dropped write-set never counts as
  // flushed, so TF(c) — and with it TF and TP — would stop short of it.
  TestbedConfig cfg = fast_test_config(2, 1);
  cfg.cluster.server.write_service = millis(200);
  // Detection must come after the apply reaches the WAL: an apply that
  // outlives the takeover is fenced (WrongEpoch), which was always retried.
  cfg.cluster.server.session_ttl = seconds(1);
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", 1000, 2).is_ok());
  const std::string row = Testbed::row_key(0);
  const std::string host = bed.master().locate("t", row).value().server_id;

  Transaction txn = bed.client().begin("t");
  txn.put(row, "c", "in-flight");
  auto ts = txn.commit();
  ASSERT_TRUE(ts.is_ok());
  sleep_millis(50);  // the flusher's apply is now inside its service time
  for (int i = 0; i < bed.cluster().num_servers(); ++i) {
    if (bed.cluster().server(i).id() == host) bed.crash_server(i);
  }
  ASSERT_TRUE(bed.wait_server_recoveries(1));
  bed.wait_for_recovery();
  ASSERT_TRUE(bed.client().wait_flushed(seconds(30))) << "the in-flight write-set was dropped";
  ASSERT_TRUE(bed.wait_stable(ts.value()));
  Transaction r = bed.client().begin("t");
  auto v = r.get(row, "c");
  ASSERT_TRUE(v.is_ok());
  ASSERT_TRUE(v.value().has_value());
  EXPECT_EQ(*v.value(), "in-flight");
  r.abort();
}

/// Index of the server hosting `row` of table "t".
int host_index(Testbed& bed, const std::string& row) {
  const std::string host = bed.master().locate("t", row).value().server_id;
  for (int i = 0; i < bed.cluster().num_servers(); ++i) {
    if (bed.cluster().server(i).id() == host) return i;
  }
  ADD_FAILURE() << "no server hosts " << row;
  return 0;
}

/// Commit `value-<i>` to row i for i in [0, rows) and wait until flushed;
/// returns the last commit timestamp.
Timestamp commit_and_flush(Testbed& bed, int rows) {
  Timestamp last = kNoTimestamp;
  for (int i = 0; i < rows; ++i) {
    Transaction txn = bed.client().begin("t");
    txn.put(Testbed::row_key(static_cast<std::uint64_t>(i)), "c", "value-" + std::to_string(i));
    auto ts = txn.commit();
    EXPECT_TRUE(ts.is_ok());
    last = ts.value_or(last);
  }
  EXPECT_TRUE(bed.client().wait_flushed());
  return last;
}

void expect_rows(Testbed& bed, int rows) {
  Transaction r = bed.client().begin("t");
  for (int i = 0; i < rows; ++i) {
    auto v = r.get(Testbed::row_key(static_cast<std::uint64_t>(i)), "c");
    ASSERT_TRUE(v.is_ok());
    ASSERT_TRUE(v.value().has_value()) << "lost committed row " << i;
    EXPECT_EQ(*v.value(), "value-" + std::to_string(i));
  }
  r.abort();
}

TEST(ProofTakeoverTest, CrashThenOneReadRecoversWellUnderTheTtl) {
  // A 5 s session TTL: waiting it out would dominate the outage. The first
  // read of a row the dead server hosted bounces with ServerDown, the master
  // probes, and the fenced takeover starts at once.
  TestbedConfig cfg = fast_test_config(3, 1);
  cfg.cluster.server.session_ttl = seconds(5);
  cfg.cluster.server.wal_sync_interval = seconds(100);  // the gate replays the tail
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", 3000, 6).is_ok());
  constexpr int kRows = 60;
  const Timestamp last = commit_and_flush(bed, kRows);
  Counter& proofs = global_counter("master.takeovers_on_proof");
  Counter& expiries = global_counter("master.takeovers_on_expiry");
  const std::int64_t proofs_before = proofs.get();
  const std::int64_t expiries_before = expiries.get();

  const Micros crashed_at = now_micros();
  bed.crash_server(host_index(bed, Testbed::row_key(0)));
  KvClient reader(bed.master(), millis(1));
  auto v = reader.get("t", Testbed::row_key(0), "c", last);
  ASSERT_TRUE(v.is_ok()) << v.status();
  ASSERT_TRUE(v.value().has_value());
  EXPECT_EQ(v.value()->value, "value-0");
  ASSERT_TRUE(bed.wait_server_recoveries(1, seconds(4)));
  bed.wait_for_recovery();
  EXPECT_LT(now_micros() - crashed_at, seconds(1)) << "recovery waited for the session TTL";
  EXPECT_EQ(proofs.get() - proofs_before, 1);
  EXPECT_EQ(expiries.get(), expiries_before);
  ASSERT_TRUE(bed.wait_stable(last));
  expect_rows(bed, kRows);
}

TEST(ProofTakeoverTest, PartitionedLiveServerWaitsOutItsTtl) {
  // Silence proves nothing. The victim is cut off from the coordination
  // service, the master and every client, but keeps running: reads of its
  // rows fail with a plain Unavailable, a crash report of it finds only a
  // partition, and it is taken over no earlier than its lease lapses.
  TestbedConfig cfg = fast_test_config(3, 1);
  constexpr Micros kTtl = millis(600);
  cfg.cluster.server.session_ttl = kTtl;
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", 3000, 6).is_ok());
  constexpr int kRows = 20;
  const Timestamp last = commit_and_flush(bed, kRows);
  RegionServer& victim = bed.cluster().server(host_index(bed, Testbed::row_key(0)));
  Counter& proofs = global_counter("master.takeovers_on_proof");
  Counter& expiries = global_counter("master.takeovers_on_expiry");
  Counter& live_takeovers = global_counter("master.proof_takeovers_of_live_servers");
  Counter& probes = global_counter("master.crash_probes");
  const std::int64_t proofs_before = proofs.get();
  const std::int64_t expiries_before = expiries.get();
  const std::int64_t live_before = live_takeovers.get();
  const std::int64_t probes_before = probes.get();

  const int partition = bed.fault().add_partition(PartitionRule{victim.id(), "", true});
  const auto session = bed.coord().session("servers", victim.id());
  ASSERT_TRUE(session.has_value());
  // No renewal can land after the cut, so the lease lapses TTL after this.
  const Micros last_renewal = session->last_heartbeat;

  KvClient reader(bed.master(), millis(1));
  reader.set_client_id("reader");
  auto v = reader.get("t", Testbed::row_key(0), "c", last, /*max_retries=*/5);
  EXPECT_TRUE(v.status().is_unavailable()) << v.status();
  EXPECT_EQ(probes.get(), probes_before) << "a partition answered ServerDown";
  bed.master().suspect_server(victim.id());  // as a client that saw it would
  EXPECT_EQ(probes.get() - probes_before, 1);
  EXPECT_EQ(bed.master().live_servers().size(), 3u) << "taken over before its lease lapsed";

  ASSERT_TRUE(bed.wait_server_recoveries(1));
  const Micros taken_over_at = now_micros();
  std::printf("[ silence  ] partitioned live server taken over %.0f ms after its last renewal "
              "(TTL %.0f ms)\n",
              static_cast<double>(taken_over_at - last_renewal) / 1e3,
              static_cast<double>(kTtl) / 1e3);
  EXPECT_GE(taken_over_at, last_renewal + kTtl) << "taken over before its TTL";
  EXPECT_EQ(proofs.get(), proofs_before);
  EXPECT_EQ(expiries.get() - expiries_before, 1);
  EXPECT_EQ(live_takeovers.get(), live_before);
  bed.fault().heal_partition(partition);
  bed.wait_for_recovery();
  ASSERT_TRUE(bed.wait_stable(last));
  expect_rows(bed, kRows);
}

/// Commit `value-<i>` to row i for i in [from, to) and wait until flushed;
/// returns the last commit timestamp.
Timestamp commit_range(Testbed& bed, int from, int to) {
  Timestamp last = kNoTimestamp;
  for (int i = from; i < to; ++i) {
    Transaction txn = bed.client().begin("t");
    txn.put(Testbed::row_key(static_cast<std::uint64_t>(i)), "c", "value-" + std::to_string(i));
    auto ts = txn.commit();
    EXPECT_TRUE(ts.is_ok());
    last = ts.value_or(last);
  }
  EXPECT_TRUE(bed.client().wait_flushed());
  return last;
}

TEST(GateDedupTest, GateReplaysOnlyWhatTheSplitDidNotRecover) {
  // Server heartbeats sync the WAL and move TP(s) up to TF. With them held
  // off, the victim's TP(s) stays at its start, so every write-set below is
  // a gate-replay candidate; the first kSynced are also durable in its WAL
  // and come back through the split. The crash is taken over on proof.
  TestbedConfig cfg = fast_test_config(3, 1);
  cfg.cluster.server.wal_sync_interval = seconds(100);
  cfg.cluster.server.heartbeat_interval = seconds(100);
  cfg.cluster.server.session_ttl = seconds(300);
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", 3000, 6).is_ok());
  constexpr int kSynced = 8;
  constexpr int kUnsynced = 6;  // every row lies in the table's first region
  const int victim = host_index(bed, Testbed::row_key(0));
  RegionServer& dead = bed.cluster().server(victim);
  commit_range(bed, 0, kSynced);
  ASSERT_TRUE(dead.persist_wal().is_ok());
  FaultRule rule;
  rule.op = FaultOp::kDfsSync;
  rule.target = dead.wal_path();
  rule.error_probability = 1.0;
  bed.fault().add_rule(rule);
  const Timestamp last = commit_range(bed, kSynced, kSynced + kUnsynced);
  const RecoveryClientStats before = bed.rm().recovery_client_stats();

  bed.crash_server(victim);
  bed.master().suspect_server(dead.id());
  ASSERT_TRUE(bed.wait_server_recoveries(1));
  bed.wait_for_recovery();

  const RecoveryClientStats after = bed.rm().recovery_client_stats();
  EXPECT_EQ(after.region_writesets_replayed - before.region_writesets_replayed, kUnsynced);
  EXPECT_EQ(after.region_writesets_deduped - before.region_writesets_deduped, kSynced);
  bed.fault().clear_rules();
  ASSERT_TRUE(bed.wait_stable(last));
  expect_rows(bed, kSynced + kUnsynced);
}

TEST(RecoveryPipelineTest, RegionLoadsItsStoreFilesWhileTheWalSplits) {
  // Slow DFS reads: each WAL read sleeps kWalRead, each store-file read
  // kStoreRead. A region's open reads its store files (two reads per file)
  // and only then waits for the split. If the loads overlap the split, the
  // region's gate fires a sync and an apply after the split ends; if they
  // wait for it, at least two store-file reads later.
  constexpr Micros kWalRead = millis(300);
  constexpr Micros kStoreRead = millis(100);
  TestbedConfig cfg = fast_test_config(3, 1);
  cfg.cluster.server.wal_sync_interval = seconds(100);
  // The crash is taken over on proof, so the TTL only has to outlast the
  // slow reads on every server.
  cfg.cluster.server.session_ttl = seconds(5);
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", 3000, 6).is_ok());
  const int victim = host_index(bed, Testbed::row_key(0));
  RegionServer& dead = bed.cluster().server(victim);
  const std::string region = bed.master().locate("t", Testbed::row_key(0)).value().region_name;
  commit_range(bed, 0, 10);
  ASSERT_TRUE(dead.region(region)->flush_memstore().is_ok());  // a store file to load
  const Timestamp last = commit_range(bed, 10, 20);
  ASSERT_TRUE(dead.persist_wal().is_ok());  // and WAL edits to split

  auto gated_at = std::make_shared<std::atomic<Micros>>(0);
  for (int i = 0; i < bed.cluster().num_servers(); ++i) {
    bed.cluster().server(i).set_region_gate(
        [&bed, region, gated_at](const std::string& name, const std::string& server_id,
                                 const std::vector<WalRecord>& recovered) {
          if (name == region) gated_at->store(now_micros(), std::memory_order_release);
          bed.rm().on_region_recovered(name, server_id, recovered);
        });
  }
  for (const char* prefix : {"/wal/", "/data/"}) {
    FaultRule rule;
    rule.op = FaultOp::kDfsRead;
    rule.target = prefix;
    rule.delay_probability = 1.0;
    rule.delay = std::string(prefix) == "/wal/" ? kWalRead : kStoreRead;
    bed.fault().add_rule(rule);
  }

  const Micros crashed_at = now_micros();
  bed.crash_server(victim);
  bed.master().suspect_server(dead.id());
  ASSERT_TRUE(bed.wait_server_recoveries(1));
  bed.wait_for_recovery();
  bed.fault().clear_rules();

  const Micros split_us = global_gauge("master.last_split_us").get();
  const Micros gate = gated_at->load(std::memory_order_acquire);
  ASSERT_GT(gate, 0) << "the region was never gated";
  EXPECT_GE(split_us, kWalRead);
  // The split starts after the crash, so it ends no later than
  // crashed_at + split_us + the takeover's own few hops.
  const Micros after_split = gate - crashed_at - split_us;
  std::printf("[ pipeline ] split %.0f ms; gate %.0f ms after the split ended\n",
              static_cast<double>(split_us) / 1e3, static_cast<double>(after_split) / 1e3);
  EXPECT_LT(after_split, kStoreRead) << "the store-file loads waited for the split";
  ASSERT_TRUE(bed.wait_stable(last));
  expect_rows(bed, 20);
}

// A proof report and the session expiry race for the same crashed server:
// the first read of its rows is aimed at the expiry, up to 10 ms to either
// side (seed-derived). Whichever report flips the master's flag recovers the
// server; the other coalesces, so the WAL split runs exactly once.
// Reproduce one schedule by running the suite's /0 instance with
// TFR_CHAOS_SEED=<seed>, as scripts/replay_seed_corpus.sh does.
class ProofExpiryRaceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProofExpiryRaceTest, OneWalSplitWhicheverReportWins) {
  const std::uint64_t seed = soak::run_seed("race", GetParam());
  SCOPED_TRACE(soak::replay_hint("race", seed));
  Rng rng(seed);
  const Micros offset = millis(static_cast<std::int64_t>(rng.next_below(21)) - 10);
  std::printf("[ race     ] read %+lld ms from the expiry\n", static_cast<long long>(offset / 1000));
  TestbedConfig cfg = fast_test_config(3, 1);
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", 3000, 6).is_ok());
  constexpr int kRows = 30;
  const Timestamp last = commit_and_flush(bed, kRows);
  Counter& splits = global_counter("master.wal_splits");
  Counter& proofs = global_counter("master.takeovers_on_proof");
  Counter& expiries = global_counter("master.takeovers_on_expiry");
  const std::int64_t splits_before = splits.get();
  const std::int64_t proofs_before = proofs.get();
  const std::int64_t takeovers_before = proofs_before + expiries.get();

  const int victim = host_index(bed, Testbed::row_key(0));
  bed.crash_server(victim);
  const auto session = bed.coord().session("servers", bed.cluster().server(victim).id());
  ASSERT_TRUE(session.has_value());
  const Micros aim = session->last_heartbeat + cfg.cluster.server.session_ttl + offset;
  while (now_micros() < aim) sleep_micros(200);
  {
    Transaction r = bed.client().begin("t");
    auto v = r.get(Testbed::row_key(0), "c");
    ASSERT_TRUE(v.is_ok()) << v.status();
    r.abort();
  }
  ASSERT_TRUE(bed.wait_server_recoveries(1));
  bed.wait_for_recovery();
  std::printf("[ race     ] taken over on %s\n", proofs.get() > proofs_before ? "proof" : "expiry");
  EXPECT_EQ(proofs.get() + expiries.get() - takeovers_before, 1);
  EXPECT_EQ(splits.get() - splits_before, 1);
  EXPECT_EQ(global_counter("master.proof_takeovers_of_live_servers").get(), 0);
  ASSERT_TRUE(bed.wait_stable(last));
  expect_rows(bed, kRows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProofExpiryRaceTest, ::testing::Range<std::uint64_t>(1, 5));

}  // namespace
}  // namespace tfr
