// The seeded soaks: four failure schedules on the harness in soak.h, each a
// deterministic function of its seed, each checked against the DESIGN.md §5
// invariants and the §8 GC-floor lattice by the harness's monitor and audit.
//
//   chaos   — gray failures underneath a server crash, a client crash and,
//             on half the seeds, an RM restart while the server recovers
//   cascade — a second server crashes while the first one's recovery is in
//             flight, over a tiny, fast-GC'd TM log
//   split   — the balancer splits, moves and (in a cold phase after the
//             writers stop) merges regions while a server crash-fails
//   zombie  — a server partitioned from coord keeps serving clients while
//             the master fences it and hands its regions away
//
// Run one kind across N seeds (TFR_SOAK_SEEDS overrides the default):
//   scripts/check.sh soak <chaos|cascade|split|zombie>
// Reproduce one schedule with:
//   TFR_CHAOS_SEED=<seed> ./integration_tests --gtest_filter='Seeds/<Kind>SoakTest.*/0'
#include <gtest/gtest.h>

#include <cstdio>

#include "tests/integration/soak.h"

namespace tfr {
namespace {

using soak::Soak;

// --- chaos -------------------------------------------------------------------

class ChaosSoakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSoakTest, CommittedTransactionsSurviveGrayFailuresAndCrashes) {
  Soak soak("chaos", GetParam());
  TestbedConfig cfg = Soak::config(3, 3);
  // Tiny memstores: writes spill to store files mid-schedule, so the audit
  // reads go through the bloom-pruned store-file path and the block cache.
  cfg.cluster.server.memstore_flush_bytes = 512;
  ASSERT_NO_FATAL_FAILURE(soak.open(cfg, 600, 6));  // splits every 100 rows
  Testbed& bed = soak.bed();

  bed.fault().reseed(soak.seed());
  {
    FaultRule rpc;  // lost requests, lost acks, corrupted frames
    rpc.op = FaultOp::kRpcApply;
    rpc.error_probability = 0.1;
    rpc.drop_response_probability = 0.05;
    rpc.corrupt_probability = 0.05;
    bed.fault().add_rule(rpc);

    FaultRule slow_sync;  // the slow-disk gray failure
    slow_sync.op = FaultOp::kDfsSync;
    slow_sync.target = "/wal/";
    slow_sync.delay_probability = 0.5;
    slow_sync.delay = millis(1);
    bed.fault().add_rule(slow_sync);

    FaultRule flaky_split;  // WAL-split reads during server recovery
    flaky_split.op = FaultOp::kDfsRead;
    flaky_split.target = "/wal/";
    flaky_split.error_probability = 0.05;
    bed.fault().add_rule(flaky_split);
  }

  Rng rng(soak.seed());
  // Pair rows are 300 apart, in different regions.
  soak.start({.txns_per_thread = 30, .seed_multiplier = 97, .pair_every = 5, .pair_offset = 300});
  sleep_micros(millis(15 + static_cast<std::int64_t>(rng.next_below(30))));
  const int server_victim = static_cast<int>(rng.next_below(3));
  const bool restart_rm = rng.next_bool(0.5);
  bed.crash_server(server_victim);
  ASSERT_TRUE(bed.wait_server_recoveries(1));
  if (restart_rm) {
    // The RM dies while the server recovery is in flight; the durable
    // markers make the fresh instance pick it up.
    soak.restart_recovery_manager();
  }
  sleep_micros(millis(5 + static_cast<std::int64_t>(rng.next_below(20))));
  bed.crash_client(0);
  soak.join_writers();
  ASSERT_TRUE(bed.wait_client_recoveries(1));
  ASSERT_NO_FATAL_FAILURE(soak.drain());
  ASSERT_NO_FATAL_FAILURE(soak.audit());

  // The audit read through the store-file path and the block caches; print
  // their hit rate over the whole run, summed over the servers.
  std::int64_t hits = 0, misses = 0;
  for (int i = 0; i < bed.cluster().num_servers(); ++i) {
    const BlockCacheStats cache = bed.cluster().server(i).block_cache().stats();
    hits += cache.hits;
    misses += cache.misses;
  }
  const std::int64_t lookups = hits + misses;
  std::printf("[ chaos    ] block cache: %lld hits / %lld lookups (%.1f%% hit rate)\n",
              static_cast<long long>(hits), static_cast<long long>(lookups),
              lookups > 0 ? 100.0 * static_cast<double>(hits) / static_cast<double>(lookups)
                          : 0.0);

  // Every committed write-set flushed under the RPC rule, so at least one
  // of its three error kinds fired (P(none) < 0.8^60). Delay injection is
  // NOT asserted: how many /wal/ syncs ran while the delay rule was active
  // depends on wall-clock timing, not the seed — fault_test.cpp and
  // fault_injection_test.cpp cover it deterministically.
  const FaultStats fs = bed.fault().stats();
  EXPECT_GT(fs.injected_errors + fs.dropped_responses + fs.corrupted_wires, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoakTest,
                         ::testing::Range<std::uint64_t>(1, 1 + soak::seed_count(20)));

// --- cascade -----------------------------------------------------------------
// The TP-inheritance rule (TP(s') := min(TP(s'), TP(s))) earns its keep
// here: the first failure floors the global TP at TPr(s1), and if segment GC
// ever ran ahead of that floor, the write-sets the second recovery must
// re-fetch (bounded by a TPr(s2) that may be inherited from s1) would
// already be deleted.

class CascadeSoakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CascadeSoakTest, SecondFailureDuringRecoveryNeverLosesGcdWriteSets) {
  constexpr int kServers = 4;  // two may die and regions still have homes
  Soak soak("cascade", GetParam());
  TestbedConfig cfg = Soak::config(kServers, 3);
  // Tiny memstores spill to store files mid-schedule; tiny, fast-GC'd log
  // segments make the GC-floor invariant a live race instead of a no-op —
  // without the pending-region floors, the GC would delete replayable
  // write-sets within a couple of milliseconds of TP advancing.
  cfg.cluster.server.memstore_flush_bytes = 512;
  cfg.txn_log.segment_records = 24;
  cfg.txn_log.gc_interval = millis(2);
  ASSERT_NO_FATAL_FAILURE(soak.open(cfg, 800, 8));  // splits every 100 rows
  Testbed& bed = soak.bed();

  bed.fault().reseed(soak.seed());
  {
    FaultRule rpc;  // lost requests, lost acks, corrupted frames
    rpc.op = FaultOp::kRpcApply;
    rpc.error_probability = 0.08;
    rpc.drop_response_probability = 0.04;
    rpc.corrupt_probability = 0.04;
    bed.fault().add_rule(rpc);

    FaultRule slow_sync;  // the slow-disk gray failure
    slow_sync.op = FaultOp::kDfsSync;
    slow_sync.target = "/wal/";
    slow_sync.delay_probability = 0.5;
    slow_sync.delay = millis(1);
    bed.fault().add_rule(slow_sync);

    // Flaky and slow WAL-split reads stretch the first server's recovery,
    // widening the window in which the second crash lands mid-replay.
    FaultRule flaky_split;
    flaky_split.op = FaultOp::kDfsRead;
    flaky_split.target = "/wal/";
    flaky_split.error_probability = 0.05;
    flaky_split.delay_probability = 0.5;
    flaky_split.delay = millis(1);
    bed.fault().add_rule(flaky_split);
  }

  Rng rng(soak.seed());
  // Pair rows are 400 apart, in different regions.
  soak.start({.txns_per_thread = 40, .seed_multiplier = 131, .pair_every = 5, .pair_offset = 400});
  sleep_micros(millis(10 + static_cast<std::int64_t>(rng.next_below(25))));
  const int first_victim = static_cast<int>(rng.next_below(kServers));
  const int second_victim =
      (first_victim + 1 + static_cast<int>(rng.next_below(kServers - 1))) % kServers;
  bed.crash_server(first_victim);
  // The moment the RM has *started* handling the first failure — its
  // pending-region floors are installed, the split/replay is in flight —
  // kill the second server, after a seed-derived delay so the second crash
  // lands at varying depths of the first recovery.
  ASSERT_TRUE(bed.wait_server_recoveries(1));
  sleep_micros(static_cast<std::int64_t>(rng.next_below(4000)));
  bed.crash_server(second_victim);
  ASSERT_TRUE(bed.wait_server_recoveries(2));
  ASSERT_NO_FATAL_FAILURE(soak.drain());

  // Settle, under the monitor, until segment GC has reclaimed something.
  // GC is asynchronous: its floor only advances once every server's
  // memstore residue is flushed and the RM's next poll republishes TP, so
  // on a slow build (TSan) the tail segments can still be live here even
  // though the run was clean. Row 780 is outside every writer's key range,
  // so the settle commits never disturb the reference model.
  ASSERT_NO_FATAL_FAILURE(soak.audit([&] {
    for (const Micros deadline = now_micros() + seconds(30);
         bed.tm().log().stats().gc_segments == 0 && now_micros() < deadline;) {
      ASSERT_TRUE(bed.flush_all_memstores().is_ok());
      Transaction settle = bed.client(0).begin("t");
      settle.put(Testbed::row_key(780), "c", "settle");
      (void)settle.commit();
      sleep_micros(millis(5));
    }
  }));

  // Both recoveries ran, the monitor saw live recovery floors, and the
  // segmented log actually reclaimed segments.
  EXPECT_GE(bed.rm().stats().server_recoveries, 2);
  EXPECT_GT(soak.floor_samples(), 0)
      << "monitor never saw a live recovery floor — the schedule missed the window";
  const auto log_stats = bed.tm().log().stats();
  EXPECT_GT(log_stats.gc_segments, 0)
      << "segment GC never ran; the invariant was vacuous (tp=" << bed.rm().global_tp()
      << " tf=" << bed.rm().global_tf() << " floor=" << bed.rm().min_recovery_floor()
      << " segments=" << log_stats.segments << " — a pinned TP here usually means a dead "
      << "server's TP(s) registry entry was resurrected)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CascadeSoakTest,
                         ::testing::Range<std::uint64_t>(1, 1 + soak::seed_count(3)));

// --- split -------------------------------------------------------------------
// §9's gauntlet: every topology transition races failure recovery. A split
// can land on a region whose replay floor is still pinned (the children
// must min-inherit it), recovery can fence a region the balancer is
// mid-split on (the transition must abort cleanly), and the TM-log GC must
// never reclaim a write-set any child still has to replay.

class SplitSoakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitSoakTest, TopologyChurnDuringFailuresKeepsInvariants) {
  constexpr int kServers = 4;
  Soak soak("split", GetParam());
  Counter& splits = global_counter("master.region_splits");
  Counter& merges = global_counter("master.region_merges");
  Counter& moves = global_counter("master.region_moves");
  const std::int64_t splits_before = splits.get();
  const std::int64_t merges_before = merges.get();
  const std::int64_t moves_before = moves.get();

  TestbedConfig cfg = Soak::config(kServers, 3);
  // Tiny memstores spill to store files quickly so the size trigger has
  // something to measure; tiny fast-GC'd log segments make the GC-floor
  // invariant a live race across every floor migration.
  cfg.cluster.server.memstore_flush_bytes = 512;
  cfg.txn_log.segment_records = 24;
  cfg.txn_log.gc_interval = millis(2);
  // The balancer on an aggressive tick: size splits at ~3 store-file
  // spills; merges of cold adjacent pairs whose merged store stays within
  // the split threshold (hysteresis); traffic moves plus region-count
  // evening. Two actions per tick keeps a single tick's transition batch —
  // run under the balancer lock — short relative to the crash schedule.
  cfg.cluster.balancer.interval = millis(10);
  cfg.cluster.balancer.split_store_bytes = 1500;
  cfg.cluster.balancer.merge_traffic_ops = 4;
  cfg.cluster.balancer.merge_store_bytes = 1500;
  cfg.cluster.balancer.move_load_ratio = 2.0;
  cfg.cluster.balancer.move_min_ops = 16;
  cfg.cluster.balancer.max_actions_per_tick = 2;
  ASSERT_NO_FATAL_FAILURE(soak.open(cfg, 400, 8));  // one region per 50 rows
  Testbed& bed = soak.bed();

  bed.fault().reseed(soak.seed());
  {
    FaultRule rpc;  // lost requests, lost acks, corrupted frames
    rpc.op = FaultOp::kRpcApply;
    rpc.error_probability = 0.05;
    rpc.drop_response_probability = 0.03;
    rpc.corrupt_probability = 0.03;
    bed.fault().add_rule(rpc);

    FaultRule slow_sync;  // the slow-disk gray failure
    slow_sync.op = FaultOp::kDfsSync;
    slow_sync.target = "/wal/";
    slow_sync.delay_probability = 0.5;
    slow_sync.delay = millis(1);
    bed.fault().add_rule(slow_sync);
  }

  // The crash lands in the write phase or, on the other seeds, inside the
  // cold phase, where it races the merges.
  Rng rng(soak.seed());
  const bool crash_when_cold = rng.next_bool(0.5);
  const Micros crash_at = millis(crash_when_cold ? static_cast<std::int64_t>(rng.next_below(40))
                                                 : 15 + static_cast<std::int64_t>(rng.next_below(30)));
  const int victim = static_cast<int>(rng.next_below(kServers));
  auto crash = [&] {
    sleep_micros(crash_at);
    bed.crash_server(victim);
    ASSERT_TRUE(bed.wait_server_recoveries(1));
  };
  // Fat values push regions over the split threshold within a few dozen
  // transactions, so splits overlap the whole write phase.
  soak.start({.txns_per_thread = 30,
              .seed_multiplier = 131,
              .pair_every = 5,
              .pair_offset = 150,
              .pad = 48});
  if (!crash_when_cold) {
    ASSERT_NO_FATAL_FAILURE(crash());
  }
  soak.join_writers();

  // The cold phase: the writers have stopped, the gray-failure rules stay
  // armed and the balancer keeps ticking. Rows [290, 350) are never
  // written, so region [300, 350) is empty and cold, and merges with a
  // neighbour once the neighbour is cold too. Compaction passes localize
  // each split child's referenced parent files, so the children report
  // their own bytes and cold adjacent children merge as well. The phase
  // lasts ten balancer ticks, and longer until the first merge.
  const Micros cold_from = now_micros();
  if (crash_when_cold) {
    ASSERT_NO_FATAL_FAILURE(crash());
  }
  while ((merges.get() == merges_before || now_micros() < cold_from + millis(100)) &&
         now_micros() < cold_from + seconds(10)) {
    for (int i = 0; i < kServers; ++i) {
      RegionServer& server = bed.cluster().server(i);
      if (!server.alive()) continue;
      for (const auto& rl : server.region_loads()) {
        (void)server.compact_region(rl.region);  // a region mid-transition refuses
      }
    }
    sleep_micros(millis(10));
  }
  ASSERT_NO_FATAL_FAILURE(soak.drain());
  ASSERT_NO_FATAL_FAILURE(soak.audit());

  const std::int64_t n_splits = splits.get() - splits_before;
  const std::int64_t n_merges = merges.get() - merges_before;
  const std::int64_t n_moves = moves.get() - moves_before;
  std::printf("[ split    ] seed %llu: %lld splits, %lld merges, %lld moves, %zu regions, "
              "crash %s\n",
              static_cast<unsigned long long>(soak.seed()), static_cast<long long>(n_splits),
              static_cast<long long>(n_merges), static_cast<long long>(n_moves),
              bed.master().table_regions("t").size(), crash_when_cold ? "cold" : "warm");
  EXPECT_GT(n_splits, 0) << "balancer never split a region — the soak was vacuous";
  EXPECT_GT(n_merges, 0) << "no cold adjacent pair was ever merged";
  EXPECT_GE(bed.rm().stats().server_recoveries, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitSoakTest,
                         ::testing::Range<std::uint64_t>(1, 1 + soak::seed_count(3)));

// --- zombie ------------------------------------------------------------------
// The gray failure epoch fencing exists for: a partition cuts one server off
// from coord while its client-facing RPC path stays intact, so a node the
// rest of the cluster has declared dead keeps acking writes. The master
// expires its session, bumps the ownership epoch of its regions, fences its
// WAL and reassigns; the zombie serves on until a stale-epoch append
// bounces (fencing token) or its conservative lease estimate lapses and it
// self-fences. A self-fenced zombie has crashed, so the master may take it
// over on proof (a client RPC bounced with ServerDown, confirmed by the
// master's probe) — but never while it is still live. On top of the
// harness's checks (a write acked by the zombie after the bump would show
// in the model audit), the schedule asserts one takeover, no earlier than
// the victim's lease lapsed, and that the victim self-fenced.

// Whether any write lands on the zombie inside the post-bump window is a
// wall-clock race the seed does not control, so kv.epoch_rejects is asserted
// across a run of 10 or more zombie seeds rather than per seed: a run that
// never trips the fence means the fence is not in the write path (or the
// window silently vanished), which is exactly the regression to catch.
int zombie_runs = 0;

class ZombieSoakEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { rejects_at_start_ = global_counter("kv.epoch_rejects").get(); }
  void TearDown() override {
    if (zombie_runs < 10) return;
    EXPECT_GT(global_counter("kv.epoch_rejects").get(), rejects_at_start_)
        << "no stale-epoch write was ever rejected across " << zombie_runs << " zombie seeds";
  }

 private:
  std::int64_t rejects_at_start_ = 0;
};
const auto* const kZombieEnv = ::testing::AddGlobalTestEnvironment(new ZombieSoakEnvironment);

class ZombieSoakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZombieSoakTest, FencedTakeoverLeavesNoStaleWritesVisible) {
  ++zombie_runs;
  Soak soak("zombie", GetParam());
  const TestbedConfig cfg = Soak::config(3, 2);
  ASSERT_NO_FATAL_FAILURE(soak.open(cfg, 400, 4));  // splits every 100 rows
  Testbed& bed = soak.bed();

  const std::int64_t fences_before = global_counter("kv.self_fences").get();
  Counter& proofs = global_counter("master.takeovers_on_proof");
  Counter& expiries = global_counter("master.takeovers_on_expiry");
  const std::int64_t proofs_before = proofs.get();
  const std::int64_t takeovers_before = proofs_before + expiries.get();
  const std::size_t partitions_before = bed.fault().partitions_active();

  // The writers run until the takeover completes: the interesting window
  // (epoch bumped, zombie not yet self-fenced) is a few tens of milliseconds
  // and must see continuous write pressure. The cap only bounds a wedged
  // run. Pair p in [200, 300) and p + 100 land in different regions.
  Rng rng(soak.seed());
  soak.start({.txns_per_thread = 4000,
              .seed_multiplier = 131,
              .pair_every = 7,
              .pair_offset = 100,
              .pair_rows = 100});

  // --- make a zombie, seed-derived timing -----------------------------------
  sleep_micros(millis(10 + static_cast<std::int64_t>(rng.next_below(30))));
  const auto live = bed.master().live_servers();
  ASSERT_EQ(live.size(), 3u);
  const std::string victim = live[rng.next_below(live.size())];
  RegionServer* zombie = bed.cluster().server_by_id(victim);
  ASSERT_NE(zombie, nullptr);
  // Partitioned from coord only: clients still reach it, so it keeps acking
  // writes while the rest of the cluster moves on without it.
  const int partition_id =
      bed.fault().add_partition(PartitionRule{victim, "coord", /*symmetric=*/true});
  const auto session = bed.coord().session("servers", victim);
  ASSERT_TRUE(session.has_value());
  // No renewal can land after the cut, so the lease lapses TTL after this.
  const Micros lease_lapses_at = session->last_heartbeat + cfg.cluster.server.session_ttl;
  // And paused: its heartbeat thread stalls (the classic GC pause), so the
  // conservative self-fence — which normally precedes the takeover — fires
  // late, and applies stall inside it, so a write that routed to the victim
  // while it still owned the region reaches the WAL *after* the master has
  // bumped the epoch. That in-flight write against a not-yet-self-fenced
  // zombie is exactly what the fencing token must bounce (clients re-locate
  // on every retry, so without the stalls the race window is microseconds).
  bed.fault().reseed(soak.seed());
  {
    FaultRule gc_pause;
    gc_pause.op = FaultOp::kCoordHeartbeat;
    gc_pause.target = victim;
    gc_pause.delay_probability = 1.0;
    gc_pause.delay = millis(40 + static_cast<std::int64_t>(rng.next_below(40)));
    bed.fault().add_rule(gc_pause);

    FaultRule slow;
    slow.op = FaultOp::kRpcApply;
    slow.target = victim;
    slow.delay_probability = 1.0;
    slow.delay = millis(5 + static_cast<std::int64_t>(rng.next_below(20)));
    bed.fault().add_rule(slow);
  }

  // The master must run a full fenced recovery (epoch bump, WAL fence +
  // split, reassignment, replay), detected from the session expiry or — once
  // the zombie has self-fenced, i.e. crashed — on proof. Either way the live
  // zombie waited out its lease, and it was taken over exactly once.
  ASSERT_TRUE(bed.wait_server_recoveries(1));
  std::printf("[ zombie   ] taken over on %s\n", proofs.get() > proofs_before ? "proof" : "expiry");
  EXPECT_GE(now_micros(), lease_lapses_at) << victim << " taken over before its TTL";
  EXPECT_EQ(proofs.get() + expiries.get() - takeovers_before, 1);
  // The zombie must take itself out of service without any help from the
  // coordination service: its conservative lease estimate lapses.
  const Micros fence_deadline = now_micros() + seconds(10);
  while (zombie->alive() && now_micros() < fence_deadline) sleep_millis(2);
  EXPECT_FALSE(zombie->alive()) << victim << " never self-fenced";
  EXPECT_GE(global_counter("kv.self_fences").get(), fences_before + 1);

  // Keep the write pressure on a little longer so post-takeover traffic runs
  // against the new assignment, then drain.
  sleep_micros(millis(10 + static_cast<std::int64_t>(rng.next_below(20))));
  soak.stop_writers();
  ASSERT_NO_FATAL_FAILURE(soak.drain());
  bed.fault().heal_partition(partition_id);
  EXPECT_EQ(bed.fault().partitions_active(), partitions_before);
  ASSERT_NO_FATAL_FAILURE(soak.audit());

  // The partition isolated the victim's coord path: every lost renewal
  // counts as a drop.
  EXPECT_GT(bed.fault().stats().partition_drops, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZombieSoakTest,
                         ::testing::Range<std::uint64_t>(1, 1 + soak::seed_count(1)));

}  // namespace
}  // namespace tfr
