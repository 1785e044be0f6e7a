// Zombie-server soak — the epoch-fencing tentpole test. A partition rule
// cuts one region server off from the coordination service while leaving
// its client-facing RPC path intact: the classic gray failure where a node
// that everyone else has declared dead keeps cheerfully acking writes. The
// master expires its session, bumps the ownership epoch of every region it
// held, fences its WAL prefix, and reassigns; the zombie keeps serving
// until either a stale-epoch append bounces (fencing token) or its own
// conservative lease estimate lapses and it self-fences. A self-fenced
// zombie has crashed, so the master may instead take it over on proof (a
// client RPC bounced with ServerDown, confirmed by the master's probe) —
// but never while it is still live. The run asserts that this takeover is
// harmless:
//   * durability   — every committed transaction is readable (model check)
//   * atomicity    — cross-region write-sets are never torn
//   * monotonicity — published TF and TP never regress (monitor thread)
//   * ordering     — TP <= TF at every observation
//   * fencing      — the victim self-fenced, and no write acked by the old
//                    incarnation after the epoch bump is visible anywhere
//                    (a violation would surface as a model mismatch)
//   * detection    — one takeover, no earlier than the victim's lease
//                    lapsed, and never on proof while it was still live
//
// Seed count: 1 by default (ctest smoke); a soak sets TFR_ZOMBIE_SEEDS=N.
// Reproduce one schedule with:
//   TFR_CHAOS_SEED=<seed> ./integration_tests --gtest_filter='Seeds/ZombiePartitionTest.*'
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/fault.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/testbed/testbed.h"
#include "tests/integration/soak_seed.h"

namespace tfr {
namespace {

constexpr std::uint64_t kRows = 400;       // 4 regions, splits every 100 rows
constexpr std::uint64_t kSingleRows = 200; // single-row txns draw from [0, 200)
constexpr std::uint64_t kPairRows = 100;   // pair txns draw p from [200, 300)
constexpr int kWriterThreads = 2;
// Writers run until the takeover completes, not for a fixed txn count — the
// interesting window (epoch bumped, zombie not yet self-fenced) is a few
// tens of milliseconds and must see continuous write pressure. The cap only
// bounds the test if the cluster wedges.
constexpr int kMaxTxnsPerThread = 4000;
const std::uint64_t kZombieSeeds = soak::seed_count("TFR_ZOMBIE_SEEDS", 1);

// Whether any write actually lands on the zombie inside the post-bump
// window is a wall-clock race the seed does not control, so kv.epoch_rejects
// is asserted across the whole soak rather than per seed: a 10+ seed run
// that never trips the fence means the fence is not actually in the write
// path (or the window silently vanished), which is exactly the regression
// this suite exists to catch.
class ZombieSoakEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { rejects_at_start_ = global_counter("kv.epoch_rejects").get(); }
  void TearDown() override {
    if (kZombieSeeds < 10) return;
    EXPECT_GT(global_counter("kv.epoch_rejects").get(), rejects_at_start_)
        << "no stale-epoch write was ever rejected across "
        << kZombieSeeds << " zombie seeds";
  }

 private:
  std::int64_t rejects_at_start_ = 0;
};
const auto* const kZombieEnv =
    ::testing::AddGlobalTestEnvironment(new ZombieSoakEnvironment);

class ZombiePartitionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZombiePartitionTest, FencedTakeoverLeavesNoStaleWritesVisible) {
  const std::uint64_t seed = soak::run_seed("zombie", GetParam());
  SCOPED_TRACE(soak::replay_hint("zombie", seed));
  Rng rng(seed);

  TestbedConfig cfg = fast_test_config(3, kWriterThreads);
  cfg.client.flusher_threads = 2;
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", kRows, 4).is_ok());

  const std::int64_t fences_before = global_counter("kv.self_fences").get();
  Counter& proofs = global_counter("master.takeovers_on_proof");
  Counter& expiries = global_counter("master.takeovers_on_expiry");
  const std::int64_t proofs_before = proofs.get();
  const std::int64_t takeovers_before = proofs_before + expiries.get();
  const std::int64_t gauge_before = global_counter("fault.partitions_active").get();

  // --- reference model of successfully committed transactions ---------------
  std::mutex model_mutex;
  std::map<std::string, std::pair<Timestamp, std::string>> model;  // row -> (ts, value)
  std::vector<std::pair<std::string, std::string>> committed_pairs;
  Timestamp max_committed = 0;

  std::atomic<bool> stop_writers{false};
  auto writer = [&](int t, std::uint64_t thread_seed) {
    Rng trng(thread_seed);
    TxnClient& client = bed.client(t);
    for (int i = 0; i < kMaxTxnsPerThread; ++i) {
      if (stop_writers.load(std::memory_order_acquire) || client.crashed()) break;
      Transaction txn = client.begin("t");
      std::vector<Mutation> muts;
      const bool pair_txn = i % 7 == 0;
      if (pair_txn) {
        // Cross-region atomicity probe: p and p+100 land in different
        // regions. Reuse of a p is fine — every writer of p writes p+100
        // with the identical value, so the pair stays equal under
        // last-writer-wins.
        const std::uint64_t p = kSingleRows + trng.next_below(kPairRows);
        const std::string value = "pair-" + std::to_string(t) + "-" + std::to_string(i);
        for (std::uint64_t row : {p, p + 100}) {
          txn.put(Testbed::row_key(row), "c", value);
          muts.push_back(Mutation{Testbed::row_key(row), "c", value, false});
        }
      } else {
        const std::string row = Testbed::row_key(trng.next_below(kSingleRows));
        const std::string value = "s" + std::to_string(t) + "-" + std::to_string(i);
        txn.put(row, "c", value);
        muts.push_back(Mutation{row, "c", value, false});
      }
      auto ts = txn.commit();
      if (!ts.is_ok()) continue;  // not committed -> not durable, not modeled
      std::lock_guard lock(model_mutex);
      for (const auto& m : muts) {
        auto it = model.find(m.row);
        if (it == model.end() || ts.value() >= it->second.first) {
          model[m.row] = {ts.value(), m.value};
        }
      }
      if (pair_txn) committed_pairs.emplace_back(muts[0].row, muts[1].row);
      max_committed = std::max(max_committed, ts.value());
    }
  };

  // --- invariant monitor: TF/TP from the coordination service ---------------
  std::atomic<bool> monitor_stop{false};
  std::vector<std::string> violations;
  std::mutex violations_mutex;
  std::thread monitor([&] {
    Timestamp last_tf = kNoTimestamp;
    Timestamp last_tp = kNoTimestamp;
    while (!monitor_stop.load(std::memory_order_acquire)) {
      const auto tp = bed.coord().get(kTpPath);
      const auto tf = bed.coord().get(kTfPath);
      std::lock_guard lock(violations_mutex);
      if (tf && *tf < last_tf) {
        violations.push_back("TF regressed: " + std::to_string(last_tf) + " -> " +
                             std::to_string(*tf));
      }
      if (tp && *tp < last_tp) {
        violations.push_back("TP regressed: " + std::to_string(last_tp) + " -> " +
                             std::to_string(*tp));
      }
      if (tf && tp && *tp > *tf) {
        violations.push_back("TP " + std::to_string(*tp) + " > TF " + std::to_string(*tf));
      }
      if (tf) last_tf = *tf;
      if (tp) last_tp = *tp;
      sleep_micros(millis(1));
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriterThreads; ++t) {
    writers.emplace_back(writer, t, seed * 131 + static_cast<std::uint64_t>(t));
  }

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
  bed.fault().reseed(seed);
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

  // The master must detect the "failure" and run a full fenced recovery
  // (epoch bump, WAL fence + split, reassignment, replay). Detection comes
  // from the session expiry, or — once the zombie has self-fenced, i.e.
  // crashed — from proof: a client RPC bounced off it with ServerDown and
  // the master's probe confirmed it. Either way the live zombie waited out
  // its lease, and it was taken over exactly once.
  ASSERT_TRUE(bed.wait_server_recoveries(1));
  std::printf("[ zombie   ] taken over on %s\n", proofs.get() > proofs_before ? "proof" : "expiry");
  EXPECT_GE(now_micros(), lease_lapses_at) << victim << " taken over before its TTL";
  EXPECT_EQ(proofs.get() + expiries.get() - takeovers_before, 1);
  EXPECT_EQ(global_counter("master.proof_takeovers_of_live_servers").get(), 0)
      << "a proof takeover hit a server that was still live";
  // The zombie must take itself out of service without any help from the
  // coordination service: its conservative lease estimate lapses.
  const Micros fence_deadline = now_micros() + seconds(10);
  while (zombie->alive() && now_micros() < fence_deadline) sleep_millis(2);
  EXPECT_FALSE(zombie->alive()) << victim << " never self-fenced";
  EXPECT_GE(global_counter("kv.self_fences").get(), fences_before + 1);

  // Keep the write pressure on a little longer so post-takeover traffic runs
  // against the new assignment, then drain.
  sleep_micros(millis(10 + static_cast<std::int64_t>(rng.next_below(20))));
  stop_writers.store(true, std::memory_order_release);
  for (auto& w : writers) w.join();
  bed.wait_for_recovery();
  for (int c = 0; c < kWriterThreads; ++c) {
    ASSERT_TRUE(bed.client(c).wait_flushed(seconds(60))) << "client " << c;
  }
  bed.fault().clear_rules();
  bed.fault().heal_partition(partition_id);
  EXPECT_EQ(global_counter("fault.partitions_active").get(), gauge_before);
  ASSERT_TRUE(bed.wait_stable(max_committed, seconds(60)));

  monitor_stop.store(true, std::memory_order_release);
  monitor.join();
  {
    std::lock_guard lock(violations_mutex);
    EXPECT_TRUE(violations.empty()) << violations.size() << " threshold violations, first: "
                                    << violations.front();
  }
  {
    const auto tp = bed.coord().get(kTpPath);
    const auto tf = bed.coord().get(kTfPath);
    ASSERT_TRUE(tf.has_value());
    ASSERT_TRUE(tp.has_value());
    EXPECT_LE(*tp, *tf);
  }

  // --- durability: the store matches the reference model --------------------
  // A zombie write surviving past the fence would show up here as a row
  // whose visible value disagrees with the committed-transaction model.
  Transaction r = bed.client(0).begin("t");
  std::size_t checked = 0;
  for (const auto& [row, expected] : model) {
    auto v = r.get(row, "c");
    ASSERT_TRUE(v.is_ok()) << row;
    ASSERT_TRUE(v.value().has_value()) << "committed row lost: " << row;
    EXPECT_EQ(*v.value(), expected.second) << row;
    ++checked;
  }
  // --- atomicity: no torn cross-region write-sets ---------------------------
  for (const auto& [a, b] : committed_pairs) {
    auto va = r.get(a, "c");
    auto vb = r.get(b, "c");
    ASSERT_TRUE(va.is_ok() && vb.is_ok());
    ASSERT_TRUE(va.value().has_value() && vb.value().has_value()) << "torn pair " << a;
    EXPECT_EQ(*va.value(), *vb.value()) << "torn pair " << a;
  }
  r.abort();
  EXPECT_GT(checked, 0u);

  // The partition genuinely isolated the victim's coord path (every lost
  // renewal counts as a drop), and recovery never gave up a WAL split.
  EXPECT_GT(bed.fault().stats().partition_drops, 0);
  EXPECT_EQ(global_counter("master.wal_split_failures").get(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZombiePartitionTest,
                         ::testing::Range<std::uint64_t>(1, 1 + kZombieSeeds));

}  // namespace
}  // namespace tfr
