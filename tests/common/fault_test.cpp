// FaultInjector unit behavior: default-off, seeded determinism, prefix
// matching, one-shot triggers, per-op action gating, delay accounting, and
// the process-wide counter mirror.
#include "src/common/fault.h"

#include <gtest/gtest.h>

#include <vector>


namespace tfr {
namespace {

FaultRule apply_error_rule(double p, const std::string& target = "") {
  FaultRule r;
  r.op = FaultOp::kRpcApply;
  r.target = target;
  r.error_probability = p;
  return r;
}

TEST(FaultInjectorTest, DisabledByDefaultAndCostsNoEvaluations) {
  FaultInjector f;
  EXPECT_FALSE(f.enabled());
  const FaultAction a = f.inject(FaultOp::kRpcApply, "rs1");
  EXPECT_FALSE(a.fail);
  EXPECT_FALSE(a.drop_response);
  EXPECT_FALSE(a.corrupt_wire);
  EXPECT_EQ(a.delayed, 0);
  EXPECT_TRUE(f.check(FaultOp::kDfsSync, "/wal/x").is_ok());
  EXPECT_EQ(f.stats().evaluations, 0);
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultInjector a, b;
  a.reseed(42);
  b.reseed(42);
  EXPECT_EQ(a.seed(), 42u);
  a.add_rule(apply_error_rule(0.5));
  b.add_rule(apply_error_rule(0.5));
  std::vector<bool> av, bv;
  for (int i = 0; i < 128; ++i) {
    av.push_back(a.inject(FaultOp::kRpcApply, "rs1").fail);
    bv.push_back(b.inject(FaultOp::kRpcApply, "rs1").fail);
  }
  EXPECT_EQ(av, bv);
  // And the schedule is non-trivial at p=0.5.
  EXPECT_GT(a.stats().injected_errors, 0);
  EXPECT_LT(a.stats().injected_errors, 128);
}

TEST(FaultInjectorTest, TargetIsAPrefixMatch) {
  FaultInjector f;
  f.reseed(1);
  f.add_rule(apply_error_rule(1.0, "rs1"));
  EXPECT_TRUE(f.inject(FaultOp::kRpcApply, "rs1").fail);
  EXPECT_FALSE(f.inject(FaultOp::kRpcApply, "rs2").fail);
  // Prefix semantics, for DFS paths.
  FaultRule wal;
  wal.op = FaultOp::kDfsSync;
  wal.target = "/wal/";
  wal.error_probability = 1.0;
  f.add_rule(wal);
  EXPECT_FALSE(f.check(FaultOp::kDfsSync, "/wal/rs1.log").is_ok());
  EXPECT_TRUE(f.check(FaultOp::kDfsSync, "/data/t/f1").is_ok());
}

TEST(FaultInjectorTest, EmptyTargetMatchesEverything) {
  FaultInjector f;
  f.reseed(1);
  f.add_rule(apply_error_rule(1.0, ""));
  EXPECT_TRUE(f.inject(FaultOp::kRpcApply, "rs1").fail);
  EXPECT_TRUE(f.inject(FaultOp::kRpcApply, "anything").fail);
  // But only for the rule's op.
  EXPECT_FALSE(f.inject(FaultOp::kRpcGet, "rs1").fail);
}

TEST(FaultInjectorTest, FailNextCountsDown) {
  FaultInjector f;
  f.reseed(1);
  FaultRule r;
  r.op = FaultOp::kDfsSync;
  r.fail_next = 3;
  f.add_rule(r);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(f.check(FaultOp::kDfsSync, "/wal/x").code(), Code::kUnavailable) << i;
  }
  EXPECT_TRUE(f.check(FaultOp::kDfsSync, "/wal/x").is_ok());
  EXPECT_EQ(f.stats().injected_errors, 3);
}

TEST(FaultInjectorTest, DropAndCorruptOnlyApplyToTheApplyRpc) {
  FaultInjector f;
  f.reseed(1);
  FaultRule r;
  r.op = FaultOp::kRpcGet;
  r.drop_response_probability = 1.0;
  r.corrupt_probability = 1.0;
  f.add_rule(r);
  const FaultAction a = f.inject(FaultOp::kRpcGet, "rs1");
  EXPECT_FALSE(a.drop_response);
  EXPECT_FALSE(a.corrupt_wire);
  EXPECT_TRUE(f.check(FaultOp::kRpcGet, "rs1").is_ok());
}

TEST(FaultInjectorTest, DelayIsInjectedAndAccounted) {
  FaultInjector f;
  f.reseed(1);
  FaultRule r;
  r.op = FaultOp::kDfsSync;
  r.target = "/wal/";
  r.delay_probability = 1.0;
  r.delay = millis(2);
  f.add_rule(r);
  const Micros t0 = now_micros();
  const FaultAction a = f.inject(FaultOp::kDfsSync, "/wal/rs1.log");
  EXPECT_GE(now_micros() - t0, millis(2));
  EXPECT_EQ(a.delayed, millis(2));
  EXPECT_FALSE(a.fail);
  const FaultStats s = f.stats();
  EXPECT_EQ(s.injected_delays, 1);
  EXPECT_GE(s.delay_micros, millis(2));
}

TEST(FaultInjectorTest, ClearRulesDisablesAndKeepsStats) {
  FaultInjector f;
  f.reseed(1);
  f.add_rule(apply_error_rule(1.0));
  EXPECT_TRUE(f.enabled());
  EXPECT_TRUE(f.inject(FaultOp::kRpcApply, "rs1").fail);
  f.clear_rules();
  EXPECT_FALSE(f.enabled());
  EXPECT_FALSE(f.inject(FaultOp::kRpcApply, "rs1").fail);
  EXPECT_EQ(f.stats().injected_errors, 1);  // kept
  f.reset_stats();
  EXPECT_EQ(f.stats().injected_errors, 0);
}

TEST(FaultInjectorTest, CheckMapsActionsToUnavailable) {
  FaultInjector f;
  f.reseed(1);
  f.add_rule(apply_error_rule(1.0));
  const Status s = f.check(FaultOp::kRpcApply, "rs1");
  EXPECT_EQ(s.code(), Code::kUnavailable);
}

// --- partition rules ---------------------------------------------------------

TEST(FaultInjectorTest, SymmetricPartitionBlocksBothDirections) {
  FaultInjector f;
  const int id = f.add_partition(PartitionRule{"rs1", "coord", /*symmetric=*/true});
  EXPECT_TRUE(f.enabled());
  EXPECT_TRUE(f.partitioned("rs1", "coord"));
  EXPECT_TRUE(f.partitioned("coord", "rs1"));
  EXPECT_FALSE(f.partitioned("rs2", "coord"));
  f.heal_partition(id);
  EXPECT_FALSE(f.partitioned("rs1", "coord"));
  EXPECT_FALSE(f.enabled());  // nothing left installed
}

TEST(FaultInjectorTest, AsymmetricPartitionBlocksOnlyOneDirection) {
  FaultInjector f;
  f.add_partition(PartitionRule{"client", "rs1", /*symmetric=*/false});
  EXPECT_TRUE(f.partitioned("client7", "rs1"));  // prefix match on src
  EXPECT_FALSE(f.partitioned("rs1", "client7"));  // reverse direction open
  f.clear_partitions();
  EXPECT_FALSE(f.partitioned("client7", "rs1"));
}

TEST(FaultInjectorTest, PartitionsActiveGaugeTracksInstallAndHeal) {
  FaultInjector f;
  EXPECT_EQ(f.partitions_active(), 0u);
  const int a = f.add_partition(PartitionRule{"rs1", "coord"});
  const int b = f.add_partition(PartitionRule{"rs2", "coord"});
  EXPECT_EQ(f.partitions_active(), 2u);
  f.heal_partition(a);
  EXPECT_EQ(f.partitions_active(), 1u);
  f.heal_partition(a);  // idempotent: healing twice does not double-decrement
  EXPECT_EQ(f.partitions_active(), 1u);
  f.heal_partition(b);
  EXPECT_EQ(f.partitions_active(), 0u);
  // clear_partitions on an already-empty set leaves the count untouched.
  f.clear_partitions();
  EXPECT_EQ(f.partitions_active(), 0u);
  // ... and on a non-empty one heals them all.
  f.add_partition(PartitionRule{"rs1", "coord"});
  f.add_partition(PartitionRule{"rs3", "coord"});
  EXPECT_EQ(f.partitions_active(), 2u);
  f.clear_partitions();
  EXPECT_EQ(f.partitions_active(), 0u);
}

TEST(FaultInjectorTest, PartitionDropsAreCounted) {
  FaultInjector f;
  f.add_partition(PartitionRule{"rs1", "coord"});
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(f.partitioned("rs1", "coord"));
  EXPECT_FALSE(f.partitioned("rs2", "coord"));  // a miss is not a drop
  EXPECT_EQ(f.stats().partition_drops, 3);
  const Status s = f.check_partition(FaultOp::kCoordHeartbeat, "rs1", "coord");
  EXPECT_EQ(s.code(), Code::kUnavailable);
  EXPECT_EQ(f.stats().partition_drops, 4);
}

TEST(FaultInjectorTest, ClearRulesLeavesPartitionsArmed) {
  FaultInjector f;
  f.reseed(1);
  f.add_rule(apply_error_rule(1.0));
  f.add_partition(PartitionRule{"rs1", "coord"});
  f.clear_rules();
  // The injector must stay enabled: an active partition outlives rule churn.
  EXPECT_TRUE(f.enabled());
  EXPECT_TRUE(f.partitioned("rs1", "coord"));
  EXPECT_FALSE(f.inject(FaultOp::kRpcApply, "rs1").fail);
  f.clear_partitions();
  EXPECT_FALSE(f.enabled());
}

}  // namespace
}  // namespace tfr
