// A WAL split that exhausts its retries. The master opens a crashed
// server's regions while its WAL splits, so by the time the split gives up
// each region may already sit on a target, waiting for its edits. The
// recovery must still end as if no region had been placed: each one unserved,
// handed back to the dead server, and pending at the recovery manager with
// TP pinned at its replay floor.
//
// This lives apart from the integration suite, whose soaks assert that the
// process-wide master.wal_split_failures counter stays 0.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/fault.h"
#include "src/common/metrics.h"
#include "src/kv/kv_client.h"
#include "src/testbed/testbed.h"

namespace tfr {
namespace {

/// Index of the server hosting `row` of table "t".
int host_index(Testbed& bed, const std::string& row) {
  const std::string host = bed.master().locate("t", row).value().server_id;
  for (int i = 0; i < bed.cluster().num_servers(); ++i) {
    if (bed.cluster().server(i).id() == host) return i;
  }
  ADD_FAILURE() << "no server hosts " << row;
  return 0;
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

TEST(WalSplitFailureTest, ExhaustedSplitLeavesTheRegionsUnservedAndPending) {
  // Every read of the victim's WAL fails, so the split exhausts its retries.
  TestbedConfig cfg = fast_test_config(3, 1);
  cfg.cluster.server.wal_sync_interval = seconds(100);
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", 3000, 6).is_ok());
  const int victim = host_index(bed, Testbed::row_key(0));
  RegionServer& dead = bed.cluster().server(victim);
  const Timestamp last = commit_range(bed, 0, 20);  // all in the victim's first region
  ASSERT_TRUE(dead.persist_wal().is_ok());           // the split has blocks to read
  const std::vector<std::string> regions = dead.region_names();
  ASSERT_FALSE(regions.empty());

  FaultRule rule;
  rule.op = FaultOp::kDfsRead;
  rule.target = "/wal/";
  rule.error_probability = 1.0;
  bed.fault().add_rule(rule);
  Counter& failures = global_counter("master.wal_split_failures");
  const std::int64_t failures_before = failures.get();

  bed.crash_server(victim);
  bed.master().suspect_server(dead.id());
  ASSERT_TRUE(bed.wait_server_recoveries(1));
  bed.master().wait_for_idle();
  EXPECT_EQ(failures.get() - failures_before, 1);

  for (const std::string& name : regions) {
    auto loc = bed.master().region_by_name(name);
    ASSERT_TRUE(loc.is_ok());
    EXPECT_EQ(loc.value().server_id, dead.id()) << name << " was left reassigned";
    EXPECT_TRUE(bed.rm().is_region_recovering(name)) << name << " is no longer pending";
    for (int i = 0; i < bed.cluster().num_servers(); ++i) {
      if (i == victim) continue;
      EXPECT_EQ(bed.cluster().server(i).region(name), nullptr)
          << name << " opened early is still on " << bed.cluster().server(i).id();
    }
  }
  KvClient reader(bed.master(), millis(1));
  EXPECT_FALSE(reader.get("t", Testbed::row_key(0), "c", last, /*max_retries=*/5).is_ok())
      << "a region of the victim served a read";

  // TP stays pinned at the failure's TPr: rows committed and persisted on
  // the live servers afterwards move TF, but not TP.
  const Timestamp floor = bed.rm().min_recovery_floor();
  ASSERT_NE(floor, kMaxTimestamp);
  int row = 500;
  while (host_index(bed, Testbed::row_key(static_cast<std::uint64_t>(row))) == victim) row += 500;
  ASSERT_LT(row, 3000);
  const Timestamp later = commit_range(bed, row, row + 5);
  for (int i = 0; i < bed.cluster().num_servers(); ++i) {
    if (i == victim) continue;
    ASSERT_TRUE(bed.cluster().server(i).persist_wal().is_ok());
    bed.cluster().server(i).heartbeat_now();
  }
  ASSERT_TRUE(bed.wait_stable(later));
  bed.rm().refresh_now();
  EXPECT_GT(later, floor);
  EXPECT_LE(bed.rm().global_tp(), floor) << "TP passed a pending region's replay floor";
  bed.fault().clear_rules();
}

}  // namespace
}  // namespace tfr
