// Elasticity under live transactional load: region splits, moves, and
// rebalancing must be invisible to transactions (§2.1's elastic-scalability
// promise) — clients just retry through the brief unavailability windows.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/common/random.h"
#include "src/testbed/testbed.h"

namespace tfr {
namespace {

class ElasticityTest : public ::testing::Test {
 protected:
  ElasticityTest() : bed_(fast_test_config(2, 2)) {}

  void SetUp() override {
    ASSERT_TRUE(bed_.start().is_ok());
    ASSERT_TRUE(bed_.create_table("t", kRows, 2).is_ok());
    // Seed data so splits have something to cut.
    Transaction txn = bed_.client(0).begin("t");
    for (std::uint64_t i = 0; i < kRows; i += 2) {
      txn.put(Testbed::row_key(i), "c", "seed");
    }
    ASSERT_TRUE(txn.commit().is_ok());
    ASSERT_TRUE(bed_.client(0).wait_flushed());
    ASSERT_TRUE(bed_.wait_stable(bed_.tm().current_ts()));
  }

  static constexpr std::uint64_t kRows = 1000;
  Testbed bed_;
};

TEST_F(ElasticityTest, SplitUnderLoadLosesNothing) {
  std::atomic<bool> stop{false};
  std::atomic<int> committed{0};
  std::thread load([&] {
    Rng rng(3);
    while (!stop) {
      Transaction txn = bed_.client(1).begin("t");
      txn.put(Testbed::row_key(rng.next_below(kRows)), "c", "live");
      if (txn.commit().is_ok()) ++committed;
    }
  });
  sleep_millis(30);

  // Split every region of the table once, under load.
  for (const auto& loc : bed_.master().table_regions("t")) {
    ASSERT_TRUE(bed_.master().split_region(loc.region_name).is_ok());
  }
  EXPECT_EQ(bed_.master().table_regions("t").size(), 4u);

  sleep_millis(30);
  stop = true;
  load.join();
  ASSERT_TRUE(bed_.client(1).wait_flushed(seconds(60)));
  ASSERT_TRUE(bed_.wait_stable(bed_.tm().current_ts()));
  EXPECT_GT(committed.load(), 0);

  // Every seeded row is still present and routed correctly.
  Transaction r = bed_.client(0).begin("t");
  for (std::uint64_t i = 0; i < kRows; i += 20) {
    auto v = r.get(Testbed::row_key(i), "c");
    ASSERT_TRUE(v.is_ok());
    EXPECT_TRUE(v.value().has_value()) << i;
  }
  r.abort();
}

TEST_F(ElasticityTest, ScaleOutRebalanceUnderLoad) {
  std::atomic<bool> stop{false};
  std::atomic<int> committed{0};
  std::thread load([&] {
    Rng rng(4);
    while (!stop) {
      Transaction txn = bed_.client(1).begin("t");
      txn.put(Testbed::row_key(rng.next_below(kRows)), "c", "live");
      if (txn.commit().is_ok()) ++committed;
    }
  });
  sleep_millis(20);

  ASSERT_TRUE(bed_.cluster().add_server().is_ok());
  // Give every region a few splits so there is something to spread.
  for (const auto& loc : bed_.master().table_regions("t")) {
    (void)bed_.master().split_region(loc.region_name);
  }
  // Tick the balancer until a tick takes no action; each tick moves at
  // most one region onto the least-loaded server.
  int moved = 0;
  for (int n; (n = bed_.master().balance_once()) > 0;) moved += n;
  EXPECT_GT(moved, 0);
  // All three servers carry load.
  std::set<std::string> hosts;
  for (const auto& loc : bed_.master().table_regions("t")) hosts.insert(loc.server_id);
  EXPECT_EQ(hosts.size(), 3u);

  sleep_millis(20);
  stop = true;
  load.join();
  ASSERT_TRUE(bed_.client(1).wait_flushed(seconds(60)));

  ASSERT_TRUE(bed_.wait_stable(bed_.tm().current_ts()));
  Transaction r = bed_.client(0).begin("t");
  auto cells = r.scan("", "", 0);
  ASSERT_TRUE(cells.is_ok());
  EXPECT_GE(cells.value().size(), kRows / 2);
  r.abort();
}

TEST_F(ElasticityTest, SplitRegionsRecoverLikeAnyOther) {
  // Split, keep committing (some un-persisted), crash the host: the split
  // children must go through the same gate + TM-log replay as table-created
  // regions.
  for (const auto& loc : bed_.master().table_regions("t")) {
    ASSERT_TRUE(bed_.master().split_region(loc.region_name).is_ok());
  }
  std::vector<Timestamp> tss;
  for (int i = 0; i < 30; ++i) {
    Transaction txn = bed_.client(0).begin("t");
    txn.put(Testbed::row_key(static_cast<std::uint64_t>(i)), "c", "post-split-" +
            std::to_string(i));
    auto ts = txn.commit();
    ASSERT_TRUE(ts.is_ok());
    tss.push_back(ts.value());
  }
  ASSERT_TRUE(bed_.client(0).wait_flushed());

  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.client(0).wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(tss.back()));

  Transaction r = bed_.client(1).begin("t");
  for (int i = 0; i < 30; ++i) {
    auto v = r.get(Testbed::row_key(static_cast<std::uint64_t>(i)), "c");
    ASSERT_TRUE(v.is_ok());
    ASSERT_TRUE(v.value().has_value()) << i;
    EXPECT_EQ(*v.value(), "post-split-" + std::to_string(i));
  }
  r.abort();
}

}  // namespace
}  // namespace tfr
