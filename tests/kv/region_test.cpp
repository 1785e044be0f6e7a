#include "src/kv/region.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "src/common/clock.h"
#include "src/common/metrics.h"

namespace tfr {
namespace {

class RegionTest : public ::testing::Test {
 protected:
  RegionTest() : dfs_(DfsConfig{}), cache_(1 << 20) {}

  std::unique_ptr<Region> make_region(const std::string& start = "",
                                      const std::string& end = "") {
    auto region = std::make_unique<Region>(RegionDescriptor{"t", start, end}, dfs_, cache_);
    EXPECT_TRUE(region->load_store_files().is_ok());
    region->set_state(RegionState::kOnline);
    return region;
  }

  Dfs dfs_;
  BlockCache cache_;
};

TEST_F(RegionTest, ApplyAndGetFromMemstore) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"r", "c", "v", 5, false}}));
  auto cell = region->get("r", "c", 10);
  ASSERT_TRUE(cell.is_ok());
  ASSERT_TRUE(cell.value().has_value());
  EXPECT_EQ(cell.value()->value, "v");
}

TEST_F(RegionTest, FlushMovesDataToStoreFilesAndReadsStillWork) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"r1", "c", "v1", 5, false}, Cell{"r2", "c", "v2", 6, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  EXPECT_EQ(region->memstore_bytes(), 0u);
  EXPECT_EQ(region->store_file_count(), 1u);
  EXPECT_EQ(region->get("r1", "c", 10).value()->value, "v1");
  EXPECT_EQ(region->get("r2", "c", 10).value()->value, "v2");
}

TEST_F(RegionTest, MemstoreShadowsOlderStoreFileVersions) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"r", "c", "old", 5, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_TRUE(region->apply({Cell{"r", "c", "new", 9, false}}));
  EXPECT_EQ(region->get("r", "c", 10).value()->value, "new");
  EXPECT_EQ(region->get("r", "c", 6).value()->value, "old");
}

TEST_F(RegionTest, NewerStoreFileWinsOverOlder) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"r", "c", "first", 5, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_TRUE(region->apply({Cell{"r", "c", "second", 8, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  EXPECT_EQ(region->store_file_count(), 2u);
  EXPECT_EQ(region->get("r", "c", 10).value()->value, "second");
}

TEST_F(RegionTest, GetDuplicateCellAcrossFiles) {
  // Idempotent replay can land the same (row, column, ts) cell in two store
  // files. Region::get skips any remaining file with max_ts() <= best->ts;
  // that is safe exactly because such duplicates are byte-identical — this
  // pins the behaviour the skip predicate's comment relies on.
  auto region = make_region();
  const Cell dup{"r", "c", "v-replayed", 7, false};
  ASSERT_TRUE(region->apply({dup}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_TRUE(region->apply({dup}));  // replayed write-set: the identical cell again
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_EQ(region->store_file_count(), 2u);
  EXPECT_EQ(region->get("r", "c", 10).value()->value, "v-replayed");
  EXPECT_EQ(region->get("r", "c", 7).value()->value, "v-replayed");
  // The duplicate collapses to one visible cell in scans too.
  auto cells = region->scan("", "", 10, 0);
  ASSERT_TRUE(cells.is_ok());
  ASSERT_EQ(cells.value().size(), 1u);
  // A strictly newer version in a third file still wins over both copies.
  ASSERT_TRUE(region->apply({Cell{"r", "c", "v-new", 9, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  EXPECT_EQ(region->get("r", "c", 10).value()->value, "v-new");
  EXPECT_EQ(region->get("r", "c", 8).value()->value, "v-replayed");
}

TEST_F(RegionTest, TombstoneHidesValueAcrossFlush) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"r", "c", "v", 5, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_TRUE(region->apply({Cell{"r", "c", "", 8, true}}));
  EXPECT_FALSE(region->get("r", "c", 10).value().has_value());
  EXPECT_TRUE(region->get("r", "c", 6).value().has_value());
}

TEST_F(RegionTest, EmptyFlushIsNoop) {
  auto region = make_region();
  ASSERT_TRUE(region->flush_memstore().is_ok());
  EXPECT_EQ(region->store_file_count(), 0u);
}

TEST_F(RegionTest, ScanMergesMemstoreAndFiles) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"a", "c", "va-old", 1, false}, Cell{"b", "c", "vb", 2, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_TRUE(region->apply({Cell{"a", "c", "va-new", 5, false}, Cell{"c", "c", "vc", 6, false}}));
  auto cells = region->scan("", "", 10, 0).value();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].value, "va-new");
  EXPECT_EQ(cells[1].value, "vb");
  EXPECT_EQ(cells[2].value, "vc");
}

TEST_F(RegionTest, ScanRespectsLimit) {
  auto region = make_region();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(region->apply({Cell{"row" + std::to_string(i), "c", "v", 1, false}}));
  }
  EXPECT_EQ(region->scan("", "", 10, 3).value().size(), 3u);
}

TEST_F(RegionTest, ReopenedRegionFindsItsStoreFiles) {
  const RegionDescriptor desc{"t", "", ""};
  {
    Region first(desc, dfs_, cache_);
    ASSERT_TRUE(first.load_store_files().is_ok());
    ASSERT_TRUE(first.apply({Cell{"r", "c", "persisted", 3, false}}));
    ASSERT_TRUE(first.flush_memstore().is_ok());
  }
  // A different server opens the region: store files come back from the DFS.
  Region second(desc, dfs_, cache_);
  ASSERT_TRUE(second.load_store_files().is_ok());
  EXPECT_EQ(second.store_file_count(), 1u);
  EXPECT_EQ(second.get("r", "c", 10).value()->value, "persisted");
  // And its next flush does not clobber the old file.
  ASSERT_TRUE(second.apply({Cell{"r2", "c", "more", 4, false}}));
  ASSERT_TRUE(second.flush_memstore().is_ok());
  EXPECT_EQ(second.store_file_count(), 2u);
}

TEST(RegionOpenTest, StoreFilesOpenConcurrently) {
  // Every DFS block read costs 20 ms, and opening a store file reads two
  // blocks (footer, then index + meta): one file opens in ~40 ms, four
  // opened one after another would take ~160 ms.
  constexpr Micros kRead = 20'000;
  DfsConfig config;
  config.read_latency = kRead;
  Dfs dfs(config);
  BlockCache cache(1 << 20);
  const RegionDescriptor desc{"t", "", ""};
  {
    Region writer(desc, dfs, cache);
    ASSERT_TRUE(writer.load_store_files().is_ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(writer.apply({Cell{"r", "c", "v" + std::to_string(i), i + 1, false}}));
      ASSERT_TRUE(writer.flush_memstore().is_ok());
    }
  }
  Region reopened(desc, dfs, cache);
  const std::int64_t reads_before = dfs.stats().block_reads;
  const Micros start = now_micros();
  ASSERT_TRUE(reopened.load_store_files().is_ok());
  const Micros took = now_micros() - start;
  const std::int64_t reads = dfs.stats().block_reads - reads_before;
  EXPECT_EQ(reopened.store_file_count(), 4u);
  EXPECT_EQ(reads, 8);
  EXPECT_LT(took, reads * kRead / 2) << "store files opened one after another";
  // The files keep their order: the newest flush wins.
  EXPECT_EQ(reopened.get("r", "c", 10).value()->value, "v3");
}

TEST(RegionOpenTest, LoadHoldsNoLockAcrossItsDfsReads) {
  // The hosting server's heartbeat reads min_unflushed_wal_seq under the
  // region lock; a load that held it across two 100 ms reads would stall
  // the lease renewal that long.
  constexpr Micros kRead = 100'000;
  DfsConfig config;
  config.read_latency = kRead;
  Dfs dfs(config);
  BlockCache cache(1 << 20);
  const RegionDescriptor desc{"t", "", ""};
  {
    Region writer(desc, dfs, cache);
    ASSERT_TRUE(writer.load_store_files().is_ok());
    ASSERT_TRUE(writer.apply({Cell{"r", "c", "v", 1, false}}));
    ASSERT_TRUE(writer.flush_memstore().is_ok());
  }
  Region reopened(desc, dfs, cache);
  std::thread load([&] { ASSERT_TRUE(reopened.load_store_files().is_ok()); });
  sleep_micros(kRead / 4);  // the load is inside its first read
  const Micros start = now_micros();
  EXPECT_EQ(reopened.min_unflushed_wal_seq(), 0u);
  const Micros waited = now_micros() - start;
  load.join();
  EXPECT_LT(waited, kRead / 2) << "the region lock was held across the store-file reads";
  EXPECT_EQ(reopened.store_file_count(), 1u);
}

TEST(RegionReadPathTest, ColdReadsFetchOnlyThePrunedBlocks) {
  // Eight store files with interleaved rows (row i lives in file i % 8)
  // and 2 KB blocks: the files' key ranges all overlap, so only the bloom
  // filter lets a point get skip the seven files that lack its row, and a
  // limit-10 scan must stop decoding once it has its rows. Each op runs
  // cold (cache cleared first), so its DFS block reads are the work it
  // did; the counts are deterministic, and a read path that loses either
  // pruning or the early stop reads more.
  constexpr int kFiles = 8;
  constexpr std::uint64_t kRows = 4224;
  constexpr std::uint64_t kGets = 408;
  constexpr std::uint64_t kScans = 64;
  constexpr std::size_t kScanLimit = 10;
  reset_global_counters();
  Dfs dfs(DfsConfig{});
  BlockCache cache(64ull << 20);
  Region region(RegionDescriptor{"usertable", "", ""}, dfs, cache, /*store_block_bytes=*/2048);
  ASSERT_TRUE(region.load_store_files().is_ok());
  region.set_state(RegionState::kOnline);
  auto row = [](std::uint64_t i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "user%08llu", static_cast<unsigned long long>(i));
    return std::string(buf);
  };
  for (int f = 0; f < kFiles; ++f) {
    std::vector<Cell> cells;
    for (std::uint64_t i = f; i < kRows; i += kFiles) {
      cells.push_back(Cell{row(i), "field0", std::string(100, 'v'), f + 1, false});
    }
    ASSERT_TRUE(region.apply(cells));
    ASSERT_TRUE(region.flush_memstore().is_ok());
  }

  // Each pass returns the DFS block reads it made.
  auto gets = [&](bool cold) {
    const std::int64_t before = dfs.stats().block_reads;
    for (std::uint64_t op = 0; op < kGets; ++op) {
      if (cold) cache.clear();
      auto r = region.get(row((op * 97) % kRows), "field0", kMaxTimestamp);
      EXPECT_TRUE(r.is_ok() && r.value().has_value()) << op;
    }
    return dfs.stats().block_reads - before;
  };
  auto scans = [&](bool cold) {
    const std::int64_t before = dfs.stats().block_reads;
    for (std::uint64_t op = 0; op < kScans; ++op) {
      if (cold) cache.clear();
      auto r = region.scan(row((op * 131) % (kRows - 2 * kScanLimit)), "", kMaxTimestamp,
                           kScanLimit);
      EXPECT_TRUE(r.is_ok() && r.value().size() == kScanLimit) << op;
    }
    return dfs.stats().block_reads - before;
  };

  EXPECT_EQ(gets(/*cold=*/true), 437);
  EXPECT_EQ(scans(/*cold=*/true), 599);
  EXPECT_GT(global_counter("kv.sf_bloom_skips").get(), 0);
  // Warm: once a pass has loaded its blocks, the same pass reads none.
  cache.clear();
  gets(/*cold=*/false);
  EXPECT_EQ(gets(/*cold=*/false), 0);
  scans(/*cold=*/false);
  EXPECT_EQ(scans(/*cold=*/false), 0);
}

TEST_F(RegionTest, StateTransitions) {
  auto region = make_region();
  EXPECT_EQ(region->state(), RegionState::kOnline);
  region->set_state(RegionState::kGated);
  EXPECT_EQ(region_state_name(region->state()), "gated");
}

TEST_F(RegionTest, DescriptorContains) {
  RegionDescriptor d{"t", "b", "m"};
  EXPECT_TRUE(d.contains("b"));
  EXPECT_TRUE(d.contains("cxx"));
  EXPECT_FALSE(d.contains("m"));
  EXPECT_FALSE(d.contains("a"));
  RegionDescriptor open_end{"t", "m", ""};
  EXPECT_TRUE(open_end.contains("zzz"));
}

}  // namespace
}  // namespace tfr
