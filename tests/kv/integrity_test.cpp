// Storage integrity: a flipped bit in the DFS surfaces as Corruption at the
// WAL and store-file read paths instead of silently wrong data.
#include <gtest/gtest.h>

#include "src/kv/region.h"
#include "src/kv/wal.h"

namespace tfr {
namespace {

WalRecord record_for(Timestamp ts) {
  WalRecord r;
  r.region = "t,";
  r.commit_ts = ts;
  r.client_id = "c";
  r.cells.push_back(Cell{"row" + std::to_string(ts), "c", std::string(64, 'v'), ts, false});
  return r;
}

TEST(IntegrityTest, CorruptedWalRecordIsDetected) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/x.log").value();
  ASSERT_TRUE(wal->append({record_for(1)}).is_ok());
  ASSERT_TRUE(wal->append({record_for(2)}).is_ok());
  ASSERT_TRUE(wal->sync().is_ok());
  // Sanity: clean read works.
  ASSERT_EQ(Wal::read_records(dfs, "/wal/x.log").value().size(), 2u);
  // Flip a bit in the middle of the first record's payload.
  ASSERT_TRUE(dfs.corrupt_byte("/wal/x.log.00000001", 20).is_ok());
  EXPECT_EQ(Wal::read_records(dfs, "/wal/x.log").status().code(), Code::kCorruption);
}

TEST(IntegrityTest, CorruptedStoreFileBlockIsDetected) {
  Dfs dfs{DfsConfig{}};
  BlockCache cache(1 << 20);
  Region region(RegionDescriptor{"t", "", ""}, dfs, cache);
  ASSERT_TRUE(region.load_store_files().is_ok());
  region.set_state(RegionState::kOnline);
  ASSERT_TRUE(region.apply({Cell{"row", "c", std::string(64, 'v'), 1, false}}));
  ASSERT_TRUE(region.flush_memstore().is_ok());
  const auto paths = dfs.list(region.data_dir());
  ASSERT_EQ(paths.size(), 1u);
  // Clean read first (and then clear the cache so the next read hits disk).
  EXPECT_TRUE(region.get("row", "c", 10).value().has_value());
  cache.clear();
  ASSERT_TRUE(dfs.corrupt_byte(paths[0], 12).is_ok());
  EXPECT_EQ(region.get("row", "c", 10).status().code(), Code::kCorruption);
}

TEST(IntegrityTest, CorruptionInOneRecordDoesNotHideTornTailHandling) {
  // A torn tail (incomplete frame) is still tolerated — only a checksum
  // mismatch on a complete frame is an error.
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/y.log").value();
  ASSERT_TRUE(wal->append({record_for(1)}).is_ok());
  ASSERT_TRUE(wal->sync().is_ok());
  ASSERT_TRUE(wal->append({record_for(2)}).is_ok());  // never synced
  wal->crash();
  auto records = Wal::read_records(dfs, "/wal/y.log");
  ASSERT_TRUE(records.is_ok());
  EXPECT_EQ(records.value().size(), 1u);
}

}  // namespace
}  // namespace tfr
