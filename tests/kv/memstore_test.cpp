#include "src/kv/memstore.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/kv/cell_iter.h"

namespace tfr {
namespace {

Cell make(const std::string& row, const std::string& col, const std::string& val, Timestamp ts,
          bool tomb = false) {
  return Cell{row, col, val, ts, tomb};
}

// The memstore's share of a region scan: its range snapshot resolved to the
// newest version per (row, column) visible at read_ts.
std::vector<Cell> visible(const Memstore& ms, const std::string& start, const std::string& end,
                          Timestamp read_ts) {
  VectorCellIterator it(ms.range_snapshot(start, end));
  std::vector<Cell> out;
  EXPECT_TRUE(collect_visible(it, read_ts, /*limit=*/0, &out).is_ok());
  return out;
}

TEST(MemstoreTest, GetReturnsNewestVisibleVersion) {
  Memstore ms;
  ms.apply(make("r1", "c", "v1", 10));
  ms.apply(make("r1", "c", "v2", 20));
  ms.apply(make("r1", "c", "v3", 30));
  EXPECT_EQ(ms.get("r1", "c", 30)->value, "v3");
  EXPECT_EQ(ms.get("r1", "c", 25)->value, "v2");
  EXPECT_EQ(ms.get("r1", "c", 10)->value, "v1");
  EXPECT_FALSE(ms.get("r1", "c", 9).has_value());
}

TEST(MemstoreTest, MissingRowOrColumn) {
  Memstore ms;
  ms.apply(make("r1", "c1", "v", 5));
  EXPECT_FALSE(ms.get("r2", "c1", 100).has_value());
  EXPECT_FALSE(ms.get("r1", "c2", 100).has_value());
}

TEST(MemstoreTest, IdempotentReapply) {
  Memstore ms;
  ms.apply(make("r1", "c", "v", 10));
  const auto count = ms.cell_count();
  const auto bytes = ms.byte_size();
  // Replaying a write-set is idempotent (§2.2): same (row, col, ts) -> same state.
  ms.apply(make("r1", "c", "v", 10));
  ms.apply(make("r1", "c", "v", 10));
  EXPECT_EQ(ms.cell_count(), count);
  EXPECT_EQ(ms.byte_size(), bytes);
  EXPECT_EQ(ms.get("r1", "c", 10)->value, "v");
}

TEST(MemstoreTest, TombstoneIsReturnedAsSuch) {
  Memstore ms;
  ms.apply(make("r1", "c", "v", 10));
  ms.apply(make("r1", "c", "", 20, /*tomb=*/true));
  auto cell = ms.get("r1", "c", 25);
  ASSERT_TRUE(cell.has_value());
  EXPECT_TRUE(cell->tombstone);
  // Older snapshots still see the live value.
  EXPECT_FALSE(ms.get("r1", "c", 15)->tombstone);
}

TEST(MemstoreTest, ScanReturnsNewestPerColumnInRange) {
  Memstore ms;
  ms.apply(make("a", "c", "va1", 1));
  ms.apply(make("a", "c", "va2", 2));
  ms.apply(make("b", "c", "vb", 1));
  ms.apply(make("c", "c", "vc", 3));
  auto cells = visible(ms, "a", "c", 10);  // [a, c): excludes row "c"
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].row, "a");
  EXPECT_EQ(cells[0].value, "va2");
  EXPECT_EQ(cells[1].row, "b");
}

TEST(MemstoreTest, ScanRespectsSnapshot) {
  Memstore ms;
  ms.apply(make("a", "c", "old", 1));
  ms.apply(make("a", "c", "new", 100));
  auto cells = visible(ms, "", "", 50);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].value, "old");
}

TEST(MemstoreTest, ScanOpenEndedRange) {
  Memstore ms;
  for (int i = 0; i < 5; ++i) {
    ms.apply(make("row" + std::to_string(i), "c", "v", 1));
  }
  EXPECT_EQ(visible(ms, "row2", "", 10).size(), 3u);
  EXPECT_EQ(visible(ms, "", "", 10).size(), 5u);
}

TEST(MemstoreTest, MultipleColumnsPerRow) {
  Memstore ms;
  ms.apply(make("r", "c1", "v1", 1));
  ms.apply(make("r", "c2", "v2", 1));
  EXPECT_EQ(ms.get("r", "c1", 10)->value, "v1");
  EXPECT_EQ(ms.get("r", "c2", 10)->value, "v2");
  EXPECT_EQ(visible(ms, "", "", 10).size(), 2u);
}

TEST(MemstoreTest, ClearResetsState) {
  Memstore ms;
  ms.apply(make("r", "c", "v", 1));
  ms.clear();
  EXPECT_EQ(ms.cell_count(), 0u);
  EXPECT_EQ(ms.byte_size(), 0u);
  EXPECT_FALSE(ms.get("r", "c", 10).has_value());
}

TEST(MemstoreTest, SnapshotIsSortedAndComplete) {
  Memstore ms;
  ms.apply(make("b", "c", "v", 2));
  ms.apply(make("a", "c", "v", 1));
  ms.apply(make("a", "c", "v", 3));
  auto cells = ms.snapshot();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].row, "a");
  EXPECT_EQ(cells[0].ts, 3);  // newer first within a column
  EXPECT_EQ(cells[1].ts, 1);
  EXPECT_EQ(cells[2].row, "b");
}

TEST(MemstoreTest, MaxTsTracksNewestApply) {
  Memstore ms;
  EXPECT_EQ(ms.max_ts(), kNoTimestamp);
  ms.apply(make("r", "c", "v", 7));
  ms.apply(make("r", "c", "v", 3));
  EXPECT_EQ(ms.max_ts(), 7);
}

// Property: memstore reads match a naive reference model under random
// multi-version writes.
class MemstorePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemstorePropertyTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  Memstore ms;
  // reference: (row, col) -> map ts -> value
  std::map<std::pair<std::string, std::string>, std::map<Timestamp, std::string>> ref;
  for (int i = 0; i < 500; ++i) {
    const std::string row = "r" + std::to_string(rng.next_below(20));
    const std::string col = "c" + std::to_string(rng.next_below(3));
    const auto ts = static_cast<Timestamp>(rng.next_below(50) + 1);
    const std::string val = "v" + std::to_string(i);
    ms.apply(Cell{row, col, val, ts, false});
    ref[{row, col}][ts] = val;
  }
  for (int probe = 0; probe < 300; ++probe) {
    const std::string row = "r" + std::to_string(rng.next_below(20));
    const std::string col = "c" + std::to_string(rng.next_below(3));
    const auto read_ts = static_cast<Timestamp>(rng.next_below(60));
    auto got = ms.get(row, col, read_ts);
    auto it = ref.find({row, col});
    std::optional<std::string> want;
    if (it != ref.end()) {
      auto vit = it->second.upper_bound(read_ts);
      if (vit != it->second.begin()) want = std::prev(vit)->second;
    }
    ASSERT_EQ(got.has_value(), want.has_value()) << row << "/" << col << "@" << read_ts;
    if (want) EXPECT_EQ(got->value, *want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemstorePropertyTest, ::testing::Values(1, 7, 42, 1337));

}  // namespace
}  // namespace tfr
