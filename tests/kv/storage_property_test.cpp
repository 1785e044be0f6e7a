// Randomized property tests for the storage substrate: the store-file /
// block-cache read path against a reference model, and WAL split against a
// reference grouping under random rolls and a crash.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/common/random.h"
#include "src/kv/region.h"
#include "src/kv/wal.h"

namespace tfr {
namespace {

// --- store files vs reference model -------------------------------------------

class StoreFilePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreFilePropertyTest, ReadsMatchReferenceModel) {
  Rng rng(GetParam());
  Dfs dfs{DfsConfig{}};
  BlockCache cache(1 << 20);

  // Build sorted multi-version content.
  std::map<std::pair<std::string, std::string>, std::map<Timestamp, Cell>> model;
  for (int i = 0; i < 800; ++i) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%04llu",
                  static_cast<unsigned long long>(rng.next_below(120)));
    const std::string col = "c" + std::to_string(rng.next_below(2));
    const auto ts = static_cast<Timestamp>(rng.next_below(40) + 1);
    Cell cell{row, col, "v" + std::to_string(i), ts, rng.next_bool(0.1)};
    model[{cell.row, cell.column}][ts] = cell;
  }
  StoreFileWriter writer(static_cast<std::size_t>(rng.next_below(900) + 100));
  for (const auto& [key, versions] : model) {
    for (auto it = versions.rbegin(); it != versions.rend(); ++it) writer.add(it->second);
  }
  ASSERT_TRUE(writer.finish(dfs, "/prop-sf").is_ok());
  auto reader = StoreFileReader::open(dfs, "/prop-sf").value();

  for (int probe = 0; probe < 500; ++probe) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%04llu",
                  static_cast<unsigned long long>(rng.next_below(130)));
    const std::string col = "c" + std::to_string(rng.next_below(2));
    const auto read_ts = static_cast<Timestamp>(rng.next_below(45));
    auto got = reader->get(cache, row, col, read_ts);
    ASSERT_TRUE(got.is_ok());
    std::optional<Cell> want;
    auto it = model.find({row, col});
    if (it != model.end()) {
      auto vit = it->second.upper_bound(read_ts);
      if (vit != it->second.begin()) want = std::prev(vit)->second;
    }
    ASSERT_EQ(got.value().has_value(), want.has_value())
        << row << "/" << col << "@" << read_ts;
    if (want) {
      EXPECT_EQ(got.value()->value, want->value);
      EXPECT_EQ(got.value()->tombstone, want->tombstone);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreFilePropertyTest, ::testing::Values(3, 17, 91, 202));

// --- WAL split vs reference grouping -------------------------------------------

class WalSplitPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WalSplitPropertyTest, SplitEqualsReferenceOnSyncedPrefix) {
  Rng rng(GetParam());
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/prop.log").value();

  // Random appends with random rolls and syncs; track what is durable.
  std::map<std::string, std::vector<std::uint64_t>> reference;  // region -> seqs
  std::uint64_t durable_through = 0;
  std::uint64_t appended = 0;
  std::map<std::uint64_t, std::string> seq_region;
  for (int i = 0; i < 300; ++i) {
    const std::string region = "r" + std::to_string(rng.next_below(5));
    WalRecord rec;
    rec.region = region;
    rec.commit_ts = i + 1;
    rec.cells.push_back(Cell{"row" + std::to_string(i), "c", "v", i + 1, false});
    auto seq = wal->append({std::move(rec)});
    ASSERT_TRUE(seq.is_ok());
    appended = seq.value();
    seq_region[appended] = region;
    const auto dice = rng.next_below(20);
    if (dice == 0) {
      ASSERT_TRUE(wal->roll().is_ok());  // roll syncs
      durable_through = appended;
    } else if (dice == 1) {
      ASSERT_TRUE(wal->sync().is_ok());
      durable_through = appended;
    }
  }
  wal->crash();  // anything after durable_through is gone

  for (const auto& [seq, region] : seq_region) {
    if (seq <= durable_through) reference[region].push_back(seq);
  }

  auto grouped = Wal::split(dfs, "/wal/prop.log").value();
  std::map<std::string, std::vector<std::uint64_t>> actual;
  for (const auto& [region, records] : grouped) {
    for (const auto& r : records) actual[region].push_back(r.seq);
  }
  EXPECT_EQ(actual, reference) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalSplitPropertyTest, ::testing::Values(5, 23, 77, 404));

// --- compaction preserves visible state ----------------------------------------

class CompactionPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompactionPropertyTest, VisibleStateUnchangedAboveHorizon) {
  Rng rng(GetParam());
  Dfs dfs{DfsConfig{}};
  BlockCache cache(1 << 20);
  Region region(RegionDescriptor{"t", "", ""}, dfs, cache);
  ASSERT_TRUE(region.load_store_files().is_ok());
  region.set_state(RegionState::kOnline);

  Timestamp ts = 0;
  for (int batch = 0; batch < 6; ++batch) {
    std::vector<Cell> cells;
    for (int i = 0; i < 40; ++i) {
      const std::string row = "row" + std::to_string(rng.next_below(30));
      cells.push_back(Cell{row, "c", "v" + std::to_string(ts + 1), ++ts, rng.next_bool(0.15)});
    }
    ASSERT_TRUE(region.apply(cells));
    ASSERT_TRUE(region.flush_memstore().is_ok());
  }

  const Timestamp horizon = static_cast<Timestamp>(rng.next_below(static_cast<std::uint64_t>(ts)));
  // Record the visible state at every timestamp >= horizon.
  std::map<Timestamp, std::vector<Cell>> before;
  for (Timestamp read_ts = horizon; read_ts <= ts; read_ts += 7) {
    before[read_ts] = region.scan("", "", read_ts, 0).value();
  }
  before[ts] = region.scan("", "", ts, 0).value();

  ASSERT_TRUE(region.compact(horizon).is_ok());
  ASSERT_EQ(region.store_file_count(), 1u);

  for (const auto& [read_ts, cells] : before) {
    EXPECT_EQ(region.scan("", "", read_ts, 0).value(), cells)
        << "visible state changed at ts " << read_ts << " (horizon " << horizon << ", seed "
        << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactionPropertyTest, ::testing::Values(9, 31, 88, 512));

}  // namespace
}  // namespace tfr
