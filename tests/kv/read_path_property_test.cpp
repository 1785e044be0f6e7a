// Randomized read-path property test: a Region under a random schedule of
// puts, deletes, idempotent write-set replays, memstore flushes and
// compactions, cross-checked against an in-memory MVCC model on every get
// and scan, so the bloom/range pruning and limit-aware early termination of
// the streaming read path can never change a result, only the work done to
// produce it.
//
// Seeds are fixed for CI; TFR_PROP_SEED=<seed> replays a single seed and
// TFR_PROP_ITERS=<n> overrides the operation count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <vector>

#include "src/common/random.h"
#include "src/kv/region.h"

namespace tfr {
namespace {

constexpr std::uint64_t kRowSpace = 40;
constexpr std::uint64_t kColSpace = 3;

std::string row_name(std::uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "r%03llu", static_cast<unsigned long long>(i));
  return buf;
}

/// Reference model: every version ever written, keyed (row, column) -> ts.
using Model = std::map<std::pair<std::string, std::string>, std::map<Timestamp, Cell>>;

std::optional<Cell> model_get(const Model& model, const std::string& row,
                              const std::string& column, Timestamp read_ts) {
  auto it = model.find({row, column});
  if (it == model.end()) return std::nullopt;
  auto vit = it->second.upper_bound(read_ts);
  if (vit == it->second.begin()) return std::nullopt;
  const Cell& cell = std::prev(vit)->second;
  if (cell.tombstone) return std::nullopt;
  return cell;
}

/// Visible cells of rows in [start, end), at most `limit` rows (0 = all) —
/// the contract of Region::scan. Tombstone-surviving columns are skipped and
/// rows with no visible column do not count toward the limit.
std::vector<Cell> model_scan(const Model& model, const std::string& start,
                             const std::string& end, Timestamp read_ts, std::size_t limit) {
  std::vector<Cell> out;
  std::string current_row;
  bool row_counted = false;
  std::size_t rows = 0;
  for (const auto& [key, versions] : model) {
    const auto& [row, column] = key;
    if (row < start || (!end.empty() && row >= end)) continue;
    if (row != current_row) {
      if (limit != 0 && rows == limit) break;
      current_row = row;
      row_counted = false;
    }
    auto vit = versions.upper_bound(read_ts);
    if (vit == versions.begin()) continue;
    const Cell& cell = std::prev(vit)->second;
    if (cell.tombstone) continue;
    if (!row_counted) {
      if (limit != 0 && rows == limit) break;
      ++rows;
      row_counted = true;
    }
    out.push_back(cell);
  }
  return out;
}

void expect_same_cells(const std::vector<Cell>& got, const std::vector<Cell>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].row, want[i].row) << what << " #" << i;
    EXPECT_EQ(got[i].column, want[i].column) << what << " #" << i;
    EXPECT_EQ(got[i].ts, want[i].ts) << what << " #" << i;
    EXPECT_EQ(got[i].value, want[i].value) << what << " #" << i;
  }
}

class ReadPathPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReadPathPropertyTest, ReadsMatchOracle) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("replay with TFR_PROP_SEED=" + std::to_string(seed));
  Rng rng(seed);
  int iters = 300;
  if (const char* env = std::getenv("TFR_PROP_ITERS")) iters = std::atoi(env);

  Dfs dfs{DfsConfig{}};
  BlockCache cache(1 << 20);
  Region region(RegionDescriptor{"t", "", ""}, dfs, cache, /*store_block_bytes=*/256);
  ASSERT_TRUE(region.load_store_files().is_ok());
  region.set_state(RegionState::kOnline);

  Model model;
  Timestamp next_ts = 1;  // commit timestamps are unique and increasing
  std::vector<std::vector<Cell>> past_batches;

  for (int op = 0; op < iters; ++op) {
    const double dice = rng.next_double();
    if (dice < 0.45) {
      // Put/delete batch with fresh timestamps.
      std::vector<Cell> batch;
      const int n = static_cast<int>(rng.next_below(6)) + 1;
      for (int i = 0; i < n; ++i) {
        Cell cell{row_name(rng.next_below(kRowSpace)),
                  "c" + std::to_string(rng.next_below(kColSpace)),
                  "v" + std::to_string(next_ts), next_ts, rng.next_bool(0.15)};
        if (cell.tombstone) cell.value.clear();
        ++next_ts;
        batch.push_back(cell);
      }
      ASSERT_TRUE(region.apply(batch));
      for (const Cell& cell : batch) model[{cell.row, cell.column}][cell.ts] = cell;
      past_batches.push_back(std::move(batch));
    } else if (dice < 0.55 && !past_batches.empty()) {
      // Idempotent replay: re-apply an old batch verbatim (duplicate
      // (row, column, ts) cells across memstore and files).
      const auto& batch = past_batches[rng.next_below(past_batches.size())];
      ASSERT_TRUE(region.apply(batch));  // model unchanged: same cells
    } else if (dice < 0.65) {
      ASSERT_TRUE(region.flush_memstore().is_ok());
    } else if (dice < 0.70) {
      if (region.store_file_count() >= 2) {
        ASSERT_TRUE(region.compact(kNoTimestamp).is_ok());
      }
    } else if (dice < 0.85) {
      const std::string row = row_name(rng.next_below(kRowSpace + 2));
      const std::string col = "c" + std::to_string(rng.next_below(kColSpace));
      const auto read_ts = static_cast<Timestamp>(rng.next_below(next_ts + 2));
      auto got = region.get(row, col, read_ts);
      ASSERT_TRUE(got.is_ok());
      const auto want = model_get(model, row, col, read_ts);
      ASSERT_EQ(got.value().has_value(), want.has_value())
          << row << "/" << col << "@" << read_ts << " op " << op;
      if (want) {
        EXPECT_EQ(got.value()->value, want->value);
        EXPECT_EQ(got.value()->ts, want->ts);
      }
    } else {
      std::string start = row_name(rng.next_below(kRowSpace));
      std::string end = rng.next_bool(0.3) ? "" : row_name(rng.next_below(kRowSpace + 2));
      if (rng.next_bool(0.1)) start.clear();
      const auto read_ts = static_cast<Timestamp>(rng.next_below(next_ts + 2));
      const auto limit = rng.next_below(6);  // 0 = unlimited
      const std::string what = "scan [" + start + ", " + end + ")@" +
                               std::to_string(read_ts) + " limit " + std::to_string(limit) +
                               " op " + std::to_string(op);

      auto scanned = region.scan(start, end, read_ts, limit);
      ASSERT_TRUE(scanned.is_ok()) << what;
      expect_same_cells(scanned.value(), model_scan(model, start, end, read_ts, limit), what);

      // Spot-check one point get at the scan's snapshot.
      if (rng.next_bool(0.2)) {
        const std::string row = row_name(rng.next_below(kRowSpace));
        auto got = region.get(row, "c0", read_ts);
        ASSERT_TRUE(got.is_ok());
        const auto want = model_get(model, row, "c0", read_ts);
        ASSERT_EQ(got.value().has_value(), want.has_value()) << what << " get " << row;
        if (want) {
          EXPECT_EQ(got.value()->value, want->value);
        }
      }
    }
  }

  // Final sweep: every (row, column) at the latest snapshot.
  for (std::uint64_t r = 0; r < kRowSpace; ++r) {
    for (std::uint64_t c = 0; c < kColSpace; ++c) {
      const std::string row = row_name(r);
      const std::string col = "c" + std::to_string(c);
      auto got = region.get(row, col, next_ts);
      ASSERT_TRUE(got.is_ok());
      const auto want = model_get(model, row, col, next_ts);
      ASSERT_EQ(got.value().has_value(), want.has_value()) << row << "/" << col;
      if (want) {
        EXPECT_EQ(got.value()->value, want->value);
      }
    }
  }
}

std::vector<std::uint64_t> property_seeds() {
  if (const char* env = std::getenv("TFR_PROP_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {7, 42, 137, 1009};
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadPathPropertyTest, ::testing::ValuesIn(property_seeds()));

}  // namespace
}  // namespace tfr
