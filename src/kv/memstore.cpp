#include "src/kv/memstore.h"

namespace tfr {

void Memstore::apply(const Cell& cell) {
  Key key{cell.row, cell.column, cell.ts};
  auto [it, inserted] = cells_.insert_or_assign(std::move(key), Value{cell.value, cell.tombstone});
  (void)it;
  if (inserted) bytes_ += cell.byte_size();
  if (cell.ts > max_ts_) max_ts_ = cell.ts;
}

std::optional<Cell> Memstore::get(const std::string& row, const std::string& column,
                                  Timestamp read_ts) const {
  // Keys are ordered with newer timestamps first, so the first entry at or
  // after (row, column, read_ts) is the newest version visible at read_ts.
  auto it = cells_.lower_bound(Key{row, column, read_ts});
  if (it == cells_.end() || it->first.row != row || it->first.column != column) {
    return std::nullopt;
  }
  return Cell{row, column, it->second.value, it->first.ts, it->second.tombstone};
}

std::vector<Cell> Memstore::snapshot() const {
  std::vector<Cell> out;
  out.reserve(cells_.size());
  for (const auto& [k, v] : cells_) {
    out.push_back(Cell{k.row, k.column, v.value, k.ts, v.tombstone});
  }
  return out;
}

std::vector<Cell> Memstore::range_snapshot(const std::string& start,
                                           const std::string& end) const {
  std::vector<Cell> out;
  for (auto it = cells_.lower_bound(Key{start, "", kMaxTimestamp}); it != cells_.end(); ++it) {
    if (!end.empty() && it->first.row >= end) break;
    out.push_back(Cell{it->first.row, it->first.column, it->second.value, it->first.ts,
                       it->second.tombstone});
  }
  return out;
}

void Memstore::clear() {
  cells_.clear();
  bytes_ = 0;
}

}  // namespace tfr
