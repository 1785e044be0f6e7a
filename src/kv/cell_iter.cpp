#include "src/kv/cell_iter.h"

#include <algorithm>

namespace tfr {

MergingCellIterator::MergingCellIterator(std::vector<std::unique_ptr<CellIterator>> children)
    : children_(std::move(children)) {
  heap_.reserve(children_.size());
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (children_[i]->valid()) heap_.push_back(Source{children_[i].get(), i});
  }
  std::make_heap(heap_.begin(), heap_.end(), heap_after);
}

bool MergingCellIterator::heap_after(const Source& a, const Source& b) {
  // std::make_heap keeps the *largest* element (per this comparator) at the
  // front; we want the smallest cell there, so "a sorts after b".
  const Cell& ca = a.it->cell();
  const Cell& cb = b.it->cell();
  if (cell_before(cb, ca)) return true;
  if (cell_before(ca, cb)) return false;
  return a.order > b.order;  // tie: newer source (lower order) first
}

Status MergingCellIterator::advance() {
  std::pop_heap(heap_.begin(), heap_.end(), heap_after);
  CellIterator* src = heap_.back().it;
  Status s = src->advance();
  if (!s.is_ok()) {
    heap_.clear();  // poison: the merged stream cannot continue past a lost source
    return s;
  }
  if (src->valid()) {
    std::push_heap(heap_.begin(), heap_.end(), heap_after);
  } else {
    heap_.pop_back();
  }
  return Status::ok();
}

Status collect_visible(CellIterator& it, Timestamp read_ts, std::size_t limit,
                       std::vector<Cell>* out) {
  std::size_t rows_emitted = 0;
  std::string last_emitted_row;
  bool any_emitted = false;
  while (it.valid()) {
    // A (row, column) version group starts here. If the row limit is
    // reached and this group opens a new row, stop before touching it —
    // this is the early termination that keeps block decodes at O(limit).
    if (limit != 0 && rows_emitted == limit &&
        (!any_emitted || it.cell().row != last_emitted_row)) {
      break;
    }
    const std::string row = it.cell().row;
    const std::string column = it.cell().column;
    Cell chosen;
    bool taken = false;
    while (it.valid() && it.cell().row == row && it.cell().column == column) {
      if (!taken && it.cell().ts <= read_ts) {
        chosen = it.cell();
        taken = true;
      }
      TFR_RETURN_IF_ERROR(it.advance());
    }
    // Newest visible version wins; a tombstone survivor hides the column.
    if (taken && !chosen.tombstone) {
      if (!any_emitted || row != last_emitted_row) {
        ++rows_emitted;
        last_emitted_row = row;
        any_emitted = true;
      }
      out->push_back(std::move(chosen));
    }
  }
  return Status::ok();
}

}  // namespace tfr
