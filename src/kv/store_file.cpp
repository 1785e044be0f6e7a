#include "src/kv/store_file.h"

#include <algorithm>

#include "src/common/crc32.h"
#include "src/common/metrics.h"

namespace tfr {

namespace {
constexpr std::uint32_t kMagic = 0x7f5bf22e;
constexpr std::uint32_t kFormatVersion = 2;
constexpr std::size_t kFooterSize = 8 + 8 + 8 + 8 + 8 + 4 + 4;
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
}  // namespace

StoreFileWriter::StoreFileWriter(std::size_t target_block_bytes)
    : target_block_bytes_(target_block_bytes) {}

void StoreFileWriter::add(const Cell& cell) {
  // Rotate only between rows: a (row, column) version chain must never
  // straddle a block boundary.
  if (current_cells_ > 0 && current_block_.size() >= target_block_bytes_ &&
      cell.row != current_last_row_) {
    rotate_block();
  }
  if (cell_count_ == 0) {
    file_first_row_ = cell.row;
  }
  if (cell_count_ == 0 || cell.row != current_last_row_) {
    row_hashes_.push_back(bloom_hash(cell.row));  // one hash per distinct row
  }
  file_last_row_ = cell.row;
  if (current_cells_ == 0) current_first_row_ = cell.row;
  current_last_row_ = cell.row;
  Encoder enc(&current_block_);
  encode_cell(enc, cell);
  ++current_cells_;
  ++cell_count_;
  if (cell.ts > max_ts_) max_ts_ = cell.ts;
}

void StoreFileWriter::rotate_block() {
  if (current_cells_ == 0) return;
  IndexEntry entry;
  entry.first_row = current_first_row_;
  entry.offset = file_data_.size();
  std::string framed;
  Encoder enc(&framed);
  enc.put_u32(current_cells_);
  enc.put_u32(crc32c(current_block_));
  framed += current_block_;
  entry.length = framed.size();
  file_data_ += framed;
  index_.push_back(std::move(entry));
  current_block_.clear();
  current_cells_ = 0;
}

Status StoreFileWriter::finish(Dfs& dfs, const std::string& path) {
  rotate_block();
  const std::uint64_t index_offset = file_data_.size();
  std::string index_data;
  Encoder ienc(&index_data);
  ienc.put_u32(static_cast<std::uint32_t>(index_.size()));
  for (const auto& e : index_) {
    ienc.put_string(e.first_row);
    ienc.put_u64(e.offset);
    ienc.put_u64(e.length);
  }
  file_data_ += index_data;

  const std::uint64_t meta_offset = file_data_.size();
  std::string meta_data;
  Encoder menc(&meta_data);
  menc.put_string(file_first_row_);
  menc.put_string(file_last_row_);
  const BloomFilter bloom = BloomFilter::build(row_hashes_);
  menc.put_u32(static_cast<std::uint32_t>(bloom.probes()));
  menc.put_string(bloom.bits());
  file_data_ += meta_data;

  Encoder fenc(&file_data_);
  fenc.put_u64(index_offset);
  fenc.put_u64(index_data.size());
  fenc.put_u64(meta_offset);
  fenc.put_u64(meta_data.size());
  fenc.put_i64(max_ts_);
  fenc.put_u32(kFormatVersion);
  fenc.put_u32(kMagic);
  return dfs.write_file(path, file_data_);
}

StoreFileReader::~StoreFileReader() {
  if (!remove_on_last_ref_) return;
  TFR_IGNORE_STATUS(dfs_->remove(path_),
                    "deferred compaction-input delete; under a fence or after a janitor sweep "
                    "the path is the successor's (or gone), a leaked file is unreferenced");
  if (cleanup_cache_ != nullptr) cleanup_cache_->invalidate_prefix(path_ + "#");
}

Result<std::shared_ptr<StoreFileReader>> StoreFileReader::open(Dfs& dfs, std::string path) {
  auto size = dfs.durable_size(path);
  if (!size.is_ok()) return size.status();
  if (size.value() < kFooterSize) return Status::corruption("store file too small: " + path);

  auto footer = dfs.read(path, size.value() - kFooterSize, kFooterSize);
  if (!footer.is_ok()) return footer.status();
  auto reader = std::shared_ptr<StoreFileReader>(new StoreFileReader(dfs, std::move(path)));
  std::uint64_t index_offset = 0, index_length = 0;
  std::uint64_t meta_offset = 0, meta_length = 0;
  std::uint32_t version = 0, magic = 0;
  Decoder fdec(footer.value());
  TFR_RETURN_IF_ERROR(fdec.get_u64(&index_offset));
  TFR_RETURN_IF_ERROR(fdec.get_u64(&index_length));
  TFR_RETURN_IF_ERROR(fdec.get_u64(&meta_offset));
  TFR_RETURN_IF_ERROR(fdec.get_u64(&meta_length));
  TFR_RETURN_IF_ERROR(fdec.get_i64(&reader->max_ts_));
  TFR_RETURN_IF_ERROR(fdec.get_u32(&version));
  TFR_RETURN_IF_ERROR(fdec.get_u32(&magic));
  if (magic != kMagic) return Status::corruption("bad store file magic: " + reader->path_);
  if (version != kFormatVersion) {
    return Status::corruption("unsupported store file version " + std::to_string(version) +
                              ": " + reader->path_);
  }

  // The index and the meta are contiguous ([index][meta][footer]), so one
  // read fetches both: with the footer's, an open costs two DFS reads.
  if (meta_offset != index_offset + index_length ||
      meta_offset + meta_length != size.value() - kFooterSize) {
    return Status::corruption("store file index and meta not contiguous: " + reader->path_);
  }
  auto tail = dfs.read(reader->path_, index_offset, index_length + meta_length);
  if (!tail.is_ok()) return tail.status();
  if (tail.value().size() != index_length + meta_length) {
    return Status::corruption("store file index and meta truncated: " + reader->path_);
  }
  const std::string_view tail_view(tail.value());
  Decoder idec(tail_view.substr(0, index_length));
  std::uint32_t n = 0;
  TFR_RETURN_IF_ERROR(idec.get_u32(&n));
  reader->index_.resize(n);
  for (auto& e : reader->index_) {
    TFR_RETURN_IF_ERROR(idec.get_string(&e.first_row));
    TFR_RETURN_IF_ERROR(idec.get_u64(&e.offset));
    TFR_RETURN_IF_ERROR(idec.get_u64(&e.length));
  }

  Decoder mdec(tail_view.substr(index_length));
  std::uint32_t probes = 0;
  std::string bloom_bits;
  TFR_RETURN_IF_ERROR(mdec.get_string(&reader->first_row_));
  TFR_RETURN_IF_ERROR(mdec.get_string(&reader->last_row_));
  TFR_RETURN_IF_ERROR(mdec.get_u32(&probes));
  TFR_RETURN_IF_ERROR(mdec.get_string(&bloom_bits));
  reader->bloom_ = BloomFilter::from_parts(std::move(bloom_bits), static_cast<int>(probes));
  reader->has_key_range_ = !reader->index_.empty();
  return reader;
}

bool StoreFileReader::range_overlaps(const std::string& start, const std::string& end) const {
  if (!has_key_range_) return true;
  if (!end.empty() && first_row_ >= end) return false;
  return last_row_ >= start;
}

bool StoreFileReader::may_contain_row(const std::string& row) const {
  if (has_key_range_ && (row < first_row_ || row > last_row_)) {
    static Counter& range_skips = global_counter("kv.sf_range_skips");
    range_skips.add();
    return false;
  }
  if (!bloom_.empty() && !bloom_.may_contain(row)) {
    static Counter& bloom_skips = global_counter("kv.sf_bloom_skips");
    bloom_skips.add();
    return false;
  }
  return true;
}

Result<BlockPtr> StoreFileReader::load_block(std::size_t idx) const {
  const auto& e = index_[idx];
  auto raw = dfs_->read(path_, e.offset, e.length);
  if (!raw.is_ok()) return raw.status();
  Decoder dec(raw.value());
  std::uint32_t n = 0;
  TFR_RETURN_IF_ERROR(dec.get_u32(&n));
  std::uint32_t stored_crc = 0;
  TFR_RETURN_IF_ERROR(dec.get_u32(&stored_crc));
  if (crc32c(std::string_view(raw.value()).substr(dec.position())) != stored_crc) {
    return Status::corruption("store-file block checksum mismatch in " + path_);
  }
  auto block = std::make_shared<CacheBlock>();
  block->cells.resize(n);
  for (auto& c : block->cells) {
    TFR_RETURN_IF_ERROR(decode_cell(dec, &c));
    block->byte_size += c.byte_size();
  }
  return BlockPtr(block);
}

Result<BlockPtr> StoreFileReader::cached_block(BlockCache& cache, std::size_t idx) const {
  return cache.get_or_load(path_ + "#" + std::to_string(idx),
                           [this, idx] { return load_block(idx); });
}

std::size_t StoreFileReader::block_for(const std::string& row) const {
  // Last index entry with first_row <= row.
  auto it = std::upper_bound(index_.begin(), index_.end(), row,
                             [](const std::string& r, const IndexEntry& e) {
                               return r < e.first_row;
                             });
  if (it == index_.begin()) return kNpos;
  return static_cast<std::size_t>(std::distance(index_.begin(), it) - 1);
}

Result<std::optional<Cell>> StoreFileReader::get(BlockCache& cache, const std::string& row,
                                                 const std::string& column,
                                                 Timestamp read_ts) const {
  if (index_.empty()) return std::optional<Cell>{};
  if (!may_contain_row(row)) return std::optional<Cell>{};  // pruned: no block fetch
  const auto idx = block_for(row);
  if (idx == kNpos) return std::optional<Cell>{};
  auto block = cached_block(cache, idx);
  if (!block.is_ok()) return block.status();
  const auto& cells = block.value()->cells;
  // Cells are ordered (row, column, ts desc); find the newest ts <= read_ts.
  auto it = std::lower_bound(cells.begin(), cells.end(), std::tie(row, column, read_ts),
                             [](const Cell& c, const auto& key) {
                               const auto& [krow, kcol, kts] = key;
                               if (c.row != krow) return c.row < krow;
                               if (c.column != kcol) return c.column < kcol;
                               return c.ts > kts;  // descending ts
                             });
  if (it == cells.end() || it->row != row || it->column != column) return std::optional<Cell>{};
  return std::optional<Cell>(*it);
}

// --- streaming iterator -------------------------------------------------------

/// Block-streaming iterator: holds one decoded block at a time and pulls
/// the next through the cache only when the current one is exhausted, so a
/// consumer that stops early never pays for the blocks it didn't reach.
class StoreFileIterator final : public CellIterator {
 public:
  StoreFileIterator(const StoreFileReader* file, BlockCache* cache, std::string end)
      : file_(file), cache_(cache), end_(std::move(end)) {}

  Status init(const std::string& start) {
    if (file_->index_.empty()) return Status::ok();
    std::size_t idx = file_->block_for(start);
    if (idx == kNpos) idx = 0;  // start precedes the file: begin at block 0
    block_idx_ = idx;
    TFR_RETURN_IF_ERROR(load_current());
    const auto& cells = block_->cells;
    const auto it = std::lower_bound(cells.begin(), cells.end(), start,
                                     [](const Cell& c, const std::string& s) {
                                       return c.row < s;
                                     });
    pos_ = static_cast<std::size_t>(std::distance(cells.begin(), it));
    if (pos_ >= cells.size()) return advance_block();  // start is past this block
    return check_end();
  }

  bool valid() const override { return valid_; }
  const Cell& cell() const override { return block_->cells[pos_]; }

  Status advance() override {
    ++pos_;
    if (pos_ >= block_->cells.size()) return advance_block();
    return check_end();
  }

 private:
  Status advance_block() {
    ++block_idx_;
    if (block_idx_ >= file_->index_.size()) {
      valid_ = false;
      return Status::ok();
    }
    // A block whose first_row is already past `end` cannot contribute
    // (cells are sorted); stop without decoding it.
    if (!end_.empty() && file_->index_[block_idx_].first_row >= end_) {
      valid_ = false;
      return Status::ok();
    }
    TFR_RETURN_IF_ERROR(load_current());
    pos_ = 0;
    return check_end();
  }

  Status check_end() {
    valid_ = end_.empty() || block_->cells[pos_].row < end_;
    return Status::ok();
  }

  Status load_current() {
    auto block = file_->cached_block(*cache_, block_idx_);
    if (!block.is_ok()) {
      valid_ = false;
      return block.status();
    }
    block_ = block.value();
    return Status::ok();
  }

  const StoreFileReader* file_;
  BlockCache* cache_;
  std::string end_;
  std::size_t block_idx_ = 0;
  BlockPtr block_;
  std::size_t pos_ = 0;
  bool valid_ = false;
};

Result<std::unique_ptr<CellIterator>> StoreFileReader::iterate(BlockCache& cache,
                                                               const std::string& start,
                                                               const std::string& end) const {
  auto it = std::make_unique<StoreFileIterator>(this, &cache, end);
  TFR_RETURN_IF_ERROR(it->init(start));
  return std::unique_ptr<CellIterator>(std::move(it));
}

Result<std::vector<Cell>> StoreFileReader::all_cells(BlockCache& cache) const {
  std::vector<Cell> out;
  for (std::size_t idx = 0; idx < index_.size(); ++idx) {
    auto block = cached_block(cache, idx);
    if (!block.is_ok()) return block.status();
    out.insert(out.end(), block.value()->cells.begin(), block.value()->cells.end());
  }
  return out;
}

}  // namespace tfr
