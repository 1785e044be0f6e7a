#include "src/kv/wal.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/common/backoff.h"
#include "src/common/codec.h"
#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tfr {

std::string WalRecord::encode() const {
  std::string payload;
  Encoder enc(&payload);
  enc.put_string(region);
  enc.put_u64(seq);
  enc.put_u64(txn_id);
  enc.put_string(client_id);
  enc.put_i64(commit_ts);
  enc.put_u64(epoch);
  enc.put_u32(static_cast<std::uint32_t>(cells.size()));
  for (const auto& c : cells) encode_cell(enc, c);
  std::string framed;
  Encoder fenc(&framed);
  fenc.put_string(payload);       // length-prefixed frame...
  fenc.put_u32(crc32c(payload));  // ...with an integrity checksum
  return framed;
}

Result<WalRecord> WalRecord::decode(std::string_view data) {
  Decoder dec(data);
  WalRecord r;
  TFR_RETURN_IF_ERROR(dec.get_string(&r.region));
  TFR_RETURN_IF_ERROR(dec.get_u64(&r.seq));
  TFR_RETURN_IF_ERROR(dec.get_u64(&r.txn_id));
  TFR_RETURN_IF_ERROR(dec.get_string(&r.client_id));
  TFR_RETURN_IF_ERROR(dec.get_i64(&r.commit_ts));
  TFR_RETURN_IF_ERROR(dec.get_u64(&r.epoch));
  std::uint32_t n = 0;
  TFR_RETURN_IF_ERROR(dec.get_u32(&n));
  r.cells.resize(n);
  for (auto& c : r.cells) TFR_RETURN_IF_ERROR(decode_cell(dec, &c));
  return r;
}

std::string Wal::segment_path(const std::string& base, std::uint64_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), ".%08llu", static_cast<unsigned long long>(index));
  return base + buf;
}

Result<std::unique_ptr<Wal>> Wal::create(Dfs& dfs, std::string base_path) {
  auto wal = std::unique_ptr<Wal>(new Wal(dfs, std::move(base_path)));
  MutexLock lock(wal->mutex_);
  TFR_RETURN_IF_ERROR(wal->open_segment_locked());
  return wal;
}

Status Wal::open_segment_locked() {
  Segment seg;
  seg.path = segment_path(base_path_, next_segment_index_++);
  TFR_RETURN_IF_ERROR(dfs_->create(seg.path));
  segments_.push_back(std::move(seg));
  return Status::ok();
}

Result<std::uint64_t> Wal::append(std::vector<WalRecord> records) {
  if (records.empty()) return Status::invalid_argument("empty WAL batch");
  static Counter& rejects = global_counter("kv.epoch_rejects");
  MutexLock lock(mutex_);
  if (epochs_ != nullptr) {
    for (const WalRecord& record : records) {
      Status fence = epochs_->validate(record.region, record.epoch);
      if (!fence.is_ok()) {
        rejects.add();
        TFR_LOG(WARN, "wal") << base_path_ << " rejected stale-epoch append: " << fence;
        return fence;
      }
    }
  }
  const std::uint64_t first = next_seq_.fetch_add(records.size(), std::memory_order_acq_rel);
  const std::uint64_t last = first + records.size() - 1;
  std::string framed;
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].seq = first + i;
    framed += records[i].encode();
  }
  Segment& seg = segments_.back();
  Status appended = dfs_->append(seg.path, framed);
  if (appended.is_wrong_epoch()) {
    // The DFS-level writer fence (master fenced our directory before the
    // split) caught what the registry check raced past.
    rejects.add();
  }
  TFR_RETURN_IF_ERROR(appended);
  if (seg.first_seq == 0) seg.first_seq = first;
  seg.last_seq = std::max(seg.last_seq, last);
  seg.bytes += framed.size();
  return first;
}

std::vector<std::string> Wal::unsynced_segments_locked() const {
  const std::uint64_t synced = synced_seq_.load(std::memory_order_acquire);
  std::vector<std::string> paths;
  for (const Segment& seg : segments_) {
    if (seg.first_seq != 0 && seg.last_seq > synced) paths.push_back(seg.path);
  }
  return paths;
}

Status Wal::sync_segments(const std::vector<std::string>& paths, std::uint64_t frontier) {
  for (const std::string& path : paths) {
    // tfr-lint: blocking-ok(kWalSync exists precisely to serialize this durable
    // write; holding it across dfs_->sync is the design, may_block=true)
    auto synced = dfs_->sync(path);
    if (!synced.is_ok()) return synced.status();
  }
  std::uint64_t prev = synced_seq_.load(std::memory_order_relaxed);
  while (prev < frontier &&
         !synced_seq_.compare_exchange_weak(prev, frontier, std::memory_order_release)) {
  }
  if (!paths.empty()) sync_count_.fetch_add(1, std::memory_order_relaxed);
  return Status::ok();
}

Status Wal::sync() {
  TFR_BLOCKING_POINT("wal.sync");
  RankedMutexLock sync_lock(sync_mutex_);
  // Capture the frontier and the segments holding records above synced_seq_
  // before syncing: everything appended before this point is covered by the
  // DFS syncs below. Normally that is just the open segment; a closed one
  // appears only if its roll could not sync it. The nested acquisition
  // passes sync_lock's token, which static_asserts the kWal < kWalSync rank
  // edge at compile time.
  std::vector<std::string> paths;
  std::uint64_t frontier = 0;
  {
    RankedMutexLock lock(mutex_, sync_lock.token());
    paths = unsynced_segments_locked();
    frontier = next_seq_.load(std::memory_order_acquire) - 1;
  }
  return sync_segments(paths, frontier);
}

Status Wal::roll() {
  TFR_BLOCKING_POINT("wal.roll");
  // Hold the sync lock across the swap: no sync() can run between the swap
  // and the old segment's sync, so synced_seq_ never passes a record that
  // is still un-synced in the closing segment. The swap itself happens
  // under mutex_, so every append lands wholly before it (in the closing
  // segment, at or below `frontier`) or after it (in the fresh one).
  RankedMutexLock sync_lock(sync_mutex_);
  std::vector<std::string> unsynced;
  std::uint64_t frontier = 0;
  std::string closing;
  {
    RankedMutexLock lock(mutex_, sync_lock.token());
    unsynced = unsynced_segments_locked();
    frontier = next_seq_.load(std::memory_order_acquire) - 1;
    closing = segments_.back().path;
    TFR_RETURN_IF_ERROR(open_segment_locked());
    ++rolls_;
  }
  // Sync and close with mutex_ released: appends go on into the fresh
  // segment meanwhile. If the sync fails, the closing segment keeps its
  // records above synced_seq_, so the next sync() syncs it too.
  TFR_RETURN_IF_ERROR(sync_segments(unsynced, frontier));
  TFR_RETURN_IF_ERROR(dfs_->close(closing));
  TFR_LOG(DEBUG, "wal") << base_path_ << " rolled " << closing;
  return Status::ok();
}

std::size_t Wal::truncate_obsolete(std::uint64_t min_needed_seq) {
  MutexLock lock(mutex_);
  std::size_t removed = 0;
  // The open segment (back) is never removed; closed segments go once every
  // record in them precedes the oldest still-needed sequence number.
  while (segments_.size() > 1) {
    const Segment& seg = segments_.front();
    const bool empty = seg.first_seq == 0;
    if (!empty && seg.last_seq >= min_needed_seq) break;
    Status st = dfs_->remove(seg.path);
    if (st.is_wrong_epoch()) {
      // The master fenced this WAL: we are being recovered. Stop reclaiming
      // — the split must see every remaining segment — and keep the local
      // bookkeeping so a repeated call stays a no-op.
      static Counter& fenced = global_counter("kv.wal_truncate_fenced");
      fenced.add();
      TFR_LOG(WARN, "wal") << base_path_ << " truncation fenced at " << seg.path;
      break;
    }
    segments_.erase(segments_.begin());
    ++removed;
  }
  truncated_ += removed;
  if (removed > 0) {
    TFR_LOG(DEBUG, "wal") << base_path_ << " reclaimed " << removed
                          << " segments below seq " << min_needed_seq;
  }
  return removed;
}

std::uint64_t Wal::current_segment_bytes() const {
  MutexLock lock(mutex_);
  return segments_.back().bytes;
}

bool Wal::open_segment_obsolete(std::uint64_t min_needed_seq) const {
  MutexLock lock(mutex_);
  const Segment& open = segments_.back();
  return open.first_seq != 0 && open.last_seq < min_needed_seq;
}

void Wal::crash() {
  MutexLock lock(mutex_);
  // Closed segments were normally synced by roll(), so only the open one
  // has a volatile tail — unless a roll's sync failed; dropping every
  // segment's un-synced tail covers that case too.
  for (const Segment& seg : segments_) dfs_->writer_crashed(seg.path);
}

WalStats Wal::stats() const {
  WalStats s;
  s.appended_records = appended_seq();
  s.synced_records = synced_seq();
  s.syncs = sync_count_.load(std::memory_order_relaxed);
  MutexLock lock(mutex_);
  s.rolls = rolls_;
  s.segments_truncated = truncated_;
  s.live_segments = segments_.size();
  return s;
}

namespace {

// The split's block reader: workers claim block reads off a shared cursor
// (capped by the block count), and each read retries Unavailable a bounded
// number of times with a jittered backoff.
constexpr int kSplitWorkers = 4;
constexpr int kReadAttempts = 8;
constexpr Micros kReadBackoffBase = millis(1);
constexpr Micros kReadBackoffCap = millis(8);

/// Decode every whole frame of one durable segment. A torn final frame
/// (sync raced a crash) truncates; a checksum mismatch is corruption.
Status decode_segment(const std::string& path, std::string_view data,
                      std::vector<WalRecord>* out) {
  Decoder dec(data);
  while (!dec.done()) {
    std::string payload;
    const auto before = dec.position();
    std::uint32_t stored_crc = 0;
    Status s = dec.get_string(&payload);
    if (s.is_ok()) s = dec.get_u32(&stored_crc);
    if (!s.is_ok()) {
      // A torn final frame can only occur if a sync raced a crash; the
      // durable prefix up to the last whole record is still valid.
      TFR_LOG(WARN, "wal") << "torn WAL tail in " << path << " at offset " << before;
      break;
    }
    if (crc32c(payload) != stored_crc) {
      return Status::corruption("WAL record checksum mismatch in " + path);
    }
    auto rec = WalRecord::decode(payload);
    if (!rec.is_ok()) return rec.status();
    out->push_back(std::move(rec).value());
  }
  return Status::ok();
}

}  // namespace

// Workers claim one block-aligned read at a time off a shared cursor,
// across all segments. Each block lands in its own slot, written by exactly
// one worker and read only after the join.
Result<std::vector<WalRecord>> Wal::read_records(Dfs& dfs, const std::string& base_path) {
  // Live segments are whatever still exists under the base path, in index
  // (and therefore sequence) order.
  auto paths = dfs.list(base_path + ".");
  if (paths.empty()) return Status::not_found("no WAL segments under " + base_path);
  std::sort(paths.begin(), paths.end());

  struct BlockRead {
    std::size_t segment;
    std::uint64_t offset;
  };
  const std::uint64_t block = dfs.config().block_size;
  std::vector<BlockRead> reads;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    auto size = dfs.durable_size(paths[i]);
    if (!size.is_ok()) return size.status();
    for (std::uint64_t offset = 0; offset < size.value(); offset += block) {
      reads.push_back(BlockRead{i, offset});
    }
  }

  std::vector<Result<std::string>> blocks(reads.size(),
                                          Result<std::string>(Status::internal("block not read")));
  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
      if (k >= reads.size()) return;
      const BlockRead& r = reads[k];
      Backoff backoff(kReadBackoffBase, kReadBackoffCap);
      auto data = dfs.read(paths[r.segment], r.offset, block);
      while (!data.is_ok() && data.status().is_unavailable() &&
             backoff.attempts() + 1 < kReadAttempts) {
        backoff.sleep();
        data = dfs.read(paths[r.segment], r.offset, block);
      }
      blocks[k] = std::move(data);
    }
  };
  const int workers = std::min<int>(kSplitWorkers, static_cast<int>(reads.size()));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  // All-or-nothing: a split that dropped one block would assign regions
  // from an edit map that silently lost durable edits.
  std::vector<std::string> segments(paths.size());
  for (std::size_t k = 0; k < reads.size(); ++k) {
    if (!blocks[k].is_ok()) {
      TFR_LOG(WARN, "wal") << "read of " << paths[reads[k].segment] << " failed at offset "
                           << reads[k].offset << ": " << blocks[k].status();
      return blocks[k].status();
    }
    segments[reads[k].segment] += blocks[k].value();
  }
  std::vector<WalRecord> out;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    TFR_RETURN_IF_ERROR(decode_segment(paths[i], segments[i], &out));
  }
  std::sort(out.begin(), out.end(),
            [](const WalRecord& a, const WalRecord& b) { return a.seq < b.seq; });
  return out;
}

Result<std::map<std::string, std::vector<WalRecord>>> Wal::split(Dfs& dfs,
                                                                 const std::string& base_path) {
  auto records = read_records(dfs, base_path);
  if (!records.is_ok()) return records.status();
  std::map<std::string, std::vector<WalRecord>> grouped;
  for (auto& r : records.value()) grouped[r.region].push_back(std::move(r));
  return grouped;
}

}  // namespace tfr
