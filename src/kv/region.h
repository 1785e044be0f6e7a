// Region — one contiguous key range of a table hosted by a region server
// (§2.1): an MVCC memstore for recent updates plus a list of immutable store
// files in the DFS, read through the server's block cache.
//
// The region lifecycle is where the paper's server-recovery hook lives:
//
//   kOpening    — store files attached, split-WAL edits being replayed
//                 (HBase's internal recovery)
//   kGated      — internal recovery done; the region waits for the recovery
//                 manager's transactional recovery before going online
//                 (Algorithm 3, opening_region). Only recovery-replay writes
//                 are admitted in this state.
//   kOnline     — serving
//   kOffline    — closed or lost in a crash
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/epoch.h"
#include "src/dfs/dfs.h"
#include "src/kv/block_cache.h"
#include "src/common/annotations.h"
#include "src/kv/memstore.h"
#include "src/kv/store_file.h"
#include "src/kv/types.h"

namespace tfr {

enum class RegionState { kOpening, kGated, kOnline, kOffline };

std::string_view region_state_name(RegionState s);

/// DFS directory a region named `region_name` keeps its store files in.
/// Exposed so split/merge can address a daughter's dir before any Region
/// object for it exists.
std::string region_data_dir(const std::string& region_name);

/// Best-effort removal of every file in `children`'s dirs: the reference
/// markers of a topology transition that aborted or was abandoned before
/// any of its children was routed to.
void remove_stray_markers(Dfs& dfs, const std::vector<RegionDescriptor>& children);

class Region {
 public:
  /// `store_block_bytes`: target block size for store files written by
  /// memstore flushes (cache/warm-up granularity).
  Region(RegionDescriptor desc, Dfs& dfs, BlockCache& cache,
         std::size_t store_block_bytes = 16 * 1024);

  const RegionDescriptor& descriptor() const { return desc_; }
  std::string name() const { return desc_.name(); }

  RegionState state() const { return state_.load(std::memory_order_acquire); }
  void set_state(RegionState s) { state_.store(s, std::memory_order_release); }

  /// The ownership epoch this region was opened under (0 = unfenced). Set
  /// by the hosting server from the master's grant; stamped on WAL appends
  /// and checked before store-file finalization.
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  void set_epoch(std::uint64_t e) { epoch_.store(e, std::memory_order_release); }

  /// Attach the cluster's epoch registry (nullptr to detach). With a
  /// registry attached, flush_memstore/compact finalize store files via a
  /// tmp path + epoch re-check + rename, so a fenced owner cannot publish
  /// new store files into the live namespace.
  void set_epoch_registry(const EpochRegistry* epochs) { epochs_ = epochs; }

  /// Attach the store files this region already has in the DFS (called on
  /// open, before replaying any edits). `ref-N` marker files — written by a
  /// split/merge, each holding the real path of a retired parent's store
  /// file — are resolved to readers on the referenced file; compaction
  /// later rewrites the data locally and drops the markers. The files are
  /// opened concurrently, so the open costs about one file's DFS round
  /// trips whatever the file count.
  Status load_store_files();

  /// Appends the WAL record carrying some cells and returns its sequence
  /// number.
  using WalLogger = std::function<Result<std::uint64_t>()>;

  /// WAL-log `cells` with `log` (when set), then apply them to the memstore,
  /// both under the region mutex. The region remembers the oldest
  /// un-flushed sequence number so the server knows which WAL segments are
  /// still needed (truncation bound). Holding the mutex across the append
  /// and the apply is what makes that bound safe: a reader of
  /// min_unflushed_wal_seq() that starts after the append finds the record
  /// in the memstore (pinning its segment) or in a store file, never in
  /// neither.
  ///
  /// Unavailable — nothing logged or applied — when the region is
  /// kOffline; a failed append is returned as is, nothing applied. The
  /// check runs under the same lock a split/merge/move's fencing flush
  /// holds: an apply racing the transition either lands before the flush
  /// snapshot (and is captured by it) or is rejected here, never silently
  /// left behind in a memstore about to be dropped.
  [[nodiscard]] Status apply(const std::vector<Cell>& cells, const WalLogger& log = nullptr);

  /// Sequence number of the oldest WAL record whose cells are only in the
  /// memstore (0 when everything is flushed to store files).
  std::uint64_t min_unflushed_wal_seq() const;

  /// Newest value of (row, column) visible at read_ts, merging memstore and
  /// store files. Tombstoned values read as NotFound.
  Result<std::optional<Cell>> get(const std::string& row, const std::string& column,
                                  Timestamp read_ts);

  /// Rows in [start, end) visible at read_ts (at most `limit` rows; 0 = no
  /// limit). Returns cells of the visible version per (row, column).
  /// Streams: memstore + per-file block iterators are heap-merged and the
  /// scan stops decoding blocks once `limit` rows are complete, so a
  /// bounded scan over a large region costs O(limit) block fetches.
  Result<std::vector<Cell>> scan(const std::string& start, const std::string& end,
                                 Timestamp read_ts, std::size_t limit);

  /// Flush the memstore to a new store file in the DFS and clear it. The
  /// region's updates become durable in the data files themselves, allowing
  /// WAL truncation in a real system. No-op on an empty memstore.
  TFR_BLOCKING Status flush_memstore();

  /// Compaction: merge all store files into one, dropping versions that no
  /// snapshot can still read. `prune_before_ts` must be at or below the
  /// oldest snapshot in use (e.g. the global TP); per (row, column), every
  /// version newer than it is kept plus the newest one at or below it —
  /// unless that survivor is a tombstone, in which case the whole column
  /// vanishes. Pass kNoTimestamp to merge without pruning. No-op with
  /// fewer than two store files; returns Unavailable if a concurrent
  /// memstore flush lands mid-compaction (just retry later).
  TFR_BLOCKING Status compact(Timestamp prune_before_ts = kNoTimestamp);

  /// All cells of this region, every version, memstore and store files
  /// merged and de-duplicated, in (row, column, ts desc) order, clipped to
  /// the region's key range (referenced parent files can hold the sibling
  /// daughter's rows too).
  Result<std::vector<Cell>> dump_cells();

  /// The key to split this region at: the midpoint block boundary of the
  /// largest multi-block store file (index metadata, no block reads),
  /// falling back to the median distinct row of a full dump for regions
  /// whose files are all single-block. InvalidArgument when the region
  /// holds fewer than two distinct rows (nothing to split).
  Result<std::string> choose_split_key();

  /// Paths of the store files currently attached, newest first. For a file
  /// attached via a ref marker this is the referenced (real) path, so a
  /// daughter's markers never chain ref -> ref.
  std::vector<std::string> store_file_paths() const;

  /// True while any attached store file is a split/merge inheritance (a
  /// ref marker) rather than a file this region wrote itself.
  bool has_references() const;

  /// Total payload bytes across attached store files plus the live
  /// memstore — the balancer's size signal for split triggers.
  std::uint64_t store_bytes() const;

  /// Cumulative served operations (gets/scans resp. applied write batches)
  /// since this Region object was opened. Monotone per object; a region
  /// that moves or splits starts over on its new host.
  std::uint64_t read_ops() const { return read_ops_.load(std::memory_order_relaxed); }
  std::uint64_t write_ops() const { return write_ops_.load(std::memory_order_relaxed); }

  std::size_t memstore_bytes() const;
  std::size_t store_file_count() const;

  /// Directory of this region's store files in the DFS.
  std::string data_dir() const;

 private:
  /// Rename-based fencing for store-file publication: write to a tmp path,
  /// re-check the epoch, then rename into the region's data dir.
  TFR_BLOCKING Status finalize_store_file(StoreFileWriter& writer, const std::string& path);

  RegionDescriptor desc_;
  Dfs* dfs_;
  BlockCache* cache_;
  std::size_t store_block_bytes_;
  std::atomic<RegionState> state_{RegionState::kOpening};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> read_ops_{0};
  std::atomic<std::uint64_t> write_ops_{0};
  const EpochRegistry* epochs_ = nullptr;

  mutable RankedMutex<LockRank::kRegion> mutex_{"region"};
  Memstore memstore_ TFR_GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<StoreFileReader>> files_ TFR_GUARDED_BY(mutex_);  // newest first
  /// real store-file path -> ref marker path, for files attached through a
  /// split/merge inheritance marker. Compaction removes the marker (never
  /// the referenced file — the sibling daughter may still need it; the
  /// master's janitor reclaims the parent dir once no marker points there).
  std::map<std::string, std::string> ref_markers_ TFR_GUARDED_BY(mutex_);
  std::uint64_t next_file_id_ TFR_GUARDED_BY(mutex_) = 0;
  std::uint64_t min_unflushed_wal_seq_ TFR_GUARDED_BY(mutex_) = 0;
};

}  // namespace tfr
