// The per-region-server write-ahead log (§2.1). Every incoming update is
// appended here before being applied to the memstore. The paper's key
// configuration is to *disable the synchronous flush* of this log: appends
// go to the DFS write pipeline immediately but are only made durable by an
// asynchronous periodic sync — trading the per-update durability of stock
// HBase for latency, because the TM recovery log already guarantees
// durability of committed transactions.
//
// Like HBase's, the log is a sequence of *segments*: roll() closes the
// current segment and opens a fresh one, and truncate_obsolete() deletes
// closed segments whose records have all been superseded by memstore
// flushes (their data now lives in store files). After a server failure,
// the durable prefix of every live segment is read block by block, split by
// region (Wal::split) and replayed into freshly assigned regions — HBase's
// internal recovery.
// Updates that were only in the in-memory tail are gone; those are
// precisely the ones the recovery manager replays from the TM log.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/epoch.h"
#include "src/dfs/dfs.h"
#include "src/kv/types.h"

namespace tfr {

/// One WAL record: the slice of a transaction's write-set that falls in one
/// region, stamped with the transaction's commit timestamp and the writer's
/// ownership epoch for the region (the fencing token; 0 = unfenced).
struct WalRecord {
  std::string region;  // region name
  std::uint64_t seq = 0;
  std::uint64_t txn_id = 0;
  std::string client_id;
  Timestamp commit_ts = kNoTimestamp;
  std::uint64_t epoch = 0;
  std::vector<Cell> cells;

  /// Decode one frame's payload (the bytes between its length prefix and
  /// its checksum).
  static Result<WalRecord> decode(std::string_view payload);
};

/// The WAL's one frame encoder. A batch of records is encoded back to back
/// into one buffer, each as a frame [u32 payload length][payload][u32
/// CRC-32C of the payload] whose payload starts with the u64 seq, so the seq
/// sits at a fixed offset. Encoding leaves every seq and checksum zero;
/// seal() stamps them once the seqs are known, which lets Wal::append encode
/// before it takes its lock.
class WalFrames {
 public:
  explicit WalFrames(const std::vector<WalRecord>& records);

  /// Stamp the frames with the seqs first_seq, first_seq + 1, ... in batch
  /// order, then checksum each.
  void seal(std::uint64_t first_seq);

  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

struct WalStats {
  std::uint64_t appended_records = 0;
  std::uint64_t synced_records = 0;
  std::uint64_t syncs = 0;
  std::uint64_t rolls = 0;
  std::uint64_t segments_truncated = 0;
  std::size_t live_segments = 0;
};

class Wal {
 public:
  /// Creates the first DFS-backed segment at `<base_path>.00000001`.
  static Result<std::unique_ptr<Wal>> create(Dfs& dfs, std::string base_path);

  /// Append a batch of records to the DFS write pipeline (NOT yet durable)
  /// as one DFS append: the records get consecutive sequence numbers, and
  /// the first is returned. A single record is a batch of one; an empty
  /// batch is InvalidArgument. The batch is encoded before the lock is
  /// taken; under it, the seqs are assigned and stamped, the frames
  /// checksummed and appended. The records' own `seq` fields are ignored.
  /// With an epoch registry attached, each distinct (region, epoch) of the
  /// batch is checked, and a stale one rejects the whole batch with
  /// WrongEpoch before anything reaches the DFS (the fencing-token check;
  /// counted in kv.epoch_rejects).
  Result<std::uint64_t> append(const std::vector<WalRecord>& records);

  /// Attach the cluster's epoch registry (nullptr to detach). Not
  /// synchronized with in-flight appends: install before traffic starts.
  void set_epoch_registry(const EpochRegistry* epochs) { epochs_ = epochs; }

  /// Force everything appended so far to be durable (one DFS sync of the
  /// current segment; closed segments are already durable). This is what
  /// Algorithm 3's persist step and the synchronous-persistence mode of
  /// Figure 2(a) call.
  TFR_BLOCKING Status sync();

  /// Open a fresh segment, then sync and close the old one. HBase rolls
  /// when a segment exceeds a size threshold so old segments can later be
  /// reclaimed. Appends proceed during the old segment's sync; a concurrent
  /// sync() waits for it.
  TFR_BLOCKING Status roll();

  /// Delete closed segments whose records all have seq < `min_needed_seq`
  /// (i.e. every region's un-flushed edits start at or after it). Returns
  /// the number of segments removed. If the DFS rejects the delete with
  /// WrongEpoch the WAL directory has been fenced by the master — this
  /// server is dead to the cluster and must leave its segments for the
  /// split (counted in kv.wal_truncate_fenced).
  std::size_t truncate_obsolete(std::uint64_t min_needed_seq);

  /// Sequence number through which records are durable.
  std::uint64_t synced_seq() const { return synced_seq_.load(std::memory_order_acquire); }
  std::uint64_t appended_seq() const { return next_seq_.load(std::memory_order_acquire) - 1; }

  /// Bytes appended to the current (open) segment — the roll trigger.
  std::uint64_t current_segment_bytes() const;

  /// True iff the open segment holds records and all of them have seq <
  /// `min_needed_seq`: rolling it lets truncate_obsolete() reclaim them.
  bool open_segment_obsolete(std::uint64_t min_needed_seq) const;

  /// The writer crashed: the un-synced tail of the open segment is lost.
  void crash();

  WalStats stats() const;
  const std::string& base_path() const { return base_path_; }

  /// Read all durable records of a (possibly crashed) server's WAL, across
  /// all of its live segments, in sequence order. Same block reader and
  /// rules as split().
  static Result<std::vector<WalRecord>> read_records(Dfs& dfs, const std::string& base_path);

  /// HBase log splitting: group the durable records of a failed server's
  /// WAL by region, in sequence order. Workers claim block-aligned DFS reads
  /// (one block each, across every live segment) off a shared cursor, so the
  /// split costs about blocks / workers block reads however the records are
  /// spread over segments; each read retries transient (Unavailable) errors
  /// a bounded number of times. The blocks are then reassembled per segment,
  /// and one pass over the length prefixes finds the frame boundaries: a
  /// torn final frame truncates its segment. The same workers then claim
  /// chunks of kDecodeChunkFrames frames, checksum and decode them; a
  /// checksum mismatch is corruption. All-or-nothing: if any block cannot be
  /// read or any frame decoded, the whole split fails — a partial edit map
  /// silently loses durable edits for the regions whose records were
  /// dropped. The master fences the WAL before splitting it, so durable
  /// sizes cannot move under the reads.
  static Result<std::map<std::string, std::vector<WalRecord>>> split(Dfs& dfs,
                                                                     const std::string& base_path);

  /// Frames per decode chunk of the split (the unit a worker claims).
  static constexpr std::size_t kDecodeChunkFrames = 64;

 private:
  Wal(Dfs& dfs, std::string base_path) : dfs_(&dfs), base_path_(std::move(base_path)) {}

  static std::string segment_path(const std::string& base, std::uint64_t index);
  Status open_segment_locked() TFR_REQUIRES(mutex_);
  /// Paths of the segments holding a record above synced_seq_, oldest first.
  std::vector<std::string> unsynced_segments_locked() const TFR_REQUIRES(mutex_);
  /// DFS-sync `paths`, then advance synced_seq_ to `frontier` (sequence
  /// numbers up to it that are in no path were burned by failed appends).
  /// Caller holds sync_mutex_ and captured both under mutex_.
  TFR_BLOCKING Status sync_segments(const std::vector<std::string>& paths,
                                    std::uint64_t frontier);

  struct Segment {
    std::string path;
    std::uint64_t first_seq = 0;  // first seq appended to it (0 if none yet)
    std::uint64_t last_seq = 0;   // last seq appended to it
    std::uint64_t bytes = 0;
  };

  Dfs* dfs_;
  const EpochRegistry* epochs_ = nullptr;
  std::string base_path_;
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> synced_seq_{0};

  // Guards segments_ and appends (seq assignment, checksums, the DFS append).
  mutable RankedMutex<LockRank::kWal> mutex_{"wal"};
  std::vector<Segment> segments_ TFR_GUARDED_BY(mutex_);  // back() is the open segment
  std::uint64_t next_segment_index_ TFR_GUARDED_BY(mutex_) = 1;
  std::uint64_t rolls_ TFR_GUARDED_BY(mutex_) = 0;
  std::uint64_t truncated_ TFR_GUARDED_BY(mutex_) = 0;

  // Serializes syncs and rolls; appends proceed concurrently. Outer of
  // mutex_.
  RankedMutex<LockRank::kWalSync> sync_mutex_{"wal_sync"};
  std::atomic<std::uint64_t> sync_count_{0};
};

}  // namespace tfr
