// TxnManager — the independent transaction management component (§2.2).
// Provides:
//
//  * a timestamp oracle issuing monotonically increasing commit timestamps
//    that define the serialization order;
//  * snapshot-isolation concurrency control via a first-committer-wins
//    write-write conflict check (the paper's TM is SI-based, §4.1);
//  * durability: the commit point is the group-commit append of the
//    write-set to the recovery log — nothing needs to be persisted in the
//    key-value store before commit returns. A write commit costs exactly one
//    log sync (shared with its group-commit batch); a read-only commit costs
//    none, since it returns its snapshot timestamp and is never logged.
//
// The commit-timestamp listener: the client's flush tracker (Algorithm 1)
// must learn commit timestamps *in commit order* with no gaps, otherwise its
// threshold TF(c) could advance past a transaction it has not seen. The
// listener is therefore invoked synchronously inside the oracle's critical
// section, and `current_ts()` takes the same lock — so after current_ts()
// returns C, the listener of every transaction with ts <= C has completed.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>

#include "src/txn/txn_log.h"

namespace tfr {

struct TxnHandle {
  std::uint64_t txn_id = 0;
  Timestamp start_ts = kNoTimestamp;
  std::string client_id;  // empty for anonymous transactions
};

struct TxnManagerStats {
  std::int64_t commits = 0;
  std::int64_t aborts_conflict = 0;
  std::int64_t aborts_explicit = 0;
};

class TxnManager {
 public:
  explicit TxnManager(TxnLogConfig log_config);

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Start a transaction reading at snapshot `start_ts` (the client picks
  /// its snapshot; see TxnClient::begin). `client_id` ties the open
  /// transaction to its client so abandon_client() can reap it.
  TxnHandle begin(Timestamp start_ts, const std::string& client_id = "");

  using TsListener = std::function<void(Timestamp)>;

  /// Attempt to commit. On success the write-set is durable in the recovery
  /// log and the commit timestamp is returned; `ts_listener` (may be null)
  /// has been invoked with it inside the ordering critical section.
  /// Returns Aborted on a write-write conflict (first committer wins).
  ///
  /// A read-only transaction (empty write-set) serializes at its snapshot
  /// under SI: it releases the snapshot, counts as a commit and returns
  /// `txn.start_ts`, but draws no timestamp, never calls `ts_listener` and
  /// is never logged — it costs no log sync and leaves nothing to recover.
  Result<Timestamp> commit(const TxnHandle& txn, WriteSet ws, const TsListener& ts_listener);

  /// Abort: the buffered write-set is simply discarded (§2.2); nothing is
  /// logged or flushed.
  void abort(const TxnHandle& txn);

  /// Reap every transaction a dead client left open (the paper treats them
  /// as aborted — they were never logged). Without this, their snapshots
  /// would pin the conflict-table prune floor forever. Called by the
  /// recovery manager after client-failure handling.
  void abandon_client(const std::string& client_id);

  /// Last issued commit timestamp. Serialized with commit-ts assignment —
  /// see the header comment for why this matters to Algorithm 1.
  Timestamp current_ts() const;

  /// Checkpoint from the recovery manager: transactions at or below the
  /// global persist threshold TP can leave the log, and the conflict table
  /// can forget rows older than any snapshot still in use.
  void checkpoint(Timestamp tp);

  TxnLog& log() { return log_; }
  const TxnLog& log() const { return log_; }
  TxnManagerStats stats() const;

 private:
  /// Drop `txn` from the active snapshots and its client's open set.
  void release_locked(const TxnHandle& txn) TFR_REQUIRES(mutex_);
  void prune_conflicts_locked() TFR_REQUIRES(mutex_);

  TxnLog log_;

  mutable RankedMutex<LockRank::kTxnManager> mutex_{"txn_manager"};  // oracle + conflicts + active
  Timestamp last_ts_ TFR_GUARDED_BY(mutex_) = kNoTimestamp;
  std::unordered_map<std::string, Timestamp> last_writer_
      TFR_GUARDED_BY(mutex_);  // table\x1f row -> commit ts
  std::set<Timestamp> active_start_ts_ TFR_GUARDED_BY(mutex_);  // multiset via count map
  std::unordered_map<Timestamp, int> active_count_ TFR_GUARDED_BY(mutex_);
  // Open transactions per client (txn_id -> start_ts), for abandon_client.
  std::unordered_map<std::string, std::unordered_map<std::uint64_t, Timestamp>> open_by_client_
      TFR_GUARDED_BY(mutex_);
  Timestamp prune_floor_ TFR_GUARDED_BY(mutex_) = kNoTimestamp;  // from checkpoint()
  std::uint64_t commits_since_prune_ TFR_GUARDED_BY(mutex_) = 0;
  TxnManagerStats stats_ TFR_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> next_txn_id_{1};
};

}  // namespace tfr
