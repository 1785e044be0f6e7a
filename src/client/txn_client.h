// TxnClient — the extended, transactional store client (§2.2): the interface
// between the application and the region servers, and the key player that
// interacts with the transaction manager and the recovery middleware.
//
// Execution model (deferred updates):
//   * begin() creates a transactional context; reads go to the servers at
//     the transaction's snapshot timestamp, writes are buffered client-side;
//   * commit() sends the write-set to the transaction manager; when the TM's
//     group-commit log append returns, the transaction IS committed and
//     commit() returns to the application;
//   * the write-set is flushed to the participant region servers only after
//     commit, by a background flusher pool, retrying without limit across
//     server failures (§3.2);
//   * Algorithm 1 runs here: FQ/FQ' tracking, the flush threshold TF(c),
//     and periodic heartbeats to the recovery manager carrying TF(c).
//
// Synchronous-persistence mode (`sync_commit`, the Figure 2(a) baseline)
// instead flushes the write-set inside commit(), with the servers configured
// to WAL-sync each update, reproducing per-object durability.
//
// Snapshot choice: kStable reads at the published global TF — every
// transaction at or below it is fully flushed, so a reader can never observe
// a torn (partially flushed) write-set, and during a failover the client
// "can at least continue to execute read-only transactions on older
// snapshots" (§3.2). kLatest reads at the newest commit timestamp (fresher,
// but may observe in-flight flushes).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/queue.h"
#include "src/common/threading.h"
#include "src/coord/coord.h"
#include "src/kv/kv_client.h"
#include "src/recovery/flush_tracker.h"
#include "src/txn/txn_manager.h"

namespace tfr {

enum class SnapshotMode { kStable, kLatest };

struct TxnClientConfig {
  Micros heartbeat_interval = seconds(1);
  Micros session_ttl = seconds(3);
  bool sync_commit = false;
  SnapshotMode snapshot = SnapshotMode::kStable;
  int flusher_threads = 8;
  Micros flush_backoff = millis(2);
  int read_retries = 0;  ///< 0 = retry forever (block through failovers)
};

struct TxnClientStats {
  std::int64_t commits = 0;
  std::int64_t aborts = 0;
  std::int64_t flushes_completed = 0;
  std::int64_t alerts = 0;
};

class TxnClient;

/// One transactional context. Not thread-safe; a client may run many
/// transactions concurrently, each on its own Transaction object.
class Transaction {
 public:
  /// Buffer an insert/update of (row, column) = value.
  void put(const std::string& row, const std::string& column, std::string value);

  /// Buffer a delete of (row, column).
  void del(const std::string& row, const std::string& column);

  /// Snapshot read (sees this transaction's own buffered writes).
  Result<std::optional<std::string>> get(const std::string& row, const std::string& column);

  /// Snapshot scan of [start, end), up to `limit` rows. Buffered writes of
  /// this transaction are merged in.
  Result<std::vector<Cell>> scan(const std::string& start, const std::string& end,
                                 std::size_t limit);

  /// Commit. Returns the commit timestamp, or Aborted on a write-write
  /// conflict. After a successful return the transaction is durable. A
  /// read-only transaction returns its snapshot timestamp and is not logged.
  Result<Timestamp> commit();

  /// Discard the buffered write-set (§2.2: nothing is logged or flushed).
  void abort();

  Timestamp snapshot_ts() const { return handle_.start_ts; }
  bool finished() const { return finished_; }

 private:
  friend class TxnClient;
  Transaction(TxnClient* client, std::string table, TxnHandle handle)
      : client_(client), table_(std::move(table)), handle_(handle) {}

  TxnClient* client_;
  std::string table_;
  TxnHandle handle_;
  std::map<std::pair<std::string, std::string>, Mutation> buffer_;
  bool finished_ = false;
};

class TxnClient {
 public:
  TxnClient(std::string id, TxnManager& tm, Master& master, Coord& coord,
            TxnClientConfig config = {});
  ~TxnClient();

  TxnClient(const TxnClient&) = delete;
  TxnClient& operator=(const TxnClient&) = delete;

  /// Register with the recovery manager (coordination session) and start
  /// the heartbeat and flusher threads.
  Status start();

  /// Clean shutdown (Algorithm 1 lines 6-8): drain outstanding flushes,
  /// send a pre-shutdown heartbeat, unregister.
  Status close();

  /// Crash failure: heartbeats and flushes stop instantly; committed but
  /// un-flushed write-sets are stranded until the recovery manager detects
  /// the missed heartbeats and replays them from the TM log.
  void crash();

  /// Begin a transaction on `table`.
  Transaction begin(const std::string& table);

  const std::string& id() const { return id_; }
  Timestamp tf() const { return tracker_.tf(); }
  std::size_t flush_backlog() const { return tracker_.in_flight(); }

  /// Wait until every committed transaction has been flushed (FQ empty).
  bool wait_flushed(Micros timeout = seconds(30));

  /// Force one heartbeat now (tests use this instead of sleeping).
  void heartbeat_now() { heartbeat_tick(); }

  /// Change the heartbeat interval at runtime (the Figure 2(b) sweep). The
  /// failure-detection window scales with it (TTL = 3 intervals), as it
  /// must: a long interval with a short TTL reads as a dead client. Fails
  /// if the coord session is already expired or closed — the RM may be
  /// recovering this client, and re-registering a TTL would race with it.
  Status set_heartbeat_interval(Micros interval) {
    TFR_RETURN_IF_ERROR(coord_->update_ttl("clients", id_, interval * 3));
    heartbeats_.set_interval(interval);
    heartbeat_now();
    return Status::ok();
  }

  TxnClientStats stats() const;
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

 private:
  friend class Transaction;

  Timestamp pick_snapshot() const;
  Result<Timestamp> commit_writeset(const TxnHandle& handle, WriteSet ws);
  Result<std::optional<Cell>> read(const std::string& table, const std::string& row,
                                   const std::string& column, Timestamp read_ts);
  void heartbeat_tick();
  void flusher_loop();
  void join_flushers();

  std::string id_;
  TxnManager* tm_;
  Coord* coord_;
  TxnClientConfig config_;
  KvClient kv_;
  FlushTracker tracker_;

  std::atomic<bool> crashed_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> flush_cancel_{false};  // breaks the unlimited-retry loop
  BlockingQueue<WriteSet> flush_queue_;
  PeriodicTask heartbeats_;

  // Guards the thread handles: close() (caller thread) and crash() (the
  // self-terminator) may race to join the flushers — each claims the
  // handles under the lock and joins outside it, so a thread is joined
  // exactly once.
  RankedMutex<LockRank::kClientLifecycle> lifecycle_mutex_{"txn_client.lifecycle"};
  std::vector<std::thread> flushers_ TFR_GUARDED_BY(lifecycle_mutex_);
  std::thread self_terminator_ TFR_GUARDED_BY(lifecycle_mutex_);  // runs crash() (§3.1)

  std::atomic<std::int64_t> commits_{0};
  std::atomic<std::int64_t> aborts_{0};
  std::atomic<std::int64_t> flushes_completed_{0};
  std::atomic<std::int64_t> alerts_{0};
};

}  // namespace tfr
