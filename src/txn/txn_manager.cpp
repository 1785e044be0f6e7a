#include "src/txn/txn_manager.h"

#include <algorithm>

#include "src/common/logging.h"

namespace tfr {

TxnManager::TxnManager(TxnLogConfig log_config) : log_(log_config) {}

namespace {
void remove_active(std::set<Timestamp>& set, std::unordered_map<Timestamp, int>& count,
                   Timestamp ts) {
  auto it = count.find(ts);
  if (it == count.end()) return;
  if (--it->second == 0) {
    count.erase(it);
    set.erase(ts);
  }
}
}  // namespace

TxnHandle TxnManager::begin(Timestamp start_ts, const std::string& client_id) {
  TxnHandle h;
  h.txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  h.start_ts = start_ts;
  h.client_id = client_id;
  MutexLock lock(mutex_);
  if (++active_count_[start_ts] == 1) active_start_ts_.insert(start_ts);
  if (!client_id.empty()) open_by_client_[client_id][h.txn_id] = start_ts;
  return h;
}

void TxnManager::release_locked(const TxnHandle& txn) {
  remove_active(active_start_ts_, active_count_, txn.start_ts);
  if (!txn.client_id.empty()) {
    auto cit = open_by_client_.find(txn.client_id);
    if (cit != open_by_client_.end()) cit->second.erase(txn.txn_id);
  }
}

void TxnManager::abandon_client(const std::string& client_id) {
  MutexLock lock(mutex_);
  auto it = open_by_client_.find(client_id);
  if (it == open_by_client_.end()) return;
  for (const auto& [txn_id, start_ts] : it->second) {
    remove_active(active_start_ts_, active_count_, start_ts);
    ++stats_.aborts_explicit;
  }
  open_by_client_.erase(it);
}

Result<Timestamp> TxnManager::commit(const TxnHandle& txn, WriteSet ws,
                                     const TsListener& ts_listener) {
  Timestamp commit_ts = kNoTimestamp;
  {
    MutexLock lock(mutex_);
    if (ws.mutations.empty()) {
      // Read-only: under SI it serializes at its snapshot, conflicts with
      // nothing and has nothing to recover, so it takes no timestamp and
      // never touches the log — it only releases its snapshot.
      release_locked(txn);
      ++stats_.commits;
      return txn.start_ts;
    }
    // First-committer-wins write-write conflict check (snapshot isolation):
    // abort if any row we wrote was committed by someone after our snapshot.
    // Conflict keys are table-qualified — the same row key in two tables is
    // not a conflict.
    for (const auto& m : ws.mutations) {
      auto it = last_writer_.find(ws.table + "\x1f" + m.row);
      if (it != last_writer_.end() && it->second > txn.start_ts) {
        release_locked(txn);
        ++stats_.aborts_conflict;
        return Status::aborted("write-write conflict on row " + m.row);
      }
    }
    commit_ts = ++last_ts_;
    for (const auto& m : ws.mutations) last_writer_[ws.table + "\x1f" + m.row] = commit_ts;
    release_locked(txn);
    ++stats_.commits;
    if (++commits_since_prune_ >= 4096) prune_conflicts_locked();
    // Inside the critical section: Algorithm 1's FQ sees commit timestamps
    // with no gaps relative to current_ts().
    if (ts_listener) ts_listener(commit_ts);
  }
  ws.commit_ts = commit_ts;
  // Group-commit append; returning from here IS the commit point (§2.2).
  TFR_RETURN_IF_ERROR(log_.append(std::move(ws)));
  return commit_ts;
}

void TxnManager::abort(const TxnHandle& txn) {
  MutexLock lock(mutex_);
  release_locked(txn);
  ++stats_.aborts_explicit;
}

Timestamp TxnManager::current_ts() const {
  MutexLock lock(mutex_);
  return last_ts_;
}

void TxnManager::checkpoint(Timestamp tp) {
  log_.truncate_through(tp);
  MutexLock lock(mutex_);
  prune_floor_ = std::max(prune_floor_, tp);
}

void TxnManager::prune_conflicts_locked() {
  commits_since_prune_ = 0;
  // A conflict entry is needed while some current or future snapshot could
  // be older than it. Future snapshots are >= prune_floor_ (the stable
  // snapshot never regresses below the published TF >= TP); current ones
  // are bounded by the oldest active transaction.
  Timestamp floor = prune_floor_;
  if (!active_start_ts_.empty()) floor = std::min(floor, *active_start_ts_.begin());
  if (floor <= kNoTimestamp) return;
  for (auto it = last_writer_.begin(); it != last_writer_.end();) {
    if (it->second <= floor) {
      it = last_writer_.erase(it);
    } else {
      ++it;
    }
  }
}

TxnManagerStats TxnManager::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace tfr
