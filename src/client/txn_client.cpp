#include "src/client/txn_client.h"

#include "src/common/logging.h"
#include "src/recovery/recovery_manager.h"  // kTfPath

namespace tfr {

// --- Transaction -------------------------------------------------------------

void Transaction::put(const std::string& row, const std::string& column, std::string value) {
  buffer_[{row, column}] = Mutation{row, column, std::move(value), false};
}

void Transaction::del(const std::string& row, const std::string& column) {
  buffer_[{row, column}] = Mutation{row, column, "", true};
}

Result<std::optional<std::string>> Transaction::get(const std::string& row,
                                                    const std::string& column) {
  // Read-your-own-writes: the buffered write-set shadows the store.
  auto it = buffer_.find({row, column});
  if (it != buffer_.end()) {
    if (it->second.is_delete) return std::optional<std::string>{};
    return std::optional<std::string>(it->second.value);
  }
  auto cell = client_->read(table_, row, column, handle_.start_ts);
  if (!cell.is_ok()) return cell.status();
  if (!cell.value()) return std::optional<std::string>{};
  return std::optional<std::string>(cell.value()->value);
}

Result<std::vector<Cell>> Transaction::scan(const std::string& start, const std::string& end,
                                            std::size_t limit) {
  auto cells = client_->kv_.scan(table_, start, end, handle_.start_ts, limit,
                                 client_->config_.read_retries);
  if (!cells.is_ok()) return cells;
  // Overlay this transaction's buffered writes on the snapshot.
  std::map<std::pair<std::string, std::string>, Cell> merged;
  for (auto& c : cells.value()) merged[{c.row, c.column}] = std::move(c);
  for (const auto& [key, m] : buffer_) {
    if (m.row < start || (!end.empty() && m.row >= end)) continue;
    if (m.is_delete) {
      merged.erase(key);
    } else {
      merged[key] = m.to_cell(handle_.start_ts);
    }
  }
  std::vector<Cell> out;
  out.reserve(merged.size());
  for (auto& [key, c] : merged) out.push_back(std::move(c));
  return out;
}

Result<Timestamp> Transaction::commit() {
  if (finished_) return Status::invalid_argument("transaction already finished");
  finished_ = true;
  WriteSet ws;
  ws.table = table_;
  ws.mutations.reserve(buffer_.size());
  for (auto& [key, m] : buffer_) ws.mutations.push_back(m);
  return client_->commit_writeset(handle_, std::move(ws));
}

void Transaction::abort() {
  if (finished_) return;
  finished_ = true;
  buffer_.clear();
  client_->tm_->abort(handle_);
  client_->aborts_.fetch_add(1, std::memory_order_relaxed);
}

// --- TxnClient ---------------------------------------------------------------

TxnClient::TxnClient(std::string id, TxnManager& tm, Master& master, Coord& coord,
                     TxnClientConfig config)
    : id_(std::move(id)),
      tm_(&tm),
      coord_(&coord),
      config_(config),
      kv_(master, config.flush_backoff),
      tracker_(kNoTimestamp),
      heartbeats_([this] { heartbeat_tick(); }, config.heartbeat_interval) {
  kv_.set_client_id(id_);
}

TxnClient::~TxnClient() {
  // A client that was closed cleanly or crashed has already joined its
  // threads; otherwise shut down cleanly now.
  if (!crashed() && running_.load(std::memory_order_acquire)) {
    TFR_IGNORE_STATUS(close(), "destructor close is best-effort; RM recovery is the backstop");
  }
  std::thread terminator;
  {
    MutexLock lock(lifecycle_mutex_);
    terminator = std::move(self_terminator_);
  }
  if (terminator.joinable()) terminator.join();
}

Status TxnClient::start() {
  // A fresh client has nothing in flight, so it can safely claim
  // TF(c) = the oracle's current timestamp (see FlushTracker's idle
  // fast-path): none of *its* transactions are unflushed.
  const Timestamp initial_tf = tm_->current_ts();
  tracker_.advance(initial_tf);
  TFR_RETURN_IF_ERROR(coord_->create_session("clients", id_, config_.session_ttl, initial_tf));
  running_.store(true, std::memory_order_release);
  {
    MutexLock lock(lifecycle_mutex_);
    for (int i = 0; i < config_.flusher_threads; ++i) {
      flushers_.emplace_back([this] { flusher_loop(); });
    }
  }
  heartbeats_.start();
  return Status::ok();
}

Status TxnClient::close() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return Status::ok();
  heartbeats_.stop();
  // Drain outstanding flushes so the pre-shutdown heartbeat reports a final,
  // fully-advanced TF(c).
  if (!wait_flushed(seconds(60))) {
    TFR_LOG(WARN, "client") << id_ << " closing with " << tracker_.in_flight()
                            << " unflushed transactions";
  }
  flush_cancel_.store(true, std::memory_order_release);
  flush_queue_.close();
  join_flushers();
  heartbeat_tick();  // pre-shutdown heartbeat (Algorithm 1 line 7)
  return coord_->close_session("clients", id_);
}

void TxnClient::crash() {
  if (crashed_.exchange(true, std::memory_order_acq_rel)) return;
  running_.store(false, std::memory_order_release);
  flush_cancel_.store(true, std::memory_order_release);
  heartbeats_.stop();
  flush_queue_.close();
  join_flushers();
  TFR_LOG(INFO, "client") << id_ << " CRASHED with " << tracker_.in_flight()
                          << " unflushed transactions (TF=" << tracker_.tf() << ")";
}

Timestamp TxnClient::pick_snapshot() const {
  if (config_.snapshot == SnapshotMode::kStable) {
    // Read at the published global flush threshold: everything at or below
    // it is fully flushed, so snapshots are never torn. Falls back to the
    // oracle when no recovery manager has published TF yet.
    if (auto tf = coord_->get(kTfPath)) return *tf;
  }
  return tm_->current_ts();
}

Transaction TxnClient::begin(const std::string& table) {
  const Timestamp snapshot = pick_snapshot();
  return Transaction(this, table, tm_->begin(snapshot, id_));
}

Result<std::optional<Cell>> TxnClient::read(const std::string& table, const std::string& row,
                                            const std::string& column, Timestamp read_ts) {
  if (crashed()) return Status::closed("client crashed: " + id_);
  return kv_.get(table, row, column, read_ts, config_.read_retries);
}

Result<Timestamp> TxnClient::commit_writeset(const TxnHandle& handle, WriteSet ws) {
  if (crashed()) return Status::closed("client crashed: " + id_);
  ws.client_id = id_;

  // Keep a copy for the post-commit flush; the TM consumes the original.
  WriteSet to_flush = ws;
  auto committed = tm_->commit(handle, std::move(ws),
                               [this](Timestamp ts) { tracker_.on_commit_ts(ts); });
  if (!committed.is_ok()) {
    if (committed.status().is_aborted()) aborts_.fetch_add(1, std::memory_order_relaxed);
    return committed;
  }
  const Timestamp commit_ts = committed.value();
  to_flush.commit_ts = commit_ts;
  commits_.fetch_add(1, std::memory_order_relaxed);

  if (to_flush.mutations.empty()) {
    // Read-only transaction: nothing to flush.
    tracker_.on_flushed(commit_ts);
    return commit_ts;
  }

  if (config_.sync_commit) {
    // Synchronous persistence: the write-set reaches (and is persisted by)
    // the servers before commit returns to the application.
    TFR_RETURN_IF_ERROR(kv_.flush_writeset(to_flush, &flush_cancel_));
    tracker_.on_flushed(commit_ts);
    flushes_completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Deferred flush: hand off to the flusher pool and return immediately —
    // the recovery log already guarantees durability.
    flush_queue_.push(std::move(to_flush));
  }
  return commit_ts;
}

void TxnClient::flusher_loop() {
  while (auto ws = flush_queue_.pop()) {
    // Pipelined flush: opportunistically drain whatever else is already
    // queued (up to the batch cap) so one RPC round covers many write-sets.
    std::vector<WriteSet> batch;
    batch.push_back(std::move(*ws));
    if (config_.pipelined_flush) {
      while (batch.size() < config_.flush_batch_max) {
        auto more = flush_queue_.try_pop();
        if (!more) break;
        batch.push_back(std::move(*more));
      }
    }
    Status s = batch.size() == 1
                   ? kv_.flush_writeset(batch.front(), &flush_cancel_)
                   : kv_.flush_writesets(batch, &flush_cancel_);
    if (!s.is_ok()) {
      // Only cancellation (crash) can break the unlimited-retry loop.
      TFR_LOG(INFO, "client") << id_ << " flush of " << batch.size()
                              << " write-set(s) stopped: " << s;
      continue;
    }
    for (const WriteSet& flushed : batch) {
      tracker_.on_flushed(flushed.commit_ts);
      flushes_completed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void TxnClient::heartbeat_tick() {
  if (crashed()) return;
  // Fetch the oracle time FIRST (see FlushTracker's ordering contract),
  // then advance TF(c) and piggyback it on the heartbeat.
  const Timestamp current = tm_->current_ts();
  const Timestamp tf = tracker_.advance(current);
  Status hb = coord_->heartbeat("clients", id_, tf);
  if (hb.is_unavailable() && running_.load(std::memory_order_acquire)) {
    // §3.1: we were declared dead (e.g. a network partition outlived the
    // session TTL) and recovery is running on our behalf; our messages are
    // ignored, so terminate. crash() joins the heartbeat thread — this IS
    // the heartbeat thread — so run it from a dedicated terminator thread.
    TFR_LOG(WARN, "client") << id_ << " declared dead by the recovery manager; terminating";
    MutexLock lock(lifecycle_mutex_);
    if (!self_terminator_.joinable()) {
      self_terminator_ = std::thread([this] { crash(); });
    }
    return;
  }
  if (tracker_.in_flight() > config_.flush_queue_alert) {
    alerts_.fetch_add(1, std::memory_order_relaxed);
    TFR_LOG(WARN, "client") << id_ << " flush queue exceeds alert threshold: "
                            << tracker_.in_flight();
  }
}

void TxnClient::join_flushers() {
  std::vector<std::thread> to_join;
  {
    MutexLock lock(lifecycle_mutex_);
    to_join.swap(flushers_);
  }
  for (auto& t : to_join) t.join();
}

bool TxnClient::wait_flushed(Micros timeout) {
  const Micros deadline = now_micros() + timeout;
  for (;;) {
    // Drain matched FQ/FQ' pairs ourselves — the heartbeat task may already
    // be stopped (clean shutdown) or simply not due yet.
    tracker_.advance(tm_->current_ts());
    if (tracker_.in_flight() == 0 && flush_queue_.size() == 0) return true;
    if (now_micros() > deadline) return false;
    sleep_micros(millis(1));
  }
}

TxnClientStats TxnClient::stats() const {
  return TxnClientStats{commits_.load(std::memory_order_relaxed),
                        aborts_.load(std::memory_order_relaxed),
                        flushes_completed_.load(std::memory_order_relaxed),
                        alerts_.load(std::memory_order_relaxed)};
}

}  // namespace tfr
