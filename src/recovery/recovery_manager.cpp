#include "src/recovery/recovery_manager.h"

#include <algorithm>
#include <string_view>
#include <tuple>

#include "src/common/logging.h"

namespace tfr {

namespace {

std::int64_t count_mutations(const std::vector<WriteSet>& writesets) {
  std::int64_t n = 0;
  for (const auto& ws : writesets) n += static_cast<std::int64_t>(ws.mutations.size());
  return n;
}

}  // namespace

std::vector<WriteSet> filter_for_region(const std::vector<WriteSet>& writesets,
                                        const RegionDescriptor& region,
                                        const std::vector<WalRecord>& recovered,
                                        RecoveryClientStats& stats) {
  // The region synced its split edits before the gate, so a write-set whose
  // every in-region update is among their cells would add nothing. That is
  // the usual case: apply_slice logs one record per region per slice. A
  // write-set that reached the region in two slices (a stale route after a
  // merge) and lost the later record is replayed whole (DESIGN §8.3).
  std::set<std::tuple<Timestamp, std::string_view, std::string_view>> held;
  for (const WalRecord& rec : recovered) {
    for (const Cell& c : rec.cells) held.emplace(rec.commit_ts, c.row, c.column);
  }
  std::vector<WriteSet> out;
  for (const auto& ws : writesets) {
    // Original timestamp, never a fresh one; only the updates in region r.
    WriteSet in_region{ws.txn_id, ws.client_id, ws.commit_ts, ws.table, {}};
    bool all_held = true;
    for (const auto& m : ws.mutations) {
      if (ws.table != region.table || !region.contains(m.row)) {
        ++stats.mutations_skipped;
        continue;
      }
      in_region.mutations.push_back(m);
      all_held = all_held && held.count({ws.commit_ts, m.row, m.column}) != 0;
    }
    if (in_region.mutations.empty()) continue;
    if (all_held) {
      ++stats.region_writesets_deduped;
      continue;
    }
    out.push_back(std::move(in_region));
  }
  return out;
}

RecoveryManager::RecoveryManager(Coord& coord, TxnManager& tm, Master& master,
                                 RecoveryManagerConfig config)
    : coord_(&coord),
      tm_(&tm),
      master_(&master),
      config_(config),
      recovery_client_(master),
      poller_([this] { poll_tick(); }, config.poll_interval) {}

RecoveryManager::~RecoveryManager() { stop(); }

void RecoveryManager::start() {
  {
    MutexLock lock(mutex_);
    if (started_) return;
    started_ = true;
    publish_locked();  // make the TF/TP znodes exist from the start
  }
  client_listener_id_ = coord_->add_listener(
      "clients",
      [this](const SessionInfo& info, bool expired) { on_client_session(info, expired); });
  server_listener_id_ = coord_->add_listener(
      "servers",
      [this](const SessionInfo& info, bool expired) { on_server_session(info, expired); });
  master_->set_hooks(this);
  worker_ = std::thread([this] {
    while (auto task = work_.pop()) (*task)();
  });
  poller_.start();
  TFR_LOG(INFO, "rm") << "recovery manager started";
}

void RecoveryManager::stop() {
  poller_.stop();
  // Unhook from the coordination service so no session event can reach a
  // dying instance (the restart path replaces the RM object).
  if (client_listener_id_ != 0) coord_->remove_listener("clients", client_listener_id_);
  if (server_listener_id_ != 0) coord_->remove_listener("servers", server_listener_id_);
  client_listener_id_ = server_listener_id_ = 0;
  work_.close();
  if (worker_.joinable()) worker_.join();
}

void RecoveryManager::recover_state() {
  std::vector<std::pair<std::string, Timestamp>> resume;  // client -> TFr(c)
  {
    MutexLock lock(mutex_);
    // §3.3: the thresholds are recoverable from the coordination service; the
    // registries repopulate from the live sessions' piggybacked payloads.
    if (auto tf = coord_->get(kTfPath)) {
      published_tf_.store(std::max(published_tf_.load(std::memory_order_relaxed), *tf),
                          std::memory_order_relaxed);
    }
    if (auto tp = coord_->get(kTpPath)) {
      published_tp_.store(std::max(published_tp_.load(std::memory_order_relaxed), *tp),
                          std::memory_order_relaxed);
    }
    client_tf_.clear();
    server_tp_.clear();
    for (const auto& s : coord_->live_sessions("clients")) client_tf_[s.name] = s.payload;
    for (const auto& s : coord_->live_sessions("servers")) server_tp_[s.name] = s.payload;

    // Re-adopt the in-flight server recoveries: every pending region floors
    // TP again at its TPr(s), and a gate firing after the restart still finds
    // its region pending and replays.
    pending_regions_.clear();
    const std::size_t region_prefix = std::string(kRecoveringRegionPrefix).size();
    for (const auto& [path, tpr] : coord_->list(kRecoveringRegionPrefix)) {
      pending_regions_[path.substr(region_prefix)] = PendingRegion{tpr};
    }
    const std::size_t epoch_prefix = std::string(kRecoveringEpochPrefix).size();
    for (const auto& [path, epoch] : coord_->list(kRecoveringEpochPrefix)) {
      auto it = pending_regions_.find(path.substr(epoch_prefix));
      if (it != pending_regions_.end()) {
        it->second.fenced_epoch = static_cast<std::uint64_t>(epoch);
      } else {
        coord_->erase(path);  // stale leftover: its region marker is gone
      }
    }

    // Interrupted client recoveries restart from their original TFr(c);
    // re-flushing write-sets the old RM already replayed is idempotent.
    const std::size_t client_prefix = std::string(kRecoveringClientPrefix).size();
    for (const auto& [path, tfr] : coord_->list(kRecoveringClientPrefix)) {
      resume.emplace_back(path.substr(client_prefix), tfr);
    }

    // Clients that died while no RM was listening: durably registered, but
    // neither live nor already being recovered.
    const std::size_t registry_prefix = std::string(kClientRegistryPrefix).size();
    for (const auto& [path, tfc] : coord_->list(kClientRegistryPrefix)) {
      const std::string id = path.substr(registry_prefix);
      if (client_tf_.count(id)) continue;
      const bool already_resuming = std::any_of(
          resume.begin(), resume.end(), [&](const auto& r) { return r.first == id; });
      if (already_resuming) continue;
      coord_->put(kRecoveringClientPrefix + id, tfc);
      coord_->erase(path);
      resume.emplace_back(id, tfc);
    }

    for (const auto& [id, tfr] : resume) {
      client_recovery_floor_[id] = tfr;
      ++stats_.client_recoveries;
    }
    TFR_LOG(INFO, "rm") << "state recovered: TF=" << published_tf_.load(std::memory_order_relaxed)
                        << " TP=" << published_tp_.load(std::memory_order_relaxed)
                        << " clients=" << client_tf_.size() << " servers=" << server_tp_.size()
                        << " pending regions=" << pending_regions_.size()
                        << " resumed client recoveries=" << resume.size();
  }
  for (const auto& [id, tfr] : resume) {
    const std::string client_id = id;
    const Timestamp floor = tfr;
    work_.push([this, client_id, floor] { recover_client(client_id, floor); });
  }
}

// --- threshold maintenance ---------------------------------------------------

Timestamp RecoveryManager::compute_tf_locked() const {
  // TF = min over all clients' reported thresholds, with in-flight client
  // recoveries holding the floor at TFr(c).
  Timestamp tf = kMaxTimestamp;
  for (const auto& [c, t] : client_tf_) tf = std::min(tf, t);
  for (const auto& [c, t] : client_recovery_floor_) tf = std::min(tf, t);
  if (tf == kMaxTimestamp) {
    // No clients: every commit ever issued came from a client that either
    // unregistered cleanly (all flushed) or was recovered (replayed), so
    // the whole timestamp range is flushed.
    tf = tm_->current_ts();
  }
  return std::max(published_tf_.load(std::memory_order_relaxed), tf);
}

Timestamp RecoveryManager::compute_tp_locked() const {
  Timestamp tp = kMaxTimestamp;
  for (const auto& [s, t] : server_tp_) tp = std::min(tp, t);
  // Every region still awaiting transactional replay pins TP at the TPr(s)
  // of its failure, so the recovery log cannot be truncated under it.
  for (const auto& [r, pending] : pending_regions_) tp = std::min(tp, pending.tpr);
  const Timestamp tf = published_tf_.load(std::memory_order_relaxed);
  if (tp == kMaxTimestamp) tp = tf;  // no servers and nothing pending: all persisted
  tp = std::min(tp, tf);  // the global invariant TP <= TF
  return std::max(published_tp_.load(std::memory_order_relaxed), tp);
}

void RecoveryManager::publish_locked() {
  // Never publish from a registry that misses a live session: with a client
  // not yet ingested, TF would run past that client's unflushed commits (and
  // the TM-log checkpoint would then truncate what its recovery replays).
  // Failures are detected within an RPC of the crash, so a recovery can
  // publish before the first poll has seen every session.
  ingest_sessions_locked();
  const Timestamp tf = compute_tf_locked();
  published_tf_.store(tf, std::memory_order_release);
  const Timestamp tp = compute_tp_locked();
  published_tp_.store(tp, std::memory_order_release);
  coord_->put(kTfPath, tf);
  coord_->put(kTpPath, tp);
  if (!config_.ignore_thresholds) tm_->checkpoint(tp);
}

void RecoveryManager::poll_tick() {
  MutexLock lock(mutex_);
  publish_locked();
  ++stats_.threshold_refreshes;
}

void RecoveryManager::ingest_sessions_locked() {
  // mutex_ is held across snapshot + ingest + publish so a session that
  // departs concurrently (its listener erases the registry entry under this
  // same mutex) cannot be resurrected by a stale snapshot.
  // Ingest the latest piggybacked thresholds. Client TF(c) is monotonic
  // (max-merge); server TP(s) can be *lowered* by inheritance, so take it
  // verbatim.
  for (const auto& s : coord_->live_sessions("clients")) {
    // Creates on first sight (Algorithm 2); a stale payload never lowers it.
    Timestamp& tfc = client_tf_.try_emplace(s.name, s.payload).first->second;
    tfc = std::max(tfc, s.payload);
    // Durable registry: if this client dies while no RM is listening, the
    // next RM still knows it existed and what to replay from.
    coord_->put(kClientRegistryPrefix + s.name, tfc);
  }
  for (const auto& s : coord_->live_sessions("servers")) {
    // A failure the master proved early (a crashed server answering an RPC
    // with ServerDown) is usually fully handled while the dead server's
    // session is still ticking down; its stale payload must not resurrect
    // the erased registry entry.
    if (failed_servers_.count(s.name)) continue;
    server_tp_[s.name] = s.payload;
  }
}

Timestamp RecoveryManager::global_tf() const {
  return published_tf_.load(std::memory_order_acquire);
}

Timestamp RecoveryManager::global_tp() const {
  return published_tp_.load(std::memory_order_acquire);
}

Timestamp RecoveryManager::min_recovery_floor() const {
  MutexLock lock(mutex_);
  Timestamp floor = kMaxTimestamp;
  for (const auto& [region, pending] : pending_regions_) {
    floor = std::min(floor, pending.tpr);
  }
  for (const auto& [client, tfr] : client_recovery_floor_) {
    floor = std::min(floor, tfr);
  }
  return floor;
}

// --- client failure handling (Algorithm 2) ------------------------------------

void RecoveryManager::on_client_session(const SessionInfo& info, bool expired) {
  if (!expired) {
    // Clean unregister: drop the client from TF maintenance (§3.1).
    MutexLock lock(mutex_);
    client_tf_.erase(info.name);
    coord_->erase(kClientRegistryPrefix + info.name);
    publish_locked();
    return;
  }
  {
    MutexLock lock(mutex_);
    // Hold TF at TFr(c) until the replay completes: servers must not be
    // told that these transactions are "fully flushed" while the recovery
    // client is still re-flushing them. The floor is installed BEFORE the
    // registry entry is erased: erasure is the only operation that can
    // raise the min past a component with unflushed work. The durable
    // marker lets an RM that restarts mid-replay resume from the same floor.
    client_recovery_floor_[info.name] = info.payload;
    client_tf_.erase(info.name);
    coord_->put(kRecoveringClientPrefix + info.name, info.payload);
    coord_->erase(kClientRegistryPrefix + info.name);
    ++stats_.client_recoveries;
  }
  TFR_LOG(INFO, "rm") << "client " << info.name << " FAILED, TFr=" << info.payload
                      << "; replaying its committed write-sets";
  const std::string client_id = info.name;
  const Timestamp tfr = info.payload;
  work_.push([this, client_id, tfr] { recover_client(client_id, tfr); });
}

void RecoveryManager::recover_client(const std::string& client_id, Timestamp tfr) {
  // fetchlogs(c, TFr(c)): every write-set this client committed after its
  // last reported flush threshold. Some may in fact be flushed already —
  // replaying them is idempotent.
  const auto writesets =
      tm_->log().fetch_client_after(client_id, config_.ignore_thresholds ? kNoTimestamp : tfr);
  const Status replayed = recovery_client_.flush_writesets(writesets, nullptr, std::nullopt,
                                                          /*recovery_replay=*/true);
  if (!replayed.is_ok()) {
    TFR_LOG(ERROR, "rm") << "client replay of " << writesets.size()
                         << " write-sets failed: " << replayed;
  }
  {
    MutexLock lock(mutex_);
    if (replayed.is_ok()) {
      replay_stats_.client_writesets_replayed += static_cast<std::int64_t>(writesets.size());
      replay_stats_.mutations_replayed += count_mutations(writesets);
    }
    client_recovery_floor_.erase(client_id);
    coord_->erase(kRecoveringClientPrefix + client_id);
    publish_locked();
  }
  idle_cv_.notify_all();
  // The dead client's open (never-committed) transactions count as aborted;
  // reap them so their snapshots stop pinning the TM's conflict table.
  tm_->abandon_client(client_id);
  TFR_LOG(INFO, "rm") << "client " << client_id << " recovered (" << writesets.size()
                      << " write-sets replayed)";
}

// --- server failure handling (Algorithm 4) -------------------------------------

void RecoveryManager::on_server_session(const SessionInfo& info, bool expired) {
  if (!expired) {
    // Clean shutdown: the server flushed and synced everything it had, and
    // its final heartbeat reported an up-to-date TP(s).
    MutexLock lock(mutex_);
    server_tp_.erase(info.name);
    failed_servers_.erase(info.name);
    publish_locked();
    return;
  }
  // Crash: record the final payload so on_server_failure (called by the
  // master, possibly before our next poll) sees the freshest TPr(s). The
  // registry entry stays until then, conservatively pinning the global TP.
  // Unless the failure was already handled ahead of this expiry — then the
  // entry was deliberately erased and re-recording it would pin TP forever.
  // Consume the tombstone and clear anything a pre-tombstone poll ingest
  // may have resurrected; this expiry is the session's final event.
  MutexLock lock(mutex_);
  if (failed_servers_.erase(info.name) > 0) {
    server_tp_.erase(info.name);
    publish_locked();
    return;
  }
  // Min-merge: keep the most conservative TP(s) seen.
  auto [it, inserted] = server_tp_.try_emplace(info.name, info.payload);
  if (!inserted) it->second = std::min(it->second, info.payload);
}

void RecoveryManager::on_server_failure(const std::string& server_id,
                                        const std::vector<std::string>& regions) {
  MutexLock lock(mutex_);
  Timestamp tpr = published_tp_.load(std::memory_order_relaxed);  // conservative fallback
  if (auto it = server_tp_.find(server_id); it != server_tp_.end()) {
    tpr = it->second;
    server_tp_.erase(it);
  }
  // If the master proved this death early (a ServerDown answer confirmed by
  // its probe, from a client's RPC or a failed open_region), the dead
  // server's session is still ticking down. Keep the erase effective until
  // it actually expires: the session ingest and the expiry event both skip
  // tombstoned servers (see ingest_sessions_locked and on_server_session),
  // otherwise the stale session — or the expiry event's own final-payload
  // record — would re-insert the entry and pin the global TP at the dead
  // server's last payload forever. When the expiry already dispatched, the tombstone
  // simply lingers; servers never re-open a session under a prior name, so
  // it shadows nothing (a restartable-server follow-on would need session
  // incarnation ids here).
  failed_servers_.insert(server_id);
  for (const auto& r : regions) {
    // The master bumped the region's epoch before invoking this hook; record
    // it so the gate below (and an RM resuming from the durable markers) can
    // insist the replay target holds at least this fenced grant.
    const std::uint64_t fenced = master_->region_epoch(r);
    auto [it, inserted] =
        pending_regions_.try_emplace(r, PendingRegion{tpr, fenced});
    if (!inserted) {
      // Cascade: the region was still mid-recovery from an earlier failure
      // when its new owner died too. Inherit the stricter replay bound —
      // TP(s') := min(TP(s'), TP(s)) (§3.2) — and the newest fence, so the
      // eventual gate replays everything either failure could have lost and
      // rejects any pre-cascade grant.
      it->second.tpr = std::min(it->second.tpr, tpr);
      it->second.fenced_epoch = std::max(it->second.fenced_epoch, fenced);
    }
    // Durable marker first: the master only starts reassigning regions after
    // this hook returns, so by the time any gate can fire the pending set —
    // and therefore the replay obligation — is already crash-safe.
    coord_->put(kRecoveringRegionPrefix + r, it->second.tpr);
    coord_->put(kRecoveringEpochPrefix + r,
                static_cast<std::int64_t>(it->second.fenced_epoch));
  }
  ++stats_.server_recoveries;
  publish_locked();
  TFR_LOG(INFO, "rm") << "server " << server_id << " FAILED, TPr=" << tpr << ", "
                      << regions.size() << " regions to recover";
}

void RecoveryManager::on_regions_replaced(const std::vector<std::string>& parents,
                                          const std::vector<std::string>& children,
                                          std::uint64_t new_epoch) {
  MutexLock lock(mutex_);
  std::optional<PendingRegion> inherited;  // the pending parent with the lowest TPr
  for (const auto& p : parents) {
    auto it = pending_regions_.find(p);
    if (it != pending_regions_.end() && (!inherited || it->second.tpr < inherited->tpr)) {
      inherited = PendingRegion{it->second.tpr, new_epoch};
    }
  }
  if (!inherited) return;  // no parent had anything pending
  // TP-inheritance extended to topology changes: each child's replay bound
  // is min-merged with the lowest pending parent TPr, under the
  // transition's fenced epoch, and made durable FIRST — only then are the
  // parents' entries (and markers) erased. An RM crash anywhere in between
  // leaves a superset of the obligation, never a gap, and the TP floor
  // never lifts (the children's min equals the parents' floor before the
  // erase happens). A merge lands here only if a failure slipped between
  // the master's is_region_recovering refusal and the commit.
  for (const auto& c : children) {
    auto [it, inserted] = pending_regions_.try_emplace(c, *inherited);
    if (!inserted) {
      it->second.tpr = std::min(it->second.tpr, inherited->tpr);
      it->second.fenced_epoch = std::max(it->second.fenced_epoch, new_epoch);
    }
    coord_->put(kRecoveringRegionPrefix + c, it->second.tpr);
    coord_->put(kRecoveringEpochPrefix + c, static_cast<std::int64_t>(it->second.fenced_epoch));
    ++stats_.floor_inheritances;
  }
  for (const auto& p : parents) {
    pending_regions_.erase(p);
    coord_->erase(kRecoveringRegionPrefix + p);
    coord_->erase(kRecoveringEpochPrefix + p);
  }
  publish_locked();
  TFR_LOG(INFO, "rm") << "topology change of recovering region(s) from " << parents.front()
                      << ": replay floor TPr=" << inherited->tpr << " migrated to "
                      << children.size() << " children (epoch " << new_epoch << ")";
}

bool RecoveryManager::is_region_recovering(const std::string& region) {
  MutexLock lock(mutex_);
  return pending_regions_.count(region) != 0;
}

void RecoveryManager::on_region_recovered(const std::string& region_name,
                                          const std::string& server_id,
                                          const std::vector<WalRecord>& recovered) {
  PendingRegion pending;
  {
    MutexLock lock(mutex_);
    auto it = pending_regions_.find(region_name);
    if (it == pending_regions_.end()) {
      // Not part of a failure recovery (e.g. a clean-shutdown reassignment):
      // nothing transactional to replay, let the region go online.
      return;
    }
    pending = it->second;
  }

  auto loc = master_->region_by_name(region_name);
  if (!loc.is_ok()) {
    TFR_LOG(ERROR, "rm") << "gate for unknown region " << region_name << ": " << loc.status();
    return;
  }
  // Replay only once the fenced epoch is in force: a gate reached while the
  // master still routes to a pre-fence grant (e.g. a zombie owner re-opening
  // the region on its own) must not consume the replay obligation. Leave the
  // pending entry — and its TP floor — intact; the legitimate post-fence
  // open will gate again.
  if (loc.value().epoch < pending.fenced_epoch) {
    TFR_LOG(WARN, "rm") << "gate for " << region_name << " at epoch " << loc.value().epoch
                        << " < fenced epoch " << pending.fenced_epoch << "; replay deferred";
    return;
  }

  // Replay every write-set committed after TPr(s) whose updates fall in
  // this region and that the split WAL did not already recover, with
  // TPr(s) piggybacked (inheritance, §3.2), as one batched apply frame per
  // retry round: the target inherits and syncs its WAL once.
  const auto writesets =
      tm_->log().fetch_after(config_.ignore_thresholds ? kNoTimestamp : pending.tpr);
  RecoveryClientStats counted;
  const std::vector<WriteSet> replay =
      filter_for_region(writesets, loc.value().descriptor, recovered, counted);
  const Status replayed = recovery_client_.flush_writesets(replay, nullptr, pending.tpr,
                                                          /*recovery_replay=*/true);
  if (!replayed.is_ok()) {
    TFR_LOG(ERROR, "rm") << "region replay of " << writesets.size() << " write-sets into "
                         << region_name << " failed: " << replayed;
  }

  {
    MutexLock lock(mutex_);
    replay_stats_.mutations_skipped += counted.mutations_skipped;
    replay_stats_.region_writesets_deduped += counted.region_writesets_deduped;
    if (replayed.is_ok()) {
      stats_.writesets_replayed_server += static_cast<std::int64_t>(writesets.size());
      replay_stats_.region_writesets_replayed += static_cast<std::int64_t>(replay.size());
      replay_stats_.mutations_replayed += count_mutations(replay);
    }
    ++stats_.regions_recovered;
    auto it = pending_regions_.find(region_name);
    // Erase only if the entry still matches our snapshot in BOTH the fenced
    // epoch and the replay bound: a cascade re-arm bumps the epoch, while a
    // topology transition landing under the same name can lower only the
    // tpr (min-inheritance) — either way the newer obligation must survive
    // this gate's completion.
    if (it != pending_regions_.end() && it->second.fenced_epoch == pending.fenced_epoch &&
        it->second.tpr == pending.tpr) {
      // Release this region's TP floor; once the last region of the failure
      // is erased the replayed write-sets are the hosting servers'
      // responsibility (they inherited TPr(s) via the piggyback).
      pending_regions_.erase(it);
      coord_->erase(kRecoveringRegionPrefix + region_name);
      coord_->erase(kRecoveringEpochPrefix + region_name);
    } else if (it != pending_regions_.end()) {
      // The entry was re-armed by a later failure (cascade) while this gate
      // was replaying: our snapshot's obligation is consumed, but the newer
      // one — with its min-inherited TPr — is not. Keep the entry and its
      // floor; the post-cascade gate will consume it.
      TFR_LOG(WARN, "rm") << "gate for " << region_name << " finished at fenced epoch "
                          << pending.fenced_epoch << " but the region was re-armed at epoch "
                          << it->second.fenced_epoch << "; replay obligation kept";
    }
    publish_locked();
  }
  idle_cv_.notify_all();
  TFR_LOG(INFO, "rm") << "region " << region_name << " transactionally recovered on "
                      << server_id << " (" << writesets.size() << " candidate write-sets)";
}

RecoveryManagerStats RecoveryManager::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

const RecoveryClientStats RecoveryManager::recovery_client_stats() const {
  RecoveryClientStats out;
  {
    MutexLock lock(mutex_);
    out = replay_stats_;
  }
  out.flush_rpcs = recovery_client_.stats().flush_rpcs;
  return out;
}

void RecoveryManager::wait_for_idle() const {
  MutexLock lock(mutex_);
  while (!client_recovery_floor_.empty() || !pending_regions_.empty()) idle_cv_.wait(lock);
}

}  // namespace tfr
