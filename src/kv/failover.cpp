// The master's failure handling (§3.2): a server is declared dead on proof
// or on silence, each failure runs on its own handler thread, and the
// handler recovers the server in named phases — fence_regions, then
// split_wal on the handler thread while recover_region runs on the workers
// (with reflush_superseded_edits for a region a later failure took over),
// then purge_wal. DESIGN §6 ("The recovery timeline") and §8.4.
#include "src/kv/master.h"

#include <algorithm>
#include <atomic>

#include "src/common/backoff.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/kv/kv_client.h"

namespace tfr {

namespace {
// Concurrent region recoveries per failed server: enough to overlap several
// open_region replays without flooding a small cluster's handler pools.
constexpr std::size_t kRecoveryWorkers = 4;
// The superseded-edit re-flush runs on a recovery worker, so its retries are
// bounded: an unreachable cluster (no live server left) must degrade to
// "segments kept, operator required" rather than park the thread. A 64 us
// jittered backoff caps at 2 ms, so the budget is ~2000 rounds of ~1 ms.
constexpr Micros kSupersededReplayBackoff = 64;
constexpr int kSupersededReplayRetries = 2000;
}  // namespace

void Master::start() {
  listener_id_ = coord_->add_listener("servers", [this](const SessionInfo& info, bool expired) {
    on_session_event(info, expired);
  });
}

void Master::stop() {
  // The balancer first: a tick in flight may be mid-split, about to call
  // into servers and hooks that the rest of the shutdown tears down.
  disable_balancer();
  if (listener_id_ != 0) {
    coord_->remove_listener("servers", listener_id_);
    listener_id_ = 0;
  }
  std::thread last;
  {
    MutexLock lock(mutex_);
    stopping_ = true;       // no handler starts from here on
    idle_cv_.notify_all();  // release a handler held for hooks that won't come
    while (!handlers_.empty()) idle_cv_.wait(lock);
    last = std::move(finished_handler_);
  }
  if (last.joinable()) last.join();  // it joined the one before it
}

bool Master::claim_failure(const std::string& server_id, const RegionServer* incarnation) {
  MutexLock lock(mutex_);
  auto it = server_alive_.find(server_id);
  if (it == server_alive_.end() || !it->second) return false;  // unknown or already claimed
  if (incarnation != nullptr && servers_.at(server_id) != incarnation) return false;
  it->second = false;
  ++in_flight_recoveries_;
  return true;
}

void Master::start_handler(const std::string& server_id, bool crashed) {
  // One handler thread per failure: cascading failures must overlap. A
  // second server dying while the first recovery is still replaying would
  // otherwise deadlock the cluster — the first handler can be blocked in a
  // replay gate writing to a region it just placed on the second (now dead)
  // server, and that region is only re-homed by the second failure's
  // handling, which a serial queue would park behind the first.
  MutexLock lock(mutex_);
  if (stopping_) {
    --in_flight_recoveries_;
    idle_cv_.notify_all();
    return;
  }
  handlers_.emplace_front();
  const auto self = handlers_.begin();
  // The handler takes mutex_ before it touches `self`, so it sees this
  // assignment complete.
  *self = std::thread([this, self, server_id, crashed] {
    handle_server_down(server_id, crashed);
    std::thread previous;
    {
      MutexLock done(mutex_);
      --in_flight_recoveries_;
      // A thread cannot join itself: park this one for the next handler to
      // finish (or stop()) to join, and join the one parked before it.
      previous = std::exchange(finished_handler_, std::move(*self));
      handlers_.erase(self);
    }
    idle_cv_.notify_all();
    if (previous.joinable()) previous.join();
  });
}

void Master::report_server_down(const std::string& server_id, bool crashed) {
  if (claim_failure(server_id)) start_handler(server_id, crashed);
}

void Master::on_session_event(const SessionInfo& info, bool expired) {
  if (!claim_failure(info.name)) return;
  if (expired) global_counter("master.takeovers_on_expiry").add();
  TFR_LOG(INFO, "master") << "server " << info.name << (expired ? " FAILED" : " left cleanly");
  start_handler(info.name, expired);
}

void Master::suspect_server(const std::string& server_id) {
  RegionServer* stub = nullptr;
  {
    MutexLock lock(mutex_);
    auto it = server_alive_.find(server_id);
    if (it == server_alive_.end() || !it->second) return;  // unknown or already handled
    stub = servers_.at(server_id);
  }
  global_counter("master.crash_probes").add();
  if (!stub->probe(kMasterNodeId).is_server_down()) return;
  // The session expiry may have claimed the failure while the probe was
  // out, or the id may have re-registered as a fresh incarnation: only the
  // probed incarnation's failure is claimed, and only once.
  if (!claim_failure(server_id, stub)) return;
  global_counter("master.takeovers_on_proof").add();
  // The probe answers ServerDown only after crash() has run, and crashed()
  // is sticky, so this counter must stay 0: a proof takeover of a server
  // that is still running would break the lease argument (DESIGN §6a).
  if (!stub->crashed()) global_counter("master.proof_takeovers_of_live_servers").add();
  TFR_LOG(INFO, "master") << "server " << server_id << " FAILED (crash proven by probe)";
  start_handler(server_id, true);
}

void Master::wait_for_idle() const {
  MutexLock lock(mutex_);
  while (in_flight_recoveries_ != 0) idle_cv_.wait(lock);
}

void Master::handle_server_down(const std::string& server_id, bool crashed) {
  std::string wal_path;
  const std::vector<RegionLocation> affected = fence_regions(server_id, crashed, &wal_path);
  // From here recovery is a pipeline (DESIGN §8.4): this thread splits the
  // WAL while the workers place each region and start its open, so a target
  // loads the region's store files while the split reads the WAL. The open
  // then waits for its region's edits, applies and syncs them, and only
  // then fires the gate: split edits before the gate, the gate before
  // online, as in §3.2. Workers claim regions off a shared cursor so one
  // slow open does not serialize the rest.
  const Micros recovery_start = now_micros();
  std::promise<Result<SplitEdits>> split_promise;
  const WalSplit split = split_promise.get_future().share();
  const std::size_t salt_base = std::hash<std::string>{}(server_id);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> all_recovered{true};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < std::min(kRecoveryWorkers, affected.size()); ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = cursor++; i < affected.size(); i = cursor++) {
        if (!recover_region(server_id, affected[i], salt_base + i, split)) all_recovered = false;
      }
    });
  }
  Result<SplitEdits> edits = split_wal(server_id, wal_path);
  const bool split_ok = edits.is_ok();
  global_gauge("master.last_split_us").set(now_micros() - recovery_start);
  split_promise.set_value(std::move(edits));
  for (auto& t : workers) t.join();
  // The region phase runs from the workers' start to the last region
  // online, so it spans the split that overlaps it (DESIGN §6).
  global_gauge("master.last_replay_us").set(now_micros() - recovery_start);
  if (split_ok && all_recovered) purge_wal(server_id, wal_path);
}

std::vector<RegionLocation> Master::fence_regions(const std::string& server_id, bool crashed,
                                                  std::string* wal_path) {
  std::vector<RegionLocation> affected;
  HookCall hooks;
  {
    MutexLock lock(mutex_);
    // A crash landing in the recovery middleware's restart window — hooks
    // detached, the fresh instance not yet installed — must not proceed
    // hook-less: no pending-region entry or durable /tfr/recovering marker
    // would ever be written, so the gate would find nothing pending and the
    // regions would come online without transactional replay. Hold the
    // recovery until the new hooks arrive (or the master shuts down).
    if (crashed && hooks_ever_set_) {
      while (hooks_ == nullptr && !stopping_) idle_cv_.wait(lock);
    }
    for (auto& [name, loc] : assignment_) {
      if (loc.server_id == server_id) {
        // Fence before anything else: from here on, the new epoch is in
        // force and any write the dead (or zombie) owner still manages to
        // push is rejected at the WAL / store-file boundary. The hook below
        // reads the already-bumped epoch via region_epoch().
        bump_epoch_locked(name);
        affected.push_back(loc);
      }
    }
    hooks = pin_hooks_locked();
    *wal_path = server_wal_paths_[server_id];
  }

  // A crashed server may still be running (zombie behind a partition): close
  // its WAL files at the DFS and reject its future appends/syncs, so edits
  // it acks after this point can never become durable (HDFS lease recovery).
  if (crashed && !wal_path->empty()) dfs_->fence_prefix(*wal_path);

  // Notify the recovery middleware *before* regions start coming back
  // (it snapshots TP(s) for the replay bound).
  std::vector<std::string> region_names;
  for (const auto& loc : affected) region_names.push_back(loc.region_name);
  if (hooks && crashed) hooks->on_server_failure(server_id, region_names);
  return affected;
}

Result<Master::SplitEdits> Master::split_wal(const std::string& server_id,
                                             const std::string& wal_path) {
  // The HBase log split groups the failed server's durable WAL records by
  // region (§2.1). Wal::split fans out over block-aligned reads of every
  // live segment, and the server's rolls leave it only the segments holding
  // un-flushed edits. Clean shutdowns flushed their memstores, so their
  // edits are redundant — replaying them anyway is idempotent and exercises
  // the same path. The split is all-or-nothing: a block read that exhausts
  // its retries fails the whole split, and this loop retries it from
  // scratch — opening regions from a partial edit map would silently drop
  // *durable* edits.
  if (wal_path.empty()) return SplitEdits{};
  Backoff backoff(millis(1), millis(64));
  for (;;) {
    auto split = Wal::split(*dfs_, wal_path);
    if (split.is_ok()) {
      global_counter("master.wal_splits").add();
      return split;
    }
    if (split.status().is_not_found()) return SplitEdits{};  // server never wrote a WAL
    if (backoff.attempts() >= 20) {
      // Exhausted: proceeding with an empty edit map would silently drop
      // the durable edits this loop exists to protect. Fail the recovery
      // visibly instead — every open waiting on the split fails, and its
      // worker hands the region back to the dead server (clients keep
      // retrying, the RM keeps it pending and TP pinned); the counter
      // lets tests and operators catch it.
      global_counter("master.wal_split_failures").add();
      TFR_LOG(ERROR, "master") << "WAL split failed for " << server_id << ": "
                               << split.status() << "; giving up after " << backoff.attempts()
                               << " attempts; regions left unassigned, operator "
                                  "intervention required";
      return split.status();
    }
    TFR_LOG(WARN, "master") << "WAL split failed for " << server_id << ": " << split.status()
                            << "; retrying";
    backoff.sleep();
  }
}

bool Master::recover_region(const std::string& server_id, const RegionLocation& loc,
                            std::size_t salt, WalSplit split) {
  // The open's edit source, and the other two waits on the split: this
  // region's share of its result (DESIGN §8.4, "Opening while the WAL
  // splits").
  const RegionServer::RecoveredEdits edits = [split, &loc]() -> Result<std::vector<WalRecord>> {
    TFR_BLOCKING_POINT("master.await_wal_split");
    const Result<SplitEdits>& result = split.get();
    if (!result.is_ok()) return result.status();
    auto it = result.value().find(loc.region_name);
    return it == result.value().end() ? std::vector<WalRecord>{} : it->second;
  };
  for (;; ++salt) {
    std::string target;
    RegionServer* stub = nullptr;
    bool superseded = false;
    {
      MutexLock lock(mutex_);
      // Cascade check: if a later failure re-fenced the region (its new
      // owner died too before we placed it, or while our gate replay was in
      // flight), that failure's handler owns the reassignment now.
      // Publishing our stale epoch here would fence every write at the
      // owner it picked.
      auto it = assignment_.find(loc.region_name);
      superseded = it == assignment_.end() || it->second.epoch > loc.epoch;
      if (!superseded) target = pick_live_server_locked(salt);
      if (!target.empty()) {
        stub = servers_.at(target);
        // Publish the new location in the same critical section as the
        // epoch check: clients retrying against the dead server re-locate
        // here and keep retrying until the region is online.
        assignment_[loc.region_name] =
            RegionLocation{loc.region_name, loc.descriptor, target, loc.epoch};
      }
    }
    if (superseded) {
      TFR_LOG(INFO, "master") << loc.region_name
                              << " re-fenced by a later failure; leaving it to that recovery";
      reflush_superseded_edits(loc, edits());
      return false;
    }
    if (stub == nullptr) {
      TFR_LOG(ERROR, "master") << "no live server to host " << loc.region_name
                               << "; operator intervention required";
      return false;
    }
    const Status opened = stub->open_region(loc.descriptor, edits, loc.epoch);
    if (opened.is_ok()) {
      TFR_LOG(INFO, "master") << loc.region_name << " reassigned " << server_id << " -> "
                              << target;
      return true;
    }
    if (!edits().is_ok()) {
      // The split gave up, so the region's durable edits are unknown and it
      // must not come online. open_region removed it from the target; hand
      // it back to the dead server, as if no worker had placed it: clients
      // keep retrying, and the RM keeps it pending with TP pinned.
      MutexLock lock(mutex_);
      auto it = assignment_.find(loc.region_name);
      if (it != assignment_.end() && it->second.epoch == loc.epoch) it->second = loc;
      return false;
    }
    TFR_LOG(WARN, "master") << "open_region " << loc.region_name << " on " << target
                            << " failed: " << opened << "; retrying elsewhere";
    // The uncooperative target is suspect. The probe decides: a crashed
    // target is taken over now (its own regions need recovery too — the
    // cascade), a live or cleanly-stopping one is left alone (e.g. an
    // already-open race) and this loop simply moves on.
    suspect_server(target);
    sleep_millis(1);
  }
}

void Master::reflush_superseded_edits(const RegionLocation& loc,
                                      const Result<std::vector<WalRecord>>& records) {
  // The later handler owns the region's *reassignment* — but not our edits.
  // The TM-log floor only covers write-sets above the inherited TPr; records
  // the TM already GC'd exist solely in the dead server's WAL, i.e. in the
  // edits we split out of it. The superseding handler splits only ITS dead
  // server's WAL, and if our earlier open died before syncing (the cascade:
  // the new owner crashed mid-open, dropping the replayed records as
  // un-synced bytes), those WALs never got them. Re-flush them through the
  // data path as idempotent recovery replays against whoever ends up owning
  // the rows: each ack lands the record in a live owner's WAL and memstore,
  // closing the gap. Each record becomes one write-set, routed by row
  // against the *current* assignment: the region may have been re-split,
  // merged or moved since the record was written. The dead server's
  // segments are kept either way (no purge): they stay the recovery source
  // of record until an operator confirms the handoff.
  if (!records.is_ok()) {
    TFR_LOG(ERROR, "master") << loc.region_name
                             << ": superseded, and its split-WAL edits are unknown ("
                             << records.status() << ")";
    return;
  }
  if (records.value().empty()) return;
  std::vector<WriteSet> redo;
  redo.reserve(records.value().size());
  for (const WalRecord& rec : records.value()) {
    WriteSet ws{rec.txn_id, rec.client_id, rec.commit_ts, loc.descriptor.table, {}};
    for (const Cell& c : rec.cells) {
      ws.mutations.push_back(Mutation{c.row, c.column, c.value, c.tombstone});
    }
    redo.push_back(std::move(ws));
  }
  KvClient router(*this, kSupersededReplayBackoff);
  const Status replayed = router.flush_writesets(
      redo, nullptr, std::nullopt, /*recovery_replay=*/true, kSupersededReplayRetries);
  if (replayed.is_ok()) {
    global_counter("master.superseded_edit_replays").add(static_cast<std::int64_t>(redo.size()));
    TFR_LOG(INFO, "master") << loc.region_name << ": re-flushed " << redo.size()
                            << " split-WAL edits to the superseding owner";
  } else {
    TFR_LOG(ERROR, "master") << loc.region_name << ": could not re-flush " << redo.size()
                             << " split-WAL edits after supersession (" << replayed
                             << "); WAL segments kept, operator intervention required";
  }
}

void Master::purge_wal(const std::string& server_id, const std::string& wal_path) {
  // The old WAL is dead once every affected region is open elsewhere: the
  // split replayed its durable records into the new owners' memstores and
  // WALs, and the fence stops the old incarnation from writing more. Purge
  // it so a dead server's WAL does not pin DFS space forever — the
  // recycling counterpart of truncate_obsolete for servers that never come
  // back. The caller skips this if any region could not be placed or the
  // split failed: the next operator action may need the segments.
  if (wal_path.empty()) return;
  const std::size_t purged = dfs_->purge_prefix(wal_path + ".");
  if (purged > 0) {
    global_counter("master.wal_purged_segments").add(static_cast<std::int64_t>(purged));
    TFR_LOG(INFO, "master") << "purged " << purged << " WAL segments of " << server_id;
  }
}

}  // namespace tfr
