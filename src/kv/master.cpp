#include "src/kv/master.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <set>
#include <thread>

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

Master::Master(Dfs& dfs, Coord& coord) : dfs_(&dfs), coord_(&coord) {}

Master::~Master() { stop(); }

void Master::start() {
  listener_id_ = coord_->add_listener("servers", [this](const SessionInfo& info, bool expired) {
    on_session_event(info, expired);
  });
  worker_ = std::thread([this] { recovery_worker(); });
}

void Master::stop() {
  // The balancer first: a tick in flight may be mid-split, about to call
  // into servers and hooks that the rest of the shutdown tears down.
  disable_balancer();
  if (listener_id_ != 0) {
    coord_->remove_listener("servers", listener_id_);
    listener_id_ = 0;
  }
  {
    MutexLock lock(mutex_);
    stopping_ = true;  // release a recovery held for hooks that won't come
  }
  idle_cv_.notify_all();
  failures_.close();
  if (worker_.joinable()) worker_.join();
}

void Master::add_server(RegionServer* server) {
  MutexLock lock(mutex_);
  servers_[server->id()] = server;
  server_alive_[server->id()] = true;
  server_wal_paths_[server->id()] = server->wal_path();
}

std::uint64_t Master::bump_epoch_locked(const std::string& region_name) {
  auto it = assignment_.find(region_name);
  if (it == assignment_.end()) return 0;
  const std::uint64_t epoch = ++it->second.epoch;
  // Arm the storage-side fencing check, then record the grant durably so a
  // restarted master (or the recovery manager) can learn the fenced epoch.
  if (epochs_ != nullptr) epochs_->advance_to(region_name, epoch);
  coord_->put(kEpochPrefix + region_name, static_cast<std::int64_t>(epoch));
  return epoch;
}

std::uint64_t Master::region_epoch(const std::string& region_name) const {
  MutexLock lock(mutex_);
  auto it = assignment_.find(region_name);
  return it == assignment_.end() ? 0 : it->second.epoch;
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

void Master::report_server_down(const std::string& server_id, bool crashed) {
  if (claim_failure(server_id)) failures_.push({server_id, crashed});
}

void Master::set_hooks(MasterHooks* hooks) {
  MutexLock lock(mutex_);
  // Quiesce: every HookCall snapshots hooks_ before calling into it, so
  // wait out any in-flight invocation before letting the caller retire the
  // old hooks object.
  while (hook_calls_in_flight_ != 0) idle_cv_.wait(lock);
  hooks_ = hooks;
  if (hooks != nullptr) hooks_ever_set_ = true;
  lock.unlock();
  // Wake a recovery held in handle_server_down for the hooks to come back.
  idle_cv_.notify_all();
}

std::string Master::pick_live_server_locked(std::size_t salt) const {
  std::vector<std::string> live;
  for (const auto& [id, alive] : server_alive_) {
    if (alive) live.push_back(id);
  }
  if (live.empty()) return {};
  return live[salt % live.size()];
}

Status Master::create_table(const std::string& table, const std::vector<std::string>& split_keys) {
  std::vector<std::string> keys = split_keys;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::vector<RegionDescriptor> descs;
  std::string start;
  for (const auto& k : keys) {
    descs.push_back(RegionDescriptor{table, start, k});
    start = k;
  }
  descs.push_back(RegionDescriptor{table, start, ""});

  std::vector<std::pair<RegionDescriptor, RegionServer*>> plan;
  {
    MutexLock lock(mutex_);
    for (const auto& d : descs) {
      if (assignment_.count(d.name())) {
        return Status::already_exists("table exists: " + table);
      }
    }
    std::size_t i = 0;
    for (const auto& d : descs) {
      const std::string target = pick_live_server_locked(i++);
      if (target.empty()) return Status::unavailable("no live region servers");
      plan.emplace_back(d, servers_.at(target));
      assignment_[d.name()] = RegionLocation{d.name(), d, target};
    }
  }
  for (auto& [desc, server] : plan) {
    TFR_RETURN_IF_ERROR(server->open_region(desc, {}, /*epoch=*/1));
  }
  TFR_LOG(INFO, "master") << "table " << table << " created with " << descs.size() << " regions";
  return Status::ok();
}

Result<RegionLocation> Master::locate(const std::string& table, const std::string& row) const {
  MutexLock lock(mutex_);
  for (const auto& [name, loc] : assignment_) {
    if (loc.descriptor.table == table && loc.descriptor.contains(row)) return loc;
  }
  return Status::not_found("no region for " + table + "/" + row);
}

std::vector<RegionLocation> Master::table_regions(const std::string& table) const {
  MutexLock lock(mutex_);
  std::vector<RegionLocation> out;
  for (const auto& [name, loc] : assignment_) {
    if (loc.descriptor.table == table) out.push_back(loc);
  }
  return out;
}

Result<RegionLocation> Master::region_by_name(const std::string& region_name) const {
  MutexLock lock(mutex_);
  auto it = assignment_.find(region_name);
  if (it == assignment_.end()) return Status::not_found("unknown region: " + region_name);
  return it->second;
}

RegionServer* Master::server_stub(const std::string& server_id) const {
  MutexLock lock(mutex_);
  auto it = servers_.find(server_id);
  return it == servers_.end() ? nullptr : it->second;
}

std::vector<std::string> Master::live_servers() const {
  MutexLock lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [id, alive] : server_alive_) {
    if (alive) out.push_back(id);
  }
  return out;
}

Master::HookCall Master::pin_hooks_locked() {
  HookCall call;
  if (hooks_ != nullptr) {
    call.master_ = this;
    call.hooks_ = hooks_;
    ++hook_calls_in_flight_;
  }
  return call;
}

void Master::HookCall::release() {
  if (master_ == nullptr) return;
  {
    MutexLock lock(master_->mutex_);
    --master_->hook_calls_in_flight_;
  }
  master_->idle_cv_.notify_all();
  master_ = nullptr;
  hooks_ = nullptr;
}

Status Master::split_region(const std::string& region_name) {
  RegionLocation loc;
  RegionServer* stub = nullptr;
  {
    MutexLock lock(mutex_);
    auto it = assignment_.find(region_name);
    if (it == assignment_.end()) return Status::not_found("unknown region: " + region_name);
    loc = it->second;
    auto sit = servers_.find(loc.server_id);
    if (sit == servers_.end()) return Status::unavailable("no stub for " + loc.server_id);
    if (!server_alive_[loc.server_id]) {
      return Status::unavailable("host down for split: " + loc.server_id);
    }
    stub = sit->second;
  }
  return replace_regions({loc}, stub);
}

Status Master::merge_regions(const std::string& left_region, const std::string& right_region) {
  RegionLocation lloc;
  RegionLocation rloc;
  HookCall hooks;
  {
    MutexLock lock(mutex_);
    auto lit = assignment_.find(left_region);
    auto rit = assignment_.find(right_region);
    if (lit == assignment_.end() || rit == assignment_.end()) {
      return Status::not_found("unknown region: " +
                               (lit == assignment_.end() ? left_region : right_region));
    }
    lloc = lit->second;
    rloc = rit->second;
    const RegionDescriptor& ld = lloc.descriptor;
    const RegionDescriptor& rd = rloc.descriptor;
    if (ld.table != rd.table || ld.end_key.empty() || ld.end_key != rd.start_key) {
      return Status::invalid_argument("regions not adjacent: " + left_region + " + " +
                                      right_region);
    }
    hooks = pin_hooks_locked();
  }
  // A recovering region's pending replay floor pins the TM-log GC until its
  // gate runs; merging it away would hand that obligation to a region whose
  // own gate may already have passed. Refuse — the merge can retry once
  // recovery drains. (A failure can still land between this check and the
  // commit; on_regions_replaced min-inherits floors regardless.)
  if (hooks &&
      (hooks->is_region_recovering(left_region) || hooks->is_region_recovering(right_region))) {
    return Status::unavailable("refusing to merge while a region is recovering: " +
                               left_region + " + " + right_region);
  }
  hooks.release();
  // Co-locate both parents on the left region's host.
  if (rloc.server_id != lloc.server_id) {
    TFR_RETURN_IF_ERROR(move_region(right_region, lloc.server_id));
  }
  RegionServer* stub = nullptr;
  {
    MutexLock lock(mutex_);
    auto lit = assignment_.find(left_region);
    auto rit = assignment_.find(right_region);
    if (lit == assignment_.end() || rit == assignment_.end()) {
      return Status::unavailable("region vanished before merge: " + left_region + " + " +
                                 right_region);
    }
    lloc = lit->second;
    rloc = rit->second;
    if (lloc.server_id != rloc.server_id) {
      return Status::unavailable("parents not co-located for merge");
    }
    auto sit = servers_.find(lloc.server_id);
    if (sit == servers_.end() || !server_alive_[lloc.server_id]) {
      return Status::unavailable("host down for merge: " + lloc.server_id);
    }
    stub = sit->second;
  }
  return replace_regions({lloc, rloc}, stub);
}

Status Master::replace_regions(const std::vector<RegionLocation>& parents, RegionServer* host) {
  std::vector<std::string> parent_names;
  for (const auto& p : parents) parent_names.push_back(p.region_name);
  // Server-side half: fence + flush the parents, derive the children, write
  // their store-file reference markers. No parent dir is ever modified, so
  // every abort path below leaves the parents reopenable as-is.
  auto made = host->replace_regions(parent_names);
  if (!made.is_ok()) return made.status();
  const std::vector<RegionDescriptor>& children = made.value();
  std::vector<std::string> child_names;
  for (const auto& c : children) child_names.push_back(c.name());
  const std::string& server_id = parents.front().server_id;

  std::uint64_t new_epoch = 0;
  HookCall hooks;
  {
    MutexLock lock(mutex_);
    for (const auto& p : parents) {
      auto it = assignment_.find(p.region_name);
      if (it == assignment_.end() || it->second.epoch != p.epoch) {
        // A failure recovery re-fenced a parent while the server-side half
        // ran (the host was declared dead — it may be a zombie behind a
        // partition). That recovery owns the parents now and reopens them
        // from their untouched dirs under its higher epoch; abandon the
        // transition.
        lock.unlock();
        remove_stray_markers(*dfs_, children);
        return Status::unavailable("transition of " + parent_names.front() +
                                   " superseded by failure recovery");
      }
      new_epoch = std::max(new_epoch, p.epoch + 1);
    }
    // Commit: one epoch for the whole transition. The children are fenced
    // forward, and each RETIRED parent name is bumped too so any straggling
    // store-file finalize from a resumed parent compaction is rejected. The
    // children's markers are already written, so the janitor never sees a
    // retired record whose markers are missing.
    for (const auto& name : parent_names) assignment_.erase(name);
    for (const auto& child : children) {
      assignment_[child.name()] = RegionLocation{child.name(), child, server_id, new_epoch};
    }
    for (const auto* names : {&child_names, &parent_names}) {
      for (const std::string& r : *names) {
        if (epochs_ != nullptr) epochs_->advance_to(r, new_epoch);
        coord_->put(kEpochPrefix + r, static_cast<std::int64_t>(new_epoch));
      }
    }
    for (const auto& name : parent_names) {
      coord_->put(kRetiredRegionPrefix + name, static_cast<std::int64_t>(new_epoch));
    }
    hooks = pin_hooks_locked();
  }
  global_counter(parents.size() == 1 ? "master.region_splits" : "master.region_merges").add();
  // Floors before gates: the recovery middleware migrates any pending
  // replay floor from the parents to the children before any child can run
  // its gate.
  if (hooks) hooks->on_regions_replaced(parent_names, child_names, new_epoch);
  hooks.release();
  for (const RegionDescriptor& child : children) {
    Status opened = host->open_region(child, {}, new_epoch);
    if (!opened.is_ok()) {
      // The children stay assigned (epochs and floors intact); if the host
      // is dying, its failure recovery re-homes them like any other region.
      TFR_LOG(WARN, "master") << child.name() << " failed to open on " << server_id << ": "
                              << opened << "; failure recovery will re-home it";
      return opened;
    }
  }
  TFR_LOG(INFO, "master") << parent_names.front()
                          << (parents.size() == 2 ? " + " + parent_names.back() : "")
                          << " replaced by " << child_names.front()
                          << (children.size() == 2 ? " + " + child_names.back() : "")
                          << " (epoch " << new_epoch << ")";
  return Status::ok();
}

Status Master::move_region(const std::string& region_name, const std::string& target_server) {
  RegionLocation loc;
  RegionServer* source = nullptr;
  RegionServer* target = nullptr;
  {
    MutexLock lock(mutex_);
    auto it = assignment_.find(region_name);
    if (it == assignment_.end()) return Status::not_found("unknown region: " + region_name);
    loc = it->second;
    if (loc.server_id == target_server) return Status::ok();
    auto sit = servers_.find(loc.server_id);
    auto tit = servers_.find(target_server);
    if (sit == servers_.end() || tit == servers_.end() || !server_alive_.at(target_server)) {
      return Status::unavailable("source or target unavailable for move");
    }
    source = sit->second;
    target = tit->second;
  }
  // Flush + close at the source, then publish the new location so client
  // retries land on the target while it opens the region from store files.
  TFR_RETURN_IF_ERROR(source->offload_region(region_name));
  std::uint64_t new_epoch;
  {
    MutexLock lock(mutex_);
    // New owner, new epoch: any straggling write from the source (flushed
    // and closed above, but belt-and-braces) is fenced out.
    new_epoch = bump_epoch_locked(region_name);
    assignment_[region_name] =
        RegionLocation{region_name, loc.descriptor, target_server, new_epoch};
  }
  Status opened = target->open_region(loc.descriptor, {}, new_epoch);
  if (!opened.is_ok()) {
    // Roll back the routing; the region is homeless until an operator or a
    // failure-recovery pass fixes it, so surface the error loudly.
    TFR_LOG(ERROR, "master") << "move of " << region_name << " to " << target_server
                             << " failed: " << opened;
    return opened;
  }
  global_counter("master.region_moves").add();
  TFR_LOG(INFO, "master") << region_name << " moved " << loc.server_id << " -> "
                          << target_server;
  return Status::ok();
}

void Master::enable_balancer(const BalancerConfig& config) {
  disable_balancer();
  {
    MutexLock lock(balancer_mutex_);
    balancer_config_ = config;
    balancer_last_traffic_.clear();
    balancer_last_server_load_.clear();
  }
  if (config.interval > 0) {
    balancer_task_ = std::make_unique<PeriodicTask>([this] { balance_once(); }, config.interval);
    balancer_task_->start();
  }
}

void Master::disable_balancer() {
  if (balancer_task_ != nullptr) {
    balancer_task_->stop();
    balancer_task_.reset();
  }
}

int Master::balance_once() {
  // One tick is one serialized topology transaction batch: the tick lock is
  // held across split/merge/move RPCs including gated daughter opens (rank
  // kBalancer sits above the harness/RM ranks those gates take).
  MutexLock tick(balancer_mutex_);
  const BalancerConfig cfg = balancer_config_;
  const int max_actions = std::max(1, cfg.max_actions_per_tick);
  int actions = 0;

  std::map<std::string, RegionServer*> stubs;  // live servers only
  std::map<std::string, RegionLocation> assigned;
  {
    MutexLock lock(mutex_);
    for (const auto& [id, alive] : server_alive_) {
      if (alive) stubs[id] = servers_.at(id);
    }
    assigned = assignment_;
  }

  // Per-region samples: size from the stub, per-tick traffic by differencing
  // this tick's cumulative counters against the last tick's. A region whose
  // cumulative count went DOWN restarted its counters on a new host (move/
  // split) — its whole count is this incarnation's traffic.
  struct Sample {
    RegionLocation loc;
    std::uint64_t bytes = 0;
    std::uint64_t delta = 0;
    bool has_references = false;
    bool online = false;
  };
  std::vector<Sample> samples;
  std::map<std::string, std::uint64_t> traffic_now;
  for (const auto& [id, stub] : stubs) {
    for (const auto& rl : stub->region_loads()) {
      auto ait = assigned.find(rl.region);
      if (ait == assigned.end() || ait->second.server_id != id) continue;  // mid-transition
      const std::uint64_t total = rl.reads + rl.writes;
      auto lit = balancer_last_traffic_.find(rl.region);
      const std::uint64_t delta =
          (lit != balancer_last_traffic_.end() && total >= lit->second) ? total - lit->second
                                                                        : total;
      traffic_now[rl.region] = total;
      samples.push_back({ait->second, rl.store_bytes, delta, rl.has_references, rl.online});
    }
  }
  // Per-server hotness from the heartbeat-piggybacked coord load reports,
  // differenced the same way.
  std::map<std::string, std::uint64_t> server_delta;
  std::map<std::string, std::int64_t> server_load_now;
  for (const auto& [id, stub] : stubs) {
    const std::int64_t reported = coord_->get(kServerLoadPrefix + id).value_or(0);
    auto lit = balancer_last_server_load_.find(id);
    const std::int64_t last = lit == balancer_last_server_load_.end() ? 0 : lit->second;
    server_delta[id] = static_cast<std::uint64_t>(reported >= last ? reported - last : reported);
    server_load_now[id] = reported;
  }
  balancer_last_traffic_ = std::move(traffic_now);  // also prunes vanished regions
  balancer_last_server_load_ = std::move(server_load_now);

  // --- splits: oversized regions ------------------------------------------
  for (const auto& s : samples) {
    if (actions >= max_actions) break;
    if (!s.online || cfg.split_store_bytes == 0 || s.bytes <= cfg.split_store_bytes) continue;
    // A region still reading through reference markers counts each
    // referenced parent file whole. Localize it this tick instead; the next
    // tick sees its own size and splits it only if that is still over.
    // InvalidArgument (fewer than two rows) and Unavailable (mid-transition,
    // racing a failure or a flush) are normal here; the next tick retries.
    const Status acted = s.has_references
                             ? stubs.at(s.loc.server_id)->compact_region(s.loc.region_name)
                             : split_region(s.loc.region_name);
    if (acted.is_ok()) ++actions;
  }

  // --- merges: adjacent cold pairs ----------------------------------------
  if (cfg.merge_traffic_ops != 0 && cfg.merge_store_bytes != 0) {
    std::map<std::string, std::map<std::string, const Sample*>> by_table;  // start_key order
    for (const auto& s : samples) {
      by_table[s.loc.descriptor.table][s.loc.descriptor.start_key] = &s;
    }
    for (auto& [table, regions] : by_table) {
      const Sample* prev = nullptr;
      for (auto& [start, cur] : regions) {
        if (actions >= max_actions) break;
        if (prev != nullptr && prev->online && cur->online &&
            !prev->loc.descriptor.end_key.empty() &&
            prev->loc.descriptor.end_key == cur->loc.descriptor.start_key &&
            prev->delta < cfg.merge_traffic_ops && cur->delta < cfg.merge_traffic_ops &&
            prev->bytes + cur->bytes <= cfg.merge_store_bytes) {
          if (merge_regions(prev->loc.region_name, cur->loc.region_name).is_ok()) {
            ++actions;
            prev = nullptr;  // the pair is consumed; don't chain into cur
            continue;
          }
        }
        prev = cur;
      }
    }
  }

  // --- moves ---------------------------------------------------------------
  std::map<std::string, std::vector<const Sample*>> per_server;
  for (const auto& [id, stub] : stubs) per_server[id];
  for (const auto& s : samples) per_server[s.loc.server_id].push_back(&s);
  auto coldest_region_of = [](const std::vector<const Sample*>& regions) -> const Sample* {
    const Sample* coldest = nullptr;
    for (const Sample* s : regions) {
      if (!s->online) continue;
      if (coldest == nullptr || s->delta < coldest->delta) coldest = s;
    }
    return coldest;
  };
  if (actions < max_actions && per_server.size() >= 2) {
    // Region-count evenness (the scale-out balancer), one move per tick.
    auto most = per_server.begin();
    auto least = per_server.begin();
    for (auto it = per_server.begin(); it != per_server.end(); ++it) {
      if (it->second.size() > most->second.size()) most = it;
      if (it->second.size() < least->second.size()) least = it;
    }
    if (most->second.size() > least->second.size() + 1) {
      if (const Sample* victim = coldest_region_of(most->second)) {
        if (move_region(victim->loc.region_name, least->first).is_ok()) ++actions;
      }
    }
  }
  if (cfg.move_load_ratio > 0 && actions < max_actions && per_server.size() >= 2) {
    // Traffic imbalance: shed the coldest region of the hottest server onto
    // the coldest server. Moving the coldest (not the hottest) region keeps
    // the move cheap and convergent — a hot region is the SPLIT trigger's
    // job, not the mover's.
    std::string hot, cold;
    for (const auto& [id, d] : server_delta) {
      if (hot.empty() || d > server_delta[hot]) hot = id;
      if (cold.empty() || d < server_delta[cold]) cold = id;
    }
    if (!hot.empty() && hot != cold && server_delta[hot] >= cfg.move_min_ops &&
        static_cast<double>(server_delta[hot]) >
            cfg.move_load_ratio * static_cast<double>(std::max<std::uint64_t>(
                                      server_delta[cold], 1)) &&
        per_server[hot].size() >= 2) {
      if (const Sample* victim = coldest_region_of(per_server[hot])) {
        if (move_region(victim->loc.region_name, cold).is_ok()) ++actions;
      }
    }
  }

  janitor_sweep();
  return actions;
}

void Master::janitor_sweep() {
  // Reclaim retired parent dirs. Records are listed BEFORE markers: a
  // transition writes its children's markers before its records, so any
  // record visible here already has its markers visible — or they were
  // consumed by child compactions, at which point the parent's files are
  // genuinely dead. A marker inside a retired region's own dir is not live:
  // that region never opens again, so it cannot pin what it points into.
  std::map<std::string, std::string> retired;  // data dir -> record key
  for (const auto& [key, value] : coord_->list(kRetiredRegionPrefix)) {
    retired[region_data_dir(key.substr(std::string(kRetiredRegionPrefix).size()))] = key;
  }
  if (retired.empty()) return;

  std::set<std::string> referenced;  // data dirs some live marker points into
  for (const auto& path : dfs_->list("/data/")) {
    const auto slash = path.rfind('/');
    if (slash == std::string::npos || path.compare(slash + 1, 4, "ref-") != 0) continue;
    if (retired.count(path.substr(0, slash + 1)) != 0) continue;
    auto target = dfs_->read_all(path);
    if (!target.is_ok()) return;  // flaky DFS: stay conservative, retry next tick
    const auto rslash = target.value().rfind('/');
    if (rslash != std::string::npos) referenced.insert(target.value().substr(0, rslash + 1));
  }
  {
    MutexLock lock(mutex_);
    for (const auto& [name, loc] : assignment_) referenced.insert(region_data_dir(name));
  }
  for (const auto& [dir, key] : retired) {
    if (referenced.count(dir) != 0) continue;  // assigned, or a live marker points in
    const std::size_t purged = dfs_->purge_prefix(dir);
    coord_->erase(key);
    if (purged > 0) {
      global_counter("master.janitor_purged_files").add(static_cast<std::int64_t>(purged));
      TFR_LOG(INFO, "master") << "janitor reclaimed " << purged << " files behind " << key;
    }
  }
}

void Master::on_session_event(const SessionInfo& info, bool expired) {
  if (!claim_failure(info.name)) return;
  if (expired) global_counter("master.takeovers_on_expiry").add();
  TFR_LOG(INFO, "master") << "server " << info.name << (expired ? " FAILED" : " left cleanly");
  failures_.push({info.name, expired});
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
  failures_.push({server_id, true});
}

void Master::recovery_worker() {
  // One handler thread per failure: cascading failures must overlap. A
  // second server dying while the first recovery is still replaying would
  // otherwise deadlock the cluster — the first handler can be blocked in a
  // replay gate writing to a region it just placed on the second (now dead)
  // server, and that region is only re-homed by the second failure's
  // handling, which a serial queue would park behind the first.
  std::vector<std::thread> handlers;
  while (auto item = failures_.pop()) {
    handlers.emplace_back([this, failed = *item] {
      handle_server_down(failed.first, failed.second);
      {
        MutexLock lock(mutex_);
        --in_flight_recoveries_;
      }
      idle_cv_.notify_all();
    });
  }
  for (auto& t : handlers) t.join();
}

void Master::wait_for_idle() const {
  MutexLock lock(mutex_);
  while (in_flight_recoveries_ != 0) idle_cv_.wait(lock);
}

void Master::handle_server_down(const std::string& server_id, bool crashed) {
  // Snapshot the affected regions and the hook.
  std::vector<RegionLocation> affected;
  HookCall hooks;
  std::string wal_path;
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
    wal_path = server_wal_paths_[server_id];
  }

  // A crashed server may still be running (zombie behind a partition): close
  // its WAL files at the DFS and reject its future appends/syncs, so edits
  // it acks after this point can never become durable (HDFS lease recovery).
  if (crashed && !wal_path.empty()) dfs_->fence_prefix(wal_path);

  std::vector<std::string> region_names;
  for (const auto& loc : affected) region_names.push_back(loc.region_name);

  // Notify the recovery middleware *before* regions start coming back
  // (it snapshots TP(s) for the replay bound).
  if (hooks && crashed) hooks->on_server_failure(server_id, region_names);
  hooks.release();

  // From here recovery is a pipeline (DESIGN §8.4). This thread runs the
  // HBase log split — it groups the failed server's durable WAL records by
  // region (§2.1) — while the recovery workers below already place each
  // region and open it, so a target loads the region's store files while
  // the split reads the WAL. The open then waits for its region's edits,
  // applies and syncs them, and only then fires the gate: split edits
  // before the gate, the gate before online, as in §3.2.
  //
  // Wal::split's worker pool fans out over block-aligned reads of every
  // live segment, so the split costs about the WAL's blocks divided by the
  // workers, and the server's rolls leave it only the segments holding
  // un-flushed edits. Clean shutdowns flushed their memstores, so their
  // edits are redundant — replaying them anyway is idempotent and exercises
  // the same path. The split is all-or-nothing: a block read that exhausts
  // its retries fails the whole split, and the loop below retries it from
  // scratch — opening regions from a partial edit map would silently drop
  // *durable* edits.
  const Micros recovery_start = now_micros();
  std::promise<Status> split_promise;
  const std::shared_future<Status> split_done = split_promise.get_future().share();
  // Written by this thread before split_done becomes ready; read-only after.
  std::map<std::string, std::vector<WalRecord>> edits;
  auto await_split = [&split_done]() -> Status {
    TFR_BLOCKING_POINT("master.await_wal_split");
    const std::shared_future<Status> mine = split_done;  // one copy per waiting thread
    return mine.get();
  };

  // Reassign and recover the affected regions concurrently (Algorithm 4).
  // Region recoveries are independent: each open_region replays its own WAL
  // edits and fires its own replay gate, and the recovery middleware's
  // per-region state tolerates concurrent gates. Workers claim regions off
  // a shared cursor so one slow open does not serialize the rest.
  const std::size_t salt_base = std::hash<std::string>{}(server_id);
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> salt_counter{0};
  std::atomic<bool> all_recovered{true};
  auto recover_regions = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= affected.size()) return;
      const RegionLocation& loc = affected[i];
      const RegionServer::RecoveredEdits region_edits =
          [&]() -> Result<std::vector<WalRecord>> {
        TFR_RETURN_IF_ERROR(await_split());
        auto it = edits.find(loc.region_name);
        return it == edits.end() ? std::vector<WalRecord>{} : it->second;
      };
      for (;;) {
        std::string target;
        RegionServer* stub = nullptr;
        bool superseded = false;
        const std::size_t salt =
            salt_base + salt_counter.fetch_add(1, std::memory_order_relaxed);
        {
          MutexLock lock(mutex_);
          // Cascade check: if a later failure re-fenced the region (its new
          // owner died too before we placed it, or while our gate replay was
          // in flight), that failure's handler owns the reassignment now.
          // Publishing our stale epoch here would fence every write at the
          // owner it picked.
          auto ait = assignment_.find(loc.region_name);
          if (ait == assignment_.end() || ait->second.epoch > loc.epoch) {
            superseded = true;
          } else {
            target = pick_live_server_locked(salt);
            if (!target.empty()) {
              stub = servers_.at(target);
              // Publish the new location in the same critical section as the
              // epoch check: clients retrying against the dead server
              // re-locate here and keep retrying until the region is online.
              assignment_[loc.region_name] =
                  RegionLocation{loc.region_name, loc.descriptor, target, loc.epoch};
            }
          }
        }
        if (superseded) {
          TFR_LOG(INFO, "master") << loc.region_name
                                  << " re-fenced by a later failure; leaving it to "
                                     "that recovery";
          // The later handler owns the *reassignment* — but not our edits.
          // The TM-log floor only covers write-sets above the inherited
          // TPr; records the TM already GC'd exist solely in the dead
          // server's WAL, i.e. in the `edits` we split out of it. The
          // superseding handler splits only ITS dead server's WAL, and if
          // our earlier open died before syncing (the cascade: the new
          // owner crashed mid-open, dropping the replayed records as
          // un-synced bytes), those WALs never got them. Re-flush them
          // through the data path as idempotent recovery replays against
          // whoever ends up owning the rows: each ack lands the record in
          // a live owner's WAL and memstore, closing the gap. Each record
          // becomes one write-set, routed by row against the *current*
          // assignment: the region may have been re-split, merged or moved
          // since the record was written.
          auto region_records = region_edits();
          if (!region_records.is_ok()) {
            TFR_LOG(ERROR, "master") << loc.region_name
                                     << ": superseded, and its split-WAL edits are unknown ("
                                     << region_records.status() << ")";
          } else if (!region_records.value().empty()) {
            const std::vector<WalRecord>& records = region_records.value();
            std::vector<WriteSet> redo;
            redo.reserve(records.size());
            for (const WalRecord& rec : records) {
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
              global_counter("master.superseded_edit_replays")
                  .add(static_cast<std::int64_t>(records.size()));
              TFR_LOG(INFO, "master")
                  << loc.region_name << ": re-flushed " << records.size()
                  << " split-WAL edits to the superseding owner";
            } else {
              TFR_LOG(ERROR, "master")
                  << loc.region_name << ": could not re-flush " << records.size()
                  << " split-WAL edits after supersession (" << replayed
                  << "); WAL segments kept, operator intervention required";
            }
          }
          // Keep the dead server's segments either way (skip the purge
          // below): they stay the recovery source of record until an
          // operator confirms the handoff.
          all_recovered.store(false, std::memory_order_relaxed);
          break;
        }
        if (!stub) {
          TFR_LOG(ERROR, "master") << "no live server to host " << loc.region_name
                                   << "; operator intervention required";
          all_recovered.store(false, std::memory_order_relaxed);
          break;
        }
        Status s = stub->open_region(loc.descriptor, region_edits, loc.epoch);
        if (s.is_ok()) {
          TFR_LOG(INFO, "master") << loc.region_name << " reassigned " << server_id << " -> "
                                  << target;
          break;
        }
        if (!await_split().is_ok()) {
          // The split gave up, so the region's durable edits are unknown and
          // it must not come online. open_region removed it from the target;
          // hand it back to the dead server, as if no worker had placed it:
          // clients keep retrying, and the RM keeps it pending with TP pinned.
          MutexLock lock(mutex_);
          auto ait = assignment_.find(loc.region_name);
          if (ait != assignment_.end() && ait->second.epoch == loc.epoch) ait->second = loc;
          all_recovered.store(false, std::memory_order_relaxed);
          break;
        }
        TFR_LOG(WARN, "master") << "open_region " << loc.region_name << " on " << target
                                << " failed: " << s << "; retrying elsewhere";
        // The uncooperative target is suspect. The probe decides: a crashed
        // target is taken over now (its own regions need recovery too — the
        // cascade), a live or cleanly-stopping one is left alone (e.g. an
        // already-open race) and this loop simply moves on.
        suspect_server(target);
        sleep_millis(1);
      }
    }
  };
  const std::size_t workers = std::min<std::size_t>(kRecoveryWorkers, affected.size());
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(recover_regions);

  Status split_status = Status::ok();
  if (!wal_path.empty()) {
    Backoff backoff(millis(1), millis(64));
    for (;;) {
      auto split = Wal::split(*dfs_, wal_path);
      if (split.is_ok()) {
        edits = std::move(split).value();
        global_counter("master.wal_splits").add();
        break;
      }
      if (split.status().is_not_found()) break;  // server never wrote a WAL
      if (backoff.attempts() >= 20) {
        // Exhausted: proceeding with an empty edit map would silently drop
        // the durable edits this loop exists to protect. Fail the recovery
        // visibly instead — every open waiting on the split fails, and its
        // worker hands the region back to the dead server (clients keep
        // retrying, the RM keeps it pending and TP pinned); the counter
        // lets tests and operators catch it.
        global_counter("master.wal_split_failures").add();
        TFR_LOG(ERROR, "master") << "WAL split failed for " << server_id << ": "
                                 << split.status() << "; giving up after "
                                 << backoff.attempts()
                                 << " attempts; regions left unassigned, operator "
                                    "intervention required";
        split_status = split.status();
        break;
      }
      TFR_LOG(WARN, "master") << "WAL split failed for " << server_id << ": "
                              << split.status() << "; retrying";
      backoff.sleep();
    }
  }
  global_gauge("master.last_split_us").set(now_micros() - recovery_start);
  split_promise.set_value(split_status);
  for (auto& t : pool) t.join();
  // The region phase runs from the workers' start to the last region
  // online, so it now spans the split that overlaps it (DESIGN §6).
  global_gauge("master.last_replay_us").set(now_micros() - recovery_start);

  // The old WAL is dead once every affected region is open elsewhere: the
  // split replayed its durable records into the new owners' memstores and
  // WALs, and the fence stops the old incarnation from writing more. Purge
  // it so a dead server's WAL does not pin DFS space forever — the
  // recycling counterpart of truncate_obsolete for servers that never come
  // back. Skipped if any region could not be placed or the split failed:
  // the next operator action may need the segments.
  if (!wal_path.empty() && split_status.is_ok() &&
      all_recovered.load(std::memory_order_relaxed)) {
    const std::size_t purged = dfs_->purge_prefix(wal_path + ".");
    if (purged > 0) {
      global_counter("master.wal_purged_segments").add(static_cast<std::int64_t>(purged));
      TFR_LOG(INFO, "master") << "purged " << purged << " WAL segments of " << server_id;
    }
  }
}

}  // namespace tfr
