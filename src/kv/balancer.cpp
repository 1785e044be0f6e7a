// The balancer loop (DESIGN §9.4) and the topology janitor (§9.3).
#include "src/kv/master.h"

#include <algorithm>
#include <set>

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tfr {

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

}  // namespace tfr
