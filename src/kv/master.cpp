#include "src/kv/master.h"

#include <algorithm>

#include "src/common/logging.h"

namespace tfr {

Master::Master(Dfs& dfs, Coord& coord) : dfs_(&dfs), coord_(&coord) {}

Master::~Master() { stop(); }

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

void Master::set_hooks(MasterHooks* hooks) {
  MutexLock lock(mutex_);
  // Quiesce: every HookCall snapshots hooks_ before calling into it, so
  // wait out any in-flight invocation before letting the caller retire the
  // old hooks object.
  while (hook_calls_in_flight_ != 0) idle_cv_.wait(lock);
  hooks_ = hooks;
  if (hooks != nullptr) hooks_ever_set_ = true;
  lock.unlock();
  // Wake a recovery held in fence_regions for the hooks to come back.
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

}  // namespace tfr
