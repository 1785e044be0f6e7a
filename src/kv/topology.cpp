// Topology transitions (DESIGN §9): split, merge and move, and the one
// parents-to-children transition that splits and merges share (§9.1).
#include "src/kv/master.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tfr {

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

}  // namespace tfr
