#include "src/recovery/recovery_client.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <tuple>

namespace tfr {

namespace {

std::int64_t count_mutations(const std::vector<WriteSet>& writesets) {
  std::int64_t n = 0;
  for (const auto& ws : writesets) n += static_cast<std::int64_t>(ws.mutations.size());
  return n;
}

}  // namespace

Status RecoveryClient::replay_for_client(const std::vector<WriteSet>& writesets) {
  TFR_RETURN_IF_ERROR(kv_.flush_writesets(writesets, nullptr, std::nullopt,
                                          /*recovery_replay=*/true));
  MutexLock lock(mutex_);
  stats_.client_writesets_replayed += static_cast<std::int64_t>(writesets.size());
  stats_.mutations_replayed += count_mutations(writesets);
  return Status::ok();
}

Status RecoveryClient::replay_for_region(const std::vector<WriteSet>& writesets,
                                         const RegionDescriptor& region,
                                         Timestamp failed_server_tp,
                                         const std::vector<WalRecord>& recovered) {
  // The region synced its split edits before the gate, so a write-set
  // whose every in-region update is among their cells would add nothing.
  // That is the usual case: apply_slice logs one record per region per
  // slice. A write-set that reached the region in two slices (a stale
  // route after a merge) and lost the later record is replayed whole
  // (DESIGN §8.3).
  std::set<std::tuple<Timestamp, std::string_view, std::string_view>> held;
  for (const WalRecord& rec : recovered) {
    for (const Cell& c : rec.cells) held.emplace(rec.commit_ts, c.row, c.column);
  }
  auto already_held = [&](const WriteSet& ws) {
    return std::all_of(ws.mutations.begin(), ws.mutations.end(), [&](const Mutation& m) {
      return held.count({ws.commit_ts, m.row, m.column}) != 0;
    });
  };
  // Algorithm 4, replay(): keep only the updates that fall in region r.
  std::vector<WriteSet> filtered;
  std::int64_t skipped = 0;
  std::int64_t deduped = 0;
  for (const auto& ws : writesets) {
    WriteSet in_region;
    in_region.txn_id = ws.txn_id;
    in_region.client_id = ws.client_id;
    in_region.commit_ts = ws.commit_ts;  // original timestamp, never a fresh one
    in_region.table = ws.table;
    for (const auto& m : ws.mutations) {
      if (ws.table == region.table && region.contains(m.row)) {
        in_region.mutations.push_back(m);
      } else {
        ++skipped;
      }
    }
    if (in_region.mutations.empty()) continue;
    if (already_held(in_region)) {
      ++deduped;
      continue;
    }
    filtered.push_back(std::move(in_region));
  }
  {
    MutexLock lock(mutex_);
    stats_.mutations_skipped += skipped;
    stats_.region_writesets_deduped += deduped;
  }
  TFR_RETURN_IF_ERROR(kv_.flush_writesets(filtered, nullptr, failed_server_tp,
                                          /*recovery_replay=*/true));
  MutexLock lock(mutex_);
  stats_.region_writesets_replayed += static_cast<std::int64_t>(filtered.size());
  stats_.mutations_replayed += count_mutations(filtered);
  return Status::ok();
}

RecoveryClientStats RecoveryClient::stats() const {
  RecoveryClientStats out;
  {
    MutexLock lock(mutex_);
    out = stats_;
  }
  out.flush_rpcs = kv_.stats().flush_rpcs;
  return out;
}

}  // namespace tfr
