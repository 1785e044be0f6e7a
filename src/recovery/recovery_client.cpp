#include "src/recovery/recovery_client.h"

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
                                         Timestamp failed_server_tp) {
  // Algorithm 4, replay(): keep only the updates that fall in region r.
  std::vector<WriteSet> filtered;
  std::int64_t skipped = 0;
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
    if (!in_region.mutations.empty()) filtered.push_back(std::move(in_region));
  }
  {
    MutexLock lock(mutex_);
    stats_.mutations_skipped += skipped;
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
