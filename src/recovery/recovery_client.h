// RecoveryClient cR — the recovery manager's local client (§3.1/§3.2). It
// differs from a regular client in three ways:
//
//  1. it replays write-sets using the commit timestamp of the original
//     transaction instead of requesting a fresh one (replay is therefore
//     idempotent — same version, same cells);
//  2. during server recovery it filters each write-set to the updates that
//     fall within the affected region, skipping the rest (Algorithm 4,
//     replay);
//  3. during server recovery it piggybacks the failed server's TP(s) on
//     every replayed write-set so the receiving server inherits
//     responsibility for the replayed updates.
//
// Both recoveries replay their whole candidate list through one batched
// KvClient::flush_writesets call — one BatchApplyRequest frame per target
// server per retry round — so a region's gate replay costs its target one
// inheritance and one WAL sync, not one per write-set.
#pragma once

#include "src/kv/kv_client.h"

namespace tfr {

struct RecoveryClientStats {
  std::int64_t client_writesets_replayed = 0;
  std::int64_t region_writesets_replayed = 0;
  std::int64_t mutations_replayed = 0;
  std::int64_t mutations_skipped = 0;  // outside the recovering region
  std::int64_t flush_rpcs = 0;         // apply frames sent, retries included
};

class RecoveryClient {
 public:
  explicit RecoveryClient(Master& master) : kv_(master) {}

  /// Client recovery: replay the full write-sets with their original
  /// commit timestamps to whatever servers currently host their rows.
  Status replay_for_client(const std::vector<WriteSet>& writesets);

  /// Server recovery: replay only the updates of `writesets` that fall
  /// within `region`, piggybacking the failed server's TP(s). Write-sets
  /// with no update in the region are skipped.
  Status replay_for_region(const std::vector<WriteSet>& writesets,
                           const RegionDescriptor& region, Timestamp failed_server_tp);

  RecoveryClientStats stats() const;

 private:
  KvClient kv_;
  mutable RankedMutex<LockRank::kRecoveryTracker> mutex_{"recovery_client"};
  RecoveryClientStats stats_ TFR_GUARDED_BY(mutex_);
};

}  // namespace tfr
