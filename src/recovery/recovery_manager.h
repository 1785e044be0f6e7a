// RecoveryManager — the paper's failure-recovery middleware (§3), a service
// associated with the transaction manager that coordinates failure detection
// and recovery across clients and servers (Algorithms 2 and 4).
//
// Normal processing:
//   * clients and servers heartbeat through the coordination service,
//     piggybacking their threshold timestamps TF(c) / TP(s);
//   * the RM polls those payloads, maintains the per-component registries,
//     and derives the global thresholds
//        TF = min_c TF(c)   (all txns <= TF fully flushed)
//        TP = min_s TP(s)   (all txns <= TP flushed AND persisted), TP <= TF
//   * TF and TP are published to the coordination service — TF feeds the
//     servers' persist step (Algorithm 3) and the clients' stable read
//     snapshots; TP is the global checkpoint at which the TM recovery log is
//     truncated.
//
// The RM's replays go through its recovery client cR (§3.1), a KvClient of
// its own. cR differs from a regular client in three ways: it replays a
// write-set under its original commit timestamp, never a fresh one (replay
// is idempotent — same version, same cells); during server recovery it keeps
// only the updates that fall in the recovering region (Algorithm 4, replay;
// filter_for_region); and it piggybacks the failed server's TPr(s) on every
// replayed write-set so the receiving server inherits responsibility for the
// replayed updates. Each replay is one batched flush_writesets call — one
// apply frame per target server per retry round.
//
// Client failure (session expiry): fetch from the TM log every write-set
// committed by that client after its last reported TF(c) and replay it
// through cR. Until the replay completes, TF is floored at TFr(c)
// so no server can claim persistence of a transaction that is still being
// re-flushed.
//
// Server failure (master hook): after the store's internal per-region
// recovery, and while the region is still gated, fetch every write-set
// committed after the failed server's TPr(s), filter it to the region, and
// replay it with TPr(s) piggybacked. TP is floored at TPr(s) until all of
// the server's regions are recovered, so the log cannot be truncated under
// a pending replay.
//
// RM failure: all state lives in heartbeats, the published thresholds, and
// durable recovery markers in the coordination service; recover_state()
// rebuilds the registries and *resumes in-flight recoveries* from those
// markers (§3.3). Transaction processing continues while the RM is down.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/queue.h"
#include "src/common/threading.h"
#include "src/coord/coord.h"
#include "src/kv/kv_client.h"
#include "src/kv/master.h"
#include "src/txn/txn_manager.h"

namespace tfr {

struct RecoveryManagerConfig {
  /// How often the RM ingests heartbeat payloads and refreshes TF/TP.
  Micros poll_interval = millis(100);

  /// Ablation baseline: ignore the TF(c)/TP(s) thresholds during recovery
  /// and replay the whole recovery log (correct — replay is idempotent —
  /// but "extremely inefficient", §3). Also stops the RM truncating the TM
  /// log at TP on every refresh, which it otherwise always does.
  bool ignore_thresholds = false;
};

struct RecoveryManagerStats {
  std::int64_t client_recoveries = 0;
  std::int64_t server_recoveries = 0;
  std::int64_t regions_recovered = 0;
  std::int64_t writesets_replayed_client = 0;
  std::int64_t writesets_replayed_server = 0;
  std::int64_t threshold_refreshes = 0;
  /// Pending replay floors migrated across topology transitions: one count
  /// per child region that min-inherited a parent's floor.
  std::int64_t floor_inheritances = 0;
};

/// What the recovery client cR replayed.
struct RecoveryClientStats {
  std::int64_t client_writesets_replayed = 0;
  std::int64_t region_writesets_replayed = 0;
  std::int64_t mutations_replayed = 0;
  std::int64_t mutations_skipped = 0;  // outside the recovering region
  /// In-region write-sets not replayed because the region had just applied
  /// every one of their in-region updates from the split WAL.
  std::int64_t region_writesets_deduped = 0;
  std::int64_t flush_rpcs = 0;         // apply frames sent, retries included
};

/// The region gate's replay set (Algorithm 4, replay): the updates of
/// `writesets` that fall within `region`, each under its write-set's
/// original commit timestamp. A write-set with no update in the region is
/// dropped, and so is one whose every in-region update is a cell of
/// `recovered`, the split-WAL edits the region applied and synced before
/// its gate (DESIGN §8.3). Adds the dropped updates to
/// `stats.mutations_skipped` and the dropped write-sets to
/// `stats.region_writesets_deduped`.
std::vector<WriteSet> filter_for_region(const std::vector<WriteSet>& writesets,
                                        const RegionDescriptor& region,
                                        const std::vector<WalRecord>& recovered,
                                        RecoveryClientStats& stats);

/// Coordination-service paths where the global thresholds are published.
inline constexpr const char* kTfPath = "/tfr/TF";
inline constexpr const char* kTpPath = "/tfr/TP";

/// Durable recovery markers (coordination-service KV). They make in-flight
/// recoveries survive an RM restart: without them, an RM that dies between
/// "server declared failed" and "last region replayed" would forget the
/// pending replays, regions would come online without their un-persisted
/// write-sets, and committed transactions would be lost.
///   <region prefix>/<region>  = TPr(s) of the failure being recovered
///   <client prefix>/<client>  = TFr(c) of the failed client
///   <registry prefix>/<client> = last TF(c) of each registered client, so a
///     client that dies while no RM is listening is still detected.
inline constexpr const char* kRecoveringRegionPrefix = "/tfr/recovering/region/";
/// <epoch prefix>/<region> = ownership epoch fenced by the failure handling:
/// the gate only accepts a replay once the master's current grant is at
/// least this epoch, so a stale owner cannot consume the replay obligation.
inline constexpr const char* kRecoveringEpochPrefix = "/tfr/recovering/epoch/";
inline constexpr const char* kRecoveringClientPrefix = "/tfr/recovering/client/";
inline constexpr const char* kClientRegistryPrefix = "/tfr/registry/client/";

class RecoveryManager : public MasterHooks {
 public:
  RecoveryManager(Coord& coord, TxnManager& tm, Master& master,
                  RecoveryManagerConfig config = {});
  ~RecoveryManager() override;

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  /// Subscribe to session events, install the master hooks, start polling.
  void start();
  void stop();

  /// Rebuild registries after an RM restart (§3.3): adopt the published
  /// thresholds and the currently-live sessions, reload the pending-region
  /// floors, and re-enqueue interrupted or missed client recoveries from the
  /// durable markers (replay is idempotent, so resuming from the original
  /// floor is safe). Call before start().
  void recover_state();

  // --- MasterHooks (server failure path, §3.2) ------------------------------

  void on_server_failure(const std::string& server_id,
                         const std::vector<std::string>& regions) override;

  /// Topology transitions (§9). The lowest pending replay floor among the
  /// parents migrates to every child (TP-inheritance extended to splits and
  /// merges: each child's TPr is min-merged with it); only after the
  /// children durably hold the floor are the parents' entries erased
  /// (floors-before-erase). A merge normally has nothing to migrate — the
  /// master refuses merges of recovering regions via is_region_recovering —
  /// but a failure can land between that check and the commit.
  void on_regions_replaced(const std::vector<std::string>& parents,
                           const std::vector<std::string>& children,
                           std::uint64_t new_epoch) override;
  bool is_region_recovering(const std::string& region) override;

  /// Region gate, called by a region server after internal recovery and
  /// before the region goes online. Blocks for the transactional replay.
  /// `recovered` are the split-WAL edits the region applied and synced
  /// before the gate; a write-set they fully hold is not replayed again
  /// (DESIGN §8.3).
  void on_region_recovered(const std::string& region_name, const std::string& server_id,
                           const std::vector<WalRecord>& recovered);

  // --- thresholds ------------------------------------------------------------

  Timestamp global_tf() const;
  Timestamp global_tp() const;

  /// The lowest threshold floor held by any in-flight recovery: min over
  /// pending-region TPr(s) floors and client TFr(c) floors, kMaxTimestamp
  /// when none is pending. Every recovery still fetches from the TM log
  /// above this bound, so the log's segment GC must never delete a record
  /// at or below it — the invariant the cascading-failure soak monitors.
  Timestamp min_recovery_floor() const;

  /// Force one poll/refresh now (tests use this instead of sleeping).
  void refresh_now() { poll_tick(); }

  RecoveryManagerStats stats() const;
  const RecoveryClientStats recovery_client_stats() const;

  /// Block until no client/server recovery is in flight.
  void wait_for_idle() const;

 private:
  void poll_tick();
  void on_client_session(const SessionInfo& info, bool expired);
  void on_server_session(const SessionInfo& info, bool expired);
  void recover_client(const std::string& client_id, Timestamp tfr);
  /// Pull every live session's latest payload into registries C and S.
  void ingest_sessions_locked() TFR_REQUIRES(mutex_);
  /// Ingest, then recompute and publish TF/TP and checkpoint the TM log.
  void publish_locked() TFR_REQUIRES(mutex_);
  Timestamp compute_tf_locked() const TFR_REQUIRES(mutex_);
  Timestamp compute_tp_locked() const TFR_REQUIRES(mutex_);

  Coord* coord_;
  TxnManager* tm_;
  Master* master_;
  RecoveryManagerConfig config_;
  KvClient recovery_client_;  // cR

  mutable RankedMutex<LockRank::kRecoveryManager> mutex_{"recovery_manager"};
  mutable CondVar idle_cv_;
  /// Registries C and S (Algorithms 2/4). Every update runs under mutex_,
  /// atomically with the recovery floors and the publish step (DESIGN §7a).
  std::map<std::string, Timestamp> client_tf_ TFR_GUARDED_BY(mutex_);  // C: client -> TF(c)
  std::map<std::string, Timestamp> server_tp_ TFR_GUARDED_BY(mutex_);  // S: server -> TP(s)
  /// Published thresholds: written under mutex_, readable lock-free (the
  /// hot global_tf()/global_tp() queries never touch the RM mutex).
  std::atomic<Timestamp> published_tf_{kNoTimestamp};
  std::atomic<Timestamp> published_tp_{kNoTimestamp};

  /// Floors held during in-flight client recoveries (see header comment).
  std::map<std::string, Timestamp> client_recovery_floor_
      TFR_GUARDED_BY(mutex_);  // client -> TFr(c)

  /// Regions still awaiting transactional replay. Each entry floors the
  /// global TP at its TPr(s) until the replay completes, and is mirrored
  /// durably under kRecoveringRegionPrefix so an RM restart resumes it.
  struct PendingRegion {
    Timestamp tpr = kNoTimestamp;
    /// Epoch the master fenced the region at when handling the failure
    /// (0 = unknown, e.g. markers written before fencing existed).
    std::uint64_t fenced_epoch = 0;
  };
  std::map<std::string, PendingRegion> pending_regions_ TFR_GUARDED_BY(mutex_);

  /// Tombstones for servers whose failure was already handled but whose
  /// coordination session has not expired yet (the master takes a crashed
  /// server over on proof, before its TTL). Without them, the ingest of
  /// the stale still-live session — or the eventual expiry event itself —
  /// would resurrect the erased server_tp_ entry and pin the global TP at
  /// the dead server's last payload forever. The expiry event consumes the
  /// tombstone, so a restarted server under the same name starts clean.
  std::set<std::string> failed_servers_ TFR_GUARDED_BY(mutex_);

  RecoveryManagerStats stats_ TFR_GUARDED_BY(mutex_);
  RecoveryClientStats replay_stats_ TFR_GUARDED_BY(mutex_);  // flush_rpcs is cR's own
  PeriodicTask poller_;
  bool started_ = false;
  int client_listener_id_ = 0;
  int server_listener_id_ = 0;

  /// Client recoveries run here, off the coordination service's expiry
  /// thread: a replay can block on an offline region, and the expiry thread
  /// must stay free to detect the server failure that caused it.
  BlockingQueue<std::function<void()>> work_;
  std::thread worker_;
};

}  // namespace tfr
