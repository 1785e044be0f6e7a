// RegionServer — hosts a set of regions, a single write-ahead log shared by
// all of them (§2.1), and a block cache. This is the component the paper
// modifies minimally: we expose three extension points that the recovery
// middleware (src/recovery) plugs into, keeping the store itself unaware of
// transactions:
//
//   * set_writeset_observer  — invoked once per received apply frame with its
//     write-sets' commit timestamps and the recovery client's piggybacked
//     TP(s), feeding Algorithm 3's persist queue and the TP-inheritance rule;
//   * set_pre_heartbeat_hook — invoked just before each heartbeat to the
//     coordination service; the recovery layer persists received write-sets
//     (WAL sync) and returns the TP(s) payload to piggyback (Algorithm 3);
//   * set_region_gate        — invoked after a region's internal (WAL-split)
//     recovery completes and *before* it is declared online, with the split
//     edits just applied, so the recovery manager can replay the
//     un-persisted write-sets the split did not recover (§3.2).
//
// Concurrency/latency model: every public RPC charges the configured network
// latency in the caller's thread, then occupies one of `handler_slots`
// handlers for its service time (plus any DFS reads it triggers), modelling
// a real server's RPC handler pool.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/latency.h"
#include "src/common/annotations.h"
#include "src/common/threading.h"
#include "src/coord/coord.h"
#include "src/dfs/dfs.h"
#include "src/kv/block_cache.h"
#include "src/kv/region.h"
#include "src/kv/wal.h"

namespace tfr {

class FaultInjector;

/// Coord KV prefix under which each server publishes its cumulative served
/// operation count (the balancer's piggybacked load report, refreshed on
/// every successful heartbeat): /tfr/load/<server_id> -> total ops.
inline constexpr const char* kServerLoadPrefix = "/tfr/load/";

struct RegionServerConfig {
  int handler_slots = 16;

  /// Synchronous persistence (the Figure 2(a) baseline): every write-set is
  /// WAL-synced to the DFS before the RPC returns. When false (the paper's
  /// mode), the WAL is synced asynchronously every `wal_sync_interval`.
  bool sync_wal_on_write = false;
  Micros wal_sync_interval = millis(50);

  /// Roll the WAL once the open segment exceeds this (or once every record
  /// in it is flushed); closed segments whose edits have all been flushed
  /// to store files are reclaimed.
  std::uint64_t wal_segment_bytes = 8ull << 20;

  std::size_t memstore_flush_bytes = 64ull << 20;
  std::size_t block_cache_bytes = 256ull << 20;
  std::size_t store_block_bytes = 16 * 1024;  // store-file block granularity

  /// Compact a region once it accumulates this many store files (0 = never).
  std::size_t compaction_file_threshold = 8;

  Micros heartbeat_interval = seconds(1);
  Micros session_ttl = seconds(3);  // missed-heartbeat window before declared dead

  Micros rpc_latency = 0;  // per-RPC network charge (caller side)
  Micros rpc_jitter = 0;

  /// Network bandwidth in megabits/second; RPCs additionally charge the
  /// transfer time of their marshalled bytes (0 = infinitely fast link).
  /// The paper's testbed ran on 100 Mbps Ethernet.
  double network_mbps = 0;
  Micros read_service = 0;   // CPU service time per read op
  Micros write_service = 0;  // CPU service time per write-set receipt
};

/// The slice of one transaction's write-set destined for one server, plus
/// the recovery-replay extras of §3.2.
struct ApplyRequest {
  std::uint64_t txn_id = 0;
  std::string client_id;
  Timestamp commit_ts = kNoTimestamp;
  std::string table;
  std::vector<Mutation> mutations;

  /// Set by the recovery client during *server* recovery: the failed
  /// server's TP(s), which the receiving server must inherit.
  std::optional<Timestamp> piggyback_tp;

  /// True when sent by the recovery client; admits the write into a gated
  /// (recovering) region.
  bool recovery_replay = false;
};

/// Write-set slices from one sender to one server, shipped as a single RPC
/// (cf. HBase's multi-put) — every apply travels in one, even a lone slice. All
/// slices share the sender, so network faults and partitions are evaluated
/// once for the whole frame, while each slice keeps its own per-slice
/// outcome (a region move can make one slice retryable without failing the
/// rest).
struct BatchApplyRequest {
  std::vector<ApplyRequest> slices;
};

class RegionServer {
 public:
  RegionServer(std::string id, Dfs& dfs, Coord& coord, RegionServerConfig config);
  ~RegionServer();

  RegionServer(const RegionServer&) = delete;
  RegionServer& operator=(const RegionServer&) = delete;

  const std::string& id() const { return id_; }
  const RegionServerConfig& config() const { return config_; }
  std::string wal_path() const { return "/wal/" + id_ + ".log"; }

  /// Create the WAL, register the coordination session, start the async WAL
  /// syncer and heartbeats.
  Status start();

  /// Clean shutdown (Algorithm 3 lines 5-7): flush regions, sync the WAL,
  /// send a pre-shutdown heartbeat, unregister.
  Status shutdown();

  /// Crash failure: the memstores and the un-synced WAL tail are lost,
  /// heartbeats cease, and every RPC answers ServerDown — the proof a client
  /// reports to the master (Master::suspect_server), which takes over without
  /// waiting out the session TTL. The self-fence ends here too.
  void crash();

  bool alive() const { return alive_.load(std::memory_order_acquire); }
  /// Sticky: set once crash() has finished, never by shutdown() (which also
  /// clears alive() before it flushes).
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  // --- RPC surface ---------------------------------------------------------

  /// Receive write-set slices in one RPC (Algorithm 3 "On receive") — the
  /// only apply RPC: one network round-trip and one handler slot for the
  /// whole frame; each slice is WAL-appended (possibly syncing, per mode)
  /// and applied to the memstores of its regions, and the write-set
  /// observer is notified once for the frame (see WritesetObserver).
  /// Returns one Status per slice (same order); a transport-level error
  /// (partition, injected loss, frame corruption, dropped ack) fails the
  /// whole batch as Unavailable and the client re-sends — reapplication is
  /// idempotent.
  TFR_BLOCKING Result<std::vector<Status>> apply_batch(const BatchApplyRequest& batch);

  /// `caller` (when non-empty) is the requesting node's id, matched against
  /// partition rules (see common/fault.h).
  TFR_BLOCKING Result<std::optional<Cell>> get(const std::string& table, const std::string& row,
                                  const std::string& column, Timestamp read_ts,
                                  const std::string& caller = {});

  TFR_BLOCKING Result<std::vector<Cell>> scan(const std::string& table, const std::string& start,
                                 const std::string& end, Timestamp read_ts, std::size_t limit,
                                 const std::string& caller = {});

  /// The master's crash check, one modeled hop like any RPC: ServerDown iff
  /// this server has crashed, Unavailable if `caller` is partitioned from it
  /// (silence proves nothing), Ok otherwise — a server in clean shutdown
  /// included.
  TFR_BLOCKING Status probe(const std::string& caller);

  /// Where an opening region gets its split-WAL edits: empty for none,
  /// otherwise called once the store files are loaded. It may block until
  /// the master's WAL split has produced them (the split runs while the
  /// region loads), and an error from it fails the open.
  using RecoveredEdits = std::function<Result<std::vector<WalRecord>>()>;

  /// Open a region on this server: attach store files, replay split-WAL
  /// edits (internal recovery), run the region gate, declare online.
  /// `epoch` is the ownership epoch the master granted for this assignment
  /// (0 = unfenced); it is stamped on every WAL append and store-file
  /// finalization the region performs here. A failed open leaves no trace
  /// of the region on this server.
  Status open_region(const RegionDescriptor& desc, const RecoveredEdits& recovered_edits,
                     std::uint64_t epoch = 0);

  /// Sync the WAL to the DFS — the "persist" step of Algorithm 3.
  TFR_BLOCKING Status persist_wal();

  /// Roll the WAL if the open segment is over the size threshold or holds
  /// only flushed records, then reclaim segments made obsolete by memstore
  /// flushes. Runs periodically and after each memstore flush; exposed for
  /// tests.
  void maybe_roll_wal();

  /// The server-local half of a topology transition (§9): one parent splits
  /// at a key chosen from its store-file metadata, or two ADJACENT parents
  /// hosted here (first.end_key == second.start_key) merge into their span.
  /// Fences every parent (applies reject, the flushes drain every acked
  /// write), writes each child's `ref-N` markers to the parents' store files
  /// (no data is rewritten) and retires the parent objects. Returns the
  /// children's descriptors; the MASTER commits the transition — epoch
  /// bump, assignment swap, retired-region records, floor-inheritance hook
  /// — and then opens the children (so the region gate runs under the new
  /// epoch). On error every parent resumes serving untouched. During the
  /// cutover the covered key range is Unavailable; clients re-locate and
  /// retry.
  Result<std::vector<RegionDescriptor>> replace_regions(
      const std::vector<std::string>& parent_names);

  /// Flush a region's memstore and close it here so another server can open
  /// it from its store files (region move / load balancing).
  Status offload_region(const std::string& region_name);

  /// Merge a region's store files (see Region::compact).
  Status compact_region(const std::string& region_name,
                        Timestamp prune_before_ts = kNoTimestamp);

  // --- recovery extension points -------------------------------------------

  /// Called once per apply frame (one apply_batch RPC),
  /// after every slice of it is WAL-appended and before any is acked, with
  /// the commit timestamps of the accepted slices and the lowest TP(s)
  /// piggybacked on them. Not called for a frame with no accepted slice.
  using WritesetObserver = std::function<void(const std::vector<Timestamp>& commit_ts,
                                              std::optional<Timestamp> piggyback_tp)>;
  using PreHeartbeatHook = std::function<Timestamp()>;
  /// `recovered`: the split-WAL edits the region applied and synced before
  /// its gate (empty when it had none).
  using RegionGate = std::function<void(const std::string& region_name,
                                        const std::string& server_id,
                                        const std::vector<WalRecord>& recovered)>;

  void set_writeset_observer(WritesetObserver observer);
  void set_pre_heartbeat_hook(PreHeartbeatHook hook);
  void set_region_gate(RegionGate gate);

  // --- introspection --------------------------------------------------------

  std::shared_ptr<Region> region(const std::string& name) const;
  std::vector<std::string> region_names() const;
  Wal& wal() { return *wal_; }
  BlockCache& block_cache() { return cache_; }

  /// One balancer-visible load sample per hosted region.
  struct RegionLoad {
    std::string region;
    std::uint64_t reads = 0;   ///< cumulative gets+scans on this host
    std::uint64_t writes = 0;  ///< cumulative applied write batches
    std::uint64_t store_bytes = 0;
    /// Still reading through split/merge reference markers: store_bytes
    /// then counts each referenced parent file whole, not this region's
    /// part of it.
    bool has_references = false;
    bool online = false;
  };
  std::vector<RegionLoad> region_loads() const;

  /// Install a fault injector (see common/fault.h): apply_batch / get /
  /// scan then consult it per RPC, matched against this server's id —
  /// transient request loss, dropped acks, wire bit-flips and added latency.
  /// Pass nullptr to detach. Not synchronized with in-flight RPCs: install
  /// before traffic starts, as the Cluster does.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }

  /// Attach the cluster's epoch registry (nullptr to detach): the WAL and
  /// every region opened here then enforce the fencing-token check. Install
  /// before start(), as the Cluster does.
  void set_epoch_registry(const EpochRegistry* epochs) { epochs_ = epochs; }

  /// Force one heartbeat now (tests use this instead of waiting).
  void heartbeat_now() { heartbeat_tick(); }

  /// Force one background WAL-sync tick now (tests use this instead of
  /// waiting out wal_sync_interval).
  void wal_sync_now() { wal_sync_tick(); }

  /// Change the heartbeat interval at runtime (the Figure 2(b) sweep). The
  /// failure-detection window scales with it (TTL = 3 intervals). Fails if
  /// the coord session is already expired or closed: silently continuing
  /// would leave the server heartbeating at the new cadence against a dead
  /// session, i.e. a zombie with a mis-sized failure-detection window.
  Status set_heartbeat_interval(Micros interval) {
    TFR_RETURN_IF_ERROR(coord_->update_ttl("servers", id_, interval * 3));
    session_ttl_.store(interval * 3, std::memory_order_release);
    heartbeats_.set_interval(interval);
    heartbeat_now();
    return Status::ok();
  }

 private:
  /// The post-transport core of apply_batch: apply every slice, then notify
  /// the write-set observer once for the whole frame. Caller has decoded the
  /// frame, checked liveness, and holds a handler slot. Returns one Status
  /// per slice; every slice gets down_status() if the server died under the
  /// frame.
  std::vector<Status> apply_frame(const std::vector<ApplyRequest>& slices);
  /// One slice: admit it, group its mutations by region, charge the write
  /// service once, then run one write step per region.
  Status apply_slice(const ApplyRequest& req);
  /// The one write step into a region, for client slices and split-WAL
  /// edits alike: stamp `records` with the region's name and epoch, append
  /// them to the WAL as one batch and apply their cells to the memstore in
  /// one Region::apply (one region-lock hold), take the region offline if
  /// its epoch is fenced, then flush the memstore past its size threshold,
  /// compact past the file threshold and roll/reclaim the WAL.
  Status write_region(Region& region, std::vector<WalRecord> records);
  /// open_region's work once `region` is registered here: load its store
  /// files, apply and sync its split-WAL edits, run the gate, go online.
  Status open_registered(Region& region, const RecoveredEdits& recovered_edits);
  void heartbeat_tick();
  /// crash() on the terminator thread, once: the heartbeat and WAL-sync
  /// threads that decide to stop serving cannot crash() themselves, since
  /// crash() joins them.
  void terminate_self();
  /// What an RPC to a server that is not alive answers: ServerDown once it
  /// has crashed, a plain Unavailable while it shuts down (or is mid-crash).
  Status down_status() const;
  /// Publish the per-server load report + per-region traffic gauges.
  void report_load();
  /// Stop serving because the coord lease could not be renewed within the
  /// TTL: by the time the master hands our regions to a new owner, we have
  /// already quiesced (self-fence-precedes-takeover; see DESIGN.md).
  void self_fence();
  void wal_sync_tick();
  std::uint64_t wal_truncation_bound() const;
  std::shared_ptr<Region> region_for(const std::string& table, const std::string& row) const;

  std::string id_;
  Dfs* dfs_;
  Coord* coord_;
  RegionServerConfig config_;
  FaultInjector* fault_ = nullptr;
  const EpochRegistry* epochs_ = nullptr;

  std::atomic<bool> alive_{false};
  std::atomic<bool> crashed_{false};
  /// Timestamp taken just BEFORE the last successful lease renewal was sent,
  /// so our expiry estimate is conservative with respect to the coordination
  /// service's (which measures from receipt).
  std::atomic<Micros> lease_renewed_at_{0};
  /// Tracks the coord session TTL (set_heartbeat_interval re-scales it).
  std::atomic<Micros> session_ttl_{0};
  std::unique_ptr<Wal> wal_;
  BlockCache cache_;
  Semaphore handlers_;
  LatencyModel rpc_model_;
  LatencyModel read_service_;
  LatencyModel write_service_;

  mutable RankedSharedMutex<LockRank::kRegionServer> regions_mutex_{"region_server.regions"};
  std::map<std::string, std::shared_ptr<Region>> regions_ TFR_GUARDED_BY(regions_mutex_);

  RankedMutex<LockRank::kServerHooks> hooks_mutex_{"region_server.hooks"};
  WritesetObserver writeset_observer_ TFR_GUARDED_BY(hooks_mutex_);
  PreHeartbeatHook pre_heartbeat_hook_ TFR_GUARDED_BY(hooks_mutex_);
  RegionGate region_gate_ TFR_GUARDED_BY(hooks_mutex_);

  PeriodicTask wal_syncer_;
  PeriodicTask heartbeats_;

  RankedMutex<LockRank::kClientLifecycle> terminator_mutex_{"region_server.terminator"};
  std::thread self_terminator_ TFR_GUARDED_BY(terminator_mutex_);  // runs crash() when declared dead
};

}  // namespace tfr
