// Master — coordinates region assignment across region servers (§2.1) and
// drives the store's internal recovery when a server dies:
//
//   1. The server is declared dead on one of two triggers. Proof: a
//      client's RPC bounced off it with ServerDown and the master's own
//      probe confirms the crash (suspect_server) — no wait. Silence: the
//      coordination service reports the server's session expiry (HBase uses
//      its own heartbeats; ours flow through minizk as the paper's
//      implementation does) — a timeout, partition or stalled heartbeat
//      thread waits out the TTL. Either way the takeover below is fenced.
//   2. The master notifies the recovery-middleware hook (`on_server_failure`)
//      — the hook the paper added to the HBase master (§3.2).
//   3. It splits the failed server's WAL by region and, at the same time,
//      reassigns each region to a live server, which loads the region's
//      store files while the split runs. The receiving server then waits
//      for that region's recovered edits, replays and syncs them, and runs
//      the region gate (recovery manager replay of what the split did not
//      recover) before declaring the region online.
//
// Regions are recovered independently (Algorithm 4's loop, fanned out over
// a small worker pool), and distinct server failures are handled on their
// own handler threads so a cascade — a second server dying while the first
// recovery is still replaying — cannot park behind the first failure's
// in-flight gate. Recovery does not interrupt processing on the surviving
// servers.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/epoch.h"

#include "src/common/annotations.h"
#include "src/common/queue.h"
#include "src/coord/coord.h"
#include "src/dfs/dfs.h"
#include "src/kv/region_server.h"

namespace tfr {

/// Extension points the recovery middleware installs on the master.
class MasterHooks {
 public:
  virtual ~MasterHooks() = default;

  /// A server was declared dead, before any of its regions are reassigned.
  /// `regions` lists the affected regions R(s).
  virtual void on_server_failure(const std::string& server_id,
                                 const std::vector<std::string>& regions) = 0;

  /// A topology transition replaced `parents` by `children` under
  /// `new_epoch`: one parent split into two, or two adjacent parents merged
  /// into one. Called after the transition is committed (assignment swap +
  /// durable retired-region records) but BEFORE any child opens, so pending
  /// transactional-recovery state can migrate first — floors before gates:
  /// every child must inherit its parents' replay floor (TP-inheritance,
  /// §3.2 extended to topology changes) before its replay gate can fire.
  virtual void on_regions_replaced(const std::vector<std::string>& parents,
                                   const std::vector<std::string>& children,
                                   std::uint64_t new_epoch) {
    (void)parents;
    (void)children;
    (void)new_epoch;
  }

  /// True while `region` has transactional recovery pending (its replay
  /// gate has not finished). The master consults this before a merge:
  /// merging a recovering region would fold a pinned replay floor into a
  /// region whose gate may already have passed.
  virtual bool is_region_recovering(const std::string& region) {
    (void)region;
    return false;
  }
};

struct RegionLocation {
  std::string region_name;
  RegionDescriptor descriptor;
  std::string server_id;
  /// Ownership epoch of the current assignment (the fencing token). Bumped
  /// by the master before every reassignment or recovery replay.
  std::uint64_t epoch = 1;
};

/// The master's node id, matched against partition rules (common/fault.h)
/// when it probes a server.
inline constexpr const char* kMasterNodeId = "master";

/// Coord-KV prefix under which the master durably records region epochs.
inline constexpr const char* kEpochPrefix = "/tfr/epoch/";

/// Durable topology-transition records, one per retired parent region:
///   /tfr/topology/retired/<parent> = the transition's new epoch
/// A split retires one parent, a merge two. The children's reference
/// markers are written before the records, and a record lives until the
/// janitor has reclaimed its parent's dir: the parent is not assigned, and
/// no live marker (one outside every retired region's dir) points into it.
inline constexpr const char* kRetiredRegionPrefix = "/tfr/topology/retired/";

/// Tuning for the master's balancer loop (§9). All triggers are opt-in:
/// a zero threshold disables that trigger, interval == 0 disables the loop.
struct BalancerConfig {
  /// Tick period of the background loop; 0 = no background loop (ticks can
  /// still be driven manually via Master::balance_once).
  Micros interval = 0;
  /// Split a region whose store grows past this many bytes (0 = off).
  std::uint64_t split_store_bytes = 0;
  /// Merge adjacent regions BOTH colder than this many ops per tick (0 =
  /// merges off)...
  std::uint64_t merge_traffic_ops = 0;
  /// ...and whose combined store size stays under this many bytes, so a
  /// merge cannot immediately re-trigger a size split (hysteresis).
  std::uint64_t merge_store_bytes = 0;
  /// Move a region off the hottest server when its per-tick load exceeds
  /// the coldest server's by this factor (0 = traffic moves off).
  double move_load_ratio = 0.0;
  /// Ignore traffic ratios below this absolute per-tick load (noise floor).
  std::uint64_t move_min_ops = 64;
  /// Upper bound on topology transitions per tick (keeps a hot tick from
  /// churning the whole keyspace at once).
  int max_actions_per_tick = 4;
};

class Master {
 public:
  Master(Dfs& dfs, Coord& coord);
  ~Master();

  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  /// Subscribe to server-session events and start the recovery worker.
  void start();
  void stop();

  /// Register a server's in-process stub (our stand-in for its RPC address).
  void add_server(RegionServer* server);

  /// Create a table pre-split at `split_keys` (regions: [,k0), [k0,k1), ...)
  /// and assign its regions round-robin across live servers.
  Status create_table(const std::string& table, const std::vector<std::string>& split_keys);

  /// Where does `row` of `table` live right now?
  Result<RegionLocation> locate(const std::string& table, const std::string& row) const;

  /// All regions of a table with their current assignment.
  std::vector<RegionLocation> table_regions(const std::string& table) const;

  /// Current location of a region by name.
  Result<RegionLocation> region_by_name(const std::string& region_name) const;

  /// The stub for a server id; nullptr when unknown.
  RegionServer* server_stub(const std::string& server_id) const;

  /// Split a region in place: one topology transition from the parent to
  /// two daughters (see replace_regions). If a failure recovery re-fences
  /// the parent while the server-side half runs, the transition aborts and
  /// that recovery keeps ownership (it reopens the parent from its
  /// untouched dir).
  Status split_region(const std::string& region_name);

  /// Merge two adjacent regions of a table (left.end_key == right.start_key)
  /// into one. Refused while either region has transactional recovery
  /// pending (the hook's is_region_recovering). Co-locates `right` onto
  /// `left`'s host first, then runs the same transition as a split.
  Status merge_regions(const std::string& left_region, const std::string& right_region);

  /// Start/stop the balancer loop (§9). enable replaces any previous
  /// config; with interval == 0 it installs the config for manual
  /// balance_once ticks without a background thread. Not thread-safe
  /// against itself — call from the cluster control path only.
  void enable_balancer(const BalancerConfig& config);
  void disable_balancer();

  /// One synchronous balancer tick: split/merge triggers, then at most one
  /// region-count move (a server holding more than one region above the
  /// least-loaded one sheds its coldest region there — this is what spreads
  /// regions after scale-out) and one traffic move, then the topology
  /// janitor (reclaims retired parent dirs no store-file reference marker
  /// points into). Returns the number of splits, merges and moves taken; a
  /// caller that wants a settled layout ticks until this returns 0.
  /// Serialized by the balancer lock; safe to call concurrently with the
  /// background loop.
  int balance_once();

  /// Move a region to `target_server` (flush + close at the source, open
  /// from store files at the target).
  Status move_region(const std::string& region_name, const std::string& target_server);

  std::vector<std::string> live_servers() const;

  /// Attach the cluster's epoch registry: every epoch bump is then mirrored
  /// into it, arming the storage-side fencing checks. Install before
  /// traffic starts, as the Cluster does.
  void set_epoch_registry(EpochRegistry* epochs) { epochs_ = epochs; }

  /// Current ownership epoch of a region (0 if unknown).
  std::uint64_t region_epoch(const std::string& region_name) const;

  /// Deliver a server-failure report, as the coordination listener would.
  /// Exposed so tests can exercise duplicate failure deliveries: each
  /// incarnation's failure is claimed once (claim_failure), so a server
  /// re-reported while (or after) its recovery is in flight does not start
  /// a second WAL split.
  void report_server_down(const std::string& server_id, bool crashed);

  /// `server_id` answered an RPC with ServerDown. Probe it (one RPC hop, with
  /// the master mutex released) and, if the probe proves the crash, take the
  /// server over now: the same failure report a session expiry makes, without
  /// waiting out the TTL. Returns at once if the server is already handled,
  /// so repeat reports coalesce. A probe that finds the server running,
  /// partitioned or shutting down proves nothing; that server is left to its
  /// session.
  void suspect_server(const std::string& server_id);

  /// Install (or clear, with nullptr) the recovery-middleware hooks. Blocks
  /// until no hook invocation is in flight, so after it returns the previous
  /// hooks object can be safely destroyed (the RM restart path swaps it).
  void set_hooks(MasterHooks* hooks);

  /// Block until no failure recovery is in flight (test/bench helper).
  void wait_for_idle() const;

 private:
  void on_session_event(const SessionInfo& info, bool expired);
  /// The one failure entry: flip `server_id`'s alive flag and count its
  /// recovery in flight, so its caller queues the handling. False if the id
  /// is unknown, its failure is already claimed (duplicate deliveries: an
  /// expiry, a probe's proof and an operator report of one incarnation
  /// coalesce here), or — with `incarnation` set — the id has re-registered
  /// as another server object since. add_server re-arms the flag.
  bool claim_failure(const std::string& server_id, const RegionServer* incarnation = nullptr);
  void recovery_worker();
  void handle_server_down(const std::string& server_id, bool crashed);
  /// The one topology transition (§9): the server-side half on `host`
  /// (fence + flush the parents, write the children's reference markers),
  /// then the commit — re-check each parent's epoch snapshot, one epoch
  /// above them all on the children and the retired parents, assignment
  /// swap, retired-region records, floor-inheritance hook — and finally the
  /// child opens (each runs the region gate under the new epoch).
  Status replace_regions(const std::vector<RegionLocation>& parents, RegionServer* host);
  void janitor_sweep() TFR_REQUIRES(balancer_mutex_);

  /// One hook invocation in flight. pin_hooks_locked() snapshots hooks_ and
  /// counts the call under mutex_; release() (or destruction) drops the
  /// count under mutex_ and then wakes set_hooks, which waits for the count
  /// to reach 0 before it lets the caller retire the hooks object.
  class HookCall {
   public:
    HookCall() = default;
    HookCall(HookCall&& other) noexcept
        : master_(std::exchange(other.master_, nullptr)),
          hooks_(std::exchange(other.hooks_, nullptr)) {}
    HookCall& operator=(HookCall&& other) noexcept {
      release();
      std::swap(master_, other.master_);
      std::swap(hooks_, other.hooks_);
      return *this;
    }
    ~HookCall() { release(); }
    void release();
    MasterHooks* operator->() const { return hooks_; }
    explicit operator bool() const { return hooks_ != nullptr; }

   private:
    friend class Master;
    Master* master_ = nullptr;
    MasterHooks* hooks_ = nullptr;
  };
  HookCall pin_hooks_locked() TFR_REQUIRES(mutex_);
  std::string pick_live_server_locked(std::size_t salt) const TFR_REQUIRES(mutex_);
  /// Advance a region's epoch by one: assignment map + registry + durable
  /// coord-KV record. Returns the new epoch.
  std::uint64_t bump_epoch_locked(const std::string& region_name) TFR_REQUIRES(mutex_);

  Dfs* dfs_;
  Coord* coord_;
  EpochRegistry* epochs_ = nullptr;

  mutable RankedMutex<LockRank::kMaster> mutex_{"master"};
  std::map<std::string, RegionServer*> servers_ TFR_GUARDED_BY(mutex_);  // all ever registered
  std::map<std::string, bool> server_alive_ TFR_GUARDED_BY(mutex_);
  std::map<std::string, RegionLocation> assignment_ TFR_GUARDED_BY(mutex_);  // region -> location
  std::map<std::string, std::string> server_wal_paths_ TFR_GUARDED_BY(mutex_);
  MasterHooks* hooks_ TFR_GUARDED_BY(mutex_) = nullptr;
  bool hooks_ever_set_ TFR_GUARDED_BY(mutex_) = false;  // a recovery middleware exists
  bool stopping_ TFR_GUARDED_BY(mutex_) = false;
  int hook_calls_in_flight_ TFR_GUARDED_BY(mutex_) = 0;
  int in_flight_recoveries_ TFR_GUARDED_BY(mutex_) = 0;
  mutable CondVar idle_cv_;

  BlockingQueue<std::pair<std::string, bool>> failures_;   // (server, crashed?)
  std::thread worker_;
  int listener_id_ = 0;

  /// Balancer state. The tick lock serializes whole topology transactions
  /// (it is held across split/merge/move RPCs including gated daughter
  /// opens, hence its high may_block rank); the traffic maps difference
  /// successive cumulative reports into per-tick rates.
  mutable RankedMutex<LockRank::kBalancer> balancer_mutex_{"balancer"};
  BalancerConfig balancer_config_ TFR_GUARDED_BY(balancer_mutex_);
  std::map<std::string, std::uint64_t> balancer_last_traffic_ TFR_GUARDED_BY(balancer_mutex_);
  std::map<std::string, std::int64_t> balancer_last_server_load_ TFR_GUARDED_BY(balancer_mutex_);
  std::unique_ptr<PeriodicTask> balancer_task_;
};

}  // namespace tfr
