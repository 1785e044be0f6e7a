// GENERATED FILE — do not edit by hand.
//
// Produced by scripts/gen_lock_ranks.py, the single source of truth for
// the lock-rank table. The same script generates the DESIGN.md "Lock
// ranks" table; the `lock_ranks_doc` ctest fails if either drifts.
//
// Three consumers:
//  * RankedMutex<R> (annotations.h) static_asserts lock_rank_known(R), so
//    a mutex can only be declared with a rank from this table;
//  * the runtime validator asserts every acquisition's rank is in the
//    table (a raw tfr::Mutex constructed with an ad-hoc rank aborts);
//  * the blocking-under-lock hook consults lock_rank_may_block() — the
//    per-rank policy column that says which locks may, by documented
//    design, be held across a TFR_BLOCKING call.
#pragma once

#include <cstddef>

namespace tfr {

// Acquisition order is strictly DESCENDING: holding rank R, a thread may
// only acquire ranks < R. Outermost locks (the testbed harness, the
// recovery manager) have the highest ranks; utility leaves (metrics, the
// log emit lock) the lowest. See DESIGN.md "Lock ranks" for the rationale
// behind every edge.
enum class LockRank : int {
  kBalancer = 220,          // master.balancer: master balancer loop (§9)
  kHarness = 210,           // testbed.rm: test harness
  kRecoveryManager = 200,   // recovery_manager: RM orchestration, floors, PQ (Alg. 1+3)
  kRecoveryTracker = 190,   // persist_tracker, flush_tracker.advance: TP(s) / TF(c) trackers (Alg. 1+3)
  kClientLifecycle = 180,   // txn_client.lifecycle, region_server.terminator: client/server self-termination
  kRegionServer = 170,      // region_server.regions: region server directory
  kRegion = 160,            // region: region memstore/files
  kMaster = 150,            // master: master / failure detector
  kWalSync = 140,           // wal.sync: WAL group sync
  kWal = 130,               // wal: WAL segment ledger
  kTxnManager = 120,        // txn_manager: TM (SI conflict window)
  kTxnLog = 110,            // txn_log: TM group-commit log
  kCoord = 100,             // coord: coordination service (ZK stand-in)
  kDfs = 90,                // dfs: mini-DFS namenode/datanodes
  kServerHooks = 80,        // region_server.hooks: test hook registration
  kBlockCache = 70,         // block_cache: block cache LRU
  kFaultInjector = 60,      // fault_injector: deterministic fault injection
  kEpochRegistry = 55,      // epoch_registry: fencing-token registry (§6a)
  kQueue = 50,              // blocking_queue, synced_min_queue: FQ/FQ' / PQ carriers
  kClientRouting = 45,      // kv_client.routes: client routing-table cache (§2.1)
  kThreadingInternal = 40,  // periodic_task, semaphore, countdown_latch: heartbeats, handler pools
  kLatencyModel = 30,       // latency_rng: latency model
  kMetrics = 20,            // metric_registry: metrics
  kLogging = 10,            // log_emit: logging
  kLeaf = 40,               // default for ad-hoc mutexes: nest under anything
};

struct LockRankInfo {
  const char* name;  // doc name(s) of the mutex(es) at this rank
  int value;
  bool may_block;  // may be held across a TFR_BLOCKING call (documented why)
};

inline constexpr LockRankInfo kLockRankTable[] = {
    {"master.balancer", 220, true},
    {"testbed.rm", 210, true},
    {"recovery_manager", 200, true},
    {"persist_tracker, flush_tracker.advance", 190, true},
    {"txn_client.lifecycle, region_server.terminator", 180, true},
    {"region_server.regions", 170, true},
    {"region", 160, true},
    {"master", 150, true},
    {"wal.sync", 140, true},
    {"wal", 130, false},
    {"txn_manager", 120, true},
    {"txn_log", 110, false},
    {"coord", 100, false},
    {"dfs", 90, false},
    {"region_server.hooks", 80, false},
    {"block_cache", 70, false},
    {"fault_injector", 60, false},
    {"epoch_registry", 55, false},
    {"blocking_queue, synced_min_queue", 50, false},
    {"kv_client.routes", 45, false},
    {"periodic_task, semaphore, countdown_latch", 40, false},
    {"latency_rng", 30, false},
    {"metric_registry", 20, false},
    {"log_emit", 10, false},
};

inline constexpr std::size_t kLockRankCount =
    sizeof(kLockRankTable) / sizeof(kLockRankTable[0]);

/// True iff `value` is a rank defined in the table. RankedMutex<R>
/// static_asserts this; the runtime validator aborts on violations.
constexpr bool lock_rank_known(int value) {
  for (const auto& r : kLockRankTable) {
    if (r.value == value) return true;
  }
  return false;
}

/// True iff a mutex of rank `value` may, by documented design, be held
/// across a blocking call (DFS I/O, RPC, WAL/TM-log sync, sleeps).
constexpr bool lock_rank_may_block(int value) {
  for (const auto& r : kLockRankTable) {
    if (r.value == value) return r.may_block;
  }
  return false;
}

/// Doc name(s) for a rank value; "?" when unknown.
constexpr const char* lock_rank_doc_name(int value) {
  for (const auto& r : kLockRankTable) {
    if (r.value == value) return r.name;
  }
  return "?";
}

}  // namespace tfr
