// KvClient — the embedded (non-transactional) store client: routing via the
// master, plus the flush protocol for committed write-sets.
//
// The flush of a write-set "is usually a non-atomic operation" (§2.2): a
// write-set may span several servers and is sent as one ApplyRequest per
// participant. A server failure interrupts the flush; the client then
// "retries, multiple times, to flush the remaining part of the write-set to
// the target regions ... we remove the retry and timeout limits so that the
// client keeps retrying until it succeeds" (§3.2). flush_writeset implements
// exactly that loop.
// Routing: clients cache the master's region locations (the routing table,
// §2.1) and re-locate only on a staleness signal — an Unavailable (region
// not serving / row not hosted, e.g. after a split, merge or move) or a
// WrongEpoch from a fenced stale owner. The cache invalidates the covering
// entry and the next attempt fetches the fresh assignment; retry pacing
// stays with the caller's shared Backoff, so a stale route never spins.
#pragma once

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/kv/master.h"
#include "src/kv/types.h"

namespace tfr {

struct KvClientStats {
  std::int64_t flush_rpcs = 0;
  std::int64_t flush_retries = 0;
  std::int64_t read_retries = 0;
  std::int64_t route_hits = 0;
  std::int64_t route_misses = 0;
  std::int64_t route_invalidations = 0;
};

class KvClient {
 public:
  /// `retry_backoff`: base of the jittered exponential backoff between
  /// retries (full jitter, ceiling doubling per attempt, capped at 32x —
  /// see common/backoff.h).
  explicit KvClient(Master& master, Micros retry_backoff = millis(5));

  /// Identity announced as `caller` on reads (and already carried by write
  /// sets as `client_id`), so partition rules can match this client.
  void set_client_id(std::string id) { client_id_ = std::move(id); }

  /// Flush a committed write-set to all participant servers. Retries
  /// indefinitely across server failures and region moves; returns only
  /// when every participant has received and applied its slice, or with
  /// InvalidArgument for malformed input.
  ///
  /// `cancel`, when non-null and set, aborts the retry loop with Closed —
  /// used to simulate a client process dying mid-flush.
  Status flush_writeset(const WriteSet& ws, const std::atomic<bool>* cancel = nullptr);

  /// Flush several committed write-sets together (the pipelined flush path,
  /// and every recovery replay): all slices bound for the same server
  /// travel in ONE BatchApplyRequest RPC per retry round, instead of one RPC
  /// per write-set per server. Same termination contract as flush_writeset
  /// — retries indefinitely, returns Ok only when EVERY write-set is fully
  /// applied, Closed on cancel. Per-slice Unavailable/WrongEpoch outcomes
  /// only re-queue that write-set's slice, so one moving region does not
  /// stall the rest of the batch.
  ///
  /// `piggyback_tp` / `recovery_replay` are set on every slice by the
  /// recovery client (§3.2) and left unset by regular clients.
  Status flush_writesets(const std::vector<WriteSet>& batch,
                         const std::atomic<bool>* cancel = nullptr,
                         std::optional<Timestamp> piggyback_tp = std::nullopt,
                         bool recovery_replay = false);

  /// Snapshot read. Retries through failovers until the row's region is
  /// online again; `max_retries` = 0 means retry forever.
  Result<std::optional<Cell>> get(const std::string& table, const std::string& row,
                                  const std::string& column, Timestamp read_ts,
                                  int max_retries = 0);

  Result<std::vector<Cell>> scan(const std::string& table, const std::string& start,
                                 const std::string& end, Timestamp read_ts, std::size_t limit,
                                 int max_retries = 0);

  KvClientStats stats() const;

 private:
  /// Cached-routing locate: probe the routing table first, fall back to the
  /// master on a miss and cache the answer. The master RPC runs with the
  /// routing lock released (it is a leaf, may_block = false).
  Result<RegionLocation> locate(const std::string& table, const std::string& row);

  /// Drop the cached route covering `row` after a staleness signal
  /// (Unavailable / WrongEpoch); the next locate re-fetches.
  void invalidate_route(const std::string& table, const std::string& row);

  Master* master_;
  Micros retry_backoff_;
  std::string client_id_;
  std::atomic<std::int64_t> flush_rpcs_{0};
  std::atomic<std::int64_t> flush_retries_{0};
  std::atomic<std::int64_t> read_retries_{0};
  std::atomic<std::int64_t> route_hits_{0};
  std::atomic<std::int64_t> route_misses_{0};
  std::atomic<std::int64_t> route_invalidations_{0};

  mutable RankedMutex<LockRank::kClientRouting> routes_mutex_{"kv_client.routes"};
  /// table -> region start_key -> location. Regions of a table never
  /// overlap, so the entry at upper_bound(row)-1 is the only candidate;
  /// entries staled by a split/merge/move are evicted on insert (range
  /// overlap) or on the staleness signal.
  std::map<std::string, std::map<std::string, RegionLocation>> routes_
      TFR_GUARDED_BY(routes_mutex_);
};

}  // namespace tfr
