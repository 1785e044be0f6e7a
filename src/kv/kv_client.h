// KvClient — the embedded (non-transactional) store client: routing via the
// master, plus the flush protocol for committed write-sets.
//
// The flush of a write-set "is usually a non-atomic operation" (§2.2): a
// write-set may span several servers and is sent as one slice per
// participant. A server failure interrupts the flush; the client then
// "retries, multiple times, to flush the remaining part of the write-set to
// the target regions ... we remove the retry and timeout limits so that the
// client keeps retrying until it succeeds" (§3.2). flush_writesets
// implements exactly that loop, and it is the only way a write-set reaches a
// region server: the transactional client's flushers and sync commits, the
// recovery client's gate replay, and the master's re-flush of superseded
// split-WAL edits all send one BatchApplyRequest frame per server per round.
// Routing: clients cache the master's region locations (the routing table,
// §2.1) and re-locate only on a staleness signal — an Unavailable (region
// not serving / row not hosted, e.g. after a split, merge or move) or a
// WrongEpoch from a fenced stale owner. The cache invalidates the covering
// entry and the next attempt fetches the fresh assignment; retry pacing
// stays with the caller's shared Backoff, so a stale route never spins.
// A ServerDown answer is more than staleness: it is proof that the server
// crashed, so every retry loop also reports it (Master::suspect_server),
// and the takeover starts without waiting out the server's session TTL.
#pragma once

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/kv/master.h"
#include "src/kv/types.h"

namespace tfr {

/// This client's own traffic. Route hits, misses and invalidations and
/// flush and read retries are counted process-wide, as the global counters
/// kv.route_{hits,misses,invalidations} and kv.{flush,read}_retries.
struct KvClientStats {
  std::int64_t flush_rpcs = 0;  ///< apply frames sent, retries included
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

  /// Flush committed write-sets to all their participant servers: every
  /// slice bound for the same server travels in ONE BatchApplyRequest RPC
  /// per retry round. Retries across server failures and region moves;
  /// returns Ok only when EVERY write-set is fully applied, NotFound for an
  /// unknown table, InvalidArgument for malformed input. Per-slice
  /// Unavailable/WrongEpoch outcomes only re-queue that write-set's slice,
  /// so one moving region does not stall the rest of the batch.
  ///
  /// `cancel`, when non-null and set, aborts the retry loop with Closed —
  /// used to simulate a client process dying mid-flush.
  /// `piggyback_tp` / `recovery_replay` are set on every slice by recovery
  /// replays (§3.2) and left unset by regular clients.
  /// `max_retries` = 0 retries forever (§3.2); otherwise the flush gives up
  /// with Unavailable after that many retry rounds.
  Status flush_writesets(const std::vector<WriteSet>& batch,
                         const std::atomic<bool>* cancel = nullptr,
                         std::optional<Timestamp> piggyback_tp = std::nullopt,
                         bool recovery_replay = false, int max_retries = 0);

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

  mutable RankedMutex<LockRank::kClientRouting> routes_mutex_{"kv_client.routes"};
  /// table -> region start_key -> location. Regions of a table never
  /// overlap, so the entry at upper_bound(row)-1 is the only candidate;
  /// entries staled by a split/merge/move are evicted on insert (range
  /// overlap) or on the staleness signal.
  std::map<std::string, std::map<std::string, RegionLocation>> routes_
      TFR_GUARDED_BY(routes_mutex_);
};

}  // namespace tfr
