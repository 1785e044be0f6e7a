// BlockCache — per-region-server LRU cache of decoded store-file blocks
// (§2.1: "a large main-memory cache to reduce interactions with HDFS").
//
// A block that is not cached must be fetched from the DFS, which charges the
// DFS read latency; this is the mechanism behind the slow warm-up after a
// failover in Figure 3: the regions that move to the surviving server arrive
// with a completely cold cache.
//
// One LRU under one mutex, evicting the least recently used block once the
// resident bytes exceed the capacity. Each miss is single-flight: the first
// thread to miss a key runs the loader outside the lock; threads that miss
// the same key while the load is in flight wait and share the result instead
// of stampeding the DFS with duplicate reads. A failed load wakes the
// waiters and the next one retries as the new loader.
//
// Event counts live in the cache (stats()); a fleet-wide hit rate is the sum
// over the servers' caches.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/status.h"
#include "src/kv/types.h"

namespace tfr {

/// A decoded, immutable store-file block: cells sorted by (row, column,
/// ts desc), same order as the memstore.
struct CacheBlock {
  std::vector<Cell> cells;
  std::size_t byte_size = 0;
};

using BlockPtr = std::shared_ptr<const CacheBlock>;

struct BlockCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t bytes = 0;
  /// Lookups that found another thread already loading the key and waited
  /// for its result instead of re-running the loader.
  std::int64_t single_flight_waits = 0;
};

class BlockCache {
 public:
  explicit BlockCache(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// Look up `key`; on miss, call `loader` (which typically performs a DFS
  /// read and therefore blocks for the read latency), insert, and return.
  /// The loader runs outside the cache lock, and at most one loader per key
  /// is in flight — concurrent misses on the same key wait and share the
  /// loaded block.
  Result<BlockPtr> get_or_load(const std::string& key,
                               const std::function<Result<BlockPtr>()>& loader);

  /// Drop every block whose key starts with `prefix` (e.g. when a store file
  /// is deleted after compaction).
  void invalidate_prefix(const std::string& prefix);

  void clear();

  BlockCacheStats stats() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    BlockPtr block;
    std::list<std::string>::iterator lru_it;
  };

  void evict_to_fit() TFR_REQUIRES(mutex_);

  const std::size_t capacity_;
  mutable RankedMutex<LockRank::kBlockCache> mutex_{"block_cache"};
  CondVar load_done_;  // signaled whenever an in-flight load finishes
  std::list<std::string> lru_ TFR_GUARDED_BY(mutex_);  // front = most recent
  std::unordered_map<std::string, Entry> map_ TFR_GUARDED_BY(mutex_);
  std::unordered_set<std::string> loading_ TFR_GUARDED_BY(mutex_);
  BlockCacheStats stats_ TFR_GUARDED_BY(mutex_);
};

}  // namespace tfr
