#include "src/kv/block_cache.h"

namespace tfr {

Result<BlockPtr> BlockCache::get_or_load(const std::string& key,
                                         const std::function<Result<BlockPtr>()>& loader) {
  {
    MutexLock lock(mutex_);
    for (;;) {
      auto it = map_.find(key);
      if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        ++stats_.hits;
        return it->second.block;
      }
      if (loading_.count(key) == 0) break;  // we become the loader
      // Another thread is loading this key; wait for it and re-check. On a
      // successful load we hit in the map; on a failed load the loading
      // marker is gone and we take over as the loader.
      ++stats_.single_flight_waits;
      load_done_.wait(lock);
    }
    loading_.insert(key);
    ++stats_.misses;
  }

  // Load outside the lock: the DFS read latency must not serialize the
  // cache. Single-flight guarantees no other thread is loading this key.
  Result<BlockPtr> loaded = loader();

  MutexLock lock(mutex_);
  loading_.erase(key);
  load_done_.notify_all();
  if (!loaded.is_ok()) return loaded;
  BlockPtr block = loaded.value();
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Raced an insert (only possible via clear/invalidate interleavings);
    // keep the existing entry.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.block;
  }
  lru_.push_front(key);
  map_[key] = Entry{block, lru_.begin()};
  stats_.bytes += static_cast<std::int64_t>(block->byte_size);
  evict_to_fit();
  return block;
}

void BlockCache::evict_to_fit() {
  while (stats_.bytes > static_cast<std::int64_t>(capacity_) && !lru_.empty()) {
    auto it = map_.find(lru_.back());
    if (it != map_.end()) {
      stats_.bytes -= static_cast<std::int64_t>(it->second.block->byte_size);
      map_.erase(it);
      ++stats_.evictions;
    }
    lru_.pop_back();
  }
}

void BlockCache::invalidate_prefix(const std::string& prefix) {
  std::vector<BlockPtr> dropped;  // freed after the lock is released
  MutexLock lock(mutex_);
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      stats_.bytes -= static_cast<std::int64_t>(it->second.block->byte_size);
      lru_.erase(it->second.lru_it);
      dropped.push_back(std::move(it->second.block));
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
}

void BlockCache::clear() {
  MutexLock lock(mutex_);
  map_.clear();
  lru_.clear();
  stats_.bytes = 0;
  // `loading_` stays: in-flight loaders own their markers and will erase
  // them when they finish.
}

BlockCacheStats BlockCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace tfr
