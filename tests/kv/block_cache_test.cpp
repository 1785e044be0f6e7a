#include "src/kv/block_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/common/clock.h"

namespace tfr {
namespace {

BlockPtr block_of(std::size_t bytes) {
  auto b = std::make_shared<CacheBlock>();
  b->byte_size = bytes;
  return b;
}

TEST(BlockCacheTest, MissLoadsThenHits) {
  BlockCache cache(1024);
  int loads = 0;
  auto loader = [&]() -> Result<BlockPtr> {
    ++loads;
    return block_of(100);
  };
  ASSERT_TRUE(cache.get_or_load("k", loader).is_ok());
  ASSERT_TRUE(cache.get_or_load("k", loader).is_ok());
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(BlockCacheTest, LoaderErrorPropagates) {
  BlockCache cache(1024);
  auto result = cache.get_or_load("k", []() -> Result<BlockPtr> {
    return Status::unavailable("dfs down");
  });
  EXPECT_TRUE(result.status().is_unavailable());
  // Nothing cached; a later successful load works.
  ASSERT_TRUE(cache.get_or_load("k", [] { return Result<BlockPtr>(block_of(1)); }).is_ok());
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  BlockCache cache(250);
  auto load100 = [] { return Result<BlockPtr>(block_of(100)); };
  ASSERT_TRUE(cache.get_or_load("a", load100).is_ok());
  ASSERT_TRUE(cache.get_or_load("b", load100).is_ok());
  ASSERT_TRUE(cache.get_or_load("a", load100).is_ok());  // touch a: b is LRU now
  ASSERT_TRUE(cache.get_or_load("c", load100).is_ok());  // evicts b
  EXPECT_EQ(cache.stats().evictions, 1);
  int loads = 0;
  ASSERT_TRUE(cache.get_or_load("a", [&] {
    ++loads;
    return Result<BlockPtr>(block_of(100));
  }).is_ok());
  EXPECT_EQ(loads, 0);  // a survived
}

TEST(BlockCacheTest, BytesTracked) {
  BlockCache cache(10000);
  ASSERT_TRUE(cache.get_or_load("a", [] { return Result<BlockPtr>(block_of(123)); }).is_ok());
  ASSERT_TRUE(cache.get_or_load("b", [] { return Result<BlockPtr>(block_of(77)); }).is_ok());
  EXPECT_EQ(cache.stats().bytes, 200);
}

TEST(BlockCacheTest, InvalidatePrefix) {
  BlockCache cache(10000);
  auto load = [] { return Result<BlockPtr>(block_of(10)); };
  ASSERT_TRUE(cache.get_or_load("/sf1#0", load).is_ok());
  ASSERT_TRUE(cache.get_or_load("/sf1#1", load).is_ok());
  ASSERT_TRUE(cache.get_or_load("/sf2#0", load).is_ok());
  cache.invalidate_prefix("/sf1#");
  EXPECT_EQ(cache.stats().bytes, 10);
  int loads = 0;
  ASSERT_TRUE(cache.get_or_load("/sf1#0", [&] {
    ++loads;
    return Result<BlockPtr>(block_of(10));
  }).is_ok());
  EXPECT_EQ(loads, 1);  // had to reload
}

TEST(BlockCacheTest, ClearEmptiesEverything) {
  BlockCache cache(10000);
  ASSERT_TRUE(cache.get_or_load("a", [] { return Result<BlockPtr>(block_of(10)); }).is_ok());
  cache.clear();
  EXPECT_EQ(cache.stats().bytes, 0);
}

TEST(BlockCacheTest, BlockWellBelowCapacityStaysCached) {
  // The whole capacity is one LRU: a 100 KB block fits in a 1 MB cache.
  BlockCache cache(1 << 20);
  int loads = 0;
  auto loader = [&]() -> Result<BlockPtr> {
    ++loads;
    return block_of(100 << 10);
  };
  ASSERT_TRUE(cache.get_or_load("big", loader).is_ok());
  ASSERT_TRUE(cache.get_or_load("big", loader).is_ok());
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.stats().bytes, 100 << 10);
}

TEST(BlockCacheTest, FullCacheEvictsOnlyTheLeastRecentlyUsed) {
  BlockCache cache(400);  // room for exactly 4 blocks of 100 bytes
  int loads = 0;
  auto load100 = [&]() -> Result<BlockPtr> {
    ++loads;
    return block_of(100);
  };
  for (const char* key : {"a", "b", "c", "d"}) ASSERT_TRUE(cache.get_or_load(key, load100).is_ok());
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.stats().bytes, 400);
  ASSERT_TRUE(cache.get_or_load("a", load100).is_ok());  // touch a: b is LRU now
  EXPECT_EQ(loads, 4);  // all four stayed resident

  ASSERT_TRUE(cache.get_or_load("e", load100).is_ok());  // evicts b, and only b
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().bytes, 400);
  for (const char* key : {"a", "c", "d", "e"}) ASSERT_TRUE(cache.get_or_load(key, load100).is_ok());
  EXPECT_EQ(loads, 5);  // every survivor hit
  ASSERT_TRUE(cache.get_or_load("b", load100).is_ok());
  EXPECT_EQ(loads, 6);  // the victim had to reload
}

TEST(BlockCacheTest, ConcurrentAccessIsSafe) {
  BlockCache cache(1 << 16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string key = "k" + std::to_string((i + t) % 50);
        ASSERT_TRUE(cache.get_or_load(key, [] {
          return Result<BlockPtr>(block_of(64));
        }).is_ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(cache.stats().bytes, static_cast<std::int64_t>(cache.capacity()));
}

TEST(BlockCacheTest, OversizedBlockDoesNotWedgeCache) {
  BlockCache cache(100);
  ASSERT_TRUE(cache.get_or_load("big", [] { return Result<BlockPtr>(block_of(1000)); }).is_ok());
  // Eviction brings usage back under capacity (the big block itself goes).
  EXPECT_LE(cache.stats().bytes, 100);
}

// --- single-flight miss loading ------------------------------------------------

TEST(BlockCacheTest, ConcurrentMissesOnOneKeyLoadOnce) {
  BlockCache cache(1 << 20);
  constexpr int kThreads = 8;
  std::atomic<int> loads{0};
  std::atomic<int> in_loader{0};
  auto slow_loader = [&]() -> Result<BlockPtr> {
    in_loader.fetch_add(1);
    loads.fetch_add(1);
    sleep_micros(millis(30));  // hold the load open so every thread misses
    in_loader.fetch_sub(1);
    return block_of(64);
  };
  std::vector<std::thread> threads;
  std::vector<BlockPtr> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto r = cache.get_or_load("hot", slow_loader);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(in_loader.load(), 0);  // no loader still running once we have a block
      results[t] = r.value();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(loads.load(), 1);  // exactly one loader despite K concurrent misses
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(results[t], results[0]);  // shared result
  EXPECT_GE(cache.stats().single_flight_waits, 1);
  EXPECT_EQ(cache.stats().misses, 1);  // waiters hit after the wait, only the loader missed
}

TEST(BlockCacheTest, FailedLoadHandsOffToNextWaiter) {
  BlockCache cache(1 << 20);
  std::atomic<int> attempts{0};
  auto flaky_loader = [&]() -> Result<BlockPtr> {
    sleep_micros(millis(10));
    if (attempts.fetch_add(1) == 0) return Status::unavailable("first load fails");
    return block_of(64);
  };
  std::vector<std::thread> threads;
  std::atomic<int> ok{0}, failed{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      auto r = cache.get_or_load("k", flaky_loader);
      (r.is_ok() ? ok : failed).fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  // The first loader's failure reaches only its own caller; a waiter takes
  // over as the new loader and everyone else shares its success.
  EXPECT_EQ(failed.load(), 1);
  EXPECT_EQ(ok.load(), 3);
  EXPECT_EQ(attempts.load(), 2);
}

TEST(BlockCacheTest, SingleFlightAcrossDistinctKeysStaysParallel) {
  // Loads of different keys must not wait on each other: total wall time for
  // two overlapping 30ms loads on different keys stays well under 60ms.
  BlockCache cache(1 << 20);
  auto slow = [] {
    sleep_micros(millis(30));
    return Result<BlockPtr>(block_of(64));
  };
  const Micros t0 = now_micros();
  std::thread a([&] { ASSERT_TRUE(cache.get_or_load("a", slow).is_ok()); });
  std::thread b([&] { ASSERT_TRUE(cache.get_or_load("b", slow).is_ok()); });
  a.join();
  b.join();
  EXPECT_LT(now_micros() - t0, millis(55));
}

}  // namespace
}  // namespace tfr
