// Microbenchmarks (google-benchmark) for the hot paths of the system:
// recovery-log group commit, memstore MVCC operations, the Algorithm 1/3
// tracking structures, WAL appends, and store-file reads through the block
// cache. These back the "light-weight tracking" claim of §4.3 with numbers.
#include <benchmark/benchmark.h>

#include "src/common/random.h"
#include "src/kv/memstore.h"
#include "src/kv/store_file.h"
#include "src/kv/wal.h"
#include "src/recovery/flush_tracker.h"
#include "src/txn/txn_log.h"
#include "src/txn/txn_manager.h"

namespace tfr {
namespace {

WriteSet small_ws(Timestamp ts) {
  WriteSet ws;
  ws.txn_id = static_cast<std::uint64_t>(ts);
  ws.client_id = "bench";
  ws.commit_ts = ts;
  ws.table = "t";
  ws.mutations.push_back(Mutation{"row" + std::to_string(ts % 1000), "c",
                                  std::string(100, 'v'), false});
  return ws;
}

void BM_TxnLogAppend(benchmark::State& state) {
  TxnLog log(TxnLogConfig{});
  Timestamp ts = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.append(small_ws(++ts)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnLogAppend);

void BM_TxnManagerCommit(benchmark::State& state) {
  TxnManager tm(TxnLogConfig{});
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto txn = tm.begin(tm.current_ts());
    WriteSet ws;
    ws.table = "t";
    ws.mutations.push_back(Mutation{"r" + std::to_string(i++), "c", "v", false});
    benchmark::DoNotOptimize(tm.commit(txn, std::move(ws), nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnManagerCommit);

void BM_MemstoreApply(benchmark::State& state) {
  Memstore ms;
  Rng rng(1);
  Timestamp ts = 0;
  for (auto _ : state) {
    ms.apply(Cell{"row" + std::to_string(rng.next_below(10000)), "c", std::string(100, 'x'),
                  ++ts, false});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemstoreApply);

void BM_MemstoreGet(benchmark::State& state) {
  Memstore ms;
  for (Timestamp ts = 1; ts <= 10000; ++ts) {
    ms.apply(Cell{"row" + std::to_string(ts % 2000), "c", std::string(100, 'x'), ts, false});
  }
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ms.get("row" + std::to_string(rng.next_below(2000)), "c", kMaxTimestamp));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemstoreGet);

void BM_FlushTrackerCycle(benchmark::State& state) {
  FlushTracker tracker(0);
  Timestamp ts = 0;
  for (auto _ : state) {
    ++ts;
    tracker.on_commit_ts(ts);
    tracker.on_flushed(ts);
    if ((ts & 0xff) == 0) tracker.advance(kNoTimestamp);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlushTrackerCycle);

void BM_WalAppend(benchmark::State& state) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/bench.log").value();
  Timestamp ts = 0;
  WalRecord record;
  record.region = "t,";
  record.client_id = "bench";
  record.cells.push_back(Cell{"row", "c", std::string(100, 'x'), 1, false});
  for (auto _ : state) {
    record.commit_ts = ++ts;
    benchmark::DoNotOptimize(wal->append({record}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalAppend);

void BM_StoreFileGetCached(benchmark::State& state) {
  Dfs dfs{DfsConfig{}};
  BlockCache cache(64 << 20);
  StoreFileWriter writer(2048);
  for (int i = 0; i < 20000; ++i) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%06d", i);
    writer.add(Cell{row, "c", std::string(100, 'x'), 1, false});
  }
  (void)writer.finish(dfs, "/sf-bench");
  auto reader = StoreFileReader::open(dfs, "/sf-bench").value();
  Rng rng(3);
  for (auto _ : state) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%06llu",
                  static_cast<unsigned long long>(rng.next_below(20000)));
    benchmark::DoNotOptimize(reader->get(cache, row, "c", kMaxTimestamp));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreFileGetCached);

void BM_ZipfianNext(benchmark::State& state) {
  Rng rng(4);
  ScrambledZipfianChooser chooser(1'000'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chooser.next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianNext);

void BM_GroupCommitUnderContention(benchmark::State& state) {
  static TxnLog* log = nullptr;
  if (state.thread_index() == 0) {
    TxnLogConfig cfg;
    cfg.sync_latency = 100;  // visible batching effect
    log = new TxnLog(cfg);
  }
  static std::atomic<Timestamp> ts{0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(log->append(small_ws(ts.fetch_add(1) + 1)));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete log;
    log = nullptr;
  }
}
BENCHMARK(BM_GroupCommitUnderContention)->Threads(1)->Threads(8)->Threads(32)->UseRealTime();

void BM_ShardedGroupCommit(benchmark::State& state) {
  // §4.1: the logging sub-component "can be distributed across several
  // nodes should one logging node not be sufficient". Lanes overlap their
  // stable-storage writes.
  static TxnLog* log = nullptr;
  if (state.thread_index() == 0) {
    TxnLogConfig cfg;
    cfg.sync_latency = 100;
    cfg.lanes = static_cast<int>(state.range(0));
    log = new TxnLog(cfg);
  }
  static std::atomic<Timestamp> ts{0};
  const std::string client = "bench-" + std::to_string(state.thread_index());
  for (auto _ : state) {
    WriteSet ws = small_ws(ts.fetch_add(1) + 1);
    ws.client_id = client;  // clients spread across lanes
    benchmark::DoNotOptimize(log->append(std::move(ws)));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete log;
    log = nullptr;
  }
}
BENCHMARK(BM_ShardedGroupCommit)->Args({1})->Args({4})->Threads(32)->UseRealTime();

}  // namespace
}  // namespace tfr

BENCHMARK_MAIN();
