// Microbenchmarks (google-benchmark) for the hot paths of the system:
// recovery-log group commit, memstore MVCC operations, the Algorithm 1/3
// tracking structures, WAL appends, store-file reads through the block
// cache, and the per-byte redo costs of server recovery (CRC-32C, encoding
// a split-edit batch into the WAL, decoding a WAL back). These back the
// "light-weight tracking" claim of §4.3 with numbers.
#include <benchmark/benchmark.h>

#include <memory>

#include "src/common/crc32.h"
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

void BM_Crc32c(benchmark::State& state) {
  Rng rng(3);
  std::string data(static_cast<std::size_t>(state.range(0)), '\0');
  for (char& c : data) c = static_cast<char>(rng.next_below(256));
  for (auto _ : state) benchmark::DoNotOptimize(crc32c(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4 << 10)->Arg(64 << 10);

// The shape of one recovered region's split edits: 850 records of three
// ~140-byte cells each, about 400 KB of frames.
std::vector<WalRecord> split_edit_batch(std::size_t records, std::uint64_t first_txn) {
  std::vector<WalRecord> batch;
  for (std::size_t i = 0; i < records; ++i) {
    WalRecord r;
    r.region = "usertable,user0000004000";
    r.txn_id = first_txn + i;
    r.client_id = "client-2";
    r.commit_ts = static_cast<Timestamp>(first_txn + i);
    r.epoch = 3;
    for (int c = 0; c < 3; ++c) {
      r.cells.push_back(Cell{"user" + std::to_string(4000 + (i * 7 + c) % 4000),
                             "field" + std::to_string(c), std::string(100, 'v'), r.commit_ts,
                             false});
    }
    batch.push_back(std::move(r));
  }
  return batch;
}

void BM_WalAppendBatch(benchmark::State& state) {
  const auto batch = split_edit_batch(850, 1);
  std::unique_ptr<Dfs> dfs;
  std::unique_ptr<Wal> wal;
  std::int64_t appended = 0;
  for (auto _ : state) {
    if (appended % 64 == 0) {
      // A fresh zero-latency DFS every 64 batches keeps the file in memory small.
      state.PauseTiming();
      wal.reset();
      dfs = std::make_unique<Dfs>(DfsConfig{});
      wal = Wal::create(*dfs, "/wal/bench.log").value();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(wal->append(batch));
    ++appended;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_WalAppendBatch)->Unit(benchmark::kMicrosecond);

void BM_WalReadRecords(benchmark::State& state) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/bench.log").value();
  std::int64_t records = 0;
  // Three split-edit batches: ~1.3 MB, 20 blocks of 64 KB.
  for (std::uint64_t b = 0; b < 3; ++b) {
    const auto batch = split_edit_batch(850, 1 + b * 850);
    if (!wal->append(batch).is_ok()) state.SkipWithError("append failed");
    records += static_cast<std::int64_t>(batch.size());
  }
  if (!wal->sync().is_ok()) state.SkipWithError("sync failed");
  for (auto _ : state) benchmark::DoNotOptimize(Wal::read_records(dfs, "/wal/bench.log"));
  state.SetItemsProcessed(state.iterations() * records);
  state.counters["blocks"] = static_cast<double>(
      (dfs.durable_size("/wal/bench.log.00000001").value() + dfs.config().block_size - 1) /
      dfs.config().block_size);
}
BENCHMARK(BM_WalReadRecords)->Unit(benchmark::kMicrosecond)->UseRealTime();

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
