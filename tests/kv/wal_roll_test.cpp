// WAL segment rolling and reclamation — the HBase behaviour that keeps the
// store's log bounded once memstore flushes have persisted the data.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "src/common/codec.h"
#include "src/common/fault.h"
#include "src/kv/region_server.h"
#include "src/kv/wal.h"

namespace tfr {
namespace {

WalRecord rec(const std::string& region, Timestamp ts) {
  WalRecord r;
  r.region = region;
  r.commit_ts = ts;
  r.client_id = "c";
  r.cells.push_back(Cell{"row" + std::to_string(ts), "c", "v", ts, false});
  return r;
}

TEST(WalRollTest, RollOpensFreshSegment) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append(rec("r", 1)).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());
  EXPECT_EQ(wal->stats().live_segments, 2u);
  EXPECT_EQ(wal->stats().rolls, 1u);
  EXPECT_EQ(wal->current_segment_bytes(), 0u);
  // The closed segment is durable even though we never called sync().
  EXPECT_EQ(wal->synced_seq(), 1u);
}

TEST(WalRollTest, RecordsSpanSegmentsInOrder) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append(rec("a", 1)).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());
  ASSERT_TRUE(wal->append(rec("b", 2)).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());
  ASSERT_TRUE(wal->append(rec("a", 3)).is_ok());
  ASSERT_TRUE(wal->sync().is_ok());

  auto records = Wal::read_records(dfs, "/wal/rs1.log").value();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_EQ(records[2].seq, 3u);

  auto grouped = Wal::split(dfs, "/wal/rs1.log").value();
  ASSERT_EQ(grouped["a"].size(), 2u);
  ASSERT_EQ(grouped["b"].size(), 1u);
}

TEST(WalRollTest, TruncateRemovesOnlyObsoleteClosedSegments) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append(rec("r", 1)).is_ok());  // seg 1: seq 1
  ASSERT_TRUE(wal->roll().is_ok());
  ASSERT_TRUE(wal->append(rec("r", 2)).is_ok());  // seg 2: seq 2
  ASSERT_TRUE(wal->roll().is_ok());
  ASSERT_TRUE(wal->append(rec("r", 3)).is_ok());  // seg 3 (open): seq 3

  // Nothing needed below seq 2: only segment 1 goes.
  EXPECT_EQ(wal->truncate_obsolete(2), 1u);
  EXPECT_EQ(wal->stats().live_segments, 2u);
  // Everything below 100 obsolete, but the open segment always stays.
  EXPECT_EQ(wal->truncate_obsolete(100), 1u);
  EXPECT_EQ(wal->stats().live_segments, 1u);
  // The surviving records are still readable.
  ASSERT_TRUE(wal->sync().is_ok());
  auto records = Wal::read_records(dfs, "/wal/rs1.log").value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 3u);
}

TEST(WalRollTest, TruncateIsNoopWhenEverythingStillNeeded) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append(rec("r", 1)).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());
  EXPECT_EQ(wal->truncate_obsolete(1), 0u);
  EXPECT_EQ(wal->stats().live_segments, 2u);
}

TEST(WalRollTest, CrashLosesOnlyOpenSegmentTail) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append(rec("r", 1)).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());                // seq 1 durable via roll
  ASSERT_TRUE(wal->append(rec("r", 2)).is_ok());   // open segment, not synced
  wal->crash();
  auto records = Wal::read_records(dfs, "/wal/rs1.log").value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 1u);
}

TEST(WalRollTest, ConcurrentAppendRollSyncNeverCoversANonDurableRecord) {
  // Appends race rolls and syncs, then the writer crashes: every record at
  // or below synced_seq must come back from the DFS. A record appended into
  // the closing segment after the roll's sync captured its frontier would be
  // closed un-synced while the next sync advanced synced_seq past it.
  DfsConfig config;
  config.sync_latency = 300;  // a wide window for appends to land in
  Dfs dfs{config};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  std::atomic<bool> stop{false};
  std::vector<std::vector<std::uint64_t>> appended(2);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < appended.size(); ++w) {
    threads.emplace_back([&, w] {
      for (Timestamp ts = 1; !stop.load(std::memory_order_acquire); ++ts) {
        auto seq = wal->append(rec("r" + std::to_string(w), ts));
        ASSERT_TRUE(seq.is_ok()) << seq.status();
        appended[w].push_back(seq.value());
        std::this_thread::yield();
      }
    });
  }
  // Pauses between rolls and syncs keep the (unfair) locks from starving
  // the roller; appends keep landing throughout.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(wal->roll().is_ok());
      sleep_micros(500);
    }
  });
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(wal->sync().is_ok());
      sleep_micros(200);
    }
  });
  sleep_millis(150);
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  const std::uint64_t synced = wal->synced_seq();
  wal->crash();
  auto records = Wal::read_records(dfs, "/wal/rs1.log");
  ASSERT_TRUE(records.is_ok()) << records.status();
  std::set<std::uint64_t> durable;
  for (const auto& r : records.value()) durable.insert(r.seq);
  ASSERT_GT(wal->stats().rolls, 10u);
  std::size_t checked = 0;
  for (const auto& seqs : appended) {
    for (std::uint64_t seq : seqs) {
      if (seq > synced) continue;
      ++checked;
      EXPECT_TRUE(durable.count(seq) == 1) << "seq " << seq << " <= synced_seq " << synced
                                           << " lost in the crash";
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(WalRollTest, SyncCoversASegmentWhoseRollFailedToSync) {
  // A roll whose sync fails still switches to the fresh segment; the old
  // one keeps its records above synced_seq, so the next sync() syncs both
  // segments before advancing.
  Dfs dfs{DfsConfig{}};
  FaultInjector fault;
  dfs.set_fault_injector(&fault);
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append(rec("r", 1)).is_ok());
  FaultRule fail_sync;
  fail_sync.op = FaultOp::kDfsSync;
  fail_sync.fail_next = 1;
  fault.add_rule(fail_sync);
  EXPECT_TRUE(wal->roll().is_unavailable());
  EXPECT_EQ(wal->synced_seq(), 0u);
  ASSERT_TRUE(wal->append(rec("r", 2)).is_ok());
  ASSERT_TRUE(wal->sync().is_ok());
  EXPECT_EQ(wal->synced_seq(), 2u);
  wal->crash();
  auto records = Wal::read_records(dfs, "/wal/rs1.log").value();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_EQ(records[1].seq, 2u);
}

TEST(WalRollTest, RegionServerRollsAndReclaimsAfterMemstoreFlush) {
  Dfs dfs{DfsConfig{}};
  Coord coord(seconds(10));
  RegionServerConfig cfg;
  cfg.heartbeat_interval = seconds(100);
  cfg.session_ttl = seconds(1000);
  cfg.wal_sync_interval = seconds(100);  // drive rolling manually
  cfg.wal_segment_bytes = 512;           // tiny segments
  cfg.memstore_flush_bytes = 1u << 30;   // flush manually
  RegionServer server("rs1", dfs, coord, cfg);
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_TRUE(server.open_region(RegionDescriptor{"t", "", ""}, {}).is_ok());

  auto apply = [&](Timestamp ts) {
    ApplyRequest req;
    req.commit_ts = ts;
    req.client_id = "c";
    req.table = "t";
    req.mutations.push_back(Mutation{"row" + std::to_string(ts), "c",
                                     std::string(128, 'x'), false});
    BatchApplyRequest frame;
    frame.slices.push_back(std::move(req));
    auto statuses = server.apply_batch(frame);
    ASSERT_TRUE(statuses.is_ok());
    ASSERT_TRUE(statuses.value().front().is_ok());
  };

  for (Timestamp ts = 1; ts <= 20; ++ts) {
    apply(ts);
    server.maybe_roll_wal();
  }
  EXPECT_GT(server.wal().stats().rolls, 2u);
  // Un-flushed edits pin every segment: nothing reclaimed yet.
  EXPECT_EQ(server.wal().stats().segments_truncated, 0u);

  // Flush the memstore: the store file now carries the data, the old
  // segments become reclaimable.
  ASSERT_TRUE(server.region("t,")->flush_memstore().is_ok());
  server.maybe_roll_wal();
  EXPECT_GT(server.wal().stats().segments_truncated, 0u);
  EXPECT_LE(server.wal().stats().live_segments, 2u);

  // And reads still see everything.
  EXPECT_EQ(server.get("t", "row7", "c", 100).value()->value, std::string(128, 'x'));
  ASSERT_TRUE(server.shutdown().is_ok());
}

TEST(WalRollTest, SplitAfterCrashSeesAllLiveSegments) {
  // Data synced across several segments must all come back in recovery,
  // while reclaimed segments are (correctly) gone.
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  for (Timestamp ts = 1; ts <= 6; ++ts) {
    ASSERT_TRUE(wal->append(rec(ts % 2 ? "odd" : "even", ts)).is_ok());
    if (ts % 2 == 0) ASSERT_TRUE(wal->roll().is_ok());
  }
  EXPECT_EQ(wal->truncate_obsolete(3), 1u);  // seqs 1-2 were "flushed"
  wal->crash();
  auto grouped = Wal::split(dfs, "/wal/rs1.log").value();
  std::set<std::uint64_t> seqs;
  for (const auto& [region, records] : grouped) {
    for (const auto& r : records) seqs.insert(r.seq);
  }
  EXPECT_EQ(seqs, (std::set<std::uint64_t>{3, 4, 5, 6}));
}

TEST(WalRollTest, TruncateStopsAtMasterFence) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append(rec("r", 1)).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());
  ASSERT_TRUE(wal->append(rec("r", 2)).is_ok());
  // The master fenced this server's WAL directory: it is being recovered,
  // and the split must see every remaining segment.
  dfs.fence_prefix("/wal/rs1.log");
  EXPECT_EQ(wal->truncate_obsolete(100), 0u);
  EXPECT_EQ(wal->stats().live_segments, 2u);
  EXPECT_TRUE(dfs.exists("/wal/rs1.log.00000001"));
}

TEST(WalRollTest, ParallelSplitMatchesSequentialReadAndKeepsSeqOrder) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  for (Timestamp ts = 1; ts <= 40; ++ts) {
    ASSERT_TRUE(wal->append(rec(ts % 2 ? "odd" : "even", ts)).is_ok());
    if (ts % 8 == 0) ASSERT_TRUE(wal->roll().is_ok());
  }
  ASSERT_TRUE(wal->sync().is_ok());
  Wal::SplitOptions opts;
  opts.workers = 4;
  auto grouped = Wal::split(dfs, "/wal/rs1.log", opts).value();
  ASSERT_EQ(grouped.size(), 2u);
  // Worker interleaving must not disturb per-region sequence order.
  std::size_t total = 0;
  for (const auto& [region, records] : grouped) {
    for (std::size_t i = 1; i < records.size(); ++i) {
      EXPECT_LT(records[i - 1].seq, records[i].seq) << region;
    }
    total += records.size();
  }
  EXPECT_EQ(total, Wal::read_records(dfs, "/wal/rs1.log").value().size());
  EXPECT_EQ(total, 40u);
}

TEST(WalRollTest, SplitIsAllOrNothingOnCorruptSegment) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  for (Timestamp ts = 1; ts <= 4; ++ts) {
    ASSERT_TRUE(wal->append(rec("r", ts)).is_ok());
    if (ts % 2 == 0) ASSERT_TRUE(wal->roll().is_ok());
  }
  ASSERT_TRUE(wal->sync().is_ok());
  // Plant a segment whose frame decodes but fails its checksum: the split
  // must fail outright rather than hand back an edit map that silently
  // dropped one source segment's durable records.
  std::string bad;
  Encoder enc(&bad);
  enc.put_string("not a wal record");
  enc.put_u32(0);  // wrong checksum for the payload above
  ASSERT_TRUE(dfs.create("/wal/rs1.log.00000099").is_ok());
  ASSERT_TRUE(dfs.append("/wal/rs1.log.00000099", bad).is_ok());
  ASSERT_TRUE(dfs.sync("/wal/rs1.log.00000099").is_ok());
  auto split = Wal::split(dfs, "/wal/rs1.log");
  ASSERT_FALSE(split.is_ok());
  EXPECT_NE(split.status().to_string().find("checksum"), std::string::npos)
      << split.status();
}

}  // namespace
}  // namespace tfr
