// WAL segment rolling and reclamation — the HBase behaviour that keeps the
// store's log bounded once memstore flushes have persisted the data.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
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
  ASSERT_TRUE(wal->append({rec("r", 1)}).is_ok());
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
  ASSERT_TRUE(wal->append({rec("a", 1)}).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());
  ASSERT_TRUE(wal->append({rec("b", 2)}).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());
  ASSERT_TRUE(wal->append({rec("a", 3)}).is_ok());
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
  ASSERT_TRUE(wal->append({rec("r", 1)}).is_ok());  // seg 1: seq 1
  ASSERT_TRUE(wal->roll().is_ok());
  ASSERT_TRUE(wal->append({rec("r", 2)}).is_ok());  // seg 2: seq 2
  ASSERT_TRUE(wal->roll().is_ok());
  ASSERT_TRUE(wal->append({rec("r", 3)}).is_ok());  // seg 3 (open): seq 3

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
  ASSERT_TRUE(wal->append({rec("r", 1)}).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());
  EXPECT_EQ(wal->truncate_obsolete(1), 0u);
  EXPECT_EQ(wal->stats().live_segments, 2u);
}

TEST(WalRollTest, CrashLosesOnlyOpenSegmentTail) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append({rec("r", 1)}).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());                // seq 1 durable via roll
  ASSERT_TRUE(wal->append({rec("r", 2)}).is_ok());   // open segment, not synced
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
        auto seq = wal->append({rec("r" + std::to_string(w), ts)});
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
  ASSERT_TRUE(wal->append({rec("r", 1)}).is_ok());
  FaultRule fail_sync;
  fail_sync.op = FaultOp::kDfsSync;
  fail_sync.fail_next = 1;
  fault.add_rule(fail_sync);
  EXPECT_TRUE(wal->roll().is_unavailable());
  EXPECT_EQ(wal->synced_seq(), 0u);
  ASSERT_TRUE(wal->append({rec("r", 2)}).is_ok());
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
  ASSERT_TRUE(server.open_region(RegionDescriptor{"u", "", ""}, {}).is_ok());

  auto apply = [&](const std::string& table, Timestamp ts) {
    ApplyRequest req;
    req.commit_ts = ts;
    req.client_id = "c";
    req.table = table;
    req.mutations.push_back(Mutation{"row" + std::to_string(ts), "c",
                                     std::string(128, 'x'), false});
    BatchApplyRequest frame;
    frame.slices.push_back(std::move(req));
    auto statuses = server.apply_batch(frame);
    ASSERT_TRUE(statuses.is_ok());
    ASSERT_TRUE(statuses.value().front().is_ok());
  };

  // Stop right after a size roll, so the next record opens a segment.
  Timestamp ts = 1;
  for (; ts <= 20 || server.wal().current_segment_bytes() > 0; ++ts) {
    apply("t", ts);
    server.maybe_roll_wal();
  }
  EXPECT_GT(server.wal().stats().rolls, 2u);
  // Un-flushed edits pin every segment: nothing reclaimed yet.
  EXPECT_EQ(server.wal().stats().segments_truncated, 0u);

  // One un-flushed edit in "u" lands in the open segment; then flush "t":
  // the store file now carries its data and the closed segments go, but
  // the open segment holds "u"'s edit and must survive, unrolled.
  apply("u", ts);
  ASSERT_TRUE(server.region("t,")->flush_memstore().is_ok());
  const std::uint64_t rolls = server.wal().stats().rolls;
  server.maybe_roll_wal();
  EXPECT_GT(server.wal().stats().segments_truncated, 0u);
  EXPECT_EQ(server.wal().stats().rolls, rolls);
  EXPECT_EQ(server.wal().stats().live_segments, 1u);
  EXPECT_GT(server.wal().current_segment_bytes(), 0u);
  ASSERT_TRUE(server.persist_wal().is_ok());
  auto pinned = Wal::split(dfs, server.wal_path()).value();
  ASSERT_EQ(pinned["u,"].size(), 1u);
  EXPECT_EQ(pinned["u,"].front().commit_ts, ts);

  // Once every region is flushed, one call rolls the open segment and
  // reclaims it: one empty live segment, nothing left for a split.
  ASSERT_TRUE(server.region("u,")->flush_memstore().is_ok());
  server.maybe_roll_wal();
  EXPECT_EQ(server.wal().stats().rolls, rolls + 1);
  EXPECT_EQ(server.wal().stats().live_segments, 1u);
  EXPECT_EQ(server.wal().current_segment_bytes(), 0u);
  EXPECT_TRUE(Wal::split(dfs, server.wal_path()).value().empty());
  // An empty open segment is not rolled again.
  server.maybe_roll_wal();
  EXPECT_EQ(server.wal().stats().rolls, rolls + 1);

  // And reads still see everything.
  EXPECT_EQ(server.get("t", "row7", "c", 100).value()->value, std::string(128, 'x'));
  EXPECT_EQ(server.get("u", "row" + std::to_string(ts), "c", 100).value()->value,
            std::string(128, 'x'));
  ASSERT_TRUE(server.shutdown().is_ok());
}

TEST(WalRollTest, RollAndReclaimRacingAppliesLosesNoRecord) {
  // Writers apply while another thread flushes and rolls in a loop, so a
  // fully flushed region server rolls and reclaims its open segment over
  // and over. A record appended to the WAL but not yet in the memstore must
  // pin its segment: after the crash, every acked row is in a store file or
  // in the split.
  Dfs dfs{DfsConfig{}};
  Coord coord(seconds(10));
  RegionServerConfig cfg;
  cfg.heartbeat_interval = seconds(100);
  cfg.session_ttl = seconds(1000);
  cfg.wal_sync_interval = seconds(100);
  cfg.memstore_flush_bytes = 1u << 30;
  RegionServer server("rs1", dfs, coord, cfg);
  ASSERT_TRUE(server.start().is_ok());
  const RegionDescriptor desc{"t", "", ""};
  ASSERT_TRUE(server.open_region(desc, {}).is_ok());

  std::atomic<bool> stop{false};
  std::vector<std::vector<std::string>> acked(3);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < acked.size(); ++w) {
    threads.emplace_back([&, w] {
      for (Timestamp ts = 1; !stop.load(std::memory_order_acquire); ++ts) {
        const std::string row = "w" + std::to_string(w) + "-" + std::to_string(ts);
        ApplyRequest req;
        req.commit_ts = ts;
        req.client_id = "c";
        req.table = "t";
        req.mutations.push_back(Mutation{row, "c", "v", false});
        BatchApplyRequest frame;
        frame.slices.push_back(std::move(req));
        auto statuses = server.apply_batch(frame);
        ASSERT_TRUE(statuses.is_ok()) << statuses.status();
        ASSERT_TRUE(statuses.value().front().is_ok()) << statuses.value().front();
        acked[w].push_back(row);
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(server.region("t,")->flush_memstore().is_ok());
      server.maybe_roll_wal();
      sleep_micros(500);  // bounds the store-file count
    }
  });
  sleep_millis(200);
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  EXPECT_GT(server.wal().stats().segments_truncated, 10u);

  // Everything acked is durable now; then the server dies with its memstore.
  ASSERT_TRUE(server.persist_wal().is_ok());
  server.crash();
  auto edits = Wal::split(dfs, server.wal_path());
  ASSERT_TRUE(edits.is_ok()) << edits.status();
  RegionServer successor("rs2", dfs, coord, cfg);
  ASSERT_TRUE(successor.start().is_ok());
  ASSERT_TRUE(successor.open_region(desc, [&] { return edits.value()["t,"]; }).is_ok());
  std::size_t checked = 0;
  for (const auto& rows : acked) {
    for (const std::string& row : rows) {
      ++checked;
      auto cell = successor.get("t", row, "c", kMaxTimestamp);
      ASSERT_TRUE(cell.is_ok()) << cell.status();
      EXPECT_TRUE(cell.value().has_value()) << row << " lost: in no store file and not split";
    }
  }
  EXPECT_GT(checked, 100u);
  ASSERT_TRUE(successor.shutdown().is_ok());
}

TEST(WalRollTest, SplitAfterCrashSeesAllLiveSegments) {
  // Data synced across several segments must all come back in recovery,
  // while reclaimed segments are (correctly) gone.
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  for (Timestamp ts = 1; ts <= 6; ++ts) {
    ASSERT_TRUE(wal->append({rec(ts % 2 ? "odd" : "even", ts)}).is_ok());
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
  ASSERT_TRUE(wal->append({rec("r", 1)}).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());
  ASSERT_TRUE(wal->append({rec("r", 2)}).is_ok());
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
    ASSERT_TRUE(wal->append({rec(ts % 2 ? "odd" : "even", ts)}).is_ok());
    if (ts % 8 == 0) ASSERT_TRUE(wal->roll().is_ok());
  }
  ASSERT_TRUE(wal->sync().is_ok());
  auto grouped = Wal::split(dfs, "/wal/rs1.log").value();
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
    ASSERT_TRUE(wal->append({rec("r", ts)}).is_ok());
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

// Three segments of six records each, on 256-byte DFS blocks; odd frame
// sizes make frames straddle block boundaries.
constexpr const char* kBase = "/wal/rs1.log";

void write_three_segments(Dfs& dfs) {
  auto wal = Wal::create(dfs, kBase).value();
  for (Timestamp ts = 1; ts <= 18; ++ts) {
    WalRecord r = rec(ts % 3 == 0 ? "a" : "b", ts);
    r.cells.front().value = std::string(static_cast<std::size_t>(90 + ts), 'v');
    ASSERT_TRUE(wal->append({std::move(r)}).is_ok());
    if (ts % 6 == 0 && ts < 18) {
      ASSERT_TRUE(wal->roll().is_ok());
    }
  }
  ASSERT_TRUE(wal->sync().is_ok());
}

std::vector<std::string> segments(const Dfs& dfs) {
  auto paths = dfs.list(std::string(kBase) + ".");
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::int64_t durable_blocks(const Dfs& dfs) {
  const std::uint64_t block = dfs.config().block_size;
  std::int64_t blocks = 0;
  for (const auto& path : segments(dfs)) {
    blocks += static_cast<std::int64_t>((dfs.durable_size(path).value() + block - 1) / block);
  }
  return blocks;
}

TEST(WalBlockSplitTest, MatchesReadRecordsReadingEachBlockOnce) {
  Dfs dfs{DfsConfig{.block_size = 256}};
  write_three_segments(dfs);
  const auto paths = segments(dfs);
  ASSERT_EQ(paths.size(), 3u);
  for (const auto& path : paths) ASSERT_GT(dfs.durable_size(path).value(), 2 * 256u) << path;

  const std::int64_t before = dfs.stats().block_reads;
  auto grouped = Wal::split(dfs, kBase);
  ASSERT_TRUE(grouped.is_ok()) << grouped.status();
  EXPECT_EQ(dfs.stats().block_reads - before, durable_blocks(dfs));

  auto records = Wal::read_records(dfs, kBase).value();
  ASSERT_EQ(records.size(), 18u);
  std::map<std::string, std::vector<WalRecord>> expected;
  for (auto& r : records) expected[r.region].push_back(std::move(r));
  ASSERT_EQ(grouped.value().size(), expected.size());
  for (const auto& [region, want] : expected) {
    const auto& got = grouped.value()[region];
    ASSERT_EQ(got.size(), want.size()) << region;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(got[i - 1].seq, got[i].seq) << region;
      }
      EXPECT_EQ(got[i].seq, want[i].seq) << region;
      EXPECT_EQ(got[i].commit_ts, want[i].commit_ts) << region;
      EXPECT_EQ(got[i].cells.front().value, want[i].cells.front().value) << region;
    }
  }
}

TEST(WalBlockSplitTest, TornFrameInTheLastBlockTruncates) {
  Dfs dfs{DfsConfig{.block_size = 256}};
  write_three_segments(dfs);
  // A sync that raced the writer's crash left half a frame at the end.
  const std::string last = segments(dfs).back();
  ASSERT_TRUE(dfs.append(last, rec("b", 19).encode().substr(0, 40)).is_ok());
  ASSERT_TRUE(dfs.sync(last).is_ok());
  auto grouped = Wal::split(dfs, kBase);
  ASSERT_TRUE(grouped.is_ok()) << grouped.status();
  std::size_t total = 0;
  for (const auto& [region, records] : grouped.value()) total += records.size();
  EXPECT_EQ(total, 18u);
}

TEST(WalBlockSplitTest, BadChecksumInAMiddleBlockFailsTheWholeSplit) {
  Dfs dfs{DfsConfig{.block_size = 256}};
  write_three_segments(dfs);
  // Flip a payload byte of the first frame that starts past the middle
  // segment's first block, well before its last block.
  const std::string middle = segments(dfs)[1];
  const std::string data = dfs.read_all(middle).value();
  std::uint64_t offset = 0;
  for (;;) {
    std::uint32_t len = 0;
    std::memcpy(&len, data.data() + offset, sizeof(len));
    if (offset >= 256) {
      offset += 4 + len / 2;
      break;
    }
    offset += 4 + len + 4;  // length prefix, payload, checksum
  }
  ASSERT_LT(offset, data.size() / 256 * 256);
  ASSERT_TRUE(dfs.corrupt_byte(middle, offset).is_ok());
  auto split = Wal::split(dfs, kBase);
  ASSERT_FALSE(split.is_ok());
  EXPECT_EQ(split.status().code(), Code::kCorruption) << split.status();
}

TEST(WalBlockSplitTest, OneFailedBlockReadIsRetried) {
  Dfs dfs{DfsConfig{.block_size = 256}};
  FaultInjector fault;
  dfs.set_fault_injector(&fault);
  write_three_segments(dfs);
  FaultRule flaky;
  flaky.op = FaultOp::kDfsRead;
  flaky.target = segments(dfs)[1];
  flaky.fail_next = 1;
  fault.add_rule(flaky);
  const std::int64_t before = dfs.stats().block_reads;
  auto grouped = Wal::split(dfs, kBase);
  ASSERT_TRUE(grouped.is_ok()) << grouped.status();
  EXPECT_EQ(fault.stats().injected_errors, 1);
  // The failed try read nothing; the retry read the block once.
  EXPECT_EQ(dfs.stats().block_reads - before, durable_blocks(dfs));
  std::size_t total = 0;
  for (const auto& [region, records] : grouped.value()) total += records.size();
  EXPECT_EQ(total, 18u);
}

}  // namespace
}  // namespace tfr
