#include "src/kv/wal.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "src/common/codec.h"
#include "src/common/crc32.h"

namespace tfr {
namespace {

WalRecord make_record(const std::string& region, Timestamp ts, const std::string& row) {
  WalRecord r;
  r.region = region;
  r.txn_id = static_cast<std::uint64_t>(ts);
  r.client_id = "c1";
  r.commit_ts = ts;
  r.cells.push_back(Cell{row, "c", "v" + std::to_string(ts), ts, false});
  return r;
}

TEST(WalRecordTest, EncodeDecodeRoundTrip) {
  // The frame is length-prefixed and checksummed; decode the payload inside.
  WalFrames frames({make_record("t,", 42, "rowX")});
  frames.seal(7);
  Decoder dec(frames.bytes());
  std::string payload;
  ASSERT_TRUE(dec.get_string(&payload).is_ok());
  std::uint32_t checksum = 0;
  ASSERT_TRUE(dec.get_u32(&checksum).is_ok());
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(checksum, crc32c(payload));
  auto decoded = WalRecord::decode(payload);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().region, "t,");
  EXPECT_EQ(decoded.value().seq, 7u);
  EXPECT_EQ(decoded.value().commit_ts, 42);
  ASSERT_EQ(decoded.value().cells.size(), 1u);
  EXPECT_EQ(decoded.value().cells[0].row, "rowX");
}

TEST(WalTest, AppendAssignsMonotonicSeq) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  EXPECT_EQ(wal->append({make_record("r", 1, "a")}).value(), 1u);
  EXPECT_EQ(wal->append({make_record("r", 2, "b")}).value(), 2u);
  EXPECT_EQ(wal->appended_seq(), 2u);
  EXPECT_EQ(wal->synced_seq(), 0u);
}

TEST(WalTest, BatchAppendTakesConsecutiveSeqs) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  EXPECT_EQ(wal->append({make_record("r", 1, "a")}).value(), 1u);
  EXPECT_EQ(wal->append({make_record("r", 2, "b"), make_record("q", 3, "c"),
                         make_record("r", 4, "d")})
                .value(),
            2u);  // the batch's first seq
  EXPECT_EQ(wal->appended_seq(), 4u);
  EXPECT_EQ(wal->append({}).status().code(), Code::kInvalidArgument);
  EXPECT_EQ(wal->appended_seq(), 4u);
  ASSERT_TRUE(wal->sync().is_ok());
  const auto records = Wal::read_records(dfs, "/wal/rs1.log").value();
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i + 1);
    EXPECT_EQ(records[i].commit_ts, static_cast<Timestamp>(i + 1));  // batch order kept
  }
}

TEST(WalTest, TornTailAfterABatchKeepsTheDurablePrefix) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append({make_record("r", 1, "a"), make_record("r", 2, "b"),
                           make_record("r", 3, "c")})
                  .is_ok());
  ASSERT_TRUE(wal->sync().is_ok());
  // A sync that raced a crash left half of the next frame durable.
  const std::string next = WalFrames({make_record("r", 4, "d")}).bytes();
  ASSERT_TRUE(dfs.append("/wal/rs1.log.00000001", next.substr(0, next.size() / 2)).is_ok());
  ASSERT_TRUE(dfs.sync("/wal/rs1.log.00000001").is_ok());
  const auto records = Wal::read_records(dfs, "/wal/rs1.log").value();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.back().seq, 3u);
  EXPECT_EQ(records.back().commit_ts, 3);
}

TEST(WalTest, SyncAdvancesSyncedSeq) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append({make_record("r", 1, "a")}).is_ok());
  ASSERT_TRUE(wal->sync().is_ok());
  EXPECT_EQ(wal->synced_seq(), 1u);
}

TEST(WalTest, CrashLosesUnsyncedRecords) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append({make_record("r", 1, "a")}).is_ok());
  ASSERT_TRUE(wal->sync().is_ok());
  ASSERT_TRUE(wal->append({make_record("r", 2, "b")}).is_ok());  // never synced
  wal->crash();
  auto records = Wal::read_records(dfs, "/wal/rs1.log").value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].commit_ts, 1);
}

TEST(WalTest, SplitGroupsByRegionInSeqOrder) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append({make_record("regA", 1, "a")}).is_ok());
  ASSERT_TRUE(wal->append({make_record("regB", 2, "m")}).is_ok());
  ASSERT_TRUE(wal->append({make_record("regA", 3, "b")}).is_ok());
  ASSERT_TRUE(wal->sync().is_ok());
  auto grouped = Wal::split(dfs, "/wal/rs1.log").value();
  ASSERT_EQ(grouped.size(), 2u);
  ASSERT_EQ(grouped["regA"].size(), 2u);
  EXPECT_EQ(grouped["regA"][0].commit_ts, 1);
  EXPECT_EQ(grouped["regA"][1].commit_ts, 3);
  ASSERT_EQ(grouped["regB"].size(), 1u);
}

TEST(WalTest, EmptyWalSplitsToNothing) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->sync().is_ok());
  EXPECT_TRUE(Wal::split(dfs, "/wal/rs1.log").value().empty());
}

TEST(WalTest, ConcurrentAppendersAllLand) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&wal, t] {
      for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(wal->append({make_record("r" + std::to_string(t), t * 1000 + i, "row")})
                        .is_ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(wal->sync().is_ok());
  auto records = Wal::read_records(dfs, "/wal/rs1.log").value();
  EXPECT_EQ(records.size(), 400u);
  // Sequence numbers are unique and dense.
  std::set<std::uint64_t> seqs;
  for (const auto& r : records) seqs.insert(r.seq);
  EXPECT_EQ(seqs.size(), 400u);
  EXPECT_EQ(*seqs.rbegin(), 400u);
}

TEST(WalTest, ConcurrentBatchesDecodeWithTheSeqsAppendReturned) {
  // Batches are encoded outside the WAL lock and stamped under it: every
  // record must read back once, bearing the seq its batch was given.
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  constexpr int kThreads = 4;
  constexpr int kBatches = 200;
  // txn_id names a record: thread * 1e6 + batch * 100 + index in the batch.
  std::vector<std::map<std::uint64_t, std::uint64_t>> expected(kThreads);  // txn_id -> seq
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, &expected, t] {
      for (int b = 0; b < kBatches; ++b) {
        const int size = (t * 7 + b * 5) % 16 + 1;
        std::vector<WalRecord> batch;
        for (int i = 0; i < size; ++i) {
          WalRecord r = make_record("r" + std::to_string(i % 3), b + 1, "row" + std::to_string(i));
          r.txn_id = static_cast<std::uint64_t>(t) * 1'000'000 + b * 100 + i;
          batch.push_back(std::move(r));
        }
        auto first = wal->append(batch);
        ASSERT_TRUE(first.is_ok()) << first.status();
        for (int i = 0; i < size; ++i) expected[t][batch[i].txn_id] = first.value() + i;
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(wal->sync().is_ok());
  EXPECT_EQ(wal->synced_seq(), wal->appended_seq());

  std::map<std::uint64_t, std::uint64_t> want;
  for (const auto& per_thread : expected) want.insert(per_thread.begin(), per_thread.end());
  const auto records = Wal::read_records(dfs, "/wal/rs1.log").value();
  ASSERT_EQ(records.size(), want.size());
  EXPECT_EQ(wal->appended_seq(), want.size());
  std::set<std::uint64_t> seen;
  for (const auto& r : records) {
    ASSERT_TRUE(seen.insert(r.txn_id).second) << "txn " << r.txn_id << " read back twice";
    auto it = want.find(r.txn_id);
    ASSERT_NE(it, want.end()) << "txn " << r.txn_id;
    EXPECT_EQ(r.seq, it->second) << "txn " << r.txn_id;
    EXPECT_EQ(r.commit_ts, static_cast<Timestamp>(r.txn_id % 1'000'000 / 100 + 1));
  }
}

TEST(WalTest, GroupCommitSkipsRedundantSyncs) {
  DfsConfig cfg;
  Dfs dfs{cfg};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append({make_record("r", 1, "a")}).is_ok());
  ASSERT_TRUE(wal->sync().is_ok());
  ASSERT_TRUE(wal->sync().is_ok());  // nothing new: free no-op in the DFS
  EXPECT_EQ(dfs.stats().syncs, 1);
}

TEST(WalTest, ReadRecordsOnMissingFileFails) {
  Dfs dfs{DfsConfig{}};
  EXPECT_TRUE(Wal::read_records(dfs, "/nope").status().is_not_found());
}

TEST(WalTest, StatsReflectActivity) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append({make_record("r", 1, "a")}).is_ok());
  ASSERT_TRUE(wal->append({make_record("r", 2, "b")}).is_ok());
  ASSERT_TRUE(wal->sync().is_ok());
  const auto stats = wal->stats();
  EXPECT_EQ(stats.appended_records, 2u);
  EXPECT_EQ(stats.synced_records, 2u);
  EXPECT_EQ(stats.syncs, 1u);
}

}  // namespace
}  // namespace tfr
