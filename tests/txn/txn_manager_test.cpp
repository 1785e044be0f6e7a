#include "src/txn/txn_manager.h"

#include <gtest/gtest.h>

#include <thread>

namespace tfr {
namespace {

WriteSet ws_on_rows(std::vector<std::string> rows) {
  WriteSet ws;
  ws.table = "t";
  for (auto& r : rows) ws.mutations.push_back(Mutation{r, "c", "v", false});
  return ws;
}

TEST(TxnManagerTest, CommitAssignsMonotonicTimestamps) {
  TxnManager tm(TxnLogConfig{});
  auto t1 = tm.begin(0);
  auto t2 = tm.begin(0);
  auto c1 = tm.commit(t1, ws_on_rows({"a"}), nullptr);
  auto c2 = tm.commit(t2, ws_on_rows({"b"}), nullptr);
  ASSERT_TRUE(c1.is_ok());
  ASSERT_TRUE(c2.is_ok());
  EXPECT_LT(c1.value(), c2.value());
  EXPECT_EQ(tm.current_ts(), c2.value());
}

TEST(TxnManagerTest, WriteWriteConflictAborts) {
  TxnManager tm(TxnLogConfig{});
  auto t1 = tm.begin(tm.current_ts());
  auto t2 = tm.begin(tm.current_ts());  // same snapshot
  ASSERT_TRUE(tm.commit(t1, ws_on_rows({"x"}), nullptr).is_ok());
  auto second = tm.commit(t2, ws_on_rows({"x"}), nullptr);
  EXPECT_TRUE(second.status().is_aborted());
  EXPECT_EQ(tm.stats().aborts_conflict, 1);
}

TEST(TxnManagerTest, DisjointRowsDoNotConflict) {
  TxnManager tm(TxnLogConfig{});
  auto t1 = tm.begin(tm.current_ts());
  auto t2 = tm.begin(tm.current_ts());
  ASSERT_TRUE(tm.commit(t1, ws_on_rows({"x"}), nullptr).is_ok());
  EXPECT_TRUE(tm.commit(t2, ws_on_rows({"y"}), nullptr).is_ok());
}

TEST(TxnManagerTest, LaterSnapshotSeesNoConflict) {
  TxnManager tm(TxnLogConfig{});
  auto t1 = tm.begin(tm.current_ts());
  ASSERT_TRUE(tm.commit(t1, ws_on_rows({"x"}), nullptr).is_ok());
  // t2 starts after t1 committed: no conflict even on the same row.
  auto t2 = tm.begin(tm.current_ts());
  EXPECT_TRUE(tm.commit(t2, ws_on_rows({"x"}), nullptr).is_ok());
}

TEST(TxnManagerTest, AbortDiscardsWithoutLogging) {
  TxnManager tm(TxnLogConfig{});
  auto t1 = tm.begin(0);
  tm.abort(t1);
  EXPECT_EQ(tm.stats().aborts_explicit, 1);
  EXPECT_TRUE(tm.log().fetch_after(0).empty());
  EXPECT_EQ(tm.current_ts(), 0);  // no commit timestamp consumed
}

TEST(TxnManagerTest, CommitAppendsToRecoveryLog) {
  TxnManager tm(TxnLogConfig{});
  auto t1 = tm.begin(0);
  WriteSet ws = ws_on_rows({"a", "b"});
  ws.client_id = "c9";
  auto committed = tm.commit(t1, std::move(ws), nullptr);
  ASSERT_TRUE(committed.is_ok());
  auto logged = tm.log().fetch_after(0);
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_EQ(logged[0].client_id, "c9");
  EXPECT_EQ(logged[0].commit_ts, committed.value());
  EXPECT_EQ(logged[0].mutations.size(), 2u);
}

TEST(TxnManagerTest, ReadOnlyCommitReleasesItsSnapshot) {
  TxnManager tm(TxnLogConfig{});
  auto reader = tm.begin(0, "reader");  // snapshot 0 pins the prune floor
  auto w = tm.begin(0);
  ASSERT_TRUE(tm.commit(w, ws_on_rows({"contested"}), nullptr).is_ok());
  tm.checkpoint(tm.current_ts());
  const auto bulk = [&tm](const std::string& prefix) {
    // Enough commits to run at least one conflict-table prune.
    for (int i = 0; i < 5000; ++i) {
      auto txn = tm.begin(tm.current_ts());
      ASSERT_TRUE(tm.commit(txn, ws_on_rows({prefix + std::to_string(i)}), nullptr).is_ok());
    }
  };
  // While the reader is open, the prune keeps "contested": a writer on the
  // old snapshot still conflicts with it.
  bulk("pinned");
  EXPECT_TRUE(tm.commit(tm.begin(0), ws_on_rows({"contested"}), nullptr).status().is_aborted());

  const Timestamp before = tm.current_ts();
  const auto appends = tm.log().stats().appends;
  auto committed = tm.commit(reader, WriteSet{}, [](Timestamp) { FAIL() << "listener called"; });
  ASSERT_TRUE(committed.is_ok());
  EXPECT_EQ(committed.value(), reader.start_ts);  // serializes at its snapshot
  EXPECT_EQ(tm.current_ts(), before);             // no timestamp drawn
  EXPECT_EQ(tm.log().stats().appends, appends);   // nothing logged
  EXPECT_EQ(tm.stats().commits, 5002);

  // The released snapshot no longer pins the floor: the next prune forgets
  // the old writer, so the same stale write no longer finds it.
  bulk("released");
  EXPECT_TRUE(tm.commit(tm.begin(0), ws_on_rows({"contested"}), nullptr).is_ok());
  tm.abandon_client("reader");  // the reader is no longer open
  EXPECT_EQ(tm.stats().aborts_explicit, 0);
}

TEST(TxnManagerTest, ListenerRunsBeforeCommitReturnsAndInOrder) {
  TxnManager tm(TxnLogConfig{});
  std::vector<Timestamp> seen;
  std::mutex mu;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto txn = tm.begin(tm.current_ts());
      (void)tm.commit(txn, ws_on_rows({"row" + std::to_string(t)}), [&](Timestamp ts) {
        std::lock_guard lock(mu);
        seen.push_back(ts);
      });
    });
  }
  for (auto& t : threads) t.join();
  // Listeners fire inside the ordering critical section: the recorded
  // sequence is exactly the commit order, gap-free.
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kThreads));
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i + 1);
}

TEST(TxnManagerTest, CurrentTsSerializesWithListeners) {
  TxnManager tm(TxnLogConfig{});
  // After current_ts() returns C, the listener of every commit <= C ran.
  std::atomic<Timestamp> last_listened{0};
  std::atomic<bool> stop{false};
  std::thread committer([&] {
    while (!stop) {
      auto txn = tm.begin(tm.current_ts());
      (void)tm.commit(txn, ws_on_rows({"r" + std::to_string(now_micros())}),
                      [&](Timestamp ts) { last_listened.store(ts); });
    }
  });
  for (int i = 0; i < 2000; ++i) {
    const Timestamp c = tm.current_ts();
    EXPECT_GE(last_listened.load(), c - 0) << "listener lagged behind current_ts";
    // (The listener for C itself completed before current_ts returned C.)
  }
  stop = true;
  committer.join();
}

TEST(TxnManagerTest, ConflictTablePruneKeepsCorrectness) {
  TxnManager tm(TxnLogConfig{});
  // Force many commits to trigger pruning, then verify a conflict against a
  // recent writer is still detected.
  for (int i = 0; i < 5000; ++i) {
    auto txn = tm.begin(tm.current_ts());
    ASSERT_TRUE(tm.commit(txn, ws_on_rows({"bulk" + std::to_string(i)}), nullptr).is_ok());
  }
  tm.checkpoint(tm.current_ts() - 10);
  auto old_snapshot = tm.begin(tm.current_ts() - 5);
  auto winner = tm.begin(tm.current_ts());
  ASSERT_TRUE(tm.commit(winner, ws_on_rows({"contested"}), nullptr).is_ok());
  EXPECT_TRUE(tm.commit(old_snapshot, ws_on_rows({"contested"}), nullptr).status().is_aborted());
}

TEST(TxnManagerTest, CheckpointTruncatesLog) {
  TxnManager tm(TxnLogConfig{});
  for (int i = 0; i < 10; ++i) {
    auto txn = tm.begin(tm.current_ts());
    ASSERT_TRUE(tm.commit(txn, ws_on_rows({"r" + std::to_string(i)}), nullptr).is_ok());
  }
  tm.checkpoint(5);
  EXPECT_EQ(tm.log().fetch_after(0).size(), 5u);
}

TEST(TxnManagerTest, AbandonClientReapsOpenTransactions) {
  TxnManager tm(TxnLogConfig{});
  (void)tm.begin(0, "dead-client");
  (void)tm.begin(0, "dead-client");
  auto other = tm.begin(0, "live-client");
  tm.abandon_client("dead-client");
  EXPECT_EQ(tm.stats().aborts_explicit, 2);
  tm.abandon_client("dead-client");  // idempotent
  EXPECT_EQ(tm.stats().aborts_explicit, 2);
  // The live client's transaction is untouched and still commits.
  EXPECT_TRUE(tm.commit(other, ws_on_rows({"r"}), nullptr).is_ok());
}

TEST(TxnManagerTest, CommitAfterAbandonIsHarmless) {
  // A racing commit from a client that was just declared dead must not
  // corrupt the active-set bookkeeping.
  TxnManager tm(TxnLogConfig{});
  auto txn = tm.begin(0, "zombie");
  tm.abandon_client("zombie");
  WriteSet ws = ws_on_rows({"r"});
  ws.client_id = "zombie";
  EXPECT_TRUE(tm.commit(txn, std::move(ws), nullptr).is_ok());
}

TEST(TxnManagerTest, AbandonUnblocksConflictTablePruning) {
  TxnManager tm(TxnLogConfig{});
  auto pinner = tm.begin(0, "dead-client");  // snapshot 0 pins the floor
  (void)pinner;
  for (int i = 0; i < 5000; ++i) {
    auto txn = tm.begin(tm.current_ts());
    ASSERT_TRUE(tm.commit(txn, ws_on_rows({"bulk" + std::to_string(i)}), nullptr).is_ok());
  }
  tm.checkpoint(tm.current_ts());
  tm.abandon_client("dead-client");
  // Trigger another prune cycle; with the pin gone the table can shrink.
  // (Observable effect: a fresh old-ish snapshot no longer conflicts with
  // rows whose last writer was pruned — but correctness forbids reading
  // below the checkpoint anyway, so we only assert the commit path works.)
  for (int i = 0; i < 5000; ++i) {
    auto txn = tm.begin(tm.current_ts());
    ASSERT_TRUE(tm.commit(txn, ws_on_rows({"more" + std::to_string(i)}), nullptr).is_ok());
  }
  EXPECT_EQ(tm.stats().commits, 10000);
}

TEST(TxnManagerTest, ConcurrentCommitsAllSucceedOnDistinctRows) {
  TxnManager tm(TxnLogConfig{});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  std::atomic<int> committed{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto txn = tm.begin(tm.current_ts());
        if (tm.commit(txn, ws_on_rows({"t" + std::to_string(t) + "-" + std::to_string(i)}),
                      nullptr)
                .is_ok()) {
          ++committed;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(committed.load(), kThreads * kPerThread);
  EXPECT_EQ(tm.current_ts(), kThreads * kPerThread);
  EXPECT_EQ(tm.log().fetch_after(0).size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace tfr
