// Dynamic region topology (§9): split-key selection from store-file
// metadata, reference-marker inheritance, compaction dereferencing, the
// master's janitor, merges, the balancer triggers, and the client routing
// cache that keeps up with all of it.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/kv/cluster.h"
#include "src/kv/kv_client.h"
#include "src/kv/store_file.h"

namespace tfr {
namespace {

// --- store-file split metadata -----------------------------------------------

TEST(SplitMetadataTest, MidpointRowAndDataBytes) {
  Dfs dfs{DfsConfig{}};
  StoreFileWriter writer(/*target_block_bytes=*/128);
  for (int i = 0; i < 100; ++i) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    writer.add(Cell{row, "c", "value-" + std::to_string(i), 1, false});
  }
  ASSERT_TRUE(writer.finish(dfs, "/sf").is_ok());
  auto reader = StoreFileReader::open(dfs, "/sf").value();
  ASSERT_GT(reader->block_count(), 2u);
  EXPECT_GT(reader->data_bytes(), 0u);
  const std::string mid = reader->midpoint_row();
  EXPECT_GT(mid, "row00000");
  EXPECT_LT(mid, "row00099");
}

// --- region-level split support ----------------------------------------------

class TopologyRegionTest : public ::testing::Test {
 protected:
  TopologyRegionTest() : dfs_(DfsConfig{}), cache_(1 << 20) {}

  std::unique_ptr<Region> make_region() {
    auto region = std::make_unique<Region>(RegionDescriptor{"t", "", ""}, dfs_, cache_,
                                           /*store_block_bytes=*/256);
    EXPECT_TRUE(region->load_store_files().is_ok());
    region->set_state(RegionState::kOnline);
    return region;
  }

  Dfs dfs_;
  BlockCache cache_;
};

TEST_F(TopologyRegionTest, ChooseSplitKeyDividesTheKeyRange) {
  auto region = make_region();
  std::vector<Cell> cells;
  for (int i = 0; i < 200; ++i) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    cells.push_back(Cell{row, "c", "v" + std::to_string(i), 1, false});
  }
  ASSERT_TRUE(region->apply(cells));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  auto key = region->choose_split_key();
  ASSERT_TRUE(key.is_ok());
  EXPECT_GT(key.value(), "row00000");
  EXPECT_LT(key.value(), "row00199");
}

TEST_F(TopologyRegionTest, ChooseSplitKeyRefusesSingleRow) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"only", "c", "v", 1, false}}));
  EXPECT_EQ(region->choose_split_key().status().code(), Code::kInvalidArgument);
  // Even across a flush (one row, one store file): still nothing to split.
  ASSERT_TRUE(region->flush_memstore().is_ok());
  EXPECT_EQ(region->choose_split_key().status().code(), Code::kInvalidArgument);
}

TEST_F(TopologyRegionTest, ApplyRejectedWhenOffline) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"r", "c", "v", 1, false}}));
  region->set_state(RegionState::kOffline);
  EXPECT_FALSE(region->apply({Cell{"r2", "c", "v2", 2, false}}));
  region->set_state(RegionState::kOnline);
  // Nothing leaked into the memstore while offline.
  EXPECT_FALSE(region->get("r2", "c", 10).value().has_value());
}

// --- cluster-level topology transitions ---------------------------------------

ClusterConfig topo_cluster(int servers) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.coord_check_interval = millis(5);
  cfg.server.heartbeat_interval = millis(20);
  cfg.server.session_ttl = millis(150);
  cfg.server.wal_sync_interval = millis(10);
  // Keep auto-compaction out of the way: these tests assert on reference
  // markers, which a background compaction legitimately removes.
  cfg.server.compaction_file_threshold = 0;
  return cfg;
}

WriteSet rows_ws(Timestamp ts, int from, int to) {
  WriteSet ws;
  ws.commit_ts = ts;
  ws.client_id = "c";
  ws.table = "t";
  for (int i = from; i < to; ++i) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    ws.mutations.push_back(Mutation{row, "c", "v" + std::to_string(i), false});
  }
  return ws;
}

std::size_t count_ref_markers(Dfs& dfs, const std::string& region_name) {
  std::size_t n = 0;
  for (const auto& path : dfs.list(region_data_dir(region_name))) {
    const auto slash = path.rfind('/');
    if (slash != std::string::npos && path.compare(slash + 1, 4, "ref-") == 0) ++n;
  }
  return n;
}

TEST(TopologyClusterTest, SplitInheritsFilesByReference) {
  Cluster cluster(topo_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({rows_ws(1, 0, 100)}).is_ok());

  const std::string parent = cluster.master().table_regions("t").front().region_name;
  ASSERT_TRUE(cluster.master().split_region(parent).is_ok());
  auto regions = cluster.master().table_regions("t");
  ASSERT_EQ(regions.size(), 2u);

  // Daughters hold reference markers, not copies; the parent's store files
  // survive in its (retired) dir and every row reads through the refs.
  for (const auto& r : regions) {
    EXPECT_GT(count_ref_markers(cluster.dfs(), r.region_name), 0u) << r.region_name;
    auto region = cluster.master().server_stub(r.server_id)->region(r.region_name);
    ASSERT_NE(region, nullptr);
    EXPECT_TRUE(region->has_references());
  }
  EXPECT_FALSE(cluster.dfs().list(region_data_dir(parent)).empty());
  for (int i = 0; i < 100; i += 9) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    auto v = client.get("t", row, "c", 100);
    ASSERT_TRUE(v.is_ok());
    ASSERT_TRUE(v.value().has_value()) << row;
  }
  // The transition left one durable retired record (the parent) for the
  // janitor.
  EXPECT_EQ(cluster.coord().list(kRetiredRegionPrefix).size(), 1u);
}

TEST(TopologyClusterTest, CompactionDereferencesAndJanitorReclaims) {
  Cluster cluster(topo_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({rows_ws(1, 0, 100)}).is_ok());

  const std::string parent = cluster.master().table_regions("t").front().region_name;
  ASSERT_TRUE(cluster.master().split_region(parent).is_ok());

  // While refs are live the janitor must not touch the parent dir.
  cluster.master().balance_once();
  EXPECT_FALSE(cluster.dfs().list(region_data_dir(parent)).empty());
  EXPECT_EQ(cluster.coord().list(kRetiredRegionPrefix).size(), 1u);

  // Compacting each daughter rewrites its half locally and drops the marker.
  for (const auto& r : cluster.master().table_regions("t")) {
    auto* server = cluster.master().server_stub(r.server_id);
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server->compact_region(r.region_name).is_ok());
    auto region = server->region(r.region_name);
    ASSERT_NE(region, nullptr);
    EXPECT_FALSE(region->has_references());
    EXPECT_EQ(count_ref_markers(cluster.dfs(), r.region_name), 0u);
  }

  // Now the janitor reclaims the retired parent dir and the record.
  cluster.master().balance_once();
  EXPECT_TRUE(cluster.dfs().list(region_data_dir(parent)).empty());
  EXPECT_TRUE(cluster.coord().list(kRetiredRegionPrefix).empty());

  for (int i = 0; i < 100; i += 11) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    EXPECT_EQ(client.get("t", row, "c", 100).value()->value, "v" + std::to_string(i));
  }
}

TEST(TopologyClusterTest, MergeAdjacentRegions) {
  Cluster cluster(topo_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"row00050"}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({rows_ws(1, 0, 100)}).is_ok());

  auto regions = cluster.master().table_regions("t");
  ASSERT_EQ(regions.size(), 2u);
  const std::string left =
      regions[0].descriptor.start_key.empty() ? regions[0].region_name : regions[1].region_name;
  const std::string right =
      regions[0].descriptor.start_key.empty() ? regions[1].region_name : regions[0].region_name;
  ASSERT_TRUE(cluster.master().merge_regions(left, right).is_ok());

  regions = cluster.master().table_regions("t");
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_TRUE(regions[0].descriptor.start_key.empty());
  EXPECT_TRUE(regions[0].descriptor.end_key.empty());
  // One retired record per parent.
  EXPECT_EQ(cluster.coord().list(kRetiredRegionPrefix).size(), 2u);
  for (int i = 0; i < 100; i += 7) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    EXPECT_EQ(client.get("t", row, "c", 100).value()->value, "v" + std::to_string(i));
  }
  // Writes land in the merged region.
  ASSERT_TRUE(client.flush_writesets({rows_ws(2, 0, 10)}).is_ok());
}

TEST(TopologyClusterTest, MergeOfSplitDaughtersSharesGrandparentFiles) {
  Cluster cluster(topo_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  KvClient client(cluster.master(), millis(1));
  const RegionLocation grandparent = cluster.master().table_regions("t").front();
  RegionServer* host = cluster.master().server_stub(grandparent.server_id);
  ASSERT_NE(host, nullptr);
  // Two flushes: the grandparent owns two store files.
  ASSERT_TRUE(client.flush_writesets({rows_ws(1, 0, 50)}).is_ok());
  ASSERT_TRUE(host->region(grandparent.region_name)->flush_memstore().is_ok());
  ASSERT_TRUE(client.flush_writesets({rows_ws(2, 50, 100)}).is_ok());
  ASSERT_TRUE(host->region(grandparent.region_name)->flush_memstore().is_ok());
  const std::size_t grandparent_files =
      host->region(grandparent.region_name)->store_file_paths().size();
  ASSERT_EQ(grandparent_files, 2u);

  ASSERT_TRUE(cluster.master().split_region(grandparent.region_name).is_ok());
  auto daughters = cluster.master().table_regions("t");
  ASSERT_EQ(daughters.size(), 2u);
  if (!daughters[0].descriptor.start_key.empty()) std::swap(daughters[0], daughters[1]);
  for (const auto& d : daughters) {
    EXPECT_EQ(count_ref_markers(cluster.dfs(), d.region_name), grandparent_files);
  }

  // Both daughters reference the same grandparent files; the merged region
  // gets each one once, and every marker resolves into the grandparent dir.
  ASSERT_TRUE(
      cluster.master().merge_regions(daughters[0].region_name, daughters[1].region_name).is_ok());
  const auto merged = cluster.master().table_regions("t");
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(count_ref_markers(cluster.dfs(), merged[0].region_name), grandparent_files);
  for (const auto& path : cluster.dfs().list(region_data_dir(merged[0].region_name))) {
    auto target = cluster.dfs().read_all(path);
    ASSERT_TRUE(target.is_ok());
    EXPECT_EQ(target.value().rfind(region_data_dir(grandparent.region_name), 0), 0u) << path;
  }
  EXPECT_EQ(cluster.coord().list(kRetiredRegionPrefix).size(), 3u);
  for (int i = 0; i < 100; ++i) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    EXPECT_EQ(client.get("t", row, "c", 100).value()->value, "v" + std::to_string(i)) << row;
  }

  // Once the merged region compacts, no live marker is left: one janitor
  // sweep reclaims the grandparent and both daughter dirs (the daughters'
  // own markers into the grandparent are not live — they never reopen) and
  // erases all three retired records.
  ASSERT_TRUE(host->compact_region(merged[0].region_name).is_ok());
  EXPECT_EQ(count_ref_markers(cluster.dfs(), merged[0].region_name), 0u);
  cluster.master().balance_once();
  EXPECT_TRUE(cluster.dfs().list(region_data_dir(grandparent.region_name)).empty());
  for (const auto& d : daughters) {
    EXPECT_TRUE(cluster.dfs().list(region_data_dir(d.region_name)).empty()) << d.region_name;
  }
  EXPECT_TRUE(cluster.coord().list(kRetiredRegionPrefix).empty());
  for (int i = 0; i < 100; i += 3) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    EXPECT_EQ(client.get("t", row, "c", 100).value()->value, "v" + std::to_string(i)) << row;
  }
}

TEST(TopologyClusterTest, MergeRefusesNonAdjacentRegions) {
  Cluster cluster(topo_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"g", "q"}).is_ok());
  auto regions = cluster.master().table_regions("t");
  ASSERT_EQ(regions.size(), 3u);
  // Regions come back sorted by start key: ["", g), [g, q), [q, "").
  EXPECT_EQ(cluster.master()
                .merge_regions(regions[0].region_name, regions[2].region_name)
                .code(),
            Code::kInvalidArgument);
  // Order matters too: (right, left) is not an adjacent pair.
  EXPECT_EQ(cluster.master()
                .merge_regions(regions[1].region_name, regions[0].region_name)
                .code(),
            Code::kInvalidArgument);
}

TEST(TopologyClusterTest, BalancerSplitsOversizedRegionAndCountsIt) {
  reset_global_counters();
  Cluster cluster(topo_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({rows_ws(1, 0, 200)}).is_ok());

  BalancerConfig cfg;        // manual ticks only (interval == 0)
  cfg.split_store_bytes = 1; // any flushed region is "oversized"
  cluster.master().enable_balancer(cfg);
  cluster.master().balance_once();

  EXPECT_EQ(cluster.master().table_regions("t").size(), 2u);
  EXPECT_GE(global_counter("master.region_splits").get(), 1);
}

TEST(TopologyClusterTest, BalancerLocalizesASplitChildBeforeSplittingItAgain) {
  // A child reads its half through a reference to the whole parent file, so
  // its apparent size is the parent's. The balancer must localize it first
  // and judge its own half, not split it again by the parent's bytes.
  reset_global_counters();
  Cluster cluster(topo_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({rows_ws(1, 0, 200)}).is_ok());
  const RegionLocation parent = cluster.master().table_regions("t").front();
  auto region = cluster.master().server_stub(parent.server_id)->region(parent.region_name);
  ASSERT_TRUE(region->flush_memstore().is_ok());
  const std::uint64_t parent_bytes = region->store_bytes();
  ASSERT_GT(parent_bytes, 0u);
  region.reset();

  BalancerConfig cfg;  // manual ticks only (interval == 0)
  cfg.split_store_bytes = parent_bytes * 3 / 4;  // the parent is over, each half under
  cluster.master().enable_balancer(cfg);
  int ticks = 0;
  while (cluster.master().balance_once() > 0 && ++ticks < 10) {
  }
  ASSERT_LT(ticks, 10) << "the balancer never settled";

  EXPECT_EQ(global_counter("master.region_splits").get(), 1);
  const auto children = cluster.master().table_regions("t");
  ASSERT_EQ(children.size(), 2u);
  for (const auto& child : children) {
    auto hosted = cluster.master().server_stub(child.server_id)->region(child.region_name);
    ASSERT_NE(hosted, nullptr);
    EXPECT_FALSE(hosted->has_references()) << child.region_name;
    EXPECT_LE(hosted->store_bytes(), cfg.split_store_bytes) << child.region_name;
  }
  for (int i = 0; i < 200; i += 13) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    EXPECT_EQ(client.get("t", row, "c", 100).value()->value, "v" + std::to_string(i));
  }
}

TEST(TopologyClusterTest, BalancerMergesColdAdjacentPair) {
  reset_global_counters();
  Cluster cluster(topo_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"row00050"}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({rows_ws(1, 0, 100)}).is_ok());

  BalancerConfig cfg;
  cfg.merge_traffic_ops = 1u << 20;  // everything is "cold"
  cfg.merge_store_bytes = 1ull << 30;
  cluster.master().enable_balancer(cfg);
  cluster.master().balance_once();  // first tick seeds the traffic baseline
  cluster.master().balance_once();

  EXPECT_EQ(cluster.master().table_regions("t").size(), 1u);
  EXPECT_GE(global_counter("master.region_merges").get(), 1);
}

TEST(TopologyClusterTest, BackgroundBalancerSpreadsOneHotRegionUnderWrites) {
  // Zipfian hot-key writes from three clients land on a table that starts
  // as one region on one of four servers. The background balancer alone
  // must split the growing region and spread the daughters while the
  // writers re-locate through the fenced transitions.
  constexpr std::size_t kServers = 4;
  constexpr std::uint64_t kRows = 512;
  constexpr int kWriters = 3;
  reset_global_counters();
  ClusterConfig cfg = topo_cluster(kServers);
  cfg.server.heartbeat_interval = millis(10);  // load reports ride heartbeats
  cfg.server.session_ttl = seconds(3);
  cfg.server.memstore_flush_bytes = 2048;  // flush often: splits need store files
  cfg.server.compaction_file_threshold = 4;
  cfg.balancer.interval = millis(5);
  cfg.balancer.split_store_bytes = 6 * 1024;
  cfg.balancer.move_load_ratio = 2.0;
  cfg.balancer.move_min_ops = 16;
  cfg.balancer.max_actions_per_tick = 2;  // merges stay off (thresholds 0)
  Cluster cluster(cfg);
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  ASSERT_EQ(cluster.master().table_regions("t").size(), 1u);

  // The writers run until the background loop has made one region per
  // server, so its splits and moves land among the writes.
  std::atomic<Timestamp> next_ts{1};
  std::atomic<bool> spread{false};
  std::atomic<int> failed{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(0x5eedULL + static_cast<std::uint64_t>(w));
      ZipfianChooser keys(kRows);
      KvClient client(cluster.master(), millis(1));
      while (!spread.load()) {
        WriteSet ws = rows_ws(next_ts.fetch_add(1), 0, 0);
        char row[16];
        std::snprintf(row, sizeof(row), "row%05llu",
                      static_cast<unsigned long long>(keys.next(rng)));
        ws.mutations.push_back(Mutation{row, "c", std::string(128, 'v'), false});
        if (!client.flush_writesets({ws}).is_ok()) ++failed;
      }
    });
  }
  const Micros deadline = now_micros() + seconds(30);
  while (cluster.master().table_regions("t").size() < kServers && now_micros() < deadline) {
    sleep_micros(millis(1));
  }
  spread = true;
  for (auto& t : writers) t.join();
  EXPECT_EQ(failed.load(), 0);

  // Drain the balancer's backlog on the same configuration: tick until a
  // tick takes no action.
  cluster.master().disable_balancer();
  int ticks = 0;
  while (cluster.master().balance_once() > 0 && ++ticks < 1000) {
  }
  ASSERT_LT(ticks, 1000) << "the balancer never settled";

  EXPECT_GE(global_counter("master.region_splits").get(), 1);
  std::map<std::string, int> per_server;
  for (const auto& id : cluster.master().live_servers()) per_server[id] = 0;
  for (const auto& loc : cluster.master().table_regions("t")) ++per_server[loc.server_id];
  ASSERT_EQ(per_server.size(), kServers);
  int lo = 1 << 30, hi = 0;
  for (const auto& [id, n] : per_server) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_GE(lo, 1) << "a live server hosts no region";
  EXPECT_LE(hi, 2 * lo) << "unbalanced layout";
  EXPECT_EQ(global_counter("master.wal_split_failures").get(), 0);
}

// --- client routing cache ------------------------------------------------------

TEST(RoutingCacheTest, CachesRoutesAndInvalidatesAcrossSplit) {
  Cluster cluster(topo_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  // The route counters are process-wide; this test's one client moves them.
  Counter& hits = global_counter("kv.route_hits");
  Counter& misses = global_counter("kv.route_misses");
  Counter& invalidations = global_counter("kv.route_invalidations");
  const std::int64_t hits_before = hits.get();
  const std::int64_t misses_before = misses.get();
  const std::int64_t invalidations_before = invalidations.get();
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({rows_ws(1, 0, 100)}).is_ok());

  // Repeated reads of one row: one miss, then cache hits.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.get("t", "row00010", "c", 100).is_ok());
  }
  EXPECT_GT(hits.get(), hits_before);
  const std::int64_t warm_misses = misses.get();
  EXPECT_GT(warm_misses, misses_before);

  // Split, then move one daughter to the OTHER server: a split alone keeps
  // the daughters co-located, so the stale cached route would still land on
  // a server that can serve the row (the RPC routes by table+row). Only
  // once ownership actually moved does the stale route hit a non-owner.
  ASSERT_TRUE(cluster.master().split_region("t,").is_ok());
  auto regions = cluster.master().table_regions("t");
  ASSERT_EQ(regions.size(), 2u);
  const auto& moved = regions[0].descriptor.start_key.empty() ? regions[1] : regions[0];
  std::string target;
  for (const auto& id : cluster.master().live_servers()) {
    if (id != moved.server_id) target = id;
  }
  ASSERT_FALSE(target.empty());
  ASSERT_TRUE(cluster.master().move_region(moved.region_name, target).is_ok());

  // Every row still resolves; rows now hosted by the moved daughter force a
  // staleness signal -> invalidation -> re-locate, never a wrong answer.
  for (int i = 0; i < 100; i += 5) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    auto v = client.get("t", row, "c", 100);
    ASSERT_TRUE(v.is_ok());
    ASSERT_TRUE(v.value().has_value()) << row;
  }
  EXPECT_GT(invalidations.get(), invalidations_before);
  EXPECT_GT(misses.get(), warm_misses);
}

}  // namespace
}  // namespace tfr
