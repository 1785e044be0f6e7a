#include "bench/tfrbench/snapshot.h"

#include "src/common/metrics.h"

namespace tfrbench {

using namespace tfr;

Snapshot take_snapshot(Testbed& bed) {
  Snapshot s;
  auto put = [&s](const std::string& key, auto value) { s[key] = static_cast<double>(value); };

  const TxnLogStats log = bed.tm().log().stats();
  put("txn_log.appends", log.appends);
  put("txn_log.batches", log.batches);
  put("txn_log.group_waits", log.group_waits);
  put("txn_log.gc_segments", log.gc_segments);
  put("txn_log.retained_records", log.retained_records);
  const TxnManagerStats tm = bed.tm().stats();
  put("tm.commits", tm.commits);
  put("tm.aborts_conflict", tm.aborts_conflict);

  WalStats wal;
  BlockCacheStats cache;
  double store_files = 0, regions = 0;
  for (int i = 0; i < bed.cluster().num_servers(); ++i) {
    RegionServer& server = bed.cluster().server(i);
    const WalStats w = server.wal().stats();
    wal.appended_records += w.appended_records;
    wal.syncs += w.syncs;
    wal.rolls += w.rolls;
    wal.segments_truncated += w.segments_truncated;
    const BlockCacheStats c = server.block_cache().stats();
    cache.hits += c.hits;
    cache.misses += c.misses;
    cache.evictions += c.evictions;
    cache.single_flight_waits += c.single_flight_waits;
    if (!server.alive()) continue;
    for (const std::string& name : server.region_names()) {
      if (auto region = server.region(name)) {
        store_files += static_cast<double>(region->store_file_count());
        regions += 1;
      }
    }
  }
  put("wal.appended_records", wal.appended_records);
  put("wal.syncs", wal.syncs);
  put("wal.rolls", wal.rolls);
  put("wal.segments_truncated", wal.segments_truncated);
  put("block_cache.hits", cache.hits);
  put("block_cache.misses", cache.misses);
  put("block_cache.evictions", cache.evictions);
  put("block_cache.single_flight_waits", cache.single_flight_waits);
  put("region.store_files", store_files);
  put("region.count", regions);

  const DfsStats dfs = bed.dfs().stats();
  put("dfs.syncs", dfs.syncs);
  put("dfs.block_reads", dfs.block_reads);
  put("dfs.bytes_synced", dfs.bytes_synced);

  if (bed.has_rm()) {
    const RecoveryManagerStats rm = bed.rm().stats();
    put("rm.threshold_refreshes", rm.threshold_refreshes);
    put("rm.regions_recovered", rm.regions_recovered);
    put("rm.writesets_replayed_server", rm.writesets_replayed_server);
    const RecoveryClientStats rc = bed.rm().recovery_client_stats();
    put("recovery_client.mutations_replayed", rc.mutations_replayed);
    put("recovery_client.mutations_skipped", rc.mutations_skipped);
  }

  for (const auto& [name, value] : global_counter_snapshot()) put("counter." + name, value);
  for (const auto& [name, value] : global_gauge_snapshot()) put("gauge." + name, value);
  for (const auto& [name, hist] : global_histogram_snapshot()) {
    if (name != "log.sync_wait") continue;
    put("hist.log.sync_wait.count", hist->count());
    put("hist.log.sync_wait.sum_us", hist->mean() * static_cast<double>(hist->count()));
  }
  return s;
}

Snapshot operator-(const Snapshot& after, const Snapshot& before) {
  Snapshot d = after;
  for (const auto& [key, value] : before) d[key] -= value;
  return d;
}

void accumulate(Snapshot& total, const Snapshot& delta) {
  for (const auto& [key, value] : delta) total[key] += value;
}

double at(const Snapshot& s, const std::string& key) {
  auto it = s.find(key);
  return it == s.end() ? 0 : it->second;
}

}  // namespace tfrbench
