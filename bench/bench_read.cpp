// bench_read — read-path microbenchmark over a single multi-store-file
// region:
//
//   point get   bloom + key-range footer checks skip files that cannot
//               hold the row, so one file's block is fetched, not eight;
//   scan        heap-merged block iterators stop decoding after `limit`
//               rows.
//
// The region holds `kFiles` store files with interleaved row sets (row i
// lives in file i % kFiles), so a point get finds its row in exactly one
// file and pruning skips the rest. Each mode is measured cold (cache
// cleared before every op, DFS block-read latency charged per fetch) and
// warm (second pass over the same keys).
//
// Emits BENCH_read.json with per-mode latencies, DFS block-read counts,
// pruning counters and cache stats.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/metrics.h"
#include "src/kv/region.h"

using namespace tfr;

namespace {

constexpr int kFiles = 8;
constexpr std::size_t kBlockBytes = 2048;
constexpr std::size_t kScanLimit = 10;

std::string row_key(std::uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%08llu", static_cast<unsigned long long>(i));
  return buf;
}

struct ModeReport {
  std::string mode;
  double cold_us = 0;   // mean latency, cache cleared before every op
  double warm_us = 0;   // mean latency, cache pre-warmed by the cold pass
  std::int64_t cold_dfs_reads = 0;
  std::int64_t warm_dfs_reads = 0;
};

class ReadBench {
 public:
  ReadBench(std::uint64_t rows, Micros dfs_read_latency)
      : rows_(rows),
        dfs_(DfsConfig{.sync_latency = 0,
                       .sync_jitter = 0,
                       .read_latency = dfs_read_latency,
                       .read_jitter = 0}),
        cache_(64ull << 20),
        region_(RegionDescriptor{"usertable", "", ""}, dfs_, cache_, kBlockBytes) {}

  Status load() {
    TFR_RETURN_IF_ERROR(region_.load_store_files());
    region_.set_state(RegionState::kOnline);
    const std::string value(100, 'v');
    // File f holds rows {i : i % kFiles == f}: overlapping key ranges,
    // disjoint row sets — the bloom filter, not the range footer, is what
    // lets a point get skip kFiles-1 files.
    for (int f = 0; f < kFiles; ++f) {
      std::vector<Cell> cells;
      for (std::uint64_t i = f; i < rows_; i += kFiles) {
        cells.push_back(Cell{row_key(i), "field0", value,
                             static_cast<Timestamp>(f + 1), false});
      }
      if (!region_.apply(cells)) return Status::unavailable("load apply rejected");
      TFR_RETURN_IF_ERROR(region_.flush_memstore());
    }
    return Status::ok();
  }

  /// Mean latency of `ops` point gets over rotating rows. Cold mode clears
  /// the block cache before every op so each get pays full DFS latency.
  double time_gets(std::uint64_t ops, bool cold) {
    const Micros t0 = now_micros();
    for (std::uint64_t op = 0; op < ops; ++op) {
      if (cold) cache_.clear();
      // Stride through the keyspace so consecutive ops hit different blocks.
      const std::uint64_t i = (op * 97) % rows_;
      auto r = region_.get(row_key(i), "field0", kMaxTimestamp);
      if (!r.is_ok() || !r.value().has_value()) {
        std::fprintf(stderr, "get %llu failed\n", static_cast<unsigned long long>(i));
        std::exit(1);
      }
    }
    return static_cast<double>(now_micros() - t0) / static_cast<double>(ops);
  }

  /// Mean latency of `ops` limit-bounded scans starting at rotating rows.
  double time_scans(std::uint64_t ops, bool cold) {
    const Micros t0 = now_micros();
    for (std::uint64_t op = 0; op < ops; ++op) {
      if (cold) cache_.clear();
      const std::uint64_t start = (op * 131) % (rows_ - 2 * kScanLimit);
      auto r = region_.scan(row_key(start), "", kMaxTimestamp, kScanLimit);
      if (!r.is_ok() || r.value().size() != kScanLimit) {
        std::fprintf(stderr, "scan @%llu failed (%zu rows)\n",
                     static_cast<unsigned long long>(start),
                     r.is_ok() ? r.value().size() : 0);
        std::exit(1);
      }
    }
    return static_cast<double>(now_micros() - t0) / static_cast<double>(ops);
  }

  std::int64_t dfs_reads() const { return dfs_.stats().block_reads; }
  BlockCacheStats cache_stats() const { return cache_.stats(); }
  void clear_cache() { cache_.clear(); }

 private:
  std::uint64_t rows_;
  Dfs dfs_;
  BlockCache cache_;
  Region region_;
};

ModeReport run_mode(ReadBench& bench, const std::string& mode, bool is_scan,
                    std::uint64_t ops) {
  ModeReport rep;
  rep.mode = mode;
  std::int64_t reads0 = bench.dfs_reads();
  rep.cold_us = is_scan ? bench.time_scans(ops, /*cold=*/true)
                        : bench.time_gets(ops, /*cold=*/true);
  rep.cold_dfs_reads = bench.dfs_reads() - reads0;

  // Warm pass: one untimed priming pass over the same keys, then measure.
  bench.clear_cache();
  if (is_scan) {
    (void)bench.time_scans(ops, /*cold=*/false);
  } else {
    (void)bench.time_gets(ops, /*cold=*/false);
  }
  reads0 = bench.dfs_reads();
  rep.warm_us = is_scan ? bench.time_scans(ops, /*cold=*/false)
                        : bench.time_gets(ops, /*cold=*/false);
  rep.warm_dfs_reads = bench.dfs_reads() - reads0;

  std::printf("%-18s  cold=%9.1fus (%6lld dfs reads)  warm=%9.1fus (%lld dfs reads)\n",
              rep.mode.c_str(), rep.cold_us, static_cast<long long>(rep.cold_dfs_reads),
              rep.warm_us, static_cast<long long>(rep.warm_dfs_reads));
  return rep;
}

void emit_mode(std::FILE* out, const ModeReport& r, const char* trailing) {
  std::fprintf(out, "    \"%s\": {\n", r.mode.c_str());
  std::fprintf(out, "      \"cold_us\": %.1f,\n", r.cold_us);
  std::fprintf(out, "      \"warm_us\": %.1f,\n", r.warm_us);
  std::fprintf(out, "      \"cold_dfs_reads\": %lld,\n",
               static_cast<long long>(r.cold_dfs_reads));
  std::fprintf(out, "      \"warm_dfs_reads\": %lld\n",
               static_cast<long long>(r.warm_dfs_reads));
  std::fprintf(out, "    }%s\n", trailing);
}

}  // namespace

int main() {
  bench::print_header("Streaming read path: pruned gets + limit-aware scans",
                      "read hot path (store-file bloom/key-range pruning, iterator merge)");
  const double scale = bench::bench_scale();
  const std::uint64_t rows = static_cast<std::uint64_t>(4096.0 * scale) + 128;
  const std::uint64_t get_ops = static_cast<std::uint64_t>(400.0 * scale) + 8;
  const std::uint64_t scan_ops = static_cast<std::uint64_t>(60.0 * scale) + 4;
  std::printf("# %llu rows across %d store files, %llu gets, %llu scans (limit=%zu)\n",
              static_cast<unsigned long long>(rows), kFiles,
              static_cast<unsigned long long>(get_ops),
              static_cast<unsigned long long>(scan_ops), kScanLimit);

  reset_global_counters();
  ReadBench bench(rows, /*dfs_read_latency=*/200);
  if (!bench.load().is_ok()) {
    std::fprintf(stderr, "region load failed\n");
    return 1;
  }

  const ModeReport get_pruned = run_mode(bench, "get/pruned", /*is_scan=*/false, get_ops);
  const ModeReport scan_streaming = run_mode(bench, "scan/streaming", /*is_scan=*/true, scan_ops);

  std::int64_t bloom_skips = 0, range_skips = 0;
  for (const auto& [name, value] : global_counter_snapshot()) {
    if (name == "kv.sf_bloom_skips") bloom_skips = value;
    if (name == "kv.sf_range_skips") range_skips = value;
  }
  const BlockCacheStats cache = bench.cache_stats();

  std::FILE* out = std::fopen("BENCH_read.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_read.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"read\",\n");
  std::fprintf(out, "  \"scale\": %.3f,\n", scale);
  std::fprintf(out, "  \"rows\": %llu,\n", static_cast<unsigned long long>(rows));
  std::fprintf(out, "  \"store_files\": %d,\n", kFiles);
  std::fprintf(out, "  \"scan_limit\": %zu,\n", kScanLimit);
  std::fprintf(out, "  \"point_get\": {\n");
  emit_mode(out, get_pruned, "");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"scan\": {\n");
  emit_mode(out, scan_streaming, "");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"sf_bloom_skips\": %lld,\n", static_cast<long long>(bloom_skips));
  std::fprintf(out, "  \"sf_range_skips\": %lld,\n", static_cast<long long>(range_skips));
  std::fprintf(out, "  \"cache_hits\": %lld,\n", static_cast<long long>(cache.hits));
  std::fprintf(out, "  \"cache_misses\": %lld,\n", static_cast<long long>(cache.misses));
  std::fprintf(out, "  \"cache_evictions\": %lld\n", static_cast<long long>(cache.evictions));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_read.json\n");
  return 0;
}
