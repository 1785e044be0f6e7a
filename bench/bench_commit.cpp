// bench_commit — committed-transaction throughput of the post-commit
// pipeline: write-set slices batched per destination server into one
// BatchApplyRequest RPC per flusher round, and adaptive group commit sizing
// the TM log's accumulation window from observed sync latency and queue
// depth.
//
// 8 committer threads (2 per client over 4 clients) each commit a fixed
// quota of single-row transactions over disjoint key ranges (no SI
// conflicts: the pipeline, not the conflict rate, is under test). The
// clock stops only after every client's flush queue has drained
// (wait_flushed), so flush capacity is part of the measured throughput,
// not hidden backlog.
//
// Emits BENCH_commit.json with the throughput, the log.batch_size /
// log.sync_wait histograms, and the flush RPC counters.
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/metrics.h"

using namespace tfr;

namespace {

constexpr int kClients = 4;
constexpr int kThreads = 8;  // committer threads, spread over the clients
constexpr std::uint64_t kRows = 4096;
constexpr int kRegions = 4;

struct Report {
  double wall_s = 0;
  double tps = 0;
  double commit_mean_ms = 0;
  double commit_p99_ms = 0;
  std::int64_t committed = 0;
  std::int64_t aborted = 0;
  std::int64_t log_appends = 0;
  std::int64_t log_batches = 0;
  std::int64_t log_group_waits = 0;
  std::int64_t batch_rpcs = 0;
  std::int64_t batch_slices = 0;
  double batch_size_mean = 0;
  Micros batch_size_p99 = 0;
  double sync_wait_mean_ms = 0;
  Micros sync_wait_p99 = 0;
};

TestbedConfig commit_config() {
  TestbedConfig cfg = bench::paper_config(/*servers=*/2);
  cfg.num_clients = kClients;
  // Lean flusher pool: the paper's client has a bounded background pool;
  // with one thread per client the batched flush path stays commit-bound.
  cfg.client.flusher_threads = 1;
  // Commit path: ~0.4 ms stable-storage write per group-commit batch.
  cfg.txn_log.sync_latency = 400;
  cfg.txn_log.sync_jitter = 100;
  // Flush path: ~1 ms per apply RPC, cheap per-slice service so the
  // round-trip (not the server CPU) dominates the per-write-set cost.
  cfg.cluster.server.rpc_latency = 1000;
  cfg.cluster.server.rpc_jitter = 200;
  cfg.cluster.server.write_service = 50;
  cfg.cluster.server.read_service = 50;
  return cfg;
}

Report run(std::uint64_t txns_per_thread) {
  Report rep;
  reset_global_counters();
  reset_global_histograms();

  Testbed bed(commit_config());
  if (!bench::prepare(bed, kRows, kRegions).is_ok()) {
    std::fprintf(stderr, "testbed setup failed\n");
    return rep;
  }

  Histogram commit_latency;
  std::atomic<std::int64_t> committed{0};
  std::atomic<std::int64_t> aborted{0};

  const Micros t0 = now_micros();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TxnClient& client = bed.client(t % kClients);
      // Disjoint row ranges per thread: blind single-row writes, no
      // write-write conflicts.
      const std::uint64_t base = static_cast<std::uint64_t>(t) * (kRows / kThreads);
      for (std::uint64_t i = 0; i < txns_per_thread; ++i) {
        Transaction txn = client.begin("usertable");
        txn.put(Testbed::row_key(base + (i % (kRows / kThreads))), "field0",
                "v" + std::to_string(i));
        const Micros start = now_micros();
        auto r = txn.commit();
        if (r.is_ok()) {
          commit_latency.record(now_micros() - start);
          committed.fetch_add(1, std::memory_order_relaxed);
        } else {
          aborted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // The run is not over until the write-sets have actually reached the
  // servers: drain every client's flush queue inside the timed window.
  for (int c = 0; c < kClients; ++c) {
    if (!bed.client(c).wait_flushed(seconds(120))) {
      std::fprintf(stderr, "client %d failed to drain its flush queue\n", c);
    }
  }
  const Micros wall = now_micros() - t0;

  rep.wall_s = static_cast<double>(wall) / 1e6;
  rep.committed = committed.load();
  rep.aborted = aborted.load();
  rep.tps = rep.wall_s > 0 ? static_cast<double>(rep.committed) / rep.wall_s : 0;
  rep.commit_mean_ms = commit_latency.mean() / 1000.0;
  rep.commit_p99_ms = static_cast<double>(commit_latency.percentile(99)) / 1000.0;

  const TxnLogStats log_stats = bed.tm().log().stats();
  rep.log_appends = log_stats.appends;
  rep.log_batches = log_stats.batches;
  rep.log_group_waits = log_stats.group_waits;
  for (const auto& [name, value] : global_counter_snapshot()) {
    if (name == "kv.batch_apply_rpcs") rep.batch_rpcs = value;
    if (name == "kv.batch_apply_slices") rep.batch_slices = value;
  }
  for (const auto& [name, hist] : global_histogram_snapshot()) {
    if (name == "log.batch_size") {
      rep.batch_size_mean = hist->mean();
      rep.batch_size_p99 = hist->percentile(99);
    }
    if (name == "log.sync_wait") {
      rep.sync_wait_mean_ms = hist->mean() / 1000.0;
      rep.sync_wait_p99 = hist->percentile(99);
    }
  }

  bed.stop();
  std::printf("wall=%6.2fs  tps=%8.1f  commit mean=%6.2fms p99=%6.2fms  "
              "log batches=%lld/%lld appends (waits=%lld)  batch rpcs=%lld (%lld slices)\n",
              rep.wall_s, rep.tps, rep.commit_mean_ms, rep.commit_p99_ms,
              static_cast<long long>(rep.log_batches), static_cast<long long>(rep.log_appends),
              static_cast<long long>(rep.log_group_waits), static_cast<long long>(rep.batch_rpcs),
              static_cast<long long>(rep.batch_slices));
  return rep;
}

void emit_json(const Report& r) {
  std::FILE* out = std::fopen("BENCH_commit.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_commit.json\n");
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"commit\",\n");
  std::fprintf(out, "  \"client_threads\": %d,\n", kThreads);
  std::fprintf(out, "  \"clients\": %d,\n", kClients);
  std::fprintf(out, "  \"scale\": %.3f,\n", bench::bench_scale());
  std::fprintf(out, "  \"wall_s\": %.3f,\n", r.wall_s);
  std::fprintf(out, "  \"committed_tps\": %.1f,\n", r.tps);
  std::fprintf(out, "  \"committed\": %lld,\n", static_cast<long long>(r.committed));
  std::fprintf(out, "  \"aborted\": %lld,\n", static_cast<long long>(r.aborted));
  std::fprintf(out, "  \"commit_mean_ms\": %.3f,\n", r.commit_mean_ms);
  std::fprintf(out, "  \"commit_p99_ms\": %.3f,\n", r.commit_p99_ms);
  std::fprintf(out, "  \"log_appends\": %lld,\n", static_cast<long long>(r.log_appends));
  std::fprintf(out, "  \"log_batches\": %lld,\n", static_cast<long long>(r.log_batches));
  std::fprintf(out, "  \"log_group_waits\": %lld,\n", static_cast<long long>(r.log_group_waits));
  std::fprintf(out, "  \"log_batch_size_mean\": %.2f,\n", r.batch_size_mean);
  std::fprintf(out, "  \"log_batch_size_p99\": %lld,\n", static_cast<long long>(r.batch_size_p99));
  std::fprintf(out, "  \"log_sync_wait_mean_ms\": %.3f,\n", r.sync_wait_mean_ms);
  std::fprintf(out, "  \"log_sync_wait_p99_us\": %lld,\n", static_cast<long long>(r.sync_wait_p99));
  std::fprintf(out, "  \"batch_apply_rpcs\": %lld,\n", static_cast<long long>(r.batch_rpcs));
  std::fprintf(out, "  \"batch_apply_slices\": %lld\n", static_cast<long long>(r.batch_slices));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_commit.json\n");
}

}  // namespace

int main() {
  bench::print_header("Commit-pipeline throughput",
                      "commit hot path (§2.2 deferred updates, §4.1 group commit)");
  const std::uint64_t txns_per_thread =
      static_cast<std::uint64_t>(500.0 * bench::bench_scale()) + 8;
  std::printf("# %d committer threads x %llu txns\n", kThreads,
              static_cast<unsigned long long>(txns_per_thread));
  emit_json(run(txns_per_thread));
  return 0;
}
