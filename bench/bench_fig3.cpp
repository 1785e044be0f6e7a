// Figure 3 — "Evaluating Failure Recovery" (§4.4).
//
// 50 client threads, two region servers, ~250 tps offered (near the peak of
// a single server in our scaled setup), 1 s heartbeats. A region-server
// crash is induced mid-run. The paper plots per-second throughput (3a) and
// response time (3b) against wall-clock time:
//
//   * a sharp throughput drop / response-time spike at the failure,
//   * the actual transactional recovery takes only a few seconds,
//   * the slower return to pre-failure levels is the surviving server's
//     block cache warming up for the regions it inherited,
//   * no committed transaction is lost.
//
// Output: the two time series (one row per second), recovery-phase
// annotations, and a durability audit. YcsbDriver records 100 ms buckets:
// recovery takes a few hundred milliseconds, so a 1 s bucket averages the
// outage away and only the fine series shows the drop.
#include "bench/bench_common.h"

using namespace tfr;
using namespace tfr::bench;

int main() {
  print_header("Figure 3: failure detection and recovery timeline",
               "throughput (3a) and response time (3b) vs wall-clock time; "
               "server crash mid-run");

  constexpr std::uint64_t kRows = 60'000;
  constexpr int kRegions = 8;
  const Micros duration = scaled(seconds(90));
  const Micros crash_at = duration / 3;

  TestbedConfig cfg = paper_config(2, false);
  // Heavier block reads for this experiment: the paper's dataset/cache ratio
  // makes the survivor capacity-limited while its cache is cold, producing
  // the gradual return to pre-failure throughput. With a 4 ms block fetch
  // and 4 handlers, a cold server sustains ~150 tps < the 250 tps offered.
  cfg.cluster.dfs.read_latency = 4000;
  Testbed bed(cfg);
  if (auto s = prepare(bed, kRows, kRegions); !s.is_ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", s.to_string().c_str());
    return 1;
  }

  WorkloadConfig w;
  w.num_rows = kRows;
  DriverConfig d;
  d.threads = 50;
  d.target_tps = 250;
  d.duration = duration;
  d.series_interval = millis(100);

  Micros recovery_started = 0, recovery_finished = 0;
  YcsbDriver driver(bed, w, d);
  const Micros t0 = now_micros();
  driver.schedule(crash_at, "crash rs1", [&] {
    bed.crash_server(0);
    // Record when the RM starts and finishes the transactional recovery.
    // Watch from the crash on: the first transaction to touch the dead
    // server proves the crash, so recovery starts within milliseconds.
    std::thread([&, t0] {
      if (bed.wait_server_recoveries(1, seconds(60))) {
        recovery_started = now_micros() - t0;
        bed.wait_for_recovery();
        recovery_finished = now_micros() - t0;
      }
    }).detach();
  });

  const auto report = driver.run();
  bed.wait_for_recovery();
  const bool drained = bed.client().wait_flushed(seconds(120));

  std::printf("\n# time series (crash at t=%.0fs)\n", static_cast<double>(crash_at) / 1e6);
  std::printf("%-8s %-14s %-14s %-10s\n", "t_s", "throughput_tps", "mean_ms", "errors");
  constexpr std::size_t kPerRow = 10;  // 100 ms buckets per printed second
  for (std::size_t i = 0; i < report.series.size(); i += kPerRow) {
    const std::size_t end = std::min(i + kPerRow, report.series.size());
    double tps_sum = 0, latency_sum = 0;
    std::uint64_t errors = 0;
    for (std::size_t j = i; j < end; ++j) {
      const SeriesPoint& p = report.series[j];
      tps_sum += p.throughput;
      latency_sum += p.throughput * p.mean_latency_ms;
      errors += p.errors;
    }
    std::printf("%-8.1f %-14.1f %-14.2f %-10llu\n", report.series[end - 1].t_seconds,
                tps_sum / static_cast<double>(end - i),
                tps_sum > 0 ? latency_sum / tps_sum : 0.0,
                static_cast<unsigned long long>(errors));
  }

  print_report_row("\noverall", report);
  if (recovery_started > 0) {
    std::printf("failure detected + recovery started at t=%.1fs (crash at %.1fs; "
                "detection = the first RPC to bounce off the crashed server)\n",
                static_cast<double>(recovery_started) / 1e6,
                static_cast<double>(crash_at) / 1e6);
    std::printf("transactional recovery finished at t=%.1fs (recovery itself took %.1fs)\n",
                static_cast<double>(recovery_finished) / 1e6,
                static_cast<double>(recovery_finished - recovery_started) / 1e6);
  }
  const auto rstats = bed.rm().stats();
  const auto cstats = bed.rm().recovery_client_stats();
  std::printf("regions recovered: %lld, write-sets replayed: %lld, mutations replayed: %lld\n",
              static_cast<long long>(rstats.regions_recovered),
              static_cast<long long>(rstats.writesets_replayed_server),
              static_cast<long long>(cstats.mutations_replayed));

  // Shape checks against the paper's qualitative claims.
  std::printf("\n-- shape check --\n");
  const double crash_s = static_cast<double>(crash_at) / 1e6;
  double pre = 0, dip = 1e18, post = 0;
  int pre_n = 0, post_n = 0;
  for (const auto& p : report.series) {
    if (p.t_seconds < crash_s - 2) {
      pre += p.throughput;
      ++pre_n;
    } else if (p.t_seconds > crash_s && p.t_seconds < crash_s + 8) {
      dip = std::min(dip, p.throughput);
    } else if (p.t_seconds > static_cast<double>(duration) / 1e6 - 10) {
      post += p.throughput;
      ++post_n;
    }
  }
  pre /= std::max(pre_n, 1);
  post /= std::max(post_n, 1);
  std::printf("pre-failure throughput  : %.1f tps\n", pre);
  std::printf("min throughput after crash: %.1f tps (100 ms buckets) %s\n", dip,
              dip < 0.5 * pre ? "[OK: sharp drop]" : "[UNEXPECTED]");
  std::printf("end-of-run throughput   : %.1f tps %s\n", post,
              post > 0.8 * pre ? "[OK: recovered to pre-failure level]" : "[UNEXPECTED]");
  std::printf("transactions lost       : %s (flush backlog drained: %s)\n",
              drained ? "none" : "POSSIBLE", drained ? "yes" : "no");
  return 0;
}
