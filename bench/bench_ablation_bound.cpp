// Ablation A3 — the recovery-work bound.
//
// §3.1: "the number of write-sets that need to be recovered upon failure is
// bound by the client's throughput and heartbeat interval." TF(c) lags
// reality by at most one heartbeat, so the write-sets fetched after TFr(c)
// are roughly (throughput x heartbeat interval) plus whatever was genuinely
// still in flight.
//
// This bench crashes a client that is committing at a fixed rate under a
// sweep of heartbeat intervals and reports how many write-sets the recovery
// manager replays. Shape target: the replay count grows roughly linearly
// with the heartbeat interval at a fixed rate, and roughly linearly with
// the rate at a fixed interval.
#include "bench/bench_common.h"

using namespace tfr;
using namespace tfr::bench;

namespace {

struct Outcome {
  std::int64_t replayed = 0;
  double offered_tps;
  double achieved_tps = 0;
};

Outcome run_once(double tps, Micros heartbeat) {
  TestbedConfig cfg = paper_config(2, false);
  cfg.client.heartbeat_interval = heartbeat;
  cfg.client.session_ttl = heartbeat * 3;
  cfg.num_clients = 1;
  constexpr std::uint64_t kRows = 10'000;

  Testbed bed(cfg);
  if (auto s = prepare(bed, kRows, 4, 64); !s.is_ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", s.to_string().c_str());
    std::exit(1);
  }

  WorkloadConfig w;
  w.num_rows = kRows;
  DriverConfig d;
  d.threads = 20;
  d.target_tps = tps;
  // The run must span several heartbeat intervals or the lag cannot show.
  d.duration = std::max<Micros>(scaled(seconds(6)), heartbeat * 4);

  YcsbDriver driver(bed, w, d);
  driver.schedule(d.duration - millis(200), "crash the client",
                  [&] { bed.crash_client(0); });
  const auto report = driver.run();

  Outcome out;
  out.offered_tps = tps;
  out.achieved_tps = report.throughput_tps;
  if (!bed.wait_client_recoveries(1, seconds(60))) {
    std::fprintf(stderr, "client recovery never started\n");
    std::exit(1);
  }
  bed.wait_for_recovery();
  out.replayed = bed.rm().recovery_client_stats().client_writesets_replayed;
  return out;
}

}  // namespace

int main() {
  print_header("Ablation A3: recovery work vs throughput x heartbeat interval",
               "§3.1's bound on the write-sets replayed after a client failure");

  std::printf("%-10s %-16s %-20s %-24s\n", "tps", "heartbeat_ms", "writesets_replayed",
              "replayed/(tps*interval)");

  struct Point {
    double tps;
    Micros hb;
    std::int64_t replayed;
  };
  std::vector<Point> points;
  for (const double tps : {100.0, 300.0}) {
    for (const Micros hb : {millis(250), millis(1000), millis(3000)}) {
      const Outcome o = run_once(tps, hb);
      const double bound_units =
          static_cast<double>(o.replayed) / (tps * static_cast<double>(hb) / 1e6);
      std::printf("%-10.0f %-16lld %-20lld %-24.2f\n", tps,
                  static_cast<long long>(hb / 1000), static_cast<long long>(o.replayed),
                  bound_units);
      points.push_back({tps, hb, o.replayed});
    }
  }

  std::printf("\n-- shape check --\n");
  // At fixed tps, the replay count at the longest interval must exceed the
  // shortest (intermediate points can be noisy).
  const bool grows_with_interval =
      points[2].replayed > points[0].replayed && points[5].replayed > points[3].replayed;
  std::printf("replay count grows with heartbeat interval at fixed tps: %s\n",
              grows_with_interval ? "[OK]" : "[UNEXPECTED]");
  // At the longest interval, more throughput means more replay.
  const auto& slow_low = points[2];   // 100 tps, 3000 ms
  const auto& slow_high = points[5];  // 300 tps, 3000 ms
  std::printf("replay count grows with tps at fixed interval: %s (%lld -> %lld)\n",
              slow_high.replayed > slow_low.replayed ? "[OK]" : "[UNEXPECTED]",
              static_cast<long long>(slow_low.replayed),
              static_cast<long long>(slow_high.replayed));
  return 0;
}
