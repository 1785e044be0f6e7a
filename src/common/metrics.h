// Measurement primitives for the benchmark harness and tests:
//   Histogram           — latency distribution with percentile queries
//   TimeSeriesRecorder  — per-interval throughput / mean-latency series
//   Counter             — named count or level, one relaxed atomic
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"

namespace tfr {

/// Thread-safe latency histogram with logarithmically spaced buckets from
/// 1us to ~1000s. Percentile error is bounded by the bucket width (~4%).
class Histogram {
 public:
  Histogram();

  void record(Micros value);
  void merge(const Histogram& other);
  void reset();

  std::uint64_t count() const;
  double mean() const;           ///< microseconds
  Micros min() const;
  Micros max() const;
  Micros percentile(double p) const;  ///< p in [0, 100]

  std::string summary() const;   ///< "n=... mean=...ms p50=... p99=... max=..."

 private:
  static constexpr int kBuckets = 400;
  static int bucket_for(Micros v);
  static Micros bucket_upper(int b);

  std::atomic<std::uint64_t> counts_[kBuckets];
  std::atomic<std::uint64_t> total_count_{0};
  std::atomic<std::int64_t> total_sum_{0};
  std::atomic<std::int64_t> min_{INT64_MAX};
  std::atomic<std::int64_t> max_{0};
};

/// One point of a throughput/latency time series.
struct SeriesPoint {
  double t_seconds = 0;     ///< interval end, relative to recorder start
  double throughput = 0;    ///< completed ops per second in the interval
  double mean_latency_ms = 0;
  double p99_latency_ms = 0;
  std::uint64_t errors = 0;
};

/// Buckets completions into fixed wall-clock intervals; used to draw the
/// Figure 3 timelines. Thread-safe.
class TimeSeriesRecorder {
 public:
  explicit TimeSeriesRecorder(Micros interval = seconds(1), std::size_t max_points = 4096);

  /// Marks t=0; call once just before the workload starts.
  void start();

  /// Record one completed operation with the given latency.
  void record(Micros latency);

  /// Record one failed operation.
  void record_error();

  /// Seconds since start().
  double elapsed_seconds() const;

  std::vector<SeriesPoint> snapshot() const;

 private:
  struct Cell {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::int64_t> latency_sum{0};
    std::atomic<std::uint64_t> errors{0};
    // Coarse p99 support: count of ops above a set of latency thresholds.
    std::atomic<std::uint64_t> over[8] = {};
  };

  std::size_t cell_index() const;

  Micros interval_;
  std::vector<Cell> cells_;
  std::atomic<Micros> start_{-1};
  static constexpr Micros kOverThresholds[8] = {millis(1),  millis(2),  millis(5),  millis(10),
                                                millis(20), millis(50), millis(100), millis(500)};
};

/// Named integer metric: a monotonic count (add) or a level that moves both
/// ways (set, add with a negative delta). Every operation is one relaxed
/// atomic.
class Counter {
 public:
  void add(std::int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void set(std::int64_t value) { value_.store(value, std::memory_order_relaxed); }
  std::int64_t get() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// --- process-wide counter registry -------------------------------------------
//
// Events that no object counts in its own stats() (the client routing and
// retry paths, the master's takeovers, WAL fencing) are counted here, so
// tests and benches can assert on them without plumbing stats objects through
// every layer. Each event is counted in one place: here or in a stats().
// Metrics are created on first use and their addresses are stable for the
// life of the process, so hot paths can cache the reference
// (`static Counter& c = global_counter("...")`) and pay only a relaxed atomic
// add per event. Names are fixed strings: a name built per object would grow
// the registry without bound.

/// The counter registered under `name`, created on first use. Thread-safe.
Counter& global_counter(const std::string& name);

/// (name, value) for every registered counter, sorted by name.
std::vector<std::pair<std::string, std::int64_t>> global_counter_snapshot();

/// Zero every registered counter (tests isolate themselves with this).
void reset_global_counters();

/// The histogram registered under `name`, created on first use. Same
/// stable-address contract as global_counter(): hot paths cache the
/// reference and pay only the (lock-free) Histogram::record per event.
/// Used for distributions that counters cannot express — e.g. the TM log's
/// `log.batch_size` and `log.sync_wait`.
Histogram& global_histogram(const std::string& name);

/// (name, histogram) for every registered histogram, sorted by name.
std::vector<std::pair<std::string, const Histogram*>> global_histogram_snapshot();

/// Reset every registered histogram (tests/benches isolate with this).
void reset_global_histograms();

/// The gauge registered under `name`, created on first use: a Counter used
/// for a level, in a registry of its own, so one name can be both a counter
/// and a gauge. Same stable-address contract as global_counter(). Used for
/// the master's last-recovery phase timings.
Counter& global_gauge(const std::string& name);

/// (name, value) for every registered gauge, sorted by name.
std::vector<std::pair<std::string, std::int64_t>> global_gauge_snapshot();

/// Zero every registered gauge (tests isolate themselves with this).
void reset_global_gauges();

}  // namespace tfr
