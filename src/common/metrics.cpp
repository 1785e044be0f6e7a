#include "src/common/metrics.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>

#include "src/common/annotations.h"

namespace tfr {

namespace {
// One name-sorted map of metrics of type T. unique_ptr gives each metric a
// stable address across inserts; the registries are leaked so they outlive
// every static reference into them.
template <typename T>
class Registry {
 public:
  T& get(const std::string& name) {
    MutexLock lock(mutex_);
    auto& slot = metrics_[name];
    if (!slot) slot = std::make_unique<T>();
    return *slot;
  }

  /// (name, read(metric)) for every metric, sorted by name.
  template <typename Read>
  auto snapshot(Read read) {
    MutexLock lock(mutex_);
    std::vector<std::pair<std::string, decltype(read(std::declval<T&>()))>> out;
    out.reserve(metrics_.size());
    for (const auto& [name, metric] : metrics_) out.emplace_back(name, read(*metric));
    return out;
  }

  void reset() {
    MutexLock lock(mutex_);
    for (auto& [name, metric] : metrics_) metric->reset();
  }

 private:
  RankedMutex<LockRank::kMetrics> mutex_{"metric_registry"};
  std::map<std::string, std::unique_ptr<T>> metrics_ TFR_GUARDED_BY(mutex_);
};

Registry<Counter>& counters() {
  static auto* r = new Registry<Counter>();
  return *r;
}
Registry<Counter>& gauges() {
  static auto* r = new Registry<Counter>();
  return *r;
}
Registry<Histogram>& histograms() {
  static auto* r = new Registry<Histogram>();
  return *r;
}

std::int64_t value_of(const Counter& c) { return c.get(); }
}  // namespace

Counter& global_counter(const std::string& name) { return counters().get(name); }
std::vector<std::pair<std::string, std::int64_t>> global_counter_snapshot() {
  return counters().snapshot(value_of);
}
void reset_global_counters() { counters().reset(); }

Counter& global_gauge(const std::string& name) { return gauges().get(name); }
std::vector<std::pair<std::string, std::int64_t>> global_gauge_snapshot() {
  return gauges().snapshot(value_of);
}
void reset_global_gauges() { gauges().reset(); }

Histogram& global_histogram(const std::string& name) { return histograms().get(name); }
std::vector<std::pair<std::string, const Histogram*>> global_histogram_snapshot() {
  return histograms().snapshot([](const Histogram& h) { return &h; });
}
void reset_global_histograms() { histograms().reset(); }

Histogram::Histogram() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

int Histogram::bucket_for(Micros v) {
  if (v < 1) v = 1;
  // ~16 buckets per decade: bucket = floor(log10(v) * 44.3), capped.
  const int b = static_cast<int>(std::log10(static_cast<double>(v)) * 44.0);
  return std::min(b, kBuckets - 1);
}

Micros Histogram::bucket_upper(int b) {
  return static_cast<Micros>(std::pow(10.0, static_cast<double>(b + 1) / 44.0));
}

void Histogram::record(Micros value) {
  counts_[bucket_for(value)].fetch_add(1, std::memory_order_relaxed);
  total_count_.fetch_add(1, std::memory_order_relaxed);
  total_sum_.fetch_add(value, std::memory_order_relaxed);
  std::int64_t prev = min_.load(std::memory_order_relaxed);
  while (value < prev && !min_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
  prev = max_.load(std::memory_order_relaxed);
  while (value > prev && !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

void Histogram::merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    counts_[i].fetch_add(other.counts_[i].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  }
  total_count_.fetch_add(other.total_count_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  total_sum_.fetch_add(other.total_sum_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  const std::int64_t omin = other.min_.load(std::memory_order_relaxed);
  std::int64_t prev = min_.load(std::memory_order_relaxed);
  while (omin < prev && !min_.compare_exchange_weak(prev, omin, std::memory_order_relaxed)) {
  }
  const std::int64_t omax = other.max_.load(std::memory_order_relaxed);
  prev = max_.load(std::memory_order_relaxed);
  while (omax > prev && !max_.compare_exchange_weak(prev, omax, std::memory_order_relaxed)) {
  }
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  total_count_.store(0, std::memory_order_relaxed);
  total_sum_.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const { return total_count_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  const auto n = count();
  if (n == 0) return 0;
  return static_cast<double>(total_sum_.load(std::memory_order_relaxed)) / static_cast<double>(n);
}

Micros Histogram::min() const {
  const auto v = min_.load(std::memory_order_relaxed);
  return v == INT64_MAX ? 0 : v;
}

Micros Histogram::max() const { return max_.load(std::memory_order_relaxed); }

Micros Histogram::percentile(double p) const {
  const auto n = count();
  if (n == 0) return 0;
  const auto target = static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  std::uint64_t acc = 0;
  for (int i = 0; i < kBuckets; ++i) {
    acc += counts_[i].load(std::memory_order_relaxed);
    if (acc >= target) return std::min<Micros>(bucket_upper(i), max());
  }
  return max();
}

std::string Histogram::summary() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << "n=" << count() << " mean=" << mean() / 1000.0 << "ms"
     << " p50=" << static_cast<double>(percentile(50)) / 1000.0 << "ms"
     << " p99=" << static_cast<double>(percentile(99)) / 1000.0 << "ms"
     << " max=" << static_cast<double>(max()) / 1000.0 << "ms";
  return os.str();
}

constexpr Micros TimeSeriesRecorder::kOverThresholds[8];

TimeSeriesRecorder::TimeSeriesRecorder(Micros interval, std::size_t max_points)
    : interval_(interval), cells_(max_points) {}

void TimeSeriesRecorder::start() { start_.store(now_micros(), std::memory_order_release); }

std::size_t TimeSeriesRecorder::cell_index() const {
  const Micros s = start_.load(std::memory_order_acquire);
  if (s < 0) return 0;
  const auto idx = static_cast<std::size_t>((now_micros() - s) / interval_);
  return std::min(idx, cells_.size() - 1);
}

void TimeSeriesRecorder::record(Micros latency) {
  Cell& c = cells_[cell_index()];
  c.count.fetch_add(1, std::memory_order_relaxed);
  c.latency_sum.fetch_add(latency, std::memory_order_relaxed);
  for (int i = 0; i < 8; ++i) {
    if (latency > kOverThresholds[i]) c.over[i].fetch_add(1, std::memory_order_relaxed);
  }
}

void TimeSeriesRecorder::record_error() {
  cells_[cell_index()].errors.fetch_add(1, std::memory_order_relaxed);
}

double TimeSeriesRecorder::elapsed_seconds() const {
  const Micros s = start_.load(std::memory_order_acquire);
  return s < 0 ? 0 : static_cast<double>(now_micros() - s) / 1e6;
}

std::vector<SeriesPoint> TimeSeriesRecorder::snapshot() const {
  std::vector<SeriesPoint> out;
  const auto last = cell_index();
  for (std::size_t i = 0; i <= last && i < cells_.size(); ++i) {
    const Cell& c = cells_[i];
    SeriesPoint p;
    p.t_seconds = static_cast<double>((i + 1) * static_cast<std::size_t>(interval_)) / 1e6;
    const auto n = c.count.load(std::memory_order_relaxed);
    p.throughput = static_cast<double>(n) / (static_cast<double>(interval_) / 1e6);
    p.mean_latency_ms =
        n == 0 ? 0
               : static_cast<double>(c.latency_sum.load(std::memory_order_relaxed)) /
                     static_cast<double>(n) / 1000.0;
    // p99 estimate: the smallest threshold exceeded by <1% of samples.
    p.p99_latency_ms = 0;
    if (n > 0) {
      for (int t = 7; t >= 0; --t) {
        if (c.over[t].load(std::memory_order_relaxed) >= (n + 99) / 100) {
          p.p99_latency_ms = static_cast<double>(kOverThresholds[t]) / 1000.0;
          break;
        }
      }
    }
    p.errors = c.errors.load(std::memory_order_relaxed);
    out.push_back(p);
  }
  return out;
}

}  // namespace tfr
