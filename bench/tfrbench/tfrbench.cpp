// tfrbench — the repository's benchmark. One seeded binary drives a whole
// Testbed (transaction manager, recovery manager, region servers, DFS,
// transactional clients) through its public API and prints the end-to-end
// metrics a user of the store sees; with --trace 1 it prints per-layer
// metrics instead, taken from spans around the benchmark's own calls into
// each layer and from the deltas of each layer's public stats.
//
//   tfrbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trials <n>]
//
// Load: a closed loop with no think time — kWorkers threads, each with its
// own TxnClient, each running 10-operation transactions back to back. The
// main thread is the monitor. A run is `--trials` trials (default 3), each
// on a fresh Testbed:
//
//   set-up    start, create and load the table, flush the memstores, warm
//             the block caches (timed: setup_s)
//   warm-up   kWarmup of traffic, not measured
//   window    seconds/trials of measured traffic. The monitor commits a
//             probe write every kProbeEvery and times how long each takes to
//             become visible at its region, stable (TF) and checkpointed (TP)
//   crash     server 0 is crashed a fixed time after one of its heartbeats,
//             with transactions open but commits held until every client
//             has drained its flush queue (README.md: a crash racing an
//             in-flight apply can lose that write-set); write_heavy also
//             flushes every memstore first
//   recovery  traffic continues until recovery completes, plus
//             kAfterRecovery; crash_recovery keeps measuring through it
//             and kMeasuredAfterRecovery
//   audit     drain every client, then check every acknowledged write with a
//             chunked full-table scan at the latest snapshot
//
// The last line on stdout is one JSON object with the keys "correct",
// "attempted", "failed" and "metrics"; the lines before it are the same
// metrics as a table, with each ratio's base counts. A traced run also
// writes its spans, as Chrome-trace JSON, to tfrbench-trace-<workload>.json
// beside the binary.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdarg>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/tfrbench/snapshot.h"
#include "bench/tfrbench/trace.h"
#include "src/common/random.h"
#include "src/recovery/recovery_manager.h"
#include "src/testbed/testbed.h"
#include "src/ycsb/workload.h"

namespace {

using namespace tfr;
using namespace tfrbench;

constexpr const char* kTable = "usertable";
constexpr const char* kColumn = "field0";
constexpr std::uint64_t kRows = 20'000;
constexpr std::size_t kValueBytes = 100;
constexpr int kOpsPerTxn = 10;
constexpr std::size_t kScanRows = 10;
constexpr int kWorkers = 3;  // plus the monitor: one thread of load per core of a 4-core host
constexpr Micros kWarmup = seconds(1);
constexpr Micros kHeartbeat = millis(250);  // servers and clients; TTL = 3 heartbeats
constexpr Micros kCrashPhase = kHeartbeat * 2 / 5;  // crash this long after a heartbeat
constexpr Micros kHoldLead = millis(20);  // hold commits this long before it, to drain
constexpr Micros kProbeEvery = millis(30);
constexpr std::uint64_t kProbeRows = 64;
constexpr int kChainEvery = 16;  // traced transactions per read-chain probe
constexpr Micros kTraceSlice = millis(250);
constexpr Micros kLevelEvery = millis(100);  // sampling of levels such as store files
constexpr Micros kAfterRecovery = millis(300);
// crash_recovery measures this long after recovery: the cold-cache ramp on
// the survivors, long enough that its p99 falls inside that population.
constexpr Micros kMeasuredAfterRecovery = seconds(1);
constexpr Micros kDrainBudget = seconds(10);
constexpr Micros kRunBudget = seconds(165);

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

/// Nearest-rank percentile, 0 for no samples.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- workloads -----------------------------------------------------------------

/// One traffic mix and the cluster it runs on; README.md says why each exists.
struct Workload {
  const char* name = "";
  int servers = 2;
  int regions = 8;
  std::size_t block_cache_bytes = 256ull << 20;
  bool warm_cache = true;
  OpMix mix = {};  // default: the paper's 50/50 get/update
  KeyDistribution keys = KeyDistribution::kUniform;
  std::size_t memstore_flush_bytes = 64ull << 20;  // no memstore flush during a run
  std::size_t compaction_file_threshold = 8;
  std::uint64_t wal_segment_bytes = 8ull << 20;  // no WAL roll during a run
  bool measure_through_crash = false;
  // Flush every memstore before the crash, so that recovery needs no record
  // of the WAL: a roll racing an append can leave records un-synced in the
  // closed segment (README.md, Findings), so a workload that rolls the WAL
  // would otherwise fail by chance.
  bool flush_before_crash = false;
};

const Workload kWorkloads[] = {
    {.name = "paper_mix"},
    {.name = "read_cold_zipf",
     .block_cache_bytes = 256ull << 10,
     .warm_cache = false,
     .mix = {.read = 0.9, .update = 0, .scan = 0.1},
     .keys = KeyDistribution::kZipfian},
    {.name = "write_heavy",
     .mix = {.read = 0.2, .update = 0.8},
     .memstore_flush_bytes = 128ull << 10,
     .compaction_file_threshold = 4,
     .wal_segment_bytes = 1ull << 20,
     .flush_before_crash = true},
    {.name = "crash_recovery", .servers = 3, .regions = 12, .measure_through_crash = true},
};

TestbedConfig testbed_config(const Workload& w) {
  TestbedConfig cfg;
  cfg.num_clients = kWorkers;
  cfg.cluster.num_servers = w.servers;
  cfg.cluster.coord_check_interval = millis(50);
  cfg.cluster.dfs.num_datanodes = w.servers;
  cfg.cluster.dfs.replication = 2;
  RegionServerConfig& server = cfg.cluster.server;
  server.handler_slots = 4;
  server.store_block_bytes = 2048;
  server.block_cache_bytes = w.block_cache_bytes;
  server.memstore_flush_bytes = w.memstore_flush_bytes;
  server.compaction_file_threshold = w.compaction_file_threshold;
  server.wal_segment_bytes = w.wal_segment_bytes;
  server.wal_sync_interval = millis(50);  // asynchronous WAL sync, the paper's mode
  server.heartbeat_interval = kHeartbeat;
  server.session_ttl = 3 * kHeartbeat;
  cfg.client.heartbeat_interval = kHeartbeat;
  cfg.client.session_ttl = 3 * kHeartbeat;
  cfg.client.snapshot = SnapshotMode::kLatest;
  cfg.client.flusher_threads = 8;
  cfg.client.flush_backoff = millis(2);
  cfg.recovery.poll_interval = millis(50);
  // The model of the paper's testbed (§4.1) that bench::paper_config uses,
  // restated so the benchmark cannot drift when that helper does. Every
  // workload runs on it: with the modeled latencies at 0 the metrics follow
  // the host's CPU speed, which on a shared host swings by a quarter within
  // minutes (README.md).
  cfg.cluster.dfs.sync_latency = 2500;
  cfg.cluster.dfs.sync_jitter = 500;
  cfg.cluster.dfs.read_latency = 2000;
  cfg.cluster.dfs.read_jitter = 400;
  server.network_mbps = 100;
  server.rpc_latency = 300;
  server.rpc_jitter = 100;
  server.read_service = 400;
  server.write_service = 400;
  cfg.txn_log.sync_latency = 1200;
  cfg.txn_log.sync_jitter = 300;
  return cfg;
}

// --- load generator --------------------------------------------------------------

/// Which half of a traced run's window a transaction starts in; kNone
/// outside the window and in untraced runs.
enum class Slice { kNone, kTraced, kUntraced };

/// Flags the monitor sets and the workers read between transactions.
struct Control {
  std::atomic<bool> stop{false};
  std::atomic<bool> record{false};  // count transactions in the metrics
  std::atomic<Slice> slice{Slice::kNone};
  std::atomic<bool> hold_commits{false};  // wait before Transaction::commit
};

/// The newest acknowledged write to one row.
struct Written {
  Timestamp ts = kNoTimestamp;
  std::size_t value_hash = 0;
};
using WriteLog = std::unordered_map<std::uint64_t, Written>;  // row index -> newest write

void note_write(WriteLog& log, std::uint64_t row, Written w) {
  Written& current = log[row];
  if (w.ts > current.ts) current = w;
}

std::size_t value_hash(const std::string& v) { return std::hash<std::string>{}(v); }

/// Where a row lives right now; both null when its server is down.
struct Hosted {
  RegionServer* server = nullptr;
  std::shared_ptr<Region> region;
};

Hosted hosted(Testbed& bed, const std::string& row) {
  auto loc = bed.master().locate(kTable, row);
  if (!loc.is_ok()) return {};
  RegionServer* server = bed.master().server_stub(loc.value().server_id);
  if (server == nullptr || !server->alive()) return {};
  return {server, server->region(loc.value().region_name)};
}

struct WorkerResult {
  std::vector<double> txn_ms, commit_ms, read_ms;  // measured window only
  std::int64_t attempted = 0;
  std::int64_t errors = 0;
  std::string first_error;
  std::int64_t committed = 0;  // measured window only, as are the counts below
  std::int64_t reads = 0;      // gets and scans
  std::int64_t write_commits = 0;
  std::int64_t user_bytes = 0;
  std::int64_t traced_commits = 0;
  std::int64_t untraced_commits = 0;
  WriteLog written;  // every acknowledged write, for the audit
  SpanLog spans;
};

class Worker {
 public:
  Worker(const Workload& w, Testbed& bed, Control& ctl, int index, std::uint64_t trial_seed)
      : workload_(w),
        bed_(bed),
        ctl_(ctl),
        client_(bed.client(index)),
        probe_kv_(bed.master()),
        rng_(trial_seed * 1000003 + static_cast<std::uint64_t>(index)),
        config_(key_config(w)),
        state_(kRows),
        chooser_(config_, state_),
        next_request_((static_cast<std::uint64_t>(index) + 1) << 40) {}

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void run() {
    std::uint64_t traced_txns = 0;
    while (!ctl_.stop.load(std::memory_order_acquire)) {
      const bool record = ctl_.record.load(std::memory_order_acquire);
      const Slice slice = ctl_.slice.load(std::memory_order_acquire);
      run_txn(record, slice);
      if (slice == Slice::kTraced && ++traced_txns % kChainEvery == 0) probe_chain();
    }
  }

  WorkerResult& result() { return out_; }

 private:
  static WorkloadConfig key_config(const Workload& w) {
    WorkloadConfig c;
    c.table = kTable;
    c.num_rows = kRows;
    c.distribution = w.keys;
    return c;
  }

  void run_txn(bool record, Slice slice) {
    const bool traced = slice == Slice::kTraced;
    const std::uint64_t request = next_request_++;
    ++out_.attempted;
    const std::int64_t start = now_ns();
    Transaction txn = client_.begin(kTable);
    if (traced) out_.spans.add(SpanName::kClientBegin, start, now_ns(), request);
    std::map<std::uint64_t, std::size_t> puts;  // row -> hash of the last value put there
    const OpMix& mix = workload_.mix;
    std::int64_t reads = 0;
    Status failure;
    for (int op = 0; failure.is_ok() && op < kOpsPerTxn; ++op) {
      const double dice = rng_.next_double();
      const std::uint64_t key = chooser_.next(rng_);
      const std::string row = Testbed::row_key(key);
      if (dice < mix.read) {
        ++reads;
        const std::int64_t s = now_ns();
        if (auto value = txn.get(row, kColumn); !value.is_ok()) failure = value.status();
        const std::int64_t e = now_ns();
        if (record) out_.read_ms.push_back(ms_between(s, e));
        if (traced) out_.spans.add(SpanName::kClientGet, s, e, request);
      } else if (dice < mix.read + mix.update) {
        std::string value = random_ascii(rng_, kValueBytes);
        puts[key] = value_hash(value);
        txn.put(row, kColumn, std::move(value));
      } else {
        ++reads;
        const std::int64_t s = now_ns();
        if (auto cells = txn.scan(row, "", kScanRows); !cells.is_ok()) failure = cells.status();
        if (traced) out_.spans.add(SpanName::kClientScan, s, now_ns(), request);
      }
    }
    if (!failure.is_ok()) {
      txn.abort();
      note_error(failure);
      return;
    }
    while (ctl_.hold_commits.load(std::memory_order_acquire) &&
           !ctl_.stop.load(std::memory_order_acquire)) {
      sleep_micros(100);
    }
    const std::int64_t commit_start = now_ns();
    auto committed = txn.commit();
    const std::int64_t end = now_ns();
    if (traced) {
      out_.spans.add(SpanName::kClientCommit, commit_start, end, request);
      out_.spans.add(SpanName::kTxn, start, end, request);
    }
    if (!committed.is_ok()) {
      // A snapshot-isolation conflict is the workload's business, not a failure.
      if (!committed.status().is_aborted()) note_error(committed.status());
      return;
    }
    for (const auto& [key, hash] : puts) note_write(out_.written, key, {committed.value(), hash});
    if (!record) return;
    ++out_.committed;
    out_.reads += reads;
    if (slice != Slice::kNone) ++(traced ? out_.traced_commits : out_.untraced_commits);
    out_.txn_ms.push_back(ms_between(start, end));
    out_.commit_ms.push_back(ms_between(commit_start, end));
    if (!puts.empty()) {
      ++out_.write_commits;
      out_.user_bytes += static_cast<std::int64_t>(puts.size() * kValueBytes);
    }
  }

  void note_error(const Status& s) {
    if (out_.errors++ == 0) out_.first_error = s.to_string();
  }

  /// The read chain, one layer per call. Each call reads its own key from
  /// the workload's distribution, so an earlier call does not warm the block
  /// cache for a later one; a call on a key whose server is down is skipped.
  void probe_chain() {
    const std::uint64_t request = next_request_++;
    const Timestamp ts = bed_.tm().current_ts();
    const std::int64_t start = now_ns();
    {
      const std::string row = Testbed::row_key(chooser_.next(rng_));
      const std::int64_t s = now_ns();
      if (probe_kv_.get(kTable, row, kColumn, ts, /*max_retries=*/1).is_ok()) {
        out_.spans.add(SpanName::kKvClientGet, s, now_ns(), request);
      }
    }
    {
      const std::string row = Testbed::row_key(chooser_.next(rng_));
      if (Hosted h = hosted(bed_, row); h.server != nullptr) {
        const std::int64_t s = now_ns();
        if (h.server->get(kTable, row, kColumn, ts).is_ok()) {
          out_.spans.add(SpanName::kRegionServerGet, s, now_ns(), request);
        }
      }
    }
    {
      const std::string row = Testbed::row_key(chooser_.next(rng_));
      if (Hosted h = hosted(bed_, row); h.region && h.region->state() == RegionState::kOnline) {
        const std::int64_t s = now_ns();
        if (h.region->get(row, kColumn, ts).is_ok()) {
          out_.spans.add(SpanName::kRegionGet, s, now_ns(), request);
        }
      }
    }
    {
      const std::string row = Testbed::row_key(chooser_.next(rng_));
      if (Hosted h = hosted(bed_, row); h.region && h.region->state() == RegionState::kOnline) {
        const std::int64_t s = now_ns();
        if (h.region->scan(row, h.region->descriptor().end_key, ts, kScanRows).is_ok()) {
          out_.spans.add(SpanName::kRegionScan, s, now_ns(), request);
        }
      }
    }
    out_.spans.add(SpanName::kProbe, start, now_ns(), request);
  }

  const Workload& workload_;
  Testbed& bed_;
  Control& ctl_;
  TxnClient& client_;
  KvClient probe_kv_;
  Rng rng_;
  WorkloadConfig config_;
  WorkloadState state_;
  KeyChooser chooser_;  // reads config_ and state_
  std::uint64_t next_request_;
  WorkerResult out_;
};

/// The worker threads of one trial; joined on destruction.
class WorkerPool {
 public:
  WorkerPool(const Workload& w, Testbed& bed, Control& ctl, std::uint64_t trial_seed)
      : ctl_(ctl) {
    for (int i = 0; i < kWorkers; ++i) {
      workers_.push_back(std::make_unique<Worker>(w, bed, ctl, i, trial_seed));
    }
    for (auto& worker : workers_) threads_.emplace_back([&worker] { worker->run(); });
  }
  ~WorkerPool() { stop(); }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void stop() {
    ctl_.stop.store(true, std::memory_order_release);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  /// Call after stop().
  std::vector<WorkerResult> take_results() {
    std::vector<WorkerResult> out;
    for (auto& worker : workers_) out.push_back(std::move(worker->result()));
    return out;
  }

 private:
  Control& ctl_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
};

// --- monitor -------------------------------------------------------------------

/// A probe write the monitor commits during the window: one put to a row
/// past the loaded range. Only the monitor writes those rows, so a probe
/// never conflicts, and until a memstore flush no store file holds them, so
/// polling one reads a memstore rather than the DFS.
struct Probe {
  std::uint64_t row_index = 0;
  Timestamp ts = kNoTimestamp;
  std::int64_t committed_ns = 0;
  double visible_ms = -1;
  double stable_ms = -1;
  double checkpoint_ms = -1;

  bool resolved() const { return visible_ms >= 0 && stable_ms >= 0 && checkpoint_ms >= 0; }
};

struct WindowResult {
  std::vector<double> visible_ms, stable_ms, checkpoint_ms;
  std::int64_t probes = 0;
  std::int64_t probe_errors = 0;
  std::int64_t probe_bytes = 0;
  std::int64_t unresolved = 0;
  double traced_s = 0;
  double untraced_s = 0;
  // Levels cycle with flushes, compactions and log GC, so a traced run
  // samples them through the window: the sum of level_samples snapshots.
  Snapshot levels;
  int level_samples = 0;
  WriteLog written;
};

void poll_probe(Testbed& bed, Probe& p) {
  const std::int64_t now = now_ns();
  if (p.visible_ms < 0) {
    const std::string row = Testbed::row_key(p.row_index);
    if (Hosted h = hosted(bed, row); h.region) {
      auto cell = h.region->get(row, kColumn, p.ts);
      if (cell.is_ok() && cell.value() && cell.value()->ts == p.ts) {
        p.visible_ms = ms_between(p.committed_ns, now);
      }
    }
  }
  if (p.stable_ms < 0) {
    const auto tf = bed.coord().get(kTfPath);
    if (tf && *tf >= p.ts) p.stable_ms = ms_between(p.committed_ns, now);
  }
  if (p.checkpoint_ms < 0 && bed.rm().global_tp() >= p.ts) {
    p.checkpoint_ms = ms_between(p.committed_ns, now);
  }
}

WindowResult run_window(Testbed& bed, Control& ctl, Micros window, bool trace) {
  WindowResult out;
  TxnClient& client = bed.client(0);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + window * 1000;
  // Stop probing early enough for the last probes to reach TP (about half
  // a second at steady state) before the window closes.
  const std::int64_t last_probe = end - std::min<std::int64_t>(window * 1000 / 3, 1'000'000'000);
  std::int64_t next_probe = start;
  std::int64_t next_level = start;
  std::int64_t slice_start = start;
  std::vector<Probe> probes;
  if (trace) ctl.slice.store(Slice::kTraced, std::memory_order_release);
  for (std::int64_t now = start; now < end; now = now_ns()) {
    if (now >= next_probe && now < last_probe) {
      next_probe += kProbeEvery * 1000;
      Probe p;
      p.row_index = kRows + static_cast<std::uint64_t>(out.probes) % kProbeRows;
      std::string value = "probe-" + std::to_string(out.probes);
      const std::size_t hash = value_hash(value);
      const auto bytes = static_cast<std::int64_t>(value.size());
      ++out.probes;
      Transaction txn = client.begin(kTable);
      txn.put(Testbed::row_key(p.row_index), kColumn, std::move(value));
      auto committed = txn.commit();
      if (committed.is_ok()) {
        p.ts = committed.value();
        p.committed_ns = now_ns();
        note_write(out.written, p.row_index, {p.ts, hash});
        out.probe_bytes += bytes;
        probes.push_back(p);
      } else {
        ++out.probe_errors;
      }
    }
    if (trace && now >= next_level) {
      next_level += kLevelEvery * 1000;
      accumulate(out.levels, take_snapshot(bed));
      ++out.level_samples;
    }
    bool invisible = false;
    for (Probe& p : probes) {
      if (p.resolved()) continue;
      poll_probe(bed, p);
      invisible = invisible || p.visible_ms < 0;
    }
    if (trace && now - slice_start >= kTraceSlice * 1000) {
      const bool traced = ctl.slice.load(std::memory_order_acquire) == Slice::kTraced;
      (traced ? out.traced_s : out.untraced_s) += static_cast<double>(now - slice_start) / 1e9;
      ctl.slice.store(traced ? Slice::kUntraced : Slice::kTraced, std::memory_order_release);
      slice_start = now;
    }
    // Poll finely while a probe is on its way to its region; TF and TP move
    // in heartbeat-sized steps, so a coarse poll suffices for them.
    sleep_micros(invisible ? 50 : 500);
  }
  if (trace) {
    const bool traced = ctl.slice.load(std::memory_order_acquire) == Slice::kTraced;
    (traced ? out.traced_s : out.untraced_s) += static_cast<double>(now_ns() - slice_start) / 1e9;
  }
  ctl.slice.store(Slice::kNone, std::memory_order_release);
  for (const Probe& p : probes) {
    if (!p.resolved()) {
      ++out.unresolved;
      continue;
    }
    out.visible_ms.push_back(p.visible_ms);
    out.stable_ms.push_back(p.stable_ms);
    out.checkpoint_ms.push_back(p.checkpoint_ms);
  }
  return out;
}

/// Wait, for at most 2 s, until `phase` has passed since the server's last
/// heartbeat (within 10 ms).
void wait_for_heartbeat_phase(Testbed& bed, const std::string& server, Micros phase) {
  const Micros give_up = now_micros() + seconds(2);
  while (now_micros() < give_up) {
    const auto session = bed.coord().session("servers", server);
    const Micros since = session ? now_micros() - session->last_heartbeat : phase;
    if (since >= phase && since < phase + millis(10)) return;
    sleep_micros(500);
  }
}

struct CrashResult {
  bool recovered = false;
  double held_ms = 0;      // commits held for the crash
  double detect_ms = 0;    // crash until the master drops the server
  double recovery_ms = 0;  // crash until recovery is complete
};

/// Crash server 0 and wait for its recovery. Transactions stay open through
/// the crash, but commits are held from shortly before it until it has
/// happened, and every client drains its flush queue in between, so no apply
/// RPC is in flight when the server dies: a crash racing an in-flight apply
/// drops that write-set (README.md, Findings), and the benchmark must not
/// fail by chance.
CrashResult crash_and_recover(const Workload& w, Testbed& bed, Control& ctl) {
  CrashResult out;
  // Crash a fixed time after one of the victim's heartbeats: detection then
  // takes the same share of the session TTL on every trial, and the replay
  // covers the same share of a heartbeat's un-persisted write-sets, instead
  // of both varying with wherever the crash happens to land.
  const std::string victim = bed.cluster().server(0).id();
  wait_for_heartbeat_phase(bed, victim, kCrashPhase - kHoldLead);
  const std::int64_t hold_ns = now_ns();
  ctl.hold_commits.store(true, std::memory_order_release);
  const Micros deadline = now_micros() + seconds(5);
  for (int i = 0; i < bed.num_clients(); ++i) {
    if (!bed.client(i).wait_flushed(std::max<Micros>(deadline - now_micros(), 1))) {
      std::fprintf(stderr, "tfrbench: client %d did not drain before the crash\n", i);
    }
  }
  if (w.flush_before_crash) {
    if (Status s = bed.flush_all_memstores(); !s.is_ok()) {
      std::fprintf(stderr, "tfrbench: flush before the crash failed: %s\n", s.to_string().c_str());
    }
  }
  wait_for_heartbeat_phase(bed, victim, kCrashPhase);
  const std::size_t live = bed.master().live_servers().size();
  const std::int64_t crash_ns = now_ns();
  bed.crash_server(0);
  ctl.hold_commits.store(false, std::memory_order_release);
  out.held_ms = ms_between(hold_ns, now_ns());

  const Micros detect_deadline = now_micros() + seconds(20);
  while (bed.master().live_servers().size() >= live) {
    if (now_micros() > detect_deadline) return out;
    sleep_micros(200);
  }
  out.detect_ms = ms_between(crash_ns, now_ns());
  if (!bed.wait_server_recoveries(1, seconds(20))) return out;
  bed.wait_for_recovery();
  out.recovery_ms = ms_between(crash_ns, now_ns());
  out.recovered = true;
  return out;
}

/// Read the whole table, probe rows included, at the latest snapshot: 1000-row
/// scans handed out to one thread per client, so the cold block reads of
/// different regions overlap.
Result<std::vector<Cell>> scan_table(Testbed& bed) {
  constexpr std::uint64_t kChunk = 1000;
  const std::uint64_t chunks = (kRows + kProbeRows + kChunk - 1) / kChunk;
  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<Cell>> parts(static_cast<std::size_t>(bed.num_clients()));
  std::vector<Status> errors(parts.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    threads.emplace_back([&, i] {
      Transaction txn = bed.client(static_cast<int>(i)).begin(kTable);
      for (std::uint64_t c = next++; c < chunks; c = next++) {
        const std::string end = c + 1 == chunks ? "" : Testbed::row_key((c + 1) * kChunk);
        auto cells = txn.scan(Testbed::row_key(c * kChunk), end, 0);
        if (!cells.is_ok()) {
          errors[i] = cells.status();
          break;
        }
        parts[i].insert(parts[i].end(), cells.value().begin(), cells.value().end());
      }
      txn.abort();
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Cell> all;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (!errors[i].is_ok()) return errors[i];
    all.insert(all.end(), parts[i].begin(), parts[i].end());
  }
  return all;
}

struct AuditResult {
  bool scanned = false;
  std::int64_t lost = 0;       // rows whose newest acknowledged value is not readable
  std::int64_t undrained = 0;  // committed write-sets still unflushed after kDrainBudget
};

std::uint64_t row_index(const std::string& row) {
  return std::strtoull(row.c_str() + std::strlen("user"), nullptr, 10);
}

/// Drain every client within kDrainBudget, then read the whole table with
/// scan_table (per-row gets would take seconds per trial on the paper
/// model). Every loaded row must be there, and every written row must hold
/// the value of its newest acknowledged write — the last put of the newest
/// commit that wrote it.
AuditResult audit(Testbed& bed, const WriteLog& expected) {
  AuditResult out;
  const Micros deadline = now_micros() + kDrainBudget;
  std::vector<int> stuck;
  for (int i = 0; i < bed.num_clients(); ++i) {
    TxnClient& c = bed.client(i);
    if (!c.wait_flushed(std::max<Micros>(deadline - now_micros(), 1))) {
      out.undrained += static_cast<std::int64_t>(c.flush_backlog());
      stuck.push_back(i);
    }
  }
  auto cells = scan_table(bed);
  // A clean close would wait out the backlog once more; crash the client so
  // the run reports the failure instead of outliving its budget.
  for (int i : stuck) bed.crash_client(i);
  if (!cells.is_ok()) {
    std::fprintf(stderr, "tfrbench: audit scan failed: %s\n", cells.status().to_string().c_str());
    return out;
  }
  std::unordered_map<std::uint64_t, std::size_t> seen;  // row index -> value hash
  for (const Cell& c : cells.value()) {
    if (c.column == kColumn) seen[row_index(c.row)] = value_hash(c.value);
  }
  out.scanned = true;
  for (std::uint64_t i = 0; i < kRows; ++i) {
    if (!seen.count(i) && !expected.count(i)) ++out.lost;
  }
  for (const auto& [row, write] : expected) {
    auto it = seen.find(row);
    if (it == seen.end() || it->second != write.value_hash) ++out.lost;
  }
  return out;
}

// --- one trial -------------------------------------------------------------------

struct TrialResult {
  bool complete = false;  // set up, recovered and audited
  double setup_s = 0;
  double measured_s = 0;
  std::vector<WorkerResult> workers;
  WindowResult window;
  CrashResult crash;
  AuditResult audit;
  Snapshot measured;  // over the measured phase
  Snapshot recovery;  // window end -> recovery complete
  double split_ms = 0;
  double replay_ms = 0;
};

Status set_up(Testbed& bed, const Workload& w, std::uint64_t seed) {
  TFR_RETURN_IF_ERROR(bed.start());
  TFR_RETURN_IF_ERROR(bed.create_table(kTable, kRows, w.regions));
  TFR_RETURN_IF_ERROR(bed.load_rows(kTable, kRows, kValueBytes, seed));
  TFR_RETURN_IF_ERROR(bed.flush_all_memstores());
  if (w.warm_cache) {
    // The paper warms the block caches before each experiment (§4.1).
    auto cells = scan_table(bed);
    if (!cells.is_ok()) return cells.status();
  }
  return Status::ok();
}

TrialResult run_trial(const Workload& w, std::uint64_t seed, Micros window, bool trace) {
  TrialResult t;
  const std::int64_t setup_start = now_ns();
  Testbed bed(testbed_config(w));
  if (Status s = set_up(bed, w, seed); !s.is_ok()) {
    std::fprintf(stderr, "tfrbench: set-up failed: %s\n", s.to_string().c_str());
    return t;
  }
  t.setup_s = ms_between(setup_start, now_ns()) / 1e3;

  Control ctl;
  WorkerPool pool(w, bed, ctl, seed);
  sleep_micros(kWarmup);

  // The measured phase is the window, or for crash_recovery the window,
  // the crash and the recovery. Counter deltas cover the same phase as the
  // samples, so ratios of the two are consistent.
  const Snapshot before = take_snapshot(bed);
  const std::int64_t measure_start = now_ns();
  ctl.record.store(true, std::memory_order_release);
  t.window = run_window(bed, ctl, window, trace);
  std::int64_t measure_end = now_ns();
  if (!w.measure_through_crash) ctl.record.store(false, std::memory_order_release);
  const Snapshot window_end = take_snapshot(bed);
  t.crash = crash_and_recover(w, bed, ctl);
  if (t.crash.recovered) {
    sleep_micros(w.measure_through_crash ? kMeasuredAfterRecovery : kAfterRecovery);
  }
  if (w.measure_through_crash) {
    ctl.record.store(false, std::memory_order_release);
    measure_end = now_ns();
  }
  const Snapshot recovered = take_snapshot(bed);
  t.measured_s = ms_between(measure_start, measure_end) / 1e3;
  pool.stop();
  t.workers = pool.take_results();
  if (!t.crash.recovered) {
    std::fprintf(stderr, "tfrbench: recovery did not complete (trial seed %llu)\n",
                 static_cast<unsigned long long>(seed));
    return t;
  }
  t.measured = (w.measure_through_crash ? recovered : window_end) - before;
  t.recovery = recovered - window_end;
  t.split_ms = at(recovered, "gauge.master.last_split_us") / 1e3;
  t.replay_ms = at(recovered, "gauge.master.last_replay_us") / 1e3;

  WriteLog expected = t.window.written;
  for (const WorkerResult& r : t.workers) {
    for (const auto& [row, write] : r.written) note_write(expected, row, write);
  }
  t.audit = audit(bed, expected);
  if (t.audit.lost != 0 || t.audit.undrained != 0) {
    std::fprintf(stderr,
                 "tfrbench: AUDIT FAILED workload=%s trial seed=%llu: %lld acknowledged writes "
                 "lost, %lld write-sets undrained\n",
                 w.name, static_cast<unsigned long long>(seed),
                 static_cast<long long>(t.audit.lost), static_cast<long long>(t.audit.undrained));
  }
  t.complete = t.audit.scanned;
  return t;
}

// --- reporting -------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string basis;  // sample counts, or a ratio's base counts
};

/// Everything the trials of one run measured, pooled.
struct RunTotals {
  int trials = 0;
  bool complete = true;
  std::vector<double> setup_s, detect_ms, recovery_ms, split_ms, replay_ms;
  std::vector<double> txn_ms, commit_ms, read_ms, visible_ms, stable_ms, checkpoint_ms;
  double measured_s = 0;
  double traced_s = 0;
  double untraced_s = 0;
  std::int64_t attempted = 0, errors = 0, committed = 0, reads = 0;
  std::int64_t write_commits = 0, user_bytes = 0;  // workers' and probes'
  std::int64_t traced_commits = 0, untraced_commits = 0;
  std::int64_t probes = 0, unresolved_probes = 0, lost = 0, undrained = 0;
  Snapshot measured, recovery;
  Snapshot levels;  // sums of level_samples snapshots
  int level_samples = 0;
  std::vector<SpanLog> spans;
};

void add_trial(RunTotals& r, TrialResult& t) {
  ++r.trials;
  r.complete = r.complete && t.complete;
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  r.setup_s.push_back(t.setup_s);
  r.detect_ms.push_back(t.crash.detect_ms);
  r.recovery_ms.push_back(t.crash.recovery_ms);
  r.split_ms.push_back(t.split_ms);
  r.replay_ms.push_back(t.replay_ms);
  r.measured_s += t.measured_s;
  r.traced_s += t.window.traced_s;
  r.untraced_s += t.window.untraced_s;
  append(r.visible_ms, t.window.visible_ms);
  append(r.stable_ms, t.window.stable_ms);
  append(r.checkpoint_ms, t.window.checkpoint_ms);
  r.attempted += t.window.probes;
  r.errors += t.window.probe_errors;
  r.probes += t.window.probes;
  r.unresolved_probes += t.window.unresolved;
  r.write_commits += t.window.probes - t.window.probe_errors;
  r.user_bytes += t.window.probe_bytes;
  for (WorkerResult& w : t.workers) {
    append(r.txn_ms, w.txn_ms);
    append(r.commit_ms, w.commit_ms);
    append(r.read_ms, w.read_ms);
    r.attempted += w.attempted;
    r.errors += w.errors;
    r.committed += w.committed;
    r.reads += w.reads;
    r.write_commits += w.write_commits;
    r.user_bytes += w.user_bytes;
    r.traced_commits += w.traced_commits;
    r.untraced_commits += w.untraced_commits;
    r.spans.push_back(std::move(w.spans));
  }
  r.lost += t.audit.lost;
  r.undrained += t.audit.undrained;
  accumulate(r.measured, t.measured);
  accumulate(r.levels, t.window.levels);
  r.level_samples += t.window.level_samples;
  accumulate(r.recovery, t.recovery);
}

std::string samples(const std::vector<double>& v) { return fmt("n=%zu", v.size()); }

std::string per_trial(const std::vector<double>& v) {
  std::string s = "median of";
  for (double x : v) s += fmt(" %.4g", x);
  return s;
}

// The tail is the 90th percentile: on a shared host, stalls of the host
// set the 99th, which spread across runs by more than any bound (README.md).
std::vector<Metric> end_to_end_metrics(const RunTotals& r) {
  return {
      {"setup_s", "s", median(r.setup_s), per_trial(r.setup_s)},
      {"txn_tps", "1/s", ratio(static_cast<double>(r.committed), r.measured_s),
       fmt("%lld commits / %.3f s", static_cast<long long>(r.committed), r.measured_s)},
      {"txn_p50_ms", "ms", percentile(r.txn_ms, 50), samples(r.txn_ms)},
      {"txn_p90_ms", "ms", percentile(r.txn_ms, 90), samples(r.txn_ms)},
      {"commit_p50_ms", "ms", percentile(r.commit_ms, 50), samples(r.commit_ms)},
      {"commit_p90_ms", "ms", percentile(r.commit_ms, 90), samples(r.commit_ms)},
      {"read_p50_ms", "ms", percentile(r.read_ms, 50), samples(r.read_ms)},
      {"read_p90_ms", "ms", percentile(r.read_ms, 90), samples(r.read_ms)},
      {"visible_p50_ms", "ms", median(r.visible_ms), samples(r.visible_ms)},
      {"stable_lag_p50_ms", "ms", median(r.stable_ms), samples(r.stable_ms)},
      {"recovery_ms", "ms", median(r.recovery_ms), per_trial(r.recovery_ms)},
  };
}

std::vector<Metric> per_layer_metrics(const RunTotals& r, const TestbedConfig& cfg) {
  const Snapshot& d = r.measured;
  const Snapshot& rec = r.recovery;
  auto c = [&d](const char* key) { return at(d, key); };
  auto n = [](double v) { return static_cast<long long>(std::llround(v)); };
  std::vector<const SpanLog*> logs;
  for (const SpanLog& s : r.spans) logs.push_back(&s);
  auto spans = [&logs](SpanName name) { return durations_us(logs, name); };
  const auto kv_get = spans(SpanName::kKvClientGet);
  const auto rs_get = spans(SpanName::kRegionServerGet);
  const auto region_get = spans(SpanName::kRegionGet);
  const auto region_scan = spans(SpanName::kRegionScan);
  const auto begin = spans(SpanName::kClientBegin);
  const RegionServerConfig& server = cfg.cluster.server;
  // Self time down the read chain is the parent's mean minus the child's:
  // each probe reads its own key, and means of the two add up where medians
  // do not (a get is bimodal, cache hit or DFS read, on read_cold_zipf).
  // Configured time in a RegionServer::get that Region::get does not cover
  // is the RPC hop, with its mean jitter, plus the service time.
  const double modeled_us = static_cast<double>(server.rpc_latency + server.rpc_jitter +
                                                server.read_service);
  const double rs_self = mean(rs_get) - mean(region_get);

  const double commits = c("tm.commits"), conflicts = c("tm.aborts_conflict");
  const double batches = c("txn_log.batches"), appends = c("txn_log.appends");
  const double dfs_syncs = c("dfs.syncs");
  const double waits = c("hist.log.sync_wait.count");
  const double hits = c("counter.kv.route_hits"), misses = c("counter.kv.route_misses");
  const double rpcs = c("counter.kv.batch_apply_rpcs"), slices = c("counter.kv.batch_apply_slices");
  const auto reads = static_cast<double>(r.reads);
  const double cache_hits = c("block_cache.hits"), cache_misses = c("block_cache.misses");
  const double wal_records = c("wal.appended_records"), wal_syncs = c("wal.syncs");
  const double replayed = at(rec, "recovery_client.mutations_replayed");
  const double skipped = at(rec, "recovery_client.mutations_skipped");
  const double untraced_tps = ratio(static_cast<double>(r.untraced_commits), r.untraced_s);
  const double traced_tps = ratio(static_cast<double>(r.traced_commits), r.traced_s);

  return {
      {"client.begin_p50_us", "us", median(begin), samples(begin)},
      {"txn.conflict_abort_ratio", "ratio", ratio(conflicts, commits + conflicts),
       fmt("%lld conflicts / %lld attempts", n(conflicts), n(commits + conflicts))},
      {"txn.stable_writes_per_txn", "count", ratio(batches + dfs_syncs, commits),
       fmt("(%lld log syncs + %lld dfs syncs) / %lld commits", n(batches), n(dfs_syncs),
           n(commits))},
      {"txn_log.appends_per_batch", "count", ratio(appends, batches),
       fmt("%lld appends / %lld batches", n(appends), n(batches))},
      {"txn_log.group_wait_ratio", "ratio", ratio(c("txn_log.group_waits"), batches),
       fmt("%lld held / %lld batches", n(c("txn_log.group_waits")), n(batches))},
      {"txn_log.sync_wait_mean_us", "us", ratio(c("hist.log.sync_wait.sum_us"), waits),
       fmt("%lld syncs", n(waits))},
      {"txn_log.retained_records", "count",
       ratio(at(r.levels, "txn_log.retained_records"), r.level_samples),
       fmt("mean of %d samples", r.level_samples)},
      {"txn_log.gc_segments", "count", c("txn_log.gc_segments"), "reclaimed in windows"},
      {"kv_client.get_p50_us", "us", median(kv_get), samples(kv_get)},
      {"kv_client.self_us", "us", mean(kv_get) - mean(rs_get),
       "mean kv_client.get - mean region_server.get"},
      {"kv_client.route_hit_ratio", "ratio", ratio(hits, hits + misses),
       fmt("%lld hits / %lld lookups", n(hits), n(hits + misses))},
      {"kv_client.batch_rpcs_per_write_txn", "count",
       ratio(rpcs, static_cast<double>(r.write_commits)),
       fmt("%lld batched apply RPCs / %lld write commits", n(rpcs),
           static_cast<long long>(r.write_commits))},
      {"kv_client.slices_per_batch_rpc", "count", ratio(slices, rpcs),
       fmt("%lld slices / %lld RPCs", n(slices), n(rpcs))},
      {"kv_client.flush_retries", "count", at(rec, "counter.kv.flush_retries"), "during recovery"},
      {"kv_client.read_retries", "count", at(rec, "counter.kv.read_retries"), "during recovery"},
      {"region_server.get_p50_us", "us", median(rs_get), samples(rs_get)},
      {"region_server.self_us", "us", rs_self, "mean region_server.get - mean region.get"},
      {"region_server.wait_us", "us", rs_self - modeled_us,
       fmt("self - %.0f us configured RPC and service time", modeled_us)},
      {"region.get_p50_us", "us", median(region_get), samples(region_get)},
      {"region.get_p90_us", "us", percentile(region_get, 90), samples(region_get)},
      {"region.scan_p50_us", "us", median(region_scan), samples(region_scan)},
      {"region.store_files_mean", "count",
       ratio(at(r.levels, "region.store_files"), at(r.levels, "region.count")),
       fmt("mean of %d samples", r.level_samples)},
      {"region.bloom_skips_per_read", "count", ratio(c("counter.kv.sf_bloom_skips"), reads),
       fmt("%lld skips / %lld gets and scans", n(c("counter.kv.sf_bloom_skips")), n(reads))},
      {"block_cache.hit_ratio", "ratio", ratio(cache_hits, cache_hits + cache_misses),
       fmt("%lld hits / %lld lookups", n(cache_hits), n(cache_hits + cache_misses))},
      {"block_cache.evictions_per_s", "1/s", ratio(c("block_cache.evictions"), r.measured_s),
       fmt("%lld evictions", n(c("block_cache.evictions")))},
      {"block_cache.single_flight_waits", "count", c("block_cache.single_flight_waits"), ""},
      {"wal.records_per_sync", "count", ratio(wal_records, wal_syncs),
       fmt("%lld records / %lld syncs", n(wal_records), n(wal_syncs))},
      {"wal.rolls", "count", c("wal.rolls"), ""},
      {"wal.segments_truncated", "count", c("wal.segments_truncated"), ""},
      {"dfs.block_reads_per_read", "count", ratio(c("dfs.block_reads"), reads),
       fmt("%lld block reads / %lld gets and scans", n(c("dfs.block_reads")), n(reads))},
      {"dfs.syncs_per_s", "1/s", ratio(dfs_syncs, r.measured_s), fmt("%lld syncs", n(dfs_syncs))},
      {"dfs.bytes_synced_per_user_byte", "ratio",
       ratio(c("dfs.bytes_synced"), static_cast<double>(r.user_bytes)),
       fmt("%lld bytes synced / %lld value bytes committed", n(c("dfs.bytes_synced")),
           static_cast<long long>(r.user_bytes))},
      {"recovery.detect_ms", "ms", median(r.detect_ms), per_trial(r.detect_ms)},
      {"recovery.split_ms", "ms", median(r.split_ms), per_trial(r.split_ms)},
      {"recovery.replay_ms", "ms", median(r.replay_ms), per_trial(r.replay_ms)},
      {"recovery.replayed_writesets", "count", at(rec, "rm.writesets_replayed_server"),
       fmt("over %d trials", r.trials)},
      {"recovery.replay_useful_ratio", "ratio", ratio(replayed, replayed + skipped),
       fmt("%lld mutations replayed / %lld examined", n(replayed), n(replayed + skipped))},
      {"recovery.regions_recovered", "count", at(rec, "rm.regions_recovered"),
       fmt("over %d trials", r.trials)},
      {"rm.threshold_refreshes_per_s", "1/s", ratio(c("rm.threshold_refreshes"), r.measured_s),
       fmt("%lld refreshes", n(c("rm.threshold_refreshes")))},
      {"rm.checkpoint_lag_p50_ms", "ms", median(r.checkpoint_ms), samples(r.checkpoint_ms)},
      {"audit.lost_writes", "count", static_cast<double>(r.lost), ""},
      {"audit.undrained_writesets", "count", static_cast<double>(r.undrained), ""},
      {"trace.overhead_pct", "%", untraced_tps > 0 ? 100.0 * (1.0 - traced_tps / untraced_tps) : 0,
       fmt("%.1f tps traced vs %.1f untraced", traced_tps, untraced_tps)},
  };
}

/// A double with every digit it has (shortest form that reads back exactly);
/// null for a non-finite value, which marks the run not correct.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_result(const std::vector<Metric>& metrics, bool correct, std::int64_t attempted,
                  std::int64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.basis.c_str());
  }
  std::string json = fmt("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                         correct ? "true" : "false", static_cast<long long>(attempted),
                         static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Ends the process if a run outlives its budget: a wedged recovery or
/// drain must fail the run, not hang it.
class Watchdog {
 public:
  explicit Watchdog(Micros budget)
      : thread_([this, budget] {
          std::unique_lock<std::mutex> lock(mutex_);
          const auto timeout = std::chrono::microseconds(budget);
          if (!done_cv_.wait_for(lock, timeout, [this] { return done_; })) {
            std::fprintf(stderr, "tfrbench: run exceeded %lld s; aborting\n",
                         static_cast<long long>(budget / seconds(1)));
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    done_cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts once the members it reads exist
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  int trials = 3;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tfrbench: %s\nusage: tfrbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trials <n>]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) usage(("unknown workload " + value).c_str());
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trials") {
      a.trials = std::atoi(value.c_str());
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  if (a.seconds < 1 || a.trials < 1 || a.trials > 100) usage("--seconds and --trials must be >= 1");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload& w = *args.workload;
  Watchdog watchdog(kRunBudget);
  std::printf("tfrbench workload=%s seed=%llu seconds=%d trials=%d trace=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trials,
              args.trace ? 1 : 0);
  const Micros window = seconds(args.seconds) / args.trials;
  RunTotals totals;
  for (int t = 0; t < args.trials; ++t) {
    // Trials of different seeds never share inputs.
    const std::uint64_t trial_seed = args.seed * 1000 + static_cast<std::uint64_t>(t);
    TrialResult trial = run_trial(w, trial_seed, window, args.trace);
    std::int64_t errors = trial.window.probe_errors;
    std::string first_error;
    for (const WorkerResult& r : trial.workers) {
      errors += r.errors;
      if (first_error.empty()) first_error = r.first_error;
    }
    std::fprintf(stderr,
                 "tfrbench: trial %d seed=%llu setup=%.2fs measured=%.2fs held=%.0fms "
                 "recovery=%.0fms errors=%lld lost=%lld undrained=%lld %s\n",
                 t, static_cast<unsigned long long>(trial_seed), trial.setup_s, trial.measured_s,
                 trial.crash.held_ms, trial.crash.recovery_ms, static_cast<long long>(errors),
                 static_cast<long long>(trial.audit.lost),
                 static_cast<long long>(trial.audit.undrained), first_error.c_str());
    add_trial(totals, trial);
  }
  if (totals.unresolved_probes > 0) {
    std::fprintf(stderr, "tfrbench: %lld of %lld probes had not reached TP by window end\n",
                 static_cast<long long>(totals.unresolved_probes),
                 static_cast<long long>(totals.probes));
  }

  const std::vector<Metric> metrics = args.trace
                                          ? per_layer_metrics(totals, testbed_config(w))
                                          : end_to_end_metrics(totals);
  // Lost and undrained writes count as failed operations and make the run
  // incorrect: no apply is in flight at the crash, so no known race
  // explains a loss.
  bool correct = totals.complete && totals.lost == 0 && totals.undrained == 0;
  for (const Metric& m : metrics) {
    // End-to-end metrics are never 0 on a run that worked.
    if (!std::isfinite(m.value) || (!args.trace && m.value <= 0)) {
      std::fprintf(stderr, "tfrbench: metric %s has no valid value\n", m.name.c_str());
      correct = false;
    }
  }
  if (args.trace) {
    std::vector<const SpanLog*> logs;
    std::int64_t origin = INT64_MAX;
    for (const SpanLog& s : totals.spans) {
      logs.push_back(&s);
      for (const Span& span : s.spans()) origin = std::min(origin, span.start_ns);
    }
    const std::string binary = argv[0];
    const std::string path = binary.substr(0, binary.find_last_of('/') + 1) +
                             "tfrbench-trace-" + w.name + ".json";
    if (!write_chrome_trace(path, logs, origin == INT64_MAX ? 0 : origin)) {
      std::fprintf(stderr, "tfrbench: cannot write %s\n", path.c_str());
    }
  }
  print_result(metrics, correct, totals.attempted, totals.errors + totals.lost + totals.undrained);
  return 0;
}
