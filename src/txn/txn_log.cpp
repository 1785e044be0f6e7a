#include "src/txn/txn_log.h"

#include <algorithm>
#include <functional>

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tfr {

namespace {
// Cap on write-sets per group-commit batch.
constexpr std::size_t kMaxBatch = 256;
// Hard cap on the adaptive accumulation window.
constexpr Micros kMaxGroupWait = millis(2);
}  // namespace

TxnLog::TxnLog(TxnLogConfig config)
    : config_(config),
      gc_task_([this] { gc_now(); }, config.gc_interval > 0 ? config.gc_interval : millis(20)) {
  const int lanes = std::max(1, config.lanes);
  lanes_.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    auto lane = std::make_unique<Lane>();
    lane->sync_model.set(config.sync_latency, config.sync_jitter);
    lane->segments.emplace_back();  // the initial active segment
    lanes_.push_back(std::move(lane));
  }
  for (auto& lane : lanes_) {
    lane->appender = std::thread([this, lane = lane.get()] { appender_loop(*lane); });
  }
  {
    MutexLock lock(mutex_);
    stats_.segments = static_cast<std::int64_t>(lanes_.size());
    export_gauges_locked();
  }
  if (config.gc_interval > 0) gc_task_.start();
}

TxnLog::~TxnLog() {
  gc_task_.stop();
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  for (auto& lane : lanes_) lane->work_cv.notify_all();
  done_cv_.notify_all();
  for (auto& lane : lanes_) {
    if (lane->appender.joinable()) lane->appender.join();
  }
}

Status TxnLog::append(WriteSet ws) {
  TFR_BLOCKING_POINT("txn_log.append");
  if (ws.commit_ts == kNoTimestamp) {
    return Status::invalid_argument("write-set has no commit timestamp");
  }
  // Route by client: a client's commits serialize through one logging node,
  // different clients' batches overlap across lanes.
  Lane& lane = *lanes_[std::hash<std::string>{}(ws.client_id) % lanes_.size()];
  auto pending = std::make_shared<Pending>();
  pending->ws = std::move(ws);
  {
    MutexLock lock(mutex_);
    lane.queue.push_back(pending);
    lane.work_cv.notify_one();
    while (!pending->done && !stop_) done_cv_.wait(lock);
    if (!pending->done) return Status::closed("txn log shut down");
  }
  return Status::ok();
}

void TxnLog::insert_locked(Lane& lane, WriteSet ws) {
  Segment* active = &lane.segments.back();
  if (active->sealed || active->records.size() >= config_.segment_records) {
    // Seal and open a fresh active segment. index_ts inherits the running
    // max so the per-lane index stays monotone even if a straggler commit
    // landed out of order across the boundary.
    active->sealed = true;
    lane.segments.emplace_back();
    Segment& fresh = lane.segments.back();
    fresh.index_ts = active->index_ts;
    active = &fresh;
    ++stats_.segments;
  }
  const Timestamp ts = ws.commit_ts;
  const auto bytes = static_cast<std::int64_t>(ws.byte_size());
  active->records[ts] = std::move(ws);
  active->max_ts = std::max(active->max_ts, ts);
  active->index_ts = std::max(active->index_ts, ts);
  active->bytes += static_cast<std::size_t>(bytes);
  ++stats_.retained_records;
  stats_.retained_bytes += bytes;
  if (ts > floor_) {
    ++stats_.live_records;
    stats_.live_bytes += bytes;
  } else {
    // A commit at or below an already-published TP cannot happen (TP only
    // covers flushed-and-persisted transactions), but count it as truncated
    // rather than corrupting the live totals if it ever does.
    ++stats_.truncated;
  }
}

void TxnLog::appender_loop(Lane& lane) {
  static Histogram& batch_hist = global_histogram("log.batch_size");
  static Histogram& sync_hist = global_histogram("log.sync_wait");
  for (;;) {
    std::vector<std::shared_ptr<Pending>> batch;
    bool waited = false;
    {
      MutexLock lock(mutex_);
      while (lane.queue.empty() && !stop_) lane.work_cv.wait(lock);
      if (stop_) return;
      if (lane.queue.size() < kMaxBatch &&
          static_cast<double>(lane.queue.size() + 1) <= lane.ewma_batch) {
        // Recent batches were at least one record deeper than the queue at
        // wake: another appender is expected mid-flight, so hold the sync
        // briefly to let it join. A fractional shortfall (queue 1, average
        // 1.3) predicts no joiner, and holding for it would only delay the
        // record already here. The window is worth at most half a sync —
        // beyond that the wait costs more than the sync it would save.
        const Micros window = std::min(static_cast<Micros>(lane.ewma_sync_us / 2), kMaxGroupWait);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::microseconds(window);
        while (!stop_ && lane.queue.size() < kMaxBatch &&
               static_cast<double>(lane.queue.size()) < lane.ewma_batch) {
          waited = true;
          if (!lane.work_cv.wait_until(lock, deadline)) break;
        }
        if (stop_) return;
      }
      const std::size_t take = std::min(lane.queue.size(), kMaxBatch);
      batch.assign(lane.queue.begin(), lane.queue.begin() + static_cast<std::ptrdiff_t>(take));
      lane.queue.erase(lane.queue.begin(), lane.queue.begin() + static_cast<std::ptrdiff_t>(take));
    }
    // One stable-storage write for the whole batch (group commit). Lanes
    // overlap here: this sleep happens outside the shared mutex.
    const Micros sync_start = now_micros();
    lane.sync_model.charge();
    const Micros sync_us = now_micros() - sync_start;
    batch_hist.record(static_cast<Micros>(batch.size()));
    sync_hist.record(sync_us);
    {
      MutexLock lock(mutex_);
      // EWMAs react in a few batches but smooth over jitter (alpha = 1/4).
      lane.ewma_sync_us += (static_cast<double>(sync_us) - lane.ewma_sync_us) / 4;
      lane.ewma_batch += (static_cast<double>(batch.size()) - lane.ewma_batch) / 4;
      for (auto& p : batch) {
        insert_locked(lane, std::move(p->ws));
        p->done = true;
        ++stats_.appends;
      }
      ++stats_.batches;
      if (waited) ++stats_.group_waits;
      export_gauges_locked();
    }
    done_cv_.notify_all();
  }
}

std::vector<WriteSet> TxnLog::fetch_after(Timestamp after_ts,
                                          std::optional<std::string_view> client_id) const {
  MutexLock lock(mutex_);
  const Timestamp after = std::max(after_ts, floor_);
  std::vector<WriteSet> out;
  // Client routing pins every record of a client to one lane, but a client
  // fetch stays agnostic to the routing function and scans all lanes'
  // indexes — the skip-by-index bound is what matters.
  for (const auto& lane : lanes_) {
    // Binary-search the segment index: index_ts is the monotone running max
    // per lane, so every segment before the partition point holds only
    // records <= after and is skipped without touching its map.
    const auto first = std::partition_point(
        lane->segments.begin(), lane->segments.end(),
        [after](const Segment& seg) { return seg.index_ts <= after; });
    for (auto seg = first; seg != lane->segments.end(); ++seg) {
      for (auto it = seg->records.upper_bound(after); it != seg->records.end(); ++it) {
        if (!client_id || it->second.client_id == *client_id) out.push_back(it->second);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const WriteSet& a, const WriteSet& b) { return a.commit_ts < b.commit_ts; });
  return out;
}

void TxnLog::truncate_through(Timestamp up_to) {
  MutexLock lock(mutex_);
  if (up_to <= floor_) return;  // idempotent; lower checkpoints are no-ops
  // Logical truncation: count exactly the records in (floor_, up_to] and
  // advance the floor. Each record is visited by this loop at most once
  // across the log's lifetime, so truncation stays amortized O(1) per
  // record no matter how often the RM checkpoints.
  const Timestamp old_floor = floor_;
  for (const auto& lane : lanes_) {
    const auto first = std::partition_point(
        lane->segments.begin(), lane->segments.end(),
        [old_floor](const Segment& seg) { return seg.index_ts <= old_floor; });
    for (auto seg = first; seg != lane->segments.end(); ++seg) {
      const auto begin = seg->records.upper_bound(old_floor);
      const auto end = seg->records.upper_bound(up_to);
      for (auto it = begin; it != end; ++it) {
        ++stats_.truncated;
        --stats_.live_records;
        stats_.live_bytes -= static_cast<std::int64_t>(it->second.byte_size());
      }
    }
  }
  floor_ = up_to;
  gc_locked();
}

void TxnLog::gc_now() {
  MutexLock lock(mutex_);
  gc_locked();
}

void TxnLog::gc_locked() {
  static Counter& reclaimed = global_counter("log.gc_bytes_reclaimed");
  for (const auto& lane : lanes_) {
    // Seal an oversized active segment even if appends paused, so an idle
    // lane's tail still becomes GC-eligible.
    Segment& active = lane->segments.back();
    if (!active.sealed && active.records.size() >= config_.segment_records) {
      active.sealed = true;
      lane->segments.emplace_back();
      lane->segments.back().index_ts = active.index_ts;
      ++stats_.segments;
    }
    // Delete whole sealed segments strictly below the floor (Algorithm 4).
    // Oldest-first; stop at the first survivor — a later segment's own max
    // can in principle dip below an earlier one's (boundary straggler), but
    // retaining it until the front drains keeps the index intact and costs
    // at most one segment of slack.
    while (lane->segments.size() > 1 && lane->segments.front().sealed &&
           lane->segments.front().max_ts <= floor_) {
      Segment& dead = lane->segments.front();
      stats_.retained_records -= static_cast<std::int64_t>(dead.records.size());
      stats_.retained_bytes -= static_cast<std::int64_t>(dead.bytes);
      ++stats_.gc_segments;
      stats_.gc_bytes_reclaimed += static_cast<std::int64_t>(dead.bytes);
      reclaimed.add(static_cast<std::int64_t>(dead.bytes));
      --stats_.segments;
      gc_watermark_ = std::max(gc_watermark_, dead.max_ts);
      lane->segments.pop_front();
    }
  }
  export_gauges_locked();
}

void TxnLog::export_gauges_locked() {
  static Gauge& segments_gauge = global_gauge("log.segments");
  static Gauge& retained_gauge = global_gauge("log.retained_txns");
  segments_gauge.set(stats_.segments);
  retained_gauge.set(stats_.retained_records);
}

Timestamp TxnLog::gc_watermark() const {
  MutexLock lock(mutex_);
  return gc_watermark_;
}

TxnLogStats TxnLog::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace tfr
