#include "src/recovery/persist_tracker.h"

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tfr {

PersistTracker::PersistTracker(RegionServer& server, std::function<Timestamp()> fetch_global_tf,
                               Timestamp initial_tp)
    : server_(&server), fetch_global_tf_(std::move(fetch_global_tf)), tp_(initial_tp) {}

void PersistTracker::install() {
  server_->set_writeset_observer([this](const std::vector<Timestamp>& commit_ts,
                                        std::optional<Timestamp> piggyback) {
    if (on_received(commit_ts, piggyback)) {
      // Algorithm 3: an inherited (lowered) threshold is reported to the
      // recovery manager immediately, not at the next periodic heartbeat.
      server_->heartbeat_now();
    }
  });
  server_->set_pre_heartbeat_hook([this] { return heartbeat_payload(); });
}

bool PersistTracker::on_received(const std::vector<Timestamp>& commit_ts,
                                 std::optional<Timestamp> piggyback_tp) {
  static Counter& inheritances = global_counter("tracker.inheritances");
  MutexLock lock(mutex_);
  for (Timestamp ts : commit_ts) pq_.push(ts);
  if (piggyback_tp && *piggyback_tp < tp_) {
    // Inherit responsibility for the failed server's un-persisted window.
    TFR_LOG(INFO, "tracker") << server_->id() << " inherits TP " << *piggyback_tp
                             << " (was " << tp_ << ") for " << commit_ts.size()
                             << " write-set(s)";
    tp_ = *piggyback_tp;
    inheritances.add();
    return true;  // Algorithm 3: heartbeat() right away
  }
  return false;
}

Timestamp PersistTracker::heartbeat_payload() {
  // Fetch TF first: every transaction with T <= TF has been fully flushed,
  // so after the WAL sync below everything this server received up to TF is
  // durable.
  const Timestamp tf = fetch_global_tf_ ? fetch_global_tf_() : kNoTimestamp;

  // Holding the mutex across the WAL sync serializes this step against
  // threshold inheritance. Why that matters: a replayed update u with
  // commit timestamp T > TP(s_failed) that arrives *after* our sync is not
  // yet durable here; if we then advanced TP(s) to a TF >= T, a crash of
  // this server would lose u — recovery would only replay after TP(s) >= T.
  // With the mutex held, u's WAL append (which precedes its observer call)
  // either lands before our sync (durable, fine) or its inheritance runs
  // after our advance and lowers TP(s) again (conservative, fine).
  MutexLock lock(mutex_);
  if (tf == kNoTimestamp || tf <= tp_) {
    // Nothing new to learn; still report the (possibly inherited) TP.
    return tp_;
  }
  // tfr-lint: blocking-ok(Algorithm 3 probe-and-publish: the tracker mutex must
  // be held across the sync so a concurrent inheritance serializes with the
  // TP advance; kRecoveryTracker is may_block=true in the rank table)
  Status synced = server_->persist_wal();
  if (!synced.is_ok()) {
    TFR_LOG(WARN, "tracker") << server_->id() << " persist failed: " << synced;
    return tp_;
  }
  pq_.pop_through(tf);  // received and now persisted, covered by TP(s)
  tp_ = tf;
  return tp_;
}

Timestamp PersistTracker::tp() const {
  MutexLock lock(mutex_);
  return tp_;
}

}  // namespace tfr
