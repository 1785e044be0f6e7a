#include "src/common/fault.h"

#include "src/common/logging.h"

namespace tfr {

std::string_view fault_op_name(FaultOp op) {
  switch (op) {
    case FaultOp::kRpcApply: return "rpc_apply";
    case FaultOp::kRpcGet: return "rpc_get";
    case FaultOp::kRpcScan: return "rpc_scan";
    case FaultOp::kDfsSync: return "dfs_sync";
    case FaultOp::kDfsRead: return "dfs_read";
    case FaultOp::kCoordHeartbeat: return "coord_heartbeat";
    case FaultOp::kRpcProbe: return "rpc_probe";
  }
  return "unknown";
}

namespace {
bool target_matches(const std::string& rule_target, std::string_view target) {
  return rule_target.empty() ||
         target.compare(0, rule_target.size(), rule_target) == 0;
}
}  // namespace

void FaultInjector::reseed(std::uint64_t seed) {
  MutexLock lock(mutex_);
  seed_ = seed;
  rng_ = Rng(seed);
}

std::uint64_t FaultInjector::seed() const {
  MutexLock lock(mutex_);
  return seed_;
}

int FaultInjector::add_rule(FaultRule rule) {
  int id;
  {
    MutexLock lock(mutex_);
    rules_.push_back(std::move(rule));
    id = static_cast<int>(rules_.size());
  }
  set_enabled(true);
  return id;
}

void FaultInjector::clear_rules() {
  MutexLock lock(mutex_);
  rules_.clear();
  // Partitions survive clear_rules(); only disable the fast path when
  // nothing at all is installed.
  if (partitions_.empty()) enabled_.store(false, std::memory_order_release);
}

int FaultInjector::add_partition(PartitionRule rule) {
  int id;
  {
    MutexLock lock(mutex_);
    id = next_partition_id_++;
    partitions_.emplace_back(id, std::move(rule));
  }
  set_enabled(true);
  return id;
}

void FaultInjector::heal_partition(int id) {
  MutexLock lock(mutex_);
  for (auto it = partitions_.begin(); it != partitions_.end(); ++it) {
    if (it->first == id) {
      partitions_.erase(it);
      break;
    }
  }
  if (partitions_.empty() && rules_.empty()) enabled_.store(false, std::memory_order_release);
}

void FaultInjector::clear_partitions() {
  MutexLock lock(mutex_);
  partitions_.clear();
  if (rules_.empty()) enabled_.store(false, std::memory_order_release);
}

std::size_t FaultInjector::partitions_active() const {
  MutexLock lock(mutex_);
  return partitions_.size();
}

bool FaultInjector::partitioned(std::string_view from, std::string_view to) {
  if (!enabled()) return false;
  MutexLock lock(mutex_);
  for (const auto& [id, rule] : partitions_) {
    (void)id;
    const bool forward = target_matches(rule.src, from) && target_matches(rule.dst, to);
    const bool reverse =
        rule.symmetric && target_matches(rule.src, to) && target_matches(rule.dst, from);
    if (forward || reverse) {
      ++stats_.partition_drops;
      return true;
    }
  }
  return false;
}

Status FaultInjector::check_partition(FaultOp op, std::string_view from, std::string_view to) {
  if (!partitioned(from, to)) return Status::ok();
  return Status::unavailable("partition dropped " + std::string(fault_op_name(op)) + " from " +
                             std::string(from) + " to " + std::string(to));
}

FaultAction FaultInjector::inject(FaultOp op, std::string_view target) {
  FaultAction action;
  if (!enabled()) return action;
  {
    MutexLock lock(mutex_);
    for (auto& rule : rules_) {
      if (rule.op != op || !target_matches(rule.target, target)) continue;
      ++stats_.evaluations;
      if (rule.fail_next > 0) {
        --rule.fail_next;
        action.fail = true;
      }
      if (!action.fail && rule.error_probability > 0 &&
          rng_.next_bool(rule.error_probability)) {
        action.fail = true;
      }
      if (op == FaultOp::kRpcApply) {
        if (rule.drop_response_probability > 0 &&
            rng_.next_bool(rule.drop_response_probability)) {
          action.drop_response = true;
        }
        if (rule.corrupt_probability > 0 && rng_.next_bool(rule.corrupt_probability)) {
          action.corrupt_wire = true;
        }
      }
      if (rule.delay > 0 && rule.delay_probability > 0 &&
          rng_.next_bool(rule.delay_probability)) {
        action.delayed += rule.delay;
      }
    }
    if (action.fail) ++stats_.injected_errors;
    if (action.drop_response) ++stats_.dropped_responses;
    if (action.corrupt_wire) ++stats_.corrupted_wires;
    if (action.delayed > 0) {
      ++stats_.injected_delays;
      stats_.delay_micros += action.delayed;
    }
  }
  if (action.delayed > 0) sleep_micros(action.delayed);  // outside the lock
  return action;
}

Status FaultInjector::check(FaultOp op, std::string_view target) {
  const FaultAction action = inject(op, target);
  if (action.fail || action.drop_response) {
    return Status::unavailable("injected " + std::string(fault_op_name(op)) + " fault on " +
                               std::string(target));
  }
  return Status::ok();
}

FaultStats FaultInjector::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void FaultInjector::reset_stats() {
  MutexLock lock(mutex_);
  stats_ = FaultStats{};
}

}  // namespace tfr
