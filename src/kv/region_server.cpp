#include "src/kv/region_server.h"

#include "src/kv/rpc_messages.h"

#include <algorithm>
#include <cstdio>

#include "src/common/fault.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tfr {

RegionServer::RegionServer(std::string id, Dfs& dfs, Coord& coord, RegionServerConfig config)
    : id_(std::move(id)),
      dfs_(&dfs),
      coord_(&coord),
      config_(config),
      cache_(config.block_cache_bytes),
      handlers_(config.handler_slots),
      rpc_model_(config.rpc_latency, config.rpc_jitter),
      read_service_(config.read_service, 0),
      write_service_(config.write_service, 0),
      wal_syncer_([this] { wal_sync_tick(); }, config.wal_sync_interval),
      heartbeats_([this] { heartbeat_tick(); }, config.heartbeat_interval) {}

RegionServer::~RegionServer() {
  heartbeats_.stop();
  wal_syncer_.stop();
  MutexLock lock(terminator_mutex_);
  if (self_terminator_.joinable()) self_terminator_.join();
}

Status RegionServer::start() {
  auto wal = Wal::create(*dfs_, wal_path());
  if (!wal.is_ok()) return wal.status();
  wal_ = std::move(wal).value();
  wal_->set_epoch_registry(epochs_);
  // If a persist tracker is already installed, register with its initial
  // TP(s) so the session never reports a meaningless payload.
  PreHeartbeatHook hook;
  {
    MutexLock lock(hooks_mutex_);
    hook = pre_heartbeat_hook_;
  }
  const Timestamp initial_payload = hook ? hook() : 0;
  lease_renewed_at_.store(now_micros(), std::memory_order_release);
  session_ttl_.store(config_.session_ttl, std::memory_order_release);
  TFR_RETURN_IF_ERROR(coord_->create_session("servers", id_, config_.session_ttl,
                                             initial_payload));
  alive_.store(true, std::memory_order_release);
  if (!config_.sync_wal_on_write) wal_syncer_.start();
  heartbeats_.start();
  TFR_LOG(INFO, "rs") << id_ << " started (wal=" << wal_path() << ")";
  return Status::ok();
}

Status RegionServer::shutdown() {
  if (!alive_.exchange(false, std::memory_order_acq_rel)) return Status::ok();
  heartbeats_.stop();
  wal_syncer_.stop();
  {
    ReaderLock lock(regions_mutex_);
    for (auto& [name, region] : regions_) {
      // tfr-lint: blocking-ok(shutdown holds the directory read-lock across final
      // flushes so a concurrent split cannot move regions mid-drain; kRegionServer
      // is may_block=true in the rank table)
      TFR_RETURN_IF_ERROR(region->flush_memstore());
      region->set_state(RegionState::kOffline);
    }
  }
  TFR_RETURN_IF_ERROR(wal_->sync());
  // Pre-shutdown heartbeat: report final progress, then unregister cleanly.
  PreHeartbeatHook hook;
  {
    MutexLock lock(hooks_mutex_);
    hook = pre_heartbeat_hook_;
  }
  const Timestamp payload = hook ? hook() : 0;
  TFR_IGNORE_STATUS(coord_->heartbeat("servers", id_, payload),
                    "best-effort final progress report; close_session below unregisters");
  TFR_RETURN_IF_ERROR(coord_->close_session("servers", id_));
  TFR_LOG(INFO, "rs") << id_ << " shut down cleanly";
  return Status::ok();
}

void RegionServer::crash() {
  if (!alive_.exchange(false, std::memory_order_acq_rel)) return;
  heartbeats_.stop();
  wal_syncer_.stop();
  {
    ReaderLock lock(regions_mutex_);
    for (auto& [name, region] : regions_) region->set_state(RegionState::kOffline);
  }
  wal_->crash();  // the un-synced tail is gone
  cache_.clear();
  crashed_.store(true, std::memory_order_release);
  TFR_LOG(INFO, "rs") << id_ << " CRASHED (synced wal seq " << wal_->synced_seq() << "/"
                      << wal_->appended_seq() << ")";
}

Status RegionServer::down_status() const {
  if (crashed()) return Status::server_down("server crashed: " + id_);
  return Status::unavailable("server stopping: " + id_);
}

Status RegionServer::probe(const std::string& caller) {
  TFR_BLOCKING_POINT("rpc.probe");
  rpc_model_.charge();
  if (fault_ != nullptr) {
    TFR_RETURN_IF_ERROR(fault_->check_partition(FaultOp::kRpcProbe, caller, id_));
  }
  return crashed() ? down_status() : Status::ok();
}

void RegionServer::heartbeat_tick() {
  if (!alive()) return;
  PreHeartbeatHook hook;
  {
    MutexLock lock(hooks_mutex_);
    hook = pre_heartbeat_hook_;
  }
  maybe_roll_wal();
  const Timestamp payload = hook ? hook() : 0;
  // Injectable stall/loss on the renewal path: a delay here models a paused
  // heartbeat thread (the classic GC pause — both the renewal and the
  // self-fence check run late, which is why the fencing token exists), a
  // fail models a renewal lost in the network without a full partition.
  bool renewal_lost = false;
  if (fault_ != nullptr) {
    renewal_lost = fault_->inject(FaultOp::kCoordHeartbeat, id_).fail;
  }
  // Measure the lease from BEFORE the renewal is sent: if it succeeds, the
  // coordination service's own expiry clock (which starts at receipt) can
  // only be ahead of ours, so our self-fence deadline is conservative.
  const Micros sent_at = now_micros();
  if (fault_ != nullptr && (renewal_lost || fault_->partitioned(id_, "coord"))) {
    // The renewal was lost in the network. We do NOT know whether we have
    // been declared dead — only that the lease has not been renewed. Once
    // our conservative estimate of the lease lapses, stop serving: by the
    // time the master can possibly have declared us dead and handed our
    // regions away, we are already quiet (self-fence precedes takeover).
    if (sent_at - lease_renewed_at_.load(std::memory_order_acquire) >
        session_ttl_.load(std::memory_order_acquire)) {
      self_fence();
    }
    return;
  }
  Status hb = coord_->heartbeat("servers", id_, payload);
  if (hb.is_ok()) {
    lease_renewed_at_.store(sent_at, std::memory_order_release);
    report_load();
    return;
  }
  if (hb.is_unavailable() && alive()) {
    // Declared dead (the master is already reassigning our regions): a real
    // HBase server aborts in this situation; do the same so no stale node
    // keeps serving. crash() joins this thread, so delegate.
    TFR_LOG(WARN, "rs") << id_ << " declared dead by the cluster; terminating";
    terminate_self();
  }
}

void RegionServer::terminate_self() {
  MutexLock lock(terminator_mutex_);
  if (!self_terminator_.joinable()) {
    self_terminator_ = std::thread([this] { crash(); });
  }
}

void RegionServer::report_load() {
  // The balancer's load signal, piggybacked on the heartbeat cadence (§9):
  // one cumulative served-ops figure per server in the coord KV. The figure
  // is cumulative — the balancer differences successive reports to get a
  // per-tick rate; per-region traffic is region_loads().
  std::int64_t total = 0;
  {
    ReaderLock lock(regions_mutex_);
    for (const auto& entry : regions_) {
      total += static_cast<std::int64_t>(entry.second->read_ops() + entry.second->write_ops());
    }
  }
  coord_->put(kServerLoadPrefix + id_, total);
}

std::vector<RegionServer::RegionLoad> RegionServer::region_loads() const {
  std::vector<RegionLoad> out;
  ReaderLock lock(regions_mutex_);
  out.reserve(regions_.size());
  for (const auto& [name, r] : regions_) {
    out.push_back({name, r->read_ops(), r->write_ops(), r->store_bytes(), r->has_references(),
                   r->state() == RegionState::kOnline});
  }
  return out;
}

void RegionServer::self_fence() {
  static Counter& fences = global_counter("kv.self_fences");
  fences.add();
  TFR_LOG(WARN, "rs") << id_ << " SELF-FENCING: lease not renewed within TTL ("
                      << session_ttl_.load(std::memory_order_acquire) << "us); ceasing service";
  // crash() joins the heartbeat thread — this IS the heartbeat thread — so
  // delegate to the terminator, exactly like the declared-dead path.
  terminate_self();
}

void RegionServer::wal_sync_tick() {
  if (!alive()) return;
  if (Status s = wal_->sync(); !s.is_ok()) {
    // A background sync failure is a durability regression, not a no-op:
    // acks already sent for this window rest on data that is not yet on
    // disk. Count and log every failure; the next tick (or the next
    // commit-path sync) retries the same frontier.
    static Counter& failures = global_counter("kv.wal_sync_failures");
    failures.add();
    TFR_LOG(WARN, "rs") << id_ << " background WAL sync failed: " << s;
    if (s.is_wrong_epoch()) {
      // The master fenced our WAL: recovery is replaying it and we are a
      // zombie. Converge like the TTL-expiry path — stop serving now rather
      // than keep acking writes that can never become durable. crash()
      // joins the syncer thread (this thread), so delegate to the
      // terminator.
      TFR_LOG(WARN, "rs") << id_ << " WAL fenced during background sync; ceasing service";
      terminate_self();
      return;
    }
  }
  maybe_roll_wal();
}

std::uint64_t RegionServer::wal_truncation_bound() const {
  // A segment is reclaimable once every region's un-flushed edits start
  // after it. Regions whose memstore is fully flushed do not constrain.
  // Read the appended frontier first: a record at or below it was appended
  // under its region's mutex (Region::apply), so the region reads below
  // see it in the memstore or in a store file.
  std::uint64_t bound = wal_->appended_seq() + 1;
  ReaderLock lock(regions_mutex_);
  for (const auto& [name, region] : regions_) {
    const std::uint64_t first = region->min_unflushed_wal_seq();
    if (first != 0) bound = std::min(bound, first);
  }
  return bound;
}

void RegionServer::maybe_roll_wal() {
  if (!alive()) return;
  // One bound for both decisions. Besides the size trigger, roll an open
  // segment whose records are all flushed, so truncate_obsolete reclaims
  // it and a fully flushed server leaves nothing for a split to read.
  const std::uint64_t bound = wal_truncation_bound();
  if (wal_->current_segment_bytes() > config_.wal_segment_bytes ||
      wal_->open_segment_obsolete(bound)) {
    if (Status s = wal_->roll(); !s.is_ok()) {
      TFR_LOG(WARN, "rs") << id_ << " WAL roll failed: " << s;
      return;
    }
  }
  wal_->truncate_obsolete(bound);
}

std::shared_ptr<Region> RegionServer::region_for(const std::string& table,
                                                 const std::string& row) const {
  ReaderLock lock(regions_mutex_);
  for (const auto& [name, region] : regions_) {
    const auto& d = region->descriptor();
    if (d.table == table && d.contains(row)) return region;
  }
  return nullptr;
}

Result<std::vector<Status>> RegionServer::apply_batch(const BatchApplyRequest& batch) {
  static Counter& batch_rpcs = global_counter("kv.batch_apply_rpcs");
  static Counter& batch_slices = global_counter("kv.batch_apply_slices");
  if (batch.slices.empty()) return std::vector<Status>{};
  // All slices come from the same client flusher, so the frame has one
  // sender for partition purposes.
  const std::string& client_id = batch.slices.front().client_id;

  TFR_BLOCKING_POINT("rpc.apply_batch");
  // Marshal the request exactly as a real RPC stack would: the server only
  // ever sees the decoded wire bytes, and their size is charged against the
  // network bandwidth on top of the per-RPC latency.
  std::string wire = encode_batch_apply_request(batch);
  rpc_model_.charge();
  sleep_micros(transfer_micros(wire.size(), config_.network_mbps));
  bool drop_response = false;
  if (fault_ != nullptr) {
    if (fault_->partitioned(client_id, id_)) {
      // The request direction is blocked: nothing reached the server.
      return Status::unavailable("partition: request from " + client_id + " to " + id_ + " lost");
    }
    // An asymmetric partition blocking only the response direction behaves
    // like a dropped ack: the work happens, the client retries.
    if (fault_->partitioned(id_, client_id)) drop_response = true;
    const FaultAction action = fault_->inject(FaultOp::kRpcApply, id_);
    if (action.fail) {
      // The request was lost on the wire; nothing reached the server.
      return Status::unavailable("injected fault: request to " + id_ + " lost");
    }
    if (action.corrupt_wire) wire[wire.size() / 2] ^= 0x20;
    drop_response = drop_response || action.drop_response;
  }
  auto decoded = decode_batch_apply_request(wire);
  if (!decoded.is_ok()) {
    // A damaged request frame is a transport failure, not a store error: the
    // server NAKs and the client re-sends the whole batch (reapplication is
    // idempotent), so surface it as retryable.
    return Status::unavailable("batch frame rejected by " + id_ + ": " +
                               decoded.status().message());
  }

  if (!alive()) return down_status();
  SemaphoreGuard slot(handlers_);
  if (!alive()) return down_status();

  batch_rpcs.add();
  batch_slices.add(static_cast<std::int64_t>(decoded.value().slices.size()));
  std::vector<Status> statuses = apply_frame(decoded.value().slices);
  if (drop_response) {
    // Every slice IS received (WAL-appended, applied, observed) but the acks
    // never reach the client, which re-sends — exercising idempotent
    // reapplication (§3.2).
    return Status::unavailable("injected fault: response from " + id_ + " dropped");
  }
  return statuses;
}

Status RegionServer::apply_slice(const ApplyRequest& req) {
  // Group the mutations by target region; fail fast (before any side effect)
  // if some row is not hosted here, so the client re-locates and retries with
  // the whole slice — reapplication is idempotent.
  std::map<std::shared_ptr<Region>, std::vector<Cell>> by_region;
  for (const auto& m : req.mutations) {
    auto region = region_for(req.table, m.row);
    if (!region) {
      return Status::unavailable("row not hosted on " + id_ + ": " + m.row);
    }
    const auto state = region->state();
    const bool admissible =
        state == RegionState::kOnline || (req.recovery_replay && state == RegionState::kGated);
    if (!admissible) {
      return Status::unavailable("region " + region->name() + " is " +
                                 std::string(region_state_name(state)));
    }
    by_region[region].push_back(m.to_cell(req.commit_ts));
  }

  write_service_.charge();

  for (auto& [region, cells] : by_region) {
    TFR_RETURN_IF_ERROR(write_region(*region, {WalRecord{.txn_id = req.txn_id,
                                                         .client_id = req.client_id,
                                                         .commit_ts = req.commit_ts,
                                                         .cells = std::move(cells)}}));
  }

  if (config_.sync_wal_on_write) {
    // Synchronous persistence: the update is durable before we return.
    TFR_RETURN_IF_ERROR(wal_->sync());
  }
  return Status::ok();
}

Status RegionServer::write_region(Region& region, std::vector<WalRecord> records) {
  std::vector<Cell> cells;
  for (WalRecord& record : records) {
    record.region = region.name();
    record.epoch = region.epoch();
    cells.insert(cells.end(), record.cells.begin(), record.cells.end());
  }
  // If the region went offline since the caller's admission check (a
  // split/merge/move fenced it, or this server crashed), nothing is logged
  // or applied and the caller surfaces Unavailable.
  Status applied = region.apply(cells, [&] { return wal_->append(std::move(records)); });
  if (applied.is_wrong_epoch()) {
    // Our ownership epoch is stale: the master has fenced this region
    // (we are a zombie). Stop serving it; the client relocates.
    TFR_LOG(WARN, "rs") << id_ << " fenced out of " << region.name()
                        << "; taking the region offline";
    region.set_state(RegionState::kOffline);
  }
  TFR_RETURN_IF_ERROR(applied);
  if (region.memstore_bytes() <= config_.memstore_flush_bytes) return Status::ok();
  Status flushed = region.flush_memstore();
  if (!flushed.is_ok()) {
    if (flushed.is_wrong_epoch()) region.set_state(RegionState::kOffline);
    return flushed;
  }
  if (config_.compaction_file_threshold != 0 &&
      region.store_file_count() > config_.compaction_file_threshold) {
    // Merge without pruning: snapshots of any age stay readable. A
    // compaction that races another flush simply defers to the next one.
    Status compacted = region.compact(kNoTimestamp);
    if (!compacted.is_ok() && !compacted.is_unavailable()) return compacted;
  }
  // The finalized store file supersedes every WAL entry at or below the
  // flushed seqno for this region: reclaim closed segments now instead of
  // waiting for the next heartbeat tick, so a long-lived server's split
  // cost tracks its un-flushed window, not its lifetime.
  maybe_roll_wal();
  return Status::ok();
}

std::vector<Status> RegionServer::apply_frame(const std::vector<ApplyRequest>& slices) {
  std::vector<Status> statuses;
  statuses.reserve(slices.size());
  for (const ApplyRequest& req : slices) statuses.push_back(apply_slice(req));

  if (!alive()) {
    // Crashed under the frame: an append may have hit the WAL segment the
    // crash closed (Closed), and whatever did land went with the un-synced
    // tail. No slice counts as received; every one answers the retryable
    // down status and the client re-sends it (reapplication is idempotent).
    for (Status& s : statuses) s = down_status();
    return statuses;
  }

  // Algorithm 3 "On receive", once per frame: every accepted slice is
  // WAL-appended by now, so one inheritance of the lowest piggybacked TP(s)
  // — and the one WAL sync its heartbeat runs — covers them all before any
  // of them is acked.
  std::vector<Timestamp> received;
  std::optional<Timestamp> piggyback_tp;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (!statuses[i].is_ok()) continue;
    received.push_back(slices[i].commit_ts);
    if (slices[i].piggyback_tp && (!piggyback_tp || *slices[i].piggyback_tp < *piggyback_tp)) {
      piggyback_tp = slices[i].piggyback_tp;
    }
  }
  if (received.empty()) return statuses;
  WritesetObserver observer;
  {
    MutexLock lock(hooks_mutex_);
    observer = writeset_observer_;
  }
  if (observer) observer(received, piggyback_tp);
  return statuses;
}

Result<std::optional<Cell>> RegionServer::get(const std::string& table, const std::string& row,
                                              const std::string& column, Timestamp read_ts,
                                              const std::string& caller) {
  TFR_BLOCKING_POINT("rpc.get");
  rpc_model_.charge();
  sleep_micros(transfer_micros(get_request_wire_size(table, row, column), config_.network_mbps));
  if (fault_ != nullptr) {
    TFR_RETURN_IF_ERROR(fault_->check_partition(FaultOp::kRpcGet, caller, id_));
    TFR_RETURN_IF_ERROR(fault_->check(FaultOp::kRpcGet, id_));
  }
  if (!alive()) return down_status();
  auto result = [&]() -> Result<std::optional<Cell>> {
    SemaphoreGuard slot(handlers_);
    if (!alive()) return down_status();
    auto region = region_for(table, row);
    if (!region) return Status::unavailable("row not hosted on " + id_ + ": " + row);
    if (region->state() != RegionState::kOnline) {
      return Status::unavailable("region " + region->name() + " is " +
                                 std::string(region_state_name(region->state())));
    }
    read_service_.charge();
    return region->get(row, column, read_ts);
  }();
  // Response transfer (outside the handler slot: the NIC, not the handler,
  // streams it back).
  if (result.is_ok() && result.value().has_value()) {
    sleep_micros(transfer_micros(cell_wire_size(*result.value()), config_.network_mbps));
  }
  return result;
}

Result<std::vector<Cell>> RegionServer::scan(const std::string& table, const std::string& start,
                                             const std::string& end, Timestamp read_ts,
                                             std::size_t limit, const std::string& caller) {
  TFR_BLOCKING_POINT("rpc.scan");
  rpc_model_.charge();
  if (fault_ != nullptr) {
    TFR_RETURN_IF_ERROR(fault_->check_partition(FaultOp::kRpcScan, caller, id_));
    TFR_RETURN_IF_ERROR(fault_->check(FaultOp::kRpcScan, id_));
  }
  if (!alive()) return down_status();
  SemaphoreGuard slot(handlers_);
  if (!alive()) return down_status();
  auto region = region_for(table, start);
  if (!region) return Status::unavailable("start row not hosted on " + id_ + ": " + start);
  if (region->state() != RegionState::kOnline) {
    return Status::unavailable("region " + region->name() + " is " +
                               std::string(region_state_name(region->state())));
  }
  {
    // A client whose routing table predates a split can send a scan whose
    // range runs past this region's end key; serving it would silently drop
    // the tail now owned by the right daughter. Reject so the client
    // invalidates its cached route and re-locates.
    const RegionDescriptor& d = region->descriptor();
    if (!d.end_key.empty() && (end.empty() || end > d.end_key)) {
      return Status::unavailable("scan range beyond region " + region->name() + " on " + id_);
    }
  }
  read_service_.charge();
  auto cells = region->scan(start, end, read_ts, limit);
  if (cells.is_ok()) {
    std::size_t bytes = 0;
    for (const auto& cell : cells.value()) bytes += cell_wire_size(cell);
    sleep_micros(transfer_micros(bytes, config_.network_mbps));
  }
  return cells;
}

Status RegionServer::open_region(const RegionDescriptor& desc,
                                 const RecoveredEdits& recovered_edits,
                                 std::uint64_t epoch) {
  if (!alive()) return down_status();
  auto region = std::make_shared<Region>(desc, *dfs_, cache_, config_.store_block_bytes);
  region->set_epoch(epoch);
  region->set_epoch_registry(epochs_);
  {
    WriterLock lock(regions_mutex_);
    if (regions_.count(desc.name())) {
      return Status::already_exists("region already open on " + id_ + ": " + desc.name());
    }
    regions_[desc.name()] = region;
  }
  Status opened = open_registered(*region, recovered_edits);
  if (!opened.is_ok()) {
    // Leave nothing behind: the master re-homes the region or, when its WAL
    // split failed, leaves it unserved; an entry here would serve nothing
    // and refuse this server's next open of the region.
    WriterLock lock(regions_mutex_);
    auto it = regions_.find(desc.name());
    if (it != regions_.end() && it->second == region) regions_.erase(it);
  }
  return opened;
}

Status RegionServer::open_registered(Region& region, const RecoveredEdits& recovered_edits) {
  const std::string name = region.name();
  TFR_RETURN_IF_ERROR(region.load_store_files());

  // HBase internal recovery: replay the split-WAL edits into a fresh
  // memstore (§2.1) through the write step, as one batch: WAL them locally
  // too, so a crash of *this* server before its next memstore flush does
  // not re-lose them. The write step re-stamps them with OUR epoch: the old
  // owner's stamp is fenced by now, and these appends are the new epoch's
  // writes. They are not charged write_service_: no client sent them.
  std::vector<WalRecord> edits;
  if (recovered_edits) {
    auto fetched = recovered_edits();
    if (!fetched.is_ok()) return fetched.status();
    edits = std::move(fetched).value();
  }
  if (!edits.empty()) {
    // Offline only if this server crashed mid-open (crash() forces every
    // region offline); the open fails and recovery re-homes the region.
    TFR_RETURN_IF_ERROR(write_region(region, edits));
    TFR_RETURN_IF_ERROR(wal_->sync());
    TFR_LOG(INFO, "rs") << id_ << " replayed " << edits.size() << " split-WAL edits into "
                        << name;
  }

  // The paper's hook: after internal recovery, before the region goes
  // online, hand control to the recovery manager (§3.2). The edits above
  // are synced, so the gate need not replay what they hold again.
  RegionGate gate;
  {
    MutexLock lock(hooks_mutex_);
    gate = region_gate_;
  }
  if (gate) {
    region.set_state(RegionState::kGated);
    gate(name, id_, edits);
  }
  if (!alive()) return down_status();
  region.set_state(RegionState::kOnline);
  TFR_LOG(INFO, "rs") << id_ << " region online: " << name;
  return Status::ok();
}

namespace {

/// `ref-%06zu` marker name: zero-padded so a lexicographic directory sort
/// preserves marker order, and "ref-" < "sf-" so inherited (older) files
/// sort before files the region writes itself.
std::string ref_marker_name(std::size_t index) {
  char name[16];
  std::snprintf(name, sizeof(name), "ref-%06zu", index);
  return name;
}

}  // namespace

Result<std::vector<RegionDescriptor>> RegionServer::replace_regions(
    const std::vector<std::string>& parent_names) {
  if (!alive()) return down_status();
  if (parent_names.empty() || parent_names.size() > 2) {
    return Status::invalid_argument("a transition replaces one or two regions");
  }
  std::vector<std::shared_ptr<Region>> parents;
  for (const auto& name : parent_names) {
    auto parent = region(name);
    if (!parent) return Status::not_found("region not open: " + name);
    if (parent->state() != RegionState::kOnline) {
      return Status::unavailable("region not online: " + name);
    }
    parents.push_back(std::move(parent));
  }
  const RegionDescriptor& first = parents.front()->descriptor();
  const RegionDescriptor& last = parents.back()->descriptor();
  if (parents.size() == 2 &&
      (first.table != last.table || first.end_key.empty() || first.end_key != last.start_key)) {
    return Status::invalid_argument("regions not adjacent: " + first.name() + " + " +
                                    last.name());
  }
  // A region still reading through reference markers localizes its data
  // before it splits (HBase refuses to split a region with references). The
  // markers make its apparent store size the WHOLE referenced parent file,
  // so splitting again before localizing would cascade the size trigger
  // down to single-row daughters.
  if (parents.size() == 1 && parents.front()->has_references()) {
    TFR_RETURN_IF_ERROR(parents.front()->compact(kNoTimestamp));
  }

  // Fence the parents locally: from here Region::apply rejects (under the
  // region mutex), so the flushes below capture every acked write, and a
  // straggling compaction abandons its swap when it sees kOffline. Clients
  // retry until the children come up. On any error the parents resume
  // serving untouched — a transition never modifies a parent's directory.
  for (const auto& parent : parents) parent->set_state(RegionState::kOffline);
  auto abort = [&](Status why) {
    for (const auto& parent : parents) parent->set_state(RegionState::kOnline);
    return why;
  };
  for (const auto& parent : parents) {
    if (Status s = parent->flush_memstore(); !s.is_ok()) return abort(s);
  }

  // Fresh region ids: a child that shares a parent's start key must still
  // be distinguishable from it (name, data dir, WAL grouping). A split cuts
  // at a key chosen from store-file metadata; a merge spans both parents.
  std::vector<RegionDescriptor> children;
  if (parents.size() == 1) {
    auto split_key = parents.front()->choose_split_key();
    if (!split_key.is_ok()) return abort(split_key.status());
    children.push_back({first.table, first.start_key, split_key.value(), next_region_id()});
    children.push_back({first.table, split_key.value(), first.end_key, next_region_id()});
  } else {
    children.push_back({first.table, first.start_key, last.end_key, next_region_id()});
  }

  // The children inherit the parents' store files BY REFERENCE: one ref-N
  // marker per file in each child's dir, holding the real path. No data is
  // rewritten — reads clip to the child's key range, child compactions
  // localize the data later, and the master's janitor reclaims a parent
  // dir once no live marker points into it. Markers are numbered
  // oldest-first per parent so load_store_files reconstructs the age
  // order, and de-duplicated: sibling daughters merging back together both
  // reference the same grandparent files. Cross-parent age order is
  // irrelevant — the parents cover disjoint ranges and reads resolve
  // versions by timestamp.
  std::vector<std::string> inherited;
  for (const auto& parent : parents) {
    auto paths = parent->store_file_paths();   // newest first
    std::reverse(paths.begin(), paths.end());  // oldest first
    for (auto& p : paths) {
      if (std::find(inherited.begin(), inherited.end(), p) == inherited.end()) {
        inherited.push_back(std::move(p));
      }
    }
  }
  for (const RegionDescriptor& child : children) {
    const std::string dir = region_data_dir(child.name());
    for (std::size_t i = 0; i < inherited.size(); ++i) {
      if (Status s = dfs_->write_file(dir + ref_marker_name(i), inherited[i]); !s.is_ok()) {
        remove_stray_markers(*dfs_, children);
        return abort(s);
      }
    }
  }
  {
    WriterLock lock(regions_mutex_);
    for (const auto& name : parent_names) regions_.erase(name);
  }
  TFR_LOG(INFO, "rs") << id_ << " replaced " << parents.size() << " region(s) starting at "
                      << first.name() << " by " << children.size() << " ("
                      << inherited.size() << " store files inherited by reference)";
  return children;
}

Status RegionServer::offload_region(const std::string& region_name) {
  if (!alive()) return down_status();
  auto target = region(region_name);
  if (!target) return Status::not_found("region not open: " + region_name);
  target->set_state(RegionState::kOffline);
  TFR_RETURN_IF_ERROR(target->flush_memstore());
  WriterLock lock(regions_mutex_);
  regions_.erase(region_name);
  return Status::ok();
}

Status RegionServer::compact_region(const std::string& region_name,
                                    Timestamp prune_before_ts) {
  auto target = region(region_name);
  if (!target) return Status::not_found("region not open: " + region_name);
  return target->compact(prune_before_ts);
}

Status RegionServer::persist_wal() {
  TFR_BLOCKING_POINT("rpc.persist_wal");
  if (!alive()) return down_status();
  return wal_->sync();
}

void RegionServer::set_writeset_observer(WritesetObserver observer) {
  MutexLock lock(hooks_mutex_);
  writeset_observer_ = std::move(observer);
}

void RegionServer::set_pre_heartbeat_hook(PreHeartbeatHook hook) {
  MutexLock lock(hooks_mutex_);
  pre_heartbeat_hook_ = std::move(hook);
}

void RegionServer::set_region_gate(RegionGate gate) {
  MutexLock lock(hooks_mutex_);
  region_gate_ = std::move(gate);
}

std::shared_ptr<Region> RegionServer::region(const std::string& name) const {
  ReaderLock lock(regions_mutex_);
  auto it = regions_.find(name);
  return it == regions_.end() ? nullptr : it->second;
}

std::vector<std::string> RegionServer::region_names() const {
  ReaderLock lock(regions_mutex_);
  std::vector<std::string> out;
  for (const auto& [name, r] : regions_) out.push_back(name);
  return out;
}

}  // namespace tfr
