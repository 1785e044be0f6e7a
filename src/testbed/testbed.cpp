#include "src/testbed/testbed.h"

#include <cstdio>

#include "src/common/logging.h"
#include "src/common/random.h"

namespace tfr {

TestbedConfig fast_test_config(int num_servers, int num_clients) {
  TestbedConfig cfg;
  cfg.cluster.num_servers = num_servers;
  cfg.cluster.coord_check_interval = millis(5);
  cfg.cluster.server.heartbeat_interval = millis(20);
  cfg.cluster.server.session_ttl = millis(100);
  cfg.cluster.server.wal_sync_interval = millis(10);
  cfg.num_clients = num_clients;
  cfg.client.heartbeat_interval = millis(20);
  cfg.client.session_ttl = millis(100);
  cfg.client.flush_backoff = millis(1);
  cfg.recovery.poll_interval = millis(10);
  return cfg;
}

Testbed::Testbed(TestbedConfig config)
    : config_(config), cluster_(config.cluster), tm_(config.txn_log) {
  if (config_.enable_recovery) {
    rm_ = std::make_unique<RecoveryManager>(cluster_.coord(), tm_, cluster_.master(),
                                            config_.recovery);
    // Install the recovery middleware on every region server before it
    // starts: the persist tracker (Algorithm 3) and the region gate (§3.2).
    cluster_.set_server_setup([this](RegionServer& server) {
      auto tracker = std::make_unique<PersistTracker>(
          server,
          [this]() -> Timestamp {
            auto tf = cluster_.coord().get(kTfPath);
            return tf ? *tf : kNoTimestamp;
          },
          rm_->global_tp());
      tracker->install();
      server.set_region_gate([this](const std::string& region, const std::string& server_id,
                                    const std::vector<WalRecord>& recovered) {
        // Shared-lock the RM pointer for the whole (possibly long) replay:
        // a concurrent RM restart waits for in-flight gates, and a gate that
        // fires during the swap window lands on the fresh instance — which
        // has reloaded the pending-region markers, so the replay still runs.
        ReaderLock lock(rm_mutex_);
        if (rm_) rm_->on_region_recovered(region, server_id, recovered);
      });
      trackers_.push_back(std::move(tracker));
    });
  }
}

Testbed::~Testbed() { stop(); }

Status Testbed::start() {
  if (rm_) rm_->start();  // publish TF/TP before anyone reads them
  TFR_RETURN_IF_ERROR(cluster_.start());
  for (int i = 0; i < config_.num_clients; ++i) {
    auto r = add_client();
    if (!r.is_ok()) return r.status();
  }
  started_ = true;
  return Status::ok();
}

void Testbed::stop() {
  if (!started_) return;
  started_ = false;
  for (auto& c : clients_) {
    if (!c->crashed()) {
      TFR_IGNORE_STATUS(c->close(),
                        "harness teardown; an unflushed client reads as a crash, which the RM recovers");
    }
  }
  if (rm_) rm_->stop();
  cluster_.stop();
}

Result<TxnClient*> Testbed::add_client() {
  auto client = std::make_unique<TxnClient>(
      "client-" + std::to_string(clients_.size() + 1), tm_, cluster_.master(), cluster_.coord(),
      config_.client);
  TFR_RETURN_IF_ERROR(client->start());
  clients_.push_back(std::move(client));
  return clients_.back().get();
}

std::string Testbed::row_key(std::uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "user%010llu", static_cast<unsigned long long>(i));
  return buf;
}

std::vector<std::string> Testbed::split_keys(std::uint64_t num_rows, int num_regions) {
  std::vector<std::string> keys;
  for (int r = 1; r < num_regions; ++r) {
    keys.push_back(row_key(num_rows * static_cast<std::uint64_t>(r) /
                           static_cast<std::uint64_t>(num_regions)));
  }
  return keys;
}

Status Testbed::create_table(const std::string& table, std::uint64_t num_rows, int num_regions) {
  return cluster_.master().create_table(table, split_keys(num_rows, num_regions));
}

Status Testbed::load_rows(const std::string& table, std::uint64_t num_rows,
                          std::size_t value_size, std::uint64_t seed) {
  if (clients_.empty()) return Status::invalid_argument("no clients");
  Rng rng(seed);
  TxnClient& loader = *clients_.front();
  constexpr std::uint64_t kBatch = 500;
  for (std::uint64_t base = 0; base < num_rows; base += kBatch) {
    Transaction txn = loader.begin(table);
    const std::uint64_t end = std::min(num_rows, base + kBatch);
    for (std::uint64_t i = base; i < end; ++i) {
      txn.put(row_key(i), "field0", random_ascii(rng, value_size));
    }
    auto committed = txn.commit();
    if (!committed.is_ok()) return committed.status();
  }
  if (!loader.wait_flushed(seconds(120))) {
    return Status::timeout("load flush did not drain");
  }
  return Status::ok();
}

Status Testbed::flush_all_memstores() {
  for (int i = 0; i < cluster_.num_servers(); ++i) {
    RegionServer& s = cluster_.server(i);
    if (!s.alive()) continue;
    for (const auto& name : s.region_names()) {
      if (auto region = s.region(name)) {
        TFR_RETURN_IF_ERROR(region->flush_memstore());
      }
    }
  }
  return Status::ok();
}

Status Testbed::warm_cache(const std::string& table, std::uint64_t num_rows) {
  if (clients_.empty()) return Status::invalid_argument("no clients");
  TxnClient& c = *clients_.front();
  // Scan the whole table in chunks at the freshest snapshot.
  Transaction txn = c.begin(table);
  constexpr std::uint64_t kChunk = 5000;
  for (std::uint64_t base = 0; base < num_rows; base += kChunk) {
    const std::string start = row_key(base);
    const std::string end = row_key(std::min(num_rows, base + kChunk));
    auto cells = txn.scan(start, base + kChunk >= num_rows ? "" : end, 0);
    if (!cells.is_ok()) return cells.status();
  }
  txn.abort();
  return Status::ok();
}

void Testbed::restart_recovery_manager() {
  if (!rm_) return;
  TFR_LOG(INFO, "testbed") << "recovery manager restarting";
  // Stop the old instance BEFORE taking rm_mutex_ exclusively: its worker
  // may be re-flushing into a gated region, and that gate holds the shared
  // lock — taking the exclusive lock first would deadlock.
  rm_->stop();
  // Detach the master from the dying instance before it is destroyed
  // (set_hooks quiesces in-flight hook calls); the fresh instance
  // re-installs itself in start().
  cluster_.master().set_hooks(nullptr);
  // Transaction processing continues while the RM is down (§3.3); a new RM
  // instance rebuilds its registries — including in-flight recoveries —
  // from the coordination service.
  auto fresh = std::make_unique<RecoveryManager>(cluster_.coord(), tm_, cluster_.master(),
                                                 config_.recovery);
  {
    // Waits for in-flight gates (they hold the shared lock for the whole
    // replay). recover_state() must run inside this critical section: a gate
    // finishing on the old instance erases its durable marker, so reading
    // the markers before quiescing could adopt a pending region that is
    // about to complete — and then wait for it forever.
    WriterLock lock(rm_mutex_);
    fresh->recover_state();
    rm_ = std::move(fresh);  // destroys the old, stopped instance
  }
  rm_->start();
}

bool Testbed::wait_stable(Timestamp ts, Micros timeout) {
  const Micros deadline = now_micros() + timeout;
  for (;;) {
    auto tf = cluster_.coord().get(kTfPath);
    if (tf && *tf >= ts) return true;
    if (now_micros() > deadline) return false;
    // Nudge the pipeline along: client heartbeats piggyback TF(c), the RM
    // poll folds them into the published TF.
    for (auto& c : clients_) {
      if (!c->crashed()) c->heartbeat_now();
    }
    if (rm_) rm_->refresh_now();
    sleep_micros(millis(1));
  }
}

void Testbed::wait_for_recovery() {
  cluster_.master().wait_for_idle();
  if (rm_) rm_->wait_for_idle();
}

bool Testbed::wait_server_recoveries(std::int64_t count, Micros timeout) {
  if (!rm_) return false;
  const Micros deadline = now_micros() + timeout;
  while (rm_->stats().server_recoveries < count) {
    if (now_micros() > deadline) return false;
    sleep_micros(millis(1));
  }
  return true;
}

bool Testbed::wait_client_recoveries(std::int64_t count, Micros timeout) {
  if (!rm_) return false;
  const Micros deadline = now_micros() + timeout;
  while (rm_->stats().client_recoveries < count) {
    if (now_micros() > deadline) return false;
    sleep_micros(millis(1));
  }
  return true;
}

}  // namespace tfr
