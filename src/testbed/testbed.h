// Testbed — composes the whole integrated system of Figure 1: the DFS, the
// coordination service, the minibase cluster, the transaction manager, the
// recovery manager, the per-server persist trackers, and a set of
// transactional clients. This is the deployment that the examples, the
// integration tests, and every benchmark drive; it also exposes the fault
// injectors (crash a server, crash a client, restart the recovery manager).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/client/txn_client.h"
#include "src/kv/cluster.h"
#include "src/recovery/persist_tracker.h"
#include "src/common/annotations.h"
#include "src/recovery/recovery_manager.h"
#include "src/txn/txn_manager.h"

namespace tfr {

struct TestbedConfig {
  ClusterConfig cluster;
  TxnLogConfig txn_log;
  RecoveryManagerConfig recovery;
  TxnClientConfig client;
  int num_clients = 1;

  /// When false, the system runs without the recovery middleware: no
  /// trackers, no heartbeats processed, no replay — the "unprotected"
  /// baseline used by the overhead benchmarks.
  bool enable_recovery = true;
};

/// A convenient all-zero-latency configuration for unit/integration tests
/// (fast heartbeats, fast detection).
TestbedConfig fast_test_config(int num_servers = 2, int num_clients = 1);

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  Status start();
  void stop();

  // --- components -----------------------------------------------------------

  Cluster& cluster() { return cluster_; }
  Dfs& dfs() { return cluster_.dfs(); }
  Coord& coord() { return cluster_.coord(); }
  Master& master() { return cluster_.master(); }
  TxnManager& tm() { return tm_; }
  RecoveryManager& rm() { return *rm_; }
  bool has_rm() const { return rm_ != nullptr; }

  int num_clients() const { return static_cast<int>(clients_.size()); }
  TxnClient& client(int i = 0) { return *clients_.at(static_cast<std::size_t>(i)); }

  /// Add (and start) one more client at runtime.
  Result<TxnClient*> add_client();

  // --- table / data helpers ---------------------------------------------------

  /// YCSB-style row key: "user" + zero-padded index.
  static std::string row_key(std::uint64_t i);

  /// Evenly spaced split keys for `num_rows` row_key()-keyed rows.
  static std::vector<std::string> split_keys(std::uint64_t num_rows, int num_regions);

  /// Create a table pre-split for `num_rows` rows across `num_regions`.
  Status create_table(const std::string& table, std::uint64_t num_rows, int num_regions);

  /// Load `num_rows` rows (column "field0", `value_size`-byte values)
  /// through the transactional path, in batches; waits until fully flushed.
  Status load_rows(const std::string& table, std::uint64_t num_rows, std::size_t value_size,
                   std::uint64_t seed = 1);

  /// Flush every region's memstore to store files (so subsequent reads
  /// exercise the block cache / DFS path).
  Status flush_all_memstores();

  /// Read every row once to populate the block caches (the paper warms the
  /// cache before each experiment, §4.1).
  Status warm_cache(const std::string& table, std::uint64_t num_rows);

  // --- fault injection ---------------------------------------------------------

  /// Crash-fail region server i; detection and recovery proceed via the
  /// coordination service, the master, and the recovery manager.
  void crash_server(int i) { cluster_.crash_server(i); }

  /// Crash-fail client i (heartbeats stop; flushes die mid-flight).
  void crash_client(int i) { clients_.at(static_cast<std::size_t>(i))->crash(); }

  /// The cluster-wide deterministic fault injector (transient RPC errors,
  /// dropped acks, wire corruption, slow/failing DFS syncs). See
  /// common/fault.h; disabled until rules are added.
  FaultInjector& fault() { return cluster_.fault(); }

  /// Simulate a recovery-manager failure and restart (§3.3): the registries
  /// are rebuilt from the coordination service.
  void restart_recovery_manager();

  /// Block until all in-flight failure handling (master + RM) has finished.
  void wait_for_recovery();

  /// Block until the recovery manager has *started* handling at least
  /// `count` server (resp. client) failures. Failure detection is
  /// asynchronous (the first RPC to a crashed server, or missed heartbeats),
  /// so call this after crash_server / crash_client and before
  /// wait_for_recovery. Returns false on timeout.
  bool wait_server_recoveries(std::int64_t count, Micros timeout = seconds(30));
  bool wait_client_recoveries(std::int64_t count, Micros timeout = seconds(30));

  /// Block until the published global flush threshold TF has reached `ts`,
  /// i.e. stable-snapshot readers see every transaction up to `ts`.
  /// Returns false on timeout (e.g. TF is blocked by an unavailable region).
  bool wait_stable(Timestamp ts, Micros timeout = seconds(30));

 private:
  TestbedConfig config_;
  Cluster cluster_;
  TxnManager tm_;
  /// Guards rm_ against the restart swap: region gates (server threads) read
  /// it shared; restart_recovery_manager() takes it exclusively. Lock order:
  /// rm_->stop() must complete BEFORE the exclusive lock is requested — a
  /// gate blocked inside on_region_recovered holds the shared lock for the
  /// whole replay.
  mutable RankedSharedMutex<LockRank::kHarness> rm_mutex_{"testbed.rm"};
  std::unique_ptr<RecoveryManager> rm_;
  std::vector<std::unique_ptr<PersistTracker>> trackers_;
  std::vector<std::unique_ptr<TxnClient>> clients_;
  bool started_ = false;
};

}  // namespace tfr
