// Cluster — owns and wires one minibase deployment: the DFS, the
// coordination service, the master, and N region servers. This mirrors the
// paper's testbed: region servers co-located with DFS datanodes, ZooKeeper
// carrying heartbeats.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/epoch.h"
#include "src/common/fault.h"
#include "src/coord/coord.h"
#include "src/dfs/dfs.h"
#include "src/kv/master.h"
#include "src/kv/region_server.h"

namespace tfr {

struct ClusterConfig {
  int num_servers = 2;
  DfsConfig dfs;
  RegionServerConfig server;
  Micros coord_check_interval = millis(10);
  /// Master balancer (§9): disabled by default (interval == 0). Enabled on
  /// start() once every initial server is registered.
  BalancerConfig balancer;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Invoked on every region server just before it starts (including ones
  /// added later) — the recovery middleware installs its trackers and the
  /// region gate here.
  void set_server_setup(std::function<void(RegionServer&)> setup) {
    server_setup_ = std::move(setup);
  }

  /// Start the master and all region servers.
  Status start();

  /// Stop everything that is still alive (clean shutdown, no recovery).
  void stop();

  Dfs& dfs() { return dfs_; }
  Coord& coord() { return coord_; }
  Master& master() { return master_; }

  /// The cluster-wide fault injector, pre-installed into the DFS and every
  /// region server (including ones added later). Disabled by default; add
  /// rules to start injecting.
  FaultInjector& fault() { return fault_; }

  /// The cluster-wide ownership-epoch registry, pre-installed into the
  /// master (which advances it) and every region server (which enforces it).
  EpochRegistry& epochs() { return epochs_; }

  int num_servers() const { return static_cast<int>(servers_.size()); }
  RegionServer& server(int i) { return *servers_.at(static_cast<std::size_t>(i)); }
  RegionServer* server_by_id(const std::string& id);

  /// Add one more region server at runtime (elastic scale-out).
  Result<RegionServer*> add_server();

  /// Crash-fail server i. The master detects the failure when an RPC
  /// bounces off the server (proof) or its session expires (silence), and
  /// runs recovery.
  void crash_server(int i);

  const ClusterConfig& config() const { return config_; }

 private:
  ClusterConfig config_;
  std::function<void(RegionServer&)> server_setup_;
  FaultInjector fault_;     // before dfs_/servers_: outlives everything that uses it
  EpochRegistry epochs_;    // likewise consulted by WAL/regions until teardown
  Dfs dfs_;
  Coord coord_;
  Master master_;
  std::vector<std::unique_ptr<RegionServer>> servers_;
  bool started_ = false;
};

}  // namespace tfr
