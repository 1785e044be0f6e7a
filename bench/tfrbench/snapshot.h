// Counter snapshots: every public stats source of a running Testbed, read at
// one instant into a flat name -> value map, so the work a window did is the
// key-by-key difference of the snapshots taken at its two ends.
#pragma once

#include <map>
#include <string>

#include "src/testbed/testbed.h"

namespace tfrbench {

using Snapshot = std::map<std::string, double>;

/// Reads TxnLog, TxnManager, each server's Wal and BlockCache (summed over
/// servers, crashed ones included), Dfs, RecoveryManager and its
/// RecoveryClient, every global counter ("counter.<name>") and gauge
/// ("gauge.<name>"), the TM log's sync-wait histogram, and the store-file
/// count of the regions on live servers.
Snapshot take_snapshot(tfr::Testbed& bed);

/// `after - before`, key by key; a key missing from `before` counts as 0.
Snapshot operator-(const Snapshot& after, const Snapshot& before);

/// `total += delta`, key by key.
void accumulate(Snapshot& total, const Snapshot& delta);

/// The value under `key`, 0 when absent.
double at(const Snapshot& s, const std::string& key);

}  // namespace tfrbench
