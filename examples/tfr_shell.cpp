// tfr_shell — an interactive / scriptable admin shell over a running
// testbed: transactional reads and writes, cluster introspection, fault
// injection, and recovery-threshold inspection from one prompt. Reads
// commands from stdin, so it doubles as a scripting tool:
//
//   $ printf 'put accounts alice balance 100\nget accounts alice balance\n' \
//       | ./examples/tfr_shell
//
// Commands:
//   put <table> <row> <col> <value>      commit a single-put transaction
//   get <table> <row> <col>              snapshot read
//   del <table> <row> <col>              commit a single-delete transaction
//   scan <table> [limit]                 snapshot scan
//   create <table> <regions> <rows>      create a pre-split table
//   status                               servers, regions, thresholds, log
//   crash-server <index>                 crash-fail a region server
//   crash-client                         crash the shell's own client
//   add-server                           elastic scale-out
//   split <region-name>                  split a region
//   rebalance                            run balancer ticks until one takes
//                                        no action (evens out region counts)
//   wait-recovery                        block until failure handling done
//   help / quit
#include <cstdio>
#include <iostream>
#include <sstream>

#include "src/common/logging.h"
#include "src/testbed/testbed.h"

using namespace tfr;

namespace {

void print_status(Testbed& bed) {
  std::printf("servers:\n");
  for (int i = 0; i < bed.cluster().num_servers(); ++i) {
    RegionServer& s = bed.cluster().server(i);
    std::printf("  %-6s %-5s regions=%zu wal_seq=%llu/%llu segments=%zu\n", s.id().c_str(),
                s.alive() ? "UP" : "DOWN", s.region_names().size(),
                static_cast<unsigned long long>(s.wal().synced_seq()),
                static_cast<unsigned long long>(s.wal().appended_seq()),
                s.wal().stats().live_segments);
  }
  std::printf("thresholds: TF=%lld TP=%lld\n",
              static_cast<long long>(bed.rm().global_tf()),
              static_cast<long long>(bed.rm().global_tp()));
  const auto log_stats = bed.tm().log().stats();
  std::printf("tm log: %lld live write-sets (%lld truncated at checkpoints)\n",
              static_cast<long long>(log_stats.live_records),
              static_cast<long long>(log_stats.truncated));
  const auto rm_stats = bed.rm().stats();
  std::printf("recoveries: clients=%lld servers=%lld regions=%lld\n",
              static_cast<long long>(rm_stats.client_recoveries),
              static_cast<long long>(rm_stats.server_recoveries),
              static_cast<long long>(rm_stats.regions_recovered));
}

}  // namespace

int main() {
  set_log_level(LogLevel::kWARN);
  Testbed bed(fast_test_config(/*num_servers=*/2, /*num_clients=*/1));
  if (auto s = bed.start(); !s.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("tfr-kv shell — 2 region servers up. Type 'help' for commands.\n");

  std::string line;
  while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;

    if (cmd == "quit" || cmd == "exit") break;

    if (cmd == "help") {
      std::printf("put get del scan create status crash-server crash-client add-server "
                  "split rebalance wait-recovery quit\n");
    } else if (cmd == "create") {
      std::string table;
      int regions = 2;
      std::uint64_t rows = 1000;
      in >> table >> regions >> rows;
      auto s = bed.create_table(table, rows, regions);
      std::printf("%s\n", s.to_string().c_str());
    } else if (cmd == "put" || cmd == "del") {
      std::string table, row, col, value;
      in >> table >> row >> col;
      if (cmd == "put") in >> value;
      Transaction txn = bed.client().begin(table);
      if (cmd == "put") {
        txn.put(row, col, value);
      } else {
        txn.del(row, col);
      }
      auto ts = txn.commit();
      if (ts.is_ok()) {
        bed.client().wait_flushed();
        bed.wait_stable(ts.value());
        std::printf("committed at ts %lld\n", static_cast<long long>(ts.value()));
      } else {
        std::printf("%s\n", ts.status().to_string().c_str());
      }
    } else if (cmd == "get") {
      std::string table, row, col;
      in >> table >> row >> col;
      Transaction txn = bed.client().begin(table);
      auto v = txn.get(row, col);
      txn.abort();
      if (!v.is_ok()) {
        std::printf("%s\n", v.status().to_string().c_str());
      } else if (!v.value()) {
        std::printf("(not found)\n");
      } else {
        std::printf("%s\n", v.value()->c_str());
      }
    } else if (cmd == "scan") {
      std::string table;
      std::size_t limit = 20;
      in >> table >> limit;
      Transaction txn = bed.client().begin(table);
      auto cells = txn.scan("", "", limit);
      txn.abort();
      if (!cells.is_ok()) {
        std::printf("%s\n", cells.status().to_string().c_str());
      } else {
        for (const auto& c : cells.value()) {
          std::printf("  %s/%s @%lld = %s\n", c.row.c_str(), c.column.c_str(),
                      static_cast<long long>(c.ts), c.value.c_str());
        }
        std::printf("(%zu cells)\n", cells.value().size());
      }
    } else if (cmd == "status") {
      print_status(bed);
    } else if (cmd == "crash-server") {
      int idx = 0;
      in >> idx;
      if (idx < 0 || idx >= bed.cluster().num_servers()) {
        std::printf("no such server\n");
      } else {
        bed.crash_server(idx);
        std::printf("crashed rs%d — detection and recovery run in the background; "
                    "use wait-recovery\n", idx + 1);
      }
    } else if (cmd == "crash-client") {
      bed.crash_client(0);
      std::printf("client crashed; the recovery manager will replay its commits\n");
    } else if (cmd == "add-server") {
      auto s = bed.cluster().add_server();
      std::printf("%s\n", s.is_ok() ? s.value()->id().c_str() : s.status().to_string().c_str());
    } else if (cmd == "split") {
      std::string region;
      in >> region;
      std::printf("%s\n", bed.master().split_region(region).to_string().c_str());
    } else if (cmd == "rebalance") {
      int actions = 0;
      for (int n; (n = bed.master().balance_once()) > 0;) actions += n;
      std::printf("balancer took %d actions\n", actions);
    } else if (cmd == "wait-recovery") {
      bed.wait_for_recovery();
      std::printf("recovery idle\n");
    } else {
      std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    }
  }
  std::printf("bye\n");
  return 0;
}
