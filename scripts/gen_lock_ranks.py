#!/usr/bin/env python3
"""Single source of truth for the tfrkv lock-rank table.

This script owns the rank table (RANKS below) and generates, from it:

  * src/common/lock_ranks.h        — the LockRank enum, the constexpr
    name/value/policy table the runtime validator asserts against, and the
    constexpr predicates (lock_rank_known, lock_rank_may_block) used by the
    compile-time RankedMutex checks and the runtime blocking-under-lock hook.
  * the "## 7. Lock ranks" table in DESIGN.md, between the GEN-LOCK-RANKS
    markers — so the documentation can never drift from the code.

Usage:
  scripts/gen_lock_ranks.py           # rewrite both outputs in place
  scripts/gen_lock_ranks.py --check   # exit 1 if either output is stale
                                      # (registered as the `lock_ranks_doc`
                                      # ctest test)

Editing workflow: change RANKS here, run the script, commit all three files.
A hand-edit to lock_ranks.h or to the DESIGN.md table fails the ctest.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADER = os.path.join(ROOT, "src", "common", "lock_ranks.h")
DESIGN = os.path.join(ROOT, "DESIGN.md")

# One row per rank: (enum name, value, doc name(s), may_block, paper
# component, observed nesting, blocking rationale).
#
# `may_block` is the blocking-under-lock policy: True means a thread is
# permitted to call a TFR_BLOCKING function (DFS I/O, RPC, WAL/TM-log sync,
# sleeps) while holding a mutex of this rank, and the rationale column must
# say why that is safe by design. False means the runtime hook
# (lockrank::on_blocking_call) aborts the process if it happens — these are
# the hot leaf locks where an RPC underneath would stall every peer.
RANKS = [
    ("kBalancer", 220, "master.balancer", True, "master balancer loop (§9)",
     "master, region server ops, harness gate (daughter opens)",
     "a balancer tick is one serialized topology transaction: it holds the "
     "tick lock across split/merge/move RPCs including gated daughter opens"),
    ("kHarness", 210, "testbed.rm", True, "test harness",
     "RM (gated RPC + restart swap)",
     "held across whole gated replays by construction of the harness"),
    ("kRecoveryManager", 200, "recovery_manager", True,
     "RM orchestration, floors, PQ (Alg. 1+3)",
     "coord, TM, TM log, KV client paths",
     "serializes recovery: replay RPCs and coord marker writes happen under it"),
    ("kRecoveryTracker", 190,
     "persist_tracker, flush_tracker.advance", True,
     "TP(s) / TF(c) trackers (Alg. 1+3)", "WAL sync (TP persist step)",
     "Algorithm 3's atomic probe-and-publish deliberately holds the tracker "
     "mutex across Wal::sync (see persist_tracker.cpp)"),
    ("kClientLifecycle", 180, "txn_client.lifecycle, region_server.terminator",
     True, "client/server self-termination", "thread join bookkeeping only",
     "held across thread joins of flusher/terminator threads at shutdown"),
    ("kRegionServer", 170, "region_server.regions", True,
     "region server directory", "region, hooks",
     "shutdown/split/offload flush memstores (DFS writes) under the "
     "directory lock so no region is added or dropped mid-operation"),
    ("kRegion", 160, "region", True, "region memstore/files",
     "WAL append, DFS, latency, logging",
     "flush/compact finalize store files (DFS writes) under the region lock; "
     "a write's WAL append and memstore apply share it; reads snapshot the "
     "file list and run unlocked"),
    ("kMaster", 150, "master", True, "master / failure detector",
     "region server ops, coord",
     "failure handling (WAL split reads, region reopen RPCs) runs under the "
     "assignment lock by design — one handler thread per failure"),
    ("kWalSync", 140, "wal.sync", True, "WAL group sync", "wal (ledger)",
     "exists precisely to serialize Dfs::sync calls; every holder blocks"),
    ("kWal", 130, "wal", False, "WAL segment ledger", "DFS",
     "appends only feed the DFS write pipeline (no sync); the ledger lock "
     "must stay cheap so appends overlap the group sync"),
    ("kTxnManager", 120, "txn_manager", True, "TM (SI conflict window)",
     "TM log, ts-listener queues",
     "commit certification publishes to the TM log (group commit) while the "
     "conflict window is pinned"),
    ("kTxnLog", 110, "txn_log", False, "TM group-commit log", "DFS",
     "appender lanes sync stable storage outside the shared mutex; only "
     "queue/segment bookkeeping happens under it"),
    ("kCoord", 100, "coord", False, "coordination service (ZK stand-in)",
     "callback queues, logging",
     "minizk is in-memory; nothing under its lock may block"),
    ("kDfs", 90, "dfs", False, "mini-DFS namenode/datanodes",
     "latency model, logging",
     "sync/read latency is charged with the namespace lock released "
     "(see dfs.cpp); holding it across a blocking call would serialize all I/O"),
    ("kServerHooks", 80, "region_server.hooks", False, "test hook registration",
     "leaf", "hook snapshot only; observers run after release"),
    ("kBlockCache", 70, "block_cache", False, "block cache LRU", "leaf",
     "single-flight design loads blocks outside the cache lock"),
    ("kFaultInjector", 60, "fault_injector", False,
     "deterministic fault injection", "leaf",
     "rule lookup only; injected delays sleep after release"),
    ("kEpochRegistry", 55, "epoch_registry", False,
     "fencing-token registry (§6a)", "leaf (probed under WAL/region locks)",
     "validate() is a map probe on the WAL append hot path"),
    ("kQueue", 50, "blocking_queue, synced_min_queue", False,
     "FQ/FQ' / PQ carriers", "leaf",
     "waiting on the queue's own CondVar is fine; foreign blocking is not"),
    ("kClientRouting", 45, "kv_client.routes", False,
     "client routing-table cache (§2.1)", "leaf",
     "cache probe/insert only; master locate RPCs run with it released"),
    ("kThreadingInternal", 40, "periodic_task, semaphore, countdown_latch",
     False, "heartbeats, handler pools", "leaf",
     "waiting on the primitive's own CondVar is fine; foreign blocking is not"),
    ("kLatencyModel", 30, "latency_rng", False, "latency model", "leaf",
     "an RNG draw; the charged sleep happens after release"),
    ("kMetrics", 20, "metric_registry", False, "metrics", "leaf",
     "registry lookup on first use only"),
    ("kLogging", 10, "log_emit", False, "logging", "leaf",
     "innermost: one formatted write; callable while holding anything"),
]

# Aliases share a value with a canonical rank and do not get their own table
# or doc row. kLeaf is the default rank for ad-hoc mutexes.
ALIASES = [("kLeaf", "kThreadingInternal", "default for ad-hoc mutexes: nest under anything")]

GEN_BEGIN = "<!-- GEN-LOCK-RANKS:BEGIN (scripts/gen_lock_ranks.py; do not edit by hand) -->"
GEN_END = "<!-- GEN-LOCK-RANKS:END -->"


def render_header():
    lines = []
    lines.append("// GENERATED FILE — do not edit by hand.")
    lines.append("//")
    lines.append("// Produced by scripts/gen_lock_ranks.py, the single source of truth for")
    lines.append("// the lock-rank table. The same script generates the DESIGN.md \"Lock")
    lines.append("// ranks\" table; the `lock_ranks_doc` ctest fails if either drifts.")
    lines.append("//")
    lines.append("// Three consumers:")
    lines.append("//  * RankedMutex<R> (annotations.h) static_asserts lock_rank_known(R), so")
    lines.append("//    a mutex can only be declared with a rank from this table;")
    lines.append("//  * the runtime validator asserts every acquisition's rank is in the")
    lines.append("//    table (a raw tfr::Mutex constructed with an ad-hoc rank aborts);")
    lines.append("//  * the blocking-under-lock hook consults lock_rank_may_block() — the")
    lines.append("//    per-rank policy column that says which locks may, by documented")
    lines.append("//    design, be held across a TFR_BLOCKING call.")
    lines.append("#pragma once")
    lines.append("")
    lines.append("#include <cstddef>")
    lines.append("")
    lines.append("namespace tfr {")
    lines.append("")
    lines.append("// Acquisition order is strictly DESCENDING: holding rank R, a thread may")
    lines.append("// only acquire ranks < R. Outermost locks (the testbed harness, the")
    lines.append("// recovery manager) have the highest ranks; utility leaves (metrics, the")
    lines.append("// log emit lock) the lowest. See DESIGN.md \"Lock ranks\" for the rationale")
    lines.append("// behind every edge.")
    lines.append("enum class LockRank : int {")
    width = max(len(n) for n, *_ in RANKS) + 1
    for name, value, docname, _mb, component, _nests, _why in RANKS:
        lines.append(f"  {name} = {value},".ljust(width + 9) + f"// {docname}: {component}")
    for alias, target, why in ALIASES:
        value = next(v for n, v, *_ in RANKS if n == target)
        lines.append(f"  {alias} = {value},".ljust(width + 9) + f"// {why}")
    lines.append("};")
    lines.append("")
    lines.append("struct LockRankInfo {")
    lines.append("  const char* name;  // doc name(s) of the mutex(es) at this rank")
    lines.append("  int value;")
    lines.append("  bool may_block;  // may be held across a TFR_BLOCKING call (documented why)")
    lines.append("};")
    lines.append("")
    lines.append("inline constexpr LockRankInfo kLockRankTable[] = {")
    for name, value, docname, may_block, *_ in RANKS:
        mb = "true" if may_block else "false"
        lines.append(f'    {{"{docname}", {value}, {mb}}},')
    lines.append("};")
    lines.append("")
    lines.append("inline constexpr std::size_t kLockRankCount =")
    lines.append("    sizeof(kLockRankTable) / sizeof(kLockRankTable[0]);")
    lines.append("")
    lines.append("/// True iff `value` is a rank defined in the table. RankedMutex<R>")
    lines.append("/// static_asserts this; the runtime validator aborts on violations.")
    lines.append("constexpr bool lock_rank_known(int value) {")
    lines.append("  for (const auto& r : kLockRankTable) {")
    lines.append("    if (r.value == value) return true;")
    lines.append("  }")
    lines.append("  return false;")
    lines.append("}")
    lines.append("")
    lines.append("/// True iff a mutex of rank `value` may, by documented design, be held")
    lines.append("/// across a blocking call (DFS I/O, RPC, WAL/TM-log sync, sleeps).")
    lines.append("constexpr bool lock_rank_may_block(int value) {")
    lines.append("  for (const auto& r : kLockRankTable) {")
    lines.append("    if (r.value == value) return r.may_block;")
    lines.append("  }")
    lines.append("  return false;")
    lines.append("}")
    lines.append("")
    lines.append("/// Doc name(s) for a rank value; \"?\" when unknown.")
    lines.append("constexpr const char* lock_rank_doc_name(int value) {")
    lines.append("  for (const auto& r : kLockRankTable) {")
    lines.append("    if (r.value == value) return r.name;")
    lines.append("  }")
    lines.append("  return \"?\";")
    lines.append("}")
    lines.append("")
    lines.append("}  // namespace tfr")
    lines.append("")
    return "\n".join(lines)


def render_design_table():
    lines = [GEN_BEGIN, ""]
    lines.append("| rank | lock | blocking under it | paper component | nests into (observed) |")
    lines.append("|---|---|---|---|---|")
    for name, value, docname, may_block, component, nests, why in RANKS:
        locks = ", ".join(f"`{x.strip()}`" for x in docname.split(","))
        policy = f"**allowed** — {why}" if may_block else f"forbidden — {why}"
        lines.append(f"| {value} | {locks} | {policy} | {component} | {nests} |")
    lines.append("")
    lines.append(GEN_END)
    return "\n".join(lines)


def splice_design(text):
    begin = text.find(GEN_BEGIN)
    end = text.find(GEN_END)
    if begin < 0 or end < 0:
        sys.exit("gen_lock_ranks.py: GEN-LOCK-RANKS markers not found in DESIGN.md")
    return text[:begin] + render_design_table() + text[end + len(GEN_END):]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--check", action="store_true",
                        help="verify outputs are current; do not write")
    args = parser.parse_args()

    header = render_header()
    with open(DESIGN, encoding="utf-8") as f:
        design_old = f.read()
    design_new = splice_design(design_old)

    if args.check:
        stale = []
        try:
            with open(HEADER, encoding="utf-8") as f:
                if f.read() != header:
                    stale.append(HEADER)
        except FileNotFoundError:
            stale.append(HEADER)
        if design_new != design_old:
            stale.append(DESIGN)
        if stale:
            print("gen_lock_ranks.py --check: STALE (re-run scripts/gen_lock_ranks.py):")
            for s in stale:
                print("  " + s)
            return 1
        print("gen_lock_ranks.py --check: OK (lock_ranks.h and DESIGN.md are current)")
        return 0

    with open(HEADER, "w", encoding="utf-8") as f:
        f.write(header)
    if design_new != design_old:
        with open(DESIGN, "w", encoding="utf-8") as f:
            f.write(design_new)
    print(f"wrote {HEADER}")
    print(f"updated DESIGN.md lock-rank table")
    return 0


if __name__ == "__main__":
    sys.exit(main())
