#!/usr/bin/env python3
"""Blocking-call-under-lock check, grep fallback.

The authoritative static pass is scripts/blocking_under_lock.query (clang-query
over TFR_BLOCKING `annotate` attributes); this script is the documented
fallback for toolchains without clang (scripts/lint.sh picks whichever is
available). It is a *lexical* scan — deliberately simple, biased toward false
positives, and suppressible in place:

  * tracks RAII lock guards (MutexLock, RankedMutexLock<...>, WriterLock,
    ReaderLock) per brace scope;
  * flags any call to a known-blocking entry point (the TFR_BLOCKING set:
    DFS I/O, RPC apply/get-by-name, WAL/TM-log sync, coord session ops,
    sleeps) made while a guard is lexically alive;
  * a finding is suppressed by a `// tfr-lint: blocking-ok(<reason>)` comment
    on the same line or the line above — the reason is the documentation.

Unlike the runtime hook (annotations.cpp), this pass cannot see ranks, so it
flags blocking under ANY lock; sites where holding the lock across the block
is the design carry a blocking-ok comment mirroring the rank table's
may_block policy. Calls it cannot name-match (virtuals, std::function hops)
are covered by the runtime hook, which is default-on in every debug build.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import re
import sys
from pathlib import Path

# Method names from the TFR_BLOCKING set that only match with an explicit
# receiver (`x.sync(` / `p->sync(`): bare they would collide with
# declarations and unrelated code. Names common enough to collide even with
# a receiver (read, append, get, scan, charge) are left to the clang pass /
# runtime hook.
BLOCKING_METHODS = (
    "sync",
    "write_file",
    "read_all",
    "create_session",
    "update_ttl",
    "heartbeat",
)

# Distinctive names safe to match with or without a receiver (an unqualified
# this-> call to a blocking sibling method still counts).
BLOCKING_ANY = (
    "sleep_micros",
    "sleep_millis",
    "apply_batch",
    "persist_wal",
    "finalize_store_file",
    "flush_memstore",
)

LOCK_DECL = re.compile(
    r"\b(?:MutexLock|RankedMutexLock(?:<[^<>]*>)?|WriterLock|ReaderLock)\s+"
    r"(\w+)\s*[({]"
)
BLOCKING_CALL = re.compile(
    r"(?:(?:\.|->)(" + "|".join(BLOCKING_METHODS) + r")|"
    r"\b(" + "|".join(BLOCKING_ANY) + r"))\s*\("
)
SUPPRESS = re.compile(r"tfr-lint:\s*blocking-ok\(")

# Files that define the primitives themselves.
SKIP = {
    "src/common/annotations.h",
    "src/common/annotations.cpp",
    "src/common/clock.h",
}


def strip_comments_keep_suppress(line: str) -> str:
    """Remove // comments and string literals so names inside them don't match."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return line.split("//", 1)[0]


def scan_file(path: Path, rel: str):
    findings = []
    depth = 0
    locks = []  # (depth_at_decl, var_name, line_no)
    lines = path.read_text().splitlines()
    for i, raw in enumerate(lines, 1):
        code = strip_comments_keep_suppress(raw)
        m = LOCK_DECL.search(code)
        if m:
            locks.append((depth, m.group(1), i))
        c = BLOCKING_CALL.search(code)
        if c and locks and not m:  # the decl line itself is the acquisition
            # A blocking-ok marker suppresses from the same line or anywhere
            # in the contiguous comment block immediately above.
            suppressed = bool(SUPPRESS.search(raw))
            j = i - 2  # 0-based index of the previous line
            while not suppressed and j >= 0 and lines[j].lstrip().startswith("//"):
                suppressed = bool(SUPPRESS.search(lines[j]))
                j -= 1
            if not suppressed:
                what = c.group(1) or c.group(2)
                held = ", ".join(f"{v} (line {ln})" for _, v, ln in locks)
                findings.append(f"{rel}:{i}: blocking call `{what}` under lock guard(s): {held}")
        depth += code.count("{") - code.count("}")
        while locks and locks[-1][0] > depth:
            locks.pop()
    return findings


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    src = root / "src"
    if not src.is_dir():
        print(f"check_blocking: no src/ under {root}", file=sys.stderr)
        return 2
    findings = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        rel = str(path.relative_to(root))
        if rel in SKIP:
            continue
        findings.extend(scan_file(path, rel))
    for f in findings:
        print(f)
    if findings:
        print(
            f"\ncheck_blocking: {len(findings)} blocking call(s) under a lock. Either drop the\n"
            "lock before blocking, or — if holding it is the design (see the may_block\n"
            "column in DESIGN.md 'Lock ranks') — annotate the site with\n"
            "`// tfr-lint: blocking-ok(<reason>)`.",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
