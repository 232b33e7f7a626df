"""The ledger's one command.

    python3 ledger/run.py [--workload NAME ...] [--seed N] [--seconds S] [--trace 0|1]

Runs each named workload (default: all six) through the public client
API, verifies every result against the naive model, prints every metric
by name with its unit, and ends each workload with one JSON line per
the benchmark contract (``correct``, ``attempted``, ``failed``,
``metrics``).  Exits non-zero on an oracle mismatch, a ``state_sha256``
mismatch, a stale read on a write-through workload, or a failed wrapper
self-check.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Import the benchmark as the ``ledger`` package (so ``ledger/trace.py``
# never shadows the standard library's ``trace``) and the program from
# ``src``; spawned cluster nodes inherit this path.
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

from ledger import harness  # noqa: E402
from ledger.workloads import BY_NAME, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(BY_NAME),
        help="workload to run; repeat for several (default: all)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=8.0,
        help="nominal length of the timed section; op counts scale with it",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1: the traced run (per-layer metrics) instead of the untraced",
    )
    args = parser.parse_args(argv)
    import repro  # noqa: F401 - fail before printing if the program is absent

    names = args.workload or [w.name for w in WORKLOADS]
    if len(names) > 1:
        # One process per workload: ``peak_rss_mb`` is a high-water mark
        # of the process, so a workload must not inherit its
        # predecessor's.  Each child ends its report with its own line.
        statuses = [
            subprocess.call(
                [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                ]
            )
            for name in names
        ]
        return 1 if any(statuses) else 0

    workload = BY_NAME[names[0]]
    if args.trace:
        result = harness.run_traced(workload, args.seed, args.seconds)
    else:
        result = harness.run_end_to_end(workload, args.seed, args.seconds)
    harness.report(result, bool(args.trace))
    harness.save(result, bool(args.trace), args.seed)
    print(result.last_line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
