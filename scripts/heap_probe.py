#!/usr/bin/env python3
"""Heap probe: what a cached Twip timeline costs in heap, against what
the cache charges itself.

Builds a Twip server (``TIMELINE_JOIN``, subtables on ``t``/``p``/``s``)
in which every user follows :data:`FOLLOWS` others and posts
:data:`POSTS` tweets, then reads every timeline once.  Two passes over the same load:

* untraced: the cold read of all timelines, the objects the garbage
  collector tracks afterwards, and how long a full ``gc.collect()``
  takes (median of three);
* under ``tracemalloc``: the heap the reads leave allocated against the
  bytes they charge (``PequodServer.memory_bytes``), then split by
  releasing the updaters and then the timeline rows, each release's
  drop in traced heap set against its share of the charge.

Prints one ``name value`` line per figure and exits 1 when the reads
allocate more than :data:`CEILING` times what they charge.  The tier-1
test ``tests/test_heap_ceiling.py`` runs :func:`measure` at a small
size against the same :data:`CEILING`.

Run from the repo root: ``PYTHONPATH=src python scripts/heap_probe.py``
(2,000 users: about 20 s and 300 MB of RSS).
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
import time
import tracemalloc
from typing import Dict

from repro.apps.twip import TIMELINE_JOIN, format_time
from repro.core.server import PequodServer

#: Heap the timeline reads may allocate per byte they charge.
CEILING = 1.7
#: The load: users in a full run, followees and posts per user.
USERS, FOLLOWS, POSTS = 2000, 20, 10


def build(users: int) -> PequodServer:
    """A loaded, not yet read, Twip server."""
    rng = random.Random(1)
    names = [f"u{i:05d}" for i in range(users)]
    srv = PequodServer(subtable_config={"t": 2, "p": 2, "s": 2})
    srv.add_join(TIMELINE_JOIN)
    for user in names:
        for poster in rng.sample(names, min(FOLLOWS, users)):
            srv.put(f"s|{user}|{poster}", "1")
    for n, poster in enumerate(names):
        for k in range(POSTS):
            srv.put(f"p|{poster}|{format_time(n * POSTS + k)}", f"tweet {k} by {poster}")
    return srv


def read_all(srv: PequodServer, users: int) -> int:
    rows = 0
    for i in range(users):
        rows += len(srv.scan(f"t|u{i:05d}|", f"t|u{i:05d}}}"))
    return rows


def measure(users: int = USERS, gc_pass: bool = True) -> Dict[str, float]:
    """The probe's figures for one load (see the module docstring)."""
    out: Dict[str, float] = {}
    if gc_pass:
        srv = build(users)
        gc.collect()
        start = time.perf_counter()
        read_all(srv, users)
        out["cold_read_s"] = time.perf_counter() - start
        gc.collect()
        out["gc_tracked_objects"] = len(gc.get_objects())
        pauses = []
        for _ in range(3):
            start = time.perf_counter()
            gc.collect()
            pauses.append(time.perf_counter() - start)
        out["gc_full_collect_s"] = statistics.median(pauses)
        del srv
        gc.collect()

    srv = build(users)
    engine = srv.engine
    gc.collect()
    tracemalloc.start()
    try:
        heap0 = tracemalloc.get_traced_memory()[0]
        charged0, updater0 = srv.memory_bytes(), engine.updater_bytes
        rows = read_all(srv, users)
        gc.collect()
        heap1 = tracemalloc.get_traced_memory()[0]
        charged1, updater1 = srv.memory_bytes(), engine.updater_bytes
        updaters = int(engine.stats.get("updaters_installed"))
        # Release the updaters, then the rows, measuring each drop.
        for sr in engine.status["t"].overlapping("t|", "t}"):
            engine._release_builds(sr)
        gc.collect()
        heap2 = tracemalloc.get_traced_memory()[0]
        engine.store.remove_range("t|", "t}")
        gc.collect()
        heap3 = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    row_charge = (charged1 - charged0) - (updater1 - updater0)
    out.update(
        rows=rows,
        updaters=updaters,
        heap_mb=(heap1 - heap0) / 1e6,
        charged_mb=(charged1 - charged0) / 1e6,
        heap_per_charged=(heap1 - heap0) / (charged1 - charged0),
        heap_per_updater=(heap1 - heap2) / updaters,
        charged_per_updater=(updater1 - updater0) / updaters,
        heap_per_row=(heap2 - heap3) / rows,
        charged_per_row=row_charge / rows,
    )
    return out


def main() -> int:
    figures = measure()
    for name, value in figures.items():
        print(f"{name} {value:.4g}" if isinstance(value, float) else f"{name} {value}")
    if figures["heap_per_charged"] > CEILING:
        print(
            f"FAIL: the reads allocate {figures['heap_per_charged']:.2f}x "
            f"what they charge (ceiling {CEILING})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
