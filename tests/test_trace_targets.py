"""Every seam the ledger's tracer wraps by name still exists, and fires
where the ledger expects it.

``ledger/trace.py`` patches layer functions by (module, class,
attribute) at run time.  A refactor that renames or deletes one, or
moves work so that one stops firing, breaks the traced ledger run,
which only CI executes; these tests fail the same refactor here, in
tier-1.  Each target must resolve, and a small Twip session on each
benchmark deployment must pass the tracer's own self-check: every
unconditional seam of the deployment's layers fires and no seam of an
idle layer does.  On the two durable deployments every seam of the
durable layers fires, conditional ones included, so the persist seams
fire on write-through only and the backing/cdc seams on write-around
only.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from ledger import gen  # noqa: E402
from ledger.trace import TARGETS, Tracer  # noqa: E402
from ledger.workloads import BY_NAME  # noqa: E402

with open(ROOT / "BENCHMARK.json") as fh:
    BENCHMARK_WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]
DURABLE_LAYERS = frozenset({"persist", "backing", "cdc"})
READERS = [gen.user_name(i) for i in range(10)]
POSTERS = [gen.user_name(100 + i) for i in range(7)]


def test_targets_are_listed():
    assert TARGETS


@pytest.mark.parametrize(
    "target", TARGETS, ids=[f"{t.module}:{t.span}" for t in TARGETS]
)
def test_target_resolves(target):
    module = importlib.import_module(target.module)
    owner = getattr(module, target.owner) if target.owner else module
    assert callable(inspect.getattr_static(owner, target.attr))


def timeline(user: str, tick: int = 0):
    return f"t|{user}|{gen.tick_str(tick)}", f"t|{user}}}"


def traced_session(workload, scratch: str):
    """Trace a small Twip session on ``workload``'s deployment and
    return the analysis.

    Ten readers follow six of seven posters (60 edges) and 60 posts
    are loaded.  Every timeline is read, one reader subscribes to the
    seventh poster, a followed poster posts, and every timeline is read
    again from a tick below the new followee's posts: that re-read is
    what reaches ``Pattern.expand``.  A durable deployment also
    checkpoints its log.
    """
    tracer = Tracer()
    tracer.install()
    try:
        client, close = workload.deploy(scratch)
        try:
            tracer.enabled = True
            client.add_join(gen.TIMELINE_JOIN)
            client.put_many(
                [(f"s|{u}|{p}", "1") for u in READERS for p in POSTERS[:6]]
            )
            client.put_many(
                [
                    (f"p|{POSTERS[i % 7]}|{gen.tick_str(100 + i)}", f"post {i}")
                    for i in range(60)
                ]
            )
            client.settle_cdc()
            for user in READERS:
                client.scan(*timeline(user))
            client.put(f"s|{READERS[0]}|{POSTERS[6]}", "1")
            client.put(f"p|{POSTERS[0]}|{gen.tick_str(500)}", "late")
            client.settle_cdc()
            for user in READERS:
                client.scan(*timeline(user, 100))
            if workload.reopen is not None:
                client.server.checkpoint()
            tracer.enabled = False
        finally:
            close()
    finally:
        tracer.uninstall()
    return tracer.analyse()


@pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
def test_seams_fire_where_the_ledger_expects(tmp_path, name):
    workload = BY_NAME[name]
    analysis = traced_session(workload, str(tmp_path))
    assert analysis.unexpected(workload.layers) == []
    for i, target in enumerate(TARGETS):
        if target.layer in DURABLE_LAYERS & workload.layers:
            assert analysis.calls[i] > 0, f"{target.span} never fired"
