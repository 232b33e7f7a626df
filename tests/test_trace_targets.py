"""Every seam the ledger's tracer wraps by name still exists, and the
durable seams fire where the ledger expects them.

``ledger/trace.py`` patches layer functions by (module, class,
attribute) at run time.  A refactor that renames or deletes one breaks
the traced ledger run, which only CI executes; this test fails the
same refactor here, in tier-1.  Each target must resolve, and on the
two durable deployments the persist seams must fire on write-through
only and the backing/cdc seams on write-around only.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from ledger.trace import TARGETS, Tracer  # noqa: E402
from repro import PequodServer  # noqa: E402

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)
PERSIST_SEAMS = (
    "PersistenceManager.log_put",
    "PersistenceManager.log_ops",
    "PersistenceManager.checkpoint",
)
WRITE_AROUND_SEAMS = ("BackingDatabase.put", "ChangeFeed.record", "CdcPump.step")


def test_targets_are_listed():
    assert TARGETS


@pytest.mark.parametrize(
    "target", TARGETS, ids=[f"{t.module}:{t.span}" for t in TARGETS]
)
def test_target_resolves(target):
    module = importlib.import_module(target.module)
    owner = getattr(module, target.owner) if target.owner else module
    assert callable(inspect.getattr_static(owner, target.attr))


def durable_seam_calls(tmp_path, mode: str) -> dict:
    """Calls per durable seam over a few hundred traced ops, including
    a batch and a checkpoint, on a durable server in ``mode``."""
    tracer = Tracer()
    tracer.install()
    try:
        srv = PequodServer(
            subtable_config={"t": 2}, data_dir=str(tmp_path / mode), mode=mode
        )
        srv.add_join(TIMELINE)
        tracer.enabled = True
        for i in range(200):
            srv.put(f"s|u{i % 10}|u{i % 7}", "1")
            srv.put(f"p|u{i % 7}|{i:04d}", f"post {i}")
        srv.apply_batch([(f"p|u1|{i:04d}", "batched") for i in range(32)])
        srv.checkpoint()
        srv.settle_cdc()
        srv.scan("t|u1|", "t|u1}")
        tracer.enabled = False
        srv.close()
    finally:
        tracer.uninstall()
    analysis = tracer.analyse()
    return {
        span: analysis.span_calls(span)
        for span in PERSIST_SEAMS + WRITE_AROUND_SEAMS
    }


def test_durable_seams_fire_where_the_ledger_expects(tmp_path):
    through = durable_seam_calls(tmp_path, "write-through")
    around = durable_seam_calls(tmp_path, "write-around")
    for span in PERSIST_SEAMS:
        assert through[span] > 0 and around[span] == 0, span
    for span in WRITE_AROUND_SEAMS:
        assert around[span] > 0 and through[span] == 0, span
