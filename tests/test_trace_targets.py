"""Every seam the ledger's tracer wraps by name still exists.

``ledger/trace.py`` patches layer functions by (module, class,
attribute) at run time.  A refactor that renames or deletes one breaks
the traced ledger run, which only CI executes; this test fails the
same refactor here, in tier-1.  It checks that each target resolves,
not that it fires.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from ledger.trace import TARGETS  # noqa: E402


def test_targets_are_listed():
    assert TARGETS


@pytest.mark.parametrize(
    "target", TARGETS, ids=[f"{t.module}:{t.span}" for t in TARGETS]
)
def test_target_resolves(target):
    module = importlib.import_module(target.module)
    owner = getattr(module, target.owner) if target.owner else module
    assert callable(inspect.getattr_static(owner, target.attr))
