"""The heap a cached Twip timeline costs stays near what the cache
charges for it.

Eviction is enforced on the charged bytes (``memory_bytes``), so the
heap behind each charged byte is what a memory limit really buys.  A
row is a key in one list and its value in another (no node object); an
updater is one object with its context as two tuples (no dict, no
frozenset key).  ``scripts/heap_probe.py`` measures the same at 2,000
users; this runs its :func:`measure` on a small load of the same shape
(20 follows, 10 posts per user) against the same ceiling.
"""

import importlib.util
import os

import pytest

PROBE = os.path.join(os.path.dirname(__file__), "..", "scripts", "heap_probe.py")


@pytest.fixture(scope="module")
def heap_probe():
    spec = importlib.util.spec_from_file_location("heap_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reads_allocate_at_most_the_ceiling_per_charged_byte(heap_probe):
    figures = heap_probe.measure(users=30, gc_pass=False)
    assert figures["rows"] == 30 * heap_probe.FOLLOWS * heap_probe.POSTS
    assert figures["heap_per_charged"] <= heap_probe.CEILING, figures
