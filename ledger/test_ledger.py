"""The ledger's own checks.  Run explicitly (tier-1 collects ``tests/``
only)::

    python -m pytest ledger/test_ledger.py -q

Every workload is driven at 1 % of the issue's op counts (``--seconds
0.2``).  Takes a few minutes: each run still loads the full graph and
reads every timeline back.
"""

import json
import math
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from ledger import harness  # noqa: E402
from ledger.workloads import BY_NAME, WORKLOADS  # noqa: E402

SECONDS = 0.2
NAMES = [w.name for w in WORKLOADS]
#: Runs and verifies, but is not in BENCHMARK.json (README: too noisy).
UNLISTED = "twip_mix_procs2"
SINGLE_PROCESS = [n for n in NAMES if n != UNLISTED]

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _assert_metrics(result, declared):
    assert set(result.metrics) == {m["name"] for m in declared}
    for spec in declared:
        value, unit = result.metrics[spec["name"]]
        assert unit == spec["unit"], spec["name"]
        assert math.isfinite(value), spec["name"]


@pytest.fixture(scope="module")
def first_runs():
    return {
        name: harness.run_end_to_end(BY_NAME[name], 1, SECONDS)
        for name in NAMES
    }


def test_benchmark_json_matches_the_harness():
    assert BENCHMARK["paths"] == ["ledger"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == SINGLE_PROCESS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in BENCHMARK["end_to_end"]
    ] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        harness.PER_LAYER
    )
    assert {
        m["name"] for m in BENCHMARK["per_layer"] if m["better"] == "higher"
    } == harness.HIGHER_IS_BETTER


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_are_all_reported(first_runs, name):
    result = first_runs[name]
    assert result.correct, result.problems
    assert result.failed == 0 and result.attempted > 0
    _assert_metrics(result, BENCHMARK["end_to_end"])
    if not BY_NAME[name].may_be_stale:
        assert result.detail["stale_read_frac"] == 0.0
    last = json.loads(result.last_line())
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]


@pytest.mark.parametrize("name", SINGLE_PROCESS)
def test_same_seed_repeats_exactly(first_runs, name):
    first = first_runs[name]
    again = harness.run_end_to_end(BY_NAME[name], 1, SECONDS)
    for key in ("counters", "stale_read_frac", "state_sha256", "user_bytes"):
        assert again.detail[key] == first.detail[key], key
    assert (
        again.metrics["store_bytes_per_user_byte"]
        == first.metrics["store_bytes_per_user_byte"]
    )


@pytest.mark.parametrize("name", NAMES)
def test_seed_two_runs_clean(first_runs, name):
    result = harness.run_end_to_end(BY_NAME[name], 2, SECONDS)
    assert result.correct, result.problems
    assert result.detail["state_sha256"] != first_runs[name].detail["state_sha256"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(name):
    result = harness.run_traced(BY_NAME[name], 1, SECONDS)
    _assert_metrics(result, BENCHMARK["per_layer"])
    assert result.failed == 0
    # At 1 % scale a rarely-called function may see no call at all; a
    # wrapper firing in a layer that should be idle is still an error.
    assert [p for p in result.problems if "never fired" not in p] == []
    idle = {
        "net.": "net" not in BY_NAME[name].layers,
        "distrib.": "distrib" not in BY_NAME[name].layers,
        "persist.": "persist" not in BY_NAME[name].layers,
        "cdc.": "cdc" not in BY_NAME[name].layers,
        "backing.": "backing" not in BY_NAME[name].layers,
    }
    for prefix, is_idle in idle.items():
        if is_idle:
            for metric, (value, _unit) in result.metrics.items():
                if metric.startswith(prefix):
                    assert value == 0.0, metric
    assert os.path.exists(
        os.path.join(harness.OUT_DIR, f"trace_{name}.json")
    )
