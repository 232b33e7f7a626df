"""Batched pending-log application (the ROADMAP nibble).

Subscribe-heavy mixes log one pending entry per written source key;
application used to re-execute the join once per logged key.  Runs of
contiguous keys now apply as ONE windowed re-execution per run.  These
tests prove the batched path produces byte-identical store state to
the per-key reference path, and that it actually engages.
"""

import pytest

from repro import PequodServer

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)


def _twin_servers():
    """A server, and a reference whose engine refuses every windowed
    run, so each logged key falls back to its own pinned re-execution
    (the per-key path)."""
    batched = PequodServer()
    reference = PequodServer()
    reference.engine._apply_pending_run = lambda sr, entries: False
    for srv in (batched, reference):
        srv.add_join(TIMELINE)
    return batched, reference


def _drive(srv: PequodServer, ops):
    for op in ops:
        if op[0] == "put":
            srv.put(op[1], op[2])
        elif op[0] == "remove":
            srv.remove(op[1])
        else:
            srv.scan_prefix(op[1])


def _state(srv: PequodServer):
    return srv.store.scan("", "\x7f")


def assert_identical(ops):
    batched, reference = _twin_servers()
    _drive(batched, ops)
    _drive(reference, ops)
    assert _state(batched) == _state(reference)
    return batched


def _follow_burst(users, posts_per_user=2, pre_follow=("bob",)):
    """Warm a timeline, then log a burst of follows before reading."""
    ops = []
    for name in pre_follow:
        ops.append(("put", f"s|ann|{name}", "1"))
    for name in list(pre_follow) + list(users):
        for t in range(posts_per_user):
            ops.append(("put", f"p|{name}|{t:04d}", f"{name}-{t}"))
    ops.append(("scan", "t|ann|"))  # materialize: installs lazy check
    for name in users:
        ops.append(("put", f"s|ann|{name}", "1"))  # burst -> pending log
    ops.append(("scan", "t|ann|"))  # application point
    return ops


class TestIdenticalState:
    def test_contiguous_follow_burst(self):
        srv = assert_identical(
            _follow_burst(["carl", "dan", "eve", "frank"])
        )
        stats = srv.stats.snapshot()
        assert stats.get("pending_range_batches", 0) >= 1  # batching engaged
        assert stats.get("pending_applied", 0) >= 4

    def test_burst_interleaved_with_foreign_keys(self):
        """Pre-existing follows interleave with the burst: the span
        test must split or fall back, and state stays identical."""
        ops = _follow_burst(
            ["carl", "eve"], pre_follow=("bob", "dan")
        )  # dan sits between carl and eve in the source table
        assert_identical(ops)

    def test_burst_then_unfollow_invalidates(self):
        """A remove escalates to complete invalidation; the recompute
        path and the batched path agree on the final state."""
        ops = _follow_burst(["carl", "dan", "eve"])
        ops.append(("remove", "s|ann|dan"))
        ops.append(("scan", "t|ann|"))
        assert_identical(ops)

    def test_repeated_writes_compact_then_batch(self):
        ops = _follow_burst(["carl", "dan"])
        # Rewrite the same follows between reads: compaction collapses
        # them before the run is formed.
        ops[-1:-1] = [("put", "s|ann|carl", "1"), ("put", "s|ann|dan", "1")]
        assert_identical(ops)

    def test_multiple_watchers_of_split_ranges(self):
        """Reads that split the status cover leave several ranges each
        holding its own copy of the log; every piece applies correctly."""
        ops = _follow_burst(["carl", "dan", "eve", "frank"])
        ops.append(("scan", "t|ann|0001"))  # partial range read
        ops.append(("scan", "t|ann|"))
        assert_identical(ops)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_burst_sizes(self, n):
        users = [f"u{i:02d}" for i in range(n)]
        srv = assert_identical(_follow_burst(users))
        stats = srv.stats.snapshot()
        assert stats.get("pending_range_batches", 0) >= 1


class TestRunCost:
    def test_one_reexecution_per_run(self):
        """The point of the nibble: N logged follows cost one windowed
        re-execution, not N pinned ones."""
        batched, reference = _twin_servers()
        ops = _follow_burst(["carl", "dan", "eve", "frank", "gail"])
        _drive(batched, ops)
        _drive(reference, ops)
        b = batched.stats.snapshot()
        r = reference.stats.snapshot()
        # Identical logs were applied...
        assert b.get("pending_applied") == r.get("pending_applied") == 5
        # ...but the batched engine set up ONE windowed re-execution
        # for the whole run where the reference pinned and re-executed
        # once per logged key.
        assert b.get("pending_range_batches") == 1
        assert r.get("pending_range_batches", 0) == 0
