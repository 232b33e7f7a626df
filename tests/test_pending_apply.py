"""Pending-log application (§3.2).

A lazy check source logs one pending entry per written key (a burst
of follows), and the next read over the range applies the log: each
surviving entry re-executes the join with its key pinned.  These tests
hold every scenario to the paper's invariant — a range brought up to
date incrementally equals the same range computed from scratch — by
driving a reference server with the same writes but no read until the
end, so every range it serves is a first-touch compute.
"""

import pytest

from repro import PequodServer

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)


def _server() -> PequodServer:
    srv = PequodServer()
    srv.add_join(TIMELINE)
    return srv


def _drive(srv: PequodServer, ops, reads=True):
    for op in ops:
        if op[0] == "put":
            srv.put(op[1], op[2])
        elif op[0] == "remove":
            srv.remove(op[1])
        elif reads:
            srv.scan_prefix(op[1])


def _state(srv: PequodServer):
    return srv.store.scan("", "\x7f")


def assert_identical(ops):
    """Drive ``ops`` on a server, and their writes on a reference that
    then reads each scanned prefix once; both stores must agree."""
    srv, reference = _server(), _server()
    _drive(srv, ops)
    _drive(reference, ops, reads=False)
    for prefix in dict.fromkeys(op[1] for op in ops if op[0] == "scan"):
        assert srv.scan_prefix(prefix) == reference.scan_prefix(prefix)
    assert _state(srv) == _state(reference)
    return srv


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
        # One application per logged key.
        assert srv.stats.get("pending_applied") == 4

    def test_burst_interleaved_with_foreign_keys(self):
        """Pre-existing follows interleave with the burst in the source
        table; state stays identical."""
        ops = _follow_burst(
            ["carl", "eve"], pre_follow=("bob", "dan")
        )  # dan sits between carl and eve in the source table
        assert_identical(ops)

    def test_burst_then_unfollow_invalidates(self):
        """A remove escalates to complete invalidation; the recompute
        agrees with the from-scratch compute."""
        ops = _follow_burst(["carl", "dan", "eve"])
        ops.append(("remove", "s|ann|dan"))
        ops.append(("scan", "t|ann|"))
        assert_identical(ops)

    def test_repeated_writes_compact_then_batch(self):
        ops = _follow_burst(["carl", "dan"])
        # Rewrite the same follows before the read: a check key's
        # update logs nothing, so the log keeps one entry per key.
        ops[-1:-1] = [("put", "s|ann|carl", "1"), ("put", "s|ann|dan", "1")]
        srv = assert_identical(ops)
        assert srv.stats.get("pending_applied") == 2

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
        assert srv.stats.get("pending_applied") == n
