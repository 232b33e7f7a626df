"""Unit tests for join status ranges (paper §3.2)."""

import pytest

from repro.core.operators import ChangeKind
from repro.core.status import (
    Build,
    PendingEntry,
    RangeState,
    StatusRange,
    StatusTable,
)


def _built(sr, lo=None, hi=None):
    """Give ``sr`` one more build, spanning ``[lo, hi)`` (default: ``sr``)."""
    build = Build(lo or sr.lo, hi or sr.hi)
    sr.builds += (build,)
    return build


def _pending(key, join=None):
    return PendingEntry(join, 0, key, ChangeKind.INSERT)


class TestStatusRange:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            StatusRange("b", "a")
        with pytest.raises(ValueError):
            StatusRange("a", "a")

    def test_validity_with_expiry(self):
        sr = StatusRange("a", "b")
        assert sr.is_valid_at(100.0)
        sr.expires_at = 50.0
        assert sr.is_valid_at(49.9)
        assert not sr.is_valid_at(50.0)

    def test_invalidate_clears_bookkeeping(self):
        sr = StatusRange("a", "b")
        sr.log_pending(_pending("s|ann|bob"))
        sr.expires_at = 10.0
        sr.invalidate()
        assert sr.state is RangeState.INVALID
        assert sr.pending == {}
        assert sr.expires_at is None

    def test_needs_work(self):
        sr = StatusRange("a", "b")
        assert not sr.needs_work(0.0)
        sr.log_pending(_pending("s|ann|bob"))
        assert sr.needs_work(0.0)


class TestPieces:
    def test_empty_table_is_one_gap(self):
        st = StatusTable()
        assert st.pieces("a", "z") == [("a", "z", None)]

    def test_exact_cover(self):
        st = StatusTable()
        sr = st.add(StatusRange("c", "f"))
        assert st.pieces("c", "f") == [("c", "f", sr)]

    def test_gap_range_gap(self):
        st = StatusTable()
        sr = st.add(StatusRange("c", "f"))
        pieces = st.pieces("a", "z")
        assert pieces == [("a", "c", None), ("c", "f", sr), ("f", "z", None)]

    def test_query_clipped_to_range_interior(self):
        st = StatusTable()
        sr = st.add(StatusRange("c", "f"))
        assert st.pieces("d", "e") == [("d", "e", sr)]

    def test_adjacent_ranges(self):
        st = StatusTable()
        a = st.add(StatusRange("a", "c"))
        b = st.add(StatusRange("c", "e"))
        assert st.pieces("a", "e") == [("a", "c", a), ("c", "e", b)]

    def test_empty_query(self):
        st = StatusTable()
        assert st.pieces("c", "c") == []
        assert st.pieces("d", "c") == []

    def test_find(self):
        st = StatusTable()
        sr = st.add(StatusRange("c", "f"))
        assert st.find("c") is sr
        assert st.find("e") is sr
        assert st.find("f") is None
        assert st.find("b") is None

    def test_overlap_rejected_on_add(self):
        st = StatusTable()
        st.add(StatusRange("c", "f"))
        with pytest.raises(ValueError):
            st.add(StatusRange("e", "g"))

    def test_overlapping_query(self):
        st = StatusTable()
        a = st.add(StatusRange("a", "c"))
        b = st.add(StatusRange("x", "z"))
        assert st.overlapping("b", "y") == [a, b]
        assert st.overlapping("c", "x") == []


class TestSplitAndIsolate:
    def test_split_preserves_cover(self):
        st = StatusTable()
        sr = st.add(StatusRange("a", "z"))
        right = st.split(sr, "m")
        assert (sr.lo, sr.hi) == ("a", "m")
        assert (right.lo, right.hi) == ("m", "z")
        st.check_disjoint_cover()

    def test_split_copies_state_and_pending(self):
        st = StatusTable()
        sr = st.add(StatusRange("a", "z", RangeState.INVALID))
        entry = _pending("s|ann|bob")
        sr.log_pending(entry)
        build = _built(sr)
        sr.expires_at = 42.0
        right = st.split(sr, "m")
        assert right.state is RangeState.INVALID
        assert list(right.pending) == [entry]
        assert right.expires_at == 42.0
        # Both halves hold the build, and so own its updaters.
        assert sr.builds == right.builds == (build,)
        assert build.holders == 2
        # The pending logs are independent afterwards.
        right.pending.clear()
        assert list(sr.pending) == [entry]
        sr.log_pending(_pending("s|ann|liz"))
        assert right.pending == {}

    def test_split_point_must_be_interior(self):
        st = StatusTable()
        sr = st.add(StatusRange("a", "z"))
        with pytest.raises(ValueError):
            st.split(sr, "a")
        with pytest.raises(ValueError):
            st.split(sr, "z")

    def test_isolate_middle(self):
        st = StatusTable()
        st.add(StatusRange("a", "z"))
        parts = st.isolate("f", "m")
        assert len(parts) == 1
        assert (parts[0].lo, parts[0].hi) == ("f", "m")
        assert [((s.lo, s.hi)) for s in st.ranges()] == [
            ("a", "f"), ("f", "m"), ("m", "z"),
        ]
        st.check_disjoint_cover()

    def test_isolate_across_multiple_ranges(self):
        st = StatusTable()
        st.add(StatusRange("a", "f"))
        st.add(StatusRange("f", "m"))
        parts = st.isolate("c", "h")
        assert [(p.lo, p.hi) for p in parts] == [("c", "f"), ("f", "h")]
        st.check_disjoint_cover()

    def test_isolate_exact_fit_no_split(self):
        st = StatusTable()
        sr = st.add(StatusRange("c", "f"))
        parts = st.isolate("c", "f")
        assert parts == [sr]
        assert len(st.ranges()) == 1

    def test_remove(self):
        st = StatusTable()
        sr = st.add(StatusRange("a", "c"))
        st.remove(sr)
        assert st.pieces("a", "c") == [("a", "c", None)]


def _cover(st):
    return [(sr.lo, sr.hi) for sr in st.ranges()]


class TestMergeOver:
    """``merge_over`` is the inverse of ``split``: it folds adjacent,
    indistinguishable ranges back together and refuses everything
    else."""

    def two(self):
        st = StatusTable()
        left = st.add(StatusRange("a", "m"))
        right = st.add(StatusRange("m", "z"))
        return st, left, right

    def test_undoes_a_split(self):
        st = StatusTable()
        sr = st.add(StatusRange("a", "z"))
        right = st.split(sr, "m")
        assert st.merge_over("a", "z") == [(sr, right)]
        assert _cover(st) == [("a", "z")]
        assert sr.attached
        assert not right.attached
        assert st.merges == 1
        assert st.find("q") is sr
        st.check_disjoint_cover()

    def test_folds_a_whole_run_into_its_leftmost_range(self):
        st = StatusTable()
        parts = [st.add(StatusRange(lo, hi)) for lo, hi in ("ac", "cf", "fk", "kz")]
        merged = st.merge_over("b", "y")
        assert [absorbed for _, absorbed in merged] == parts[1:]
        assert all(survivor is parts[0] for survivor, _ in merged)
        assert _cover(st) == [("a", "z")]
        st.check_disjoint_cover()

    def test_only_ranges_overlapping_the_request(self):
        st = StatusTable()
        for lo, hi in ("ac", "cf", "fk", "kz"):
            st.add(StatusRange(lo, hi))
        st.merge_over("d", "g")  # touches [c,f) and [f,k) only
        assert _cover(st) == [("a", "c"), ("c", "k"), ("k", "z")]
        assert st.merge_over("c", "f") == []  # one range: nothing to do
        assert st.merge_over("c", "k") == []  # hi is exclusive

    def test_refuses_a_gap(self):
        st = StatusTable()
        st.add(StatusRange("a", "f"))
        st.add(StatusRange("g", "z"))
        assert st.merge_over("a", "z") == []
        assert _cover(st) == [("a", "f"), ("g", "z")]

    def test_refuses_invalid(self):
        for which in (0, 1):
            st, left, right = self.two()
            (left, right)[which].invalidate()
            assert st.merge_over("a", "z") == []
            assert len(st) == 2

    def test_merges_pieces_of_different_builds(self):
        """Pieces built apart hold different builds; the survivor holds
        them all, and a build both held counts its holder once."""
        st, left, right = self.two()
        mine, theirs = _built(left), _built(right)
        shared = _built(left, "c", "q")
        right.builds += (shared,)
        shared.holders = 2
        assert st.merge_over("a", "z") == [(left, right)]
        assert left.builds == (mine, shared, theirs)
        assert right.builds == ()
        assert [b.holders for b in left.builds] == [1, 1, 1]

    def test_refuses_a_build_reaching_over_the_other(self):
        """A build only one piece holds may span the other's keys — the
        other was rebuilt on its own — and merging would hand its
        updaters those keys too."""
        for which in (0, 1):
            st, left, right = self.two()
            _built(left), _built(right)
            _built((left, right)[which], "a", "z")
            assert st.merge_over("a", "z") == []
            assert len(st) == 2

    def test_refuses_expiry_mismatch(self):
        st, left, right = self.two()
        left.expires_at = 10.0
        assert st.merge_over("a", "z") == []  # snapshot vs. none
        right.expires_at = 11.0
        assert st.merge_over("a", "z") == []  # two snapshot builds
        right.expires_at = 10.0
        assert len(st.merge_over("a", "z")) == 1
        assert st.ranges()[0].expires_at == 10.0

    def test_a_refusal_splits_the_run_not_the_merge(self):
        st = StatusTable()
        parts = [st.add(StatusRange(lo, hi)) for lo, hi in ("ac", "cf", "fk", "kz")]
        parts[2].expires_at = 3.0
        parts[3].expires_at = 3.0
        st.merge_over("a", "z")
        assert _cover(st) == [("a", "f"), ("f", "z")]
        assert [sr.expires_at for sr in st.ranges()] == [None, 3.0]
        st.check_disjoint_cover()

    def test_logs_are_united_first_position_kept(self):
        st = StatusTable()
        sr = st.add(StatusRange("a", "z"))
        sr.log_pending(_pending("s|ann|bob"))
        right = st.split(sr, "m")  # both halves hold bob
        right.pending.clear()  # the right half applied it...
        right.log_pending(_pending("s|ann|liz"))  # ...then both saw liz
        right.log_pending(_pending("s|ann|bob"))  # ...and bob again
        sr.log_pending(_pending("s|ann|liz"))
        st.merge_over("a", "z")
        assert [e.key for e in sr.pending] == ["s|ann|bob", "s|ann|liz"]
        assert right.pending == {}
        # The united log is still a set.
        assert not sr.log_pending(_pending("s|ann|liz"))
        assert sr.log_pending(_pending("s|ann|zed"))
        assert [e.key for e in sr.pending] == [
            "s|ann|bob", "s|ann|liz", "s|ann|zed",
        ]
        st.check_disjoint_cover()

    def test_pending_only_on_the_absorbed_side(self):
        st, left, right = self.two()
        right.log_pending(_pending("s|ann|bob"))
        st.merge_over("a", "z")
        assert [e.key for e in left.pending] == ["s|ann|bob"]
        assert left.needs_work(0.0)

    def test_never_younger_than_its_oldest_part(self):
        st, left, right = self.two()
        left.validated_at, right.validated_at = 7.0, 3.0
        st.merge_over("a", "z")
        assert left.validated_at == 3.0
        st, left, right = self.two()
        left.validated_at, right.validated_at = 7.0, None
        st.merge_over("a", "z")
        assert left.validated_at is None
        st, left, right = self.two()
        left.validated_at, right.validated_at = None, 7.0
        st.merge_over("a", "z")
        assert left.validated_at is None

    def test_all_valid_over_reads_the_cover_each_call(self):
        st, left, right = self.two()
        assert st.all_valid_over("a", "z")
        left.log_pending(_pending("s|ann|bob"))
        assert not st.all_valid_over("a", "z")
        assert st.all_valid_over("m", "z")
        left.pending.clear()  # drained behind the table's back
        assert st.all_valid_over("a", "z")  # nothing cached
        right.expires_at = 5.0
        assert not st.all_valid_over("a", "z")
        right.expires_at = None
        right.invalidate()
        assert not st.all_valid_over("a", "z")
        assert not st.all_valid_over("0", "m")  # a gap below "a"
