"""Property-based tests (hypothesis) for core data structures and the
join engine's central invariant.

The headline property: after ANY sequence of base-data writes, removes,
and interleaved reads, a cache join's output equals the brute-force
relational join of the current base data — incremental maintenance is
indistinguishable from recomputation (§3.2's correctness contract).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PequodServer
from repro.core.pattern import Pattern
from repro.net.codec import decode, encode
from repro.store.range_index import RangeIndex
from repro.store.table import Table

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
users =st.sampled_from(["ann", "bob", "liz", "jim", "kay"])
times = st.integers(min_value=0, max_value=30).map(lambda t: f"{t:04d}")


#: Interval bounds and stab points over nested groups: the residual
#: group (``""``, ``a``, ``z``), tables (``p|`` .. ``p}``), users
#: (``p|u1|`` .. ``p|u1}``, and ``p|u10|`` beside ``p|u1|``), and keys.
index_bounds = ["", "a", "z", "p|", "p}", "q|", "q}"] + [
    bound
    for user in ("u0", "u1", "u10")
    for bound in (
        f"p|{user}|", f"p|{user}}}", f"p|{user}|1", f"p|{user}|2", f"q|{user}|1",
    )
]
bound_pairs = st.tuples(
    st.sampled_from(index_bounds), st.sampled_from(index_bounds)
).map(sorted)


class TestIntervalTreeProperties:
    """The range index against brute force, through ``add``,
    ``entry`` and ``discard``."""

    @given(st.lists(st.tuples(bound_pairs, st.integers(0, 99)), max_size=50),
           st.sampled_from(index_bounds))
    def test_stab_matches_bruteforce(self, intervals, point):
        index = RangeIndex()
        live = []
        for (lo, hi), payload in intervals:
            if lo < hi:
                index.add(lo, hi, payload)
                live.append((lo, hi, payload))
        expected = sorted(p for lo, hi, p in live if lo <= point < hi)
        got = sorted(p for e in index.stab(point) for p in e.payloads)
        assert got == expected
        index.check_invariants()

    @given(
        st.lists(
            st.tuples(st.booleans(), bound_pairs, st.integers(0, 3)),
            max_size=80,
        )
    )
    def test_add_and_discard_match_a_dict_model(self, ops):
        """``entry`` finds or creates; whatever the interleaving, every
        interval holds exactly the payloads added and not discarded,
        in order."""
        index = RangeIndex()
        model = {}
        for is_add, (lo, hi), payload in ops:
            if not lo < hi:
                continue
            if is_add:
                entry, created = index.entry(lo, hi)
                assert created == ((lo, hi) not in model)
                entry.payloads.append(payload)
                model.setdefault((lo, hi), []).append(payload)
            else:
                payloads = model.get((lo, hi), [])
                assert index.discard(lo, hi, payload) == (payload in payloads)
                if payload in payloads:
                    payloads.remove(payload)
                    if not payloads:
                        del model[(lo, hi)]
            index.check_invariants()
        assert [
            ((e.lo, e.hi), e.payloads) for e in index.entries()
        ] == sorted(model.items())


class TestRangeIndexModel:
    """Random ``add``/``entry``/``discard``/``remove_payload`` sequences
    against a list of intervals, with every ``stab`` and
    ``overlapping`` answer — entries, payloads and ``(lo, hi)`` order
    across groups — checked op by op."""

    ops = st.lists(
        st.tuples(
            st.sampled_from(
                ["add", "entry", "remove", "discard_missing", "stab", "overlapping"]
            ),
            bound_pairs,
            st.integers(0, 30),
        ),
        min_size=1,
        max_size=60,
    )

    @settings(max_examples=150, deadline=None)
    @given(ops)
    def test_random_ops_match_an_interval_list(self, sequence):
        index = RangeIndex()
        model = []  # [lo, hi, payload, keyed] in insertion order
        for step, (op, (lo, hi), pick) in enumerate(sequence):
            if op in ("add", "entry") and lo < hi:
                if op == "add":
                    index.add(lo, hi, step)
                else:
                    entry, created = index.entry(lo, hi)
                    assert created == all((m[0], m[1]) != (lo, hi) for m in model)
                    entry.payloads.append(step)
                    entry.payload_index[step] = step
                model.append((lo, hi, step, op == "entry"))
            elif op == "remove" and model:
                vlo, vhi, payload, keyed = model.pop(pick % len(model))
                if keyed:
                    index.remove_payload(index.find_entry(vlo, vhi), payload)
                else:
                    assert index.discard(vlo, vhi, payload)
            elif op == "discard_missing":
                assert not index.discard(lo, hi, -1)
            elif op == "stab":
                assert self.answer(index.stab(lo)) == self.expect(
                    model, lambda ilo, ihi: ilo <= lo < ihi
                )
            elif op == "overlapping":
                assert self.answer(index.overlapping(lo, hi)) == self.expect(
                    model, lambda ilo, ihi: lo < hi and ilo < hi and lo < ihi
                )
            index.check_invariants()
            assert self.answer(index.entries()) == self.expect(
                model, lambda ilo, ihi: True
            )
            # Emptied groups are pruned; each interval sits in the
            # longest prefix group whose key range holds it.
            assert set(index._groups) == {
                self.group(ilo, ihi) for ilo, ihi, _, _ in model
            }
        for point in index_bounds:
            assert self.answer(index.stab(point)) == self.expect(
                model, lambda ilo, ihi: ilo <= point < ihi
            )

    @staticmethod
    def answer(entries):
        return [(e.lo, e.hi, list(e.payloads)) for e in entries]

    @staticmethod
    def expect(model, keep):
        out = {}
        for lo, hi, payload, _ in model:
            if keep(lo, hi):
                out.setdefault((lo, hi), []).append(payload)
        return [(lo, hi, payloads) for (lo, hi), payloads in sorted(out.items())]

    @staticmethod
    def group(lo, hi):
        """The longest ``|``-terminated prefix of ``lo`` that every key
        in ``[lo, hi)`` shares, or the residual group."""
        fits = [
            lo[: i + 1] for i, c in enumerate(lo) if c == "|" and hi <= lo[:i] + "}"
        ]
        return max(fits, key=len, default="")


class TestTableProperties:
    @given(st.lists(st.tuples(st.booleans(), users, times), max_size=80))
    def test_subtable_table_equals_flat_table(self, ops):
        flat = Table("t")
        sub = Table("t", subtable_depth=2)
        model = {}
        for is_put, user, time in ops:
            key = f"t|{user}|{time}"
            if is_put:
                flat.put(key, time)
                sub.put(key, time)
                model[key] = time
            else:
                flat.remove(key)
                sub.remove(key)
                model.pop(key, None)
        assert list(flat.scan("t|", "t}")) == sorted(model.items())
        assert list(sub.scan("t|", "t}")) == sorted(model.items())


class TestPatternProperties:
    @given(users, times, users)
    def test_match_expand_roundtrip(self, user, time, poster):
        pattern = Pattern("t|<user>|<time>|<poster>")
        key = f"t|{user}|{time}|{poster}"
        slots = pattern.match(key)
        assert slots is not None
        assert pattern.expand(slots) == key


class TestCodecProperties:
    values = st.recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=False)
        | st.text(max_size=20)
        | st.binary(max_size=20),
        lambda children: st.lists(children, max_size=5)
        | st.dictionaries(st.text(max_size=8), children, max_size=5),
        max_leaves=20,
    )

    @given(values)
    def test_roundtrip(self, value):
        def normalize(v):
            if isinstance(v, tuple):
                return [normalize(x) for x in v]
            if isinstance(v, list):
                return [normalize(x) for x in v]
            if isinstance(v, dict):
                return {k: normalize(x) for k, x in v.items()}
            return v

        assert decode(encode(value)) == normalize(value)


# ----------------------------------------------------------------------
# The engine's central invariant
# ----------------------------------------------------------------------
def brute_force_timeline(subs, posts, user):
    """The relational answer: SELECT time, poster, text ... (§2.1)."""
    out = []
    for (s_user, poster) in subs:
        if s_user != user:
            continue
        for (p_poster, time), text in posts.items():
            if p_poster == poster:
                out.append((f"t|{user}|{time}|{poster}", text))
    return sorted(out)


engine_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sub"), users, users),
        st.tuples(st.just("unsub"), users, users),
        st.tuples(st.just("post"), users, times),
        st.tuples(st.just("unpost"), users, times),
        st.tuples(st.just("read"), users, users),
    ),
    min_size=1,
    max_size=60,
)


class TestJoinEngineOracle:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(engine_ops, st.booleans())
    def test_timeline_matches_bruteforce_oracle(self, ops, eager_checks):
        op_name = "echeck" if eager_checks else "check"
        srv = PequodServer()
        srv.add_join(
            f"t|<user>|<time>|<poster> = {op_name} s|<user>|<poster> "
            "copy p|<poster>|<time>"
        )
        subs = set()
        posts = {}
        for op in ops:
            kind = op[0]
            if kind == "sub":
                _, user, poster = op
                srv.put(f"s|{user}|{poster}", "1")
                subs.add((user, poster))
            elif kind == "unsub":
                _, user, poster = op
                srv.remove(f"s|{user}|{poster}")
                subs.discard((user, poster))
            elif kind == "post":
                _, poster, time = op
                text = f"tweet-{poster}-{time}"
                srv.put(f"p|{poster}|{time}", text)
                posts[(poster, time)] = text
            elif kind == "unpost":
                _, poster, time = op
                srv.remove(f"p|{poster}|{time}")
                posts.pop((poster, time), None)
            else:  # read mid-stream: materializes ranges, applies pending
                _, user, _ = op
                srv.scan(f"t|{user}|", f"t|{user}}}")
        # Final check: every user's timeline equals the relational join.
        for user in ["ann", "bob", "liz", "jim", "kay"]:
            got = srv.scan(f"t|{user}|", f"t|{user}}}")
            expected = brute_force_timeline(subs, posts, user)
            assert got == expected, f"user {user}"

    @settings(max_examples=30, deadline=None)
    @given(engine_ops)
    def test_aggregate_matches_bruteforce_oracle(self, ops):
        srv = PequodServer()
        srv.add_join("karma|<poster> = count s|<user>|<poster>")
        subs = set()
        for op in ops:
            kind = op[0]
            if kind in ("sub", "unsub"):
                _, user, poster = op
                if kind == "sub":
                    srv.put(f"s|{user}|{poster}", "1")
                    subs.add((user, poster))
                else:
                    srv.remove(f"s|{user}|{poster}")
                    subs.discard((user, poster))
            elif kind == "read":
                _, user, _ = op
                srv.get(f"karma|{user}")
        for poster in ["ann", "bob", "liz", "jim", "kay"]:
            expected = sum(1 for _, p in subs if p == poster)
            got = srv.get(f"karma|{poster}")
            assert got == (str(expected) if expected else None), poster


# ----------------------------------------------------------------------
# Status ranges that split and merge under any interleaving
# ----------------------------------------------------------------------
# Few readers and a short clock: the sequences that matter (cut, cut
# again, invalidate one piece, rebuild, merge, then write) are a dozen
# specific ops long, and a wide alphabet never strings them together.
readers = st.sampled_from(["ann", "bob"])
ticks = st.integers(min_value=0, max_value=9).map(lambda t: f"{t:04d}")

merge_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sub"), readers, users),
        st.tuples(st.just("sub"), readers, users),  # twice as likely as unsub
        st.tuples(st.just("unsub"), readers, users),
        st.tuples(st.just("post"), users, ticks),
        st.tuples(st.just("post"), users, ticks),
        st.tuples(st.just("unpost"), users, ticks),
        st.tuples(st.just("check"), readers, ticks),
        st.tuples(st.just("check"), readers, ticks),
        st.tuples(st.just("login"), readers, st.just("0000")),
        st.tuples(st.just("evict"), readers, st.just("")),
        st.tuples(st.just("tick"), st.just(""), st.just("")),
    ),
    # Short lists rarely string an unsubscribe, an eviction of that
    # reader's timeline, a read and a post together.
    min_size=10,
    max_size=70,
)


def _without(*kinds):
    return merge_ops.map(lambda ops: [op for op in ops if op[0] not in kinds])


#: Sequences that never retire a range: no removes, no evictions.
growing_ops = _without("unsub", "unpost", "evict")


class _TwipModel:
    """Base data plus the naive answer to a timeline read."""

    def __init__(self):
        self.subs = set()
        self.posts = {}

    def write(self, srv, op):
        kind, a, b = op
        if kind == "sub":
            srv.put(f"s|{a}|{b}", "1")
            self.subs.add((a, b))
        elif kind == "unsub":
            srv.remove(f"s|{a}|{b}")
            self.subs.discard((a, b))
        elif kind == "post":
            srv.put(f"p|{a}|{b}", f"tweet-{a}-{b}")
            self.posts[(a, b)] = f"tweet-{a}-{b}"
        elif kind == "unpost":
            srv.remove(f"p|{a}|{b}")
            self.posts.pop((a, b), None)
        else:
            return False
        return True

    def timeline(self, user, lo, hi):
        rows = brute_force_timeline(self.subs, self.posts, user)
        return [(k, v) for k, v in rows if lo <= k < hi]


def _evict(srv, prefix):
    """Evict the coldest range after making the ranges under ``prefix``
    (one reader's output) the coldest, so the stream reads them again."""
    lru = srv.engine.lru
    for entry in list(lru):
        if not entry.payload[1].lo.startswith(prefix):
            lru.touch(entry)
    srv.eviction.evict_one()


def _span(kind, user, tick):
    """The key range of a login (whole timeline) or a check (its tail)."""
    return f"t|{user}|{tick if kind == 'check' else '0000'}", f"t|{user}}}"


def _uncovered(spans, lo, hi):
    """The parts of ``[lo, hi)`` no span in ``spans`` covers."""
    gaps = []
    cursor = lo
    for s_lo, s_hi in sorted(spans):
        if s_hi <= cursor:
            continue
        if hi <= s_lo:
            break
        if cursor < s_lo:
            gaps.append((cursor, s_lo))
        cursor = s_hi
    if cursor < hi:
        gaps.append((cursor, hi))
    return gaps


class TestStatusMergeProperties:
    @settings(
        max_examples=80, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(merge_ops)
    def test_twip_reads_equal_a_naive_recompute(self, ops):
        srv = PequodServer()
        srv.add_join(
            "t|<user>|<time>|<poster> = check s|<user>|<poster> "
            "copy p|<poster>|<time>"
        )
        model = _TwipModel()
        for op in ops:
            kind, user, tick = op
            if model.write(srv, op) or kind == "tick":
                continue
            if kind == "evict":
                _evict(srv, f"t|{user}|")
                continue
            lo, hi = _span(kind, user, tick)
            assert srv.scan(lo, hi) == model.timeline(user, lo, hi), op
            srv.engine.status["t"].check_disjoint_cover()
        for user in ["ann", "bob", "liz", "jim", "kay"]:
            lo, hi = _span("login", user, "")
            assert srv.scan(lo, hi) == model.timeline(user, lo, hi), user

    @settings(
        max_examples=80, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(growing_ops)
    def test_a_login_leaves_one_status_range(self, ops):
        """Without removes or evictions every piece stays VALID, so a
        login over computed key space always folds the user's timeline
        into one range: the table's size is bounded by the
        subscribes since each user's last login, not by the length of
        the run.  (The merge runs before the walk, so a tile the login
        itself computes — a first login after a check — joins its
        neighbour on the next one.)"""
        srv = PequodServer()
        srv.add_join(
            "t|<user>|<time>|<poster> = check s|<user>|<poster> "
            "copy p|<poster>|<time>"
        )
        model = _TwipModel()
        stable = srv.engine.status["t"]
        logged_in = set()
        for op in ops:
            kind, user, tick = op
            if model.write(srv, op) or kind == "tick":
                continue
            lo, hi = _span(kind, user, tick)
            assert srv.scan(lo, hi) == model.timeline(user, lo, hi), op
            stable.check_disjoint_cover()
            if kind != "login":
                continue
            if user in logged_in:
                assert [(sr.lo, sr.hi) for sr in stable.ranges() if lo <= sr.lo < hi] == [
                    (lo, hi)
                ]
            logged_in.add(user)
        # Both readers now log in twice: one range each, whatever came before.
        for _ in range(2):
            for user in ["ann", "bob"]:
                srv.scan(*_span("login", user, ""))
        assert len(stable) == 2

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(merge_ops)
    def test_snapshot_reads_equal_the_snapshot_model(self, ops):
        """A snapshot join is unmaintained: each computed piece shows
        base data as of its computation until its interval is over.
        The model keeps which spans are computed, when they expire and
        the rows they held; ``tick`` is half an interval, so pieces of
        one timeline age out at different times."""
        from repro.core.clock import SimClock

        clock = SimClock()
        srv = PequodServer(clock=clock)
        srv.add_join(
            "t|<user>|<time>|<poster> = snapshot 30 "
            "check s|<user>|<poster> copy p|<poster>|<time>"
        )
        model = _TwipModel()
        stable = srv.engine.status["t"]
        spans = {}  # computed (lo, hi), disjoint -> expiry
        rows = {}   # their contents as of computation

        def forget(lo, hi):
            for s_lo, s_hi in list(spans):
                if s_hi <= lo or hi <= s_lo:
                    continue
                expires = spans.pop((s_lo, s_hi))
                if s_lo < lo:
                    spans[(s_lo, lo)] = expires
                if hi < s_hi:
                    spans[(hi, s_hi)] = expires
            for key in [k for k in rows if lo <= k < hi]:
                del rows[key]

        for op in ops:
            kind, user, tick = op
            if model.write(srv, op):
                continue
            if kind == "tick":
                clock.advance(15.0)
                continue
            if kind == "evict":
                before = {(sr.lo, sr.hi) for sr in stable.ranges()}
                _evict(srv, f"t|{user}|")
                for lo, hi in before - {(sr.lo, sr.hi) for sr in stable.ranges()}:
                    forget(lo, hi)
                continue
            lo, hi = _span(kind, user, tick)
            for span, expires in list(spans.items()):
                if expires <= clock.now() and span[0] < hi and lo < span[1]:
                    # The engine rebuilds only the part that was read.
                    forget(max(span[0], lo), min(span[1], hi))
            for gap in _uncovered(spans, lo, hi):
                spans[gap] = clock.now() + 30.0
                rows.update(model.timeline(user, *gap))
            want = sorted((k, v) for k, v in rows.items() if lo <= k < hi)
            assert srv.scan(lo, hi) == want, op
            stable.check_disjoint_cover()

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(merge_ops)
    def test_aggregate_reads_equal_a_naive_recompute(self, ops):
        """``n|user|poster`` counts the posts of each poster a user
        follows; a check reads the tail of the user's posters."""
        srv = PequodServer()
        srv.add_join(
            "n|<user>|<poster> = check s|<user>|<poster> count p|<poster>|<time>"
        )
        model = _TwipModel()

        def counts(user, lo, hi):
            out = []
            for s_user, poster in sorted(model.subs):
                n = sum(1 for p, _ in model.posts if p == poster)
                key = f"n|{user}|{poster}"
                if s_user == user and n and lo <= key < hi:
                    out.append((key, str(n)))
            return out

        posters = ["ann", "jim", "liz", "zed"]
        for op in ops:
            kind, user, tick = op
            if model.write(srv, op) or kind == "tick":
                continue
            if kind == "evict":
                _evict(srv, f"n|{user}|")
                continue
            lo = f"n|{user}|" + (posters[int(tick) % 4] if kind == "check" else "")
            hi = f"n|{user}}}"
            assert srv.scan(lo, hi) == counts(user, lo, hi), op
            srv.engine.status["n"].check_disjoint_cover()
        for user in ["ann", "bob", "liz", "jim", "kay"]:
            assert srv.scan(f"n|{user}|", f"n|{user}}}") == counts(
                user, f"n|{user}|", f"n|{user}}}"
            )


# ----------------------------------------------------------------------
# Compiled compute is the interpreted walk, installed as one run
# ----------------------------------------------------------------------
#: Join shapes for the compute parity property (``{op}`` is the value
#: operator): two and three sources, the value source last and first,
#: fixed widths, a declared output width the source does not declare (a
#: short time must raise), a slot repeated inside one source, and an
#: output that drops a source slot — an aggregate's group key, and for
#: ``copy`` an ambiguous join where the last emission of a key wins.
COMPUTE_SHAPES = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> {op} p|<poster>|<time>",
    "t|<user:3>|<time:4>|<poster:3> = check s|<user:3>|<poster:3> "
    "{op} p|<poster:3>|<time:4>",
    "t|<user>|<time:4>|<poster> = check s|<user>|<poster> {op} p|<poster>|<time>",
    "t|<user>|<time>|<poster> = check s|<user>|<poster> check a|<poster> "
    "{op} p|<poster>|<time>",
    "t|<user>|<poster>|<time> = check s|<user>|<poster> "
    "check s|<poster>|<poster> {op} p|<poster>|<time>",
    "t|<user>|<time>|<poster> = {op} p|<poster>|<time> check s|<user>|<poster>",
    "t|<user>|<poster> = check s|<user>|<poster> {op} p|<poster>|<time>",
)
names3 = st.sampled_from(["ann", "bob", "cat"])
# Mostly four digits; "02" breaks the declared width of shape three.
compute_ticks = st.one_of(
    st.integers(min_value=1, max_value=9).map(lambda t: f"{t:04d}"),
    st.just("02"),
)
compute_values = st.sampled_from(["1", "7", "12", "x", "yy"])
compute_data = st.tuples(
    st.sets(st.tuples(names3, names3), max_size=8),
    st.dictionaries(st.tuples(names3, compute_ticks), compute_values, max_size=10),
    st.sets(names3, max_size=3),
)
compute_read = st.tuples(
    st.just("read"),
    st.sampled_from(["login", "check", "below", "cross", "get"]),
    names3,
    compute_ticks,
)
compute_steps = st.lists(
    st.one_of(
        compute_read,
        st.tuples(st.just("sub"), names3, names3, st.just("")),
        st.tuples(st.just("unsub"), names3, names3, st.just("")),
        st.tuples(st.just("post"), names3, compute_ticks, st.just("5")),
        st.tuples(st.just("evict"), st.just(""), st.just(""), st.just("")),
    ),
    max_size=12,
)


def _interpreted_compute(engine, join, lo, hi, sr, run):
    """How a compute ran before compiled plans — the interpreted
    ``_exec_source`` walk, every output put the moment it is emitted.
    An aggregate's emissions are folded into accumulators here instead,
    installed in key order after the walk.  The parity oracle; patched
    over ``JoinEngine._compute_join`` (materialized joins only)."""
    from repro.core.operators import AggValue
    from repro.core.ranges import SlotConstraints
    from repro.store.values import materialize

    cs = SlotConstraints.for_output_range(join.output, lo, hi)
    if not cs.compatible:
        return
    engine.stats.add("joins_executed")
    emitted = []
    if join.is_aggregate:
        engine._install_output = lambda key, value: emitted.append((key, value))
    try:
        engine._exec_source(join, 0, cs, lo, hi, None, sr, skip_source=None)
    finally:
        engine.__dict__.pop("_install_output", None)
    agg = {}
    for key, value in emitted:
        acc = agg.get(key)
        if acc is None:
            acc = agg[key] = AggValue(join.value_source.operator)
        acc.include(materialize(value))
    for key in sorted(agg):
        if agg[key].count > 0:
            engine._install_output(key, agg[key])


def _compute_server(text, data, interpreted=False):
    from functools import partial

    srv = PequodServer()
    if interpreted:
        srv.engine._compute_join = partial(_interpreted_compute, srv.engine)
    srv.add_join(text)
    subs, posts, active = data
    for user, poster in sorted(subs):
        srv.put(f"s|{user}|{poster}", "1")
    for (poster, tick), value in sorted(posts.items()):
        srv.put(f"p|{poster}|{tick}", value)
    for poster in sorted(active):
        srv.put(f"a|{poster}", "1")
    return srv


def _compute_range(kind, user, tick):
    if kind == "login":
        return f"t|{user}|", f"t|{user}}}"
    if kind == "check":
        return f"t|{user}|{tick}", f"t|{user}}}"
    if kind == "below":  # under whatever a login computed
        return f"t|{user}|", f"t|{user}|{tick}"
    if kind == "cross":  # from this timeline to the end of the table
        return f"t|{user}|{tick}", "t}"
    key = f"t|{user}|{tick}|{user}"  # get(): [key, key + "\0")
    return key, key + "\x00"


def _outcome(srv, lo, hi):
    from repro.core.pattern import PatternError

    try:
        return srv.scan(lo, hi)
    except PatternError as exc:
        return ("raised", str(exc))


def _engine_state(srv):
    """Everything a compute leaves behind: rows, accounting, updater
    trees (bounds, context, build, order), status ranges and their
    builds, and the work counters compute cost is made of."""
    from repro.store.values import materialize

    tables = {}
    for name, table in sorted(srv.store.tables.items()):
        rows = [
            (key, materialize(value))
            for key, value in table.items(name, name + "\U0010ffff")
        ]
        updaters = [
            (entry.lo, entry.hi, [
                (u.join.text, u.source_index, u.lazy, u.names, u.values,
                 u.output_lo, u.output_hi, u.source_lo, u.source_hi,
                 u.build.lo, u.build.hi)
                for u in entry.payloads
            ])
            for entry in table.updaters.entries()
        ]
        tables[name] = (rows, updaters, table.key_count, table.memory_bytes)
    status = {
        name: [
            (sr.lo, sr.hi, sr.state, len(sr.pending),
             [(b.lo, b.hi, b.holders, len(b.updaters)) for b in sr.builds])
            for sr in stable.ranges()
        ]
        for name, stable in srv.engine.status.items()
    }
    counters = {
        name: srv.stats.get(name)
        for name in ("source_keys_examined", "outputs_installed", "puts",
                     "removes", "updaters_installed", "joins_executed")
    }
    return tables, status, counters, srv.engine.updater_bytes


class TestComputeParity:
    @settings(
        max_examples=80, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.sampled_from(COMPUTE_SHAPES),
        st.sampled_from(["copy", "count", "max"]),
        compute_data,
        st.lists(compute_read, min_size=1, max_size=5),
        compute_steps,
    )
    def test_compiled_compute_equals_the_interpreted_walk(
        self, shape, op, data, reads, steps
    ):
        """Over the same data and reads, a compute through the compiled
        plan leaves exactly what the interpreted walk leaves — rows,
        accounting, updater trees, status ranges, counters — and, while
        the data is static, every read equals the pull path's answer
        for the same join text and range."""
        text = shape.format(op=op)
        compiled = _compute_server(text, data)
        walked = _compute_server(text, data, interpreted=True)
        ambiguous = op == "copy" and text.startswith("t|<user>|<poster> =")
        pulled = None if ambiguous else _compute_server(
            text.replace(" = ", " = pull ", 1), data
        )
        for step in reads + steps:
            kind, a, b, c = step
            if kind == "read":
                lo, hi = _compute_range(a, b, c)
                got = _outcome(compiled, lo, hi)
                assert got == _outcome(walked, lo, hi), step
                if pulled is not None:
                    assert got == _outcome(pulled, lo, hi), step
                if got and got[0] == "raised":
                    return  # the walk had put rows before raising
            else:
                pulled = None  # the pull server sees no writes
                for srv in (compiled, walked):
                    if kind == "sub":
                        srv.put(f"s|{a}|{b}", "1")
                    elif kind == "unsub":
                        srv.remove(f"s|{a}|{b}")
                    elif kind == "post":
                        srv.put(f"p|{a}|{b}", c)
                    else:
                        srv.eviction.evict_one()
            assert _engine_state(compiled) == _engine_state(walked), step


# ----------------------------------------------------------------------
# Every fire shape is a from-scratch compute
# ----------------------------------------------------------------------
#: One join per way an updater fires: a lazy check and an eager check
#: over a value-last copy; a value source with a check (lazy or eager)
#: after it, walked per fire; value-last aggregates; a deeper
#: aggregate; an aggregate under an eager check.  Copies whose output
#: drops a source slot are left out: ``core/joins.py`` leaves such
#: ambiguous joins to the application, because which source key wins
#: an output key differs between maintenance and a compute.
FIRE_SHAPES = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>",
    "t|<user>|<time>|<poster> = echeck s|<user>|<poster> copy p|<poster>|<time>",
    "t|<user>|<time>|<poster> = copy p|<poster>|<time> check s|<user>|<poster>",
    "t|<user>|<time>|<poster> = copy p|<poster>|<time> echeck s|<user>|<poster>",
    "t|<user>|<poster> = check s|<user>|<poster> count p|<poster>|<time>",
    "t|<user>|<poster> = check s|<user>|<poster> min p|<poster>|<time>",
    "t|<user>|<poster> = check s|<user>|<poster> max p|<poster>|<time>",
    "t|<user>|<poster> = count p|<poster>|<time> check s|<user>|<poster>",
    "t|<user>|<poster> = echeck s|<user>|<poster> count p|<poster>|<time>",
)
fire_writes = st.one_of(
    st.tuples(names3, names3).map(lambda w: (f"s|{w[0]}|{w[1]}", "1")),
    st.tuples(names3, names3).map(lambda w: (f"s|{w[0]}|{w[1]}", None)),
    st.tuples(names3, compute_ticks, compute_values).map(
        lambda w: (f"p|{w[0]}|{w[1]}", w[2])
    ),
    st.tuples(names3, compute_ticks).map(lambda w: (f"p|{w[0]}|{w[1]}", None)),
)
fire_steps = st.lists(
    st.one_of(
        fire_writes.map(lambda w: ("write", [w])),
        st.lists(fire_writes, min_size=2, max_size=5).map(lambda ws: ("batch", ws)),
        st.tuples(st.sampled_from(["login", "check"]), names3, compute_ticks).map(
            lambda r: ("read", r)
        ),
    ),
    min_size=1,
    max_size=40,
)


def _fire_write(srv, kind, writes):
    if kind == "batch":
        with srv.write_batch() as batch:
            for key, value in writes:
                if value is None:
                    batch.remove(key)
                else:
                    batch.put(key, value)
        return
    ((key, value),) = writes
    if value is None:
        srv.remove(key)
    else:
        srv.put(key, value)


class TestFireParity:
    @pytest.mark.parametrize("shape", FIRE_SHAPES)
    @settings(
        max_examples=50, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps=fire_steps)
    def test_maintained_output_equals_a_from_scratch_server(self, shape, steps):
        """Reads mid-stream make ranges live, so later writes reach them
        through updater fires of every kind; at the end the output must
        equal a server that took the same writes and read only then."""
        live, scratch = PequodServer(), PequodServer()
        for srv in (live, scratch):
            srv.add_join(shape)
        for kind, arg in steps:
            if kind == "read":
                _outcome(live, *_compute_range(*arg))
                continue
            for srv in (live, scratch):
                _fire_write(srv, kind, arg)
        assert _outcome(live, "t|", "t}") == _outcome(scratch, "t|", "t}")


class TestEvictionDownstream:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(growing_ops.map(lambda ops: ops + [("evict", "", "")] * 3))
    def test_a_join_over_t_equals_a_naive_recompute_after_evictions(self, ops):
        """Evicting timeline ranges retracts their rows from a join over
        ``t`` (one REMOVE per key), and recomputing them puts them back
        (one INSERT per key): after every evict → recompute cycle the
        downstream counts equal a naive recount."""
        srv = PequodServer()
        srv.add_join(
            "t|<user>|<time>|<poster> = check s|<user>|<poster> "
            "copy p|<poster>|<time>"
        )
        srv.add_join("n|<user> = count t|<user>|<time>|<poster>")
        model = _TwipModel()
        for op in ops:
            kind, user, tick = op
            if model.write(srv, op) or kind == "tick":
                continue
            if kind != "evict":
                lo, hi = _span(kind, user, tick)
                assert srv.scan(lo, hi) == model.timeline(user, lo, hi), op
                continue
            srv.eviction.evict_one()
            for reader in ["ann", "bob"]:
                lo, hi = _span("login", reader, "")
                assert srv.scan(lo, hi) == model.timeline(reader, lo, hi), op
            for reader in ["ann", "bob"]:
                rows = len(model.timeline(reader, *_span("login", reader, "")))
                assert srv.get(f"n|{reader}") == (str(rows) if rows else None), op
