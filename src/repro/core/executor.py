"""Cache-join query execution and incremental maintenance.

This module is the engine room of the reproduction: the key-value
variant of nested-loop join execution from paper §3.1 (Figures 3–4),
the installation of join status ranges and updaters during execution
from §3.2 (Figure 5), eager maintenance and lazy invalidation, pending
log application, snapshot expiry, and missing-data resolution (§3.3).

Execution of a scan over a join's output range proceeds as:

1. Derive slot constraints from the requested range.
2. For each source in order, compute its *containing range*, resolve
   missing data (recursive joins, database, remote servers), install an
   updater for the range, and enumerate matching keys, augmenting the
   constraint set.
3. At the innermost level, expand the output key, re-check it against
   the requested range, and emit the value (or fold it into an
   aggregate accumulator).

Every run of this loop goes through the join's compiled
:class:`~repro.core.plan.ComputePlan` (:meth:`JoinEngine._walk`).
Computing a range (first touch or recompute) installs everything it
emitted as one key-sorted run (``Table.install_many``); evicting or
clearing a range removes its keys as one run
(``OrderedStore.remove_range``).  A pull join runs the same plan on
every read and returns what it emitted without storing any of it.
Only pending-log application walks the interpreted ``_exec_source``
recursion with its source key pinned.

Writes run the other direction, along one path.  Every write — a
single ``put`` or ``remove`` (``notify_change``, a batch of one), a
client batch, the CDC pump — reaches :meth:`JoinEngine.notify_batch`
after the store has changed.  The batch's changes are taken in key
order, so each source table's share is one contiguous run and one
maintenance pass: its updater index is stabbed once per
changed key, and each (interval entry, updater) pair fires once over
the changes it covers.  Every fire pins its changed key into the plan
(``ComputePlan.pin``), one more bound level.  Lazy updaters then log
partial invalidations or invalidate; echeck and deeper value-source
updaters walk the other levels; value-last aggregates adjust their
accumulators; value-last copies (the common join) only render their
output keys, and after the pass each output table's collected fan-out
lands as ONE key-sorted run — a post to fifty timelines is one
``install_many`` of fifty keys.

Staleness safety: each computation of a status range is a *build*
(``core.status.Build``) owning the updaters installed on its behalf; a
fire applies only to ranges holding the updater's build, and the last
holder to leave the cover (a recompute, or
:meth:`JoinEngine.retire_range`) uninstalls them, so updaters derived
from since-retracted check tuples go when the paper would remove them
("complete invalidation removes installed updaters").  Every eager
output is checked this way at the moment it applies — a collected
fan-out key against the range containing it — so a range recomputed or
invalidated earlier in the pass retires what is still to come, as it
would for changes applied one at a time.  A grouped lazy firing
collapses N same-key partial invalidations into one compacted pending
entry, which is safe because pending application re-executes against
current store state (the logged values are never replayed), and any
matching removal escalates to a complete invalidation.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..store.keys import clamp_range, key_successor, prefix_upper_bound, table_of
from ..store.lru import LRUList
from ..store.stats import StoreStats
from ..store.store import OrderedStore
from ..store.table import Table
from ..store.values import Value, materialize
from .clock import Clock, SystemClock
from .joins import CacheJoin, JoinError
from .operators import AggValue, ChangeKind, UpdateOutcome
from .pattern import PatternError
from .plan import ComputeLevel, ComputePlan, FirePin
from .ranges import SlotConstraints
from .status import Build, PendingEntry, RangeState, StatusRange, StatusTable
from .updaters import Updater, install_updater

#: A net batch change: ``(key, old_value, new_value, kind)``.
Change = Tuple[str, Optional[str], Optional[str], ChangeKind]


class DataResolver:
    """Hook for loading missing source data (paper §3.3).

    Local deployments leave this unset; database-backed deployments and
    distributed nodes install resolvers that fetch ranges from the
    backing store or from home servers before join execution proceeds.
    """

    def ensure_range(self, engine: "JoinEngine", table: str, lo: str, hi: str) -> None:
        raise NotImplementedError


#: Change callback: (key, old_value, new_value, kind).  Used by the
#: distributed layer for cross-server subscriptions and by tests.
ChangeListener = Callable[[str, Optional[str], Optional[str], ChangeKind], None]


class JoinTableMetrics:
    """Validation-outcome counters for one materialized output table.

    Bumped where validation happens (``_validate_table``), one slotted
    integer add per outcome — cheap enough to stay on even when nobody
    scrapes.  ``ServerMetrics`` turns these into the per-join
    hit/miss/memo series.
    """

    __slots__ = (
        "validations",
        "memo_hits",
        "fresh_hits",
        "computes",
        "recomputes",
        "pending_applies",
    )

    def __init__(self) -> None:
        self.validations = 0      # validate calls touching this table
        self.memo_hits = 0        # satisfied by the validation memo
        self.fresh_hits = 0       # covered by VALID ranges, no work
        self.computes = 0         # never-computed gaps filled
        self.recomputes = 0       # invalid/expired ranges rebuilt
        self.pending_applies = 0  # pending logs drained before a read


class JoinEngine:
    """Join execution and maintenance over one server's store."""

    #: Remembered status ranges per output table (see ``validate_range``).
    VALIDATION_MEMO_CAP = 4096

    def __init__(
        self,
        store: OrderedStore,
        clock: Optional[Clock] = None,
        stats: Optional[StoreStats] = None,
    ) -> None:
        self.store = store
        self.clock = clock if clock is not None else SystemClock()
        self.stats = stats if stats is not None else store.stats
        self.joins: List[CacheJoin] = []
        self._output_joins: Dict[str, List[CacheJoin]] = {}
        #: Precomputed views of ``joins``: materialized joins per output
        #: table (what validation must bring up to date) and the pull
        #: joins (what every read must additionally execute).  Scans
        #: consult these on every operation; deriving them per read was
        #: measurable overhead.
        self._materialized_joins: Dict[str, List[CacheJoin]] = {}
        self._pull_joins: List[CacheJoin] = []
        #: ``(table, table_upper_bound, joins, metrics)`` tuples for
        #: every table with materialized joins — the per-read validation
        #: loop walks this instead of re-deriving bounds and filtering
        #: pull joins on every operation.
        self._validate_plan: List[
            Tuple[str, str, List[CacheJoin], "JoinTableMetrics"]
        ] = []
        #: Per-table validation hints (paper §4.2's output-hint idea
        #: applied to validation): the status range that satisfied the
        #: last scan ending at a given ``hi``, so repeated timeline
        #: checks skip the status-tree descent.  Hints are verified
        #: structurally on use (attached + state + bounds + expiry), so
        #: splits, invalidations, and evictions need no eager memo
        #: maintenance — a stale hint simply misses.
        self._validation_memo: Dict[str, Dict[str, StatusRange]] = {}
        self.status: Dict[str, StatusTable] = {}
        #: Per-output-table validation outcome counters (metrics layer).
        self.table_metrics: Dict[str, JoinTableMetrics] = {}
        #: Chaos hook: called as ``fault_hook(site)`` at maintenance
        #: entry points when installed (``repro.chaos``); None costs one
        #: attribute check per notification.
        self.fault_hook: Optional[Callable[[str], None]] = None
        self.resolver: Optional[DataResolver] = None
        self.lru = LRUList()
        self.listeners: List[ChangeListener] = []
        self.updater_bytes = 0
        #: Compiled plans per join (``id(join)``): every compute and
        #: every updater fire runs through one.
        self._compute_plans: Dict[int, ComputePlan] = {}

    # ==================================================================
    # Join installation
    # ==================================================================
    def validate_join(
        self, join: CacheJoin, pending: Sequence[CacheJoin] = ()
    ) -> None:
        """The installation-time checks of "add-join" (§3), without
        installing: rejects circular chains of joins (the paper
        forbids them) and joins that source a pull join's output,
        which is never materialized and therefore unavailable to
        source scans.  ``pending`` holds joins accepted earlier in the
        same installation batch, so a multi-join spec is validated as
        a whole before any of it takes effect.
        """
        installed = list(self.joins) + list(pending)
        deps: Dict[str, set] = {}
        for other in installed:
            deps.setdefault(other.output.table, set()).update(
                other.source_tables()
            )
        deps.setdefault(join.output.table, set()).update(join.source_tables())
        if self._has_cycle(deps):
            raise JoinError(
                f"installing {join.text!r} would create a circular join chain"
            )
        for src in join.sources:
            for other in installed:
                if other.is_pull and other.output.table == src.pattern.table:
                    raise JoinError(
                        f"source table {src.pattern.table!r} is the output of "
                        f"pull join {other.text!r}; pull outputs are never "
                        "materialized and cannot feed other joins"
                    )
        if join.is_pull:
            for other in installed:
                if join.output.table in other.source_tables():
                    raise JoinError(
                        f"pull join {join.text!r} would output into a table "
                        f"sourced by {other.text!r}"
                    )

    def add_join(self, join: CacheJoin, validate: bool = True) -> CacheJoin:
        """Install a cache join ("add-join RPC", §3).  ``validate=False``
        skips re-validation for callers that batch-validated already
        (:meth:`PequodServer.add_join`).  A stored copy join marks its
        output table, whose strings are then charged a pointer each
        (§4.3, :meth:`Table.mark_copy_output`)."""
        if validate:
            self.validate_join(join)
        self.joins.append(join)
        self._output_joins.setdefault(join.output.table, []).append(join)
        if join.is_pull:
            self._pull_joins.append(join)
        else:
            self._materialized_joins.setdefault(join.output.table, []).append(join)
            if not join.is_aggregate:
                self.store.table(join.output.table).mark_copy_output()
            self._validate_plan = [
                (
                    tbl,
                    prefix_upper_bound(tbl),
                    joins,
                    self.table_metrics.setdefault(tbl, JoinTableMetrics()),
                )
                for tbl, joins in self._materialized_joins.items()
            ]
        self.status.setdefault(join.output.table, StatusTable())
        self.stats.add("joins_installed")
        return join

    @staticmethod
    def _has_cycle(deps: Dict[str, set]) -> bool:
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {node: WHITE for node in deps}

        def visit(node: str) -> bool:
            color[node] = GRAY
            for nxt in deps.get(node, ()):
                state = color.get(nxt, WHITE)
                if state == GRAY:
                    return True
                if state == WHITE and nxt in deps and visit(nxt):
                    return True
            color[node] = BLACK
            return False

        return any(color[n] == WHITE and visit(n) for n in list(deps))

    # ==================================================================
    # Read path
    # ==================================================================
    def scan(self, first: str, last: str) -> List[Tuple[str, str]]:
        """Ordered pairs in ``[first, last)``, computing joins on demand."""
        if not first < last:
            return []
        self.validate_range(first, last)
        stored = self.store.scan(first, last)
        if not self._pull_joins:
            return stored
        pulled = self._pull_results(first, last)
        if not pulled:
            return stored
        return self._merge_results(stored, pulled)

    def get(self, key: str) -> Optional[str]:
        """Single-key read; overlapping joins are computed as needed."""
        hi = key_successor(key)
        self.validate_range(key, hi)
        value = self.store.get(key)
        if value is None and self._pull_joins:
            for k, v in self._pull_results(key, hi):
                if k == key:
                    return v
        return value

    def validate_range(self, first: str, last: str) -> None:
        """Bring every overlapping join output in ``[first, last)`` up
        to date: compute gaps, recompute invalid/expired ranges, apply
        pending partial invalidations (§3.2)."""
        for tbl_name, bound, joins, tm in self._validate_plan:
            t_lo = first if first > tbl_name else tbl_name
            t_hi = last if last < bound else bound
            if t_lo < t_hi:
                self._validate_table(tbl_name, joins, t_lo, t_hi, tm)

    def _memo_usable(self, sr: Optional[StatusRange], lo: str, hi: str, now: float) -> bool:
        """May a remembered status range satisfy ``[lo, hi)`` as-is?

        Every way a hint can go stale is visible structurally: eviction
        detaches it, invalidation flips its state, a split shrinks its
        ``hi``, pending work populates its log, snapshot expiry shows in
        ``expires_at``.
        """
        return (
            sr is not None
            and sr.attached
            and sr.state is RangeState.VALID
            and not sr.pending
            and (sr.expires_at is None or now < sr.expires_at)
            and sr.lo <= lo
            and hi <= sr.hi
        )

    def _validate_table(
        self,
        tbl_name: str,
        joins: List[CacheJoin],
        lo: str,
        hi: str,
        tm: JoinTableMetrics,
    ) -> None:
        tm.validations += 1
        memo = self._validation_memo.get(tbl_name)
        if memo is not None:
            # The paper's §4.2 hint idea applied to validation: the
            # range that answered the last scan ending at ``hi`` very
            # likely covers this one too — verify it structurally (see
            # _memo_usable, inlined here with the clock read deferred
            # to the rare expiring-range case) and skip the status-tree
            # walk.  This is the warm timeline check's whole validation.
            sr = memo.get(hi)
            if sr is not None:
                if (
                    sr.attached
                    and sr.state is RangeState.VALID
                    and not sr.pending
                    and sr.lo <= lo
                    and hi <= sr.hi
                    and (sr.expires_at is None
                         or self.clock.now() < sr.expires_at)
                ):
                    self.stats.counters["validation_memo_hits"] += 1
                    tm.memo_hits += 1
                    entry = sr.lru_entry
                    if entry is not None and entry.linked():
                        self.lru.touch(entry)
                    return
                # A stale hint would otherwise pin the dead range until
                # the cap clears; drop it now.
                del memo[hi]
        stable = self.status[tbl_name]
        now = self.clock.now()
        # pieces() snapshots the cover; computation below may split it.
        pieces = stable.pieces(lo, hi)
        if len(pieces) > 1 and self._merge_ranges(tbl_name, stable, lo, hi):
            # Undo what earlier partial reads cut before walking it:
            # adjacent compatible ranges under the request fold back
            # into one, logs united, so a login over k fragments
            # applies one log once instead of k copies of it
            # (§3.2 keeps one status range per computed output range).
            pieces = stable.pieces(lo, hi)
        for piece_lo, piece_hi, sr in pieces:
            if sr is None:
                tm.computes += 1
                self._compute_piece(tbl_name, stable, joins, piece_lo, piece_hi)
            elif not sr.is_valid_at(now):
                tm.recomputes += 1
                for part in stable.isolate(piece_lo, piece_hi):
                    self._ensure_tracked(tbl_name, part)
                    self._recompute_range(tbl_name, joins, part)
            elif sr.pending:
                tm.pending_applies += 1
                for part in stable.isolate(piece_lo, piece_hi):
                    self._ensure_tracked(tbl_name, part)
                    self._apply_pending(tbl_name, part)
                    self._touch(part)
            else:
                tm.fresh_hits += 1
                self._touch(sr)
        if len(pieces) != 1:
            return
        # Remember the single range now covering [lo, hi) for the next
        # scan ending at ``hi`` (incremental checks share their upper
        # bound and only advance ``lo``).
        piece_lo, piece_hi, sr = pieces[0]
        if piece_lo != lo or piece_hi != hi:
            return
        if sr is None or not self._memo_usable(sr, lo, hi, now):
            sr = stable.find(lo)  # freshly computed or rebuilt cover
        if self._memo_usable(sr, lo, hi, now):
            if memo is None:
                memo = self._validation_memo.setdefault(tbl_name, {})
            elif len(memo) >= self.VALIDATION_MEMO_CAP:
                memo.clear()  # crude bound; hints repopulate on demand
            memo[hi] = sr

    def _merge_ranges(
        self, tbl_name: str, stable: StatusTable, lo: str, hi: str
    ) -> int:
        """Fold mergeable neighbours under ``[lo, hi)`` (see
        :meth:`StatusTable.merge_over`) and keep the LRU in step: an
        absorbed range's entry goes, so eviction never pops a dead
        payload; the survivor is tracked.  Returns ranges absorbed."""
        merged = stable.merge_over(lo, hi)
        for survivor, absorbed in merged:
            if absorbed.lru_entry is not None:
                self.lru.remove(absorbed.lru_entry)
                absorbed.lru_entry = None
            self._ensure_tracked(tbl_name, survivor)
        self.stats.counters["status_merges"] += len(merged)
        return len(merged)

    def _touch(self, sr: StatusRange) -> None:
        if sr.lru_entry is not None and sr.lru_entry.linked():
            self.lru.touch(sr.lru_entry)

    def _ensure_tracked(self, tbl_name: str, sr: StatusRange) -> None:
        if sr.lru_entry is None or not sr.lru_entry.linked():
            sr.lru_entry = self.lru.add((tbl_name, sr))

    # ------------------------------------------------------------------
    def _compute_piece(
        self,
        tbl_name: str,
        stable: StatusTable,
        joins: List[CacheJoin],
        lo: str,
        hi: str,
    ) -> None:
        """Forward-execute all joins for a never-computed gap.

        All or nothing: a compute that raises (a source key breaking a
        declared output width, a failing data resolver) has installed
        no outputs, and its range goes too — a VALID range over a
        half-run join would serve incomplete reads forever.  The next
        read over the gap computes it again.
        """
        sr = StatusRange(lo, hi, RangeState.VALID)
        # The range is in the cover while the joins run: updaters they
        # install may fire (a resolver loading data) and must find it.
        stable.add(sr)
        self._ensure_tracked(tbl_name, sr)
        try:
            self._fill_range(tbl_name, joins, sr)
        except BaseException:
            self.retire_range(tbl_name, sr)
            raise

    def _recompute_range(
        self, tbl_name: str, joins: List[CacheJoin], sr: StatusRange
    ) -> None:
        """Recompute an invalid or expired range from scratch.  A
        recompute that raises leaves the range INVALID (and empty), so
        the next read retries it."""
        self.stats.add("recomputations")
        self._clear_range(sr.lo, sr.hi)
        sr.state = RangeState.VALID
        sr.pending.clear()
        sr.expires_at = None
        self._release_builds(sr)  # the rebuild installs its own
        try:
            self._fill_range(tbl_name, joins, sr)
        except BaseException:
            sr.invalidate()
            raise

    def _fill_range(
        self, tbl_name: str, joins: List[CacheJoin], sr: StatusRange
    ) -> None:
        """Compute every join over ``sr`` (through its compiled plan),
        then install all their outputs as ONE key-sorted run.

        Nothing is installed until every join has run, so a join that
        raises leaves the store as it found it.  The sort is stable and
        the joins' outputs are concatenated in join order: where two
        emissions share a key, the later one still wins, as it did when
        each output was put the moment it was emitted.  Installs (and
        their notifications) now arrive in key order rather than in
        source-scan order.
        """
        sr.builds = (Build(sr.lo, sr.hi),)
        expiry: Optional[float] = None
        run: List[Tuple[str, Value]] = []
        for join in joins:
            self._compute_join(join, sr.lo, sr.hi, sr, run)
            if join.is_snapshot:
                candidate = self.clock.now() + float(join.snapshot_interval or 0)
                expiry = candidate if expiry is None else min(expiry, candidate)
        sr.expires_at = expiry
        if run:
            run.sort(key=itemgetter(0))
            self._install_run(self.store.table(tbl_name), run)

    def _compute_join(
        self,
        join: CacheJoin,
        out_lo: str,
        out_hi: str,
        sr: Optional[StatusRange],
        run: List[Tuple[str, Value]],
    ) -> None:
        """Run ``join`` over output range ``[out_lo, out_hi)`` (Figures
        3 and 5) through its :class:`ComputePlan`, appending each output
        to ``run`` — an aggregate's outputs folded into accumulators,
        in key order.  A pull join (``sr`` None) stores nothing, so it
        installs no updater."""
        cs = SlotConstraints.for_output_range(join.output, out_lo, out_hi)
        if not cs.compatible:
            return
        self.stats.add("joins_executed")
        plan = self._plan(join)
        levels = plan.bind(cs.exact, cs.bounds)
        # The frontier slot's bounds, if the range bounds one (§3.1).
        flo, fhi = next(iter(cs.bounds.values()), (None, None))
        vec = plan.vector(cs.exact)
        rows = [] if join.is_aggregate else run
        self._walk(
            plan, levels, vec, 0, -1, None, out_lo, out_hi, flo, fhi, sr, rows
        )
        if rows is run:
            return
        agg: Dict[str, AggValue] = {}
        for key, value in rows:
            acc = agg.get(key)
            if acc is None:
                acc = agg[key] = AggValue(join.value_source.operator)
            acc.include(materialize(value))
        for key in sorted(agg):
            if agg[key].count > 0:
                run.append((key, agg[key]))

    def _plan(self, join: CacheJoin) -> ComputePlan:
        """``join``'s compiled plan, compiled on first use."""
        plan = self._compute_plans.get(id(join))
        if plan is None:
            plan = self._compute_plans[id(join)] = ComputePlan(join)
        return plan

    def _walk(
        self,
        plan: ComputePlan,
        levels: Tuple[ComputeLevel, ...],
        vec: List[Optional[str]],
        start: int,
        pinned: int,
        value: Optional[Value],
        out_lo: str,
        out_hi: str,
        flo: Optional[str],
        fhi: Optional[str],
        sr: Optional[StatusRange],
        run: List[Tuple[str, Value]],
    ) -> None:
        """The nested loop of §3.1 over ``levels`` from ``start`` on,
        appending each output in ``[out_lo, out_hi)`` to ``run``.

        Level ``pinned`` (-1: none) is a fired source whose key is
        already in ``vec``: it is skipped, not scanned.  Per scanned
        level and outer binding: one containing range, data resolution
        (§3.3) and — for a push join building status range ``sr`` — an
        updater for that range; then one scan whose rows are matched by
        ``Pattern.slot_tuple`` into the slot vector.  A value-source row
        carries its stored string down, so a copy output holds the
        source's own string object (§4.3's shared value buffer); an
        aggregate source's accumulator carries its rendered payload.  A
        row breaking a declared output width raises ``Pattern.expand``'s
        own error.
        """
        join = plan.join
        out_key = plan.out_fmt.format
        widths = plan.widths
        emit = run.append
        counters = self.stats.counters
        install = join.is_push and sr is not None
        last = len(levels) - (2 if pinned == len(levels) - 1 else 1)

        def scan(k: int, value: Optional[Value]) -> None:
            if k == pinned:
                k += 1
            level = levels[k]
            lo, hi = level.containing_range(vec, flo, fhi)
            if not lo < hi:
                return
            self._ensure_source_data(level.table, lo, hi)
            if install:
                self._install_updater_for(
                    join, k, level.context_names,
                    tuple([vec[i] for i in level.context_slots]),
                    out_lo, out_hi, lo, hi, sr,
                )
            rows = self.store.table(level.table).scan(lo, hi)
            counters["source_keys_examined"] += len(rows)
            slot_tuple = level.pattern.slot_tuple
            checks, assigns, frontier = level.checks, level.assigns, level.frontier
            is_value = level.is_value
            inner = k < last
            for row_key, row_value in rows:
                t = slot_tuple(row_key)
                if t is None:
                    continue
                if checks and not all(t[ti] == vec[vi] for ti, vi in checks):
                    continue
                if frontier >= 0:
                    v = t[frontier]
                    if flo is not None and v < flo and not flo.startswith(v):
                        continue
                    if fhi is not None and not v < fhi:
                        continue
                for ti, vi in assigns:
                    vec[vi] = t[ti]
                v = value
                if is_value:
                    v = row_value
                    if type(v) is not str:  # an aggregate's accumulator
                        v = v.payload
                if inner:
                    scan(k + 1, v)
                    continue
                for vi, width in widths:
                    if len(vec[vi]) != width:  # raise expand's own error
                        join.output.expand(plan.slot_dict(vec))
                key = out_key(*vec)
                if out_lo <= key < out_hi:
                    emit((key, v))

        scan(start, value)

    def _install_run(self, table: Table, run: List[Tuple[str, Value]]) -> None:
        """Install a key-sorted run of outputs with one
        :meth:`Table.install_many` and announce each change, in key
        order, when anything can observe it (see :meth:`_observed`)."""
        results = table.install_many(run)
        self.stats.counters["outputs_installed"] += len(run)
        if self.fault_hook is not None or self.listeners or table.updaters:
            for (key, old), (_, value) in zip(results, run):
                self._notify_installed(key, old, value)

    def retire_range(self, tbl_name: str, sr: StatusRange) -> None:
        """Take ``sr`` out of the cover (eviction, a failed compute, a
        dropped cluster slice): dependents, rows, builds, status, LRU
        and memo."""
        self.invalidate_dependents(tbl_name, sr.lo, sr.hi)
        self._clear_range(sr.lo, sr.hi)
        self._release_builds(sr)
        self.status[tbl_name].remove(sr)
        if sr.lru_entry is not None:
            self.lru.remove(sr.lru_entry)
            sr.lru_entry = None
        # Other hints stay; a detached one under another bound misses.
        memo = self._validation_memo.get(tbl_name)
        if memo is not None and memo.get(sr.hi) is sr:
            del memo[sr.hi]

    def invalidate_dependents(self, tbl_name: str, lo: str, hi: str) -> None:
        """Invalidate every range built on ``[lo, hi)`` of ``tbl_name``.

        What is about to be forgotten (an evicted join output, a
        dropped mirror) would otherwise leave the ranges computed from
        it VALID: its REMOVEs retract their rows, and nothing brings
        them back — that key space is no longer maintained here.  The
        updaters over ``[lo, hi)`` name exactly those ranges; each one
        recomputes on its next read, which resolves the source again
        (§2.5: invalidate dependent computed data).  Call it before
        clearing, so the REMOVEs find the dependents already INVALID.
        """
        table = self.store.tables.get(tbl_name)
        if table is None or not table.updaters:
            return
        for entry in table.updaters.overlapping(lo, hi):
            for updater in entry.payloads:
                stable = self.status.get(updater.join.output.table)
                if stable is None:
                    continue
                for sr in self._owning_ranges(stable, updater):
                    if sr.state is not RangeState.INVALID:
                        self.stats.add("complete_invalidations")
                        sr.invalidate()

    def _release_builds(self, sr: StatusRange) -> None:
        """Let go of ``sr``'s builds and uninstall the updaters of each
        one no other range holds (§3.2)."""
        builds, sr.builds = sr.builds, ()
        tables = self.store.tables
        for build in builds:
            build.holders -= 1
            if build.holders:
                continue
            for u in build.updaters:
                src = u.join.sources[u.source_index]
                tables[src.pattern.table].updaters.remove_payload(u.entry, u.key)
                self.updater_bytes -= u.size
            self.stats.counters["updaters_collected"] += len(build.updaters)
            build.updaters = []  # leaves no cycle for the collector

    def _clear_range(self, lo: str, hi: str) -> None:
        """Remove every stored key in ``[lo, hi)`` as one run per table
        (:meth:`OrderedStore.remove_range`) — eviction, recompute, and
        the distributed and database deployments' dropped ranges.

        Each removal is announced as a REMOVE, in key order, when
        anything can observe it (see :meth:`_observed`).
        """
        removed = self.store.remove_range(lo, hi)
        if removed and self._observed(self.store.tables_over(lo, hi)):
            for key, old in removed:
                self.notify_change(key, materialize(old), None, ChangeKind.REMOVE)

    def _observed(self, tables: List[Table]) -> bool:
        """Can a change to a key of ``tables`` be observed?  Only
        through what :meth:`notify_batch` consults — a fault hook, a
        listener, or updaters on the key's table; with none of those a
        notification does nothing, so a run of installs or removals
        checks once and stays silent."""
        return (
            self.fault_hook is not None
            or bool(self.listeners)
            or any(tbl.updaters for tbl in tables)
        )

    # ==================================================================
    # Pending-log application: the interpreted walk (Figures 3 and 5)
    # ==================================================================
    def _exec_source(
        self,
        join: CacheJoin,
        idx: int,
        cs: SlotConstraints,
        out_lo: str,
        out_hi: str,
        value: Optional[Value],
        sr: StatusRange,
        skip_source: Optional[int],
    ) -> None:
        """Re-execute ``join`` from source ``idx`` on, with source
        ``skip_source``'s key pinned into ``cs`` (a pending entry),
        installing each output in ``[out_lo, out_hi)`` as it is
        emitted."""
        if idx == len(join.sources):
            out_key = join.output.expand(cs.exact)
            # The emission re-check keeps over-approximate ranges exact.
            if out_lo <= out_key < out_hi:
                self._install_output(out_key, value)
            return
        if idx == skip_source:
            # This source's key is pinned; its slots are already merged
            # into ``cs``.
            self._exec_source(
                join, idx + 1, cs, out_lo, out_hi, value, sr, skip_source,
            )
            return
        src = join.sources[idx]
        lo, hi = cs.containing_range(src.pattern)
        if not lo < hi:
            return
        self._ensure_source_data(src.pattern.table, lo, hi)
        if join.is_push:
            # The same context ``ComputeLevel.context_names`` holds.
            names = self._plan(join).context(idx, cs.exact)
            self._install_updater_for(
                join, idx, names, tuple([cs.exact[n] for n in names]),
                out_lo, out_hi, lo, hi, sr,
            )
        for key, stored in self.store.table(src.pattern.table).scan(lo, hi):
            self.stats.add("source_keys_examined")
            match = src.pattern.match(key)
            if match is None:
                continue
            child = cs.child_with(match)
            if child is None:
                continue
            v = materialize(stored) if idx == join.value_index else value
            self._exec_source(
                join, idx + 1, child, out_lo, out_hi, v, sr, skip_source,
            )

    def _install_output(self, key: str, value: Value) -> None:
        old = self.store.table_for_key(key).put(key, value)
        self.stats.add("outputs_installed")
        self._notify_installed(key, old, value)

    def _notify_installed(
        self, key: str, old: Optional[Value], value: Value
    ) -> None:
        """Announce an installed output — unless nothing changed.

        Pending entries re-execute against the current store, so a
        merged log applied over a piece that had already applied an
        entry re-puts values that are already there.  That must be
        silent: no watch event, no downstream maintenance.
        """
        new = materialize(value)
        if old is None:
            self.notify_change(key, None, new, ChangeKind.INSERT)
            return
        previous = materialize(old)
        if previous != new:
            self.notify_change(key, previous, new, ChangeKind.UPDATE)

    def _remove_output(self, key: str) -> None:
        table = self.store.existing_table_for_key(key)
        if table is None:
            return
        old = table.remove(key)
        if old is not None:
            self.stats.add("outputs_removed")
            self.notify_change(key, materialize(old), None, ChangeKind.REMOVE)

    # ------------------------------------------------------------------
    def _install_updater_for(
        self,
        join: CacheJoin,
        idx: int,
        names: Tuple[str, ...],
        values: Tuple[str, ...],
        out_lo: str,
        out_hi: str,
        src_lo: str,
        src_hi: str,
        sr: StatusRange,
    ) -> None:
        """Install the updater for source ``idx`` over ``[src_lo,
        src_hi)``.  The context ``names``/``values`` is already
        compressed: only the slots the source key cannot re-derive (the
        paper's context compression, §3.2), in vec order."""
        src = join.sources[idx]
        updater = Updater(
            join,
            idx,
            names,
            values,
            output_lo=out_lo,
            output_hi=out_hi,
            lazy=src.is_check and not src.is_eager_check,
            source_lo=src_lo,
            source_hi=src_hi,
        )
        table = self.store.table(src.pattern.table)
        if install_updater(table, updater, sr) is updater:
            self.stats.add("updaters_installed")
            self.updater_bytes += updater.size

    def _ensure_source_data(self, tbl_name: str, lo: str, hi: str) -> None:
        """Resolve missing source data before scanning (§3.3)."""
        if tbl_name in self._output_joins:
            # The source range may be another join's output: recurse.
            self.validate_range(lo, hi)
        if self.resolver is not None:
            self.resolver.ensure_range(self, tbl_name, lo, hi)

    # ==================================================================
    # Pull joins (§3.4)
    # ==================================================================
    def _pull_results(self, first: str, last: str) -> List[Tuple[str, str]]:
        """Every pull join's outputs in ``[first, last)``, computed now
        and never stored (§3.4): :meth:`_compute_join` with no status
        range, each emission (aggregates included) materialized."""
        run: List[Tuple[str, Value]] = []
        for join in self._pull_joins:
            tbl = join.output.table
            lo, hi = clamp_range(first, last, tbl, prefix_upper_bound(tbl))
            if not lo < hi:
                continue
            self.stats.add("pull_executions")
            self._compute_join(join, lo, hi, None, run)
        out = [(key, materialize(value)) for key, value in run]
        out.sort()
        return out

    @staticmethod
    def _merge_results(
        stored: List[Tuple[str, str]], pulled: List[Tuple[str, str]]
    ) -> List[Tuple[str, str]]:
        """Merge sorted result lists; stored (maintained) pairs win ties."""
        out: List[Tuple[str, str]] = []
        i = j = 0
        while i < len(stored) and j < len(pulled):
            if stored[i][0] < pulled[j][0]:
                out.append(stored[i])
                i += 1
            elif pulled[j][0] < stored[i][0]:
                out.append(pulled[j])
                j += 1
            else:
                out.append(stored[i])
                i += 1
                j += 1
        out.extend(stored[i:])
        out.extend(pulled[j:])
        return out

    # ==================================================================
    # Write path: notification and maintenance (§3.2)
    # ==================================================================
    def apply_put(self, key: str, value: str) -> None:
        """A client or upstream write: store it and run maintenance."""
        old = self.store.table_for_key(key).put(key, value)
        kind = ChangeKind.INSERT if old is None else ChangeKind.UPDATE
        self.notify_change(
            key, materialize(old) if old is not None else None, value, kind
        )

    def apply_remove(self, key: str) -> bool:
        table = self.store.existing_table_for_key(key)
        if table is None:
            return False
        old = table.remove(key)
        if old is None:
            return False
        self.notify_change(key, materialize(old), None, ChangeKind.REMOVE)
        return True

    def apply_batch(self, batch) -> int:
        """Apply a group of writes as one coalesced maintenance pass.

        ``batch`` is a :class:`~repro.store.batch.WriteBatch` or any
        operation iterable the store accepts.  The store mutates first
        (in key order); maintenance then runs once per affected
        table via :meth:`notify_batch`.  Returns the number of net
        changes applied.
        """
        raw = self.store.apply_batch(batch)
        if not raw:
            return 0
        changes: List[Change] = []
        for key, old, new in raw:
            if new is None:
                kind = ChangeKind.REMOVE
            elif old is None:
                kind = ChangeKind.INSERT
            else:
                kind = ChangeKind.UPDATE
            changes.append((key, old, new, kind))
        self.notify_batch(changes)
        return len(changes)

    def notify_change(
        self,
        key: str,
        old_value: Optional[str],
        new_value: Optional[str],
        kind: ChangeKind,
    ) -> None:
        """Run every updater covering ``key`` (§3.2), then listeners:
        a batch of one."""
        self.notify_batch([(key, old_value, new_value, kind)])

    def notify_batch(self, changes: List[Change]) -> None:
        """Run maintenance for a batch of net changes, then listeners.

        The changes are taken in key order, so each table's changes
        form one contiguous run, and each run is one maintenance pass
        over that table (:meth:`_notify_table_batch`).  Listeners hear
        the changes in the order given.
        """
        if self.fault_hook is not None:
            self.fault_hook("maintenance")
        tables = self.store.tables
        n = len(changes)
        # Most calls are one write: no sort, and no copy of its run.
        ordered = changes if n == 1 else sorted(changes, key=itemgetter(0))
        start = 0
        while start < n:
            name = table_of(ordered[start][0])
            stop = start + 1
            while stop < n and table_of(ordered[stop][0]) == name:
                stop += 1
            table = tables.get(name)
            if table is not None and table.updaters:
                run = ordered if stop - start == n else ordered[start:stop]
                self._notify_table_batch(table, run)
            start = stop
        if self.listeners:
            for key, old, new, kind in changes:
                for listener in self.listeners:
                    listener(key, old, new, kind)

    def _notify_table_batch(self, table: Table, group: List[Change]) -> None:
        """One maintenance pass over ``table`` for a key-sorted run of
        its changes.

        The updater index is stabbed once per changed key and the hits
        are regrouped per interval entry, so each affected (entry,
        updater) pair fires once over the changes it covers
        (:meth:`_fire_updater_group`).  Value-last copy updaters only
        collect their outputs; after the last pair, each output table's
        collection lands as one sorted run (:meth:`_install_collected`).
        """
        counters = self.stats.counters
        stab = table.updaters.stab
        # Each stabbed entry with the changes it covers, in stab order.
        hits: Dict[int, Tuple[object, List[Change]]] = {}
        for change in group:
            fanout = 0
            for entry in stab(change[0]):
                fanout += len(entry.payloads)
                hit = hits.get(id(entry))
                if hit is None:
                    hits[id(entry)] = (entry, [change])
                else:
                    hit[1].append(change)
            if fanout > counters["write_fanout_max"]:
                counters["write_fanout_max"] = float(fanout)
        if not hits:
            return
        collected: Dict[str, Tuple[StatusTable, Table, list]] = {}
        for entry, covered in hits.values():
            for updater in list(entry.payloads):
                self._fire_updater_group(updater, covered, collected)
        for stable, out_table, fires in collected.values():
            self._install_collected(stable, out_table, fires)

    def _fire_updater_group(
        self,
        updater: Updater,
        covered: List[Change],
        collected: Dict[str, Tuple[StatusTable, Table, list]],
    ) -> None:
        """Fire one updater once for the changes it covers: the one
        dispatch point of maintenance.

        Every fire pins its changed key into the join's compiled plan
        (:class:`FirePin`) over a slot vector holding the updater's
        context; then, per updater kind: a lazy updater logs or
        invalidates; an eager check or a deeper value source walks the
        other levels; a value source that is the join's last renders
        its output key — a copy collects it for the pass's sorted run,
        an aggregate adjusts its accumulator.
        """
        join = updater.join
        stable = self.status.get(join.output.table)
        if stable is None:
            return
        counters = self.stats.counters
        counters["updater_groups_fired"] += 1
        # One firing charge per covered change, before matching, so
        # counters (and modeled runtimes) do not depend on batch size.
        counters["updaters_fired"] += len(covered)
        if updater.fire is None:
            # The pin for the slots the context binds, and a slot vector
            # holding the context.
            plan = self._plan(join)
            if (updater.source_index, updater.names) not in plan.pins:
                counters["write_plan_compiles"] += 1
            pin = plan.pin(updater.source_index, updater.names)
            updater.fire = (pin, pin.vector(updater.values))
        pin, vec = updater.fire
        if updater.lazy:
            self._fire_lazy_group(stable, updater, pin, vec, covered)
            return
        if (
            join.sources[updater.source_index].is_check
            or updater.source_index != len(join.sources) - 1
        ):
            self._fire_walk_group(stable, updater, pin, vec, covered)
            return
        plan = pin.plan
        out_fmt, widths = plan.out_fmt.format, plan.widths
        out_lo, out_hi = updater.output_lo, updater.output_hi
        emit = None  # an aggregate adjusts its accumulator in place
        if not join.is_aggregate:
            out = collected.get(join.output.table)
            if out is None:
                out = collected[join.output.table] = (
                    stable, self.store.table(join.output.table), []
                )
            emit = out[2].append
        for key, old, new, kind in covered:
            if not pin.bind(key, vec):
                continue
            if widths and not all(len(vec[vi]) == w for vi, w in widths):
                # The compute would raise on this row: leave that to the
                # next read instead of storing a malformed key.
                self._invalidate_owning(stable, updater)
                continue
            out_key = out_fmt(*vec)
            if not (out_lo <= out_key < out_hi):
                continue
            counters["write_plan_fires"] += 1
            if emit is None:
                self._eager_aggregate_at(stable, updater, out_key, old, new, kind)
                continue
            emit((out_key, key, new, updater.build, kind))

    def _install_collected(
        self, stable: StatusTable, table: Table, fires: list
    ) -> None:
        """Land one output table's collected copy fires as one sorted
        run.

        ``fires`` holds ``(out_key, source_key, value, build, kind)``
        per value-last copy fire of the table pass.  Sorted by output
        key, then source key — so equal output keys apply in the order
        changes applied one at a time would, and where a join projects
        a source slot away the later source key wins, as in a compute —
        each fire applies only if the status range containing its key
        is VALID and holds the emitting updater's build: a range
        recomputed since has let it go.  The surviving inserts are one
        :meth:`_install_run`, which may span many status ranges (one
        follower's timeline is one range); a removal lands the inserts
        before it first, so everything applies in key order.
        """
        fires.sort(key=itemgetter(0, 1))
        counters = self.stats.counters
        find = stable.find
        run: List[Tuple[str, Value]] = []
        for out_key, _, value, build, kind in fires:
            sr = find(out_key)
            if (
                sr is None
                or sr.state is not RangeState.VALID
                or build not in sr.builds
            ):
                continue  # evicted, invalidated, or superseded
            counters["eager_updates"] += 1
            if kind is not ChangeKind.REMOVE:
                run.append((out_key, value))
                continue
            if run:
                counters["write_batched_installs"] += 1
                self._install_run(table, run)
                run = []
            self._remove_output(out_key)
        if run:
            counters["write_batched_installs"] += 1
            self._install_run(table, run)

    def _fire_lazy_group(
        self,
        stable: StatusTable,
        updater: Updater,
        pin: FirePin,
        vec: List[Optional[str]],
        covered: List[Change],
    ) -> None:
        """Lazy maintenance, change by change: a matching insert is a
        partial invalidation, logged (once per key) on every
        VALID range that owns the updater; a matching removal
        invalidates them completely, because eager updaters derived
        from the removed check tuple must be retired — recomputation
        from scratch rebuilds exactly the surviving updaters (§3.2).
        Invalidation clears the logs and later inserts find no VALID
        range, so the rest of the group has nothing left to do.
        """
        for key, _, _, kind in covered:
            if kind is ChangeKind.UPDATE:
                continue  # check sources: values are uninteresting
            if not pin.bind(key, vec):
                continue
            if kind is ChangeKind.REMOVE:
                self._invalidate_owning(stable, updater)
                return
            self.stats.add("partial_invalidations")
            pending = PendingEntry(updater.join, updater.source_index, key)
            for sr in self._owning_ranges(stable, updater):
                if sr.state is RangeState.VALID and not sr.log_pending(pending):
                    self.stats.add("pending_compacted")

    def _fire_walk_group(
        self,
        stable: StatusTable,
        updater: Updater,
        pin: FirePin,
        vec: List[Optional[str]],
        covered: List[Change],
    ) -> None:
        """Eager maintenance that walks the join's other levels with the
        changed key pinned, once per VALID range the updater maintains:

        * an ``echeck`` insert (extension, §3.2) runs the join from its
          first level — a new subscription's backfill happens at write
          time instead of on the next read.  Its removals invalidate
          completely: retiring the eager updaters derived from the dead
          tuple requires a recompute;
        * a value source with check sources after it walks the levels
          behind it, carrying the changed value: an insert or update
          installs what the walk emits, a removal retracts it and
          installs no updaters.

        An aggregate invalidates instead, since group membership
        cannot be patched without a rescan.  The walk runs on a copy of
        ``vec`` (data resolution may fire this updater again); each
        range's emissions land as one sorted run.  A row breaking a
        declared output width invalidates the ranges, so the next read
        raises the compute's error.
        """
        join = updater.join
        check = join.sources[updater.source_index].is_check
        table = self.store.table(join.output.table)
        for key, old, new, kind in covered:
            if check and kind is ChangeKind.UPDATE:
                continue  # check values are uninteresting
            if not pin.bind(key, vec):
                continue
            retract = kind is ChangeKind.REMOVE
            if join.is_aggregate or (check and retract):
                self._invalidate_owning(stable, updater)
                continue
            if check:
                self.stats.add("eager_check_inserts")
                start, value = 0, None
            else:
                start = updater.source_index + 1
                value = (old or "") if retract else new
            walk_vec = vec[:]
            walked = False
            for sr in self._owning_ranges(stable, updater):
                if sr.state is not RangeState.VALID:
                    continue
                walked = True
                lo, hi = clamp_range(
                    updater.output_lo, updater.output_hi, sr.lo, sr.hi
                )
                run: List[Tuple[str, Value]] = []
                try:
                    self._walk(
                        pin.plan, pin.levels, walk_vec, start,
                        updater.source_index, value, lo, hi, None, None,
                        None if retract else sr, run,
                    )
                except PatternError:
                    self._invalidate_owning(stable, updater)
                    break
                if retract:
                    for out_key, _ in run:
                        self._remove_output(out_key)
                elif run:
                    run.sort(key=itemgetter(0))
                    self._install_run(table, run)
            if walked and not check:
                self.stats.add("eager_updates")

    def _invalidate_owning(self, stable: StatusTable, updater: Updater) -> None:
        """Completely invalidate the ranges ``updater`` maintains."""
        self.stats.add("complete_invalidations")
        for sr in self._owning_ranges(stable, updater):
            sr.invalidate()

    @staticmethod
    def _owning_ranges(stable: StatusTable, updater: Updater) -> List[StatusRange]:
        """The ranges ``updater`` maintains, in key order."""
        build = updater.build
        return [
            sr
            for sr in stable.overlapping(updater.output_lo, updater.output_hi)
            if build in sr.builds
        ]

    def _apply_pending(self, tbl_name: str, sr: StatusRange) -> None:
        """Apply this range's pending log before serving a read (§3.2).

        Entries apply in log order, each one re-executing the join with
        its source key pinned, restricted to this (already isolated)
        output range; an entry that forces a wholesale recompute
        supersedes the rest of the log.
        """
        pending, sr.pending = sr.pending, {}
        for entry in pending:
            if self._apply_pending_entry(tbl_name, sr, entry):
                return  # recomputed wholesale; the rest is superseded

    def _apply_pending_entry(
        self, tbl_name: str, sr: StatusRange, entry: PendingEntry
    ) -> bool:
        """Apply ONE pending entry.

        Returns True when the entry forced a wholesale recomputation
        of the range, which supersedes any remaining log entries.
        """
        self.stats.add("pending_applied")
        cs = SlotConstraints.for_output_range(entry.join.output, sr.lo, sr.hi)
        if not cs.compatible:
            return False
        src = entry.join.sources[entry.source_index]
        match = src.pattern.match(entry.key)
        if match is None:
            return False
        child = cs.child_with(match)
        if child is None:
            return False  # irrelevant to this output range
        if entry.join.is_aggregate:
            # Aggregates cannot be patched tuple-by-tuple without
            # group context; recompute this range instead.
            tm = self.table_metrics.get(tbl_name)
            if tm is not None:
                tm.recomputes += 1
            joins = self._materialized_joins.get(tbl_name, [])
            self._recompute_range(tbl_name, joins, sr)
            return True
        self._exec_source(
            entry.join, 0, child, sr.lo, sr.hi, None, sr,
            skip_source=entry.source_index,
        )
        return False

    def _eager_aggregate_at(
        self,
        stable: StatusTable,
        updater: Updater,
        out_key: str,
        old_value: Optional[str],
        new_value: Optional[str],
        kind: ChangeKind,
    ) -> None:
        """Incrementally adjust the aggregate output at ``out_key``, the
        key a value-last fire rendered (§2.3).

        count/sum adjust in both directions; min/max recompute their
        group when the extremum departs (the paper likewise constrains
        aggregates to simple cases).
        """
        join = updater.join
        sr = stable.find(out_key)
        if sr is None or sr.state is not RangeState.VALID:
            return
        if updater.build not in sr.builds:
            return
        self.stats.add("eager_updates")
        table = self.store.table_for_key(out_key)
        acc = table.get(out_key)  # mutated in place: no write-back
        if not isinstance(acc, AggValue):
            if acc is not None:
                # An aggregate output was overwritten by something else;
                # recompute rather than guess.
                self._invalidate_group(stable, sr, out_key)
                return
            if kind is ChangeKind.REMOVE:
                return  # group already absent
            acc = AggValue(join.value_source.operator)
            acc.include(new_value or "")
            self._install_output(out_key, acc)
            return
        old_payload = acc.payload
        if kind is ChangeKind.INSERT:
            acc.include(new_value or "")
            outcome = UpdateOutcome.APPLIED
        elif kind is ChangeKind.REMOVE:
            outcome = acc.exclude(old_value or "")
        else:
            outcome = acc.replace(old_value or "", new_value or "")
        if outcome is UpdateOutcome.EMPTIED:
            self._remove_output(out_key)
        elif outcome is UpdateOutcome.RECOMPUTE:
            self._invalidate_group(stable, sr, out_key)
        elif acc.payload != old_payload:
            self.stats.add("aggregate_adjustments")
            self.notify_change(out_key, old_payload, acc.payload, ChangeKind.UPDATE)

    def _invalidate_group(
        self, stable: StatusTable, sr: StatusRange, out_key: str
    ) -> None:
        """Isolate and invalidate just the group's key (min/max retreat)."""
        succ = key_successor(out_key)
        tbl_name = table_of(out_key)
        if sr.lo < out_key:
            sr = stable.split(sr, out_key)
            self._ensure_tracked(tbl_name, sr)
        if succ < sr.hi:
            right = stable.split(sr, succ)
            self._ensure_tracked(tbl_name, right)
        sr.invalidate()
        self.stats.add("group_invalidations")

    # ==================================================================
    # Introspection
    # ==================================================================
    def memory_bytes(self) -> int:
        return self.store.memory_bytes() + self.updater_bytes
