"""Layer attribution from outside: timing wrappers around each layer's
public functions, installed at run time with no edit under ``src/``.

:data:`TARGETS` names every wrapped function, the layer (package under
``src/repro``) it belongs to and the metric group its self time feeds.
A :class:`Tracer` swaps each function for a wrapper that records one
span per call — name, start, end, parent and the index of the client
op in flight — into an in-memory list.  Nothing is recorded while
``tracer.enabled`` is false, so set-up and warm-up run through
pass-through wrappers.

Self time of a span is its duration minus the durations of its child
spans.  Each thread keeps its own stack of open spans, which gives a
span its parent.  Only ``twip_mix_rpc`` runs wrapped functions on a
second thread (its loopback server): with one outstanding request the
driving thread is then waiting inside ``RpcClient.call``, so a span
that starts at the bottom of another thread's stack becomes a child of
the span the driving thread has open — it belongs to the op whose
window contains it.  On every other workload a call from another
thread fails the self-check.

Traced times are inflated by the wrappers; compare them only with other
traced runs.
"""

from __future__ import annotations

import importlib
import inspect
import json
from itertools import count
from threading import get_ident
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple


class Target(NamedTuple):
    layer: str
    group: str
    module: str
    owner: Optional[str]  # class name; None for a module-level function
    attr: str
    #: Extra integer kept with the span, computed from the call's
    #: result: bytes framed, or the record count a pump step returns.
    measure: Optional[Callable[[object], int]] = None
    #: Called only under conditions a workload may never meet (a batch,
    #: a recompute, a reconfiguration), so zero calls is not an error.
    conditional: bool = False

    @property
    def span(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


def _targets() -> List[Target]:
    out: List[Target] = []

    def add(layer, group, module, owner, attrs, measure=None, conditional=()):
        for attr in attrs:
            out.append(
                Target(
                    layer, group, module, owner, attr, measure, attr in conditional
                )
            )

    # The sync facade drives every op; which async core it drives
    # differs per deployment, so each core has a layer tag of its own
    # and the self-check knows which one must fire.
    add("client.sync", "client", "repro.client.base", "PequodClient", ("scan", "put"))
    add("client.local", "client", "repro.client.aio", "AsyncLocalClient", ("scan", "put"))
    add("client.rpc", "client", "repro.client.aio", "AsyncRemoteClient", ("scan", "put"))
    add("net", "net.codec", "repro.net.protocol", None, ("encode_request",), len)
    # Responses are encoded by whichever process serves: this one on
    # twip_mix_rpc, the node processes on twip_mix_procs2.
    add("net.server", "net.codec", "repro.net.protocol", None, ("encode_response",), len)
    add("net", "net.codec", "repro.net.protocol", None, ("decode_message",))
    add("net", "net.codec", "repro.net.protocol", "FrameBuffer", ("feed",))
    add("net", "net.call", "repro.net.rpc_client", "RpcClient", ("call",))
    add(
        "core", "core.server", "repro.core.server", "PequodServer",
        ("put", "scan", "apply_batch"), conditional=("apply_batch",),
    )
    add(
        "core", "core.validate", "repro.core.executor", "JoinEngine",
        ("scan", "validate_range"),
    )
    add(
        "core", "core.maintain", "repro.core.executor", "JoinEngine",
        ("apply_put", "apply_batch", "notify_batch", "notify_change"),
        conditional=("apply_put", "apply_batch", "notify_batch"),
    )
    add(
        "core", "core.pattern", "repro.core.pattern", "Pattern",
        ("match", "slot_tuple", "expand", "expand_prefix", "containing_range"),
        conditional=("match", "expand_prefix"),
    )
    add(
        "core", "core.status", "repro.core.status", "StatusTable",
        ("find", "pieces", "all_valid_over", "isolate"),
        conditional=("find", "all_valid_over", "isolate"),
    )
    add(
        "core", "core.evict", "repro.core.eviction", "EvictionManager",
        ("maybe_evict",),
    )
    add(
        "store", "store.read", "repro.store.store", "OrderedStore",
        ("scan", "get", "scan_nodes"), conditional=("get", "scan_nodes"),
    )
    add(
        "store", "store.write", "repro.store.store", "OrderedStore",
        ("put", "apply_batch", "remove_range"),
        conditional=("put", "apply_batch", "remove_range"),
    )
    add(
        "store", "store.write", "repro.store.table", "Table",
        ("install_many", "put", "remove"), conditional=("install_many", "remove"),
    )
    add(
        "persist", "persist.log", "repro.persist.manager", "PersistenceManager",
        ("log_put", "log_ops"), conditional=("log_ops",),
    )
    add(
        "persist", "persist.checkpoint", "repro.persist.manager",
        "PersistenceManager", ("checkpoint",), conditional=("checkpoint",),
    )
    add("backing", "backing.put", "repro.backing.database", "BackingDatabase", ("put",))
    add("cdc", "cdc.feed", "repro.cdc.feed", "ChangeFeed", ("record",))
    add("cdc", "cdc.pump", "repro.cdc.pump", "CdcPump", ("step",), int)
    add("cdc", "cdc.pump", "repro.cdc.pump", "CdcPump", ("settle",), conditional=("settle",))
    add(
        "distrib", "distrib.route", "repro.client.procs",
        "AsyncProcClusterClient", ("scan", "put"),
    )
    add(
        "distrib", "distrib.refresh", "repro.client.procs",
        "AsyncProcClusterClient", ("refresh_map",), conditional=("refresh_map",),
    )
    return out


TARGETS: Tuple[Target, ...] = tuple(_targets())
SPAN_NAMES: Tuple[str, ...] = tuple(t.span for t in TARGETS)

#: One recorded span: (target index, start, end, parent span or -1,
#: client op index, measured extra).  A span's number is its position
#: in :attr:`Analysis.spans`, in the order the calls began.
Span = Tuple[int, float, float, int, int, int]


class Tracer:
    """Installs, enables and reads back the wrappers of :data:`TARGETS`."""

    def __init__(self) -> None:
        self.enabled = False
        self.current_op = -1
        #: Finished spans, each behind its number, in the order the
        #: calls *ended* (``list.append`` and ``next(count)`` are atomic,
        #: so two threads need no lock).
        self._closed: List[Tuple[int, Span]] = []
        self._numbers = count()
        self._driver = get_ident()
        self._driver_stack: List[int] = []
        self._stacks: Dict[int, List[int]] = {self._driver: self._driver_stack}
        #: Spans recorded on a thread other than the one that drives
        #: the ops.
        self.foreign_calls = 0
        self._patched: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        """Swap every target for its wrapper (pass-through until
        ``enabled`` is set).  Classes are patched in place, so every
        instance — and every caller that looks the method up at call
        time — goes through the wrapper; module-level functions are
        patched on their module, which is how their callers reach them
        (``protocol.encode_request(...)``)."""
        for index, target in enumerate(TARGETS):
            module = importlib.import_module(target.module)
            owner = getattr(module, target.owner) if target.owner else module
            original = inspect.getattr_static(owner, target.attr)
            setattr(owner, target.attr, self._wrap(original, index, target.measure))
            self._patched.append((owner, target.attr, original))

    def uninstall(self) -> None:
        self.enabled = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, index: int, measure):
        if inspect.iscoroutinefunction(fn):
            wrapper = self._wrap_coroutine(fn, index)
        elif inspect.isgeneratorfunction(fn):
            wrapper = self._wrap_generator(fn, index)
        else:
            wrapper = self._wrap_plain(fn, index, measure)
        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self) -> Tuple[int, int, List[int]]:
        """Begin a span on the calling thread; returns its number, its
        parent and the thread's stack (now with the span on top)."""
        ident = get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        if stack:
            parent = stack[-1]
        elif ident != self._driver and self._driver_stack:
            parent = self._driver_stack[-1]
        else:
            parent = -1
        if ident != self._driver:
            self.foreign_calls += 1
        number = next(self._numbers)
        stack.append(number)
        return number, parent, stack

    def _wrap_plain(self, fn, index: int, measure):
        tracer = self
        closed = self._closed

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            # The clock is read first and last, so the wrapper's own
            # bookkeeping counts as this function's time, not its
            # caller's.
            start = perf_counter()
            number, parent, stack = tracer._open()
            op = tracer.current_op
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                closed.append((number, (index, start, perf_counter(), parent, op, 0)))
                raise
            stack.pop()
            extra = measure(result) if measure is not None else 0
            closed.append((number, (index, start, perf_counter(), parent, op, extra)))
            return result

        return wrapper

    def _wrap_coroutine(self, fn, index: int):
        tracer = self
        closed = self._closed

        async def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            start = perf_counter()
            number, parent, stack = tracer._open()
            op = tracer.current_op
            try:
                return await fn(*args, **kwargs)
            finally:
                # Concurrent coroutines (a gather) may finish out of
                # stack order; remove this span wherever it sits.
                if stack and stack[-1] == number:
                    stack.pop()
                elif number in stack:
                    stack.remove(number)
                closed.append((number, (index, start, perf_counter(), parent, op, 0)))

        return wrapper

    def _wrap_generator(self, fn, index: int):
        """A generator runs in slices between its consumer's own work;
        its span is the sum of those slices, laid out from the first
        resume, and spans started inside a slice are its children."""
        tracer = self
        closed = self._closed

        def timed(iterator, op):
            # The span begins at the first resume, so a generator that
            # is never started leaves no unfinished span behind.
            first = perf_counter()
            number, parent, stack = tracer._open()
            stack.pop()
            busy = 0.0
            try:
                while True:
                    stack.append(number)
                    start = perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        busy += perf_counter() - start
                        stack.pop()
                    yield item
            finally:
                closed.append((number, (index, first, first + busy, parent, op, 0)))

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            if not tracer.enabled:
                return iterator
            return timed(iterator, tracer.current_op)

        return wrapper

    # ------------------------------------------------------------------
    def analyse(self) -> "Analysis":
        spans = [span for _number, span in sorted(self._closed)]
        if len(spans) != next(self._numbers):
            raise RuntimeError("a traced call never finished")
        return Analysis(spans, self.foreign_calls)


class Analysis:
    """Self times, call counts and measured extras per span name."""

    def __init__(self, spans: Sequence[Span], foreign_calls: int) -> None:
        n = len(TARGETS)
        self.spans = spans
        self.foreign_calls = foreign_calls
        self.calls = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.extra = [0] * n
        #: Seconds of child time that exceeded a parent's own duration
        #: (overlapping children); feeds ``bench.span_sum_error``.
        self.clamped_s = 0.0
        child_s = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]
        for i, span in enumerate(spans):
            index = span[0]
            duration = span[2] - span[1]
            own = duration - child_s[i]
            if own < 0.0:
                self.clamped_s -= own
                own = 0.0
            self.calls[index] += 1
            self.total_s[index] += duration
            self.self_s[index] += own
            self.extra[index] += span[5]

    # ------------------------------------------------------------------
    def _sum(self, values: Sequence[float], **where: str) -> float:
        """Sum ``values`` over the targets whose fields match."""
        return sum(
            values[i]
            for i, target in enumerate(TARGETS)
            if all(getattr(target, field) == want for field, want in where.items())
        )

    def group_self_s(self, group: str) -> float:
        return self._sum(self.self_s, group=group)

    def group_calls(self, group: str) -> int:
        return int(self._sum(self.calls, group=group))

    def span_total_s(self, span: str) -> float:
        return self.total_s[SPAN_NAMES.index(span)]

    def span_calls(self, span: str) -> int:
        return self.calls[SPAN_NAMES.index(span)]

    def span_extra(self, span: str) -> int:
        return self.extra[SPAN_NAMES.index(span)]

    def all_self_s(self) -> float:
        return sum(self.self_s)

    def self_s_by_layer(self) -> Dict[str, float]:
        """Self time per layer, sub-tags (``client.rpc``, ``net.server``)
        folded into their layer."""
        out: Dict[str, float] = {}
        for i, target in enumerate(TARGETS):
            layer = target.layer.split(".")[0]
            out[layer] = out.get(layer, 0.0) + self.self_s[i]
        return out

    def ops_containing(self, span: str) -> List[int]:
        index = SPAN_NAMES.index(span)
        return sorted({s[4] for s in self.spans if s[0] == index})

    def max_backlog(self, produce: str, consume: str) -> int:
        """Largest number of ``produce`` calls not yet covered by the
        ``consume`` spans' measured results.  What was already pending
        when recording began shows as the running count going negative,
        so the count is taken from its lowest point."""
        p, c = SPAN_NAMES.index(produce), SPAN_NAMES.index(consume)
        events = sorted(
            (s[2], 1 if s[0] == p else -s[5]) for s in self.spans if s[0] in (p, c)
        )
        backlog = lowest = highest = 0
        for _at, delta in events:
            backlog += delta
            lowest = min(lowest, backlog)
            highest = max(highest, backlog)
        return highest - lowest

    def unexpected(self, active_layers) -> List[str]:
        """The wrapper self-check: a wrapper that never fired on a
        workload whose table row says its layer works (unless the
        function is conditional), one that fired where the layer should
        be idle, or calls off the driving thread on a workload that
        serves nothing from a second thread."""
        problems = []
        for i, target in enumerate(TARGETS):
            if target.layer in active_layers:
                if self.calls[i] == 0 and not target.conditional:
                    problems.append(f"{target.span} never fired")
            elif self.calls[i]:
                problems.append(
                    f"{target.span} fired {self.calls[i]}x but layer "
                    f"{target.layer!r} should be idle"
                )
        if self.foreign_calls and "net.server" not in active_layers:
            problems.append(
                f"{self.foreign_calls} wrapped calls ran on another thread, "
                "where only an in-process RPC server may run"
            )
        return problems

    # ------------------------------------------------------------------
    def write(self, path: str, header: Dict[str, object]) -> None:
        """One JSON document: the header (fingerprint, traced op range),
        the span-name table, per-name aggregates and every span as
        columns, times in µs from the first span's start."""
        spans = self.spans
        origin = spans[0][1] if spans else 0.0

        def us(t: float) -> float:
            return round((t - origin) * 1e6, 2)

        doc = dict(header)
        doc["span_names"] = list(SPAN_NAMES)
        doc["by_name"] = {
            name: {
                "layer": TARGETS[i].layer,
                "group": TARGETS[i].group,
                "calls": self.calls[i],
                "total_us": round(self.total_s[i] * 1e6, 2),
                "self_us": round(self.self_s[i] * 1e6, 2),
            }
            for i, name in enumerate(SPAN_NAMES)
        }
        doc["spans"] = {
            "name": [s[0] for s in spans],
            "start_us": [us(s[1]) for s in spans],
            "end_us": [us(s[2]) for s in spans],
            "parent": [s[3] for s in spans],
            "op": [s[4] for s in spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
