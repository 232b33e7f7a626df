"""Versioned key-space partition maps for the multi-process cluster.

A :class:`PartitionMap` is the routing contract between clients and a
cluster of real server processes: a sorted list of contiguous key
ranges covering the whole key space, each owned by a *primary* node
and mirrored by zero or more *replica* nodes, stamped with a version
that increases on every reassignment.  Clients fetch the map from any
node (the ``partition_map`` RPC), route each operation to the range
owner, and attach the map version to writes; a node that no longer
owns a key answers :class:`WrongOwnerError`, which tells the client
its map is stale — refresh and retry.

Ranges are built *aligned across tables*: the same user-segment split
applied to every table (``p|u500`` splits where ``s|u500`` and
``t|u500`` split), so one user's posts, subscriptions, and timeline
co-locate on one node and cache joins run without cross-node reads of
the join output's own partition.

:class:`HashPartitionMap` wraps the hash :class:`~.partition.
Partitioner` in the same consult interface so the simulated in-process
cluster routes through a map object too, with byte-identical placement
to the historical hash scheme.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..store.keys import SEP
from .partition import Partitioner, stable_hash

#: Exclusive upper bound of the key space.  Sorts after any real key
#: (keys are printable strings well below this code point).
KEYSPACE_END = "\U0010ffff"


class WrongOwnerError(Exception):
    """Raised by a cluster node for an operation it does not own.

    Carries the rejecting node's map version so a client can tell a
    genuinely stale map from a not-yet-activated one (during a
    migration's pending window both sides reject briefly).
    """

    def __init__(self, message: str, map_version: int = 0) -> None:
        super().__init__(message)
        self.map_version = map_version


@dataclass(frozen=True)
class MapRange:
    """One contiguous owned slice ``[lo, hi)`` of the key space."""

    lo: str
    hi: str
    primary: str
    replicas: Tuple[str, ...] = ()

    @property
    def owners(self) -> Tuple[str, ...]:
        return (self.primary,) + self.replicas

    def contains(self, key: str) -> bool:
        return self.lo <= key < self.hi


class PartitionMap:
    """A versioned, contiguous range partitioning of the key space."""

    def __init__(
        self,
        version: int,
        ranges: Sequence[MapRange],
        nodes: Dict[str, Tuple[str, int, int]],
    ) -> None:
        self.version = version
        self.ranges: List[MapRange] = sorted(ranges, key=lambda r: r.lo)
        #: node name -> (host, client port, peer port)
        self.nodes = dict(nodes)
        self._validate()
        self._los = [r.lo for r in self.ranges]

    def _validate(self) -> None:
        if not self.ranges:
            raise ValueError("partition map needs at least one range")
        if self.ranges[0].lo != "":
            raise ValueError("ranges must start at the empty key")
        if self.ranges[-1].hi != KEYSPACE_END:
            raise ValueError("ranges must end at KEYSPACE_END")
        for prev, cur in zip(self.ranges, self.ranges[1:]):
            if prev.hi != cur.lo:
                raise ValueError(
                    f"ranges must tile the key space: gap/overlap between "
                    f"{prev.hi!r} and {cur.lo!r}"
                )
        for r in self.ranges:
            if not r.lo < r.hi:
                raise ValueError(f"empty range at {r.lo!r}")
            for owner in r.owners:
                if owner not in self.nodes:
                    raise ValueError(f"range owner {owner!r} has no address")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def single(
        cls, name: str, address: Tuple[str, int, int], version: int = 1
    ) -> "PartitionMap":
        """A one-node map: the degenerate single-range ring."""
        return cls(
            version,
            [MapRange("", KEYSPACE_END, name)],
            {name: address},
        )

    @classmethod
    def for_tables(
        cls,
        names: Sequence[str],
        nodes: Dict[str, Tuple[str, int, int]],
        tables: Sequence[str] = (),
        splits: Sequence[str] = (),
        replication: int = 1,
        version: int = 1,
    ) -> "PartitionMap":
        """Range-partition ``tables`` by aligned segment ``splits``.

        Each table's section of the key space is cut at
        ``f"{table}|{split}"`` for every split, and the i-th slice of
        *every* table lands on the same node — co-locating one user's
        rows across tables.  Key space outside the named tables tiles
        onto the nodes round-robin with the preceding slice.  Each
        range gets ``replication - 1`` replicas on the nodes following
        its primary (capped by cluster size).
        """
        if not names:
            raise ValueError("need at least one node")
        if replication < 1:
            raise ValueError("replication factor must be >= 1")
        # (cut key, owner index of the slice STARTING at the cut)
        cuts: List[Tuple[str, int]] = []
        for table in sorted(set(tables)):
            cuts.append((table, 0))
            for i, split in enumerate(sorted(set(splits))):
                cuts.append((f"{table}{SEP}{split}", (i + 1) % len(names)))
        cuts.sort()
        n = len(names)
        k = min(replication, n)

        def owners(idx: int) -> Tuple[str, Tuple[str, ...]]:
            primary = names[idx % n]
            reps = tuple(names[(idx + j) % n] for j in range(1, k))
            return primary, reps

        ranges: List[MapRange] = []
        start, idx = "", 0
        for cut, cut_idx in cuts:
            if cut > start:
                primary, reps = owners(idx)
                ranges.append(MapRange(start, cut, primary, reps))
                start = cut
            idx = cut_idx
        primary, reps = owners(idx)
        ranges.append(MapRange(start, KEYSPACE_END, primary, reps))
        return cls(version, ranges, nodes)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _index_of(self, key: str) -> int:
        return bisect.bisect_right(self._los, key) - 1

    def range_for(self, key: str) -> MapRange:
        return self.ranges[self._index_of(key)]

    def owner_of(self, key: str) -> str:
        """The primary node for ``key``."""
        return self.range_for(key).primary

    def replicas_of(self, key: str) -> Tuple[str, ...]:
        return self.range_for(key).replicas

    def is_owner(self, name: str, key: str) -> bool:
        return self.range_for(key).primary == name

    def holds(self, name: str, key: str) -> bool:
        """True when ``name`` is primary *or* replica for ``key``."""
        return name in self.range_for(key).owners

    def slices(self, lo: str, hi: str) -> List[Tuple[str, str, MapRange]]:
        """``[lo, hi)`` cut along range boundaries: ``(slo, shi, range)``
        triples in key order, one per overlapping map range."""
        if not lo < hi:
            return []
        out: List[Tuple[str, str, MapRange]] = []
        i = self._index_of(lo)
        while i < len(self.ranges) and self.ranges[i].lo < hi:
            r = self.ranges[i]
            out.append((max(lo, r.lo), min(hi, r.hi), r))
            i += 1
        return out

    def owns_range(self, name: str, lo: str, hi: str) -> bool:
        """True when ``name`` is primary for every key of ``[lo, hi)``."""
        return all(r.primary == name for _, _, r in self.slices(lo, hi))

    def changed_ranges(
        self, newer: "PartitionMap"
    ) -> List[Tuple[str, str, str, str]]:
        """Slices whose primary differs in ``newer``:
        ``(lo, hi, old_primary, new_primary)``."""
        out: List[Tuple[str, str, str, str]] = []
        for lo, hi, old in self.slices("", KEYSPACE_END):
            for slo, shi, new in newer.slices(lo, hi):
                if new.primary != old.primary:
                    out.append((slo, shi, old.primary, new.primary))
        return out

    # ------------------------------------------------------------------
    # Evolution (each returns a NEW map at version + 1)
    # ------------------------------------------------------------------
    def reassign(
        self,
        lo: str,
        hi: str,
        primary: str,
        replicas: Optional[Tuple[str, ...]] = None,
    ) -> "PartitionMap":
        """Move ownership of ``[lo, hi)`` to ``primary``.

        Boundary ranges are split; by default the displaced primary
        stays on as first replica (it holds a full, fresh copy), with
        the old replica set behind it, truncated to the old factor.
        """
        if primary not in self.nodes:
            raise ValueError(f"unknown node {primary!r}")
        out: List[MapRange] = []
        for r in self.ranges:
            s_lo, s_hi = max(r.lo, lo), min(r.hi, hi)
            if not s_lo < s_hi:  # no overlap
                out.append(r)
                continue
            if r.lo < s_lo:
                out.append(replace(r, hi=s_lo))
            if replicas is not None:
                reps = replicas
            else:
                keep = min(len(r.replicas), max(len(r.owners) - 1, 0))
                reps = tuple(
                    name
                    for name in (r.primary,) + r.replicas
                    if name != primary
                )[:keep]
            out.append(MapRange(s_lo, s_hi, primary, reps))
            if s_hi < r.hi:
                out.append(replace(r, lo=s_hi))
        return PartitionMap(self.version + 1, out, self.nodes)

    def promote(self, dead: str) -> "PartitionMap":
        """Fail ``dead`` out: every range it led promotes its first
        surviving replica; ``dead`` leaves all replica sets and the
        address table."""
        out: List[MapRange] = []
        for r in self.ranges:
            reps = tuple(name for name in r.replicas if name != dead)
            if r.primary == dead:
                if not reps:
                    raise ValueError(
                        f"range [{r.lo!r}, {r.hi!r}) has no replica to "
                        f"promote for dead primary {dead!r}"
                    )
                out.append(MapRange(r.lo, r.hi, reps[0], reps[1:]))
            else:
                out.append(replace(r, replicas=reps))
        nodes = {k: v for k, v in self.nodes.items() if k != dead}
        return PartitionMap(self.version + 1, out, nodes)

    # ------------------------------------------------------------------
    # Wire format (plain lists for the msgpack-ish codec)
    # ------------------------------------------------------------------
    def to_wire(self) -> list:
        return [
            self.version,
            [[r.lo, r.hi, r.primary, list(r.replicas)] for r in self.ranges],
            [[name, list(addr)] for name, addr in sorted(self.nodes.items())],
        ]

    @classmethod
    def from_wire(cls, wire) -> "PartitionMap":
        version, ranges, nodes = wire
        return cls(
            int(version),
            [MapRange(lo, hi, primary, tuple(reps))
             for lo, hi, primary, reps in ranges],
            {name: (addr[0], int(addr[1]), int(addr[2]))
             for name, addr in nodes},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionMap(v{self.version}, {len(self.ranges)} ranges, "
            f"nodes={sorted(self.nodes)})"
        )


class HashPartitionMap:
    """The hash partitioner behind the map-consult interface.

    The simulated in-process cluster routes through this: placement is
    byte-identical to the historical :meth:`Partitioner.home_of`
    scheme (so §5.5 measurements are untouched), but routing code now
    consults a versioned map object the way the process cluster does.
    ``owner_of`` returns ``None`` for keys outside the partitioned
    base tables — those hash over all nodes at the caller's level.
    """

    def __init__(self, partitioner: Partitioner, version: int = 1) -> None:
        self.partitioner = partitioner
        self.version = version

    @property
    def node_names(self) -> List[str]:
        return list(self.partitioner.home_nodes)

    def owner_of(self, key: str) -> Optional[str]:
        home = self.partitioner.home_of(key)
        if home is not None:
            return home
        return self.node_names[stable_hash(key) % len(self.node_names)]

    def home_of(self, key: str) -> Optional[str]:
        """Partitioned-base-table owner, or None (hash-placed)."""
        return self.partitioner.home_of(key)
