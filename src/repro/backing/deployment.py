"""Cache deployments next to a backing database (paper §2).

The paper describes Pequod as a *write-around* cache by default —
application writes go to the database, the database forwards changes,
and the cache loads missed base data on demand — and notes that
write-through and lookaside deployments are also possible.  §5.1 runs
the evaluation in lookaside mode because database notification was a
bottleneck.  All three are implemented here:

* :class:`WriteAroundDeployment` — writes to the DB; the DB's
  notifications keep cached base data fresh (eventually consistent
  when notifications are queued).
* :class:`WriteThroughDeployment` — writes go to the DB and the cache
  synchronously (read-your-own-writes for a single client).
* :class:`LookasideDeployment` — writes go directly to the cache; the
  DB, if any, is bypassed.  This is the evaluation configuration.

Each deployment installs a :class:`CachedBaseResolver` so join
execution transparently loads missing base ranges from the database
(§3.3) and subscribes to keep them fresh.

The classes here model the arrangements in-process, with synchronous
notification callbacks.  The *deployable* write-around path is
``PequodServer(mode="write-around")``, built on :mod:`repro.cdc`: the
database's durable change feed replaces the synchronous callback, a
``CdcPump`` applies it in batches (with fenced backfill for cold
caches), and ``settle_cdc()`` bounds the asynchrony window.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.executor import JoinEngine
from ..core.mirror import MirrorResolver
from ..core.operators import ChangeKind
from ..core.server import PequodServer
from .database import BackingDatabase
from .notify import Subscription


class CachedBaseResolver(MirrorResolver):
    """Mirrors base tables from the database (§3.3): the database
    adapter of :class:`~repro.core.mirror.MirrorResolver`.

    The database is home to every slice of a base table; a fetch is one
    range query plus a notification subscription, whose changes flow
    into the cache and trigger ordinary join maintenance.  Mirrored
    ranges join the server's LRU so memory pressure can push them out
    (§2.5's "cached base data, loaded on demand").
    """

    def __init__(
        self, db: BackingDatabase, base_tables: Set[str], engine: JoinEngine
    ) -> None:
        super().__init__(self._homes, self._fetch, self._unsubscribe)
        self.db = db
        self.base_tables = set(base_tables)
        self.engine = engine
        self._subscriptions: Dict[Tuple[str, str], Subscription] = {}

    def _homes(self, table: str, lo: str, hi: str):
        return [(lo, hi, "db", False)] if table in self.base_tables else None

    def _fetch(self, home: str, table: str, lo: str, hi: str):
        rows = self.db.query(lo, hi)
        self._subscriptions[(lo, hi)] = self.db.subscribe(lo, hi, self._on_db_change)
        return rows

    def _unsubscribe(self, home: str, table: str, lo: str, hi: str) -> None:
        sub = self._subscriptions.pop((lo, hi), None)
        if sub is not None:
            self.db.unsubscribe(sub)

    def _on_db_change(
        self,
        key: str,
        old_value: Optional[str],
        new_value: Optional[str],
        kind: ChangeKind,
    ) -> None:
        pairs = self.covered([(key, old_value, new_value, kind)])
        if pairs:
            self.engine.apply_batch(pairs)


class _BaseDeployment:
    """Shared wiring: a server, a database, and the resolver."""

    def __init__(
        self,
        server: PequodServer,
        db: BackingDatabase,
        base_tables: Iterable[str],
    ) -> None:
        self.server = server
        self.db = db
        self.resolver = CachedBaseResolver(db, set(base_tables), server.engine)
        server.set_resolver(self.resolver)

    # Reads always come from the cache.
    def get(self, key: str) -> Optional[str]:
        return self.server.get(key)

    def scan(self, first: str, last: str) -> List[Tuple[str, str]]:
        return self.server.scan(first, last)

    def drain(self, limit: Optional[int] = None) -> int:
        """Deliver queued DB notifications (asynchronous deployments)."""
        return self.db.drain_notifications(limit)


class WriteAroundDeployment(_BaseDeployment):
    """Application writes go to the database only (§2)."""

    def put(self, key: str, value: str) -> None:
        self.db.put(key, value)

    def remove(self, key: str) -> None:
        self.db.remove(key)


class WriteThroughDeployment(_BaseDeployment):
    """Writes go to both database and cache, synchronously."""

    def put(self, key: str, value: str) -> None:
        self.db.put(key, value)
        # The DB notification may also deliver this write; applying it
        # directly makes it visible immediately (read-your-own-writes).
        self.server.put(key, value)

    def remove(self, key: str) -> None:
        self.db.remove(key)
        self.server.remove(key)


class LookasideDeployment(_BaseDeployment):
    """Writes go directly to the cache (§5.1's configuration)."""

    def __init__(
        self,
        server: PequodServer,
        db: Optional[BackingDatabase] = None,
        base_tables: Iterable[str] = (),
    ) -> None:
        super().__init__(server, db if db is not None else BackingDatabase(), base_tables)

    def put(self, key: str, value: str) -> None:
        self.server.put(key, value)

    def remove(self, key: str) -> None:
        self.server.remove(key)
