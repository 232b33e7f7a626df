"""Cache deployments next to a backing database (paper §2).

The paper describes Pequod as a *write-around* cache by default —
application writes go to the database, the database forwards changes,
and the cache loads missed base data on demand — and notes that
write-through and lookaside deployments are also possible.  §5.1 runs
the evaluation in lookaside mode because database notification was a
bottleneck.  All three are implemented here:

* :class:`WriteAroundDeployment` — writes to the DB; the DB's change
  feed keeps cached base data fresh.
* :class:`WriteThroughDeployment` — writes go to the DB and the cache
  synchronously (read-your-own-writes for a single client).
* :class:`LookasideDeployment` — writes go directly to the cache; the
  DB, if any, is bypassed.  This is the evaluation configuration.

Each deployment installs a :class:`CachedBaseResolver` so join
execution transparently loads missing base ranges from the database
(§3.3), and drains the database's :class:`~repro.cdc.feed.ChangeFeed`
into it with a :class:`~repro.cdc.pump.CdcPump`.  The resolver keeps
the records a mirrored range covers and drops the rest.

The classes here model the arrangements in-process and synchronously:
they settle the pump after every write and before every read.  The
*deployable* write-around path is ``PequodServer(mode="write-around")``,
where the same pump runs behind the writes (with fenced backfill for
cold caches), and ``settle_cdc()`` bounds the asynchrony window.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from ..cdc.pump import CdcPump
from ..core.executor import JoinEngine
from ..core.mirror import MirrorResolver
from ..core.server import PequodServer
from .database import BackingDatabase


class CachedBaseResolver(MirrorResolver):
    """Mirrors base tables from the database (§3.3): the database
    adapter of :class:`~repro.core.mirror.MirrorResolver`.

    The database is home to every slice of a base table; a fetch is one
    range query.  The resolver is also the apply target of the pump
    draining the database's feed: changes to mirrored ranges flow into
    the cache and trigger ordinary join maintenance, and the rest are
    dropped, so forgetting a range needs no unsubscribe.  Mirrored
    ranges join the server's LRU so memory pressure can push them out
    (§2.5's "cached base data, loaded on demand").
    """

    def __init__(
        self, db: BackingDatabase, base_tables: Set[str], engine: JoinEngine
    ) -> None:
        super().__init__(self._homes, self._fetch, lambda *_: None)
        self.db = db
        self.base_tables = set(base_tables)
        self.engine = engine

    def _homes(self, table: str, lo: str, hi: str):
        return [(lo, hi, "db", False)] if table in self.base_tables else None

    def _fetch(self, home: str, table: str, lo: str, hi: str):
        return self.db.query(lo, hi)

    def apply_batch(self, pairs: List[Tuple[str, Optional[str]]]) -> None:
        """Apply the pump's ``(key, value)`` batch to the mirrored
        ranges it covers."""
        pairs = [pair for pair in pairs if self.covers(pair[0])]
        if pairs:
            self.engine.apply_batch(pairs)


class _BaseDeployment:
    """Shared wiring: a server, a database, the resolver, and the pump
    from the database's feed into the resolver."""

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
        self.pump = CdcPump(
            db, db.feed, self.resolver, consumer=f"deployment-{len(db.feed.cursors)}"
        )

    # Reads always come from the cache, after every change reached it.
    def get(self, key: str) -> Optional[str]:
        self.pump.settle()
        return self.server.get(key)

    def scan(self, first: str, last: str) -> List[Tuple[str, str]]:
        self.pump.settle()
        return self.server.scan(first, last)


class WriteAroundDeployment(_BaseDeployment):
    """Application writes go to the database only (§2)."""

    def put(self, key: str, value: str) -> None:
        self.db.put(key, value)
        self.pump.settle()

    def remove(self, key: str) -> None:
        self.db.remove(key)
        self.pump.settle()


class WriteThroughDeployment(_BaseDeployment):
    """Writes go to both database and cache, synchronously."""

    def put(self, key: str, value: str) -> None:
        self.db.put(key, value)
        # The feed delivers this write only to a mirrored range;
        # applying it directly makes it visible in the cache before
        # any read (read-your-own-writes).
        self.pump.settle()
        self.server.put(key, value)

    def remove(self, key: str) -> None:
        self.db.remove(key)
        self.pump.settle()
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
