"""A PostgreSQL-like relational store with trigger-maintained views.

§5.2: "Although our test version lacks automatically-updated
materialized views, we use triggers to get a similar effect."  This
module implements the equivalent design point: relational tables with
ordered indexes, and row-level triggers that maintain a timeline table
on every post and subscription insert.

Every client statement pays a fixed parse/plan/execute overhead
(``sql_statements``) on top of its index work — the reason the paper
measures PostgreSQL an order of magnitude slower than the key-value
caches even when fully in memory with relaxed durability.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..store.sortedarray import SortedArrayMap
from .base import Tweet, TwipBackend


class MiniRelDB:
    """Just enough relational machinery for trigger-maintained views.

    Tables (the paper's §2.1 schema plus the view):

    * ``posts(poster, time, tweet)`` — B-tree keyed ``(poster, time)``
    * ``subs(user, poster)``        — B-tree keyed ``(user, poster)``
      plus a follower index ``poster -> {user}``
    * ``timeline(user, time, poster, tweet)`` — the trigger-maintained
      view, B-tree keyed ``(user, time, poster)``
    """

    def __init__(self, meter) -> None:
        self.meter = meter
        self.posts = SortedArrayMap()  # (poster, time) -> tweet
        self.subs = SortedArrayMap()  # (user, poster) -> True
        self.followers: Dict[str, Set[str]] = {}
        self.timeline = SortedArrayMap()  # (user, time, poster) -> tweet

    # ------------------------------------------------------------------
    def _statement(self) -> None:
        self.meter.add("sql_statements")

    def _index_write(self, tree: SortedArrayMap) -> None:
        self.meter.tree_descent(len(tree))
        self.meter.add("sql_rows")

    # ------------------------------------------------------------------
    def insert_post(self, poster: str, time: str, tweet: str) -> None:
        self._statement()
        self._index_write(self.posts)
        self.posts.insert((poster, time), tweet)
        self._fire_post_trigger(poster, time, tweet)

    def _fire_post_trigger(self, poster: str, time: str, tweet: str) -> None:
        """Row trigger: copy the post into every follower's timeline."""
        self.meter.add("sql_triggers")
        for user in self.followers.get(poster, ()):  # index lookup
            self.meter.add("sql_trigger_rows")
            self._index_write(self.timeline)
            self.timeline.insert((user, time, poster), tweet)

    def insert_sub(self, user: str, poster: str, backfill_limit: int) -> None:
        self._statement()
        self._index_write(self.subs)
        self.subs.insert((user, poster), True)
        self.followers.setdefault(poster, set()).add(user)
        self._fire_sub_trigger(user, poster, backfill_limit)

    def _fire_sub_trigger(self, user: str, poster: str, limit: int) -> None:
        """Row trigger: backfill the poster's recent posts."""
        self.meter.add("sql_triggers")
        self.meter.tree_descent(len(self.posts))
        recent = list(self.posts.items((poster, ""), (poster, "\U0010ffff")))
        for (p, time), tweet in recent[-limit:]:
            self.meter.add("sql_trigger_rows")
            self._index_write(self.timeline)
            self.timeline.insert((user, time, p), tweet)

    def select_timeline(self, user: str, since: str) -> List[Tweet]:
        self._statement()
        self.meter.tree_descent(len(self.timeline))
        out: List[Tweet] = []
        for (u, time, poster), tweet in self.timeline.items(
            (user, since, ""), (user, "\U0010ffff", "")
        ):
            self.meter.add("sql_rows")
            out.append((time, poster, tweet))
        return out


class SqlViewBackend(TwipBackend):
    name = "postgresql"

    def __init__(self, backfill_limit: int = 16) -> None:
        super().__init__()
        self.db = MiniRelDB(self.meter)
        self.backfill_limit = backfill_limit

    def subscribe(self, user: str, poster: str) -> None:
        self.rpc()
        self.db.insert_sub(user, poster, self.backfill_limit)

    def post(self, poster: str, time: str, text: str) -> None:
        self.rpc()
        self.db.insert_post(poster, time, text)

    def timeline(self, user: str, since: str) -> List[Tweet]:
        self.rpc()
        rows = self.db.select_timeline(user, since)
        for _, _, text in rows:
            self.moved(len(text))
        return rows


class MatViewBackend(TwipBackend):
    """A database with *true materialized views*, refresh-on-read.

    The paper's footnote 3: "Widely-available databases with true
    materialized view support were also evaluated; they performed
    similarly to PostgreSQL."  This models the REFRESH MATERIALIZED
    VIEW design of that era: the timeline view is recomputed per user
    when read while stale, rather than maintained by triggers.  Writes
    are cheap; reads after writes pay a per-user re-join.
    """

    name = "postgresql-matview"

    def __init__(self, backfill_limit: int = 16) -> None:
        super().__init__()
        self.posts = SortedArrayMap()  # (poster, time) -> tweet
        self.subs = SortedArrayMap()  # (user, poster) -> True
        self.view: Dict[str, List[Tweet]] = {}  # user -> sorted timeline
        #: Staleness tracking: a view is fresh when its refresh version
        #: matches the global write version.
        self._write_version = 0
        self._view_version: Dict[str, int] = {}

    def _statement(self) -> None:
        self.meter.add("sql_statements")

    def subscribe(self, user: str, poster: str) -> None:
        self.rpc()
        self._statement()
        self.meter.tree_descent(len(self.subs))
        self.meter.add("sql_rows")
        self.subs.insert((user, poster), True)
        self._write_version += 1

    def post(self, poster: str, time: str, text: str) -> None:
        self.rpc()
        self._statement()
        self.meter.tree_descent(len(self.posts))
        self.meter.add("sql_rows")
        self.posts.insert((poster, time), text)
        self._write_version += 1

    def _refresh(self, user: str) -> None:
        """REFRESH MATERIALIZED VIEW ... restricted to one user."""
        self._statement()
        self.meter.add("sql_view_refreshes")
        rows: List[Tweet] = []
        self.meter.tree_descent(len(self.subs))
        for (u, poster), _ in self.subs.items((user, ""), (user, "\U0010ffff")):
            self.meter.add("sql_rows")
            self.meter.tree_descent(len(self.posts))
            for (p, time), text in self.posts.items(
                (poster, ""), (poster, "\U0010ffff")
            ):
                self.meter.add("sql_rows")
                rows.append((time, p, text))
        rows.sort()
        self.view[user] = rows

    def timeline(self, user: str, since: str) -> List[Tweet]:
        self.rpc()
        self._statement()
        if self._view_version.get(user) != self._write_version:
            self._refresh(user)
            self._view_version[user] = self._write_version
        out = []
        for time, poster, text in self.view.get(user, ()):
            if time >= since:
                self.meter.add("sql_rows")
                self.moved(len(text))
                out.append((time, poster, text))
        return out
