"""The naive Twip model every ledger run is verified against.

Follow sets, posts per poster and, derived from those on demand, each
user's fresh timeline.  The timed loop records only a row count and an
order-free digest per read (:func:`observe`); this model replays the
op stream *after* the timed section and checks each observation, so
verification costs nothing inside a latency sample.

A read whose observation differs from the fresh answer is *stale* if
hiding some of the writes acknowledged shortly before it explains the
observation exactly (timelines only grow in this workload, so a lagging
cache returns the fresh answer minus whole writes).  Anything else is a
failed op.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from itertools import combinations
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .gen import (
    CHECK,
    N_USERS,
    SUBSCRIBE,
    Inputs,
    Op,
    post_text,
    tick_str,
    user_name,
)

#: How far back (in stream ops) an unapplied write may explain a stale
#: read.  The CDC pump drains every 256 records; mirror pushes between
#: node processes land within milliseconds.
STALE_WINDOW_OPS = 4096
#: Most recent relevant writes tried as hidden subsets for one read.
MAX_STALE_CANDIDATES = 12

#: A read that raised, or returned keys outside the scanned range.
BAD_READ = -1

_value = itemgetter(1)


def observe(rows: Sequence[Tuple[str, str]], first: str, last: str) -> Tuple[int, int]:
    """What the timed loop keeps of one scan result: the row count and
    the sum of the values' hashes (post texts are unique, so the sum
    identifies the set of posts).  Keys are checked against the scan
    bounds here and exactly, row by row, in the final state read-back."""
    if rows and not (first <= rows[0][0] and rows[-1][0] < last):
        return BAD_READ, 0
    return len(rows), sum(map(hash, map(_value, rows)))


class Verdict(NamedTuple):
    stale: List[int]  # stream indexes of stale reads
    failed: List[int]  # stream indexes of failed ops


def hash_rows(hasher, rows: Iterable[Tuple[str, str]]) -> None:
    """Feed ``key NUL value LF`` per row (keys and values hold neither
    byte) to ``hasher``."""
    hasher.update("".join(map("%s\x00%s\n".__mod__, rows)).encode())


class TwipModel:
    """Setup state plus every stream write applied so far."""

    def __init__(self, inputs: Inputs) -> None:
        #: follows[u][v] = stream index of the subscribe (-1: set-up).
        self.follows: List[Dict[int, int]] = [{} for _ in range(N_USERS)]
        #: Per poster, in tick order: ticks, stream index of the write,
        #: and a running sum of hash(text) with a leading 0.
        self.ticks: List[List[int]] = [[] for _ in range(N_USERS)]
        self.written_at: List[List[int]] = [[] for _ in range(N_USERS)]
        self.hash_sums: List[List[int]] = [[0] for _ in range(N_USERS)]
        self.texts: List[List[str]] = [[] for _ in range(N_USERS)]
        self.user_bytes = 0
        for key, value in inputs.edge_pairs:
            self.user_bytes += len(key) + len(value)
        for follower, followee in inputs.edges:
            self.follows[follower][followee] = -1
        for poster, tick in inputs.prepop:
            self._post(poster, tick, -1)

    def _post(self, poster: int, tick: int, index: int) -> None:
        text = post_text(poster, tick)
        self.user_bytes += len(f"p|{user_name(poster)}|{tick_str(tick)}") + len(text)
        self.ticks[poster].append(tick)
        self.texts[poster].append(text)
        self.written_at[poster].append(index)
        sums = self.hash_sums[poster]
        sums.append(sums[-1] + hash(text))

    def apply_write(self, op: Op, index: int) -> None:
        if op.kind == SUBSCRIBE:
            self.user_bytes += len(op.a) + len(op.b)
            self.follows[op.user].setdefault(op.arg, index)
        else:
            self._post(op.user, op.arg, index)

    # ------------------------------------------------------------------
    def _from_followee(self, followee: int, since: int) -> Tuple[int, int]:
        ticks = self.ticks[followee]
        if not ticks or ticks[-1] < since:
            return 0, 0
        first = bisect_left(ticks, since)
        sums = self.hash_sums[followee]
        return len(ticks) - first, sums[-1] - sums[first]

    def fresh(self, user: int, since: int) -> Tuple[int, int]:
        """(row count, value-hash sum) of the user's timeline from
        tick ``since``, with every write so far applied."""
        count = digest = 0
        for followee in self.follows[user]:
            n, d = self._from_followee(followee, since)
            count += n
            digest += d
        return count, digest

    def _explains_as_stale(
        self, user: int, since: int, index: int, seen: Tuple[int, int]
    ) -> bool:
        """Does hiding a non-empty set of recent writes turn the fresh
        answer into ``seen``?"""
        horizon = max(index - STALE_WINDOW_OPS, 0)  # set-up writes are -1
        recent: List[Tuple[int, int, int]] = []  # (written_at, followee, post#)
        for followee, subscribed_at in self.follows[user].items():
            if subscribed_at >= horizon:
                recent.append((subscribed_at, followee, -1))
            written_at = self.written_at[followee]
            k = len(written_at) - 1
            while k >= 0 and written_at[k] >= horizon:
                if self.ticks[followee][k] >= since:
                    recent.append((written_at[k], followee, k))
                k -= 1
        recent.sort(reverse=True)
        recent = recent[:MAX_STALE_CANDIDATES]
        fresh = self.fresh(user, since)
        for size in range(1, len(recent) + 1):
            for hidden in combinations(recent, size):
                count, digest = fresh
                unfollowed = {v for _, v, k in hidden if k < 0}
                for followee in unfollowed:
                    n, d = self._from_followee(followee, since)
                    count -= n
                    digest -= d
                for _, followee, k in hidden:
                    if k >= 0 and followee not in unfollowed:
                        sums = self.hash_sums[followee]
                        count -= 1
                        digest -= sums[k + 1] - sums[k]
                if (count, digest) == seen:
                    return True
        return False

    # ------------------------------------------------------------------
    def replay(
        self,
        ops: Sequence[Op],
        seen_count: Sequence[int],
        seen_digest: Sequence[int],
    ) -> Verdict:
        """Apply the stream in order, checking every read observation.
        ``seen_count[i]`` is ``BAD_READ`` for an op that raised."""
        stale: List[int] = []
        failed: List[int] = []
        for index, op in enumerate(ops):
            if op.kind > CHECK:
                if seen_count[index] == BAD_READ:
                    failed.append(index)
                self.apply_write(op, index)
                continue
            seen = (seen_count[index], seen_digest[index])
            if seen == self.fresh(op.user, op.arg):
                continue
            if seen[0] != BAD_READ and self._explains_as_stale(
                op.user, op.arg, index, seen
            ):
                stale.append(index)
            else:
                failed.append(index)
        return Verdict(stale, failed)

    # ------------------------------------------------------------------
    def state_sha256(self) -> str:
        """SHA-256 over the full ``s|``, ``p|``, ``t|`` state, in key
        order — what :func:`read_back_sha256` must reproduce."""
        hasher = hashlib.sha256()
        names = [user_name(u) for u in range(N_USERS)]
        hash_rows(
            hasher,
            (
                (f"s|{names[u]}|{names[v]}", "1")
                for u in range(N_USERS)
                for v in sorted(self.follows[u])
            ),
        )
        hash_rows(
            hasher,
            (
                (f"p|{names[v]}|{tick_str(tick)}", text)
                for v in range(N_USERS)
                for tick, text in zip(self.ticks[v], self.texts[v])
            ),
        )
        for u in range(N_USERS):
            timeline = sorted(
                (tick, v, text)
                for v in self.follows[u]
                for tick, text in zip(self.ticks[v], self.texts[v])
            )
            hash_rows(
                hasher,
                (
                    (f"t|{names[u]}|{tick_str(tick)}|{names[v]}", text)
                    for tick, v, text in timeline
                ),
            )
        return hasher.hexdigest()

    def base_rows(self) -> Tuple[int, int]:
        """(follow edges, posts) the model holds — what a reopened
        durable deployment must still return."""
        return (
            sum(len(f) for f in self.follows),
            sum(len(t) for t in self.ticks),
        )


def read_back_sha256(client) -> str:
    """The same digest as :meth:`TwipModel.state_sha256`, read through
    the client: ``s|`` and ``p|`` whole, ``t|`` one user at a time over
    the range a login scans."""
    hasher = hashlib.sha256()
    hash_rows(hasher, client.scan("s|", "s}"))
    hash_rows(hasher, client.scan("p|", "p}"))
    zero = tick_str(0)
    for u in range(N_USERS):
        name = user_name(u)
        hash_rows(hasher, client.scan(f"t|{name}|{zero}", f"t|{name}}}"))
    return hasher.hexdigest()
