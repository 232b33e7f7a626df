"""Seeded input generator for the ledger: follow graph, prepopulated
posts and the Twip op stream (paper §5.1).

Imports nothing from ``repro``: a change under ``src/`` cannot move
the inputs, and the program under test sees only the generated keys
and values.  The same seed always yields the same graph, the same
prepopulated posts and the same op stream.

Key schema (ticks zero-padded so key order is time order)::

    s|<user>|<poster>          follow edge, value "1"
    p|<poster>|<tick>          post, value = its text
    t|<user>|<tick>|<poster>   timeline row (computed by the join)
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import Dict, List, NamedTuple, Sequence, Tuple

TIMELINE_JOIN = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)

N_USERS = 2000
MEAN_FOLLOWS = 20
ATTACHMENT_BIAS = 0.85
MAX_FOLLOWERS = 1100
#: Seed of the one preferential-attachment run that fixes the graph's
#: in-degree sequence for every ``--seed`` (see :func:`_in_degrees`).
SHAPE_SEED = 20140402
ACTIVE_FRACTION = 0.7
PREPOPULATED_POSTS = 8_000
TICK_WIDTH = 10
POST_CHARS = 300

LOGIN, CHECK, SUBSCRIBE, POST = 0, 1, 2, 3
KIND_NAMES = ("login", "check", "subscribe", "post")


class Op(NamedTuple):
    """One client action, fully resolved to the call it makes.

    Reads: ``client.scan(a, b)``; writes: ``client.put(a, b)``.
    ``user`` is the reader (reads) or the writer (writes); ``arg`` is
    the first tick a read covers (0 for a login), the followee of a
    subscribe, or the tick of a post.
    """

    kind: int
    a: str
    b: str
    user: int
    arg: int


def user_name(i: int) -> str:
    return f"u{i:04d}"


def tick_str(tick: int) -> str:
    return f"{tick:0{TICK_WIDTH}d}"


def post_text(poster: int, tick: int) -> str:
    """Unique per post, so a timeline's values identify its posts;
    padded to a full 140-character tweet."""
    return f"{user_name(poster)} says {tick} ".ljust(POST_CHARS, ".")


class Inputs:
    """Everything one run feeds the program, derived from ``seed``.

    The seed decides who follows whom, who is active, who reads,
    subscribes and posts when.  It does not decide the *shape* of the
    input — the in-degree sequence, the number of ops of each kind, how
    post fan-out is distributed — so that two seeds load the program
    alike and a metric's spread across seeds is noise, not input.
    """

    def __init__(
        self, seed: int, mix: Sequence[float], segments: Sequence[int]
    ) -> None:
        """``segments`` are the lengths of the stream's parts (warm-up,
        timed); each part gets its own exact op-kind counts and its own
        systematic sample of posters."""
        self.seed = seed
        self.mix = tuple(mix)
        self.segments = tuple(segments)
        rng = random.Random(seed)
        #: by_rank[r] is the user with the r-th largest follower count.
        by_rank = list(range(N_USERS))
        rng.shuffle(by_rank)
        self.edges = _follow_edges(rng, by_rank)
        self.max_followers = _in_degrees()[0]
        self.prepop = list(
            zip(_posters(rng, by_rank, PREPOPULATED_POSTS), range(PREPOPULATED_POSTS))
        )
        order = list(range(N_USERS))
        rng.shuffle(order)
        active = order[: int(N_USERS * ACTIVE_FRACTION)]
        self.ops = _op_stream(rng, self.mix, self.segments, active, by_rank)
        #: The (key, value) pairs set-up loads, built once so that
        #: ``setup_s`` times the program and not this formatting.
        self.edge_pairs: List[Tuple[str, str]] = [
            (f"s|{user_name(a)}|{user_name(b)}", "1") for a, b in self.edges
        ]
        self.prepop_pairs: List[Tuple[str, str]] = [
            (f"p|{user_name(p)}|{tick_str(t)}", post_text(p, t))
            for p, t in self.prepop
        ]

    def fingerprint(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "users": N_USERS,
            "edges": len(self.edges),
            "max_followers": self.max_followers,
            "prepopulated_posts": PREPOPULATED_POSTS,
            "post_chars": POST_CHARS,
            "mix_login_subscribe_check_post": list(self.mix),
            "ops_per_segment": list(self.segments),
        }


@lru_cache(maxsize=1)
def _in_degrees() -> Tuple[int, ...]:
    """The follower counts every seed's graph has, largest first.

    Preferential attachment: each chosen followee joins a pool that
    later picks draw from with probability ``ATTACHMENT_BIAS``, so
    in-degree is heavy-tailed; a user stops gaining followers at
    ``MAX_FOLLOWERS``.  Run once from a fixed seed: the process has a
    high variance in its top few degrees, and those decide the largest
    fan-outs and the cache footprint.
    """
    rng = random.Random(SHAPE_SEED)
    pool: List[int] = []
    seen = set()
    followers = [0] * N_USERS
    edges = 0
    while edges < N_USERS * MEAN_FOLLOWS:
        follower = rng.randrange(N_USERS)
        if pool and rng.random() < ATTACHMENT_BIAS:
            followee = pool[rng.randrange(len(pool))]
        else:
            followee = rng.randrange(N_USERS)
        if (
            followee == follower
            or (follower, followee) in seen
            or followers[followee] >= MAX_FOLLOWERS
        ):
            continue
        seen.add((follower, followee))
        followers[followee] += 1
        pool.append(followee)
        edges += 1
    return tuple(sorted(followers, reverse=True))


def _follow_edges(rng: random.Random, by_rank: List[int]) -> List[Tuple[int, int]]:
    """Draw each user's followers uniformly, as many as its rank's
    fixed in-degree."""
    edges: List[Tuple[int, int]] = []
    for followee, degree in zip(by_rank, _in_degrees()):
        for pick in rng.sample(range(N_USERS - 1), degree):
            edges.append((pick + (pick >= followee), followee))
    rng.shuffle(edges)
    return edges


@lru_cache(maxsize=1)
def _post_weights() -> Tuple[float, ...]:
    """Cumulative posting weight by rank: likelihood ∝ log(follower
    count) (§5.1)."""
    return tuple(accumulate(math.log(n + math.e) for n in _in_degrees()))


def _posters(rng: random.Random, by_rank: List[int], count: int) -> List[int]:
    """``count`` posters by weight, in random order.  Ranks are taken
    at the midpoints of ``count`` equal slices of the cumulative weight
    (systematic sampling), so every seed's posts have the same fan-out
    distribution; the seed decides which user holds each rank."""
    if not count:
        return []
    cum_weights = _post_weights()
    step = cum_weights[-1] / count
    posters = [
        by_rank[bisect_right(cum_weights, (k + 0.5) * step)] for k in range(count)
    ]
    rng.shuffle(posters)
    return posters


def _kinds(rng: random.Random, mix: Sequence[float], n_ops: int) -> List[int]:
    """Exactly ``mix`` shares of each kind (checks take the rounding
    remainder), in random order."""
    login_p, subscribe_p, _check_p, post_p = mix
    counts = {
        LOGIN: round(n_ops * login_p),
        SUBSCRIBE: round(n_ops * subscribe_p),
        POST: round(n_ops * post_p),
    }
    counts[CHECK] = n_ops - sum(counts.values())
    kinds = [kind for kind, count in sorted(counts.items()) for _ in range(count)]
    rng.shuffle(kinds)
    return kinds


def _op_stream(
    rng: random.Random,
    mix: Sequence[float],
    segments: Sequence[int],
    active: List[int],
    by_rank: List[int],
) -> List[Op]:
    """The closed-loop client's actions, in order.  Op ``i`` happens
    at tick ``PREPOPULATED_POSTS + i``; a check scans from the tick of
    the user's previous login or check (from 0 if there was none)."""
    kinds: List[int] = []
    post_order: List[int] = []
    for length in segments:
        part = _kinds(rng, mix, length)
        kinds.extend(part)
        post_order.extend(_posters(rng, by_rank, part.count(POST)))
    posters = iter(post_order)
    last_seen: Dict[int, int] = {}
    ops: List[Op] = []
    for i, kind in enumerate(kinds):
        tick = PREPOPULATED_POSTS + i
        if kind <= CHECK:
            user = active[rng.randrange(len(active))]
            since = 0 if kind == LOGIN else last_seen.get(user, 0)
            last_seen[user] = tick
            name = user_name(user)
            ops.append(
                Op(kind, f"t|{name}|{tick_str(since)}", f"t|{name}}}", user, since)
            )
        elif kind == SUBSCRIBE:
            user = active[rng.randrange(len(active))]
            target = rng.randrange(N_USERS - 1)
            target += target >= user
            ops.append(
                Op(
                    SUBSCRIBE,
                    f"s|{user_name(user)}|{user_name(target)}",
                    "1",
                    user,
                    target,
                )
            )
        else:
            poster = next(posters)
            ops.append(
                Op(
                    POST,
                    f"p|{user_name(poster)}|{tick_str(tick)}",
                    post_text(poster, tick),
                    poster,
                    tick,
                )
            )
    return ops
