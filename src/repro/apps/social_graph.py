"""Synthetic social graph generation.

The paper's Twip experiments use the 2009 Twitter social graph (40M
users, 1.4B edges; a 1.8M-user / 72M-edge sample for single-machine
runs).  That dataset is not redistributable, so this module generates
graphs with the properties the evaluation actually depends on:

* heavy-tailed in-degree — a few celebrities with enormous follower
  counts (the §2.3 celebrity-join motivation);
* realistic mean out-degree ("Twitter users average more than 100
  subscriptions each"; scaled down with graph size);
* deterministic given a seed, so experiments are reproducible.

Generation uses the preferential-attachment pool trick: each chosen
follow target is appended to a pool, so future picks land on already-
popular users proportionally to their in-degree.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence, Tuple


class SocialGraph:
    """A directed follow graph: ``edges`` are (follower, followee)."""

    def __init__(self, users: List[str], edges: List[Tuple[str, str]]) -> None:
        self.users = users
        self.edges = edges
        self.following: Dict[str, List[str]] = {u: [] for u in users}
        self.followers: Dict[str, List[str]] = {u: [] for u in users}
        for follower, followee in edges:
            self.following[follower].append(followee)
            self.followers[followee].append(follower)

    # ------------------------------------------------------------------
    def follower_count(self, user: str) -> int:
        return len(self.followers.get(user, ()))

    def celebrities(self, threshold: int) -> List[str]:
        """Users with more followers than ``threshold`` (§2.3)."""
        return [u for u in self.users if self.follower_count(u) > threshold]

    def max_follower_count(self) -> int:
        return max((self.follower_count(u) for u in self.users), default=0)

    def mean_out_degree(self) -> float:
        if not self.users:
            return 0.0
        return len(self.edges) / len(self.users)

    def post_weight(self, user: str) -> float:
        """Posting likelihood ∝ log of follower count (§5.1)."""
        return math.log(self.follower_count(user) + math.e)

    def load_into(
        self,
        client,
        table: str = "s",
        value: str = "1",
        batch_size: int = 256,
    ) -> int:
        """Write the follow edges as ``table|follower|followee`` keys
        through any :class:`~repro.client.base.PequodClient`, in
        coalesced batches; returns the number of changes applied."""
        applied = 0
        for start in range(0, len(self.edges), max(batch_size, 1)):
            chunk = self.edges[start : start + max(batch_size, 1)]
            applied += client.put_many(
                (f"{table}|{follower}|{followee}", value)
                for follower, followee in chunk
            )
        return applied

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SocialGraph users={len(self.users)} edges={len(self.edges)}>"


def generate_graph(
    n_users: int,
    mean_follows: float = 20.0,
    seed: int = 1,
    attachment_bias: float = 0.85,
) -> SocialGraph:
    """Generate a preferential-attachment follow graph.

    ``attachment_bias`` is the probability a new follow targets the
    popularity pool (rich get richer) versus a uniformly random user;
    higher bias yields heavier tails.
    """
    if n_users < 2:
        raise ValueError("need at least two users")
    rng = random.Random(seed)
    users = [f"u{i:06d}" for i in range(n_users)]
    pool: List[str] = []
    edges: List[Tuple[str, str]] = []
    seen: set = set()
    total_edges = int(n_users * mean_follows)
    order = list(users)
    rng.shuffle(order)
    attempts = 0
    while len(edges) < total_edges and attempts < total_edges * 20:
        attempts += 1
        follower = order[rng.randrange(n_users)]
        if pool and rng.random() < attachment_bias:
            followee = pool[rng.randrange(len(pool))]
        else:
            followee = users[rng.randrange(n_users)]
        if followee == follower or (follower, followee) in seen:
            continue
        seen.add((follower, followee))
        edges.append((follower, followee))
        pool.append(followee)
    return SocialGraph(users, edges)


def degree_histogram(graph: SocialGraph, buckets: Sequence[int]) -> Dict[str, int]:
    """Counts of users by follower-count bucket (for sanity checks)."""
    out: Dict[str, int] = {}
    edges = list(buckets) + [None]
    for user in graph.users:
        count = graph.follower_count(user)
        for i, bound in enumerate(edges):
            if bound is None or count < bound:
                lo = 0 if i == 0 else edges[i - 1]
                label = f"{lo}+" if bound is None else f"{lo}-{bound - 1}"
                out[label] = out.get(label, 0) + 1
                break
    return out
