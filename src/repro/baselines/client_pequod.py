"""Client Pequod: timelines maintained by application clients (§5.2).

"In 'client Pequod', application clients are responsible for
maintaining timelines.  There are no cache joins.  After making a post,
the posting client sends a timeline update for every subscribed user."

The store is a Pequod cache driven purely as an ordered key-value
store through the unified :class:`~repro.client.base.PequodClient`
(no cache joins installed, so any backend works; the default is an
in-process server).  The client keeps a reverse-subscription index
(``rs|poster|user``) so it can find followers, and pays one RPC per
follower timeline it updates.  The paper splits client Pequod's 1.64x
penalty into RPC overhead and insertion overhead (no output hints, no
value sharing).  Here it differs from server-side Pequod in exactly two
ways: those client RPCs, and no value sharing (§4.3) — no copy join
writes the ``t`` table, so each timeline entry is charged as a private
copy of the tweet.  Output hints (§4.2) are not implemented on either
side, so none of the modeled gap comes from them.
"""

from __future__ import annotations

from typing import List, Optional

from ..client.base import PequodClient
from ..client.local import LocalClient
from ..core.server import PequodServer
from ..store.keys import prefix_upper_bound
from .base import Tweet, TwipBackend


class ClientPequodBackend(TwipBackend):
    name = "client pequod"

    def __init__(
        self,
        backfill_limit: int = 16,
        client: Optional[PequodClient] = None,
        **server_kwargs,
    ) -> None:
        super().__init__()
        if client is None:
            # No copy join is installed, so the store charges each
            # client-written timeline entry its full payload.
            client = LocalClient(
                PequodServer(stats=self.meter, **server_kwargs)
            )
        self.client = client
        self.backfill_limit = backfill_limit

    # ------------------------------------------------------------------
    def subscribe(self, user: str, poster: str) -> None:
        self.rpc()
        self.client.put(f"s|{user}|{poster}", "1")
        self.rpc()
        self.client.put(f"rs|{poster}|{user}", "1")
        # Backfill: fetch the poster's recent tweets, insert into the
        # follower's timeline (what a real client-managed app does).
        self.rpc()
        recent = self.client.scan(f"p|{poster}|", prefix_upper_bound(f"p|{poster}|"))
        for key, text in recent[-self.backfill_limit :]:
            time = key.rsplit("|", 1)[1]
            self.rpc()
            self.moved(len(text))
            self.client.put(f"t|{user}|{time}|{poster}", text)

    def post(self, poster: str, time: str, text: str) -> None:
        self.rpc()
        self.client.put(f"p|{poster}|{time}", text)
        self.rpc()
        followers = self.client.scan(
            f"rs|{poster}|", prefix_upper_bound(f"rs|{poster}|")
        )
        for key, _ in followers:
            user = key.rsplit("|", 1)[1]
            self.rpc()
            self.moved(len(text))
            self.client.put(f"t|{user}|{time}|{poster}", text)

    def timeline(self, user: str, since: str) -> List[Tweet]:
        self.rpc()
        rows = self.client.scan(f"t|{user}|{since}", prefix_upper_bound(f"t|{user}|"))
        out: List[Tweet] = []
        for key, text in rows:
            _, _, time, poster = key.split("|", 3)
            self.moved(len(text))
            out.append((time, poster, text))
        return out
