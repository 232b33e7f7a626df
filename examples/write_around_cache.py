#!/usr/bin/env python3
"""A write-around deployment next to a backing database (§2).

Application writes go to the database; the database's change feed
forwards them to the cache; reads hit the cache, which loads missing
base ranges on demand and keeps them fresh.

Part one uses the in-process ``WriteAroundDeployment``, which drains
the feed into the cache before each write returns.  Part two uses the
deployable write-around mode, where the same feed carries writes to
the cache asynchronously and ``settle_cdc()`` closes the window.

Run:  python examples/write_around_cache.py
"""

from repro import PequodServer
from repro.apps.twip import TIMELINE_JOIN
from repro.backing import BackingDatabase, WriteAroundDeployment
from repro.client import make_client


def on_demand_fetch() -> None:
    db = BackingDatabase()
    cache = PequodServer(subtable_config={"t": 2})
    cache.add_join(TIMELINE_JOIN)
    app = WriteAroundDeployment(cache, db, base_tables={"p", "s"})

    # The application writes to the database only.
    app.put("s|ann|bob", "1")
    app.put("p|bob|0100", "stored durably first")

    print("timeline (cache miss -> DB range fetch):")
    print("  ", app.scan("t|ann|", "t|ann}"))
    print(f"DB range queries so far: {db.query_count}")

    # Cached ranges are not re-read from the database.
    app.scan("t|ann|", "t|ann}")
    print(f"after a warm re-read, DB queries unchanged: {db.query_count}")

    # The change feed keeps the fetched range fresh.
    app.put("p|bob|0200", "notified write")
    print("after a DB write:", app.scan("t|ann|0200", "t|ann}"))
    print(f"DB queries still unchanged: {db.query_count}")

    print(f"cache keys: {cache.key_count()}, "
          f"cache memory: {cache.memory_bytes():,} bytes, "
          f"db rows: {len(db)}")


def asynchrony_window() -> None:
    with make_client("local", mode="write-around") as client:
        client.add_join(TIMELINE_JOIN)
        client.put("s|ann|bob", "1")
        client.settle_cdc()
        client.scan("t|ann|", "t|ann}")

        # A write is in the database at once, in the cache only after
        # the change feed is pumped.
        client.put("p|bob|0300", "async write")
        print("before settle_cdc():", client.scan("t|ann|0300", "t|ann}"))
        applied = client.settle_cdc()
        print(f"after settle_cdc() ({applied} feed records consumed):",
              client.scan("t|ann|0300", "t|ann}"))


def main() -> None:
    print("== on-demand fetch (WriteAroundDeployment) ==")
    on_demand_fetch()
    print("\n== asynchrony window (mode='write-around') ==")
    asynchrony_window()


if __name__ == "__main__":
    main()
