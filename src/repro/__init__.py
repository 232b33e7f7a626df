"""repro: a reproduction of Pequod (NSDI '14), "Easy Freshness with
Pequod Cache Joins".

Pequod is a distributed application-level key-value cache supporting
*cache joins*: declaratively defined, incrementally maintained,
dynamic, partially materialized views.  This package implements the
paper's system and every substrate it depends on, in pure Python:

* ``repro.client`` — the unified client API: one ``PequodClient``
  interface with local, RPC, and cluster backends plus a fluent join
  builder;
* ``repro.core`` — cache joins, query execution, incremental
  maintenance, the single-node :class:`PequodServer`;
* ``repro.store`` — the ordered store (a blocked sorted array, interval
  trees, tables/subtables, value charging);
* ``repro.backing`` — a backing database with a change feed, and the
  cache deployments (write-around / write-through / lookaside);
* ``repro.net`` — a binary RPC protocol over asyncio TCP and a
  deterministic simulated network;
* ``repro.distrib`` — distributed Pequod: partitioning, cross-server
  subscriptions, clusters;
* ``repro.baselines`` — the comparison systems of the paper's
  evaluation (client-managed Pequod, Redis-like, memcached-like,
  PostgreSQL-like);
* ``repro.apps`` — the example applications Twip and Newp with
  workload generators;
* ``repro.bench`` — the harness and cost model that regenerate the
  paper's Figures 7–10.  This system's own end-to-end performance is
  measured by the ledger (``ledger/run.py``), outside the package.

Quickstart::

    from repro import PequodServer

    srv = PequodServer()
    srv.add_join("t|<user>|<time>|<poster> = "
                 "check s|<user>|<poster> copy p|<poster>|<time>")
    srv.put("s|ann|bob", "1")
    srv.put("p|bob|0100", "hello, world!")
    print(srv.scan_prefix("t|ann|"))
"""

from .core import (
    AggValue,
    CacheJoin,
    ChangeKind,
    GrammarError,
    JoinError,
    MaintenanceType,
    Pattern,
    PatternError,
    PequodServer,
    SimClock,
    Source,
    SystemClock,
    parse_join,
    parse_joins,
)
from .store import (
    OrderedStore,
    StoreStats,
    WriteBatch,
    prefix_upper_bound,
)
from .client import (
    ClientError,
    ClusterClient,
    JoinBuilder,
    JoinSpecError,
    LocalClient,
    PequodClient,
    RemoteClient,
    join,
    make_client,
)

__version__ = "1.1.0"

__all__ = [
    "AggValue",
    "CacheJoin",
    "ChangeKind",
    "ClientError",
    "ClusterClient",
    "JoinBuilder",
    "JoinSpecError",
    "LocalClient",
    "PequodClient",
    "RemoteClient",
    "join",
    "make_client",
    "GrammarError",
    "JoinError",
    "MaintenanceType",
    "OrderedStore",
    "Pattern",
    "PatternError",
    "PequodServer",
    "SimClock",
    "Source",
    "StoreStats",
    "SystemClock",
    "WriteBatch",
    "parse_join",
    "parse_joins",
    "prefix_upper_bound",
    "__version__",
]
