"""Pequod's core: cache joins over an ordered key-value cache.

The paper's primary contribution — declaratively defined, incrementally
maintained, dynamic, partially materialized views for a distributed
key-value cache — lives here.
"""

from .clock import Clock, SimClock, SystemClock
from .eviction import EvictionManager
from .executor import ChangeListener, DataResolver, JoinEngine
from .grammar import GrammarError, parse_join, parse_joins
from .joins import CacheJoin, JoinError, MaintenanceType, Source
from .operators import (
    AGGREGATES,
    CHECK,
    COPY,
    COUNT,
    MAX,
    MIN,
    OPERATORS,
    SUM,
    AggValue,
    ChangeKind,
    UpdateOutcome,
)
from .hub import ChangeEvent, ChangeHub, WatchHandle
from .mirror import MirroredRange, MirrorResolver
from .pattern import Pattern, PatternError, Segment
from .ranges import SlotConstraints
from .server import PequodServer
from .status import (
    PendingEntry,
    RangeState,
    StatusRange,
    StatusTable,
    compact_pending,
)
from .updaters import Updater, install_updater

__all__ = [
    "AGGREGATES",
    "AggValue",
    "CHECK",
    "COPY",
    "COUNT",
    "CacheJoin",
    "ChangeEvent",
    "ChangeHub",
    "ChangeKind",
    "ChangeListener",
    "Clock",
    "DataResolver",
    "EvictionManager",
    "GrammarError",
    "JoinEngine",
    "JoinError",
    "MAX",
    "MIN",
    "MaintenanceType",
    "MirrorResolver",
    "MirroredRange",
    "OPERATORS",
    "Pattern",
    "PatternError",
    "PendingEntry",
    "PequodServer",
    "RangeState",
    "Segment",
    "SimClock",
    "SlotConstraints",
    "Source",
    "StatusRange",
    "StatusTable",
    "SUM",
    "SystemClock",
    "UpdateOutcome",
    "Updater",
    "WatchHandle",
    "compact_pending",
    "install_updater",
    "parse_join",
    "parse_joins",
]
