"""Weak-instance machinery: consistency, reduction, query answering —
one-shot (:mod:`repro.weak.representative`), served live across
updates (:mod:`repro.weak.service`, :mod:`repro.weak.sharded`),
durable on disk (:mod:`repro.weak.durable`), and multi-client
(:mod:`repro.weak.server`)."""

from repro.weak.consistency import (
    SemijoinStep,
    full_reduce,
    full_reducer_program,
    is_globally_consistent,
    is_pairwise_consistent,
    semijoin,
)
from repro.weak.durable import (
    DurableServiceStats,
    DurableShardedService,
    DurableUnavailableError,
)
from repro.weak.equivalence import information_contains, information_equivalent
from repro.weak.representative import derivable, representative_instance, window
from repro.weak.server import ServerStoppedError, WeakInstanceServer
from repro.weak.service import LiveTableau, ServiceStats, WeakInstanceService
from repro.weak.sharded import ShardedServiceStats, ShardedWeakInstanceService

__all__ = [
    "information_contains",
    "information_equivalent",
    "semijoin",
    "SemijoinStep",
    "full_reducer_program",
    "full_reduce",
    "is_pairwise_consistent",
    "is_globally_consistent",
    "representative_instance",
    "window",
    "derivable",
    "WeakInstanceService",
    "ServiceStats",
    "LiveTableau",
    "ShardedWeakInstanceService",
    "ShardedServiceStats",
    "DurableShardedService",
    "DurableServiceStats",
    "DurableUnavailableError",
    "WeakInstanceServer",
    "ServerStoppedError",
]
