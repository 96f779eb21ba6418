"""repro.fleet - N ``repro.serve`` daemons as one logical profiler.

The scale-out layer for campaign workloads: a
:class:`FleetCoordinator` keeps a health-checked member table
(:mod:`~repro.fleet.health`), routes each job by consistent hashing on
its exec-layer cache key (:mod:`~repro.fleet.ring`) so resubmissions
land on the member that holds the cached result, fans ``run_many``-style
job lists over the members, merges their NDJSON progress streams
(:mod:`~repro.fleet.stream`), and reroutes a dead member's in-flight
jobs to its ring successors with bounded retries.  ``LocalFleet``
(:mod:`~repro.fleet.harness`) boots a real N-daemon fleet in-process for
tests and ``pathfinder fleet run --local N``.
"""

from .coordinator import (
    FleetCampaign,
    FleetCoordinator,
    FleetJobRecord,
    FleetMember,
    FleetResult,
    NoMemberAvailable,
)
from .harness import LocalFleet
from .health import CircuitBreaker, HealthMonitor
from .ring import HashRing
from .stream import EventMux

__all__ = [
    "CircuitBreaker",
    "EventMux",
    "FleetCampaign",
    "FleetCoordinator",
    "FleetJobRecord",
    "FleetMember",
    "FleetResult",
    "HashRing",
    "HealthMonitor",
    "LocalFleet",
    "NoMemberAvailable",
]
