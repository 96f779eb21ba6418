"""repro.fleet - N ``repro.serve`` daemons as one logical profiler.

The scale-out layer for campaign workloads: a :class:`FleetCoordinator`
keeps a member table, routes each job by rendezvous
(highest-random-weight) hashing on its exec-layer cache key so
resubmissions land on the member that holds the cached result, fans
``run_many``-style job lists over the members, merges their NDJSON
progress streams (:mod:`~repro.fleet.stream`), and reroutes a dead
member's in-flight jobs to the next member in each key's ranking.  A
failed submit, stream or result fetch marks a member down for
``DOWN_S`` seconds; there is no background prober.  ``LocalFleet``
(:mod:`~repro.fleet.harness`) boots a real N-daemon fleet in-process
for tests and ``pathfinder fleet run --local N``.
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
from .stream import EventMux

__all__ = [
    "EventMux",
    "FleetCampaign",
    "FleetCoordinator",
    "FleetJobRecord",
    "FleetMember",
    "FleetResult",
    "LocalFleet",
    "NoMemberAvailable",
]
