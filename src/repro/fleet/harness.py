"""In-process fleet harness: N real daemons on loopback ports.

:class:`LocalFleet` boots N :class:`~repro.serve.daemon.BackgroundServer`
instances - each with its *own* result-cache directory, mirroring
production where members do not share storage (that separation is what
makes cache-affinity routing observable: a hit can only come from the
member that computed the entry) - and wires a
:class:`~repro.fleet.coordinator.FleetCoordinator` over them.
``shared_cache_root`` puts every member's cache over one pull-through
store instead, and ``journal_root`` gives each member a journal that
:meth:`LocalFleet.restart` replays.  Used by ``tests/test_fleet.py``
(mid-campaign kill, resubmission locality, metrics rollup, counter
parity), ``tests/test_durable_serve.py`` and ``pathfinder fleet run
--local N``.

:meth:`LocalFleet.kill` force-stops a member (sockets torn down
mid-request, no drain), which is the failure the coordinator's
failover path exists for: the first request that fails on the dead
member marks it down for ``DOWN_S`` seconds.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Any, List, Optional

from ..serve.daemon import BackgroundServer
from .coordinator import FleetCoordinator

__all__ = ["LocalFleet"]


class LocalFleet:
    """N loopback daemons + one coordinator, as a context manager.

    ::

        with LocalFleet(size=3, workers=1) as fleet:
            result = fleet.coordinator.run_many(jobs)
            fleet.kill(1)            # simulate a member crash
    """

    def __init__(
        self,
        size: int = 3,
        *,
        workers: int = 1,
        queue_depth: int = 64,
        cache_root: Optional[str] = None,
        journal_root: Optional[str] = None,
        shared_cache_root: Optional[str] = None,
        tenants: Any = None,
        **daemon_kwargs: Any,
    ) -> None:
        if size < 1:
            raise ValueError("fleet size must be >= 1")
        self.size = size
        self.workers = workers
        self.queue_depth = queue_depth
        self.daemon_kwargs = daemon_kwargs
        self._own_root = cache_root is None
        self.cache_root = cache_root or tempfile.mkdtemp(prefix="fleet-")
        #: When set, member N journals to ``journal_root/memberN`` -- and
        #: :meth:`restart` replays that directory, so a killed member's
        #: queued jobs survive into its replacement.
        self.journal_root = journal_root
        #: When set, every member's cache becomes a pull-through tier
        #: over this shared store directory.
        self.shared_cache_root = shared_cache_root
        self.tenants = tenants
        self.servers: List[Optional[BackgroundServer]] = [None] * size
        self.coordinator = FleetCoordinator()
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def _boot_member(self, index: int) -> BackgroundServer:
        cache_dir = os.path.join(self.cache_root, f"member{index}")
        os.makedirs(cache_dir, exist_ok=True)
        kwargs = dict(self.daemon_kwargs)
        if self.journal_root is not None:
            kwargs.setdefault(
                "journal_dir",
                os.path.join(self.journal_root, f"member{index}"),
            )
        if self.shared_cache_root is not None:
            kwargs.setdefault("shared_cache", self.shared_cache_root)
        if self.tenants is not None:
            kwargs.setdefault("tenants", self.tenants)
        return BackgroundServer(
            workers=self.workers,
            queue_depth=self.queue_depth,
            cache=cache_dir,
            **kwargs,
        ).start()

    def start(self) -> "LocalFleet":
        if self._started:
            return self
        for index in range(self.size):
            server = self._boot_member(index)
            self.servers[index] = server
            self.coordinator.add_member(("127.0.0.1", server.port))
        self._started = True
        return self

    def stop(self) -> None:
        for index, server in enumerate(self.servers):
            if server is not None:
                try:
                    server.stop(force=True)
                except Exception:  # noqa: BLE001 - teardown best-effort
                    pass
                self.servers[index] = None
        if self._own_root:
            shutil.rmtree(self.cache_root, ignore_errors=True)

    def __enter__(self) -> "LocalFleet":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- chaos -----------------------------------------------------------

    def member_id(self, index: int) -> str:
        server = self.servers[index]
        if server is None:
            raise LookupError(f"member {index} is not running")
        return f"127.0.0.1:{server.port}"

    def kill(self, index: int) -> str:
        """Force-stop member ``index`` (abrupt death, no drain).

        The member stays in the coordinator's table - exactly like a
        production crash, the first request that fails on it marks it
        down and takes it out of routing.  Returns the dead member's id.
        """
        member_id = self.member_id(index)
        server = self.servers[index]
        assert server is not None
        server.stop(force=True)
        self.servers[index] = None
        return member_id

    def restart(self, index: int) -> str:
        """Boot a replacement for a killed member on the same directories.

        The replacement reuses member ``index``'s cache dir and (when the
        fleet has a ``journal_root``) its journal dir, so the daemon's
        recovery replay re-enqueues whatever the killed member still
        owed.  It binds a fresh port, hence joins the coordinator as a
        new member id; the dead id's down mark keeps it out of routing.
        Returns the new member's id.
        """
        if self.servers[index] is not None:
            raise RuntimeError(f"member {index} is still running")
        server = self._boot_member(index)
        self.servers[index] = server
        self.coordinator.add_member(("127.0.0.1", server.port))
        return self.member_id(index)

    def alive(self) -> List[str]:
        return [f"127.0.0.1:{s.port}" for s in self.servers if s is not None]
