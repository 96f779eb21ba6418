"""The unified PathFinder entry points.

Four verbs cover the whole workflow the paper's evaluation needs:

* :func:`run` - profile one spec on a (default or explicit) machine,
  optionally through the content-addressed result cache;
* :func:`run_many` - execute a whole campaign of specs/jobs with
  worker-pool parallelism, caching, timeouts and retries;
* :func:`compare` - line up two sessions A/B (case 7's workflow);
* :func:`counters` - collapse a session into total counter deltas.

Example::

    from repro import api
    from repro.core import AppSpec, ProfileSpec
    from repro.workloads import SequentialWorkload

    spec = ProfileSpec(apps=[AppSpec(
        workload=SequentialWorkload("seq", 1 << 20, num_ops=4000),
        core=0, membind=0)])
    result = api.run(spec)
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import dataclasses

from .core.diff import SessionDiff, compare_sessions
from .core.profiler import PathFinder, ProfileResult
from .core.spec import ProfileSpec
from .exec.cache import ResultCache, coerce_cache
from .exec.runner import CampaignJob, CampaignResult, run_campaign
from .options import RunOptions, apply_trace, resolve_options
from .sim.fabric import apply_fabric
from .sim.machine import Machine
from .sim.topology import MachineConfig, spr_config

__all__ = ["run", "run_many", "fleet_run_many", "compare", "counters",
           "config_for", "RunOptions"]


def _tiered_cache(cache: Any, shared: Any) -> Optional[ResultCache]:
    """The resolved cache, wrapped in a pull-through tier when shared."""
    resolved = coerce_cache(cache)
    if shared is None:
        return resolved
    if resolved is None:
        raise ValueError(
            "shared_cache needs a local cache tier to hydrate; set "
            "RunOptions.cache as well"
        )
    from .durable.store import PullThroughCache

    return PullThroughCache(resolved.root, shared)


def config_for(spec: ProfileSpec) -> MachineConfig:
    """A default machine sized to fit the spec's pinned cores *and* nodes.

    Node ids follow the machine layout (local DDR first, an optional
    remote-socket DDR node, then one node per CXL device), so a spec
    bound - via ``membind``, ``interleave`` or ``preinstalled`` - to CXL
    node ``n`` gets a machine with enough CXL devices for node ``n`` to
    exist.
    """
    overrides = {"num_cores": max(2, max(a.core for a in spec.apps) + 1)}
    nodes = set()
    for app in spec.apps:
        if app.membind is not None:
            nodes.add(app.membind)
        if app.interleave is not None:
            nodes.update(app.interleave[:2])
        if app.preinstalled is not None:
            nodes.update(app.preinstalled)
    base = spr_config()
    first_cxl = 1 + (1 if base.remote_mem_bytes else 0)
    needed_devices = max(nodes, default=0) - first_cxl + 1
    if needed_devices > base.num_cxl_devices:
        overrides["num_cxl_devices"] = needed_devices
    return spr_config(**overrides)


def run(
    spec: ProfileSpec,
    *,
    options: Optional[RunOptions] = None,
    config: Optional[MachineConfig] = None,
    machine: Optional[Machine] = None,
    on_epoch: Optional[Any] = None,
) -> ProfileResult:
    """Profile one spec and return its :class:`ProfileResult`.

    With no ``machine``, one is built from ``config`` (default: an SPR
    host sized to the spec's cores).  Execution knobs travel in
    ``options`` (a :class:`repro.RunOptions`), the only spelling.
    ``RunOptions(cache=True)`` (or a path / :class:`ResultCache`)
    reuses and populates the content-addressed store; an explicit
    ``machine`` disables caching because its mutated state is not part
    of the cache key.  ``fabric`` (a preset name or
    :class:`~repro.sim.fabric.FabricSpec`) interposes a switched
    multi-host fabric between the machine's root ports and its devices.

    ``live`` (``True`` or a :class:`~repro.live.LiveSpec`) runs the
    profiler in-process with streaming ingestion: each epoch is folded
    into O(1) rolling state and ``on_epoch`` receives one digest dict
    per epoch while the simulation runs.  Live runs are
    incompatible with ``cache``/``timeout``/``retries`` (the point is
    the in-flight stream, not a cached document); for live streaming
    over HTTP submit ``{"live": true}`` to a serve daemon and read
    ``GET /v1/live``.

    A ``timeout`` runs the job on a fresh pool worker (one process
    start per call), which is killed when the limit passes; an untimed
    job runs in this process.
    """
    opts = resolve_options(
        options,
        api="run",
        defaults={"cache": None, "max_events": None, "timeout": None,
                  "retries": 0, "trace": None, "fabric": None,
                  "shared_cache": None, "live": None, "fidelity": "exact"},
    )
    spec = apply_trace(spec, opts["trace"])
    if machine is not None or opts["live"] is not None:
        where = (
            "an explicit machine" if machine is not None else "a live run"
        )
        if opts["cache"] or opts["shared_cache"] is not None:
            raise ValueError(
                f"cache does not apply to {where}: the cached document "
                "cannot carry an explicit machine's state or a live "
                "stream"
            )
        if opts["timeout"] is not None or opts["retries"]:
            raise ValueError(
                f"timeout/retries need the campaign runner; they do not "
                f"apply to {where}"
            )
        if machine is None:
            machine = Machine(
                apply_fabric(
                    config if config is not None else config_for(spec),
                    opts["fabric"],
                )
            )
        elif opts["fabric"] is not None:
            raise ValueError(
                "fabric requires a declarative config; attach one to an "
                "explicit machine with repro.sim.fabric.attach_fabric"
            )
        if opts["max_events"] is not None:
            machine.engine.set_event_budget(opts["max_events"])
        profiler = PathFinder(
            machine, spec, live=opts["live"], on_epoch=on_epoch,
            fidelity=opts["fidelity"],
        )
        return profiler.run()
    job = CampaignJob(
        spec=spec,
        config=apply_fabric(
            config if config is not None else config_for(spec),
            opts["fabric"],
        ),
        max_events=opts["max_events"],
        fidelity=opts["fidelity"],
    )
    campaign = run_campaign(
        [job],
        workers=1,
        parallel=opts["timeout"] is not None,
        cache=_tiered_cache(opts["cache"], opts["shared_cache"]),
        timeout=opts["timeout"],
        retries=opts["retries"],
    )
    record = campaign.jobs[0]
    if not record.ok:
        raise RuntimeError(f"profiling failed ({record.failure}): {record.error}")
    return campaign.results[0]


def _collect_jobs(
    specs: Sequence[Union[ProfileSpec, CampaignJob]],
    config: Optional[MachineConfig],
    tags: Optional[Sequence[str]],
    opts: Dict[str, Any],
) -> List[CampaignJob]:
    """Wrap specs into jobs and fold resolved options into each job.

    ``trace`` rewrites the job's spec (never mutating the caller's);
    ``max_events`` fills jobs that did not set their own budget;
    ``fidelity`` fills jobs still at the exact default; ``fabric``
    rewrites each job's machine config (a job whose config already
    carries a different fabric is a conflict and raises).
    """
    fabric = opts.get("fabric")
    fidelity = opts.get("fidelity")
    jobs: List[CampaignJob] = []
    for i, item in enumerate(specs):
        tag = tags[i] if tags is not None else ""
        if isinstance(item, CampaignJob):
            if tag and not item.tag:
                item.tag = tag
            changes: Dict[str, Any] = {}
            spec = apply_trace(item.spec, opts.get("trace"))
            if spec is not item.spec:
                changes["spec"] = spec
            if opts.get("max_events") is not None and item.max_events is None:
                changes["max_events"] = opts["max_events"]
            if fidelity not in (None, "exact") and item.fidelity == "exact":
                changes["fidelity"] = fidelity
            if fabric is not None:
                if item.config.fabric is not None:
                    raise ValueError(
                        f"job {item.tag or i}: fabric set both on the job's "
                        "config and via options; set it in one place"
                    )
                changes["config"] = apply_fabric(item.config, fabric)
            jobs.append(dataclasses.replace(item, **changes) if changes else item)
        else:
            jobs.append(
                CampaignJob(
                    spec=apply_trace(item, opts.get("trace")),
                    config=apply_fabric(
                        config if config is not None else config_for(item),
                        fabric,
                    ),
                    tag=tag,
                    max_events=opts.get("max_events"),
                    fidelity=opts.get("fidelity") or "exact",
                )
            )
    return jobs


def run_many(
    specs: Sequence[Union[ProfileSpec, CampaignJob]],
    *,
    options: Optional[RunOptions] = None,
    config: Optional[MachineConfig] = None,
    parallel: bool = True,
    workers: Optional[int] = None,
    tags: Optional[Sequence[str]] = None,
) -> CampaignResult:
    """Execute a campaign of profiling jobs; see :func:`repro.exec.run_campaign`.

    Accepts plain :class:`ProfileSpec` items (wrapped into jobs, with
    ``config`` or a per-spec default machine) or pre-built
    :class:`CampaignJob` items for full control (setup hooks, per-job
    budgets).  Execution knobs travel in ``options``
    (:class:`repro.RunOptions`).  Caching defaults ON for campaigns -
    reruns and overlapping sweeps resolve from ``results/cache/``.
    """
    opts = resolve_options(
        options,
        api="run_many",
        defaults={"cache": True, "max_events": None, "timeout": None,
                  "retries": 1, "trace": None, "fabric": None,
                  "shared_cache": None, "fidelity": "exact"},
    )
    jobs = _collect_jobs(specs, config, tags, opts)
    return run_campaign(
        jobs,
        workers=workers,
        parallel=parallel,
        cache=_tiered_cache(opts["cache"], opts["shared_cache"]),
        timeout=opts["timeout"],
        retries=opts["retries"],
    )


def fleet_run_many(
    specs: Sequence[Union[ProfileSpec, CampaignJob]],
    members: Sequence[Union[str, Tuple[str, int]]],
    *,
    options: Optional[RunOptions] = None,
    config: Optional[MachineConfig] = None,
    tags: Optional[Sequence[str]] = None,
    on_event: Optional[Any] = None,
) -> "FleetResult":
    """Execute a campaign across a fleet of ``repro.serve`` daemons.

    The sharded twin of :func:`run_many`: each job is routed by
    rendezvous hashing on its cache key to one of ``members``
    (``"host:port"`` strings or ``(host, port)`` tuples), so repeated
    and overlapping sweeps resolve as member-local cache hits, and a
    member that dies mid-campaign has its jobs rerouted to the next
    member in each key's ranking.  Jobs must be declarative (no
    ``setup`` hooks - they cannot travel over HTTP).  Execution knobs
    travel in ``options`` (:class:`repro.RunOptions`):
    ``max_events``/``trace`` fold into the shipped jobs, ``timeout``
    bounds each job on its member; ``cache`` and ``retries`` do not
    apply here (members cache locally, failover replaces retry).
    ``on_event`` receives every merged progress event.

    Returns a :class:`repro.fleet.FleetResult` - a
    :class:`CampaignResult` subclass, so every existing consumer
    (``render_campaign``, ``summary()``) works on it unchanged.
    """
    from .fleet import FleetCoordinator, FleetResult  # noqa: F811

    opts = resolve_options(
        options,
        api="fleet_run_many",
        defaults={"max_events": None, "timeout": None, "trace": None,
                  "fabric": None, "fidelity": "exact"},
    )
    jobs = _collect_jobs(specs, config, tags, opts)
    coordinator = FleetCoordinator(members)
    if opts["timeout"] is None:
        return coordinator.run_many(jobs, on_event=on_event)
    return coordinator.run_many(jobs, on_event=on_event,
                                job_timeout=opts["timeout"])


def compare(
    baseline: ProfileResult, treatment: ProfileResult, **kwargs: Any
) -> SessionDiff:
    """A/B-compare two sessions (wraps :func:`repro.core.compare_sessions`)."""
    return compare_sessions(baseline, treatment, **kwargs)


def counters(result: ProfileResult) -> Dict[Tuple[str, str], float]:
    """Total ``(scope, event) -> value`` deltas across the whole session.

    A continuous session sums its epoch deltas.  An aggregated session's
    final epoch already holds that sum, taken the same way while it ran,
    so both modes of one spec read the same totals.
    """
    return result.counter_totals()
