"""PathFinder command-line interface.

Mirrors the paper's CLI utility: pick applications from the Table 6
catalog, pin them to cores, bind their memory to the local or CXL node,
and run a profiling session with periodic reports.

Examples::

    pathfinder run --app 519.lbm_r --node cxl --ops 20000
    pathfinder run --app fft --app barnes --node cxl --epoch 100000
    pathfinder list-apps --suite GAPBS
    pathfinder list-events --group cha
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..pmu.events import ALL_EVENTS, events_in_group
from ..sim.fabric import FABRIC_PRESETS, apply_fabric
from ..sim.machine import Machine
from ..sim.topology import emr_config, spr_config
from ..workloads.suites import APPLICATIONS, build_app, suite_names
from .profiler import PathFinder
from .report import render_epoch, render_session
from .spec import AppSpec, ProfileSpec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathfinder",
        description="CXL.mem profiler over a simulated SPR/EMR server",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="profile one or more applications")
    run.add_argument(
        "--app", action="append", required=True,
        help="application name from the catalog (repeatable)",
    )
    run.add_argument(
        "--node", choices=["local", "cxl"], default="cxl",
        help="memory node to bind the working sets to",
    )
    run.add_argument("--ops", type=int, default=10000, help="ops per app")
    run.add_argument("--epoch", type=float, default=50000.0,
                     help="profiling epoch length in cycles")
    run.add_argument("--machine", choices=["spr", "emr"], default="spr")
    run.add_argument("--cores", type=int, default=None,
                     help="number of simulated cores")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--per-epoch", action="store_true",
                     help="print every epoch, not just the final one")
    run.add_argument(
        "--fabric", choices=list(FABRIC_PRESETS), default=None,
        help="route CXL traffic through a switched multi-host fabric "
             "preset (see docs/FABRIC.md)",
    )
    run.add_argument(
        "--fidelity", choices=["exact", "adaptive"], default="exact",
        help="adaptive fast-forwards steady-state epochs by "
             "extrapolating counters (see docs/ENGINE.md)",
    )

    apps = sub.add_parser("list-apps", help="show the application catalog")
    apps.add_argument("--suite", default=None)

    events = sub.add_parser("list-events", help="show the PMU event catalog")
    events.add_argument(
        "--group", choices=["core", "cha", "uncore", "cxl"], default=None
    )

    case = sub.add_parser(
        "case", help="run one case study (1-8) and print its tables"
    )
    case.add_argument("--id", type=int, required=True, choices=range(1, 9))

    campaign = sub.add_parser(
        "campaign",
        help="profile an app x node grid over a worker pool with caching",
    )
    campaign.add_argument(
        "--app", action="append", required=True,
        help="application name from the catalog (repeatable)",
    )
    campaign.add_argument(
        "--node", action="append", choices=["local", "cxl"], default=None,
        help="memory node(s) to grid over (repeatable; default both)",
    )
    campaign.add_argument("--ops", type=int, default=10000, help="ops per app")
    campaign.add_argument("--epoch", type=float, default=50000.0,
                          help="profiling epoch length in cycles")
    campaign.add_argument("--machine", choices=["spr", "emr"], default="spr")
    campaign.add_argument("--seed", type=int, default=1)
    campaign.add_argument("--workers", type=int, default=None,
                          help="worker processes (default: min(4, cpus))")
    campaign.add_argument("--serial", action="store_true",
                          help="run in-process, no worker pool (cannot "
                               "enforce --timeout)")
    campaign.add_argument("--cache-dir", default=None,
                          help="result cache directory (default results/cache)")
    campaign.add_argument("--no-cache", action="store_true",
                          help="always recompute, never touch the cache")
    campaign.add_argument("--shared-cache", default=None, metavar="DIR",
                          help="shared pull-through store the local cache "
                               "hydrates from and publishes to")
    campaign.add_argument("--timeout", type=float, default=None,
                          help="per-job wall-clock limit in seconds")
    campaign.add_argument("--retries", type=int, default=1,
                          help="extra attempts per failed job")
    campaign.add_argument(
        "--fabric", action="append", choices=list(FABRIC_PRESETS),
        default=None, metavar="PRESET",
        help="also grid over switched-fabric preset(s) (repeatable; "
             "jobs run app x node x {direct, presets...})",
    )
    campaign.add_argument(
        "--fidelity", choices=["exact", "adaptive"], default="exact",
        help="adaptive fast-forwards steady-state epochs; non-exact "
             "fidelity is part of each job's cache key",
    )

    trace = sub.add_parser(
        "trace",
        help="profile with the flight recorder on and report per-stage "
             "latencies",
    )
    trace.add_argument(
        "--app", action="append", required=True,
        help="application name from the catalog (repeatable)",
    )
    trace.add_argument(
        "--node", choices=["local", "cxl"], default="cxl",
        help="memory node to bind the working sets to",
    )
    trace.add_argument("--ops", type=int, default=10000, help="ops per app")
    trace.add_argument("--epoch", type=float, default=50000.0,
                       help="profiling epoch length in cycles")
    trace.add_argument("--machine", choices=["spr", "emr"], default="spr")
    trace.add_argument("--cores", type=int, default=None,
                       help="number of simulated cores")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--sample-every", type=int, default=64,
                       help="trace 1 in N requests (default 64)")
    trace.add_argument("--out", default=None,
                       help="write a Chrome trace_event JSON here "
                            "(open in Perfetto / chrome://tracing)")
    trace.add_argument("--validate", action="store_true",
                       help="compare measured per-stage queueing against "
                            "PFAnalyzer's Little's-law estimates")

    live = sub.add_parser(
        "live",
        help="streaming incremental profiling: run an app live, or "
             "attach to a daemon/fleet /v1/live firehose "
             "(see docs/OBSERVABILITY.md)",
    )
    live.add_argument(
        "--app", action="append", default=None,
        help="application to profile live (repeatable; local mode)",
    )
    live.add_argument("--node", choices=["local", "cxl"], default="cxl",
                      help="memory node to bind the working sets to")
    live.add_argument("--ops", type=int, default=10000, help="ops per app")
    live.add_argument("--epoch", type=float, default=50000.0,
                      help="profiling epoch length in cycles")
    live.add_argument("--machine", choices=["spr", "emr"], default="spr")
    live.add_argument("--seed", type=int, default=1)
    live.add_argument("--window", type=int, default=8,
                      help="rolling operator window (epochs)")
    live.add_argument("--attach", action="store_true",
                      help="stream a running daemon's /v1/live instead "
                           "of profiling locally")
    live.add_argument("--host", default="127.0.0.1",
                      help="daemon host for --attach")
    live.add_argument("--port", type=int, default=8023,
                      help="daemon port for --attach")
    live.add_argument(
        "--member", action="append", default=None, metavar="HOST:PORT",
        help="merge-stream these fleet members' /v1/live endpoints "
             "(repeatable; implies --attach)",
    )
    live.add_argument("--max-events", type=int, default=None,
                      help="stop an attached stream after N events")
    live.add_argument("--json", action="store_true",
                      help="print raw NDJSON instead of rendered lines")

    serve = sub.add_parser(
        "serve",
        help="run the profiling-as-a-service daemon (see docs/SERVING.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8023,
                       help="listen port (0 = let the OS pick)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent job worker processes")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="max queued jobs before submissions get 429")
    serve.add_argument("--cache-dir", default=None,
                       help="result cache directory (default results/cache)")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without a result cache")
    serve.add_argument("--timeout", type=float, default=None,
                       help="default per-job wall-clock limit in seconds")
    serve.add_argument("--max-events", type=int, default=None,
                       help="default per-job simulation event budget")
    serve.add_argument("--retries", type=int, default=0,
                       help="extra attempts per failed job")
    serve.add_argument("--journal-dir", default=None,
                       help="write-ahead job journal directory; on restart "
                            "unfinished jobs are replayed from it")
    serve.add_argument("--shared-cache", default=None, metavar="DIR",
                       help="shared pull-through store the local cache "
                            "hydrates from and publishes to")
    serve.add_argument(
        "--tenant", action="append", default=None, metavar="SPEC",
        help="tenant policy 'name:weight=2,max_queued=16,"
             "max_in_flight=2,rate=5,burst=10' (repeatable; "
             "'name:3' is weight shorthand)",
    )
    serve.add_argument("--max-terminal-jobs", type=int, default=1024,
                       help="terminal job records kept in memory before "
                            "oldest-first pruning")
    serve.add_argument("--job-retention-s", type=float, default=None,
                       help="also prune terminal job records older than "
                            "this many seconds")

    submit = sub.add_parser(
        "submit", help="submit a profiling job to a running daemon"
    )
    submit.add_argument(
        "--app", action="append", required=True,
        help="application name from the catalog (repeatable)",
    )
    submit.add_argument(
        "--node", choices=["local", "cxl"], default="cxl",
        help="memory node to bind the working sets to",
    )
    submit.add_argument("--ops", type=int, default=10000, help="ops per app")
    submit.add_argument("--epoch", type=float, default=50000.0,
                        help="profiling epoch length in cycles")
    submit.add_argument("--machine", choices=["spr", "emr"], default="spr")
    submit.add_argument("--seed", type=int, default=1)
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8023)
    submit.add_argument("--tag", default="")
    submit.add_argument("--priority", type=int, default=10,
                        help="queue priority (lower runs first)")
    submit.add_argument("--timeout", type=float, default=None,
                        help="per-job wall-clock limit in seconds")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id and return immediately")
    submit.add_argument("--stream", action="store_true",
                        help="stream the job's NDJSON events while waiting")

    fleet = sub.add_parser(
        "fleet",
        help="run campaigns across a fleet of serve daemons "
             "(see docs/SERVING.md)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_run = fleet_sub.add_parser(
        "run", help="shard an app x node campaign over the fleet"
    )
    fleet_run.add_argument(
        "--app", action="append", required=True,
        help="application name from the catalog (repeatable)",
    )
    fleet_run.add_argument(
        "--node", action="append", choices=["local", "cxl"], default=None,
        help="memory node(s) to grid over (repeatable; default both)",
    )
    fleet_run.add_argument("--ops", type=int, default=10000,
                           help="ops per app")
    fleet_run.add_argument("--epoch", type=float, default=50000.0,
                           help="profiling epoch length in cycles")
    fleet_run.add_argument("--machine", choices=["spr", "emr"],
                           default="spr")
    fleet_run.add_argument("--seed", type=int, default=1)
    fleet_run.add_argument(
        "--member", action="append", default=None, metavar="HOST:PORT",
        help="a running daemon to route to (repeatable)",
    )
    fleet_run.add_argument(
        "--local", type=int, default=None, metavar="N",
        help="boot an ephemeral N-member fleet in-process instead of "
             "--member",
    )
    fleet_run.add_argument("--workers", type=int, default=1,
                           help="worker processes per --local member")
    fleet_run.add_argument("--timeout", type=float, default=None,
                           help="per-job wall-clock limit in seconds")
    fleet_run.add_argument("--stream", action="store_true",
                           help="print the merged NDJSON progress stream")
    fleet_run.add_argument("--tenant", default=None, metavar="NAME",
                           help="submit the campaign as this tenant")

    fleet_status = fleet_sub.add_parser(
        "status", help="fleet-wide /metricsz rollup as JSON"
    )
    fleet_status.add_argument(
        "--member", action="append", required=True, metavar="HOST:PORT",
        help="a running daemon to probe (repeatable)",
    )

    fleet_drain = fleet_sub.add_parser(
        "drain", help="ask every member to drain and exit"
    )
    fleet_drain.add_argument(
        "--member", action="append", required=True, metavar="HOST:PORT",
        help="a running daemon to drain (repeatable)",
    )

    tenants = sub.add_parser(
        "tenants",
        help="per-tenant usage of one daemon (or a fleet rollup)",
    )
    tenants.add_argument("--host", default="127.0.0.1")
    tenants.add_argument("--port", type=int, default=8023)
    tenants.add_argument(
        "--member", action="append", default=None, metavar="HOST:PORT",
        help="roll up these fleet members instead of --host/--port "
             "(repeatable)",
    )

    cache = sub.add_parser(
        "cache", help="inspect or prune the content-addressed result cache"
    )
    cache.add_argument("--dir", default=None,
                       help="cache directory (default results/cache)")
    cache.add_argument("--stats", action="store_true",
                       help="print entry count, bytes and hit counters")
    cache.add_argument("--prune", type=int, default=None, metavar="BYTES",
                       help="evict least-recently-used entries down to "
                            "BYTES total")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cache entry")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    for name in args.app:
        if name not in APPLICATIONS:
            print(f"unknown application: {name}", file=sys.stderr)
            return 2
    cores = args.cores or max(2, len(args.app))
    config_fn = spr_config if args.machine == "spr" else emr_config
    config = config_fn(num_cores=cores)
    if args.fabric:
        config = apply_fabric(config, args.fabric)
    machine = Machine(config)
    node = (
        machine.cxl_node.node_id if args.node == "cxl"
        else machine.local_node.node_id
    )
    specs: List[AppSpec] = []
    for i, name in enumerate(args.app):
        workload = build_app(name, num_ops=args.ops, seed=args.seed + i)
        specs.append(AppSpec(workload=workload, core=i, membind=node))
    profiler = PathFinder(
        machine,
        ProfileSpec(apps=specs, epoch_cycles=args.epoch),
        fidelity=args.fidelity,
    )
    result = profiler.run()
    if args.per_epoch:
        for epoch_result in result.epochs:
            print(render_epoch(epoch_result))
    # render_session already appends the CXL fabric section when the
    # final snapshot carries switch-port estimates.
    print(render_session(result))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .. import api
    from ..exec import CampaignJob, cxl_node_id, local_node_id
    from .report import render_campaign

    for name in args.app:
        if name not in APPLICATIONS:
            print(f"unknown application: {name}", file=sys.stderr)
            return 2
    if args.serial and args.timeout is not None:
        print("--timeout needs a pool worker to kill; --serial runs jobs "
              "in-process and cannot enforce it", file=sys.stderr)
        return 2
    config_fn = spr_config if args.machine == "spr" else emr_config
    config = config_fn(num_cores=2)
    node_ids = {"local": local_node_id(config), "cxl": cxl_node_id(config)}
    fabrics = [None] + list(args.fabric or [])
    jobs = []
    for name in args.app:
        for node in args.node or ["local", "cxl"]:
            for fabric in fabrics:
                if fabric is not None and node != "cxl":
                    continue  # fabric variants only matter for CXL traffic
                workload = build_app(name, num_ops=args.ops, seed=args.seed)
                spec = ProfileSpec(
                    apps=[AppSpec(workload=workload, core=0,
                                  membind=node_ids[node])],
                    epoch_cycles=args.epoch,
                )
                tag = f"{name}@{node}" + (f"+{fabric}" if fabric else "")
                jobs.append(CampaignJob(spec=spec,
                                        config=apply_fabric(config, fabric),
                                        tag=tag,
                                        fidelity=args.fidelity))
    cache = False if args.no_cache else (args.cache_dir or True)
    campaign = api.run_many(
        jobs,
        options=api.RunOptions(cache=cache, shared_cache=args.shared_cache,
                               timeout=args.timeout, retries=args.retries),
        parallel=not args.serial,
        workers=args.workers,
    )
    print(render_campaign(campaign))
    if not campaign.jobs or campaign.failed:
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from ..obs import export_chrome_trace, validate_against_analyzer
    from .report import render_trace
    from .spec import TraceSpec

    for name in args.app:
        if name not in APPLICATIONS:
            print(f"unknown application: {name}", file=sys.stderr)
            return 2
    cores = args.cores or max(2, len(args.app))
    config_fn = spr_config if args.machine == "spr" else emr_config
    machine = Machine(config_fn(num_cores=cores))
    node = (
        machine.cxl_node.node_id if args.node == "cxl"
        else machine.local_node.node_id
    )
    specs: List[AppSpec] = []
    for i, name in enumerate(args.app):
        workload = build_app(name, num_ops=args.ops, seed=args.seed + i)
        specs.append(AppSpec(workload=workload, core=i, membind=node))
    spec = ProfileSpec(
        apps=specs,
        epoch_cycles=args.epoch,
        trace=TraceSpec(sample_every=args.sample_every),
    )
    profiler = PathFinder(machine, spec)
    result = profiler.run()
    print(render_session(result))
    print()
    print(render_trace(result.trace))
    if args.out:
        document = export_chrome_trace(result.trace, args.out)
        print(f"chrome trace: {args.out}"
              f" ({len(document['traceEvents'])} events)")
    if args.validate:
        reports = [e.queues for e in result.epochs]
        if not reports and result.final is not None:
            reports = [result.final.queues]
        print()
        print(validate_against_analyzer(result.trace, reports).render())
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    import json

    from ..live import render_live_event

    def emit(event) -> None:
        if args.json:
            print(json.dumps(event), flush=True)
        elif event.get("event") == "epoch":
            prefix = event.get("member") or event.get("job_id") or ""
            line = render_live_event(event)
            print(f"[{prefix}] {line}" if prefix else line, flush=True)
        else:
            prefix = event.get("member") or event.get("job_id") or "-"
            print(f"[{prefix}] {event.get('event', '?')}", flush=True)

    if args.member:
        from ..fleet import FleetCoordinator

        coordinator = FleetCoordinator(args.member)
        for event in coordinator.live_events(max_events=args.max_events):
            emit(event)
        return 0
    if args.attach:
        from ..serve import ServeClient, ServeError

        client = ServeClient(host=args.host, port=args.port)
        try:
            for event in client.live(max_events=args.max_events):
                emit(event)
        except (ServeError, ConnectionError, OSError) as exc:
            print(f"cannot stream from {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return 1
        return 0

    # Local mode: profile in-process, rendering each epoch as it lands.
    if not args.app:
        print("live needs --app (local mode) or --attach/--member",
              file=sys.stderr)
        return 2
    for name in args.app:
        if name not in APPLICATIONS:
            print(f"unknown application: {name}", file=sys.stderr)
            return 2
    from .. import api
    from ..live import LiveSpec

    config_fn = spr_config if args.machine == "spr" else emr_config
    machine = Machine(config_fn(num_cores=max(2, len(args.app))))
    node = (
        machine.cxl_node.node_id if args.node == "cxl"
        else machine.local_node.node_id
    )
    specs: List[AppSpec] = []
    for i, name in enumerate(args.app):
        workload = build_app(name, num_ops=args.ops, seed=args.seed + i)
        specs.append(AppSpec(workload=workload, core=i, membind=node))
    spec = ProfileSpec(apps=specs, epoch_cycles=args.epoch)
    result = api.run(
        spec,
        options=api.RunOptions(live=LiveSpec(window=args.window)),
        machine=machine,
        on_epoch=emit,
    )
    print()
    print(render_session(result))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import logging

    from ..serve import ServeDaemon

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    cache = False if args.no_cache else (args.cache_dir or True)
    daemon = ServeDaemon(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        cache=cache,
        retries=args.retries,
        timeout=args.timeout,
        max_events=args.max_events,
        journal_dir=args.journal_dir,
        shared_cache=args.shared_cache,
        tenants=args.tenant,
        max_terminal_jobs=args.max_terminal_jobs,
        job_retention_s=args.job_retention_s,
    )

    async def _main() -> None:
        await daemon.start()
        # Machine-readable: tests/test_durable_serve.py resolves --port 0
        # from this line.
        print(f"listening on http://{daemon.host}:{daemon.port}",
              flush=True)
        await daemon.serve_forever()

    asyncio.run(_main())
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from ..serve import ServeClient, ServeError

    for name in args.app:
        if name not in APPLICATIONS:
            print(f"unknown application: {name}", file=sys.stderr)
            return 2
    config_fn = spr_config if args.machine == "spr" else emr_config
    config = config_fn(num_cores=max(2, len(args.app)))
    machine = Machine(config)
    node = (
        machine.cxl_node.node_id if args.node == "cxl"
        else machine.local_node.node_id
    )
    specs: List[AppSpec] = []
    for i, name in enumerate(args.app):
        workload = build_app(name, num_ops=args.ops, seed=args.seed + i)
        specs.append(AppSpec(workload=workload, core=i, membind=node))
    spec = ProfileSpec(apps=specs, epoch_cycles=args.epoch)
    client = ServeClient(host=args.host, port=args.port)
    try:
        job = client.submit_run(
            spec, config, tag=args.tag, priority=args.priority,
            timeout=args.timeout, retry_on_busy=True,
        )
        print(f"job {job['job_id']} {job['state']}"
              + (" (cache hit)" if job.get("cache_hit") else ""))
        if args.no_wait:
            return 0
        if args.stream:
            for event in client.events(job["job_id"]):
                print(json.dumps(event))
        final = client.wait(job["job_id"])
    except ServeError as exc:
        print(f"daemon refused: {exc}", file=sys.stderr)
        return 1
    except ConnectionError as exc:
        print(f"cannot reach daemon at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    if final["state"] != "done":
        print(f"job failed ({final['failure']}): {final['error']}",
              file=sys.stderr)
        return 1
    print(f"done in {final['wall_time']:.2f}s"
          f" ({final['events_executed']} events,"
          f" {final['num_epochs']} epochs"
          + (", cache hit)" if final["cache_hit"] else ")"))
    for scope, event, value in final["counters"] or []:
        print(f"{scope:<28} {event:<52} {value:14.0f}")
    return 0


def _fleet_jobs(args: argparse.Namespace) -> List:
    from ..exec import CampaignJob, cxl_node_id, local_node_id

    config_fn = spr_config if args.machine == "spr" else emr_config
    config = config_fn(num_cores=2)
    node_ids = {"local": local_node_id(config), "cxl": cxl_node_id(config)}
    jobs = []
    for name in args.app:
        for node in args.node or ["local", "cxl"]:
            workload = build_app(name, num_ops=args.ops, seed=args.seed)
            spec = ProfileSpec(
                apps=[AppSpec(workload=workload, core=0,
                              membind=node_ids[node])],
                epoch_cycles=args.epoch,
            )
            jobs.append(CampaignJob(spec=spec, config=config,
                                    tag=f"{name}@{node}",
                                    timeout=args.timeout))
    return jobs


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from ..fleet import FleetCoordinator, LocalFleet
    from .report import render_fleet

    if args.fleet_command == "status":
        coordinator = FleetCoordinator(args.member)
        print(json.dumps(coordinator.metrics(), indent=2))
        return 0
    if args.fleet_command == "drain":
        coordinator = FleetCoordinator(args.member)
        report = coordinator.drain()
        print(json.dumps(report, indent=2))
        return 0 if all(r.get("draining") for r in report.values()) else 1

    # fleet run
    for name in args.app:
        if name not in APPLICATIONS:
            print(f"unknown application: {name}", file=sys.stderr)
            return 2
    if bool(args.member) == bool(args.local):
        print("fleet run needs exactly one of --member or --local N",
              file=sys.stderr)
        return 2
    jobs = _fleet_jobs(args)

    def _run(coordinator) -> int:
        campaign = coordinator.shard_campaign(jobs)
        if args.stream:
            for event in campaign.events():
                print(json.dumps(event), flush=True)
        result = campaign.wait()
        print(render_fleet(result))
        return 1 if (not result.jobs or result.failed) else 0

    if args.local:
        with LocalFleet(size=args.local, workers=args.workers) as fleet:
            fleet.coordinator.tenant = args.tenant
            if args.tenant:
                for member in fleet.coordinator.members():
                    member.client.tenant = args.tenant
            return _run(fleet.coordinator)
    return _run(FleetCoordinator(args.member, tenant=args.tenant))


def _cmd_tenants(args: argparse.Namespace) -> int:
    import json

    from ..serve import ServeClient

    if args.member:
        from ..fleet import FleetCoordinator

        rollup = FleetCoordinator(args.member).metrics()
        print(json.dumps({
            "members_reachable": rollup["members_reachable"],
            "members_total": rollup["members_total"],
            "tenants": rollup["tenants"],
        }, indent=2))
        return 0 if rollup["members_reachable"] else 1
    client = ServeClient(host=args.host, port=args.port)
    try:
        print(json.dumps(client.tenants(), indent=2))
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach daemon at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from ..exec.cache import DEFAULT_CACHE_DIR, ResultCache

    store = ResultCache(args.dir or DEFAULT_CACHE_DIR)
    did_anything = False
    if args.clear:
        removed = store.clear()
        print(f"cleared {removed} entries")
        did_anything = True
    if args.prune is not None:
        report = store.prune(args.prune)
        print(f"pruned {report['removed']} entries"
              f" ({report['freed_bytes']} bytes freed,"
              f" {report['remaining_bytes']} bytes remain)")
        did_anything = True
    if args.stats or not did_anything:
        print(json.dumps(store.stats(), indent=2))
    return 0


def _cmd_list_apps(args: argparse.Namespace) -> int:
    names = suite_names(args.suite)
    if not names:
        print(f"no applications in suite {args.suite!r}", file=sys.stderr)
        return 2
    for name in names:
        spec = APPLICATIONS[name]
        print(
            f"{name:<22} {spec.suite:<14} ws={spec.working_set_mb:9.1f}MB"
            f" pattern={spec.pattern}"
        )
    return 0


def _cmd_list_events(args: argparse.Namespace) -> int:
    events = events_in_group(args.group) if args.group else ALL_EVENTS
    for event in events:
        print(f"{event.name:<52} {event.group:<7} {event.scope_kind:<12}"
              f" paths={','.join(event.paths) or '-'}")
    print(f"total: {len(events)} events")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "live":
        return _cmd_live(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "tenants":
        return _cmd_tenants(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "list-apps":
        return _cmd_list_apps(args)
    if args.command == "list-events":
        return _cmd_list_events(args)
    if args.command == "case":
        from ..experiments import run_case

        run_case(args.id)
        return 0
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
