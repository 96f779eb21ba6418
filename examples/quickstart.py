#!/usr/bin/env python3
"""Quickstart: profile one application's CXL.mem behaviour end to end.

Describes the profiling task declaratively (a SPEC-like streaming
workload bound to the CXL NUMA node), hands it to :func:`repro.api.run`,
and prints the per-epoch reports: the PFBuilder path map (Table 7
shape), the PFEstimator stall breakdown (Figure 6 shape) and the
PFAnalyzer culprit analysis.

Run:  python examples/quickstart.py
"""

from repro import api
from repro.core import AppSpec, PFMaterializer, ProfileSpec, render_session
from repro.exec import cxl_node_id
from repro.sim import spr_config
from repro.workloads import build_app


def main() -> None:
    # 1. A simulated dual-tier server: local DDR5 + a CXL Type-3 DIMM
    #    exposed as a CPU-less NUMA node (section 5.1's SPR testbed).
    config = spr_config(num_cores=2)
    print(f"machine: {config.name}, {config.num_cores} cores")
    print(f"  local node 0, CXL node {cxl_node_id(config)}")

    # 2. An application from the Table 6 catalog, memory-bound to CXL
    #    (numactl --membind=<cxl node>).
    workload = build_app("519.lbm_r", num_ops=8000)
    app = AppSpec(workload=workload, core=0, membind=cxl_node_id(config))

    # 3. Profile: snapshot the PMUs every 25k cycles and run the four
    #    techniques on each snapshot.  api.run builds the machine, runs
    #    PathFinder, and (with cache=True) memoises the whole session.
    spec = ProfileSpec(apps=[app], epoch_cycles=25_000.0)
    result = api.run(spec, config=config)

    # 4. Report.
    print(render_session(result))

    # 5. A taste of cross-snapshot analysis (PFMaterializer): how did the
    #    app's CXL traffic evolve over the run?  The materializer is built
    #    from the finished session's snapshots + path maps.
    series = [
        epoch.path_map.cxl_hits() for epoch in result.epochs
    ]
    print(f"\nCXL hits per epoch: {[int(v) for v in series]}")
    materializer = PFMaterializer.from_result(result)
    pid = next(f.pid for f in result.flows if f.app_name == workload.name)
    locality = materializer.locality(pid, component="CXL")
    print(f"stable phases: {len(locality.windows)}, "
          f"longest {locality.stable_phase_length} epochs, "
          f"predictable: {locality.predictable}")


if __name__ == "__main__":
    main()
