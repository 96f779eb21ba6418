"""Section 5.9: PathFinder's own overhead.

Paper: enabling PathFinder costs ~1.3% CPU cycles and ~38 MB of memory
with marginal impact on the profiled applications.  In the simulation the
equivalent claims are: (a) profiling does not perturb the simulated
application (identical simulated cycles with and without the profiler -
snapshotting is out-of-band, like reading PMU MSRs); (b) the wall-clock
and memory cost of the profiling layer is a small fraction of the
simulation itself.
"""

import time
import tracemalloc

import pytest

from repro.core import AppSpec, PathFinder, ProfileSpec
from repro.sim import Machine, spr_config
from repro.workloads import SequentialStream

from .helpers import Table, record


def _workload():
    return SequentialStream(
        name="overhead-probe", num_ops=8000, working_set_bytes=1 << 21,
        read_ratio=0.8, seed=77,
    )


def run_without_profiler():
    machine = Machine(spr_config(num_cores=2))
    workload = _workload()
    workload.install(machine, machine.cxl_node.node_id)
    start = time.perf_counter()
    machine.pin(0, iter(workload))
    machine.run(max_events=50_000_000)
    wall = time.perf_counter() - start
    return machine.now, wall


def run_with_profiler(trace_memory: bool = False):
    machine = Machine(spr_config(num_cores=2))
    workload = _workload()
    spec = ProfileSpec(
        apps=[AppSpec(workload=workload, core=0,
                      membind=machine.cxl_node.node_id)],
        epoch_cycles=25_000.0,
    )
    profiler = PathFinder(machine, spec)
    peak = 0
    if trace_memory:
        # tracemalloc slows the interpreter ~5x, so memory is measured in
        # a separate run from wall time.
        tracemalloc.start()
    start = time.perf_counter()
    result = profiler.run()
    wall = time.perf_counter() - start
    if trace_memory:
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return result.total_cycles, wall, peak, result


@pytest.fixture(scope="module")
def runs():
    base_cycles, base_wall = run_without_profiler()
    prof_cycles, prof_wall, _zero, result = run_with_profiler()
    _c, _w, peak_bytes, _r = run_with_profiler(trace_memory=True)
    return {
        "base_cycles": base_cycles,
        "base_wall": base_wall,
        "prof_cycles": prof_cycles,
        "prof_wall": prof_wall,
        "peak_mb": peak_bytes / (1 << 20),
        "result": result,
    }


def test_overhead_table(runs):
    record(Table(
        "PathFinder overhead (section 5.9)",
        ["metric", "without", "with"],
        [
            ["simulated cycles", runs["base_cycles"], runs["prof_cycles"]],
            ["wall seconds", runs["base_wall"], runs["prof_wall"]],
            ["profiler peak MB", "", runs["peak_mb"]],
        ],
        timing=True,
    ))


def test_profiling_does_not_perturb_the_application(runs):
    """Snapshot-based profiling is out-of-band: the app's simulated
    execution is within a rounding epoch of the unprofiled run."""
    base = runs["base_cycles"]
    prof = runs["prof_cycles"]
    # The profiled run rounds up to the epoch boundary.
    assert abs(prof - base) <= 25_000.0


def test_profiler_memory_is_bounded(runs):
    """Paper: ~38 MB resident.  Our per-session structures stay well under
    that even with full epoch retention."""
    assert runs["peak_mb"] < 64.0


def test_profiler_wall_overhead_is_fractional(runs):
    """The analysis layer costs a small fraction of the substrate
    simulation (paper: ~1.3% CPU; snapshot processing is per-epoch, not
    per-event)."""
    assert runs["prof_wall"] < 1.3 * runs["base_wall"] + 0.5
