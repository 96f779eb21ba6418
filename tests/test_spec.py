"""Tests for the profiling specification types."""

import pytest

from repro.core import AppSpec, ProfileSpec, ProfilingMode
from repro.workloads import SequentialStream


def _workload(name="w"):
    return SequentialStream(name=name, num_ops=10, working_set_bytes=1 << 16)


def test_appspec_requires_exactly_one_placement():
    with pytest.raises(ValueError):
        AppSpec(workload=_workload(), core=0)
    with pytest.raises(ValueError):
        AppSpec(workload=_workload(), core=0, membind=0,
                interleave=(0, 1, 0.5))
    with pytest.raises(ValueError):
        AppSpec(workload=_workload(), core=0, membind=0, preinstalled=[0])
    ok = AppSpec(workload=_workload(), core=0, membind=1)
    assert ok.name == "w"


def test_appspec_pids_unique():
    a = AppSpec(workload=_workload("a"), core=0, membind=0)
    b = AppSpec(workload=_workload("b"), core=1, membind=0)
    assert a.pid != b.pid


def test_profilespec_validation():
    with pytest.raises(ValueError):
        ProfileSpec(apps=[])
    app = AppSpec(workload=_workload(), core=0, membind=0)
    with pytest.raises(ValueError):
        ProfileSpec(apps=[app], epoch_cycles=0.0)
    clash = AppSpec(workload=_workload("x"), core=0, membind=0)
    with pytest.raises(ValueError):
        ProfileSpec(apps=[app, clash])


def test_profilespec_defaults():
    app = AppSpec(workload=_workload(), core=0, membind=0)
    spec = ProfileSpec(apps=[app])
    assert spec.mode is ProfilingMode.CONTINUOUS
    assert spec.max_epochs > 0


def test_appspec_preinstalled_nodes():
    app = AppSpec(workload=_workload(), core=0, preinstalled=[1, 2])
    assert list(app.preinstalled) == [1, 2]


def test_appspec_start_at_defaults_zero():
    app = AppSpec(workload=_workload(), core=0, membind=0)
    assert app.start_at == 0.0
