"""Stable content-addressed keys for profiling jobs.

A campaign job is fully described by (profiling spec, machine config,
code version).  This module canonicalizes that triple into a
deterministic JSON document and hashes it, so identical jobs - across
processes, interpreter restarts and spec construction order - map to the
same cache key, while any change to the workload parameters, the machine
or the simulator source invalidates it.

Canonicalization deliberately excludes per-process identity:

* ``AppSpec.pid`` (a global counter);
* ``Workload.vpn_base`` when auto-assigned (a global region counter) and
  the live ``rng`` state - physical frames are bump-allocated in install
  order, so two workloads differing only in virtual base produce
  identical PMU activity;
* anything callable.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from ..sim.topology import MachineConfig
from ..core.spec import ProfileSpec
from ..workloads.base import Workload

KEY_FORMAT = 1

#: Workload attributes that are per-process identity, not content.
_WORKLOAD_IDENTITY_ATTRS = {"rng", "vpn_base"}


def _canon(value: Any, memo: Optional[set] = None) -> Any:
    """Reduce ``value`` to a deterministic JSON-able structure."""
    if memo is None:
        memo = set()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, enum.Enum):
        return [type(value).__name__, _canon(value.value, memo)]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes())
        return ["ndarray", list(value.shape), str(value.dtype),
                digest.hexdigest()]
    if isinstance(value, dict):
        return [
            "map",
            sorted(
                ([_canon(k, memo), _canon(v, memo)] for k, v in value.items()),
                key=json.dumps,
            ),
        ]
    if isinstance(value, (list, tuple)):
        return [_canon(v, memo) for v in value]
    if isinstance(value, (set, frozenset)):
        return ["set", sorted((_canon(v, memo) for v in value), key=json.dumps)]
    if isinstance(value, functools.partial):
        return [
            "partial",
            _callable_id(value.func),
            [_canon(v, memo) for v in value.args],
            _canon(dict(value.keywords), memo),
        ]
    if callable(value):
        return ["callable", _callable_id(value)]
    # Generic object: class identity + public, non-callable state.
    if id(value) in memo:
        return ["cycle", type(value).__qualname__]
    memo.add(id(value))
    try:
        state = getattr(value, "__dict__", None)
        if state is None:
            if callable(value):
                return ["callable", _callable_id(value)]
            return ["repr", type(value).__qualname__, str(value)]
        skip = _WORKLOAD_IDENTITY_ATTRS if isinstance(value, Workload) else set()
        attrs = {
            name: _canon(attr, memo)
            for name, attr in sorted(state.items())
            if name not in skip and not callable(attr)
        }
        return ["obj", f"{type(value).__module__}.{type(value).__qualname__}",
                attrs]
    finally:
        memo.discard(id(value))


def _callable_id(fn: Any) -> str:
    module = getattr(fn, "__module__", "?")
    qualname = getattr(fn, "__qualname__", getattr(fn, "__name__", repr(fn)))
    return f"{module}.{qualname}"


def canonical_spec(spec: ProfileSpec) -> Dict[str, Any]:
    """Declarative form of a profiling spec, stripped of process identity."""
    return {
        "apps": [
            {
                "workload": _canon(app.workload),
                "core": app.core,
                "membind": app.membind,
                "interleave": _canon(app.interleave),
                "preinstalled": _canon(
                    list(app.preinstalled) if app.preinstalled is not None
                    else None
                ),
                "start_at": app.start_at,
            }
            for app in spec.apps
        ],
        "epoch_cycles": spec.epoch_cycles,
        "mode": spec.mode.value,
        "max_epochs": spec.max_epochs,
        # Tracing changes what a session records (trace artifacts live in
        # the cached document), so traced and untraced runs cache apart.
        "trace": _canon(spec.trace),
    }


@functools.lru_cache(maxsize=64)
def _dataclass_form(config: Any, text: str) -> Any:
    # ``text`` is the config's repr: configs that compare equal but
    # differ in a field's type (``1`` vs ``1.0``) canonicalize apart.
    return _canon(asdict(config))


def canonical_config(config: MachineConfig) -> Dict[str, Any]:
    """Declarative form of a machine config.

    Remembered per config value, so the form is shared: do not mutate
    it.  A config with an unhashable field is canonicalized each time.
    """
    if not is_dataclass(config):
        return _canon(config)
    try:
        return _dataclass_form(config, repr(config))
    except TypeError:
        return _canon(asdict(config))


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``repro`` source file: reruns after a code change miss.

    Computed once per process; a campaign parent computes it before
    forking workers, so a single campaign always sees one value.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def job_key(
    spec: ProfileSpec,
    config: MachineConfig,
    *,
    max_events: Optional[int] = None,
    extra: Any = None,
    code_version: Optional[str] = None,
) -> str:
    """Content-addressed key of one profiling job (40 hex chars)."""
    document = {
        "format": KEY_FORMAT,
        "code": code_version if code_version is not None else code_fingerprint(),
        "config": canonical_config(config),
        "spec": canonical_spec(spec),
        "max_events": max_events,
        "extra": _canon(extra),
    }
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:40]


def local_node_id(config: MachineConfig) -> int:
    """Node id of the first socket-local DDR node for ``config``."""
    return 0


def cxl_node_id(config: MachineConfig, index: int = 0) -> int:
    """Node id of the ``index``-th CXL node, without building a Machine.

    Mirrors :func:`repro.sim.machine._build_nodes`: local DDR first, an
    optional remote-socket DDR node, then one node per CXL device.
    """
    if index >= config.num_cxl_devices:
        raise IndexError(
            f"config has {config.num_cxl_devices} CXL devices, asked for "
            f"index {index}"
        )
    return 1 + (1 if config.remote_mem_bytes else 0) + index
