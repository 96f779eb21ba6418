"""Unified execution options for the profiling entry points.

:func:`repro.api.run`, :func:`repro.api.run_many` and
:func:`repro.api.fleet_run_many` grew their execution knobs (caching,
event budgets, timeouts, retries, tracing) one keyword at a time, with
per-verb spellings and defaults.  :class:`RunOptions` is the one carrier
for all of them:

    from repro import RunOptions, api

    opts = RunOptions(cache=False, max_events=2_000_000, trace=True)
    result = api.run(spec, options=opts)
    campaign = api.run_many(specs, options=opts)

Every field defaults to :data:`UNSET` ("not given"), so one
``RunOptions`` can be reused across verbs while each verb keeps its own
defaults for the fields the caller left alone (``run`` caches off / no
retries; ``run_many`` caches on / one retry).  ``options=`` is the only
spelling: the verbs take no per-field keywords.

``trace`` accepts ``True`` (default :class:`~repro.core.spec.TraceSpec`),
an ``int`` (sample 1-in-N requests), or a full ``TraceSpec``; it is
applied to the profile spec(s) via ``dataclasses.replace`` so the specs
passed in are never mutated.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .core.spec import ProfileSpec, TraceSpec

__all__ = ["RunOptions", "UNSET", "coerce_trace"]


class _UnsetType:
    """Sentinel distinguishing "not given" from an explicit None/False."""

    _instance: Optional["_UnsetType"] = None

    def __new__(cls) -> "_UnsetType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNSET"

    def __bool__(self) -> bool:
        return False


#: Field default meaning "the caller did not set this".
UNSET: Any = _UnsetType()


@dataclass(frozen=True)
class RunOptions:
    """Execution options shared by the ``api`` verbs.

    Fields left :data:`UNSET` fall back to the per-verb default, so the
    same instance composes with every entry point:

    * ``cache`` - ``None``/``False`` (off), ``True`` (default store), a
      path, or a :class:`~repro.exec.cache.ResultCache`.
    * ``max_events`` - simulation event budget per job; exceeding it is
      a retryable failure.
    * ``timeout`` - per-job wall-clock limit in seconds.
    * ``retries`` - additional attempts for failed jobs.
    * ``trace`` - flight-recorder config: ``True``, a sample-1-in-N
      ``int``, or a :class:`~repro.core.spec.TraceSpec`.
    * ``fabric`` - switched multi-host CXL fabric between root ports and
      devices: a preset name from
      :data:`~repro.sim.fabric.FABRIC_PRESETS` or a full
      :class:`~repro.sim.fabric.FabricSpec`; ``None`` = direct attach.
    * ``shared_cache`` - a second-tier store directory (or
      :class:`~repro.exec.cache.ResultCache`) the local cache pulls
      misses from and publishes completions to
      (:class:`~repro.durable.PullThroughCache`); requires ``cache``.
    * ``live`` - streaming profiling: ``True`` (default
      :class:`~repro.live.LiveSpec`) or a ``LiveSpec`` setting the
      rolling window; the run keeps rolling workflows warm over a capped
      TSDB and hands per-epoch digests to ``on_epoch`` while in flight
      (``run`` only - campaign verbs reject it; submit live jobs through
      serve to stream ``/v1/live``).
    * ``fidelity`` - ``"exact"`` (default: every epoch fully simulated)
      or ``"adaptive"`` (steady-state epochs fast-forwarded and
      extrapolated, see :mod:`repro.sim.warp`); a
      :class:`~repro.sim.warp.WarpSpec` tunes the detector.  Non-exact
      fidelity participates in the cache key - warped counters are
      extrapolations, never interchangeable with exact results.
    """

    cache: Any = UNSET
    max_events: Any = UNSET
    timeout: Any = UNSET
    retries: Any = UNSET
    trace: Any = UNSET
    fabric: Any = UNSET
    shared_cache: Any = UNSET
    live: Any = UNSET
    fidelity: Any = UNSET

    def replace(self, **changes: Any) -> "RunOptions":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)


_FIELDS: Tuple[str, ...] = tuple(f.name for f in dataclasses.fields(RunOptions))


def coerce_trace(trace: Any) -> Optional[TraceSpec]:
    """Normalise the ``trace`` option into an ``Optional[TraceSpec]``."""
    if trace is None or trace is False:
        return None
    if trace is True:
        return TraceSpec()
    if isinstance(trace, TraceSpec):
        return trace
    if isinstance(trace, int):
        return TraceSpec(sample_every=trace)
    raise ValueError(
        f"trace must be None, bool, int (sample 1-in-N) or TraceSpec, "
        f"got {trace!r}"
    )


def _validate(field: str, value: Any) -> Any:
    if value is None:
        return value
    if field == "max_events":
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise ValueError(f"max_events must be a positive int, got {value!r}")
    elif field == "timeout":
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
            raise ValueError(f"timeout must be a positive number, got {value!r}")
    elif field == "retries":
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"retries must be a non-negative int, got {value!r}")
    elif field == "trace":
        value = coerce_trace(value)
    elif field == "fabric":
        from .sim.fabric import FABRIC_PRESETS, FabricSpec

        if isinstance(value, str):
            if value not in FABRIC_PRESETS:
                raise ValueError(
                    f"unknown fabric preset {value!r}; choose from "
                    f"{FABRIC_PRESETS}"
                )
        elif not isinstance(value, FabricSpec):
            raise ValueError(
                f"fabric must be None, a preset name or a FabricSpec, "
                f"got {value!r}"
            )
    elif field == "shared_cache":
        from pathlib import Path

        from .exec.cache import ResultCache

        if not isinstance(value, (str, Path, ResultCache)):
            raise ValueError(
                f"shared_cache must be None, a path or a ResultCache, "
                f"got {value!r}"
            )
    elif field == "live":
        from .live.spec import coerce_live

        value = coerce_live(value)
    elif field == "fidelity":
        from .sim.warp import coerce_fidelity

        coerce_fidelity(value)  # validates; the raw value travels on
    return value


def resolve_options(
    options: Optional[RunOptions],
    *,
    api: str,
    defaults: Dict[str, Any],
) -> Dict[str, Any]:
    """Every field's value: from ``options``, else the verb's default.

    ``defaults`` holds the verb's defaults and also defines which fields
    the verb supports: a field absent from it raises when set.
    """
    if options is None:
        options = RunOptions()
    elif not isinstance(options, RunOptions):
        raise TypeError(f"options must be a RunOptions, got {type(options).__name__}")
    resolved: Dict[str, Any] = {}
    for field in _FIELDS:
        value = getattr(options, field)
        if value is UNSET:
            resolved[field] = defaults.get(field, UNSET)
        elif field not in defaults:
            raise ValueError(f"{api}: option '{field}' is not supported here")
        else:
            resolved[field] = _validate(field, value)
    return resolved


def apply_trace(spec: ProfileSpec, trace: Optional[TraceSpec]) -> ProfileSpec:
    """A spec carrying ``trace``; the input spec is never mutated."""
    if trace is None or spec.trace == trace:
        return spec
    return dataclasses.replace(spec, trace=trace)
