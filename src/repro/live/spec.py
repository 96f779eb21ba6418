"""Configuration for streaming (live) profiling.

``LiveSpec`` is carried by :class:`repro.options.RunOptions` and by serve
submissions (``{"live": true}`` or ``{"live": {"window": 8}}``); its one
knob is the span of the live materializer's rolling means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


@dataclass(frozen=True)
class LiveSpec:
    """How a live profiling run streams: ``window`` is the rolling
    mean's span in epochs."""

    window: int = 8

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")


def coerce_live(value: Union[None, bool, LiveSpec]) -> Optional[LiveSpec]:
    """Normalise the user-facing ``live=`` knob.

    ``None``/``False`` -> off; ``True`` -> defaults; a :class:`LiveSpec`
    passes through.  Anything else is a :class:`ValueError` (mirrors
    ``options.apply_trace``).
    """
    if value is None or value is False:
        return None
    if value is True:
        return LiveSpec()
    if isinstance(value, LiveSpec):
        return value
    raise ValueError(
        f"live must be None, a bool, or a LiveSpec, got {value!r}"
    )
