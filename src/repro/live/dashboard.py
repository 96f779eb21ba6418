"""Per-epoch digests and their terminal rendering.

``epoch_digest`` condenses one :class:`~repro.core.profiler.EpochResult`
plus the live materializer's rolling state into a small JSON-safe dict -
the unit a served live job appends to its event log, ``/v1/live``
streams and the ``pathfinder live`` CLI verb renders.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Digest schema version, bumped when the event shape changes.
DIGEST_VERSION = 1

#: Counters (by absolute delta) and queues (by mean occupancy) per digest.
TOP_K = 5


def epoch_digest(
    epoch_result: Any,
    materializer: Any,
    queues: List[Dict[str, float]],
) -> Dict[str, Any]:
    """One epoch's worth of live diagnosis, JSON-serialisable.

    ``queues`` are the epoch's :class:`~repro.live.QueueSampler`
    samples; the busiest occupied ones become ``hot_queues``.  A warped
    epoch's digest carries no ``hot_queues``: queue meters do not move
    during a fast-forward, so its samples would read 0 inserts at the
    pre-warp occupancy.  The caller still samples every epoch, so the
    next exact epoch's deltas cover only that epoch.

    ``top_counters`` ties on |delta| go by ``(scope, event)``, not by the
    delta's insertion order, which depends on the hash seed.
    """
    snapshot = epoch_result.snapshot
    culprit = epoch_result.queues.culprit()
    top = sorted(
        ((scope, event, delta) for (scope, event), delta in snapshot.delta.items()),
        key=lambda item: (-abs(item[2]), item[0], item[1]),
    )[:TOP_K]
    rolling: Dict[str, Dict[str, Any]] = {}
    pids = materializer.tracked_pids()
    for pid in pids:
        rolling[str(pid)] = materializer.rolling_locality(pid)
    correlations: Dict[str, float] = {}
    for i, a in enumerate(pids):
        for b in pids[i + 1 :]:
            correlations[f"{a}:{b}"] = materializer.rolling_correlate(a, b)
    doc: Dict[str, Any] = {
        "event": "epoch",
        "v": DIGEST_VERSION,
        "epoch": epoch_result.epoch,
        "t_start": snapshot.t_start,
        "t_end": snapshot.t_end,
        "culprit": f"{culprit.path}@{culprit.component}" if culprit else None,
        "top_counters": [[scope, event, delta] for scope, event, delta in top],
        "rolling": rolling,
        "correlations": correlations,
    }
    if getattr(snapshot, "warped", False):
        doc["warped"] = True
        return doc
    hot = sorted(queues, key=lambda s: s["occupancy"], reverse=True)
    hot = [s for s in hot[:TOP_K] if s["occupancy"] > 0.0]
    if hot:
        doc["hot_queues"] = hot
    return doc


def render_live_event(event: Dict[str, Any]) -> str:
    """One-line terminal rendering of a live stream event."""
    kind = event.get("event", "?")
    if kind != "epoch":
        extra = {
            k: v
            for k, v in event.items()
            if k not in ("event", "seq", "ts", "job_id", "v")
        }
        detail = " ".join(f"{k}={v}" for k, v in sorted(extra.items()))
        return f"[{kind}] {detail}".rstrip()
    parts = [f"epoch {event.get('epoch', '?'):>4}"]
    t_end = event.get("t_end")
    if t_end is not None:
        parts.append(f"t={t_end:.0f}")
    culprit = event.get("culprit")
    parts.append(f"culprit={culprit or '-'}")
    rolling = event.get("rolling") or {}
    for pid, state in sorted(rolling.items()):
        flag = "+" if state.get("predictable") else "-"
        forecast = state.get("forecast") or [0.0]
        parts.append(
            f"pid{pid}[mean={state.get('mean', 0.0):.1f} "
            f"next={forecast[0]:.1f} pred{flag}]"
        )
    correlations = event.get("correlations") or {}
    for pair, r in sorted(correlations.items()):
        parts.append(f"r({pair})={r:+.2f}")
    top = event.get("top_counters") or []
    if top:
        scope, name, delta = top[0]
        parts.append(f"top={scope}.{name}:{delta:.0f}")
    return "  ".join(parts)
