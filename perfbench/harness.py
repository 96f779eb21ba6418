"""Shared plumbing: checkout paths, statistics, the timed loop, set-up timing.

Everything the benchmark writes lives under ``<checkout>/.perfbench/``
(``cache/`` for references keyed on the code hash, ``work/`` for
per-run daemon state, ``out/`` for trace files), so a run never touches
anything outside the checkout it was started from.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
CACHE_DIR = STATE / "cache"
WORK_DIR = STATE / "work"
OUT_DIR = STATE / "out"

#: The modules a cold start of the in-process workloads imports.
IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import repro, repro.api, repro.live, repro.obs.validation"
)


def require_source() -> None:
    """Make ``repro`` importable; exit non-zero when the checkout lacks it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no source tree at {SRC}/repro\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def code_hash() -> str:
    """sha256 over the simulator's and the benchmark's Python sources.

    References (exact runs, the accuracy panel) are stored under this
    hash, so a model or benchmark change never compares against a stale
    reference.
    """
    digest = hashlib.sha256()
    files = sorted((SRC / "repro").rglob("*.py")) + sorted(
        p for p in BENCH_DIR.glob("*.py") if not p.name.startswith("test_"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:20]


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values: Sequence[float], beyond: int = 10) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value, sample_count)`` or None when there are
    too few samples for any such percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return None
    index = n - beyond - 1
    return 100.0 * (index + 1) / n, ordered[index], n


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- timing -------------------------------------------------------------------


def timed_passes(run_pass: Callable[[int], object], seconds: float) -> List[object]:
    """Run whole passes for about ``seconds`` (always at least one).

    Another pass starts only while the last one would still fit, so a
    run ends near ``seconds`` whatever the pass length.
    """
    passes: List[object] = []
    began = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - began + last <= seconds:
        started = time.perf_counter()
        passes.append(run_pass(len(passes)))
        last = time.perf_counter() - started
    return passes


def cold_import_s() -> float:
    """Wall time of a fresh interpreter importing the package."""
    began = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        check=True, timeout=120, cwd=str(ROOT),
    )
    return time.perf_counter() - began
