"""Log-bucketed latency histogram.

Per-stage residencies span four orders of magnitude (an L2 tag probe is
~10 cycles, a queued CXL media access can be >10k), so fixed-width bins
either blur the short stages or truncate the long ones.  A power-of-two
bucketed histogram keeps constant relative resolution across the whole
range at a fixed, tiny memory cost - the same trick HdrHistogram and the
kernel's BPF ``log2`` histograms use.
"""

from __future__ import annotations

import math
from typing import Dict, List


class LogHistogram:
    """Histogram with power-of-two buckets over non-negative values.

    Bucket ``i`` (for ``i >= 1``) covers ``[2**(i-1), 2**i)``; bucket 0
    holds values below 1.0 (including zero).  Exact sum/min/max are kept
    alongside the buckets so ``mean`` does not suffer bucketing error;
    percentiles interpolate within the winning bucket.
    """

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float = math.inf
        self.max: float = 0.0
        self._buckets: Dict[int, int] = {}

    @staticmethod
    def _bucket_of(value: float) -> int:
        if value < 1.0:
            return 0
        return int(math.log2(value)) + 1

    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative latency sample: {value}")
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = self._bucket_of(value)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogHistogram):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (``q`` in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        seen = 0
        for bucket in sorted(self._buckets):
            seen += self._buckets[bucket]
            if seen >= target:
                lo = 0.0 if bucket == 0 else float(2 ** (bucket - 1))
                hi = 1.0 if bucket == 0 else float(2 ** bucket)
                # Clamp the interpolated estimate into the observed range.
                mid = (lo + hi) / 2.0
                return min(max(mid, self.min), self.max)
        return self.max

    def merge(self, other: "LogHistogram") -> None:
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for bucket, count in other._buckets.items():
            self._buckets[bucket] = self._buckets.get(bucket, 0) + count

    def buckets(self) -> List[List[float]]:
        """``[bucket_low, count]`` rows, low-to-high (for plotting)."""
        rows = []
        for bucket in sorted(self._buckets):
            low = 0.0 if bucket == 0 else float(2 ** (bucket - 1))
            rows.append([low, float(self._buckets[bucket])])
        return rows

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max,
            "buckets": [[b, c] for b, c in sorted(self._buckets.items())],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "LogHistogram":
        hist = cls()
        hist.count = int(data["count"])
        hist.total = float(data["total"])
        hist.min = math.inf if data.get("min") is None else float(data["min"])
        hist.max = float(data.get("max", 0.0))
        hist._buckets = {int(b): int(c) for b, c in data.get("buckets", [])}
        return hist
