"""Measurement helpers: counters, latency samples and time series.

The benchmark harness reads these to print the paper's figures; the
fault-tolerance experiment (Fig. 11) uses :class:`RateSeries` to bucket
served operations per second.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Tally", "RateSeries", "summary_stats"]


class Counter:
    """A named monotonically increasing byte/op counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {amount}")
        self.value += amount

    def reset(self) -> int:
        old, self.value = self.value, 0
        return old

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe state for :class:`~repro.obs.MetricsRegistry` exports."""
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name!r}, {self.value})"


class Tally:
    """Accumulates scalar samples (latencies) with O(1) memory for moments
    and optional retention of raw samples for percentiles."""

    def __init__(self, name: str = "", keep_samples: bool = True):
        self.name = name
        self.count = 0
        self._sum = 0.0
        self._sumsq = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._samples: Optional[List[float]] = [] if keep_samples else None

    def observe(self, value: float) -> None:
        self.count += 1
        self._sum += value
        self._sumsq += value * value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._samples is not None:
            self._samples.append(value)

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else math.nan

    @property
    def stdev(self) -> float:
        # Empty tallies report nan across the board (mean/min/max do);
        # a lone 0.0 here made summary_stats([]) mix nan and 0.0.
        if self.count == 0:
            return math.nan
        if self.count == 1:
            return 0.0
        var = (self._sumsq - self._sum * self._sum / self.count) / (self.count - 1)
        return math.sqrt(max(var, 0.0))

    @property
    def minimum(self) -> float:
        return self._min if self.count else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self.count else math.nan

    def percentile(self, q: float) -> float:
        """q in [0, 100]; requires keep_samples=True."""
        if self._samples is None:
            raise ValueError(f"tally {self.name!r} does not retain samples")
        if not self._samples:
            return math.nan
        data = sorted(self._samples)
        if len(data) == 1:
            return data[0]
        pos = (q / 100.0) * (len(data) - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(data) - 1)
        frac = pos - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    @property
    def samples(self) -> Sequence[float]:
        if self._samples is None:
            raise ValueError(f"tally {self.name!r} does not retain samples")
        return tuple(self._samples)

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe state (nan becomes None so strict JSON parsers work)."""
        def safe(x: float):
            return None if math.isnan(x) else x

        out: Dict[str, object] = {
            "type": "tally",
            "count": self.count,
            "mean": safe(self.mean),
            "stdev": safe(self.stdev),
            "min": safe(self.minimum),
            "max": safe(self.maximum),
        }
        if self._samples is not None:
            out["p50"] = safe(self.percentile(50))
            out["p99"] = safe(self.percentile(99))
        return out


class RateSeries:
    """Buckets event occurrences into fixed-width time bins (ops/second)."""

    def __init__(self, bin_width: float = 1.0, name: str = ""):
        if bin_width <= 0:
            raise ValueError(f"bin width must be positive, got {bin_width}")
        self.name = name
        self.bin_width = bin_width
        self._bins: Dict[int, int] = {}

    def record(self, when: float, count: int = 1) -> None:
        idx = int(when // self.bin_width)
        self._bins[idx] = self._bins.get(idx, 0) + count

    def series(self, t_end: Optional[float] = None) -> List[Tuple[float, float]]:
        """Return [(bin_start_time, rate_per_second), ...] densely through
        ``t_end`` — or further, if events were recorded after ``t_end``
        (late bins used to be silently dropped, hiding recorded data)."""
        if not self._bins and t_end is None:
            return []
        last = int(t_end // self.bin_width) if t_end is not None else -1
        if self._bins:
            last = max(last, max(self._bins))
        out = []
        for idx in range(0, last + 1):
            out.append((idx * self.bin_width, self._bins.get(idx, 0) / self.bin_width))
        return out

    def total(self) -> int:
        return sum(self._bins.values())

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe state: bin index -> event count (sparse, stringly keyed)."""
        return {
            "type": "rate",
            "bin_width": self.bin_width,
            "total": self.total(),
            "bins": {str(idx): self._bins[idx] for idx in sorted(self._bins)},
        }


def summary_stats(values: Sequence[float]) -> Dict[str, float]:
    """Mean/std/min/max of a sequence (empty-safe, for report tables)."""
    t = Tally(keep_samples=False)
    for v in values:
        t.observe(v)
    return {
        "mean": t.mean,
        "stdev": t.stdev,
        "min": t.minimum,
        "max": t.maximum,
        "count": t.count,
    }
