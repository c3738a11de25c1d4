"""Fixed-bucket latency histograms with Prometheus exposition semantics.

This module deliberately imports nothing from the rest of ``repro`` so it
can be used from low-level runtime modules (``runtime/cache.py``,
``service/pool.py``) without import cycles.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Sequence, Tuple

# Spans observed here range from sub-millisecond cache lookups to
# multi-second dense-layout solves; 5 ms steps at the bottom and a 60 s
# ceiling cover both without exploding the exposition payload.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


def format_float(value: float) -> str:
    """Render a float the way Prometheus text exposition expects.

    Avoids Python ``repr`` artifacts: ``1e-05`` becomes ``0.00001``,
    integral floats render as bare integers (``3.0`` -> ``3``), and the
    special values use the canonical ``NaN``/``+Inf``/``-Inf`` spellings.
    """
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    text = repr(value)
    if "e" in text or "E" in text:
        if 1e-10 < abs(value) < 1e16:
            expanded = format(value, ".18f").rstrip("0").rstrip(".")
            if float(expanded) == value:
                return expanded
    return text


class HistogramSnapshot:
    """Immutable point-in-time view of one histogram series."""

    __slots__ = ("buckets", "counts", "total_count", "total_sum")

    def __init__(
        self,
        buckets: Sequence[float],
        counts: Sequence[int],
        total_count: int,
        total_sum: float,
    ) -> None:
        self.buckets = tuple(buckets)
        self.counts = tuple(counts)
        self.total_count = total_count
        self.total_sum = total_sum

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(+Inf, count)``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for le, count in zip(self.buckets, self.counts):
            running += count
            out.append((le, running))
        out.append((math.inf, self.total_count))
        return out


class Histogram:
    """A thread-safe fixed-bucket histogram (one series, no labels)."""

    __slots__ = ("_buckets", "_counts", "_count", "_sum", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        ordered = tuple(sorted(float(b) for b in buckets))
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        self._buckets = ordered
        self._counts = [0] * len(ordered)
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        buckets = self._buckets
        index = len(buckets)
        for i, bound in enumerate(buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            if index < len(buckets):
                self._counts[index] += 1
            self._count += 1
            self._sum += value

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                self._buckets, tuple(self._counts), self._count, self._sum
            )


class HistogramVec:
    """A labelled family of histograms sharing one bucket layout.

    ``labels(value)`` lazily creates the child series; ``snapshot()``
    returns children sorted by label value for stable exposition output.
    """

    __slots__ = ("label_name", "_buckets", "_children", "_lock")

    def __init__(
        self, label_name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        self.label_name = label_name
        self._buckets = tuple(sorted(float(b) for b in buckets))
        self._children: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def labels(self, value: str) -> Histogram:
        child = self._children.get(value)
        if child is None:
            with self._lock:
                child = self._children.get(value)
                if child is None:
                    child = Histogram(self._buckets)
                    self._children[value] = child
        return child

    def observe(self, label_value: str, value: float) -> None:
        self.labels(label_value).observe(value)

    def snapshot(self) -> List[Tuple[str, HistogramSnapshot]]:
        with self._lock:
            items = sorted(self._children.items())
        return [(name, child.snapshot()) for name, child in items]
