"""Batch decomposition of many layouts with shared workers and cache.

``decompose_many`` is the high-throughput entry point the ROADMAP's
production goal asks for: it decomposes a whole list of layouts with one
worker pool (spun up once, reused for every layout) and one
:class:`~repro.runtime.cache.ComponentCache` (so a cell repeated across
layouts — the normal case for standard-cell designs — is solved exactly
once).  Per-layout results are ordinary
:class:`~repro.core.decomposer.DecompositionResult` objects, bit-identical to
what a serial :meth:`Decomposer.decompose` call would return.

::

    from repro.runtime import decompose_many

    batch = decompose_many({"cellA": layout_a, "cellB": layout_b}, workers=4)
    for item in batch.items:
        print(item.name, item.result.solution.summary())
    print(batch.aggregate_summary())
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.decomposer import Decomposer, DecompositionResult
from repro.core.options import DecomposerOptions
from repro.geometry.layout import Layout
from repro.runtime.cache import CacheStats, ComponentCache
from repro.runtime.pipeline import executor_for, resolve_workers

#: Accepted layout collections: a sequence of layouts (named after
#: ``Layout.name``), a sequence of (name, layout) pairs, or a name->layout map.
LayoutsInput = Union[
    Sequence[Layout],
    Sequence[Tuple[str, Layout]],
    Mapping[str, Layout],
]


@dataclass
class BatchItem:
    """One layout's slot in a batch result."""

    name: str
    result: DecompositionResult
    seconds: float

    def summary(self) -> str:
        return f"{self.name}: {self.result.solution.summary()}"


@dataclass
class BatchResult:
    """Everything :func:`decompose_many` produced."""

    items: List[BatchItem] = field(default_factory=list)
    workers: int = 1
    total_seconds: float = 0.0
    cache_stats: Optional[CacheStats] = None

    # ------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self.items)

    def item(self, name: str) -> BatchItem:
        for entry in self.items:
            if entry.name == name:
                return entry
        raise KeyError(f"no batch item named {name!r}")

    def total_conflicts(self) -> int:
        return sum(entry.result.solution.conflicts for entry in self.items)

    def total_stitches(self) -> int:
        return sum(entry.result.solution.stitches for entry in self.items)

    def aggregate_summary(self) -> str:
        """One-line roll-up across every layout in the batch."""
        line = (
            f"batch: {len(self.items)} layouts, "
            f"conflicts={self.total_conflicts()} stitches={self.total_stitches()} "
            f"workers={self.workers} wall={self.total_seconds:.3f}s"
        )
        if self.cache_stats is not None and self.cache_stats.lookups:
            line += f" | {self.cache_stats.summary()}"
        return line

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-serialisable report (used by ``repro-decompose batch --json``)."""
        payload: Dict[str, object] = {
            "layouts": [
                {
                    "name": entry.name,
                    "algorithm": entry.result.solution.algorithm,
                    "num_colors": entry.result.solution.num_colors,
                    "conflicts": entry.result.solution.conflicts,
                    "stitches": entry.result.solution.stitches,
                    "cost": entry.result.solution.cost,
                    "vertices": entry.result.construction.graph.num_vertices,
                    "seconds": entry.seconds,
                }
                for entry in self.items
            ],
            "aggregate": {
                "layouts": len(self.items),
                "conflicts": self.total_conflicts(),
                "stitches": self.total_stitches(),
                "workers": self.workers,
                "total_seconds": self.total_seconds,
            },
        }
        if self.cache_stats is not None:
            payload["cache"] = self.cache_stats.to_json_dict()
        return payload


def dedupe_names(names: Iterable[str]) -> List[str]:
    """Disambiguate colliding names with ``#1``, ``#2``, ... suffixes.

    Non-colliding names pass through untouched.  The single owner of the
    batch naming rule — used here and by the service's batch endpoint, so
    CLI batches and served batches can never drift apart.
    """
    seen: Dict[str, int] = {}
    unique: List[str] = []
    for name in names:
        count = seen.get(name, 0)
        seen[name] = count + 1
        unique.append(f"{name}#{count}" if count else name)
    return unique


def _named_layouts(layouts: LayoutsInput) -> List[Tuple[str, Layout]]:
    """Normalise the accepted input shapes to unique (name, layout) pairs."""
    if isinstance(layouts, Mapping):
        pairs = list(layouts.items())
    else:
        pairs = []
        for position, entry in enumerate(layouts):
            if isinstance(entry, Layout):
                pairs.append((entry.name or f"layout{position}", entry))
            else:
                name, layout = entry
                pairs.append((name, layout))
    names = dedupe_names(name for name, _ in pairs)
    return list(zip(names, (layout for _, layout in pairs)))


def decompose_many(
    layouts: LayoutsInput,
    options: Optional[DecomposerOptions] = None,
    layer: Optional[str] = None,
    workers: Optional[int] = None,
    cache: Union[ComponentCache, bool, None] = True,
) -> BatchResult:
    """Decompose every layout in ``layouts`` with shared workers and cache.

    Parameters
    ----------
    layouts:
        Layouts, (name, layout) pairs, or a name->layout mapping.  Duplicate
        names are disambiguated with ``#1``, ``#2``, ... suffixes.
    options:
        One :class:`DecomposerOptions` applied to every layout (defaults to
        quadruple patterning with the paper's parameters).
    layer:
        The layer decomposed on every layout; ``None`` (default) resolves per
        layout to its first layer (falling back to ``"metal1"``), matching the
        single-layout CLI behavior.
    workers:
        ``None``/``1`` serial, ``N >= 2`` a pool of N processes shared by all
        layouts, ``0`` one worker per CPU.
    cache:
        ``True`` (default) creates a fresh shared :class:`ComponentCache`,
        ``False``/``None`` disables memoisation, or pass your own cache to
        persist it across batches.

    Results are bit-identical to serial per-layout decomposition regardless
    of ``workers`` and ``cache``.
    """
    named = _named_layouts(layouts)
    options = options or DecomposerOptions.for_quadruple_patterning()
    if cache is True:
        component_cache: Optional[ComponentCache] = ComponentCache()
    elif cache is False or cache is None:
        component_cache = None
    else:
        component_cache = cache

    worker_count = resolve_workers(workers)
    decomposer = Decomposer(options)

    start_batch = time.perf_counter()
    stats_before = (
        component_cache.snapshot_stats() if component_cache is not None else None
    )
    batch = BatchResult(workers=worker_count)
    # One executor (and so at most one process pool) for every layout.
    with executor_for(worker_count) as executor:
        for name, layout in named:
            if layer is None:
                layers = layout.layers()
                layout_layer = layers[0] if layers else "metal1"
            else:
                layout_layer = layer
            start = time.perf_counter()
            result = decomposer.decompose(
                layout, layer=layout_layer, cache=component_cache, executor=executor
            )
            batch.items.append(
                BatchItem(name=name, result=result, seconds=time.perf_counter() - start)
            )
    batch.total_seconds = time.perf_counter() - start_batch
    if component_cache is not None:
        # Report this batch's activity only: a user-supplied cache may carry
        # hits/misses from earlier batches.
        after = component_cache.snapshot_stats()
        batch.cache_stats = CacheStats(
            hits=after.hits - stats_before.hits,
            misses=after.misses - stats_before.misses,
            evictions=after.evictions - stats_before.evictions,
            entries_hint=after.entries_hint,
        )
    return batch
