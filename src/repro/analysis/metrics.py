"""Post-decomposition analysis: mask balance, conflict reports, graph stats.

The DAC'14 paper optimises conflicts and stitches; its follow-up work (the
ICCAD'13 balanced-density TPL decomposer by the same authors) additionally
tracks how evenly the features are spread over the masks, because unbalanced
masks hurt exposure uniformity.  This module provides those reporting metrics
for any :class:`~repro.core.decomposer.DecompositionResult`, plus the
conflict-pair report designers use to locate remaining hotspots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.decomposer import DecompositionResult
from repro.geometry.rect import Rect, bounding_box
from repro.graph.decomposition_graph import DecompositionGraph


@dataclass(frozen=True)
class MaskBalance:
    """Per-mask usage statistics of a decomposition solution.

    Attributes
    ----------
    fragment_counts:
        Number of graph vertices (feature fragments) per mask.
    area:
        Total feature area per mask, in square database units.
    density_ratio:
        Each mask's share of the total feature area (sums to 1).
    balance_score:
        ``min(area) / max(area)`` — 1.0 means perfectly balanced masks, 0
        means at least one mask is empty.
    """

    fragment_counts: Dict[int, int]
    area: Dict[int, int]
    density_ratio: Dict[int, float]
    balance_score: float


def mask_balance(result: DecompositionResult) -> MaskBalance:
    """Compute the mask-balance metrics of a decomposition result."""
    num_colors = result.solution.num_colors
    counts = {color: 0 for color in range(num_colors)}
    area = {color: 0 for color in range(num_colors)}
    for vertex, rects in result.construction.fragments.items():
        color = result.solution.coloring[vertex]
        counts[color] += 1
        area[color] += sum(r.area for r in rects)
    total_area = sum(area.values())
    if total_area == 0:
        ratio = {color: 0.0 for color in range(num_colors)}
        score = 0.0
    else:
        ratio = {color: area[color] / total_area for color in range(num_colors)}
        largest = max(area.values())
        score = (min(area.values()) / largest) if largest else 0.0
    return MaskBalance(
        fragment_counts=counts,
        area=area,
        density_ratio=ratio,
        balance_score=score,
    )


@dataclass(frozen=True)
class ConflictReport:
    """One unresolved conflict: the fragment pair, their masks and location."""

    vertex_a: int
    vertex_b: int
    mask: int
    location: Rect
    spacing: float


def conflict_report(result: DecompositionResult) -> List[ConflictReport]:
    """Return every remaining same-mask conflict with its bounding location.

    The location is the bounding box of the two offending fragments — the
    hotspot a designer would inspect (or fix by stitch insertion / manual
    recoloring).
    """
    flat = result.construction.graph.to_arrays()
    fragments = result.construction.fragments
    coloring = result.solution.coloring
    reports: List[ConflictReport] = []
    vertex_of, edges = flat.vertex_ids.__getitem__, flat.conflict_edges
    for u, v in zip(map(vertex_of, edges[0::2]), map(vertex_of, edges[1::2])):
        if coloring[u] != coloring[v]:
            continue
        rects = fragments[u] + fragments[v]
        spacing = min(
            a.distance(b) for a in fragments[u] for b in fragments[v]
        )
        reports.append(
            ConflictReport(
                vertex_a=u,
                vertex_b=v,
                mask=coloring[u],
                location=bounding_box(rects),
                spacing=spacing,
            )
        )
    reports.sort(key=lambda r: (r.location.xl, r.location.yl))
    return reports


@dataclass(frozen=True)
class GraphStatistics:
    """Structural summary of a decomposition graph (workload difficulty)."""

    vertices: int
    conflict_edges: int
    stitch_edges: int
    friend_edges: int
    max_conflict_degree: int
    average_conflict_degree: float
    component_count: int
    largest_component: int
    kernel_vertices: int


def graph_statistics(graph: DecompositionGraph, num_colors: int = 4) -> GraphStatistics:
    """Summarise a decomposition graph from its flat form.

    ``kernel_vertices`` counts the vertices that survive low-degree peeling —
    the part of the graph the expensive color-assignment algorithms actually
    see.
    """
    from repro.core.division import rank_components
    from repro.core.kernels.adjacency import CSRAdjacency
    from repro.graph.simplify import peel_low_degree_vertices

    flat = graph.to_arrays()
    csr = CSRAdjacency(flat)
    start = csr.conflict_start
    degrees = [start[rank + 1] - start[rank] for rank in range(flat.num_vertices)]
    _, components = rank_components(csr)
    alive, *_ = peel_low_degree_vertices(num_colors, 2, csr)
    return GraphStatistics(
        vertices=flat.num_vertices,
        conflict_edges=flat.num_conflict_edges,
        stitch_edges=flat.num_stitch_edges,
        friend_edges=flat.num_friend_edges,
        max_conflict_degree=max(degrees, default=0),
        average_conflict_degree=(sum(degrees) / len(degrees)) if degrees else 0.0,
        component_count=len(components),
        largest_component=max((len(c) for c in components), default=0),
        kernel_vertices=sum(alive),
    )


def summary_text(result: DecompositionResult) -> str:
    """Multi-line human-readable report used by the CLI and examples."""
    balance = mask_balance(result)
    stats = graph_statistics(result.construction.graph, result.solution.num_colors)
    lines = [
        result.solution.summary(),
        (
            f"graph: {stats.vertices} vertices, {stats.conflict_edges} conflict edges, "
            f"{stats.stitch_edges} stitch edges, {stats.component_count} components "
            f"(largest {stats.largest_component}, kernel {stats.kernel_vertices})"
        ),
        f"mask balance score: {balance.balance_score:.3f}",
    ]
    for color in sorted(balance.fragment_counts):
        lines.append(
            f"  mask{color}: {balance.fragment_counts[color]} fragments, "
            f"{balance.density_ratio[color] * 100:.1f}% of feature area"
        )
    conflicts = conflict_report(result)
    if conflicts:
        lines.append(f"remaining conflict hotspots ({len(conflicts)}):")
        for report in conflicts[:10]:
            lines.append(
                f"  mask{report.mask} fragments {report.vertex_a}/{report.vertex_b} "
                f"near ({report.location.xl}, {report.location.yl}), "
                f"spacing {report.spacing:.0f} nm"
            )
        if len(conflicts) > 10:
            lines.append(f"  ... and {len(conflicts) - 10} more")
    return "\n".join(lines)
