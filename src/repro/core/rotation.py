"""Color rotation for re-connecting divided components (Lemma 1 / Theorem 2).

After a (K-1)-cut removal, each side of the cut is colored independently.
Rotating every color of one side by the same offset ``r`` (``c -> (c + r) % K``)
changes no cost inside the side; each cut edge forbids exactly one offset (the
one that makes its endpoints equal), so with at most K-1 cut edges some offset
re-connects the sides without any new conflict.  The merge below additionally
uses the stitch cost of the crossing edges to break ties between equally
conflict-free offsets.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Tuple

from repro.errors import DecompositionError
from repro.graph.decomposition_graph import DecompositionGraph


def rotate_coloring(
    coloring: Dict[int, int], offset: int, num_colors: int
) -> Dict[int, int]:
    """Return a copy of ``coloring`` with every color rotated by ``offset``."""
    return {vertex: (color + offset) % num_colors for vertex, color in coloring.items()}


def best_rotation(
    crossing_edges: Sequence[Tuple[int, int, bool]],
    fixed_coloring: Dict[int, int],
    component_coloring: Dict[int, int],
    num_colors: int,
    alpha: float,
) -> Tuple[int, float]:
    """Return the rotation offset minimising the cost of the crossing edges.

    Parameters
    ----------
    crossing_edges:
        Edges ``(fixed_vertex, component_vertex, is_conflict)`` between the
        already-merged region and the component about to be rotated.
    fixed_coloring / component_coloring:
        Colors on either side.
    num_colors, alpha:
        Mask count and stitch weight.

    Returns the chosen offset and its crossing cost.
    """
    best_offset = 0
    best_cost = float("inf")
    for offset in range(num_colors):
        conflicts = 0
        stitches = 0
        for fixed_vertex, component_vertex, is_conflict in crossing_edges:
            fixed_color = fixed_coloring[fixed_vertex]
            rotated = (component_coloring[component_vertex] + offset) % num_colors
            if is_conflict:
                if fixed_color == rotated:
                    conflicts += 1
            else:
                if fixed_color != rotated:
                    stitches += 1
        cost = conflicts + alpha * stitches
        if cost < best_cost:
            best_cost = cost
            best_offset = offset
            if cost == 0:
                break
    return best_offset, best_cost


def merge_component_colorings(
    graph: DecompositionGraph,
    component_colorings: Sequence[Dict[int, int]],
    num_colors: int,
    alpha: float,
) -> Dict[int, int]:
    """Merge independently-colored components of one graph by color rotation.

    The components must partition ``graph``'s vertices.  Components are
    attached one by one following a breadth-first traversal of the component
    adjacency (components connected by at least one crossing edge); each new
    component receives the rotation minimising the crossing cost against the
    already-merged region.  Isolated components keep their colors.
    """
    component_of: Dict[int, int] = {}
    for index, coloring in enumerate(component_colorings):
        for vertex in coloring:
            if vertex in component_of:
                raise DecompositionError(
                    f"vertex {vertex} appears in two component colorings"
                )
            component_of[vertex] = index
    for vertex in graph.vertices():
        if vertex not in component_of:
            raise DecompositionError(f"vertex {vertex} missing from component colorings")

    # Crossing edges bucketed by unordered component pair.
    crossing: Dict[Tuple[int, int], List[Tuple[int, int, bool]]] = {}

    def record(u: int, v: int, is_conflict: bool) -> None:
        cu, cv = component_of[u], component_of[v]
        if cu == cv:
            return
        key = (cu, cv) if cu < cv else (cv, cu)
        crossing.setdefault(key, []).append((u, v, is_conflict))

    for u, v in graph.conflict_edges():
        record(u, v, True)
    for u, v in graph.stitch_edges():
        record(u, v, False)

    adjacency: Dict[int, List[int]] = {i: [] for i in range(len(component_colorings))}
    for a, b in crossing:
        adjacency[a].append(b)
        adjacency[b].append(a)

    merged: Dict[int, int] = {}
    placed = [False] * len(component_colorings)
    for start in range(len(component_colorings)):
        if placed[start]:
            continue
        # First component of a group is placed as-is.
        merged.update(component_colorings[start])
        placed[start] = True
        queue: deque = deque([start])
        while queue:
            current = queue.popleft()
            for neighbour in adjacency[current]:
                if placed[neighbour]:
                    continue
                edges = _edges_toward(crossing, merged, component_colorings[neighbour])
                offset, _ = best_rotation(
                    edges,
                    merged,
                    component_colorings[neighbour],
                    num_colors,
                    alpha,
                )
                merged.update(
                    rotate_coloring(component_colorings[neighbour], offset, num_colors)
                )
                placed[neighbour] = True
                queue.append(neighbour)
    return merged


def _edges_toward(
    crossing: Dict[Tuple[int, int], List[Tuple[int, int, bool]]],
    merged: Dict[int, int],
    component_coloring: Dict[int, int],
) -> List[Tuple[int, int, bool]]:
    """Collect crossing edges between the merged region and one component."""
    edges: List[Tuple[int, int, bool]] = []
    component_vertices = set(component_coloring)
    for pair_edges in crossing.values():
        for u, v, is_conflict in pair_edges:
            if u in merged and v in component_vertices:
                edges.append((u, v, is_conflict))
            elif v in merged and u in component_vertices:
                edges.append((v, u, is_conflict))
    return edges
