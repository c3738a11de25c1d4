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
from typing import Dict, Iterable, List, Sequence, Set, Tuple

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
    seen: Set[int] = set()
    for coloring in component_colorings:
        for vertex in coloring:
            if vertex in seen:
                raise DecompositionError(
                    f"vertex {vertex} appears in two component colorings"
                )
            seen.add(vertex)
    for vertex in graph.vertices():
        if vertex not in seen:
            raise DecompositionError(f"vertex {vertex} missing from component colorings")
    return rotation_merge(
        [list(coloring) for coloring in component_colorings],
        [list(coloring.values()) for coloring in component_colorings],
        graph.conflict_edges(),
        graph.stitch_edges(),
        num_colors,
        alpha,
    )


def rotation_merge(
    parts: Sequence[Sequence[int]],
    part_colors: Sequence[Sequence[int]],
    conflict_edges: Iterable[Tuple[int, int]],
    stitch_edges: Iterable[Tuple[int, int]],
    num_colors: int,
    alpha: float,
) -> Dict[int, int]:
    """:func:`merge_component_colorings` on plain lists, unchecked.

    ``parts[i]`` lists the vertices of part ``i`` and ``part_colors[i]``
    their colors, in the same order; the edge lists hold every edge between
    the parts' vertices.  The division passes ranks.
    """
    part_of: Dict[int, int] = {}
    color: Dict[int, int] = {}
    for index, (part, colors) in enumerate(zip(parts, part_colors)):
        for vertex, value in zip(part, colors):
            part_of[vertex] = index
            color[vertex] = value

    # Crossing edges bucketed by unordered part pair.
    crossing: Dict[Tuple[int, int], List[Tuple[int, int, bool]]] = {}
    for edges, is_conflict in ((conflict_edges, True), (stitch_edges, False)):
        for u, v in edges:
            a, b = part_of[u], part_of[v]
            if a != b:
                key = (a, b) if a < b else (b, a)
                crossing.setdefault(key, []).append((u, v, is_conflict))
    adjacency: List[List[int]] = [[] for _ in parts]
    for a, b in crossing:
        adjacency[a].append(b)
        adjacency[b].append(a)

    merged: Dict[int, int] = {}
    placed = [False] * len(parts)
    for start in range(len(parts)):
        if placed[start]:
            continue
        # First part of a group is placed as-is.
        for vertex in parts[start]:
            merged[vertex] = color[vertex]
        placed[start] = True
        queue: deque = deque([start])
        while queue:
            current = queue.popleft()
            for neighbour in adjacency[current]:
                if placed[neighbour]:
                    continue
                # (fixed vertex, vertex to rotate, is_conflict) for every
                # crossing edge toward a placed part.
                toward = [
                    (v, u, is_conflict) if part_of[u] == neighbour else (u, v, is_conflict)
                    for (a, b), edges in crossing.items()
                    if neighbour in (a, b) and placed[a + b - neighbour]
                    for u, v, is_conflict in edges
                ]
                offset, _ = best_rotation(toward, merged, color, num_colors, alpha)
                for vertex in parts[neighbour]:
                    merged[vertex] = (color[vertex] + offset) % num_colors
                placed[neighbour] = True
                queue.append(neighbour)
    return merged
