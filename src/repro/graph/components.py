"""Connected component computation on decomposition graphs.

Independent component computation is the first graph-division technique of
Section 4: vertices in different connected components (considering both
conflict and stitch edges) can be colored independently, so the color
assignment cost is driven by the largest component rather than the full chip.
"""

from __future__ import annotations

from collections import deque
from typing import List, Set

from repro.graph.decomposition_graph import DecompositionGraph


def connected_components(graph: DecompositionGraph) -> List[List[int]]:
    """Return the connected components as sorted vertex lists.

    Conflict and stitch edges both connect (fragments of one feature must
    stay together).  The components are returned sorted by their smallest
    vertex so the output is deterministic across runs.
    """
    seen: Set[int] = set()
    components: List[List[int]] = []
    for start in graph.vertices():
        if start in seen:
            continue
        component = _bfs(graph, start)
        seen.update(component)
        components.append(sorted(component))
    components.sort(key=lambda comp: comp[0])
    return components


def _bfs(graph: DecompositionGraph, start: int) -> Set[int]:
    """Breadth-first traversal from ``start`` over conflict and stitch edges."""
    seen: Set[int] = {start}
    queue: deque = deque([start])
    while queue:
        vertex = queue.popleft()
        for other in graph.neighbors(vertex):
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return seen
