"""Articulation points and 2-vertex-connected components.

The 2-vertex-connected (biconnected) component split is the third graph
division technique of Section 4: a cut vertex can be colored once and the
attached blocks colored independently, then merged by rotating whole blocks so
the shared vertex keeps a single color.

The implementation is an iterative Hopcroft–Tarjan DFS (no recursion) so that
components with tens of thousands of vertices do not hit Python's recursion
limit.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.graph.decomposition_graph import DecompositionGraph


def articulation_points(graph: DecompositionGraph) -> Set[int]:
    """Return the articulation (cut) vertices of the conflict+stitch graph."""
    vertices = graph.vertices()
    points, _ = _biconnected_dfs(_adjacency(graph, vertices))
    return {vertices[index] for index in points}


def biconnected_components(graph: DecompositionGraph) -> List[List[int]]:
    """Return the 2-vertex-connected blocks as sorted vertex lists.

    Each block contains at least two vertices (an edge).  Isolated vertices
    form singleton blocks so that every vertex appears in the output.
    """
    vertices = graph.vertices()
    return [
        [vertices[index] for index in block]
        for block in biconnected_blocks(_adjacency(graph, vertices))
    ]


def biconnected_blocks(adjacency: Sequence[Sequence[int]]) -> List[List[int]]:
    """The blocks of the graph on ``0..n-1`` whose sorted neighbour lists are
    ``adjacency``, as :func:`biconnected_components` returns them.

    Blocks are sorted lists ordered by (first vertex, size), with isolated
    vertices as singletons.  An increasing relabeling maps the blocks of a
    graph onto those of its copy, in the same order, which is what lets the
    division run this on ranks.
    """
    _, blocks = _biconnected_dfs(adjacency)
    covered: Set[int] = set()
    for block in blocks:
        covered.update(block)
    for vertex in range(len(adjacency)):
        if vertex not in covered:
            blocks.append([vertex])
    blocks.sort(key=lambda block: (block[0], len(block)))
    return blocks


def _adjacency(graph: DecompositionGraph, vertices: List[int]) -> List[List[int]]:
    """Sorted conflict+stitch neighbour positions of each of ``vertices``."""
    position = {vertex: index for index, vertex in enumerate(vertices)}
    return [sorted(position[other] for other in graph.neighbors(v)) for v in vertices]


def _biconnected_dfs(
    adjacency: Sequence[Sequence[int]],
) -> Tuple[Set[int], List[List[int]]]:
    """Iterative DFS returning (articulation points, biconnected blocks).

    Roots are taken in vertex order and neighbours in list order; each
    block comes out as a sorted list.
    """
    n = len(adjacency)
    index = [-1] * n
    low = [0] * n
    parent = [-1] * n
    resume = [0] * n  # next neighbour position of each vertex on the path
    points: Set[int] = set()
    blocks: List[List[int]] = []
    edge_stack: List[Tuple[int, int]] = []
    counter = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        root_children = 0
        index[root] = low[root] = counter
        counter += 1
        path = [root]
        while path:
            vertex = path[-1]
            neighbours = adjacency[vertex]
            up = parent[vertex]
            pointer = resume[vertex]
            while pointer < len(neighbours):
                child = neighbours[pointer]
                pointer += 1
                if child == up:
                    continue
                seen = index[child]
                if seen >= 0:
                    if seen < index[vertex]:
                        edge_stack.append((vertex, child))
                        if seen < low[vertex]:
                            low[vertex] = seen
                    continue
                # Tree edge: descend.
                edge_stack.append((vertex, child))
                index[child] = low[child] = counter
                counter += 1
                if vertex == root:
                    root_children += 1
                resume[vertex] = pointer
                parent[child] = vertex
                path.append(child)
                break
            else:
                # vertex is fully processed: propagate low-link to the parent.
                path.pop()
                if up == -1:
                    continue
                if low[vertex] < low[up]:
                    low[up] = low[vertex]
                if low[vertex] >= index[up]:
                    # Pop the block of edges above (up, vertex).
                    block: Set[int] = set()
                    while edge_stack:
                        edge = edge_stack.pop()
                        block.update(edge)
                        if edge == (up, vertex):
                            break
                    if block:
                        blocks.append(sorted(block))
                    if up != root:
                        points.add(up)
        if root_children > 1:
            points.add(root)
        # Any leftover edges under this root form one final block.
        if edge_stack:
            block = set()
            while edge_stack:
                block.update(edge_stack.pop())
            blocks.append(sorted(block))
    return points, blocks
