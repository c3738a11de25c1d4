"""Exact backtracking color assignment (Algorithm 1, lines 7-19).

The search enumerates colorings of a (possibly merged) graph and keeps the
best one found, pruning branches whose partial cost already reaches the
incumbent and breaking color-permutation symmetry.  It is exact when allowed
to run to completion; a node-expansion budget turns it into an anytime
algorithm that degrades to its greedy incumbent, which is how the
SDP+Backtrack flow stays practical on components where the SDP produced few
merge candidates.

:func:`search_merged_graph` is the *reference* implementation — the bit-exact
semantics every optimized kernel (:mod:`repro.core.kernels.backtrack_kernel`)
must reproduce.  Production call sites go through
:func:`run_backtrack_search`, which dispatches to the fastest available
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.coloring import ColoringAlgorithm
from repro.core.greedy_coloring import greedy_color_merged
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.simplify import MergedGraph, build_merged_graph


@dataclass
class BacktrackStatistics:
    """Search statistics of the last :func:`search_merged_graph` call.

    Every search call overwrites all three fields (including the trivial
    empty-graph search), so one instance can be reused across calls without
    ever observing a stale value from an earlier search.
    """

    expansions: int = 0
    completed: bool = True
    best_cost: float = float("inf")


def search_setup(
    merged: MergedGraph,
    num_colors: int,
    alpha: float,
    initial: Optional[Dict[int, int]] = None,
) -> Tuple[List[int], List[List[Tuple[int, float, float]]], Dict[int, int], float]:
    """The branch-and-bound set-up every search implementation shares.

    Returns ``(order, earlier_edges, incumbent, best_cost)`` for a
    non-empty merged graph:

    * ``order`` — nodes by decreasing weighted degree (ties by id), so heavy
      nodes are fixed early and pruning bites sooner;
    * ``earlier_edges[node]`` — ``(other, conflict_w, stitch_w)`` for each
      edge toward a node earlier in ``order``: conflict entries in dict
      order, then stitch entries, the order the cost accumulator sums them;
    * ``incumbent`` — ``initial`` or the greedy coloring, and its cost.
    """
    n = merged.num_nodes
    weight_degree = [0.0] * n
    for (a, b), w in merged.conflict_weight.items():
        weight_degree[a] += w
        weight_degree[b] += w
    for (a, b), w in merged.stitch_weight.items():
        weight_degree[a] += alpha * w
        weight_degree[b] += alpha * w
    order = sorted(range(n), key=lambda node: (-weight_degree[node], node))
    position = {node: index for index, node in enumerate(order)}

    earlier_edges: List[List[Tuple[int, float, float]]] = [[] for _ in range(n)]
    for (a, b), w in merged.conflict_weight.items():
        if position[a] < position[b]:
            earlier_edges[b].append((a, float(w), 0.0))
        else:
            earlier_edges[a].append((b, float(w), 0.0))
    for (a, b), w in merged.stitch_weight.items():
        if position[a] < position[b]:
            earlier_edges[b].append((a, 0.0, float(w)))
        else:
            earlier_edges[a].append((b, 0.0, float(w)))

    incumbent = dict(initial) if initial else greedy_color_merged(merged, num_colors, alpha)
    _, _, best_cost = merged.coloring_cost(incumbent, alpha)
    return order, earlier_edges, incumbent, best_cost


def search_merged_graph(
    merged: MergedGraph,
    num_colors: int,
    alpha: float,
    expansion_limit: int = 2_000_000,
    initial: Optional[Dict[int, int]] = None,
    statistics: Optional[BacktrackStatistics] = None,
) -> Dict[int, int]:
    """Find a minimum-cost coloring of a merged graph by branch and bound.

    Parameters
    ----------
    merged:
        Weighted contraction of a decomposition graph; the objective is
        ``sum(conflict_weight on same-colored pairs) + alpha * sum(stitch
        weight on differently-colored pairs)``.
    num_colors:
        Number of masks K.
    alpha:
        Stitch weight.
    expansion_limit:
        Maximum number of color assignments explored before the search stops
        and returns the best solution found so far.
    initial:
        Optional starting incumbent (node -> color); a greedy coloring is
        computed when omitted.
    statistics:
        Optional statistics sink.

    Budget contract
    ---------------
    An *expansion* is one candidate ``(node, color)`` placement actually
    evaluated; stack entries discarded by symmetry breaking are free.
    ``completed`` is ``True`` iff the search space was exhausted — the
    returned coloring is then a proven optimum — and ``False`` iff the
    budget stopped exploration while candidate placements remained.  A
    search whose last candidate placement lands exactly on the budget is
    exhausted, hence ``completed=True``.  With ``expansion_limit <= 0`` (and
    a non-empty graph) nothing is explored: the incumbent (``initial`` or
    the greedy coloring) is returned with ``expansions=0`` and
    ``completed=False``.  The empty graph is trivially complete
    (``expansions=0``, ``best_cost=0.0``).
    """
    n = merged.num_nodes
    if n == 0:
        if statistics is not None:
            statistics.expansions = 0
            statistics.completed = True
            statistics.best_cost = 0.0
        return {}

    order, earlier_edges, incumbent, best_cost = search_setup(
        merged, num_colors, alpha, initial
    )
    best_assignment = [incumbent.get(node, 0) for node in range(n)]

    assignment = [-1] * n
    # Positions ``order[0:dirty]`` are the only ones that may hold a live
    # assignment; everything at or past ``dirty`` is already -1.  Clearing
    # only the actually-dirty suffix on backtrack makes the undo amortized
    # O(1) per expansion (each cell is cleared at most once per assignment)
    # instead of the former O(n) full-suffix sweep.
    dirty = 0
    expansions = 0
    completed = True

    def cost_of_placing(node: int, color: int) -> float:
        added = 0.0
        for other, conflict_w, stitch_w in earlier_edges[node]:
            other_color = assignment[other]
            if other_color < 0:
                continue
            if other_color == color:
                added += conflict_w
            else:
                added += alpha * stitch_w
        return added

    # Iterative DFS: stack entries are (depth, color_to_try, cost_so_far,
    # max_color_used_before).
    stack: List[Tuple[int, int, float, int]] = [(0, 0, 0.0, -1)]
    while stack:
        depth, color, cost_so_far, max_used = stack.pop()
        # Undo assignments left over from a deeper branch.
        while dirty > depth:
            dirty -= 1
            assignment[order[dirty]] = -1
        # Symmetry breaking: a fresh color may only be the next unused index.
        if color > min(num_colors - 1, max_used + 1):
            continue
        # Budget check sits *after* the symmetry prune (discarded entries are
        # not explorations) and *before* the expansion it would forbid, so a
        # search whose final placement exhausts both the stack and the budget
        # still reports completed=True.
        if expansions >= expansion_limit:
            completed = False
            break
        # Schedule the sibling branch (next color) before descending.
        if color + 1 <= min(num_colors - 1, max_used + 1):
            stack.append((depth, color + 1, cost_so_far, max_used))

        expansions += 1
        node = order[depth]
        new_cost = cost_so_far + cost_of_placing(node, color)
        if new_cost >= best_cost:
            continue
        assignment[node] = color
        dirty = depth + 1
        new_max = max(max_used, color)
        if depth + 1 == n:
            best_cost = new_cost
            best_assignment = list(assignment)
            continue
        stack.append((depth + 1, 0, new_cost, new_max))

    if statistics is not None:
        statistics.expansions = expansions
        statistics.completed = completed
        statistics.best_cost = best_cost
    return {node: best_assignment[node] for node in range(n)}


def run_backtrack_search(
    merged: MergedGraph,
    num_colors: int,
    alpha: float,
    expansion_limit: int = 2_000_000,
    initial: Optional[Dict[int, int]] = None,
    statistics: Optional[BacktrackStatistics] = None,
) -> Dict[int, int]:
    """Solve ``merged`` with the fastest available backtracking implementation.

    Runs the compiled packed-array kernel when the core is loaded, and the
    reference :func:`search_merged_graph` otherwise (or when the kernel
    declines, e.g. on a C allocation failure).  Both are bit-identical —
    same coloring, same tie-breaks, same expansion count and statistics —
    so call sites never observe which one ran.
    """
    from repro.core.kernels.backtrack_kernel import backtrack_search

    coloring = backtrack_search(
        merged,
        num_colors,
        alpha,
        expansion_limit=expansion_limit,
        initial=initial,
        statistics=statistics,
    )
    if coloring is not None:
        return coloring
    return search_merged_graph(
        merged,
        num_colors,
        alpha,
        expansion_limit=expansion_limit,
        initial=initial,
        statistics=statistics,
    )


class BacktrackColoring(ColoringAlgorithm):
    """Exact coloring of a decomposition graph by branch and bound.

    Intended for small graphs (division components); on graphs larger than
    ``options.backtrack_node_limit`` the expansion budget makes the result a
    best-effort anytime solution rather than a proven optimum.
    """

    name = "backtrack"

    def color(self, graph: DecompositionGraph) -> Dict[int, int]:
        """Return a minimum-cost coloring of ``graph`` (exact on small graphs)."""
        if graph.num_vertices == 0:
            return {}
        merged = build_merged_graph(graph, [])
        node_coloring = run_backtrack_search(
            merged,
            self.num_colors,
            self.options.alpha,
            expansion_limit=self.options.backtrack_expansion_limit,
        )
        return merged.expand_coloring(node_coloring)
