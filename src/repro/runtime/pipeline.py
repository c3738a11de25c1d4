"""The divide → dedup → solve → merge pipeline, once, behind pluggable executors.

Graph division (Section 4, Fig. 2 of the paper) splits a decomposition
graph into independent connected components, colors each one and merges
the colorings.  :func:`color_graph` is the only implementation of that
shape:

1. **divide** the graph into connected components: label them on the
   graph's flat form (:func:`~repro.core.division.rank_components`) and
   slice out each one's flat form (:meth:`~repro.graph.flat.FlatGraph.split`),
   a view the rest of the flow reads;
2. **hash** each one (:func:`~repro.runtime.hashing.canonical_component_key`)
   and group identical components under their key;
3. **route** the distinct keys: look each one up once in the optional
   :class:`~repro.runtime.cache.ComponentCache`, hand the misses to an
   executor and store what it solved;
4. **merge** the rank-space results onto every component, folding the
   :class:`~repro.core.division.DivisionReport` deltas and solver timeouts.

An *executor* is any callable ``executor(batch, options)`` that solves a
list of distinct ``(key, component)`` pairs and returns one rank-space
:class:`~repro.runtime.cache.ComponentSolve` per pair, in order.
Executors change where a component is solved, never what is computed:

* :func:`solve_inline` — in this process;
* :class:`PoolExecutor` — across worker processes, largest component first;
* ``ClusterCoordinator._solve_components`` — on the owner nodes of the
  consistent-hash ring.

Components are vertex-disjoint and the report folds by sum and max, so the
result is bit-identical to the serial reference
:func:`repro.core.division.divide_and_color` whatever the executor, the
cache state or the completion order.
"""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.division import DivisionReport, rank_components
from repro.core.kernels import active_core
from repro.core.kernels.adjacency import CSRAdjacency
from repro.core.options import DecomposerOptions
from repro.errors import ConfigurationError
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.flat import graph_from_frame
from repro.obs.trace import Span
from repro.runtime.cache import ComponentCache, ComponentSolve
from repro.runtime.component_io import solve_component
from repro.runtime.hashing import canonical_component_key

logger = logging.getLogger("repro.runtime.pipeline")

#: Components at or below this vertex count are solved in-process even when a
#: pool is available: the pickling round-trip costs more than the solve.
SMALL_COMPONENT_CUTOFF = 6

Batch = Sequence[Tuple[str, DecompositionGraph]]
Executor = Callable[[Batch, DecomposerOptions], List[ComponentSolve]]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise the ``workers`` knob: ``None``/1 → serial, 0 → one per CPU."""
    if workers is None:
        return 1
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


@dataclass
class ColoredGraph:
    """What one :func:`color_graph` call produced."""

    coloring: Dict[int, int] = field(default_factory=dict)
    report: DivisionReport = field(default_factory=DivisionReport)
    solver_timeouts: int = 0


def color_graph(
    graph: DecompositionGraph,
    options: DecomposerOptions,
    executor: Executor,
    cache: Optional[ComponentCache] = None,
    span: Callable[[str], Span] = Span,
) -> ColoredGraph:
    """Divide ``graph``, solve each distinct component once, merge.

    ``span(stage)`` times the ``divide``, ``hash``, ``route`` and ``merge``
    stages; the default :class:`Span` has no sinks.  Components identical
    to one already in hand are replayed from it, never re-read from
    ``cache`` (a concurrent process may have evicted the entry), and count
    as cache hits: components answered without a solve.
    """
    result = ColoredGraph()
    result.report.num_vertices = graph.num_vertices
    if graph.num_vertices == 0:
        return result

    with span("divide"):
        flat = graph.to_arrays()
        count = 1
        if options.division.independent_components:
            csr = CSRAdjacency(flat, include_friend=False)
            labels, components = rank_components(csr, None, active_core())
            count = len(components)
    result.report.num_connected_components = count

    with span("hash"):
        if count == 1:
            # One component spans the graph: solve the graph itself, no copy.
            subgraphs = [graph]
        else:
            subgraphs = [DecompositionGraph.from_flat(part) for part in flat.split(labels)]
        keys = [
            canonical_component_key(
                subgraph,
                options.num_colors,
                options.algorithm,
                options.algorithm_options,
                options.division,
            )
            for subgraph in subgraphs
        ]
        # One representative per key, in first-appearance order, so the
        # executor's batch (and a cluster's request traffic) is deterministic.
        distinct: Dict[str, DecompositionGraph] = {}
        for key, subgraph in zip(keys, subgraphs):
            distinct.setdefault(key, subgraph)

    with span("route"):
        solves: Dict[str, ComponentSolve] = {}
        misses: List[Tuple[str, DecompositionGraph]] = []
        for key, subgraph in distinct.items():
            solve = cache.lookup(key, subgraph) if cache is not None else None
            if solve is None:
                misses.append((key, subgraph))
            else:
                solves[key] = solve
        for (key, subgraph), solve in zip(misses, executor(misses, options)):
            solves[key] = solve
            if cache is not None:
                cache.store(key, subgraph, solve)
        if cache is not None:
            # In-call siblings, replayed from the solve in hand, are hits too.
            cache.stats.hits += len(subgraphs) - len(distinct)

    with span("merge"):
        for key, subgraph in zip(keys, subgraphs):
            solve = solves[key]
            result.coloring.update(solve.coloring_for(subgraph))
            result.report.merge_from(solve.report)
            result.solver_timeouts += solve.solver_timeouts
    return result


# ---------------------------------------------------------------- executors
def solve_inline(batch: Batch, options: DecomposerOptions) -> List[ComponentSolve]:
    """The in-process executor: solve each component here, in batch order."""
    return [solve_component(graph, options, key) for key, graph in batch]


def _solve_frame(frame: bytes, key: str, options: DecomposerOptions) -> ComponentSolve:
    """Pool worker: solve a component on a view of its checked flat frame."""
    return solve_component(graph_from_frame(frame), options, key)


class PoolExecutor:
    """Executor solving a batch across worker processes, largest first.

    The process pool starts on first use and lives until :meth:`close`, so
    one executor serves every graph of a batch or a table sweep.  Components
    of at most :data:`SMALL_COMPONENT_CUTOFF` vertices, and whole batches
    with fewer than two larger ones, are solved in-process.  Workers receive
    each component's packed flat frame inline through the pickle channel,
    never a pickled graph.  If the pool cannot start or dies mid-batch, the
    executor abandons it for good, logs one WARNING naming the exception and
    solves in-process from then on: correctness over speed.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._pool = None  # the ProcessPoolExecutor, once started
        self._abandoned = False

    def __call__(self, batch: Batch, options: DecomposerOptions) -> List[ComponentSolve]:
        # Largest-first: the biggest component bounds the parallel makespan.
        order = sorted(
            range(len(batch)), key=lambda index: (-batch[index][1].num_vertices, index)
        )
        remote = [i for i in order if batch[i][1].num_vertices > SMALL_COMPONENT_CUTOFF]
        if self._abandoned or len(remote) < 2:
            return solve_inline(batch, options)
        try:
            if self._pool is None:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            futures = {
                i: self._pool.submit(
                    _solve_frame, batch[i][1].to_arrays().to_bytes(), batch[i][0], options
                )
                for i in remote
            }
            solves: List[Optional[ComponentSolve]] = [None] * len(batch)
            for i in order:
                if i not in futures:
                    key, graph = batch[i]
                    solves[i] = solve_component(graph, options, key)
            for i, future in futures.items():
                solves[i] = future.result()
            return solves
        except Exception as exc:
            # Sandboxed environment, unpicklable payload, OOM-killed child...
            logger.warning(
                "component pool abandoned, solving in-process: %s: %s",
                type(exc).__name__,
                exc,
            )
            self._abandoned = True
            self.close()
            return solve_inline(batch, options)

    def close(self) -> None:
        """Shut the worker processes down (the executor stays usable)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


@contextmanager
def executor_for(
    workers: Optional[int], executor: Optional[Executor] = None
) -> Iterator[Executor]:
    """The executor a ``workers`` knob asks for, closed on exit if made here.

    An explicit ``executor`` wins and stays open (its owner closes it);
    otherwise 2 or more workers start a :class:`PoolExecutor` and anything
    else solves inline.
    """
    if executor is not None:
        yield executor
        return
    count = resolve_workers(workers)
    if count < 2:
        yield solve_inline
        return
    pool = PoolExecutor(count)
    try:
        yield pool
    finally:
        pool.close()
