"""Component-level scheduling of the divide-and-color pipeline.

Graph division (Section 4 of the paper) turns one decomposition graph into
many *independent* connected components; the serial pipeline in
:mod:`repro.core.division` colors them one after another.  This module
exploits that independence:

* each component becomes a self-contained :class:`WorkItem`;
* identical components (ubiquitous in standard-cell layouts) are deduplicated
  through the canonical hash of :mod:`repro.runtime.hashing` and optionally
  memoised across calls by a :class:`~repro.runtime.cache.ComponentCache`;
* the remaining unique components are executed across a
  ``ProcessPoolExecutor`` largest-first (the biggest component dominates the
  critical path, so it must start earliest), falling back to in-process
  serial execution when a pool cannot be created or dies mid-flight;
* results are merged deterministically: components are vertex-disjoint, so
  the merged coloring — and the summed/maxed division report — is identical
  to the serial pipeline's no matter which worker finished first.

The scheduler never changes *what* is computed, only *where*: a component is
always solved by :func:`repro.core.division.color_component`, the exact
function the serial path uses.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.division import DivisionReport, color_component
from repro.core.options import AlgorithmOptions, DivisionOptions
from repro.errors import ConfigurationError
from repro.graph.components import connected_components
from repro.graph.decomposition_graph import DecompositionGraph
from repro.runtime.cache import ComponentCache, ComponentRecord
from repro.runtime.hashing import canonical_component_key, canonical_vertex_order

#: Components at or below this vertex count are solved in-process even when a
#: pool is available: the pickling round-trip costs more than the solve.
SMALL_COMPONENT_CUTOFF = 6


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise the ``workers`` knob: ``None``/1 → serial, 0 → one per CPU."""
    if workers is None:
        return 1
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


@dataclass(frozen=True)
class WorkItem:
    """One independent component extracted from a decomposition graph."""

    index: int
    vertices: Tuple[int, ...]
    key: str

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass
class ScheduleOutcome:
    """Everything one :meth:`ComponentScheduler.run` call produced."""

    coloring: Dict[int, int] = field(default_factory=dict)
    report: DivisionReport = field(default_factory=DivisionReport)
    solver_timeouts: int = 0
    #: Components executed in worker processes / in-process this run.
    parallel_components: int = 0
    serial_components: int = 0
    #: Components replayed from the shared cache / from an identical sibling
    #: solved in the same run.
    cache_hits: int = 0
    deduplicated_components: int = 0
    #: True when a pool was requested but had to be abandoned.
    pool_fallback: bool = False
    #: Wall seconds per pipeline stage (``divide``/``hash``/``solve``),
    #: filled by :meth:`ComponentScheduler.run` for trace spans upstream.
    stage_seconds: Dict[str, float] = field(default_factory=dict)


def _resolve_payload_graph(graph_or_frame) -> DecompositionGraph:
    """Materialise the payload's graph.

    The in-process path passes the :class:`DecompositionGraph` itself; pool
    submissions ship its packed flat frame inline through the pickle
    channel, so no object graph is ever pickled.
    """
    if isinstance(graph_or_frame, DecompositionGraph):
        return graph_or_frame
    from repro.graph.flat import graph_from_frame

    # memoize=True: the decoded frame becomes the rebuilt graph's flat form,
    # so the worker-side hashing and solve kernels run straight off the
    # shipped buffers instead of re-flattening.
    return graph_from_frame(graph_or_frame, memoize=True)


def _solve_component_job(
    payload: Tuple[object, str, int, AlgorithmOptions, DivisionOptions],
) -> Tuple[Dict[int, int], DivisionReport, int]:
    """Worker-side solve of one component (also used by the serial fallback)."""
    # Imported lazily so worker start-up does not drag the CLI/analysis stack in.
    from repro.core.decomposer import make_colorer

    graph_or_frame, algorithm, num_colors, algorithm_options, division = payload
    subgraph = _resolve_payload_graph(graph_or_frame)
    colorer = make_colorer(algorithm, num_colors, algorithm_options)
    report = DivisionReport()
    coloring = color_component(subgraph, colorer, division, report)
    return coloring, report, int(getattr(colorer, "timeouts", 0))


class ComponentScheduler:
    """Executes divided components across processes with memoisation.

    Parameters
    ----------
    algorithm / num_colors / algorithm_options / division:
        The solve configuration; identical semantics to
        :func:`repro.core.division.divide_and_color`.
    workers:
        ``None`` or ``1`` solve in-process, ``N >= 2`` use a pool of N
        processes, ``0`` means one worker per CPU.
    cache:
        Optional :class:`ComponentCache` shared across runs (and layouts).
    executor:
        Optional externally-owned pool, reused across many graphs; when given,
        ``workers`` only gates whether it is used.
    """

    def __init__(
        self,
        algorithm: str,
        num_colors: int,
        algorithm_options: Optional[AlgorithmOptions] = None,
        division: Optional[DivisionOptions] = None,
        workers: Optional[int] = None,
        cache: Optional[ComponentCache] = None,
        executor: Optional[ProcessPoolExecutor] = None,
    ) -> None:
        self.algorithm = algorithm
        self.num_colors = num_colors
        self.algorithm_options = algorithm_options or AlgorithmOptions()
        self.division = division or DivisionOptions()
        self.workers = resolve_workers(workers)
        self.cache = cache
        self._executor = executor
        self._owns_executor = False

    # ----------------------------------------------------------------- API
    def run(self, graph: DecompositionGraph) -> ScheduleOutcome:
        """Divide ``graph`` into components, solve them, merge the results.

        The merged coloring (and report) is bit-identical to what
        :func:`repro.core.division.divide_and_color` produces for the same
        configuration, independent of worker count, completion order and
        cache state.
        """
        import time

        outcome = ScheduleOutcome()
        outcome.report.num_vertices = graph.num_vertices
        if graph.num_vertices == 0:
            return outcome

        started = time.perf_counter()
        if self.division.independent_components:
            components = connected_components(graph)
        else:
            components = [graph.vertices()]
        outcome.report.num_connected_components = len(components)
        outcome.stage_seconds["divide"] = time.perf_counter() - started

        started = time.perf_counter()
        subgraphs, pending = self._probe_components(graph, components, outcome)
        outcome.stage_seconds["hash"] = time.perf_counter() - started
        if pending:
            started = time.perf_counter()
            self._execute(subgraphs, pending, outcome)
            outcome.stage_seconds["solve"] = time.perf_counter() - started
        return outcome

    def close(self) -> None:
        """Shut down a pool created by this scheduler (external pools are kept)."""
        if self._executor is not None and self._owns_executor:
            self._executor.shutdown()
            self._executor = None
            self._owns_executor = False

    def __enter__(self) -> "ComponentScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ internals
    def _probe_components(
        self,
        graph: DecompositionGraph,
        components: Sequence[Sequence[int]],
        outcome: ScheduleOutcome,
    ) -> Tuple[Dict[int, DecompositionGraph], Dict[str, List[WorkItem]]]:
        """Split components into cache hits and key-grouped pending work."""
        subgraphs: Dict[int, DecompositionGraph] = {}
        pending: Dict[str, List[WorkItem]] = {}
        for index, component in enumerate(components):
            subgraph = graph.subgraph(component)
            key = canonical_component_key(
                subgraph,
                self.num_colors,
                self.algorithm,
                self.algorithm_options,
                self.division,
            )
            subgraphs[index] = subgraph
            if self.cache is not None:
                record = self.cache.lookup(key, subgraph)
                if record is not None:
                    self._apply_record(record, outcome)
                    outcome.cache_hits += 1
                    continue
            item = WorkItem(index=index, vertices=tuple(sorted(component)), key=key)
            pending.setdefault(key, []).append(item)
        return subgraphs, pending

    def _execute(
        self,
        subgraphs: Dict[int, DecompositionGraph],
        pending: Dict[str, List[WorkItem]],
        outcome: ScheduleOutcome,
    ) -> None:
        """Solve one representative per key, replay onto the duplicates."""
        # Largest-first: the biggest component bounds the parallel makespan.
        representatives = sorted(
            (group[0] for group in pending.values()),
            key=lambda item: (-item.size, item.index),
        )
        solved = self._solve_representatives(representatives, subgraphs, outcome)

        for key, group in sorted(pending.items(), key=lambda kv: kv[1][0].index):
            rep = group[0]
            coloring, report, timeouts = solved[rep.index]
            rep_record = ComponentRecord(
                coloring=coloring, report=report.component_delta(), solver_timeouts=timeouts
            )
            if self.cache is not None:
                self.cache.store(
                    key, subgraphs[rep.index], coloring, report, solver_timeouts=timeouts
                )
            self._apply_record(rep_record, outcome)
            for duplicate in group[1:]:
                # Identical components found in the same run: replay the
                # representative's solution.  Routed through the cache (when
                # one is attached) so repeated cells show up as cache hits.
                outcome.deduplicated_components += 1
                if self.cache is not None:
                    record = self.cache.lookup(key, subgraphs[duplicate.index])
                    assert record is not None  # just stored under this key
                    self._apply_record(record, outcome)
                    outcome.cache_hits += 1
                else:
                    self._apply_record(
                        _replay(rep_record, subgraphs[rep.index], subgraphs[duplicate.index]),
                        outcome,
                    )

    def _solve_representatives(
        self,
        representatives: List[WorkItem],
        subgraphs: Dict[int, DecompositionGraph],
        outcome: ScheduleOutcome,
    ) -> Dict[int, Tuple[Dict[int, int], DivisionReport, int]]:
        """Run the unique components, in a pool when one is warranted."""
        solved: Dict[int, Tuple[Dict[int, int], DivisionReport, int]] = {}
        remote = [item for item in representatives if item.size > SMALL_COMPONENT_CUTOFF]
        use_pool = self.workers >= 2 and len(remote) >= 2
        if use_pool:
            try:
                executor = self._ensure_executor()
                futures = {
                    item.index: executor.submit(
                        _solve_component_job,
                        self._remote_payload(subgraphs[item.index]),
                    )
                    for item in remote
                }
                for item in representatives:
                    if item.index not in futures:
                        solved[item.index] = _solve_component_job(
                            self._payload(subgraphs[item.index])
                        )
                        outcome.serial_components += 1
                for index, future in futures.items():
                    solved[index] = future.result()
                    outcome.parallel_components += 1
                return solved
            except Exception:
                # Pool creation or a worker died (sandboxed environment,
                # unpicklable payload, OOM-killed child, ...): fall back and
                # redo everything serially — correctness over speed.
                outcome.pool_fallback = True
                outcome.parallel_components = 0
                outcome.serial_components = 0
                solved.clear()
                self.close()
        for item in representatives:
            solved[item.index] = _solve_component_job(self._payload(subgraphs[item.index]))
            outcome.serial_components += 1
        return solved

    def _payload(self, subgraph: DecompositionGraph):
        return (
            subgraph,
            self.algorithm,
            self.num_colors,
            self.algorithm_options,
            self.division,
        )

    def _remote_payload(self, subgraph: DecompositionGraph):
        """Payload for a pool submission: the packed flat frame, inline."""
        return (
            subgraph.to_arrays().to_bytes(),
            self.algorithm,
            self.num_colors,
            self.algorithm_options,
            self.division,
        )

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
            self._owns_executor = True
        return self._executor

    @staticmethod
    def _apply_record(record: ComponentRecord, outcome: ScheduleOutcome) -> None:
        outcome.coloring.update(record.coloring)
        outcome.report.merge_from(record.report)
        outcome.solver_timeouts += record.solver_timeouts


def _replay(
    record: ComponentRecord,
    source: DecompositionGraph,
    target: DecompositionGraph,
) -> ComponentRecord:
    """Transfer a solved component onto an identical-key sibling component.

    Key equality guarantees the canonical forms are equal, so mapping colors
    rank-to-rank reproduces exactly what solving ``target`` would return.
    """
    source_order = canonical_vertex_order(source)
    by_rank = {rank: record.coloring[vertex] for rank, vertex in enumerate(source_order)}
    target_order = canonical_vertex_order(target)
    return ComponentRecord(
        coloring={vertex: by_rank[rank] for rank, vertex in enumerate(target_order)},
        report=record.report.component_delta(),
        solver_timeouts=record.solver_timeouts,
    )


def schedule_and_color(
    graph: DecompositionGraph,
    algorithm: str,
    num_colors: int,
    algorithm_options: Optional[AlgorithmOptions] = None,
    division: Optional[DivisionOptions] = None,
    workers: Optional[int] = None,
    cache: Optional[ComponentCache] = None,
    report: Optional[DivisionReport] = None,
    executor: Optional[ProcessPoolExecutor] = None,
) -> Dict[int, int]:
    """One-shot convenience wrapper: schedule, solve, merge, return colors.

    Drop-in parallel/cached counterpart of
    :func:`repro.core.division.divide_and_color`; ``report`` is filled with
    the merged division statistics when provided.
    """
    scheduler = ComponentScheduler(
        algorithm,
        num_colors,
        algorithm_options,
        division,
        workers=workers,
        cache=cache,
        executor=executor,
    )
    try:
        outcome = scheduler.run(graph)
    finally:
        scheduler.close()
    if report is not None:
        report.num_vertices = outcome.report.num_vertices
        report.num_connected_components = outcome.report.num_connected_components
        report.merge_from(outcome.report)
    return outcome.coloring
