"""Experiment harness regenerating Table 1 and Table 2 of the paper.

The harness builds each circuit's decomposition graph once, then runs every
requested color-assignment algorithm on that graph (with all graph-division
techniques enabled, as in the paper), collecting the conflict number, stitch
number and color-assignment CPU time — the three columns of the paper's
tables.  The same code backs ``python -m repro.experiments`` and the
pytest-benchmark harnesses under ``benchmarks/``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.circuits import TABLE1_CIRCUITS, TABLE2_CIRCUITS, load_circuit
from repro.core.evaluation import check_complete, count_conflicts, count_stitches
from repro.core.options import AlgorithmOptions, DecomposerOptions, DivisionOptions
from repro.graph.construction import ConstructionResult, build_decomposition_graph
from repro.graph.decomposition_graph import DecompositionGraph
from repro.runtime.pipeline import color_graph, executor_for

#: Algorithm columns of Table 1, in the paper's order.
TABLE1_ALGORITHMS = ["ilp", "sdp-backtrack", "sdp-greedy", "linear"]
#: Algorithm columns of Table 2 (no exact ILP exists for K=5 in the paper).
TABLE2_ALGORITHMS = ["sdp-backtrack", "sdp-greedy", "linear"]


@dataclass
class ExperimentRow:
    """One (circuit, algorithm) measurement."""

    circuit: str
    algorithm: str
    num_colors: int
    conflicts: int
    stitches: int
    seconds: float
    vertices: int
    conflict_edges: int
    stitch_edges: int
    status: str = "ok"  # "ok" or "timeout" (rendered as N/A, like the paper)

    @property
    def is_valid(self) -> bool:
        return self.status == "ok"


@dataclass
class ExperimentTable:
    """A full table: rows indexed by circuit and algorithm."""

    name: str
    num_colors: int
    rows: List[ExperimentRow] = field(default_factory=list)

    def row(self, circuit: str, algorithm: str) -> Optional[ExperimentRow]:
        for row in self.rows:
            if row.circuit == circuit and row.algorithm == algorithm:
                return row
        return None

    def algorithms(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            if row.algorithm not in seen:
                seen.append(row.algorithm)
        return seen

    def circuits(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            if row.circuit not in seen:
                seen.append(row.circuit)
        return seen

    def averages(self, algorithm: str) -> Optional[Dict[str, float]]:
        """Average conflicts/stitches/runtime over circuits with valid rows."""
        rows = [r for r in self.rows if r.algorithm == algorithm and r.is_valid]
        if not rows:
            return None
        return {
            "conflicts": sum(r.conflicts for r in rows) / len(rows),
            "stitches": sum(r.stitches for r in rows) / len(rows),
            "seconds": sum(r.seconds for r in rows) / len(rows),
            "count": float(len(rows)),
        }


def build_graph_for_circuit(
    circuit: str, num_colors: int, scale: float
) -> ConstructionResult:
    """Generate the synthetic circuit and construct its decomposition graph."""
    layout = load_circuit(circuit, scale=scale)
    options = DecomposerOptions.for_k_patterning(num_colors)
    return build_decomposition_graph(
        layout, layer="metal1", options=options.construction
    )


def run_algorithm(
    graph: DecompositionGraph,
    algorithm: str,
    num_colors: int,
    circuit: str = "?",
    ilp_time_limit: Optional[float] = 30.0,
    division: Optional[DivisionOptions] = None,
    workers: Optional[int] = None,
    cache=None,
    executor=None,
) -> ExperimentRow:
    """Run one color-assignment algorithm on a prepared graph and score it.

    ``workers`` >= 2 colors the divided components across a process pool and
    ``cache`` (a :class:`repro.runtime.cache.ComponentCache`) memoises solved
    components; both keep the reported conflict/stitch numbers bit-identical
    to the in-process run, only the CPU column changes.  ``executor`` (a
    :mod:`repro.runtime.pipeline` executor) lets a table sweep reuse one
    pool across cells so pool start-up never pollutes the timed region.
    """
    options = DecomposerOptions(
        num_colors=num_colors,
        algorithm=algorithm,
        division=division or DivisionOptions(),
        algorithm_options=AlgorithmOptions(ilp_time_limit=ilp_time_limit),
    )
    start = time.perf_counter()
    with executor_for(workers, executor) as solve:
        colored = color_graph(graph, options, solve, cache)
    elapsed = time.perf_counter() - start
    coloring = colored.coloring
    check_complete(graph, coloring, num_colors)

    status = "ok"
    if algorithm == "ilp" and colored.solver_timeouts > 0:
        status = "timeout"
    return ExperimentRow(
        circuit=circuit,
        algorithm=algorithm,
        num_colors=num_colors,
        conflicts=count_conflicts(graph, coloring),
        stitches=count_stitches(graph, coloring),
        seconds=elapsed,
        vertices=graph.num_vertices,
        conflict_edges=graph.num_conflict_edges,
        stitch_edges=graph.num_stitch_edges,
        status=status,
    )


def run_table(
    circuits: Sequence[str],
    algorithms: Sequence[str],
    num_colors: int,
    scale: float = 0.35,
    ilp_time_limit: Optional[float] = 30.0,
    name: str = "table",
    verbose: bool = False,
    workers: Optional[int] = None,
    use_cache: bool = False,
) -> ExperimentTable:
    """Run a full circuits x algorithms sweep.

    ``workers`` >= 2 parallelises the component coloring of every cell of the
    table with one process pool shared by the whole sweep; ``use_cache``
    shares one component cache across every cell (the canonical key already
    fingerprints algorithm, K and options, so one cache serves them all and
    repeated cells are solved once).  Table numbers are unchanged either way
    — only the CPU column reflects the execution mode.
    """
    cache = None
    if use_cache:
        from repro.runtime.cache import ComponentCache

        cache = ComponentCache()
    table = ExperimentTable(name=name, num_colors=num_colors)
    with executor_for(workers) as executor:
        for circuit in circuits:
            construction = build_graph_for_circuit(circuit, num_colors, scale)
            graph = construction.graph
            for algorithm in algorithms:
                row = run_algorithm(
                    graph,
                    algorithm,
                    num_colors,
                    circuit=circuit,
                    ilp_time_limit=ilp_time_limit,
                    cache=cache,
                    executor=executor,
                )
                table.rows.append(row)
                if verbose:
                    print(format_row(row))
    return table


def run_table1(
    circuits: Optional[Sequence[str]] = None,
    algorithms: Optional[Sequence[str]] = None,
    scale: float = 0.35,
    ilp_time_limit: Optional[float] = 30.0,
    verbose: bool = False,
    workers: Optional[int] = None,
    use_cache: bool = False,
) -> ExperimentTable:
    """Regenerate Table 1 (quadruple patterning comparison)."""
    return run_table(
        circuits or TABLE1_CIRCUITS,
        algorithms or TABLE1_ALGORITHMS,
        num_colors=4,
        scale=scale,
        ilp_time_limit=ilp_time_limit,
        name="Table 1: Comparison for Quadruple Patterning",
        verbose=verbose,
        workers=workers,
        use_cache=use_cache,
    )


def run_table2(
    circuits: Optional[Sequence[str]] = None,
    algorithms: Optional[Sequence[str]] = None,
    scale: float = 0.35,
    verbose: bool = False,
    workers: Optional[int] = None,
    use_cache: bool = False,
) -> ExperimentTable:
    """Regenerate Table 2 (pentuple patterning comparison)."""
    return run_table(
        circuits or TABLE2_CIRCUITS,
        algorithms or TABLE2_ALGORITHMS,
        num_colors=5,
        scale=scale,
        ilp_time_limit=None,
        name="Table 2: Comparison for Pentuple Patterning",
        verbose=verbose,
        workers=workers,
        use_cache=use_cache,
    )


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------
def format_row(row: ExperimentRow) -> str:
    """One-line progress report for verbose runs."""
    if not row.is_valid:
        return f"  {row.circuit:>8} {row.algorithm:>14}  N/A (time budget exceeded)"
    return (
        f"  {row.circuit:>8} {row.algorithm:>14}  "
        f"cn={row.conflicts:<5d} st={row.stitches:<5d} cpu={row.seconds:.3f}s"
    )


def format_table(table: ExperimentTable, baseline: Optional[str] = None) -> str:
    """Render an :class:`ExperimentTable` in the paper's layout.

    One row per circuit, three columns (cn#, st#, CPU(s)) per algorithm, plus
    average and ratio lines.  ``baseline`` names the algorithm the ratio line
    normalises to (defaults to ``sdp-backtrack`` as in the paper).
    """
    algorithms = table.algorithms()
    baseline = baseline or ("sdp-backtrack" if "sdp-backtrack" in algorithms else algorithms[0])

    header_cells = ["Circuit"]
    for algorithm in algorithms:
        header_cells.extend([f"{algorithm}:cn#", "st#", "CPU(s)"])
    widths = [max(10, len(cell)) for cell in header_cells]

    def fmt_line(cells: List[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    lines = [table.name, fmt_line(header_cells)]
    for circuit in table.circuits():
        cells = [circuit]
        for algorithm in algorithms:
            row = table.row(circuit, algorithm)
            if row is None or not row.is_valid:
                cells.extend(["N/A", "N/A", "N/A"])
            else:
                cells.extend([str(row.conflicts), str(row.stitches), f"{row.seconds:.3f}"])
        lines.append(fmt_line(cells))

    average_cells = ["avg."]
    ratio_cells = ["ratio"]
    base_avg = table.averages(baseline)
    for algorithm in algorithms:
        avg = table.averages(algorithm)
        if avg is None:
            average_cells.extend(["-", "-", "-"])
            ratio_cells.extend(["-", "-", "-"])
            continue
        average_cells.extend(
            [f"{avg['conflicts']:.1f}", f"{avg['stitches']:.1f}", f"{avg['seconds']:.3f}"]
        )
        if base_avg is None:
            ratio_cells.extend(["-", "-", "-"])
        else:
            ratio_cells.extend(
                [
                    _ratio(avg["conflicts"], base_avg["conflicts"]),
                    _ratio(avg["stitches"], base_avg["stitches"]),
                    _ratio(avg["seconds"], base_avg["seconds"]),
                ]
            )
    lines.append(fmt_line(average_cells))
    lines.append(fmt_line(ratio_cells))
    return "\n".join(lines)


def _ratio(value: float, base: float) -> str:
    if base == 0:
        return "-"
    return f"{value / base:.2f}"
