"""Benchmark: per-component solve speed of the compiled flat-array kernels.

The three per-component solvers run either as the dict-walking reference
implementations or on the compiled C core over the packed
:class:`~repro.graph.flat.FlatGraph` arrays.  This harness measures each
solver on the Table 1 circuits in both modes and records the speedups:

* **greedy**    — ``GreedyColoring`` over every component: reference vs the
  compiled walk;
* **linear**    — ``LinearColoring`` (peel / peer selection / refinement /
  reinsertion) over every component, same two modes;
* **backtrack** — ``search_merged_graph`` vs the packed kernel on the merged
  graphs of the small components (the exact search is exponential, so the
  leg is capped at ``BACKTRACK_MAX_NODES`` merged nodes — the cap and how
  many components it skipped are recorded in the artifact, never silent).

Every timed call is parity-checked against the reference coloring — the
benchmark refuses to report a speedup for a kernel that changed the output.

Run standalone to (re)record ``benchmarks/artifacts/solve_kernels.json``::

    python benchmarks/bench_solve_kernels.py           # full Table 1 suite
    python benchmarks/bench_solve_kernels.py --quick   # CI smoke: 2 circuits

Timings are best-of over repeated sweeps of all components of each circuit,
divided by the component count — per-component microseconds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.factory import circuit_graph
from repro.core.backtrack import search_merged_graph
from repro.core.greedy_coloring import GreedyColoring
from repro.core.kernels import set_kernel_mode
from repro.core.kernels.backtrack_kernel import backtrack_search
from repro.core.kernels.ccore import compiled_core
from repro.core.linear_coloring import LinearColoring
from repro.core.options import AlgorithmOptions
from repro.graph.components import connected_components
from repro.graph.simplify import build_merged_graph

QUICK_CIRCUITS = ["C432", "C6288"]
FULL_CIRCUITS = [
    "C432", "C499", "C880", "C1355", "C1908", "C2670", "C3540",
    "C5315", "C6288", "C7552", "S1488", "S38417", "S35932", "S38584",
    "S15850",
]
NUM_COLORS = 4
ALPHA = 0.1

#: The exact search is exponential; components whose merged graph exceeds
#: this many nodes are skipped by the backtrack leg (and counted).  The
#: expansion budget below bounds per-search time, so the cap only guards
#: against pathological setup costs on huge components.
BACKTRACK_MAX_NODES = 128

#: Expansion budget for the timed searches: bounds the reference sweep to
#: tens of milliseconds per deep component while still exercising a search
#: deep enough for the C core to matter.  Parity holds at any budget.
BACKTRACK_BENCH_LIMIT = 20_000

ARTIFACT_PATH = Path(__file__).parent / "artifacts" / "solve_kernels.json"


def _modes() -> List[str]:
    return ["off"] + (["compiled"] if compiled_core() is not None else [])


def _time_sweep(func: Callable, items: List, repeats: int) -> float:
    """Best sweep time over all items, per item, in seconds.

    Best-of (not mean): scheduling noise only ever *adds* time, so the
    minimum is the most reproducible estimator for a before/after ratio.
    """
    sweeps = []
    for _ in range(repeats):
        start = time.perf_counter()
        for item in items:
            func(item)
        sweeps.append(time.perf_counter() - start)
    return min(sweeps) / len(items)


def _solver_leg(
    algorithm_cls, components: List, repeats: int
) -> Dict[str, float]:
    """Time one ColoringAlgorithm over the components in every mode."""
    reference: List[Dict[int, int]] = []
    set_kernel_mode("off")
    algorithm = algorithm_cls(NUM_COLORS, AlgorithmOptions())
    for component in components:
        reference.append(algorithm.color(component))

    legs: Dict[str, float] = {}
    for mode in _modes():
        set_kernel_mode(mode)
        for index, component in enumerate(components):
            candidate = algorithm.color(component)
            if candidate != reference[index] or list(candidate.items()) != list(
                reference[index].items()
            ):
                raise AssertionError(
                    f"{algorithm_cls.__name__} parity violation in mode "
                    f"{mode!r} on component {index} "
                    f"({component.num_vertices} vertices)"
                )
        legs[mode] = _time_sweep(algorithm.color, components, repeats)
    set_kernel_mode(None)
    return legs


def _backtrack_leg(components: List, repeats: int) -> tuple:
    """Time the exact search on the small components' merged graphs."""
    merged_graphs = [
        build_merged_graph(component, [])
        for component in components
        if component.num_vertices <= BACKTRACK_MAX_NODES
    ]
    skipped = len(components) - len(merged_graphs)
    if not merged_graphs:
        return {}, skipped, 0

    limit = BACKTRACK_BENCH_LIMIT
    reference = [
        search_merged_graph(merged, NUM_COLORS, ALPHA, expansion_limit=limit)
        for merged in merged_graphs
    ]
    legs: Dict[str, float] = {
        "off": _time_sweep(
            lambda merged: search_merged_graph(
                merged, NUM_COLORS, ALPHA, expansion_limit=limit
            ),
            merged_graphs,
            repeats,
        )
    }
    for mode in _modes():
        if mode == "off":
            continue
        set_kernel_mode(mode)
        for index, merged in enumerate(merged_graphs):
            candidate = backtrack_search(
                merged, NUM_COLORS, ALPHA, expansion_limit=limit
            )
            if candidate != reference[index] or list(candidate.items()) != list(
                reference[index].items()
            ):
                raise AssertionError(
                    f"backtrack parity violation in mode {mode!r} on merged "
                    f"graph {index} ({merged.num_nodes} nodes)"
                )
        legs[mode] = _time_sweep(
            lambda merged: backtrack_search(
                merged, NUM_COLORS, ALPHA, expansion_limit=limit
            ),
            merged_graphs,
            repeats,
        )
    set_kernel_mode(None)
    return legs, skipped, len(merged_graphs)


def _speedups(legs: Dict[str, float]) -> Dict[str, float]:
    return {
        f"{mode}_vs_reference": round(legs["off"] / legs[mode], 2)
        for mode in legs
        if mode != "off"
    }


def record_artifact(quick: bool = False, path: Path = ARTIFACT_PATH) -> dict:
    circuits = QUICK_CIRCUITS if quick else FULL_CIRCUITS
    repeats = 3 if quick else 7
    rows = []
    for circuit in circuits:
        graph = circuit_graph(circuit, NUM_COLORS).graph
        components = [
            graph.subgraph(component) for component in connected_components(graph)
        ]
        greedy_legs = _solver_leg(GreedyColoring, components, repeats)
        linear_legs = _solver_leg(LinearColoring, components, repeats)
        backtrack_legs, skipped, timed = _backtrack_leg(components, repeats)
        row = {
            "circuit": circuit,
            "components": len(components),
            "vertices": graph.num_vertices,
            "per_component_us": {
                "greedy": {m: round(s * 1e6, 3) for m, s in greedy_legs.items()},
                "linear": {m: round(s * 1e6, 3) for m, s in linear_legs.items()},
                "backtrack": {
                    m: round(s * 1e6, 3) for m, s in backtrack_legs.items()
                },
            },
            "speedups": {
                "greedy": _speedups(greedy_legs),
                "linear": _speedups(linear_legs),
                "backtrack": _speedups(backtrack_legs) if backtrack_legs else {},
            },
            "backtrack_components_timed": timed,
            "backtrack_components_skipped_over_cap": skipped,
        }
        rows.append(row)
    payload = {
        "benchmark": "solve_kernels",
        "num_colors": NUM_COLORS,
        "alpha": ALPHA,
        "quick": quick,
        "repeats": repeats,
        "compiled_core_available": compiled_core() is not None,
        "backtrack_max_nodes": BACKTRACK_MAX_NODES,
        "backtrack_expansion_limit": BACKTRACK_BENCH_LIMIT,
        "note": (
            "per-component microseconds, best-of over repeated full-circuit "
            "sweeps; every timed kernel call is parity-checked against the "
            "reference coloring first.  'off' is the dict-walking reference; "
            "the backtrack leg runs only on components whose merged graph "
            "has <= backtrack_max_nodes nodes (skips are counted per row) "
            "and under backtrack_expansion_limit expansions per search."
        ),
        "circuits": rows,
        "min_compiled_speedup": {
            solver: min(
                (
                    row["speedups"][solver]["compiled_vs_reference"]
                    for row in rows
                    if row["speedups"][solver]
                ),
                default=None,
            )
            for solver in ("greedy", "linear", "backtrack")
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: two circuits, fewer repeats",
    )
    parser.add_argument(
        "--artifact",
        type=Path,
        default=ARTIFACT_PATH,
        help=f"artifact output path (default: {ARTIFACT_PATH})",
    )
    args = parser.parse_args(argv)
    payload = record_artifact(quick=args.quick, path=args.artifact)
    for row in payload["circuits"]:
        speedups = row["speedups"]

        def compiled(solver: str) -> str:
            leg = speedups[solver].get("compiled_vs_reference")
            return f"{leg:6.2f}x" if leg else "   n/a"

        print(
            f"{row['circuit']:>7} ({row['components']:4d} components): "
            f"greedy {compiled('greedy')}  linear {compiled('linear')}  "
            f"backtrack {compiled('backtrack')} "
            f"({row['backtrack_components_timed']} timed, "
            f"{row['backtrack_components_skipped_over_cap']} over cap)"
        )
    print(f"minimum compiled speedup per solver: {payload['min_compiled_speedup']}")
    print(f"artifact written to {args.artifact}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
