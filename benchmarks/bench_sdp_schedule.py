"""Benchmark: the SDP relaxation's penalty schedule on the paper's tables.

The relaxation (:mod:`repro.opt.sdp`) runs ``SdpOptions.max_outer_iterations``
penalty rounds of at most ``max_inner_iterations`` gradient steps each; the
penalty starts at ``penalty_initial`` and grows by ``penalty_growth`` per
round.  This sweep colors every Table 1 (K=4) and Table 2 (K=5) circuit with
``sdp-backtrack`` and ``sdp-greedy`` under each schedule of ``SCHEDULES``
(six rounds, the old default, and one, the default) and each relaxation
seed of ``SEEDS``, and records per table, algorithm, schedule and seed the
summed conflicts, stitches and color-assignment CPU seconds.  One
``linear`` row per table, which runs no relaxation, is the reference.

Per schedule it also counts the relaxation's work on the inputs of
perfbench's ``sdp-k4`` workload (the Table 1 circuits at scale 0.1 with
``sdp-backtrack``; that workload's seeds only translate them): relaxation
calls, gradient steps, calls that ran their whole step budget, and calls
whose final iterate violates the conflict bound by ``INFEASIBLE`` or more.

Every cell colors through the serial reference ``divide_and_color``, which
gives ``run_table``'s conflicts and stitches, on the graph
``build_graph_for_circuit`` builds once per circuit.  The answers are
deterministic and the same in every kernel mode; the CPU column is this
process's CPU time, so it depends on the box and on the mode.

Run standalone to (re)record ``benchmarks/artifacts/sdp_schedule.json``::

    python benchmarks/bench_sdp_schedule.py           # scale 1.0
    python benchmarks/bench_sdp_schedule.py --quick   # CI smoke: scale 0.1
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.circuits import TABLE1_CIRCUITS, TABLE2_CIRCUITS
from repro.core.coloring import ColoringAlgorithm
from repro.core.division import divide_and_color
from repro.core.evaluation import count_conflicts, count_stitches
from repro.core.kernels.ccore import compiled_core
from repro.core.linear_coloring import LinearColoring
from repro.core.options import AlgorithmOptions
from repro.core.sdp_coloring import SdpColoring
from repro.experiments.runner import build_graph_for_circuit
from repro.opt.sdp import SdpOptions, VectorProgramSolver

#: table -> (circuits, K)
TABLES = {1: (TABLE1_CIRCUITS, 4), 2: (TABLE2_CIRCUITS, 5)}
ALGORITHMS = ("sdp-backtrack", "sdp-greedy")
#: Penalty rounds per relaxation: the old default, then the default.
SCHEDULES = (6, 1)
SEEDS = tuple(range(2014, 2019))
#: The perfbench ``sdp-k4`` inputs the work counts run on.
COUNT_SCALE = 0.1
#: A relaxation whose final conflict violation reaches this is infeasible.
INFEASIBLE = 1e-3

ARTIFACT_PATH = Path(__file__).parent / "artifacts" / "sdp_schedule.json"


def _colorer(
    algorithm: str, num_colors: int, options: Optional[SdpOptions]
) -> ColoringAlgorithm:
    if algorithm == "linear":
        return LinearColoring(num_colors, AlgorithmOptions())
    mapping = algorithm.split("-", 1)[1]
    return SdpColoring(num_colors, AlgorithmOptions(), mapping, sdp_options=options)


@contextmanager
def _recording_relaxations():
    """Collect the ``(iterations, violation)`` of every relaxation solved."""
    relaxations: List[tuple] = []
    original = VectorProgramSolver.solve

    def recording(solver, *args, **kwargs):
        result = original(solver, *args, **kwargs)
        relaxations.append((result.iterations, result.constraint_violation))
        return result

    VectorProgramSolver.solve = recording
    try:
        yield relaxations
    finally:
        VectorProgramSolver.solve = original


def _cell(graphs: List, colorer: ColoringAlgorithm) -> Dict[str, object]:
    """Summed conflicts, stitches and coloring CPU over a table's circuits."""
    conflicts = stitches = 0
    cpu = 0.0
    for graph in graphs:
        start = time.process_time()
        coloring = divide_and_color(graph, colorer)
        cpu += time.process_time() - start
        conflicts += count_conflicts(graph, coloring)
        stitches += count_stitches(graph, coloring)
    return {"conflicts": conflicts, "stitches": stitches, "cpu_s": round(cpu, 3)}


def _relaxation_counts(rounds: int) -> Dict[str, int]:
    """The relaxation's work on the ``sdp-k4`` inputs under ``rounds``."""
    options = SdpOptions(max_outer_iterations=rounds)
    colorer = _colorer("sdp-backtrack", 4, options)
    with _recording_relaxations() as relaxations:
        for circuit in TABLE1_CIRCUITS:
            graph = build_graph_for_circuit(circuit, 4, COUNT_SCALE).graph
            divide_and_color(graph, colorer)
    cap = options.max_outer_iterations * options.max_inner_iterations
    steps = [steps for steps, _ in relaxations]
    violations = [violation for _, violation in relaxations]
    return {
        "calls": len(steps),
        "gradient_steps": sum(steps),
        "cap_hits": sum(1 for count in steps if count >= cap),
        "infeasible": sum(1 for violation in violations if violation >= INFEASIBLE),
    }


def record_artifact(quick: bool = False, path: Path = ARTIFACT_PATH) -> dict:
    scale = 0.1 if quick else 1.0
    rows: List[Dict[str, object]] = []
    for table, (circuits, num_colors) in TABLES.items():
        graphs = [
            build_graph_for_circuit(circuit, num_colors, scale).graph
            for circuit in circuits
        ]
        cell = _cell(graphs, _colorer("linear", num_colors, None))
        rows.append(
            {"table": table, "algorithm": "linear", "rounds": None, "seed": None, **cell}
        )
        for algorithm in ALGORITHMS:
            for rounds in SCHEDULES:
                for seed in SEEDS:
                    options = SdpOptions(max_outer_iterations=rounds, seed=seed)
                    cell = _cell(graphs, _colorer(algorithm, num_colors, options))
                    rows.append(
                        {"table": table, "algorithm": algorithm, "rounds": rounds,
                         "seed": seed, **cell}
                    )
    payload = {
        "benchmark": "sdp_schedule",
        "scale": scale,
        "quick": quick,
        "compiled_core_available": compiled_core() is not None,
        "default_rounds": SdpOptions().max_outer_iterations,
        "schedules": list(SCHEDULES),
        "seeds": list(SEEDS),
        "note": (
            "Each row sums one table's circuits colored by divide_and_color: "
            "conflicts, stitches and cpu_s, the process CPU seconds of the "
            "coloring alone.  rounds is SdpOptions.max_outer_iterations and "
            "seed the relaxation seed; the linear row runs no relaxation.  "
            "relaxation_counts holds, per schedule, the relaxation's work on "
            "the Table 1 circuits at scale 0.1 with sdp-backtrack (the "
            "sdp-k4 inputs): calls, gradient steps, calls that ran their "
            "whole step budget (cap_hits) and calls ending with a conflict "
            "violation of at least 1e-3 (infeasible)."
        ),
        "relaxation_counts": {
            str(rounds): _relaxation_counts(rounds) for rounds in SCHEDULES
        },
        "rows": rows,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _span(values: List[object]) -> str:
    low, high = min(values), max(values)
    return f"{low}" if low == high else f"{low}-{high}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: scale 0.1 instead of 1.0"
    )
    parser.add_argument(
        "--artifact",
        type=Path,
        default=ARTIFACT_PATH,
        help=f"artifact output path (default: {ARTIFACT_PATH})",
    )
    args = parser.parse_args(argv)
    payload = record_artifact(quick=args.quick, path=args.artifact)
    groups: Dict[tuple, List[dict]] = {}
    for row in payload["rows"]:
        key = (row["table"], row["algorithm"], row["rounds"])
        groups.setdefault(key, []).append(row)
    for (table, algorithm, rounds), cells in groups.items():
        label = "" if rounds is None else f", {rounds} round(s)"
        print(
            f"Table {table} {algorithm}{label}: conflicts "
            f"{_span([c['conflicts'] for c in cells])}, stitches "
            f"{_span([c['stitches'] for c in cells])}, CPU "
            f"{sum(c['cpu_s'] for c in cells):.2f} s over {len(cells)} run(s)"
        )
    for rounds, counts in payload["relaxation_counts"].items():
        print(f"sdp-k4 inputs, {rounds} round(s): {counts}")
    print(f"artifact written to {args.artifact}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
