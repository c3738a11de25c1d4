"""Benchmark: process-level scaling of the component pipeline.

Measures ``color_graph`` throughput on one large synthetic layout when the
divided components are colored in-process (1 worker) or by the
``PoolExecutor`` with 2 and 4 worker processes.  Quality metrics are
attached to ``extra_info`` like the other bench harnesses, and a standalone
run

    python benchmarks/bench_parallel_scaling.py

records a JSON speedup artifact at ``benchmarks/artifacts/parallel_scaling.json``
(workers -> seconds, speedup vs serial, plus the invariant conflict/stitch
numbers proving the parallel runs solved the identical problem).

Speedup saturates at ``min(workers, cpu_count)``: on a single-core runner
multi-worker timings are pure scheduling overhead, so the standalone run
skips them entirely and records ``"speedup_measurable": false`` (plus the
serial baseline) instead of misleading overhead-only numbers.  Re-run on a
multi-core box to record the real curve.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.bench.synthetic import SyntheticSpec, generate_layout
from repro.core.evaluation import count_conflicts, count_stitches
from repro.core.options import DecomposerOptions
from repro.graph.construction import build_decomposition_graph
from repro.runtime import color_graph, executor_for

WORKER_COUNTS = [1, 2, 4]
ALGORITHM = "sdp-backtrack"
NUM_COLORS = 4

#: Large synthetic layout: many rows of segmented wires and contact clusters
#: produce hundreds of independent components with a heavy tail.
LARGE_SPEC = SyntheticSpec(
    name="scaling-large",
    rows=12,
    tracks_per_row=8,
    row_length=9000,
    fill_rate=0.6,
    cluster_rate=1.5,
    seed=97,
)

ARTIFACT_PATH = Path(__file__).parent / "artifacts" / "parallel_scaling.json"


def _build_graph():
    layout = generate_layout(LARGE_SPEC)
    options = DecomposerOptions.for_quadruple_patterning(ALGORITHM)
    construction = build_decomposition_graph(
        layout, layer="metal1", options=options.construction
    )
    return construction.graph


def _color_with_workers(graph, workers):
    options = DecomposerOptions(num_colors=NUM_COLORS, algorithm=ALGORITHM)
    with executor_for(workers) as executor:
        return color_graph(graph, options, executor)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_scaling(benchmark, workers):
    """One (workers) cell of the scaling curve."""
    graph = _build_graph()
    benchmark.group = "parallel-scaling"
    outcome = benchmark.pedantic(
        _color_with_workers, args=(graph, workers), rounds=1, iterations=1
    )
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["conflicts"] = count_conflicts(graph, outcome.coloring)
    benchmark.extra_info["stitches"] = count_stitches(graph, outcome.coloring)
    benchmark.extra_info["vertices"] = graph.num_vertices


def record_artifact(path: Path = ARTIFACT_PATH) -> dict:
    """Run the scaling sweep once and write the JSON speedup artifact.

    On a 1-CPU runner only the serial baseline is timed: multi-worker runs
    there measure pickling/scheduling overhead, not speedup, and a reader
    skimming the artifact would mistake them for a (terrible) scaling curve.
    The artifact says so explicitly via ``speedup_measurable``.
    """
    cpu_count = os.cpu_count() or 1
    speedup_measurable = cpu_count > 1
    worker_counts = WORKER_COUNTS if speedup_measurable else [1]
    if not speedup_measurable:
        print(
            "bench_parallel_scaling: only 1 CPU visible — skipping multi-worker "
            "timings (they would record scheduling overhead, not speedup); "
            "recording the serial baseline with speedup_measurable=false"
        )
    graph = _build_graph()
    runs = []
    serial_seconds = None
    for workers in worker_counts:
        start = time.perf_counter()
        outcome = _color_with_workers(graph, workers)
        elapsed = time.perf_counter() - start
        if workers == 1:
            serial_seconds = elapsed
        runs.append(
            {
                "workers": workers,
                "seconds": round(elapsed, 4),
                "speedup": round(serial_seconds / elapsed, 3) if serial_seconds else None,
                "conflicts": count_conflicts(graph, outcome.coloring),
                "stitches": count_stitches(graph, outcome.coloring),
            }
        )
    payload = {
        "benchmark": "parallel_scaling",
        "algorithm": ALGORITHM,
        "num_colors": NUM_COLORS,
        "cpu_count": cpu_count,
        "speedup_measurable": speedup_measurable,
        "layout": LARGE_SPEC.name,
        "vertices": graph.num_vertices,
        "conflict_edges": graph.num_conflict_edges,
        "stitch_edges": graph.num_stitch_edges,
        "runs": runs,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


if __name__ == "__main__":
    result = record_artifact()
    for run in result["runs"]:
        print(
            f"workers={run['workers']}: {run['seconds']:.3f}s "
            f"speedup={run['speedup']}x conflicts={run['conflicts']} "
            f"stitches={run['stitches']}"
        )
    print(f"artifact written to {ARTIFACT_PATH}")
