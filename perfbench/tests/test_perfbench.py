"""Tests of the benchmark's own machinery (not of the program it measures).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import math
import signal
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import common, inputs, layers, procs, run, served  # noqa: E402


# ------------------------------------------------------------- percentiles
def test_percentile_interpolates_and_counts_samples():
    assert common.percentile([3.0], 90) == (3.0, 1)
    assert common.percentile([4.0, 1.0, 3.0, 2.0], 50) == (2.5, 4)
    value, count = common.percentile(list(range(1, 101)), 90)
    assert count == 100
    assert value == pytest.approx(90.1)
    assert common.percentile([5.0, 1.0], 0) == (1.0, 2)
    assert common.percentile([5.0, 1.0], 100) == (5.0, 2)


def test_percentile_rejects_empty_sample_and_bad_rank():
    with pytest.raises(ValueError):
        common.percentile([], 50)
    with pytest.raises(ValueError):
        common.percentile([1.0], 101)


def test_describe_reports_sample_counts():
    summary = common.describe([0.001 * i for i in range(1, 101)])
    assert summary["samples"] == 100
    assert summary["beyond_p90"] == 10
    assert summary["p50_ms"] == pytest.approx(50.5)


# ------------------------------------------------------------------ inputs
def fingerprint(workload_inputs) -> str:
    digest = hashlib.sha256()
    if isinstance(workload_inputs, inputs.ServedInputs):
        for request in workload_inputs.requests:
            digest.update(request.body)
    else:
        for name, layout in workload_inputs:
            digest.update(name.encode())
            digest.update(json.dumps(layout.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def test_library_inputs_follow_the_seed():
    first = fingerprint(inputs.library_inputs("linear-k5", 1))
    again = fingerprint(inputs.library_inputs("linear-k5", 1))
    other = fingerprint(inputs.library_inputs("linear-k5", 2))
    assert first == again
    assert first != other


def test_library_translation_keeps_every_shape():
    (name, layout), = [
        item for item in inputs.library_inputs("linear-k5", 3) if item[0] == "C6288"
    ]
    from repro.bench.circuits import load_circuit

    base = load_circuit(name, inputs.LIBRARY["linear-k5"]["scale"])
    assert len(layout) == len(base)
    moved_boxes = [shape.bbox for shape in layout]
    base_boxes = [shape.bbox for shape in base]
    dx, dy = moved_boxes[0].xl - base_boxes[0].xl, moved_boxes[0].yl - base_boxes[0].yl
    assert (dx, dy) != (0, 0)
    assert moved_boxes == [box.translated(dx, dy) for box in base_boxes]


def test_served_inputs_follow_the_seed():
    first = fingerprint(inputs.served_inputs(1, seconds=0.5))
    assert first == fingerprint(inputs.served_inputs(1, seconds=0.5))
    assert first != fingerprint(inputs.served_inputs(2, seconds=0.5))


def test_served_mix_is_half_hot_and_a_quarter_gds():
    served_inputs = inputs.served_inputs(4, seconds=0.5)
    requests = served_inputs.requests
    hot = sum(1 for r in requests if r.layout_id < served_inputs.hot)
    assert hot == len(requests) // 2
    assert sum(1 for r in requests if r.gds) == math.ceil(len(requests) / inputs.GDS_SHARE)
    cold_ids = [r.layout_id for r in requests if r.layout_id >= served_inputs.hot]
    assert len(cold_ids) == len(set(cold_ids))
    body = json.loads(requests[0].body)
    assert body["algorithm"] == "linear" and body["colors"] == 4


# ------------------------------------------------------------ metric names
def test_every_metric_name_is_well_formed():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    names += list(run.END_TO_END) + [name for name, _ in layers.PER_LAYER]
    for name in names:
        assert common.METRIC_NAME.fullmatch(name), name


def test_benchmark_file_matches_the_printed_metrics():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)


def test_complete_fills_every_layer_and_rejects_strays():
    full = layers.complete({"sdp.calls": 2.0})
    assert list(full) == [name for name, _ in layers.PER_LAYER]
    assert full["sdp.calls"]["value"] == 2.0
    assert full["linear.ms"]["value"] == 0.0
    with pytest.raises(KeyError):
        layers.complete({"no.such_metric": 1.0})


# ------------------------------------------------------------------ tracer
def test_tracer_splits_self_time_and_restores_functions():
    import repro.core.decomposer as decomposer
    import repro.core.division as division
    from repro.bench.circuits import load_circuit

    original = (decomposer.build_decomposition_graph, division.gomory_hu_tree)
    layout = load_circuit("C6288", 0.05)
    with layers.LayerTracer() as tracer:
        result = decomposer.Decomposer(inputs.library_options("linear-k5")).decompose(layout)
    assert (decomposer.build_decomposition_graph, division.gomory_hu_tree) == original
    metrics = tracer.metrics()
    assert metrics["construction.vertices"] == result.construction.graph.num_vertices
    assert metrics["sdp.calls"] == 0
    parts = sum(metrics[name] for name in (
        "construction.ms", "division.ghtree_ms", "division.peel_ms",
        "division.blocks_ms", "linear.ms", "merge.ms",
    ))
    assert 0 < parts <= metrics["decompose.ms"]


# -------------------------------------------------------------------- pace
def test_pace_samples_once_per_interval_and_scales_to_nominal():
    from perfbench.pace import EVERY, NOMINAL, Pace

    pace = Pace()
    assert pace.samples == []
    assert pace.after(0.001) > 0.0  # the first call samples at once
    assert pace.after(EVERY / 2) == 0.0
    assert pace.after(EVERY / 2) > 0.0
    assert pace.after(EVERY / 4) == 0.0
    assert len(pace.samples) == 2
    pace.samples = [NOMINAL * 2, NOMINAL * 2]
    assert pace.scale == pytest.approx(0.5)
    scaled = layers.complete({"decompose.ms": 10.0, "sdp.calls": 3.0}, pace.scale)
    assert scaled["decompose.ms"]["value"] == pytest.approx(5.0)
    assert scaled["sdp.calls"]["value"] == 3.0


# ------------------------------------------------------------- processes
@pytest.mark.parametrize("failure", [RuntimeError("client died midway"), KeyboardInterrupt()])
def test_no_child_survives_a_run_that_fails_midway(tmp_path, monkeypatch, failure):
    """The server pass succeeds, the traced cluster pass fails midway."""
    spawned = []
    original_spawn = procs.Children.spawn

    def recording_spawn(self, argv, env):
        proc = original_spawn(self, argv, env)
        spawned.append(proc.pid)
        return proc

    def client(port, served_inputs, pace):
        assert procs.group_members(spawned[-1])  # the deployment is up
        if len(spawned) == 1:
            count = len(served_inputs.requests)
            return [0.001] * count, [(200, b"{}")] * count, 1.0
        raise failure

    tiny = inputs.served_inputs(1, seconds=0.1)
    monkeypatch.setattr(procs.Children, "spawn", recording_spawn)
    monkeypatch.setattr(served, "served_inputs", lambda seed, seconds: tiny)
    monkeypatch.setattr(served, "direct_payloads", lambda *_: ({}, {}))
    monkeypatch.setattr(served, "send_all", client)
    with pytest.raises(type(failure)):
        served.run(1, 0.1, trace=True, rundir=tmp_path)
    assert len(spawned) == 3  # server, then node and coordinator
    for pgid in spawned:
        assert procs.group_members(pgid) == []


def test_sigterm_unwinds_like_an_exception():
    with pytest.raises(SystemExit) as exit_info:
        run._exit_on_sigterm(signal.SIGTERM, None)
    assert exit_info.value.code == 128 + signal.SIGTERM
