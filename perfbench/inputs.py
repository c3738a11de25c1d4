"""Seeded inputs of every workload, built before any timing starts.

Library pair (``sdp-k4``, ``linear-k5``): every circuit profile of the
paper's table at a fixed scale, each circuit generated once from its own
profile seed, translated by a seeded offset and visited in a seeded order.
The seed does not redraw the circuits: with a fresh generator seed per
circuit the work of one pass moved by up to +-25% between workload seeds
(linear-k5: 3.0-8.9 s over eight seeds; sdp-k4: 8.6-11.3 s over four), and
mirroring alone moved sdp-k4's stitch count by 10%, both far more than a
regression bound worth having.  A translation changes every coordinate of
the input and leaves the work and the answer exactly the same, so
conflicts and stitches repeat across seeds and timings differ by machine
noise only.

Served pair (``serve-mixed``, ``cluster-mixed``): one request list of
C-series and S1488 layouts at three small scales, all cut from the
profile-seed circuits.  Half the requests repeat a six-layout hot set (the
circuits translated), so the component cache is read.  The other half are
first sightings, a balanced cycle over every profile and scale: each is a
circuit with its shapes in a fresh seeded order, which renumbers every
vertex and so gives every non-trivial component a new canonical cache key
while the geometry, and with it the work, stays the circuit's.  (Fresh
generator seeds moved the list's conflict total by 9% and its p90 latency
by 17% between workload seeds.)  One request in four carries base64 GDS
instead of layout JSON.
"""

from __future__ import annotations

import base64
import json
import math
import os
import random
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Tuple

LIBRARY = {
    "sdp-k4": {"table": 1, "scale": 0.1, "colors": 4, "algorithm": "sdp-backtrack"},
    "linear-k5": {"table": 2, "scale": 0.35, "colors": 5, "algorithm": "linear"},
}

SERVED_PROFILES = (
    "C432", "C499", "C880", "C1355", "C1908", "C2670",
    "C3540", "C5315", "C6288", "C7552", "S1488",
)
SERVED_SCALES = (0.05, 0.10, 0.15)
#: The hot set: fixed (profile, scale) pairs.
HOT_SET = (
    ("C432", 0.10), ("C880", 0.05), ("C1908", 0.15),
    ("C3540", 0.10), ("C6288", 0.05), ("S1488", 0.15),
)
SERVED_COLORS = 4
SERVED_ALGORITHM = "linear"
#: First sightings per second of requested run time; the other half of
#: the list repeats the hot set, so a run sends about 60 requests/s worth.
COLD_PER_SECOND = 30
GDS_SHARE = 4  # one request in four carries GDS


def library_options(workload: str):
    from repro.core.options import DecomposerOptions

    spec = LIBRARY[workload]
    if spec["colors"] == 4:
        return DecomposerOptions.for_quadruple_patterning(spec["algorithm"])
    return DecomposerOptions.for_pentuple_patterning(spec["algorithm"])


def translated(layout, dx: int, dy: int):
    """Return a copy of a rectangles-only layout moved by ``(dx, dy)``."""
    from repro.geometry.layout import Layout

    out = Layout(name=layout.name, dbu_per_nm=layout.dbu_per_nm)
    for shape in layout:
        out.add_rect(shape.bbox.translated(dx, dy), layer=shape.layer)
    return out


def reordered(layout, rng: random.Random):
    """Return a copy of ``layout`` with its shapes in a seeded order."""
    from repro.geometry.layout import Layout

    shapes = list(layout)
    rng.shuffle(shapes)
    out = Layout(name=layout.name, dbu_per_nm=layout.dbu_per_nm)
    for shape in shapes:
        out.add_polygon(shape.polygon, layer=shape.layer)
    return out


def library_inputs(workload: str, seed: int) -> List[Tuple[str, object]]:
    """The pass of ``(name, layout)`` pairs of a library workload."""
    from repro.bench.circuits import TABLE1_CIRCUITS, TABLE2_CIRCUITS, load_circuit

    spec = LIBRARY[workload]
    circuits = TABLE1_CIRCUITS if spec["table"] == 1 else TABLE2_CIRCUITS
    rng = random.Random(f"{workload}:{seed}")
    inputs = []
    for name in circuits:
        base = load_circuit(name, spec["scale"])
        for shape in base:
            if len(shape.polygon.vertices) != 4:
                raise ValueError(f"{name}: generator emitted a non-rectangle")
        offset = rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)
        inputs.append((name, translated(base, *offset)))
    rng.shuffle(inputs)
    return inputs


@dataclass
class Request:
    """One ``POST /decompose`` body and the distinct input it carries."""

    body: bytes
    layout_id: int
    gds: bool


@dataclass
class ServedInputs:
    requests: List[Request]
    #: Layout ids below this belong to the hot set.
    hot: int


def _gds_b64(layout) -> str:
    from repro.io.gds import write_gds

    fd, path = tempfile.mkstemp(suffix=".gds")
    os.close(fd)
    try:
        write_gds(layout, path)
        with open(path, "rb") as handle:
            return base64.b64encode(handle.read()).decode("ascii")
    finally:
        os.unlink(path)


def served_inputs(seed: int, seconds: float) -> ServedInputs:
    """The request list of the served pair, sized from the run length."""
    from repro.bench.circuits import load_circuit

    rng = random.Random(f"served:{seed}")
    combos = [(p, s) for p in SERVED_PROFILES for s in SERVED_SCALES]
    rounds = max(1, math.ceil(COLD_PER_SECOND * seconds / len(combos)))
    cold = combos * rounds
    rng.shuffle(cold)

    circuits = {combo: load_circuit(*combo) for combo in combos}
    layouts = [
        translated(circuits[combo], rng.randrange(10**6), rng.randrange(10**6))
        for combo in HOT_SET
    ]
    layouts += [reordered(circuits[combo], rng) for combo in cold]
    hot_ids = list(range(len(HOT_SET))) * math.ceil(len(cold) / len(HOT_SET))
    hot_ids = hot_ids[: len(cold)]
    rng.shuffle(hot_ids)
    cold_ids = iter(range(len(HOT_SET), len(layouts)))
    hot_iter = iter(hot_ids)
    kinds = [True] * len(hot_ids) + [False] * len(cold)
    rng.shuffle(kinds)
    ids = [next(hot_iter) if is_hot else next(cold_ids) for is_hot in kinds]
    gds_flags = [i % GDS_SHARE == 0 for i in range(len(ids))]
    rng.shuffle(gds_flags)

    encoded_gds: Dict[int, str] = {}
    requests = []
    for layout_id, gds in zip(ids, gds_flags):
        payload: Dict[str, object] = {
            "colors": SERVED_COLORS,
            "algorithm": SERVED_ALGORITHM,
        }
        layout = layouts[layout_id]
        if gds:
            if layout_id not in encoded_gds:
                encoded_gds[layout_id] = _gds_b64(layout)
            payload["gds_b64"] = encoded_gds[layout_id]
        else:
            payload["layout"] = layout.to_dict()
        requests.append(Request(json.dumps(payload).encode(), layout_id, gds))
    return ServedInputs(requests=requests, hot=len(HOT_SET))
