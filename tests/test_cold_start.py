"""Cold start: a process imports only what its path runs.

Only the exact ILP baseline calls HiGHS's MIP solver, so only it loads
``scipy``; the paper's own flows (linear, SDP + backtrack, SDP + greedy)
and the server never do.  Each check runs in a fresh interpreter, where no
other test can have imported ``scipy`` first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

BOUNDARY = """
import json, sys
import repro.cli
from repro.bench.circuits import load_circuit
from repro.core.decomposer import Decomposer
from repro.core.options import DecomposerOptions

seen = {}
layout = load_circuit("C432", scale=0.05)
for algorithm in ("linear", "sdp-backtrack", "greedy"):
    options = DecomposerOptions.for_quadruple_patterning(algorithm=algorithm)
    Decomposer(options).decompose(layout)
seen["decomposed"] = sorted(m for m in ("scipy", "asyncio") if m in sys.modules)

from repro.service import ServerConfig, ServerThread, ServiceClient
config = ServerConfig(port=0, workers=1, force_inline_pool=True)
with ServerThread(config) as (host, port):
    client = ServiceClient(host, port)
    client.wait_until_healthy()
    client.decompose(layout, name="c432", algorithm="linear")
seen["served"] = "scipy" in sys.modules

from repro.core import AlgorithmOptions, divide_and_color, make_colorer
from repro.graph.decomposition_graph import DecompositionGraph
k5 = DecompositionGraph.from_edges([(i, j) for i in range(5) for j in range(i + 1, 5)])
coloring = divide_and_color(k5, make_colorer("ilp", 4, AlgorithmOptions()))
seen["ilp"] = "scipy" in sys.modules
seen["ilp_coloring"] = sorted(coloring.items())
print(json.dumps(seen))
"""

ILP_BUDGET = """
import json, sys
from repro.core import AlgorithmOptions, make_colorer
from repro.graph.decomposition_graph import DecompositionGraph

loaded_before_solve = "scipy" in sys.modules
k5 = DecompositionGraph.from_edges([(i, j) for i in range(5) for j in range(i + 1, 5)])
colorer = make_colorer("ilp", 4, AlgorithmOptions(ilp_time_limit=0.25))
colorer.color(k5)
print(json.dumps({
    "loaded_before_solve": loaded_before_solve,
    "timeouts": colorer.timeouts,
}))
"""


def _run(script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_only_the_ilp_loads_scipy():
    seen = _run(BOUNDARY)
    # Three library decomposes: neither the LP solver nor the server's
    # asyncio stack was imported.
    assert seen["decomposed"] == []
    # A served decompose, solved in this interpreter: still no scipy.
    assert seen["served"] is False
    # K5 at K=4 survives the division whole, so HiGHS solves it.
    assert seen["ilp"] is True
    assert seen["ilp_coloring"] == [[0, 0], [1, 2], [2, 0], [3, 1], [4, 3]]


def test_ilp_budget_clock_starts_after_the_scipy_import():
    """The first ILP solve in a process must not charge the scipy import
    (~0.5 s) to ``ilp_time_limit``: with a 0.25 s limit, K5 at K=4 is still
    proven optimal."""
    seen = _run(ILP_BUDGET)
    assert seen["loaded_before_solve"] is False
    assert seen["timeouts"] == 0
