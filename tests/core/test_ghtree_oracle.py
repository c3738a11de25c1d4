"""The GH-tree division's pieces against networkx's k-edge-connected components.

Cutting every GH-tree edge of weight < K leaves exactly the maximal vertex
sets whose every pair has local edge connectivity >= K, which is what
``networkx.k_edge_components`` computes by an independent method.  The check
covers every stage-4 call the division makes on the Table 1 (K=4) and
Table 2 (K=5) circuits at scale 0.1, in kernel modes ``off`` and
``compiled`` (the ``stage4_calls`` fixture), and pins the property the
max-flow rewrite relies on: any exact max-flow yields the same tree and the
same pieces.
"""

import networkx as nx
import pytest

from repro.bench.circuits import TABLE1_CIRCUITS, TABLE2_CIRCUITS, load_circuit
from repro.core.decomposer import Decomposer
from repro.core.options import DecomposerOptions

pytestmark = pytest.mark.slow


@pytest.mark.parametrize(
    "circuits, options",
    [
        (TABLE1_CIRCUITS, DecomposerOptions.for_quadruple_patterning("linear")),
        (TABLE2_CIRCUITS, DecomposerOptions.for_pentuple_patterning("linear")),
    ],
    ids=["table1-k4", "table2-k5"],
)
def test_every_ghtree_piece_is_a_k_edge_component(stage4_calls, circuits, options):
    decomposer = Decomposer(options)
    for name in circuits:
        decomposer.decompose(load_circuit(name, scale=0.1))

    k = options.num_colors
    assert stage4_calls, "the division made no stage-4 call"
    split = 0
    for vertices, edges, found in stage4_calls:
        graph = nx.Graph()
        graph.add_nodes_from(vertices)
        graph.add_edges_from(edges)
        assert graph.number_of_edges() == len(edges), "oracle needs a simple graph"
        pieces = sorted(sorted(piece) for piece in found)
        expected = sorted(sorted(piece) for piece in nx.k_edge_components(graph, k))
        assert pieces == expected
        split += len(pieces) > 1
    assert split, "no stage-4 call split its block, so the oracle checked nothing"
