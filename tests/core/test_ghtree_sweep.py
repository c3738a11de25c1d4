"""The division's pieces against the exact Gomory–Hu tree, at benchmark scale.

The division cuts its pieces without building the tree: it finds the
K-classes with flows capped at K between contracted classes
(``GomoryHuTree.components_below``, or the compiled core's
``repro_kclasses``).  The exact Gusfield tree (``GomoryHuTree.edges``) is
the reference.  For every stage-4 call the division makes on the Table 1
(K=4) and Table 2 (K=5) circuits at scale 0.35, in kernel modes ``off`` and
``compiled`` (the ``stage4_calls`` fixture), the pieces it got must equal
the tree's components once every edge of weight < K is cut.  A failure
names the first call that differs.
"""

import networkx as nx
import pytest

from repro.bench.circuits import TABLE1_CIRCUITS, TABLE2_CIRCUITS, load_circuit
from repro.core.decomposer import Decomposer
from repro.core.options import DecomposerOptions
from repro.graph.gomory_hu import gomory_hu_tree

pytestmark = pytest.mark.slow


def tree_pieces(tree, threshold: int):
    """Components of the exact tree once every edge of weight < threshold is cut."""
    forest = nx.Graph()
    forest.add_nodes_from(tree.vertices)
    forest.add_edges_from((u, v) for u, v, w in tree.edges if w >= threshold)
    return sorted(sorted(piece) for piece in nx.connected_components(forest))


@pytest.mark.parametrize(
    "circuits, options",
    [
        (TABLE1_CIRCUITS, DecomposerOptions.for_quadruple_patterning("linear")),
        (TABLE2_CIRCUITS, DecomposerOptions.for_pentuple_patterning("linear")),
    ],
    ids=["table1-k4", "table2-k5"],
)
def test_pieces_equal_the_exact_tree_cut(stage4_calls, circuits, options):
    decomposer = Decomposer(options)
    owners = []
    for circuit in circuits:
        decomposer.decompose(load_circuit(circuit, scale=0.35))
        owners += [circuit] * (len(stage4_calls) - len(owners))

    k = options.num_colors
    assert stage4_calls, "the division made no stage-4 call"
    split = 0
    for index, ((vertices, edges, pieces), circuit) in enumerate(zip(stage4_calls, owners)):
        tree = gomory_hu_tree(vertices, edges)
        assert pieces == tree_pieces(tree, k), (
            f"stage-4 call {index} ({circuit}, {len(tree.vertices)} vertices) "
            "differs from the exact tree"
        )
        split += len(pieces) > 1
    assert split, "no stage-4 call split its block, so the sweep checked nothing"
