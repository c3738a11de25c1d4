"""Golden regression pins for the Table 1 / Table 2 experiment metrics.

Future performance work (parallel scheduling, caching, solver tweaks) must
not silently change the *results* of the paper's tables — only their CPU
column.  These tests pin the conflict number, stitch number and weighted
cost of every (circuit, algorithm) cell for the two smallest circuits of
each table at a fixed scale, and additionally assert the parallel/cached
execution mode reproduces the same numbers.

If a change legitimately alters these numbers (e.g. an algorithmic
improvement), update the goldens deliberately and say so in the commit.

Deliberate update (PR 6): ``greedy_color_merged`` now orders merged nodes by
conflict degree (matching ``greedy_color_graph``) instead of group size, which
changes the backtrack search's warm-start incumbent — three sdp-backtrack
cells improved or shifted: C499 (1,3)->(1,4), C6288 (14,3)->(14,2),
C7552 (4,8)->(4,7).

Deliberate update (fixed-order SDP relaxation): the relaxation now defines
its own arithmetic (a seeded raw-word start point instead of
``Generator.normal``, edge-order gradient scatter, left-to-right sums) and
runs it in the compiled core, so its iterate is a re-draw of the old one.
One sdp cell moved: Table 2 C6288 sdp-backtrack (14,2)->(16,2), inside
the spread of the old solver itself (14-20 conflicts over relaxation seeds
2014-2018; the new one gives 14-16).  Every other sdp cell (Table 1
C432/C499 sdp-backtrack and sdp-greedy, Table 2 C7552 sdp-backtrack),
every linear cell and every graph-shape pin is unchanged.

Deliberate update (one-round SDP penalty schedule): ``SdpOptions`` now runs
one penalty round at penalty 2.0 by default instead of six rounds growing
the penalty fourfold, so the relaxation stops at its first round's iterate.
Two sdp-backtrack cells moved, both down: Table 1 C499 (1,4)->(1,3) and
Table 2 C6288 (16,2)->(11,0), the latter now below linear's (12,3).  At
full scale one round also has fewer conflicts than six in every table,
mapping and relaxation seed 2014-2018
(``benchmarks/artifacts/sdp_schedule.json``).  Every other sdp cell, every
linear cell and every graph-shape pin is unchanged.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_table

#: Scales are fixed forever: goldens are only meaningful at the exact input.
TABLE1_SCALE = 0.2
TABLE2_SCALE = 0.12

#: (circuit, algorithm) -> (conflicts, stitches) for K=4 at TABLE1_SCALE.
TABLE1_GOLDEN = {
    ("C432", "sdp-backtrack"): (0, 7),
    ("C432", "sdp-greedy"): (0, 7),
    ("C432", "linear"): (0, 7),
    ("C499", "sdp-backtrack"): (1, 3),
    ("C499", "sdp-greedy"): (1, 3),
    ("C499", "linear"): (1, 3),
}
#: Graph shape pins: catching construction drift separately from coloring.
TABLE1_GRAPHS = {"C432": (63, 93, 20), "C499": (79, 146, 22)}

#: (circuit, algorithm) -> (conflicts, stitches) for K=5 at TABLE2_SCALE.
TABLE2_GOLDEN = {
    ("C6288", "sdp-backtrack"): (11, 0),
    ("C6288", "linear"): (12, 3),
    ("C7552", "sdp-backtrack"): (4, 7),
    ("C7552", "linear"): (4, 8),
}
TABLE2_GRAPHS = {"C6288": (125, 454, 17), "C7552": (151, 438, 25)}

ALPHA = 0.1  # the paper's stitch weight, used for the cost pin


def _table1(**kwargs):
    return run_table(
        ["C432", "C499"],
        ["sdp-backtrack", "sdp-greedy", "linear"],
        num_colors=4,
        scale=TABLE1_SCALE,
        name="golden-table1",
        **kwargs,
    )


def _table2(**kwargs):
    return run_table(
        ["C6288", "C7552"],
        ["sdp-backtrack", "linear"],
        num_colors=5,
        scale=TABLE2_SCALE,
        name="golden-table2",
        **kwargs,
    )


def _check(table, golden, graphs):
    seen = set()
    for row in table.rows:
        cell = (row.circuit, row.algorithm)
        seen.add(cell)
        conflicts, stitches = golden[cell]
        assert row.status == "ok"
        assert (row.conflicts, row.stitches) == (conflicts, stitches), cell
        cost = row.conflicts + ALPHA * row.stitches
        assert cost == pytest.approx(conflicts + ALPHA * stitches), cell
        assert (row.vertices, row.conflict_edges, row.stitch_edges) == graphs[
            row.circuit
        ], cell
    assert seen == set(golden)


class TestTable1Golden:
    def test_metrics_pinned(self):
        _check(_table1(), TABLE1_GOLDEN, TABLE1_GRAPHS)

    def test_parallel_cached_run_matches_golden(self):
        """workers/cache change the CPU column only, never the metrics."""
        _check(_table1(workers=2, use_cache=True), TABLE1_GOLDEN, TABLE1_GRAPHS)


class TestTable2Golden:
    def test_metrics_pinned(self):
        _check(_table2(), TABLE2_GOLDEN, TABLE2_GRAPHS)

    def test_parallel_cached_run_matches_golden(self):
        _check(_table2(workers=2, use_cache=True), TABLE2_GOLDEN, TABLE2_GRAPHS)
