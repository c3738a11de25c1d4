"""Fixtures shared by the division tests."""

from __future__ import annotations

import pytest

import repro.core.division as division
from repro.core.kernels import set_kernel_mode
from repro.core.kernels.ccore import compiled_core


@pytest.fixture(
    params=[
        "off",
        pytest.param(
            "compiled",
            marks=pytest.mark.skipif(
                compiled_core() is None, reason="compiled solve core unavailable"
            ),
        ),
    ]
)
def stage4_calls(request, monkeypatch):
    """Every stage-4 call the division makes in kernel mode ``request.param``.

    Each call is recorded as ``(vertices, edges, pieces)``: the ranks of the
    block, its conflict then stitch edges among them, and the K-classes the
    division got back (from the compiled core, or from
    ``GomoryHuTree.components_below`` in mode ``off``).
    """
    calls = []
    k_classes = division._RankDivider.k_classes

    def recording(divider, ranks):
        inside = set(ranks)
        edges = divider.pairs(divider.conflict, ranks, inside) + divider.pairs(
            divider.stitch, ranks, inside
        )
        pieces = k_classes(divider, ranks)
        calls.append((list(ranks), edges, pieces))
        return pieces

    monkeypatch.setattr(division._RankDivider, "k_classes", recording)
    previous = set_kernel_mode(request.param)
    yield calls
    set_kernel_mode(previous)
