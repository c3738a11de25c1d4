"""Served byte identity for polygons, a second layer and GDS uploads.

The served and clustered sweeps send rectangles-only layouts of a single
layer as JSON.  Here L- and U-shaped polygons sit on the decomposed layer,
with shapes of a second layer listed between them so that shape ids are not
ranks on the decomposed layer.  The layout goes as ``layout`` and as
``gds_b64`` to a server on a process pool and through a one-node
coordinator; every response must equal a direct :class:`Decomposer` run
under ``canonical_json``.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterClient, CoordinatorConfig, CoordinatorThread
from repro.core.decomposer import Decomposer
from repro.geometry.layout import Layout
from repro.geometry.polygon import Polygon
from repro.io.gds import parse_gds, write_gds
from repro.service import ServerConfig, ServerThread, ServiceClient
from repro.service.protocol import build_options, canonical_json, result_to_payload

pytestmark = pytest.mark.service

ALGORITHM = "linear"


def _shapes_layout() -> Layout:
    """Wires, an L- and a U-shape on ``metal1``, ``metal2`` shapes in between."""
    layout = Layout(name="shapes")
    layout.add_rect_xy(0, -300, 40, -260, layer="metal2")
    layout.add_rect_xy(0, 0, 1000, 20)
    layout.add_rect_xy(-200, 500, 200, 540, layer="metal2")
    layout.add_rect_xy(0, 60, 300, 80)
    layout.add_polygon(
        Polygon.from_points([(400, 60), (600, 60), (600, 80), (420, 80), (420, 300), (400, 300)])
    )
    layout.add_rect_xy(100, 1000, 180, 1080, layer="metal2")
    layout.add_polygon(
        Polygon.from_points(
            [(700, 60), (1000, 60), (1000, 300), (980, 300), (980, 80), (720, 80),
             (720, 300), (700, 300)]
        )
    )
    layout.add_rect_xy(0, -60, 300, -40)
    layout.add_rect_xy(460, 120, 480, 400)
    return layout


def _expected(layout: Layout, name: str, layer: str) -> str:
    result = Decomposer(build_options(4, ALGORITHM)).decompose(layout, layer=layer)
    return canonical_json(result_to_payload(name, layer, result))


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """``(label, request kwargs, expected canonical response)`` per form."""
    layout = _shapes_layout()
    path = tmp_path_factory.mktemp("gds") / "shapes.gds"
    write_gds(layout, path)
    blob = path.read_bytes()
    uploaded = parse_gds(blob)
    gds_layer = uploaded.layers()[0]
    assert len(uploaded.shapes_on_layer(gds_layer)) == layout.count_on_layer("metal1")
    return [
        ("layout", {"layout": layout, "name": "shapes"}, _expected(layout, "shapes", "metal1")),
        ("gds", {"gds_bytes": blob}, _expected(uploaded, "gds-upload", gds_layer)),
    ]


def test_direct_run_splits_a_polygon():
    """The layout is not trivial: the L-shape (shape id 4) is split, and
    the decomposed layer's shape ids are not its ranks."""
    result = Decomposer(build_options(4, ALGORITHM)).decompose(_shapes_layout(), "metal1")
    shape_vertices = result.construction.shape_vertices
    assert sorted(shape_vertices) == [1, 3, 4, 6, 7, 8]
    assert len(shape_vertices[4]) == 2
    assert result.construction.graph.conflict_edges()


def test_process_pool_server_matches_direct_runs(cases):
    with ServerThread(ServerConfig(port=0, workers=1)) as (host, port), ServiceClient(
        host, port
    ) as client:
        client.wait_until_healthy()
        assert client.healthz()["mode"] == "process"
        for label, request, expected in cases:
            served = client.decompose(algorithm=ALGORITHM, **request)
            assert canonical_json(served) == expected, label


@pytest.mark.cluster
def test_one_node_coordinator_matches_direct_runs(cases):
    node = ServerThread(ServerConfig(port=0, workers=1, force_inline_pool=True))
    host, port = node.start()
    try:
        coordinator = CoordinatorThread(
            CoordinatorConfig(port=0, peers=[f"{host}:{port}"], probe_interval=60.0)
        )
        address = coordinator.start()
        try:
            client = ClusterClient(*address)
            client.wait_until_healthy()
            for label, request, expected in cases:
                served = client.decompose(algorithm=ALGORITHM, **request)
                assert canonical_json(served) == expected, label
        finally:
            coordinator.stop()
    finally:
        node.stop()
