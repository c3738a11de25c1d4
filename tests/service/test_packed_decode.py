"""Differential tests of the front ends' packed decode.

Both front ends decode a request with :func:`decode_decompose_request`,
straight into the decomposed layer's packed outlines.  Its reference is the
JSON-level :func:`parse_decompose_request`.  On every input below the two
must make the same accept/refuse decision with the same
:class:`ProtocolError` text.  On acceptance the packed outlines, turned
into rect rows, must equal ``rect_array`` over ``shape.rects()`` of
``Layout.from_dict(job["layout"])`` on the job's layer, shape by shape with
the same shape ids; where that decomposition fails, both sides fail alike.
"""

from __future__ import annotations

import base64
import importlib.util
from pathlib import Path

import pytest

from test_protocol import _field_mutants

from repro.bench.circuits import load_circuit
from repro.core.decomposer import Decomposer
from repro.errors import ReproError
from repro.geometry.layout import OUT_OF_RANGE_MESSAGE, Layout
from repro.geometry.outlines import PackedLayout
from repro.geometry.polygon import Polygon
from repro.geometry.rect import rect_array
from repro.graph.construction import build_decomposition_graph
from repro.io.jsonio import FORMAT_MARKER
from repro.service import ServerConfig, ServerThread, ServiceClient, ServiceError
from repro.service.protocol import (
    ProtocolError,
    build_options,
    decode_decompose_request,
    parse_decompose_request,
    result_to_payload,
)

pytestmark = pytest.mark.service

#: Encloses no area, yet passes ``Polygon.from_points``: refused by the
#: worker's polygon decomposition, never by the front door.
DEGENERATE = [[0, 60], [10, 60], [10, 70], [10, 60]]

L_SHAPE = [[0, 0], [300, 0], [300, 20], [20, 20], [20, 200], [0, 200]]
U_SHAPE = [[400, 0], [520, 0], [520, 200], [500, 200], [500, 20], [420, 20], [420, 200], [400, 200]]


def _load_test_gds():
    """``tests/io/test_gds.py``, for the byte mutants of ``TestMutatedStreams``."""
    path = Path(__file__).resolve().parents[1] / "io" / "test_gds.py"
    spec = importlib.util.spec_from_file_location("gds_stream_mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wide_path_gds() -> bytes:
    """A width-40 PATH at x = 2**31 - 10: its widened outline leaves int32."""
    from repro.io import gds as g

    edge = 2**31 - 10
    return b"".join(
        [
            g._encode_record(g.PATH, 0x00, b""),
            g._encode_record(g.LAYER, 0x02, [1]),
            g._encode_record(g.WIDTH, 0x03, [40]),
            g._encode_record(g.XY, 0x03, [edge, 0, edge, 100]),
            g._encode_record(g.ENDEL, 0x00, b""),
        ]
    )


def _decide(decode, payload):
    try:
        return "accepted", decode(payload)
    except ProtocolError as exc:
        return "refused", str(exc)


def _reference_rows(job):
    """Per shape ``(shape id, rect rows)`` of the JSON-level job, or its error."""
    try:
        shapes = Layout.from_dict(job["layout"]).shapes_on_layer(job["layer"])
        return [(shape.shape_id, rect_array(shape.rects()).tolist()) for shape in shapes]
    except ReproError as exc:
        return type(exc).__name__, str(exc)


def _packed_rows(job):
    """Per shape ``(shape id, rect rows)`` of the packed job, or its error."""
    outlines = job["outlines"]
    try:
        boxes, sizes = outlines.rect_rows()
    except ReproError as exc:
        return type(exc).__name__, str(exc)
    ends = sizes.cumsum().tolist()
    starts = [0] + ends[:-1]
    rows = boxes.tolist()
    return [
        (shape_id, rows[start:end])
        for shape_id, start, end in zip(outlines.shape_ids.tolist(), starts, ends)
    ]


def assert_same_decode(payload, where=""):
    """Both decodes decide alike; accepted jobs carry the same shapes."""
    reference, packed = _decide(parse_decompose_request, payload), _decide(
        decode_decompose_request, payload
    )
    assert reference[0] == packed[0], f"{where}: {reference[1]!r} vs {packed[1]!r}"
    if reference[0] == "refused":
        assert reference[1] == packed[1], where
        return reference
    expected, job = reference[1], packed[1]
    assert "layout" not in job and set(job) == set(expected) - {"layout"} | {"outlines"}
    for key in ("name", "layer", "colors", "algorithm", "min_spacing"):
        assert job[key] == expected[key], f"{where}: {key}"
    assert _packed_rows(job) == _reference_rows(expected), where
    return reference


def _augmented_c432():
    document = load_circuit("C432", scale=0.05).to_dict()
    layer = document["shapes"][0]["layer"]
    for vertices in (
        L_SHAPE,
        [[0, 300], [40, 300], [40, 340], [0, 340], [0, 300]],  # closed loop
        [[0.4, 400], [40.6, 400], [40.6, 440], [0.4, 440]],  # float coordinates
    ):
        document["shapes"].append({"layer": layer, "vertices": vertices})
    return document


def _document(*shapes, layer="metal1"):
    return {
        "format": FORMAT_MARKER,
        "shapes": [
            shape if isinstance(shape, dict) else {"layer": layer, "vertices": shape}
            for shape in shapes
        ],
    }


RECTANGLE = [[10, 20], [50, 20], [50, 80], [10, 80]]


def _rectangle_orders():
    """The rectangle listed anticlockwise and clockwise from each corner."""
    for turn in range(4):
        anticlockwise = RECTANGLE[turn:] + RECTANGLE[:turn]
        yield anticlockwise
        yield anticlockwise[::-1]


LITERAL_CORPUS = [
    *[{"layout": _document(order)} for order in _rectangle_orders()],
    {"layout": _document(RECTANGLE + [RECTANGLE[0]])},  # closing vertex
    {"layout": _document([[0.5, 0], [40, 0], [40, 40], [0.5, 40]])},
    {"layout": _document([[1.5, 0], [40, 0], [40, 40], [1.5, 40]])},
    {"layout": _document([[True, 0], [40, 0], [40, 40], [True, 40]])},
    {"layout": _document([[0, 0], [2**31, 0], [2**31, 40], [0, 40]])},
    {"layout": _document([[0, 0], [float("nan"), 0], [40, 40], [0, 40]])},
    {"layout": _document(RECTANGLE, {"layer": 7, "vertices": RECTANGLE}), "layer": "metal1"},
    {
        "layout": _document(RECTANGLE, {"layer": "metal2", "vertices": [[0, 0], [10, 10], [0, 10], [10, 0]]}),
        "layer": "metal1",
    },
    {"layout": _document(DEGENERATE)},
    {"layout": _document(L_SHAPE, U_SHAPE, RECTANGLE)},
    {"layout": _document(RECTANGLE), "layer": 5},
    {"layout": _document(RECTANGLE), "colors": 1},
    {"layout": _document()},
    {"layout": _document(RECTANGLE), "layer": "metal9"},
    {"layout": {"shapes": [{"layer": "metal1", "vertices": RECTANGLE, "id": 99}], "name": 7}},
]


class TestPackedDecodeMatchesReference:
    def test_literal_corpus(self):
        """The corpus exercises both outcomes and the worker-side refusal."""
        outcomes = [
            assert_same_decode(payload, where=f"literal {index}")[0]
            for index, payload in enumerate(LITERAL_CORPUS)
        ]
        assert outcomes.count("refused") == 7
        job = decode_decompose_request({"layout": _document(DEGENERATE)})
        with pytest.raises(ReproError, match="produced no area"):
            job["outlines"].rect_rows()

    @pytest.mark.parametrize("seed", [1, 3, 5, 7])
    def test_field_mutants(self, seed):
        document = _augmented_c432()
        assert_same_decode({"layout": document}, where="unmutated")
        for index, mutant in enumerate(_field_mutants(document, seed=seed, count=300)):
            assert_same_decode({"layout": mutant}, where=f"seed {seed} mutant {index}")

    def test_gds_stream_mutants(self):
        gds = _load_test_gds()
        body = gds._c432_gds()
        assert_same_decode({"gds_b64": base64.b64encode(body).decode("ascii")})
        for seed, count in ((1, 150), (2, 50), (3, 150), (4, 50), (5, 150), (6, 50), (7, 150)):
            for index, mutant in enumerate(gds._mutants(body, seed=seed, count=count)):
                payload = {"gds_b64": base64.b64encode(mutant).decode("ascii")}
                assert_same_decode(payload, where=f"seed {seed} mutant {index}")


    def test_gds_path_beyond_the_coordinate_range(self):
        """A PATH widened past the signed 32-bit range: both decoders refuse
        it with the same error."""
        decision, message = assert_same_decode(
            {"gds_b64": base64.b64encode(_wide_path_gds()).decode("ascii")}
        )
        assert decision == "refused"
        assert message == (
            "invalid 'gds_b64' GDSII payload: bad PATH outline: "
            + OUT_OF_RANGE_MESSAGE
        )


class TestOneConstructionBody:
    def test_outlines_build_the_layout_graph(self):
        """A Layout and its packed outlines give the same construction."""
        layout = load_circuit("C432", scale=0.1)
        layout.add_polygon(Polygon.from_points([(x + 5000, y) for x, y in L_SHAPE]), "metal1")
        layout.add_rect_xy(0, 0, 40, 40, layer="poly")
        layout.add_polygon(Polygon.from_points([(x + 5000, y + 400) for x, y in U_SHAPE]), "metal1")
        layer = "metal1"
        outlines = PackedLayout.from_layout(layout).outlines(layer)
        direct = build_decomposition_graph(layout, layer)
        packed = build_decomposition_graph(outlines, layer)
        assert packed.fragments == direct.fragments
        assert packed.shape_vertices == direct.shape_vertices
        assert packed.graph.conflict_edges() == direct.graph.conflict_edges()
        assert packed.graph.stitch_edges() == direct.graph.stitch_edges()
        assert packed.graph.friend_edges() == direct.graph.friend_edges()
        assert [packed.graph.vertex_data(v) for v in packed.graph.vertices()] == [
            direct.graph.vertex_data(v) for v in direct.graph.vertices()
        ]
        assert direct.graph.stitch_edges(), "the layout should be split somewhere"

    def test_masks_are_the_mask_layout_document(self):
        layout = Layout.from_dict(_document(L_SHAPE, U_SHAPE, RECTANGLE))
        layout.add_rect_xy(600, 0, 1400, 20)
        layout.add_rect_xy(600, 60, 1400, 80)
        result = Decomposer(build_options(4, "linear")).decompose(layout, layer="metal1")
        payload = result_to_payload("shapes", "metal1", result)
        expected = {**result.to_mask_layout().to_dict(), "format": FORMAT_MARKER}
        assert payload["masks"] == expected


class TestWorkerRefusal:
    def test_degenerate_outline_is_a_422(self):
        config = ServerConfig(port=0, workers=1, force_inline_pool=True)
        with ServerThread(config) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            layout = Layout.from_dict(_document(DEGENERATE))
            with pytest.raises(ServiceError) as caught:
                client.decompose(layout, algorithm="linear")
        assert caught.value.status == 422
        assert "polygon decomposition produced no area" in str(caught.value)


class TestFrontDoorRefusal:
    def test_gds_path_beyond_the_coordinate_range_is_a_400(self):
        config = ServerConfig(port=0, workers=1, force_inline_pool=True)
        with ServerThread(config) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            with pytest.raises(ServiceError) as caught:
                client.decompose(gds_bytes=_wide_path_gds(), algorithm="linear")
            assert client.stats()["pool"]["submitted"] == 0
        assert caught.value.status == 400
        assert OUT_OF_RANGE_MESSAGE in str(caught.value)
