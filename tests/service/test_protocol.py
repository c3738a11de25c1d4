"""Unit tests for the service wire schema (no sockets involved)."""

from __future__ import annotations

import base64

import pytest

import copy
import random

from repro.bench.circuits import load_circuit
from repro.bench.factory import wire_row_layout
from repro.core.decomposer import Decomposer
from repro.io.gds import write_gds
from repro.service.protocol import (
    ProtocolError,
    build_options,
    canonical_json,
    parse_batch_request,
    parse_decompose_request,
    parse_layout,
    result_to_payload,
    run_job,
)

pytestmark = pytest.mark.service


@pytest.fixture
def layout():
    return wire_row_layout(num_wires=3, wire_length=400)


class TestParseLayout:
    def test_json_layout_roundtrip(self, layout):
        name, parsed = parse_layout({"layout": layout.to_dict(), "name": "wires"})
        assert name == "wires"
        assert parsed.to_dict() == layout.to_dict()

    def test_gds_b64_roundtrip(self, layout, tmp_path):
        gds = tmp_path / "wires.gds"
        write_gds(layout, gds)
        encoded = base64.b64encode(gds.read_bytes()).decode("ascii")
        name, parsed = parse_layout({"gds_b64": encoded})
        assert name == "gds-upload"
        assert len(parsed) == len(layout)

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # neither source
            {"layout": {}, "gds_b64": "AAAA"},  # both sources
            {"layout": "not a dict"},
            {"layout": {"format": "wrong-marker"}},
            {"gds_b64": "!!! not base64 !!!"},
        ],
    )
    def test_bad_layout_payloads(self, payload):
        with pytest.raises(ProtocolError):
            parse_layout(payload)

    def test_non_string_shape_layer_is_protocol_error(self, layout):
        data = layout.to_dict()
        data["shapes"][0]["layer"] = True
        with pytest.raises(ProtocolError, match="layer must be a string"):
            parse_decompose_request({"layout": data})


#: Replacement values for a mutated field: every JSON type, edge numbers.
_FIELD_VALUES = [
    None, True, False, 0, -1, 7, 1.5, 10**30,
    "", "x", [], {}, [1, 2], [[0, 0]], {"x": 1},
]


def _field_paths(node, prefix=()):
    """Every key/index path into a JSON document, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def _field_mutants(document, seed: int, count: int):
    """``count`` copies of ``document`` with one field replaced or deleted."""
    rng = random.Random(seed)
    paths = list(_field_paths(document))
    for _ in range(count):
        mutant = copy.deepcopy(document)
        path = rng.choice(paths)
        holder = mutant
        for key in path[:-1]:
            holder = holder[key]
        if isinstance(holder, dict) and rng.random() < 0.1:
            del holder[path[-1]]
        else:
            holder[path[-1]] = rng.choice(_FIELD_VALUES)
        yield mutant


class TestMutatedLayouts:
    """Seeded field mutations of a JSON layout never escape as anything but
    :class:`ProtocolError` (which the server answers with a 400)."""

    @pytest.mark.parametrize("seed", [1, 3, 5, 7])
    def test_every_mutant_parses_or_raises_protocol_error(self, seed):
        document = load_circuit("C432", scale=0.05).to_dict()
        for index, mutant in enumerate(_field_mutants(document, seed=seed, count=300)):
            try:
                job = parse_decompose_request({"layout": mutant})
            except ProtocolError:
                continue
            except Exception as exc:  # pragma: no cover - the regression
                pytest.fail(f"mutant {index} escaped as {exc!r}")
            assert isinstance(job["layer"], str)

    @pytest.mark.parametrize(
        "value",
        [float("inf"), -float("inf"), float("nan"), 1e300, -1e300, 2**70],
        ids=["inf", "-inf", "nan", "1e300", "-1e300", "2**70"],
    )
    def test_out_of_range_coordinates_are_protocol_errors(self, value):
        """Moving one edge of a shape to a coordinate no GDSII XY record can
        hold keeps the outline rectilinear, and is still a 400: never an
        escaped OverflowError (a 500), nor a layout whose coordinates reach
        the int64 construction."""
        document = load_circuit("C432", scale=0.05).to_dict()
        rng = random.Random(11)
        for _ in range(40):
            mutant = copy.deepcopy(document)
            shape = rng.choice(mutant["shapes"])
            axis = rng.randrange(2)
            moved = rng.choice(shape["vertices"])[axis]
            shape["vertices"] = [
                [value if point[k] == moved and k == axis else point[k] for k in (0, 1)]
                for point in shape["vertices"]
            ]
            with pytest.raises(ProtocolError, match="vertex coordinate"):
                parse_decompose_request({"layout": mutant})


class TestParseRequests:
    def test_defaults_applied(self, layout):
        job = parse_decompose_request({"layout": layout.to_dict()})
        assert job["colors"] == 4
        assert job["algorithm"] == "sdp-backtrack"
        assert job["layer"] == layout.layers()[0]

    def test_unknown_algorithm_rejected(self, layout):
        with pytest.raises(ProtocolError, match="unknown algorithm"):
            parse_decompose_request(
                {"layout": layout.to_dict(), "algorithm": "quantum"}
            )

    def test_bad_colors_rejected(self, layout):
        with pytest.raises(ProtocolError, match="colors"):
            parse_decompose_request({"layout": layout.to_dict(), "colors": "four"})

    def test_out_of_range_colors_is_protocol_error(self, layout):
        """ConfigurationError from the options layer must surface as a 400."""
        with pytest.raises(ProtocolError):
            parse_decompose_request({"layout": layout.to_dict(), "colors": 1})

    def test_batch_defaults_propagate(self, layout):
        jobs = parse_batch_request(
            {
                "layouts": [
                    {"layout": layout.to_dict(), "name": "a"},
                    {"layout": layout.to_dict(), "name": "b", "colors": 5},
                ],
                "algorithm": "linear",
                "colors": 4,
            }
        )
        assert [job["name"] for job in jobs] == ["a", "b"]
        assert [job["colors"] for job in jobs] == [4, 5]  # item overrides batch
        assert all(job["algorithm"] == "linear" for job in jobs)

    def test_batch_reports_bad_item_position(self, layout):
        with pytest.raises(ProtocolError, match=r"layouts\[1\]"):
            parse_batch_request(
                {"layouts": [{"layout": layout.to_dict()}, {"bogus": 1}]}
            )

    def test_batch_requires_layouts(self):
        with pytest.raises(ProtocolError, match="layouts"):
            parse_batch_request({"layouts": []})

    def test_batch_names_only_deduped_on_collision(self, layout):
        jobs = parse_batch_request(
            {
                "layouts": [
                    {"layout": layout.to_dict(), "name": "adder"},
                    {"layout": layout.to_dict(), "name": "mult"},
                    {"layout": layout.to_dict(), "name": "adder"},
                ]
            }
        )
        assert [job["name"] for job in jobs] == ["adder", "mult", "adder#1"]


class TestResponses:
    def test_run_job_matches_direct_decomposer(self, layout):
        job = parse_decompose_request(
            {"layout": layout.to_dict(), "algorithm": "linear", "name": "wires"}
        )
        served = run_job(job, lambda options: Decomposer(options))
        direct = Decomposer(build_options(4, "linear")).decompose(
            layout, layer=job["layer"]
        )
        expected = result_to_payload("wires", job["layer"], direct)
        assert canonical_json(served) == canonical_json(expected)

    def test_canonical_json_ignores_timing(self, layout):
        job = parse_decompose_request({"layout": layout.to_dict(), "algorithm": "linear"})
        payload = run_job(job, lambda options: Decomposer(options))
        jittered = dict(payload, seconds=payload["seconds"] + 123.0)
        assert canonical_json(payload) == canonical_json(jittered)
        assert canonical_json(payload) != canonical_json(dict(payload, conflicts=99))
