"""Unit tests for the GDSII stream reader/writer."""

import random
import struct

import pytest

from repro.errors import LayoutIOError
from repro.geometry.layout import Layout
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.io.gds import (
    _decode_real8,
    _encode_real8,
    parse_gds,
    read_gds,
    write_gds,
)


class TestReal8:
    @pytest.mark.parametrize("value", [0.0, 1.0, -1.0, 1e-9, 2.5e-3, 123456.0, -0.001])
    def test_round_trip(self, value):
        decoded = _decode_real8(_encode_real8(value))
        assert decoded == pytest.approx(value, rel=1e-12, abs=1e-300)

    def test_bad_length_raises(self):
        with pytest.raises(LayoutIOError):
            _decode_real8(b"\x00\x00")


class TestGdsRoundTrip:
    def _sample_layout(self) -> Layout:
        layout = Layout(name="SAMPLE")
        layout.add_rect(Rect(0, 0, 100, 20), layer="metal1")
        layout.add_rect(Rect(0, 60, 100, 80), layer="metal1")
        layout.add_polygon(
            Polygon.from_points(
                [(200, 0), (260, 0), (260, 40), (230, 40), (230, 90), (200, 90)]
            ),
            layer="metal2",
        )
        return layout

    def test_round_trip_shape_count(self, tmp_path):
        layout = self._sample_layout()
        path = tmp_path / "sample.gds"
        write_gds(layout, path)
        loaded = read_gds(path, layer_map={1: "metal1", 2: "metal2"})
        assert len(loaded) == len(layout)
        assert loaded.name == "SAMPLE"

    def test_round_trip_geometry(self, tmp_path):
        layout = self._sample_layout()
        path = tmp_path / "sample.gds"
        write_gds(layout, path)
        loaded = read_gds(path, layer_map={1: "metal1", 2: "metal2"})
        original_areas = sorted(s.polygon.area for s in layout)
        loaded_areas = sorted(s.polygon.area for s in loaded)
        assert original_areas == loaded_areas
        original_bbox = layout.bbox()
        assert loaded.bbox() == original_bbox

    def test_round_trip_layers(self, tmp_path):
        layout = self._sample_layout()
        path = tmp_path / "sample.gds"
        write_gds(layout, path, layer_numbers={"metal1": 7, "metal2": 8})
        loaded = read_gds(path, layer_map={7: "metal1", 8: "metal2"})
        assert loaded.layers() == ["metal1", "metal2"]
        assert loaded.count_on_layer("metal1") == 2

    def test_unmapped_layer_gets_default_name(self, tmp_path):
        layout = Layout(name="X")
        layout.add_rect(Rect(0, 0, 10, 10), layer="metal1")
        path = tmp_path / "x.gds"
        write_gds(layout, path, layer_numbers={"metal1": 42})
        loaded = read_gds(path)
        assert loaded.layers() == ["gds42"]

    def test_units_round_trip(self, tmp_path):
        layout = Layout(name="U", dbu_per_nm=1.0)
        layout.add_rect(Rect(0, 0, 10, 10))
        path = tmp_path / "u.gds"
        write_gds(layout, path)
        loaded = read_gds(path)
        assert loaded.dbu_per_nm == pytest.approx(1.0, rel=1e-6)


class TestGdsErrors:
    def test_truncated_stream_raises(self, tmp_path):
        layout = Layout(name="T")
        layout.add_rect(Rect(0, 0, 10, 10))
        path = tmp_path / "t.gds"
        write_gds(layout, path)
        data = path.read_bytes()
        bad = tmp_path / "bad.gds"
        bad.write_bytes(data[: len(data) - 7] + b"\xff")
        with pytest.raises(LayoutIOError):
            read_gds(bad)

    def test_empty_file_gives_empty_layout(self, tmp_path):
        path = tmp_path / "empty.gds"
        path.write_bytes(b"")
        layout = read_gds(path)
        assert len(layout) == 0

    @pytest.mark.parametrize("length", [3, 9])
    def test_odd_integer_payload_raises(self, length):
        """An INT16/INT32 record with a ragged payload is malformed, not a crash."""
        record = struct.pack(">HBB", length + 4, 0x0D, 0x02) + b"\x00" * length
        with pytest.raises(LayoutIOError, match="INT16"):
            parse_gds(record)

    def test_record_running_past_the_end_raises(self):
        with pytest.raises(LayoutIOError, match="record length"):
            parse_gds(struct.pack(">HBB", 40, 0x00, 0x02) + b"\x00\x01")

    def test_element_record_with_wrong_data_type_raises(self):
        from repro.io import gds as g

        records = [
            g._encode_record(g.BOUNDARY, 0x00, b""),
            g._encode_record(g.LAYER, 0x06, "x"),
        ]
        with pytest.raises(LayoutIOError, match="data type"):
            parse_gds(b"".join(records))


def _c432_gds() -> bytes:
    from repro.bench.circuits import load_circuit

    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        path = f"{scratch}/c432.gds"
        write_gds(load_circuit("C432", scale=0.25), path)
        with open(path, "rb") as handle:
            return handle.read()


def _mutants(body: bytes, seed: int, count: int):
    """``count`` copies of ``body`` with 1-4 bytes overwritten at random."""
    rng = random.Random(seed)
    for _ in range(count):
        mutant = bytearray(body)
        for _ in range(rng.randint(1, 4)):
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        yield bytes(mutant)


class TestMutatedStreams:
    """Seeded byte mutations never escape as anything but the documented error."""

    @pytest.mark.parametrize("seed", [1, 3, 5, 7])
    def test_every_mutant_parses_or_raises_layout_io_error(self, seed):
        for index, mutant in enumerate(_mutants(_c432_gds(), seed=seed, count=150)):
            try:
                assert isinstance(parse_gds(mutant), Layout)
            except LayoutIOError:
                pass
            except Exception as exc:  # pragma: no cover - the regression
                pytest.fail(f"mutant {index} escaped as {exc!r}")

    @pytest.mark.parametrize("seed", [2, 4, 6])
    def test_every_mutant_upload_succeeds_or_is_a_protocol_error(self, seed):
        import base64

        from repro.service.protocol import ProtocolError, parse_decompose_request

        for index, mutant in enumerate(_mutants(_c432_gds(), seed=seed, count=50)):
            payload = {"gds_b64": base64.b64encode(mutant).decode("ascii")}
            try:
                job = parse_decompose_request(payload)
            except ProtocolError:
                continue
            except Exception as exc:  # pragma: no cover - the regression
                pytest.fail(f"mutant {index} escaped as {exc!r}")
            assert job["name"] == "gds-upload"

    def test_unnamed_stream_takes_the_file_stem(self, tmp_path):
        from repro.io import gds as g

        records = [
            g._encode_record(g.BOUNDARY, 0x00, b""),
            g._encode_record(g.LAYER, 0x02, [1]),
            g._encode_record(g.XY, 0x03, [0, 0, 10, 0, 10, 10, 0, 10, 0, 0]),
            g._encode_record(g.ENDEL, 0x00, b""),
        ]
        path = tmp_path / "cellA.gds"
        path.write_bytes(b"".join(records))
        assert read_gds(path).name == "cellA"
        assert parse_gds(path.read_bytes()).name == "layout"
        assert len(parse_gds(path.read_bytes())) == 1

    def test_bytes_and_file_entry_points_agree(self, tmp_path):
        body = _c432_gds()
        path = tmp_path / "c432.gds"
        path.write_bytes(body)
        from_file = read_gds(path)
        from_bytes = parse_gds(body)
        assert from_file.name == from_bytes.name
        assert [s.polygon.vertices for s in from_file] == [
            s.polygon.vertices for s in from_bytes
        ]


class TestGdsPath:
    def test_path_element_expanded_to_rectangles(self, tmp_path):
        # Hand-build a tiny GDS with a PATH element.
        from repro.io import gds as g

        records = [
            g._encode_record(g.HEADER, 0x02, [600]),
            g._encode_record(g.BGNLIB, 0x02, [2014, 6, 1, 0, 0, 0] * 2),
            g._encode_record(g.LIBNAME, 0x06, "LIB"),
            g._encode_record(g.UNITS, 0x05, [1e-3, 1e-9]),
            g._encode_record(g.BGNSTR, 0x02, [2014, 6, 1, 0, 0, 0] * 2),
            g._encode_record(g.STRNAME, 0x06, "TOP"),
            g._encode_record(g.PATH, 0x00, b""),
            g._encode_record(g.LAYER, 0x02, [1]),
            g._encode_record(g.DATATYPE, 0x02, [0]),
            g._encode_record(g.WIDTH, 0x03, [20]),
            g._encode_record(g.XY, 0x03, [0, 0, 200, 0]),
            g._encode_record(g.ENDEL, 0x00, b""),
            g._encode_record(g.ENDSTR, 0x00, b""),
            g._encode_record(g.ENDLIB, 0x00, b""),
        ]
        path = tmp_path / "path.gds"
        path.write_bytes(b"".join(records))
        layout = read_gds(path, layer_map={1: "metal1"})
        assert len(layout) == 1
        shape = next(iter(layout))
        assert shape.polygon.bbox == Rect(-10, -10, 210, 10)
