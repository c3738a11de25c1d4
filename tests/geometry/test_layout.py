"""Unit tests for repro.geometry.layout."""

import pytest

from repro.errors import LayoutError, LayoutIOError
from repro.geometry.layout import Layout, Shape
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect


class TestLayoutMutation:
    def test_add_rect_assigns_ids(self):
        layout = Layout()
        s0 = layout.add_rect(Rect(0, 0, 10, 10))
        s1 = layout.add_rect(Rect(20, 0, 30, 10))
        assert (s0.shape_id, s1.shape_id) == (0, 1)
        assert len(layout) == 2

    def test_add_rect_xy(self):
        layout = Layout()
        shape = layout.add_rect_xy(0, 0, 10, 20, layer="contact")
        assert shape.layer == "contact"
        assert shape.bbox == Rect(0, 0, 10, 20)

    def test_layers_tracked(self):
        layout = Layout()
        layout.add_rect(Rect(0, 0, 10, 10), layer="metal1")
        layout.add_rect(Rect(0, 20, 10, 30), layer="metal2")
        layout.add_rect(Rect(0, 40, 10, 50), layer="metal1")
        assert layout.layers() == ["metal1", "metal2"]
        assert layout.count_on_layer("metal1") == 2
        assert layout.count_on_layer("metal2") == 1

    def test_remove_shape(self):
        layout = Layout()
        shape = layout.add_rect(Rect(0, 0, 10, 10))
        layout.remove_shape(shape.shape_id)
        assert len(layout) == 0
        assert layout.count_on_layer("metal1") == 0

    def test_remove_unknown_raises(self):
        with pytest.raises(LayoutError):
            Layout().remove_shape(3)


class TestLayoutQueries:
    def test_shape_lookup(self):
        layout = Layout()
        shape = layout.add_rect(Rect(0, 0, 10, 10))
        assert layout.shape(shape.shape_id) is shape
        assert shape.shape_id in layout

    def test_shape_unknown_raises(self):
        with pytest.raises(LayoutError):
            Layout().shape(0)

    def test_bbox(self):
        layout = Layout()
        layout.add_rect(Rect(0, 0, 10, 10))
        layout.add_rect(Rect(50, 30, 70, 90))
        assert layout.bbox() == Rect(0, 0, 70, 90)

    def test_bbox_per_layer(self):
        layout = Layout()
        layout.add_rect(Rect(0, 0, 10, 10), layer="a")
        layout.add_rect(Rect(100, 100, 110, 110), layer="b")
        assert layout.bbox("a") == Rect(0, 0, 10, 10)

    def test_bbox_empty_raises(self):
        with pytest.raises(LayoutError):
            Layout().bbox()

    def test_statistics(self):
        layout = Layout()
        layout.add_rect(Rect(0, 0, 10, 10))
        layout.add_rect(Rect(20, 0, 30, 10))
        stats = layout.statistics()
        assert stats["shapes"] == 2
        assert stats["area"] == 200
        assert 0 < stats["density"] <= 1

    def test_statistics_empty(self):
        assert Layout().statistics()["shapes"] == 0


class TestLayoutSerialisation:
    def test_round_trip(self):
        layout = Layout(name="demo", dbu_per_nm=2.0)
        layout.add_rect(Rect(0, 0, 10, 10), layer="metal1")
        layout.add_polygon(
            Polygon.from_points([(0, 0), (40, 0), (40, 20), (20, 20), (20, 60), (0, 60)]),
            layer="metal2",
        )
        clone = Layout.from_dict(layout.to_dict())
        assert clone.name == "demo"
        assert clone.dbu_per_nm == 2.0
        assert len(clone) == len(layout)
        assert clone.layers() == layout.layers()
        for original, copied in zip(layout, clone):
            assert original.polygon.vertices == copied.polygon.vertices

    @pytest.mark.parametrize("layer", [True, 1, None, 2.5, ["metal1"], {"name": "m1"}])
    def test_non_string_layer_rejected(self, layer):
        layout = Layout()
        layout.add_rect(Rect(0, 0, 10, 10), layer="metal1")
        layout.add_rect(Rect(20, 0, 30, 10), layer="metal2")
        data = layout.to_dict()
        data["shapes"][1]["layer"] = layer
        with pytest.raises(LayoutIOError, match="layer must be a string"):
            Layout.from_dict(data)


class TestCoordinateRange:
    """JSON coordinates must fit the signed 32-bit range of GDSII XY records."""

    @staticmethod
    def _square_at(x):
        return {"shapes": [{"vertices": [[x, 0], [x, 10], [0, 10], [0, 0]]}]}

    @pytest.mark.parametrize(
        "value",
        [float("inf"), -float("inf"), float("nan"), 1e300, -1e300, 2**70,
         2**31, -(2**31) - 1],
    )
    def test_out_of_range_coordinate_rejected(self, value):
        with pytest.raises(LayoutIOError):
            Layout.from_dict(self._square_at(value))

    @pytest.mark.parametrize("value", [2**31 - 1, -(2**31), 12.4])
    def test_range_ends_accepted(self, value):
        layout = Layout.from_dict(self._square_at(value))
        assert layout.bbox().width == abs(round(value))
