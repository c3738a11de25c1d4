"""Unit tests for stitch candidate generation and feature splitting."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry.rect import Rect, rect_array
from repro.graph.stitch import (
    StitchCandidate,
    find_stitch_candidates,
    split_feature,
    stitch_positions,
)


def horizontal_wire(length=400, width=20, y=0):
    return [Rect(0, y, length, y + width)]


class TestFindStitchCandidates:
    def test_no_neighbours_gives_middle_candidate(self):
        candidates = find_stitch_candidates(
            horizontal_wire(), [], min_fragment_length=40
        )
        assert len(candidates) == 1
        assert candidates[0].horizontal is True
        assert 40 <= candidates[0].position <= 360

    def test_short_feature_has_no_candidates(self):
        candidates = find_stitch_candidates(
            [Rect(0, 0, 60, 20)], [], min_fragment_length=40
        )
        assert candidates == []

    def test_candidate_avoids_neighbour_projection(self):
        """A neighbour covering the middle pushes the stitch out of that span."""
        wire = horizontal_wire(length=400)
        neighbour = [Rect(150, 60, 250, 80)]  # projects onto [150, 250]
        candidates = find_stitch_candidates(
            wire, [neighbour], min_fragment_length=40
        )
        assert candidates
        for cand in candidates:
            assert not 150 <= cand.position <= 250

    def test_fully_covered_feature_has_no_candidates(self):
        wire = horizontal_wire(length=400)
        neighbour = [Rect(-10, 60, 410, 80)]
        assert (
            find_stitch_candidates(wire, [neighbour], min_fragment_length=40) == []
        )

    def test_max_candidates_respected(self):
        wire = horizontal_wire(length=2000)
        neighbours = [[Rect(400 * i, 60, 400 * i + 100, 80)] for i in range(1, 5)]
        candidates = find_stitch_candidates(
            wire, neighbours, min_fragment_length=40, max_candidates=2
        )
        assert len(candidates) <= 2

    def test_vertical_feature_uses_vertical_axis(self):
        wire = [Rect(0, 0, 20, 400)]
        candidates = find_stitch_candidates(wire, [], min_fragment_length=40)
        assert candidates and candidates[0].horizontal is False

    def test_candidates_sorted_by_position(self):
        wire = horizontal_wire(length=2000)
        neighbours = [[Rect(900, 60, 1100, 80)]]
        candidates = find_stitch_candidates(
            wire, neighbours, min_fragment_length=40, max_candidates=2
        )
        positions = [c.position for c in candidates]
        assert positions == sorted(positions)


class TestStitchPositions:
    """The all-features routine :func:`find_stitch_candidates` wraps."""

    @staticmethod
    def _tied_features(count):
        """``count`` wires [0, 1500] whose neighbours leave five gaps of
        widths 150, 100, 150, 100, 150 (midpoints 175, 425, 675, 925, 1175)."""
        features = rect_array(
            [Rect(0, 200 * i, 1500, 200 * i + 20) for i in range(count)]
        )
        covers = [
            (0, 100), (250, 375), (475, 600), (750, 875), (975, 1100), (1250, 1500)
        ]
        neighbours = rect_array(
            [
                Rect(lo, 200 * i + 60, hi, 200 * i + 80)
                for i in range(count)
                for lo, hi in covers
            ]
        )
        owners = np.repeat(np.arange(count), len(covers))
        return features, owners, neighbours

    @pytest.mark.parametrize(
        "keep, expected",
        [(1, [175]), (2, [175, 675]), (4, [175, 425, 675, 1175])],
    )
    def test_width_ties_go_to_the_lower_position(self, keep, expected):
        """Enough tied gaps, out of key order, that an unstable sort would
        reorder them."""
        features, owners, neighbours = self._tied_features(60)
        found, positions, horizontal = stitch_positions(
            features, owners, neighbours, min_fragment_length=1, max_candidates=keep
        )
        assert horizontal.all()
        assert found.tolist() == np.repeat(np.arange(60), keep).tolist()
        assert positions.tolist() == expected * 60

    def test_feature_without_projections_is_cut_in_the_middle(self):
        found, positions, _ = stitch_positions(
            rect_array([Rect(0, 0, 20, 400)]),
            np.zeros(0, dtype=np.int64),
            rect_array([]),
            min_fragment_length=40,
        )
        assert found.tolist() == [0] and positions.tolist() == [200]

    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigurationError):
            find_stitch_candidates(horizontal_wire(), [], 40, projection_margin=-1)


class TestSplitFeature:
    def test_no_candidates_single_fragment(self):
        wire = horizontal_wire()
        fragments = split_feature(wire, [])
        assert fragments == [wire]

    def test_single_split_two_fragments(self):
        wire = horizontal_wire(length=400)
        fragments = split_feature(wire, [StitchCandidate(200, True)])
        assert len(fragments) == 2
        total_area = sum(r.area for frag in fragments for r in frag)
        assert total_area == 400 * 20

    def test_two_splits_three_fragments(self):
        wire = horizontal_wire(length=600)
        candidates = [StitchCandidate(200, True), StitchCandidate(400, True)]
        fragments = split_feature(wire, candidates)
        assert len(fragments) == 3
        widths = sorted(frag[0].width for frag in fragments)
        assert widths == [200, 200, 200]

    def test_vertical_split(self):
        wire = [Rect(0, 0, 20, 400)]
        fragments = split_feature(wire, [StitchCandidate(100, False)])
        assert len(fragments) == 2
        assert fragments[0][0].yh == 100
        assert fragments[1][0].yl == 100

    def test_fragments_preserve_area_for_l_shape(self):
        l_shape = [Rect(0, 0, 300, 20), Rect(0, 20, 20, 200)]
        fragments = split_feature(l_shape, [StitchCandidate(150, True)])
        total_area = sum(r.area for frag in fragments for r in frag)
        assert total_area == sum(r.area for r in l_shape)
