"""Unit tests for the decomposer options."""

import pytest

from repro.core.options import (
    AlgorithmOptions,
    DecomposerOptions,
    DivisionOptions,
    PENTUPLE_MIN_COLORING_DISTANCE,
    QUADRUPLE_MIN_COLORING_DISTANCE,
)
from repro.errors import ConfigurationError


class TestTechnologyConstants:
    def test_paper_values(self):
        """Section 6: min_s is 80 nm for QP and 110 nm for pentuple patterning."""
        assert QUADRUPLE_MIN_COLORING_DISTANCE == 80
        assert PENTUPLE_MIN_COLORING_DISTANCE == 110


class TestDecomposerOptions:
    def test_defaults_validate(self):
        DecomposerOptions().validate()

    def test_quadruple_preset(self):
        options = DecomposerOptions.for_quadruple_patterning("linear")
        options.validate()
        assert options.num_colors == 4
        assert options.algorithm == "linear"
        assert options.construction.min_coloring_distance == 80

    def test_pentuple_preset(self):
        options = DecomposerOptions.for_pentuple_patterning()
        options.validate()
        assert options.num_colors == 5
        assert options.construction.min_coloring_distance == 110

    def test_k_patterning_preset_matches_known_values(self):
        assert (
            DecomposerOptions.for_k_patterning(4).construction.min_coloring_distance
            == QUADRUPLE_MIN_COLORING_DISTANCE
        )
        assert (
            DecomposerOptions.for_k_patterning(5).construction.min_coloring_distance
            == PENTUPLE_MIN_COLORING_DISTANCE
        )
        assert (
            DecomposerOptions.for_k_patterning(6).construction.min_coloring_distance
            > PENTUPLE_MIN_COLORING_DISTANCE
        )

    @pytest.mark.parametrize("algorithm", DecomposerOptions.KNOWN_ALGORITHMS)
    def test_named_presets_are_the_general_preset(self, algorithm):
        """The paper's QP and pentuple settings are K=4 and K=5 of the
        general mapping, field for field, under every algorithm."""
        assert DecomposerOptions.for_k_patterning(
            4, algorithm
        ) == DecomposerOptions.for_quadruple_patterning(algorithm)
        assert DecomposerOptions.for_k_patterning(
            5, algorithm
        ) == DecomposerOptions.for_pentuple_patterning(algorithm)

    def test_k_patterning_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            DecomposerOptions.for_k_patterning(1)

    def test_unknown_algorithm_rejected(self):
        options = DecomposerOptions(algorithm="quantum")
        with pytest.raises(ConfigurationError):
            options.validate()

    def test_bad_num_colors_rejected(self):
        with pytest.raises(ConfigurationError):
            DecomposerOptions(num_colors=1).validate()

    def test_bad_threshold_rejected(self):
        options = DecomposerOptions()
        options.algorithm_options.sdp_merge_threshold = 1.5
        with pytest.raises(ConfigurationError):
            options.validate()

    def test_negative_alpha_rejected(self):
        options = DecomposerOptions()
        options.algorithm_options.alpha = -0.5
        with pytest.raises(ConfigurationError):
            options.validate()

    def test_with_algorithm_copy(self):
        options = DecomposerOptions.for_quadruple_patterning("ilp")
        other = options.with_algorithm("linear")
        assert other.algorithm == "linear"
        assert options.algorithm == "ilp"
        assert other.num_colors == options.num_colors


class TestDivisionOptions:
    def test_all_disabled(self):
        division = DivisionOptions().all_disabled()
        assert not division.independent_components
        assert not division.low_degree_removal
        assert not division.biconnected_components
        assert not division.ghtree_cut_removal

    def test_defaults_enable_everything(self):
        division = DivisionOptions()
        assert division.independent_components
        assert division.low_degree_removal
        assert division.biconnected_components
        assert division.ghtree_cut_removal
