"""User-facing configuration of the decomposition flow."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigurationError
from repro.graph.construction import ConstructionOptions

#: Conventional technology numbers used throughout the paper's evaluation:
#: 20 nm half pitch Metal1, 20 nm minimum width and spacing.
HALF_PITCH_NM = 20
MIN_WIDTH_NM = 20
MIN_SPACING_NM = 20

#: ``min_s`` used for quadruple patterning: 2*s_m + 2*w_m = 80 nm.
QUADRUPLE_MIN_COLORING_DISTANCE = 2 * MIN_SPACING_NM + 2 * MIN_WIDTH_NM
#: ``min_s`` used for pentuple patterning: 3*s_m + 2.5*w_m = 110 nm.
PENTUPLE_MIN_COLORING_DISTANCE = 3 * MIN_SPACING_NM + (5 * MIN_WIDTH_NM) // 2


@dataclass
class DivisionOptions:
    """Which graph-division techniques (Section 4) are enabled."""

    independent_components: bool = True
    low_degree_removal: bool = True
    biconnected_components: bool = True
    ghtree_cut_removal: bool = True
    #: Components at or below this size skip GH-tree division (the tree costs
    #: n-1 max-flows; tiny components are colored directly).
    ghtree_minimum_size: int = 8

    def all_disabled(self) -> "DivisionOptions":
        """Return a copy with every technique switched off (ablation helper)."""
        return DivisionOptions(
            independent_components=False,
            low_degree_removal=False,
            biconnected_components=False,
            ghtree_cut_removal=False,
        )


@dataclass
class AlgorithmOptions:
    """Parameters shared by the color-assignment algorithms."""

    #: Stitch weight in the objective (``alpha`` in Eq. 1-3); 0.1 in the paper.
    alpha: float = 0.1
    #: SDP merge threshold ``t_th`` of Algorithm 1; 0.9 in the paper.
    sdp_merge_threshold: float = 0.9
    #: Exact backtracking is attempted only on (merged) graphs up to this many
    #: nodes; larger graphs fall back to greedy mapping plus refinement.
    backtrack_node_limit: int = 24
    #: Hard node-expansion budget of the backtracking search.
    backtrack_expansion_limit: int = 500_000
    #: Wall-clock budget (seconds) for the ILP baseline; mirrors the paper's
    #: one-hour cap (scaled down because our components are smaller).
    ilp_time_limit: Optional[float] = 60.0
    #: Enable the color-friendly guidance in the linear color assignment.
    use_color_friendly: bool = True
    #: Enable peer selection (three orderings) in the linear color assignment.
    use_peer_selection: bool = True
    #: Enable the greedy post-refinement pass.
    use_post_refinement: bool = True


@dataclass
class DecomposerOptions:
    """Complete configuration of a decomposition run."""

    #: Number of masks K (4 for QPLD, 5 for pentuple patterning, ...).
    num_colors: int = 4
    #: Color-assignment algorithm: "ilp", "sdp-backtrack", "sdp-greedy",
    #: "linear", "backtrack" or "greedy".
    algorithm: str = "sdp-backtrack"
    construction: ConstructionOptions = field(default_factory=ConstructionOptions)
    division: DivisionOptions = field(default_factory=DivisionOptions)
    algorithm_options: AlgorithmOptions = field(default_factory=AlgorithmOptions)

    KNOWN_ALGORITHMS = (
        "ilp",
        "sdp-backtrack",
        "sdp-greedy",
        "linear",
        "backtrack",
        "greedy",
    )

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if self.num_colors < 2:
            raise ConfigurationError(f"num_colors must be >= 2, got {self.num_colors}")
        if self.algorithm not in self.KNOWN_ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; "
                f"expected one of {', '.join(self.KNOWN_ALGORITHMS)}"
            )
        self.construction.validate()
        if not 0.0 < self.algorithm_options.sdp_merge_threshold <= 1.0:
            raise ConfigurationError("sdp_merge_threshold must be in (0, 1]")
        if self.algorithm_options.alpha < 0:
            raise ConfigurationError("alpha must be non-negative")

    # --------------------------------------------------------- constructors
    @staticmethod
    def for_quadruple_patterning(algorithm: str = "sdp-backtrack") -> "DecomposerOptions":
        """Options matching the paper's quadruple-patterning experiments
        (``min_s`` = :data:`QUADRUPLE_MIN_COLORING_DISTANCE`)."""
        return DecomposerOptions.for_k_patterning(4, algorithm)

    @staticmethod
    def for_pentuple_patterning(algorithm: str = "sdp-backtrack") -> "DecomposerOptions":
        """Options matching the paper's pentuple-patterning experiments
        (``min_s`` = :data:`PENTUPLE_MIN_COLORING_DISTANCE`)."""
        return DecomposerOptions.for_k_patterning(5, algorithm)

    @staticmethod
    def for_k_patterning(
        num_colors: int, algorithm: str = "sdp-backtrack"
    ) -> "DecomposerOptions":
        """Options for general K-patterning (Section 5).

        The minimum coloring distance grows with K following the same
        construction as the paper's QP/pentuple settings:
        ``min_s = (K-2)*s_m + (K/2)*w_m`` — 80 nm at K=4 and 110 nm at K=5.
        The one preset mapping: every K-to-options path goes through here.
        """
        if num_colors < 2:
            raise ConfigurationError("num_colors must be >= 2")
        options = DecomposerOptions(num_colors=num_colors, algorithm=algorithm)
        min_s = (num_colors - 2) * MIN_SPACING_NM + (num_colors * MIN_WIDTH_NM) // 2
        options.construction.min_coloring_distance = max(min_s, MIN_SPACING_NM)
        options.construction.half_pitch = HALF_PITCH_NM
        return options

    def with_algorithm(self, algorithm: str) -> "DecomposerOptions":
        """Return a copy configured for a different color-assignment algorithm."""
        return replace(self, algorithm=algorithm)
