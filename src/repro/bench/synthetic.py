"""Synthetic Metal1 / contact layout generator.

The DAC'14 evaluation uses the scaled ISCAS Metal1 layers of [4, 8], which are
not redistributable.  This generator produces standard-cell-style layouts with
the same structural ingredients — rows of minimum-pitch horizontal routing
tracks, segmented wires, via/contact clusters, and occasional dense contact
arrays that create native conflicts — so the decomposition graphs exercise the
same code paths (dense K4/K5 neighbourhoods, stitch candidates, large
independent components).  Every generator is seeded and fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.options import MIN_SPACING_NM, MIN_WIDTH_NM
from repro.errors import ConfigurationError
from repro.geometry.layout import Layout
from repro.geometry.rect import Rect


@dataclass
class SyntheticSpec:
    """Parameters of one synthetic standard-cell-style layout.

    Attributes
    ----------
    name:
        Layout name (circuit name for the benchmark suite).
    rows:
        Number of cell rows.
    tracks_per_row:
        Horizontal routing tracks inside one row.
    row_length:
        Row length in nanometres.
    fill_rate:
        Fraction of each track occupied by wire segments (0..1).
    segment_length:
        (min, max) wire segment length in nanometres.
    gap_length:
        (min, max) gap between consecutive segments on a track.
    cluster_rate:
        Expected number of dense contact clusters per row; clusters are the
        main source of native conflicts.
    cluster_pitch:
        Centre-to-centre pitch of the contacts inside a cluster.
    wire_width / spacing:
        Track geometry; defaults follow the paper's 20 nm half-pitch node.
    row_gap:
        Vertical gap between rows (in addition to the track pitch).
    seed:
        RNG seed.
    """

    name: str = "synthetic"
    rows: int = 4
    tracks_per_row: int = 8
    row_length: int = 4000
    fill_rate: float = 0.55
    segment_length: Tuple[int, int] = (160, 600)
    gap_length: Tuple[int, int] = (60, 320)
    cluster_rate: float = 1.0
    cluster_pitch: int = MIN_WIDTH_NM + 2 * MIN_SPACING_NM
    wire_width: int = MIN_WIDTH_NM
    spacing: int = MIN_SPACING_NM
    row_gap: int = 3 * MIN_SPACING_NM
    seed: int = 1

    def validate(self) -> None:
        if self.rows <= 0 or self.tracks_per_row <= 0 or self.row_length <= 0:
            raise ConfigurationError("rows, tracks and row_length must be positive")
        if not 0.0 <= self.fill_rate <= 1.0:
            raise ConfigurationError("fill_rate must lie in [0, 1]")
        if self.segment_length[0] <= 0 or self.segment_length[0] > self.segment_length[1]:
            raise ConfigurationError("segment_length must be a positive (min, max) pair")
        if self.gap_length[0] < 0 or self.gap_length[0] > self.gap_length[1]:
            raise ConfigurationError("gap_length must be a non-negative (min, max) pair")

    def scaled(self, scale: float) -> "SyntheticSpec":
        """Return a copy whose feature count scales roughly by ``scale``.

        Rows and row length each shrink by ``sqrt(scale)`` so the layout keeps
        its aspect ratio and density while the total feature count tracks the
        requested factor.  Used to shrink the benchmark circuits for quick
        runs while keeping their relative sizes.
        """
        if scale <= 0:
            raise ConfigurationError("scale must be positive")
        axis = scale**0.5
        return SyntheticSpec(
            name=self.name,
            rows=max(1, int(round(self.rows * axis))),
            tracks_per_row=self.tracks_per_row,
            row_length=max(self.segment_length[1] * 2, int(round(self.row_length * axis))),
            fill_rate=self.fill_rate,
            segment_length=self.segment_length,
            gap_length=self.gap_length,
            cluster_rate=self.cluster_rate,
            cluster_pitch=self.cluster_pitch,
            wire_width=self.wire_width,
            spacing=self.spacing,
            row_gap=self.row_gap,
            seed=self.seed,
        )


def generate_layout(spec: SyntheticSpec, layer: str = "metal1") -> Layout:
    """Generate the layout described by ``spec``.

    Wires and contact clusters all land on ``layer`` (the decomposer operates
    on a single layer, matching the paper's Metal1 experiments).
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    layout = Layout(name=spec.name)

    pitch = spec.wire_width + spec.spacing
    row_height = spec.tracks_per_row * pitch
    for row in range(spec.rows):
        row_y = row * (row_height + spec.row_gap)
        _fill_row(layout, spec, rng, row_y, layer)
        _place_clusters(layout, spec, rng, row_y, row_height, layer)
    return layout


def _fill_row(
    layout: Layout,
    spec: SyntheticSpec,
    rng: np.random.Generator,
    row_y: int,
    layer: str,
) -> None:
    """Place segmented wires on every track of one row."""
    pitch = spec.wire_width + spec.spacing
    for track in range(spec.tracks_per_row):
        y = row_y + track * pitch
        x = int(rng.integers(0, spec.gap_length[1] + 1))
        while x < spec.row_length - spec.segment_length[0]:
            if rng.random() < spec.fill_rate:
                length = int(
                    rng.integers(spec.segment_length[0], spec.segment_length[1] + 1)
                )
                end = min(x + length, spec.row_length)
                if end - x >= spec.wire_width:
                    layout.add_rect(
                        Rect(x, y, end, y + spec.wire_width), layer=layer
                    )
                x = end
            gap = int(rng.integers(spec.gap_length[0], spec.gap_length[1] + 1))
            x += max(gap, spec.spacing)


def _place_clusters(
    layout: Layout,
    spec: SyntheticSpec,
    rng: np.random.Generator,
    row_y: int,
    row_height: int,
    layer: str,
) -> None:
    """Drop dense 2x2 or 2x3 contact clusters into the row.

    A cluster reproduces the Fig. 1 pattern: contacts at a pitch below the
    coloring distance, forming K4 (2x2) or denser cliques (2x3) in the
    decomposition graph — the native-conflict generators of the benchmarks.
    """
    expected = spec.cluster_rate
    count = int(rng.poisson(expected)) if expected > 0 else 0
    size = spec.wire_width
    for _ in range(count):
        columns = 2 if rng.random() < 0.7 else 3
        width_needed = (columns - 1) * spec.cluster_pitch + size
        max_x = spec.row_length - width_needed
        if max_x <= 0:
            continue
        x0 = int(rng.integers(0, max_x + 1))
        y0 = row_y + int(rng.integers(0, max(row_height - spec.cluster_pitch - size, 1)))
        for i in range(2):
            for j in range(columns):
                x = x0 + j * spec.cluster_pitch
                y = y0 + i * spec.cluster_pitch
                layout.add_rect(Rect(x, y, x + size, y + size), layer=layer)


def dense_contact_array(
    rows: int,
    columns: int,
    pitch: int = MIN_WIDTH_NM + 2 * MIN_SPACING_NM,
    size: int = MIN_WIDTH_NM,
    layer: str = "metal1",
    name: str = "contact-array",
) -> Layout:
    """Regular contact array — a worst-case, clique-rich workload."""
    if rows <= 0 or columns <= 0:
        raise ConfigurationError("rows and columns must be positive")
    layout = Layout(name=name)
    for i in range(rows):
        for j in range(columns):
            x = j * pitch
            y = i * pitch
            layout.add_rect(Rect(x, y, x + size, y + size), layer=layer)
    return layout


def random_rectangles(
    count: int,
    region: int = 4000,
    width_range: Tuple[int, int] = (MIN_WIDTH_NM, 4 * MIN_WIDTH_NM),
    seed: int = 7,
    layer: str = "metal1",
    name: str = "random-rects",
) -> Layout:
    """Uniformly scattered rectangles (property-test and fuzzing workload)."""
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    rng = np.random.default_rng(seed)
    layout = Layout(name=name)
    for _ in range(count):
        w = int(rng.integers(width_range[0], width_range[1] + 1))
        h = int(rng.integers(width_range[0], width_range[1] + 1))
        x = int(rng.integers(0, max(region - w, 1)))
        y = int(rng.integers(0, max(region - h, 1)))
        layout.add_rect(Rect(x, y, x + w, y + h), layer=layer)
    return layout
