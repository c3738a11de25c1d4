"""SVG rendering of layouts and decomposition results.

A dependency-free visual check: the input layer in grey, each mask in its own
color, remaining conflicts highlighted with a red marker.  The output opens in
any browser, which is how the examples and the CLI expose "does the
decomposition look right?" without requiring a layout viewer.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.decomposer import DecompositionResult
from repro.geometry.layout import Layout
from repro.geometry.rect import Rect, bounding_box

#: Fill colors used for mask0..mask7 (repeats beyond that).
MASK_COLORS = [
    "#1f77b4",  # blue
    "#ff7f0e",  # orange
    "#2ca02c",  # green
    "#9467bd",  # purple
    "#8c564b",  # brown
    "#17becf",  # cyan
    "#bcbd22",  # olive
    "#e377c2",  # pink
]
CONFLICT_COLOR = "#d62728"  # red


def _svg_header(bbox: Rect, scale: float, margin: int) -> List[str]:
    width = (bbox.width + 2 * margin) * scale
    height = (bbox.height + 2 * margin) * scale
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width:.0f}" height="{height:.0f}" '
            f'viewBox="0 0 {width:.0f} {height:.0f}">'
        ),
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]


def _rect_element(
    rect: Rect,
    bbox: Rect,
    scale: float,
    margin: int,
    fill: str,
    opacity: float = 0.85,
    stroke: str = "none",
    stroke_width: float = 1.0,
) -> str:
    # SVG y axis points down; flip so the layout reads like a plot.
    x = (rect.xl - bbox.xl + margin) * scale
    y = (bbox.yh - rect.yh + margin) * scale
    return (
        f'<rect x="{x:.2f}" y="{y:.2f}" '
        f'width="{rect.width * scale:.2f}" height="{rect.height * scale:.2f}" '
        f'fill="{fill}" fill-opacity="{opacity}" '
        f'stroke="{stroke}" stroke-width="{stroke_width:.1f}"/>'
    )


def layout_to_svg(
    layout: Layout,
    path: Union[str, Path],
    layer_colors: Optional[Dict[str, str]] = None,
    scale: float = 0.5,
    margin: int = 40,
) -> None:
    """Render every layer of ``layout`` to an SVG file.

    Layers are drawn in sorted order; unmapped layers cycle through the mask
    palette.
    """
    shapes = list(layout)
    if not shapes:
        Path(path).write_text("<svg xmlns='http://www.w3.org/2000/svg'/>")
        return
    bbox = bounding_box(s.bbox for s in shapes)
    parts = _svg_header(bbox, scale, margin)
    layers = layout.layers()
    colors = layer_colors or {}
    for index, layer in enumerate(layers):
        fill = colors.get(layer, MASK_COLORS[index % len(MASK_COLORS)])
        for shape in layout.shapes_on_layer(layer):
            for rect in shape.rects():
                parts.append(_rect_element(rect, bbox, scale, margin, fill))
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def decomposition_to_svg(
    result: DecompositionResult,
    path: Union[str, Path],
    scale: float = 0.5,
    margin: int = 40,
    highlight_conflicts: bool = True,
) -> None:
    """Render a decomposition result: one color per mask, conflicts outlined.

    Fragments are drawn from the construction result, so stitch splits are
    visible as separately colored pieces of one original feature.
    """
    fragments = result.construction.fragments
    if not fragments:
        Path(path).write_text("<svg xmlns='http://www.w3.org/2000/svg'/>")
        return
    all_rects = [rect for rects in fragments.values() for rect in rects]
    bbox = bounding_box(all_rects)
    parts = _svg_header(bbox, scale, margin)

    for vertex in sorted(fragments):
        color_index = result.solution.coloring[vertex]
        fill = MASK_COLORS[color_index % len(MASK_COLORS)]
        for rect in fragments[vertex]:
            parts.append(_rect_element(rect, bbox, scale, margin, fill))

    if highlight_conflicts:
        graph = result.construction.graph
        coloring = result.solution.coloring
        for u, v in graph.conflict_edges():
            if coloring[u] != coloring[v]:
                continue
            hotspot = bounding_box(fragments[u] + fragments[v]).bloated(10)
            parts.append(
                _rect_element(
                    hotspot,
                    bbox,
                    scale,
                    margin,
                    fill="none",
                    opacity=1.0,
                    stroke=CONFLICT_COLOR,
                    stroke_width=2.0,
                )
            )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))
