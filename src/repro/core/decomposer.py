"""Top-level layout decomposition flow (Fig. 2).

:class:`Decomposer` glues the stages together: decomposition-graph
construction, graph division, color assignment and mask generation.  It is the
main entry point of the library::

    from repro import Decomposer, DecomposerOptions

    options = DecomposerOptions.for_quadruple_patterning(algorithm="linear")
    result = Decomposer(options).decompose(layout, layer="metal1")
    print(result.solution.summary())
    masks = result.to_mask_layout()
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.core.backtrack import BacktrackColoring
from repro.core.coloring import ColoringAlgorithm
from repro.core.division import DivisionReport
from repro.core.evaluation import DecompositionSolution, check_complete, evaluate
from repro.core.greedy_coloring import GreedyColoring
from repro.core.ilp_coloring import IlpColoring
from repro.core.linear_coloring import LinearColoring
from repro.core.options import AlgorithmOptions, DecomposerOptions
from repro.core.sdp_coloring import SdpColoring
from repro.errors import ConfigurationError
from repro.geometry.layout import Layout
from repro.geometry.outlines import Outlines
from repro.geometry.rect import Rect
from repro.graph.construction import ConstructionResult, build_decomposition_graph
from repro.graph.decomposition_graph import DecompositionGraph
from repro.obs.trace import Span


def make_colorer(
    algorithm: str,
    num_colors: int,
    options: Optional[AlgorithmOptions] = None,
) -> ColoringAlgorithm:
    """Instantiate a color-assignment algorithm by name.

    Known names: ``ilp``, ``sdp-backtrack``, ``sdp-greedy``, ``linear``,
    ``backtrack``, ``greedy``.
    """
    options = options or AlgorithmOptions()
    if algorithm == "ilp":
        return IlpColoring(num_colors, options)
    if algorithm == "sdp-backtrack":
        return SdpColoring(num_colors, options, mapping="backtrack")
    if algorithm == "sdp-greedy":
        return SdpColoring(num_colors, options, mapping="greedy")
    if algorithm == "linear":
        return LinearColoring(num_colors, options)
    if algorithm == "backtrack":
        return BacktrackColoring(num_colors, options)
    if algorithm == "greedy":
        return GreedyColoring(num_colors, options)
    raise ConfigurationError(f"unknown color assignment algorithm {algorithm!r}")


@dataclass
class DecompositionResult:
    """Everything produced by one :meth:`Decomposer.decompose` call."""

    solution: DecompositionSolution
    construction: ConstructionResult
    division_report: DivisionReport
    options: DecomposerOptions

    def to_mask_layout(self, prefix: str = "mask") -> Layout:
        """Return a layout whose layers ``mask0..mask(K-1)`` hold the fragments."""
        output = Layout(name=f"{self.construction.layer}-masks")
        for layer, row in self._colored_rows(prefix):
            output.add_rect(Rect(*row), layer=layer)
        return output

    def mask_dict(self, prefix: str = "mask") -> Dict:
        """Return ``to_mask_layout(prefix).to_dict()``, written from the arrays.

        The served response's ``masks``: no :class:`Layout` or shape
        objects are built.
        """
        shapes = [
            {
                "id": index,
                "layer": layer,
                "vertices": [(xl, yl), (xh, yl), (xh, yh), (xl, yh)],
            }
            for index, (layer, (xl, yl, xh, yh)) in enumerate(self._colored_rows(prefix))
        ]
        return {
            "name": f"{self.construction.layer}-masks",
            "dbu_per_nm": 1.0,
            "shapes": shapes,
        }

    def _colored_rows(self, prefix: str):
        """``(mask layer, (xl, yl, xh, yh))`` of every fragment row, vertex after vertex."""
        coloring = self.solution.coloring
        layers = [f"{prefix}{color}" for color in range(self.solution.num_colors)]
        construction = self.construction
        return zip(
            [layers[coloring[v]] for v in construction.fragment_vertices.tolist()],
            construction.fragment_boxes.tolist(),
        )

    def mask_counts(self) -> Dict[int, int]:
        """Return the number of fragments assigned to each mask (balance check)."""
        counts = {color: 0 for color in range(self.solution.num_colors)}
        for color in self.solution.coloring.values():
            counts[color] += 1
        return counts


class Decomposer:
    """End-to-end K-patterning layout decomposer.

    Every call colors through :func:`repro.runtime.pipeline.color_graph`:
    divide into components, solve each distinct one once, merge.
    ``decompose`` accepts optional execution knobs: ``workers`` colors the
    divided components across a process pool (``N >= 2`` processes, ``0`` =
    one per CPU), ``executor`` passes a pipeline executor to use instead
    (one pool shared by many calls), and ``cache`` memoises solved
    components across calls via a :class:`repro.runtime.cache.ComponentCache`
    (in-memory or SQLite-backed; see :func:`repro.runtime.open_cache`).
    All are pure execution strategies — masks, conflict counts and stitch
    counts are bit-identical to the default in-process path.

    ``workers`` and ``cache`` may also be bound at construction time, which
    is how long-lived holders (the batch API, the decomposition server's
    workers) configure one decomposer and then call plain
    ``decompose(layout)`` per request; per-call arguments override the
    bound defaults.
    """

    def __init__(
        self,
        options: Optional[DecomposerOptions] = None,
        workers: Optional[int] = None,
        cache=None,
    ) -> None:
        self.options = options or DecomposerOptions()
        self.options.validate()
        self.workers = workers
        self.cache = cache

    # ------------------------------------------------------------------ API
    def decompose(
        self,
        layout: Union[Layout, Outlines],
        layer: str = "metal1",
        workers: Optional[int] = None,
        cache=None,
        executor=None,
        span=Span,
    ) -> DecompositionResult:
        """Decompose one layer of ``layout`` into K masks.

        ``layout`` may also be the packed :class:`Outlines` of the layer's
        shapes, the form a served request reaches its worker in.
        ``span(stage)`` times the ``build`` stage and the pipeline's stages;
        the cluster coordinator passes its traced factory, every other
        caller the sink-less default.
        """
        if workers is None:
            workers = self.workers
        if cache is None:
            cache = self.cache
        start_total = time.perf_counter()
        with span("build"):
            construction = build_decomposition_graph(
                layout, layer=layer, options=self.options.construction
            )
        solution, report = self._solve(construction.graph, workers, cache, executor, span)
        solution.total_seconds = time.perf_counter() - start_total
        return DecompositionResult(
            solution=solution,
            construction=construction,
            division_report=report,
            options=self.options,
        )

    def decompose_graph(
        self,
        graph: DecompositionGraph,
        workers: Optional[int] = None,
        cache=None,
        executor=None,
    ) -> DecompositionSolution:
        """Color an already-constructed decomposition graph."""
        if workers is None:
            workers = self.workers
        if cache is None:
            cache = self.cache
        solution, _ = self._solve(graph, workers, cache, executor)
        solution.total_seconds = solution.color_assignment_seconds
        return solution

    # ------------------------------------------------------------ internals
    def _solve(self, graph: DecompositionGraph, workers, cache, executor, span=Span):
        # The runtime imports this module: bind it at call time.
        from repro.runtime.pipeline import color_graph, executor_for

        start = time.perf_counter()
        with executor_for(workers, executor) as solve:
            colored = color_graph(graph, self.options, solve, cache, span)
        elapsed = time.perf_counter() - start
        coloring = colored.coloring
        check_complete(graph, coloring, self.options.num_colors)
        score = evaluate(graph, coloring)
        solution = DecompositionSolution(
            coloring=coloring,
            num_colors=self.options.num_colors,
            conflicts=score.conflicts,
            stitches=score.stitches,
            algorithm=make_colorer(
                self.options.algorithm,
                self.options.num_colors,
                self.options.algorithm_options,
            ).name,
            color_assignment_seconds=elapsed,
            graph=graph,
            alpha=self.options.algorithm_options.alpha,
        )
        return solution, colored.report


def decompose_layout(
    layout: Layout,
    layer: str = "metal1",
    num_colors: int = 4,
    algorithm: str = "sdp-backtrack",
) -> DecompositionResult:
    """One-call convenience wrapper around :class:`Decomposer`.

    Uses the paper's technology parameters for the requested mask count.
    """
    options = DecomposerOptions.for_k_patterning(num_colors, algorithm)
    return Decomposer(options).decompose(layout, layer=layer)
