"""Per-layer measurement from outside the program.

Two sources, neither of which changes program code:

* :class:`LayerTracer` installs timing wrappers around each layer's public
  function, under the name the pipeline calls it by, and subtracts nested
  spans to give every layer its self time.  Work counts come from the
  wrapped calls' return values and arguments (``SdpResult.iterations``,
  ``BacktrackStatistics``, ``DivisionReport``).
* :func:`scrape` reads a server's ``/stats`` counters and ``/metrics``
  stage histograms; the served workloads take the difference of a scrape
  before and after the timed region.

``PER_LAYER`` is the one list of per-layer metric names and units; every
traced run prints all of them, zero where a layer does no work.
"""

from __future__ import annotations

import functools
import http.client
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("decompose.ms", "ms/layout"),
    ("construction.ms", "ms/layout"),
    ("construction.share_pct", "%"),
    ("construction.vertices", "count/layout"),
    ("construction.conflict_edges", "count/layout"),
    ("construction.stitch_edges", "count/layout"),
    ("division.ghtree_ms", "ms/layout"),
    ("division.ghtree_share_pct", "%"),
    ("division.ghtree_calls", "count/layout"),
    ("division.maxflow_calls", "count/layout"),
    ("division.peel_ms", "ms/layout"),
    ("division.peeled_vertices", "count/layout"),
    ("division.blocks_ms", "ms/layout"),
    ("division.blocks", "count/layout"),
    ("division.pieces", "count/layout"),
    ("division.largest_piece", "vertices"),
    ("sdp.ms", "ms/layout"),
    ("sdp.share_pct", "%"),
    ("sdp.calls", "count/layout"),
    ("sdp.iterations", "count/layout"),
    ("sdp.cap_hits", "count/layout"),
    ("mapping.ms", "ms/layout"),
    ("mapping.backtrack_expansions", "count/layout"),
    ("mapping.budget_exhausted", "count/layout"),
    ("linear.ms", "ms/layout"),
    ("merge.ms", "ms/layout"),
    ("cache.lookups", "count/layout"),
    ("cache.hits", "count/layout"),
    ("cache.stores", "count/layout"),
    ("cache.hit_ratio", "ratio"),
    ("server.parse_ms", "ms/layout"),
    ("server.parse_gds_ms", "ms/layout"),
    ("server.queue_wait_ms", "ms/layout"),
    ("server.dispatch_ms", "ms/layout"),
    ("server.compute_ms", "ms/layout"),
    ("server.encode_ms", "ms/layout"),
    ("server.http_ms", "ms/layout"),
    ("server.bytes_in", "bytes/layout"),
    ("server.bytes_out", "bytes/layout"),
    ("coordinator.build_ms", "ms/layout"),
    ("coordinator.divide_ms", "ms/layout"),
    ("coordinator.hash_ms", "ms/layout"),
    ("coordinator.route_ms", "ms/layout"),
    ("coordinator.merge_ms", "ms/layout"),
    ("coordinator.node_requests", "count/layout"),
    ("coordinator.components_routed", "count/layout"),
    ("coordinator.downgrades", "count"),
    ("node.solve_ms", "ms/layout"),
    ("node.queue_wait_ms", "ms/layout"),
    ("node.shm_jobs", "count/layout"),
    ("trace.overhead_pct", "%"),
)

#: Self-time buckets of the tracer and the metric each one feeds.
_TIMED = {
    "decompose": "decompose.ms",
    "construction": "construction.ms",
    "ghtree": "division.ghtree_ms",
    "peel": "division.peel_ms",
    "blocks": "division.blocks_ms",
    "sdp": "sdp.ms",
    "mapping": "mapping.ms",
    "linear": "linear.ms",
    "merge": "merge.ms",
}


class LayerTracer:
    """Timing wrappers around the layers' public functions.

    Use as a context manager; the wrappers are installed on entry and the
    original functions restored on exit.  Only one tracer may be active.
    """

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.largest_piece = 0
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- installing
    def _targets(self) -> List[Tuple[object, str, str, Optional[Callable]]]:
        import repro.core.decomposer as decomposer
        import repro.core.division as division
        import repro.core.sdp_coloring as sdp_coloring
        from repro.core.linear_coloring import LinearColoring
        from repro.core.sdp_coloring import SdpColoring
        from repro.graph.maxflow import FlowNetwork
        from repro.opt.sdp import VectorProgramSolver

        return [
            (decomposer.Decomposer, "decompose", "decompose", self._on_decompose),
            (decomposer, "build_decomposition_graph", "construction", None),
            (division, "gomory_hu_tree", "ghtree", self._on_ghtree),
            (FlowNetwork, "max_flow", "ghtree", self._on_maxflow),
            (division, "peel_low_degree_vertices", "peel", None),
            (division, "biconnected_components", "blocks", None),
            (division, "merge_component_colorings", "merge", None),
            (division, "reinsert_peeled_vertices", "merge", None),
            (VectorProgramSolver, "solve", "sdp", self._on_sdp),
            (SdpColoring, "color", "mapping", None),
            (sdp_coloring, "run_backtrack_search", "mapping", self._on_backtrack),
            (LinearColoring, "color", "linear", None),
        ]

    def __enter__(self) -> "LayerTracer":
        for owner, attribute, bucket, hook in self._targets():
            original = getattr(owner, attribute)
            setattr(owner, attribute, self._wrap(original, bucket, hook))
            self._patches.append((owner, attribute, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _wrap(self, function, bucket: str, hook: Optional[Callable]):
        stack = self._stack
        totals = self.self_seconds

        @functools.wraps(function)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                totals[bucket] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # ---------------------------------------------------------------- hooks
    def _on_decompose(self, args, kwargs, result) -> None:
        graph = result.construction.graph
        report = result.division_report
        self.counts["layouts"] += 1
        self.counts["vertices"] += graph.num_vertices
        self.counts["conflict_edges"] += graph.num_conflict_edges
        self.counts["stitch_edges"] += graph.num_stitch_edges
        self.counts["peeled_vertices"] += report.peeled_vertices
        self.counts["blocks"] += report.num_biconnected_blocks
        self.counts["pieces"] += report.colored_pieces
        self.largest_piece = max(self.largest_piece, report.largest_colored_piece)

    def _on_ghtree(self, args, kwargs, result) -> None:
        self.counts["ghtree_calls"] += 1

    def _on_maxflow(self, args, kwargs, result) -> None:
        self.counts["maxflow_calls"] += 1

    def _on_sdp(self, args, kwargs, result) -> None:
        options = args[0].options
        self.counts["sdp_calls"] += 1
        self.counts["sdp_iterations"] += result.iterations
        cap = options.max_outer_iterations * options.max_inner_iterations
        if result.iterations >= cap:
            self.counts["sdp_cap_hits"] += 1

    def _on_backtrack(self, args, kwargs, result) -> None:
        stats = kwargs.get("statistics")
        if stats is not None:
            self.counts["backtrack_expansions"] += stats.expansions
            if not stats.completed:
                self.counts["budget_exhausted"] += 1

    # -------------------------------------------------------------- results
    def metrics(self) -> Dict[str, float]:
        """Per-layout self times (ms) and work counts of everything traced."""
        layouts = self.counts["layouts"]
        if layouts == 0:
            raise RuntimeError("the traced region decomposed no layout")
        out = {name: 1000.0 * self.self_seconds[bucket] / layouts for bucket, name in _TIMED.items()}
        # ``decompose`` holds only its own self time so far: make it inclusive.
        out["decompose.ms"] = 1000.0 * sum(self.self_seconds.values()) / layouts
        total = out["decompose.ms"]
        for name, share in (
            ("construction.ms", "construction.share_pct"),
            ("division.ghtree_ms", "division.ghtree_share_pct"),
            ("sdp.ms", "sdp.share_pct"),
        ):
            out[share] = 100.0 * out[name] / total if total else 0.0
        per_layout = {
            "construction.vertices": "vertices",
            "construction.conflict_edges": "conflict_edges",
            "construction.stitch_edges": "stitch_edges",
            "division.ghtree_calls": "ghtree_calls",
            "division.maxflow_calls": "maxflow_calls",
            "division.peeled_vertices": "peeled_vertices",
            "division.blocks": "blocks",
            "division.pieces": "pieces",
            "sdp.calls": "sdp_calls",
            "sdp.iterations": "sdp_iterations",
            "sdp.cap_hits": "sdp_cap_hits",
            "mapping.backtrack_expansions": "backtrack_expansions",
            "mapping.budget_exhausted": "budget_exhausted",
        }
        for name, key in per_layout.items():
            out[name] = self.counts[key] / layouts
        out["division.largest_piece"] = float(self.largest_piece)
        return out


def complete(partial: Dict[str, float], scale: float = 1.0) -> Dict[str, Dict[str, object]]:
    """Every ``PER_LAYER`` metric, zero where ``partial`` has no value.

    Times (unit ``ms/layout``) are multiplied by ``scale``, the run's factor
    to nominal pace (see ``perfbench.pace``); counts and shares are not.
    """
    unknown = set(partial) - {name for name, _ in PER_LAYER}
    if unknown:
        raise KeyError(f"metrics outside PER_LAYER: {sorted(unknown)}")
    return {
        name: {
            "value": float(partial.get(name, 0.0)) * (scale if unit == "ms/layout" else 1.0),
            "unit": unit,
        }
        for name, unit in PER_LAYER
    }


# ---------------------------------------------------------------- scraping
class Scrape:
    """One ``/stats`` + ``/metrics`` snapshot of a server or coordinator."""

    def __init__(self, stats: Dict, metrics) -> None:
        self.stats = stats
        self.metrics = metrics

    def stage(self, stage: str) -> Tuple[float, float]:
        """(sum seconds, count) of one ``repro_stage_duration_seconds`` stage."""
        labels = {"stage": stage}
        total = self.metrics.value("repro_stage_duration_seconds_sum", labels) or 0.0
        count = self.metrics.value("repro_stage_duration_seconds_count", labels) or 0.0
        return total, count

    def histogram_sum(self, family: str) -> float:
        return self.metrics.value(f"{family}_sum") or 0.0


def scrape(host: str, port: int) -> Scrape:
    from repro.service.metrics import parse_metrics_text

    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        bodies = []
        for path in ("/stats", "/metrics"):
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path} answered {response.status}")
            bodies.append(body)
    finally:
        connection.close()
    return Scrape(json.loads(bodies[0]), parse_metrics_text(bodies[1].decode("utf-8")))


def stage_delta_ms(before: Scrape, after: Scrape, stage: str) -> float:
    """Milliseconds one stage accumulated between two scrapes."""
    return 1000.0 * (after.stage(stage)[0] - before.stage(stage)[0])


def counter_delta(before: Dict, after: Dict, *path: str) -> float:
    def dig(tree):
        for key in path:
            tree = tree.get(key, {}) if isinstance(tree, dict) else {}
        return float(tree) if isinstance(tree, (int, float)) else 0.0

    return dig(after) - dig(before)
