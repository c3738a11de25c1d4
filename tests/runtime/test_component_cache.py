"""Component-cache unit tests: keying, accounting, replay, invalidation."""

from __future__ import annotations

import pytest

from repro.bench.factory import repeated_cell_layout
from repro.core.decomposer import Decomposer, make_colorer
from repro.core.division import DivisionReport
from repro.core.options import AlgorithmOptions, DecomposerOptions, DivisionOptions
from repro.graph.decomposition_graph import DecompositionGraph
from repro.runtime import ComponentCache, canonical_component_key
from repro.runtime.cache import ComponentSolve


def _key(graph, num_colors=4, algorithm="linear", options=None, division=None):
    return canonical_component_key(
        graph,
        num_colors,
        algorithm,
        options or AlgorithmOptions(),
        division or DivisionOptions(),
    )


class TestCanonicalKey:
    def test_isomorphic_relabelings_hit(self):
        """Order-preserving vertex relabelings produce the same key."""
        original = DecompositionGraph.from_edges(
            conflict_edges=[(0, 1), (1, 2), (0, 2)], stitch_edges=[(2, 3)]
        )
        relabeled = DecompositionGraph.from_edges(
            conflict_edges=[(10, 21), (21, 32), (10, 32)], stitch_edges=[(32, 43)]
        )
        assert _key(original) == _key(relabeled)

    def test_translation_of_repeated_cell_hits(self):
        """The same cell at two die positions yields identical keys."""
        layout = repeated_cell_layout(copies=2, cell_pitch=1000)
        options = DecomposerOptions.for_quadruple_patterning("linear")
        from repro.graph.construction import build_decomposition_graph
        from repro.graph.components import connected_components

        construction = build_decomposition_graph(
            layout, layer="contact", options=options.construction
        )
        components = connected_components(construction.graph)
        assert len(components) == 2
        keys = {
            _key(construction.graph.subgraph(component)) for component in components
        }
        assert len(keys) == 1

    def test_different_edge_sets_miss(self):
        triangle = DecompositionGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        path = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        assert _key(triangle) != _key(path)

    def test_edge_kind_matters(self):
        """A conflict edge and a stitch edge between the same pair differ."""
        conflict = DecompositionGraph.from_edges(conflict_edges=[(0, 1)])
        stitch = DecompositionGraph.from_edges(
            conflict_edges=[], stitch_edges=[(0, 1)], vertices=[0, 1]
        )
        assert _key(conflict) != _key(stitch)

    def test_configuration_fingerprint(self):
        """K, algorithm and every options field participate in the key."""
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        base = _key(graph)
        assert _key(graph, num_colors=5) != base
        assert _key(graph, algorithm="greedy") != base
        assert _key(graph, options=AlgorithmOptions(alpha=0.5)) != base
        assert (
            _key(graph, division=DivisionOptions(ghtree_cut_removal=False)) != base
        )

    def test_algorithm_options_change_invalidates_cache(self):
        """Cached entries are unreachable once AlgorithmOptions change."""
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        cache = ComponentCache()
        colorer = make_colorer("linear", 4, AlgorithmOptions())
        coloring = colorer.color(graph)

        old_key = _key(graph, options=AlgorithmOptions(alpha=0.1))
        ranks = [coloring[vertex] for vertex in graph.vertices()]
        cache.store(old_key, graph, ComponentSolve(old_key, ranks))
        assert cache.lookup(old_key, graph) is not None

        new_key = _key(graph, options=AlgorithmOptions(alpha=0.9))
        assert cache.lookup(new_key, graph) is None
        assert cache.stats.hits == 1 and cache.stats.misses == 1


class TestCacheAccounting:
    def test_miss_then_hit_roundtrip(self):
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        cache = ComponentCache()
        key = _key(graph)
        assert cache.lookup(key, graph) is None
        cache.store(key, graph, ComponentSolve(key, [0, 1, 0]))
        record = cache.lookup(key, graph)
        assert record is not None
        assert record.coloring_for(graph) == {0: 0, 1: 1, 2: 0}
        stats = cache.snapshot_stats()
        assert (stats.hits, stats.misses, stats.entries_hint) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_replay_maps_colors_through_relabeling(self):
        """A hit on a relabeled graph returns colors on the *new* vertex ids."""
        original = DecompositionGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        relabeled = DecompositionGraph.from_edges([(5, 8), (8, 11), (5, 11)])
        cache = ComponentCache()
        key = _key(original)
        assert key == _key(relabeled)
        cache.store(key, original, ComponentSolve(key, [2, 0, 1]))
        record = cache.lookup(key, relabeled)
        assert record.coloring_for(relabeled) == {5: 2, 8: 0, 11: 1}

    def test_report_delta_replayed(self):
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        report = DivisionReport(peeled_vertices=3, colored_pieces=1)
        cache = ComponentCache()
        key = _key(graph)
        cache.store(key, graph, ComponentSolve(key, [0, 1, 0], report, solver_timeouts=2))
        record = cache.lookup(key, graph)
        assert record.report.peeled_vertices == 3
        assert record.report.colored_pieces == 1
        assert record.solver_timeouts == 2

    def test_record_size_mismatch_is_a_miss_not_a_crash(self):
        """A key whose record covers a different vertex count replays as a
        miss: keys can arrive from untrusted component requests, and a
        wrong one must never KeyError (or mis-color) the lookup."""
        triangle = DecompositionGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        path3 = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        path4 = DecompositionGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        cache = ComponentCache()
        key = _key(path3)
        cache.store(key, path3, ComponentSolve(key, [0, 1, 0]))
        assert cache.lookup(key, path4) is None  # wrong vertex count: miss
        # Same vertex count, different edges: the path's 2-coloring would be
        # an illegal triangle coloring — the shape guard makes it a miss.
        assert cache.lookup(key, triangle) is None
        assert cache.lookup(key, path3) is not None  # the real graph: hit
        assert cache.stats.misses == 2 and cache.stats.hits == 1

    def test_lru_eviction(self):
        cache = ComponentCache(max_entries=1)
        first = DecompositionGraph.from_edges([(0, 1)])
        second = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        cache.store(_key(first), first, ComponentSolve(_key(first), [0, 1]))
        cache.store(_key(second), second, ComponentSolve(_key(second), [0, 1, 0]))
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        assert cache.lookup(_key(first), first) is None

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ValueError):
            ComponentCache(max_entries=0)


class TestEndToEndCaching:
    def test_repeated_cells_hit_within_one_layout(self):
        """Four identical cells: one solve, three hits, identical masks."""
        layout = repeated_cell_layout(copies=4)
        options = DecomposerOptions.for_quadruple_patterning("linear")
        serial = Decomposer(options).decompose(layout, layer="contact")
        cache = ComponentCache()
        cached = Decomposer(options).decompose(layout, layer="contact", cache=cache)
        assert cached.solution.coloring == serial.solution.coloring
        stats = cache.snapshot_stats()
        assert stats.hits >= 3
        assert stats.entries_hint == 1  # one canonical component stored

    def test_second_decomposition_is_all_hits(self):
        layout = repeated_cell_layout(copies=3)
        options = DecomposerOptions.for_quadruple_patterning("greedy")
        cache = ComponentCache()
        decomposer = Decomposer(options)
        first = decomposer.decompose(layout, layer="contact", cache=cache)
        misses_after_first = cache.stats.misses
        second = decomposer.decompose(layout, layer="contact", cache=cache)
        assert second.solution.coloring == first.solution.coloring
        assert cache.stats.misses == misses_after_first  # no new solves
        assert cache.stats.hits >= 3 + 2  # 2 dedup hits in run 1, 3 replays in run 2

    def test_batch_stats_are_per_batch_on_reused_cache(self):
        """BatchResult.cache_stats reports only its own batch's activity."""
        from repro.runtime import decompose_many

        layout = repeated_cell_layout(copies=3)
        options = DecomposerOptions.for_quadruple_patterning("linear")
        cache = ComponentCache()
        first = decompose_many([("x", layout)], options=options, cache=cache)
        second = decompose_many([("x", layout)], options=options, cache=cache)
        assert first.cache_stats.misses >= 1
        assert second.cache_stats.misses == 0  # everything replayed
        assert second.cache_stats.hits >= 1
        # The first snapshot must not have mutated when batch 2 ran.
        assert first.cache_stats.hits + first.cache_stats.misses < (
            cache.stats.hits + cache.stats.misses
        )

    def test_cache_shared_across_k_is_safe(self):
        """One cache can serve different (K, algorithm) configurations."""
        layout = repeated_cell_layout(copies=2)
        cache = ComponentCache()
        for num_colors in (4, 5):
            options = (
                DecomposerOptions.for_quadruple_patterning("linear")
                if num_colors == 4
                else DecomposerOptions.for_pentuple_patterning("linear")
            )
            serial = Decomposer(options).decompose(layout, layer="contact")
            cached = Decomposer(options).decompose(
                layout, layer="contact", cache=cache
            )
            assert cached.solution.coloring == serial.solution.coloring
        assert len(cache) == 2  # one canonical entry per K
