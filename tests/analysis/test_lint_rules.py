"""Fixture suite: one known-bad and one known-good snippet per rule id.

Every rule is instantiated with ``scopes=()`` so the fixtures can live in a
tmp directory without mimicking the production path layout; the production
scoping itself is covered separately.
"""

from __future__ import annotations

import textwrap

from repro.analysis.determinism import (
    NondeterministicHashInputRule,
    SetIterationRule,
    UnseededRandomRule,
)
from repro.analysis.engine import run_rules
from repro.analysis.exposition import (
    CounterSuffixRule,
    LabelConsistencyRule,
    MetricPrefixRule,
)
from repro.analysis.imports import UnusedImportRule
from repro.analysis.locks import BlockingCallUnderLockRule, LockOrderInversionRule


def lint_source(tmp_path, rule, source, filename="snippet.py"):
    path = tmp_path / filename
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    findings, _ = run_rules(tmp_path, [path], [rule])
    return findings


def rules_hit(findings):
    return sorted({f.rule for f in findings})


# -- DET001: set iteration ---------------------------------------------------


class TestSetIteration:
    def test_for_over_set_literal_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            SetIterationRule(scopes=()),
            """
            def order(edges):
                out = []
                for e in {1, 2, 3}:
                    out.append(e)
                return out
            """,
        )
        assert rules_hit(findings) == ["DET001"]

    def test_for_over_tracked_set_variable_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            SetIterationRule(scopes=()),
            """
            def order(conflict, stitch):
                keys = set(conflict) | set(stitch)
                for a in keys:
                    yield a
            """,
        )
        assert rules_hit(findings) == ["DET001"]
        assert "keys" in findings[0].message

    def test_comprehension_over_set_call_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            SetIterationRule(scopes=()),
            """
            def nodes(graph):
                return [n for n in set(graph)]
            """,
        )
        assert rules_hit(findings) == ["DET001"]

    def test_sorted_set_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            SetIterationRule(scopes=()),
            """
            def order(conflict, stitch):
                keys = set(conflict) | set(stitch)
                for a in sorted(keys):
                    yield a
                total = len(keys)
                return total
            """,
        )
        assert findings == []

    def test_rebinding_to_list_clears_mark(self, tmp_path):
        findings = lint_source(
            tmp_path,
            SetIterationRule(scopes=()),
            """
            def order(items):
                keys = set(items)
                keys = sorted(keys)
                for a in keys:
                    yield a
            """,
        )
        assert findings == []

    def test_production_scope_skips_other_paths(self, tmp_path):
        (tmp_path / "repro" / "service").mkdir(parents=True)
        path = tmp_path / "repro" / "service" / "x.py"
        path.write_text("def f(s):\n    return [x for x in set(s)]\n")
        findings, _ = run_rules(tmp_path, [path], [SetIterationRule()])
        assert findings == []


# -- DET002: unseeded random -------------------------------------------------


class TestUnseededRandom:
    def test_global_random_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            UnseededRandomRule(scopes=()),
            """
            import random

            def jitter():
                return random.random() + random.randint(0, 3)
            """,
        )
        assert rules_hit(findings) == ["DET002"]
        assert len(findings) == 2

    def test_numpy_legacy_global_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            UnseededRandomRule(scopes=()),
            """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """,
        )
        assert rules_hit(findings) == ["DET002"]

    def test_seeded_instance_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            UnseededRandomRule(scopes=()),
            """
            import random

            def jitter(seed):
                rng = random.Random(seed)
                return rng.random() + rng.randint(0, 3)
            """,
        )
        assert findings == []


# -- DET003: nondeterministic hash inputs ------------------------------------


class TestNondeterministicHashInput:
    def test_time_in_hash_function_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            NondeterministicHashInputRule(scopes=()),
            """
            import hashlib
            import time

            def canonical_cache_key(graph):
                h = hashlib.sha256()
                h.update(str(time.time()).encode())
                return h.hexdigest()
            """,
        )
        assert rules_hit(findings) == ["DET003"]

    def test_id_in_fingerprint_function_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            NondeterministicHashInputRule(scopes=()),
            """
            def options_fingerprint(options):
                return id(options)
            """,
        )
        assert rules_hit(findings) == ["DET003"]

    def test_time_outside_hash_context_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            NondeterministicHashInputRule(scopes=()),
            """
            import time

            def measure():
                return time.time()
            """,
        )
        assert findings == []


# -- LOCK001: blocking call under lock ---------------------------------------


class TestBlockingUnderLock:
    def test_sleep_under_lock_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            BlockingCallUnderLockRule(scopes=()),
            """
            import threading
            import time

            _lock = threading.Lock()

            def poll():
                with _lock:
                    time.sleep(1)
            """,
        )
        assert rules_hit(findings) == ["LOCK001"]
        assert "time.sleep()" in findings[0].message

    def test_urlopen_under_self_lock_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            BlockingCallUnderLockRule(scopes=()),
            """
            import threading
            from urllib.request import urlopen

            class Prober:
                def __init__(self):
                    self._lock = threading.Lock()

                def probe(self, url):
                    with self._lock:
                        return urlopen(url).read()
            """,
        )
        assert rules_hit(findings) == ["LOCK001"]
        assert "Prober._lock" in findings[0].message

    def test_transitive_helper_reported_via_chain(self, tmp_path):
        findings = lint_source(
            tmp_path,
            BlockingCallUnderLockRule(scopes=()),
            """
            import subprocess
            import threading

            _lock = threading.Lock()

            def _compile(cmd):
                subprocess.run(cmd, check=True)

            def build(cmd):
                with _lock:
                    _compile(cmd)
            """,
        )
        assert rules_hit(findings) == ["LOCK001"]
        assert "via _compile()" in findings[0].message

    def test_nested_def_under_lock_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            BlockingCallUnderLockRule(scopes=()),
            """
            import threading
            import time

            _lock = threading.Lock()

            def register(callbacks):
                with _lock:
                    def later():
                        time.sleep(1)
                    callbacks.append(later)
            """,
        )
        assert findings == []

    def test_blocking_before_acquisition_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            BlockingCallUnderLockRule(scopes=()),
            """
            import threading
            import time

            _lock = threading.Lock()

            def poll():
                time.sleep(1)
                with _lock:
                    return 2
            """,
        )
        assert findings == []

    def test_socket_method_under_lock_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            BlockingCallUnderLockRule(scopes=()),
            """
            import threading

            class Hub:
                def __init__(self, sock):
                    self._lock = threading.Lock()
                    self._sock = sock

                def publish(self, payload):
                    with self._lock:
                        self._sock.sendall(payload)
            """,
        )
        assert rules_hit(findings) == ["LOCK001"]


# -- LOCK002: acquisition-order inversion ------------------------------------


class TestLockOrderInversion:
    def test_inverted_pair_flagged_once(self, tmp_path):
        findings = lint_source(
            tmp_path,
            LockOrderInversionRule(scopes=()),
            """
            import threading

            a_lock = threading.Lock()
            b_lock = threading.Lock()

            def forward():
                with a_lock:
                    with b_lock:
                        pass

            def backward():
                with b_lock:
                    with a_lock:
                        pass
            """,
        )
        assert rules_hit(findings) == ["LOCK002"]
        assert len(findings) == 1
        assert "inversion" in findings[0].message

    def test_cross_file_inversion_flagged(self, tmp_path):
        one = tmp_path / "one.py"
        one.write_text(
            textwrap.dedent(
                """
                import threading
                from shared import a_lock, b_lock

                def forward():
                    with a_lock:
                        with b_lock:
                            pass
                """
            )
        )
        two = tmp_path / "two.py"
        two.write_text(
            textwrap.dedent(
                """
                import threading
                from shared import a_lock, b_lock

                def backward():
                    with b_lock:
                        with a_lock:
                            pass
                """
            )
        )
        findings, _ = run_rules(
            tmp_path, [one, two], [LockOrderInversionRule(scopes=())]
        )
        assert rules_hit(findings) == ["LOCK002"]

    def test_consistent_order_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            LockOrderInversionRule(scopes=()),
            """
            import threading

            a_lock = threading.Lock()
            b_lock = threading.Lock()

            def one():
                with a_lock:
                    with b_lock:
                        pass

            def two():
                with a_lock:
                    with b_lock:
                        pass
            """,
        )
        assert findings == []

    def test_condition_wrapping_lock_is_not_nesting(self, tmp_path):
        findings = lint_source(
            tmp_path,
            LockOrderInversionRule(scopes=()),
            """
            import threading

            class Hub:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)

                def one(self):
                    with self._lock:
                        with self._cond:
                            pass

                def two(self):
                    with self._cond:
                        with self._lock:
                            pass
            """,
        )
        assert findings == []


# -- MET001/002/003: metrics exposition --------------------------------------


class TestMetricsExposition:
    def test_unprefixed_helper_registration_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            MetricPrefixRule(scopes=()),
            """
            from repro.service.metrics import gauge_family

            def families():
                return [gauge_family("queue_depth", "Depth.", [({}, 1)])]
            """,
        )
        assert rules_hit(findings) == ["MET001"]

    def test_unprefixed_tuple_registration_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            MetricPrefixRule(scopes=()),
            """
            def families():
                return [("up", "gauge", "Liveness.", [({}, 1)])]
            """,
        )
        assert rules_hit(findings) == ["MET001"]

    def test_prefixed_registration_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            MetricPrefixRule(scopes=()),
            """
            from repro.service.metrics import counter_family

            def families():
                return [
                    counter_family("repro_jobs_total", "Jobs.", [({}, 1)])
                ]
            """,
        )
        assert findings == []

    def test_counter_without_total_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            CounterSuffixRule(scopes=()),
            """
            from repro.service.metrics import counter_family

            def families():
                return [counter_family("repro_jobs", "Jobs.", [({}, 1)])]
            """,
        )
        assert rules_hit(findings) == ["MET002"]

    def test_gauge_with_total_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            CounterSuffixRule(scopes=()),
            """
            from repro.service.metrics import gauge_family

            def families():
                return [gauge_family("repro_depth_total", "Depth.", [({}, 1)])]
            """,
        )
        assert rules_hit(findings) == ["MET002"]

    def test_conforming_names_are_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            CounterSuffixRule(scopes=()),
            """
            from repro.service.metrics import counter_family, gauge_family

            def families():
                return [
                    counter_family("repro_jobs_total", "Jobs.", [({}, 1)]),
                    gauge_family("repro_depth", "Depth.", [({}, 1)]),
                ]
            """,
        )
        assert findings == []

    def test_mixed_labels_within_site_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            LabelConsistencyRule(scopes=()),
            """
            from repro.service.metrics import gauge_family

            def families():
                return [
                    gauge_family(
                        "repro_depth",
                        "Depth.",
                        [({"queue": "a"}, 1), ({"lane": "b"}, 2)],
                    )
                ]
            """,
        )
        assert rules_hit(findings) == ["MET003"]

    def test_divergent_labels_across_files_flagged(self, tmp_path):
        one = tmp_path / "one.py"
        one.write_text(
            "def f():\n"
            "    return [('repro_depth', 'gauge', 'D.', [({'queue': q}, 1)])]\n"
        )
        two = tmp_path / "two.py"
        two.write_text(
            "def g():\n"
            "    return [('repro_depth', 'gauge', 'D.', [({'lane': l}, 1)])]\n"
        )
        findings, _ = run_rules(
            tmp_path, [one, two], [LabelConsistencyRule(scopes=())]
        )
        assert rules_hit(findings) == ["MET003"]
        assert len(findings) == 1

    def test_consistent_labels_are_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            LabelConsistencyRule(scopes=()),
            """
            from repro.service.metrics import gauge_family

            def one():
                return [
                    gauge_family(
                        "repro_depth", "D.", [({"queue": "a"}, 1)]
                    )
                ]

            def two():
                return [
                    gauge_family(
                        "repro_depth", "D.", [({"queue": "b"}, 2)]
                    )
                ]
            """,
        )
        assert findings == []


# -- IMP001: unused imports --------------------------------------------------


class TestUnusedImport:
    SOURCE = """
        from __future__ import annotations

        import json
        import os.path
        from typing import Dict, List, Optional
        from collections import OrderedDict as Ordered
        from repro.geometry.rect import Rect
        from repro.geometry.point import Point
        import scipy.optimize  # noqa: F401  # loaded for its side effect

        __all__ = ["Point"]

        def encode(value: Dict) -> "List[Rect]":
            return json.dumps(value)
        """

    def test_only_unread_names_are_flagged(self, tmp_path):
        findings = lint_source(tmp_path, UnusedImportRule(), self.SOURCE)
        assert rules_hit(findings) == ["IMP001"]
        assert [f.message for f in findings] == [
            "'os' (import os.path) is imported but never read",
            "'Optional' (from typing import Optional) is imported but never read",
            "'Ordered' (from collections import OrderedDict) is imported but never read",
        ]
        assert [f.line for f in findings] == [5, 6, 7]

    def test_init_modules_are_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path, UnusedImportRule(), "from json import dumps\n", filename="__init__.py"
        )
        assert findings == []
