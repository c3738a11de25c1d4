"""Schema-fingerprint guard: the committed manifest vs the real tree.

The load-bearing test is the mutation one: editing a fingerprinted hashing
function WITHOUT bumping its version constant must fail lint (SCHEMA001) —
that is the whole reason the manifest exists.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import schema
from repro.analysis.linter import find_root
from repro.runtime import hashing

ROOT = find_root(Path(__file__).resolve().parent)

#: The hashing module's version line and that line bumped to the successor.
_BUMP = (
    f"_SCHEMA_VERSION = {hashing._SCHEMA_VERSION}",
    f"_SCHEMA_VERSION = {hashing._SCHEMA_VERSION + 1}",
)


def _load():
    return schema.load_manifest(schema.DEFAULT_MANIFEST_PATH)


class TestCommittedManifest:
    def test_manifest_matches_tree(self):
        """The committed manifest is current: CI would fail the moment a
        fingerprinted function and its pinned hash disagree."""
        findings = schema.check_manifest(ROOT, _load())
        assert findings == [], [f.render() for f in findings]

    def test_manifest_covers_all_three_versions(self):
        names = {
            e["constant"]["name"] for e in _load()["entries"]
        }
        assert names == {"_SCHEMA_VERSION", "SCHEMA_VERSION", "FRAME_VERSION"}

    def test_manifest_is_canonically_rendered(self):
        text = schema.DEFAULT_MANIFEST_PATH.read_text(encoding="utf-8")
        assert text == schema.render_manifest(json.loads(text))


class TestMutationDetection:
    def test_unbumped_edit_of_hashing_function_fails_lint(self):
        """Mutate canonical_component_key in-memory, keep _SCHEMA_VERSION:
        lint must report SCHEMA001 naming the drifted function."""
        relpath = "src/repro/runtime/hashing.py"
        source = (ROOT / relpath).read_text(encoding="utf-8")
        mutated = source.replace(
            "digest.update(_le_bytes(buf))",
            "digest.update(_le_bytes(buf) + b'!')",
            1,
        )
        assert mutated != source, "mutation target not found in hashing.py"
        findings = schema.check_manifest(
            ROOT, _load(), source_overrides={relpath: mutated}
        )
        assert [f.rule for f in findings] == ["SCHEMA001"]
        assert "canonical_component_key" in findings[0].message

    def test_bump_without_regenerate_reports_schema002(self):
        relpath = "src/repro/runtime/hashing.py"
        source = (ROOT / relpath).read_text(encoding="utf-8")
        bumped = source.replace(*_BUMP, 1)
        assert bumped != source
        findings = schema.check_manifest(
            ROOT, _load(), source_overrides={relpath: bumped}
        )
        assert [f.rule for f in findings] == ["SCHEMA002"]

    def test_bump_plus_edit_reports_only_schema002(self):
        """The bump already happened, so the drifted fingerprints are not a
        separate violation — regenerating the manifest resolves both."""
        relpath = "src/repro/runtime/hashing.py"
        source = (ROOT / relpath).read_text(encoding="utf-8")
        mutated = source.replace(*_BUMP, 1).replace(
            "digest.update(_le_bytes(buf))",
            "digest.update(_le_bytes(buf) + b'!')",
            1,
        )
        findings = schema.check_manifest(
            ROOT, _load(), source_overrides={relpath: mutated}
        )
        assert [f.rule for f in findings] == ["SCHEMA002"]

    def test_cosmetic_edit_does_not_change_fingerprint(self):
        """Docstrings and formatting are not semantics: the fingerprint is
        computed from a normalised AST, so a comment/docstring edit cannot
        demand a version bump."""
        relpath = "src/repro/runtime/hashing.py"
        source = (ROOT / relpath).read_text(encoding="utf-8")
        tree = ast.parse(source)
        before = schema.function_fingerprint(tree, "canonical_component_key")
        cosmetic = source.replace(
            "def canonical_component_key(",
            "# ordering note\ndef canonical_component_key(",
            1,
        )
        after = schema.function_fingerprint(
            ast.parse(cosmetic), "canonical_component_key"
        )
        assert before == after

    def test_deleted_function_reports_schema003(self):
        relpath = "src/repro/runtime/hashing.py"
        source = (ROOT / relpath).read_text(encoding="utf-8")
        renamed = source.replace(
            "def options_fingerprint(", "def options_fp(", 1
        )
        assert renamed != source
        findings = schema.check_manifest(
            ROOT, _load(), source_overrides={relpath: renamed}
        )
        assert "SCHEMA003" in {f.rule for f in findings}

    def test_rule_class_reports_through_finalize(self, tmp_path):
        """SchemaManifestRule surfaces manifest problems as findings, not
        exceptions — a broken manifest must fail lint, not crash it."""
        from repro.analysis.engine import Project

        bad = tmp_path / "manifest.json"
        bad.write_text("{not json")
        rule = schema.SchemaManifestRule(manifest_path=bad)
        findings = list(rule.finalize(Project(ROOT, [])))
        assert [f.rule for f in findings] == ["SCHEMA003"]


class TestFingerprintMachinery:
    def test_find_node_resolves_methods(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                class Outer:
                    def method(self):
                        return 1

                def function():
                    return 2
                """
            )
        )
        assert schema.find_node(tree, "Outer.method") is not None
        assert schema.find_node(tree, "function") is not None
        assert schema.find_node(tree, "Outer.missing") is None
        assert schema.find_node(tree, "missing") is None

    def test_fingerprint_changes_on_semantic_edit(self):
        a = ast.parse("def f(x):\n    return x + 1\n")
        b = ast.parse("def f(x):\n    return x + 2\n")
        assert schema.function_fingerprint(
            a, "f"
        ) != schema.function_fingerprint(b, "f")

    def test_constant_value_reads_module_assignment(self):
        tree = ast.parse("X = 3\nY: int = 'a'\nZ = compute()\n")
        assert schema.constant_value(tree, "X") == 3
        assert schema.constant_value(tree, "Y") == "a"
        assert schema.constant_value(tree, "Z") is None
        assert schema.constant_value(tree, "missing") is None

    def test_regenerate_roundtrips_clean_tree(self):
        manifest = _load()
        regenerated, problems = schema.regenerate_manifest(ROOT, manifest)
        assert problems == []
        assert schema.render_manifest(regenerated) == schema.render_manifest(
            manifest
        )

    def test_regenerate_reports_unresolvable(self, tmp_path):
        manifest = {
            "version": schema.MANIFEST_VERSION,
            "entries": [
                {
                    "constant": {"name": "V", "path": "gone.py", "value": 1},
                    "functions": [
                        {
                            "fingerprint": "x",
                            "path": "gone.py",
                            "qualname": "f",
                        }
                    ],
                }
            ],
        }
        _, problems = schema.regenerate_manifest(tmp_path, manifest)
        assert len(problems) == 2

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(schema.ManifestError):
            schema.load_manifest(path)
