"""Driver for ``repro-decompose lint`` / ``python -m repro.analysis``.

Runs every registered rule family over the source tree, subtracts the
committed baseline (``lint_baseline.json`` at the repo root), and exits
non-zero when any unbaselined finding remains.  ``--json`` emits a
machine-readable report; ``--update-baseline`` and ``--update-manifest``
regenerate the two committed artefacts after a deliberate change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis import schema
from repro.analysis.baseline import (
    Baseline,
    BaselineError,
    placeholder_entries,
    render_baseline,
)
from repro.analysis.determinism import (
    NondeterministicHashInputRule,
    SetIterationRule,
    UnseededRandomRule,
)
from repro.analysis.engine import Rule, run_rules
from repro.analysis.exposition import (
    CounterSuffixRule,
    LabelConsistencyRule,
    MetricPrefixRule,
)
from repro.analysis.imports import UnusedImportRule
from repro.analysis.locks import BlockingCallUnderLockRule, LockOrderInversionRule

BASELINE_FILENAME = "lint_baseline.json"


def default_rules(manifest_path: Optional[Path] = None) -> List[Rule]:
    """The production rule set, in reporting-stability order."""
    return [
        SetIterationRule(),
        UnseededRandomRule(),
        NondeterministicHashInputRule(),
        BlockingCallUnderLockRule(),
        LockOrderInversionRule(),
        schema.SchemaManifestRule(manifest_path=manifest_path),
        MetricPrefixRule(),
        CounterSuffixRule(),
        LabelConsistencyRule(),
        UnusedImportRule(),
    ]


def find_root(start: Optional[Path] = None) -> Path:
    """Locate the repo root: nearest ancestor holding ``src/repro``.

    Falls back to deriving it from the installed package location so the
    linter also works when invoked from outside a checkout.
    """
    probe = (start or Path.cwd()).resolve()
    for candidate in (probe, *probe.parents):
        if (candidate / "src" / "repro").is_dir():
            return candidate
    import repro

    package_dir = Path(repro.__file__).resolve().parent  # .../src/repro
    return package_dir.parent.parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-decompose lint",
        description=(
            "Project-specific static analysis: determinism, lock discipline, "
            "schema-version coupling, metrics exposition and unused imports."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: <root>/src)",
    )
    parser.add_argument(
        "--root",
        help="repository root (default: autodetect from cwd, then from the "
        "installed package)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--baseline",
        help=f"baseline file (default: <root>/{BASELINE_FILENAME})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report every finding",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from current findings (entries get "
        "placeholder justifications that must be filled in by hand)",
    )
    parser.add_argument(
        "--manifest",
        help="schema manifest (default: the committed "
        "src/repro/analysis/schema_manifest.json)",
    )
    parser.add_argument(
        "--update-manifest",
        action="store_true",
        help="re-pin the schema manifest's constants, fingerprints and "
        "answer digest from the current tree (use after an intentional "
        "version bump)",
    )
    return parser


def _update_manifest(root: Path, manifest_path: Path) -> int:
    try:
        manifest = schema.load_manifest(manifest_path)
    except schema.ManifestError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    regenerated, problems = schema.regenerate_manifest(root, manifest)
    if problems:
        for problem in problems:
            print(f"lint: {problem}", file=sys.stderr)
        print(
            "lint: manifest NOT rewritten — fix the unresolvable entries "
            "first",
            file=sys.stderr,
        )
        return 2
    from repro.analysis.answers import pin_answers

    manifest_path.write_text(
        schema.render_manifest(pin_answers(regenerated)), encoding="utf-8"
    )
    print(f"lint: schema manifest re-pinned at {manifest_path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    root = Path(args.root).resolve() if args.root else find_root()
    manifest_path = (
        Path(args.manifest).resolve()
        if args.manifest
        else schema.DEFAULT_MANIFEST_PATH
    )
    if args.update_manifest:
        return _update_manifest(root, manifest_path)

    targets = (
        [Path(p).resolve() for p in args.paths]
        if args.paths
        else [root / "src"]
    )
    for target in targets:
        if not target.exists():
            print(f"lint: no such path: {target}", file=sys.stderr)
            return 2

    findings, files_scanned = run_rules(
        root, targets, default_rules(manifest_path)
    )

    baseline_path = (
        Path(args.baseline).resolve()
        if args.baseline
        else root / BASELINE_FILENAME
    )
    if args.update_baseline:
        baseline_path.write_text(render_baseline(findings), encoding="utf-8")
        print(
            f"lint: baseline rewritten with {len(findings)} finding(s) at "
            f"{baseline_path}; fill in every TODO justification before "
            f"committing"
        )
        return 0

    warnings: List[str] = []
    if args.no_baseline:
        baseline = Baseline([])
        fresh, suppressed = list(findings), []
    else:
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2
        fresh, suppressed = baseline.partition(findings)
        for entry in baseline.unused_entries():
            warnings.append(
                f"stale baseline entry (matched nothing): {entry['rule']} "
                f"{entry['path']}: {entry['match'][:80]}"
            )
        for entry in placeholder_entries(baseline):
            warnings.append(
                f"baseline entry still carries a TODO justification: "
                f"{entry['rule']} {entry['path']}"
            )

    if args.json:
        report = {
            "root": str(root),
            "files_scanned": files_scanned,
            "findings": [f.to_json_dict() for f in fresh],
            "suppressed": [f.to_json_dict() for f in suppressed],
            "warnings": warnings,
            "exit_code": 1 if fresh else 0,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for finding in fresh:
            print(finding.render())
        for warning in warnings:
            print(f"lint: warning: {warning}", file=sys.stderr)
        summary = (
            f"lint: {files_scanned} file(s), {len(fresh)} finding(s), "
            f"{len(suppressed)} baselined"
        )
        stream = sys.stderr if fresh else sys.stdout
        print(summary, file=stream)
    return 1 if fresh else 0


if __name__ == "__main__":
    raise SystemExit(main())
