"""Rule engine for the project's static-analysis pass (``repro-decompose lint``).

The linter exists to turn this repository's hard-won invariants into
machine-checked rules: bit-identical parallel/cached/clustered solves
(determinism rules), deadlock- and stall-free threaded subsystems
(lock-discipline rules), coupled schema/version bumps (schema-fingerprint
rules), a well-formed ``/metrics`` surface (exposition rules) and modules
that import only what they read (import rules).

The engine itself is generic and stdlib-only: it parses every target file
once, hands each :class:`FileContext` to every :class:`Rule`, then gives
each rule a project-wide ``finalize`` pass for cross-file analyses (the
lock-acquisition-order graph, metric label-set consistency, the schema
manifest).  Findings are plain frozen dataclasses ordered deterministically,
so two runs over the same tree render byte-identical reports — the property
the committed baseline file and the CI gate rely on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Severities a rule may assign.  Both gate the lint exit code; the split
#: exists so a future ratchet can demote a new rule to warning first.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule id anchored to a file/line with a message.

    The message deliberately never embeds line numbers or other
    position-dependent text: the baseline matches findings by
    ``(rule, path, message)`` so an unrelated edit moving code around does
    not invalidate accepted entries.
    """

    rule: str
    severity: str
    path: str  # repo-root-relative, posix separators
    line: int
    message: str

    def baseline_key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.message)

    def sort_key(self) -> Tuple[str, int, str, str]:
        return (self.path, self.line, self.rule, self.message)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.severity}: {self.message}"


class FileContext:
    """One parsed target file: source text, AST, root-relative path."""

    def __init__(self, root: Path, path: Path, source: str, tree: ast.AST) -> None:
        self.root = root
        self.path = path
        self.relpath = path.relative_to(root).as_posix()
        self.source = source
        self.tree = tree


class Project:
    """Everything a ``finalize`` pass may need: the root and every context."""

    def __init__(self, root: Path, contexts: Sequence[FileContext]) -> None:
        self.root = root
        self.contexts = list(contexts)

    def context(self, relpath: str) -> Optional[FileContext]:
        for ctx in self.contexts:
            if ctx.relpath == relpath:
                return ctx
        return None


class Rule:
    """Base class: subclasses override ``check_file`` and/or ``finalize``.

    ``scopes`` restricts ``check_file`` to files whose root-relative path
    contains any of the fragments; an empty tuple means every file.  Scoping
    lives here (not inside the rule logic) so the fixture tests can
    instantiate a rule with ``scopes=()`` and point it at arbitrary files.
    """

    rule_id: str = "RULE000"
    severity: str = "error"
    description: str = ""
    scopes: Tuple[str, ...] = ()

    def __init__(self, scopes: Optional[Tuple[str, ...]] = None) -> None:
        if scopes is not None:
            self.scopes = scopes

    def applies_to(self, relpath: str) -> bool:
        if not self.scopes:
            return True
        return any(fragment in relpath for fragment in self.scopes)

    def finding(self, ctx: FileContext, line: int, message: str) -> Finding:
        return Finding(self.rule_id, self.severity, ctx.relpath, line, message)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def finalize(self, project: Project) -> Iterable[Finding]:
        return ()


#: Rule id reported for files the engine itself cannot parse.
PARSE_RULE_ID = "ENGINE001"


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a deterministic sorted ``.py`` list."""
    out: List[Path] = []
    seen = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterator[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = iter([path])
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            out.append(candidate)
    return sorted(out)


def parse_contexts(
    root: Path, files: Sequence[Path]
) -> Tuple[List[FileContext], List[Finding]]:
    """Parse every file once; unparseable files become ENGINE001 findings."""
    contexts: List[FileContext] = []
    findings: List[Finding] = []
    for path in files:
        relpath = path.relative_to(root).as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", None) or 1
            findings.append(
                Finding(
                    PARSE_RULE_ID,
                    "error",
                    relpath,
                    int(line),
                    f"cannot parse file: {exc}",
                )
            )
            continue
        contexts.append(FileContext(root, path, source, tree))
    return contexts, findings


def run_rules(
    root: Path, paths: Sequence[Path], rules: Sequence[Rule]
) -> Tuple[List[Finding], int]:
    """Run every rule over the target set; returns (findings, files scanned)."""
    files = collect_files(paths)
    contexts, findings = parse_contexts(root, files)
    project = Project(root, contexts)
    for rule in rules:
        for ctx in contexts:
            if rule.applies_to(ctx.relpath):
                findings.extend(rule.check_file(ctx))
    for rule in rules:
        findings.extend(rule.finalize(project))
    return sorted(findings, key=Finding.sort_key), len(files)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
