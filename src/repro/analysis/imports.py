"""Import hygiene: a module imports only what it reads.

* **IMP001** — a name bound by ``import`` or ``from … import`` that nothing
  in the module reads.  A dead import still runs at import time, keeps a
  module on the cold-start path (see ``tests/test_cold_start.py``) and tells
  a reader about a dependency that does not exist.  Exempt: package
  ``__init__.py`` files (their imports are the package's re-exports), names
  listed in ``__all__``, ``from __future__`` directives, and an import
  whose line carries ``# noqa: F401`` or ``# noqa: IMP001`` — the marker of
  an import made for its side effect, such as loading a module before a
  clock starts.  A name read only inside a string annotation
  (``-> "Layout"``) counts as read.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Set

from repro.analysis.engine import FileContext, Finding, Rule

#: The per-line marker of a deliberate side-effect import.
_NOQA = re.compile(r"#\s*noqa:.*\b(F401|IMP001)\b")


class UnusedImportRule(Rule):
    """IMP001: an imported name the module never reads."""

    rule_id = "IMP001"
    severity = "error"
    description = "imported name is never read in its module"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.path.name == "__init__.py":
            return []
        used = _read_names(ctx.tree) | _exported_names(ctx.tree)
        lines = ctx.source.splitlines()
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                source = "." * node.level + (node.module or "")
            elif isinstance(node, ast.Import):
                source = None
            else:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                line = getattr(alias, "lineno", node.lineno)
                if bound in used or _NOQA.search(lines[line - 1]):
                    continue
                origin = f"from {source} import {alias.name}" if source is not None \
                    else f"import {alias.name}"
                findings.append(
                    self.finding(ctx, line, f"{bound!r} ({origin}) is imported but never read")
                )
        return findings


def _read_names(tree: ast.AST) -> Set[str]:
    """Every name the module loads, string annotations included."""
    names: Set[str] = set()
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(
                    inner.id for inner in ast.walk(quoted) if isinstance(inner, ast.Name)
                )
    return names


def _exported_names(tree: ast.AST) -> Set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    exported: Set[str] = set()
    for node in getattr(tree, "body", []):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            exported.update(
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            )
    return exported
