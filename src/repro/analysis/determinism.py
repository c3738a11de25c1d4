"""Determinism rules: the solver paths must be bit-identical across runs.

The core guarantee of this reproduction is that parallel, cached, clustered
and kernel-accelerated solves produce *exactly* the bytes the reference
serial solver produces.  Three recurring ways Python code breaks that:

* **DET001** — iterating a ``set``/``frozenset``: iteration order depends on
  insertion history and, for strings, on the per-process hash seed.  PR 1
  chased exactly this class of bug through ``graph/simplify.py``.  Scoped to
  the solver paths (``repro/graph/``, ``repro/core/``, ``repro/runtime/``)
  where ordering feeds output bytes; iterate ``sorted(...)`` or a list
  instead, or baseline the finding when order provably cannot escape.
* **DET002** — module-level ``random.*`` / legacy ``numpy.random.*`` calls:
  the shared global RNG makes results depend on everything else that drew
  from it.  Use an explicitly seeded ``random.Random`` /
  ``numpy.random.default_rng`` / bit-generator instance (as
  ``repro.bench.synthetic`` and ``repro.opt.sdp`` already do).
* **DET003** — wall-clock time, ``id()``, ``os.urandom`` or ``uuid`` values
  inside canonical-hashing code (functions whose name mentions hashing,
  fingerprinting, canonicalisation or cache keys): any such value differs
  across processes, so two nodes would compute different keys for the same
  component and the cache/affinity layers silently stop deduplicating.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List

from repro.analysis.engine import FileContext, Finding, Rule, dotted_name

#: Path fragments of the solver paths whose iteration order reaches output.
SOLVER_SCOPES = ("repro/graph/", "repro/core/", "repro/runtime/")

#: ``random`` module functions drawing from the shared global RNG.
_GLOBAL_RANDOM = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "triangular",
        "betavariate",
        "expovariate",
        "getrandbits",
        "randbytes",
    }
)

#: Legacy ``numpy.random`` global-state functions (``default_rng`` is fine).
_GLOBAL_NP_RANDOM = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "seed",
    }
)

#: Call chains whose value differs across runs/processes.
_NONDETERMINISTIC_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Function-name fragments marking a canonical-hashing context for DET003.
_HASHING_NAME_FRAGMENTS = ("hash", "fingerprint", "canonical", "cache_key", "digest")


def _is_set_expression(node: ast.AST, known_sets: Dict[str, int]) -> bool:
    """True when ``node`` evaluates to a set with nondeterministic order."""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra keeps set-ness; require at least one known-set side so
        # integer arithmetic never matches.
        return _is_set_expression(node.left, known_sets) or _is_set_expression(
            node.right, known_sets
        )
    if isinstance(node, ast.Name):
        return node.id in known_sets
    return False


class _SetIterationVisitor(ast.NodeVisitor):
    """Scope-aware walk flagging iteration over set-valued expressions."""

    def __init__(self, rule: "SetIterationRule", ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.findings: List[Finding] = []
        self._scopes: List[Dict[str, int]] = [{}]

    # -- scope handling ---------------------------------------------------
    def _push_scope(self) -> None:
        self._scopes.append({})

    def _pop_scope(self) -> None:
        self._scopes.pop()

    def _known_sets(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for scope in self._scopes:
            merged.update(scope)
        return merged

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._push_scope()
        self.generic_visit(node)
        self._pop_scope()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._push_scope()
        self.generic_visit(node)
        self._pop_scope()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._push_scope()
        self.generic_visit(node)
        self._pop_scope()

    # -- assignment tracking ----------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self._track(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._track([node.target], node.value)
        self.generic_visit(node)

    def _track(self, targets: List[ast.AST], value: ast.AST) -> None:
        scope = self._scopes[-1]
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if _is_set_expression(value, self._known_sets()):
                scope[target.id] = target.lineno
            else:
                # Rebinding to a non-set value clears the mark.
                scope.pop(target.id, None)

    # -- iteration sites ---------------------------------------------------
    def _check_iter(self, iter_node: ast.AST) -> None:
        if _is_set_expression(iter_node, self._known_sets()):
            described = dotted_name(iter_node)
            what = (
                f"set {described!r}" if described else "a set-valued expression"
            )
            self.findings.append(
                self.rule.finding(
                    self.ctx,
                    iter_node.lineno,
                    f"iteration over {what}: set order is nondeterministic "
                    f"on the solver path; iterate sorted(...) or a list, or "
                    f"baseline with a justification that order cannot reach "
                    f"the output",
                )
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for generator in node.generators:  # type: ignore[attr-defined]
            self._check_iter(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # ``sorted(s)``, ``len(s)``, ``min(s)`` — order-insensitive or
    # order-restoring consumers — are naturally skipped: only For loops and
    # comprehension generators are iteration sites for this rule.


class SetIterationRule(Rule):
    rule_id = "DET001"
    description = (
        "iteration over set/frozenset values on the solver paths "
        "(graph/, core/, runtime/) is order-nondeterministic"
    )
    scopes = SOLVER_SCOPES

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        visitor = _SetIterationVisitor(self, ctx)
        visitor.visit(ctx.tree)
        return visitor.findings


class UnseededRandomRule(Rule):
    rule_id = "DET002"
    description = (
        "module-level random.*/numpy.random.* calls draw from the shared "
        "unseeded global RNG"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or "." not in name:
                continue
            head, _, attr = name.rpartition(".")
            if head == "random" and attr in _GLOBAL_RANDOM:
                findings.append(
                    self.finding(
                        ctx,
                        node.lineno,
                        f"{name}() uses the shared global RNG; results depend "
                        f"on everything else that drew from it — use an "
                        f"explicitly seeded random.Random instance",
                    )
                )
            elif head in ("np.random", "numpy.random") and attr in _GLOBAL_NP_RANDOM:
                findings.append(
                    self.finding(
                        ctx,
                        node.lineno,
                        f"{name}() uses numpy's legacy global RNG state; use "
                        f"a seeded numpy.random.default_rng(...) generator",
                    )
                )
        return findings


class NondeterministicHashInputRule(Rule):
    rule_id = "DET003"
    description = (
        "wall-clock/id()/urandom values inside canonical-hashing functions "
        "differ across processes and break cache-key stability"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            lowered = func.name.lower()
            if not any(frag in lowered for frag in _HASHING_NAME_FRAGMENTS):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name in _NONDETERMINISTIC_SOURCES or name == "id":
                    findings.append(
                        self.finding(
                            ctx,
                            node.lineno,
                            f"{name}() inside canonical-hashing function "
                            f"{func.name}(): the value differs across "
                            f"runs/processes, so two nodes would disagree on "
                            f"the key for identical input",
                        )
                    )
        return findings
