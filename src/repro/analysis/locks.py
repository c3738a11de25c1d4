"""Lock-discipline rules for the threaded serving/cluster/obs layers.

The coordinator fan-out, membership prober, worker pool and journal all
hold ``threading`` locks on hot paths.  Two classes of bug recur in such
code and are cheap to catch statically:

* **LOCK001** — a blocking call (socket I/O, ``urlopen``, ``time.sleep``,
  subprocess spawn, ``fsync``) executed while a lock is held: every other
  thread needing that lock stalls behind I/O it has nothing to do with.
  The rule resolves one level of *intra-file* calls too (a ``with lock:``
  body calling a local helper that blocks is flagged "via" the helper),
  and skips nested ``def``/``lambda`` bodies — code merely *defined* under
  a lock does not run under it.
* **LOCK002** — lock-acquisition-order inversions: if somewhere lock A is
  held while B is acquired, and somewhere else B is held while A is
  acquired, two threads can deadlock.  The rule builds a cross-module
  acquisition graph from lexically nested ``with`` statements and flags
  every A→B / B→A pair.

A name counts as a lock when its final attribute mentions ``lock``/``mutex``
or when the file assigns it a ``threading.Lock/RLock/Condition/Semaphore``.
``threading.Condition(existing_lock)`` aliases to the wrapped lock, so
acquiring a condition and its underlying lock is not reported as nesting.
Deliberate holds (e.g. the journal's append+fsync ordering) belong in the
committed baseline with a justification, not in code churn.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import FileContext, Finding, Project, Rule, dotted_name

#: Fully-dotted call chains that block the calling thread.
_BLOCKING_DOTTED = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.fdatasync",
        "os.system",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "urllib.request.urlopen",
        "select.select",
        "shutil.copyfileobj",
    }
)

#: Bare names that block when imported directly (``from time import sleep``).
_BLOCKING_NAMES = frozenset({"sleep", "urlopen", "fsync"})

#: Method names that block regardless of receiver (socket/HTTP surface).
_BLOCKING_ATTRS = frozenset(
    {"sendall", "recv", "recv_into", "accept", "getresponse", "makefile"}
)

#: ``threading`` constructors whose result is a lock (or wraps one).
_LOCK_CONSTRUCTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "Lock",
        "RLock",
        "Condition",
    }
)


def _terminal(name: str) -> str:
    return name.rpartition(".")[2]


def _looks_like_lock(name: str) -> bool:
    terminal = _terminal(name).lower()
    return "lock" in terminal or "mutex" in terminal


def _blocking_description(node: ast.Call) -> Optional[str]:
    """Why this call blocks, or None when it does not match the tables."""
    name = dotted_name(node.func)
    if name is not None:
        if name in _BLOCKING_DOTTED:
            return f"{name}()"
        if "." not in name and name in _BLOCKING_NAMES:
            return f"{name}()"
    if isinstance(node.func, ast.Attribute) and node.func.attr in _BLOCKING_ATTRS:
        receiver = dotted_name(node.func.value)
        prefix = f"{receiver}." if receiver else ""
        return f"{prefix}{node.func.attr}()"
    return None


class _FileFacts:
    """Per-file collection pass: declared locks and per-function blocking."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        #: dotted source text -> canonical lock identity
        self.lock_aliases: Dict[str, str] = {}
        #: function qualname -> [(description, lineno), ...] direct blockers
        self.direct_blocking: Dict[str, List[Tuple[str, int]]] = {}
        #: function qualname -> locally-called function qualnames
        self.local_calls: Dict[str, Set[str]] = {}
        #: ``from mod import name [as local]`` -> "mod.name", so a lock
        #: imported into two files canonicalizes to ONE identity and the
        #: cross-module inversion check can correlate them.
        self._imports: Dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._imports[local] = f"{node.module}.{alias.name}"
        self._collect()

    # -- lock identity ----------------------------------------------------
    def lock_identity(
        self, expr: ast.AST, class_name: Optional[str]
    ) -> Optional[str]:
        """Canonical identity of a with-target if it is (or names) a lock."""
        name = dotted_name(expr)
        if name is None:
            return None
        canonical = self._canonical(name, class_name)
        aliased = self.lock_aliases.get(canonical)
        if aliased is not None:
            return aliased
        if _looks_like_lock(name):
            return canonical
        return None

    def _canonical(self, name: str, class_name: Optional[str]) -> str:
        if name.startswith("self.") and class_name:
            return f"{class_name}.{name[len('self.'):]}"
        if "." not in name:
            imported = self._imports.get(name)
            if imported is not None:
                return imported
            return f"{self.ctx.relpath}:{name}"
        return name

    # -- collection --------------------------------------------------------
    def _collect(self) -> None:
        self._walk_scope(self.ctx.tree.body, class_name=None, qualname="<module>")

    def _walk_scope(
        self, body: List[ast.stmt], class_name: Optional[str], qualname: str
    ) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                self._walk_scope(stmt.body, class_name=stmt.name, qualname=qualname)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func_qualname = (
                    f"{class_name}.{stmt.name}" if class_name else stmt.name
                )
                self._collect_function(stmt, class_name, func_qualname)
            else:
                self._collect_assignments(stmt, class_name)

    def _collect_function(
        self,
        func: ast.AST,
        class_name: Optional[str],
        qualname: str,
    ) -> None:
        direct: List[Tuple[str, int]] = []
        calls: Set[str] = set()
        for node in self._walk_excluding_nested(func):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._collect_assignments(node, class_name)
            if not isinstance(node, ast.Call):
                continue
            description = _blocking_description(node)
            if description is not None:
                direct.append((description, node.lineno))
            name = dotted_name(node.func)
            if name is None:
                continue
            if name.startswith("self.") and class_name and name.count(".") == 1:
                calls.add(f"{class_name}.{name[len('self.'):]}")
            elif "." not in name:
                calls.add(name)
        self.direct_blocking[qualname] = direct
        self.local_calls[qualname] = calls
        # Nested defs get their own entries (they can be called locally too).
        for stmt in ast.walk(func):  # type: ignore[arg-type]
            if stmt is func:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(stmt, class_name, stmt.name)

    @staticmethod
    def _walk_excluding_nested(func: ast.AST) -> Iterable[ast.AST]:
        """Walk a function body without descending into nested defs/lambdas."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _collect_assignments(self, stmt: ast.AST, class_name: Optional[str]) -> None:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            ctor = dotted_name(node.value.func)
            if ctor not in _LOCK_CONSTRUCTORS:
                continue
            # Condition(existing_lock) aliases to the wrapped lock identity.
            alias_target: Optional[str] = None
            if _terminal(ctor) == "Condition" and node.value.args:
                wrapped = dotted_name(node.value.args[0])
                if wrapped is not None:
                    wrapped_canonical = self._canonical(wrapped, class_name)
                    alias_target = self.lock_aliases.get(
                        wrapped_canonical,
                        wrapped_canonical if _looks_like_lock(wrapped) else None,
                    )
            for target in node.targets:
                name = dotted_name(target)
                if name is None:
                    continue
                canonical = self._canonical(name, class_name)
                self.lock_aliases[canonical] = alias_target or canonical

    def blocks_transitively(self, qualname: str) -> Optional[Tuple[str, str]]:
        """(description, via) when calling ``qualname`` may block.

        ``via`` is ``""`` for a direct blocker or the callee chain for an
        intra-file indirect one.  Bounded fixpoint over local calls.
        """
        seen: Set[str] = set()
        frontier: List[Tuple[str, str]] = [(qualname, "")]
        while frontier:
            current, chain = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            direct = self.direct_blocking.get(current)
            if direct is None:
                continue  # not a local function
            if direct:
                description = direct[0][0]
                return description, chain
            for callee in sorted(self.local_calls.get(current, ())):
                next_chain = f"{chain} -> {callee}()" if chain else f"{callee}()"
                frontier.append((callee, next_chain))
        return None


class BlockingCallUnderLockRule(Rule):
    rule_id = "LOCK001"
    description = (
        "blocking call (I/O, sleep, subprocess, fsync) executed while a "
        "threading lock is held"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        facts = _FileFacts(ctx)
        findings: List[Finding] = []
        for stmt in ctx.tree.body:
            self._visit(stmt, facts, None, (), findings)
        return findings

    def _visit(
        self,
        node: ast.AST,
        facts: _FileFacts,
        class_name: Optional[str],
        held: Tuple[str, ...],
        findings: List[Finding],
    ) -> None:
        """One pass tracking the held-lock stack; each blocking call is
        reported once, against the innermost lock held at its site."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # The held stack resets: a lock is held at the *call* site, not
            # where a nested function happens to be defined.
            body = node.body if not isinstance(node, ast.Lambda) else [node.body]
            for child in body:  # type: ignore[union-attr]
                self._visit(child, facts, class_name, (), findings)
            return
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                self._visit(child, facts, node.name, held, findings)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            new_held = held
            for item in node.items:
                # The context expression itself runs before acquisition.
                self._visit(item.context_expr, facts, class_name, held, findings)
                identity = facts.lock_identity(item.context_expr, class_name)
                if identity is not None and identity not in new_held:
                    new_held = new_held + (identity,)
            for child in node.body:
                self._visit(child, facts, class_name, new_held, findings)
            return
        if isinstance(node, ast.Call) and held:
            self._check_call(node, facts, class_name, held, findings)
        for child in ast.iter_child_nodes(node):
            self._visit(child, facts, class_name, held, findings)

    def _check_call(
        self,
        node: ast.Call,
        facts: _FileFacts,
        class_name: Optional[str],
        held: Tuple[str, ...],
        findings: List[Finding],
    ) -> None:
        lock = held[-1]
        description = _blocking_description(node)
        if description is not None:
            findings.append(self._make(facts, node.lineno, lock, description, via=""))
            return
        qualname = self._local_qualname(dotted_name(node.func), class_name)
        if qualname is None:
            return
        blocked = facts.blocks_transitively(qualname)
        if blocked is None:
            return
        inner_description, chain = blocked
        via = f"{qualname}()"
        if chain:
            via = f"{via} -> {chain}"
        findings.append(
            self._make(facts, node.lineno, lock, inner_description, via=via)
        )

    @staticmethod
    def _local_qualname(
        name: Optional[str], class_name: Optional[str]
    ) -> Optional[str]:
        if name is None:
            return None
        if name.startswith("self.") and class_name and name.count(".") == 1:
            return f"{class_name}.{name[len('self.'):]}"
        if "." not in name:
            return name
        return None

    def _make(
        self,
        facts: _FileFacts,
        line: int,
        lock: str,
        description: str,
        via: str,
    ) -> Finding:
        suffix = f" via {via}" if via else ""
        return Finding(
            self.rule_id,
            self.severity,
            facts.ctx.relpath,
            line,
            f"blocking call {description}{suffix} while holding {lock}: "
            f"every thread contending on that lock stalls behind the I/O; "
            f"move the blocking work outside the critical section or "
            f"baseline with a justification",
        )


class LockOrderInversionRule(Rule):
    rule_id = "LOCK002"
    description = (
        "lock-acquisition-order inversion (A held while taking B, elsewhere "
        "B held while taking A) can deadlock"
    )

    def __init__(self, scopes: Optional[Tuple[str, ...]] = None) -> None:
        super().__init__(scopes)
        self._edges: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        facts = _FileFacts(ctx)
        for stmt in ctx.tree.body:
            self._visit(stmt, facts, None, ())
        return ()

    def _visit(
        self,
        node: ast.AST,
        facts: _FileFacts,
        class_name: Optional[str],
        held: Tuple[str, ...],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in node.body:
                self._visit(child, facts, class_name, ())
            return
        if isinstance(node, ast.Lambda):
            self._visit(node.body, facts, class_name, ())
            return
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                self._visit(child, facts, node.name, held)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            new_held = held
            for item in node.items:
                identity = facts.lock_identity(item.context_expr, class_name)
                if identity is None:
                    continue
                for outer in new_held:
                    if outer != identity:
                        self._edges.setdefault((outer, identity), []).append(
                            (facts.ctx.relpath, node.lineno)
                        )
                if identity not in new_held:
                    new_held = new_held + (identity,)
            for child in node.body:
                self._visit(child, facts, class_name, new_held)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, facts, class_name, held)

    def finalize(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        reported: Set[Tuple[str, str]] = set()
        for (a, b), sites in sorted(self._edges.items()):
            if (b, a) not in self._edges:
                continue
            pair = (min(a, b), max(a, b))
            if pair in reported:
                continue
            reported.add(pair)
            path, line = sites[0]
            other_path, other_line = self._edges[(b, a)][0]
            findings.append(
                Finding(
                    self.rule_id,
                    self.severity,
                    path,
                    line,
                    f"lock order inversion: {a} is held while acquiring {b} "
                    f"here, but {other_path} acquires {a} while holding {b}; "
                    f"pick one global order for the pair",
                )
            )
        self._edges.clear()
        return findings
