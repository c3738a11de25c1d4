"""The answer pin: what the solvers answer on a fixed corpus, as one digest.

SCHEMA lint (:mod:`repro.analysis.schema`) fingerprints the functions that
derive a cache key.  A cached coloring is valid only while the solvers still
give the same answer under that key, and the division, the solvers and the
compiled core sit outside every fingerprint.  So the manifest also pins an
*answer digest* beside ``_SCHEMA_VERSION``: a sha256 over the rank-space
:class:`~repro.runtime.cache.ComponentSolve` (coloring, report
delta, timeout count) of every distinct component of :data:`CORPUS`, each
solved once through :func:`~repro.runtime.component_io.solve_component`.

A change that moves any answer must bump ``_SCHEMA_VERSION`` and re-pin
(``python -m repro.analysis --update-manifest``); a change that must not move
answers (a faster division, a new backend) keeps the pin as it is.  The
manifest keeps, per corpus case, the first 8 hex digits of each component's
record digest, so a failing check names the first component that differs.

The ILP is outside the pin: its answers depend on scipy's HiGHS build and on
a wall-clock budget.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bench.circuits import TABLE1_CIRCUITS, TABLE2_CIRCUITS

#: Circuit scale of every corpus case.
CORPUS_SCALE = 0.1

#: Hex digits of each component's record digest kept in the manifest.
PREFIX_DIGITS = 8

#: The ``_SCHEMA_VERSION`` entry's file in the manifest.
SCHEMA_CONSTANT_PATH = "src/repro/runtime/hashing.py"


@dataclass(frozen=True)
class AnswerCase:
    """One circuit solved under one configuration."""

    circuit: str
    num_colors: int
    algorithm: str
    #: A :class:`~repro.core.options.DivisionOptions` flag switched off.
    disabled: Optional[str] = None

    @property
    def label(self) -> str:
        label = f"{self.circuit} K={self.num_colors} {self.algorithm}"
        return f"{label} {self.disabled}=off" if self.disabled else label

    def options(self):
        from repro.runtime.component_io import options_for

        options = options_for(self.num_colors, self.algorithm)
        if self.disabled:
            options.division = replace(options.division, **{self.disabled: False})
        return options


def _corpus() -> Tuple[AnswerCase, ...]:
    cases: List[AnswerCase] = []
    for circuits, num_colors in ((TABLE1_CIRCUITS, 4), (TABLE2_CIRCUITS, 5)):
        for circuit in circuits:
            for algorithm in ("greedy", "linear", "sdp-backtrack"):
                cases.append(AnswerCase(circuit, num_colors, algorithm))
    for disabled in (
        "independent_components",
        "low_degree_removal",
        "biconnected_components",
        "ghtree_cut_removal",
    ):
        for circuit, num_colors in (("C432", 4), ("C6288", 5)):
            for algorithm in ("greedy", "linear"):
                cases.append(AnswerCase(circuit, num_colors, algorithm, disabled))
    return tuple(cases)


#: Table 1 at K=4 and Table 2 at K=5 with three algorithms, then two
#: circuits with each division technique switched off.
CORPUS: Tuple[AnswerCase, ...] = _corpus()


@dataclass(frozen=True)
class ComponentAnswer:
    """One distinct component's solve, digested."""

    case: str
    index: int
    vertices: int
    key: str
    digest: str


def record_digest(solve) -> str:
    """sha256 of one :class:`ComponentSolve`'s answer, ignoring how it ran."""
    from repro.runtime.component_io import report_to_wire

    payload = json.dumps(
        {
            "ranks": list(solve.ranks),
            "report": report_to_wire(solve.report),
            "solver_timeouts": solve.solver_timeouts,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def solve_corpus() -> Iterator[ComponentAnswer]:
    """Solve every distinct component of :data:`CORPUS`, in corpus order.

    Components are split and keyed the way
    :func:`repro.runtime.pipeline.color_graph` splits and keys them; a
    component whose key an earlier one already had is not solved again.
    """
    from repro.bench.factory import circuit_graph
    from repro.graph.components import connected_components
    from repro.runtime.component_io import solve_component
    from repro.runtime.hashing import canonical_component_key

    seen = set()
    for case in CORPUS:
        options = case.options()
        graph = circuit_graph(case.circuit, case.num_colors, scale=CORPUS_SCALE).graph
        if options.division.independent_components:
            components = connected_components(graph)
        else:
            components = [graph.vertices()]
        index = 0
        for component in components:
            subgraph = graph.subgraph(component)
            key = canonical_component_key(
                subgraph,
                options.num_colors,
                options.algorithm,
                options.algorithm_options,
                options.division,
            )
            if key in seen:
                continue
            seen.add(key)
            solve = solve_component(subgraph, options, key)
            yield ComponentAnswer(
                case.label, index, subgraph.num_vertices, key, record_digest(solve)
            )
            index += 1


def answer_pin(answers: List[ComponentAnswer]) -> Dict[str, object]:
    """The manifest's ``answers`` value for a solved corpus."""
    total = hashlib.sha256()
    cases: Dict[str, List[str]] = {case.label: [] for case in CORPUS}
    for answer in answers:
        total.update(answer.digest.encode("ascii"))
        cases[answer.case].append(answer.digest[:PREFIX_DIGITS])
    return {
        "cases": {label: " ".join(prefixes) for label, prefixes in cases.items()},
        "components": len(answers),
        "digest": total.hexdigest(),
    }


def first_difference(pinned: Dict, answers: List[ComponentAnswer]) -> Optional[str]:
    """Describe the first component whose answer differs from ``pinned``.

    ``None`` when the whole digest matches.
    """
    current = answer_pin(answers)
    if current["digest"] == pinned.get("digest"):
        return None
    pinned_cases = pinned.get("cases", {})
    for case in CORPUS:
        expected = pinned_cases.get(case.label, "").split()
        got = [a for a in answers if a.case == case.label]
        for answer in got:
            if answer.index >= len(expected) or (
                expected[answer.index] != answer.digest[:PREFIX_DIGITS]
            ):
                return (
                    f"case {case.label!r}, component {answer.index} "
                    f"({answer.vertices} vertices, key {answer.key[:16]})"
                )
        if len(expected) > len(got):
            return f"case {case.label!r}: {len(expected)} components pinned, {len(got)} solved"
    return (
        f"digest {current['digest'][:16]} differs from the pinned "
        f"{str(pinned.get('digest'))[:16]}, though every component prefix matches"
    )


def schema_entry(manifest: Dict) -> Dict:
    """The manifest entry pinning ``_SCHEMA_VERSION``."""
    for entry in manifest["entries"]:
        constant = entry.get("constant", {})
        if constant.get("name") == "_SCHEMA_VERSION" and (
            constant.get("path") == SCHEMA_CONSTANT_PATH
        ):
            return entry
    raise KeyError("the schema manifest has no _SCHEMA_VERSION entry")


def pin_answers(manifest: Dict) -> Dict:
    """Re-solve the corpus and store its pin in ``manifest`` (returned)."""
    schema_entry(manifest)["answers"] = answer_pin(list(solve_corpus()))
    return manifest
