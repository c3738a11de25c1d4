"""Metrics-exposition rules: the static complement of ``lint_metrics_text``.

``repro.service.metrics.lint_metrics_text`` validates a rendered payload at
runtime, but most registration sites only render under specific traffic
(pool counters need a pool, cache gauges need a cache).  These rules check
every *registration site* statically instead.  A registration site is
either a ``counter_family(...)`` / ``gauge_family(...)`` /
``histogram_family(...)`` helper call, or a raw 4-tuple literal
``(name, "counter"|"gauge"|"histogram", help, samples)`` of the shape
those helpers return.

* **MET001** — every registered family name carries the ``repro_`` prefix
  (namespace hygiene for a scraper that reads every process of a fleet
  next to other exporters);
* **MET002** — counters end in ``_total`` and nothing else does (the
  Prometheus suffix convention the runtime linter also enforces);
* **MET003** — the statically visible label keys for one family are
  consistent: across every registration site of that name, and across the
  sample literals within one site.  Divergent label sets make a family
  unjoinable in PromQL.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import (
    FileContext,
    Finding,
    Project,
    Rule,
    dotted_name,
)

_HELPER_TYPES = {
    "counter_family": "counter",
    "gauge_family": "gauge",
    "histogram_family": "histogram",
}

_FAMILY_TYPES = frozenset({"counter", "gauge", "histogram"})

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class Registration:
    """One statically visible metric-family registration site."""

    def __init__(
        self,
        relpath: str,
        line: int,
        name: str,
        family_type: str,
        samples: Optional[ast.AST],
    ) -> None:
        self.relpath = relpath
        self.line = line
        self.name = name
        self.family_type = family_type
        #: Label key sets readable from literal sample dicts; None entries
        #: mean "a dict we could not resolve statically" and are skipped.
        self.label_sets = _literal_label_sets(samples) if samples else []


def _literal_label_sets(samples: ast.AST) -> List[frozenset]:
    """Label-key sets of every literal ``({...}, value)`` sample pair.

    Walks the samples expression (list literal, comprehension, whatever) and
    reads each dict literal appearing as the first element of a 2-tuple.
    Dicts with non-constant keys (``**`` merges, computed keys) are ignored
    rather than guessed at.
    """
    out: List[frozenset] = []
    for node in ast.walk(samples):
        if not (isinstance(node, ast.Tuple) and len(node.elts) == 2):
            continue
        labels = node.elts[0]
        if not isinstance(labels, ast.Dict):
            continue
        keys: Set[str] = set()
        resolvable = True
        for key in labels.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.add(key.value)
            else:
                resolvable = False
                break
        if resolvable:
            out.append(frozenset(keys))
    return out


def _registrations(ctx: FileContext) -> List[Registration]:
    regs: List[Registration] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee is None:
                continue
            helper = callee.rpartition(".")[2]
            family_type = _HELPER_TYPES.get(helper)
            if family_type is None or not node.args:
                continue
            name_arg = node.args[0]
            if not (
                isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
            ):
                continue
            samples = node.args[2] if len(node.args) > 2 else None
            regs.append(
                Registration(
                    ctx.relpath, node.lineno, name_arg.value, family_type, samples
                )
            )
        elif isinstance(node, ast.Tuple) and len(node.elts) == 4:
            name_el, type_el = node.elts[0], node.elts[1]
            if not (
                isinstance(name_el, ast.Constant)
                and isinstance(name_el.value, str)
                and isinstance(type_el, ast.Constant)
                and type_el.value in _FAMILY_TYPES
            ):
                continue
            regs.append(
                Registration(
                    ctx.relpath,
                    node.lineno,
                    name_el.value,
                    str(type_el.value),
                    node.elts[3],
                )
            )
    return regs


class MetricPrefixRule(Rule):
    rule_id = "MET001"
    description = "registered metric-family names must carry the repro_ prefix"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for reg in _registrations(ctx):
            if not _NAME_RE.match(reg.name):
                findings.append(
                    self.finding(
                        ctx,
                        reg.line,
                        f"metric family {reg.name!r} is not a valid "
                        f"Prometheus metric name",
                    )
                )
            elif not reg.name.startswith("repro_"):
                findings.append(
                    self.finding(
                        ctx,
                        reg.line,
                        f"metric family {reg.name!r} lacks the repro_ "
                        f"namespace prefix; un-namespaced metrics collide "
                        f"when scraped alongside other exporters",
                    )
                )
        return findings


class CounterSuffixRule(Rule):
    rule_id = "MET002"
    description = "counters end in _total; gauges and histograms must not"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for reg in _registrations(ctx):
            ends_total = reg.name.endswith("_total")
            if reg.family_type == "counter" and not ends_total:
                findings.append(
                    self.finding(
                        ctx,
                        reg.line,
                        f"counter family {reg.name!r} does not end in "
                        f"_total (Prometheus counter naming convention)",
                    )
                )
            elif reg.family_type != "counter" and ends_total:
                findings.append(
                    self.finding(
                        ctx,
                        reg.line,
                        f"{reg.family_type} family {reg.name!r} ends in "
                        f"_total, which marks counters; rename or retype",
                    )
                )
        return findings


class LabelConsistencyRule(Rule):
    rule_id = "MET003"
    description = (
        "statically visible label keys for one metric family must agree "
        "across its registration sites"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        # Intra-site check: one registration whose literal samples disagree.
        findings: List[Finding] = []
        for reg in _registrations(ctx):
            distinct = sorted({tuple(sorted(s)) for s in reg.label_sets})
            if len(distinct) > 1:
                rendered = "; ".join(
                    "{" + ", ".join(keys) + "}" for keys in distinct
                )
                findings.append(
                    self.finding(
                        ctx,
                        reg.line,
                        f"metric family {reg.name!r} mixes label sets "
                        f"within one registration site: {rendered}",
                    )
                )
        return findings

    def finalize(self, project: Project) -> Iterable[Finding]:
        # Cross-site check: the same family name registered in two places
        # with different label keys.  A site whose own samples disagree was
        # already flagged by check_file, so it is skipped here rather than
        # reported twice.
        sites: Dict[str, List[Tuple[str, int, frozenset]]] = {}
        for ctx in project.contexts:
            if not self.applies_to(ctx.relpath):
                continue
            for reg in _registrations(ctx):
                site_sets = {frozenset(s) for s in reg.label_sets}
                if len(site_sets) != 1:
                    continue
                sites.setdefault(reg.name, []).append(
                    (ctx.relpath, reg.line, next(iter(site_sets)))
                )
        findings: List[Finding] = []
        for name in sorted(sites):
            entries = sites[name]
            distinct = sorted({tuple(sorted(s)) for _, _, s in entries})
            if len(distinct) <= 1:
                continue
            by_set: Dict[Tuple[str, ...], str] = {}
            for relpath, line, label_set in entries:
                key = tuple(sorted(label_set))
                by_set.setdefault(key, f"{relpath} ({{{', '.join(key)}}})")
            first_path, first_line = entries[0][0], entries[0][1]
            findings.append(
                Finding(
                    self.rule_id,
                    self.severity,
                    first_path,
                    first_line,
                    f"metric family {name!r} is registered with divergent "
                    f"label sets: "
                    + "; ".join(by_set[k] for k in sorted(by_set)),
                )
            )
        return findings
