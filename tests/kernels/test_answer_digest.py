"""The solvers' answers on a fixed corpus against the manifest's pin.

Every distinct component of ``repro.analysis.answers.CORPUS`` (Table 1 at
K=4 and Table 2 at K=5, scale 0.1, with ``greedy``, ``linear`` and
``sdp-backtrack``, plus circuits with each division technique off) is solved
through ``solve_component``, and the digest of the rank-space records must
equal the one pinned beside ``_SCHEMA_VERSION`` in
``analysis/schema_manifest.json``.  CI runs this module in kernel modes
``off`` and ``compiled``, so it is a whole-corpus parity check too.

A change that moves an answer bumps ``_SCHEMA_VERSION`` and re-pins with
``python -m repro.analysis --update-manifest``.
"""

from __future__ import annotations

import pytest

from repro.analysis import answers, schema
from repro.runtime import hashing


@pytest.fixture(scope="module")
def solved():
    return list(answers.solve_corpus())


@pytest.fixture(scope="module")
def pinned():
    manifest = schema.load_manifest(schema.DEFAULT_MANIFEST_PATH)
    return answers.schema_entry(manifest)


def test_answers_match_the_pin(solved, pinned):
    pinned_version = pinned["constant"]["value"]
    difference = answers.first_difference(pinned["answers"], solved)
    if difference is None:
        return
    if hashing._SCHEMA_VERSION != pinned_version:
        pytest.fail(
            f"_SCHEMA_VERSION is {hashing._SCHEMA_VERSION}, the manifest pins "
            f"{pinned_version}: re-pin with python -m repro.analysis --update-manifest"
        )
    pytest.fail(
        f"answers moved while _SCHEMA_VERSION is still {pinned_version}; "
        f"first difference: {difference}"
    )


def test_pin_covers_the_corpus(solved, pinned):
    pin = pinned["answers"]
    assert pin["components"] == len(solved)
    assert set(pin["cases"]) == {case.label for case in answers.CORPUS}
    assert sum(len(prefixes.split()) for prefixes in pin["cases"].values()) == len(solved)


def test_a_moved_answer_is_named(solved):
    """The failure names the first component whose record differs."""
    pin = answers.answer_pin(solved)
    target = solved[len(solved) // 2]
    moved = [
        answers.ComponentAnswer(a.case, a.index, a.vertices, a.key, "0" * 64)
        if a is target
        else a
        for a in solved
    ]
    difference = answers.first_difference(pin, moved)
    assert difference == (
        f"case {target.case!r}, component {target.index} "
        f"({target.vertices} vertices, key {target.key[:16]})"
    )
    assert answers.first_difference(pin, solved) is None
