"""Seeded mutation suite for the journal reader.

A journal of several rotated segments is damaged in one segment at a time:
seeded bit flips, inserted bytes, deleted runs, duplicated runs and
truncations, plus a literal corpus of lines on the decoder's edges.  Every
mutant must read without an exception and identically twice, pass through
the lifecycle checker and ``replay --check`` without an exception, and
reopen for one more append whose ``seq`` is above every integer ``seq``
the reads returned and which the next read returns last.  A failure names
the mutation and its seed.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.obs.journal import EventJournal, read_journal
from repro.obs.replay import check_events, main as replay_main

pytestmark = pytest.mark.obs

#: Mutants per mutation kind.
SEEDS = range(40)
#: Bytes an insert draws from: JSON structure, digits, and raw bytes.
INSERT_ALPHABET = b'{}[]",:\\ \n0123456789-eEtrufalsn' + bytes([0, 0x80, 0xC3, 0xFF])


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Segment name -> bytes of a clean journal of several segments."""
    directory = tmp_path_factory.mktemp("pristine")
    journal = EventJournal(str(directory), max_segment_bytes=4096)
    for trace in range(40):
        trace_id = "%016x" % (trace + 1)
        journal.append({"event": "received", "trace_id": trace_id, "kind": "decompose"})
        for solved in range(1, 4):
            journal.append(
                {"event": "progress", "trace_id": trace_id, "solved": solved, "total": 3}
            )
        journal.append({"event": "completed", "trace_id": trace_id, "conflicts": trace})
    journal.close()
    segments = {
        name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))
    }
    assert len(segments) >= 4
    assert check_events(read_journal(str(directory))) == []
    return segments


def _flip(rng, data):
    if not data:
        return data
    at = rng.randrange(len(data))
    return data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1 :]


def _insert(rng, data):
    at = rng.randrange(len(data) + 1)
    run = bytes(rng.choice(INSERT_ALPHABET) for _ in range(rng.randint(1, 8)))
    return data[:at] + run + data[at:]


def _delete(rng, data):
    if not data:
        return data
    at = rng.randrange(len(data))
    return data[:at] + data[at + rng.randint(1, 64) :]


def _duplicate(rng, data):
    if not data:
        return data
    at = rng.randrange(len(data))
    run = data[at : at + rng.randint(1, 256)]
    return data[: at + len(run)] + run + data[at + len(run) :]


def _truncate(rng, data):
    return data[: rng.randrange(len(data) + 1)]


MUTATIONS = {
    "flip": _flip,
    "insert": _insert,
    "delete": _delete,
    "duplicate": _duplicate,
    "truncate": _truncate,
}


def _write(directory, segments):
    directory.mkdir()
    for name, data in segments.items():
        (directory / name).write_bytes(data)
    return str(directory)


def _check_mutant(directory, label, capsys):
    """The reader invariants on one damaged journal directory."""
    try:
        first = read_journal(directory)
        second = read_journal(directory)
        check_events(first)
        replay_main(["--journal", directory, "--check"])
        journal = EventJournal(directory, max_segment_bytes=4096)
        try:
            record = journal.append({"event": "received", "trace_id": "f" * 16})
        finally:
            journal.close()
    except Exception as exc:  # any escape fails with the mutant named
        pytest.fail(f"{label}: {type(exc).__name__}: {exc}"[:500])
    finally:
        capsys.readouterr()
    assert first == second, label
    seqs = [event["seq"] for event in first if isinstance(event.get("seq"), int)]
    assert record["seq"] > max(seqs, default=0), label
    assert read_journal(directory)[-1] == record, label


@pytest.mark.parametrize("kind", list(MUTATIONS))
def test_seeded_mutants_never_escape(pristine, tmp_path, capsys, kind):
    names = sorted(pristine)
    for seed in SEEDS:
        rng = random.Random(f"{kind}-{seed}")
        target = rng.choice(names)
        data = pristine[target]
        for _ in range(rng.randint(1, 3)):
            data = MUTATIONS[kind](rng, data)
        directory = _write(tmp_path / str(seed), {**pristine, target: data})
        _check_mutant(directory, f"{kind} seed {seed} on {target}", capsys)


#: A damaged line spliced into the middle of the second segment.
CORPUS = {
    "deep-nesting": b"[" * 100_000 + b"\n",
    "invalid-utf8": b'{"event":"received","seq":9999,"trace_id":"\xff\xfe"}\n',
    "nul-bytes": b'{"event":"rec\x00eived","seq":9999}\x00\n',
    "json-array-line": b'[{"event":"received","seq":9999,"trace_id":"x"}]\n',
    "string-seq": b'{"event":"received","seq":"9999","trace_id":"%s"}\n' % (b"e" * 16),
    "int-past-digit-limit": b'{"event":"received","seq":' + b"9" * 5000 + b"}\n",
    "seq-without-successor": b'{"event":"received","seq":' + b"9" * 4300 + b"}\n",
    "empty-segment": None,
}


@pytest.mark.parametrize("case", list(CORPUS))
def test_literal_corpus_never_escapes(pristine, tmp_path, capsys, case):
    names = sorted(pristine)
    data = pristine[names[1]]
    if CORPUS[case] is None:
        data = b""
    else:
        lines = data.splitlines(keepends=True)
        middle = len(lines) // 2
        data = b"".join(lines[:middle]) + CORPUS[case] + b"".join(lines[middle:])
    directory = _write(tmp_path / case, {**pristine, names[1]: data})
    _check_mutant(directory, case, capsys)
