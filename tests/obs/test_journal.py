"""Event journal: rotation, crash recovery, deterministic reads."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError
from repro.obs.journal import EventJournal, journal_segment_plan, read_journal

pytestmark = pytest.mark.obs


def _segments(directory):
    return sorted(n for n in os.listdir(directory) if n.endswith(".jsonl"))


class TestAppend:
    def test_seq_and_ts_stamped(self, tmp_path):
        journal = EventJournal(str(tmp_path))
        first = journal.append({"event": "received", "trace_id": "a" * 16})
        second = journal.append({"event": "completed", "trace_id": "a" * 16})
        journal.close()
        assert (first["seq"], second["seq"]) == (1, 2)
        assert isinstance(first["ts"], float)
        assert read_journal(str(tmp_path)) == [first, second]

    def test_append_after_close_raises(self, tmp_path):
        journal = EventJournal(str(tmp_path))
        journal.close()
        with pytest.raises(RuntimeError):
            journal.append({"event": "received"})

    def test_lines_are_compact_sorted_json(self, tmp_path):
        journal = EventJournal(str(tmp_path))
        journal.append({"zeta": 1, "alpha": 2, "event": "received"})
        journal.close()
        (line,) = (tmp_path / "events-000001.jsonl").read_text().splitlines()
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))


class TestRotation:
    def test_segments_rotate_at_size_cap(self, tmp_path):
        journal = EventJournal(str(tmp_path), max_segment_bytes=4096)
        for i in range(200):
            journal.append({"event": "progress", "trace_id": "b" * 16, "i": i})
        journal.close()
        names = _segments(tmp_path)
        assert len(names) >= 2
        assert names[0] == "events-000001.jsonl"
        # seq stays globally strict across the segment boundary.
        events = read_journal(str(tmp_path))
        assert [e["seq"] for e in events] == list(range(1, 201))

    def test_reopen_resumes_seq_in_tail_segment(self, tmp_path):
        journal = EventJournal(str(tmp_path), max_segment_bytes=4096)
        for i in range(50):
            journal.append({"event": "progress", "i": i})
        journal.close()
        reopened = EventJournal(str(tmp_path), max_segment_bytes=4096)
        record = reopened.append({"event": "progress", "i": 50})
        reopened.close()
        assert record["seq"] == 51
        assert len(read_journal(str(tmp_path))) == 51


class TestRecovery:
    def _journal_with_torn_tail(self, tmp_path):
        journal = EventJournal(str(tmp_path))
        for i in range(5):
            journal.append({"event": "progress", "trace_id": "c" * 16, "i": i})
        journal.close()
        path = tmp_path / "events-000001.jsonl"
        intact = path.read_bytes()
        # Simulate kill -9 mid-write: half of a sixth record, no newline.
        path.write_bytes(intact + b'{"event":"progress","seq":6,"tr')
        return path, intact

    def test_torn_tail_truncated_on_open(self, tmp_path):
        path, intact = self._journal_with_torn_tail(tmp_path)
        reopened = EventJournal(str(tmp_path))
        reopened.close()
        assert path.read_bytes() == intact
        assert reopened.recovered_bytes > 0
        assert reopened.stats()["recovered_bytes"] > 0

    def test_seq_resumes_after_recovered_tail(self, tmp_path):
        self._journal_with_torn_tail(tmp_path)
        reopened = EventJournal(str(tmp_path))
        record = reopened.append({"event": "completed", "trace_id": "c" * 16})
        reopened.close()
        assert record["seq"] == 6  # the torn seq=6 never became durable
        events = read_journal(str(tmp_path))
        assert [e["seq"] for e in events] == [1, 2, 3, 4, 5, 6]

    def test_corrupt_middle_line_stops_that_segment(self, tmp_path):
        """A non-JSON line (disk corruption) hides the rest of its segment
        but never crashes the reader."""
        journal = EventJournal(str(tmp_path))
        for i in range(3):
            journal.append({"event": "progress", "i": i})
        journal.close()
        path = tmp_path / "events-000001.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"\x00garbage\n" + lines[2])
        assert [e["seq"] for e in read_journal(str(tmp_path))] == [1]

    def test_line_too_deep_to_decode_stops_that_segment(self, tmp_path):
        """A line ``json.loads`` cannot nest through is undecodable like any
        other corrupt line: it stops its segment for readers and recovery,
        and the journal reopens and appends after the last durable seq."""
        journal = EventJournal(str(tmp_path))
        for i in range(3):
            journal.append({"event": "progress", "i": i})
        journal.close()
        path = tmp_path / "events-000001.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"[" * 100_000 + b"\n" + lines[2])
        assert [e["seq"] for e in read_journal(str(tmp_path))] == [1]
        reopened = EventJournal(str(tmp_path))
        assert [e["seq"] for e in reopened.events()] == [1]
        assert reopened.append({"event": "progress", "i": 3})["seq"] == 2
        reopened.close()

    @pytest.mark.parametrize(
        "bad_line, hides_rest",
        [(b"\xff\xfe not utf-8", True), (b"[" * 100_000, True), (b"[1, 2, 3]", False)],
        ids=["invalid-utf8", "too-deep", "json-array"],
    )
    def test_open_journal_reads_like_read_journal(self, tmp_path, bad_line, hides_rest):
        """``events()`` of an open journal and ``read_journal`` decode lines
        the same way: a line that does not decode hides the rest of its
        segment, a line that decodes to a non-event is skipped, and the
        next segment reads on."""
        journal = EventJournal(str(tmp_path), max_segment_bytes=4096)
        for i in range(120):
            journal.append({"event": "progress", "i": i})
        assert len(_segments(tmp_path)) == 2
        first = tmp_path / "events-000001.jsonl"
        lines = first.read_bytes().splitlines(keepends=True)
        first.write_bytes(lines[0] + bad_line + b"\n" + b"".join(lines[1:]))
        try:
            events = list(journal.events())
        finally:
            journal.close()
        assert events == read_journal(str(tmp_path))
        hidden = set(range(2, len(lines) + 1)) if hides_rest else set()
        assert [e["seq"] for e in events] == [
            seq for seq in range(1, 121) if seq not in hidden
        ]

    def test_reopen_keeps_an_older_corrupt_segment(self, tmp_path):
        """Recovery truncates only the last segment's torn tail: a corrupt
        line in an older segment and every byte after it stay on disk."""
        journal = EventJournal(str(tmp_path), max_segment_bytes=4096)
        for i in range(200):
            journal.append({"event": "progress", "i": i})
        journal.close()
        assert len(_segments(tmp_path)) >= 3
        first = tmp_path / "events-000001.jsonl"
        lines = first.read_bytes().splitlines(keepends=True)
        damaged = lines[0] + b"\x00garbage\n" + b"".join(lines[1:])
        first.write_bytes(damaged)
        reopened = EventJournal(str(tmp_path), max_segment_bytes=4096)
        record = reopened.append({"event": "progress", "i": 200})
        reopened.close()
        assert first.read_bytes() == damaged
        assert reopened.recovered_bytes == 0
        assert record["seq"] == 201
        events = read_journal(str(tmp_path))
        assert events[0]["seq"] == 1 and events[1]["seq"] == len(lines) + 1
        assert events[-1] == record

    def test_corrupt_line_in_the_last_segment_keeps_its_bytes(self, tmp_path):
        """A corrupt middle line of the last segment stays on disk with the
        lines after it; appends go to a fresh segment and read back last."""
        journal = EventJournal(str(tmp_path))
        for i in range(3):
            journal.append({"event": "progress", "i": i})
        journal.close()
        path = tmp_path / "events-000001.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        damaged = lines[0] + b"\x00garbage\n" + lines[2]
        path.write_bytes(damaged + b'{"event":"progress","seq":4,"tr')
        reopened = EventJournal(str(tmp_path))
        record = reopened.append({"event": "progress", "i": 3})
        reopened.close()
        assert path.read_bytes() == damaged  # only the torn tail went
        assert _segments(tmp_path) == ["events-000001.jsonl", "events-000002.jsonl"]
        assert record["seq"] == 2
        assert read_journal(str(tmp_path))[-1] == record

    def test_later_opens_keep_appending_to_the_fresh_segment(self, tmp_path):
        """The fresh segment a corrupt last segment forced is where every
        later open appends, empty or not: no further segment is started
        and seq runs on."""
        journal = EventJournal(str(tmp_path))
        for i in range(3):
            journal.append({"event": "progress", "i": i})
        journal.close()
        path = tmp_path / "events-000001.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        damaged = lines[0] + b"\x00garbage\n" + lines[2]
        path.write_bytes(damaged)
        EventJournal(str(tmp_path)).close()  # opens the fresh segment empty
        records = []
        for i in range(3):
            reopened = EventJournal(str(tmp_path))
            records.append(reopened.append({"event": "progress", "i": 3 + i}))
            reopened.close()
        assert path.read_bytes() == damaged
        assert _segments(tmp_path) == ["events-000001.jsonl", "events-000002.jsonl"]
        assert [r["seq"] for r in records] == [2, 3, 4]
        assert [e["seq"] for e in read_journal(str(tmp_path))] == [1, 2, 3, 4]

    def test_seq_at_the_limit_in_the_last_segment_moves_appends_on(self, tmp_path):
        """A last-segment event whose seq is 2**63 is undecodable like any
        corrupt line: its bytes stay, and appends go to a fresh segment and
        resume after the last readable seq."""
        journal = EventJournal(str(tmp_path))
        journal.append({"event": "progress", "i": 0})
        journal.close()
        path = tmp_path / "events-000001.jsonl"
        damaged = path.read_bytes() + b'{"event":"progress","seq":%d}\n' % 2**63
        path.write_bytes(damaged)
        reopened = EventJournal(str(tmp_path))
        record = reopened.append({"event": "progress", "i": 1})
        reopened.close()
        assert path.read_bytes() == damaged
        assert _segments(tmp_path) == ["events-000001.jsonl", "events-000002.jsonl"]
        assert record["seq"] == 2
        assert [e["seq"] for e in read_journal(str(tmp_path))] == [1, 2]

    @pytest.mark.parametrize("seq, readable", [(2**63 - 1, True), (2**63, False)])
    def test_seq_from_2_to_the_63_is_undecodable(self, tmp_path, seq, readable):
        (tmp_path / "events-000001.jsonl").write_bytes(
            b'{"event":"progress","seq":%d}\n' % seq
        )
        events = read_journal(str(tmp_path))
        assert [e["seq"] for e in events] == ([seq] if readable else [])

    def test_a_journal_at_the_last_seq_refuses_to_open(self, tmp_path):
        """Its next event would be seq 2**63, which no reader accepts: the
        open fails, naming the directory and the seq, and no byte moves."""
        path = tmp_path / "events-000001.jsonl"
        segment = b'{"event":"x","seq":%d}\n' % (2**63 - 1)
        path.write_bytes(segment + b'{"event":"x","seq":1')  # and a torn tail
        with pytest.raises(ConfigurationError) as refused:
            EventJournal(str(tmp_path))
        assert str(tmp_path) in str(refused.value)
        assert str(2**63 - 1) in str(refused.value)
        assert path.read_bytes() == segment + b'{"event":"x","seq":1'
        assert _segments(tmp_path) == ["events-000001.jsonl"]

    def test_a_journal_one_below_the_last_seq_takes_one_more_event(self, tmp_path):
        (tmp_path / "events-000001.jsonl").write_bytes(
            b'{"event":"x","seq":%d}\n' % (2**63 - 2)
        )
        journal = EventJournal(str(tmp_path))
        record = journal.append({"event": "progress"})
        journal.close()
        assert record["seq"] == 2**63 - 1
        assert [e["seq"] for e in read_journal(str(tmp_path))] == [2**63 - 2, 2**63 - 1]

    @pytest.mark.parametrize(
        "entry", [["repro.service"], ["repro.cluster", "--peers", "127.0.0.1:1"]]
    )
    def test_front_ends_exit_1_on_a_journal_at_the_last_seq(self, tmp_path, entry):
        """A separate, time-bounded process: a front end that opened the
        journal would serve forever."""
        (tmp_path / "events-000001.jsonl").write_bytes(
            b'{"event":"x","seq":%d}\n' % (2**63 - 1)
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        done = subprocess.run(
            [sys.executable, "-m", *entry, "--port", "0", "--journal", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.startswith(f"error: journal {tmp_path} ")

    def test_read_journal_missing_directory_is_empty(self, tmp_path):
        assert read_journal(str(tmp_path / "nope")) == []

    def test_readers_skip_torn_tail_without_mutating(self, tmp_path):
        path, intact = self._journal_with_torn_tail(tmp_path)
        torn = path.read_bytes()
        events = read_journal(str(tmp_path))
        assert len(events) == 5
        assert path.read_bytes() == torn  # read-only access left the tear alone


class TestSinceAndLimit:
    def _rotated_journal(self, tmp_path, events=200):
        journal = EventJournal(str(tmp_path), max_segment_bytes=4096)
        for i in range(events):
            journal.append({"event": "progress", "trace_id": "d" * 16, "i": i})
        journal.close()
        assert len(_segments(tmp_path)) >= 3  # the plan has segments to skip
        return str(tmp_path)

    def test_since_seq_is_strictly_after(self, tmp_path):
        directory = self._rotated_journal(tmp_path)
        events = read_journal(directory, since_seq=150)
        assert [e["seq"] for e in events] == list(range(151, 201))

    def test_since_ts_is_at_or_after(self, tmp_path):
        directory = self._rotated_journal(tmp_path)
        pivot = read_journal(directory)[149]["ts"]
        events = read_journal(directory, since_ts=pivot)
        assert events[0]["ts"] >= pivot
        assert {e["seq"] for e in read_journal(directory)} >= {
            e["seq"] for e in events
        }

    def test_limit_keeps_most_recent(self, tmp_path):
        directory = self._rotated_journal(tmp_path)
        events = read_journal(directory, limit=10)
        assert [e["seq"] for e in events] == list(range(191, 201))

    def test_since_and_limit_compose(self, tmp_path):
        directory = self._rotated_journal(tmp_path)
        events = read_journal(directory, since_seq=100, limit=5)
        assert [e["seq"] for e in events] == list(range(196, 201))

    def test_plan_skips_fully_filtered_segments(self, tmp_path):
        """The fast path: a --since threshold past a segment's first event
        means every earlier segment is never opened."""
        directory = self._rotated_journal(tmp_path)
        names, start = journal_segment_plan(directory, since_seq=190)
        assert len(names) >= 3
        assert start > 0  # earlier segments are skipped entirely
        # The skipped prefix holds only events the filter would drop.
        skipped = [e for name in names[:start] for e in _segment_events(tmp_path, name)]
        assert all(e["seq"] <= 190 for e in skipped)
        # And the plan-backed read equals the brute-force filter.
        brute = [e for e in read_journal(directory) if e["seq"] > 190]
        assert read_journal(directory, since_seq=190) == brute

    def test_plan_without_threshold_starts_at_zero(self, tmp_path):
        directory = self._rotated_journal(tmp_path)
        names, start = journal_segment_plan(directory)
        assert start == 0 and names == _segments(tmp_path)


def _segment_events(tmp_path, name):
    return [
        json.loads(line)
        for line in (tmp_path / name).read_text().splitlines()
        if line.strip()
    ]


class TestFsync:
    def test_fsync_flag_reaches_stats(self, tmp_path):
        journal = EventJournal(str(tmp_path), fsync=True)
        journal.append({"event": "received"})
        stats = journal.stats()
        journal.close()
        assert stats["fsync"] is True and stats["appended"] == 1
