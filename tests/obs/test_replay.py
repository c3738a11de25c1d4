"""Replay checker: the lifecycle invariants the journal must uphold."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.obs.journal import EventJournal
from repro.obs.replay import check_events, main

pytestmark = pytest.mark.obs

T1 = "1" * 16
T2 = "2" * 16


def _ok_sequence():
    return [
        {"seq": 1, "event": "received", "trace_id": T1},
        {"seq": 2, "event": "received", "trace_id": T2},
        {"seq": 3, "event": "progress", "trace_id": T1, "solved": 1, "total": 3},
        {"seq": 4, "event": "progress", "trace_id": T1, "solved": 3, "total": 3},
        {"seq": 5, "event": "completed", "trace_id": T1},
        {"seq": 6, "event": "failed", "trace_id": T2},
    ]


#: Journal segments as written before ``received`` events lost their
#: ``client=`` field.  The server's holds one ``POST /decompose`` sent with
#: ``X-Repro-Client: team-a`` and one ``POST /components`` sent without it;
#: the coordinator's one ``POST /decompose`` sent with ``team-b``.
OLD_SEGMENTS = {
    "server": [
        {
            "bytes_in": 266, "client": "team-a", "event": "received", "kind": "decompose",
            "role": "server", "seq": 1, "trace_id": "0123456789abcdef",
            "ts": 1792299994.159858,
        },
        {
            "event": "divided", "layouts": 1, "role": "server", "seq": 2,
            "trace_id": "0123456789abcdef", "ts": 1792299994.163865,
        },
        {
            "bytes_out": 474, "conflicts": 0, "event": "merged", "layouts": 1,
            "names": ["w1"], "role": "server", "seq": 3, "stitches": 0,
            "trace_id": "0123456789abcdef", "ts": 1792299994.166164,
            "wall_seconds": 0.006321,
            "spans": [
                {"offset": 8.4e-05, "seconds": 0.003897, "stage": "parse"},
                {"offset": 0.004095, "seconds": 0.002014, "stage": "execute"},
                {"offset": 0.006132, "seconds": 0.000167, "stage": "encode"},
            ],
        },
        {
            "bytes_in": 179, "client": "anonymous", "components": 1, "event": "received",
            "kind": "components", "role": "server", "seq": 4,
            "trace_id": "fedcba9876543210", "ts": 1792300001.764375,
        },
        {
            "bytes_out": 302, "cache_hits": 0, "errors": 0, "event": "completed",
            "role": "server", "seq": 5, "solved": 1, "total": 1,
            "trace_id": "fedcba9876543210", "ts": 1792300001.768501,
            "wall_seconds": 0.004295,
            "spans": [
                {"offset": 0.0, "seconds": 0.000143, "stage": "parse"},
                {"offset": 0.000231, "seconds": 0.003801, "stage": "execute"},
                {"offset": 0.004078, "seconds": 0.000199, "stage": "encode"},
            ],
        },
    ],
    "coordinator": [
        {
            "bytes_in": 266, "client": "team-b", "event": "received", "kind": "decompose",
            "role": "coordinator", "seq": 1, "trace_id": "fedcba9876543210",
            "ts": 1792300001.759838,
        },
        {
            "event": "divided", "layouts": 1, "role": "coordinator", "seq": 2,
            "trace_id": "fedcba9876543210", "ts": 1792300001.761988,
        },
        {
            "distinct": 1, "event": "divided", "role": "coordinator", "seq": 3,
            "trace_id": "fedcba9876543210", "ts": 1792300001.763435,
        },
        {
            "event": "progress", "node": "127.0.0.1:35787", "role": "coordinator",
            "seq": 4, "solved": 1, "total": 1, "trace_id": "fedcba9876543210",
            "ts": 1792300001.770205,
        },
        {
            "bytes_out": 473, "conflicts": 0, "event": "merged", "layouts": 1,
            "names": ["w2"], "role": "coordinator", "seq": 5, "stitches": 0,
            "trace_id": "fedcba9876543210", "ts": 1792300001.770721,
            "wall_seconds": 0.010898,
            "spans": [
                {"offset": 9.8e-05, "seconds": 0.002044, "stage": "parse"},
                {"offset": 0.002443, "parent": "execute", "seconds": 0.000934, "stage": "build"},
                {"offset": 0.003422, "parent": "execute", "seconds": 1.5e-05, "stage": "divide"},
                {"offset": 0.003446, "parent": "execute", "seconds": 0.000146, "stage": "hash"},
                {
                    "detail": "127.0.0.1:35787 x1", "offset": 0.003844, "parent": "route",
                    "seconds": 0.006456, "stage": "node_rpc",
                },
                {"offset": 0.003604, "parent": "execute", "seconds": 0.006824, "stage": "route"},
                {"offset": 0.010439, "parent": "execute", "seconds": 1.3e-05, "stage": "merge"},
                {"offset": 0.002212, "seconds": 0.00844, "stage": "execute"},
                {"offset": 0.010663, "seconds": 0.000216, "stage": "encode"},
            ],
        },
    ],
}


class TestChecker:
    def test_clean_interleaved_traces_pass(self):
        assert check_events(_ok_sequence()) == []

    def test_empty_journal_passes(self):
        assert check_events([]) == []

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda ev: ev[3].update(seq=3), "seq not strictly increasing"),
            (lambda ev: ev[2].pop("trace_id"), "has no trace_id"),
            (lambda ev: ev[2].update(solved="one"), "malformed progress"),
            (lambda ev: ev[3].update(solved=0), "went backwards"),
            (lambda ev: ev[3].update(solved=9), "exceeds total"),
            (lambda ev: ev[0].update(event="progress", solved=0, total=1), "before received"),
            (lambda ev: ev[2].update(event="received"), "duplicate received"),
            (
                lambda ev: ev.append(
                    {"seq": 7, "event": "progress", "trace_id": T1, "solved": 3, "total": 3}
                ),
                "after terminal",
            ),
            (
                lambda ev: ev.append({"seq": 7, "event": "merged", "trace_id": T1}),
                "after terminal",
            ),
        ],
    )
    def test_each_violation_detected(self, mutate, needle):
        events = _ok_sequence()
        mutate(events)
        problems = check_events(events)
        assert any(needle in p for p in problems), problems


class TestCli:
    def _write(self, tmp_path, events):
        journal = EventJournal(str(tmp_path))
        for event in events:
            event.pop("seq", None)  # the journal stamps its own
            journal.append(event)
        journal.close()

    def test_check_passes_on_real_journal(self, tmp_path, capsys):
        self._write(tmp_path, _ok_sequence())
        assert main(["--journal", str(tmp_path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "replay: OK 6 events, 2 traces" in out

    def test_check_fails_on_violation(self, tmp_path, capsys):
        events = _ok_sequence()
        events.append({"event": "progress", "trace_id": T1, "solved": 1, "total": 3})
        self._write(tmp_path, events)
        assert main(["--journal", str(tmp_path), "--check"]) == 1
        assert "after terminal" in capsys.readouterr().err

    def test_json_dump_without_check(self, tmp_path, capsys):
        self._write(tmp_path, _ok_sequence()[:1])
        assert main(["--journal", str(tmp_path), "--json"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "replay: 1 events"
        assert '"event": "received"' in out[0] or '"event":"received"' in out[0]

    @pytest.mark.parametrize(
        "role, traces, client", [("server", 2, "team-a"), ("coordinator", 1, "team-b")]
    )
    def test_old_segment_with_client_fields_reads_as_before(
        self, tmp_path, capsys, role, traces, client
    ):
        """Segments whose ``received`` events carry ``client=`` still pass the
        checker and still assemble into traces; the field is printed, not
        interpreted."""
        events = OLD_SEGMENTS[role]
        (tmp_path / "events-000001.jsonl").write_text(
            "".join(
                json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
                for event in events
            ),
            encoding="utf-8",
        )
        assert main(["--journal", str(tmp_path), "--check"]) == 0
        assert f"replay: OK {len(events)} events, {traces} traces" in capsys.readouterr().out

        trace_id = events[0]["trace_id"]
        assert cli_main(["trace", "--journal", str(tmp_path), trace_id, "--json"]) == 0
        trace = json.loads(capsys.readouterr().out)
        (merged,) = [event for event in events if event["event"] == "merged"]
        assert (trace["status"], trace["wall_seconds"]) == ("completed", merged["wall_seconds"])
        assert [span["stage"] for span in trace["spans"]] == ["parse", "execute", "encode"]
        assert trace["events"][0]["client"] == client

        assert cli_main(["trace", "--journal", str(tmp_path), trace_id]) == 0
        tree = capsys.readouterr().out
        assert f"trace {trace_id}  status=completed" in tree
        assert f"client={client}" in tree
