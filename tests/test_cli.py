"""Unit tests for the command line interface."""

import argparse
import json
import re

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.geometry.layout import Layout
from repro.geometry.rect import Rect
from repro.io.jsonio import read_json, write_json


@pytest.fixture
def layout_file(tmp_path):
    layout = Layout(name="cli-sample")
    for i in range(4):
        layout.add_rect(Rect(0, i * 40, 300, i * 40 + 20), layer="metal1")
    path = tmp_path / "sample.json"
    write_json(layout, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_subcommands_are_the_ones_the_module_docstring_lists(self):
        documented = re.findall(
            r"^    repro-decompose (\w+)", repro.cli.__doc__, flags=re.MULTILINE
        )
        action = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert sorted(action.choices) == sorted(documented)
        assert len(documented) == 9  # "Nine subcommands"

    def test_decompose_defaults(self):
        args = build_parser().parse_args(["decompose", "x.json"])
        assert args.colors == 4
        assert args.algorithm == "sdp-backtrack"


class TestDecomposeCommand:
    def test_decompose_json(self, layout_file, capsys):
        exit_code = main(["decompose", str(layout_file), "--algorithm", "linear"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "conflicts=" in captured
        assert "mask balance" in captured

    def test_decompose_writes_masks(self, layout_file, tmp_path, capsys):
        output = tmp_path / "masks.json"
        exit_code = main(
            [
                "decompose",
                str(layout_file),
                "--algorithm",
                "linear",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        masks = read_json(output)
        assert all(layer.startswith("mask") for layer in masks.layers())

    def test_decompose_gds_output(self, layout_file, tmp_path):
        output = tmp_path / "masks.gds"
        assert main(
            ["decompose", str(layout_file), "--algorithm", "greedy", "--output", str(output)]
        ) == 0
        assert output.exists() and output.stat().st_size > 0

    def test_decompose_pentuple(self, layout_file, capsys):
        assert main(
            ["decompose", str(layout_file), "--colors", "5", "--algorithm", "linear"]
        ) == 0
        assert "K=5" in capsys.readouterr().out

    def test_missing_file_reports_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        missing.write_text("{}")
        exit_code = main(["decompose", str(missing)])
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err


class TestBatchCommand:
    @pytest.fixture
    def second_layout_file(self, tmp_path):
        layout = Layout(name="cli-sample-2")
        for i in range(5):
            layout.add_rect(Rect(0, i * 40, 260, i * 40 + 20), layer="metal1")
        path = tmp_path / "sample2.json"
        write_json(layout, path)
        return path

    @pytest.fixture
    def repeated_cells_file(self, tmp_path):
        from repro.bench.factory import repeated_cell_layout

        path = tmp_path / "cells.json"
        write_json(repeated_cell_layout(copies=4, layer="metal1"), path)
        return path

    def test_batch_two_layouts(self, layout_file, second_layout_file, capsys):
        exit_code = main(
            [
                "batch",
                str(layout_file),
                str(second_layout_file),
                "--algorithm",
                "linear",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "sample:" in out and "sample2:" in out  # per-layout summaries
        assert "batch: 2 layouts" in out  # aggregate summary

    def test_batch_matches_single_decompose(
        self, layout_file, second_layout_file, capsys
    ):
        """The batch path reports the same metrics as one-at-a-time runs."""
        main(["decompose", str(layout_file), "--algorithm", "linear"])
        single = capsys.readouterr().out.splitlines()[0]
        main(
            [
                "batch",
                str(layout_file),
                str(second_layout_file),
                "--algorithm",
                "linear",
                "--workers",
                "2",
            ]
        )
        batch_out = capsys.readouterr().out
        # The decompose summary line carries conflicts=/stitches=; the same
        # numbers must appear in the batch per-layout line for that input.
        fragment = single.split("color-assign")[0].split(":", 1)[1]
        assert fragment in batch_out

    def test_batch_reports_cache_hits_on_repeated_cells(
        self, repeated_cells_file, capsys
    ):
        exit_code = main(
            ["batch", str(repeated_cells_file), str(repeated_cells_file),
             "--algorithm", "linear"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "component cache:" in out
        hits = int(out.split("component cache: ")[1].split(" hits")[0])
        assert hits >= 1

    def test_batch_json_report(self, layout_file, second_layout_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        exit_code = main(
            [
                "batch",
                str(layout_file),
                str(second_layout_file),
                "--algorithm",
                "greedy",
                "--json",
                str(report),
            ]
        )
        assert exit_code == 0
        payload = json.loads(report.read_text())
        assert payload["aggregate"]["layouts"] == 2
        assert {entry["name"] for entry in payload["layouts"]} == {
            "sample",
            "sample2",
        }
        assert "cache" in payload

    def test_batch_output_dir_and_no_cache(
        self, layout_file, second_layout_file, tmp_path, capsys
    ):
        out_dir = tmp_path / "masks"
        exit_code = main(
            [
                "batch",
                str(layout_file),
                str(second_layout_file),
                "--algorithm",
                "linear",
                "--no-cache",
                "--output-dir",
                str(out_dir),
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "component cache:" not in out
        masks = read_json(out_dir / "sample-masks.json")
        assert all(layer.startswith("mask") for layer in masks.layers())
        assert (out_dir / "sample2-masks.json").exists()

    def test_batch_resolves_layer_per_layout(self, layout_file, tmp_path, capsys):
        """Without --layer each input uses its own first layer."""
        from repro.bench.factory import repeated_cell_layout

        contacts = tmp_path / "contacts.json"
        write_json(repeated_cell_layout(copies=2, layer="contact"), contacts)
        report = tmp_path / "report.json"
        assert main(
            ["batch", str(layout_file), str(contacts), "--algorithm", "linear",
             "--json", str(report)]
        ) == 0
        payload = json.loads(report.read_text())
        assert all(row["vertices"] > 0 for row in payload["layouts"])

    def test_batch_json_write_error_is_clean(self, layout_file, tmp_path, capsys):
        exit_code = main(
            ["batch", str(layout_file), "--algorithm", "linear",
             "--json", str(tmp_path / "no" / "such" / "dir" / "r.json")]
        )
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err

    def test_batch_missing_file_reports_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        missing.write_text("{}")
        assert main(["batch", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err


class TestStatsCommand:
    def test_stats(self, layout_file, capsys):
        assert main(["stats", str(layout_file)]) == 0
        out = capsys.readouterr().out
        assert "metal1" in out and "4 shapes" in out


@pytest.mark.obs
class TestTraceCommand:
    @pytest.fixture
    def journal_dir(self, tmp_path):
        from repro.obs.journal import EventJournal

        journal = EventJournal(str(tmp_path))
        journal.append({"event": "received", "trace_id": "a" * 16, "kind": "decompose"})
        journal.append(
            {
                "event": "completed",
                "trace_id": "a" * 16,
                "wall_seconds": 0.25,
                "spans": [{"stage": "parse", "offset": 0.0, "seconds": 0.01}],
            }
        )
        journal.close()
        return tmp_path

    def test_listing_without_id(self, journal_dir, capsys):
        assert main(["trace", "--journal", str(journal_dir)]) == 0
        out = capsys.readouterr().out
        assert f"{'a' * 16}  completed" in out
        assert "2 events" in out and "1 traces" in out

    def test_tree_for_one_trace(self, journal_dir, capsys):
        assert main(["trace", "--journal", str(journal_dir), "a" * 16]) == 0
        out = capsys.readouterr().out
        assert "status=completed" in out and "parse" in out

    def test_json_output_is_parseable(self, journal_dir, capsys):
        assert main(["trace", "--journal", str(journal_dir), "a" * 16, "--json"]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["trace_id"] == "a" * 16
        assert trace["status"] == "completed"

    def test_unknown_trace_id_fails(self, journal_dir, capsys):
        assert main(["trace", "--journal", str(journal_dir), "b" * 16]) == 1
        assert "no journaled events" in capsys.readouterr().err

    def test_empty_journal_lists_zero_traces(self, tmp_path, capsys):
        assert main(["trace", "--journal", str(tmp_path / "missing")]) == 0
        assert "0 traces" in capsys.readouterr().out

    def test_since_seq_follows_the_journal(self, journal_dir, capsys):
        """Following a process: ``--since`` the last ``seq`` seen lists only
        the traces with events after it."""
        from repro.obs.journal import EventJournal

        assert main(["trace", "--journal", str(journal_dir), "--since", "2"]) == 0
        assert "0 traces" in capsys.readouterr().out
        journal = EventJournal(str(journal_dir))
        journal.append({"event": "received", "trace_id": "b" * 16, "kind": "decompose"})
        journal.close()
        assert main(["trace", "--journal", str(journal_dir), "--since", "2"]) == 0
        out = capsys.readouterr().out
        assert "a" * 16 not in out
        assert f"{'b' * 16}  " in out and "1 events" in out and "1 traces" in out

    def test_since_an_iso_timestamp_is_at_or_after(self, tmp_path, capsys):
        from datetime import datetime

        from repro.obs.journal import EventJournal

        since = "2026-01-31T12:00:00+00:00"
        noon = datetime.fromisoformat(since).timestamp()
        journal = EventJournal(str(tmp_path))
        for trace_id, ts in (("a" * 16, noon - 1.0), ("b" * 16, noon), ("c" * 16, noon + 1.0)):
            journal.append({"event": "received", "trace_id": trace_id, "ts": ts})
        journal.close()
        assert main(["trace", "--journal", str(tmp_path), "--since", since]) == 0
        out = capsys.readouterr().out
        assert "a" * 16 not in out
        assert "b" * 16 in out and "c" * 16 in out and "2 traces" in out

    def test_since_neither_seq_nor_timestamp_is_an_error(self, journal_dir, capsys):
        assert main(["trace", "--journal", str(journal_dir), "--since", "yesterday"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: --since 'yesterday' is neither a sequence number nor an ISO timestamp"
        )

    def test_limit_keeps_the_last_events(self, journal_dir, capsys):
        assert main(["trace", "--journal", str(journal_dir), "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert f"{'a' * 16}  completed  1 events" in out and "1 traces" in out


@pytest.mark.obs
class TestObservabilityFlags:
    def test_serve_accepts_journal_flags(self):
        args = build_parser().parse_args(
            ["serve", "--journal", "/tmp/j", "--journal-fsync", "--log-level", "info"]
        )
        assert args.journal == "/tmp/j"
        assert args.journal_fsync is True
        assert args.journal_segment_mb == 4
        assert args.log_level == "info"

    def test_coordinator_accepts_journal_flags(self):
        args = build_parser().parse_args(
            [
                "cluster",
                "coordinator",
                "--peers",
                "h:1",
                "--journal",
                "/tmp/j",
            ]
        )
        assert args.journal == "/tmp/j"

    def test_bad_log_level_is_clean_configuration_error(self, capsys):
        exit_code = main(["serve", "--port", "0", "--log-level", "shouty"])
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err


class TestGenerateCommand:
    def test_generate_json(self, tmp_path, capsys):
        output = tmp_path / "c432.json"
        exit_code = main(
            ["generate", "C432", "--scale", "0.25", "--output", str(output)]
        )
        assert exit_code == 0
        layout = read_json(output)
        assert len(layout) > 0

    def test_generate_unknown_circuit(self, tmp_path, capsys):
        exit_code = main(
            ["generate", "NOPE", "--output", str(tmp_path / "x.json")]
        )
        assert exit_code == 1
