"""Server-level observability: tracing, /trace, /metrics.

The tentpole bar: enabling the journal and tracing must not change a
single response byte, /trace must assemble a span tree whose top-level
durations fit inside the measured wall time, and every /metrics payload
must stay lint-clean with the histogram and build-info families present.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.bench.cells import figure4_graph
from repro.bench.factory import repeated_cell_layout, wire_row_layout
from repro.cluster import CoordinatorConfig, CoordinatorThread
from repro.core.decomposer import Decomposer
from repro.obs import replay
from repro.obs.journal import read_journal
from repro.obs.replay import check_events
from repro.obs.trace import TERMINAL_EVENTS, valid_trace_id
from repro.runtime.wire_binary import COMPONENTS_V2_CONTENT_TYPE, encode_components_frame
from repro.service import ServerConfig, ServerThread, ServiceClient, ServiceError
from repro.service.http import TRACE_HEADER
from repro.service.metrics import lint_metrics_text
from repro.service.protocol import build_options, canonical_json, result_to_payload

pytestmark = [pytest.mark.service, pytest.mark.obs]


def _direct_payload(layout, name, algorithm="linear", colors=4):
    layer = layout.layers()[0]
    result = Decomposer(build_options(colors, algorithm)).decompose(layout, layer=layer)
    return result_to_payload(name, layer, result)


def _server(tmp_path=None, **overrides):
    config = ServerConfig(
        port=0,
        workers=1,
        force_inline_pool=True,
        journal_dir=str(tmp_path / "journal") if tmp_path is not None else None,
        **overrides,
    )
    return ServerThread(config)


class TestByteIdentity:
    def test_journal_on_vs_off_responses_identical(self, tmp_path):
        """Tracing must be invisible on the wire: same request, same bytes."""
        layouts = [
            ("cells", repeated_cell_layout(copies=4)),
            ("wires", wire_row_layout(num_wires=4, wire_length=600)),
        ]
        responses = {}
        for label, journaled in (("off", False), ("on", True)):
            with _server(tmp_path if journaled else None) as (host, port):
                client = ServiceClient(host, port)
                client.wait_until_healthy()
                responses[label] = [
                    canonical_json(
                        client.decompose(layout, name=name, algorithm="linear")
                    )
                    for name, layout in layouts
                ]
        assert responses["on"] == responses["off"]
        for (name, layout), served in zip(layouts, responses["on"]):
            assert served == canonical_json(_direct_payload(layout, name))
        # The journaled run actually journaled, cleanly.
        events = read_journal(str(tmp_path / "journal"))
        assert len(events) >= 4  # received+completed per layout
        assert check_events(events) == []


class TestJournalReconciliation:
    def test_journal_reconciles_with_stats(self, tmp_path):
        """The journal accounts for every served layout, and each request's
        events carry its byte counts and spans."""
        layout = wire_row_layout(num_wires=4, wire_length=600)
        with _server(tmp_path) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            for name in ("w1", "w2", "w3"):
                client.decompose(layout, name=name, algorithm="linear")
            served = client.stats()["server"]["served"]
            client.close()

        events = read_journal(str(tmp_path / "journal"))
        merged = [event for event in events if event["event"] == "merged"]
        assert sum(event["layouts"] for event in merged) == served == 3
        assert [event["names"] for event in merged] == [["w1"], ["w2"], ["w3"]]
        received = {
            event["trace_id"]: event for event in events if event["event"] == "received"
        }
        terminal = [event for event in events if event["event"] in TERMINAL_EVENTS]
        assert len(terminal) == len(received) == 3
        for event in terminal:
            assert received[event["trace_id"]]["bytes_in"] > 0
            assert event["bytes_out"] > 0
            assert event["spans"]  # spans landed


class TestClientHeaderIgnored:
    """``X-Repro-Client``, which older clients send, changes nothing: such a
    request is served and journaled exactly like one without it."""

    def _post_with_and_without(self, tmp_path, path, bodies, content_type):
        """POST each body, the first with the header; return the decoded
        responses and the journal's ``received`` events."""
        responses = []
        with _server(tmp_path) as (host, port):
            ServiceClient(host, port).wait_until_healthy()
            for body, extra in zip(bodies, ({"X-Repro-Client": "team-a"}, {})):
                connection = http.client.HTTPConnection(host, port, timeout=30.0)
                try:
                    connection.request(
                        "POST", path, body=body,
                        headers={"Content-Type": content_type, **extra},
                    )
                    response = connection.getresponse()
                    assert response.status == 200
                    responses.append(json.loads(response.read()))
                finally:
                    connection.close()
        events = read_journal(str(tmp_path / "journal"))
        assert check_events(events) == []
        received = [event for event in events if event["event"] == "received"]
        assert len(received) == 2
        assert all("client" not in event for event in received)
        assert received[0].keys() == received[1].keys()
        return responses, received

    def test_decompose(self, tmp_path):
        layout = wire_row_layout(num_wires=3, wire_length=400)
        body = json.dumps(
            {"layout": layout.to_dict(), "name": "w", "algorithm": "linear"}
        ).encode("utf-8")
        responses, _ = self._post_with_and_without(
            tmp_path, "/decompose", [body, body], "application/json"
        )
        # Equal bytes once the wall-clock ``seconds`` is stripped.
        served = [canonical_json(response) for response in responses]
        assert served[0] == served[1] == canonical_json(_direct_payload(layout, "w"))

    def test_components(self, tmp_path):
        body = encode_components_frame([(None, figure4_graph().to_arrays())], 4, "linear")
        responses, received = self._post_with_and_without(
            tmp_path, "/components", [body, body], COMPONENTS_V2_CONTENT_TYPE
        )
        assert [event["kind"] for event in received] == ["components", "components"]
        # The second request is a cache hit; the solve is the same.
        solves = [
            {k: v for k, v in response["results"][0].items() if k != "cache_hit"}
            for response in responses
        ]
        assert solves[0] == solves[1]


def _post_raw(host, port, path, body, content_type, trace_id=None):
    """POST ``body`` as is; return (status, trace-id header, error message)."""
    headers = {"Content-Type": content_type}
    if trace_id is not None:
        headers[TRACE_HEADER] = trace_id
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        connection.request("POST", path, body=body, headers=headers)
        response = connection.getresponse()
        message = json.loads(response.read())["error"]["message"]
        return response.status, response.getheader(TRACE_HEADER), message
    finally:
        connection.close()


def _assert_refusals_journaled(journal_dir, answers, kinds):
    """Each refused request is one complete trace: ``received`` (its kind
    and body size) then ``failed`` with the answer's status and message,
    a ``parse`` span, and a journal ``repro.obs.replay --check`` accepts."""
    events = read_journal(journal_dir)
    assert check_events(events) == []
    assert replay.main(["--journal", journal_dir, "--check"]) == 0
    assert len(events) == 2 * len(answers)
    for (status, trace_id, message, bytes_in), kind in zip(answers, kinds):
        assert valid_trace_id(trace_id)
        received, failed = [e for e in events if e["trace_id"] == trace_id]
        assert received["event"] == "received" and received["kind"] == kind
        assert received["bytes_in"] == bytes_in
        assert failed["event"] == "failed"
        assert (failed["status"], failed["message"]) == (status, message)
        assert "parse" in [span["stage"] for span in failed["spans"]]


class TestRefusedRequestsAreJournaled:
    """A request refused before its body parses still ends its trace, and
    answers with the trace-id header; ``invalid`` counts it once."""

    @pytest.mark.parametrize("role", ["server", "coordinator"])
    def test_unreadable_json_body(self, tmp_path, role):
        requests = [
            ("/decompose", b"{not json"), ("/batch", b""), ("/decompose", b"[" * 10**5),
        ]
        front_door = _server(tmp_path) if role == "server" else CoordinatorThread(
            # The one peer is never reached: every request stops at the parse.
            CoordinatorConfig(
                port=0, peers=["127.0.0.1:1"], probe_interval=60.0,
                journal_dir=str(tmp_path / "journal"),
            )
        )
        with front_door as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            answers = [
                (*_post_raw(host, port, path, body, "application/json"), len(body))
                for path, body in requests
            ]
            invalid = client.stats()[role]["invalid"]
        assert [answer[0] for answer in answers] == [400, 400, 400]
        assert "empty" in answers[1][2]
        # Too deeply nested to decode is not JSON either: a 400, not a 500.
        assert "not valid JSON" in answers[0][2] and "not valid JSON" in answers[2][2]
        assert invalid == 3
        _assert_refusals_journaled(
            str(tmp_path / "journal"), answers, ["decompose", "batch", "decompose"]
        )

    def test_refused_components_frame(self, tmp_path):
        supplied = "feedface00112233"
        not_a_frame = b"RPC2 not a frame"
        json_body = json.dumps({"components": []}).encode("utf-8")
        with _server(tmp_path) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            answers = [
                (*_post_raw(host, port, "/components", not_a_frame,
                            COMPONENTS_V2_CONTENT_TYPE, trace_id=supplied),
                 len(not_a_frame)),
                (*_post_raw(host, port, "/components", json_body, "application/json"),
                 len(json_body)),
            ]
            invalid = client.stats()["server"]["invalid"]
        assert [answer[0] for answer in answers] == [400, 415]
        # The frame's trace field is unreadable: the header's id is adopted.
        assert answers[0][1] == supplied
        assert COMPONENTS_V2_CONTENT_TYPE in answers[1][2]
        assert invalid == 2
        _assert_refusals_journaled(
            str(tmp_path / "journal"), answers, ["components", "components"]
        )


class TestTraceEndpoint:
    def test_trace_header_minted_and_tree_assembled(self, tmp_path):
        with _server(tmp_path) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            client.decompose(
                wire_row_layout(num_wires=3, wire_length=400),
                name="w",
                algorithm="linear",
            )
            trace_id = client.last_trace_id
            assert valid_trace_id(trace_id)

            trace = client.trace(trace_id)
            assert trace["trace_id"] == trace_id
            assert trace["status"] == "completed"
            stages = [span["stage"] for span in trace["spans"]]
            assert stages[0] == "parse" and "execute" in stages
            # Acceptance: top-level span durations fit inside the wall time.
            total = sum(span["seconds"] for span in trace["spans"])
            assert 0.0 < total <= trace["wall_seconds"]

    def test_supplied_trace_id_is_adopted(self, tmp_path):
        supplied = "feedface00112233"
        with _server(tmp_path) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            client.decompose(
                wire_row_layout(num_wires=3, wire_length=400),
                name="w",
                algorithm="linear",
                trace_id=supplied,
            )
            assert client.last_trace_id == supplied
            assert client.trace(supplied)["status"] == "completed"

    def test_unknown_trace_is_404(self, tmp_path):
        with _server(tmp_path) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            with pytest.raises(ServiceError) as excinfo:
                client.trace("0123456789abcdef")
            assert excinfo.value.status == 404

    def test_trace_and_watch_hint_when_journal_disabled(self):
        with _server() as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            with pytest.raises(ServiceError) as excinfo:
                client.trace("0123456789abcdef")
            assert excinfo.value.status == 404
            assert "--journal" in str(excinfo.value)


class TestMetrics:
    def test_exposition_lints_and_carries_obs_families(self, tmp_path):
        with _server(tmp_path) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            client.decompose(
                wire_row_layout(num_wires=3, wire_length=400),
                name="w",
                algorithm="linear",
            )
            text = client.metrics_text()
        assert lint_metrics_text(text) == []
        for family in (
            "repro_stage_duration_seconds",
            "repro_pool_queue_wait_seconds",
            "repro_build_info",
            "repro_journal_events_total",
        ):
            assert f"# TYPE {family} " in text, family
        assert "repro_watch_" not in text
        assert 'repro_build_info{' in text and 'role="server"' in text
        # The request actually moved the stage histograms, and its one pool
        # job was observed once, as the pool's queue wait and not a stage.
        assert 'repro_stage_duration_seconds_count{stage="execute"} 1' in text
        assert "\nrepro_pool_queue_wait_seconds_count 1\n" in text
        assert 'stage="queue_wait"' not in text
        # Stage series exist (at zero) even before any traffic touches them.
        # cache_lookup is one: only POST /components feeds it, one sample per
        # component; a /decompose job solves its layout in one worker call
        # that reports no per-component timings, so it stays at 0 here.
        assert 'repro_stage_duration_seconds_count{stage="cache_lookup"} 0' in text

    def test_metrics_lint_clean_without_journal_too(self):
        with _server() as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            text = client.metrics_text()
        assert lint_metrics_text(text) == []
        assert "repro_stage_duration_seconds" in text
        assert "repro_journal_events_total" not in text


class TestJournalRoutesIgnoreTheQueryString:
    """``/trace/<id>`` routes on the path without its query, like every
    other route."""

    def test_trace_with_a_query_string(self, tmp_path):
        with _server(tmp_path) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            client.decompose(
                wire_row_layout(num_wires=3, wire_length=400),
                name="w",
                algorithm="linear",
            )
            trace_id = client.last_trace_id
            bodies = []
            for path in (f"/trace/{trace_id}", f"/trace/{trace_id}?format=json"):
                connection = http.client.HTTPConnection(host, port, timeout=30.0)
                try:
                    connection.request("GET", path)
                    response = connection.getresponse()
                    assert response.status == 200, path
                    bodies.append(response.read())
                finally:
                    connection.close()
            assert bodies[0] == bodies[1]


class TestNoWatchEndpoint:
    """The journal is the one event feed: ``/watch`` is an unknown path on
    both roles, with the journal on or off."""

    @pytest.mark.parametrize("journaled", [False, True], ids=["journal-off", "journal-on"])
    @pytest.mark.parametrize("role", ["server", "coordinator"])
    def test_watch_is_no_such_endpoint(self, tmp_path, role, journaled):
        if role == "server":
            front_door = _server(tmp_path if journaled else None)
        else:
            front_door = CoordinatorThread(
                CoordinatorConfig(
                    port=0, peers=["127.0.0.1:1"], probe_interval=60.0,
                    journal_dir=str(tmp_path / "journal") if journaled else None,
                )
            )
        with front_door as (host, port):
            ServiceClient(host, port).wait_until_healthy()
            for method, body in (("GET", None), ("POST", b"{}")):
                connection = http.client.HTTPConnection(host, port, timeout=30.0)
                try:
                    connection.request(method, "/watch", body=body)
                    response = connection.getresponse()
                    assert (response.status, response.read()) == (
                        404,
                        b'{"error": {"message": "no such endpoint \'/watch\'", '
                        b'"status": 404}}',
                    ), method
                finally:
                    connection.close()
