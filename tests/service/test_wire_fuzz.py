"""Seeded byte-mutation suites for the two decoders that read untrusted bytes.

* A ``POST /components`` body goes through ``decode_components_frame`` and
  then, entry by entry, ``solve_component_job``.  A damaged envelope must
  raise :class:`ComponentWireError` (the request's 400); a damaged entry
  must become that entry's error, or raise a :class:`ReproError` from its
  solve (its per-entry 4xx).  Anything else would be a 500.
* Every request's head goes through ``read_request``.  It must parse, or
  raise :class:`HttpError` with a 4xx status.

Each mutant overwrites 1-4 bytes of a valid input.  A mutant that ever
escapes joins the literal corpus of its suite, so it stays pinned whatever
the generator does later.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.bench.cells import figure4_graph, figure5_graph
from repro.errors import ReproError
from repro.runtime.cache import open_cache
from repro.runtime.component_io import ComponentWireError, options_for, solve_component_job
from repro.runtime.wire_binary import decode_components_frame, encode_components_frame
from repro.service.http import MAX_HEADER_BYTES, HttpError, read_request

pytestmark = pytest.mark.service


def _mutants(body: bytes, seed: int, count: int):
    """``count`` copies of ``body`` with 1-4 bytes overwritten at random."""
    rng = random.Random(seed)
    for _ in range(count):
        mutant = bytearray(body)
        for _ in range(rng.randint(1, 4)):
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        yield bytes(mutant)


# --------------------------------------------------------- components frames
def _frame(algorithm: str) -> bytes:
    """Two components, one with a (caller-supplied, untrusted) key, traced."""
    return encode_components_frame(
        [("k" * 64, figure4_graph().to_arrays()), (None, figure5_graph().to_arrays())],
        4,
        algorithm,
        trace_id="feedface00112233",
    )


#: Frames a node must refuse whole; escaped mutants join this list.
FRAME_CORPUS = [
    b"",
    b"RPC2 not a frame",
    b"RPC2\x02\x04\x00\x00\x00\x06linear\x00\xff\xff\xff\xff",  # 2**32-1 entries, none sent
    b"RPC2\x02\x04\x00\x00\x00\x06linear\x00\x01\x00\x00\x00\x00\xff\xff\xff\xff",
    b"RPC2\x02\x04\x00\x00\x00\x06linear\x00\x01\x00\x00\x00\x02\xff\xfe\x00\x00\x00\x00",
]


def _serve_frame(body: bytes, cache) -> None:
    """What a node does with one body, minus HTTP; raises only on a 400."""
    colors, algorithm, _, frames = decode_components_frame(body)
    options_for(colors, algorithm)
    for component in frames:
        if component.error is not None:
            continue  # this entry's 400; its siblings still solve
        job = {
            "kind": "component",
            "graph_frame": component.frame,
            "key": component.key,
            "colors": colors,
            "algorithm": algorithm,
        }
        try:
            solve_component_job(job, cache)
        except ReproError:
            pass  # this entry's 400 or 422


class TestMutatedComponentsFrames:
    @pytest.mark.parametrize("algorithm", ["linear", "sdp-backtrack"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_mutants_fail_as_the_request_or_one_entry(self, seed, algorithm):
        cache = open_cache()  # a worker's cache: shipped keys are looked up
        for index, mutant in enumerate(_mutants(_frame(algorithm), seed, count=375)):
            try:
                _serve_frame(mutant, cache)
            except ComponentWireError:
                pass
            except Exception as exc:  # pragma: no cover - the regression
                pytest.fail(f"mutant {index} escaped as {exc!r}")

    @pytest.mark.parametrize("body", FRAME_CORPUS)
    def test_corpus_is_refused_whole(self, body):
        with pytest.raises(ComponentWireError):
            _serve_frame(body, open_cache())

    def test_every_truncation_is_refused_whole(self):
        body = _frame("linear")
        for end in range(len(body)):
            with pytest.raises(ComponentWireError):
                decode_components_frame(body[:end])


# ------------------------------------------------------------ request heads
HEAD = (
    b"POST /decompose HTTP/1.1\r\n"
    b"Host: 127.0.0.1:8000\r\n"
    b"Content-Type: application/json\r\n"
    b"X-Repro-Trace-Id: feedface00112233\r\n"
    b"Content-Length: 16\r\n"
    b"Connection: keep-alive\r\n"
    b"\r\n"
    b'{"layout": null}'
)

#: Requests the server must answer with a 4xx; escaped mutants join this list.
HEAD_CORPUS = [
    b"\r\n\r\n",
    b"GET /healthz\r\n\r\n",
    b"GET /healthz HTTP/9.9\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
    b"POST /decompose HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
    b"POST /decompose HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n",
    b"POST /decompose HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n",
    b"POST /decompose HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    b"POST /decompose HTTP/1.1\r\nContent-Length: 5\r\n\r\n{}",
    b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEADER_BYTES + b"\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nHost: x",
]


async def _read(data: bytes):
    """One request head as the server reads it: a bounded stream, at EOF."""
    reader = asyncio.StreamReader(limit=MAX_HEADER_BYTES)
    reader.feed_data(data)
    reader.feed_eof()
    return await read_request(reader, max_body_bytes=1024)


async def _escapes(bodies):
    """Index and exception of every body not parsed nor refused with a 4xx."""
    escaped = []
    for index, body in enumerate(bodies):
        try:
            await _read(body)
        except HttpError as exc:
            if not 400 <= exc.status < 500:
                escaped.append((index, exc))
        except Exception as exc:  # pragma: no cover - the regression
            escaped.append((index, exc))
    return escaped


class TestMutatedRequestHeads:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_mutants_parse_or_are_a_4xx(self, seed):
        assert asyncio.run(_escapes(_mutants(HEAD, seed, count=1000))) == []

    def test_corpus_is_a_4xx(self):
        async def statuses():
            found = []
            for body in HEAD_CORPUS:
                with pytest.raises(HttpError) as excinfo:
                    await _read(body)
                found.append(excinfo.value.status)
            return found

        assert all(400 <= status < 500 for status in asyncio.run(statuses()))

    def test_every_truncation_parses_or_is_a_4xx(self):
        prefixes = [HEAD[:end] for end in range(len(HEAD))]
        assert asyncio.run(_escapes(prefixes)) == []
