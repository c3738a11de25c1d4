"""Minimal HTTP/1.1 request/response handling over ``asyncio`` streams.

The service deliberately avoids web frameworks (the container bakes in the
python toolchain only), and ``http.server`` is thread-per-request — the
wrong shape for an asyncio front end.  What a JSON RPC-style API actually
needs from HTTP is small: parse a request line + headers + sized body, write
a status + JSON body back, enforce limits.  This module is exactly that and
nothing more: no chunked encoding, no TLS.

Connections are persistent by default (HTTP/1.1 keep-alive semantics):
:func:`wants_keep_alive` implements the standard negotiation and
:func:`write_response` advertises the decision in the ``Connection`` header.
The connection *loop* — serving many requests per connection — lives in
:mod:`repro.service.base`; keep-alive is what makes the cluster
coordinator's per-component fan-out cheap (one TCP handshake per node, not
per component) and shaves a round-trip off every repeat client.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Optional, Tuple

#: Hard cap on the request line + headers block.
MAX_HEADER_BYTES = 64 * 1024

#: Default cap on request bodies (layouts can be large; GDS is base64'd).
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

#: HTTP header carrying a request's trace id in both directions (the binary
#: components frame also carries it in its own trace field).
TRACE_HEADER = "X-Repro-Trace-Id"

#: HTTP header naming the calling client/tenant for usage metering.  Purely
#: self-declared (no auth layer yet): the value is sanitised into journal
#: lifecycle events so ``repro-decompose usage`` can roll up per-client
#: accounting; absent or unusable values meter under ``anonymous``.
CLIENT_HEADER = "X-Repro-Client"

#: Cap + charset guard for :func:`client_identity` (label-safe, journal-safe).
_CLIENT_ID_MAX = 64


def client_identity(value: Optional[str]) -> str:
    """Sanitise a self-declared client id into a metering-safe token.

    Keeps ``[A-Za-z0-9._-]`` up to 64 chars; anything else (or nothing)
    meters as ``anonymous`` rather than letting arbitrary header bytes into
    journal events and metric labels.
    """
    if not value:
        return "anonymous"
    token = value.strip()[:_CLIENT_ID_MAX]
    allowed = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
    if not token or any(ch not in allowed for ch in token):
        return "anonymous"
    return token

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A malformed or oversized request, carrying the status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def json(self):
        """Decode the body as JSON (``HttpError`` 400 on failure)."""
        if not self.body:
            raise HttpError(400, "request body is empty; expected JSON")
        try:
            return json.loads(self.body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from exc

    def media_type(self) -> str:
        """The body's media type, lowercased, without parameters.

        ``POST /components`` compares this against the binary frame's
        content type and refuses anything else with ``415``.
        """
        return self.headers.get("content-type", "").split(";", 1)[0].strip().lower()


async def read_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> Optional[HttpRequest]:
    """Parse one request from ``reader``; ``None`` on a clean EOF before data."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated HTTP request") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(413, "request headers too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request headers too large")

    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        method, path, version = request_line.split(" ", 2)
    except ValueError as exc:
        raise HttpError(400, "malformed HTTP request line") from exc
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported HTTP version {version!r}")

    headers: Dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(400, "chunked request bodies are not supported")

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError as exc:
            raise HttpError(400, f"bad Content-Length {length_text!r}") from exc
        if length < 0:
            raise HttpError(400, f"bad Content-Length {length_text!r}")
        if length > max_body_bytes:
            raise HttpError(413, f"request body exceeds {max_body_bytes} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "request body shorter than Content-Length") from exc
    return HttpRequest(
        method=method.upper(), path=path, headers=headers, body=body, version=version
    )


def wants_keep_alive(request: HttpRequest) -> bool:
    """Standard HTTP persistence negotiation for one request.

    HTTP/1.1 connections persist unless the client says ``Connection: close``;
    HTTP/1.0 connections close unless the client says ``keep-alive``.
    """
    connection = request.headers.get("connection", "").lower()
    if "close" in connection:
        return False
    if request.version == "HTTP/1.0":
        return "keep-alive" in connection
    return True


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
    close: bool = True,
) -> None:
    """Write one complete response and flush.

    ``close`` selects the ``Connection`` header; with ``close=False`` the
    caller is expected to keep reading requests from the same connection.
    An explicit ``Content-Type`` in ``extra_headers`` overrides the default
    (used by the plain-text ``/metrics`` endpoint).
    """
    reason = _REASONS.get(status, "Unknown")
    headers = {
        "Content-Type": content_type,
        "Content-Length": str(len(body)),
        "Connection": "close" if close else "keep-alive",
    }
    headers.update(extra_headers or {})
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


@dataclass
class StreamResponse:
    """A response whose body is produced incrementally (e.g. SSE).

    Returned by a dispatch handler instead of ``(status, body, headers)``.
    The connection loop writes the head (no ``Content-Length``; the body is
    delimited by connection close), then awaits ``run(writer)`` which owns
    the writer until the stream ends.
    """

    status: int
    content_type: str
    run: Callable[[asyncio.StreamWriter], Awaitable[None]]
    extra_headers: Optional[Dict[str, str]] = None


async def write_stream_head(
    writer: asyncio.StreamWriter,
    status: int,
    content_type: str,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    """Write the response head for a close-delimited streaming body."""
    reason = _REASONS.get(status, "Unknown")
    headers = {
        "Content-Type": content_type,
        "Cache-Control": "no-cache",
        "Connection": "close",
    }
    headers.update(extra_headers or {})
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
    await writer.drain()


def json_body(payload) -> bytes:
    """Encode a response payload (sorted keys: deterministic on the wire)."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def error_body(status: int, message: str, **extra) -> Tuple[int, bytes]:
    """Standard error envelope: ``{"error": {"status":..., "message":...}}``."""
    return status, json_body({"error": {"status": status, "message": message, **extra}})
