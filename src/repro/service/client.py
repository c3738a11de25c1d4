"""Blocking HTTP client for the decomposition service.

A deliberately small wrapper over :mod:`http.client` — enough for tests,
examples, the cluster coordinator and scripted callers to talk to
:class:`DecompositionServer` without hand-writing requests.

Connections are **persistent**: each thread keeps one keep-alive connection
per server address and reuses it across calls, which is what makes the
coordinator's component fan-out cheap (no TCP handshake per component).  A
request that fails on a pooled connection — the server may have closed an
idle connection between calls — is retried once on a fresh one; requests
are deterministic solves, so the retry is safe.  The per-thread pooling
keeps a shared :class:`ServiceClient` thread-safe.

::

    client = ServiceClient("127.0.0.1", 8000)
    client.wait_until_healthy()
    response = client.decompose(layout, algorithm="linear")
    masks = Layout.from_dict(response["masks"])
"""

from __future__ import annotations

import base64
import http.client
import json
import socket
import threading
import time
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.geometry.layout import Layout
from repro.service.http import TRACE_HEADER

#: One server address.
Address = Tuple[str, int]


def parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Parse a ``Retry-After`` header into seconds, defensively.

    RFC 9110 allows both delta-seconds and an HTTP-date; real servers and
    proxies emit both, plus the occasional junk.  A backpressure *hint* must
    never turn into a client crash, so anything unparseable degrades to
    ``None`` (caller falls back to its own pacing) and dates in the past
    clamp to ``0.0``.
    """
    if value is None:
        return None
    text = str(value).strip()
    if not text:
        return None
    try:
        seconds = float(text)
    except ValueError:
        try:
            target = parsedate_to_datetime(text)
        except (TypeError, ValueError, IndexError):
            return None
        if target is None:
            return None
        if target.tzinfo is None:
            target = target.replace(tzinfo=timezone.utc)
        seconds = (target - datetime.now(timezone.utc)).total_seconds()
    if seconds != seconds or seconds in (float("inf"), float("-inf")):  # NaN/inf
        return None
    return max(0.0, seconds)


class ServiceError(ReproError):
    """A non-2xx service response (or no response at all).

    ``status`` is the HTTP status (0 when the connection itself failed),
    ``retry_after`` carries the server's backpressure hint on 503s, and
    ``is_timeout`` distinguishes "the server did not answer in time" from
    "the server is unreachable" — callers doing liveness inference (the
    cluster coordinator) must not treat a slow solve as a dead node.
    """

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
        is_timeout: bool = False,
    ) -> None:
        super().__init__(f"HTTP {status}: {message}" if status else message)
        self.status = status
        self.retry_after = retry_after
        self.is_timeout = is_timeout


class ServiceClient:
    """Blocking client bound to one server address."""

    def __init__(self, host: str, port: int, timeout: float = 600.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()
        #: Every thread's connection pool, so :meth:`close` can reach them all.
        self._pools: List[Dict[Address, http.client.HTTPConnection]] = []
        self._pools_lock = threading.Lock()

    # ------------------------------------------------------------ transport
    def _connections(self) -> Dict[Address, http.client.HTTPConnection]:
        pool = getattr(self._local, "connections", None)
        if pool is None:
            pool = {}
            self._local.connections = pool
            with self._pools_lock:
                self._pools.append(pool)
        return pool

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        # Safety net for clients dropped without close(): shut the pooled
        # keep-alive sockets down deterministically instead of leaving them
        # to socket.__del__ (which raises ResourceWarning).  Interpreter
        # shutdown can leave attributes half-torn-down, hence the guard.
        try:
            self.close()
        except Exception:
            pass

    def close(self) -> None:
        """Close every pooled connection, across all threads.

        Only safe once no request is in flight on this client (e.g. after
        the threads using it have been joined) — the usual lifecycle of the
        coordinator's fan-out pool and of test harnesses.
        """
        with self._pools_lock:
            pools = list(self._pools)
        for pool in pools:
            for connection in list(pool.values()):
                connection.close()
            pool.clear()

    def _request_bytes(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Dict[str, str],
        address: Address,
    ):
        """Send one request, reusing the thread's keep-alive connection.

        Returns ``(status, response headers, raw body)``.  A failure on a
        *reused* connection is retried once on a fresh one (the server may
        have closed it while idle); a failure on a fresh connection is the
        server being unreachable and raises ``ServiceError(status=0)``.
        A timeout is never retried — the server is still working on the
        request, and re-sending it would double the load.
        """
        host, port = address
        pool = self._connections()
        for attempt in (0, 1):
            connection = pool.get(address)
            fresh = connection is None
            if connection is None:
                connection = http.client.HTTPConnection(host, port, timeout=self.timeout)
                pool[address] = connection
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except socket.timeout as exc:
                # Caught before the OSError arm: a timeout means the server
                # accepted the request and is (still) solving it — neither a
                # stale connection nor a dead server.
                connection.close()
                pool.pop(address, None)
                raise ServiceError(
                    0,
                    f"no response from {host}:{port} within {self.timeout}s: {exc}",
                    is_timeout=True,
                ) from exc
            except (ConnectionError, OSError, http.client.HTTPException) as exc:
                connection.close()
                pool.pop(address, None)
                if not fresh and attempt == 0:
                    continue  # stale keep-alive connection: one fresh retry
                raise ServiceError(0, f"cannot reach {host}:{port}: {exc}") from exc
            if response.will_close:
                connection.close()
                pool.pop(address, None)
            # Thread-local so concurrent fan-out threads don't clobber each
            # other's ids; None when the server answered without one.
            self._local.last_trace_id = response.headers.get(TRACE_HEADER)
            return response.status, response.headers, raw
        raise AssertionError("unreachable")  # pragma: no cover

    @property
    def last_trace_id(self) -> Optional[str]:
        """Trace id the calling thread's most recent response advertised."""
        return getattr(self._local, "last_trace_id", None)

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict] = None,
        address: Optional[Address] = None,
        trace_id: Optional[str] = None,
    ) -> Dict:
        body = None
        headers = {"Accept": "application/json", "Connection": "keep-alive"}
        if trace_id:
            headers[TRACE_HEADER] = trace_id
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, response_headers, raw = self._request_bytes(
            method, path, body, headers, address or (self.host, self.port)
        )
        return self._json_response(status, response_headers, raw)

    @staticmethod
    def _json_response(status: int, response_headers, raw: bytes) -> Dict:
        """Decode one response as JSON, mapping error statuses to ServiceError."""
        try:
            decoded = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ServiceError(status, f"non-JSON response: {raw[:200]!r}") from exc
        if status >= 400:
            message = decoded.get("error", {}).get("message", raw.decode(errors="replace"))
            raise ServiceError(
                status,
                message,
                retry_after=parse_retry_after(response_headers.get("Retry-After")),
            )
        return decoded

    # ------------------------------------------------------------ endpoints
    def healthz(self) -> Dict:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict:
        return self._request("GET", "/stats")

    def metrics_text(self) -> str:
        """Fetch the Prometheus text exposition (``GET /metrics``)."""
        status, _, raw = self._request_bytes(
            "GET",
            "/metrics",
            None,
            {"Accept": "text/plain", "Connection": "keep-alive"},
            (self.host, self.port),
        )
        if status >= 400:
            raise ServiceError(status, raw.decode(errors="replace"))
        return raw.decode("utf-8")

    def decompose(
        self,
        layout: Optional[Layout] = None,
        gds_bytes: Optional[bytes] = None,
        name: Optional[str] = None,
        layer: Optional[str] = None,
        colors: Optional[int] = None,
        algorithm: Optional[str] = None,
        min_spacing: Optional[int] = None,
        trace_id: Optional[str] = None,
    ) -> Dict:
        """Decompose one layout; returns the response payload dict.

        ``trace_id`` lets a caller supply its own request identity; without
        one, a tracing-enabled server mints an id and echoes it back in the
        response header (see :attr:`last_trace_id`).
        """
        return self._request(
            "POST", "/decompose", self._job_payload(
                layout, gds_bytes, name, layer, colors, algorithm, min_spacing
            ),
            trace_id=trace_id,
        )

    def decompose_batch(
        self,
        layouts: List[Tuple[str, Layout]],
        layer: Optional[str] = None,
        colors: Optional[int] = None,
        algorithm: Optional[str] = None,
        min_spacing: Optional[int] = None,
    ) -> Dict:
        """Decompose many named layouts in one request."""
        payload: Dict = {
            "layouts": [
                {"name": item_name, "layout": item_layout.to_dict()}
                for item_name, item_layout in layouts
            ]
        }
        for key, value in (
            ("layer", layer),
            ("colors", colors),
            ("algorithm", algorithm),
            ("min_spacing", min_spacing),
        ):
            if value is not None:
                payload[key] = value
        return self._request("POST", "/batch", payload)

    def components_binary(self, body: bytes, trace_id: Optional[str] = None) -> Dict:
        """Solve a component micro-batch (``POST /components``).

        ``body`` is an
        :func:`repro.runtime.wire_binary.encode_components_frame` blob; the
        response's ``results`` list is aligned with the frame's components
        and carries a per-component solve or error envelope.
        """
        from repro.runtime.wire_binary import COMPONENTS_V2_CONTENT_TYPE

        headers = {
            "Accept": "application/json",
            "Connection": "keep-alive",
            "Content-Type": COMPONENTS_V2_CONTENT_TYPE,
        }
        if trace_id:
            headers[TRACE_HEADER] = trace_id
        status, response_headers, raw = self._request_bytes(
            "POST", "/components", body, headers, (self.host, self.port)
        )
        return self._json_response(status, response_headers, raw)

    def trace(self, trace_id: str) -> Dict:
        """Fetch one request's assembled trace tree (``GET /trace/<id>``)."""
        return self._request("GET", f"/trace/{trace_id}")

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _job_payload(
        layout: Optional[Layout],
        gds_bytes: Optional[bytes],
        name: Optional[str],
        layer: Optional[str],
        colors: Optional[int],
        algorithm: Optional[str],
        min_spacing: Optional[int],
    ) -> Dict:
        if (layout is None) == (gds_bytes is None):
            raise ValueError("provide exactly one of layout and gds_bytes")
        payload: Dict = {}
        if layout is not None:
            payload["layout"] = layout.to_dict()
        else:
            payload["gds_b64"] = base64.b64encode(gds_bytes).decode("ascii")
        for key, value in (
            ("name", name),
            ("layer", layer),
            ("colors", colors),
            ("algorithm", algorithm),
            ("min_spacing", min_spacing),
        ):
            if value is not None:
                payload[key] = value
        return payload

    def wait_until_healthy(self, timeout: float = 30.0, interval: float = 0.1) -> Dict:
        """Poll ``/healthz`` until the server answers ``ok`` (or time out).

        A 503 along the way is backpressure, not unreachability: when it
        carries a ``Retry-After`` hint the next probe waits that long
        (capped by the remaining deadline) instead of hammering the fixed
        interval — the server asked for the pacing, honor it.
        """
        deadline = time.monotonic() + timeout
        last: Optional[ServiceError] = None
        while time.monotonic() < deadline:
            delay = interval
            try:
                health = self.healthz()
                if health.get("status") == "ok":
                    return health
            except ServiceError as exc:
                last = exc
                if exc.status == 503 and exc.retry_after is not None:
                    delay = max(interval, exc.retry_after)
            time.sleep(max(0.0, min(delay, deadline - time.monotonic())))
        raise ServiceError(0, f"server not healthy after {timeout}s: {last}")
