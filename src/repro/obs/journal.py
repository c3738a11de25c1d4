"""Append-only JSONL event journal with segment rotation and recovery.

Layout: ``<directory>/events-000001.jsonl``, ``events-000002.jsonl``, …
Each line is one JSON event stamped with a monotonically increasing
``seq`` and a wall-clock ``ts``. A segment rotates once it crosses
``max_segment_bytes``. On open, a torn final line (crash mid-write) of the
last segment is truncated away and ``seq`` resumes after the last durable
event, so a journal survives kill -9 with at most the unflushed tail lost.
A journal whose largest readable ``seq`` is ``2**63 - 1`` refuses to open
(:class:`~repro.errors.ConfigurationError`): its next event could not be
read back.

Nothing else is ever deleted.  A newline-terminated line that does not
decode (disk corruption, a stray write) stays on disk; readers stop its
segment there.  When such a line is in the last segment, appends go to a
fresh segment, so they stay readable.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from typing import Any, BinaryIO, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

_SEGMENT_RE = re.compile(r"^events-(\d{6})\.jsonl$")
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
#: Bound of a decodable ``seq``: the journal counts in int64 range, and a
#: seq past it may have no successor ``json.dumps`` can write at all.
_SEQ_LIMIT = 2**63


def _segment_name(index: int) -> str:
    return "events-%06d.jsonl" % index


class EventJournal:
    """Size-capped, crash-tolerant append-only JSONL journal."""

    def __init__(
        self,
        directory: str,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: bool = False,
    ) -> None:
        self.directory = os.path.abspath(directory)
        self.max_segment_bytes = max(4096, int(max_segment_bytes))
        self.fsync = bool(fsync)
        self._lock = threading.Lock()
        self._fh = None
        self._segment_index = 0
        self._segment_bytes = 0
        self._seq = 0
        self.appended = 0
        self.recovered_bytes = 0
        os.makedirs(self.directory, exist_ok=True)
        self._open_tail()

    # -- open/recovery ----------------------------------------------------

    def _segment_indices(self) -> List[int]:
        out = []
        for name in os.listdir(self.directory):
            match = _SEGMENT_RE.match(name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.directory, _segment_name(index))

    def _recover_tail(self, path: str, good_end: int) -> bool:
        """Truncate the last segment's torn final line.

        ``good_end`` is where the segment's readable lines end.  Returns
        whether an undecodable newline-terminated line follows them:
        appends after it would be unreadable.
        """
        with open(path, "rb+") as fh:
            fh.seek(good_end)
            rest = fh.read()
            # Undecodable lines end at the last newline; a torn line follows.
            kept = rest.rfind(b"\n") + 1
            if kept < len(rest):
                self.recovered_bytes += len(rest) - kept
                fh.truncate(good_end + kept)
        return kept > 0

    def _open_tail(self) -> None:
        indices = self._segment_indices()
        good_end = 0
        for index in indices:
            last_seq, good_end = _readable_prefix(self._segment_path(index))
            self._seq = max(self._seq, last_seq)
        if self._seq >= _SEQ_LIMIT - 1:
            # The next seq would be undecodable; refuse before touching a file.
            raise ConfigurationError(
                f"journal {self.directory} has no seq left: its last is "
                f"{self._seq}, and no reader accepts {_SEQ_LIMIT} or more"
            )
        self._segment_index = indices[-1] if indices else 1
        if indices and self._recover_tail(self._segment_path(self._segment_index), good_end):
            self._segment_index += 1
        path = self._segment_path(self._segment_index)
        self._fh = open(path, "ab")
        self._segment_bytes = os.path.getsize(path)

    # -- writing ----------------------------------------------------------

    def append(self, event: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            if self._fh is None:
                raise RuntimeError("journal is closed")
            self._seq += 1
            record = dict(event)
            record["seq"] = self._seq
            record.setdefault("ts", round(time.time(), 6))
            line = json.dumps(record, sort_keys=True, separators=(",", ":")).encode(
                "utf-8"
            ) + b"\n"
            self._fh.write(line)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            self._segment_bytes += len(line)
            self.appended += 1
            if self._segment_bytes >= self.max_segment_bytes:
                self._fh.close()
                self._segment_index += 1
                self._fh = open(self._segment_path(self._segment_index), "ab")
                self._segment_bytes = 0
            return record

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                if self.fsync:
                    os.fsync(self._fh.fileno())
                self._fh.close()
                self._fh = None

    # -- reading ----------------------------------------------------------

    def events(self) -> Iterator[Dict[str, Any]]:
        """All durable events in seq order (skips any torn tail)."""
        for index in self._segment_indices():
            yield from _iter_segment(self._segment_path(index))

    def events_for(self, trace_id: str) -> List[Dict[str, Any]]:
        return [e for e in self.events() if e.get("trace_id") == trace_id]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "directory": self.directory,
                "segment_index": self._segment_index,
                "segment_bytes": self._segment_bytes,
                "seq": self._seq,
                "appended": self.appended,
                "recovered_bytes": self.recovered_bytes,
                "fsync": self.fsync,
            }


def _durable_lines(fh: BinaryIO) -> Iterator[Tuple[int, Any]]:
    """``(end offset, decoded JSON or None if blank)`` per durable line.

    The one line decoder of the journal.  It stops at a torn tail (a line
    without its newline) and at the first line that does not decode: bytes
    that are not UTF-8, text that is not JSON, an integer past Python's
    digit limit (all ``ValueError``), JSON nested too deep for
    :func:`json.loads` to recurse through, or an event whose integer
    ``seq`` is at least ``2**63``.  Everything after such a line in its
    segment is unreadable.
    """
    offset = 0
    for raw in fh:
        offset += len(raw)
        if not raw.endswith(b"\n"):
            return
        line = raw.strip()
        if not line:
            yield offset, None
            continue
        try:
            value = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError):
            return
        if isinstance(value, dict):
            seq = value.get("seq")
            if isinstance(seq, int) and seq >= _SEQ_LIMIT:
                return
        yield offset, value


def _readable_prefix(path: str) -> Tuple[int, int]:
    """``(largest integer seq, end offset)`` of a segment's readable lines."""
    last_seq = 0
    good_end = 0
    with open(path, "rb") as fh:
        for good_end, event in _durable_lines(fh):
            if isinstance(event, dict) and isinstance(event.get("seq"), int):
                last_seq = max(last_seq, event["seq"])
    return last_seq, good_end


def _iter_segment(path: str) -> Iterator[Dict[str, Any]]:
    """Durable events of one segment file (stops at a torn tail)."""
    try:
        fh = open(path, "rb")
    except OSError:
        return
    with fh:
        for _, event in _durable_lines(fh):
            if isinstance(event, dict):
                yield event


def _first_event(path: str) -> Optional[Dict[str, Any]]:
    """First durable event of a segment — one line read, not a full scan."""
    for event in _iter_segment(path):
        return event
    return None


def journal_segment_plan(
    directory: str,
    since_seq: Optional[int] = None,
    since_ts: Optional[float] = None,
) -> Tuple[List[str], int]:
    """Segment names plus the index where a ``--since`` read must start.

    The fast path behind :func:`read_journal`: segments are append-ordered
    and ``seq`` is strictly increasing across them, so if segment *i*'s
    first event is already at-or-before the threshold, every earlier
    segment holds only filtered-out events and is never opened.  Only the
    first line of each segment is read to decide.  The ``seq`` key is
    exact; the ``ts`` key shares the same plan on the append-order
    assumption (wall clocks only move backwards across a step, in which
    case the per-event filter still applies — the plan is a skip
    optimisation, never the filter itself).
    """
    names = sorted(
        name for name in os.listdir(directory) if _SEGMENT_RE.match(name)
    )
    start = 0
    if since_seq is None and since_ts is None:
        return names, start
    for index, name in enumerate(names):
        first = _first_event(os.path.join(directory, name))
        if first is None:
            continue
        seq = first.get("seq")
        ts = first.get("ts")
        if since_seq is not None and isinstance(seq, int) and seq <= since_seq:
            start = index
        elif since_ts is not None and isinstance(ts, (int, float)) and ts <= since_ts:
            start = index
    return names, start


def read_journal(
    directory: str,
    since_seq: Optional[int] = None,
    since_ts: Optional[float] = None,
    limit: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Read a journal directory without opening it for writing.

    ``since_seq`` keeps events strictly after that sequence number;
    ``since_ts`` keeps events at-or-after that wall-clock timestamp; both
    ride the segment-skipping plan so a long-lived journal with hundreds
    of rotated segments costs one line-read per skipped segment.
    ``limit`` keeps only the most recent N surviving events.
    """
    events: List[Dict[str, Any]] = []
    if not os.path.isdir(directory):
        return events
    names, start = journal_segment_plan(directory, since_seq, since_ts)
    for name in names[start:]:
        for event in _iter_segment(os.path.join(directory, name)):
            if since_seq is not None:
                seq = event.get("seq")
                if isinstance(seq, int) and seq <= since_seq:
                    continue
            if since_ts is not None:
                ts = event.get("ts")
                if isinstance(ts, (int, float)) and ts < since_ts:
                    continue
            events.append(event)
    if limit is not None and limit >= 0 and len(events) > limit:
        events = events[-limit:]
    return events
