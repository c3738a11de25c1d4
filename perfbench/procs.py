"""Start, watch and reap the server processes a run needs.

Each server starts in its own session, so it and its worker-pool children
share one process group.  :class:`Children` stops every group it started —
SIGTERM to the leader for a graceful drain, then SIGKILL to whatever is
left of the group — and it does so in ``close()``, which the workloads call
from a ``finally``: a server leaked from one run would take a core from the
next.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

_LISTENING = re.compile(r"listening on http://\S+:(\d+)")


class ChildFailed(RuntimeError):
    """A child exited or never became ready."""


class Children:
    """Every process group a run has started."""

    def __init__(self, logdir: Path) -> None:
        self.logdir = logdir
        self._procs: List[subprocess.Popen] = []
        self._logs: Dict[int, Path] = {}

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def spawn(self, argv: Sequence[str], env: Dict[str, str]) -> subprocess.Popen:
        log = self.logdir / f"child-{len(self._procs)}.log"
        with open(log, "wb") as stderr:
            proc = subprocess.Popen(
                list(argv),
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
                start_new_session=True,
            )
        self._procs.append(proc)
        self._logs[proc.pid] = log
        return proc

    def spawn_server(
        self, argv: Sequence[str], env: Dict[str, str], timeout: float = 60.0
    ) -> Tuple[subprocess.Popen, int]:
        """Spawn a server and return it with the port its first line names."""
        proc = self.spawn(argv, env)
        line = self.read_line(proc, timeout)
        match = _LISTENING.search(line)
        if match is None:
            raise ChildFailed(f"unexpected first line {line!r}{self.log_tail(proc)}")
        return proc, int(match.group(1))

    def read_line(self, proc: subprocess.Popen, timeout: float) -> str:
        """Read one stdout line of ``proc`` within ``timeout`` seconds."""
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        if not ready:
            raise ChildFailed(f"no output within {timeout}s{self.log_tail(proc)}")
        line = proc.stdout.readline().decode("utf-8", "replace")
        if not line:
            proc.wait(timeout=10)
            raise ChildFailed(
                f"exited with {proc.returncode} before it was ready{self.log_tail(proc)}"
            )
        return line.strip()

    def log_tail(self, proc: subprocess.Popen) -> str:
        log = self._logs.get(proc.pid)
        if log is None or not log.exists():
            return ""
        tail = log.read_text(errors="replace").strip().splitlines()[-5:]
        return ("; stderr: " + " | ".join(tail)) if tail else ""

    def stop(self, proc: subprocess.Popen, grace: float = 15.0) -> None:
        """Drain ``proc`` with SIGTERM, then kill what is left of its group."""
        if proc in self._procs:
            self._procs.remove(proc)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        _wait_group_gone(proc.pid)
        if proc.stdout is not None:
            proc.stdout.close()

    def close(self) -> None:
        """Stop every child, newest first (coordinators before their nodes)."""
        while self._procs:
            self.stop(self._procs[-1])

    @property
    def groups(self) -> List[int]:
        return [proc.pid for proc in self._procs]


def _wait_group_gone(pgid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)


def _stat_fields(pid: str) -> List[str]:
    with open(f"/proc/{pid}/stat", "rb") as handle:
        raw = handle.read().decode("utf-8", "replace")
    # The command name sits in parentheses and may contain spaces.
    return raw[raw.rindex(")") + 2 :].split()


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) pids whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(entry)
        except (FileNotFoundError, ProcessLookupError, ValueError):
            continue
        # fields[0] is the state, fields[2] the process group.
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def peak_rss_mb(pgids: Sequence[int]) -> float:
    """Sum of peak resident set sizes (VmHWM) over the given process groups."""
    total_kb = 0
    for pgid in pgids:
        for pid in group_members(pgid):
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except (FileNotFoundError, ProcessLookupError):
                continue
    return total_kb / 1024.0
