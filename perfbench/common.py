"""Paths, child-process environment, percentiles and the run stamp.

Everything the benchmark writes goes under ``.bench_build/`` at the root of
the checkout: the compiled kernel core, per-run scratch directories (cache
databases, GDS temp files) and the quality ledger that pins conflicts and
stitches per workload and seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
KERNEL_CACHE = BUILD / "kernels"

#: Every metric name the benchmark prints must match this.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and load the compiled core.

    Raises ``RuntimeError`` when the package is missing or comes from
    somewhere else, and when the compiled kernel core cannot be built: the
    benchmark refuses to measure the pure-Python fallback tier by accident.
    """
    os.environ.update(pinned_env())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise RuntimeError(f"cannot import repro from {SRC}: {exc}") from exc
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"repro imported from {origin}, not from {SRC}")
    from repro.core.kernels import active_core

    active_core()  # builds on first use; raises in mode "compiled" if it cannot
    return repro


def pinned_env() -> Dict[str, str]:
    """Variables that pin the compiled kernel core and one BLAS thread.

    The kernel build stays under ``.bench_build``.  NumPy's BLAS would
    otherwise start a thread per core; on a shared box with more cores than
    layouts in flight those threads measure the scheduler, not the program.
    They are read when NumPy loads, so this must be applied before that.
    """
    return {
        "REPRO_SOLVE_KERNELS": "compiled",
        "REPRO_KERNELS_CACHE": str(KERNEL_CACHE),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def child_env(tmpdir: Path) -> Dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.update(pinned_env())
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmpdir)
    return env


class RunDir:
    """Scratch directory of one run, removed on exit (also on failure)."""

    def __init__(self) -> None:
        BUILD.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
        self._previous_tempdir = tempfile.tempdir

    def __enter__(self) -> Path:
        # In-process GDS parsing writes temp files: keep them in the checkout.
        tempfile.tempdir = str(self.path)
        return self.path

    def __exit__(self, *exc_info) -> None:
        tempfile.tempdir = self._previous_tempdir
        shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class Outcome:
    """What a workload run measured and how many of its operations failed."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


# ---------------------------------------------------------------- statistics
def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Return ``(value, sample count)`` of the ``q``-th percentile.

    Linear interpolation between closest ranks (numpy's default), so the
    value moves smoothly as samples change.  Raises on an empty sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    value = ordered[low] + (ordered[high] - ordered[low]) * fraction
    return value, len(ordered)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)[0]


# ------------------------------------------------------------------- stamps
def source_digest() -> str:
    """SHA-256 over the program (``src/``) and the benchmark's own code."""
    digest = hashlib.sha256()
    files = list(SRC.rglob("*")) + list((ROOT / "perfbench").glob("*.py"))
    for path in sorted(files):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> Optional[str]:
    git = shutil.which("git")
    if git is None:
        return None
    try:
        completed = subprocess.run(
            [git, "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def run_stamp(workload: str, seed: int, digest: str) -> Dict[str, object]:
    """What ran: code identity, seed, machine and effective kernel tier."""
    import numpy

    from repro.core.kernels import kernel_mode
    from repro.core.kernels.ccore import compiled_core

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "source_digest": digest,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_mode": kernel_mode(),
        "compiled_core_loaded": compiled_core() is not None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ----------------------------------------------------------- quality ledger
def check_quality_ledger(
    workload: str, seed: int, seconds: float, trace: bool, digest: str, quality: Dict[str, int]
) -> Optional[str]:
    """Pin ``quality`` for (workload, seed, run length, trace, source digest).

    The first run of a seed on a given source tree records its conflicts
    and stitches; every later run must reproduce them exactly.  (The served
    request list is sized from the run length, and shorter in a traced run,
    hence ``seconds`` and ``trace`` in the key.)  Returns a description of
    the mismatch, or ``None``.
    """
    name = f"{workload}-{seed}-{seconds:g}s-trace{int(trace)}-{digest[:16]}.json"
    ledger = BUILD / "quality" / name
    if ledger.exists():
        pinned = json.loads(ledger.read_text())
        if pinned != quality:
            return f"quality {quality} differs from the pinned {pinned} ({ledger.name})"
        return None
    ledger.parent.mkdir(parents=True, exist_ok=True)
    staging = ledger.with_suffix(f".{os.getpid()}.tmp")
    staging.write_text(json.dumps(quality, sort_keys=True))
    os.replace(staging, ledger)
    return None


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(
    outcome: Outcome, rate: float, latencies: List[float], quality: Dict[str, int],
    setup: List[float], rss_mb: float, pace, setup_pace,
) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics, with every time taken to nominal pace.

    ``pace`` was sampled during the timed region and ``setup_pace`` between
    the cold starts (see ``perfbench.pace``).  The raw figures go into the
    run's details.
    """
    latency = describe(latencies)
    outcome.details.update(
        raw={"layouts_per_s": rate, "latency": latency, "setup_s": median(setup)},
        setup_starts_s=setup,
    )
    return {
        "layouts_per_s": metric(rate / pace.scale, "1/s"),
        "latency_p50_ms": metric(latency["p50_ms"] * pace.scale, "ms"),
        "latency_p90_ms": metric(latency["p90_ms"] * pace.scale, "ms"),
        "conflicts": metric(quality["conflicts"], "count"),
        "stitches": metric(quality["stitches"], "count"),
        "setup_s": metric(median(setup) * setup_pace.scale, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def describe(samples: List[float]) -> Dict[str, object]:
    """Percentiles of a latency sample (seconds) in ms, with sample counts."""
    p50, n = percentile(samples, 50)
    p90, _ = percentile(samples, 90)
    return {
        "samples": n,
        "p50_ms": p50 * 1000.0,
        "p90_ms": p90 * 1000.0,
        "beyond_p90": n - math.ceil(0.9 * n),
    }
