"""Benchmark: what observability costs the serving path.

The event journal and span collection ride every request.  This harness
pins that cost with numbers: end-to-end ``POST /decompose`` latency
against an in-process server with the event journal *off* vs *on* (same
layout, same inline pool).  The delta is what ``--journal DIR`` costs a
caller per request.

Run standalone to (re)record ``benchmarks/artifacts/obs_overhead.json``::

    python benchmarks/bench_obs_overhead.py           # full sweep
    python benchmarks/bench_obs_overhead.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.factory import wire_row_layout
from repro.service import ServerConfig, ServerThread, ServiceClient

ARTIFACT_PATH = Path(__file__).parent / "artifacts" / "obs_overhead.json"


def _measure_request_latency(
    journal_dir: Optional[str], requests: int, warmup: int
) -> dict:
    """Per-request POST /decompose wall times against one inline server."""
    layout = wire_row_layout(num_wires=6, wire_length=800)
    config = ServerConfig(
        port=0, workers=1, force_inline_pool=True, journal_dir=journal_dir
    )
    with ServerThread(config) as (host, port):
        client = ServiceClient(host, port)
        client.wait_until_healthy()
        for i in range(warmup):
            client.decompose(layout, name=f"warm{i}", algorithm="linear")
        samples: List[float] = []
        for i in range(requests):
            start = time.perf_counter()
            client.decompose(layout, name=f"req{i}", algorithm="linear")
            samples.append(time.perf_counter() - start)
        client.close()
    samples.sort()
    return {
        "requests": requests,
        "min_us": round(samples[0] * 1e6, 1),
        "median_us": round(statistics.median(samples) * 1e6, 1),
        "p90_us": round(samples[int(len(samples) * 0.9) - 1] * 1e6, 1),
    }


def record_artifact(quick: bool = False, path: Path = ARTIFACT_PATH) -> dict:
    requests = 10 if quick else 40
    warmup = 2 if quick else 5

    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
        journal_off = _measure_request_latency(None, requests, warmup)
        journal_on = _measure_request_latency(
            str(Path(tmp) / "journal"), requests, warmup
        )
    delta_us = round(journal_on["median_us"] - journal_off["median_us"], 1)
    overhead_pct = (
        round(100.0 * delta_us / journal_off["median_us"], 2)
        if journal_off["median_us"]
        else None
    )

    payload = {
        "benchmark": "obs_overhead",
        "quick": quick,
        "note": (
            "request latencies are per-request wall times against one "
            "inline-pool server; on a shared 1-2 CPU box they are noisy"
        ),
        "request_latency": {
            "journal_off": journal_off,
            "journal_on": journal_on,
            "journal_delta_median_us": delta_us,
            "journal_overhead_pct": overhead_pct,
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer requests",
    )
    parser.add_argument(
        "--artifact",
        type=Path,
        default=ARTIFACT_PATH,
        help=f"artifact output path (default: {ARTIFACT_PATH})",
    )
    args = parser.parse_args(argv)
    payload = record_artifact(quick=args.quick, path=args.artifact)
    latency = payload["request_latency"]
    print(
        f"request median: journal off {latency['journal_off']['median_us']:.0f}us, "
        f"on {latency['journal_on']['median_us']:.0f}us "
        f"(delta {latency['journal_delta_median_us']:+.0f}us, "
        f"{latency['journal_overhead_pct']:+.1f}%)"
    )
    print(f"artifact written to {args.artifact}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
