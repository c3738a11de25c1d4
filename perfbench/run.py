"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload sdp-k4 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the run stamp and the details (sample counts, pass counts, cold-start
times).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The exit code is 0 only when every operation succeeded and
every output checked out.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import common  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402

WORKLOADS = ("sdp-k4", "linear-k5", "serve-mixed")

END_TO_END = (
    "layouts_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "conflicts",
    "stitches",
    "setup_s",
    "peak_rss_mb",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(args) -> dict:
    common.import_program()
    digest = common.source_digest()
    print(json.dumps({"stamp": common.run_stamp(args.workload, args.seed, digest)}), flush=True)

    with common.RunDir() as rundir:
        if args.workload == "serve-mixed":
            from perfbench import served

            outcome = served.run(args.seed, args.seconds, bool(args.trace), rundir)
        else:
            from perfbench import library

            outcome = library.run(args.workload, args.seed, args.seconds, bool(args.trace), rundir)

    drift = common.check_quality_ledger(
        args.workload, args.seed, args.seconds, bool(args.trace), digest,
        outcome.details["quality"],
    )
    if drift is not None:
        outcome.fail(drift)
    expected = [name for name, _ in PER_LAYER] if args.trace else list(END_TO_END)
    if sorted(outcome.metrics) != sorted(expected):
        raise RuntimeError(f"metric set {sorted(outcome.metrics)} != {sorted(expected)}")
    print(json.dumps({"details": outcome.details, "errors": outcome.errors}, default=str), flush=True)
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }


def _exit_on_sigterm(signum, frame) -> None:
    # Unwind through every ``finally`` so spawned servers are reaped.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        result = measure(args)
    except Exception:
        traceback.print_exc()
        print("perfbench: run failed, no result", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and result["attempted"] > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
