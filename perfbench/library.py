"""The library pair: ``sdp-k4`` (Table 1 flow) and ``linear-k5`` (Table 2 flow).

One process, one layout in flight: the benchmark process itself calls
``Decomposer.decompose`` on each input in turn, with no pool and no cache,
so the latency of a call is its service time.  The run makes whole passes
over the seed's inputs for about ``seconds`` of ``decompose`` calls; whole
passes keep every circuit equally represented in the throughput, which is
layouts completed per second spent inside the calls.  Times are reported at
nominal machine pace (``perfbench.pace``).
"""

from __future__ import annotations

import gc
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench.common import ROOT, Outcome, child_env, end_to_end
from perfbench.inputs import library_inputs, library_options
from perfbench.layers import LayerTracer, complete
from perfbench.pace import Pace
from perfbench.procs import Children

#: Cold starts per run; ``setup_s`` is their median.  One more unmeasured
#: start comes first, so bytecode and page caches are warm for all of them.
SETUP_STARTS = 3


@dataclass
class Passes:
    samples: List[float]
    passes: int

    @property
    def rate(self) -> float:
        """Layouts per second of time spent inside ``decompose`` calls."""
        return len(self.samples) / sum(self.samples)


class Checker:
    """Checks every result as it arrives, so no result outlives its check.

    Holding whole results until the run ends grew the heap, and with it the
    collector's pauses inside later timed calls.
    """

    def __init__(self, outcome: Outcome, inputs, num_colors: int) -> None:
        self.outcome = outcome
        self.inputs = inputs
        self.num_colors = num_colors
        self.first: Dict[int, Tuple[int, int, Dict[int, int]]] = {}

    def __call__(self, index: int, result) -> None:
        from repro.core.evaluation import check_complete, count_conflicts, count_stitches
        from repro.errors import ReproError

        name = self.inputs[index][0]
        solution = result.solution
        graph = result.construction.graph
        try:
            check_complete(graph, solution.coloring, self.num_colors)
        except ReproError as exc:
            self.outcome.fail(f"{name}: incomplete coloring: {exc}")
            return
        counted = (count_conflicts(graph, solution.coloring), count_stitches(graph, solution.coloring))
        if counted != (solution.conflicts, solution.stitches):
            self.outcome.fail(
                f"{name}: reported {solution.conflicts}/{solution.stitches} "
                f"conflicts/stitches, recomputed {counted[0]}/{counted[1]}"
            )
            return
        seen = self.first.setdefault(index, (*counted, solution.coloring))
        if seen != (*counted, solution.coloring):
            self.outcome.fail(f"{name}: another pass colored the same input differently")

    def quality(self) -> Dict[str, int]:
        """Conflicts and stitches summed over the inputs."""
        return {
            "conflicts": sum(c for c, _, _ in self.first.values()),
            "stitches": sum(s for _, s, _ in self.first.values()),
        }


def timed_passes(decomposer, inputs, seconds: float, check: Checker, pace: Pace) -> Passes:
    """Decompose every input in turn, in whole passes, for about ``seconds``.

    The run stops after the pass that ends nearest ``seconds``.  Only the
    ``decompose`` calls are timed; each result is checked, and the pace
    sampled, between calls, outside the timed intervals.
    """
    samples: List[float] = []
    passes = 0
    while True:
        for index, (_, layout) in enumerate(inputs):
            began = time.perf_counter()
            result = decomposer.decompose(layout)
            samples.append(time.perf_counter() - began)
            check(index, result)
            pace.after(samples[-1])
        passes += 1
        timed = sum(samples)
        if timed + timed / passes / 2 >= seconds:
            return Passes(samples, passes)


def measure_setup(workload: str, children: Children, rundir: Path, pace: Pace) -> List[float]:
    """Seconds from spawn to first result of fresh interpreters."""
    argv = [sys.executable, str(ROOT / "perfbench" / "coldstart.py"), workload]
    env = child_env(rundir)
    starts = []
    for attempt in range(SETUP_STARTS + 1):
        began = time.perf_counter()
        proc = children.spawn(argv, env)
        line = children.read_line(proc, timeout=120)
        elapsed = time.perf_counter() - began
        children.stop(proc)
        if not line.startswith("{"):
            raise RuntimeError(f"cold start printed {line!r}")
        if attempt:
            starts.append(elapsed)
            pace.sample()
    return starts


def run(workload: str, seed: int, seconds: float, trace: bool, rundir: Path) -> Outcome:
    from repro.core.decomposer import Decomposer

    outcome = Outcome()
    inputs = library_inputs(workload, seed)
    options = library_options(workload)
    decomposer = Decomposer(options)
    check = Checker(outcome, inputs, options.num_colors)
    # The first call in a process pays a few hundred ms of one-time costs
    # (C432 at scale 0.1: 371 ms first, 53-66 ms after): pay them on the
    # smallest input, untimed.
    smallest = min(range(len(inputs)), key=lambda index: len(inputs[index][1]))
    check(smallest, decomposer.decompose(inputs[smallest][1]))
    pace = Pace()
    # The inputs live for the whole run: keep them out of every collection.
    gc.collect()
    gc.freeze()

    if trace:
        # Half untraced, half traced, so the run takes about ``seconds``.
        untraced = timed_passes(decomposer, inputs, seconds / 2, check, pace)
        with LayerTracer() as tracer:
            traced = timed_passes(decomposer, inputs, seconds / 2, check, pace)
        runs = [untraced, traced]
        partial = tracer.metrics()
        partial["trace.overhead_pct"] = 100.0 * (untraced.rate / traced.rate - 1.0)
        outcome.metrics = complete(partial, pace.scale)
    else:
        setup_pace = Pace()
        with Children(rundir) as children:
            setup = measure_setup(workload, children, rundir, setup_pace)
        measured = timed_passes(decomposer, inputs, seconds, check, pace)
        runs = [measured]
        outcome.details.update(
            passes=measured.passes,
            timed_s=sum(measured.samples),
            setup_pace=setup_pace.details(),
        )
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        outcome.metrics = end_to_end(
            outcome, measured.rate, measured.samples, check.quality(),
            setup, peak_kb / 1024.0, pace, setup_pace,
        )
    outcome.details["pace"] = pace.details()
    outcome.attempted = 1 + sum(len(passes.samples) for passes in runs)
    outcome.details["quality"] = check.quality()
    return outcome
