"""Machine pace: how fast this box runs right now, from a fixed reference loop.

On a small shared VM (2 vCPUs) the same code runs up to 1.7x slower for
minutes at a time: one ``sdp-k4`` pass took 5.8-9.2 s within one process,
and five 30-s ``sdp-k4`` runs in a row went from 1.68 to 2.84 layouts/s.
Process CPU time drifts with it, so the box is running slower, not
stealing time from the process, and no run length averages it out.
Wall-clock figures then measure the neighbours as much as the program.

A run therefore interleaves a fixed reference loop with the calls it times,
once per ``EVERY`` seconds of timed work, and reports each time at nominal
pace: ``raw * NOMINAL / mean(reference)``.  The loop is the benchmark's own
code (dict and set churn plus small NumPy array ops, the mix the
decomposition flow runs), so a change to the program never moves it.  Over
six ``sdp-k4`` runs whose raw throughput ranged 1.87-2.76 layouts/s, the
scaled throughput ranged 2.8%; over six ``linear-k5`` runs, 29% raw and 14%
scaled.  On a box where the loop takes
``NOMINAL`` seconds the scaled and the raw figures agree; the details line
of every run prints both.
"""

from __future__ import annotations

import time
from typing import List

#: Seconds the reference loop takes at nominal pace.
NOMINAL = 0.020
#: Seconds of timed work between two runs of the loop (about 4% extra).
EVERY = 0.5


class Pace:
    """Reference-loop samples taken between the calls a run times."""

    def __init__(self) -> None:
        import numpy as np  # after ``common.import_program`` pinned its threads

        rng = np.random.default_rng(0)
        self._np = np
        self._vectors = rng.normal(size=(300, 6))
        self._pairs = rng.integers(0, 300, size=(900, 2))
        # Due at once, so even a run shorter than ``EVERY`` has a sample.
        self._owed = EVERY
        self.samples: List[float] = []
        self._loop()  # the first pass allocates; keep it out of the samples

    def _loop(self) -> None:
        np = self._np
        table = {}
        for i in range(30000):
            key = i % 997
            table[key] = table.get(key, 0) + i
        seen = set()
        for i in range(20000):
            seen.add((i * 7919) % 4099)
        vectors = self._vectors.copy()
        left, right = self._pairs[:, 0], self._pairs[:, 1]
        for _ in range(60):
            gradient = np.zeros_like(vectors)
            a, b = vectors[left], vectors[right]
            np.einsum("ij,ij->i", a, b)
            np.add.at(gradient, left, b)
            np.add.at(gradient, right, a)
            vectors = vectors - 0.01 * gradient
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)

    def sample(self) -> float:
        """Run the loop once, record and return its seconds."""
        began = time.perf_counter()
        self._loop()
        elapsed = time.perf_counter() - began
        self.samples.append(elapsed)
        return elapsed

    def after(self, timed: float) -> float:
        """Account ``timed`` seconds of work; sample once ``EVERY`` is due.

        Returns the seconds spent in the loop (zero when none was due), so a
        caller timing a whole region can leave them out.
        """
        self._owed += timed
        if self._owed < EVERY:
            return 0.0
        self._owed = 0.0
        return self.sample()

    @property
    def mean(self) -> float:
        if not self.samples:
            raise RuntimeError("no reference-loop sample taken")
        return sum(self.samples) / len(self.samples)

    @property
    def scale(self) -> float:
        """Factor that takes a raw time of this run to nominal pace."""
        return NOMINAL / self.mean

    def details(self) -> dict:
        return {
            "reference_mean_ms": 1000.0 * self.mean,
            "reference_samples": len(self.samples),
            "scale": self.scale,
        }
