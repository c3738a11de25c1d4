"""One cold start of the library: import, load the compiled core, first result.

Run by ``library.measure_setup`` in a fresh interpreter::

    python3 perfbench/coldstart.py sdp-k4

It prints one JSON line once the first (tiny) layout is decomposed; the
parent times spawn to that line.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.common import import_program  # noqa: E402
from perfbench.inputs import library_options  # noqa: E402


def main(workload: str) -> int:
    import_program()
    from repro.bench.circuits import load_circuit
    from repro.core.decomposer import Decomposer

    result = Decomposer(library_options(workload)).decompose(load_circuit("C432", 0.05))
    print(
        json.dumps(
            {
                "vertices": result.construction.graph.num_vertices,
                "conflicts": result.solution.conflicts,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
