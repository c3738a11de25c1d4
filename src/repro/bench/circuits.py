"""Named benchmark circuits mirroring the paper's test-case suite.

The DAC'14 evaluation runs on the scaled Metal1 layers of fifteen ISCAS-85/89
circuits (C432 ... S15850).  Those layouts cannot be redistributed, so each
circuit name maps to a :class:`~repro.bench.synthetic.SyntheticSpec` whose
size and density are chosen to keep the *relative* ordering of the paper's
suite: the C-series circuits are small (hundreds of features), the S-series
are one to two orders of magnitude larger, and C6288 is the conflict-dense
outlier.  A global ``scale`` factor shrinks every circuit proportionally so
the full Table 1/2 harness stays laptop-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bench.synthetic import SyntheticSpec, generate_layout
from repro.errors import ConfigurationError
from repro.geometry.layout import Layout

#: Circuits in the order Table 1 lists them.
TABLE1_CIRCUITS = [
    "C432",
    "C499",
    "C880",
    "C1355",
    "C1908",
    "C2670",
    "C3540",
    "C5315",
    "C6288",
    "C7552",
    "S1488",
    "S38417",
    "S35932",
    "S38584",
    "S15850",
]

#: The six densest circuits evaluated for pentuple patterning (Table 2).
TABLE2_CIRCUITS = ["C6288", "C7552", "S38417", "S35932", "S38584", "S15850"]


@dataclass(frozen=True)
class CircuitProfile:
    """Size/density profile of one named benchmark circuit."""

    name: str
    rows: int
    row_length: int
    fill_rate: float
    cluster_rate: float
    seed: int

    def to_spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            name=self.name,
            rows=self.rows,
            row_length=self.row_length,
            fill_rate=self.fill_rate,
            cluster_rate=self.cluster_rate,
            seed=self.seed,
        )


#: Profiles calibrated so that feature counts grow roughly like the paper's
#: suite (C432 smallest, S-series largest, C6288 densest in conflicts).
CIRCUIT_PROFILES: Dict[str, CircuitProfile] = {
    "C432": CircuitProfile("C432", rows=5, row_length=5000, fill_rate=0.50, cluster_rate=0.6, seed=432),
    "C499": CircuitProfile("C499", rows=5, row_length=5600, fill_rate=0.52, cluster_rate=0.6, seed=499),
    "C880": CircuitProfile("C880", rows=6, row_length=5600, fill_rate=0.52, cluster_rate=0.5, seed=880),
    "C1355": CircuitProfile("C1355", rows=6, row_length=6000, fill_rate=0.54, cluster_rate=0.5, seed=1355),
    "C1908": CircuitProfile("C1908", rows=7, row_length=6000, fill_rate=0.54, cluster_rate=0.7, seed=1908),
    "C2670": CircuitProfile("C2670", rows=8, row_length=6400, fill_rate=0.55, cluster_rate=0.6, seed=2670),
    "C3540": CircuitProfile("C3540", rows=9, row_length=6400, fill_rate=0.55, cluster_rate=0.7, seed=3540),
    "C5315": CircuitProfile("C5315", rows=10, row_length=7200, fill_rate=0.56, cluster_rate=0.8, seed=5315),
    "C6288": CircuitProfile("C6288", rows=10, row_length=7200, fill_rate=0.70, cluster_rate=2.0, seed=6288),
    "C7552": CircuitProfile("C7552", rows=11, row_length=7600, fill_rate=0.58, cluster_rate=0.9, seed=7552),
    "S1488": CircuitProfile("S1488", rows=7, row_length=5600, fill_rate=0.52, cluster_rate=0.6, seed=1488),
    "S38417": CircuitProfile("S38417", rows=24, row_length=12000, fill_rate=0.60, cluster_rate=1.2, seed=38417),
    "S35932": CircuitProfile("S35932", rows=28, row_length=13000, fill_rate=0.62, cluster_rate=1.3, seed=35932),
    "S38584": CircuitProfile("S38584", rows=27, row_length=12600, fill_rate=0.61, cluster_rate=1.25, seed=38584),
    "S15850": CircuitProfile("S15850", rows=26, row_length=12200, fill_rate=0.61, cluster_rate=1.25, seed=15850),
}


def circuit_names() -> List[str]:
    """Return the circuit names in Table 1 order."""
    return list(TABLE1_CIRCUITS)


def circuit_spec(name: str, scale: float = 1.0) -> SyntheticSpec:
    """Return the (optionally scaled) generator spec of a named circuit."""
    try:
        profile = CIRCUIT_PROFILES[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown circuit {name!r}; known: {', '.join(sorted(CIRCUIT_PROFILES))}"
        ) from exc
    spec = profile.to_spec()
    if scale != 1.0:
        spec = spec.scaled(scale)
    return spec


def load_circuit(name: str, scale: float = 1.0) -> Layout:
    """Generate the synthetic layout standing in for circuit ``name``."""
    return generate_layout(circuit_spec(name, scale))
