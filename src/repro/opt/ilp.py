"""0-1 integer linear programming by LP-based branch and bound.

The paper's exact baseline formulates layout decomposition as an ILP and
solves it with GUROBI.  No commercial solver is available in this
reproduction, so this module provides an exact branch-and-bound solver for
pure 0-1 programs:

* the LP relaxation at each node is solved with scipy's HiGHS backend,
* branching picks the most fractional variable,
* the incumbent starts from a rounding heuristic so the time-limited search
  degrades gracefully to a feasible (if suboptimal) solution,
* a wall-clock budget reproduces the ">1 hour, N/A" behaviour of Table 1 on
  instances that are too large.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SolverError
from repro.opt.lp import solve_lp

_EPSILON = 1e-6


@dataclass
class LinearConstraint:
    """A sparse linear constraint ``coeffs . x  <sense>  rhs``."""

    coefficients: Dict[int, float]
    sense: str  # "<=", ">=" or "=="
    rhs: float

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise SolverError(f"unknown constraint sense {self.sense!r}")


class IntegerProgram:
    """A 0-1 minimisation program built incrementally.

    Variables are added by name; constraints reference variable indices or
    names.  The model is intentionally small and explicit: the decomposer
    builds one program per graph component, typically with a few hundred
    variables at most.
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._index: Dict[str, int] = {}
        self._objective: List[float] = []
        self._constraints: List[LinearConstraint] = []

    # ---------------------------------------------------------------- build
    def add_variable(self, name: str, objective: float = 0.0) -> int:
        """Add a binary variable and return its index."""
        if name in self._index:
            raise SolverError(f"duplicate variable name {name!r}")
        index = len(self._names)
        self._names.append(name)
        self._index[name] = index
        self._objective.append(objective)
        return index

    def variable_index(self, name: str) -> int:
        """Return the index of a previously added variable."""
        try:
            return self._index[name]
        except KeyError as exc:
            raise SolverError(f"unknown variable {name!r}") from exc

    def add_constraint(
        self, coefficients: Dict[str, float], sense: str, rhs: float
    ) -> None:
        """Add a constraint given as ``{variable name: coefficient}``."""
        indexed = {
            self.variable_index(name): value for name, value in coefficients.items()
        }
        self._constraints.append(LinearConstraint(indexed, sense, rhs))

    @property
    def num_variables(self) -> int:
        return len(self._names)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    def variable_names(self) -> List[str]:
        return list(self._names)

    # ------------------------------------------------------------- matrices
    def to_matrices(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return (c, A_ub, b_ub, A_eq, b_eq) dense matrices for the LP layer."""
        n = self.num_variables
        c = np.asarray(self._objective, dtype=float)
        ub_rows: List[np.ndarray] = []
        ub_rhs: List[float] = []
        eq_rows: List[np.ndarray] = []
        eq_rhs: List[float] = []
        for constraint in self._constraints:
            row = np.zeros(n)
            for index, value in constraint.coefficients.items():
                row[index] = value
            if constraint.sense == "<=":
                ub_rows.append(row)
                ub_rhs.append(constraint.rhs)
            elif constraint.sense == ">=":
                ub_rows.append(-row)
                ub_rhs.append(-constraint.rhs)
            else:
                eq_rows.append(row)
                eq_rhs.append(constraint.rhs)
        a_ub = np.vstack(ub_rows) if ub_rows else np.empty((0, n))
        b_ub = np.asarray(ub_rhs)
        a_eq = np.vstack(eq_rows) if eq_rows else np.empty((0, n))
        b_eq = np.asarray(eq_rhs)
        return c, a_ub, b_ub, a_eq, b_eq

    def evaluate(self, values: Dict[str, int]) -> float:
        """Return the objective value of a full integer assignment."""
        return sum(
            self._objective[self._index[name]] * value for name, value in values.items()
        )

    def is_feasible(self, values: Dict[str, int]) -> bool:
        """Check a full integer assignment against every constraint."""
        vector = np.zeros(self.num_variables)
        for name, value in values.items():
            vector[self._index[name]] = value
        for constraint in self._constraints:
            lhs = sum(
                vector[index] * coeff
                for index, coeff in constraint.coefficients.items()
            )
            if constraint.sense == "<=" and lhs > constraint.rhs + _EPSILON:
                return False
            if constraint.sense == ">=" and lhs < constraint.rhs - _EPSILON:
                return False
            if constraint.sense == "==" and abs(lhs - constraint.rhs) > _EPSILON:
                return False
        return True


@dataclass
class IlpResult:
    """Result of a branch-and-bound solve.

    ``status`` is ``"optimal"``, ``"feasible"`` (time limit hit with an
    incumbent), ``"timeout"`` (no incumbent found in time) or
    ``"infeasible"``.
    """

    status: str
    objective: float
    values: Dict[str, int] = field(default_factory=dict)
    nodes_explored: int = 0
    runtime: float = 0.0
    best_bound: float = float("-inf")

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def has_solution(self) -> bool:
        return self.status in ("optimal", "feasible")


class BranchAndBoundSolver:
    """Exact 0-1 ILP solver with a wall-clock budget.

    Parameters
    ----------
    time_limit:
        Wall-clock budget in seconds; ``None`` means unlimited.
    gap_tolerance:
        Relative optimality gap below which the search stops early.
    """

    def __init__(
        self, time_limit: Optional[float] = None, gap_tolerance: float = 1e-6
    ) -> None:
        self.time_limit = time_limit
        self.gap_tolerance = gap_tolerance

    def solve(self, program: IntegerProgram) -> IlpResult:
        """Solve ``program`` to optimality (or until the time limit)."""
        import scipy.optimize  # noqa: F401  # load before the budget clock starts

        start = time.perf_counter()
        c, a_ub, b_ub, a_eq, b_eq = program.to_matrices()
        n = program.num_variables
        names = program.variable_names()

        best_values: Optional[np.ndarray] = None
        best_objective = float("inf")

        root = self._solve_relaxation(c, a_ub, b_ub, a_eq, b_eq, {})
        if root is None:
            return IlpResult("infeasible", float("inf"), {}, 1, self._elapsed(start))
        root_objective, root_values = root

        # Rounding heuristic provides an incumbent immediately.
        rounded = self._round_heuristic(program, root_values)
        if rounded is not None:
            best_values = rounded
            best_objective = float(c @ rounded)

        # Depth-first branch and bound; stack holds (fixed assignments, bound).
        stack: List[Tuple[Dict[int, int], float]] = [({}, root_objective)]
        nodes = 0
        timed_out = False
        while stack:
            if self.time_limit is not None and self._elapsed(start) > self.time_limit:
                timed_out = True
                break
            fixed, parent_bound = stack.pop()
            if parent_bound >= best_objective - self.gap_tolerance:
                continue
            relaxation = self._solve_relaxation(c, a_ub, b_ub, a_eq, b_eq, fixed)
            nodes += 1
            if relaxation is None:
                continue
            objective, values = relaxation
            if objective >= best_objective - self.gap_tolerance:
                continue
            branch_var = self._most_fractional(values, fixed)
            if branch_var is None:
                # Integral solution: new incumbent.
                rounded_values = np.round(values).astype(int)
                best_objective = objective
                best_values = rounded_values
                continue
            fractional = values[branch_var]
            # Explore the branch closer to the LP value first (pushed last).
            first, second = (1, 0) if fractional >= 0.5 else (0, 1)
            for value in (second, first):
                child = dict(fixed)
                child[branch_var] = value
                stack.append((child, objective))

        runtime = self._elapsed(start)
        if best_values is None:
            status = "timeout" if timed_out else "infeasible"
            return IlpResult(status, float("inf"), {}, nodes, runtime)
        status = "feasible" if timed_out else "optimal"
        solution = {names[i]: int(best_values[i]) for i in range(n)}
        return IlpResult(status, float(best_objective), solution, nodes, runtime)

    # ----------------------------------------------------------- internals
    @staticmethod
    def _elapsed(start: float) -> float:
        return time.perf_counter() - start

    @staticmethod
    def _solve_relaxation(
        c: np.ndarray,
        a_ub: np.ndarray,
        b_ub: np.ndarray,
        a_eq: np.ndarray,
        b_eq: np.ndarray,
        fixed: Dict[int, int],
    ) -> Optional[Tuple[float, np.ndarray]]:
        bounds = [(0.0, 1.0)] * len(c)
        for index, value in fixed.items():
            bounds[index] = (float(value), float(value))
        result = solve_lp(
            c,
            a_ub=a_ub if a_ub.size else None,
            b_ub=b_ub if b_ub.size else None,
            a_eq=a_eq if a_eq.size else None,
            b_eq=b_eq if b_eq.size else None,
            bounds=bounds,
        )
        if not result.is_optimal:
            return None
        return result.objective, result.values

    @staticmethod
    def _most_fractional(
        values: np.ndarray, fixed: Dict[int, int]
    ) -> Optional[int]:
        best_index: Optional[int] = None
        best_score = _EPSILON
        for index, value in enumerate(values):
            if index in fixed:
                continue
            score = min(value, 1.0 - value)
            if score > best_score:
                best_score = score
                best_index = index
        return best_index

    @staticmethod
    def _round_heuristic(
        program: IntegerProgram, relaxed: np.ndarray
    ) -> Optional[np.ndarray]:
        """Round the root relaxation and keep it only if feasible."""
        rounded = np.round(relaxed).astype(int)
        names = program.variable_names()
        values = {names[i]: int(rounded[i]) for i in range(len(names))}
        if program.is_feasible(values):
            return rounded
        return None
