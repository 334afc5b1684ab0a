"""Annealing paths between an initial and a problem Hamiltonian.

A schedule is a function g: [0, tau] -> [0, 1] driving

    H(t) = (1 - g(t)) H_i + g(t) H_p,

so g = 0 is the initial Hamiltonian and g = 1 the problem one.  Spectra
along the path are reported against A = 1 - g, the weight of H_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .pauli import PauliSum
from .simulator import (
    StateVector,
    _check_step_bound,
    _check_tau,
    _expectation,
    _norm_bound,
    evolve_schedule,
    exact_eigensystem,
    ground_state,
)
from . import optimize as _opt

__all__ = [
    "Schedule",
    "PathRecord",
    "PathStudyResult",
    "spectrum_along_path",
    "success_probability",
    "make_schedule",
    "optimize_path",
    "path_study",
]

# Spline knot abscissae as fractions of tau, from the two-parameter family.
_KNOT_LO = 0.15
_KNOT_HI = 0.85
# Overlap samples along a recorded path, both ends included.
TRAJECTORY_POINTS = 201
# Size cap of one (chunk, d, d) stack in `spectrum_along_path`.  It is glibc's
# default mmap threshold: larger stacks come from fresh pages on every call.
_CHUNK_BYTES = 1 << 17


@dataclass(frozen=True)
class Schedule:
    """One of three interpolation families: linear, spline, bang_bang."""

    variant: str
    tau: float
    theta: tuple[float, ...] = ()
    switches: tuple[float, ...] = ()

    def __post_init__(self):
        _check_tau(self.tau)
        if not all(math.isfinite(v) for v in self.theta):
            raise ValidationError(f"schedule parameters must be finite, got {self.theta!r}")
        if self.variant == "linear":
            (theta1,) = self.theta
            if theta1 * self.tau < 1.0 - 1e-12:
                raise ValidationError("linear rate never reaches g = 1 by tau")
        elif self.variant == "spline":
            if len(self.theta) != 2:
                raise ValidationError("a spline takes two inner knot values")
        elif self.variant == "bang_bang":
            sw = tuple(sorted(float(t) for t in self.switches))
            if not all(0.0 <= t <= self.tau for t in sw):  # NaN fails too
                raise ValidationError("switch times must lie in [0, tau]")
            object.__setattr__(self, "switches", sw)
        else:
            raise ValidationError(f"unknown schedule variant {self.variant!r}")

    @classmethod
    def linear(cls, tau: float, theta1: float | None = None) -> "Schedule":
        _check_tau(tau)
        if theta1 is None:
            theta1 = 1.0 / tau
        return cls(variant="linear", tau=tau, theta=(float(theta1),))

    @classmethod
    def spline(cls, tau: float, theta1: float, theta2: float) -> "Schedule":
        return cls(variant="spline", tau=tau, theta=(float(theta1), float(theta2)))

    @classmethod
    def bang_bang(cls, tau: float, switches) -> "Schedule":
        """g flips between 0 and 1 at each switch time, starting from 0."""
        return cls(variant="bang_bang", tau=tau, switches=tuple(switches))

    def evaluate(self, t):
        """g(t), elementwise on arrays; t must lie in [0, tau]."""
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-9) or np.any(t > self.tau + 1e-9):
            raise ValidationError("schedule evaluated outside [0, tau]")
        t = np.clip(t, 0.0, self.tau)
        if self.variant == "linear":
            g = np.minimum(1.0, self.theta[0] * t)
        elif self.variant == "spline":
            g = np.clip(self._natural_cubic(t), 0.0, 1.0)
        else:
            g = np.searchsorted(np.asarray(self.switches), t, side="right") % 2
        g = np.asarray(g, dtype=float)
        return float(g) if g.ndim == 0 else g

    def _natural_cubic(self, t: np.ndarray) -> np.ndarray:
        """The natural cubic spline through (0, 0), (0.15 tau, theta1),
        (0.85 tau, theta2) and (tau, 1), in powers of t - (left knot)."""
        x = np.array([0.0, _KNOT_LO * self.tau, _KNOT_HI * self.tau, self.tau])
        y = np.array([0.0, *self.theta, 1.0])
        h = np.diff(x)
        slope = np.diff(y) / h
        # Second derivatives m: zero at both ends, and at the inner knots the
        # 2x2 solve that makes the first derivative continuous.
        a = np.array([[2.0 * (h[0] + h[1]), h[1]], [h[1], 2.0 * (h[1] + h[2])]])
        m = np.concatenate([[0.0], np.linalg.solve(a, 6.0 * np.diff(slope)), [0.0]])
        i = np.searchsorted(x[1:3], t, side="right")
        u, hi, mi, mj = t - x[i], h[i], m[i], m[i + 1]
        c1 = slope[i] - hi * (2.0 * mi + mj) / 6.0
        return y[i] + u * (c1 + u * (mi / 2.0 + u * (mj - mi) / (6.0 * hi)))


@dataclass(frozen=True)
class PathRecord:
    tau: float
    family: str
    params: tuple[float, ...]
    success: float
    evaluations: int
    trajectory_s: np.ndarray
    trajectory_overlap: np.ndarray


@dataclass(frozen=True)
class PathStudyResult:
    records: tuple[PathRecord, ...]


def spectrum_along_path(h_i: PauliSum, h_p: PauliSum, a_grid) -> np.ndarray:
    """Eigenvalues of A*H_i + (1-A)*H_p, one ascending row per grid point."""
    a_grid = np.asarray(a_grid, dtype=float)
    mi = h_i.to_matrix()
    mp = h_p.to_matrix()
    if mi.shape != mp.shape:
        raise ValidationError("Hamiltonians act on different qubit counts")
    if not (h_i.is_hermitian() and h_p.is_hermitian()):
        raise ValidationError("spectrum requires Hermitian Hamiltonians")
    # LAPACK solves one matrix at a time, so chunking leaves every value as is.
    # Chunks share two stacks, so a trimmed heap is not re-faulted per chunk.
    chunk = max(1, _CHUNK_BYTES // mi.nbytes)
    out = np.empty((a_grid.size, mi.shape[0]))
    stack = np.empty((min(chunk, a_grid.size), *mi.shape), dtype=complex)
    part = np.empty_like(stack)
    for lo in range(0, a_grid.size, chunk):
        a = a_grid[lo : lo + chunk, None, None]
        s = np.multiply(a, mi, out=stack[: a.shape[0]])
        p = np.multiply(1.0 - a, mp, out=part[: a.shape[0]])
        out[lo : lo + chunk] = np.linalg.eigvalsh(np.add(s, p, out=s))
    return out


def _endpoints(h_i: PauliSum, h_p: PauliSum) -> tuple[StateVector, StateVector]:
    """The ground state of H_i and the non-degenerate ground state of H_p."""
    vals, vecs = exact_eigensystem(h_p)
    if vals.size > 1 and vals[1] - vals[0] <= 1e-8:
        raise ValidationError("target ground state is degenerate")
    target = StateVector(vecs[:, 0])
    return ground_state(h_i)[1], target


def _default_steps(tau: float) -> int:
    steps = 20.0 * tau
    if not math.isfinite(steps):
        raise ValidationError(f"tau {tau!r} is too large for a default step count")
    return max(400, math.ceil(steps))


def success_probability(
    sched: Schedule,
    h_i: PauliSum,
    h_p: PauliSum,
    steps: int | None = None,
) -> float:
    """P(ground of H_p) after evolving the ground of H_i along the schedule."""
    start, target = _endpoints(h_i, h_p)
    steps = steps if steps is not None else _default_steps(sched.tau)
    final = evolve_schedule(start, sched, h_i, h_p, sched.tau, steps)
    return final.fidelity(target)


def make_schedule(family: str, tau: float, params: np.ndarray) -> Schedule:
    if family == "linear":
        # Rates below the reachability floor are pinned to it.
        return Schedule.linear(tau, theta1=max(float(params[0]), 1.0 / tau))
    if family == "spline":
        return Schedule.spline(tau, float(params[0]), float(params[1]))
    if family == "bang_bang":
        return Schedule.bang_bang(tau, np.clip(params, 0.0, tau))
    raise ValidationError(f"unknown schedule family {family!r}")


def _initial_params(family: str, objective: str, tau: float, n_switches: int) -> np.ndarray:
    """The family's starting parameters, once tau, family and objective pass."""
    _check_tau(tau)
    if objective not in ("energy", "infidelity"):
        raise ValidationError(f"unknown objective {objective!r}")
    if family == "linear":
        return np.array([1.0 / tau])
    if family == "spline":
        # Collinear control points: the optimization starts from the linear path.
        return np.array([_KNOT_LO, _KNOT_HI])
    if family == "bang_bang":
        return np.linspace(0.0, tau, n_switches + 2)[1:-1]
    raise ValidationError(f"unknown schedule family {family!r}")


def _record_path(sched, params, evaluations, h_i, h_p, steps, start, target) -> PathRecord:
    """Evolve along sched, sampling the overlap with target on a fixed stride."""
    tau = sched.tau
    stride = max(1, steps // (TRAJECTORY_POINTS - 1))
    s_samples = [0.0]
    overlaps = [start.fidelity(target)]

    def record(t, state):
        k = round(t / (tau / steps))
        if k % stride == 0 or k == steps:
            s_samples.append(t / tau)
            overlaps.append(state.fidelity(target))

    final = evolve_schedule(start, sched, h_i, h_p, tau, steps, callback=record)
    return PathRecord(
        tau=tau,
        family=sched.variant,
        params=params,
        success=final.fidelity(target),
        evaluations=evaluations,
        trajectory_s=np.asarray(s_samples),
        trajectory_overlap=np.asarray(overlaps),
    )


def optimize_path(
    family: str,
    h_i: PauliSum,
    h_p: PauliSum,
    tau: float,
    steps: int | None = None,
    objective: str = "energy",
    optimizer=None,
    n_switches: int = 2,
) -> PathRecord:
    """Tune a schedule family's free parameters at fixed tau.

    The default objective is the final problem-Hamiltonian energy; pass
    objective="infidelity" to minimize 1 - success instead.  optimizer
    defaults to Nelder-Mead with a loose tolerance suited to the smooth
    2-parameter landscape.
    """
    return _optimized_record(family, h_i, h_p, tau, steps, objective, optimizer, n_switches, ())


def _optimized_record(family, h_i, h_p, tau, steps, objective, optimizer, n_switches, ends):
    """optimize_path, from `ends` = _endpoints(h_i, h_p) if given."""
    x0 = _initial_params(family, objective, tau, n_switches)
    steps = steps if steps is not None else _default_steps(tau)
    start, target = ends or _endpoints(h_i, h_p)

    def run(params: np.ndarray) -> float:
        sched = make_schedule(family, tau, params)
        final = evolve_schedule(start, sched, h_i, h_p, tau, steps)
        if objective == "energy":
            return _expectation(final, h_p)
        return 1.0 - final.fidelity(target)

    if optimizer is None:
        res = _opt.nelder_mead(run, x0, tol=1e-6, max_evals=120)
    else:
        res = optimizer(run, x0)
    best = np.asarray(res.x, dtype=float)
    sched = make_schedule(family, tau, best)
    params = tuple(float(v) for v in best)
    return _record_path(sched, params, res.evaluations, h_i, h_p, steps, start, target)


def baseline_record(
    h_i: PauliSum,
    h_p: PauliSum,
    tau: float,
    steps: int | None = None,
) -> PathRecord:
    """The un-optimized linear path at this tau, for comparison columns."""
    return _baseline(h_i, h_p, tau, steps, _endpoints(h_i, h_p))


def _baseline(h_i, h_p, tau, steps, ends) -> PathRecord:
    steps = steps if steps is not None else _default_steps(tau)
    return _record_path(Schedule.linear(tau), (1.0 / tau,), 1, h_i, h_p, steps, *ends)


def path_study(
    h_i: PauliSum,
    h_p: PauliSum,
    taus,
    family: str = "spline",
    objective: str = "energy",
    steps: int | None = None,
    n_switches: int = 2,
) -> PathStudyResult:
    """Linear baseline plus optimized-family record at every tau; the
    endpoint eigensolves run once for the whole study, after the family,
    the objective and every tau's step limit in `evolve_schedule` pass."""
    if h_i.n_qubits != h_p.n_qubits:
        raise ValidationError("Hamiltonians act on different qubit counts")
    taus = [float(t) for t in taus]
    bound = max(_norm_bound(h_i), _norm_bound(h_p))
    for tau in taus:
        _initial_params(family, objective, tau, n_switches)
        _check_step_bound(h_i.n_qubits, tau, steps or _default_steps(tau), bound)
    records, ends = [], ()
    for tau in taus:
        ends = ends or _endpoints(h_i, h_p)
        records.append(_baseline(h_i, h_p, tau, steps, ends))
        records.append(
            _optimized_record(family, h_i, h_p, tau, steps, objective, None, n_switches, ends)
        )
    return PathStudyResult(records=tuple(records))
