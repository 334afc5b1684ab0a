"""Annealing paths between an initial and a problem Hamiltonian.

A schedule is a function g: [0, tau] -> [0, 1] driving

    H(t) = (1 - g(t)) H_i + g(t) H_p,

so g = 0 is the initial Hamiltonian and g = 1 the problem one.  Spectra
along the path are reported against A = 1 - g, the weight of H_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .pauli import PauliSum
from .simulator import (
    StateVector,
    evolve_schedule,
    exact_eigensystem,
    expectation_and_variance,
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


def _check_tau(tau) -> None:
    # NaN passes `tau <= 0`, and a NaN tau evolves to a NaN state.
    if not (math.isfinite(tau) and tau > 0):
        raise ValidationError(f"tau must be finite and positive, got {tau!r}")


@dataclass(frozen=True)
class Schedule:
    """One of three interpolation families: linear, spline, bang_bang."""

    variant: str
    tau: float
    theta: tuple[float, ...] = ()
    switches: tuple[float, ...] = ()
    start_level: int = 0
    _spline: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _check_tau(self.tau)
        if self.variant == "linear":
            (theta1,) = self.theta
            if theta1 * self.tau < 1.0 - 1e-12:
                raise ValidationError("linear rate never reaches g = 1 by tau")
        elif self.variant == "spline":
            from scipy.interpolate import CubicSpline  # slow import; kept off `import vqekit`

            theta1, theta2 = self.theta
            xs = np.array([0.0, _KNOT_LO * self.tau, _KNOT_HI * self.tau, self.tau])
            ys = np.array([0.0, theta1, theta2, 1.0])
            object.__setattr__(
                self, "_spline", CubicSpline(xs, ys, bc_type="natural")
            )
        elif self.variant == "bang_bang":
            if self.start_level not in (0, 1):
                raise ValidationError("start_level must be 0 or 1")
            sw = tuple(sorted(float(t) for t in self.switches))
            if sw and (sw[0] < 0.0 or sw[-1] > self.tau):
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
    def bang_bang(cls, tau: float, switches, start_level: int = 0) -> "Schedule":
        return cls(
            variant="bang_bang",
            tau=tau,
            switches=tuple(switches),
            start_level=start_level,
        )

    def evaluate(self, t):
        """g(t), elementwise on arrays; t must lie in [0, tau]."""
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-9) or np.any(t > self.tau + 1e-9):
            raise ValidationError("schedule evaluated outside [0, tau]")
        t = np.clip(t, 0.0, self.tau)
        if self.variant == "linear":
            g = np.minimum(1.0, self.theta[0] * t)
        elif self.variant == "spline":
            g = np.clip(self._spline(t), 0.0, 1.0)
        else:
            flips = np.searchsorted(np.asarray(self.switches), t, side="right")
            g = (self.start_level + flips) % 2
        g = np.asarray(g, dtype=float)
        return float(g) if g.ndim == 0 else g


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
    hams = a_grid[:, None, None] * mi + (1.0 - a_grid)[:, None, None] * mp
    return np.linalg.eigvalsh(hams)


def _endpoints(h_i: PauliSum, h_p: PauliSum) -> tuple[StateVector, StateVector]:
    """The ground state of H_i and the non-degenerate ground state of H_p."""
    vals, vecs = exact_eigensystem(h_p)
    if vals.size > 1 and vals[1] - vals[0] <= 1e-8:
        raise ValidationError("target ground state is degenerate")
    target = StateVector(vecs[:, 0], copy=True)
    return ground_state(h_i)[1], target


def _default_steps(tau: float) -> int:
    return max(400, int(math.ceil(20.0 * tau)))


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
        return Schedule.bang_bang(tau, np.clip(params, 0.0, tau), start_level=0)
    raise ValidationError(f"unknown schedule family {family!r}")


def _initial_params(family: str, tau: float, n_switches: int) -> np.ndarray:
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
    if objective not in ("energy", "infidelity"):
        raise ValidationError(f"unknown objective {objective!r}")
    steps = steps if steps is not None else _default_steps(tau)
    start, target = _endpoints(h_i, h_p)

    def run(params: np.ndarray) -> float:
        sched = make_schedule(family, tau, params)
        final = evolve_schedule(start, sched, h_i, h_p, tau, steps)
        if objective == "energy":
            return expectation_and_variance(final, h_p)[0]
        return 1.0 - final.fidelity(target)

    x0 = _initial_params(family, tau, n_switches)
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
    steps = steps if steps is not None else _default_steps(tau)
    start, target = _endpoints(h_i, h_p)
    return _record_path(
        Schedule.linear(tau), (1.0 / tau,), 1, h_i, h_p, steps, start, target
    )


def path_study(
    h_i: PauliSum,
    h_p: PauliSum,
    taus,
    family: str = "spline",
    objective: str = "energy",
    steps: int | None = None,
    n_switches: int = 2,
) -> PathStudyResult:
    """Linear baseline plus optimized-family record at every tau."""
    records = []
    for tau in taus:
        records.append(baseline_record(h_i, h_p, float(tau), steps))
        records.append(
            optimize_path(
                family,
                h_i,
                h_p,
                float(tau),
                steps=steps,
                objective=objective,
                n_switches=n_switches,
            )
        )
    return PathStudyResult(records=tuple(records))
