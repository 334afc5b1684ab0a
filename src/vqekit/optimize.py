"""Derivative-free optimization for noisy variational objectives.

The simplex method is written out rather than delegated so the update
coefficients, the value-spread stopping rule, and the evaluation ledger
match the study protocol exactly; the trace is what the benchmark CSVs
are built from.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .rng import make_rng

__all__ = [
    "Objective",
    "OptResult",
    "nelder_mead",
    "multistart",
    "noisy_benchmark",
    "summarize_benchmark",
    "write_study_csv",
    "write_summary_csv",
]

_STUDY_COLUMNS = ("optimizer", "epsilon", "rep", "final_error", "evals", "seed")
_SUMMARY_COLUMNS = (
    "optimizer",
    "epsilon",
    "mean_error",
    "std_error",
    "mean_evals",
    "reps",
)

# Standard simplex coefficients: reflect, expand, contract, shrink.
_REFLECT = 1.0
_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5


class Objective:
    """Callable wrapper that counts evaluations and keeps a value trace."""

    def __init__(self, fn):
        self.fn = fn
        self.count = 0
        self.trace: list[tuple[int, float]] = []

    def __call__(self, x: np.ndarray) -> float:
        v = float(self.fn(np.asarray(x, dtype=float)))
        self.trace.append((self.count, v))
        self.count += 1
        return v


@dataclass
class OptResult:
    x: np.ndarray
    value: float
    evaluations: int
    converged: bool
    trace: list[tuple[int, float]] = field(repr=False, default_factory=list)


class _BudgetSpent(Exception):
    """Raised by the evaluation that spends the budget; it ends the run."""


def nelder_mead(
    fn,
    x0,
    tol: float = 1e-8,
    max_evals: int = 400,
    restarts: int = 0,
) -> OptResult:
    """Minimize fn by the standard Nelder-Mead iteration.

    Stops when the simplex value spread drops below tol, or on budget
    exhaustion (converged=False then).  Optional restarts rebuild the
    simplex around the incumbent with halved steps; the reported optimum
    is the best evaluation ever seen, never worse than the trace minimum.
    """
    obj = fn if isinstance(fn, Objective) else Objective(fn)
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size == 0:
        raise ValidationError("x0 must be non-empty")
    if max_evals < x0.size + 1:
        raise ValidationError("max_evals cannot cover the initial simplex")
    trace_start = len(obj.trace)
    best_x = None
    best_f = np.inf

    def evaluate(x):
        # The one budget check: the evaluation that spends max_evals ends
        # the run before any further simplex step or spread test.
        nonlocal best_x, best_f
        f = obj(x)
        if f < best_f:
            best_f = f
            best_x = x.copy()
        if len(obj.trace) - trace_start >= max_evals:
            raise _BudgetSpent
        return f

    converged = False
    center = x0
    try:
        for round_idx in range(restarts + 1):
            simplex = np.tile(center, (center.size + 1, 1))
            for i, v in enumerate(center):
                simplex[i + 1, i] += max(0.05, 0.05 * abs(v)) / 2.0**round_idx
            fvals = np.array([evaluate(p) for p in simplex])
            while True:
                order = np.argsort(fvals, kind="stable")
                simplex = simplex[order]
                fvals = fvals[order]
                if fvals[-1] - fvals[0] < tol:
                    break
                centroid = simplex[:-1].mean(axis=0)
                xr = centroid + _REFLECT * (centroid - simplex[-1])
                fr = evaluate(xr)
                if fr < fvals[0]:
                    xe = centroid + _EXPAND * (xr - centroid)
                    fe = evaluate(xe)
                    if fe < fr:
                        simplex[-1], fvals[-1] = xe, fe
                    else:
                        simplex[-1], fvals[-1] = xr, fr
                elif fr < fvals[-2]:
                    simplex[-1], fvals[-1] = xr, fr
                else:
                    if fr < fvals[-1]:
                        xc = centroid + _CONTRACT * (xr - centroid)
                    else:
                        xc = centroid - _CONTRACT * (centroid - simplex[-1])
                    fc = evaluate(xc)
                    if fc < min(fr, fvals[-1]):
                        simplex[-1], fvals[-1] = xc, fc
                    else:
                        for i in range(1, simplex.shape[0]):
                            simplex[i] = simplex[0] + _SHRINK * (simplex[i] - simplex[0])
                            fvals[i] = evaluate(simplex[i])
            converged = True
            center = best_x
    except _BudgetSpent:
        pass
    trace = obj.trace[trace_start:]
    return OptResult(
        x=best_x,
        value=best_f,
        evaluations=len(trace),
        converged=converged,
        trace=trace,
    )


def multistart(
    fn,
    bounds,
    n_starts: int = 16,
    rng=None,
    tol: float = 1e-8,
    max_evals: int = 400,
    restarts: int = 0,
) -> OptResult:
    """Nelder-Mead from quasi-random (scrambled Sobol) starts in a box."""
    if rng is None:
        raise ValidationError("multistart needs an explicit rng")
    rng = make_rng(rng)
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if np.any(hi <= lo):
        raise ValidationError("bounds must satisfy lo < hi")
    obj = fn if isinstance(fn, Objective) else Objective(fn)
    trace_start = len(obj.trace)
    from scipy.stats import qmc  # slow import; kept off `import vqekit`

    sob = qmc.Sobol(d=lo.size, scramble=True, seed=rng)
    with warnings.catch_warnings():
        # Sobol balance only holds at power-of-two sample counts; the
        # starts are seeds for local searches, so that is irrelevant here.
        warnings.simplefilter("ignore", UserWarning)
        starts = lo + sob.random(n_starts) * (hi - lo)
    runs = [
        nelder_mead(obj, x0, tol=tol, max_evals=max_evals, restarts=restarts)
        for x0 in starts
    ]
    best = min(runs, key=lambda r: r.value)  # the first of equal optima
    trace = obj.trace[trace_start:]
    return OptResult(
        x=best.x,
        value=best.value,
        evaluations=len(trace),
        converged=any(r.converged for r in runs),
        trace=trace,
    )


def noisy_benchmark(
    make_problem,
    eps_grid,
    reps: int,
    optimizers: dict,
    seed: int = 0,
) -> list[dict]:
    """Repeated seeded optimizations with additive Gaussian objective noise.

    make_problem() -> (exact_fn, x0, exact_value).  Noise at level eps has
    variance eps^2.  Each row records the exact-objective error at the
    returned optimum, so the table measures the optimizer, not the noise.
    """
    rows = []
    for i_eps, eps in enumerate(eps_grid):
        if eps < 0:
            raise ValidationError("noise level must be >= 0")
        for rep in range(reps):
            for i_opt, (name, run) in enumerate(optimizers.items()):
                exact_fn, x0, exact_value = make_problem()
                rng = make_rng(np.random.SeedSequence((seed, i_eps, rep, i_opt)))
                if eps > 0:
                    fn = lambda x, f=exact_fn, r=rng, e=eps: f(x) + r.normal(0.0, e)
                else:
                    fn = exact_fn
                res = run(fn, x0, rng)
                final_error = abs(float(exact_fn(res.x)) - exact_value)
                rows.append(
                    {
                        "optimizer": name,
                        "epsilon": float(eps),
                        "rep": rep,
                        "final_error": final_error,
                        "evals": res.evaluations,
                        "seed": seed,
                    }
                )
    return rows


def summarize_benchmark(rows: list[dict]) -> list[dict]:
    """Mean/std of final error and mean evaluations per (optimizer, epsilon)."""
    keys = []
    for r in rows:
        k = (r["optimizer"], r["epsilon"])
        if k not in keys:
            keys.append(k)
    out = []
    for name, eps in keys:
        sel = [r for r in rows if r["optimizer"] == name and r["epsilon"] == eps]
        errs = np.array([r["final_error"] for r in sel])
        out.append(
            {
                "optimizer": name,
                "epsilon": eps,
                "mean_error": float(errs.mean()),
                "std_error": float(errs.std(ddof=1)) if errs.size > 1 else 0.0,
                "mean_evals": float(np.mean([r["evals"] for r in sel])),
                "reps": len(sel),
            }
        )
    return out


def _write_rows(rows: list[dict], path: str, columns) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in rows:
            writer.writerow([repr(r[c]) if isinstance(r[c], float) else r[c] for c in columns])


def write_study_csv(rows: list[dict], path: str) -> None:
    """One row per (optimizer, epsilon, rep), in benchmark emission order."""
    _write_rows(rows, path, _STUDY_COLUMNS)


def write_summary_csv(summary: list[dict], path: str) -> None:
    _write_rows(summary, path, _SUMMARY_COLUMNS)
