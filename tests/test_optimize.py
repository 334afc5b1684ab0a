"""Simplex optimizer, multistart, and the noisy benchmark harness."""

import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

import vqekit.optimize
from vqekit import (
    Objective,
    OptResult,
    multistart,
    nelder_mead,
    noisy_benchmark,
    summarize_benchmark,
    write_study_csv,
    write_summary_csv,
)
from vqekit.errors import ValidationError
from vqekit.rng import make_rng, spawn_rngs


def quadratic(center):
    c = np.asarray(center, dtype=float)
    return lambda x: float(np.sum((x - c) ** 2))


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


class TestObjective:
    def test_counts_and_traces(self):
        obj = Objective(quadratic([0.0]))
        for v in (1.0, 2.0, 3.0):
            obj(np.array([v]))
        assert obj.count == 3
        assert [i for i, _ in obj.trace] == [0, 1, 2]
        assert [v for _, v in obj.trace] == [1.0, 4.0, 9.0]


class TestNelderMead:
    def test_quadratic_minimum(self):
        res = nelder_mead(quadratic([0.3, -1.2, 2.0]), np.zeros(3))
        assert res.converged
        np.testing.assert_allclose(res.x, [0.3, -1.2, 2.0], atol=1e-4)
        assert res.value < 1e-7

    def test_rosenbrock_with_restarts(self):
        res = nelder_mead(
            rosenbrock, np.array([-1.2, 1.0]), tol=1e-12, max_evals=2000, restarts=2
        )
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-4)
        assert res.value < 1e-7

    def test_budget_exhaustion(self):
        res = nelder_mead(rosenbrock, np.array([-1.2, 1.0]), max_evals=20)
        assert not res.converged
        assert res.evaluations <= 20

    def test_reports_best_evaluation_ever(self):
        res = nelder_mead(rosenbrock, np.array([-1.2, 1.0]), max_evals=150)
        assert res.evaluations == len(res.trace)
        assert res.value == min(v for _, v in res.trace)
        assert res.value == pytest.approx(rosenbrock(res.x))

    def test_loose_tolerance_stops_at_simplex(self):
        res = nelder_mead(quadratic([5.0, 5.0]), np.zeros(2), tol=1e9)
        assert res.converged
        assert res.evaluations == 3  # d + 1 vertices, then the spread rule fires

    def test_deterministic(self):
        a = nelder_mead(rosenbrock, np.array([0.5, 0.5]), max_evals=200)
        b = nelder_mead(rosenbrock, np.array([0.5, 0.5]), max_evals=200)
        np.testing.assert_array_equal(a.x, b.x)
        assert a.trace == b.trace

    def test_validation(self):
        with pytest.raises(ValidationError):
            nelder_mead(quadratic([0.0]), np.array([]))
        with pytest.raises(ValidationError):
            nelder_mead(quadratic([0.0, 0.0]), np.zeros(2), max_evals=2)

    def test_shared_objective_extends_trace(self):
        obj = Objective(quadratic([1.0]))
        first = nelder_mead(obj, np.array([0.0]), max_evals=30)
        second = nelder_mead(obj, np.array([2.0]), max_evals=30)
        assert obj.count == first.evaluations + second.evaluations
        assert len(second.trace) == second.evaluations


# The simplex loop nelder_mead replaced, kept verbatim as the reference: it
# checks the budget at each of six places and tracks the best point at each
# of five evaluation sites, where nelder_mead now has one of each.
_REFLECT = 1.0
_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5


def _initial_simplex(x0, step):
    d = x0.size
    simplex = np.tile(x0, (d + 1, 1))
    for i in range(d):
        s = step[i] if step is not None else max(0.05, 0.05 * abs(x0[i]))
        simplex[i + 1, i] += s
    return simplex


def oracle_nelder_mead(
    fn,
    x0,
    tol: float = 1e-8,
    max_evals: int = 400,
    restarts: int = 0,
    initial_step=None,
):
    obj = fn if isinstance(fn, Objective) else Objective(fn)
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size == 0:
        raise ValidationError("x0 must be non-empty")
    if max_evals < x0.size + 1:
        raise ValidationError("max_evals cannot cover the initial simplex")
    if initial_step is not None:
        initial_step = np.asarray(initial_step, dtype=float).ravel()
        if initial_step.size != x0.size:
            raise ValidationError("initial_step length differs from x0")
    trace_start = len(obj.trace)
    best_x = None
    best_f = np.inf

    def track(x, f):
        nonlocal best_x, best_f
        if f < best_f:
            best_f = f
            best_x = x.copy()

    budget = max_evals
    converged = False
    center = x0
    step = initial_step
    for round_idx in range(restarts + 1):
        if budget <= 0:
            break
        this_step = None
        if step is not None:
            this_step = step / (2.0**round_idx)
        elif round_idx > 0:
            this_step = np.array(
                [max(0.05, 0.05 * abs(v)) for v in center]
            ) / (2.0**round_idx)
        simplex = _initial_simplex(center, this_step)
        fvals = []
        for p in simplex:
            if budget <= 0:
                break
            v = obj(p)
            budget -= 1
            track(p, v)
            fvals.append(v)
        if len(fvals) < simplex.shape[0]:
            break
        fvals = np.array(fvals)
        converged_round = False
        while budget > 0:
            order = np.argsort(fvals, kind="stable")
            simplex = simplex[order]
            fvals = fvals[order]
            if fvals[-1] - fvals[0] < tol:
                converged_round = True
                break
            centroid = simplex[:-1].mean(axis=0)
            xr = centroid + _REFLECT * (centroid - simplex[-1])
            fr = obj(xr)
            budget -= 1
            track(xr, fr)
            if fr < fvals[0]:
                if budget > 0:
                    xe = centroid + _EXPAND * (xr - centroid)
                    fe = obj(xe)
                    budget -= 1
                    track(xe, fe)
                    if fe < fr:
                        simplex[-1], fvals[-1] = xe, fe
                        continue
                simplex[-1], fvals[-1] = xr, fr
            elif fr < fvals[-2]:
                simplex[-1], fvals[-1] = xr, fr
            else:
                if fr < fvals[-1]:
                    xc = centroid + _CONTRACT * (xr - centroid)
                else:
                    xc = centroid - _CONTRACT * (centroid - simplex[-1])
                if budget <= 0:
                    break
                fc = obj(xc)
                budget -= 1
                track(xc, fc)
                if fc < min(fr, fvals[-1]):
                    simplex[-1], fvals[-1] = xc, fc
                else:
                    for i in range(1, simplex.shape[0]):
                        if budget <= 0:
                            break
                        simplex[i] = simplex[0] + _SHRINK * (simplex[i] - simplex[0])
                        fvals[i] = obj(simplex[i])
                        budget -= 1
                        track(simplex[i], fvals[i])
        if not converged_round:
            break
        converged = True
        center = best_x
    trace = obj.trace[trace_start:]
    return OptResult(
        x=best_x,
        value=best_f,
        evaluations=len(trace),
        converged=converged,
        trace=trace,
    )


def _landscape(kind, d, seed):
    """A fresh objective; "noisy" draws from its own seeded stream per call."""
    gen = np.random.default_rng(seed)
    center = gen.uniform(-2.0, 2.0, d)
    if kind == "quadratic":
        return quadratic(center)
    if kind == "rosenbrock":
        return lambda x: float(
            np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2) + x[0] ** 2
        )
    if kind == "terraced":
        # Plateaus give exact ties and zero spreads; coarse steps force shrinks.
        return lambda x: float(np.round(np.sum(np.abs(x - center)), 1))
    noise = np.random.default_rng(seed + 1)
    return lambda x: float(np.sum((x - center) ** 2) + noise.normal(0.0, 0.05))


def assert_same_result(got, want):
    if want.x is None:
        assert got.x is None
    else:
        assert np.array_equal(got.x, want.x)
    assert got.value == want.value
    assert got.evaluations == want.evaluations
    assert got.converged == want.converged
    assert got.trace == want.trace


run_settings = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["quadratic", "rosenbrock", "terraced", "noisy"]),
        "d": st.integers(1, 5),
        "seed": st.integers(0, 2**31),
        "slack": st.integers(0, 399),
        "restarts": st.sampled_from([0, 1, 3]),
        "tol": st.sampled_from([0.0, 1e-12, 1e-6, 1e9]),
    }
)


class TestNelderMeadOracle:
    """nelder_mead against the six-check loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(run_settings)
    def test_matches_reference(self, case):
        d = case["d"]
        x0 = np.random.default_rng(case["seed"]).uniform(-1.5, 1.5, d)
        # Budgets from d + 1 (the bare initial simplex) up to 400.
        kw = dict(
            tol=case["tol"],
            max_evals=min(400, d + 1 + case["slack"]),
            restarts=case["restarts"],
        )
        want = oracle_nelder_mead(_landscape(case["kind"], d, case["seed"]), x0, **kw)
        got = nelder_mead(_landscape(case["kind"], d, case["seed"]), x0, **kw)
        assert_same_result(got, want)

    @settings(max_examples=40, deadline=None)
    @given(run_settings, st.integers(1, 3))
    def test_shared_objective(self, case, runs):
        d = case["d"]
        kw = dict(tol=case["tol"], max_evals=d + 1 + case["slack"] // 4, restarts=case["restarts"])
        obj_old = Objective(_landscape(case["kind"], d, case["seed"]))
        obj_new = Objective(_landscape(case["kind"], d, case["seed"]))
        for k in range(runs):
            x0 = np.random.default_rng([case["seed"], k]).uniform(-1.5, 1.5, d)
            assert_same_result(nelder_mead(obj_new, x0, **kw), oracle_nelder_mead(obj_old, x0, **kw))
        assert obj_new.trace == obj_old.trace

    @settings(max_examples=20, deadline=None)
    @given(run_settings, st.integers(1, 4))
    def test_multistart(self, case, n_starts):
        d = case["d"]
        kw = dict(tol=case["tol"], max_evals=d + 1 + case["slack"] // 4, restarts=case["restarts"])
        bounds = [(-2.0, 2.0)] * d
        with mock.patch.object(vqekit.optimize, "nelder_mead", oracle_nelder_mead):
            want = multistart(
                _landscape(case["kind"], d, case["seed"]), bounds, n_starts=n_starts,
                rng=np.random.default_rng(case["seed"]), **kw,
            )
        got = multistart(
            _landscape(case["kind"], d, case["seed"]), bounds, n_starts=n_starts,
            rng=np.random.default_rng(case["seed"]), **kw,
        )
        assert_same_result(got, want)


def double_well(x):
    # global minimum near x = -1.03, local trap near x = +0.97
    return float((x[0] ** 2 - 1.0) ** 2 + 0.3 * x[0])


class TestMultistart:
    def test_escapes_local_trap(self):
        trapped = nelder_mead(double_well, np.array([1.0]))
        spread = multistart(
            double_well, [(-2.0, 2.0)], n_starts=8, rng=np.random.default_rng(2)
        )
        assert spread.value < trapped.value - 0.1
        assert spread.x[0] == pytest.approx(-1.0307, abs=1e-2)

    def test_single_start_equals_plain_run(self):
        bounds = [(-2.0, 2.0), (-1.0, 3.0)]
        res = multistart(
            rosenbrock, bounds, n_starts=1, rng=np.random.default_rng(7), max_evals=300
        )
        sob = qmc.Sobol(d=2, scramble=True, seed=np.random.default_rng(7))
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        x0 = lo + sob.random(1)[0] * (hi - lo)
        plain = nelder_mead(rosenbrock, x0, max_evals=300)
        np.testing.assert_array_equal(res.x, plain.x)
        assert res.value == plain.value
        assert res.evaluations == plain.evaluations

    def test_aggregates_evaluations(self):
        res = multistart(
            double_well,
            [(-2.0, 2.0)],
            n_starts=4,
            rng=np.random.default_rng(3),
            max_evals=50,
        )
        assert res.evaluations == len(res.trace)
        assert res.evaluations > 50  # more than any single run could spend

    def test_validation(self):
        with pytest.raises(ValidationError):
            multistart(double_well, [(-1.0, 1.0)], rng=None)
        with pytest.raises(ValidationError):
            multistart(double_well, [(1.0, -1.0)], rng=np.random.default_rng(0))


def _nm_runner(fn, x0, rng):
    return nelder_mead(fn, x0, tol=1e-10, max_evals=120)


class TestNoisyBenchmark:
    @staticmethod
    def make_problem():
        return quadratic([0.4, -0.7]), np.zeros(2), 0.0

    def test_row_layout(self):
        rows = noisy_benchmark(
            self.make_problem, [0.0, 0.1], reps=2, optimizers={"nm": _nm_runner}
        )
        assert len(rows) == 4
        assert set(rows[0]) == {
            "optimizer",
            "epsilon",
            "rep",
            "final_error",
            "evals",
            "seed",
        }
        assert [r["epsilon"] for r in rows] == [0.0, 0.0, 0.1, 0.1]
        assert [r["rep"] for r in rows] == [0, 1, 0, 1]

    def test_noiseless_solves_exactly(self):
        rows = noisy_benchmark(
            self.make_problem, [0.0], reps=3, optimizers={"nm": _nm_runner}
        )
        assert all(r["final_error"] < 1e-6 for r in rows)

    def test_noise_degrades_accuracy(self):
        rows = noisy_benchmark(
            self.make_problem, [0.0, 0.3], reps=5, optimizers={"nm": _nm_runner}
        )
        by_eps = {}
        for r in rows:
            by_eps.setdefault(r["epsilon"], []).append(r["final_error"])
        assert np.mean(by_eps[0.3]) > 10 * np.mean(by_eps[0.0])

    def test_seeded_and_reproducible(self):
        a = noisy_benchmark(
            self.make_problem, [0.05], reps=2, optimizers={"nm": _nm_runner}, seed=9
        )
        b = noisy_benchmark(
            self.make_problem, [0.05], reps=2, optimizers={"nm": _nm_runner}, seed=9
        )
        assert a == b
        c = noisy_benchmark(
            self.make_problem, [0.05], reps=2, optimizers={"nm": _nm_runner}, seed=10
        )
        assert [r["final_error"] for r in a] != [r["final_error"] for r in c]

    def test_negative_noise_rejected(self):
        with pytest.raises(ValidationError):
            noisy_benchmark(
                self.make_problem, [-0.1], reps=1, optimizers={"nm": _nm_runner}
            )


class TestSummaries:
    def test_summarize(self):
        rows = [
            {"optimizer": "nm", "epsilon": 0.1, "rep": 0, "final_error": 1.0, "evals": 10, "seed": 0},
            {"optimizer": "nm", "epsilon": 0.1, "rep": 1, "final_error": 3.0, "evals": 30, "seed": 0},
            {"optimizer": "ms", "epsilon": 0.1, "rep": 0, "final_error": 0.5, "evals": 100, "seed": 0},
        ]
        out = summarize_benchmark(rows)
        assert [(s["optimizer"], s["epsilon"]) for s in out] == [("nm", 0.1), ("ms", 0.1)]
        nm = out[0]
        assert nm["mean_error"] == pytest.approx(2.0)
        assert nm["std_error"] == pytest.approx(np.std([1.0, 3.0], ddof=1))
        assert nm["mean_evals"] == pytest.approx(20.0)
        assert nm["reps"] == 2
        assert out[1]["std_error"] == 0.0

    def test_csv_roundtrip(self, tmp_path):
        rows = noisy_benchmark(
            TestNoisyBenchmark.make_problem,
            [0.0],
            reps=2,
            optimizers={"nm": _nm_runner},
        )
        study = tmp_path / "study.csv"
        write_study_csv(rows, str(study))
        with open(study, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["optimizer", "epsilon", "rep", "final_error", "evals", "seed"]
        assert len(got) == 3
        # repr emission: floats parse back to the exact binary value
        assert float(got[1][3]) == rows[0]["final_error"]

        summary = tmp_path / "summary.csv"
        write_summary_csv(summarize_benchmark(rows), str(summary))
        with open(summary, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == [
            "optimizer",
            "epsilon",
            "mean_error",
            "std_error",
            "mean_evals",
            "reps",
        ]
        assert len(got) == 2


class TestRngHelpers:
    def test_make_rng_passthrough_and_seed(self):
        g = np.random.default_rng(0)
        assert make_rng(g) is g
        a, b = make_rng(5), make_rng(5)
        assert a.random() == b.random()

    def test_spawn_rngs_independent(self):
        streams = spawn_rngs(7, 3)
        assert len(streams) == 3
        draws = [g.random() for g in streams]
        assert len(set(draws)) == 3
        again = [g.random() for g in spawn_rngs(7, 3)]
        assert draws == again
