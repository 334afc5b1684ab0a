"""Interpolation families, path spectra, and schedule optimization.

The single-qubit pair used throughout has an avoided crossing of width
0.1 at the midpoint of the path, small enough that diabatic transitions
dominate until tau is a few hundred.
"""

import numpy as np
import pytest

from vqekit import (
    PauliSum,
    Schedule,
    ground_state,
    optimize_path,
    path_study,
    spectrum_along_path,
    success_probability,
)
from vqekit import schedule
from vqekit.errors import ValidationError
from vqekit.optimize import nelder_mead
from vqekit.schedule import baseline_record, make_schedule


def one_qubit_pair():
    h_i = PauliSum.hermitian([(0.5, "I"), (-0.5, "Z"), (0.1, "X")])
    h_p = PauliSum.hermitian([(0.5, "I"), (0.5, "Z")])
    return h_i, h_p


class TestScheduleFamilies:
    def test_linear_default_rate(self):
        s = Schedule.linear(4.0)
        assert s.evaluate(0.0) == 0.0
        assert s.evaluate(2.0) == pytest.approx(0.5)
        assert s.evaluate(4.0) == pytest.approx(1.0)

    def test_linear_fast_rate_saturates(self):
        s = Schedule.linear(4.0, theta1=1.0)
        assert s.evaluate(1.0) == pytest.approx(1.0)
        assert s.evaluate(3.0) == pytest.approx(1.0)

    def test_linear_unreachable_rate_rejected(self):
        with pytest.raises(ValidationError):
            Schedule.linear(4.0, theta1=0.2)

    def test_spline_endpoints_and_collinear_case(self):
        s = Schedule.spline(10.0, 0.15, 0.85)
        t = np.linspace(0.0, 10.0, 101)
        np.testing.assert_allclose(s.evaluate(t), t / 10.0, atol=1e-12)

    def test_spline_matches_scipy_natural_cubic(self):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(7)
        for _ in range(200):
            tau = float(rng.uniform(0.5, 50.0))
            theta = rng.uniform(-0.5, 1.5, 2)
            knots = [0.0, 0.15 * tau, 0.85 * tau, tau]
            oracle = CubicSpline(knots, [0.0, *theta, 1.0], bc_type="natural")
            t = np.concatenate([np.linspace(0.0, tau, 97), knots])
            want = np.clip(oracle(t), 0.0, 1.0)
            got = Schedule.spline(tau, *theta).evaluate(t)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_rejects_non_finite_parameters(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValidationError, match="must be finite"):
                Schedule.spline(1.0, bad, 0.8)
            with pytest.raises(ValidationError, match="must be finite"):
                make_schedule("spline", 1.0, np.array([0.2, bad]))
            with pytest.raises(ValidationError, match="must be finite"):
                Schedule.linear(1.0, bad)

    def test_spline_stays_in_unit_interval(self):
        s = Schedule.spline(1.0, -0.3, 1.4)
        g = s.evaluate(np.linspace(0.0, 1.0, 301))
        assert np.all(g >= 0.0) and np.all(g <= 1.0)

    def test_bang_bang_levels(self):
        s = Schedule.bang_bang(3.0, [2.0, 1.0])  # unsorted on purpose
        assert s.switches == (1.0, 2.0)
        np.testing.assert_allclose(
            s.evaluate(np.array([0.0, 0.5, 1.5, 2.5])), [0, 0, 1, 0]
        )

    def test_bang_bang_validation(self):
        with pytest.raises(ValidationError):
            Schedule.bang_bang(1.0, [1.5])

    def test_bang_bang_refuses_nan_switches(self):
        # NaN passed the end checks of the sorted switches; [nan] gave g = 0.
        for switches in ([float("nan")], [1.0, float("nan")]):
            with pytest.raises(ValidationError, match=r"switch times must lie in \[0, tau\]"):
                Schedule.bang_bang(10.0, switches)

    def test_variant_and_tau_validation(self):
        with pytest.raises(ValidationError):
            Schedule(variant="cosine", tau=1.0)
        with pytest.raises(ValidationError):
            Schedule.linear(0.0)
        # NaN passes `tau <= 0`; it used to evolve to a NaN state.
        for tau in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="tau must be finite and positive"):
                Schedule.linear(tau)
            with pytest.raises(ValidationError, match="tau must be finite and positive"):
                Schedule.spline(tau, 0.2, 0.8)
            with pytest.raises(ValidationError, match="tau must be finite and positive"):
                Schedule.bang_bang(tau, [0.5])

    def test_evaluate_rejects_out_of_range(self):
        s = Schedule.linear(2.0)
        with pytest.raises(ValidationError):
            s.evaluate(-0.5)
        with pytest.raises(ValidationError):
            s.evaluate(np.array([0.5, 2.5]))
        # roundoff-level excursions are clipped, not rejected
        assert s.evaluate(-1e-12) == 0.0
        assert s.evaluate(2.0 + 1e-12) == pytest.approx(1.0)

    def test_make_schedule_pins_and_clips(self):
        s = make_schedule("linear", 10.0, np.array([0.001]))
        assert s.theta == (0.1,)
        b = make_schedule("bang_bang", 1.0, np.array([-0.5, 2.0]))
        assert b.switches == (0.0, 1.0)
        with pytest.raises(ValidationError):
            make_schedule("cosine", 1.0, np.array([0.0]))


class TestSpectrumAlongPath:
    def test_matches_closed_form(self):
        h_i, h_p = one_qubit_pair()
        grid = np.linspace(0.0, 1.0, 201)
        spec = spectrum_along_path(h_i, h_p, grid)
        assert spec.shape == (201, 2)
        gaps = spec[:, 1] - spec[:, 0]
        np.testing.assert_allclose(
            gaps, 2.0 * np.sqrt((0.5 - grid) ** 2 + 0.01 * grid**2), atol=1e-12
        )

    def test_midpoint_gap(self):
        h_i, h_p = one_qubit_pair()
        spec = spectrum_along_path(h_i, h_p, np.array([0.5]))
        assert spec[0, 1] - spec[0, 0] == pytest.approx(0.1, abs=1e-6)

    def test_grid_minimum_sits_just_left_of_midpoint(self):
        h_i, h_p = one_qubit_pair()
        grid = np.linspace(0.0, 1.0, 201)
        spec = spectrum_along_path(h_i, h_p, grid)
        gaps = spec[:, 1] - spec[:, 0]
        k = int(np.argmin(gaps))
        assert grid[k] == pytest.approx(0.495, abs=1e-12)
        assert gaps[k] == pytest.approx(0.09950376877284595, abs=1e-12)

    def test_chunks_leave_every_value_as_is(self):
        # 10001 two-qubit points span 20 chunks; LAPACK solves one matrix
        # at a time, so the values match one stacked call bit for bit.
        h_i = PauliSum.hermitian([(-1.0, "XI"), (-1.0, "IX"), (0.3, "YY")])
        h_p = PauliSum.hermitian([(0.7, "ZZ"), (-0.2, "ZI"), (0.5, "IZ")])
        grid = np.linspace(0.0, 1.0, 10001)
        mi, mp = h_i.to_matrix(), h_p.to_matrix()
        stacked = np.linalg.eigvalsh(
            grid[:, None, None] * mi + (1.0 - grid)[:, None, None] * mp
        )
        assert np.array_equal(spectrum_along_path(h_i, h_p, grid), stacked)

    def test_qubit_mismatch(self):
        h_i, _ = one_qubit_pair()
        with pytest.raises(ValidationError):
            spectrum_along_path(h_i, PauliSum.hermitian([(1.0, "ZZ")]), [0.5])

    def test_rejects_non_hermitian_sums(self):
        # X + 0.5i Y has eigenvalues +-sqrt(0.75); eigvalsh reads one
        # triangle and would report +-0.5.
        h_i, h_p = one_qubit_pair()
        bad = PauliSum.from_terms([(1.0, "X"), (0.5j, "Y")])
        for pair in ((bad, h_p), (h_i, bad)):
            with pytest.raises(ValidationError, match="Hermitian"):
                spectrum_along_path(*pair, [0.0, 1.0])


class TestSuccessProbability:
    def test_sudden_limit(self):
        h_i, h_p = one_qubit_pair()
        _, gi = ground_state(h_i)
        _, gp = ground_state(h_p)
        assert gi.fidelity(gp) == pytest.approx(0.009709662154539918, abs=1e-12)
        fast = success_probability(Schedule.linear(0.01), h_i, h_p)
        assert fast == pytest.approx(0.009709662154539918, abs=1e-6)

    def test_slow_linear_passages(self):
        h_i, h_p = one_qubit_pair()
        assert success_probability(Schedule.linear(500.0), h_i, h_p) == pytest.approx(
            0.9790308068354895, abs=1e-4
        )
        slow = success_probability(Schedule.linear(1000.0), h_i, h_p)
        assert slow >= 0.99
        assert slow == pytest.approx(0.9995624234477605, abs=1e-4)

    def test_success_increases_with_tau(self):
        h_i, h_p = one_qubit_pair()
        vals = [
            success_probability(Schedule.linear(tau), h_i, h_p)
            for tau in (5.0, 20.0, 80.0)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_uncoupled_spins_factorize(self):
        # With no couplings every term commutes, so each midpoint step is a
        # product of one-qubit steps and the success probability is the
        # product of eight one-qubit runs: the Taylor kernel at d = 256
        # against the eigh kernel at d = 2.
        n = 8
        fields = [0.5 + 0.05 * q for q in range(n)]

        def label(q, letter):
            return "".join(letter if n - 1 - j == q else "I" for j in range(n))

        h_i = PauliSum.hermitian([(-1.0, label(q, "X")) for q in range(n)])
        h_p = PauliSum.hermitian([(-f, label(q, "Z")) for q, f in enumerate(fields)])
        sched = Schedule.linear(6.0)
        want = np.prod([
            success_probability(
                sched, PauliSum.hermitian([(-1.0, "X")]), PauliSum.hermitian([(-f, "Z")])
            )
            for f in fields
        ])
        assert success_probability(sched, h_i, h_p) == pytest.approx(want, abs=1e-12)

    def test_huge_tau_rejected(self):
        # 20 * tau overflows to inf, which no step count can hold.
        h_i, h_p = one_qubit_pair()
        with pytest.raises(ValidationError, match="too large"):
            success_probability(Schedule.linear(1e308), h_i, h_p)

    def test_degenerate_target_rejected(self):
        h_i, _ = one_qubit_pair()
        with pytest.raises(ValidationError):
            success_probability(Schedule.linear(1.0), h_i, PauliSum.hermitian([(1.0, "I")]))


class TestOptimizePath:
    def test_spline_beats_linear_baseline(self):
        h_i, h_p = one_qubit_pair()
        base = baseline_record(h_i, h_p, 20.0)
        rec = optimize_path("spline", h_i, h_p, 20.0)
        assert rec.family == "spline"
        assert len(rec.params) == 2
        assert rec.evaluations > 1
        assert rec.success >= base.success

    def test_record_trajectory_shape(self):
        h_i, h_p = one_qubit_pair()
        rec = optimize_path("spline", h_i, h_p, 10.0)
        assert rec.trajectory_s.shape == rec.trajectory_overlap.shape
        assert rec.trajectory_s[0] == 0.0
        assert rec.trajectory_s[-1] == pytest.approx(1.0)
        assert np.all(np.diff(rec.trajectory_s) > 0)
        assert np.all((rec.trajectory_overlap >= 0) & (rec.trajectory_overlap <= 1))
        assert rec.trajectory_overlap[-1] == pytest.approx(rec.success, abs=1e-12)

    def test_infidelity_objective(self):
        h_i, h_p = one_qubit_pair()
        base = baseline_record(h_i, h_p, 10.0)
        rec = optimize_path("spline", h_i, h_p, 10.0, objective="infidelity")
        assert rec.success >= base.success

    def test_custom_optimizer_hook(self):
        h_i, h_p = one_qubit_pair()
        rec = optimize_path(
            "spline",
            h_i,
            h_p,
            5.0,
            optimizer=lambda fn, x0: nelder_mead(fn, x0, max_evals=12),
        )
        assert rec.evaluations <= 12

    def test_unknown_objective(self):
        h_i, h_p = one_qubit_pair()
        with pytest.raises(ValidationError):
            optimize_path("spline", h_i, h_p, 5.0, objective="overlap")

    @pytest.mark.parametrize(
        "family, objective, message",
        [("cubic", "energy", "unknown schedule family 'cubic'"),
         ("spline", "bogus", "unknown objective 'bogus'")],
    )
    def test_unknown_family_or_objective_before_any_eigensolve(
        self, monkeypatch, family, objective, message
    ):
        h_i, h_p = one_qubit_pair()
        calls = []
        monkeypatch.setattr(schedule, "_endpoints", lambda *a: calls.append(a))
        with pytest.raises(ValidationError, match=f"^{message}$"):
            optimize_path(family, h_i, h_p, 5.0, objective=objective)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            path_study(h_i, h_p, [5.0], family=family, objective=objective)
        assert calls == []

    def test_zero_tau_before_any_eigensolve(self, monkeypatch):
        # The linear start 1/tau used to divide by zero after the eigensolve.
        h_i, h_p = one_qubit_pair()
        calls = []
        monkeypatch.setattr(schedule, "_endpoints", lambda *a: calls.append(a))
        with pytest.raises(ValidationError, match="tau must be finite and positive"):
            optimize_path("linear", h_i, h_p, 0.0)
        assert calls == []

    def test_baseline_record_fields(self):
        h_i, h_p = one_qubit_pair()
        base = baseline_record(h_i, h_p, 8.0)
        assert base.family == "linear"
        assert base.params == (0.125,)
        assert base.evaluations == 1


class TestPathStudy:
    def test_alternating_records(self):
        h_i, h_p = one_qubit_pair()
        res = path_study(h_i, h_p, [5.0, 10.0])
        assert len(res.records) == 4
        for base, opt in zip(res.records[0::2], res.records[1::2]):
            assert base.family == "linear"
            assert opt.family == "spline"
            assert base.tau == opt.tau
            assert opt.success >= base.success

    def test_endpoints_solved_once_per_study(self, monkeypatch):
        h_i, h_p = one_qubit_pair()
        calls = []
        real = schedule._endpoints
        monkeypatch.setattr(schedule, "_endpoints", lambda *a: calls.append(a) or real(*a))
        res = path_study(h_i, h_p, [2.0, 3.0, 4.0])
        assert len(calls) == 1
        # Each record is the one the public per-tau calls give, to the bit.
        for base, opt in zip(res.records[0::2], res.records[1::2]):
            for got, want in (base, baseline_record(h_i, h_p, base.tau)), (
                opt, optimize_path("spline", h_i, h_p, opt.tau)
            ):
                assert (got.params, got.success, got.evaluations) == (
                    want.params, want.success, want.evaluations
                )
                assert got.trajectory_overlap.tobytes() == want.trajectory_overlap.tobytes()
        # No tau, no eigensolve: a degenerate target is not reached.
        calls.clear()
        assert path_study(h_i, PauliSum.hermitian([(1.0, "I")]), []).records == ()
        assert calls == []

    def test_overlong_tau_is_refused_before_any_eigensolve(self, monkeypatch):
        # At 4 qubits the series would split each of the 2e8 default steps
        # of tau = 1e7 into substeps; the study refuses it up front.
        x = [(-1.0, "".join("X" if j == q else "I" for j in range(4))) for q in range(4)]
        z = [(0.1 * (q + 1), "".join("Z" if j == q else "I" for j in range(4))) for q in range(4)]
        calls = []
        monkeypatch.setattr(schedule, "_endpoints", lambda *a: calls.append(a))
        h_i, h_p = PauliSum.hermitian(x), PauliSum.hermitian(z)
        with pytest.raises(ValidationError, match="tau 10000000.0 in 1 steps"):
            path_study(h_i, h_p, [5.0, 1e7], steps=1)
        with pytest.raises(ValidationError, match="Hamiltonians act on different qubit counts"):
            path_study(h_i, PauliSum.hermitian([(1.0, "Z")]), [5.0])
        assert calls == []
