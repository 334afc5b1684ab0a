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
        flipped = Schedule.bang_bang(3.0, [1.0, 2.0], start_level=1)
        np.testing.assert_allclose(
            flipped.evaluate(np.array([0.5, 1.5, 2.5])), [1, 0, 1]
        )

    def test_bang_bang_validation(self):
        with pytest.raises(ValidationError):
            Schedule.bang_bang(1.0, [1.5])
        with pytest.raises(ValidationError):
            Schedule.bang_bang(1.0, [0.5], start_level=2)

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
