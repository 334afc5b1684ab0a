"""Eigenvalue certificates and operator transforms.

Constructions mix exact eigenvectors of the 2-qubit anchor so every
mean, variance, and overlap is known in closed form before a bound is
asked about it.
"""

import math

import numpy as np
import pytest

from vqekit import (
    BoundInputs,
    PauliSum,
    StateVector,
    SymmetryConstraint,
    delos_blinder,
    exact_eigensystem,
    expectation_and_variance,
    folded_spectrum,
    ground_state,
    overlap_bound,
    penalty_lagrangian,
    weinstein_interval,
)
from vqekit.errors import BoundInapplicableError, ValidationError


def mixed_state(vecs, weights, rng=None, phases=None):
    """Normalized combination with the given squared weights per column."""
    amps = np.zeros(vecs.shape[0], dtype=complex)
    for k, w in enumerate(weights):
        ph = 1.0 if phases is None else phases[k]
        amps += np.sqrt(w) * ph * vecs[:, k]
    return StateVector(amps / np.linalg.norm(amps))


class TestBoundInputs:
    def test_validation(self):
        with pytest.raises(ValidationError):
            BoundInputs(mean=0.0, variance=-1.0)
        with pytest.raises(ValidationError):
            BoundInputs(mean=0.0, variance=1.0, gap=0.0)
        with pytest.raises(ValidationError):
            BoundInputs(mean=0.0, variance=1.0, alpha=0.5)
        with pytest.raises(ValidationError):
            BoundInputs(mean=0.0, variance=1.0, alpha=1.1)
        BoundInputs(mean=0.0, variance=1.0, alpha=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_fail_closed(self, bad):
        # Before, NaN mean or variance gave a (nan, nan) interval and an
        # infinite variance (-inf, inf).
        for kwargs in (
            {"mean": bad, "variance": 1.0},
            {"mean": 0.0, "variance": bad},
        ):
            with pytest.raises(ValidationError):
                BoundInputs(**kwargs)
        if bad != math.inf:
            with pytest.raises(ValidationError, match="gap must be positive"):
                BoundInputs(mean=0.0, variance=1.0, gap=bad)

    def test_infinite_gap_means_no_gap(self):
        b = BoundInputs(mean=0.5, variance=0.25, gap=math.inf)
        assert weinstein_interval(b) == (0.0, 1.0)


class TestWeinstein:
    def test_worked_example(self):
        lo, hi = weinstein_interval(BoundInputs(mean=-2.8, variance=0.36))
        assert lo == pytest.approx(-3.4)
        assert hi == pytest.approx(-2.2)

    def test_always_brackets_an_eigenvalue(self, twospin):
        vals, _ = exact_eigensystem(twospin)
        rng = np.random.default_rng(3)
        for _ in range(200):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = StateVector(amps / np.linalg.norm(amps))
            mean, var = expectation_and_variance(state, twospin)
            lo, hi = weinstein_interval(BoundInputs(mean=mean, variance=var))
            assert np.min(np.abs(vals - mean)) <= np.sqrt(var) + 1e-9
            assert np.any((vals >= lo - 1e-9) & (vals <= hi + 1e-9))

    def test_eigenstate_pins_the_interval(self, twospin):
        _, vecs = exact_eigensystem(twospin)
        mean, var = expectation_and_variance(StateVector(vecs[:, 2]), twospin)
        lo, hi = weinstein_interval(BoundInputs(mean=mean, variance=var))
        assert lo == pytest.approx(1.0, abs=1e-6)
        assert hi == pytest.approx(1.0, abs=1e-6)


class TestGroundOverlapBound:
    def test_worked_example(self, twospin):
        vals, vecs = exact_eigensystem(twospin)
        state = mixed_state(vecs, [0.9, 0.1])
        mean, var = expectation_and_variance(state, twospin)
        assert mean == pytest.approx(-2.8, abs=1e-10)
        assert var == pytest.approx(0.36, abs=1e-10)
        bound = overlap_bound(BoundInputs(mean=mean, variance=var, gap=2.0))
        assert bound == pytest.approx(0.7, abs=1e-10)
        assert bound <= 0.9

    def test_holds_for_ground_dominated_states(self, twospin):
        vals, vecs = exact_eigensystem(twospin)
        gap = vals[1] - vals[0]
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(300):
            w0 = rng.uniform(0.7, 1.0)
            rest = rng.dirichlet([1.0, 1.0, 1.0]) * (1.0 - w0)
            state = mixed_state(vecs, [w0, *rest])
            mean, var = expectation_and_variance(state, twospin)
            sd = np.sqrt(var)
            # dominance premise: the mean sits within one gap of the ground energy
            if not (sd < gap and mean - vals[0] < gap):
                continue
            bound = overlap_bound(BoundInputs(mean=mean, variance=var, gap=gap))
            assert bound <= w0 + 1e-10
            checked += 1
        assert checked > 100

    def test_arithmetic_alone_is_not_the_premise(self, twospin):
        # A pure excited state passes sd < gap yet has zero ground overlap:
        # the dominance premise (mean within the gap of the ground energy)
        # is the caller's to check, as documented.
        vals, vecs = exact_eigensystem(twospin)
        mean, var = expectation_and_variance(StateVector(vecs[:, 1]), twospin)
        bound = overlap_bound(BoundInputs(mean=mean, variance=var, gap=2.0))
        assert bound == pytest.approx(1.0)
        assert mean - vals[0] >= 2.0  # premise fails, so the bound says nothing

    def test_wide_variance_inapplicable(self):
        with pytest.raises(BoundInapplicableError):
            overlap_bound(BoundInputs(mean=0.0, variance=4.0, gap=1.0))

    def test_needs_finite_gap(self):
        with pytest.raises(BoundInapplicableError):
            overlap_bound(BoundInputs(mean=0.0, variance=0.1))

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            overlap_bound(BoundInputs(mean=0.0, variance=0.1, gap=1.0), which="median")


class TestExcitedOverlapBound:
    def test_worked_example(self):
        bound = overlap_bound(
            BoundInputs(mean=-2.8, variance=0.36, gap=2.0), which="excited"
        )
        assert bound == pytest.approx(0.9467455621301775, abs=1e-12)

    def test_holds_when_other_levels_clear_gap_plus_sd(self, twospin):
        # gamma = (gap + sd)^2, so the premise is that every other level
        # sits at least gap + sd away from the measured mean.
        vals, vecs = exact_eigensystem(twospin)
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(300):
            w1 = rng.uniform(0.85, 1.0)
            spill = rng.dirichlet([1.0, 1.0]) * (1.0 - w1)
            state = mixed_state(vecs, [spill[0], w1, spill[1]])
            mean, var = expectation_and_variance(state, twospin)
            sd = np.sqrt(var)
            delta = min(abs(vals[0] - mean), abs(vals[2] - mean)) - sd - 1e-9
            if delta <= 0:
                continue
            bound = overlap_bound(
                BoundInputs(mean=mean, variance=var, gap=delta), which="excited"
            )
            assert bound <= w1 + 1e-10
            checked += 1
        assert checked > 100

    def test_stays_in_unit_interval(self):
        for var in (0.0, 0.5, 10.0, 1e6):
            b = overlap_bound(
                BoundInputs(mean=0.0, variance=var, gap=0.3), which="excited"
            )
            assert 0.0 <= b <= 1.0


class TestDelosBlinder:
    def test_worked_example_both_forms(self):
        b = BoundInputs(mean=-2.8, variance=0.36, alpha=0.8)
        assert delos_blinder(b) == pytest.approx(-3.07, abs=1e-12)
        assert delos_blinder(b, sqrt_variance=True) == pytest.approx(-3.25, abs=1e-12)

    def test_alpha_required(self):
        with pytest.raises(BoundInapplicableError):
            delos_blinder(BoundInputs(mean=0.0, variance=1.0))

    def test_sqrt_form_lower_bounds_ground(self, twospin):
        vals, vecs = exact_eigensystem(twospin)
        alpha = 0.8
        rng = np.random.default_rng(13)
        for _ in range(500):
            w0 = rng.uniform(alpha, 1.0)
            rest = rng.dirichlet([1.0, 1.0, 1.0]) * (1.0 - w0)
            phases = np.exp(2j * np.pi * rng.random(4))
            state = mixed_state(vecs, [w0, *rest], phases=phases)
            mean, var = expectation_and_variance(state, twospin)
            b = delos_blinder(
                BoundInputs(mean=mean, variance=var, alpha=alpha), sqrt_variance=True
            )
            assert b <= vals[0] + 1e-9

    def test_variance_form_overshoots_at_small_scale(self, twospin):
        # Scaling H by 0.1 shrinks the variance quadratically but the gap
        # only linearly; the raw-variance form then lands above the true
        # ground energy while the sqrt form stays below it.
        small = 0.1 * twospin
        vals, vecs = exact_eigensystem(small)
        state = mixed_state(vecs, [0.8, 0.2])
        mean, var = expectation_and_variance(state, small)
        b_raw = delos_blinder(BoundInputs(mean=mean, variance=var, alpha=0.8))
        b_sqrt = delos_blinder(
            BoundInputs(mean=mean, variance=var, alpha=0.8), sqrt_variance=True
        )
        assert b_raw > vals[0]
        assert b_sqrt <= vals[0]


class TestFoldedSpectrum:
    def test_matrix_identity(self, twospin):
        gamma = 0.5
        folded = folded_spectrum(twospin, gamma)
        m = twospin.to_matrix()
        shifted = m - gamma * np.eye(4)
        np.testing.assert_allclose(folded.to_matrix(), shifted @ shifted, atol=1e-10)

    def test_ground_of_fold_targets_nearest_level(self, twospin):
        vals, vecs = exact_eigensystem(twospin)
        energy, state = ground_state(folded_spectrum(twospin, 0.5))
        assert energy == pytest.approx((1.0 - 0.5) ** 2, abs=1e-9)
        assert state.fidelity(StateVector(vecs[:, 2])) == pytest.approx(1.0, abs=1e-9)

    def test_requires_hermitian(self):
        h = PauliSum.from_terms([(1j, "X")])
        with pytest.raises(ValidationError):
            folded_spectrum(h, 0.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_non_finite_gamma_refused(self, gamma):
        h = PauliSum.hermitian([(1.0, "ZI"), (0.5, "XX")])
        with pytest.raises(ValidationError, match="gamma must be finite"):
            folded_spectrum(h, gamma)


class TestPenalties:
    def test_constraint_validation(self):
        z = PauliSum.hermitian([(1.0, "Z")])
        with pytest.raises(ValidationError):
            SymmetryConstraint(operator=PauliSum.from_terms([(1j, "X")]), target=0.0, multiplier=1.0)
        with pytest.raises(ValidationError):
            SymmetryConstraint(operator=z, target=0.0, multiplier=-1.0)

    @pytest.mark.parametrize(
        "target, multiplier, match",
        [
            (np.nan, 1.0, "target"),
            (np.inf, 1.0, "target"),
            (0.0, np.nan, "multiplier"),
            (0.0, np.inf, "multiplier"),
        ],
    )
    def test_non_finite_target_and_multiplier_refused(self, target, multiplier, match):
        h = PauliSum.hermitian([(1.0, "ZI"), (0.5, "XX")])
        with pytest.raises(ValidationError, match=match):
            SymmetryConstraint(h, target=target, multiplier=multiplier)

    def test_penalty_matrix(self):
        z = PauliSum.hermitian([(1.0, "Z")])
        c = SymmetryConstraint(operator=z, target=1.0, multiplier=3.0)
        m = z.to_matrix() - np.eye(2)
        np.testing.assert_allclose(c.penalty().to_matrix(), 3.0 * m @ m, atol=1e-12)

    def test_lagrangian_steers_sector(self, twospin):
        # Total magnetization commutes with the anchor sum; forcing the
        # fully-polarized sector replaces the global ground (-3, in the
        # zero-magnetization sector) with |00> at energy 3.
        s = PauliSum.hermitian([(1.0, "ZI"), (1.0, "IZ")])
        m_h = twospin.to_matrix()
        m_s = s.to_matrix()
        np.testing.assert_allclose(m_h @ m_s, m_s @ m_h, atol=1e-12)
        shaped = penalty_lagrangian(
            twospin, [SymmetryConstraint(operator=s, target=2.0, multiplier=50.0)]
        )
        energy, state = ground_state(shaped)
        assert energy == pytest.approx(3.0, abs=1e-9)
        assert state.fidelity(StateVector.from_label("00")) == pytest.approx(1.0, abs=1e-9)

    def test_lagrangian_qubit_mismatch(self, twospin):
        z = PauliSum.hermitian([(1.0, "Z")])
        with pytest.raises(ValidationError):
            penalty_lagrangian(
                twospin, [SymmetryConstraint(operator=z, target=0.0, multiplier=1.0)]
            )

    def test_empty_constraints_reduce_to_simplify(self, twospin):
        out = penalty_lagrangian(twospin, [])
        np.testing.assert_allclose(out.to_matrix(), twospin.to_matrix(), atol=1e-12)
