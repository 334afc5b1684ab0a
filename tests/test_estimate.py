"""Shot estimators, grouping plans, truncation, and posterior machinery.

The 2-qubit sum from conftest is the worked example everywhere: on |01>
only the XX and YY terms fluctuate, which makes every grouping cost
computable by hand.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from vqekit import (
    AnsatzConfig,
    GroupSampler,
    MeasurementPlan,
    PauliString,
    PauliSum,
    ReferenceState,
    StateVector,
    build_groups,
    build_hamiltonian,
    commutes,
    convolve_posteriors,
    estimate_expectation,
    exact_covariances,
    expectation_and_variance,
    expected_preparations,
    fermionic_ucc_generators,
    jordan_wigner,
    make_rng,
    parameter_count,
    posterior_moments,
    prepare_state,
    truncate_terms,
)
from vqekit.estimate import (
    BATCH_SIZE,
    DENSITY_POINTS,
    MAX_BLOCK,
    MAX_PREPARATIONS,
    MIN_SHOT_FLOOR,
    PosteriorDensity,
    _FLOOR,
    _fft_length,
    _group_values,
    _measurable_indices,
    _measure_group,
    _rewind,
    _trapezoid,
    beta_density,
    format_plan,
)
from vqekit.errors import CapacityError, ParameterError, ValidationError

from conftest import outcomes, wall_budget
from test_fermion import random_integrals
from test_simulator import random_state


class TestMeasurementPlan:
    def test_rejects_duplicates_and_empty_groups(self):
        with pytest.raises(ValidationError):
            MeasurementPlan(groups=((0,), (0,)))
        with pytest.raises(ValidationError):
            MeasurementPlan(groups=((),))

    def test_validate_against(self, twospin):
        MeasurementPlan(groups=((0, 1, 2), (3, 4))).validate_against(twospin)
        with pytest.raises(ValidationError):
            MeasurementPlan(groups=((0, 1), (3, 4))).validate_against(twospin)
        with pytest.raises(ValidationError):
            # XX and ZI anticommute
            MeasurementPlan(groups=((0, 3), (1, 2, 4))).validate_against(twospin)

    def test_validation_names_the_first_offending_pair(self, twospin):
        # Members ZZ, XX, ZI, YY, IZ: ZZ commutes with all, and XX with ZI
        # (terms 0 and 3) is the first pair that fails, in member order.
        with pytest.raises(ValidationError, match=r"^terms 0 and 3 do not commute$"):
            MeasurementPlan(groups=((2, 0, 3, 1, 4),)).validate_against(twospin)
        with pytest.raises(ValidationError, match=r"^terms 1 and 4 do not commute$"):
            MeasurementPlan(groups=((0,), (2, 3), (1, 4))).validate_against(twospin)


    def test_validation_runs_once_per_sum(self, twospin, state01, monkeypatch):
        import vqekit.estimate as est
        from vqekit.pauli import _first_anticommuting_pair

        calls = []

        def counting(masks):
            calls.append(len(masks))
            return _first_anticommuting_pair(masks)

        monkeypatch.setattr(est, "_first_anticommuting_pair", counting)
        plan = MeasurementPlan(groups=((0,), (1, 2), (3, 4)))
        expected_preparations(plan, state01, twospin, 0.1)
        for seed in range(3):
            estimate_expectation(lambda: state01, twospin, plan, 0.1, rng=make_rng(seed))
        # One pair test per group of two or more members, once.
        assert calls == [2, 2]
        # An equal sum that is another object is checked again.
        same = PauliSum(twospin.n_qubits, list(twospin.terms))
        plan.validate_against(same)
        assert calls == [2, 2, 2, 2]
        # The remembered sum is not a field: equality and hash are the groups'.
        fresh = MeasurementPlan(groups=plan.groups)
        assert plan == fresh and hash(plan) == hash(fresh)


class TestCovariances:
    def test_exact_matches_dense(self, twospin):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = StateVector(amps / np.linalg.norm(amps))
        cov = exact_covariances(twospin, state)
        mats = [complex(t.coeff) * t.string.to_matrix() for t in twospin.terms]
        v = state.amplitudes
        means = [np.real(np.vdot(v, m @ v)) for m in mats]
        for i in range(5):
            for j in range(5):
                want = np.real(np.vdot(v, mats[i] @ mats[j] @ v)) - means[i] * means[j]
                assert cov[i, j] == pytest.approx(want, abs=1e-10)
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)

    def test_worked_example_entries(self, twospin, state01):
        cov = exact_covariances(twospin, state01)
        np.testing.assert_allclose(np.diag(cov), [1, 1, 0, 0, 0], atol=1e-12)
        assert cov[0, 1] == pytest.approx(1.0, abs=1e-12)  # -XX and -YY co-fluctuate
        assert cov[1, 2] == pytest.approx(0.0, abs=1e-12)

    def test_identity_rows_zero(self, state01):
        h = PauliSum.hermitian([(2.0, "II"), (1.0, "XI")])
        cov = exact_covariances(h, state01)
        np.testing.assert_allclose(cov[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(cov[:, 0], 0.0, atol=1e-12)
        assert cov[1, 1] == pytest.approx(1.0)


class TestBuildGroups:
    def test_commutation_only_grouping(self, twospin):
        plan = build_groups(twospin)
        assert plan.groups == ((0, 1, 2), (3, 4))
        plan.validate_against(twospin)

    def test_covariance_aware_grouping(self, twospin, state01):
        cov = exact_covariances(twospin, state01)
        plan = build_groups(twospin, cov)
        assert plan.groups == ((0,), (1, 2), (3, 4))
        plan.validate_against(twospin)

    def test_identity_terms_never_grouped(self, state01):
        h = PauliSum.hermitian([(0.5, "II"), (1.0, "ZI"), (1.0, "IZ")])
        plan = build_groups(h)
        assert plan.groups == ((1, 2),)

    def test_cov_shape_checked(self, twospin):
        with pytest.raises(ValidationError):
            build_groups(twospin, np.zeros((3, 3)))


def reference_build_groups(h: PauliSum, cov: np.ndarray | None = None) -> MeasurementPlan:
    """The planner that one greedy rule with an early stop replaced, kept
    verbatim as the reference: it tests a term against every earlier group
    before it picks one, and re-sums all member pairs of each candidate."""
    idx = _measurable_indices(h)
    if cov is not None:
        cov = np.asarray(cov, dtype=float)
        if cov.shape != (len(h.terms), len(h.terms)):
            raise ValidationError("covariance matrix shape does not match terms")
    groups: list[list[int]] = []
    group_vars: list[float] = []

    def joined_variance(g: list[int], i: int) -> float:
        members = g + [i]
        v = float(sum(cov[a, b] for a in members for b in members))
        return max(0.0, v)

    for i in idx:
        compatible = []
        for gi in range(len(groups) - 1, -1, -1):
            if all(commutes(h.terms[i].string, h.terms[j].string) for j in groups[gi]):
                compatible.append(gi)
        if cov is None:
            if compatible:
                groups[compatible[0]].append(i)
            else:
                groups.append([i])
            continue
        total = sum(group_vars)
        var_i = max(0.0, float(cov[i, i]))
        new_cost = (len(groups) + 1) * (total + var_i)
        best_gi = None
        for gi in compatible:
            v = joined_variance(groups[gi], i)
            cost = len(groups) * (total - group_vars[gi] + v)
            if v - group_vars[gi] <= 1e-12 or cost < new_cost - 1e-12:
                best_gi = gi
                break
        if best_gi is None:
            groups.append([i])
            group_vars.append(var_i)
        else:
            group_vars[best_gi] = joined_variance(groups[best_gi], i)
            groups[best_gi].append(i)
    return MeasurementPlan(groups=tuple(tuple(g) for g in groups))


def planning_inputs(rng, h2, rounds: int):
    """Five (sum, state) pairs per round: H2 at a random UCC state and at a
    random state, two-spin at a random state, and a random 3-11 term sum on
    2-4 qubits at a random state and at a basis state."""
    two = PauliSum.hermitian(
        [(-1.0, "XX"), (-1.0, "YY"), (1.0, "ZZ"), (1.0, "ZI"), (1.0, "IZ")]
    )
    acfg = AnsatzConfig(generator_set=fermionic_ucc_generators(4, [0, 1], [2, 3], 2))
    ref = ReferenceState.from_occupied(4, [0, 1])
    for _ in range(rounds):
        theta = rng.normal(0.0, 0.5, parameter_count(acfg))
        yield h2, prepare_state(ref, acfg, theta)
        yield h2, random_state(rng, 4)
        yield two, random_state(rng, 2)
        n = int(rng.integers(2, 5))
        pairs = [
            (float(rng.normal()), "".join(rng.choice(list("IXYZ"), size=n)))
            for _ in range(int(rng.integers(3, 12)))
        ]
        h = PauliSum.hermitian(pairs)
        yield h, random_state(rng, n)
        yield h, StateVector.from_label("".join(rng.choice(list("01"), size=n)))


class TestPlanningOracle:
    """`build_groups` gives the reference planner's plans, and does only the
    work its rule reads."""

    def test_plans_match_the_reference(self, h2_hamiltonian):
        rng = np.random.default_rng(1400)
        cases = 0
        with wall_budget(10.0):
            for h, state in planning_inputs(rng, h2_hamiltonian, rounds=70):
                # An arbitrary matrix too: groups with negative sums and
                # asymmetric entries are read the way the reference reads them.
                for cov in (
                    exact_covariances(h, state),
                    rng.normal(size=(len(h.terms), len(h.terms))),
                    None,
                ):
                    want = reference_build_groups(h, cov).groups
                    assert build_groups(h, cov).groups == want, (h, cov)
                    cases += 1
            m = 8
            ints = random_integrals(np.random.default_rng(7000 + m), m)
            h = jordan_wigner(build_hamiltonian(ints)).simplify()
            acfg = AnsatzConfig(
                generator_set=fermionic_ucc_generators(m, [0, 1, 2, 3], [4, 5, 6, 7], 2)
            )
            theta = np.random.default_rng(m).normal(0.0, 0.1, parameter_count(acfg))
            state = prepare_state(ReferenceState.from_occupied(m, [0, 1, 2, 3]), acfg, theta)
            for cov in (exact_covariances(h, state), None):
                assert build_groups(h, cov).groups == reference_build_groups(h, cov).groups
                cases += 1
        assert cases == 70 * 5 * 3 + 2

    @pytest.mark.parametrize(
        "label, with_cov, want",
        # The reference planner makes 8, 71 and 71 pair tests.
        [("two-spin", True, 5), ("H2", True, 44), ("H2", False, 44)],
    )
    def test_commutation_tests_stop_at_the_group_taken(
        self, twospin, state01, h2_hamiltonian, label, with_cov, want, monkeypatch
    ):
        import vqekit.estimate as est

        if label == "two-spin":
            # YY-XX, ZZ-YY, ZI-YY, ZI-XX and IZ-ZI: plan ((0,), (1, 2), (3, 4)).
            h, state = twospin, state01
        else:
            acfg = AnsatzConfig(generator_set=fermionic_ucc_generators(4, [0, 1], [2, 3], 2))
            theta = np.full(parameter_count(acfg), 0.3)
            h, state = h2_hamiltonian, prepare_state(ReferenceState.from_occupied(4, [0, 1]), acfg, theta)
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return commutes(a, b)

        monkeypatch.setattr(est, "commutes", counting)
        build_groups(h, exact_covariances(h, state) if with_cov else None)
        assert len(calls) == want

    def test_plan_check_runs_group_by_group(self, h2_hamiltonian, monkeypatch):
        import vqekit.estimate as est
        from vqekit.pauli import _first_anticommuting_pair

        sizes = []

        def recording(masks):
            sizes.append(len(masks))
            return _first_anticommuting_pair(masks)

        monkeypatch.setattr(est, "_first_anticommuting_pair", recording)
        h = h2_hamiltonian
        # Parts of the two commuting families, terms 1-6 and 7-14.
        plan = MeasurementPlan(groups=((1, 2, 3), (4,), (5, 6), (7, 8, 9, 10, 11), (12,), (13, 14)))
        plan.validate_against(h)
        # One call per group of two or more members; singletons need none.
        assert sizes == [3, 2, 5, 2]


class TestTruncateTerms:
    def test_worked_example(self):
        # ascending magnitudes 0.04, 0.05, 0.3, 0.5; C*eps = 0.05 removes 0.04 only
        h = PauliSum.hermitian(
            [(0.5, "XX"), (0.05, "YY"), (-0.3, "ZZ"), (0.04, "ZI")]
        )
        kept, k_star = truncate_terms(h, epsilon=0.1, C=0.5)
        assert k_star == 1
        assert [t.string.letters for t in kept.terms] == ["XX", "YY", "ZZ"]

    def test_zero_c_keeps_everything(self, twospin):
        kept, k_star = truncate_terms(twospin, epsilon=0.2, C=0.0)
        assert k_star == 0
        assert len(kept) == 5

    def test_identity_exempt(self):
        h = PauliSum.hermitian([(0.001, "II"), (0.5, "XX"), (0.3, "YY")])
        kept, k_star = truncate_terms(h, epsilon=0.1, C=0.5)
        assert k_star == 0
        assert len(kept) == 3  # identity survives regardless of magnitude

    def test_removed_mass_stays_under_budget(self):
        rng = np.random.default_rng(17)
        letters = ["XX", "YY", "ZZ", "XY", "YX", "ZX", "XZ", "YZ", "ZY"]
        for _ in range(20):
            coeffs = rng.uniform(-1, 1, size=len(letters))
            h = PauliSum.hermitian(list(zip(coeffs, letters)))
            eps = float(rng.uniform(0.05, 0.5))
            c = float(rng.uniform(0.0, 0.99))
            kept, k_star = truncate_terms(h, eps, c)
            removed = sorted(np.abs(coeffs))[:k_star]
            assert sum(removed) < c * eps
            assert len(kept) == len(letters) - k_star

    def test_parameter_validation(self, twospin):
        with pytest.raises(ValidationError):
            truncate_terms(twospin, 0.1, 1.0)
        with pytest.raises(ValidationError):
            truncate_terms(twospin, 0.0, 0.5)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_epsilon(self, twospin, eps):
        with pytest.raises(ValidationError):
            truncate_terms(twospin, eps, 0.5)


class TestExpectedPreparations:
    def test_three_plan_costs(self, twospin, state01):
        plans = {
            1000.0: MeasurementPlan(groups=((0,), (1,), (2,), (3,), (4,))),
            600.0: MeasurementPlan(groups=((0,), (1, 2), (3, 4))),
            800.0: MeasurementPlan(groups=((0, 1, 2), (3, 4))),
        }
        for want, plan in plans.items():
            got = expected_preparations(plan, state01, twospin, epsilon=0.1)
            assert got == pytest.approx(want, rel=1e-12)

    def test_validation(self, twospin, state01):
        plan = MeasurementPlan(groups=((0, 1, 2), (3, 4)))
        with pytest.raises(ValidationError):
            expected_preparations(plan, state01, twospin, epsilon=0.0)
        with pytest.raises(ValidationError):
            expected_preparations(
                MeasurementPlan(groups=((0,),)), state01, twospin, epsilon=0.1
            )


class TestEstimateExpectation:
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"), 0.0, -0.1])
    def test_bad_epsilon_raises_before_sampling(self, twospin, state01, eps):
        # A NaN target used to make the stopping rule run for ever.
        plan = MeasurementPlan(groups=((0,), (1, 2), (3, 4)))
        rng = np.random.default_rng(23)
        before = rng.bit_generator.state

        def prep():
            raise AssertionError("sampling started")

        with pytest.raises(ValidationError):
            estimate_expectation(prep, twospin, plan, epsilon=eps, rng=rng)
        with pytest.raises(ValidationError):
            expected_preparations(plan, state01, twospin, epsilon=eps)
        assert rng.bit_generator.state == before

    def test_non_hermitian_sum_is_refused_before_sampling(self):
        # The real part of 1j Z + 0.5 X used to be measured in silence.
        h = PauliSum.from_terms([(1j, "Z"), (0.5, "X")])
        plan = MeasurementPlan(groups=((0,), (1,)))
        rng = make_rng(5)

        def prep():
            raise AssertionError("sampling started")

        with pytest.raises(ValidationError, match="expectation requires a Hermitian sum"):
            estimate_expectation(prep, h, plan, epsilon=0.1, rng=rng)
        assert rng.random() == make_rng(5).random()  # no variate drawn

    def test_frequentist_run(self, twospin, state01):
        plan = MeasurementPlan(groups=((0,), (1, 2), (3, 4)))
        rng = np.random.default_rng(23)
        rep = estimate_expectation(
            lambda: state01, twospin, plan, epsilon=0.1, rng=rng
        )
        assert rep.mode == "frequentist"
        assert abs(rep.value - (-1.0)) < 0.5
        assert rep.variance_of_estimator <= 0.01 + 1e-12
        assert rep.total_preparations == sum(g.preparations for g in rep.groups)
        for g in rep.groups:
            assert g.preparations >= MIN_SHOT_FLOOR
            assert g.preparations % BATCH_SIZE == 0
            assert g.estimator_variance < 0.01 / 3

    def test_deterministic_group_stops_at_floor(self, state01):
        h = PauliSum.hermitian([(1.0, "ZZ"), (1.0, "ZI"), (1.0, "IZ")])
        plan = build_groups(h)
        rep = estimate_expectation(
            lambda: state01, h, plan, epsilon=0.1, rng=np.random.default_rng(3)
        )
        assert rep.value == pytest.approx(-1.0, abs=1e-12)
        assert rep.total_preparations == MIN_SHOT_FLOOR
        assert rep.variance_of_estimator == pytest.approx(0.0, abs=1e-15)

    def test_bayesian_skips_floor_on_deterministic_input(self, state01):
        h = PauliSum.hermitian([(1.0, "ZZ")])
        plan = build_groups(h)
        rep = estimate_expectation(
            lambda: state01,
            h,
            plan,
            epsilon=0.1,
            mode="bayesian",
            rng=np.random.default_rng(5),
        )
        assert rep.total_preparations == BATCH_SIZE
        # posterior mean is shrunk toward zero but well inside epsilon
        assert rep.value == pytest.approx(-1.0, abs=0.05)

    def test_bayesian_keeps_co_measured_covariance(self, twospin, state01, h2_hamiltonian):
        # On |01> XX and YY always agree.  Independent per-term posteriors
        # halve the group's variance: their 95% intervals covered about 86%
        # of runs, and z-scores spread with a standard deviation near 1.2.
        # H2's auto plan at theta = 0.3 has groups of 6 and 8 correlated
        # strings, where the moment-matched Beta is an approximation; there
        # the prior's pull toward 0 shifts the mean z by +0.1 to +0.3.
        acfg = AnsatzConfig(generator_set=fermionic_ucc_generators(4, [0, 1], [2, 3], 2))
        h2_state = prepare_state(
            ReferenceState.from_occupied(4, [0, 1]), acfg, np.full(parameter_count(acfg), 0.3)
        )
        h2 = h2_hamiltonian
        h2_plan = build_groups(h2, exact_covariances(h2, h2_state))
        assert sorted(len(g) for g in h2_plan.groups) == [6, 8]
        h2_true = expectation_and_variance(h2_state, h2)[0]
        cases = [
            (twospin, state01, MeasurementPlan(groups=((0, 1), (2,), (3, 4))), 0.1, -1.0),
            *((h2, h2_state, h2_plan, eps, h2_true) for eps in (0.05, 0.02, 0.01)),
        ]
        for h, state, plan, eps, true in cases:
            runs, covered, z = 300, 0, []
            for seed in range(runs):
                rep = estimate_expectation(
                    lambda: state, h, plan, epsilon=eps, mode="bayesian",
                    rng=make_rng(20_000 + seed), credible_level=0.95,
                )
                lo, hi = rep.credible_interval
                covered += lo <= true <= hi
                z.append((rep.value - true) / np.sqrt(rep.variance_of_estimator))
            assert 0.90 * runs <= covered <= 0.99 * runs, (h.n_qubits, eps)
            assert np.std(z) < 1.1, (h.n_qubits, eps)

    @pytest.mark.parametrize(
        "mode, level", [("frequentist", 0.95), ("bayesian", 1.5), ("bayesian", 0.0),
                        ("bayesian", 1.0), ("bayesian", float("nan"))],
    )
    def test_bad_credible_level_raises_before_sampling(self, twospin, mode, level):
        # Frequentist mode dropped any level; a Bayesian level out of range
        # raised only after every group's shots were drawn.
        plan = MeasurementPlan(groups=((0,), (1, 2), (3, 4)))
        rng = make_rng(0)

        def prep():
            raise AssertionError("sampling started")

        with pytest.raises(ParameterError):
            estimate_expectation(
                prep, twospin, plan, epsilon=0.1, mode=mode, rng=rng, credible_level=level
            )
        assert rng.random() == make_rng(0).random()

    @pytest.mark.parametrize(
        "terms", [[(0.0, "ZZ"), (0.0, "XI"), (0.25, "II")], [(0.25, "II")]],
        ids=["zero coefficients", "no groups"],
    )
    def test_interval_without_densities_is_the_identity_point(self, state01, terms):
        h = PauliSum.hermitian(terms)
        rep = estimate_expectation(
            lambda: state01, h, build_groups(h), epsilon=0.1, mode="bayesian",
            rng=make_rng(0), credible_level=0.95,
        )
        assert rep.credible_interval == (0.25, 0.25)

    def test_interval_of_a_deterministic_term_is_finite(self, state01):
        # All 200 shots agree, so the posterior is Beta(1, 201) exactly, but
        # the moment match rounded alpha to 1 - 1.1e-15.  That density is
        # infinite at -1, and the interval came out (nan, nan).
        h = PauliSum.hermitian([(1.0, "ZZ")])
        rep = estimate_expectation(
            lambda: state01, h, build_groups(h), epsilon=0.015, mode="bayesian",
            rng=make_rng(0), credible_level=0.95,
        )
        assert rep.total_preparations == 200
        lo, hi = rep.credible_interval
        assert -1.0 <= lo < rep.value < hi < -0.9

    def test_bayesian_single_term_is_beta_posterior(self):
        # The group loop's Dirichlet sums, for one string, are criterion 6's
        # Beta(1 + r, 1 + n - r) posterior over the +1 outcome.
        state = StateVector(np.array([0.8, 0.6]))
        sampler = GroupSampler(state, [PauliString("X")])
        plan = MeasurementPlan(groups=((0,),))
        for coeff, seed in ((0.7, 8), (-1.3, 9), (0.05, 10)):
            h = PauliSum.hermitian([(coeff, "X")])
            rep = estimate_expectation(
                lambda: state, h, plan, epsilon=0.05, mode="bayesian", rng=make_rng(seed)
            )
            n = rep.total_preparations
            codes = sampler.draw(make_rng(seed), n)
            r = sum(outcomes(sampler, code) == (1,) for code in codes)
            mean, var = posterior_moments(1.0 + r, 1.0 + n - r, coeff, -coeff)
            assert rep.value == pytest.approx(mean, rel=1e-12)
            assert rep.variance_of_estimator == pytest.approx(var, rel=1e-12)

    def test_bayesian_with_credible_interval(self, twospin, state01):
        plan = MeasurementPlan(groups=((0,), (1, 2), (3, 4)))
        rep = estimate_expectation(
            lambda: state01,
            twospin,
            plan,
            epsilon=0.1,
            mode="bayesian",
            rng=np.random.default_rng(29),
            credible_level=0.95,
        )
        assert rep.mode == "bayesian"
        lo, hi = rep.credible_interval
        assert lo < rep.value < hi
        assert abs(rep.value - (-1.0)) < 0.5

    def test_identity_only_sum_needs_no_shots(self):
        h = PauliSum.hermitian([(1.5, "II")])
        plan = build_groups(h)
        assert plan.groups == ()
        rep = estimate_expectation(
            lambda: StateVector.from_label("00"),
            h,
            plan,
            epsilon=0.1,
            rng=np.random.default_rng(0),
        )
        assert rep.value == 1.5
        assert rep.total_preparations == 0
        assert rep.variance_of_estimator == 0.0

    def test_identity_offset_added(self, state01):
        h = PauliSum.hermitian([(0.25, "II"), (1.0, "ZZ")])
        plan = build_groups(h)
        rep = estimate_expectation(
            lambda: state01, h, plan, epsilon=0.1, rng=np.random.default_rng(1)
        )
        assert rep.value == pytest.approx(-0.75, abs=1e-12)

    def test_explicit_rng_required(self, twospin, state01):
        plan = build_groups(twospin)
        with pytest.raises(ValidationError):
            estimate_expectation(lambda: state01, twospin, plan, epsilon=0.1)

    def test_parameter_validation(self, twospin, state01):
        plan = build_groups(twospin)
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            estimate_expectation(lambda: state01, twospin, plan, epsilon=0.0, rng=rng)
        with pytest.raises(ParameterError):
            estimate_expectation(
                lambda: state01, twospin, plan, epsilon=0.1, mode="mle", rng=rng
            )

    def test_seeded_reproducibility(self, twospin, state01):
        plan = MeasurementPlan(groups=((0,), (1, 2), (3, 4)))
        reps = [
            estimate_expectation(
                lambda: state01,
                twospin,
                plan,
                epsilon=0.15,
                rng=np.random.default_rng(77),
            )
            for _ in range(2)
        ]
        assert reps[0].value == reps[1].value
        assert reps[0].total_preparations == reps[1].total_preparations

    def test_group_target_override(self, twospin, state01):
        # The one target rule: each of the G groups stops under eps^2 / G.
        plan = MeasurementPlan(groups=((0,), (1, 2), (3, 4)))
        rep = estimate_expectation(
            lambda: state01, twospin, plan, epsilon=0.1, rng=np.random.default_rng(13)
        )
        for g in rep.groups:
            assert g.estimator_variance < 0.1 * 0.1 / 3

    def test_report_json_shape(self, twospin, state01):
        plan = build_groups(twospin)
        rep = estimate_expectation(
            lambda: state01, twospin, plan, epsilon=0.2, rng=np.random.default_rng(19)
        )
        d = rep.to_json_dict()
        assert set(d) == {
            "value",
            "variance_of_estimator",
            "total_preparations",
            "mode",
            "groups",
        }
        assert d["groups"][0]["indices"] == [0, 1, 2]


class TestPreparationCap:
    """A plan whose expected preparations G * sum_g Var[Q_g] / eps^2 exceed
    MAX_PREPARATIONS is refused before its first shot, from the group
    variances that the group loop then uses; a Bayesian group costs at
    least the shots of its prior."""

    def test_tiny_epsilon_is_refused_before_the_first_shot(self, twospin, state01):
        # 3 groups whose variances sum to 2 on |01>: 6e+18 preparations at 1e-9.
        plan = build_groups(twospin, exact_covariances(twospin, state01))
        rng = make_rng(8)
        calls = []

        def prep():
            calls.append(1)
            return state01

        with wall_budget(0.5):
            with pytest.raises(
                CapacityError,
                match=r"the plan expects 6e\+18 preparations, over the limit of 1e\+09",
            ):
                estimate_expectation(prep, twospin, plan, epsilon=1e-9, rng=rng)
        assert len(calls) == 1
        assert rng.random() == make_rng(8).random()  # no variate drawn
        assert expected_preparations(plan, state01, twospin, 1e-9) > MAX_PREPARATIONS

    def test_zero_variance_state_passes_at_any_epsilon(self, twospin):
        # |00> is an eigenstate, and its auto plan measures XX and YY together.
        state = StateVector.from_label("00")
        plan = build_groups(twospin, exact_covariances(twospin, state))
        with wall_budget(0.5):
            rep = estimate_expectation(lambda: state, twospin, plan, 1e-9, rng=make_rng(8))
        assert rep.value == 3.0
        assert [g.preparations for g in rep.groups] == [MIN_SHOT_FLOOR] * len(plan.groups)

    def test_bayesian_zero_variance_group_is_priced_by_its_prior(self):
        # ZZ + ZI + IZ at |01> is one group with Var[q] = 0 and E[q] = -1. Its
        # Bayesian prior alone draws about sqrt(2 * 3 + 2 * 1) / eps shots.
        h = PauliSum.hermitian([(1.0, "ZZ"), (1.0, "ZI"), (1.0, "IZ")])
        state = StateVector.from_label("01")
        plan = MeasurementPlan(groups=((0, 1, 2),))
        rng = make_rng(8)
        with wall_budget(0.5):
            with pytest.raises(CapacityError, match=r"expects 2\.82843e\+09 preparations"):
                estimate_expectation(lambda: state, h, plan, 1e-9, mode="bayesian", rng=rng)
        assert rng.random() == make_rng(8).random()  # no variate drawn
        rep = estimate_expectation(lambda: state, h, plan, 1e-4, mode="bayesian", rng=rng)
        assert rep.total_preparations == pytest.approx(math.sqrt(8.0) / 1e-4, rel=0.01)

    @pytest.mark.parametrize("mode", ["frequentist", "bayesian"])
    def test_each_group_variance_is_computed_once(self, twospin, state01, mode, monkeypatch):
        import vqekit.estimate as est

        calls = []
        monkeypatch.setattr(
            est, "_group_values", lambda *args: calls.append(1) or _group_values(*args)
        )
        plan = MeasurementPlan(groups=((0,), (1, 2), (3, 4)))
        estimate_expectation(lambda: state01, twospin, plan, 0.1, mode=mode, rng=make_rng(2))
        assert len(calls) == len(plan.groups)


# Reports for the three inputs of the estimate_shots benchmark workload
# (H2 at fixed angles), with the next variate of the stream after each
# call.  Every group sums its shots in 100-shot batches; a frequentist mean
# is its first shot's value plus the mean offset from it.
PINNED_REPORTS = {
    ("two-spin auto frequentist", 0): (
        -0.962, 0.0020012612612612607, 3000,
        [(0.016000000000000014, 0.0010007447447447446, 1000),
         (-0.978, 0.0010005165165165163, 1000),
         (0.0, 0.0, 1000)],
        None, 0.4741047160034756,
    ),
    ("two-spin auto frequentist", 1): (
        -1.034, 0.0019989709709709712, 3000,
        [(0.018000000000000016, 0.0010006766766766765, 1000),
         (-1.052, 0.0009982942942942945, 1000),
         (0.0, 0.0, 1000)],
        None, 0.007930615639011762,
    ),
    # Bayesian values come from the per-group Dirichlet posterior, which
    # keeps the XX-YY correlation and so samples 1200 shots, not 600.
    ("two-spin correlated bayesian", 0): (
        -0.9304753515382859, 0.004077920255090184, 1400,
        [(0.04991680532445923, 0.0033201833129880044, 1200),
         (-0.9803921568627451, 0.0003770021239030551, 100),
         (0.0, 0.0003807348181991243, 100)],
        (-1.0533771152440317, -0.8027139139586268), 0.22147927375819176,
    ),
    ("two-spin correlated bayesian", 1): (
        -1.0236533881439431, 0.004078435760760869, 1400,
        [(-0.04326123128119801, 0.00332069881865869, 1200),
         (-0.9803921568627451, 0.0003770021239030551, 100),
         (0.0, 0.0003807348181991243, 100)],
        (-1.1464284078523235, -0.8957537383106163), 0.2707513363020383,
    ),
    ("H2 UCC auto frequentist", 0): (
        -0.8889936139230781, 9.33801862459161e-05, 2800,
        [(-0.582811297, 4.714277218479346e-05, 1500),
         (-0.2073262169230769, 4.623741406112264e-05, 1300)],
        None, 0.8000663601638899,
    ),
    ("H2 UCC auto frequentist", 1): (
        -0.8850832335833347, 9.528222571904282e-05, 2700,
        [(-0.5642362990000002, 4.927212148768517e-05, 1500),
         (-0.2219908345833333, 4.601010423135766e-05, 1200)],
        None, 0.8968655606490009,
    ),
}


class TestPinnedReports:
    @pytest.fixture(scope="class")
    def inputs(self, h2_hamiltonian):
        two = PauliSum.hermitian(
            [(-1.0, "XX"), (-1.0, "YY"), (1.0, "ZZ"), (1.0, "ZI"), (1.0, "IZ")]
        )
        s01 = StateVector.from_label("01")
        acfg = AnsatzConfig(generator_set=fermionic_ucc_generators(4, [0, 1], [2, 3], 2))
        theta = np.linspace(0.28, 0.32, parameter_count(acfg))
        h2_state = prepare_state(ReferenceState.from_occupied(4, [0, 1]), acfg, theta)
        h2 = h2_hamiltonian
        return {
            "two-spin auto frequentist": (
                two, s01, build_groups(two, exact_covariances(two, s01)), 0.1, "frequentist"
            ),
            "two-spin correlated bayesian": (
                two, s01, MeasurementPlan(groups=((0, 1), (2,), (3, 4))), 0.1, "bayesian"
            ),
            "H2 UCC auto frequentist": (
                h2, h2_state, build_groups(h2, exact_covariances(h2, h2_state)), 0.01, "frequentist"
            ),
        }

    @pytest.mark.parametrize("key", sorted(PINNED_REPORTS))
    def test_report_is_pinned(self, inputs, key):
        label, seed = key
        h, state, plan, eps, mode = inputs[label]
        value, variance, preps, groups, interval, next_u = PINNED_REPORTS[key]
        rng = make_rng(seed)
        rep = estimate_expectation(
            lambda: state, h, plan, eps, mode=mode, rng=rng,
            credible_level=0.95 if mode == "bayesian" else None,
        )
        assert rep.value == value
        assert rep.variance_of_estimator == variance
        assert rep.total_preparations == preps
        assert [(g.value, g.estimator_variance, g.preparations) for g in rep.groups] == groups
        assert rng.random() == next_u
        if interval is None:
            assert rep.credible_interval is None
        else:
            # The interval runs through exp, log1p and an FFT, whose last
            # bits may differ between numpy builds.
            assert rep.credible_interval == pytest.approx(interval, abs=1e-12)

    def test_prep_called_once_per_call(self, twospin, state01):
        calls = []

        def prep():
            calls.append(1)
            return state01

        plan = MeasurementPlan(groups=((0,), (1, 2), (3, 4)))
        estimate_expectation(prep, twospin, plan, epsilon=0.1, rng=make_rng(0))
        assert len(calls) == 1


def one_batch_group(sampler, coeffs, _table, _var, target, rng, mode):
    """The group loop with one BATCH_SIZE draw per check, each batch's sums
    added to the running totals as soon as it is drawn.  It builds its own
    table and needs no variance."""
    table = (sampler.outcome_table * coeffs).sum(axis=1)
    prior_sq = 2.0 * float(np.sum(coeffs * coeffs))
    frequentist = mode == "frequentist"
    n, s1, s2, shift = 0, 0.0, 0.0, None

    def moments():
        if frequentist:
            return shift + s1 / n, (s2 - s1 * s1 / n) / (n - 1) / n
        mean = s1 / (n + 2)
        return mean, ((prior_sq + s2) / (n + 2) - mean * mean) / (n + 3)

    while not (n >= (MIN_SHOT_FLOOR if frequentist else 0) and moments()[1] < target):
        x = table[sampler.draw(rng, BATCH_SIZE)]
        if shift is None:
            shift = x[0] if frequentist else 0.0
        x = x - shift
        n, s1, s2 = n + BATCH_SIZE, s1 + x.sum(), s2 + (x * x).sum()
    return (n, *moments())


class TestBlockDraws:
    """Shots drawn in large blocks, with the generator rewound to the stop,
    give the reports and streams of one BATCH_SIZE draw per check.  This is
    criterion 6's "batch updates compose additively": the posterior's sums
    n, S1 and S2 do not depend on how the shots are split into blocks."""

    @pytest.fixture(scope="class")
    def cases(self, h2_hamiltonian):
        two = PauliSum.hermitian(
            [(-1.0, "XX"), (-1.0, "YY"), (1.0, "ZZ"), (1.0, "ZI"), (1.0, "IZ")]
        )
        s01 = StateVector.from_label("01")
        acfg = AnsatzConfig(generator_set=fermionic_ucc_generators(4, [0, 1], [2, 3], 2))
        theta = np.linspace(0.28, 0.32, parameter_count(acfg))
        h2_state = prepare_state(ReferenceState.from_occupied(4, [0, 1]), acfg, theta)
        h2 = h2_hamiltonian
        h2_plan = build_groups(h2, exact_covariances(h2, h2_state))
        return {
            # Both groups stop above the floor, inside the second block.
            "frequentist": (h2, h2_state, h2_plan, 0.01),
            # Stops at 100 to 1200 shots; 1200 lies inside the second block.
            "bayesian correlated": (two, s01, MeasurementPlan(groups=((0, 1), (2,), (3, 4))), 0.1),
            # Stops inside the first block, on groups of 6 and 8 strings.
            "bayesian H2": (h2, h2_state, h2_plan, 0.02),
        }

    @pytest.mark.parametrize("label", ["frequentist", "bayesian correlated", "bayesian H2"])
    def test_reports_and_stream_match_one_batch_draws(self, cases, label, monkeypatch):
        import vqekit.estimate as est

        h, state, plan, eps = cases[label]
        mode = label.split()[0]
        interval = 0.95 if mode == "bayesian" else None
        stops = set()
        for seed in range(50):
            runs = []
            for patch in (False, True):
                if patch:
                    monkeypatch.setattr(est, "_measure_group", one_batch_group)
                rng = make_rng(seed)
                rep = estimate_expectation(
                    lambda: state, h, plan, eps, mode=mode, rng=rng, credible_level=interval
                )
                runs.append((rep.to_json_dict(), rng.random()))
            monkeypatch.undo()
            assert runs[0] == runs[1], seed
            stops.update(g.preparations for g in rep.groups)
        # Stops inside a block, not only at its end (1000, then 3000 shots).
        assert stops - {MIN_SHOT_FLOOR, 3 * MIN_SHOT_FLOOR}


    @pytest.mark.parametrize("first", [BATCH_SIZE, MAX_BLOCK])
    @pytest.mark.parametrize("label", ["frequentist", "bayesian correlated", "bayesian H2"])
    def test_any_first_block_gives_the_same_reports(self, cases, label, first, monkeypatch):
        # BATCH_SIZE: every group needs a second block, MAX_BLOCK: every
        # group stops inside its first one and is rewound.
        import vqekit.estimate as est

        h, state, plan, eps = cases[label]
        mode = label.split()[0]
        interval = 0.95 if mode == "bayesian" else None
        rewinds = []
        for seed in range(8):
            runs = []
            for group_loop in (_measure_group, one_batch_group):
                monkeypatch.setattr(est, "_measure_group", group_loop)
                monkeypatch.setattr(est, "_first_block", lambda *args: first)
                monkeypatch.setattr(est, "_rewind", lambda *args: rewinds.append(1) or _rewind(*args))
                rng = make_rng(seed)
                rep = estimate_expectation(
                    lambda: state, h, plan, eps, mode=mode, rng=rng, credible_level=interval
                )
                runs.append((rep.to_json_dict(), rng.random()))
                monkeypatch.undo()
            assert runs[0] == runs[1], seed
        if first == MAX_BLOCK:
            assert len(rewinds) == 8 * len(plan.groups)

    @pytest.mark.parametrize("label", ["floor", "frequentist"])
    def test_first_block_is_the_expected_stop(self, cases, label, monkeypatch):
        # The two-spin auto plan on |01> stops at the floor in every group,
        # and draws exactly it; each H2 group stops inside its first block.
        import vqekit.estimate as est

        if label == "floor":
            h = PauliSum.hermitian(
                [(-1.0, "XX"), (-1.0, "YY"), (1.0, "ZZ"), (1.0, "ZI"), (1.0, "IZ")]
            )
            state = StateVector.from_label("01")
            plan, eps = build_groups(h, exact_covariances(h, state)), 0.1
        else:
            h, state, plan, eps = cases[label]
        draw = GroupSampler.draw
        for seed in range(5):
            draws, rewinds = [], []
            monkeypatch.setattr(
                GroupSampler, "draw", lambda self, rng, shots: draws.append(shots) or draw(self, rng, shots)
            )
            monkeypatch.setattr(est, "_rewind", lambda *args: rewinds.append(1) or _rewind(*args))
            rep = estimate_expectation(lambda: state, h, plan, eps, rng=make_rng(seed))
            monkeypatch.undo()
            used = [g.preparations for g in rep.groups]
            assert len(draws) == len(plan.groups), seed
            assert all(d >= n for d, n in zip(draws, used)), seed
            # A stop at the end of its block needs no rewind.
            assert len(rewinds) == sum(d > n for d, n in zip(draws, used))
            if label == "floor":
                assert draws == [MIN_SHOT_FLOOR] * 3

    def test_pattern_probabilities_give_the_exact_moments(self, cases):
        h, state, plan, _ = cases["frequentist"]
        for g in plan.groups:
            sampler = GroupSampler(state, [h.terms[i].string for i in g])
            p = sampler.probabilities
            assert not p.flags.writeable
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            coeffs = np.array([h.terms[i].coeff.real for i in g])
            q = sampler.outcome_table @ coeffs
            mean = p @ q
            want = expectation_and_variance(state, PauliSum(h.n_qubits, [h.terms[i] for i in g]))
            assert mean == pytest.approx(want[0], abs=1e-12)
            assert p @ (q - mean) ** 2 == pytest.approx(want[1], abs=1e-12)


class TestRewind:
    """`_rewind` skips variates with `advance` where the bit generator has
    it, and draws them again where it does not; either way the state and
    the stream afterwards are those of drawing them again."""

    @staticmethod
    def plain(state):
        return {
            key: TestRewind.plain(v) if isinstance(v, dict) else np.asarray(v).tolist()
            for key, v in state.items()
        }

    @pytest.mark.parametrize(
        "bitgen",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.MT19937, np.random.SFC64],
    )
    def test_matches_a_redraw(self, bitgen):
        def after(rng):
            return (
                self.plain(rng.bit_generator.state),
                rng.random(5).tolist(),
                rng.integers(2**32, size=3, dtype=np.uint32).tolist(),
            )

        cases = 0
        for offset in range(13):  # every Philox buffer position, and past it
            for buffered in (False, True):
                rng = np.random.Generator(bitgen(11))
                rng.random(offset)
                if buffered:  # a 32-bit value left from a 64-bit draw
                    rng.integers(2**32, dtype=np.uint32)
                state = rng.bit_generator.state
                # MT19937 draws 32-bit words and keeps no such value.
                assert state.get("has_uint32", buffered) == buffered
                for k in (1, 2, 3, 5):
                    for shots in range(23):
                        rng.random((shots + 4) * k)  # a block drawn past the stop
                        _rewind(rng, state, shots * k)
                        got = after(rng)
                        rng.bit_generator.state = state
                        rng.random(shots * k)
                        assert got == after(rng), (offset, buffered, k, shots)
                        cases += 1
        assert cases == 13 * 2 * 4 * 23


class TestGroupLoop:
    """The (mean, variance) that `_measure_group` reports."""

    def test_matches_exact_sums_of_the_same_draws(self):
        # Six modes, an order-2 UCC state and 12 fluctuating groups, each
        # run to about 1.2e5 shots.  Largest errors measured: 1.3e-15 of
        # sum |c| in the mean, 1.2e-14 relative in the variance.
        m = 6
        with wall_budget(5.0):
            ints = random_integrals(np.random.default_rng(7000 + m), m)
            h = jordan_wigner(build_hamiltonian(ints)).simplify()
            acfg = AnsatzConfig(
                generator_set=fermionic_ucc_generators(m, [0, 1, 2], [3, 4, 5], 2)
            )
            theta = np.random.default_rng(m).normal(0.0, 0.1, parameter_count(acfg))
            state = prepare_state(ReferenceState.from_occupied(m, [0, 1, 2]), acfg, theta)
            checked = 0
            for k, g in enumerate(build_groups(h).groups):
                v = expectation_and_variance(
                    state, PauliSum(m, [h.terms[i] for i in g])
                )[1]
                if v < 1e-6:
                    continue
                sampler = GroupSampler(state, [h.terms[i].string for i in g])
                coeffs = np.array([h.terms[i].coeff.real for i in g])
                n, mean, var = _measure_group(
                    sampler, coeffs, *_group_values(sampler, coeffs), v / 1.2e5,
                    make_rng(k), "frequentist",
                )
                assert n >= 100_000
                table = (sampler.outcome_table * coeffs).sum(axis=1).tolist()
                counts = np.bincount(sampler.draw(make_rng(k), n), minlength=len(table))
                pairs = [(int(c), Fraction(q)) for c, q in zip(counts, table) if c]
                exact_mean = sum(c * q for c, q in pairs) / n
                exact_var = sum(c * (q - exact_mean) ** 2 for c, q in pairs) / (n - 1) / n
                scale = Fraction(float(np.sum(np.abs(coeffs))))
                assert abs(Fraction(mean) - exact_mean) <= Fraction(4e-15) * scale, k
                assert abs(Fraction(var) - exact_var) <= Fraction(5e-14) * exact_var, k
                checked += 1
                if checked == 12:
                    break
        assert checked == 12

    def test_eight_mode_estimate_is_pinned_and_fast(self):
        # The scale path: 8 modes, an order-2 UCC state, about 1.6e6 shots.
        m = 8
        with wall_budget(5.0):
            ints = random_integrals(np.random.default_rng(7000 + m), m)
            h = jordan_wigner(build_hamiltonian(ints)).simplify()
            acfg = AnsatzConfig(
                generator_set=fermionic_ucc_generators(m, [0, 1, 2, 3], [4, 5, 6, 7], 2)
            )
            theta = np.random.default_rng(m).normal(0.0, 0.1, parameter_count(acfg))
            state = prepare_state(ReferenceState.from_occupied(m, [0, 1, 2, 3]), acfg, theta)
            rng = make_rng(1)
            rep = estimate_expectation(lambda: state, h, build_groups(h), 0.2, rng=rng)
        assert rep.value == 16.467644549532366
        assert rep.total_preparations == 1587200
        assert rng.random() == 0.28632024386482047

    def test_deterministic_group_has_zero_variance(self, state01):
        # Every shot of 0.1 ZI + 0.2 IZ + 0.3 ZZ on |01> reads 0.1 - 0.2 - 0.3.
        # Unshifted sums of q and q^2 leave 8.5e-20 there, not 0.
        h = PauliSum.hermitian([(0.1, "ZI"), (0.2, "IZ"), (0.3, "ZZ")])
        rep = estimate_expectation(
            lambda: state01, h, build_groups(h), epsilon=0.01, rng=make_rng(0)
        )
        (group,) = rep.groups
        assert group.estimator_variance == 0.0
        assert group.preparations == MIN_SHOT_FLOOR
        assert group.value == pytest.approx(-0.4, abs=1e-15)


def reference_beta_density(alpha: float, beta: float, m1: float, m2: float) -> PosteriorDensity:
    """`beta_density` as it was before its grid was cached: a new linspace
    per call and np.trapezoid's normalisation."""
    if not (alpha >= 1.0 and beta >= 1.0):
        raise ParameterError(
            f"beta_density needs alpha, beta >= 1, got {alpha!r}, {beta!r}"
        )
    lo, hi = min(m1, m2), max(m1, m2)
    if hi - lo < 1e-300:
        raise ValidationError("degenerate outcome pair has no density")
    grid = np.linspace(lo, hi, DENSITY_POINTS)
    p = np.clip((grid - m2) / (m1 - m2), 0.0, 1.0)
    log_pdf = np.zeros_like(p)
    if alpha + beta > 2.0:
        # log(p/p0) and log((1-p)/(1-p0)) about the mode p0 = 1 - q0 go
        # through log1p, which keeps the peak accurate to rounding at
        # alpha, beta ~ 1e5.  A term of exponent 0 is skipped: 0 log 0 = 0.
        p0 = (alpha - 1.0) / (alpha + beta - 2.0)
        q0 = (beta - 1.0) / (alpha + beta - 2.0)
        with np.errstate(divide="ignore"):
            if alpha > 1.0:
                log_pdf += (alpha - 1.0) * np.log1p((p - p0) / p0)
            if beta > 1.0:
                # At p = 1, (p0 - p) / q0 misses -1 by the rounding of p0.
                ratio = np.where(p < 1.0, (p0 - p) / q0, -1.0)
                log_pdf += (beta - 1.0) * np.log1p(ratio)
    pdf = np.exp(log_pdf)
    return PosteriorDensity._unchecked(grid, pdf / np.trapezoid(pdf, grid))


def reference_convolve_posteriors(pdfs) -> PosteriorDensity:
    """`convolve_posteriors` as it was before supports were trimmed: every
    resampled density in full, one FFT each."""
    pdfs = list(pdfs)
    if not pdfs:
        raise ValidationError("no densities to convolve")
    for d in pdfs:
        mass = _trapezoid(d.pdf, d.dx)
        if abs(mass - 1.0) > 1e-6:
            raise ValidationError(
                f"density mass {mass:.8f} drifted past 1e-6; grid too coarse"
            )
    dx = min(d.dx for d in pdfs)
    resampled = []
    for d in pdfs:
        if d.dx == dx:
            pdf = d.pdf
        else:
            n = max(2, int(round((d.grid[-1] - d.grid[0]) / dx)) + 1)
            pdf = np.interp(d.grid[0] + dx * np.arange(n), d.grid, d.pdf, left=0.0, right=0.0)
        mass = _trapezoid(pdf, dx)
        if mass <= 0:
            raise ValidationError("density lost all mass in resampling")
        resampled.append((float(d.grid[0]), pdf / mass))
    size = sum(pdf.size for _, pdf in resampled) - (len(resampled) - 1)
    n_fft = _fft_length(size)
    spectrum = np.prod([np.fft.rfft(pdf, n_fft) for _, pdf in resampled], axis=0)
    # Rounding leaves values of order 1e-16 below zero in the empty tails.
    acc = np.maximum(np.fft.irfft(spectrum, n_fft)[:size], 0.0)
    grid = sum(s for s, _ in resampled) + dx * np.arange(size)
    return PosteriorDensity._unchecked(grid, acc / _trapezoid(acc, dx))


class TestIntervalOracle:
    """The trimmed, batched convolution and the cached Beta grid against
    the references above."""

    @pytest.fixture(scope="class")
    def plans(self, h2_hamiltonian):
        two = PauliSum.hermitian(
            [(-1.0, "XX"), (-1.0, "YY"), (1.0, "ZZ"), (1.0, "ZI"), (1.0, "IZ")]
        )
        acfg = AnsatzConfig(generator_set=fermionic_ucc_generators(4, [0, 1], [2, 3], 2))
        state = prepare_state(
            ReferenceState.from_occupied(4, [0, 1]), acfg, np.full(parameter_count(acfg), 0.3)
        )
        h2 = h2_hamiltonian
        singletons = tuple((i,) for i in _measurable_indices(h2))
        return {
            "two-spin correlated": (
                two, StateVector.from_label("01"), MeasurementPlan(((0, 1), (2,), (3, 4)))
            ),
            "H2 auto": (h2, state, build_groups(h2, exact_covariances(h2, state))),
            "H2 singletons": (h2, state, MeasurementPlan(singletons)),
        }

    def test_untrimmed_densities_give_the_reference_bytes(self):
        # Beta(1, 1) is flat, and the Gaussian's tails stay above _FLOOR of
        # its peak, so no entry is trimmed; any alpha or beta above 1 puts
        # an exact 0 at an end of the grid.
        grid = np.linspace(-0.5, 1.5, 801)
        bump = np.exp(-0.5 * ((grid - 0.4) / 0.3) ** 2)
        gauss = PosteriorDensity(grid=grid, pdf=bump / _trapezoid(bump, grid[1] - grid[0]))
        assert bump.min() > _FLOOR * bump.max()
        for densities in (
            [beta_density(1.0, 1.0, 1.0, -1.0), gauss],
            [beta_density(1.0, 1.0, 0.5, -0.3), beta_density(1.0, 1.0, 2.0, -1.0), gauss],
        ):
            got = convolve_posteriors(densities)
            want = reference_convolve_posteriors(densities)
            assert got.grid.tobytes() == want.grid.tobytes()
            assert got.pdf.tobytes() == want.pdf.tobytes()

    @pytest.mark.parametrize("label", ["two-spin correlated", "H2 auto", "H2 singletons"])
    @pytest.mark.parametrize("eps", [0.1, 0.02, 0.01])
    def test_intervals_match_the_reference(self, plans, label, eps, monkeypatch):
        # Largest difference measured over 300 seeds of each case: 2.1e-15.
        import vqekit.estimate as est

        h, state, plan = plans[label]

        def run(seed):
            return estimate_expectation(
                lambda: state, h, plan, eps, mode="bayesian", rng=make_rng(seed),
                credible_level=0.95,
            )

        got = [run(seed) for seed in range(20)]
        monkeypatch.setattr(est, "beta_density", reference_beta_density)
        monkeypatch.setattr(est, "convolve_posteriors", reference_convolve_posteriors)
        for seed, rep in enumerate(got):
            want = run(seed)
            assert rep.groups == want.groups
            np.testing.assert_allclose(
                rep.credible_interval, want.credible_interval, rtol=0, atol=1e-13
            )

    @pytest.mark.parametrize("shapes", [
        [(600.0, 600.0, 2.0, -2.0), (3.0, 50.0, 1.0, -1.0), (2.0, 90.0, 2.0, -2.0)],
        [(1.0, 101.0, 1.0, -1.0), (40.0, 2.0, 0.7, -0.7)],  # one-sided, then its mirror
        [(1.0, 101.0, 0.3, -0.3)],
        [(600.0, 600.0, 2.0, -2.0)],
        [(1e4, 2e5, 1.0, -1.0), (1.0, 1.0, 0.2, -0.2), (5.0, 3.0, 3.0, 1.0)],
    ])
    def test_full_grid_pdf_matches_the_reference(self, shapes):
        got = convolve_posteriors([beta_density(*s) for s in shapes])
        want = reference_convolve_posteriors([reference_beta_density(*s) for s in shapes])
        assert got.grid.tobytes() == want.grid.tobytes()
        assert np.min(got.pdf) >= 0.0
        np.testing.assert_allclose(got.pdf, want.pdf, rtol=0, atol=1e-13 * want.pdf.max())
        for level in (0.5, 0.95, 0.999):
            np.testing.assert_allclose(
                got.credible_interval(level), want.credible_interval(level), rtol=0, atol=1e-13
            )

    @pytest.mark.parametrize("m1, m2", [(0.7, -0.7), (-1.3, 2.0), (0.0, 1.0), (-0.0, 1.0), (1.0, -0.0)])
    def test_beta_grid_is_the_reference_grid_shared_and_read_only(self, m1, m2):
        d = beta_density(3.0, 5.0, m1, m2)
        want = reference_beta_density(3.0, 5.0, m1, m2)
        assert d.grid.tobytes() == want.grid.tobytes()
        # The pdf is normalised with one step, not np.trapezoid's rounded
        # steps of the grid: 1.4e-13 relative at most over the ranges of
        # test_matches_scipy_beta_pdf and its exponents.
        np.testing.assert_allclose(d.pdf, want.pdf, rtol=1e-12, atol=0)
        assert beta_density(40.0, 2.0, m1, m2).grid is d.grid
        with pytest.raises(ValueError):
            d.grid[0] = 0.5


class TestPosteriorDensity:
    def test_posterior_moments_match_exact_rationals(self):
        for alpha, beta in ((1, 1), (8, 4), (101, 17), (3, 250)):
            mean, var = posterior_moments(alpha, beta, 1.0, -1.0)
            s = Fraction(alpha + beta)
            p = Fraction(alpha) / s
            p_var = Fraction(alpha * beta) / (s * s * (s + 1))
            want_mean = 2 * p - 1
            want_var = 4 * p_var
            assert mean == pytest.approx(float(want_mean), rel=1e-15)
            assert var == pytest.approx(float(want_var), rel=1e-15)

    def test_posterior_moments_validation(self):
        with pytest.raises(ParameterError):
            posterior_moments(0.0, 1.0, 1.0, -1.0)

    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0),
    ])
    def test_posterior_moments_reject_nan_and_inf(self, alpha, beta):
        # NaN and inf pass `alpha <= 0`; before the check they gave (nan, nan).
        with pytest.raises(ParameterError, match="finite and positive"):
            posterior_moments(alpha, beta, 1.0, -1.0)

    def test_flat_prior_density_is_uniform(self):
        d = beta_density(1.0, 1.0, 1.0, -1.0)
        assert d.mass() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(d.pdf, 0.5, atol=1e-9)
        lo, hi = d.credible_interval(0.9)
        assert lo == pytest.approx(-0.9, abs=1e-3)
        assert hi == pytest.approx(0.9, abs=1e-3)

    def test_density_mean_matches_moments(self):
        for alpha, beta in ((3.0, 5.0), (40.0, 2.0)):
            d = beta_density(alpha, beta, 0.7, -0.7)
            want, _ = posterior_moments(alpha, beta, 0.7, -0.7)
            assert d.mean() == pytest.approx(want, abs=1e-4)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 40.0, 700.0, 1e4, 2e5])
    def test_matches_scipy_beta_pdf(self, alpha):
        from scipy.stats import beta as beta_dist

        for beta in (1.0, 1.5, 40.0, 700.0, 1e4, 2e5):
            for m1, m2 in ((0.7, -0.7), (-1.3, 2.0), (0.3, 0.1)):
                d = beta_density(alpha, beta, m1, m2)
                p = np.clip((d.grid - m2) / (m1 - m2), 0.0, 1.0)
                want = beta_dist.pdf(p, alpha, beta)
                want = want / np.trapezoid(want, d.grid)
                # Largest difference measured: 5.2e-14 of the maximum.
                assert np.max(np.abs(d.pdf - want)) <= 1e-12 * want.max(), (alpha, beta)

    @pytest.mark.parametrize("alpha, beta", [(0.5, 2.0), (2.0, 0.5), (0.999, 1.0), (float("nan"), 2.0)])
    def test_unbounded_density_is_refused(self, alpha, beta):
        # Below 1 the density is infinite at an end of the grid: the pdf was
        # NaN there and 0 at every other point.
        with pytest.raises(ParameterError):
            beta_density(alpha, beta, 0.7, -0.7)

    def test_built_densities_pass_the_public_grid_check(self):
        a = beta_density(3.0, 5.0, 0.7, -0.7)
        b = beta_density(40.0, 2.0, 2.0, -1.0)
        for d in (a, b, convolve_posteriors([a, b])):
            assert PosteriorDensity(grid=d.grid, pdf=d.pdf) == d

    def test_convolution_matches_direct_sum(self):
        densities = [
            beta_density(3.0, 5.0, 0.7, -0.7),
            beta_density(40.0, 2.0, 2.0, -1.0),
            beta_density(1.0, 9.0, 0.2, -0.2),
        ]
        got = convolve_posteriors(densities)
        dx = min(d.dx for d in densities)
        acc, start = np.ones(1), 0.0
        for d in densities:
            n = int(round((d.grid[-1] - d.grid[0]) / dx)) + 1
            grid = d.grid[0] + dx * np.arange(n)
            pdf = np.interp(grid, d.grid, d.pdf, left=0.0, right=0.0)
            acc = np.convolve(acc, pdf / np.trapezoid(pdf, grid))
            start += d.grid[0]
        want = acc / np.trapezoid(acc, start + dx * np.arange(acc.size))
        assert got.grid.size == want.size
        assert got.grid[0] == pytest.approx(start, abs=1e-15)
        assert np.min(got.pdf) >= 0.0
        # Measured: 7.2e-16 of the maximum.
        np.testing.assert_allclose(got.pdf, want, rtol=0, atol=1e-13 * want.max())

    def test_densities_on_the_finest_step_are_not_resampled(self):
        # a and b share a range, so the finest step; c is coarser.
        a = beta_density(3.0, 5.0, 0.7, -0.7)
        b = beta_density(40.0, 2.0, 0.7, -0.7)
        c = beta_density(1.0, 9.0, 2.0, -1.0)
        got = convolve_posteriors([a, b, c])
        dx = a.dx
        n = int(round((c.grid[-1] - c.grid[0]) / dx)) + 1
        c_pdf = np.interp(c.grid[0] + dx * np.arange(n), c.grid, c.pdf, left=0.0, right=0.0)
        acc = np.ones(1)
        for pdf in (a.pdf, b.pdf, c_pdf):
            acc = np.convolve(acc, pdf / np.trapezoid(pdf, dx=dx))
        want = acc / np.trapezoid(acc, dx=dx)
        assert got.grid.size == want.size == 3 * 1025 - 2 + (n - 1025)
        assert got.grid[0] == a.grid[0] + b.grid[0] + c.grid[0]
        np.testing.assert_allclose(got.pdf, want, rtol=0, atol=1e-13 * want.max())

    def test_fft_length_is_the_next_5_smooth_number(self):
        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        want = 10_000
        while not smooth(want):
            want += 1
        for n in range(10_000, 0, -1):
            if smooth(n):
                want = n
            assert _fft_length(n) == want, n
        assert _fft_length(5121) == 5184

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            PosteriorDensity(grid=np.array([0.0, 0.1, 0.5]), pdf=np.ones(3))
        with pytest.raises(ValidationError):
            PosteriorDensity(grid=np.linspace(0, 1, 4), pdf=np.ones(3))
        with pytest.raises(ValidationError):
            beta_density(2.0, 2.0, 0.5, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -5.0])
    def test_pdf_must_be_finite_and_non_negative(self, bad):
        # A NaN passed the mass check and gave a NaN interval; a -5 entry
        # with a compensating +6 had mass 1 and a meaningless interval.
        pdf = np.full(11, 1.0)
        pdf[3] = bad
        if bad == -5.0:
            pdf[7] = 6.0
        with pytest.raises(ValidationError, match="finite and non-negative"):
            PosteriorDensity(grid=np.linspace(0.0, 1.0, 11), pdf=pdf)

    def test_interval_level_validation(self):
        d = beta_density(2.0, 2.0, 1.0, -1.0)
        with pytest.raises(ValidationError):
            d.credible_interval(1.0)

    def test_convolution_of_uniforms_is_triangular(self):
        a = beta_density(1.0, 1.0, 1.0, -1.0)
        b = beta_density(1.0, 1.0, 1.0, -1.0)
        tri = convolve_posteriors([a, b])
        assert tri.mass() == pytest.approx(1.0, abs=1e-6)
        assert tri.mean() == pytest.approx(0.0, abs=1e-6)
        assert tri.grid[0] == pytest.approx(-2.0, abs=1e-9)
        assert tri.grid[-1] == pytest.approx(2.0, abs=1e-2)
        mid = np.interp(0.0, tri.grid, tri.pdf)
        assert mid == pytest.approx(0.5, abs=1e-2)

    def test_convolution_requires_input(self):
        with pytest.raises(ValidationError):
            convolve_posteriors([])

    def test_single_density_passthrough(self):
        d = beta_density(5.0, 3.0, 1.0, -1.0)
        same = convolve_posteriors([d])
        assert same.mean() == pytest.approx(d.mean(), abs=1e-9)


class TestFormatPlan:
    def test_signed_terms_per_group(self, twospin):
        plan = MeasurementPlan(groups=((0, 1, 2), (3, 4)))
        text = format_plan(plan, twospin)
        assert text.splitlines() == [
            "group 1: -1*XX  -1*YY  +1*ZZ",
            "group 2: +1*ZI  +1*IZ",
        ]
