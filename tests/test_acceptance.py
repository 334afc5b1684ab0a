"""Acceptance suite: one test per advertised criterion of the toolkit.

Every test states a numerical contract and a wall-clock budget, and each
result is echoed on its own line in the terminal summary (see conftest).
Budgets are asserted so an algorithmic regression fails loudly instead
of quietly dragging the suite.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.linalg import logm
from scipy.stats import unitary_group

import vqekit as vk
from vqekit import FermionOperator, commutator
from vqekit.estimate import _group_values, _measure_group

from conftest import wall_budget
from test_fermion import T, dense_of, two_body_commutator_reference


def one_qubit_crossing():
    h_i = vk.PauliSum.hermitian([(0.5, "I"), (-0.5, "Z"), (0.1, "X")])
    h_p = vk.PauliSum.hermitian([(0.5, "I"), (0.5, "Z")])
    return h_i, h_p


def h2_ucc_setup():
    gens = vk.fermionic_ucc_generators(4, [0, 1], [2, 3], 2)
    ref = vk.ReferenceState.from_occupied(4, [0, 1])
    return ref, vk.AnsatzConfig(generator_set=gens, trotter_slices=1)


def test_c01_measurement_cost_worked_example(twospin, state01):
    """Analytic shot counts for three groupings of the 2-spin example."""
    with wall_budget(1.0):
        eps = 0.1
        cases = {
            ((0,), (1,), (2,), (3,), (4,)): 10.0,
            ((0,), (1, 2), (3, 4)): 6.0,
            ((0, 1, 2), (3, 4)): 8.0,
        }
        for groups, coeff in cases.items():
            plan = vk.MeasurementPlan(groups=groups)
            n = vk.expected_preparations(plan, state01, twospin, eps)
            assert math.isclose(n * eps * eps, coeff, rel_tol=1e-12), groups


def test_ten_qubit_annealing():
    """A transverse-field Ising chain at 10 qubits anneals within budget.

    The step kernel holds no d x d matrix at this size; a stack of every
    step's eigendecomposition, as the integrator once built, needs about
    7 GB here."""
    n = 10

    def label(ops):
        return "".join(ops.get(n - 1 - j, "I") for j in range(n))

    with wall_budget(20.0):
        h_i = vk.PauliSum.hermitian([(-1.0, label({q: "X"})) for q in range(n)])
        h_p = vk.PauliSum.hermitian(
            [(-1.0, label({q: "Z", q + 1: "Z"})) for q in range(n - 1)]
            + [(-(0.5 + 0.05 * q), label({q: "Z"})) for q in range(n)]
        )
        success = vk.success_probability(vk.Schedule.linear(10.0), h_i, h_p)
        assert 0.9 < success <= 1.0 + 1e-12


def test_c02_avoided_crossing():
    """Minimum gap of the 1-qubit crossing on a millistep grid."""
    with wall_budget(1.0):
        h_i, h_p = one_qubit_crossing()
        grid = np.linspace(0.0, 1.0, 1001)
        levels = vk.spectrum_along_path(h_i, h_p, grid)
        gaps = levels[:, 1] - levels[:, 0]
        # Closed form for this pair: gap(A) = 2 sqrt((A-1/2)^2 + 0.01 A^2).
        oracle = 2.0 * np.sqrt((grid - 0.5) ** 2 + 0.01 * grid * grid)
        np.testing.assert_allclose(gaps, oracle, atol=1e-9)
        # The nominal crossing is gap 0.100 at A = 0.5.  The 0.01 A^2
        # skew puts the literal grid minimum one millistep off center, so
        # the center value is pinned exactly and the discrete argmin is
        # required to sit within a step of it.
        assert abs(gaps[500] - 0.100) < 1e-6
        k = int(np.argmin(gaps))
        assert abs(grid[k] - 0.5) <= 0.005 + 1e-12
        assert abs(grid[k] - 0.495) < 1e-12
        assert abs(gaps[k] - 0.09950376877284595) < 1e-12


def test_c03_path_advantage():
    """Optimized spline schedules in the constrained-time regime."""
    with wall_budget(60.0):
        h_i, h_p = one_qubit_crossing()
        taus = [5.0, 10.0, 20.0, 40.0]
        study = vk.path_study(h_i, h_p, taus, family="spline")
        linear, optimized = {}, {}
        for base, opt in zip(study.records[0::2], study.records[1::2]):
            assert base.family == "linear" and opt.family == "spline"
            assert base.tau == opt.tau
            linear[base.tau] = base.success
            optimized[opt.tau] = opt.success
        # Every linear ramp in the scan is resource-constrained.
        assert all(v < 0.9 for v in linear.values())
        # Optimizing the two spline knots never loses to the linear ramp.
        for tau in taus:
            assert optimized[tau] >= linear[tau] - 1e-9
        # Some constrained tau comes within 0.05 of what the linear ramp
        # needs ten times the duration to reach; the advantage is this
        # qualitative factor, not a fixed constant.
        stretched = {
            tau: vk.success_probability(vk.Schedule.linear(10.0 * tau), h_i, h_p)
            for tau in taus
        }
        assert any(optimized[t] >= stretched[t] - 0.05 for t in taus)


def test_c04_vqe_end_to_end(h2_hamiltonian, h2_exact):
    """Exact-expectation VQE lands on the dense-diagonalization ground."""
    with wall_budget(60.0):
        ref, acfg = h2_ucc_setup()

        def energy(theta):
            state = vk.prepare_state(ref, acfg, theta)
            return vk.expectation_and_variance(state, h2_hamiltonian)[0]

        x0 = np.zeros(vk.parameter_count(acfg))
        res = vk.nelder_mead(energy, x0, tol=1e-12, max_evals=2000, restarts=2)
        assert res.converged
        assert abs(res.value - h2_exact[0][0]) < 1e-6


def test_c05_estimator_statistics(twospin, state01):
    """Interval coverage and mode agreement over 500 seeded runs."""
    with wall_budget(120.0):
        eps = 0.1
        runs = 500
        plan = vk.build_groups(twospin, vk.exact_covariances(twospin, state01))
        freq_vals = np.empty(runs)
        covered = 0
        for seed in range(runs):
            rep = vk.estimate_expectation(
                lambda: state01, twospin, plan, eps,
                mode="frequentist", rng=vk.make_rng(seed),
            )
            freq_vals[seed] = rep.value
            half = 2.0 * math.sqrt(rep.variance_of_estimator)
            covered += abs(rep.value - (-1.0)) <= half
        bayes_vals = np.empty(runs)
        for seed in range(runs):
            rep = vk.estimate_expectation(
                lambda: state01, twospin, plan, eps,
                mode="bayesian", rng=vk.make_rng(10_000 + seed),
            )
            bayes_vals[seed] = rep.value
        # Two-sigma intervals should cover the true mean -1 about 95% of
        # the time; the contract leaves slack on both sides.
        assert 0.93 * runs <= covered <= 0.99 * runs
        assert abs(freq_vals.mean() - bayes_vals.mean()) <= 2.0 * eps


def group_loop_draws(sampler, coeffs, target, seed):
    """The Bayesian group loop's (n, mean, variance), with the counts of
    each joint outcome pattern among its n shots, recovered by drawing the
    same n shots again from the same seed."""
    n, mean, var = _measure_group(
        sampler, coeffs, *_group_values(sampler, coeffs), target, vk.make_rng(seed), "bayesian"
    )
    codes = sampler.draw(vk.make_rng(seed), n)
    return n, mean, var, np.bincount(codes, minlength=len(sampler.outcome_table))


def test_c06_bayesian_formulas(h2_hamiltonian):
    """Posterior moments against exact rational arithmetic: the closed-form
    Beta moments, and the moments that the group loop reports for one
    string and for a group of correlated strings."""
    with wall_budget(1.0):
        m_pairs = [(1.0, -1.0), (0.75, -0.75), (2.5, 0.5)]
        for a0, b0 in itertools.product((1, 2, 5), repeat=2):
            for n in (1, 10, 137):
                for r in (0, n // 2, n):
                    for m1, m2 in m_pairs:
                        a, b = Fraction(a0 + r), Fraction(b0 + n - r)
                        p = a / (a + b)
                        want_mean = p * Fraction(m1) + (1 - p) * Fraction(m2)
                        want_var = (
                            (Fraction(m1) - Fraction(m2)) ** 2
                            * a * b / ((a + b) ** 2 * (a + b + 1))
                        )
                        mean, var = vk.posterior_moments(a0 + r, b0 + n - r, m1, m2)
                        # The oracle is exact; tolerance only absorbs the
                        # float evaluation order on our side.
                        assert math.isclose(
                            mean, float(want_mean), rel_tol=1e-13, abs_tol=1e-15
                        )
                        assert math.isclose(var, float(want_var), rel_tol=1e-13)

        # One string on a state that is not its eigenstate (P(+1) = 0.64):
        # the flat prior's posterior is Beta(1 + r, 1 + n - r) after r of n
        # shots read +1.
        sampler = vk.GroupSampler(vk.StateVector(np.array([0.8, 0.6])), [vk.PauliString("Z")])
        for c, seed in ((0.7, 1), (-1.3, 2), (0.05, 3)):
            n, mean, var, counts = group_loop_draws(sampler, np.array([c]), 1e-3 * c * c, seed)
            r = int(counts[sampler.outcome_table[:, 0] == 1].sum())
            assert 0 < r < n
            a, b, m = Fraction(1 + r), Fraction(1 + n - r), Fraction(c)
            p = a / (a + b)
            want_mean = p * m - (1 - p) * m
            want_var = 4 * m * m * a * b / ((a + b) ** 2 * (a + b + 1))
            assert math.isclose(mean, float(want_mean), rel_tol=1e-13), c
            assert math.isclose(var, float(want_var), rel_tol=1e-13), c

        # Correlated strings, H2's auto-plan groups of 6 and 8 at theta = 0.3:
        # the symmetric Dirichlet prior of weight 2 over the joint patterns
        # gives mean S1/(n + 2) and variance
        # ((2 sum c^2 + S2)/(n + 2) - mean^2)/(n + 3), with S1 and S2 the
        # sums of the shot values q and q^2.
        h = h2_hamiltonian
        ref, acfg = h2_ucc_setup()
        state = vk.prepare_state(ref, acfg, np.full(vk.parameter_count(acfg), 0.3))
        plan = vk.build_groups(h, vk.exact_covariances(h, state))
        assert sorted(len(g) for g in plan.groups) == [6, 8]
        for seed, g in enumerate(plan.groups):
            sampler = vk.GroupSampler(state, [h.terms[i].string for i in g])
            coeffs = np.array([h.terms[i].coeff.real for i in g])
            n, mean, var, counts = group_loop_draws(sampler, coeffs, 1e-4, seed)
            assert n > 100
            # The loop reads each shot's q from this per-pattern table.
            table = [Fraction(q) for q in (sampler.outcome_table * coeffs).sum(axis=1)]
            s1 = sum(int(k) * q for k, q in zip(counts, table))
            s2 = sum(int(k) * q * q for k, q in zip(counts, table))
            prior_sq = 2 * sum(Fraction(c) ** 2 for c in coeffs)
            want_mean = s1 / (n + 2)
            want_var = ((prior_sq + s2) / (n + 2) - want_mean**2) / (n + 3)
            assert math.isclose(mean, float(want_mean), rel_tol=1e-13), g
            assert math.isclose(var, float(want_var), rel_tol=1e-13), g
        # Batch updates compose additively: TestBlockDraws in
        # tests/test_estimate.py checks that the loop's reports do not
        # depend on how its shots are split into blocks.


def test_c07_truncation_bias_variance():
    """Bias cap and kept-term count on random 20-term sums.

    The squared-error split that the bias leaves to sampling is the CLI's
    one rule; tests/test_cli.py checks it end to end."""
    with wall_budget(10.0):
        rng = np.random.default_rng(11)
        pool = ["".join(p) for p in itertools.product("IXYZ", repeat=3)][1:]
        eps = 0.5
        for c in (0.0, 0.3, 0.7):
            for draw in range(30):
                picks = rng.choice(len(pool), size=20, replace=False)
                pairs = [(float(rng.normal()), pool[int(k)]) for k in picks]
                with_identity = draw % 3 == 0
                if with_identity:
                    pairs.append((float(rng.normal()), "III"))
                h = vk.PauliSum.hermitian(pairs)
                h_meas, k_star = vk.truncate_terms(h, eps, c)
                kept = {t.string.letters for t in h_meas.terms}
                removed = [
                    t for t in h.terms
                    if t.string.letters not in kept
                    and not t.string.is_identity()
                ]
                assert len(removed) == k_star
                # Removal stops before the discarded mass reaches c*eps,
                # which caps the worst-case bias on any state.
                removed_mass = sum(abs(t.coeff) for t in removed)
                assert removed_mass <= c * eps + 1e-12
                if with_identity:
                    assert any(t.string.is_identity() for t in h_meas.terms)
                m_kept = sum(
                    1 for t in h_meas.terms if not t.string.is_identity()
                )
                assert m_kept == 20 - k_star
                for _ in range(3):
                    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
                    state = vk.StateVector(amps / np.linalg.norm(amps))
                    bias = abs(
                        vk.expectation_and_variance(state, h)[0]
                        - vk.expectation_and_variance(state, h_meas)[0]
                    )
                    assert bias <= c * eps + 1e-9


def test_c08_bound_validity():
    """Weinstein bracket and ground-overlap bound, randomized."""
    with wall_budget(30.0):
        rng = np.random.default_rng(5)
        pool = ["".join(p) for p in itertools.product("IXYZ", repeat=3)][1:]

        def random_h():
            picks = rng.choice(len(pool), size=6, replace=False)
            return vk.PauliSum.hermitian(
                [(float(rng.normal()), pool[int(k)]) for k in picks]
            )

        # mean +- sd always brackets the eigenvalue nearest the mean.
        for _ in range(1000):
            h = random_h()
            vals = np.linalg.eigvalsh(h.to_matrix())
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            state = vk.StateVector(amps / np.linalg.norm(amps))
            mean, var = vk.expectation_and_variance(state, h)
            lo, hi = vk.weinstein_interval(
                vk.BoundInputs(mean=mean, variance=var)
            )
            nearest = vals[int(np.argmin(np.abs(vals - mean)))]
            assert lo - 1e-9 <= nearest <= hi + 1e-9
        # The ground-overlap bound never exceeds the true ground weight
        # when its premise holds (sd below the gap, mean within one gap
        # of the ground energy).  States are drawn ground-dominated and
        # draws that violate the premise are discarded.
        accepted = attempts = 0
        while accepted < 1000:
            attempts += 1
            assert attempts < 100_000
            h = random_h()
            vals, vecs = np.linalg.eigh(h.to_matrix())
            gap = float(vals[1] - vals[0])
            if gap < 1e-6:
                continue
            w0 = rng.uniform(0.55, 0.995)
            w_hi = (1.0 - w0) * rng.uniform(0.0, 0.3)
            weights = np.zeros(8)
            weights[0], weights[1] = w0, 1.0 - w0 - w_hi
            weights[int(rng.integers(2, 8))] += w_hi
            phases = np.exp(2j * np.pi * rng.random(8))
            state = vk.StateVector((vecs * (phases * np.sqrt(weights))).sum(axis=1))
            mean, var = vk.expectation_and_variance(state, h)
            if math.sqrt(max(var, 0.0)) >= gap or mean - vals[0] >= gap:
                continue
            accepted += 1
            bound = vk.overlap_bound(
                vk.BoundInputs(mean=mean, variance=var, gap=gap), "ground"
            )
            assert bound <= w0 + 1e-9
        # Arithmetic anchors: Var 0.36 with gap 2 certifies overlap 0.7,
        # and the same moments give the [-3.4, -2.2] bracket.
        anchor = vk.overlap_bound(
            vk.BoundInputs(mean=-2.8, variance=0.36, gap=2.0), "ground"
        )
        assert abs(anchor - 0.7) < 1e-12
        lo, hi = vk.weinstein_interval(vk.BoundInputs(mean=-2.8, variance=0.36))
        assert abs(lo + 3.4) < 1e-12
        assert abs(hi + 2.2) < 1e-12


def test_c09_commutator_identities():
    """Ladder-operator commutator identities, exhaustive at M = 4."""
    with wall_budget(30.0):
        M = 4
        # One-body with one-body: two delta terms, all 256 assignments.
        for i, j, p, q in itertools.product(range(M), repeat=4):
            lhs = commutator(
                T(M, 1.0, [(i, True), (j, False)]),
                T(M, 1.0, [(p, True), (q, False)]),
            )
            rhs = FermionOperator.zero(M)
            if p == j:
                rhs = rhs + T(M, 1.0, [(i, True), (q, False)])
            if i == q:
                rhs = rhs - T(M, 1.0, [(p, True), (j, False)])
            assert lhs.equals(rhs), (i, j, p, q)
        # One-body with two-body: four delta terms, all 4096.
        for i, j, p, q, r, s in itertools.product(range(M), repeat=6):
            lhs = commutator(
                T(M, 1.0, [(i, True), (j, False)]),
                T(M, 1.0, [(p, True), (q, True), (r, False), (s, False)]),
            )
            rhs = FermionOperator.zero(M)
            if p == j:
                rhs = rhs + T(M, 1.0, [(i, True), (q, True), (r, False), (s, False)])
            if j == q:
                rhs = rhs - T(M, 1.0, [(i, True), (p, True), (r, False), (s, False)])
            if s == i:
                rhs = rhs - T(M, 1.0, [(p, True), (q, True), (r, False), (j, False)])
            if r == i:
                rhs = rhs + T(M, 1.0, [(p, True), (q, True), (s, False), (j, False)])
            assert lhs.equals(rhs), (i, j, p, q, r, s)
        # Two-body with two-body: the eight-term form, all 65536.
        for idx in itertools.product(range(M), repeat=8):
            i, j, k, l, p, q, r, s = idx
            lhs = commutator(
                T(M, 1.0, [(i, True), (j, True), (k, False), (l, False)]),
                T(M, 1.0, [(p, True), (q, True), (r, False), (s, False)]),
            )
            assert lhs.equals(two_body_commutator_reference(M, *idx)), idx
        # Matrix oracle on random assignments of all three shapes.
        rng = np.random.default_rng(17)
        for _ in range(15):
            i, j, k, l, p, q, r, s = (int(v) for v in rng.integers(0, M, size=8))
            for a_ops, b_ops in (
                ([(i, True), (j, False)], [(p, True), (q, False)]),
                ([(i, True), (j, False)],
                 [(p, True), (q, True), (r, False), (s, False)]),
                ([(i, True), (j, True), (k, False), (l, False)],
                 [(p, True), (q, True), (r, False), (s, False)]),
            ):
                a, b = T(M, 1.0, a_ops), T(M, 1.0, b_ops)
                got = dense_of(commutator(a, b))
                want = dense_of(a) @ dense_of(b) - dense_of(b) @ dense_of(a)
                np.testing.assert_allclose(got, want, atol=1e-10)


def test_c10_universality_hook():
    """A relaxed single-slice order-2 spin step hits arbitrary SU(4)."""
    with wall_budget(5.0):
        gens = vk.spin_cluster_generators(2, 2)
        assert len(gens) == 15
        mats = np.array([g.to_matrix() for g in gens.generators])
        ref = vk.ReferenceState(n_qubits=2, basis_index=0)
        acfg = vk.AnsatzConfig(generator_set=gens, trotter_slices=1, relaxed=True)
        ref_vec = ref.to_state().amplitudes
        rng = np.random.default_rng(23)
        for _ in range(5):
            u = unitary_group.rvs(4, random_state=rng)
            u = u / np.linalg.det(u) ** 0.25
            a = logm(u)
            # Drop the residual global phase so the log is traceless.
            a = a - (np.trace(a) / 4.0) * np.eye(4)
            # The order-2 set spans su(4), so the log expands exactly in
            # the generator basis (orthogonal under the trace product).
            theta = np.array(
                [float(np.trace(m.conj().T @ a).real) / 4.0 for m in mats]
            )
            recon = np.tensordot(theta, mats, axes=1)
            assert np.max(np.abs(recon - a)) < 1e-10
            prepared = vk.prepare_state(ref, acfg, theta)
            target = vk.StateVector(u @ ref_vec)
            assert 1.0 - prepared.fidelity(target) < 1e-8


def test_c11_optimizer_study(tmp_path, h2_hamiltonian, h2_exact):
    """Noisy-optimizer tables; exact-mode accuracy at zero noise."""
    with wall_budget(600.0):
        ref, acfg = h2_ucc_setup()
        d = vk.parameter_count(acfg)
        exact_ground = float(h2_exact[0][0])

        def energy(theta):
            state = vk.prepare_state(ref, acfg, theta)
            return vk.expectation_and_variance(state, h2_hamiltonian)[0]

        def make_problem():
            return energy, np.zeros(d), exact_ground

        bounds = [(-0.5, 0.5)] * d
        optimizers = {
            "nelder_mead": lambda fn, x0, rng: vk.nelder_mead(
                fn, x0, tol=1e-10, max_evals=600, restarts=1
            ),
            "multistart": lambda fn, x0, rng: vk.multistart(
                fn, bounds, n_starts=4, rng=rng, tol=1e-10, max_evals=150
            ),
        }
        eps_grid = [0.0, 1e-4, 1e-3, 1e-2, 1e-1]
        rows = vk.noisy_benchmark(
            make_problem, eps_grid, reps=20, optimizers=optimizers, seed=2
        )
        assert len(rows) == len(eps_grid) * 20 * len(optimizers)
        summary = vk.summarize_benchmark(rows)
        by_key = {(s["optimizer"], s["epsilon"]): s for s in summary}
        assert set(by_key) == {
            (name, eps) for name in optimizers for eps in eps_grid
        }
        assert all(s["reps"] == 20 for s in summary)
        # Noiseless simplex descent reaches the exact ground energy.
        assert by_key[("nelder_mead", 0.0)]["mean_error"] <= 1e-6
        study_path = tmp_path / "study.csv"
        summary_path = tmp_path / "summary.csv"
        vk.write_study_csv(rows, str(study_path))
        vk.write_summary_csv(summary, str(summary_path))
        study_lines = study_path.read_text().splitlines()
        assert study_lines[0] == "optimizer,epsilon,rep,final_error,evals,seed"
        assert len(study_lines) == len(rows) + 1
        summary_lines = summary_path.read_text().splitlines()
        assert summary_lines[0] == (
            "optimizer,epsilon,mean_error,std_error,mean_evals,reps"
        )
        # The multistart ratios are informational only: recorded for
        # inspection, with no pass/fail threshold attached.
        for eps in eps_grid:
            nm = by_key[("nelder_mead", eps)]
            ms = by_key[("multistart", eps)]
            print(
                f"eps={eps:g}: multistart/simplex error ratio "
                f"{ms['mean_error'] / max(nm['mean_error'], 1e-300):.3g}, "
                f"evals ratio {ms['mean_evals'] / nm['mean_evals']:.3g}"
            )
