"""State vectors, Pauli application, sampling, and the time integrator."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from vqekit import (
    GroupSampler,
    PauliString,
    PauliSum,
    StateVector,
    apply_pauli_exponential,
    apply_pauli_string,
    commutes,
    evolve_schedule,
    exact_eigensystem,
    expectation_and_variance,
    ground_state,
    make_rng,
    multiply,
    sample_group,
)
from vqekit.errors import (
    CapacityError,
    DimensionError,
    NonCommutingGroupError,
    ValidationError,
)

LETTERS = "IXYZ"


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(amps / np.linalg.norm(amps))


def random_string(rng, n):
    return PauliString("".join(rng.choice(list(LETTERS), size=n)))


class _FnSchedule:
    """Minimal g(t) stand-in so integrator tests need no schedule machinery."""

    def __init__(self, fn):
        self._fn = fn

    def evaluate(self, t):
        return self._fn(np.asarray(t, dtype=float))


class TestStateVector:
    def test_label_maps_to_basis_index(self):
        s = StateVector.from_label("01")
        np.testing.assert_allclose(s.amplitudes, [0, 1, 0, 0])
        assert s.n_qubits == 2

    def test_basis_range(self):
        with pytest.raises(ValidationError):
            StateVector.basis(2, 4)

    def test_rejects_bad_sizes_and_norms(self):
        with pytest.raises(ValidationError):
            StateVector(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValidationError):
            StateVector(np.array([1.0]))
        with pytest.raises(ValidationError):
            StateVector(np.array([0.9, 0.0]))

    def test_bad_labels(self):
        for label in ("", "02", "1x"):
            with pytest.raises(ValidationError):
                StateVector.from_label(label)

    def test_overlap_and_fidelity(self):
        rng = np.random.default_rng(0)
        a, b = random_state(rng, 3), random_state(rng, 3)
        assert a.overlap(b) == pytest.approx(np.vdot(a.amplitudes, b.amplitudes))
        assert a.fidelity(a) == pytest.approx(1.0)
        with pytest.raises(DimensionError):
            a.overlap(random_state(rng, 2))

    def test_copy_is_independent(self):
        a = StateVector.from_label("0")
        b = a.copy()
        b.amplitudes[0] = 0.0
        assert a.amplitudes[0] == 1.0


class TestApplyString:
    def test_x_flips(self):
        out = apply_pauli_string(StateVector.from_label("0"), PauliString("X"))
        np.testing.assert_allclose(out.amplitudes, [0, 1])

    def test_y_phase(self):
        out = apply_pauli_string(StateVector.from_label("0"), PauliString("Y"))
        np.testing.assert_allclose(out.amplitudes, [0, 1j])

    def test_matches_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            s = random_string(rng, n)
            state = random_state(rng, n)
            np.testing.assert_allclose(
                apply_pauli_string(state, s).amplitudes,
                s.to_matrix() @ state.amplitudes,
                atol=1e-12,
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_pauli_string(StateVector.from_label("00"), PauliString("X"))


class TestApplyExponential:
    def test_matches_expm(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            s = random_string(rng, n)
            theta = float(rng.normal())
            state = random_state(rng, n)
            want = expm(1j * theta * s.to_matrix()) @ state.amplitudes
            got = apply_pauli_exponential(state, s, theta).amplitudes
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_preserves_norm(self):
        out = apply_pauli_exponential(
            StateVector.from_label("010"), PauliString("XYZ"), 0.7
        )
        assert out.norm() == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_pauli_exponential(StateVector.from_label("0"), PauliString("XX"), 0.1)


class TestExpectation:
    def test_two_spin_anchor(self, twospin, state01):
        mean, var = expectation_and_variance(state01, twospin)
        assert mean == pytest.approx(-1.0, abs=1e-12)
        assert var == pytest.approx(4.0, abs=1e-12)

    def test_matches_dense(self, twospin):
        rng = np.random.default_rng(13)
        m = twospin.to_matrix()
        for _ in range(20):
            state = random_state(rng, 2)
            v = state.amplitudes
            want_mean = float(np.real(np.vdot(v, m @ v)))
            want_var = float(np.real(np.vdot(v, m @ m @ v))) - want_mean**2
            mean, var = expectation_and_variance(state, twospin)
            assert mean == pytest.approx(want_mean, abs=1e-10)
            assert var == pytest.approx(want_var, abs=1e-9)

    def test_eigenstate_has_zero_variance(self, twospin):
        _, vecs = exact_eigensystem(twospin)
        for k in range(4):
            _, var = expectation_and_variance(StateVector(vecs[:, k]), twospin)
            assert var == pytest.approx(0.0, abs=1e-10)

    def test_near_eigenstate_variance_keeps_its_digits(self):
        # cos(d) v0 + sin(d) v1 over eigenvectors has variance
        # (E1 - E0)^2 cos^2(d) sin^2(d) exactly.  A large identity offset
        # puts <H^2> near 1e6, so <H^2> - <H>^2 is lost to rounding there.
        h = PauliSum.hermitian(
            [(1000.0, "II"), (0.7, "ZI"), (-0.4, "XX"), (0.3, "YZ"), (0.2, "IX")]
        )
        vals, vecs = exact_eigensystem(h)
        m = h.to_matrix()
        for d in (1e-4, 1e-6, 1e-7):
            v = np.cos(d) * vecs[:, 0] + np.sin(d) * vecs[:, 1]
            want = ((vals[1] - vals[0]) * np.cos(d) * np.sin(d)) ** 2
            mean, var = expectation_and_variance(StateVector(v), h)
            # Rounding in H psi (about 1e3 * 1e-16) against a residual of
            # norm 0.5 d: relative error near 1e-6 at d = 1e-7.
            assert var == pytest.approx(want, rel=1e-4, abs=0.0)
            mv = m @ v
            subtracted = float(np.real(np.vdot(mv, mv))) - mean * mean
            if d <= 1e-6:
                assert abs(subtracted - want) > 0.1 * want

    def test_rejects_non_hermitian(self):
        h = PauliSum.from_terms([(1j, "X")])
        with pytest.raises(ValidationError):
            expectation_and_variance(StateVector.from_label("0"), h)

    def test_dimension_mismatch(self, twospin):
        with pytest.raises(DimensionError):
            expectation_and_variance(StateVector.from_label("0"), twospin)


class TestEigensystem:
    def test_two_spin_spectrum(self, twospin):
        vals, vecs = exact_eigensystem(twospin)
        np.testing.assert_allclose(vals, [-3.0, -1.0, 1.0, 3.0], atol=1e-12)
        m = twospin.to_matrix()
        np.testing.assert_allclose(m @ vecs, vecs * vals, atol=1e-10)

    def test_ground_state(self, twospin):
        energy, state = ground_state(twospin)
        assert energy == pytest.approx(-3.0, abs=1e-12)
        mean, var = expectation_and_variance(state, twospin)
        assert mean == pytest.approx(-3.0, abs=1e-10)
        assert var == pytest.approx(0.0, abs=1e-10)

    def test_capacity_guard(self):
        h = PauliSum.hermitian([(1.0, "ZZZ")])
        with pytest.raises(CapacityError):
            exact_eigensystem(h, max_qubits=2)


class TestSampleGroup:
    def test_deterministic_z(self):
        rng = np.random.default_rng(1)
        rec = sample_group(StateVector.from_label("0"), [PauliString("Z")], rng)
        assert rec.outcomes == (1,)
        np.testing.assert_allclose(rec.post_state.amplitudes, [1, 0], atol=1e-12)

    def test_collapse_and_remeasure(self):
        rng = np.random.default_rng(2)
        plus = StateVector(np.array([1, 1]) / np.sqrt(2))
        for _ in range(20):
            rec = sample_group(plus, [PauliString("Z")], rng)
            assert rec.post_state.norm() == pytest.approx(1.0)
            again = sample_group(rec.post_state, [PauliString("Z")], rng)
            assert again.outcomes == rec.outcomes

    def test_bell_pair_correlations(self):
        rng = np.random.default_rng(3)
        bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        group = [PauliString("ZI"), PauliString("IZ")]
        for _ in range(50):
            rec = sample_group(bell, group, rng)
            assert rec.outcomes[0] == rec.outcomes[1]

    def test_outcome_frequencies(self):
        # P(+1) for Z on cos(a)|0> + sin(a)|1> is cos^2(a); 4 sigma band.
        a = 0.3
        state = StateVector(np.array([np.cos(a), np.sin(a)]))
        rng = np.random.default_rng(4)
        n = 3000
        hits = sum(
            sample_group(state, [PauliString("Z")], rng).outcomes[0] == 1
            for _ in range(n)
        )
        p = np.cos(a) ** 2
        assert abs(hits / n - p) < 4 * np.sqrt(p * (1 - p) / n)

    def test_unbiased_x_on_zero(self):
        rng = np.random.default_rng(5)
        n = 4000
        total = sum(
            sample_group(StateVector.from_label("0"), [PauliString("X")], rng).outcomes[0]
            for _ in range(n)
        )
        assert abs(total / n) < 4 / np.sqrt(n)

    def test_one_variate_per_string(self):
        # Deterministic outcomes must still advance the stream.
        r1 = np.random.default_rng(7)
        sample_group(StateVector.from_label("0"), [PauliString("Z")], r1)
        r2 = np.random.default_rng(7)
        r2.random()
        assert r1.random() == r2.random()

    def test_seeded_reproducibility(self):
        plus = StateVector(np.array([1, 1]) / np.sqrt(2))
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            runs.append(
                tuple(
                    sample_group(plus, [PauliString("X"), PauliString("I")], rng).outcomes
                    for _ in range(10)
                )
            )
        assert runs[0] == runs[1]

    def test_rejects_noncommuting(self):
        assert not commutes(PauliString("X"), PauliString("Z"))
        with pytest.raises(NonCommutingGroupError):
            sample_group(
                StateVector.from_label("0"),
                [PauliString("X"), PauliString("Z")],
                np.random.default_rng(0),
            )

    def test_rejects_empty_group(self):
        with pytest.raises(ValidationError):
            sample_group(StateVector.from_label("0"), [], np.random.default_rng(0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            sample_group(
                StateVector.from_label("00"), [PauliString("X")], np.random.default_rng(0)
            )


def oracle_sample_group(state, strings, rng):
    """One sequential measurement per call: the per-shot loop GroupSampler
    replaced, kept verbatim as the reference (P|psi> via the public
    PauliString.action table)."""
    strings = tuple(strings)
    if not strings:
        raise ValidationError("empty measurement group")
    for s in strings:
        if s.n_qubits != state.n_qubits:
            raise DimensionError("group string and state qubit counts differ")
    for i in range(len(strings)):
        for j in range(i + 1, len(strings)):
            if not commutes(strings[i], strings[j]):
                raise NonCommutingGroupError(
                    f"{strings[i].letters} and {strings[j].letters} do not commute"
                )
    amps = state.amplitudes.copy()
    outcomes = []
    for s in strings:
        src, phases = s.action()
        applied = amps[src] * phases
        p_plus = 0.5 * (1.0 + float(np.real(np.vdot(amps, applied))))
        p_plus = min(1.0, max(0.0, p_plus))
        u = rng.random()
        o = 1 if u < p_plus else -1
        outcomes.append(o)
        amps = 0.5 * (amps + o * applied)
        p_o = p_plus if o == 1 else 1.0 - p_plus
        amps /= np.sqrt(max(p_o, 1e-300))
    return tuple(outcomes), amps


def same_rng_state(a, b) -> bool:
    """Bit-generator states compare equal (Philox keeps numpy arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_rng_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


@st.composite
def commuting_groups(draw):
    """(state, group) with 1-4 commuting strings on up to 4 qubits.

    Products of members and the identity are drawn too, so outcomes that
    earlier ones fix (p_plus at or next to 0 or 1) are exercised; basis
    states make such outcomes exactly deterministic.
    """
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    group = []
    for letters in draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=8)):
        s = PauliString(letters)
        if len(group) < k and all(commutes(s, t) for t in group):
            group.append(s)
        if len(group) >= 2 and len(group) < k and draw(st.booleans()):
            group.append(multiply(group[0], group[-1])[1])
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    if draw(st.booleans()):
        state = StateVector.basis(n, int(gen.integers(1 << n)))
    else:
        state = random_state(gen, n)
    return state, group


class TestGroupSampler:
    @settings(max_examples=80, deadline=None)
    @given(
        commuting_groups(),
        st.lists(st.integers(0, 40), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_draw_matches_per_shot_loop(self, case, batches, seed, philox):
        state, group = case
        make = make_rng if philox else np.random.default_rng
        r_loop, r_draw = make(seed), make(seed)
        sampler = GroupSampler(state, group)
        for shots in batches:
            want = [oracle_sample_group(state, group, r_loop) for _ in range(shots)]
            leaves = sampler.draw(r_draw, shots)
            assert leaves.shape == (shots,)
            assert [sampler.outcomes(leaf) for leaf in leaves] == [o for o, _ in want]
            assert same_rng_state(r_loop.bit_generator.state, r_draw.bit_generator.state)
            for leaf, (_, amps) in zip(leaves[:5], want):
                assert np.array_equal(sampler.post_state(leaf).amplitudes, amps)

    @settings(max_examples=40, deadline=None)
    @given(commuting_groups(), st.integers(0, 2**32 - 1))
    def test_sample_group_is_one_draw(self, case, seed):
        state, group = case
        r_loop, r_one = make_rng(seed), make_rng(seed)
        for _ in range(3):
            outcomes, amps = oracle_sample_group(state, group, r_loop)
            rec = sample_group(state, group, r_one)
            assert rec.outcomes == outcomes
            assert np.array_equal(rec.post_state.amplitudes, amps)
        assert same_rng_state(r_loop.bit_generator.state, r_one.bit_generator.state)

    @settings(max_examples=40, deadline=None)
    @given(commuting_groups(), st.data())
    def test_non_commuting_group_rejected_at_construction(self, case, data):
        state, group = case
        acting = [(s, q) for s in group for q, c in enumerate(s.letters) if c != "I"]
        assume(acting)
        s, q = data.draw(st.sampled_from(acting))
        other = data.draw(st.sampled_from([c for c in "XYZ" if c != s.letters[q]]))
        # One other letter on a qubit where s acts: anticommutes with s.
        t = PauliString("I" * q + other + "I" * (s.n_qubits - q - 1))
        with pytest.raises(NonCommutingGroupError):
            GroupSampler(state, [*group, t])
        with pytest.raises(NonCommutingGroupError):
            oracle_sample_group(state, [*group, t], make_rng(0))

    def test_deterministic_strings_consume_variates(self):
        # Z twice on |0>: both outcomes are +1 with probability exactly 1.
        r1, r2 = make_rng(3), make_rng(3)
        sampler = GroupSampler(StateVector.from_label("0"), [PauliString("Z")] * 2)
        leaves = sampler.draw(r1, 5)
        assert [sampler.outcomes(leaf) for leaf in leaves] == [(1, 1)] * 5
        r2.random(10)
        assert same_rng_state(r1.bit_generator.state, r2.bit_generator.state)

    def test_cache_reused_across_draws(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        sampler = GroupSampler(bell, [PauliString("ZI"), PauliString("IZ")])
        first = set(sampler.draw(make_rng(1), 50).tolist())
        again = set(sampler.draw(make_rng(2), 50).tolist())
        assert first == again and len(first) == 2
        assert {sampler.outcomes(leaf) for leaf in first} == {(1, 1), (-1, -1)}

    def test_zero_shots_draw_nothing(self):
        rng = make_rng(4)
        before = rng.bit_generator.state
        sampler = GroupSampler(StateVector.from_label("0"), [PauliString("X")])
        assert sampler.draw(rng, 0).shape == (0,)
        assert same_rng_state(before, rng.bit_generator.state)
        with pytest.raises(ValidationError):
            sampler.draw(rng, -1)

    def test_construction_validates(self):
        with pytest.raises(ValidationError):
            GroupSampler(StateVector.from_label("0"), [])
        with pytest.raises(DimensionError):
            GroupSampler(StateVector.from_label("00"), [PauliString("X")])

    def test_later_state_changes_do_not_leak_in(self):
        state = StateVector(np.array([1, 1]) / np.sqrt(2))
        sampler = GroupSampler(state, [PauliString("Z")])
        state.amplitudes[:] = [1.0, 0.0]
        outcomes = {sampler.outcomes(leaf) for leaf in sampler.draw(make_rng(5), 200)}
        assert outcomes == {(1,), (-1,)}


def two_qubit_pair():
    h_i = PauliSum.hermitian([(0.4, "XI"), (0.3, "ZZ"), (-0.2, "IY")])
    h_p = PauliSum.hermitian([(0.7, "ZI"), (0.1, "XX")])
    return h_i, h_p


class TestEvolveSchedule:
    def test_constant_hamiltonian_is_exact(self):
        # g fixed at 0 or 1 makes every midpoint slice the full propagator.
        h_i, h_p = two_qubit_pair()
        rng = np.random.default_rng(20)
        s0 = random_state(rng, 2)
        tau = 1.7
        for g_val, h in ((0.0, h_i), (1.0, h_p)):
            sched = _FnSchedule(lambda t, v=g_val: np.full_like(t, v))
            out = evolve_schedule(s0, sched, h_i, h_p, tau, steps=3)
            want = expm(-1j * tau * h.to_matrix()) @ s0.amplitudes
            np.testing.assert_allclose(out.amplitudes, want, atol=1e-10)

    def test_midpoint_blend(self):
        # Constant g = 0.25 evolves under the fixed blend of the two terms.
        h_i, h_p = two_qubit_pair()
        s0 = StateVector.from_label("00")
        sched = _FnSchedule(lambda t: np.full_like(t, 0.25))
        out = evolve_schedule(s0, sched, h_i, h_p, 2.0, steps=2)
        m = 0.75 * h_i.to_matrix() + 0.25 * h_p.to_matrix()
        want = expm(-2j * m) @ s0.amplitudes
        np.testing.assert_allclose(out.amplitudes, want, atol=1e-10)

    def test_second_order_convergence(self):
        h_i, h_p = two_qubit_pair()
        s0 = StateVector.from_label("00")
        sched = _FnSchedule(lambda t: t / 3.0)
        ref = evolve_schedule(s0, sched, h_i, h_p, 3.0, steps=4096).amplitudes
        errs = [
            np.linalg.norm(
                evolve_schedule(s0, sched, h_i, h_p, 3.0, steps=k).amplitudes - ref
            )
            for k in (16, 32, 64)
        ]
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.0 < coarse / fine < 5.0

    def test_callback_sequence(self):
        h_i, h_p = two_qubit_pair()
        s0 = StateVector.from_label("00")
        seen = []
        out = evolve_schedule(
            s0,
            _FnSchedule(lambda t: t / 1.0),
            h_i,
            h_p,
            1.0,
            steps=5,
            callback=lambda t, st: seen.append((t, st)),
        )
        assert [t for t, _ in seen] == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])
        np.testing.assert_allclose(seen[-1][1].amplitudes, out.amplitudes, atol=1e-12)
        for _, st in seen:
            assert st.norm() == pytest.approx(1.0)

    def test_unitarity_over_long_runs(self):
        h_i, h_p = two_qubit_pair()
        s0 = StateVector.from_label("01")
        out = evolve_schedule(
            s0, _FnSchedule(lambda t: t / 50.0), h_i, h_p, 50.0, steps=2000
        )
        assert out.norm() == pytest.approx(1.0, abs=1e-10)

    def test_error_paths(self):
        h_i, h_p = two_qubit_pair()
        s0 = StateVector.from_label("00")
        sched = _FnSchedule(lambda t: np.zeros_like(t))
        for tau in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="tau must be finite and positive"):
                evolve_schedule(s0, sched, h_i, h_p, tau, steps=4)
        with pytest.raises(ValidationError):
            evolve_schedule(s0, sched, h_i, h_p, 1.0, steps=0)
        with pytest.raises(DimensionError):
            evolve_schedule(StateVector.from_label("0"), sched, h_i, h_p, 1.0, steps=4)
        bad = PauliSum.from_terms([(1j, "XI")])
        with pytest.raises(ValidationError):
            evolve_schedule(s0, sched, h_i, bad, 1.0, steps=4)
