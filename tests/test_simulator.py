"""State vectors, Pauli application, sampling, and the time integrator."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import reference_action, wall_budget
from test_fermion import random_integrals

from vqekit import (
    AnsatzConfig,
    GroupSampler,
    PauliString,
    PauliSum,
    ReferenceState,
    Schedule,
    StateVector,
    apply_pauli_exponential,
    apply_pauli_string,
    build_groups,
    build_hamiltonian,
    commutes,
    estimate_expectation,
    evolve_schedule,
    exact_eigensystem,
    expectation_and_variance,
    fermionic_ucc_generators,
    ground_state,
    jordan_wigner,
    make_rng,
    multiply,
    parameter_count,
    prepare_state,
)
from vqekit import pauli, simulator
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

    def test_rejects_nan_amplitudes(self):
        # A NaN amplitude gives norm NaN, which compares false with any tolerance.
        for size in (2, 4):
            for k in range(size):
                for part in (1.0, 1j):
                    amps = np.zeros(size, dtype=complex)
                    amps[(k + 1) % size] = 1.0
                    amps[k] += np.nan * part
                    with pytest.raises(ValidationError, match="^state norm nan is not 1$"):
                        StateVector(amps)

    def test_amplitudes_are_always_copied(self):
        for amps in (np.array([1.0, 0.0]), np.array([1.0, 0.0], dtype=complex)):
            s = StateVector(amps)
            amps[:] = 0.0
            assert s.amplitudes.tolist() == [1.0, 0.0]
            assert s.amplitudes.dtype == complex

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
        for fn in (expectation_and_variance, simulator._expectation):
            with pytest.raises(ValidationError):
                fn(StateVector.from_label("0"), h)

    def test_dimension_mismatch(self, twospin):
        for fn in (expectation_and_variance, simulator._expectation):
            with pytest.raises(DimensionError):
                fn(StateVector.from_label("0"), twospin)

    def test_mean_only_is_the_same_mean(self, h2_hamiltonian):
        # Exact objectives skip the variance; their values must not move.
        rng = np.random.default_rng(31)
        for h in (h2_hamiltonian, PauliSum.hermitian([(0.3, "XZY"), (-1.1, "ZZI")])):
            for _ in range(10):
                state = random_state(rng, h.n_qubits)
                mean = simulator._expectation(state, h)
                assert mean == expectation_and_variance(state, h)[0]


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
        h = PauliSum.hermitian([(1.0, "Z" * 13)])
        with pytest.raises(CapacityError):
            exact_eigensystem(h)
        assert h._compiled is None  # refused before is_hermitian() compiles it


def measure(state, strings, rng, shots=1):
    """Outcome tuples of `shots` measurements of a group, from one draw."""
    sampler = GroupSampler(state, strings)
    return [sampler.outcomes(code) for code in sampler.draw(rng, shots)]


class TestSampleGroup:
    """Outcome statistics of group measurements, through GroupSampler."""

    def test_deterministic_z(self):
        rng = np.random.default_rng(1)
        assert measure(StateVector.from_label("0"), [PauliString("Z")], rng) == [(1,)]

    def test_collapse_and_remeasure(self):
        # Measuring Z twice in one group repeats the first outcome.
        rng = np.random.default_rng(2)
        plus = StateVector(np.array([1, 1]) / np.sqrt(2))
        outcomes = measure(plus, [PauliString("Z")] * 2, rng, shots=20)
        assert set(outcomes) == {(1, 1), (-1, -1)}

    def test_bell_pair_correlations(self):
        rng = np.random.default_rng(3)
        bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        group = [PauliString("ZI"), PauliString("IZ")]
        for o in measure(bell, group, rng, shots=50):
            assert o[0] == o[1]

    def test_outcome_frequencies(self):
        # P(+1) for Z on cos(a)|0> + sin(a)|1> is cos^2(a); 4 sigma band.
        a = 0.3
        state = StateVector(np.array([np.cos(a), np.sin(a)]))
        rng = np.random.default_rng(4)
        n = 3000
        hits = sum(o[0] == 1 for o in measure(state, [PauliString("Z")], rng, shots=n))
        p = np.cos(a) ** 2
        assert abs(hits / n - p) < 4 * np.sqrt(p * (1 - p) / n)

    def test_unbiased_x_on_zero(self):
        rng = np.random.default_rng(5)
        n = 4000
        total = sum(
            o[0] for o in measure(StateVector.from_label("0"), [PauliString("X")], rng, shots=n)
        )
        assert abs(total / n) < 4 / np.sqrt(n)

    def test_one_variate_per_string(self):
        # Deterministic outcomes must still advance the stream.
        r1 = np.random.default_rng(7)
        measure(StateVector.from_label("0"), [PauliString("Z")], r1)
        r2 = np.random.default_rng(7)
        r2.random()
        assert r1.random() == r2.random()

    def test_seeded_reproducibility(self):
        plus = StateVector(np.array([1, 1]) / np.sqrt(2))
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            runs.append(measure(plus, [PauliString("X"), PauliString("I")], rng, shots=10))
        assert runs[0] == runs[1]

    def test_rejects_noncommuting(self):
        assert not commutes(PauliString("X"), PauliString("Z"))
        with pytest.raises(NonCommutingGroupError):
            GroupSampler(StateVector.from_label("0"), [PauliString("X"), PauliString("Z")])

    def test_rejects_empty_group(self):
        with pytest.raises(ValidationError):
            GroupSampler(StateVector.from_label("0"), [])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            GroupSampler(StateVector.from_label("00"), [PauliString("X")])


def oracle_sample_group(state, strings, rng):
    """One sequential measurement per call: the per-shot loop GroupSampler
    replaced, kept as the reference (P|psi> via the reference action table,
    not the X-mask kernel)."""
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
        src, phases = reference_action(s)
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


def _born(amps, s):
    """P|psi> and the Born probability of outcome +1 for P on |psi>."""
    src, phases = reference_action(s)
    applied = amps[src] * phases
    p_plus = 0.5 * (1.0 + float(np.real(np.vdot(amps, applied))))
    return applied, min(1.0, max(0.0, p_plus))


def _collapse(amps, applied, o, p_plus):
    """Normalized projection (1 + o P)|psi> / 2 after outcome o."""
    out = 0.5 * (amps + o * applied)
    p_o = p_plus if o == 1 else 1.0 - p_plus
    out /= np.sqrt(max(p_o, 1e-300))
    return out


class TreeSampler:
    """The prefix-tree sampler that GroupSampler replaced, kept verbatim as
    the reference: one collapsed vector per newly reached outcome prefix,
    and leaf codes that count prefixes in the order draws first reach them.
    """

    def __init__(self, state, strings):
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
        self.n_qubits = state.n_qubits
        self.strings = strings
        self._root = state.amplitudes.copy()
        # Node 0 is the empty prefix.  Per node: its outcomes so far, the
        # Born probability of +1 for the next string (NaN until measured)
        # and its two children (after outcomes +1 and -1).
        self._prefix = [()]
        self._amps = {0: self._root}
        self._p_plus = np.full(8, np.nan)
        self._child = np.full((8, 2), -1, dtype=np.intp)

    def _measure(self, node, level):
        amps = self._amps.pop(node)
        applied, p_plus = _born(amps, self.strings[level])
        if len(self._prefix) + 2 > self._p_plus.size:
            grow = self._p_plus.size
            self._p_plus = np.concatenate([self._p_plus, np.full(grow, np.nan)])
            self._child = np.concatenate([self._child, np.full((grow, 2), -1, np.intp)])
        self._p_plus[node] = p_plus
        inner = level + 1 < len(self.strings)
        for bit, o in enumerate((1, -1)):
            child = len(self._prefix)
            self._prefix.append(self._prefix[node] + (o,))
            self._child[node, bit] = child
            # An outcome of probability exactly zero can never be drawn.
            if inner and (p_plus if o == 1 else 1.0 - p_plus) > 0.0:
                self._amps[child] = _collapse(amps, applied, o, p_plus)

    def draw(self, rng, shots):
        """Leaf codes of `shots` independent measurements, in shot order."""
        if shots < 0:
            raise ValidationError("shots must be non-negative")
        k = len(self.strings)
        u = rng.random(shots * k).reshape(shots, k)
        node = np.zeros(shots, dtype=np.intp)
        for level in range(k):
            p_plus = self._p_plus[node]
            new = np.isnan(p_plus)
            if new.any():
                for n in np.unique(node[new]).tolist():
                    self._measure(n, level)
                p_plus = self._p_plus[node]
            # The per-shot rule is "+1 if u < p_plus", so bit 1 means -1.
            node = self._child[node, (u[:, level] >= p_plus).astype(np.intp)]
        return node

    def outcomes(self, leaf):
        """The +1/-1 outcome of each string on the path to a leaf code."""
        return self._prefix[leaf]


def gray_code_probabilities(state, gens):
    """The pattern probabilities of commuting generators as GroupSampler
    computed them before its Clifford form, kept verbatim as the reference:
    the 2^r expectations of generator products in Gray-code order, one
    string apply each, and one Walsh-Hadamard transform divided by 2^r."""
    psi = state.amplitudes
    mean = np.empty(1 << len(gens))
    mean[0] = 1.0
    phi, subset = psi, 0
    for i in range(1, mean.size):
        bit = (i & -i).bit_length() - 1
        subset ^= 1 << bit
        src, phases = reference_action(gens[bit])
        phi = phi[src] * phases
        mean[subset] = np.vdot(psi, phi).real
    a, h = mean, 1
    while h < a.size:
        a = np.array([[1.0, 1.0], [1.0, -1.0]]) @ a.reshape(-1, 2, h)
        h *= 2
    # Rounding can leave an impossible pattern at -1e-17.
    return np.maximum(a.ravel() / mean.size, 0.0)


def seeded_ucc_set(m):
    """The seeded m-mode set: its Hamiltonian, an order-2 UCC state on the
    lower half of the modes, and a `build_groups` plan."""
    occ, virt = range(m // 2), range(m // 2, m)
    h = jordan_wigner(build_hamiltonian(random_integrals(np.random.default_rng(7000 + m), m)))
    cfg = AnsatzConfig(generator_set=fermionic_ucc_generators(m, occ, virt, 2))
    theta = np.random.default_rng(7000 + m).normal(0.0, 0.1, parameter_count(cfg))
    state = prepare_state(ReferenceState.from_occupied(m, occ), cfg, theta)
    return h, state, build_groups(h)


@pytest.fixture(scope="module")
def ten_modes():
    return seeded_ucc_set(10)


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

    @settings(max_examples=80, deadline=None)
    @given(commuting_groups(), st.integers(0, 2**32 - 1))
    def test_conditional_probabilities_match_the_tree(self, case, seed):
        state, group = case
        sampler, tree = GroupSampler(state, group), TreeSampler(state, group)
        tree.draw(make_rng(seed), 400)
        levels = sampler._levels
        for node, prefix in enumerate(tree._prefix):
            want = tree._p_plus[node]
            if np.isnan(want):
                continue
            # The pattern code of the generators measured before this string.
            code = sum(
                1 << j for j, lv in enumerate(levels) if lv < len(prefix) and prefix[lv] < 0
            )
            if len(prefix) in levels:
                got = sampler._tables[levels.index(len(prefix))][code]
            else:
                # Earlier outcomes fix this string: its outcome is read off the
                # pattern, so the rule "+1 iff u < p_plus" runs with 0 or 1.
                got = 1.0 if sampler.outcomes(code)[len(prefix)] == 1 else 0.0
                assert abs(want - round(want)) <= 1e-12
            assert abs(got - want) <= 1e-12, (prefix, got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        commuting_groups(),
        st.lists(st.integers(0, 60), min_size=1, max_size=4),
        st.integers(0, 2**32 - 1),
    )
    def test_codes_do_not_depend_on_draw_sizes(self, case, sizes, seed):
        state, group = case
        sampler = GroupSampler(state, group)
        whole = sampler.draw(make_rng(seed), sum(sizes))
        rng = make_rng(seed)
        split = np.concatenate([sampler.draw(rng, n) for n in sizes])
        assert np.array_equal(whole, split)
        assert np.all((0 <= whole) & (whole < 1 << sampler.rank))

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

    def test_rejection_names_the_first_offending_pair(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            group = [random_string(rng, n) for _ in range(int(rng.integers(2, 6)))]
            state = StateVector.basis(n, 0)
            try:
                oracle_sample_group(state, group, make_rng(0))
            except NonCommutingGroupError as exc:
                with pytest.raises(NonCommutingGroupError, match=f"^{exc}$"):
                    GroupSampler(state, group)
            else:
                GroupSampler(state, group)

    def test_pair_test_runs_only_on_a_failing_group(self, h2_hamiltonian, monkeypatch):
        calls = []
        real = simulator._first_anticommuting_pair

        def counting(masks):
            calls.append(len(masks))
            return real(masks)

        monkeypatch.setattr(simulator, "_first_anticommuting_pair", counting)
        # The 14 non-identity H2 terms in two commuting families: the
        # generators' parity tests alone pass them.
        strings = [t.string for t in h2_hamiltonian.terms[1:]]
        state = StateVector.basis(4, 3)
        GroupSampler(state, strings[:6])
        GroupSampler(state, strings[6:])
        assert calls == []
        with pytest.raises(NonCommutingGroupError):
            GroupSampler(state, strings)
        assert calls == [14]

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

    def test_outcome_table_rows_are_patterns(self):
        # ZZ is the product of the generators ZI and IZ: its outcome is theirs.
        sampler = GroupSampler(
            StateVector.from_label("00"),
            [PauliString("ZI"), PauliString("IZ"), PauliString("ZZ")],
        )
        want = [(1, 1, 1), (-1, 1, -1), (1, -1, -1), (-1, -1, 1)]
        assert [tuple(row) for row in sampler.outcome_table.tolist()] == want
        assert [sampler.outcomes(code) for code in range(4)] == want
        with pytest.raises(ValueError):
            sampler.outcome_table[0, 0] = -1

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

    def test_ten_mode_groups_are_fast(self, ten_modes, monkeypatch):
        # Every group of the seeded 10-mode set, from an empty cache.  On a
        # 2-core x86 host the former prefix tree took 5.1 s for this loop,
        # the joint distribution from 2^r - 1 string applies 0.6 s.
        m = 10
        h, state, plan = ten_modes
        assert len(plan.groups) == 197
        applies = []
        real = pauli._x_mask_action

        def counted(n, x, z_masks):
            applies.append(x)
            return real(n, x, z_masks)

        monkeypatch.setattr(pauli, "_x_mask_action", counted)
        simulator._compile_group.cache_clear()
        rng = make_rng(0)
        with wall_budget(3.0):
            for g in plan.groups:
                strings = tuple(h.terms[i].string for i in g)
                sampler = GroupSampler(state, strings)
                # One butterfly per X pivot of the compiled form: k <= r <= m.
                pivots = simulator._compile_group(strings)[4]
                assert len(pivots) <= sampler.rank <= m
                sampler.draw(rng, 1000)
        assert applies == []

    @settings(max_examples=200, deadline=None)
    @given(commuting_groups())
    def test_probabilities_match_the_gray_code_reference(self, case):
        state, group = case
        sampler = GroupSampler(state, group)
        want = gray_code_probabilities(state, [group[lv] for lv in sampler._levels])
        assert sampler.probabilities.shape == want.shape
        assert np.max(np.abs(sampler.probabilities - want)) <= 1e-15

    def test_ten_mode_probabilities_match_the_gray_code_reference(self, ten_modes):
        # Ranks reach 10 here: a uint8 parity shifted left by j >= 8 wraps to
        # 0 without a warning, so only ranks of 9 and more show that slip.
        h, state, plan = ten_modes
        ranks = []
        for g in plan.groups:
            group = [h.terms[i].string for i in g]
            sampler = GroupSampler(state, group)
            want = gray_code_probabilities(state, [group[lv] for lv in sampler._levels])
            assert np.max(np.abs(sampler.probabilities - want)) <= 1e-15, g
            ranks.append(sampler.rank)
        assert max(ranks) == 10 and sum(r >= 9 for r in ranks) > 10


def _dense_gate(gate, qubits, n):
    """The 2^n x 2^n matrix of one gate, bit q of a basis index on qubit q."""
    m = np.arange(1 << n)
    bit = [m >> q & 1 for q in range(n)]
    a = qubits[0]
    if gate == "h":
        u = np.zeros((1 << n, 1 << n))
        u[m, m] = 1 - 2 * bit[a]
        u[m ^ 1 << a, m] = 1
        return u / np.sqrt(2)
    if gate == "s":
        return np.diag(1j ** bit[a])
    b = qubits[1]
    if gate == "cz":
        return np.diag((-1.0) ** (bit[a] & bit[b]))
    u = np.zeros((1 << n, 1 << n))  # cnot, control a and target b
    u[m ^ bit[a] << b, m] = 1
    return u


class TestConjugate:
    """Each Clifford conjugation rule against dense U P U^+."""

    @pytest.mark.parametrize("gate, qubits", [
        *(("h", (a, a)) for a in range(3)),
        *(("s", (a, a)) for a in range(3)),
        *(("cnot", (a, b)) for a in range(3) for b in range(3) if a != b),
        *(("cz", (a, b)) for a in range(3) for b in range(3) if a < b),
    ])
    def test_rule_matches_dense_conjugation(self, gate, qubits):
        n = 3
        paulis = [PauliString.from_masks(n, x, z) for x in range(8) for z in range(8)]
        # All 64 Paulis as the rows of one column-form tableau.
        xs = [sum((p.x_mask >> q & 1) << j for j, p in enumerate(paulis)) for q in range(n)]
        zs = [sum((p.z_mask >> q & 1) << j for j, p in enumerate(paulis)) for q in range(n)]
        signs = simulator._conjugate(xs, zs, [(gate, *qubits)])
        u = _dense_gate(gate, qubits, n)
        for j, p in enumerate(paulis):
            x = sum((xs[q] >> j & 1) << q for q in range(n))
            z = sum((zs[q] >> j & 1) << q for q in range(n))
            sign = -1.0 if signs >> j & 1 else 1.0
            want = u @ p.to_matrix() @ u.conj().T
            got = sign * PauliString.from_masks(n, x, z).to_matrix()
            np.testing.assert_allclose(got, want, atol=1e-14, err_msg=f"{gate}{qubits} {p}")


class TestGroupCache:
    """One compiled form per tuple of strings, shared by every build."""

    def test_sums_with_equal_strings_share_one_form(self, state01):
        a = PauliSum.hermitian([(-1.0, "XX"), (-1.0, "YY"), (1.0, "ZZ")])
        b = PauliSum.hermitian([(0.3, "XX"), (2.0, "YY"), (-0.7, "ZZ")])
        plan = build_groups(a)
        assert plan.groups == build_groups(b).groups == ((0, 1, 2),)
        estimate_expectation(lambda: state01, a, plan, 0.1, rng=make_rng(0))
        before = simulator._compile_group.cache_info()
        estimate_expectation(lambda: state01, b, plan, 0.1, rng=make_rng(0))
        after = simulator._compile_group.cache_info()
        assert after.hits > before.hits and after.misses == before.misses
        # Equal strings, distinct objects: one form.
        assert a.terms[0].string is not b.terms[0].string
        form = simulator._compile_group(tuple(t.string for t in a.terms))
        assert simulator._compile_group(tuple(t.string for t in b.terms)) is form

    def test_a_failing_group_raises_on_every_call(self):
        state = StateVector.from_label("000")
        group = [PauliString("XII"), PauliString("IIZ"), PauliString("ZIX"), PauliString("ZII")]
        before = simulator._compile_group.cache_info()
        for _ in range(2):
            with pytest.raises(NonCommutingGroupError, match="^XII and ZIX do not commute$"):
                GroupSampler(state, group)
        after = simulator._compile_group.cache_info()
        assert after.misses == before.misses + 2
        assert after.currsize == before.currsize

    def test_twelve_mode_groups_are_fast_and_fit_the_cache(self):
        # Every group of the seeded 12-mode set (331 groups, ranks up to 12)
        # from an empty cache: about 0.2 s on a 2-core x86 host, where
        # 2^r - 1 string applies per group took about 7 s.
        h, state, plan = seeded_ucc_set(12)
        groups = [tuple(h.terms[i].string for i in g) for g in plan.groups]
        assert len(groups) == 331
        info = simulator._compile_group.cache_info
        simulator._compile_group.cache_clear()
        with wall_budget(1.5):
            for g in groups:
                GroupSampler(state, g)
        assert info().misses == info().currsize == 331
        # A second pass finds every form: none was evicted.
        for g in groups:
            GroupSampler(state, g)
        assert info().hits == 331 and info().misses == 331
        simulator._compile_group.cache_clear()


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

    def test_scalar_schedule_rejected(self):
        # Schedules evaluate arrays of times elementwise; a scalar is an error.
        h_i, h_p = two_qubit_pair()
        s0 = StateVector.from_label("00")
        with pytest.raises(ValidationError, match="elementwise"):
            evolve_schedule(s0, _FnSchedule(lambda t: 0.5), h_i, h_p, 1.0, steps=4)

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

    def test_non_finite_schedule_values(self):
        # NaN and inf used to reach eigh ("did not converge"); a series on
        # them would never stop.  Checked at 2 and at 4 qubits, on both
        # sides of the kernel crossover.
        s2 = StateVector.from_label("00")
        s4 = StateVector.from_label("0000")
        h_i4, h_p4 = ising_pair(4, np.random.default_rng(2))
        for bad in (np.nan, np.inf, -np.inf):
            sched = _FnSchedule(lambda t, v=bad: np.where(t > 0.5, v, 0.3))
            with pytest.raises(ValidationError, match="finite"):
                evolve_schedule(s2, sched, *two_qubit_pair(), 1.0, steps=4)
            with pytest.raises(ValidationError, match="finite"):
                evolve_schedule(s4, sched, h_i4, h_p4, 1.0, steps=4)

    @pytest.mark.parametrize("value", [5000.0, -0.1])
    def test_schedule_values_outside_unit_interval(self, value):
        # The substep cap bounds dt*||H_k|| for g in [0, 1] only: g = 5000
        # in one step of tau = 1 used to run 6999 substeps.
        h_i, h_p = ising_pair(4, np.random.default_rng(2))
        sched = _FnSchedule(lambda t: np.full_like(t, value))
        with wall_budget(0.5), pytest.raises(ValidationError, match=r"lie in \[0, 1\]"):
            evolve_schedule(StateVector.from_label("0000"), sched, h_i, h_p, 1.0, steps=1)


def ising_pair(n, rng):
    """-sum X against seeded ZZ couplings, Z fields and one XY coupling, so
    the problem side has more than one X-mask group."""

    def label(ops):
        return "".join(ops.get(n - 1 - j, "I") for j in range(n))

    h_i = PauliSum.hermitian([(-1.0, label({q: "X"})) for q in range(n)])
    terms = [(rng.uniform(-1, 1), label({q: "Z"})) for q in range(n)]
    terms += [(rng.uniform(-1, 1), label({q: "Z", q + 1: "Z"})) for q in range(n - 1)]
    if n > 1:
        terms.append((0.4, label({0: "X", 1: "Y"})))
    return h_i, PauliSum.hermitian(terms)


def midpoint_oracle(s0, sched, h_i, h_p, tau, steps):
    """The midpoint rule with scipy's expm on every step."""
    mi, mp = h_i.to_matrix(), h_p.to_matrix()
    dt = tau / steps
    amps = s0.amplitudes
    for k in range(steps):
        g = float(sched.evaluate(np.array([(k + 0.5) * dt]))[0])
        amps = expm(-1j * dt * ((1 - g) * mi + g * mp)) @ amps
    return amps


class TestEvolveKernels:
    """Each step kernel against expm per step, on both sides of each
    crossover: eigh below d = 16, Taylor with a dense H_k up to d = 128,
    Taylor with compiled applies above; long steps run as Taylor substeps."""

    @pytest.fixture
    def kernels(self, monkeypatch):
        ran = []
        for name in ("_eigh_steps", "_taylor_steps"):
            real = getattr(simulator, name)

            def spy(*args, real=real, name=name):
                ran.append(name)
                return real(*args)

            monkeypatch.setattr(simulator, name, spy)
        return ran

    @pytest.mark.parametrize(
        "n, kernel", [(1, "_eigh_steps"), (3, "_eigh_steps"), (4, "_taylor_steps"),
                      (5, "_taylor_steps"), (8, "_taylor_steps")]
    )
    def test_matches_expm_per_step(self, n, kernel, kernels):
        rng = np.random.default_rng(40 + n)
        h_i, h_p = ising_pair(n, rng)
        s0 = random_state(rng, n)
        sched = _FnSchedule(lambda t: (t / 1.5) ** 2)
        out = evolve_schedule(s0, sched, h_i, h_p, 1.5, steps=6)
        assert set(kernels) == {kernel}
        want = midpoint_oracle(s0, sched, h_i, h_p, 1.5, 6)
        np.testing.assert_allclose(out.amplitudes, want, rtol=0, atol=1e-13)

    def test_compiled_applies_match_dense_matrix(self, monkeypatch):
        rng = np.random.default_rng(44)
        h_i, h_p = ising_pair(4, rng)
        s0 = random_state(rng, 4)
        sched = _FnSchedule(lambda t: t / 2.0)
        dense = evolve_schedule(s0, sched, h_i, h_p, 2.0, steps=20).amplitudes
        monkeypatch.setattr(simulator, "_DENSE_MAX_DIM", 0)
        compiled = evolve_schedule(s0, sched, h_i, h_p, 2.0, steps=20).amplitudes
        np.testing.assert_allclose(compiled, dense, rtol=0, atol=1e-13)

    def test_long_step_takes_substeps(self, kernels):
        # One step of dt * ||H|| far past the series' limit.
        rng = np.random.default_rng(45)
        h_i, h_p = ising_pair(5, rng)
        s0 = random_state(rng, 5)
        sched = _FnSchedule(lambda t: np.full_like(t, 0.6))
        out = evolve_schedule(s0, sched, h_i, h_p, 25.0, steps=1)
        assert kernels == ["_taylor_steps"]
        want = midpoint_oracle(s0, sched, h_i, h_p, 25.0, 1)
        np.testing.assert_allclose(out.amplitudes, want, rtol=0, atol=1e-12)

    def test_long_step_above_dense_limit_builds_no_matrix(self, monkeypatch):
        rng = np.random.default_rng(46)
        h_i, h_p = ising_pair(8, rng)
        s0 = random_state(rng, 8)
        sched = _FnSchedule(lambda t: np.full_like(t, 0.6))
        want = midpoint_oracle(s0, sched, h_i, h_p, 25.0, 1)

        def no_dense(self):
            raise AssertionError("evolve_schedule built a dense matrix")

        with monkeypatch.context() as patch:
            patch.setattr(PauliSum, "to_matrix", no_dense)
            out = evolve_schedule(s0, sched, h_i, h_p, 25.0, steps=1)
        np.testing.assert_allclose(out.amplitudes, want, rtol=0, atol=1e-12)

    def test_one_schedule_call_per_chunk(self):
        # g is evaluated once per chunk of steps, above d = 128 too.
        rng = np.random.default_rng(47)
        h_i, h_p = ising_pair(8, rng)
        s0 = random_state(rng, 8)
        calls = []
        sched = _FnSchedule(lambda t: calls.append(t.size) or np.full_like(t, 0.5))
        steps = simulator._CHUNK_STEPS + 3
        evolve_schedule(s0, sched, h_i, h_p, 1e-3 * steps, steps=steps)
        assert calls == [simulator._CHUNK_STEPS, 3]

    def test_library_call_refuses_overlong_steps(self):
        # The CLI refuses these at load.  A library call used to run them:
        # 10,000 series substeps at tau = 1e4 and minutes at tau = 1e7.
        rng = np.random.default_rng(48)
        sched = _FnSchedule(lambda t: np.full_like(t, 0.5))
        s4 = StateVector.from_label("0000")
        h_i, h_p = ising_pair(4, rng)
        for tau in (1e4, 1e7):
            with wall_budget(0.5), pytest.raises(ValidationError, match="series substeps"):
                evolve_schedule(s4, sched, h_i, h_p, tau, steps=1)
        # Below d = 16 a step is one eigendecomposition, whatever its length.
        out = evolve_schedule(StateVector.from_label("000"), sched, *ising_pair(3, rng), 1e7, 1)
        assert out.norm() == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_callback_leaves_final_state_bit_identical(self, n):
        rng = np.random.default_rng(50 + n)
        h_i, h_p = ising_pair(n, rng)
        s0 = random_state(rng, n)
        sched = _FnSchedule(lambda t: t / 3.0)
        plain = evolve_schedule(s0, sched, h_i, h_p, 3.0, steps=60)
        seen = []
        watched = evolve_schedule(
            s0, sched, h_i, h_p, 3.0, steps=60, callback=lambda t, st: seen.append(st)
        )
        assert len(seen) == 60
        assert np.array_equal(watched.amplitudes, plain.amplitudes)
        assert np.array_equal(seen[-1].amplitudes, plain.amplitudes)

    def test_taylor_degrees_meet_the_tolerance(self):
        # Enough terms for the 1e-16 tail, and at most one more than needed.
        def tail(x, m):
            return sum(x**j / math.factorial(j) for j in range(m + 1, m + 80))

        x = np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 4.0])
        for xi, m in zip(x, simulator._taylor_degrees(x)):
            assert tail(xi, m) < simulator._TAYLOR_TOL
            assert m < 2 or tail(xi, m - 2) >= simulator._TAYLOR_TOL

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_peak_memory_does_not_grow_with_steps(self):
        # The old integrator held every step's matrix and eigenvectors:
        # about 36 MB at 2e4 steps and 96 MB at 4e5 on one qubit.  The peak
        # is the child's VmHWM: ru_maxrss survives fork and exec, so a child
        # of a large test process would report the parent's peak.
        code = (
            "import sys, vqekit as vk\n"
            "h_i = vk.PauliSum.hermitian([(0.5, 'I'), (-0.5, 'Z'), (0.1, 'X')])\n"
            "h_p = vk.PauliSum.hermitian([(0.5, 'I'), (0.5, 'Z')])\n"
            "s0 = vk.StateVector.from_label('0')\n"
            "vk.evolve_schedule(s0, vk.Schedule.linear(20.0), h_i, h_p, 20.0, int(sys.argv[1]))\n"
            "status = open('/proc/self/status').read()\n"
            "print(status.split('VmHWM:')[1].split()[0])\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        )
        peak_kb = [
            int(subprocess.run([sys.executable, "-c", code, str(steps)], capture_output=True,
                               text=True, env=env, check=True, timeout=300).stdout)
            for steps in (20_000, 400_000)
        ]
        assert peak_kb[1] - peak_kb[0] < 10 * 1024, peak_kb


def earlier_taylor_steps(amps, g, dt, x, matvec):
    """The Taylor kernel as it was before it ran in place, kept verbatim:
    a fresh H_k per step, and each A^j psi copied out of a fresh product."""
    substeps = np.maximum(1.0, np.ceil(x / simulator._TAYLOR_MAX_NORM))
    sub_dt = dt / substeps
    degrees = simulator._taylor_degrees(x / substeps)
    inv_factorial = 1.0 / np.cumprod(np.maximum(1.0, np.arange(degrees.max() + 1)))
    krylov = np.empty((inv_factorial.size, amps.size), dtype=complex)
    ops = map(matvec, (-1j * sub_dt * (1.0 - g)).tolist(), (-1j * sub_dt * g).tolist())
    for m, s, op in zip(degrees.tolist(), substeps.astype(int).tolist(), ops):
        for _ in range(s):
            krylov[0] = amps
            for j in range(1, m + 1):
                krylov[j] = op(krylov[j - 1])
            amps = inv_factorial[: m + 1] @ krylov[: m + 1]
        yield amps


def earlier_taylor_states(s0, sched, h_i, h_p, tau, steps, compiled=False):
    """(every state the earlier kernel yields, every step's bound x), on the
    chunks of `evolve_schedule`, with the earlier matvec closures."""
    if compiled:
        ci, cp = h_i.compiled, h_p.compiled
        matvec = lambda a, b: lambda v: a * ci.apply(v) + b * cp.apply(v)
    else:
        mi, mp = h_i.to_matrix(), h_p.to_matrix()
        matvec = lambda a, b: (a * mi + b * mp).__matmul__
    b_i, b_p = simulator._norm_bound(h_i), simulator._norm_bound(h_p)
    dt = tau / steps
    states, xs = [s0.amplitudes.copy()], []
    for lo in range(0, steps, simulator._CHUNK_STEPS):
        t_mid = (np.arange(lo, min(lo + simulator._CHUNK_STEPS, steps)) + 0.5) * dt
        g = np.asarray(sched.evaluate(t_mid), dtype=float)
        xs.append(dt * (np.abs(1.0 - g) * b_i + np.abs(g) * b_p))
        states += earlier_taylor_steps(states[-1], g, dt, xs[-1], matvec)
    return states[1:], np.concatenate(xs)


class TestTaylorKernelOracle:
    """Every state the Taylor kernel yields equals the earlier kernel's
    byte for byte, at each dense dimension d = 16..128: the in-place H_k
    and the BLAS-written Krylov rows change no operand and no order."""

    CASES = {
        "long_step": (25.0, 1),  # one step of many substeps
        "degrees_change": (6.0, 40),  # x_k crosses degree boundaries
        "two_chunks": (1e-3 * (simulator._CHUNK_STEPS + 3), simulator._CHUNK_STEPS + 3),
    }

    @staticmethod
    def schedule(family, tau):
        if family == "linear":
            return Schedule.linear(tau)
        if family == "spline":
            return Schedule.spline(tau, 0.3, 0.8)
        return Schedule.bang_bang(tau, (0.3 * tau, 0.55 * tau))

    def check(self, n, family, case):
        tau, steps = self.CASES[case]
        rng = np.random.default_rng(70 + n)
        h_i, h_p = ising_pair(n, rng)
        s0 = random_state(rng, n)
        sched = self.schedule(family, tau)
        want, x = earlier_taylor_states(
            s0, sched, h_i, h_p, tau, steps, compiled=1 << n > simulator._DENSE_MAX_DIM
        )
        substeps = np.maximum(1.0, np.ceil(x / simulator._TAYLOR_MAX_NORM))
        degrees = simulator._taylor_degrees(x / substeps)
        if case == "long_step":
            assert substeps[0] > 1
        elif case == "degrees_change":
            assert len(set(degrees.tolist())) > 1
        seen = []
        watched = evolve_schedule(
            s0, sched, h_i, h_p, tau, steps, callback=lambda t, st: seen.append(st.amplitudes)
        )
        plain = evolve_schedule(s0, sched, h_i, h_p, tau, steps)
        assert len(seen) == len(want) == steps
        differ = [k for k, (a, b) in enumerate(zip(seen, want)) if a.tobytes() != b.tobytes()]
        assert not differ, f"{len(differ)} states differ, the first after step {differ[0] + 1}"
        assert watched.amplitudes.tobytes() == want[-1].tobytes()
        assert plain.amplitudes.tobytes() == want[-1].tobytes()

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("family", ["linear", "spline", "bang_bang"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_dense_states_match_bytewise(self, n, family, case):
        assert simulator._TAYLOR_MIN_DIM <= 1 << n <= simulator._DENSE_MAX_DIM
        self.check(n, family, case)

    @pytest.mark.parametrize("case", list(CASES))
    def test_compiled_states_match_bytewise(self, case, monkeypatch):
        monkeypatch.setattr(simulator, "_DENSE_MAX_DIM", 0)
        self.check(4, "spline", case)
