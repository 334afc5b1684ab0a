"""The compiled (X-mask grouped) form of a Pauli sum, property-tested.

Random sums of up to five qubits are checked against a dense oracle that
is rebuilt here from the 2x2 matrices with one kron per term, the
construction the compiled form replaces.  Coefficients are drawn from a
small dyadic set so duplicate strings cancel exactly and the validation
flags have exact answers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from vqekit import (
    AnsatzConfig,
    GeneratorSet,
    PauliString,
    PauliSum,
    PauliTerm,
    ReferenceState,
    StateVector,
    commutes,
    expectation_and_variance,
    multiply,
    prepare_state,
)

MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PARTS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)

SETTINGS = settings(max_examples=60, deadline=None)


def dense(letters: str) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for c in letters:
        m = np.kron(m, MATS[c])
    return m


def kron_sum(h: PauliSum) -> np.ndarray:
    dim = 1 << h.n_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for t in h.terms:
        m += t.coeff * dense(t.string.letters)
    return m


def letters(n: int):
    return st.text(alphabet="IXYZ", min_size=n, max_size=n)


@st.composite
def pauli_sums(draw, max_terms: int = 8, imag: bool = True):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, max_terms))
    terms = []
    for _ in range(k):
        c = complex(draw(st.sampled_from(PARTS)), draw(st.sampled_from(PARTS)) if imag else 0.0)
        terms.append(PauliTerm(c, PauliString(draw(letters(n)))))
    return PauliSum(n, terms)


@st.composite
def single_mask_generators(draw):
    """i K with K = sum_k kappa_k P_k over strings sharing one X mask."""
    n = draw(st.integers(1, 4))
    x = draw(st.integers(0, (1 << n) - 1))
    zs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
    terms = [
        PauliTerm(1j * draw(st.sampled_from(PARTS)), PauliString.from_masks(n, x, z))
        for z in zs
    ]
    return PauliSum(n, terms)


def random_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def generic_reference(n: int, seed: int) -> ReferenceState:
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        pairs.append((complex(a[0]), complex(a[1])))
    return ReferenceState(n_qubits=n, qubit_pairs=tuple(pairs))


def exponentiate(g: PauliSum, scale: float, ref: ReferenceState) -> np.ndarray:
    gens = GeneratorSet(n_qubits=g.n_qubits, generators=(g,), labels=(("g",),))
    return prepare_state(ref, AnsatzConfig(generator_set=gens), np.array([scale])).amplitudes


class TestKernel:
    @SETTINGS
    @given(pauli_sums(), st.integers(0, 2**32 - 1))
    def test_apply_matches_dense(self, h, seed):
        psi = random_state(h.n_qubits, seed)
        np.testing.assert_allclose(
            h.compiled.apply(psi), kron_sum(h) @ psi, rtol=0, atol=1e-12
        )

    @SETTINGS
    @given(pauli_sums())
    def test_to_matrix_is_the_kron_sum(self, h):
        assert np.array_equal(h.to_matrix(), kron_sum(h))

    @SETTINGS
    @given(pauli_sums())
    def test_one_group_per_x_mask(self, h):
        masks = {t.string.x_mask for t in h.terms}
        assert len(h.compiled.groups) == len(masks)
        for src, _ in h.compiled.groups:
            assert len({int(b) ^ int(s) for b, s in enumerate(src)}) == 1

    @SETTINGS
    @given(pauli_sums())
    def test_flags(self, h):
        m = kron_sum(h)
        cg = h.compiled
        assert cg.hermitian == np.array_equal(m, m.conj().T)
        pairwise = all(
            np.array_equal(dense(a.string.letters) @ dense(b.string.letters),
                           dense(b.string.letters) @ dense(a.string.letters))
            for a in h.terms for b in h.terms
        )
        assert cg.commuting == pairwise

    @SETTINGS
    @given(pauli_sums(imag=False), st.integers(0, 2**32 - 1))
    def test_expectation_matches_dense(self, h, seed):
        psi = random_state(h.n_qubits, seed)
        m = kron_sum(h)
        mean, var = expectation_and_variance(StateVector(psi), h)
        want = float(np.real(np.vdot(psi, m @ psi)))
        assert mean == pytest.approx(want, abs=1e-12)
        want_var = float(np.real(np.vdot(m @ psi, m @ psi))) - want * want
        assert var == pytest.approx(max(0.0, want_var), abs=1e-10)

    def test_compiled_once_and_lazily(self, twospin):
        h = twospin + twospin
        assert h._compiled is None
        assert h.simplify()._compiled is None
        first = h.compiled
        h.to_matrix()
        h.is_hermitian()
        assert h.compiled is first

    def test_h2_is_two_groups(self, h2_hamiltonian):
        assert len(h2_hamiltonian.terms) == 15
        assert len(h2_hamiltonian.compiled.groups) == 2


class TestGeneratorExponential:
    @SETTINGS
    @given(single_mask_generators(), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
    def test_single_mask_closed_form(self, g, scale, seed):
        ref = generic_reference(g.n_qubits, seed)
        want = expm(scale * kron_sum(g)) @ ref.to_state().amplitudes
        np.testing.assert_allclose(exponentiate(g, scale, ref), want, rtol=0, atol=1e-12)

    def test_zero_magnitude_diagonal_entries(self):
        # K = XX + YY has D = 0 on |00> and |11>: those amplitudes stay put.
        g = PauliSum.from_terms([(1j, "XX"), (1j, "YY")])
        diag = g.compiled.groups[0][1]
        assert np.count_nonzero(diag == 0) == 2
        ref = generic_reference(2, 5)
        want = expm(0.7 * kron_sum(g)) @ ref.to_state().amplitudes
        np.testing.assert_allclose(exponentiate(g, 0.7, ref), want, rtol=0, atol=1e-12)

    def test_all_zero_generator_is_identity(self):
        g = PauliSum.from_terms([(1j, "ZI"), (-1j, "ZI")])
        ref = generic_reference(2, 9)
        np.testing.assert_allclose(
            exponentiate(g, 1.3, ref), ref.to_state().amplitudes, rtol=0, atol=0
        )

    @SETTINGS
    @given(pauli_sums(max_terms=5), st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
    def test_any_generator(self, h, scale, seed):
        # i * (real-coefficient sum): commuting and non-commuting, any masks.
        g = PauliSum(h.n_qubits, [PauliTerm(1j * t.coeff.real, t.string) for t in h.terms])
        ref = generic_reference(g.n_qubits, seed)
        want = expm(scale * kron_sum(g)) @ ref.to_state().amplitudes
        np.testing.assert_allclose(exponentiate(g, scale, ref), want, rtol=0, atol=1e-12)


class TestStringAlgebra:
    @SETTINGS
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(letters(n), letters(n))))
    def test_multiply_matches_matrix_product(self, pair):
        a, b = pair
        phase, s = multiply(PauliString(a), PauliString(b))
        assert np.array_equal(dense(a) @ dense(b), phase * dense(s.letters))

    @SETTINGS
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(letters(n), letters(n))))
    def test_commutes_matches_matrix_commutator(self, pair):
        a, b = pair
        ma, mb = dense(a), dense(b)
        assert commutes(PauliString(a), PauliString(b)) == np.array_equal(ma @ mb, mb @ ma)

    @SETTINGS
    @given(st.integers(1, 5).flatmap(letters))
    def test_string_matrix(self, s):
        assert np.array_equal(PauliString(s).to_matrix(), dense(s))
