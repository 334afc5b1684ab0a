"""Fermionic ladder algebra, the qubit mapping, integrals, and RDMs.

The dense oracle used throughout: each mode's ladder operator is built
from the canonical anticommutation relations alone (occupation-basis
matrix with parity signs), so agreement is evidence about the algebra,
not about two copies of the same code path.
"""

import itertools

import numpy as np
import pytest

from vqekit import (
    FermionOperator,
    IntegralSet,
    RDMPair,
    StateVector,
    assemble_observable,
    build_hamiltonian,
    commutator,
    energy_from_rdm,
    expectation_and_variance,
    jordan_wigner,
    load_integrals,
    measure_rdm,
    normal_order,
)
from vqekit.errors import DimensionError, ValidationError

from conftest import FIXTURES


def T(m, coeff, ops):
    return FermionOperator.from_term(m, coeff, ops)


def dense_annihilator(n_modes: int, p: int) -> np.ndarray:
    """Occupation-basis a_p with the (-1)^(number below p) parity sign."""
    dim = 1 << n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        if (idx >> p) & 1:
            sign = (-1) ** bin(idx & ((1 << p) - 1)).count("1")
            out[idx ^ (1 << p), idx] = sign
    return out


def dense_of(f: FermionOperator) -> np.ndarray:
    ann = [dense_annihilator(f.n_modes, p) for p in range(f.n_modes)]
    dim = 1 << f.n_modes
    total = np.zeros((dim, dim), dtype=complex)
    for ops, c in f.terms.items():
        m = np.eye(dim, dtype=complex)
        for o in ops:
            mode, dag = o >> 1, o & 1
            m = m @ (ann[mode].conj().T if dag else ann[mode])
        total += c * m
    return total


def random_operator(rng, n_modes=3, n_terms=4, max_len=4) -> FermionOperator:
    out = FermionOperator.zero(n_modes)
    for _ in range(n_terms):
        length = int(rng.integers(0, max_len + 1))
        ops = [
            (int(rng.integers(0, n_modes)), bool(rng.integers(0, 2)))
            for _ in range(length)
        ]
        c = complex(rng.normal(), rng.normal())
        out = out + T(n_modes, c, ops)
    return out


class TestNormalOrder:
    def test_contraction(self):
        # a0 adag0 = 1 - adag0 a0
        f = normal_order(T(2, 1.0, [(0, False), (0, True)]))
        expected = FermionOperator.identity(2) - T(2, 1.0, [(0, True), (0, False)])
        assert f.equals(expected)

    def test_distinct_modes_anticommute(self):
        f = normal_order(T(2, 1.0, [(1, True), (0, True)]))
        assert f.equals(T(2, -1.0, [(0, True), (1, True)]))

    def test_nilpotency(self):
        assert normal_order(T(2, 1.0, [(0, False), (0, False)])).is_zero()
        assert normal_order(T(2, 1.0, [(1, True), (1, True)])).is_zero()

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = random_operator(rng)
            once = normal_order(f)
            assert normal_order(once).equals(once)

    def test_preserves_matrix(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            f = random_operator(rng)
            np.testing.assert_allclose(
                dense_of(normal_order(f)), dense_of(f), atol=1e-10
            )

    def test_hermitian_conjugate_matches_dagger(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = random_operator(rng)
            np.testing.assert_allclose(
                dense_of(f.hermitian_conjugate()), dense_of(f).conj().T, atol=1e-10
            )

    def test_number_operator_is_hermitian(self):
        assert FermionOperator.number_operator(3).is_hermitian()
        assert not T(2, 1.0, [(0, True)]).is_hermitian()


class TestCommutator:
    def test_matches_matrix_commutator(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            a = random_operator(rng, n_terms=3, max_len=3)
            b = random_operator(rng, n_terms=3, max_len=3)
            got = dense_of(commutator(a, b))
            want = dense_of(a) @ dense_of(b) - dense_of(b) @ dense_of(a)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_one_body_identity_exhaustive(self):
        """[adag_i a_j, adag_p a_q] = adag_i a_q d_pj - adag_p a_j d_iq."""
        M = 4
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

    def test_mixed_identity_exhaustive(self):
        """One-body against two-body: four delta terms, all index cases."""
        M = 4
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


def two_body_commutator_reference(M, i, j, k, l, p, q, r, s) -> FermionOperator:
    """[adag_i adag_j a_k a_l, adag_p adag_q a_r a_s], written out.

    In the delta_si and delta_ri terms the surviving creation operator is
    adag_j (the i index is consumed by the delta), mirroring how the
    delta_sj and delta_rj terms keep adag_i.
    """
    def d(a, b):
        return 1.0 if a == b else 0.0

    out = (d(k, q) * d(l, p) - d(k, p) * d(l, q)) * T(
        M, 1.0, [(i, True), (j, True), (r, False), (s, False)]
    )
    out = out - (d(s, i) * d(r, j) - d(r, i) * d(s, j)) * T(
        M, 1.0, [(p, True), (q, True), (k, False), (l, False)]
    )
    six = [
        (-d(l, p), [(i, True), (j, True), (q, True), (k, False), (r, False), (s, False)]),
        (+d(s, i), [(p, True), (q, True), (j, True), (r, False), (k, False), (l, False)]),
        (+d(k, p), [(i, True), (j, True), (q, True), (l, False), (r, False), (s, False)]),
        (-d(r, i), [(p, True), (q, True), (j, True), (s, False), (k, False), (l, False)]),
        (+d(l, q), [(i, True), (j, True), (p, True), (k, False), (r, False), (s, False)]),
        (-d(s, j), [(p, True), (q, True), (i, True), (r, False), (k, False), (l, False)]),
        (-d(k, q), [(i, True), (j, True), (p, True), (l, False), (r, False), (s, False)]),
        (+d(r, j), [(p, True), (q, True), (i, True), (s, False), (k, False), (l, False)]),
    ]
    for c, ops in six:
        if c != 0.0:
            out = out + T(M, c, ops)
    return out


class TestTwoBodyCommutatorIdentity:
    def test_random_assignments(self):
        M = 4
        rng = np.random.default_rng(33)
        for _ in range(300):
            idx = tuple(int(v) for v in rng.integers(0, M, size=8))
            lhs = commutator(
                T(M, 1.0, [(idx[0], True), (idx[1], True), (idx[2], False), (idx[3], False)]),
                T(M, 1.0, [(idx[4], True), (idx[5], True), (idx[6], False), (idx[7], False)]),
            )
            assert lhs.equals(two_body_commutator_reference(M, *idx)), idx

    def test_matrix_spot_checks(self):
        M = 4
        rng = np.random.default_rng(34)
        for _ in range(8):
            idx = tuple(int(v) for v in rng.integers(0, M, size=8))
            ref = two_body_commutator_reference(M, *idx)
            a = T(M, 1.0, [(idx[0], True), (idx[1], True), (idx[2], False), (idx[3], False)])
            b = T(M, 1.0, [(idx[4], True), (idx[5], True), (idx[6], False), (idx[7], False)])
            want = dense_of(a) @ dense_of(b) - dense_of(b) @ dense_of(a)
            np.testing.assert_allclose(dense_of(ref), want, atol=1e-10)


class TestJordanWigner:
    def test_number_term_single_mode(self):
        ps = jordan_wigner(T(1, 1.0, [(0, True), (0, False)]))
        np.testing.assert_allclose(
            ps.to_matrix(), np.diag([0.0, 1.0]).astype(complex), atol=1e-12
        )

    def test_creation_matrix(self):
        ps = jordan_wigner(T(1, 1.0, [(0, True)]))
        np.testing.assert_allclose(
            ps.to_matrix(), np.array([[0, 0], [1, 0]], dtype=complex), atol=1e-12
        )

    def test_parity_string_on_higher_mode(self):
        got = jordan_wigner(T(2, 1.0, [(1, True)])).to_matrix()
        np.testing.assert_allclose(got, dense_annihilator(2, 1).conj().T, atol=1e-12)

    def test_anticommutation_on_qubits(self):
        n = 3
        for p in range(n):
            for q in range(n):
                ap = jordan_wigner(T(n, 1.0, [(p, False)])).to_matrix()
                adq = jordan_wigner(T(n, 1.0, [(q, True)])).to_matrix()
                anti = ap @ adq + adq @ ap
                want = np.eye(8) if p == q else np.zeros((8, 8))
                np.testing.assert_allclose(anti, want, atol=1e-12)
                aq = jordan_wigner(T(n, 1.0, [(q, False)])).to_matrix()
                np.testing.assert_allclose(ap @ aq + aq @ ap, 0.0, atol=1e-12)

    def test_filling_order_sign(self):
        # Ascending creation order fills with + sign: adag_0 adag_1 |vac> = |11>.
        vac = np.zeros(4, dtype=complex)
        vac[0] = 1.0
        up = jordan_wigner(T(2, 1.0, [(0, True), (1, True)])).to_matrix() @ vac
        down = jordan_wigner(T(2, 1.0, [(1, True), (0, True)])).to_matrix() @ vac
        np.testing.assert_allclose(up, [0, 0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(down, [0, 0, 0, -1], atol=1e-12)

    def test_linear_and_faithful(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            f = random_operator(rng)
            np.testing.assert_allclose(
                jordan_wigner(f).to_matrix(), dense_of(f), atol=1e-10
            )

    def test_hermitian_input_gives_real_coefficients(self):
        f = FermionOperator.number_operator(3) + T(
            3, 0.5, [(0, True), (1, False)]
        ) + T(3, 0.5, [(1, True), (0, False)])
        ps = jordan_wigner(f)
        assert ps.is_hermitian()
        assert all(abs(t.coeff.imag) < 1e-12 for t in ps.terms)


class TestIntegralFile:
    def test_h2_fixture_loads(self):
        ints = load_integrals(str(FIXTURES / "h2_sto3g.ints"))
        assert ints.n_modes == 4
        assert ints.core == pytest.approx(0.7137539)
        assert ints.one_body[0, 0] == pytest.approx(-1.252477)
        assert ints.one_body[2, 2] == pytest.approx(-0.475934)

    def test_h2_qubit_hamiltonian(self, h2_hamiltonian, h2_exact):
        assert h2_hamiltonian.n_qubits == 4
        assert len(h2_hamiltonian) == 15
        vals, _ = h2_exact
        assert vals[0] == pytest.approx(-1.1372917784448657, abs=1e-9)

    def test_h2_reference_determinant_energy(self, h2_hamiltonian):
        # Doubly occupied lowest orbital: modes 0 and 1 -> basis |0011>.
        hf = StateVector.from_label("0011")
        mean, _ = expectation_and_variance(hf, h2_hamiltonian)
        assert mean == pytest.approx(-1.1167071, abs=1e-6)

    def test_bad_files_rejected(self, tmp_path):
        cases = {
            "empty.ints": "",
            "header.ints": "N 4 CORE 0.1\n",
            "range.ints": "M 2 CORE 0.0\n1.0 3 1 0 0\n",
            "dup.ints": "M 2 CORE 0.0\n1.0 1 1 0 0\n2.0 1 1 0 0\n",
            "asym.ints": "M 2 CORE 0.0\n1.0 1 2 0 0\n",
            "fields.ints": "M 2 CORE 0.0\n1.0 1 1 0\n",
        }
        for name, body in cases.items():
            path = tmp_path / name
            path.write_text(body)
            with pytest.raises(ValidationError):
                load_integrals(str(path))

    def test_non_finite_values_rejected(self, tmp_path):
        # A NaN core used to drop silently, and inf - inf = NaN passed the
        # symmetry check; each is now reported at its line.
        cases = [
            ("M 2 CORE nan\n-0.5 1 1 0 0\n", ":1: core must be finite"),
            ("M 2 CORE 0.0\n-0.5 1 1 0 0\ninf 2 2 0 0\n", ":3: value must be finite"),
            ("M 2 CORE 0.0\n-inf 1 1 2 2\n", ":2: value must be finite"),
        ]
        for k, (body, where) in enumerate(cases):
            path = tmp_path / f"bad{k}.ints"
            path.write_text(body)
            with pytest.raises(ValidationError, match=where):
                load_integrals(str(path))

    def test_validate_rejects_non_finite_arrays(self):
        one, two = np.zeros((2, 2)), np.zeros((2, 2, 2, 2))
        bad_one, bad_two = one.copy(), two.copy()
        bad_one[0, 1] = bad_one[1, 0] = np.inf
        bad_two[0, 1, 1, 0] = bad_two[1, 0, 0, 1] = np.nan
        for ints in (
            IntegralSet(n_modes=2, one_body=bad_one, two_body=two, core=0.0),
            IntegralSet(n_modes=2, one_body=one, two_body=bad_two, core=0.0),
            IntegralSet(n_modes=2, one_body=one, two_body=two, core=float("nan")),
        ):
            with pytest.raises(ValidationError, match="integrals must be finite"):
                ints.validate()
            with pytest.raises(ValidationError, match="integrals must be finite"):
                build_hamiltonian(ints)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "ok.ints"
        path.write_text(
            "# one spatial orbital, both spins\nM 2 CORE 0.25\n\n"
            "-0.5 1 1 0 0  # h11\n-0.5 2 2 0 0\n"
        )
        ints = load_integrals(str(path))
        assert ints.core == 0.25
        np.testing.assert_allclose(ints.one_body, np.diag([-0.5, -0.5]))

    def test_build_hamiltonian_halves_two_body(self):
        # h_0110 = h_1001 = 2.0 contributes 0.5 * 2.0 per ordered entry.
        two = np.zeros((2, 2, 2, 2))
        two[0, 1, 1, 0] = 2.0
        two[1, 0, 0, 1] = 2.0
        ints = IntegralSet(n_modes=2, one_body=np.zeros((2, 2)), two_body=two, core=0.0)
        f = build_hamiltonian(ints)
        want = T(2, 1.0, [(0, True), (1, True), (1, False), (0, False)]) + T(
            2, 1.0, [(1, True), (0, True), (0, False), (1, False)]
        )
        assert normal_order(f).equals(normal_order(want))

    def test_core_becomes_identity(self):
        ints = IntegralSet(
            n_modes=1,
            one_body=np.zeros((1, 1)),
            two_body=np.zeros((1, 1, 1, 1)),
            core=0.75,
        )
        ps = jordan_wigner(build_hamiltonian(ints))
        assert ps.identity_part() == pytest.approx(0.75)


class TestRdm:
    def test_energy_matches_direct_expectation(self, h2_hamiltonian):
        ints = load_integrals(str(FIXTURES / "h2_sto3g.ints"))
        for label in ("0011", "1100", "0110"):
            state = StateVector.from_label(label)
            rdm = measure_rdm(state, 4)
            direct, _ = expectation_and_variance(state, h2_hamiltonian)
            assert energy_from_rdm(rdm, ints) == pytest.approx(direct, abs=1e-9)

    def test_rdm_of_determinant(self):
        rdm = measure_rdm(StateVector.from_label("01"), 2)
        np.testing.assert_allclose(rdm.d1, np.diag([1.0, 0.0]), atol=1e-12)

    def test_json_roundtrip(self):
        rdm = measure_rdm(StateVector.from_label("0011"), 4)
        again = RDMPair.from_json_dict(rdm.to_json_dict())
        np.testing.assert_allclose(again.d1, rdm.d1, atol=1e-12)
        np.testing.assert_allclose(again.d2, rdm.d2, atol=1e-12)

    def test_assemble_observable_shape_checks(self):
        rdm = measure_rdm(StateVector.from_label("01"), 2)
        with pytest.raises(DimensionError):
            assemble_observable(rdm, np.zeros((3, 3)), np.zeros((2, 2, 2, 2)))
        with pytest.raises(DimensionError):
            assemble_observable(rdm, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_validation_rejects_bad_symmetry(self):
        d2 = np.zeros((2, 2, 2, 2), dtype=complex)
        d2[0, 1, 0, 1] = 1.0  # missing the antisymmetric partners
        with pytest.raises(ValidationError):
            RDMPair(n_modes=2, d1=np.zeros((2, 2), dtype=complex), d2=d2).validate()
