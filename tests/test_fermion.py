"""Fermionic ladder algebra, the qubit mapping, integrals, and RDMs.

The dense oracle used throughout: each mode's ladder operator is built
from the canonical anticommutation relations alone (occupation-basis
matrix with parity signs), so agreement is evidence about the algebra,
not about two copies of the same code path.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqekit import (
    FermionOperator,
    IntegralSet,
    PauliString,
    PauliSum,
    PauliTerm,
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

from conftest import CONFIGS, wall_budget


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


@st.composite
def fermion_operators(draw, max_modes: int = 4):
    """Sums of up to four ladder products on up to four modes."""
    n = draw(st.integers(1, max_modes))
    ladder = st.tuples(st.integers(0, n - 1), st.booleans())
    part = st.sampled_from((-1.5, -1.0, -0.5, 0.0, 0.5, 2.0))
    f = FermionOperator.zero(n)
    for _ in range(draw(st.integers(0, 4))):
        coeff = complex(draw(part), draw(part))
        f = f + T(n, coeff, draw(st.lists(ladder, max_size=4)))
    return f


@st.composite
def jw_inputs(draw):
    """Up to five modes: an identity term, repeated and unordered ladder
    products, complex coefficients, and pairs whose images cancel."""
    n = draw(st.integers(1, 5))
    ladder = st.tuples(st.integers(0, n - 1), st.booleans())
    part = st.floats(-3.0, 3.0, allow_subnormal=False)
    terms = {}
    if draw(st.booleans()):
        terms[()] = complex(draw(part), draw(part))
    for _ in range(draw(st.integers(0, 6))):
        ops = tuple((m << 1) | d for m, d in draw(st.lists(ladder, min_size=1, max_size=4)))
        c = complex(draw(part), draw(part))
        terms[ops] = c
        if len(ops) > 1 and ops[0] >> 1 != ops[1] >> 1 and draw(st.booleans()):
            # Two distinct modes anticommute, so this pair maps to zero.
            terms[(ops[1], ops[0]) + ops[2:]] = c
    return FermionOperator(n, terms)


def jw_by_products(f: FermionOperator) -> PauliSum:
    """Reference Jordan-Wigner map built from PauliSum objects: the identity
    times one (X -+ iY)/2 sum per ladder operator, every product summed, and
    duplicate strings merged onto their first occurrence."""
    n = f.n_modes
    total = PauliSum.zero(n)
    for ops, coeff in f.terms.items():
        acc = PauliSum.identity(n, coeff)
        for op in ops:
            bit = 1 << (op >> 1)
            x_part = PauliTerm(0.5 + 0j, PauliString.from_masks(n, bit, bit - 1))
            y_coeff = -0.5j if op & 1 else 0.5j
            y_part = PauliTerm(y_coeff, PauliString.from_masks(n, bit, (bit - 1) | bit))
            acc = acc * PauliSum(n, [x_part, y_part])
        total = total + acc
    order, merged = [], {}
    for t in total.terms:
        if t.string in merged:
            merged[t.string] += t.coeff
        else:
            merged[t.string] = t.coeff
            order.append(t.string)
    return PauliSum(n, [PauliTerm(merged[s], s) for s in order if abs(merged[s]) > 1e-12])


def exact_terms(ps: PauliSum) -> list:
    """Each term as (repr of coefficient, X mask, Z mask): equal lists mean
    equal order and bit-identical coefficients, signed zeros included."""
    return [(repr(t.coeff), t.string.x_mask, t.string.z_mask) for t in ps.terms]


def random_integrals(rng, m: int) -> IntegralSet:
    one = rng.normal(size=(m, m))
    two = rng.normal(size=(m,) * 4)
    two = two + two.transpose(1, 0, 3, 2)
    two = two + two.transpose(3, 2, 1, 0)  # Hermitian: h_pqrs = h_srqp
    return IntegralSet(m, one + one.T, two, float(rng.normal()))


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

    terms = [
        (d(k, q) * d(l, p) - d(k, p) * d(l, q), [(i, True), (j, True), (r, False), (s, False)]),
        (d(r, i) * d(s, j) - d(s, i) * d(r, j), [(p, True), (q, True), (k, False), (l, False)]),
        (-d(l, p), [(i, True), (j, True), (q, True), (k, False), (r, False), (s, False)]),
        (+d(s, i), [(p, True), (q, True), (j, True), (r, False), (k, False), (l, False)]),
        (+d(k, p), [(i, True), (j, True), (q, True), (l, False), (r, False), (s, False)]),
        (-d(r, i), [(p, True), (q, True), (j, True), (s, False), (k, False), (l, False)]),
        (+d(l, q), [(i, True), (j, True), (p, True), (k, False), (r, False), (s, False)]),
        (-d(s, j), [(p, True), (q, True), (i, True), (r, False), (k, False), (l, False)]),
        (-d(k, q), [(i, True), (j, True), (p, True), (l, False), (r, False), (s, False)]),
        (+d(r, j), [(p, True), (q, True), (i, True), (s, False), (k, False), (l, False)]),
    ]
    out = {}
    for c, ops in terms:
        if c != 0.0:
            key = tuple([(m << 1) | dagger for m, dagger in ops])
            out[key] = out.get(key, 0.0) + c
    return FermionOperator._unchecked(M, out)


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

    @settings(max_examples=80, deadline=None)
    @given(fermion_operators())
    def test_matches_occupation_basis_oracle(self, f):
        # dense_of builds each a_p from the occupation basis alone:
        # a_p|n> = (-1)^(sum_{q<p} n_q) n_p |n - e_p>.
        np.testing.assert_allclose(jordan_wigner(f).to_matrix(), dense_of(f), atol=1e-10)

    def test_hermitian_input_gives_real_coefficients(self):
        f = FermionOperator.number_operator(3) + T(
            3, 0.5, [(0, True), (1, False)]
        ) + T(3, 0.5, [(1, True), (0, False)])
        ps = jordan_wigner(f)
        assert ps.is_hermitian()
        assert all(abs(t.coeff.imag) < 1e-12 for t in ps.terms)

    @settings(max_examples=150, deadline=None)
    @given(jw_inputs())
    def test_bit_identical_to_object_products(self, f):
        assert exact_terms(jordan_wigner(f)) == exact_terms(jw_by_products(f))

    def test_bit_identical_on_integral_sets(self):
        fs = [build_hamiltonian(load_integrals(str(CONFIGS / "h2_sto3g.ints")))]
        fs += [build_hamiltonian(random_integrals(np.random.default_rng(m), m)) for m in (3, 4, 6)]
        for f in fs:
            assert exact_terms(jordan_wigner(f)) == exact_terms(jw_by_products(f))

    def test_forty_modes_are_exact(self):
        # Strings on modes 0, 17 and 39 fill 40-bit masks; the keys never wrap.
        f = T(40, 0.75 - 0.5j, [(39, True), (0, False), (17, True), (39, False)])
        f = f + T(40, -1.25, [(17, True), (39, False)]) + T(40, 0.5, [(0, True)])
        assert exact_terms(jordan_wigner(f)) == exact_terms(jw_by_products(f))

    def test_h2_and_eight_mode_sums_are_pinned(self):
        # SHA-256 of `exact_terms`: the merge step keeps every bit, order and
        # signed zero of the H2 and seeded 8-mode maps, simplified or not.
        fs = {
            "h2": build_hamiltonian(load_integrals(str(CONFIGS / "h2_sto3g.ints"))),
            "8-mode": build_hamiltonian(random_integrals(np.random.default_rng(7008), 8)),
        }
        got = {}
        for name, f in fs.items():
            ps = jordan_wigner(f)
            assert exact_terms(ps.simplify()) == exact_terms(ps)
            got[name] = hashlib.sha256(repr(exact_terms(ps)).encode()).hexdigest()
        assert got == {
            "h2": "7a8ed8b016d2ef4253e3123366ddf7cfb3433069972ad2c9196d28461275af88",
            "8-mode": "0bdc08c1cad0796871381d58fe9b4f9dbfcba490bf150b42185385e5ba928837",
        }

    def test_more_than_sixty_two_modes_are_refused(self):
        assert len(jordan_wigner(T(62, 1.0, [(61, True)]))) == 2
        with pytest.raises(ValidationError, match="at most 62 modes, got 63"):
            jordan_wigner(T(63, 1.0, [(0, True)]))

    def test_builds_one_sum(self, monkeypatch):
        f = build_hamiltonian(load_integrals(str(CONFIGS / "h2_sto3g.ints")))
        built = []
        init = PauliSum.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PauliSum, "__init__", counting_init)
        jordan_wigner(f)
        assert len(built) == 1

    def test_eight_modes_is_fast(self):
        # 4161 fermion terms. Adding one PauliSum per term is quadratic in the
        # term count and took 6-8 s on a 2-core machine; a Python loop over
        # every string took 0.14 s, and the array pass takes about 0.02 s.
        f = build_hamiltonian(random_integrals(np.random.default_rng(8), 8))
        with wall_budget(5.0):
            jordan_wigner(f)


def build_by_loops(ints: IntegralSet) -> dict:
    """Reference `build_hamiltonian` terms: every index in nested loops."""
    m = ints.n_modes
    terms = {(): complex(ints.core)} if abs(ints.core) > 1e-12 else {}
    for p, q in itertools.product(range(m), repeat=2):
        if abs(ints.one_body[p, q]) > 1e-12:
            terms[(2 * p + 1, 2 * q)] = complex(ints.one_body[p, q])
    for p, q, r, s in itertools.product(range(m), repeat=4):
        h = ints.two_body[p, q, r, s]
        if abs(h) > 1e-12 and abs(0.5 * h) > 1e-12:
            terms[(2 * p + 1, 2 * q + 1, 2 * r, 2 * s)] = complex(0.5 * h)
    return terms


class TestBuildHamiltonian:
    def test_equals_loop_reference(self):
        sets = [load_integrals(str(CONFIGS / "h2_sto3g.ints"))]
        sets += [random_integrals(np.random.default_rng(s), m) for m in (3, 4, 6) for s in (m, 7000 + m)]
        for ints in sets:
            got = build_hamiltonian(ints).terms
            want = build_by_loops(ints)
            assert list(got) == list(want)
            assert [repr(c) for c in got.values()] == [repr(c) for c in want.values()]

    def test_drops_small_entries(self):
        two = np.zeros((2,) * 4)
        two[0, 1, 1, 0] = two[1, 0, 0, 1] = 1.5e-12  # kept as h, dropped as h / 2
        ints = IntegralSet(2, np.diag([0.0, 1e-13]), two, 0.0)
        assert build_hamiltonian(ints).terms == {}


class TestIntegralFile:
    def test_h2_fixture_loads(self):
        ints = load_integrals(str(CONFIGS / "h2_sto3g.ints"))
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
        for arrays in (
            dict(one_body=bad_one, two_body=two, core=0.0),
            dict(one_body=one, two_body=bad_two, core=0.0),
            dict(one_body=one, two_body=two, core=float("nan")),
        ):
            with pytest.raises(ValidationError, match="integrals must be finite"):
                IntegralSet(n_modes=2, **arrays)

    def test_construction_checks_symmetry(self):
        one = np.zeros((2, 2))
        one[0, 1] = 1.0
        with pytest.raises(ValidationError, match="not symmetric"):
            IntegralSet(n_modes=2, one_body=one, two_body=np.zeros((2,) * 4), core=0.0)
        # A float copy of complex integrals would drop their imaginary part.
        with pytest.raises(TypeError):
            IntegralSet(n_modes=2, one_body=1j * np.eye(2), two_body=np.zeros((2,) * 4), core=0.0)

    def test_construction_checks_hermiticity(self, tmp_path):
        # h_pqrs = h_qpsr holds here but h_pqrs = h_srqp does not.  The set
        # used to load and map, and `vqe` failed at its first energy with
        # a message that did not name the integrals.
        path = tmp_path / "nonherm.ints"
        path.write_text("M 3 CORE 0.0\n-1.0 1 1 0 0\n1.0 1 2 2 3\n1.0 2 1 3 2\n")
        with pytest.raises(ValidationError, match="nonherm.ints: two-body integrals are not Hermitian"):
            load_integrals(str(path))
        for m in (3, 4, 8):
            two = random_integrals(np.random.default_rng(m), m).two_body
            np.testing.assert_array_equal(two, two.transpose(3, 2, 1, 0))

    def test_checked_integrals_cannot_change(self):
        ints = load_integrals(str(CONFIGS / "h2_sto3g.ints"))
        with pytest.raises(ValueError, match="read-only"):
            ints.one_body[0, 1] = 9.0
        with pytest.raises(ValueError, match="read-only"):
            ints.two_body[0, 0, 0, 0] = 9.0
        # The caller's arrays stay theirs: the set holds its own copies.
        one = np.diag([-0.5, -0.5])
        direct = IntegralSet(n_modes=2, one_body=one, two_body=np.zeros((2,) * 4), core=0.0)
        one[0, 1] = 9.0
        assert direct.one_body[0, 1] == 0.0

    def test_equality_compares_values(self):
        # The generated __eq__ compared arrays inside a tuple and raised.
        path = str(CONFIGS / "h2_sto3g.ints")
        a, b = load_integrals(path), load_integrals(path)
        assert a == b and not a != b
        assert a != IntegralSet(a.n_modes, a.one_body, a.two_body, a.core + 1.0)
        assert a != IntegralSet(a.n_modes, 2 * a.one_body, a.two_body, a.core)
        assert a != "integrals"
        with pytest.raises(TypeError):
            hash(a)

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
        ints = load_integrals(str(CONFIGS / "h2_sto3g.ints"))
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
            RDMPair(n_modes=2, d1=np.zeros((2, 2), dtype=complex), d2=d2)

    def test_checked_rdm_cannot_change(self):
        rdm = measure_rdm(StateVector.from_label("01"), 2)
        with pytest.raises(ValueError, match="read-only"):
            rdm.d2[0, 1, 0, 1] = 1.0

    def test_one_call_equals_per_operator_maps(self):
        m = 4
        rng = np.random.default_rng(41)
        amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        state = StateVector(amps / np.linalg.norm(amps))
        rdm = measure_rdm(state, m)
        for key in itertools.product(range(m), repeat=2):
            ops = [(key[0], True), (key[1], False)]
            phi = jordan_wigner(T(m, 1.0, ops)).compiled.apply(state.amplitudes)
            assert rdm.d1[key].tobytes() == np.vdot(state.amplitudes, phi).tobytes()
        for key in itertools.product(range(m), repeat=4):
            if key[0] == key[1] or key[2] == key[3]:
                assert rdm.d2[key] == 0
                continue
            ops = [(key[0], True), (key[1], True), (key[2], False), (key[3], False)]
            phi = jordan_wigner(T(m, 1.0, ops)).compiled.apply(state.amplitudes)
            assert rdm.d2[key].tobytes() == np.vdot(state.amplitudes, phi).tobytes()

    def test_equality_compares_values(self):
        one = measure_rdm(StateVector.from_label("01"), 2)
        assert one == measure_rdm(StateVector.from_label("01"), 2)
        assert one != measure_rdm(StateVector.from_label("10"), 2)
        with pytest.raises(TypeError):
            hash(one)
