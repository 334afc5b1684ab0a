"""Pauli string algebra against independent dense-matrix oracles.

The oracle matrices are rebuilt here from the 2x2 definitions rather
than reusing the library's own kron helper, so a sign or ordering bug
in the bitmask algebra cannot hide behind itself.
"""

import pickle

import numpy as np
import pytest

from vqekit import PauliString, PauliSum, PauliTerm, commutes, multiply
from vqekit.errors import CapacityError, DimensionError, ValidationError
from vqekit.pauli import _first_anticommuting_pair

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense(letters: str) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for c in letters:
        m = np.kron(m, MATS[c])
    return m


def random_letters(rng, n):
    return "".join(rng.choice(list("IXYZ")) for _ in range(n))


class TestPauliString:
    def test_letters_roundtrip(self):
        for s in ("I", "X", "XYZI", "ZZZZZ", "IXIY"):
            assert PauliString(s).letters == s

    def test_leftmost_letter_is_highest_qubit(self):
        # "XI" acts with X on qubit 1, identity on qubit 0.
        s = PauliString("XI")
        assert s.x_mask == 0b10
        assert s.z_mask == 0
        assert PauliString("IZ").z_mask == 0b01

    def test_from_ops(self):
        s = PauliString.from_ops(3, {0: "X", 2: "Z"})
        assert s.letters == "ZIX"
        assert PauliString.from_ops(2, {}).is_identity()

    def test_from_ops_out_of_range(self):
        with pytest.raises(ValidationError):
            PauliString.from_ops(2, {2: "X"})

    def test_invalid_letters(self):
        with pytest.raises(ValidationError):
            PauliString("XQ")
        with pytest.raises(ValidationError):
            PauliString("")

    def test_from_masks_bounds(self):
        with pytest.raises(ValidationError):
            PauliString.from_masks(2, 4, 0)
        with pytest.raises(ValidationError):
            PauliString.from_masks(0, 0, 0)

    def test_weight_and_identity(self):
        assert PauliString("IXYI").weight == 2
        assert PauliString.identity(4).weight == 0
        assert PauliString.identity(4).is_identity()
        assert not PauliString("IX").is_identity()

    def test_equality_and_hash(self):
        a = PauliString("XY")
        b = PauliString.from_masks(2, a.x_mask, a.z_mask)
        assert a == b and hash(a) == hash(b)
        assert a != PauliString("YX")

    def test_cached_hash_keeps_its_value(self):
        # Dict and cache lookups see the same hash as before it was cached.
        _, product = multiply(PauliString("XYZ"), PauliString("ZZI"))
        pickled = pickle.loads(pickle.dumps(PauliString("IXY")))
        made = [PauliString("XIZY"), PauliString.from_masks(3, 5, 6), product, pickled,
                PauliString.from_ops(4, {0: "Y", 3: "X"}), PauliString.identity(2)]
        for s in made:
            assert hash(s) == hash((s.n_qubits, s.x_mask, s.z_mask))

    def test_to_matrix_is_dense_kron(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            letters = random_letters(rng, int(rng.integers(1, 5)))
            np.testing.assert_allclose(
                PauliString(letters).to_matrix(), dense(letters), atol=0
            )

    def test_to_matrix_capacity(self):
        with pytest.raises(CapacityError):
            PauliString("X" * 13).to_matrix()


class TestMultiply:
    def test_single_qubit_table(self):
        # XY = iZ and cyclic friends; squares are the identity.
        cases = {
            ("X", "Y"): (1j, "Z"),
            ("Y", "Z"): (1j, "X"),
            ("Z", "X"): (1j, "Y"),
            ("Y", "X"): (-1j, "Z"),
            ("X", "X"): (1, "I"),
            ("Y", "Y"): (1, "I"),
            ("Z", "Z"): (1, "I"),
            ("I", "Y"): (1, "Y"),
        }
        for (a, b), (phase, prod) in cases.items():
            ph, s = multiply(PauliString(a), PauliString(b))
            assert ph == pytest.approx(phase)
            assert s.letters == prod

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            a, b = random_letters(rng, n), random_letters(rng, n)
            ph, s = multiply(PauliString(a), PauliString(b))
            np.testing.assert_allclose(
                ph * dense(s.letters), dense(a) @ dense(b), atol=1e-12
            )

    def test_phase_is_fourth_root(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            a = random_letters(rng, 3)
            b = random_letters(rng, 3)
            ph, _ = multiply(PauliString(a), PauliString(b))
            assert ph in (1 + 0j, 1j, -1 + 0j, -1j)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            multiply(PauliString("X"), PauliString("XX"))


class TestCommutes:
    def test_anchors(self):
        assert commutes(PauliString("XX"), PauliString("YY"))
        assert commutes(PauliString("ZI"), PauliString("IZ"))
        assert not commutes(PauliString("X"), PauliString("Z"))
        assert commutes(PauliString.identity(3), PauliString("XYZ"))

    def test_matches_matrix_commutator(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            a, b = random_letters(rng, n), random_letters(rng, n)
            comm = dense(a) @ dense(b) - dense(b) @ dense(a)
            assert commutes(PauliString(a), PauliString(b)) == np.allclose(comm, 0)

    def test_method_alias(self):
        assert PauliString("XX").commutes(PauliString("ZZ"))

    def test_first_anticommuting_pair_is_the_pair_loops_first(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n, k = int(rng.integers(1, 5)), int(rng.integers(0, 7))
            strings = [PauliString(random_letters(rng, n)) for _ in range(k)]
            want = next(
                (
                    (i, j)
                    for i in range(k)
                    for j in range(i + 1, k)
                    if not commutes(strings[i], strings[j])
                ),
                None,
            )
            masks = [(s.x_mask, s.z_mask) for s in strings]
            assert _first_anticommuting_pair(masks) == want


class TestPauliSum:
    def test_construction_preserves_order(self, twospin):
        assert [t.string.letters for t in twospin.terms] == [
            "XX",
            "YY",
            "ZZ",
            "ZI",
            "IZ",
        ]
        assert len(twospin) == 5

    def test_hermitian_rejects_complex(self):
        with pytest.raises(ValidationError):
            PauliSum.hermitian([(1j, "X")])

    def test_hermitian_rejects_nan_imaginary_part(self):
        # A NaN imaginary part used to pass the check and turn into 0.
        with pytest.raises(ValidationError, match="non-real coefficient nanj"):
            PauliSum.hermitian([(complex(0, np.nan), "Z"), (1.0, "X")])

    def test_from_terms_empty(self):
        with pytest.raises(ValidationError):
            PauliSum.from_terms([])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(DimensionError):
            PauliSum(2, [PauliTerm(1.0, PauliString("X"))])

    def test_arithmetic_matches_matrices(self, twospin):
        a = PauliSum.from_terms([(0.5, "XI"), (1.5, "ZZ")])
        np.testing.assert_allclose(
            (a + twospin).to_matrix(), a.to_matrix() + twospin.to_matrix(), atol=1e-12
        )
        np.testing.assert_allclose(
            (a - twospin).to_matrix(), a.to_matrix() - twospin.to_matrix(), atol=1e-12
        )
        np.testing.assert_allclose(
            (a * twospin).to_matrix(), a.to_matrix() @ twospin.to_matrix(), atol=1e-12
        )
        np.testing.assert_allclose(
            (2.0 * a).to_matrix(), 2.0 * a.to_matrix(), atol=1e-12
        )

    def test_simplify_merges_and_drops(self):
        s = PauliSum.from_terms([(1.0, "X"), (2.0, "X"), (1e-15, "Z"), (0.5, "Y")])
        out = s.simplify()
        assert [(t.coeff, t.string.letters) for t in out.terms] == [
            (3.0 + 0j, "X"),
            (0.5 + 0j, "Y"),
        ]

    def test_simplify_keeps_first_occurrence_order(self):
        s = PauliSum.from_terms([(1.0, "Z"), (1.0, "X"), (1.0, "Z")])
        assert [t.string.letters for t in s.simplify().terms] == ["Z", "X"]

    def test_simplify_keeps_nan(self):
        # Only |c| <= ATOL is dropped, so a NaN coefficient stays.
        out = PauliSum.hermitian([(np.nan, "Z"), (1.0, "X")]).simplify()
        assert [t.string.letters for t in out.terms] == ["Z", "X"]
        assert np.isnan(out.terms[0].coeff)
        merged = PauliSum.from_terms([(1.0, "Z"), (np.nan, "Z")]).simplify()
        assert len(merged.terms) == 1 and np.isnan(merged.terms[0].coeff)

    @pytest.mark.parametrize("n", [63, 64, 70])
    def test_simplify_on_masks_past_sixty_three_qubits(self, n):
        # Masks of 64 qubits and more exceed int64 and merge as Python ints.
        x, y, z = "X" * n, "Y" + "Z" * (n - 1), "I" * (n - 1) + "Z"
        s = PauliSum.from_terms([(1.0, x), (0.5, y), (2.0, x), (1e-13, z), (0.25, y)])
        assert [(t.coeff, t.string.letters) for t in s.simplify().terms] == [(3.0, x), (0.75, y)]

    def test_identity_part(self):
        s = PauliSum.from_terms([(0.25, "II"), (1.0, "XX"), (0.5, "II")])
        assert s.identity_part() == pytest.approx(0.75)
        assert PauliSum.zero(2).identity_part() == 0

    def test_is_hermitian(self, twospin):
        assert twospin.is_hermitian()
        # i(X - X) simplifies to zero, so it still counts as Hermitian.
        s = PauliSum.from_terms([(1j, "X"), (-1j, "X")])
        assert s.is_hermitian()
        assert not PauliSum.from_terms([(1j, "X")]).is_hermitian()

    def test_spectrum_anchor(self, twospin):
        vals = np.linalg.eigvalsh(twospin.to_matrix())
        np.testing.assert_allclose(vals, [-3.0, -1.0, 1.0, 3.0], atol=1e-12)


class TestJsonFormat:
    def test_roundtrip(self, twospin):
        again = PauliSum.loads(twospin.dumps())
        assert again.n_qubits == 2
        assert [(t.coeff, t.string.letters) for t in again.terms] == [
            (t.coeff, t.string.letters) for t in twospin.terms
        ]

    def test_empty_sum_roundtrip(self):
        z = PauliSum.zero(3)
        again = PauliSum.loads(z.dumps())
        assert again.n_qubits == 3 and len(again) == 0

    def test_serialization_simplifies(self):
        s = PauliSum.from_terms([(1.0, "X"), (1.0, "X")])
        d = s.to_json_dict()
        assert d["terms"] == [{"coeff": 2.0, "paulis": "X"}]

    def test_rejects_complex_coefficients(self):
        with pytest.raises(ValidationError):
            PauliSum.from_terms([(1j, "X")]).to_json_dict()

    @pytest.mark.parametrize(
        "doc",
        [
            '{"terms": []}',
            '{"n_qubits": 0, "terms": []}',
            '{"n_qubits": 2, "terms": [{"coeff": 1.0, "paulis": "X"}]}',
            '{"n_qubits": 1, "terms": [{"coeff": "one", "paulis": "X"}]}',
            '{"n_qubits": 1, "terms": [{"coeff": 1.0, "paulis": "X", "tag": 3}]}',
            '{"n_qubits": 1, "terms": [], "extra": 1}',
            "not json",
        ],
    )
    def test_rejects_malformed_documents(self, doc):
        with pytest.raises(ValidationError):
            PauliSum.loads(doc)
