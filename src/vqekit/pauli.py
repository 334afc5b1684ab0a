"""Pauli strings and real-weighted Pauli sums.

A string over {I, X, Y, Z} is stored as two bitmasks (one bit per qubit for
the X part and the Z part), so products and commutation checks are a few
word operations instead of a per-letter scan.  Letter conventions:

* ``letters[j]`` acts on qubit ``n - 1 - j``: the leftmost letter is the
  highest-numbered qubit, matching kets written as ``|b_{n-1} ... b_0>``.
* Basis index bit ``q`` holds the state of qubit ``q``.

Encoding per site: I=(x0,z0), X=(1,0), Y=(1,1), Z=(0,1), with the phase
convention P(x,z) = i^{x.z} X^x Z^z so that P(1,1) = Y exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError, ValidationError

__all__ = [
    "ATOL",
    "PauliString",
    "PauliTerm",
    "PauliSum",
    "CompiledSum",
    "multiply",
    "commutes",
]

# Coefficients at or below this magnitude are treated as zero when simplifying.
ATOL = 1e-12
# Largest qubit count any dense matrix is built for.
MAX_DENSE_QUBITS = 12

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}

_PHASES = (1.0 + 0j, 1j, -1.0 + 0j, -1j)  # i**k for k = 0..3
# _PHASE_SIGNS[k, p] = i**k * (-1)**p, the entries a string's phases can hold.
_PHASE_SIGNS = np.array(_PHASES)[:, None] * np.array([1.0, -1.0])


class PauliString:
    """An n-qubit Pauli operator with unit coefficient."""

    __slots__ = ("n_qubits", "x_mask", "z_mask", "_hash")

    def __init__(self, letters: str):
        if not letters or any(c not in _LETTER_TO_BITS for c in letters):
            raise ValidationError(f"invalid Pauli letters: {letters!r}")
        n = len(letters)
        x = z = 0
        for j, c in enumerate(letters):
            xb, zb = _LETTER_TO_BITS[c]
            q = n - 1 - j
            x |= xb << q
            z |= zb << q
        self.n_qubits = n
        self.x_mask = x
        self.z_mask = z
        self._hash = None

    @classmethod
    def from_masks(cls, n_qubits: int, x_mask: int, z_mask: int) -> "PauliString":
        if n_qubits < 1:
            raise ValidationError("need at least one qubit")
        limit = 1 << n_qubits
        if not (0 <= x_mask < limit and 0 <= z_mask < limit):
            raise ValidationError("mask exceeds qubit count")
        return cls._unchecked(n_qubits, x_mask, z_mask)

    @classmethod
    def _unchecked(cls, n_qubits: int, x_mask: int, z_mask: int) -> "PauliString":
        """A string from masks already known to fit n_qubits."""
        obj = cls.__new__(cls)
        obj.n_qubits, obj.x_mask, obj.z_mask, obj._hash = n_qubits, x_mask, z_mask, None
        return obj

    @classmethod
    def from_ops(cls, n_qubits: int, ops: dict[int, str]) -> "PauliString":
        """Build from {qubit index: letter}; unspecified qubits are identity."""
        x = z = 0
        for q, c in ops.items():
            if not 0 <= q < n_qubits:
                raise ValidationError(f"qubit {q} out of range for n={n_qubits}")
            xb, zb = _LETTER_TO_BITS[c]
            x |= xb << q
            z |= zb << q
        return cls.from_masks(n_qubits, x, z)

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls.from_masks(n_qubits, 0, 0)

    @property
    def letters(self) -> str:
        out = []
        for j in range(self.n_qubits):
            q = self.n_qubits - 1 - j
            out.append(_BITS_TO_LETTER[((self.x_mask >> q) & 1, (self.z_mask >> q) & 1)])
        return "".join(out)

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return (self.x_mask | self.z_mask).bit_count()

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def commutes(self, other: "PauliString") -> bool:
        return commutes(self, other)

    def to_matrix(self) -> np.ndarray:
        return PauliSum(self.n_qubits, [PauliTerm(1.0 + 0j, self)]).to_matrix()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliString)
            and self.n_qubits == other.n_qubits
            and self.x_mask == other.x_mask
            and self.z_mask == other.z_mask
        )

    def __hash__(self) -> int:
        if self._hash is None:  # strings are immutable: hashed once, on first use
            self._hash = hash((self.n_qubits, self.x_mask, self.z_mask))
        return self._hash

    def __repr__(self) -> str:
        return f"PauliString({self.letters!r})"


def _mask_product(ax: int, az: int, bx: int, bz: int) -> tuple[complex, int, int]:
    """P(ax,az).P(bx,bz) as (phase, x, z) with phase in {1, i, -1, -i}."""
    x3 = ax ^ bx
    z3 = az ^ bz
    # Power of i from P(x,z) = i^{x.z} X^x Z^z and commuting Z^z1 past X^x2.
    e = (
        (ax & az).bit_count()
        + (bx & bz).bit_count()
        + 2 * (az & bx).bit_count()
        - (x3 & z3).bit_count()
    ) % 4
    return _PHASES[e], x3, z3


def multiply(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Product a.b as (phase, string) with phase in {1, i, -1, -i}."""
    if a.n_qubits != b.n_qubits:
        raise DimensionError(f"qubit mismatch: {a.n_qubits} vs {b.n_qubits}")
    phase, x, z = _mask_product(a.x_mask, a.z_mask, b.x_mask, b.z_mask)
    return phase, PauliString.from_masks(a.n_qubits, x, z)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff [a, b] = 0: an even number of sites anticommute."""
    if a.n_qubits != b.n_qubits:
        raise DimensionError(f"qubit mismatch: {a.n_qubits} vs {b.n_qubits}")
    parity = ((a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()) % 2
    return parity == 0


def _first_anticommuting_pair(masks) -> tuple[int, int] | None:
    """The first pair i < j, in (i, j) order, of (x_mask, z_mask) pairs whose
    strings anticommute, or None: the rule of `commutes` on all pairs at once."""
    if len(masks) < 2:
        return None
    xs, zs = np.array(masks, dtype=np.uint64).reshape(-1, 2).T
    odd = np.bitwise_count(xs[:, None] & zs)
    bad = (odd ^ odd.T) & 1 != 0
    if not bad.any():
        return None
    # bad is symmetric with a zero diagonal, so its first True in row-major
    # order lies above the diagonal: the lowest i, then the lowest j > i.
    return divmod(int(bad.argmax()), xs.size)


def _x_mask_action(n_qubits: int, x: int, z_masks) -> tuple[np.ndarray, np.ndarray]:
    """(src, phases) of the strings (x, z) for each z in z_masks, which share
    src = b ^ x: row k of phases is i^{|x & z_k|} (-1)^{|src & z_k|}.  One
    (k x d) bitwise_count gives every row's signs, and one select the rows.
    x may also be a (k, 1) column of masks, one per z: src is then (k x d)."""
    src = np.arange(1 << n_qubits, dtype=np.intp) ^ x
    zs = np.array(z_masks, dtype=np.intp)[:, None]
    table = _PHASE_SIGNS[np.bitwise_count(x & zs) & 3]  # (k, 1, 2): each row's two values
    odd = (np.bitwise_count(src & zs) & 1).view(bool)
    return src, np.where(odd, table[..., 1], table[..., 0])


@dataclass(frozen=True)
class PauliTerm:
    coeff: complex
    string: PauliString


class CompiledSum:
    """A PauliSum grouped by X mask: (H psi)[b] = sum_g diag_g[b] psi[src_g[b]].

    Terms that share an X mask x move amplitude b ^ x to b, each with its own
    phase and sign, so one group is one gather and one complex diagonal:
    diag = sum_k c_k i^{|x & z_k|} (-1)^{|src & z_k|}, summed in term order.
    The flags are the sum's validation, each done once: `hermitian` (merged
    coefficients real) when the form is built, and `commuting` (every pair
    of terms commutes) on its first read, since only exponentiating a
    generator reads it.
    """

    __slots__ = ("groups", "hermitian", "_masks", "_commuting")

    def __init__(self, h: "PauliSum"):
        merged: dict[tuple[int, int], complex] = {}
        by_x: dict[int, list[PauliTerm]] = {}
        for t in h.terms:
            key = (t.string.x_mask, t.string.z_mask)
            merged[key] = merged.get(key, 0j) + t.coeff
            by_x.setdefault(key[0], []).append(t)
        groups = []
        for x, ts in by_x.items():
            src, phases = _x_mask_action(h.n_qubits, x, [t.string.z_mask for t in ts])
            # Each c_k * phases_k is exact; the rows add in term order from zeros.
            coeffs = np.array([t.coeff for t in ts], dtype=complex)[:, None]
            groups.append((src, np.add.reduce(coeffs * phases, axis=0, initial=0j)))
        self.groups = tuple(groups)
        self.hermitian = all(abs(c.imag) <= 1e-10 for c in merged.values())
        self._masks = list(merged)
        self._commuting = None

    @property
    def commuting(self) -> bool:
        """Every pair of terms commutes: tested on first read, then cached."""
        if self._commuting is None:
            self._commuting = _first_anticommuting_pair(self._masks) is None
        return self._commuting

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """H psi for the amplitude vector psi."""
        out = np.zeros_like(amps)
        for src, diag in self.groups:
            out += diag * amps[src]
        return out


class PauliSum:
    """Linear combination of Pauli strings on a fixed qubit count.

    Term order is preserved (simplify merges onto first occurrence), which
    keeps downstream grouping and serialization deterministic.  The terms
    never change, so the compiled form is built on first use and cached.
    """

    __slots__ = ("n_qubits", "terms", "_compiled")

    def __init__(self, n_qubits: int, terms: list[PauliTerm] | tuple[PauliTerm, ...] = ()):
        if n_qubits < 1:
            raise ValidationError("need at least one qubit")
        for t in terms:
            if t.string.n_qubits != n_qubits:
                raise DimensionError("term qubit count differs from sum")
        self.n_qubits = n_qubits
        self.terms = tuple(terms)
        self._compiled = None

    @property
    def compiled(self) -> CompiledSum:
        """The X-mask grouped form, built on first use and then cached."""
        if self._compiled is None:
            self._compiled = CompiledSum(self)
        return self._compiled

    @classmethod
    def from_terms(cls, pairs: list[tuple[complex, str]]) -> "PauliSum":
        """Build from (coefficient, letters) pairs; all strings equal length."""
        if not pairs:
            raise ValidationError("from_terms needs at least one term")
        terms = [PauliTerm(complex(c), PauliString(s)) for c, s in pairs]
        return cls(terms[0].string.n_qubits, terms)

    @classmethod
    def hermitian(cls, pairs: list[tuple[float, str]]) -> "PauliSum":
        """Like from_terms but rejects non-real coefficients, NaN parts included."""
        for c, _ in pairs:
            if not abs(complex(c).imag) <= ATOL:
                raise ValidationError(f"non-real coefficient {c!r} in Hermitian sum")
        return cls.from_terms([(complex(c).real, s) for c, s in pairs])

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n_qubits, [PauliTerm(complex(coeff), PauliString.identity(n_qubits))])

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits, [])

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise DimensionError("cannot add sums on different qubit counts")
        return PauliSum(self.n_qubits, self.terms + other.terms)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            if self.n_qubits != other.n_qubits:
                raise DimensionError("cannot multiply sums on different qubit counts")
            out = []
            for ta in self.terms:
                for tb in other.terms:
                    ph, s = multiply(ta.string, tb.string)
                    out.append(PauliTerm(ta.coeff * tb.coeff * ph, s))
            return PauliSum(self.n_qubits, out)
        return PauliSum(self.n_qubits, [PauliTerm(t.coeff * other, t.string) for t in self.terms])

    __rmul__ = __mul__

    @classmethod
    def _merged(cls, n_qubits: int, coeffs, xs, zs, owners=None, count: int = 1) -> list["PauliSum"]:
        """The strings (coeffs, xs, zs) merged into `count` sums, entry k into sum
        owners[k] (ascending; all 0 if None): strings in order of first occurrence,
        each coefficient its first value plus the later ones in stream order, |c|
        <= ATOL dropped.  Keys sort column by column, never packed, so never wrap."""
        keys = (zs, xs) if owners is None else (zs, xs, owners)
        order = np.lexsort(keys)  # stable: a key's entries stay in stream order
        c = coeffs[order]
        new = np.zeros(order.size, dtype=bool)
        new[:1] = True
        for key in keys:
            k = key[order]
            new[1:] |= k[1:] != k[:-1]
        acc = c[new]
        if acc.size < c.size:
            np.add.at(acc, np.cumsum(new)[~new] - 1, c[~new])  # one at a time, in stream order
        out = np.argsort(order[new])  # keys in order of first occurrence
        out = out[~(np.abs(acc[out]) <= ATOL)]  # written so that NaN is kept
        firsts = order[new][out]
        strings = zip(acc[out].tolist(), xs[firsts].tolist(), zs[firsts].tolist())
        terms = [PauliTerm(c, PauliString._unchecked(n_qubits, x, z)) for c, x, z in strings]
        if owners is None:
            return [cls(n_qubits, terms)]
        ends = np.searchsorted(owners[firsts], np.arange(count), "right").tolist()
        return [cls(n_qubits, terms[a:b]) for a, b in zip([0, *ends], ends)]

    def simplify(self) -> "PauliSum":
        """Merge duplicate strings and drop coefficients with |c| <= ATOL."""
        dtype = np.int64 if self.n_qubits < 64 else object  # wider masks stay Python ints
        xs = np.array([t.string.x_mask for t in self.terms], dtype=dtype)
        zs = np.array([t.string.z_mask for t in self.terms], dtype=dtype)
        coeffs = np.array([t.coeff for t in self.terms], dtype=complex)
        return PauliSum._merged(self.n_qubits, coeffs, xs, zs)[0]

    def is_hermitian(self) -> bool:
        """True when every merged coefficient is real to 1e-10."""
        return self.compiled.hermitian

    def identity_part(self) -> complex:
        return sum(
            (t.coeff for t in self.terms if t.string.is_identity()),
            start=0.0 + 0j,
        )

    def to_matrix(self) -> np.ndarray:
        if self.n_qubits > MAX_DENSE_QUBITS:
            raise CapacityError(
                f"dense matrix for {self.n_qubits} qubits exceeds limit {MAX_DENSE_QUBITS}"
            )
        dim = 1 << self.n_qubits
        m = np.zeros((dim, dim), dtype=complex)
        rows = np.arange(dim)
        for src, diag in self.compiled.groups:
            m[rows, src] = diag
        return m

    def to_json_dict(self) -> dict:
        s = self.simplify()
        for t in s.terms:
            if abs(t.coeff.imag) > 1e-10:
                raise ValidationError("refusing to serialize non-Hermitian sum")
        return {
            "n_qubits": s.n_qubits,
            "terms": [{"coeff": t.coeff.real, "paulis": t.string.letters} for t in s.terms],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PauliSum":
        try:
            n = data["n_qubits"]
            raw = data["terms"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad Hamiltonian JSON: missing {exc}") from exc
        extra = set(data) - {"n_qubits", "terms"}
        if extra:
            raise ValidationError(f"bad Hamiltonian JSON: unknown keys {sorted(extra)}")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValidationError("n_qubits must be a positive integer")
        if not isinstance(raw, list):
            raise ValidationError("terms must be a list")
        terms = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise ValidationError(f"term {i}: expected an object")
            extra = set(entry) - {"coeff", "paulis"}
            if extra:
                raise ValidationError(f"term {i}: unknown keys {sorted(extra)}")
            missing = {"coeff", "paulis"} - set(entry)
            if missing:
                raise ValidationError(f"term {i}: missing keys {sorted(missing)}")
            coeff = entry["coeff"]
            real = isinstance(coeff, (int, float)) and not isinstance(coeff, bool)
            if not (real and math.isfinite(coeff)):
                raise ValidationError(f"term {i}: coeff must be a finite real number")
            s = entry["paulis"]
            if not isinstance(s, str) or len(s) != n:
                raise ValidationError(f"term {i}: paulis must be a string of length {n}")
            terms.append(PauliTerm(complex(coeff), PauliString(s)))
        return cls(n, terms)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "PauliSum":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad Hamiltonian JSON: {exc}") from exc
        return cls.from_json_dict(data)

    def __repr__(self) -> str:
        body = " + ".join(f"({t.coeff})*{t.string.letters}" for t in self.terms[:6])
        if len(self.terms) > 6:
            body += f" + ... [{len(self.terms)} terms]"
        return f"PauliSum({self.n_qubits}, {body or '0'})"
