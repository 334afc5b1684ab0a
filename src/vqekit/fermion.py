"""Second-quantized operators, their qubit mapping, and integral ingestion.

Ladder operators are encoded as small ints (mode*2 + dagger bit) inside
term keys, with normal ordering bringing every term to the canonical
"daggers left, modes ascending within each block" form so equality checks
are dictionary comparisons.

The qubit mapping is Jordan-Wigner with mode p on qubit p:

    adag_p -> Z_0 ... Z_{p-1} (X_p - i Y_p)/2
    a_p    -> Z_0 ... Z_{p-1} (X_p + i Y_p)/2
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .errors import DimensionError, ValidationError
from .pauli import _PHASES, PauliSum
from .simulator import StateVector

__all__ = [
    "FermionOperator",
    "normal_order",
    "commutator",
    "jordan_wigner",
    "IntegralSet",
    "load_integrals",
    "build_hamiltonian",
    "RDMPair",
    "measure_rdm",
    "assemble_observable",
    "energy_from_rdm",
]

_COEFF_ATOL = 1e-12
# is_hermitian, is_zero and equals ignore normal-ordered coefficients this small.
_OP_ATOL = 1e-10
# Jordan-Wigner masks are int64 words, kept clear of the sign bit.
MAX_JW_MODES = 62
_PHASE_ARRAY = np.array(_PHASES)
_LADDER_FACTORS = np.array([[0.5 + 0j, 0.5j], [0.5 + 0j, -0.5j]])  # [dagger, X or Y branch]


def _kept(terms: dict) -> dict[tuple[int, ...], complex]:
    """The terms with |c| > 1e-12, each coefficient made complex."""
    return {ops: complex(c) for ops, c in terms.items() if abs(c) > _COEFF_ATOL}


def _op(mode: int, dagger: bool) -> int:
    return (mode << 1) | int(dagger)


def _format_ops(ops: tuple[int, ...]) -> str:
    if not ops:
        return "1"
    return " ".join(f"a{o >> 1}^" if o & 1 else f"a{o >> 1}" for o in ops)


class FermionOperator:
    """Polynomial in fermionic ladder operators on a fixed mode count."""

    __slots__ = ("n_modes", "terms")

    def __init__(self, n_modes: int, terms: dict[tuple[int, ...], complex] | None = None):
        if n_modes < 1:
            raise ValidationError("need at least one mode")
        bad = [o >> 1 for ops in terms or () for o in ops if not 0 <= o >> 1 < n_modes]
        if bad:
            raise ValidationError(f"mode {bad[0]} out of range")
        self.n_modes = n_modes
        self.terms = _kept(terms or {})

    @classmethod
    def _unchecked(cls, n_modes: int, terms: dict) -> "FermionOperator":
        """Algebra on checked operands: no mode check, the same |c| drop."""
        f = cls.__new__(cls)
        f.n_modes, f.terms = n_modes, _kept(terms)
        return f

    @classmethod
    def from_term(
        cls, n_modes: int, coeff: complex, ops: list[tuple[int, bool]]
    ) -> "FermionOperator":
        """Single product term; ops are (mode, dagger) pairs, leftmost first."""
        key = tuple([_op(m, d) for m, d in ops])
        return cls(n_modes, {key: complex(coeff)})

    @classmethod
    def identity(cls, n_modes: int, coeff: complex = 1.0) -> "FermionOperator":
        return cls(n_modes, {(): complex(coeff)})

    @classmethod
    def zero(cls, n_modes: int) -> "FermionOperator":
        return cls(n_modes, {})

    @classmethod
    def number_operator(cls, n_modes: int) -> "FermionOperator":
        terms = {(_op(p, True), _op(p, False)): 1.0 + 0j for p in range(n_modes)}
        return cls(n_modes, terms)

    def _check(self, other: "FermionOperator") -> None:
        if self.n_modes != other.n_modes:
            raise DimensionError("operators act on different mode counts")

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        self._check(other)
        out = dict(self.terms)
        for ops, c in other.terms.items():
            out[ops] = out.get(ops, 0.0) + c
        return FermionOperator._unchecked(self.n_modes, out)

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, FermionOperator):
            self._check(other)
            out: dict[tuple[int, ...], complex] = {}
            for ops_a, ca in self.terms.items():
                for ops_b, cb in other.terms.items():
                    key = ops_a + ops_b
                    out[key] = out.get(key, 0.0) + ca * cb
            return FermionOperator._unchecked(self.n_modes, out)
        return FermionOperator._unchecked(
            self.n_modes, {ops: c * other for ops, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def hermitian_conjugate(self) -> "FermionOperator":
        out = {}
        for ops, c in self.terms.items():
            key = tuple([o ^ 1 for o in reversed(ops)])
            out[key] = c.conjugate()
        return FermionOperator._unchecked(self.n_modes, out)

    def normal_order(self) -> "FermionOperator":
        return normal_order(self)

    def is_hermitian(self) -> bool:
        return self.equals(self.hermitian_conjugate())

    def is_zero(self) -> bool:
        return all(abs(c) <= _OP_ATOL for c in self.terms.values())

    def equals(self, other: "FermionOperator") -> bool:
        self._check(other)
        return normal_order(self - other).is_zero()

    def __repr__(self) -> str:
        body = " + ".join(
            f"({c})*{_format_ops(ops)}" for ops, c in list(self.terms.items())[:4]
        )
        if len(self.terms) > 4:
            body += f" + ... [{len(self.terms)} terms]"
        return f"FermionOperator({self.n_modes}, {body or '0'})"


def normal_order(f: FermionOperator) -> FermionOperator:
    """Canonical form: daggers left of annihilators, modes ascending in each
    block, signs tracked through every anticommutation; a_p a_p^ contractions
    spawn delta terms."""
    out: dict[tuple[int, ...], complex] = {}
    stack: list[tuple[list[int], complex, int]] = [
        (list(ops), c, 0) for ops, c in f.terms.items()
    ]
    while stack:
        ops, coeff, start = stack.pop()
        i = max(start, 0)
        dead = False
        while i + 1 <= len(ops) - 1:
            a, b = ops[i], ops[i + 1]  # codes mode << 1 | dagger
            if a & 1 < b & 1:
                # a_p adag_q = delta_pq - adag_q a_p
                if a >> 1 == b >> 1:
                    contracted = ops[:i] + ops[i + 2 :]
                    stack.append((contracted, coeff, i - 1))
                ops[i], ops[i + 1] = b, a
                coeff = -coeff
                i = max(i - 1, 0)
            elif a & 1 == b & 1 and a > b:  # one kind: codes order as modes do
                ops[i], ops[i + 1] = b, a
                coeff = -coeff
                i = max(i - 1, 0)
            elif a == b:
                dead = True  # adag adag or a a on one mode vanishes
                break
            else:
                i += 1
        if dead:
            continue
        key = tuple(ops)
        out[key] = out.get(key, 0.0) + coeff
    return FermionOperator._unchecked(f.n_modes, out)


def commutator(a: FermionOperator, b: FermionOperator) -> FermionOperator:
    return normal_order(a * b - b * a)


def jordan_wigner(f: FermionOperator) -> PauliSum:
    """Map to qubits, one qubit per mode; Hermitian input gives real coefficients.
    `_jordan_wigner_all` on one operator: bit-identical to multiplying the ladder
    images product by product and merging by `PauliSum.simplify`'s rule."""
    return _jordan_wigner_all([f])[0]


def _jordan_wigner_all(fs: list[FermionOperator]) -> list[PauliSum]:
    """Images of operators on one mode count, expanded and merged together.

    Each ladder product of k operators becomes 2^k (coefficient, X mask,
    Z mask) entries in stream order: operators, then terms, then the X
    branch before the Y branch of each ladder operator, the first one the
    most significant.  Each step multiplies every entry by its next factor
    (1/2 or -+i/2) and then by the phase i^e of `pauli._mask_product`: the
    complex multiplies, in the order, of one product at a time."""
    n = fs[0].n_modes
    if n > MAX_JW_MODES:
        raise ValidationError(f"Jordan-Wigner maps at most {MAX_JW_MODES} modes, got {n}")
    products = [ops for f in fs for ops in f.terms]
    lengths = np.array([len(ops) for ops in products], dtype=np.intp)
    steps = int(lengths.max(initial=0))
    # Products end on the last step, after padding with mode n, the identity
    # factor, so step j takes bit steps-1-j of an entry's branch index, and
    # that bit is 0 on padding.
    ladders = np.array([(2 * n,) * (steps - len(ops)) + ops for ops in products], dtype=np.intp)
    sizes = 1 << lengths
    term = np.repeat(np.arange(len(products)), sizes)
    branch = np.arange(term.size) - (np.cumsum(sizes) - sizes)[term]
    coeffs = np.array([c for f in fs for c in f.terms.values()], dtype=complex)[term]
    xs = zs = np.zeros(term.size, dtype=np.int64)  # each step makes new arrays
    x_bits = np.append(1 << np.arange(n, dtype=np.int64), 0)
    z_below = np.append(x_bits[:-1] - 1, 0)
    for j, op in enumerate(ladders[term].T):
        y = (branch >> (steps - 1 - j)) & 1
        bx = x_bits[op >> 1]
        bz = z_below[op >> 1] | (bx * y)
        x3, z3 = xs ^ bx, zs ^ bz
        e = np.bitwise_count(xs & zs) + np.bitwise_count(bx & bz) + 2 * np.bitwise_count(zs & bx)
        e = (e - np.bitwise_count(x3 & z3)) & 3  # uint8 wraps mod 256, a multiple of 4
        product = coeffs * _LADDER_FACTORS[op & 1, y] * _PHASE_ARRAY[e]
        coeffs = np.where(op < 2 * n, product, coeffs)
        xs, zs = x3, z3
    owners = np.repeat(np.arange(len(fs)), [len(f.terms) for f in fs])[term]
    return PauliSum._merged(n, coeffs, xs, zs, owners, len(fs))


def _read_only(obj, name: str, dtype) -> None:
    """Replace a frozen dataclass's array field with a read-only copy; a
    lossy cast, such as complex to float, raises TypeError."""
    arr = np.asarray(getattr(obj, name)).astype(dtype, casting="safe")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


def _equal_by_value(a, b):
    """`==` for a frozen dataclass with array fields: every field by value."""
    if type(b) is not type(a):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclass_fields(a))


@dataclass(frozen=True, eq=False)
class IntegralSet:
    """Molecular spin-orbital integrals: h_pq, h_pqrs, and a scalar core.
    Checked once, when built, and stored as read-only float copies."""

    n_modes: int
    one_body: np.ndarray
    two_body: np.ndarray
    core: float

    __eq__ = _equal_by_value

    def __post_init__(self):
        _read_only(self, "one_body", float)
        _read_only(self, "two_body", float)
        atol = 1e-10
        m = self.n_modes
        if self.one_body.shape != (m, m) or self.two_body.shape != (m, m, m, m):
            raise ValidationError("integral array shapes do not match n_modes")
        arrays = (self.one_body, self.two_body, self.core)
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValidationError("integrals must be finite")
        if np.max(np.abs(self.one_body - self.one_body.T)) > atol:
            raise ValidationError("one-body integrals are not symmetric")
        # h_pqrs must equal h_qpsr (simultaneous p<->q, r<->s relabeling).
        swapped = np.transpose(self.two_body, (1, 0, 3, 2))
        if np.max(np.abs(self.two_body - swapped)) > atol:
            raise ValidationError("two-body integrals violate pq/rs exchange symmetry")
        # h_pqrs must equal h_srqp, its Hermitian conjugate's coefficient.
        adjoint = np.transpose(self.two_body, (3, 2, 1, 0))
        if np.max(np.abs(self.two_body - adjoint)) > atol:
            raise ValidationError("two-body integrals are not Hermitian: h_pqrs != h_srqp")


def load_integrals(path: str) -> IntegralSet:
    """Read the plain-text integral format.

    First line: ``M <count> CORE <real>``.  Every following line is
    ``value p q r s`` with 1-based indices; ``r = s = 0`` marks a one-body
    entry.  Blank lines and ``#`` comments are skipped.  All nonzero
    elements must be listed explicitly; symmetry is validated, not assumed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    header = None
    body_start = 0
    for k, line in enumerate(lines):
        txt = line.split("#", 1)[0].strip()
        if txt:
            header = txt
            body_start = k + 1
            break
    if header is None:
        raise ValidationError(f"{path}: empty integral file")
    parts = header.split()
    if len(parts) != 4 or parts[0] != "M" or parts[2] != "CORE":
        raise ValidationError(f"{path}:1: bad header {header!r}")
    try:
        m = int(parts[1])
        core = float(parts[3])
    except ValueError as exc:
        raise ValidationError(f"{path}:1: bad header numbers") from exc
    if not np.isfinite(core):
        raise ValidationError(f"{path}:1: core must be finite, got {parts[3]!r}")
    if m < 1:
        raise ValidationError(f"{path}:1: mode count must be positive, got {m}")
    one = np.zeros((m, m))
    two = np.zeros((m, m, m, m))
    seen: set[tuple] = set()
    for k, line in enumerate(lines[body_start:], start=body_start + 1):
        txt = line.split("#", 1)[0].strip()
        if not txt:
            continue
        fields = txt.split()
        if len(fields) != 5:
            raise ValidationError(f"{path}:{k}: expected 'value p q r s'")
        try:
            val = float(fields[0])
            p, q, r, s = (int(x) for x in fields[1:])
        except ValueError as exc:
            raise ValidationError(f"{path}:{k}: bad numbers") from exc
        if not np.isfinite(val):
            raise ValidationError(f"{path}:{k}: value must be finite, got {fields[0]!r}")
        if r == 0 and s == 0:
            if not (1 <= p <= m and 1 <= q <= m):
                raise ValidationError(f"{path}:{k}: one-body index out of range")
            key = ("h1", p, q)
            if key in seen:
                raise ValidationError(f"{path}:{k}: duplicate one-body entry")
            seen.add(key)
            one[p - 1, q - 1] = val
        else:
            if not all(1 <= x <= m for x in (p, q, r, s)):
                raise ValidationError(f"{path}:{k}: two-body index out of range")
            key = ("h2", p, q, r, s)
            if key in seen:
                raise ValidationError(f"{path}:{k}: duplicate two-body entry")
            seen.add(key)
            two[p - 1, q - 1, r - 1, s - 1] = val
    try:
        return IntegralSet(n_modes=m, one_body=one, two_body=two, core=core)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def build_hamiltonian(ints: IntegralSet) -> FermionOperator:
    """H = sum h_pq adag_p a_q + (1/2) sum h_pqrs adag_p adag_q a_r a_s + core,
    with the terms whose |h| > 1e-12 in C order of their indices."""
    terms: dict[tuple[int, ...], complex] = {(): ints.core}
    for h, scale in ((ints.one_body, 1.0), (ints.two_body, 0.5)):
        idx = np.nonzero(np.abs(h) > _COEFF_ATOL)
        # adag on the first half of the indices, a on the rest.
        ops = [(2 * i + (k < h.ndim // 2)).tolist() for k, i in enumerate(idx)]
        terms.update(zip(zip(*ops), (scale * h[idx]).tolist()))
    return FermionOperator._unchecked(ints.n_modes, terms)


@dataclass(frozen=True, eq=False)
class RDMPair:
    """One- and two-body reduced density matrices.

    d1[i, p] = <adag_i a_p>, d2[i, j, p, q] = <adag_i adag_j a_p a_q>.
    Checked once, when built, and stored as read-only complex copies.
    """

    n_modes: int
    d1: np.ndarray
    d2: np.ndarray

    __eq__ = _equal_by_value

    def __post_init__(self):
        _read_only(self, "d1", complex)
        _read_only(self, "d2", complex)
        atol = 1e-9
        m = self.n_modes
        if self.d1.shape != (m, m) or self.d2.shape != (m, m, m, m):
            raise ValidationError("RDM shapes do not match n_modes")
        if np.max(np.abs(self.d1 - self.d1.conj().T)) > atol:
            raise ValidationError("d1 is not Hermitian")
        if np.max(np.abs(self.d2 + np.transpose(self.d2, (1, 0, 2, 3)))) > atol:
            raise ValidationError("d2 is not antisymmetric in its creation pair")
        if np.max(np.abs(self.d2 + np.transpose(self.d2, (0, 1, 3, 2)))) > atol:
            raise ValidationError("d2 is not antisymmetric in its annihilation pair")

    def to_json_dict(self) -> dict:
        def encode(arr: np.ndarray):
            re = np.real(arr)
            im = np.imag(arr)
            stacked = np.stack([re, im], axis=-1)
            return stacked.tolist()

        return {"n_modes": self.n_modes, "d1": encode(self.d1), "d2": encode(self.d2)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RDMPair":
        extra = set(data) - {"n_modes", "d1", "d2"}
        if extra:
            raise ValidationError(f"bad RDM JSON: unknown keys {sorted(extra)}")
        try:
            m = int(data["n_modes"])
            d1 = np.asarray(data["d1"], dtype=float)
            d2 = np.asarray(data["d2"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad RDM JSON: {exc}") from exc
        if d1.shape != (m, m, 2) or d2.shape != (m, m, m, m, 2):
            raise ValidationError("bad RDM JSON: array shapes")
        return cls(
            n_modes=m,
            d1=d1[..., 0] + 1j * d1[..., 1],
            d2=d2[..., 0] + 1j * d2[..., 1],
        )


def measure_rdm(state, n_modes: int) -> RDMPair:
    """Exact RDMs of a simulated state (the partial-tomography view)."""
    if not isinstance(state, StateVector):
        raise ValidationError("measure_rdm expects a StateVector")
    if state.n_qubits != n_modes:
        raise DimensionError("state qubit count differs from mode count")

    m = n_modes
    keys = list(itertools.product(range(m), repeat=2))
    keys += [k for k in itertools.product(range(m), repeat=4) if k[0] != k[1] and k[2] != k[3]]
    # adag on the first half of each key's modes, a on the rest: one image each.
    ladders = [[(p, k < len(key) // 2) for k, p in enumerate(key)] for key in keys]
    images = _jordan_wigner_all([FermionOperator.from_term(m, 1.0, ops) for ops in ladders])
    amps = state.amplitudes
    d1 = np.zeros((m, m), dtype=complex)
    d2 = np.zeros((m,) * 4, dtype=complex)
    for key, ps in zip(keys, images):
        (d1 if len(key) == 2 else d2)[key] = np.vdot(amps, ps.compiled.apply(amps))
    return RDMPair(n_modes=n_modes, d1=d1, d2=d2)


def assemble_observable(rdm: RDMPair, f: np.ndarray, g: np.ndarray) -> float:
    """<F> + <G> = sum f_ip d1[i,p] + sum g_ijpq d2[i,j,p,q]."""
    f = np.asarray(f)
    g = np.asarray(g)
    m = rdm.n_modes
    if f.shape != (m, m):
        raise DimensionError(f"one-body coefficient shape {f.shape} != ({m}, {m})")
    if g.shape != (m, m, m, m):
        raise DimensionError(f"two-body coefficient shape {g.shape} is wrong")
    total = complex(np.sum(f * rdm.d1) + np.sum(g * rdm.d2))
    if abs(total.imag) > 1e-9 * max(1.0, abs(total)):
        raise ValidationError(f"observable came out non-real: {total}")
    return float(total.real)


def energy_from_rdm(rdm: RDMPair, ints: IntegralSet) -> float:
    """Electronic energy from measured RDMs plus the scalar core."""
    return assemble_observable(rdm, ints.one_body, 0.5 * ints.two_body) + ints.core
