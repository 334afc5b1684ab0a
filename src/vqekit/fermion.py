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

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .pauli import PauliString, PauliSum, PauliTerm

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


def _op(mode: int, dagger: bool) -> int:
    return (mode << 1) | int(dagger)


def _mode(op: int) -> int:
    return op >> 1


def _is_dag(op: int) -> bool:
    return bool(op & 1)


def _format_ops(ops: tuple[int, ...]) -> str:
    if not ops:
        return "1"
    return " ".join(f"a{_mode(o)}^" if _is_dag(o) else f"a{_mode(o)}" for o in ops)


class FermionOperator:
    """Polynomial in fermionic ladder operators on a fixed mode count."""

    __slots__ = ("n_modes", "terms")

    def __init__(self, n_modes: int, terms: dict[tuple[int, ...], complex] | None = None):
        if n_modes < 1:
            raise ValidationError("need at least one mode")
        self.n_modes = n_modes
        self.terms: dict[tuple[int, ...], complex] = {}
        if terms:
            for ops, c in terms.items():
                for o in ops:
                    if not 0 <= _mode(o) < n_modes:
                        raise ValidationError(f"mode {_mode(o)} out of range")
                if abs(c) > _COEFF_ATOL:
                    self.terms[tuple(ops)] = complex(c)

    @classmethod
    def from_term(
        cls, n_modes: int, coeff: complex, ops: list[tuple[int, bool]]
    ) -> "FermionOperator":
        """Single product term; ops are (mode, dagger) pairs, leftmost first."""
        key = tuple(_op(m, d) for m, d in ops)
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
        return FermionOperator(self.n_modes, out)

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
            return FermionOperator(self.n_modes, out)
        return FermionOperator(
            self.n_modes, {ops: c * other for ops, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def hermitian_conjugate(self) -> "FermionOperator":
        out = {}
        for ops, c in self.terms.items():
            key = tuple(o ^ 1 for o in reversed(ops))
            out[key] = np.conj(c)
        return FermionOperator(self.n_modes, out)

    def normal_order(self) -> "FermionOperator":
        return normal_order(self)

    def is_hermitian(self, atol: float = 1e-10) -> bool:
        diff = normal_order(self - self.hermitian_conjugate())
        return all(abs(c) <= atol for c in diff.terms.values())

    def is_zero(self, atol: float = _COEFF_ATOL) -> bool:
        return all(abs(c) <= atol for c in self.terms.values())

    def equals(self, other: "FermionOperator", atol: float = 1e-10) -> bool:
        self._check(other)
        return normal_order(self - other).is_zero(atol)

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
            a, b = ops[i], ops[i + 1]
            da, db = _is_dag(a), _is_dag(b)
            if not da and db:
                # a_p adag_q = delta_pq - adag_q a_p
                if _mode(a) == _mode(b):
                    contracted = ops[:i] + ops[i + 2 :]
                    stack.append((contracted, coeff, i - 1))
                ops[i], ops[i + 1] = b, a
                coeff = -coeff
                i = max(i - 1, 0)
            elif da == db and _mode(a) > _mode(b):
                ops[i], ops[i + 1] = b, a
                coeff = -coeff
                i = max(i - 1, 0)
            elif da == db and _mode(a) == _mode(b):
                dead = True  # adag adag or a a on one mode vanishes
                break
            else:
                i += 1
        if dead:
            continue
        key = tuple(ops)
        out[key] = out.get(key, 0.0) + coeff
    return FermionOperator(f.n_modes, out)


def commutator(a: FermionOperator, b: FermionOperator) -> FermionOperator:
    return normal_order(a * b - b * a)


def _jw_factor(n_modes: int, op: int) -> PauliSum:
    p = _mode(op)
    prefix = (1 << p) - 1
    x_part = PauliTerm(0.5 + 0j, PauliString.from_masks(n_modes, 1 << p, prefix))
    y_coeff = -0.5j if _is_dag(op) else 0.5j
    y_part = PauliTerm(y_coeff, PauliString.from_masks(n_modes, 1 << p, prefix | (1 << p)))
    return PauliSum(n_modes, [x_part, y_part])


def jordan_wigner(f: FermionOperator) -> PauliSum:
    """Map to qubits, one qubit per mode.  Hermitian input gives real
    coefficients after simplification."""
    n = f.n_modes
    total = PauliSum.zero(n)
    for ops, coeff in f.terms.items():
        acc = PauliSum.identity(n, coeff)
        for op in ops:
            acc = acc * _jw_factor(n, op)
        total = total + acc
    return total.simplify()


@dataclass(frozen=True)
class IntegralSet:
    """Molecular spin-orbital integrals: h_pq, h_pqrs, and a scalar core."""

    n_modes: int
    one_body: np.ndarray
    two_body: np.ndarray
    core: float

    def validate(self, atol: float = 1e-10) -> None:
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
    ints = IntegralSet(n_modes=m, one_body=one, two_body=two, core=core)
    ints.validate()
    return ints


def build_hamiltonian(ints: IntegralSet) -> FermionOperator:
    """H = sum h_pq adag_p a_q + (1/2) sum h_pqrs adag_p adag_q a_r a_s + core."""
    ints.validate()
    m = ints.n_modes
    terms: dict[tuple[int, ...], complex] = {}
    if abs(ints.core) > _COEFF_ATOL:
        terms[()] = complex(ints.core)
    for p in range(m):
        for q in range(m):
            h = ints.one_body[p, q]
            if abs(h) > _COEFF_ATOL:
                terms[(_op(p, True), _op(q, False))] = complex(h)
    for p in range(m):
        for q in range(m):
            for r in range(m):
                for s in range(m):
                    h = ints.two_body[p, q, r, s]
                    if abs(h) > _COEFF_ATOL:
                        key = (_op(p, True), _op(q, True), _op(r, False), _op(s, False))
                        terms[key] = complex(0.5 * h)
    return FermionOperator(m, terms)


@dataclass(frozen=True)
class RDMPair:
    """One- and two-body reduced density matrices.

    d1[i, p] = <adag_i a_p>, d2[i, j, p, q] = <adag_i adag_j a_p a_q>.
    """

    n_modes: int
    d1: np.ndarray
    d2: np.ndarray

    def validate(self, atol: float = 1e-9) -> None:
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
        pair = cls(
            n_modes=m,
            d1=d1[..., 0] + 1j * d1[..., 1],
            d2=d2[..., 0] + 1j * d2[..., 1],
        )
        pair.validate()
        return pair


def measure_rdm(state, n_modes: int) -> RDMPair:
    """Exact RDMs of a simulated state (the partial-tomography view)."""
    from .simulator import StateVector  # local to avoid a cycle

    if not isinstance(state, StateVector):
        raise ValidationError("measure_rdm expects a StateVector")
    if state.n_qubits != n_modes:
        raise DimensionError("state qubit count differs from mode count")

    def expect(ops: list[tuple[int, bool]]) -> complex:
        f = FermionOperator.from_term(n_modes, 1.0, ops)
        phi = jordan_wigner(f).compiled.apply(state.amplitudes)
        return complex(np.vdot(state.amplitudes, phi))

    d1 = np.zeros((n_modes, n_modes), dtype=complex)
    for i in range(n_modes):
        for p in range(n_modes):
            d1[i, p] = expect([(i, True), (p, False)])
    d2 = np.zeros((n_modes,) * 4, dtype=complex)
    for i in range(n_modes):
        for j in range(n_modes):
            if i == j:
                continue
            for p in range(n_modes):
                for q in range(n_modes):
                    if p == q:
                        continue
                    d2[i, j, p, q] = expect(
                        [(i, True), (j, True), (p, False), (q, False)]
                    )
    pair = RDMPair(n_modes=n_modes, d1=d1, d2=d2)
    pair.validate()
    return pair


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
