"""Cluster-operator ansatz families and trial-state preparation.

Every generator G is anti-Hermitian, stored as a PauliSum with purely
imaginary coefficients, so exp(theta G) is unitary for real theta.  With
shared parameters the preparation is the Trotter product

    prod_{t=1}^{N} prod_g exp((theta_g / N) G_g)

with generators applied in label order inside each slice.  In relaxed mode
each slice gets its own parameter block and the slice is applied as one
exact exponential exp(sum_g theta_{g,t} G_g): splitting operators that act
on the same qubits would change the family, and the joint form is what
makes a single order-2 slice an arbitrary SU(4) action on two qubits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, ValidationError
from .fermion import FermionOperator, _jordan_wigner_all
from .pauli import PauliString, PauliSum
from .simulator import StateVector

__all__ = [
    "GeneratorSet",
    "AnsatzConfig",
    "ReferenceState",
    "spin_cluster_generators",
    "fermionic_ucc_generators",
    "suquca_generators",
    "prepare_state",
    "parameter_count",
    "canonicalize_reference",
]

_ALPHAS = "XYZ"


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered anti-Hermitian generators with aligned labels.  Every
    coefficient is checked imaginary to 1e-10 here; nothing is compiled."""

    n_qubits: int
    generators: tuple[PauliSum, ...]
    labels: tuple[tuple, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValidationError("generator set is empty")
        if len(self.generators) != len(self.labels):
            raise ValidationError("generators and labels are misaligned")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("duplicate generator labels")
        for g in self.generators:
            if g.n_qubits != self.n_qubits:
                raise DimensionError("generator qubit count differs from set")
            for t in g.terms:
                if abs(t.coeff.real) > 1e-10:
                    raise ValidationError(
                        f"generator has non-imaginary coefficient {t.coeff}"
                    )

    def __len__(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class AnsatzConfig:
    generator_set: GeneratorSet
    trotter_slices: int = 1
    relaxed: bool = False

    def __post_init__(self):
        if self.trotter_slices < 1:
            raise ValidationError("trotter_slices must be >= 1")


@dataclass(frozen=True)
class ReferenceState:
    """Product reference: either a basis index or per-qubit (c0, c1) pairs."""

    n_qubits: int
    basis_index: int | None = None
    qubit_pairs: tuple[tuple[complex, complex], ...] | None = None

    def __post_init__(self):
        if (self.basis_index is None) == (self.qubit_pairs is None):
            raise ValidationError("give exactly one of basis_index or qubit_pairs")
        if self.basis_index is not None:
            if not 0 <= self.basis_index < (1 << self.n_qubits):
                raise ValidationError("basis index out of range")
        else:
            if len(self.qubit_pairs) != self.n_qubits:
                raise ValidationError("need one amplitude pair per qubit")
            for c0, c1 in self.qubit_pairs:
                if not abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0) <= 1e-8:  # NaN fails too
                    raise ValidationError("qubit pair is not normalized")

    @classmethod
    def from_occupied(cls, n_modes: int, occupied) -> "ReferenceState":
        """Computational basis state with the given modes filled."""
        idx = 0
        for p in occupied:
            if not 0 <= p < n_modes:
                raise ValidationError(f"occupied mode {p} out of range")
            if idx & (1 << p):
                raise ValidationError(f"mode {p} listed twice")
            idx |= 1 << p
        return cls(n_qubits=n_modes, basis_index=idx)

    def to_state(self) -> StateVector:
        if self.basis_index is not None:
            return StateVector.basis(self.n_qubits, self.basis_index)
        amps = np.ones(1, dtype=complex)
        for q in range(self.n_qubits - 1, -1, -1):
            c0, c1 = self.qubit_pairs[q]
            amps = np.kron(amps, np.array([c0, c1], dtype=complex))
        return StateVector(amps)


def spin_cluster_generators(n_qubits: int, order: int) -> GeneratorSet:
    """i sigma^{a1}_{p1} ... sigma^{ak}_{pk} for site tuples p1 < ... < pk,
    every order 1..k, identity excluded."""
    if not 1 <= order <= n_qubits:
        raise ValidationError(f"order must be in 1..{n_qubits}")
    gens: list[PauliSum] = []
    labels: list[tuple] = []
    for k in range(1, order + 1):
        for sites in itertools.combinations(range(n_qubits), k):
            for alphas in itertools.product(_ALPHAS, repeat=k):
                s = PauliString.from_ops(n_qubits, dict(zip(sites, alphas)))
                gens.append(PauliSum.from_terms([(1j, s.letters)]))
                labels.append((k, sites, alphas))
    return GeneratorSet(n_qubits=n_qubits, generators=tuple(gens), labels=tuple(labels))


def _check_occ_virt(n_modes: int, occupied, virtual) -> tuple[tuple, tuple]:
    occ = tuple(occupied)
    virt = tuple(virtual)
    if not occ or not virt:
        raise ValidationError("occupied and virtual sets must be nonempty")
    if set(occ) & set(virt):
        raise ValidationError("occupied and virtual sets overlap")
    for p in occ + virt:
        if not 0 <= p < n_modes:
            raise ValidationError(f"mode {p} out of range")
    return occ, virt


def fermionic_ucc_generators(
    n_modes: int, occupied, virtual, order: int
) -> GeneratorSet:
    """Jordan-Wigner images of the anti-Hermitian UCC cluster amplitudes.

    Order 1: adag_i a_p - adag_p a_i for occupied i, virtual p.  Order 2:
    products of two distinct singles sharing no index (same-index products
    vanish identically), minus the conjugate.  All conserve particle number.
    """
    occ, virt = _check_occ_virt(n_modes, occupied, virtual)
    if order not in (1, 2):
        raise ValidationError("fermionic UCC supports orders 1 and 2")
    singles = [(i, p) for i in sorted(occ) for p in sorted(virt)]
    ladders = [[(i, True), (p, False)] for i, p in singles]
    labels: list[tuple] = [("t1", s) for s in singles]
    if order == 2:
        for (i1, p1), (i2, p2) in itertools.combinations(singles, 2):
            if i1 == i2 or p1 == p2:
                continue
            ladders.append([(i1, True), (p1, False), (i2, True), (p2, False)])
            labels.append(("t2", (i1, p1), (i2, p2)))
    exs = [FermionOperator.from_term(n_modes, 1.0, ops) for ops in ladders]
    gens = _jordan_wigner_all([ex - ex.hermitian_conjugate() for ex in exs])
    return GeneratorSet(n_qubits=n_modes, generators=tuple(gens), labels=tuple(labels))


def _suquca_blocks(n_modes: int) -> list[tuple[tuple, FermionOperator]]:
    """Hermitian one-body blocks: B1_pq = E_pq + E_qp (p <= q) and
    B2_pq = -i (E_pq - E_qp) (p < q)."""
    blocks = []
    for p in range(n_modes):
        for q in range(p, n_modes):
            e_pq = FermionOperator.from_term(n_modes, 1.0, [(p, True), (q, False)])
            e_qp = FermionOperator.from_term(n_modes, 1.0, [(q, True), (p, False)])
            blocks.append((("sym", p, q), e_pq + e_qp))
            if p < q:
                blocks.append((("asym", p, q), -1j * (e_pq - e_qp)))
    return blocks


def suquca_generators(n_modes: int, order: int = 1) -> GeneratorSet:
    """Special-unitary quantum-chemistry analogue basis.

    Order 1 is the M^2-dimensional u(M) image: i(adag_p a_q + adag_q a_p)
    for p <= q and (adag_p a_q - adag_q a_p) for p < q.  Higher orders take
    i times products of order-1 Hermitian blocks on disjoint mode pairs.
    """
    if not 1 <= order <= n_modes:
        raise ValidationError(f"order must be in 1..{n_modes}")
    blocks = _suquca_blocks(n_modes)
    products: list[FermionOperator] = []
    labels: list[tuple] = []
    for k in range(1, order + 1):
        for combo in itertools.combinations(range(len(blocks)), k):
            supports = [set(blocks[b][0][1:]) for b in combo]
            union = set().union(*supports)
            if len(union) != sum(len(s) for s in supports):
                continue  # overlapping modes: product is not Hermitian
            prod = FermionOperator.identity(n_modes)
            for b in combo:
                prod = prod * blocks[b][1]
            products.append(1j * prod)
            labels.append(tuple(blocks[b][0] for b in combo))
    gens = _jordan_wigner_all(products)
    return GeneratorSet(n_qubits=n_modes, generators=tuple(gens), labels=tuple(labels))


def parameter_count(cfg: AnsatzConfig) -> int:
    n = len(cfg.generator_set)
    return n * cfg.trotter_slices if cfg.relaxed else n


def _exp_generator(amps: np.ndarray, g: PauliSum, scale: float) -> np.ndarray:
    """exp(scale * G) psi for anti-Hermitian G = i K, exactly.

    One X-mask group of G is D X^x with K Hermitian, so K^2 = diag(|D|^2)
    and exp(phi G) psi = cos(phi |D|) psi + (sin(phi |D|) / |D|) D psi[src]:
    one gather per group.  Groups of a commuting G commute, so its
    exponential is the product of theirs; anything else goes dense.
    """
    cg = g.compiled
    if len(cg.groups) > 1 and not cg.commuting:
        # U = exp(scale * iK) via eigendecomposition of the Hermitian K = -iG.
        w, v = np.linalg.eigh(-1j * g.to_matrix())
        return v @ (np.exp(1j * scale * w) * (v.conj().T @ amps))
    for src, diag in cg.groups:
        mag = np.abs(diag)
        angle = scale * mag
        # Entries with |D| = 0 have D = 0: the gathered term vanishes.
        gain = np.sin(angle) / np.where(mag > 0.0, mag, 1.0)
        amps = np.cos(angle) * amps + gain * diag * amps[src]
    return amps


def prepare_state(
    ref: ReferenceState, cfg: AnsatzConfig, params: np.ndarray
) -> StateVector:
    """Apply the (possibly relaxed) Trotter product to the reference."""
    gens = cfg.generator_set
    if ref.n_qubits != gens.n_qubits:
        raise DimensionError("reference and generators disagree on qubit count")
    params = np.asarray(params, dtype=float)
    want = parameter_count(cfg)
    if params.shape != (want,):
        raise ParameterError(f"expected {want} parameters, got shape {params.shape}")
    if not np.isfinite(params).all():
        raise ParameterError("parameters must be finite")
    amps = ref.to_state().amplitudes
    n_slices = cfg.trotter_slices
    if not cfg.relaxed:
        for _ in range(n_slices):
            for g, theta in zip(gens.generators, params):
                if theta != 0.0:
                    amps = _exp_generator(amps, g, theta / n_slices)
    else:
        blocks = params.reshape(n_slices, len(gens))
        for t in range(n_slices):
            pairs = zip(gens.generators, blocks[t])
            terms = [term for g, theta in pairs if theta != 0.0 for term in (theta * g).terms]
            amps = _exp_generator(amps, PauliSum(gens.n_qubits, terms), 1.0)
    return StateVector._unchecked(amps, gens.n_qubits)


def canonicalize_reference(
    ref: ReferenceState,
) -> tuple[list[np.ndarray], ReferenceState]:
    """Single-qubit rotations R_q with R_q|0> = (c0, c1), plus the canonical
    all-zeros reference.  Applying the rotations to |0...0> rebuilds ref."""
    pairs = []
    if ref.basis_index is not None:
        for q in range(ref.n_qubits):
            bit = (ref.basis_index >> q) & 1
            pairs.append((1.0 + 0j, 0j) if bit == 0 else (0j, 1.0 + 0j))
    else:
        pairs = [(complex(c0), complex(c1)) for c0, c1 in ref.qubit_pairs]
    rotations = []
    for c0, c1 in pairs:
        rotations.append(
            np.array([[c0, -np.conj(c1)], [c1, np.conj(c0)]], dtype=complex)
        )
    canonical = ReferenceState(n_qubits=ref.n_qubits, basis_index=0)
    return rotations, canonical
