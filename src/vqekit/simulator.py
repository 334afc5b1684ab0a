"""Dense statevector simulation at desk scale.

States are numpy complex128 vectors indexed so that bit q of the basis
index is the state of qubit q.  All stochastic entry points take an
explicit numpy Generator (see rng.make_rng).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CapacityError,
    DimensionError,
    NonCommutingGroupError,
    ValidationError,
)
from .pauli import PauliString, PauliSum, commutes

__all__ = [
    "StateVector",
    "MeasurementRecord",
    "GroupSampler",
    "apply_pauli_string",
    "apply_pauli_exponential",
    "expectation_and_variance",
    "exact_eigensystem",
    "ground_state",
    "sample_group",
    "evolve_schedule",
]

_NORM_ATOL = 1e-8


class StateVector:
    """Normalized pure state on n qubits."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, amplitudes: np.ndarray, copy: bool = True):
        amps = np.array(amplitudes, dtype=complex, copy=copy).ravel()
        n = int(amps.size).bit_length() - 1
        if amps.size != (1 << n) or amps.size < 2:
            raise ValidationError(f"amplitude count {amps.size} is not a power of two")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > _NORM_ATOL:
            raise ValidationError(f"state norm {norm} is not 1")
        self.n_qubits = n
        self.amplitudes = amps

    @classmethod
    def _unchecked(cls, amplitudes: np.ndarray, n_qubits: int) -> "StateVector":
        """Wrap amplitudes without a check or a copy: only for vectors made
        from a valid state by a unitary or a normalized projection."""
        out = cls.__new__(cls)
        out.n_qubits = n_qubits
        out.amplitudes = amplitudes
        return out

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "StateVector":
        if not 0 <= index < (1 << n_qubits):
            raise ValidationError(f"basis index {index} out of range")
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps, copy=False)

    @classmethod
    def from_label(cls, label: str) -> "StateVector":
        """Basis state from a ket label, leftmost symbol = highest qubit."""
        if not label or any(c not in "01" for c in label):
            raise ValidationError(f"bad basis label {label!r}")
        return cls.basis(len(label), int(label, 2))

    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes, copy=True)

    def overlap(self, other: "StateVector") -> complex:
        if self.n_qubits != other.n_qubits:
            raise DimensionError("states act on different qubit counts")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        return abs(self.overlap(other)) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcomes of one sequential projective measurement of a commuting group."""

    strings: tuple[PauliString, ...]
    outcomes: tuple[int, ...]
    post_state: "StateVector"


# Per-string (src, phases) tables; strings are hashable and immutable.
_string_action = lru_cache(maxsize=256)(PauliString.action)


def _apply_string(amps: np.ndarray, s: PauliString) -> np.ndarray:
    """P|psi> for unit-coefficient P: one gather and one multiply."""
    src, phases = _string_action(s)
    return amps[src] * phases


def apply_pauli_string(state: StateVector, s: PauliString) -> StateVector:
    if s.n_qubits != state.n_qubits:
        raise DimensionError("string and state qubit counts differ")
    return StateVector._unchecked(_apply_string(state.amplitudes, s), state.n_qubits)


def apply_pauli_exponential(state: StateVector, s: PauliString, theta: float) -> StateVector:
    """exp(i theta P)|psi>, exact: P^2 = I gives cos + i sin P."""
    if s.n_qubits != state.n_qubits:
        raise DimensionError("string and state qubit counts differ")
    theta = float(theta)
    amps = np.cos(theta) * state.amplitudes + 1j * np.sin(theta) * _apply_string(
        state.amplitudes, s
    )
    return StateVector._unchecked(amps, state.n_qubits)


def expectation_and_variance(state: StateVector, h: PauliSum) -> tuple[float, float]:
    """Exact (<H>, Var H) for a Hermitian sum.

    The variance is ||(H - <H>)psi||^2, which keeps its digits near an
    eigenstate, where <H^2> - <H>^2 cancels to rounding noise.
    """
    if h.n_qubits != state.n_qubits:
        raise DimensionError("operator and state qubit counts differ")
    if not h.is_hermitian():
        raise ValidationError("expectation requires a Hermitian sum")
    phi = h.compiled.apply(state.amplitudes)
    mean_c = complex(np.vdot(state.amplitudes, phi))
    if abs(mean_c.imag) > 1e-9 * max(1.0, abs(mean_c)):
        raise ValidationError(f"non-real expectation {mean_c}")
    mean = mean_c.real
    phi -= mean * state.amplitudes  # phi is ours: reuse it as the residual
    return mean, float(np.real(np.vdot(phi, phi)))


def exact_eigensystem(h: PauliSum, max_qubits: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian sum."""
    if h.n_qubits > max_qubits:
        raise CapacityError(f"{h.n_qubits} qubits exceeds dense limit {max_qubits}")
    if not h.is_hermitian():
        raise ValidationError("eigensystem requires a Hermitian sum")
    m = h.to_matrix(max_qubits)
    vals, vecs = np.linalg.eigh(m)
    resid = np.max(np.abs(m @ vecs - vecs * vals))
    scale = max(1.0, float(np.max(np.abs(vals)))) if vals.size else 1.0
    if resid > 1e-9 * scale:
        raise ValidationError(f"eigensystem residual {resid} too large")
    return vals.real, vecs


def ground_state(h: PauliSum, max_qubits: int = 12) -> tuple[float, StateVector]:
    vals, vecs = exact_eigensystem(h, max_qubits)
    return float(vals[0]), StateVector(vecs[:, 0], copy=True)


def _born(amps: np.ndarray, s: PauliString) -> tuple[np.ndarray, float]:
    """P|psi> and the Born probability of outcome +1 for P on |psi>."""
    applied = _apply_string(amps, s)
    p_plus = 0.5 * (1.0 + float(np.real(np.vdot(amps, applied))))
    return applied, min(1.0, max(0.0, p_plus))


def _collapse(amps: np.ndarray, applied: np.ndarray, o: int, p_plus: float) -> np.ndarray:
    """Normalized projection (1 + o P)|psi> / 2 after outcome o."""
    out = 0.5 * (amps + o * applied)
    p_o = p_plus if o == 1 else 1.0 - p_plus
    out /= np.sqrt(max(p_o, 1e-300))
    return out


class GroupSampler:
    """Repeated sequential measurement of one commuting group on one state.

    Measuring k strings in order passes through at most 2^k outcome
    prefixes, and each prefix has a fixed conditional Born probability and
    a fixed post-measurement vector.  Both are computed once, when a draw
    first reaches the prefix, with the arithmetic of a single sequential
    measurement.  `draw` therefore returns the outcomes that one
    `sample_group` call per shot would, and leaves the generator in the
    same state: shot-major, one uniform variate per string, deterministic
    outcomes included.

    Validation (dimensions, pairwise commutation) runs once, here.  Each
    measured prefix stores the vectors of its (at most two) children until
    they are measured in turn; leaves store none.
    """

    def __init__(
        self, state: StateVector, strings: list[PauliString] | tuple[PauliString, ...]
    ):
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
        self._prefix: list[tuple[int, ...]] = [()]
        self._amps = {0: self._root}
        self._p_plus = np.full(8, np.nan)
        self._child = np.full((8, 2), -1, dtype=np.intp)

    def _measure(self, node: int, level: int) -> None:
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

    def draw(self, rng: np.random.Generator, shots: int) -> np.ndarray:
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

    def outcomes(self, leaf: int) -> tuple[int, ...]:
        """The +1/-1 outcome of each string on the path to a leaf code."""
        return self._prefix[leaf]

    def post_state(self, leaf: int) -> StateVector:
        """The state after the measurements that end at a leaf code."""
        amps = self._root
        for s, o in zip(self.strings, self._prefix[leaf]):
            applied, p_plus = _born(amps, s)
            amps = _collapse(amps, applied, o, p_plus)
        return StateVector._unchecked(amps, self.n_qubits)


def sample_group(
    state: StateVector,
    strings: list[PauliString] | tuple[PauliString, ...],
    rng: np.random.Generator,
) -> MeasurementRecord:
    """Measure a commuting group once, in order, with projective updates.

    One uniform variate is consumed per string, including deterministic
    outcomes, so seeded streams stay aligned across runs.  Repeated shots
    on one state are cheaper through a `GroupSampler`.
    """
    sampler = GroupSampler(state, strings)
    leaf = int(sampler.draw(rng, 1)[0])
    return MeasurementRecord(
        strings=sampler.strings,
        outcomes=sampler.outcomes(leaf),
        post_state=sampler.post_state(leaf),
    )


def evolve_schedule(
    s0: StateVector,
    sched,
    h_i: PauliSum,
    h_p: PauliSum,
    tau: float,
    steps: int,
    callback=None,
) -> StateVector:
    """Integrate i d|psi>/dt = H(t)|psi>, H(t) = (1-g(t)) H_i + g(t) H_p.

    Piecewise-constant midpoint rule with exact per-step exponentials via
    eigendecomposition; global error is O((tau/steps)^2).  `callback(t, state)`,
    if given, is invoked after every step.
    """
    if not (np.isfinite(tau) and tau > 0):
        raise ValidationError(f"tau must be finite and positive, got {tau!r}")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if h_i.n_qubits != h_p.n_qubits or h_i.n_qubits != s0.n_qubits:
        raise DimensionError("Hamiltonians and state must share a qubit count")
    mi = h_i.to_matrix()
    mp = h_p.to_matrix()
    if not (h_i.is_hermitian() and h_p.is_hermitian()):
        raise ValidationError("evolution requires Hermitian Hamiltonians")
    dt = tau / steps
    t_mid = (np.arange(steps) + 0.5) * dt
    g = np.asarray(sched.evaluate(t_mid), dtype=float)
    if g.shape != t_mid.shape:
        g = np.array([float(sched.evaluate(t)) for t in t_mid])
    hams = (1.0 - g)[:, None, None] * mi + g[:, None, None] * mp
    w, v = np.linalg.eigh(hams)
    amps = s0.amplitudes.copy()
    for k in range(steps):
        vk = v[k]
        amps = vk @ (np.exp(-1j * w[k] * dt) * (vk.conj().T @ amps))
        if callback is not None:
            callback((k + 1) * dt, StateVector._unchecked(amps.copy(), s0.n_qubits))
    return StateVector._unchecked(amps, s0.n_qubits)
