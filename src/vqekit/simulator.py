"""Dense statevector simulation at desk scale.

States are numpy complex128 vectors indexed so that bit q of the basis
index is the state of qubit q.  All stochastic entry points take an
explicit numpy Generator (see rng.make_rng).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import (
    CapacityError,
    DimensionError,
    NonCommutingGroupError,
    ValidationError,
)
from .pauli import (
    MAX_DENSE_QUBITS,
    PauliString,
    PauliSum,
    _first_anticommuting_pair,
    _mask_product,
)

__all__ = [
    "StateVector",
    "GroupSampler",
    "apply_pauli_string",
    "apply_pauli_exponential",
    "expectation_and_variance",
    "exact_eigensystem",
    "ground_state",
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
        from a valid state by a unitary."""
        out = cls.__new__(cls)
        out.n_qubits = n_qubits
        out.amplitudes = amplitudes
        return out

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "StateVector":
        if n_qubits < 1 or not 0 <= index < (1 << n_qubits):
            raise ValidationError(f"basis index {index} out of range")
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls._unchecked(amps, n_qubits)

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


def _mean_and_action(state: StateVector, h: PauliSum) -> tuple[float, np.ndarray]:
    """(<H>, H psi) for a Hermitian sum; H psi is a fresh array."""
    if h.n_qubits != state.n_qubits:
        raise DimensionError("operator and state qubit counts differ")
    if not h.is_hermitian():
        raise ValidationError("expectation requires a Hermitian sum")
    phi = h.compiled.apply(state.amplitudes)
    mean_c = complex(np.vdot(state.amplitudes, phi))
    if abs(mean_c.imag) > 1e-9 * max(1.0, abs(mean_c)):
        raise ValidationError(f"non-real expectation {mean_c}")
    return mean_c.real, phi


def _expectation(state: StateVector, h: PauliSum) -> float:
    """<H> alone, for exact objectives: the mean of expectation_and_variance."""
    return _mean_and_action(state, h)[0]


def expectation_and_variance(state: StateVector, h: PauliSum) -> tuple[float, float]:
    """Exact (<H>, Var H) for a Hermitian sum.

    The variance is ||(H - <H>)psi||^2, which keeps its digits near an
    eigenstate, where <H^2> - <H>^2 cancels to rounding noise.
    """
    mean, phi = _mean_and_action(state, h)
    phi -= mean * state.amplitudes  # phi is ours: reuse it as the residual
    return mean, float(np.real(np.vdot(phi, phi)))


def exact_eigensystem(h: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian sum."""
    m = h.to_matrix()
    if not h.is_hermitian():
        raise ValidationError("eigensystem requires a Hermitian sum")
    vals, vecs = np.linalg.eigh(m)
    resid = np.max(np.abs(m @ vecs - vecs * vals))
    scale = max(1.0, float(np.max(np.abs(vals)))) if vals.size else 1.0
    if resid > 1e-9 * scale:
        raise ValidationError(f"eigensystem residual {resid} too large")
    return vals.real, vecs


def ground_state(h: PauliSum) -> tuple[float, StateVector]:
    vals, vecs = exact_eigensystem(h)
    return float(vals[0]), StateVector(vecs[:, 0], copy=True)


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """sum_S (-1)^{|b & S|} a[S] at every b, for a of length 2^r: one
    butterfly (x + y, x - y) per bit, exact sums as the products are by +-1."""
    h = 1
    while h < a.size:
        a = _HADAMARD @ a.reshape(-1, 2, h)
        h *= 2
    return a.ravel()


class GroupSampler:
    """Repeated projective measurement of one commuting group on one state.

    GF(2) elimination on the strings' (x, z) masks, in string order, picks
    r <= n independent generators g_0 .. g_{r-1}.  Every other string is a
    sign times a product of earlier generators, so its outcome is that sign
    times theirs, exactly.  The 2^r expectations <psi| prod_{j in S} g_j |psi>
    are computed in Gray-code order, one string apply each, and one
    Walsh-Hadamard transform turns them into the probability of each outcome
    pattern b of the generators (bit j of b set: g_j gave -1).  Summing out
    the later generators gives the conditional probability of +1 for each
    generator after each pattern of the ones before it.

    `draw` takes one uniform variate per string, shot-major, dependent
    strings included, and gives +1 iff u < p_plus: the outcomes and the
    generator state after it are those of measuring the strings one at a
    time with state collapse.  A shot's code is its pattern b, whatever the
    draw sizes.  The read-only array `probabilities` holds the probability
    of each of the 2^r patterns, indexed by code.  Validation (dimensions,
    commutation of the r generators, which gives every pair) runs once, here.
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
        self.n_qubits = state.n_qubits
        self.strings = strings
        # Reduced rows by pivot: (x, z, set of generators XORed into them).
        rows: dict[int, tuple[int, int, int]] = {}
        gens: list[PauliString] = []
        levels, combos, signs = [], [], []
        for level, s in enumerate(strings):
            x, z, combo = s.x_mask, s.z_mask, 0
            while x | z and (pivot := ((z << self.n_qubits) | x).bit_length()) in rows:
                rx, rz, rc = rows[pivot]
                x, z, combo = x ^ rx, z ^ rz, combo ^ rc
            if x | z:  # independent of the earlier strings: a new generator
                rows[pivot] = (x, z, combo ^ (1 << len(gens)))
                combo = 1 << len(gens)
                levels.append(level)
                gens.append(s)
            # s is the product of the generators in `combo`, up to a sign.
            phase, px, pz = 1, 0, 0
            for j, g in enumerate(gens):
                if combo >> j & 1:
                    ph, px, pz = _mask_product(px, pz, g.x_mask, g.z_mask)
                    phase *= ph
            combos.append(combo)
            signs.append(int(phase.real))
        # Every string is a product of generators and the symplectic form is
        # bilinear, so commuting generators make every pair commute.
        if any(((a.x_mask & b.z_mask).bit_count() ^ (a.z_mask & b.x_mask).bit_count()) & 1
               for j, a in enumerate(gens) for b in gens[:j]):
            pair = _first_anticommuting_pair([(s.x_mask, s.z_mask) for s in strings])
            a, b = (strings[i].letters for i in pair)
            raise NonCommutingGroupError(f"{a} and {b} do not commute")
        r = self.rank = len(gens)
        self._levels = tuple(levels)
        # mean[S] = <psi| prod_{j in S} g_j |psi>, g_j on bit j of S; the
        # Gray-code order changes S by one generator per step.
        psi = state.amplitudes
        mean = np.empty(1 << r)
        mean[0] = 1.0
        phi, subset = psi, 0
        for i in range(1, mean.size):
            bit = (i & -i).bit_length() - 1
            subset ^= 1 << bit
            phi = _apply_string(phi, gens[bit])
            mean[subset] = np.vdot(psi, phi).real
        # Rounding can leave an impossible pattern at -1e-17.
        marginal = np.maximum(_walsh_hadamard(mean) / mean.size, 0.0)
        marginal.setflags(write=False)
        self.probabilities = marginal
        # tables[j][b]: P(g_j gives +1 | generators 0..j-1 gave pattern b).
        # A pattern of probability 0 is never reached; its entry is unused.
        self._tables = []
        for j in reversed(range(r)):
            plus, minus = marginal.reshape(2, 1 << j)
            marginal = plus + minus
            p_plus = np.divide(plus, marginal, out=np.ones_like(plus), where=marginal > 0)
            self._tables.insert(0, p_plus)
        # outcome_table[b, i]: the +1/-1 outcome of string i in pattern b.
        odd = np.bitwise_count(np.arange(1 << r)[:, None] & np.array(combos)) & 1
        signs = np.array(signs)
        self.outcome_table = np.where(odd, -signs, signs)
        self.outcome_table.setflags(write=False)

    def draw(self, rng: np.random.Generator, shots: int) -> np.ndarray:
        """Pattern codes of `shots` independent measurements, in shot order."""
        if shots < 0:
            raise ValidationError("shots must be non-negative")
        k = len(self.strings)
        u = rng.random(shots * k).reshape(shots, k)
        code = np.zeros(shots, dtype=np.intp)
        for j, (level, table) in enumerate(zip(self._levels, self._tables)):
            # The per-shot rule is "+1 if u < p_plus", so bit 1 means -1.
            code |= (u[:, level] >= table[code]).astype(np.intp) << j
        return code

    def outcomes(self, code: int) -> tuple[int, ...]:
        """The +1/-1 outcome of each string in the pattern with this code."""
        return tuple(self.outcome_table[code].tolist())


def _check_tau(tau) -> None:
    # NaN passes `tau <= 0`, and a NaN tau evolves to a NaN state.
    if not (math.isfinite(tau) and tau > 0):
        raise ValidationError(f"tau must be finite and positive, got {tau!r}")


# Step kernels of `evolve_schedule`, picked from d = 2^n alone.  Crossovers
# measured at 400 steps on a 2-core x86 host: eigh is fastest up to d = 8 (10 ms
# against 13 ms for the dense series; 38 against 16 ms at d = 16), the dense
# series up to d = 128 (71 against 170 ms for compiled applies; 261 against
# 219 ms at d = 256).  Below this dimension every step is an eigendecomposition.
_TAYLOR_MIN_DIM = 16
# Longest series step, as the bound dt*||H_k||, before a step is split into
# substeps: up to here one stays within 1e-15 of expm (7e-16 at 4, 3e-15 at 6).
_TAYLOR_MAX_NORM = 4.0
# Most substeps a configured step may take; one costs about 70 us at d = 16.
_MAX_SUBSTEPS = 1000
# The series stops once the bound on its tail falls below this.
_TAYLOR_TOL = 1e-16
# Up to this dimension H_k is a dense matrix; above it, two compiled applies.
_DENSE_MAX_DIM = 128
# Steps per chunk; the eigh kernel's (chunk, d, d) stack is 2 MiB at d = 8.
_CHUNK_STEPS = 2048


def _norm_bound(h: PauliSum) -> float:
    """Sum over X-mask groups of max|diag|: each group is a permutation
    times a diagonal, so this bounds the operator norm of h."""
    return sum(float(np.max(np.abs(diag))) for _, diag in h.compiled.groups)


def _check_step_bound(h_i: PauliSum, h_p: PauliSum, tau: float, steps: int) -> None:
    """Refuse steps that the series would split into more than
    _MAX_SUBSTEPS substeps each, by the bound dt*max(B_i, B_p) that holds
    for every schedule value g in [0, 1].  The eigh kernel has no substeps."""
    if 1 << max(h_i.n_qubits, h_p.n_qubits) < _TAYLOR_MIN_DIM:
        return
    x = tau / steps * max(_norm_bound(h_i), _norm_bound(h_p))
    if x > _MAX_SUBSTEPS * _TAYLOR_MAX_NORM:
        raise ValidationError(
            f"tau {tau!r} in {steps} steps: dt*||H|| reaches {x:.6g}, over "
            f"{_MAX_SUBSTEPS} series substeps per step; use more steps"
        )


def _taylor_degrees(x: np.ndarray) -> np.ndarray:
    """Least m per entry with sum_{j>m} x^j/j! < _TAYLOR_TOL.

    For x < m + 2 that tail is at most t (m+2)/(m+2-x), t = x^(m+1)/(m+1)!.
    """
    degree = np.full(x.shape, -1)
    term = x.copy()
    m = 0
    while (pending := degree < 0).any():
        degree[pending & (term * (m + 2) < _TAYLOR_TOL * (m + 2 - x))] = m
        m += 1
        term = term * x / (m + 1)
    return degree


def _eigh_steps(amps, g, dt, mi, mp):
    """The state after each step, by U_k = V e^(-iW dt) V^+ from one stacked eigh."""
    w, v = np.linalg.eigh((1.0 - g)[:, None, None] * mi + g[:, None, None] * mp)
    u = (v * np.exp(-1j * w * dt)[:, None, :]) @ v.conj().swapaxes(1, 2)
    for uk in u:
        amps = uk @ amps
        yield amps


def _taylor_steps(amps, g, dt, x, matvec):
    """The state after each step, by the series of exp(A_k), A_k = -i H_k dt,
    in ceil(x_k / _TAYLOR_MAX_NORM) substeps for a bound x_k >= ||A_k||: the
    vectors A^j psi for j <= m, weighted by 1/j! in one product.
    `matvec(a, b)` is the action v -> (a H_i + b H_p) v."""
    substeps = np.maximum(1.0, np.ceil(x / _TAYLOR_MAX_NORM))
    sub_dt = dt / substeps
    degrees = _taylor_degrees(x / substeps)
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

    Piecewise-constant midpoint rule, H_k = H(t_k) on step k; global error
    is O((tau/steps)^2).  `callback(t, state)`, if given, is invoked after
    every step, and does not change the final state by a bit.

    Steps run in chunks of 2048, each of which evaluates g at its midpoints.
    The kernel depends on d = 2^n alone, and both are exact to rounding:

    * eigh (d < 16): one stacked eigendecomposition per chunk gives every
      step's propagator V e^(-iW dt) V^+, and a step is one matvec.
    * Taylor: exp(-i H_k dt) psi as a series on the vector, of the degree
      at which the tail bound from ||H_k|| <= |1-g| B_i + |g| B_p (B: the
      sum over X-mask groups of max|diag|) falls below 1e-16; a step with
      dt*||H_k|| over 4 runs as ceil(dt*||H_k|| / 4) substeps.  H_k is one
      dense matrix per step up to d = 128, and two compiled applies above,
      where nothing of size d x d is held.  Memory does not grow with `steps`.
    """
    _check_tau(tau)
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if h_i.n_qubits != h_p.n_qubits or h_i.n_qubits != s0.n_qubits:
        raise DimensionError("Hamiltonians and state must share a qubit count")
    n = s0.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise CapacityError(f"evolution on {n} qubits exceeds limit {MAX_DENSE_QUBITS}")
    if not (h_i.is_hermitian() and h_p.is_hermitian()):
        raise ValidationError("evolution requires Hermitian Hamiltonians")
    d = 1 << n
    dt = tau / steps
    if d > _DENSE_MAX_DIM:
        ci, cp = h_i.compiled, h_p.compiled
        matvec = lambda a, b: lambda v: a * ci.apply(v) + b * cp.apply(v)
    else:
        mi, mp = h_i.to_matrix(), h_p.to_matrix()
        matvec = lambda a, b: (a * mi + b * mp).__matmul__
    b_i, b_p = _norm_bound(h_i), _norm_bound(h_p)
    amps = s0.amplitudes.copy()
    for lo in range(0, steps, _CHUNK_STEPS):
        t_mid = (np.arange(lo, min(lo + _CHUNK_STEPS, steps)) + 0.5) * dt
        g = np.asarray(sched.evaluate(t_mid), dtype=float)
        if g.shape != t_mid.shape:
            raise ValidationError("schedule must evaluate an array of times elementwise")
        if not np.isfinite(g).all():
            raise ValidationError("schedule values must be finite")
        if d < _TAYLOR_MIN_DIM:
            states = _eigh_steps(amps, g, dt, mi, mp)
        else:
            x = dt * (np.abs(1.0 - g) * b_i + np.abs(g) * b_p)
            states = _taylor_steps(amps, g, dt, x, matvec)
        for k, amps in enumerate(states, start=lo + 1):
            if callback is not None:
                callback(k * dt, StateVector._unchecked(amps.copy(), n))
    return StateVector._unchecked(amps, n)
