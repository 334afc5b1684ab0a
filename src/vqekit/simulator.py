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
    _PHASE_SIGNS,
    _first_anticommuting_pair,
    _mask_product,
)

__all__ = [
    "StateVector",
    "GroupSampler",
    "expectation_and_variance",
    "exact_eigensystem",
    "ground_state",
    "evolve_schedule",
]

_NORM_ATOL = 1e-8


class StateVector:
    """Normalized pure state on n qubits."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, amplitudes: np.ndarray):
        amps = np.array(amplitudes, dtype=complex).ravel()
        n = int(amps.size).bit_length() - 1
        if amps.size != (1 << n) or amps.size < 2:
            raise ValidationError(f"amplitude count {amps.size} is not a power of two")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= _NORM_ATOL:  # NaN fails too
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
        return StateVector(self.amplitudes)

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
    return float(vals[0]), StateVector(vecs[:, 0])


def _conjugate(x: list[int], z: list[int], gates) -> int:
    """Conjugate Pauli rows by each gate U in turn, P -> U P U^+, and return
    the sign bits they pick up (rules of Aaronson and Gottesman, quant-ph/0406196).
    Bit j of x[q] and z[q], updated in place, is row j's X and Z bit on qubit q.
    Gates: ("h", a, a), ("s", a, a), ("cnot", control, target), ("cz", a, b)."""
    sign = 0
    for gate, a, b in gates:
        if gate == "h":
            sign ^= x[a] & z[a]
            x[a], z[a] = z[a], x[a]
        elif gate == "s":
            sign ^= x[a] & z[a]
            z[a] ^= x[a]
        elif gate == "cnot":
            sign ^= x[a] & z[b] & ~(x[b] ^ z[a])
            x[b], z[a] = x[b] ^ x[a], z[a] ^ z[b]
        else:
            sign ^= x[a] & x[b] & (z[a] ^ z[b])
            z[a], z[b] = z[a] ^ x[b], z[b] ^ x[a]
    return sign


@lru_cache(maxsize=512)
def _compile_group(strings: tuple[PauliString, ...]) -> tuple:
    """(levels, outcome_table, src, phase, pivots, codes) of commuting strings:
    g_j is strings[levels[j]], and C = H_pivots diag(phase) CNOTs takes each
    g_j to +-Z^{a_j}, with (CNOTs psi)[m] = psi[src[m]] and codes[m] the
    outcome pattern of basis state m of C psi.  Raises are not cached."""
    n = strings[0].n_qubits
    # rows[pivot]: reduced (x, z, set of generators XORed in), X bits first.
    rows, gens, levels, combos, signs = {}, [], [], [], []
    for level, s in enumerate(strings):
        x, z, combo = s.x_mask, s.z_mask, 0
        while x | z and (pivot := ((x << n) | z).bit_length()) in rows:
            rx, rz, rc = rows[pivot]
            x, z, combo = x ^ rx, z ^ rz, combo ^ rc
        if x | z:  # independent of the earlier strings: a new generator
            rows[pivot] = (x, z, combo ^ (1 << len(gens)))
            combo = 1 << len(gens)
            levels.append(level)
            gens.append(s)
        # s is the product of the generators in `combo` (+1 times itself if one).
        unit, px, pz = 1, 0, 0
        for j, g in enumerate(gens if combo & (combo - 1) else ()):
            if combo >> j & 1:
                ph, px, pz = _mask_product(px, pz, g.x_mask, g.z_mask)
                unit *= ph
        combos.append(combo)
        signs.append(int(unit.real))
    # Every string is a product of generators and the symplectic form is
    # bilinear, so commuting generators make every pair commute.
    if any(((a.x_mask & b.z_mask).bit_count() ^ (a.z_mask & b.x_mask).bit_count()) & 1
           for j, a in enumerate(gens) for b in gens[:j]):
        pair = _first_anticommuting_pair([(s.x_mask, s.z_mask) for s in strings])
        a, b = (strings[i].letters for i in pair)
        raise NonCommutingGroupError(f"{a} and {b} do not commute")
    # outcome_table[b, i]: the +1/-1 outcome of string i in pattern b.
    odd = np.bitwise_count(np.arange(1 << len(gens))[:, None] & np.array(combos)) & 1
    signs = np.array(signs, dtype=np.int8)
    table = np.where(odd, -signs, signs)
    table.setflags(write=False)
    # red[p]: the one row with X on p, taking rows by X.  CNOTs p -> q clear its
    # other X (no target is a pivot: they commute), S/CZ its Z on pivots, H its X.
    red: dict[int, tuple[int, int]] = {}
    for x, z, _ in sorted(rows.values()):
        for p, (rx, rz) in red.items():
            if x >> p & 1:
                x, z = x ^ rx, z ^ rz
        if x:
            red[x.bit_length() - 1] = (x, z)
    gates = [("cnot", p, q) for p, (x, _) in red.items() for q in range(n)
             if q != p and x >> q & 1]
    # After the CNOTs, row p has Z on pivot q iff |z_p & x_q| is odd.
    diagonal = [("s" if p == q else "cz", p, q) for p in red for q in red
                if q <= p and (red[p][1] & red[q][0]).bit_count() & 1]
    xs, zs = [0] * n, [0] * n  # the generators in column form
    for j, g in enumerate(gens):
        for cols, mask in (xs, g.x_mask), (zs, g.z_mask):
            while mask:
                cols[q := mask.bit_length() - 1] |= 1 << j
                mask ^= 1 << q
    sign = _conjugate(xs, zs, gates + diagonal + [("h", p, p) for p in red])
    # g_j is (-1)^(sign_j + |m & a_j|) on basis state m of C psi, bit q of a_j
    # is bit j of zs[q]: code(m) and src[m] are linear in m, packed in one array.
    d = 1 << n
    packed = np.full(d, sign << n, np.intp)
    for q in range(n):
        row = red[q][0] if q in red else 1 << q
        np.bitwise_xor(packed[:1 << q], zs[q] << n | row, out=packed[1 << q:2 << q])
    phase = 1.0
    if diagonal:  # S on p: i^(m_p); CZ on p, q: (-1)^(m_p m_q)
        m = np.arange(d)
        expo = sum((1 + (p != q)) * (m >> p & m >> q & 1) for _, p, q in diagonal)
        phase = _PHASE_SIGNS[expo & 3, 0]
    src = packed & (d - 1) if red else slice(None)
    return tuple(levels), table, src, phase, tuple(red), packed >> n


class GroupSampler:
    """Repeated projective measurement of one commuting group on one state.

    GF(2) elimination in string order picks r <= n independent generators
    g_j; every other string's outcome is a sign times theirs, exactly.  A
    Clifford C takes each g_j to +-Z^{a_j}, so outcome pattern b (bit j set:
    g_j gave -1) has the weight of |C psi|^2 on its basis states, read-only in
    `probabilities`.  All but C psi is compiled once per tuple of strings.
    `draw` takes one uniform variate per string, shot-major, and gives +1 iff
    u < P(+1 | earlier outcomes), as measuring the strings one at a time with
    state collapse would; a shot's code is its pattern b."""

    def __init__(
        self, state: StateVector, strings: list[PauliString] | tuple[PauliString, ...]
    ):
        strings = tuple(strings)
        if not strings:
            raise ValidationError("empty measurement group")
        if any(s.n_qubits != state.n_qubits for s in strings):
            raise DimensionError("group string and state qubit counts differ")
        self.n_qubits, self.strings = state.n_qubits, strings
        self._levels, self.outcome_table, src, phase, pivots, codes = _compile_group(strings)
        r = self.rank = len(self._levels)
        # C psi, each H an unnormalised butterfly (x + y, x - y).
        v = phase * state.amplitudes[src]
        out = np.empty_like(v)
        for p in pivots:
            a, b = v.reshape(-1, 2, 1 << p), out.reshape(-1, 2, 1 << p)
            np.add(a[:, 0], a[:, 1], out=b[:, 0])
            np.subtract(a[:, 0], a[:, 1], out=b[:, 1])
            v, out = out, v
        w = v.view(float) ** 2
        # marg[2^j + b]: the probability that g_0..g_{j-1} give pattern b.
        marg, plus = np.empty(2 << r), np.empty((1 << r) - 1)
        np.multiply(np.bincount(codes, w[0::2] + w[1::2], minlength=1 << r),
                    0.5 ** len(pivots), out=marg[1 << r:])
        for j in reversed(range(r)):
            plus[(1 << j) - 1:(2 << j) - 1] = marg[2 << j:3 << j]
            np.add(marg[2 << j:3 << j], marg[3 << j:4 << j], out=marg[1 << j:2 << j])
        self.probabilities = marg[1 << r:]
        self.probabilities.setflags(write=False)
        # tables[j][b]: P(g_j = +1 | g_0..g_{j-1} gave b), unused 1 if P(b) = 0.
        den = marg[1:1 << r]
        p_plus = np.divide(plus, den, out=np.ones(den.size), where=den > 0)
        self._tables = [p_plus[(1 << j) - 1:(2 << j) - 1] for j in range(r)]

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


def _check_tau(tau) -> None:
    # NaN passes `tau <= 0`, and a NaN tau evolves to a NaN state.
    if not (math.isfinite(tau) and tau > 0):
        raise ValidationError(f"tau must be finite and positive, got {tau!r}")


# Step kernels of `evolve_schedule`, picked from d = 2^n alone.  Timed at 400
# steps on a 2-core x86 host (best of 20): the dense series takes 4.1-4.4 ms
# against 5.1-5.6 ms for eigh at d = 8, and 4.4-7.2 against 21 ms at d = 16; up
# to d = 128 it beats compiled applies (46-49 against 66-71 ms; 166-189 against
# 82-95 ms at d = 256).  The limits stay where they are, since moving one
# changes the output bits at that size.  Below this dimension every step is
# an eigendecomposition.
_TAYLOR_MIN_DIM = 16
# Longest series step, as the bound dt*||H_k||, before a step is split into
# substeps: up to here one stays within 1e-15 of expm (7e-16 at 4, 3e-15 at 6).
_TAYLOR_MAX_NORM = 4.0
# Most substeps a configured step may take; one of bound 4 costs 22-28 us at d = 16.
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


def _check_step_bound(n_qubits: int, tau: float, steps: int, bound: float) -> None:
    """Refuse steps that the series would split into more than
    _MAX_SUBSTEPS substeps each, by dt*bound for bound = max(B_i, B_p),
    which holds for every schedule value g in [0, 1].  The eigh kernel has
    no substeps."""
    x = tau / steps * bound
    if 1 << n_qubits >= _TAYLOR_MIN_DIM and x > _MAX_SUBSTEPS * _TAYLOR_MAX_NORM:
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
    `matvec(a, b)` is the action (v, out) -> out = (a H_i + b H_p) v; it is
    taken once per step, before that step's first use."""
    substeps = np.maximum(1.0, np.ceil(x / _TAYLOR_MAX_NORM))
    sub_dt = dt / substeps
    degrees = _taylor_degrees(x / substeps)
    inv_factorial = 1.0 / np.cumprod(np.maximum(1.0, np.arange(degrees.max() + 1)))
    krylov = np.empty((inv_factorial.size, amps.size), dtype=complex)
    rows = list(krylov)
    ops = map(matvec, (-1j * sub_dt * (1.0 - g)).tolist(), (-1j * sub_dt * g).tolist())
    for m, s, op in zip(degrees.tolist(), substeps.astype(int).tolist(), ops):
        for _ in range(s):
            krylov[0] = amps
            for j in range(1, m + 1):
                op(rows[j - 1], rows[j])
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

    Steps run in chunks of 2048, each of which evaluates g at its midpoints;
    a value outside [0, 1], NaN included, raises ValidationError.  The
    kernel depends on d = 2^n alone, and both are exact to rounding:

    * eigh (d < 16): one stacked eigendecomposition per chunk gives every
      step's propagator V e^(-iW dt) V^+, and a step is one matvec.
    * Taylor: exp(-i H_k dt) psi as a series on the vector, of the degree
      at which the tail bound from ||H_k|| <= (1-g) B_i + g B_p (B: the
      sum over X-mask groups of max|diag|) falls below 1e-16; a step with
      dt*||H_k|| over 4 runs as ceil(dt*||H_k|| / 4) substeps, and a call
      whose steps may need over 1000 raises ValidationError.  H_k is one
      dense matrix up to d = 128, rebuilt in place each step, and two
      compiled applies above, where nothing of size d x d is held.  Memory
      does not grow with `steps`.
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
    b_i, b_p = _norm_bound(h_i), _norm_bound(h_p)
    _check_step_bound(n, tau, steps, max(b_i, b_p))
    d = 1 << n
    dt = tau / steps
    if d > _DENSE_MAX_DIM:
        ci, cp = h_i.compiled, h_p.compiled
        matvec = lambda a, b: lambda v, out: np.add(a * ci.apply(v), b * cp.apply(v), out=out)
    else:
        mi, mp = h_i.to_matrix(), h_p.to_matrix()
        hk, part = np.empty_like(mi), np.empty_like(mp)

        def matvec(a, b):  # H_k is rebuilt in place, in buffers made once per call
            np.add(np.multiply(a, mi, out=hk), np.multiply(b, mp, out=part), out=hk)
            return lambda v, out: np.dot(hk, v, out=out)
    amps = s0.amplitudes.copy()
    for lo in range(0, steps, _CHUNK_STEPS):
        t_mid = (np.arange(lo, min(lo + _CHUNK_STEPS, steps)) + 0.5) * dt
        g = np.asarray(sched.evaluate(t_mid), dtype=float)
        if g.shape != t_mid.shape:
            raise ValidationError("schedule must evaluate an array of times elementwise")
        if not ((g >= 0.0) & (g <= 1.0)).all():  # NaN fails too
            raise ValidationError("schedule values must be finite and lie in [0, 1]")
        if d < _TAYLOR_MIN_DIM:
            states = _eigh_steps(amps, g, dt, mi, mp)
        else:
            x = dt * ((1.0 - g) * b_i + g * b_p)
            states = _taylor_steps(amps, g, dt, x, matvec)
        for k, amps in enumerate(states, start=lo + 1):
            if callback is not None:
                callback(k * dt, StateVector._unchecked(amps.copy(), n))
    return StateVector._unchecked(amps, n)
