"""Shot-based estimation of Hamiltonian expectation values.

Terms are sampled through projective group measurements and accumulated by
either a frequentist (running mean / unbiased variance) or a Bayesian
(Dirichlet posterior over each group's joint outcomes) estimator until the
estimator variance falls under a per-group target derived from the
requested precision.  Planning utilities choose commuting groups with
covariance awareness, truncate negligible terms under a bias budget, and
convolve group posteriors into a credible interval for the total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DimensionError, ParameterError, ValidationError
from .pauli import PauliSum, _first_anticommuting_pair, _x_mask_action, commutes
from .simulator import GroupSampler, StateVector

__all__ = [
    "MeasurementPlan",
    "GroupReport",
    "EstimateReport",
    "PosteriorDensity",
    "posterior_moments",
    "build_groups",
    "exact_covariances",
    "pilot_covariances",
    "truncate_terms",
    "expected_preparations",
    "estimate_expectation",
    "beta_density",
    "convolve_posteriors",
    "format_plan",
]

# Shots before a frequentist variance estimate is trusted by the stopping rule.
MIN_SHOT_FLOOR = 1000
# Shots between stopping-rule checks.
BATCH_SIZE = 100
# Shots in the largest single draw of a group's sampler: whole batches.
MAX_BLOCK = 64_000
PILOT_SHOTS = 500
# Expected preparations G * sum_g Var[Q_g] / eps^2 above which an estimate is
# refused before its first shot: an epsilon such as 1e-9 asks for about 1e18.
MAX_PREPARATIONS = 10**9
# Grid points of a discretized posterior density.
DENSITY_POINTS = 1025
# Bytes of one block of sigma_i psi rows in `exact_covariances`: forming every
# row at once raised the peak memory of a 12-mode call by a third.
_ROW_BLOCK_BYTES = 1 << 20
# Entries at most _FLOOR * max skip the FFT: max * dx <= 2 at mass 1, so n hold < 2n 2^-64.
_FLOOR = 2.0**-64


def posterior_moments(
    alpha: float, beta: float, m1: float, m2: float
) -> tuple[float, float]:
    """Mean and variance of m1*p + m2*(1-p) under p ~ Beta(alpha, beta)."""
    if not (0 < alpha < math.inf and 0 < beta < math.inf):  # NaN fails too
        raise ParameterError(f"Beta parameters must be finite and positive: {alpha!r}, {beta!r}")
    s = alpha + beta
    p_mean = alpha / s
    p_var = alpha * beta / (s * s * (s + 1.0))
    spread = m1 - m2
    return p_mean * m1 + (1.0 - p_mean) * m2, spread * spread * p_var


@dataclass(frozen=True)
class MeasurementPlan:
    """Partition of a sum's non-identity term indices into commuting groups."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for g in self.groups:
            if not g:
                raise ValidationError("empty group in plan")
            for i in g:
                if i in seen:
                    raise ValidationError(f"term index {i} appears twice")
                seen.add(i)

    def validate_against(self, h: PauliSum) -> None:
        """Check that the plan partitions h's non-identity terms into
        commuting groups.  A sum's terms are an immutable tuple, so the plan
        remembers the last sum object it passed against and skips a repeat."""
        if getattr(self, "_valid_for", None) is h:
            return
        got = {i for g in self.groups for i in g}
        if got != set(_measurable_indices(h)):
            raise ValidationError("plan does not cover the sum's non-identity terms")
        # Group by group: the pair named is the first in group, then member order.
        for g in (g for g in self.groups if len(g) > 1):
            pair = _first_anticommuting_pair(
                [(h.terms[i].string.x_mask, h.terms[i].string.z_mask) for i in g]
            )
            if pair is not None:
                a, b = (g[k] for k in pair)
                raise ValidationError(f"terms {a} and {b} do not commute")
        # Not a field: plans still compare and hash by their groups alone.
        object.__setattr__(self, "_valid_for", h)


def _check_epsilon(epsilon: float) -> None:
    # NaN passes `epsilon <= 0`, and a NaN target never stops the sampler.
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValidationError(f"epsilon must be finite and positive, got {epsilon!r}")


def _measurable_indices(h: PauliSum) -> list[int]:
    return [i for i, t in enumerate(h.terms) if not t.string.is_identity()]


def exact_covariances(h: PauliSum, state: StateVector) -> np.ndarray:
    """Matrix of coefficient-weighted term covariances on an exact state.

    Entry (i, j) is Re<A_i A_j> - <A_i><A_j> with A = h_i * sigma_i, the
    symmetrized covariance; only commuting pairs are consumed by planning.
    Indexed over all of h's terms, identity rows/columns zero.  The rows
    A_i psi come from the X-mask kernel in blocks of _ROW_BLOCK_BYTES.
    """
    if h.n_qubits != state.n_qubits:
        raise DimensionError("string and state qubit counts differ")
    psi, idx = state.amplitudes, _measurable_indices(h)
    phis = np.zeros((len(h.terms), psi.size), dtype=complex)
    means = np.zeros(len(h.terms))
    step = max(1, _ROW_BLOCK_BYTES // psi.nbytes)
    for lo in range(0, len(idx), step):
        ts = [h.terms[i] for i in idx[lo : lo + step]]
        xs = np.array([t.string.x_mask for t in ts], dtype=np.intp)[:, None]
        src, phases = _x_mask_action(h.n_qubits, xs, [t.string.z_mask for t in ts])
        coeffs = np.array([t.coeff for t in ts], dtype=complex)[:, None]
        phis[idx[lo : lo + step]] = coeffs * (psi[src] * phases)
    means[idx] = [np.vdot(psi, phis[i]).real for i in idx]
    cross = np.real(phis.conj() @ phis.T)
    return cross - np.outer(means, means)


def pilot_covariances(prep, h: PauliSum, rng: np.random.Generator) -> np.ndarray:
    """Low-precision sampled covariance estimates for planning.

    Commuting pairs are co-measured PILOT_SHOTS times each; non-commuting
    off-diagonal entries are left at zero (they can never share a group).
    prep is called once and must return the state to measure.
    """
    state = prep()
    m = len(h.terms)
    cov = np.zeros((m, m))
    idx = _measurable_indices(h)
    for a in range(len(idx)):
        for b in range(a, len(idx)):
            i, j = idx[a], idx[b]
            si, sj = h.terms[i].string, h.terms[j].string
            if i != j and not commutes(si, sj):
                continue
            hi = float(np.real(h.terms[i].coeff))
            hj = float(np.real(h.terms[j].coeff))
            sampler = GroupSampler(state, (si,) if i == j else (si, sj))
            signs = sampler.outcome_table[sampler.draw(rng, PILOT_SHOTS)]
            xs = hi * signs[:, 0]
            ys = hj * signs[:, -1] if i != j else xs
            c = float(np.mean(xs * ys) - np.mean(xs) * np.mean(ys))
            cov[i, j] = c
            cov[j, i] = c
    return cov


def build_groups(h: PauliSum, cov: np.ndarray | None = None) -> MeasurementPlan:
    """Greedy commuting-group assignment, newest groups tried first.

    A term joins the first group it commutes with where either its marginal
    variance contribution is non-positive (co-measuring it is free) or the
    expected preparation cost G * sum_g Var[Q_g] strictly drops; cost ties
    open a new group.  Without covariances every covariance counts as 0, so
    the newest group the term commutes with is taken.
    """
    idx = _measurable_indices(h)
    if cov is not None:
        cov = np.asarray(cov, dtype=float)
        if cov.shape != (len(h.terms), len(h.terms)):
            raise ValidationError("covariance matrix shape does not match terms")
    strings = [t.string for t in h.terms]
    groups: list[list[int]] = []
    sums: list[float] = []  # unclipped sum of cov over each group's member pairs
    for i in idx:
        s = strings[i]
        c_ii = 0.0 if cov is None else float(cov[i, i])
        for gi in range(len(groups) - 1, -1, -1):
            g = groups[gi]
            if not all(commutes(s, strings[j]) for j in g):
                continue
            joined = sums[gi] + c_ii
            if cov is not None:
                joined += sum(cov[i, j] + cov[j, i] for j in g)
            # Variances are the sums clipped at 0, and a joined sum that
            # passes this test is positive, so it is the joined variance.
            old = max(0.0, sums[gi])
            if joined - old > 1e-12:
                total = sum(max(0.0, v) for v in sums)
                new_cost = (len(groups) + 1) * (total + max(0.0, c_ii))
                if not len(groups) * (total - old + joined) < new_cost - 1e-12:
                    continue
            g.append(i)
            sums[gi] = joined
            break
        else:
            groups.append([i])
            sums.append(c_ii)
    return MeasurementPlan(groups=tuple(tuple(g) for g in groups))


def truncate_terms(h: PauliSum, epsilon: float, C: float) -> tuple[PauliSum, int]:
    """Drop the largest small-|h| prefix whose total magnitude stays under C*eps.

    Returns the kept sum and the number k* of dropped terms.  The removed
    mass is a bias bound.  Identity terms are exempt: they cost nothing to
    measure.
    """
    if not 0.0 <= C < 1.0:
        raise ValidationError("C must lie in [0, 1)")
    _check_epsilon(epsilon)
    idx = _measurable_indices(h)
    order = sorted(idx, key=lambda i: abs(h.terms[i].coeff))
    budget = C * epsilon
    removed = set()
    running = 0.0
    for i in order:
        running += abs(h.terms[i].coeff)
        if running < budget:
            removed.add(i)
        else:
            break
    kept = [t for i, t in enumerate(h.terms) if i not in removed]
    return PauliSum(h.n_qubits, kept), len(removed)


def expected_preparations(
    plan: MeasurementPlan, state: StateVector, h: PauliSum, epsilon: float
) -> float:
    """G * sum_g Var[Q_g] / eps^2, the frequentist price `estimate_expectation` enforces."""
    _check_epsilon(epsilon)
    plan.validate_against(h)
    if h.n_qubits != state.n_qubits:
        raise DimensionError("operator and state qubit counts differ")
    if not h.is_hermitian():
        raise ValidationError("expectation requires a Hermitian sum")
    return _priced_groups(state, h, plan, epsilon, "frequentist")[1]


@dataclass(frozen=True)
class GroupReport:
    indices: tuple[int, ...]
    value: float
    estimator_variance: float
    preparations: int

    def to_json_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "value": self.value,
            "estimator_variance": self.estimator_variance,
            "preparations": self.preparations,
        }


@dataclass(frozen=True)
class EstimateReport:
    value: float
    variance_of_estimator: float
    total_preparations: int
    groups: tuple[GroupReport, ...]
    mode: str
    credible_interval: tuple[float, float] | None = None

    def to_json_dict(self) -> dict:
        d = {
            "value": self.value,
            "variance_of_estimator": self.variance_of_estimator,
            "total_preparations": self.total_preparations,
            "mode": self.mode,
            "groups": [g.to_json_dict() for g in self.groups],
        }
        if self.credible_interval is not None:
            d["credible_interval"] = list(self.credible_interval)
        return d


def _blocks(sampler, rng, shots: int):
    """(generator state, pattern codes) of blocks of `shots` shots, then
    twice the last, up to MAX_BLOCK.  The group loop reads a block
    BATCH_SIZE shots per stopping-rule check and `_rewind`s to the shots it
    used."""
    while True:
        state = rng.bit_generator.state
        yield state, sampler.draw(rng, shots)
        shots = min(2 * shots, MAX_BLOCK)


def _rewind(rng, state, variates: int) -> None:
    """Leave rng as if only `variates` doubles had been drawn since `state`.

    A double is one 64-bit output.  PCG64 and PCG64DXSM skip them with
    `advance`.  Philox keeps 4 outputs per counter in a buffer: past the
    ones left there, it skips whole counters with `advance`, which empties
    the buffer, and draws the last 1 to 4 doubles, which refill it as
    drawing them all would.  `advance` drops a buffered 32-bit value, so it
    is put back from `state`.  Other bit generators draw the doubles again.
    """
    bitgen = rng.bit_generator
    bitgen.state = state
    if isinstance(bitgen, (np.random.PCG64, np.random.PCG64DXSM)):
        bitgen.advance(variates)
    elif isinstance(bitgen, np.random.Philox) and variates > (left := 4 - state["buffer_pos"]):
        counters = (variates - left - 1) // 4
        bitgen.advance(counters)
        rng.random(variates - left - 4 * counters)
    else:
        rng.random(variates)
        return
    if state["has_uint32"]:
        bitgen.state = {**bitgen.state, "has_uint32": 1, "uinteger": state["uinteger"]}


def _group_values(sampler, coeffs) -> tuple[np.ndarray, float]:
    """(table, Var[q]) of the group's sum q = sum_i c_i o_i: table[b] is q in
    outcome pattern b, and Var[q] is exact, from the pattern probabilities."""
    table = (sampler.outcome_table * coeffs).sum(axis=1)
    mean = sampler.probabilities @ table
    return table, float(sampler.probabilities @ (table - mean) ** 2)


def _first_block(var: float, target: float, floor: int) -> int:
    """Shots of a group's first block: its expected stop Var[q]/target,
    20% over, in whole batches, at least `floor` and one batch, at most
    MAX_BLOCK."""
    var = 1.2 * var
    if var >= target * MAX_BLOCK:  # also a target that underflowed to 0
        return MAX_BLOCK
    return max(floor, BATCH_SIZE, BATCH_SIZE * math.ceil(var / (target * BATCH_SIZE)))


def _measure_group(sampler, coeffs, table, var: float, target, rng, mode: str):
    """(shots, mean, estimator variance) of the group's sum Q = sum_i c_i o_i,
    from its `_group_values` (table, var).

    Each block's shot values x = q - c go into BATCH_SIZE-shot sums of x
    and x^2, which are added one batch after another, so a check sees the
    same totals n, S1, S2 whatever the block sizes.

    Frequentist: mean c + S1/n and variance (S2 - S1^2/n)/(n-1)/n, where the
    shift c is the first shot's value: a group whose shots all agree has
    variance exactly 0, and a nearly deterministic one does not cancel.

    Bayesian (c = 0): the prior is a symmetric Dirichlet of total weight 2
    over the 2^k joint sign patterns of the group's k strings; for one
    string it is the flat Beta(1, 1), and the posterior moments are those of
    `posterior_moments(1 + r, 1 + n - r, c, -c)` after r of n shots read +1.
    The posterior needs only n, S1 and S2, and co-measured terms keep their
    covariance.  Under the prior, E[q] = 0 and E[q^2] = sum c_i^2.
    """
    frequentist = mode == "frequentist"
    if frequentist:
        floor = MIN_SHOT_FLOOR

        def moments(n, s1, s2):
            return shift + s1 / n, (s2 - s1 * s1 / n) / (n - 1) / n

    else:
        floor, prior_sq = 0, 2.0 * float(np.sum(coeffs * coeffs))

        def moments(n, s1, s2):
            mean = s1 / (n + 2)
            return mean, ((prior_sq + s2) / (n + 2) - mean * mean) / (n + 3)

        if moments(0, 0.0, 0.0)[1] < target:
            return (0, *moments(0, 0.0, 0.0))
    n, s1, s2 = 0, 0.0, 0.0
    first = _first_block(var, target, floor)
    for state, block in _blocks(sampler, rng, first):
        if n == 0:
            shift = table[block[0]] if frequentist else 0.0
        x = (table[block] - shift).reshape(-1, BATCH_SIZE)
        ns = n + BATCH_SIZE * np.arange(1, x.shape[0] + 1)
        s1s = np.cumsum(np.concatenate([[s1], x.sum(axis=1)]))[1:]
        s2s = np.cumsum(np.concatenate([[s2], (x * x).sum(axis=1)]))[1:]
        means, variances = moments(ns, s1s, s2s)
        stops = np.flatnonzero((ns >= floor) & (variances < target))
        if stops.size:
            b = int(stops[0])
            if b + 1 < x.shape[0]:
                _rewind(rng, state, (b + 1) * BATCH_SIZE * len(sampler.strings))
            return int(ns[b]), float(means[b]), float(variances[b])
        n, s1, s2 = int(ns[-1]), s1s[-1], s2s[-1]


def _group_density(coeffs, mean: float, var: float) -> PosteriorDensity:
    """Beta density on Q's range [-sum|c|, sum|c|] with the given moments.

    Exact for a single term; for larger groups it matches the Dirichlet
    posterior's mean and variance.
    """
    half = float(np.sum(np.abs(coeffs)))
    m = (mean + half) / (2.0 * half)
    t = m * (1.0 - m) * (2.0 * half) ** 2 / var - 1.0
    # Both parameters are at least 1 in exact arithmetic, and exactly 1 for
    # one term whose shots all agreed; there rounding can leave 1 - 1e-15.
    return beta_density(max(1.0, m * t), max(1.0, (1.0 - m) * t), half, -half)


def _priced_groups(state: StateVector, h: PauliSum, plan: MeasurementPlan, epsilon, mode):
    """Each group's (sampler, coeffs, table, Var[q]) and the plan's price in `mode`."""
    groups = []
    for g in plan.groups:
        sampler = GroupSampler(state, [h.terms[i].string for i in g])
        coeffs = np.array([float(np.real(h.terms[i].coeff)) for i in g])
        groups.append((sampler, coeffs, *_group_values(sampler, coeffs)))
    n_exp = len(groups) * sum(var for *_, var in groups) / (epsilon * epsilon)
    for sampler, coeffs, table, var in groups if mode == "bayesian" else ():
        prior = 2.0 * float(coeffs @ coeffs) + 2.0 * float(sampler.probabilities @ table) ** 2
        prior_n = math.sqrt(len(groups) * prior) / epsilon  # the shots of the prior alone
        n_exp += max(0.0, prior_n - len(groups) * var / (epsilon * epsilon))
    return groups, n_exp


def estimate_expectation(
    prep,
    h: PauliSum,
    plan: MeasurementPlan,
    epsilon: float,
    mode: str = "frequentist",
    rng: np.random.Generator | None = None,
    credible_level: float | None = None,
) -> EstimateReport:
    """Measure each group until its estimator variance clears eps^2 / G.

    prep is called once, after validation, and must return the state to
    measure; every preparation of every group samples that state.  Before
    the first shot every group's exact Var[Q_g] and E[Q_g] are known, and a
    plan whose expected preparations exceed MAX_PREPARATIONS raises
    CapacityError: G Var[Q_g] / eps^2 per group, in Bayesian mode at least
    sqrt(G (2 sum c^2 + 2 E[Q_g]^2)) / eps.  The identity component of h is added
    analytically.  credible_level, which only Bayesian mode takes, attaches
    a credible interval for the total; with no group to sample it is the
    point (identity, identity).
    """
    _check_epsilon(epsilon)
    if mode not in ("frequentist", "bayesian"):
        raise ParameterError(f"unknown estimation mode {mode!r}")
    if credible_level is not None:
        if mode != "bayesian":
            raise ParameterError("a credible level needs mode 'bayesian'")
        # NaN fails both comparisons.
        if not 0.0 < credible_level < 1.0:
            raise ParameterError(f"credible level must lie in (0, 1), got {credible_level!r}")
    if rng is None:
        raise ValidationError("an explicit rng is required for reproducibility")
    plan.validate_against(h)
    if not h.is_hermitian():
        raise ValidationError("expectation requires a Hermitian sum")
    state = prep()
    identity = float(np.real(h.identity_part()))

    groups, n_exp = _priced_groups(state, h, plan, epsilon, mode)
    if n_exp > MAX_PREPARATIONS:
        raise CapacityError(
            f"the plan expects {n_exp:g} preparations, over the limit of {MAX_PREPARATIONS:g}"
        )

    reports = []
    densities = []
    for g, (sampler, coeffs, table, group_var) in zip(plan.groups, groups):
        target = epsilon * epsilon / len(plan.groups)
        n, value, var = _measure_group(sampler, coeffs, table, group_var, target, rng, mode)
        reports.append(
            GroupReport(indices=g, value=value, estimator_variance=var, preparations=n)
        )
        if credible_level is not None and np.any(coeffs):
            densities.append(_group_density(coeffs, value, var))

    interval = None
    if credible_level is not None:
        lo = hi = 0.0  # no group, or all coefficients 0: the total is the identity
        if densities:
            lo, hi = convolve_posteriors(densities).credible_interval(credible_level)
        interval = (lo + identity, hi + identity)
    return EstimateReport(
        value=identity + sum(r.value for r in reports),
        variance_of_estimator=sum((r.estimator_variance for r in reports), 0.0),
        total_preparations=sum(r.preparations for r in reports),
        groups=tuple(reports),
        mode=mode,
        credible_interval=interval,
    )


@dataclass(frozen=True)
class PosteriorDensity:
    """Discretized density on a uniform grid."""

    grid: np.ndarray
    pdf: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        pdf = np.asarray(self.pdf, dtype=float)
        if grid.ndim != 1 or grid.shape != pdf.shape or grid.size < 2:
            raise ValidationError("density needs matching 1-d grid and pdf")
        if not np.all((pdf >= 0.0) & (pdf < math.inf)):  # NaN fails too
            raise ValidationError("density values must be finite and non-negative")
        steps = np.diff(grid)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValidationError("density grid must be uniform")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "pdf", pdf)

    @classmethod
    def _unchecked(cls, grid: np.ndarray, pdf: np.ndarray) -> "PosteriorDensity":
        """Wrap float arrays without a check: only for grids built uniform,
        as linspace or start + dx * arange(n)."""
        out = cls.__new__(cls)
        object.__setattr__(out, "grid", grid)
        object.__setattr__(out, "pdf", pdf)
        return out

    @property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def mass(self) -> float:
        return float(np.trapezoid(self.pdf, self.grid))

    def mean(self) -> float:
        return float(np.trapezoid(self.grid * self.pdf, self.grid))

    def credible_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Central interval bracketing the requested mass."""
        if not 0.0 < level < 1.0:
            raise ValidationError("level must lie in (0, 1)")
        inc = 0.5 * (self.pdf[1:] + self.pdf[:-1]) * self.dx
        cdf = np.concatenate([[0.0], np.cumsum(inc)])
        cdf /= cdf[-1]
        tail = 0.5 * (1.0 - level)
        lo = float(np.interp(tail, cdf, self.grid))
        hi = float(np.interp(1.0 - tail, cdf, self.grid))
        return lo, hi


@lru_cache(maxsize=64)
def _beta_grid(m1: float, m2: float, *_signs) -> tuple:
    """Read-only grid, p, p < 1 of `beta_density`; `_signs` keep 0.0 and -0.0 apart."""
    grid = np.linspace(min(m1, m2), max(m1, m2), DENSITY_POINTS)
    p = np.clip((grid - m2) / (m1 - m2), 0.0, 1.0)
    below_one = p < 1.0
    grid.flags.writeable = p.flags.writeable = below_one.flags.writeable = False
    return grid, p, below_one


def beta_density(alpha: float, beta: float, m1: float, m2: float) -> PosteriorDensity:
    """Posterior density of m1*p + m2*(1-p), p ~ Beta(alpha, beta).

    The density is exp of the log-density (alpha-1) log p + (beta-1) log(1-p)
    taken relative to its mode, normalised by its trapezoid mass on the
    grid.  Below alpha or beta = 1 it is unbounded at an end of the grid,
    which a grid cannot hold, so both must be at least 1.  The read-only
    grid is shared by every density on the same (m1, m2).
    """
    if not (alpha >= 1.0 and beta >= 1.0):
        raise ParameterError(
            f"beta_density needs alpha, beta >= 1, got {alpha!r}, {beta!r}"
        )
    lo, hi = min(m1, m2), max(m1, m2)
    if hi - lo < 1e-300:
        raise ValidationError("degenerate outcome pair has no density")
    grid, p, below_one = _beta_grid(m1, m2, math.copysign(1.0, m1), math.copysign(1.0, m2))
    log_pdf = np.zeros_like(p)
    if alpha + beta > 2.0:
        # log(p/p0) and log((1-p)/(1-p0)) about the mode p0 = 1 - q0 go
        # through log1p, which keeps the peak accurate to rounding at
        # alpha, beta ~ 1e5.  A term of exponent 0 is skipped: 0 log 0 = 0.
        p0 = (alpha - 1.0) / (alpha + beta - 2.0)
        q0 = (beta - 1.0) / (alpha + beta - 2.0)
        with np.errstate(divide="ignore"):
            if alpha > 1.0:
                log_pdf += (alpha - 1.0) * np.log1p((p - p0) / p0)
            if beta > 1.0:
                # At p = 1, (p0 - p) / q0 misses -1 by the rounding of p0.
                ratio = np.where(below_one, (p0 - p) / q0, -1.0)
                log_pdf += (beta - 1.0) * np.log1p(ratio)
    pdf = np.exp(log_pdf)
    return PosteriorDensity._unchecked(grid, pdf / _trapezoid(pdf, float(grid[1] - grid[0])))


@lru_cache(maxsize=64)
def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n (n >= 1): a length the FFT runs fast."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:  # odd runs over 3^b, then 5 * 3^b, 25 * 3^b, ...
        three = odd
        while three < best:
            best = min(best, three << (-(-n // three) - 1).bit_length())
            three *= 3
        odd *= 5
    return best


def _trapezoid(y: np.ndarray, dx: float) -> float:
    """Trapezoid sum of y on a uniform grid of step dx."""
    return dx * (float(np.sum(y)) - 0.5 * (y[0] + y[-1]))


def convolve_posteriors(pdfs) -> PosteriorDensity:
    """Density of the sum of independent discretized posteriors.

    Each density is resampled onto the finest grid step, unless it is on
    that step already; one batched FFT convolves their supports, where they
    exceed _FLOOR times their maximum, onto the sum's full grid.
    """
    pdfs = list(pdfs)
    if not pdfs:
        raise ValidationError("no densities to convolve")
    for d in pdfs:
        mass = _trapezoid(d.pdf, d.dx)
        if not abs(mass - 1.0) <= 1e-6:  # NaN fails too
            raise ValidationError(
                f"density mass {mass:.8f} drifted past 1e-6; grid too coarse"
            )
    dx = min(d.dx for d in pdfs)
    size, offset, width, supports = 1, 0, 1, []
    for d in pdfs:
        if d.dx == dx:
            pdf = d.pdf
        else:
            n = max(2, int(round((d.grid[-1] - d.grid[0]) / dx)) + 1)
            pdf = np.interp(d.grid[0] + dx * np.arange(n), d.grid, d.pdf, left=0.0, right=0.0)
        mass = _trapezoid(pdf, dx)
        if mass <= 0:
            raise ValidationError("density lost all mass in resampling")
        lo, hi = np.flatnonzero(pdf > _FLOOR * pdf.max())[[0, -1]].tolist()
        supports.append(pdf[lo : hi + 1] / mass)
        size, offset, width = size + pdf.size - 1, offset + lo, width + hi - lo
    stack = np.array([np.concatenate([s, np.zeros(width - s.size)]) for s in supports])
    n_fft = _fft_length(width)
    spectrum = np.prod(np.fft.rfft(stack, n_fft, axis=1), axis=0)
    acc = np.zeros(size)
    # Rounding leaves values of order 1e-16 below zero where the sum is near 0.
    acc[offset : offset + width] = np.maximum(np.fft.irfft(spectrum, n_fft)[:width], 0.0)
    grid = sum(float(d.grid[0]) for d in pdfs) + dx * np.arange(size)
    return PosteriorDensity._unchecked(grid, acc / _trapezoid(acc, dx))


def format_plan(plan: MeasurementPlan, h: PauliSum) -> str:
    """One group per line, terms as signed coefficient times letters."""
    lines = []
    for k, g in enumerate(plan.groups):
        parts = []
        for i in g:
            t = h.terms[i]
            c = float(np.real(t.coeff))
            parts.append(f"{c:+g}*{t.string.letters}")
        lines.append(f"group {k + 1}: " + "  ".join(parts))
    return "\n".join(lines)
