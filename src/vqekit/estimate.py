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
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, ValidationError
from .pauli import PauliString, PauliSum, commutes
from .simulator import (
    GroupSampler,
    StateVector,
    apply_pauli_string,
    expectation_and_variance,
)

__all__ = [
    "TermEstimator",
    "MeasurementPlan",
    "GroupReport",
    "EstimateReport",
    "PosteriorDensity",
    "update_frequentist",
    "update_bayesian",
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
PILOT_SHOTS = 500


@dataclass(frozen=True)
class TermEstimator:
    """Single-value estimator; also serves whole groups in frequentist mode.

    m1/m2 are the two possible outcomes of a weighted Pauli term (+h, -h).
    Frequentist state is (n, mean, sum of squared deviations); Bayesian
    state is the Beta posterior (alpha, beta) over the m1-probability.
    """

    mode: str
    m1: float = 1.0
    m2: float = -1.0
    n: int = 0
    mean: float = 0.0
    sq_dev: float = 0.0
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.mode not in ("frequentist", "bayesian"):
            raise ParameterError(f"unknown estimator mode {self.mode!r}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ParameterError("Beta parameters must be positive")
        if self.n < 0:
            raise ParameterError("negative sample count")

    @classmethod
    def frequentist(cls, m1: float = 1.0, m2: float = -1.0) -> "TermEstimator":
        return cls(mode="frequentist", m1=m1, m2=m2)

    @classmethod
    def bayesian(cls, m1: float, m2: float) -> "TermEstimator":
        return cls(mode="bayesian", m1=m1, m2=m2)

    @property
    def value(self) -> float:
        if self.mode == "frequentist":
            return self.mean
        return posterior_moments(self.alpha, self.beta, self.m1, self.m2)[0]

    @property
    def sample_variance(self) -> float:
        """Unbiased single-shot variance; +inf until two samples exist."""
        if self.mode != "frequentist":
            raise ParameterError("sample variance is a frequentist quantity")
        if self.n < 2:
            return math.inf
        return self.sq_dev / (self.n - 1)

    @property
    def estimator_variance(self) -> float:
        if self.mode == "frequentist":
            if self.n < 2:
                return math.inf
            return self.sample_variance / self.n
        return posterior_moments(self.alpha, self.beta, self.m1, self.m2)[1]


def _welford(n: int, mean: float, sq_dev: float, x: float) -> tuple[int, float, float]:
    n += 1
    delta = x - mean
    mean = mean + delta / n
    return n, mean, sq_dev + delta * (x - mean)


def update_frequentist(est: TermEstimator, x: float) -> TermEstimator:
    """Welford step: one pass, no catastrophic cancellation."""
    if est.mode != "frequentist":
        raise ParameterError("estimator is not in frequentist mode")
    n, mean, sq_dev = _welford(est.n, est.mean, est.sq_dev, x)
    return replace(est, n=n, mean=mean, sq_dev=sq_dev)


def update_bayesian(est: TermEstimator, n_new: int, r: int) -> TermEstimator:
    if est.mode != "bayesian":
        raise ParameterError("estimator is not in bayesian mode")
    if r < 0 or n_new < 0 or r > n_new:
        raise ParameterError("need 0 <= r <= n_new")
    return replace(
        est, n=est.n + n_new, alpha=est.alpha + r, beta=est.beta + (n_new - r)
    )


def posterior_moments(
    alpha: float, beta: float, m1: float, m2: float
) -> tuple[float, float]:
    """Mean and variance of m1*p + m2*(1-p) under p ~ Beta(alpha, beta)."""
    if alpha <= 0 or beta <= 0:
        raise ParameterError("Beta parameters must be positive")
    s = alpha + beta
    p_mean = alpha / s
    p_var = alpha * beta / (s * s * (s + 1.0))
    spread = m1 - m2
    return p_mean * m1 + (1.0 - p_mean) * m2, spread * spread * p_var


@dataclass(frozen=True)
class MeasurementPlan:
    """Partition of a sum's non-identity term indices into commuting groups.

    per_group_variance_target is filled in once a precision is known; the
    covariance_aware flag records whether grouping used cost estimates or
    merged on commutation alone.
    """

    groups: tuple[tuple[int, ...], ...]
    per_group_variance_target: float | None = None
    covariance_aware: bool = True

    def __post_init__(self):
        seen = set()
        for g in self.groups:
            if not g:
                raise ValidationError("empty group in plan")
            for i in g:
                if i in seen:
                    raise ValidationError(f"term index {i} appears twice")
                seen.add(i)
        if self.per_group_variance_target is not None:
            if self.per_group_variance_target <= 0:
                raise ValidationError("variance target must be positive")

    def validate_against(self, h: PauliSum) -> None:
        got = {i for g in self.groups for i in g}
        if got != set(_measurable_indices(h)):
            raise ValidationError("plan does not cover the sum's non-identity terms")
        for g in self.groups:
            for a in range(len(g)):
                for b in range(a + 1, len(g)):
                    if not commutes(h.terms[g[a]].string, h.terms[g[b]].string):
                        raise ValidationError(
                            f"terms {g[a]} and {g[b]} do not commute"
                        )

    def with_target(self, target: float) -> "MeasurementPlan":
        return replace(self, per_group_variance_target=float(target))


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
    Indexed over all of h's terms, identity rows/columns zero.
    """
    m = len(h.terms)
    phis = np.zeros((m, state.amplitudes.size), dtype=complex)
    means = np.zeros(m)
    for i, t in enumerate(h.terms):
        if t.string.is_identity():
            continue
        phi = complex(t.coeff) * apply_pauli_string(state, t.string).amplitudes
        phis[i] = phi
        means[i] = float(np.real(np.vdot(state.amplitudes, phi)))
    cross = np.real(phis.conj() @ phis.T)
    cov = cross - np.outer(means, means)
    for i, t in enumerate(h.terms):
        if t.string.is_identity():
            cov[i, :] = 0.0
            cov[:, i] = 0.0
    return cov


def pilot_covariances(
    prep,
    h: PauliSum,
    rng: np.random.Generator,
    shots: int = PILOT_SHOTS,
) -> np.ndarray:
    """Low-precision sampled covariance estimates for planning.

    Commuting pairs are co-measured shots times each; non-commuting
    off-diagonal entries are left at zero (they can never share a group).
    prep is called once and must return the state to measure.
    """
    if shots < 2:
        raise ValidationError("need at least two pilot shots")
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
            leaves = sampler.draw(rng, shots).tolist()
            signs = np.array([sampler.outcomes(leaf) for leaf in leaves])
            xs = hi * signs[:, 0]
            ys = hj * signs[:, -1] if i != j else xs
            c = float(np.mean(xs * ys) - np.mean(xs) * np.mean(ys))
            cov[i, j] = c
            cov[j, i] = c
    return cov


def build_groups(h: PauliSum, cov: np.ndarray | None = None) -> MeasurementPlan:
    """Greedy commuting-group assignment, newest groups tried first.

    With covariances, a term joins the first compatible group where either
    its marginal variance contribution is non-positive (co-measuring it is
    free) or the expected preparation cost G * sum_i Var[Q_i] strictly
    drops; cost ties open a new group.  Without covariances the first
    compatible group is taken as-is.
    """
    idx = _measurable_indices(h)
    if cov is not None:
        cov = np.asarray(cov, dtype=float)
        if cov.shape != (len(h.terms), len(h.terms)):
            raise ValidationError("covariance matrix shape does not match terms")
    groups: list[list[int]] = []
    group_vars: list[float] = []

    def joined_variance(g: list[int], i: int) -> float:
        members = g + [i]
        v = float(sum(cov[a, b] for a in members for b in members))
        return max(0.0, v)

    for i in idx:
        compatible = []
        for gi in range(len(groups) - 1, -1, -1):
            if all(commutes(h.terms[i].string, h.terms[j].string) for j in groups[gi]):
                compatible.append(gi)
        if cov is None:
            if compatible:
                groups[compatible[0]].append(i)
            else:
                groups.append([i])
            continue
        total = sum(group_vars)
        var_i = max(0.0, float(cov[i, i]))
        new_cost = (len(groups) + 1) * (total + var_i)
        best_gi = None
        for gi in compatible:
            v = joined_variance(groups[gi], i)
            cost = len(groups) * (total - group_vars[gi] + v)
            if v - group_vars[gi] <= 1e-12 or cost < new_cost - 1e-12:
                best_gi = gi
                break
        if best_gi is None:
            groups.append([i])
            group_vars.append(var_i)
        else:
            group_vars[best_gi] = joined_variance(groups[best_gi], i)
            groups[best_gi].append(i)
    return MeasurementPlan(
        groups=tuple(tuple(g) for g in groups),
        covariance_aware=cov is not None,
    )


def truncate_terms(
    h: PauliSum, epsilon: float, C: float
) -> tuple[PauliSum, int, float]:
    """Drop the largest small-|h| prefix whose total magnitude stays under C*eps.

    The removed mass is a bias bound; the surviving variance budget
    (1 - C^2) eps^2 is split evenly over the M - k* kept terms.  Identity
    terms are exempt: they cost nothing to measure.
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
    m_kept = len(idx) - len(removed)
    if m_kept > 0:
        per_term = (1.0 - C * C) * epsilon * epsilon / m_kept
    else:
        per_term = math.inf
    return PauliSum(h.n_qubits, kept), len(removed), per_term


def expected_preparations(
    plan: MeasurementPlan, state: StateVector, h: PauliSum, epsilon: float
) -> float:
    """Analytic expected shot count G * sum_i Var[Q_i] / eps^2."""
    _check_epsilon(epsilon)
    plan.validate_against(h)
    total_var = 0.0
    for g in plan.groups:
        q = PauliSum(h.n_qubits, [h.terms[i] for i in g])
        total_var += expectation_and_variance(state, q)[1]
    return len(plan.groups) * total_var / (epsilon * epsilon)


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


class _LeafValues(dict):
    """The group's weighted sum q = sum_i c_i o_i per leaf code.

    q depends only on the leaf, so each is computed once, on first lookup.
    """

    def __init__(self, sampler, coeffs):
        super().__init__()
        self.sampler = sampler
        self.coeffs = coeffs

    def __missing__(self, leaf):
        q = self[leaf] = float(np.dot(self.coeffs, self.sampler.outcomes(leaf)))
        return q


def _frequentist_group(sampler, coeffs, target, rng):
    """(shots, sample mean, estimator variance) of the group's sum Q."""
    # The running moments stay plain floats between stopping-rule checks.
    qs = _LeafValues(sampler, coeffs)
    n, mean, sq_dev = 0, 0.0, 0.0
    while True:
        for leaf in sampler.draw(rng, BATCH_SIZE).tolist():
            n, mean, sq_dev = _welford(n, mean, sq_dev, qs[leaf])
        est = TermEstimator(mode="frequentist", n=n, mean=mean, sq_dev=sq_dev)
        if est.n >= MIN_SHOT_FLOOR and est.estimator_variance < target:
            return est.n, est.value, est.estimator_variance


def _bayesian_group(sampler, coeffs, target, rng):
    """(shots, posterior mean, posterior variance) of the group's sum Q.

    The prior is a symmetric Dirichlet of total weight 2 over the 2^k joint
    sign patterns of the group's k strings; for one string it is the flat
    Beta(1, 1) of TermEstimator.bayesian.  Each leaf is one pattern, so the
    posterior needs only n, sum q and sum q^2, and co-measured terms keep
    their covariance.  Under the prior, E[q] = 0 and E[q^2] = sum c_i^2.
    """
    prior_sq = 2.0 * float(np.dot(coeffs, coeffs))
    qs = _LeafValues(sampler, coeffs)
    n, s1, s2 = 0, 0.0, 0.0

    def moments():
        mean = s1 / (n + 2)
        return mean, ((prior_sq + s2) / (n + 2) - mean * mean) / (n + 3)

    while moments()[1] >= target:
        leaves, counts = np.unique(sampler.draw(rng, BATCH_SIZE), return_counts=True)
        for leaf, count in zip(leaves.tolist(), counts.tolist()):
            q = qs[leaf]
            s1 += count * q
            s2 += count * q * q
        n += BATCH_SIZE
    return (n, *moments())


def _group_density(coeffs, mean: float, var: float) -> PosteriorDensity:
    """Beta density on Q's range [-sum|c|, sum|c|] with the given moments.

    Exact for a single term; for larger groups it matches the Dirichlet
    posterior's mean and variance.
    """
    half = float(np.sum(np.abs(coeffs)))
    m = (mean + half) / (2.0 * half)
    t = m * (1.0 - m) * (2.0 * half) ** 2 / var - 1.0
    return beta_density(m * t, (1.0 - m) * t, half, -half)


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
    measure; every preparation of every group samples that state.  The
    identity component of h is added analytically.  In Bayesian mode a
    credible interval for the total is attached when credible_level is set.
    """
    _check_epsilon(epsilon)
    if mode not in ("frequentist", "bayesian"):
        raise ParameterError(f"unknown estimation mode {mode!r}")
    if rng is None:
        raise ValidationError("an explicit rng is required for reproducibility")
    plan.validate_against(h)
    state = prep()
    identity = float(np.real(h.identity_part()))
    if not plan.groups:
        return EstimateReport(
            value=identity,
            variance_of_estimator=0.0,
            total_preparations=0,
            groups=(),
            mode=mode,
        )
    if plan.per_group_variance_target is not None:
        target = plan.per_group_variance_target
    else:
        target = epsilon * epsilon / len(plan.groups)

    measure_group = _frequentist_group if mode == "frequentist" else _bayesian_group
    reports = []
    densities = []
    for g in plan.groups:
        sampler = GroupSampler(state, [h.terms[i].string for i in g])
        coeffs = np.array([float(np.real(h.terms[i].coeff)) for i in g])
        n, value, var = measure_group(sampler, coeffs, target, rng)
        reports.append(
            GroupReport(indices=g, value=value, estimator_variance=var, preparations=n)
        )
        if mode == "bayesian" and credible_level is not None and np.any(coeffs):
            densities.append(_group_density(coeffs, value, var))

    interval = None
    if mode == "bayesian" and credible_level is not None and densities:
        posterior = convolve_posteriors(densities)
        lo, hi = posterior.credible_interval(credible_level)
        interval = (lo + identity, hi + identity)
    return EstimateReport(
        value=identity + sum(r.value for r in reports),
        variance_of_estimator=sum(r.estimator_variance for r in reports),
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
        steps = np.diff(grid)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValidationError("density grid must be uniform")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "pdf", pdf)

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


def beta_density(
    alpha: float, beta: float, m1: float, m2: float, points: int = 1025
) -> PosteriorDensity:
    """Posterior density of m1*p + m2*(1-p), p ~ Beta(alpha, beta)."""
    if alpha <= 0 or beta <= 0:
        raise ParameterError("Beta parameters must be positive")
    lo, hi = min(m1, m2), max(m1, m2)
    if hi - lo < 1e-300:
        raise ValidationError("degenerate outcome pair has no density")
    from scipy.stats import beta as _beta_dist  # slow import; kept off `import vqekit`

    grid = np.linspace(lo, hi, points)
    p = (grid - m2) / (m1 - m2)
    pdf = _beta_dist.pdf(np.clip(p, 0.0, 1.0), alpha, beta) / abs(m1 - m2)
    mass = np.trapezoid(pdf, grid)
    return PosteriorDensity(grid=grid, pdf=pdf / mass)


def convolve_posteriors(pdfs) -> PosteriorDensity:
    """Density of the sum of independent discretized posteriors."""
    pdfs = list(pdfs)
    if not pdfs:
        raise ValidationError("no densities to convolve")
    for d in pdfs:
        if abs(d.mass() - 1.0) > 1e-6:
            raise ValidationError(
                f"density mass {d.mass():.8f} drifted past 1e-6; grid too coarse"
            )
    dx = min(d.dx for d in pdfs)
    resampled = []
    for d in pdfs:
        n = max(2, int(round((d.grid[-1] - d.grid[0]) / dx)) + 1)
        grid = d.grid[0] + dx * np.arange(n)
        pdf = np.interp(grid, d.grid, d.pdf, left=0.0, right=0.0)
        mass = np.trapezoid(pdf, grid)
        if mass <= 0:
            raise ValidationError("density lost all mass in resampling")
        resampled.append((float(grid[0]), pdf / mass))
    start, acc = resampled[0]
    for s, pdf in resampled[1:]:
        acc = np.convolve(acc, pdf) * dx
        start += s
    grid = start + dx * np.arange(acc.size)
    mass = np.trapezoid(acc, grid)
    return PosteriorDensity(grid=grid, pdf=acc / mass)


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
