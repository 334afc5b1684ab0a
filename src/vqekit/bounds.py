"""Accuracy certificates from (mean, variance) pairs, plus operator
transforms that steer optimizations toward interior eigenstates or
symmetry sectors.

All bounds are pure arithmetic on the inputs; the spectral gap is never
estimated here, it must be supplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BoundInapplicableError, ValidationError
from .pauli import PauliSum

__all__ = [
    "BoundInputs",
    "SymmetryConstraint",
    "weinstein_interval",
    "overlap_bound",
    "delos_blinder",
    "folded_spectrum",
    "penalty_lagrangian",
]


@dataclass(frozen=True)
class BoundInputs:
    """Measured mean and variance, a known gap lower bound, and an
    optional dominance weight alpha (the assumed least weight of the
    target eigenstate in the prepared state)."""

    mean: float
    variance: float
    gap: float = math.inf
    alpha: float | None = None

    def __post_init__(self):
        # Written so that NaN fails each check; gap = inf is "no gap known".
        if not math.isfinite(self.mean):
            raise ValidationError("mean must be finite")
        if not 0.0 <= self.variance < math.inf:
            raise ValidationError("variance must be finite and non-negative")
        if not self.gap > 0:
            raise ValidationError("gap must be positive")
        if self.alpha is not None and not 0.5 < self.alpha <= 1.0:
            raise ValidationError("alpha must lie in (0.5, 1]")


def weinstein_interval(b: BoundInputs) -> tuple[float, float]:
    """mean +- sqrt(variance); some eigenvalue always lies inside."""
    half = math.sqrt(b.variance)
    return b.mean - half, b.mean + half


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def overlap_bound(b: BoundInputs, which: str = "ground") -> float:
    """Lower bound on the squared overlap with the ground (or a targeted
    interior) eigenstate.

    Ground mode needs sqrt(variance) < gap, where gap bounds the distance
    from the ground energy to the rest of the spectrum and the mean is
    assumed within the gap of the ground energy.  Excited mode uses
    gamma = (gap + sqrt(Var))^2 and is valid under the stronger premise
    that the variance itself stays below gamma with the state dominated
    by the target level; callers should check applicability, the
    arithmetic here does not.
    """
    if not math.isfinite(b.gap):
        raise BoundInapplicableError("overlap bounds need a finite gap")
    sd = math.sqrt(b.variance)
    if which == "ground":
        if not sd < b.gap:
            raise BoundInapplicableError(
                f"sqrt(variance) {sd:.6g} must be below the gap {b.gap:.6g}"
            )
        return _clamp01((b.gap - sd) / b.gap)
    if which == "excited":
        gamma = (b.gap + sd) ** 2
        return _clamp01((gamma - b.variance) / gamma)
    raise ValidationError(f"unknown overlap bound mode {which!r}")


def delos_blinder(b: BoundInputs, sqrt_variance: bool = False) -> float:
    """Moment-method lower bound on the targeted eigenvalue.

    The default subtracts sqrt(1/alpha^2 - 1) * variance.  That mixes an
    energy with a squared energy dimensionally, and for variance < 1 it
    can overshoot the true eigenvalue; the sqrt_variance flag switches
    the factor to act on the standard deviation instead, which is safe
    at every scale.  The default is kept for continuity with the usual
    statement of the bound.
    """
    if b.alpha is None:
        raise BoundInapplicableError("alpha is required for this bound")
    factor = math.sqrt(1.0 / (b.alpha * b.alpha) - 1.0)
    spread = math.sqrt(b.variance) if sqrt_variance else b.variance
    return b.mean - factor * spread


def folded_spectrum(h: PauliSum, gamma: float) -> PauliSum:
    """(H - gamma I)^2; its ground state is h's eigenvector nearest gamma."""
    if not math.isfinite(gamma):
        raise ValidationError(f"gamma must be finite, got {gamma!r}")
    if not h.is_hermitian():
        raise ValidationError("folding requires a Hermitian operator")
    shifted = h + PauliSum.identity(h.n_qubits, -float(gamma))
    return (shifted * shifted).simplify()


@dataclass(frozen=True)
class SymmetryConstraint:
    """Target expectation for a conserved Hermitian quantity, with the
    penalty weight used to enforce it."""

    operator: PauliSum
    target: float
    multiplier: float

    def __post_init__(self):
        if not self.operator.is_hermitian():
            raise ValidationError("symmetry operator must be Hermitian")
        # Written so that NaN fails each check.
        if not math.isfinite(self.target):
            raise ValidationError("target must be finite")
        if not 0.0 <= self.multiplier < math.inf:
            raise ValidationError("multiplier must be finite and non-negative")

    def penalty(self) -> PauliSum:
        shifted = self.operator + PauliSum.identity(
            self.operator.n_qubits, -float(self.target)
        )
        return ((shifted * shifted) * self.multiplier).simplify()


def penalty_lagrangian(h: PauliSum, constraints) -> PauliSum:
    """H plus quadratic penalties lambda_i (S_i - s_i I)^2."""
    out = h
    for c in constraints:
        if c.operator.n_qubits != h.n_qubits:
            raise ValidationError("constraint acts on a different qubit count")
        out = out + c.penalty()
    return out.simplify()
