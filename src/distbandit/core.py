"""Arm models, Bernoulli KL-divergence calculus, and exploration functions.

Everything in this module is a pure function of its arguments (or an immutable
value type), shared by the index policies and the analysis layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_unit(x: float, name: str) -> None:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {x!r}")


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q), in nats.

    Conventions: 0*ln(0) = 0 and ln(0/0) = 0, so the result is 0 when p == q
    even at the boundary; +inf when q is 0 or 1 and p differs from it.
    """
    _check_unit(p, "p")
    _check_unit(q, "q")
    if p == q:
        return 0.0
    if q <= 0.0 or q >= 1.0:
        return math.inf
    if p == 0.0:
        return -math.log1p(-q)
    if p == 1.0:
        return -math.log(q)
    # within a few ulps of p the two terms cancel, to a tiny negative at worst
    return max(0.0, p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q)))


def kl_truncated(p: float, q: float) -> float:
    """Left-side truncated divergence: 0 when p > q, else kl_bernoulli(p, q)."""
    _check_unit(p, "p")
    _check_unit(q, "q")
    if p > q:
        return 0.0
    return kl_bernoulli(p, q)


def d_inf_bernoulli(mu_a: float, mu_star: float) -> float:
    """Hardness constant of a strictly suboptimal Bernoulli arm.

    For Bernoulli rewards the infimum over confusing alternatives collapses to
    the plain divergence kl_bernoulli(mu_a, mu_star).
    """
    if not 0.0 < mu_a < 1.0 or not 0.0 < mu_star < 1.0:
        raise ValueError("d_inf_bernoulli requires means strictly inside (0, 1)")
    if mu_a >= mu_star:
        raise ValueError(
            f"arm mean {mu_a!r} is not strictly below the best mean {mu_star!r}"
        )
    return kl_bernoulli(mu_a, mu_star)


STANDARD = "standard"
LN2T = "ln2t"

VARIANTS = (STANDARD, LN2T)


def dklucb_scale(m: int, alpha: float) -> float:
    """DKLUCB's multiplier M / (1 + (M-1) alpha) of the single-player budget."""
    return m / (1.0 + (m - 1) * alpha)


@dataclass(frozen=True)
class ExplorationFunction:
    """Exploration budget F as a function of a positive integer argument.

    Variants:
      standard  F(t) = ln(t) + 3 ln(ln(t))
      ln2t      F(t) = ln(2t), a small-horizon approximation of `standard`
                (evaluated at the round index; see engine)

    Values are clamped below at 0 so indices stay well defined from the first
    round, where ln(ln(t)) is negative or undefined. This is the form only:
    DKLUCB's scaling by the run's player count is policies.exploration_budget's.
    """

    variant: str

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown exploration variant {self.variant!r}")

    @classmethod
    def standard(cls) -> "ExplorationFunction":
        return cls(STANDARD)

    @classmethod
    def ln2t(cls) -> "ExplorationFunction":
        return cls(LN2T)


def exploration_value(f: ExplorationFunction, t: int) -> float:
    """Evaluate the exploration function at integer argument t >= 1."""
    if t < 1:
        raise ValueError(f"exploration argument must be >= 1, got {t!r}")
    if f.variant == LN2T:
        return math.log(2.0 * t)
    if t == 1:
        return 0.0
    log_t = math.log(t)
    return max(log_t + 3.0 * math.log(log_t), 0.0)


@dataclass(frozen=True)
class BernoulliArmModel:
    """Fixed Bernoulli arm means with the derived gaps to the best arm."""

    means: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.means) == 0:
            raise ValueError("arm model needs at least one arm")
        for i, mu in enumerate(self.means):
            if not 0.0 <= mu <= 1.0:
                raise ValueError(f"mean of arm {i + 1} must be in [0, 1], got {mu!r}")
        object.__setattr__(self, "means", tuple(float(mu) for mu in self.means))

    @property
    def k(self) -> int:
        return len(self.means)

    @property
    def best_mean(self) -> float:
        return max(self.means)

    @property
    def gaps(self) -> tuple[float, ...]:
        best = self.best_mean
        return tuple(best - mu for mu in self.means)
