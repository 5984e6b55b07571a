"""Arm models, Bernoulli KL-divergence calculus, and exploration functions.

Everything in this module is a pure function of its arguments (or an immutable
value type), shared by the index policies and the analysis layer.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterator
from dataclasses import dataclass


def _as_int(name: str, value) -> int:
    """value as an int, numpy integers included; a bool or any other type is a TypeError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _at_least(name: str, value, floor: int) -> int:
    """value as an int (see _as_int) that is at least floor."""
    if (value := _as_int(name, value)) < floor:
        raise ValueError(f"{name} must be >= {floor}, got {value!r}")
    return value


def _of_type(name: str, value, kind: type):
    """value, when it is a kind; any other type is a TypeError."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value


def _as_real(name: str, value) -> float:
    """value as a float, numpy reals included; a bool or a non-real is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _as_unit(name: str, value) -> float:
    """value as a float (see _as_real) in [0, 1]; nan is outside."""
    if not 0.0 <= (value := _as_real(name, value)) <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def _number(kind, raw: str, prefix: str = ""):
    """The text raw as an int or a float, as kind is; text that is not one is
    a ValueError naming it, after prefix (such as "<parameter name>: ")."""
    try:
        return kind(raw.strip())
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{prefix}{raw.strip()!r} is not {what}") from None


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q), in nats.

    Conventions: 0*ln(0) = 0 and ln(0/0) = 0, so the result is 0 when p == q
    even at the boundary; +inf when q is 0 or 1 and p differs from it.
    """
    p, q = _as_unit("p", p), _as_unit("q", q)
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
    p, q = _as_unit("p", p), _as_unit("q", q)
    if p > q:
        return 0.0
    return kl_bernoulli(p, q)


def d_inf_bernoulli(mu_a: float, mu_star: float) -> float:
    """Hardness constant of a strictly suboptimal Bernoulli arm.

    For Bernoulli rewards the infimum over confusing alternatives collapses to
    the plain divergence kl_bernoulli(mu_a, mu_star).
    """
    mu_a, mu_star = _as_real("mu_a", mu_a), _as_real("mu_star", mu_star)
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
    DKLUCB's scaling by the run's player count is policies.exploration_budgets'.
    """

    variant: str

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown exploration variant {self.variant!r}; expected one of {VARIANTS}"
            )

    @classmethod
    def standard(cls) -> "ExplorationFunction":
        return cls(STANDARD)

    @classmethod
    def ln2t(cls) -> "ExplorationFunction":
        return cls(LN2T)


def exploration_values(f: ExplorationFunction, ts) -> Iterator[float]:
    """The exploration function at each of the integers ts, all >= 1,
    unchecked, one value at a time: the rule itself, which exploration_value
    and every table of values use. It is built with math.log, as np.log
    differs from it on some integers (on 96 of the 2t below 2**22 on one
    AVX-512 build), and the trajectories rest on these floats."""
    ln2t = f.variant == LN2T
    for t in ts:
        if ln2t:
            yield math.log(2.0 * t)
        elif t == 1:
            yield 0.0
        else:
            log_t = math.log(t)
            yield max(log_t + 3.0 * math.log(log_t), 0.0)


def exploration_value(f: ExplorationFunction, t: int) -> float:
    """Evaluate the exploration function at integer argument t >= 1; a bool
    or a non-integer t is a TypeError."""
    return next(exploration_values(f, (_at_least("exploration argument", t, 1),)))


@dataclass(frozen=True)
class BernoulliArmModel:
    """Fixed Bernoulli arm means with the derived gaps to the best arm."""

    means: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.means) == 0:
            raise ValueError("arm model needs at least one arm")
        means = tuple(_as_unit(f"mean of arm {i + 1}", mu) for i, mu in enumerate(self.means))
        object.__setattr__(self, "means", means)

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
