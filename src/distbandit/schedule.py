"""Communication schedules: membership and last-round queries, counting, density.

A schedule describes the set of rounds at whose end every player's reward
history is merged. One rule, CommunicationSchedule._rounds(n, start), gives
the communication rounds in {start..n} in ascending order, at a cost in
proportion to the rounds it returns whatever the start; the element list,
last-round, counting, membership and span-mask queries all read it. Grid
families are generated lazily by rounding the real grid points to integers
and deduplicating, so the stored object stays small no matter the horizon.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .core import _as_int

NONE = "none"
FULL = "full"
ONESHOT = "oneshot"
LINEAR = "linear"
EXP = "exp"
DOUBLEEXP = "doubleexp"
EXPLICIT = "explicit"

_KINDS = (NONE, FULL, ONESHOT, LINEAR, EXP, DOUBLEEXP, EXPLICIT)

# Least growth q - 1 and eps of a grid. Generation skips the grid indices
# that round to a point it already has, so it takes time in proportion to the
# points; far below this floor 1 + eps rounds to 1 and the grid never grows.
_MIN_GROWTH = 1e-6


def _check_growth(name: str, value: float, base: float) -> None:
    """Reject a non-finite grid parameter, or one below base + _MIN_GROWTH."""
    if not (math.isfinite(value) and value >= base + _MIN_GROWTH):
        raise ValueError(
            f"{name} must be finite and >= {base + _MIN_GROWTH!r}, got {value!r}"
        )


@dataclass(frozen=True)
class CommunicationSchedule:
    """Immutable description of a communication set; all queries are pure."""

    kind: str
    params: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def none(cls) -> "CommunicationSchedule":
        return cls(NONE)

    @classmethod
    def full(cls) -> "CommunicationSchedule":
        return cls(FULL)

    @classmethod
    def oneshot(cls, round_: int) -> "CommunicationSchedule":
        round_ = _as_int("oneshot round", round_)
        if round_ < 1:
            raise ValueError(f"oneshot round must be >= 1, got {round_!r}")
        return cls(ONESHOT, (round_,))

    @classmethod
    def linear(cls, d: int) -> "CommunicationSchedule":
        d = _as_int("linear grid step", d)
        if d < 1:
            raise ValueError(f"linear grid step must be >= 1, got {d!r}")
        return cls(LINEAR, (d,))

    @classmethod
    def exponential(cls, q: float) -> "CommunicationSchedule":
        _check_growth("exponential grid base", q, 1.0)
        return cls(EXP, (float(q),))

    @classmethod
    def double_exponential(cls, q: float, eps: float) -> "CommunicationSchedule":
        _check_growth("double-exponential base", q, 1.0)
        _check_growth("double-exponential eps", eps, 0.0)
        return cls(DOUBLEEXP, (float(q), float(eps)))

    @classmethod
    def explicit(cls, rounds) -> "CommunicationSchedule":
        rounds = tuple(_as_int("explicit round", r) for r in rounds)
        if not rounds:
            raise ValueError("explicit schedule needs at least one round")
        if rounds[0] < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds[0]!r}")
        if any(b <= a for a, b in zip(rounds, rounds[1:])):
            raise ValueError("explicit rounds must be strictly increasing")
        return cls(EXPLICIT, rounds)

    # -- the rounds rule and the queries derived from it -------------------

    def _rounds(self, n: int, start: int = 1):
        """The communication rounds in {start..n}, ascending: a range for full
        and linear, so its length and last element cost O(1) at any n."""
        start = max(start, 1)
        if self.kind == FULL:
            return range(start, n + 1)
        if self.kind == LINEAR:
            (d,) = self.params
            return range(d, n + 1, d)[(start - 1) // d :]
        if self.kind in (ONESHOT, EXPLICIT):
            return self.params[bisect_left(self.params, start) : bisect_right(self.params, n)]
        if self.kind == NONE:
            return ()
        out: list[int] = []
        # The points never decrease, and none rounds above the last one, v,
        # before the grid reaches v + 0.5, or to start or above before it
        # reaches start - 0.5: skip to one index short of that, first and
        # after each new point, a margin far above the logs' rounding error.
        if self.kind == EXP:
            (q,) = self.params
            log_q = math.log(q)
            k = max(1, math.floor(math.log(start - 0.5) / log_q) - 1)
            while True:
                v = math.floor(q**k + 0.5)
                if v > n:
                    break
                if v >= start and (not out or v > out[-1]):
                    out.append(v)
                    k = max(k, math.floor(math.log(v + 0.5) / log_q) - 1)
                k += 1
        else:  # DOUBLEEXP: points q**((1+eps)**k) for k >= 1
            q, eps = self.params
            base, log_q = 1.0 + eps, math.log(q)
            k = 1
            if start > 1:
                x = math.log(math.log(start - 0.5) / log_q) / math.log(base)
                k = max(k, math.floor(x) - 1)
            log_n = math.log(n + 0.5)
            while True:
                e = base**k
                if e * log_q > log_n:
                    break
                v = math.floor(q**e + 0.5)
                if start <= v <= n and (not out or v > out[-1]):
                    out.append(v)
                    x = math.log(math.log(v + 0.5) / log_q) / math.log(base)
                    k = max(k, math.floor(x) - 1)
                k += 1
        return out

    def elements_up_to(self, n: int) -> list[int]:
        """All communication rounds in {1..n}, ascending."""
        return list(self._rounds(n))

    def is_comm_round(self, t: int) -> bool:
        """True iff round t is a communication round."""
        if t < 1:
            raise ValueError(f"round index must be >= 1, got {t!r}")
        return bool(self._rounds(t, t))

    def last_comm_leq(self, t: int) -> int:
        """Largest communication round <= t, or 0 if there is none."""
        if t < 0:
            raise ValueError(f"round index must be >= 0, got {t!r}")
        # spans of doubling length back from t: a grid is generated near t only
        span = 1
        while not (rounds := self._rounds(t, t - span + 1)) and span < t:
            span *= 2
        return rounds[-1] if rounds else 0

    def counting_function(self, n: int) -> int:
        """Number of communication rounds in {1..n}."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n!r}")
        return len(self._rounds(n))

    def comm_mask(self, start: int, stop: int) -> np.ndarray:
        """Boolean array over rounds start..stop-1; entry i is
        is_comm_round(start + i), and False for round 0."""
        if not 0 <= start <= stop:
            raise ValueError(f"expected 0 <= start <= stop, got start={start!r}, stop={stop!r}")
        mask = np.zeros(stop - start, dtype=bool)
        rounds = self._rounds(max(stop - 1, 0), start)
        if isinstance(rounds, range):
            mask[rounds.start - start :: rounds.step] = True
        else:
            mask[np.asarray(rounds, dtype=np.intp) - start] = True
        return mask

    # -- density -----------------------------------------------------------

    @property
    def density_is_estimate(self) -> bool:
        return self.kind == EXPLICIT

    def density(self, burn_in: int | None = None) -> float:
        """Density of the communication set (liminf of ln C_k / ln C_{k+1}).

        Grid families have closed forms. Explicit sets return the minimum
        consecutive log-ratio past a burn-in index (default: the first
        quartile of the list) as a conservative liminf proxy; the result is
        an estimate, see density_is_estimate. None and full use the limit
        conventions 0 and 1.
        """
        if self.kind == NONE:
            return 0.0
        if self.kind in (FULL, LINEAR, EXP):
            return 1.0
        if self.kind == DOUBLEEXP:
            _, eps = self.params
            return 1.0 / (1.0 + eps)
        if self.kind == ONESHOT:
            raise ValueError("density is undefined for a single communication round")
        rounds = self.params
        if len(rounds) < 2:
            raise ValueError("density estimate needs at least two explicit rounds")
        if burn_in is None:
            burn_in = len(rounds) // 4
        burn_in = min(burn_in, len(rounds) - 2)
        ratios = [
            math.log(rounds[k]) / math.log(rounds[k + 1])
            for k in range(burn_in, len(rounds) - 1)
        ]
        return min(ratios)

    def spec_string(self) -> str:
        """Canonical form under the schedule grammar."""
        if not self.params:
            return self.kind
        return self.kind + ":" + ",".join(str(p) for p in self.params)

    def __str__(self) -> str:
        return self.spec_string()


def over_exploration_schedule(horizon: int, players: int) -> CommunicationSchedule:
    """One-shot schedule communicating at round ceil(horizon**(1/players))."""
    if horizon < 1 or players < 1:
        raise ValueError("horizon and players must be >= 1")
    r = max(int(round(horizon ** (1.0 / players))), 1)
    # fix up float error so that r is exactly the smallest integer with r**players >= horizon
    while r**players < horizon:
        r += 1
    while r > 1 and (r - 1) ** players >= horizon:
        r -= 1
    return CommunicationSchedule.oneshot(r)


@dataclass(frozen=True)
class CountingGrowthReport:
    """Diagnostic comparing the counting function against its density-implied floor."""

    alpha: float
    rows: tuple  # (n, count, threshold, ratio) per sampled n


def counting_growth_report(
    s: CommunicationSchedule,
    n_max: int,
    points: int = 32,
    tolerance: float = 0.05,
) -> CountingGrowthReport:
    """Sample Z(n) / (ln(ln(n)) / ln(1/alpha)) over log-spaced n up to n_max.

    For 0 < alpha < 1 the counting function must asymptotically dominate
    ln(ln(n)) / ln(1/alpha); the report tabulates the ratio and raises if it
    falls below 1 - tolerance at the largest n.
    """
    alpha = s.density()
    if alpha <= 0.0 or alpha >= 1.0:
        raise ValueError(
            f"counting growth check needs density strictly inside (0, 1), got {alpha}"
        )
    if n_max < 16:
        raise ValueError("n_max must be >= 16")
    log_alpha_inv = math.log(1.0 / alpha)
    ns = sorted(set(np.geomspace(16, n_max, points).astype(int)) | {n_max})
    rows = []
    for n in ns:
        count = s.counting_function(int(n))
        threshold = math.log(math.log(n)) / log_alpha_inv
        rows.append((int(n), count, threshold, count / threshold))
    report = CountingGrowthReport(alpha=alpha, rows=tuple(rows))
    final_ratio = rows[-1][3]
    if final_ratio < 1.0 - tolerance:
        raise RuntimeError(
            f"counting function falls short of its density floor at n={n_max}: "
            f"ratio {final_ratio:.4f} < {1.0 - tolerance:.4f}"
        )
    return report


def parse_schedule(text: str) -> CommunicationSchedule:
    """Parse the schedule grammar:

    none | full | oneshot:<r> | linear:<d> | exp:<q> | doubleexp:<q>,<eps>
    | explicit:<r1>,<r2>,...
    """
    text = text.strip()
    if text == NONE:
        return CommunicationSchedule.none()
    if text == FULL:
        return CommunicationSchedule.full()
    kind, sep, arg = text.partition(":")
    if not sep or not arg:
        raise ValueError(f"malformed schedule {text!r}")
    try:
        if kind == ONESHOT:
            return CommunicationSchedule.oneshot(int(arg))
        if kind == LINEAR:
            return CommunicationSchedule.linear(int(arg))
        if kind == EXP:
            return CommunicationSchedule.exponential(float(arg))
        if kind == DOUBLEEXP:
            q, eps = arg.split(",")
            return CommunicationSchedule.double_exponential(float(q), float(eps))
        if kind == EXPLICIT:
            return CommunicationSchedule.explicit(int(r) for r in arg.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed schedule {text!r}: {exc}") from None
    raise ValueError(f"unknown schedule kind {kind!r} in {text!r}")
