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

from .core import _as_int, _as_real, _as_unit, _at_least, _number, _of_type

NONE = "none"
FULL = "full"
ONESHOT = "oneshot"
LINEAR = "linear"
EXP = "exp"
DOUBLEEXP = "doubleexp"
EXPLICIT = "explicit"

# Each kind's parameters as (name, floor) pairs; explicit takes one or more
# rounds. An int floor marks an integer >= the floor, a float floor a grid's
# growth (q - 1 or eps), which must be finite and >= floor + _MIN_GROWTH. A
# grid is generated in time in proportion to its points, but far below this
# floor 1 + eps rounds to 1 and the grid never grows.
_PARAMS = {
    NONE: (),
    FULL: (),
    ONESHOT: (("oneshot round", 1),),
    LINEAR: (("linear grid step", 1),),
    EXP: (("exponential grid base", 1.0),),
    DOUBLEEXP: (("double-exponential base", 1.0), ("double-exponential eps", 0.0)),
    EXPLICIT: (("explicit round", 1),),
}
_MIN_GROWTH = 1e-6


def _checked(name: str, floor, value):
    """value as an int >= an int floor, or as a finite float >= floor + _MIN_GROWTH."""
    if isinstance(floor, int):
        return _at_least(name, value, floor)
    if not (math.isfinite(value := _as_real(name, value)) and value >= floor + _MIN_GROWTH):
        raise ValueError(
            f"{name} must be finite and >= {floor + _MIN_GROWTH!r}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class CommunicationSchedule:
    """Immutable description of a communication set; all queries are pure.

    Whichever way a schedule is built, its params are checked and normalized
    to a tuple of ints, or of floats for a grid's q and eps.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in _PARAMS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        params, spec = tuple(self.params), _PARAMS[self.kind]
        if self.kind == EXPLICIT:
            if not params:
                raise ValueError("explicit schedule needs at least one round")
            spec *= len(params)
        if len(params) != len(spec):
            raise ValueError(
                f"{self.kind} schedule takes {len(spec)} parameter(s), got {len(params)}"
            )
        params = tuple(_checked(name, floor, p) for (name, floor), p in zip(spec, params))
        if self.kind == EXPLICIT and any(b <= a for a, b in zip(params, params[1:])):
            raise ValueError("explicit rounds must be strictly increasing")
        object.__setattr__(self, "params", params)

    # -- constructors ------------------------------------------------------

    @classmethod
    def none(cls) -> "CommunicationSchedule":
        return cls(NONE)

    @classmethod
    def full(cls) -> "CommunicationSchedule":
        return cls(FULL)

    @classmethod
    def oneshot(cls, round_: int) -> "CommunicationSchedule":
        return cls(ONESHOT, (round_,))

    @classmethod
    def linear(cls, d: int) -> "CommunicationSchedule":
        return cls(LINEAR, (d,))

    @classmethod
    def exponential(cls, q: float) -> "CommunicationSchedule":
        return cls(EXP, (q,))

    @classmethod
    def double_exponential(cls, q: float, eps: float) -> "CommunicationSchedule":
        return cls(DOUBLEEXP, (q, eps))

    @classmethod
    def explicit(cls, rounds) -> "CommunicationSchedule":
        return cls(EXPLICIT, rounds)

    # -- the rounds rule and the queries derived from it -------------------

    def _rounds(self, n: int, start: int = 1):
        """The communication rounds in {start..n}, ascending: a range for full
        and linear, so its length and last element cost O(1) at any n."""
        start = max(start, 1)
        if self.kind in (FULL, LINEAR):
            (d,) = self.params or (1,)
            return range(d, n + 1, d)[(start - 1) // d :]
        if self.kind in (NONE, ONESHOT, EXPLICIT):
            return self.params[bisect_left(self.params, start) : bisect_right(self.params, n)]
        # A grid's points are round(q**e_k) for k >= 1, with exponents e_k = k
        # (exp) or (1+eps)**k (doubleexp); q**e_k = x at the real index k =
        # index(x). The points never decrease, and none rounds above the last
        # one, v, before the grid reaches v + 0.5, or to start or above before
        # it reaches start - 0.5: skip to one index short of that, first and
        # after each new point, a margin far above the logs' rounding error.
        q, *eps = self.params
        log_q = math.log(q)
        if eps:
            base = 1.0 + eps[0]
            exponent = lambda k: base**k
            index = lambda x: math.log(math.log(x) / log_q) / math.log(base)
        else:
            exponent, index = (lambda k: k), (lambda x: math.log(x) / log_q)
        out: list[int] = []
        k = max(1, math.floor(index(start - 0.5)) - 1) if start > 1 else 1
        # past this exponent every point is above n, and q**e is still finite
        log_cap = math.log(n + 0.5) + 1.0
        while (e := exponent(k)) * log_q <= log_cap:
            v = math.floor(q**e + 0.5)
            if v > n:
                break
            if v >= start and (not out or v > out[-1]):
                out.append(v)
                k = max(k, math.floor(index(v + 0.5)) - 1)
            k += 1
        return out

    def elements_up_to(self, n: int) -> list[int]:
        """All communication rounds in {1..n}, ascending."""
        return list(self._rounds(_at_least("n", n, 0)))

    def is_comm_round(self, t: int) -> bool:
        """True iff round t is a communication round."""
        t = _at_least("round index", t, 1)
        return bool(self._rounds(t, t))

    def last_comm_leq(self, t: int) -> int:
        """Largest communication round <= t, or 0 if there is none."""
        t = _at_least("round index", t, 0)
        # spans of doubling length back from t: a grid is generated near t only
        span = 1
        while not (rounds := self._rounds(t, t - span + 1)) and span < t:
            span *= 2
        return rounds[-1] if rounds else 0

    def counting_function(self, n: int) -> int:
        """Number of communication rounds in {1..n}."""
        return len(self._rounds(_at_least("n", n, 1)))

    def comm_mask(self, start: int, stop: int) -> np.ndarray:
        """Boolean array over rounds start..stop-1; entry i is
        is_comm_round(start + i), and False for round 0."""
        start, stop = _at_least("start", start, 0), _as_int("stop", stop)
        if start > stop:
            raise ValueError(f"expected start <= stop, got start={start!r}, stop={stop!r}")
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
        if burn_in is not None:
            burn_in = _at_least("burn_in", burn_in, 0)
        if self.kind == NONE:
            return 0.0
        if self.kind in (FULL, LINEAR, EXP):
            return 1.0
        if self.kind == DOUBLEEXP:
            _, eps = self.params
            return 1.0 / (1.0 + eps)
        rounds = self.params  # oneshot or explicit
        if len(rounds) < 2:
            raise ValueError("density is undefined for fewer than two communication rounds")
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
    horizon, players = _at_least("horizon", horizon, 1), _at_least("player count", players, 1)
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
    _of_type("s", s, CommunicationSchedule)
    n_max, points = _at_least("n_max", n_max, 16), _at_least("points", points, 1)
    tolerance = _as_unit("tolerance", tolerance)
    alpha = s.density()
    if alpha <= 0.0 or alpha >= 1.0:
        raise ValueError(
            f"counting growth check needs density strictly inside (0, 1), got {alpha}"
        )
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
    kind, sep, arg = text.partition(":")
    if kind not in _PARAMS:
        raise ValueError(f"unknown schedule kind {kind!r} in {text!r}")
    args = arg.split(",") if sep else []
    spec = _PARAMS[kind] * (len(args) if kind == EXPLICIT else 1)
    try:
        if len(args) == len(spec):
            args = [_number(type(floor), a, f"{name}: ") for (name, floor), a in zip(spec, args)]
        return CommunicationSchedule(kind, args)
    except ValueError as exc:
        raise ValueError(f"malformed schedule {text!r}: {exc}") from None
