"""Per-player arm-selection rules: UCB / KL-UCB index adaptations and the
DKLUCB count-prediction policy.

The selection rule is written once, as select_batch over a [K, ...] batch of
sufficient statistics, arm axis first; the engine passes it its arm-major
(player, slot) arrays as they are stored. The exploration budget is written
once too, as exploration_budget: core's exploration form, times DKLUCB's
M / (1 + (M-1) alpha) for that rule. The independent reference the engine's
traces are checked against is the scalar simulator in tests/oracle_sim.py.

Inverting the Bernoulli KL divergence is the only nontrivial numerics. The
KL-UCB upper index runs a fixed number of Newton steps in y = -ln(1-q), where
the divergence is increasing and convex, from the Pinsker bound above the
root; the loop iterates -y in preallocated buffers, which gives the bits the
loop in y would, as rounding to nearest is symmetric under negation. Lanes
with budgets below 1e-11, where that form's divergence evaluation is
cancellation-limited, and the few whose last step has not settled are redone
by a bisection that evaluates the divergence in a form that does not
cancel. The lower index is that bisection. Both land far inside the 1e-9
tolerance the indices are specified at.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    LN2T, STANDARD, ExplorationFunction, _as_unit, _of_type, dklucb_scale, exploration_value,
)

UCB = "ucb"
KLUCB = "klucb"
DKLUCB = "dklucb"

RULES = (UCB, KLUCB, DKLUCB)

_BISECTION_ITERATIONS = 40  # interval 1 -> final width 2**-40, well under 1e-9
# Newton steps in klucb_index_batch: enough for every lane at budgets >= 1e-5
# to settle from the Pinsker start; unsettled lanes fall back to bisection.
_NEWTON_ITERATIONS = 8
# Below this budget the Newton form's cancellation error (~1e-16 near q = mu)
# moves the index by over 1e-10; simulated budgets are f / N >= ln(2) / N.
_NEWTON_MIN_BUDGET = 1e-11
_TINY = float(np.finfo(np.float64).smallest_subnormal)


@dataclass(frozen=True)
class PolicySpec:
    """Which index rule to run, with its exploration function.

    The dklucb rule scales the standard exploration form by
    M / (1 + (M-1) alpha), with M the run's player count (see
    exploration_budget), so its `exploration` field must be the standard
    variant; pairing dklucb with ln2t is rejected rather than silently
    ignored.
    """

    rule: str
    exploration: ExplorationFunction = field(
        default_factory=ExplorationFunction.standard
    )
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown policy rule {self.rule!r}; expected one of {RULES}")
        _of_type("exploration", self.exploration, ExplorationFunction)
        object.__setattr__(self, "alpha", _as_unit("alpha", self.alpha))
        if self.rule == DKLUCB and self.exploration.variant != STANDARD:
            raise ValueError(
                "dklucb fixes its own exploration function and cannot use "
                f"{self.exploration.variant}"
            )


# -- batched kernels --------------------------------------------------------


def _klucb_bisect(p: np.ndarray, b: np.ndarray, upper: bool = True) -> np.ndarray:
    """The KL-UCB upper (or lower) index by a fixed number of halvings of
    [p, 1] (or [0, p]); a zero budget returns p.

    K(p, q) is evaluated as -p ln(1 + d/p) - (1-p) ln(1 - d/(1-p)), d = q - p,
    which does not cancel near q = p. The floors keep d / p finite.
    """
    one_minus_p = 1.0 - p
    p_floor = np.maximum(p, 1e-300)
    one_minus_p_floor = np.maximum(one_minus_p, 1e-300)
    lo, hi = (p.copy(), np.ones_like(p)) if upper else (np.zeros_like(p), p.copy())
    for _ in range(_BISECTION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        # mid == 1 only where p == 1 (upper); clip the evaluation point so the
        # logs are finite (the interval update still uses mid itself).
        mid_eval = np.clip(mid, 1e-300, 1.0 - 1e-16)
        d = mid_eval - p
        kl = -p * np.log1p(d / p_floor) - one_minus_p * np.log1p(-d / one_minus_p_floor)
        feasible = kl <= b
        keep_lo = feasible if upper else ~feasible  # mid moves the bound nearer p
        lo = np.where(keep_lo, mid, lo)
        hi = np.where(keep_lo, hi, mid)
    # a zero budget is answered exactly rather than through the loop
    return np.where(b <= 0.0, p, lo if upper else hi)


def klucb_index_batch(mu_hat, budget) -> np.ndarray:
    """Elementwise sup{q in [mu_hat, 1): K(mu_hat, q) <= budget}.

    Returns mu_hat when the budget is 0 and exactly 1.0 when mu_hat is 1.
    Solves g(y) = (1-p) y - p ln(1 - e^-y) + ent(p) - budget = 0 for
    y = -ln(1-q) by Newton's method. g is increasing and convex in y for q > p,
    so iterates started above the root come down to it without overshooting;
    a start below the root (the Pinsker start is capped just under q = 1)
    overshoots once and then comes down. The steps run on -y, in place, and
    make no temporary; p and budget may be scalars or broadcast against each
    other, and are never written to.
    """
    p = np.asarray(mu_hat, dtype=np.float64)
    b = np.asarray(budget, dtype=np.float64)
    one_minus_p = 1.0 - p
    # entropy part p ln p + (1-p) ln(1-p); the floor only moves a zero
    # argument, whose term is then 0 * finite = 0
    ent = p * np.log(np.maximum(p, _TINY))
    ent = ent + one_minus_p * np.log(np.maximum(one_minus_p, _TINY))
    target = b - ent
    # the iterate ny = -y and its step -(g / g'(y)), in place: rounding to
    # nearest is symmetric under negation, so every iterate is the negation
    # of the one the loop in y gives, bit for bit, and expm1(ny) = -q needs
    # no negation of its argument
    ny, q, g, step = (np.empty(np.broadcast_shapes(p.shape, b.shape)) for _ in range(4))
    # lanes with b < _NEWTON_MIN_BUDGET or p == 1 are overwritten below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Pinsker: K(p, q) >= 2 (q - p)^2, so q0 is at or above the root
        np.minimum(p + np.sqrt(0.5 * b), 1.0 - 1e-16, out=ny)
        np.log1p(np.negative(ny, out=ny), out=ny)
        for _ in range(_NEWTON_ITERATIONS):
            np.negative(np.expm1(ny, out=q), out=q)
            # -g = (1-p) ny + p ln(q) + target
            np.multiply(one_minus_p, ny, out=g)
            np.multiply(p, np.log(q, out=step), out=step)
            np.add(np.add(g, step, out=g), target, out=g)
            # -g / g'(y), with g'(y) = (q - p) / q
            np.divide(np.multiply(g, q, out=g), np.subtract(q, p, out=step), out=step)
            np.subtract(ny, step, out=ny)
        q = -np.expm1(ny)
        # written so that nan fails the test
        settled = (np.abs(step) < 1e-12 * np.maximum(-ny, 1.0)) & (q >= p)
    certain = p >= 1.0
    q = np.where(certain, 1.0, q)
    redo = ~(settled | certain) | (b < _NEWTON_MIN_BUDGET)
    if redo.any():
        p_all, b_all = np.broadcast_arrays(p, b)
        q[redo] = _klucb_bisect(p_all[redo], b_all[redo])
    return q


def klucb_lower_batch(mu_hat, budget) -> np.ndarray:
    """Elementwise inf{q in (0, mu_hat]: K(mu_hat, q) <= budget}.

    The lower confidence companion of klucb_index_batch; 0 when mu_hat is 0.
    """
    p = np.asarray(mu_hat, dtype=np.float64)
    b = np.asarray(budget, dtype=np.float64)
    return _klucb_bisect(p, b, upper=False)


def ucb_index_batch(mu_hat, counts, f_value, out=None) -> np.ndarray:
    """Elementwise mu_hat + sqrt(f_value / (2 counts)) over arrays or scalars,
    written into out when it is given."""
    bonus = np.multiply(2.0, counts, out=out)
    bonus = np.divide(f_value, bonus, out=out)
    bonus = np.sqrt(bonus, out=out)
    return np.add(mu_hat, bonus, out=out)


def count_prediction_batch(known_count, snapshot_count, m: int, alpha: float) -> np.ndarray:
    """Elementwise N' = N + (M-1) min(N - N_snapshot, u) with
    u = N_snapshot / M * (1/alpha - 1); alpha = 0 makes u infinite so the
    local increment wins the min."""
    n = np.asarray(known_count, dtype=np.float64)
    snap = np.asarray(snapshot_count, dtype=np.float64)
    local = n - snap
    if alpha <= 0.0:
        extra = local
    else:
        # 1/alpha may round to inf for subnormal alpha; the budget then
        # saturates (min picks the local increment), except that an empty
        # snapshot always means a zero budget, not 0 * inf.
        with np.errstate(over="ignore", invalid="ignore"):
            u = snap / m * (1.0 / alpha - 1.0)
        extra = np.minimum(local, np.where(snap == 0.0, 0.0, u))
    return n + (m - 1) * extra


def exploration_budget(
    spec: PolicySpec, m: int, t: int | None, total_known: int
) -> float:
    """The exploration value f a player's indices use at round t of a run of
    m players.

    The ln2t variant is evaluated at the round index t (required then), the
    standard one at the player's total sample count. dklucb scales the
    standard value by M / (1 + (M-1) alpha), with M = m and alpha =
    spec.alpha; this is the only place that scale is applied.
    """
    if spec.exploration.variant == LN2T:
        if t is None:
            raise ValueError("ln2t exploration is evaluated at the round index")
        return exploration_value(spec.exploration, t)
    f = exploration_value(spec.exploration, total_known)
    if spec.rule == DKLUCB:
        return dklucb_scale(m, spec.alpha) * f
    return f


def _first_argmax(index: np.ndarray) -> np.ndarray:
    """The scan select_batch documents, over the first axis, as a fresh int64
    array; branch-free: the arm only grows, so max(arm, a * beats) selects it.
    The running rows are arrays even for a [K] index, whose rows are 0-d."""
    k = len(index)
    if k == 1:
        return np.zeros(index.shape[1:], dtype=np.int64)
    arm = np.greater(index[1], index[0], out=np.empty(index.shape[1:], dtype=np.int64))
    if k > 2:
        best = np.maximum(index[0], index[1], out=np.empty(arm.shape))
        beats = np.empty_like(arm)
        for a in range(2, k):
            np.greater(index[a], best, out=beats)
            np.multiply(beats, a, out=beats)
            np.maximum(arm, beats, out=arm)
            if a < k - 1:
                np.maximum(best, index[a], out=best)
    return arm


def select_batch(
    spec: PolicySpec, m: int, f, known_count, known_sum, snapshot_count
) -> tuple[np.ndarray, np.ndarray]:
    """The index rule over a [K, ...] batch of views whose counts are all >= 1;
    one player's view is a [K] array, a batch of shape ().

    Returns the arm of the largest index over the first axis and the
    sample-count denominator the indices used: the count prediction N' for
    dklucb, the float counts otherwise. f is a scalar or broadcasts against
    the batch, and snapshot_count need only broadcast against known_count.
    The arms are a fresh int64 array of the batch shape, and no input is
    written to, so the caller may keep them.

    The arm is found by a scan from arm 0 that moves to arm a only when its
    index is strictly greater than the running maximum, so the lowest of
    tied arms wins, as with np.argmax. A nan index ends the scan: nan
    compares false and makes the running maximum nan, so the result is the
    first maximum of the arms before the first nan, or arm 0 when its index
    is nan (np.argmax would take the first nan). Counts of at least 1 give
    no nan.
    """
    counts = np.asarray(known_count, dtype=np.float64)
    mu_hat = np.divide(known_sum, counts)
    if spec.rule == UCB:
        index = ucb_index_batch(mu_hat, counts, f, out=np.empty(counts.shape))
        return _first_argmax(index), counts
    denom = counts
    if spec.rule == DKLUCB:
        denom = count_prediction_batch(known_count, snapshot_count, m, spec.alpha)
    index = klucb_index_batch(mu_hat, f / denom)
    return _first_argmax(index), denom

