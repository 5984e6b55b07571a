"""Per-player arm-selection rules: UCB / KL-UCB index adaptations and the
DKLUCB count-prediction policy.

The selection rule is written once, as select_batch over a [K, ...] batch of
sufficient statistics, arm axis first; the engine passes it its arm-major
(player, slot) arrays as they are stored. The exploration budget is written
once too, as exploration_budgets: core's exploration form, times DKLUCB's
M / (1 + (M-1) alpha) for that rule. The independent reference the engine's
traces are checked against is the scalar simulator in tests/oracle_sim.py.

Inverting the Bernoulli KL divergence is the only nontrivial numerics. The
KL-UCB upper index runs a fixed number of Newton steps in y = -ln(1-q), where
the divergence is increasing and convex, from the Pinsker bound above the
root (_Newton: a prelude, the steps and a finish, each written once); the
loop iterates -y in preallocated buffers, which gives the bits the loop in y
would, as rounding to nearest is symmetric under negation. Lanes with budgets
below 1e-11, where that form's divergence evaluation is cancellation-limited,
and the few whose last step has not settled are redone by a bisection that
evaluates the divergence in a form that does not cancel. The lower index is
that bisection. Every index klucb_index_batch, klucb_lower_batch and
ucb_index_batch return is within _INDEX_ERROR (1e-10) of the true one.

Only the argmax of a slot's indices reaches a trajectory, so the KL rules do
not solve every lane in full (_klucb_argmax). Every lane stops after
_BRACKET_STEPS Newton steps, where its iterate bounds the root from above and
a chord of the convex divergence bounds it from below (_klucb_bracket); a
slot whose bounds put one arm ahead of the rest by _DECISION_MARGIN takes
that arm, and the lanes of every other slot run on to the end of the solve.
That is a cheap predicate with an exact fallback, as in Shewchuk's geometric
predicates (Discrete Comput. Geom. 18, 1997): the arms are the full solve's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    LN2T, STANDARD, ExplorationFunction, _as_unit, _at_least, _of_type, dklucb_scale,
    exploration_values,
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
# A bound on |computed - true| for every index klucb_index_batch and
# klucb_lower_batch return, and every ucb_index_batch index below 1e5, whose
# four correctly rounded operations err by under 1e-15 of it (tested against
# a 40-digit reference). A decision by a margin above twice this is the
# decision the computed indices make.
_INDEX_ERROR = 1e-10
# select_batch's KL rules decide a slot from each lane's bracket after this
# many Newton steps, and run the rest only for the slots left open
_BRACKET_STEPS = 4
# how far rounding may put a root outside its bracket (tested as above)
_BRACKET_ERROR = 1e-10
_DECISION_MARGIN = 2.0 * (_INDEX_ERROR + _BRACKET_ERROR)


@dataclass(frozen=True)
class PolicySpec:
    """Which index rule to run, with its exploration function.

    The dklucb rule scales the standard exploration form by
    M / (1 + (M-1) alpha), with M the run's player count (see
    exploration_budget), so its `exploration` field must be the standard
    variant; pairing dklucb with ln2t is rejected rather than silently
    ignored. alpha, the weight of dklucb's count prediction, is read by no
    other rule, which takes only the default 1.0.
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
        if self.rule != DKLUCB and self.alpha != 1.0:
            raise ValueError(
                f"alpha is read by dklucb alone; {self.rule} takes alpha = 1.0, got {self.alpha!r}"
            )
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


class _Newton:
    """Newton's method for klucb_index_batch on a set of lanes, in stages:
    the prelude (start), steps, and the finish. The stages are elementwise,
    so lanes taken from a part-run solve and run on give the bits the whole
    solve gives them.

    It solves g(y) = (1-p) y - p ln(1 - e^-y) + ent(p) - budget = 0 for
    y = -ln(1-q). g is convex in y, with its minimum -budget at y_p =
    -ln(1-p), and increasing above it, so iterates started above the root come
    down to it without overshooting; a start below the root (the Pinsker start
    is capped just under q = 1) overshoots once and then comes down. The steps
    run on the iterate ny = -y in place, and make no temporary: rounding to
    nearest is symmetric under negation, so every iterate is the negation of
    the one the loop in y gives, bit for bit, and expm1(ny) = -q needs no
    negation of its argument. p and budget may be scalars or broadcast against
    each other, and are never written to. Run inside an np.errstate that
    ignores divide, invalid and over: lanes with budgets below
    _NEWTON_MIN_BUDGET or p == 1 compute what the finish overwrites.
    """

    def __init__(self, p, b, one_minus_p, log_one_minus_p, target, ny):
        self.p, self.b, self.one_minus_p = p, b, one_minus_p
        self.log_one_minus_p, self.target, self.ny = log_one_minus_p, target, ny
        # q, -g and the step: buffers the steps write in place
        self.q, self.g, self.step = (np.empty(ny.shape) for _ in range(3))

    @classmethod
    def start(cls, p: np.ndarray, b: np.ndarray) -> "_Newton":
        """The prelude: the solve's terms in p and b, and the Pinsker start."""
        one_minus_p = 1.0 - p
        # ln(1-p) = -y_p and the entropy part p ln p + (1-p) ln(1-p); the
        # floor only moves a zero argument, whose term is then 0 * finite = 0
        log_one_minus_p = np.log(np.maximum(one_minus_p, _TINY))
        ent = p * np.log(np.maximum(p, _TINY))
        target = b - (ent + one_minus_p * log_one_minus_p)
        ny = np.empty(np.broadcast_shapes(p.shape, b.shape))
        # Pinsker: K(p, q) >= 2 (q - p)^2, so q0 is at or above the root
        np.minimum(p + np.sqrt(0.5 * b), 1.0 - 1e-16, out=ny)
        np.log1p(np.negative(ny, out=ny), out=ny)
        return cls(p, b, one_minus_p, log_one_minus_p, target, ny)

    def evaluate(self) -> None:
        """q = 1 - e^-y and -g(y) at the iterate, into self.q and self.g."""
        ny, q, g, scratch = self.ny, self.q, self.g, self.step
        np.negative(np.expm1(ny, out=q), out=q)
        # -g = (1-p) ny + p ln(q) + target
        np.multiply(self.one_minus_p, ny, out=g)
        np.multiply(self.p, np.log(q, out=scratch), out=scratch)
        np.add(np.add(g, scratch, out=g), self.target, out=g)

    def steps(self, n: int) -> "_Newton":
        for _ in range(n):
            self.evaluate()
            q, g, step = self.q, self.g, self.step
            # -g / g'(y), with g'(y) = (q - p) / q
            np.divide(np.multiply(g, q, out=g), np.subtract(q, self.p, out=step), out=step)
            np.subtract(self.ny, step, out=self.ny)
        return self

    def finish(self) -> np.ndarray:
        """The index: q at the last iterate where its step settled, 1 where
        p == 1, and the bisection's where neither holds or the budget is below
        _NEWTON_MIN_BUDGET."""
        p, b, ny = self.p, self.b, self.ny
        q = -np.expm1(ny)
        # written so that nan fails the test
        settled = (np.abs(self.step) < 1e-12 * np.maximum(-ny, 1.0)) & (q >= p)
        certain = p >= 1.0
        q = np.where(certain, 1.0, q)
        redo = ~(settled | certain) | (b < _NEWTON_MIN_BUDGET)
        if redo.any():
            p_all, b_all = np.broadcast_arrays(p, b)
            q[redo] = _klucb_bisect(p_all[redo], b_all[redo])
        return q

    def take(self, lanes: np.ndarray) -> "_Newton":
        """The lanes [:, lanes] of a solve over [K, n] arrays, as a solve of
        their own that has run as far as this one."""
        fields = (self.p, self.b, self.one_minus_p, self.log_one_minus_p, self.target, self.ny)
        return _Newton(*(x[:, lanes] for x in fields))


def klucb_index_batch(mu_hat, budget) -> np.ndarray:
    """Elementwise sup{q in [mu_hat, 1): K(mu_hat, q) <= budget}.

    Returns mu_hat when the budget is 0 and exactly 1.0 when mu_hat is 1:
    _NEWTON_ITERATIONS Newton steps in y = -ln(1-q) (_Newton), then the finish.
    """
    p = np.asarray(mu_hat, dtype=np.float64)
    b = np.asarray(budget, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _Newton.start(p, b).steps(_NEWTON_ITERATIONS).finish()


def _klucb_bracket(lanes: _Newton) -> tuple[np.ndarray, np.ndarray]:
    """Bounds L <= root <= U on every lane's index, up to _BRACKET_ERROR,
    after _BRACKET_STEPS Newton steps: L is nan on the lanes it makes no claim
    for, those with p >= 1 or budgets below _NEWTON_MIN_BUDGET.

    The iterate y_J is at or above the root, which gives U = 1 - e^-y_J. g is
    convex, so on [y_p, y_J] it lies under its chord from (y_p, -b) to
    (y_J, g(y_J)), whose zero is then at or below the root: L. Where rounding
    has put g(y_J) <= 0 the iterate has converged, and L = U. Both are written
    into the solve's buffers, which its next steps overwrite.
    """
    lanes.steps(_BRACKET_STEPS).evaluate()
    upper, neg_g, chord = lanes.q, lanes.g, lanes.step
    # h = -max(g, 0): the chord's zero is ny_J + h (ny_J - ny_p) / (b - h)
    h = np.minimum(neg_g, 0.0, out=neg_g)
    np.multiply(h, np.subtract(lanes.ny, lanes.log_one_minus_p, out=chord), out=chord)
    np.divide(chord, np.subtract(lanes.b, h, out=h), out=chord)
    np.add(lanes.ny, chord, out=chord)
    lower = np.negative(np.expm1(chord, out=chord), out=chord)
    lower[(lanes.p >= 1.0) | (lanes.b < _NEWTON_MIN_BUDGET)] = np.nan
    return lower, upper


def _klucb_argmax(p: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_first_argmax(klucb_index_batch(p, b)) over [K, n] lanes, with the
    full solve only on the slots whose argmax the bracket leaves open.

    A slot is decided when every other arm's U is below its best L by
    _DECISION_MARGIN: each computed index is within _INDEX_ERROR of its
    root, and each root within _BRACKET_ERROR of its bracket, so that arm's
    computed index is then strictly the largest, and it is the first argmax
    of U. The test counts the arms strictly beaten, so a nan leaves the slot
    open. An open slot's lanes run on from the bracket's iterate to the end
    of the solve, which gives them klucb_index_batch's bits.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lanes = _Newton.start(p, b)
        lower, upper = _klucb_bracket(lanes)
        bar = np.subtract(np.maximum.reduce(lower), _DECISION_MARGIN)
        beaten = np.add.reduce(np.less(upper, bar))
        arms = _first_argmax(upper)
        open_slots = np.flatnonzero(beaten < len(p) - 1)
        if open_slots.size:
            rest = lanes.take(open_slots).steps(_NEWTON_ITERATIONS - _BRACKET_STEPS)
            arms[open_slots] = _first_argmax(rest.finish())
    return arms


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


def exploration_budgets(spec: PolicySpec, m: int, rounds, totals) -> np.ndarray:
    """The exploration values f a player's indices use at each round t of
    rounds, a sequence, holding the matching total sample count of totals,
    an iterable as long, in a run of m players: Python ints >= 1, unchecked.

    The ln2t variant reads the round, the standard one the total. dklucb
    scales the standard value by M / (1 + (M-1) alpha), with M = m and alpha =
    spec.alpha; this is the only place the budget is scaled (the engine's
    claim check scales its bound on N' by the same factor).
    """
    args = rounds if spec.exploration.variant == LN2T else totals
    f = np.fromiter(exploration_values(spec.exploration, args), np.float64, len(rounds))
    if spec.rule == DKLUCB:
        f *= dklucb_scale(m, spec.alpha)
    return f


def exploration_budget(
    spec: PolicySpec, m: int, t: int | None, total_known: int
) -> float:
    """exploration_budgets at one round t, with the player's total sample
    count total_known; t may be None unless the variant is ln2t."""
    if spec.exploration.variant == LN2T:
        if t is None:
            raise ValueError("ln2t exploration is evaluated at the round index")
        t = _at_least("exploration argument", t, 1)
    else:
        total_known = _at_least("exploration argument", total_known, 1)
    return float(exploration_budgets(spec, m, (t,), (total_known,))[0])


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
    k = len(counts)
    arms = _klucb_argmax(mu_hat.reshape(k, -1), np.divide(f, denom).reshape(k, -1))
    return arms.reshape(counts.shape[1:]), denom

