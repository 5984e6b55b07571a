"""Tests for the index rules: closed forms, an independent root-finder oracle,
monotonicity properties, count prediction, and arm selection, each on the
batch functions the engine calls."""

import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from index_reference import error, kl_index, ucb_index
from scipy.optimize import brentq

from distbandit import policies
from distbandit.core import ExplorationFunction, exploration_value
from distbandit.policies import (
    DKLUCB,
    KLUCB,
    UCB,
    PolicySpec,
    _first_argmax,
    _klucb_argmax,
    _klucb_bisect,
    _klucb_bracket,
    _Newton,
    count_prediction_batch,
    exploration_budget,
    klucb_index_batch,
    klucb_lower_batch,
    select_batch,
    ucb_index_batch,
)


def _kl(p, q):
    if p == q:
        return 0.0
    if q <= 0.0 or q >= 1.0:
        return math.inf
    out = 0.0
    if p > 0.0:
        out += p * math.log(p / q)
    if p < 1.0:
        out += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return out


def _upper_oracle(mu, budget):
    """sup{q in [mu, 1): K(mu, q) <= budget} via brentq (independent route)."""
    if budget <= 0.0:
        return mu
    if mu >= 1.0:
        return 1.0
    hi = 1.0 - 1e-13
    if _kl(mu, hi) <= budget:
        return 1.0
    return brentq(lambda q: _kl(mu, q) - budget, mu, hi, xtol=1e-12)


def _lower_oracle(mu, budget):
    """inf{q in (0, mu]: K(mu, q) <= budget} via brentq."""
    if budget <= 0.0:
        return mu
    if mu <= 0.0:
        return 0.0
    lo = 1e-300
    if _kl(mu, lo) <= budget:
        return 0.0
    return brentq(lambda q: _kl(mu, q) - budget, lo, mu, xtol=1e-12)


def select_one(spec, m, t, counts, sums, snaps=None):
    """select_batch's arm for one player's view, a [K] array, with the
    exploration budget at round t and the view's own sample total."""
    counts = np.asarray(counts, dtype=np.int64)
    sums = np.asarray(sums, dtype=np.int64)
    snaps = np.zeros_like(counts) if snaps is None else np.asarray(snaps)
    f = exploration_budget(spec, m, t, int(counts.sum()))
    return int(select_batch(spec, m, f, counts, sums, snaps)[0])


class TestUcbIndex:
    def test_direct_substitution(self):
        assert ucb_index_batch(1 / 2, 2, 1.0) == pytest.approx(1.0)  # 0.5 + sqrt(1/4)

    def test_zero_mean_full_bonus(self):
        assert ucb_index_batch(0 / 1, 1, 2.0) == pytest.approx(1.0)  # sqrt(2/2)

    def test_bonus_vanishes(self):
        n, s = 10**9, int(0.9 * 10**9)
        assert ucb_index_batch(s / n, n, 5.0) == pytest.approx(0.9, abs=1e-4)

    @given(
        count=st.integers(1, 10**6),
        ones=st.floats(0.0, 1.0),
        f=st.floats(1e-9, 50.0),
    )
    def test_at_least_mean_and_bonus_decreasing(self, count, ones, f):
        s = int(ones * count)
        index = ucb_index_batch(s / count, count, f)
        assert index >= s / count
        assert ucb_index_batch(s / (2 * count), 2 * count, f) < index


class TestKlucbIndex:
    def test_zero_mean_closed_form(self):
        got = klucb_index_batch(0 / 4, 4 * math.log(2) / 4)
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_zero_budget_pins_to_mean(self):
        assert klucb_index_batch(7 / 10, 0.0 / 10) == pytest.approx(0.7, abs=1e-12)

    def test_mean_one_is_one(self):
        assert klucb_index_batch(5 / 5, 3.7 / 5) == 1.0

    def test_against_root_finder(self):
        rng = np.random.default_rng(123)
        for _ in range(400):
            n = int(rng.integers(1, 200))
            s = int(rng.integers(0, n + 1))
            f = float(rng.uniform(0.0, 8.0))
            mine = klucb_index_batch(s / n, f / n)
            ref = _upper_oracle(s / n, f / n)
            assert mine == pytest.approx(ref, abs=1e-8)

    @given(
        mu=st.floats(0.0, 1.0),
        f1=st.floats(0.0, 10.0),
        f2=st.floats(0.0, 10.0),
        n1=st.integers(1, 500),
        n2=st.integers(1, 500),
    )
    def test_monotone_in_budget_and_denominator(self, mu, f1, f2, n1, n2):
        lo_f, hi_f = sorted((f1, f2))
        lo_n, hi_n = sorted((n1, n2))
        a = float(klucb_index_batch(mu, lo_f / hi_n))
        b = float(klucb_index_batch(mu, hi_f / hi_n))
        c = float(klucb_index_batch(mu, hi_f / lo_n))
        assert mu <= a <= b <= c <= 1.0


def _newton_reference(mu_hat, budget):
    """klucb_index_batch as the plain loop in y = -ln(1-q), one fresh array
    per operation: the reference the in-place kernel must equal bit for bit."""
    p = np.asarray(mu_hat, dtype=np.float64)
    b = np.asarray(budget, dtype=np.float64)
    one_minus_p = 1.0 - p
    ent = p * np.log(np.maximum(p, policies._TINY))
    ent = ent + one_minus_p * np.log(np.maximum(one_minus_p, policies._TINY))
    target = b - ent
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = -np.log1p(-np.minimum(p + np.sqrt(0.5 * b), 1.0 - 1e-16))
        for _ in range(policies._NEWTON_ITERATIONS):
            q = -np.expm1(-y)
            g = one_minus_p * y - p * np.log(q) - target
            step = g * q / (q - p)
            y = y - step
        q = -np.expm1(-y)
        settled = (np.abs(step) < 1e-12 * np.maximum(y, 1.0)) & (q >= p)
    certain = p >= 1.0
    q = np.where(certain, 1.0, q)
    redo = ~(settled | certain) | (b < policies._NEWTON_MIN_BUDGET)
    if redo.any():
        p_all, b_all = np.broadcast_arrays(p, b)
        q[redo] = _klucb_bisect(p_all[redo], b_all[redo])
    return q


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert not len(bad), (
        f"{len(bad)} lanes differ, the first {got.ravel()[bad[0]]!r} != {want.ravel()[bad[0]]!r}"
    )


# edge means and budgets: the float extremes, and the Newton form's cut-off
KERNEL_MEANS = (0.0, 5e-324, 1e-300, 0.5, 1.0 - 1e-16, 1.0)
KERNEL_BUDGETS = (
    0.0, 5e-324, np.nextafter(1e-11, 0.0), 1e-11, np.nextafter(1e-11, 1.0), 1e-5, 1.0, 700.0,
)


class TestKlucbNewtonKernel:
    """klucb_index_batch (Newton in y = -ln(1-q)) against the bisection it
    falls back to."""

    @settings(max_examples=200, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                st.one_of(st.just(0.0), st.floats(-12.0, 2.0).map(lambda e: 10.0**e)),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_agrees_with_bisection(self, lanes):
        mu, budget = (np.array(column) for column in zip(*lanes))
        got = klucb_index_batch(mu, budget)
        assert np.all(np.abs(got - _klucb_bisect(mu, budget)) <= 1e-10)
        assert np.all((mu <= got) & (got <= 1.0))

    def test_unsettled_lanes_alone_fall_back_to_bisection(self, monkeypatch):
        # near q = mu the divergence evaluation is cancellation-limited, so
        # Newton's last step does not settle on some tiny-budget lanes
        redone = []

        def spy(p, b, upper=True):
            redone.append(p.size)
            return _klucb_bisect(p, b, upper)

        monkeypatch.setattr(policies, "_klucb_bisect", spy)
        mu = np.full(64, 0.3)
        budget = np.geomspace(1e-12, 1e-10, 64)
        got = klucb_index_batch(mu, budget)
        assert len(redone) == 1 and 0 < redone[0] < 64
        assert np.all(np.abs(got - _klucb_bisect(mu, budget)) <= 1e-10)
        assert np.all(got >= mu)

    @settings(max_examples=200, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.one_of(st.sampled_from(KERNEL_MEANS), st.floats(0.0, 1.0)),
                st.one_of(
                    st.sampled_from(KERNEL_BUDGETS),
                    st.floats(-330.0, 3.0).map(lambda e: 10.0**e),
                    st.floats(0.0, 800.0),
                ),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_drawn_lanes_equal_the_reference_loop_bit_for_bit(self, lanes):
        mu, budget = (np.array(column) for column in zip(*lanes))
        _same_bits(klucb_index_batch(mu, budget), _newton_reference(mu, budget))

    def test_edge_lanes_equal_the_reference_loop_bit_for_bit(self):
        mu, budget = (x.ravel() for x in np.meshgrid(KERNEL_MEANS, KERNEL_BUDGETS))
        _same_bits(klucb_index_batch(mu, budget), _newton_reference(mu, budget))
        for p, b in zip(mu.tolist(), budget.tolist()):
            # 0-d scalars, as a single player's view gives them
            got = klucb_index_batch(p, b)
            assert got.shape == ()
            _same_bits(got, _newton_reference(p, b))

    def test_broadcast_and_read_only_inputs_equal_the_reference_loop(self):
        # [K, 1] x [1, N], as the means against a row of budgets, and the same
        # as read-only broadcast views, which the kernel must not write to
        mu = np.array(KERNEL_MEANS)[:, None]
        budget = np.array(KERNEL_BUDGETS)[None]
        want = _newton_reference(mu, budget)
        assert want.shape == (len(KERNEL_MEANS), len(KERNEL_BUDGETS))
        _same_bits(klucb_index_batch(mu, budget), want)
        shape = want.shape
        frozen = np.broadcast_to(mu, shape), np.broadcast_to(budget, shape)
        assert not any(x.flags.writeable for x in frozen)
        _same_bits(klucb_index_batch(*frozen), want)
        assert np.array_equal(frozen[0][:, 0], KERNEL_MEANS)

    def test_tiny_budgets_are_accurate_and_monotone(self):
        # below 1e-13 the root is p + sqrt(2 p (1-p) b) to well under 1e-12;
        # the entropy form of the divergence cancels to ~1e-16 there
        budget = np.geomspace(1e-30, 1e-13, 18)
        for p in (0.3, 0.75):
            got = klucb_index_batch(np.full(budget.size, p), budget)
            assert np.all(np.abs(got - (p + np.sqrt(2 * p * (1 - p) * budget))) <= 1e-11)
            assert np.all(np.diff(got) >= 0)


# lanes as the engine makes them: means on grids of counts, and anywhere in
# [0, 1]; budgets log-uniform from the Newton form's cut-off up to 20
GRID_MEANS = st.integers(1, 200_000).flatmap(lambda n: st.integers(0, n).map(lambda s: s / n))
MEANS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), GRID_MEANS)
BUDGETS = st.floats(math.log10(policies._NEWTON_MIN_BUDGET), math.log10(20.0)).map(
    lambda e: 10.0**e
)


def _bracket(mu, budget):
    """_klucb_bracket's (L, U) on the lanes, as fresh arrays."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lower, upper = _klucb_bracket(_Newton.start(mu, budget))
    return lower.copy(), upper.copy()


class TestIndexErrorBound:
    """Every index the kernels return is within _INDEX_ERROR of the true one,
    and every root within _BRACKET_ERROR of the bracket the KL decision reads,
    against a 40-digit decimal reference: the bounds the decision margin
    rests on."""

    def check(self, mu, budget):
        mu, budget = np.broadcast_arrays(np.asarray(mu, float), np.asarray(budget, float))
        upper = klucb_index_batch(mu, budget)
        lower = klucb_lower_batch(mu, budget)
        bracket_lo, bracket_hi = _bracket(mu, budget)
        slack = Decimal(policies._BRACKET_ERROR)
        for i, (p, b) in enumerate(zip(mu.tolist(), budget.tolist())):
            root = kl_index(p, b)
            where = f"at mu={p!r}, budget={b!r}"
            assert error(upper[i], root) <= policies._INDEX_ERROR, where
            assert error(lower[i], kl_index(p, b, upper=False)) <= policies._INDEX_ERROR, where
            if not math.isnan(bracket_lo[i]):
                assert Decimal(bracket_lo[i]) - slack <= root, where
                assert root <= Decimal(bracket_hi[i]) + slack, where
        # the bracket makes no claim where the Newton form does not hold
        edge = (mu >= 1.0) | (budget < policies._NEWTON_MIN_BUDGET)
        assert np.isnan(bracket_lo[edge]).all()
        return int(np.count_nonzero(~np.isnan(bracket_lo)))

    @settings(max_examples=100, deadline=None)
    @given(lanes=st.lists(st.tuples(MEANS, BUDGETS), min_size=1, max_size=8))
    def test_drawn_lanes_are_within_the_bounds(self, lanes):
        self.check(*zip(*lanes))

    def test_edge_lanes_are_within_the_bounds(self):
        mu, budget = np.meshgrid(KERNEL_MEANS, KERNEL_BUDGETS + (20.0,))
        assert self.check(mu.ravel(), budget.ravel()) >= 20

    @settings(max_examples=100, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.integers(1, 2**40).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))),
                st.floats(0.0, 1e6),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_ucb_indices_are_within_the_bound(self, lanes):
        # an index below 1e5: its four operations each round correctly
        mu = np.array([s / n for (s, n), _ in lanes])
        counts = np.array([float(n) for (_, n), _ in lanes])
        f = np.array([f for _, f in lanes])
        got = ucb_index_batch(mu, counts, f)
        for i in range(len(lanes)):
            true = ucb_index(mu[i], counts[i], f[i])
            assert error(got[i], true) <= policies._INDEX_ERROR


def _ulps(x: float, k: int, top: float) -> float:
    """x moved by k ulps, kept in [0, top]."""
    bits = int(np.float64(x).view(np.int64)) + k
    return float(np.int64(min(max(bits, 0), np.float64(top).view(np.int64))).view(np.float64))


# the edge lanes of the decision: means 0 and 1, zero and sub-cut-off budgets
EDGE_BUDGETS = (0.0, 5e-324, 1e-12, np.nextafter(1e-11, 0.0), 1e-11, 20.0)
ANY_BUDGETS = st.one_of(st.sampled_from(EDGE_BUDGETS), BUDGETS)


@st.composite
def near_tie_slots(draw, k):
    """One slot's K lanes around a drawn lane: each arm is that lane, the lane
    with its mean or budget a few ulps off, or a lane of its own."""
    p, b = draw(MEANS), draw(ANY_BUDGETS)
    ulps = st.integers(-3, 3)
    lanes = []
    for _ in range(k):
        kind = draw(st.sampled_from(["same", "mean", "budget", "both", "own"]))
        if kind == "own":
            lanes.append((draw(MEANS), draw(ANY_BUDGETS)))
            continue
        moved_p = _ulps(p, draw(ulps), 1.0) if kind in ("mean", "both") else p
        moved_b = _ulps(b, draw(ulps), 20.0) if kind in ("budget", "both") else b
        lanes.append((moved_p, moved_b))
    return lanes


class TestKlucbDecision:
    """_klucb_argmax, the KL rules' decision, against the argmax of the full
    solve, on every lane it is given."""

    @staticmethod
    def dense(mu, budget):
        return _first_argmax(klucb_index_batch(mu, budget))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), k=st.sampled_from([2, 3, 4]), n=st.integers(1, 12))
    def test_drawn_near_ties_equal_the_dense_argmax(self, data, k, n):
        slots = [data.draw(near_tie_slots(k)) for _ in range(n)]
        mu = np.array([[lane[0] for lane in slot] for slot in slots]).T
        budget = np.array([[lane[1] for lane in slot] for slot in slots]).T
        assert np.array_equal(_klucb_argmax(mu, budget), self.dense(mu, budget))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_ulp_ties_on_count_grids_equal_the_dense_argmax(self, k):
        # every arm of a slot is one lane with its mean and budget moved by up
        # to 3 ulps or not at all: the roots are within ~1e-15 of each other,
        # so the bracket must leave the slot open wherever rounding decides
        rng = np.random.default_rng(k)
        n = 20_000
        counts = rng.integers(1, 100_000, n)
        mu = np.floor(counts * rng.uniform(0, 1, n)) / counts
        budget = 10.0 ** rng.uniform(-10, 1, n)
        moved = []
        for x, top in ((mu, 1.0), (budget, 20.0)):
            ulps = rng.integers(-3, 4, (k, n)) * (rng.uniform(0, 1, (k, n)) < 0.5)
            bits = np.broadcast_to(x, (k, n)).view(np.int64) + ulps
            moved.append(np.clip(bits.view(np.float64), 0.0, top))
        assert np.array_equal(_klucb_argmax(*moved), self.dense(*moved))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_edge_lanes_equal_the_dense_argmax(self, k):
        means = KERNEL_MEANS + (0.25, 0.75)
        lanes = [(p, b) for p in means for b in KERNEL_BUDGETS + EDGE_BUDGETS]
        rng = np.random.default_rng(k)
        pick = rng.integers(0, len(lanes), (k, 4000))
        mu, budget = (np.array(column)[pick] for column in zip(*lanes))
        assert np.array_equal(_klucb_argmax(mu, budget), self.dense(mu, budget))

    def opened(self, monkeypatch, mu, budget):
        """The slots _klucb_argmax solves in full."""
        taken = []
        real = _Newton.take

        def take(lanes, slots):
            taken.extend(slots.tolist())
            return real(lanes, slots)

        monkeypatch.setattr(_Newton, "take", take)
        assert np.array_equal(_klucb_argmax(mu, budget), self.dense(mu, budget))
        return taken

    def test_separated_arms_are_decided_by_the_bracket(self, monkeypatch):
        # the engine's common case: the means a few standard errors apart
        rng = np.random.default_rng(7)
        counts = rng.integers(50, 5000, (2, 500))
        mu = np.stack([np.full(500, 0.9), np.full(500, 0.8)])
        mu = np.floor(mu * counts) / counts
        budget = np.log(4000.0) / counts
        assert self.opened(monkeypatch, mu, budget) == []

    def test_ties_and_edge_lanes_are_solved_in_full(self, monkeypatch):
        mu = np.array([[0.5, 0.5, 1.0, 0.9, 0.5], [0.5, np.nextafter(0.5, 1.0), 0.5, 0.5, 0.2]])
        budget = np.array([[0.1, 0.1, 0.1, 1e-12, 0.1], [0.1, 0.1, 0.1, 0.1, 0.1]])
        assert self.opened(monkeypatch, mu, budget) == [0, 1, 2, 3]

    def test_a_single_arm_is_arm_zero(self):
        assert _klucb_argmax(np.array([[0.3, 1.0]]), np.array([[0.1, 0.0]])).tolist() == [0, 0]


class TestNewtonContinuation:
    """A solve's lanes, taken after the bracket and run to the end, give the
    bits klucb_index_batch gives them."""

    @staticmethod
    def continued(mu, budget, slots):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lanes = _Newton.start(mu, budget)
            _klucb_bracket(lanes)
            rest = lanes.take(slots)
            return rest.steps(policies._NEWTON_ITERATIONS - policies._BRACKET_STEPS).finish()

    def test_edge_lanes_equal_the_dense_solve_bit_for_bit(self):
        mu, budget = (x.reshape(2, -1) for x in np.meshgrid(KERNEL_MEANS, KERNEL_BUDGETS))
        for slots in (np.arange(mu.shape[1]), np.arange(0, mu.shape[1], 3)):
            want = klucb_index_batch(mu[:, slots], budget[:, slots])
            _same_bits(self.continued(mu, budget, slots), want)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        lanes=st.lists(st.tuples(MEANS, ANY_BUDGETS), min_size=2, max_size=24),
    )
    def test_drawn_lanes_equal_the_dense_solve_bit_for_bit(self, data, lanes):
        n = len(lanes) // 2
        mu, budget = (np.array(column[: 2 * n]).reshape(2, n) for column in zip(*lanes))
        slots = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        want = klucb_index_batch(mu[:, slots], budget[:, slots])
        _same_bits(self.continued(mu, budget, slots), want)


class TestKlucbLowerIndex:
    def test_mean_one_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 100))
            f = float(rng.uniform(0.01, 6.0))
            got = klucb_lower_batch(n / n, f / n)
            assert got == pytest.approx(math.exp(-f / n), abs=1e-9)

    def test_mean_zero_is_zero(self):
        assert klucb_lower_batch(0 / 3, 2.0 / 3) == 0.0

    def test_zero_budget_pins_to_mean(self):
        assert klucb_lower_batch(4 / 10, 0.0 / 10) == pytest.approx(0.4, abs=1e-12)

    def test_against_root_finder(self):
        rng = np.random.default_rng(321)
        for _ in range(400):
            n = int(rng.integers(1, 200))
            s = int(rng.integers(0, n + 1))
            f = float(rng.uniform(0.0, 6.0))
            mine = klucb_lower_batch(s / n, f / n)
            ref = _lower_oracle(s / n, f / n)
            assert mine == pytest.approx(ref, abs=1e-8)

    @given(mu=st.floats(0.0, 1.0), f=st.floats(0.0, 10.0), n=st.integers(1, 500))
    def test_bracketed_by_mean(self, mu, f, n):
        lower = float(klucb_lower_batch(mu, f / n))
        upper = float(klucb_index_batch(mu, f / n))
        assert 0.0 <= lower <= mu <= upper <= 1.0


class TestCountPrediction:
    def test_alpha_one_is_identity(self):
        assert count_prediction_batch(14, 10, 2, 1.0) == 14.0

    def test_direct_substitution(self):
        assert count_prediction_batch(14, 10, 2, 0.5) == 18.0  # u=5, local=4
        assert count_prediction_batch(20, 6, 3, 0.5) == 24.0  # u=2 wins the min

    def test_alpha_zero_uses_local_increment(self):
        assert count_prediction_batch(14, 10, 3, 0.0) == 14.0 + 2 * 4

    @given(
        snap=st.integers(0, 1000),
        extra=st.integers(0, 1000),
        m=st.integers(1, 8),
        alpha=st.floats(0.0, 1.0),
    )
    def test_per_player_bound(self, snap, extra, m, alpha):
        n = snap + extra
        n_prime = count_prediction_batch(n, snap, m, alpha)
        assert n <= n_prime <= m / (1.0 + (m - 1) * alpha) * n + 1e-9

    def test_subnormal_alpha_stays_finite(self):
        # 1/alpha rounds to inf here; the budget must saturate, not go nan
        tiny = 5e-324
        assert count_prediction_batch(7, 0, 4, tiny) == 7.0  # zero budget
        assert count_prediction_batch(14, 10, 2, tiny) == 18.0  # local (4) wins


class TestExplorationBudget:
    """DKLUCB's budget: the standard form at the player's sample count, scaled
    by M / (1 + (M-1) alpha) with M the run's player count."""

    def test_dklucb_scale(self):
        for t in (3, 10, 100, 5000):
            base = exploration_budget(PolicySpec(KLUCB), 2, None, t)
            collapsed = exploration_budget(PolicySpec(DKLUCB, alpha=1.0), 2, None, t)
            doubled = exploration_budget(PolicySpec(DKLUCB, alpha=0.0), 2, None, t)
            np.testing.assert_allclose(collapsed, base, rtol=1e-15)
            np.testing.assert_allclose(doubled, 2 * base, rtol=1e-15)

    @given(t=st.integers(min_value=1, max_value=10**6), alpha=st.floats(0.0, 1.0))
    def test_single_player_collapses_to_standard(self, t, alpha):
        assert exploration_budget(
            PolicySpec(DKLUCB, alpha=alpha), 1, None, t
        ) == exploration_value(ExplorationFunction.standard(), t)

    def test_dklucb_nondecreasing_from_three_and_nonnegative(self):
        spec = PolicySpec(DKLUCB, alpha=0.25)
        values = [exploration_budget(spec, 3, None, t) for t in range(3, 3000)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        spec = PolicySpec(DKLUCB, alpha=0.5)
        assert all(exploration_budget(spec, 4, None, t) >= 0.0 for t in range(1, 50))

    def test_klucb_is_never_scaled(self):
        # the scale comes from the rule alone: the exploration form has no
        # player count or alpha of its own
        with pytest.raises(ValueError):
            ExplorationFunction(DKLUCB)
        for m in (1, 2, 4):
            assert exploration_budget(PolicySpec(KLUCB), m, None, 100) == (
                exploration_value(ExplorationFunction.standard(), 100)
            )


class TestSelectArm:
    """select_batch on one player's view, a [K] array."""

    def test_tie_breaks_to_lowest(self):
        for spec in (PolicySpec(UCB), PolicySpec(KLUCB), PolicySpec(DKLUCB, alpha=0.5)):
            assert select_one(spec, 2, 7, [3, 3], [2, 2]) == 0

    def test_dominant_mean_wins(self):
        assert select_one(PolicySpec(KLUCB), 1, None, [500, 500], [450, 50]) == 0

    def test_ln2t_needs_round_index(self):
        spec = PolicySpec(UCB, ExplorationFunction.ln2t())
        with pytest.raises(ValueError):
            exploration_budget(spec, 1, None, 2)
        assert select_one(spec, 1, 3, [1, 1], [1, 0]) in (0, 1)

    def test_matches_manual_argmax(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            counts = rng.integers(1, 40, size=k)
            sums = rng.integers(0, counts + 1)
            f = exploration_value(ExplorationFunction.standard(), int(counts.sum()))
            manual = [
                klucb_index_batch(sums[a] / counts[a], f / counts[a]) for a in range(k)
            ]
            assert select_one(PolicySpec(KLUCB), 1, None, counts, sums) == int(np.argmax(manual))

    @given(
        counts=st.lists(st.integers(1, 60), min_size=1, max_size=4),
        alpha=st.floats(0.0, 1.0),
        seed=st.integers(0, 10**6),
    )
    def test_single_player_dklucb_is_klucb(self, counts, alpha, seed):
        rng = np.random.default_rng(seed)
        counts = np.asarray(counts)
        sums = rng.integers(0, counts + 1)
        snaps = rng.integers(0, counts + 1)
        assert select_one(PolicySpec(DKLUCB, alpha=alpha), 1, None, counts, sums, snaps) == (
            select_one(PolicySpec(KLUCB), 1, None, counts, sums, snaps)
        )


def _arm_first(values):
    """A [..., K] array as a [K, ...] view, select_batch's axis order."""
    return np.moveaxis(np.asarray(values), -1, 0)


def _select_on(values, contiguous=False):
    """select_batch's arms for a [..., K] batch whose indices are `values`,
    passed arm axis first as a strided view of them, or as a contiguous copy
    (as the engine stores its batch): UCB with f = 0 on single samples makes
    each index its sample exactly."""
    values = _arm_first(np.asarray(values, dtype=np.float64))
    if contiguous:
        values = np.ascontiguousarray(values)
    ones, zeros = np.ones_like(values), np.zeros_like(values)
    return select_batch(PolicySpec(UCB), 1, 0.0, ones, values, zeros)[0]


class TestSelectBatch:
    @settings(max_examples=200)
    @given(
        data=st.data(),
        batch=st.lists(st.integers(1, 4), max_size=2),
        k=st.integers(1, 12),
    )
    def test_arms_equal_argmax(self, data, batch, k):
        # a small pool of values makes exact ties between arms common
        value = st.one_of(
            st.sampled_from([0.0, -0.0, 0.25, 1.0, -3.0]),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        values = data.draw(arrays(np.float64, (*batch, k), elements=value))
        want = np.argmax(values, axis=-1)
        assert np.array_equal(_select_on(values), want)
        assert np.array_equal(_select_on(values, contiguous=True), want)

    @pytest.mark.parametrize(
        "values, arm",
        [
            ([math.nan], 0),
            ([math.nan, 1.0], 0),
            ([1.0, math.nan], 0),
            ([math.nan, 2.0, 3.0], 0),
            ([1.0, math.nan, 2.0], 0),
            ([1.0, 3.0, math.nan, 5.0], 1),  # np.argmax gives 2
            ([2.0, 2.0, 1.0, math.nan], 0),
        ],
    )
    def test_nan_ends_the_scan(self, values, arm):
        # the result is the first maximum of the arms before the first nan
        assert _select_on(values) == arm
        assert _select_on([values, values], contiguous=True).tolist() == [arm, arm]

    def test_ucb_and_kl_indices_match_argmax(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(1, 4, size=(6, 3, 7))
        sums = rng.integers(0, counts + 1)
        f = 2.0
        mu = sums / counts
        for spec, index in (
            (PolicySpec(UCB), mu + np.sqrt(f / (2.0 * counts))),
            (PolicySpec(KLUCB), klucb_index_batch(mu, f / counts)),
        ):
            arms, denom = select_batch(
                spec, 1, f, _arm_first(counts), _arm_first(sums), np.zeros((7, 6, 3))
            )
            assert np.array_equal(arms, np.argmax(index, axis=-1))
            assert np.array_equal(denom, _arm_first(counts))


class TestPolicySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolicySpec("thompson")
        with pytest.raises(ValueError):
            PolicySpec(DKLUCB, alpha=1.5)
        with pytest.raises(ValueError):
            PolicySpec(DKLUCB, ExplorationFunction.ln2t(), alpha=0.5)
        PolicySpec(DKLUCB, ExplorationFunction.standard(), alpha=0.5)

    @pytest.mark.parametrize("rule", [UCB, KLUCB])
    def test_alpha_is_read_by_dklucb_alone(self, rule):
        message = f"alpha is read by dklucb alone; {rule} takes alpha = 1.0, got 0.3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PolicySpec(rule, alpha=0.3)
        with pytest.raises(ValueError, match="alpha"):
            PolicySpec(rule, ExplorationFunction.ln2t(), alpha=0.0)
        # the one alpha such a rule takes is the default, whatever its type
        assert PolicySpec(rule, alpha=np.float64(1.0)) == PolicySpec(rule)
        assert hash(PolicySpec(rule, alpha=np.float64(1.0))) == hash(PolicySpec(rule))

    def test_alpha_is_stored_as_a_float(self):
        # run_strategies fuses equal configs into one batch under the first
        # one's spec, so equal specs must give bit-equal budgets
        narrow = PolicySpec(DKLUCB, alpha=np.float32(0.3))
        wide = PolicySpec(DKLUCB, alpha=float(np.float32(0.3)))
        assert narrow == wide and hash(narrow) == hash(wide)
        assert type(narrow.alpha) is float
        got = exploration_budget(narrow, 2, 100, 150)
        assert type(got) is float and got == exploration_budget(wide, 2, 100, 150)
        with pytest.raises(TypeError, match=r"^alpha must be a real number, got True$"):
            PolicySpec(DKLUCB, alpha=True)

    def test_an_exploration_of_the_wrong_type_is_a_type_error(self):
        message = r"^exploration must be of type ExplorationFunction, got 'ln2t'$"
        with pytest.raises(TypeError, match=message):
            PolicySpec(UCB, "ln2t")

    def test_messages_name_the_choices(self):
        rules = re.escape("'thompson'; expected one of ('ucb', 'klucb', 'dklucb')")
        with pytest.raises(ValueError, match=f"^unknown policy rule {rules}$"):
            PolicySpec("thompson")
        variants = re.escape("'wild'; expected one of ('standard', 'ln2t')")
        with pytest.raises(ValueError, match=f"^unknown exploration variant {variants}$"):
            ExplorationFunction("wild")
        with pytest.raises(ValueError, match=r"cannot use ln2t$"):
            PolicySpec(DKLUCB, ExplorationFunction.ln2t(), alpha=0.5)
