"""Tests for the KL calculus, exploration functions, and arm model."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distbandit import (
    CommunicationSchedule,
    PolicySpec,
    RunConfig,
    bound_report,
    lower_bound_coefficient,
    over_exploration_schedule,
    upper_bound_coefficient,
    upper_bound_curve,
)
from distbandit.core import (
    BernoulliArmModel,
    ExplorationFunction,
    d_inf_bernoulli,
    exploration_value,
    kl_bernoulli,
    kl_truncated,
)

# frozen high-precision reference values (mpmath, 40 digits)
KL_08_09 = 0.044403007586882298
KL_01_09 = 1.7577796618689755
KL_02_06 = 0.33479528671433431
F_STD_100 = 9.186709063411795
LN_16 = 2.7725887222397812

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
inner_probs = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


class TestKlBernoulli:
    def test_identity_is_zero(self):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert kl_bernoulli(p, p) == 0.0

    def test_frozen_values(self):
        np.testing.assert_allclose(kl_bernoulli(0.8, 0.9), KL_08_09, rtol=1e-13)
        np.testing.assert_allclose(kl_bernoulli(0.1, 0.9), KL_01_09, rtol=1e-13)
        np.testing.assert_allclose(kl_bernoulli(0.2, 0.6), KL_02_06, rtol=1e-13)

    def test_closed_form_p_zero(self):
        rng = np.random.default_rng(7)
        for q in rng.uniform(0.01, 0.99, size=50):
            np.testing.assert_allclose(kl_bernoulli(0.0, q), -math.log1p(-q), rtol=1e-13)
        np.testing.assert_allclose(kl_bernoulli(0.0, 0.5), math.log(2), rtol=1e-15)

    def test_closed_form_p_one(self):
        rng = np.random.default_rng(8)
        for q in rng.uniform(0.01, 0.99, size=50):
            np.testing.assert_allclose(kl_bernoulli(1.0, q), -math.log(q), rtol=1e-13)

    def test_boundary_q_is_infinite(self):
        assert kl_bernoulli(0.5, 0.0) == math.inf
        assert kl_bernoulli(0.5, 1.0) == math.inf
        assert kl_bernoulli(0.0, 1.0) == math.inf
        assert kl_bernoulli(1.0, 0.0) == math.inf

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kl_bernoulli(-0.1, 0.5)
        with pytest.raises(ValueError):
            kl_bernoulli(0.5, 1.1)

    @pytest.mark.parametrize("kl", [kl_bernoulli, kl_truncated])
    def test_a_bool_or_non_real_is_a_type_error(self, kl):
        with pytest.raises(TypeError, match=r"^p must be a real number, got True$"):
            kl(True, 0.5)
        with pytest.raises(TypeError, match=r"^q must be a real number, got '0\.5'$"):
            kl(0.5, "0.5")

    @given(p=probs, q=inner_probs)
    @example(p=0.3, q=math.nextafter(0.3, 1.0))
    @example(p=1e-06, q=math.nextafter(1e-06, 1.0))
    def test_positive_off_diagonal(self, p, q):
        kl = kl_bernoulli(p, q)
        assert kl >= 0.0
        # K(p, q) integrates (x - p) / (x (1 - x)) from p to q, and x (1 - x)
        # <= max(p, q) there, so K(p, q) >= (q - p)^2 / (2 max(p, q)). A gap of
        # 1e-3 max(p, q) then gives K >= 5e-7 q >= 5e-13 (q >= 1e-6 here),
        # over 2000 times the few ulps of 1 (2.2e-16 each) the cancelling log
        # terms can lose; pairs closer than rounding, such as neighbouring
        # floats, may give exactly 0
        if abs(q - p) >= 1e-3 * max(p, q):
            assert kl > 0.0

    @given(p=probs, lo=inner_probs, hi=inner_probs)
    def test_increasing_in_q_above_p(self, p, lo, hi):
        q1, q2 = sorted((lo, hi))
        if p <= q1:
            assert kl_bernoulli(p, q1) <= kl_bernoulli(p, q2)

    def test_never_negative_where_the_terms_cancel(self):
        # q one ulp above p: the two terms cancel to -2.2e-22 in float64
        assert kl_bernoulli(1e-06, 1.0000000000000002e-06) == 0.0
        assert kl_bernoulli(0.3, math.nextafter(0.3, 1.0)) == 0.0
        assert kl_bernoulli(1e-06, 1e-06) == 0.0

    def test_strictly_increasing_sample(self):
        qs = np.linspace(0.3, 0.99, 25)
        vals = [kl_bernoulli(0.3, q) for q in qs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestKlTruncated:
    def test_truncates_above(self):
        assert kl_truncated(0.9, 0.8) == 0.0

    def test_delegates_below(self):
        assert kl_truncated(0.8, 0.9) == kl_bernoulli(0.8, 0.9)

    def test_equality_both_branches(self):
        assert kl_truncated(0.5, 0.5) == 0.0

    @given(p=probs, q=probs)
    def test_matches_definition(self, p, q):
        expected = 0.0 if p > q else kl_bernoulli(p, q)
        assert kl_truncated(p, q) == expected


class TestDInf:
    def test_equals_divergence(self):
        np.testing.assert_allclose(d_inf_bernoulli(0.8, 0.9), KL_08_09, rtol=1e-13)
        np.testing.assert_allclose(d_inf_bernoulli(0.1, 0.9), KL_01_09, rtol=1e-13)

    def test_rejects_non_suboptimal(self):
        with pytest.raises(ValueError):
            d_inf_bernoulli(0.9, 0.9)
        with pytest.raises(ValueError):
            d_inf_bernoulli(0.95, 0.9)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            d_inf_bernoulli(0.0, 0.9)
        with pytest.raises(ValueError):
            d_inf_bernoulli(0.5, 1.0)


class TestExplorationFunction:
    def test_standard_values(self):
        f = ExplorationFunction.standard()
        np.testing.assert_allclose(exploration_value(f, 100), F_STD_100, rtol=1e-13)
        # ln t + 3 ln ln t is negative just above t=1 and clamps to 0
        assert exploration_value(f, 2) == 0.0
        assert exploration_value(f, 1) == 0.0

    def test_ln2t_values(self):
        f = ExplorationFunction.ln2t()
        np.testing.assert_allclose(exploration_value(f, 8), LN_16, rtol=1e-13)
        np.testing.assert_allclose(exploration_value(f, 1), math.log(2), rtol=1e-15)

    def test_nondecreasing_from_three(self):
        for f in (ExplorationFunction.standard(), ExplorationFunction.ln2t()):
            values = [exploration_value(f, t) for t in range(3, 3000)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_nonnegative_everywhere(self):
        f = ExplorationFunction.standard()
        assert all(exploration_value(f, t) >= 0.0 for t in range(1, 50))

    @pytest.mark.parametrize("f", [ExplorationFunction.standard(), ExplorationFunction.ln2t()])
    def test_a_non_integer_argument_is_a_type_error(self, f):
        # 2.5 was evaluated as a round between 2 and 3
        with pytest.raises(TypeError, match="exploration argument must be an integer, got 2.5"):
            exploration_value(f, 2.5)

    @pytest.mark.parametrize("f", [ExplorationFunction.standard(), ExplorationFunction.ln2t()])
    def test_a_bool_argument_is_a_type_error(self, f):
        # True was evaluated as round 1
        with pytest.raises(TypeError, match="exploration argument must be an integer, got True"):
            exploration_value(f, True)

    def test_numpy_integer_arguments_equal_ints(self):
        for f in (ExplorationFunction.standard(), ExplorationFunction.ln2t()):
            assert exploration_value(f, np.int64(100)) == exploration_value(f, 100)

    def test_domain_and_construction_errors(self):
        with pytest.raises(ValueError):
            exploration_value(ExplorationFunction.standard(), 0)
        with pytest.raises(ValueError):
            ExplorationFunction("wild")


class TestBernoulliArmModel:
    def test_gaps_and_best(self):
        model = BernoulliArmModel((0.9, 0.8, 0.5))
        assert model.best_mean == 0.9
        assert model.k == 3
        np.testing.assert_allclose(model.gaps, (0.0, 0.1, 0.4), atol=1e-15)

    @given(means=st.lists(probs, min_size=1, max_size=6))
    def test_at_least_one_zero_gap(self, means):
        model = BernoulliArmModel(tuple(means))
        gaps = model.gaps
        assert min(gaps) == 0.0
        assert all(g >= 0.0 for g in gaps)
        assert model.best_mean == max(means)

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliArmModel(())
        with pytest.raises(ValueError):
            BernoulliArmModel((0.5, 1.2))
        with pytest.raises(ValueError):
            BernoulliArmModel((-0.01,))

    @pytest.mark.parametrize("means", [(True, 0.5), ("0.5",)], ids=repr)
    def test_a_bool_or_non_real_mean_is_a_type_error_naming_the_arm(self, means):
        message = rf"^mean of arm 1 must be a real number, got {re.escape(repr(means[0]))}$"
        with pytest.raises(TypeError, match=message):
            BernoulliArmModel(means)


MODEL = BernoulliArmModel((0.9, 0.5))

# Every public entry point that takes a player count, with the name its
# messages give it (RunConfig names its field), and every one that takes alpha.
PLAYER_COUNT_ENTRY_POINTS = {
    "RunConfig": (
        "players",
        lambda m: RunConfig(MODEL, m, 64, CommunicationSchedule.full(), PolicySpec("ucb"), 0),
    ),
    "over_exploration_schedule": ("player count", lambda m: over_exploration_schedule(100, m)),
    "lower_bound_coefficient": (
        "player count",
        lambda m: lower_bound_coefficient(m, 0.5, 0.5, 0.9),
    ),
    "upper_bound_coefficient": (
        "player count",
        lambda m: upper_bound_coefficient("sparse", m, 0.5, 0.5, 0.9),
    ),
    "upper_bound_curve": (
        "player count",
        lambda m: upper_bound_curve("sparse", m, 0.5, 0.5, 0.9, [16]),
    ),
    "bound_report": ("player count", lambda m: bound_report(MODEL, "sparse", m, 0.5, [16])),
}
ALPHA_ENTRY_POINTS = {
    "lower_bound_coefficient": lambda a: lower_bound_coefficient(2, a, 0.5, 0.9),
    "upper_bound_coefficient": lambda a: upper_bound_coefficient("sparse", 2, a, 0.5, 0.9),
    "upper_bound_curve": lambda a: upper_bound_curve("sparse", 2, a, 0.5, 0.9, [16]),
    "bound_report": lambda a: bound_report(MODEL, "sparse", 2, a, [16]),
    "PolicySpec": lambda a: PolicySpec("dklucb", alpha=a),
}
# every one that takes a suboptimal mean and the best mean
MEAN_PAIR_ENTRY_POINTS = {
    "d_inf_bernoulli": d_inf_bernoulli,
    "lower_bound_coefficient": lambda a, b: lower_bound_coefficient(2, 0.5, a, b),
    "upper_bound_coefficient": lambda a, b: upper_bound_coefficient("sparse", 2, 0.5, a, b),
}


class TestArgumentRules:
    """A player count, alpha and a pair of means each have one rule in core,
    which every entry point that takes one calls, so each gives the same error
    for the same value."""

    @pytest.mark.parametrize("entry", PLAYER_COUNT_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "value, error, message",
        [
            (2.5, TypeError, "{} must be an integer, got 2.5"),
            (True, TypeError, "{} must be an integer, got True"),
            (0, ValueError, "{} must be >= 1, got 0"),
        ],
        ids=["2.5", "True", "0"],
    )
    def test_player_count(self, entry, value, error, message):
        name, call = PLAYER_COUNT_ENTRY_POINTS[entry]
        with pytest.raises(error, match=f"^{re.escape(message.format(name))}$"):
            call(value)

    @pytest.mark.parametrize("entry", ALPHA_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "value, error, message",
        [
            (True, TypeError, "alpha must be a real number, got True"),
            ("0.5", TypeError, "alpha must be a real number, got '0.5'"),
            (1.5, ValueError, "alpha must be in [0, 1], got 1.5"),
            (math.nan, ValueError, "alpha must be in [0, 1], got nan"),
        ],
        ids=["True", "'0.5'", "1.5", "nan"],
    )
    def test_alpha(self, entry, value, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            ALPHA_ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("entry", MEAN_PAIR_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "means, message",
        [
            (("0.5", 0.9), "mu_a must be a real number, got '0.5'"),
            ((True, 0.9), "mu_a must be a real number, got True"),
            ((0.5, True), "mu_star must be a real number, got True"),
        ],
        ids=["'0.5'", "True", "True-best"],
    )
    def test_mean_pair(self, entry, means, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            MEAN_PAIR_ENTRY_POINTS[entry](*means)

    def test_numpy_values_are_accepted(self):
        got = over_exploration_schedule(np.int64(100), np.int32(2))
        assert got == over_exploration_schedule(100, 2)
        assert PolicySpec("dklucb", alpha=np.float64(0.25)).alpha == 0.25
