"""Tests for communication schedules: queries, counting, density, grammar."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distbandit.schedule import (
    CommunicationSchedule,
    counting_growth_report,
    over_exploration_schedule,
    parse_schedule,
)

S = CommunicationSchedule


def small_schedules():
    return st.sampled_from(
        [
            S.none(),
            S.full(),
            S.oneshot(5),
            S.oneshot(1),
            S.linear(1),
            S.linear(3),
            S.exponential(2.0),
            S.exponential(1.5),
            S.double_exponential(2.0, 1.0),
            S.double_exponential(1.5, 0.5),
            S.explicit([1]),
            S.explicit([2, 4, 16, 256]),
            S.explicit([3, 9]),
        ]
    )


class TestMembership:
    def test_examples(self):
        assert S.linear(5).is_comm_round(10)
        assert not S.linear(5).is_comm_round(11)
        assert not S.oneshot(256).is_comm_round(255)
        assert S.oneshot(256).is_comm_round(256)
        assert S.full().is_comm_round(1)
        assert S.full().is_comm_round(12345)
        assert not S.none().is_comm_round(7)
        assert S.explicit([3, 9]).is_comm_round(9)
        assert not S.explicit([3, 9]).is_comm_round(8)

    def test_rejects_nonpositive_round(self):
        with pytest.raises(ValueError):
            S.full().is_comm_round(0)

    @given(s=small_schedules(), horizon=st.integers(min_value=1, max_value=300))
    def test_mask_matches_membership(self, s, horizon):
        mask = s.comm_mask(0, horizon + 1)
        assert mask.shape == (horizon + 1,)
        assert not mask[0]
        for t in range(1, horizon + 1):
            assert mask[t] == s.is_comm_round(t)

    @given(s=small_schedules(), n=st.integers(min_value=1, max_value=300))
    def test_elements_match_membership(self, s, n):
        elems = s.elements_up_to(n)
        assert elems == sorted(set(elems))
        assert elems == [t for t in range(1, n + 1) if s.is_comm_round(t)]


def _exponential_per_index(q, n):
    """The exp grid generated one index k at a time."""
    out = []
    k = 1
    while True:
        v = math.floor(q**k + 0.5)
        if v > n:
            return out
        if not out or v > out[-1]:
            out.append(v)
        k += 1


def _reference_rounds(s, n):
    """The communication rounds in {1..n}, written out per kind."""
    if s.kind == "full":
        return list(range(1, n + 1))
    if s.kind == "linear":
        (d,) = s.params
        return [t for t in range(1, n + 1) if t % d == 0]
    if s.kind in ("oneshot", "explicit"):
        return [r for r in s.params if r <= n]
    if s.kind == "none":
        return []
    if s.kind == "exp":
        return _exponential_per_index(s.params[0], n)
    return _double_exponential_per_index(*s.params, n)


class TestAgainstReference:
    @given(s=small_schedules(), n=st.integers(min_value=1, max_value=300))
    def test_queries_match_reference_rounds(self, s, n):
        want = _reference_rounds(s, n)
        assert s.elements_up_to(n) == want
        assert s.counting_function(n) == len(want)
        members = set(want)
        assert s.comm_mask(0, n + 1).tolist() == [t in members for t in range(n + 1)]
        last = 0
        assert s.last_comm_leq(0) == 0
        for t in range(1, n + 1):
            last = t if t in members else last
            assert s.is_comm_round(t) == (t in members)
            assert s.last_comm_leq(t) == last

    def test_closed_kinds_answer_at_huge_n(self):
        # answered from a range or the params; a list of the rounds would not fit
        n = 10**18
        cases = [
            (S.full(), n, n, True),
            (S.linear(7), n // 7, n - n % 7, n % 7 == 0),
            (S.none(), 0, 0, False),
            (S.explicit([3, 9, n]), 3, n, True),
        ]
        for s, count, last, member in cases:
            assert s.counting_function(n) == count
            assert s.last_comm_leq(n) == last
            assert s.is_comm_round(n) == member


def _membership(s, start, stop):
    return [t > 0 and s.is_comm_round(t) for t in range(start, stop)]


class TestSpanMask:
    """comm_mask(start, stop) is the membership of rounds start..stop-1."""

    @given(
        s=small_schedules(),
        start=st.integers(min_value=0, max_value=300),
        length=st.integers(min_value=0, max_value=300),
    )
    def test_span_matches_membership(self, s, start, length):
        mask = s.comm_mask(start, start + length)
        assert mask.dtype == bool
        assert mask.tolist() == _membership(s, start, start + length)

    @pytest.mark.parametrize(
        "s",
        [
            S.full(),
            S.linear(3),
            S.oneshot(5),
            S.exponential(1.5),
            S.double_exponential(2.0, 1.0),
            S.explicit([2, 4, 16, 256]),
        ],
        ids=str,
    )
    def test_spans_straddling_grid_points(self, s):
        for p in s.elements_up_to(300):
            for start, stop in ((p - 1, p + 1), (p, p + 1), (p - 1, p), (p + 1, p + 4)):
                assert s.comm_mask(start, stop).tolist() == _membership(s, start, stop)

    @pytest.mark.parametrize(
        "s",
        [
            S.full(),
            S.linear(7),
            S.exponential(1.000001),
            S.double_exponential(2.0, 1.0),
            S.explicit([3, 2**40 + 5, 2**40 + 4000, 2**41]),
        ],
        ids=str,
    )
    def test_a_span_far_out_costs_the_span(self, s):
        # a grid is generated from near the start: exp:1.000001 has about
        # 2.8e7 points below 2**40
        start = 2**40
        t0 = time.perf_counter()
        mask = s.comm_mask(start, start + 4097)
        last = s.last_comm_leq(start)
        assert time.perf_counter() - t0 < 0.05
        assert mask.tolist() == _membership(s, start, start + 4097)
        assert last <= start and (last == 0 or s.is_comm_round(last))
        assert not s._rounds(start, last + 1)

    @pytest.mark.parametrize(
        "s", [S.exponential(1.0001), S.double_exponential(1.0001, 0.0001)], ids=str
    )
    def test_a_grid_from_a_start_is_the_grid_from_one(self, s):
        n = 2**30
        whole = s.elements_up_to(n)
        for start in (0, 1000, 2**20 + 7, 2**29 + 3, whole[-2], n - 5000, n):
            assert list(s._rounds(n, start)) == [r for r in whole if r >= start]
        assert s.last_comm_leq(n) == whole[-1]
        assert s.last_comm_leq(whole[-1] - 1) == whole[-2]

    def test_rejects_a_reversed_span(self):
        with pytest.raises(ValueError):
            S.full().comm_mask(5, 4)
        with pytest.raises(ValueError):
            S.full().comm_mask(-1, 4)


class TestLastCommRound:
    def test_examples(self):
        assert S.exponential(2.0).last_comm_leq(7) == 4
        assert S.explicit([3, 9]).last_comm_leq(100) == 9
        assert S.full().last_comm_leq(17) == 17
        assert S.linear(5).last_comm_leq(14) == 10
        assert S.oneshot(8).last_comm_leq(7) == 0
        assert S.oneshot(8).last_comm_leq(9) == 8

    def test_zero_when_nothing_happened(self):
        for s in (S.none(), S.full(), S.explicit([3]), S.linear(2)):
            assert s.last_comm_leq(0) == 0
        assert S.none().last_comm_leq(10**9) == 0

    @given(s=small_schedules(), t=st.integers(min_value=0, max_value=300))
    def test_properties(self, s, t):
        last = s.last_comm_leq(t)
        assert 0 <= last <= t
        if last > 0:
            assert s.is_comm_round(last)
        if t >= 1 and s.is_comm_round(t):
            assert last == t
        # nothing between last and t is a communication round
        assert all(not s.is_comm_round(u) for u in range(last + 1, t + 1))


class TestCountingFunction:
    def test_examples(self):
        assert S.linear(5).counting_function(12) == 2
        assert S.full().counting_function(100) == 100
        assert S.exponential(2.0).counting_function(8) == 3  # {2, 4, 8}
        assert S.none().counting_function(50) == 0

    def test_oneshot_indicator(self):
        s = S.oneshot(6)
        assert [s.counting_function(n) for n in range(1, 10)] == [
            0, 0, 0, 0, 0, 1, 1, 1, 1,
        ]

    @given(s=small_schedules(), n=st.integers(min_value=1, max_value=300))
    def test_counts_members(self, s, n):
        assert s.counting_function(n) == len(s.elements_up_to(n))

    @given(s=small_schedules())
    def test_nondecreasing_and_element_rank(self, s):
        counts = [s.counting_function(n) for n in range(1, 200)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        for rank, elem in enumerate(s.elements_up_to(199), start=1):
            assert s.counting_function(elem) == rank


def _double_exponential_per_index(q, eps, n):
    """The doubleexp grid generated one index k at a time, the reference for
    the generator, which skips the indices that add no point."""
    out = []
    k = 1
    log_n = math.log(n + 0.5)
    while True:
        e = (1.0 + eps) ** k
        if e * math.log(q) > log_n:
            break
        v = math.floor(q**e + 0.5)
        if v <= n and (not out or v > out[-1]):
            out.append(v)
        k += 1
    return out


def _per_index_steps(q, eps, n):
    """About how many indices the reference loop visits."""
    return max(0.0, math.log(math.log(n + 0.5) / math.log(q))) / math.log1p(eps)


class TestGridGeneration:
    def test_double_exponential_elements(self):
        s = S.double_exponential(2.0, 1.0)
        assert s.elements_up_to(10**6) == [4, 16, 256, 65536]

    def test_double_exponential_equals_per_index_loop(self):
        # q and eps each at the 1e-6 floor; pairs whose reference loop would
        # visit over 2e5 indices are left out (both floors at once take ~1e7)
        floor = 1.0 + 1e-6
        cases = [
            (q, eps, n)
            for q in (floor, 1.001, 1.5, 2.0, 10.0, 1000.0)
            for eps in (1e-6, 1e-3, 0.1, 1.0, 3.0)
            for n in (1, 2, 3, 10, 100, 1001, 4097, 2**16)
            if _per_index_steps(q, eps, n) <= 2e5
        ]
        assert any(q == floor for q, _, _ in cases)
        assert any(eps == 1e-6 and n > 1000 for _, eps, n in cases)
        for q, eps, n in cases:
            got = S.double_exponential(q, eps).elements_up_to(n)
            assert got == _double_exponential_per_index(q, eps, n), (q, eps, n)

    def test_exponential_rounds_and_dedupes(self):
        s = S.exponential(1.5)
        expected = []
        k = 1
        while True:
            v = math.floor(1.5**k + 0.5)
            if v > 40:
                break
            if not expected or v > expected[-1]:
                expected.append(v)
            k += 1
        assert s.elements_up_to(40) == expected
        assert expected[0] == 2  # 1.5 rounds up

    def test_exponential_equals_per_index_loop(self):
        # q at the 1e-6 floor included; the reference visits every index k
        for q, n in ((1.0 + 1e-6, 3), (1.001, 2**16), (2.0, 2**16)):
            expected = []
            k = 1
            while True:
                v = math.floor(q**k + 0.5)
                if v > n:
                    break
                if not expected or v > expected[-1]:
                    expected.append(v)
                k += 1
            assert S.exponential(q).elements_up_to(n) == expected, (q, n)

    def test_exponential_log_ratios_increase_to_one(self):
        elems = S.exponential(3.0).elements_up_to(3**12)
        ratios = [math.log(a) / math.log(b) for a, b in zip(elems, elems[1:])]
        for k, r in enumerate(ratios, start=1):
            np.testing.assert_allclose(r, k / (k + 1), rtol=1e-12)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestDensity:
    def test_grid_closed_forms(self):
        assert S.linear(7).density() == 1.0
        assert S.exponential(2.0).density() == 1.0
        assert S.double_exponential(2.0, 1.0).density() == 0.5
        for q, eps in ((1.5, 0.25), (3.0, 2.0), (2.0, 0.1)):
            assert S.double_exponential(q, eps).density() == 1.0 / (1.0 + eps)

    def test_conventions(self):
        assert S.full().density() == 1.0
        assert S.none().density() == 0.0

    def test_explicit_estimate(self):
        s = S.explicit([2, 4, 16, 256])
        assert abs(s.density() - 0.5) < 1e-12
        assert abs(s.density(burn_in=0) - 0.5) < 1e-12
        assert s.density_is_estimate
        assert not S.linear(3).density_is_estimate

    def test_explicit_burn_in_skips_head(self):
        # head pair has ratio ln2/ln100 ~ 0.15; the default burn-in (first
        # quartile) drops it
        s = S.explicit([2, 100, 10000, 1000000])
        assert s.density(burn_in=0) < 0.2
        assert s.density() > 0.4

    def test_errors(self):
        with pytest.raises(ValueError):
            S.oneshot(9).density()
        with pytest.raises(ValueError):
            S.explicit([5]).density()


class TestOverExploration:
    def test_examples(self):
        assert over_exploration_schedule(2**16, 2) == S.oneshot(256)
        assert over_exploration_schedule(1000, 1) == S.oneshot(1000)
        assert over_exploration_schedule(10, 3) == S.oneshot(3)

    @given(
        horizon=st.integers(min_value=1, max_value=10**12),
        players=st.integers(min_value=1, max_value=8),
    )
    def test_integer_ceiling_root(self, horizon, players):
        (r,) = over_exploration_schedule(horizon, players).params
        assert r**players >= horizon
        assert r == 1 or (r - 1) ** players < horizon


class TestCountingGrowth:
    def test_double_exponential_tail(self):
        report = counting_growth_report(S.double_exponential(2.0, 1.0), 10**6)
        n, count, threshold, ratio = report.rows[-1]
        assert n == 10**6
        assert count == 4
        np.testing.assert_allclose(threshold, math.log(math.log(1e6)) / math.log(2), rtol=1e-12)
        assert ratio >= 0.95

    def test_not_applicable_for_degenerate_density(self):
        with pytest.raises(ValueError):
            counting_growth_report(S.linear(5), 10**4)
        with pytest.raises(ValueError):
            counting_growth_report(S.none(), 10**4)

    def test_explicit_estimate_path(self):
        report = counting_growth_report(S.explicit([2, 4]), 16)
        assert report.alpha == pytest.approx(0.5)
        assert report.rows[0][0] >= 16

    def test_small_n_max_rejected(self):
        with pytest.raises(ValueError):
            counting_growth_report(S.double_exponential(2.0, 1.0), 8)


class TestGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("none", S.none()),
            ("full", S.full()),
            ("oneshot:256", S.oneshot(256)),
            ("linear:5", S.linear(5)),
            ("exp:2", S.exponential(2.0)),
            ("doubleexp:2,1", S.double_exponential(2.0, 1.0)),
            ("explicit:16,256,4096", S.explicit([16, 256, 4096])),
        ],
    )
    def test_parses(self, text, expected):
        assert parse_schedule(text) == expected

    @given(s=small_schedules())
    def test_round_trip(self, s):
        assert parse_schedule(s.spec_string()) == s

    @pytest.mark.parametrize(
        "text",
        [
            "oneshot:0",
            "oneshot:",
            "linear:0",
            "exp:1.0",
            "exp:abc",
            "doubleexp:2",
            "doubleexp:2,0",
            "explicit:",
            "explicit:4,4",
            "explicit:9,3",
            "gossip:5",
            "full:1",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_schedule(text)


class TestGridParameterFloor:
    """A grid whose points cannot be generated is rejected when it is built:
    non-finite parameters, and growth q - 1 or eps below 1e-6."""

    @pytest.mark.parametrize(
        "text",
        [
            "exp:inf",  # overflows when the grid is generated
            "exp:nan",
            "exp:1.0000001",
            "doubleexp:inf,1",  # never communicates, density 0.5
            "doubleexp:2,inf",  # never communicates, density 0
            "doubleexp:2,nan",
            "doubleexp:2,1e-300",  # 1 + eps == 1: generation never ends
            "doubleexp:2,1e-7",
            "doubleexp:1.0000001,1",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ValueError, match="finite and >="):
            parse_schedule(text)

    def test_constructors_reject(self):
        with pytest.raises(ValueError):
            S.exponential(math.inf)
        with pytest.raises(ValueError):
            S.double_exponential(2.0, -math.inf)
        with pytest.raises(ValueError):
            S.double_exponential(math.nan, 1.0)

    def test_floor_is_accepted(self):
        assert parse_schedule("exp:1.000001") == S.exponential(1.000001)
        assert S.double_exponential(2.0, 1e-6).density() == 1.0 / (1.0 + 1e-6)
        # round(q^(2^k)) for k >= 1, deduplicated
        assert S.double_exponential(1.000001, 1.0).elements_up_to(64) == [1, 2, 3, 8]


class TestIntegerParameters:
    """oneshot, linear and explicit take integers, numpy ones included; any
    other value is a TypeError naming the parameter, not truncated."""

    @pytest.mark.parametrize(
        "build, value, name",
        [
            (S.oneshot, 2.7, "oneshot round"),
            (S.oneshot, 3.0, "oneshot round"),
            (S.oneshot, True, "oneshot round"),
            (S.linear, 1.5, "linear grid step"),
            (S.linear, "4", "linear grid step"),
            (S.explicit, [1.5, 2.5], "explicit round"),
            (S.explicit, [1, 1.9], "explicit round"),
            (S.explicit, np.array([2.0, 5.0]), "explicit round"),
        ],
        ids=repr,
    )
    def test_a_non_integer_is_a_type_error_naming_it(self, build, value, name):
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got "):
            build(value)

    def test_numpy_integers_are_plain_ints(self):
        cases = [
            (S.oneshot(np.int64(17)), S.oneshot(17)),
            (S.linear(np.int32(7)), S.linear(7)),
            (S.explicit(np.array([3, 10, 50], dtype=np.uint16)), S.explicit([3, 10, 50])),
        ]
        for got, want in cases:
            assert got == want and hash(got) == hash(want)
            assert got.spec_string() == want.spec_string()
            assert all(type(p) is int for p in got.params)
