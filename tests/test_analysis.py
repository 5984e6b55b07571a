"""Tests for the bound-constant calculus and the comparison report."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from distbandit.analysis import (
    BOUND_DENSE,
    BOUND_ONESHOT,
    BOUND_SPARSE,
    BoundReport,
    bound_report,
    compare,
    format_comparison,
    lower_bound_coefficient,
    upper_bound_coefficient,
    upper_bound_curve,
    write_comparison_csv,
)
from distbandit.core import BernoulliArmModel, kl_bernoulli
from distbandit.engine import RunAggregate

# Frozen oracle values (high-precision closed forms computed independently).
LOWER_M2_A05 = 30.027995980327054  # (4/3) / K(0.8, 0.9)
DENSE_AT_2_16 = 249.76584901954882  # ln(65536) / K(0.8, 0.9)
SPARSE_M2_A05_AT_2_16 = 333.02113202606510  # (4/3) ln(65536) / K(0.8, 0.9)
RATIO_FULL_AT_2_16 = 2.0327134473867276  # 507.7024 / DENSE_AT_2_16


def aggregate_for(checkpoints, mean_counts):
    counts = np.asarray(mean_counts, dtype=np.float64)
    return RunAggregate(
        checkpoints=tuple(checkpoints),
        mean_counts=counts,
        stderr=np.zeros_like(counts),
        regret=np.zeros(len(checkpoints)),
        replications=1,
    )


class TestLowerBoundCoefficient:
    def test_full_density_is_single_player_constant(self):
        for pair in [(0.8, 0.9), (0.2, 0.7)]:
            assert lower_bound_coefficient(2, 1.0, *pair) == 1.0 / kl_bernoulli(*pair)

    def test_zero_density_scales_by_players(self):
        assert lower_bound_coefficient(5, 0.0, 0.8, 0.9) == 5.0 / kl_bernoulli(0.8, 0.9)

    def test_frozen_value(self):
        got = lower_bound_coefficient(2, 0.5, 0.8, 0.9)
        assert got == pytest.approx(LOWER_M2_A05, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lower_bound_coefficient(0, 0.5, 0.8, 0.9)
        with pytest.raises(ValueError):
            lower_bound_coefficient(2, 1.5, 0.8, 0.9)
        with pytest.raises(ValueError):
            lower_bound_coefficient(2, 0.5, 0.9, 0.8)
        with pytest.raises(ValueError):
            lower_bound_coefficient(2, 0.5, 0.8, 1.0)

    def test_monotone_in_players_an_ulp_below_full_density(self):
        # the float expression M / (1 + (M-1) alpha) gives 22.520996985245286
        # at M = 6 and 22.520996985245283 at M = 9 for this alpha
        alpha = 0.9999999999999999
        for coeff in (
            lower_bound_coefficient,
            lambda *args: upper_bound_coefficient(BOUND_SPARSE, *args),
        ):
            assert coeff(6, alpha, 0.8, 0.9) <= coeff(9, alpha, 0.8, 0.9)

    @given(
        m1=st.integers(1, 50),
        m2=st.integers(0, 50),
        a1=st.floats(0.0, 1.0),
        a2=st.floats(0.0, 1.0),
    )
    def test_monotone_in_players_and_density(self, m1, m2, a1, a2):
        lo_a, hi_a = sorted((a1, a2))
        coeff = lower_bound_coefficient
        assert coeff(m1, hi_a, 0.8, 0.9) <= coeff(m1, lo_a, 0.8, 0.9)
        assert coeff(m1, a1, 0.8, 0.9) <= coeff(m1 + m2, a1, 0.8, 0.9)
        assert 0.0 < coeff(m1, a1, 0.8, 0.9) < math.inf


class TestUpperBoundCurve:
    def test_ln_e_gives_coefficient(self):
        curve = upper_bound_curve(BOUND_DENSE, 1, 1.0, 0.8, 0.9, [math.e])
        assert float(curve[0]) == pytest.approx(1.0 / kl_bernoulli(0.8, 0.9), rel=1e-15)

    def test_frozen_values_at_horizon(self):
        dense = upper_bound_curve(BOUND_DENSE, 2, 0.5, 0.8, 0.9, [65536])
        sparse = upper_bound_curve(BOUND_SPARSE, 2, 0.5, 0.8, 0.9, [65536])
        assert float(dense[0]) == pytest.approx(DENSE_AT_2_16, rel=1e-14)
        assert float(sparse[0]) == pytest.approx(SPARSE_M2_A05_AT_2_16, rel=1e-14)

    def test_oneshot_and_dense_ignore_alpha(self):
        ts = [2, 16, 1024]
        for alpha in (0.0, 0.3, 1.0):
            a = upper_bound_curve(BOUND_ONESHOT, 4, alpha, 0.7, 0.8, ts)
            b = upper_bound_curve(BOUND_DENSE, 4, alpha, 0.7, 0.8, ts)
            c = upper_bound_curve(BOUND_DENSE, 1, 1.0, 0.7, 0.8, ts)
            assert np.array_equal(a, b)
            assert np.array_equal(b, c)

    def test_sparse_single_player_collapses_to_dense(self):
        ts = [16, 256, 65536]
        for alpha in (0.0, 0.25, 1.0):
            sparse = upper_bound_curve(BOUND_SPARSE, 1, alpha, 0.8, 0.9, ts)
            dense = upper_bound_curve(BOUND_DENSE, 1, alpha, 0.8, 0.9, ts)
            assert np.array_equal(sparse, dense)

    def test_sparse_full_density_collapses_to_dense(self):
        ts = [16, 256, 65536]
        for m in (2, 3, 7):
            sparse = upper_bound_curve(BOUND_SPARSE, m, 1.0, 0.8, 0.9, ts)
            dense = upper_bound_curve(BOUND_DENSE, m, 1.0, 0.8, 0.9, ts)
            assert np.array_equal(sparse, dense)

    def test_matches_lower_coefficient_for_sparse(self):
        lower = lower_bound_coefficient(3, 0.5, 0.8, 0.9)
        upper = upper_bound_coefficient(BOUND_SPARSE, 3, 0.5, 0.8, 0.9)
        assert lower == upper

    def test_unknown_kind_and_bad_checkpoints(self):
        with pytest.raises(ValueError):
            upper_bound_curve("loose", 2, 0.5, 0.8, 0.9, [16])
        with pytest.raises(ValueError):
            upper_bound_curve(BOUND_DENSE, 2, 0.5, 0.8, 0.9, [0, 16])

    @pytest.mark.parametrize(
        "t, error, message",
        [
            (True, TypeError, "checkpoints must be a real number, got True"),
            ("16", TypeError, "checkpoints must be a real number, got '16'"),
            (math.nan, ValueError, "checkpoints must be rounds >= 1"),
        ],
        ids=["bool", "text", "nan"],
    )
    def test_a_checkpoint_is_a_real_round(self, t, error, message):
        # True was read as round 1, and nan gave a nan curve
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            upper_bound_curve(BOUND_DENSE, 2, 0.5, 0.8, 0.9, [16, t])


class TestBoundReport:
    def test_collects_suboptimal_arms_only(self):
        model = BernoulliArmModel((0.9, 0.8, 0.9, 0.5))
        report = bound_report(model, BOUND_SPARSE, 2, 0.5, [16, 256])
        assert report.arms == (1, 3)
        assert report.checkpoints == (16, 256)
        assert len(report.curves) == 2
        assert report.lower_coefficients == report.upper_coefficients

    def test_no_suboptimal_arms(self):
        model = BernoulliArmModel((0.9, 0.9))
        report = bound_report(model, BOUND_DENSE, 2, 1.0, [16])
        assert report.arms == ()
        assert compare(aggregate_for([16], [[8.0, 8.0]]), report) == []

    @pytest.mark.parametrize(
        "kind, m, alpha, match",
        [
            ("bogus", 2, 0.5, "unknown bound kind"),
            (BOUND_DENSE, 0, 0.5, "player count"),
            (BOUND_SPARSE, 2, 7.0, "alpha"),
        ],
    )
    def test_arguments_are_checked_with_no_suboptimal_arm(self, kind, m, alpha, match):
        # the per-arm checks never run when every arm is optimal
        model = BernoulliArmModel((0.5, 0.5))
        with pytest.raises(ValueError, match=match):
            bound_report(model, kind, m, alpha, [1, 2])

    def test_a_non_integer_checkpoint_is_a_type_error(self):
        model = BernoulliArmModel((0.9, 0.5))
        with pytest.raises(TypeError, match=r"^checkpoints must be an integer, got 16\.7$"):
            bound_report(model, BOUND_DENSE, 2, 0.5, [16.7])
        report = bound_report(model, BOUND_DENSE, 2, 0.5, np.array([16, 256]))
        assert report.checkpoints == (16, 256)
        assert all(type(t) is int for t in report.checkpoints)

    def test_an_arm_model_is_required(self):
        with pytest.raises(
            TypeError, match=r"^arm_model must be of type BernoulliArmModel, got \(0\.9, 0\.5\)$"
        ):
            bound_report((0.9, 0.5), BOUND_SPARSE, 2, 0.5, [16])

    def test_a_numpy_player_count_does_not_overflow(self):
        # the exact scale multiplies M by alpha's 2**54 denominator, which
        # wraps around in int64
        want = lower_bound_coefficient(1000, 0.3, 0.5, 0.9)
        assert lower_bound_coefficient(np.int64(1000), 0.3, 0.5, 0.9) == want
        model = BernoulliArmModel((0.9, 0.5))
        report = bound_report(model, BOUND_SPARSE, np.int64(1000), 0.3, [16])
        assert report.lower_coefficients == (want,)
        assert type(report.m) is int and type(report.alpha) is float

    def test_degenerate_means_propagate_errors(self):
        model = BernoulliArmModel((1.0, 0.0))
        with pytest.raises(ValueError):
            bound_report(model, BOUND_DENSE, 2, 1.0, [16])


class TestCompare:
    def test_self_comparison_is_ratio_one(self):
        model = BernoulliArmModel((0.9, 0.8))
        ts = [16, 256, 65536]
        report = bound_report(model, BOUND_DENSE, 2, 1.0, ts)
        counts = np.zeros((3, 2))
        counts[:, 1] = report.curves[0]
        agg = aggregate_for(ts, counts)
        rows = compare(agg, report)
        assert [r.ratio for r in rows] == pytest.approx([1.0, 1.0, 1.0])
        assert not any(r.flagged for r in rows)

    def test_empty_checkpoints_gives_empty_table(self):
        model = BernoulliArmModel((0.9, 0.8))
        report = bound_report(model, BOUND_DENSE, 2, 1.0, [])
        agg = aggregate_for([], np.zeros((0, 2)))
        assert compare(agg, report) == []

    def test_checkpoint_mismatch_raises(self):
        model = BernoulliArmModel((0.9, 0.8))
        report = bound_report(model, BOUND_DENSE, 2, 1.0, [16, 256])
        agg = aggregate_for([16], [[1.0, 1.0]])
        with pytest.raises(ValueError):
            compare(agg, report)

    def test_reference_run_ratio_is_flagged_informational(self):
        model = BernoulliArmModel((0.9, 0.8))
        report = bound_report(model, BOUND_DENSE, 2, 1.0, [65536])
        agg = aggregate_for([65536], [[2 * 65536 - 507.7024, 507.7024]])
        rows = compare(agg, report)
        assert len(rows) == 1
        assert rows[0].ratio == pytest.approx(RATIO_FULL_AT_2_16, rel=1e-12)
        assert rows[0].flagged

    def test_ratio_at_round_one_is_infinite(self):
        model = BernoulliArmModel((0.9, 0.8))
        report = bound_report(model, BOUND_DENSE, 2, 1.0, [1, 16])
        agg = aggregate_for([1, 16], [[1.5, 0.5], [20.0, 12.0]])
        rows = compare(agg, report)
        assert rows[0].t == 1 and math.isinf(rows[0].ratio) and rows[0].flagged

    def test_threshold_controls_flagging(self):
        model = BernoulliArmModel((0.9, 0.8))
        report = bound_report(model, BOUND_DENSE, 2, 1.0, [65536])
        agg = aggregate_for([65536], [[0.0, 507.7024]])
        assert compare(agg, report, threshold=1.0)[0].flagged
        assert not compare(agg, report, threshold=3.0)[0].flagged

    @pytest.mark.parametrize(
        "name, value, error, message",
        [
            ("aggregate", None, TypeError, "aggregate must be of type RunAggregate, got None"),
            ("report", None, TypeError, "report must be of type BoundReport, got None"),
            # True was taken as 1, and nan flagged no row
            ("threshold", True, TypeError, "threshold must be a real number, got True"),
            ("threshold", math.nan, ValueError, "threshold must not be nan"),
        ],
        ids=["aggregate", "report", "bool-threshold", "nan-threshold"],
    )
    def test_arguments_are_checked(self, name, value, error, message):
        report = bound_report(BernoulliArmModel((0.9, 0.8)), BOUND_DENSE, 2, 1.0, [65536])
        args = {"aggregate": aggregate_for([65536], [[0.0, 507.7024]]), "report": report}
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            compare(**{**args, name: value})


class TestOutput:
    def test_csv_round_trip(self, tmp_path):
        model = BernoulliArmModel((0.9, 0.8))
        ts = [16, 256]
        report = bound_report(model, BOUND_SPARSE, 2, 0.5, ts)
        agg = aggregate_for(ts, [[10.0, 6.0], [200.0, 56.0]])
        rows = compare(agg, report)
        out = tmp_path / "bounds.csv"
        write_comparison_csv(out, rows)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,arm,empirical_mean,leading_term,ratio"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "16" and first[1] == "2"  # arm ids 1-based on disk
        assert float(first[4]) == pytest.approx(rows[0].ratio)

    def test_a_failing_row_leaves_no_file(self, tmp_path):
        model = BernoulliArmModel((0.9, 0.8))
        report = bound_report(model, BOUND_SPARSE, 2, 0.5, [16])
        rows = compare(aggregate_for([16], [[10.0, 6.0]]), report)
        with pytest.raises(AttributeError):
            write_comparison_csv(tmp_path / "bounds.csv", rows + [None])
        assert list(tmp_path.iterdir()) == []

    def test_format_mentions_leading_term_caveat(self):
        model = BernoulliArmModel((0.9, 0.8))
        report = bound_report(model, BOUND_DENSE, 2, 1.0, [65536])
        agg = aggregate_for([65536], [[0.0, 507.7024]])
        text = format_comparison(report, compare(agg, report))
        assert "leading term" in text
        assert "*" in text
