"""Acceptance gate: one test per acceptance criterion, at the stated tolerance.

Criteria 1-2 share a module-scoped Monte Carlo run of the bundled preset at
1000 replications (under a minute); everything else is fast. Run with -v to get
one pass/fail line per criterion.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from view_reads import read_views

from distbandit.analysis import (
    BOUND_DENSE,
    BOUND_SPARSE,
    bound_report,
    compare,
    format_comparison,
    lower_bound_coefficient,
    upper_bound_curve,
)
from distbandit.config import experiment_runs, figure1_preset
from distbandit.core import BernoulliArmModel, kl_bernoulli
from distbandit.engine import (
    RunAggregate,
    RunConfig,
    init_state,
    merge_views,
    run_monte_carlo,
    run_once,
    run_strategies,
    step,
)
from distbandit.policies import (
    DKLUCB,
    KLUCB,
    PolicySpec,
    UCB,
    klucb_index_batch,
    klucb_lower_batch,
)
from distbandit.schedule import CommunicationSchedule as CS
from distbandit.schedule import counting_growth_report

# golden endpoints for the bundled preset's five strategies
REFERENCE_AT_2_16 = {
    "none": 961.3695,
    "full": 507.7024,
    "A": 522.8128,
    "B": 585.3215,
    "C": 679.6066,
}


@pytest.fixture(scope="module")
def preset_results():
    """Means/stderrs of the suboptimal arm's global count for all five preset
    strategies at 1000 replications (shared by criteria 1 and 2)."""
    cfg = figure1_preset(replications=1000)
    runs = experiment_runs(cfg)
    aggs = run_strategies([run_cfg for _, run_cfg in runs])
    return cfg, {name: agg for (name, _), agg in zip(runs, aggs)}


@pytest.mark.slow
def test_criterion_1_figure1_replication(preset_results):
    cfg, results = preset_results
    at_16 = {name: float(agg.mean_counts[-1, 1]) for name, agg in results.items()}
    full, a, b, c, none = (at_16[k] for k in ("full", "A", "B", "C", "none"))
    # (a) strict ordering of the five curves at t = 2^16
    assert full < a < b < c < none, f"ordering violated: {at_16}"
    # (b) strategy A within 10% of full communication
    assert abs(a - full) <= 0.10 * full, f"A={a:.1f} vs full={full:.1f}"
    # (c) no communication at least 1.7x full communication
    assert none >= 1.7 * full, f"none={none:.1f} vs full={full:.1f}"
    # (d) each curve within 8% of its reference endpoint
    for name, want in REFERENCE_AT_2_16.items():
        got = at_16[name]
        assert abs(got - want) <= 0.08 * want, (
            f"{name}: {got:.1f} deviates more than 8% from {want}"
        )


@pytest.mark.slow
def test_criterion_2_paradox_signature(preset_results):
    cfg, results = preset_results
    full, c = results["full"], results["C"]
    checkpoints = cfg.runs[0][1].checkpoints
    # C tracks full within 2 stderr while C still communicates (t <= 2^12)...
    for j, t in enumerate(checkpoints):
        if t > 4096:
            continue
        diff = abs(float(c.mean_counts[j, 1] - full.mean_counts[j, 1]))
        band = 2.0 * math.hypot(float(c.stderr[j, 1]), float(full.stderr[j, 1]))
        assert diff <= band, f"t={t}: |C-full|={diff:.2f} > 2 stderr ({band:.2f})"
    # ...and exceeds it by at least 25% at t = 2^16
    c_end = float(c.mean_counts[-1, 1])
    full_end = float(full.mean_counts[-1, 1])
    assert c_end >= 1.25 * full_end, f"C={c_end:.1f} vs full={full_end:.1f}"


def test_criterion_3_boundary_mean_closed_forms():
    rng = np.random.default_rng(2024)
    f = rng.uniform(0.01, 10.0, size=1000)
    n = rng.integers(1, 10_000, size=1000).astype(np.float64)
    budget = f / n
    upper_at_zero = klucb_index_batch(np.zeros(1000), budget)
    lower_at_one = klucb_lower_batch(np.ones(1000), budget)
    assert np.max(np.abs(upper_at_zero - (1.0 - np.exp(-budget)))) < 1e-8
    assert np.max(np.abs(lower_at_one - np.exp(-budget))) < 1e-8


def test_criterion_4_trace_equivalence():
    schedules = [CS.none(), CS.full(), CS.explicit([16, 256, 4096]), CS.linear(7)]
    for schedule in schedules:
        runs = {}
        for rule, policy in (
            (DKLUCB, PolicySpec(DKLUCB, alpha=1.0)),
            (KLUCB, PolicySpec(KLUCB)),
        ):
            cfg = RunConfig(
                arm_model=BernoulliArmModel((0.9, 0.8)),
                players=2,
                horizon=4096,
                schedule=schedule,
                policy=policy,
                seed=5,
                checkpoints=(4096,),
            )
            runs[rule] = run_once(cfg, 0, record_actions=True)
        assert np.array_equal(runs[DKLUCB][1], runs[KLUCB][1]), str(schedule)
        assert np.array_equal(runs[DKLUCB][0], runs[KLUCB][0]), str(schedule)
    # single-player DKLUCB matches single-player KL-UCB regardless of alpha
    for schedule in (CS.none(), CS.full()):
        for alpha in (0.0, 0.5):
            base = dict(
                arm_model=BernoulliArmModel((0.9, 0.8)),
                players=1,
                horizon=4096,
                schedule=schedule,
                seed=6,
                checkpoints=(4096,),
            )
            d = run_once(
                RunConfig(policy=PolicySpec(DKLUCB, alpha=alpha), **base), 0, True
            )
            k = run_once(RunConfig(policy=PolicySpec(KLUCB), **base), 0, True)
            assert np.array_equal(d[0], k[0]) and np.array_equal(d[1], k[1])


def test_criterion_5_claim_invariants_over_100_runs():
    # 9 configurations x 12 replications = 108 seeded runs at T=4096; the
    # engine checks both claim inequalities at every (player, arm, round) and
    # raises InvariantViolation on the first breach.
    schedules = [CS.explicit([64, 1024]), CS.linear(512), CS.double_exponential(2.0, 1.0)]
    runs = 0
    for i, m in enumerate((2, 3, 5)):
        for j, alpha in enumerate((0.0, 0.5, 1.0)):
            cfg = RunConfig(
                arm_model=BernoulliArmModel((0.9, 0.8)),
                players=m,
                horizon=4096,
                schedule=schedules[(i + j) % len(schedules)],
                policy=PolicySpec(DKLUCB, alpha=alpha),
                seed=100 + 10 * i + j,
                checkpoints=(4096,),
                replications=12,
            )
            agg = run_monte_carlo(cfg)  # raises on any claim violation
            assert np.all(agg.mean_counts[-1] > 0)
            runs += cfg.replications
    assert runs >= 100


@settings(max_examples=30, deadline=None)
@given(
    schedule=st.sampled_from(
        [CS.none(), CS.full(), CS.linear(3), CS.exponential(2.0), CS.explicit([2, 7, 13])]
    ),
    policy=st.sampled_from(
        [PolicySpec(UCB), PolicySpec(KLUCB), PolicySpec(DKLUCB, alpha=0.5)]
    ),
    players=st.integers(1, 3),
    horizon=st.integers(1, 32),
    seed=st.integers(0, 2**31),
)
def test_criterion_6_conservation_and_merge_properties(
    schedule, policy, players, horizon, seed
):
    cfg = RunConfig(
        arm_model=BernoulliArmModel((0.9, 0.6)),
        players=players,
        horizon=horizon,
        schedule=schedule,
        policy=policy,
        seed=seed,
        checkpoints=(horizon,),
        replications=2,
    )
    state = init_state(cfg, range(2))
    for t in range(1, horizon + 1):
        step(state, cfg)
        # conservation: global per-arm counts always sum to M*t
        total_count = state.totals[0].T
        assert np.all(total_count.sum(axis=1) == players * t)
        if schedule.is_comm_round(t):
            # post-merge equality: every player's view is the global history
            known_count, known_sum, _ = read_views(state)
            expected = np.broadcast_to(total_count[:, None, :], known_count.shape)
            assert np.array_equal(known_count, expected)
            # idempotence: merging again changes nothing
            before = known_sum.copy()
            merge_views(state)
            assert np.array_equal(read_views(state)[1], before)


def test_criterion_7_density_golden_values():
    assert CS.linear(5).density() == 1.0
    assert CS.exponential(1.7).density() == 1.0
    assert CS.double_exponential(2.0, 1.0).density() == 0.5
    assert CS.double_exponential(3.0, 0.25).density() == 1.0 / 1.25
    assert CS.double_exponential(1.5, 3.0).density() == 0.25
    assert CS.explicit([2, 4, 16, 256]).density() == pytest.approx(0.5, abs=1e-12)


def test_criterion_8_bound_constants():
    # alpha = 1 collapses the multi-player lower constant to the single-player one
    for mu_a, mu_star in [(0.8, 0.9), (0.3, 0.7), (0.45, 0.5)]:
        assert lower_bound_coefficient(2, 1.0, mu_a, mu_star) == 1.0 / kl_bernoulli(
            mu_a, mu_star
        )
    # the sparse upper curve with M=1 is the dense curve at every checkpoint
    ts = [2, 16, 256, 4096, 65536]
    for alpha in (0.0, 0.5, 1.0):
        assert np.array_equal(
            upper_bound_curve(BOUND_SPARSE, 1, alpha, 0.8, 0.9, ts),
            upper_bound_curve(BOUND_DENSE, 1, alpha, 0.8, 0.9, ts),
        )
    # counting-function growth diagnostic for the density-1/2 grid
    report = counting_growth_report(CS.double_exponential(2.0, 1.0), 10**6)
    assert report.alpha == 0.5
    assert report.rows[-1][0] == 10**6
    assert report.rows[-1][3] >= 0.95


def test_criterion_9_asymptotics_stay_informational():
    # Theory enters only as coefficient * ln t leading terms: scaling t -> t^2
    # exactly doubles the curve (no finite-time constants are materialized)...
    ts = [16.0, 256.0, 65536.0]
    curve = upper_bound_curve(BOUND_DENSE, 2, 1.0, 0.8, 0.9, ts)
    squared = upper_bound_curve(BOUND_DENSE, 2, 1.0, 0.8, 0.9, [t * t for t in ts])
    assert np.allclose(squared, 2.0 * curve, rtol=1e-12)
    # ...and an empirical curve far above the leading term is flagged as
    # informational, never raised as a failure.
    model = BernoulliArmModel((0.9, 0.8))
    report = bound_report(model, BOUND_DENSE, 2, 1.0, [65536])
    agg = RunAggregate(
        checkpoints=(65536,),
        mean_counts=np.array([[2 * 65536 - 507.7, 507.7]]),
        stderr=np.zeros((1, 2)),
        regret=np.zeros(1),
        replications=1000,
    )
    rows = compare(agg, report)
    assert rows[0].flagged and rows[0].ratio > 1.5
    text = format_comparison(report, rows)
    assert "leading term" in text and "informational" in text
