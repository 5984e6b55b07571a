"""Tests for the simulation engine: RNG contract, trace equality against an
independent scalar reference implementation, conservation/merge invariants,
statistical sanity of the Monte Carlo aggregates, and config validation."""

import copy
import math
import pickle
import re
import time
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_sim import reference_run

from distbandit import experiment_runs, figure1_preset
from distbandit.core import BernoulliArmModel, ExplorationFunction
from distbandit.engine import (
    InvariantViolation,
    RunConfig,
    WorldState,
    _advance,
    _aggregate,
    _check_claims,
    _simulate,
    _stream_keys,
    _window_cap,
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
    UCB,
    PolicySpec,
    exploration_budget,
    select_batch,
)
from distbandit.schedule import CommunicationSchedule as CS


def make_cfg(
    means=(0.9, 0.8),
    players=2,
    horizon=40,
    schedule=None,
    policy=None,
    seed=7,
    checkpoints=(),
    replications=1,
):
    return RunConfig(
        arm_model=BernoulliArmModel(tuple(means)),
        players=players,
        horizon=horizon,
        schedule=schedule if schedule is not None else CS.full(),
        policy=policy if policy is not None else PolicySpec(KLUCB),
        seed=seed,
        checkpoints=checkpoints,
        replications=replications,
    )


def player_stream(seed, r, p):
    """The RNG contract's stream for player p of replication r."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, r, p))))


class TestRngContract:
    def test_single_draws_equal_chunked_draws(self):
        def gen():
            return np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 0, 1))))

        g = gen()
        singles = np.array([g.random() for _ in range(100)])
        whole = gen().random(100)
        g = gen()
        mixed = np.concatenate([g.random(7), g.random(93)])
        assert np.array_equal(singles, whole)
        assert np.array_equal(mixed, whole)

    def test_run_once_is_deterministic(self):
        cfg = make_cfg(schedule=CS.explicit([6, 20]), checkpoints=(5, 20, 40))
        a1, acts1 = run_once(cfg, 3, record_actions=True)
        a2, acts2 = run_once(cfg, 3, record_actions=True)
        assert np.array_equal(a1, a2) and np.array_equal(acts1, acts2)

    def test_replications_and_players_get_distinct_streams(self):
        cfg = make_cfg(schedule=CS.none(), players=2, horizon=30, checkpoints=(30,))
        _, acts_a = run_once(cfg, 0, record_actions=True)
        _, acts_b = run_once(cfg, 1, record_actions=True)
        assert not np.array_equal(acts_a, acts_b)

    def test_block_boundaries_do_not_change_the_trace(self, monkeypatch):
        cfg = make_cfg(horizon=150, schedule=CS.linear(7), checkpoints=(150,))
        counts, acts = run_once(cfg, 2, record_actions=True)
        monkeypatch.setattr("distbandit.engine._BLOCK_BYTES", 1)  # 64-round blocks
        counts_small, acts_small = run_once(cfg, 2, record_actions=True)
        assert np.array_equal(counts, counts_small)
        assert np.array_equal(acts, acts_small)

    def test_uniform_block_is_sized_to_the_rounds_left(self, monkeypatch):
        cfg = make_cfg(horizon=100, checkpoints=(100,), replications=2)
        state = init_state(cfg, range(2))
        step(state, cfg)
        assert state._block.shape == (100, cfg.players, 2)
        for r in range(2):
            for p in range(cfg.players):
                want = player_stream(cfg.seed, r, p).random(100)
                assert np.array_equal(state._block[:, p, r], want)
        # 64-round blocks: the third block holds only the 150 - 128 rounds left
        monkeypatch.setattr("distbandit.engine._BLOCK_BYTES", 1)
        cfg = make_cfg(horizon=150, checkpoints=(150,))
        state = init_state(cfg, [0])
        for _ in range(129):
            step(state, cfg)
        assert state._block.shape == (22, cfg.players, 1)
        want = player_stream(cfg.seed, 0, 1).random(150)[128:]
        assert np.array_equal(state._block[:, 1, 0], want)

    def test_block_boundary_inside_a_philox_buffer(self, monkeypatch):
        # 66-round blocks: the second block starts two words into a Philox
        # counter's four
        cfg = make_cfg(players=2, horizon=150, schedule=CS.linear(7), checkpoints=(150,))
        counts, acts = run_once(cfg, 0, record_actions=True)
        monkeypatch.setattr("distbandit.engine._BLOCK_BYTES", 16 * 66)
        counts_66, acts_66 = run_once(cfg, 0, record_actions=True)
        assert np.array_equal(counts, counts_66)
        assert np.array_equal(acts, acts_66)
        state = init_state(cfg, [0])
        for _ in range(67):
            step(state, cfg)
        assert state._block.shape == (66, 2, 1)
        for p in range(2):
            want = player_stream(cfg.seed, 0, p).random(cfg.horizon)[66:132]
            assert np.array_equal(state._block[:, p, 0], want)

    @pytest.mark.parametrize("tile_streams", [3, 6])
    def test_staging_tile_boundaries(self, monkeypatch, tile_streams):
        # 14 streams in tiles of 3 streams (a tile spans the two players) or
        # of 6 (three replications), the last tile short either way; 66-round
        # blocks refill at round 66, two words into a Philox counter's four,
        # and at round 132, on a counter boundary
        from distbandit import engine

        r_n, m = 7, 2
        cfg = make_cfg(
            players=m, horizon=150, schedule=CS.linear(7), checkpoints=(150,),
            replications=r_n,
        )
        counts, acts = _simulate([cfg], range(r_n), record_actions=True)
        monkeypatch.setattr(engine, "_BLOCK_BYTES", 8 * r_n * m * 66)
        monkeypatch.setattr(engine, "_TILE_BYTES", 8 * 66 * tile_streams)
        counts_tiled, acts_tiled = _simulate([cfg], range(r_n), record_actions=True)
        assert np.array_equal(counts, counts_tiled)
        assert np.array_equal(acts, acts_tiled)
        want = [[player_stream(cfg.seed, r, p).random(cfg.horizon) for p in range(m)]
                for r in range(r_n)]
        state = init_state(cfg, range(r_n))
        starts = []
        for _ in range(cfg.horizon):
            step(state, cfg)
            if state._pos == 1:
                start = state.t - 1
                starts.append(start)
                rounds = slice(start, start + len(state._block))
                for r in range(r_n):
                    for p in range(m):
                        assert np.array_equal(state._block[:, p, r], want[r][p][rounds])
        assert starts == [0, 66, 132]

    @pytest.mark.parametrize("horizon", [2**23, 2**40], ids=["2^23", "2^40"])
    def test_memory_is_flat_in_the_horizon(self, horizon):
        # the five figure1 strategies fused: the state holds no array as long
        # as the horizon, so a run of any horizon the config accepts starts
        runs = experiment_runs(figure1_preset(replications=1))
        cfg = replace(runs[0][1], horizon=horizon, checkpoints=())
        schedules = [c.schedule for _, c in runs]
        tracemalloc.start()
        try:
            start = time.perf_counter()
            state = init_state(cfg, [0], schedules=schedules)
            for _ in range(300):
                step(state, cfg)
            _advance(state, cfg, 300)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.t > 300
        assert peak < 5e6, f"{peak / 1e6:.1f} MB"
        assert elapsed < 1.0, f"{elapsed:.2f} s"

    def test_refills_reuse_the_first_block(self, monkeypatch):
        # 64-round blocks: the run draws 4 blocks, and a refill must not
        # allocate a second block while the first is alive
        from distbandit import engine

        monkeypatch.setattr(engine, "_BLOCK_BYTES", 1)
        cfg = make_cfg(players=4, horizon=200, policy=PolicySpec(UCB), checkpoints=(200,))
        reps = range(1000)
        block_bytes = 64 * cfg.players * len(reps) * 8
        tracemalloc.start()
        try:
            state = init_state(cfg, reps)
            state_bytes = tracemalloc.get_traced_memory()[0]
            del state
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _simulate([cfg], reps)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block_bytes + state_bytes
        blocks = []
        real = engine._next_uniforms

        def recording(state, rounds_left):
            u = real(state, rounds_left)
            if state._pos == 0:  # refilled: no round of the block is read yet
                blocks.append(state._block)
            return u

        monkeypatch.setattr(engine, "_next_uniforms", recording)
        _simulate([cfg], reps)
        assert [b.shape for b in blocks] == [(64, 4, 1000)] * 3 + [(8, 4, 1000)]
        assert blocks[0].nbytes == block_bytes
        assert all(np.shares_memory(b, blocks[0]) for b in blocks[1:])

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**200 + 3])
    @pytest.mark.parametrize("reps", [[0, 1], [5, 8], [5, 2**32 + 3, 8]])
    @pytest.mark.parametrize("m", [1, 3])
    def test_keys_equal_seed_sequence_state(self, seed, reps, m):
        # entropy of 3, 4 and more than 4 uint32 words, the pool size
        keys = _stream_keys(seed, reps, m)
        assert keys.shape == (len(reps), m, 2) and keys.dtype == np.uint64
        for i, r in enumerate(reps):
            for p in range(m):
                want = np.random.SeedSequence((seed, r, p)).generate_state(2, np.uint64)
                assert np.array_equal(keys[i, p], want)

    def test_streams_are_the_contract_streams(self):
        cfg = make_cfg(players=3)
        state = init_state(cfg, [5, 8])
        assert len(state.streams) == 6
        for i, (r, p) in enumerate((r, p) for r in (5, 8) for p in range(3)):
            want = player_stream(cfg.seed, r, p).random(10)
            assert np.array_equal(state.streams[i].random(10), want)
        # a slice is a list of streams
        for streams, want in (
            (state.streams[0:2], [(5, 0), (5, 1)]),
            (state.streams[::-5], [(8, 2), (5, 0)]),
            (state.streams[6:], []),
        ):
            assert isinstance(streams, list) and len(streams) == len(want)
            for stream, (r, p) in zip(streams, want):
                assert np.array_equal(stream.random(10), player_stream(cfg.seed, r, p).random(10))
        with pytest.raises(TypeError):
            state.streams[0] = player_stream(cfg.seed, 5, 0)

    @pytest.mark.parametrize(
        "policy",
        [
            PolicySpec(UCB, ExplorationFunction.ln2t()),
            PolicySpec(KLUCB),
            PolicySpec(DKLUCB, alpha=0.5),
        ],
        ids=["ucb-ln2t", "klucb", "dklucb"],
    )
    def test_run_once_matches_batched_slice(self, policy):
        cfg = make_cfg(
            schedule=CS.explicit([6, 20]),
            policy=policy,
            checkpoints=(5, 20, 40),
            replications=5,
        )
        state = init_state(cfg, range(5))
        batch = {t: None for t in cfg.checkpoints}
        batch_actions = []
        for t in range(1, cfg.horizon + 1):
            step(state, cfg)
            batch_actions.append(state.last_actions.copy())
            if t in batch:
                batch[t] = state.total_count.copy()
        batch_actions = np.stack(batch_actions)  # [T, R, M]
        for rep in range(5):
            counts, actions = run_once(cfg, rep, record_actions=True)
            for j, t in enumerate(cfg.checkpoints):
                assert np.array_equal(counts[j], batch[t][rep])
            assert np.array_equal(actions, batch_actions[:, rep])

    def test_monte_carlo_equals_averaged_run_once(self):
        cfg = make_cfg(schedule=CS.linear(5), checkpoints=(10, 40), replications=6)
        agg = run_monte_carlo(cfg)
        stacked = np.stack([run_once(cfg, r) for r in range(6)])  # [R, C, K]
        totals = stacked.sum(axis=0)
        assert np.array_equal(agg.mean_counts, totals / 6)
        mean = totals / 6
        sumsq = (stacked.astype(np.int64) ** 2).sum(axis=0)
        var = np.maximum(sumsq - 6 * mean * mean, 0.0) / 5
        assert np.allclose(agg.stderr, np.sqrt(var / 6), atol=1e-12, rtol=0)


ORACLE_CASES = [
    # (label, means, players, horizon, schedule, comm_rounds, rule, exploration, alpha)
    ("ucb-ln2t-full", (0.9, 0.8), 2, 48, CS.full(), set(range(1, 49)), UCB, "ln2t", 1.0),
    ("ucb-std-explicit", (0.7, 0.4), 3, 40, CS.explicit([5, 17]), {5, 17}, UCB, "standard", 1.0),
    ("klucb-linear", (0.9, 0.5, 0.2), 2, 40, CS.linear(4), set(range(4, 41, 4)), KLUCB, "standard", 1.0),
    ("dklucb-half", (0.8, 0.6), 2, 40, CS.explicit([4, 16]), {4, 16}, DKLUCB, "standard", 0.5),
    ("klucb-single-player", (0.9, 0.8), 1, 40, CS.none(), set(), KLUCB, "standard", 1.0),
    ("klucb-degenerate-means", (1.0, 0.0), 2, 32, CS.full(), set(range(1, 33)), KLUCB, "standard", 1.0),
    ("dklucb-alpha-zero", (0.9, 0.8), 3, 30, CS.explicit([6]), {6}, DKLUCB, "standard", 0.0),
    # long horizons, where the exploration budgets grow small and merges sparse
    ("long-ucb-std-exp", (0.9, 0.8), 2, 2000, CS.exponential(2.0),
     {2**k for k in range(1, 11)}, UCB, "standard", 1.0),
    ("long-ucb-ln2t-doubleexp", (0.9, 0.5, 0.2), 3, 2000, CS.double_exponential(2.0, 1.0),
     {4, 16, 256}, UCB, "ln2t", 1.0),
    ("long-klucb-exp", (0.9, 0.8, 0.5, 0.2), 3, 2000, CS.exponential(1.5),
     {math.floor(1.5**k + 0.5) for k in range(1, 19)}, KLUCB, "standard", 1.0),
    ("long-dklucb-half-doubleexp", (0.8, 0.6), 2, 2000, CS.double_exponential(2.0, 1.0),
     {4, 16, 256}, DKLUCB, "standard", 0.5),
    ("long-dklucb-quarter-linear", (0.9, 0.5, 0.2), 3, 2000, CS.linear(50),
     set(range(50, 2001, 50)), DKLUCB, "standard", 0.25),
    ("long-klucb-single-player", (0.9, 0.8), 1, 2000, CS.none(), set(), KLUCB, "standard", 1.0),
    ("long-dklucb-oneshot", (0.9, 0.8, 0.1, 0.0), 2, 2000, CS.oneshot(45), {45},
     DKLUCB, "standard", 1.0),
    ("long-klucb-degenerate-full", (1.0, 0.0, 1.0), 2, 2000, CS.full(),
     set(range(1, 2001)), KLUCB, "standard", 1.0),
]


def assert_trace_equals_reference(
    means, m, horizon, schedule, comm_rounds, rule, exploration, alpha, seed=13, replication=4
):
    if rule == DKLUCB:
        policy = PolicySpec(DKLUCB, alpha=alpha)
    elif exploration == "ln2t":
        policy = PolicySpec(rule, ExplorationFunction.ln2t())
    else:
        policy = PolicySpec(rule)
    cfg = make_cfg(
        means=means,
        players=m,
        horizon=horizon,
        schedule=schedule,
        policy=policy,
        seed=seed,
        checkpoints=(horizon,),
    )
    counts, actions = run_once(cfg, replication, record_actions=True)
    ref_actions, ref_totals = reference_run(
        list(means), m, horizon, comm_rounds, rule, seed, replication,
        exploration=exploration, alpha=alpha,
    )
    assert np.array_equal(actions, ref_actions)
    assert np.array_equal(counts[-1], ref_totals)


# drawn long-horizon cases: parametrized by schedule kind so that every kind
# is drawn, and derandomized so that the test cannot flake
DRAWN_SCHEDULES = {
    "none": st.just(CS.none()),
    "full": st.just(CS.full()),
    "oneshot": st.integers(1, 2000).map(CS.oneshot),
    "linear": st.integers(1, 300).map(CS.linear),
    "exp": st.sampled_from([1.2, 1.5, 2.0, 3.0]).map(CS.exponential),
    "doubleexp": st.sampled_from([(2.0, 1.0), (1.5, 0.5), (3.0, 2.0)]).map(
        lambda qe: CS.double_exponential(*qe)
    ),
    "explicit": st.lists(st.integers(1, 2000), min_size=1, max_size=6, unique=True).map(
        lambda rounds: CS.explicit(sorted(rounds))
    ),
}
# a small grid with 0 and 1 makes ties and certain arms common
DRAWN_MEANS = st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.8, 0.9, 1.0]), min_size=2, max_size=4)
DRAWN_POLICIES = [(UCB, "ln2t"), (UCB, "standard"), (KLUCB, "standard"), (DKLUCB, "standard")]


@pytest.mark.parametrize("kind", DRAWN_SCHEDULES)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_drawn_long_runs_equal_the_reference(kind, data):
    # the oracle's brentq and the engine's Newton index agree to about 1e-12,
    # so a near-tie could flip a choice without a bug; none does here
    schedule = data.draw(DRAWN_SCHEDULES[kind], label="schedule")
    rule, exploration = data.draw(st.sampled_from(DRAWN_POLICIES), label="policy")
    horizon = data.draw(st.integers(200, 2000), label="horizon")
    assert_trace_equals_reference(
        data.draw(DRAWN_MEANS, label="means"),
        data.draw(st.integers(1, 3), label="players"),
        horizon,
        schedule,
        set(schedule.elements_up_to(horizon)),
        rule,
        exploration,
        data.draw(st.floats(0.0, 1.0), label="alpha"),
        data.draw(st.integers(0, 2**32), label="seed"),
        data.draw(st.integers(0, 100), label="replication"),
    )


class TestAgainstReferenceImplementation:
    @pytest.mark.parametrize(
        "case", ORACLE_CASES, ids=[case[0] for case in ORACLE_CASES]
    )
    def test_trace_equality(self, case):
        assert_trace_equals_reference(*case[1:])

    @pytest.mark.parametrize(
        "schedule",
        [CS.explicit([63, 64, 65, 128, 129, 192]), CS.linear(64), CS.full()],
        ids=str,
    )
    @pytest.mark.parametrize(
        "rule, alpha", [(UCB, 1.0), (DKLUCB, 0.5)], ids=["ucb-standard", "dklucb-0.5"]
    )
    @pytest.mark.parametrize("cap", [1, 64], ids=["rounds", "windows"])
    def test_merges_on_block_edges(self, monkeypatch, schedule, rule, alpha, cap):
        # 64-round blocks: rounds 64, 128 and 192 end one, and the flags and
        # f of the rounds after them come from the next block's tables
        from distbandit import engine

        monkeypatch.setattr(engine, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(engine, "_WINDOW_ROUNDS", cap)
        windows, blocks = [], []
        real_window, real_fill = engine._select_window, engine._fill_budgets

        def window(*args):
            windows.append(1)
            return real_window(*args)

        def fill(state, cfg):
            blocks.append((state.t, len(state._block)))
            real_fill(state, cfg)

        monkeypatch.setattr(engine, "_select_window", window)
        monkeypatch.setattr(engine, "_fill_budgets", fill)
        horizon = 300
        assert_trace_equals_reference(
            (0.9, 0.8, 0.6), 2, horizon, schedule, set(schedule.elements_up_to(horizon)),
            rule, "standard", alpha,
        )
        assert blocks == [(0, 64), (64, 64), (128, 64), (192, 64), (256, 44)]
        assert bool(windows) == (cap > 1)

    def test_degenerate_means_pin_the_suboptimal_count(self):
        cfg = make_cfg(means=(1.0, 0.0), horizon=32, schedule=CS.full(), checkpoints=(32,))
        counts = run_once(cfg, 0)
        # each player tries arm 2 once in the forced phase and never again
        assert counts[-1, 1] == 2
        assert counts[-1, 0] == 2 * 32 - 2


SCHEDULE_POOL = [
    CS.none(),
    CS.full(),
    CS.linear(3),
    CS.exponential(2.0),
    CS.double_exponential(2.0, 1.0),
    CS.explicit([2, 5, 11]),
    CS.oneshot(6),
]

POLICY_POOL = [
    PolicySpec(UCB, ExplorationFunction.ln2t()),
    PolicySpec(UCB),
    PolicySpec(KLUCB),
    PolicySpec(DKLUCB, alpha=0.5),
]


class TestStateInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        schedule=st.sampled_from(SCHEDULE_POOL),
        policy=st.sampled_from(POLICY_POOL),
        players=st.integers(1, 3),
        k=st.integers(1, 3),
        horizon=st.integers(1, 40),
        seed=st.integers(0, 2**32),
    )
    def test_conservation_and_view_ordering(self, schedule, policy, players, k, horizon, seed):
        means = tuple(0.2 + 0.6 * i / max(k - 1, 1) for i in range(k))[::-1]
        cfg = make_cfg(
            means=means,
            players=players,
            horizon=horizon,
            schedule=schedule,
            policy=policy,
            seed=seed,
            checkpoints=(horizon,),
            replications=2,
        )
        state = init_state(cfg, range(2))
        last_merge = 0
        prev_known = state.known_count.copy()
        for t in range(1, horizon + 1):
            step(state, cfg)
            if schedule.is_comm_round(t):
                last_merge = t
            assert np.all(state.total_count.sum(axis=1) == players * t)
            expected_known = t + (players - 1) * last_merge
            assert np.all(state.known_count.sum(axis=2) == expected_known)
            assert np.all(state.known_count <= state.total_count[:, None, :])
            assert np.all(state.snapshot_count <= state.known_count)
            assert np.all(state.known_sum <= state.known_count)
            assert np.all(state.total_sum <= state.total_count)
            assert np.all(state.known_count >= prev_known)
            if schedule.is_comm_round(t):
                assert np.array_equal(
                    state.known_count, np.broadcast_to(state.total_count[:, None, :], state.known_count.shape)
                )
                assert np.array_equal(state.snapshot_count, state.known_count)
                assert np.array_equal(
                    state.known_sum, np.broadcast_to(state.total_sum[:, None, :], state.known_sum.shape)
                )
            prev_known = state.known_count.copy()

    @pytest.mark.parametrize(
        "schedule", [CS.none(), CS.full(), CS.linear(5)], ids=["none", "full", "linear5"]
    )
    def test_update_with_colliding_players(self, schedule):
        # M = K = 3: every player pulls the same arm in rounds 1-3, and players
        # of one replication keep colliding later; rewards are redrawn here
        # from the per-(seed, replication, player) streams
        m, k, r_n = 3, 3, 4
        cfg = make_cfg(
            means=(0.7, 0.5, 0.3), players=m, horizon=30, schedule=schedule,
            checkpoints=(30,), replications=r_n,
        )
        state = init_state(cfg, range(r_n))
        streams = [[player_stream(cfg.seed, r, p) for p in range(m)] for r in range(r_n)]
        pulls = np.zeros((r_n, m, k), dtype=np.int64)  # own pulls and wins since the last merge
        wins = np.zeros((r_n, m, k), dtype=np.int64)
        merged_sum = np.zeros((r_n, k), dtype=np.int64)
        all_actions = []
        collided = False
        for t in range(1, cfg.horizon + 1):
            step(state, cfg)
            all_actions.append(state.last_actions.copy())
            acts = np.stack(all_actions)  # [t, R, M]
            for r in range(r_n):
                want = np.bincount(acts[:, r].ravel(), minlength=k)
                assert np.array_equal(state.total_count[r], want)
                collided |= t > k and len(set(state.last_actions[r])) < m
                for p in range(m):
                    a = state.last_actions[r, p]
                    pulls[r, p, a] += 1
                    wins[r, p, a] += streams[r][p].random() < cfg.arm_model.means[a]
            assert np.array_equal(state.total_sum, merged_sum + wins.sum(axis=1))
            if schedule.is_comm_round(t):
                merged_sum = state.total_sum.copy()
                pulls[:] = 0
                wins[:] = 0
                assert np.array_equal(state.known_count, np.repeat(state.total_count[:, None], m, 1))
                assert np.array_equal(state.known_sum, np.repeat(state.total_sum[:, None], m, 1))
            else:
                assert np.array_equal(state.known_count, state.snapshot_count + pulls)
                assert np.array_equal(state.known_sum, merged_sum[:, None] + wins)
            assert np.array_equal(state.snapshot_count, state.known_count - pulls)
        assert collided

    def test_merge_is_idempotent(self):
        cfg = make_cfg(schedule=CS.none(), horizon=20, checkpoints=(20,))
        state = init_state(cfg, range(3))
        for _ in range(20):
            step(state, cfg)
        merge_views(state)
        once = (state.known_count.copy(), state.known_sum.copy(), state.snapshot_count.copy())
        merge_views(state)
        assert np.array_equal(state.known_count, once[0])
        assert np.array_equal(state.known_sum, once[1])
        assert np.array_equal(state.snapshot_count, once[2])

    def test_merge_equalizes_views(self):
        cfg = make_cfg(schedule=CS.none(), players=3, horizon=15, checkpoints=(15,))
        state = init_state(cfg, [0])
        for _ in range(15):
            step(state, cfg)
        assert np.any(state.known_count[0, 0] != state.known_count[0, 1])
        merge_views(state)
        for p in range(3):
            assert np.array_equal(state.known_count[0, p], state.total_count[0])
            assert np.array_equal(state.known_sum[0, p], state.total_sum[0])

    def test_no_communication_keeps_views_private(self):
        cfg = make_cfg(schedule=CS.none(), players=2, horizon=25, checkpoints=(25,))
        state = init_state(cfg, [0])
        for _ in range(25):
            step(state, cfg)
        assert np.all(state.snapshot_count == 0)
        assert np.all(state.known_count.sum(axis=2) == 25)
        assert state.total_count.sum() == 50

    @pytest.mark.parametrize(
        "copier",
        [copy.deepcopy, lambda state: pickle.loads(pickle.dumps(state))],
        ids=["deepcopy", "pickle"],
    )
    @pytest.mark.parametrize("schedule", [CS.none(), CS.full()], ids=["none", "full"])
    def test_a_copied_state_continues_the_trajectory(self, copier, schedule):
        cfg = make_cfg(
            means=(0.9, 0.8, 0.7), players=2, horizon=200, schedule=schedule,
            policy=PolicySpec(UCB), checkpoints=(200,), replications=4,
        )
        state = init_state(cfg, range(4))
        for _ in range(20):
            step(state, cfg)
        # copied after a window of two or more rounds
        while _advance(state, cfg, 16) < 2:
            pass
        # copied inside a uniform block, and on full while the views are stale
        assert 0 < state._pos < len(state._block)
        assert state._stale == (schedule == CS.full())
        twin = copier(state)
        traces = []
        for run in (state, twin):
            trace = []
            while run.t < cfg.horizon:
                step(run, cfg)
                trace.append(run.last_actions.copy())
            traces.append(np.stack(trace))
        assert np.array_equal(traces[0], traces[1])
        assert np.array_equal(twin.total_count, state.total_count)
        assert np.array_equal(twin.total_sum, state.total_sum)

    @pytest.mark.parametrize("schedule", [CS.none(), CS.full()], ids=["none", "full"])
    @pytest.mark.parametrize("replications", [50, 4], ids=["round", "window"])
    def test_no_two_arrays_of_the_state_share_memory(self, replications, schedule):
        # an array of the state viewing another would be split apart by a
        # copy, and would go stale when the state replaces the one it views
        cfg = make_cfg(
            means=(0.9, 0.8, 0.7), players=2, horizon=200, schedule=schedule,
            policy=PolicySpec(UCB), checkpoints=(200,), replications=replications,
        )
        state = init_state(cfg, range(replications))
        arms = state.arms
        windowed = _window_cap(state) > 1
        assert windowed == (replications == 4)
        for _ in range(20):
            step(state, cfg)
        if windowed:
            while _advance(state, cfg, 16) < 2:
                pass
        held = {
            f.name: getattr(state, f.name)
            for f in fields(state)
            if isinstance(getattr(state, f.name), np.ndarray)
        }
        assert {"views", "snapshot", "totals", "arms", "_block", "_f", "_comm"} <= set(held)
        for i, (name, a) in enumerate(held.items()):
            for other, b in list(held.items())[i + 1 :]:
                assert not np.shares_memory(a, b), (name, other)
        # rounds write their arms into the state's array, so last_actions
        # stays a view of it
        assert state.arms is arms

    def test_a_merge_between_steps_reaches_the_next_selection(self):
        # merge_views called between steps leaves players 1.. stale; the next
        # selection must see the merged views, as it does once they are read
        cfg = make_cfg(
            means=(0.9, 0.8, 0.7), players=3, horizon=240, schedule=CS.none(),
            policy=PolicySpec(KLUCB), checkpoints=(240,), replications=4,
        )
        merged, read = init_state(cfg, range(4)), init_state(cfg, range(4))
        for t in range(1, cfg.horizon + 1):
            if t % 20 == 0:
                merge_views(merged)
                merge_views(read)
                read.known_count  # reading a view copies the merged one to every player
            step(merged, cfg)
            step(read, cfg)
            assert np.array_equal(merged.last_actions, read.last_actions)

    def test_step_past_horizon_raises(self):
        cfg = make_cfg(horizon=3, checkpoints=(3,))
        state = init_state(cfg, [0])
        for _ in range(3):
            step(state, cfg)
        with pytest.raises(ValueError):
            step(state, cfg)

    def test_no_replications_is_rejected(self):
        cfg = make_cfg()
        with pytest.raises(ValueError, match=r"replication indices, got \[\]"):
            init_state(cfg, [])

    def test_a_negative_replication_is_rejected(self):
        cfg = make_cfg()
        with pytest.raises(ValueError, match=r"replication indices, got \[0, -1\]"):
            init_state(cfg, [0, -1])
        with pytest.raises(ValueError, match=r"replication indices, got \[-1\]"):
            run_once(cfg, -1)

    def test_no_schedules_is_rejected(self):
        with pytest.raises(ValueError, match=r"empty schedules list"):
            init_state(make_cfg(), [0], schedules=[])


def shared_cfg(schedule, policy):
    return make_cfg(
        means=(0.9, 0.8, 0.7), players=3, horizon=40, schedule=schedule,
        policy=policy, checkpoints=(40,), replications=4,
    )


SHARED_POLICIES = [PolicySpec(UCB), PolicySpec(DKLUCB, alpha=0.5)]


class TestSharedRounds:
    """While a whole-batch merge has left the views stale, step selects once
    per slot on player 0's view; the arms are those of every player's view."""

    def run(self, monkeypatch, cfg, between=lambda state: None):
        """Run cfg's batch; return {round: the player width select_batch ran
        on}, the state and the action trace. between(state) runs after every
        step."""
        widths = {}
        state = init_state(cfg, range(cfg.replications))

        def recording(spec, m, f, known_count, *args, **kwargs):
            widths[state.t + 1] = known_count.shape[1]
            return select_batch(spec, m, f, known_count, *args, **kwargs)

        monkeypatch.setattr("distbandit.engine.select_batch", recording)
        trace = []
        while state.t < cfg.horizon:
            step(state, cfg)
            trace.append(state.last_actions.copy())
            between(state)
        return widths, state, np.stack(trace)

    @pytest.mark.parametrize("policy", SHARED_POLICIES, ids=["ucb", "dklucb"])
    def test_full_selects_once_per_slot(self, monkeypatch, policy):
        cfg = shared_cfg(CS.full(), policy)
        widths, _, _ = self.run(monkeypatch, cfg)
        k = cfg.arm_model.k
        assert widths == {t: 1 for t in range(k + 1, cfg.horizon + 1)}

    @pytest.mark.parametrize("policy", SHARED_POLICIES, ids=["ucb", "dklucb"])
    def test_doubleexp_selects_once_per_slot_after_its_merges(self, monkeypatch, policy):
        # doubleexp:2,1 communicates at rounds 4 and 16 of the first 40
        cfg = shared_cfg(CS.double_exponential(2.0, 1.0), policy)
        widths, _, _ = self.run(monkeypatch, cfg)
        k, m = cfg.arm_model.k, cfg.players
        expected = {t: 1 if t in (5, 17) else m for t in range(k + 1, cfg.horizon + 1)}
        assert widths == expected

    @pytest.mark.parametrize("policy", SHARED_POLICIES, ids=["ucb", "dklucb"])
    def test_a_merge_between_steps_selects_once_per_slot(self, monkeypatch, policy):
        cfg = shared_cfg(CS.none(), policy)

        def merge_at_20(state):
            if state.t == 20:
                merge_views(state)

        def merge_and_read_at_20(state):
            if state.t == 20:
                merge_views(state)
                state.known_count  # copies the merged view to every player

        widths, merged, merged_trace = self.run(monkeypatch, cfg, merge_at_20)
        assert widths[21] == 1
        assert all(w == cfg.players for t, w in widths.items() if t != 21)
        widths, read, read_trace = self.run(monkeypatch, cfg, merge_and_read_at_20)
        assert widths[21] == cfg.players
        assert np.array_equal(merged_trace, read_trace)
        assert np.array_equal(merged.total_count, read.total_count)
        assert np.array_equal(merged.total_sum, read.total_sum)

    @pytest.mark.parametrize("policy", SHARED_POLICIES, ids=["ucb", "dklucb"])
    @pytest.mark.parametrize(
        "schedule", [CS.full(), CS.double_exponential(2.0, 1.0)], ids=["full", "doubleexp"]
    )
    def test_reading_the_views_never_changes_the_trajectory(
        self, monkeypatch, schedule, policy
    ):
        cfg = shared_cfg(schedule, policy)

        def read(state):
            state.known_count
            state.known_sum

        _, unread, unread_trace = self.run(monkeypatch, cfg)
        widths, read_state, read_trace = self.run(monkeypatch, cfg, read)
        # every read copies the stale views, so every round selects per player
        assert set(widths.values()) == {cfg.players}
        assert np.array_equal(unread_trace, read_trace)
        assert np.array_equal(unread.total_count, read_state.total_count)
        assert np.array_equal(unread.total_sum, read_state.total_sum)


class TestSelectionConsistency:
    @pytest.mark.parametrize(
        "policy, players, means",
        [
            (PolicySpec(UCB, ExplorationFunction.ln2t()), 2, (0.9, 0.8)),
            (PolicySpec(KLUCB), 2, (0.9, 0.8)),
            (PolicySpec(DKLUCB, alpha=0.5), 2, (0.9, 0.8)),
            # three players: views diverge between merges, more than two a slot
            (PolicySpec(DKLUCB, alpha=0.5), 3, (0.7, 0.5, 0.45)),
        ],
        ids=["ucb-ln2t", "klucb", "dklucb", "dklucb-m3"],
    )
    def test_batch_selection_matches_scalar_select_arm(self, policy, players, means):
        # each player's arm is select_batch on its own view alone, with the
        # budget at the view's own sample total
        cfg = make_cfg(
            means=means,
            players=players,
            schedule=CS.explicit([4, 11]),
            policy=policy,
            horizon=32,
            checkpoints=(32,),
            replications=2,
        )
        state = init_state(cfg, range(2))
        k = cfg.arm_model.k
        for t in range(1, cfg.horizon + 1):
            expected = np.full((2, players), t - 1, dtype=np.int64)
            if t > k:
                for r, p in np.ndindex(expected.shape):
                    counts = state.known_count[r, p].copy()
                    sums = state.known_sum[r, p].copy()
                    snaps = state.snapshot_count[r, p].copy()
                    f = exploration_budget(policy, players, t, int(counts.sum()))
                    arm, _ = select_batch(policy, players, f, counts, sums, snaps)
                    expected[r, p] = arm
            step(state, cfg)
            assert np.array_equal(state.last_actions, expected)

    def test_dklucb_alpha_one_trace_equals_klucb(self):
        for schedule in (CS.none(), CS.full(), CS.explicit([8, 32])):
            cfg_d = make_cfg(
                schedule=schedule, policy=PolicySpec(DKLUCB, alpha=1.0),
                horizon=64, checkpoints=(64,),
            )
            cfg_k = make_cfg(
                schedule=schedule, policy=PolicySpec(KLUCB),
                horizon=64, checkpoints=(64,),
            )
            counts_d, acts_d = run_once(cfg_d, 1, record_actions=True)
            counts_k, acts_k = run_once(cfg_k, 1, record_actions=True)
            assert np.array_equal(acts_d, acts_k)
            assert np.array_equal(counts_d, counts_k)


def check_round(state, n_prime, cfg):
    """_check_claims on the [S*R, M, K] predictions n_prime for round
    state.t + 1, passed as its one row with the counts selection reads (while
    the views are stale, player 0's stand for every player's) and the global
    counts."""
    counts = state.views[0, :, :1] if state._stale else state.views[0]
    rounds = np.full((1, len(n_prime)), state.t + 1)
    totals = state.totals[0][:, None]
    _check_claims(state, n_prime.T[:, None], cfg, counts[:, None], totals, rounds)


class TestClaims:
    @pytest.mark.parametrize("players", [2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_runs_stay_clean(self, players, alpha):
        cfg = make_cfg(
            players=players,
            schedule=CS.explicit([7, 25]),
            policy=PolicySpec(DKLUCB, alpha=alpha),
            horizon=48,
            checkpoints=(48,),
            replications=3,
        )
        run_monte_carlo(cfg)  # raises InvariantViolation on any claim breach

    def test_claims_verified_externally(self):
        m, alpha = 3, 0.5
        cfg = make_cfg(
            players=m,
            schedule=CS.explicit([7, 25]),
            policy=PolicySpec(DKLUCB, alpha=alpha),
            horizon=48,
            checkpoints=(48,),
        )
        state = init_state(cfg, [0])
        scale = m / (1.0 + (m - 1) * alpha)
        for t in range(1, cfg.horizon + 1):
            step(state, cfg)
            predictions = np.zeros((m, cfg.arm_model.k))
            for p in range(m):
                for a in range(cfg.arm_model.k):
                    c = int(state.known_count[0, p, a])
                    snap = int(state.snapshot_count[0, p, a])
                    cap = np.inf if alpha == 0.0 else snap / m * (1.0 / alpha - 1.0)
                    predictions[p, a] = c + (m - 1) * min(c - snap, cap)
                    assert predictions[p, a] <= scale * c + 1e-9
            assert np.all(
                predictions.sum(axis=0) <= m * state.total_count[0] + 1e-9
            )

    def test_claim_check_leaves_the_shared_views_stale(self, monkeypatch):
        # on full every round after the first merge selects on player 0 alone;
        # checking the claims must not copy its view to the other players
        copies = []
        sync = WorldState._sync_views

        def counting_sync(state):
            copies.append(state._stale)
            sync(state)

        monkeypatch.setattr(WorldState, "_sync_views", counting_sync)
        cfg = RunConfig(
            arm_model=BernoulliArmModel(tuple(np.linspace(0.9, 0.45, 10))),
            players=4,
            horizon=512,
            schedule=CS.full(),
            policy=PolicySpec(DKLUCB, alpha=0.5),
            seed=0,
            checkpoints=(512,),
            replications=4,
        )
        _simulate([cfg], range(cfg.replications))
        assert copies.count(True) == 0

    def test_claim_breach_after_a_whole_batch_merge_names_the_player(self):
        cfg = make_cfg(
            players=2, policy=PolicySpec(DKLUCB, alpha=0.5),
            horizon=10, checkpoints=(10,),
        )
        state = init_state(cfg, [4, 9])
        for _ in range(6):
            step(state, cfg)
        assert state._stale
        doctored = np.zeros((2, 2, 2))
        doctored[1, 1, 0] = 1e9
        with pytest.raises(InvariantViolation) as err:
            check_round(state, doctored, cfg)
        bound = 2 / 1.5 * state.known_count[1, 1, 0]
        assert str(err.value) == (
            "count prediction exceeded its per-player bound at round 7: "
            f"replication 9, player 1, arm 0, N' = 1000000000.0 > {bound}"
        )
        # copies keep the message, strategy and order, which is keyword-only
        for twin in (copy.deepcopy(err.value), pickle.loads(pickle.dumps(err.value))):
            assert type(twin) is InvariantViolation and str(twin) == str(err.value)
            assert (twin.strategy, twin.order) == (err.value.strategy, err.value.order)
            assert twin.order is not None

    def test_claim_checker_rejects_doctored_predictions(self):
        cfg = make_cfg(
            players=2, policy=PolicySpec(DKLUCB, alpha=0.5),
            horizon=10, checkpoints=(10,),
        )
        state = init_state(cfg, [4, 9])
        for _ in range(6):
            step(state, cfg)
        inflated = state.known_count * 10.0
        with pytest.raises(InvariantViolation, match="per-player bound"):
            check_round(state, inflated, cfg)
        # the report names the first breach: replication, player, arm, round,
        # the prediction N' and the bound it broke
        doctored = state.known_count.astype(float)
        doctored[1, 1, 0] *= 10.0
        n, bound = doctored[1, 1, 0], 2 / 1.5 * state.known_count[1, 1, 0]
        with pytest.raises(InvariantViolation) as err:
            check_round(state, doctored, cfg)
        assert str(err.value) == (
            "count prediction exceeded its per-player bound at round 7: "
            f"replication 9, player 1, arm 0, N' = {n} > {bound}"
        )
        state.total_count[:] = 0
        with pytest.raises(InvariantViolation, match="global count"):
            check_round(state, state.known_count.astype(float), cfg)
        state.total_count[:] = state.known_count.sum(axis=1)
        state.total_count[1, 1] = 0
        summed = float(state.known_count[1, :, 1].sum())
        with pytest.raises(InvariantViolation) as err:
            check_round(state, state.known_count.astype(float), cfg)
        assert str(err.value) == (
            "summed count predictions exceeded M times the global count at round 7: "
            f"replication 9, arm 1, sum of N' = {summed} > 0"
        )


FUSED_SCHEDULES = (
    CS.none(),
    CS.full(),
    CS.explicit([3, 17]),
    CS.linear(5),
    CS.double_exponential(2.0, 1.0),
)


class TestFusedStrategies:
    """Configs that differ only in their schedule run as one strategy-major
    batch on shared streams; each strategy's trajectory must be the one it
    has alone."""

    @pytest.mark.parametrize(
        "policy",
        [
            PolicySpec(UCB, ExplorationFunction.ln2t()),
            PolicySpec(UCB, ExplorationFunction.standard()),
            PolicySpec(KLUCB),
            PolicySpec(DKLUCB, alpha=0.5),
        ],
        ids=["ucb-ln2t", "ucb-standard", "klucb", "dklucb"],
    )
    def test_each_strategy_equals_its_solo_run(self, policy):
        r_n = 3
        cfgs = [
            make_cfg(
                schedule=schedule,
                policy=policy,
                horizon=60,
                checkpoints=(2, 17, 40, 60),
                replications=r_n,
            )
            for schedule in FUSED_SCHEDULES
        ]
        fused = run_strategies(cfgs)
        counts, actions = _simulate(cfgs, range(r_n), record_actions=True)
        assert counts.shape == (4, len(cfgs) * r_n, 2)
        for s, cfg in enumerate(cfgs):
            solo = run_monte_carlo(cfg)
            assert np.array_equal(fused[s].mean_counts, solo.mean_counts)
            assert np.array_equal(fused[s].stderr, solo.stderr)
            assert np.array_equal(fused[s].regret, solo.regret)
            for r in range(r_n):
                solo_counts, solo_actions = run_once(cfg, r, record_actions=True)
                assert np.array_equal(counts[:, s * r_n + r], solo_counts)
                assert np.array_equal(actions[:, s * r_n + r], solo_actions)

    def test_configs_differing_beyond_the_schedule_run_apart_in_input_order(
        self, monkeypatch
    ):
        from distbandit import engine

        cfgs = [
            make_cfg(schedule=CS.full(), policy=PolicySpec(DKLUCB, alpha=0.5), replications=2),
            make_cfg(schedule=CS.none(), policy=PolicySpec(UCB), replications=2),
            make_cfg(schedule=CS.linear(5), policy=PolicySpec(DKLUCB, alpha=0.25), replications=2),
            make_cfg(schedule=CS.none(), policy=PolicySpec(DKLUCB, alpha=0.5), replications=2),
        ]
        batches = []
        real = engine._simulate

        def recording(batch, replication_indices, record_actions=False):
            batches.append([cfgs.index(c) for c in batch])
            return real(batch, replication_indices, record_actions)

        monkeypatch.setattr(engine, "_simulate", recording)
        aggregates = run_strategies(cfgs)
        assert batches == [[0, 3], [1], [2]]
        monkeypatch.undo()
        for cfg, agg in zip(cfgs, aggregates):
            solo = run_monte_carlo(cfg)
            assert np.array_equal(agg.mean_counts, solo.mean_counts)
            assert np.array_equal(agg.stderr, solo.stderr)
        assert run_strategies([]) == []

    def test_uniforms_are_drawn_once_for_all_strategies(self):
        cfg = make_cfg(horizon=30, checkpoints=(30,), replications=2)
        state = init_state(cfg, [5, 8], schedules=FUSED_SCHEDULES)
        step(state, cfg)
        assert len(state.streams) == 2 * cfg.players
        assert state._block.shape == (30, cfg.players, 2)
        assert state.known_count.shape == (len(FUSED_SCHEDULES) * 2, cfg.players, 2)
        assert state.replication_indices == (5, 8) * len(FUSED_SCHEDULES)
        assert state.schedules == FUSED_SCHEDULES
        assert state._comm.shape == (31, len(FUSED_SCHEDULES))
        # the block's flags, from the round before it to its last
        want = np.stack([sched.comm_mask(0, 31) for sched in FUSED_SCHEDULES], axis=1)
        assert np.array_equal(state._comm, want)

    def test_claim_breach_names_the_strategy_and_replication(self):
        cfg = make_cfg(
            players=2, policy=PolicySpec(DKLUCB, alpha=0.5),
            horizon=10, checkpoints=(10,),
        )
        state = init_state(cfg, [4, 9], schedules=[CS.none(), CS.full(), CS.linear(3)])
        for _ in range(6):
            step(state, cfg)
        doctored = state.known_count.astype(float)
        doctored[2 * 2 + 1, 0, 1] *= 10.0  # strategy 2, replication 9
        n, bound = doctored[5, 0, 1], 2 / 1.5 * state.known_count[5, 0, 1]
        with pytest.raises(InvariantViolation) as err:
            check_round(state, doctored, cfg)
        assert err.value.strategy == 2
        assert str(err.value) == (
            "count prediction exceeded its per-player bound at round 7: "
            f"replication 9, player 0, arm 1, N' = {n} > {bound}"
        )
        state.total_count[2] = 0  # strategy 1, replication 4
        with pytest.raises(InvariantViolation, match="replication 4, arm 0") as err:
            check_round(state, state.known_count.astype(float), cfg)
        assert err.value.strategy == 1

    def test_run_strategies_reports_the_failing_input_index(self, monkeypatch):
        from distbandit import engine

        dklucb = PolicySpec(DKLUCB, alpha=0.5)
        cfgs = [
            make_cfg(schedule=CS.none(), policy=PolicySpec(UCB)),
            make_cfg(schedule=CS.full(), policy=dklucb),
            make_cfg(schedule=CS.linear(5), policy=dklucb),
        ]

        def breach(state, n_prime, cfg, counts, totals, rounds):
            # a breach of strategy 1 at the first round checked, ordered as
            # the real check orders it
            order = (int(rounds[rounds > 0].min()), 0, state.keys.shape[0], 0, 0)
            raise InvariantViolation("breach", strategy=1, order=order)

        def fail(state, cfg, w):
            raise MemoryError("no room")

        monkeypatch.setattr(engine, "_check_claims", breach)
        with pytest.raises(InvariantViolation) as err:
            run_strategies(cfgs)
        assert err.value.strategy == 2  # the second of the batch [1, 2]
        monkeypatch.setattr(engine, "_advance", fail)  # what the round loop calls
        with pytest.raises(MemoryError) as err:
            run_strategies(cfgs)
        assert err.value.strategies == (0,)


WINDOW_POLICIES = {
    "ucb-ln2t": PolicySpec(UCB, ExplorationFunction.ln2t()),
    "ucb-standard": PolicySpec(UCB),
    "klucb": PolicySpec(KLUCB),
    "dklucb-0": PolicySpec(DKLUCB, alpha=0.0),
    "dklucb-0.5": PolicySpec(DKLUCB, alpha=0.5),
    "dklucb-1": PolicySpec(DKLUCB, alpha=1.0),
}

# every schedule kind fused, full alone (its views stay stale), doubleexp
# alone (stale after each merge, private again after it), explicit alone
# (stale over runs of merges that players enter on different arms) and none,
# full and explicit fused; merges and checkpoints fall inside would-be windows
MERGES = CS.explicit([9, 40, 41, 150, 151, 152])
WINDOW_GROUPS = (
    (
        CS.none(), CS.full(), CS.oneshot(33), CS.linear(7), CS.exponential(1.5),
        CS.double_exponential(2.0, 1.0), MERGES,
    ),
    (CS.full(),),
    (CS.double_exponential(2.0, 1.0),),
    (MERGES,),
    (CS.none(), CS.full(), MERGES),
)
WINDOW_MEANS = {2: (0.9, 0.2), 5: (0.95, 0.7, 0.7, 0.3, 0.0)}
WINDOW_CHECKPOINTS = (1, 2, 7, 30, 31, 100, 177, 200)


def stepped(cfgs, reps):
    """_simulate's counts and actions, from step called round by round."""
    cfg = cfgs[0]
    state = init_state(cfg, reps, schedules=[c.schedule for c in cfgs])
    counts, actions = [], []
    while state.t < cfg.horizon:
        step(state, cfg)
        actions.append(state.last_actions.copy())
        if state.t in cfg.checkpoints:
            counts.append(state.total_count.copy())
    return np.stack(counts), np.stack(actions)


class TestWindows:
    """Between sync rounds every slot advances on its own rounds by
    speculative windows of up to _WINDOW_ROUNDS rounds; whatever their
    length, the trajectory is the one step gives."""

    @pytest.mark.parametrize("policy", WINDOW_POLICIES.values(), ids=WINDOW_POLICIES)
    @pytest.mark.parametrize("players, k", [(1, 2), (1, 5), (3, 2), (3, 5)])
    def test_windows_equal_rounds(self, monkeypatch, policy, players, k):
        from distbandit import engine

        reps = [3, 11]
        longest = {}
        real = engine._select_window

        def recording(*args):
            committed, breach = real(*args)
            longest[cap] = max(longest.get(cap, 0), int(committed.max()))
            return committed, breach

        monkeypatch.setattr(engine, "_select_window", recording)
        for group in WINDOW_GROUPS:
            cap = 1  # step advances one round
            cfgs = [
                make_cfg(
                    means=WINDOW_MEANS[k], players=players, horizon=200, schedule=schedule,
                    policy=policy, checkpoints=WINDOW_CHECKPOINTS, replications=len(reps),
                )
                for schedule in group
            ]
            want_counts, want_actions = stepped(cfgs, reps)
            for cap in (1, 2, 7, 64):
                monkeypatch.setattr(engine, "_WINDOW_ROUNDS", cap)
                counts, actions = _simulate(cfgs, reps, record_actions=True)
                assert np.array_equal(counts, want_counts), (group, cap)
                assert np.array_equal(actions, want_actions), (group, cap)
        # a cap of 1 runs round by round; some slot committed a whole window
        # at every other cap but the longest
        assert 1 not in longest and [longest[cap] for cap in (2, 7)] == [2, 7]

    def windows(self, monkeypatch, cfgs, reps):
        """Every window of the run of cfgs as (the slots' rounds before it, its
        sync round, the rounds each slot committed), and the run's counts and
        action trace."""
        from distbandit import engine

        spans = []
        real = engine._select_window

        def recording(state, cfg, ts, sync, *args):
            before = ts.copy()
            committed, breach = real(state, cfg, ts, sync, *args)
            spans.append((before, sync, committed))
            return committed, breach

        with monkeypatch.context() as patch:
            patch.setattr(engine, "_select_window", recording)
            counts, actions = _simulate(cfgs, reps, record_actions=True)
        return spans, counts, actions

    @pytest.mark.parametrize("schedule", [CS.none(), CS.full()], ids=["none", "full"])
    def test_a_settled_batch_commits_whole_windows(self, monkeypatch, schedule):
        # arm 0 always pays and arm 1 never does: the players seldom switch,
        # so the slots commit whole windows
        cfg = make_cfg(
            means=(1.0, 0.0), players=3, horizon=300, schedule=schedule,
            policy=PolicySpec(UCB), checkpoints=(100, 300), replications=2,
        )
        want_counts, want_actions = stepped([cfg], range(2))
        spans, counts, actions = self.windows(monkeypatch, [cfg], range(2))
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(actions, want_actions)
        committed = np.array([c for _, _, c in spans])
        k = cfg.arm_model.k  # the forced rounds run before the first window
        assert committed.sum(axis=0).tolist() == [cfg.horizon - k] * 2
        assert committed.max() == 64

    def test_a_settled_slot_is_not_held_back(self, monkeypatch):
        # none and full fused on arms (0.6, 0.5): after round 300 the full
        # slot never switches, while the none slot still does
        cfgs = [
            make_cfg(
                means=(0.6, 0.5), players=2, horizon=600, schedule=schedule,
                policy=PolicySpec(UCB, ExplorationFunction.ln2t()), checkpoints=(100, 600),
            )
            for schedule in (CS.none(), CS.full())
        ]
        want_counts, want_actions = stepped(cfgs, [0])
        spans, counts, actions = self.windows(monkeypatch, cfgs, [0])
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(actions, want_actions)
        changed = (actions[1:] != actions[:-1]).any(axis=2)  # [t - 2, slot]: round t switched
        assert changed[300:, 1].sum() == 0 and changed[300:, 0].sum() > 0
        for ts, sync, committed in spans:
            w = min(64, sync - ts.min())
            for s, c in enumerate(committed):
                # a slot commits up to and including its own first switch, or
                # all w rows; none past the sync round
                left = max(0, min(w, sync - ts[s]))
                switch = np.flatnonzero(changed[ts[s] - 1 : ts[s] - 1 + left, s])
                assert c == (switch[0] + 1 if len(switch) else left)
        # the settled slot commits whole windows while the other one switches
        assert sum(c[1] == 64 and 0 < c[0] < 64 for _, _, c in spans) >= 3

    CLAIM_CFG = make_cfg(
        means=(0.9, 0.2), players=2, horizon=200, schedule=CS.none(),
        policy=PolicySpec(DKLUCB, alpha=0.5), checkpoints=(200,), replications=2,
    )

    def inflate(self, monkeypatch, targets, rows=range(64)):
        """Make count_prediction_batch report N' = 1e9 for player 1, arm 0 of
        every slot s in targets at round targets[s], when that round is one of
        the given rows of the slot's selection (row 0 is the first round it
        selects). Returns the (slot, row)s it was inflated at and the states
        it runs on."""
        from distbandit import engine, policies

        hits, states, window = [], [], []
        real_init, real_prediction = engine.init_state, policies.count_prediction_batch
        real_window = engine._select_window

        def init(*args, **kwargs):
            states.append(real_init(*args, **kwargs))
            return states[-1]

        def select_window(state, cfg, ts, *args):
            window[:] = [ts]  # the slots' rounds before the window
            return real_window(state, cfg, ts, *args)

        def prediction(known_count, snapshot_count, m, alpha):
            n_prime = real_prediction(known_count, snapshot_count, m, alpha)
            state = states[-1]
            windowed = n_prime.ndim == 4  # [K, rows, M, S*R]; [K, M, S*R] for one round
            for slot, target in targets.items():
                row = target - (window[0][slot] if windowed else state.t) - 1
                if row in rows and row < (n_prime.shape[1] if windowed else 1):
                    n_prime[(0, row, 1, slot) if windowed else (0, 1, slot)] = 1e9
                    hits.append((slot, row))
            return n_prime

        monkeypatch.setattr(engine, "init_state", init)
        monkeypatch.setattr(engine, "_select_window", select_window)
        monkeypatch.setattr(policies, "count_prediction_batch", prediction)
        return hits, states

    def stepped_breach(self, cfg):
        """The InvariantViolation step raises on cfg's batch, and the state."""
        from distbandit import engine

        state = engine.init_state(cfg, range(cfg.replications))
        with pytest.raises(InvariantViolation) as err:
            while True:
                step(state, cfg)
        return err.value, state

    def test_a_breach_past_the_commit_point_does_not_raise(self, monkeypatch):
        spans, _, actions = self.windows(monkeypatch, [self.CLAIM_CFG], range(2))
        switched = (actions[1:, 1] != actions[:-1, 1]).any(axis=1)
        switches = set(np.flatnonzero(switched) + 2)
        # a switch at round tau ends replication 1's commit there; round tau+1
        # of a window that started before it is speculative
        tau = next(ts[1] + c[1] for ts, _, c in spans if c[1] > 1 and ts[1] + c[1] in switches)
        hits, _ = self.inflate(monkeypatch, {1: tau + 1}, rows=range(1, 64))
        _simulate([self.CLAIM_CFG], range(2))
        assert hits and all(row >= 1 for _, row in hits)

    def test_a_breach_in_a_committed_row_raises_as_the_round_would(self, monkeypatch):
        spans, _, _ = self.windows(monkeypatch, [self.CLAIM_CFG], range(2))
        # round k = 2 of a window in which replication 1 commits at least 3 rounds
        target = next(ts[1] + 3 for ts, _, c in spans if c[1] >= 3)
        cfg = self.CLAIM_CFG
        hits, _ = self.inflate(monkeypatch, {1: target})
        with pytest.raises(InvariantViolation) as windowed:
            _simulate([cfg], range(2))
        assert hits[-1] == (1, 2)
        stepped_err, state = self.stepped_breach(cfg)
        assert hits[-1] == (1, 0) and state.t == target - 1
        assert str(windowed.value) == str(stepped_err)
        assert str(windowed.value).startswith(
            f"count prediction exceeded its per-player bound at round {target}: "
            "replication 1, player 1, arm 0, N' = 1000000000.0 > "
        )

    def test_the_earliest_breach_of_drifted_slots_is_reported(self, monkeypatch):
        # slot 0 runs ahead of slot 1 and breaks a claim at a round slot 1 has
        # not reached; slot 1 breaks one at an earlier round, which step
        # reports first, so the windowed run must too
        cfg = replace(self.CLAIM_CFG, arm_model=BernoulliArmModel((0.9, 0.85)), horizon=600)
        spans, _, _ = self.windows(monkeypatch, [cfg], range(2))
        seen = 0  # the last round slot 1 has selected so far
        for ts, sync, c in spans:
            seen = max(seen, ts[1] + min(64, sync - ts.min()))
            # slot 0's last committed round of this window, and a later round
            # of slot 1 before it
            late, early = ts[0] + c[0], seen + 1
            if c[0] and early < late:
                break
        else:
            pytest.fail("slot 0 never ran ahead of every round slot 1 selected")
        hits, _ = self.inflate(monkeypatch, {0: late, 1: early})
        with pytest.raises(InvariantViolation) as windowed:
            _simulate([cfg], range(2))
        # slot 0's breach was committed in a window before slot 1's was seen
        assert hits.index((0, c[0] - 1)) < next(i for i, (s, _) in enumerate(hits) if s == 1)
        stepped_err, _ = self.stepped_breach(cfg)
        assert str(windowed.value) == str(stepped_err)
        assert windowed.value.strategy == stepped_err.strategy == 0
        assert windowed.value.order == stepped_err.order == (early, 0, 1, 1, 0)
        assert str(windowed.value).startswith(
            f"count prediction exceeded its per-player bound at round {early}: "
            "replication 1, player 1, arm 0, N' = 1000000000.0 > "
        )


class TestAggregation:
    def test_unbiased_merged_and_private_means(self):
        for schedule, expected_count, denom in [
            (CS.full(), 2, 2),
            (CS.none(), 1, 1),
        ]:
            cfg = make_cfg(
                schedule=schedule, horizon=2, checkpoints=(2,), replications=4000, seed=1
            )
            state = init_state(cfg, range(4000))
            step(state, cfg)
            step(state, cfg)
            assert np.all(state.known_count == expected_count)
            for a, mu in enumerate(cfg.arm_model.means):
                estimates = state.known_sum[:, 0, a] / denom
                tol = 3.0 * np.sqrt(mu * (1 - mu) / (denom * 4000))
                assert abs(estimates.mean() - mu) <= tol

    def test_stderr_shrinks_with_more_replications(self):
        kwargs = dict(
            means=(0.7, 0.5), schedule=CS.none(), horizon=64, checkpoints=(64,), seed=3
        )
        small = run_monte_carlo(make_cfg(replications=100, **kwargs))
        large = run_monte_carlo(make_cfg(replications=400, **kwargs))
        assert large.stderr[0, 1] < small.stderr[0, 1]
        assert small.stderr[0, 1] > 0

    def test_single_replication_has_integer_means_and_zero_stderr(self):
        cfg = make_cfg(horizon=16, checkpoints=(16,), replications=1)
        agg = run_monte_carlo(cfg)
        assert np.all(agg.stderr == 0)
        assert np.all(agg.mean_counts == agg.mean_counts.astype(np.int64))

    def test_regret_lookup_and_value(self):
        cfg = make_cfg(means=(0.9, 0.6), horizon=32, checkpoints=(8, 32), replications=5)
        agg = run_monte_carlo(cfg)
        want = 0.3 * agg.mean_counts[1, 1]
        assert agg.regret[1] == pytest.approx(want, rel=1e-12)

    def test_stderr_is_exact_where_int64_squares_would_wrap(self):
        # T = 2^24, M = 2, R = 10^4: the best arm's count is about 2^25, so the
        # sum of squared counts (about 1.1e19) exceeds the int64 range
        horizon, r_n = 2**24, 10**4
        cfg = make_cfg(horizon=horizon, checkpoints=(horizon,), replications=r_n)
        worse = np.arange(r_n, dtype=np.int64) % 3
        counts = np.stack([2 * horizon - worse, worse], axis=-1)[None]
        agg = _aggregate(counts, cfg)
        # both arms' counts vary exactly as much as `worse`; its exact stderr:
        mean = Fraction(int(worse.sum()), r_n)
        var = sum((Fraction(int(x)) - mean) ** 2 for x in worse) / (r_n - 1)
        want = math.sqrt(var / r_n)
        assert want == pytest.approx(0.0082, abs=1e-4)
        assert agg.stderr[0, 0] == pytest.approx(want, rel=1e-12)
        assert agg.stderr[0, 1] == pytest.approx(want, rel=1e-12)

    def test_equal_means_give_zero_regret(self):
        cfg = make_cfg(means=(0.5, 0.5), horizon=16, checkpoints=(16,), replications=3)
        agg = run_monte_carlo(cfg)
        assert np.all(agg.regret == 0)


class TestRunConfig:
    def test_default_checkpoints_are_powers_of_two(self):
        cfg = make_cfg(horizon=100)
        assert cfg.checkpoints == (1, 2, 4, 8, 16, 32, 64)
        cfg = make_cfg(horizon=64)
        assert cfg.checkpoints == (1, 2, 4, 8, 16, 32, 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_cfg(players=0)
        with pytest.raises(ValueError):
            make_cfg(horizon=0)
        with pytest.raises(ValueError):
            make_cfg(seed=-1)
        with pytest.raises(ValueError):
            make_cfg(replications=0)
        with pytest.raises(ValueError):
            make_cfg(checkpoints=(8, 4))
        with pytest.raises(ValueError):
            make_cfg(checkpoints=(0, 4))
        with pytest.raises(ValueError):
            make_cfg(horizon=40, checkpoints=(4, 41))

    def test_float_view_counts_stay_exact(self):
        # a view holds up to horizon * players samples, as float64
        make_cfg(horizon=2**52 - 1, players=2, checkpoints=(1,))
        with pytest.raises(ValueError, match=r"horizon=4503599627370496, players=2"):
            make_cfg(horizon=2**52, players=2, checkpoints=(1,))
        with pytest.raises(ValueError, match=r"horizon \* players .* 2\*\*53"):
            make_cfg(horizon=2**40, players=2**13, checkpoints=(1,))

    def test_numpy_integers_are_plain_ints(self):
        cfg = make_cfg(horizon=np.int64(64), players=np.int32(2), replications=np.int64(3))
        want = make_cfg(horizon=64, players=2, replications=3)
        assert cfg == want
        assert cfg.checkpoints == (1, 2, 4, 8, 16, 32, 64)
        assert type(cfg.horizon) is int and type(cfg.players) is int
        got, ref = run_monte_carlo(cfg), run_monte_carlo(want)
        assert np.array_equal(got.mean_counts, ref.mean_counts)
        assert make_cfg(checkpoints=(np.int64(8), 40)).checkpoints == (8, 40)

    @pytest.mark.parametrize(
        "field, value",
        [("horizon", 64.0), ("players", 2.0), ("seed", 1.5), ("replications", "3")],
    )
    def test_a_non_integer_field_is_a_type_error_naming_it(self, field, value):
        with pytest.raises(TypeError, match=rf"^{field} must be an integer, got {value!r}$"):
            make_cfg(**{field: value})

    def test_a_float_checkpoint_is_not_truncated(self):
        with pytest.raises(TypeError, match=r"^checkpoints must be an integer, got 2\.5$"):
            make_cfg(checkpoints=(2.5, 10))

    @pytest.mark.parametrize("index", [1.5, 1.0, True, "1"], ids=repr)
    def test_a_non_integer_replication_index_is_a_type_error(self, index):
        # int() would run replication 1 for any of these
        cfg = make_cfg(horizon=8, checkpoints=(8,))
        message = rf"^replication_indices must be an integer, got {re.escape(repr(index))}$"
        with pytest.raises(TypeError, match=message):
            init_state(cfg, [0, index])
        with pytest.raises(TypeError, match=message):
            run_once(cfg, index)

    def test_numpy_replication_indices_are_plain_ints(self):
        cfg = make_cfg(horizon=8, checkpoints=(8,))
        state = init_state(cfg, np.arange(2, 4, dtype=np.uint32))
        assert state.replication_indices == (2, 3)
        assert all(type(r) is int for r in state.replication_indices)
        assert np.array_equal(run_once(cfg, np.int64(3)), run_once(cfg, 3))
