"""Round-based execution of the distributed bandit process.

Every replication follows the same loop: each player selects an arm using its
end-of-previous-round view, all rewards are drawn, the global totals are
updated, and if the round is a communication round every view is merged into
the global history. A player's own pull is added to its view only between
merges: on a communication round the merge overwrites every view with the
totals, which already hold that pull. Replications are vectorized along a
leading axis, but the random numbers are drawn from one stream per (seed,
replication, player) -- ``Generator(Philox(SeedSequence((seed, replication,
player))))``, consuming exactly one uniform per round in round order -- so a
batched run and ``run_once`` of a single replication produce bit-identical
trajectories, and two configs sharing a seed share reward randomness round for
round.

Aggregation works on exact integer totals, so it is independent of
replication order and of how replications are batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import LN2T, BernoulliArmModel, dklucb_scale
from .policies import DKLUCB, PlayerView, PolicySpec, exploration_budget, select_batch
from .schedule import CommunicationSchedule

# uniform prefetch budget per block (128 MiB); a block also ends at the horizon
_BLOCK_BYTES = 1 << 27


class InvariantViolation(RuntimeError):
    """A state invariant that must hold on every reachable trace was broken.

    strategy is the index of the config whose trace broke it: within the
    batch where the check raises, and among the configs passed to
    run_strategies once it leaves that call; None when unknown.
    """

    def __init__(self, message: str, strategy: int | None = None):
        super().__init__(message)
        self.strategy = strategy


def _default_checkpoints(horizon: int) -> tuple[int, ...]:
    return tuple(2**k for k in range(horizon.bit_length()) if 2**k <= horizon)


@dataclass(frozen=True)
class RunConfig:
    """Everything a Monte Carlo run depends on; hashable and immutable."""

    arm_model: BernoulliArmModel
    players: int
    horizon: int
    schedule: CommunicationSchedule
    policy: PolicySpec
    seed: int
    checkpoints: tuple[int, ...] = ()
    replications: int = 1

    def __post_init__(self) -> None:
        if self.players < 1:
            raise ValueError("players must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        cps = tuple(int(t) for t in self.checkpoints)
        if not cps:
            cps = _default_checkpoints(self.horizon)
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        if cps[0] < 1 or cps[-1] > self.horizon:
            raise ValueError("checkpoints must lie in [1, horizon]")
        object.__setattr__(self, "checkpoints", cps)


@dataclass
class WorldState:
    """Mutable per-batch simulation state; axis order is (slot, player, arm).

    Slot s*R + r runs replication r of strategy s; a single-strategy batch
    (S = 1) has one slot per replication.
    """

    t: int
    known_count: np.ndarray  # int64 [S*R, M, K]
    known_sum: np.ndarray  # int64 [S*R, M, K]
    snapshot_count: np.ndarray  # int64 [S*R, M, K]
    total_count: np.ndarray  # int64 [S*R, K]
    total_sum: np.ndarray  # int64 [S*R, K]
    last_merge: list[int]  # [S]; each strategy's last communication round (0: none yet)
    streams: list  # R*M, shared by the strategies
    means: np.ndarray  # float64 [K]
    replication_indices: tuple[int, ...]  # the replication each slot runs
    comm_mask: np.ndarray  # bool [horizon+1, S]; [t, s]: does strategy s communicate at round t
    view_offset: np.ndarray  # int64 [S*R, M]; (slot*M + p)*K, view (slot, p)'s arm 0 in the flat views
    total_offset: np.ndarray  # int64 [S*R, 1]; slot*K, the slot's arm 0 in the flat totals
    last_actions: np.ndarray | None = None
    _block: np.ndarray | None = field(default=None, repr=False)
    _pos: int = 0


def init_state(cfg: RunConfig, replication_indices, *, schedules=None) -> WorldState:
    """The batch before round 1: one strategy per schedule, stacked
    strategy-major over the replications (by default cfg.schedule alone)."""
    schedules = (cfg.schedule,) if schedules is None else tuple(schedules)
    reps = [int(r) for r in replication_indices]
    n, m, k = len(schedules) * len(reps), cfg.players, cfg.arm_model.k
    streams = [
        np.random.Generator(
            np.random.Philox(np.random.SeedSequence((cfg.seed, rep, p)))
        )
        for rep in reps
        for p in range(m)
    ]
    return WorldState(
        t=0,
        known_count=np.zeros((n, m, k), dtype=np.int64),
        known_sum=np.zeros((n, m, k), dtype=np.int64),
        snapshot_count=np.zeros((n, m, k), dtype=np.int64),
        total_count=np.zeros((n, k), dtype=np.int64),
        total_sum=np.zeros((n, k), dtype=np.int64),
        last_merge=[0] * len(schedules),
        streams=streams,
        means=np.asarray(cfg.arm_model.means, dtype=np.float64),
        replication_indices=tuple(reps) * len(schedules),
        comm_mask=np.stack([s.comm_mask(cfg.horizon) for s in schedules], axis=1),
        view_offset=np.arange(n * m, dtype=np.int64).reshape(n, m) * k,
        total_offset=np.arange(n, dtype=np.int64)[:, None] * k,
    )


def merge_views(state: WorldState, slots: slice = slice(None)) -> WorldState:
    """Give every player of the given slots (all by default) the full global
    history and refresh the snapshots.

    Idempotent; the caller is responsible for updating last_merge when this
    happens as part of a communication round.
    """
    known_count = state.known_count[slots]
    known_count[...] = state.total_count[slots, None, :]
    state.known_sum[slots] = state.total_sum[slots, None, :]
    # after the merge the snapshot is the view: a plain copy, not a third broadcast
    np.copyto(state.snapshot_count[slots], known_count)
    return state


def view_of(state: WorldState, rep_slot: int, player: int) -> PlayerView:
    """Copy one player's view out of the batch (for inspection and tests)."""
    return PlayerView(
        known_count=state.known_count[rep_slot, player].copy(),
        known_sum=state.known_sum[rep_slot, player].copy(),
        snapshot_count=state.snapshot_count[rep_slot, player].copy(),
    )


def _next_uniforms(state: WorldState, rounds_left: int) -> np.ndarray:
    """The [R, M] uniforms of the next round, one per stream; the strategies of
    a batch share them."""
    block = state._block
    if block is None or state._pos == block.shape[2]:
        m = state.known_count.shape[1]
        r_n = len(state.streams) // m
        length = int(_BLOCK_BYTES // (8 * r_n * m))
        length = min(max(64, min(4096, length)), rounds_left)
        block = np.empty((r_n, m, length))
        i = 0
        for r in range(r_n):
            for p in range(m):
                state.streams[i].random(out=block[r, p])
                i += 1
        state._block = block
        state._pos = 0
    u = block[:, :, state._pos]
    state._pos += 1
    return u


def _check_claims(state: WorldState, n_prime: np.ndarray, cfg: RunConfig) -> None:
    m, alpha = cfg.players, cfg.policy.alpha
    t = state.t + 1
    r_n = len(state.streams) // m
    bound = dklucb_scale(m, alpha) * state.known_count
    over = n_prime > bound + 1e-9
    if over.any():
        r, p, a = np.argwhere(over)[0]
        raise InvariantViolation(
            f"count prediction exceeded its per-player bound at round {t}: "
            f"replication {state.replication_indices[r]}, player {p}, arm {a}, "
            f"N' = {n_prime[r, p, a]} > {bound[r, p, a]}",
            strategy=int(r) // r_n,
        )
    summed = n_prime.sum(axis=1)
    bound = m * state.total_count
    over = summed > bound + 1e-9
    if over.any():
        r, a = np.argwhere(over)[0]
        raise InvariantViolation(
            f"summed count predictions exceeded M times the global count at round {t}: "
            f"replication {state.replication_indices[r]}, arm {a}, "
            f"sum of N' = {summed[r, a]} > {bound[r, a]}",
            strategy=int(r) // r_n,
        )


def step(state: WorldState, cfg: RunConfig) -> WorldState:
    """Advance the batch by one round (in place); see the module docstring."""
    if state.t >= cfg.horizon:
        raise ValueError(f"horizon {cfg.horizon} already reached")
    t = state.t + 1
    n, m, k = state.known_count.shape
    r_n = len(state.streams) // m
    if t <= k:
        # some arm is still unsampled, identically across the batch: the
        # unpulled-arm rule forces arm t-1 for every player
        actions = np.full((n, m), t - 1, dtype=np.int64)
    else:
        if cfg.policy.exploration.variant == LN2T:
            # evaluated at the round index, so one value serves every strategy
            f = exploration_budget(cfg.policy, m, t, None)
        else:
            # the sample count a player holds depends on its strategy's merges
            f = [
                exploration_budget(cfg.policy, m, t, (t - 1) + (m - 1) * last)
                for last in state.last_merge
            ]
            f = f[0] if len(f) == 1 else np.repeat(f, r_n)[:, None, None]
        actions, denom = select_batch(
            cfg.policy, m, f, state.known_count, state.known_sum, state.snapshot_count
        )
        if cfg.policy.rule == DKLUCB:
            _check_claims(state, denom, cfg)
    u = _next_uniforms(state, cfg.horizon - state.t)
    # every strategy reads the same [R, M] uniforms
    rewards = (u < state.means[actions].reshape(-1, r_n, m)).reshape(n, m)
    # players of one replication may pick the same arm, so the flat indices
    # into the totals can repeat: count them with bincount
    slot = state.total_offset + actions
    state.total_count += np.bincount(slot.ravel(), minlength=n * k).reshape(n, k)
    state.total_sum += np.bincount(slot[rewards], minlength=n * k).reshape(n, k)
    state.last_actions = actions
    merging = [s for s, on in enumerate(state.comm_mask[t].tolist()) if on]
    if len(merging) == len(state.last_merge):
        merge_views(state)
    else:
        # each (slot, player) owns one [K] row, so these never repeat
        slot = state.view_offset + actions
        state.known_count.reshape(-1)[slot] += 1
        state.known_sum.reshape(-1)[slot] += rewards
        for s in merging:
            merge_views(state, slice(s * r_n, (s + 1) * r_n))
    for s in merging:
        state.last_merge[s] = t
    state.t = t
    return state


def _simulate(cfgs, replication_indices, record_actions: bool = False):
    """The round loop for one batch: the configs, equal but for their
    schedules, are stacked strategy-major over the replications. Returns the
    int64 global counts at the checkpoints, [C, S*R, K], and the selected
    arms, [horizon, S*R, M] (None without record_actions). init_state and
    step are called through the module globals, so rebinding them (as timing
    shims do) reaches this loop."""
    cfg = cfgs[0]
    state = init_state(cfg, replication_indices, schedules=[c.schedule for c in cfgs])
    n, m, k = state.known_count.shape
    cp_slot = {t: i for i, t in enumerate(cfg.checkpoints)}
    counts = np.zeros((len(cfg.checkpoints), n, k), dtype=np.int64)
    actions = np.zeros((cfg.horizon, n, m), np.int64) if record_actions else None
    for t in range(1, cfg.horizon + 1):
        step(state, cfg)
        if actions is not None:
            actions[t - 1] = state.last_actions
        slot = cp_slot.get(t)
        if slot is not None:
            counts[slot] = state.total_count
    return counts, actions


def run_once(cfg: RunConfig, replication_index: int, record_actions: bool = False):
    """Run a single replication; a pure function of (cfg.seed, replication_index).

    Returns the int64 array of global per-arm counts at cfg.checkpoints,
    shape (len(checkpoints), K); with record_actions also the (horizon, M)
    array of selected arms.
    """
    counts, actions = _simulate([cfg], [replication_index], record_actions)
    if record_actions:
        return counts[:, 0], actions[:, 0]
    return counts[:, 0]


@dataclass(frozen=True)
class RunAggregate:
    """Monte Carlo summary: per-checkpoint, per-arm count statistics."""

    checkpoints: tuple[int, ...]
    mean_counts: np.ndarray  # float64 [C, K]
    stderr: np.ndarray  # float64 [C, K]
    regret: np.ndarray  # float64 [C]
    replications: int


def _aggregate(counts: np.ndarray, cfg: RunConfig) -> RunAggregate:
    # counts: int64 [C, R, K]; sums are exact, so the aggregate is independent
    # of replication order
    r_n = counts.shape[1]
    totals = counts.sum(axis=1)
    mean = totals / r_n
    if r_n > 1:
        peak = int(counts.max())
        if peak * peak * r_n <= 2**53:
            # the int64 sums of squares are exact and exactly representable
            sumsq = (counts * counts).sum(axis=1)
            var = np.maximum(sumsq - r_n * mean * mean, 0.0) / (r_n - 1)
        else:
            # int64 could wrap and float64 would cancel: form the centred sum
            # exactly in Python ints and round once
            exact = counts.astype(object)
            sums = exact.sum(axis=1)
            centred = r_n * (exact * exact).sum(axis=1) - sums * sums
            var = (centred / (r_n * (r_n - 1))).astype(np.float64)
        stderr = np.sqrt(var / r_n)
    else:
        stderr = np.zeros_like(mean)
    gaps = np.asarray(cfg.arm_model.gaps)
    return RunAggregate(
        checkpoints=cfg.checkpoints,
        mean_counts=mean,
        stderr=stderr,
        regret=mean @ gaps,
        replications=r_n,
    )


def run_strategies(cfgs) -> list[RunAggregate]:
    """Aggregate cfg.replications independent runs of every config, in input
    order.

    Configs equal in every field but the schedule run as one batch, one round
    loop for all of them on their shared streams; each aggregate is the one
    the config gives alone. An exception raised by a batch carries the input
    indices of its configs as `strategies`, or, for an InvariantViolation
    that names one, the failing config's input index as `strategy`.
    """
    cfgs = list(cfgs)
    batches: dict[RunConfig, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        batches.setdefault(replace(cfg, schedule=None), []).append(i)
    aggregates = [None] * len(cfgs)
    for members in batches.values():
        r_n = cfgs[members[0]].replications
        try:
            counts = _simulate([cfgs[i] for i in members], range(r_n))[0]
        except Exception as exc:
            if isinstance(exc, InvariantViolation) and exc.strategy is not None:
                exc.strategy = members[exc.strategy]
            else:
                exc.strategies = tuple(members)
            raise
        for s, i in enumerate(members):
            aggregates[i] = _aggregate(counts[:, s * r_n : (s + 1) * r_n], cfgs[i])
    return aggregates


def run_monte_carlo(cfg: RunConfig) -> RunAggregate:
    """Aggregate cfg.replications independent runs of the configured process."""
    return run_strategies([cfg])[0]


def regret(aggregate: RunAggregate, arm_model: BernoulliArmModel, t: int) -> float:
    """Gap-weighted expected pulls sum(gap_a * mean N_t(a)) at a checkpoint."""
    try:
        slot = aggregate.checkpoints.index(t)
    except ValueError:
        raise KeyError(f"round {t} is not a recorded checkpoint") from None
    return float(aggregate.mean_counts[slot] @ np.asarray(arm_model.gaps))
