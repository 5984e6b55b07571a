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

The batch is stored arm-major with the slot axis innermost: views [2, K, M,
S*R] (counts and reward sums, float64), snapshots [K, S*R] (one per slot, as
only a merge writes them), global totals [2, K, S*R] (int64) and the round's
arms [M, S*R]. Every per-arm step is then a ufunc over contiguous rows, and
selection is a compare over K such rows; WorldState presents the arrays in
(slot, player, arm) order as views. A round that follows a merge of every
strategy of the batch selects once per slot: the players of a slot then hold
the same view, snapshot and exploration value, so player 0's indices are
theirs, float for float, and its arms are given to all M players. The
uniforms are read 16 rounds at a time out of the per-stream block into an
[rounds, M, R] copy, so each round's are one contiguous row.

Aggregation works on exact integer totals, so it is independent of
replication order and of how replications are batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import LN2T, BernoulliArmModel, dklucb_scale
from .policies import (
    DKLUCB,
    PlayerView,
    PolicySpec,
    SelectionBuffers,
    exploration_budget,
    select_batch,
)
from .schedule import CommunicationSchedule

# uniform prefetch budget per block (128 MiB); a block also ends at the horizon
_BLOCK_BYTES = 1 << 27
# rounds of the block copied out replications-innermost at a time
_CHUNK_ROUNDS = 16


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
        if self.horizon * self.players >= 2**53:
            # a view holds up to horizon * players samples, in float64
            raise ValueError(
                "horizon * players must be below 2**53, where float64 view counts "
                f"stop being exact; got horizon={self.horizon}, players={self.players}"
            )
        cps = tuple(int(t) for t in self.checkpoints)
        if not cps:
            cps = _default_checkpoints(self.horizon)
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        if cps[0] < 1 or cps[-1] > self.horizon:
            raise ValueError("checkpoints must lie in [1, horizon]")
        object.__setattr__(self, "checkpoints", cps)


@dataclass
class _RoundBuffers:
    """Arrays and views step reuses every round, allocated once per batch."""

    select: tuple  # select_batch's (counts, sums, snapshots, out): [0] all players, [1] player 0
    p: np.ndarray  # float64 [M, S*R]; the means of the selected arms
    p3: np.ndarray  # p as [M, S, R]
    rewards: np.ndarray  # bool [M, S*R]
    rewards3: np.ndarray  # rewards as [M, S, R]
    pulled: np.ndarray  # bool [2, K, M, S*R]; [0]: (player, slot) pulled arm a, [1]: and won
    rows: tuple  # per player, its [2, K, S*R] rows of pulled
    arm_ids: np.ndarray  # int64 [K, 1, 1]
    slot_ids: np.ndarray  # int64 [S*R]
    flat: np.ndarray  # int64 [S*R]
    winners: np.ndarray  # int64 [S*R]


@dataclass
class WorldState:
    """Mutable per-batch simulation state.

    Slot s*R + r runs replication r of strategy s; a single-strategy batch
    (S = 1) has one slot per replication. The arrays are stored arm-major,
    with the slot axis last and contiguous, so every per-arm operation runs
    over one long contiguous row. known_count, known_sum, snapshot_count,
    total_count, total_sum and last_actions present them in (slot, player,
    arm) order as transposed or broadcast views.

    The view counts and sums are float64, exact because RunConfig keeps
    horizon * players below 2**53; the global totals are int64. A merge of
    the whole batch writes player 0's view only and marks the others stale;
    they are copied from it when they are next read or updated.
    """

    t: int
    views: np.ndarray  # float64 [2, K, M, S*R]; [0]: the view counts, [1]: their reward sums
    snapshot: np.ndarray  # float64 [K, S*R]; the same for every player of a slot
    totals: np.ndarray  # int64 [2, K, S*R]; [0]: the global counts, [1]: their reward sums
    arms: np.ndarray  # int64 [M, S*R]; the arms selected in round t
    last_merge: list[int]  # [S]; each strategy's last communication round (0: none yet)
    streams: list  # R*M, shared by the strategies
    means: np.ndarray  # float64 [K]
    replication_indices: tuple[int, ...]  # the replication each slot runs
    comm_mask: np.ndarray  # bool [horizon+1, S]; [t, s]: does strategy s communicate at round t
    merge_all: bytes  # [horizon+1]; 1 where every strategy communicates at round t
    _buf: _RoundBuffers | None = field(default=None, repr=False)
    _stale: bool = False  # players 1.. of every slot are to hold player 0's view
    _block: np.ndarray | None = field(default=None, repr=False)  # float64 [R, M, L]
    _chunk: np.ndarray | None = field(default=None, repr=False)  # float64 [_CHUNK_ROUNDS, M, R]
    _pos: int = 0

    def _sync_views(self) -> None:
        if self._stale:
            np.copyto(self.views[:, :, 1:], self.views[:, :, :1])
            self._stale = False

    @property
    def known_count(self) -> np.ndarray:
        self._sync_views()
        return self.views[0].T

    @property
    def known_sum(self) -> np.ndarray:
        self._sync_views()
        return self.views[1].T

    @property
    def snapshot_count(self) -> np.ndarray:
        _, k, m, n = self.views.shape
        return np.broadcast_to(self.snapshot.T[:, None, :], (n, m, k))

    @property
    def total_count(self) -> np.ndarray:
        return self.totals[0].T

    @property
    def total_sum(self) -> np.ndarray:
        return self.totals[1].T

    @property
    def last_actions(self) -> np.ndarray | None:
        """The [S*R, M] arms of the last round (None before round 1); a view
        that the next step overwrites."""
        return self.arms.T if self.t else None


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
    comm_mask = np.stack([s.comm_mask(cfg.horizon) for s in schedules], axis=1)
    views = np.zeros((2, k, m, n))
    snapshot = np.zeros((k, n))
    out = SelectionBuffers.arm_major((n, m, k))
    select = tuple(
        (
            views[0, :, :p_n].T,
            views[1, :, :p_n].T,
            snapshot.T[:, None, :],
            SelectionBuffers(*(getattr(out, f.name)[:, :p_n] for f in fields(out))),
        )
        for p_n in (m, 1)
    )
    p = np.empty((m, n))
    rewards = np.empty((m, n), dtype=bool)
    pulled = np.empty((2, k, m, n), dtype=bool)
    buf = _RoundBuffers(
        select=select,
        p=p,
        p3=p.reshape(m, len(schedules), len(reps)),
        rewards=rewards,
        rewards3=rewards.reshape(m, len(schedules), len(reps)),
        pulled=pulled,
        rows=tuple(pulled[:, :, i] for i in range(m)),
        arm_ids=np.arange(k)[:, None, None],
        slot_ids=np.arange(n),
        flat=np.empty(n, dtype=np.int64),
        winners=np.empty(n, dtype=np.int64),
    )
    return WorldState(
        t=0,
        views=views,
        snapshot=snapshot,
        totals=np.zeros((2, k, n), dtype=np.int64),
        arms=out.arm.T,
        last_merge=[0] * len(schedules),
        streams=streams,
        means=np.asarray(cfg.arm_model.means, dtype=np.float64),
        replication_indices=tuple(reps) * len(schedules),
        comm_mask=comm_mask,
        merge_all=comm_mask.all(axis=1).tobytes(),
        _buf=buf,
    )


def merge_views(state: WorldState, slots: slice = slice(None)) -> WorldState:
    """Give every player of the given slots (all by default) the full global
    history and refresh the snapshots.

    Idempotent; the caller is responsible for updating last_merge when this
    happens as part of a communication round.
    """
    # a whole-batch merge writes player 0's view and leaves the rest stale
    whole = slots == slice(None)
    players = slice(0, 1) if whole else slice(None)
    np.copyto(state.views[:, :, players, slots], state.totals[:, :, None, slots])
    np.copyto(state.snapshot[:, slots], state.totals[0, :, slots])
    state._stale |= whole
    return state


def view_of(state: WorldState, rep_slot: int, player: int) -> PlayerView:
    """Copy one player's view out of the batch (for inspection and tests)."""
    return PlayerView(
        known_count=state.known_count[rep_slot, player].copy(),
        known_sum=state.known_sum[rep_slot, player].copy(),
        snapshot_count=state.snapshot_count[rep_slot, player].copy(),
    )


def _next_uniforms(state: WorldState, rounds_left: int) -> np.ndarray:
    """The [M, R] uniforms of the next round, one per stream; the strategies of
    a batch share them. The streams fill the [R, M, L] block row by row."""
    block = state._block
    if block is None or state._pos == block.shape[2]:
        m = state.views.shape[2]
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
    pos = state._pos
    i = pos % _CHUNK_ROUNDS
    if i == 0:
        # one copy reads a run of rounds from every stream's row, where a
        # round at a time would read one uniform per row
        if state._chunk is None:
            state._chunk = np.empty((_CHUNK_ROUNDS,) + block.shape[1::-1])
        rounds = block[:, :, pos : pos + _CHUNK_ROUNDS]
        np.copyto(state._chunk[: rounds.shape[2]].T, rounds)
    state._pos += 1
    return state._chunk[i]


def _check_claims(state: WorldState, n_prime: np.ndarray, cfg: RunConfig) -> None:
    m, alpha = cfg.players, cfg.policy.alpha
    t = state.t + 1
    r_n = len(state.streams) // m
    # the counts selection read: while the views are stale (after a merge of
    # the whole batch) player 0's stand for every player's
    counts = state.views[0, :, :1] if state._stale else state.views[0]
    bound = dklucb_scale(m, alpha) * counts.T
    over = n_prime > bound + 1e-9
    if over.any():
        r, p, a = np.argwhere(over)[0]
        bound = np.broadcast_to(bound, n_prime.shape)
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
    _, k, m, n = state.views.shape
    r_n = len(state.streams) // m
    arms, buf = state.arms, state._buf
    # after a merge of the whole batch the players of a slot hold the same
    # view, snapshot and f, hence the same indices: player 0 selects for all
    shared = state.merge_all[t - 1]
    if t <= k:
        # some arm is still unsampled, identically across the batch: the
        # unpulled-arm rule forces arm t-1 for every player
        arms.fill(t - 1)
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
        if not shared:
            state._sync_views()
        count, total, snap, out = buf.select[shared]
        _, denom = select_batch(cfg.policy, m, f, count, total, snap, out=out)
        if shared and m > 1:
            arms[1:] = arms[0]
        if cfg.policy.rule == DKLUCB:
            # the claims are checked for every player, shared or not
            _check_claims(state, np.repeat(denom, m, axis=1) if shared else denom, cfg)
    u = _next_uniforms(state, cfg.horizon - state.t)
    # every strategy reads the same [M, R] uniforms
    state.means.take(arms, out=buf.p, mode="clip")
    np.less(u[:, None, :], buf.p3, out=buf.rewards3)
    merging = [s for s, on in enumerate(state.comm_mask[t].tolist()) if on]
    if shared and state.merge_all[t]:
        # the players of a slot pulled its one arm and the views are about to
        # be overwritten: add the slot's M pulls and its winners at once
        np.multiply(arms[0], n, out=buf.flat)
        buf.flat += buf.slot_ids
        np.add.reduce(buf.rewards, axis=0, out=buf.winners)
        state.totals[0].reshape(-1)[buf.flat] += m
        state.totals[1].reshape(-1)[buf.flat] += buf.winners
    else:
        np.equal(arms, buf.arm_ids, out=buf.pulled[0])
        np.logical_and(buf.pulled[0], buf.rewards, out=buf.pulled[1])
        # players of one slot may pick the same arm: add one player at a time
        for row in buf.rows:
            state.totals += row
    if state.merge_all[t]:
        merge_views(state)
    else:
        state._sync_views()
        state.views += buf.pulled
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
