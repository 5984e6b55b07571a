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
round. Philox is counter-based, so a stream is its 128-bit key and a counter:
the engine hashes every stream's key in one array pass (SeedSequence's hash)
and draws all streams through one generator, setting its key and counter per
stream; the uniforms are the ones the per-stream generators give.

The batch is stored arm-major with the slot axis innermost: views [2, K, M,
S*R] (counts and reward sums, float64), snapshots [K, S*R] (one per slot, as
only a merge writes them), global totals [2, K, S*R] (int64) and the round's
arms [M, S*R]. Every per-arm step is then a ufunc over contiguous rows, and
selection is a compare over K such rows: select_batch takes its batch arm
axis first, so the engine passes it these arrays as they are stored, with no
transposed views. WorldState presents the arrays in (slot, player, arm) order
as views for callers. While a whole-batch merge has left the views stale, a
round selects once per slot: the players of a slot then hold the same view,
snapshot and exploration value, so player 0's indices are theirs, float for
float, and its arms are given to all M players.

The uniforms are held round-major, in an [L, M, R] block of the next L
rounds, so a round reads its uniforms from one contiguous row. A stream's L
uniforms are one column of the block, so they are drawn into a small staging
tile of whole stream rows, and each tile is copied into its columns while it
is still in cache. Every refill is drawn into the first block's buffer, so a
run never holds two blocks.

Aggregation works on exact integer totals, so it is independent of
replication order and of how replications are batched.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import LN2T, BernoulliArmModel, dklucb_scale
from .policies import (
    DKLUCB,
    PolicySpec,
    SelectionBuffers,
    exploration_budget,
    select_batch,
)
from .schedule import CommunicationSchedule

# uniform prefetch budget per block (32 MiB); a block also ends at the horizon
_BLOCK_BYTES = 1 << 25
# the staging tile a block is drawn through (256 KiB, at least one stream row)
_TILE_BYTES = 1 << 18

# numpy's SeedSequence hash: a pool of four uint32 words, mixed with these
# constants and multipliers (uint32 arithmetic, which the arrays wrap silently)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# Philox4x64 makes four uint64 words per counter value
_PHILOX_WORDS = 4


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


def _as_int(name: str, value) -> int:
    """value as an int, numpy integers included; other types raise a TypeError."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


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
        for name in ("players", "horizon", "seed", "replications"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
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
        cps = tuple(_as_int("checkpoints", t) for t in self.checkpoints)
        if not cps:
            cps = _default_checkpoints(self.horizon)
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        if cps[0] < 1 or cps[-1] > self.horizon:
            raise ValueError("checkpoints must lie in [1, horizon]")
        object.__setattr__(self, "checkpoints", cps)


@dataclass
class _RoundBuffers:
    """Arrays and views step reuses every round, built by _round_buffers."""

    select: tuple  # select_batch's (counts, sums, snapshots, out): [0] all players, [1] player 0
    p: np.ndarray  # float64 [M, S*R]; the means of the selected arms
    p3: np.ndarray  # p as [M, S, R]
    rewards: np.ndarray  # bool [M, S*R]
    rewards3: np.ndarray  # rewards as [M, S, R]
    pulled: np.ndarray  # bool [2, K, M, S*R]; [0]: (player, slot) pulled arm a, [1]: and won
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
    they are copied from it when they are next read or updated. While the
    views are stale, step selects once per slot, on player 0's view.

    A copy (copy.deepcopy, pickle) leaves out the round buffers, which view
    this state's arrays; step builds the copy's own before its next round.
    """

    t: int
    views: np.ndarray  # float64 [2, K, M, S*R]; [0]: the view counts, [1]: their reward sums
    snapshot: np.ndarray  # float64 [K, S*R]; the same for every player of a slot
    totals: np.ndarray  # int64 [2, K, S*R]; [0]: the global counts, [1]: their reward sums
    arms: np.ndarray  # int64 [M, S*R]; the arms selected in round t
    last_merge: list[int]  # [S]; each strategy's last communication round (0: none yet)
    keys: np.ndarray  # uint64 [R, M, 2]; the streams' Philox keys, shared by the strategies
    means: np.ndarray  # float64 [K]
    replication_indices: tuple[int, ...]  # the replication each slot runs
    comm_mask: np.ndarray  # bool [horizon+1, S]; [t, s]: does strategy s communicate at round t
    _buf: _RoundBuffers | None = field(default=None, repr=False)  # built by step
    _stale: bool = False  # players 1.. of every slot are to hold player 0's view
    # float64 [L, M, R]; the uniforms of the next L rounds, round-major; every
    # refill is a leading slice of the first block's buffer
    _block: np.ndarray | None = field(default=None, repr=False)
    _pos: int = 0  # the rounds of _block already read
    # draws every stream, keyed and positioned per stream
    _rng: np.random.Generator = field(
        default_factory=lambda: np.random.Generator(np.random.Philox(key=0)), repr=False
    )

    @property
    def streams(self) -> ContractStreams:
        """The R*M contract streams, replication-major, each built on access
        and from its first draw. The engine holds only their keys: it draws a
        stream by setting its key and counter on one shared generator, which
        gives the same uniforms."""
        return ContractStreams(self.keys.reshape(-1, 2))

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_buf": None}

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


class ContractStreams(Sequence):
    """Read-only sequence of contract streams, each built when read: element i
    is Generator(Philox(key=keys[i])), which draws what the stream seeded by
    its SeedSequence draws."""

    def __init__(self, keys: np.ndarray):
        self._keys = keys

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i: int | slice):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return np.random.Generator(np.random.Philox(key=self._keys[i]))


def _words(n: int) -> list[int]:
    """The uint32 words SeedSequence reads from a nonnegative int, least
    significant first."""
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_sequence_keys(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(2, np.uint64) for every row of the
    uint32 [n, L] entropy words, as uint64 [n, 2]; one array op per hash step."""
    n, width = entropy.shape
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value *= const
        value ^= value >> 16
        return value

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        result ^= result >> 16
        return result

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < width else zero) for i in range(_POOL_SIZE)]
    # every word into every other, then the entropy beyond the pool
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    const = _INIT_B
    state = []
    for word in pool:
        word = word ^ const
        const = const * _MULT_B & _MASK32
        word *= const
        word ^= word >> 16
        state.append(word.astype(np.uint64))
    # little-endian word pairs
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


def _stream_keys(seed: int, replication_indices, players: int) -> np.ndarray:
    """The uint64 [R, M, 2] Philox keys of the contract streams: [r, p] is
    SeedSequence((seed, replication_indices[r], p)).generate_state(2, np.uint64)."""
    seed_words = _words(seed)
    rep_words = [_words(rep) for rep in replication_indices]
    keys = np.empty((len(rep_words), players, 2), dtype=np.uint64)
    # the entropy is (seed, replication, player) as words, so the hash differs
    # by a replication's word count; every index below 2**32 is one word
    for width in {len(w) for w in rep_words}:
        rows = [i for i, w in enumerate(rep_words) if len(w) == width]
        entropy = np.empty((len(rows), players, len(seed_words) + width + 1), dtype=np.uint32)
        entropy[..., : len(seed_words)] = seed_words
        entropy[..., len(seed_words) : -1] = np.array([rep_words[i] for i in rows])[:, None]
        entropy[..., -1] = np.arange(players)
        keys[rows] = _seed_sequence_keys(entropy.reshape(-1, entropy.shape[-1])).reshape(
            len(rows), players, 2
        )
    return keys


def init_state(cfg: RunConfig, replication_indices, *, schedules=None) -> WorldState:
    """The batch before round 1: one strategy per schedule, stacked
    strategy-major over the replications (by default cfg.schedule alone)."""
    schedules = (cfg.schedule,) if schedules is None else tuple(schedules)
    reps = [int(r) for r in replication_indices]
    if not reps or min(reps) < 0:
        raise ValueError(f"expected one or more nonnegative replication indices, got {reps}")
    if not schedules:
        raise ValueError("expected one or more schedules, got an empty schedules list")
    n, m, k = len(schedules) * len(reps), cfg.players, cfg.arm_model.k
    return WorldState(
        t=0,
        views=np.zeros((2, k, m, n)),
        snapshot=np.zeros((k, n)),
        totals=np.zeros((2, k, n), dtype=np.int64),
        arms=np.zeros((m, n), dtype=np.int64),
        last_merge=[0] * len(schedules),
        keys=_stream_keys(cfg.seed, reps, m),
        means=np.asarray(cfg.arm_model.means, dtype=np.float64),
        replication_indices=tuple(reps) * len(schedules),
        comm_mask=np.stack([s.comm_mask(cfg.horizon) for s in schedules], axis=1),
    )


def _round_buffers(state: WorldState) -> _RoundBuffers:
    """The buffers step reuses, built on this state's own arrays."""
    _, k, m, n = state.views.shape
    out = replace(SelectionBuffers.empty((k, m, n)), arm=state.arms)
    select = tuple(
        (
            state.views[0, :, :p_n],
            state.views[1, :, :p_n],
            state.snapshot[:, None],
            SelectionBuffers(*(getattr(out, f.name)[..., :p_n, :] for f in fields(out))),
        )
        for p_n in (m, 1)
    )
    p = np.empty((m, n))
    rewards = np.empty((m, n), dtype=bool)
    return _RoundBuffers(
        select=select,
        p=p,
        p3=p.reshape(m, len(state.last_merge), -1),
        rewards=rewards,
        rewards3=rewards.reshape(m, len(state.last_merge), -1),
        pulled=np.empty((2, k, m, n), dtype=bool),
        arm_ids=np.arange(k)[:, None, None],
        slot_ids=np.arange(n),
        flat=np.empty(n, dtype=np.int64),
        winners=np.empty(n, dtype=np.int64),
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


def _next_uniforms(state: WorldState, rounds_left: int) -> np.ndarray:
    """The [M, R] uniforms of the next round, one per stream; the strategies of
    a batch share them. They are the next row of the [L, M, R] block."""
    block = state._block
    if block is None or state._pos == len(block):
        r_n, m, _ = state.keys.shape
        full = max(64, min(4096, int(_BLOCK_BYTES // (8 * r_n * m))))
        length = min(full, rounds_left)
        # no block is longer than the first, so its buffer holds every refill
        block = np.empty((length, m, r_n)) if block is None else block[:length]
        # every stream has drawn one uniform (one Philox word) per round so
        # far: a counter of t // 4 with its buffer spent, then t % 4 words
        # skipped, puts it there; a block need not end on a counter boundary
        rng = state._rng
        bits = rng.bit_generator
        skip = state.t % _PHILOX_WORDS
        at = {
            "bit_generator": "Philox",
            "state": {"counter": [state.t // _PHILOX_WORDS, 0, 0, 0], "key": None},
            "buffer": [0] * _PHILOX_WORDS,
            "buffer_pos": _PHILOX_WORDS,
            "has_uint32": 0,
            "uinteger": 0,
        }
        # the streams in the block's column order, player-major; a tile of
        # their rows is drawn, then copied into its columns while in cache.
        # The tile's row count is set by the full block length, so a short
        # last block converts no more keys at a time than the others
        keys = state.keys.transpose(1, 0, 2).reshape(-1, 2)
        columns = block.reshape(length, -1)
        tile = np.empty((max(1, _TILE_BYTES // (8 * full)), length))
        for start in range(0, len(keys), len(tile)):
            # Python ints set a key faster than numpy rows do
            run = keys[start : start + len(tile)].tolist()
            for key, row in zip(run, tile):
                at["state"]["key"] = key
                bits.state = at
                if skip:
                    bits.random_raw(skip)
                rng.random(out=row)
            np.copyto(columns[:, start : start + len(run)], tile[: len(run)].T)
        state._block = block
        state._pos = 0
    state._pos += 1
    return block[state._pos - 1]


def _check_claims(state: WorldState, n_prime: np.ndarray, cfg: RunConfig) -> None:
    """Raise on the first breach, in (slot, player, arm) order, of either
    count-prediction claim by the [K, M, S*R] predictions N'."""
    m, alpha = cfg.players, cfg.policy.alpha
    t = state.t + 1
    r_n = state.keys.shape[0]
    # the counts selection read: while the views are stale (after a merge of
    # the whole batch) player 0's stand for every player's
    counts = state.views[0, :, :1] if state._stale else state.views[0]
    bound = dklucb_scale(m, alpha) * counts
    over = n_prime > bound + 1e-9
    if over.any():
        r, p, a = np.argwhere(over.T)[0]
        bound = np.broadcast_to(bound, n_prime.shape)
        raise InvariantViolation(
            f"count prediction exceeded its per-player bound at round {t}: "
            f"replication {state.replication_indices[r]}, player {p}, arm {a}, "
            f"N' = {n_prime[a, p, r]} > {bound[a, p, r]}",
            strategy=int(r) // r_n,
        )
    summed = n_prime.sum(axis=1)
    bound = m * state.totals[0]
    over = summed > bound + 1e-9
    if over.any():
        r, a = np.argwhere(over.T)[0]
        raise InvariantViolation(
            f"summed count predictions exceeded M times the global count at round {t}: "
            f"replication {state.replication_indices[r]}, arm {a}, "
            f"sum of N' = {summed[a, r]} > {bound[a, r]}",
            strategy=int(r) // r_n,
        )


def step(state: WorldState, cfg: RunConfig) -> WorldState:
    """Advance the batch by one round (in place); see the module docstring."""
    if state.t >= cfg.horizon:
        raise ValueError(f"horizon {cfg.horizon} already reached")
    t = state.t + 1
    _, k, m, n = state.views.shape
    r_n = state.keys.shape[0]
    if state._buf is None:
        state._buf = _round_buffers(state)
    arms, buf = state.arms, state._buf
    # while a whole-batch merge has left the views stale, a slot's players hold
    # one view, snapshot and f, hence the same indices: player 0 selects for all
    shared = state._stale
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
            f = f[0] if len(f) == 1 else np.repeat(f, r_n)
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
    whole = len(merging) == len(state.last_merge)
    if shared and whole:
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
        # players of one slot may pick the same arm: sum their pulls first
        state.totals += np.add.reduce(buf.pulled, axis=2)
    if whole:
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
    _, k, m, n = state.views.shape
    cp_slot = {t: i for i, t in enumerate(cfg.checkpoints)}
    counts = np.zeros((len(cfg.checkpoints), n, k), dtype=np.int64)
    actions = np.zeros((cfg.horizon, n, m), np.int64) if record_actions else None
    for t in range(1, cfg.horizon + 1):
        step(state, cfg)
        if actions is not None:
            actions[t - 1] = state.arms.T
        slot = cp_slot.get(t)
        if slot is not None:
            counts[slot] = state.totals[0].T
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

