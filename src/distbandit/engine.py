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

step advances the batch by one round. The run loop advances by windows
(_advance), on the slots' own rounds: a slot (one replication of one
strategy) is coupled to its own M players alone, so between two sync rounds
every slot s runs at its own round ts[s]. The sync rounds are the
checkpoints, the end of the uniform block and the horizon. A window
speculates that every player repeats its arm of its slot's last round for
the next W rounds; it builds each of those rounds' views from the stored ones
and the uniforms, at each slot's own rows of the block, selects rounds
ts[s]+1..ts[s]+W of every slot with one select_batch call, and commits each
slot's rounds up to and including its own first whose arms differ, exactly as
that many steps would. Nothing is rolled back, as nothing is written past a
slot's commit point; a slot that reaches the sync round waits there until
every slot has (optimistic execution on local virtual time, as in Jefferson,
"Virtual Time", ACM TOPLAS 7(3), 1985). A claim breach is reported only then,
as the earliest of those found, since a slot behind may break a claim at an
earlier round. W is _WINDOW_ROUNDS, or the rounds the slowest slot has left
to the sync round when fewer. A slot's window ends at the first round whose
communication differs from that of the slot's last round, so the slot merges
on every round before its window's last or on none of them; the window's last
round is committed alone, by the rule that commits every round
(_commit_round), with the slots at the sync round masked. The first K
rounds, forced, are one round each, and a batch too wide for a window of
_WINDOW_ROUNDS rows as one [K, W, M, S*R] float64 array of _WINDOW_BYTES
advances by single rounds. The window's counts and sums are integers below
2**53, exact in float64, and the index ufuncs give an element the same value
whatever the array's shape, so a window selects exactly the arms the rounds
would.

The uniforms are held round-major, in an [L, M, R] block of the next L
rounds, so a round reads its uniforms from one contiguous row. A stream's L
uniforms are one column of the block, so they are drawn into a small staging
tile of whole stream rows, and each tile is copied into its columns while it
is still in cache. Every refill is drawn into the first block's buffer, so a
run never holds two blocks. Each strategy's communication flags and
exploration value f (one exploration_budget call per round) of every round of
the block are filled with it, and a round, or a window row, reads its slot's
from these tables: no state grows with the horizon.

Aggregation works on exact integer totals, so it is independent of
replication order and of how replications are batched.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .core import LN2T, BernoulliArmModel, _as_int, dklucb_scale
from .policies import DKLUCB, PolicySpec, exploration_budget, select_batch
from .schedule import CommunicationSchedule

# uniform prefetch budget per block (32 MiB); a block also ends at the horizon
_BLOCK_BYTES = 1 << 25
# the staging tile a block is drawn through (256 KiB, at least one stream row)
_TILE_BYTES = 1 << 18
# the most rounds one window selects at once, and the budget (128 KiB) of a
# window that long as a [K, W, M, S*R] float64 array: a batch too wide for it
# advances round by round, as windows pay only where few lanes switch in a
# round (figure1 at 30 replications, 4.8 KB a row, ran 26-126% slower with
# windows of up to 2, 4, 8 or 64 rounds than round by round)
_WINDOW_ROUNDS = 64
_WINDOW_BYTES = 1 << 17

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
    run_strategies once it leaves that call; None when unknown. order is the
    breach's (round, kind, slot, player, arm), kind 0 for a per-player claim
    and 1 for a summed one, by which the first of several breaches is the
    one reported.
    """

    def __init__(self, message: str, strategy: int | None = None, *, order: tuple):
        super().__init__(message)
        self.strategy = strategy
        self.order = order

    def __reduce__(self):
        # order is keyword-only: a copy or an unpickle passes it by name
        return partial(type(self), order=self.order), self.args, self.__dict__


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
    views are stale, a round selects once per slot, on player 0's view. The
    communication flags are filled with each uniform block from schedules,
    and every round, a window's last included, is committed by _commit_round.

    t is the last round every slot has committed: the loop returns from
    _advance only at a sync round, where all slots stand at the same round.
    """

    t: int
    views: np.ndarray  # float64 [2, K, M, S*R]; [0]: the view counts, [1]: their reward sums
    snapshot: np.ndarray  # float64 [K, S*R]; the same for every player of a slot
    totals: np.ndarray  # int64 [2, K, S*R]; [0]: the global counts, [1]: their reward sums
    arms: np.ndarray  # int64 [M, S*R]; the arms selected in round t
    keys: np.ndarray  # uint64 [R, M, 2]; the streams' Philox keys, shared by the strategies
    means: np.ndarray  # float64 [K]
    replication_indices: tuple[int, ...]  # the replication each slot runs
    schedules: tuple[CommunicationSchedule, ...]  # [S]; each strategy's schedule
    _stale: bool = False  # players 1.. of every slot are to hold player 0's view
    # float64 [L, M, R]; the uniforms of the next L rounds, round-major; every
    # refill is a leading slice of the first block's buffer
    _block: np.ndarray | None = field(default=None, repr=False)
    _pos: int = 0  # the rounds of _block already read
    # float64 [L, S], or [L, 1] for ln2t, which reads the round alone; the
    # exploration value f of each round of _block per strategy (none for the
    # forced rounds), filled with the block
    _f: np.ndarray | None = field(default=None, repr=False)
    # bool [L+1, S]; [j, s]: does strategy s communicate at the j-th round of
    # _block, row 0 being the round before it; filled with the block
    _comm: np.ndarray | None = field(default=None, repr=False)
    # int64 [horizon, S*R, M]; the arms of every round, when the run records them
    _actions: np.ndarray | None = field(default=None, repr=False)
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
    reps = [_as_int("replication_indices", r) for r in replication_indices]
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
        keys=_stream_keys(cfg.seed, reps, m),
        means=np.asarray(cfg.arm_model.means, dtype=np.float64),
        replication_indices=tuple(reps) * len(schedules),
        schedules=schedules,
    )


def merge_views(state: WorldState) -> WorldState:
    """Give every player of the batch the full global history and refresh the
    snapshots.

    Idempotent. A merge between rounds changes no exploration value: f
    counts the merges of the schedule alone.
    """
    # player 0's view is written and the rest left stale
    np.copyto(state.views[:, :, :1], state.totals[:, :, None])
    np.copyto(state.snapshot, state.totals[0])
    state._stale = True
    return state


def _next_uniforms(state: WorldState, rounds_left: int) -> np.ndarray:
    """The [L', M, R] uniforms of the next L' rounds, one per stream and round;
    the strategies of a batch share them. They are the rows of the [L, M, R]
    block not read yet, refilled when every row is read; the caller advances
    state._pos past the rounds it commits."""
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
    return block[state._pos :]


def _check_claims(
    state: WorldState, n_prime: np.ndarray, cfg: RunConfig, counts, totals, rounds
) -> None:
    """Raise on the first breach, in (round, kind, slot, player, arm) order, a
    per-player breach before a summed one, of either count-prediction claim
    by the predictions N' [K, c, M, S*R] of c rows, checked against their view
    counts [K, c, M or 1, S*R] and int64 global counts [K, c, S*R]; rounds
    [c, S*R] is the round each slot's row is at (0: not checked)."""
    m, alpha = cfg.players, cfg.policy.alpha
    r_n = state.keys.shape[0]
    checked = rounds > 0
    bound = dklucb_scale(m, alpha) * counts
    over = (n_prime > bound + 1e-9) & checked[:, None]
    summed = n_prime.sum(axis=-2)
    limit = m * totals
    over_sum = (summed > limit + 1e-9) & checked
    if not (over.any() or over_sum.any()):
        return
    # every breach as (round, kind, slot, player, arm, row), per-player ones first
    breaches = [(rounds[i, s], 0, s, p, a, i) for a, i, p, s in zip(*np.nonzero(over))]
    breaches += [(rounds[i, s], 1, s, 0, a, i) for a, i, s in zip(*np.nonzero(over_sum))]
    t, kind, slot, player, arm, row = (int(x) for x in min(breaches))
    where = f"at round {t}: replication {state.replication_indices[slot]}"
    if kind == 0:
        bound = np.broadcast_to(bound, n_prime.shape)
        message = (
            f"count prediction exceeded its per-player bound {where}, player {player}, "
            f"arm {arm}, N' = {n_prime[arm, row, player, slot]} > {bound[arm, row, player, slot]}"
        )
    else:
        message = (
            f"summed count predictions exceeded M times the global count {where}, "
            f"arm {arm}, sum of N' = {summed[arm, row, slot]} > {limit[arm, row, slot]}"
        )
    raise InvariantViolation(message, strategy=slot // r_n, order=(t, kind, slot, player, arm))


def _fill_budgets(state: WorldState, cfg: RunConfig) -> None:
    """Fill state._comm with each strategy's communication flags of rounds
    state.t to the block's last, and state._f with the exploration value f of
    the block's rounds: one exploration_budget call per round and strategy, or
    per round for ln2t, which reads the round index alone. At round t a player
    holds t-1 samples of its own and M-1 more per round up to its strategy's
    last merge before t. The forced rounds read no f and get none."""
    policy, m, k = cfg.policy, cfg.players, state.views.shape[1]
    first, length = state.t + 1, len(state._block)
    state._comm = np.stack(
        [s.comm_mask(first - 1, first + length) for s in state.schedules], axis=1
    )
    # ln2t reads the round alone, so one column serves every strategy
    width = 1 if policy.exploration.variant == LN2T else len(state.schedules)
    # no block is longer than the first, so the first table holds every refill's
    f = np.zeros((length, width)) if state._f is None else state._f[:length]
    rounds = range(first, first + length)
    for s, comm in enumerate(state._comm[1:, :width].T.tolist()):
        last = state.schedules[s].last_comm_leq(first - 1)
        column = []
        for t, on in zip(rounds, comm):
            column.append(
                exploration_budget(policy, m, t, (t - 1) + (m - 1) * last) if t > k else 0.0
            )
            if on:
                last = t
        f[:, s] = column
    state._f = f


def _select_round(state: WorldState, cfg: RunConfig, t: int) -> None:
    """Select the arms of round t into state.arms, on the stored views."""
    m = cfg.players
    # while a whole-batch merge has left the views stale, a slot's players hold
    # one view, snapshot and f, hence the same indices: player 0 selects for all
    shared = state._stale
    f = state._f[state._pos]
    f = f[0] if len(f) == 1 else np.repeat(f, state.keys.shape[0])
    count, total = state.views[:, :, : 1 if shared else m]
    arms, denom = select_batch(cfg.policy, m, f, count, total, state.snapshot[:, None])
    state.arms[:] = arms
    if cfg.policy.rule == DKLUCB:
        # the claims are checked for every player, shared or not, as one row
        n_prime = np.repeat(denom, m, axis=1) if shared else denom
        _check_claims(
            state, n_prime[:, None], cfg, count[:, None], state.totals[0][:, None],
            np.full((1, n_prime.shape[-1]), t),
        )


def _select_window(
    state: WorldState, cfg: RunConfig, ts: np.ndarray, sync: int,
    rows: np.ndarray, prefix: np.ndarray, strategy: np.ndarray, uniform_at: np.ndarray,
) -> tuple[np.ndarray, InvariantViolation | None]:
    """Advance every slot s behind the sync round by one window: select its
    rounds ts[s]+1..ts[s]+W at once, speculating that every player repeats
    its arm in state.arms, and commit them up to and including the first
    whose arms differ, or all it may commit when none does. Returns the
    rounds each slot committed and the first claim breach in them, or None.

    ts [S*R] is each slot's last committed round; rows [W+1, 1] (row i holds
    i), prefix [W, W] (row i sums the rows before i), each slot's strategy
    [S*R] and each stream's offset in a uniform block row [M, S*R] are the
    same for every window of an advance.

    Row i of a slot is its view before its round ts+1+i: the stored one plus
    i rounds of the repeated pulls, a player's own or, for a slot whose
    strategy communicated at round ts and on every round since, every pull
    of the slot, as its stored view is then the totals. Every count and sum
    is an integer below 2**53, so the rows hold exactly the floats the rounds
    would, and the index ufuncs give them the same values whatever the batch
    shape. A slot may commit the rows before the first round whose
    communication differs from its round ts's, and none past the sync round.
    """
    arms = state.arms
    _, k, m, n = state.views.shape
    slots = np.arange(n)
    w = min(len(prefix), sync - int(ts.min()))
    i = rows[:w]
    # the block's uniforms and f from round state.t + 1 on, where every slot
    # stood at the last sync, and its flags from round state.t on
    u, f, comm = (x[state._pos :] for x in (state._block, state._f, state._comm))
    # each slot's rows of them
    start = (ts - state.t)[None] + i
    # comm[j, s]: does slot s's strategy communicate at round ts[s] + j
    at = start[:1] + rows[: w + 1]
    comm = comm.reshape(-1).take(at * comm.shape[1] + strategy, mode="clip")
    merged = comm[0]  # the slots whose views are the totals
    changed = comm[1:] != merged
    valid = np.where(changed.any(axis=0), changed.argmax(axis=0) + 1, w)
    np.minimum(valid, np.maximum(sync - ts, 0), out=valid)
    active = valid > 0
    if state._stale and not (merged | ~active).all():
        # views left stale by a merge are private from now on
        state._sync_views()
    lanes = 1 if state._stale else m
    u = u.reshape(-1).take(start[:, None] * u[0].size + uniform_at, mode="clip")
    column = strategy if f.shape[1] > 1 else 0
    f = f.reshape(-1).take(start * f.shape[1] + column, mode="clip")
    pulled = arms == np.arange(k)[:, None, None]
    won = np.less(u, state.means.take(arms, mode="clip"), out=np.empty(u.shape))
    steps = i[:, :, None]
    if any_merged := merged.any():
        # a merged slot's players hold one view, the totals, which gains every
        # pull of the slot; its rows take every player to repeat player 0's
        # arm, and when one did not, their one view makes it switch in the
        # slot's first row
        np.copyto(pulled, pulled[:, :1], where=merged)
        won = np.where(merged, won.sum(axis=1, keepdims=True), won)
        steps = steps * np.where(merged, float(m), 1.0)
    pulled = pulled[:, None, :lanes]
    # the pulls [0] and wins [1] of each arm in a slot's first i rounds, row i,
    # if every arm repeats: [2, K, W, M or 1, S*R]
    added = np.empty((2, k, w, lanes, n))
    np.multiply(steps, pulled, out=added[0])
    wins = prefix[:w, :w] @ won[:, :lanes].reshape(w, -1)
    np.multiply(wins.reshape(w, lanes, n), pulled, out=added[1])
    # [0]: the counts, [1]: the reward sums
    views = state.views[:, :, None, :lanes] + added
    counts, sums = views[0], views[1]

    def team(added):
        """The pulls or wins per slot in added [..., M or 1, S*R]: player 0's
        where a slot is merged, as they count all of its pulls."""
        summed = added.sum(axis=-2)
        if any_merged:
            np.copyto(summed, added[..., 0, :], where=merged)
        return summed

    snap = state.snapshot[:, None, None]
    if cfg.policy.rule == DKLUCB and any_merged:
        # a merged slot's snapshot is its view's counts
        snap = np.where(merged, counts[:, :, :1], snap)
    chosen, denom = select_batch(cfg.policy, m, f[:, None], counts, sums, snap)
    # every player's arm: a merge can leave players of one view on different arms
    differs = (chosen != arms).any(axis=1) & (i < valid)
    first = differs.argmax(axis=0)
    # the row each slot commits up to: its first switch, else its last valid
    # row (-1 for a slot at the sync round)
    last = np.where(differs[first, slots], first, valid - 1)
    breach = None
    if cfg.policy.rule == DKLUCB:
        n_prime = denom if lanes == m else np.repeat(denom, m, axis=2)
        totals = state.totals[0][:, None] + team(added[0]).astype(np.int64)
        rounds = np.where(i <= last, ts + 1 + i, 0)
        try:
            _check_claims(state, n_prime, cfg, counts, totals, rounds)
        except InvariantViolation as exc:
            breach = exc
    if state._actions is not None:
        row, slot = np.nonzero(i <= last)
        state._actions[ts[slot] + row, slot] = chosen[row, :, slot]
    # the e rows before each slot's last repeated every arm: its row e is the
    # view after them
    e = np.maximum(last, 0)
    added = np.moveaxis(added[:, :, e, :, slots], 0, -1)
    state.views[:, :, :lanes] += added
    np.add(state.totals, team(added), out=state.totals, casting="unsafe")
    if any_merged:
        np.copyto(state.snapshot, state.views[0, :, 0], where=merged)
    # the last row is a round of its own: its arms, its uniforms, its merge
    np.copyto(arms, chosen[e, :, slots].T, where=active)
    merging = comm[e + 1, slots] & active
    _commit_round(state, u[e, :, slots].T.reshape(m, len(state.schedules), -1), merging, active)
    return last + 1, breach


def _commit_round(
    state: WorldState, u: np.ndarray, merging: np.ndarray, active: np.ndarray | None = None
) -> None:
    """Commit a round of the active slots (every slot by default): apply the
    pulls of state.arms, with their uniforms u [M, S, R] (broadcast), to the
    totals and views, and merge the views of the merging ones. merging and
    active are bool [S*R]."""
    arms = state.arms
    _, k, m, n = state.views.shape
    every = active is None or active.all()
    p = state.means.take(arms, mode="clip")
    rewards = (u < p.reshape(m, len(state.schedules), -1)).reshape(m, n)
    # every slot that moves merges, and the views of the others are stale or
    # there are none: player 0's view stands for all
    whole = merging.all() if every else state._stale and (merging == active).all()
    if whole and every and state._stale:
        # the players of a slot pulled its one arm, selected once per slot,
        # and the views are about to be overwritten: add the slot's M pulls
        # and its winners at once
        flat = arms[0] * n + np.arange(n)
        state.totals[0].reshape(-1)[flat] += m
        state.totals[1].reshape(-1)[flat] += rewards.sum(axis=0)
    else:
        # [0]: (player, slot) pulled arm a, [1]: and won
        pulled = np.empty((2, k, m, n), dtype=bool)
        np.equal(arms, np.arange(k)[:, None, None], out=pulled[0])
        if not every:
            pulled[0] &= active
        np.logical_and(pulled[0], rewards, out=pulled[1])
        # players of one slot may pick the same arm: sum their pulls first
        state.totals += np.add.reduce(pulled, axis=2)
    if not whole:
        state._sync_views()
        state.views += pulled
    if whole and every:
        merge_views(state)
    elif merging.any():
        # a merge by slot mask; while the views are stale player 0's stands for all
        views = state.views[:, :, :1] if state._stale else state.views
        np.copyto(views, state.totals[:, :, None], where=merging)
        np.copyto(state.snapshot, state.totals[0], where=merging)


def _advance(state: WorldState, cfg: RunConfig, w: int) -> int:
    """Advance the batch by up to w rounds (in place) and return how many;
    see the module docstring."""
    if state.t >= cfg.horizon:
        raise ValueError(f"horizon {cfg.horizon} already reached")
    t = state.t + 1
    u = _next_uniforms(state, cfg.horizon - state.t)
    if state._pos == 0:
        # a refill: no round of the block is read yet
        _fill_budgets(state, cfg)
    if t <= state.views.shape[1]:
        # some arm is still unsampled, identically across the batch: the
        # unpulled-arm rule forces arm t-1 for every player
        state.arms.fill(t - 1)
    elif w == 1 or _window_cap(state) == 1:
        _select_round(state, cfg, t)
    else:
        # every slot advances to the sync round on its own rounds
        _, _, m, n = state.views.shape
        r_n, cap = state.keys.shape[0], _window_cap(state)
        slots = np.arange(n)
        rows, prefix = np.arange(cap + 1)[:, None], np.tri(cap, cap, -1)
        strategy, uniform_at = slots // r_n, np.arange(m)[:, None] * r_n + slots % r_n
        ts, sync, breach = np.full(n, state.t), state.t + min(w, len(u)), None
        while ts.min() < sync:
            committed, found = _select_window(
                state, cfg, ts, sync, rows, prefix, strategy, uniform_at
            )
            ts += committed
            # a breach is reported once every slot has passed its round, as a
            # slot behind may break a claim at an earlier round
            if found is not None and (breach is None or found.order < breach.order):
                breach, sync = found, min(sync, found.order[0])
        if breach is not None:
            raise breach
        w = sync - state.t
        state.t = sync
        state._pos += w
        return w
    # every strategy reads the same [M, R] uniforms
    merging = np.repeat(state._comm[state._pos + 1], state.keys.shape[0])
    _commit_round(state, u[0][:, None], merging)
    if state._actions is not None:
        state._actions[t - 1] = state.arms.T
    state.t = t
    state._pos += 1
    return 1


def step(state: WorldState, cfg: RunConfig) -> WorldState:
    """Advance the batch by one round (in place); see the module docstring."""
    _advance(state, cfg, 1)
    return state


def _window_cap(state: WorldState) -> int:
    """The most rounds a window of this batch spans: _WINDOW_ROUNDS when that
    many [K, M, S*R] float64 rows fit in _WINDOW_BYTES, else 1."""
    _, k, m, n = state.views.shape
    return _WINDOW_ROUNDS if _WINDOW_ROUNDS * 8 * k * m * n <= _WINDOW_BYTES else 1


def _simulate(cfgs, replication_indices, record_actions: bool = False):
    """The round loop for one batch: the configs, equal but for their
    schedules, are stacked strategy-major over the replications. Returns the
    int64 global counts at the checkpoints, [C, S*R, K], and the selected
    arms, [horizon, S*R, M] (None without record_actions).

    Every checkpoint is a sync round: a batch that fits a window advances to
    the next one by _advance, whose slots run on their own rounds in between,
    and a wider batch advances round by round. init_state and _advance are
    called through the module globals, so rebinding them (as timing shims do)
    reaches this loop; rebinding step does not."""
    cfg = cfgs[0]
    state = init_state(cfg, replication_indices, schedules=[c.schedule for c in cfgs])
    _, k, m, n = state.views.shape
    counts = np.zeros((len(cfg.checkpoints), n, k), dtype=np.int64)
    if record_actions:
        state._actions = np.zeros((cfg.horizon, n, m), np.int64)
    for slot, stop in enumerate((*cfg.checkpoints, cfg.horizon)):
        while state.t < stop:
            _advance(state, cfg, stop - state.t)
        if slot < len(counts):
            counts[slot] = state.totals[0].T
    return counts, state._actions


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

