"""Experiment configuration: INI-style parsing, validation that reports every
error at once, and the bundled figure-1 preset.

Document format (all keys shown; exploration, alpha, seed, replications,
checkpoints, bounds, and out are optional):

    [experiment]
    means = 0.9, 0.8
    players = 2
    horizon = 65536
    policy = klucb            ; ucb | klucb | dklucb
    exploration = standard    ; standard | ln2t
    alpha = 0.5               ; dklucb only; defaults to the schedule density
    seed = 0
    replications = 1
    checkpoints = 16, 256, 4096
    bounds = false
    out = results

    [strategy full]
    schedule = full

One [strategy <name>] section per communication strategy; every strategy runs
on the same arm model and seed so their random draws are common.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass

from .core import LN2T, STANDARD, VARIANTS, BernoulliArmModel, ExplorationFunction
from .engine import RunConfig
from .policies import DKLUCB, RULES, UCB, PolicySpec
from .schedule import ONESHOT, CommunicationSchedule, parse_schedule

_EXPERIMENT_KEYS = frozenset(
    {
        "means",
        "players",
        "horizon",
        "policy",
        "exploration",
        "alpha",
        "seed",
        "replications",
        "checkpoints",
        "bounds",
        "out",
    }
)
_STRATEGY_KEYS = frozenset({"schedule"})


class ConfigError(ValueError):
    """Raised with the complete list of configuration problems."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated multi-strategy experiment description."""

    arm_model: BernoulliArmModel
    players: int
    horizon: int
    policy: str
    exploration: ExplorationFunction
    alpha: float | None
    seed: int
    replications: int
    checkpoints: tuple[int, ...]
    strategies: tuple[tuple[str, CommunicationSchedule], ...]
    bounds: bool = False
    out: str | None = None


def resolve_alpha(schedule: CommunicationSchedule, alpha: float | None) -> float:
    """The density parameter a dklucb run uses for this schedule: the
    configured value when given, otherwise the schedule's exact density."""
    if alpha is not None:
        return alpha
    return schedule.density()


def experiment_runs(cfg: ExperimentConfig) -> list[tuple[str, RunConfig]]:
    """Expand the config into one engine RunConfig per strategy."""
    runs = []
    for name, schedule in cfg.strategies:
        if cfg.policy == DKLUCB:
            policy = PolicySpec(DKLUCB, alpha=resolve_alpha(schedule, cfg.alpha))
        else:
            policy = PolicySpec(cfg.policy, cfg.exploration)
        runs.append(
            (
                name,
                RunConfig(
                    arm_model=cfg.arm_model,
                    players=cfg.players,
                    horizon=cfg.horizon,
                    schedule=schedule,
                    policy=policy,
                    seed=cfg.seed,
                    checkpoints=cfg.checkpoints,
                    replications=cfg.replications,
                ),
            )
        )
    return runs


def _parse_means(raw: str, errors: list[str]) -> BernoulliArmModel | None:
    means = []
    ok = True
    for part in raw.split(","):
        part = part.strip()
        try:
            value = float(part)
        except ValueError:
            errors.append(f"[experiment] means: {part!r} is not a number")
            ok = False
            continue
        if not 0.0 <= value <= 1.0:
            errors.append(f"[experiment] means: value {part} outside [0, 1]")
            ok = False
            continue
        means.append(value)
    return BernoulliArmModel(tuple(means)) if ok else None


def _parse_int(section: str, key: str, raw: str, minimum: int, errors: list[str]):
    try:
        value = int(raw)
    except ValueError:
        errors.append(f"[{section}] {key}: {raw!r} is not an integer")
        return None
    if value < minimum:
        errors.append(f"[{section}] {key}: must be >= {minimum}, got {value}")
        return None
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document, collecting every error.

    Raises ConfigError carrying the full list of problems; returns the
    validated ExperimentConfig otherwise.
    """
    errors: list[str] = []
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"malformed config document: {exc}"]) from exc

    if not parser.has_section("experiment"):
        raise ConfigError(["missing [experiment] section"])

    exp = dict(parser.items("experiment"))
    for key in sorted(set(exp) - _EXPERIMENT_KEYS):
        errors.append(f"[experiment] unknown key {key!r}")

    arm_model = None
    if "means" in exp:
        arm_model = _parse_means(exp["means"], errors)
    else:
        errors.append("[experiment] means is required")

    players = horizon = None
    if "players" in exp:
        players = _parse_int("experiment", "players", exp["players"], 1, errors)
    else:
        errors.append("[experiment] players is required")
    if "horizon" in exp:
        horizon = _parse_int("experiment", "horizon", exp["horizon"], 1, errors)
    else:
        errors.append("[experiment] horizon is required")

    policy = exp.get("policy")
    if policy is None:
        errors.append("[experiment] policy is required")
    elif policy not in RULES:
        errors.append(
            f"[experiment] policy: unknown rule {policy!r}; expected one of {RULES}"
        )
        policy = None

    exploration_name = exp.get("exploration", STANDARD)
    exploration = ExplorationFunction.standard()
    if exploration_name not in VARIANTS:
        errors.append(
            f"[experiment] exploration: unknown variant {exploration_name!r}; "
            f"expected one of {VARIANTS}"
        )
    elif exploration_name == LN2T:
        if policy == DKLUCB:
            errors.append(
                "[experiment] exploration: dklucb fixes its own exploration "
                "function and cannot use ln2t"
            )
        else:
            exploration = ExplorationFunction.ln2t()

    alpha = None
    if "alpha" in exp:
        if policy is not None and policy != DKLUCB:
            errors.append("[experiment] alpha: only meaningful with policy = dklucb")
        try:
            alpha = float(exp["alpha"])
        except ValueError:
            errors.append(f"[experiment] alpha: {exp['alpha']!r} is not a number")
        else:
            if not 0.0 <= alpha <= 1.0:
                errors.append(f"[experiment] alpha: must be in [0, 1], got {alpha}")
                alpha = None

    seed = _parse_int("experiment", "seed", exp.get("seed", "0"), 0, errors)
    replications = _parse_int(
        "experiment", "replications", exp.get("replications", "1"), 1, errors
    )

    checkpoints: tuple[int, ...] = ()
    if "checkpoints" in exp:
        parsed = [
            _parse_int("experiment", "checkpoints", part.strip(), 1, errors)
            for part in exp["checkpoints"].split(",")
        ]
        if None not in parsed:
            if sorted(set(parsed)) != parsed:
                errors.append("[experiment] checkpoints: must be strictly increasing")
            elif horizon is not None and parsed[-1] > horizon:
                errors.append(
                    f"[experiment] checkpoints: {parsed[-1]} exceeds the horizon {horizon}"
                )
            else:
                checkpoints = tuple(parsed)

    bounds = False
    if "bounds" in exp:
        flag = parser.BOOLEAN_STATES.get(exp["bounds"].strip().lower())
        if flag is None:
            errors.append(f"[experiment] bounds: {exp['bounds']!r} is not a boolean")
        else:
            bounds = flag

    strategies: list[tuple[str, CommunicationSchedule]] = []
    for section in parser.sections():
        if section == "experiment":
            continue
        if not section.startswith("strategy ") or not section[len("strategy ") :].strip():
            errors.append(
                f"unknown section [{section}]; expected [experiment] or [strategy <name>]"
            )
            continue
        name = section[len("strategy ") :].strip()
        if not re.fullmatch(r"[A-Za-z0-9._-]+", name) or name.lower() == "combined":
            errors.append(
                f"[{section}] strategy names are limited to letters, digits, "
                "'.', '_' and '-', other than 'combined' (the name becomes an output file)"
            )
            continue
        body = dict(parser.items(section))
        for key in sorted(set(body) - _STRATEGY_KEYS):
            errors.append(f"[{section}] unknown key {key!r}")
        if "schedule" not in body:
            errors.append(f"[{section}] schedule is required")
            continue
        try:
            schedule = parse_schedule(body["schedule"])
        except ValueError as exc:
            errors.append(f"[{section}] schedule: {exc}")
            continue
        strategies.append((name, schedule))
        if (
            policy == DKLUCB
            and alpha is None
            and (schedule.density_is_estimate or schedule.kind == ONESHOT)
        ):
            errors.append(
                f"[{section}]: dklucb needs an explicit [experiment] alpha for "
                "schedules without a closed-form density"
            )

    if not strategies and not errors:
        errors.append("config needs at least one [strategy <name>] section")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        arm_model=arm_model,
        players=players,
        horizon=horizon,
        policy=policy,
        exploration=exploration,
        alpha=alpha,
        seed=seed,
        replications=replications,
        checkpoints=checkpoints,
        strategies=tuple(strategies),
        bounds=bounds,
        out=exp.get("out"),
    )


def figure1_preset(replications: int = 1000, seed: int = 42) -> ExperimentConfig:
    """The bundled two-player experiment: arms (0.9, 0.8), horizon 2^16,
    UCB indices with the ln(2t) exploration approximation, and five
    communication strategies on common random numbers.

    The default seed gives curve separations representative of many-seed
    behavior (the full-vs-A gap is small relative to Monte Carlo noise at
    1000 replications, so some seeds blur it).
    """
    horizon = 1 << 16
    strategies = (
        ("none", CommunicationSchedule.none()),
        ("full", CommunicationSchedule.full()),
        ("A", CommunicationSchedule.explicit([4096])),
        ("B", CommunicationSchedule.explicit([16, 256, 4096])),
        ("C", CommunicationSchedule.explicit(range(1, 4097))),
    )
    return ExperimentConfig(
        arm_model=BernoulliArmModel((0.9, 0.8)),
        players=2,
        horizon=horizon,
        policy=UCB,
        exploration=ExplorationFunction.ln2t(),
        alpha=None,
        seed=seed,
        replications=replications,
        checkpoints=tuple(1 << e for e in range(4, 17)),
        strategies=strategies,
    )
