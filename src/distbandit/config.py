"""Experiment configuration: INI-style parsing, validation that reports every
error at once, and the bundled figure-1 preset. Either way an experiment is
its named engine RunConfigs, one per strategy.

Document format (all keys shown; exploration, alpha, seed, replications,
checkpoints, bounds, and out are optional; a ';' after a space starts a comment):

    [experiment]
    means = 0.9, 0.8
    players = 2
    horizon = 65536
    policy = dklucb           ; ucb | klucb | dklucb
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
import math
import re
from dataclasses import dataclass, replace

from .core import STANDARD, BernoulliArmModel, ExplorationFunction, _as_unit, _at_least, _number
from .engine import _FLOORS, RunConfig, _checkpoints
from .policies import DKLUCB, UCB, PolicySpec
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
    """A validated experiment: one named engine RunConfig per strategy, in file
    order. The runs share one arm model, seed and replication count, so their
    random draws are common, and differ only in schedule (and a dklucb run's
    alpha, which follows its schedule)."""

    runs: tuple[tuple[str, RunConfig], ...]
    bounds: bool = False
    out: str | None = None


def experiment_runs(cfg: ExperimentConfig) -> list[tuple[str, RunConfig]]:
    """The config's (name, RunConfig) pairs, in file order."""
    return list(cfg.runs)


def _build_runs(
    strategies, *, policy: PolicySpec, density_alpha: bool = False, **shared
) -> tuple[tuple[str, RunConfig], ...]:
    """One RunConfig per (name, schedule), all with the RunConfig fields in
    `shared` (one arm model object among them). A dklucb run uses policy's
    alpha, or with density_alpha its schedule's exact density."""
    runs = []
    for name, schedule in strategies:
        spec = policy
        if policy.rule == DKLUCB and density_alpha:
            spec = replace(policy, alpha=schedule.density())
        runs.append((name, RunConfig(schedule=schedule, policy=spec, **shared)))
    return tuple(runs)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document, collecting every error.

    Each [experiment] value is converted from text and handed to the rule of
    the type that owns it; a rule's message is reported as
    "[experiment] <key>: <message>". Raises ConfigError carrying the full list
    of problems; returns the validated ExperimentConfig otherwise.
    """
    errors: list[str] = []
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"malformed config document: {exc}"]) from exc

    if not parser.has_section("experiment"):
        raise ConfigError(["missing [experiment] section"])

    exp = dict(parser.items("experiment"))
    for key in sorted(set(exp) - _EXPERIMENT_KEYS):
        errors.append(f"[experiment] unknown key {key!r}")
    for key in ("means", "players", "horizon", "policy"):
        if key not in exp:
            errors.append(f"[experiment] {key} is required")
    exp = {"exploration": STANDARD, "seed": "0", "replications": "1", **exp}

    def judged(key: str, rule):
        """rule(value of key), or None when the key is absent or the rule
        raises; its message is then recorded under the key."""
        if key in exp:
            try:
                return rule(exp[key])
            except (TypeError, ValueError) as exc:
                errors.append(f"[experiment] {key}: {exc}")
        return None

    arm_model = judged(
        "means", lambda raw: BernoulliArmModel(tuple(_number(float, p) for p in raw.split(",")))
    )
    ints = {
        key: judged(key, lambda raw: _at_least(key, _number(int, raw), floor))
        for key, floor in _FLOORS.items()
    }
    # the rule is judged on the standard form when the exploration failed,
    # and on the default alpha when none was read
    exploration = judged("exploration", ExplorationFunction) or ExplorationFunction.standard()
    alpha = judged("alpha", lambda raw: _as_unit("alpha", _number(float, raw)))
    policy = judged(
        "policy", lambda rule: PolicySpec(rule, exploration, 1.0 if alpha is None else alpha)
    )
    horizon = math.inf if ints["horizon"] is None else ints["horizon"]
    checkpoints = judged(
        "checkpoints",
        lambda raw: _checkpoints([_number(int, p) for p in raw.split(",")], horizon),
    )

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
            policy is not None
            and policy.rule == DKLUCB
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
    try:
        runs = _build_runs(
            strategies,
            policy=policy,
            density_alpha=alpha is None,
            arm_model=arm_model,
            checkpoints=checkpoints or (),
            **ints,
        )
    except ValueError as exc:  # RunConfig's own checks, such as horizon * players < 2**53
        raise ConfigError([str(exc)]) from exc
    return ExperimentConfig(runs, bounds=bounds, out=exp.get("out"))


def figure1_preset(replications: int = 1000, seed: int = 42) -> ExperimentConfig:
    """The bundled two-player experiment: arms (0.9, 0.8), horizon 2^16,
    UCB indices with the ln(2t) exploration approximation, and five
    communication strategies on common random numbers.

    The default seed gives curve separations representative of many-seed
    behavior (the full-vs-A gap is small relative to Monte Carlo noise at
    1000 replications, so some seeds blur it).
    """
    strategies = (
        ("none", CommunicationSchedule.none()),
        ("full", CommunicationSchedule.full()),
        ("A", CommunicationSchedule.explicit([4096])),
        ("B", CommunicationSchedule.explicit([16, 256, 4096])),
        ("C", CommunicationSchedule.explicit(range(1, 4097))),
    )
    runs = _build_runs(
        strategies,
        policy=PolicySpec(UCB, ExplorationFunction.ln2t()),
        arm_model=BernoulliArmModel((0.9, 0.8)),
        players=2,
        horizon=1 << 16,
        seed=seed,
        replications=replications,
        checkpoints=tuple(1 << e for e in range(4, 17)),
    )
    return ExperimentConfig(runs)
