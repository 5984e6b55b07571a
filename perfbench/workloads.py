"""The benchmark's workloads: the inputs each builds from a seed, the timed job,
and the check that the job's output is exactly what the seed commit produced.

Every job is a closed loop with one caller: the benchmark calls the package,
waits for the result, checks it, and only then starts the next job.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from distbandit import cli, engine, experiment_runs, figure1_preset, parse_config

# Simulator seeds the jobs draw from. expected.json holds the checksums of every
# entry, so every job's output is checked exactly, whatever --seed selects.
SEED_TABLE = tuple(range(1, 17))
# Checksummed like the table but never used by a default run: confirm a claim
# on it with --held-out, on inputs that no tuning saw.
HELD_OUT_SEED = 1009

FIGURE1_REPLICATIONS = 10

_KLUCB_INI = """
[experiment]
means = 0.9, 0.8
players = 2
horizon = {horizon}
policy = dklucb
seed = {seed}
replications = {replications}
[strategy doubleexp]
schedule = doubleexp:2,1
"""

_WIDE_INI = """
[experiment]
means = 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55, 0.5, 0.45
players = 4
horizon = {horizon}
policy = ucb
exploration = standard
seed = {seed}
replications = {replications}
[strategy full]
schedule = full
"""


@dataclass
class JobOutput:
    """What a job produced, in the form the check compares."""

    counts: np.ndarray  # int64 [strategy, checkpoint, arm]: pulls summed over replications
    csv_sha256: str | None = None
    csv_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list]  # simulator seed -> [(strategy, RunConfig)]
    run: Callable[[list, Path], Any]  # the timed job; writes only under the directory
    collect: Callable[[list, Any, Path], JobOutput]  # untimed: read what run produced


def describe(runs) -> list[dict]:
    """R, M, K and T of every strategy, for provenance and the size check."""
    return [
        {
            "strategy": name,
            "R": cfg.replications,
            "M": cfg.players,
            "K": cfg.arm_model.k,
            "T": cfg.horizon,
        }
        for name, cfg in runs
    ]


def rep_rounds(runs) -> int:
    """Replication-rounds one job simulates: the sum over strategies of R*T."""
    return sum(cfg.replications * cfg.horizon for _, cfg in runs)


def counts_sha256(counts: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(counts, dtype="<i8").tobytes()).hexdigest()


def _totals(agg) -> np.ndarray:
    # mean_counts is an exact integer total divided by R, so this inverts it exactly
    return np.rint(agg.mean_counts * agg.replications).astype(np.int64)


def _ini_workload(name: str, text: str, horizon: int, replications: int):
    def build(seed: int) -> list:
        return experiment_runs(
            parse_config(text.format(seed=seed, horizon=horizon, replications=replications))
        )

    def run(runs, workdir):
        return [engine.run_monte_carlo(cfg) for _, cfg in runs]

    def collect(runs, aggs, workdir):
        return JobOutput(counts=np.stack([_totals(agg) for agg in aggs]))

    return Workload(name, build, run, collect)


def _figure1_build(seed: int) -> list:
    return experiment_runs(figure1_preset(replications=FIGURE1_REPLICATIONS, seed=seed))


def _figure1_run(runs, workdir: Path) -> str:
    argv = [
        "--preset", "figure1",
        "--replications", str(runs[0][1].replications),
        "--seed", str(runs[0][1].seed),
        "--out", str(workdir),
        "--bounds",
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"distbandit cli exited with code {code}")
    return out.getvalue()


def _figure1_collect(runs, stdout: str, workdir: Path) -> JobOutput:
    missing = [name for name, _ in runs if f"[{name}]" not in stdout]
    if missing:
        raise RuntimeError(f"no --bounds output for strategies {missing}")
    digest = hashlib.sha256()
    nbytes = 0
    for path in sorted(workdir.glob("*.csv")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        nbytes += len(data)
    names = [name for name, _ in runs]
    cfg = runs[0][1]
    slot = {t: i for i, t in enumerate(cfg.checkpoints)}
    counts = np.full((len(names), len(slot), cfg.arm_model.k), -1, dtype=np.int64)
    with open(workdir / "combined.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            counts[names.index(row["strategy"]), slot[int(row["t"])], int(row["arm"]) - 1] = (
                round(float(row["mean_pulls"]) * cfg.replications)
            )
    return JobOutput(counts=counts, csv_sha256=digest.hexdigest(), csv_bytes=nbytes)


# Why each workload is here is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("figure1", _figure1_build, _figure1_run, _figure1_collect),
        _ini_workload("klucb-doubleexp", _KLUCB_INI, horizon=4096, replications=32),
        _ini_workload("wide-full", _WIDE_INI, horizon=512, replications=4000),
    )
}


def check(workload: Workload, seed: int, runs, output: JobOutput, expected: dict) -> list[str]:
    """Problems with a job's output; empty when it matches the seed commit."""
    problems = []
    entry = expected.get(workload.name)
    if entry is None:
        return [f"expected.json has no entry for workload {workload.name!r}"]
    if entry["sizes"] != describe(runs):
        problems.append(f"workload sizes {describe(runs)} differ from expected {entry['sizes']}")
    cfg = runs[0][1]
    pulls_per_round = cfg.replications * cfg.players
    for s, (name, _) in enumerate(runs):
        for c, t in enumerate(cfg.checkpoints):
            total = int(output.counts[s, c].sum())
            if total != pulls_per_round * t or output.counts[s, c].min() < 0:
                problems.append(
                    f"{name}: counts at t={t} sum to {total}, not R*M*t={pulls_per_round * t}"
                )
    want = entry["seeds"].get(str(seed))
    if want is None:
        return problems + [f"expected.json has no checksums for seed {seed}"]
    got = {"counts_sha256": counts_sha256(output.counts)}
    if output.csv_sha256 is not None:
        got["csv_sha256"] = output.csv_sha256
    for key, value in want.items():
        if got.get(key) != value:
            problems.append(f"{key} {got.get(key)} differs from expected {value} (seed {seed})")
    return problems
