"""Golden trajectory checksums: sha256 digests of exact simulator output over a
small grid of every rule, schedule kind, player count and arm count.

A refactor or optimisation of the engine, the policies or the schedules must
leave every digest unchanged; a moved digest means some simulated trajectory
moved. The values were recorded once and are never regenerated to make a
change pass.
"""

import hashlib

import numpy as np

from distbandit.cli import main
from distbandit.core import BernoulliArmModel, ExplorationFunction
from distbandit.engine import RunConfig, run_strategies
from distbandit.policies import DKLUCB, KLUCB, UCB, PolicySpec
from distbandit.schedule import CommunicationSchedule as CS

REPLICATIONS = 4
HORIZON = 300

POLICIES = {
    "ucb-ln2t": PolicySpec(UCB, ExplorationFunction.ln2t()),
    "ucb-standard": PolicySpec(UCB),
    "klucb": PolicySpec(KLUCB),
    "dklucb-0": PolicySpec(DKLUCB, alpha=0.0),
    "dklucb-0.5": PolicySpec(DKLUCB, alpha=0.5),
}

# every schedule kind; one run_strategies call fuses all seven
SCHEDULES = (
    CS.none(),
    CS.full(),
    CS.oneshot(17),
    CS.linear(7),
    CS.exponential(1.5),
    CS.double_exponential(2.0, 1.0),
    CS.explicit([3, 10, 50, 200]),
)

# exact ties (between best arms too), and means of 0 and 1
MEANS = (
    (0.6, 0.6),
    (1.0, 0.0, 0.5, 0.5, 0.9),
    (0.0, 0.15, 0.3, 0.45, 0.6, 0.6, 0.7, 0.8, 0.85, 0.85),
)

CHECKPOINTS = (1, 2, 7, 17, 64, 150, 299, 300)

# sha256 of the '<i8' checkpoint count totals, per policy over every
# (M, K, schedule) in grid order
TRAJECTORY_SHA256 = {
    "ucb-ln2t": "b130f06fc4258c2a45f806181d479400a7d56f80dbd77bd838737274125e6529",
    "ucb-standard": "38a1c8bcacfc4b45d4ba467e2c3738261688a4c454e6aa31efb09c4eeaa6a1ae",
    "klucb": "697dc9da111e32d6f66706d96ab87777072214a06a01edb30378a638db3098f7",
    "dklucb-0": "0cb1b96dc36ba6343408d3c2770156eeaa9f940bd3f1d259b8480da7a417f147",
    "dklucb-0.5": "cfc36a48c3160d2d19f4c577eb3de2db7c05b190cae267b40c47d30de920507f",
}

# sha256 as above over M in {1, 3} and K in {2, 10}, for full alone and for
# full fused with linear:1: every strategy of the batch merges on every round,
# which the fused grid above never does
MERGING_SCHEDULES = ((CS.full(),), (CS.full(), CS.linear(1)))
MERGING_SHA256 = {
    "ucb-ln2t": "bfc3174578d8d5662a59936c80635e2494d4bd8a9d6ed07f1143019ccfd22045",
    "ucb-standard": "de9b050dcda2b451ed86631d7fa413bad944772f9ce708b56680dc6125b6b9f3",
    "klucb": "2e9213a6f2a48932bc0996f013e51f07444861f8253f5856ef8919f1ec4a9920",
    "dklucb-0": "67446470e65624338dc72a702a108517083c8d5554122224eb19a551b06786ea",
    "dklucb-0.5": "1eb4b99762caeae679efa478293b8750013e82ef870e14e37baead7f95fb6b1d",
}

FIGURE1_COMBINED_SHA256 = (
    "cf81a8c8438fe995187de6d20232ef2a5a72277138d4bd012a5481b084d158e4"
)


def _policy_digest(policy, arm_sets=MEANS, groups=(SCHEDULES,)):
    """sha256 over (M, arm set, group of fused schedules) in grid order."""
    digest = hashlib.sha256()
    for players in (1, 3):
        for means in arm_sets:
            for schedules in groups:
                cfgs = [
                    RunConfig(
                        arm_model=BernoulliArmModel(means),
                        players=players,
                        horizon=HORIZON,
                        schedule=schedule,
                        policy=policy,
                        seed=7,
                        checkpoints=CHECKPOINTS,
                        replications=REPLICATIONS,
                    )
                    for schedule in schedules
                ]
                for agg in run_strategies(cfgs):
                    # the means are exact quarters of int64 totals
                    totals = agg.mean_counts * REPLICATIONS
                    assert np.array_equal(totals, np.round(totals))
                    digest.update(totals.astype("<i8").tobytes())
    return digest.hexdigest()


def test_trajectory_checksums():
    got = {name: _policy_digest(policy) for name, policy in POLICIES.items()}
    assert got == TRAJECTORY_SHA256


def test_merge_every_round_checksums():
    got = {
        name: _policy_digest(policy, (MEANS[0], MEANS[2]), MERGING_SCHEDULES)
        for name, policy in POLICIES.items()
    }
    assert got == MERGING_SHA256


def test_figure1_combined_csv_checksum(tmp_path):
    argv = ["--preset", "figure1", "--replications", "2", "--out", str(tmp_path)]
    assert main(argv) == 0
    got = hashlib.sha256((tmp_path / "combined.csv").read_bytes()).hexdigest()
    assert got == FIGURE1_COMBINED_SHA256
