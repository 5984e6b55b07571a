"""Tests for config parsing (all-errors reporting), the bundled preset, and
the command-line runner's files, exit codes, and determinism."""

import csv
import logging

import pytest

from distbandit import cli
from distbandit.cli import main
from distbandit.config import (
    ConfigError,
    experiment_runs,
    figure1_preset,
    parse_config,
)
from distbandit.core import LN2T, STANDARD
from distbandit.engine import InvariantViolation
from distbandit.policies import DKLUCB, KLUCB, UCB

MINIMAL = """
[experiment]
means = 0.9, 0.8
players = 2
horizon = 1024
policy = klucb

[strategy full]
schedule = full
"""


def errors_of(text):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return exc.value.errors


class TestParseConfig:
    def test_minimal_document(self):
        cfg = parse_config(MINIMAL)
        assert cfg.arm_model.means == (0.9, 0.8)
        assert cfg.players == 2
        assert cfg.horizon == 1024
        assert cfg.policy == KLUCB
        assert cfg.exploration.variant == STANDARD
        assert cfg.alpha is None
        assert cfg.seed == 0
        assert cfg.replications == 1
        assert cfg.checkpoints == ()
        assert cfg.bounds is False
        assert cfg.out is None
        assert len(cfg.strategies) == 1
        name, schedule = cfg.strategies[0]
        assert name == "full" and schedule.kind == "full"

    def test_all_keys(self):
        cfg = parse_config(
            """
            [experiment]
            means = 0.5
            players = 3
            horizon = 64
            policy = ucb
            exploration = ln2t
            seed = 7
            replications = 4
            checkpoints = 2, 8, 64
            bounds = true
            out = results

            [strategy sparse]
            schedule = doubleexp:2,1
            """
        )
        assert cfg.exploration.variant == LN2T
        assert cfg.seed == 7 and cfg.replications == 4
        assert cfg.checkpoints == (2, 8, 64)
        assert cfg.bounds is True and cfg.out == "results"

    def test_collects_every_error(self):
        errors = errors_of(
            """
            [experiment]
            means = 0.9, 1.2
            players = 0
            horizon = 1024
            policy = klucb
            color = blue

            [strategy bad]
            schedule = oneshot:0

            [strategy worse]
            schedule = gossip:5
            """
        )
        text = "\n".join(errors)
        assert len(errors) == 5
        assert "1.2" in text  # offending mean value named
        assert "players" in text
        assert "color" in text
        assert "oneshot" in text
        assert "gossip" in text

    def test_oneshot_zero_rejected(self):
        errors = errors_of(MINIMAL.replace("schedule = full", "schedule = oneshot:0"))
        assert any("oneshot" in e and ">= 1" in e for e in errors)

    def test_missing_required_keys(self):
        errors = errors_of("[experiment]\npolicy = ucb\n\n[strategy s]\nschedule = full\n")
        text = "\n".join(errors)
        assert "means is required" in text
        assert "players is required" in text
        assert "horizon is required" in text

    def test_missing_experiment_section(self):
        assert "missing [experiment]" in errors_of("[strategy s]\nschedule = full\n")[0]

    def test_needs_a_strategy(self):
        errors = errors_of(MINIMAL.split("[strategy full]")[0])
        assert any("at least one [strategy" in e for e in errors)

    def test_strategy_without_schedule(self):
        errors = errors_of(MINIMAL + "\n[strategy empty]\nhello = 1\n")
        text = "\n".join(errors)
        assert "schedule is required" in text and "hello" in text

    def test_unknown_section(self):
        errors = errors_of(MINIMAL + "\n[plotting]\nx = 1\n")
        assert any("unknown section" in e for e in errors)

    def test_hostile_strategy_name(self):
        errors = errors_of(MINIMAL + "\n[strategy ../evil]\nschedule = none\n")
        assert any("strategy name" in e for e in errors)

    @pytest.mark.parametrize("name", ["combined", "Combined", "COMBINED"])
    def test_strategy_named_combined_is_rejected(self, name):
        # its CSV would be overwritten by the combined table
        errors = errors_of(MINIMAL + f"\n[strategy {name}]\nschedule = none\n")
        assert errors == [
            f"[strategy {name}] strategy names are limited to letters, digits, "
            "'.', '_' and '-', other than 'combined' (the name becomes an output file)"
        ]

    def test_unknown_policy_and_exploration(self):
        errors = errors_of(
            MINIMAL.replace("policy = klucb", "policy = thompson\nexploration = ln3t")
        )
        text = "\n".join(errors)
        assert "thompson" in text and "ln3t" in text

    def test_dklucb_rejects_ln2t(self):
        errors = errors_of(
            MINIMAL.replace("policy = klucb", "policy = dklucb\nexploration = ln2t\nalpha = 0.5")
        )
        assert any("ln2t" in e for e in errors)

    def test_alpha_requires_dklucb(self):
        errors = errors_of(MINIMAL.replace("policy = klucb", "policy = ucb\nalpha = 0.5"))
        assert any("alpha" in e for e in errors)

    def test_alpha_range(self):
        errors = errors_of(
            MINIMAL.replace("policy = klucb", "policy = dklucb\nalpha = 1.5")
        )
        assert any("[0, 1]" in e for e in errors)

    def test_checkpoint_validation(self):
        errors = errors_of(MINIMAL.replace("horizon = 1024", "horizon = 1024\ncheckpoints = 8, 4"))
        assert any("strictly increasing" in e for e in errors)
        errors = errors_of(
            MINIMAL.replace("horizon = 1024", "horizon = 1024\ncheckpoints = 8, 2048")
        )
        assert any("exceeds the horizon" in e for e in errors)

    def test_unparsable_means_and_players(self):
        assert errors_of(MINIMAL.replace("means = 0.9, 0.8", "means =")) == [
            "[experiment] means: '' is not a number"
        ]
        assert errors_of(MINIMAL.replace("means = 0.9, 0.8", "means = 0.9, high")) == [
            "[experiment] means: 'high' is not a number"
        ]
        assert errors_of(MINIMAL.replace("players = 2", "players = two")) == [
            "[experiment] players: 'two' is not an integer"
        ]

    def test_bad_boolean(self):
        errors = errors_of(MINIMAL.replace("horizon = 1024", "horizon = 1024\nbounds = maybe"))
        assert any("boolean" in e for e in errors)

    def test_duplicate_sections_are_malformed(self):
        errors = errors_of(MINIMAL + "\n[strategy full]\nschedule = none\n")
        assert any("malformed config document" in e for e in errors)

    def test_dklucb_explicit_schedule_needs_alpha(self):
        doc = MINIMAL.replace("policy = klucb", "policy = dklucb").replace(
            "schedule = full", "schedule = explicit:4,16,256"
        )
        errors = errors_of(doc)
        assert any("alpha" in e for e in errors)
        cfg = parse_config(doc.replace("policy = dklucb", "policy = dklucb\nalpha = 0.25"))
        (run,) = [rc for _, rc in experiment_runs(cfg)]
        assert run.policy.rule == DKLUCB and run.policy.alpha == 0.25

    def test_dklucb_alpha_defaults_to_schedule_density(self):
        doc = MINIMAL.replace("policy = klucb", "policy = dklucb").replace(
            "schedule = full", "schedule = doubleexp:2,1"
        )
        (run,) = [rc for _, rc in experiment_runs(parse_config(doc))]
        assert run.policy.alpha == 0.5

    def test_experiment_runs_share_seed_and_arms(self):
        cfg = parse_config(MINIMAL + "\n[strategy quiet]\nschedule = none\n")
        runs = experiment_runs(cfg)
        assert [name for name, _ in runs] == ["full", "quiet"]
        assert len({rc.seed for _, rc in runs}) == 1
        assert len({id(rc.arm_model) for _, rc in runs}) == 1


class TestFigure1Preset:
    def test_contents(self):
        cfg = figure1_preset()
        assert cfg.arm_model.means == (0.9, 0.8)
        assert cfg.players == 2
        assert cfg.horizon == 65536
        assert cfg.policy == UCB
        assert cfg.exploration.variant == LN2T
        assert cfg.replications == 1000
        assert cfg.seed == 42
        assert cfg.checkpoints == tuple(2**e for e in range(4, 17))
        names = [name for name, _ in cfg.strategies]
        assert names == ["none", "full", "A", "B", "C"]
        schedules = dict(cfg.strategies)
        assert schedules["none"].kind == "none"
        assert schedules["full"].kind == "full"
        assert schedules["A"].params == (4096,)
        assert schedules["B"].params == (16, 256, 4096)
        assert schedules["C"].params == tuple(range(1, 4097))

    def test_overrides(self):
        cfg = figure1_preset(replications=10, seed=3)
        assert cfg.replications == 10 and cfg.seed == 3


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL = """
[experiment]
means = 0.9, 0.6
players = 2
horizon = 64
policy = klucb
seed = 11
replications = 8
checkpoints = 4, 16, 64

[strategy full]
schedule = full

[strategy quiet]
schedule = none

[strategy burst]
schedule = explicit:8,32
"""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestCliRuns:
    def test_writes_per_strategy_and_combined_files(self, tmp_path):
        out = tmp_path / "results"
        code = main(["--config", write_config(tmp_path, SMALL), "--out", str(out)])
        assert code == 0
        for name in ("full", "quiet", "burst"):
            rows = read_csv(out / f"{name}.csv")
            assert rows[0] == ["t", "arm", "mean_pulls", "stderr", "regret"]
            assert len(rows) == 1 + 3 * 2  # checkpoints x arms
        combined = read_csv(out / "combined.csv")
        assert combined[0] == ["strategy", "t", "arm", "mean_pulls", "stderr", "regret"]
        assert len(combined) == 1 + 3 * (3 * 2)
        assert {r[0] for r in combined[1:]} == {"full", "quiet", "burst"}
        assert b"\r" not in (out / "combined.csv").read_bytes()

    def test_single_arm_conservation(self, tmp_path):
        doc = """
[experiment]
means = 0.9
players = 3
horizon = 8
policy = klucb
replications = 1
checkpoints = 1, 2, 4, 8

[strategy solo]
schedule = none
"""
        out = tmp_path / "o"
        assert main(["--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        rows = read_csv(out / "solo.csv")[1:]
        assert [(int(r[0]), float(r[2])) for r in rows] == [
            (1, 3.0),
            (2, 6.0),
            (4, 12.0),
            (8, 24.0),
        ]
        assert all(float(r[3]) == 0.0 for r in rows)  # one replication -> no spread
        assert all(float(r[4]) == 0.0 for r in rows)  # single arm -> no regret

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["--config", cfg_path, "--out", str(out2)]) == 0
        for name in ("full.csv", "quiet.csv", "burst.csv", "combined.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_flag_overrides_match_config_values(self, tmp_path):
        base = write_config(tmp_path, SMALL, "base.ini")
        baked = write_config(
            tmp_path, SMALL.replace("seed = 11", "seed = 99"), "baked.ini"
        )
        out1, out2 = tmp_path / "flag", tmp_path / "baked"
        assert main(["--config", base, "--seed", "99", "--out", str(out1)]) == 0
        assert main(["--config", baked, "--out", str(out2)]) == 0
        assert (out1 / "combined.csv").read_bytes() == (out2 / "combined.csv").read_bytes()

    def test_regret_recomputable_from_rows(self, tmp_path):
        out = tmp_path / "r"
        assert main(["--config", write_config(tmp_path, SMALL), "--out", str(out)]) == 0
        gaps = {1: 0.0, 2: 0.9 - 0.6}
        for name in ("full", "quiet", "burst"):
            rows = read_csv(out / f"{name}.csv")[1:]
            by_t = {}
            for t, arm, pulls, _, reg in rows:
                by_t.setdefault(int(t), []).append((int(arm), float(pulls), float(reg)))
            for t, entries in by_t.items():
                recomputed = sum(gaps[arm] * pulls for arm, pulls, _ in entries)
                for _, _, reg in entries:
                    assert reg == pytest.approx(recomputed, abs=1e-9)

    def test_bounds_table_output(self, tmp_path, capsys):
        doc = SMALL.replace("checkpoints = 4, 16, 64", "checkpoints = 16, 64\nbounds = true")
        out = tmp_path / "b"
        assert main(["--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "leading term" in printed
        assert "[burst] bounds: n/a (finite set)" in printed

    def test_bounds_flag_prints_each_bound_kind(self, tmp_path, capsys):
        # a one-shot schedule takes the one-shot bound at alpha 1; dklucb takes
        # its configured alpha, here not doubleexp:2,1's density (0.5); a bound
        # that cannot be formed is reported in place of its table
        doc = """
[experiment]
means = 0.9, 0.8
players = 2
horizon = 64
policy = dklucb
alpha = 0.25
checkpoints = 16, 64

[strategy once]
schedule = oneshot:8

[strategy sparse]
schedule = doubleexp:2,1
"""
        out = str(tmp_path / "b")
        assert main(["--config", write_config(tmp_path, doc), "--out", out, "--bounds"]) == 0
        printed = capsys.readouterr().out
        assert "[once]\nbound kind: oneshot (M=2, alpha=1.0);" in printed
        assert "[sparse]\nbound kind: sparse (M=2, alpha=0.25);" in printed
        doc = doc.replace("means = 0.9, 0.8", "means = 1.0, 0.8")
        assert main(["--config", write_config(tmp_path, doc), "--out", out, "--bounds"]) == 0
        printed = capsys.readouterr().out
        reason = "need 0 < mu_a < mu_star < 1, got mu_a=0.8, mu_star=1.0"
        for name in ("once", "sparse"):
            assert f"[{name}] bounds: n/a ({reason})" in printed
        assert "bound kind" not in printed

    def test_preset_reduced_replications_writes_five_csvs(self, tmp_path):
        out = tmp_path / "fig"
        code = main(
            ["--preset", "figure1", "--replications", "1", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        for name in ("none", "full", "A", "B", "C"):
            rows = read_csv(out / f"{name}.csv")
            assert rows[0] == ["t", "arm", "mean_pulls", "stderr", "regret"]
            assert len(rows) == 1 + 13 * 2
        assert (out / "combined.csv").exists()


class TestCliErrors:
    def test_unreadable_config_is_exit_2(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.ini")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_config_lists_all_errors(self, tmp_path, capsys):
        doc = MINIMAL.replace("means = 0.9, 0.8", "means = 0.9, 1.2").replace(
            "players = 2", "players = 0"
        )
        assert main(["--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "1.2" in err and "players" in err

    def test_bad_flag_values_are_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        assert main(["--config", cfg, "--replications", "0"]) == 2
        assert capsys.readouterr().err == "config error: replications must be >= 1\n"
        assert main(["--config", cfg, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "config error: seed must be a nonnegative integer\n"

    def test_ungenerable_grids_are_exit_2(self, tmp_path, capsys):
        doc = SMALL.replace("schedule = full", "schedule = exp:inf")
        doc = doc.replace("schedule = none", "schedule = doubleexp:2,inf")
        doc = doc.replace("schedule = explicit:8,32", "schedule = doubleexp:2,1e-300")
        assert main(["--config", write_config(tmp_path, doc), "--bounds"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        for line, section in zip(err, ("full", "quiet", "burst")):
            assert line.startswith(f"config error: [strategy {section}] schedule:")

    def test_run_config_rejection_is_exit_2(self, tmp_path, capsys):
        # parse_config accepts the horizon; RunConfig rejects horizon * players
        doc = MINIMAL.replace("horizon = 1024", "horizon = 9007199254740992")
        out = tmp_path / "out"
        assert main(["--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: horizon * players must be below 2**53")
        assert not out.exists()

    def test_strategy_named_combined_is_exit_2(self, tmp_path, capsys):
        doc = MINIMAL.replace("[strategy full]", "[strategy combined]")
        out = tmp_path / "out"
        assert main(["--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: [strategy combined] strategy names are limited to letters, "
            "digits, '.', '_' and '-', other than 'combined' (the name becomes an "
            "output file)\n"
        )
        assert not out.exists()

    def test_source_flags_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--config", "x", "--preset", "figure1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_blocked_output_directory_is_exit_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["--config", write_config(tmp_path, SMALL), "--out", str(blocker)])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_runtime_error_names_the_failing_strategy(self, tmp_path, monkeypatch, capsys):
        def fail_on_second(run_cfgs):
            raise InvariantViolation("count prediction exceeded its bound", strategy=1)

        monkeypatch.setattr("distbandit.cli.run_strategies", fail_on_second)
        code = main(["--config", write_config(tmp_path, SMALL), "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: [quiet] count prediction exceeded its bound\n"
        )

    def test_runtime_error_traceback_is_logged_at_debug(
        self, tmp_path, monkeypatch, caplog, capsys
    ):
        def fail(run_cfgs):
            raise InvariantViolation("count prediction exceeded its bound", strategy=0)

        monkeypatch.setattr("distbandit.cli.run_strategies", fail)
        with caplog.at_level(logging.DEBUG, logger="distbandit.cli"):
            code = main(["--config", write_config(tmp_path, SMALL), "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == "error: [full] count prediction exceeded its bound\n"
        [record] = [r for r in caplog.records if r.name == "distbandit.cli"]
        assert record.levelno == logging.DEBUG
        assert record.getMessage() == "[full] run failed"
        assert record.exc_info[0] is InvariantViolation
        assert "Traceback" in caplog.text and "in fail" in caplog.text
