"""Self-tests for the benchmark's own code: span arithmetic, shim coverage and
removal, and the correctness gate. Run with: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import statistics
import sys
import time
import types

import pytest

import run

run._import_package()

import probe  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

TINY = (
    wl._ini_workload("tiny-dklucb", wl._KLUCB_INI, horizon=64, replications=3),
    wl._ini_workload("tiny-ucb", wl._WIDE_INI, horizon=40, replications=5),
)


def shimmed_bindings() -> list[str]:
    """Names of distbandit bindings that currently hold a shim (empty when untraced)."""
    found = []
    for n, m in list(sys.modules.items()):
        if m is None or not (n == "distbandit" or n.startswith("distbandit.")):
            continue
        for key, value in vars(m).items():
            if callable(value) and tr.is_shim(value):
                found.append(f"{n}.{key}")
            elif isinstance(value, type):
                found += [f"{n}.{key}.{a}" for a, v in vars(value).items() if tr.is_shim(v)]
    return found


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """Registers the tiny workloads and points run.EXPECTED at their checksums."""
    monkeypatch.setattr(run, "WORKDIR", tmp_path / "out")
    monkeypatch.setattr(run, "EXPECTED", tmp_path / "expected.json")
    monkeypatch.setattr(run, "measure_setup", lambda name, seed: [0.25, 0.5])
    for w in TINY:
        monkeypatch.setitem(wl.WORKLOADS, w.name, w)
    run.write_expected(TINY)
    return run.EXPECTED


def _main(capsys, *argv):
    code = run.main(list(argv))
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_self_time_is_span_minus_children(monkeypatch):
    mod = types.ModuleType("distbandit.fake_layer")
    exec("def inner():\n    return 1\ndef outer():\n    return inner() + inner()\n", vars(mod))
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    ticks = itertools.count()
    t = tr.Tracer(
        [tr.Target("fake.outer", mod.__name__, "outer"), tr.Target("fake.inner", mod.__name__, "inner")],
        clock=lambda: next(ticks) * 1000,
    )
    with t.installed():
        with t.span("job"):  # clock 0 .. 7
            assert mod.outer() == 2  # clock 1 .. 6, inner at 2..3 and 4..5
    assert mod.outer.__name__ == "outer" and not tr.is_shim(mod.outer)
    layers = t.layers()
    assert layers["fake.inner"] == tr.Layer(2, 2e-6, 2e-6)
    assert layers["fake.outer"] == tr.Layer(1, 5e-6, 3e-6)
    assert layers["job"] == tr.Layer(1, 7e-6, 2e-6)
    assert sum(layer.self_s for layer in layers.values()) == pytest.approx(layers["job"].s)
    # A calibrated shim cost comes off each span once, and once per descendant
    # (inner + outer), so each caller's self time loses outer per direct child.
    t.cost = tr.ShimCost(outer=100, inner=50)
    layers = t.layers()
    assert layers["fake.inner"] == tr.Layer(2, 1.9e-6, 1.9e-6)
    assert layers["fake.outer"] == tr.Layer(1, 4.65e-6, 2.75e-6)
    assert layers["job"] == tr.Layer(1, 6.5e-6, 1.85e-6)


def test_shim_cost_is_not_charged_to_the_calling_loop(monkeypatch):
    """With the real clock: run_monte_carlo calling a shimmed no-op step every
    round reports a self time near its untraced cost once the calibrated shim
    cost is taken out, though uncorrected the shims' cost dominates it."""
    from distbandit import engine

    (_, cfg), = wl._ini_workload("loop", wl._WIDE_INI, horizon=20000, replications=1).build(1)

    def step(state, cfg):
        return None

    monkeypatch.setattr(engine, "step", step)
    state = engine.init_state(cfg, range(1))
    clock = time.perf_counter_ns

    def untraced_self_ns():  # run_monte_carlo minus init_state and the step calls
        t0 = clock()
        engine.run_monte_carlo(cfg)
        t1 = clock()
        engine.init_state(cfg, range(1))
        t2 = clock()
        for _ in range(cfg.horizon):
            step(state, cfg)
        t3 = clock()
        for _ in range(cfg.horizon):
            pass
        t4 = clock()
        return (t1 - t0) - (t2 - t1) - ((t3 - t2) - (t4 - t3))

    t = tr.Tracer([x for x in tr.TARGETS if x.module == "distbandit.engine"])
    untraced, raw, corrected = [], [], []
    for _ in range(7):
        untraced.append(untraced_self_ns() / 1e9)
        cost = t.calibrate()
        t.reset()
        t.cost = tr.ShimCost()
        with t.installed():
            engine.run_monte_carlo(cfg)
        raw.append(t.layers()["engine.run_monte_carlo"].self_s)
        t.cost = cost
        corrected.append(t.layers()["engine.run_monte_carlo"].self_s)
    loop, raw, corrected = (statistics.median(x) for x in (untraced, raw, corrected))
    assert raw > 4 * loop
    assert abs(corrected - loop) < 0.25 * (raw - loop)


def test_step_calls_equal_the_rounds_simulated(bench):
    expected = json.loads(bench.read_text())
    t = tr.Tracer()
    for w in TINY:
        job = run.run_job(w, wl.SEED_TABLE[0], expected, t)
        assert job["problems"] == []
        layers = t.layers()
        assert layers["engine.step"].calls == sum(cfg.horizon for _, cfg in job["runs"])
        assert layers["engine.run_monte_carlo"].calls == len(job["runs"])
        assert layers["schedule.is_comm_round"].calls == layers["engine.step"].calls
        klucb_calls = layers["policies.klucb_index_batch"].calls
        if w.name == "tiny-ucb":
            assert klucb_calls == 0
            assert layers["engine.merge_views"].calls == t.counters["schedule.comm_rounds"] == 40
        else:
            k = job["runs"][0][1].arm_model.k
            assert klucb_calls == 64 - k  # the first K rounds are forced pulls
            assert t.counters["policies.klucb_index_batch.lanes"] == klucb_calls * 3 * 2 * k
    assert shimmed_bindings() == []


def test_shims_are_absent_from_untraced_jobs(bench, capsys, monkeypatch):
    seen = []
    base = TINY[0]

    def spy(runs, workdir):
        seen.append(shimmed_bindings())
        return base.run(runs, workdir)

    monkeypatch.setitem(wl.WORKLOADS, base.name, dataclasses.replace(base, run=spy))
    code, result = _main(capsys, "--workload", base.name, "--seconds", "1", "--trace", "0")
    assert code == 0 and result["correct"]
    assert seen and all(found == [] for found in seen)
    seen.clear()
    code, result = _main(capsys, "--workload", base.name, "--seconds", "1", "--trace", "1")
    assert code == 0 and result["correct"]
    assert seen[0] == [] and "distbandit.engine.step" in seen[1]


def test_results_carry_every_metric_of_the_spec(bench, capsys):
    spec = _spec()
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        code, result = _main(capsys, "--workload", "tiny-ucb", "--seconds", "1", "--trace", trace)
        assert code == 0 and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[section]}
        for m in spec[section]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_probe_reports_and_stops(bench, capsys):
    affinity = os.sched_getaffinity(0)
    with probe.Probe(max(affinity)) as p:
        mark = p.mark()
        time.sleep(0.2)
        assert p.scale(mark) > 0
    assert p._proc.poll() is not None
    code, _ = _main(capsys, "--workload", "tiny-ucb", "--seconds", "1")
    assert code == 0 and os.sched_getaffinity(0) == affinity


def test_compare_flags_a_median_worse_than_the_bound(tmp_path, capsys):
    def write(name, walls):
        lines = [
            json.dumps({"provenance": {"workload": "figure1"},
                        "result": {"metrics": {"wall_s": {"value": w, "unit": "s"}}}})
            for w in walls
        ]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        return str(tmp_path / name)

    bound = next(m["bound"] for m in _spec()["end_to_end"] if m["name"] == "wall_s")
    base = write("a.jsonl", [10.0, 10.1, 9.9, 10.0])
    assert run.main(["--compare", base, write("b.jsonl", [10.0, 10.2, 9.8, 10.1])]) == 0
    slow = [w * (1 + 2 * bound) for w in (10.0, 10.1, 9.9, 10.0)]
    assert run.main(["--compare", base, write("c.jsonl", slow)]) == 1
    assert "WORSE THAN BOUND" in capsys.readouterr().out


def test_a_doctored_checksum_fails_the_run(bench, capsys):
    expected = json.loads(bench.read_text())
    for entry in expected["tiny-dklucb"]["seeds"].values():
        entry["counts_sha256"] = "0" * 64
    bench.write_text(json.dumps(expected))
    code, result = _main(capsys, "--workload", "tiny-dklucb", "--seconds", "1")
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1
