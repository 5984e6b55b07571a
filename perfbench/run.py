"""distbandit benchmark: one workload per run, in a fresh single-process run.

    python3 perfbench/run.py --workload figure1 --seed 0 --seconds 40 --trace 0

runs jobs of the workload back to back (a closed loop, one caller) for about
--seconds, checks every job's output against the checksums in expected.json,
and prints, as its last stdout line, one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 alternates untraced and traced jobs and reports the
per-layer metrics, including the tracing overhead; their times are net of the
shims' own cost, calibrated before each traced job. The exit code is 0 only when
every job's output was correct.

The benchmark, its set-up processes and a speed probe (probe.py) share one
pinned CPU. Every reported time -- wall_s, setup_s, rep_rounds_per_s and the
per-layer times -- is the measured time rescaled by the probe to a CPU running
at a fixed reference speed, because on a CPU shared with other tenants the raw
times of identical runs drift by tens of percent over minutes. The raw times
and the probe's factors are printed above the result line.

    python3 perfbench/run.py ... --record perfbench/out/a.jsonl
    python3 perfbench/run.py --compare perfbench/out/a.jsonl [perfbench/out/b.jsonl]

--record appends each run's result and provenance to a file; --compare prints,
per workload and metric, median and quartiles of one or two such sets, and for
two sets the win fraction and whether the difference exceeds the bound.
--held-out runs every job on the held-out seed. --write-expected regenerates
expected.json and belongs only at a commit whose trajectories are trusted.
Self-tests: python3 -m pytest perfbench
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads; child processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
WORKDIR = HERE / "out"
SETUP_REPEATS = 9


def _import_package() -> None:
    if not (SRC / "distbandit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no distbandit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def provenance(workload, seed: int, job_seeds: list[int], seconds: int, trace: bool) -> dict:
    import numpy as np

    from workloads import HELD_OUT_SEED, describe

    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        git_sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "distbandit").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "job_seeds": job_seeds,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "sizes": describe(workload.build(job_seeds[0])),
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "llc_bytes": llc_bytes(),
    }


def llc_bytes() -> int | None:
    """Size of the last-level cache from sysfs (read only), None when unknown."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction" or not size:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Seconds from starting a fresh benchmark process until its inputs are built
    and one init_state per strategy has run; one sample per process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with code {code}")
        samples.append(elapsed)
    return samples


def setup_only(workload, seed: int) -> None:
    from distbandit import engine

    for _, cfg in workload.build(seed):
        engine.init_state(cfg, range(cfg.replications))
    print("ready", flush=True)


def run_job(workload, seed: int, expected: dict | None, tracer=None) -> dict:
    """One timed job and, unless expected is None, its check."""
    from workloads import check

    runs = workload.build(seed)
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORKDIR))
    try:
        gc.collect()
        if tracer is None:
            t0 = time.perf_counter()
            raw = workload.run(runs, workdir)
            wall = time.perf_counter() - t0
        else:
            tracer.reset()
            with tracer.installed():
                t0 = time.perf_counter()
                with tracer.span("job"):
                    raw = workload.run(runs, workdir)
                wall = time.perf_counter() - t0
        output = workload.collect(runs, raw, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [] if expected is None else check(workload, seed, runs, output, expected)
    return {"runs": runs, "wall": wall, "output": output, "problems": problems}


# Which end-to-end metric each per-layer metric should move, and on which workload:
#   engine.step.self_s (draws, scatter updates, inline UCB) -> wall_s on figure1,
#       where per-call overhead dominates, and on wide-full, where per-element work does
#   engine.merge_views.* -> wall_s on wide-full; about 0 on klucb-doubleexp
#   engine.init_state.s -> setup_s on wide-full
#   engine.state_bytes (count arrays and the R*M random streams),
#       engine.uniform_block_bytes -> peak_rss_mb on wide-full
#   policies.* -> wall_s on klucb-doubleexp only; 0 on the UCB workloads
#   schedule.is_comm_round.*, core.exploration_value.* -> wall_s on figure1 (per-round calls)
#   cli.*, analysis.*, config.* -> wall_s on figure1 only
def layer_metrics(tracer, job: dict, llc: int | None, scale: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced job, as name -> (value, unit); times
    are rescaled by `scale` like the job's wall time."""
    import numpy as np

    layers = tracer.layers()
    step_us = tracer.durations_ns("engine.step") * (scale / 1e3)
    state_bytes = block_bytes = 0
    for state in tracer.states:
        arrays = {k: v for k, v in vars(state).items() if isinstance(v, np.ndarray)}
        stream = state.streams[0]
        state_bytes = max(state_bytes, sum(
            v.nbytes for k, v in arrays.items() if not k.startswith("_") and k != "means"
        ) + round(len(state.streams) * stream_bytes(type(stream), type(stream.bit_generator))))
        block = getattr(state, "_block", None)
        block_bytes = max(block_bytes, block.nbytes if block is not None else 0)
    tracer.states.clear()
    m = {}
    for name, fields in (
        ("engine.step", ("calls", "s", "self_s")),
        ("engine.merge_views", ("calls", "s")),
        ("engine.init_state", ("s",)),
        ("engine.run_monte_carlo", ("self_s",)),
        ("policies.klucb_index_batch", ("calls", "s")),
        ("policies.count_prediction_batch", ("s",)),
        ("schedule.is_comm_round", ("calls", "s")),
        ("core.exploration_value", ("calls", "s")),
        ("cli.main", ("self_s",)),
        ("analysis.bound_report", ("s",)),
        ("analysis.compare", ("s",)),
        ("config.experiment_runs", ("s",)),
    ):
        layer = layers[name]
        for f in fields:
            m[f"{name}.{f}"] = (layer.calls, "count") if f == "calls" else (
                getattr(layer, f) * scale, "s")
    m["engine.step.p50_us"] = (float(np.percentile(step_us, 50)) if step_us.size else 0.0, "us")
    m["engine.step.p99_us"] = (float(np.percentile(step_us, 99)) if step_us.size else 0.0, "us")
    m["engine.state_bytes"] = (state_bytes, "B")
    m["engine.uniform_block_bytes"] = (block_bytes, "B")
    m["engine.state_llc_frac"] = (state_bytes / llc if llc else 0.0, "ratio")
    m["engine.uniform_block_llc_frac"] = (block_bytes / llc if llc else 0.0, "ratio")
    for name, value in tracer.counters.items():
        m[name] = (value, "count")
    m["cli.csv_bytes"] = (job["output"].csv_bytes, "B")
    m["trace.spans"] = (tracer.span_count, "count")
    return m


@functools.cache
def stream_bytes(generator: type, bit_generator: type) -> float:
    """Bytes one random stream of a WorldState holds, list slot included:
    tracemalloc over 256 fresh streams of these classes, each seeded by its own
    SeedSequence as init_state seeds them."""
    import tracemalloc

    import numpy as np

    n = 256
    tracemalloc.start()
    try:
        streams = [generator(bit_generator(np.random.SeedSequence((0, i)))) for i in range(n)]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del streams
    return size / n


def print_layers(tracer) -> None:
    layers = tracer.layers()
    total = layers["job"].s
    print(f"{'span':34} {'calls':>9} {'s':>10} {'self_s':>10} {'self share':>10}")
    for name, layer in sorted(layers.items(), key=lambda kv: -kv[1].self_s):
        print(f"{name:34} {layer.calls:9d} {layer.s:10.4f} {layer.self_s:10.4f} "
              f"{layer.self_s / total:10.1%}")


def run_benchmark(args) -> int:
    from probe import Probe
    from tracer import Tracer
    from workloads import HELD_OUT_SEED, SEED_TABLE, WORKLOADS

    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())

    def job_seed(j: int) -> int:
        return HELD_OUT_SEED if args.held_out else SEED_TABLE[(args.seed + j) % len(SEED_TABLE)]

    if args.setup_only:
        setup_only(workload, job_seed(0))
        return 0

    # One CPU for the benchmark, its set-up processes and the speed probe.
    affinity = os.sched_getaffinity(0)
    cpu = max(affinity)
    os.sched_setaffinity(0, {cpu})
    try:
        with Probe(cpu) as probe:
            return _measure(args, workload, expected, job_seed, probe, Tracer())
    finally:
        os.sched_setaffinity(0, affinity)


def _measure(args, workload, expected, job_seed, probe, tracer) -> int:
    """The job loop and the report; every time is rescaled by the probe."""
    import workloads

    if not args.trace:
        mark = probe.mark()
        setup = measure_setup(workload.name, args.seed)
        setup_scale = probe.scale(mark)
    llc = llc_bytes()
    walls = {False: [], True: []}  # (wall, scale) per correct job, untraced and traced
    per_layer = []
    shim_costs = []  # per traced job, in ns at the probe's reference speed
    attempted = failed = 0
    rep_rounds = None
    loop_start = time.perf_counter()
    while True:
        job_start = time.perf_counter()
        traced = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        if traced:
            mark = probe.mark()
            cost = tracer.calibrate()
            cost_scale = probe.scale(mark)
        mark = probe.mark()
        try:
            job = run_job(workload, job_seed(attempted - 1), expected,
                          tracer if traced else None)
            problems = job["problems"]
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            for p in problems:
                print(f"job {attempted - 1} failed: {p}", file=sys.stderr)
        else:
            scale = probe.scale(mark)
            walls[traced].append((job["wall"], scale))
            rep_rounds = workloads.rep_rounds(job["runs"])
            if traced:
                # calibrated at one CPU speed, applied to a job run at another
                tracer.cost = cost.scaled(cost_scale / scale)
                shim_costs.append(cost.scaled(cost_scale))
                per_layer.append(layer_metrics(tracer, job, llc, scale))
        now = time.perf_counter()
        enough = attempted >= (2 if args.trace else 1)
        if enough and (now - loop_start) + (now - job_start) > args.seconds:
            break

    scaled = {k: [w * s for w, s in v] for k, v in walls.items()}
    metrics = {}
    if not args.trace and scaled[False]:
        metrics = {
            "setup_s": (statistics.median(setup) * setup_scale, "s"),
            "wall_s": (statistics.median(scaled[False]), "s"),
            "rep_rounds_per_s": (statistics.median(rep_rounds / w for w in scaled[False]), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    elif args.trace and per_layer and scaled[False]:
        for name in per_layer[0]:
            values = [m[name][0] for m in per_layer]
            metrics[name] = (statistics.median(values), per_layer[0][name][1])
        overhead = statistics.median(scaled[True]) / statistics.median(scaled[False]) - 1
        metrics["trace.overhead_frac"] = (overhead, "ratio")

    if per_layer:
        print_layers(tracer)
    info = provenance(workload, args.seed, [job_seed(j) for j in range(attempted)],
                      args.seconds, bool(args.trace))
    print("provenance " + json.dumps(info, sort_keys=True))
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    if not args.trace:
        print("set-up walls (s): " + " ".join(f"{x:.3f}" for x in setup)
              + f"; probe scale {setup_scale:.3f}")
    if shim_costs:
        print("shim cost per call, ns at reference speed (outer, inner): "
              + " ".join(f"{c.outer:.0f},{c.inner:.0f}" for c in shim_costs))
    for traced, w in walls.items():
        if w:
            print(f"{'traced' if traced else 'untraced'} job walls (s) x probe scale: "
                  + " ".join(f"{x:.3f}x{s:.3f}" for x, s in w))
    for name, (value, unit) in metrics.items():
        print(f"{name:38} {value:>16.6g} {unit}")
    correct = failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"provenance": info, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def compare(paths: list[str]) -> int:
    """Median and quartiles per workload and metric; for two sets also the paired
    win fraction of the second and whether it is worse than the first by more
    than the bound in BENCHMARK.json."""
    spec = {}
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        b = json.loads(bench.read_text())
        spec = {m["name"]: m for m in b["end_to_end"] + b["per_layer"]}
    sets = []
    for path in paths:
        groups: dict[tuple[str, str], list[float]] = {}
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                groups.setdefault((rec["provenance"]["workload"], name), []).append(m["value"])
        sets.append(groups)

    def stats(values):
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return q2, q1, q3, (q3 - q1) / q2 if q2 else 0.0

    worse_than_bound = False
    for key in sorted(set().union(*sets)):
        workload, name = key
        m = spec.get(name, {})
        bound, lower = m.get("bound"), m.get("better", "lower") == "lower"
        cols = [f"{workload:16} {name:38}"]
        for groups in sets:
            values = groups.get(key)
            if not values:
                cols.append(f"{'-':>44}")
                continue
            med, q1, q3, spread = stats(values)
            cols.append(f"n={len(values):<3d}{med:12.6g} [{q1:.6g}, {q3:.6g}] spread {spread:6.1%}")
        if len(sets) == 2 and key in sets[0] and key in sets[1]:
            a, b = sets[0][key], sets[1][key]
            pairs = list(zip(a, b))
            wins = sum((y < x) if lower else (y > x) for x, y in pairs)
            med_a, q1_a, q3_a, spread_a = stats(a)
            med_b, _, _, spread_b = stats(b)
            change = (med_b - med_a) / med_a if med_a else 0.0
            worse = change if lower else -change
            verdict = "-"
            if bound is not None:
                if worse > bound:
                    verdict, worse_than_bound = "WORSE THAN BOUND", True
                elif max(spread_a, spread_b) > bound and not (
                    max(b) < min(a) if lower else min(b) > max(a)
                ):
                    verdict = "unresolved"
                elif wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3_a - q1_a:
                    verdict = "gain"
                else:
                    verdict = "within bound"
            cols.append(f"change {change:+7.2%} win {wins}/{len(pairs)} {verdict}")
        elif len(sets) == 1 and bound is not None:
            spread = stats(sets[0][key])[3]
            cols.append(f"bound {bound:.0%}: spread {'<' if spread < bound / 3 else '>='} bound/3")
        print("  ".join(cols))
    return 1 if worse_than_bound else 0


def write_expected(workloads=None) -> None:
    """Checksum every seed of the table and the held-out seed, per workload,
    into EXPECTED."""
    from workloads import HELD_OUT_SEED, SEED_TABLE, WORKLOADS, counts_sha256, describe

    table = {}
    for workload in workloads or WORKLOADS.values():
        seeds = {}
        for seed in SEED_TABLE + (HELD_OUT_SEED,):
            job = run_job(workload, seed, None)
            entry = seeds[str(seed)] = {"counts_sha256": counts_sha256(job["output"].counts)}
            if job["output"].csv_sha256 is not None:
                entry["csv_sha256"] = job["output"].csv_sha256
            print(workload.name, seed, entry, file=sys.stderr)
        table[workload.name] = {"sizes": describe(job["runs"]), "seeds": seeds}
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="append the result to FILE")
    parser.add_argument("--held-out", action="store_true", help="run on the held-out seed")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs="+", metavar="FILE")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two files")
        return compare(args.compare)
    _import_package()
    if args.write_expected:
        write_expected()
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
