"""The exactness the windowed round loop rests on: every ufunc that selection
and the windows call gives an element the same bits whatever the layout of
the array it sits in. A window selects W rounds of a slot as rows of one
strided batch, while step selects each round alone; the two agree only if
an element's value does not depend on the array's length, offset, stride or
dimension, nor on which SIMD kernel numpy dispatches for it. The KL decision
rests on it too: it runs a close slot's lanes on, gathered, from its part-run
Newton solve, which gives them the whole solve's bits on the same condition.
Each check names the ufunc and the layout that broke it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distbandit

N = 1037  # odd, so every vector kernel also runs its scalar tail


def _rng():
    return np.random.default_rng(20260101)


def _magnitudes(rng, n, lo, hi):
    """n positive floats spread evenly in log scale over [10**lo, 10**hi]."""
    return 10.0 ** rng.uniform(lo, hi, n)


def _inputs():
    """Operands of every checked ufunc, as the engine's paths see them: view
    counts and sums (integers), means in [0, 1], exploration budgets, KL-UCB
    Newton iterates, and edge values."""
    rng = _rng()
    counts = rng.integers(1, 2**20, N).astype(np.float64)
    sums = np.floor(counts * rng.uniform(0, 1, N))
    means = sums / counts
    edges = np.array([0.0, 1.0, 1.0 - 1e-16, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5])
    positive = np.concatenate([_magnitudes(rng, N - 7, -320, 300), edges])
    return {
        "divide": (np.concatenate([sums[:-7], edges]), counts),
        "multiply": (np.full(N, 2.0), np.concatenate([counts[:-7], edges])),
        "sqrt": (positive,),
        "add": (means, _magnitudes(rng, N, -9, 1)),
        "subtract": (np.ones(N), means),
        "log": (np.concatenate([means[:-7], positive[-7:]]) + 1e-300,),
        "expm1": (-np.concatenate([_magnitudes(rng, N - 7, -300, 1.6), edges]),),
        "negative": (np.concatenate([-_magnitudes(rng, N - 7, -320, 1.6), edges - 1.0]),),
        "log1p": (-np.concatenate([means[:-7], edges * (1.0 - 1e-16)]),),
        "greater": (means, np.where(rng.uniform(0, 1, N) < 0.3, means, np.nextafter(means, 2.0))),
        "less": (rng.uniform(0, 1, N), means),
        # the KL-UCB prelude's floors and cap, and the settle test's |step|
        "minimum": (
            np.concatenate([means[:-7] + _magnitudes(rng, N - 7, -9, 0), edges]),
            np.where(rng.uniform(0, 1, N) < 0.5, 1.0 - 1e-16, means),
        ),
        "maximum": (
            np.concatenate([1.0 - means[:-7], edges]),
            np.where(rng.uniform(0, 1, N) < 0.5, 5e-324, rng.uniform(0, 2, N)),
        ),
        "absolute": (
            np.concatenate([_magnitudes(rng, N - 7, -320, 1) * rng.choice([-1, 1], N - 7), -edges]),
        ),
    }


def _offset(x):
    """x one element past an aligned buffer's start."""
    buf = np.empty(len(x) + 1)
    buf[1:] = x
    return buf[1:]


def _strided(x):
    buf = np.empty(3 * len(x))
    buf[::3] = x
    return buf[::3]


# whole-array layouts: the array holding x's values in x's order
ARRAY_LAYOUTS = {"offset-by-one": _offset, "strided": _strided, "2-d": lambda x: x.reshape(1, -1)}
# one-element layouts, each element alone
ELEMENT_LAYOUTS = {"singleton": lambda v: np.array([v]), "0-d": lambda v: np.array(v)}


def _check(name, want, got, layout):
    want, got = np.asarray(want).ravel(), np.asarray(got).ravel()
    if want.dtype == bool:
        same = want == got
    else:
        same = want.astype(np.float64).view(np.uint64) == got.astype(np.float64).view(np.uint64)
    bad = np.flatnonzero(~same)
    assert not len(bad), (
        f"{name} differs on the {layout} layout from the contiguous one at element "
        f"{bad[0]}: {float(got[bad[0]])!r} != {float(want[bad[0]])!r}"
    )


@pytest.mark.parametrize("name", list(_inputs()))
def test_a_ufunc_gives_an_element_the_same_bits_in_every_layout(name):
    ufunc = getattr(np, name)
    args = _inputs()[name]
    with np.errstate(all="ignore"):
        want = ufunc(*args)
        for layout, build in ARRAY_LAYOUTS.items():
            _check(name, want, ufunc(*(build(a) for a in args)), layout)
        for layout, build in ELEMENT_LAYOUTS.items():
            got = [ufunc(*(build(a[i]) for a in args)) for i in range(N)]
            _check(name, want, np.array(got), layout)
        if len(args) == 2:
            # a row broadcast against a batch of rows, as f is against a window
            rows = np.stack([args[1]] * 3)
            _check(name, np.stack([want] * 3), ufunc(args[0], rows), "broadcast")


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_matmul_over_the_prefix_matrix_is_exact(layout):
    # row i of prefix @ won sums the first i rows of the 0/1 wins: integers
    # below 2**53, which any summation order gives exactly
    rng, cap = _rng(), 64
    prefix = np.tri(cap, cap, -1)
    for w in (1, 2, 7, 33, 64):
        won = (rng.uniform(0, 1, (w, 2, 150)) < 0.5).astype(np.float64)
        operand = won.reshape(w, -1) if layout == "contiguous" else won[:, :1].reshape(w, -1)
        want = np.zeros_like(operand, dtype=np.int64)
        want[1:] = np.cumsum(operand[:-1].astype(np.int64), axis=0)
        _check(f"matmul (w={w})", want.astype(np.float64), prefix[:w, :w] @ operand, layout)


@pytest.mark.parametrize("layout", ["contiguous", "offset-by-one"])
def test_the_per_slot_row_gather_copies_the_bits(layout):
    # a window reads slot s's uniforms at block rows ts[s]-t .. ts[s]-t+W-1,
    # from a block slice that starts where the last sync left it
    rng = _rng()
    rounds, m, r_n, s_n, w = 100, 3, 4, 2, 16
    block = rng.uniform(0, 1, (rounds, m, r_n))
    if layout == "offset-by-one":
        block = _offset(block.ravel()).reshape(block.shape)
    u = block[5:]
    ts = rng.integers(0, rounds - 5 - w, s_n * r_n)
    slots = np.arange(s_n * r_n)
    start = ts[None] + np.arange(w)[:, None]
    at = np.arange(m)[:, None] * r_n + slots % r_n
    got = u.reshape(-1).take(start[:, None] * u[0].size + at)
    want = np.array(
        [[[u[start[i, s], p, s % r_n] for s in slots] for p in range(m)] for i in range(w)]
    )
    _check("take (per-slot row gather)", want, got, layout)


def _cpu_dispatch():
    """numpy's dispatch targets, beyond its baseline, and the CPU features."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_dispatch__, umath.__cpu_features__


# runs in the subprocess: fail unless every given target is off, then run pytest
_ON_BASELINE = """
import sys
from test_exactness import _cpu_dispatch

on = [t for t in sys.argv[1].split() if _cpu_dispatch()[1].get(t)]
if on:
    sys.exit(f"dispatch targets still enabled: {on}")
import pytest

sys.exit(pytest.main(sys.argv[2:]))
"""


def test_the_golden_digests_hold_on_the_baseline_kernels():
    # the windows are exact only if the kernels numpy dispatches and its
    # baseline ones give every element the same bits: rerun the golden
    # digests with every dispatch target this CPU runs switched off
    targets, features = _cpu_dispatch()
    enabled = " ".join(t for t in targets if features.get(t))
    if not enabled:
        pytest.skip("numpy dispatches no target beyond its baseline on this CPU")
    tests = Path(__file__).resolve().parent
    path = [str(Path(distbandit.__file__).resolve().parents[1]), str(tests)]
    # the golden tests need no plugin: loading none saves a second of start-up
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=enabled, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    env["PYTHONPATH"] = os.pathsep.join(path + [env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _ON_BASELINE, enabled,
         "-q", "-p", "no:cacheprovider", str(tests / "test_golden.py")],
        cwd=tests.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    if done.returncode:
        pytest.fail(
            f"with NPY_DISABLE_CPU_FEATURES={enabled!r}:\n{done.stdout}{done.stderr}",
            pytrace=False,
        )
