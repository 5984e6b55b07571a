"""Theoretical pull-count constants and leading-term bound curves, plus
empirical-vs-theoretical comparison reports.

Every curve here is a leading term only: coefficient * ln t with the
lower-order slack left unquantified, so comparisons are diagnostic ratios
rather than pass/fail assertions.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .core import (
    BernoulliArmModel, _as_real, _as_unit, _at_least, _of_type, d_inf_bernoulli,
    kl_bernoulli,
)
from .engine import RunAggregate

# Upper-bound flavors, keyed by the communication regime they describe:
# a single late communication round, densely spaced rounds (density 1), and
# sparse grids whose density alpha scales the leading coefficient.
BOUND_ONESHOT = "oneshot"
BOUND_DENSE = "dense"
BOUND_SPARSE = "sparse"

_BOUND_KINDS = (BOUND_ONESHOT, BOUND_DENSE, BOUND_SPARSE)


def _check_pair(mu_a: float, mu_star: float) -> tuple[float, float]:
    """mu_a and mu_star as floats (see core._as_real), with 0 < mu_a < mu_star < 1."""
    mu_a, mu_star = _as_real("mu_a", mu_a), _as_real("mu_star", mu_star)
    if not 0.0 < mu_a < mu_star < 1.0:
        raise ValueError(
            f"need 0 < mu_a < mu_star < 1, got mu_a={mu_a!r}, mu_star={mu_star!r}"
        )
    return mu_a, mu_star


def _check_kind(kind: str) -> None:
    if kind not in _BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}; expected one of {_BOUND_KINDS}")


def _check_m_alpha(m: int, alpha: float) -> tuple[int, float]:
    """m and alpha as a plain int and float, by the player-count and alpha rules."""
    return _at_least("player count", m, 1), _as_unit("alpha", alpha)


def _scale(m: int, alpha: float) -> float:
    """M / (1 + (M-1) alpha), formed exactly in integers and rounded once by
    int division. The exact value is monotone in M and alpha, so the correctly
    rounded one is too; the float expression of core.dklucb_scale is not when
    alpha is within an ulp of 1."""
    num, den = float(alpha).as_integer_ratio()
    return m * den / (den + (m - 1) * num)


def lower_bound_coefficient(m: int, alpha: float, mu_a: float, mu_star: float) -> float:
    """Leading coefficient of the pull-count lower bound for a suboptimal arm:
    M / (1 + (M-1) alpha) * 1 / d_inf(mu_a, mu_star)."""
    m, alpha = _check_m_alpha(m, alpha)
    return _lower(m, alpha, *_check_pair(mu_a, mu_star))


def _lower(m: int, alpha: float, mu_a: float, mu_star: float) -> float:
    """lower_bound_coefficient of checked arguments."""
    return _scale(m, alpha) / d_inf_bernoulli(mu_a, mu_star)


def upper_bound_coefficient(
    kind: str, m: int, alpha: float, mu_a: float, mu_star: float
) -> float:
    """Leading coefficient of the matching upper bound.

    The oneshot and dense kinds carry the single-player coefficient
    1 / K(mu_a, mu_star); the sparse kind scales it by M / (1 + (M-1) alpha).
    """
    _check_kind(kind)
    m, alpha = _check_m_alpha(m, alpha)
    return _upper(kind, m, alpha, *_check_pair(mu_a, mu_star))


def _upper(kind: str, m: int, alpha: float, mu_a: float, mu_star: float) -> float:
    """upper_bound_coefficient of checked arguments."""
    scale = _scale(m, alpha) if kind == BOUND_SPARSE else 1.0
    return scale / kl_bernoulli(mu_a, mu_star)


def upper_bound_curve(
    kind: str, m: int, alpha: float, mu_a: float, mu_star: float, checkpoints
) -> np.ndarray:
    """coefficient * ln t at each checkpoint (leading term only); a
    checkpoint is any real t >= 1 (see core._as_real)."""
    t = np.array([_as_real("checkpoints", t) for t in checkpoints], dtype=np.float64)
    if not (t >= 1).all():
        raise ValueError("checkpoints must be rounds >= 1")
    return _curve(upper_bound_coefficient(kind, m, alpha, mu_a, mu_star), np.log(t))


def _curve(coefficient: float, log_t: np.ndarray) -> np.ndarray:
    """The leading term, coefficient * ln t, at each ln t of log_t."""
    return coefficient * log_t


@dataclass(frozen=True)
class BoundReport:
    """Theoretical constants for every suboptimal arm of one configuration.

    arms holds 0-based indices into the arm model; curves[i] is the
    leading-term curve for arms[i] across checkpoints. Lower and upper
    coefficients agree for the sparse kind (the bounds are tight in the
    leading term); the dense/oneshot kinds keep the single-player upper
    coefficient.
    """

    kind: str
    m: int
    alpha: float
    checkpoints: tuple[int, ...]
    arms: tuple[int, ...]
    lower_coefficients: tuple[float, ...]
    upper_coefficients: tuple[float, ...]
    curves: tuple[tuple[float, ...], ...]


def bound_report(
    arm_model: BernoulliArmModel,
    kind: str,
    m: int,
    alpha: float,
    checkpoints,
) -> BoundReport:
    """Build the per-arm constants and curves for all suboptimal arms: the
    values of lower_bound_coefficient, upper_bound_coefficient and
    upper_bound_curve, with the arguments checked and ln t taken once."""
    _of_type("arm_model", arm_model, BernoulliArmModel)
    _check_kind(kind)
    m, alpha = _check_m_alpha(m, alpha)
    checkpoints = tuple(_at_least("checkpoints", t, 1) for t in checkpoints)
    log_t = np.log(np.array(checkpoints, dtype=np.float64))
    mu_star = arm_model.best_mean
    arms = tuple(a for a in range(arm_model.k) if arm_model.gaps[a] > 0.0)
    pairs = [_check_pair(arm_model.means[a], mu_star) for a in arms]
    upper = tuple(_upper(kind, m, alpha, *pair) for pair in pairs)
    return BoundReport(
        kind=kind,
        m=m,
        alpha=alpha,
        checkpoints=checkpoints,
        arms=arms,
        lower_coefficients=tuple(_lower(m, alpha, *pair) for pair in pairs),
        upper_coefficients=upper,
        curves=tuple(tuple(_curve(c, log_t).tolist()) for c in upper),
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One (checkpoint, arm) line of the empirical-vs-leading-term table."""

    t: int
    arm: int
    empirical_mean: float
    leading_term: float
    ratio: float
    flagged: bool


def compare(
    aggregate: RunAggregate, report: BoundReport, threshold: float = 1.0
) -> list[ComparisonRow]:
    """Ratio of empirical mean pull counts to the leading-term curve.

    Rows whose ratio exceeds `threshold` are flagged as informational
    (the unquantified lower-order slack means a flag is not a failure).
    Raises ValueError when the aggregate's checkpoints differ from the
    report's, or when threshold (see core._as_real) is nan, which flags no
    row.
    """
    _of_type("aggregate", aggregate, RunAggregate)
    _of_type("report", report, BoundReport)
    if math.isnan(threshold := _as_real("threshold", threshold)):
        raise ValueError("threshold must not be nan")
    if tuple(aggregate.checkpoints) != report.checkpoints:
        raise ValueError(
            f"checkpoint mismatch: aggregate has {tuple(aggregate.checkpoints)}, "
            f"report has {report.checkpoints}"
        )
    rows = []
    for i, a in enumerate(report.arms):
        for j, t in enumerate(report.checkpoints):
            empirical = float(aggregate.mean_counts[j, a])
            leading = report.curves[i][j]
            if leading > 0.0:
                ratio = empirical / leading
            elif empirical > 0.0:
                ratio = math.inf
            else:
                ratio = math.nan
            rows.append(
                ComparisonRow(
                    t=t,
                    arm=a,
                    empirical_mean=empirical,
                    leading_term=leading,
                    ratio=ratio,
                    flagged=ratio > threshold,
                )
            )
    rows.sort(key=lambda r: (r.t, r.arm))
    return rows


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write via a temp file in the same directory, then rename, so an
    interrupted run leaves no partial final file. The file gets the mode a
    plain open would give it (0o666 less the umask), not mkstemp's 0o600."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_comparison_csv(path, rows: list[ComparisonRow]) -> None:
    """Write the comparison table (arm ids 1-based in the file)."""
    _write_csv(
        path,
        ["t", "arm", "empirical_mean", "leading_term", "ratio"],
        (
            [
                row.t,
                row.arm + 1,
                repr(row.empirical_mean),
                repr(row.leading_term),
                repr(row.ratio),
            ]
            for row in rows
        ),
    )


def format_comparison(report: BoundReport, rows: list[ComparisonRow]) -> str:
    """Human-readable table used by the command line (leading term only)."""
    lines = [
        f"bound kind: {report.kind} (M={report.m}, alpha={report.alpha}); "
        "theoretical values are leading terms only",
        f"{'t':>8} {'arm':>4} {'empirical':>14} {'leading term':>14} {'ratio':>10}",
    ]
    for row in rows:
        flag = "  *" if row.flagged else ""
        lines.append(
            f"{row.t:>8} {row.arm + 1:>4} {row.empirical_mean:>14.4f} "
            f"{row.leading_term:>14.4f} {row.ratio:>10.4f}{flag}"
        )
    if any(row.flagged for row in rows):
        lines.append("* empirical exceeds the leading term (informational; "
                     "lower-order slack is not quantified)")
    return "\n".join(lines)
