"""Scan driver, exponent fitting, envelope tracking, and the exponent-budget report.

A scan runs the recursion once, up to the largest dimension exponent n,
extracts log2 a_{n,k} at k = floor(d^delta) (computed in exact integer
arithmetic) from each state on the way, and tags each row with its window
data.  Exponents are fitted by least squares of log2 log2 a_{n,k} against
n; for rational a = p/q only rows with n = 0 mod q enter the fit, which
suppresses the window-phase oscillation that would otherwise bias the slope.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .errors import UsageError
from .polys import int_nth_root
from .recursion import Engine, log2_face_numbers, trajectory
from .schedule import DensityParam, choose_window, window_profile

# Recorded after the first full runs; the growth bounds hide an unpinned
# 2^O(Q) factor, so the envelope is empirical by construction.
GOLDEN_ENVELOPE_RATIO = 16.0
GOLDEN_DRIFT_CONSTANT = 0.75  # |log2(log2 a)/n - target| <= C / sqrt(n)


@dataclass(frozen=True)
class ScanRow:
    n: int
    k: int
    Q: int
    m: int
    p: int
    log2_coeff: float
    rho: float
    engine: str


def floor_d_delta(n: int, delta: Fraction) -> int:
    """k = floor((2^n)^delta), exactly (integer root of an integer power)."""
    if not (0 < delta < 1):
        raise UsageError(f"delta must lie in (0,1), got {delta}")
    return int_nth_root(2 ** (n * delta.numerator), delta.denominator)


def rho_denominator(Q: int, m: int, p: int, k: int) -> float:
    """2^(m p) * k^(1 - p/Q), the growth-bound scale that rho divides log2 a_{n,k} by."""
    return 2.0 ** (m * p) * k ** (1.0 - p / Q)


def scan(
    a: DensityParam,
    delta: Fraction,
    n_range,
    engine: Engine,
) -> list[ScanRow]:
    """One row per n: log2 a_{n,k} at k = floor(d^delta).

    One trajectory at the largest k, admitted by its state size, serves all rows
    (``log2_face_numbers``; an exact scan's last n is read by coefficient); they
    agree with per-n runs at their own k, as coefficient k needs only lower ones.
    The trajectory is made, and so sized once, from the last row's k before the
    other rows' k are taken, so a refused scan takes one root.
    """
    ns = sorted(n_range)
    if not ns:
        return []
    if ns[0] < 0:
        raise UsageError("scan indices must be nonnegative")
    states = trajectory(a, ns[-1], max(1, floor_d_delta(ns[-1], delta)), engine)
    ks = [floor_d_delta(n, delta) for n in ns]
    values = log2_face_numbers(a, states, list(zip(ns, ks)))
    rows = []
    products = {}  # (Q, m) -> p; rows of one window share it
    for n, k, log2_coeff in zip(ns, ks, values):
        Q = choose_window(max(n, 1), a)
        m = n // Q
        if (Q, m) not in products:
            products[Q, m] = window_profile(a, Q, m).p
        p = products[Q, m]
        rows.append(
            ScanRow(
                n=n,
                k=k,
                Q=Q,
                m=m,
                p=p,
                log2_coeff=log2_coeff,
                rho=log2_coeff / rho_denominator(Q, m, p, k),
                engine=engine.value,
            )
        )
    return rows


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    n_used: list[int]
    step_slopes: list[float]  # finite differences of log2 log2 a between used rows
    degenerate: bool  # flags a scan with no growth to fit

    def within(self, target: float, tol: float) -> bool:
        return abs(self.slope - target) <= tol


def fit_indices(ns, a: DensityParam | None = None) -> list[int]:
    """The distinct n of ``ns``, in order, that a fit uses: for rational a = p/q
    only n = 0 mod q.  Raises UsageError if there are fewer than the 4 a fit needs."""
    q = a.value.denominator if a is not None and a.is_rational else 1
    used = [n for n in dict.fromkeys(ns) if n % q == 0]
    if len(used) < 4:
        raise UsageError(f"need at least 4 distinct usable n to fit, have {len(used)}")
    return used


def fit_exponent(rows: list[ScanRow], a: DensityParam | None = None) -> FitResult:
    """Least-squares slope of log2(log2_coeff) against n.

    Rows with log2_coeff <= 0 (only n = 0) carry no signal and are
    dropped, and rows repeated at one n (a scan over repeated indices)
    count once.  For rational a, only n = 0 mod q rows are used
    (``fit_indices``).
    """
    engines = {r.engine for r in rows}
    if len(engines) > 1:
        raise UsageError(f"fit requires rows from a single engine, got {engines}")
    by_n = {r.n: r for r in rows if r.log2_coeff > 0}
    usable = [by_n[n] for n in fit_indices(by_n, a)]
    xs = [r.n for r in usable]
    ys = [math.log2(r.log2_coeff) for r in usable]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    steps = [
        (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)
    ]
    degenerate = all(abs(s) < 1e-12 for s in steps)
    return FitResult(
        slope=0.0 if degenerate else slope,
        intercept=intercept,
        n_used=xs,
        step_slopes=steps,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class EnvelopeReport:
    rhos: list[float]
    ratio: float
    golden: float
    ok: bool


def bound_envelope(rows: list[ScanRow]) -> EnvelopeReport:
    """Spread of the envelope ratio rho over a scan, against the recorded golden."""
    rhos = [r.rho for r in rows if r.log2_coeff > 0]
    if not rhos:
        raise UsageError("no rows with positive log2_coeff")
    ratio = max(rhos) / min(rhos)
    return EnvelopeReport(
        rhos=rhos, ratio=ratio, golden=GOLDEN_ENVELOPE_RATIO, ok=ratio <= GOLDEN_ENVELOPE_RATIO
    )


def theoretical_exponents(a_value: float, delta: float) -> dict:
    """The exponent triple (facets, section vertices, squared radii ratio)
    and its total 2 + a(1 - delta)."""
    return {
        "facet_exponent": 1.0 - a_value,
        "vertex_exponent": a_value + delta * (1.0 - a_value),
        "radii_exponent": 1.0 - delta + a_value,
        "total": 2.0 + a_value * (1.0 - delta),
    }


def check_fit_tol(fit_tol: float, name: str = "fit_tol") -> None:
    """Raise UsageError, naming the value ``name``, unless ``fit_tol`` is a
    finite number >= 0: a negative one would read as a failed fit, and a
    non-finite one does not serialise as JSON."""
    if not (math.isfinite(fit_tol) and fit_tol >= 0):
        raise UsageError(f"{name} must be a finite number >= 0, got {fit_tol}")


def flm_report(
    a: DensityParam,
    delta: Fraction,
    rows: list[ScanRow],
    fit_tol: float = 0.1,
) -> dict:
    """Exponent-budget report: theoretical triple plus the measured middle exponent.

    The facet and radii exponents are quoted bounds from prior work on the
    section construction and are not computed here; the vertex exponent of
    a generic section is bounded by the face count this package measures,
    which is the quantity the fit estimates.
    """
    check_fit_tol(fit_tol)
    a_val = float(a.value)
    d_val = float(delta)
    theory = theoretical_exponents(a_val, d_val)
    fit = fit_exponent(rows, a)
    envelope = bound_envelope(rows)
    measured = fit.slope
    target = theory["vertex_exponent"]
    return {
        "a": str(a),
        "delta": f"{delta.numerator}/{delta.denominator}",
        "theoretical": theory,
        "measured_vertex_exponent": measured,
        "fit_target": target,
        "fit_tolerance": fit_tol,
        "fit_ok": abs(measured - target) <= fit_tol,
        "fit": asdict(fit),
        "envelope": asdict(envelope),
        "provenance": {
            "facet_exponent": "quoted bound for the section construction (not computed here)",
            "radii_exponent": "quoted bound for the section construction (not computed here)",
            "vertex_exponent": "measured: generic-section vertices are bounded by the "
            "face numbers this scan fits",
        },
    }
