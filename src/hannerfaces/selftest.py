"""Desk-scale invariant suite behind the ``selftest`` subcommand.

Each check re-runs one of the package's cross-validation properties at a
size that keeps the whole suite well under five minutes.  The pytest
suite covers the same ground (and more) at full scale; this is the
self-contained smoke battery for installed environments.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import _kernels
from .asymptotics import bound_envelope, fit_exponent, scan
from .geometry import build_polytope, f_vector_crosscheck, radii, radii_recursion
from .phimap import compose_window, apply_phi, tfree_and_top, window_phis
from .polys import IntPoly, convolve_truncated, eval_at_one, log2_int
from .recursion import Engine, face_numbers, log2_face_number, proper_f_vector, run
from .schedule import DensityParam, StepKind, is_product_step, window_profile
from .trees import (
    enumerate_trees,
    lower_bound_certificate,
    preorder_decode,
    preorder_encode,
    tree_sum_check,
)

HALF = DensityParam.rational(1, 2)
THIRD = DensityParam.rational(1, 3)
TWO_THIRDS = DensityParam.rational(2, 3)


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def _check_schedule():
    for a in (HALF, THIRD, TWO_THIRDS):
        q, p = a.value.denominator, a.value.numerator
        kinds = [is_product_step(n, a) for n in range(10 * q)]
        check(kinds[:q] * 10 == kinds, f"schedule not {q}-periodic for a={a}")
        count = sum(1 for k in kinds if k is StepKind.PRODUCT)
        check(count == 10 * p, f"period product count off for a={a}")


def _check_poly_engine():
    rng = random.Random(0)
    for _ in range(10):
        kmax = rng.randrange(1, 48)
        f = IntPoly.from_coeffs([rng.randrange(0, 2**40) for _ in range(kmax + 1)], kmax)
        g = IntPoly.from_coeffs([rng.randrange(0, 2**40) for _ in range(kmax + 1)], kmax)
        fast = convolve_truncated(f, g)
        slow = _kernels.convolve_schoolbook(list(f.coeffs), list(g.coeffs), kmax + 1)
        check(list(fast.coeffs) == slow, "fast convolution disagrees with schoolbook")


def _check_log_vs_exact():
    for a in (HALF, THIRD):
        exact = face_numbers(a, 10, 24, Engine.PAPER_EXACT)
        approx = face_numbers(a, 10, 24, Engine.PAPER_LOG)
        for k in range(25):
            want = log2_int(exact[k])
            ok = (approx[k] == want == -math.inf) or abs(approx[k] - want) <= 1e-6 * max(
                abs(want), 1.0
            )
            check(ok, f"log engine off at n=10, k={k}")


def _check_engine_vectors():
    check(
        face_numbers(HALF, 2, 5, Engine.PAPER_EXACT) == [8, 24, 34, 24, 8, 1],
        "printed-recursion vector wrong at n=2",
    )
    check(
        face_numbers(HALF, 2, 5, Engine.GEOMETRIC_EXACT) == [8, 24, 32, 16, 1, 0],
        "free-sum vector wrong at n=2",
    )


def _check_total_face_counts():
    for a in (HALF, THIRD, TWO_THIRDS):
        state = run(a, 5, 2**5, Engine.GEOMETRIC_EXACT)
        check(eval_at_one(state.poly) == 3**32, f"3^d face total violated for a={a}")
        fv = proper_f_vector(a, 4)
        euler = sum((-1) ** k * fv[k] for k in range(16))
        check(euler == 1 - (-1) ** 16, f"Euler relation violated for a={a}")


def _check_dominance():
    for a in (HALF, THIRD):
        paper = face_numbers(a, 9, 32, Engine.PAPER_EXACT)
        geo = face_numbers(a, 9, 32, Engine.GEOMETRIC_EXACT)
        check(all(p >= g for p, g in zip(paper, geo)), f"dominance violated for a={a}")


def _check_phi_words():
    rng = random.Random(3)
    for _ in range(30):
        word = tuple(
            rng.choice((StepKind.PRODUCT, StepKind.HULL))
            for _ in range(rng.randrange(1, 6))
        )
        phi = compose_window(word)
        A, p, B, lam = tfree_and_top(phi)  # raises on any structural violation
        check(max(phi.support) == 2 ** len(word), "top x-degree wrong")
        check(min(phi.support) == 2**p, "bottom x-degree wrong")
    rsr = compose_window(word_rsr())
    check(tuple(rsr.coefficient(4).coeffs[:3]) == (0, 16, 2), "(R,S,R) regression moved")


def word_rsr():
    return (StepKind.HULL, StepKind.PRODUCT, StepKind.HULL)


def _check_phi_apply():
    for a in (HALF, THIRD, TWO_THIRDS):
        for Q in (1, 2, 3):
            phi = compose_window(window_profile(a, Q, 0).word)
            before = run(a, 0, 32, Engine.PAPER_EXACT).poly
            after = run(a, Q, 32, Engine.PAPER_EXACT).poly
            check(apply_phi(phi, before) == after, f"phi application off (a={a}, Q={Q})")


def _check_tree_identity():
    for a in (HALF, THIRD, TWO_THIRDS):
        for Q, m in ((1, 2), (2, 1), (2, 2)):
            tree_sum_check(a, Q, m, 12)  # raises on mismatch


def _check_preorder():
    for t in enumerate_trees(2, {2, 4}):
        check(preorder_decode(preorder_encode(t, [2, 4]), [2, 4]) == t, "round-trip broke")


def _check_lower_bound():
    for m in (3, 4, 5):
        cert = lower_bound_certificate(HALF, 2, m, 2**m)
        check(cert.weight_coeff >= 1 and cert.qcount <= 2**m, "certificate invalid")
        value_log2 = log2_face_number(HALF, 2 * m, 2**m, Engine.PAPER_EXACT)
        check(value_log2 >= cert.bound_log2, "lower bound exceeds engine value")


def _check_geometry():
    for a in (HALF, THIRD, TWO_THIRDS):
        for n in (0, 1, 2):
            f_vector_crosscheck(a, n)  # raises on mismatch
        for n in range(17):
            rec = radii_recursion(a, n)
            check(rec.R_sq * rec.r_inv_sq == 2**n, "radii product violated")
        r_sq, r_inv_sq = radii(build_polytope(a, 3))
        rec = radii_recursion(a, 3)
        check((r_sq, r_inv_sq) == (rec.R_sq, rec.r_inv_sq), "radii oracle mismatch")


def _check_scan_and_fit():
    rows = scan(HALF, Fraction(1, 2), range(2, 15, 2), Engine.PAPER_EXACT)
    vals = [r.log2_coeff for r in rows]
    check(vals == sorted(vals) and len(set(vals)) == len(vals), "scan not increasing")
    fit = fit_exponent(rows, HALF)
    check(abs(fit.slope - 0.75) < 0.15, f"desk-scale slope {fit.slope:.3f} far from 0.75")
    check(bound_envelope(rows).ok, "envelope ratio above golden")


def _check_log_kernel_band():
    f = run(THIRD, 16, 256, Engine.PAPER_LOG).poly.log2_coeffs
    check(_kernels._concave_run(f) == f.shape[0], "engine state fails the band's concavity check")
    band = _kernels.log_convolve(f, f)
    full = _kernels._log_convolve_full(f, f)
    err = max(abs(x - y) / max(abs(y), 1.0) for x, y in zip(band, full))
    check(err <= 2.0**-50, f"banded square off the full kernel by {err:.3g} relative")


CHECKS = [
    ("schedule periodicity and density", _check_schedule),
    ("exact convolution vs schoolbook", _check_poly_engine),
    ("log engine vs exact engine", _check_log_vs_exact),
    ("pinned engine vectors at n=2", _check_engine_vectors),
    ("3^d face totals and Euler relation", _check_total_face_counts),
    ("printed recursion dominates free-sum counts", _check_dominance),
    ("window map structure on random words", _check_phi_words),
    ("window map application vs stepwise recursion", _check_phi_apply),
    ("tree-sum identity and coefficient formula", _check_tree_identity),
    ("preorder encoding round-trip", _check_preorder),
    ("lower-bound certificates vs engine", _check_lower_bound),
    ("geometric oracle, radii, Kalai totals", _check_geometry),
    ("scan monotonicity, fit, envelope", _check_scan_and_fit),
    ("banded vs full log kernel agreement", _check_log_kernel_band),
]


def run_selftest(out) -> bool:
    ok = True
    for name, fn in CHECKS:
        try:
            fn()
            out.write(f"ok   {name}\n")
        except Exception as exc:  # noqa: BLE001 - report and continue
            ok = False
            out.write(f"FAIL {name}: {exc}\n")
    out.write(("all checks passed" if ok else "SELFTEST FAILED") + "\n")
    return ok
