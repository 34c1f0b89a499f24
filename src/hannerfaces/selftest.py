"""The acceptance criteria and invariant checks, as one table.

``CHECKS`` is the one definition of acceptance criteria 1-11, at their
stated grids, seeds, tolerances and runtime limits, followed by the
cross-validation invariants that no criterion covers.  Each entry is a
``(name, check)`` pair; the check raises on failure and returns a one-line
detail.  Two consumers run the whole table: the ``selftest`` subcommand
(``run_selftest``) and the pytest acceptance gate
(``tests/test_acceptance.py``).  The table takes about 2 s on one core
(1.9-2.0 s as a child process on a 2-CPU Xeon VM), well under five minutes.
"""

from __future__ import annotations

import math
import random
import time
from decimal import Decimal
from fractions import Fraction

from . import _kernels
from .asymptotics import (
    GOLDEN_DRIFT_CONSTANT,
    GOLDEN_ENVELOPE_RATIO,
    bound_envelope,
    fit_exponent,
    floor_d_delta,
    flm_report,
    scan,
)
from .geometry import build_polytope, oracle_report, radii, radii_recursion
from .phimap import apply_phi, compose_window, tfree_and_top
from .polys import IntPoly, convolve_truncated, eval_at_one, log2_int
from .recursion import (
    Engine,
    face_numbers,
    proper_f_vector,
    run,
    step,
    step_coefficient,
    verify_growth_bounds,
)
from .schedule import DensityParam, StepKind, is_product_step, window_profile
from .trees import (
    lower_bound_certificate,
    lower_bound_histogram,
    tree_sum_check,
    tree_weight,
)

HALF = DensityParam.rational(1, 2)
THIRD = DensityParam.rational(1, 3)
TWO_THIRDS = DensityParam.rational(2, 3)
TWO_FIFTHS = DensityParam.rational(2, 5)
DELTA_HALF = Fraction(1, 2)
DELTA_QUARTER = Fraction(1, 4)


def golden_like(bits: int = 128) -> DensityParam:
    """(sqrt(5)-1)/2 approximated to comfortably more than ``bits`` bits."""
    digits = bits // 3 + 12
    scale = 10**digits
    num = math.isqrt(5 * scale * scale) - scale
    return DensityParam.real(Fraction(num, 2 * scale), bits)


def check(condition, message):
    # an explicit raise, so the checks still run under ``python -O``
    if not condition:
        raise AssertionError(message)


def _check_runtime(start: float, limit: float, what: str):
    elapsed = time.monotonic() - start
    check(elapsed < limit, f"{what} took {elapsed:.1f}s, over its {limit:.0f}s limit")


def _euler_holds(f_vector, d: int) -> bool:
    return sum((-1) ** k * f_vector[k] for k in range(d)) == 1 - (-1) ** d


def _log_scan_half():
    return scan(HALF, DELTA_HALF, range(14, 27, 2), Engine.PAPER_LOG)


def _criterion_1():
    start = time.monotonic()
    for a in (HALF, THIRD, TWO_THIRDS, TWO_FIFTHS):
        for n in range(4):
            report = oracle_report(a, n)
            failures = report["crosscheck_failures"]
            check(not failures, f"oracle failures {failures} (a={a}, n={n})")
            f_vector = list(map(int, report["f_vector"]))
            check(_euler_holds(f_vector, 2**n), f"Euler relation violated (a={a}, n={n})")
    # past the lattice's reach, the geometric engine alone
    for a in (HALF, THIRD, TWO_THIRDS):
        total = eval_at_one(run(a, 5, 2**5, Engine.GEOMETRIC_EXACT).poly.to_intpoly())
        check(total == 3**32, f"engine face total != 3^32 (a={a}, n=5)")
        check(_euler_holds(proper_f_vector(a, 4), 16), f"Euler relation violated (a={a}, n=4)")
    _check_runtime(start, 60.0, "criterion 1")
    return "16 lattice/engine agreements, 3^d totals, Euler; engine 3^32 at n=5, Euler at n=4"


def _criterion_2():
    paper = face_numbers(HALF, 2, 5, Engine.PAPER_EXACT)
    geo = face_numbers(HALF, 2, 5, Engine.GEOMETRIC_EXACT)
    check(paper == [8, 24, 34, 24, 8, 1], f"printed-recursion vector {paper} at n=2")
    check(geo == [8, 24, 32, 16, 1, 0], f"free-sum vector {geo} at n=2")
    check(paper[0] == geo[0] and paper[1] == geo[1], "engines differ at k < 2")
    check(paper[2] > geo[2], "printed recursion does not exceed free sum at k=2")
    for a, n, kmax in ((HALF, 2, 5), (HALF, 9, 32), (THIRD, 9, 32)):
        paper = face_numbers(a, n, kmax, Engine.PAPER_EXACT)
        geo = face_numbers(a, n, kmax, Engine.GEOMETRIC_EXACT)
        check(all(p >= g for p, g in zip(paper, geo)), f"dominance violated (a={a}, n={n})")
    return "pinned vectors (8,24,34,24,8,1) vs (8,24,32,16,1,0), k<2 equality, dominance to n=9, k<=32"


def _criterion_3():
    start = time.monotonic()
    for a in (HALF, THIRD, TWO_THIRDS):
        for Q, m in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]:
            res = tree_sum_check(a, Q, m, 16)  # raises on any mismatch
            check(res.match, f"tree-sum identity failed (a={a}, Q={Q}, m={m})")
    _check_runtime(start, 120.0, "criterion 3")
    return "18 (a,Q,m) identities incl. coefficient formula at kmax=16"


def _criterion_4():
    rng = random.Random(20260810)
    S, R = StepKind.PRODUCT, StepKind.HULL
    for _ in range(200):
        q = rng.randrange(1, 9)
        word = tuple(rng.choice((S, R)) for _ in range(q))
        phi = compose_window(word)
        A, p, B, lam = tfree_and_top(phi)  # raises unless the t-free term is unique
        check(max(phi.support) == 2**q, f"top x-degree wrong for {word}")
        check(min(phi.support) == 2**p, f"bottom x-degree wrong for {word}")
        check(B == 1, f"t-free coefficient B = {B} for {word}")
    check(compose_window((R, S, R)).terms[4] == (1, (16, 2)), "(R,S,R) counterexample moved")
    return "200 random words Q<=8 + exact (R,S,R) counterexample C_4 = 16t + 2t^2"


def _criterion_5():
    # k in {0,1} are genuine counterexamples to the printed k^(2^r) bound
    # (e.g. a=1/2: a_{2,1}=24 > A_{1,1}^2=16), so the sample is k in [2,64].
    for a in (HALF, THIRD):
        for n in range(1, 15):
            for r in range(4):
                for c in verify_growth_bounds(a, n, r, 64).checks:
                    where = f"(a={a}, n={n}, r={r}, k={c.k})"
                    check(c.monotone_ok, f"monotonicity violated {where}")
                    if c.k >= 2:
                        check(c.upper_ok, f"k^(2^r) A^(2^r) bound violated {where}")
                        check(c.sandwich_ok, f"sandwich violated {where}")
    return "monotonicity, k^(2^r) A^(2^r) bound, and sandwich over n<=14, r<=3, k in [2,64]"


def _criterion_6():
    for a, Q, m_range in ((HALF, 2, range(3, 9)), (THIRD, 3, range(2, 6))):
        for m in m_range:
            n = Q * m
            k = floor_d_delta(n, DELTA_HALF)
            cert = lower_bound_certificate(a, Q, m, k)
            where = f"(a={a}, m={m}, k={k})"
            check(2 * cert.jstar <= k, f"jstar above k/2 {where}")
            check(cert.qcount <= k, f"Q(T) above k {where}")
            # oracle: the closed-form coefficient against the built weight W(T_m)
            phi = compose_window(window_profile(a, Q, 0).word)
            hist = lower_bound_histogram(Q, cert.p, cert.h, m)
            w = tree_weight(hist, [phi] * m, max(cert.jweight, 1))
            check(cert.A**cert.typical == w[cert.jweight], f"certificate weight differs from W(T_m) {where}")
            engine_log2 = log2_int(face_numbers(a, n, k, Engine.PAPER_EXACT)[k])
            check(cert.bound_log2 <= engine_log2, f"lower bound exceeds engine value {where}")
    return "2^(L-k) <= a_(Qm,k) with jstar<=k/2, Q(T)<=k at 10 grid points"


def _criterion_7():
    start = time.monotonic()
    rows_h = _log_scan_half()
    rows_t = scan(THIRD, DELTA_HALF, [15, 18, 21, 24], Engine.PAPER_LOG)
    values = [r.log2_coeff for r in rows_h]
    check(all(x < y for x, y in zip(values, values[1:])), "a=1/2 scan not strictly increasing")
    check(bound_envelope(rows_h).ok, f"a=1/2 rho spread above golden {GOLDEN_ENVELOPE_RATIO}")
    fit_h = fit_exponent(rows_h, HALF)
    check(fit_h.within(0.75, 0.05), f"slope {fit_h.slope:.4f} not within 0.75±0.05")
    fit_t = fit_exponent(rows_t, THIRD)
    target_t = 1 / 3 + 0.5 * (2 / 3)
    check(fit_t.within(target_t, 0.05), f"slope {fit_t.slope:.4f} not within {target_t:.4f}±0.05")
    _check_runtime(start, 120.0, "criterion 7")
    return f"slopes {fit_h.slope:.4f} (a=1/2) and {fit_t.slope:.4f} (a=1/3) within ±0.05"


def _criterion_8():
    a = golden_like(128)
    target = float(a.value) + 0.5 * (1 - float(a.value))
    rows = scan(a, DELTA_HALF, range(10, 27), Engine.PAPER_LOG)
    fit = fit_exponent(rows)
    check(fit.within(target, 0.12), f"slope {fit.slope:.4f} not within {target:.4f}±0.12")
    # drift: per-row empirical exponent approaches the target like C/sqrt(n)
    drifts = [(r.n, math.log2(r.log2_coeff) / r.n - target) for r in rows]
    for n, diff in drifts:
        check(abs(diff) <= GOLDEN_DRIFT_CONSTANT / math.sqrt(n), f"drift {diff:.4f} at n={n}")
    check(abs(drifts[-1][1]) < abs(drifts[0][1]), "drift does not trend toward the target")
    env = bound_envelope(rows)
    check(env.ok, f"rho spread {env.ratio:.2f} above golden {env.golden}")
    return f"slope {fit.slope:.4f} (target {target:.4f}), rho spread {env.ratio:.2f}"


def _criterion_9():
    for a in (HALF, THIRD, TWO_THIRDS, TWO_FIFTHS, golden_like(128)):
        for n in range(17):
            r_sq, r_inv_sq = radii_recursion(a, n)
            check(r_sq * r_inv_sq == 2**n, f"(R/r)^2 != 2^n (a={a}, n={n})")
        for n in range(5):
            oracle = radii(build_polytope(a, n))
            check(oracle == radii_recursion(a, n), f"radii oracle mismatch (a={a}, n={n})")
    return "(R/r)^2 = 2^n exactly: recursion n<=16, vertex/normal oracle n<=4, 5 densities"


def _criterion_10():
    for delta in (DELTA_QUARTER, DELTA_HALF):
        for a in (HALF, THIRD):
            exact_rows = scan(a, delta, range(1, 17), Engine.PAPER_EXACT)
            log_rows = scan(a, delta, range(1, 17), Engine.PAPER_LOG)
            for e, l in zip(exact_rows, log_rows):
                ok = abs(e.log2_coeff - l.log2_coeff) <= 1e-6 * abs(e.log2_coeff)
                check(ok, f"log engine off the exact engine (a={a}, delta={delta}, n={e.n})")
    return "PaperLog matches PaperExact within 1e-6 relative, n<=16, delta in {1/4,1/2}"


def _criterion_11():
    rep = flm_report(HALF, DELTA_HALF, _log_scan_half(), fit_tol=0.05)
    t = rep["theoretical"]
    triple = (t["facet_exponent"], t["vertex_exponent"], t["radii_exponent"])
    check(triple == (0.5, 0.75, 1.0), f"exponent triple {triple}")
    check(t["total"] == 2.25 == 2 + 0.5 * (1 - 0.5), f"exponent total {t['total']}")
    check(rep["fit_ok"], "fit outside its tolerance")
    measured = rep["measured_vertex_exponent"]
    check(abs(measured - 0.75) <= 0.05, f"measured middle exponent {measured:.4f}")
    return f"triple (0.5, 0.75, 1.0), total 2.25, measured middle exponent {measured:.4f} attached"


def _check_schedule():
    for a in (HALF, THIRD, TWO_THIRDS):
        q, p = a.value.denominator, a.value.numerator
        kinds = [is_product_step(n, a) for n in range(10 * q)]
        check(kinds[:q] * 10 == kinds, f"schedule not {q}-periodic for a={a}")
        count = sum(1 for k in kinds if k is StepKind.PRODUCT)
        check(count == 10 * p, f"period product count off for a={a}")
    return "q-periodic words with p products per period, 3 densities"


def _check_poly_engine():
    rng = random.Random(0)
    for _ in range(10):
        kmax = rng.randrange(1, 48)
        f = IntPoly.from_coeffs([rng.randrange(0, 2**40) for _ in range(kmax + 1)], kmax)
        g = IntPoly.from_coeffs([rng.randrange(0, 2**40) for _ in range(kmax + 1)], kmax)
        fast = convolve_truncated(f, g)
        slow = _kernels.convolve_schoolbook(list(f.coeffs), list(g.coeffs), kmax + 1)
        check(list(fast.coeffs) == slow, "fast convolution disagrees with schoolbook")
    # One engine-state square: 64 coefficients of 4096 bits, held as Decimals.
    ints = [rng.getrandbits(4096) for _ in range(64)]
    slow = _kernels.convolve_schoolbook(ints, ints, 64)
    state = [Decimal(c) for c in ints]
    square = _kernels.convolve_exact(state, state, 64)
    check(all(isinstance(c, Decimal) for c in square), "decimal square left Decimal")
    check([int(c) for c in square] == slow, "decimal square disagrees with schoolbook")
    return "10 random 40-bit products, K < 48, and a 64 x 4096-bit square through decimal"


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
    return "every k <= 24 at n=10 within 1e-6 relative, a in {1/2,1/3}"


def _check_step_coefficient():
    for engine in (Engine.PAPER_EXACT, Engine.GEOMETRIC_EXACT):
        state = run(THIRD, 5, 64, engine)  # d = 32, so the free-sum t^(2d) sits at k = 64
        for kind in StepKind:
            want = step(state, kind).poly
            got = [step_coefficient(state, kind, k) for k in range(65)]
            where = f"({engine.value} engine, {kind.name} step)"
            check(got == [want[k] for k in range(65)], f"coefficient step off the full step {where}")
    return "every k <= 64 of both step kinds on a=1/3 states at n=5, K=64, both exact engines"


def _check_phi_apply():
    for a in (HALF, THIRD, TWO_THIRDS):
        for Q in (1, 2, 3):
            phi = compose_window(window_profile(a, Q, 0).word)
            before = run(a, 0, 32, Engine.PAPER_EXACT).poly.to_intpoly()
            after = run(a, Q, 32, Engine.PAPER_EXACT).poly.to_intpoly()
            check(apply_phi(phi, before) == after, f"phi application off (a={a}, Q={Q})")
    return "Q <= 3, 3 densities, kmax=32"


def _check_log_kernel_band():
    f = run(THIRD, 16, 256, Engine.PAPER_LOG).poly.log2_coeffs
    check(_kernels._run_and_defect(f)[0] == f.shape[0], "engine state fails the band's concavity check")
    band = _kernels.log_convolve(f, f)
    full = _kernels._log_convolve_full(f, f)
    err = max(abs(x - y) / max(abs(y), 1.0) for x, y in zip(band, full))
    check(err <= 2.0**-50, f"banded square off the full kernel by {err:.3g} relative")
    return "a=1/3 state at n=16, K=256, within 2^-50 relative"


CHECKS = [
    ("criterion_1_oracle_equivalence", _criterion_1),
    ("criterion_2_engine_discrepancy_pattern", _criterion_2),
    ("criterion_3_tree_formula_identity", _criterion_3),
    ("criterion_4_phi_properties", _criterion_4),
    ("criterion_5_growth_bounds", _criterion_5),
    ("criterion_6_lower_bound", _criterion_6),
    ("criterion_7_exponent_reproduction", _criterion_7),
    ("criterion_8_irrational_case", _criterion_8),
    ("criterion_9_radii", _criterion_9),
    ("criterion_10_engine_cross_precision", _criterion_10),
    ("criterion_11_flm_report", _criterion_11),
    ("schedule_periodicity", _check_schedule),
    ("exact_convolution_vs_schoolbook", _check_poly_engine),
    ("log_engine_vs_exact_every_k", _check_log_vs_exact),
    ("coefficient_step_vs_full_step", _check_step_coefficient),
    ("window_map_apply_vs_recursion", _check_phi_apply),
    ("banded_vs_full_log_kernel", _check_log_kernel_band),
]


def run_selftest(out) -> bool:
    """Run every entry of ``CHECKS``, one ``ok``/``FAIL`` line each, and
    continue past failures.  No timings reach ``out``, so identical runs
    write identical bytes."""
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
