import math
from fractions import Fraction

import pytest

from hannerfaces import recursion, schedule
from hannerfaces.asymptotics import (
    ScanRow,
    bound_envelope,
    fit_exponent,
    floor_d_delta,
    flm_report,
    rho_denominator,
    scan,
    theoretical_exponents,
)
from hannerfaces.errors import UsageError
from hannerfaces.polys import log2_int
from hannerfaces.recursion import Engine, face_numbers
from hannerfaces.schedule import DensityParam
from hannerfaces.selftest import golden_like

HALF = DensityParam.rational(1, 2)
THIRD = DensityParam.rational(1, 3)
DELTA_HALF = Fraction(1, 2)


def _newton_root(x: int, r: int) -> int:
    """floor(x**(1/r)) by Newton's iteration down from 2^ceil(bit_length/r):
    exact, but about r steps when the root is small."""
    if r == 1 or x in (0, 1):
        return x
    y = 1 << (-(-x.bit_length() // r))
    while True:
        y_next = ((r - 1) * y + x // y ** (r - 1)) // r
        if y_next >= y:
            break
        y = y_next
    while y**r > x:
        y -= 1
    while (y + 1) ** r <= x:
        y += 1
    return y


class TestFloorDDelta:
    def test_exact_powers(self):
        assert floor_d_delta(4, DELTA_HALF) == 4
        assert floor_d_delta(5, DELTA_HALF) == 5  # floor(2^2.5) = floor(5.656) = 5
        assert floor_d_delta(9, Fraction(1, 3)) == 8
        assert floor_d_delta(10, Fraction(1, 3)) == 10  # floor(2^(10/3)) = 10

    def test_large_values_stay_exact(self):
        # 2^(51/2): float arithmetic would be at the edge of rounding here.
        k = floor_d_delta(51, DELTA_HALF)
        assert k == math.isqrt(2**51)

    def test_delta_range(self):
        with pytest.raises(UsageError):
            floor_d_delta(4, Fraction(3, 2))

    @pytest.mark.parametrize(
        "delta", [Fraction(1, 2000), DELTA_HALF, Fraction(1, 3), Fraction(3, 7), Fraction(5, 6)]
    )
    def test_matches_newton_from_a_power_of_two(self, delta):
        num, den = delta.numerator, delta.denominator
        # every n below 80, and n around the multiples of den, where d^delta is an integer
        ns = set(range(80)) | {j * den + e for j in (1, 2, 7) for e in (-1, 0, 1)}
        if den == 2000:
            ns |= {7499, 15000}
        for n in sorted(ns):
            assert floor_d_delta(n, delta) == _newton_root(2 ** (n * num), den), n


class TestScan:
    def test_n2_example(self):
        rows = scan(HALF, DELTA_HALF, [2], Engine.PAPER_EXACT)
        assert rows[0].k == 2
        assert abs(rows[0].log2_coeff - math.log2(34)) < 1e-12

    def test_n0_example(self):
        rows = scan(HALF, DELTA_HALF, [0], Engine.PAPER_EXACT)
        assert rows[0].k == 1
        assert rows[0].log2_coeff == 0.0

    def test_rows_sorted_and_increasing(self):
        rows = scan(HALF, DELTA_HALF, [6, 2, 4], Engine.PAPER_EXACT)
        assert [r.n for r in rows] == [2, 4, 6]
        assert rows[0].log2_coeff < rows[1].log2_coeff < rows[2].log2_coeff

    def test_exact_and_log_agree(self):
        exact = scan(HALF, DELTA_HALF, range(1, 13), Engine.PAPER_EXACT)
        approx = scan(HALF, DELTA_HALF, range(1, 13), Engine.PAPER_LOG)
        for e, l in zip(exact, approx):
            assert abs(e.log2_coeff - l.log2_coeff) <= 1e-6 * e.log2_coeff

    def test_feasibility_cap(self):
        with pytest.raises(UsageError):
            scan(HALF, DELTA_HALF, [22], Engine.PAPER_EXACT)
        # a log scan meets the state size rule alone: K = 2^21 slots of 64 bits
        with pytest.raises(UsageError, match=r"at n=42, K=2097152 .*\(134,217,792 > 134,217,728 bits\)$"):
            scan(HALF, DELTA_HALF, [42], Engine.PAPER_LOG)

    @pytest.mark.parametrize(
        ("a", "nmax", "engine"),
        [(HALF, 16, Engine.PAPER_EXACT), (golden_like(128), 22, Engine.PAPER_LOG)],
    )
    def test_one_size_bound_per_scan(self, monkeypatch, a, nmax, engine):
        sized = []
        real = recursion.widest_log2_bound

        def spy(a, n_max, kmax, limit):
            sized.append((n_max, kmax))
            return real(a, n_max, kmax, limit)

        monkeypatch.setattr(recursion, "widest_log2_bound", spy)
        scan(a, DELTA_HALF, range(nmax + 1), engine)
        assert sized == [(nmax, floor_d_delta(nmax, DELTA_HALF))]

    def test_exact_scan_is_admitted_by_its_state(self):
        # k = 1448 at n = 21 is refused for its predicted state, not for k
        with pytest.raises(UsageError, match="Mbit"):
            scan(HALF, DELTA_HALF, [21], Engine.PAPER_EXACT)

    def test_window_metadata(self):
        (row,) = scan(THIRD, DELTA_HALF, [7], Engine.PAPER_EXACT)
        assert row.Q == 3 and row.m == 2 and row.p == 1

    def test_row_rho_divides_by_the_growth_scale(self):
        # n = 6: k = 8, Q = 2, m = 3, p = 1, so the scale is 2^3 * 8^(1/2)
        (row,) = scan(HALF, DELTA_HALF, [6], Engine.PAPER_EXACT)
        assert (row.k, row.Q, row.m, row.p) == (8, 2, 3, 1)
        a68 = face_numbers(HALF, 6, 8, Engine.PAPER_EXACT)[8]
        assert row.rho == pytest.approx(log2_int(a68) / (8 * math.sqrt(8)))

    def test_rho_denominator_at_k_one(self):
        assert rho_denominator(2, 2, 1, 1) == 2.0 ** (2 * 1)

    def test_each_window_is_profiled_once(self, monkeypatch):
        a = DensityParam.rational(1, 40)
        steps = []
        counted = schedule.is_product_step
        monkeypatch.setattr(
            schedule, "is_product_step", lambda n, dens: steps.append(n) or counted(n, dens)
        )
        rows = scan(a, Fraction(1, 16), range(100), Engine.PAPER_LOG)
        # windows m = 0, 1, 2 of Q = 40 steps, not one window per row
        assert sorted(steps) == list(range(120))
        monkeypatch.undo()
        for r in rows:
            assert (r.Q, r.m, r.p) == (40, r.n // 40, schedule.window_profile(a, 40, r.n // 40).p)


class TestFitExponent:
    def synthetic_rows(self, slope, ns):
        return [
            ScanRow(
                n=n,
                k=1,
                Q=1,
                m=n,
                p=1,
                log2_coeff=2.0 ** (slope * n + 0.3),
                rho=1.0,
                engine="paper",
            )
            for n in ns
        ]

    def test_recovers_exact_slope(self):
        fit = fit_exponent(self.synthetic_rows(0.75, range(2, 10)))
        assert abs(fit.slope - 0.75) < 1e-12
        assert all(abs(s - 0.75) < 1e-9 for s in fit.step_slopes)

    def test_degenerate_rows_flagged(self):
        rows = self.synthetic_rows(0.0, range(2, 8))
        fit = fit_exponent(rows)
        assert fit.degenerate and fit.slope == 0.0

    def test_too_few_rows(self):
        with pytest.raises(UsageError):
            fit_exponent(self.synthetic_rows(0.5, [1, 2, 3]))

    def test_repeated_n_counts_once(self):
        with pytest.raises(UsageError):
            fit_exponent(scan(HALF, DELTA_HALF, [4] * 5, Engine.PAPER_EXACT))
        repeated = fit_exponent(scan(HALF, DELTA_HALF, [2, 4, 4, 6, 8, 8, 10], Engine.PAPER_EXACT))
        assert repeated == fit_exponent(scan(HALF, DELTA_HALF, [2, 4, 6, 8, 10], Engine.PAPER_EXACT))

    def test_rational_filter(self):
        rows = scan(THIRD, DELTA_HALF, range(1, 14), Engine.PAPER_EXACT)
        fit = fit_exponent(rows, THIRD)
        assert all(n % 3 == 0 for n in fit.n_used)

    def test_mixed_engines_rejected(self):
        rows = self.synthetic_rows(0.5, range(2, 6))
        other = scan(HALF, DELTA_HALF, [2], Engine.PAPER_LOG)
        with pytest.raises(UsageError):
            fit_exponent(rows + other)

    def test_desk_scale_slope_near_target(self):
        rows = scan(HALF, DELTA_HALF, range(2, 15, 2), Engine.PAPER_EXACT)
        fit = fit_exponent(rows, HALF)
        # small-n fit is biased but already in the right neighbourhood
        assert abs(fit.slope - 0.75) < 0.15


class TestBoundEnvelope:
    def test_rational_ratio_small(self):
        rows = scan(HALF, DELTA_HALF, range(2, 15, 2), Engine.PAPER_EXACT)
        rep = bound_envelope(rows)
        assert rep.ok
        assert rep.ratio < 4

    def test_r_zero_rows_have_window_aligned_n(self):
        rows = scan(HALF, DELTA_HALF, [4], Engine.PAPER_EXACT)
        assert rows[0].n == rows[0].Q * rows[0].m  # r = 0: sandwich lower side is equality

    def test_empty_rejected(self):
        rows = scan(HALF, DELTA_HALF, [0], Engine.PAPER_EXACT)
        with pytest.raises(UsageError):
            bound_envelope(rows)


class TestIrrationalScan:
    def test_small_smoke(self):
        a = golden_like()
        rows = scan(a, DELTA_HALF, range(4, 11), Engine.PAPER_LOG)
        assert all(r.log2_coeff > 0 for r in rows)
        vals = [r.log2_coeff for r in rows]
        assert vals == sorted(vals)


class TestEngineSlopeAgreement:
    def test_geometric_slope_matches_paper_within_002(self):
        # the hull-convention discrepancy is sub-exponential
        ns = range(2, 15, 2)
        paper = fit_exponent(scan(HALF, DELTA_HALF, ns, Engine.PAPER_EXACT), HALF)
        geo = fit_exponent(scan(HALF, DELTA_HALF, ns, Engine.GEOMETRIC_EXACT), HALF)
        assert abs(paper.slope - geo.slope) < 0.02


class TestScanLowerBoundConsistency:
    def test_aligned_rows_dominate_certificate(self):
        from hannerfaces.trees import lower_bound_certificate

        rows = scan(HALF, DELTA_HALF, [6, 8, 10, 12, 14], Engine.PAPER_EXACT)
        for r in rows:
            assert r.n == r.Q * r.m
            try:
                cert = lower_bound_certificate(HALF, r.Q, r.m, r.k)
            except Exception:
                continue  # outside the construction's preconditions
            assert cert.bound_log2 <= r.log2_coeff


class TestFlmReport:
    def test_half_half_triple(self):
        rows = scan(HALF, DELTA_HALF, range(2, 15, 2), Engine.PAPER_EXACT)
        rep = flm_report(HALF, DELTA_HALF, rows, fit_tol=0.2)
        t = rep["theoretical"]
        assert t["facet_exponent"] == 0.5
        assert t["vertex_exponent"] == 0.75
        assert t["radii_exponent"] == 1.0
        assert t["total"] == 2.25
        assert rep["fit_ok"]

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_fit_tol_must_be_a_tolerance(self, tol):
        rows = scan(HALF, DELTA_HALF, range(13), Engine.PAPER_LOG)
        with pytest.raises(UsageError, match=r"fit_tol must be a finite number >= 0"):
            flm_report(HALF, DELTA_HALF, rows, fit_tol=tol)
        assert flm_report(HALF, DELTA_HALF, rows, fit_tol=0.0)["fit_tolerance"] == 0.0

    def test_total_identity(self):
        for a_val, d_val in ((0.25, 0.5), (0.7, 0.3)):
            t = theoretical_exponents(a_val, d_val)
            s = t["facet_exponent"] + t["vertex_exponent"] + t["radii_exponent"]
            assert abs(s - t["total"]) < 1e-12

    def test_a_near_one_limit(self):
        t = theoretical_exponents(0.999, 0.5)
        assert abs(t["total"] - (2 + (1 - 0.5))) < 2e-3
