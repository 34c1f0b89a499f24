import math
from fractions import Fraction

import pytest

from hannerfaces.asymptotics import (
    ScanRow,
    bound_envelope,
    fit_exponent,
    floor_d_delta,
    flm_report,
    scan,
    theoretical_exponents,
)
from hannerfaces.errors import UsageError
from hannerfaces.recursion import Engine

from test_schedule import golden_like
from hannerfaces.schedule import DensityParam

HALF = DensityParam.rational(1, 2)
THIRD = DensityParam.rational(1, 3)
DELTA_HALF = Fraction(1, 2)


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
        with pytest.raises(UsageError):
            scan(HALF, DELTA_HALF, [28], Engine.PAPER_LOG)

    def test_window_metadata(self):
        (row,) = scan(THIRD, DELTA_HALF, [7], Engine.PAPER_EXACT)
        assert row.Q == 3 and row.m == 2 and row.p == 1


class TestFitExponent:
    def synthetic_rows(self, slope, ns):
        return [
            ScanRow(
                n=n,
                d=2**n,
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

    def test_total_identity(self):
        for a_val, d_val in ((0.25, 0.5), (0.7, 0.3)):
            t = theoretical_exponents(a_val, d_val)
            s = t["facet_exponent"] + t["vertex_exponent"] + t["radii_exponent"]
            assert abs(s - t["total"]) < 1e-12

    def test_a_near_one_limit(self):
        t = theoretical_exponents(0.999, 0.5)
        assert abs(t["total"] - (2 + (1 - 0.5))) < 2e-3
