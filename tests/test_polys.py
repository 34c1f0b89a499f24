import math
import random
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hannerfaces import _kernels
from hannerfaces.errors import PrecisionError, UsageError
from hannerfaces.polys import (
    DecimalPoly,
    IntPoly,
    LogPoly,
    convolve_truncated,
    eval_at_one,
    int_nth_root,
    log2_int,
    power_truncated,
)


def P(coeffs, kmax):
    return IntPoly.from_coeffs(coeffs, kmax)


def L(coeffs, kmax):
    """The LogPoly of an IntPoly's coefficients, built with the constructor."""
    return LogPoly(np.array([log2_int(c) for c in P(coeffs, kmax).coeffs]), kmax)


class TestConvolveTruncated:
    def test_segment_squared(self):
        f = P([2, 1], 4)
        assert convolve_truncated(f, f).coeffs == (4, 4, 1, 0, 0)

    def test_identity(self):
        f = P([2, 1], 4)
        assert convolve_truncated(f, IntPoly.one(4)) == f

    def test_truncation_discards_high_terms(self):
        f = P([4, 4, 1], 2)
        assert convolve_truncated(f, f).coeffs == (16, 32, 24)

    def test_kmax_mismatch(self):
        with pytest.raises(UsageError):
            convolve_truncated(P([1], 1), P([1], 2))

    def test_matches_schoolbook_random(self):
        rng = random.Random(1301)
        for _ in range(40):
            kmax = rng.randrange(0, 80)
            f = [rng.randrange(0, 2**64) for _ in range(kmax + 1)]
            g = [rng.randrange(0, 2**64) for _ in range(kmax + 1)]
            fast = _kernels.convolve_exact(f, g, kmax + 1)
            slow = _kernels.convolve_schoolbook(f, g, kmax + 1)
            assert fast == slow

    def test_matches_schoolbook_huge_coefficients(self):
        rng = random.Random(7)
        f = [rng.randrange(0, 2**4096) for _ in range(33)]
        g = [rng.randrange(0, 2**4096) for _ in range(33)]
        assert _kernels.convolve_exact(f, g, 33) == _kernels.convolve_schoolbook(f, g, 33)

    def test_commutative_associative(self):
        rng = random.Random(42)
        for _ in range(20):
            kmax = rng.randrange(0, 64)
            f, g, h = (
                P([rng.randrange(0, 1000) for _ in range(kmax + 1)], kmax)
                for _ in range(3)
            )
            assert convolve_truncated(f, g) == convolve_truncated(g, f)
            assert convolve_truncated(convolve_truncated(f, g), h) == convolve_truncated(
                f, convolve_truncated(g, h)
            )

    def test_truncation_coherence(self):
        rng = random.Random(99)
        for _ in range(20):
            kmax = rng.randrange(1, 64)
            kprime = rng.randrange(0, kmax + 1)
            f = P([rng.randrange(0, 10**6) for _ in range(kmax + 1)], kmax)
            g = P([rng.randrange(0, 10**6) for _ in range(kmax + 1)], kmax)
            a = convolve_truncated(IntPoly.from_coeffs(f.coeffs, kprime), IntPoly.from_coeffs(g.coeffs, kprime))
            b = IntPoly.from_coeffs(convolve_truncated(f, g).coeffs, kprime)
            assert a == b

    def test_negative_coefficients_rejected(self):
        with pytest.raises(UsageError):
            IntPoly((1, -1), 1)


class TestEvalAtOne:
    def test_segment(self):
        assert eval_at_one(P([2, 1], 1)) == 3

    def test_zero(self):
        assert eval_at_one(IntPoly.zero(5)) == 0

    def test_square(self):
        assert eval_at_one(P([4, 4, 1], 2)) == 9


class TestPowerTruncated:
    def test_small_powers(self):
        f = P([2, 1], 8)
        assert power_truncated(f, 0) == IntPoly.one(8)
        assert power_truncated(f, 1) == f
        assert power_truncated(f, 2).coeffs[:3] == (4, 4, 1)
        # (2+t)^4 = 16 + 32t + 24t^2 + 8t^3 + t^4
        assert power_truncated(f, 4).coeffs[:5] == (16, 32, 24, 8, 1)

    def test_matches_repeated_multiplication(self):
        f = P([3, 1, 4], 12)
        acc = IntPoly.one(12)
        for e in range(7):
            assert power_truncated(f, e) == acc
            acc = convolve_truncated(acc, f)


class TestLogConvolve:
    def test_segment_squared_close_to_exact(self):
        f = L([2, 1], 4)
        out = convolve_truncated(f, f)
        expect = [math.log2(4), math.log2(4), 0.0, -math.inf, -math.inf]
        for got, want in zip(out.log2_coeffs, expect):
            if want == -math.inf:
                assert got == -math.inf
            else:
                assert abs(got - want) <= 1e-12

    def test_unit_identity(self):
        f = L([5, 0, 7, 1], 3)
        unit = LogPoly.monomial(1, 0, 3)
        out = convolve_truncated(f, unit)
        assert np.array_equal(out.log2_coeffs, f.log2_coeffs)

    def test_all_neg_inf(self):
        z = LogPoly.monomial(0, 0, 6)
        out = convolve_truncated(z, z)
        assert np.all(np.isneginf(out.log2_coeffs))

    def test_exact_log_agreement_random_sparse(self):
        rng = random.Random(2024)
        for _ in range(15):
            kmax = rng.randrange(4, 257)
            f = [0] * (kmax + 1)
            g = [0] * (kmax + 1)
            for arr in (f, g):
                for _ in range(rng.randrange(1, 24)):
                    arr[rng.randrange(kmax + 1)] = rng.randrange(1, 2**64)
            fp, gp = P(f, kmax), P(g, kmax)
            exact = convolve_truncated(fp, gp)
            approx = convolve_truncated(L(f, kmax), L(g, kmax))
            for k in range(kmax + 1):
                want = log2_int(exact[k])
                got = approx[k]
                if want == -math.inf:
                    assert got == -math.inf
                else:
                    assert abs(got - want) <= 1e-9

    def test_overflow_raises(self):
        f = LogPoly(np.array([1.5e308, 1.5e308]), 1)
        with pytest.raises(PrecisionError):
            convolve_truncated(f, f)

    def test_kmax_mismatch(self):
        with pytest.raises(UsageError):
            convolve_truncated(LogPoly.monomial(0, 0, 1), LogPoly.monomial(0, 0, 2))

    def test_types_do_not_mix(self):
        with pytest.raises(UsageError, match="LogPoly does not combine with IntPoly"):
            convolve_truncated(L([2, 1], 3), P([2, 1], 3))
        with pytest.raises(UsageError, match="IntPoly does not combine with LogPoly"):
            P([2, 1], 3) + L([2, 1], 3)


def _close_log2(got: np.ndarray, exact: DecimalPoly) -> bool:
    """got agrees with log2 of exact's coefficients within 2**-50 relative,
    and is -inf exactly where a coefficient is zero."""
    want = np.array([log2_int(exact[k]) for k in range(exact.kmax + 1)])
    zero = np.isneginf(want)
    return bool(
        (np.isneginf(got) == zero).all()
        and (np.abs(got[~zero] - want[~zero]) <= 2.0**-50 * np.maximum(np.abs(want[~zero]), 1.0)).all()
    )


class TestLogArithmetic:
    """LogPoly's methods are DecimalPoly's taken through log2."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 12).flatmap(
            lambda kmax: st.tuples(
                st.just(kmax),
                st.lists(st.integers(0, 2**70), min_size=kmax + 1, max_size=kmax + 1),
                st.lists(st.integers(0, 2**70), min_size=kmax + 1, max_size=kmax + 1),
            )
        ),
        st.integers(0, 5),
        st.integers(0, 14),
        st.integers(0, 1000),
    )
    def test_matches_log2_of_decimal_ops(self, polys, c, d, coeff):
        kmax, fs, gs = polys
        exact_f = DecimalPoly(tuple(map(Decimal, fs)), kmax)
        exact_g = DecimalPoly(tuple(map(Decimal, gs)), kmax)
        f, g = L(fs, kmax), L(gs, kmax)
        cases = [
            (LogPoly.monomial(coeff, d, kmax), DecimalPoly.monomial(coeff, d, kmax)),
            (f.shift(d), exact_f.shift(d)),
            (f.scale(c), exact_f.scale(c)),
            (f + g, exact_f + exact_g),
            # two operands take the full kernel; a square of a non-concave
            # state raises, and the band is checked on concave runs in test_kernels
            (convolve_truncated(f, g), convolve_truncated(exact_f.to_intpoly(), exact_g.to_intpoly())),
        ]
        for got, want in cases:
            assert got.kmax == want.kmax
            assert _close_log2(got.log2_coeffs, want)

    def test_scale_by_two_adds_exactly_one(self):
        f = L([5, 0, 7, 2**80], 3)
        assert np.array_equal(f.scale(2).log2_coeffs, f.log2_coeffs + 1.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(UsageError):
            LogPoly.monomial(-1, 0, 2)
        with pytest.raises(UsageError):
            L([1, 2], 1).scale(-2)


class TestHelpers:
    def test_log2_int_matches_float_for_small(self):
        for n in (1, 2, 3, 17, 2**52 + 1):
            assert abs(log2_int(n) - math.log2(n)) < 1e-12

    def test_log2_int_huge(self):
        n = 3**1000
        # compare against exact identity log2(3^1000) = 1000*log2(3)
        assert abs(log2_int(n) - 1000 * math.log2(3)) < 1e-9

    def test_int_nth_root(self):
        assert int_nth_root(0, 3) == 0
        assert int_nth_root(63, 2) == 7
        assert int_nth_root(64, 2) == 8
        for x in (2**60 - 1, 2**60, 10**30 + 12345, 3**5000, 3**5000 - 1):
            for r in (2, 3, 4, 5, 7):
                y = int_nth_root(x, r)
                assert y**r <= x < (y + 1) ** r

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 2**24), st.integers(3, 2000), st.integers(-2, 2))
    def test_int_nth_root_at_and_near_exact_powers(self, y, r, offset):
        # small roots: the float estimate decides only where it is certain
        x = y**r + offset
        root = int_nth_root(x, r)
        assert root**r <= x < (root + 1) ** r
