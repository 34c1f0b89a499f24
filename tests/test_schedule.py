from fractions import Fraction

import pytest

from hannerfaces.errors import PrecisionError, UsageError
from hannerfaces.schedule import (
    DensityParam,
    StepKind,
    choose_window,
    is_product_step,
    window_profile,
    word_letters,
)
from hannerfaces.selftest import golden_like


def product_set_oracle(a: Fraction, n_max: int) -> set[int]:
    """Independent oracle: {floor(m/a) : m >= 0} intersected with [0, n_max)."""
    out = set()
    m = 0
    while True:
        v = int(m / a)  # Fraction division is exact; int() floors nonneg values
        if v >= n_max:
            return out
        out.add(v)
        m += 1


HALF = DensityParam.rational(1, 2)
THIRD = DensityParam.rational(1, 3)
TWO_THIRDS = DensityParam.rational(2, 3)
TWO_FIFTHS = DensityParam.rational(2, 5)


class TestIsProductStep:
    def test_examples(self):
        assert is_product_step(0, HALF) is StepKind.PRODUCT
        assert is_product_step(1, HALF) is StepKind.HULL
        assert is_product_step(4, TWO_FIFTHS) is StepKind.HULL

    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS, TWO_FIFTHS])
    def test_matches_set_oracle(self, a):
        n_max = 500
        members = product_set_oracle(a.value, n_max)
        for n in range(n_max):
            expected = StepKind.PRODUCT if n in members else StepKind.HULL
            assert is_product_step(n, a) is expected

    def test_step_zero_always_product(self):
        for a in (HALF, THIRD, TWO_FIFTHS, DensityParam.rational(9, 10)):
            assert is_product_step(0, a) is StepKind.PRODUCT

    def test_real_kind_agrees_with_exact_rational_on_same_value(self):
        # The enclosure-certified path must reproduce the exact integer path
        # whenever it decides at all.
        v = Fraction(1, 3) + Fraction(1, 2**100)
        a_real = DensityParam.real(v, 140)
        a_rat = DensityParam(v)
        for n in range(120):
            assert is_product_step(n, a_real) is is_product_step(n, a_rat)

    def test_negative_index_rejected(self):
        with pytest.raises(UsageError):
            is_product_step(-1, HALF)

    def test_insufficient_precision_bits(self):
        a = DensityParam.real("0.618", 16)
        with pytest.raises(PrecisionError):
            is_product_step(20, a)

    def test_undecidable_membership(self):
        # enclosure of width 2^-8 around 0.5 cannot decide step 1 at n*a scale
        a = DensityParam.real(Fraction(1, 2), 8)
        with pytest.raises(PrecisionError):
            is_product_step(1, a)


class TestScheduleInvariants:
    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS, TWO_FIFTHS])
    def test_periodic_with_p_products_per_period(self, a):
        q = a.value.denominator
        p = a.value.numerator
        kinds = [is_product_step(n, a) for n in range(12 * q)]
        for n in range(len(kinds) - q):
            assert kinds[n] == kinds[n + q]
        for start in range(0, len(kinds), q):
            window = kinds[start : start + q]
            assert sum(1 for k in window if k is StepKind.PRODUCT) == p

    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS, TWO_FIFTHS])
    def test_running_count_within_one_large_n(self, a):
        # Periodicity makes the exact product count over [0, N) computable
        # for N = 10^6 without a million membership calls.
        q, p = a.value.denominator, a.value.numerator
        kinds = [is_product_step(n, a) for n in range(q)]
        per_period = sum(1 for k in kinds if k is StepKind.PRODUCT)
        assert per_period == p
        big_n = 10**6
        full, rem = divmod(big_n, q)
        count = full * p + sum(1 for k in kinds[:rem] if k is StepKind.PRODUCT)
        assert a.value * big_n - 1 <= count <= a.value * big_n + 1

    def test_running_count_real_a(self):
        a = golden_like(5120)
        count = 0
        for n in range(5000):
            if is_product_step(n, a) is StepKind.PRODUCT:
                count += 1
            lo = float(a.value) * (n + 1) - 1
            hi = float(a.value) * (n + 1) + 1
            assert lo <= count <= hi


class TestWindowProfile:
    def test_examples(self):
        w = window_profile(HALF, 2, 0)
        assert w.word == (StepKind.PRODUCT, StepKind.HULL)
        assert w.p == 1
        w = window_profile(THIRD, 3, 1)
        assert w.word == (StepKind.PRODUCT, StepKind.HULL, StepKind.HULL)
        assert w.p == 1
        w = window_profile(TWO_THIRDS, 3, 0)
        assert w.word == (StepKind.PRODUCT, StepKind.PRODUCT, StepKind.HULL)
        assert w.p == 2

    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS, TWO_FIFTHS, golden_like()])
    @pytest.mark.parametrize("Q", [1, 2, 3, 5, 8])
    def test_p_in_two_value_range(self, a, Q):
        import math

        for m in range(6):
            w = window_profile(a, Q, m)
            lo = math.floor(float(a.value) * Q) - 1
            hi = math.ceil(float(a.value) * Q) + 1
            assert lo <= w.p <= hi  # loose float check; exact assert is internal

    def test_word_str(self):
        assert word_letters(window_profile(HALF, 4, 0).word) == "SRSR"

    def test_bad_args(self):
        with pytest.raises(UsageError):
            window_profile(HALF, 0, 0)
        with pytest.raises(UsageError):
            window_profile(HALF, 2, -1)


class TestChooseWindow:
    def test_rational_uses_denominator(self):
        assert choose_window(20, HALF) == 2
        assert choose_window(1, HALF) == 2
        assert choose_window(7, TWO_FIFTHS) == 5

    def test_irrational_uses_sqrt(self):
        a = golden_like()
        assert choose_window(100, a) == 10
        assert choose_window(1, a) == 1

    def test_bad_n(self):
        with pytest.raises(UsageError):
            choose_window(0, HALF)


class TestDensityParam:
    def test_range_validation(self):
        with pytest.raises(UsageError):
            DensityParam.rational(3, 2)
        with pytest.raises(UsageError):
            DensityParam.rational(0, 5)
        with pytest.raises(UsageError):
            DensityParam.real("1.5", 64)

    def test_lowest_terms(self):
        a = DensityParam.rational(2, 4)
        assert (a.value.numerator, a.value.denominator) == (1, 2)

    def test_str_forms(self):
        assert str(HALF) == "1/2"
        assert "@128b" in str(golden_like())
