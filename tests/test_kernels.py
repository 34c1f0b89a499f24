import decimal
import math
import sys
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hannerfaces import _kernels, polys, selftest
from hannerfaces.asymptotics import floor_d_delta, scan
from hannerfaces.errors import PrecisionError, VerificationError
from hannerfaces.polys import DecimalPoly, log2_int
from hannerfaces.recursion import Engine, run, trajectory
from hannerfaces.schedule import DensityParam

# Band-vs-full tolerance on log2 values: relative, and absolute below
# magnitude 1, where a relative bound on a log2 value means nothing.
LOG_RTOL = 2.0**-50

THIRD = DensityParam.rational(1, 3)
GOLDEN = DensityParam.real("0.6180339887498948482045868343656381177", 128)


def random_log_arrays(rng, n):
    f = rng.uniform(0, 50, n)
    g = rng.uniform(0, 50, n)
    f[rng.integers(0, n, max(1, n // 5))] = -np.inf
    g[rng.integers(0, n, max(1, n // 5))] = -np.inf
    return f, g


def assert_log_close(got, want):
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    err = np.abs(got[finite] - want[finite])
    assert (err <= LOG_RTOL * np.maximum(np.abs(want[finite]), 1.0)).all(), err.max()


@st.composite
def concave_runs(draw, run_lens=st.integers(0, 300), tails=st.integers(0, 120)):
    """log2 coefficients >= 0 that are concave along a leading run, then -inf.

    Slopes are multiples of 1/64, so the run is exactly concave in float64.
    """
    run_len = draw(run_lens)
    tail = draw(tails)
    n_slopes = max(run_len - 1, 0)
    slopes = draw(st.lists(st.integers(-4096, 4096), min_size=n_slopes, max_size=n_slopes))
    slopes.sort(reverse=True)
    h = np.concatenate(([0.0], np.cumsum(slopes, dtype=np.float64)))[:run_len] / 64
    if run_len:
        h += draw(st.integers(0, 64 * 100)) / 64 - h.min()
    return np.concatenate((h, np.full(tail, -np.inf))), run_len


# The banded square as it was before its blocks bisected in lockstep, kept
# word for word (its view helper and block size renamed) as the byte oracle
# for the kernel: the same half-widths give the same terms summed in the same
# order.
_REF_BAND_BLOCK = 64
NEG_INF = float("-inf")


def _reference_band(x, start, rows, width, step):
    unit = x.itemsize
    return np.ndarray(
        (rows, width), x.dtype, buffer=x, offset=start * unit, strides=(unit, step * unit)
    )


def _reference_log_square_banded(h, n):
    size = h.shape[0]
    out = np.full(n, NEG_INF)
    rows = min(n, 2 * size - 1)
    centers = (rows + 1) // 2
    cutoff = 53 + math.ceil(math.log2(n + 1))
    pad = _REF_BAND_BLOCK + 4
    hp = np.full(size + 2 * pad, NEG_INF)
    hp[pad : pad + size] = h
    for c0 in range(0, centers, _REF_BAND_BLOCK):
        c = np.arange(c0, min(c0 + _REF_BAND_BLOCK, centers))
        b, n_odd = c.shape[0], min(c.shape[0], rows // 2 - c0)
        top_even = 2.0 * h[c]
        top_odd = h[c[:n_odd]] + h[c[:n_odd] + 1]
        low = np.concatenate((c, c[:n_odd])) + (pad - 1)
        high = np.concatenate((c, c[:n_odd] + 1)) + (pad + 1)
        limit = np.concatenate((top_even, top_odd)) - cutoff
        lo_w, hi_w = 0, min(int(c[-1]), size - 1 - c0)
        while lo_w < hi_w:
            mid = (lo_w + hi_w) // 2
            if (hp[low - mid] + hp[high + mid] <= limit).all():
                hi_w = mid
            else:
                lo_w = mid + 1
        w = lo_w
        down = _reference_band(hp, pad + c0, b, w + 1, -1)
        terms = down + _reference_band(hp, pad + c0, b, w + 1, 1)
        terms -= top_even[:, None]
        s = np.exp2(terms, out=terms).sum(axis=1)
        out[2 * c0 : 2 * (c0 + b) : 2] = top_even + np.log2(2.0 * s - 1.0)
        if n_odd:
            odd = terms[:n_odd]
            np.add(down[:n_odd], _reference_band(hp, pad + c0 + 1, n_odd, w + 1, 1), out=odd)
            odd -= top_odd[:, None]
            s = np.exp2(odd, out=odd).sum(axis=1)
            out[2 * c0 + 1 : 2 * (c0 + n_odd) : 2] = top_odd + 1.0 + np.log2(s)
    return out


def assert_band_bytes_match_reference(h, n):
    """Every block sums the same half-width w as in the reference, read off the
    width of its d-descending band view, and the outputs agree byte for byte."""
    widths, reference_widths = [], []
    band, reference_band = _kernels._band, _reference_band

    def spy(x, start, shape, steps):
        if steps[-1] < 0:
            widths.append(shape[-1] - 1)
        return band(x, start, shape, steps)

    def reference_spy(x, start, rows, width, step):
        if step < 0:
            reference_widths.append(width - 1)
        return reference_band(x, start, rows, width, step)

    with mock.patch.object(_kernels, "_band", spy):
        got = _kernels._log_square_banded(h, n)
    with mock.patch.dict(globals(), {"_reference_band": reference_spy}):
        want = _reference_log_square_banded(h, n)
    assert widths == reference_widths, (h.shape[0], n)
    assert got.tobytes() == want.tobytes(), (h.shape[0], n)


# Run lengths at and around multiples of 64 and 128: blocks that end exactly
# at the run, one short of it, and one past it.
BLOCK_EDGE_LENGTHS = [m + d for m in range(64, 705, 64) for d in (-1, 0, 1)]


class TestBandedSquare:
    @settings(max_examples=150, deadline=None)
    @given(concave_runs())
    def test_band_matches_full_on_concave_runs(self, case):
        f, run_len = case
        assert _kernels._run_and_defect(f)[0] == run_len
        assert_log_close(_kernels.log_convolve(f, f), _kernels._log_convolve_full(f, f))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        concave_runs(
            run_lens=st.one_of(st.integers(0, 700), st.sampled_from(BLOCK_EDGE_LENGTHS)),
            tails=st.integers(0, 800),
        )
    )
    def test_band_bytes_match_the_reference_on_concave_runs(self, case):
        f, run_len = case
        assert_band_bytes_match_reference(np.ascontiguousarray(f[:run_len]), f.shape[0])

    @pytest.mark.parametrize("run_len", BLOCK_EDGE_LENGTHS[:12])
    def test_band_bytes_match_the_reference_at_block_edges(self, run_len):
        # Row counts from one row up to the full square and past it: odd and
        # even counts, truncated squares and whole ones.
        rng = np.random.default_rng(run_len)
        slopes = np.sort(rng.integers(-4096, 4096, run_len - 1))[::-1] / 64
        h = np.concatenate(([0.0], np.cumsum(slopes)))
        h += 100 - h.min()
        full = 2 * run_len - 1
        for n in sorted({1, 2, 63, 64, 65, 128, 129, run_len, full - 1, full, full + 6}):
            assert_band_bytes_match_reference(h[: min(n, run_len)], n)

    @pytest.mark.parametrize(
        "a, nmax", [(THIRD, 24), (GOLDEN, 22), (DensityParam.rational(1, 2), 26)]
    )
    def test_band_bytes_match_the_reference_on_scan_states(self, a, nmax, monkeypatch):
        # Every square of the two default log-scan instances (K = 4096 and
        # 2048) and of a = 1/2 at K = 8192.
        squared = []
        banded = _kernels._log_square_banded

        def record(h, n, defect):
            assert defect == 0.0  # these states are concave in float64: the band keeps its cutoff
            squared.append((h.copy(), n))
            return banded(h, n, defect)

        monkeypatch.setattr(_kernels, "_log_square_banded", record)
        kmax = floor_d_delta(nmax, Fraction(1, 2))
        for _ in trajectory(a, nmax, kmax, Engine.PAPER_LOG):
            pass
        monkeypatch.undo()
        assert len(squared) == nmax and squared[-1][1] == kmax + 1
        for h, n in squared:
            assert_band_bytes_match_reference(h, n)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(-200, 200), st.just(-np.inf)), min_size=3, max_size=120
        ).filter(lambda xs: _kernels._run_and_defect(np.array(xs))[0] < 0)
    )
    def test_non_concave_square_raises(self, xs):
        f = np.array(xs)
        with pytest.raises(VerificationError, match="not concave along one leading run"):
            _kernels.log_convolve(f, f)
        # the same values as two operands still take the full kernel
        assert np.array_equal(
            _kernels.log_convolve(f, f.copy()), _kernels._log_convolve_full(f, f), equal_nan=True
        )

    def test_rounded_states_take_the_band(self):
        # State 84 of (1/2, K=181) has a second difference one ulp above zero
        # at k=171, where log2 a_{n,k} is about 2^47.5 and nearly linear in k.
        # The check accepts it as rounding, the band widens its cutoff by the
        # defect, and the trajectory runs on to the last state the range admits.
        states = list(trajectory(DensityParam.rational(1, 2), 94, 181, Engine.PAPER_LOG))
        f = states[84].poly.log2_coeffs
        d2 = np.diff(f, 2)
        assert d2[170] == np.spacing(f[171]) and (d2 > 0).sum() == 1
        run_len, defect = _kernels._run_and_defect(f)
        assert run_len == 182 and defect == 90.5 * d2[170]
        sq = _kernels.log_convolve(f, f)
        assert_log_close(sq, _kernels._log_convolve_full(f, f))
        assert_log_close(sq, states[85].poly.log2_coeffs)  # a Product step

    def test_second_difference_past_rounding_raises(self):
        # linear from h_0 = 16, so the limit at k = 19 (inputs up to 37) is
        # 2^-43 * 16 * 37, about 2^-33.8
        line = np.arange(40, dtype=np.float64) + 16.0
        bumped = line.copy()
        bumped[20] += 2.0**-30  # second differences of +2^-30 at k = 19 and 21
        with pytest.raises(VerificationError, match="not concave along one leading run"):
            _kernels.log_convolve(bumped, bumped)
        bumped[20] = line[20] + 2.0**-36  # within what rounding can show
        assert _kernels._run_and_defect(bumped) == (40, 19.5 * 2.0**-35)

    def test_classifies_runs(self):
        inf = np.inf
        assert _kernels._run_and_defect(np.array([1.0, 3.0, 4.0, 4.0, -inf])) == (4, 0.0)
        assert _kernels._run_and_defect(np.array([1.0, 3.0, 6.0]))[0] == -1  # convex
        assert _kernels._run_and_defect(np.array([1.0, -inf, 1.0]))[0] == -1  # interior zero
        assert _kernels._run_and_defect(np.array([-inf, 1.0, 0.0]))[0] == -1  # not leading
        assert _kernels._run_and_defect(np.array([-inf, -inf])) == (0, 0.0)

    def test_tiny_and_empty_inputs(self):
        empty = np.array([], dtype=np.float64)
        assert _kernels.log_convolve(empty, empty).shape == (0,)
        one = np.array([3.5])
        assert _kernels.log_convolve(one, one).tolist() == [7.0]
        zeros = np.full(9, -np.inf)
        assert np.isneginf(_kernels.log_convolve(zeros, zeros)).all()

    def test_band_is_exact_on_a_pinned_square(self):
        # log2 of (2 + t)^2 = 4 + 4t + t^2
        f = np.array([1.0, 0.0, -np.inf])
        assert _kernels.log_convolve(f, f).tolist() == [2.0, 2.0, 0.0]

    def test_output_beyond_2_pow_53_raises(self):
        f = np.array([2.0**52 + 2.0**51, -np.inf])
        with pytest.raises(PrecisionError):
            _kernels.log_convolve(f, f)
        with pytest.raises(PrecisionError):
            _kernels.log_convolve(f, f.copy())
        ok = np.array([2.0**51, -np.inf])
        assert _kernels.log_convolve(ok, ok)[0] == 2.0**52

    @pytest.mark.parametrize("a, nmax", [(THIRD, 24), (GOLDEN, 22)])
    def test_log_scan_states_take_the_band(self, a, nmax, monkeypatch):
        # The two default log-scan instances: every squared state must pass
        # the concavity check, or the fast path silently falls back.
        def no_fallback(f, g):
            raise AssertionError("square fell back to the full kernel")

        monkeypatch.setattr(_kernels, "_log_convolve_full", no_fallback)
        kmax = floor_d_delta(nmax, Fraction(1, 2))
        for state in trajectory(a, nmax, kmax, Engine.PAPER_LOG):
            assert _kernels._run_and_defect(state.poly.log2_coeffs)[0] >= 0, state.n

    def test_band_matches_full_on_an_engine_state(self):
        f = run(THIRD, 18, 600, Engine.PAPER_LOG).poly.log2_coeffs
        assert_log_close(_kernels.log_convolve(f, f), _kernels._log_convolve_full(f, f))

    def test_selftest_check_catches_a_drifting_band(self, monkeypatch):
        selftest._check_log_kernel_band()
        drift = lambda f, g: _kernels._log_convolve_full(f, g) * (1 + 2.0**-45)  # noqa: E731
        monkeypatch.setattr(_kernels, "log_convolve", drift)
        with pytest.raises(AssertionError):
            selftest._check_log_kernel_band()


class TestOnePassScan:
    @pytest.mark.parametrize("engine", [Engine.PAPER_EXACT, Engine.GEOMETRIC_EXACT])
    @pytest.mark.parametrize("a", [THIRD, DensityParam.rational(1, 2)])
    def test_exact_rows_bit_identical_to_per_n_runs(self, a, engine):
        rows = scan(a, Fraction(1, 2), range(13), engine)
        for r in rows:
            assert r.log2_coeff == log2_int(run(a, r.n, max(r.k, 1), engine).poly[r.k])

    def test_log_rows_close_to_per_n_runs(self):
        rows = scan(THIRD, Fraction(1, 2), range(19), Engine.PAPER_LOG)
        got = np.array([r.log2_coeff for r in rows])
        want = np.array([run(THIRD, r.n, max(r.k, 1), Engine.PAPER_LOG).poly[r.k] for r in rows])
        assert_log_close(got, want)

    def test_unsorted_and_repeated_indices(self):
        rows = scan(THIRD, Fraction(1, 2), [6, 2, 6, 0], Engine.PAPER_EXACT)
        assert [r.n for r in rows] == [0, 2, 6, 6]
        assert rows[2] == rows[3]


class TestPathAgreement:
    def test_each_path_deterministic(self):
        rng = np.random.default_rng(11)
        f, g = random_log_arrays(rng, 301)
        concave = run(THIRD, 12, 300, Engine.PAPER_LOG).poly.log2_coeffs
        for x, y in ((f, g), (concave, concave)):
            a = _kernels.log_convolve(x, y)
            x2 = x.copy()
            b = _kernels.log_convolve(x2, x2 if y is x else y.copy())
            assert np.array_equal(a, b, equal_nan=True)

    def test_neg_inf_blocks(self):
        f = np.array([-np.inf, 0.0, 1.0])
        g = np.array([-np.inf, -np.inf, 2.0])
        out = _kernels.log_convolve(f, g)
        # k=0: (-inf)+(-inf); k=1: 0+(-inf), (-inf)+(-inf); k=2: only f1+g1 = -inf,
        # f0+g2 = -inf, f2+g0 = -inf -> all -inf except none finite here
        assert out[0] == -np.inf and out[1] == -np.inf and out[2] == -np.inf


class TestExactPacking:
    def test_pack_unpack_roundtrip(self):
        coeffs = [0, 1, 2**64 - 1, 12345678901234567890]
        packed = _kernels._pack(coeffs, 16)
        assert _kernels._unpack(packed, 16, 4) == coeffs

    def test_pack_is_the_slotted_sum(self):
        coeffs = [0, 1, 2**64 - 1, 12345678901234567890, 0]
        want = sum(c << (128 * i) for i, c in enumerate(coeffs))
        assert _kernels._pack(coeffs, 16) == want

    def test_pack_rejects_a_coefficient_wider_than_its_slot(self):
        with pytest.raises(OverflowError):
            _kernels._pack([1, 2**64], 8)

    def test_empty_and_zero_polys(self):
        assert _kernels.convolve_exact([], [1, 2], 3) == [0, 0, 0]
        assert _kernels.convolve_exact([0, 0], [1, 2], 3) == [0, 0, 0]

    def test_out_len_longer_than_product(self):
        assert _kernels.convolve_exact([1], [1], 4) == [1, 0, 0, 0]


@pytest.fixture
def default_int_digits():
    """The interpreter's default int_max_str_digits, for the length of a test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def as_decimals(f):
    return [Decimal(c) for c in f]


# Coefficients of mixed widths: zero slots, word-sized ones, and ones past the
# int leaf (2000 digits) and past 4300 digits.
coefficients = st.one_of(
    st.just(0),
    st.integers(0, 2**64),
    st.integers(2**3000, 2**20000),
    st.just(10**4400 - 1),
)


class TestExactSquare:
    """The decimal square of a Decimal state, the int square and the int
    product all equal schoolbook, under the default int_max_str_digits."""

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(st.lists(coefficients, max_size=40), st.integers(-3, 3))
    def test_all_paths_match_schoolbook(self, default_int_digits, f, extra):
        assert sys.get_int_max_str_digits() == 4300
        out_len = max(len(f) + extra * max(len(f) // 2, 1), 0)
        want = _kernels.convolve_schoolbook(f, f, out_len)
        assert _kernels.convolve_exact(f, f, out_len) == want
        assert _kernels.convolve_exact(f, list(f), out_len) == want
        if f:
            state = as_decimals(f)
            square = _kernels.convolve_exact(state, state, out_len)
            assert [str(c) for c in square] == [str(Decimal(c)) for c in want]

    @pytest.mark.parametrize(
        "f",
        [[0], [0] * 20, [7], [2**5000 + 1], [0, 0, 3], [5] + [0] * 30 + [2**9000], [10**50 - 1] * 40],
    )
    @pytest.mark.parametrize("out_len", [0, 1, 3, 70])
    def test_edge_cases(self, f, out_len, default_int_digits):
        # [10**50 - 1] * 40 is the all-9s case: every slot of the square is as
        # wide as the slot width allows.
        want = _kernels.convolve_schoolbook(f, f, out_len)
        state = as_decimals(f)
        square = _kernels._square_decimal(state, out_len)
        assert all(type(c) is Decimal and c.as_tuple().exponent == 0 for c in square)
        assert square == as_decimals(want)
        assert _kernels.convolve_exact(f, f, out_len) == want

    def test_independent_of_the_callers_decimal_context(self):
        f = [3**k for k in range(4000, 4040)]  # 6340 bits and up: past the 2000-digit leaf
        state = as_decimals(f)
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
            square = _kernels.convolve_exact(state, state, 40)
            ints = [_kernels._digits_to_int(str(c), {}) for c in square]
        assert ints == _kernels.convolve_schoolbook(f, f, 40)

    def test_rounding_traps(self):
        # The square context never rounds (prec=MAX_PREC); if it would, it raises.
        ctx = _kernels._EXACT.copy()
        ctx.prec = 5
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            ctx.multiply(decimal.Decimal(123456), decimal.Decimal(1))

    def test_decimal_state_takes_only_its_square(self):
        state = as_decimals([1, 2])
        with pytest.raises(TypeError):
            _kernels.convolve_exact(state, list(state), 2)


def _conversion_points():
    # 4096 bits: where the int -> Decimal conversion, now gone, split.
    dec, dig = 4096, _kernels._INT_LEAF_DIGITS
    points = {0, 1, 2, 9, 10, 11}
    for k in (1, 63, 64, dec - 1, dec, dec + 1, 2 * dec, 2 * dec + 1, 4 * dec + 7, 20000):
        points |= {2**k - 1, 2**k, 2**k + 1}
    for k in (1, 19, dig - 1, dig, dig + 1, 2 * dig, 2 * dig + 1, 4300, 4301, 9000):
        points |= {10**k - 1, 10**k, 10**k + 1}
    return sorted(points)


class TestConversions:
    @pytest.mark.parametrize("x", _conversion_points(), ids=lambda x: f"{x.bit_length()}bit")
    def test_round_trip(self, x, default_int_digits):
        text = str(Decimal(x))  # Decimal(int) is the quadratic reference
        assert _kernels._digits_to_int(text, {}) == x
        assert _kernels._digits_to_int(text.zfill(len(text) + 2500), {}) == x
        poly = DecimalPoly((Decimal(text),), 0)
        assert poly[0] == x and poly.to_intpoly().coeffs == (x,)
        assert poly.log2(0) == log2_int(x)

    def test_one_power_cache_serves_many_values(self):
        values = [3**k for k in range(0, 30000, 997)]
        pow10 = {}
        assert [_kernels._digits_to_int(str(Decimal(v)), pow10) for v in values] == values
        assert all(k % _kernels._INT_LEAF_DIGITS == 0 for k in pow10)


class TestExactScanStaysDecimal:
    """The seed-0 exact_scan instances (asymptotics a=1/3 and fvector a=1/2,
    both n=16, K=256): every step squares its Decimal state in decimal, and
    no coefficient is converted to or from an int between steps."""

    @pytest.mark.parametrize("a", [THIRD, DensityParam.rational(1, 2)])
    def test_no_base_conversion_between_steps(self, a, monkeypatch):
        real_mul, real_post_init = _kernels._mul_decimal, polys.IntPoly.__post_init__
        squares, int_polys = [], []

        def refuse(*args):
            raise AssertionError("an engine step left decimal")

        def square(x, y):
            squares.append(x is y)
            return real_mul(x, y)

        def int_poly(self):
            int_polys.append(self.kmax)
            real_post_init(self)

        monkeypatch.setattr(_kernels, "_mul_bigint", refuse)
        monkeypatch.setattr(_kernels, "_digits_to_int", refuse)
        monkeypatch.setattr(_kernels, "_mul_decimal", square)
        monkeypatch.setattr(polys.IntPoly, "__post_init__", int_poly)
        for state in trajectory(a, 16, 256, Engine.PAPER_EXACT):
            assert type(state.poly) is DecimalPoly
        assert squares == [True] * 16
        assert int_polys == []
