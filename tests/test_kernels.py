from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hannerfaces import _kernels, selftest
from hannerfaces.asymptotics import floor_d_delta, scan
from hannerfaces.polys import log2_int
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
def concave_runs(draw):
    """log2 coefficients >= 0 that are concave along a leading run, then -inf.

    Slopes are multiples of 1/64, so the run is exactly concave in float64.
    """
    run_len = draw(st.integers(0, 300))
    tail = draw(st.integers(0, 120))
    n_slopes = max(run_len - 1, 0)
    slopes = draw(st.lists(st.integers(-4096, 4096), min_size=n_slopes, max_size=n_slopes))
    slopes.sort(reverse=True)
    h = np.concatenate(([0.0], np.cumsum(slopes, dtype=np.float64)))[:run_len] / 64
    if run_len:
        h += draw(st.integers(0, 64 * 100)) / 64 - h.min()
    return np.concatenate((h, np.full(tail, -np.inf))), run_len


class TestBandedSquare:
    @settings(max_examples=150, deadline=None)
    @given(concave_runs())
    def test_band_matches_full_on_concave_runs(self, case):
        f, run_len = case
        assert _kernels._concave_run(f) == run_len
        assert_log_close(_kernels.log_convolve(f, f), _kernels._log_convolve_full(f, f))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(-200, 200), st.just(-np.inf)), min_size=3, max_size=120
        ).filter(lambda xs: _kernels._concave_run(np.array(xs)) < 0)
    )
    def test_non_concave_input_takes_the_full_path(self, xs):
        f = np.array(xs)
        assert np.array_equal(
            _kernels.log_convolve(f, f), _kernels._log_convolve_full(f, f), equal_nan=True
        )

    def test_classifies_runs(self):
        inf = np.inf
        assert _kernels._concave_run(np.array([1.0, 3.0, 4.0, 4.0, -inf])) == 4
        assert _kernels._concave_run(np.array([1.0, 3.0, 6.0])) == -1  # convex
        assert _kernels._concave_run(np.array([1.0, -inf, 1.0])) == -1  # interior zero
        assert _kernels._concave_run(np.array([-inf, 1.0, 0.0])) == -1  # not leading
        assert _kernels._concave_run(np.array([-inf, -inf])) == 0

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
        with pytest.raises(OverflowError):
            _kernels.log_convolve(f, f)
        with pytest.raises(OverflowError):
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
            assert _kernels._concave_run(state.poly.log2_coeffs) >= 0, state.n

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

    def test_empty_and_zero_polys(self):
        assert _kernels.convolve_exact([], [1, 2], 3) == [0, 0, 0]
        assert _kernels.convolve_exact([0, 0], [1, 2], 3) == [0, 0, 0]

    def test_out_len_longer_than_product(self):
        assert _kernels.convolve_exact([1], [1], 4) == [1, 0, 0, 0]
