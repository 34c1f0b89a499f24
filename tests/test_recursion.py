import decimal
import math
from decimal import Decimal
from fractions import Fraction
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hannerfaces import _kernels, recursion, selftest
from hannerfaces._kernels import _EXACT, convolve_schoolbook, log_convolve
from hannerfaces.asymptotics import scan
from hannerfaces.errors import PrecisionError, UsageError, VerificationError
from hannerfaces.polys import DecimalPoly, IntPoly, LogPoly, convolve_truncated, eval_at_one, log2_int
from hannerfaces.trees import tree_sum_check
from hannerfaces.recursion import (
    EXACT_KMAX_CAP,
    Engine,
    face_numbers,
    initial_state,
    log2_face_number,
    proper_f_vector,
    run,
    step,
    trajectory,
    verify_growth_bounds,
)
from hannerfaces.schedule import DensityParam, StepKind, is_product_step

HALF = DensityParam.rational(1, 2)
THIRD = DensityParam.rational(1, 3)
TWO_THIRDS = DensityParam.rational(2, 3)
TWO_FIFTHS = DensityParam.rational(2, 5)
EXACT_ENGINES = [Engine.PAPER_EXACT, Engine.GEOMETRIC_EXACT]


def literal_recursion(a: DensityParam, n: int) -> dict[int, int]:
    """Independent oracle: the printed coefficient recursion taken literally,
    including the boundary conventions a_{n,d} = a_{n,-1} = 1, a_{n,k} = 0
    for k > d, and the min(d-1, k-1) cap in the hull sum."""
    vals = {0: 2}  # proper coefficients only; d = 1 handled by convention
    d = 1

    def get(k):
        if k == -1 or k == d:
            return 1
        if 0 <= k < d:
            return vals.get(k, 0)
        return 0

    for j in range(n):
        kind = is_product_step(j, a)
        new = {}
        for k in range(0, 2 * d):
            if kind is StepKind.PRODUCT:
                new[k] = sum(get(i) * get(k - i) for i in range(0, k + 1))
            else:
                s = sum(get(i) * get((k - 1) - i) for i in range(0, min(d - 1, k - 1) + 1))
                new[k] = 2 * get(k) + s
        vals, d = new, 2 * d
    return {k: (1 if k == d else vals.get(k, 0)) for k in range(d + 1)}


def _widest_log2(a: DensityParam, n_max: int, kmax: int) -> list[float]:
    """log2 of the widest coefficient of the printed recursion at (a, kmax)
    after 0, 1, ... steps, from one log trajectory to ``n_max``; stops after
    the first state over STATE_BITS_CAP.  This was the log pass that sized an
    exact run; it is now the oracle of ``widest_log2_bound``."""
    out = []
    for state in trajectory(a, n_max, kmax, Engine.PAPER_LOG):
        out.append(float(state.poly.log2_coeffs.max()))
        if (kmax + 1) * (int(out[-1]) + 1) > recursion.STATE_BITS_CAP:
            break
    return out


def first_hull_index(a: DensityParam) -> int:
    j = 0
    while is_product_step(j, a) is StepKind.PRODUCT:
        j += 1
    return j


class TestInitialState:
    def test_exact(self):
        s = initial_state(8, Engine.PAPER_EXACT)
        assert s.poly.to_intpoly().coeffs == (2, 1, 0, 0, 0, 0, 0, 0, 0)
        assert s.n == 0

    def test_minimal_kmax(self):
        assert initial_state(1, Engine.PAPER_EXACT).poly.to_intpoly().coeffs == (2, 1)

    def test_log(self):
        s = initial_state(4, Engine.PAPER_LOG)
        assert s.poly[0] == 1.0 and s.poly[1] == 0.0
        assert s.poly[2] == -math.inf

    def test_kmax_zero_rejected(self):
        with pytest.raises(UsageError):
            initial_state(0, Engine.PAPER_EXACT)


class TestStep:
    def test_paper_hull_of_segment(self):
        s = initial_state(8, Engine.PAPER_EXACT)
        out = step(s, StepKind.HULL)
        assert out.poly.to_intpoly().coeffs[:4] == (4, 6, 4, 1)
        assert out.n == 1

    def test_geometric_hull_of_segment(self):
        s = initial_state(8, Engine.GEOMETRIC_EXACT)
        out = step(s, StepKind.HULL)
        assert out.poly.to_intpoly().coeffs[:4] == (4, 4, 1, 0)

    @pytest.mark.parametrize("engine", [Engine.PAPER_EXACT, Engine.GEOMETRIC_EXACT])
    def test_one_square_per_step(self, monkeypatch, engine):
        # at K=64 the free-sum Hull step both removes the improper face (d <= 64)
        # and takes the printed formula (d > 64) within ten steps
        squares = []
        real = recursion.convolve_truncated

        def spy(f, g):
            squares.append(f)
            return real(f, g)

        monkeypatch.setattr(recursion, "convolve_truncated", spy)
        run(HALF, 10, 64, engine)
        assert len(squares) == 10

    @pytest.mark.parametrize("a", [HALF, THIRD])
    def test_log_step_is_the_array_formula_bit_for_bit(self, a):
        # the log step written on arrays: sq = log_convolve(f, f), then sq for
        # a Product step and logaddexp2(shift(sq, 1), f + 1.0) for a Hull step
        state = initial_state(200, Engine.PAPER_LOG)
        assert np.array_equal(state.poly.log2_coeffs, [1.0, 0.0] + [-math.inf] * 199)
        kinds = set()
        for j in range(12):
            f = state.poly.log2_coeffs
            sq = log_convolve(f, f)
            kind = is_product_step(j, a)
            if kind is StepKind.HULL:
                want = np.logaddexp2(np.concatenate(([-math.inf], sq[:-1])), f + 1.0)
            else:
                want = sq
            state = step(state, kind)
            assert np.array_equal(state.poly.log2_coeffs, want), (j, kind)
            kinds.add(kind)
        assert kinds == {StepKind.PRODUCT, StepKind.HULL}

    def test_product_of_segment_either_engine(self):
        for engine in (Engine.PAPER_EXACT, Engine.GEOMETRIC_EXACT):
            out = step(initial_state(8, engine), StepKind.PRODUCT)
            assert out.poly.to_intpoly().coeffs[:4] == (4, 4, 1, 0)


class TestFaceNumbers:
    def test_paper_n2_half(self):
        assert face_numbers(HALF, 2, 5, Engine.PAPER_EXACT) == [8, 24, 34, 24, 8, 1]

    def test_geometric_n2_half(self):
        assert face_numbers(HALF, 2, 5, Engine.GEOMETRIC_EXACT) == [8, 24, 32, 16, 1, 0]

    def test_segment_any_engine(self):
        assert face_numbers(HALF, 0, 3, Engine.PAPER_EXACT) == [2, 1, 0, 0]
        assert face_numbers(HALF, 0, 3, Engine.GEOMETRIC_EXACT) == [2, 1, 0, 0]

    def test_log_engine_n2(self):
        got = face_numbers(HALF, 2, 5, Engine.PAPER_LOG)
        want = [8, 24, 34, 24, 8, 1]
        for g, w in zip(got, want):
            assert abs(g - math.log2(w)) < 1e-12

    def test_negative_n_rejected(self):
        with pytest.raises(UsageError):
            face_numbers(HALF, -1, 4, Engine.PAPER_EXACT)

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_n_rejected_by_every_entry_point(self, n):
        with pytest.raises(UsageError):
            run(HALF, n, 8, Engine.PAPER_EXACT)
        with pytest.raises(UsageError):
            list(trajectory(HALF, n, 8, Engine.PAPER_LOG))
        for r in (0, 2, 5):
            with pytest.raises(UsageError):
                verify_growth_bounds(HALF, n, r, 8)


class TestEnginePolicy:
    def test_exact_up_to_the_cap_then_log(self):
        assert Engine.for_kmax(1) is Engine.PAPER_EXACT
        assert Engine.for_kmax(EXACT_KMAX_CAP) is Engine.PAPER_EXACT
        assert Engine.for_kmax(EXACT_KMAX_CAP + 1) is Engine.PAPER_LOG


class TestStateAdmission:
    """trajectory admits a run by its predicted state, K+1 slots of the widest
    coefficient, before the first step."""

    @pytest.fixture
    def exact_steps(self, monkeypatch):
        seen = []
        real_step = recursion.step

        def spy(state, kind):
            if not state.engine.is_log:
                seen.append(state.n)
            return real_step(state, kind)

        monkeypatch.setattr(recursion, "step", spy)
        return seen

    @pytest.fixture
    def no_log_work(self, monkeypatch):
        # every log-engine square and every LogPoly built, by any caller
        calls = []
        real_convolve, real_init = _kernels.log_convolve, LogPoly.__init__

        def convolve(f, g):
            calls.append("log_convolve")
            return real_convolve(f, g)

        def init(self, *args):
            calls.append("LogPoly")
            real_init(self, *args)

        monkeypatch.setattr(_kernels, "log_convolve", convolve)
        monkeypatch.setattr(LogPoly, "__init__", init)
        return calls

    def test_admits_n20_k1024(self, exact_steps):
        # delta = 1/2 at n = 20: 109.8 Mbit, the 404 s run
        assert next(trajectory(HALF, 20, 1024, Engine.PAPER_EXACT)).n == 0
        assert exact_steps == []

    @pytest.mark.parametrize(("n", "kmax"), [(21, 1448), (22, 2048)])  # 257.5 and 619.6 Mbit
    @pytest.mark.parametrize("engine", [Engine.PAPER_EXACT, Engine.GEOMETRIC_EXACT])
    def test_refuses_past_the_ceiling(self, exact_steps, n, kmax, engine):
        with pytest.raises(UsageError, match=r"predicted to hold [\d.]+ Mbit, over the 134.2 Mbit allowed"):
            next(trajectory(HALF, n, kmax, engine))
        assert exact_steps == []

    @pytest.mark.parametrize(("a", "n", "kmax"), [(HALF, 12, 64), (THIRD, 13, 100), (TWO_THIRDS, 10, 32)])
    def test_prediction_is_the_exact_state(self, monkeypatch, a, n, kmax):
        # The prediction is the bound's, at or above the exact state's bits and
        # within 1% of them (3.4 log2 units over at (1/2, 12, 64)); a cap at the
        # prediction admits the run and a cap one bit under it refuses.
        coeffs = run(a, n, kmax, Engine.PAPER_EXACT).poly.to_intpoly().coeffs
        widest = max(c.bit_length() for c in coeffs)
        bound = recursion.widest_log2_bound(a, n, kmax, -math.inf)
        predicted = (kmax + 1) * (math.floor(bound) + 1)
        assert (kmax + 1) * widest <= predicted <= (kmax + 1) * widest * 1.01
        monkeypatch.setattr(recursion, "STATE_BITS_CAP", predicted)
        assert run(a, n, kmax, Engine.PAPER_EXACT).poly.to_intpoly().coeffs == coeffs
        monkeypatch.setattr(recursion, "STATE_BITS_CAP", predicted - 1)
        with pytest.raises(UsageError, match=f"n={n}, K={kmax} is predicted to hold"):
            run(a, n, kmax, Engine.PAPER_EXACT)

    @pytest.mark.parametrize("engine", list(Engine))
    def test_every_slot_counts_at_least_64_bits(self, engine):
        # at n = 1 every coefficient has a few bits, so only the slots bind:
        # 2^21 slots of 64 bits meet the cap, one slot more passes it.  A log
        # state holds the K + 1 slots; an exact one holds 4, and the values
        # read out of it are named
        sizes = "is predicted to hold"
        if not engine.is_log:
            sizes = "fits, but the 30,000,001 values read out of it at 64 bits each hold"
        recursion._admit(HALF, 1, 2**21 - 1, engine)
        with pytest.raises(UsageError, match=r"K=2097152 .*\(134,217,792 > 134,217,728 bits\)$"):
            recursion._admit(HALF, 1, 2**21, engine)
        with pytest.raises(UsageError, match=rf"K=30000000 {sizes} 1920.0 Mbit"):
            recursion._admit(HALF, 1, 30_000_000, engine)

    @pytest.mark.parametrize("n", [1, 3, 10, 42])
    @pytest.mark.parametrize("engine", list(Engine))
    def test_k_past_the_read_out_is_refused_at_every_n(self, engine, n):
        # at n < 42 an exact state is short or small: it fits, and the K + 1
        # values read out of it at 64 bits each refuse the run.  A log state
        # holds the K + 1 slots, and at n = 42 an exact state passes the cap
        # by itself
        state = rf"the {engine.value} engine state at n={n}, K=2097152"
        sizes = r"134.2 Mbit, over the 134.2 Mbit allowed \(134,217,792 > 134,217,728 bits\)$"
        if engine.is_log:
            refusal = rf"{state} is predicted to hold {sizes}"
        elif n < 42:
            refusal = rf"{state} fits, but the 2,097,153 values read out of it at 64 bits each hold {sizes}"
        else:
            refusal = rf"{state} is predicted to hold [\d.]+ Mbit"
        with pytest.raises(UsageError, match=refusal):
            recursion._admit(HALF, n, 2**21, engine)

    @pytest.mark.parametrize("engine", EXACT_ENGINES)
    def test_a_state_short_of_k_is_admitted_by_its_slots(self, engine):
        # F_12 of a = 1/2 has degree 5461, so K = 20000 holds the slots K = 5461
        # does; K + 1 slots of the widest bound would be 135.8 Mbit
        recursion._admit(HALF, 12, 20000, engine)

    @pytest.mark.parametrize(("a", "n", "kmax"), [(HALF, 6, 200), (THIRD, 7, 800), (TWO_FIFTHS, 8, 3000)])
    @pytest.mark.parametrize("engine", EXACT_ENGINES)
    def test_an_exact_state_counts_2_to_the_n_plus_1_slots(self, monkeypatch, a, n, kmax, engine):
        # a cap at min(K + 1, 2^(n+1)) slots of the bound's width admits the
        # run and a cap one bit under it refuses; the K + 1 values read out
        # fit under both
        slots = 2 ** (n + 1)
        assert len(run(a, n, kmax, engine).poly.decimals) <= slots < kmax + 1
        predicted = slots * (math.floor(recursion.widest_log2_bound(a, n, kmax, -math.inf)) + 1)
        assert (kmax + 1) * 64 < predicted
        monkeypatch.setattr(recursion, "STATE_BITS_CAP", predicted)
        recursion._admit(a, n, kmax, engine)
        monkeypatch.setattr(recursion, "STATE_BITS_CAP", predicted - 1)
        with pytest.raises(UsageError, match=rf"\({predicted:,} > {predicted - 1:,} bits\)$"):
            recursion._admit(a, n, kmax, engine)

    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS, TWO_FIFTHS])
    def test_every_exact_state_stops_below_2_to_the_n_plus_1(self, a):
        # the slot count's premise: the degree is below 2^(n+1)
        for engine in EXACT_ENGINES:
            for state in trajectory(a, 10, 4096, engine):
                assert len(state.poly.decimals) <= 2 ** (state.n + 1)

    @pytest.mark.parametrize("engine", [Engine.PAPER_EXACT, Engine.GEOMETRIC_EXACT])
    def test_refusal_names_the_engine_and_exact_sizes(self, exact_steps, engine):
        with pytest.raises(UsageError, match=rf"the {engine.value} engine state at n=21, K=1448 .*"
                           r"\(\d{3},\d{3},\d{3} > 134,217,728 bits\)"):
            next(trajectory(HALF, 21, 1448, engine))
        # K = 2^21: the state at n_max is named, as for every run
        with pytest.raises(UsageError, match=rf"the {engine.value} engine state at n=42, K=2097152 "
                           r"is predicted to hold [\d.]+ Mbit") as refused:
            next(trajectory(HALF, 42, 2**21, engine))
        assert "cannot be sized" not in str(refused.value)
        assert exact_steps == []

    def test_refused_sizes_stay_exact_past_the_float_range(self, exact_steps):
        # at n = 2025 the bound is about 2^1021.6, so the state's bits are an
        # int past the float range; past n = 2030 the bound is inf
        bound = recursion.widest_log2_bound(HALF, 2025, 65536, -math.inf)
        bits = 65537 * (math.floor(bound) + 1)
        assert 2**1021 < bound < math.inf and bits > 2**1024
        with pytest.raises(UsageError) as refused:
            next(trajectory(HALF, 2025, 65536, Engine.PAPER_EXACT))
        tenths = (bits + 50_000) // 100_000  # no tie: bits end in 57,985
        assert f" {tenths // 10}.{tenths % 10} Mbit" in str(refused.value)
        assert f"({bits:,} > 134,217,728 bits)" in str(refused.value)
        with pytest.raises(UsageError, match=r"hold inf Mbit, .* \(inf > 134,217,728 bits\)"):
            next(trajectory(HALF, 2100, 1, Engine.PAPER_EXACT))
        assert exact_steps == []

    @pytest.mark.parametrize("n", [6, 12, 20, 25])
    def test_closed_form_admits_without_a_log_pass(self, no_log_work, n):
        # every run whose (K+1) * 2^(n+1) bits fit under the ceiling is still admitted
        kmax = (recursion.STATE_BITS_CAP >> (n + 1)) - 1
        for engine in EXACT_ENGINES:
            recursion._admit(HALF, n, kmax, engine)
        assert no_log_work == []

    @pytest.mark.parametrize(("n", "kmax", "admitted"), [(20, 1024, True), (21, 1448, False), (42, 2**21, False)])
    @pytest.mark.parametrize("engine", EXACT_ENGINES)
    def test_no_log_step_sizes_an_exact_run(self, no_log_work, exact_steps, n, kmax, admitted, engine):
        if admitted:
            assert next(trajectory(HALF, n, kmax, engine)).n == 0
        else:  # refused by the call that makes the trajectory
            with pytest.raises(UsageError, match=f"state at n={n}, K={kmax} is predicted to hold"):
                trajectory(HALF, n, kmax, engine)
        assert no_log_work == [] and exact_steps == []

    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS, TWO_FIFTHS])
    def test_closed_form_bounds_every_state(self, a):
        # a coefficient after n steps is below 4^(2^n): at most 2^(n+1) bits
        for engine in EXACT_ENGINES:
            for state in trajectory(a, 13, 64, engine):
                widest = max(c.bit_length() for c in state.poly.to_intpoly().coeffs)
                assert widest <= 2 ** (state.n + 1)
        # and so is every width the log loop finds, and the bound at r = 1
        widths = [int(x) + 1 for x in _widest_log2(a, 20, 1024)]
        assert all(w <= 2 ** (n + 1) for n, w in enumerate(widths))
        for n in range(21):
            assert recursion.widest_log2_bound(a, n, 1024, math.inf) < 2 ** (n + 1)

    def test_log_state_is_64_bits_a_slot(self, monkeypatch):
        monkeypatch.setattr(recursion, "STATE_BITS_CAP", 64 * 9)
        assert run(HALF, 6, 8, Engine.PAPER_LOG).n == 6
        with pytest.raises(UsageError, match="log engine state at n=6, K=9"):
            run(HALF, 6, 9, Engine.PAPER_LOG)


# 16 densities: the benchmark's pools, a few more rationals and one irrational
BOUND_DENSITIES = [
    DensityParam.rational(p, q)
    for p, q in [(1, 2), (1, 3), (2, 3), (2, 5), (1, 4), (3, 4), (3, 5), (3, 7),
                 (4, 9), (5, 11), (7, 15), (4, 13), (5, 16), (3, 10), (1, 5)]
] + [DensityParam.real("0.6180339887498948482045868343656381177", 128)]


class TestSaddlePointBound:
    """``widest_log2_bound`` is at or above log2 of the widest coefficient of
    every state it sizes, with the exact ints and the log loop as oracles."""

    def test_no_sizing_log_pass_is_left(self):
        assert not hasattr(recursion, "_widest_log2")

    @pytest.mark.parametrize("a", BOUND_DENSITIES, ids=str)
    def test_bounds_every_exact_state(self, a):
        for kmax in (1, 8, 64):
            for engine in EXACT_ENGINES:
                for state in trajectory(a, 20 if kmax < 64 else 16, kmax, engine):
                    widest = max(state.poly.to_intpoly().coeffs)
                    bound = recursion.widest_log2_bound(a, state.n, kmax, -math.inf)
                    assert log2_int(widest) <= bound, (engine, kmax, state.n)

    @pytest.mark.parametrize("a", BOUND_DENSITIES, ids=str)
    def test_bounds_every_log_state(self, a, monkeypatch):
        monkeypatch.setattr(recursion, "STATE_BITS_CAP", 2**40)  # the loop runs to n_max
        for kmax, n_max in ((1, 50), (8, 50), (362, 50), (1024, 50), (8192, 30)):
            for n, x in enumerate(_widest_log2(a, n_max, kmax)):
                # the log loop is within 170 n u x of the widest coefficient
                assert x * (1 - 170 * n * 2.0**-53) <= recursion.widest_log2_bound(a, n, kmax, -math.inf)

    def test_margin_covers_a_power_of_two(self):
        # a_{14,1}, the widest coefficient at K = 1, is 2^508 to within 2^-40 of
        # a bit, and the unmargined bound meets it: the margin keeps the width
        # at its 509 bits
        coeffs = run(HALF, 14, 1, Engine.PAPER_EXACT).poly.to_intpoly().coeffs
        assert coeffs[1] >> 468 == 2**40 and coeffs[0] < coeffs[1]
        bound = recursion.widest_log2_bound(HALF, 14, 1, -math.inf)
        assert 508 < bound < 508 + 2**-20
        assert math.floor(bound) + 1 == coeffs[1].bit_length()

    def test_bound_at_r_1_is_below_the_closed_form(self):
        # log2 F_16(1) = 108,616.6 against 2^17 = 131,072 bits a slot
        assert 108_616 < recursion.widest_log2_bound(HALF, 16, 256, math.inf) < 108_617

    def test_stops_at_the_first_bound_under_the_limit(self):
        tight = recursion.widest_log2_bound(HALF, 20, 1024, -math.inf)
        assert 107_115 < tight < 107_116
        assert recursion.widest_log2_bound(HALF, 20, 1024, 2**21) > 2 * tight  # r = 1 admits
        assert tight <= recursion.widest_log2_bound(HALF, 20, 1024, 107_200) <= 107_200

    @pytest.mark.parametrize("n", [2100, 15_000, 100_000])
    def test_past_the_float_range_the_bound_is_inf(self, n):
        assert recursion.widest_log2_bound(HALF, n, 1, -math.inf) == math.inf

    def test_undecidable_schedule_raises_before_any_step(self, monkeypatch):
        steps = []
        monkeypatch.setattr(recursion, "step", lambda state, kind: steps.append(state))
        coarse = DensityParam.real("0.6180339887498948482045868343656381177", 16)
        for engine in Engine:
            with pytest.raises(PrecisionError, match="precision bits are insufficient for step 9"):
                next(trajectory(coarse, 12, 4, engine))
        assert steps == []


class TestStepCoefficient:
    """``step_coefficient`` reads one coefficient of the next exact state
    without squaring the whole state; ``step`` is its oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([HALF, THIRD, TWO_THIRDS, TWO_FIFTHS]),
        st.integers(0, 12),
        st.integers(1, 64),
        st.sampled_from(EXACT_ENGINES),
        st.sampled_from(list(StepKind)),
    )
    @example(HALF, 0, 1, Engine.GEOMETRIC_EXACT, StepKind.HULL)
    @example(THIRD, 3, 16, Engine.GEOMETRIC_EXACT, StepKind.HULL)  # t^(2d) at k = 2d = K
    @example(TWO_FIFTHS, 12, 64, Engine.PAPER_EXACT, StepKind.PRODUCT)
    def test_every_coefficient_is_the_full_steps(self, a, n, kmax, engine, kind):
        state = run(a, n, kmax, engine)
        want = step(state, kind).poly
        got = [recursion.step_coefficient(state, kind, k) for k in range(kmax + 1)]
        assert got == [want[k] for k in range(kmax + 1)]

    def test_selftest_check_catches_a_wrong_square_coefficient(self, monkeypatch):
        selftest._check_step_coefficient()
        real = recursion.square_coefficient
        off_by_one = lambda f, k: _EXACT.add(real(f, k), Decimal(1))  # noqa: E731
        monkeypatch.setattr(recursion, "square_coefficient", off_by_one)
        with pytest.raises(AssertionError, match="coefficient step off the full step"):
            selftest._check_step_coefficient()

    @pytest.mark.parametrize("engine", EXACT_ENGINES)
    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS, TWO_FIFTHS])
    def test_single_reads_equal_the_full_run(self, a, engine):
        for n in range(13):
            for k in (0, 1, 21, 64):
                want = run(a, n, max(1, k), engine).poly.log2(k)
                assert log2_face_number(a, n, k, engine) == want


class TestLiteralRecursionOracle:
    """The generating-polynomial iteration must match the literal printed
    recursion exactly for k <= 2**h1 (h1 = first hull step index)."""

    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_agreement_zone(self, a, n):
        oracle = literal_recursion(a, n)
        zone = 2 ** first_hull_index(a)
        kmax = min(zone, 2**n)
        engine_vec = face_numbers(a, n, max(kmax, 1), Engine.PAPER_EXACT)
        for k in range(kmax + 1):
            assert engine_vec[k] == oracle[k], (a, n, k)

    def test_known_divergence_above_zone(self):
        # a=1/2, n=2: literal boundary conventions give 20 at k=3, the
        # polynomial iteration gives 24.  Pinned, not resolved.
        oracle = literal_recursion(HALF, 2)
        assert oracle[3] == 20
        assert face_numbers(HALF, 2, 5, Engine.PAPER_EXACT)[3] == 24


class TestEvalAtOneRecursion:
    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS])
    def test_untruncated_sum_recursion(self, a):
        # s_{n+1} = s_n^2 (product) or s_n^2 + 2 s_n (hull), exactly.
        kmax = 2**7  # >= deg F_6 for every schedule
        state = initial_state(kmax, Engine.PAPER_EXACT)
        s = eval_at_one(state.poly.to_intpoly())
        for j in range(6):
            kind = is_product_step(j, a)
            state = step(state, kind)
            expected = s * s if kind is StepKind.PRODUCT else s * s + 2 * s
            s = eval_at_one(state.poly.to_intpoly())
            assert s == expected

    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS])
    def test_geometric_total_face_count(self, a):
        # Untruncated geometric engine keeps F_n(1) = 3^(2^n).
        for n in range(7):
            state = run(a, n, max(1, 2**n), Engine.GEOMETRIC_EXACT)
            assert eval_at_one(state.poly.to_intpoly()) == 3 ** (2**n)

    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS])
    def test_geometric_euler_relation(self, a):
        for n in range(1, 6):
            d = 2**n
            fv = proper_f_vector(a, n)
            alt = sum((-1) ** k * fv[k] for k in range(d))
            assert alt == 1 - (-1) ** d


class TestDominance:
    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS])
    def test_paper_dominates_geometric(self, a):
        kmax = 64
        zone = 2 ** first_hull_index(a)
        for n in range(0, 13, 3):
            paper = face_numbers(a, n, kmax, Engine.PAPER_EXACT)
            geo = face_numbers(a, n, kmax, Engine.GEOMETRIC_EXACT)
            for k in range(kmax + 1):
                assert paper[k] >= geo[k]
                if k < zone:
                    assert paper[k] == geo[k]

    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS, TWO_FIFTHS])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_paper_dominates_the_proper_f_vector(self, a, n):
        # the small grid whose proper f-vectors the face lattice confirms
        d = 2**n
        paper = face_numbers(a, n, max(1, d - 1), Engine.PAPER_EXACT)[:d]
        geo = proper_f_vector(a, n)
        assert all(p >= g for p, g in zip(paper, geo, strict=True))
        if n <= first_hull_index(a):  # products only: both are the cube's f-vector
            assert paper == geo
        if (a, n) == (HALF, 2):
            assert paper == [8, 24, 34, 24]


class TestLogVsExact:
    @pytest.mark.parametrize("a", [HALF, THIRD])
    def test_relative_agreement(self, a):
        kmax = 32
        for n in (4, 7, 10):
            exact = face_numbers(a, n, kmax, Engine.PAPER_EXACT)
            approx = face_numbers(a, n, kmax, Engine.PAPER_LOG)
            for k in range(kmax + 1):
                want = log2_int(exact[k])
                if want == -math.inf:
                    assert approx[k] == -math.inf
                elif want == 0.0:
                    assert abs(approx[k]) < 1e-9
                else:
                    assert abs(approx[k] - want) <= 1e-6 * abs(want)


class TestVertexCountPattern:
    def test_vertex_counts_follow_schedule(self):
        kinds = [is_product_step(n, HALF) for n in range(5)]
        state = initial_state(4, Engine.PAPER_EXACT)
        prev = state.poly[0]
        for kind in kinds:
            state = step(state, kind)
            got = state.poly[0]
            assert got == (prev * prev if kind is StepKind.PRODUCT else 2 * prev)
            prev = got

    def test_vertex_count_strictly_increasing(self):
        for a in (HALF, THIRD):
            state = initial_state(4, Engine.PAPER_EXACT)
            prev = state.poly[0]
            for j in range(8):
                state = step(state, is_product_step(j, a))
                assert state.poly[0] > prev
                prev = state.poly[0]


class TestGrowthBounds:
    def test_monotone_example(self):
        rep = verify_growth_bounds(HALF, 2, 1, 8)
        for c in rep.checks:
            assert c.monotone_ok
        assert rep.checks[2].value_base == 34
        assert rep.checks[2].value_stepped >= 34

    def test_r_zero_reduces_to_k_times_max(self):
        rep = verify_growth_bounds(HALF, 3, 0, 16)
        for c in rep.checks:
            if c.k >= 1:
                assert c.upper_ok  # a_{n,k} <= k * A_{n,k} holds from k = 1 at r = 0

    def test_known_failure_at_k_one(self):
        # The printed bound k^(2^r) A^(2^r) genuinely fails at k=1:
        # a_{2,1} = 24 > 1 * A_{1,1}^2 = 16.
        rep = verify_growth_bounds(HALF, 1, 1, 4)
        assert not rep.checks[1].upper_ok
        assert rep.checks[1].value_stepped == 24

    @pytest.mark.parametrize("a", [HALF, THIRD])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_bounds_hold_from_k_two(self, a, r):
        for n in (1, 3, 6, 9):
            rep = verify_growth_bounds(a, n, r, 32)
            for c in rep.checks:
                assert c.monotone_ok, (a, n, r, c.k)
                if c.k >= 2:
                    assert c.upper_ok, (a, n, r, c.k)
                    assert c.sandwich_ok, (a, n, r, c.k)


class TestLog2FaceNumber:
    def test_value(self):
        assert abs(log2_face_number(HALF, 2, 2, Engine.PAPER_EXACT) - math.log2(34)) < 1e-12

    @pytest.mark.parametrize("engine", [Engine.PAPER_EXACT, Engine.PAPER_LOG])
    def test_negative_k_rejected(self, engine):
        with pytest.raises(UsageError):
            log2_face_number(HALF, 2, -1, engine)


def int_recursion(a: DensityParam, n: int, kmax: int, engine: Engine) -> list[int]:
    """Independent oracle: both exact engines over Python int lists, every
    square by schoolbook.  Paper Hull: t*F^2 + 2F.  Free-sum Hull while the
    dimension d fits under kmax: with G = F - t^d, t*G^2 + 2G + t^(2d)."""
    size = kmax + 1
    f = [2, 1] + [0] * (size - 2)
    for j in range(n):
        d = 2**j
        g = list(f)
        hull = is_product_step(j, a) is StepKind.HULL
        if engine is Engine.GEOMETRIC_EXACT and hull and d <= kmax:
            g[d] -= 1
        sq = convolve_schoolbook(g, g, size)
        if not hull:
            f = sq
        else:
            f = [2 * x + (sq[k - 1] if k else 0) for k, x in enumerate(g)]
            if engine is Engine.GEOMETRIC_EXACT and 2 * d <= kmax:
                f[2 * d] += 1
    return f


DENSITIES = [DensityParam.rational(p, q) for q in range(2, 7) for p in range(1, q)]


def full_length_step(
    f: tuple[Decimal, ...], n: int, kind: StepKind, engine: Engine, kmax: int
) -> tuple[Decimal, ...]:
    """Independent oracle for short states: one exact step on all K+1 slots,
    zeros above the degree included, as every state was stepped before a
    state stopped at its degree.  Free-sum Hull while d = 2^n fits under K:
    with G = F - t^d, t*G^2 + 2G + t^(2d)."""
    add, d = _EXACT.add, 2**n
    hull = kind is StepKind.HULL
    g = list(f)
    if engine is Engine.GEOMETRIC_EXACT and hull and d <= kmax:
        g[d] = _EXACT.subtract(g[d], Decimal(1))
    sq = _kernels.convolve_exact(g, g, kmax + 1)
    if not hull:
        return tuple(sq)
    out = [add(add(x, x), sq[k - 1]) if k else add(x, x) for k, x in enumerate(g)]
    if engine is Engine.GEOMETRIC_EXACT and 2 * d <= kmax:
        out[2 * d] = add(out[2 * d], Decimal(1))
    return tuple(out)


RANDOM_DENSITIES = st.integers(2, 40).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: DensityParam.rational(p, q))
)


class TestShortStates:
    """An exact state stores min(K, D_n) + 1 slots, D_n its degree: D_0 = 1, a
    Product step gives 2D and a Hull step 2D + 1 in the printed recursion, and
    D_n = 2^n in the free-sum one.  Its steps, whole or one coefficient at a
    time, equal steps on all K+1 slots."""

    @settings(max_examples=150, deadline=None)
    @given(RANDOM_DENSITIES, st.integers(1, 70), st.sampled_from(EXACT_ENGINES))
    @example(HALF, 70, Engine.GEOMETRIC_EXACT)
    @example(HALF, 1, Engine.PAPER_EXACT)
    @example(TWO_FIFTHS, 64, Engine.PAPER_EXACT)
    def test_steps_match_full_length_states(self, a, kmax, engine):
        states = list(trajectory(a, 8, kmax, engine))
        full, degree = (Decimal(2), Decimal(1)) + (Decimal(0),) * (kmax - 1), 1
        for state, after in pairwise(states):
            stored = state.poly.decimals
            assert len(stored) == min(kmax, degree) + 1, (state.n, degree)
            assert stored + (Decimal(0),) * (kmax + 1 - len(stored)) == full
            kind = is_product_step(state.n, a)
            full = full_length_step(full, state.n, kind, engine, kmax)
            got = [recursion.step_coefficient(state, kind, k) for k in range(kmax + 1)]
            assert got == [int(c) for c in full], (state.n, kind)  # k >= len(stored) included
            assert after.poly.to_intpoly().coeffs == tuple(map(int, full))
            if engine is Engine.GEOMETRIC_EXACT:
                degree = 2 ** (state.n + 1)
            else:
                degree = 2 * degree + (kind is StepKind.HULL)
        assert len(states[-1].poly.decimals) == min(kmax, degree) + 1

    def test_a_short_geometric_state_without_its_improper_face_is_refused(self):
        # d = 2 fits under K = 8, but the state stores only degrees 0 and 1
        state = recursion.RecursionState(DecimalPoly.monomial(3, 1, 8), 1, Engine.GEOMETRIC_EXACT)
        with pytest.raises(VerificationError, match="improper coefficient at degree 2 is 0"):
            step(state, StepKind.HULL)


class TestDecimalState:
    """The exact engines hold integral Decimals between steps; every read gives ints."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(DENSITIES),
        st.integers(0, 9),
        st.integers(1, 40),
        st.sampled_from(EXACT_ENGINES),
    )
    def test_engines_match_an_int_recursion(self, a, n, kmax, engine):
        want = int_recursion(a, n, kmax, engine)
        state = run(a, n, kmax, engine)
        assert type(state.poly) is DecimalPoly
        assert state.poly.to_intpoly().coeffs == tuple(want)
        assert face_numbers(a, n, kmax, engine) == want
        assert all(state.poly[k] == want[k] for k in range(kmax + 1))
        assert all(state.poly.log2(k) == log2_int(want[k]) for k in range(kmax + 1))

    def test_caller_context_changes_nothing(self):
        cases = [(HALF, 16, 256), (THIRD, 12, 40)]
        want = [face_numbers(a, n, k, e) for a, n, k in cases for e in EXACT_ENGINES]
        rows = scan(THIRD, Fraction(1, 2), range(15), Engine.PAPER_EXACT)
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            ctx.clear_traps()
            got = [face_numbers(a, n, k, e) for a, n, k in cases for e in EXACT_ENGINES]
            got_rows = scan(THIRD, Fraction(1, 2), range(15), Engine.PAPER_EXACT)
        assert got == want
        assert got_rows == rows
        assert max(want[0]).bit_length() > 1000  # far past 5 digits

    def test_public_reads_are_ints(self):
        poly = run(HALF, 12, 64, Engine.PAPER_EXACT).poly
        values = [poly[k] for k in range(66)] + list(poly.to_intpoly().coeffs)
        values += face_numbers(HALF, 12, 64, Engine.GEOMETRIC_EXACT) + proper_f_vector(HALF, 3)
        report = verify_growth_bounds(HALF, 3, 2, 16)
        values += [c.value_base for c in report.checks] + [c.value_stepped for c in report.checks]
        values += list(tree_sum_check(HALF, 2, 2, 8).engine_poly.coeffs)
        assert all(type(v) is int for v in values)
        assert type(poly.log2(64)) is float

    @pytest.mark.parametrize(
        "bad", [Decimal(-1), Decimal("-0"), Decimal("2.5"), Decimal("1.0"), Decimal("1E+3"),
                Decimal("NaN"), Decimal("Infinity"), 3]
    )
    def test_constructor_rejects(self, bad):
        with pytest.raises(UsageError, match="nonnegative Decimals with exponent 0"):
            DecimalPoly((Decimal(1), bad), 1)

    def test_no_product_but_a_square(self):
        f = DecimalPoly.monomial(3, 1, 4)
        with pytest.raises(UsageError):
            convolve_truncated(f, DecimalPoly.monomial(3, 1, 4))
        with pytest.raises(UsageError):
            convolve_truncated(IntPoly.one(4), f)
        with pytest.raises(UsageError):
            f + IntPoly.one(4)
