import math

import pytest

from hannerfaces.errors import UsageError
from hannerfaces.polys import eval_at_one, log2_int
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
from hannerfaces.schedule import DensityParam, StepKind, is_product_step, schedule_kinds

HALF = DensityParam.rational(1, 2)
THIRD = DensityParam.rational(1, 3)
TWO_THIRDS = DensityParam.rational(2, 3)


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


def first_hull_index(a: DensityParam) -> int:
    j = 0
    while is_product_step(j, a) is StepKind.PRODUCT:
        j += 1
    return j


class TestInitialState:
    def test_exact(self):
        s = initial_state(8, Engine.PAPER_EXACT)
        assert s.poly.coeffs == (2, 1, 0, 0, 0, 0, 0, 0, 0)
        assert s.n == 0

    def test_minimal_kmax(self):
        assert initial_state(1, Engine.PAPER_EXACT).poly.coeffs == (2, 1)

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
        assert out.poly.coeffs[:4] == (4, 6, 4, 1)
        assert out.n == 1

    def test_geometric_hull_of_segment(self):
        s = initial_state(8, Engine.GEOMETRIC_EXACT)
        out = step(s, StepKind.HULL)
        assert out.poly.coeffs[:4] == (4, 4, 1, 0)

    def test_product_of_segment_either_engine(self):
        for engine in (Engine.PAPER_EXACT, Engine.GEOMETRIC_EXACT):
            out = step(initial_state(8, engine), StepKind.PRODUCT)
            assert out.poly.coeffs[:4] == (4, 4, 1, 0)


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
        s = eval_at_one(state.poly)
        for j in range(6):
            kind = is_product_step(j, a)
            state = step(state, kind)
            expected = s * s if kind is StepKind.PRODUCT else s * s + 2 * s
            s = eval_at_one(state.poly)
            assert s == expected

    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS])
    def test_geometric_total_face_count(self, a):
        # Untruncated geometric engine keeps F_n(1) = 3^(2^n).
        for n in range(7):
            state = run(a, n, max(1, 2**n), Engine.GEOMETRIC_EXACT)
            assert eval_at_one(state.poly) == 3 ** (2**n)

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
        kinds = schedule_kinds(HALF, 5)
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
