import dataclasses
import math
import time
from collections import Counter
from fractions import Fraction
from typing import Iterator

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hannerfaces import trees
from hannerfaces.asymptotics import floor_d_delta
from hannerfaces.errors import BudgetExceededError, UsageError, VerificationError
from hannerfaces.phimap import compose_window, tfree_and_top
from hannerfaces.polys import DecimalPoly, IntPoly, convolve_truncated, eval_at_one, log2_int, power_truncated
from hannerfaces.recursion import Engine, face_numbers, run
from hannerfaces.schedule import DensityParam, StepKind, window_profile
from hannerfaces.trees import (
    enumerate_trees,
    histogram_codes,
    histogram_leaves,
    lower_bound_certificate,
    lower_bound_histogram,
    tree_sum_check,
    tree_weight,
)

S, R = StepKind.PRODUCT, StepKind.HULL

HALF = DensityParam.rational(1, 2)
THIRD = DensityParam.rational(1, 3)
TWO_THIRDS = DensityParam.rational(2, 3)

PHI_SR = compose_window((S, R))  # t x^4 + 2 x^2


def tree_count(m: int, supports) -> int:
    """|T_m^K| from the count the enumeration budget reads."""
    return trees._count(trees._normalize_supports(m, supports))


def degree_histogram(tree: tuple) -> dict[tuple[int, int], int]:
    """Reference (height, degree) histogram of the internal vertices, by one
    walk over the tree."""
    out: dict[tuple[int, int], int] = {}
    stack = [(tree, 0)]
    while stack:
        node, h = stack.pop()
        if node:
            key = (h, len(node))
            out[key] = out.get(key, 0) + 1
            stack.extend((c, h + 1) for c in node)
    return out


def window_phis(a: DensityParam, Q: int, m: int) -> list:
    """Reference PhiMaps of the aligned windows 0..m-1, each composed anew."""
    return [compose_window(window_profile(a, Q, j).word) for j in range(m)]


def leaf_count(tree: tuple) -> int:
    """Reference L(T), by recursion over the tree."""
    return 1 if not tree else sum(leaf_count(c) for c in tree)


def internal_count(tree: tuple) -> int:
    """Reference count of internal vertices, by recursion over the tree."""
    return 0 if not tree else 1 + sum(internal_count(c) for c in tree)


def lower_bound_tree(Q: int, p: int, lam: int, m: int, k: int) -> tuple[tuple, int, int]:
    """Reference T_m as nested tuples, with its h and jstar: full 2^Q-ary
    levels up to height h-1, then full 2^p-ary subtrees down to height m,
    where h = floor(log_{2^Q}(k / (2*lam))) by repeated floor division."""
    top = 2**Q
    h, q = 0, k // (2 * lam)
    while q >= top:
        h, q = h + 1, q // top
    assert m > h
    tree: tuple = ()
    for _ in range(m - h):
        tree = (tree,) * 2**p
    for _ in range(h):
        tree = (tree,) * top
    return tree, h, lam * top**h


def recursive_trees(m: int, per_level: list[list[int]], level: int = 0) -> Iterator[tuple]:
    """Reference enumeration: root degree first, then the children one by
    one, each re-enumerated from scratch (the first child varies slowest)."""

    def forest(count: int) -> Iterator[tuple]:
        if count == 0:
            yield ()
            return
        for first in recursive_trees(m, per_level, level + 1):
            for rest in forest(count - 1):
                yield (first,) + rest

    if level == m:
        yield ()
        return
    for k in sorted(per_level[level]):
        yield from forest(k)


class TestEnumeration:
    def test_height_zero(self):
        assert list(enumerate_trees(0, [])) == [()]
        assert tree_count(0, []) == 1

    def test_height_one(self):
        trees = list(enumerate_trees(1, {2, 4}))
        assert len(trees) == 2
        assert tree_count(1, {2, 4}) == 2

    def test_height_two(self):
        trees = list(enumerate_trees(2, {2, 4}))
        assert len(trees) == 20  # 2^2 + 2^4
        assert tree_count(2, {2, 4}) == 20
        assert len(set(trees)) == 20

    def test_budget_error(self):
        # refused when called, from the count of the first level above the
        # budget (here the root level: 2^2 + 2^4 = 20 trees)
        with pytest.raises(BudgetExceededError) as ei:
            enumerate_trees(2, {2, 4}, budget=7)
        assert ei.value.count == 20
        assert "more than budget 7" in str(ei.value)

    def test_budget_refusal_stops_at_first_level_over(self):
        # heights from the bottom: 7 trees, then sum 7^k (k = 2..8) = 6725600,
        # which already exceeds 100; the root level is never counted
        with pytest.raises(BudgetExceededError) as ei:
            enumerate_trees(3, set(range(2, 9)), budget=100)
        assert ei.value.count == sum(7**k for k in range(2, 9))

    def test_refusal_of_a_huge_count_has_a_short_message(self):
        # 2048 trees of height 1, then sum 2048^k (k = 1..2048) at the root:
        # past 2^22528, more digits than str() of an int may print
        with pytest.raises(BudgetExceededError) as ei:
            enumerate_trees(2, range(1, 2049), budget=10**4)
        count = sum(2048**k for k in range(1, 2049))
        assert ei.value.count == count
        assert str(ei.value) == "enumeration refused: at least 2**22528 items, more than budget 10000"
        assert len(str(ei.value).encode()) < 200

    @pytest.mark.parametrize(
        ("count", "shown"),
        [(2**64 - 1, str(2**64 - 1)), (2**64, "2**64"), (2**65 - 1, "2**64"), (3 * 2**70, "2**71")],
    )
    def test_message_prints_64_bits_exactly_and_more_as_a_power_of_two(self, count, shown):
        err = BudgetExceededError(5, count)
        assert str(err) == f"enumeration refused: at least {shown} items, more than budget 5"
        assert err.count == count

    def test_budget_equal_to_count_is_allowed(self):
        assert len(list(enumerate_trees(2, {2, 4}, budget=20))) == 20

    @pytest.mark.parametrize("budget", [0, -5])
    def test_nonpositive_budget_rejected(self, budget):
        for call in (
            lambda: enumerate_trees(0, {2}, budget=budget),
            lambda: tree_sum_check(HALF, 2, 0, 4, budget=budget),
        ):
            with pytest.raises(UsageError, match=f"budget must be >= 1, got {budget}") as ei:
                call()
            assert not isinstance(ei.value, BudgetExceededError)

    @pytest.mark.parametrize(("a", "Q", "m", "words"), [(HALF, 2, 3, 1), (THIRD, 2, 2, 2), (THIRD, 3, 2, 1)])
    def test_each_distinct_window_word_is_composed_once(self, monkeypatch, a, Q, m, words):
        composed = []
        monkeypatch.setattr(trees, "compose_window", lambda word: composed.append(word) or compose_window(word))
        assert tree_sum_check(a, Q, m, 4).match
        assert len(composed) == len(set(composed)) == words

    def test_tree_sum_check_refuses_before_the_recursion_runs(self, monkeypatch):
        # windows of a=1/2, Q=3 have supports {4,6,8}, {2..8}, {4,6,8}
        monkeypatch.setattr(trees, "run", lambda *args: pytest.fail("recursion ran"))
        with pytest.raises(BudgetExceededError):
            tree_sum_check(HALF, 3, 3, 4, budget=100_000)

    def test_empty_level_rejected(self):
        with pytest.raises(UsageError):
            tree_count(2, [{2}, set()])

    @pytest.mark.parametrize(
        ("m", "per_level"),
        [
            (0, []),
            (1, [[2, 4]]),
            (2, [[2, 4], [2, 4]]),
            (2, [[2, 3, 4], [2, 4]]),
            (3, [[1, 2], [1, 3], [2]]),
            (2, [[4, 6, 8], [2, 3, 5]]),
        ],
    )
    def test_same_sequence_as_recursive_reference(self, m, per_level):
        assert list(enumerate_trees(m, per_level)) == list(recursive_trees(m, per_level))

    def test_all_leaves_at_uniform_height(self):
        def depths(t, d=0):
            if not t:
                yield d
            for c in t:
                yield from depths(c, d + 1)

        for t in enumerate_trees(3, {1, 2}):
            assert set(depths(t)) == {3}

    def test_per_level_supports(self):
        # root degree from {2,3,4}, next level from {2,4}: 4+8+16 trees
        assert tree_count(2, [{2, 3, 4}, {2, 4}]) == 28
        assert len(list(enumerate_trees(2, [{2, 3, 4}, {2, 4}]))) == 28


class TestHistogramCodes:
    """The composed class stream against walking every enumerated tree."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 3).flatmap(
            lambda m: st.lists(st.sets(st.integers(1, 5), min_size=1), min_size=m, max_size=m)
        )
    )
    @example([{1}, {1}, {1}])
    @example([{1, 3}, {2}, {1, 2, 5}])
    @example([{2}, {3}, {2}])
    @example([{5}, {1, 4}])
    @example([])
    def test_same_histograms_as_walking_every_tree(self, supports):
        m = len(supports)
        n = tree_count(m, supports)
        assume(n <= 3000)
        codes, unpack = histogram_codes([sorted(s) for s in supports])
        assert len(codes) == n
        assert [unpack(c) for c in codes] == [degree_histogram(t) for t in enumerate_trees(m, supports)]


class TestTreeWeight:
    def test_single_leaf(self):
        assert tree_weight(degree_histogram(()), [], 4) == IntPoly.one(4)

    def test_root_degree_four(self):
        t = ((), (), (), ())
        assert tree_weight(degree_histogram(t), [PHI_SR], 4).coeffs == (0, 1, 0, 0, 0)

    def test_root_degree_two(self):
        t = ((), ())
        assert tree_weight(degree_histogram(t), [PHI_SR], 4).coeffs == (2, 0, 0, 0, 0)

    def test_degree_outside_support(self):
        with pytest.raises(UsageError):
            tree_weight(degree_histogram(((), (), ())), [PHI_SR], 4)

    def test_height_beyond_window_stack(self):
        with pytest.raises(UsageError):
            tree_weight({(1, 2): 1}, [PHI_SR], 4)


class TestTreeSumCheck:
    def test_m_zero(self):
        res = tree_sum_check(HALF, 2, 0, 8)
        assert res.n_trees == 1
        assert res.total.coeffs[:2] == (2, 1)

    def test_m1_half(self):
        res = tree_sum_check(HALF, 2, 1, 8)
        assert res.n_trees == 2
        assert res.total.coeffs[:6] == (8, 24, 34, 24, 8, 1)

    def test_m2_half_matches_f4(self):
        res = tree_sum_check(HALF, 2, 2, 16)
        assert res.n_trees == 20
        assert res.match

    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS])
    @pytest.mark.parametrize("Qm", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)])
    def test_identity_grid(self, a, Qm):
        Q, m = Qm
        res = tree_sum_check(a, Q, m, 16)
        assert res.match

    def test_one_shared_record_per_histogram_in_enumeration_order(self):
        res = tree_sum_check(HALF, 2, 2, 8)
        phis = window_phis(HALF, 2, 2)[::-1]
        tree_list = list(enumerate_trees(2, [phi.support for phi in phis]))
        assert [hist for hist, _ in res.tree_classes] == [degree_histogram(t) for t in tree_list]
        records = {id(record): record for record in res.tree_classes}.values()
        keys = [tuple(sorted(hist.items())) for hist, _ in records]
        assert len(keys) == len(set(keys)) == 8
        for hist, w in records:
            assert w == tree_weight(hist, phis, 8)

    def test_coefficient_formula_takes_only_nonzero_terms(self):
        # the formula's nonzero terms, w_j != 0 and 0 <= k - j <= L, are a
        # small share of every (k, j <= k) at K = 8000
        start = time.monotonic()
        res = tree_sum_check(HALF, 1, 2, 8000)
        assert time.monotonic() - start < 5.0
        assert res.match and res.n_trees == 2

    def test_varying_window_words(self):
        # a=1/3 with Q=2 has distinct consecutive window words; the
        # height-indexed weights must still reproduce the recursion.
        res = tree_sum_check(THIRD, 2, 2, 12)
        assert res.match

    def test_a_recursion_off_by_one_is_refused(self, monkeypatch):
        total = tree_sum_check(HALF, 2, 2, 16).total

        def off(a, n, kmax, engine):  # coefficient 3 of the recursion one too large
            state = run(a, n, kmax, engine)
            ds = list(state.poly.decimals)
            ds[3] += 1
            return dataclasses.replace(state, poly=DecimalPoly(tuple(ds), kmax))

        monkeypatch.setattr(trees, "run", off)
        with pytest.raises(VerificationError) as refused:
            tree_sum_check(HALF, 2, 2, 16)
        assert str(refused.value) == (
            f"tree sum differs from recursion first at k=3: {total[3]} != {total[3] + 1} (a=1/2, Q=2, m=2)"
        )


def _reference_weight(hist, phis_by_height, t_trunc):
    """W(T) with every factor power built anew, one histogram at a time."""
    out = IntPoly.one(t_trunc)
    for (h, deg), count in sorted(hist.items()):
        lo, coeffs = phis_by_height[h].terms[deg]
        ck = IntPoly.from_coeffs([0] * lo + list(coeffs), t_trunc)
        out = convolve_truncated(out, power_truncated(ck, count))
    return out


def _reference_tree_sum(a, Q, m, kmax):
    """(total, engine_poly, tree_classes) by the per-class loop: each class
    weighed on its own and multiplied by its own (2+t)^L."""
    by_height = window_phis(a, Q, m)[::-1]
    per_level = [sorted(phi.support) for phi in by_height]
    engine_poly = run(a, Q * m, kmax, Engine.PAPER_EXACT).poly.to_intpoly()
    codes, unpack = histogram_codes(per_level)
    multiplicity = Counter(codes)
    classes = {}
    for code in multiplicity:
        hist = unpack(code)
        classes[code] = (hist, _reference_weight(hist, by_height, kmax))
    tree_classes = list(map(classes.__getitem__, codes))
    seg = IntPoly.from_coeffs([2, 1], kmax)
    total = IntPoly.zero(kmax)
    coeff_sums = [0] * (kmax + 1)
    for code, (hist, w) in classes.items():
        count = multiplicity[code]
        L = histogram_leaves(hist)
        total = total + convolve_truncated(w, power_truncated(seg, L)).scale(count)
        for k in range(kmax + 1):
            s = 0
            for j in range(k + 1):
                wj = w[j]
                if wj:
                    binom = math.comb(L, k - j)
                    if binom:
                        s += wj * binom * 2 ** (L - (k - j))
            coeff_sums[k] += count * s
    assert list(total.coeffs) == coeff_sums
    return total, engine_poly, tree_classes


class TestSharedPowers:
    """The tree sum builds each factor power once per call, and no (2+t)^L:
    the coefficient formula expands those by the binomial theorem."""

    @pytest.mark.parametrize("kmax", [1, 4, 16])
    @pytest.mark.parametrize("Qm", [(Q, m) for Q in (1, 2, 3) for m in (0, 1, 2)])
    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS])
    def test_equals_the_per_class_loop(self, a, Qm, kmax):
        Q, m = Qm
        res = tree_sum_check(a, Q, m, kmax)
        assert (res.total, res.engine_poly, res.tree_classes) == _reference_tree_sum(a, Q, m, kmax)

    def test_heights_with_distinct_window_words(self):
        # a=1/3, Q=2: the two windows differ, so one (degree, count) takes
        # different factors at the two heights
        phis = window_phis(THIRD, 2, 2)
        assert phis[0].word != phis[1].word
        assert set(phis[0].terms) & set(phis[1].terms)
        res = tree_sum_check(THIRD, 2, 2, 12)
        assert (res.total, res.engine_poly, res.tree_classes) == _reference_tree_sum(THIRD, 2, 2, 12)

    @pytest.mark.parametrize(("a", "Q", "m", "kmax"), [(THIRD, 2, 2, 12), (HALF, 3, 2, 4)])
    def test_one_power_per_factor(self, monkeypatch, a, Q, m, kmax):
        calls = []

        def spy(f, e):
            calls.append((f, e))
            return power_truncated(f, e)

        monkeypatch.setattr(trees, "power_truncated", spy)
        for _ in range(2):  # no table outlives its call
            calls.clear()
            res = tree_sum_check(a, Q, m, kmax)
            hists = {tuple(sorted(hist.items())) for hist, _ in res.tree_classes}
            factors = {(h, deg, count) for hist in hists for (h, deg), count in hist}
            assert len(calls) == len(factors)

    def test_a_shared_table_gives_the_fresh_weight(self):
        phis = window_phis(THIRD, 2, 2)[::-1]
        powers = {}
        for hist, _ in tree_sum_check(THIRD, 2, 2, 12).tree_classes:
            assert tree_weight(hist, phis, 12, powers) == _reference_weight(hist, phis, 12)


class TestAtypicalStats:
    def test_leaf_count_identity(self):
        def nodes(tree):
            yield tree
            for c in tree:
                yield from nodes(c)

        for t in enumerate_trees(2, {2, 4}):
            hist_sum = sum(len(node) - 1 for node in nodes(t) if node)
            assert leaf_count(t) == 1 + hist_sum
            hist = degree_histogram(t)
            assert histogram_leaves(hist) == leaf_count(t)
            assert sum(hist.values()) == internal_count(t)


class TestLowerBoundTree:
    """The certificate's shape of T_m against the reference tree built here."""

    @staticmethod
    def assert_certificate_matches_the_tree(cert, tree, h, jstar):
        assert (cert.h, cert.jstar) == (h, jstar)
        assert cert.leaves == leaf_count(tree)
        assert cert.qcount == sum(c for (_, d), c in degree_histogram(tree).items() if d != 2**cert.p)

    def test_example_half(self):
        t, h, jstar = lower_bound_tree(2, 1, 1, 3, 8)
        assert h == 1 and jstar == 4
        assert len(t) == 4  # root degree 2^Q
        assert leaf_count(t) == 16
        assert all(len(c) == 2 for c in t)
        self.assert_certificate_matches_the_tree(lower_bound_certificate(HALF, 2, 3, 8), t, h, jstar)

    def test_precondition_m_too_small(self):
        with pytest.raises(UsageError, match=r"need tree height m > h = floor\(log_\(2\^Q\)\(k/2lam\)\) = 2, got m=2"):
            lower_bound_certificate(HALF, 2, 2, 32)

    def test_example_third(self):
        t, h, jstar = lower_bound_tree(3, 1, 3, 2, 48)
        assert h == 1
        assert leaf_count(t) == 16
        assert jstar == 24
        self.assert_certificate_matches_the_tree(lower_bound_certificate(THIRD, 3, 2, 48), t, h, jstar)

    def test_k_below_two_lambda(self):
        with pytest.raises(UsageError, match=r"need k >= 2\*lambda, got k=5 < 6"):
            lower_bound_certificate(THIRD, 3, 3, 5)

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            ((2, 0, 0, -1), "lambda must be a positive integer"),  # every precondition fails
            ((2, 1, 0, 1), "need k >= 2*lambda, got k=1 < 2"),
            ((2, 1, 0, 2), "need tree height m > h = floor(log_(2^Q)(k/2lam)) = 0, got m=0"),
        ],
    )
    def test_preconditions_in_order(self, args, message):
        with pytest.raises(UsageError) as ei:
            trees._lower_bound_shape(*args)
        assert message in str(ei.value)


class TestLowerBoundHistogram:
    # the criterion-6 grid: k = floor(d^(1/2)) at n = Q*m
    GRID = [(HALF, 2, m) for m in range(3, 9)] + [(THIRD, 3, m) for m in range(2, 6)]

    @pytest.mark.parametrize(("a", "Q", "m"), GRID)
    def test_closed_form_equals_the_walk(self, a, Q, m):
        k = floor_d_delta(Q * m, Fraction(1, 2))
        _, p, _, lam = tfree_and_top(compose_window(window_profile(a, Q, 0).word))
        tree, h, _ = lower_bound_tree(Q, p, lam, m, k)
        assert lower_bound_histogram(Q, p, h, m) == degree_histogram(tree)

    def test_certificate_walks_no_tree(self):
        # the one tree walk is this file's reference; the package holds none
        assert not hasattr(trees, "degree_histogram")
        cert = lower_bound_certificate(HALF, 2, 20, 8)  # T_20 has about 2^21 vertices
        assert cert.leaves == 2**21 and cert.certified


class TestLowerBoundCertificate:
    def test_half_m3_k8(self):
        cert = lower_bound_certificate(HALF, 2, 3, 8)
        assert cert.leaves == 16
        assert cert.bound_log2 == 8
        assert cert.jstar == 4 and cert.jstar * 2 <= 8
        assert cert.qcount <= 8
        assert cert.certified
        a68 = face_numbers(HALF, 6, 8, Engine.PAPER_EXACT)[8]
        assert a68 >= 2**cert.bound_log2

    def test_weight_exponent_is_not_jstar(self):
        # The weight of T_m has t-degree lam * (#top-degree vertices), which
        # is strictly below jstar once h >= 1.
        cert = lower_bound_certificate(HALF, 2, 3, 8)
        assert cert.jweight == 1  # one degree-4 vertex (the root), lam = 1
        assert cert.jweight < cert.jstar
        assert cert.A >= 1

    def test_minimal_height_bound_below_one(self):
        cert = lower_bound_certificate(THIRD, 3, 2, 8)
        assert cert.h == 0
        assert cert.bound_log2 < 0  # L = 4 < k = 8: bound 2^(L-k) <= 1, still valid

    def test_third_m3_k48(self):
        # At this m the L > 2k precondition fails (L=32, 2k=96): the chain
        # is reported un-certified and the bound holds only trivially.
        cert = lower_bound_certificate(THIRD, 3, 3, 48)
        assert cert.leaves == 32
        assert not cert.leaves_exceed_2k
        assert not cert.certified
        log2_a = log2_int(face_numbers(THIRD, 9, 48, Engine.PAPER_EXACT)[48])
        assert cert.bound_log2 <= log2_a

    def test_chain_certifies_once_leaves_dominate(self):
        for m in (5, 6):
            cert = lower_bound_certificate(HALF, 2, m, 2**m)
            assert cert.leaves_exceed_2k and cert.certified


class TestClosedFormWeight:
    """The certificate reads [t^jweight] W(T_m) as A^typical, and L and qcount
    from the closed-form histogram; here each is checked against the weight
    ``tree_weight`` builds from the walk of the reference tree."""

    @pytest.mark.parametrize(
        "a", [HALF, THIRD, TWO_THIRDS, DensityParam.rational(2, 5), DensityParam.rational(3, 7)]
    )
    def test_every_certificate_matches_the_built_weight(self, a):
        walked = {}  # (Q, m, h) -> L, qcount and [t^jweight] W(T_m), from the tree
        certified = 0
        for Q in range(1, 6):
            phi = compose_window(window_profile(a, Q, 0).word)
            _, p, _, lam = tfree_and_top(phi)
            for m in range(1, 7):
                for k in range(1, 257):
                    try:
                        cert = lower_bound_certificate(a, Q, m, k)
                    except UsageError:
                        continue
                    tree, h, _ = lower_bound_tree(Q, p, lam, m, k)
                    if (Q, m, h) not in walked:
                        hist = degree_histogram(tree)
                        qcount = sum(c for (_, d), c in hist.items() if d != 2**p)
                        w = tree_weight(hist, [phi] * m, max(lam * qcount, 1))
                        walked[Q, m, h] = leaf_count(tree), qcount, w[lam * qcount]
                    L, qcount, coeff = walked[Q, m, h]
                    assert (cert.leaves, cert.qcount, cert.jweight) == (L, qcount, lam * qcount)
                    assert cert.A**cert.typical == coeff, (Q, m, k)
                    certified += 1
        assert certified > 0


class TestAtypicalFilter:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_high_qcount_trees_do_not_touch_low_coefficients(self, k):
        phi = PHI_SR
        kmax = k
        seg = IntPoly.from_coeffs([2, 1], kmax)
        from hannerfaces.polys import convolve_truncated, power_truncated

        full = IntPoly.zero(kmax)
        filtered = IntPoly.zero(kmax)
        for t in enumerate_trees(2, set(phi.support)):
            hist = degree_histogram(t)
            w = tree_weight(hist, [phi, phi], kmax)
            term = convolve_truncated(w, power_truncated(seg, leaf_count(t)))
            full = full + term
            if sum(c for (_, d), c in hist.items() if d != 2**phi.p) <= k:
                filtered = filtered + term
        assert full.coeffs[: k + 1] == filtered.coeffs[: k + 1]


class TestWeightMassBound:
    def test_log_weight_at_one_bounded_by_internal_count(self):
        # W(T)(1) <= (2^(2^Q))^(Int(T)) since every C_k(1) <= 2^(2^Q).
        # W depends on T only through its histogram, so each (word, histogram)
        # is weighed once; the bound is still checked tree by tree.
        log2_w1 = {}
        for word in ((S, R), (R, R), (S, R, R)):
            phi = compose_window(word)
            cap = 2**phi.Q
            for t in enumerate_trees(2, set(phi.support), budget=10**5):
                hist = degree_histogram(t)
                key = (word, tuple(sorted(hist.items())))
                if key not in log2_w1:
                    w1 = eval_at_one(tree_weight(hist, [phi, phi], 2 ** (phi.Q + 1)))
                    log2_w1[key] = log2_int(w1)
                assert log2_w1[key] <= cap * internal_count(t) + 1e-9
        assert len(log2_w1) == 371

    def test_internal_at_most_leaves_minus_one(self):
        for t in enumerate_trees(2, {2, 4}):
            assert internal_count(t) <= leaf_count(t) - 1
