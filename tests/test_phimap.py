import itertools
import math
import random

import pytest

from hannerfaces import _kernels, phimap
from hannerfaces.errors import UsageError, VerificationError
from hannerfaces.phimap import (
    PhiMap,
    apply_phi,
    compose_window,
    tfree_and_top,
    window_support,
    word_from_string,
)
from hannerfaces.polys import IntPoly, eval_at_one
from hannerfaces.recursion import Engine, run
from hannerfaces.schedule import DensityParam, StepKind, window_profile, word_letters

S, R = StepKind.PRODUCT, StepKind.HULL

HALF = DensityParam.rational(1, 2)
THIRD = DensityParam.rational(1, 3)
TWO_THIRDS = DensityParam.rational(2, 3)
TWO_FIFTHS = DensityParam.rational(2, 5)
THREE_SEVENTHS = DensityParam.rational(3, 7)
FOUR_NINTHS = DensityParam.rational(4, 9)


def coeff_map(phi: PhiMap) -> dict[int, tuple[int, ...]]:
    return {k: (0,) * lo + coeffs for k, (lo, coeffs) in phi.terms.items()}


class TestComposeWindow:
    def test_sr(self):
        phi = compose_window((S, R))
        assert coeff_map(phi) == {2: (2,), 4: (0, 1)}
        assert phi.support == [2, 4]

    def test_single_r(self):
        phi = compose_window((R,))
        assert coeff_map(phi) == {1: (2,), 2: (0, 1)}

    def test_srr(self):
        phi = compose_window((S, R, R))
        assert coeff_map(phi) == {2: (4,), 4: (0, 6), 6: (0, 0, 4), 8: (0, 0, 0, 1)}

    def test_rsr_counterexample_to_monomial_form(self):
        # C_4 of the word (R,S,R) is 16t + 2t^2: coefficients need not be monomials.
        phi = compose_window((R, S, R))
        assert phi.terms[4] == (1, (16, 2))

    def test_word_from_string(self):
        assert word_from_string("srr") == (S, R, R)
        with pytest.raises(UsageError):
            word_from_string("SXR")
        # one letter table parses and prints every word
        for word in itertools.product((S, R), repeat=3):
            assert word_from_string(word_letters(word)) == word
            assert compose_window(word).word_str == word_letters(word)

    def test_empty_word_rejected(self):
        with pytest.raises(UsageError):
            compose_window(())


def schoolbook_letter(cur: dict[tuple[int, int], int], letter: str) -> dict[tuple[int, int], int]:
    """S(phi) = phi^2 or R(phi) = t*phi^2 + 2*phi on {(x-degree, t-degree): coefficient},
    monomial by monomial."""
    items = list(cur.items())
    square: dict[tuple[int, int], int] = {}
    for i, ((xa, ta), ca) in enumerate(items):
        for (xb, tb), cb in items[i:]:
            key = (xa + xb, ta + tb)
            square[key] = square.get(key, 0) + (ca * cb if (xa, ta) == (xb, tb) else 2 * ca * cb)
    if letter == "S":
        return square
    out = {(x, t + 1): c for (x, t), c in square.items()}
    for key, c in items:
        out[key] = out.get(key, 0) + 2 * c
    return out


def schoolbook_compose(word: str) -> dict[tuple[int, int], int]:
    """phi of ``word`` (innermost letter first), from phi = x."""
    cur = {(1, 0): 1}
    for letter in word:
        cur = schoolbook_letter(cur, letter)
    return cur


def band_monomials(bands) -> dict[tuple[int, int], int]:
    return {(k, lo + i): c for k, (lo, cs) in bands.items() for i, c in enumerate(cs) if c}


def monomials(phi: PhiMap) -> dict[tuple[int, int], int]:
    return band_monomials(phi.terms)


def assert_bands_fit(phi: PhiMap, school: dict[tuple[int, int], int]):
    """Each band of ``phi`` is a tuple whose ends are nonzero, spanning exactly
    the t-degrees from the lowest to the highest nonzero one of the
    schoolbook's C_k(t)."""
    for k, (lo, coeffs) in phi.terms.items():
        degrees = [t for x, t in school if x == k]
        assert type(coeffs) is tuple and coeffs[0] and coeffs[-1], (k, lo, coeffs)
        assert (lo, lo + len(coeffs) - 1) == (min(degrees), max(degrees)), k


class TestAgainstSchoolbook:
    """compose_window against a composition that shares no code with it."""

    WORDS = ["".join(w) for q in range(1, 7) for w in itertools.product("SR", repeat=q)]

    def test_every_word_up_to_six_letters(self):
        lowest = []
        for word in self.WORDS:
            phi = compose_window(word_from_string(word))
            school = schoolbook_compose(word)
            assert monomials(phi) == school, word
            assert_bands_fit(phi, school)
            assert all(lo + len(cs) <= 2 ** len(word) for lo, cs in phi.terms.values())  # below t^(2^Q)
            lowest.append(max(lo for lo, _ in phi.terms.values()))
        # bands start well above t^0: RRRRRR's top term is t^63 x^64
        assert max(lowest) == 63

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_words_of_seven_and_eight_letters(self, seed):
        rng = random.Random(seed)
        for q in (7, 8):
            word = "".join(rng.choice("SR") for _ in range(q))
            phi, school = compose_window(word_from_string(word)), schoolbook_compose(word)
            assert monomials(phi) == school, word
            assert_bands_fit(phi, school)


def banded_letter(terms: dict[int, tuple[int, list[int]]], hull: bool) -> dict[int, tuple[int, list[int]]]:
    """phi^2 (S) or t*phi^2 + 2*phi (R) of phi = sum_k C_k(t) x^k, each C_k(t) a band
    (lo, [c_0, ..., c_w]) = t^lo * sum_i c_i t^i: the composer that takes the
    letters from the inside out.  Each band is Kronecker-packed once and each
    x-pair costs one multiply of two packed bands, added lo_i + lo_j slots up
    (one more for the Hull's t) into key ki + kj.  A slot sums at most ``count``
    terms below 2**(2 * bits), so it takes 2 * bits + bit_length(count) bits."""
    degs = sorted(terms)
    los = [terms[k][0] for k in degs]
    widest = max(len(c) for _, c in terms.values())
    bits = max(v.bit_length() for _, c in terms.values() for v in c)
    count = len(degs) * widest + hull
    slot_bytes = (2 * bits + count.bit_length() + 7) // 8
    slot_bits = 8 * slot_bytes
    packed = [_kernels._pack(terms[k][1], slot_bytes) for k in degs]
    sums: dict[int, list[int]] = {}  # key -> [lowest slot, packed sum from that slot up]

    def add(key: int, lo: int, value: int):
        entry = sums.get(key)
        if entry is None:
            sums[key] = [lo, value]
        elif lo >= entry[0]:
            entry[1] += value << (lo - entry[0]) * slot_bits
        else:
            entry[1] = value + (entry[1] << (entry[0] - lo) * slot_bits)
            entry[0] = lo

    for i, ki in enumerate(degs):
        for j in range(i, len(degs)):
            prod = packed[i] * packed[j]
            add(ki + degs[j], los[i] + los[j] + hull, prod if j == i else prod << 1)
    if hull:
        for k, lo, value in zip(degs, los, packed):
            add(k, lo, value << 1)
    return {
        key: (lo, _kernels._unpack(value, slot_bytes, -(-value.bit_length() // slot_bits)))
        for key, (lo, value) in sums.items()
    }


def banded_compose(word: str) -> dict[tuple[int, int], int]:
    """phi of ``word`` (innermost letter first), from phi = x, one letter at a time."""
    cur = {1: (0, [1])}
    for letter in word:
        cur = banded_letter(cur, letter == "R")
    return band_monomials(cur)


class TestAgainstInsideOut:
    """compose_window against the composer that takes the letters from the
    inside out, on words too long for the schoolbook oracle."""

    # the benchmark's three phi inputs (Q = 9, m = 0) and two words of ten letters
    @pytest.mark.parametrize(
        ("a", "Q"),
        [(HALF, 9), (THREE_SEVENTHS, 9), (FOUR_NINTHS, 9), (HALF, 10), (THIRD, 10)],
        ids=["1/2-Q9", "3/7-Q9", "4/9-Q9", "1/2-Q10", "1/3-Q10"],
    )
    def test_window_words(self, a, Q):
        word = window_profile(a, Q, 0).word
        text = word_letters(word)
        assert monomials(compose_window(word)) == banded_compose(text), text

    def test_agrees_with_the_schoolbook_oracle(self):
        for word in ("SRSRSR", "RRSRRS", "RSSRRR"):
            assert banded_compose(word) == schoolbook_compose(word), word


def schoolbook_hull(cur: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """psi(R(x)) of psi = {(x-degree, t-degree): coefficient}, from the powers of
    R(x) = t*x^2 + 2x built by repeated schoolbook products."""
    powers = [{(0, 0): 1}]
    for _ in range(max(x for x, _ in cur)):
        nxt: dict[tuple[int, int], int] = {}
        for (x, t), c in powers[-1].items():
            for key, r in (((x + 2, t + 1), 1), ((x + 1, t), 2)):
                nxt[key] = nxt.get(key, 0) + c * r
        powers.append(nxt)
    out: dict[tuple[int, int], int] = {}
    for (k, a), c in cur.items():
        for (x, t), p in powers[k].items():
            out[(x, t + a)] = out.get((x, t + a), 0) + c * p
    return out


class TestHullSubstitution:
    """``_compose_hull`` on bands against ``schoolbook_hull``."""

    def test_slots_hold_the_sum_over_every_key(self):
        # Every coefficient at its bit length's maximum (12 bits), on 64-wide
        # bands from t^0 at keys 1..14.  The widest scalar, C(14, 5) * 2**9,
        # takes 20 bits, and a slot of x^18 sums the terms of 8 keys, about
        # 1.35 * 2**20 * 4095 in all: past 2**32, so the slot needs the bits
        # of the key count as well.
        bands = {k: (0, [4095] * 64) for k in range(1, 15)}
        got = phimap._compose_hull(bands)
        assert band_monomials(got) == schoolbook_hull(band_monomials(bands))
        assert max(v for _, cs in got.values() for v in cs) > 2**32
        assert all(cs[0] and cs[-1] for _, cs in got.values())

    def test_bands_at_their_own_offsets(self):
        bands = {3: (5, [7, 0, 1]), 4: (0, [1]), 6: (2, [255, 255])}
        assert band_monomials(phimap._compose_hull(bands)) == schoolbook_hull(band_monomials(bands))


def test_no_band_multiplies_another(monkeypatch):
    """SRSRSRSRS multiplies a packed band by one scalar C(k, j) * 2**(k - j) per
    (k, j): sum_k (k + 1) = 3 + 21 + 273 + 4,161 over its four Hull letters, and
    no two bands meet in a multiply."""
    scalars = {math.comb(k, j) << (k - j) for k in range(129) for j in range(k + 1)}
    calls = []
    original = _kernels._mul_bigint

    def spy(x, y):
        calls.append(y)
        return original(x, y)

    monkeypatch.setattr(_kernels, "_mul_bigint", spy)
    compose_window(word_from_string("SRSRSRSRS"))
    assert len(calls) == 4458
    assert set(calls) <= scalars


class TestTermPoly:
    """``PhiMap.term_poly`` against the term padded to 2^Q + 1 slots and then
    truncated, the form every term took before the map kept its bands."""

    @pytest.mark.parametrize("word", ["R", "SR", "RSR", "RRSRS", "SRSRSRS"])
    def test_equals_the_padded_and_truncated_term(self, word):
        phi = compose_window(word_from_string(word))
        t_trunc = 2 ** len(word)
        seen = set()
        for k, (lo, coeffs) in phi.terms.items():
            top = lo + len(coeffs) - 1
            padded = IntPoly.from_coeffs([0] * lo + list(coeffs), t_trunc)
            for kmax in {max(lo - 1, 0), lo, (lo + top) // 2, top, top + 1, t_trunc, t_trunc + 3}:
                old = IntPoly.from_coeffs(padded.coeffs, kmax)
                assert phi.term_poly(k, kmax) == old, (k, kmax)
                seen.add("below" if kmax < lo else "above" if kmax > top else "inside")
        assert seen == {"below", "inside", "above"}

    def test_outside_the_support_raises(self):
        with pytest.raises(KeyError):
            compose_window((S, R)).term_poly(3, 8)


class TestTfreeAndTop:
    def test_sr(self):
        assert tfree_and_top(compose_window((S, R))) == (2, 1, 1, 1)

    def test_srr(self):
        assert tfree_and_top(compose_window((S, R, R))) == (4, 1, 1, 3)

    def test_ss(self):
        assert tfree_and_top(compose_window((S, S))) == (1, 2, 1, 0)

    # maps claimed for the word RR (p = 0, Q = 2), whose true terms are
    # {1: (0, (4,)), 2: (1, (6,)), 3: (2, (4,)), 4: (3, (1,))}
    @pytest.mark.parametrize(
        ("terms", "message"),
        [
            ({1: (1, (4,)), 4: (3, (1,))}, "no t-free part"),
            ({2: (0, (4,)), 4: (3, (1,))}, "no t-free part"),
            ({1: (0, (4,)), 3: (0, (4,)), 4: (3, (1,))}, r"unexpected t-free term at x\^3"),
            ({1: (0, (4,)), 4: (3, (2,))}, "not a monic monomial"),
            ({1: (0, (4,)), 4: (3, (1, 1))}, "not a monic monomial"),
            ({1: (0, (4,)), 3: (2, (1,))}, "not a monic monomial"),
        ],
        ids=["tfree-band-above-t0", "tfree-key-missing", "second-tfree-band", "top-not-monic",
             "top-not-monomial", "top-key-missing"],
    )
    def test_band_ends_that_break_a_fact_raise(self, terms, message):
        with pytest.raises(VerificationError, match=message):
            tfree_and_top(PhiMap(word=(R, R), terms=terms))

    def test_t_free_coefficient_follows_fold(self):
        # Tracking the t-free branch: S squares the coefficient, R doubles it.
        rng = random.Random(5)
        for _ in range(25):
            word = tuple(rng.choice((S, R)) for _ in range(rng.randrange(1, 7)))
            phi = compose_window(word)
            A, p, B, lam = tfree_and_top(phi)
            expect = 1
            for w in word:
                expect = expect * expect if w is S else 2 * expect
            assert A == expect
            assert B == 1


class TestRandomWordInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_degree_support_and_tfree(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            q = rng.randrange(1, 7)
            word = tuple(rng.choice((S, R)) for _ in range(q))
            phi = compose_window(word)
            p = sum(1 for w in word if w is S)
            assert max(phi.support) == 2**q
            assert min(phi.support) == 2**p
            tfree = [k for k, (lo, _) in phi.terms.items() if lo == 0]
            assert tfree == [2**p]
            # every other coefficient has positive minimum t-degree
            for k, (lo, _) in phi.terms.items():
                if k != 2**p:
                    assert lo >= 1
            # top coefficient: monic monomial, t-degree positive iff an R occurs
            _, _, B, lam = tfree_and_top(phi)
            assert B == 1
            assert (lam >= 1) == (R in word)


class TestApplyPhi:
    def test_two_steps_of_half(self):
        phi = compose_window((S, R))
        f = IntPoly.from_coeffs([2, 1], 8)
        out = apply_phi(phi, f)
        assert out.coeffs[:6] == (8, 24, 34, 24, 8, 1)

    def test_single_hull(self):
        phi = compose_window((R,))
        out = apply_phi(phi, IntPoly.from_coeffs([2, 1], 4))
        assert out.coeffs == (4, 6, 4, 1, 0)

    def test_zero_input(self):
        phi = compose_window((S, R, R))
        assert not any(apply_phi(phi, IntPoly.zero(6)).coeffs)

    @pytest.mark.parametrize("a", [HALF, THIRD, TWO_THIRDS, TWO_FIFTHS])
    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5])
    def test_matches_stepwise_recursion(self, a, Q):
        kmax = 64
        for m in range(2):
            phi = compose_window(window_profile(a, Q, m).word)
            before = run(a, Q * m, kmax, Engine.PAPER_EXACT).poly.to_intpoly()
            after = run(a, Q * (m + 1), kmax, Engine.PAPER_EXACT).poly.to_intpoly()
            assert apply_phi(phi, before) == after


def window_phis(a: DensityParam, Q: int, m: int) -> list[PhiMap]:
    """The PhiMaps of the aligned windows 0..m-1 (index j covers steps Qj..Qj+Q-1)."""
    return [compose_window(window_profile(a, Q, j).word) for j in range(m)]


class TestWindowPhis:
    def test_constant_words_for_aligned_rational(self):
        phis = window_phis(HALF, 2, 4)
        assert len(phis) == 4
        assert all(phi.word == (S, R) for phi in phis)

    def test_varying_words_off_alignment(self):
        phis = window_phis(THIRD, 2, 2)
        assert phis[0].word == (S, R)
        assert phis[1].word == (R, S)


class TestWindowSupport:
    def test_every_word_up_to_8_letters_matches_the_composer(self):
        for q in range(1, 9):
            for word in itertools.product((S, R), repeat=q):
                assert window_support(word) == compose_window(word).support, word_letters(word)

    @pytest.mark.parametrize(("word", "message"), [((), "nonempty"), ((R,) * 12, "feasibility cap 11")])
    def test_refuses_what_the_composer_refuses(self, word, message):
        for fn in (window_support, compose_window):
            with pytest.raises(UsageError, match=message):
                fn(word)

    def test_eleven_letters_without_composing(self, monkeypatch):
        monkeypatch.setattr(phimap, "_compose_hull", lambda terms: pytest.fail("composed"))
        assert window_support((R,) * 11) == list(range(1, 2**11 + 1))
        assert window_support(word_from_string("SRSRSRSRSRS")) == list(range(64, 2049, 2))


class TestScaleSanity:
    def test_evaluation_identity_total_mass(self):
        # phi(1,1) applied to 3 must equal F_Q(1) for the same word's schedule.
        for word, a in (((S, R), HALF), ((S, R, R), THIRD)):
            phi = compose_window(word)
            total = sum(sum(coeffs) * 3**k for k, (_, coeffs) in phi.terms.items())
            assert total == eval_at_one(run(a, len(word), 2 ** (len(word) + 1), Engine.PAPER_EXACT).poly.to_intpoly())
