"""Symbolic composition of window maps.

A window word over {S, R} (S(x) = x^2 for a Product step, R(x) = t*x^2 + 2x
for a Hull step, innermost letter first) composes to a polynomial in x
whose coefficients are polynomials in t:

    phi(x) = sum_{k in K} C_k(t) * x^k.

The composition is exact.  Words are oriented innermost-first throughout
the package: ``compose_window((S, R), ...)`` is R(S(x)) = t*x^4 + 2*x^2.
Note C_k(t) is a general polynomial, not always a monomial: the word
(R, S, R) yields C_4(t) = 16t + 2t^2, which is pinned as a regression
test.  Downstream bounds only need the weaker facts asserted here (unique
t-free term at x^(2^p), monic monomial top term).

Each C_k(t) is nonzero only on a narrow band of t-degrees [lo_k, hi_k] that
moves up with k, so a ``PhiMap`` holds every term as a band: the offset lo_k
and the coefficients from t^lo_k to t^hi_k, both ends nonzero.  The
composer builds the bands, and the readers use them as they are; only
``PhiMap.term_poly`` turns one into an ``IntPoly``, at its caller's bound.

The letters are substituted from the outside in: psi = x, then psi(w(x))
for w from the outermost (last) letter to the innermost (first).  The
inner series is always S or R, so substituting it has a closed form and no
band ever multiplies another:

- psi(S(x)) = psi(x^2) moves key k to key 2k and does no arithmetic;
- psi(R(x)) = sum_k C_k(t) * x^k * (t*x + 2)^k adds C(k, j) * 2**(k - j) *
  t^j * C_k(t) into key k + j for j = 0..k: one packed band times one int.

Composed from the inside out, every letter would square the whole map so
far: SRSRSRSRS took 9,599 multiplies of two packed bands (36.6 Mbit of
operands), 7,381 of them in its last square.  From the outside in it takes
4,458 multiplies of a band by a scalar of at most 200 bits (5.0 Mbit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .errors import UsageError, VerificationError
from .polys import IntPoly, convolve_truncated, power_truncated
from .schedule import STEP_LETTERS, StepKind, word_letters

# The innermost letter is substituted last, into a map of up to 2^(Q-1) keys,
# and key k costs k + 1 scalar multiplies, so an innermost Hull letter alone
# makes O(4^Q) of them, each on a wider band: the innermost letters set the
# cost.  Composing the word of a = 1/2 took 0.02 s at Q=9, 0.1 s at Q=10 and
# 30 s at 199 MiB at Q=12.  Words of 11 letters spread widely: SSRSRSRSRSR
# took 0.06 s, SRSRSRSRSRS 2.1 s, R^11 6.5 s, RSRSRSRSRSR 24 s at 198 MiB and
# RRSRSRSRSRS 93 s at 170 MiB (in process, 2-CPU Xeon VM, CPython 3.11 ints).
# The cap stays at 11 letters.
_MAX_WORD_LEN = 11


def word_from_string(s: str) -> tuple[StepKind, ...]:
    """Parse a word like "SRR" (innermost letter first)."""
    kinds = {letter: kind for kind, letter in STEP_LETTERS.items()}
    try:
        return tuple(kinds[c] for c in s.upper())
    except KeyError as exc:
        raise UsageError(f"word letters must be S or R, got {s!r}") from exc


# A term C_k(t) as a band (lo, (c_0, ..., c_w)): C_k(t) = t^lo * sum_i c_i t^i with
# c_0 and c_w nonzero.  No coefficient is negative, so no sum of terms cancels
# and every band's ends stay nonzero through the composition.
Band = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class PhiMap:
    """Exact expansion of a window composition."""

    word: tuple[StepKind, ...]
    terms: dict[int, Band]  # x-degree -> C_k(t), in ascending x-degree

    @property
    def Q(self) -> int:
        return len(self.word)

    @property
    def p(self) -> int:
        return sum(1 for w in self.word if w is StepKind.PRODUCT)

    @property
    def support(self) -> list[int]:
        return sorted(self.terms)

    @property
    def word_str(self) -> str:
        return word_letters(self.word)

    def term_poly(self, k: int, kmax: int) -> IntPoly:
        """C_k(t) as an IntPoly truncated at ``kmax``; k must be in the support."""
        lo, coeffs = self.terms[k]
        return IntPoly.from_coeffs((0,) * lo + coeffs, kmax)


def _compose_hull(terms: dict[int, Band]) -> dict[int, Band]:
    """psi(R(x)) = sum_k C_k(t) * x^k * (t*x + 2)^k of psi = sum_k C_k(t) x^k, on bands.

    Key k adds C(k, j) * 2**(k - j) * t^j * C_k(t) into key k + j for j = 0..k.
    Each band is Kronecker-packed once, from its lowest slot; each (k, j) costs
    one multiply of that packed band by the int scalar, added lo_k + j slots
    up into key k + j's packed sum, and each sum is unpacked once.

    Slot width: slot s of key K sums the terms with j = K - k over the keys
    k, at most one per k.  Each term is below 2**(bits + scalar_bits), bits
    being the widest coefficient's length and scalar_bits the widest
    scalar's (the row of the largest key holds it, as C(k, j) * 2**(k - j)
    grows with k), so the at most ``len(terms)`` terms sum below
    2**(bits + scalar_bits + bit_length(len(terms))) and no slot carries
    into the next.
    """
    top = max(terms)
    bits = max(v.bit_length() for _, c in terms.values() for v in c)
    scalar_bits = max(math.comb(top, j) << (top - j) for j in range(top + 1)).bit_length()
    slot_bytes = (bits + scalar_bits + len(terms).bit_length() + 7) // 8
    slot_bits = 8 * slot_bytes
    sums: dict[int, list[int]] = {}  # key -> [lowest slot, packed sum from that slot up]
    for k, (lo, coeffs) in terms.items():
        packed = _kernels._pack(coeffs, slot_bytes)
        for j in range(k + 1):
            key, at = k + j, lo + j
            value = _kernels._mul_bigint(packed, math.comb(k, j) << (k - j))
            entry = sums.get(key)
            if entry is None:
                sums[key] = [at, value]
            elif at >= entry[0]:
                entry[1] += value << (at - entry[0]) * slot_bits
            else:
                entry[1] = value + (entry[1] << (entry[0] - at) * slot_bits)
                entry[0] = at
    # Only the slots up to a sum's highest bit are read.
    return {
        key: (lo, tuple(_kernels._unpack(value, slot_bytes, -(-value.bit_length() // slot_bits))))
        for key, (lo, value) in sums.items()
    }


def _checked(word) -> tuple[StepKind, ...]:
    word = tuple(word)
    if not word:
        raise UsageError("window word must be nonempty")
    if len(word) > _MAX_WORD_LEN:
        raise UsageError(f"word length {len(word)} exceeds the feasibility cap {_MAX_WORD_LEN}")
    return word


def compose_window(word) -> PhiMap:
    """Exact expansion of the window composition for ``word``.

    The letters are substituted from the outermost in, starting from
    psi = x: psi(S(x)) = psi(x^2) moves key k to key 2k, and psi(R(x)) is
    ``_compose_hull``.  The terms are the bands it builds, in ascending key
    order; nothing is truncated.
    """
    word = _checked(word)
    cur: dict[int, Band] = {1: (0, (1,))}  # psi = x
    for letter in reversed(word):
        cur = _compose_hull(cur) if letter is StepKind.HULL else {2 * k: band for k, band in cur.items()}
    return PhiMap(word=word, terms=dict(sorted(cur.items())))


def window_support(word) -> list[int]:
    """The x-degrees ``compose_window(word)`` holds, from the letters alone,
    under the same refusals.

    Substituted from the outside in as the composer does, psi(S(x)) moves key
    k to 2k and psi(R(x)) spreads it over k..2k; no coefficient is built.
    """
    keys = {1}
    for letter in reversed(_checked(word)):
        if letter is StepKind.HULL:
            keys = {j for k in keys for j in range(k, 2 * k + 1)}
        else:
            keys = {2 * k for k in keys}
    return sorted(keys)


def tfree_and_top(phi: PhiMap) -> tuple[int, int, int, int]:
    """(A, p, B, lambda): the t-free term A*x^(2^p) and the top term B*t^lambda*x^(2^Q).

    Asserts the facts the bound proofs rely on, from the band ends: the only
    band starting at t^0 is the one at x^(2^p), and the top band is the
    monomial t^lambda, so B = 1.  A violation would falsify the composer, so
    it raises.
    """
    p = phi.p
    expected_tfree = 2**p
    tfree = phi.terms.get(expected_tfree)
    if tfree is None or tfree[0] != 0:
        raise VerificationError(f"C_(2^p) has no t-free part for word {phi.word_str}")
    for k, (lo, _) in phi.terms.items():
        if k != expected_tfree and lo < 1:
            raise VerificationError(
                f"unexpected t-free term at x^{k} for word {phi.word_str}"
            )
    top = phi.terms.get(2**phi.Q)
    if top is None or top[1] != (1,):
        raise VerificationError(
            f"top coefficient is not a monic monomial for word {phi.word_str}: {top}"
        )
    return tfree[1][0], p, 1, top[0]


def apply_phi(phi: PhiMap, f: IntPoly) -> IntPoly:
    """sum_k C_k(t) * f(t)^k, truncated at f's bound."""
    kmax = f.kmax
    out = IntPoly.zero(kmax)
    for k in phi.terms:
        out = out + convolve_truncated(phi.term_poly(k, kmax), power_truncated(f, k))
    return out
