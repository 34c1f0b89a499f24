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
moves up with k, so the composition carries every term as a band: the
offset lo_k and the coefficients from t^lo_k to t^hi_k.  A letter packs each
band into binary slots of one int, multiplies the bands pairwise and adds
each product lo_i + lo_j slots up into key k_i + k_j.  Before the last
square of SRSRSRSRS the 121 terms span 5,357 t-slots from t^0 to their tops,
and their bands hold only the 1,428 nonzero ones.  Composing that word
multiplies 36.6 Mbit of operands as bands, against 152.0 Mbit as lists
packed from t^0.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .errors import UsageError, VerificationError
from .polys import IntPoly, convolve_truncated, power_truncated
from .schedule import DensityParam, StepKind, window_profile

# Composition cost grows 20-40x per letter: 4x the x-pairs, each multiply
# wider.  The word of a = 1/2 took 0.1 s at Q=9, 3.8 s at Q=10 and 88 s at
# Q=11 (2-CPU Xeon VM, CPython 3.11 ints).
_MAX_WORD_LEN = 11


def word_from_string(s: str) -> tuple[StepKind, ...]:
    """Parse a word like "SRR" (innermost letter first)."""
    try:
        return tuple(StepKind.PRODUCT if c == "S" else {"R": StepKind.HULL}[c] for c in s.upper())
    except KeyError as exc:
        raise UsageError(f"word letters must be S or R, got {s!r}") from exc


@dataclass(frozen=True)
class PhiMap:
    """Exact expansion of a window composition."""

    word: tuple[StepKind, ...]
    terms: dict[int, IntPoly]  # x-degree -> C_k(t)
    t_trunc: int

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
        return "".join("S" if w is StepKind.PRODUCT else "R" for w in self.word)

    def coefficient(self, k: int) -> IntPoly:
        return self.terms.get(k, IntPoly.zero(self.t_trunc))


# A term C_k(t) as a band (lo, [c_0, ..., c_w]): C_k(t) = t^lo * sum_i c_i t^i with
# c_0 and c_w nonzero.  No coefficient is negative, so no sum of terms cancels
# and every band's ends stay nonzero through the composition.
Band = tuple[int, list[int]]


def _apply_letter(terms: dict[int, Band], hull: bool) -> dict[int, Band]:
    """phi^2 (Product) or t*phi^2 + 2*phi (Hull) of phi = sum_k C_k(t) x^k, on bands.

    Each band is Kronecker-packed once, from its lowest slot, and each x-pair
    costs one big multiply of two packed bands.  The product adds into key
    ki + kj, lo_i + lo_j slots up (one more for the Hull's t); the Hull's
    2*phi adds into the same packed sums, and each sum is unpacked once.

    Slot width: a slot of key K sums c_a * c_b over the ordered pairs
    (i, j) with i + j = K, at most one per i, and over a + b fixed, at most
    the widest band's width per pair; the Hull adds one 2 * c.  Each term is
    below 2**(2 * bits), bits being the widest coefficient's length, so the
    at most ``count`` terms sum below 2**(2 * bits + bit_length(count)) and
    no slot carries into the next.
    """
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
            prod = _kernels._mul_bigint(packed[i], packed[j])
            add(ki + degs[j], los[i] + los[j] + hull, prod if j == i else prod << 1)
    if hull:
        for k, lo, value in zip(degs, los, packed):
            add(k, lo, value << 1)
    # Only the slots up to a sum's highest bit are read.
    return {
        key: (lo, _kernels._unpack(value, slot_bytes, -(-value.bit_length() // slot_bits)))
        for key, (lo, value) in sums.items()
    }


def compose_window(word) -> PhiMap:
    """Exact expansion of the window composition for ``word``.

    The t-polynomials are truncated at 2**len(word); every t-degree
    reachable by a word of that length stays strictly below it, so nothing
    is ever actually cut off.
    """
    word = tuple(word)
    if not word:
        raise UsageError("window word must be nonempty")
    if len(word) > _MAX_WORD_LEN:
        raise UsageError(f"word length {len(word)} exceeds the feasibility cap {_MAX_WORD_LEN}")
    cur: dict[int, Band] = {1: (0, [1])}  # phi = x
    for letter in word:
        cur = _apply_letter(cur, letter is StepKind.HULL)
    t_truncation = 2 ** len(word)
    terms = {k: IntPoly.from_coeffs([0] * lo + c, t_truncation) for k, (lo, c) in cur.items()}
    return PhiMap(word=word, terms=terms, t_trunc=t_truncation)


def tfree_and_top(phi: PhiMap) -> tuple[int, int, int, int]:
    """(A, p, B, lambda): the t-free term A*x^(2^p) and the top term B*t^lambda*x^(2^Q).

    Asserts the facts the bound proofs rely on: the t-free x-monomial is
    unique and sits at x^(2^p), and the top coefficient is a monomial with
    B = 1.  A violation would falsify the composer, so it raises.
    """
    p = phi.p
    expected_tfree = 2**p
    A = phi.coefficient(expected_tfree)[0]
    if A <= 0:
        raise VerificationError(f"C_(2^p) has no t-free part for word {phi.word_str}")
    for k, c in phi.terms.items():
        if k != expected_tfree and c[0] != 0:
            raise VerificationError(
                f"unexpected t-free term at x^{k} for word {phi.word_str}"
            )
    top = phi.coefficient(2**phi.Q)
    lam = top.degree()
    if lam < 0 or top.min_degree() != lam or top[lam] != 1:
        raise VerificationError(
            f"top coefficient is not a monic monomial for word {phi.word_str}: {top.coeffs}"
        )
    return A, p, top[lam], lam


def apply_phi(phi: PhiMap, f: IntPoly) -> IntPoly:
    """sum_k C_k(t) * f(t)^k, truncated at f's bound."""
    kmax = f.kmax
    out = IntPoly.zero(kmax)
    powers: dict[int, IntPoly] = {}
    for k in phi.support:
        powers[k] = power_truncated(f, k)
    for k, ck in phi.terms.items():
        out = out + convolve_truncated(ck.truncate(kmax), powers[k])
    return out


def window_phis(a: DensityParam, Q: int, m: int) -> list[PhiMap]:
    """PhiMaps of the aligned windows 0..m-1 (index j covers steps Qj..Qj+Q-1)."""
    return [compose_window(window_profile(a, Q, j).word) for j in range(m)]
