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
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .errors import UsageError, VerificationError
from .polys import IntPoly, convolve_truncated, power_truncated
from .schedule import DensityParam, StepKind, window_profile

# Composition cost grows as 4^Q.  Words of a = 1/2 took 0.4 s at Q=9, 8.7 s at
# Q=10 and 272 s at Q=11 (2-CPU Xeon VM, under load).
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


def _square_xpoly(terms: dict[int, list[int]]) -> dict[int, list[int]]:
    """Square sum_k C_k(t) x^k exactly; t-polynomials ride along as
    Kronecker-packed integers so each x-pair costs one big multiply."""
    degs = sorted(terms)
    t_len = max(len(c) for c in terms.values())
    max_bits = max(max((v.bit_length() for v in c), default=0) for c in terms.values())
    slot_bits = 2 * max_bits + (len(degs) * t_len).bit_length() + 2
    slot_bytes = (slot_bits + 7) // 8
    packed = {k: _kernels._pack(c, slot_bytes) for k, c in terms.items()}
    out: dict[int, int] = {}
    for i, ki in enumerate(degs):
        pi = packed[ki]
        for kj in degs[i:]:
            prod = _kernels._mul_bigint(pi, packed[kj])
            if kj != ki:
                prod *= 2
            key = ki + kj
            out[key] = out.get(key, 0) + prod
    out_t_len = 2 * t_len - 1
    return {k: _kernels._unpack(v, slot_bytes, out_t_len) for k, v in out.items()}


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
    t_truncation = 2 ** len(word)
    cur: dict[int, list[int]] = {1: [1]}  # phi = x
    for letter in word:
        sq = _square_xpoly(cur)
        if letter is StepKind.PRODUCT:
            cur = sq
        else:
            new: dict[int, list[int]] = {k: [0] + c for k, c in sq.items()}  # t * phi^2
            for k, c in cur.items():  # + 2 * phi
                tgt = new.setdefault(k, [])
                while len(tgt) < len(c):
                    tgt.append(0)
                for idx, v in enumerate(c):
                    tgt[idx] += 2 * v
            cur = new
    terms = {
        k: IntPoly.from_coeffs(c, t_truncation)
        for k, c in cur.items()
        if any(v for v in c)
    }
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
