"""Truncated polynomials with nonnegative coefficients, in three types.  The
two recursion states, ``DecimalPoly`` (exact, in integral Decimals) and
``LogPoly`` (float64 log2 entries), share ``monomial``, ``shift``, ``scale``
and ``+``, so ``step`` is one formula for both; ``IntPoly`` (exact ints) holds
the exact products of tree weights and window maps; and
``convolve_truncated`` is the one truncated product for all three.

Polynomials are value-semantic: operations return new objects and never
mutate their inputs.  Explicit zeros are retained, so a polynomial always
stores exactly ``kmax + 1`` coefficients.  Two polynomials combine only if
they have the same type and the same ``kmax``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import _kernels
from .errors import UsageError

NEG_INF = float("-inf")
_ZERO = Decimal(0)
_ONE = Decimal(1)


@dataclass(frozen=True)
class IntPoly:
    """Univariate polynomial with exact nonnegative integer coefficients,
    truncated at degree ``kmax``."""

    coeffs: tuple[int, ...]
    kmax: int

    def __post_init__(self):
        if self.kmax < 0:
            raise UsageError("kmax must be nonnegative")
        if len(self.coeffs) != self.kmax + 1:
            raise UsageError(
                f"expected {self.kmax + 1} coefficients, got {len(self.coeffs)}"
            )
        if min(self.coeffs) < 0:
            raise UsageError("coefficients must be nonnegative")

    @classmethod
    def from_coeffs(cls, coeffs, kmax: int) -> "IntPoly":
        """Build from any coefficient iterable, truncating or zero-padding to kmax."""
        cs = list(coeffs)[: kmax + 1]
        cs += [0] * (kmax + 1 - len(cs))
        return cls(tuple(cs), kmax)

    @classmethod
    def zero(cls, kmax: int) -> "IntPoly":
        return cls.from_coeffs((), kmax)

    @classmethod
    def one(cls, kmax: int) -> "IntPoly":
        return cls.from_coeffs((1,), kmax)

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k <= self.kmax else 0

    def __add__(self, other: "IntPoly") -> "IntPoly":
        _check_compatible(self, other)
        return IntPoly(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.kmax)

    def scale(self, c: int) -> "IntPoly":
        if c < 0:
            raise UsageError("scale factor must be nonnegative")
        return IntPoly(tuple(c * a for a in self.coeffs), self.kmax)


@dataclass(frozen=True)
class DecimalPoly:
    """The exact engines' state: an IntPoly whose coefficients are held as
    nonnegative integral Decimals (exponent 0), so a step squares, shifts and
    adds in base 10 with no conversion.  Every operation runs in the trapping
    ``_kernels._EXACT`` context, never the caller's, so nothing rounds.  Reads
    give ints: ``[k]``, ``log2(k)`` and ``to_intpoly()``."""

    decimals: tuple[Decimal, ...]
    kmax: int

    def __post_init__(self):
        if self.kmax < 0:
            raise UsageError("kmax must be nonnegative")
        if len(self.decimals) != self.kmax + 1:
            raise UsageError(
                f"expected {self.kmax + 1} coefficients, got {len(self.decimals)}"
            )
        ds = self.decimals
        if not (
            set(map(type, ds)) <= {Decimal}
            and all(map(_ONE.same_quantum, ds))
            and not any(map(Decimal.is_signed, ds))
        ):
            raise UsageError("coefficients must be nonnegative Decimals with exponent 0")

    @classmethod
    def monomial(cls, coeff: int, degree: int, kmax: int) -> "DecimalPoly":
        cs = [_ZERO] * (kmax + 1)
        if degree <= kmax:
            cs[degree] = Decimal(coeff)
        return cls(tuple(cs), kmax)

    def __getitem__(self, k: int) -> int:
        if not 0 <= k <= self.kmax:
            return 0
        return _kernels._digits_to_int(str(self.decimals[k]), {})

    def log2(self, k: int) -> float:
        """log2 of coefficient k, bit for bit ``log2_int`` of the int (-inf for zero)."""
        return log2_int(self[k])

    def __add__(self, other: "DecimalPoly") -> "DecimalPoly":
        _check_compatible(self, other)
        add = _kernels._EXACT.add
        return DecimalPoly(tuple(map(add, self.decimals, other.decimals)), self.kmax)

    def scale(self, c: int) -> "DecimalPoly":
        if c < 0:
            raise UsageError("scale factor must be nonnegative")
        factor, mul = Decimal(c), _kernels._EXACT.multiply
        return DecimalPoly(tuple(mul(factor, a) for a in self.decimals), self.kmax)

    def shift(self, d: int) -> "DecimalPoly":
        """Multiply by t**d, truncating."""
        size = self.kmax + 1
        return DecimalPoly((_ZERO,) * min(d, size) + self.decimals[: max(size - d, 0)], self.kmax)

    def to_intpoly(self) -> IntPoly:
        """The same polynomial with int coefficients, converted subquadratically."""
        pow10: dict[int, int] = {}
        ints = (_kernels._digits_to_int(str(c), pow10) for c in self.decimals)
        return IntPoly(tuple(ints), self.kmax)


def _check_compatible(f, g):
    if type(g) is not type(f):
        raise UsageError(f"{type(f).__name__} does not combine with {type(g).__name__}")
    if f.kmax != g.kmax:
        raise UsageError(f"kmax mismatch: {f.kmax} vs {g.kmax}")


def convolve_truncated(f, g):
    """Truncated product of two polynomials of one type; coefficient k of the
    result is sum_{j<=k} f_j * g_{k-j}, terms above kmax discarded.  IntPolys
    multiply exactly.  A DecimalPoly takes only its square (``g is f``), exact
    in decimal.  LogPolys go through the log kernel, which bands a square."""
    _check_compatible(f, g)
    if isinstance(f, LogPoly):
        return LogPoly(_kernels.log_convolve(f.log2_coeffs, g.log2_coeffs), f.kmax)
    if isinstance(f, DecimalPoly):
        if g is not f:
            raise UsageError("a DecimalPoly takes no product but its square (see to_intpoly)")
        cf = list(f.decimals)
        return DecimalPoly(tuple(_kernels.convolve_exact(cf, cf, f.kmax + 1)), f.kmax)
    cf = list(f.coeffs)
    out = _kernels.convolve_exact(cf, cf if g is f else list(g.coeffs), f.kmax + 1)
    return IntPoly(tuple(out), f.kmax)


def square_coefficient(f: DecimalPoly, k: int) -> Decimal:
    """Coefficient k <= kmax of ``convolve_truncated(f, f)`` alone, exact in
    decimal: 2 * sum_{i < k/2} f_i * f_{k-i}, plus f_{k/2}**2 for even k.  That is
    about k/2 products of single coefficients, where the whole square packs all
    kmax + 1 of them into one number.  Only the exact state takes it: a log row's
    bytes depend on the band width its block shares, so the log engine squares
    whole states."""
    cs, add, mul = f.decimals, _kernels._EXACT.add, _kernels._EXACT.multiply
    half = (k + 1) // 2
    pairs = functools.reduce(add, map(mul, cs[:half], cs[k : k - half : -1]), _ZERO)
    out = add(pairs, pairs)
    return add(out, mul(cs[half], cs[half])) if k % 2 == 0 else out


def eval_at_one(f: IntPoly) -> int:
    """Sum of all stored coefficients (exact)."""
    return sum(f.coeffs)


def power_truncated(f: IntPoly, e: int) -> IntPoly:
    """f**e under truncation, by repeated squaring.

    Truncation commutes with products of nonnegative-coefficient
    polynomials, so intermediate truncation loses nothing below kmax.
    """
    if e < 0:
        raise UsageError("exponent must be nonnegative")
    result = None
    base = f
    while e:
        if e & 1:
            result = base if result is None else convolve_truncated(result, base)
        e >>= 1
        if e:
            base = convolve_truncated(base, base)
    return IntPoly.one(f.kmax) if result is None else result


class LogPoly:
    """The log engine's state: the float64 log2 of each coefficient, -inf
    for a zero one.  Its ``monomial``, ``shift``, ``scale`` and ``+`` are
    DecimalPoly's taken through log2, so every engine steps through the same
    formula."""

    __slots__ = ("log2_coeffs", "kmax")

    def __init__(self, log2_coeffs: np.ndarray, kmax: int):
        arr = np.asarray(log2_coeffs, dtype=np.float64)
        if kmax < 0 or arr.shape != (kmax + 1,):
            raise UsageError(f"expected shape ({kmax + 1},), got {arr.shape}")
        if np.isposinf(arr).any() or np.isnan(arr).any():
            raise UsageError("log2 coefficients must be finite or -inf")
        self.log2_coeffs = arr
        self.kmax = kmax

    @classmethod
    def monomial(cls, coeff: int, degree: int, kmax: int) -> "LogPoly":
        if coeff < 0:
            raise UsageError("coefficients must be nonnegative")
        out = np.full(kmax + 1, NEG_INF)
        if degree <= kmax:
            out[degree] = log2_int(coeff)
        return cls(out, kmax)

    def __getitem__(self, k: int) -> float:
        return float(self.log2_coeffs[k]) if 0 <= k <= self.kmax else NEG_INF

    log2 = __getitem__  # entries are stored as log2 already

    def __add__(self, other: "LogPoly") -> "LogPoly":
        _check_compatible(self, other)
        return LogPoly(np.logaddexp2(self.log2_coeffs, other.log2_coeffs), self.kmax)

    def scale(self, c: int) -> "LogPoly":
        """Multiply by c: add log2 c (exactly 1.0 for c = 2)."""
        if c < 0:
            raise UsageError("scale factor must be nonnegative")
        return LogPoly(self.log2_coeffs + log2_int(c), self.kmax)

    def shift(self, d: int) -> "LogPoly":
        """Multiply by t**d, truncating."""
        out = np.full(self.kmax + 1, NEG_INF)
        if d <= self.kmax:
            out[d:] = self.log2_coeffs[: self.kmax + 1 - d]
        return LogPoly(out, self.kmax)


def log2_int(n: int) -> float:
    """log2 of a positive big integer to full float64 precision."""
    if n <= 0:
        return NEG_INF
    b = n.bit_length()
    if b <= 53:
        return math.log2(n)
    top = n >> (b - 53)
    return (b - 53) + math.log2(top)


def int_nth_root(x: int, r: int) -> int:
    """floor(x**(1/r)) in exact integer arithmetic.

    Newton's iteration runs down from an over-estimate and exact checks end
    it.  The float root 2^(log2_int(x)/r) is within (bit_length/r + 64) *
    2^-52 of the root relatively; raised by twice that, it is a start above
    the root from which a few steps reach it whatever r is.  A start read
    from the bit length alone can be twice the root, and Newton then takes
    about r steps.
    """
    if x < 0 or r < 1:
        raise UsageError("int_nth_root requires x >= 0 and r >= 1")
    if r == 1 or x in (0, 1):
        return x
    if r == 2:
        return math.isqrt(x)
    whole, frac = divmod(log2_int(x) / r, 1.0)
    y = (int(math.ldexp(2.0**frac, 52)) << int(whole)) >> 52
    y += (y * (x.bit_length() // r + 64) >> 51) + 1
    while True:
        y_next = ((r - 1) * y + x // y ** (r - 1)) // r
        if y_next >= y:
            break
        y = y_next
    while y**r > x:
        y -= 1
    while (y + 1) ** r <= x:
        y += 1
    return y
