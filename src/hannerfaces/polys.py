"""Truncated polynomial arithmetic over exact nonnegative big integers,
plus a log-domain (base-2) floating companion for large instances.

Polynomials are value-semantic: operations return new objects and never
mutate their inputs.  Explicit zeros are retained, so a polynomial always
stores exactly ``kmax + 1`` coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import UsageError

NEG_INF = float("-inf")


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
        if any(c < 0 for c in self.coeffs):
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

    @classmethod
    def monomial(cls, coeff: int, degree: int, kmax: int) -> "IntPoly":
        if degree > kmax:
            return cls.zero(kmax)
        return cls.from_coeffs([0] * degree + [coeff], kmax)

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k <= self.kmax else 0

    def log2(self, k: int) -> float:
        """log2 of coefficient k to full float64 precision (-inf for zero)."""
        return log2_int(self[k])

    def __add__(self, other: "IntPoly") -> "IntPoly":
        self._check_compatible(other)
        return IntPoly(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.kmax)

    def scale(self, c: int) -> "IntPoly":
        if c < 0:
            raise UsageError("scale factor must be nonnegative")
        return IntPoly(tuple(c * a for a in self.coeffs), self.kmax)

    def shift(self, d: int) -> "IntPoly":
        """Multiply by t**d, truncating."""
        return IntPoly.from_coeffs([0] * d + list(self.coeffs), self.kmax)

    def truncate(self, kmax: int) -> "IntPoly":
        return IntPoly.from_coeffs(self.coeffs, kmax)

    def degree(self) -> int:
        """Largest index with a nonzero coefficient, or -1 for the zero polynomial."""
        for k in range(self.kmax, -1, -1):
            if self.coeffs[k]:
                return k
        return -1

    def min_degree(self) -> int:
        """Smallest index with a nonzero coefficient, or -1 for the zero polynomial."""
        for k in range(self.kmax + 1):
            if self.coeffs[k]:
                return k
        return -1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check_compatible(self, other: "IntPoly"):
        if self.kmax != other.kmax:
            raise UsageError(f"kmax mismatch: {self.kmax} vs {other.kmax}")

    def to_log(self) -> "LogPoly":
        arr = np.array(
            [math.log2(c) if c else NEG_INF for c in self.coeffs], dtype=np.float64
        )
        return LogPoly(arr, self.kmax)


def convolve_truncated(f: IntPoly, g: IntPoly) -> IntPoly:
    """Exact truncated product; coefficient k of the result is
    sum_{j<=k} f_j * g_{k-j}, terms above kmax discarded."""
    f._check_compatible(g)
    out = _kernels.convolve_exact(list(f.coeffs), list(g.coeffs), f.kmax + 1)
    return IntPoly(tuple(out), f.kmax)


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
    result = IntPoly.one(f.kmax)
    base = f
    while e:
        if e & 1:
            result = convolve_truncated(result, base)
        e >>= 1
        if e:
            base = convolve_truncated(base, base)
    return result


class LogPoly:
    """log2-domain companion of IntPoly: float64 entries, -inf encodes zero."""

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
    def zero(cls, kmax: int) -> "LogPoly":
        return cls(np.full(kmax + 1, NEG_INF), kmax)

    def __getitem__(self, k: int) -> float:
        return float(self.log2_coeffs[k]) if 0 <= k <= self.kmax else NEG_INF

    log2 = __getitem__  # entries are stored as log2 already

    def _check_compatible(self, other: "LogPoly"):
        if self.kmax != other.kmax:
            raise UsageError(f"kmax mismatch: {self.kmax} vs {other.kmax}")

    def shift(self, d: int) -> "LogPoly":
        out = np.full(self.kmax + 1, NEG_INF)
        if d <= self.kmax:
            out[d:] = self.log2_coeffs[: self.kmax + 1 - d]
        return LogPoly(out, self.kmax)

    def addexp(self, other: "LogPoly", other_scale_log2: float = 0.0) -> "LogPoly":
        """Elementwise log2(2**self + 2**(other + scale))."""
        self._check_compatible(other)
        return LogPoly(
            np.logaddexp2(self.log2_coeffs, other.log2_coeffs + other_scale_log2),
            self.kmax,
        )


def log_convolve_truncated(f: LogPoly, g: LogPoly) -> LogPoly:
    """Log-domain truncated convolution (see _kernels for path selection)."""
    f._check_compatible(g)
    return LogPoly(_kernels.log_convolve(f.log2_coeffs, g.log2_coeffs), f.kmax)


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
    """floor(x**(1/r)) in exact integer arithmetic."""
    if x < 0 or r < 1:
        raise UsageError("int_nth_root requires x >= 0 and r >= 1")
    if r == 1 or x in (0, 1):
        return x
    if r == 2:
        return math.isqrt(x)
    # Newton iteration with an over-estimate start, exact integer ops only.
    y = 1 << (-(-x.bit_length() // r))
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
