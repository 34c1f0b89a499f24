"""Step schedules for the recursive polytope family.

A density parameter ``a`` in (0,1) induces an infinite word over
{Product, Hull}: step ``n`` is a Product exactly when the half-open
interval ``[n*a, (n+1)*a)`` contains an integer (equivalently, when n is
of the form floor(m/a) for some integer m >= 0).  Rational ``a = p/q`` is
decided in exact integer arithmetic; irrational ``a`` is carried as a
high-precision rational enclosure and every comparison is certified, so a
schedule is reproducible bit for bit or fails loudly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionError, UsageError, VerificationError


class StepKind(enum.Enum):
    PRODUCT = "P"
    HULL = "H"

    def __str__(self) -> str:
        return self.value


# The letter of each step kind in a window word: S(x) = x^2 for a Product
# step, R(x) = t*x^2 + 2x for a Hull step.
STEP_LETTERS = {StepKind.PRODUCT: "S", StepKind.HULL: "R"}


def word_letters(word) -> str:
    """A word of step kinds as its S/R letters, innermost first."""
    return "".join(map(STEP_LETTERS.__getitem__, word))


@dataclass(frozen=True)
class DensityParam:
    """The density parameter ``a``, either exact-rational or high-precision real.

    ``value`` is an exact Fraction.  For the rational kind it is ``a``
    itself (lowest terms, guaranteed by Fraction).  For the real kind it
    is an approximation with absolute error at most ``2**-precision_bits``.
    """

    value: Fraction
    precision_bits: int | None = None  # None marks the exact-rational kind

    def __post_init__(self):
        if not (0 < self.value < 1):
            raise UsageError(f"density parameter must lie in (0,1), got {self.value}")
        if self.precision_bits is not None and self.precision_bits < 8:
            raise UsageError("precision_bits must be at least 8")

    @property
    def is_rational(self) -> bool:
        return self.precision_bits is None

    @classmethod
    def rational(cls, p: int, q: int) -> "DensityParam":
        try:
            return cls(Fraction(p, q))
        except ZeroDivisionError as exc:
            raise UsageError("density denominator must be nonzero") from exc

    @classmethod
    def real(cls, value, precision_bits: int) -> "DensityParam":
        """High-precision real ``a``; ``value`` may be a decimal string or Fraction."""
        if isinstance(value, str):
            try:
                value = Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"cannot parse density value {value!r}") from exc
        return cls(Fraction(value), precision_bits)

    def interval(self, scale: int = 1) -> tuple[Fraction, Fraction]:
        """Exact enclosure of ``scale * a``."""
        if self.is_rational:
            x = self.value * scale
            return x, x
        eps = Fraction(1, 2**self.precision_bits)
        return (self.value - eps) * scale, (self.value + eps) * scale

    def __str__(self) -> str:
        if self.is_rational:
            return f"{self.value.numerator}/{self.value.denominator}"
        return f"~{float(self.value):.12g}@{self.precision_bits}b"


def is_product_step(n: int, a: DensityParam) -> StepKind:
    """Kind of step ``n``: Product iff [n*a, (n+1)*a) contains an integer.

    Rational ``a = p/q`` reduces to the exact test ceil(n*p/q)*q < (n+1)*p
    (step 0 is always a Product since m = 0 is admitted).  The real kind
    certifies the comparison against the stored enclosure and raises
    PrecisionError whenever it cannot be decided.
    """
    if n < 0:
        raise UsageError(f"step index must be nonnegative, got {n}")
    if a.is_rational:
        p, q = a.value.numerator, a.value.denominator
        return StepKind.PRODUCT if -((-n * p) // q) * q < (n + 1) * p else StepKind.HULL
    if a.precision_bits < n + 8:
        raise PrecisionError(
            f"{a.precision_bits} precision bits are insufficient for step {n} "
            f"(need at least n+8 = {n + 8})"
        )
    x_lo, x_hi = a.interval(n)
    y_lo, y_hi = a.interval(n + 1)
    c_lo, c_hi = math.ceil(x_lo), math.ceil(x_hi)
    if c_lo != c_hi:
        raise PrecisionError(f"ceil(n*a) undecidable at step {n} with {a.precision_bits} bits")
    if c_lo < y_lo:
        return StepKind.PRODUCT
    if c_lo >= y_hi:
        return StepKind.HULL
    raise PrecisionError(f"membership undecidable at step {n} with {a.precision_bits} bits")


def floor_scaled(a: DensityParam, scale: int) -> int:
    """floor(scale * a), certified for the real kind."""
    lo, hi = a.interval(scale)
    f_lo, f_hi = math.floor(lo), math.floor(hi)
    if f_lo != f_hi:
        raise PrecisionError(f"floor({scale}*a) undecidable at {a.precision_bits} bits")
    return f_lo


@dataclass(frozen=True)
class Window:
    """Aligned window ``m`` of length ``Q``: steps Qm .. Qm+Q-1."""

    Q: int
    m: int
    word: tuple[StepKind, ...]
    p: int  # number of Product steps in the window

    @property
    def word_str(self) -> str:
        return word_letters(self.word)


def window_profile(a: DensityParam, Q: int, m: int) -> Window:
    """Kind word of window ``m`` (innermost first) and its product count.

    Asserts the two-value range p in {floor(a*Q), ceil(a*Q)}.
    """
    if Q < 1:
        raise UsageError(f"window length must be >= 1, got {Q}")
    if m < 0:
        raise UsageError(f"window index must be >= 0, got {m}")
    word = tuple(is_product_step(n, a) for n in range(Q * m, Q * m + Q))
    p = sum(1 for k in word if k is StepKind.PRODUCT)
    f = floor_scaled(a, Q)
    ceil_aq = f if (a.is_rational and a.value * Q == f) else f + 1
    if p not in (f, ceil_aq):
        raise VerificationError(
            f"p(Q={Q}, m={m}) = {p} outside {{floor(aQ), ceil(aQ)}} = "
            f"{{{f}, {ceil_aq}}} for a = {a}"
        )
    return Window(Q=Q, m=m, word=word, p=p)


def choose_window(n: int, a: DensityParam) -> int:
    """Window length: Q = q for rational a = p/q, else round(sqrt(n))."""
    if n < 1:
        raise UsageError(f"total step count must be >= 1, got {n}")
    if a.is_rational:
        return a.value.denominator
    return max(1, round(math.sqrt(n)))
