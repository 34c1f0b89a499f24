"""Low-level kernels: log-domain convolution and exact big-integer convolution.

``log_convolve`` is the one log kernel, run once per log-engine step.  Every
such step squares the state, and on engine states log2 a_{n,k} is concave in
k along one leading run of finite entries.  For a concave run h, output k is
a sum of the pair terms h[c - d] + h[k - c + d] (c = k // 2), which fall
monotonically in d, so the square sums only the band d <= W and counts each
pair twice.  W is the smallest half-width whose first dropped term lies more
than 53 + ceil(log2(K + 1)) below the row maximum; concavity makes that edge
check sufficient, and the dropped mass stays below 2**-53 of every output.
Every other input (two different operands, a non-concave run, interior
zeros) goes through the full quadratic log-sum-exp ``_log_convolve_full``,
which is also the oracle the band is tested against.  Both paths are
deterministic run to run.

Exact convolution packs nonnegative big-integer coefficients into one huge
number (Kronecker substitution) and multiplies once.  A product of two
different operands, and a square below the measured crossover, is packed into
binary slots of one CPython int; a square packs once and computes x*x.  A
square of at least 16 coefficients and 2**18 packed bits is packed into
base-10 slots of one Decimal and squared by libmpdec, the number-theoretic
transform behind the ``decimal`` module, in a context that traps any rounding;
the slots are read back out of the product's digit string.  Both base
conversions split recursively, so they stay subquadratic and never depend on
``sys.set_int_max_str_digits``.  Callers pass and get ints either way.  The
schoolbook convolution is kept as the independent oracle.
"""

from __future__ import annotations

import decimal
import itertools
import math
from decimal import Decimal

import numpy as np

from .errors import PrecisionError

NEG_INF = float("-inf")
ACTIVE_KERNEL = "numpy"

# Centers per block of the banded square: its temporaries hold at most
# _BAND_BLOCK x (W + 1) floats, whatever K is.
_BAND_BLOCK = 64
# Past 2**53 a float64 log2 value no longer resolves a factor of 2.
_LOG2_LIMIT = 2.0**53


# ---------------------------------------------------------------------------
# log-domain convolution
# ---------------------------------------------------------------------------

def _log_convolve_full(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """out[k] = log2 sum_j 2**(f[j] + g[k-j]), by max extraction per entry."""
    n = f.shape[0]
    out = np.empty(n, dtype=np.float64)
    for k in range(n):
        s = f[: k + 1] + g[k::-1]
        m = s.max()
        if m == NEG_INF:
            out[k] = NEG_INF
        else:
            out[k] = m + np.log2(np.exp2(s - m).sum())
    return out


def _concave_run(f: np.ndarray) -> int:
    """Length of f's leading run of finite entries when f is -inf after it
    and concave along it (second differences <= 0), else -1."""
    finite = np.isfinite(f)
    run = f.shape[0] if finite.all() else int(finite.argmin())
    if not np.isneginf(f[run:]).all() or not (np.diff(f[:run], 2) <= 0).all():
        return -1
    return run


def _band(x: np.ndarray, start: int, rows: int, width: int, step: int) -> np.ndarray:
    """View of x whose entry [i, d] is x[start + i + step * d].

    Built with the ndarray constructor, which checks the view against the
    buffer.  numpy's as_strided and sliding_window_view (measured on numpy
    2.4) keep about 5 bytes per call alive, and a long scan makes many views.
    """
    unit = x.itemsize
    return np.ndarray(
        (rows, width), x.dtype, buffer=x, offset=start * unit, strides=(unit, step * unit)
    )


def _log_square_banded(h: np.ndarray, n: int) -> np.ndarray:
    """First n outputs of the log-domain square of a concave finite run h
    (all coefficients above the run are zero)."""
    size = h.shape[0]
    out = np.full(n, NEG_INF)
    rows = min(n, 2 * size - 1)
    centers = (rows + 1) // 2
    cutoff = 53 + math.ceil(math.log2(n + 1))
    # hp[pad + i] is h[i], -inf outside the run; the pad covers every index
    # a block's width search and band can reach.
    pad = _BAND_BLOCK + 4
    hp = np.full(size + 2 * pad, NEG_INF)
    hp[pad : pad + size] = h
    for c0 in range(0, centers, _BAND_BLOCK):
        # Row 2c peaks at d = 0 with 2 h[c], row 2c + 1 with h[c] + h[c + 1];
        # every center has an even row, all but possibly the last an odd one.
        c = np.arange(c0, min(c0 + _BAND_BLOCK, centers))
        b, n_odd = c.shape[0], min(c.shape[0], rows // 2 - c0)
        top_even = 2.0 * h[c]
        top_odd = h[c[:n_odd]] + h[c[:n_odd] + 1]
        # Edge of half-width w: the pair at d = w + 1 of every row.
        low = np.concatenate((c, c[:n_odd])) + (pad - 1)
        high = np.concatenate((c, c[:n_odd] + 1)) + (pad + 1)
        limit = np.concatenate((top_even, top_odd)) - cutoff
        # Any w past hi_w puts every edge outside the run.
        lo_w, hi_w = 0, min(int(c[-1]), size - 1 - c0)
        while lo_w < hi_w:
            mid = (lo_w + hi_w) // 2
            if (hp[low - mid] + hp[high + mid] <= limit).all():
                hi_w = mid
            else:
                lo_w = mid + 1
        w = lo_w
        # Row i of the block pairs h[c0 + i - d] with h[c0 + i + d] (even
        # rows) or h[c0 + i + 1 + d] (odd rows), for d = 0..w.
        down = _band(hp, pad + c0, b, w + 1, -1)
        terms = down + _band(hp, pad + c0, b, w + 1, 1)
        terms -= top_even[:, None]
        s = np.exp2(terms, out=terms).sum(axis=1)
        out[2 * c0 : 2 * (c0 + b) : 2] = top_even + np.log2(2.0 * s - 1.0)
        if n_odd:
            odd = terms[:n_odd]
            np.add(down[:n_odd], _band(hp, pad + c0 + 1, n_odd, w + 1, 1), out=odd)
            odd -= top_odd[:, None]
            s = np.exp2(odd, out=odd).sum(axis=1)
            out[2 * c0 + 1 : 2 * (c0 + n_odd) : 2] = top_odd + 1.0 + np.log2(s)
    return out


def log_convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Truncated log-domain convolution of two equal-length log2-coefficient arrays.

    Squares (``g is f``) of a concave leading run take the banded path;
    everything else takes the full kernel.  Raises PrecisionError if any
    output is +inf, NaN, or finite above 2**53 in magnitude.
    """
    run = _concave_run(f) if g is f else -1
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the raise below
        if run >= 0:
            out = _log_square_banded(np.ascontiguousarray(f[:run]), f.shape[0])
        else:
            out = _log_convolve_full(np.ascontiguousarray(f), np.ascontiguousarray(g))
    if not (np.isneginf(out) | (np.abs(out) <= _LOG2_LIMIT)).all():
        raise PrecisionError("log2 a_{n,k} left the log engine's range, |log2 a_{n,k}| <= 2**53")
    return out


# ---------------------------------------------------------------------------
# exact big-integer convolution (Kronecker substitution)
# ---------------------------------------------------------------------------

# Exact decimal arithmetic: a result that would need rounding raises instead.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation],
)
# Leaves of the two base conversions: Decimal(int) up to _DEC_LEAF_BITS bits,
# int(str) up to _INT_LEAF_DIGITS digits (below the default int_max_str_digits).
_DEC_LEAF_BITS = 4096
_INT_LEAF_DIGITS = 2000
# A square of at least _DEC_MIN_COEFFS coefficients and _DEC_MIN_BITS packed bits
# goes through decimal, where its conversions cost less than the multiply saves.
# Best-of-5 square times in ms, int path / decimal path, 2-CPU Xeon VM, Python 3.11.7:
#   coefficients   128 kbit     256 kbit     1 Mbit        4 Mbit packed
#   2              1.6/6.8      4.2/17.8     40.6/139.8    413/1260
#   8              3.6/5.3      10.1/15.4    95.5/107.4    850/838
#   16             4.3/4.4      12.2/11.7    106/80.0      938/608
#   64             4.8/5.5      14.2/10.9    87.1/44.0     874/370
#   256            5.5/5.3      13.0/9.5     101/38.2      964/262
#   1024           6.1/6.2      12.9/11.0    126/44.8      1168/201
_DEC_MIN_COEFFS = 16
_DEC_MIN_BITS = 2**18


def _mul_bigint(x: int, y: int) -> int:
    """The big multiply, a function of its own so perfbench/spans.py can time it."""
    return x * y


def _mul_decimal(x: Decimal, y: Decimal) -> Decimal:
    """The exact decimal multiply of the square path (libmpdec's transform)."""
    return _EXACT.multiply(x, y)


def _pack(coeffs: list[int], slot_bytes: int) -> int:
    return int.from_bytes(b"".join(c.to_bytes(slot_bytes, "little") for c in coeffs), "little")


def _unpack(packed: int, slot_bytes: int, count: int) -> list[int]:
    raw = packed.to_bytes(max(1, (packed.bit_length() + 7) // 8), "little")
    raw = raw.ljust(count * slot_bytes, b"\0")
    return [
        int.from_bytes(raw[i * slot_bytes : (i + 1) * slot_bytes], "little")
        for i in range(count)
    ]


def _split(size: int, leaf: int) -> int:
    """For ``size`` > ``leaf``, the largest leaf * 2**j below it.  Splitting
    there keeps both parts at most that size and draws every split, and so
    every cached power, from one short list."""
    return leaf << ((size - 1) // leaf).bit_length() - 1


def _pow2(k: int, pow2: dict[int, Decimal]) -> Decimal:
    """2**k as a Decimal, for k = _DEC_LEAF_BITS * 2**j, cached in ``pow2``."""
    if k not in pow2:
        if k == _DEC_LEAF_BITS:
            pow2[k] = Decimal(1 << k)
        else:
            half = _pow2(k // 2, pow2)
            pow2[k] = _EXACT.multiply(half, half)
    return pow2[k]


def _to_decimal(x: int, pow2: dict[int, Decimal]) -> Decimal:
    """Nonnegative ``x`` as a Decimal in subquadratic time: split on bits and
    recombine with the powers of two cached in ``pow2`` (one dict per call)."""
    bits = x.bit_length()
    if bits <= _DEC_LEAF_BITS:
        return Decimal(x)
    k = _split(bits, _DEC_LEAF_BITS)
    high, low = _to_decimal(x >> k, pow2), _to_decimal(x & ((1 << k) - 1), pow2)
    return _EXACT.fma(high, _pow2(k, pow2), low)


def decimal_strs(values: list[int]) -> list[str]:
    """``[str(v) for v in values]`` for nonnegative ints, in subquadratic time
    and without int_max_str_digits: a Decimal's str() is linear."""
    pow2: dict[int, Decimal] = {}
    return [str(_to_decimal(v, pow2)) for v in values]


def _digits_to_int(digits: str, pow10: dict[int, int]) -> int:
    """A decimal digit string as an int in subquadratic time: split on digits
    and recombine with the powers of ten cached in ``pow10`` (one dict per call)."""
    size = len(digits)
    if size <= _INT_LEAF_DIGITS:
        return int(digits)
    k = _split(size, _INT_LEAF_DIGITS)
    if k not in pow10:
        pow10[k] = 10**k
    return _digits_to_int(digits[:-k], pow10) * pow10[k] + _digits_to_int(digits[-k:], pow10)


def _pack_decimal(f: list[int], out_len: int) -> tuple[Decimal, int]:
    """f in base-10 slots of one Decimal, coefficient i at digit i * width, and
    the slot width.

    Coefficient k < out_len of f**2 sums at most count = min(len(f), out_len)
    products f_i f_j with i + j = k, so it has fewer than max(d_i + d_j) +
    digits(count) digits, d_i being the digits of f_i.  The width is one more,
    and at least the widest d_i so that every f_i fills its own slot.  Slots at
    or above out_len may overflow; carries only move up, so the slots below
    stay exact.  On engine states, whose coefficients grow with i, this is
    about 0.7 of twice the widest d_i."""
    pow2: dict[int, Decimal] = {}
    coeffs = [_to_decimal(c, pow2) for c in f]
    digits = [c.adjusted() + 1 for c in coeffs]
    reach = list(itertools.accumulate(digits, max))  # reach[j]: widest of f_0 .. f_j
    count = min(len(f), out_len)
    widest_term = max(
        (digits[i] + reach[min(out_len - 1 - i, len(f) - 1)] for i in range(count)), default=0
    )
    width = max(reach[-1], widest_term + len(str(count)) + 1)
    return Decimal("".join(str(c).zfill(width) for c in reversed(coeffs))), width


def _square_decimal(f: list[int], out_len: int) -> list[int]:
    """First ``out_len`` coefficients of f**2 from one exact Decimal square of
    f packed into base-10 slots, read back out of the product's digits."""
    packed, width = _pack_decimal(f, out_len)
    product = _mul_decimal(packed, packed)
    del packed  # each big number goes as soon as it is used: they set peak memory
    # Only the lowest out_len slots are read, so only their digits become a string.
    keep = out_len * width
    high = _EXACT.scaleb(product, -keep).to_integral_value(decimal.ROUND_DOWN, _EXACT)
    low = _EXACT.subtract(product, _EXACT.scaleb(high, keep))
    del product, high
    digits = str(low).zfill(keep)
    del low
    pow10: dict[int, int] = {}
    return [
        _digits_to_int(digits[keep - (i + 1) * width : keep - i * width], pow10)
        for i in range(out_len)
    ]


def convolve_exact(f: list[int], g: list[int], out_len: int) -> list[int]:
    """First ``out_len`` coefficients of the product of two nonnegative-int polys.

    A square is recognised by ``g is f``: it packs once, and above the
    measured crossover it is squared in decimal.
    """
    n, m = len(f), len(g)
    if n == 0 or m == 0:
        return [0] * out_len
    bits_f = max(f).bit_length()  # coefficients are nonnegative
    bits_g = bits_f if g is f else max(g).bit_length()
    if bits_f == 0 or bits_g == 0:
        return [0] * out_len
    slot_bits = bits_f + bits_g + (min(n, m)).bit_length() + 1
    if g is f and n >= _DEC_MIN_COEFFS and n * slot_bits >= _DEC_MIN_BITS:
        return _square_decimal(f, out_len)
    slot_bytes = (slot_bits + 7) // 8
    x = _pack(f, slot_bytes)
    prod = _mul_bigint(x, x if g is f else _pack(g, slot_bytes))
    return _unpack(prod, slot_bytes, out_len)


def convolve_schoolbook(f: list[int], g: list[int], out_len: int) -> list[int]:
    """Quadratic reference convolution; the oracle for convolve_exact."""
    out = [0] * out_len
    for i, fi in enumerate(f):
        if fi == 0 or i >= out_len:
            continue
        for j, gj in enumerate(g):
            k = i + j
            if k >= out_len:
                break
            out[k] += fi * gj
    return out
