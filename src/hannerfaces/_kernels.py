"""Low-level kernels: log-domain convolution and exact big-integer convolution.

``log_convolve`` is the one log kernel, run once per log-engine step.  Every
step squares the state, whose log2 a_{n,k} is concave in k along one leading
run of finite entries, so each output's pair terms fall monotonically away
from its center and ``_log_square_banded`` sums a band of them, dropping a
mass below 2**-53 of every output.  The stored values are rounded, so where
log2 a_{n,k} is nearly linear in k a second difference can come out a few
ulps above zero (one ulp at k = 171 of state 84 of a = 1/2, K = 181).  A pair
term's rise from d to d + 1 is a difference of two first differences, at most
the sum S+ of the positive second differences, so no term beyond a row's
first dropped pair rises above it by more than the defect V = (run - 1)/2 S+.
Such a square widens its cutoff by ceil(V) + 1 (the 1 for the rounding of the
differences themselves), which keeps the dropped mass under 2**-53; a run
with no positive second difference keeps its cutoff, and so its bytes.

How far above zero an engine state's second difference can come follows from
the precision bound below.  Its values are within 170 n u x of the concave
log2 a_{n,k}, so a second difference of them is above the true one, <= 0, by
at most 680 n u M, M the largest of its three inputs, and its own two
subtractions add 8u M.  log2 a_{n,0} >= n + 1 (a Product step doubles it, a
Hull step adds 1), so n < 1.03 h_0 for the stored h_0 while n < 2**40: the
sum is under 2**-43 max(h_0, 1) M.  A square whose input has a second
difference past that, or interior zeros, raises VerificationError, since no
engine state is one: it would mean a broken step.  The limit is loose where
h_0 is large (a second difference is at most 4M, so it takes every finite
run from h_0 = 2**45 on); there a broken step goes unseen by this check, and
the widened cutoff still keeps the square within its bound, at up to the
cost of whole rows.  Two different operands take the full quadratic
log-sum-exp ``_log_convolve_full``, the band's oracle.  Both are
deterministic.

Precision.  Let u = 2**-53 and x = log2 a_{n,k}.  After n steps the engine's
value is -inf exactly where a_{n,k} = 0, else within 170 n u x of x on the
whole range it admits (x <= 2**53, so u x <= 1), taking exp2, log2 and log1p
within 4 ulps (8u).  A log-sum-exp moves by at most its largest term's change,
and each term x_i + x_j of a square is at most its output z, so a relative
error passes a step unchanged and each step adds its own rounding as a share of
z >= 1 (a coefficient 1 is one pair of 1s, summed exactly).  A square row is
z = top + log2(2S - 1) (odd rows: top + 1 + log2 S), S >= 1 summing N band
terms 2**t_d.  The pair sums (u z) and top subtractions (u |t_d|, whose mean
under the weights 2**t_d / S is <= log2 N <= z) move S by 2 ln2 u z, exp2 by
8u, and numpy's pairwise sum (blocks of 128 on 8 accumulators, halved above) by
D u, D = 39 roundings a term up to 2**21 terms.  2S - 1 at most doubles that
and adds u, the dropped mass u; log2 adds 8u z and the final additions 2u z:
(5 + 8) u z + (2 / ln2)(8 + D + 1) u <= 151.5 u z.  The band's tests read
rounded values, so a dropped pair may sit 5 u z nearer its top than the cutoff:
the mass u 2**(5uz) <= u + 31 u**2 z moves z by under 2**-46 u z more.  The
Hull step, logaddexp2(t F**2, F + 1) = A + log2(1 + 2**t) of slope <= 1/2 in t,
adds u z + 0.4u (t) + 0.72 * 8u (exp2) + 8u (log1p) + 2u (log2 e) <= 17.2 u z,
F + 1 rounding below the square's share.  Each step adds under 170 u, whose
last 1.3 u covers the n u**2 z terms while n < 2**40.

Exact convolution packs nonnegative big coefficients into one huge number
(Kronecker substitution) and multiplies once.  Int coefficients, the small
products of trees and powers, go into binary slots of one CPython int; a
square packs once and computes x*x.  The window-map composer packs each t-band
of a term with ``_pack`` from its lowest nonzero t-degree, multiplies pairs of
bands through ``_mul_bigint`` and reads the sums back with ``_unpack``.  The
exact engines keep their state as integral Decimals from step to step, and
their squares go into base-10 slots of one Decimal, squared by libmpdec (the
number-theoretic transform behind the ``decimal`` module) in a context that
traps any rounding.  Packing and reading the slots back are shifts, adds and
truncations by powers of ten, so no step converts between bases.  A
coefficient becomes an int only where it is read, through ``_digits_to_int``,
which splits recursively, stays subquadratic and never depends on
``sys.set_int_max_str_digits``.  The schoolbook convolution is kept as the
independent oracle.
"""

from __future__ import annotations

import decimal
import itertools
import math
from decimal import Decimal

import numpy as np

from .errors import PrecisionError, VerificationError

NEG_INF = float("-inf")
ACTIVE_KERNEL = "numpy"

# Centers per block of the banded square.  A block shares one half-width w,
# so the grouping sets which terms each output sums, and so its bits.  The
# lockstep search holds 4 x _BAND_BLOCK edge indices per block, and a block's
# band 2 x _BAND_BLOCK x (w + 1) floats, whatever K is.
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


def _run_and_defect(f: np.ndarray) -> tuple[int, float]:
    """f's leading run of finite entries and its concavity defect: the run's
    length when f is -inf after it and each second difference along it is at
    most 2**-43 max(f[0], 1) times its largest input (the rounding an engine
    state can show), else -1; and (length - 1) / 2 times the sum of the
    positive second differences."""
    finite = np.isfinite(f)
    run = f.shape[0] if finite.all() else int(finite.argmin())
    if not np.isneginf(f[run:]).all():
        return -1, 0.0
    h = f[:run]
    d2 = np.diff(h, 2)
    up = np.flatnonzero(d2 > 0)
    if not up.size:
        return run, 0.0
    inputs = np.abs(np.stack((h[up], h[up + 1], h[up + 2])))
    if (d2[up] > 2.0**-43 * max(h[0], 1.0) * inputs.max(axis=0)).any():
        return -1, 0.0
    return run, (run - 1) / 2 * float(d2[up].sum())


def _band(x: np.ndarray, start: int, shape: tuple[int, ...], steps: tuple[int, ...]) -> np.ndarray:
    """View of x whose entry [i, j, ...] is x[start + i * steps[0] + j * steps[1] + ...].

    Built with the ndarray constructor, which checks the view against the
    buffer.  numpy's as_strided and sliding_window_view (measured on numpy
    2.4) keep about 5 bytes per call alive, and a long scan makes many views.
    """
    unit = x.itemsize
    strides = [step * unit for step in steps]
    return np.ndarray(shape, x.dtype, buffer=x, offset=start * unit, strides=strides)


def _log_square_banded(h: np.ndarray, n: int, defect: float = 0.0) -> np.ndarray:
    """First n outputs of the log-domain square of a finite run h, concave up
    to ``defect`` (all coefficients above the run are zero).

    Row 2c + p (p = 0 or 1) pairs h[c - d] with h[c + p + d] and peaks at
    d = 0 with top h[c] + h[c + p].  Its centers c go in blocks of
    _BAND_BLOCK, and each block sums d = 0..w for one half-width w: the
    bisection's answer on 0..hi to "every row's first dropped pair, at
    d = w + 1, lies at least cutoff below its top".  All blocks bisect in
    lockstep, one gather and compare over every row per step, each block on
    the same sequence of midpoints as a bisection of its own.
    """
    size = h.shape[0]
    out = np.full(n, NEG_INF)
    rows = min(n, 2 * size - 1)
    if rows <= 0:
        return out
    centers, n_odd = (rows + 1) // 2, rows // 2
    starts = range(0, centers, _BAND_BLOCK)
    blocks = len(starts)
    # a row drops <= n + 1 terms, each <= 2**-cutoff of it once the defect is made up
    cutoff = 53 + math.ceil(math.log2(n + 1)) + (math.ceil(defect) + 1 if defect else 0)
    # hp[pad + i] is h[i], -inf outside the run; the pad covers every index a
    # block's search and band can reach.  hcat holds hp reversed, then hp, so
    # both members of a row's edge pair sit at hcat indices that grow with w.
    pad = _BAND_BLOCK + 4
    length = size + 2 * pad
    hcat = np.full(2 * length, NEG_INF)
    hp = hcat[length:]
    hp[pad : pad + size] = h
    hcat[length - pad - size : length - pad] = h[::-1]
    # tops[p, c] is the top of row 2c + p.  Past the last row it is +inf: such
    # a row passes every edge check and sums to zero.
    tops = np.full((2, blocks * _BAND_BLOCK), np.inf)
    np.multiply(h[:centers], 2.0, out=tops[0, :centers])
    np.add(h[:n_odd], h[1 : n_odd + 1], out=tops[1, :n_odd])
    # Row j of limit and edge lists block j's even rows, then its odd rows.  At
    # half-width w the edge pair of a row is hcat[low + w] and hcat[high + w].
    span = 2 * _BAND_BLOCK
    limit = (tops - cutoff).reshape(2, blocks, _BAND_BLOCK).transpose(1, 0, 2).reshape(blocks, span)
    c = np.arange(blocks * _BAND_BLOCK).reshape(blocks, _BAND_BLOCK)
    low = (length - pad) - c
    high = c + (length + pad + 1)
    edge = np.concatenate((low, low, high, high + 1), axis=1)
    # At w = hi every edge lies outside the run, so every block's check at its
    # hi passes, and hi only ever moves to a midpoint that passed.  A block
    # whose bisection has ended (lo == hi) thus keeps both while the others
    # go on.
    hi = [min(c0 + _BAND_BLOCK, centers, size - c0) - 1 for c0 in starts]
    lo = [0] * blocks
    while lo != hi:
        mid = [(a + b) >> 1 for a, b in zip(lo, hi)]
        pairs = hcat[edge + np.array(mid)[:, None]]
        ok = np.logical_and.reduce(pairs[:, :span] + pairs[:, span:] <= limit, axis=1).tolist()
        lo = [a if k else m + 1 for a, m, k in zip(lo, mid, ok)]
        hi = [m if k else b for b, m, k in zip(hi, mid, ok)]
    sums = np.empty((2, centers))
    for c0, w in zip(starts, hi):
        # terms[p, i, d] pairs h[c0 + i - d] with h[c0 + i + p + d], d = 0..w.
        b = min(_BAND_BLOCK, centers - c0)
        down = _band(hp, pad + c0, (2, b, w + 1), (0, 1, -1))
        terms = down + _band(hp, pad + c0, (2, b, w + 1), (1, 1, 1))
        terms -= tops[:, c0 : c0 + b, None]
        np.add.reduce(np.exp2(terms, out=terms), axis=2, out=sums[:, c0 : c0 + b])
    # Even rows count the pair d = 0 once and every other pair twice.
    out[0 : 2 * centers : 2] = tops[0, :centers] + np.log2(2.0 * sums[0] - 1.0)
    out[1 : 2 * n_odd : 2] = tops[1, :n_odd] + 1.0 + np.log2(sums[1, :n_odd])
    return out


def log_convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Truncated log-domain convolution of two equal-length log2-coefficient arrays.

    A square (``g is f``) takes the banded path, and raises VerificationError
    unless f is concave along one leading finite run up to rounding
    (``_run_and_defect``); two different operands
    take the full kernel.  Raises PrecisionError if any output is +inf, NaN,
    or finite above 2**53 in magnitude.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the raise below
        if g is f:
            run, defect = _run_and_defect(f)
            if run < 0:
                raise VerificationError("log-domain square of an input not concave along one leading run")
            out = _log_square_banded(np.ascontiguousarray(f[:run]), f.shape[0], defect)
        else:
            out = _log_convolve_full(np.ascontiguousarray(f), np.ascontiguousarray(g))
    if not (np.isneginf(out) | (np.abs(out) <= _LOG2_LIMIT)).all():
        raise PrecisionError("log2 a_{n,k} left the log engine's range, |log2 a_{n,k}| <= 2**53")
    return out


# ---------------------------------------------------------------------------
# exact big-integer convolution (Kronecker substitution)
# ---------------------------------------------------------------------------

# Exact decimal arithmetic: a result that would need rounding raises instead.
# Every Decimal operation on coefficients names this context; the caller's
# context (28 digits by default, no rounding traps) is never used.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation],
)
# Leaf of the digit-string to int conversion, below the default int_max_str_digits.
_INT_LEAF_DIGITS = 2000


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


def _digits_to_int(digits: str, pow10: dict[int, int]) -> int:
    """A decimal digit string as an int in subquadratic time, without
    int_max_str_digits: split on digits and recombine with the powers of ten
    cached in ``pow10`` (one dict per conversion of a whole state).
    ``int(Decimal)`` would be one call, but it is quadratic: 48 s against
    1.1 s here at 10**6 digits, 440 s against 7.5 s at 3 * 10**6 (2-CPU VM,
    CPython 3.11).

    For ``size`` digits over the leaf, the split is the largest leaf * 2**j
    below ``size``: both parts stay at most that long, and every split, and so
    every cached power, comes from one short list."""
    size = len(digits)
    if size <= _INT_LEAF_DIGITS:
        return int(digits)
    k = _INT_LEAF_DIGITS << ((size - 1) // _INT_LEAF_DIGITS).bit_length() - 1
    if k not in pow10:
        pow10[k] = 10**k
    return _digits_to_int(digits[:-k], pow10) * pow10[k] + _digits_to_int(digits[-k:], pow10)


def _slot_width(f: list[Decimal], out_len: int) -> int:
    """Base-10 slot width for squaring f, truncated to out_len coefficients.

    Coefficient k < out_len of f**2 sums at most count = min(len(f), out_len)
    products f_i f_j with i + j = k, so it has fewer than max(d_i + d_j) +
    digits(count) digits, d_i being the digits of f_i.  The width is one more,
    and at least the widest d_i so that every f_i fills its own slot.  Slots at
    or above out_len may overflow; carries only move up, so the slots below
    stay exact.  On engine states, whose coefficients grow with i, this is
    about 0.7 of twice the widest d_i."""
    digits = [c.adjusted() + 1 for c in f]  # 1 for a zero coefficient too
    reach = list(itertools.accumulate(digits, max))  # reach[j]: widest of f_0 .. f_j
    count = min(len(f), out_len)
    widest_term = max(
        (digits[i] + reach[min(out_len - 1 - i, len(f) - 1)] for i in range(count)), default=0
    )
    return max(reach[-1], widest_term + len(str(count)) + 1)


def _pack_decimal(f: list[Decimal], width: int) -> Decimal:
    """sum_i f_i * 10**(i * width), joined pairwise level by level: each of
    the log2(len(f)) levels shifts and adds every digit once."""
    shift, add = _EXACT.scaleb, _EXACT.add
    level, span = f, width
    while len(level) > 1:
        pairs = [add(shift(level[i + 1], span), level[i]) for i in range(0, len(level) - 1, 2)]
        level, span = pairs + level[len(pairs) * 2 :], 2 * span
    return level[0]


def _split_decimal(x: Decimal, k: int) -> tuple[Decimal, Decimal]:
    """(x // 10**k, x % 10**k) for an integral x >= 0, without a division."""
    high = _EXACT.scaleb(x, -k).to_integral_value(decimal.ROUND_DOWN, _EXACT)
    return high, _EXACT.subtract(x, _EXACT.scaleb(high, k))


def _unpack_decimal(x: Decimal, width: int, count: int, out: list[Decimal]):
    """Append the lowest ``count`` base-10 slots of x, lowest first, halving
    the slot range at each level; x holds no digit above them."""
    if count == 1:
        out.append(x)
        return
    mid = count // 2
    high, low = _split_decimal(x, mid * width)
    _unpack_decimal(low, width, mid, out)
    _unpack_decimal(high, width, count - mid, out)


def _square_decimal(f: list[Decimal], out_len: int) -> list[Decimal]:
    """First ``out_len`` coefficients of f**2 from one exact Decimal square of
    f packed into base-10 slots, split back into slots by powers of ten."""
    out: list[Decimal] = []
    if out_len == 0:
        return out
    width = _slot_width(f, out_len)
    packed = _pack_decimal(f, width)
    product = _mul_decimal(packed, packed)
    del packed  # each big number goes as soon as it is used: they set peak memory
    _, low = _split_decimal(product, out_len * width)  # only the lowest out_len slots are read
    del product
    _unpack_decimal(low, width, out_len, out)
    return out


def convolve_exact(f: list, g: list, out_len: int) -> list:
    """First ``out_len`` coefficients of the product of two nonnegative polys.

    Int coefficients are packed into binary slots of one CPython int, once
    for a square (``g is f``).  Decimal coefficients (integral, exponent 0)
    are squared in decimal and come back as Decimals; they take no other
    product.
    """
    n, m = len(f), len(g)
    if n == 0 or m == 0:
        return [0] * out_len
    if isinstance(f[0], Decimal):
        if g is not f:
            raise TypeError("Decimal coefficients are only squared (g is f)")
        return _square_decimal(f, out_len)
    bits_f = max(f).bit_length()  # coefficients are nonnegative
    bits_g = bits_f if g is f else max(g).bit_length()
    if bits_f == 0 or bits_g == 0:
        return [0] * out_len
    slot_bytes = (bits_f + bits_g + (min(n, m)).bit_length() + 1 + 7) // 8
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
