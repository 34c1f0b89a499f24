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
integer (Kronecker substitution) and multiplies once, in CPython integers;
a schoolbook reference implementation is kept as the independent oracle.
"""

from __future__ import annotations

import math

import numpy as np

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
    everything else takes the full kernel.  Raises OverflowError if any
    output is +inf, NaN, or finite above 2**53 in magnitude.
    """
    run = _concave_run(f) if g is f else -1
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the raise below
        if run >= 0:
            out = _log_square_banded(np.ascontiguousarray(f[:run]), f.shape[0])
        else:
            out = _log_convolve_full(np.ascontiguousarray(f), np.ascontiguousarray(g))
    if not (np.isneginf(out) | (np.abs(out) <= _LOG2_LIMIT)).all():
        raise OverflowError("log-domain convolution left the representable exponent range")
    return out


# ---------------------------------------------------------------------------
# exact big-integer convolution (Kronecker substitution)
# ---------------------------------------------------------------------------

def _mul_bigint(x: int, y: int) -> int:
    """The big multiply, a function of its own so perfbench/spans.py can time it."""
    return x * y


def _pack(coeffs: list[int], slot_bytes: int) -> int:
    buf = bytearray(len(coeffs) * slot_bytes)
    for i, c in enumerate(coeffs):
        buf[i * slot_bytes : i * slot_bytes + (c.bit_length() + 7) // 8] = c.to_bytes(
            (c.bit_length() + 7) // 8, "little"
        )
    return int.from_bytes(buf, "little")


def _unpack(packed: int, slot_bytes: int, count: int) -> list[int]:
    raw = packed.to_bytes(max(1, (packed.bit_length() + 7) // 8), "little")
    raw = raw.ljust(count * slot_bytes, b"\0")
    return [
        int.from_bytes(raw[i * slot_bytes : (i + 1) * slot_bytes], "little")
        for i in range(count)
    ]


def convolve_exact(f: list[int], g: list[int], out_len: int) -> list[int]:
    """First ``out_len`` coefficients of the product of two nonnegative-int polys."""
    n, m = len(f), len(g)
    if n == 0 or m == 0:
        return [0] * out_len
    bits_f = max((c.bit_length() for c in f), default=0)
    bits_g = max((c.bit_length() for c in g), default=0)
    if bits_f == 0 or bits_g == 0:
        return [0] * out_len
    slot_bits = bits_f + bits_g + (min(n, m)).bit_length() + 1
    slot_bytes = (slot_bits + 7) // 8
    prod = _mul_bigint(_pack(f, slot_bytes), _pack(g, slot_bytes))
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
