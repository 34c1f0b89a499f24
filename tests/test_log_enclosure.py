"""The log engine against a directed-rounding enclosure of the printed recursion.

The oracle runs the printed recursion (Product F -> F**2, Hull F -> t*F**2 + 2F,
truncated at t**K) over 40-digit Decimals twice: once rounding every
operation down (ROUND_FLOOR) and once up (ROUND_CEILING).  Every operation is
a sum or a product of nonnegative numbers, so each rounding moves its result
one way only and the two runs bracket every exact a_{n,k}, with no error
analysis of the oracle itself.  The oracle uses no numpy and nothing of the
package: it reads the schedule from a = p/q itself, squares by schoolbook,
and only the log engine under test comes from ``hannerfaces``.
"""

import decimal
import functools
import math
from decimal import Decimal

import pytest

from hannerfaces.recursion import Engine, trajectory
from hannerfaces.schedule import DensityParam

# The bound stated in the _kernels module docstring: after n steps every
# finite log2 coefficient y of the log engine satisfies |y - x| <= n * 170 * 2**-53 * x,
# x = log2 a_{n,k}, and y is -inf exactly where a_{n,k} = 0.
DIGITS = 40
_WIDE = decimal.Context(prec=DIGITS)
STEP_BOUND = _WIDE.multiply(170, _WIDE.power(2, -53))  # exact at 40 digits
# Decimal's ln is correctly rounded to 40 digits, so log2 of a bound is off
# by far less than this relative margin.
LOG_MARGIN = Decimal(10) ** -35


def _context(rounding):
    return decimal.Context(
        prec=DIGITS,
        rounding=rounding,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.Overflow, decimal.InvalidOperation],
    )


def _is_product(j, p, q):
    """Step j is a Product iff [j*a, (j+1)*a) holds an integer, a = p/q."""
    return -(-j * p // q) * q < (j + 1) * p


def _truncated_square(ctx, f, size):
    """f**2 up to t**K in ``ctx``, f's nonzero coefficients being f[:size]:
    each cross pair once, doubled, plus the middle square."""
    kmax = len(f) - 1
    out = []
    for k in range(kmax + 1):
        lo, half = max(0, k - size + 1), (k - 1) // 2
        pairs = map(ctx.multiply, f[lo : half + 1], f[k - half : k - lo + 1][::-1])
        cross = functools.reduce(ctx.add, pairs, Decimal(0))
        total = ctx.add(cross, cross)
        if k % 2 == 0 and k // 2 < size:
            total = ctx.add(total, ctx.multiply(f[k // 2], f[k // 2]))
        out.append(total)
    return out


def enclosure(p, q, n_max, kmax, rounding):
    """The states after 0..n_max steps of the printed recursion at a = p/q from
    the segment 2 + t, truncated at t**kmax, every operation rounded by ``rounding``.

    Every operation names its context, so the run never reads or sets the
    thread's decimal context, and runs interleaved by ``zip`` stay apart."""
    ctx = _context(rounding)
    f = [Decimal(2), Decimal(1)] + [Decimal(0)] * (kmax - 1)
    size = 2  # f[size:] are zero
    yield f
    for j in range(n_max):
        sq = _truncated_square(ctx, f, size)
        if _is_product(j, p, q):
            f, size = sq, min(kmax + 1, 2 * size - 1)
        else:
            f = [ctx.add(f[0], f[0])] + [ctx.add(s, ctx.add(c, c)) for s, c in zip(sq, f[1:])]
            size = min(kmax + 1, 2 * size)
        yield f


@pytest.mark.parametrize(("p", "q", "n_max", "kmax"), [(1, 2, 44, 256), (1, 3, 44, 256), (1, 2, 20, 1024)])
def test_log_engine_within_the_stated_bound_of_the_enclosure(p, q, n_max, kmax):
    """Every log-engine coefficient of the run lies within the stated bound of
    the enclosure, and is -inf exactly where both bounds are 0."""
    states = trajectory(DensityParam.rational(p, q), n_max, kmax, Engine.PAPER_LOG)
    lows = enclosure(p, q, n_max, kmax, decimal.ROUND_FLOOR)
    highs = enclosure(p, q, n_max, kmax, decimal.ROUND_CEILING)
    apart = 0  # coefficients whose two bounds differ: the roundings really went two ways
    # The checks' own arithmetic runs at 40 digits; neither the engine nor the
    # enclosure reads this context.
    with decimal.localcontext(_context(decimal.ROUND_HALF_EVEN)):
        ln2 = Decimal(2).ln()
        for n, (state, lo_f, hi_f) in enumerate(zip(states, lows, highs)):
            assert state.n == n
            rho = n * STEP_BOUND
            for k, (y, lo, hi) in enumerate(zip(state.poly.log2_coeffs.tolist(), lo_f, hi_f)):
                where = f"a={p}/{q}, n={n}, k={k}"
                assert (lo == 0) == (hi == 0), where
                assert (y == -math.inf) == (hi == 0), where
                if hi == 0:
                    continue
                assert lo <= hi and hi - lo <= hi * Decimal(10) ** -30, where  # the bracket is tight
                apart += lo < hi
                x_lo, x_hi = lo.ln() / ln2, hi.ln() / ln2
                got = Decimal(y)  # exact
                floor = x_lo * (1 - rho) * (1 - LOG_MARGIN)
                ceiling = x_hi * (1 + rho) * (1 + LOG_MARGIN)
                assert floor <= got <= ceiling, (where, y, x_lo, x_hi)
    assert apart > 0


def test_oracle_schedule_and_small_values():
    # a = 1/2 steps P, H, P, H, ...; from 2 + t: P gives 4 + 4t + t^2, H gives
    # t(4 + 4t)^2 + 2(4 + 4t + t^2) truncated at t^2 = 8 + 24t + 34t^2.
    assert [_is_product(j, 1, 2) for j in range(4)] == [True, False, True, False]
    assert [_is_product(j, 1, 3) for j in range(6)] == [True, False, False, True, False, False]
    for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
        states = list(enclosure(1, 2, 2, 2, rounding))
        assert states == [[2, 1, 0], [4, 4, 1], [8, 24, 34]]


def test_interleaved_runs_round_their_own_way():
    # zip steps the two runs in turn; each must still round its own way, and
    # the thread's decimal context must come out as it went in.
    before = decimal.getcontext().copy()
    lows = list(enclosure(1, 2, 20, 8, decimal.ROUND_FLOOR))
    highs = list(enclosure(1, 2, 20, 8, decimal.ROUND_CEILING))
    both = list(zip(enclosure(1, 2, 20, 8, decimal.ROUND_FLOOR), enclosure(1, 2, 20, 8, decimal.ROUND_CEILING)))
    assert both == list(zip(lows, highs))
    assert any(lo < hi for lo, hi in zip(lows[-1], highs[-1]))
    after = decimal.getcontext()
    assert (after.prec, after.rounding) == (before.prec, before.rounding)
