"""Coefficient recursions for the face numbers of the recursive polytope family.

Three engines share one stepping interface:

* ``PAPER_EXACT`` — the printed recursion: Product squares the generating
  polynomial, Hull maps F to t*F**2 + 2*F.  This is the normative object
  of the growth analysis.  Its Hull bookkeeping is join-style: each
  summand polytope counts as a face of the hull.
* ``GEOMETRIC_EXACT`` — the free-sum reading of the Hull step, which keeps
  the polynomial equal to the actual face generating function (improper
  top face included while it fits under the truncation bound).
* ``PAPER_LOG`` — float64 log2-domain companion of PAPER_EXACT for large
  instances.

All polynomials are truncated at an explicit ``kmax``.  The exact engines
hold their coefficients as integral Decimals (``DecimalPoly``) from step to
step, the log engine as float64 log2 values (``LogPoly``).  Both types share
one arithmetic, so ``step`` is one formula for the printed recursion on
either, and only the free-sum Hull step has a branch of its own.  Every
exact read (``[k]``, ``log2``, ``face_numbers``, ``proper_f_vector``,
``verify_growth_bounds``) gives ints.  ``trajectory`` is the one driver:
runs and scans step through it, after one saddle-point bound on the widest
coefficient (``widest_log2_bound``, floats from the step formula alone) has
sized the run for every engine.
A read of single coefficients (``log2_face_numbers``: scans and
``log2_face_number``) stops an exact trajectory one state short and takes
the last step's coefficients alone by ``step_coefficient``, which ``step``
serves as oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from decimal import Decimal
from itertools import islice, pairwise
from typing import Iterator, Union

from . import _kernels
from .errors import PrecisionError, UsageError, VerificationError
from .polys import DecimalPoly, LogPoly, convolve_truncated, log2_int, square_coefficient
from .schedule import DensityParam, StepKind, is_product_step

# Engine.for_kmax runs exact up to EXACT_KMAX_CAP.  A run's state may hold
# STATE_BITS_CAP bits: K+1 slots of its widest coefficient's bound, at least 64 bits
# a slot (so K <= 2,097,151).  README gives the timings at a = 1/2: the exact run to
# n=20/K=1024 is predicted at 109.8 Mbit (n=21/K=1448: 257.5), the log run to n=41 at 94.9.
EXACT_KMAX_CAP = 1024
STATE_BITS_CAP = 2**27


class Engine(enum.Enum):
    PAPER_EXACT = "paper"
    GEOMETRIC_EXACT = "geometric"
    PAPER_LOG = "log"

    @classmethod
    def parse(cls, name: str) -> "Engine":
        for e in cls:
            if e.value == name:
                return e
        raise UsageError(f"unknown engine {name!r} (use {'|'.join(e.value for e in cls)})")

    @classmethod
    def for_kmax(cls, kmax: int) -> "Engine":
        """The printed recursion at bound ``kmax``: exact up to EXACT_KMAX_CAP, else log."""
        return cls.PAPER_EXACT if kmax <= EXACT_KMAX_CAP else cls.PAPER_LOG

    @property
    def is_log(self) -> bool:
        return self is Engine.PAPER_LOG


Poly = Union[DecimalPoly, LogPoly]


@dataclass
class RecursionState:
    """Single-writer state: the truncated polynomial after ``n`` steps.

    The ambient dimension is 2**n; coefficient 0 is the vertex count.
    """

    poly: Poly
    n: int
    engine: Engine

    @property
    def kmax(self) -> int:
        return self.poly.kmax


def _check_kmax(kmax: int) -> None:
    if kmax < 1:
        raise UsageError(f"kmax must be >= 1, got {kmax}")


def initial_state(kmax: int, engine: Engine) -> RecursionState:
    """The segment: 2 vertices plus the improper face, i.e. 2 + t."""
    _check_kmax(kmax)
    cls = LogPoly if engine.is_log else DecimalPoly
    poly: Poly = cls.monomial(2, 0, kmax) + cls.monomial(1, 1, kmax)
    return RecursionState(poly=poly, n=0, engine=engine)


def step(state: RecursionState, kind: StepKind) -> RecursionState:
    """Apply one Product (F -> F**2) or Hull (F -> t*F**2 + 2*F) step and
    return the successor state; the free-sum Hull step is ``_geometric_hull``."""
    f = state.poly
    if kind is StepKind.HULL and state.engine is Engine.GEOMETRIC_EXACT:
        new = _geometric_hull(f, state.n)
    else:
        sq = convolve_truncated(f, f)
        new = sq if kind is StepKind.PRODUCT else sq.shift(1) + f.scale(2)
    return RecursionState(poly=new, n=state.n + 1, engine=state.engine)


def _geometric_hull(f: DecimalPoly, n: int) -> DecimalPoly:
    """Free-sum Hull step at dimension d = 2**n.

    While d fits under the truncation bound the polynomial carries the
    improper face t**d, which is not a face of the free sum; the corrected
    update is 2*(F - t^d) + t*(F - t^d)^2 + t^(2d).  Once d exceeds kmax
    all corrections lie above the bound and the printed formula applies.
    """
    kmax, d = f.kmax, 2**n
    f = _without_improper_face(f, d)
    out = convolve_truncated(f, f).shift(1) + f.scale(2)
    if 2 * d <= kmax:
        out = out + DecimalPoly.monomial(1, 2 * d, kmax)
    return out


def _without_improper_face(f: DecimalPoly, d: int) -> DecimalPoly:
    """F - t^d while d fits under the truncation bound, else F."""
    if d > f.kmax:
        return f
    if f.decimals[d] != 1:
        raise VerificationError(
            f"geometric state corrupt: improper coefficient at degree {d} is {f.decimals[d]}"
        )
    return DecimalPoly(f.decimals[:d] + (Decimal(0),) + f.decimals[d + 1 :], f.kmax)


def step_coefficient(state: RecursionState, kind: StepKind, k: int) -> int:
    """Coefficient k of ``step(state, kind).poly`` of an exact engine, from
    coefficients <= k of the state alone: [t^k]F^2 for a Product step,
    [t^(k-1)]F^2 + 2 f_k for a Hull step, and for the free-sum Hull step the
    same on F - t^d plus 1 at k = 2d.  ``step`` is its oracle."""
    f, add = state.poly, _kernels._EXACT.add
    if kind is StepKind.PRODUCT:
        c = square_coefficient(f, k)
    else:
        d = 2**state.n
        geometric = state.engine is Engine.GEOMETRIC_EXACT
        if geometric:
            f = _without_improper_face(f, d)
        c = add(f.decimals[k], f.decimals[k])
        if k:
            c = add(c, square_coefficient(f, k - 1))
        if geometric and k == 2 * d:
            c = add(c, Decimal(1))
    return _kernels._digits_to_int(str(c), {})


def _log2_generating(kinds: list[StepKind], s: float) -> tuple[float, float]:
    """log2 F(r) of the untruncated printed recursion after the steps ``kinds``
    from the segment, at r = 2**s, and the mean degree r F'(r) / F(r), which is
    its derivative in s; (inf, inf) once either leaves the float range."""
    r = 2.0**s
    L, D = math.log2(2.0 + r), r / (2.0 + r)
    for kind in kinds:
        if kind is StepKind.PRODUCT:
            L, D = 2.0 * L, 2.0 * D
        else:
            # log2(t F**2 + 2 F): logaddexp2 of x and y, w the share of t F**2
            x, y = 2.0 * L + s, L + 1.0
            e = 2.0 ** -abs(x - y)
            w = 1.0 / (1.0 + e) if x >= y else e / (1.0 + e)
            L, D = max(x, y) + math.log2(1.0 + e), D + w * (D + 1.0)
        if not (L < math.inf and D < math.inf):
            return math.inf, math.inf
    return L, D


def widest_log2_bound(a: DensityParam, n_max: int, kmax: int, limit: float) -> float:
    """An upper bound on log2 a_{n,k} for every n <= ``n_max`` and k <= ``kmax``
    of every engine's run, from the step formula alone.

    Every coefficient is nonnegative, so a_{n,k} <= F_n(r) r**-K for 0 < r <= 1
    and k <= K (the saddle-point bound; Flajolet & Sedgewick, *Analytic
    Combinatorics*, 2009, VIII.2).  Truncation only lowers coefficients and the
    free-sum engine stays below the printed one coefficientwise, so the
    untruncated printed F_n bounds both exact engines and the log engine's
    values.  F_n(r) >= 2 and a step maps F to F**2 or t F**2 + 2 F, both >= F,
    so the bound at ``n_max`` covers every earlier state.

    Any r gives a bound, so the search stops at the first one <= ``limit``
    and otherwise returns the smallest it saw (inf where every walk leaves the
    float range).  It takes r = 1 first, then minimises the convex
    g(s) = log2 F_n(2**s) - K s, whose derivative is (mean degree - K), by
    bisection on v in s = 1 - 2**v over [0, 1023]: about 60 walks reach every
    float s down to -2**1023, whatever the scale of the minimum.

    Rounding margin.  Let u = 2**-53, L = log2 F_n(r) and D the mean degree. A
    Hull step's roundings (2L + s and L + 1 by u of L', |x - y| by u |x - y| at
    a slope <= 2**-|x - y|, powers of 2 and log2 within 8u, 1 + e by u, the
    final sum by u L') move L' by at most 3u L' + 16u <= 16u (L' + 1); a
    Product step doubles exactly, and log2(2 + r) is within 18u.  A rounding
    made at step j reaches step n scaled by dL_n/dL_j, the mean F_j-degree of
    F_n as a polynomial in F_j, and an undershoot by no more, since L_n is
    convex in L_j.  Each term of that polynomial, t**m 2**h F_j**e, is at most
    F_n, so e L_j <= L_n + m |s|, and the mean of m is at most D: the step adds
    at most 32u (L_n + |s| D).  With the final -K s and sum, L_n - K s is low
    by at most 34u (n + 1)(L_n + |s| max(D, K)).  The margin added is 2**-47
    (that is 64u) times the same, which also covers, to first order in u as in
    ``_kernels``, the rounding of L and D where they enter the margin.  The
    margin is needed: the bound can meet a coefficient near a power of two, and
    at a = 1/2, n = 14, K = 1 the unmargined bound is 508.0 while a_{14,1} =
    2**508 (1 + 2**-40 or less) has 509 bits.
    """
    kinds = [is_product_step(j, a) for j in range(n_max)]

    def bound(s: float) -> tuple[float, float]:
        L, D = _log2_generating(kinds, s)
        if L == math.inf:
            return L, D
        return L - kmax * s + 2.0**-47 * (n_max + 1) * (L + abs(s) * max(D, kmax)), D

    best, D = bound(0.0)
    if D <= kmax:
        return best
    # s = 1 - 2**v covers every float s >= -2**1023 as v runs over [0, 1023];
    # the mean degree is above K at v = lo and falls as v grows
    lo, hi = 0.0, 1023.0
    v = 0.5 * (lo + hi)
    while best > limit and lo < v < hi:
        b, D = bound(1.0 - 2.0**v)
        best = min(best, b)
        if D <= kmax:
            hi = v
        else:
            lo = v
        v = 0.5 * (lo + hi)
    return best


def check_state_bits(bits: int | float, what: str) -> None:
    """Raise UsageError if ``bits`` (an int, or inf past the float range) pass
    STATE_BITS_CAP, with ``what`` (the object and its verb, "... is predicted
    to hold") before the sizes, which are exact at any size."""
    if bits > STATE_BITS_CAP:
        mbit = "inf" if bits == math.inf else f"{Decimal(f'{bits}e-6'):.1f}"
        raise UsageError(
            f"{what} {mbit} Mbit, over the {STATE_BITS_CAP / 1e6:.1f} Mbit allowed "
            f"({bits:,} > {STATE_BITS_CAP:,} bits)"
        )


def _admit(a: DensityParam, n_max: int, kmax: int, engine: Engine):
    """Raise UsageError if the run's state at ``n_max`` is predicted to pass
    STATE_BITS_CAP, or, in the log engine, its range of 2**53.

    One bound sizes every engine (``widest_log2_bound``), and the state at
    ``n_max`` is the largest.  A state holds K+1 slots: 64 bits each in the log
    engine, max(floor(bound) + 1, 64) in an exact one, whose slot is an object
    however few bits it holds, so every engine refuses K > 2,097,151.  A log
    run's size is checked before its range.
    """
    what = f"the {engine.value} engine state at n={n_max}, K={kmax} is predicted to"
    if engine.is_log:
        check_state_bits((kmax + 1) * 64, f"{what} hold")
        bound = widest_log2_bound(a, n_max, kmax, _kernels._LOG2_LIMIT)
        if bound > _kernels._LOG2_LIMIT:
            raise PrecisionError(
                f"{what} leave the log engine's range: log2 a_{{n,k}} up to {bound:.4g}, over 2**53"
            )
    else:
        width = STATE_BITS_CAP // (kmax + 1)  # the widest coefficient admitted, in bits
        bound = widest_log2_bound(a, n_max, kmax, width - 1)
        bits = (kmax + 1) * max(math.floor(bound) + 1, 64) if bound < math.inf else math.inf
        check_state_bits(bits, f"{what} hold")


def trajectory(
    a: DensityParam, n_max: int, kmax: int, engine: Engine
) -> Iterator[RecursionState]:
    """The states after 0, 1, ..., ``n_max`` schedule steps from the segment.

    Coefficient k of every state depends only on coefficients <= k of the
    one before, so the state after n steps agrees up to any k <= ``kmax``
    with a run to n at truncation bound k.

    A run predicted to pass STATE_BITS_CAP, or a log run predicted to leave
    the log engine's range, is refused by this call, before the first state
    is built (``_admit``).
    """
    if n_max < 0:
        raise UsageError(f"step count must be >= 0, got {n_max}")
    _check_kmax(kmax)  # before the size bound, which needs K >= 1
    _admit(a, n_max, kmax, engine)
    return _states(a, n_max, initial_state(kmax, engine))


def _states(a: DensityParam, n_max: int, state: RecursionState) -> Iterator[RecursionState]:
    yield state
    for j in range(n_max):
        state = step(state, is_product_step(j, a))
        yield state


def run(a: DensityParam, n: int, kmax: int, engine: Engine) -> RecursionState:
    """Run ``n`` schedule steps from the segment: the last state of the trajectory."""
    for state in trajectory(a, n, kmax, engine):
        pass
    return state


def face_numbers(a: DensityParam, n: int, kmax: int, engine: Engine):
    """Coefficient vector (a_{n,k})_{k<=kmax} of the requested engine.

    Exact engines return a list of ints; the log engine returns a
    list of log2 floats (-inf encodes a zero coefficient).  The printed
    recursion's boundary conventions match this iteration only for
    k <= 2**h1 (h1 = index of the first Hull step); above that the vector
    is the generating-polynomial iteration, which is what the growth
    analysis actually uses.
    """
    state = run(a, n, kmax, engine)
    if engine.is_log:
        return [float(x) for x in state.poly.log2_coeffs]
    return list(state.poly.to_intpoly().coeffs)


def proper_f_vector(a: DensityParam, n: int) -> list[int]:
    """Proper-face f-vector (f_0 .. f_{d-1}) from the untruncated geometric engine."""
    d = 2**n
    state = run(a, n, max(1, d), Engine.GEOMETRIC_EXACT)
    return list(state.poly.to_intpoly().coeffs[:d])


def log2_face_number(a: DensityParam, n: int, k: int, engine: Engine) -> float:
    """log2 a_{n,k} under the given engine (exact engines converted exactly)."""
    if k < 0:
        raise UsageError(f"face index k must be nonnegative, got {k}")
    return log2_face_numbers(a, trajectory(a, n, max(1, k), engine), [(n, k)])[0]


def log2_face_numbers(a: DensityParam, states: Iterator[RecursionState], points) -> list[float]:
    """log2 a_{n,k} at each (n, k) of ``points`` (n nondecreasing, up to the
    last state of the trajectory ``states`` of density ``a``; 0 <= k <= its K).

    An exact trajectory is read one state short of the last n, whose
    coefficients come from ``step_coefficient``: its whole square is never
    taken.  A log row's bytes depend on the band its block shares, so the log
    engine takes every step.
    """
    state = next(states)
    n_last = points[-1][0]
    built = n_last if state.engine.is_log else n_last - 1
    out = []
    for n, k in points:
        while state.n < min(n, built):
            state = next(states)
        if state.n == n:
            out.append(state.poly.log2(k))
        else:
            out.append(log2_int(step_coefficient(state, is_product_step(state.n, a), k)))
    return out


@dataclass(frozen=True)
class GrowthCheck:
    k: int
    monotone_ok: bool
    upper_ok: bool
    sandwich_ok: bool
    value_base: int
    value_stepped: int
    upper_bound_log2: float


@dataclass(frozen=True)
class GrowthReport:
    n: int
    r: int
    kmax: int
    checks: list[GrowthCheck]


def verify_growth_bounds(a: DensityParam, n: int, r: int, kmax: int) -> GrowthReport:
    """Report-only check of the elementary growth bounds between steps n and n+r.

    Per k: (i) coefficients never decrease along the chain n..n+r;
    (ii) a_{n+r,k} <= k**(2^r) * A_{n,k}**(2^r) with A_{n,k} = max_{j<=k} a_{n,j};
    (iii) the log-form sandwich a_{n,k} <= a_{n+r,k} <= 2^r (log2 k + log2 A_{n,k}).
    The stated upper bounds are genuinely false at k in {0, 1} (the honest
    induction carries (k+1)**(2^r - 1)); they are reported as-is.
    """
    if n < 0 or r < 0:
        raise UsageError(f"n and r must be >= 0, got n={n}, r={r}")
    states = [
        s.poly.to_intpoly() for s in islice(trajectory(a, n + r, kmax, Engine.PAPER_EXACT), n, None)
    ]
    base = states[0]
    final = states[-1]
    checks = []
    running_max = 0
    for k in range(kmax + 1):
        running_max = max(running_max, base[k])
        monotone = all(s[k] <= t[k] for s, t in pairwise(states))
        bound = (k ** (2**r)) * (running_max ** (2**r))
        upper_ok = final[k] <= bound
        if final[k] == 0:
            sandwich_ok = base[k] == 0
        else:
            lhs = log2_int(base[k]) <= log2_int(final[k])
            rhs = log2_int(final[k]) <= 2**r * (
                (log2_int(k) if k else float("-inf")) + log2_int(running_max)
            )
            sandwich_ok = lhs and (rhs if k > 0 else False)
        checks.append(
            GrowthCheck(
                k=k,
                monotone_ok=monotone,
                upper_ok=upper_ok,
                sandwich_ok=sandwich_ok,
                value_base=base[k],
                value_stepped=final[k],
                upper_bound_log2=log2_int(bound) if bound > 0 else float("-inf"),
            )
        )
    return GrowthReport(n=n, r=r, kmax=kmax, checks=checks)
