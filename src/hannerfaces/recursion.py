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
runs, scans and the log pass that sizes an exact run all step through it.
A read of single coefficients (``log2_face_numbers``: scans and
``log2_face_number``) stops an exact trajectory one state short and takes
the last step's coefficients alone by ``step_coefficient``, which ``step``
serves as oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from decimal import Decimal
from itertools import islice, pairwise
from typing import Iterator, Union

from . import _kernels
from .errors import UsageError, VerificationError
from .polys import DecimalPoly, LogPoly, convolve_truncated, log2_int, square_coefficient
from .schedule import DensityParam, StepKind, is_product_step

# Engine.for_kmax runs exact up to EXACT_KMAX_CAP.  A run's state may hold
# STATE_BITS_CAP bits: K+1 slots of its widest coefficient, 64 bits a slot in the
# log engine (so K <= 2,097,151).  README gives the timings at a = 1/2: the exact
# run to n=20/K=1024 holds 109.8 Mbit (n=21/K=1448: 257.5), the log run to n=41 94.9.
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
        raise UsageError(f"unknown engine {name!r} (use paper|geometric|log)")

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


def initial_state(kmax: int, engine: Engine) -> RecursionState:
    """The segment: 2 vertices plus the improper face, i.e. 2 + t."""
    if kmax < 1:
        raise UsageError(f"kmax must be >= 1, got {kmax}")
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


def _widest_log2(a: DensityParam, n_max: int, kmax: int) -> list[float]:
    """log2 of the widest coefficient of the printed recursion at (a, kmax)
    after 0, 1, ... steps, from one log trajectory to ``n_max``; it bounds both
    exact engines coefficientwise.  The pass stops after the first state over
    STATE_BITS_CAP, whose run ``trajectory`` refuses."""
    out = []
    for state in trajectory(a, n_max, kmax, Engine.PAPER_LOG):
        out.append(float(state.poly.log2_coeffs.max()))
        if (kmax + 1) * (int(out[-1]) + 1) > STATE_BITS_CAP:
            break
    return out


def check_state_bits(bits: int, what: str) -> None:
    """Raise UsageError if ``bits`` pass STATE_BITS_CAP, with ``what`` (the
    object and its verb, "... is predicted to hold") before the sizes."""
    if bits > STATE_BITS_CAP:
        raise UsageError(
            f"{what} {bits / 1e6:.1f} Mbit, over the {STATE_BITS_CAP / 1e6:.1f} Mbit allowed "
            f"({bits:,} > {STATE_BITS_CAP:,} bits)"
        )


def _admit(a: DensityParam, n_max: int, kmax: int, engine: Engine):
    """Raise UsageError if a state of the run is predicted to pass STATE_BITS_CAP.

    A log state holds 64 bits a slot.  An exact coefficient after n steps is
    below 4**(2**n): F_0(1) = 3, and a step maps F(1) to at most F(1)**2 +
    2 F(1) < (F(1) + 1)**2 (the free-sum engine stays below the printed one
    coefficientwise).  So an exact run to n with (K+1) * 2**(n+1) bits under
    the cap is admitted as it stands; past that bound a log pass, which bounds
    both exact engines coefficientwise, sizes each state.
    """
    if engine.is_log:
        widths = [(n_max, 64)]
    else:
        check_state_bits(
            (kmax + 1) * 64,
            f"the {engine.value} engine run to n={n_max}, K={kmax} cannot be sized: "
            "its log pass would hold",
        )
        # the shift only while it can come out under the cap
        if n_max < STATE_BITS_CAP.bit_length() and (kmax + 1) << (n_max + 1) <= STATE_BITS_CAP:
            return
        widths = enumerate(int(x) + 1 for x in _widest_log2(a, n_max, kmax))
    for n, width in widths:
        check_state_bits(
            (kmax + 1) * width,
            f"the {engine.value} engine state at n={n}, K={kmax} is predicted to hold",
        )


def trajectory(
    a: DensityParam, n_max: int, kmax: int, engine: Engine
) -> Iterator[RecursionState]:
    """The states after 0, 1, ..., ``n_max`` schedule steps from the segment.

    Coefficient k of every state depends only on coefficients <= k of the
    one before, so the state after n steps agrees up to any k <= ``kmax``
    with a run to n at truncation bound k.

    A run predicted to pass STATE_BITS_CAP is refused before the first step
    (``_admit``).
    """
    if n_max < 0:
        raise UsageError(f"step count must be >= 0, got {n_max}")
    _admit(a, n_max, kmax, engine)
    state = initial_state(kmax, engine)
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
    return log2_face_numbers(a, [(n, k)], engine)[0]


def log2_face_numbers(a: DensityParam, points, engine: Engine) -> list[float]:
    """log2 a_{n,k} at each (n, k) of ``points`` (n nondecreasing, k >= 0), from
    one trajectory to the last n at the largest k, admitted at that n.

    An exact trajectory stops one state short of the last n, whose
    coefficients come from ``step_coefficient``: its whole square is never
    taken.  A log row's bytes depend on the band its block shares, so the log
    engine takes every step.
    """
    n_last = points[-1][0]
    built = n_last if engine.is_log else n_last - 1
    states = trajectory(a, n_last, max(1, max(k for _, k in points)), engine)
    state = next(states)
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
