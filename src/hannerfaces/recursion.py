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

All polynomials are truncated at an explicit ``kmax``; coefficients of the
exact engines are exact big integers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import islice, pairwise
from typing import Iterator, Union

from .errors import UsageError, VerificationError
from .polys import (
    IntPoly,
    LogPoly,
    convolve_truncated,
    log2_int,
    log_convolve_truncated,
)
from .schedule import DensityParam, StepKind, is_product_step

# Largest truncation bound per engine.  Measured at a = 1/2 on a 2-CPU Xeon
# VM: an exact run takes 27 s to n=18/K=512 and 404 s to n=20/K=1024 (99% in
# the big-integer multiply); a log scan to n=26/K=8192 takes 0.6 s.
EXACT_KMAX_CAP = 1024
LOG_KMAX_CAP = 8192


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


Poly = Union[IntPoly, LogPoly]


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
    seg = IntPoly.from_coeffs([2, 1], kmax)
    poly: Poly = seg.to_log() if engine.is_log else seg
    return RecursionState(poly=poly, n=0, engine=engine)


def step(state: RecursionState, kind: StepKind) -> RecursionState:
    """Apply one Product or Hull step and return the successor state."""
    f = state.poly
    if state.engine is Engine.PAPER_LOG:
        sq = log_convolve_truncated(f, f)
        if kind is StepKind.PRODUCT:
            new = sq
        else:
            new = sq.shift(1).addexp(f, 1.0)  # t*F^2 + 2F
    else:
        sq = convolve_truncated(f, f)
        if kind is StepKind.PRODUCT:
            new = sq
        elif state.engine is Engine.PAPER_EXACT:
            new = sq.shift(1) + f.scale(2)
        else:
            new = _geometric_hull(f, state.n)
    return RecursionState(poly=new, n=state.n + 1, engine=state.engine)


def _geometric_hull(f: IntPoly, n: int) -> IntPoly:
    """Free-sum Hull step at dimension d = 2**n.

    While d fits under the truncation bound the polynomial carries the
    improper face t**d, which is not a face of the free sum; the corrected
    update is 2*(F - t^d) + t*(F - t^d)^2 + t^(2d).  Once d exceeds kmax
    all corrections lie above the bound and the printed formula applies.
    """
    kmax = f.kmax
    d = 2**n
    if d > kmax:
        return convolve_truncated(f, f).shift(1) + f.scale(2)
    g_coeffs = list(f.coeffs)
    if g_coeffs[d] != 1:
        raise VerificationError(
            f"geometric state corrupt: improper coefficient at degree {d} is {g_coeffs[d]}"
        )
    g_coeffs[d] = 0
    g = IntPoly(tuple(g_coeffs), kmax)
    out = convolve_truncated(g, g).shift(1) + g.scale(2)
    if 2 * d <= kmax:
        out = out + IntPoly.monomial(1, 2 * d, kmax)
    return out


def trajectory(
    a: DensityParam, n_max: int, kmax: int, engine: Engine
) -> Iterator[RecursionState]:
    """The states after 0, 1, ..., ``n_max`` schedule steps from the segment.

    Coefficient k of every state depends only on coefficients <= k of the
    one before, so the state after n steps agrees up to any k <= ``kmax``
    with a run to n at truncation bound k.
    """
    if n_max < 0:
        raise UsageError(f"step count must be >= 0, got {n_max}")
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

    Exact engines return a list of big integers; the log engine returns a
    list of log2 floats (-inf encodes a zero coefficient).  The printed
    recursion's boundary conventions match this iteration only for
    k <= 2**h1 (h1 = index of the first Hull step); above that the vector
    is the generating-polynomial iteration, which is what the growth
    analysis actually uses.
    """
    state = run(a, n, kmax, engine)
    if engine.is_log:
        return [float(x) for x in state.poly.log2_coeffs]
    return list(state.poly.coeffs)


def proper_f_vector(a: DensityParam, n: int) -> list[int]:
    """Proper-face f-vector (f_0 .. f_{d-1}) from the untruncated geometric engine."""
    d = 2**n
    state = run(a, n, max(1, d), Engine.GEOMETRIC_EXACT)
    return list(state.poly.coeffs[:d])


def log2_face_number(a: DensityParam, n: int, k: int, engine: Engine) -> float:
    """log2 a_{n,k} under the given engine (exact engines converted exactly)."""
    return run(a, n, max(1, k), engine).poly.log2(k)


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

    @property
    def all_ok(self) -> bool:
        return all(c.monotone_ok and c.upper_ok and c.sandwich_ok for c in self.checks)


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
    states = list(islice(trajectory(a, n + r, kmax, Engine.PAPER_EXACT), n, None))
    base = states[0].poly
    final = states[-1].poly
    checks = []
    running_max = 0
    for k in range(kmax + 1):
        running_max = max(running_max, base[k])
        monotone = all(s.poly[k] <= t.poly[k] for s, t in pairwise(states))
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
