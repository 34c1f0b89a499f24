"""Weighted ordered trees behind the window recursion.

The coefficient polynomial after m aligned windows equals a sum over
ordered rooted trees of uniform height m whose internal degrees come
from the window map's support:

    H_m(t) = sum_T W(T) * (2+t)^L(T),
    W(T) = prod over internal v of C_deg(v)(t),

where the weight factor of a vertex at height j comes from window m-1-j
(all windows coincide in the aligned rational case, which is the setting
of the bound constructions).  Trees are nested tuples; a leaf is ().

W(T) and L(T) depend on T only through its (height, degree) histogram.  The
tree sum composes the histograms level by level, in the order
``enumerate_trees`` yields the trees, without building or walking a tree, and
weighs each distinct histogram once.  The weights share one table of factor
powers C_deg^count per call, keyed by (height, degree, count), and the
classes of one leaf count L are summed, count times W, before the one product
with (2+t)^L.  ``enumerate_trees`` stays as the independent oracle.  A family
over the enumeration budget is refused from its count, read from its windows'
x-degree supports before any window map is composed.

The lower-bound certificate reads the explicit tree T_m through the closed
form of its histogram alone, and the one coefficient of W(T_m) it needs in
closed form too; neither T_m nor W(T_m) is built.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain, product
from typing import Callable, Iterator, Sequence

from .errors import BudgetExceededError, UsageError, VerificationError
from .phimap import PhiMap, compose_window, tfree_and_top, window_support
from .polys import IntPoly, convolve_truncated, power_truncated
from .recursion import Engine, run
from .schedule import DensityParam, window_profile

Tree = tuple  # recursive: Tree = tuple[Tree, ...]
Histogram = dict[tuple[int, int], int]  # (height, degree) -> internal vertex count

DEFAULT_BUDGET = 10**6


def _normalize_supports(m: int, supports) -> list[list[int]]:
    if m == 0:
        return []
    if supports and isinstance(next(iter(supports)), int):
        per_level = [sorted(supports)] * m
    else:
        per_level = [sorted(s) for s in supports]
    if len(per_level) != m:
        raise UsageError(f"need {m} per-level degree sets, got {len(per_level)}")
    if not all(per_level) or any(d < 1 for level in per_level for d in level):
        raise UsageError("every height needs a nonempty set of positive degrees")
    return per_level


def _count(per_level: list[list[int]], budget: int | None = None) -> int:
    """Tree count from the bottom level up, raising BudgetExceededError at the first
    level over ``budget`` (every level has degrees, all >= 1, so none outnumbers the
    one above it)."""
    c = 1
    for level in reversed(per_level):
        c = sum(c**k for k in level)
        if budget is not None and c > budget:
            raise BudgetExceededError(budget, c)
    return c


def _check_budget(budget: int):
    if budget < 1:
        raise UsageError(f"budget must be >= 1, got {budget}")


def _admit(m: int, supports, budget: int) -> list[list[int]]:
    """The per-level degree sets of a family of at most ``budget`` trees;
    raises BudgetExceededError, from the count, for a larger one."""
    _check_budget(budget)
    if m < 0:
        raise UsageError("height must be >= 0")
    per_level = _normalize_supports(m, supports)
    _count(per_level, budget)
    return per_level


def enumerate_trees(m: int, supports, budget: int = DEFAULT_BUDGET) -> Iterator[Tree]:
    """Duplicate-free stream of all uniform-height-m trees with internal
    degrees drawn from ``supports`` (one set, or one per height, root first).

    Enumeration is exponential by design; a family of more than ``budget``
    trees raises BudgetExceededError here, before any tree is built.  Only
    the root level is streamed; each degree k takes the k-fold product of
    the level below, in lexicographic order.
    """
    per_level = _admit(m, supports, budget)
    trees: Iterator[Tree] = iter([()])
    for degrees in reversed(per_level):
        subtrees = tuple(trees)  # the level below, listed once
        trees = chain(*(product(subtrees, repeat=k) for k in degrees))
    return trees


def histogram_codes(per_level: list[list[int]]) -> tuple[list[int], Callable[[int], Histogram]]:
    """Each tree's degree histogram packed into one int, in the order
    ``enumerate_trees`` yields the trees, and the function that unpacks a
    code; no tree is built.

    Slot (h, i) of a code, ``width`` bits wide, counts the internal vertices at
    height h whose degree is the i-th of all degrees in ``per_level``; no
    height holds more than ``2**width - 1`` vertices, so slots never carry
    into each other.  Levels are composed from the bottom up: the trees whose
    root sits at height h with degree k are the k-fold product of the level
    below, and each one's code is its root's slot plus its subtrees' codes.
    """
    degrees = sorted(set().union(*per_level))
    width = math.prod(max(level) for level in per_level[:-1]).bit_length()
    codes = [0]  # the leaf: no internal vertex
    for h in reversed(range(len(per_level))):
        below, codes = codes, []
        for k in per_level[h]:
            root = 1 << width * (h * len(degrees) + degrees.index(k))
            codes.extend(map(partial(sum, start=root), product(below, repeat=k)))

    def unpack(code: int) -> Histogram:
        hist: Histogram = {}
        for h in range(len(per_level)):
            for i, deg in enumerate(degrees):
                count = code >> width * (h * len(degrees) + i) & ((1 << width) - 1)
                if count:
                    hist[(h, deg)] = count
        return hist

    return codes, unpack


def histogram_leaves(hist: Histogram) -> int:
    """L(T): the root is one leaf, and each internal vertex of degree d adds d - 1."""
    return 1 + sum((deg - 1) * count for (_, deg), count in hist.items())


def tree_weight(
    hist: Histogram,
    phis_by_height: Sequence[PhiMap],
    t_trunc: int,
    powers: dict[tuple[int, int, int], IntPoly] | None = None,
) -> IntPoly:
    """W(T) = product of C_deg(v) over internal vertices, truncated, from the
    tree's degree histogram; a vertex at height h takes its factor from
    ``phis_by_height[h]`` (the root is height 0).

    ``powers`` maps (height, degree, count) to C_deg^count; a power missing
    from it is built and added, so calls that share one table, over the same
    ``phis_by_height`` and ``t_trunc``, build each power once."""
    if powers is None:
        powers = {}
    out = None
    for (h, deg), count in sorted(hist.items()):
        if h >= len(phis_by_height):
            raise UsageError(f"tree has internal vertex at height {h} beyond the window stack")
        phi = phis_by_height[h]
        if deg not in phi.terms:
            raise UsageError(f"degree {deg} at height {h} outside the window support {phi.support}")
        key = (h, deg, count)
        if key not in powers:
            powers[key] = power_truncated(phi.term_poly(deg, t_trunc), count)
        out = powers[key] if out is None else convolve_truncated(out, powers[key])
    return IntPoly.one(t_trunc) if out is None else out


# ---------------------------------------------------------------------------
# the tree representation identity and the coefficient formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeSumResult:
    total: IntPoly
    engine_poly: IntPoly
    # per tree, in enumeration order: the (histogram, W) record its class shares
    tree_classes: list[tuple[Histogram, IntPoly]]

    @property
    def n_trees(self) -> int:
        return len(self.tree_classes)

    @property
    def match(self) -> bool:
        return self.total == self.engine_poly


def tree_sum_check(
    a: DensityParam, Q: int, m: int, kmax: int, budget: int = DEFAULT_BUDGET
) -> TreeSumResult:
    """Evaluate sum_T W(T)*(2+t)^L(T) over every tree of the m aligned windows
    of length Q and compare it, exactly, with the stepwise recursion run over
    the same windows; also cross-check the coefficient formula a_{Qm,k} =
    sum_{j<=k} sum_T [t^j]W(T) * C(L(T), k-j) * 2^(L(T)-(k-j)).  Any mismatch
    raises.

    An over-budget family is refused from its count, taken from the windows'
    supports (``window_support``) before any window map is composed; then the
    recursion runs, so a kmax it refuses is refused before any window map is
    composed, and each distinct window word is composed once, all before any
    histogram is composed.
    W(T) and L(T) depend only on the tree's (height, degree) histogram, which
    ``histogram_codes`` composes level by level without building the tree;
    each distinct histogram is weighed once, from factor powers built once per
    call, and the weights of one leaf count L are summed, each times its class
    size, before the one product with (2+t)^L; the coefficient formula reads
    the same per-L sums.
    """
    _check_budget(budget)
    words = [window_profile(a, Q, j).word for j in reversed(range(m))]  # the root takes the last window
    per_level = _admit(m, list(map(window_support, words)), budget)
    engine_poly = run(a, Q * m, kmax, Engine.PAPER_EXACT).poly.to_intpoly()
    phis = {word: compose_window(word) for word in dict.fromkeys(words)}  # each distinct word once
    by_height = [phis[word] for word in words]
    codes, unpack = histogram_codes(per_level)
    powers: dict[tuple[int, int, int], IntPoly] = {}
    classes: dict[int, tuple[Histogram, IntPoly]] = {}
    by_leaves: dict[int, IntPoly] = {}  # L -> sum of count * W over its classes
    for code, count in Counter(codes).items():
        hist = unpack(code)
        w = tree_weight(hist, by_height, kmax, powers)
        classes[code] = (hist, w)
        L = histogram_leaves(hist)
        by_leaves[L] = by_leaves.get(L, IntPoly.zero(kmax)) + w.scale(count)
    tree_classes = list(map(classes.__getitem__, codes))
    seg = IntPoly.from_coeffs([2, 1], kmax)
    total = IntPoly.zero(kmax)
    coeff_sums = [0] * (kmax + 1)
    for L, w in by_leaves.items():
        total = total + convolve_truncated(w, power_truncated(seg, L))
        # the nonzero terms only: w_j != 0 and 0 <= k - j <= L
        for j, wj in enumerate(w.coeffs):
            if wj:
                for k in range(j, min(kmax, j + L) + 1):
                    coeff_sums[k] += wj * math.comb(L, k - j) * 2 ** (L - (k - j))
    for k in range(kmax + 1):
        for name, got in (("tree sum", total[k]), ("coefficient formula", coeff_sums[k])):
            if got != engine_poly[k]:
                raise VerificationError(
                    f"{name} differs from recursion first at k={k}: "
                    f"{got} != {engine_poly[k]} (a={a}, Q={Q}, m={m})"
                )
    return TreeSumResult(total=total, engine_poly=engine_poly, tree_classes=tree_classes)


# ---------------------------------------------------------------------------
# the explicit lower-bound tree T_m and its certificate
# ---------------------------------------------------------------------------

def _lower_bound_shape(Q: int, lam: int, m: int, k: int) -> tuple[int, int]:
    """(h, jstar) of T_m: full 2^Q-ary levels up to height h-1, then full
    2^p-ary subtrees down to height m.

    h = floor(log_{2^Q}(k / (2*lam))); requires k >= 2*lam and m > h.
    jstar = lam * (2^Q)^h.
    """
    if lam < 1:
        raise UsageError("lambda must be a positive integer (the word must contain an R)")
    if k < 2 * lam:
        raise UsageError(f"need k >= 2*lambda, got k={k} < {2 * lam}")
    top = 2**Q
    h = 0
    while top ** (h + 1) * 2 * lam <= k:
        h += 1
    if m <= h:
        raise UsageError(
            f"need tree height m > h = floor(log_(2^Q)(k/2lam)) = {h}, got m={m}"
        )
    return h, lam * top**h


def check_windows(m: int) -> None:
    if m < 1:
        raise UsageError(f"the lower-bound tree needs m >= 1 windows, got m={m}")


def lower_bound_histogram(Q: int, p: int, h: int, m: int) -> Histogram:
    """The (height, degree) histogram of the lower-bound tree, in closed form:
    2^(Qj) vertices of degree 2^Q at each height j < h, then 2^(Qh + p(j-h))
    of degree 2^p."""
    hist = {(j, 2**Q): 2 ** (Q * j) for j in range(h)}
    hist.update({(j, 2**p): 2 ** (Q * h + p * (j - h)) for j in range(h, m)})
    return hist


@dataclass(frozen=True)
class LowerBoundCertificate:
    Q: int
    p: int
    lam: int
    m: int
    k: int
    h: int
    jstar: int
    jweight: int  # actual t-degree of W(T_m); the construction's jstar overshoots it
    leaves: int
    qcount: int  # the top vertices, of degree 2^Q
    typical: int  # the vertices of degree 2^p
    A: int  # C_(2^p)(0) >= 1, so [t^jweight] W(T_m) = A**typical >= 1
    bound_log2: int  # the certified bound is 2^(L - k)
    certified: bool  # 0 <= k - jweight <= L; the other conditions raise when unmet
    leaves_exceed_2k: bool  # L > 2k at this m (report-only precondition)


def lower_bound_certificate(a: DensityParam, Q: int, m: int, k: int) -> LowerBoundCertificate:
    """Certify a_{Qm,k} >= 2^(L(T_m) - k) through the coefficient formula.

    T_m enters only through its (height, degree) histogram, in closed form
    from its shape (h, jstar); the tree itself is never built or walked.
    The certificate takes the term j = jweight of the formula.  Below height
    h every vertex has degree 2^Q, and ``tfree_and_top`` asserts C_(2^Q) =
    t^lam exactly; from h on every vertex has degree 2^p, with C_(2^p)(0) =
    A >= 1 (p < Q, since lam >= 1).  So W(T_m) = t^jweight * C_(2^p)^typical,
    its coefficient at t^jweight is A^typical >= 1, held as (A, typical) and
    never multiplied out, and the binomial factor is >= 1 whenever
    k - jweight <= L.  (The construction's jstar = lam*(2^Q)^h, which is
    also reported, overcounts the top-degree vertices; the weight's true
    t-degree uses their exact count.)  The construction's two conditions,
    Q(T_m) <= k and 2*jstar <= k, are checked here.
    """
    check_windows(m)
    words = {window_profile(a, Q, j).word for j in range(m)}
    if len(words) != 1:
        raise UsageError(
            f"lower-bound construction needs identical window words; a={a}, Q={Q} gives {len(words)}"
        )
    A, p, _, lam = tfree_and_top(compose_window(next(iter(words))))
    h, jstar = _lower_bound_shape(Q, lam, m, k)
    hist = lower_bound_histogram(Q, p, h, m)
    qcount = sum(c for (j, _), c in hist.items() if j < h)
    if qcount > k:
        raise VerificationError(f"Q(T_m) = {qcount} > k = {k}")
    if 2 * jstar > k:
        raise VerificationError(f"jstar = {jstar} > k/2 = {k / 2}")
    jweight = lam * qcount
    L = histogram_leaves(hist)
    return LowerBoundCertificate(
        Q=Q,
        p=p,
        lam=lam,
        m=m,
        k=k,
        h=h,
        jstar=jstar,
        jweight=jweight,
        leaves=L,
        qcount=qcount,
        typical=sum(hist.values()) - qcount,
        A=A,
        bound_log2=L - k,
        certified=0 <= k - jweight <= L,
        leaves_exceed_2k=L > 2 * k,
    )
