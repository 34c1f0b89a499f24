"""Weighted ordered trees behind the window recursion.

The coefficient polynomial after m aligned windows equals a sum over
ordered rooted trees of uniform height m whose internal degrees come
from the window map's support:

    H_m(t) = sum_T W(T) * (2+t)^L(T),
    W(T) = prod over internal v of C_deg(v)(t),

where the weight factor of a vertex at height j comes from window m-1-j
(all windows coincide in the aligned rational case, which is the setting
of the bound constructions).  Trees are nested tuples; a leaf is ().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, UsageError, VerificationError
from .phimap import PhiMap, compose_window, tfree_and_top, window_phis
from .polys import IntPoly, convolve_truncated, power_truncated
from .recursion import Engine, log2_face_number, run
from .schedule import DensityParam, window_profile

Tree = tuple  # recursive: Tree = tuple[Tree, ...]

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
    if any(d < 1 for level in per_level for d in level):
        raise UsageError("internal degrees must be positive")
    return per_level


def count_trees(m: int, supports) -> int:
    """|T_m^K| without enumeration."""
    per_level = _normalize_supports(m, supports)
    c = 1
    for level in reversed(per_level):
        c = sum(c**k for k in level)
    return c


def enumerate_trees(m: int, supports, budget: int = DEFAULT_BUDGET) -> Iterator[Tree]:
    """Duplicate-free stream of all uniform-height-m trees with internal
    degrees drawn from ``supports`` (one set, or one per height, root first).

    Enumeration is exponential by design; the stream raises
    BudgetExceededError as soon as it would exceed ``budget`` trees.
    """
    if m < 0:
        raise UsageError("height must be >= 0")
    per_level = _normalize_supports(m, supports)

    def gen(level: int) -> Iterator[Tree]:
        if level == m:
            yield ()
            return
        for k in per_level[level]:
            yield from forest(level + 1, k)

    def forest(level: int, count: int) -> Iterator[Tree]:
        if count == 0:
            yield ()
            return
        for first in gen(level):
            for rest in forest(level, count - 1):
                yield (first,) + rest

    def guarded() -> Iterator[Tree]:
        produced = 0
        for t in gen(0):
            produced += 1
            if produced > budget:
                raise BudgetExceededError(budget, budget)
            yield t

    return guarded()


def leaf_count(tree: Tree) -> int:
    if not tree:
        return 1
    return sum(leaf_count(c) for c in tree)


def internal_count(tree: Tree) -> int:
    if not tree:
        return 0
    return 1 + sum(internal_count(c) for c in tree)


def degree_histogram(tree: Tree) -> dict[tuple[int, int], int]:
    """Count internal vertices keyed by (height, degree)."""
    out: dict[tuple[int, int], int] = {}
    stack = [(tree, 0)]
    while stack:
        node, h = stack.pop()
        if node:
            key = (h, len(node))
            out[key] = out.get(key, 0) + 1
            stack.extend((c, h + 1) for c in node)
    return out


def tree_height(tree: Tree) -> int:
    h = 0
    node = tree
    while node:
        h += 1
        node = node[0]
    return h


def tree_weight(tree: Tree, phis, t_trunc: int) -> IntPoly:
    """W(T) = product of C_deg(v) over internal vertices, truncated.

    ``phis`` is a single PhiMap (constant window map) or a sequence of
    PhiMaps indexed by vertex height from the root.
    """
    hist = degree_histogram(tree)
    if isinstance(phis, PhiMap):
        phis = [phis] * (tree_height(tree) if tree else 0)
    out = IntPoly.one(t_trunc)
    for (h, deg), count in sorted(hist.items()):
        if h >= len(phis):
            raise UsageError(f"tree has internal vertex at height {h} beyond the window stack")
        ck = phis[h].terms.get(deg)
        if ck is None:
            raise UsageError(
                f"degree {deg} at height {h} outside the window support {phis[h].support}"
            )
        out = convolve_truncated(out, power_truncated(ck.truncate(t_trunc), count))
    return out


# ---------------------------------------------------------------------------
# the tree representation identity and the coefficient formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeSumResult:
    n_trees: int
    total: IntPoly
    engine_poly: IntPoly
    formula_checked_upto: int

    @property
    def match(self) -> bool:
        return self.total == self.engine_poly


def weighted_trees(
    phis: Sequence[PhiMap], kmax: int, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[Tree, IntPoly]]:
    """(T, W(T)) for every tree over the window maps ``phis`` (window 0
    first; the root takes the last window), weights truncated at ``kmax``."""
    by_height = phis[::-1]
    for tree in enumerate_trees(len(phis), [phi.support for phi in by_height], budget):
        yield tree, tree_weight(tree, by_height, kmax)


def check_tree_sum(
    a: DensityParam, Q: int, m: int, kmax: int, pairs: Iterable[tuple[Tree, IntPoly]]
) -> TreeSumResult:
    """Evaluate sum_T W(T)*(2+t)^L(T) over the (T, W(T)) ``pairs`` and compare
    it, exactly, with the stepwise recursion run over the same m windows; also
    cross-check the coefficient formula a_{Qm,k} = sum_{j<=k} sum_T [t^j]W(T)
    * C(L(T), k-j) * 2^(L(T)-(k-j)).  Any mismatch raises."""
    seg = IntPoly.from_coeffs([2, 1], kmax)
    total = IntPoly.zero(kmax)
    powers: dict[int, IntPoly] = {}
    coeff_sums = [0] * (kmax + 1)
    n_trees = 0
    for tree, w in pairs:
        n_trees += 1
        L = leaf_count(tree)
        if L not in powers:
            powers[L] = power_truncated(seg, L)
        total = total + convolve_truncated(w, powers[L])
        for k in range(kmax + 1):
            s = 0
            for j in range(k + 1):
                wj = w[j]
                if wj:
                    binom = math.comb(L, k - j)
                    if binom:
                        s += wj * binom * 2 ** (L - (k - j))
            coeff_sums[k] += s
    engine_poly = run(a, Q * m, kmax, Engine.PAPER_EXACT).poly
    for k in range(kmax + 1):
        for name, got in (("tree sum", total[k]), ("coefficient formula", coeff_sums[k])):
            if got != engine_poly[k]:
                raise VerificationError(
                    f"{name} differs from recursion first at k={k}: "
                    f"{got} != {engine_poly[k]} (a={a}, Q={Q}, m={m})"
                )
    return TreeSumResult(
        n_trees=n_trees, total=total, engine_poly=engine_poly, formula_checked_upto=kmax
    )


def tree_sum_check(
    a: DensityParam, Q: int, m: int, kmax: int, budget: int = DEFAULT_BUDGET
) -> TreeSumResult:
    """check_tree_sum over every tree of the m aligned windows of length Q."""
    return check_tree_sum(a, Q, m, kmax, weighted_trees(window_phis(a, Q, m), kmax, budget))


# ---------------------------------------------------------------------------
# per-tree statistics and the level recurrence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeStats:
    leaves: int
    internal: int
    qcount: int  # vertices of degree != 2^p
    level_sizes: list[int]  # N_j, j = 0..m
    level_atypical: list[int]  # Q_j, j = 0..m-1
    level_recurrence_ok: bool  # N_{j+1} <= 2^p N_j + 2^Q Q_j at every level
    leaf_bound: int  # iterated bound on L(T)
    leaf_bound_ok: bool


def atypical_count_and_leaf_bound(tree: Tree, phi: PhiMap) -> TreeStats:
    """Level statistics of a tree against a constant window map."""
    m = tree_height(tree)
    typical = 2**phi.p
    top = 2**phi.Q
    n_levels = [0] * (m + 1)
    q_levels = [0] * max(m, 1)
    n_levels[0] = 1
    qcount = 0
    for node, h in iter_nodes(tree):
        if node:
            if len(node) > top:
                raise UsageError(f"degree {len(node)} exceeds 2^Q = {top}")
            if len(node) != typical:
                qcount += 1
                q_levels[h] += 1
            n_levels[h + 1] += len(node)
    rec_ok = all(
        n_levels[j + 1] <= typical * n_levels[j] + top * q_levels[j] for j in range(m)
    )
    k_eff = max(qcount, 1)
    h = 0
    while top ** (h + 1) <= k_eff:
        h += 1
    h = min(h, m)
    bound = typical ** (m - h) * n_levels[h] + top * sum(
        q_levels[i] * typical ** (m - 1 - i) for i in range(h, m)
    )
    leaves = n_levels[m]
    return TreeStats(
        leaves=leaves,
        internal=sum(n_levels[:m]),
        qcount=qcount,
        level_sizes=n_levels,
        level_atypical=q_levels,
        level_recurrence_ok=rec_ok,
        leaf_bound=bound,
        leaf_bound_ok=leaves <= bound,
    )


def iter_nodes(tree: Tree):
    """(node, height) pairs in preorder."""
    stack = [(tree, 0)]
    while stack:
        node, h = stack.pop()
        yield node, h
        for c in reversed(node):
            stack.append((c, h + 1))


# ---------------------------------------------------------------------------
# preorder encoding (injectivity certificate)
# ---------------------------------------------------------------------------

def preorder_encode(tree: Tree, alphabet: Sequence[int]) -> tuple[int, ...]:
    """Letters over {0..|K|}: 0 for a leaf, 1+index(degree) otherwise."""
    index = {d: i + 1 for i, d in enumerate(alphabet)}
    out = []
    for node, _ in iter_nodes(tree):
        if not node:
            out.append(0)
        else:
            try:
                out.append(index[len(node)])
            except KeyError as exc:
                raise UsageError(f"degree {len(node)} not in alphabet {list(alphabet)}") from exc
    return tuple(out)


def preorder_decode(word: Sequence[int], alphabet: Sequence[int]) -> Tree:
    it = iter(word)

    def build() -> Tree:
        letter = next(it)
        if letter == 0:
            return ()
        return tuple(build() for _ in range(alphabet[letter - 1]))

    tree = build()
    try:
        next(it)
    except StopIteration:
        return tree
    raise UsageError("trailing letters after a complete preorder word")


# ---------------------------------------------------------------------------
# explicit lower-bound tree and certificate
# ---------------------------------------------------------------------------

def build_lower_bound_tree(Q: int, p: int, lam: int, m: int, k: int) -> tuple[Tree, int, int]:
    """Full 2^Q-ary levels up to height h-1, then full 2^p-ary subtrees.

    h = floor(log_{2^Q}(k / (2*lam))); requires k >= 2*lam and m > h.
    Returns (tree, h, jstar) with jstar = lam * (2^Q)^h.
    """
    if lam < 1:
        raise UsageError("lambda must be a positive integer (the word must contain an R)")
    if k < 2 * lam:
        raise UsageError(f"need k >= 2*lambda, got k={k} < {2 * lam}")
    top, typical = 2**Q, 2**p
    h = 0
    while top ** (h + 1) * 2 * lam <= k:
        h += 1
    if m <= h:
        raise UsageError(
            f"need tree height m > h = floor(log_(2^Q)(k/2lam)) = {h}, got m={m}"
        )
    jstar = lam * top**h
    n_top = (top**h - 1) // (top - 1)  # vertices of degree 2^Q, heights 0..h-1
    if 2 * jstar > k:
        raise VerificationError(f"construction broke jstar <= k/2: {jstar} > {k}/2")
    if n_top > k:
        raise VerificationError(f"construction broke Q(T_m) <= k: {n_top} > {k}")
    subtree: Tree = ()
    for _ in range(m - h):
        subtree = (subtree,) * typical
    tree = subtree
    for _ in range(h):
        tree = (tree,) * top
    return tree, h, jstar


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
    qcount: int
    bound_log2: int  # the certified bound is 2^(L - k)
    weight_coeff: int  # [t^jweight] W(T_m), verified directly
    binom_ok: bool
    leaves_exceed_2k: bool  # L > 2k at this m (report-only precondition)

    @property
    def certified(self) -> bool:
        return (
            self.weight_coeff >= 1
            and self.binom_ok
            and self.jstar * 2 <= self.k
            and self.qcount <= self.k
        )


def lower_bound_certificate(a: DensityParam, Q: int, m: int, k: int) -> LowerBoundCertificate:
    """Certify a_{Qm,k} >= 2^(L(T_m) - k) through the coefficient formula.

    The certificate takes the term j = jweight of the formula: the weight
    of T_m is A^(#typical) * B^(#top) * t^jweight, so its coefficient
    there is a positive integer, and the binomial factor is >= 1 whenever
    k - jweight <= L.  (The construction's jstar = lam*(2^Q)^h, which is
    also reported, overcounts the top-degree vertices; the weight's true
    t-degree uses their exact count.)
    """
    words = {window_profile(a, Q, j).word for j in range(m)}
    if len(words) != 1:
        raise UsageError(
            f"lower-bound construction needs identical window words; a={a}, Q={Q} gives {len(words)}"
        )
    phi = compose_window(next(iter(words)))
    A, p, B, lam = tfree_and_top(phi)
    tree, h, jstar = build_lower_bound_tree(Q, p, lam, m, k)
    n_top = (2 ** (Q * h) - 1) // (2**Q - 1) if h > 0 else 0
    jweight = lam * n_top
    stats = atypical_count_and_leaf_bound(tree, phi)
    if stats.qcount > k:
        raise VerificationError(f"Q(T_m) = {stats.qcount} > k = {k}")
    if 2 * jstar > k:
        raise VerificationError(f"jstar = {jstar} > k/2 = {k / 2}")
    w = tree_weight(tree, phi, max(jweight, 1))
    weight_coeff = w[jweight]
    if weight_coeff < 1:
        raise VerificationError(f"[t^{jweight}] W(T_m) = {weight_coeff} < 1")
    L = stats.leaves
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
        qcount=stats.qcount,
        bound_log2=L - k,
        weight_coeff=weight_coeff,
        binom_ok=0 <= k - jweight <= L,
        leaves_exceed_2k=L > 2 * k,
    )


def lower_bound_value(a: DensityParam, Q: int, m: int, k: int) -> int:
    """The certified bound 2^(L(T_m)-k), as an exact integer (0 if L < k,
    where the bound is below 1 and carries no information)."""
    cert = lower_bound_certificate(a, Q, m, k)
    return 2**cert.bound_log2 if cert.bound_log2 >= 0 else 0


# ---------------------------------------------------------------------------
# empirical upper-bound envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpperBoundReport:
    Q: int
    m: int
    p: int
    k: int
    log2_coeff: float
    denominator: float  # 2^(m p) * k^(1 - p/Q)
    rho: float


def upper_bound_report(a: DensityParam, Q: int, m: int, k: int) -> UpperBoundReport:
    """rho = log2 a_{Qm,k} / (2^(m p) * k^(1 - p/Q)), for envelope tracking.

    The growth bound hides an unpinned 2^O(Q) factor, so rho is recorded
    rather than asserted against a constant.
    """
    p = window_profile(a, Q, 0).p
    log2_coeff = log2_face_number(a, Q * m, k, Engine.for_kmax(k))
    denom = 2.0 ** (m * p) * k ** (1.0 - p / Q)
    return UpperBoundReport(
        Q=Q, m=m, p=p, k=k, log2_coeff=log2_coeff, denominator=denom, rho=log2_coeff / denom
    )
