"""Ground-truth geometry at small dimension.

Builds exact vertex/facet representations of the recursive family,
enumerates the full face lattice from vertex-facet incidences (closed-set
intersection, no linear programming, no floats), and computes exact
circumradius / inradius data.  This is the oracle the coefficient engines
are validated against.

Every coordinate is an integer: the segment is [-1, 1] with facet normals
+-1, and both steps only concatenate and zero-pad coordinates, so every
vertex and every facet normal lies in {-1, 0, 1}^d.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError, VerificationError
from .recursion import Engine, face_numbers, proper_f_vector
from .schedule import DensityParam, StepKind, is_product_step

Vector = tuple[int, ...]

_MAX_DIM = 16
_LATTICE_FACE_GUARD = 10**5


@dataclass(frozen=True)
class VPolytope:
    """Centrally symmetric polytope: exact vertices and facet normals.

    Facets are {x : u . x = 1}; every vertex satisfies u . v <= 1.
    """

    dim: int
    vertices: tuple[Vector, ...]
    normals: tuple[Vector, ...]

    def validate(self):
        vs = set(self.vertices)
        for v in self.vertices:
            if tuple(-c for c in v) not in vs:
                raise VerificationError("vertex set is not centrally symmetric")
        for v in self.vertices:
            for u in self.normals:
                if _dot(u, v) > 1:
                    raise VerificationError("vertex outside a facet halfspace")


def _dot(u: Vector, v: Vector) -> int:
    return sum(a * b for a, b in zip(u, v))


def _segment() -> VPolytope:
    return VPolytope(1, ((1,), (-1,)), ((1,), (-1,)))


def _pad_pairs(xs, ys):
    return tuple(x + y for x in xs for y in ys)


def _pad_union(xs, ys, dim):
    zero = (0,) * dim
    return tuple(x + zero for x in xs) + tuple(zero + y for y in ys)


def build_polytope(a: DensityParam, n: int) -> VPolytope:
    """P after n schedule steps, dimension 2^n (capped at 16).

    Product: vertices are all concatenated pairs, normals zero-padded
    unions.  Hull is the free sum (the dual of the product of duals):
    vertices zero-padded unions, normals all concatenated pairs.
    """
    if n < 0:
        raise UsageError(f"step count must be >= 0, got {n}")
    if 2**n > _MAX_DIM:
        raise UsageError(f"oracle dimension cap is {_MAX_DIM}, got 2^{n}")
    poly = _segment()
    for j in range(n):
        d = poly.dim
        if is_product_step(j, a) is StepKind.PRODUCT:
            poly = VPolytope(
                2 * d,
                _pad_pairs(poly.vertices, poly.vertices),
                _pad_union(poly.normals, poly.normals, d),
            )
        else:
            poly = VPolytope(
                2 * d,
                _pad_union(poly.vertices, poly.vertices, d),
                _pad_pairs(poly.normals, poly.normals),
            )
    if poly.dim <= 8:
        poly.validate()
    return poly


@dataclass(frozen=True)
class FaceLattice:
    """All nonempty faces as vertex-index sets; the partial order is inclusion."""

    dim: int
    faces: tuple[tuple[int, int], ...]  # (vertex bitmask, face dimension), sorted

    @property
    def total(self) -> int:
        return len(self.faces)

    def f_vector(self) -> list[int]:
        out = [0] * (self.dim + 1)
        for _, fdim in self.faces:
            out[fdim] += 1
        return out

    def proper_f_vector(self) -> list[int]:
        return self.f_vector()[: self.dim]


def _affine_rank(points: list[tuple[int, ...]]) -> int:
    """Exact affine rank of integer points (Gaussian elimination over Z)."""
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    ncols = len(base)
    rank = 0
    for c in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        prc = pr[c]
        for i in range(rank + 1, len(rows)):
            ric = rows[i][c]
            if ric:
                rows[i] = [prc * x - ric * y for x, y in zip(rows[i], pr)]
        rank += 1
        if rank == min(len(rows), ncols):
            break
    return rank


def face_lattice(poly: VPolytope) -> FaceLattice:
    """Every nonempty face exactly once, with its dimension.

    Faces are the closures reachable by intersecting facet vertex sets,
    starting from the improper face; dimensions are exact affine ranks.
    """
    if 3**poly.dim > _LATTICE_FACE_GUARD:
        raise UsageError(
            f"face lattice guard: 3^{poly.dim} exceeds {_LATTICE_FACE_GUARD} faces"
        )
    nv = len(poly.vertices)
    facet_masks = []
    for u in poly.normals:
        mask = 0
        for i, v in enumerate(poly.vertices):
            if _dot(u, v) == 1:
                mask |= 1 << i
        facet_masks.append(mask)
    top = (1 << nv) - 1
    seen = {top}
    queue = [top]
    while queue:
        cur = queue.pop()
        for fm in facet_masks:
            nxt = cur & fm
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    faces = sorted((mask, _affine_rank([poly.vertices[i] for i in _bits(mask)])) for mask in seen)
    lattice = FaceLattice(dim=poly.dim, faces=tuple(faces))
    if lattice.f_vector()[poly.dim] != 1:
        raise VerificationError("improper face missing or duplicated")
    return lattice


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class CrosscheckResult:
    n: int
    lattice_f: list[int]
    geometric_f: list[int]
    paper_f: list[int]
    face_total: int

    @property
    def geometric_matches(self) -> bool:
        return self.lattice_f == self.geometric_f


def f_vector_crosscheck(a: DensityParam, n: int) -> CrosscheckResult:
    """Brute-force lattice f-vector vs the recursion engines.

    The geometric engine must match exactly (hard failure otherwise); the
    printed recursion's f-vector, which dominates it coefficientwise, is
    returned beside it.
    """
    poly = build_polytope(a, n)
    lattice = face_lattice(poly)
    lattice_f = lattice.proper_f_vector()
    geometric_f = proper_f_vector(a, n)
    d = 2**n
    paper_f = face_numbers(a, n, d - 1 if d > 1 else 1, Engine.PAPER_EXACT)[:d]
    result = CrosscheckResult(
        n=n,
        lattice_f=lattice_f,
        geometric_f=geometric_f,
        paper_f=paper_f,
        face_total=lattice.total,
    )
    if not result.geometric_matches:
        raise VerificationError(
            f"lattice f-vector {lattice_f} != geometric engine {geometric_f} (a={a}, n={n})"
        )
    return result


@dataclass(frozen=True)
class RadiiState:
    R_sq: int  # squared circumradius
    r_inv_sq: int  # 1 / r^2


def radii(poly: VPolytope) -> tuple[int, int]:
    """(R^2, 1/r^2): largest squared vertex norm and largest squared facet normal."""
    r_sq = max(_dot(v, v) for v in poly.vertices)
    r_inv_sq = max(_dot(u, u) for u in poly.normals)
    return r_sq, r_inv_sq


def radii_recursion(a: DensityParam, n: int) -> RadiiState:
    """Product doubles R^2, Hull doubles 1/r^2; (R/r)^2 = 2^n throughout."""
    r_sq, r_inv_sq = 1, 1
    for j in range(n):
        if is_product_step(j, a) is StepKind.PRODUCT:
            r_sq *= 2
        else:
            r_inv_sq *= 2
    return RadiiState(R_sq=r_sq, r_inv_sq=r_inv_sq)
