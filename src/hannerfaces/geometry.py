"""Ground-truth geometry at small dimension.

Builds exact vertex/facet representations of the recursive family,
enumerates the full face lattice, and computes exact circumradius /
inradius data.  This is the oracle the coefficient engines are validated
against, and ``oracle_report`` is its one verdict: the ``oracle`` subcommand
prints it and ``selftest`` checks it.

The lattice is closed under intersection from the vertex-facet incidences
on the smaller side: facet masks over the vertices when there are no more
facets than vertices, else vertex co-masks over the facets.  No linear
programming, no floats and no rank computation: each face's depth, the
longest chain of proper intersections above it, gives its dimension,
because the face lattice is graded and each cover is one intersection.

Every coordinate is an integer: the segment is [-1, 1] with facet normals
+-1, and both steps only concatenate and zero-pad coordinates, so every
vertex and every facet normal lies in {-1, 0, 1}^d.  The incidences are
read from one exact integer product of the normals with the vertices
(int8, since d <= 16), and each generator's mask is packed from its row of
it.  The same product validates every polytope the oracle builds, at every
dimension, and the same int8 arrays give its central symmetry and radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UsageError, VerificationError
from .recursion import proper_f_vector
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

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(normals, vertices) as int8 arrays, built once.  With at most 16
        coordinates, each in {-1, 0, 1}, int8 holds every entry and partial sum
        of their products exactly; any other polytope is refused, not wrapped."""
        normals = np.array(self.normals, dtype=np.int8)
        vertices = np.array(self.vertices, dtype=np.int8)
        for coords in (normals, vertices):
            if coords.shape[1] > _MAX_DIM or coords.min() < -1 or coords.max() > 1:
                raise UsageError(
                    f"incidences need at most {_MAX_DIM} coordinates, each in {{-1, 0, 1}}"
                )
        return normals, vertices

    def validate(self):
        normals, vertices = self.arrays
        keys = np.zeros(len(vertices), dtype=np.int64)
        for column in vertices.T:  # balanced ternary: v has its own key, -v its negative
            keys = 3 * keys + column
        keys = set(keys.tolist())
        if keys != {-key for key in keys}:
            raise VerificationError("vertex set is not centrally symmetric")
        if (normals @ vertices.T > 1).any():  # u . v for every facet normal u and vertex v
            raise VerificationError("vertex outside a facet halfspace")


def _packed(rows: np.ndarray) -> np.ndarray:
    """A boolean matrix row by row as little-endian bytes: bit i of row r is
    ``rows[r, i]``."""
    return np.packbits(rows, axis=1, bitorder="little")


def _masks(packed: np.ndarray) -> list[int]:
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


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


def face_lattice(poly: VPolytope) -> FaceLattice:
    """Every nonempty face exactly once, with its dimension.

    The faces are the intersections of facets, read from vertex-facet
    incidences on the side with fewer generators: facet masks over the
    vertices when there are no more facets than vertices, else vertex
    co-masks over the facets (each coface then maps back to the vertices on
    all of its facets, and the improper face, which lies on no facet, is
    added).  A set's depth is the longest chain of proper intersections
    down to it from the top.  The sets are expanded in falling bit count,
    and an intersection has fewer bits than the set it came from, so each
    depth is final before its set is expanded.  The face lattice is graded
    and every cover is an intersection with one generator, so dim = d -
    depth on the vertex side and depth - 1 on the dual side.
    """
    if 3**poly.dim > _LATTICE_FACE_GUARD:
        raise UsageError(
            f"face lattice guard: 3^{poly.dim} exceeds {_LATTICE_FACE_GUARD} faces"
        )
    nv, nf = len(poly.vertices), len(poly.normals)
    normals, vertices = poly.arrays
    on = normals @ vertices.T == 1  # on[facet, vertex]
    dual = nf > nv
    packed = _packed(on.T if dual else on)  # vertex co-masks, else facet masks
    gens = _masks(packed)
    top = (1 << (nf if dual else nv)) - 1
    depth = {top: 0}
    by_size = [[] for _ in range(top.bit_count() + 1)]
    by_size[-1].append(top)
    for size in range(len(by_size) - 1, 0, -1):
        for cur in by_size[size]:
            below = depth[cur] + 1
            for g in gens:
                child = cur & g
                if child and child != cur:
                    known = depth.get(child)
                    if known is None:
                        by_size[child.bit_count()].append(child)
                        depth[child] = below
                    elif known < below:
                        depth[child] = below
    if dual:
        del depth[top]  # the empty face, on every facet
        # a coface's vertices are those whose co-mask holds all of its facets,
        # tested one vertex at a time over the bytes of every coface
        width = packed.shape[1]
        cofaces = np.frombuffer(
            b"".join(cof.to_bytes(width, "little") for cof in depth), dtype=np.uint8
        ).reshape(len(depth), width)
        held = np.empty((nv, len(depth)), dtype=bool)
        for i, comask in enumerate(packed):
            held[i] = ((cofaces & comask) == cofaces).all(axis=1)
        faces = [(mask, dep - 1) for mask, dep in zip(_masks(_packed(held.T)), depth.values())]
        faces.append(((1 << nv) - 1, poly.dim))
    else:
        faces = [(mask, poly.dim - dep) for mask, dep in depth.items()]
    lattice = FaceLattice(dim=poly.dim, faces=tuple(sorted(faces)))
    if lattice.f_vector()[poly.dim] != 1:
        raise VerificationError("improper face missing or duplicated")
    return lattice


@dataclass(frozen=True)
class RadiiState:
    R_sq: int  # squared circumradius
    r_inv_sq: int  # 1 / r^2


def radii(poly: VPolytope) -> tuple[int, int]:
    """(R^2, 1/r^2): largest squared vertex norm and largest squared facet normal."""
    # every entry is -1, 0 or 1, so a squared norm counts the nonzero coordinates
    r_inv_sq, r_sq = (int(np.count_nonzero(x, axis=1).max()) for x in poly.arrays)
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


def oracle_report(a: DensityParam, n: int, full_lattice: bool = False) -> dict:
    """The geometric oracle's verdict after n steps, as ``oracle`` prints it.

    The one place the built polytope is compared with the recursions: its
    radii with ``radii_recursion``, (R/r)^2 with d = 2^n, and, where the face
    lattice is built (d <= 8, or any d with ``full_lattice``), the lattice
    f-vector with the geometric engine's ``proper_f_vector`` and the face total
    with 3^d.  Past d = 8 the f-vector is the engine's and the face total is
    None.  ``crosscheck_failures`` names each comparison that failed.
    """
    poly = build_polytope(a, n)
    r_sq, r_inv_sq = radii(poly)
    rec = radii_recursion(a, n)
    d = 2**n
    failures = []
    if (r_sq, r_inv_sq) != (rec.R_sq, rec.r_inv_sq):
        failures.append("radii oracle disagrees with radii recursion")
    if r_sq * r_inv_sq != d:
        failures.append("(R/r)^2 != dimension")
    if full_lattice or d <= 8:
        lattice = face_lattice(poly)
        f_vector, face_total = lattice.proper_f_vector(), lattice.total
        if f_vector != proper_f_vector(a, n):
            failures.append("lattice f-vector disagrees with geometric engine")
        if face_total != 3**d:
            failures.append("face total differs from 3^dim")
    else:
        f_vector, face_total = proper_f_vector(a, n), None
    return {
        "a": str(a),
        "n": n,
        "dim": d,
        "R2": str(r_sq),
        "r_inv_sq": str(r_inv_sq),
        "ratio_sq": str(r_sq * r_inv_sq),
        "f_vector": [str(x) for x in f_vector],
        "face_total": face_total,
        "crosscheck_failures": failures,
    }
