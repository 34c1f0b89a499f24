from itertools import product

import pytest

from hannerfaces import geometry
from hannerfaces.errors import UsageError, VerificationError
from hannerfaces.geometry import (
    FaceLattice,
    RadiiState,
    VPolytope,
    build_polytope,
    face_lattice,
    oracle_report,
    radii,
    radii_recursion,
)
from hannerfaces.recursion import proper_f_vector
from hannerfaces.schedule import DensityParam

HALF = DensityParam.rational(1, 2)
THIRD = DensityParam.rational(1, 3)
TWO_THIRDS = DensityParam.rational(2, 3)
TWO_FIFTHS = DensityParam.rational(2, 5)

ALL_A = [HALF, THIRD, TWO_THIRDS, TWO_FIFTHS]

SIGNS = (1, -1)
CUBE3 = VPolytope(
    3,
    tuple((x, y, z) for x in SIGNS for y in SIGNS for z in SIGNS),
    tuple(tuple(s if j == i else 0 for j in range(3)) for i in range(3) for s in SIGNS),
)
CROSS3 = VPolytope(3, CUBE3.normals, CUBE3.vertices)


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


def _on(u, v) -> bool:
    return sum(a * b for a, b in zip(u, v)) == 1


def _pairs(xs):
    return tuple(x + y for x in xs for y in xs)


def _union(xs):
    zero = (0,) * len(xs[0])
    return tuple(x + zero for x in xs) + tuple(zero + x for x in xs)


def _word_polytope(word: str) -> VPolytope:
    """The polytope of a P/H step word, built from the segment as
    ``build_polytope`` builds it; H-first words, which no density reaches,
    included."""
    vertices = normals = ((1,), (-1,))
    for step in word:
        if step == "P":
            vertices, normals = _pairs(vertices), _union(normals)
        else:
            vertices, normals = _union(vertices), _pairs(normals)
    return VPolytope(len(vertices[0]), vertices, normals)


WORDS = ["".join(w) for length in (1, 2, 3) for w in product("PH", repeat=length)]


# The lattice as it was read from one Python dot product per vertex-facet
# pair, kept as the oracle of the integer-product incidences.


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _mask(flags) -> int:
    mask = 0
    for i, on in enumerate(flags):
        if on:
            mask |= 1 << i
    return mask


def _reference_faces(poly: VPolytope) -> tuple[tuple[int, int], ...]:
    nv, nf = len(poly.vertices), len(poly.normals)
    on = [[_dot(u, v) == 1 for v in poly.vertices] for u in poly.normals]  # on[facet][vertex]
    dual = nf > nv
    if dual:
        gens = [_mask(col) for col in zip(*on)]  # vertex co-masks
        top = (1 << nf) - 1
    else:
        gens = [_mask(row) for row in on]  # facet masks
        top = (1 << nv) - 1
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
        # a coface's vertices are those whose co-mask holds all of its facets
        faces = [(_mask(cof & c == cof for c in gens), dep - 1) for cof, dep in depth.items()]
        faces.append(((1 << nv) - 1, poly.dim))
    else:
        faces = [(mask, poly.dim - dep) for mask, dep in depth.items()]
    return tuple(sorted(faces))


class TestReferenceLattice:
    def test_words_cover_both_sides(self):
        assert len(WORDS) == 14
        sides = {len(p.normals) > len(p.vertices) for p in map(_word_polytope, WORDS)}
        assert sides == {False, True}

    @pytest.mark.parametrize("word", WORDS)
    def test_faces_match_the_per_pair_reference(self, word):
        poly = _word_polytope(word)
        poly.validate()
        assert face_lattice(poly).faces == _reference_faces(poly)

    @pytest.mark.parametrize(("a", "word"), [(HALF, "PHP"), (THIRD, "PHH")])
    def test_word_helper_builds_the_density_polytope(self, a, word):
        assert _word_polytope(word) == build_polytope(a, 3)


class TestValidate:
    def test_vertex_outside_a_facet_is_refused(self):
        # the octahedron plus the symmetric pair +-(1, 1, 0), which lies one
        # unit past its facets through (1, 1, 1) and (-1, -1, -1)
        poly = VPolytope(3, CROSS3.vertices + ((1, 1, 0), (-1, -1, 0)), CROSS3.normals)
        with pytest.raises(VerificationError, match="vertex outside a facet halfspace"):
            poly.validate()

    @pytest.mark.parametrize(
        "poly",
        [
            VPolytope(1, ((2,), (-2,)), ((1,), (-1,))),
            VPolytope(17, ((1,) * 17, (-1,) * 17), ((1,) + (0,) * 16, (-1,) + (0,) * 16)),
        ],
        ids=["coordinate-2", "dimension-17"],
    )
    def test_incidences_outside_the_int8_range_are_refused(self, poly):
        with pytest.raises(UsageError, match="incidences need at most 16 coordinates"):
            poly.validate()

    def test_asymmetric_vertex_set_is_refused(self):
        poly = VPolytope(3, CUBE3.vertices[1:], CUBE3.normals)
        with pytest.raises(VerificationError, match="not centrally symmetric"):
            poly.validate()

    @pytest.mark.parametrize("a", [HALF, DensityParam.rational(1, 4), DensityParam.rational(4, 5)])
    @pytest.mark.parametrize("n", [0, 3, 4])
    def test_every_built_polytope_is_validated(self, monkeypatch, a, n):
        checked = []
        real = VPolytope.validate
        monkeypatch.setattr(geometry.VPolytope, "validate", lambda self: checked.append(real(self)))
        build_polytope(a, n)
        assert len(checked) == 1


class TestBuildPolytope:
    def test_segment(self):
        seg = build_polytope(HALF, 0)
        assert seg.vertices == ((1,), (-1,))
        assert seg.normals == ((1,), (-1,))

    def test_square(self):
        sq = build_polytope(HALF, 1)
        assert len(sq.vertices) == 4
        assert set(sq.vertices) == {(s1, s2) for s1 in (-1, 1) for s2 in (-1, 1)}
        assert set(sq.normals) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    @pytest.mark.parametrize("a", ALL_A)
    def test_integer_coordinates(self, a):
        for n in range(5):
            poly = build_polytope(a, n)
            for v in poly.vertices + poly.normals:
                assert all(type(c) is int and c in (-1, 0, 1) for c in v)

    def test_free_sum_doubles_vertices(self):
        # step 0 is always a Product, so the first hull appears at n=2:
        # the free sum of two squares has 4+4 zero-padded vertices.
        free_sum = build_polytope(HALF, 2)
        assert len(free_sum.vertices) == 8
        assert len(free_sum.normals) == 16

    def test_dimension_cap(self):
        with pytest.raises(UsageError):
            build_polytope(HALF, 5)

    def test_negative_n_is_a_step_count_error(self):
        with pytest.raises(UsageError, match="step count must be >= 0, got -1"):
            build_polytope(HALF, -1)


class TestFaceLattice:
    def test_square_lattice(self):
        lat = face_lattice(build_polytope(HALF, 1))
        assert lat.proper_f_vector() == [4, 4]
        assert lat.total == 9

    def test_free_sum_of_squares(self):
        lat = face_lattice(build_polytope(HALF, 2))
        assert lat.proper_f_vector() == [8, 24, 32, 16]
        assert lat.total == 3**4

    def test_hypercube_d4(self):
        lat = face_lattice(build_polytope(TWO_THIRDS, 2))
        assert lat.proper_f_vector() == [16, 32, 24, 8]

    @pytest.mark.parametrize("a", ALL_A)
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_kalai_total_and_euler(self, a, n):
        lat = face_lattice(build_polytope(a, n))
        d = 2**n
        assert lat.total == 3**d
        fv = lat.proper_f_vector()
        assert sum((-1) ** k * fv[k] for k in range(d)) == 1 - (-1) ** d

    @pytest.mark.parametrize("a", [HALF, THIRD])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_central_symmetry_of_lattice(self, a, n):
        poly = build_polytope(a, n)
        lat = face_lattice(poly)
        neg_index = {}
        for i, v in enumerate(poly.vertices):
            neg_index[i] = poly.vertices.index(tuple(-c for c in v))
        masks = {mask for mask, _ in lat.faces}
        for mask, _ in lat.faces:
            neg_mask = 0
            m = mask
            while m:
                low = m & -m
                neg_mask |= 1 << neg_index[low.bit_length() - 1]
                m ^= low
            assert neg_mask in masks

    def test_guard(self):
        with pytest.raises(UsageError):
            face_lattice(build_polytope(HALF, 4))  # 3^16 faces

    @pytest.mark.parametrize(
        ("poly", "sides", "fv"),
        [(CUBE3, (8, 6), [8, 12, 6]), (CROSS3, (6, 8), [6, 12, 8])],
        ids=["cube-vertex-side", "cross-polytope-dual-side"],
    )
    def test_both_incidence_sides(self, poly, sides, fv):
        poly.validate()
        assert (len(poly.vertices), len(poly.normals)) == sides
        lat = face_lattice(poly)
        assert lat.proper_f_vector() == fv
        assert lat.total == 27

    @pytest.mark.parametrize(("a", "sides"), [(HALF, (64, 32)), (THIRD, (16, 256))])
    def test_n3_on_each_side_has_3_to_the_8_faces(self, a, sides):
        poly = build_polytope(a, 3)
        assert (len(poly.vertices), len(poly.normals)) == sides
        assert face_lattice(poly).total == 3**8

    @pytest.mark.parametrize("a", ALL_A)
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_graded_dimension_is_the_affine_rank(self, a, n):
        poly = build_polytope(a, n)
        everything = (1 << len(poly.vertices)) - 1
        facet_masks = [
            sum(1 << i for i, v in enumerate(poly.vertices) if _on(u, v)) for u in poly.normals
        ]
        for mask, fdim in face_lattice(poly).faces:
            assert fdim == _affine_rank([v for i, v in enumerate(poly.vertices) if mask >> i & 1])
            # closed: the vertices on every facet through the face are the face
            closure = everything
            for fm in facet_masks:
                if mask & fm == mask:
                    closure &= fm
            assert closure == mask


class TestCrosscheck:
    """``oracle_report``: the lattice against the free-sum engine and 3^d."""

    def test_half_n2(self):
        rep = oracle_report(HALF, 2)
        assert rep["f_vector"] == ["8", "24", "32", "16"]
        assert (rep["face_total"], rep["crosscheck_failures"]) == (81, [])

    def test_segment(self):
        rep = oracle_report(HALF, 0)
        assert rep["f_vector"] == ["2"]
        assert (rep["face_total"], rep["crosscheck_failures"]) == (3, [])

    def test_hypercube_all_engines_agree(self):
        rep = oracle_report(TWO_THIRDS, 2)
        assert rep["f_vector"] == ["16", "32", "24", "8"]
        assert rep["crosscheck_failures"] == []

    @pytest.mark.parametrize("a", ALL_A)
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_grid(self, a, n):
        rep = oracle_report(a, n)
        assert rep["crosscheck_failures"] == []
        assert rep["face_total"] == 3 ** (2**n)

    def test_each_failure_is_named(self, monkeypatch):
        monkeypatch.setattr(geometry, "radii", lambda poly: (3, 2))
        monkeypatch.setattr(geometry, "proper_f_vector", lambda a, n: [8, 24, 32, 17])
        monkeypatch.setattr(geometry, "face_lattice", lambda poly: FaceLattice(4, ()))
        assert oracle_report(HALF, 2)["crosscheck_failures"] == [
            "radii oracle disagrees with radii recursion",
            "(R/r)^2 != dimension",
            "lattice f-vector disagrees with geometric engine",
            "face total differs from 3^dim",
        ]

    def test_past_dimension_8_the_engine_alone(self, monkeypatch):
        monkeypatch.setattr(geometry, "face_lattice", lambda poly: pytest.fail("lattice built"))
        rep = oracle_report(TWO_FIFTHS, 4)
        assert rep["f_vector"] == [str(x) for x in proper_f_vector(TWO_FIFTHS, 4)]
        assert (rep["face_total"], rep["crosscheck_failures"]) == (None, [])

    def test_full_lattice_meets_the_face_guard_at_n4(self):
        with pytest.raises(UsageError, match="face lattice guard"):
            oracle_report(HALF, 4, full_lattice=True)


class TestRadii:
    def test_square(self):
        r_sq, r_inv_sq = radii(build_polytope(HALF, 1))
        assert (r_sq, r_inv_sq) == (2, 1)

    def test_cross_polytope_via_third_n2(self):
        poly = build_polytope(THIRD, 2)  # P,H: square then free sum
        r_sq, r_inv_sq = radii(poly)
        assert r_sq * r_inv_sq == 4

    def test_half_n3(self):
        state = radii_recursion(HALF, 3)
        assert state == RadiiState(R_sq=4, r_inv_sq=2)

    @pytest.mark.parametrize("a", ALL_A)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_oracle_matches_recursion(self, a, n):
        poly = build_polytope(a, n)
        r_sq, r_inv_sq = radii(poly)
        rec = radii_recursion(a, n)
        assert r_sq == rec.R_sq
        assert r_inv_sq == rec.r_inv_sq
        assert rec.R_sq * rec.r_inv_sq == 2**n

    @pytest.mark.parametrize("a", ALL_A)
    def test_ratio_identity_to_n16(self, a):
        for n in range(17):
            rec = radii_recursion(a, n)
            assert rec.R_sq * rec.r_inv_sq == 2**n
