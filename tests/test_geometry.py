import pytest

from hannerfaces.errors import UsageError
from hannerfaces.geometry import (
    RadiiState,
    VPolytope,
    build_polytope,
    f_vector_crosscheck,
    face_lattice,
    radii,
    radii_recursion,
)
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
    def test_half_n2(self):
        res = f_vector_crosscheck(HALF, 2)
        assert res.lattice_f == [8, 24, 32, 16]
        assert res.geometric_matches
        assert res.paper_f == [8, 24, 34, 24]
        assert all(p >= g for p, g in zip(res.paper_f, res.geometric_f))

    def test_segment(self):
        res = f_vector_crosscheck(HALF, 0)
        assert res.lattice_f == [2]
        assert res.geometric_matches and all(p >= g for p, g in zip(res.paper_f, res.geometric_f))

    def test_hypercube_all_engines_agree(self):
        res = f_vector_crosscheck(TWO_THIRDS, 2)
        assert res.lattice_f == [16, 32, 24, 8]
        assert res.paper_f == res.geometric_f  # no hull step yet

    @pytest.mark.parametrize("a", ALL_A)
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_grid(self, a, n):
        res = f_vector_crosscheck(a, n)
        assert res.geometric_matches
        assert all(p >= g for p, g in zip(res.paper_f, res.geometric_f))
        assert res.face_total == 3 ** (2**n)


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
