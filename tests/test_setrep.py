"""Set representations, upset membership, and their sampling oracles.

A point z lies in A + C exactly when lower_le(A, points([z])), and in
cl(A + C) exactly when large_le(A, points([z])); membership is asked
through those relations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from setorder.cone import Cone
from setorder.errors import DimensionMismatch, SetSpecError, Unsupported
from setorder.order import OrderCtx, large_le, lower_le
from setorder.setrep import Box, BoxUnion, PointCloud, box, points, translate

from conftest import lattice_box_union, lattice_set
from reference import is_c_proper, sample_points

R1 = Cone.orthant(1)
R2 = Cone.orthant(2)
ABS_CONE = Cone.from_halfspaces([[-1.0, 1.0], [1.0, 1.0]])
CTX1 = OrderCtx(R1)
CTX2 = OrderCtx(R2)
ABS_CTX = OrderCtx(ABS_CONE)
# tol = 0 makes a singleton-cloud probe an exact membership test
EXACT2 = OrderCtx(R2, tol=0.0)
EXACT_ABS = OrderCtx(ABS_CONE, tol=0.0)


def in_upset(A, z, ctx) -> bool:
    """z in A + C."""
    return lower_le(A, points([z]), ctx)


def in_closed_upset(A, z, ctx) -> bool:
    """z in cl(A + C)."""
    return large_le(A, points([z]), ctx)


class TestValidation:
    def test_empty_interval_rejected(self):
        with pytest.raises(SetSpecError, match="empty interval"):
            box([1.0], [0.0])

    def test_open_degenerate_rejected(self):
        with pytest.raises(SetSpecError, match="closed singleton"):
            box([1.0, 1.0], [2.0, 1.0], [False, True], [False, False])

    def test_closed_singleton_accepted(self):
        b = box([1.0], [1.0])
        assert b.boxes[0].lo == b.boxes[0].hi

    def test_infinite_upper_must_be_open(self):
        with pytest.raises(SetSpecError, match="must be open"):
            box([0.0], [math.inf], [False], [False])
        box([0.0], [math.inf], [False], [True])

    def test_infinite_lower_rejected(self):
        with pytest.raises(SetSpecError, match="finite"):
            box([-math.inf], [0.0])

    def test_empty_cloud_rejected(self):
        with pytest.raises(SetSpecError):
            PointCloud(1, np.zeros((0, 1)))

    def test_zero_dimensional_cloud_rejected(self):
        with pytest.raises(SetSpecError):
            points([])

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            BoxUnion(2, (Box((0.0,), (1.0,), (False,), (False,)),))

    def test_empty_endpoint_tuples_rejected(self):
        with pytest.raises(SetSpecError, match="nonempty and of equal length"):
            Box((), (), (), ())

    def test_nan_upper_endpoint_rejected(self):
        with pytest.raises(SetSpecError, match="upper endpoint is NaN"):
            box([0.0], [math.nan])

    def test_empty_union_rejected(self):
        with pytest.raises(SetSpecError, match="at least one box"):
            BoxUnion(1, ())

    def test_bare_box_is_no_set(self):
        # a Box has a dim, so it passes the dimension check, but only a
        # BoxUnion or a PointCloud has corners
        with pytest.raises(TypeError, match="not a SetRep"):
            lower_le(Box((0.0,), (1.0,), (False,), (False,)), points([[1.0]]), CTX1)


class TestUpset:
    def test_point_origin(self):
        A = points([[0.0, 0.0]])
        assert in_upset(A, [1.0, 1.0], CTX2)
        assert not in_upset(A, [-1.0, 0.0], CTX2)

    def test_openness_semantics(self):
        A = box([0.0, 0.0], [1.0, 1.0], [True, True], [True, False])
        assert not in_upset(A, [0.0, 0.5], CTX2)
        assert in_closed_upset(A, [0.0, 0.5], CTX2)

    def test_scalar_corner(self):
        assert in_upset(points([[0.0]]), [0.0], CTX1)

    def test_box_union_flags_per_axis(self):
        # open lower end on axis 0 only; the closure clears it
        A = box([0.0, 0.0], [1.0, 1.0], [True, False], [False, False])
        assert in_upset(A, [0.5, 0.0], CTX2)
        assert not in_upset(A, [0.0, 0.5], CTX2)
        assert in_closed_upset(A, [0.0, 0.5], CTX2)

    def test_box_with_general_cone_unsupported(self):
        with pytest.raises(Unsupported):
            in_upset(box([0.0, 0.0], [1.0, 1.0]), [1.0, 1.0], ABS_CTX)

    def test_cloud_with_general_cone_supported(self):
        A = points([[0.0, 0.0]])
        assert in_upset(A, [0.0, 1.0], ABS_CTX)
        assert not in_upset(A, [1.0, 0.0], ABS_CTX)

    def test_cloud_closed_equals_open(self):
        # A + C is closed for finite A: closure changes no membership
        rng = np.random.default_rng(3)
        A = points(rng.standard_normal((5, 2)))
        for z in rng.standard_normal((200, 2)) * 2:
            assert in_upset(A, z, EXACT_ABS) == in_closed_upset(A, z, EXACT_ABS)


def brute_membership(A: BoxUnion, z, closed: bool) -> bool:
    """z in A + R^d_+ by direct per-box reasoning (the sampling oracle)."""
    for b in A.boxes:
        ok = True
        for j in range(A.dim):
            if closed or not b.lo_open[j]:
                ok = z[j] >= b.lo[j]
            else:
                ok = z[j] > b.lo[j]
            if not ok:
                break
        if ok:
            return True
    return False


class TestUpsetAgainstSampling:
    @given(lattice_box_union(dim=2))
    @settings(max_examples=150)
    def test_exact_on_lattice_probes(self, A):
        probes = [(x * 0.5, y * 0.5) for x in range(-7, 8, 3) for y in range(-7, 8, 3)]
        for z in probes:
            assert in_upset(A, z, EXACT2) == brute_membership(A, z, closed=False)
            assert in_closed_upset(A, z, EXACT2) == brute_membership(A, z, closed=True)

    @given(lattice_box_union(dim=2))
    @settings(max_examples=100)
    def test_closed_and_open_differ_only_on_lower_faces(self, A):
        rng = np.random.default_rng(0)
        for z in rng.uniform(-4.2, 4.2, size=(60, 2)):
            # irrational-ish probes never sit on a lattice face
            if in_upset(A, z, EXACT2) != in_closed_upset(A, z, EXACT2):
                assert any(math.isclose(z[j], b.lo[j]) for b in A.boxes for j in range(2))


class TestContainsSet:
    def test_point_above_origin(self):
        assert lower_le(points([[0.0, 0.0]]), points([[1.0, 1.0]]), CTX2)

    def test_paper_style_corner_refusal(self):
        # [-1,5]x[2,3] is not inside (0,1)x(0,1] + C: -1 < 0 on axis 1
        A = box([0.0, 0.0], [1.0, 1.0], [True, True], [True, False])
        B = box([-1.0, 2.0], [5.0, 3.0])
        assert not lower_le(A, B, CTX2)

    def test_reflexive(self):
        A = box([0.0, 0.0], [1.0, 1.0], [True, False], [False, True])
        assert large_le(A, A, CTX2)
        assert lower_le(A, A, CTX2)

    @given(lattice_set(dim=2))
    @settings(max_examples=150)
    def test_reflexive_random(self, A):
        assert large_le(A, A, EXACT2)


class TestTranslate:
    def test_point_shift(self):
        A = translate(points([[1.0, 2.0]]), [-1.0, -2.0])
        assert np.array_equal(A.points, [[0.0, 0.0]])

    def test_box_shift_preserves_flags(self):
        A = translate(box([0.0], [1.0], [True], [False]), [1.0])
        assert A.boxes[0].lo == (1.0,)
        assert A.boxes[0].hi == (2.0,)
        assert A.boxes[0].lo_open == (True,)

    def test_shift_of_wrong_dimension_rejected(self):
        with pytest.raises(DimensionMismatch, match="shift of dim 1 against set dim 2"):
            translate(points([[1.0, 2.0]]), [1.0])

    def test_inverse(self):
        A = box([0.0, 0.5], [1.0, math.inf], [True, False], [False, True])
        back = translate(translate(A, [3.0, -2.0]), [-3.0, 2.0])
        assert back.boxes[0].lo == A.boxes[0].lo
        assert back.boxes[0].hi == A.boxes[0].hi

    def test_order_compatibility(self, ctx2):
        # A below B iff A+v below B+v: Minkowski-translation compatibility
        from setorder.order import lower_le

        rng = np.random.default_rng(8)
        A = points(rng.integers(-4, 4, (3, 2)) * 0.5)
        B = points(rng.integers(-4, 4, (4, 2)) * 0.5)
        for v in rng.integers(-4, 4, (20, 2)) * 0.5:
            assert lower_le(A, B, ctx2) == lower_le(translate(A, v), translate(B, v), ctx2)


class TestIsCProper:
    def test_origin_certificate(self):
        v = is_c_proper(points([[0.0, 0.0]]), R2)
        assert v.is_holds
        assert v.certificate["point"].tolist() == [-1.0, -1.0]

    def test_unit_box_certificate(self):
        v = is_c_proper(box([0.0, 0.0], [1.0, 1.0]), R2)
        assert v.is_holds
        assert v.certificate["point"].tolist() == [-1.0, -1.0]

    def test_random_cloud_certificate_below_min(self):
        rng = np.random.default_rng(17)
        A = points(rng.standard_normal((100, 2)))
        v = is_c_proper(A, R2)
        assert v.is_holds
        assert np.all(v.certificate["point"] < A.points.min(axis=0))

    def test_general_cone_cloud(self):
        v = is_c_proper(points([[0.0, 0.0], [1.0, 3.0]]), ABS_CONE)
        assert v.is_holds
        z = v.certificate["point"]
        assert not in_closed_upset(points([[0.0, 0.0], [1.0, 3.0]]), z, ABS_CTX)

    def test_box_general_cone_inconclusive(self):
        v = is_c_proper(box([0.0, 0.0], [1.0, 1.0]), ABS_CONE)
        assert v.is_inconclusive


class TestInteriorProposition:
    def test_shift_by_interior_point_lands_strictly_inside(self):
        # {u} + cl(A + C) sits inside A + int(C)
        rng = np.random.default_rng(29)
        for _ in range(100):
            boxes = tuple(
                Box(tuple(rng.integers(-4, 4, 2) * 0.5), (math.inf, math.inf),
                    tuple(bool(b) for b in rng.integers(0, 2, 2)), (True, True))
                for _ in range(rng.integers(1, 4)))
            A = BoxUnion(2, boxes)
            u = rng.uniform(0.05, 2.0, 2)   # interior of the orthant
            corners, _ = A.lower_corners()
            samples = np.vstack([corners, sample_points(A, rng, 20)])
            for z in samples:
                assert in_closed_upset(A, z, EXACT2)
                zu = z + u
                assert any(R2.dominates(c, zu, strict=True, tol=0.0) for c in corners)
