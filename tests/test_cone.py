"""Cone predicates, witnesses, and the geometry laws they must respect."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setorder.cone import Cone, cone_subset, fineness_witness, scale_witness
from setorder.errors import (
    ConeSpecError,
    ContainmentNotEstablished,
    DimensionMismatch,
    NotSolid,
)

from conftest import random_solid_cone
from reference import max_margin_oracle

R1 = Cone.orthant(1)
R2 = Cone.orthant(2)
R3 = Cone.orthant(3)
ABS_CONE = Cone.from_halfspaces([[-1.0, 1.0], [1.0, 1.0]])   # z2 >= |z1|
HALFPLANE = Cone.from_halfspaces([[0.0, 1.0]])               # z2 >= 0, not pointed


class TestContains:
    def test_origin(self):
        assert R2.contains([0.0, 0.0], tol=0.0)

    def test_tolerance_band(self):
        assert R2.contains([1.0, -1e-12], tol=1e-9)
        assert not R2.contains([1.0, -1e-6], tol=1e-9)

    def test_abs_cone_rejects_shallow_point(self):
        # margins: (-2+1)/sqrt2 < 0, (2+1)/sqrt2 > 0
        assert not ABS_CONE.contains([2.0, 1.0])
        assert ABS_CONE.contains([1.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            R2.contains([1.0, 2.0, 3.0])


class TestContainsInterior:
    def test_interior_point(self):
        assert R2.contains_interior([1.0, 1.0], tol=1e-9)

    def test_boundary_point(self):
        assert not R2.contains_interior([1.0, 0.0], tol=1e-9)

    def test_scalar_cone(self):
        assert R1.contains_interior([0.5], tol=0.0)


class TestDominates:
    def test_strict(self):
        assert R2.dominates([0.0, 0.0], [1.0, 2.0], strict=True)

    def test_reflexive_vs_strict(self):
        a = [0.3, 0.7]
        assert R2.dominates(a, a, strict=False)
        assert not R2.dominates(a, a, strict=True)

    def test_incomparable(self):
        assert not R2.dominates([0.0, 1.0], [1.0, 0.0], strict=False)
        assert not R2.dominates([0.0, 1.0], [1.0, 0.0], strict=True)


class TestInteriorDirection:
    def test_orthant_is_all_ones(self):
        assert np.array_equal(R3.interior_direction, np.ones(3))

    def test_two_row_cone_margins(self):
        C = Cone.from_halfspaces([[1.0, 0.0], [1.0, 1.0]])
        margins = C.halfspaces @ C.interior_direction
        assert margins.min() >= 1.0

    def test_degenerate_cone_rejected(self):
        with pytest.raises(NotSolid):
            Cone.from_halfspaces([[1.0], [-1.0]])

    def test_abs_cone_direction(self):
        # the optimum of the margin search is the vertical, scaled to margin 1
        u = ABS_CONE.interior_direction
        assert abs(u[0]) < 1e-12
        assert u[1] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_min_margin_at_least_one(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            C = random_solid_cone(rng, int(rng.integers(2, 5)), int(rng.integers(1, 5)))
            assert (C.halfspaces @ C.interior_direction).min() >= 1.0

    def test_direction_is_max_margin(self):
        # the direction is the LP optimum, not just some interior point
        rng = np.random.default_rng(41)
        for _ in range(40):
            C = random_solid_cone(rng, int(rng.integers(1, 4)), int(rng.integers(1, 6)))
            u = C.interior_direction
            margin = (C.halfspaces @ u).min() / np.abs(u).max()
            assert margin == pytest.approx(max_margin_oracle(C.halfspaces), abs=1e-12)

    @pytest.mark.parametrize("rows", [
        [[1.0, 0.0], [-1.0, 0.0]],
        [[1.0, 2.0, 3.0], [0.0, 1.0, 0.0], [-1.0, -2.0, -3.0]],
    ])
    def test_cone_with_opposite_rows_rejected(self, rows):
        with pytest.raises(NotSolid):
            Cone.from_halfspaces(rows)

    @pytest.mark.parametrize("s", [1e-4, 1e-6, 1e-8])
    def test_thin_cone_builds(self, s):
        # optimal box margin ~1.4 s is far above the NotSolid floor; rounding
        # after the rescale must not reject it
        c = np.array([1.0, 1.0]) / math.sqrt(2.0)
        p = np.array([1.0, -1.0]) / math.sqrt(2.0)
        C = Cone.from_halfspaces([p + s * c, -p + s * c])
        assert (C.halfspaces @ C.interior_direction).min() >= 1.0

    def test_non_pointed_and_few_row_cones_build(self):
        C = Cone.from_halfspaces([[1.0, 2.0, 0.5]])
        D = Cone.from_halfspaces([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0]])
        for K in (HALFPLANE, C, D):
            assert (K.halfspaces @ K.interior_direction).min() >= 1.0

    def test_direction_is_deterministic(self):
        rows = np.random.default_rng(3).standard_normal((5, 4)) * 0.4 + 1.0
        u1 = Cone.from_halfspaces(rows).interior_direction
        u2 = Cone.from_halfspaces(rows).interior_direction
        assert u1.tobytes() == u2.tobytes()


class TestConstruction:
    def test_orthant_detected_from_scaled_rows(self):
        C = Cone.from_halfspaces([[0.0, 3.0], [2.0, 0.0]])
        assert C.kind == "orthant"

    def test_tilted_rows_stay_general(self):
        assert ABS_CONE.kind == "general"

    def test_rows_unit_normalized(self):
        C = Cone.from_halfspaces([[3.0, 4.0], [0.0, 2.0]])
        assert np.allclose(np.linalg.norm(C.halfspaces, axis=1), 1.0)

    def test_zero_row_rejected(self):
        with pytest.raises(ConeSpecError):
            Cone.from_halfspaces([[0.0, 0.0]])

    def test_not_whole_space(self):
        # -u must violate some halfspace in every accepted cone
        for C in (R1, R2, ABS_CONE, HALFPLANE):
            assert not C.contains(-C.interior_direction, tol=0.0)

    def test_json_round_trip(self):
        for C in (R2, ABS_CONE):
            C2 = Cone.from_json(C.to_json())
            assert C2.kind == C.kind
            assert np.array_equal(C2.halfspaces, C.halfspaces)


class TestScaleWitness:
    def test_unit_case(self):
        assert scale_witness(R1, [1.0], [2.0]) == 1

    def test_five_needed(self):
        assert scale_witness(R1, [5.0], [2.0]) == 5

    def test_origin_needs_one(self):
        assert scale_witness(R1, [0.0], [2.0]) == 1
        assert scale_witness(R2, [0.0, 0.0], [1.0, 1.0]) == 1

    def test_witness_is_minimal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            C = random_solid_cone(rng, 2, 3)
            u = C.interior_direction * rng.uniform(0.5, 2.0)
            c = C.interior_direction * rng.uniform(0.0, 5.0)
            N = scale_witness(C, c, u)
            assert C.contains(u / 2 - c / N)
            if N > 1:
                assert not C.contains(u / 2 - c / (N - 1))

    def test_strict_domination_follows(self):
        # u/2 - c/N in C forces N*u - c into the interior
        from setorder.order import OrderCtx, strict_lt
        from setorder.setrep import points

        rng = np.random.default_rng(23)
        for _ in range(20):
            C = random_solid_cone(rng, 2, 2)
            ctx = OrderCtx(C)
            c = C.interior_direction * rng.uniform(0.0, 4.0)
            u = C.interior_direction * rng.uniform(0.5, 1.5)
            N = scale_witness(C, c, u)
            assert strict_lt(points([c]), points([N * u]), ctx)

    def test_precondition_checked(self):
        with pytest.raises(ContainmentNotEstablished):
            scale_witness(R1, [-1.0], [1.0])
        with pytest.raises(ContainmentNotEstablished):
            scale_witness(R2, [1.0, 1.0], [1.0, 0.0])


class TestFinenessWitness:
    def test_orthant_self(self):
        N, u = fineness_witness(R2, R2, [1.0, 1.0])
        assert N == 2
        assert np.allclose(u, [0.5, 0.5])
        assert R2.dominates(u, [1.0, 1.0], strict=True)

    def test_abs_cone_in_halfplane(self):
        N, u = fineness_witness(ABS_CONE, HALFPLANE, [0.0, 1.0])
        assert N == 3
        assert HALFPLANE.dominates(u, [0.0, 1.0], strict=True)

    def test_boundary_u2_rejected(self):
        with pytest.raises(ContainmentNotEstablished):
            fineness_witness(R2, R2, [1.0, 0.0])

    def test_non_subset_refuted(self):
        with pytest.raises(ContainmentNotEstablished):
            cone_subset(R2, ABS_CONE)


class TestConeSubset:
    def test_general_cones_decided_exactly(self):
        assert cone_subset(ABS_CONE, HALFPLANE) == (True, "exact")
        C = Cone.from_halfspaces([[1.0, 1.0, 1.0]])
        assert cone_subset(Cone.from_halfspaces(np.eye(3) + 0.1), C) == (True, "exact")

    def test_orthant_refutation_names_its_point(self):
        # e1 lies in the orthant and fails ABS_CONE's row 0 (z2 >= z1)
        with pytest.raises(ContainmentNotEstablished,
                           match=r"point \[1\.0, 0\.0\] of C1 .* \(row 0\)"):
            cone_subset(R2, ABS_CONE)

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6])
    def test_sliver_refuted(self, eps):
        # C1 reaches to near e3, where the extra row of C2 reads about -eps
        rows = np.eye(3) + 1e-3 * np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        C1 = Cone.from_halfspaces(rows)
        C2 = Cone.from_halfspaces(np.vstack([rows, [1.0, 1.0, -eps]]))
        with pytest.raises(ContainmentNotEstablished, match="row 3"):
            cone_subset(C1, C2)


NONNEG = st.floats(0.0, 10.0, allow_nan=False)
SCALE = st.floats(1e-3, 1e3, allow_nan=False)


class TestGeometryLaws:
    @given(st.lists(st.integers(-8, 8).map(lambda k: k * 0.5), min_size=2, max_size=2),
           st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]))
    @settings(max_examples=200)
    def test_cone_law_scaling(self, z, lam):
        # lattice z and dyadic-or-small-integer lam keep lam*z exact, so the
        # positive-scaling law holds with tol=0 and no rounding escape hatch
        assert ABS_CONE.contains(z, tol=0.0) == ABS_CONE.contains(np.array(z) * lam, tol=0.0)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    def test_interior_implies_membership(self, z):
        if ABS_CONE.contains_interior(z, tol=0.0):
            assert ABS_CONE.contains(z, tol=0.0)

    @given(st.lists(NONNEG, min_size=3, max_size=3), st.lists(NONNEG, min_size=3, max_size=3))
    def test_convexity_orthant(self, a, b):
        assert R3.contains(np.array(a) + np.array(b), tol=0.0)

    def test_interior_absorbs_cone(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            C = random_solid_cone(rng, 3, 3)
            u = C.interior_direction * rng.uniform(0.1, 3.0)
            extra = rng.standard_normal(3)
            lift = max(0.0, -float((C.halfspaces @ extra).min())) * 1.01
            c = extra + lift * C.interior_direction
            assert C.contains(c, tol=1e-12)
            assert C.contains_interior(u + c, tol=0.0)
