"""Preorder laws on exact lattice instances.

Everything here runs with zero violation tolerance: generated coordinates
are half-integers and scaling factors are exact in binary, so a single law
violation is a real bug, never float noise.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from setorder._kernels import LARGE, LOWER, STRICT, rel_corners
from setorder.cone import Cone
from setorder.errors import DimensionMismatch, Unsupported
from setorder.order import (
    CornerTable,
    OrderCtx,
    _pair_tol,
    corner_table,
    equiv,
    large_le,
    lower_le,
    shift_margin,
    _h_rows,
    strict_lt,
    table_from_corners,
    table_rel,
)
from setorder.problem import _exterior_rows
from setorder.setrep import Box, BoxUnion, _corner_data, box, points, translate

from conftest import EXACT_SCALES, lattice_cloud, lattice_set, random_solid_cone, scale_set
from reference import EPS_SCHEDULE, exterior_point, is_c_proper, strict_lt_by_search

R1 = Cone.orthant(1)
R2 = Cone.orthant(2)
CTX1 = OrderCtx(R1)
CTX2 = OrderCtx(R2)
ABS_CTX = OrderCtx(Cone.from_halfspaces([[-1.0, 1.0], [1.0, 1.0]]))


class TestOrderCtx:
    def test_a_context_is_a_cone_and_a_tolerance(self):
        assert [f.name for f in dataclasses.fields(OrderCtx)] == ["cone", "tol"]
        with pytest.raises(TypeError):
            OrderCtx(R2, eps_schedule=(1.0, 0.5))

    @pytest.mark.parametrize("tol", [math.nan, -1e-9])
    def test_nan_or_negative_tol_is_refused(self, tol):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            OrderCtx(R2, tol=tol)

    @pytest.mark.parametrize("tol", [0.0, math.inf])
    def test_zero_or_infinite_tol_keeps_reflexivity(self, tol):
        # an infinite tol is a doubled --tol 1e308 (solve._closedness_probe)
        ctx = OrderCtx(R2, tol=tol)
        A = points([[0.0, 1.0], [1.0, 0.0]])
        assert ctx.tol == tol and large_le(A, A, ctx)


class TestFrozenExamples:
    def test_lower_point_pair(self):
        assert lower_le(points([[0.0, 0.0]]), points([[1.0, 1.0]]), CTX2)

    def test_lower_reflexive(self):
        A = box([0.0, 0.0], [1.0, 1.0], [True, False], [True, True])
        assert lower_le(A, A, CTX2)

    def test_piecewise_jump_not_lower(self):
        # value at the right plateau vs value on the left branch
        A = box([-1.0, 2.0], [5.0, 3.0])
        B = box([0.0, 0.0], [1.0, 1.0], [True, True], [True, False])
        assert not lower_le(A, B, CTX2)

    def test_large_adds_lower_face(self):
        A = box([0.0, 0.0], [1.0, 1.0], [True, True], [True, False])
        B = points([[0.0, 0.5]])
        assert large_le(A, B, CTX2)
        assert not lower_le(A, B, CTX2)

    def test_large_reflexive(self):
        A = points([[2.0, -1.0], [0.0, 0.5]])
        assert large_le(A, A, CTX2)

    def test_large_scalar_counterexample(self):
        assert not large_le(points([[0.0]]), points([[-1.0]]), CTX1)

    def test_strict_scalar(self):
        assert strict_lt(points([[0.0]]), points([[1.0]]), CTX1)

    def test_strict_irreflexive_on_points(self):
        assert not strict_lt(points([[0.0]]), points([[0.0]]), CTX1)

    def test_equiv_half_open_closed(self):
        assert equiv(box([0.0], [1.0], [True], [False]), box([0.0], [1.0]), CTX1)

    def test_equiv_reflexive(self):
        A = box([0.0, 1.0], [2.0, 3.0])
        assert equiv(A, A, CTX2)

    def test_equiv_distinct_points(self):
        assert not equiv(points([[0.0, 0.0]]), points([[1.0, 1.0]]), CTX2)


class TestNotProperWitness:
    """Properness two ways, which must agree: a point outside cl(A + C)
    exists (reference.is_c_proper), and A is not strictly below itself."""

    def test_point(self):
        A = points([[0.0, 0.0]])
        assert is_c_proper(A, CTX2.cone).is_holds
        assert not strict_lt(A, A, CTX2)

    def test_box(self):
        A = box([0.0, 0.0], [1.0, 1.0])
        assert is_c_proper(A, CTX2.cone).is_holds
        assert not strict_lt(A, A, CTX2)

    @given(lattice_cloud(dim=2))
    @settings(max_examples=100)
    def test_random_clouds(self, A):
        assert is_c_proper(A, CTX2.cone).is_holds
        assert not strict_lt(A, A, CTX2)

    def test_unsupported_pair_inconclusive(self):
        A = box([0.0, 0.0], [1.0, 1.0])
        assert is_c_proper(A, ABS_CTX.cone).is_inconclusive
        with pytest.raises(Unsupported):
            strict_lt(A, A, ABS_CTX)


class TestPreorderLaws:
    @given(lattice_set(dim=2))
    @settings(max_examples=200)
    def test_reflexivity(self, A):
        assert lower_le(A, A, CTX2)
        assert large_le(A, A, CTX2)

    @given(lattice_set(dim=2), lattice_set(dim=2), lattice_set(dim=2))
    @settings(max_examples=300)
    def test_transitivity(self, A, B, D):
        if lower_le(A, B, CTX2) and lower_le(B, D, CTX2):
            assert lower_le(A, D, CTX2)
        if large_le(A, B, CTX2) and large_le(B, D, CTX2):
            assert large_le(A, D, CTX2)

    @given(lattice_set(dim=2), lattice_set(dim=2))
    @settings(max_examples=300)
    def test_chain(self, A, B):
        if strict_lt(A, B, CTX2):
            assert lower_le(A, B, CTX2)
        if lower_le(A, B, CTX2):
            assert large_le(A, B, CTX2)

    @given(lattice_set(dim=2), lattice_set(dim=2), lattice_set(dim=2))
    @settings(max_examples=300)
    def test_mixed_transitivity(self, A, B, D):
        # strict then large is still strict: convexity of the cone
        if strict_lt(A, B, CTX2) and large_le(B, D, CTX2):
            assert strict_lt(A, D, CTX2)

    @given(lattice_set(dim=2), lattice_set(dim=2))
    @settings(max_examples=200)
    def test_scaling_invariance(self, A, B):
        base = (lower_le(A, B, CTX2), large_le(A, B, CTX2), strict_lt(A, B, CTX2))
        for lam in EXACT_SCALES:
            As, Bs = scale_set(A, lam), scale_set(B, lam)
            assert base == (lower_le(As, Bs, CTX2), large_le(As, Bs, CTX2),
                            strict_lt(As, Bs, CTX2))

    @given(lattice_set(dim=2), lattice_set(dim=2), lattice_set(dim=2))
    @settings(max_examples=200)
    def test_equiv_laws(self, A, B, D):
        assert equiv(A, A, CTX2)
        if equiv(A, B, CTX2):
            assert equiv(B, A, CTX2)
        if equiv(A, B, CTX2) and equiv(B, D, CTX2):
            assert equiv(A, D, CTX2)


class TestEpsilonLemmas:
    @given(lattice_set(dim=2), lattice_set(dim=2))
    @settings(max_examples=200)
    def test_uniform_shift_gives_strict(self, A, B):
        # Lemma (a): cl-domination after an interior shift forces strictness
        eps = np.array([0.5, 1.0])
        if large_le(translate(A, eps), B, CTX2):
            assert strict_lt(A, B, CTX2)

    @given(lattice_set(dim=2), lattice_set(dim=2))
    @settings(max_examples=200)
    def test_strict_along_schedule_gives_large(self, A, B):
        # Lemma (b): strictness at every shrinking downshift forces cl-domination
        if all(strict_lt(translate(A, -t * CTX2.u), B, CTX2) for t in EPS_SCHEDULE):
            assert large_le(A, B, CTX2)

    @given(lattice_set(dim=2), lattice_set(dim=2))
    @settings(max_examples=200)
    def test_strict_agrees_with_ray_search(self, A, B):
        # lattice margins are never inside (0, 2^-20), so the two routes agree
        assert strict_lt(A, B, CTX2) == strict_lt_by_search(A, B, CTX2)


class TestGeneralCone:
    def test_cloud_relations(self):
        A = points([[0.0, 0.0]])
        B = points([[0.0, 1.0]])   # strictly inside the abs-cone above A
        assert lower_le(A, B, ABS_CTX)
        assert strict_lt(A, B, ABS_CTX)
        C = points([[2.0, 1.0]])   # outside the shifted cone
        assert not large_le(A, C, ABS_CTX)

    def test_box_raises_unsupported(self):
        with pytest.raises(Unsupported):
            lower_le(box([0.0, 0.0], [1.0, 1.0]), points([[1.0, 1.0]]), ABS_CTX)

    def test_pairs_match_tables_with_more_rows_than_axes(self):
        # three halfspace rows in R^2: a cloud's corners have 3 coordinates
        ctx = OrderCtx(Cone.from_halfspaces([[1.0, 0.2], [-0.3, 1.0], [1.0, 1.0]]))
        rng = np.random.default_rng(11)
        sets = [points(rng.integers(-3, 4, (rng.integers(1, 4), 2)) * 0.5)
                for _ in range(12)]
        tab = corner_table(sets, ctx.cone)
        got = table_rel(CornerTable(*(x[..., None] for x in tab)), tab,
                        (LOWER, LARGE, STRICT), ctx.tol)
        for i, A in enumerate(sets):
            for j, B in enumerate(sets):
                want = (lower_le(A, B, ctx), large_le(A, B, ctx), strict_lt(A, B, ctx))
                assert tuple(bool(m[i, j]) for m in got) == want, (i, j)


def quarter_sets(rng, kind: str, count: int) -> list:
    """``count`` sets in R^2 on the quarter lattice: box unions (one or two
    boxes, random lower-open flags), clouds of one to three points, or
    both, alternating, for kind "box", "cloud" or "mixed"."""
    out = []
    for i in range(count):
        cloud = kind == "cloud" or (kind == "mixed" and i % 2 == 1)
        lo = rng.integers(-4, 5, size=(int(rng.integers(1, 4 if cloud else 3)), 2)) / 4
        out.append(points(lo) if cloud else BoxUnion(2, tuple(
            Box(tuple(c.tolist()), tuple((c + 1.0).tolist()),
                tuple((rng.random(2) < 0.3).tolist()), (False, False))
            for c in lo)))
    return out


class TestPairTol:
    """table_rel gives each pair its tolerance from the two sets' cloud
    flags: 0 for two box unions (the kernel's exact path), tol when one
    side is all clouds, an array otherwise. Every answer equals
    ``rel_corners`` on that pair at the tolerance ``_rel`` gives it."""

    @pytest.mark.parametrize("a_kind, b_kind, branch", [
        ("box", "box", "exact"), ("cloud", "mixed", "scalar"),
        ("mixed", "cloud", "scalar"), ("cloud", "box", "scalar"),
        ("mixed", "mixed", "array"), ("box", "mixed", "array")])
    def test_each_branch_matches_rel_corners(self, a_kind, b_kind, branch):
        # a tolerance of a quarter straddles the quarter lattice
        ctx = OrderCtx(R2, tol=0.25)
        rng = np.random.default_rng(3)
        A, B = quarter_sets(rng, a_kind, 12), quarter_sets(rng, b_kind, 12)
        ta, tb = corner_table(A, R2), corner_table(B, R2)
        t = _pair_tol(ta.cloud[:, None], tb.cloud, ctx.tol)
        if branch == "array":
            assert isinstance(t, np.ndarray) and t.shape == (12, 12)
            assert set(t.ravel().tolist()) == {0.0, 0.25}
        else:
            assert type(t) is float and t == (0.0 if branch == "exact" else 0.25)
        got = table_rel(CornerTable(*(x[..., None] for x in ta)), tb,
                        (LOWER, LARGE, STRICT), ctx.tol)
        seen = set()
        for i, a in enumerate(A):
            ha, oa, a_cloud = _corner_data(a, R2)
            for j, b in enumerate(B):
                hb, ob, b_cloud = _corner_data(b, R2)
                tol = ctx.tol if a_cloud or b_cloud else 0.0
                for mode, mat in zip((LOWER, LARGE, STRICT), got):
                    want, _ = rel_corners(ha, oa, hb, ob, mode, b_cloud, tol)
                    assert bool(mat[i, j]) == want, (i, j, mode)
                    seen.add(want)
        assert seen == {True, False}

    def test_tolerance_decides_pairs(self):
        # at tol 0.25 a cloud a quarter above a box's corner is largely
        # below it, two boxes a quarter apart are not: each pair's own rule
        ctx = OrderCtx(R2, tol=0.25)
        low, high = box([0.25, 0.25], [1.0, 1.0]), box([0.0, 0.0], [1.0, 1.0])
        cloud = points([[0.25, 0.25]])
        tab = corner_table([low, cloud], R2)
        large, = table_rel(tab, corner_table([high], R2), (LARGE,), ctx.tol)
        assert large.tolist() == [False, True]
        assert [large_le(v, high, ctx) for v in (low, cloud)] == [False, True]


def corner_case(seed: int, dim: int, rows: int, counts: list[int], pad: int,
                shifts: int):
    """(cone, corners, count, shift): a general cone, clouds of ``counts``
    corners each (0 for a raising row) in an (N, K, dim) array padded with
    +inf to K = max(counts) + pad, and None or (shifts, dim) shift vectors."""
    rng = np.random.default_rng(seed)
    cone = random_solid_cone(rng, dim, rows)
    count = np.array(counts, dtype=np.intp)
    corners = np.full((len(counts), count.max() + pad, dim), np.inf)
    for i, k in enumerate(counts):
        corners[i, :k] = rng.standard_normal((k, dim)) * 10.0 ** rng.integers(-3, 4)
    shift = rng.standard_normal((shifts, dim)) if shifts else None
    return cone, corners, count, shift


@st.composite
def corner_cases(draw):
    dim = draw(st.integers(2, 4))
    return corner_case(draw(st.integers(0, 2 ** 32 - 1)), dim,
                       draw(st.integers(dim, dim + 3)),
                       draw(st.lists(st.integers(0, 5), min_size=1, max_size=12)),
                       draw(st.integers(0, 2)), draw(st.integers(0, 3)))


class TestHRows:
    """Under a general cone, the corner tables' H-coordinates equal each
    set's own ``_corner_data`` bit for bit, though they are computed in one
    stacked product per corner count."""

    @given(corner_cases())
    @settings(max_examples=150, deadline=None)
    @example(corner_case(1, 3, 5, [1, 3, 0, 2, 1, 3], 1, 2))   # ragged, raising, shifted
    @example(corner_case(2, 2, 3, [0, 0, 0], 0, 0))            # K = 0
    @example(corner_case(3, 2, 4, [0, 0], 2, 3))               # K = 0, shifted
    def test_tables_match_per_set_corner_data(self, case):
        cone, corners, count, shift = case
        assume(cone.kind == "general")
        n, m = len(count), len(cone.halfspaces)
        cloud = np.ones(n, dtype=bool)
        tab = table_from_corners(corners, np.zeros(corners.shape, np.uint8), cloud,
                                 count, cone, shift)
        moves = [None] if shift is None else list(shift)
        lead = (n,) if shift is None else (len(shift), n)
        assert tab.h.shape == (int(count.max()), m) + lead
        assert not tab.o.any() and tab.cloud.shape == lead
        h_all = _h_rows(cone, corners if shift is None
                        else corners[None] + shift[:, None, None], count)
        for h in (tab.h, h_all):
            h = np.moveaxis(h, (0, 1), (-2, -1)).reshape(len(moves), n, -1, m)
            for e, move in enumerate(moves):
                for i, k in enumerate(count.tolist()):
                    assert np.isposinf(h[e, i, k:]).all()
                    if k:
                        A = points(corners[i, :k])
                        want = _corner_data(A if move is None else translate(A, move),
                                            cone)[0]
                        assert h[e, i, :k].tobytes() == want.tobytes(), (e, i)

    @given(corner_cases())
    @settings(max_examples=50, deadline=None)
    def test_exterior_points_match_per_value(self, case):
        cone, corners, count, _ = case
        assume(cone.kind == "general" and count.all())
        rows = (corners, np.zeros(corners.shape, np.uint8),
                np.ones(len(count), dtype=bool), count)
        checked, _, z = _exterior_rows(rows, cone)
        assert checked.tolist() == list(range(len(count)))
        for i, k in enumerate(count.tolist()):
            assert z[i].tobytes() == exterior_point(points(corners[i, :k]), cone).tobytes()


class TestDimensionMismatch:
    @pytest.mark.parametrize("ctx", [CTX2, ABS_CTX], ids=["orthant", "general"])
    def test_both_relation_paths_refuse(self, ctx):
        # a 1-D set against a 2-D cone, asked pair by pair and as a table
        A, B = points([[0.0]]), points([[1.0, 1.0]])
        for rel in (lower_le, large_le, strict_lt):
            with pytest.raises(DimensionMismatch, match="set dim 1"):
                rel(A, B, ctx)
        with pytest.raises(DimensionMismatch, match="set dim 1"):
            corner_table([B, A], ctx.cone)


class TestShiftMargin:
    def test_slack_measured_along_u(self):
        s = shift_margin(points([[0.0, 0.0]]), points([[2.0, 3.0]]), CTX2)
        assert type(s) is float and s == 2.0

    def test_violation_negative(self):
        s = shift_margin(points([[1.0]]), points([[0.0]]), CTX1)
        assert s == -1.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            A = points(rng.integers(-6, 6, (rng.integers(1, 5), 2)) * 0.5)
            B = points(rng.integers(-6, 6, (rng.integers(1, 5), 2)) * 0.5)
            D = points(rng.integers(-6, 6, (rng.integers(1, 5), 2)) * 0.5)
            sab = shift_margin(A, B, CTX2)
            sbd = shift_margin(B, D, CTX2)
            sad = shift_margin(A, D, CTX2)
            assert sad >= sab + sbd - 1e-12
