"""Solver-layer tests: minimal sets, level sets, representants, Hypothesis (H).

seq_lower_converse is exercised in test_converge.py since it needs the
sequence battery.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    brute_eff,
    brute_level_set,
    brute_level_set_above,
    eff_json,
    random_problem,
    validate_witnesses,
)

from setorder import order, solve
from setorder._kernels import LARGE, LOWER, STRICT, covered, rel_corners
from setorder.cone import DEFAULT_TOL, Cone
from setorder.errors import InternalCheckError
from setorder.order import (CornerTable, OrderCtx, _pair_tol, corner_table, large_le,
                            lower_le, strict_lt, table_rel)
from setorder.problem import Domain, Problem, TableMap, load_builtin
from setorder.setrep import Box, BoxUnion, PointCloud, _corner_data, box, points, translate
from setorder.solve import (
    KINDS,
    EffResult,
    NoFiniteRepresentant,
    Representant,
    classical_level_set,
    eff,
    hypothesis_h,
    l_set,
    relation_matrices,
    representants,
    strong_level_set,
    value_table,
)


@pytest.fixture(scope="module")
def geff():
    fam = load_builtin("geff_vs_reff")
    return fam if isinstance(fam, Problem) else fam.base


@pytest.fixture(scope="module")
def sop_base():
    return load_builtin("sop_sin").base


@pytest.fixture(scope="module")
def geff_ctx(geff):
    return OrderCtx(geff.cone)


@pytest.fixture(scope="module")
def sop_ctx(sop_base):
    return OrderCtx(sop_base.cone)


def table_problem(vals, cone, pts=None):
    pts = np.asarray(pts if pts is not None else
                     [[float(i)] for i in range(len(vals))])
    keyed = {tuple(map(float, p)): v for p, v in zip(pts, vals)}
    fn = lambda x: keyed[tuple(map(float, x))]
    return Problem("table", TableMap(fn, cone.dim), cone, Domain.from_points(pts))


class TestMinimalSets:
    def test_geff_vs_reff_counts(self, geff, geff_ctx):
        g = eff(geff, "Geoffroy", geff_ctx)
        r = eff(geff, "Relaxed", geff_ctx)
        assert len(g.indices) == 30
        assert len(r.indices) == 50
        xs = geff.domain.points[:, 0]
        assert all(xs[i] < 0 or xs[i] >= 2 for i in g.indices)
        # every grid point below 0 and at/above 2 is present, none missed
        assert sum(1 for x in xs if x < 0) == 10
        assert sum(1 for x in xs if x >= 2) == 20

    def test_geff_vs_reff_other_kinds(self, geff, geff_ctx):
        assert eff(geff, "Strong", geff_ctx).indices == ()
        # with no strong point, Pareto coincides with Geoffroy on this instance
        assert eff(geff, "Pareto", geff_ctx).indices == \
            eff(geff, "Geoffroy", geff_ctx).indices

    def test_sop_relaxed_is_origin(self, sop_base, sop_ctx):
        for kind in KINDS:
            res = eff(sop_base, kind, sop_ctx)
            assert res.indices == (0,), kind
        assert float(sop_base.domain.points[0, 0]) == 0.0

    def test_constant_map_everything_minimal(self, geff_ctx):
        v = box([0.0, 0.0], [1.0, 1.0])
        P = table_problem([v] * 7, Cone.orthant(2),
                          pts=[[float(i), 0.0] for i in range(7)])
        for kind in KINDS:
            assert eff(P, kind, geff_ctx).indices == tuple(range(7))

    def test_json_is_the_former_field_list(self, geff, geff_ctx):
        # Strong is empty on geff_vs_reff; the table problem's points have
        # two coordinates, which the one row per index must keep
        P = table_problem([points([[float(i), 2.0 - i]]) for i in range(3)],
                          Cone.orthant(2), pts=[[float(i), -1.0] for i in range(3)])
        for Q in (geff, P):
            for kind in KINDS:
                res = eff(Q, kind, OrderCtx(Q.cone))
                assert res.to_json(Q) == eff_json(res, Q), kind
        assert eff(geff, "Strong", geff_ctx).to_json(geff)["points"] == []

    def test_unknown_kind_rejected(self, geff, geff_ctx):
        with pytest.raises(ValueError, match="minimality kind"):
            eff(geff, "Total", geff_ctx)

    def test_witnesses_definitional(self, geff, geff_ctx):
        for kind in KINDS:
            res = eff(geff, kind, geff_ctx)
            validate_witnesses(geff, kind, res.indices, res.witness, geff_ctx)

    def test_matrices_cached_per_ctx(self, geff, geff_ctx):
        a = relation_matrices(geff, geff_ctx)
        b = relation_matrices(geff, geff_ctx)
        assert a[0] is b[0] and a[2] is b[2]
        other = OrderCtx(geff.cone, tol=1e-6)
        c = relation_matrices(geff, other)
        assert c[0] is not a[0]

    def test_eff_kept_per_ctx_and_kind(self, monkeypatch):
        P = table_problem([points([[float(i), 2.0 - i]]) for i in range(3)]
                          + [points([[3.0, 3.0]])], Cone.orthant(2))
        ctx = OrderCtx(P.cone)
        asked = []
        excluders = solve._excluders
        monkeypatch.setattr(solve, "_excluders",
                            lambda *a: asked.append(a[2]) or excluders(*a))
        first = [eff(P, kind, ctx) for kind in KINDS]
        # the relation matrices' cross-check reads eff's Geoffroy and
        # Relaxed sets, so each kind's excluders are built once
        assert sorted(asked) == sorted(KINDS)
        assert all(eff(P, kind, ctx) is got for kind, got in zip(KINDS, first))
        assert sorted(asked) == sorted(KINDS)
        assert first[2].indices == (0, 1, 2) and first[2].witness == {3: 0}
        other = eff(P, "Geoffroy", OrderCtx(P.cone, tol=1e-6))
        assert other is not first[2] and other == first[2]
        assert sorted(asked[4:]) == ["Geoffroy", "Relaxed"]


def inject_matrices(monkeypatch, lower, large, strict):
    """Makes the one-slot path of relation_matrices read these matrices: a
    problem of single-point values goes to table_rel in one row block of
    order.table_matrices."""
    def table_rel(a, b, modes, tol):
        assert modes == (LOWER, LARGE, STRICT) and a.cloud.shape == (len(b.cloud), 1)
        return tuple(np.array(x, dtype=bool) for x in (lower, large, strict))

    monkeypatch.setattr(order, "table_rel", table_rel)


class TestCrossChecks:
    """Both checks raise on matrices that break a theorem; each test feeds
    its check such matrices, so deleting the check fails the test."""

    def test_geoffroy_outside_relaxed_raises(self, monkeypatch):
        # two incomparable values, both Geoffroy-minimal, with a STRICT
        # entry that excludes index 1 from the relaxed-minimal set
        P = table_problem([points([[0.0, 1.0]]), points([[1.0, 0.0]])], Cone.orthant(2))
        eye = np.eye(2, dtype=bool)
        inject_matrices(monkeypatch, eye, eye, [[False, True], [False, False]])
        with pytest.raises(InternalCheckError,
                           match="Geoffroy-minimal index 1 is not relaxed-minimal"):
            relation_matrices(P, OrderCtx(P.cone))

    def test_level_set_reaching_a_non_minimal_index_raises(self, monkeypatch):
        # 2 is strictly below 1, which is equivalent to 0, yet 2 is not below
        # 0: no preorder does that. So 1 is excluded, 0 and 2 are Geoffroy-
        # minimal, and the level set at 0 reaches 1
        P = table_problem([points([[float(i)]]) for i in range(3)], Cone.orthant(1))
        large = [[True, True, False], [True, True, False], [False, True, True]]
        inject_matrices(monkeypatch, large, large, np.zeros((3, 3), dtype=bool))
        ctx = OrderCtx(P.cone)
        assert eff(P, "Geoffroy", ctx).indices == (0, 2)
        with pytest.raises(InternalCheckError,
                           match="level set of minimal index 0 reaches non-minimal index 1"):
            representants(P, ctx)

    def test_level_set_missing_its_representant_raises(self, monkeypatch):
        # LARGE is reflexive, so every level set holds its representant and
        # the greedy loop removes it; without the diagonal entry at 0 the
        # loop would pick 0 again and again
        P = table_problem([points([[0.0, 1.0]]), points([[1.0, 0.0]])], Cone.orthant(2))
        large = [[False, False], [False, True]]
        inject_matrices(monkeypatch, large, large, np.zeros((2, 2), dtype=bool))
        ctx = OrderCtx(P.cone)
        assert eff(P, "Geoffroy", ctx).indices == (0, 1)
        with pytest.raises(InternalCheckError,
                           match="LARGE misses the diagonal at minimal index 0"):
            representants(P, ctx)


@st.composite
def multi_corner_problems(draw):
    """Up to 8 values of 1-3 corners on a half-step lattice, some a tol off
    it: clouds under the orthant or a general cone, or (orthant only) box
    unions with random open lower ends."""
    d = draw(st.integers(1, 3))
    general = d > 1 and draw(st.booleans())
    cone = (Cone.from_halfspaces(np.eye(d) + 0.25 * np.eye(d, k=1)) if general
            else Cone.orthant(d))
    coord = st.builds(lambda v, e: 0.5 * v + e, st.integers(-3, 3),
                      st.sampled_from([0.0, DEFAULT_TOL, -DEFAULT_TOL]))
    corners = st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=3)
    flags = st.lists(st.booleans(), min_size=d, max_size=d)
    vals = []
    for _ in range(draw(st.integers(2, 8))):
        lo = draw(corners)
        if general or draw(st.booleans()):
            vals.append(points(lo))
        else:
            vals.append(BoxUnion(d, tuple(
                Box(tuple(r), tuple(v + 1.0 for v in r), tuple(draw(flags)), (False,) * d)
                for r in lo)))
    return table_problem(vals, cone)


def per_pair_matrices(P, ctx):
    """(lower, large, strict) from one rel_corners call per pair and relation,
    at the pair's tolerance: tol when either set is a cloud, 0 for two boxes."""
    data = [_corner_data(v, ctx.cone) for v in P.values()]
    n = len(data)
    out = np.empty((3, n, n), dtype=bool)
    for i, (ca, oa, a_cloud) in enumerate(data):
        for j, (cb, ob, b_cloud) in enumerate(data):
            t = ctx.tol if a_cloud or b_cloud else 0.0
            for r, mode in enumerate((LOWER, LARGE, STRICT)):
                out[r, i, j] = rel_corners(ca, oa, cb, ob, mode, b_cloud, t)[0]
    return out


def ideal_strict(h_a, ideal_b, t):
    """[p]: STRICT of A-set p, corners h_a (k, m, P), against B-set p's ideal
    point, ideal_b (m, P), at the pairs' tolerances t: the sufficient test of
    order.table_matrices, which settles a pair True in all three matrices."""
    return covered(h_a[None], ideal_b[None, None], t, (STRICT,))[0][0]


def ideal_tests(monkeypatch):
    """Records (modes, result) of each ideal-point test order.table_matrices
    asks of the kernel, in order. They are its kernel calls without openness
    flags: per row block the candidate test, LARGE between two sets' ideal
    points, (rows, N), and per chunk of its candidates the sufficient test,
    STRICT of each A-set against B's ideal point, (pairs,)."""
    asked, real = [], order.covered

    def recorded(A, B, t, modes, flags=None):
        got = real(A, B, t, modes, flags)
        if flags is None:   # a copy: the candidate mask is then settled in place
            asked.append((modes, got[0][0].copy()))
        return got

    monkeypatch.setattr(order, "covered", recorded)
    return asked


class TestRelationMatrices:
    def test_cloud_tolerance_boundary(self):
        # the second point sits just above the first plus tol; the matrices
        # must apply strict_lt's B > A + tol, which B - A > tol rounds away
        P = table_problem([points([[2.739233746429086]]),
                           points([[2.739233747429086]])], Cone.orthant(1))
        ctx = OrderCtx(P.cone)
        for kind in KINDS:
            assert eff(P, kind, ctx).indices == brute_eff(P, kind, ctx), kind
        lower, large, strict = relation_matrices(P, ctx)
        for i, a in enumerate(P.values()):
            for j, b in enumerate(P.values()):
                assert (lower[i, j], large[i, j], strict[i, j]) == (
                    lower_le(a, b, ctx), large_le(a, b, ctx), strict_lt(a, b, ctx))

    def test_matches_per_pair_kernel(self):
        rng = np.random.default_rng(20261018)
        multi = 0
        for trial in range(20):
            P = random_problem(rng, max_points=24)
            ctx = OrderCtx(P.cone)
            multi += any(_corner_data(v, P.cone)[0].shape[0] > 1 for v in P.values())
            got = np.array(relation_matrices(P, ctx))
            np.testing.assert_array_equal(got, per_pair_matrices(P, ctx),
                                          err_msg=f"trial {trial}, {P.label}")
        assert multi >= 15

    @pytest.mark.parametrize("cone", [Cone.orthant(2),
                                      Cone.from_halfspaces([[1.0, 0.0], [0.3, 1.0]])],
                             ids=["orthant", "general"])
    def test_candidate_boundary_is_exact(self, cone, monkeypatch):
        # A's ideal is its first corner; H-axis 0 is x under both cones. A
        # B-corner exactly at ideal - tol on that axis is LARGE-related to A
        # and must stay a candidate; one ulp below, it is neither
        ctx = OrderCtx(cone)
        at = 0.3 - ctx.tol
        vals = [points([[0.3, 0.2], [1.1, 0.25]]), points([[at, 0.7]]),
                points([[np.nextafter(at, -np.inf), 0.7]])]
        P = table_problem(vals, cone)
        tab = value_table(P)
        ideal = tab.ideal()
        assert len(tab.h) == 2 and ideal[0, 1] == ideal[0, 0] - ctx.tol
        asked = ideal_tests(monkeypatch)
        got = np.array(relation_matrices(P, ctx))
        modes, cand = asked[0]
        assert modes == (LARGE,) and cand[0, 1:].tolist() == [True, False]
        np.testing.assert_array_equal(got, per_pair_matrices(P, ctx))
        assert got[1, 0, 1:].tolist() == [True, False]

    def test_one_and_three_corner_values(self):
        rng = np.random.default_rng(5)
        vals = [points(rng.integers(-3, 4, size=(k, 2)) * 0.5)
                for k in rng.choice([1, 3], size=30)]
        vals += [box([0.0, 0.0], [1.0, 1.0]), box([0.5, -1.0], [2.0, 0.5])]
        P = table_problem(vals, Cone.orthant(2))
        ctx = OrderCtx(P.cone)
        assert {len(_corner_data(v, P.cone)[0]) for v in vals} == {1, 3}
        assert len(value_table(P).h) == 3
        np.testing.assert_array_equal(np.array(relation_matrices(P, ctx)),
                                      per_pair_matrices(P, ctx))

    @pytest.mark.parametrize("vals", [
        # a cloud and a closed box one tolerance above it
        [points([[0.0]]), box([DEFAULT_TOL], [1.0])],
        # b and fl(b - tol), where fl(fl(b - tol) + tol) < b
        [points([[2.3643249400513434e-11]]),
         points([[2.3643249400513434e-11 - DEFAULT_TOL]])],
    ], ids=["cloud-and-box", "clouds-a-rounding-apart"])
    def test_tolerance_never_makes_strict_and_reverse_large(self, vals):
        # both pairs used to come out strictly below one way and largely
        # below the other, which the Geoffroy-in-Relaxed cross-check refused
        P = table_problem(vals, Cone.orthant(1))
        ctx = OrderCtx(P.cone)
        _, large, strict = got = relation_matrices(P, ctx)
        assert not (strict & large.T).any()
        np.testing.assert_array_equal(np.array(got), per_pair_matrices(P, ctx))
        for kind in KINDS:
            assert eff(P, kind, ctx).indices == brute_eff(P, kind, ctx), kind

    @settings(max_examples=80, deadline=None)
    @given(multi_corner_problems())
    def test_candidates_keep_every_related_pair(self, P):
        ctx = OrderCtx(P.cone)
        want = per_pair_matrices(P, ctx)
        # the sufficient test on every ordered pair, gathered as the matrices
        # gather a block's candidates, accepts no pair some relation refuses
        tab = value_table(P)
        ii, jj = np.indices((len(P), len(P))).reshape(2, -1)
        t = np.broadcast_to(_pair_tol(tab.cloud[ii], tab.cloud[jj], ctx.tol), ii.shape)
        settled = ideal_strict(tab.h[:, :, ii], tab.ideal()[:, jj], t)
        assert not (settled.reshape(len(P), -1) & ~want.all(axis=0)).any()
        np.testing.assert_array_equal(np.array(relation_matrices(P, ctx)), want)

    @pytest.mark.parametrize("case", ["orthant", "general", "orthant-boxes"])
    def test_settled_boundary_is_exact(self, case):
        # B's ideal is v on H-axis 0, which is x under both cones; a* is the
        # least A-corner with fl(a* + t) >= v, so fl(a* + t) == v. One ulp
        # below a* the pair is settled; at a* it is LARGE but not STRICT, so
        # settling it, or the pair one ulp above, would change the matrices
        cone = (Cone.from_halfspaces([[1.0, 0.0], [0.3, 1.0]]) if case == "general"
                else Cone.orthant(2))
        boxes = case == "orthant-boxes"
        t = 0.0 if boxes else OrderCtx(cone).tol
        v, a = 0.3, 0.3 - t
        while a + t >= v:
            a = np.nextafter(a, -np.inf)
        while a + t < v:
            a = np.nextafter(a, np.inf)
        xs = [np.nextafter(a, -np.inf), a, np.nextafter(a, np.inf)]
        assert a + t == v and xs[0] + t < v

        def value(corners):
            if not boxes:
                return points(corners)
            return BoxUnion(2, tuple(Box(tuple(c), tuple(x + 1.0 for x in c),
                                         (False, False), (False, False)) for c in corners))

        P = table_problem([value([[v, 0.7], [v + 0.8, 0.75]])]
                          + [value([[x, -5.0]]) for x in xs], cone)
        tab = value_table(P)
        h, ideal = tab.h, tab.ideal()
        assert len(h) == 2 and ideal[0, 0] == v and h[0, 0, 1:].tolist() == xs
        got = ideal_strict(h[:, :, 1:], ideal[:, [0, 0, 0]], t)
        assert got.tolist() == [True, False, False]
        ctx = OrderCtx(cone)
        mats = np.array(relation_matrices(P, ctx))
        np.testing.assert_array_equal(mats, per_pair_matrices(P, ctx))
        assert mats[2, 1:, 0].tolist() == [True, False, False] and mats[1, 2, 0]

    def test_kernel_is_asked_large_first(self, monkeypatch):
        # 3-corner clouds under a general cone in row blocks of 4: in each
        # block settled pairs never reach the kernel, LARGE is asked alone
        # first, and LOWER and STRICT only of the pairs where LARGE holds
        rng = np.random.default_rng(31)
        d = 3
        cone = Cone.from_halfspaces(np.eye(d) + rng.uniform(-0.3, 0.3, size=(d, d)))
        vals = [points(rng.integers(-2, 3, size=(int(rng.integers(1, 4)), d)) * 0.5)
                for _ in range(26)]
        P = table_problem(vals, cone)
        tab = value_table(P)
        k, m, n = tab.h.shape
        assert k == 3 and cone.kind == "general"
        ctx = OrderCtx(cone)

        def settled(a, b):
            # some A-corner a with fl(a + t) below B's ideal on every axis
            t = np.where(a.cloud | b.cloud, ctx.tol, 0.0)
            return (a.h + t < b.h.min(axis=0)).all(axis=1).any(axis=0)

        assert settled(CornerTable(*(x[..., None] for x in tab)),
                       CornerTable(*(x[..., None, :] for x in tab))).sum() > n
        monkeypatch.setattr(order, "_BLOCK_ELEMENTS", 4 * n * m)
        blocks = []
        real_covered, real_table_rel = order.covered, order.table_rel

        def candidates(A, B, t, modes, flags=None):
            # a row block starts with its candidate test, LARGE between ideal points
            if flags is None and modes == (LARGE,):
                blocks.append([])
            return real_covered(A, B, t, modes, flags)

        def table_rel(a, b, modes, tol):
            assert not settled(a, b).any()
            got = real_table_rel(a, b, modes, tol)
            if modes != (LARGE,):
                assert modes == (LOWER, STRICT)
                assert real_table_rel(a, b, (LARGE,), tol)[0].all()
            blocks[-1].append((modes, len(a.cloud), int(got[0].sum())))
            return got

        monkeypatch.setattr(order, "covered", candidates)
        monkeypatch.setattr(order, "table_rel", table_rel)
        np.testing.assert_array_equal(np.array(relation_matrices(P, ctx)),
                                      per_pair_matrices(P, ctx))
        assert len(blocks) == 7
        for calls in blocks:
            modes = [c[0] for c in calls]
            assert modes == sorted(modes, key=len)
        asked = [c for calls in blocks for c in calls]
        large_held = sum(held for modes, _, held in asked if modes == (LARGE,))
        assert large_held == sum(size for modes, size, _ in asked if modes != (LARGE,))
        assert 0 < large_held < sum(size for modes, size, _ in asked if modes == (LARGE,))

class TestBruteForceAgreement:
    def test_random_instances_match(self):
        rng = np.random.default_rng(20240611)
        for trial in range(25):
            P = random_problem(rng, max_points=18)
            ctx = OrderCtx(P.cone)
            for kind in KINDS:
                got = eff(P, kind, ctx)
                want = brute_eff(P, kind, ctx)
                assert got.indices == want, (trial, kind, P.label)
                validate_witnesses(P, kind, got.indices, got.witness, ctx)

    def test_closed_valued_pareto_equals_geoffroy(self):
        # with every value a closed set plus the orthant, the large and
        # lower preorders agree, so the two quotient notions coincide
        rng = np.random.default_rng(7)
        for _ in range(10):
            P = random_problem(rng, max_points=15, closed_only=True,
                               orthant_only=True)
            ctx = OrderCtx(P.cone)
            assert eff(P, "Pareto", ctx).indices == eff(P, "Geoffroy", ctx).indices

    def test_geff_subset_reff_always(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            P = random_problem(rng, max_points=20)
            ctx = OrderCtx(P.cone)
            g = set(eff(P, "Geoffroy", ctx).indices)
            r = set(eff(P, "Relaxed", ctx).indices)
            assert g <= r

    def test_strong_nonempty_implies_equals_pareto(self):
        # chain of translated boxes has a unique universal lower bound
        C = Cone.orthant(2)
        vals = [box([0.1 * i, 0.0], [0.1 * i + 1.0, 1.0]) for i in range(6)]
        P = table_problem(vals, C, pts=[[float(i), 1.0] for i in range(6)])
        ctx = OrderCtx(C)
        s = eff(P, "Strong", ctx)
        p = eff(P, "Pareto", ctx)
        assert s.indices == (0,)
        assert s.indices == p.indices


class TestLevelSets:
    def test_classical_subset_strong(self, geff, geff_ctx):
        for i in (0, 15, 30):
            om = geff.value(i)
            cl = set(classical_level_set(geff, om, geff_ctx))
            st = set(strong_level_set(geff, om, geff_ctx))
            assert cl <= st

    def test_sop_closed_values_make_them_equal(self, sop_base, sop_ctx):
        om = sop_base.value(30)
        assert strong_level_set(sop_base, om, sop_ctx) == \
            classical_level_set(sop_base, om, sop_ctx)

    def test_geff_level_sets_are_the_value_classes(self, geff, geff_ctx):
        st0 = strong_level_set(geff, geff.value(0), geff_ctx)
        assert st0 == tuple(range(10))
        st30 = strong_level_set(geff, geff.value(30), geff_ctx)
        assert st30 == tuple(range(30, 50))

    def test_minimal_level_set_inside_geff(self, geff, geff_ctx):
        g = set(eff(geff, "Geoffroy", geff_ctx).indices)
        for i in list(g)[:5]:
            assert set(strong_level_set(geff, geff.value(i), geff_ctx)) <= g

    def test_queries_match_per_pair_loop(self):
        # mixed clouds and boxes with open flags, general cones, and cloud
        # targets one tolerance away from a cloud value on either side
        rng = np.random.default_rng(20261019)
        boundary = 0
        for trial in range(30):
            P = random_problem(rng, max_points=20)
            ctx = OrderCtx(P.cone)
            targets = [P.value(int(i)) for i in rng.integers(0, len(P), 3)]
            targets += [translate(S, rng.uniform(-0.5, 0.5, P.cone.dim))
                        for S in targets]
            clouds = [v for v in P.values() if isinstance(v, PointCloud)]
            for v in clouds[:3]:
                targets += [points(v.points - ctx.tol), points(v.points + ctx.tol)]
                boundary += 2
            for k, S in enumerate(targets):
                where = f"trial {trial}, target {k}, {P.label}"
                assert strong_level_set(P, S, ctx) == \
                    brute_level_set(P, S, ctx, large_le), where
                assert classical_level_set(P, S, ctx) == \
                    brute_level_set(P, S, ctx, lower_le), where
                for mode, rel in ((LOWER, lower_le), (LARGE, large_le),
                                  (STRICT, strict_lt)):
                    above, = table_rel(corner_table([S], P.cone), value_table(P),
                                       (mode,), ctx.tol)
                    got = tuple(np.flatnonzero(above))
                    assert got == brute_level_set_above(S, P, ctx, rel), (where, mode)
            for v in clouds[:3]:
                y = v.points[0] - ctx.tol
                assert l_set(P, y, ctx).indices == \
                    brute_level_set(P, points([y]), ctx, lower_le), trial
        assert boundary >= 40


class TestRepresentants:
    def test_geff_two_classes(self, geff, geff_ctx):
        rep = representants(geff, geff_ctx)
        assert isinstance(rep, Representant)
        assert rep.reps == (0, 30)
        assert rep.parts == (tuple(range(10)), tuple(range(30, 50)))
        assert rep.finite_only

    def test_three_incomparable_classes(self):
        C = Cone.orthant(2)
        va = box([0.0, 0.0], [1.0, 1.0])
        vb = box([1.0, -1.0], [2.0, 0.0])
        vc = box([-1.0, 1.0], [0.0, 2.0])
        vals = [va, vb, vc, va, vb, vc]
        P = table_problem(vals, C, pts=[[float(i), 0.0] for i in range(6)])
        ctx = OrderCtx(C)
        rep = representants(P, ctx)
        assert isinstance(rep, Representant)
        assert rep.reps == (0, 1, 2)
        assert rep.parts == ((0, 3), (1, 4), (2, 5))

    def test_cover_and_disjointness_reverified(self, geff, geff_ctx):
        rep = representants(geff, geff_ctx)
        union = set().union(*rep.parts)
        assert union == set(eff(geff, "Geoffroy", geff_ctx).indices)
        for a in range(len(rep.parts)):
            for b in range(a + 1, len(rep.parts)):
                assert not set(rep.parts[a]) & set(rep.parts[b])

    def test_tolerance_slack_can_break_finiteness(self):
        # three near-identical singletons spaced inside the tolerance band:
        # the middle one is equivalent to both outer points, which are not
        # equivalent to each other, so greedy parts overlap at it
        C = Cone.orthant(2)
        t = 0.9e-9
        v1 = points([[t, -t]])
        v2 = points([[-t, t]])
        vy = points([[0.0, 0.0]])
        P = table_problem([v1, v2, vy], C, pts=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        ctx = OrderCtx(C, tol=1e-9)
        rep = representants(P, ctx)
        assert isinstance(rep, NoFiniteRepresentant)
        assert rep.overlap == (0, 1)
        assert rep.at_index == 2


class TestHypothesisH:
    def test_holds_at_minimal_points(self, geff, geff_ctx):
        h0 = hypothesis_h(geff, "Geoffroy", 0, geff_ctx)
        assert h0.is_holds and h0.certificate["witness"] == 0
        h30 = hypothesis_h(geff, "Geoffroy", 30, geff_ctx)
        assert h30.is_holds and h30.certificate["witness"] == 30

    def test_holds_from_dominated_point(self, geff, geff_ctx):
        # the level set at a middle point reaches the negative-piece class
        h = hypothesis_h(geff, "Geoffroy", 15, geff_ctx)
        assert h.is_holds and h.certificate["witness"] == 0

    def test_accepts_point_or_index(self, sop_base, sop_ctx):
        by_idx = hypothesis_h(sop_base, "Relaxed", 0, sop_ctx)
        by_pt = hypothesis_h(sop_base, "Relaxed", sop_base.domain.points[0], sop_ctx)
        assert by_idx == by_pt
        with pytest.raises(ValueError, match="grid point"):
            hypothesis_h(sop_base, "Relaxed", [0.123456], sop_ctx)

    def test_fails_on_flag_split(self):
        # the better point's value has an open second axis, so it never
        # enters the classical level set at x̄ even though it improves it
        C = Cone.orthant(2)
        f_xbar = box([0.0, 0.0], [1.0, 1.0])
        f_g = box([-0.25, 0.0], [1.0, 1.0], lo_open=[False, True])
        P = table_problem([f_xbar, f_g], C, pts=[[0.0, 0.0], [1.0, 0.0]])
        ctx = OrderCtx(C)
        assert eff(P, "Geoffroy", ctx).indices == (1,)
        assert classical_level_set(P, P.value(0), ctx) == (0,)
        h = hypothesis_h(P, "Geoffroy", 0, ctx)
        assert h.is_fails
        assert h.counterexample["eff_indices"] == [1]

    def test_inconclusive_when_no_minimizer(self, geff, geff_ctx):
        h = hypothesis_h(geff, "Strong", 0, geff_ctx)
        assert h.is_inconclusive


class TestLSet:
    def test_sop_fifty_one_points(self, sop_base, sop_ctx):
        res = l_set(sop_base, [math.sin(math.pi / 8)], sop_ctx)
        assert len(res.indices) == 51
        assert res.indices == tuple(range(51))
        assert res.closedness is not None and res.closedness.is_holds
        b = res.closedness.certificate["boundaries"][0]
        assert b["limit"] == pytest.approx(math.pi / 8, abs=1e-6)

    def test_value_from_image_gives_nonempty(self, sop_base, sop_ctx):
        y = [math.sin(float(sop_base.domain.points[40, 0]))]
        res = l_set(sop_base, y, sop_ctx)
        assert len(res.indices) >= 1

    def test_probe_skipped_off_expression_maps(self, geff_ctx):
        v = box([0.0, 0.0], [1.0, 1.0])
        P = table_problem([v, v], Cone.orthant(2),
                          pts=[[0.0, 0.0], [1.0, 0.0]])
        res = l_set(P, [2.0, 2.0], geff_ctx)
        assert res.indices == (0, 1)
        assert res.closedness is None

    def test_empty_when_target_below_everything(self, geff, geff_ctx):
        res = l_set(geff, [-5.0, -5.0], geff_ctx)
        assert res.indices == ()
        assert res.closedness is not None and res.closedness.is_holds

    def test_open_boundary_detected(self):
        # value jumps from a box at 0 to a box at 1 on an open guard, so
        # the sublevel boundary point does not belong to the set
        import setorder.problem as pb
        doc = {
            "label": "open-jump",
            "cone": {"kind": "orthant", "dim": 1},
            "domain": {"windows": [{"a": -1.0, "b": 1.0, "step": 0.125}]},
            "map": {"pieces": [
                {"guard": "x1 < 0", "box": [{"lo": 0.0, "hi": 2.0}]},
                {"guard": "x1 >= 0", "box": [{"lo": 1.0, "hi": 2.0}]},
            ]},
        }
        P = pb.load_dict(doc)
        ctx = OrderCtx(P.cone)
        res = l_set(P, [0.5], ctx)
        xs = P.domain.points[:, 0]
        assert res.indices == tuple(i for i, x in enumerate(xs) if x < 0)
        assert res.closedness is not None and res.closedness.is_fails
        lim = res.closedness.counterexample["boundary"]["limit"]
        assert lim == pytest.approx(0.0, abs=1e-9)
