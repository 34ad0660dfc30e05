"""Brute-force oracles for the corner kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setorder import _kernels, order, solve
from setorder._kernels import LARGE, LOWER, STRICT
from setorder.cone import Cone
from setorder.order import OrderCtx, corner_table, shift_margin, table_rel
from setorder.problem import Domain, Problem, TableMap
from setorder.setrep import Box, BoxUnion, _corner_data, box, points


def brute_rel(ca, oa, cb, ob, mode, b_cloud, tol):
    """Direct transcription of the per-axis rule, scalar loops only; tol is
    the pair's tolerance."""
    nb, na, m = cb.shape[0], ca.shape[0], ca.shape[1]
    for b in range(nb):
        covered = False
        for a in range(na):
            ok = True
            for j in range(m):
                va, vb = ca[a, j], cb[b, j]
                strict, large = vb > va + tol, vb + tol >= va
                if mode == STRICT:
                    ok = strict
                elif mode == LARGE:
                    ok = large
                else:
                    # an open A-end against a closed B-end (a cloud is closed)
                    ok = strict if oa[a, j] and (b_cloud or not ob[b, j]) else large
                if not ok:
                    break
            if ok:
                covered = True
                break
        if not covered:
            return False, b
    return True, -1


def brute_shift(ha, hb, w):
    per_b = []
    for b in range(hb.shape[0]):
        best = -np.inf
        for a in range(ha.shape[0]):
            best = max(best, min((hb[b, j] - ha[a, j]) / w[j] for j in range(ha.shape[1])))
        per_b.append(best)
    return min(per_b, default=np.inf)


def random_case(rng, lattice: bool):
    na, nb, m = rng.integers(1, 7), rng.integers(1, 7), rng.integers(1, 4)
    if lattice:
        ca = rng.integers(-6, 7, size=(na, m)) * 0.5
        cb = rng.integers(-6, 7, size=(nb, m)) * 0.5
    else:
        ca = rng.standard_normal((na, m))
        cb = rng.standard_normal((nb, m))
    oa = rng.integers(0, 2, size=(na, m)).astype(np.uint8)
    ob = rng.integers(0, 2, size=(nb, m)).astype(np.uint8)
    return (np.ascontiguousarray(ca), np.ascontiguousarray(oa),
            np.ascontiguousarray(cb), np.ascontiguousarray(ob))


class TestRelCorners:
    @pytest.mark.parametrize("mode", [LOWER, LARGE, STRICT])
    @pytest.mark.parametrize("b_cloud", [False, True])
    def test_matches_brute_force(self, mode, b_cloud):
        rng = np.random.default_rng(mode * 2 + b_cloud)
        for i in range(400):
            ca, oa, cb, ob = random_case(rng, lattice=i % 2 == 0)
            expected = brute_rel(ca, oa, cb, ob, mode, b_cloud, 1e-9)
            assert _kernels.rel_corners(ca, oa, cb, ob, mode, b_cloud, 1e-9) == expected

    def test_failing_index_is_first(self):
        ca = np.array([[0.0]])
        oa = np.zeros((1, 1), dtype=np.uint8)
        cb = np.array([[1.0], [-1.0], [-2.0]])
        ob = np.zeros((3, 1), dtype=np.uint8)
        assert _kernels.rel_corners(ca, oa, cb, ob, LARGE, False, 0.0) == (False, 1)


def random_value(rng, m, lattice: bool):
    """A cloud or a box union of 1-3 corners, with random lower-end flags."""
    k = int(rng.integers(1, 4))
    lo = rng.integers(-2, 3, size=(k, m)) * 0.5 if lattice else rng.standard_normal((k, m))
    if rng.random() < 0.5:
        return points(lo)
    boxes = []
    for row in lo:
        hi = np.where(rng.random(m) < 0.3, np.inf, row + 1.0)
        boxes.append(Box(tuple(map(float, row)), tuple(map(float, hi)),
                         tuple(bool(f) for f in rng.random(m) < 0.5),
                         tuple(bool(h == np.inf) for h in hi)))
    return BoxUnion(m, tuple(boxes))


def brute_matrices(data, tol):
    """(lower, large, strict) of every ordered pair of _corner_data tuples,
    from brute_rel at the pair's tolerance."""
    out = np.empty((3, len(data), len(data)), dtype=bool)
    for r, mode in enumerate((LOWER, LARGE, STRICT)):
        for i, (ca, oa, a_cloud) in enumerate(data):
            for j, (cb, ob, b_cloud) in enumerate(data):
                t = tol if a_cloud or b_cloud else 0.0
                out[r, i, j] = brute_rel(ca, oa, cb, ob, mode, b_cloud, t)[0]
    return out


def keyed_problem(vals, cone):
    pts = np.arange(len(vals), dtype=float)[:, None]
    keyed = {float(p[0]): v for p, v in zip(pts, vals)}
    return Problem("table", TableMap(lambda x: keyed[float(x[0])], cone.dim), cone,
                   Domain.from_points(pts))


def blocked_matrices(P, rows, monkeypatch):
    """relation_matrices in row blocks of ``rows``. With several corner
    slots the same budget cuts each block's candidate pairs into kernel
    calls of rows * N // k^2 pairs; the calls must show several row
    blocks, full pair chunks and a ragged last one."""
    k, m, n = solve.value_table(P).h.shape
    monkeypatch.setattr(order, "_BLOCK_ELEMENTS", rows * n * m)
    blocks, pairs = [], []
    real_covered, real_table_rel = order.covered, order.table_rel

    def covered(A, B, t, modes, flags=None):
        # the candidate test: LARGE between ideal points (1, 1, m, rows, 1)
        if flags is None and modes == (LARGE,):
            blocks.append(A.shape[-2])
        return real_covered(A, B, t, modes, flags)

    def table_rel(a, *rest):
        pairs.append(len(a.cloud))
        return real_table_rel(a, *rest)

    monkeypatch.setattr(order, "covered", covered)
    monkeypatch.setattr(order, "table_rel", table_rel)
    got = np.array(solve.relation_matrices(P, OrderCtx(P.cone)))
    if k > 1:
        chunk = rows * n // (k * k)
        assert blocks == [rows] * (n // rows) + [n % rows] * (n % rows > 0)
        assert len(blocks) > 2 and max(pairs) == chunk
        assert any(0 < size < chunk for size in pairs)
    return got


class TestCovered:
    @pytest.mark.parametrize("lattice", [True, False])
    def test_blocked_matrices_match_brute_force(self, lattice, monkeypatch):
        # relation_matrices pads the values into one table and calls the
        # batched kernel per row block; 23 rows in blocks of 4 leave a
        # ragged last block
        rng = np.random.default_rng(11 + lattice)
        n, m = 23, 2
        vals = [random_value(rng, m, lattice) for _ in range(n)]
        P = keyed_problem(vals, Cone.orthant(m))
        data = [_corner_data(v, P.cone) for v in vals]
        assert {len(h) for h, _, _ in data} == {1, 2, 3}
        assert {b_cloud for _, _, b_cloud in data} == {False, True}
        want = brute_matrices(data, OrderCtx(P.cone).tol)
        np.testing.assert_array_equal(blocked_matrices(P, 4, monkeypatch), want)

    def test_general_cone_clouds_in_ragged_blocks(self, monkeypatch):
        # 3-corner clouds go through the candidate test before the kernel;
        # 29 rows in blocks of 3 leave a ragged last block
        rng = np.random.default_rng(29)
        n, d = 29, 3
        cone = Cone.from_halfspaces(np.eye(d) + rng.uniform(-0.3, 0.3, size=(d, d)))
        assert cone.kind == "general"
        vals = [points(rng.integers(-2, 3, size=(int(rng.integers(1, 4)), d)) * 0.5)
                for _ in range(n)]
        P = keyed_problem(vals, cone)
        assert len(solve.value_table(P).h) == 3
        want = brute_matrices([_corner_data(v, cone) for v in vals], OrderCtx(cone).tol)
        assert want[1].any() and not want[1].all()
        np.testing.assert_array_equal(blocked_matrices(P, 3, monkeypatch), want)

    @pytest.mark.parametrize("case", ["one-corner", "open-a-corner"])
    def test_single_corners_and_open_a_corners_in_blocks(self, case, monkeypatch):
        # one corner per value (kb = ka = 1) reduces corner axes of length 1
        # on the kernel's dense path; one open lower end among closed boxes makes
        # LOWER take the STRICT side on that corner's axis only
        rng = np.random.default_rng(7)
        m, vals = 2, []
        for i in range(40):
            k = 1 if case == "one-corner" else int(rng.integers(1, 4))
            lo = rng.integers(-2, 3, size=(k, m)) * 0.5
            if case == "one-corner" and i % 2:
                vals.append(points(lo))
                continue
            vals.append(BoxUnion(m, tuple(
                Box(tuple(r), tuple(r + 1.0), (False,) * m, (False,) * m) for r in lo)))
        if case == "open-a-corner":
            vals[0] = BoxUnion(m, (Box((0.0, 0.0), (1.0, 1.0), (True, False), (False,) * m),))
        P = keyed_problem(vals, Cone.orthant(m))
        data = [_corner_data(v, P.cone) for v in vals]
        assert max(len(h) for h, _, _ in data) == (1 if case == "one-corner" else 3)
        want = brute_matrices(data, OrderCtx(P.cone).tol)
        if case == "open-a-corner":
            assert sum(int(o.sum()) for _, o, _ in data) == 1
            assert (want[0] != want[1]).any()
        np.testing.assert_array_equal(blocked_matrices(P, 5, monkeypatch), want)

    @pytest.mark.parametrize("open_corner", [False, True])
    def test_lower_matches_the_where_form(self, open_corner):
        # with every A-corner closed LOWER is LARGE without a STRICT pass;
        # one open A-corner brings the per-axis choice back
        rng = np.random.default_rng(3 + open_corner)
        for i in range(300):
            ca, oa, cb, ob = random_case(rng, lattice=i % 2 == 0)
            oa[:] = 0
            if open_corner:
                oa[rng.integers(len(oa)), rng.integers(oa.shape[1])] = 1
            b_cloud = bool(i % 3)
            t = 1e-9 if b_cloud else 0.0
            A, B = ca[None], cb[:, None]
            where = np.where((oa != 0) & ((ob[:, None] == 0) | b_cloud),
                             B > A + t, B + t >= A).all(axis=-1).any(axis=-1)
            want = brute_rel(ca, oa, cb, ob, LOWER, b_cloud, 1e-9)
            for modes in ((LOWER,), (LOWER, LARGE, STRICT)):
                got = _kernels.covered(A, B, t, modes, (oa[None], ob[:, None], b_cloud))[0]
                np.testing.assert_array_equal(got, where)
            assert _kernels.rel_corners(ca, oa, cb, ob, LOWER, b_cloud, 1e-9) == want

    def test_lower_and_large_share_one_reduction_without_open_a_corners(self):
        # with no open A-corner LOWER is LARGE: the kernel reduces that
        # comparison once for both modes, and table_rel its result once;
        # one open A-corner gives LOWER a reduction of its own
        cone = Cone.orthant(2)
        closed = corner_table([box([0.0, 0.0], [1.0, 1.0]),
                               points([[0.5, -1.0], [0.0, 2.0]])], cone)
        opened = corner_table([BoxUnion(2, (Box((0.0, 0.0), (1.0, 1.0), (True, False),
                                                (False, False)),))], cone)
        for a, shared in ((closed, True), (opened, False)):
            lower, large, strict = got = table_rel(a.sets(..., None), closed,
                                                   (LOWER, LARGE, STRICT), 1e-9)
            assert (lower is large) == shared and strict is not large
            ha, hb = a.h[None, :, :, :, None], closed.h[:, None, :, None]
            kernel = _kernels.covered(ha, hb, 0.0, (LOWER, LARGE),
                                      (a.o[None, :, :, :, None], closed.o[:, None, :, None],
                                       closed.cloud))
            assert (kernel[0] is kernel[1]) == shared
            for mode, ok in zip((LOWER, LARGE, STRICT), got):
                assert ok.tolist() == [
                    [bool(table_rel(a.sets(i), closed.sets(j), (mode,), 1e-9)[0])
                     for j in range(2)] for i in range(len(a.cloud))]

    def test_unknown_mode_is_refused(self):
        tab = corner_table([points([[0.0]])], Cone.orthant(1))
        with pytest.raises(ValueError, match="unknown relation mode 7"):
            table_rel(tab, tab, (7,), 1e-9)


class TestShiftBound:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(400):
            ca, _, cb, _ = random_case(rng, lattice=False)
            w = rng.uniform(1.0, 3.0, size=ca.shape[1])
            assert float(_kernels.shift_bound(ca, cb, w)) == brute_shift(ca, cb, w)

    def test_single_pair_semantics(self):
        # A={0}, B={3}: can shift A up by 3 before cl-domination breaks
        s = _kernels.shift_bound(np.array([[0.0]]), np.array([[3.0]]), np.ones(1))
        assert s.shape == () and s == 3.0

    def test_negative_bound_measures_violation(self):
        s = _kernels.shift_bound(np.array([[2.0]]), np.array([[-1.0]]), np.ones(1))
        assert s == -3.0

    @given(data=st.data(), m=st.integers(1, 3), lattice=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_broadcast_rows_match_brute_force(self, data, m, lattice):
        # rows of sets padded with +inf to ragged corner counts, A's rows
        # against B's rows over broadcast leading axes; a row of no corners
        # is all padding, which must not crash
        coord = (st.integers(-6, 6).map(lambda v: v * 0.5) if lattice
                 else st.floats(-4.0, 4.0, allow_nan=False))

        def rows(label):
            sets = data.draw(st.lists(st.lists(
                st.lists(coord, min_size=m, max_size=m), max_size=4),
                min_size=1, max_size=4), label=label)
            h = np.full((max(map(len, sets)), m, len(sets)), np.inf)
            for r, corners in enumerate(sets):
                h[:len(corners), :, r] = np.reshape(corners, (-1, m))
            return sets, h

        (sa, ha), (sb, hb) = rows("A"), rows("B")
        ctx = OrderCtx(Cone.orthant(m))
        got = _kernels.shift_bound(ha[..., None], hb[..., None, :], ctx.w)
        assert got.shape == (len(sa), len(sb))
        for i, a in enumerate(sa):
            for j, b in enumerate(sb):
                if not (a or b):
                    continue
                ca, cb = np.reshape(a, (-1, m)), np.reshape(b, (-1, m))
                assert got[i, j] == brute_shift(ca, cb, ctx.w), (i, j)
                if a and b:
                    # the one-pair case is shift_margin
                    assert got[i, j] == shift_margin(points(a), points(b), ctx)
