"""Convergence layer: batteries, set limits, semicontinuity, variational
checks, and the two experiment runners.

Frozen expectations are hand-derived; the derivation is noted next to each
pinned value. Sequence-level verdicts are sampled by construction, so the
tests pin statuses and certificate shapes, never wall-clock behavior.
"""

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import pk_cluster_oracle

from setorder import converge, problem
from setorder.converge import (
    DEFAULT_HORIZON,
    EPS,
    EPS_FLOOR,
    MAX_BALL_SPLITS,
    GammaReport,
    LevelsetReport,
    SeqGenBattery,
    StabilityReport,
    gamma_check,
    gamma_seq_check,
    io_threshold,
    kuratowski_pair,
    levelset_convergence_experiment,
    lsc_check,
    pk_limits,
    seq_lower_converse,
    stability_experiment,
    upper_half,
    usc_check,
)
from setorder.errors import (HorizonExceeded, InternalCheckError, ProblemLoadError,
                             SetSpecError, Unsupported)
from setorder.order import OrderCtx, corner_table, equiv, large_le
from setorder.expr import parse
from setorder.problem import (
    Domain,
    PerturbedFamily,
    PieceMap,
    Problem,
    TableMap,
    Window,
    family_at,
    load_builtin,
    load_dict,
)
from setorder.cone import Cone
from setorder.setrep import box, points, translate
from setorder.solve import eff
from setorder.verdict import Status, Verdict

PROBLEM_DIR = Path(load_dict.__module__ and __file__).parent.parent \
    / "src" / "setorder" / "data" / "problems"


def linear_family(map_n=None, domain_n=None, *, step=0.05, b=1.0,
                  n_max=200, hint=None):
    """1-D family over F(x) = [x, x+1] on [0, b] with the given overrides."""
    doc = {
        "label": "crafted",
        "cone": {"kind": "orthant", "dim": 1},
        "domain": {"windows": [{"a": 0.0, "b": b, "step": step}]},
        "map": {"pieces": [{"guard": "true",
                            "box": [{"lo": "x1", "hi": "x1 + 1"}]}]},
        "family": {"subst": "n", "n_max": n_max},
    }
    if map_n is not None:
        doc["family"]["map_n"] = {
            "pieces": [{"guard": "true",
                        "box": [{"lo": map_n[0], "hi": map_n[1]}]}]}
    if domain_n is not None:
        doc["family"]["domain_n"] = domain_n
    if hint is not None:
        doc["family"]["recovery_hint"] = hint
    return load_dict(doc)


@pytest.fixture(scope="module")
def sop():
    return load_builtin("sop_sin")


@pytest.fixture(scope="module")
def sop_ctx(sop):
    return OrderCtx(sop.base.cone)


@pytest.fixture(scope="module")
def geff():
    return load_builtin("geff_vs_reff")


@pytest.fixture(scope="module")
def geff_ctx(geff):
    return OrderCtx(geff.cone)


@pytest.fixture(scope="module")
def battery():
    return SeqGenBattery(seed=11)


@pytest.fixture(scope="module")
def ctx1():
    from setorder.cone import Cone
    return OrderCtx(Cone.orthant(1))


@pytest.fixture()
def built(monkeypatch):
    """(n, domain) of every Problem built while the test runs, alone or as
    a family member in a batch: both end in Problem._hold."""
    seen = []
    real = Problem._hold

    def hold(self, label, map, cone, domain, n, *rows):
        seen.append((n, domain))
        return real(self, label, map, cone, domain, n, *rows)

    monkeypatch.setattr(Problem, "_hold", hold)
    return seen


def tail_scan_at(map, t, Fx, battery, ctx, horizon, domain_at, mode):
    """converge._tail_scan at the one target t, F(x̄) = Fx and the value at
    x_n from map(x_n, n); raises the exception it reports."""
    shift = np.concatenate([converge._eps_shifts(-1, ctx), converge._eps_shifts(1, ctx),
                            np.zeros((1, ctx.cone.dim))])
    got, = converge._tail_scan(map, lambda n: n, np.reshape(t, (1, -1)),
                               corner_table([Fx], ctx.cone, shift), {},
                               battery, ctx, horizon, domain_at, mode)
    if isinstance(got, Exception):
        raise got
    return got


def gamma_upper_at(fam, t, Fx, battery, ctx, horizon, domain_at):
    """converge._gamma_upper at the one point t, F(x̄) = Fx."""
    return next(converge._gamma_upper(fam, np.reshape(t, (1, -1)),
                                      converge._shifted([Fx], 1, ctx), battery,
                                      ctx, horizon, domain_at))


class TestScheduleHelpers:
    def test_upper_half_is_back_half(self):
        assert list(upper_half(64)) == list(range(32, 64))
        assert list(upper_half(9)) == [5, 6, 7, 8]

    def test_io_threshold_quarter_of_tail(self):
        assert io_threshold(64) == 8
        assert io_threshold(9) == 1

    def test_upper_half_rejects_short_horizons(self):
        # below 8 the tail has fewer than 4 indices and the io threshold is 1
        with pytest.raises(ValueError, match="horizon N = 7 must be >= 8"):
            upper_half(7)
        with pytest.raises(ValueError, match="horizon N = 0 must be >= 8"):
            io_threshold(0)
        assert list(upper_half(8)) == [4, 5, 6, 7]

    def test_floored_eps_schedule(self):
        vals = EPS
        assert vals[0] == 1.0
        assert vals[-1] == EPS_FLOOR == 2.0 ** -10
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v >= EPS_FLOOR for v in vals)
        assert len(vals) == 11

    def test_eps_is_fixed_bit_for_bit(self):
        want = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125,
                0.00390625, 0.001953125, 0.0009765625)
        assert type(EPS) is tuple
        assert [e.hex() for e in EPS] == [e.hex() for e in want]


class TestFxTable:
    """F(x̄) is asked once per block, as one table every stage reads."""

    @staticmethod
    def asked_rows(monkeypatch, check) -> list:
        """The row counts of the problem.value_rows calls ``check`` makes."""
        real, rows = problem.value_rows, []

        def counted(map, X, *args, **kwargs):
            rows.append(len(X))
            return real(map, X, *args, **kwargs)

        monkeypatch.setattr(problem, "value_rows", counted)
        check()
        return rows

    @pytest.fixture
    def fam(self):
        # 257 grid points, so at horizon 8 the adversarial balls hold several
        tm = TableMap(lambda x, n=0: box([math.sin(3 * x[0]) + 1 / (n + 1)], [5.0]), 1)
        dom = Domain.from_windows([Window(0.0, 1.0, 1 / 256)])
        base = Problem("sin", tm, Cone.orthant(1), dom, n=0)
        return PerturbedFamily(base, tm, lambda n: dom, 64)

    @pytest.mark.parametrize("check", [lsc_check, usc_check])
    def test_semicontinuity_asks_fx_once(self, monkeypatch, fam, battery, check):
        ctx = OrderCtx(fam.base.cone)
        rows = self.asked_rows(
            monkeypatch, lambda: check(fam.base, 0.5, battery, ctx, horizon=8))
        # F(x̄), the adversarial candidates, the battery's tail rows
        assert len(rows) == 3 and rows[0] == 1 and rows[1] > 1, rows

    def test_gamma_check_asks_fx_once(self, monkeypatch, fam, battery):
        ctx = OrderCtx(fam.base.cone)
        rows = self.asked_rows(
            monkeypatch, lambda: gamma_check(fam, 0.5, battery, ctx, horizon=8))
        # F(x̄) is the one single-row ask: the candidates, the tail rows, the
        # members' grids and the recovery balls all hold several points
        assert rows[0] == 1 and rows.count(1) == 1, rows


class TestBattery:
    def test_strategy_names_and_counts(self, battery):
        dom = Domain.from_windows([Window(0.0, 1.0, 0.1)])
        runs = list(battery.sequences(np.array([0.5]), lambda n: dom, 16))
        names = [name for name, _, _ in runs]
        assert names.count("random-in-ball") == battery.count
        for required in ("constant", "radial-shrink", "boundary-hugging",
                         "adversarial-worst"):
            assert names.count(required) == 1

    def test_points_stay_inside_the_window(self, battery):
        dom = Domain.from_windows([Window(0.0, 1.0, 0.1, hi_open=True)])
        for _, _, pts in battery.sequences(np.array([0.97]),
                                           lambda n: dom, 24):
            arr = np.array(pts)
            assert (arr >= 0.0).all()
            assert (arr < 1.0).all()   # hi_open respected

    @given(t=st.floats(min_value=0.0, max_value=1.0), seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_every_strategy_converges_to_target(self, t, seed):
        bat = SeqGenBattery(seed=seed)
        dom = Domain.from_windows([Window(0.0, 1.0, 0.05)])
        target = np.array([t])
        for name, _, pts in bat.sequences(target, lambda n: dom, 48):
            for n, p in enumerate(pts):
                r = bat.radius(dom, n)
                assert abs(float(p[0]) - t) <= r + 1e-12, (name, n)

    def test_explicit_point_domain_snaps_to_listed_points(self, battery):
        dom = Domain.from_points([[0.0], [1.0]])
        allowed = {0.0, 1.0}
        for _, _, pts in battery.sequences(np.array([0.0]),
                                           lambda n: dom, 16):
            assert {float(p[0]) for p in pts} <= allowed

    def test_seeded_determinism(self):
        dom = Domain.from_windows([Window(0.0, 1.0, 0.05)])
        t = np.array([0.4])
        grab = lambda b: [(name, v, [tuple(p) for p in pts])
                          for name, v, pts in b.sequences(t, lambda n: dom, 16)]
        assert grab(SeqGenBattery(seed=3)) == grab(SeqGenBattery(seed=3))
        assert grab(SeqGenBattery(seed=3)) != grab(SeqGenBattery(seed=4))

    def test_radius_halves_then_saturates(self, battery):
        dom = Domain.from_windows([Window(0.0, 2.0, 0.1)])
        assert battery.radius(dom, 0) == 2.0
        assert battery.radius(dom, 5) == battery.radius(dom, 4) / 2
        assert battery.radius(dom, 2000) == battery.radius(dom, 1000)

    @given(data=st.data(), seed=st.integers(0, 50), count=st.integers(1, 3),
           horizon=st.integers(8, 48))
    @settings(max_examples=30, deadline=None)
    def test_tail_indices_match_the_full_sequence(self, data, seed, count,
                                                  horizon):
        # every strategy is index-local, so generating only the tail must
        # reproduce the full sequence at the tail indices bit for bit
        dim = data.draw(st.integers(1, 2), label="dim")
        if data.draw(st.booleans(), label="windows"):
            step = data.draw(st.sampled_from([0.05, 0.1, 0.25]), label="step")
            dom = Domain.from_windows([Window(0.0, 1.0, step)] * dim)
        else:
            coords = st.floats(-1.0, 1.0, allow_nan=False)
            dom = Domain.from_points(data.draw(
                st.lists(st.lists(coords, min_size=dim, max_size=dim),
                         min_size=1, max_size=12), label="points"))
        target = np.array(data.draw(
            st.lists(st.floats(-0.5, 1.5, allow_nan=False),
                     min_size=dim, max_size=dim), label="target"))
        margin = reference.batched(lambda x, n, g: float(np.sin(7.0 * x.sum() + n)))
        bat = SeqGenBattery(seed=seed, count=count)
        tail = upper_half(horizon)
        for m in (None, margin):
            full = list(bat.sequences(target, lambda n: dom, horizon,
                                      margin=m))
            part = list(bat.sequences(target, lambda n: dom, horizon,
                                      margin=m, indices=tail))
            assert [k[:2] for k in part] == [k[:2] for k in full]
            for (name, v, pts), (_, _, sub) in zip(full, part):
                assert len(sub) == len(tail)
                for n, p in zip(tail, sub):
                    assert p.dtype == pts[n].dtype
                    assert p.tobytes() == pts[n].tobytes(), (name, v, n)

    @given(data=st.data(), seed=st.integers(0, 50), count=st.integers(1, 3),
           horizon=st.integers(8, 40))
    @settings(max_examples=60, deadline=None)
    def test_sequences_match_the_one_point_reference(self, data, seed, count,
                                                     horizon):
        # each array row equals the former per-point generator bit for bit,
        # on hi_open windows, explicit point lists and domains moving with n
        dim = data.draw(st.integers(1, 2), label="dim")
        coord = st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                          st.floats(-1.5, 1.5, allow_nan=False))
        if data.draw(st.booleans(), label="windows"):
            def window():
                a = data.draw(st.sampled_from([-0.0, 0.0, 0.25]))
                return Window(a, a + data.draw(st.sampled_from([0.5, 1.0])),
                              data.draw(st.sampled_from([0.05, 0.125, 0.25])),
                              hi_open=data.draw(st.booleans()))
            doms = [Domain.from_windows([window() for _ in range(dim)])
                    for _ in range(data.draw(st.integers(1, 3)))]
        else:
            doms = [Domain.from_points(data.draw(
                st.lists(st.lists(coord, min_size=dim, max_size=dim),
                         min_size=1, max_size=12), label="points"))]
        target = np.array(data.draw(st.lists(coord, min_size=dim,
                                             max_size=dim), label="target"))
        margin = data.draw(st.sampled_from(
            [None, lambda x, n, g: float(np.sin(7.0 * x.sum() + n))]))
        indices = data.draw(st.sampled_from([None, upper_half(horizon)]))
        domain_at = lambda n: doms[n % len(doms)]
        bat = SeqGenBattery(seed=seed, count=count)
        scores = margin and reference.batched(margin)
        for name, v, pts in bat.sequences(target, domain_at, horizon,
                                          margin=scores, indices=indices):
            wanted = range(horizon) if indices is None else indices
            assert pts.shape == (len(wanted), dim) and pts.dtype == np.float64
            for n, row in zip(wanted, pts):
                m = (lambda x, _n=n: margin(x, _n, 0)) if margin else None
                want = reference.battery_point(bat, name, target, domain_at(n),
                                               n, margin=m, variant=v)
                assert row.tobytes() == want.tobytes(), (name, v, n)
                one = bat.sequence(name, target, [domain_at(n)], [n],
                                   margin=scores, variant=v)[0]
                assert one.tobytes() == want.tobytes(), (name, v, n)

    def test_margin_ties_go_to_the_nearest_then_the_lowest_index(self):
        # every candidate scores the same, so each ball keeps its nearest
        # grid point: 0.5 itself, and the lower of two at one distance
        dom = Domain.from_windows([Window(0.0, 1.0, 1 / 16)])
        flat = reference.batched(lambda x, n, g: 0.0)
        targets = np.array([[0.5], [0.5 + 1 / 32]])
        pts = SeqGenBattery().sequence("adversarial-worst", targets, [dom], [4],
                                       margin=flat)
        assert pts.ravel().tolist() == [0.5, 0.5]

    def test_random_draws_are_made_once(self, monkeypatch):
        # the draws are kept per process, so earlier tests' draws go first
        converge._draw.cache_clear()
        made = []
        real = np.random.default_rng

        def rng(seed):
            made.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", rng)
        bat = SeqGenBattery(seed=5)
        dom = Domain.from_windows([Window(0.0, 1.0, 0.1)])
        for t in (0.2, 0.7):
            list(bat.sequences(np.array([t]), lambda n: dom, 16))
        want = sorted((5, v, n, 17) for v in range(2) for n in range(16))
        assert sorted(made) == want
        # an equal battery reads the same draws, which nobody can write
        list(SeqGenBattery(seed=5).sequences(np.array([0.4]), lambda n: dom, 16))
        assert sorted(made) == want
        assert not converge._draw(5, 0, 3, 1)[0].flags.writeable

    def test_unknown_strategy_is_refused(self):
        dom = Domain.from_windows([Window(0.0, 1.0, 0.1)])
        with pytest.raises(ValueError, match="unknown strategy 'zigzag'"):
            SeqGenBattery().sequence("zigzag", [0.5], [dom], [8])


class TestPkLimits:
    def test_harmonic_sequence_collapses_to_origin(self):
        # A_n = {1/(n+1)} -> {0}: dist(0, A_n) = 1/(n+1) < 2/(n+2) + floor
        cands = np.array([[0.0], [0.5], [1.0]])
        rep = pk_limits(lambda n: np.array([[1.0 / (n + 1)]]), cands, 64)
        assert rep.li_estimate == ((0.0,),)
        assert rep.ls_estimate == ((0.0,),)
        assert rep.lower_verdict.is_fails      # 0.5 and 1 not reached
        assert rep.upper_verdict.is_holds

    def test_alternating_two_point(self):
        cands = np.array([[0.0], [1.0]])
        rep = pk_limits(lambda n: np.array([[float(n % 2)]]), cands, 64)
        assert rep.li_estimate == ()
        assert set(rep.ls_estimate) == {(0.0,), (1.0,)}

    def test_period_three_with_shared_point(self):
        # phases {0, .7}, {0}, {0, 1}: only 0 is in every phase
        phases = [np.array([[0.0], [0.7]]), np.array([[0.0]]),
                  np.array([[0.0], [1.0]])]
        cands = np.array([[0.0], [0.7], [1.0]])
        rep = pk_limits(lambda n: phases[n % 3], cands, 64)
        assert rep.li_estimate == ((0.0,),)
        assert set(rep.ls_estimate) == {(0.0,), (0.7,), (1.0,)}

    def test_li_always_inside_ls(self):
        seqs = [lambda n: np.array([[1.0 / (n + 1)]]),
                lambda n: np.array([[float(n % 2)]]),
                lambda n: np.array([[0.25], [float(n % 4) / 4.0]])]
        cands = np.linspace(0.0, 1.0, 5)[:, None]
        for seq in seqs:
            rep = pk_limits(seq, cands, 64)
            assert set(rep.li_estimate) <= set(rep.ls_estimate)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_eventually_periodic_matches_cluster_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
        p = data.draw(st.integers(1, 4))
        n0 = data.draw(st.integers(0, 8))
        grid = np.round(np.linspace(-1.0, 1.0, 9), 6)
        phases = [grid[rng.choice(9, size=rng.integers(1, 4),
                                  replace=False)][:, None]
                  for _ in range(p)]
        head = [grid[rng.choice(9, size=1)][:, None] for _ in range(n0)]

        def seq(n):
            return head[n] if n < n0 else phases[(n - n0) % p]

        cands = grid[:, None]
        rep = pk_limits(seq, cands, 64)
        tol = lambda n: 2.0 / (n + 2) + EPS_FLOOR
        li, ls = pk_cluster_oracle(phases, n0, cands, 64, tol,
                                   io_threshold(64))
        assert rep.li_estimate == li
        assert rep.ls_estimate == ls

    def test_errors(self):
        cands = np.array([[0.0]])
        with pytest.raises(ValueError, match="horizon"):
            pk_limits(lambda n: cands, cands, 7)
        with pytest.raises(SetSpecError):
            pk_limits(lambda n: np.empty((0, 1)), cands, 64)

    def test_scalar_tolerance_widens_the_lower_limit(self):
        cands = np.array([[0.0], [0.4]])
        seq = lambda n: np.array([[0.0]])
        tight = pk_limits(seq, cands, 64)
        wide = pk_limits(seq, cands, 64, tol_schedule=0.5)
        assert tight.li_estimate == ((0.0,),)
        assert set(wide.li_estimate) == {(0.0,), (0.4,)}

    def test_callable_tolerance_matches_equivalent_scalar(self):
        cands = np.array([[0.0], [0.4]])
        seq = lambda n: np.array([[0.0]])
        a = pk_limits(seq, cands, 64, tol_schedule=0.5)
        b = pk_limits(seq, cands, 64, tol_schedule=lambda n: 0.5)
        assert a.li_estimate == b.li_estimate
        assert a.ls_estimate == b.ls_estimate


class TestKuratowskiPair:
    def test_sop_moving_windows_hold(self, sop):
        v = kuratowski_pair(sop.domain_at, sop.base.domain, 64)
        assert v.is_holds
        assert v.certificate["e_tail"] <= v.certificate["e_early"] / 1.5

    def test_escaping_windows_fail_at_first_probe(self, ctx1):
        fam = linear_family(domain_n={
            "windows": [{"a": "n", "b": "n + 1", "step": 0.25}]}, n_max=160)
        v = kuratowski_pair(fam.domain_at, fam.base.domain, 64)
        assert v.is_fails
        assert v.counterexample["n"] == 64
        assert "escapes" in v.reason

    def test_alternating_windows_fail(self):
        fam = linear_family(domain_n={
            "windows": [{"a": "5*(1 - cos(pi*n))",
                         "b": "5*(1 - cos(pi*n)) + 1", "step": 0.25}]},
            n_max=160)
        v = kuratowski_pair(fam.domain_at, fam.base.domain, 64)
        assert v.is_fails
        assert v.counterexample["e_tail"] == pytest.approx(10.0, abs=1e-6)

    def test_structurally_constant_windows_hold_exactly(self):
        fam = linear_family()     # no domain_n: D_n is the base grid
        v = kuratowski_pair(fam.domain_at, fam.base.domain, 64)
        assert v.is_holds
        assert not v.sampled
        assert v.certificate == {"constant": True}

    def test_truncated_varying_windows_inconclusive(self):
        fam = linear_family(domain_n={
            "windows": [{"a": 0.0, "b": "1 + 1/(n+1)", "step": 0.25,
                         "truncated": True}]}, n_max=160)
        v = kuratowski_pair(fam.domain_at, fam.base.domain, 64)
        assert v.is_inconclusive
        assert "truncation" in v.reason

    def test_explicit_point_routes(self):
        D2 = Domain.from_points([[0.0], [1.0]])
        const = kuratowski_pair(lambda n: D2, D2, 64)
        assert const.is_holds
        onto = kuratowski_pair(
            lambda n: Domain.from_points([[0.0], [1.0 - 1.0 / (n + 1)]]),
            D2, 64)
        assert onto.is_holds
        subset = kuratowski_pair(
            lambda n: Domain.from_points([[0.0]]), D2, 64)
        assert subset.is_fails
        assert "not reached" in subset.reason
        D1 = Domain.from_points([[0.0]])
        off = kuratowski_pair(
            lambda n: Domain.from_points([[0.0], [5.0 - 1.0 / (n + 1)]]),
            D1, 64)
        assert off.is_fails
        assert off.counterexample["point"] == pytest.approx([4.9697],
                                                            abs=1e-3)


class TestSemicontinuity:
    def test_usc_fails_at_the_value_jump(self, geff, geff_ctx, battery):
        # approaching 2.0 from below, values sit a unit above F(2.0)
        v = usc_check(geff, [2.0], battery, geff_ctx)
        assert v.is_fails
        assert v.counterexample["strategy"] == "boundary-hugging"
        assert v.counterexample["eps"] == pytest.approx(1.0)

    def test_lsc_holds_at_the_value_jump(self, geff, geff_ctx, battery):
        v = lsc_check(geff, [2.0], battery, geff_ctx)
        assert v.is_holds
        assert v.sampled
        assert v.certificate["horizon"] == DEFAULT_HORIZON

    def test_smooth_point_is_two_sided(self, sop, sop_ctx, battery):
        p = sop.base
        assert lsc_check(p, [0.3], battery, sop_ctx).is_holds
        assert usc_check(p, [0.3], battery, sop_ctx).is_holds

    def test_usc_shifts_thin_open_values_as_corners(self, battery, ctx1):
        # [0, 1e-17) moved by -eps rounds to [-eps, -eps), which is no Box;
        # both scans shift lower corners in the table (the usc scan the
        # values, the lsc scan F(x̄)), so they give verdicts instead of
        # refusing the rounded translate
        P = load_dict({"label": "thin", "cone": {"kind": "orthant", "dim": 1},
                       "domain": {"windows": [{"a": 0, "b": 1, "step": 0.25}]},
                       "map": {"pieces": [{"guard": "true", "box": [
                           {"lo": 0, "hi": 1e-17, "hi_open": True}]}]}})
        with pytest.raises(SetSpecError, match="degenerate interval"):
            translate(P.value(0), [-0.25])
        v = usc_check(P, [0.5], battery, ctx1, 16)
        assert v.is_holds
        v = lsc_check(P, [0.5], battery, ctx1, 16)
        assert v.is_holds


class TestGammaCheck:
    def test_cos_family_with_recovery_hint(self, battery):
        fam = load_builtin("gamma_cos")
        ctx = OrderCtx(fam.base.cone)
        rep = gamma_check(fam, [0.0], battery, ctx)
        assert rep.overall is Status.HOLDS
        assert rep.lower_verdict.is_holds
        assert rep.upper_verdict.is_holds
        assert rep.upper_verdict.certificate["via_hint"] is True
        n0, x0 = rep.recovery_used[0]
        assert n0 == 32
        assert x0[0] == pytest.approx(1.0 / 33.0)

    def test_uniform_up_shift_upper_fails(self, ctx1, battery):
        fam = linear_family(map_n=("x1 + 0.5", "x1 + 1.5"))
        rep = gamma_check(fam, [0.5], battery, ctx1)
        assert rep.lower_verdict.is_holds
        assert rep.upper_verdict.is_fails
        # theta scan: eps = 0.5 is matched exactly, 0.25 is the largest miss
        assert rep.counterexample["eps"] == pytest.approx(0.25)
        assert rep.counterexample["via_hint"] is False
        assert rep.overall is Status.FAILS

    def test_oscillating_down_shift_lower_fails(self, ctx1, battery):
        fam = linear_family(map_n=("x1 - 0.25*(1 - cos(pi*n))",
                                   "x1 - 0.25*(1 - cos(pi*n)) + 1"))
        rep = gamma_check(fam, [0.5], battery, ctx1)
        assert rep.lower_verdict.is_fails
        ce = rep.lower_verdict.counterexample
        assert ce["n"] % 2 == 1
        assert ce["eps"] == pytest.approx(0.5)
        assert rep.upper_verdict.is_holds

    def test_fast_decaying_shift_holds(self, ctx1, battery):
        fam = linear_family(map_n=("x1 + exp(-n)", "x1 + 1 + exp(-n)"))
        rep = gamma_check(fam, [0.5], battery, ctx1)
        assert rep.overall is Status.HOLDS

    def test_limit_unique_only_up_to_indistinguishable_values(self, ctx1,
                                                              battery):
        # any problem whose values sit within tol of the base limit is
        # also a variational limit of the same family
        from setorder.problem import Problem, TableMap
        fam = linear_family(map_n=("x1 + exp(-n)", "x1 + 1 + exp(-n)"))
        base = fam.base
        u = ctx1.u
        shifted = TableMap(
            lambda x: translate(base.map.value(x, None), 4e-10 * u), 1)
        ghost = Problem("ghost", shifted, base.cone, base.domain)
        rep = gamma_check(fam, [0.5], battery, ctx1, limit=ghost)
        assert rep.overall is Status.HOLDS

    def test_moving_domains_rejected(self, sop, sop_ctx, battery):
        with pytest.raises(Unsupported, match="gamma_seq_check"):
            gamma_check(sop, [0.0], battery, sop_ctx)

    def test_domain_moving_only_inside_the_tail_rejected(self, battery):
        # D_n is the base grid at n = 0, 1 and n_max but nowhere in between
        doc = json.loads((PROBLEM_DIR / "gamma_cos.json").read_text())
        doc["family"]["n_max"] = 64
        doc["family"]["domain_n"] = {"windows": [{
            "a": -0.3125, "b": 0.3125,
            "step": "0.015625 + 0.000001*n*(n-1)*(64-n)"}]}
        fam = load_dict(doc)
        with pytest.raises(Unsupported, match="gamma_seq_check"):
            gamma_check(fam, [0.0], battery, OrderCtx(fam.base.cone))

    def test_multi_point_cloud_values(self, ctx1, battery):
        # two-point clouds on a five-point grid: the neighborhood route's
        # per-value tolerance must run along the value axis, not the corner axis
        doc = {
            "label": "clouds",
            "cone": {"kind": "orthant", "dim": 1},
            "domain": {"windows": [{"a": 0.0, "b": 1.0, "step": 0.25}]},
            "map": {"pieces": [{"guard": "true",
                                "points": [["x1"], ["x1 + 2"]]}]},
            "family": {"subst": "n", "n_max": 200, "map_n": {"pieces": [{
                "guard": "true", "points": [["x1 + exp(-n)"], ["x1 + 2"]]}]}},
        }
        rep = gamma_check(load_dict(doc), [0.5], battery, ctx1)
        assert rep.lower_verdict.is_holds
        assert "neighborhood_j" in rep.lower_verdict.certificate

    def test_report_serializes(self, ctx1, battery):
        fam = linear_family(map_n=("x1 + exp(-n)", "x1 + 1 + exp(-n)"))
        rep = gamma_check(fam, [0.5], battery, ctx1)
        blob = json.dumps(rep.to_json())
        assert "Holds" in blob

    def test_exhausted_recovery_budget_is_inconclusive(self, battery,
                                                       monkeypatch):
        # without the hint the upper route searches the grid; a budget of
        # 3 candidates runs out in the first tail ball
        fam = reference.with_parts(load_builtin("gamma_cos"), recovery_hint=None)
        monkeypatch.setattr(converge, "RECOVERY_BUDGET", 3)
        rep = gamma_check(fam, [0.0], battery, OrderCtx(fam.base.cone))
        assert rep.lower_verdict.is_holds
        assert rep.upper_verdict.is_inconclusive
        assert "budget 3 exhausted" in rep.upper_verdict.reason
        assert rep.recovery_used == ()
        assert rep.overall is Status.INCONCLUSIVE

    def test_fixed_domain_lower_verdict_shape(self, battery):
        fam = load_builtin("gamma_cos")
        rep = gamma_check(fam, [0.0], battery, OrderCtx(fam.base.cone))
        low = rep.lower_verdict
        assert low.reason == ("both lower routes pass on the floored eps "
                              "schedule")
        assert set(low.certificate) == {"seed", "horizon", "neighborhood_j",
                                        "eps_floor"}
        assert rep.domains_verdict is None


class TestLowerRouteCrossCheck:
    """The battery and neighborhood routes are equivalent by theorem, so a
    disagreement must surface as an internal error on every fixed-domain
    caller, the level-set experiment's gamma hypothesis included."""

    @pytest.fixture()
    def flipped(self, monkeypatch):
        real = converge._gamma_lower_neighborhood

        def flip(*args, **kwargs):
            ok, info = real(*args, **kwargs)
            return not ok, info

        monkeypatch.setattr(converge, "_gamma_lower_neighborhood", flip)

    def test_gamma_check_raises(self, flipped, ctx1, battery):
        fam = linear_family(map_n=("x1 + exp(-n)", "x1 + 1 + exp(-n)"),
                            step=0.1)
        with pytest.raises(InternalCheckError,
                           match="lower-route disagreement"):
            gamma_check(fam, [0.5], battery, ctx1)

    def test_levelset_experiment_raises(self, flipped, ctx1, battery):
        fam = linear_family(step=0.1)
        omega = fam.base.value(5)
        with pytest.raises(InternalCheckError,
                           match="lower-route disagreement"):
            levelset_convergence_experiment(fam, lambda n: omega, omega,
                                            ctx1, battery=battery)


class TestGammaSeqCheck:
    def test_sop_holds_at_sampled_grid_points(self, sop, sop_ctx, battery):
        dv = kuratowski_pair(sop.domain_at, sop.base.domain, 64)
        for i in (0, 25, 50, 75, 99):
            rep = gamma_seq_check(sop, sop.base.domain.points[i], battery,
                                  sop_ctx, domains_verdict=dv)
            assert rep.overall is Status.HOLDS, i
            assert rep.domains_verdict is dv

    def test_injected_domain_failure_poisons_overall(self, sop, sop_ctx,
                                                     battery):
        bad = Verdict.fails(reason="injected", counterexample={})
        rep = gamma_seq_check(sop, sop.base.domain.points[0], battery,
                              sop_ctx, domains_verdict=bad)
        assert rep.overall is Status.FAILS

    def test_moving_domain_lower_verdict_shape(self, sop, sop_ctx, battery):
        # no neighborhood route on moving domains, so no neighborhood_j
        rep = gamma_seq_check(sop, sop.base.domain.points[25], battery,
                              sop_ctx)
        low = rep.lower_verdict
        assert low.reason == ("lower inequality held along every in-domain "
                              "sequence")
        assert set(low.certificate) == {"seed", "horizon", "eps_floor"}
        assert rep.domains_verdict.is_holds

    def test_error_in_a_recovery_ball_reaches_the_caller(self, ctx1, battery):
        # x̄ = 0.52 is 0.02 from grid point 0.5, which raises at tail n >= 6.
        # From n = 6 the battery's balls (radius 2^-n) hold no grid point,
        # so its points stay off the grid; the recovery ball, widened to
        # the nearest grid point, asks 0.5 alone, and the hintless upper
        # route raises its error
        dom = Domain.from_windows([Window(0.0, 1.0, 0.0625)])

        def value(x, n=None):
            if n is not None and n >= 6 and x[0] == 0.5:
                raise SetSpecError(f"no value at x = 0.5, n = {n}")
            return box([x[0]], [x[0] + 1.0])

        base = Problem("gap", TableMap(lambda x: value(x), 1), ctx1.cone, dom)
        fam = PerturbedFamily(base, TableMap(value, 1), lambda n: dom, 16)
        with pytest.raises(SetSpecError, match="no value at x = 0.5, n = 6"):
            gamma_seq_check(fam, [0.52], battery, ctx1, horizon=12)
        # gamma_check's neighbourhood route builds the tail members on the
        # grid before the upper route runs, so there the build fails first
        with pytest.raises(ProblemLoadError, match=r"value at x = \(0.5,\)"):
            gamma_check(fam, [0.52], battery, ctx1, horizon=12)


class TestLevelsetExperiment:
    def test_small_up_shift_asserts_both_conclusions(self, ctx1, battery):
        # shift 2^-11 sits between the strict schedule's 2^-12 and the
        # large-comparison floor 2^-10, so both hypotheses pass
        fam = linear_family(step=0.02)
        omega = fam.base.value(25)
        delta = 2.0 ** -11
        omega_n = lambda n: translate(omega, delta * ctx1.u)
        rep = levelset_convergence_experiment(fam, omega_n, omega, ctx1,
                                              battery=battery)
        assert all(v.is_holds for v in rep.hypotheses.values())
        assert rep.conclusions["upper"].is_holds
        assert rep.conclusions["lower"].is_holds
        assert rep.extras["lsc_cross"].is_holds
        assert rep.meta["io_threshold"] == 8

    def test_sop_upper_hypothesis_gates_the_conclusion(self, sop, sop_ctx,
                                                       battery):
        xb = sop.base.domain.points[50]
        omega = sop.base.value(50)
        from setorder.problem import family_at
        omega_n = lambda n: family_at(sop, n).map.value(tuple(xb), n)
        rep = levelset_convergence_experiment(sop, omega_n, omega, sop_ctx,
                                              battery=battery)
        assert rep.hypotheses["gamma"].is_holds
        assert rep.hypotheses["shift_upper"].is_fails
        assert rep.hypotheses["shift_lower"].is_holds
        up = rep.conclusions["upper"]
        assert up.is_inconclusive
        assert "shift_upper" in up.reason
        assert up.certificate["unasserted_check"]["status"] == "Holds"
        low = rep.conclusions["lower"]
        assert low.is_holds
        assert low.certificate["count"] == 51

    def test_down_drift_withholds_the_lower_conclusion(self, ctx1, battery):
        fam = linear_family(step=0.02)
        omega = fam.base.value(25)
        omega_n = lambda n: translate(omega, -float(n) * ctx1.u)
        rep = levelset_convergence_experiment(fam, omega_n, omega, ctx1,
                                              battery=battery)
        assert rep.hypotheses["shift_lower"].is_fails
        assert rep.hypotheses["shift_upper"].is_holds
        assert rep.conclusions["upper"].is_holds     # empty tail level sets
        low = rep.conclusions["lower"]
        assert low.is_inconclusive
        assert low.certificate["unasserted_check"]["status"] == "Fails"

    def test_up_drift_withholds_the_upper_conclusion(self, ctx1, battery):
        fam = linear_family(step=0.02)
        omega = fam.base.value(25)
        omega_n = lambda n: translate(omega, float(n) * ctx1.u)
        rep = levelset_convergence_experiment(fam, omega_n, omega, ctx1,
                                              battery=battery)
        assert rep.hypotheses["shift_upper"].is_fails
        assert rep.hypotheses["shift_lower"].is_holds
        assert rep.conclusions["upper"].is_inconclusive
        assert rep.conclusions["lower"].is_holds


class TestStabilityExperiment:
    def test_sop_external_relaxed(self, sop, sop_ctx, battery):
        rep = stability_experiment(sop, "Relaxed", "external", sop_ctx,
                                   battery=battery)
        assert rep.hypotheses["gamma_seq"].is_holds
        assert rep.conclusion.is_holds
        assert len(rep.clusters) == 1
        assert rep.clusters[0]["base_index"] == 0
        assert rep.clusters[0]["point"] == pytest.approx([0.0])

    def test_sop_internal_relaxed(self, sop, sop_ctx, battery):
        rep = stability_experiment(sop, "Relaxed", "internal", sop_ctx,
                                   battery=battery)
        for name in ("gamma_seq", "nonempty_eff", "hypothesis_h"):
            assert rep.hypotheses[name].is_holds, name
        assert rep.conclusion.is_holds

    def test_stationary_geoffroy_both_directions(self, geff, geff_ctx,
                                                 battery):
        doc = json.loads((PROBLEM_DIR / "geff_vs_reff.json").read_text())
        doc["family"] = {"subst": "n", "n_max": 160}
        fam = load_dict(doc)
        ext = stability_experiment(fam, "Geoffroy", "external", geff_ctx,
                                   battery=battery)
        assert ext.hypotheses["representants"].is_holds
        assert ext.conclusion.is_holds
        assert len(ext.clusters) == 30
        internal = stability_experiment(fam, "Geoffroy", "internal",
                                        geff_ctx, battery=battery)
        assert internal.conclusion.is_holds

    def test_far_improvement_breaks_the_gamma_gate(self, ctx1, battery):
        doc = {
            "label": "far-drop",
            "cone": {"kind": "orthant", "dim": 1},
            "domain": {"windows": [{"a": 0.0, "b": 1.0, "step": 0.05}]},
            "map": {"pieces": [{"guard": "true",
                                "box": [{"lo": "x1", "hi": "x1 + 1"}]}]},
            "family": {"subst": "n", "n_max": 200, "map_n": {"pieces": [
                {"guard": "x1 < 0.9",
                 "box": [{"lo": "x1", "hi": "x1 + 1"}]},
                {"guard": "x1 >= 0.9",
                 "box": [{"lo": "x1 - 2 - 1/(n+1)", "hi": "x1 + 1"}]},
            ]}},
        }
        fam = load_dict(doc)
        rep = stability_experiment(fam, "Relaxed", "internal", ctx1,
                                   battery=battery)
        assert rep.hypotheses["gamma_seq"].is_fails
        assert rep.conclusion.is_inconclusive
        assert "gamma_seq" in rep.conclusion.reason

    def test_validation_errors(self, sop, sop_ctx, battery):
        with pytest.raises(ValueError, match="kind"):
            stability_experiment(sop, "Pareto", "external", sop_ctx,
                                 battery=battery)
        with pytest.raises(ValueError, match="direction"):
            stability_experiment(sop, "Relaxed", "sideways", sop_ctx,
                                 battery=battery)

    def test_report_serializes(self, sop, sop_ctx, battery):
        rep = stability_experiment(sop, "Relaxed", "external", sop_ctx,
                                   battery=battery)
        blob = json.dumps(rep.to_json(), sort_keys=True)
        assert "clusters" in blob


class TestCluster:
    """The swept clustering gives the all-pairs reference's clusters, in
    its order: each point is tagged with its position in the input."""

    @staticmethod
    def check(pts, radius):
        tagged = [(i, np.asarray(p, dtype=float)) for i, p in enumerate(pts)]
        got = converge._cluster(tagged, radius)
        want = reference.cluster(tagged, radius)
        assert [[i for i, _ in g] for g in got] == [[i for i, _ in g] for g in want]
        return got

    def test_random_sets(self):
        rng = np.random.default_rng(3)
        for trial in range(60):
            d = int(rng.integers(1, 4))
            pts = rng.uniform(-1, 1, (int(rng.integers(0, 80)), d))
            # snap to a coarse grid so that many points coincide or line up
            if trial % 2:
                pts = np.round(pts * 4) / 4
            self.check(pts, float(rng.choice([0.0, 0.05, 0.25, 0.6])))

    def test_duplicates_and_exact_radius_distances(self):
        r = 0.25
        up = np.nextafter(r, np.inf)
        # a chain of steps of exactly r, a step one ulp longer, duplicates
        line = [[0.0], [r], [2 * r], [2 * r], [2 * r + up + 0.25], [0.0], [r]]
        assert len(self.check(line, r)) == 2
        # exact distances off the first axis, and the diagonal 3-4-5 triangle
        plane = [[0.0, 0.0], [0.0, r], [0.0, 2 * r + up], [0.15, 0.2],
                 [0.15, 0.2], [0.0, -up], [1.0, 1.0]]
        self.check(plane, r)
        self.check(plane, 0.0)

    def test_tiny_differences_join_at_radius_zero(self):
        # d*d underflows to 0, so the norm test joins points 1e-200 apart
        got = self.check([[0.0], [1e-200], [2e-200], [1.0]], 0.0)
        assert len(got) == 2

    def test_empty_and_single(self):
        assert self.check([], 0.1) == []
        assert len(self.check([[0.5, 0.5]], 0.1)) == 1


class TestSeqLowerConverse:
    def test_sop_holds(self, sop, sop_ctx, battery):
        v = seq_lower_converse(sop, sop_ctx, battery=battery)
        assert v.is_holds
        assert v.sampled
        assert v.certificate["pairs"] <= 32
        assert v.certificate["comparisons"] > 0

    def test_sign_flip_family_fails(self, ctx1, battery):
        doc = {
            "label": "flip",
            "cone": {"kind": "orthant", "dim": 1},
            "domain": {"points": [[0.0], [1.0]]},
            "map": {"pieces": [{"guard": "true",
                                "box": [{"lo": "x1", "hi": "x1 + 1"}]}]},
            "family": {"subst": "n", "n_max": 200, "map_n": {"pieces": [
                {"guard": "true",
                 "box": [{"lo": "cos(pi*n)*x1", "hi": "cos(pi*n)*x1 + 1"}]},
            ]}},
        }
        fam = load_dict(doc)
        v = seq_lower_converse(fam, ctx1, battery=battery)
        assert v.is_fails
        ce = v.counterexample
        assert set(ce) >= {"n", "strategy", "xbar_index", "x0_index",
                           "x_n", "phi_n"}
        assert ce["n"] % 2 == 1

    def test_domain_error_at_a_tail_index_is_raised(self, ctx1, battery):
        # n_max = 9 below the horizon: D_10 raises, and the order holds at
        # n = 8 and 9, so the first pair's sequences end in that error
        fam = linear_family(n_max=9)
        with pytest.raises(HorizonExceeded, match="n = 10 outside"):
            seq_lower_converse(fam, ctx1, battery=battery, horizon=16)

    def test_break_before_the_domain_error_is_reported(self, ctx1):
        # the members reverse the base order, so the first sampled pair
        # (0.75, 1.0) breaks at n = 8, before D_10 raises
        fam = linear_family(map_n=("0 - x1", "1 - x1"), n_max=9, step=0.25)
        v = seq_lower_converse(fam, ctx1, battery=SeqGenBattery(seed=0),
                               horizon=16, samples=2)
        assert v.is_fails
        assert v.counterexample == {"n": 8, "strategy": "constant",
                                    "xbar_index": 3, "x0_index": 4,
                                    "x_n": [0.75], "phi_n": [1.0]}


class TestTablesMatchPairLoops:
    """The tail scans, the recovery search, the gamma upper check, level-set
    hypotheses (b) and seq_lower_converse ask whole tails and eps schedules
    as corner-table comparisons; the pair-at-a-time loops of
    tests/reference.py must report the same verdicts and counterexamples."""

    def test_random_families(self):
        seen = {"break": 0, "clean": 0}
        for seed in range(40):
            rng = np.random.default_rng(seed)
            fam, t = reference.random_family(rng)
            if rng.random() < 0.3:
                fam = reference.with_parts(fam, recovery_hint=tuple(
                    parse(f"x{k + 1} + 0.3/(n + 1)") for k in range(len(t))))
            ctx = OrderCtx(fam.base.cone)
            battery = SeqGenBattery(seed=seed)
            horizon = int(rng.choice([8, 16, 33]))
            if rng.random() < 0.5:
                # midway between grid points, so recovery balls hold two
                # candidates at one distance and theta decides
                t = t + 0.0625
            Fx = fam.base.map.value(tuple(t), None)

            def value(x, n):
                return family_at(fam, n).map.value(tuple(x), n)

            for mode in ("lsc", "usc"):
                args = (t, Fx, battery, ctx, horizon, fam.domain_at, mode)
                got = tail_scan_at(fam.map, *args)
                assert got == reference.tail_scan(value, *args), (seed, mode)
                seen["break" if got else "clean"] += 1
            args = (fam, t, Fx, battery, ctx, horizon, fam.domain_at)
            if fam.recovery_hint is None:
                # theta per candidate, not only the chosen point, must agree
                got = converge._recovery_search(
                    fam, t, converge._shifted([Fx], 1, ctx), *args[3:])
                want = reference.recovery_search(*args)
                assert {n: (th, x.tolist()) for n, (th, x, _) in got.items()} == \
                    {n: (th, x.tolist()) for n, (th, x) in want.items()}, seed
            v, used = gamma_upper_at(*args)
            want_v, want_used = reference.gamma_upper(*args)
            assert (v.to_json(), used) == (want_v.to_json(), want_used), seed
            seen["break" if v.is_fails else "clean"] += 1

            def omega_n(n):
                return family_at(fam, n).value(0)

            got = converge._target_hypotheses(
                [omega_n(n) for n in upper_half(horizon)], fam.base.value(0),
                ctx, horizon)
            want = reference.target_hypotheses(omega_n, fam.base.value(0), ctx,
                                               horizon)
            assert [h.to_json() for h in got] == [h.to_json() for h in want], seed
            seen["break"] += sum(h.is_fails for h in got)
            v = seq_lower_converse(fam, ctx, battery=battery, horizon=horizon)
            want_v = reference.seq_lower_converse(fam, ctx, battery=battery,
                                                  horizon=horizon)
            assert v.to_json() == want_v.to_json(), seed
        assert min(seen.values()) >= 20, seen

    @staticmethod
    def odd_shift(shift: float, raise_from: int):
        """F_n(x) = [x, x + 1] + shift on odd n, raising from n = raise_from."""
        def fn(x, n):
            if n >= raise_from:
                raise SetSpecError(f"no value at n = {n}")
            s = shift if n % 2 else 0.0
            return box([x[0] + s], [x[0] + s + 1.0])
        return TableMap(fn, 1)

    def test_scan_reports_a_break_before_an_error(self, ctx1, battery):
        dom = Domain.from_windows([Window(0.0, 1.0, 0.25)])
        t = np.array([0.5])
        for raise_from, breaks in ((36, True), (32, False)):
            tm = self.odd_shift(-0.25, raise_from)
            args = (t, box([0.5], [1.5]), battery, ctx1, 64, lambda n: dom,
                    "lsc")
            scans = (lambda: tail_scan_at(tm, *args),
                     lambda: reference.tail_scan(tm.value, *args))
            if breaks:
                ce = scans[0]()
                assert ce == scans[1]()
                assert (ce["n"], ce["eps"]) == (33, 0.25)
            else:
                for scan in scans:
                    with pytest.raises(SetSpecError, match="n = 32"):
                        scan()

    def test_gamma_upper_reports_a_break_before_an_error(self, ctx1, battery):
        dom = Domain.from_windows([Window(0.0, 1.0, 0.25)])
        t = np.array([0.5])
        for raise_from, breaks in ((36, True), (33, False)):
            tm = self.odd_shift(0.25 if breaks else 0.0, raise_from)
            base = Problem("odd", tm, ctx1.cone, dom, n=0)
            fam = PerturbedFamily(base, tm, lambda n: dom, 64,
                                  recovery_hint=(parse("x1"),))
            args = (fam, t, box([0.5], [1.5]), battery, ctx1, 64, fam.domain_at)
            if breaks:
                v, used = gamma_upper_at(*args)
                want_v, want_used = reference.gamma_upper(*args)
                assert (v.to_json(), used) == (want_v.to_json(), want_used)
                assert v.counterexample["n"] == 33 and used[-1][0] == 33
            else:
                for check in (gamma_upper_at, reference.gamma_upper):
                    with pytest.raises(Exception, match="n = 33"):
                        check(*args)

    def test_seq_lower_converse_reports_a_break_before_an_error(self, ctx1,
                                                               battery):
        # the sign flip breaks the order between x = 0 and x = 1 at odd n;
        # from n = 10 on the map refuses x = 1, which the first sampled
        # pair, (0, 0), never asks
        doc = {
            "label": "flip",
            "cone": {"kind": "orthant", "dim": 1},
            "domain": {"points": [[0.0], [1.0]]},
            "map": {"pieces": [{"guard": "true",
                                "box": [{"lo": "x1", "hi": "x1 + 1"}]}]},
            "family": {"subst": "n", "n_max": 200, "map_n": {"pieces": [
                {"guard": "true",
                 "box": [{"lo": "cos(pi*n)*x1", "hi": "cos(pi*n)*x1 + 1"}]},
            ]}},
        }
        flip = load_dict(doc)

        def refuse(x, n):
            if n >= 10 and x[0] == 1.0:
                raise SetSpecError(f"no value at x = 1, n = {n}")
            return flip.map.value(x, n)

        fam = PerturbedFamily(flip.base, TableMap(refuse, 1), flip.domain_at, 200)
        v = seq_lower_converse(fam, ctx1, battery=battery, horizon=16)
        want = reference.seq_lower_converse(fam, ctx1, battery=battery,
                                            horizon=16)
        assert v.to_json() == want.to_json()
        assert v.is_fails and v.counterexample["n"] == 9


    # a general cone refuses box values; each of the next three checks
    # breaks at a tail index before a box row of the same tail, and must
    # report that break
    @pytest.fixture()
    def tilted(self):
        return OrderCtx(Cone.from_halfspaces(np.array([[1.0, 0.3], [0.3, 1.0]])))

    def test_scan_reports_a_break_before_a_refused_box(self, tilted):
        # lsc at 0.5: radial-shrink reaches the box only past n = 40
        def value(x):
            d = x[0] - 0.5
            if 0 < d < 2.0 ** -40:
                return box([5.0, 5.0], [6.0, 6.0])
            return points([[-1.0, -1.0]]) if d > 0 else points([[0.0, 0.0]])

        battery = SeqGenBattery(seed=0)
        P = Problem("lsc", TableMap(value, 2), tilted.cone,
                    Domain.from_windows([Window(0.0, 1.0, 0.25)]))
        v = lsc_check(P, [0.5], battery, tilted, 64)
        want = reference.lsc_verdict(P, [0.5], battery, tilted, 64)
        assert v.to_json() == want.to_json()
        ce = v.counterexample
        assert (ce["n"], ce["strategy"], ce["eps"]) == (32, "radial-shrink", 1.0)

    def test_gamma_upper_reports_a_break_before_a_refused_box(self, tilted):
        # the hinted recovery value is far above F(x̄) at n = 33, a box from
        # n = 40 on
        def value(x, n):
            if n >= 40:
                return box([0.0, 0.0], [1.0, 1.0])
            return points([[5.0, 5.0]] if n == 33 else [[0.0, 0.0]])

        dom = Domain.from_windows([Window(0.0, 1.0, 0.25)])
        base = Problem("upper", TableMap(lambda x: points([[0.0, 0.0]]), 2),
                       tilted.cone, dom)
        fam = PerturbedFamily(base, TableMap(value, 2), lambda n: dom, 64,
                              recovery_hint=(parse("x1"),))
        args = (fam, np.array([0.5]), points([[0.0, 0.0]]), SeqGenBattery(seed=0),
                tilted, 64, fam.domain_at)
        v, used = gamma_upper_at(*args)
        want_v, want_used = reference.gamma_upper(*args)
        assert (v.to_json(), used) == (want_v.to_json(), want_used)
        assert v.is_fails and v.counterexample["n"] == 33

    def test_seq_lower_converse_reports_a_break_before_a_refused_box(self, tilted):
        # the order between x = 0 and x = 0.25 breaks at n = 33; from
        # n = 40 on the value at 0.25 is a box
        def value(x, n):
            if n >= 40 and x[0] >= 0.2:
                return box([x[0], x[0]], [x[0] + 1.0, x[0] + 1.0])
            s = -x[0] if n == 33 else x[0]
            return points([[s, s]])

        dom = Domain.from_points([[0.0], [0.25]])
        base = Problem("pairs", TableMap(lambda x: value(x, 0), 2), tilted.cone, dom)
        fam = PerturbedFamily(base, TableMap(value, 2), lambda n: dom, 64)
        battery = SeqGenBattery(seed=0)
        v = seq_lower_converse(fam, tilted, battery=battery, horizon=64)
        want = reference.seq_lower_converse(fam, tilted, battery=battery, horizon=64)
        assert v.to_json() == want.to_json()
        ce = v.counterexample
        assert (ce["n"], ce["strategy"], ce["xbar_index"], ce["x0_index"]) == \
            (33, "constant", 0, 1)

        # seed 2 samples the one pair (0, 1); from n = 36 on F_n(x_n) is a
        # box and F_n(phi_n) raises, and both values are asked before they
        # are compared
        def mixed(x, n):
            if n >= 36 and x[0] >= 0.2:
                raise SetSpecError(f"no value at x = {x[0]}, n = {n}")
            if n >= 36:
                return box([x[0], x[0]], [x[0] + 1.0, x[0] + 1.0])
            return points([[x[0], x[0]]])

        fam = PerturbedFamily(base, TableMap(mixed, 2), lambda n: dom, 64)
        for check in (seq_lower_converse, reference.seq_lower_converse):
            with pytest.raises(SetSpecError, match="x = 0.25, n = 36"):
                check(fam, tilted, samples=1, battery=SeqGenBattery(seed=2),
                      horizon=64)

    @given(seed=st.integers(0, 10_000), budget=st.sampled_from([1, 50, 2 ** 16]))
    @settings(max_examples=25, deadline=None)
    def test_stacked_masks_match_the_member_loop(self, seed, budget):
        # members whose values hold 1 to 3 points, so their value tables
        # have ragged corner counts, compared a few members at a time
        rng = np.random.default_rng(seed)
        dom = Domain.from_windows([Window(0.0, 1.0, 0.125)])
        offsets = rng.uniform(-0.5, 0.5, size=(70, 3, 2))

        def value(x, n=0):
            return points(x[0] + offsets[n, :n % 3 + 1])

        cone = Cone.orthant(2)
        ctx = OrderCtx(cone)
        base = Problem("ragged", TableMap(lambda x: value(x), 2), cone, dom)
        fam = PerturbedFamily(base, TableMap(value, 2), lambda n: dom, 69)
        horizon = int(rng.integers(8, 14))
        # F(x̄) - EPS_FLOOR·u at each grid point, from a random member
        fx = corner_table(
            [value(x, int(k)) for x, k in zip(dom.points, rng.integers(0, 70, len(dom)))],
            cone, shift=-EPS_FLOOR * ctx.u[None]).sets(0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(converge, "_BLOCK_ELEMENTS", budget)
            got = converge._neighborhood_masks(fx, ctx, fam, horizon)
        # the former loop: one comparison per member against its value table
        want = np.ones((len(dom), len(dom)), dtype=bool)
        for P in problem._members(fam, upper_half(horizon)):
            want &= converge.table_rel(fx.sets(..., None), converge.value_table(P),
                                       (converge.STRICT,), ctx.tol)[0]
        assert got.tolist() == want.tolist()


class TestTailOnlyWork:
    """Verdicts read only the upper half of the horizon, so the battery
    generates exactly the tail points and never scores a prefix index."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        # a strategy generates all its indices in one sequence call
        seen = {"points": [], "scored": [], "margin_calls": 0}
        real_sequence = SeqGenBattery.sequence
        real_sequences = SeqGenBattery.sequences

        def sequence(self, name, target, domains, ns, **kwargs):
            seen["points"].extend(ns)
            return real_sequence(self, name, target, domains, ns, **kwargs)

        def sequences(self, target, domain_at, horizon, margin=None,
                      indices=None):
            def scored(x, n, g):
                seen["margin_calls"] += 1
                seen["scored"].extend(n.tolist())
                return margin(x, n, g)
            return real_sequences(self, target, domain_at, horizon,
                                  margin=scored if margin else None,
                                  indices=indices)

        monkeypatch.setattr(SeqGenBattery, "sequence", sequence)
        monkeypatch.setattr(SeqGenBattery, "sequences", sequences)
        return seen

    @pytest.mark.parametrize("horizon", [8, 64])
    @pytest.mark.parametrize("check", ["lsc", "gamma_seq"])
    def test_scan_generates_only_tail_points(self, counted, sop, sop_ctx,
                                             battery, horizon, check):
        # at x̄ = 0 every in-domain x_n has sin(x_n) >= sin(0), so both
        # scans hold even at N = 8
        x = sop.base.domain.points[0]
        if check == "lsc":
            v = lsc_check(sop.base, x, battery, sop_ctx, horizon)
        else:
            v = gamma_seq_check(sop, x, battery, sop_ctx,
                                horizon=horizon).lower_verdict
        assert v.is_holds       # a clean scan walks every sequence
        per_scan = len(battery.strategy_names()) + battery.count - 1
        tail = upper_half(horizon)
        assert len(counted["points"]) == per_scan * len(tail)
        assert set(counted["points"]) == set(tail)
        assert all(n >= math.ceil(horizon / 2) for n in counted["scored"])
        # one margin call per adversarial sequence, however many balls
        assert counted["margin_calls"] <= 1
        if horizon == 8:
            # tail balls at n = 4..7 hold several grid points, so the
            # adversarial strategy does score candidates
            assert counted["scored"]

    def test_fine_grid_scans_make_no_value_calls(self, battery, monkeypatch):
        # sop_sin refined to step pi/4096: tail balls at n = 4..7 hold many
        # grid points, and every candidate is scored through tail tables
        doc = (PROBLEM_DIR / "sop_sin.json").read_text()
        fam = load_dict(json.loads(doc.replace('"step": "pi/400"',
                                               '"step": "pi/4096"')))
        ctx, x = OrderCtx(fam.base.cone), [0.0]
        dv = kuratowski_pair(fam.domain_at, fam.base.domain, 8)
        want = (reference.lsc_verdict(fam.base, x, battery, ctx, 8).to_json(),
                reference.gamma_report(fam, x, battery, ctx, 8, fam.domain_at,
                                       False, dv).to_json())
        calls = []
        real = PieceMap.value

        def value(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(PieceMap, "value", value)
        got = (lsc_check(fam.base, x, battery, ctx, 8).to_json(),
               gamma_seq_check(fam, x, battery, ctx, horizon=8,
                               domains_verdict=dv).to_json())
        assert calls == []
        assert got == want

    def test_seq_lower_converse_asks_only_tail_values(self, sop_ctx, battery,
                                                      built, monkeypatch):
        fam = load_builtin("sop_sin")
        built.clear()
        asked = {"domains": [], "values": []}
        real_domain_at, real_table = fam.domain_at, converge.tail_table

        def domain_at(n):
            asked["domains"].append(n)
            return real_domain_at(n)

        # values along a tail are asked in one tail_table call
        def tail_table(map, X, ns, cone, **kwargs):
            if map is fam.map:
                asked["values"].extend(ns)
            return real_table(map, X, ns, cone, **kwargs)

        monkeypatch.setattr(fam, "domain_at", domain_at)
        monkeypatch.setattr(converge, "tail_table", tail_table)
        v = seq_lower_converse(fam, sop_ctx, battery=battery, horizon=16)
        assert v.is_holds
        assert set(asked["domains"]) == set(upper_half(16))
        assert set(asked["values"]) == set(upper_half(16))
        assert built == []

    def test_margin_asks_each_candidate_at_its_map_index(self, ctx1, battery,
                                                         monkeypatch):
        # on a 1/64 grid at horizon 8 the adversarial balls hold several
        # grid points; with the map index 2n + 1, every candidate the
        # margin scores is asked at 2n + 1 for its own tail index n
        dom = Domain.from_windows([Window(0.0, 1.0, 1 / 64)])
        tm = TableMap(lambda x, n: box([x[0] * n], [x[0] * n + 1.0]), 1)
        P = Problem("ramp", tm, ctx1.cone, dom, n=0)
        X = dom.points[::8]
        pairs = []
        real_table, real_sequences = converge.tail_table, SeqGenBattery.sequences

        def tail_table(map, x, ns, cone, *args):
            if pairs and len(pairs[-1]) == 1:
                # the first evaluation after a margin is asked is its own
                pairs[-1].append(list(ns))
            return real_table(map, x, ns, cone, *args)

        def sequences(self, target, domain_at, horizon, margin=None, indices=None):
            def scored(x, n, g):
                pairs.append([n.tolist()])
                return margin(x, n, g)
            return real_sequences(self, target, domain_at, horizon,
                                  margin=scored if margin else None, indices=indices)

        monkeypatch.setattr(converge, "tail_table", tail_table)
        monkeypatch.setattr(SeqGenBattery, "sequences", sequences)
        converge._tail_scan(tm, lambda n: 2 * n + 1, X, *converge._fx_table(P, X, ctx1),
                            battery, ctx1, 8, lambda n: dom, "lsc")
        assert pairs and all(len(n) > len(X) for n, _ in pairs)
        for n, asked in pairs:
            assert asked == [2 * k + 1 for k in n]


class TestMemberBuilds:
    """Values at single points come from the member map; a member is built
    only where its grid values are read."""

    def test_stability_builds_the_members_each_direction_reads(
            self, sop_ctx, battery, built):
        # external reads the tail members' minimal sets; internal also
        # needs every prefix member nonempty
        fam = load_builtin("sop_sin")
        built.clear()
        stability_experiment(fam, "Relaxed", "external", sop_ctx,
                             battery=battery)
        assert sorted(n for n, _ in built) == list(upper_half(DEFAULT_HORIZON))
        stability_experiment(fam, "Relaxed", "internal", sop_ctx,
                             battery=battery)
        assert sorted(n for n, _ in built) == list(range(DEFAULT_HORIZON))

    def test_levelset_builds_one_base_grid_member_per_tail_index(
            self, ctx1, battery, built):
        fam = linear_family(domain_n={
            "windows": [{"a": 0.0, "b": "1 + 1/(n+1)", "step": 0.05}]})
        built.clear()
        omega = fam.base.value(10)
        omega_n = lambda n: fam.map.value((0.5,), n)
        rep = levelset_convergence_experiment(fam, omega_n, omega, ctx1,
                                              battery=battery)
        assert rep.hypotheses["gamma"].is_holds
        # none is a member of the input family, whose D_n is not the base grid
        assert all(dom is fam.base.domain for _, dom in built)
        assert sorted(n for n, _ in built) == list(upper_half(DEFAULT_HORIZON))

    def test_gamma_seq_check_with_a_hint_builds_no_member(self, sop_ctx,
                                                          battery, built):
        fam = load_builtin("sop_sin")
        assert fam.recovery_hint is not None
        built.clear()
        rep = gamma_seq_check(fam, fam.base.domain.points[0], battery, sop_ctx,
                              horizon=16)
        assert rep.lower_verdict.is_holds and rep.upper_verdict.is_holds
        assert built == []


class TestStabilityGate:
    """The gamma_seq gate reads the family, ctx, battery and horizon but
    neither the kind nor the direction, so a family decides it once per
    (ctx, battery type, seed, count, horizon)."""

    @pytest.fixture()
    def gate_calls(self, monkeypatch):
        calls = {"reports": 0, "domains": 0}
        real_reports, real_pair = converge._gamma_reports, converge.kuratowski_pair

        def reports(*args, **kwargs):
            calls["reports"] += 1
            return real_reports(*args, **kwargs)

        def pair(*args, **kwargs):
            calls["domains"] += 1
            return real_pair(*args, **kwargs)

        monkeypatch.setattr(converge, "_gamma_reports", reports)
        monkeypatch.setattr(converge, "kuratowski_pair", pair)
        return calls

    @pytest.mark.parametrize("kind", ["Relaxed", "Geoffroy"])
    def test_sop_directions_match_fresh_families(self, kind, sop_ctx, battery):
        fam = load_builtin("sop_sin")
        for direction in ("external", "internal"):
            got = stability_experiment(fam, kind, direction, sop_ctx,
                                       battery=battery)
            want = stability_experiment(load_builtin("sop_sin"), kind,
                                        direction, sop_ctx, battery=battery)
            assert got.to_json() == want.to_json(), direction

    def test_random_families_match_fresh_families(self):
        statuses = set()
        for k, seed in enumerate((0, 4, 6, 7, 10, 11)):
            kind = ("Relaxed", "Geoffroy")[k % 2]
            fam, _ = reference.random_family(np.random.default_rng(700 + seed),
                                             n_max=16)
            ctx = OrderCtx(fam.base.cone)
            for direction in ("external", "internal"):
                fresh, _ = reference.random_family(
                    np.random.default_rng(700 + seed), n_max=16)
                fresh_ctx = OrderCtx(fresh.base.cone)
                outcome = TestBlockFoldsMatchPointFolds.outcome
                got = outcome(lambda: stability_experiment(
                    fam, kind, direction, ctx, battery=SeqGenBattery(seed=seed),
                    horizon=13).to_json())
                want = outcome(lambda: stability_experiment(
                    fresh, kind, direction, fresh_ctx,
                    battery=SeqGenBattery(seed=seed), horizon=13).to_json())
                assert got == want, (seed, direction)
                statuses.add(got["hypotheses"]["gamma_seq"]["status"]
                             if isinstance(got, dict) else "raises")
        assert {"Holds", "Fails"} <= statuses, statuses

    def test_both_kinds_and_directions_decide_the_gate_once(self, gate_calls,
                                                             sop_ctx):
        fam = load_builtin("sop_sin")
        for kind in ("Relaxed", "Geoffroy"):
            for direction in ("external", "internal"):
                # an equal battery, not the same object, finds the verdict
                stability_experiment(fam, kind, direction, sop_ctx,
                                     battery=SeqGenBattery(seed=11))
        assert gate_calls == {"reports": 1, "domains": 1}

    def test_another_key_decides_the_gate_again(self, gate_calls, sop_ctx):
        class OtherBattery(SeqGenBattery):
            pass

        fam = load_builtin("sop_sin")
        runs = [(sop_ctx, SeqGenBattery(seed=11), 64),
                (sop_ctx, SeqGenBattery(seed=12), 64),
                (sop_ctx, SeqGenBattery(seed=11, count=3), 64),
                (sop_ctx, SeqGenBattery(seed=11), 32),
                (OrderCtx(fam.base.cone), SeqGenBattery(seed=11), 64),
                (sop_ctx, OtherBattery(seed=11), 64)]
        for ctx, battery, horizon in runs:
            before = gate_calls["reports"]
            got = stability_experiment(fam, "Relaxed", "external", ctx,
                                       battery=battery, horizon=horizon)
            assert gate_calls["reports"] == before + 1, (battery, horizon)
            want = stability_experiment(load_builtin("sop_sin"), "Relaxed",
                                        "external", ctx, battery=battery,
                                        horizon=horizon)
            assert got.to_json() == want.to_json(), (battery, horizon)
        before = gate_calls["reports"]
        for ctx, battery, horizon in runs:
            stability_experiment(fam, "Relaxed", "internal", ctx,
                                 battery=battery, horizon=horizon)
        assert gate_calls["reports"] == before
        assert len(fam._gate_cache) == len(runs)

    def test_a_raising_gate_raises_again(self, gate_calls, ctx1, battery):
        lin = linear_family(step=0.25)

        def value(x, n):
            raise SetSpecError(f"no value at x = {x[0]}, n = {n}")

        fam = PerturbedFamily(lin.base, TableMap(value, 1), lin.domain_at,
                              lin.n_max)
        errors = []
        for direction in ("external", "internal"):
            with pytest.raises(SetSpecError, match="no value") as info:
                stability_experiment(fam, "Relaxed", direction, ctx1,
                                     battery=battery)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert gate_calls["reports"] == 2
        assert fam._gate_cache == {}


class TestGridGammaHypothesis:
    """An Inconclusive gamma point leaves the hypothesis Inconclusive; only a
    failing point makes it Fails, wherever it sits on the grid."""

    @staticmethod
    def far_drop(step: float = 0.05):
        # F_n drops far below F at x >= 0.9, so the lower condition fails
        # from grid index 18 on (at step 0.05); no recovery hint, so the
        # upper route searches the grid
        return load_dict({
            "label": "far-drop",
            "cone": {"kind": "orthant", "dim": 1},
            "domain": {"windows": [{"a": 0.0, "b": 1.0, "step": step}]},
            "map": {"pieces": [{"guard": "true",
                                "box": [{"lo": "x1", "hi": "x1 + 1"}]}]},
            "family": {"subst": "n", "n_max": 200, "map_n": {"pieces": [
                {"guard": "x1 < 0.9",
                 "box": [{"lo": "x1", "hi": "x1 + 1"}]},
                {"guard": "x1 >= 0.9",
                 "box": [{"lo": "x1 - 2 - 1/(n+1)", "hi": "x1 + 1"}]},
            ]}},
        })

    @pytest.fixture()
    def tiny_budget(self, monkeypatch):
        # 3 candidates run out inside the first tail indices, so every
        # point's upper condition is Inconclusive
        monkeypatch.setattr(converge, "RECOVERY_BUDGET", 3)

    def test_levelset_inconclusive_points(self, tiny_budget, ctx1, battery):
        fam = linear_family(step=0.1)
        omega = fam.base.value(5)
        rep = levelset_convergence_experiment(fam, lambda n: omega, omega,
                                              ctx1, battery=battery)
        hyp = rep.hypotheses["gamma"]
        assert hyp.is_inconclusive
        assert hyp.reason.startswith(
            "variational convergence not established at grid index 0: "
            "recovery sequence not determined")
        assert "budget 3 exhausted" in hyp.reason
        assert rep.conclusions["upper"].is_inconclusive
        assert "gamma" in rep.conclusions["upper"].reason

    def test_levelset_failing_point_dominates(self, tiny_budget, ctx1,
                                              battery):
        fam = self.far_drop()
        omega = fam.base.value(5)
        rep = levelset_convergence_experiment(fam, lambda n: omega, omega,
                                              ctx1, battery=battery)
        hyp = rep.hypotheses["gamma"]
        assert hyp.is_fails
        assert hyp.reason == "variational convergence fails at grid index 18"
        assert hyp.counterexample["index"] == 18

    def test_stability_inconclusive_points(self, tiny_budget, ctx1, battery):
        fam = linear_family(step=0.1)
        rep = stability_experiment(fam, "Relaxed", "external", ctx1,
                                   battery=battery)
        hyp = rep.hypotheses["gamma_seq"]
        assert hyp.is_inconclusive
        assert hyp.reason.startswith(
            "sequential variational convergence not established at grid "
            "index 0: recovery sequence not determined")
        assert rep.conclusion.is_inconclusive

    def test_stability_scans_past_inconclusive_to_first_failure(
            self, tiny_budget, ctx1, battery, monkeypatch):
        # far_drop, except that past x = 0.92 the map refuses every
        # off-grid point, so the check at each grid index after 18 raises;
        # the fold stops at the failure at index 18, so those errors never
        # surface and no upper route runs past it
        far = self.far_drop()
        pts = far.base.domain.points
        grid = set(pts[:, 0].tolist())

        def value(x, n):
            if x[0] > 0.92:
                if x[0] not in grid:
                    raise SetSpecError(f"no value at x = {x[0]}")
                return box([x[0]], [x[0] + 1.0])
            return far.map.value(x, n)

        fam = PerturbedFamily(far.base, TableMap(value, 1), far.domain_at,
                              far.n_max)
        with pytest.raises(SetSpecError, match="no value"):
            gamma_seq_check(fam, pts[19], battery, ctx1)
        searched = []
        real = converge._recovery_search

        def search(fam, t, *args):
            searched.append(float(t[0]))
            return real(fam, t, *args)

        monkeypatch.setattr(converge, "_recovery_search", search)
        rep = stability_experiment(fam, "Relaxed", "internal", ctx1,
                                   battery=battery)
        hyp = rep.hypotheses["gamma_seq"]
        assert hyp.is_fails
        assert hyp.reason == ("sequential variational convergence fails at "
                              "grid index 18")
        assert searched == pts[:19, 0].tolist()
        assert rep.conclusion.is_inconclusive


class TestInternalConclusion:
    """A cluster matches base minimal index i when its base value is
    largely below F(i) (Relaxed) or equivalent to it (Geoffroy), read off
    the base problem's LARGE matrix at [cluster, i]."""

    def test_one_way_large_reads_the_cluster_row(self, ctx1):
        # F = {0}, {1}, {0}: LARGE holds 0 -> 1 and 2 -> 1 but not back, so
        # both minimal sets are {0, 2}, and a cluster at index 1 matches
        # neither; read transposed, it would match both under Relaxed
        vals = [points([[0.0]]), points([[1.0]]), points([[0.0]])]
        base = Problem("one-way", TableMap(lambda x: vals[int(x[0])], 1),
                       Cone.orthant(1), Domain.from_points([[0.0], [1.0], [2.0]]))
        for kind in ("Relaxed", "Geoffroy"):
            base_eff = eff(base, kind, ctx1)
            assert base_eff.indices == (0, 2)
            for at in range(3):
                c = {"point": (float(at),), "span": 4, "base_index": at, "dist": 0.0}
                got = converge._internal_conclusion([c], base_eff, base, kind, 4,
                                                    1.0, ctx1)
                # the former rule, one predicate call per pair of values
                rel = equiv if kind == "Geoffroy" else large_le
                want = all(rel(vals[at], vals[i], ctx1) for i in base_eff.indices)
                assert got.is_holds == want == (at != 1), (kind, at)
                if at == 1:
                    assert got.counterexample["base_index"] == 0


class TestBlockGrowth:
    """A fold's first block keeps _block_size's points and each later one
    holds _GROWTH times as many, so a fold that reads every point starts
    few blocks, and one that stops early still starts none past the block
    that holds its last request."""

    @staticmethod
    def gamma_blocks(monkeypatch) -> list:
        """The number of points of each _gamma_block call, in order."""
        sizes = []
        real = converge._gamma_block

        def block(fam, X, *args):
            sizes.append(len(X))
            return real(fam, X, *args)

        monkeypatch.setattr(converge, "_gamma_block", block)
        return sizes

    def test_full_folds_on_sop_sin_take_two_blocks(self, monkeypatch):
        # horizon 64: 11 eps x 6 sequences x 32 tail rows per point and one
        # H-axis give a first block of 2**16 // 2112 = 31 points; the other
        # 69 of the 100 fit in the second block of up to 124
        fam = load_builtin("sop_sin")
        ctx = OrderCtx(fam.base.cone)
        sizes = self.gamma_blocks(monkeypatch)
        rep = stability_experiment(fam, "Relaxed", "external", ctx,
                                   battery=SeqGenBattery())
        assert rep.hypotheses["gamma_seq"].is_holds
        assert sizes == [31, 69]
        sizes.clear()
        omega = fam.base.value(50)
        levelset_convergence_experiment(fam, lambda n: omega, omega, ctx,
                                        battery=SeqGenBattery())
        assert sizes == [31, 69]

    def test_an_early_failure_starts_no_later_block(self, ctx1, battery,
                                                    monkeypatch):
        # 101 points failing from x = 0.9 on; with first blocks of 2 points
        # the fold's blocks start at 0, 2, 10, ..., 82, 90, 98, and the
        # one from 98 is never started
        fam = TestGridGammaHypothesis.far_drop(0.01)
        G = len(fam.base)
        monkeypatch.setattr(converge, "_block_size", lambda *a: 2)
        sizes = self.gamma_blocks(monkeypatch)
        gate = stability_experiment(fam, "Relaxed", "external", ctx1,
                                    battery=battery).hypotheses["gamma_seq"]
        assert gate.is_fails
        p = gate.counterexample["index"]
        assert (G, p) == (101, 90)
        assert sizes == TestBlockFoldsMatchPointFolds.blocks(G, 2)[:len(sizes)]
        start = sum(sizes[:-1])
        assert start <= p < start + sizes[-1]
        assert sum(sizes) < G


class TestBlockFoldsMatchPointFolds:
    """The grid folds (stability's gamma_seq hypothesis, levelset-conv's
    gamma hypothesis and its lsc_cross) ask their checks in blocks of grid
    points. Run with the one-point checks of tests/reference.py in their
    place, the same consumers must give the same report or raise the same
    exception, for any block size, also when values raise at a grid point
    before, at or after the first failing one."""

    @staticmethod
    def point_folds(monkeypatch):
        """Swap the block generators for folds of the one-point references."""
        def reports(fam, X, battery, ctx, limit, horizon, domain_at,
                    neighborhood, domains_verdict=None):
            assert limit is None
            for x in X:
                yield reference.gamma_report(fam, x, battery, ctx, horizon,
                                             domain_at, neighborhood,
                                             domains_verdict)

        def verdicts(P, X, battery, ctx, horizon, mode):
            assert mode == "lsc"
            for x in X:
                yield reference.lsc_verdict(P, x, battery, ctx, horizon)

        monkeypatch.setattr(converge, "_gamma_reports", reports)
        monkeypatch.setattr(converge, "_sc_verdicts", verdicts)

    @staticmethod
    def outcome(run):
        try:
            return run()
        except Exception as e:
            return type(e), str(e)

    def consumers(self, fam, omega, ctx, battery, horizon, levelset=True):
        # a fresh family: each fold decides stability's gate itself
        fam = reference.with_parts(fam)
        out = {"stability": self.outcome(lambda: stability_experiment(
            fam, "Relaxed", "external", ctx, battery=battery,
            horizon=horizon).to_json())}
        if levelset:
            out["levelset"] = self.outcome(lambda: levelset_convergence_experiment(
                fam, lambda n: omega, omega, ctx, battery=battery,
                horizon=horizon).to_json())
        return out

    @staticmethod
    def blocks(G: int, first: int) -> list:
        """The sizes of the blocks _by_blocks cuts G rows into: ``first``,
        then _GROWTH times as many, the last one what is left."""
        sizes, step = [], first
        while sum(sizes) < G:
            sizes.append(min(step, G - sum(sizes)))
            step = converge._GROWTH * first
        return sizes

    @staticmethod
    def record_blocks(mp) -> list:
        """Record, per fold, the fold's length, its first block size and the
        sizes of the blocks it started."""
        folds = []
        real = converge._by_blocks

        def by_blocks(X, size, block):
            seen = []
            folds.append((len(X), size, seen))
            return real(X, size, lambda B: seen.append(len(B)) or block(B))

        mp.setattr(converge, "_by_blocks", by_blocks)
        return folds

    def check(self, fam, omega, ctx, battery, horizon, levelset=True):
        """Block folds at several block sizes against the point folds;
        returns the point folds' outcome. A fold asked with a first block
        of 1, 2 or 3 points starts blocks of that size first, then the
        grown ones, as far as it is consumed."""
        got = []
        with pytest.MonkeyPatch.context() as mp:
            self.point_folds(mp)
            want = self.consumers(fam, omega, ctx, battery, horizon, levelset)
        for size in (None, 1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                folds = self.record_blocks(mp)
                if size is not None:
                    # first blocks of `size` points; the battery's distances
                    # one target at a time
                    mp.setattr(converge, "_block_size", lambda *a, k=size: k)
                    mp.setattr(converge, "_BLOCK_ELEMENTS", 1)
                got = self.consumers(fam, omega, ctx, battery, horizon, levelset)
            assert got == want, size
            for G, first, seen in folds:
                assert seen == self.blocks(G, first)[:len(seen)], (size, G)
            if size is not None:
                assert any(seen[:1] == [size] for _, _, seen in folds), size
        return want

    @staticmethod
    def raising(fam, kind: str, p: int):
        """A fresh family of fam's parts, with values raising at grid point
        p: in the battery rows around it ("lower"), in F(x̄) ("limit"), in
        the members at one tail index ("member") or in its recovery hint
        ("hint")."""
        pts = fam.base.domain.points
        at = pts[p]

        def near(x):
            return float(np.abs(np.asarray(x) - at).max()) < 0.01

        if kind == "lower":
            real = fam.map

            def value(x, n):
                if near(x) and not np.array_equal(x, at):
                    raise SetSpecError(f"no value near grid point {p}")
                return real.value(x, n)
            return reference.with_parts(fam, map=TableMap(value, real.image_dim))
        elif kind == "limit":
            real_base = fam.base.map

            def value0(x):
                if np.array_equal(x, at):
                    raise SetSpecError(f"no limit value at grid point {p}")
                return real_base.value(x)
            # the base keeps its grid values; only x̄'s value raises when asked
            fam.base.map = TableMap(value0, real_base.image_dim)
            return reference.with_parts(fam)
        elif kind == "member":
            real = fam.map

            def value(x, n):
                if np.array_equal(x, at) and n == 6:
                    raise SetSpecError(f"no value at grid point {p}, n = 6")
                return real.value(x, n)
            return reference.with_parts(fam, map=TableMap(value, real.image_dim))
        elif kind == "hint":
            return reference.with_parts(fam, recovery_hint=tuple(
                parse(f"x{k + 1} + 0.3/(n + 1) + 0*sqrt(abs(x1 - "
                      f"({float(at[0])!r})) - 0.001)") for k in range(len(at))))
        return fam

    def test_random_families(self):
        seen = {"fails": 0, "raises": 0, "holds": 0}
        kinds = ("none", "lower", "limit", "member", "hint")
        for seed in range(40):
            rng = np.random.default_rng(500 + seed)
            fam, _ = reference.random_family(rng, n_max=16)
            if rng.random() < 0.4:
                fam = reference.with_parts(fam, recovery_hint=tuple(
                    parse(f"x{k + 1} + 0.3/(n + 1)")
                    for k in range(fam.base.domain.dim)))
            ctx = OrderCtx(fam.base.cone)
            battery = SeqGenBattery(seed=seed)
            horizon = int(rng.choice([8, 13]))
            omega = fam.base.value(0)
            pts = fam.base.domain.points
            # a raising point before, at or after the first failing one
            gate = stability_experiment(fam, "Relaxed", "external", ctx,
                                        battery=battery,
                                        horizon=horizon).hypotheses["gamma_seq"]
            first = gate.counterexample["index"] if gate.is_fails else len(pts) // 2
            p = min(max(first + seed % 3 - 1, 0), len(pts) - 1)
            fam = self.raising(fam, kinds[seed % len(kinds)], p)
            want = self.check(fam, omega, ctx, battery, horizon,
                              levelset=len(pts) <= 25)
            for v in want.values():
                seen["raises" if isinstance(v, tuple) else
                     "fails" if "fails" in json.dumps(v) else "holds"] += 1
        assert min(seen.values()) >= 5, seen

    def test_odd_shift_and_far_drop(self, ctx1, battery):
        dom = Domain.from_windows([Window(0.0, 1.0, 0.25)])
        for shift, raise_from in ((-0.25, 36), (-0.25, 32), (0.25, 40)):
            tm = TestTablesMatchPairLoops.odd_shift(shift, raise_from)
            base = Problem("odd", tm, ctx1.cone, dom, n=0)
            fam = PerturbedFamily(base, tm, lambda n: dom, 64,
                                  recovery_hint=(parse("x1"),))
            self.check(fam, base.value(2), ctx1, battery, 64)
        for lo, limit_raises, fails in ((0.3, False, False), (0.88, False, True),
                                        (0.88, True, True), (0.92, False, True)):
            # off-grid points past lo refused, so the checks from grid point
            # 6, 18 or 19 on raise; at 18 the break comes first. Past 0.92
            # the values stay [x, x + 1], so only the refusal ends those
            # checks; F(x̄) may refuse the last point too
            far = TestGridGammaHypothesis.far_drop()
            pts = far.base.domain.points
            grid = set(pts[:, 0].tolist())

            def value(x, n, lo=lo, real=far.map):
                if x[0] > lo and x[0] not in grid:
                    raise SetSpecError(f"no value at x = {x[0]}")
                if x[0] > 0.92:
                    return box([x[0]], [x[0] + 1.0])
                return real.value(x, n)

            omega = far.base.value(5)
            if limit_raises:
                self.raising(far, "limit", len(pts) - 1)
            fam = PerturbedFamily(far.base, TableMap(value, 1), far.domain_at,
                                  far.n_max)
            want = self.check(fam, omega, ctx1, battery, 64)
            assert isinstance(want["stability"], tuple) != fails, lo
            assert isinstance(want["levelset"], tuple), lo

    def test_boxes_under_a_general_cone(self, battery):
        # a general cone refuses box values, which start at x = 0.75; in
        # the stability fold the value refused around grid point 1 comes
        # first, while the level-set fold's neighbourhood route reads every
        # member at grid point 0 already
        cone = Cone.from_halfspaces(np.array([[1.0, 0.3], [0.3, 1.0]]))
        assert cone.kind != "orthant"
        dom = Domain.from_windows([Window(0.0, 1.0, 0.25)])

        def value(x, n=0):
            if 0.2 < x[0] < 0.3 and x[0] != 0.25:
                raise SetSpecError(f"no value at x = {x[0]}")
            if x[0] >= 0.7:
                return box([x[0], x[0]], [x[0] + 1.0, x[0] + 1.0])
            return points([[x[0], x[0]]])

        base = Problem("mixed", TableMap(lambda x: value(x), 2), cone, dom)
        fam = PerturbedFamily(base, TableMap(value, 2), lambda n: dom, 64)
        want = self.check(fam, base.value(0), OrderCtx(cone), battery, 64)
        assert want["stability"][0] is SetSpecError
        assert want["levelset"][0] is Unsupported

        # the scan's very first row refused: a table of no corners at all
        def refuse_half(x, n=0):
            if x[0] == 0.5 and n:
                raise SetSpecError("no value at x = 0.5")
            return value(x, n)

        fam = PerturbedFamily(base, TableMap(refuse_half, 2), lambda n: dom, 64)
        with pytest.raises(SetSpecError, match="x = 0.5"):
            gamma_seq_check(fam, [0.5], battery, OrderCtx(cone))

    def raising_margins(self, ctx1, refused: Sequence[int]) -> Problem:
        """On a 1/64 grid: the value jumps up at j = 20 and the grid points
        j in ``refused`` raise, each with its own message."""
        dom = Domain.from_windows([Window(0.0, 1.0, 1 / 64)])
        jump = dom.points[20]

        def value(x):
            if any(np.array_equal(x, dom.points[j]) for j in refused):
                raise SetSpecError(f"no value at x = {x[0]}")
            return box([1.0], [2.0]) if np.array_equal(x, jump) else box([0.0], [1.0])

        P = Problem("jump", TableMap(lambda x: box([0.0], [1.0]), 1), ctx1.cone,
                    dom)
        P.map = TableMap(value, 1)
        return P

    def block_matches_points(self, P, battery, ctx1) -> list:
        """Each grid point's lsc outcome, asked point by point, by the
        reference and as one scan of the whole grid, which must agree; a
        block of the whole grid yields the verdicts before the first
        raising point and then raises that point's error."""
        X = P.domain.points
        want = [self.outcome(lambda: reference.lsc_verdict(
            P, x, battery, ctx1, 8).to_json()) for x in X]
        for x, w in zip(X, want):
            assert self.outcome(lambda: lsc_check(P, x, battery, ctx1, 8).to_json()) == w, x
        scan = converge._tail_scan(P.map, lambda n: P.n, X, *converge._fx_table(P, X, ctx1),
                                   battery, ctx1, 8, lambda n: P.domain, "lsc")
        assert len(scan) == len(want)
        for got, w in zip(scan, want):
            if isinstance(got, Exception):
                assert (type(got), str(got)) == w
            else:
                assert w["status"] == ("Holds" if got is None else "Fails")
                assert w.get("counterexample") == got
        first = next(g for g, w in enumerate(want) if isinstance(w, tuple))
        block = converge._sc_block(P, X, battery, ctx1, 8, "lsc")
        assert [next(block).to_json() for _ in range(first)] == want[:first]
        with pytest.raises(want[first][0]) as err:
            next(block)
        assert str(err.value) == want[first][1]
        return want

    def test_lsc_check_with_raising_margins(self, ctx1, battery):
        # at j = 20 the value jumps up, so lsc breaks along radial-shrink
        # before adversarial-worst, whose balls of several grid points ask
        # the margin at the refusing point j = 21; as one block, several
        # targets raise in the one margin call of the adversarial sequence
        want = self.block_matches_points(self.raising_margins(ctx1, [21]),
                                         battery, ctx1)
        assert {type(w) for w in want} == {tuple, dict}
        assert sum(isinstance(w, tuple) for w in want) >= 2

    def test_each_target_keeps_its_first_raising_candidate(self, ctx1, battery):
        # j = 21 and 27 refuse with their own messages. From j = 24 the
        # radial and boundary strategies step 4, 2, 1 and 1/2 grid points,
        # so only adversarial-worst reaches them, in its ball at n = 4; the
        # first in (n, grid index) order is the target's outcome
        want = self.block_matches_points(self.raising_margins(ctx1, [21, 27]),
                                         battery, ctx1)
        assert want[24] == (SetSpecError, "no value at x = 0.328125")

    @given(data=st.data(), seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_battery_targets_match_the_one_point_reference(self, data, seed):
        # each row of a many-target sequence equals the former per-point
        # generator at its target bit for bit, the adversarial distances
        # taken for a few targets at a time
        dim = data.draw(st.integers(1, 2), label="dim")
        coord = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]),
                          st.floats(-1.5, 1.5, allow_nan=False))
        if data.draw(st.booleans(), label="windows"):
            step = data.draw(st.sampled_from([0.0625, 0.125, 0.25]))
            doms = [Domain.from_windows([Window(0.0, b, step, hi_open=o)] * dim)
                    for b, o in ((1.0, False), (0.75, True))]
        else:
            doms = [Domain.from_points(data.draw(
                st.lists(st.lists(coord, min_size=dim, max_size=dim),
                         min_size=1, max_size=12), label="points"))]
        targets = np.array(data.draw(st.lists(
            st.lists(coord, min_size=dim, max_size=dim), min_size=1,
            max_size=5), label="targets"))
        horizon = data.draw(st.integers(8, 24), label="horizon")
        margin = lambda x, n, g: float(np.sin(7.0 * x.sum() + n + g))
        domain_at = lambda n: doms[n % len(doms)]
        bat = SeqGenBattery(seed=seed)
        G, T = len(targets), len(upper_half(horizon))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(converge, "_BLOCK_ELEMENTS",
                       data.draw(st.sampled_from([1, 40, 2 ** 16])))
            runs = list(bat.sequences(targets, domain_at, horizon,
                                      margin=reference.batched(margin),
                                      indices=upper_half(horizon)))
        for name, v, pts in runs:
            assert pts.shape == (G * T, dim)
            for row, (g, n) in zip(pts, ((g, n) for g in range(G)
                                         for n in upper_half(horizon))):
                want = reference.battery_point(
                    bat, name, targets[g], domain_at(n), n,
                    margin=lambda x, _n=n, _g=g: margin(x, _n, _g), variant=v)
                assert row.tobytes() == want.tobytes(), (name, v, g, n)


class TestVerdict:
    def test_has_no_truth_value(self):
        with pytest.raises(TypeError, match="three-valued"):
            bool(Verdict.holds(reason="held"))


class TestReportJson:
    """Every report is written by verdict._jsonify; each must equal its
    former hand-written field list, kept in reference.py."""

    def test_gamma_reports_on_both_routes(self, sop, sop_ctx, ctx1, battery,
                                          monkeypatch):
        cos = load_builtin("gamma_cos")
        cos_ctx = OrderCtx(cos.base.cone)
        holds = gamma_check(cos, [0.0], battery, cos_ctx)
        fails = gamma_check(linear_family(map_n=("x1 + 0.5", "x1 + 1.5")),
                            [0.5], battery, ctx1)
        moving = gamma_seq_check(sop, sop.base.domain.points[25], battery, sop_ctx)
        monkeypatch.setattr(converge, "RECOVERY_BUDGET", 3)
        unsure = gamma_check(reference.with_parts(cos, recovery_hint=None), [0.0],
                             battery, cos_ctx)
        assert holds.recovery_used and holds.domains_verdict is None
        assert fails.counterexample and fails.overall is Status.FAILS
        assert moving.domains_verdict is not None
        assert unsure.upper_verdict.is_inconclusive
        assert unsure.recovery_used == () and unsure.counterexample == {}
        for rep in (holds, fails, moving, unsure):
            assert rep.to_json() == reference.gamma_json(rep)
        assert "counterexample" not in unsure.to_json()
        assert "domains_verdict" not in holds.to_json()

    def test_stability_report_leaves_out_the_cluster_distance(self, sop, sop_ctx,
                                                              battery):
        for horizon in (16, 64):
            rep = stability_experiment(sop, "Relaxed", "external", sop_ctx,
                                       battery=battery, horizon=horizon)
            assert rep.clusters and "dist" in rep.clusters[0]
            got = rep.to_json()
            assert got == reference.stability_json(rep)
            assert all(set(c) == {"point", "span", "base_index"}
                       for c in got["clusters"])

    def test_pk_report_with_a_callable_tolerance(self):
        cands = np.array([[0.0], [0.5], [1.0]])
        rep = pk_limits(lambda n: np.array([[1.0 / (n + 1)], [1.0]]), cands, 20,
                        tol_schedule=lambda n: 1.0 / n)
        assert len(set(rep.tol_used)) == len(rep.tol_used)
        assert rep.to_json() == reference.pk_json(rep)

    def test_levelset_reports_with_and_without_pk(self, ctx1, battery):
        fam = linear_family(step=0.1)
        omega = fam.base.value(5)
        far = points([[-10.0]])
        with_pk = levelset_convergence_experiment(fam, lambda n: omega, omega,
                                                  ctx1, battery=battery)
        without = levelset_convergence_experiment(fam, lambda n: far, omega,
                                                  ctx1, battery=battery)
        assert with_pk.meta["pk"] is not None and "lsc_cross" in with_pk.extras
        assert without.meta["pk"] is None
        for rep in (with_pk, without):
            assert rep.to_json() == reference.levelset_json(rep)

    def test_an_infinite_value_is_written_as_inf(self):
        # the former field list kept the float, which a report dump refuses
        rep = pk_limits(lambda n: np.array([[0.0]]), np.array([[0.0]]), 16,
                        tol_schedule=math.inf)
        assert rep.tol_used == (math.inf,) * 8
        with pytest.raises(ValueError):
            json.dumps(reference.pk_json(rep), allow_nan=False)
        got = json.loads(json.dumps(rep.to_json(), allow_nan=False))
        assert got == {**reference.pk_json(rep), "tol_used": ["inf"] * 8}
