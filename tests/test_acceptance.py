"""Shipping gate: the nine guarantees the package makes, one test each.

Run ``pytest tests/test_acceptance.py -v`` to get a single pass/fail line
per guarantee. Budgets and tolerances are pinned inside the asserts; the
random suites use fixed seeds and demand zero violations, which the exact
half-integer lattice data makes meaningful (no rounding escape hatch).
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from conftest import EXACT_SCALES, random_solid_cone, scale_set
from reference import (
    EPS_SCHEDULE,
    brute_eff,
    pk_cluster_oracle,
    random_problem,
    validate_witnesses,
)

from setorder import cli
from setorder.cone import Cone
from setorder.converge import (
    EPS_FLOOR,
    SeqGenBattery,
    gamma_check,
    gamma_seq_check,
    io_threshold,
    kuratowski_pair,
    levelset_convergence_experiment,
    lsc_check,
    pk_limits,
    seq_lower_converse,
    stability_experiment,
    usc_check,
)
from setorder.order import OrderCtx, equiv, large_le, lower_le, strict_lt
from setorder.problem import (
    Domain,
    Problem,
    TableMap,
    load_builtin,
    load_dict,
)
from setorder.setrep import Box, BoxUnion, PointCloud, box, points, translate
from setorder.solve import (
    classical_level_set,
    eff,
    hypothesis_h,
    strong_level_set,
)
from setorder.verdict import Status

KINDS = ("Strong", "Pareto", "Geoffroy", "Relaxed")


# ------------------------------------------------------------ construction

def _linear_family(map_n=None, domain_n=None, *, step=0.05, b=1.0,
                   n_max=200):
    """1-D family over F(x) = [x, x+1] on [0, b] with optional overrides."""
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
    return load_dict(doc)


def _lattice_cloud(rng, d, max_points=6):
    k = int(rng.integers(1, max_points + 1))
    return PointCloud(d, rng.integers(-8, 9, size=(k, d)) * 0.5)


def _lattice_box_union(rng, d, max_boxes=3):
    boxes = []
    for _ in range(int(rng.integers(1, max_boxes + 1))):
        lo = rng.integers(-8, 9, size=d) * 0.5
        width = rng.integers(0, 7, size=d) * 0.5
        hi = lo + width
        lo_open, hi_open = [], []
        for a in range(d):
            if width[a] > 0 and rng.random() < 0.15:
                hi[a] = np.inf
            if width[a] == 0 and np.isfinite(hi[a]):
                # degenerate singletons must stay closed
                lo_open.append(False)
                hi_open.append(False)
            else:
                lo_open.append(bool(rng.random() < 0.3))
                hi_open.append(bool(not np.isfinite(hi[a])
                                    or rng.random() < 0.3))
        boxes.append(Box(tuple(map(float, lo)), tuple(map(float, hi)),
                         tuple(lo_open), tuple(hi_open)))
    return BoxUnion(d, tuple(boxes))


def _lattice_set(rng, d, clouds_only):
    if clouds_only or rng.random() < 0.5:
        return _lattice_cloud(rng, d)
    return _lattice_box_union(rng, d)


def _with_extra_dominated(rng, A, C):
    """A plus one member pushed up the cone: order-equivalent to A."""
    d = C.dim
    if C.kind == "orthant":
        c = rng.integers(0, 5, size=d) * 0.5
    else:
        c = float(rng.integers(0, 5)) * 0.5 * C.interior_direction
    shifted = translate(A, c)
    if isinstance(A, PointCloud):
        j = int(rng.integers(len(A.points)))
        return PointCloud(d, np.vstack([A.points, shifted.points[j:j + 1]]))
    j = int(rng.integers(len(A.boxes)))
    return BoxUnion(d, A.boxes + (shifted.boxes[j],))


# --------------------------------------------------------- gate soundness

def _levelset_gates_sound(rep):
    # each conclusion side may only be asserted when its own gates hold
    for side in ("upper", "lower"):
        gates = (rep.hypotheses["gamma"], rep.hypotheses[f"shift_{side}"])
        concl = rep.conclusions[side]
        if all(g.is_holds for g in gates):
            assert not concl.is_inconclusive, side
        else:
            assert concl.is_inconclusive, side
            assert "unasserted_check" in (concl.certificate or {}), side


def _stability_gates_sound(rep):
    if all(v.is_holds for v in rep.hypotheses.values()):
        assert not rep.conclusion.is_inconclusive
    else:
        assert rep.conclusion.is_inconclusive


def _gamma_overall_sound(rep):
    parts = [rep.lower_verdict, rep.upper_verdict]
    if rep.domains_verdict is not None:
        parts.append(rep.domains_verdict)
    if all(p.is_holds for p in parts):
        assert rep.overall is Status.HOLDS
    elif any(p.is_fails for p in parts):
        assert rep.overall is Status.FAILS
    else:
        assert rep.overall is Status.INCONCLUSIVE


# ------------------------------------------------------------- criterion 1

def test_01_minimal_sets_of_the_piecewise_jump_example(capsys):
    """Geoffroy-minimal set is the grid outside (0, 2); relaxed set is all."""
    t0 = time.perf_counter()
    assert cli.main(["solve", "geff_vs_reff", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    xs = [p[0] for p in load_builtin("geff_vs_reff").domain.points]
    assert len(xs) == 50
    expected = [i for i, x in enumerate(xs) if x <= 1e-9 or x >= 2.0 - 1e-9]
    assert len(expected) == 30
    mismatches = sorted(set(rep["result"]["Geoffroy"]["indices"])
                        ^ set(expected))
    assert mismatches == []
    assert rep["result"]["Relaxed"]["indices"] == list(range(50))
    assert time.perf_counter() - t0 < 5.0


# ------------------------------------------------------------- criterion 2

def test_02_shrinking_sine_example_full_reproduction():
    """Relaxed minimum {0}, converging domains, variational convergence at
    every grid point, and both relaxed stability directions."""
    t0 = time.perf_counter()
    fam = load_builtin("sop_sin")
    ctx = OrderCtx(fam.base.cone)
    battery = SeqGenBattery(seed=0)
    grid = fam.base.domain.points
    assert len(grid) == 100
    assert grid[1][0] - grid[0][0] == pytest.approx(math.pi / 400)

    assert eff(fam.base, "Relaxed", ctx).indices == (0,)

    dv = kuratowski_pair(fam.domain_at, fam.base.domain, 64)
    assert dv.is_holds

    for i, x in enumerate(grid):
        rep = gamma_seq_check(fam, x, battery, ctx, domains_verdict=dv)
        assert rep.overall is Status.HOLDS, f"grid index {i}"

    for direction in ("external", "internal"):
        rep = stability_experiment(fam, "Relaxed", direction, ctx,
                                   battery=battery)
        assert all(v.is_holds for v in rep.hypotheses.values()), direction
        assert rep.conclusion.is_holds, direction

    assert time.perf_counter() - t0 < 30.0


# ------------------------------------------------------------- criterion 3

def test_03_cosine_family_variational_limit():
    """Both variational conditions hold at 0 with recovery points 1/(n+1)."""
    t0 = time.perf_counter()
    fam = load_builtin("gamma_cos")
    ctx = OrderCtx(fam.base.cone)
    rep = gamma_check(fam, [0.0], SeqGenBattery(seed=0), ctx)
    assert rep.overall is Status.HOLDS
    assert rep.lower_verdict.is_holds
    assert rep.upper_verdict.is_holds
    assert rep.upper_verdict.certificate["via_hint"] is True
    assert [n for n, _ in rep.recovery_used] == list(range(32, 64))
    for n, x in rep.recovery_used:
        assert x[0] == pytest.approx(1.0 / (n + 1))
    # a disagreement between the battery and neighborhood lower routes
    # raises instead of returning, so a recorded sweep index certifies
    # that both routes ran and agreed
    assert "neighborhood_j" in rep.lower_verdict.certificate
    assert time.perf_counter() - t0 < 10.0


# ------------------------------------------------------------- criterion 4

def test_04_order_laws_on_ten_thousand_random_instances():
    """Preorder, chain, mixed-transitivity, shift-lemma, scaling, and
    equivalence laws hold with zero violations on exact lattice data."""
    rng = np.random.default_rng(404)
    fired = {"transitive": 0, "chain": 0, "mixed": 0, "lemma_a": 0,
             "lemma_b": 0, "strict": 0}
    for _ in range(10_000):
        d = int(rng.integers(1, 4))
        if rng.random() < 0.8:
            C = Cone.orthant(d)
            clouds_only = False
        else:
            C = random_solid_cone(rng, d, d)
            clouds_only = True
        ctx = OrderCtx(C)
        A, B, D = (_lattice_set(rng, d, clouds_only) for _ in range(3))

        assert lower_le(A, A, ctx) and large_le(A, A, ctx)
        assert equiv(A, A, ctx)

        if lower_le(A, B, ctx) and lower_le(B, D, ctx):
            fired["transitive"] += 1
            assert lower_le(A, D, ctx)
        if large_le(A, B, ctx) and large_le(B, D, ctx):
            assert large_le(A, D, ctx)

        s_ab = strict_lt(A, B, ctx)
        l_ab = lower_le(A, B, ctx)
        g_ab = large_le(A, B, ctx)
        if s_ab:
            fired["chain"] += 1
            fired["strict"] += 1
            assert l_ab
        if l_ab:
            assert g_ab

        if s_ab and large_le(B, D, ctx):
            fired["mixed"] += 1
            assert strict_lt(A, D, ctx)

        # uniform interior shift forces the strict relation
        if clouds_only:
            eps0 = float(rng.integers(1, 5)) * 0.5 * C.interior_direction
        else:
            eps0 = rng.integers(1, 5, size=d) * 0.5
        if large_le(translate(A, eps0), B, ctx):
            fired["lemma_a"] += 1
            assert s_ab

        # converse along the schedule, on exactly comparable data only
        if isinstance(A, BoxUnion) and isinstance(B, BoxUnion):
            if all(strict_lt(translate(A, -t * ctx.u), B, ctx)
                   for t in EPS_SCHEDULE):
                fired["lemma_b"] += 1
                assert g_ab

        lam = float(rng.choice(EXACT_SCALES))
        As, Bs = scale_set(A, lam), scale_set(B, lam)
        assert lower_le(As, Bs, ctx) == l_ab
        assert large_le(As, Bs, ctx) == g_ab
        assert strict_lt(As, Bs, ctx) == s_ab
        assert equiv(As, Bs, ctx) == equiv(A, B, ctx)

        B2 = _with_extra_dominated(rng, A, C)
        D2 = _with_extra_dominated(rng, B2, C)
        assert equiv(A, B2, ctx) and equiv(B2, A, ctx)
        assert equiv(B2, D2, ctx) and equiv(A, D2, ctx)

    # the conditional laws must actually fire, not pass vacuously
    assert all(count >= 100 for count in fired.values()), fired


# ------------------------------------------------------------- criterion 5

def test_05_cone_geometry_identities():
    """Interior shifts absorb closures and the interior absorbs the cone."""
    rng = np.random.default_rng(505)
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        C = Cone.orthant(d) if rng.random() < 0.6 \
            else random_solid_cone(rng, d, d)
        G = np.asarray(C.halfspaces)
        A = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 5)), d))
        u = np.linalg.solve(G, rng.uniform(0.05, 1.5, size=d))
        assert C.contains_interior(u, tol=1e-9)

        # z = a + v sampled from A + C, some halfspace coordinates pinned
        # exactly to the boundary
        mask = rng.random(d) < 0.85
        v = np.linalg.solve(G, rng.uniform(0.0, 2.0, size=d) * mask)
        a = A[int(rng.integers(len(A)))]
        z = a + v
        assert any(C.contains_interior(z + u - p, tol=1e-9) for p in A)

        w = np.linalg.solve(
            G, rng.uniform(0.0, 2.0, size=d) * (rng.random(d) < 0.85))
        assert C.contains_interior(u + w, tol=1e-9)


# ------------------------------------------------------------- criterion 6

def test_06_solvers_match_definitional_brute_force():
    """All four minimality kinds agree with the pairwise-definition oracle
    bit for bit, plus the inclusion and collapse laws between them."""
    rng = np.random.default_rng(606)
    strong_nonempty = 0
    for i in range(200):
        closed = i % 5 in (0, 1)
        P = random_problem(rng, max_points=50, closed_only=closed,
                           orthant_only=(i % 5 == 1))
        ctx = OrderCtx(P.cone)
        res = {k: eff(P, k, ctx) for k in KINDS}
        for k in KINDS:
            assert res[k].indices == brute_eff(P, k, ctx), (i, k)
            validate_witnesses(P, k, res[k].indices, res[k].witness, ctx)
        assert set(res["Geoffroy"].indices) <= set(res["Relaxed"].indices), i
        if res["Strong"].indices:
            strong_nonempty += 1
            assert res["Strong"].indices == res["Pareto"].indices, i
        if closed:
            assert res["Pareto"].indices == res["Geoffroy"].indices, i
            for _ in range(3):
                om = P.value(int(rng.integers(len(P))))
                assert strong_level_set(P, om, ctx) == \
                    classical_level_set(P, om, ctx), i

    # translated copies of one value dominate each other along the shifts,
    # so the strong set is nonempty and its collapse onto Pareto is live
    for _ in range(20):
        d = int(rng.integers(1, 4))
        C = Cone.orthant(d)
        ctx = OrderCtx(C)
        if rng.random() < 0.5:
            lo = rng.integers(-4, 4, size=d) * 0.5
            hi = lo + rng.integers(1, 4, size=d) * 0.5
            base = box(tuple(map(float, lo)), tuple(map(float, hi)))
        else:
            base = points(rng.integers(-4, 5,
                                       size=(int(rng.integers(1, 5)), d)) * 0.5)
        shifts = [np.zeros(d)] + [rng.integers(0, 5, size=d) * 0.5
                                  for _ in range(int(rng.integers(2, 8)))]
        vals = [translate(base, s) for s in shifts]
        tab = {(float(j),): v for j, v in enumerate(vals)}
        P = Problem("translates", TableMap(lambda x, t=tab: t[x], d), C,
                    Domain.from_points([[float(j)] for j in range(len(vals))]))
        res = {k: eff(P, k, ctx) for k in KINDS}
        for k in KINDS:
            assert res[k].indices == brute_eff(P, k, ctx)
        assert res["Strong"].indices
        assert res["Strong"].indices == res["Pareto"].indices
        strong_nonempty += 1
    assert strong_nonempty >= 20


# ------------------------------------------------------------- criterion 7

def test_07_set_limits_match_cluster_oracle():
    """Inner/outer limit estimates equal phase arithmetic on 100 eventually
    periodic sequences."""
    rng = np.random.default_rng(707)
    grid = np.round(np.linspace(-1.0, 1.0, 9), 6)
    cands = grid[:, None]
    tol = lambda n: 2.0 / (n + 2) + EPS_FLOOR
    for case in range(100):
        p = int(rng.integers(1, 5))
        n0 = int(rng.integers(0, 9))
        phases = [grid[rng.choice(9, size=int(rng.integers(1, 4)),
                                  replace=False)][:, None]
                  for _ in range(p)]
        head = [grid[rng.choice(9, size=1)][:, None] for _ in range(n0)]

        def seq(n, head=head, phases=phases, n0=n0, p=p):
            return head[n] if n < n0 else phases[(n - n0) % p]

        rep = pk_limits(seq, cands, 64)
        li, ls = pk_cluster_oracle(phases, n0, cands, 64, tol,
                                   io_threshold(64))
        assert rep.li_estimate == li, case
        assert rep.ls_estimate == ls, case


# ------------------------------------------------------------- criterion 8

def test_08_conclusions_gated_by_hypotheses_on_crafted_families():
    """Ten satisfying and ten violating families: conclusions are asserted
    exactly when every hypothesis holds, and the satisfied conclusions pass."""
    battery = SeqGenBattery(seed=0)
    ctx1 = OrderCtx(Cone.orthant(1))
    satisfied, violated = [], []

    # 1) level-set convergence, both directions: a 2^-11 up-shift sits
    #    between the strict schedule floor and the large-comparison floor
    fam = _linear_family(step=0.02)
    omega = fam.base.value(25)
    delta = 2.0 ** -11
    rep = levelset_convergence_experiment(
        fam, lambda n: translate(omega, delta * ctx1.u), omega, ctx1,
        battery=battery)
    assert all(v.is_holds for v in rep.hypotheses.values())
    assert rep.conclusions["upper"].is_holds
    assert rep.conclusions["lower"].is_holds
    assert rep.extras["lsc_cross"].is_holds
    _levelset_gates_sound(rep)
    satisfied.append("levelset-up-shift")

    # 2) same shift over a stationary sine-valued family, exercising the
    #    lower-semicontinuity cross-assertion on a curved map
    sinfam = load_dict({
        "label": "sin-stationary",
        "cone": {"kind": "orthant", "dim": 1},
        "domain": {"windows": [{"a": 0.0, "b": 1.2, "step": 0.05}]},
        "map": {"pieces": [{"guard": "true",
                            "box": [{"lo": "sin(x1)", "hi": "sin(x1) + 1"}]}]},
        "family": {"subst": "n", "n_max": 160},
    })
    omega = sinfam.base.value(12)
    rep = levelset_convergence_experiment(
        sinfam, lambda n: translate(omega, delta * ctx1.u), omega, ctx1,
        battery=battery)
    assert all(v.is_holds for v in rep.hypotheses.values())
    assert rep.conclusions["upper"].is_holds
    assert rep.conclusions["lower"].is_holds
    assert rep.extras["lsc_cross"].is_holds
    _levelset_gates_sound(rep)
    satisfied.append("levelset-sine")

    # 3) stationary-sequence variational convergence on the cosine family
    cos = load_builtin("gamma_cos")
    rep = gamma_check(cos, [0.0], battery, OrderCtx(cos.base.cone))
    assert rep.overall is Status.HOLDS
    _gamma_overall_sound(rep)
    satisfied.append("gamma-cosine")

    # 4) + 5) relaxed stability of the shrinking sine example, both ways
    sop = load_builtin("sop_sin")
    sctx = OrderCtx(sop.base.cone)
    ext = stability_experiment(sop, "Relaxed", "external", sctx,
                               battery=battery)
    assert all(v.is_holds for v in ext.hypotheses.values())
    assert ext.conclusion.is_holds
    assert len(ext.clusters) == 1 and ext.clusters[0]["base_index"] == 0
    _stability_gates_sound(ext)
    satisfied.append("sine-external")
    inn = stability_experiment(sop, "Relaxed", "internal", sctx,
                               battery=battery)
    assert all(v.is_holds for v in inn.hypotheses.values())
    assert inn.conclusion.is_holds
    _stability_gates_sound(inn)
    satisfied.append("sine-internal")

    # 6) + 7) Geoffroy stability of the stationary jump example
    import pathlib
    gdoc = json.loads((pathlib.Path(cli.__file__).parent / "data" /
                       "problems" / "geff_vs_reff.json").read_text())
    gdoc["family"] = {"subst": "n", "n_max": 160}
    gfam = load_dict(gdoc)
    gctx = OrderCtx(gfam.base.cone)
    ext = stability_experiment(gfam, "Geoffroy", "external", gctx,
                               battery=battery)
    assert ext.hypotheses["representants"].is_holds
    assert ext.conclusion.is_holds
    assert len(ext.clusters) == 30
    _stability_gates_sound(ext)
    satisfied.append("jump-external")
    inn = stability_experiment(gfam, "Geoffroy", "internal", gctx,
                               battery=battery)
    assert inn.conclusion.is_holds
    _stability_gates_sound(inn)
    satisfied.append("jump-internal")

    # 8) exponentially decaying up-shift still variationally converges
    fast = _linear_family(map_n=("x1 + exp(-n)", "x1 + 1 + exp(-n)"))
    rep = gamma_check(fast, [0.5], battery, ctx1)
    assert rep.overall is Status.HOLDS
    _gamma_overall_sound(rep)
    satisfied.append("gamma-fast-shift")

    # 9) three mutually incomparable value classes, external Geoffroy
    three = load_dict({
        "label": "three-classes",
        "cone": {"kind": "orthant", "dim": 2},
        "domain": {"points": [[0.0], [1.0], [2.0]]},
        "map": {"pieces": [
            {"guard": "x1 < 0.5", "points": [[0, 2]]},
            {"guard": "x1 < 1.5", "points": [[1, 1]]},
            {"guard": "true", "points": [[2, 0]]},
        ]},
        "family": {"subst": "n", "n_max": 160},
    })
    tctx = OrderCtx(three.base.cone)
    rep = stability_experiment(three, "Geoffroy", "external", tctx,
                               battery=battery)
    assert rep.hypotheses["representants"].is_holds
    assert rep.conclusion.is_holds
    assert len(rep.clusters) == 3
    _stability_gates_sound(rep)
    satisfied.append("three-classes")

    # 10) the decaying shift again, through external relaxed stability
    rep = stability_experiment(fast, "Relaxed", "external", ctx1,
                               battery=battery)
    assert all(v.is_holds for v in rep.hypotheses.values())
    assert rep.conclusion.is_holds
    _stability_gates_sound(rep)
    satisfied.append("fast-shift-external")

    # 11) escaping domains poison the shared variational gate
    esc = _linear_family(domain_n={
        "windows": [{"a": "n", "b": "n + 1", "step": 0.25}]}, n_max=160)
    dv = kuratowski_pair(esc.domain_at, esc.base.domain, 64)
    assert dv.is_fails and "escapes" in dv.reason
    rep = stability_experiment(esc, "Relaxed", "external", ctx1,
                               battery=battery)
    assert rep.hypotheses["gamma_seq"].is_fails
    assert rep.conclusion.is_inconclusive
    assert "gamma_seq" in rep.conclusion.reason
    _stability_gates_sound(rep)
    violated.append("escaping-domains")

    # 12) constant up-shift breaks the recovery condition at eps = 0.25
    up = _linear_family(map_n=("x1 + 0.5", "x1 + 1.5"))
    rep = gamma_check(up, [0.5], battery, ctx1)
    assert rep.lower_verdict.is_holds
    assert rep.upper_verdict.is_fails
    assert rep.counterexample["eps"] == pytest.approx(0.25)
    assert rep.counterexample["via_hint"] is False
    assert rep.overall is Status.FAILS
    _gamma_overall_sound(rep)
    violated.append("gamma-up-shift")

    # 13) targets drifting down: the strict-improvement hypothesis fails
    #     and the lower conclusion is withheld, not asserted
    fam = _linear_family(step=0.02)
    omega = fam.base.value(25)
    rep = levelset_convergence_experiment(
        fam, lambda n: translate(omega, -float(n) * ctx1.u), omega, ctx1,
        battery=battery)
    assert rep.hypotheses["shift_lower"].is_fails
    assert rep.conclusions["lower"].is_inconclusive
    assert rep.conclusions["lower"].certificate[
        "unasserted_check"]["status"] == "Fails"
    assert rep.conclusions["upper"].is_holds
    _levelset_gates_sound(rep)
    violated.append("levelset-down-drift")

    # 14) sign-flipping map family breaks the sequential lower converse
    flip = load_dict({
        "label": "flip",
        "cone": {"kind": "orthant", "dim": 1},
        "domain": {"points": [[0.0], [1.0]]},
        "map": {"pieces": [{"guard": "true",
                            "box": [{"lo": "x1", "hi": "x1 + 1"}]}]},
        "family": {"subst": "n", "n_max": 200, "map_n": {"pieces": [
            {"guard": "true",
             "box": [{"lo": "cos(pi*n)*x1", "hi": "cos(pi*n)*x1 + 1"}]},
        ]}},
    })
    v = seq_lower_converse(flip, ctx1, battery=battery)
    assert v.is_fails
    assert v.counterexample["n"] % 2 == 1
    violated.append("sign-flip")

    # 15) an open flag keeps the better point out of the level set, so
    #     reachability fails even though the point improves the value
    C2 = Cone.orthant(2)
    tab = {(0.0, 0.0): box([0.0, 0.0], [1.0, 1.0]),
           (1.0, 0.0): box([-0.25, 0.0], [1.0, 1.0], lo_open=[False, True])}
    P = Problem("flag-split", TableMap(lambda x, t=tab: t[x], 2), C2,
                Domain.from_points([[0.0, 0.0], [1.0, 0.0]]))
    c2 = OrderCtx(C2)
    assert eff(P, "Geoffroy", c2).indices == (1,)
    h = hypothesis_h(P, "Geoffroy", 0, c2)
    assert h.is_fails
    assert h.counterexample["eff_indices"] == [1]
    violated.append("flag-split")

    # 16) oscillating down-shift breaks the lower condition on odd n
    osc = _linear_family(map_n=("x1 - 0.25*(1 - cos(pi*n))",
                                "x1 - 0.25*(1 - cos(pi*n)) + 1"))
    rep = gamma_check(osc, [0.5], battery, ctx1)
    assert rep.lower_verdict.is_fails
    assert rep.lower_verdict.counterexample["n"] % 2 == 1
    assert rep.lower_verdict.counterexample["eps"] == pytest.approx(0.5)
    assert rep.upper_verdict.is_holds
    assert rep.overall is Status.FAILS
    _gamma_overall_sound(rep)
    violated.append("gamma-oscillation")

    # 17) targets drifting up: the eventual-containment hypothesis fails
    #     and the upper conclusion is withheld
    rep = levelset_convergence_experiment(
        fam, lambda n: translate(omega, float(n) * ctx1.u), omega, ctx1,
        battery=battery)
    assert rep.hypotheses["shift_upper"].is_fails
    assert rep.conclusions["upper"].is_inconclusive
    assert rep.conclusions["lower"].is_holds
    _levelset_gates_sound(rep)
    violated.append("levelset-up-drift")

    # 18) value jump: upper semicontinuity fails from below while lower
    #     semicontinuity survives
    geff = load_builtin("geff_vs_reff")
    gc = OrderCtx(geff.cone)
    v = usc_check(geff, [2.0], battery, gc)
    assert v.is_fails
    assert v.counterexample["strategy"] == "boundary-hugging"
    assert v.counterexample["eps"] == pytest.approx(1.0)
    assert lsc_check(geff, [2.0], battery, gc).is_holds
    violated.append("usc-jump")

    # 19) alternating window families have no set limit
    alt = _linear_family(domain_n={
        "windows": [{"a": "5*(1 - cos(pi*n))",
                     "b": "5*(1 - cos(pi*n)) + 1", "step": 0.25}]},
        n_max=160)
    v = kuratowski_pair(alt.domain_at, alt.base.domain, 64)
    assert v.is_fails
    assert v.counterexample["e_tail"] == pytest.approx(10.0, abs=1e-6)
    violated.append("alternating-domains")

    # 20) a far improvement at one point breaks variational convergence,
    #     so internal stability withholds its conclusion
    far = load_dict({
        "label": "far-drop",
        "cone": {"kind": "orthant", "dim": 1},
        "domain": {"windows": [{"a": 0.0, "b": 1.0, "step": 0.05}]},
        "map": {"pieces": [{"guard": "true",
                            "box": [{"lo": "x1", "hi": "x1 + 1"}]}]},
        "family": {"subst": "n", "n_max": 200, "map_n": {"pieces": [
            {"guard": "x1 < 0.9", "box": [{"lo": "x1", "hi": "x1 + 1"}]},
            {"guard": "x1 >= 0.9",
             "box": [{"lo": "x1 - 2 - 1/(n+1)", "hi": "x1 + 1"}]},
        ]}},
    })
    rep = stability_experiment(far, "Relaxed", "internal", ctx1,
                               battery=battery)
    assert rep.hypotheses["gamma_seq"].is_fails
    assert rep.conclusion.is_inconclusive
    assert "gamma_seq" in rep.conclusion.reason
    _stability_gates_sound(rep)
    violated.append("far-drop")

    assert len(satisfied) == 10, satisfied
    assert len(violated) == 10, violated


# ------------------------------------------------------------- criterion 9

def test_09_repro_reports_are_byte_identical(capsys):
    """Regenerated pinned reports equal the stored bytes, twice over."""
    for ex_id in cli._REPRO_IDS:
        first = cli._dump(cli._repro_report(ex_id))
        second = cli._dump(cli._repro_report(ex_id))
        assert first == second, ex_id
        golden = (cli._GOLDEN_DIR / f"{ex_id}.json").read_bytes()
        assert first.encode("utf-8") == golden, ex_id
        assert cli.main(["repro", ex_id]) == 0
        assert "byte-identical" in capsys.readouterr().out
