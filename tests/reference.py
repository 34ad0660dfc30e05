"""Definitional brute-force oracles for cross-checking the solvers.

The minimality oracles are written straight from the definitions using
only the public pairwise order predicates. No matrices, no caching, no
shared code with setorder.solve beyond the order module itself.
``is_c_proper`` is the per-value properness check, on
``exterior_point``; ``sample_points`` draws points of a set.

The tail-scan references further down ask every (n, eps) pair of a
convergence check as its own pairwise predicate call, and every value as
its own map.value call, the way the package did before it asked whole
tails and eps schedules through corner tables. They share the battery's
sequences, the schedule helpers and the pair sampling with the package.
``battery_point`` is the battery's former one-point-at-a-time generator,
and ``batched`` asks a per-candidate margin the way the battery asks its
one margin call per sequence.
``gamma_report`` and ``lsc_verdict`` are the one-point checks built on
those scans, which the package now asks for blocks of grid points at once.

``cluster`` is the stability experiment's former all-pairs clustering,
which tests every pair of tail points; the package sweeps them in order of
their first coordinate.

``window_count`` is a grid window's former point count: it doubles an
upper bound and bisects, where the package starts from the quotient
(b - a) / step.

``evaluate_rows`` is the expression evaluator's former row path: it checks
finiteness at every node and calls the per-element math functions on
every row, which the package now does only where a non-finite value can
vanish, and once per distinct n where an argument reads n alone.
Its ^ calls ``_pow_or_nan`` on every element, where the package makes one
pass of math.pow and falls back to ``_pow_or_nan`` only when that raises.

``parse`` is the expression parser's former token-at-a-time form: it
matches one token per regex call, peeks a (kind, text, column) tuple per
token and measures every tree's height, where the package scans the
string once and measures the height only past ``MAX_DEPTH`` tokens.

``pk_json``, ``gamma_json``, ``levelset_json``, ``stability_json`` and
``eff_json`` are the reports' former hand-written serializers, one
conversion per field; the package writes every report through one
serializer, ``verdict._jsonify``.
"""

from __future__ import annotations

import math
import re
from itertools import combinations

import numpy as np

from setorder.cone import Cone
from setorder.converge import (
    MAX_BALL_SPLITS,
    RECOVERY_BUDGET,
    EPS,
    GammaReport,
    io_threshold,
    upper_half,
)
from setorder.errors import (DimensionMismatch, ExprSyntaxError, InternalCheckError,
                             NoRecoveryFound, ProblemLoadError)
from setorder.expr import (_CONSTANTS, _FUNCTIONS, _ROW_CALLS, _VAR, MAX_DEPTH, BinOp,
                           Call, Lit, Neg, Var, _height, _pow_or_nan)
from setorder.order import OrderCtx, large_le, lower_le, shift_margin, strict_lt
from setorder.problem import (
    EXTERIOR_INSIDE,
    Domain,
    PerturbedFamily,
    Problem,
    TableMap,
    Window,
    family_at,
)
from setorder.setrep import BoxUnion, Box, PointCloud, box, points, translate
from setorder.solve import relation_matrices
from setorder.verdict import Verdict


def window_count(w: Window) -> int:
    """The first j whose point a + j*step lies outside the window, by
    doubling an upper bound and bisecting; refused once a point past 2^53
    lies inside."""
    hi = 1
    while w._holds(hi):
        if hi > 2 ** 53:
            raise ProblemLoadError(
                f"window [{w.a}, {w.b}] step {w.step} has over 2^53 points")
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if w._holds(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def evaluate_rows(e, x: np.ndarray, n=None) -> tuple[np.ndarray, np.ndarray]:
    """(values, suspect) as ``setorder.expr.evaluate_rows`` gives them."""
    suspect = np.zeros(x.shape[0], dtype=bool)
    with np.errstate(all="ignore"):
        v = _eval_rows(e, x, n, suspect)
    return np.broadcast_to(np.asarray(v, dtype=float), suspect.shape), suspect


def _eval_rows(e, x, n, suspect):
    if isinstance(e, Lit):
        v = e.value
    elif isinstance(e, Var):
        if e.name == "n":
            v = n
        else:
            k = int(e.name[1:]) - 1
            v = x[:, k] if k < x.shape[1] else None
        if v is None:
            suspect[:] = True
            return 0.0
    elif isinstance(e, Neg):
        v = -_eval_rows(e.arg, x, n, suspect)
    elif isinstance(e, Call):
        a = _eval_rows(e.arg, x, n, suspect)
        if e.func in _ROW_CALLS:
            v = np.asarray(_ROW_CALLS[e.func](np.where(np.isfinite(a), a, 0.0)),
                           dtype=float)
        elif e.func == "abs":
            v = np.abs(a)
        else:
            suspect |= a < 0
            v = np.sqrt(a)
    else:
        assert isinstance(e, BinOp)
        a = _eval_rows(e.left, x, n, suspect)
        b = _eval_rows(e.right, x, n, suspect)
        if e.op == "+":
            v = np.add(a, b)
        elif e.op == "-":
            v = np.subtract(a, b)
        elif e.op == "*":
            v = np.multiply(a, b)
        elif e.op == "/":
            suspect |= np.equal(b, 0.0)
            v = np.divide(a, b)
        else:
            v = np.asarray(_ROW_POW(a, b), dtype=float)
    suspect |= ~np.isfinite(v)
    return v


_ROW_POW = np.frompyfunc(_pow_or_nan, 2, 1)


_TOKEN = re.compile(r"""
    (?P<num>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def parse(src: str):
    """``setorder.expr.parse`` as the token-at-a-time parser gives it."""
    if not isinstance(src, str) or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(src).parse()


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.src))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.take()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse(self):
        e = self.expr()
        kind, text, pos = self.peek()
        if kind is not None:
            raise ExprSyntaxError(f"trailing input {text!r}", pos)
        if _height(e) > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", 0)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                e = BinOp(text, e, self.term())
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                e = BinOp(text, e, self.factor())
            else:
                return e

    def factor(self):
        kind, text, pos = self.peek()
        if self.depth == MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
        self.depth += 1
        if kind == "op" and text == "-":
            self.take()
            e = Neg(self.factor())
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        kind, text, pos = self.take()
        if kind == "num":
            return Lit(float(text))
        if kind == "name":
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in _CONSTANTS:
                return Lit(_CONSTANTS[text])
            if _VAR.match(text):
                return Var(text)
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(
            f"expected a value, got {text!r}" if kind else "unexpected end of input", pos)


def brute_eff(P: Problem, kind: str, ctx: OrderCtx) -> tuple[int, ...]:
    vals = list(P.values())
    keep = []
    for i, fi in enumerate(vals):
        if kind == "Strong":
            good = all(lower_le(fi, fj, ctx) for fj in vals)
        elif kind == "Pareto":
            good = all(lower_le(fi, fj, ctx)
                       for fj in vals if lower_le(fj, fi, ctx))
        elif kind == "Geoffroy":
            good = all(large_le(fi, fj, ctx)
                       for fj in vals if large_le(fj, fi, ctx))
        elif kind == "Relaxed":
            good = not any(strict_lt(fj, fi, ctx) for fj in vals)
        else:
            raise ValueError(kind)
        if good:
            keep.append(i)
    return tuple(keep)


#: the shifts t of the existential-epsilon form of strict_lt, along t*u
EPS_SCHEDULE = tuple(2.0 ** -k for k in range(21))


def strict_lt_by_search(A, B, ctx: OrderCtx) -> bool:
    """Existential form of strict_lt along the ray eps = t*u."""
    return any(lower_le(translate(A, t * ctx.u), B, ctx) for t in EPS_SCHEDULE)


def exterior_point(A, C: Cone) -> np.ndarray | None:
    """A point z outside cl(A + C), or None for a box union under a general
    cone; one value at a time, the reference for problem._exterior_rows."""
    if A.dim != C.dim:
        raise DimensionMismatch(f"set dim {A.dim} against cone dim {C.dim}")
    if isinstance(A, BoxUnion):
        return A.lower_corners()[0].min(axis=0) - 1.0 if C.kind == "orthant" else None
    # push far enough along -u that the first halfspace row rules out
    # domination by every point of A
    pmin = A.points.min(axis=0)
    h0 = C.h_coords(A.points)[:, 0]
    t = 1.0 + float(C.h_coords(pmin.reshape(1, -1))[0, 0] - h0.min())
    return pmin - t * C.interior_direction


def is_c_proper(A, C: Cone) -> Verdict:
    """A + C != R^d, certified by a point outside cl(A + C), one value at a
    time; a patch of this module's ``exterior_point`` reaches it."""
    z = exterior_point(A, C)
    if z is None:
        return Verdict.inconclusive("box-union sets under a general cone are unsupported")
    if large_le(A, points(z), OrderCtx(C)):
        return Verdict.fails(EXTERIOR_INSIDE, counterexample={"point": z})
    return Verdict.holds("found a point outside cl(A + C)", certificate={"point": z})


def sample_points(A, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw points of A itself (not of A + C).

    Box sampling stays strictly inside open ends and caps unbounded axes.
    """
    if isinstance(A, PointCloud):
        idx = rng.integers(0, A.points.shape[0], size=count)
        return A.points[idx]
    out = np.empty((count, A.dim))
    which = rng.integers(0, len(A.boxes), size=count)
    for i in range(count):
        b = A.boxes[which[i]]
        for j in range(A.dim):
            lo, hi = b.lo[j], b.hi[j]
            if hi == math.inf:
                hi = lo + 2.0
            if lo == hi:
                out[i, j] = lo
                continue
            frac = rng.uniform(0.25, 0.75)
            out[i, j] = lo + frac * (hi - lo)
    return out


def brute_level_set(P: Problem, S, ctx: OrderCtx, rel) -> tuple[int, ...]:
    """Grid indices i with rel(F_i, S), one pairwise predicate call each."""
    return tuple(i for i, fi in enumerate(P.values()) if rel(fi, S, ctx))


def brute_level_set_above(S, P: Problem, ctx: OrderCtx, rel) -> tuple[int, ...]:
    """Grid indices j with rel(S, F_j), one pairwise predicate call each."""
    return tuple(j for j, fj in enumerate(P.values()) if rel(S, fj, ctx))


def validate_witnesses(P: Problem, kind: str, indices, witness, ctx: OrderCtx) -> None:
    """Every excluded index must carry a pair that definitionally excludes it."""
    included = set(indices)
    for i in range(len(P)):
        if i in included:
            assert i not in witness
            continue
        w = witness[i]
        fi, fw = P.value(i), P.value(w)
        if kind == "Strong":
            assert not lower_le(fi, fw, ctx)
        elif kind == "Pareto":
            assert lower_le(fw, fi, ctx) and not lower_le(fi, fw, ctx)
        elif kind == "Geoffroy":
            assert large_le(fw, fi, ctx) and not large_le(fi, fw, ctx)
        else:
            assert strict_lt(fw, fi, ctx)


def _random_value(rng: np.random.Generator, d: int, *, clouds_only: bool,
                  closed_only: bool):
    kind = "cloud" if clouds_only else rng.choice(["box", "box2", "cloud"])
    if kind == "cloud":
        k = int(rng.integers(1, 5))
        return points(rng.uniform(-2.0, 2.0, size=(k, d)))
    def one_box():
        lo = rng.uniform(-2.0, 2.0, size=d)
        width = rng.uniform(0.1, 2.0, size=d)
        hi = lo + width
        if rng.random() < 0.2:
            hi[int(rng.integers(0, d))] = np.inf
        if closed_only:
            lo_open = [False] * d
        else:
            lo_open = [bool(rng.random() < 0.3) for _ in range(d)]
        hi_open = [bool(h == np.inf or rng.random() < 0.3) for h in hi]
        return Box(tuple(map(float, lo)), tuple(map(float, hi)),
                   tuple(lo_open), tuple(hi_open))
    nb = 2 if kind == "box2" else 1
    return BoxUnion(d, tuple(one_box() for _ in range(nb)))


def random_problem(rng: np.random.Generator, *, max_points: int = 50,
                   closed_only: bool = False, orthant_only: bool = False) -> Problem:
    """Seeded random instance with mixed set representations.

    General (non-orthant) cones force point-cloud values, since box upper
    sets are only exact under the orthant.
    """
    d = int(rng.integers(1, 4))
    n = int(rng.integers(3, max_points + 1))
    if orthant_only or rng.random() < 0.7:
        cone = Cone.orthant(d)
        clouds_only = False
    else:
        rows = np.eye(d) + rng.uniform(-0.3, 0.3, size=(d, d))
        try:
            cone = Cone.from_halfspaces(rows)
        except Exception:
            cone = Cone.orthant(d)
        clouds_only = cone.kind != "orthant"
    pts = rng.uniform(-2.0, 2.0, size=(n, d))
    vals = [_random_value(rng, d, clouds_only=clouds_only,
                          closed_only=closed_only) for _ in range(n)]
    table = {tuple(map(float, p)): v for p, v in zip(pts, vals)}
    fn = lambda x: table[tuple(map(float, x))]
    return Problem(f"random[{n}x{d}]", TableMap(fn, d), cone,
                   Domain.from_points(pts))


def random_family(rng: np.random.Generator, n_max: int = 40):
    """Seeded family F_n(x) = S + (c·|x - 1/2|_1 + s_n)·v on a window grid.

    S is a random value as in random_problem (clouds under general cones,
    clouds or box unions with open flags under the orthant), v a random
    direction and s_n a per-n offset of random scale that is zero at n = 0
    and at about a fifth of the other indices, so tails both hold and break,
    at varied eps. Returns the family and a grid point x̄.
    """
    d = int(rng.integers(1, 4))
    cone = Cone.orthant(d)
    if rng.random() < 0.5:
        try:
            cone = Cone.from_halfspaces(np.eye(d) + rng.uniform(-0.3, 0.3, size=(d, d)))
        except Exception:
            pass
    S = _random_value(rng, d, clouds_only=cone.kind != "orthant",
                      closed_only=False)
    v = rng.normal(size=d)
    c = float(rng.choice([0.0, 0.05, 0.5]))
    offsets = rng.uniform(-1.0, 1.0, size=n_max + 1) * float(rng.choice([1e-4, 0.01, 0.3]))
    offsets[rng.random(n_max + 1) < 0.2] = 0.0
    offsets[0] = 0.0
    dom = Domain.from_windows([Window(0.0, 1.0, float(rng.choice([0.125, 0.25])))]
                              * int(rng.integers(1, 3)))

    def value(x, n):
        return translate(S, (c * float(np.abs(np.asarray(x) - 0.5).sum())
                             + offsets[n]) * v)

    base = Problem("random-family", TableMap(lambda x: value(x, 0), d), cone, dom)
    fam = PerturbedFamily(base, TableMap(value, d), lambda n: dom, n_max)
    return fam, dom.points[int(rng.integers(0, len(dom)))]


def with_parts(fam: PerturbedFamily, **parts) -> PerturbedFamily:
    """A fresh family with fam's parts, some replaced: its caches start empty."""
    kw = dict(base=fam.base, map=fam.map, domains=fam.domains, n_max=fam.n_max,
              recovery_hint=fam.recovery_hint, label=fam.label)
    return PerturbedFamily(**{**kw, **parts})


def pk_cluster_oracle(phase_sets, n0, candidates, N, tol_fn, need):
    """Li/Ls of an eventually periodic set sequence, by phase arithmetic.

    The sequence is A_n = phase_sets[(n - n0) % p] for n >= n0. Membership
    is decided from the per-phase point distances alone: a candidate hits
    index n exactly when its distance to the phase set is within tol_fn(n),
    so counting hits reduces to comparing each phase distance against the
    tolerances of that phase's tail indices.
    """
    p = len(phase_sets)
    cands = np.asarray(candidates, dtype=float)
    if cands.ndim == 1:
        cands = cands[:, None]
    tail = [n for n in range(N) if n >= (N + 1) // 2] if N % 2 else \
        list(range(N // 2, N))
    li, ls = [], []
    for x in cands:
        dists = []
        for ph in range(p):
            s = np.asarray(phase_sets[ph], dtype=float)
            if s.ndim == 1:
                s = s[:, None]
            dists.append(float(np.linalg.norm(s - x, axis=1).min()))
        hits = sum(1 for n in tail
                   if dists[(n - n0) % p] <= tol_fn(n))
        if hits == len(tail):
            li.append(tuple(map(float, x)))
        if hits >= need:
            ls.append(tuple(map(float, x)))
    return tuple(li), tuple(ls)


def max_margin_oracle(G: np.ndarray) -> float:
    """max_{|u|_inf <= 1} min_i g_i . u by enumerating the LP's vertices.

    The LP in (u, t) is max t s.t. G u >= t, -1 <= u <= 1. Its feasible set
    is pointed and t is bounded above, so the optimum sits at a vertex: a
    point where d+1 linearly independent constraints hold with equality.
    Try every (d+1)-subset; exponential, so keep d <= 3 and few rows.
    """
    m, d = G.shape
    # every constraint written as a . (u, t) >= b
    A = np.vstack([np.c_[G, -np.ones(m)],
                   np.c_[np.eye(d), np.zeros(d)],
                   np.c_[-np.eye(d), np.zeros(d)]])
    b = np.r_[np.zeros(m), -np.ones(2 * d)]
    best = -np.inf
    for S in combinations(range(len(A)), d + 1):
        M = A[list(S)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        y = np.linalg.solve(M, b[list(S)])
        if np.all(A @ y >= b - 1e-12):
            best = max(best, float(y[-1]))
    return best


# ------------------------------------------------- pair-at-a-time tail scans

def battery_radius(domain: Domain, n: int) -> float:
    if domain.windows:
        R = max(w.b - w.a for w in domain.windows)
    else:
        spread = domain.points.max(axis=0) - domain.points.min(axis=0)
        R = float(spread.max())
    if R <= 0.0:
        R = 1.0
    return R / (2.0 ** min(n, 1000))


def clamp_point(x: np.ndarray, domain: Domain) -> np.ndarray:
    if not domain.windows:
        return domain.points[domain.nearest_index(x)].copy()
    out = np.array(x, dtype=float)
    for k, w in enumerate(domain.windows):
        hi = np.nextafter(w.b, w.a) if w.hi_open else w.b
        out[k] = min(max(out[k], w.a), hi)
    return out


def battery_point(battery, name: str, target, domain: Domain, n: int,
                  margin=None, variant: int = 0) -> np.ndarray:
    """SeqGenBattery's point at n, built on its own with a fresh generator."""
    t = np.asarray(target, dtype=float).reshape(-1)
    r = battery_radius(domain, n)
    d = t.shape[0]
    e = np.ones(d) / math.sqrt(d)
    if name == "constant":
        raw = t
    elif name == "radial-shrink":
        raw = t + r * e
    elif name == "boundary-hugging":
        raw = t - r * e
    elif name == "random-in-ball":
        rng = np.random.default_rng((battery.seed, variant, n, 17))
        vec = rng.normal(size=d)
        vec /= max(np.linalg.norm(vec), 1e-300)
        raw = t + r * rng.uniform(0.0, 1.0) * vec
    elif name == "adversarial-worst":
        dists = np.linalg.norm(domain.points - t, axis=1)
        cand = np.flatnonzero(dists <= r + 1e-12)
        if len(cand) == 0:
            return clamp_point(t, domain)
        if margin is None or len(cand) == 1:
            return domain.points[cand[int(np.argmin(dists[cand]))]].copy()
        best = min((float(margin(domain.points[i])), float(dists[i]), int(i))
                   for i in cand)
        return domain.points[best[2]].copy()
    else:
        raise ValueError(f"unknown strategy {name!r}")
    return clamp_point(raw, domain)


def batched(margin):
    """A per-candidate margin(x, n, g) as the battery's one call per
    sequence over the rows of x (C, d), n (C,) and g (C,), asked row by row
    in order, so that the first raising candidate raises."""
    def scores(x, n, g):
        return np.array([float(margin(xc, nc, gc))
                         for xc, nc, gc in zip(x, n.tolist(), g.tolist())])
    return scores


def largest_failing_eps(cond, ctx: OrderCtx) -> float:
    for t in EPS:
        if not cond(t):
            return t
    return EPS[-1]


def tail_scan(value, t, Fx, battery, ctx: OrderCtx, horizon: int, domain_at,
              mode: str):
    """converge._tail_scan with one strict_lt call per (n, eps)."""
    u = ctx.u
    flo = EPS[-1]
    lsc = mode == "lsc"
    fx_down = {e: translate(Fx, -e * u) for e in EPS} if lsc else {}

    def holds(Fn, e):
        if lsc:
            return strict_lt(fx_down[e], Fn, ctx)
        return strict_lt(translate(Fn, -e * u), Fx, ctx)

    def margin(x, n, g):
        Fn = value(x, n)
        return shift_margin(Fx, Fn, ctx) if lsc else shift_margin(Fn, Fx, ctx)

    tail = upper_half(horizon)
    for name, variant, pts in battery.sequences(t, domain_at, horizon,
                                                margin=batched(margin),
                                                indices=tail):
        for n, x in zip(tail, pts):
            Fn = value(x, n)
            if not holds(Fn, flo):
                eps = largest_failing_eps(lambda e: holds(Fn, e), ctx)
                return {"strategy": name, "variant": variant, "n": n,
                        "x_n": [float(v) for v in x], "eps": float(eps)}
    return None


def theta(Fn, Fx, ctx: OrderCtx) -> float:
    """Largest scheduled eps for which Fn is not largely below Fx + eps·u."""
    worst = 0.0
    for e in EPS:
        if not large_le(Fn, translate(Fx, e * ctx.u), ctx):
            worst = max(worst, e)
    return worst


def recovery_search(fam, t, Fx, battery, ctx: OrderCtx, horizon: int, domain_at):
    best = {}
    spent = 0
    for n in upper_half(horizon):
        dom = domain_at(n)
        dists = np.linalg.norm(dom.points - t, axis=1)
        near = int(np.argmin(dists))
        r = max(battery.radius(dom, min(n, MAX_BALL_SPLITS)), float(dists[near]))
        cand = np.flatnonzero(dists <= r + 1e-12)
        if spent + len(cand) > RECOVERY_BUDGET:
            raise NoRecoveryFound(
                f"recovery search budget {RECOVERY_BUDGET} exhausted at n = {n}")
        scored = []
        for i in cand:
            Fn = fam.map.value(tuple(dom.points[i]), n)
            scored.append((theta(Fn, Fx, ctx), float(dists[i]), int(i)))
            spent += 1
        scored.sort()
        th, _, idx = scored[0]
        best[n] = (th, dom.points[idx])
    return best


def gamma_upper(fam, t, Fx, battery, ctx: OrderCtx, horizon: int, domain_at):
    """converge._gamma_upper with one large_le call per (n, eps)."""
    flo = EPS[-1]
    hint = fam.recovery_hint is not None
    if hint:
        seq = {n: clamp_point(np.asarray(fam.recovery_point(t, n), dtype=float),
                              domain_at(n))
               for n in upper_half(horizon)}
    else:
        try:
            found = recovery_search(fam, t, Fx, battery, ctx, horizon, domain_at)
        except NoRecoveryFound as err:
            return Verdict.inconclusive(
                reason=f"recovery sequence not determined: {err}",
                sampled=True), ()
        seq = {n: x for n, (_, x) in found.items()}
    recovery_used = []
    fails = None
    for n, x in sorted(seq.items()):
        recovery_used.append((n, tuple(float(v) for v in x)))
        Fn = fam.map.value(tuple(x), n)
        if not large_le(Fn, translate(Fx, flo * ctx.u), ctx):
            fails = {"n": n, "x_star": [float(v) for v in x],
                     "eps": float(theta(Fn, Fx, ctx)), "via_hint": hint}
            break
    if fails is None:
        v = Verdict.holds(
            reason="recovery sequence keeps every tail value largely below "
                   "the shifted limit value",
            certificate={"via_hint": hint, "eps_floor": flo}, sampled=not hint)
    else:
        v = Verdict.fails(
            reason=f"recovery value exceeds the limit value at n = {fails['n']} "
                   f"for eps up to {fails['eps']:.6g}",
            counterexample=fails, sampled=False)
    return v, tuple(recovery_used)


def neighborhood_route(fam, t, Fx, battery, ctx: OrderCtx, horizon: int):
    """converge's shrinking-neighbourhood route at x̄ = t, one strict_lt
    call per (tail member, grid point): (passes, j or None)."""
    members = [family_at(fam, n) for n in upper_half(horizon)]
    shifted = translate(Fx, -EPS[-1] * ctx.u)
    pts = fam.base.domain.points
    dists = np.linalg.norm(pts - t, axis=1)
    bad_dist = min((float(dists[i]) for i in range(len(pts))
                    if not all(strict_lt(shifted, Pn.value(i), ctx)
                               for Pn in members)), default=math.inf)
    R = battery_radius(fam.base.domain, 0)
    j = next((j for j in range(MAX_BALL_SPLITS + 1) if R / 2 ** j < bad_dist),
             None)
    return j is not None, j


def gamma_report(fam, t, battery, ctx: OrderCtx, horizon: int, domain_at,
                 neighborhood: bool, domains_verdict=None) -> GammaReport:
    """converge's variational-convergence check at the one point t, F(x̄)
    from the base problem, on the pair-at-a-time scans above."""
    t = np.asarray(t, dtype=float)
    flo = EPS[-1]
    Fx = fam.base.map.value(tuple(t), fam.base.n)
    ce = tail_scan(lambda x, n: fam.map.value(tuple(x), n), t, Fx, battery, ctx,
                   horizon, domain_at, "lsc")
    reason = "lower inequality held along every in-domain sequence"
    certificate = {"seed": battery.seed, "horizon": horizon, "eps_floor": flo}
    if neighborhood:
        ok_n, j = neighborhood_route(fam, t, Fx, battery, ctx, horizon)
        if ok_n != (ce is None):
            raise InternalCheckError(
                f"lower-route disagreement at x̄ = {t.tolist()}: battery says "
                f"{ce is None}, neighborhoods say {ok_n}; the characterization "
                "lemma makes these equivalent")
        reason = "both lower routes pass on the floored eps schedule"
        certificate["neighborhood_j"] = j
    if ce is None:
        lower_v = Verdict.holds(reason=reason, certificate=certificate,
                                sampled=True)
    else:
        ce = {"route": "battery", **ce}
        lower_v = Verdict.fails(reason="lower inequality falsified",
                                counterexample=ce, sampled=False)
    upper_v, recovery = gamma_upper(fam, t, Fx, battery, ctx, horizon, domain_at)
    if ce is None:
        ce = dict(upper_v.counterexample) if upper_v.is_fails else {}
    return GammaReport(tuple(float(v) for v in t), lower_v, upper_v, recovery,
                       EPS, ce, domains_verdict, horizon,
                       battery.seed)


def lsc_verdict(P: Problem, t, battery, ctx: OrderCtx, horizon: int) -> Verdict:
    """converge.lsc_check at the one point t, on tail_scan."""
    Fx = P.map.value(tuple(t), P.n)
    ce = tail_scan(lambda x, n: P.map.value(tuple(x), P.n), t, Fx, battery, ctx,
                   horizon, lambda n: P.domain, "lsc")
    if ce is None:
        return Verdict.holds(
            reason="lsc inequality held on every tail index of every "
                   "generated sequence",
            certificate={"seed": battery.seed, "horizon": horizon,
                         "eps_floor": EPS[-1],
                         "strategies": list(battery.strategy_names())},
            sampled=True)
    return Verdict.fails(
        reason=f"lsc comparison breaks at n = {ce['n']} under "
               f"strategy {ce['strategy']} with eps = {ce['eps']:.6g}",
        counterexample=ce, sampled=True)


def target_hypotheses(omega_n, omega, ctx: OrderCtx, horizon: int):
    """Level-set hypotheses (b), upper and lower, one call per (n, eps)."""
    tail = list(upper_half(horizon))
    u = ctx.u
    flo = EPS[-1]
    need = io_threshold(horizon)
    hits = sum(1 for n in tail
               if large_le(translate(omega_n(n), -flo * u), omega, ctx))
    if hits >= need:
        hyp_up = Verdict.holds(
            reason=f"shifted target sets fall below the limit target on "
                   f"{hits}/{len(tail)} tail indices",
            certificate={"hits": hits, "needed": need, "eps_floor": flo},
            sampled=True)
    else:
        eps_bad = largest_failing_eps(
            lambda e: sum(1 for n in tail
                          if large_le(translate(omega_n(n), -e * u), omega, ctx)
                          ) >= need, ctx)
        hyp_up = Verdict.fails(
            reason=f"no tail subsequence of shifted target sets stays below "
                   f"the limit target (eps = {eps_bad:.6g})",
            counterexample={"hits": hits, "needed": need, "eps": float(eps_bad)},
            sampled=True)
    bad_n = next((n for n in tail if not strict_lt(omega, omega_n(n), ctx)), None)
    if bad_n is None:
        hyp_lo = Verdict.holds(
            reason="limit target strictly below every tail target set",
            certificate={"tail": len(tail)}, sampled=True)
    else:
        hyp_lo = Verdict.fails(
            reason=f"limit target not strictly below the target at n = {bad_n}",
            counterexample={"n": int(bad_n)}, sampled=True)
    return hyp_up, hyp_lo


def seq_lower_converse(fam, ctx: OrderCtx, *, samples: int = 32, battery=None,
                       horizon: int = 64) -> Verdict:
    """converge.seq_lower_converse with one large_le call per tail index."""
    base = fam.base
    pairs = np.argwhere(relation_matrices(base, ctx)[1])
    rng = np.random.default_rng(battery.seed + 7)
    if len(pairs) > samples:
        pairs = pairs[rng.choice(len(pairs), size=samples, replace=False)]
    checked = 0
    for i, j in pairs:
        xb = base.domain.points[int(i)]
        x0 = base.domain.points[int(j)]
        for name in battery.strategy_names():
            for n in upper_half(horizon):
                dom = fam.domain_at(n)
                xn = battery_point(battery, name, xb, dom, n)
                pn = battery_point(battery, name, x0, dom, n)
                checked += 1
                if not large_le(fam.map.value(xn, n), fam.map.value(pn, n), ctx):
                    return Verdict.fails(
                        reason=f"order between indices {int(i)} and {int(j)} breaks "
                               f"at n = {n} under strategy {name}",
                        counterexample={
                            "n": n, "strategy": name,
                            "xbar_index": int(i), "x0_index": int(j),
                            "x_n": [float(v) for v in xn],
                            "phi_n": [float(v) for v in pn]},
                        sampled=True)
    return Verdict.holds(
        reason=f"order preserved along {checked} tail comparisons "
               f"({len(pairs)} target pairs)",
        certificate={"pairs": int(len(pairs)), "comparisons": checked,
                     "seed": battery.seed, "horizon": horizon},
        sampled=True)


def cluster(points: list, radius: float):
    """Union-find agglomeration: points within radius share a cluster."""
    n = len(points)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(n):
        for b in range(a + 1, n):
            if np.linalg.norm(points[a][1] - points[b][1]) <= radius:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list] = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(points[a])
    return list(groups.values())


def pk_json(rep) -> dict:
    return {
        "horizon": rep.horizon,
        "tol_used": list(rep.tol_used),
        "li_estimate": [list(p) for p in rep.li_estimate],
        "ls_estimate": [list(p) for p in rep.ls_estimate],
        "lower_verdict": rep.lower_verdict.to_json(),
        "upper_verdict": rep.upper_verdict.to_json(),
    }


def gamma_json(rep) -> dict:
    out = {
        "point": list(rep.point),
        "overall": rep.overall.value,
        "lower_verdict": rep.lower_verdict.to_json(),
        "upper_verdict": rep.upper_verdict.to_json(),
        "recovery_used": [{"n": n, "point": list(p)}
                          for n, p in rep.recovery_used],
        "eps_probed": list(rep.eps_probed),
        "horizon": rep.horizon,
        "seed": rep.seed,
    }
    if rep.counterexample:
        out["counterexample"] = rep.counterexample
    if rep.domains_verdict is not None:
        out["domains_verdict"] = rep.domains_verdict.to_json()
    return out


def levelset_json(rep) -> dict:
    return {
        "hypotheses": {k: v.to_json() for k, v in rep.hypotheses.items()},
        "conclusions": {k: v.to_json() for k, v in rep.conclusions.items()},
        "extras": {k: (v.to_json() if isinstance(v, Verdict) else v)
                   for k, v in rep.extras.items()},
        "meta": dict(rep.meta),
    }


def stability_json(rep) -> dict:
    return {
        "kind": rep.kind,
        "direction": rep.direction,
        "hypotheses": {k: v.to_json() for k, v in rep.hypotheses.items()},
        "conclusion": rep.conclusion.to_json(),
        "clusters": [
            {"point": list(c["point"]), "span": c["span"],
             "base_index": c["base_index"]} for c in rep.clusters
        ],
        "meta": dict(rep.meta),
    }


def eff_json(res, P: Problem) -> dict:
    return {
        "kind": res.kind,
        "indices": list(res.indices),
        "points": [list(map(float, P.domain.points[i])) for i in res.indices],
        "witnesses": {str(k): v for k, v in sorted(res.witness.items())},
    }
