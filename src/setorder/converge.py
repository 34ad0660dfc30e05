"""Sequential limit machinery: set limits, semicontinuity, variational
convergence, and the theorem-level stability experiments.

Tail quantifiers are operationalized once, here, and stamped into every
report: "eventually" means every index in the upper half of the horizon,
"infinitely often" means at least a quarter of the upper half. Universal
statements over sequences are falsified by a seeded generator battery;
clean passes are therefore sampled evidence and tagged as such. Horizons
below 8 are rejected, so no verdict rests on an empty or degenerate tail.
Since verdicts read only the tail, the battery generates only the tail
points; the prefix of a sequence is never built or scored.

The strict order needs some interior shift, which order decides pointwise;
the semicontinuity, variational-convergence and level-set conditions hold
for every eps, and they are instantiated as shifts e·u, u the cone's
interior direction and e along one fixed, strictly decreasing schedule,
EPS, whose last entry is EPS_FLOOR.

One tail scan walks the battery, checking an eps-shifted strict
comparison against F(x̄) in the lsc or the usc orientation; lsc_check,
usc_check and the lower condition of variational convergence all use it.
Every eps-shift moves lower corners inside a corner table (``shift`` of
order.corner_table and problem.tail_table); no shifted set is built.
A grid-wide hypothesis is asked in blocks of grid points, each route one
array program per block: the battery yields one (G·T, d) array of points
per sequence for the block's G targets, the map is evaluated once over all
of them straight into one corner table (problem.tail_table), and one
comparison covers every (eps, point, sequence, n) (order.table_rel).
F(x̄), the adversarial candidates (one margin call per sequence, a bound
of _kernels.shift_bound per candidate), the hinted recovery tails and the
neighbourhood masks are asked the same way, and a one-point check is a
block of one. F(x̄) is one table per block, moved down and up along EPS
and not moved (_fx_table), which every stage of the block reads; each
recovery ball, the level-set targets and seq_lower_converse's paired tails
are one table each. Errors are data, one per row: each evaluated row
holds either its value's corners or the exception asking it raised (a box
under a general cone raises Unsupported, as comparing it would), and a
target's outcome is whichever comes first in its row order: the first row
failing at the floored eps (a break, in (strategy, variant, n) order, as a
pair-at-a-time scan would find it) or the first raising row. So a value
that raises past a break does not hide it, and a fold that stops at a
point's outcome reads no later point's (_by_blocks).
Variational convergence has one core with two routes: fixed domain
(gamma_check), where shrinking grid neighborhoods cross-check the lower
scan, and moving domains D_n -> D (gamma_seq_check), where the scan stays
inside D_n and the domains get a Kuratowski-pair verdict. The level-set
experiment runs the fixed-domain route on a family with the same member
map over the base grid. The stability experiment's shared gate (the
Kuratowski-pair verdict and sequential variational convergence at every
base point) reads neither the minimality kind nor the direction, so it is
decided once per (family, ctx, battery, horizon) and kept on the family.
Values at single points come from the member map; a member is built
(``family_at``) only where its grid values are read, and a loop over the
tail's members builds them in one batch first (``problem._members``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Sequence

import numpy as np

from ._kernels import LARGE, STRICT, shift_bound
from .errors import (
    HorizonExceeded,
    InternalCheckError,
    NoRecoveryFound,
    SetSpecError,
    Unsupported,
)
from .order import CornerTable, OrderCtx, corner_table, table_rel
from .problem import (Domain, PerturbedFamily, Problem, SetValuedMap, _members,
                      family_at, tail_table)
from .setrep import SetRep
from .solve import (NoFiniteRepresentant, eff, hypothesis_h, relation_matrices,
                    representants, strong_level_set, value_table)
from .verdict import Status, Verdict

DEFAULT_HORIZON = 64
#: the e of every shift e·u instantiating a for-all-eps condition, strictly
#: decreasing; smaller values are dominated by grid resolution at desk scale
EPS = tuple(2.0 ** -k for k in range(11))
EPS_FLOOR = EPS[-1]
MAX_BALL_SPLITS = 20
RECOVERY_BUDGET = 10_000
#: elements of the largest array a block of grid points builds per corner
#: pair: the (eps, point, battery row) comparison, the (point, grid point)
#: neighbourhood masks and battery distances
_BLOCK_ELEMENTS = 2 ** 16
#: how many times the first block's grid points each later block of a
#: fold holds (_by_blocks)
_GROWTH = 4


def upper_half(horizon: int) -> range:
    """The tail indices of a horizon; shorter horizons have no usable tail."""
    if horizon < 8:
        raise ValueError(f"horizon N = {horizon} must be >= 8")
    return range(math.ceil(horizon / 2), horizon)


def io_threshold(horizon: int) -> int:
    return math.ceil(len(upper_half(horizon)) / 4)


# -------------------------------------------------------- sequence battery

@dataclass
class SeqGenBattery:
    """Named generators for sequences x_n -> target inside prescribed domains.

    Window-backed domains are treated as continuous boxes: emitted points
    are clamped per axis, not snapped to the grid, so off-grid behaviour of
    expression maps is actually exercised. Explicit point lists fall back
    to the nearest listed point. adversarial-worst is the one grid-bound
    strategy: it picks the in-ball grid point minimizing a caller-supplied
    margin, which scores all of a sequence's candidates in one call.

    Each strategy is written once over arrays of targets and indices
    (``sequence``): a (G, d) array of targets gives one (G·T, d) array of
    points, rows in (target, n) order, and a single target is the G = 1
    case. ``sequences`` yields every strategy's points so. The ball radius
    at n is ``radius``. random-in-ball's draws depend only on (seed,
    variant, n, d), so they are memoized per battery.
    """

    seed: int = 0
    count: int = 2
    _draws: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def strategy_names(self) -> tuple[str, ...]:
        return ("constant", "radial-shrink", "boundary-hugging",
                "random-in-ball", "adversarial-worst")

    def variants(self, name: str) -> int:
        """How many sequences a strategy yields."""
        return self.count if name == "random-in-ball" else 1

    def radius(self, domain: Domain, n: int) -> float:
        return domain.extent / (2.0 ** min(n, 1000))

    def _draw(self, variant: int, n: int, d: int) -> tuple[np.ndarray, float]:
        """random-in-ball's unit vector and radius fraction at n."""
        key = (self.seed, variant, n, d)
        got = self._draws.get(key)
        if got is None:
            rng = np.random.default_rng((self.seed, variant, n, 17))
            vec = rng.normal(size=d)
            vec /= max(np.linalg.norm(vec), 1e-300)
            got = self._draws[key] = (vec, rng.uniform(0.0, 1.0))
        return got

    def clamp(self, X: np.ndarray, domains: Sequence[Domain]) -> np.ndarray:
        """X (..., len(domains), d) with X[..., i, :] moved into domains[i]:
        clamped per window axis, or the nearest listed point of an explicit
        domain."""
        out = np.array(X, dtype=float)
        boxes = [dom.bounds for dom in domains]
        rows = [i for i, b in enumerate(boxes) if b is not None]
        if rows:
            lo = np.array([boxes[i][0] for i in rows])
            hi = np.array([boxes[i][1] for i in rows])
            x = out[..., rows, :lo.shape[1]]
            # Python's max/min tie rule: on a tie x is kept, signed zero too
            x = np.where(lo > x, lo, x)
            out[..., rows, :lo.shape[1]] = np.where(hi < x, hi, x)
        for i, b in enumerate(boxes):
            if b is None:
                pts = domains[i].points
                # Domain.nearest_index at each point: the lowest index at
                # the least distance
                near = np.argmin(np.linalg.norm(pts - out[..., i, None, :], axis=-1),
                                 axis=-1)
                out[..., i, :] = pts[near]
        return out

    def sequence(self, name: str, targets, domains: Sequence[Domain],
                 ns: Sequence[int], margin: Optional[Callable[..., np.ndarray]] = None,
                 variant: int = 0) -> np.ndarray:
        """The strategy's points toward each row of ``targets`` (G, d), or
        the one target, at the indices ns, ns[i] inside domains[i], as a
        (G·len(ns), d) array in (target, n) order."""
        T = np.atleast_2d(np.asarray(targets, dtype=float))
        G, d = T.shape
        ns = list(ns)
        r = np.array([self.radius(dom, n) for dom, n in zip(domains, ns)])
        e = np.ones(d) / math.sqrt(d)
        t = T[:, None, :]
        if name == "constant":
            raw = np.broadcast_to(t, (G, len(ns), d))
        elif name == "radial-shrink":
            raw = t + r[:, None] * e
        elif name == "boundary-hugging":
            raw = t - r[:, None] * e
        elif name == "random-in-ball":
            draws = [self._draw(variant, n, d) for n in ns]
            vec = np.array([v for v, _ in draws]).reshape(len(ns), d)
            frac = np.array([f for _, f in draws])
            raw = t + (r * frac)[:, None] * vec
        elif name == "adversarial-worst":
            raw = self._adversarial(T, domains, ns, r, margin)
        else:
            raise ValueError(f"unknown strategy {name!r}")
        if name != "adversarial-worst":
            raw = self.clamp(raw, domains)
        return raw.reshape(G * len(ns), d)

    def _adversarial(self, T: np.ndarray, domains: Sequence[Domain],
                     ns: list, r: np.ndarray,
                     margin: Optional[Callable[..., np.ndarray]]) -> np.ndarray:
        # the ball must shrink with n or the emitted sequence would not
        # converge to the target; an empty ball degrades to the clamped
        # continuous point. The nearest grid point is the lowest index at
        # the least distance. The distances to a domain's points are taken
        # once per domain, for a bounded number of targets at a time
        G, d = T.shape
        out = np.empty((G, len(ns), d))
        empty = np.zeros((G, len(ns)), dtype=bool)
        scored = []
        groups: dict[int, list[int]] = {}
        for i, dom in enumerate(domains):
            groups.setdefault(id(dom), []).append(i)
        for rows in groups.values():
            pts = domains[rows[0]].points
            step = max(1, _BLOCK_ELEMENTS // (len(pts) * d))
            for lo in range(0, G, step):
                dists = np.linalg.norm(pts - T[lo:lo + step, None, :], axis=-1)
                near = pts[np.argmin(dists, axis=1)]
                for i in rows:
                    within = dists <= r[i] + 1e-12
                    inside = within.sum(axis=1)
                    out[lo:lo + step, i] = near
                    empty[lo:lo + step, i] = inside == 0
                    if margin is not None:
                        for k in np.flatnonzero(inside > 1).tolist():
                            c = np.flatnonzero(within[k])
                            scored.append((lo + k, i, c, pts[c], dists[k, c]))
        if scored:
            # one margin call scores every candidate of every ball, in
            # (target, n, grid index) order; each ball keeps its least
            # (margin, distance, grid index)
            scored.sort(key=lambda s: s[:2])
            g, i, cand, x, dist = zip(*scored)
            size = [len(c) for c in cand]
            x = np.concatenate(x)
            m = margin(x, np.repeat([ns[k] for k in i], size), np.repeat(g, size))
            ball = np.repeat(np.arange(len(size)), size)
            order = np.lexsort((np.concatenate(cand), np.concatenate(dist), m, ball))
            out[g, i] = x[order[np.cumsum(size) - size]]
        if empty.any():
            out[empty] = self.clamp(np.broadcast_to(T[:, None, :], out.shape),
                                    domains)[empty]
        return out

    def sequences(self, targets, domain_at: Callable[[int], Domain],
                  horizon: int,
                  margin: Optional[Callable[..., np.ndarray]] = None,
                  indices: Optional[Sequence[int]] = None):
        """Yield (strategy, variant, points), points a (G·T, d) array
        holding, for each target in turn, the point at each requested index
        in its row, in the order given.

        ``indices`` defaults to ``range(horizon)``, the full sequence.
        ``margin(x, n, g)``, asked once per sequence, returns the (C,)
        margins of every candidate x[c] in the ball at n[c] around target
        g[c], for each ball of more than one grid point, rows in (target, n,
        grid index) order. Every strategy is index-local (random-in-ball
        seeds per (seed, variant, n), adversarial-worst scores its own ball
        at n), so a point is the same whichever other indices or targets are
        requested. Sequences are generated one at a time, as consumed.
        """
        wanted = list(range(horizon) if indices is None else indices)
        domains = [domain_at(n) for n in wanted]
        for name in self.strategy_names():
            for v in range(self.variants(name)):
                yield name, v, self.sequence(name, targets, domains, wanted,
                                             margin=margin, variant=v)


# ------------------------------------------------- Painleve-Kuratowski set limits

@dataclass(frozen=True)
class PKReport:
    horizon: int
    tol_used: tuple[float, ...]
    li_estimate: tuple[tuple[float, ...], ...]
    ls_estimate: tuple[tuple[float, ...], ...]
    lower_verdict: Verdict
    upper_verdict: Verdict

    def to_json(self) -> dict:
        return {
            "horizon": self.horizon,
            "tol_used": list(self.tol_used),
            "li_estimate": [list(p) for p in self.li_estimate],
            "ls_estimate": [list(p) for p in self.ls_estimate],
            "lower_verdict": self.lower_verdict.to_json(),
            "upper_verdict": self.upper_verdict.to_json(),
        }


def _default_pk_tol(n: int) -> float:
    return 2.0 / (n + 2) + EPS_FLOOR


def pk_limits(seq: Callable[[int], np.ndarray], candidates, N: int,
              tol_schedule=None, target=None) -> PKReport:
    """Estimate lower/upper set limits of A_n relative to candidate points.

    A candidate is in the lower estimate when every tail set comes within
    tol(n) of it, in the upper estimate when at least a quarter of the tail
    sets do. The verdicts compare the estimates against ``target``
    (default: the candidates themselves): lower = target covered by Li,
    upper = Ls contained in target.
    """
    tail = list(upper_half(N))
    cand = np.atleast_2d(np.asarray(candidates, dtype=float))
    if callable(tol_schedule):
        tol_fn = tol_schedule
    elif tol_schedule is None:
        tol_fn = _default_pk_tol
    else:
        tol_fn = lambda n, _t=float(tol_schedule): _t
    need = io_threshold(N)

    hits = np.zeros((len(cand), len(tail)), dtype=bool)
    tols = []
    for col, n in enumerate(tail):
        A = np.atleast_2d(np.asarray(seq(n), dtype=float))
        if A.shape[0] == 0:
            raise SetSpecError(f"A_{n} is empty; sequence sets must be nonempty")
        t = float(tol_fn(n))
        tols.append(t)
        d = np.linalg.norm(cand[:, None, :] - A[None, :, :], axis=2).min(axis=1)
        hits[:, col] = d <= t

    li_mask = hits.all(axis=1)
    ls_mask = hits.sum(axis=1) >= need
    li = tuple(tuple(map(float, p)) for p in cand[li_mask])
    ls = tuple(tuple(map(float, p)) for p in cand[ls_mask])

    tgt = cand if target is None else np.atleast_2d(np.asarray(target, dtype=float))
    tgt_keys = {tuple(map(float, p)) for p in tgt}
    li_keys = set(li)
    missing = [k for k in (tuple(map(float, p)) for p in tgt)
               if k not in li_keys]
    if missing:
        lower_v = Verdict.fails(
            reason="a target point is not in the lower limit estimate",
            counterexample={"point": list(map(float, missing[0]))}, sampled=True)
    else:
        lower_v = Verdict.holds(
            reason=f"all {len(tgt)} target points lie in the lower estimate",
            certificate={"count": int(len(tgt))}, sampled=True)
    stray = [p for p in ls if p not in tgt_keys]
    if stray:
        upper_v = Verdict.fails(
            reason="upper limit estimate reaches a point outside the target",
            counterexample={"point": list(stray[0])}, sampled=True)
    else:
        upper_v = Verdict.holds(
            reason=f"upper estimate of {len(ls)} points stays inside the target",
            certificate={"count": int(len(ls))}, sampled=True)
    return PKReport(N, tuple(tols), li, ls, lower_v, upper_v)


# ------------------------------------------------------- Kuratowski pairs

def _window_signature(dom: Domain):
    if dom.windows is None:
        return None
    return tuple((w.a, w.b, w.step, w.hi_open) for w in dom.windows)


def _endpoint_gap(da: Domain, db: Domain) -> float:
    return max(max(abs(wa.a - wb.a), abs(wa.b - wb.b))
               for wa, wb in zip(da.windows, db.windows))


def kuratowski_pair(Dn: Callable[[int], Domain], D: Domain, N: int,
                    tol: float = 1e-9) -> Verdict:
    """Bounded-family + upper-set-limit criterion for domain sequences.

    Window families are judged on their endpoints: the family must stay
    inside a fixed bounding box through probe indices past the horizon,
    and the endpoint error in the probe tail must have decayed relative
    to the in-horizon tail (or be below tolerance outright).
    """
    tail = list(upper_half(N))
    probes = []
    for n in range(N, 2 * N + 1):
        try:
            probes.append((n, Dn(n)))
        except HorizonExceeded:
            break
    doms = [(n, Dn(n)) for n in tail] + probes

    sig = _window_signature(D)
    if sig is not None and all(_window_signature(d) == sig for _, d in doms):
        if D.truncated:
            return Verdict.holds(
                reason="domain sequence structurally constant (truncated "
                       "windows compared as written)",
                certificate={"constant": True}, sampled=True)
        return Verdict.holds(reason="domain sequence structurally constant",
                             certificate={"constant": True})

    if D.windows is None or any(d.windows is None for _, d in doms):
        # explicit point lists: grid route relative to all points seen
        allpts = np.vstack([D.points] + [d.points for _, d in doms])
        allpts = np.unique(allpts, axis=0)
        gap = _min_gap(D.points)
        rep = pk_limits(lambda n: Dn(n).points, allpts, N,
                        tol_schedule=gap / 2, target=D.points)
        if not rep.lower_verdict.is_holds:
            return Verdict.fails(
                reason="a point of D is not reached by the domain sequence",
                counterexample=dict(rep.lower_verdict.counterexample),
                sampled=True)
        # ls points may be union points near D, so strays are judged by
        # distance, not key identity
        stray = [p for p in rep.ls_estimate
                 if float(np.linalg.norm(np.asarray(p) - D.points,
                                         axis=1).min()) > gap / 2 + tol]
        if stray:
            return Verdict.fails(
                reason="point domain sequence clusters off D",
                counterexample={"point": list(map(float, stray[0]))},
                sampled=True)
        return Verdict.holds(
            reason="point domains converge onto D in the pair sense",
            certificate={"ls_points": len(rep.ls_estimate)}, sampled=True)

    if any(d.truncated for _, d in doms):
        return Verdict.inconclusive(
            reason="varying domain windows carry truncation markers; "
                   "boundedness undecidable from the written windows",
            sampled=True)

    # (i) uniform boundedness against the hull of D and the in-horizon tail
    early = [D] + [d for n, d in doms if n < N]
    lo = min(min(w.a for w in d.windows) for d in early)
    hi = max(max(w.b for w in d.windows) for d in early)
    for n, d in probes:
        d_lo = min(w.a for w in d.windows)
        d_hi = max(w.b for w in d.windows)
        if d_lo < lo - tol or d_hi > hi + tol:
            return Verdict.fails(
                reason=f"domain window escapes every fixed bounding box at n = {n}",
                counterexample={"n": n, "window": [d_lo, d_hi],
                                "bound": [float(lo), float(hi)]})

    # (ii) upper convergence via endpoint decay
    e_early = max(_endpoint_gap(d, D) for n, d in doms if n < N)
    tail_gaps = [(_endpoint_gap(d, D), n) for n, d in probes]
    if not tail_gaps:
        return Verdict.inconclusive(
            reason="family horizon too short to probe past N; "
                   "endpoint decay unobservable", sampled=True)
    e_tail, n_worst = max(tail_gaps)
    if e_tail <= max(tol, e_early / 1.5):
        return Verdict.holds(
            reason="bounded family with decaying endpoint error "
                   f"({e_tail:.3g} after the horizon vs {e_early:.3g} inside)",
            certificate={"e_tail": float(e_tail), "e_early": float(e_early)},
            sampled=True)
    return Verdict.fails(
        reason=f"window endpoints do not converge to D (error {e_tail:.3g} "
               f"at n = {n_worst})",
        counterexample={"n": int(n_worst), "e_tail": float(e_tail),
                        "e_early": float(e_early)}, sampled=True)


def _min_gap(pts: np.ndarray) -> float:
    if len(pts) < 2:
        return 1.0
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    d[d == 0] = np.inf
    g = float(d.min())
    return g if np.isfinite(g) else 1.0


def _grid_step(domain: Domain) -> float:
    """The smallest window step, or _min_gap of an explicit point list."""
    steps = domain.step_summary()
    return min(steps) if isinstance(steps, list) else _min_gap(domain.points)


# ------------------------------------------------- semicontinuity probes

def _eps_shifts(sign: int, ctx: OrderCtx) -> np.ndarray:
    """The translations sign·e·u, e along EPS, as rows."""
    return np.array([sign * e * ctx.u for e in EPS])


def _shifted(sets: Sequence[SetRep], sign: int, ctx: OrderCtx) -> CornerTable:
    """Table of S + sign·e·u, e along EPS as rows (the floored eps last) and
    S along columns."""
    return corner_table(sets, ctx.cone, shift=_eps_shifts(sign, ctx))


def _take(tab: CornerTable, key) -> CornerTable:
    """The sets of a table at ``key``, an index into its leading axes."""
    return CornerTable(*(x[key] for x in tab))


def _per_row(tab: CornerTable) -> CornerTable:
    """A table with a unit leading axis appended, so that each of its sets
    meets one row of another table's sets."""
    h, o, cloud = tab
    return CornerTable(h[..., None, :, :], o[..., None, :, :], cloud[..., None])


def _split(tab: CornerTable, G: int) -> CornerTable:
    """A table's last leading axis, of G·R sets, as (G, R)."""
    *lead, rows = tab.cloud.shape
    lead = (*lead, G, rows // G)
    h, o, cloud = tab
    return CornerTable(h.reshape(lead + h.shape[-2:]), o.reshape(lead + o.shape[-2:]),
                       cloud.reshape(lead))


def _by_target(errs: dict, G: int, rows: int) -> list[dict]:
    """``errs`` over G targets' rows, ``rows`` each in (target, row) order,
    as one dict per target keyed by the row within it."""
    per: list[dict] = [{} for _ in range(G)]
    for r, e in errs.items():
        per[r // rows][r % rows] = e
    return per


def _first_break(ok: np.ndarray, errs: Optional[dict] = None):
    """The outcome of the rows along the columns of an (eps, j) mask:
    whichever comes first of the first column failing at the floored eps,
    as (j, eps) with eps the largest scheduled one failing there, and the
    first raising row's exception, ``errs`` keyed by column; or None."""
    errs = errs or {}
    first = min(errs, default=ok.shape[-1])
    bad = np.flatnonzero(~ok[-1, :first])
    if bad.size:
        j = int(bad[0])
        return j, EPS[int(np.argmin(ok[:, j]))]
    return errs.get(first)


def _block_size(ctx: OrderCtx, battery: SeqGenBattery, horizon: int,
                grid: int) -> int:
    """Grid points in a fold's first block: the (eps, point, battery row)
    comparison and the (point, grid point) neighbourhood masks stay within
    _BLOCK_ELEMENTS per corner pair. Each later block holds _GROWTH times
    as many (_by_blocks)."""
    seqs = sum(battery.variants(name) for name in battery.strategy_names())
    rows = len(EPS) * seqs * len(upper_half(horizon))
    return max(1, _BLOCK_ELEMENTS // (max(rows, grid) * len(ctx.w)))


def _by_blocks(X: np.ndarray, size: int, block: Callable[[np.ndarray], Iterable]):
    """Yield the outcome at each row of X, in order, asking ``block`` for
    ``size`` rows first and for _GROWTH·size rows at a time after that, and
    raise an outcome that is an exception.

    ``block`` yields one outcome per row it was given, or ends at its
    first exception; no row is asked twice, and nothing past the
    consumer's last request is evaluated beyond the block that holds it.
    So a consumer that stops early wastes at most one block, and one that
    reads all G rows starts 1 + ceil((G - size) / (_GROWTH·size)) blocks,
    each paying the fixed costs of a block once. Only the later blocks
    grow: a consumer that stops among the first rows (a gate failing early
    on a fine grid) would pay for every row of a larger first block. With
    4·_BLOCK_ELEMENTS for every block, benchmarks/fine.py at pi/4096 took
    twice as long and 30 MB more at its peak, for the same report.
    """
    start, step = 0, size
    while start < len(X):
        for out in block(X[start:start + step]):
            if isinstance(out, Exception):
                raise out
            yield out
        start, step = start + step, _GROWTH * size


def _fx_table(limit: Problem, X: np.ndarray, ctx: OrderCtx
              ) -> tuple[CornerTable, dict[int, Exception]]:
    """F(x̄) = limit's value at each row of X (G, d) as one table with
    leading axes (2E + 1, G), E = len(EPS): moved by -e·u along EPS, then
    by +e·u along EPS, then not moved; and each raising target's exception
    keyed by its row of X."""
    shift = np.concatenate([_eps_shifts(-1, ctx), _eps_shifts(1, ctx),
                            np.zeros((1, ctx.cone.dim))])
    return tail_table(limit.map, X, [limit.n] * len(X), ctx.cone, shift)


def _tail_scan(map: SetValuedMap, index: Callable[[int], Optional[int]],
               X: np.ndarray, fx: CornerTable, fx_errs: dict[int, Exception],
               battery: SeqGenBattery, ctx: OrderCtx, horizon: int,
               domain_at: Callable[[int], Domain], mode: str) -> list:
    """First tail break of the eps-shifted strict comparison at each target.

    The targets are the rows of X (G, d), and the value at x_n is the
    map's at (x_n, index(n)). The "lsc" orientation asks F(x̄) - eps·u
    strictly below that value, which is also the lower condition of
    variational convergence; "usc" asks the value - eps·u strictly below
    F(x̄). ``fx`` and ``fx_errs`` are F(x̄) at the targets as _fx_table
    gives them: "lsc" reads the rows moved down, "usc" and the adversarial
    margin the unmoved row. All the targets' battery rows are one
    ``tail_table`` evaluation and one (eps, G, row) comparison, and the
    adversarial candidates one table and one ``shift_bound``. Only the
    tail points are generated.

    Returns, per target, the exception F(x̄) raises there, since F(x̄) is
    asked before the scan, or else the outcome of its rows in (strategy,
    variant, n) order (_first_break): the break, None, or the exception of
    the first raising row. A raising value is an error at its row, and a
    target's first raising adversarial candidate one at the first row of
    the sequence being generated, since it is asked before that sequence's
    values.
    """
    lsc = mode == "lsc"
    fx0 = _take(fx, -1)
    tail = upper_half(horizon)
    ns = [index(n) for n in tail]
    at = np.array(ns, dtype=object)   # the map index of each tail index
    G, T = len(X), len(tail)
    seqs: list = []
    raised: dict[int, tuple] = {}   # target -> (sequence, first margin error)

    def margin(x: np.ndarray, n: np.ndarray, g: np.ndarray) -> np.ndarray:
        fn, errs = tail_table(map, x, at[n - tail.start].tolist(), ctx.cone)
        for r, e in errs.items():
            raised.setdefault(int(g[r]), (len(seqs), e))
        a = _take(fx0, g)
        return shift_bound(a.h, fn.h, ctx.w) if lsc else shift_bound(fn.h, a.h, ctx.w)

    # the margin reads len(seqs) while the next sequence is generated
    for item in battery.sequences(X, domain_at, horizon, margin=margin,
                                  indices=tail):
        seqs.append(item)
    R = len(seqs) * T
    pts = np.stack([p.reshape(G, T, -1) for _, _, p in seqs], axis=1)
    tab, errs = tail_table(map, pts.reshape(G * R, -1), ns * (G * len(seqs)), ctx.cone,
                           None if lsc else _eps_shifts(-1, ctx))
    vals = _split(tab, G)
    lo, hi = (_per_row(_take(fx, slice(len(EPS)))), vals) if lsc else (vals, _per_row(fx0))
    ok, = table_rel(lo, hi, (STRICT,), ctx.tol)
    per = _by_target({**errs, **{g * R + s * T: e for g, (s, e) in raised.items()}}, G, R)

    out = []
    for g in range(G):
        brk = fx_errs[g] if g in fx_errs else _first_break(ok[:, g], per[g])
        if brk is None or isinstance(brk, Exception):
            out.append(brk)
            continue
        s, k = divmod(brk[0], T)
        name, variant, _ = seqs[s]
        out.append({"strategy": name, "variant": variant, "n": tail[k],
                    "x_n": [float(v) for v in pts[g, s, k]],
                    "eps": float(brk[1])})
    return out


def _one(xbar) -> np.ndarray:
    """A point as the one row of a (1, d) array."""
    return np.asarray(xbar, dtype=float).reshape(1, -1)


def _sc_block(P: Problem, X: np.ndarray, battery: SeqGenBattery, ctx: OrderCtx,
              horizon: int, mode: str):
    """The lsc or usc verdict, or the exception it raises, at each row of
    X, in order (see _by_blocks)."""
    found = _tail_scan(P.map, lambda n: P.n, X, *_fx_table(P, X, ctx), battery,
                       ctx, horizon, lambda n: P.domain, mode)
    for ce in found:
        if ce is None:
            yield Verdict.holds(
                reason=f"{mode} inequality held on every tail index of every "
                       "generated sequence",
                certificate={"seed": battery.seed, "horizon": horizon,
                             "eps_floor": EPS_FLOOR,
                             "strategies": list(battery.strategy_names())},
                sampled=True)
        elif isinstance(ce, Exception):
            yield ce
        else:
            yield Verdict.fails(
                reason=f"{mode} comparison breaks at n = {ce['n']} under "
                       f"strategy {ce['strategy']} with eps = {ce['eps']:.6g}",
                counterexample=ce, sampled=True)


def _sc_verdicts(P: Problem, X: np.ndarray, battery: SeqGenBattery,
                 ctx: OrderCtx, horizon: int, mode: str):
    """The lsc or usc verdict at each row of X, in order, as they are
    consumed; raises at the first point whose check raises."""
    size = _block_size(ctx, battery, horizon, 1)
    return _by_blocks(X, size, lambda B: _sc_block(P, B, battery, ctx, horizon,
                                                   mode))


def lsc_check(P: Problem, xbar, battery: SeqGenBattery, ctx: OrderCtx,
              horizon: int = DEFAULT_HORIZON) -> Verdict:
    """Sampled falsification of sequential lower semicontinuity at a point."""
    return next(_sc_verdicts(P, _one(xbar), battery, ctx, horizon, "lsc"))


def usc_check(P: Problem, xbar, battery: SeqGenBattery, ctx: OrderCtx,
              horizon: int = DEFAULT_HORIZON) -> Verdict:
    """Sampled falsification of sequential upper semicontinuity at a point."""
    return next(_sc_verdicts(P, _one(xbar), battery, ctx, horizon, "usc"))


# ------------------------------------------------------ variational limits

@dataclass(frozen=True)
class GammaReport:
    point: tuple[float, ...]
    lower_verdict: Verdict
    upper_verdict: Verdict
    recovery_used: tuple[tuple[int, tuple[float, ...]], ...]
    eps_probed: tuple[float, ...]
    counterexample: dict
    domains_verdict: Optional[Verdict] = None
    horizon: int = DEFAULT_HORIZON
    seed: int = 0

    @property
    def overall(self) -> Status:
        vs = [v for v in (self.lower_verdict, self.upper_verdict,
                          self.domains_verdict) if v is not None]
        if any(v.is_fails for v in vs):
            return Status.FAILS
        if all(v.is_holds for v in vs):
            return Status.HOLDS
        return Status.INCONCLUSIVE

    def to_json(self) -> dict:
        out = {
            "point": list(self.point),
            "overall": self.overall.value,
            "lower_verdict": self.lower_verdict.to_json(),
            "upper_verdict": self.upper_verdict.to_json(),
            "recovery_used": [{"n": n, "point": list(p)}
                              for n, p in self.recovery_used],
            "eps_probed": list(self.eps_probed),
            "horizon": self.horizon,
            "seed": self.seed,
        }
        if self.counterexample:
            out["counterexample"] = self.counterexample
        if self.domains_verdict is not None:
            out["domains_verdict"] = self.domains_verdict.to_json()
        return out


def _neighborhood_masks(fx_floor: CornerTable, ctx: OrderCtx,
                        fam: PerturbedFamily, horizon: int):
    """[g, i]: the floored-eps shift F(x̄_g) - eps·u, the sets of
    ``fx_floor`` (G,), strictly below F_n at base grid point i for every
    tail n; or the exception a member build raises, which is every
    point's. The tail members are built in one batch, and their value
    tables, padded with +inf to one corner count, are compared as one
    stack, as many members at a time as keep the (point, member, grid
    point) comparison within _BLOCK_ELEMENTS per corner pair."""
    try:
        tabs = [value_table(P) for P in _members(fam, upper_half(horizon))]
    except Exception as e:
        return e
    G, N, m = len(fx_floor.cloud), len(fam.base), len(ctx.w)
    h = np.full((len(tabs), N, max(t.h.shape[1] for t in tabs), m), np.inf)
    o = np.zeros(h.shape, dtype=np.uint8)
    for k, t in enumerate(tabs):
        h[k, :, :t.h.shape[1]], o[k, :, :t.h.shape[1]] = t.h, t.o
    stack = CornerTable(h, o, np.array([t.cloud for t in tabs]))
    a = _per_row(_per_row(fx_floor))                   # (point, member, grid point)
    step = max(1, _BLOCK_ELEMENTS // (G * N * m))
    ok = np.ones((G, N), dtype=bool)
    for lo in range(0, len(tabs), step):
        ok &= table_rel(a, _take(stack, slice(lo, lo + step)), (STRICT,),
                        ctx.tol)[0].all(axis=1)
    return ok


def _gamma_lower_neighborhood(t: np.ndarray, ok: np.ndarray,
                              battery: SeqGenBattery, fam: PerturbedFamily):
    """The shrinking-neighbourhood route at x̄ = t, ``ok`` its row of
    _neighborhood_masks: it passes when some ball of radius R/2^j,
    j <= MAX_BALL_SPLITS, holds no failing grid point."""
    base = fam.base
    dists = np.linalg.norm(base.domain.points - t, axis=1)
    bad = ~ok
    bad_dist = float(dists[bad].min()) if bad.any() else math.inf
    R = battery.radius(base.domain, 0)
    for j in range(MAX_BALL_SPLITS + 1):
        if R / 2 ** j < bad_dist:
            return True, {"route": "neighborhood", "j": j,
                          "radius": R / 2 ** j}
    return False, {"route": "neighborhood",
                   "bad_distance": bad_dist, "max_j": MAX_BALL_SPLITS}


def _recovery_search(fam: PerturbedFamily, t: np.ndarray, fx_up: CornerTable,
                     battery: SeqGenBattery, ctx: OrderCtx, horizon: int,
                     domain_at: Callable[[int], Domain]):
    """Grid search for x*_n minimizing theta, the largest scheduled eps with
    F_n(x*_n) not largely below F(x̄) + eps·u (0 if none), per tail n, as
    (theta, x*_n, its (eps,) column of that LARGE mask); ``fx_up`` is the
    (eps, 1) table of F(x̄) + eps·u. Raises the first error in candidate
    order."""
    eps = np.array(EPS)
    best: dict[int, tuple[float, np.ndarray, np.ndarray]] = {}
    spent = 0
    for n in upper_half(horizon):
        dom = domain_at(n)
        dists = np.linalg.norm(dom.points - t, axis=1)
        near = int(np.argmin(dists))
        r = max(battery.radius(dom, min(n, MAX_BALL_SPLITS)), float(dists[near]))
        cand = np.flatnonzero(dists <= r + 1e-12)
        if spent + len(cand) > RECOVERY_BUDGET:
            raise NoRecoveryFound(
                f"recovery search budget {RECOVERY_BUDGET} exhausted at n = {n}",
                best={k: (th, [float(v) for v in x]) for k, (th, x, _) in best.items()})
        spent += len(cand)
        tab, errs = tail_table(fam.map, dom.points[cand], [n] * len(cand), ctx.cone)
        if errs:
            raise next(iter(errs.values()))
        ok, = table_rel(tab, fx_up, (LARGE,), ctx.tol)
        theta = np.where(ok.all(axis=0), 0.0, eps[np.argmin(ok, axis=0)])
        th, _, k = min(zip(theta.tolist(), dists[cand].tolist(), range(len(cand))))
        best[n] = (th, dom.points[cand[k]], ok[:, k])
    return best


def _upper_verdict(ok: np.ndarray, errs: Optional[dict], ns: list,
                   seq: np.ndarray, hint: bool):
    """The upper verdict and recovery points used, from the (eps, n) mask
    of a recovery tail against F(x̄) + eps·u; or the exception of its
    first raising row, ``errs`` keyed by column, if that comes first."""
    brk = _first_break(ok, errs)
    if isinstance(brk, Exception):
        return brk
    used = ns if brk is None else ns[:brk[0] + 1]
    recovery_used = tuple((n, tuple(x))
                          for n, x in zip(used, seq[:len(used)].tolist()))
    if brk is None:
        return Verdict.holds(
            reason="recovery sequence keeps every tail value largely below "
                   "the shifted limit value",
            certificate={"via_hint": hint, "eps_floor": EPS_FLOOR},
            sampled=not hint), recovery_used
    n, eps = used[-1], float(brk[1])
    return Verdict.fails(
        reason=f"recovery value exceeds the limit value at n = {n} "
               f"for eps up to {eps:.6g}",
        counterexample={"n": n, "x_star": [float(v) for v in seq[brk[0]]],
                        "eps": eps, "via_hint": hint},
        sampled=False), recovery_used


def _gamma_upper(fam: PerturbedFamily, X: np.ndarray, fx_up: CornerTable,
                 battery: SeqGenBattery, ctx: OrderCtx, horizon: int,
                 domain_at: Callable[[int], Domain]):
    """Yield the upper verdict and recovery points used at each row of X
    (G, d), or the exception that ends that point's route; ``fx_up`` is
    the (eps, G) table of F(x̄) + eps·u.

    With a recovery hint, all the points' recovery tails are one hint
    evaluation, one clamp, one map evaluation and one comparison, made at
    the first request. A point's whole hinted tail is asked before its
    values, so a raising hint is the point's outcome, and the points end
    there. Without a hint, each point's grid search runs when its verdict
    is requested, and the chosen candidates' columns of its LARGE masks
    are the recovery tail's.
    """
    ns = list(upper_half(horizon))
    if fam.recovery_hint is None:
        for g, t in enumerate(X):
            try:
                found = _recovery_search(fam, t, _take(fx_up, (slice(None), [g])),
                                         battery, ctx, horizon, domain_at)
            except NoRecoveryFound as err:
                yield Verdict.inconclusive(
                    reason=f"recovery sequence not determined: {err}",
                    sampled=True), ()
                continue
            except Exception as e:
                yield e
                return
            seq = np.array([found[n][1] for n in ns])
            ok = np.stack([found[n][2] for n in ns], axis=1)
            yield _upper_verdict(ok, None, ns, seq, False)
        return

    T = len(ns)
    pts, hint_errs = fam.recovery_points(X, ns)
    G = min(hint_errs, default=len(pts)) // T
    if G:
        seq = battery.clamp(pts[:G * T].reshape(G, T, -1),
                            [domain_at(n) for n in ns])
        tab, errs = tail_table(fam.map, seq.reshape(G * T, -1), ns * G, ctx.cone)
        ok, = table_rel(_split(tab, G),
                        _per_row(_take(fx_up, (slice(None), slice(G)))), (LARGE,), ctx.tol)
        for g, row_errs in enumerate(_by_target(errs, G, T)):
            yield _upper_verdict(ok[:, g], row_errs, ns, seq[g], True)
    if hint_errs:
        yield next(iter(hint_errs.values()))


def _gamma_block(fam: PerturbedFamily, X: np.ndarray, battery: SeqGenBattery,
                 ctx: OrderCtx, limit: Problem, horizon: int,
                 domain_at: Callable[[int], Domain], neighborhood: bool,
                 domains_verdict: Optional[Verdict]):
    """GammaReport, or the exception it raises, at each row of X, in order
    (see _by_blocks).

    Each point's stages come in the order of a one-point check: F(x̄), the
    lower scan, the neighbourhood route, the upper route; the first to
    raise is the point's outcome. Each stage is one array program over
    the block, and all read one table of F(x̄) (_fx_table): the lower scan
    its rows moved down, the neighbourhoods the one moved down by
    EPS_FLOOR·u, the upper route those moved up.
    """
    E = len(EPS)
    fx, fx_errs = _fx_table(limit, X, ctx)
    lower = _tail_scan(fam.map, lambda n: n, X, fx, fx_errs, battery, ctx,
                       horizon, domain_at, "lsc")
    near = (_neighborhood_masks(_take(fx, E - 1), ctx, fam, horizon)
            if neighborhood else None)
    uppers = _gamma_upper(fam, X, _take(fx, slice(E, 2 * E)), battery, ctx,
                          horizon, domain_at)
    for g, ce in enumerate(lower):
        t = X[g]
        if isinstance(ce, Exception):
            yield ce
            return
        reason = "lower inequality held along every in-domain sequence"
        certificate = {"seed": battery.seed, "horizon": horizon, "eps_floor": EPS_FLOOR}
        if neighborhood:
            if isinstance(near, Exception):
                yield near
                return
            ok_n, found = _gamma_lower_neighborhood(t, near[g], battery, fam)
            if ok_n != (ce is None):
                yield InternalCheckError(
                    f"lower-route disagreement at x̄ = {t.tolist()}: battery says "
                    f"{ce is None}, neighborhoods say {ok_n}; the characterization "
                    "lemma makes these equivalent")
                return
            reason = "both lower routes pass on the floored eps schedule"
            certificate["neighborhood_j"] = found.get("j")
        if ce is None:
            lower_v = Verdict.holds(reason=reason, certificate=certificate,
                                    sampled=True)
        else:
            ce = {"route": "battery", **ce}
            lower_v = Verdict.fails(reason="lower inequality falsified",
                                    counterexample=ce, sampled=False)
        up = next(uppers)
        if isinstance(up, Exception):
            yield up
            return
        upper_v, recovery = up
        if ce is None:
            ce = dict(upper_v.counterexample) if upper_v.is_fails else {}
        yield GammaReport(tuple(float(v) for v in t), lower_v, upper_v, recovery,
                          EPS, ce, domains_verdict, horizon,
                          battery.seed)


def _gamma_reports(fam: PerturbedFamily, X: np.ndarray, battery: SeqGenBattery,
                   ctx: OrderCtx, limit: Optional[Problem], horizon: int,
                   domain_at: Callable[[int], Domain], neighborhood: bool,
                   domains_verdict: Optional[Verdict] = None):
    """Both conditions of variational convergence at each row of X, in
    order, as the reports are consumed; F(x̄) from ``limit``.

    Lower: the lsc-oriented tail scan of the family along every battery
    sequence inside ``domain_at(n)``; with ``neighborhood`` the shrinking
    grid-neighborhood route runs too, and the two must agree, since the
    theorem they operationalize states their equivalence, so disagreement
    is an internal error, not a verdict. Upper: a recovery sequence.
    Raises at the first point whose check raises.
    """
    limit = limit or fam.base
    size = _block_size(ctx, battery, horizon, len(fam.base) if neighborhood else 1)
    return _by_blocks(X, size, lambda B: _gamma_block(
        fam, B, battery, ctx, limit, horizon, domain_at, neighborhood,
        domains_verdict))


def on_base_domain(fam: PerturbedFamily, horizon: int) -> bool:
    """Whether D_n is the base grid at n = 0 and at every tail index.

    These are the members a variational-convergence check at this horizon
    reads. Domains come from ``fam.domain_at``, which evaluates no map.
    """
    base = fam.base.domain.points
    return all(np.array_equal(fam.domain_at(n).points, base)
               for n in (0, *upper_half(horizon)))


def gamma_check(fam: PerturbedFamily, xbar, battery: SeqGenBattery,
                ctx: OrderCtx, limit: Optional[Problem] = None,
                horizon: int = DEFAULT_HORIZON) -> GammaReport:
    """Variational convergence at a point for families on a fixed domain.

    The lower condition runs twice (sequence battery and shrinking grid
    neighborhoods) and the two routes must agree; both read the shifts of
    F(x̄) along EPS. A family whose D_n is not the base grid
    (``on_base_domain``) is refused with Unsupported.
    """
    if not on_base_domain(fam, horizon):
        raise Unsupported("gamma_check requires the family to live on the "
                          "base domain; use gamma_seq_check for moving domains")
    base = fam.base
    return next(_gamma_reports(fam, _one(xbar), battery, ctx, limit, horizon,
                               lambda n: base.domain, neighborhood=True))


def gamma_seq_check(fam: PerturbedFamily, xbar, battery: SeqGenBattery,
                    ctx: OrderCtx, limit: Optional[Problem] = None,
                    horizon: int = DEFAULT_HORIZON,
                    domains_verdict: Optional[Verdict] = None) -> GammaReport:
    """Sequential variational convergence: moving domains allowed.

    Condition (a) is the Kuratowski-pair check on the domains, (b) the
    lower battery route constrained to D_n, (c) the recovery route
    constrained to D_n. A precomputed domains verdict may be injected to
    avoid re-probing the same family at many points.
    """
    dv = domains_verdict
    if dv is None:
        dv = kuratowski_pair(fam.domain_at, fam.base.domain, horizon)
    return next(_gamma_reports(fam, _one(xbar), battery, ctx, limit, horizon,
                               fam.domain_at, neighborhood=False,
                               domains_verdict=dv))


# -------------------------------------------------- level-set convergence

@dataclass(frozen=True)
class LevelsetReport:
    hypotheses: Dict[str, Verdict]
    conclusions: Dict[str, Verdict]
    extras: Dict[str, object]
    meta: Dict[str, object]

    def to_json(self) -> dict:
        return {
            "hypotheses": {k: v.to_json() for k, v in self.hypotheses.items()},
            "conclusions": {k: v.to_json() for k, v in self.conclusions.items()},
            "extras": {k: (v.to_json() if isinstance(v, Verdict) else v)
                       for k, v in self.extras.items()},
            "meta": dict(self.meta),
        }


def _grid_gamma_hypothesis(reports: Iterable[GammaReport], what: str,
                           holds: str, certificate: dict) -> Verdict:
    """Fold per-grid-point gamma reports into one hypothesis verdict.

    Fails at the first failing point (a lazy ``reports`` is consumed no
    further), otherwise Inconclusive at the first inconclusive point,
    naming its index and the reason of the sub-verdict that held it back,
    otherwise Holds.
    """
    pending = None
    for i, rep in enumerate(reports):
        status = rep.overall
        if status is Status.FAILS:
            return Verdict.fails(
                reason=f"{what} fails at grid index {i}",
                counterexample={"index": i, "detail": rep.counterexample},
                sampled=True)
        if status is Status.INCONCLUSIVE and pending is None:
            pending = (i, rep)
    if pending is not None:
        i, rep = pending
        sub = next(v for v in (rep.lower_verdict, rep.upper_verdict,
                               rep.domains_verdict)
                   if v is not None and not v.is_holds)
        return Verdict.inconclusive(
            reason=f"{what} not established at grid index {i}: {sub.reason}",
            sampled=True)
    return Verdict.holds(reason=holds, certificate=certificate, sampled=True)


def _gate(raw: Verdict, gates: Sequence[tuple[str, Verdict]]) -> Verdict:
    failed = [name for name, v in gates if not v.is_holds]
    if not failed:
        return raw
    return Verdict(
        Status.INCONCLUSIVE,
        "conclusion not asserted: hypothesis "
        + ", ".join(failed) + " not established",
        True,
        {"unasserted_check": raw.to_json()},
        {},
    )


def _target_hypotheses(targets: Sequence[SetRep], omega: SetRep,
                       ctx: OrderCtx, horizon: int) -> tuple[Verdict, Verdict]:
    """Level-set hypotheses (b), upper and lower, over the tail targets."""
    need = io_threshold(horizon)
    omega_t = corner_table([omega], ctx.cone)
    hits_at = table_rel(_shifted(targets, -1, ctx), omega_t, (LARGE,), ctx.tol)[0].sum(axis=1)
    hits = int(hits_at[-1])
    if hits >= need:
        hyp_up = Verdict.holds(
            reason=f"shifted target sets fall below the limit target on "
                   f"{hits}/{len(targets)} tail indices",
            certificate={"hits": hits, "needed": need, "eps_floor": EPS_FLOOR},
            sampled=True)
    else:
        _, eps_bad = _first_break((hits_at >= need)[:, None])
        hyp_up = Verdict.fails(
            reason=f"no tail subsequence of shifted target sets stays below "
                   f"the limit target (eps = {eps_bad:.6g})",
            counterexample={"hits": hits, "needed": need, "eps": float(eps_bad)},
            sampled=True)

    below, = table_rel(omega_t, corner_table(targets, ctx.cone), (STRICT,), ctx.tol)
    if below.all():
        hyp_lo = Verdict.holds(
            reason="limit target strictly below every tail target set",
            certificate={"tail": len(targets)}, sampled=True)
    else:
        bad_n = upper_half(horizon)[int(np.argmin(below))]
        hyp_lo = Verdict.fails(
            reason=f"limit target not strictly below the target at n = {bad_n}",
            counterexample={"n": int(bad_n)}, sampled=True)
    return hyp_up, hyp_lo


def levelset_convergence_experiment(fam: PerturbedFamily,
                                    omega_n: Callable[[int], SetRep],
                                    omega: SetRep, ctx: OrderCtx,
                                    battery: Optional[SeqGenBattery] = None,
                                    horizon: int = DEFAULT_HORIZON) -> LevelsetReport:
    """Check the two level-set convergence theorems, hypotheses first.

    Conclusions are measured with pk_limits over the level sets of the
    family restricted to the base grid and are only asserted when the
    matching hypotheses hold; otherwise the raw observation is recorded
    inside an Inconclusive verdict.
    """
    battery = battery or SeqGenBattery()
    base = fam.base
    tail = list(upper_half(horizon))
    shared = PerturbedFamily(base, fam.map, lambda n: base.domain, fam.n_max,
                             recovery_hint=fam.recovery_hint, label=fam.label)

    # hypothesis (a): variational convergence on the shared grid; every
    # point runs, so the lower-route cross-check covers the grid
    reports = list(_gamma_reports(shared, base.domain.points, battery, ctx, None,
                                  horizon, lambda n: base.domain, neighborhood=True))
    hyp_gamma = _grid_gamma_hypothesis(
        reports, "variational convergence",
        holds=f"variational convergence holds at all {len(base)} grid points",
        certificate={"points": len(base)})

    # hypotheses (b) read each tail target once
    targets = [omega_n(n) for n in tail]
    hyp_up, hyp_lo = _target_hypotheses(targets, omega, ctx, horizon)

    # conclusions via set limits of the level sets on the base grid
    lev_limit = set(strong_level_set(base, omega, ctx))
    lev_pts = base.domain.points[sorted(lev_limit)]
    step = _grid_step(base.domain)
    tol_const = max(EPS_FLOOR, step / 2)

    levs = {n: base.domain.points[list(strong_level_set(P, w, ctx))]
            for n, w, P in zip(tail, targets, _members(shared, tail))}

    empties = [n for n in tail if levs[n].shape[0] == 0]
    if empties:
        raw_upper = Verdict.holds(
            reason="upper limit trivially inside the limit level set "
                   f"(level sets empty from n = {empties[0]})",
            certificate={"empty_from": int(empties[0])}, sampled=True)
        raw_lower = Verdict.fails(
            reason=f"level set at n = {empties[0]} is empty; limit level "
                   "set cannot be covered",
            counterexample={"n": int(empties[0])}, sampled=True) \
            if lev_limit else Verdict.holds(
                reason="limit level set empty; nothing to cover",
                certificate={}, sampled=True)
        pk = None
    else:
        pk = pk_limits(levs.__getitem__, base.domain.points, horizon,
                       tol_schedule=tol_const, target=lev_pts)
        raw_upper = pk.upper_verdict
        raw_lower = pk.lower_verdict

    conclusions = {
        "upper": _gate(raw_upper, [("gamma", hyp_gamma), ("shift_upper", hyp_up)]),
        "lower": _gate(raw_lower, [("gamma", hyp_gamma), ("shift_lower", hyp_lo)]),
    }

    extras: Dict[str, object] = {}
    if hyp_gamma.is_holds:
        # the variational limit is lower semicontinuous; record, never raise
        checks = enumerate(_sc_verdicts(base, base.domain.points, battery, ctx,
                                        horizon, "lsc"))
        bad = next(((i, v) for i, v in checks if not v.is_holds), None)
        extras["lsc_cross"] = (
            Verdict.holds(reason="limit map lsc at every grid point",
                          certificate={"points": len(base)}, sampled=True)
            if bad is None else
            Verdict.fails(reason=f"limit map not lsc at grid index {bad[0]} "
                                 "despite variational convergence",
                          counterexample={"index": bad[0],
                                          "detail": dict(bad[1].counterexample)},
                          sampled=True))

    return LevelsetReport(
        hypotheses={"gamma": hyp_gamma, "shift_upper": hyp_up,
                    "shift_lower": hyp_lo},
        conclusions=conclusions,
        extras=extras,
        meta={"horizon": horizon, "eps_floor": EPS_FLOOR, "tol": tol_const,
              "seed": battery.seed, "io_threshold": io_threshold(horizon),
              "pk": pk.to_json() if pk is not None else None},
    )


# ---------------------------------------------------- stability experiment

@dataclass(frozen=True)
class StabilityReport:
    kind: str
    direction: str
    hypotheses: Dict[str, Verdict]
    conclusion: Verdict
    clusters: tuple
    meta: Dict[str, object]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "direction": self.direction,
            "hypotheses": {k: v.to_json() for k, v in self.hypotheses.items()},
            "conclusion": self.conclusion.to_json(),
            "clusters": [
                {"point": list(c["point"]), "span": c["span"],
                 "base_index": c["base_index"]} for c in self.clusters
            ],
            "meta": dict(self.meta),
        }


def _cluster(points: list, radius: float):
    """Union-find agglomeration: points within radius share a cluster.

    The clusters are the connected components of the pairs (n, p), (m, q)
    of ``points`` with ``np.linalg.norm(p - q) <= radius``, listed by their
    first point, each in the order of ``points``. Points are swept in order
    of their first coordinate, and only the pairs within ``w`` on every
    coordinate, not yet in one cluster, take the norm test. That drops no
    pair the test accepts: the norm is at least fl(sqrt(fl(d*d))) for each
    coordinate difference d, which is |d| unless d*d underflows (or inf if
    it overflows), and |d| > w >= 2^-511 keeps d*d from underflowing.
    """
    n = len(points)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    if n:
        w = max(radius, 2.0 ** -511)
        pts = np.array([p for _, p in points], dtype=float).reshape(n, -1)
        order = np.argsort(pts[:, 0], kind="stable")
        pts = pts[order]
        first, order = pts[:, 0].tolist(), order.tolist()
        end = 0
        for s, a in enumerate(order):
            end = max(end, s + 1)
            while end < n and first[end] - first[s] <= w:
                end += 1
            if end == s + 1:
                continue
            near = np.abs(pts[s + 1:end] - pts[s]).max(axis=1) <= w
            for t in (s + 1 + np.flatnonzero(near)).tolist():
                b = order[t]
                ra, rb = find(a), find(b)
                if ra != rb and np.linalg.norm(points[a][1] - points[b][1]) <= radius:
                    parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list] = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(points[a])
    return list(groups.values())


# ----------------------------------------------- sequential lower converse

def seq_lower_converse(fam, ctx: OrderCtx, *, samples: int = 32,
                       battery=None, horizon: int = DEFAULT_HORIZON) -> Verdict:
    """Sampled falsification of order preservation along convergent pairs.

    For target pairs (x̄, x₀) with F(x̄) large-below F(x₀), every generated
    pair of sequences must keep F_n(x_n) large-below F_n(φ_n) through the
    tail. Holds is sampled evidence only; Fails is definitive.
    """
    battery = battery or SeqGenBattery()
    base = fam.base
    pairs = np.argwhere(relation_matrices(base, ctx)[1])
    rng = np.random.default_rng(battery.seed + 7)
    if len(pairs) > samples:
        pairs = pairs[rng.choice(len(pairs), size=samples, replace=False)]
    tail = upper_half(horizon)
    names = battery.strategy_names()

    # D_n is asked once, by the first pair and strategy reaching n, and
    # its error ends every sequence there
    doms, dom_err = [], {}
    if len(pairs):
        for n in tail:
            try:
                doms.append(fam.domain_at(n))
            except Exception as e:
                dom_err = {len(doms): e}
                break
    ns = list(tail)[:len(doms)]

    for i, j in pairs:
        xb, x0 = base.domain.points[int(i)], base.domain.points[int(j)]
        for name in names:
            xs = battery.sequence(name, xb, doms, ns)
            ps = battery.sequence(name, x0, doms, ns)
            ta, err_a = tail_table(fam.map, xs, ns, ctx.cone)
            tb, err_b = tail_table(fam.map, ps, ns, ctx.cone)
            # at one n F_n(x_n) is asked, then F_n(phi_n), then they are
            # compared, which is where a box is refused (tail_table)
            errs = {**err_b, **err_a, **dom_err}
            errs.update((k, e) for k, e in err_b.items()
                        if isinstance(errs[k], Unsupported))
            # F_n(x_n) against F_n(phi_n), paired along the tail; one eps row
            ok, = table_rel(ta, tb, (LARGE,), ctx.tol)
            brk = _first_break(ok[None], errs)
            if isinstance(brk, Exception):
                raise brk
            if brk is not None:
                k = brk[0]
                return Verdict.fails(
                    reason=f"order between indices {int(i)} and {int(j)} breaks "
                           f"at n = {tail[k]} under strategy {name}",
                    counterexample={
                        "n": tail[k], "strategy": name,
                        "xbar_index": int(i), "x0_index": int(j),
                        "x_n": [float(v) for v in xs[k]],
                        "phi_n": [float(v) for v in ps[k]]},
                    sampled=True)
    checked = len(pairs) * len(names) * len(tail)
    return Verdict.holds(
        reason=f"order preserved along {checked} tail comparisons "
               f"({len(pairs)} target pairs)",
        certificate={"pairs": int(len(pairs)), "comparisons": checked,
                     "seed": battery.seed, "horizon": horizon},
        sampled=True)


def stability_experiment(fam: PerturbedFamily, kind: str, direction: str,
                         ctx: OrderCtx,
                         battery: Optional[SeqGenBattery] = None,
                         horizon: int = DEFAULT_HORIZON) -> StabilityReport:
    """Minimal-set stability along the family, hypotheses gated per theorem.

    External: cluster points of the tail minimal solutions must be minimal
    for the base problem. Internal: every base minimal point must be the
    limit of a tail subsequence of minimal solutions whose value matches
    it (equivalently for the Geoffroy notion, largely-below for Relaxed).

    The shared gate, hypothesis ``gamma_seq``, is decided once per (family,
    ctx, battery, horizon): ctx by identity, the battery by its type, seed
    and count. Later calls with another kind or direction reuse its verdict
    (``PerturbedFamily._gate_cache``); a gate that raised is asked again.
    """
    if kind not in ("Geoffroy", "Relaxed"):
        raise ValueError(f"stability kind must be Geoffroy or Relaxed, got {kind!r}")
    if direction not in ("external", "internal"):
        raise ValueError(f"direction must be external or internal, got {direction!r}")
    battery = battery or SeqGenBattery()
    base = fam.base
    tail = list(upper_half(horizon))
    need = io_threshold(horizon)

    hypotheses: Dict[str, Verdict] = {}

    # shared gate: sequential variational convergence at every base point
    gates = fam._gate_cache
    key = (ctx, type(battery), battery.seed, battery.count, horizon)
    if key not in gates:
        dv = kuratowski_pair(fam.domain_at, base.domain, horizon)
        reports = _gamma_reports(fam, base.domain.points, battery, ctx, None,
                                 horizon, fam.domain_at, neighborhood=False,
                                 domains_verdict=dv)
        gates[key] = _grid_gamma_hypothesis(
            reports, "sequential variational convergence",
            holds=f"sequential variational convergence at all {len(base)} "
                  "base grid points",
            certificate={"points": len(base), "seed": battery.seed})
    hypotheses["gamma_seq"] = gates[key]

    if direction == "external" and kind == "Geoffroy":
        hypotheses["seq_lower_converse"] = seq_lower_converse(
            fam, ctx, battery=battery, horizon=horizon)

    base_eff = eff(base, kind, ctx)
    # the external direction reads only the tail members' minimal sets
    read = tail if direction == "external" else range(horizon)
    en = {n: eff(P, kind, ctx).indices for n, P in zip(read, _members(fam, read))}

    if direction == "internal":
        empty_n = next((n for n in range(horizon) if not en[n]), None)
        hypotheses["nonempty_eff"] = (
            Verdict.holds(reason="every perturbed minimal set nonempty",
                          certificate={"horizon": horizon})
            if empty_n is None else
            Verdict.fails(reason=f"minimal set empty at n = {empty_n}",
                          counterexample={"n": empty_n}))
        def reach(i: int, n: int) -> Verdict:
            Pn = family_at(fam, n)
            j = Pn.domain.nearest_index(base.domain.points[i])
            return hypothesis_h(Pn, kind, j, ctx)

        checks = ((i, n, reach(i, n)) for i in base_eff.indices for n in tail)
        hh_bad = next((c for c in checks if not c[2].is_holds), None)
        hypotheses["hypothesis_h"] = (
            Verdict.holds(reason="level-set reachability holds along the tail "
                                 "at every base minimal point",
                          certificate={"points": len(base_eff.indices)},
                          sampled=True)
            if hh_bad is None else
            Verdict.fails(reason=f"level-set reachability fails at base index "
                                 f"{hh_bad[0]}, n = {hh_bad[1]}",
                          counterexample={"base_index": hh_bad[0],
                                          "n": hh_bad[1],
                                          "detail": hh_bad[2].reason},
                          sampled=True))

    if kind == "Geoffroy":
        rep = representants(base, ctx)
        hypotheses["representants"] = (
            Verdict.fails(reason="no finite representant decomposition",
                          counterexample={"overlap": list(rep.overlap),
                                          "at_index": rep.at_index})
            if isinstance(rep, NoFiniteRepresentant) else
            Verdict.holds(reason=f"{len(rep.reps)} representant classes",
                          certificate={"reps": list(rep.reps)}))

    # tail solution points and their clusters
    step = _grid_step(base.domain)
    tagged = [(n, p) for n in tail
              for p in fam.domain_at(n).points[list(en[n])]]
    clusters_raw = _cluster(tagged, 2.0 * ctx.tol)

    clusters = []
    for group in clusters_raw:
        pt = group[0][1]
        span = len({n for n, _ in group})
        bi = base.domain.nearest_index(pt)
        dist = float(np.linalg.norm(base.domain.points[bi] - pt))
        clusters.append({"point": tuple(float(v) for v in pt), "span": span,
                         "base_index": int(bi), "dist": dist})

    if direction == "external":
        raw = _external_conclusion(clusters, base_eff, step, ctx)
    else:
        raw = _internal_conclusion(clusters, base_eff, base, kind, need,
                                   step, ctx)

    conclusion = _gate(raw, [(k, v) for k, v in hypotheses.items()])
    return StabilityReport(
        kind, direction, hypotheses, conclusion, tuple(clusters),
        meta={"horizon": horizon, "io_threshold": need, "seed": battery.seed,
              "cluster_radius": 2.0 * ctx.tol, "tail_points": len(tagged)})


def _external_conclusion(clusters, base_eff, step: float, ctx: OrderCtx) -> Verdict:
    eff_set = set(base_eff.indices)
    for c in clusters:
        if c["dist"] > step / 2 + ctx.tol:
            return Verdict.fails(
                reason="a cluster of perturbed solutions converges off the "
                       "base grid",
                counterexample={"point": list(c["point"]),
                                "nearest_base_index": c["base_index"],
                                "dist": c["dist"]},
                sampled=True)
        if c["base_index"] not in eff_set:
            return Verdict.fails(
                reason=f"cluster limit at base index {c['base_index']} is "
                       f"not {base_eff.kind}-minimal for the base problem",
                counterexample={"point": list(c["point"]),
                                "base_index": c["base_index"]},
                sampled=True)
    return Verdict.holds(
        reason=f"all {len(clusters)} cluster limits are {base_eff.kind}-"
               "minimal for the base problem",
        certificate={"clusters": [c["base_index"] for c in clusters]},
        sampled=True)


def _internal_conclusion(clusters, base_eff, base: Problem, kind: str,
                         need: int, step: float, ctx: OrderCtx) -> Verdict:
    """A cluster's value matches base minimal index i when it lies largely
    below F(i) (Relaxed) or is equivalent to it (Geoffroy), read off the
    LARGE matrix that ``base_eff`` was solved from."""
    matches = {}
    large = relation_matrices(base, ctx)[1]
    both = kind == "Geoffroy"
    near = [c for c in clusters
            if c["span"] >= need and c["dist"] <= step / 2 + ctx.tol]
    for i in base_eff.indices:
        found = next((c for c in near if large[c["base_index"], i]
                      and (not both or large[i, c["base_index"]])), None)
        if found is None:
            return Verdict.fails(
                reason=f"base minimal index {i} is not approached by any "
                       "value-matching subsequence of perturbed solutions",
                counterexample={"base_index": int(i),
                                "clusters": [list(c["point"]) for c in clusters]},
                sampled=True)
        matches[int(i)] = found["base_index"]
    return Verdict.holds(
        reason=f"every base minimal point matched by a tail subsequence "
               f"spanning >= {need} indices",
        certificate={"matches": matches}, sampled=True)
