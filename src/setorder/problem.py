"""Set optimization problems: discretized domains, piecewise maps, families.

A Problem bundles a set-valued objective over a finite grid with an
ordering cone. It is validated eagerly when built: guard coverage, value
well-formedness, and properness of every grid value, so the solvers can
assume a total ``value``.

A PerturbedFamily adds the members F_n = ``map(·, n)`` on the domains
D_n = ``domains(n)``, under the base cone. ``family_at`` builds a member
as a Problem, for the callers that read its grid values, and ``_members``
builds a range of them as one batch; a value at one point is
``fam.map.value(x, n)`` and builds no member. Values at many points take
one path, ``value_rows``: one array evaluation of the map, straight into
padded corner arrays, which a sequence tail turns into a corner table
(``tail_table``). A Problem and a batch of members check their grids on
one path too, ``_checked_rows``, whose properness table gives each
Problem its value table.

Every universally quantified statement downstream ("for all x in D")
ranges over the grid points stored here; reports carry the step so that
reading a verdict never requires guessing the discretization.
"""

from __future__ import annotations

import inspect
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from . import expr as ex
from ._kernels import LARGE
from .cone import DEFAULT_TOL, Cone
from .errors import (ExprError, ExprSyntaxError, HorizonExceeded, ProblemLoadError,
                     SetSpecError, Unsupported)
from .order import CornerTable, _h_rows, table_from_corners, table_rel
from .setrep import Box, BoxUnion, PointCloud, SetRep, _corner_data, _refuse_boxes

# finite upper endpoints beyond this are treated as unbounded; keeps huge
# exp(n) values from overflowing later arithmetic while changing nothing
# about lower-corner comparisons
_HI_CAP = 1e15

#: most points a product of windows may have. A grid is refused before any
#: point is built. 2^14 admits a 100 x 100 (or 128 x 128) grid, whose three
#: N x N relation matrices take 0.3 GB (0.8 GB); the solvers need such
#: quadratic memory, so much larger grids would exhaust a desktop machine.
MAX_GRID_POINTS = 2 ** 14

#: why a value whose exterior point lies in cl(A + C) is refused
EXTERIOR_INSIDE = "constructed exterior point landed inside A + C"


# ---------------------------------------------------------------- domains

@dataclass(frozen=True)
class Window:
    """1-D grid window: points a + j*step while they stay inside [a, b].

    ``hi_open`` drops b itself (used for half-open perturbed domains);
    ``truncated`` marks the window as a stand-in for an unbounded set, a
    caveat that propagates into reports.
    """
    a: float
    b: float
    step: float
    truncated: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ProblemLoadError("window endpoints must be finite")
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ProblemLoadError("window step must be positive and finite")
        if self.b < self.a:
            raise ProblemLoadError(f"empty window [{self.a}, {self.b}]")

    def _holds(self, j: int) -> bool:
        v = self.a + j * self.step
        return v < self.b if self.hi_open else v <= self.b

    def __len__(self) -> int:
        return self._count

    @cached_property
    def _count(self) -> int:
        """Point count, found without building the points, once per window.

        a + j*step never falls as j grows, so the count is the first j
        whose point lies outside, and a window whose point j = 2^53 lies
        inside is refused. The quotient (b - a) / step is the last point's
        index up to rounding: the search starts there, gallops (doubling
        its distance) to a bracket and bisects it, three or four
        ``_holds`` calls on a usual window. Rounding can put the count far
        from the quotient when |a| is large against the step, since
        a + j*step then stays at a for many j; the gallop keeps that to a
        few dozen calls.
        """
        if self._holds(2 ** 53):
            raise ProblemLoadError(
                f"window [{self.a}, {self.b}] step {self.step} has over 2^53 points")
        # b - a can overflow to inf; the count is at most 2^53 here
        j, d = int(min((self.b - self.a) / self.step, 2 ** 53)), 1
        if self._holds(j):
            while self._holds(j + d):
                d *= 2
            lo, hi = j + d // 2 + 1, j + d
        else:
            while j - d >= 0 and not self._holds(j - d):
                d *= 2
            lo, hi = max(j - d + 1, 0), j - d // 2
        # the count is in [lo, hi]: the first j there whose point is outside
        return lo + bisect_left(range(lo, hi), True, key=lambda i: not self._holds(i))

    def points(self) -> np.ndarray:
        # the same single rounding of a + j*step as in _holds
        return self.a + np.arange(self._count, dtype=np.float64) * self.step


class Domain:
    """Finite point set, either an explicit list or a product of windows."""

    def __init__(self, points: np.ndarray, windows: Optional[tuple[Window, ...]] = None):
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ProblemLoadError("domain must contain at least one point")
        if pts.shape[0] > MAX_GRID_POINTS:
            raise ProblemLoadError(
                f"domain of {pts.shape[0]} points exceeds the budget of {MAX_GRID_POINTS}")
        if not np.all(np.isfinite(pts)):
            raise ProblemLoadError("domain points must be finite")
        pts.setflags(write=False)
        self.points = pts
        self.windows = windows

    @classmethod
    def from_windows(cls, windows: Sequence[Window]) -> "Domain":
        """Product grid, last window varying fastest; refused over MAX_GRID_POINTS."""
        counts = [len(w) for w in windows]
        for w, count in zip(windows, counts):
            if not count:
                raise ProblemLoadError(f"window [{w.a}, {w.b}] step {w.step} has no grid points")
        size = math.prod(counts)
        if size > MAX_GRID_POINTS:
            raise ProblemLoadError(
                f"grid of {size} points exceeds the budget of {MAX_GRID_POINTS}; "
                "use coarser window steps")
        axes = np.meshgrid(*(w.points() for w in windows), indexing="ij")
        pts = np.stack(axes, axis=-1).reshape(-1, len(windows))
        return cls(pts, tuple(windows))

    @classmethod
    def from_points(cls, pts) -> "Domain":
        return cls(np.asarray(pts, dtype=np.float64))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def truncated(self) -> bool:
        return bool(self.windows) and any(w.truncated for w in self.windows)

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def _index(self) -> dict[tuple[float, ...], int]:
        # a repeated point maps to its last index
        return {tuple(p): i for i, p in enumerate(self.points)}

    def index_of(self, x) -> Optional[int]:
        """Exact-match grid index, or None; the lookup table is built on
        the first call."""
        return self._index.get(tuple(np.asarray(x, dtype=np.float64)))

    def nearest_index(self, x) -> int:
        d = np.linalg.norm(self.points - np.asarray(x, dtype=np.float64), axis=1)
        return int(np.argmin(d))

    def step_summary(self) -> object:
        if self.windows is None:
            return "explicit"
        return [w.step for w in self.windows]

    @cached_property
    def extent(self) -> float:
        """The widest window, or the largest coordinate spread of the
        points; 1.0 when that is not positive."""
        if self.windows:
            R = max(w.b - w.a for w in self.windows)
        else:
            spread = self.points.max(axis=0) - self.points.min(axis=0)
            R = float(spread.max())
        return 1.0 if R <= 0.0 else R

    @cached_property
    def bounds(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(lo, hi) per window of the continuous box the windows span, hi one
        float below an open upper end; None for an explicit point list."""
        if not self.windows:
            return None
        lo = np.array([w.a for w in self.windows])
        hi = np.array([np.nextafter(w.b, w.a) if w.hi_open else w.b
                       for w in self.windows])
        return lo, hi


# ----------------------------------------------------------- guarded maps

_COMPARE = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Guard:
    """Conjunction of comparisons between expressions; () matches everything."""
    atoms: tuple[tuple[ex.Expr, str, ex.Expr], ...]
    text: str = "true"

    @classmethod
    def parse(cls, src: str) -> "Guard":
        """A syntax error in a side reports its column in src."""
        text = src.strip()
        if text in ("", "true"):
            return cls((), "true")
        atoms = []
        at = len(src) - len(src.lstrip())   # where the clause starts in src
        for clause in text.split(" and "):
            m = None
            # scan for the longest operator first so "<=" is not read as "<"
            for op in ("<=", ">=", "<", ">"):
                if op in clause:
                    m = op
                    break
            if m is None:
                raise ProblemLoadError(f"guard clause {clause!r} has no comparison")
            lhs, rhs = clause.split(m, 1)
            atoms.append((_parse_at(lhs, at), m, _parse_at(rhs, at + len(lhs) + len(m))))
            at += len(clause) + len(" and ")
        return cls(tuple(atoms), text)

    def matches(self, env: Mapping[str, object]) -> bool:
        return all(_COMPARE[op](ex.evaluate(l, env), ex.evaluate(r, env))
                   for l, op, r in self.atoms)


def _parse_at(src: str, start: int) -> ex.Expr:
    """ex.parse(src) for src cut from a longer string at column start; a
    syntax error counts its column in that string."""
    try:
        return ex.parse(src)
    except ExprSyntaxError as e:
        raise ExprSyntaxError(e.reason, start + e.pos) from None


@dataclass(frozen=True)
class AxisSpec:
    """One box axis: endpoint expressions plus openness flags."""
    lo: ex.Expr
    hi: ex.Expr
    lo_open: bool = False
    hi_open: bool = False


@dataclass(frozen=True)
class Piece:
    guard: Guard
    box_axes: Optional[tuple[AxisSpec, ...]] = None
    point_vectors: Optional[tuple[tuple[ex.Expr, ...], ...]] = None

    def __post_init__(self):
        if (self.box_axes is None) == (self.point_vectors is None):
            raise ProblemLoadError("piece must define exactly one of box / points")


class PieceMap:
    """First-matching-piece expression map x -> SetRep.

    ``value`` evaluates at one point. ``value_rows`` evaluates guards and
    expressions over arrays of points instead (``_rows``) and sends a row
    back through ``value`` when it is suspect: when some expression of the
    row is suspect in ``expr.evaluate_rows`` (a NaN or infinite
    intermediate, a zero divisor, a negative sqrt argument, a failing
    power, an unbound variable), no guard matches it, or an endpoint check
    fails. So every row whose ``value`` raises is re-run and raises the same
    exception, and every other row holds ``value``'s corners bit for bit.
    """

    def __init__(self, pieces: Sequence[Piece], image_dim: int):
        if not pieces:
            raise ProblemLoadError("map needs at least one piece")
        self.pieces = tuple(pieces)
        self.image_dim = image_dim

    def value(self, x, n: Optional[int] = None) -> SetRep:
        env: dict[str, object] = {"x": tuple(float(c) for c in x)}
        if n is not None:
            env["n"] = n
        for k, piece in enumerate(self.pieces):
            if piece.guard.matches(env):
                return _eval_piece(piece, k, env, self.image_dim)
        raise ProblemLoadError(f"no piece matches x = {env['x']}")

    def _rows(self, X: np.ndarray, ns: Sequence[Optional[int]]):
        """``value`` at each row of X (T, d), n = ns[i], as arrays.

        Returns (corners, flags, cloud, count, suspect): corners (T, K, dim)
        are the box lower corners or cloud points of each row, padded with
        +inf, flags their uint8 lower-openness, cloud and count (T,) the
        representation and corner count of each row, and suspect (T,) the
        rows whose arrays are not to be trusted (see the class docstring).
        """
        T, dim = len(X), self.image_dim
        n = None if None in ns else np.asarray(ns, dtype=float)
        suspect = np.zeros(T, dtype=bool)
        which = np.full(T, -1)
        unmatched = np.ones(T, dtype=bool)
        for k, piece in enumerate(self.pieces):
            # an atom is evaluated where the piece is reached and every
            # earlier atom of its guard held, as in Guard.matches
            match = unmatched.copy()
            for lhs, op, rhs in piece.guard.atoms:
                a, bad_a = ex.evaluate_rows(lhs, X, n)
                b, bad_b = ex.evaluate_rows(rhs, X, n)
                suspect |= match & (bad_a | bad_b)
                match &= _COMPARE[op](a, b)
            which[match] = k
            unmatched &= ~match
        suspect |= unmatched

        used = [k for k in range(len(self.pieces)) if (which == k).any()]
        K = max((1 if self.pieces[k].box_axes is not None
                 else len(self.pieces[k].point_vectors) for k in used), default=0)
        corners = np.full((T, K, dim), np.inf)
        flags = np.zeros((T, K, dim), dtype=np.uint8)
        cloud = np.zeros(T, dtype=bool)
        count = np.zeros(T, dtype=np.intp)
        for k in used:
            piece = self.pieces[k]
            rows = np.flatnonzero(which == k)
            Xk, nk = X[rows], None if n is None else n[rows]
            if piece.box_axes is not None:
                if len(piece.box_axes) != dim:
                    suspect[rows] = True
                    continue
                for axis, spec in enumerate(piece.box_axes):
                    a, bad_a = ex.evaluate_rows(spec.lo, Xk, nk)
                    b, bad_b = ex.evaluate_rows(spec.hi, Xk, nk)
                    capped = b > _HI_CAP
                    b_open = spec.hi_open | capped
                    b = np.where(capped, np.inf, b)
                    suspect[rows] |= (bad_a | bad_b | (b < a)
                                      | ((b == a) & (spec.lo_open | b_open)))
                    corners[rows, 0, axis] = a
                    flags[rows, 0, axis] = spec.lo_open
                count[rows] = 1
            else:
                vecs = piece.point_vectors
                if not vecs or any(len(vec) != dim for vec in vecs):
                    suspect[rows] = True
                    continue
                for j, vec in enumerate(vecs):
                    for c, expr in enumerate(vec):
                        v, bad = ex.evaluate_rows(expr, Xk, nk)
                        suspect[rows] |= bad
                        corners[rows, j, c] = v
                cloud[rows] = True
                count[rows] = len(vecs)
        return corners, flags, cloud, count, suspect


def _eval_piece(piece: Piece, k: int, env, image_dim: int) -> SetRep:
    if piece.point_vectors is not None:
        pts = [[ex.evaluate(c, env) for c in vec] for vec in piece.point_vectors]
        return PointCloud(image_dim, np.array(pts, dtype=np.float64))
    lo, hi, lo_open, hi_open = [], [], [], []
    for axis, spec in enumerate(piece.box_axes):
        a = ex.evaluate(spec.lo, env)
        b = ex.evaluate(spec.hi, env)
        a_open, b_open = spec.lo_open, spec.hi_open
        if not math.isfinite(a):
            raise ProblemLoadError(
                f"piece {k} axis {axis}: lower endpoint evaluated to {a} at x = {env['x']}")
        if b > _HI_CAP:
            b, b_open = math.inf, True
        if b < a:
            raise ProblemLoadError(
                f"piece {k} axis {axis}: empty interval [{a}, {b}] at x = {env['x']}")
        if b == a and (a_open or b_open):
            raise ProblemLoadError(
                f"piece {k} axis {axis}: degenerate interval at {a} must be a "
                f"closed singleton (x = {env['x']})")
        lo.append(a)
        hi.append(b)
        lo_open.append(a_open)
        hi_open.append(b_open)
    b = Box(tuple(lo), tuple(hi), tuple(lo_open), tuple(hi_open))
    return BoxUnion(image_dim, (b,))


class TableMap:
    """Programmatic map for crafted test families: a callable per point.

    Nothing is known of its values ahead of a call, so ``value_rows``
    treats every row as suspect and asks ``value`` for each.
    """

    def __init__(self, fn: Callable[..., SetRep], image_dim: int):
        self.fn = fn
        self.image_dim = image_dim
        self._takes_n = len(inspect.signature(fn).parameters) >= 2

    def value(self, x, n: Optional[int] = None) -> SetRep:
        if self._takes_n and n is not None:
            return self.fn(tuple(x), n)
        return self.fn(tuple(x))


SetValuedMap = Union[PieceMap, TableMap]


def value_rows(map: SetValuedMap, X, ns: Sequence[Optional[int]], cone: Cone,
               first_error: bool = False):
    """((corners, flags, cloud, count), errs): map.value(X[i], ns[i]) at
    every row of X, laid out as in ``PieceMap._rows``, and errs, each
    raising row's exception keyed by its row, in row order. A raising row
    holds no corner (count 0, marked a cloud); every other row holds
    ``_corner_data(value, cone, h_coords=False)`` bit for bit, which reads
    only the cone's dimension. Only a PieceMap's suspect rows call ``value``.
    With ``first_error`` the first suspect row that raises ends the asking:
    errs holds its exception alone and later rows are left unevaluated, for
    a caller that only raises that error.
    """
    X = np.asarray(X, dtype=float)
    T = len(X)
    if isinstance(map, PieceMap) and map.image_dim == cone.dim:
        corners, flags, cloud, count, suspect = map._rows(X, ns)
    else:
        corners = np.full((T, 0, cone.dim), np.inf)
        flags = np.zeros(corners.shape, np.uint8)
        cloud, count, suspect = np.zeros(T, bool), np.zeros(T, np.intp), np.ones(T, bool)

    data, errs = {}, {}
    for i in np.flatnonzero(suspect).tolist():
        try:
            data[i] = _corner_data(map.value(tuple(X[i]), ns[i]), cone, h_coords=False)
        except Exception as e:
            errs[i] = e
            if first_error:
                break
    extra = max((len(c) for c, _, _ in data.values()), default=0) - corners.shape[1]
    if extra > 0:
        corners = np.concatenate([corners, np.full((T, extra, cone.dim), np.inf)], axis=1)
        flags = np.concatenate([flags, np.zeros((T, extra, cone.dim), np.uint8)], axis=1)
    for i, (c, o, is_cloud) in data.items():
        k = len(c)
        corners[i], flags[i] = np.inf, 0
        corners[i, :k], flags[i, :k] = c, o
        cloud[i], count[i] = is_cloud, k
    if errs:
        bad = list(errs)
        corners[bad], flags[bad], cloud[bad], count[bad] = np.inf, 0, True, 0
    return (corners, flags, cloud, count), errs


def tail_table(map: SetValuedMap, X, ns: Sequence[Optional[int]], cone: Cone,
               shift: Optional[np.ndarray] = None
               ) -> tuple[CornerTable, dict[int, Exception]]:
    """``value_rows`` as one corner table of every row, and each raising
    row's exception keyed by its row, in row order.

    Under a general cone a box row is raising too: it holds no corner, and
    its error is the ``Unsupported`` that comparing it would raise. With
    ``shift`` (E, dim) the set axes are (E, rows). The rows that do not
    raise equal ``corner_table(values, cone, shift)`` over their values bit
    for bit.
    """
    (corners, flags, cloud, count), errs = value_rows(map, X, ns, cone)
    if not cloud.all() and cone.kind != "orthant":
        boxes = np.flatnonzero(~cloud).tolist()
        try:
            _refuse_boxes(cone)
        except Unsupported as e:
            errs = dict(sorted({**dict.fromkeys(boxes, e), **errs}.items()))
        corners[boxes], cloud[boxes], count[boxes] = np.inf, True, 0
    return table_from_corners(corners, flags, cloud, count, cone, shift), errs


def _exterior_rows(rows, cone: Cone) -> tuple[np.ndarray, CornerTable, np.ndarray]:
    """(checked, tab, z): the rows checked for properness, their corner
    table, and a point z outside cl(A + C) for each, A's componentwise
    least corner pushed along -u until the first halfspace row rules out
    domination (by 1 under the orthant). Under a general cone only clouds
    are checked, all in whole-array passes that read the table's
    H-coordinates, each row's bits those of ``Cone.h_coords`` on that value
    alone (``order._h_rows``)."""
    corners, _, cloud, count = rows
    orthant = cone.kind == "orthant"
    checked = np.arange(len(count)) if orthant else np.flatnonzero(cloud)
    tab = table_from_corners(*(x[checked] for x in rows), cone)
    if orthant:
        return checked, tab, tab.ideal().T - 1.0
    pmin = corners[checked].min(axis=1)
    t = 1.0 + (_h_rows(cone, pmin[:, None], 1)[0, 0] - tab.ideal()[0])
    return checked, tab, pmin - t[:, None] * cone.interior_direction


def _checked_rows(map: SetValuedMap, cone: Cone, domains: Sequence[Domain],
                  ns: Sequence[Optional[int]]) -> list:
    """The value table of each member, F = ``map(·, ns[j])`` on
    ``domains[j]``, its grid checked as a Problem checks it, in member
    order up to the first member whose check fails: its exception, the one
    that member's Problem raises, ends the list.

    The members' grids are one ``value_rows``, which stops at its first
    raising row, and the members wholly before that row one properness
    table (``_exterior_rows``) and one LARGE query on it; the first
    improper member among them fails first. A member's slice of that
    table is cut to its own largest corner count, so it does not depend on
    the other members; its table is None when some row was not mapped (a
    box under a general cone).
    """
    if map.image_dim != cone.dim:
        return [ProblemLoadError(f"map image dim {map.image_dim} != cone dim {cone.dim}")]
    # member j holds rows starts[j]:starts[j + 1]
    starts = [0, *accumulate(len(d) for d in domains)]
    X = (domains[0].points if len(domains) == 1
         else np.concatenate([d.points for d in domains]))
    rows, errs = value_rows(map, X, [n for d, n in zip(domains, ns) for _ in range(len(d))],
                            cone, first_error=True)
    bad = min(errs, default=len(X))
    err = errs.get(bad)
    if isinstance(err, (SetSpecError, ExprError)):
        err = ProblemLoadError(f"value at x = {tuple(float(c) for c in X[bad])}: {err}")
        err.__cause__ = errs[bad]
    # the members wholly before the raising row, each value paired with its
    # exterior point in one LARGE query; one of them may be improper
    whole = bisect_right(starts, bad) - 1
    if not whole:
        return [err]
    checked, tab, zs = _exterior_rows(tuple(x[:starts[whole]] for x in rows), cone)
    if len(checked):
        z = zs[:, None]
        inside, = table_rel(tab, table_from_corners(
            z, np.zeros(z.shape, np.uint8), np.ones(len(z), bool), np.ones(len(z), np.intp),
            cone), (LARGE,), DEFAULT_TOL)
        if inside.any():
            r = int(np.argmax(inside))
            whole = bisect_right(starts, checked[r]) - 1
            err = ProblemLoadError(
                f"value at x = {tuple(float(c) for c in X[checked[r]])} is not proper "
                f"for the cone: {EXTERIOR_INSIDE} "
                f"(certificate {dict(point=zs[r])})")
    count = rows[3]
    # member j's rows in the table are at[j]:at[j + 1]
    at = np.searchsorted(checked, starts).tolist()
    out: list = []
    for lo, hi, a, b in zip(starts[:whole], starts[1:whole + 1], at, at[1:]):
        k = int(count[lo:hi].max())
        out.append(tab.sets(slice(a, b)).cut(k) if b - a == hi - lo else None)
    return out if err is None else out + [err]


# ---------------------------------------------------------------- problem

class Problem:
    """SetValuedMap + Cone + Domain, fully validated on the grid; ``_table``
    holds the grid values' corner table from the properness check
    (``_checked_rows``; None for a box under a general cone), and
    ``value(i)`` evaluates anew."""

    def __init__(self, label: str, map: SetValuedMap, cone: Cone, domain: Domain,
                 n: Optional[int] = None):
        got, = _checked_rows(map, cone, [domain], [n])
        if isinstance(got, Exception):
            raise got
        self._hold(label, map, cone, domain, n, got)

    def _hold(self, label: str, map: SetValuedMap, cone: Cone, domain: Domain,
              n: Optional[int], table: Optional[CornerTable]) -> "Problem":
        self.label = label
        self.map = map
        self.cone = cone
        self.domain = domain
        self.n = n
        self._table = table
        return self

    def value(self, i: int) -> SetRep:
        return self.map.value(self.domain.points[i], self.n)

    def values(self) -> tuple[SetRep, ...]:
        return tuple(self.value(i) for i in range(len(self)))

    def __len__(self) -> int:
        return len(self.domain)


# ----------------------------------------------------------------- family

class PerturbedFamily:
    """Base problem plus the members F_n = ``map(·, n)`` on D_n = ``domains(n)``.

    Members share the base cone by construction. ``family_at`` builds a
    member, with its grid values and properness check, for callers that
    read those values; a value at one point is ``map.value(x, n)`` and
    builds nothing. A caller that reads a range of members asks for them
    through ``_members``, which builds those not yet cached in one batch:
    one row evaluation over their grids and one properness query, each
    member equal to its build alone. ``domain_at`` caches D_n and
    ``_cache`` the members; a member whose build raises is not kept.
    ``converge.stability_experiment`` keeps the verdict of its shared gate
    (the domains' Kuratowski pair and sequential gamma convergence at every
    base point) in ``_gate_cache``, keyed on the ``OrderCtx`` by identity,
    the battery, a frozen value, and the horizon; a gate that raises
    is not kept. No cache ever drops an entry,
    so the parts they are built from (``base``, ``map``, ``domains`` and
    ``recovery_hint``) are read-only: a family with other parts is a new
    ``PerturbedFamily``.
    """

    def __init__(self, base: Problem, map: SetValuedMap,
                 domains: Callable[[int], Domain], n_max: int,
                 recovery_hint: Optional[tuple[ex.Expr, ...]] = None,
                 label: Optional[str] = None):
        if n_max < 8:
            raise ProblemLoadError(f"family horizon n_max = {n_max} must be >= 8")
        self._base = base
        self._map = map
        self._domains = domains
        self.n_max = int(n_max)
        self._recovery_hint = recovery_hint
        self.label = label or base.label
        self._cache: dict[int, Problem] = {}
        self._domain_cache: dict[int, Domain] = {}
        self._gate_cache: dict[tuple, object] = {}

    @property
    def base(self) -> Problem:
        return self._base

    @property
    def map(self) -> SetValuedMap:
        return self._map

    @property
    def domains(self) -> Callable[[int], Domain]:
        return self._domains

    @property
    def recovery_hint(self) -> Optional[tuple[ex.Expr, ...]]:
        return self._recovery_hint

    def recovery_point(self, x, n: int) -> Optional[np.ndarray]:
        if self.recovery_hint is None:
            return None
        env = {"x": tuple(x), "n": n}
        return np.array([ex.evaluate(h, env) for h in self.recovery_hint])

    def recovery_points(self, X, ns: Sequence[int]
                        ) -> tuple[np.ndarray, dict[int, Exception]]:
        """(points, errs): recovery_point(x, n) for each row x of X (G, d),
        or the one point X, and each n in ns, as rows of one array in
        (x, n) order, and each raising row's exception keyed by its row, in
        row order; a raising row holds NaN.

        The hint is evaluated over the array; suspect rows are asked of
        recovery_point, in order.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        T = len(ns)
        rows = np.repeat(X, T, axis=0)
        n = np.tile(np.asarray(ns, dtype=float), len(X))
        cols, suspect = [], np.zeros(len(rows), dtype=bool)
        for h in self.recovery_hint:
            v, bad = ex.evaluate_rows(h, rows, n)
            cols.append(v)
            suspect |= bad
        out, errs = np.stack(cols, axis=1), {}
        for i in np.flatnonzero(suspect).tolist():
            try:
                out[i] = self.recovery_point(X[i // T], ns[i % T])
            except Exception as e:
                out[i], errs[i] = np.nan, e
        return out, errs

    def domain_at(self, n: int) -> Domain:
        """D_n, without evaluating the map over its grid; refused unless it
        has the base domain's dimension."""
        if not (0 <= n <= self.n_max):
            raise HorizonExceeded(f"n = {n} outside [0, {self.n_max}]")
        got = self._domain_cache.get(n)
        if got is None:
            got = self.domains(n)
            if got.dim != self.base.domain.dim:
                raise ProblemLoadError(
                    f"D_{n} has dimension {got.dim}, the base domain {self.base.domain.dim}")
            self._domain_cache[n] = got
        return got


def _build_members(fam: PerturbedFamily, ns: Iterable[int]
                   ) -> Optional[tuple[int, Exception]]:
    """Build every member F_n, n in ns, that ``fam`` has not cached, in one
    batch, and cache it. Each equals ``Problem(f"{fam.label}[n={n}]",
    fam.map, fam.base.cone, fam.domain_at(n), n=n)`` built alone.

    The batch is one ``domain_at`` per n and one ``_checked_rows`` over
    their grids. It stops at the first member, in the order of ns, whose
    domain or build raises, and returns that n with the exception its
    build alone raises; that member and those after it are not cached.
    """
    todo = [n for n in dict.fromkeys(ns) if n not in fam._cache]
    domains: list[Domain] = []
    failed = None
    for n in todo:
        try:
            domains.append(fam.domain_at(n))
        except Exception as e:
            failed = n, e
            break
    if domains:
        cone = fam.base.cone
        for n, dom, got in zip(todo, domains, _checked_rows(fam.map, cone, domains, todo)):
            if isinstance(got, Exception):
                return n, got
            fam._cache[n] = Problem.__new__(Problem)._hold(
                f"{fam.label}[n={n}]", fam.map, cone, dom, n, got)
    return failed


def family_at(fam: PerturbedFamily, n: int) -> Problem:
    """The n-th member, F_n on D_n, built and checked once: a batch of one
    member (``_build_members``)."""
    got = fam._cache.get(n)
    if got is None:
        failed = _build_members(fam, (n,))
        if failed is not None:
            raise failed[1]
        got = fam._cache[n]
    return got


def _members(fam: PerturbedFamily, ns: Sequence[int]) -> Iterator[Problem]:
    """``family_at(fam, n)`` for each n of ns in order, every member not
    yet cached built first in one batch. A member whose build raises
    raises that exception when it is reached, so a caller's own work on
    the members before it comes first, as in a loop over ``family_at``."""
    failed = _build_members(fam, ns)
    for n in ns:
        if failed is not None and n == failed[0]:
            raise failed[1]
        yield family_at(fam, n)


# ------------------------------------------------------------ JSON loader

def _data_dir(kind: str):
    return resources.files("setorder") / "data" / kind


@cache
def _validator():
    """The problem schema's validator, built on the first load of a process.

    The schema as written is checked against its metaschema; the validator
    then runs on a copy with its ``$ref``s inlined (``_inline_refs``), so
    validating a document resolves no reference. jsonschema reports an
    error met through a ``$ref`` with the referenced subschema's message
    and path and adds nothing for the ``$ref`` itself, so every error, and
    the best match among them, is the one the schema as written gives.
    """
    import jsonschema
    schema = json.loads((_data_dir("schema") / "problem.schema.json").read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(_inline_refs(schema))


def _inline_refs(schema: dict) -> dict:
    """A copy of schema without ``$defs``, each ``{"$ref": "#/$defs/<name>"}``
    replaced by that definition, inlined in turn. Any other ``$ref`` (to
    another document, with sibling keywords, or a recursive definition)
    has no inlined form and is refused with a ValueError."""
    defs = schema.get("$defs", {})

    def inline(node, within: frozenset):
        if isinstance(node, list):
            return [inline(v, within) for v in node]
        if not isinstance(node, dict):
            return node
        if "$ref" not in node:
            return {k: inline(v, within) for k, v in node.items()}
        ref = node["$ref"]
        name = ref.removeprefix("#/$defs/") if isinstance(ref, str) else None
        if name == ref or name not in defs or len(node) > 1 or name in within:
            raise ValueError(f"problem schema: $ref {ref!r} cannot be inlined")
        return inline(defs[name], within | {name})

    return inline({k: v for k, v in schema.items() if k != "$defs"}, frozenset())


def _validate_schema(doc: dict) -> None:
    import jsonschema
    # the error jsonschema.validate would raise: the best match, not the first
    e = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if e is not None:
        path = "/".join(str(p) for p in e.absolute_path)
        raise ProblemLoadError(f"schema: {e.message} (at {path or 'root'})") from e


def _num_or_expr(v, env, parse: Callable[[str], ex.Expr]) -> float:
    if isinstance(v, (int, float)):
        return float(v)
    return ex.evaluate(parse(v), env)


def _build_window(spec: dict, env, parse: Callable[[str], ex.Expr]) -> Window:
    return Window(
        a=_num_or_expr(spec["a"], env, parse),
        b=_num_or_expr(spec["b"], env, parse),
        step=_num_or_expr(spec["step"], env, parse),
        truncated=bool(spec.get("truncated", False)),
        hi_open=bool(spec.get("hi_open", False)),
    )


def _build_domain(spec: dict, env, parse: Callable[[str], ex.Expr]) -> Domain:
    if "points" in spec:
        return Domain.from_points(spec["points"])
    return Domain.from_windows([_build_window(w, env, parse)
                                for w in spec["windows"]])


def _parse_endpoint(v) -> ex.Expr:
    return ex.parse(str(v)) if not isinstance(v, str) else ex.parse(v)


def _build_map(spec: dict, image_dim: int) -> PieceMap:
    pieces = []
    for p in spec["pieces"]:
        guard = Guard.parse(p.get("guard", "true"))
        if "box" in p:
            axes = tuple(
                AxisSpec(lo=_parse_endpoint(a["lo"]), hi=_parse_endpoint(a["hi"]),
                         lo_open=bool(a.get("lo_open", False)),
                         hi_open=bool(a.get("hi_open", False)))
                for a in p["box"])
            if len(axes) != image_dim:
                raise ProblemLoadError(
                    f"box piece has {len(axes)} axes, cone dim is {image_dim}")
            pieces.append(Piece(guard, box_axes=axes))
        else:
            vecs = tuple(tuple(_parse_endpoint(c) for c in vec) for vec in p["points"])
            for vec in vecs:
                if len(vec) != image_dim:
                    raise ProblemLoadError(
                        f"point vector has {len(vec)} coordinates, cone dim is {image_dim}")
            pieces.append(Piece(guard, point_vectors=vecs))
    return PieceMap(pieces, image_dim)


def load_dict(doc: dict) -> Union[Problem, PerturbedFamily]:
    _validate_schema(doc)
    cone = Cone.from_json(doc["cone"])
    label = doc["label"]
    # each window string is parsed once, on first use, and its tree reused
    # for every n; a malformed domain_n string raises at the first domain_at
    parse = cache(ex.parse)
    base_domain = _build_domain(doc["domain"], {}, parse)
    base_map = _build_map(doc["map"], cone.dim)
    base = Problem(label, base_map, cone, base_domain)

    fam_spec = doc.get("family")
    if fam_spec is None:
        return base

    dom_n_spec = fam_spec.get("domain_n", doc["domain"])
    map_n = (_build_map(fam_spec["map_n"], cone.dim)
             if "map_n" in fam_spec else base_map)

    def domains(n: int) -> Domain:
        return _build_domain(dom_n_spec, {"n": n}, parse)

    hint = fam_spec.get("recovery_hint")
    hint_exprs = tuple(ex.parse(h) for h in hint) if hint else None
    return PerturbedFamily(base, map_n, domains, int(fam_spec["n_max"]),
                           recovery_hint=hint_exprs, label=label)


def load(path) -> Union[Problem, PerturbedFamily]:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ProblemLoadError(f"not valid JSON: {e}") from e
    return load_dict(doc)


def builtin_names() -> list[str]:
    root = _data_dir("problems")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_builtin(name: str) -> Union[Problem, PerturbedFamily]:
    f = _data_dir("problems") / f"{name}.json"
    if not f.is_file():
        raise ProblemLoadError(
            f"no builtin problem {name!r}; available: {', '.join(builtin_names())}")
    return load_dict(json.loads(f.read_text()))
