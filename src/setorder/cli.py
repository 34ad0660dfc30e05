"""Command-line front end.

Loads problem files, runs the solvers and convergence checkers, and emits
deterministic reports: JSON with sorted keys, two-space indent, and a
trailing newline, never a timestamp. Text tables are rendered from the
JSON report, not computed separately, so the two formats cannot drift.

Exit codes: 0 when every asserted verdict holds, 1 when some checked
claim fails, 2 when the only non-holding verdicts are inconclusive,
64 for usage or input-format errors.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .cone import DEFAULT_TOL, Cone, json_numbers
from .converge import (
    DEFAULT_HORIZON,
    SeqGenBattery,
    gamma_check,
    gamma_seq_check,
    kuratowski_pair,
    levelset_convergence_experiment,
    on_base_domain,
    stability_experiment,
)
from .errors import (
    InternalCheckError,
    ProblemLoadError,
    SetOrderError,
    SetSpecError,
)
from .order import OrderCtx, equiv, large_le, lower_le, strict_lt
from .problem import PerturbedFamily, Problem, builtin_names, load, load_builtin
from .setrep import SetRep, box, points
from .solve import KINDS, eff, l_set
from .verdict import _jsonify

EX_USAGE = 64

_GOLDEN_DIR = Path(__file__).parent / "data" / "goldens"
_REPRO_IDS = ("geff-example", "gamma-cos", "sop-sin-stability")


class _Parser(argparse.ArgumentParser):
    """argparse with the scriptable usage-error exit code."""

    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _bounded(kind, ok, want: str):
    """argparse type: parse with ``kind``, reject values failing ``ok``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
        return value
    return parse


_tol = _bounded(float, lambda v: math.isfinite(v) and v > 0,
                "a finite number > 0")
_seed = _bounded(int, lambda v: v >= 0, "an integer >= 0")
# the tail is the upper half of the horizon; see converge.upper_half
_horizon = _bounded(int, lambda v: v >= 8, "an integer >= 8")


def _build_parser() -> _Parser:
    p = _Parser(prog="setorder",
                description="set-order solvers and convergence checkers")
    p.add_argument("--version", action="version",
                   version=f"setorder {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--tol", type=_tol, default=DEFAULT_TOL,
                        help="order tolerance, finite and > 0 "
                             "(default %(default)g)")
        sp.add_argument("--horizon", type=_horizon, default=DEFAULT_HORIZON,
                        help="sequence horizon N >= 8 (default %(default)s)")
        sp.add_argument("--seed", type=_seed, default=0,
                        help="battery seed >= 0 (default %(default)s)")
        sp.add_argument("--format", choices=("json", "table", "both"),
                        default="json")
        sp.add_argument("--out", type=Path, default=None,
                        help="also write the JSON report to this path")

    sp = sub.add_parser("compare", help="evaluate the four set relations")
    sp.add_argument("input", type=Path,
                    help="JSON file with fields cone, a, b")
    common(sp)

    sp = sub.add_parser("solve", help="minimal index sets of a problem")
    sp.add_argument("problem")
    sp.add_argument("--kind", default="all",
                    choices=KINDS + ("all",))
    common(sp)

    sp = sub.add_parser("levelset", help="lower level set at a target value")
    sp.add_argument("problem")
    sp.add_argument("--y", required=True,
                    help="target value, comma-separated floats")
    common(sp)

    sp = sub.add_parser("gamma", help="variational convergence at a point")
    sp.add_argument("family")
    sp.add_argument("--at", required=True,
                    help="grid index or comma-separated coordinates")
    common(sp)

    sp = sub.add_parser("pk", help="set-limit check of the domain sequence")
    sp.add_argument("family")
    common(sp)

    sp = sub.add_parser("stability", help="solution-set stability experiment")
    sp.add_argument("family")
    sp.add_argument("--kind", required=True, choices=("Geoffroy", "Relaxed"))
    sp.add_argument("--direction", required=True,
                    choices=("external", "internal"))
    common(sp)

    sp = sub.add_parser("levelset-conv",
                        help="level-set convergence experiment at a point")
    sp.add_argument("family")
    sp.add_argument("--at", required=True,
                    help="grid index or comma-separated coordinates")
    common(sp)

    sp = sub.add_parser("repro",
                        help="regenerate a worked example and diff goldens")
    sp.add_argument("id", choices=_REPRO_IDS + ("list",))
    sp.add_argument("--update", action="store_true",
                    help="rewrite the golden file instead of diffing")
    common(sp)
    return p


# ------------------------------------------------------------- input plumbing

def _load_problem(ref: str):
    path = Path(ref)
    if path.exists():
        return load(path)
    if ref in builtin_names():
        return load_builtin(ref)
    raise ProblemLoadError(f"no such file or builtin problem: {ref!r}")


def _need_family(obj) -> PerturbedFamily:
    if isinstance(obj, PerturbedFamily):
        return obj
    raise ProblemLoadError(
        f"problem {obj.label!r} has no family block; this command needs a "
        "perturbed family")


def _base_of(obj) -> Problem:
    return obj.base if isinstance(obj, PerturbedFamily) else obj


def _parse_point(text: str, base: Problem) -> np.ndarray:
    """Either a grid index or explicit coordinates."""
    try:
        idx = int(text)
    except ValueError:
        try:
            x = np.array([float(c) for c in text.split(",")], dtype=float)
        except ValueError:
            raise ProblemLoadError(f"cannot parse point {text!r}") from None
        if len(x) != base.domain.dim:
            raise ProblemLoadError(
                f"point {text!r} has {len(x)} coordinates; the problem "
                f"domain has dimension {base.domain.dim}")
        if not np.all(np.isfinite(x)):
            raise ProblemLoadError(f"point {text!r} has a non-finite coordinate")
        return x
    if not 0 <= idx < len(base.domain.points):
        raise ProblemLoadError(
            f"grid index {idx} outside [0, {len(base.domain.points) - 1}]")
    return base.domain.points[idx]


def _setrep_from_spec(spec: dict) -> SetRep:
    """A set from its JSON literal: coordinates and endpoints are JSON
    numbers (an upper end may be "inf"), open flags JSON booleans."""
    if not isinstance(spec, dict):
        raise SetSpecError("set literal must be an object")
    try:
        if "points" in spec:
            if not json_numbers(spec["points"]):
                raise ValueError("point coordinates must be JSON numbers")
            return points(spec["points"])
        if "box" in spec:
            axes = spec["box"]
            for a in axes:
                if not json_numbers(a["lo"]) or not (json_numbers(a["hi"])
                                                     or a["hi"] == "inf"):
                    raise ValueError("box ends must be JSON numbers or an upper 'inf'")
                if not all(isinstance(a.get(f, False), bool)
                           for f in ("lo_open", "hi_open")):
                    raise ValueError("box open flags must be JSON booleans")
            return box([a["lo"] for a in axes], [a["hi"] for a in axes],
                       lo_open=[a.get("lo_open", False) for a in axes],
                       hi_open=[a.get("hi_open", False) for a in axes])
    except (KeyError, TypeError, ValueError) as err:
        raise SetSpecError(f"malformed set literal {spec!r}: {err!r}") from None
    raise SetSpecError("set literal needs a 'box' or 'points' field")


# ------------------------------------------------------------ report assembly

def _threads() -> Optional[int]:
    raw = os.environ.get("SETORDER_THREADS")
    if raw is None:
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        return None


def _problem_block(obj) -> dict:
    base = _base_of(obj)
    return {
        "label": base.label,
        "dim": base.cone.dim,
        "points": len(base.domain.points),
        "grid_step": base.domain.step_summary(),
        "family": isinstance(obj, PerturbedFamily),
    }


def _envelope(command: str, args, result: dict,
              problem: Optional[dict] = None) -> dict:
    # args None pins the configuration; the thread cap is environment-
    # dependent, so pinned (golden) reports must not embed it
    config = ({"tol": DEFAULT_TOL, "horizon": DEFAULT_HORIZON, "seed": 0}
              if args is None else
              {"tol": args.tol, "horizon": args.horizon, "seed": args.seed,
               "threads": _threads()})
    out = {
        "tool": {"name": "setorder", "version": __version__},
        "command": command,
        "config": config,
        "result": result,
    }
    if problem is not None:
        out["problem"] = problem
    return out


def _dump(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


_SKIP_KEYS = {"certificate", "counterexample", "meta", "config", "tool"}


def _collect_statuses(node, out: list) -> None:
    if isinstance(node, dict):
        s = node.get("status")
        if s in ("Holds", "Fails", "Inconclusive"):
            out.append(s)
        for k, v in node.items():
            if k not in _SKIP_KEYS:
                _collect_statuses(v, out)
    elif isinstance(node, (list, tuple)):
        for v in node:
            _collect_statuses(v, out)


def exit_code_for(report: dict) -> int:
    """0 all asserted verdicts hold, 1 some claim fails, 2 inconclusive-only.

    Verdicts nested under certificates, counterexamples, or meta blocks
    were never asserted and do not count.
    """
    statuses: list = []
    _collect_statuses(report.get("result"), statuses)
    if "Fails" in statuses:
        return 1
    if statuses and "Inconclusive" in statuses:
        return 2
    return 0


def _render_lines(node, path: str, lines: list) -> None:
    if isinstance(node, dict):
        for k in sorted(node):
            _render_lines(node[k], f"{path}.{k}" if path else str(k), lines)
    elif isinstance(node, (list, tuple)):
        text = json.dumps(node)
        if len(text) > 72:
            text = text[:69] + "..."
        lines.append((path, text))
    else:
        lines.append((path, json.dumps(node)))


def render_table(report: dict) -> str:
    """Flat key/value view of the JSON report."""
    lines: list = []
    _render_lines(report, "", lines)
    width = max(len(k) for k, _ in lines)
    body = "\n".join(f"{k.ljust(width)}  {v}" for k, v in lines)
    head = (f"setorder {report['tool']['version']} "
            f"[{report['command']}]")
    return f"{head}\n{body}\n"


def _emit(report: dict, args) -> int:
    blob = _dump(report)
    if args.out is not None:
        args.out.write_text(blob)
    if args.format in ("table", "both"):
        sys.stdout.write(render_table(report))
    if args.format in ("json", "both"):
        sys.stdout.write(blob)
    return exit_code_for(report)


# ----------------------------------------------------------------- commands

def _cmd_compare(args) -> int:
    doc = json.loads(args.input.read_text())
    if not isinstance(doc, dict):
        raise SetSpecError(f"compare input must be a JSON object, got {doc!r}")
    for field in ("cone", "a", "b"):
        if field not in doc:
            raise SetSpecError(f"compare input needs field {field!r}")
    cone = Cone.from_json(doc["cone"])
    a = _setrep_from_spec(doc["a"])
    b = _setrep_from_spec(doc["b"])
    ctx = OrderCtx(cone, tol=args.tol)
    result = {
        "lower_le": bool(lower_le(a, b, ctx)),
        "large_le": bool(large_le(a, b, ctx)),
        "strict_lt": bool(strict_lt(a, b, ctx)),
        "equiv": bool(equiv(a, b, ctx)),
    }
    return _emit(_envelope("compare", args, result), args)


def _solve_result(P: Problem, kinds, ctx: OrderCtx) -> dict:
    return {kind: eff(P, kind, ctx).to_json(P) for kind in kinds}


def _cmd_solve(args) -> int:
    obj = _load_problem(args.problem)
    P = _base_of(obj)
    ctx = OrderCtx(P.cone, tol=args.tol)
    kinds = KINDS if args.kind == "all" else (args.kind,)
    result = _solve_result(P, kinds, ctx)
    return _emit(_envelope("solve", args, result, _problem_block(obj)), args)


def _cmd_levelset(args) -> int:
    obj = _load_problem(args.problem)
    P = _base_of(obj)
    ctx = OrderCtx(P.cone, tol=args.tol)
    try:
        y = [float(c) for c in args.y.split(",")]
    except ValueError:
        raise ProblemLoadError(f"cannot parse --y {args.y!r}") from None
    res = l_set(P, y, ctx)
    result = _jsonify({"y": y, "indices": res.indices,
                       "points": P.domain.points[list(res.indices)],
                       "closedness": res.closedness})
    return _emit(_envelope("levelset", args, result, _problem_block(obj)),
                 args)


def _cmd_gamma(args) -> int:
    fam = _need_family(_load_problem(args.family))
    ctx = OrderCtx(fam.base.cone, tol=args.tol)
    battery = SeqGenBattery(seed=args.seed)
    xbar = _parse_point(args.at, fam.base)
    if on_base_domain(fam, args.horizon):
        rep = gamma_check(fam, xbar, battery, ctx, horizon=args.horizon)
        route = "fixed-domain"
    else:
        rep = gamma_seq_check(fam, xbar, battery, ctx, horizon=args.horizon)
        route = "moving-domain"
    result = {"route": route, "gamma": rep.to_json()}
    return _emit(_envelope("gamma", args, result, _problem_block(fam)), args)


def _cmd_pk(args) -> int:
    fam = _need_family(_load_problem(args.family))
    v = kuratowski_pair(fam.domain_at, fam.base.domain, args.horizon,
                        tol=args.tol)
    result = {"domains": v.to_json(), "horizon": args.horizon}
    return _emit(_envelope("pk", args, result, _problem_block(fam)), args)


def _cmd_stability(args) -> int:
    fam = _need_family(_load_problem(args.family))
    ctx = OrderCtx(fam.base.cone, tol=args.tol)
    battery = SeqGenBattery(seed=args.seed)
    rep = stability_experiment(fam, args.kind, args.direction, ctx,
                               battery=battery, horizon=args.horizon)
    return _emit(_envelope("stability", args, rep.to_json(),
                           _problem_block(fam)), args)


def _cmd_levelset_conv(args) -> int:
    fam = _need_family(_load_problem(args.family))
    ctx = OrderCtx(fam.base.cone, tol=args.tol)
    battery = SeqGenBattery(seed=args.seed)
    xbar = _parse_point(args.at, fam.base)
    omega = fam.base.map.value(tuple(xbar), fam.base.n)

    def omega_n(n: int) -> SetRep:
        return fam.map.value(tuple(xbar), n)

    rep = levelset_convergence_experiment(fam, omega_n, omega, ctx,
                                          battery=battery,
                                          horizon=args.horizon)
    result = _jsonify({"at": xbar, "experiment": rep.to_json()})
    return _emit(_envelope("levelset-conv", args, result,
                           _problem_block(fam)), args)


# -------------------------------------------------------------------- repro

def _repro_report(example_id: str) -> dict:
    """Regenerate one worked example under fully pinned configuration."""
    battery = SeqGenBattery(seed=0)
    if example_id == "geff-example":
        P = _base_of(load_builtin("geff_vs_reff"))
        ctx = OrderCtx(P.cone)
        result = {"solve": _solve_result(P, KINDS, ctx)}
        problem = _problem_block(P)
    elif example_id == "gamma-cos":
        fam = load_builtin("gamma_cos")
        ctx = OrderCtx(fam.base.cone)
        rep = gamma_check(fam, np.zeros(1), battery, ctx)
        result = {"route": "fixed-domain", "gamma": rep.to_json()}
        problem = _problem_block(fam)
    else:   # "sop-sin-stability": the parser's choices admit no other id
        fam = load_builtin("sop_sin")
        ctx = OrderCtx(fam.base.cone)
        result = {
            "domains": kuratowski_pair(fam.domain_at, fam.base.domain,
                                       DEFAULT_HORIZON).to_json(),
            "external": stability_experiment(fam, "Relaxed", "external",
                                             ctx, battery=battery).to_json(),
            "internal": stability_experiment(fam, "Relaxed", "internal",
                                             ctx, battery=battery).to_json(),
        }
        problem = _problem_block(fam)

    return _envelope("repro", None, {"example": example_id, **result}, problem)


def _cmd_repro(args) -> int:
    if args.id == "list":
        sys.stdout.write("\n".join(_REPRO_IDS) + "\n")
        return 0
    report = _repro_report(args.id)
    blob = _dump(report)
    golden = _GOLDEN_DIR / f"{args.id}.json"
    if args.out is not None:
        args.out.write_text(blob)
    if args.update:
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_text(blob)
        sys.stdout.write(f"golden updated: {golden}\n")
        return 0
    if not golden.exists():
        sys.stderr.write(f"missing golden file {golden}; run with --update\n")
        return 1
    want = golden.read_text()
    if blob == want:
        sys.stdout.write(f"{args.id}: OK (byte-identical, "
                         f"{len(blob)} bytes)\n")
        return 0
    diff = difflib.unified_diff(want.splitlines(True), blob.splitlines(True),
                                fromfile=str(golden), tofile="regenerated")
    sys.stderr.writelines(list(diff)[:60])
    sys.stderr.write(f"{args.id}: MISMATCH\n")
    return 1


_DISPATCH = {
    "compare": _cmd_compare,
    "solve": _cmd_solve,
    "levelset": _cmd_levelset,
    "gamma": _cmd_gamma,
    "pk": _cmd_pk,
    "stability": _cmd_stability,
    "levelset-conv": _cmd_levelset_conv,
    "repro": _cmd_repro,
}


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except InternalCheckError:
        raise                      # a bug, never a usage problem
    except SetOrderError as err:
        sys.stderr.write(f"setorder: {err}\n")
        return EX_USAGE
    except FileNotFoundError as err:
        sys.stderr.write(f"setorder: {err}\n")
        return EX_USAGE
    except json.JSONDecodeError as err:
        sys.stderr.write(f"setorder: invalid JSON: {err}\n")
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
