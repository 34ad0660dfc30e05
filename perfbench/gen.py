"""Seeded input generation for the benchmark workloads.

Everything here is plain NumPy and never imports setorder, so the program
under test receives only the finished problem dicts and arrays. The same
seed always yields the same inputs.

The amount of work per pass is fixed by the layout constants below, not by
the seed: the seed chooses coefficients, rows and set contents, while grid
sizes, cloud sizes, cone shapes and instance counts stay the same. That
keeps a run's timing a property of the code rather than of the seed.
"""

from __future__ import annotations

import zlib

import numpy as np

# solve-grid: (cone class, grid side) per problem; grid side k gives k*k points
SOLVE_GRID_SLOTS = (("general", 10), ("orthant", 10), ("general", 12), ("orthant", 12))
SOLVE_GRID_DIM = 3
GRID_STEP = 0.125        # dyadic, so every window holds exactly k points

# order-laws: instances per (d, rows) combination of a general cone, and
# per dimension of an orthant. An orthant instance takes under 1 ms, so
# there are many of them: the side-job mean then averages over enough
# random box counts (1-3 per set) that it hardly depends on the seed.
ORDER_LAW_DIMS = (2, 3, 4)
GENERAL_REPEATS = 2
ORTHANT_REPEATS = 30
LATTICE_STEP = 0.5       # half-integer data keeps every comparison exact


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _num(v: float) -> str:
    return f"{v:.3f}"


def solid_rows(rng: np.random.Generator, d: int, m: int) -> list[list[float]]:
    """m rows that each have a positive dot product with the all-ones vector.

    Each row is the unit all-ones direction plus a perturbation of norm 1/2,
    so ones . row >= sqrt(d)/2 > 0 and the all-ones vector is an interior
    direction: the cone is solid by construction. Rows are rounded to four
    decimals, which moves the dot product by far less than that margin.
    """
    center = np.ones(d) / np.sqrt(d)
    noise = rng.standard_normal((m, d))
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    rows = np.round(center + 0.5 * noise, 4)
    if not (rows @ np.ones(d) > 0).all():
        raise RuntimeError("generated cone rows lost their interior direction")
    return rows.tolist()


def _coord_expr(rng: np.random.Generator) -> str:
    a, b, c, p, q, r, s, o = rng.uniform(-1.0, 1.0, size=8)
    return (f"{_num(a)}*sin({_num(2 * b)}*x1 + {_num(2 * c)}*x2)"
            f" + {_num(p)}*cos({_num(3 * q)}*x2)"
            f" + {_num(r)}*x1^2 + {_num(s)}*x1*x2 + {_num(o)}")


def _cloud_piece(rng: np.random.Generator, guard: str, k: int) -> dict:
    return {"guard": guard,
            "points": [[_coord_expr(rng) for _ in range(SOLVE_GRID_DIM)]
                       for _ in range(k)]}


def solve_grid_problem(rng: np.random.Generator, slot: int, cone_class: str,
                       side: int) -> dict:
    """One problem dict: a side x side 2-D grid, clouds of 2 or 3 points in R^3.

    The first piece holds under a linear guard that splits the grid, the
    second covers the rest, so guard evaluation and both pieces are used.
    """
    half = (side - 1) * GRID_STEP / 2
    window = {"a": -half, "b": half, "step": GRID_STEP}
    if cone_class == "general":
        cone = {"kind": "halfspaces",
                "rows": solid_rows(rng, SOLVE_GRID_DIM, 4 + slot // 2)}
    else:
        cone = {"kind": "orthant", "dim": SOLVE_GRID_DIM}
    w, t = rng.uniform(-1.0, 1.0), rng.uniform(-0.2, 0.2)
    return {
        "label": f"solve-grid-{slot}",
        "cone": cone,
        "domain": {"windows": [window, dict(window)]},
        "map": {"pieces": [
            _cloud_piece(rng, f"x1 + {_num(w)}*x2 < {_num(t)}", 2),
            _cloud_piece(rng, "true", 3),
        ]},
    }


def solve_grid_inputs(seed: int) -> list[dict]:
    rng = _rng(seed, "solve-grid")
    return [solve_grid_problem(rng, i, cls, side)
            for i, (cls, side) in enumerate(SOLVE_GRID_SLOTS)]


def _lattice(rng: np.random.Generator, size) -> np.ndarray:
    return rng.integers(-8, 9, size=size) * LATTICE_STEP


def _cloud(rng: np.random.Generator, d: int) -> dict:
    return {"points": _lattice(rng, (int(rng.integers(1, 7)), d))}


def _box_union(rng: np.random.Generator, d: int) -> dict:
    """1 to 3 lattice boxes with open/closed flags; some axes unbounded above."""
    boxes = []
    for _ in range(int(rng.integers(1, 4))):
        lo = _lattice(rng, d)
        width = rng.integers(0, 7, size=d) * LATTICE_STEP
        unbounded = (rng.random(d) < 0.5) & (width > 0)
        hi = np.where(unbounded, np.inf, lo + width)
        flagged = width > 0
        lo_open = flagged & (rng.random(d) < 0.5)
        hi_open = unbounded | (flagged & (rng.random(d) < 0.5))
        boxes.append({"lo": lo, "hi": hi, "lo_open": lo_open, "hi_open": hi_open})
    return {"boxes": boxes}


def order_law_inputs(seed: int) -> list[dict]:
    """Instances of one cone and three small sets each.

    General cones hold point clouds (box sets are exact only under the
    orthant); orthant instances hold box unions with open/closed flags.
    """
    rng = _rng(seed, "order-laws")
    out = []
    for d in ORDER_LAW_DIMS:
        for m in (d, d + 1, d + 2):
            for _ in range(GENERAL_REPEATS):
                out.append({"class": "general", "dim": d,
                            "rows": solid_rows(rng, d, m),
                            "sets": [_cloud(rng, d) for _ in range(3)]})
        for _ in range(ORTHANT_REPEATS):
            out.append({"class": "orthant", "dim": d,
                        "rows": np.eye(d).tolist(),
                        "sets": [_box_union(rng, d) for _ in range(3)]})
    return out
