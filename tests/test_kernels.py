"""Backend equivalence and brute-force oracles for the two kernels.

The compiled backend must agree with the NumPy reference bit for bit,
including tie-breaking on returned indices. The oracles run on the pure
backend, the active one, and the compiled extension as built by
``setup.py build_ext`` in a temporary copy of the repo (whenever a C
compiler and the Python headers are present), so the check never depends
on how the package under test happens to be installed.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from setorder import _kernels, solve
from setorder._kernels import LARGE, LOWER, STRICT, pure
from setorder.cone import Cone
from setorder.order import OrderCtx
from setorder.problem import Domain, Problem, TableMap
from setorder.setrep import Box, BoxUnion, _corner_data, points

REPO = Path(__file__).resolve().parents[1]
FAST_MODULE = "setorder._kernels._fast"


def missing_toolchain():
    """Why the extension cannot be compiled here, or None if it can."""
    cc = sysconfig.get_config_var("CC")
    if not cc or shutil.which(cc.split()[0]) is None:
        return f"no C compiler: {cc!r} is not on PATH"
    include = Path(sysconfig.get_paths()["include"])
    if not (include / "Python.h").is_file():
        return f"no Python.h under {include}"
    return None


def built_extension(src):
    return src / "setorder" / "_kernels" / ("_fast" + sysconfig.get_config_var("EXT_SUFFIX"))


def child_backend(src):
    """BACKEND as seen by a fresh interpreter importing setorder from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "from setorder._kernels import BACKEND; print(BACKEND)"],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


@pytest.fixture(scope="session")
def built_src(tmp_path_factory):
    """``src/`` of a repo copy after ``setup.py build_ext --inplace``.

    Building in a copy keeps a Cython run from rewriting the tracked
    ``_fast.c``, and keeps an in-tree extension from switching the backend
    of this session and of anything run from the checkout afterwards.
    """
    reason = missing_toolchain()
    if reason:
        pytest.skip(reason)
    root = tmp_path_factory.mktemp("ext-build")
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy2(REPO / name, root / name)
    shutil.copytree(REPO / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd", "*.egg-info"))
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                          cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return root / "src"


@pytest.fixture(scope="session")
def fast(built_src):
    """The built extension module, loaded without registering it in sys.modules."""
    path = built_extension(built_src)
    assert path.is_file(), f"setup.py build_ext produced no {path.name}"
    previous = sys.modules.get(FAST_MODULE)
    spec = importlib.util.spec_from_file_location(FAST_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        if previous is None:
            sys.modules.pop(FAST_MODULE, None)
        else:
            sys.modules[FAST_MODULE] = previous
    return module


@pytest.fixture
def backends(request):
    """Kernel modules under test: pure, the active backend, and the built extension."""
    impls = [pure, _kernels]
    if missing_toolchain() is None:
        impls.append(request.getfixturevalue("fast"))
    return impls


def brute_rel(ca, oa, cb, ob, mode, b_cloud, tol):
    """Direct transcription of the per-axis rule, scalar loops only."""
    nb, na, m = cb.shape[0], ca.shape[0], ca.shape[1]
    for b in range(nb):
        covered = False
        for a in range(na):
            ok = True
            for j in range(m):
                va, vb = ca[a, j], cb[b, j]
                if mode == STRICT:
                    ok = vb > va + tol if b_cloud else vb > va
                elif mode == LARGE:
                    ok = vb >= va - tol if b_cloud else vb >= va
                else:
                    if b_cloud:
                        ok = vb > va + tol if oa[a, j] else vb >= va - tol
                    else:
                        ok = vb > va or (vb == va and (not oa[a, j] or bool(ob[b, j])))
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
    s = min(per_b)
    return s, per_b.index(s)


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
    def test_matches_brute_force(self, mode, b_cloud, backends):
        rng = np.random.default_rng(mode * 2 + b_cloud)
        for i in range(400):
            ca, oa, cb, ob = random_case(rng, lattice=i % 2 == 0)
            expected = brute_rel(ca, oa, cb, ob, mode, b_cloud, 1e-9)
            for impl in backends:
                got = impl.rel_corners(ca, oa, cb, ob, mode, b_cloud, 1e-9)
                assert got == expected, impl.__name__

    def test_failing_index_is_first(self, backends):
        ca = np.array([[0.0]])
        oa = np.zeros((1, 1), dtype=np.uint8)
        cb = np.array([[1.0], [-1.0], [-2.0]])
        ob = np.zeros((3, 1), dtype=np.uint8)
        for impl in backends:
            ok, bad = impl.rel_corners(ca, oa, cb, ob, LARGE, False, 0.0)
            assert (ok, bad) == (False, 1), impl.__name__


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


class TestCovered:
    @pytest.mark.parametrize("lattice", [True, False])
    def test_blocked_matrices_match_brute_force(self, lattice, monkeypatch):
        # relation_matrices pads the values into one table and calls the
        # batched kernel per row block; 23 rows in blocks of 4 leave a
        # ragged last block
        rng = np.random.default_rng(11 + lattice)
        n, m = 23, 2
        vals = [random_value(rng, m, lattice) for _ in range(n)]
        pts = np.arange(n, dtype=float)[:, None]
        keyed = {float(p[0]): v for p, v in zip(pts, vals)}
        P = Problem("table", TableMap(lambda x: keyed[float(x[0])], m),
                    Cone.orthant(m), Domain.from_points(pts))
        ctx = OrderCtx(P.cone)
        data = [_corner_data(v, P.cone) for v in vals]
        assert {len(h) for h, _, _ in data} == {1, 2, 3}
        assert {b_cloud for _, _, b_cloud in data} == {False, True}
        k = solve.value_table(P, ctx)[0].shape[1]
        monkeypatch.setattr(solve, "_BLOCK_ELEMENTS", 4 * n * k * k * m)
        mats = solve.relation_matrices(P, ctx)
        for r, mode in enumerate((LOWER, LARGE, STRICT)):
            for i, (ca, oa, _) in enumerate(data):
                for j, (cb, ob, b_cloud) in enumerate(data):
                    want = brute_rel(ca, oa, cb, ob, mode, b_cloud, ctx.tol)[0]
                    assert mats[r][i, j] == want, (mode, i, j)


class TestShiftBound:
    def test_matches_brute_force(self, backends):
        rng = np.random.default_rng(42)
        for _ in range(400):
            ca, _, cb, _ = random_case(rng, lattice=False)
            w = rng.uniform(1.0, 3.0, size=ca.shape[1])
            expected = brute_shift(ca, cb, w)
            for impl in backends:
                assert impl.shift_bound(ca, cb, w) == expected, impl.__name__

    def test_single_pair_semantics(self, backends):
        # A={0}, B={3}: can shift A up by 3 before cl-domination breaks
        for impl in backends:
            s, b = impl.shift_bound(np.array([[0.0]]), np.array([[3.0]]), np.ones(1))
            assert (s, b) == (3.0, 0), impl.__name__

    def test_negative_bound_measures_violation(self, backends):
        for impl in backends:
            s, _ = impl.shift_bound(np.array([[2.0]]), np.array([[-1.0]]), np.ones(1))
            assert s == -3.0, impl.__name__


class TestBackendSelection:
    def test_compiled_backend_present(self, built_src):
        # the build in this repo compiles the extension; a silent fallback
        # would invalidate the benchmark claims
        path = built_extension(built_src)
        assert path.is_file(), f"setup.py build_ext produced no {path.name}"
        assert child_backend(built_src) == "fast"

    def test_built_extension_stays_private(self, fast, built_src):
        # the oracle checks load the built module; the session's own
        # backend and import table must not pick it up
        assert Path(fast.__file__) == built_extension(built_src)
        assert sys.modules.get(FAST_MODULE) is not fast
