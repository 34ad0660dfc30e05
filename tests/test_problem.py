"""Problem layer: grids, guarded pieces, families, load-time validation,
tail tables."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from setorder import problem
from setorder.cone import Cone
from setorder.errors import (DimensionMismatch, DomainError, ExprSyntaxError,
                             HorizonExceeded, ProblemLoadError, SetSpecError,
                             Unsupported)
from setorder.expr import parse
from setorder.order import CornerTable, OrderCtx, corner_table, table_from_corners
from setorder.problem import (MAX_GRID_POINTS, Domain, PerturbedFamily, Problem,
                              TableMap, Window, builtin_names, family_at,
                              load_builtin, load_dict, tail_table)
from setorder.setrep import PointCloud, _corner_data, box, points, translate
from setorder.solve import relation_matrices, strong_level_set, value_table


def spec(label="t", cone=None, domain=None, pieces=None, family=None):
    doc = {
        "label": label,
        "cone": cone or {"kind": "orthant", "dim": 1},
        "domain": domain or {"windows": [{"a": 0, "b": 3, "step": 1}]},
        "map": {"pieces": pieces or [{"guard": "true", "box": [{"lo": 0, "hi": 1}]}]},
    }
    if family:
        doc["family"] = family
    return doc


SCHEMA_AS_WRITTEN = json.loads(
    (problem._data_dir("schema") / "problem.schema.json").read_text())
SHIPPED_DOCS = [json.loads((problem._data_dir("problems") / f"{name}.json").read_text())
                for name in builtin_names()]


def schema_message(doc):
    """load_dict's message for the error jsonschema.validate raises on the
    schema as written, or None when it raises none."""
    import jsonschema
    try:
        jsonschema.validate(doc, SCHEMA_AS_WRITTEN)
    except jsonschema.ValidationError as e:
        path = "/".join(str(p) for p in e.absolute_path)
        return f"schema: {e.message} (at {path or 'root'})"
    return None


# each draw a fresh copy: a later mutation may write into it
_JSON_VALUES = st.sampled_from([None, True, False, 0, -1, 3, 0.5, "", "x1", "n",
                                "orthant", [], {}, [1], [[0]], [["x1"]], {"a": 1}]
                               ).map(lambda v: json.loads(json.dumps(v)))


def _slots(node):
    """(container, key) of every value in a JSON document, root first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield node, key
        yield from _slots(value)


@st.composite
def mutated(draw, doc):
    """doc with one or two values replaced, deleted or added beside."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 2))):
        slots = list(_slots(doc))
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            node[key] = draw(_JSON_VALUES)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(["extra", "guard", "box", "points", "family"]))] = \
                draw(_JSON_VALUES)
        else:
            node.append(draw(_JSON_VALUES))
    return doc


@st.composite
def cloud_documents(draw):
    """A valid document whose map has several point-cloud pieces."""
    d = draw(st.integers(1, 3))
    coord = st.one_of(st.integers(-3, 3), st.sampled_from(["x1", "x1^2", "-x1 + 1",
                                                           "sin(x1)"]))
    pieces = [{"guard": draw(st.sampled_from(["x1 < 0", "x1 >= 0.5", "true"])),
               "points": [[draw(coord) for _ in range(d)]
                          for _ in range(draw(st.integers(1, 3)))]}
              for _ in range(draw(st.integers(1, 3)))]
    pieces[-1]["guard"] = "true"
    cone = draw(st.sampled_from([{"kind": "orthant", "dim": d},
                                 {"kind": "halfspaces", "rows": [[1.0] * d]}]))
    return {"label": "clouds", "cone": cone,
            "domain": {"windows": [{"a": -1, "b": 1, "step": 0.5}]},
            "map": {"pieces": pieces}}


@st.composite
def window_ends(draw):
    """(a, b, step, hi_open) of a window: equal ends, spans of a few ulps,
    short grids, and counts near 2^53, under steps down to 1e-300."""
    a = draw(st.one_of(st.floats(-1e3, 1e3),
                       st.sampled_from([0.0, 1.0, -1e16, 1e16, 2.0 ** 60])))
    step = draw(st.one_of(st.sampled_from([1e-9, 1e-300, 1.0, 0.1, math.pi / 400]),
                          st.floats(1e-12, 10.0)))
    span = draw(st.sampled_from(["equal", "ulps", "count", "near 2^53"]))
    b = a
    if span == "ulps":
        for _ in range(draw(st.integers(1, 4))):
            b = math.nextafter(b, math.inf)
    elif span == "count":
        b = a + draw(st.integers(0, 10 ** 4)) * step
    elif span == "near 2^53":
        b = a + (2 ** 53 + draw(st.integers(-4, 4))) * step
    return a, b, step, draw(st.booleans())


class TestWindowGrid:
    def test_inclusive_count(self):
        assert Window(0, 3, 1).points().tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_hi_open_drops_endpoint(self):
        assert Window(0, 3, 1, hi_open=True).points().tolist() == [0.0, 1.0, 2.0]

    def test_grid_rule_is_single_product(self):
        # points are a + j*step (one rounding each), never accumulated sums
        w = Window(-0.95, 4.0, 0.1)
        pts = w.points()
        assert len(pts) == 50
        assert pts[9] == -0.95 + 9 * 0.1
        assert all(p == -0.95 + j * 0.1 for j, p in enumerate(pts))

    def test_count_without_points(self):
        for w in (Window(0, 3, 1), Window(0, 3, 1, hi_open=True), Window(0, 0, 1),
                  Window(0, 0.5, 1), Window(-0.95, 4.0, 0.1), Window(0, 1, 1e-3)):
            assert len(w) == len(w.points())
        assert len(Window(0, 0, 1, hi_open=True)) == 0
        assert len(Window(0, math.pi / 4, 1e-9)) == 785398164

    @given(window_ends())
    @settings(max_examples=300, deadline=None)
    @example((0.0, 2.0 ** 53, 1.0, False))
    @example((0.0, 2.0 ** 53 - 1.0, 1.0, True))
    @example((0.0, 2.0 ** 53 * 1e-9, 1e-9, False))
    @example((1e16, 1e16 + 4.0, 1e-9, False))          # count far above the quotient
    @example((-1e308, 1e308, 1e300, False))            # b - a overflows
    @example((1.0, math.nextafter(1.0, 2.0), 1e-9, True))
    @example((0.5, 0.5, 1e-300, True))
    def test_count_matches_the_bisection(self, ends):
        # the quotient-started count against the former doubling search,
        # which refused only past 2^54 points
        w = Window(*ends[:3], hi_open=ends[3])
        try:
            want = reference.window_count(w)
        except ProblemLoadError:
            want = math.inf
        if want <= 2 ** 53:
            assert len(w) == want
        else:
            with pytest.raises(ProblemLoadError, match=r"has over 2\^53 points"):
                len(w)

    @pytest.mark.parametrize("a, b, step", [
        (0.0, 1.0, 1e-300), (0.0, 2.0 ** 53, 1.0), (-1e308, 1e308, 1.0),
        (1.0, 1.0, 1e-300), (1.0, math.nextafter(1.0, 2.0), 1e-300)])
    def test_over_2_53_points_is_refused(self, a, b, step):
        # (1, 1, 1e-300) has quotient 0, but 1 + j*1e-300 stays 1 for
        # j up to about 1e284
        with pytest.raises(ProblemLoadError, match=r"has over 2\^53 points"):
            len(Window(a, b, step))
        with pytest.raises(ProblemLoadError, match=r"has over 2\^53 points"):
            Domain.from_windows([Window(a, b, step)])

    def test_from_windows_counts_each_window_once(self, monkeypatch):
        # the points reuse the count the budget check took
        windows = [Window(0.0, 1.0, 0.1), Window(-0.95, 4.0, 0.1, hi_open=True),
                   Window(1.0, 1.0, 0.5)]
        real, asked = Window._holds, []

        def holds(self, j):
            asked.append(self)
            return real(self, j)

        monkeypatch.setattr(Window, "_holds", holds)
        once = []
        for w in windows:
            asked.clear()
            len(Window(w.a, w.b, w.step, hi_open=w.hi_open))
            once.append(len(asked))
        asked.clear()
        d = Domain.from_windows(windows)
        assert [sum(a is w for a in asked) for w in windows] == once
        assert len(d) == 11 * 50 * 1

    def test_grid_budget_is_inclusive(self):
        side = Window(0, 127, 1)
        assert len(Domain.from_windows([side, side])) == MAX_GRID_POINTS
        with pytest.raises(ProblemLoadError, match="exceeds the budget"):
            Domain.from_windows([side, Window(0, 128, 1)])

    def test_point_domain_budget_is_inclusive(self):
        pts = np.arange(MAX_GRID_POINTS + 1, dtype=float).reshape(-1, 1)
        assert len(Domain.from_points(pts[:-1])) == MAX_GRID_POINTS
        with pytest.raises(ProblemLoadError, match="exceeds the budget"):
            Domain.from_points(pts)

    def test_bad_windows(self):
        with pytest.raises(ProblemLoadError):
            Window(0, -1, 0.5)
        with pytest.raises(ProblemLoadError):
            Window(0, 1, 0)
        with pytest.raises(ProblemLoadError):
            Window(0, math.inf, 1)

    def test_product_domain(self):
        d = Domain.from_windows([Window(0, 1, 1), Window(0, 2, 1)])
        assert d.dim == 2 and len(d) == 6
        assert d.index_of([1.0, 2.0]) == 5
        assert d.index_of([0.5, 0.5]) is None
        assert d.nearest_index([0.9, 1.9]) == 5

    def test_index_of_explicit_points_with_a_duplicate(self):
        # the exact-match table is built on the first lookup; a repeated
        # point answers with its last index
        d = Domain.from_points([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0], [-0.0, 5.0]])
        assert d.index_of([0.0, 1.0]) == 2
        assert d.index_of(np.array([2.0, 3.0])) == 1
        assert d.index_of([0.0, 5.0]) == 3          # -0.0 == 0.0
        assert d.index_of([2.0, 3.5]) is None
        assert d.index_of((2, 3)) == 1

    def test_truncation_flag(self):
        d = Domain.from_windows([Window(0, 1, 1, truncated=True)])
        assert d.truncated
        assert not Domain.from_points([[0.0]]).truncated


class TestBuiltinProblems:
    def test_names(self):
        assert builtin_names() == ["gamma_cos", "geff_vs_reff", "sop_sin"]

    def test_geff_loads_with_three_pieces(self):
        P = load_builtin("geff_vs_reff")
        assert isinstance(P, Problem)
        assert len(P.map.pieces) == 3
        g = P.domain.points[:, 0]
        assert len(g) == 50
        assert int((g < 0).sum()) == 10
        assert int((g > 2).sum()) == 20
        assert P.domain.truncated

    def test_geff_piece_values(self):
        P = load_builtin("geff_vs_reff")
        v9 = P.value(9)     # x just below 0
        assert v9.boxes[0].lo == (0.0, 0.0)
        assert v9.boxes[0].lo_open == (True, True)
        assert v9.boxes[0].hi_open == (True, False)
        x10 = P.domain.points[10, 0]   # first middle point
        v10 = P.value(10)
        assert v10.boxes[0].lo == (0.0, x10)
        assert v10.boxes[0].hi == (1.0, x10 + 1.0)
        v30 = P.value(30)   # x just above 2
        assert v30.boxes[0].lo == (-1.0, 2.0)
        assert v30.boxes[0].hi == (5.0, 3.0)
        assert v30.boxes[0].lo_open == (False, False)

    def test_sop_base_grid_and_value(self):
        fam = load_builtin("sop_sin")
        assert isinstance(fam, PerturbedFamily)
        B = fam.base
        assert len(B) == 100
        assert B.domain.points[0, 0] == 0.0
        # 100 * (pi/400) lands one ulp above pi/4, so pi/4 is off-grid
        assert B.domain.points[-1, 0] < math.pi / 4
        v = B.value(0)
        assert v.boxes[0].lo == (0.0,) and v.boxes[0].hi == (3.0,)
        assert v.boxes[0].lo_open == (False,) and v.boxes[0].hi_open == (True,)

    def test_sop_family_at_zero(self):
        fam = load_builtin("sop_sin")
        P0 = family_at(fam, 0)
        assert P0.n == 0
        # D_0 = [0, pi/4 + pi) half-open
        assert P0.domain.points[-1, 0] < math.pi / 4 + math.pi
        assert P0.value(0).boxes[0].hi == (4.0,)   # 3 + exp(0)

    def test_sop_exp_saturation_caps_upper_end(self):
        fam = load_builtin("sop_sin")
        v = family_at(fam, 128).value(0)
        assert v.boxes[0].hi == (math.inf,)
        assert v.boxes[0].hi_open == (True,)

    def test_sop_recovery_hint(self):
        fam = load_builtin("sop_sin")
        assert fam.recovery_point([0.5], 3) == pytest.approx([0.4])
        x = fam.base.domain.points[37, 0]
        xn = fam.recovery_point([x], 7)[0]
        # the hint is exact: sin(x_n * (1 + 1/(n+1))) == sin(x)
        assert math.sin(xn * (1 + 1 / 8)) == pytest.approx(math.sin(x), abs=1e-15)

    def test_no_recovery_hint_gives_no_point(self):
        fam = reference.with_parts(load_builtin("sop_sin"), recovery_hint=None)
        assert fam.recovery_point([0.5], 3) is None

    def test_cos_family(self):
        fam = load_builtin("gamma_cos")
        B = fam.base
        assert len(B) == 41
        assert B.domain.points[20, 0] == 0.0    # dyadic grid holds 0 exactly
        P1 = family_at(fam, 1)
        v = P1.value(20)
        assert isinstance(v, PointCloud)
        assert v.points[0, 0] == math.cos(0.5)
        # domain is shared across n
        assert np.array_equal(P1.domain.points, B.domain.points)

    def test_horizon_errors(self):
        fam = load_builtin("gamma_cos")
        with pytest.raises(HorizonExceeded):
            family_at(fam, fam.n_max + 1)
        with pytest.raises(HorizonExceeded):
            family_at(fam, -1)

    def test_family_at_memoized(self):
        fam = load_builtin("gamma_cos")
        assert family_at(fam, 3) is family_at(fam, 3)

    @pytest.mark.parametrize("name", ["geff_vs_reff", "sop_sin", "gamma_cos"])
    def test_domains_parse_each_window_string_once(self, name, monkeypatch):
        doc = json.loads((problem._data_dir("problems") / f"{name}.json").read_text())
        specs = [doc["domain"]]
        if "family" in doc:
            specs.append(doc["family"].get("domain_n", doc["domain"]))
        strings = {v for spec in specs for w in spec["windows"]
                   for v in (w["a"], w["b"], w["step"]) if isinstance(v, str)}
        real, parsed = problem.ex.parse, []

        def counted(src):
            parsed.append(src)
            return real(src)

        monkeypatch.setattr(problem.ex, "parse", counted)
        P = load_dict(doc)
        # the domains a load without the parse memo builds
        if isinstance(P, PerturbedFamily):
            got = [P.base.domain] + [P.domain_at(n) for n in range(P.n_max + 1)]
            want = [problem._build_domain(specs[0], {}, real)] + [
                problem._build_domain(specs[1], {"n": n}, real)
                for n in range(P.n_max + 1)]
        else:
            got, want = [P.domain], [problem._build_domain(specs[0], {}, real)]
        for a, b in zip(got, want, strict=True):
            assert a.points.tobytes() == b.points.tobytes()
            assert a.windows == b.windows
        assert sorted(s for s in parsed if s in strings) == sorted(strings)

    def test_values_memoized_and_proper(self):
        P = load_builtin("geff_vs_reff")
        for i in range(len(P)):
            assert reference.is_c_proper(P.value(i), P.cone).is_holds


class TestLoadValidation:
    def test_guard_gap_names_point(self):
        doc = spec(pieces=[{"guard": "x1 < 2", "box": [{"lo": 0, "hi": 1}]}])
        with pytest.raises(ProblemLoadError, match=r"x = \(2\.0,\)"):
            load_dict(doc)

    def test_load_stops_at_the_first_raising_row(self, monkeypatch, capsys, tmp_path):
        # the guard holds on the grid's first column only; the loader asks
        # the suspect rows in row order and raises at the first, without
        # asking the other 16,255
        from setorder.cli import EX_USAGE, main
        calls = []
        real = problem.PieceMap.value

        def counted(self, x, n=None):
            calls.append(tuple(x))
            return real(self, x, n)

        monkeypatch.setattr(problem.PieceMap, "value", counted)
        window = {"a": 0, "b": 127 / 64, "step": 1 / 64}
        doc = spec(cone={"kind": "orthant", "dim": 2},
                   domain={"windows": [window, dict(window)]},
                   pieces=[{"guard": "x1 < 0.01",
                            "box": [{"lo": 0, "hi": 1}, {"lo": 0, "hi": 1}]}])
        path = tmp_path / "guarded.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == EX_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "setorder: no piece matches x = (0.015625, 0.0)\n"
        assert calls == [(0.015625, 0.0)]

    def test_open_degenerate_names_piece_and_axis(self):
        doc = spec(pieces=[{"guard": "true",
                            "box": [{"lo": "x1", "hi": 3, "lo_open": True}]}])
        with pytest.raises(ProblemLoadError, match=r"piece 0 axis 0.*closed singleton"):
            load_dict(doc)

    def test_closed_singleton_is_fine(self):
        doc = spec(pieces=[{"guard": "true", "box": [{"lo": "x1", "hi": 3}]}])
        P = load_dict(doc)
        v = P.value(3)
        assert v.boxes[0].lo == v.boxes[0].hi == (3.0,)

    def test_empty_interval_names_point(self):
        doc = spec(domain={"windows": [{"a": 0, "b": 5, "step": 1}]},
                   pieces=[{"guard": "true", "box": [{"lo": "x1", "hi": 3}]}])
        with pytest.raises(ProblemLoadError, match="empty interval"):
            load_dict(doc)

    def test_infinite_lower_end_rejected(self):
        doc = spec(pieces=[{"guard": "true", "box": [{"lo": "-inf", "hi": 1}]}])
        with pytest.raises(ProblemLoadError, match="lower endpoint"):
            load_dict(doc)

    def test_base_map_may_not_use_n(self):
        doc = spec(pieces=[{"guard": "true", "box": [{"lo": "n", "hi": 9}]}])
        with pytest.raises(ProblemLoadError):
            load_dict(doc)

    def test_schema_violations(self):
        with pytest.raises(ProblemLoadError, match="schema"):
            load_dict({"label": "x"})
        with pytest.raises(ProblemLoadError, match="schema"):
            load_dict(spec(cone={"kind": "wedge", "dim": 2}))
        doc = spec()
        doc["map"]["pieces"][0]["points"] = [["0"]]   # box and points together
        with pytest.raises(ProblemLoadError, match="schema"):
            load_dict(doc)

    @pytest.mark.parametrize("doc", [
        spec(label=7),                                         # wrong type
        {"cone": {"kind": "orthant", "dim": 1}, "domain": {"points": [[0]]},
         "map": {"pieces": []}},                               # missing field
        spec(cone={"kind": "wedge", "dim": 2}),                # bad enum
        spec(pieces=[{"guard": "true", "box": [{"lo": 0, "hi": 1,
                                                 "lo_open": "yes"}]}]),
        spec(pieces=[{"guard": "true", "points": [[0], ["1", None]]}]),
        spec(family={"subst": "m", "n_max": 4}),
        ["not", "an", "object"],
        # nested in a oneOf: the best match is not the first error
        spec(domain={"windows": [{"a": "x", "b": 1}]}),
        spec(cone={"kind": "halfspaces", "rows": [["a"]]}),
    ], ids=["label-type", "no-label", "cone-kind", "nested-flag",
            "nested-point", "family", "array", "window", "cone-row"])
    def test_schema_message_is_jsonschema_validate_s(self, doc):
        # the validator is built once, with its $refs inlined; the message
        # is still the error jsonschema.validate raises on the schema as
        # written, its best match
        want = schema_message(doc)
        assert want is not None
        with pytest.raises(ProblemLoadError) as got:
            load_dict(doc)
        assert str(got.value) == want

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_schema_message_on_mutated_documents(self, data):
        doc = data.draw(st.one_of(st.sampled_from(SHIPPED_DOCS), cloud_documents()))
        doc = data.draw(mutated(doc))
        want = schema_message(doc)
        if want is None:
            problem._validate_schema(doc)
            return
        with pytest.raises(ProblemLoadError) as got:
            load_dict(doc)
        assert str(got.value) == want

    def test_built_schema_holds_no_ref(self):
        built = json.dumps(problem._validator().schema)
        assert "$ref" not in built and "$defs" not in built
        assert "$ref" in json.dumps(SCHEMA_AS_WRITTEN)

    @pytest.mark.parametrize("ref", [
        "other.schema.json#/$defs/domain", "#/properties/map", "#", "#/$defs/missing",
        "#/$defs/loop", {"$defs": "domain"}])
    def test_ref_outside_defs_is_refused(self, ref):
        schema = {"$defs": {"s": {"type": "string"}, "loop": {"items": {"$ref": "#/$defs/loop"}}},
                  "properties": {"a": {"$ref": ref}, "b": {"$ref": "#/$defs/s"}}}
        with pytest.raises(ValueError, match="cannot be inlined"):
            problem._inline_refs(schema)

    def test_ref_with_siblings_is_refused_and_defs_inline(self):
        schema = {"$defs": {"s": {"type": "string"}, "t": {"items": {"$ref": "#/$defs/s"}}},
                  "properties": {"a": {"$ref": "#/$defs/t"}}}
        assert problem._inline_refs(schema) == {
            "properties": {"a": {"items": {"type": "string"}}}}
        schema["properties"]["a"]["minItems"] = 1
        with pytest.raises(ValueError, match="cannot be inlined"):
            problem._inline_refs(schema)

    def test_a_foreign_ref_is_refused_when_the_validator_is_built(self, tmp_path,
                                                                  monkeypatch):
        bad = {**SCHEMA_AS_WRITTEN, "properties": {
            **SCHEMA_AS_WRITTEN["properties"], "label": {"$ref": "label.json"}}}
        (tmp_path / "problem.schema.json").write_text(json.dumps(bad))
        monkeypatch.setattr(problem, "_data_dir", lambda kind: tmp_path)
        problem._validator.cache_clear()
        try:
            with pytest.raises(ValueError, match="'label.json' cannot be inlined"):
                problem._validator()
        finally:
            problem._validator.cache_clear()

    @pytest.mark.parametrize("guard, column, reason", [
        ("x1 > 0 and x2 < 1 + $", 21, "unexpected character '$'"),
        ("x1 < 2 and x2 >= (", 19, "unexpected end of input"),
        ("  x1 < 1 and x2 <= 1 and 2 > x1 +", 34, "unexpected end of input"),
        (" (x2 < 1", 6, "expected ')'"),   # where its side ends
    ])
    def test_guard_syntax_error_names_its_column_in_the_guard(self, guard, column,
                                                               reason):
        doc = spec(domain={"windows": [{"a": 0, "b": 1, "step": 1}] * 2},
                   pieces=[{"guard": guard, "box": [{"lo": 0, "hi": 1}]},
                           {"guard": "true", "box": [{"lo": 0, "hi": 2}]}])
        with pytest.raises(ExprSyntaxError) as got:
            load_dict(doc)
        assert str(got.value) == f"{reason} (line 1, column {column})"
        assert got.value.pos == column - 1

    def test_dim_mismatch(self):
        doc = spec(cone={"kind": "orthant", "dim": 2})
        with pytest.raises(ProblemLoadError, match="axes"):
            load_dict(doc)

    def test_small_horizon_rejected(self):
        doc = spec(family={"subst": "n", "n_max": 4})
        with pytest.raises(ProblemLoadError, match="schema"):
            load_dict(doc)


class TestProgrammaticProblems:
    def test_table_map_without_n(self):
        dom = Domain.from_points([[0.0], [1.0]])
        P = Problem("t", TableMap(lambda x: box([x[0]], [x[0] + 1]), 1),
                    Cone.orthant(1), dom)
        assert P.value(1).boxes[0].lo == (1.0,)

    def test_table_map_family_and_image_dim_guard(self):
        dom = Domain.from_points([[0.0]])
        base = Problem("t", TableMap(lambda x: box([0.0], [1.0]), 1),
                       Cone.orthant(1), dom)
        fam = PerturbedFamily(
            base, TableMap(lambda x, n: box([1.0 / (n + 1)], [2.0]), 1),
            lambda n: dom, n_max=16)
        assert family_at(fam, 3).value(0).boxes[0].lo == (0.25,)
        assert family_at(fam, 3).label == "t[n=3]"

        # members take the base cone, so a 2-D member map cannot be built
        fam2 = PerturbedFamily(
            base, TableMap(lambda x: box([0.0, 0.0], [1.0, 1.0]), 2),
            lambda n: dom, n_max=16)
        with pytest.raises(ProblemLoadError, match="image dim 2 != cone dim 1"):
            family_at(fam2, 0)

    def test_wrong_dimension_before_a_raising_row(self, ctx1):
        # grid and tail rows take one path: a value of the wrong dimension
        # is its row's error, and a grid raises the first row's error
        def fn(x):
            if x[0] == 1.0:
                raise SetSpecError("no value at 1")
            return box([0.0, 0.0], [1.0, 1.0]) if x[0] == 0.0 else box([x[0]], [x[0] + 1])

        m, dom = TableMap(fn, 1), Domain.from_points([[0.0], [1.0], [2.0]])
        with pytest.raises(DimensionMismatch, match="set dim 2 against cone dim 1"):
            Problem("t", m, Cone.orthant(1), dom)
        _, errs = tail_table(m, dom.points, [None] * 3, ctx1.cone)
        assert [(i, type(e)) for i, e in errs.items()] == [(0, DimensionMismatch),
                                                           (1, SetSpecError)]
        assert str(errs[0]) == "set dim 2 against cone dim 1"
        with pytest.raises(ProblemLoadError, match=r"x = \(1\.0,\): no value at 1"):
            Problem("t", m, Cone.orthant(1), Domain.from_points([[2.0], [1.0]]))

    def test_direct_horizon_floor(self):
        dom = Domain.from_points([[0.0]])
        base = Problem("t", TableMap(lambda x: box([0.0], [1.0]), 1),
                       Cone.orthant(1), dom)
        with pytest.raises(ProblemLoadError, match=">= 8"):
            PerturbedFamily(base, base.map, lambda n: dom, n_max=4)

    @pytest.mark.parametrize("part", ["base", "map", "domains", "recovery_hint"])
    def test_family_parts_are_read_only(self, part):
        # members, domains and the stability gate are cached from the parts
        # and never invalidated, so a part cannot be swapped under them
        fam = load_builtin("sop_sin")
        before = getattr(fam, part)
        with pytest.raises(AttributeError):
            setattr(fam, part, None)
        assert getattr(fam, part) is before


def point_inside(A, C):
    """A point on the boundary of cl(A + C): the first point or box lower corner."""
    return A.points[0] if isinstance(A, PointCloud) else np.array(A.boxes[0].lo)


def move_inside(monkeypatch, vals, chosen):
    """Make the exterior point of each value vals[i], i in ``chosen``, answer
    from inside cl(A + C): for reference.is_c_proper asked on those objects,
    and for grid row i of every Problem built meanwhile."""
    real_point, real_rows = reference.exterior_point, problem._exterior_rows

    def point(A, C):
        return point_inside(A, C) if any(A is vals[i] for i in chosen) else real_point(A, C)

    def rows(grid_rows, cone):
        checked, tab, z = real_rows(grid_rows, cone)
        for r, i in enumerate(checked.tolist()):
            if i in chosen:
                z[r] = grid_rows[0][i, 0]
        return checked, tab, z

    monkeypatch.setattr(reference, "exterior_point", point)
    monkeypatch.setattr(problem, "_exterior_rows", rows)


class TestProperness:
    def test_batched_check_agrees_with_per_value(self, monkeypatch):
        # seeded problems mix clouds, box unions with open flags and general
        # cones; each is rebuilt with a random subset of its values (maybe
        # none) given an "exterior" point in cl(A + C)
        rng = np.random.default_rng(5)
        raised = 0
        for _ in range(30):
            P = reference.random_problem(rng, max_points=12)
            assert all(reference.is_c_proper(v, P.cone).is_holds for v in P.values())
            vals = P.values()
            chosen = [i for i in range(len(vals)) if rng.random() < 0.2]
            with monkeypatch.context() as m:
                move_inside(m, vals, chosen)
                verdicts = [reference.is_c_proper(v, P.cone) for v in vals]
                bad = [i for i, v in enumerate(verdicts) if v.is_fails]
                assert bad == chosen
                if not bad:
                    Problem(P.label, P.map, P.cone, P.domain)
                    continue
                with pytest.raises(ProblemLoadError) as err:
                    Problem(P.label, P.map, P.cone, P.domain)
                # the text of the check that asked one value at a time
                i, v = bad[0], verdicts[bad[0]]
                assert str(err.value) == (
                    f"value at x = {tuple(map(float, P.domain.points[i]))} is not proper "
                    f"for the cone: {v.reason} (certificate {v.counterexample})")
                raised += 1
        assert raised >= 10

    def test_improper_value_names_the_first_bad_x(self, monkeypatch):
        dom = Domain.from_points([[0.0], [1.0], [2.0], [3.0]])
        vals = [box([x], [x + 1.0]) for x in range(4)]
        move_inside(monkeypatch, vals, [2, 3])
        with pytest.raises(ProblemLoadError) as err:
            Problem("t", TableMap(lambda x: vals[int(x[0])], 1), Cone.orthant(1), dom)
        assert str(err.value) == (
            f"value at x = {tuple(map(float, dom.points[2]))} is not proper for the cone: "
            "constructed exterior point landed inside A + C "
            f"(certificate {{'point': {np.array([2.0])!r}}})")

    def test_boxes_under_a_general_cone_still_load(self):
        cone = Cone.from_halfspaces([[1.0, 0.0], [1.0, 1.0]])
        P = Problem("t", TableMap(lambda x: box([x[0], 0.0], [x[0] + 1, 1.0]), 2),
                    cone, Domain.from_points([[0.0], [1.0]]))
        assert all(reference.is_c_proper(v, cone).is_inconclusive for v in P.values())
        mixed = Problem("t", TableMap(
            lambda x: box([0.0, 0.0], [1.0, 1.0]) if x[0] else points([[0.0, 0.0]]), 2),
            cone, Domain.from_points([[0.0], [1.0]]))
        assert isinstance(mixed.value(0), PointCloud)


class TestGridRows:
    """A problem's grid goes through value_rows: its exterior points and its
    value table equal the per-value references bit for bit, and an
    expression map's grid makes no per-point value call."""

    @staticmethod
    def check_rows(P):
        checked, _, z = problem._exterior_rows(grid_rows(P), P.cone)
        vals = P.values()
        want = [reference.exterior_point(v, P.cone) for v in vals]
        assert checked.tolist() == [i for i, w in enumerate(want) if w is not None]
        for r, i in enumerate(checked.tolist()):
            assert z[r].tobytes() == want[i].tobytes()
        assert_same_table(value_table(P), corner_table(vals, P.cone))

    def test_random_problems(self):
        rng = np.random.default_rng(11)
        kinds = set()
        for _ in range(30):
            P = reference.random_problem(rng, max_points=12)
            self.check_rows(P)
            kinds |= {P.cone.kind} | {type(v).__name__ for v in P.values()}
        assert kinds == {"orthant", "general", "BoxUnion", "PointCloud"}

    @pytest.mark.parametrize("name", ["geff_vs_reff", "sop_sin", "gamma_cos"])
    def test_shipped_members(self, name):
        P = load_builtin(name)
        members = ([P.base] + [family_at(P, n) for n in range(P.n_max + 1)]
                   if isinstance(P, PerturbedFamily) else [P])
        for M in members:
            self.check_rows(M)

    def test_expression_grids_make_no_value_calls(self, monkeypatch):
        calls = []
        real = problem.PieceMap.value

        def counted(self, x, n=None):
            calls.append((tuple(x), n))
            return real(self, x, n)

        monkeypatch.setattr(problem.PieceMap, "value", counted)
        built = [load_builtin("geff_vs_reff")]
        for name in ("gamma_cos", "sop_sin"):
            fam = load_builtin(name)
            built += [fam.base] + [family_at(fam, n) for n in range(fam.n_max + 1)]
        assert len(built) == 1 + 2 * 130
        assert calls == []

    def test_malformed_pieces_raise_what_value_raises(self):
        # pieces no loaded document holds: a box of two axes in a map of
        # one, and a point piece of no vectors. Their rows are suspect, so
        # value_rows asks value there and keeps the exception it raises
        axis = problem.AxisSpec(parse("x1"), parse("x1 + 1"))
        pm = problem.PieceMap([
            problem.Piece(problem.Guard.parse("x1 < 0.5"), box_axes=(axis, axis)),
            problem.Piece(problem.Guard.parse("x1 < 1"), point_vectors=()),
            problem.Piece(problem.Guard.parse("true"), box_axes=(axis,))], 1)
        X = np.array([[0.0], [0.25], [0.5], [0.75], [1.0]])
        rows, errs = problem.value_rows(pm, X, [None] * len(X), Cone.orthant(1))
        assert sorted(errs) == [0, 1, 2, 3]
        assert rows[3].tolist() == [0, 0, 0, 0, 1]
        assert {type(e) for e in errs.values()} == {DimensionMismatch, SetSpecError}
        for i, e in errs.items():
            assert raised(lambda: pm.value(X[i]))[:2] == (type(e), str(e)), i


# ------------------------------------------------------------ tail tables

def row_outcomes(m, X, ns, cone):
    """map.value at each row, or the exception asking it raises, where a
    value also raises what comparing it would (a wrong dimension, a box
    under a general cone): the way tail_table reads them."""
    out = []
    for x, n in zip(X, ns):
        try:
            v = m.value(tuple(x), n)
            _corner_data(v, cone)
            out.append(v)
        except Exception as exc:
            out.append(exc)
    return out


def grid_rows(P):
    """The row arrays of P's grid values (``value_rows``)."""
    return problem.value_rows(P.map, P.domain.points, [P.n] * len(P), P.cone)[0]


def assert_same_table(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def table_rows(tab, rows):
    """The sets of a table at ``rows`` of its last set axis."""
    return CornerTable(*(x[..., rows] for x in tab))


def check_tail_table(m, X, ns, ctx):
    """tail_table (and corner_table(shift=)) against corner_table over map.value,
    unshifted and translated by the eps shifts of a usc scan: a raising row
    holds its exception and no corner, every other row its value; returns
    the first row's exception, or None."""
    got = row_outcomes(m, X, ns, ctx.cone)
    want_errs = {i: (type(v), str(v)) for i, v in enumerate(got)
                 if isinstance(v, Exception)}
    keep = [i for i in range(len(got)) if i not in want_errs]
    vals = [got[i] for i in keep]
    shifts = np.array([-e * ctx.u for e in (1.0, 0.25, 2.0 ** -10)])
    for shift in (None, shifts):
        tab, errs = tail_table(m, X, ns, ctx.cone, shift=shift)
        assert list(errs) == list(want_errs)
        assert {i: (type(e), str(e)) for i, e in errs.items()} == want_errs
        assert tab.cloud.shape[-1] == len(X)
        assert np.isinf(table_rows(tab, list(want_errs)).h).all()
        if shift is None:
            if vals:
                assert_same_table(table_rows(tab, keep), corner_table(vals, ctx.cone))
        elif vals:
            moved = corner_table([translate(v, s) for s in shift for v in vals], ctx.cone)
            want = CornerTable(*(
                x.reshape(x.shape[:-1] + (len(shift), len(vals))) for x in moved))
            assert_same_table(table_rows(tab, keep), want)
            assert_same_table(corner_table(vals, ctx.cone, shift=shift), want)
    return next((v for v in got if isinstance(v, Exception)), None)


class TestTailTable:
    """A tail's values as one corner table equal corner_table over
    map.value bit for bit, and each raising row holds its exception."""

    @pytest.mark.parametrize("name", ["geff_vs_reff", "sop_sin", "gamma_cos"])
    def test_shipped_maps(self, name):
        P = load_builtin(name)
        fam = P if isinstance(P, PerturbedFamily) else None
        base = P.base if fam else P
        ctx = OrderCtx(base.cone)
        rng = np.random.default_rng(7)
        pts = base.domain.points
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        X = np.vstack([pts, rng.uniform(lo - 0.5, hi + 0.5, size=(40, pts.shape[1])),
                       -0.0 * pts[:1]])
        check_tail_table(base.map, X, [None] * len(X), ctx)
        if fam is not None:
            ns = rng.integers(0, 64, size=len(X)).tolist()
            check_tail_table(fam.map, X, ns, ctx)

    def test_clouds_under_a_general_cone(self):
        cone = Cone.from_halfspaces(np.array([[1.0, 0.2], [-0.3, 1.0], [1.0, 1.0]]))
        m = load_dict(spec(
            cone={"kind": "halfspaces", "rows": cone.halfspaces.tolist()},
            domain={"windows": [{"a": -1, "b": 1, "step": 0.5}] * 2},
            pieces=[{"guard": "x1 < 0.25",
                     "points": [["x1", "sin(x2)"], ["x1*x2", "1/(1 + x1^2)"]]},
                    {"guard": "true", "points": [["exp(x2)", "x1"]]}])).map
        X = np.random.default_rng(3).uniform(-1.0, 1.0, size=(30, 2))
        assert check_tail_table(m, X, [None] * len(X), OrderCtx(cone)) is None

    def test_boxes_under_a_general_cone_are_row_errors(self):
        # boxes from x1 = 0 on, a raising sqrt below x1 = -0.5, clouds between
        cone = Cone.from_halfspaces(np.array([[1.0, 0.3], [0.3, 1.0]]))
        m = load_dict(spec(
            cone={"kind": "halfspaces", "rows": cone.halfspaces.tolist()},
            domain={"windows": [{"a": -0.5, "b": 1, "step": 0.5}]},
            pieces=[{"guard": "x1 < 0", "points": [["x1", "sqrt(x1 + 0.5)"]]},
                    {"guard": "true", "box": [{"lo": "x1", "hi": "x1 + 1"},
                                              {"lo": 0, "hi": 1}]}])).map
        X = np.random.default_rng(5).uniform(-1.0, 1.0, size=(30, 1))
        ctx = OrderCtx(cone)
        check_tail_table(m, X, [None] * len(X), ctx)
        _, errs = tail_table(m, X, [None] * len(X), ctx.cone)
        kinds = {type(e) for e in errs.values()}
        assert kinds == {Unsupported, DomainError}
        assert len(errs) < len(X)

    def test_random_families(self):
        for seed in range(40):
            fam, t = reference.random_family(np.random.default_rng(seed))
            ctx = OrderCtx(fam.base.cone)
            X = fam.base.domain.points
            ns = [int(n) for n in np.random.default_rng(seed).integers(0, 40, len(X))]
            check_tail_table(fam.map, X, ns, ctx)

    def test_rows_past_a_raise_are_kept(self, ctx1):
        # the table map refuses n >= 20; the expression map takes the sqrt
        # of a negative number at x = 0, the last row
        def fn(x, n):
            if n >= 20:
                raise ProblemLoadError(f"no value at n = {n}")
            return box([x[0] * n], [x[0] * n + 1])

        fam = load_dict(spec(
            pieces=[{"guard": "true", "box": [{"lo": "x1", "hi": "x1 + 1"}]}],
            family={"subst": "n", "n_max": 64, "map_n": {"pieces": [
                {"guard": "true",
                 "box": [{"lo": "sqrt(x1 - 1/(n+1)^3)", "hi": "x1 + 2"}]}]}}))
        X = np.array([[3.0 - k / 10] for k in range(31)])
        ns = list(range(31))
        err = check_tail_table(TableMap(fn, 1), X, ns, ctx1)
        assert str(err) == "no value at n = 20"
        err = check_tail_table(fam.map, X, ns, ctx1)
        assert str(err).startswith("sqrt of a negative number")
        tab, errs = tail_table(fam.map, X, ns, ctx1.cone)
        assert len(tab.cloud) == 31 and list(errs) == [30]


# ------------------------------------------------------- member batches

MOVING = spec(
    label="moving", cone={"kind": "orthant", "dim": 2},
    domain={"windows": [{"a": 0, "b": 1, "step": 0.25}]},
    pieces=[{"guard": "true", "box": [{"lo": "x1", "hi": "x1 + 1"},
                                      {"lo": 0, "hi": 1}]}],
    # the domain grows and refines with n; the members' corner counts
    # differ (3, 2 or 1), so a batch's corner axis is wider than most
    family={"subst": "n", "n_max": 16,
            "domain_n": {"windows": [{"a": 0, "b": "1 + 1/(n+1)",
                                      "step": "0.25/(n+1)"}]},
            "map_n": {"pieces": [
                {"guard": "n < 4",
                 "points": [["x1", "n"], ["x1 + 1", "n - 1"], ["n", "x1"]]},
                {"guard": "x1 < 0.5 and n < 10",
                 "points": [["x1", "1/(n+1)"], ["-x1", "2"]]},
                {"guard": "true",
                 "box": [{"lo": "x1", "hi": "x1 + n"}, {"lo": "-x1", "hi": 1}]}]}})


def shipped_and_moving_families():
    geff = json.loads((problem._data_dir("problems") / "geff_vs_reff.json").read_text())
    geff["family"] = {"subst": "n", "n_max": 8}
    fams = [load_builtin("sop_sin"), load_builtin("gamma_cos"), load_dict(geff),
            load_dict(MOVING)]
    return fams + [reference.random_family(np.random.default_rng(seed), n_max=8)[0]
                   for seed in range(6)]


def alone(fam, n):
    return Problem(f"{fam.label}[n={n}]", fam.map, fam.base.cone, fam.domain_at(n), n=n)


def raised(call):
    """(type, message, type of the cause) of the exception call() raises."""
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value), type(err.value.__cause__)


class TestMemberBatches:
    """Members built in one batch equal their builds alone: label, domain,
    n and value tables bit for bit, or the exception at the same n."""

    def test_every_member_equals_its_build_alone(self):
        cones = set()
        for fam in shipped_and_moving_families():
            cones.add(fam.base.cone.kind)
            ns = range(fam.n_max + 1)
            assert problem._build_members(fam, ns) is None
            assert sorted(fam._cache) == list(ns)
            for n in ns:
                M, A = fam._cache[n], alone(fam, n)
                assert (M.label, M.domain, M.n, M.map, M.cone) == (
                    A.label, A.domain, A.n, A.map, A.cone)
                assert (M._table is None) == (A._table is None)
                if M._table is not None:
                    assert_same_table(M._table, A._table)
                TestGridRows.check_rows(M)
        assert cones == {"orthant", "general"}
        counts = {int(grid_rows(family_at(load_dict(MOVING), n))[3].max()) for n in range(17)}
        assert counts == {1, 2, 3}

    @pytest.mark.parametrize("raising, improper, empty, first", [
        (5, None, None, 5), (None, 3, None, 3), (5, 3, None, 3), (3, 5, None, 3),
        (8, None, 6, 6), (None, 7, 6, 6), (2, None, 6, 2)])
    def test_errors_at_the_same_n(self, monkeypatch, raising, improper, empty,
                                  first):
        # member `raising` has no value at x = 0.5, member `improper` is made
        # to fail the properness check, and D_empty has no point
        dom = Domain.from_points([[0.0], [0.25], [0.5], [0.75]])

        def fn(x, n):
            if n == raising and x[0] == 0.5:
                raise SetSpecError(f"no value at n = {n}")
            return box([x[0] + n], [x[0] + n + 1])

        def domains(n):
            return Domain.from_points([]) if n == empty else dom

        real = problem._exterior_rows

        def rows(grid_rows, cone):
            checked, tab, z = real(grid_rows, cone)
            lo = grid_rows[0][checked, 0, 0]
            hit = np.flatnonzero((lo >= (improper or -9)) & (lo < (improper or -9) + 1))
            z[hit] = grid_rows[0][checked[hit], 0]
            return checked, tab, z

        monkeypatch.setattr(problem, "_exterior_rows", rows)

        def family():
            base = Problem("t", TableMap(lambda x: box([x[0]], [x[0] + 1]), 1),
                           Cone.orthant(1), dom)
            return PerturbedFamily(base, TableMap(fn, 1), domains, n_max=16)

        if first == empty:
            want = (ProblemLoadError, "domain must contain at least one point",
                    type(None))
        elif first == raising:
            want = (ProblemLoadError, f"value at x = (0.5,): no value at n = {first}",
                    SetSpecError)
        else:
            want = (ProblemLoadError, (
                f"value at x = {tuple(map(float, dom.points[0]))} is not proper for the cone: "
                "constructed exterior point landed inside A + C "
                f"(certificate {{'point': {np.array([float(first)])!r}}})"), type(None))
        fam, seen = family(), []
        assert raised(lambda: family_at(family(), first)) == want
        if empty != first:
            assert raised(lambda: alone(family(), first)) == want
        got = raised(lambda: seen.extend(M.n for M in problem._members(fam, range(12))))
        assert got == want
        assert seen == sorted(fam._cache) == list(range(first))
        # the failed member is not cached: asking again raises again
        assert raised(lambda: family_at(fam, first)) == want

    def test_an_all_raising_family_costs_one_value_call_per_batch(self, monkeypatch):
        calls = {"value": 0, "value_rows": 0}
        real_value, real_rows = problem.PieceMap.value, problem.value_rows

        def value(self, x, n=None):
            calls["value"] += 1
            return real_value(self, x, n)

        def rows(*args, **kwargs):
            calls["value_rows"] += 1
            return real_rows(*args, **kwargs)

        monkeypatch.setattr(problem.PieceMap, "value", value)
        monkeypatch.setattr(problem, "value_rows", rows)
        doc = spec(family={"subst": "n", "n_max": 64, "map_n": {"pieces": [
            {"guard": "true", "box": [{"lo": "x1/(n-n)", "hi": "x1 + 1"}]}]}})
        fam = load_dict(doc)
        calls.update(value=0, value_rows=0)
        with pytest.raises(ProblemLoadError) as err:
            list(problem._members(fam, range(32, 64)))
        assert calls == {"value": 1, "value_rows": 1}
        assert fam._cache == {}
        assert (type(err.value), str(err.value)) == raised(
            lambda: family_at(load_dict(doc), 32))[:2]

        ok = load_dict(spec(family={"subst": "n", "n_max": 64}))
        calls.update(value=0, value_rows=0)
        assert [M.n for M in problem._members(ok, range(32, 64))] == list(range(32, 64))
        assert calls == {"value": 0, "value_rows": 1}


# --------------------------------------------------------- value tables

GENERAL = spec(
    label="general", cone={"kind": "halfspaces", "rows": [[1.0, 0.2], [0.1, 1.0]]},
    domain={"windows": [{"a": 0, "b": 1, "step": 0.125}]},
    pieces=[{"guard": "true", "points": [["x1", "1 - x1"]]}],
    # by n: clouds of 3 points; a box on half the grid, which a general
    # cone refuses; clouds of 2 points, then of 1; boxes
    family={"subst": "n", "n_max": 63, "map_n": {"pieces": [
        {"guard": "n < 40",
         "points": [["x1", "n/64"], ["x1 + 1", "-x1"], ["1/(n+1)", "x1"]]},
        {"guard": "n < 44 and x1 < 0.5",
         "box": [{"lo": "x1", "hi": "x1 + 1"}, {"lo": 0, "hi": 1}]},
        {"guard": "n < 52", "points": [["x1", "1/(n+1)"], ["-x1", "2"]]},
        {"guard": "n < 60", "points": [["x1 - n/64", "sin(x1)"]]},
        {"guard": "true", "box": [{"lo": "x1", "hi": "x1 + 1"}, {"lo": 0, "hi": 1}]}]}})


class TestValueTables:
    """A problem's value table is its slice of the properness table of
    its build, equal bit for bit to ``table_from_corners`` of its own rows;
    a problem holding a box under a general cone has none, and asking for
    it raises the Unsupported that comparing the box raises."""

    @staticmethod
    def check(P):
        rows = grid_rows(P)
        if P.cone.kind != "orthant" and not rows[2].all():
            with pytest.raises(Unsupported, match="box-union sets require the orthant"):
                value_table(P)
            return "refused"
        assert_same_table(value_table(P), table_from_corners(*rows, P.cone))
        return P.cone.kind

    def test_single_problems(self):
        rng = np.random.default_rng(13)
        seen = {self.check(reference.random_problem(rng, max_points=12))
                for _ in range(30)}
        seen |= {self.check(load_dict(GENERAL).base)}
        seen |= {self.check(P if isinstance(P, Problem) else P.base)
                 for P in map(load_builtin, builtin_names())}
        assert seen == {"orthant", "general"}

    def test_members_of_batches(self):
        # the 32-member tail batches of a horizon of 64 (orthant families
        # with boxes, and a general-cone family whose cloud members hold 3,
        # 2 or 1 points, between members holding boxes), and one batch of
        # orthant members holding 3, 2 or 1 corners
        for fam, ns, want in (
                (load_builtin("sop_sin"), range(32, 64), {"orthant": 32}),
                (load_builtin("gamma_cos"), range(32, 64), {"orthant": 32}),
                (load_dict(GENERAL), range(32, 64), {"general": 24, "refused": 8}),
                (load_dict(MOVING), range(17), {"orthant": 17})):
            members = list(problem._members(fam, ns))
            seen = [self.check(M) for M in members]
            assert {k: seen.count(k) for k in set(seen)} == want
            if fam.label in ("general", "moving"):
                assert {int(grid_rows(M)[3].max()) for M in members
                        if M._table is not None} == {1, 2, 3}

    def test_boxes_under_a_general_cone_are_refused(self):
        cone = Cone.from_halfspaces([[1.0, 0.0], [1.0, 1.0]])
        dom = Domain.from_points([[0.0], [1.0]])
        ctx = OrderCtx(cone)
        for fn in (lambda x: box([x[0], 0.0], [x[0] + 1, 1.0]),
                   lambda x: box([0.0, 0.0], [1.0, 1.0]) if x[0] else points([[0.0, 0.0]])):
            P = Problem("t", TableMap(fn, 2), cone, dom)
            assert P._table is None
            for ask in (lambda: value_table(P), lambda: relation_matrices(P, ctx),
                        lambda: strong_level_set(P, points([[0.0, 0.0]]), ctx)):
                with pytest.raises(Unsupported) as err:
                    ask()
                assert str(err.value) == ("box-union sets require the orthant cone; "
                                          "sample to a point cloud for general cones")
