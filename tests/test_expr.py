"""Expression language: parsing, precedence, evaluation, round-trips, and
evaluation over arrays of points."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setorder import expr
from setorder.cone import Cone
from setorder.errors import DomainError, ExprSyntaxError, UnboundVariable
from setorder.expr import (MAX_DEPTH, BinOp, Call, Lit, Neg, Var, evaluate,
                           evaluate_rows, parse, unparse)
from setorder.order import OrderCtx, corner_table
from setorder.problem import AxisSpec, Guard, Piece, PieceMap, tail_table

import reference


def ev(src, x=(), n=None):
    env = {"x": x}
    if n is not None:
        env["n"] = n
    return evaluate(parse(src), env)


class TestFrozenExamples:
    def test_sin_family_map_at_origin(self):
        assert ev("sin(x1*(1+1/(n+1)))", x=(0.0,), n=3) == 0.0

    def test_exp_upper_endpoint(self):
        assert ev("3+exp(n)", n=0) == 4.0

    def test_cos_sum_at_zero(self):
        assert ev("1 + cos(3*x1) + cos(5*x1)", x=(0.0,)) == 3.0

    def test_cos_zero(self):
        assert ev("cos(0)") == 1.0

    def test_exp_saturates(self):
        assert ev("exp(n)", n=800) == math.inf

    def test_power_of_negative(self):
        assert ev("x1^2", x=(-2.0,)) == 4.0

    @pytest.mark.parametrize("src, x, want", [
        ("0.5^-2000", (), math.inf), ("(-10)^310", (), math.inf),
        ("(-10)^309", (), -math.inf), ("x1^-2000", (0.5,), math.inf)])
    def test_power_overflow_is_infinite(self, src, x, want):
        # IEEE: the magnitude overflows, the sign is the base's for odd powers
        assert ev(src, x=x) == want
        got, suspect = evaluate_rows(parse(src), np.array([x or (0.0,)]))
        assert got[0] == want and suspect[0]


class TestPrecedence:
    def test_power_over_unary_minus(self):
        # -x^2 must mean -(x^2), not (-x)^2
        assert ev("-x1^2", x=(3.0,)) == -9.0
        assert ev("(-x1)^2", x=(3.0,)) == 9.0

    def test_power_right_assoc(self):
        assert ev("2^3^2") == 512.0
        assert ev("(2^3)^2") == 64.0

    def test_unary_minus_in_exponent(self):
        assert ev("2^-2") == 0.25

    def test_mul_over_add(self):
        assert ev("1 + 2*3") == 7.0
        assert ev("(1 + 2)*3") == 9.0

    def test_left_assoc_sub_div(self):
        assert ev("8 - 3 - 2") == 3.0
        assert ev("16 / 4 / 2") == 2.0

    def test_ast_shapes(self):
        assert parse("-x1^2") == Neg(BinOp("^", Var("x1"), Lit(2.0)))
        assert parse("a" if False else "1+2*3") == BinOp(
            "+", Lit(1.0), BinOp("*", Lit(2.0), Lit(3.0)))
        assert parse("sin(n)") == Call("sin", Var("n"))


class TestConstantsAndVariables:
    def test_pi_and_e(self):
        assert ev("cos(pi)") == -1.0
        assert ev("e") == math.e

    def test_inf_literal(self):
        assert ev("inf") == math.inf
        assert ev("-inf") == -math.inf

    def test_higher_coordinates(self):
        assert ev("x2 - x1", x=(1.5, 4.0)) == 2.5

    def test_unbound(self):
        with pytest.raises(UnboundVariable):
            ev("x2", x=(1.0,))
        with pytest.raises(UnboundVariable):
            ev("n + 1", x=(1.0,))


class TestErrors:
    @pytest.mark.parametrize("src", [
        "", "   ", "1 +", "* 2", "sin", "sin 3", "sin(1", "(1+2", "1 2",
        "foo(3)", "bar", "1 +* 2", ")", "x0", "x01",
        pytest.param("(" * 100 + "1" + ")" * 100, id="parens-101-deep"),
        pytest.param("-" * 100 + "1", id="minus-101-deep"),
        pytest.param("sin(" * 100 + "1" + ")" * 100, id="calls-101-deep"),
        pytest.param("2^" * 100 + "2", id="power-101-deep"),
        pytest.param("+".join(["1"] * 101), id="sum-101-terms"),
        pytest.param("-" * 60 + "sin(" * 45 + "1" + ")" * 45, id="minus-calls-106-deep"),
    ])
    def test_syntax_errors(self, src):
        with pytest.raises(ExprSyntaxError):
            parse(src)

    @pytest.mark.parametrize("src", [
        pytest.param("(" * 99 + "1" + ")" * 99, id="parens"),
        pytest.param("-" * 99 + "1", id="minus"),
        pytest.param("sin(" * 99 + "1" + ")" * 99, id="calls"),
        pytest.param("2^" * 99 + "2", id="power"),
        pytest.param("+".join(["1"] * 100), id="sum"),
    ])
    def test_depth_limit_is_inclusive(self, src):
        # one level below each rejected case above: MAX_DEPTH levels parse
        assert MAX_DEPTH == 100
        parse(src)

    def test_error_carries_column(self):
        with pytest.raises(ExprSyntaxError, match=r"column 5"):
            parse("1 + $")

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ev("1/0")
        with pytest.raises(DomainError):
            ev("sqrt(-1)")
        with pytest.raises(DomainError):
            ev("inf - inf")  # NaN must not escape
        with pytest.raises(DomainError):
            ev("(-2)^0.5")

    def test_sqrt_ok(self):
        assert ev("sqrt(2)") == math.sqrt(2.0)
        assert ev("abs(-3) + sqrt(4)") == 5.0


# --- random well-formed ASTs for round-trip / totality properties ---------

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.0).map(lambda v: Lit(round(v, 2))),
    st.sampled_from([Var("x1"), Var("x2"), Var("n"),
                     Lit(math.pi), Lit(math.e), Lit(math.inf)]),
)


def _node(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])),
        children.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "abs", "sqrt"]),
                  children).map(lambda t: Call(t[0], t[1])),
    )


_ast = st.recursive(_leaf, _node, max_leaves=12)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_ast)
    def test_unparse_parse_identity(self, e):
        assert parse(unparse(e)) == e

    @settings(max_examples=200, deadline=None)
    @given(_ast, st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 50))
    def test_eval_stable_under_round_trip(self, e, a, b, n):
        env = {"x": (a, b), "n": n}
        try:
            want = evaluate(e, env)
        except DomainError:
            with pytest.raises(DomainError):
                evaluate(parse(unparse(e)), env)
            return
        got = evaluate(parse(unparse(e)), env)
        assert got == want or (math.isinf(want) and got == want)

    def test_specific_round_trips(self):
        for src in ["sin(x1*(1+1/(n+1)))", "3+exp(n)", "-x1^2", "2^-3",
                    "1 + cos(3*x1) + cos(5*x1)", "x1*(n+1)/(n+2)",
                    "(x1 + x2)/2", "-(x1 + 1)", "--x1", "1/(n+1)"]:
            assert parse(unparse(parse(src))) == parse(src)


class TestTotality:
    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="x12n+-*/^()sincoeqrtp. ", max_size=24))
    def test_parser_never_panics(self, junk):
        # only the structured error type may come out
        try:
            parse(junk)
        except ExprSyntaxError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(_ast, st.floats(-5, 5), st.integers(0, 10))
    def test_eval_total_on_well_formed(self, e, a, n):
        try:
            v = evaluate(e, {"x": (a, a), "n": n})
        except DomainError:
            return
        assert not math.isnan(v)


def _outcome(parser, src):
    """The AST, or a syntax error's message and column."""
    try:
        return parser(src)
    except ExprSyntaxError as e:
        return "error", str(e), e.pos


_PIECES = ["x1", "x2", "x0", "x01", "n", "pi", "e", "inf", "foo", "sin", "cos",
           "exp", "abs", "sqrt", "1", "2.5", "1e3", ".5", "7.", "1e", "٣",
           "+", "-", "*", "/", "^", "(", ")", " ", "\t", "$", "#", "=", ",", "x", ".."]


class TestParserAsReference:
    """parse gives the former token-at-a-time parser's AST, or raises
    ExprSyntaxError with its message and column."""

    @settings(max_examples=1500, deadline=None)
    @given(st.lists(st.sampled_from(_PIECES), max_size=16).map("".join))
    def test_token_soup(self, src):
        assert _outcome(parse, src) == _outcome(reference.parse, src)

    @settings(max_examples=300, deadline=None)
    @given(_ast, st.sampled_from(["", " ", "(", ")", "$", "1", "+", "x9 1"]),
           st.booleans())
    def test_well_formed_and_spoiled(self, e, extra, before):
        # an AST's text, and that text with a piece added at either end
        src = unparse(e)
        for s in (src, extra + src if before else src + extra):
            assert _outcome(parse, s) == _outcome(reference.parse, s)

    @pytest.mark.parametrize("src", [
        "", "   ", "\t\n", None, "1 + $", "x1 ~ 2", "1 2", "sin(1) x1", "foo(1)",
        "x0", "bar + 1", "(1", "((x1)", "x1)", "sin(1", "sin x1", "1 +", "-",
        "^2", "٣+1"])
    def test_each_kind_of_error(self, src):
        assert _outcome(parse, src) == _outcome(reference.parse, src)

    @pytest.mark.parametrize("src", [
        # 100 and 101 tokens around the height check's cut
        "-" * 99 + "1", "-" * 100 + "1", "1" + "+1" * 49, "1" + "+1" * 50,
        "x1" + "*x1" * 50, "-" * 99 + "x1", "-" * 98 + "x1^2",
        # long sums: heights 100 and 101 past 100 tokens
        "1" + "+1" * 99, "1" + "+1" * 100, "1" + "-x1/2" * 50,
        # heights 100 and 101 in about 100 tokens, under the nesting cap
        "-" * 97 + "(1+1+1)", "-" * 98 + "(1+1+1)", "-" * 99 + "(1+1)",
        *("(" * k + "x1" + ")" * k for k in (98, 99, 100, 101)),
        *("2^" * k + "2" for k in (49, 50, 98, 99, 100, 101)),
        *("x1^-" * k + "2" for k in (49, 50, 51)),
        "(" * 99 + "x1" + ")" * 98, "(" * 100 + "x1",
    ])
    def test_depth_edges(self, src):
        assert _outcome(parse, src) == _outcome(reference.parse, src)


# ------------------------------------------------ evaluation over rows

_row_leaf = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 700.5, 1e300]).map(Lit),
    st.sampled_from([Var("x1"), Var("x2"), Var("x3"), Var("n"),
                     Lit(math.pi), Lit(math.e), Lit(math.inf)]),
)
_row_ast = st.recursive(_row_leaf, _node, max_leaves=10)
_coord = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 5e-324, 710.0]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _rows(draw):
    """(X, ns): up to 6 points in R^3 and an index per row, or n unbound."""
    T = draw(st.integers(1, 6))
    X = np.array([[draw(_coord) for _ in range(3)] for _ in range(T)])
    ns = draw(st.one_of(st.none(), st.lists(st.integers(0, 1000),
                                            min_size=T, max_size=T)))
    return X, ns


def _scalar(e, X, ns, i):
    env = {"x": tuple(float(c) for c in X[i])}
    if ns is not None:
        env["n"] = ns[i]
    return evaluate(e, env)


class TestRowEvaluation:
    """evaluate_rows is evaluate bit for bit wherever it does not flag a row,
    and it flags every row where evaluate raises."""

    @settings(max_examples=400, deadline=None)
    @given(_row_ast, _rows())
    def test_rows_match_evaluate_bit_for_bit(self, e, rows):
        X, ns = rows
        got, suspect = evaluate_rows(e, X, None if ns is None
                                     else np.asarray(ns, dtype=float))
        assert got.shape == suspect.shape == (len(X),)
        for i in range(len(X)):
            try:
                want = _scalar(e, X, ns, i)
            except (DomainError, UnboundVariable):
                assert suspect[i], (unparse(e), X[i])
                continue
            if not suspect[i]:
                assert got[i].tobytes() == np.float64(want).tobytes(), \
                    (unparse(e), X[i], got[i], want)

    @pytest.mark.parametrize("src", [
        "sin(x1)", "cos(x1*x2)", "exp(x1)", "exp(x1*x2 - n)", "x1^x2",
        "abs(x1)^(x2/3)", "sqrt(abs(x1))/x2", "-x1^2 + e*cos(pi*n)"])
    def test_math_functions_match_on_random_points(self, src):
        # NumPy's own exp and power differ from math's on a few percent of
        # inputs, and its sin and cos may differ under another SIMD dispatch
        rng = np.random.default_rng(len(src))
        X = rng.uniform(-30.0, 30.0, size=(5000, 2))
        ns = rng.integers(0, 200, size=5000)
        e = parse(src)
        got, suspect = evaluate_rows(e, X, ns.astype(float))
        for i in range(len(X)):
            try:
                want = _scalar(e, X, ns.tolist(), i)
            except DomainError:
                assert suspect[i]
                continue
            assert suspect[i] or got[i].tobytes() == np.float64(want).tobytes()
        assert (~suspect).sum() > 2000

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_row_ast, min_size=5, max_size=5), _rows(),
           st.sampled_from(["points", "box", "closed-singleton", "guarded",
                            "guard-only"]),
           st.booleans(), st.booleans())
    def test_tail_table_raises_as_value_does(self, es, rows, kind, lo_open,
                                             hi_open):
        # the table holds every row: a raising row holds that row's
        # exception, type and message, and no corner
        X, ns = rows
        ns = [None] * len(X) if ns is None else ns
        hi = es[0] if kind == "closed-singleton" else es[1]
        axis = AxisSpec(es[0], hi, lo_open, hi_open)
        guard = Guard(((es[2], "<", es[3]),), "guard")
        pieces = {
            "points": [Piece(Guard.parse("true"), point_vectors=((es[0],),))],
            "box": [Piece(Guard.parse("true"), box_axes=(axis,))],
            "guarded": [Piece(guard, point_vectors=((es[4],),)),
                        Piece(Guard.parse("true"), box_axes=(axis,))],
            "guard-only": [Piece(guard, box_axes=(axis,))],
        }
        pieces["closed-singleton"] = pieces["box"]
        m = PieceMap(pieces[kind], 1)
        ctx = OrderCtx(Cone.orthant(1))
        tab, errs = tail_table(m, X, ns, ctx.cone)
        vals, want_errs = [], {}
        for i in range(len(X)):
            try:
                vals.append(m.value(tuple(X[i]), ns[i]))
            except Exception as exc:
                want_errs[i] = (type(exc), str(exc))
        assert {i: (type(e), str(e)) for i, e in errs.items()} == want_errs
        assert list(errs) == sorted(errs) and len(tab.cloud) == len(X)
        assert np.isinf(tab.h[..., list(errs)]).all()
        if vals:
            keep = [i for i in range(len(X)) if i not in errs]
            for a, b in zip(tab, corner_table(vals, ctx.cone)):
                a = a[..., keep]
                assert a.shape == b.shape and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()


# ------------------------------------ row evaluation against the row reference

_n_subtree = st.sampled_from([parse(src) for src in (
    "1/exp(1000*n)", "x1/(n-n)", "sqrt(-n)", "2^(-inf*n)", "sin(0*-n)",
    "(inf*n)^0", "exp(n)", "n^n", "cos(n/3)")])
_exact_ast = st.recursive(st.one_of(_row_leaf, _n_subtree), _node,
                          max_leaves=10)
_n_value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 3.0, -7.0, 40.0, 1000.0])


@st.composite
def _shared_n_rows(draw):
    """(X, n): up to 8 points in R^3 and, unless unbound, an n per row drawn
    from a few values, so that rows share n, with both signs of zero."""
    T = draw(st.integers(1, 8))
    X = np.array([[draw(_coord) for _ in range(3)] for _ in range(T)])
    n = draw(st.one_of(st.none(), st.lists(_n_value, min_size=T, max_size=T)))
    return X, None if n is None else np.array(n)


def _assert_as_reference(e, X, n):
    got, suspect = evaluate_rows(e, X, n)
    want, want_suspect = reference.evaluate_rows(e, X, n)
    assert got.tobytes() == want.tobytes(), (unparse(e), got, want)
    assert (suspect == want_suspect).all(), (unparse(e), suspect, want_suspect)


class TestRowsAsReference:
    """evaluate_rows gives the reference's values and its suspect mask
    byte for byte, on suspect rows too: a mask with extra rows would send
    them through map.value, a mask with fewer would hide raising rows."""

    @settings(max_examples=500, deadline=None)
    @given(_exact_ast, _shared_n_rows())
    def test_values_and_mask_equal_the_reference(self, e, rows):
        _assert_as_reference(e, *rows)

    @pytest.mark.parametrize("src", [
        "sin(inf*x1)", "exp(x1/(n-n))", "1/exp(1000*n)", "x2/exp(1000*x1)",
        "(inf*x1)^0", "1^(x1*inf)", "2^(-inf*n)", "x1*inf", "inf",
        "x1/(n-n)", "sqrt(-n)", "sin(0*-n)", "n^(1/(n-1))", "(-10)^(309+n)",
        "3 + exp(n)", "x1^-2000"])
    def test_each_vanishing_point_is_checked(self, src):
        # each case turns a non-finite intermediate finite at one place
        X = np.array([[0.0, 1.0], [0.5, -2.0], [-3.0, 0.0], [1.0, 1e300],
                      [2.0, 0.0], [0.0, 0.0]])
        _assert_as_reference(parse(src), X, np.array([0.0, -0.0, 1.0, 1.0, -1.0, 2.0]))
        _assert_as_reference(parse(src), X, None)

    def test_exp_of_n_is_called_once_per_distinct_n(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(a)
            return expr._exp(a)

        monkeypatch.setitem(expr._ROW_CALLS, "exp",
                            np.frompyfunc(counting, 1, 1))
        X = np.linspace(0.0, 1.0, 512)[:, None]
        n = np.tile(np.arange(32.0), 16)
        got, suspect = evaluate_rows(parse("3 + exp(n)"), X, n)
        assert len(calls) == 32
        calls.clear()
        want, want_suspect = reference.evaluate_rows(parse("3 + exp(n)"), X, n)
        assert len(calls) == 512
        assert got.tobytes() == want.tobytes()
        assert (suspect == want_suspect).all()
        calls.clear()
        evaluate_rows(parse("exp(x1 + n)"), X, n)
        assert len(calls) == 512
