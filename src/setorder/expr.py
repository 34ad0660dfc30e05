"""Tiny arithmetic expression language for problem files.

Grammar (precedence low to high; ^ is right-associative and binds tighter
than unary minus, so -x1^2 is -(x1^2)):

    expr    :=  term  (("+" | "-") term)*
    term    :=  factor (("*" | "/") factor)*
    factor  :=  "-" factor | power
    power   :=  atom ("^" factor)?
    atom    :=  NUMBER | "pi" | "e" | "inf" | NAME "(" expr ")"
              | VAR | "(" expr ")"

VAR is x1..xd (domain coordinates) or n (perturbation index). NAME is one
of sin, cos, exp, abs, sqrt. Parsing and evaluation recurse, so factor
nesting and tree height are capped at MAX_DEPTH (ExprSyntaxError beyond).
``parse`` splits the string into tokens in one regex scan and descends
over the token list. Every node of the tree takes a token of its own, so
its height is measured only when there are more than MAX_DEPTH tokens.
Evaluation is IEEE double: exp overflow saturates to +inf, and a power
that overflows is infinite as IEEE gives it (-inf for a negative base and
an odd integer exponent, +inf otherwise), while NaN-producing operations
(0/0, sqrt of a negative, inf - inf) raise DomainError — no NaN ever
escapes.

``evaluate_rows`` evaluates one expression over many points at once. It
gives ``evaluate``'s value bit for bit on every row it does not flag as
suspect, and flags every row where ``evaluate`` could raise. It checks
finiteness only where a non-finite value can turn finite again, which
flags the same rows as a check at every node, and it calls sin, cos, exp
and ^ once per distinct n where their operands read n and no coordinate.
A ^ makes one math.pow pass over its operand arrays and falls back to an
element-wise pass only when some element raises.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnboundVariable

_TOKEN = re.compile(r"""
    \s*(?:(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?   # number
          |[A-Za-z_][A-Za-z_0-9]*                              # name
          |[-+*/^()])                                         # operator
         |(\S))                                               # anything else
""", re.VERBOSE)

_FUNCTIONS = ("sin", "cos", "exp", "abs", "sqrt")
_CONSTANTS = {"pi": math.pi, "e": math.e, "inf": math.inf}
_VAR = re.compile(r"^(x[1-9][0-9]*|n)$")
MAX_DEPTH = 100


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Var, Neg, Call, BinOp]


def _tokenize(src: str) -> tuple[list[str], list[int]]:
    """(tokens, starts): the token texts and their offsets, in one scan,
    closed by an empty end token at len(src)."""
    tokens, starts = [], []
    for m in _TOKEN.finditer(src):
        if m.lastindex == 2:
            raise ExprSyntaxError(f"unexpected character {m[2]!r}", m.start(2))
        tokens.append(m[1])
        starts.append(m.start(1))
    tokens.append("")
    starts.append(len(src))
    return tokens, starts


_ADD, _MUL, _OPERATORS = frozenset("+-"), frozenset("*/"), frozenset("-+*/^()")
_NAME_START = frozenset(string.ascii_letters + "_")


class _Parser:
    """Recursive descent over the token list; ``i`` is the next token."""

    def __init__(self, src: str):
        self.tokens, self.starts = _tokenize(src)
        self.i = 0
        self.depth = 0

    def expect_op(self, op: str):
        if self.tokens[self.i] != op:
            raise ExprSyntaxError(f"expected {op!r}", self.starts[self.i])
        self.i += 1

    def parse(self) -> Expr:
        e = self.expr()
        text = self.tokens[self.i]
        if text:
            raise ExprSyntaxError(f"trailing input {text!r}", self.starts[self.i])
        # a node takes at least one token of its own, so the tree is no
        # higher than the token count
        if len(self.tokens) - 1 > MAX_DEPTH and _height(e) > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", 0)
        return e

    def expr(self) -> Expr:
        e = self.term()
        tokens = self.tokens
        while (text := tokens[self.i]) in _ADD:
            self.i += 1
            e = BinOp(text, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        tokens = self.tokens
        while (text := tokens[self.i]) in _MUL:
            self.i += 1
            e = BinOp(text, e, self.factor())
        return e

    def factor(self) -> Expr:
        # every nested parse (parentheses, calls, unary minus, ^) comes here
        if self.depth == MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels",
                                  self.starts[self.i])
        self.depth += 1
        if self.tokens[self.i] == "-":
            self.i += 1
            e = Neg(self.factor())
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        if self.tokens[self.i] == "^":
            self.i += 1
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        i = self.i
        text = self.tokens[i]
        self.i = i + 1
        if text[:1] in _NAME_START:
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in _CONSTANTS:
                return Lit(_CONSTANTS[text])
            if _VAR.match(text):
                return Var(text)
            raise ExprSyntaxError(f"unknown identifier {text!r}", self.starts[i])
        if text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if text and text not in _OPERATORS:
            return Lit(float(text))
        raise ExprSyntaxError(
            f"expected a value, got {text!r}" if text else "unexpected end of input",
            self.starts[i])


def _height(e: Expr) -> int:
    """Levels of the tree, counted level by level instead of by recursion."""
    h, level = 0, [e]
    while level:
        h += 1
        level = [k for node in level for k in
                 ((node.arg,) if isinstance(node, (Neg, Call)) else
                  (node.left, node.right) if isinstance(node, BinOp) else ())]
    return h


def parse(src: str) -> Expr:
    if not isinstance(src, str) or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(src).parse()


def unparse(e: Expr) -> str:
    """Canonical text form; parse(unparse(e)) equals e structurally.

    Holds for every AST the parser itself can produce (the parser never
    emits a negative Lit, so hand-built Lit(-2.0) nodes round-trip to the
    equivalent Neg form instead).
    """
    return _unparse(e, 0)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _unparse(e: Expr, ctx: int) -> str:
    if isinstance(e, Lit):
        if e.value == math.inf:
            return "inf"
        if e.value == math.pi:
            return "pi"
        if e.value == math.e:
            return "e"
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({_unparse(e.arg, 0)})"
    if isinstance(e, Neg):
        s = "-" + _unparse(e.arg, _PREC["neg"])
        return f"({s})" if _PREC["neg"] < ctx else s
    p = _PREC[e.op]
    if e.op == "^":
        # right-assoc: chain rightward without parens, re-wrap a ^ on the left
        s = f"{_unparse(e.left, p + 1)}^{_unparse(e.right, p)}"
    else:
        s = f"{_unparse(e.left, p)} {e.op} {_unparse(e.right, p + 1)}"
    return f"({s})" if p < ctx else s


def evaluate(e: Expr, env: Mapping[str, object]) -> float:
    """env binds 'x' to a coordinate sequence and optionally 'n' to an int."""
    v = _eval(e, env)
    if math.isnan(v):
        raise DomainError(f"expression produced NaN: {unparse(e)}")
    return v


def _eval(e: Expr, env: Mapping[str, object]) -> float:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        if e.name == "n":
            n = env.get("n")
            if n is None:
                raise UnboundVariable("expression uses n outside a perturbation family")
            return float(n)
        x = env.get("x")
        idx = int(e.name[1:]) - 1
        if x is None or idx >= len(x):
            raise UnboundVariable(f"variable {e.name} not bound (domain has "
                                  f"{0 if x is None else len(x)} coordinates)")
        return float(x[idx])
    if isinstance(e, Neg):
        return -_eval(e.arg, env)
    if isinstance(e, Call):
        a = _eval(e.arg, env)
        if e.func in ("sin", "cos"):
            if math.isinf(a):
                raise DomainError(f"{e.func} of an infinite argument")
            return math.sin(a) if e.func == "sin" else math.cos(a)
        if e.func == "exp":
            return _exp(a)
        if e.func == "abs":
            return abs(a)
        if e.func == "sqrt":
            if a < 0:
                raise DomainError(f"sqrt of a negative number ({a})")
            return math.sqrt(a)
        raise DomainError(f"unknown function {e.func}")  # pragma: no cover
    a = _eval(e.left, env)
    b = _eval(e.right, env)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if e.op == "/":
        if b == 0.0:
            raise DomainError("division by zero")
        return a / b
    if e.op == "^":
        return _pow(a, b)
    raise DomainError(f"unknown operator {e.op}")  # pragma: no cover


def _exp(a: float) -> float:
    if a > 700.0:
        return math.inf   # saturating overflow contract
    return math.exp(a)


def _pow(a: float, b: float) -> float:
    try:
        return math.pow(a, b)
    except OverflowError:
        # raised only when the magnitude overflows; a negative base has an
        # integer exponent here, and an odd one keeps the sign
        return -math.inf if a < 0 and math.fmod(b, 2.0) != 0.0 else math.inf
    except ValueError:
        raise DomainError(f"invalid power {a} ^ {b}") from None


def _pow_or_nan(a: float, b: float) -> float:
    try:
        return _pow(a, b)
    except DomainError:
        return math.nan


# sin, cos, exp and ^ call the math functions element by element, so row
# values do not depend on the SIMD routines NumPy picks on a given host;
# + - * /, negation, abs and sqrt are correctly rounded in both
_ROW_CALLS = {"sin": np.frompyfunc(math.sin, 1, 1),
              "cos": np.frompyfunc(math.cos, 1, 1),
              "exp": np.frompyfunc(_exp, 1, 1)}
_MATH_POW = np.frompyfunc(math.pow, 2, 1)
_POW_OR_NAN = np.frompyfunc(_pow_or_nan, 2, 1)


def _row_pow(a, b):
    """_pow_or_nan element by element: one pass of math.pow, which gives
    _pow's bits wherever it returns, and a pass of _pow_or_nan only when
    some element raises."""
    try:
        return _MATH_POW(a, b)
    except (OverflowError, ValueError):
        return _POW_OR_NAN(a, b)


# what a subtree reads: no variable, n alone, or some coordinate
_CONST, _N, _X = 0, 1, 2


def evaluate_rows(e: Expr, x: np.ndarray,
                  n: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """``evaluate`` at every row of x (T, d), n unbound or one value per row.

    Returns (values, suspect), both of shape (T,). A row is suspect when
    some intermediate is NaN or infinite, a divisor is zero, a sqrt
    argument is negative, a power raises or a variable is unbound; every
    row where ``evaluate`` raises is among them. On the other rows the value
    is ``evaluate``'s, bit for bit.

    Finiteness is checked only where a non-finite value can vanish: at the
    argument of sin, cos and exp (replaced by 0, since math.sin(inf)
    raises), at a divisor (a/inf = 0), at both operands of ^ (1^nan = 1,
    2^-inf = 0) and at the root. NaN and infinities survive + - *, a
    dividend, negation, abs and sqrt, so a non-finite intermediate reaches
    one of those checks on every path up, and the mask is the one a check
    at every node would give. A sin, cos, exp or ^ whose operands read n
    and no coordinate is called once per distinct n (by bit pattern) and
    gathered back to the rows.
    """
    suspect = np.zeros(x.shape[0], dtype=bool)
    with np.errstate(all="ignore"):
        v, _ = _eval_rows(e, x, n, suspect, [])
        _flag(~np.isfinite(v), suspect)
    return np.broadcast_to(np.asarray(v, dtype=float), suspect.shape), suspect


def _flag(bad, suspect: np.ndarray) -> None:
    """suspect |= bad, with no pass over the rows for one False."""
    if np.ndim(bad):
        suspect |= bad
    elif bad:
        suspect[:] = True


def _per_n(f, n: np.ndarray, distinct: list, *args):
    """f(*args) at the first row of each distinct n, gathered to every row.

    Exact: operands that read n alone are the same bits wherever n is, and
    n's bit pattern keeps +0.0 and -0.0 apart. ``distinct`` caches the
    rows of one ``evaluate_rows`` call.
    """
    if not distinct:
        _, first, inverse = np.unique(n.view(np.int64), return_index=True,
                                      return_inverse=True)
        distinct += (first, inverse.reshape(-1))
    first, inverse = distinct
    return np.asarray(f(*(a[first] if isinstance(a, np.ndarray) and a.ndim
                          else a for a in args)), dtype=float)[inverse]


def _eval_rows(e: Expr, x: np.ndarray, n: Optional[np.ndarray],
               suspect: np.ndarray, distinct: list):
    """(value, reads): the value over the rows and _CONST, _N or _X."""
    if isinstance(e, Lit):
        return e.value, _CONST
    if isinstance(e, Var):
        if e.name == "n":
            if n is not None:
                return n, _N
        elif (k := int(e.name[1:]) - 1) < x.shape[1]:
            return x[:, k], _X
        suspect[:] = True   # unbound, so evaluate raises on every row
        return 0.0, _CONST
    if isinstance(e, Neg):
        a, reads = _eval_rows(e.arg, x, n, suspect, distinct)
        return -a, reads
    if isinstance(e, Call):
        a, reads = _eval_rows(e.arg, x, n, suspect, distinct)
        if e.func == "abs":
            return np.abs(a), reads
        if e.func == "sqrt":
            _flag(np.less(a, 0.0), suspect)
            return np.sqrt(a), reads
        finite = np.isfinite(a)
        if not finite.all():
            suspect |= ~finite
            a = np.where(finite, a, 0.0)   # math.sin(inf) raises
        f = _ROW_CALLS[e.func]
        if reads == _N:
            return _per_n(f, n, distinct, a), reads
        return np.asarray(f(a), dtype=float), reads
    a, ra = _eval_rows(e.left, x, n, suspect, distinct)
    b, rb = _eval_rows(e.right, x, n, suspect, distinct)
    reads = max(ra, rb)
    if e.op == "+":
        return np.add(a, b), reads
    if e.op == "-":
        return np.subtract(a, b), reads
    if e.op == "*":
        return np.multiply(a, b), reads
    if e.op == "/":
        _flag(np.equal(b, 0.0), suspect)
        _flag(~np.isfinite(b), suspect)
        return np.divide(a, b), reads
    _flag(~np.isfinite(a), suspect)
    _flag(~np.isfinite(b), suspect)
    if reads == _N:
        return _per_n(_row_pow, n, distinct, a, b), reads
    return np.asarray(_row_pow(a, b), dtype=float), reads
