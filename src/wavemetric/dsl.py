"""Coefficient expression language: parser, evaluator, printer.

Grammar (recursive descent, '^' binds tighter than unary minus and is
right-associative)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

so ``-x^2`` is ``-(x^2)`` and ``2^3^2`` is ``2^(3^2)``.  Identifiers are the
coordinates ``x``, ``y``, ``z``, the constants ``pi`` and ``e``, and the
functions below; there is no implicit multiplication.

Evaluation is IEEE-754 double precision (division by zero yields inf), except
that ``log``/``sqrt`` of negative arguments and invalid powers raise
:class:`~wavemetric.errors.DomainEvalError` instead of propagating NaN.
Evaluation accepts scalars or numpy arrays for the coordinates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainEvalError, ExpressionError

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "parse",
    "eval_expr",
    "to_text",
    "expr_variables",
    "FUNCTIONS",
    "CONSTANTS",
    "VARIABLES",
]

FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "tanh": 1,
    "min": 2,
    "max": 2,
    "pow": 2,
}

CONSTANTS = {"pi": np.pi, "e": np.e}

VARIABLES = ("x", "y", "z")


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    span: tuple[int, int] = field(default=(0, 0), compare=False, kw_only=True)


@dataclass(frozen=True)
class Num(Expr):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Expr):
    name: str = "x"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr = None


@dataclass(frozen=True)
class Bin(Expr):
    op: str = "+"
    lhs: Expr = None
    rhs: Expr = None


@dataclass(frozen=True)
class Call(Expr):
    fn: str = "sin"
    args: tuple[Expr, ...] = ()


# --- tokenizer -------------------------------------------------------------

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = set("+-*/^(),")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, 0-based offset) tuples, ending with an 'end' token."""
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        m = _NUMBER.match(src, i)
        if m:
            tokens.append(("number", m.group(), i))
            i = m.end()
            continue
        m = _IDENT.match(src, i)
        if m:
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i + 1)
    tokens.append(("end", "", n))
    return tokens


# --- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            self.fail((kind,))
        return self.advance()

    def fail(self, expected: tuple[str, ...]):
        kind, text, off = self.peek()
        what = "end of input" if kind == "end" else f"{text!r}"
        raise ExpressionError(f"unexpected {what}", off + 1, expected)

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek()[0] != "end":
            self.fail(("operator", "end of input"))
        return e

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = Bin(op, node, rhs, span=(node.span[0], rhs.span[1]))
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            node = Bin(op, node, rhs, span=(node.span[0], rhs.span[1]))
        return node

    def factor(self) -> Expr:
        if self.peek()[0] == "-":
            _, _, off = self.advance()
            arg = self.factor()
            return Neg(arg, span=(off, arg.span[1]))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            expo = self.factor()
            return Bin("^", base, expo, span=(base.span[0], expo.span[1]))
        return base

    def atom(self) -> Expr:
        kind, text, off = self.peek()
        if kind == "number":
            self.advance()
            return Num(float(text), span=(off, off + len(text)))
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise ExpressionError(f"unknown function {text!r}", off + 1)
                self.advance()
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.expr())
                _, _, close = self.expect(")")
                want = FUNCTIONS[text]
                if len(args) != want:
                    raise ExpressionError(
                        f"function {text!r} expects {want} argument(s), got {len(args)}",
                        off + 1,
                    )
                return Call(text, tuple(args), span=(off, close + 1))
            if text in CONSTANTS:
                return Num(CONSTANTS[text], span=(off, off + len(text)))
            if text in VARIABLES:
                return Var(text, span=(off, off + len(text)))
            if text in FUNCTIONS:
                raise ExpressionError(
                    f"function {text!r} requires an argument list", off + 1
                )
            raise ExpressionError(f"unknown identifier {text!r}", off + 1)
        self.fail(("number", "identifier", "'('", "'-'"))


def parse(src: str) -> Expr:
    """Parse a coefficient expression; raises ExpressionError with 1-based offsets."""
    return _Parser(src).parse()


# --- evaluation ------------------------------------------------------------

def expr_variables(e: Expr) -> frozenset[str]:
    """Set of coordinate names the expression reads."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return expr_variables(e.arg)
    if isinstance(e, Bin):
        return expr_variables(e.lhs) | expr_variables(e.rhs)
    if isinstance(e, Call):
        out = frozenset()
        for a in e.args:
            out |= expr_variables(a)
        return out
    return frozenset()


def _coord_env(coords) -> dict:
    if hasattr(coords, "keys"):
        env = dict(coords)
    else:
        seq = list(coords)
        if len(seq) > len(VARIABLES):
            raise ValueError(f"at most {len(VARIABLES)} coordinates supported")
        env = dict(zip(VARIABLES, seq))
    for name in env:
        if name not in VARIABLES:
            raise ValueError(f"unknown coordinate name {name!r}")
    return env


def point_where(coords, mask) -> np.ndarray:
    """Coordinates of the first sample (C order) where the mask holds; the
    coordinate scalars or arrays and the mask broadcast together."""
    shape = np.broadcast_shapes(np.shape(mask), *(np.shape(c) for c in coords))
    idx = np.unravel_index(int(np.argmax(np.broadcast_to(mask, shape))), shape)
    return np.array([np.broadcast_to(c, shape)[idx] for c in coords], dtype=float)


def _point(env: dict, mask=True) -> dict:
    """The first sample where the mask holds, as plain floats by coordinate name."""
    return dict(zip(env, point_where(tuple(env.values()), mask).tolist()))


def _fragment(e: Expr, src: str) -> str:
    lo, hi = e.span
    if src and hi > lo:
        return src[lo:hi]
    return to_text(e)


def _check_domain(cond, message: str, e: Expr, src: str, env: dict):
    if np.any(cond):
        raise DomainEvalError(message, point=_point(env, cond), fragment=_fragment(e, src))


def _eval(e: Expr, env: dict, src: str):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.name not in env:
            raise DomainEvalError(
                f"coordinate {e.name!r} not supplied",
                point=_point(env),
                fragment=_fragment(e, src),
            )
        return env[e.name]
    if isinstance(e, Neg):
        return -_eval(e.arg, env, src)
    if isinstance(e, Bin):
        a = _eval(e.lhs, env, src)
        b = _eval(e.rhs, env, src)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return np.divide(a, b)
        return _eval_pow(a, b, e, src, env)
    if isinstance(e, Call):
        args = [_eval(a, env, src) for a in e.args]
        fn = e.fn
        if fn == "log":
            _check_domain(
                np.asarray(args[0]) <= 0, "log of a non-positive value", e, src, env
            )
            return np.log(args[0])
        if fn == "sqrt":
            _check_domain(
                np.asarray(args[0]) < 0, "sqrt of a negative value", e, src, env
            )
            return np.sqrt(args[0])
        if fn == "pow":
            return _eval_pow(args[0], args[1], e, src, env)
        if fn == "min":
            return np.minimum(args[0], args[1])
        if fn == "max":
            return np.maximum(args[0], args[1])
        return getattr(np, fn)(args[0])
    raise TypeError(f"not an expression node: {e!r}")


def _eval_pow(a, b, e: Expr, src: str, env: dict):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    _check_domain(
        (a < 0) & (b != np.round(b)), "fractional power of a negative base", e, src, env
    )
    _check_domain((a == 0) & (b < 0), "zero base with a negative exponent", e, src, env)
    return np.power(a, b)


def eval_expr(e: Expr, coords, *, source: str = ""):
    """Evaluate at a point (mapping name->value or sequence bound to x, y, z).

    Coordinate values may be scalars or numpy arrays (broadcast together).
    Returns a float for scalar input, an ndarray otherwise.  A domain error
    names the first offending sample in C order.
    """
    env = _coord_env(coords)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _eval(e, env, source)
    if np.ndim(out) == 0:
        return float(out)
    return np.asarray(out, dtype=float)


# --- printer ---------------------------------------------------------------

def _print_num(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError(f"cannot print non-finite literal {v!r}")
    if v < 0:
        # parser never produces negative literals; print as a negation
        return "-" + _print_num(-v)
    return repr(v)


def to_text(e: Expr) -> str:
    """Render with minimal parentheses so that parse(to_text(e)) == e."""
    if isinstance(e, Num):
        return _print_num(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_text(e.arg)
        # '-' binds looser than '^' but tighter than '*': parenthesize products
        # and sums underneath so re-parsing keeps the tree shape
        if isinstance(e.arg, Bin) and e.arg.op in "+-*/":
            inner = f"({inner})"
        return "-" + inner
    if isinstance(e, Call):
        return f"{e.fn}(" + ", ".join(to_text(a) for a in e.args) + ")"
    if isinstance(e, Bin):
        lhs, rhs = to_text(e.lhs), to_text(e.rhs)
        if e.op in "+-":
            if isinstance(e.rhs, Bin) and e.rhs.op in "+-":
                rhs = f"({rhs})"
            return f"{lhs} {e.op} {rhs}"
        if e.op in "*/":
            if isinstance(e.lhs, Bin) and e.lhs.op in "+-":
                lhs = f"({lhs})"
            if (isinstance(e.rhs, Bin) and e.rhs.op in "+-*/") or isinstance(
                e.rhs, Neg
            ):
                rhs = f"({rhs})"
            return f"{lhs}{e.op}{rhs}"
        # power, right-associative; bases tighter than atoms need parens
        if isinstance(e.lhs, (Bin, Neg)):
            lhs = f"({lhs})"
        if isinstance(e.rhs, Bin) and e.rhs.op in "+-*/":
            rhs = f"({rhs})"
        return f"{lhs}^{rhs}"
    raise TypeError(f"not an expression node: {e!r}")
