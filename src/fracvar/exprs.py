"""A minimal arithmetic grammar for config-supplied functions.

Grammar (standard precedence, ^ binds tightest and associates right):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := number | 'pi' | variable | function '(' expr ')' | '(' expr ')'

Variables are t1..tn for an arity-n domain, plus the alias x (t1 when the
arity is 1, otherwise t2 -- the first space axis of a time-first grid) and,
when enabled, the field value u.  Functions: sin, cos, exp, sqrt, abs.
Parse errors carry the character position; out-of-range variables raise
ArityError at parse time; non-finite values during evaluation (division by
zero, sqrt of a negative, overflow, a negative base to a fractional power)
raise EvalError, constant subexpressions included: number atoms and pi are
numpy float64 scalars, so all arithmetic is numpy's.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ArityError, DomainError, EvalError, ParseError
from .model import _is_integer

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

# Constants are numpy scalars, so that constant subexpressions such as 1/0,
# 10^400 or (0-8)^(1/3) evaluate in numpy under the caller's errstate, to
# inf or NaN, rather than raising or turning complex in Python arithmetic.
_PI = np.float64(np.pi)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))")


class _Parser:
    def __init__(self, text: str, arity: int, allow_u: bool) -> None:
        self.text = text
        self.arity = arity
        self.allow_u = allow_u
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.lastgroup is None:
                at = pos + len(text[pos:]) - len(text[pos:].lstrip())
                raise ParseError(f"unexpected character {text[at]!r}", at)
            self.tokens.append((m.lastgroup, m.group(m.lastgroup),
                                m.start(m.lastgroup)))
            pos = m.end()
        self.i = 0

    def _peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def _accept_op(self, ops: str) -> Optional[str]:
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] in ops:
            self.i += 1
            return tok[1]
        return None

    def parse(self) -> Callable:
        node = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def _expr(self) -> Callable:
        node = self._term()
        while True:
            op = self._accept_op("+-")
            if op is None:
                return node
            node = _binary(op, node, self._term())

    def _term(self) -> Callable:
        node = self._unary()
        while True:
            op = self._accept_op("*/")
            if op is None:
                return node
            node = _binary(op, node, self._unary())

    def _unary(self) -> Callable:
        if self._accept_op("-"):
            inner = self._unary()
            return lambda env: -inner(env)
        return self._power()

    def _power(self) -> Callable:
        base = self._atom()
        if self._accept_op("^"):
            return _binary("^", base, self._unary())
        return base

    def _atom(self) -> Callable:
        kind, value, pos = self._next()
        if kind == "number":
            const = np.float64(value)
            return lambda env: const
        if kind == "op" and value == "(":
            node = self._expr()
            self._expect_close(pos)
            return node
        if kind == "name":
            return self._name(value, pos)
        raise ParseError(f"unexpected {value!r}", pos)

    def _expect_close(self, open_pos: int) -> None:
        tok = self._peek()
        if tok is None or tok[0] != "op" or tok[1] != ")":
            raise ParseError("unbalanced '(' ", open_pos)
        self.i += 1

    def _name(self, name: str, pos: int) -> Callable:
        if name == "pi":
            return lambda env: _PI
        if name in _FUNCTIONS:
            tok = self._peek()
            if tok is None or tok[0] != "op" or tok[1] != "(":
                raise ParseError(f"function {name!r} needs '('", pos)
            self.i += 1
            arg = self._expr()
            self._expect_close(pos)
            fn = _FUNCTIONS[name]
            return lambda env: fn(arg(env))
        if name == "u":
            if not self.allow_u:
                raise ParseError("'u' is not available in this context", pos)
            return _u_value
        if name == "x":
            index = 0 if self.arity == 1 else 1
            if index >= self.arity:
                raise ArityError(
                    f"'x' needs a space axis (arity {self.arity})", pos)
            return lambda env: env[index]
        m = re.fullmatch(r"t(\d+)", name)
        if m is not None:
            index = int(m.group(1)) - 1
            if not 0 <= index < self.arity:
                raise ArityError(
                    f"variable {name!r} out of range for arity {self.arity}",
                    pos)
            return lambda env: env[index]
        raise ParseError(f"unknown name {name!r}", pos)


def _u_value(env):
    if env[-1] is None:
        raise EvalError("expression uses 'u' but no field values were supplied")
    return env[-1]


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}


def _binary(op: str, a: Callable, b: Callable) -> Callable:
    fn = _BINARY[op]
    return lambda env: fn(a(env), b(env))


def parse_function(text: str, arity: int, allow_u: bool = False) -> Callable:
    """Compile an expression string into ``fn(coords, u=None) -> ndarray``.

    ``coords`` is a sequence of broadcastable coordinate arrays (one per
    axis, as produced by GridND.coords()); ``u`` is the field-value array
    when the expression uses it.  The result is broadcast over the grid.
    Non-finite values anywhere raise EvalError.  Raises DomainError unless
    arity is an integer (``model._is_integer``) >= 1; below 1 it is checked
    after parsing, so that a variable raises ArityError at its position
    first, as at any arity too small for it.
    """
    bad_arity = DomainError(f"arity must be an integer >= 1, got {arity!r}")
    if not _is_integer(arity):
        raise bad_arity
    node = _Parser(text, arity, allow_u).parse()
    if arity < 1:
        raise bad_arity

    def evaluate(coords: Sequence[np.ndarray], u: Optional[np.ndarray] = None):
        env = list(coords) + [u]
        with np.errstate(all="ignore"):
            out = node(env)
        out = np.asarray(out, dtype=float)
        if not np.all(np.isfinite(out)):
            raise EvalError(
                f"expression {text!r} produced non-finite values on the grid")
        return out

    return evaluate
