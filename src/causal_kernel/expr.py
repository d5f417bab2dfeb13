"""Small expression DSL for building free-product elements on the command line.

Grammar (EBNF):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := scalar | ident | 'I' | 'adj(' expr ')' | '(' expr ')'
    scalar := NUMBER 'i'? | 'i'

Products are left-associative; ``I`` is the unit element; ``adj(...)`` is the
adjoint.  Scalars are floats with an optional trailing ``i`` for imaginary
literals, so a general complex constant is written as a sum like
``0.5+0.5i``.  Parse failures carry a 1-based line and column.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Mapping

from .algebra import FreeAlgebra, FreeElement


class ExprError(Exception):
    """Parse or evaluation failure with a source position."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class UnboundSymbolError(ExprError):
    pass


# ----------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Node:
    span: tuple[int, int] = field(default=(0, 0), compare=False, kw_only=True)


@dataclass(frozen=True)
class Scalar(Node):
    value: complex


@dataclass(frozen=True)
class Name(Node):
    name: str


@dataclass(frozen=True)
class UnitSym(Node):
    pass


@dataclass(frozen=True)
class Adj(Node):
    child: Node


@dataclass(frozen=True)
class Mul(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Sub(Node):
    left: Node
    right: Node


# ----------------------------------------------------------------------
# scanner

@dataclass(frozen=True)
class _Token:
    kind: str  # number, ident, op, end
    text: str
    line: int
    col: int


_NUMBER_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?i?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _scan(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch.isspace():
            col += 1
            pos += 1
            continue
        if ch in "+-*()":
            tokens.append(_Token("op", ch, line, col))
            pos += 1
            col += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(_Token("number", m.group(0), line, col))
            col += m.end() - pos
            pos = m.end()
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            tokens.append(_Token("ident", m.group(0), line, col))
            col += m.end() - pos
            pos = m.end()
            continue
        raise ExprError(line, col, f"unknown token {ch!r}")
    tokens.append(_Token("end", "", line, col))
    return tokens


# ----------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExprError(tok.line, tok.col, f"expected {op!r}")
        return self.advance()

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                right = self.parse_term()
                cls = Add if tok.text == "+" else Sub
                node = cls(node, right, span=(tok.line, tok.col))
            else:
                return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                right = self.parse_factor()
                node = Mul(node, right, span=(tok.line, tok.col))
            else:
                return node

    def parse_factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            text = tok.text
            x = float(text.removesuffix("i"))
            if not math.isfinite(x):
                raise ExprError(tok.line, tok.col, f"scalar {text!r} overflows a float")
            value = complex(0.0, x) if text.endswith("i") else complex(x, 0.0)
            return Scalar(value, span=(tok.line, tok.col))
        if tok.kind == "ident":
            self.advance()
            if tok.text == "i":
                return Scalar(1j, span=(tok.line, tok.col))
            if tok.text == "I":
                return UnitSym(span=(tok.line, tok.col))
            if tok.text == "adj":
                self.expect_op("(")
                child = self.parse_expr()
                self.expect_op(")")
                return Adj(child, span=(tok.line, tok.col))
            return Name(tok.text, span=(tok.line, tok.col))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprError(tok.line, tok.col, f"expected a scalar, name, 'I', 'adj(' or '(', got {tok.text!r}")


def parse(text: str) -> Node:
    """Parse a DSL expression into an AST; raises ExprError with line:col."""
    parser = _Parser(_scan(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExprError(tok.line, tok.col, f"unexpected trailing input {tok.text!r}")
    return node


# ----------------------------------------------------------------------
# pretty printer

def _fmt_real(x: float) -> str:
    if x < 0:
        raise ValueError("the grammar has no negative literals")
    return repr(float(x))


def pretty(node: Node) -> str:
    """Render an AST back to source; parse(pretty(parse(t))) == parse(t)."""
    if isinstance(node, Scalar):
        v = node.value
        if v.imag == 0.0:
            return _fmt_real(v.real)
        if v.real == 0.0:
            return "i" if v.imag == 1.0 else _fmt_real(v.imag) + "i"
        return f"{_fmt_real(v.real)} + {_fmt_real(v.imag)}i"
    if isinstance(node, Name):
        return node.name
    if isinstance(node, UnitSym):
        return "I"
    if isinstance(node, Adj):
        return f"adj({pretty(node.child)})"
    if isinstance(node, Mul):
        left = pretty(node.left)
        if isinstance(node.left, (Add, Sub)):
            left = f"({left})"
        right = pretty(node.right)
        if isinstance(node.right, (Add, Sub, Mul)):
            right = f"({right})"
        return f"{left}*{right}"
    if isinstance(node, (Add, Sub)):
        op = "+" if isinstance(node, Add) else "-"
        left = pretty(node.left)
        right = pretty(node.right)
        if isinstance(node.right, (Add, Sub)):
            right = f"({right})"
        return f"{left} {op} {right}"
    raise TypeError(f"not an AST node: {node!r}")


# ----------------------------------------------------------------------
# evaluation

def eval_expr(
    node: Node,
    symbols: Mapping[str, FreeElement],
    algebra: FreeAlgebra,
) -> FreeElement:
    """Evaluate an AST to a FreeElement over the given algebra."""
    if isinstance(node, Scalar):
        return node.value * algebra.unit()
    if isinstance(node, UnitSym):
        return algebra.unit()
    if isinstance(node, Name):
        try:
            return symbols[node.name]
        except KeyError:
            raise UnboundSymbolError(
                node.span[0], node.span[1], f"unbound symbol {node.name}"
            ) from None
    if isinstance(node, Adj):
        return eval_expr(node.child, symbols, algebra).star()
    if isinstance(node, Mul):
        return eval_expr(node.left, symbols, algebra) * eval_expr(node.right, symbols, algebra)
    if isinstance(node, Add):
        return eval_expr(node.left, symbols, algebra) + eval_expr(node.right, symbols, algebra)
    if isinstance(node, Sub):
        return eval_expr(node.left, symbols, algebra) - eval_expr(node.right, symbols, algebra)
    raise TypeError(f"not an AST node: {node!r}")
