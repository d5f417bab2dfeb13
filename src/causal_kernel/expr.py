"""Small expression DSL for building free-product elements on the command line.

Grammar (EBNF):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := scalar | ident | 'I' | 'adj(' expr ')' | '(' expr ')'
    scalar := NUMBER 'i'? | 'i'

Sums and products are flat chains of any length, folded left to right;
``I`` is the unit element; ``adj(...)`` is the adjoint.  Scalars are floats
with an optional trailing ``i`` for imaginary literals, so a general complex
constant is written as a sum like ``0.5+0.5i``.  A tree is only as deep as
its parentheses: ``(`` and ``adj(`` nest at most ``MAX_DEPTH`` levels.
Parse failures carry a 1-based line and column.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from typing import Mapping

from .algebra import FreeAlgebra, FreeElement

# Nesting limit for '(' and 'adj('.  The parser recurses three frames per
# level, pretty and eval_expr one per node (at most three nodes per level),
# so at this depth they stay inside the default recursion limit of 1000.
MAX_DEPTH = 200


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

class Node:
    """Base of the AST node classes.  ``==``, ``hash`` and ``repr`` walk the
    tree with a stack: the generated ones recurse several interpreter levels
    per node, too deep for a tree ``MAX_DEPTH`` levels deep."""

    def _tokens(self, compared: bool) -> list:
        """The dataclass repr as text pieces and 1-tuples of leaf values;
        with ``compared`` only the fields that take part in ``==``."""
        out, stack = [], [(self,)]
        while stack:
            item = stack.pop()
            value = None if isinstance(item, str) else item[0]
            if isinstance(value, Node):
                parts = [(f"{f.name}=", getattr(value, f.name)) for f in fields(value)
                         if (f.compare if compared else f.repr)]
                head, tail = f"{type(value).__name__}(", ")"
            elif isinstance(value, tuple) and any(isinstance(v, Node) for v in value):
                parts = [("", v) for v in value]
                head, tail = "(", ",)" if len(value) == 1 else ")"
            else:
                out.append(item)
                continue
            stack.append(tail)
            for i, (label, v) in reversed(list(enumerate(parts))):
                stack += [(v,), ", " * (i > 0) + label]
            stack.append(head)
        return out

    def __eq__(self, other):
        return isinstance(other, Node) and self._tokens(True) == other._tokens(True)

    def __hash__(self):
        return hash(tuple(self._tokens(True)))

    def __repr__(self):
        tokens = self._tokens(False)
        return "".join(t if isinstance(t, str) else repr(t[0]) for t in tokens)


@dataclass(frozen=True, eq=False, repr=False)
class Scalar(Node):
    value: complex


@dataclass(frozen=True, eq=False, repr=False)
class Name(Node):
    name: str
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class UnitSym(Node):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Adj(Node):
    child: Node


@dataclass(frozen=True, eq=False, repr=False)
class Sum(Node):
    """``terms[0] ops[0] terms[1] ops[1] ...``, each op ``'+'`` or ``'-'``."""
    terms: tuple[Node, ...]
    ops: tuple[str, ...]


@dataclass(frozen=True, eq=False, repr=False)
class Product(Node):
    factors: tuple[Node, ...]


# ----------------------------------------------------------------------
# scanner

@dataclass(frozen=True)
class _Token:
    kind: str  # number, ident, op, end
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>\s)
  | (?P<op>[-+*()])
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<bad>.)
""", re.VERBOSE)


def _scan(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        col = m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ExprError(line, col, f"unknown token {m.group()!r}")
        elif kind != "space":
            tokens.append(_Token(kind, m.group(), line, col))
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


# ----------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

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
        terms, ops = [self.parse_term()], []
        while (tok := self.peek()).kind == "op" and tok.text in "+-":
            self.advance()
            ops.append(tok.text)
            terms.append(self.parse_term())
        return Sum(tuple(terms), tuple(ops)) if ops else terms[0]

    def parse_term(self) -> Node:
        factors = [self.parse_factor()]
        while (tok := self.peek()).kind == "op" and tok.text == "*":
            self.advance()
            factors.append(self.parse_factor())
        return Product(tuple(factors)) if len(factors) > 1 else factors[0]

    def parse_factor(self) -> Node:
        tok = self.advance()
        if tok.kind == "number":
            text = tok.text
            x = float(text.removesuffix("i"))
            if not math.isfinite(x):
                raise ExprError(tok.line, tok.col, f"scalar {text!r} overflows a float")
            return Scalar(complex(0.0, x) if text.endswith("i") else complex(x, 0.0))
        if tok.kind == "ident":
            if tok.text == "i":
                return Scalar(1j)
            if tok.text == "I":
                return UnitSym()
            if tok.text != "adj":
                return Name(tok.text, span=(tok.line, tok.col))
            self.expect_op("(")
        elif tok.kind != "op" or tok.text != "(":
            raise ExprError(tok.line, tok.col, f"expected a scalar, name, 'I', 'adj(' or '(', got {tok.text!r}")
        # inside '(' or 'adj(': one level deeper
        if self.depth == MAX_DEPTH:
            raise ExprError(tok.line, tok.col, f"nesting deeper than {MAX_DEPTH}")
        self.depth += 1
        node = self.parse_expr()
        self.expect_op(")")
        self.depth -= 1
        return Adj(node) if tok.text == "adj" else node


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
    # one frame per node: a loop, not a helper or a comprehension, renders
    # the parts, so a tree MAX_DEPTH parentheses deep stays within the stack
    if isinstance(node, Sum):
        text = ""
        for sep, term in zip(("", *(f" {op} " for op in node.ops)), node.terms):
            part = pretty(term)
            text += sep + (f"({part})" if isinstance(term, Sum) else part)
        return text
    if isinstance(node, Product):
        parts = []
        for factor in node.factors:
            part = pretty(factor)
            parts.append(f"({part})" if isinstance(factor, (Sum, Product)) else part)
        return "*".join(parts)
    raise TypeError(f"not an AST node: {node!r}")


# ----------------------------------------------------------------------
# evaluation

def eval_expr(
    node: Node,
    symbols: Mapping[str, FreeElement],
    algebra: FreeAlgebra,
) -> FreeElement:
    """Evaluate an AST to a FreeElement over the given algebra; sums and
    products fold left to right."""
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
    if isinstance(node, Sum):
        acc = eval_expr(node.terms[0], symbols, algebra)
        for op, term in zip(node.ops, node.terms[1:]):
            value = eval_expr(term, symbols, algebra)
            acc = acc + value if op == "+" else acc - value
        return acc
    if isinstance(node, Product):
        acc = eval_expr(node.factors[0], symbols, algebra)
        for factor in node.factors[1:]:
            acc = acc * eval_expr(factor, symbols, algebra)
        return acc
    raise TypeError(f"not an AST node: {node!r}")
