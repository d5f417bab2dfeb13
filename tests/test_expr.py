import pathlib
import textwrap

import numpy as np
import pytest

from causal_kernel import expr
from causal_kernel.expr import (
    MAX_DEPTH,
    Adj,
    ExprError,
    Name,
    Product,
    Scalar,
    Sum,
    UnboundSymbolError,
    UnitSym,
    eval_expr,
    parse,
    pretty,
)
from causal_kernel.sampling import random_element

from conftest import SX, SY


class TestParsing:
    def test_unit_symbol(self):
        assert parse("I") == UnitSym()

    def test_adjoint_of_product(self):
        assert parse("adj(x*y)") == Adj(Product((Name("x"), Name("y"))))

    def test_scalar_product_with_sum(self):
        node = parse("(0.5+0.5i)*x1*y2 + I")
        scalar = Sum((Scalar(0.5 + 0j), Scalar(0.5j)), ("+",))
        expected = Sum((Product((scalar, Name("x1"), Name("y2"))), UnitSym()), ("+",))
        assert node == expected

    def test_precedence_product_binds_tighter(self):
        assert parse("a+b*c") == Sum((Name("a"), Product((Name("b"), Name("c")))), ("+",))

    def test_left_associative_sums(self):
        # a chain is one flat node; only parentheses nest
        a, b, c = Name("a"), Name("b"), Name("c")
        assert parse("a-b+c") == Sum((a, b, c), ("-", "+"))
        assert parse("a-(b+c)") == Sum((a, Sum((b, c), ("+",))), ("-",))
        assert parse("(a-b)+c") == Sum((Sum((a, b), ("-",)), c), ("+",))

    def test_left_associative_products(self):
        a, b, c = Name("a"), Name("b"), Name("c")
        assert parse("a*b*c") == Product((a, b, c))
        assert parse("a*(b*c)") == Product((a, Product((b, c))))
        assert parse("((a))") == a

    @pytest.mark.parametrize(
        "text,value",
        [
            ("i", 1j),
            ("1i", 1j),
            ("2.5i", 2.5j),
            ("2.5e-3", 0.0025 + 0j),
            ("0.25", 0.25 + 0j),
            (".5", 0.5 + 0j),
            ("3E+2i", 300j),
        ],
    )
    def test_scalar_literals(self, text, value):
        assert parse(text) == Scalar(value)

    def test_compound_scalar_is_a_sum(self):
        assert parse("2.5e-3+0i") == Sum((Scalar(0.0025 + 0j), Scalar(0j)), ("+",))

    def test_identifier_starting_with_i(self):
        assert parse("i2") == Name("i2")


class TestParseErrors:
    def test_unknown_token_position(self):
        with pytest.raises(ExprError) as err:
            parse("x + $")
        assert err.value.line == 1
        assert err.value.col == 5
        assert "unknown token" in err.value.message

    def test_unbalanced_paren(self):
        with pytest.raises(ExprError, match="expected"):
            parse("(x + y")

    def test_trailing_input(self):
        with pytest.raises(ExprError, match="trailing"):
            parse("x y")

    def test_multiline_position(self):
        with pytest.raises(ExprError) as err:
            parse("x +\n  )")
        assert err.value.line == 2
        assert err.value.col == 3

    def test_empty_input(self):
        with pytest.raises(ExprError):
            parse("")

    @pytest.mark.parametrize("text, col", [("1e400", 1), ("x + 2e308i", 5),
                                           ("(1e999*x)", 2)])
    def test_scalar_that_overflows_is_an_error_at_its_column(self, text, col):
        with pytest.raises(ExprError, match="overflows") as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, col)

    def test_message_format(self):
        with pytest.raises(ExprError) as err:
            parse("adj x")
        assert str(err.value).startswith("1:5: ")


ROUND_TRIP_CORPUS = [
    "I",
    "i",
    "x",
    "x1*y2",
    "adj(x)",
    "adj(x*y)",
    "adj(adj(x))",
    "x + y",
    "x - y",
    "x + y - z",
    "x*y + y*x",
    "(x + y)*z",
    "x*(y + z)",
    "2.5*x",
    "0.5i*x + I",
    "(0.5+0.5i)*x1*y2 + I",
    "adj(x + y)*adj(z)",
    "1e-3*x + 2E+2i*y",
    "x*y*z*w",
    "(x - y)*(x + y)",
    "I + I",
    "adj(I)",
    "0.1 + 0.2i",
    "x*adj(y*z) - w",
    "(x)*((y))",
    "(x - y) + z",
    "x - (y + z)",
    "(x*y)*z",
    "x*(y*z)",
]


def _random_ast(rng, depth=0):
    kinds = ["scalar", "name", "unit"]
    if depth < 3:
        kinds += ["sum", "product", "adj"] * 2
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "scalar":
        if rng.random() < 0.5:
            return Scalar(complex(float(abs(rng.normal())), 0.0))
        return Scalar(complex(0.0, float(abs(rng.normal()))))
    if kind == "name":
        return Name(["x", "y", "z", "x1", "y2", "alpha"][int(rng.integers(6))])
    if kind == "unit":
        return UnitSym()
    if kind == "adj":
        return Adj(_random_ast(rng, depth + 1))
    # children may be of the parent's own kind: a Sum in a Sum, a Product
    # in a Product
    parts = tuple(_random_ast(rng, depth + 1) for _ in range(int(rng.integers(2, 5))))
    if kind == "product":
        return Product(parts)
    return Sum(parts, tuple("+-"[int(rng.integers(2))] for _ in parts[1:]))


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_corpus_round_trips(self, text):
        ast = parse(text)
        assert parse(pretty(ast)) == ast

    def test_random_asts_round_trip(self, rng):
        for _ in range(60):
            ast = _random_ast(rng)
            assert parse(pretty(ast)) == ast


class TestFlatChainsAndNesting:
    def test_long_sum_is_the_left_fold(self, qubit_pair_algebra, rng):
        alg = qubit_pair_algebra
        names = ["x", "y", "z"]
        symbols = {n: random_element(rng, alg, max_len=2) for n in names}
        picks = [names[k] for k in rng.integers(3, size=5000)]
        ops = ["+-"[k] for k in rng.integers(2, size=4999)]
        ast = parse(picks[0] + "".join(op + n for op, n in zip(ops, picks[1:])))
        assert ast == Sum(tuple(map(Name, picks)), tuple(ops))
        expected = symbols[picks[0]]
        for op, n in zip(ops, picks[1:]):
            expected = expected + symbols[n] if op == "+" else expected - symbols[n]
        assert eval_expr(ast, symbols, alg).terms == expected.terms

    def test_long_product_is_the_left_fold(self, qubit_pair_algebra, rng):
        alg = qubit_pair_algebra
        symbols = {"x": alg.embed(1, SX), "y": alg.embed(1, SY)}
        picks = ["xy"[k] for k in rng.integers(2, size=1000)]
        ast = parse("*".join(picks))
        assert ast == Product(tuple(map(Name, picks)))
        expected = symbols[picks[0]]
        for n in picks[1:]:
            expected = expected * symbols[n]
        assert eval_expr(ast, symbols, alg).terms == expected.terms

    NESTINGS = {
        "(": lambda x, inner: inner,
        "adj(": lambda x, inner: inner.star(),
        "x+(": lambda x, inner: x + inner,
        "x*(": lambda x, inner: x * inner,
        "x+x*adj(": lambda x, inner: x + x * inner.star(),
    }

    @pytest.mark.parametrize("opener", NESTINGS)
    def test_nesting_at_the_limit_evaluates(self, opener, qubit_pair_algebra):
        x = qubit_pair_algebra.embed(1, SX) + 0.5 * qubit_pair_algebra.embed(1, SY)
        ast = parse(opener * MAX_DEPTH + "x" + ")" * MAX_DEPTH)
        text = pretty(ast)
        assert pretty(parse(text)) == text
        expected = x
        for _ in range(MAX_DEPTH):
            expected = self.NESTINGS[opener](x, expected)
        assert eval_expr(ast, {"x": x}, qubit_pair_algebra).terms == expected.terms

    # up to three nodes per level: ==, hash and repr walk the tree without
    # recursion, so they work at MAX_DEPTH whatever the recursion limit left
    @pytest.mark.parametrize("opener", ["(", "adj(", "x+(", "x*(", "x*adj(", "x+x*adj("])
    def test_nesting_at_the_limit_round_trips(self, opener):
        text = opener * MAX_DEPTH + "x" + ")" * MAX_DEPTH
        ast, again = parse(text), parse(text)
        assert ast == again and hash(ast) == hash(again)
        assert parse(pretty(ast)) == ast
        assert repr(ast).count("Name(") == 1 + opener.count("x") * MAX_DEPTH
        assert ast != parse(text.replace("x)", "y)", 1))

    @pytest.mark.parametrize("opener, col", [("(", MAX_DEPTH + 1),
                                             ("adj(", 4 * MAX_DEPTH + 1),
                                             ("x+(", 3 * MAX_DEPTH + 3)])
    def test_nesting_beyond_the_limit_is_an_error_at_its_column(self, opener, col):
        with pytest.raises(ExprError) as err:
            parse("\n" + opener * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1))
        assert (err.value.line, err.value.col) == (2, col)
        assert err.value.message == f"nesting deeper than {MAX_DEPTH}"

    def test_depth_counts_nesting_not_groups(self):
        deep = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
        assert parse(f"{deep} + {deep}*{deep}") == parse("x + x*x")


def test_readme_and_docstring_share_one_grammar():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    readme_block = readme.split("## Expression language", 1)[1].split("```\n", 2)[1]
    doc_block = expr.__doc__.split("Grammar (EBNF):\n\n", 1)[1].split("\n\n", 1)[0]
    assert "expr   :=" in readme_block
    assert textwrap.dedent(doc_block).strip() == readme_block.strip()


class TestEval:
    def test_unit(self, qubit_pair_algebra):
        el = eval_expr(parse("I"), {}, qubit_pair_algebra)
        assert el.isclose(qubit_pair_algebra.unit())

    def test_letter_times_adjoint(self, qubit_pair_algebra):
        x = qubit_pair_algebra.embed(1, SX)
        el = eval_expr(parse("x*adj(x)"), {"x": x}, qubit_pair_algebra)
        assert el.isclose(qubit_pair_algebra.unit())

    def test_cross_factor_product_is_length_two(self, qubit_pair_algebra):
        symbols = {
            "x": qubit_pair_algebra.embed(1, SX),
            "y": qubit_pair_algebra.embed(2, SY),
        }
        el = eval_expr(parse("x*y"), symbols, qubit_pair_algebra)
        assert el.terms == {((1, 0), (2, 1)): 1.0 + 0j}

    def test_unbound_symbol(self, qubit_pair_algebra):
        with pytest.raises(UnboundSymbolError, match="unbound symbol z") as err:
            eval_expr(parse("x + x*\n  z"), {"x": qubit_pair_algebra.unit()},
                      qubit_pair_algebra)
        assert (err.value.line, err.value.col) == (2, 3)

    def test_structural_homomorphism(self, qubit_pair_algebra, rng):
        # evaluating an AST equals combining evaluated children
        alg = qubit_pair_algebra
        symbols = {
            "x": random_element(rng, alg, max_len=2),
            "y": random_element(rng, alg, max_len=2),
        }
        cases = {
            "x + y": symbols["x"] + symbols["y"],
            "x - y": symbols["x"] - symbols["y"],
            "x*y": symbols["x"] * symbols["y"],
            "adj(x)": symbols["x"].star(),
            "2.5*x": 2.5 * symbols["x"],
            "i*x": 1j * symbols["x"],
        }
        for text, expected in cases.items():
            assert eval_expr(parse(text), symbols, alg).isclose(expected)

    def test_scalar_evaluates_to_scaled_unit(self, qubit_pair_algebra):
        el = eval_expr(parse("0.5+0.5i"), {}, qubit_pair_algebra)
        assert el.terms == {(): 0.5 + 0.5j}
