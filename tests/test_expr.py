import numpy as np
import pytest

from causal_kernel.expr import (
    Add,
    Adj,
    ExprError,
    Mul,
    Name,
    Scalar,
    Sub,
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
        assert parse("adj(x*y)") == Adj(Mul(Name("x"), Name("y")))

    def test_scalar_product_with_sum(self):
        node = parse("(0.5+0.5i)*x1*y2 + I")
        expected = Add(
            Mul(Mul(Add(Scalar(0.5 + 0j), Scalar(0.5j)), Name("x1")), Name("y2")),
            UnitSym(),
        )
        assert node == expected

    def test_precedence_product_binds_tighter(self):
        assert parse("a+b*c") == Add(Name("a"), Mul(Name("b"), Name("c")))

    def test_left_associative_sums(self):
        assert parse("a-b+c") == Add(Sub(Name("a"), Name("b")), Name("c"))

    def test_left_associative_products(self):
        assert parse("a*b*c") == Mul(Mul(Name("a"), Name("b")), Name("c"))

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
        assert parse("2.5e-3+0i") == Add(Scalar(0.0025 + 0j), Scalar(0j))

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
]


def _random_ast(rng, depth=0):
    kinds = ["scalar", "name", "unit"]
    if depth < 3:
        kinds += ["add", "sub", "mul", "adj"] * 2
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
    left = _random_ast(rng, depth + 1)
    right = _random_ast(rng, depth + 1)
    return {"add": Add, "sub": Sub, "mul": Mul}[kind](left, right)


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_corpus_round_trips(self, text):
        ast = parse(text)
        assert parse(pretty(ast)) == ast

    def test_random_asts_round_trip(self, rng):
        for _ in range(60):
            ast = _random_ast(rng)
            assert parse(pretty(ast)) == ast


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
        with pytest.raises(UnboundSymbolError, match="unbound symbol z"):
            eval_expr(parse("x*z"), {"x": qubit_pair_algebra.unit()}, qubit_pair_algebra)

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
