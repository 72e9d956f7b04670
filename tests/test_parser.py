import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from foliatk.errors import (
    DegreeMismatch,
    ExprSyntaxError,
    ToolkitError,
    UnknownVariable,
    ValidationError,
)
from foliatk.parser import (
    MAX_NESTING,
    Chain,
    Covector,
    Lit,
    Neg,
    Pow,
    Var,
    expr_to_str,
    parse_expr,
    parse_polynomial,
    to_form,
)
from foliatk.polynomials import MultiPoly


def rand_ast(rng, dim, depth):
    """Any shape the printer can emit; literals stay non-negative because
    the grammar spells negatives with unary minus.  A chain has at least
    two operands, its operators all of one level, and an operand may be a
    chain of the same level."""
    if depth == 0:
        pick = rng.randrange(3)
        if pick == 0:
            return Lit(Fraction(rng.randint(0, 9), rng.randint(1, 4)))
        if pick == 1:
            return Var(rng.randrange(dim))
        return Covector(rng.randrange(dim))
    pick = rng.randrange(5)
    if pick == 0:
        return Neg(rand_ast(rng, dim, depth - 1))
    if pick == 1:
        return Pow(rand_ast(rng, dim, depth - 1), rng.randint(0, 4))
    level = [("+", "-"), ("^^",), ("*",)][pick - 2]
    size = rng.randint(2, 4)
    ops = tuple(rng.choice(level) for _ in range(size - 1))
    return Chain(ops, tuple(rand_ast(rng, dim, depth - 1) for _ in range(size)))


def test_round_trip_randomized():
    rng = random.Random(71)
    for _ in range(200):
        node = rand_ast(rng, rng.randint(1, 4), rng.randint(0, 4))
        dim = 4
        text = expr_to_str(node)
        assert parse_expr(text, dim) == node


def test_parse_pinned_forms():
    omega = to_form(parse_expr("x0*dx1 - x1*dx0", 3), 3)
    assert omega.degree == 1
    assert omega.to_str() == "-x1*dx0 + x0*dx1"
    two = to_form(parse_expr("2*dx0^^dx1", 3), 3)
    assert two.degree == 2 and two.coeffs[(0, 1)] == MultiPoly.constant(3, 2)
    poly = parse_polynomial("(x0 + x1)^2", 3)
    assert poly == (MultiPoly.variable(3, 0) + MultiPoly.variable(3, 1)) ** 2
    assert parse_polynomial("3/4*x0", 2) == MultiPoly.variable(2, 0) * Fraction(3, 4)
    assert parse_polynomial("-x0 - -x1", 2) == (
        MultiPoly.variable(2, 1) - MultiPoly.variable(2, 0)
    )
    nested = parse_expr("(x0 + x1) + x2", 3)
    assert nested == Chain(("+",), (Chain(("+",), (Var(0), Var(1))), Var(2)))
    assert expr_to_str(nested) == "(x0 + x1) + x2"


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("x0 +", 2)
    assert (info.value.line, info.value.col) == (1, 5)
    assert "end of input" in str(info.value)

    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("x0 +\n  $", 2)
    assert info.value.line == 2

    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("x0^x1", 2)
    assert "exponent" in info.value.expected

    with pytest.raises(ExprSyntaxError):
        parse_expr("1/0", 2)
    with pytest.raises(ExprSyntaxError):
        parse_expr("(x0", 2)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x0 x1", 2)


def test_unknown_variable_errors():
    with pytest.raises(UnknownVariable) as info:
        parse_expr("x9", 3)
    assert info.value.name == "x9" and info.value.col == 1
    with pytest.raises(UnknownVariable):
        parse_expr("x01", 3)  # leading zero
    with pytest.raises(UnknownVariable):
        parse_expr("t1", 3)  # blow-up chart names are printed, never parsed
    with pytest.raises(UnknownVariable):
        parse_expr("dt1", 3)
    with pytest.raises(UnknownVariable):
        parse_expr("y0", 3)


def test_to_form_degree_rules():
    with pytest.raises(ValidationError):
        to_form(parse_expr("dx0*dx1", 2), 2)
    with pytest.raises(ValidationError):
        to_form(parse_expr("dx0^2", 2), 2)
    with pytest.raises(DegreeMismatch):
        to_form(parse_expr("x0 + dx0", 2), 2)
    mixed = to_form(parse_expr("(dx0 + dx1)^^dx1", 2), 2)
    assert mixed.degree == 2
    assert mixed.coeffs == {(0, 1): MultiPoly.constant(2, 1)}


def test_parse_polynomial_rejects_covectors():
    with pytest.raises(ValidationError):
        parse_polynomial("dx0", 2)
    assert parse_polynomial("0", 2).is_zero


def test_engine_strings_reparse():
    rng = random.Random(72)
    from helpers import rand_form

    for _ in range(40):
        dim = rng.randint(2, 4)
        form = rand_form(rng, dim, rng.randint(0, dim))
        text = form.to_str()
        if text == "0":
            continue
        assert to_form(parse_expr(text, dim), dim) == form


def test_nesting_is_capped_with_a_position():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("(" * 170 + "x0" + ")" * 170, 2)
    assert (info.value.line, info.value.col) == (1, MAX_NESTING + 1)
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("-" * 1000 + "x0", 2)
    assert info.value.col == MAX_NESTING + 1
    depth = MAX_NESTING // 2
    assert parse_polynomial("-(" * depth + "x0" + ")" * depth, 2) == MultiPoly.variable(2, 0)


def test_long_chains_lower_without_deep_recursion():
    x0 = MultiPoly.variable(2, 0)
    assert parse_polynomial("+".join(["x0"] * 5000), 2) == x0 * 5000
    assert parse_polynomial("-".join(["x0"] * 5000), 2) == x0 * -4998
    assert parse_polynomial("*".join(["x0"] * 2000), 2) == x0 ** 2000
    wedged = to_form(parse_expr("^^".join(["x0*dx0"] * 1000), 2), 2)
    assert wedged.is_zero
    # a long chain is one flat node: printing, hashing and comparing it
    # cost one stack frame per level, not one per operand
    text = "+".join(["x0"] * 5000)
    ast = parse_expr(text, 2)
    assert ast == Chain(("+",) * 4999, (Var(0),) * 5000)
    assert expr_to_str(ast) == text.replace("+", " + ")
    again = parse_expr(expr_to_str(ast), 2)
    assert again == ast and hash(again) == hash(ast)
    x0, x1 = Var(0), Var(1)
    for op in ["-", "*", "^^"]:
        chain = Chain((op,) * 4999, (x0,) * 5000)
        same = Chain((op,) * 4999, (x0,) * 5000)
        assert chain == same and hash(chain) == hash(same)
        assert chain != Chain((op,) * 4999, (x1,) + (x0,) * 4999) != ast
        assert expr_to_str(chain).count("x0") == 5000
        assert parse_expr(expr_to_str(chain), 2) == chain


# digits, names and operators, plus what the lexer must reject: non-ASCII
# digits and letters, a stray underscore and a literal past the
# interpreter's int-to-str limit
FUZZ_PIECES = ["x", "0", "1", "2", "3", "d", "t", "^", "^^", "*", "+", "-", "/", "(", ")",
               " ", "\n", "\u00b2", "\u0663", "\u00e9", "_", "7" * 5000]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(FUZZ_PIECES), max_size=16).map("".join))
def test_parse_and_lower_raise_only_toolkit_errors(text):
    try:
        to_form(parse_expr(text, 4), 4)
    except ToolkitError:
        pass
