"""Text expressions for polynomials and differential forms.

Grammar, loosest binding first::

    expr    := chain (('+' | '-') chain)*
    chain   := product ('^^' product)*          wedge
    product := factor ('*' factor)*             scalar or coefficient multiply
    factor  := '-' factor | power
    power   := atom ('^' INT)?                  polynomial exponent
    atom    := INT ('/' INT)? | name | '(' expr ')'

``INT`` is a run of ASCII digits ``[0-9]+``; a literal longer than the
interpreter's int-to-str digit limit is a syntax error at its column.
Names are ``x0, x1, ...`` with covectors ``dx0, dx1, ...``, indices below
the ambient dimension and without leading zeros.  Rational literals are
written ``3/4``.  ``*`` multiplies by a degree-0 factor only; products of
two honest forms must use ``^^``.

Each of the three binary levels parses to one flat ``Chain`` node that
holds its operators and operands in order, so a long sum or product is a
tuple, not a deep tree.  A parenthesised chain of the same level stays a
separate operand.

The lexer yields tokens as the parser asks for them, one token ahead, so
parsing reads the text only up to its first error and errors are reported
in reading order: an unreadable character after a misplaced operator is
never reached.  Parsing is total over positions: every failure carries
line, column and what was expected.  Printing an AST and re-parsing
returns a structurally equal AST, which is the round-trip property the
tests pin down.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from .errors import ExprSyntaxError, UnknownVariable, ValidationError
from .forms import DiffForm
from .polynomials import MultiPoly, whole


# -- abstract syntax -------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Covector:
    index: int


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Chain:
    """``operands[0] ops[0] operands[1] ops[1] ...``, all operators of one
    binary level, applied left to right."""

    ops: tuple[str, ...]
    operands: tuple["Expr", ...]


Expr = Union[Lit, Var, Covector, Neg, Pow, Chain]

# the binary levels, loosest first
_LEVELS = [("+", "-"), ("^^",), ("*",)]
_LEVEL = {op: level for level, ops in enumerate(_LEVELS, 1) for op in ops}


# -- lexer -----------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # NUM, NAME, OP or EOF; an operator is told apart by its text
    text: str
    line: int
    col: int


_TOKEN = re.compile(
    r"(?P<NUM>[0-9]+)|(?P<NAME>[A-Za-z][A-Za-z0-9_]*)|(?P<OP>\^\^|[-+*/^()])"
    r"|(?P<NEWLINE>\n)|(?P<SPACE>[^\S\n]+)|(?P<BAD>.)"
)


def _tokenize(text: str) -> Iterator[Token]:
    """Yield the tokens of ``text`` as the parser asks for them, ending with
    one EOF token; a character no token starts with fails when it is reached."""
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, col = match.lastgroup, match.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, match.end()
        elif kind == "BAD":
            raise ExprSyntaxError(f"unexpected character {match[0]!r}", line, col,
                                  "a term or operator")
        elif kind != "SPACE":
            yield Token(kind, match[0], line, col)
    yield Token("EOF", "", line, len(text) - line_start + 1)


# -- parser ----------------------------------------------------------------

MAX_NESTING = 64  # open parentheses plus pending unary minus signs

_NAME = re.compile(r"(d?)x(0|[1-9][0-9]*)")


class _Parser:
    def __init__(self, tokens: Iterator[Token], ambient_dim: int):
        self.tokens = tokens
        self.lookahead = next(tokens)
        self.depth = 0
        self.ambient_dim = ambient_dim

    def peek(self) -> Token:
        return self.lookahead

    def advance(self) -> Token:
        """Consume the lookahead, which is never EOF: every caller has
        matched its kind or text first."""
        tok = self.lookahead
        self.lookahead = next(self.tokens)
        return tok

    def fail(self, expected: str) -> ExprSyntaxError:
        tok = self.peek()
        what = "end of input" if tok.kind == "EOF" else repr(tok.text)
        return ExprSyntaxError(f"unexpected {what}", tok.line, tok.col, expected)

    def enter(self) -> None:
        """Consume a '(' or unary '-', which opens one more nesting level."""
        tok = self.advance()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(
                f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col,
                "fewer nested parentheses and signs",
            )

    def integer(self, expected: str) -> int:
        tok = self.peek()
        if tok.kind != "NUM":
            raise self.fail(expected)
        self.advance()
        try:
            return int(tok.text)
        except ValueError:  # longer than the interpreter's int-to-str limit
            raise ExprSyntaxError(
                "integer literal too long", tok.line, tok.col,
                f"at most {sys.get_int_max_str_digits()} digits",
            ) from None

    def parse(self) -> Expr:
        node = self.chain(0)
        if self.peek().kind != "EOF":
            raise self.fail("end of input")
        return node

    def chain(self, level: int) -> Expr:
        """One binary level of the grammar, flattened into a ``Chain``."""
        if level == len(_LEVELS):
            return self.factor()
        ops, operands = [], [self.chain(level + 1)]
        while self.peek().text in _LEVELS[level]:
            ops.append(self.advance().text)
            operands.append(self.chain(level + 1))
        return Chain(tuple(ops), tuple(operands)) if ops else operands[0]

    def factor(self) -> Expr:
        if self.peek().text == "-":
            self.enter()
            node = Neg(self.factor())
            self.depth -= 1
            return node
        node = self.atom()
        if self.peek().text == "^":
            self.advance()
            node = Pow(node, self.integer("an integer exponent"))
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUM":
            numerator = self.integer("a number")
            if self.peek().text != "/":
                return Lit(Fraction(numerator))
            self.advance()
            den_tok = self.peek()
            denominator = self.integer("an integer denominator")
            if denominator == 0:
                raise ExprSyntaxError(
                    "zero denominator", den_tok.line, den_tok.col, "a nonzero denominator"
                )
            return Lit(Fraction(numerator, denominator))
        if tok.kind == "NAME":
            self.advance()
            match = _NAME.fullmatch(tok.text)
            # an index with more digits than the dimension is out of range
            # without converting it, however long it is
            if (match is None or len(match[2]) > len(str(self.ambient_dim))
                    or int(match[2]) >= self.ambient_dim):
                raise UnknownVariable(tok.text, tok.col)
            return (Covector if match[1] else Var)(int(match[2]))
        if tok.text == "(":
            self.enter()
            node = self.chain(0)
            if self.peek().text != ")":
                raise self.fail("')'")
            self.advance()
            self.depth -= 1
            return node
        raise self.fail("a number, variable, covector or '('")


def parse_expr(text: str, ambient_dim: int) -> Expr:
    """Parse expression text against the chart ``x0 .. x{ambient_dim-1}``."""
    if not whole(ambient_dim, 1):
        raise ValidationError(f"ambient_dim must be a positive integer, got {ambient_dim!r}")
    return _Parser(_tokenize(text), ambient_dim).parse()


# -- printing --------------------------------------------------------------

_LEVEL_NEG = len(_LEVELS) + 1
_LEVEL_POW = _LEVEL_NEG + 1
_LEVEL_ATOM = _LEVEL_POW + 1


def _level(node: Expr) -> int:
    if isinstance(node, Chain):
        return _LEVEL[node.ops[0]]
    if isinstance(node, Neg):
        return _LEVEL_NEG
    if isinstance(node, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


def _wrap(child: Expr, minimum: int) -> str:
    text = expr_to_str(child)
    if _level(child) < minimum:
        return f"({text})"
    return text


def expr_to_str(node: Expr) -> str:
    """Minimal-parenthesis rendering; re-parsing gives back an equal AST.

    An operand that is a chain of its parent's level prints in
    parentheses, so it parses back as the separate operand it is.
    """
    if isinstance(node, Chain):
        level = _level(node)
        text = _wrap(node.operands[0], level + 1)
        for op, operand in zip(node.ops, node.operands[1:]):
            text += (f" {op} " if level == 1 else op) + _wrap(operand, level + 1)
        return text
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Covector):
        return f"dx{node.index}"
    if isinstance(node, Neg):
        return f"-{_wrap(node.operand, _LEVEL_NEG)}"
    if isinstance(node, Pow):
        return f"{_wrap(node.base, _LEVEL_ATOM)}^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")


# -- lowering to forms -----------------------------------------------------

def to_form(node: Expr, ambient_dim: int) -> DiffForm:
    """Evaluate an AST to a differential form (degree 0 for polynomials).

    ``*`` requires a degree-0 operand, ``^`` a degree-0 base; adding forms
    of different degrees fails unless one side is zero.
    """
    if isinstance(node, Chain):
        form = to_form(node.operands[0], ambient_dim)
        for op, operand in zip(node.ops, node.operands[1:]):
            right = to_form(operand, ambient_dim)
            if op == "+":
                form = form + right
            elif op == "-":
                form = form - right
            elif op == "*" and form.degree > 0 and right.degree > 0:
                raise ValidationError("'*' multiplies by a degree-0 factor; use '^^' between forms")
            else:
                form = form.wedge(right)
        return form
    if isinstance(node, Lit):
        return DiffForm.from_poly(MultiPoly.constant(ambient_dim, node.value))
    if isinstance(node, Var):
        return DiffForm.from_poly(MultiPoly.variable(ambient_dim, node.index))
    if isinstance(node, Covector):
        return DiffForm.basis_covector(ambient_dim, node.index)
    if isinstance(node, Neg):
        return -to_form(node.operand, ambient_dim)
    if isinstance(node, Pow):
        base = to_form(node.base, ambient_dim)
        if base.degree != 0:
            raise ValidationError("'^' takes a polynomial base; use '^^' between forms")
        poly = base.coeffs.get((), MultiPoly.zero(ambient_dim))
        return DiffForm.from_poly(poly ** node.exponent)
    raise TypeError(f"not an expression node: {node!r}")


def parse_polynomial(text: str, ambient_dim: int) -> MultiPoly:
    """Parse text that must denote a degree-0 form and return the polynomial."""
    form = to_form(parse_expr(text, ambient_dim), ambient_dim)
    if form.degree != 0:
        raise ValidationError("expected a polynomial, found covectors")
    return form.coeffs.get((), MultiPoly.zero(ambient_dim))
