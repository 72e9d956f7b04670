"""Text expressions for polynomials and differential forms.

Grammar, loosest binding first::

    expr    := product-chain (('+' | '-') product-chain)*
    chain   := product ('^^' product)*          wedge
    product := factor ('*' factor)*             scalar or coefficient multiply
    factor  := '-' factor | power
    power   := atom ('^' INT)?                  polynomial exponent
    atom    := INT ('/' INT)? | name | '(' expr ')'

Names are ``x0, x1, ...`` with covectors ``dx0, dx1, ...``; in blow-up
mode the source chart uses ``x0`` and ``t1 .. tm`` (``dt1 ..``) instead.
Rational literals are written ``3/4``.  ``*`` multiplies by a degree-0
factor only; products of two honest forms must use ``^^``.

Parsing is total over positions: every failure carries line, column and
what was expected.  Printing an AST and re-parsing returns a structurally
equal AST, which is the round-trip property the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import ExprSyntaxError, UnknownVariable, ValidationError
from .forms import DiffForm
from .polynomials import MultiPoly


# -- abstract syntax -------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    family: str
    index: int


@dataclass(frozen=True)
class Covector:
    family: str
    index: int


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


class _Chain:
    """A left-associative binary node.  The parser builds long sums and
    products as left-deep chains, so equality and hashing walk the left
    spine in a loop and cost one stack frame, not one per term."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        a, b = self, other
        while isinstance(a, _Chain):
            if type(a) is not type(b) or a.right != b.right:
                return False
            a, b = a.left, b.left
        return a == b

    def __hash__(self) -> int:
        spine, node = _left_spine(self)
        value = hash(node)
        for op in reversed(spine):
            value = hash((type(op).__name__, value, op.right))
        return value


def _left_spine(node) -> tuple[list[_Chain], "Expr"]:
    """The chain nodes down the left edge of ``node``, outermost first, and
    the operand below the last of them."""
    spine = []
    while isinstance(node, _Chain):
        spine.append(node)
        node = node.left
    return spine, node


@dataclass(frozen=True, eq=False)
class Add(_Chain):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False)
class Sub(_Chain):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False)
class Mul(_Chain):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False)
class Wedge(_Chain):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Union[Lit, Var, Covector, Neg, Add, Sub, Mul, Wedge, Pow]


# -- lexer -----------------------------------------------------------------

class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_SINGLE = {"+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH",
           "(": "LPAREN", ")": "RPAREN"}


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("NUM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == "^":
            if i + 1 < len(text) and text[i + 1] == "^":
                tokens.append(Token("DCARET", "^^", line, col))
                i += 2
                col += 2
            else:
                tokens.append(Token("CARET", "^", line, col))
                i += 1
                col += 1
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, line, col))
            i += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col, "a term or operator")
    tokens.append(Token("EOF", "", line, col))
    return tokens


# -- parser ----------------------------------------------------------------

MAX_NESTING = 64  # open parentheses plus pending unary minus signs


class _Scope:
    """Resolves names to engine variable indices for one ambient chart."""

    def __init__(self, ambient_dim: int, blow_up: bool):
        if not isinstance(ambient_dim, int) or ambient_dim < 1:
            raise ValidationError(f"ambient_dim must be a positive integer, got {ambient_dim!r}")
        self.ambient_dim = ambient_dim
        self.blow_up = blow_up

    def resolve(self, name: str, col: int) -> tuple[str, str, int]:
        """Return (kind, family, engine index); kind is 'var' or 'covector'."""
        base = name
        kind = "var"
        if base.startswith("d") and len(base) > 1 and base[1] in ("x", "t"):
            kind = "covector"
            base = base[1:]
        family = base[0]
        digits = base[1:]
        if family not in ("x", "t") or not digits.isdigit():
            raise UnknownVariable(name, col)
        index = int(digits)
        if digits != str(index):
            raise UnknownVariable(name, col)
        if self.blow_up:
            if family == "x" and index == 0:
                return kind, family, 0
            if family == "t" and 1 <= index <= self.ambient_dim - 1:
                return kind, family, index
            raise UnknownVariable(name, col)
        if family == "x" and 0 <= index < self.ambient_dim:
            return kind, family, index
        raise UnknownVariable(name, col)


class _Parser:
    def __init__(self, tokens: list[Token], scope: _Scope):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.scope = scope

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
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

    def parse(self) -> Expr:
        node = self.expr()
        if self.peek().kind != "EOF":
            raise self.fail("end of input")
        return node

    def expr(self) -> Expr:
        node = self.chain()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            right = self.chain()
            node = Add(node, right) if op.kind == "PLUS" else Sub(node, right)
        return node

    def chain(self) -> Expr:
        node = self.product()
        while self.peek().kind == "DCARET":
            self.advance()
            node = Wedge(node, self.product())
        return node

    def product(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "STAR":
            self.advance()
            node = Mul(node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.peek().kind == "MINUS":
            self.enter()
            node = Neg(self.factor())
            self.depth -= 1
            return node
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.peek().kind == "CARET":
            self.advance()
            tok = self.peek()
            if tok.kind != "NUM":
                raise self.fail("an integer exponent")
            self.advance()
            node = Pow(node, int(tok.text))
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            numerator = int(tok.text)
            if self.peek().kind == "SLASH":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "NUM":
                    raise self.fail("an integer denominator")
                self.advance()
                if int(den_tok.text) == 0:
                    raise ExprSyntaxError(
                        "zero denominator", den_tok.line, den_tok.col, "a nonzero denominator"
                    )
                return Lit(Fraction(numerator, int(den_tok.text)))
            return Lit(Fraction(numerator))
        if tok.kind == "NAME":
            self.advance()
            kind, family, index = self.scope.resolve(tok.text, tok.col)
            if kind == "covector":
                return Covector(family, index)
            return Var(family, index)
        if tok.kind == "LPAREN":
            self.enter()
            node = self.expr()
            if self.peek().kind != "RPAREN":
                raise self.fail("')'")
            self.advance()
            self.depth -= 1
            return node
        raise self.fail("a number, variable, covector or '('")


def parse_expr(text: str, ambient_dim: int, blow_up: bool = False) -> Expr:
    """Parse expression text against a chart with ``ambient_dim`` variables.

    Default charts use ``x0 .. x{ambient_dim-1}``; blow-up charts use
    ``x0, t1 .. t{ambient_dim-1}``.
    """
    scope = _Scope(ambient_dim, blow_up)
    return _Parser(_tokenize(text), scope).parse()


# -- printing --------------------------------------------------------------

_LEVEL_ADD = 1
_LEVEL_WEDGE = 2
_LEVEL_MUL = 3
_LEVEL_NEG = 4
_LEVEL_POW = 5
_LEVEL_ATOM = 6


def _level(node: Expr) -> int:
    if isinstance(node, (Add, Sub)):
        return _LEVEL_ADD
    if isinstance(node, Wedge):
        return _LEVEL_WEDGE
    if isinstance(node, Mul):
        return _LEVEL_MUL
    if isinstance(node, Neg):
        return _LEVEL_NEG
    if isinstance(node, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


_SYMBOL = {Add: " + ", Sub: " - ", Wedge: "^^", Mul: "*"}


def _wrap(child: Expr, minimum: int) -> str:
    text = expr_to_str(child)
    if _level(child) < minimum:
        return f"({text})"
    return text


def expr_to_str(node: Expr) -> str:
    """Minimal-parenthesis rendering; re-parsing gives back an equal AST.

    A left chain of operators that binds no looser than its parent prints
    without parentheses, so it is walked in a loop, not recursively.
    """
    spine = []
    while isinstance(node, _Chain) and (not spine or _level(node) >= _level(spine[-1])):
        spine.append(node)
        node = node.left
    if spine:
        text = _wrap(node, _level(spine[-1]))
        for op in reversed(spine):
            text += _SYMBOL[type(op)] + _wrap(op.right, _level(op) + 1)
        return text
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Var):
        return f"{node.family}{node.index}"
    if isinstance(node, Covector):
        return f"d{node.family}{node.index}"
    if isinstance(node, Neg):
        return f"-{_wrap(node.operand, _LEVEL_NEG)}"
    if isinstance(node, Pow):
        return f"{_wrap(node.base, _LEVEL_ATOM)}^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")


# -- lowering to forms -----------------------------------------------------

def to_form(node: Expr, ambient_dim: int) -> DiffForm:
    """Evaluate an AST to a differential form (degree 0 for polynomials).

    ``*`` requires a degree-0 operand, ``^`` a degree-0 base; adding forms
    of different degrees fails unless one side is zero.  Indices refer to
    the chart used at parse time (in blow-up mode ``t{j}`` is slot ``j``).
    """
    # fold a left-associative chain from its leftmost operand up, so a long
    # sum or product costs one stack frame, not one per term
    spine, node = _left_spine(node)
    form = _operand_form(node, ambient_dim)
    for op in reversed(spine):
        right = to_form(op.right, ambient_dim)
        if isinstance(op, Add):
            form = form + right
        elif isinstance(op, Sub):
            form = form - right
        elif isinstance(op, Mul) and form.degree > 0 and right.degree > 0:
            raise ValidationError("'*' multiplies by a degree-0 factor; use '^^' between forms")
        else:
            form = form.wedge(right)
    return form


def _operand_form(node: Expr, ambient_dim: int) -> DiffForm:
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


def parse_polynomial(text: str, ambient_dim: int, blow_up: bool = False) -> MultiPoly:
    """Parse text that must denote a degree-0 form and return the polynomial."""
    form = to_form(parse_expr(text, ambient_dim, blow_up), ambient_dim)
    if form.degree != 0:
        raise ValidationError("expected a polynomial, found covectors")
    return form.coeffs.get((), MultiPoly.zero(ambient_dim))
