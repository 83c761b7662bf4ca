"""Input DSL and deterministic renderer.

Grammar (shared by the library API and the command line):

* expressions over identifiers, integer literals and the operators
  ``+ - * / ^`` with the usual precedence (``^`` binds tightest and is
  right-associative); rationals are written ``a/b``,
* ``D(expr, var[, order])`` applies the total derivative,
* jet coordinates are the identifiers ``u_t u_x u_xx u_tt u_tx ...``,
* function application ``phi(w)``, with primes for derivative tags:
  ``phi''(w)``; ``exp`` and ``log`` are built in,
* vector fields are written ``coef*Dt + coef*Dx + coef*Du``.

Multiplication is always explicit.  ``render`` produces ASCII with explicit
``*`` and ``^`` and parses back to the identical canonical expression.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .expr import (
    Add, EULER, Expr, ExprError, Func, LogOfZeroError, MINUS_ONE, Mul, ONE,
    Pow, Rat, Sym, SymbolKind, SymbolTable, UndeclaredSymbolError, ZERO,
    add, free_symbols, func, mul, powx, rat, sym,
)
from . import jets, poly
from .jets import VectorField


class ParseError(ExprError):
    """Syntax or declaration error, with position information."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPS = set("+-*/^(),=")


class _Tokenizer:
    """Tokens of ``text[start:]``, each with its position in ``text``."""

    def __init__(self, text: str, start: int = 0):
        self.text = text
        self.tokens: List[Tuple[str, str, int]] = []
        self._run(start)

    def _run(self, i: int):
        text = self.text
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("int", text[i:j], i))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                while j < len(text) and text[j] == "'":
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            if c in _OPS:
                self.tokens.append(("op", c, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {c!r}", i)
        self.tokens.append(("end", "", len(text)))


class _Parser:
    def __init__(self, text: str, table: SymbolTable, max_order: int = 2,
                 start: int = 0):
        self.table = table
        self.max_order = max_order
        self.toks = _Tokenizer(text, start).tokens
        self.i = 0

    # -- token helpers ----------------------------------------------------

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", pos)

    def at_op(self, *values) -> bool:
        kind, val, _ = self.peek()
        return kind == "op" and val in values

    # -- grammar ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.at_op("+", "-"):
            _, op, _ = self.next()
            rhs = self.parse_term()
            e = add(e, rhs if op == "+" else mul(MINUS_ONE, rhs))
        return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while self.at_op("*", "/"):
            _, op, pos = self.next()
            rhs = self.parse_unary()
            if op == "/":
                rhs = self.power(rhs, MINUS_ONE, pos)
            e = mul(e, rhs)
        return e

    def parse_unary(self) -> Expr:
        if self.at_op("-"):
            self.next()
            return mul(MINUS_ONE, self.parse_unary())
        if self.at_op("+"):
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.at_op("^"):
            _, _, pos = self.next()
            return self.power(base, self.parse_unary_power(), pos)
        return base

    @staticmethod
    def power(base: Expr, expo: Expr, pos: int) -> Expr:
        try:
            return powx(base, expo)
        except ZeroDivisionError:
            raise ParseError("division by zero", pos) from None

    def parse_unary_power(self) -> Expr:
        # exponent position: allow a sign, then a power (right-assoc ^)
        if self.at_op("-"):
            self.next()
            return mul(MINUS_ONE, self.parse_unary_power())
        return self.parse_power()

    def parse_atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "int":
            return rat(int(val))
        if kind == "op" and val == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        if kind == "name":
            name = val.rstrip("'")
            order = len(val) - len(name)
            if self.at_op("("):
                return self.parse_call(name, order, pos)
            if order:
                raise ParseError("derivative primes need an argument list", pos)
            if not self.table.declared(name):
                raise UndeclaredSymbolError(
                    f"undeclared symbol: {name} (at position {pos})")
            if self.table.kind(name) is SymbolKind.FUNCTION:
                raise ParseError(f"function {name} used without argument", pos)
            return sym(name)
        raise ParseError(f"unexpected token {val!r}", pos)

    def parse_call(self, name: str, order: int, pos: int) -> Expr:
        self.expect("(")
        if name == "D":
            if order:
                raise ParseError("D takes no derivative primes", pos)
            e = self.parse_expr()
            self.expect(",")
            kind, var, vpos = self.next()
            if kind != "name" or var not in ("t", "x"):
                raise ParseError("D expects a direction t or x", vpos)
            n = 1
            if self.at_op(","):
                self.next()
                kind, num, npos = self.next()
                if kind != "int":
                    raise ParseError("D order must be an integer", npos)
                n = int(num)
            self.expect(")")
            for _ in range(n):
                e = jets.total_derivative(e, var, self.table, self.max_order)
            return e
        e = self.parse_expr()
        self.expect(")")
        if name == "exp":
            if order:
                raise ParseError("exp takes no derivative primes", pos)
            return powx(EULER, e)
        if name == "log":
            if order:
                raise ParseError("log takes no derivative primes", pos)
            try:
                return func("log", e)
            except LogOfZeroError:
                raise ParseError("log of zero", pos) from None
        if not self.table.declared(name):
            raise UndeclaredSymbolError(
                f"undeclared function: {name} (at position {pos})")
        if self.table.kind(name) is not SymbolKind.FUNCTION:
            raise ParseError(f"{name} is not a function", pos)
        return func(name, e, order)

    def finish(self, e):
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return e


def parse(text: str, table: SymbolTable, max_order: int = 2,
          start: int = 0) -> Expr:
    """Parse ``text[start:]`` as an expression in the input DSL against the
    symbol table; error positions count from the start of ``text``."""
    p = _Parser(text, table, max_order, start)
    return p.finish(p.parse_expr())


def parse_pde(text: str, table: SymbolTable) -> Expr:
    """Parse ``u_t = F(...)`` and return the right-hand side."""
    if "=" not in text:
        raise ParseError("a PDE needs the form 'u_t = <rhs>'", 0)
    lhs = text.split("=", 1)[0]
    if lhs.strip() != "u_t":
        raise ParseError("left-hand side must be exactly u_t", 0)
    return parse(text, table, max_order=2, start=len(lhs) + 1)


_FIELD_MARKERS = ("Dt", "Dx", "Du")


def parse_vector_field(text: str, table: SymbolTable) -> VectorField:
    """Parse ``coef*Dt + coef*Dx + coef*Du``: each term holds exactly one
    marker to the power 1, and its coefficient is the rest of the term."""
    extended = table.copy()
    for marker in _FIELD_MARKERS:
        extended.variable(marker)
    e = parse(text, extended)
    if e.is_zero_literal:
        raise ParseError("the vector field is zero", 0)
    gens, parts = poly.collect(
        poly.to_poly(e, tuple(map(sym, _FIELD_MARKERS))),
        lambda g: not free_symbols(g).isdisjoint(_FIELD_MARKERS))
    # Dt, Dx, Du lead ``gens``; the other picked generators hold a marker
    units = [tuple(int(i == j) for j in range(len(gens))) for i in range(3)]
    if not parts.keys() <= set(units):
        raise ParseError("each vector-field term must be linear in exactly "
                         "one of Dt, Dx, Du", 0)
    field = VectorField(*[poly.from_poly(parts[k]) if k in parts else ZERO
                          for k in units])
    return field.validate(table)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_rat(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _exp_string(e: Expr) -> str:
    """Exponent position: bare for nonnegative integers and plain symbols."""
    if isinstance(e, Rat) and e.value.denominator == 1 and e.value >= 0:
        return str(e.value.numerator)
    if isinstance(e, Sym) and e is not EULER and e != EULER:
        return e.name
    return "(" + render(e) + ")"


def _base_string(e: Expr) -> str:
    if isinstance(e, Sym):
        return render(e)
    if isinstance(e, Func):
        return render(e)
    if isinstance(e, Rat) and e.value.denominator == 1 and e.value >= 0:
        return str(e.value.numerator)
    return "(" + render(e) + ")"


def _render_factor(e: Expr) -> str:
    if isinstance(e, (Sym, Func)):
        return render(e)
    if isinstance(e, Pow):
        return render(e)
    return "(" + render(e) + ")"


def _render_product(coeff: Fraction, factors) -> str:
    parts = [_render_factor(f) for f in factors]
    if coeff == 1 and parts:
        return "*".join(parts)
    if coeff == -1 and parts:
        return "-" + "*".join(parts)
    head = _render_rat(coeff)
    return "*".join([head] + parts) if parts else head


def render(e: Expr) -> str:
    """Deterministic ASCII rendering; parse(render(e)) == e on canonical
    forms (given the symbols are declared)."""
    if isinstance(e, Rat):
        return _render_rat(e.value)
    if isinstance(e, Sym):
        if e == EULER:
            return "exp(1)"
        return e.name
    if isinstance(e, Func):
        return e.name + "'" * e.order + "(" + render(e.arg) + ")"
    if isinstance(e, Pow):
        if e.base == EULER:
            return f"exp({render(e.exponent)})"
        return f"{_base_string(e.base)}^{_exp_string(e.exponent)}"
    if isinstance(e, Mul):
        return _render_product(e.coeff, e.factors)
    if isinstance(e, Add):
        out = []
        for i, t in enumerate(e.terms):
            if isinstance(t, Rat):
                coeff, body = t.value, ""
            elif isinstance(t, Mul):
                coeff = t.coeff
                body = "*".join(_render_factor(f) for f in t.factors)
            else:
                coeff, body = Fraction(1), _render_factor(t)
            neg = coeff < 0
            mag = abs(coeff)
            if body:
                piece = body if mag == 1 else f"{_render_rat(mag)}*{body}"
            else:
                piece = _render_rat(mag)
            if i == 0:
                out.append(("-" if neg else "") + piece)
            else:
                out.append((" - " if neg else " + ") + piece)
        return "".join(out)
    raise TypeError(f"cannot render {e!r}")


def render_field(field: VectorField) -> str:
    """Render a vector field in the Dt/Dx/Du syntax."""
    parts = []
    for coef, marker in ((field.xi_t, "Dt"), (field.xi_x, "Dx"),
                         (field.eta, "Du")):
        if coef.is_zero_literal:
            continue
        if coef == ONE:
            parts.append(marker)
        elif coef == MINUS_ONE:
            parts.append(f"-{marker}")
        elif isinstance(coef, (Sym, Func, Pow, Mul)) and not isinstance(coef, Add):
            parts.append(f"{render(coef)}*{marker}")
        else:
            parts.append(f"({render(coef)})*{marker}")
    if not parts:
        return "0*Du"
    out = parts[0]
    for p in parts[1:]:
        out += " + " + p if not p.startswith("-") else " - " + p[1:]
    return out
