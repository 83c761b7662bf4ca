"""Input DSL: parsing, errors, deterministic rendering round trip."""

import pytest
from hypothesis import given, settings, strategies as st

from liesym.dsl import (ParseError, parse, parse_pde, parse_vector_field,
                        render, render_field)
from liesym.expr import UndeclaredSymbolError, add, mul, powx, rat, sym
from liesym.jets import dcr_symbols

TABLE = dcr_symbols()
u, m, p = sym("u"), sym("m"), sym("p")


class TestParse:
    def test_single_power(self):
        assert parse("u^m", TABLE) == powx(u, m)

    def test_reaction_term(self):
        e = parse("(1-u^p)*(c0+c1*u^p)*u^(2-m)", TABLE)
        expanded = (1 - u ** p) * (sym("c0") + sym("c1") * u ** p) \
            * u ** (2 - m)
        assert e == expanded

    def test_cancellation(self):
        assert parse("u - u", TABLE).is_zero_literal

    def test_rational_literals(self):
        assert parse("3/4", TABLE) == rat(3) / rat(4)

    def test_derivative_operator(self):
        e = parse("D(u^2,x,2)", TABLE)
        ux, uxx = sym("u_x"), sym("u_xx")
        assert e == 2 * u * uxx + 2 * ux ** 2

    def test_function_primes(self):
        w = sym("t")
        e = parse("phi''(t)", TABLE)
        from liesym.expr import Func

        assert e == Func("phi", 2, w)

    def test_exp_log(self):
        from liesym.expr import exp, log

        assert parse("exp(2*t)", TABLE) == exp(2 * sym("t"))
        assert parse("log(u)", TABLE) == log(u)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("u + * 2", TABLE)
        assert "position" in str(err.value)

    def test_undeclared_symbol(self):
        with pytest.raises(UndeclaredSymbolError):
            parse("u + q7", TABLE)

    def test_pde_form(self):
        rhs = parse_pde("u_t = D(u^2,x,2) + D(u^2,x)", TABLE)
        assert not rhs.is_zero_literal
        with pytest.raises(ParseError):
            parse_pde("u_x = u", TABLE)

    def test_vector_field(self):
        f = parse_vector_field("-t*Dt - t*Dx + u*Du", TABLE)
        assert f.xi_t == -sym("t")
        assert f.xi_x == -sym("t")
        assert f.eta == u

    def test_vector_field_requires_marker(self):
        with pytest.raises(ParseError):
            parse_vector_field("t*Dt + u", TABLE)

    @pytest.mark.parametrize("text", ["Dt^2*Dx", "Dt*Dx", "Dt^(1/2)",
                                      "exp(Dt)", "x*Dt^2"])
    def test_vector_field_terms_are_linear_in_one_marker(self, text):
        with pytest.raises(ParseError) as err:
            parse_vector_field(text, TABLE)
        assert "linear in exactly one of Dt, Dx, Du" in str(err.value)

    def test_field_round_trip(self):
        text = "-t*Dt - t*Dx + u*Du"
        f = parse_vector_field(text, TABLE)
        again = parse_vector_field(render_field(f), TABLE)
        assert f == again


EXAMPLES = [
    "u^m", "(1-u^p)*(c0+c1*u^p)*u^(2-m)", "m*u^(m-1)*u_xx",
    "t^2 - x/3 + 1", "exp(-t)*u", "log(t)", "phi'(t)*x",
    "2^(1/2)*u", "u^(-4/3)",
]


@pytest.mark.parametrize("text", EXAMPLES)
def test_round_trip_examples(text):
    e = parse(text, TABLE)
    assert parse(render(e), TABLE) == e


@st.composite
def dsl_exprs(draw, depth=3):
    if depth == 0:
        k = draw(st.integers(0, 2))
        if k == 0:
            return sym(draw(st.sampled_from(["t", "x", "u", "m", "p"])))
        if k == 1:
            return rat(draw(st.integers(-6, 6)))
        from fractions import Fraction

        return rat(Fraction(draw(st.integers(1, 9)), draw(st.integers(2, 9))))
    k = draw(st.integers(0, 2))
    a = draw(dsl_exprs(depth=depth - 1))
    b = draw(dsl_exprs(depth=depth - 1))
    if k == 0:
        return add(a, b)
    if k == 1:
        return mul(a, b)
    return powx(sym(draw(st.sampled_from(["t", "x", "u"]))),
                draw(st.integers(-3, 3)))


@settings(max_examples=150, deadline=None)
@given(dsl_exprs())
def test_parse_render_identity(e):
    assert parse(render(e), TABLE) == e
