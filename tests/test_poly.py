"""The sparse polynomial layer against the kernel and against sympy."""

from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from liesym import expr, poly
from liesym.dsl import render
from liesym.expr import ONE, ResourceLimitError, powx, rat, sym
from liesym.jets import (OrderOverflowError, poly_total_derivative,
                         total_derivative)
from test_expr import factors, poly_exprs
from test_jets import TestSecondDependent, jet_exprs

t, x, u, m = sym("t"), sym("x"), sym("u"), sym("m")

exprs = st.one_of(poly_exprs(atoms=True), factors)


def _same(a, b):
    """Equal canonical forms, byte for byte by key."""
    return a.key() == b.key()


@settings(max_examples=150, deadline=None)
@given(exprs)
def test_round_trip(e):
    assert _same(poly.from_poly(poly.to_poly(e)), e)


@settings(max_examples=150, deadline=None)
@given(exprs, exprs)
def test_add_and_mul_match_the_kernel(a, b):
    pa = poly.to_poly(a)
    pb = poly.to_poly(b, (sym("w"),))  # a different generator tuple
    # the kernel writes a*a as a^2 and expands it under its term limit,
    # which a 14-term sum exceeds; poly.mul distributes the product
    # without forming that power, so the reference value is computed with
    # the limit lifted
    with mock.patch.object(expr, "MAX_EXPANSION_TERMS", 10 ** 6):
        want_sum, want_product = expr.add(a, b), expr.mul(a, b)
    assert _same(poly.from_poly(poly.add(pa, pb)), want_sum)
    assert _same(poly.from_poly(poly.mul(pa, pb)), want_product)
    assert _same(poly.from_poly(poly.scale(pa, Fraction(-2, 3))),
                 expr.mul(Fraction(-2, 3), a))


@settings(max_examples=150, deadline=None)
@given(jet_exprs(), st.sampled_from(["t", "x"]), st.integers(1, 3))
def test_total_derivative_matches_the_kernel(e, z, max_order):
    table = TestSecondDependent.table()
    try:
        want = total_derivative(e, z, table, max_order)
    except OrderOverflowError as exc:
        with pytest.raises(OrderOverflowError) as got:
            poly_total_derivative(poly.to_poly(e), z, table, max_order)
        assert str(got.value) == str(exc)
        return
    got = poly_total_derivative(poly.to_poly(e), z, table, max_order)
    assert _same(poly.from_poly(got), want)


@settings(max_examples=100, deadline=None)
@given(exprs, st.sampled_from(["t", "x", "u", "m"]))
def test_partial_derivative_matches_the_kernel(e, name):
    got = poly.derive(poly.to_poly(e), {name: ONE})
    assert _same(poly.from_poly(got), expr.differentiate(e, name))


@settings(max_examples=100, deadline=None)
@given(exprs, poly_exprs(depth=2), st.sampled_from(["t", "x", "u"]))
def test_substitution_matches_the_kernel(e, image, name):
    try:
        want = expr.substitute(e, {name: image})
    except (ZeroDivisionError, ResourceLimitError) as exc:
        with pytest.raises(type(exc)):
            poly.substitute(poly.to_poly(e), {name: poly.to_poly(image)})
        return
    got = poly.substitute(poly.to_poly(e), {name: poly.to_poly(image)})
    assert _same(poly.from_poly(got), want)


def test_symbolic_exponents_share_generators():
    # u^(m-1)*u and u^m meet in one monomial
    p = poly.to_poly(expr.add(expr.mul(powx(u, m - 1), u), powx(u, m)))
    assert len(p.coeffs) == 1 and list(p.coeffs.values()) == [2]
    q = poly.to_poly(powx(u, m + Fraction(1, 2)))
    assert dict(zip(q.gens, *q.coeffs)) == {u: Fraction(1, 2),
                                            powx(u, m): 1}
    assert poly.mul(q, poly.to_poly(powx(u, -m))).coeffs == {
        (Fraction(1, 2), 0): 1}


def test_powers_of_a_sum_share_a_generator():
    s = expr.add(1, u)
    half = poly.to_poly(powx(s, Fraction(1, 2)))
    inverse_half = poly.to_poly(powx(s, Fraction(-1, 2)), half.gens)
    assert half.gens == (s,) and inverse_half.gens == (s,)
    assert poly.mul(half, inverse_half).coeffs == {(0,): 1}
    # a positive integer power is expanded by from_poly, as by the kernel
    assert _same(poly.from_poly(poly.mul(half, half)), s)


def test_merge_sums_brings_powers_of_a_sum_together():
    s = expr.add(1, u)

    def merged(*terms):
        return poly.merge_sums(poly.to_poly(expr.add(*terms))).coeffs

    # (1+u)^(1/2) - (1+u)*(1+u)^(-1/2), as the kernel leaves it
    assert merged(powx(s, Fraction(1, 2)),
                  expr.mul(-1, powx(s, Fraction(-1, 2))),
                  expr.mul(-1, u, powx(s, Fraction(-1, 2)))) == {}
    # (1+u)*(1+u)^(-2) - (1+u)^(-1): negative integer powers meet too
    assert merged(powx(s, -2), expr.mul(u, powx(s, -2)),
                  expr.mul(-1, powx(s, -1))) == {}
    # a term free of 1 + u is no power of it: (1+u)*(1+u)^(-1) - 1 stays
    assert len(merged(powx(s, -1), expr.mul(u, powx(s, -1)), -1)) == 3


_S = expr.add(1, u)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.integers(-3, 3).filter(bool),
    st.sampled_from([ONE, t, u, expr.mul(t, u)]),
    st.sampled_from([Fraction(k, 2) for k in range(-5, 6)])), max_size=6))
def test_merge_sums_keeps_the_value(terms):
    p = poly.to_poly(expr.add(*[expr.mul(c, f, powx(_S, q))
                                for c, f, q in terms]))
    merged = poly.merge_sums(p)
    # at u = 3, where 1 + u is a square, both are exact rationals
    point = {"t": Fraction(2), "u": Fraction(3)}
    assert (expr.evaluate_exact(poly.from_poly(merged), point)
            == expr.evaluate_exact(poly.from_poly(p), point))
    classes = {}
    for k in merged.coeffs:
        e = dict(zip(merged.gens, k)).get(_S, 0)
        # no positive integer power of 1 + u, one exponent per class mod 1
        assert not e or e % 1 or e < 0
        assert not e or classes.setdefault(e % 1, e) == e


def test_expansion_limit_holds():
    # a 14-term sum squared could give 105 terms, over the limit of 100
    s = expr.add(*[powx(x, rat(k)) for k in range(14)])
    with pytest.raises(ResourceLimitError) as want:
        expr.substitute(powx(u, rat(2)), {"u": s})
    with pytest.raises(ResourceLimitError) as got:
        poly.substitute(poly.to_poly(powx(u, rat(2))),
                        {"u": poly.to_poly(s)})
    assert str(got.value) == str(want.value)


def test_coefficient_limit_holds():
    big = poly.to_poly(expr.mul(rat(2 ** 5000), x))
    with pytest.raises(ResourceLimitError):
        poly.mul(big, big)


# -- sympy's Poly on the integer-exponent cases -----------------------------

_GENS = (t, x, u)
_SYMPY_GENS = sympy.symbols("t x u")


def _sympy_dict(P):
    return {k: Fraction(int(c.p), int(c.q)) for k, c in P.as_dict().items()
            if c}


def _dict(p):
    """A polynomial over (t, x, u) as sympy's exponent dict."""
    [p] = poly.align(poly.to_poly(ONE, _GENS), p)[1:]
    assert p.gens == _GENS
    return {k: Fraction(c) for k, c in p.coeffs.items()}


@settings(max_examples=100, deadline=None)
@given(poly_exprs(), poly_exprs(), st.sampled_from(["t", "x", "u"]))
def test_sympy_poly_agrees(a, b, name):
    pa, pb = poly.to_poly(a), poly.to_poly(b)
    A, B = (sympy.Poly(sympy.sympify(render(e)), *_SYMPY_GENS)
            for e in (a, b))
    assert _dict(pa) == _sympy_dict(A)
    assert _dict(poly.add(pa, pb)) == _sympy_dict(A + B)
    assert _dict(poly.mul(pa, pb)) == _sympy_dict(A * B)
    assert _dict(poly.derive(pa, {name: ONE})) == _sympy_dict(
        A.diff(_SYMPY_GENS[_GENS.index(sym(name))]))


# -- collect ----------------------------------------------------------------

_NAMES = st.sets(st.sampled_from(["t", "x", "u", "m", "w"]))


@settings(max_examples=150, deadline=None)
@given(poly_exprs(atoms=True), _NAMES)
def test_collect_rebuilds_p(e, names):
    p = poly.to_poly(e)

    def pick(g):
        return not expr.free_symbols(g).isdisjoint(names)

    gens, parts = poly.collect(p, pick)
    assert gens == tuple(g for g in p.gens if pick(g))
    rebuilt = poly.add(poly.to_poly(expr.ZERO, p.gens), *[
        poly.mul(poly.Poly(gens, {k: 1}), c) for k, c in parts.items()])
    assert _dict_over(rebuilt, p.gens) == p.coeffs
    for c in parts.values():
        assert c.coeffs and not any(map(pick, c.gens))


def _dict_over(p, gens):
    [q] = poly.align(poly.to_poly(ONE, gens), p)[1:]
    assert q.gens == gens
    return q.coeffs


@settings(max_examples=100, deadline=None)
@given(poly_exprs(), st.sets(st.sampled_from(["t", "x", "u"]), min_size=1))
def test_collect_agrees_with_sympy(e, names):
    picked = sorted(names)
    gens, parts = poly.collect(poly.to_poly(e), lambda g: g.name in names)
    got = {tuple(dict(zip(gens, k)).get(sym(n), 0) for n in picked):
           sympy.sympify(render(poly.from_poly(c)))
           for k, c in parts.items()}
    want = sympy.Poly(sympy.sympify(render(e)),
                      *sympy.symbols(picked)).as_dict()
    assert got.keys() == {k for k, c in want.items() if c}
    assert all(sympy.expand(got[k] - want[k]) == 0 for k in got)
