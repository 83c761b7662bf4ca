"""Kernel tests: canonical forms, exact arithmetic, calculus, zero test."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liesym.expr import (
    EULER, ZERO, ONE, Add, Func, Mul, Pow, Rat, Sym, ZeroVerdict,
    _int_nth_root, add, differentiate,
    _stable_fraction, evaluate_exact, exp, free_symbols, func, is_zero, log,
    mul, powx, rat, sample_assignment, simplify, substitute, sym,
)

t, x, u, m, p = sym("t"), sym("x"), sym("u"), sym("m"), sym("p")
c0, c1 = sym("c0"), sym("c1")


class TestCanonicalForm:
    def test_exponent_addition(self):
        assert powx(u, p) * powx(u, 2 - m) == powx(u, add(rat(2), p, -m))

    def test_cancellation(self):
        assert (2 * (x + t) - 2 * x - 2 * t).is_zero_literal
        assert (u - u).is_zero_literal

    def test_power_of_power(self):
        assert powx(powx(u, p), 2) == powx(u, 2 * p)
        assert (powx(u, 2 * p) - powx(powx(u, p), 2)).is_zero_literal

    def test_literal_zero_unique(self):
        assert add() == ZERO
        assert mul(rat(0), x) == ZERO

    def test_reaction_term_merges(self):
        reaction = (1 - u ** p) * (c1 * u ** p) * u ** (2 - m)
        merged = substitute(reaction, {"p": m - 1})
        assert merged == c1 * u - c1 * powx(u, m)

    def test_substitute_u_one_kills_reaction(self):
        reaction = (1 - u ** p) * (c0 + c1 * u ** p) * u ** (2 - m)
        assert substitute(reaction, {"u": ONE}).is_zero_literal

    def test_integer_power_expansion(self):
        lhs = powx(x + u, 2)
        assert lhs == x ** 2 + 2 * x * u + u ** 2

    def test_rational_roots(self):
        assert powx(rat(4), Fraction(1, 2)) == rat(2)
        assert powx(rat(27), Fraction(2, 3)) == rat(9)

    def test_root_of_huge_square_does_not_overflow(self):
        assert powx(rat(10 ** 400), Fraction(1, 2)) == rat(10 ** 200)

    def test_roots_beyond_float_precision(self):
        # a float seed misses these roots by more than one
        r = 10 ** 17 + 3
        assert _int_nth_root(r ** 2, 2) == r
        assert _int_nth_root(r ** 3, 3) == r
        assert _int_nth_root(r ** 3 + 1, 3) is None
        assert powx(rat(r ** 2), Fraction(1, 2)) == rat(r)
        assert powx(rat(Fraction(8, r ** 3)), Fraction(-2, 3)) == \
            rat(Fraction(r ** 2, 4))

    def test_root_index_beyond_bit_length(self):
        # for n > 1 and k >= n.bit_length(), 1 < n^(1/k) < 2
        assert _int_nth_root(3, 10 ** 9) is None
        assert _int_nth_root(2 ** 40, 40) == 2
        assert _int_nth_root(2 ** 40 + 1, 40) is None

    def test_prime_splitting(self):
        assert powx(rat(6), m) == powx(rat(2), m) * powx(rat(3), m)
        # merged exponents stay confluent across construction orders
        assert powx(rat(2), m + Fraction(3, 2)) == \
            powx(rat(2), m) * powx(rat(2), Fraction(3, 2))

    def test_radical_arithmetic(self):
        r = powx(rat(3), Fraction(-1, 2))
        assert powx(r, 2) == rat(Fraction(1, 3))

    def test_exp_log(self):
        a, b = sym("a"), sym("b")
        assert exp(a) * exp(b) == exp(a + b)
        assert exp(2 * log(u)) == u ** 2
        assert exp(m * log(u)) == powx(u, m)
        assert log(rat(8)) == 3 * log(rat(2))
        assert log(ONE).is_zero_literal
        assert log(EULER) == ONE

    def test_mul_zero_denominator_guard(self):
        with pytest.raises(ZeroDivisionError):
            powx(ZERO, rat(-1))


@pytest.mark.parametrize("node,kind", [
    (rat(2), Rat), (x, Sym), (func("f", x), Func), (powx(x, rat(-1)), Pow),
    (mul(2, x, t), Mul), (x + t, Add)])
def test_nodes_are_immutable(node, kind):
    assert type(node) is kind
    for name in kind.__slots__ + ("_hash", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(node, name, ZERO)


class TestCalculus:
    def test_power_rule_symbolic_exponent(self):
        assert differentiate(powx(u, m), "u") == m * powx(u, m - 1)

    def test_constant_slope(self):
        e = (m - 2 * p - 1) * t
        assert differentiate(e, "t") == m - 2 * p - 1

    def test_opaque_function_chain(self):
        w = sym("w")
        assert differentiate(func("phi", w), "w") == func("phi", w, 1)
        inner = func("phi", w ** 2)
        assert differentiate(inner, "w") == 2 * w * func("phi", w ** 2, 1)

    def test_log_rule(self):
        assert differentiate(log(x), "x") == powx(x, -1)

    def test_exp_rule(self):
        assert differentiate(exp(3 * t), "t") == 3 * exp(3 * t)


class TestZeroTest:
    def test_zero_only_for_literal(self):
        assert is_zero(ZERO) is ZeroVerdict.ZERO
        assert is_zero(powx(u, p) - powx(u, p)) is ZeroVerdict.ZERO

    def test_nonzero(self):
        assert is_zero(u - 1) is ZeroVerdict.NONZERO
        assert is_zero(rat(Fraction(-3, 7))) is ZeroVerdict.NONZERO

    def test_power_rule_example(self):
        # oracle: evaluation at u=2, p=3 gives 64 - 64
        e = powx(u, 2 * p) - powx(powx(u, p), 2)
        assert evaluate_exact(e, {"u": Fraction(2), "p": Fraction(3)}) == 0
        assert is_zero(e) is ZeroVerdict.ZERO

    def test_parameter_sampling_avoids_degeneracies(self):
        for i in range(3):
            vals = sample_assignment({"m", "p"}, i, parameters={"m", "p"})
            assert vals["m"] not in (0, 1)
            assert vals["p"] != 0
            assert vals["m"].denominator == 1

    @pytest.mark.parametrize("args, want", [
        (("a",), Fraction(52, 9)),
        (("('f', 0, Fraction(3, 5))",), Fraction(74, 5)),
        (("0:0:x", 2, 7), Fraction(5, 7)),
        (("seed", 1, 1000), Fraction(423, 7)),
    ])
    def test_stable_fraction_is_pinned(self, args, want):
        # the values every zero-test sample is drawn from: a change here
        # moves residual verdicts and audit samples
        assert _stable_fraction(*args) == want

    @pytest.mark.parametrize("names, index, seed, parameters, want", [
        (("t", "x", "u"), 0, 0, None,
         {"t": Fraction(64), "u": Fraction(117649, 729),
          "x": Fraction(15625, 117649)}),
        (("m", "p", "x"), 3, 0, {"m", "p"},
         {"m": Fraction(80), "p": Fraction(25), "x": Fraction(15625, 729)}),
        (("u", "c0"), 7, 42, {"c0"},
         {"c0": Fraction(43), "u": Fraction(15625, 729)}),
        (("t",), 123, 5, set(), {"t": Fraction(1)}),
    ])
    def test_sample_assignment_is_pinned(self, names, index, seed,
                                         parameters, want):
        assert sample_assignment(names, index, seed, parameters) == want

    def test_undecided_for_hidden_identity(self):
        # equal as functions but not in the rewrite system: stays undecided,
        # never NONZERO
        e = (x + u) * powx(x + u, -2) - powx(x + u, -1)
        assert is_zero(e) in (ZeroVerdict.UNDECIDED, ZeroVerdict.ZERO)


# -- property-based checks ---------------------------------------------------

names = st.sampled_from(["t", "x", "u"])


@st.composite
def poly_exprs(draw, depth=3):
    """Random polynomial expressions over t, x, u with rational constants."""
    if depth == 0:
        kind = draw(st.integers(0, 1))
        if kind == 0:
            return sym(draw(names))
        return rat(Fraction(draw(st.integers(-9, 9)),
                            draw(st.integers(1, 7))))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return add(draw(poly_exprs(depth=depth - 1)),
                   draw(poly_exprs(depth=depth - 1)))
    if kind == 1:
        return mul(draw(poly_exprs(depth=depth - 1)),
                   draw(poly_exprs(depth=depth - 1)))
    if kind == 2:
        return powx(sym(draw(names)), rat(draw(st.integers(0, 4))))
    return draw(poly_exprs(depth=depth - 1))


@settings(max_examples=120, deadline=None)
@given(poly_exprs())
def test_simplify_idempotent(e):
    assert simplify(e) == e


@settings(max_examples=120, deadline=None)
@given(poly_exprs(), st.sampled_from(["t", "x", "u"]), st.integers(0, 2))
def test_derivative_matches_exact_evaluation(e, name, sample_index):
    """d(e)/dx evaluated exactly equals the difference-free symbolic
    derivative: compare through the polynomial identity
    e(x + h) - e(x) = integral, checked at exact rational points via a
    secant of the primitive in one variable."""
    de = differentiate(e, name)
    assignment = sample_assignment(free_symbols(e) | free_symbols(de) | {name},
                                   sample_index)
    h = Fraction(1, 97)
    up = dict(assignment)
    up[name] = assignment[name] + h
    down = dict(assignment)
    down[name] = assignment[name] - h
    # exact central difference of a polynomial of degree <= 12 is the exact
    # derivative up to the O(h^2) polynomial remainder; instead of bounding
    # it, compare the symbolic derivative of the evaluated 1-d polynomial:
    # differentiate is linear, so check additivity and the product rule
    # directly on exact values via a fresh split.
    lhs = evaluate_exact(de, assignment)
    # Richardson: for polynomials, derivative = lim; use 3-point exact
    # Lagrange differentiation at nodes -h, 0, +h (exact for degree <= 2 in
    # the remainder sense); to stay exact for any degree, use the full
    # Lagrange rule on deg+1 nodes.
    deg = 14
    nodes = [assignment[name] + Fraction(k, 13) for k in range(deg + 1)]
    vals = []
    for nv in nodes:
        a2 = dict(assignment)
        a2[name] = nv
        vals.append(evaluate_exact(e, a2))
    # exact derivative of the interpolating polynomial at assignment[name]
    x0 = assignment[name]
    dtotal = Fraction(0)
    for i, xi in enumerate(nodes):
        # derivative of Lagrange basis l_i at x0
        dl = Fraction(0)
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            term = Fraction(1)
            for k, xk in enumerate(nodes):
                if k in (i, j):
                    continue
                term *= (x0 - xk) / (xi - xk)
            dl += term / (xi - xj)
        dtotal += vals[i] * dl
    assert lhs == dtotal


@settings(max_examples=100, deadline=None)
@given(poly_exprs())
def test_is_zero_never_zero_on_nonzero_samples(e):
    verdict = is_zero(e)
    if verdict is ZeroVerdict.ZERO:
        for i in range(3):
            assignment = sample_assignment(free_symbols(e), i)
            assert evaluate_exact(e, assignment) == 0
