"""Total derivatives and second prolongation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liesym.expr import (ZERO, ONE, add, differentiate, exp, free_symbols,
                         func, log, mul, powx, rat, sym)
from liesym.jets import (OrderOverflowError, VectorField, dcr_symbols, jet,
                         jet_name, prolong2, total_derivative)
from test_expr import radicals, symbolic_powers

t, x, u, m = sym("t"), sym("x"), sym("u"), sym("m")
u_t, u_x, u_xx, u_tx = jet(1, 0), jet(0, 1), jet(0, 2), jet(1, 1)
TABLE = dcr_symbols()


class TestTotalDerivative:
    def test_dx_u(self):
        assert total_derivative(u, "x", TABLE) == u_x

    def test_dx_power(self):
        assert total_derivative(powx(u, m), "x", TABLE) == \
            m * powx(u, m - 1) * u_x

    def test_dx_product(self):
        # hand application of the operator
        assert total_derivative(x * u_x, "x", TABLE) == u_x + x * u_xx

    def test_order_overflow(self):
        with pytest.raises(OrderOverflowError):
            total_derivative(u_xx, "x", TABLE, max_order=2)

    def test_commutation_on_low_order(self):
        # D_t and D_x commute on jet expressions of order <= 1; the check
        # runs with order-3 coordinates enabled internally
        for e in (u * u_x, t * u_t + x * u_x, powx(u, 3) * u_t):
            a = total_derivative(total_derivative(e, "t", TABLE, 3), "x",
                                 TABLE, 3)
            b = total_derivative(total_derivative(e, "x", TABLE, 3), "t",
                                 TABLE, 3)
            assert (a - b).is_zero_literal


def test_field_substitute():
    X = VectorField(m * t, powx(x, m), mul(m, u))
    assert X.substitute({"m": rat(2)}) == VectorField(2 * t, x * x, 2 * u)


class TestProlongation:
    def test_translation(self):
        pr = prolong2(VectorField(ZERO, ONE, ZERO), TABLE)
        assert pr.eta_t.is_zero_literal
        assert pr.eta_x.is_zero_literal
        assert pr.eta_xx.is_zero_literal

    def test_u_scaling(self):
        pr = prolong2(VectorField(ZERO, ZERO, u), TABLE)
        assert pr.eta_t == u_t
        assert pr.eta_x == u_x
        assert pr.eta_xx == u_xx

    def test_x_scaling(self):
        # hand computation via the prolongation formula
        pr = prolong2(VectorField(ZERO, x, ZERO), TABLE)
        assert pr.eta_t.is_zero_literal
        assert pr.eta_x == -u_x
        assert pr.eta_xx == mul(rat(-2), u_xx)

    def test_constant_fields_vanish(self):
        pr = prolong2(VectorField(rat(3), rat(-2), ZERO), TABLE)
        assert pr.eta_t.is_zero_literal
        assert pr.eta_x.is_zero_literal
        assert pr.eta_xx.is_zero_literal

    def test_mixed_jet_appears_for_x_dependent_xi_t(self):
        pr = prolong2(VectorField(x, ZERO, ZERO), TABLE)
        assert "u_tx" in free_symbols(pr.eta_xx)


coef = st.integers(-4, 4)


@settings(max_examples=60, deadline=None)
@given(coef, coef, coef, coef, coef, coef, coef, coef)
def test_prolongation_linearity(a1, a2, b1, b2, c1, c2, ra, rb):
    """prolong2(a X + b Y) = a prolong2(X) + b prolong2(Y) coefficient-wise
    for rational a, b and affine fields."""
    X = VectorField(a1 * t + a2, b1 * x + b2, c1 * u)
    Y = VectorField(b2 * t, a1 * x + c2, c2 * u)
    a, b = rat(ra), rat(rb)
    left = prolong2(VectorField(*[add(a * f, b * g) for f, g in zip(X, Y)]),
                    TABLE)
    px, py = prolong2(X, TABLE), prolong2(Y, TABLE)
    assert left.eta_t == a * px.eta_t + b * py.eta_t
    assert left.eta_x == a * px.eta_x + b * py.eta_x
    assert left.eta_xx == a * px.eta_xx + b * py.eta_xx


class TestSecondDependent:
    """Jets of a second function v(t, x) differentiate into v's own jets."""

    @staticmethod
    def table():
        table = dcr_symbols()
        for dt, dx in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            table.jet(jet_name(dt, dx, "v"), "v", (dt, dx))
        return table

    def test_jet_names(self):
        assert jet_name(0, 0, "v") == "v"
        assert jet_name(1, 1, "v") == "v_tx"
        assert jet(0, 2, "v") == sym("v_xx")

    def test_dx_of_first_jet(self):
        v_x, v_xx = jet(0, 1, "v"), jet(0, 2, "v")
        assert total_derivative(v_x, "x", self.table()) == v_xx

    def test_dt_of_product(self):
        v, v_t = sym("v"), jet(1, 0, "v")
        assert total_derivative(v * u, "t", self.table()) == v_t * u + v * u_t

    def test_order_overflow_names_the_jet(self):
        with pytest.raises(OrderOverflowError, match="v_xxx"):
            total_derivative(jet(0, 2, "v"), "x", self.table(), max_order=2)

    def test_u_only_expressions_unchanged(self):
        # declaring v changes nothing for expressions in u and its jets
        for e in (u * u_x, t * u_t + x * u_xx, powx(u, m) * u_x):
            for z in ("t", "x"):
                assert total_derivative(e, z, self.table(), 3) == \
                    total_derivative(e, z, TABLE, 3)
        assert jet_name(0, 1) == "u_x" and jet_name(1, 1) == "u_tx"


# -- the one-walk total derivative against its definition ---------------------

def _by_definition(e, z, table, max_order):
    """D_z e = de/dz + sum over jets J of J_z * de/dJ, each partial formed
    on its own; over order, the first jet in name order with a nonzero
    partial is named."""
    out = differentiate(e, z)
    for name in sorted(free_symbols(e)):
        entry = table.jet_index.get(name)
        if entry is None:
            continue
        partial = differentiate(e, name)
        if partial.is_zero_literal:
            continue
        dep, (dt, dx) = entry
        dt, dx = (dt + 1, dx) if z == "t" else (dt, dx + 1)
        if dt + dx > max_order:
            raise OrderOverflowError(
                f"total derivative needs jet {jet_name(dt, dx, dep)} "
                f"beyond order {max_order}")
        out = add(out, mul(jet(dt, dx, dep), partial))
    return out


JET_SYMBOLS = st.sampled_from(
    ["t", "x", "u", "u_t", "u_x", "u_tt", "u_tx", "u_xx",
     "v", "v_t", "v_x", "v_tx", "v_xx"]).map(sym)
EXPONENTS = st.sampled_from([rat(k) for k in (-2, -1, 2, 3)]
                            + [rat(Fraction(1, 2)), rat(Fraction(-1, 3)),
                               m, m + Fraction(1, 2), 1 - m])


@st.composite
def jet_exprs(draw, depth=2):
    """Expressions in t, x and the jets of u and v: sums, products,
    rational and symbolic powers, exp, log and phi, over the kernel
    strategies' radicals and symbolic powers."""
    if depth == 0:
        return draw(st.one_of(JET_SYMBOLS, JET_SYMBOLS, radicals,
                              symbolic_powers, st.integers(-3, 3).map(rat)))
    kind = draw(st.integers(0, 6))
    if kind == 0:
        return add(draw(jet_exprs(depth - 1)), draw(jet_exprs(depth - 1)))
    if kind == 1:
        return mul(draw(jet_exprs(depth - 1)), draw(jet_exprs(depth - 1)))
    if kind == 2:  # a positive base: a jet, or a jet plus a constant
        base = add(draw(JET_SYMBOLS), rat(draw(st.integers(0, 2))))
        return powx(base, draw(EXPONENTS))
    if kind == 3:
        return exp(draw(jet_exprs(depth - 1)))
    if kind == 4:
        return log(add(ONE, powx(draw(JET_SYMBOLS), rat(2))))
    if kind == 5:
        return func("phi", draw(jet_exprs(depth - 1)))
    return draw(jet_exprs(depth - 1))


@settings(max_examples=150, deadline=None)
@given(jet_exprs(), st.sampled_from(["t", "x"]), st.integers(1, 3))
def test_total_derivative_is_its_definition(e, z, max_order):
    table = TestSecondDependent.table()
    try:
        want = _by_definition(e, z, table, max_order)
    except OrderOverflowError as exc:
        with pytest.raises(OrderOverflowError) as got:
            total_derivative(e, z, table, max_order)
        assert str(got.value) == str(exc)
        return
    assert total_derivative(e, z, table, max_order) == want
