"""Invariance residuals, verdicts, and the determining-system search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liesym import jets, symmetry
from liesym import pde as pde_module
from liesym.dsl import parse_pde
from liesym.expr import (ZERO, ONE, Add, _coeff_monomial, add, mul, powx, rat,
                         sym)
from liesym.jets import VectorField, dcr_symbols, jet
from liesym.linalg import nullspace
from liesym.pde import (DCRInstance, EvolutionPDE, build_dcr, heat_equation,
                        power_diffusion)
from liesym.symmetry import (UnsupportedCoefficientsError, Verdict,
                             find_symmetries, invariance_residual,
                             is_symmetry)

t, x, u, m, p, b1 = (sym("t"), sym("x"), sym("u"), sym("m"), sym("p"),
                     sym("b1"))
u_x = jet(0, 1)

X1 = VectorField(ONE, ZERO, ZERO)
X2 = VectorField(ZERO, ONE, ZERO)


def third_generator(mm=m, pp=p) -> VectorField:
    return VectorField((mm - 2 * pp - 1) * t, (mm - pp - 1) * x, u)


def eq4(mm=m, pp=p, bb=b1):
    return build_dcr(DCRInstance.make(m=mm, p=pp, b1=bb))


class TestVerification:
    def test_time_translation_always(self):
        for pde in (eq4(), heat_equation(), power_diffusion()):
            assert is_symmetry(pde, X1).is_symmetry

    def test_space_translation_with_drift(self):
        pde = build_dcr(DCRInstance.make(b0=sym("b0"), b1=b1,
                                         c0=sym("c0"), c1=sym("c1")))
        assert is_symmetry(pde, X2).is_symmetry

    def test_third_generator_symbolic(self):
        v = is_symmetry(eq4(), third_generator())
        assert v.verdict is Verdict.SYMMETRY
        assert v.residual.is_zero_literal

    def test_third_generator_samples(self):
        for mm, pp in ((2, 1), (3, 1), (2, 3)):
            for bb in (1, -1):
                v = is_symmetry(eq4(mm, pp, bb), third_generator(rat(mm),
                                                                 rat(pp)))
                assert v.residual.is_zero_literal

    def test_drifted_variant_refuted(self):
        # the variant with an extra -t*Dx term fails on the drift-free
        # equation; the residual is the leftover transport term
        X3d = VectorField(-t, -t, u)
        v = is_symmetry(eq4(rat(2), rat(1), rat(1)), X3d)
        assert v.verdict is Verdict.NOT_SYMMETRY
        assert v.residual == u_x

    def test_drifted_variant_holds_with_matching_drift(self):
        # ... but it does generate a symmetry of the drifted equation with
        # b0 = -1/p (here p = 1)
        pde = build_dcr(DCRInstance.make(m=2, p=1, b0=-1, b1=1))
        assert is_symmetry(pde, VectorField(-t, -t, u)).is_symmetry

    def test_heat_x_scaling_refuted(self):
        v = is_symmetry(heat_equation(), VectorField(ZERO, x, ZERO))
        assert v.verdict is Verdict.NOT_SYMMETRY
        assert v.residual == 2 * jet(0, 2)

    def test_exponential_generator_special_case(self):
        from liesym.expr import exp

        pde = build_dcr(DCRInstance.make(m=m, p=m - 1, b1=1, c1=1))
        X4 = VectorField(exp(-(m - 1) * t), ZERO, exp(-(m - 1) * t) * u)
        assert is_symmetry(pde, X4).is_symmetry


@settings(max_examples=30, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_linear_span_is_symmetry(c1, c2, c3):
    """Rational combinations of the three generators stay symmetries."""
    pde = eq4(rat(2), rat(3), rat(1))
    X = X1.scale(rat(c1)) + X2.scale(rat(c2)) \
        + third_generator(rat(2), rat(3)).scale(rat(c3))
    if X.is_zero():
        return
    assert invariance_residual(pde, X).is_zero_literal


class TestFindSymmetries:
    def test_heat_count(self):
        # six classical generators plus three superposition directions
        result = find_symmetries(heat_equation(), 2)
        assert len(result) == 9

    def test_porous_m2(self):
        assert len(find_symmetries(power_diffusion(2), 2)) == 4

    def test_fast_diffusion_special_value(self):
        # the five-generator case of u_t = (u^m)_xx is m = -1/3, with the
        # projective generator x^2 Dx - 3xu Du; verified by the residual
        result = find_symmetries(power_diffusion(Fraction(-1, 3)), 2)
        assert len(result) == 5
        X5 = VectorField(ZERO, x ** 2, -3 * x * u)
        assert is_symmetry(power_diffusion(Fraction(-1, 3)), X5).is_symmetry

    def test_minus_four_thirds_is_generic(self):
        # the diffusivity exponent -4/3 corresponds to m - 1 = -4/3, not to
        # m = -4/3; at m = -4/3 the algebra has the generic four generators
        result = find_symmetries(power_diffusion(Fraction(-4, 3)), 2)
        assert len(result) == 4
        X5 = VectorField(ZERO, x ** 2, -3 * x * u)
        assert not is_symmetry(power_diffusion(Fraction(-4, 3)), X5).is_symmetry

    def test_eq4_samples(self):
        for mm, pp in ((2, 1), (3, 1), (2, 3)):
            result = find_symmetries(eq4(rat(mm), rat(pp), rat(1)), 2)
            assert len(result) == 3

    def test_soundness_of_returned_fields(self):
        result = find_symmetries(power_diffusion(2), 2)
        for verdict in result.verified:
            assert verdict.residual.is_zero_literal

    def test_symbolic_exponent_rejected(self):
        with pytest.raises(UnsupportedCoefficientsError):
            find_symmetries(power_diffusion(), 2)

    def test_special_case_polynomial_part(self):
        # with the reaction switched on, only the translations are
        # polynomial; the extra generator is exponential in t
        for mm in (2, 3):
            pde = build_dcr(DCRInstance.make(m=mm, p=mm - 1, b1=1, c1=1))
            assert len(find_symmetries(pde, 2)) == 2

    def test_closure_of_discovered_algebra(self):
        from liesym.algebra import check_closure

        result = find_symmetries(power_diffusion(2), 2)
        assert check_closure(result.fields).closed


# ---------------------------------------------------------------------------
# operator-form assembly of the determining system
# ---------------------------------------------------------------------------

REACTION = "u_t = D(u^2,x,2)+D(u^2,x)+u^3"
HEAT = "u_t = D(u,x,2)"


def _pde(text):
    table = dcr_symbols()
    return EvolutionPDE(rhs=parse_pde(text, table), table=table)


def _per_field_matrix(pde, basis):
    """The determining matrix from one residual per basis field: the
    reference for the operator-form assembly."""
    rows = {}
    for col, entry in enumerate(basis):
        r = invariance_residual(pde, symmetry._basis_field(entry))
        for term in (r.terms if isinstance(r, Add) else (r,)):
            if term.is_zero_literal:
                continue
            coeff, mono = _coeff_monomial(term)
            rows.setdefault(mono.key(), [Fraction(0)] * len(basis))[col] += coeff
    return list(rows.values())


def _assert_same_matrix(pde, bound):
    basis = symmetry._ansatz_basis(bound)
    got = symmetry._determining_matrix(pde, basis)
    want = _per_field_matrix(pde, basis)
    # the same row multiset; the row order is free, and the nullspace, from
    # which the generator basis is read, does not depend on it
    assert sorted(got) == sorted(want)
    assert nullspace(got, len(basis)) == nullspace(want, len(basis))


# one rhs term: coefficient, powers of t and x, a rational power of u, and
# powers of u_x and u_xx
_rhs_term = st.tuples(
    st.integers(-3, 3).filter(bool), st.integers(0, 2), st.integers(0, 2),
    st.fractions(-3, 3, max_denominator=3), st.integers(0, 2),
    st.integers(0, 1))


@settings(max_examples=20, deadline=None)
@given(st.lists(_rhs_term, min_size=1, max_size=3), st.integers(1, 4))
def test_operator_assembly_matches_per_field_residuals(terms, bound):
    rhs = add(*(mul(c, powx(t, rat(a)), powx(x, rat(b)), powx(u, rat(r)),
                    powx(u_x, rat(p)), powx(jet(0, 2), rat(q)))
                for c, a, b, r, p, q in terms))
    _assert_same_matrix(EvolutionPDE(rhs=rhs, table=dcr_symbols()), bound)


@pytest.mark.parametrize("text,bound", [(REACTION, b) for b in (2, 4, 6, 8)]
                         + [(HEAT, b) for b in range(2, 7)])
def test_operator_assembly_on_benchmark_sweep(text, bound):
    _assert_same_matrix(_pde(text), bound)


@pytest.mark.parametrize("text,bound", [(HEAT, 1), (HEAT, 3), (REACTION, 8)])
def test_residuals_per_search(monkeypatch, text, bound):
    # one residual of a generic function per component shape, then one per
    # re-verified field, whatever the number of ansatz fields
    calls = []
    real = symmetry.invariance_residual

    def counted(pde, X, **kw):
        calls.append(X)
        return real(pde, X, **kw)

    monkeypatch.setattr(symmetry, "invariance_residual", counted)
    found = find_symmetries(_pde(text), bound)
    assert len(calls) <= 4 + len(found)


@pytest.mark.parametrize("text", [HEAT, REACTION])
def test_rhs_derivatives_computed_once(monkeypatch, text):
    # the operator residuals, the re-verifications and later verdicts on
    # the same PDE share one set of rhs derivatives
    pde = _pde(text)
    partials, totals = [], []
    real_diff, real_total = pde_module.differentiate, jets.total_derivative

    def diff(e, v):
        if e is pde.rhs:
            partials.append(v)
        return real_diff(e, v)

    def total(e, *args, **kw):
        if e is pde.rhs:
            totals.append(args)
        return real_total(e, *args, **kw)

    monkeypatch.setattr(pde_module, "differentiate", diff)
    monkeypatch.setattr(jets, "total_derivative", total)
    found = find_symmetries(pde, 3)
    for f in found.fields:
        assert is_symmetry(pde, f).is_symmetry
    assert sorted(partials) == sorted(["t", "x", "u", "u_x", "u_xx"])
    assert len(totals) == 1
