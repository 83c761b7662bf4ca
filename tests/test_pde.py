"""Family model: building, matching, flags, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liesym.expr import ExprError, ONE, add, mul, powx, rat, sym
from liesym.jets import dcr_symbols, jet
from liesym.pde import (DCRInstance, EvolutionPDE, NotInFamilyError,
                        build_dcr, heat_equation, power_diffusion,
                        special_case_flags, to_family)

u, m, p = sym("u"), sym("m"), sym("p")
u_x, u_xx = jet(0, 1), jet(0, 2)


class TestBuild:
    def test_hand_expansion_m2_p1(self):
        pde = build_dcr(DCRInstance.make(m=2, p=1, b1=1))
        assert pde.rhs == 2 * u * u_xx + 2 * u_x ** 2 + 2 * u * u_x

    def test_symbolic_power_diffusion(self):
        pde = power_diffusion()
        want = m * powx(u, m - 1) * u_xx \
            + m * (m - 1) * powx(u, m - 2) * u_x ** 2
        assert pde.rhs == want

    def test_reaction_vanishes_at_one(self):
        from liesym.expr import substitute
        from liesym.pde import reaction_term

        inst = DCRInstance.make(m=m, p=p, c0=sym("c0"), c1=sym("c1"))
        assert substitute(reaction_term(inst), {"u": ONE}).is_zero_literal

    def test_m_zero_rejected(self):
        with pytest.raises(ExprError):
            build_dcr(DCRInstance.make(m=0, p=1))

    def test_rhs_must_be_evolution(self):
        with pytest.raises(ExprError):
            EvolutionPDE(rhs=sym("u_t") * u_x, table=dcr_symbols())


class TestToFamily:
    def test_match_hand_expansion(self):
        pde = build_dcr(DCRInstance.make(m=2, p=1, b1=1))
        fam = to_family(pde)
        assert fam.A == 2 * u
        assert fam.B == 2 * u
        assert fam.C.is_zero_literal

    def test_heat(self):
        fam = to_family(heat_equation())
        assert fam.A == ONE
        assert fam.B.is_zero_literal
        assert fam.C.is_zero_literal

    def test_round_trip_structure(self):
        for mm, pp in ((2, 1), (3, 2), (Fraction(5, 2), 2)):
            inst = DCRInstance.make(m=mm, p=pp, b0=2, b1=3, c0=1, c1=4)
            fam = to_family(build_dcr(inst))
            assert fam.A == mm * powx(u, mm - 1)
            assert fam.B == add(rat(2), mul(rat(3), rat(pp + 1),
                                            powx(u, pp)))

    def test_out_of_family(self):
        table = dcr_symbols()
        pde = EvolutionPDE(rhs=sym("t") * u_xx, table=table)
        with pytest.raises(NotInFamilyError):
            to_family(pde)
        pde2 = EvolutionPDE(rhs=u_x ** 3, table=table)
        with pytest.raises(NotInFamilyError):
            to_family(pde2)

    @pytest.mark.parametrize("rhs,message", [
        (u_xx * u_x, "rhs is not A(u)*u_xx + A'(u)*u_x^2"),
        (u_xx + powx(1 + u_x, rat(Fraction(1, 2))), "rhs is not A(u)*u_xx"),
        (u * u_xx + 2 * u_x ** 2, "the coefficient 2 of u_x^2 is not A'(u)"),
        (u_x + u, "no u_xx term (A = 0)"),
        (u_xx + sym("x") * u_x, "B(u) depends on x"),
        (u_xx + sym("t"), "C(u) depends on t"),
    ])
    def test_out_of_family_messages(self, rhs, message):
        with pytest.raises(NotInFamilyError) as err:
            to_family(EvolutionPDE(rhs=rhs, table=dcr_symbols()))
        assert message in str(err.value)


class TestFlags:
    def test_special_case(self):
        assert special_case_flags(
            DCRInstance.make(m=2, p=1, c0=0, c1=1)).special_power_reaction
        assert not special_case_flags(
            DCRInstance.make(m=2, p=1, c0=1)).special_power_reaction

    def test_drift(self):
        assert special_case_flags(DCRInstance.make(m=2, p=1, b0=5)).drift_removable
        assert not special_case_flags(DCRInstance.make(m=2, p=1)).drift_removable

    def test_pure_convection_diffusion(self):
        assert special_case_flags(
            DCRInstance.make(m=2, p=1, b1=1)).pure_convection_diffusion

    def test_degenerate_markers(self):
        f = special_case_flags(DCRInstance.make(m=1, p=0))
        assert f.linear_diffusion and f.degenerate_p


class TestSerialization:
    def test_record_round_trip(self):
        inst = DCRInstance.make(m=2, p=Fraction(3, 2), b0=Fraction(-7, 2),
                                b1=1, c0=0, c1=4)
        rec = inst.to_record()
        assert rec["p"] == "3/2"
        back = DCRInstance.from_record(rec)
        assert back == inst

    def test_symbolic_record(self):
        inst = DCRInstance.make()
        rec = inst.to_record()
        assert rec["m"] == "m"
        assert DCRInstance.from_record(rec) == inst


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 4),
       st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3), st.integers(-3, 3))
def test_build_injective_on_samples(mm, pp, b0a, b1a, c0a, c1a, d1, d2):
    """Distinct coefficient tuples give distinct canonical right-hand
    sides at fixed generic exponents."""
    a = DCRInstance.make(m=mm, p=pp, b0=b0a, b1=b1a, c0=c0a, c1=c1a)
    b = DCRInstance.make(m=mm, p=pp, b0=b0a + d1, b1=b1a, c0=c0a,
                         c1=c1a + d2)
    same_params = (d1 == 0 and d2 == 0)
    assert (build_dcr(a).rhs == build_dcr(b).rhs) == same_params
