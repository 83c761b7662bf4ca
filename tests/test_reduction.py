"""Reduction ansatz construction, certificates, solution handling."""

from fractions import Fraction

import pytest

from liesym.expr import (EULER, ZERO, ONE, add, exp, func, mul, powx, rat,
                         sym)
from liesym.jets import VectorField
from liesym.pde import DCRInstance, build_dcr, heat_equation
from liesym.reduction import (ClosedFormSolution, DegenerateGeneratorError,
                              NotASymmetryError, UnsupportedGeneratorError,
                              affine_data, generator_invariants, reduce_pde,
                              transform_solution, transform_solution_et,
                              verify_solution)
from liesym.equivalence import invert_et, remove_drift

t, x, u, w = sym("t"), sym("x"), sym("u"), sym("w")


class TestAffineData:
    def test_coefficients(self):
        m = sym("m")
        data = affine_data(VectorField(2 + 3 * t, 1 - t + 5 * x, m * u))
        assert data == (rat(2), rat(3), ONE, rat(-1), rat(5), m)

    @pytest.mark.parametrize("field,message", [
        (VectorField(ONE, ZERO, u + 1), "eta must be c*u with constant c"),
        (VectorField(ONE, ZERO, powx(u, rat(-1))),
         "eta must be c*u with constant c"),
        (VectorField(t ** 2, ZERO, ZERO), "xi_t must be affine in t"),
        (VectorField(x, ZERO, ZERO), "xi_t must be affine in t"),
        (VectorField(ZERO, exp(t), ZERO), "xi_x must be affine in (t, x)"),
        (VectorField(ZERO, t * x, u), "xi_x must be affine in (t, x)"),
    ])
    def test_outside_the_class(self, field, message):
        with pytest.raises(UnsupportedGeneratorError) as err:
            affine_data(field)
        assert message in str(err.value)


class TestInvariants:
    def test_traveling_wave(self):
        c = sym("c")
        inv = generator_invariants(VectorField(ONE, c, ZERO))
        assert inv.omega == x - c * t
        assert inv.multiplier == ONE

    def test_scaling_generator(self):
        X = VectorField(-5 * t, -2 * x, u)
        inv = generator_invariants(X)
        # logarithmic/exponential structure: the self-checks X(omega) = 0
        # and X(M) = c M run inside generator_invariants
        assert X.apply_to(inv.omega).is_zero_literal

    def test_galilei_style(self):
        X = VectorField(ONE, t, ZERO)
        inv = generator_invariants(X)
        assert inv.omega == x - t ** 2 / 2

    def test_resonant_case(self):
        X = VectorField(t, x + t, ZERO)
        inv = generator_invariants(X)
        assert X.apply_to(inv.omega).is_zero_literal

    def test_space_only_generator(self):
        X = VectorField(ZERO, x, u.__mul__(rat(3)))
        inv = generator_invariants(X)
        assert inv.omega == t
        assert inv.multiplier == powx(x, rat(3))

    def test_degenerate(self):
        with pytest.raises(DegenerateGeneratorError):
            generator_invariants(VectorField(ZERO, ZERO, u))

    def test_unsupported(self):
        with pytest.raises(UnsupportedGeneratorError):
            generator_invariants(VectorField(x, ZERO, ZERO))
        with pytest.raises(UnsupportedGeneratorError):
            generator_invariants(VectorField(ONE, ZERO, u ** 2))


class TestReduce:
    def test_traveling_wave_ode(self):
        pde = build_dcr(DCRInstance.make(m=2, p=1, b1=1))
        c = sym("c")
        red = reduce_pde(pde, VectorField(ONE, c, ZERO))
        assert red.certificate.is_zero_literal
        phi0 = func("phi", w)
        phi1 = func("phi", w, 1)
        phi2 = func("phi", w, 2)
        # (phi^2)'' + (phi^2)' + c phi' up to the extracted constant factor
        expected = 2 * phi0 * phi2 + 2 * phi1 ** 2 + 2 * phi0 * phi1 + c * phi1
        assert (2 * red.ode - expected).is_zero_literal
        assert red.factor == rat(-2)

    def test_heat_stationary(self):
        red = reduce_pde(heat_equation(), VectorField(ONE, ZERO, ZERO))
        assert red.ode == func("phi", w, 2)

    def test_scaling_reduction_certificate(self):
        pde = build_dcr(DCRInstance.make(m=2, p=3, b1=1))
        red = reduce_pde(pde, VectorField(-5 * t, -2 * x, u))
        assert red.certificate.is_zero_literal
        assert "w" in {s for s in ("w",)}  # ODE lives in w
        from liesym.expr import free_symbols

        assert free_symbols(red.ode) <= {"w"}

    def test_not_a_symmetry(self):
        pde = build_dcr(DCRInstance.make(m=2, p=1, b1=1))
        with pytest.raises(NotASymmetryError):
            reduce_pde(pde, VectorField(ZERO, x, ZERO))


class TestSolutions:
    def test_constant_state(self):
        inst = DCRInstance.make().replace(b0=sym("b0"), b1=sym("b1"),
                                          c0=sym("c0"), c1=sym("c1"))
        v = verify_solution(build_dcr(inst), ClosedFormSolution(ONE))
        assert v.is_solution
        assert v.residual.is_zero_literal

    def test_linear_on_heat(self):
        assert verify_solution(heat_equation(),
                               ClosedFormSolution(x)).is_solution

    def test_quadratic_refuted(self):
        v = verify_solution(heat_equation(), ClosedFormSolution(x ** 2))
        assert v.verdict == "not-solution"
        assert v.residual == rat(-2)

    def test_random_parameter_tuples(self):
        import random

        rng = random.Random(5)
        for _ in range(20):
            inst = DCRInstance.make(
                m=Fraction(rng.randint(1, 9), rng.randint(1, 3)) or 2,
                p=Fraction(rng.randint(1, 6), rng.randint(1, 2)),
                b0=rng.randint(-4, 4), b1=rng.randint(-4, 4),
                c0=rng.randint(-4, 4), c1=rng.randint(-4, 4))
            if inst.m == rat(0):
                continue
            v = verify_solution(build_dcr(inst), ClosedFormSolution(ONE))
            assert v.is_solution


class TestTransform:
    def test_translation(self):
        eps = sym("eps")
        out = transform_solution(ClosedFormSolution(x ** 2),
                                 VectorField(ZERO, ONE, ZERO), eps)
        assert out.expr == (x - eps) ** 2

    def test_scaling_flow_of_u(self):
        eps = sym("eps")
        out = transform_solution(ClosedFormSolution(x),
                                 VectorField(ZERO, ZERO, u), eps)
        assert out.expr == mul(powx(EULER, eps), x)
        assert verify_solution(heat_equation(), out).is_solution

    def test_group_law(self):
        X = VectorField(-5 * t, -2 * x, u)
        e1, e2 = sym("e1s"), sym("e2s")
        s0 = ClosedFormSolution(x ** 2)
        twice = transform_solution(transform_solution(s0, X, e1), X, e2)
        once = transform_solution(s0, X, add(e1, e2))
        assert (twice.expr - once.expr).is_zero_literal

    def test_preserves_solutions(self):
        pde = build_dcr(DCRInstance.make(m=2, p=1, b1=1))
        sol = ClosedFormSolution(ONE)
        for eps in (Fraction(1, 2), Fraction(-3), Fraction(2)):
            out = transform_solution(sol, VectorField(ONE, rat(2), ZERO), eps)
            assert verify_solution(pde, out).is_solution

    def test_galilei_witness_maps_solutions(self):
        inst = DCRInstance.make(m=2, p=1, b0=3, b1=1, c0=0, c1=1)
        free_inst, witness = remove_drift(inst)
        sol = ClosedFormSolution(ONE)
        assert verify_solution(build_dcr(free_inst), sol).is_solution
        moved = transform_solution_et(sol, invert_et(witness))
        assert verify_solution(build_dcr(inst), moved).is_solution

    def test_galilei_witness_nontrivial_profile(self):
        # exponential traveling profile on the drifted linear equation
        inst = DCRInstance.make(m=1, p=1, b0=5)
        sol = ClosedFormSolution(exp(x + t))
        assert verify_solution(heat_equation(), sol).is_solution
        moved = transform_solution_et(sol, invert_et(remove_drift(inst)[1]))
        assert verify_solution(build_dcr(inst), moved).is_solution
