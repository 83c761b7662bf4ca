"""Brackets, structure constants, invariants, identification witnesses."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liesym import algebra, linalg
from liesym.dsl import parse_vector_field
from liesym.expr import ZERO, ONE, add, mul, powx, rat, sym
from liesym.jets import VectorField, dcr_symbols
from liesym.algebra import (DependentBasisError, LieAlgebra, NotClosedError,
                            algebra_invariants, bracket,
                            canonical_class_by_name, center, check_closure,
                            derived_subalgebra, identify, killing_form,
                            load_class_catalog, structure_constants)
from liesym.linalg import identity, matvec
from liesym.pde import heat_equation, power_diffusion
from liesym.symmetry import find_symmetries

t, x, u, m, p = sym("t"), sym("x"), sym("u"), sym("m"), sym("p")

X1 = VectorField(ONE, ZERO, ZERO)
X2 = VectorField(ZERO, ONE, ZERO)
X3 = VectorField((m - 2 * p - 1) * t, (m - p - 1) * x - t, u)


class TestBracket:
    def test_translations_commute(self):
        assert bracket(X1, X2).is_zero()

    def test_bracket_x1_x3(self):
        # direct commutator computation with the printed third generator
        Z = bracket(X1, X3)
        assert Z.xi_t == m - 2 * p - 1
        assert Z.xi_x == rat(-1)
        assert Z.eta.is_zero_literal

    def test_bracket_x2_x3(self):
        Z = bracket(X2, X3)
        assert Z.xi_t.is_zero_literal
        assert Z.xi_x == m - p - 1
        assert Z.eta.is_zero_literal

    def test_bilinearity(self):
        a, b = rat(Fraction(3, 2)), rat(-2)
        lhs = bracket(X1.scale(a) + X2.scale(b), X3)
        rhs = bracket(X1, X3).scale(a) + bracket(X2, X3).scale(b)
        assert lhs.xi_t == rhs.xi_t
        assert lhs.xi_x == rhs.xi_x
        assert lhs.eta == rhs.eta


class TestStructureConstants:
    def test_symbolic_eq5_table(self):
        L = structure_constants([X1, X2, X3], parameters={"m", "p"})
        # [X1,X3] = (m-2p-1) X1 - X2, [X2,X3] = (m-p-1) X2, [X1,X2] = 0
        assert list(L.c[0][2]) == [m - 2 * p - 1, rat(-1), ZERO]
        assert list(L.c[1][2]) == [ZERO, m - p - 1, ZERO]
        assert all(e.is_zero_literal for e in L.c[0][1])
        L.check_jacobi()
        L.check_antisymmetry()

    def test_abelian(self):
        L = structure_constants([X1, X2, VectorField(ZERO, ZERO, ONE)])
        assert all(L.c[i][j][k].is_zero_literal
                   for i in range(3) for j in range(3) for k in range(3))

    def test_not_closed(self):
        # x d/dx and x^2 d/dx bracket to x^2 d/dx ... checked against a span
        # that misses the required direction
        fields = [VectorField(ZERO, ONE, ZERO),
                  VectorField(ZERO, x ** 2, ZERO),
                  VectorField(ZERO, ZERO, u)]
        rep = check_closure(fields)
        assert not rep.closed
        assert rep.violations

    def test_dependent_basis(self):
        with pytest.raises(DependentBasisError):
            structure_constants([X1, X1.scale(rat(2))])

    def test_one_elimination_for_every_bracket(self, monkeypatch):
        calls = []

        def counted(*args, **kw):
            calls.append(args)
            return linalg.solve_symbolic(*args, **kw)

        monkeypatch.setattr(algebra, "solve_symbolic", counted)
        L = structure_constants([X1, X2, X3], parameters={"m", "p"})
        assert len(calls) == 1
        assert list(L.c[0][2]) == [m - 2 * p - 1, rat(-1), ZERO]

    def test_first_pair_leaving_the_span_is_reported(self):
        # the heat equation's bound-2 generators: [e5, e9] = (x^3 + 6tx) Du
        # needs the degree-3 solution, and it is the first pair in order
        # that leaves the span
        fields = find_symmetries(heat_equation(), 2).fields
        with pytest.raises(NotClosedError) as exc:
            structure_constants(fields)
        assert str(exc.value) == (
            "bracket [e5, e9] leaves the span; leftover VectorField(xi_t=0, "
            "xi_x=0, eta=x^3 + 6*t*x)")
        assert exc.value.pair == (4, 8)


class TestInvariants:
    def test_abelian_3(self):
        L = canonical_class_by_name("3A1").algebra
        inv = algebra_invariants(L)
        assert inv.abelian and inv.center_dim == 3
        assert inv.derived_dims == ()

    def test_eq5_at_2_3(self):
        L = structure_constants([X1, X2, VectorField(-5 * t, -2 * x - t, u)])
        inv = algebra_invariants(L)
        assert inv.derived_dims[0] == 2
        assert inv.center_dim == 0
        assert inv.derived_abelian

    def test_2a2(self):
        L = canonical_class_by_name("2A2").algebra
        inv = algebra_invariants(L)
        assert inv.derived_dims[0] == 2
        assert inv.center_dim == 0
        assert inv.killing_rank == 2

    def test_killing_signatures_separate_simple_algebras(self):
        sl2 = canonical_class_by_name("A3,8").algebra
        so3 = canonical_class_by_name("A3,9").algebra
        assert algebra_invariants(sl2).killing_signature == (2, 1)
        assert algebra_invariants(so3).killing_signature == (0, 3)


class TestIdentify:
    def test_derived_algebra_and_centre_computed_once(self, monkeypatch):
        calls = {"center": 0, "derived_subalgebra": 0}
        for name in calls:
            def counted(L, name=name, real=getattr(algebra, name)):
                calls[name] += 1
                return real(L)
            monkeypatch.setattr(algebra, name, counted)
        table = dcr_symbols()
        L = structure_constants([parse_vector_field(f, table)
                                 for f in ("Dx", "x*Dx", "Du")])
        assert identify(L).label == "A2+A1"
        assert calls == {"center": 1, "derived_subalgebra": 1}

    def test_eq5_label_and_witness(self):
        L = structure_constants([X1, X2, VectorField(-5 * t, -2 * x, u)])
        ident = identify(L)
        assert ident.status == "identified"
        assert ident.label == "A3,5"
        assert ident.parameter == Fraction(2, 5)

    def test_trivial_abelian(self):
        L = structure_constants([X1, X2, VectorField(ZERO, ZERO, ONE)])
        assert identify(L).label == "3A1"

    def test_2a2_from_power_diffusion(self):
        result = find_symmetries(power_diffusion(2), 2)
        L = structure_constants(result.fields)
        ident = identify(L)
        assert ident.label == "2A2"

    def test_every_canonical_class_identifies_as_itself(self):
        for name, cls in load_class_catalog().items():
            a = Fraction(2, 5) if cls.parameter else None
            L = cls.instantiated(a)
            ident = identify(L)
            assert ident.status == "identified", (name, ident.reason)
            assert ident.label == name
            if cls.parameter:
                assert ident.parameter == a

    def test_sums_identify(self):
        for base in ("A3,1", "A3,5", "A3,8"):
            cls = canonical_class_by_name(base + "+A1")
            a = Fraction(2, 5) if cls.parameter else None
            ident = identify(cls.instantiated(a))
            assert ident.label == base + "+A1"

    def test_dimension_cap(self):
        result = find_symmetries(power_diffusion(Fraction(-1, 3)), 2)
        L = structure_constants(result.fields)
        ident = identify(L)
        assert ident.status == "unidentified"
        assert "dimension" in ident.reason

    def test_symbolic_requires_instantiation(self):
        L = structure_constants([X1, X2, X3], parameters={"m", "p"})
        assert identify(L).status == "unidentified"


def _random_basis_change(dim: int, rng: random.Random):
    while True:
        T = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)]
             for _ in range(dim)]
        from liesym.linalg import inverse

        if inverse(T) is not None:
            return T


def _transported(L: LieAlgebra, T):
    from liesym.algebra import _transform_constants

    cc = _transform_constants(L, T)
    entries = {(i, j): cc[i][j] for i in range(L.dim)
               for j in range(i + 1, L.dim) if any(cc[i][j])}
    return LieAlgebra.from_constants(L.dim, entries, check_jacobi=False)


@pytest.mark.parametrize("name,a", [
    ("A3,5", Fraction(2, 5)), ("A3,4", None), ("A3,2", None),
    ("A3,3", None), ("A3,1", None), ("A2+A1", None), ("2A2", None),
    ("A2", None), ("A3,6", None), ("A3,7", Fraction(1, 2)),
    ("A3,1+A1", None), ("A3,5+A1", Fraction(2, 5)), ("A2+2A1", None),
    ("A3,7+A1", Fraction(1, 2)),
])
def test_identify_is_basis_invariant(name, a):
    """A random invertible rational basis change keeps the label and the
    continuous parameter (up to the documented normalization)."""
    cls = canonical_class_by_name(name)
    L = cls.instantiated(a)
    rng = random.Random(name)
    for _ in range(3):
        T = _random_basis_change(L.dim, rng)
        moved = _transported(L, T)
        ident = identify(moved)
        assert ident.status == "identified", ident.reason
        assert ident.label == name
        if a is not None:
            assert ident.parameter == a


def test_sl2_basis_change_is_identified_or_honestly_unidentified():
    """The split-form search for A3,8 only tries coefficients in {-2..2}, so
    some bases of sl(2, R) come back unidentified; that answer must name the
    search bound, and no basis may get another label."""
    L = canonical_class_by_name("A3,8").algebra
    rng = random.Random("A3,8")
    labels = []
    for _ in range(3):
        ident = identify(_transported(L, _random_basis_change(3, rng)))
        if ident.status == "identified":
            assert ident.label == "A3,8"
        else:
            assert ident.reason.startswith(
                "split form not found within search bounds"), ident.reason
        labels.append(ident.label or ident.status)
    assert "A3,8" in labels


def test_witness_reproduces_canonical_constants():
    from liesym.algebra import _transform_constants

    L = structure_constants([X1, X2, VectorField(-5 * t, -2 * x, u)])
    ident = identify(L)
    got = _transform_constants(L, ident.witness)
    want = ident.canonical.instantiated(ident.parameter).rational_constants()
    assert got == want
