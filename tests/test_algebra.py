"""Brackets, structure constants, invariants, identification witnesses."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liesym import algebra, expr, linalg, poly
from liesym.dsl import parse_pde, parse_vector_field
from liesym.expr import (ZERO, ONE, Add, add, differentiate, exp, mul, powx,
                         rat, substitute, sym)
from liesym.jets import VectorField, dcr_symbols
from liesym.algebra import (DependentBasisError, LieAlgebra, NotClosedError,
                            algebra_invariants, bracket,
                            canonical_class_by_name, center, check_closure,
                            derived_subalgebra, identify, killing_form,
                            load_class_catalog, structure_constants)
from liesym.linalg import identity, matvec
from liesym.pde import EvolutionPDE, heat_equation, power_diffusion
from liesym.symmetry import find_symmetries

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

t, x, u, m, p = sym("t"), sym("x"), sym("u"), sym("m"), sym("p")


def _pde(text):
    table = dcr_symbols()
    return EvolutionPDE(rhs=parse_pde(text, table), table=table)


def _combo(*pairs):
    """The field sum of c*X over the pairs (c, X)."""
    return VectorField(*[add(*[mul(c, X[k]) for c, X in pairs])
                         for k in range(3)])


X1 = VectorField(ONE, ZERO, ZERO)
X2 = VectorField(ZERO, ONE, ZERO)
X3 = VectorField((m - 2 * p - 1) * t, (m - p - 1) * x - t, u)


class TestBracket:
    def test_translations_commute(self):
        assert bracket(X1, X2) == VectorField(ZERO, ZERO, ZERO)

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
        lhs = bracket(_combo((a, X1), (b, X2)), X3)
        rhs = _combo((a, bracket(X1, X3)), (b, bracket(X2, X3)))
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
        n = range(3)
        assert all(add(L.c[i][j][k], L.c[j][i][k]).is_zero_literal
                   for i in n for j in n for k in n)

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
        # dependence is claimed only where the elimination proves it
        table = dcr_symbols()
        table.parameter("m")

        def fields(text, **bindings):
            return [VectorField(*[substitute(c, bindings) for c in f])
                    for f in (parse_vector_field(s, table)
                              for s in text.split(";"))]

        for basis in ([X1, _combo((2, X1))], fields("Dx; x*Dx; 2*x*Dx"),
                      fields("Dx; (m-1)*Du", m=ONE)):
            with pytest.raises(DependentBasisError):
                structure_constants(basis)
        # m^(1/2) has no rational value at any sample, so no pivot is
        # certified for Dt, but no row proves the fields dependent either
        with pytest.raises(NotClosedError) as exc:
            structure_constants(fields("Dx; m^(1/2)*Dt"))
        assert str(exc.value) == (
            "cannot decide whether [e1, e2] lies in the span: cannot certify "
            "pivots of symbolic system")
        # a power of a positive rational is never 0: a certified pivot
        assert structure_constants(
            fields("Dx; 2^(1/2)*Dt")).rational_constants() == [
                [[0, 0], [0, 0]], [[0, 0], [0, 0]]]

    def test_one_elimination_for_every_bracket(self, monkeypatch):
        calls = []

        def counted(*args, **kw):
            calls.append(args)
            return linalg.solve_symbolic(*args, **kw)

        monkeypatch.setattr(algebra, "solve_symbolic", counted)
        L = structure_constants([X1, X2, X3], parameters={"m", "p"})
        assert len(calls) == 1
        assert list(L.c[0][2]) == [m - 2 * p - 1, rat(-1), ZERO]

    def test_each_first_partial_formed_once(self, monkeypatch):
        # the brackets of n fields need only the 9n first partials of their
        # coefficients, however many pairs there are
        fields = find_symmetries(heat_equation(), 3).fields
        calls = []
        real = poly.derive

        def counted(p, images):
            calls.append(images)
            return real(p, images)

        monkeypatch.setattr(poly, "derive", counted)
        assert not check_closure(fields).closed
        assert 0 < len(calls) <= 9 * len(fields)

    def test_closure_forms_no_kernel_product(self, monkeypatch):
        # brackets and coordinates run on exponent dicts: a kernel product
        # is formed only to rebuild an Expr (poly.from_poly) and by the
        # elimination of the coordinates (linalg.solve_symbolic)
        fields = find_symmetries(_pde("u_t = -3 + 1/3*u_x"), 4).fields
        assert len(fields) == 29
        inside = []
        stray = []
        real_mul = expr.mul

        def within(f):
            def wrapped(*args, **kw):
                inside.append(f)
                try:
                    return f(*args, **kw)
                finally:
                    inside.pop()
            return wrapped

        def mul(*xs):
            if not inside:
                stray.append(xs)
            return real_mul(*xs)

        for name, module in list(sys.modules.items()):
            if name.startswith("liesym") and \
                    getattr(module, "mul", None) is real_mul:
                monkeypatch.setattr(module, "mul", mul)
        monkeypatch.setattr(poly, "from_poly", within(poly.from_poly))
        monkeypatch.setattr(algebra, "solve_symbolic",
                            within(linalg.solve_symbolic))
        assert not check_closure(fields).closed
        assert stray == []

    def test_brackets_match_the_operator_commutator(self):
        # [X, Y]_k = X(Y_k) - Y(X_k), each field applied as an operator
        fields = find_symmetries(heat_equation(), 3).fields
        for X in fields:
            for Y in fields:
                assert bracket(X, Y) == VectorField(*[
                    add(X.apply_to(b), mul(-1, Y.apply_to(a)))
                    for a, b in zip(X, Y)])

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


#: powers of one sum in different fields are written at their joint least
#: exponent before coordinates are read, so no bracket is reported outside
#: the span, and no basis independent, for the form it takes
@pytest.mark.parametrize("text,code,printed", [
    ("u*(1+u)^(-1/2)*Du + (1+u)^(-1/2)*Du; (1+u)*Du", 0, "[e1,e2] = (1/2, 0)"),
    ("(1+u)^(1/2)*Du; (1+u)*Du", 0, "[e1,e2] = (1/2, 0)"),
    ("x*(1+x)^(-1/2)*Dx + (1+x)^(-1/2)*Dx; (1+x)*Dx", 0,
     "[e1,e2] = (1/2, 0)"),
    ("u*(1+u)^(-1/2)*Du; (1+u)^(-1/2)*Du; (1+u)^(1/2)*Du", 3,
     "basis fields are linearly dependent"),
    # [e1, e3] = -1/2*(1+x)^(-1/2)*Dx is outside the span; [e1, e2] is not
    ("x*(1+x)^(-1/2)*Dx + (1+x)^(-1/2)*Dx; (1+x)*Dx; Dx", 3,
     "bracket [e1, e3] leaves the span"),
])
def test_bracket_table_on_powers_of_a_sum(text, code, printed):
    proc = subprocess.run(
        [sys.executable, "-m", "liesym.cli", "bracket-table", "--algebra",
         text], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC + os.pathsep
             + os.environ.get("PYTHONPATH", "")})
    assert proc.returncode == code, proc.stderr
    assert printed in proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# the bracket on polynomials against the tree bracket it replaced
# ---------------------------------------------------------------------------

def _tree_bracket(X, Y):
    """[X, Y] on canonical trees: the kernel's partials, products and sums,
    component k being X(Y_k) - Y(X_k)."""
    def partials(Z):
        return [[differentiate(c, v) for v in ("t", "x", "u")] for c in Z]

    def apply(Z, d):
        return add(mul(Z.xi_t, d[0]), mul(Z.xi_x, d[1]), mul(Z.eta, d[2]))
    return VectorField(*[add(apply(X, dy), mul(-1, apply(Y, dx)))
                         for dx, dy in zip(partials(X), partials(Y))])


#: parameters, symbolic powers, exp atoms and powers of a sum
_ATOMS = st.sampled_from([
    t, x, u, m, powx(1 - m, -1), powx(rat(2), m), powx(u, m), exp(x),
    exp(-(m - 1) * t), powx(1 + u, Fraction(1, 2)),
    powx(1 + u, Fraction(-1, 2))])
_COEFFS = st.one_of(st.integers(-3, 3).filter(bool),
                    st.integers(10**29, 10**30 - 1))
_COMPONENTS = st.lists(st.tuples(_COEFFS, st.lists(_ATOMS, max_size=3)),
                       max_size=3).map(
    lambda ts: add(*[mul(c, *fs) for c, fs in ts]))
_FIELDS = st.builds(VectorField, _COMPONENTS, _COMPONENTS, _COMPONENTS)
#: a rational point at which every atom above is rational or exp
_POINT = {"t": rat(Fraction(1, 3)), "x": rat(Fraction(-2, 5)), "u": rat(3),
          "m": rat(2)}


def _has_sum_root(*fields):
    """Whether a component holds a fractional power of a sum."""
    for c in (c for X in fields for c in X):
        p = poly.to_poly(c)
        if any(type(g) is Add and any(k[i] % 1 for k in p.coeffs)
               for i, g in enumerate(p.gens)):
            return True
    return False


@settings(max_examples=100, deadline=None)
@given(_FIELDS, _FIELDS)
def test_bracket_matches_the_tree_bracket(X, Y):
    got, want = bracket(X, Y), _tree_bracket(X, Y)
    if _has_sum_root(X, Y):
        # the kernel's form of fractional powers of a sum depends on the
        # order they were built in, so the two are compared by value
        for a, b in zip(got, want):
            assert substitute(a, _POINT) == substitute(b, _POINT)
    else:
        assert got == want


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
