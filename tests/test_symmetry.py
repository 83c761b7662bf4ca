"""Invariance residuals, verdicts, and the determining-system search."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liesym import expr as expr_module
from liesym import jets, poly, symmetry
from liesym.dsl import parse_pde
from liesym.expr import (ZERO, ONE, Add, Mul, Pow, Rat, ResourceLimitError,
                         add, differentiate, evaluate_exact, exp,
                         free_symbols, func, mul, powx, rat, substitute, sym)
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
    fields = (X1, X2, third_generator(rat(2), rat(3)))
    X = VectorField(*[add(*[mul(c, f[k]) for c, f in zip((c1, c2, c3),
                                                         fields)])
                      for k in range(3)])
    if all(c.is_zero_literal for c in X):
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


def _coeff_factors(term):
    """A canonical term's rational coefficient and factors, read off its
    node, so the references below do not go through expr.split_terms."""
    if isinstance(term, Rat):
        return term.value, ()
    if isinstance(term, Mul):
        return term.coeff, term.factors
    return Fraction(1), (term,)


def _per_field_matrix(pde, basis):
    """The determining matrix from one residual per basis field: the
    reference for the operator-form assembly."""
    rows = {}
    for col, entry in enumerate(basis):
        field = symmetry._ansatz_field([(entry, 1)], (t, x, u))
        r = invariance_residual(pde, VectorField(*map(poly.from_poly, field)))
        for term in (r.terms if isinstance(r, Add) else (r,)):
            if term.is_zero_literal:
                continue
            coeff, factors = _coeff_factors(term)
            rows.setdefault(factors, []).append((col, coeff))
    return list(rows.values())


def _assert_same_matrix(pde, bound):
    basis = symmetry._ansatz_basis(bound)
    got = symmetry._determining_matrix(pde, basis)
    want = _per_field_matrix(pde, basis)
    # the same row multiset; the row order is free, and the nullspace, from
    # which the generator basis is read, does not depend on it
    assert sorted(got) == sorted(want)
    assert nullspace(got, len(basis)) == nullspace(want, len(basis))


def test_nullspace_arguments_keep_the_benchmark_contract(monkeypatch):
    # bench/run.py counts matrix rows, columns, nonzeros and rank from the
    # sparse rows and column count that find_symmetries passes to nullspace;
    # its nonzero count is one per (column, value) pair, so no pair may hold
    # a zero
    seen = []

    def capture(rows, ncols):
        result = nullspace(rows, ncols)
        seen.append((rows, ncols, result))
        return result

    monkeypatch.setattr(symmetry, "nullspace", capture)
    find_symmetries(_pde("u_t = D(u^2,x,2)+D(u^2,x)+u^3"), bound=4)
    [(rows, ncols, result)] = seen
    assert type(rows) is list
    for r in rows:
        assert type(r) is list
        assert all(type(p) is tuple and len(p) == 2 for p in r)
        cols = [j for j, _ in r]
        assert all(type(j) is int for j in cols)
        assert cols == sorted(set(cols))
        assert all(0 <= j < ncols for j in cols)
        assert all(v for _, v in r)
    assert (len(rows), ncols, sum(1 for r in rows for v in r if v),
            ncols - len(result)) == (205, 60, 367, 58)


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
    # the operators come in closed form, so the search forms a residual
    # only to re-verify the fields it returns, all of them in one
    calls = []
    real = symmetry._residual

    def counted(pde, *components):
        calls.append(components)
        return real(pde, *components)

    monkeypatch.setattr(symmetry, "_residual", counted)
    found = find_symmetries(_pde(text), bound)
    assert len(found) >= 1
    assert len(calls) == 1


def _split_marked(residual):
    """A residual marked by symmetry._GENERATOR as {k: the coefficient of
    its k-th power}, read off the canonical terms."""
    out = {}
    for term in (residual.terms if isinstance(residual, Add)
                 else (residual,)):
        if term.is_zero_literal:
            continue
        coeff, factors = _coeff_factors(term)
        k = 0
        rest = []
        for f in factors:
            base, e = (f.base, f.exponent) if isinstance(f, Pow) else (f, ONE)
            if base == symmetry._GENERATOR:
                k = int(e.value)
            else:
                rest.append(f)
        out.setdefault(k, []).append(mul(coeff, *rest))
    return {k: add(*ts) for k, ts in out.items()}


#: an ansatz vector: (basis index, coefficient) pairs
_ANSATZ_TERMS = st.lists(st.tuples(st.integers(0, 10 ** 6),
                                   st.fractions(-3, 3, max_denominator=3)),
                         max_size=5)


def _check_marked_slices(pde, bound, vectors):
    basis = symmetry._ansatz_basis(bound)
    polys = [symmetry._ansatz_field(
        [(basis[i % len(basis)], c) for i, c in vec if c],
        pde.partials[0].gens) for vec in vectors]
    marked = symmetry._residual(pde, *(
        poly.mark(c, symmetry._GENERATOR) for c in zip(*polys)))
    slices = _split_marked(marked)
    for k, p in enumerate(polys):
        assert slices.get(k, ZERO) == symmetry._residual(pde, *p), k
    assert slices.keys() <= set(range(len(polys)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(REACTION, b) for b in (2, 4)]
                       + [(HEAT, b) for b in (2, 3)]),
       st.lists(_ANSATZ_TERMS, min_size=1, max_size=4))
def test_marked_residual_slices_on_the_sweep(case, vectors):
    # generator k's own residual is the coefficient of the marker's k-th
    # power, for any ansatz vectors, not only the solutions
    _check_marked_slices(_pde(case[0]), case[1], vectors)


@settings(max_examples=20, deadline=None)
@given(st.lists(_rhs_term, min_size=1, max_size=3), st.integers(1, 3),
       st.lists(_ANSATZ_TERMS, min_size=1, max_size=4))
def test_marked_residual_slices_on_fuzzed_rhs(terms, bound, vectors):
    rhs = add(*(mul(c, powx(t, rat(a)), powx(x, rat(b)), powx(u, rat(r)),
                    powx(u_x, rat(p)), powx(jet(0, 2), rat(q)))
                for c, a, b, r, p, q in terms))
    _check_marked_slices(EvolutionPDE(rhs=rhs, table=dcr_symbols()), bound,
                         vectors)


@pytest.mark.parametrize("text,bound,which", [
    (HEAT, 2, (0,)), (HEAT, 2, (8,)), (REACTION, 4, (1,)), (HEAT, 3, (6, 2))])
def test_perturbed_solution_fails_with_its_own_residual(
        monkeypatch, text, bound, which):
    # one entry of a nullspace vector off by one: the search names that
    # generator's residual (the first such generator's, when several are
    # off), and no marker
    pde = _pde(text)
    basis = symmetry._ansatz_basis(bound)
    entry = basis.index((0, 1, 0))      # xi_t = t: no symmetry of either
    seen = {}

    def perturbed(rows, ncols):
        vecs = [list(v) for v in nullspace(rows, ncols)]
        for k in which:
            vecs[k][entry] += k + 1
            seen[k] = vecs[k]
        return vecs

    monkeypatch.setattr(symmetry, "nullspace", perturbed)
    with pytest.raises(RuntimeError) as err:
        find_symmetries(pde, bound)
    own = symmetry._residual(pde, *symmetry._ansatz_field(
        [(e, c) for e, c in zip(basis, seen[min(which)]) if c],
        pde.partials[0].gens))
    assert not own.is_zero_literal
    assert str(err.value) == ("determining-system solution failed "
                              f"re-verification; residual {own!r}")
    assert "#" not in str(err.value)


#: a generic function m(t, x) for the ansatz monomial, and its jets of order
#: <= 2 by their orders (a, b) in t and x; "@m" is no DSL identifier
_AUX = "@m"
_AUX_JETS = {jet(a, n - a, _AUX): (a, n - a)
             for n in range(3) for a in range(n + 1)}


def _generic_operators(pde):
    """(C00, C10, C01, C02) per ansatz shape, read off one invariance
    residual of the shape with the generic monomial m: each residual term
    holds one jet of m, whose orders name its C.  This is an independent
    derivation (through the second prolongation) of the closed form in
    symmetry._operators."""
    table = pde.table.copy()
    for mj, ab in _AUX_JETS.items():
        table.jet(mj.name, _AUX, ab)
    aux = EvolutionPDE(rhs=pde.rhs, table=table)
    out = []
    for comp, k in symmetry._SHAPES:
        coeffs = [ZERO] * 3
        coeffs[comp] = mul(sym(_AUX), powx(u, rat(k)))
        residual = invariance_residual(aux, VectorField(*coeffs))
        parts = {}
        for term in (residual.terms if isinstance(residual, Add)
                     else (residual,)):
            if term.is_zero_literal:
                continue
            coeff, factors = _coeff_factors(term)
            [mj] = [f for f in factors if f in _AUX_JETS]
            rest = [f for f in factors if f is not mj]
            parts.setdefault(_AUX_JETS[mj], []).append(mul(coeff, *rest))
        assert set(parts) <= set(symmetry._M_JETS)
        out.append(tuple(add(*parts.get(ab, ())) for ab in symmetry._M_JETS))
    return out


def _closed_form_operators(pde):
    return [tuple(map(poly.from_poly, Cs)) for Cs in symmetry._operators(pde)]


# an rhs term c*t^a*x^b*u_x or c*t^a*x^b*u_xx with a coefficient that
# depends on t or x
_coefficient_term = st.builds(
    lambda c, a, b, pq: (c, a, b, Fraction(0)) + pq,
    st.integers(-3, 3).filter(bool), st.integers(0, 2), st.integers(0, 2),
    st.sampled_from([(1, 0), (0, 1)])).filter(lambda c: c[1] + c[2])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(_rhs_term, _coefficient_term), min_size=1,
                max_size=3))
def test_closed_form_operators_match_generic_residuals(terms):
    rhs = add(*(mul(c, powx(t, rat(a)), powx(x, rat(b)), powx(u, rat(r)),
                    powx(u_x, rat(p)), powx(jet(0, 2), rat(q)))
                for c, a, b, r, p, q in terms))
    pde = EvolutionPDE(rhs=rhs, table=dcr_symbols())
    assert _closed_form_operators(pde) == _generic_operators(pde)


@pytest.mark.parametrize("text", [REACTION, HEAT, "u_t = -3 + 1/3*u_x",
                                  "u_t = u_x^2*u_xx + x*t^2*u"])
def test_closed_form_operators_on_examples(text):
    pde = _pde(text)
    assert _closed_form_operators(pde) == _generic_operators(pde)


@pytest.mark.parametrize("text", [HEAT, REACTION])
def test_rhs_derivatives_computed_once(monkeypatch, text):
    # the operator residuals, the re-verifications and later verdicts on
    # the same PDE share one polynomial rhs and one set of its derivatives
    pde = _pde(text)
    reads, derives, totals = [], [], []
    real_to_poly, real_derive = poly.to_poly, poly.derive
    real_total = jets.poly_total_derivative

    def of_rhs(p):
        return any(p.coeffs is r.coeffs for r in reads)

    def to_poly(e, *args):
        out = real_to_poly(e, *args)
        if e is pde.rhs:
            reads.append(out)
        return out

    def derive(p, images):
        if of_rhs(p):
            derives.append(tuple(sorted(images)))
        return real_derive(p, images)

    def total(p, *args, **kw):
        if of_rhs(p):
            totals.append(args)
        return real_total(p, *args, **kw)

    monkeypatch.setattr(poly, "to_poly", to_poly)
    monkeypatch.setattr(poly, "derive", derive)
    monkeypatch.setattr(jets, "poly_total_derivative", total)
    found = find_symmetries(pde, 3)
    for f in found.fields:
        assert is_symmetry(pde, f).is_symmetry
    assert len(reads) == 1
    # five partials, and the derivation under the one D_x F
    assert sorted(d for d in derives if len(d) == 1) == [
        ("t",), ("u",), ("u_x",), ("u_xx",), ("x",)]
    assert len(derives) == 6
    assert len(totals) == 1


# ---------------------------------------------------------------------------
# the polynomial residual against the kernel derivation it replaced
# ---------------------------------------------------------------------------

def _kernel_prolong2(field, table):
    """The second prolongation on canonical trees, by the recursive
    total-derivative formulas."""
    xi_t, xi_x, eta = field.xi_t, field.xi_x, field.eta

    def d(e, z):
        return jets.total_derivative(e, z, table, max_order=2)

    dx_xi_t, dx_xi_x = d(xi_t, "x"), d(xi_x, "x")
    eta_t = add(d(eta, "t"),
                mul(-1, jet(1, 0), d(xi_t, "t")),
                mul(-1, jet(0, 1), d(xi_x, "t")))
    eta_x = add(d(eta, "x"),
                mul(-1, jet(1, 0), dx_xi_t),
                mul(-1, jet(0, 1), dx_xi_x))
    eta_xx = add(d(eta_x, "x"),
                 mul(-1, jet(1, 1), dx_xi_t),
                 mul(-1, jet(0, 2), dx_xi_x))
    return eta_t, eta_x, eta_xx


def _kernel_residual(pde, X):
    """pr(2)X(u_t - F) on the solution manifold, on canonical trees: the
    kernel's prolongation, products and substitution."""
    eta_t, eta_x, eta_xx = _kernel_prolong2(X, pde.table)
    F_t, F_x, F_u, F_ux, F_uxx = (differentiate(pde.rhs, v) for v in (
        "t", "x", "u", "u_x", "u_xx"))
    applied = add(mul(X.xi_t, F_t), mul(X.xi_x, F_x), mul(X.eta, F_u),
                  mul(eta_x, F_ux), mul(eta_xx, F_uxx))
    residual = add(eta_t, mul(-1, applied))
    subs = {"u_t": pde.rhs}
    if "u_tx" in free_symbols(residual):
        subs["u_tx"] = jets.total_derivative(pde.rhs, "x", pde.table,
                                             max_order=3)
    return substitute(residual, subs)


#: atoms of fields and rhs: symbolic exponents, exp, radicals, a power of
#: a sum and an opaque function
_ATOMS = st.sampled_from([
    t, x, u, m, powx(u, m), powx(u, 1 - m), powx(u, m + Fraction(1, 2)),
    powx(1 - m, -1), exp(-(m - 1) * t), exp(x), powx(rat(2), Fraction(1, 2)),
    powx(rat(3), m), func("phi", u)])
_RHS_ATOMS = st.one_of(_ATOMS, st.sampled_from([u_x, jet(0, 2)]))
#: mostly nothing; sometimes a jet for xi_t, whose prolongation overflows
_JET_TERM = st.one_of(st.just(ZERO), st.just(ZERO), st.just(ZERO),
                      st.sampled_from([u_x, jet(1, 0)]))


@st.composite
def _sums(draw, atoms, terms=3):
    return add(*[mul(draw(st.integers(-3, 3).filter(bool)),
                     *draw(st.lists(atoms, max_size=3)))
                 for _ in range(draw(st.integers(1, terms)))])


@settings(max_examples=80, deadline=None)
@given(_sums(_RHS_ATOMS, 4), _sums(_ATOMS), _sums(_ATOMS), _sums(_ATOMS),
       _JET_TERM)
def test_polynomial_residual_is_the_kernel_residual(rhs, xi_t, xi_x, eta,
                                                     jet_term):
    pde = EvolutionPDE(rhs=rhs, table=dcr_symbols())
    X = VectorField(add(xi_t, jet_term), xi_x, eta)
    try:
        want = _kernel_residual(pde, X)
    except (jets.OrderOverflowError, ResourceLimitError) as exc:
        with pytest.raises(type(exc)) as got:
            invariance_residual(pde, X)
        assert str(got.value) == str(exc)
        return
    assert invariance_residual(pde, X).key() == want.key()


#: powers of one sum: the kernel merges them in a product but not across
#: a sum it has already expanded, so its form of a residual in them
#: depends on the order the residual is built in
_SUM_POWERS = st.sampled_from([
    t, x, u, m, powx(u, m), exp(x), func("phi", u),
    powx(1 + u, Fraction(1, 2)), powx(1 + u, Fraction(-1, 2)),
    powx(1 + u, Fraction(3, 2)), powx(1 + u, -1)])
#: a component that is the whole sum, which the kernel merges with the
#: powers of that sum in a product
_SUM_COMPONENTS = st.one_of(_sums(_SUM_POWERS),
                            st.sampled_from([1 + u, 2 + 2 * u]))


@settings(max_examples=60, deadline=None)
@given(_sums(_SUM_POWERS), _SUM_COMPONENTS, _SUM_COMPONENTS,
       _SUM_COMPONENTS)
def test_polynomial_residual_in_powers_of_sums_has_the_kernel_value(
        rhs, xi_t, xi_x, eta):
    # at a point where 1 + u is a square, both forms are exact rationals
    pde = EvolutionPDE(rhs=rhs, table=dcr_symbols())
    X = VectorField(xi_t, xi_x, eta)
    got, want = invariance_residual(pde, X), _kernel_residual(pde, X)
    point = {"t": Fraction(2), "x": Fraction(5), "u": Fraction(3),
             "m": Fraction(3), "u_x": Fraction(7), "u_xx": Fraction(-2),
             "u_xxx": Fraction(11)}
    assert evaluate_exact(got, point) == evaluate_exact(want, point)
    # and the polynomial residual is empty exactly when the kernel's is 0
    assert (got == ZERO) == (want == ZERO)


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(-1, 2),
                               Fraction(-1, 3), Fraction(3, 2), -1, -2])
def test_scaling_of_a_sum_power_diffusion_is_a_symmetry(q):
    # u_t = (1+u)^q*u_xx has -q*t*Dt + (1+u)*Du; the residual has terms
    # in (1+u)^q and in (1+u)*(1+u)^(q-1), which cancel only once the
    # powers of 1 + u are brought together
    pde = EvolutionPDE(rhs=mul(powx(1 + u, q), jet(0, 2)),
                       table=dcr_symbols())
    v = is_symmetry(pde, VectorField(mul(-q, t), ZERO, 1 + u))
    assert v.verdict is Verdict.SYMMETRY and v.residual == ZERO


@pytest.mark.parametrize("rhs,field", [
    # symbolic exponents and exp(l): eq4's third and fourth generators
    (build_dcr(DCRInstance.make(b1=b1)).rhs, third_generator()),
    (build_dcr(DCRInstance.make(m=m, p=m - 1, b1=1, c1=1)).rhs,
     VectorField(exp(-(m - 1) * t), ZERO, exp(-(m - 1) * t) * u)),
    # a residual in (1-m)^(-1) and a radical
    (mul(powx(u, m), jet(0, 2)),
     VectorField(ZERO, powx(1 - m, -1) * x, powx(rat(2), Fraction(1, 2)) * u)),
    # xi_t in u_x: D_x of eta_x needs u_xxx
    (jet(0, 2), VectorField(u_x, ZERO, ZERO)),
])
def test_polynomial_residual_on_examples(rhs, field):
    pde = EvolutionPDE(rhs=rhs, table=dcr_symbols())
    try:
        want = _kernel_residual(pde, field)
    except jets.OrderOverflowError as exc:
        with pytest.raises(jets.OrderOverflowError) as got:
            invariance_residual(pde, field)
        assert str(got.value) == str(exc)
        return
    assert invariance_residual(pde, field).key() == want.key()


def test_reverification_makes_no_kernel_products(monkeypatch):
    # re-verifying the bound-8 reaction search stays on the polynomial
    # layer: no expr.mul runs inside invariance_residual, apart from the
    # kernel form of a nonzero residual
    state = {"inside": False, "from_poly": False, "muls": 0}
    real_mul, real_residual = expr_module.mul, symmetry.invariance_residual
    real_from_poly = poly.from_poly

    def counted_mul(*xs):
        if state["inside"] and not state["from_poly"]:
            state["muls"] += 1
        return real_mul(*xs)

    def residual(pde, X):
        state["inside"] = True
        try:
            return real_residual(pde, X)
        finally:
            state["inside"] = False

    def from_poly(p):
        state["from_poly"] = True
        try:
            return real_from_poly(p)
        finally:
            state["from_poly"] = False

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("liesym"):
            for key, value in list(vars(mod).items()):
                if value is real_mul:
                    monkeypatch.setattr(mod, key, counted_mul)
    monkeypatch.setattr(symmetry, "invariance_residual", residual)
    monkeypatch.setattr(poly, "from_poly", from_poly)
    found = find_symmetries(_pde(REACTION), 8)
    assert len(found) == 2
    assert state["muls"] == 0
