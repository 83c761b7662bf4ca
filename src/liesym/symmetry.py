"""Lie point-symmetry verification and search.

The invariance criterion for u_t = F: apply the second prolongation of
X = xi_t d/dt + xi_x d/dx + eta d/du to (u_t - F), then restrict to the
solution manifold by substituting u_t -> F and u_tx -> D_x F.  X is a
symmetry iff the residual vanishes identically in the remaining jet
coordinates.  A search re-verifies all its generators in one residual, of
the field whose k-th power of a marker holds generator k.
"""

from __future__ import annotations

from enum import Enum
from math import perm
from typing import Dict, List, NamedTuple, Tuple

from .expr import (
    Expr, ExprError, Rat, Rational, ResourceLimitError, Sym,
    ZERO, ONE, ZeroVerdict, _base_exp, free_symbols, is_zero, split_terms,
    sym,
)
from . import poly
from .jets import VectorField, jet_name, poly_prolong2
from .linalg import nullspace
from .pde import EvolutionPDE


class UnsupportedCoefficientsError(ExprError):
    """The rhs is outside the class the polynomial ansatz can handle."""


class Verdict(Enum):
    SYMMETRY = "symmetry"
    NOT_SYMMETRY = "not-symmetry"
    UNDECIDED = "undecided"


class SymmetryVerdict(NamedTuple):
    verdict: Verdict
    residual: Expr

    @property
    def is_symmetry(self) -> bool:
        return self.verdict is Verdict.SYMMETRY


def invariance_residual(pde: EvolutionPDE, X: VectorField) -> Expr:
    """pr(2)X(u_t - F) restricted to the solution manifold, canonical."""
    return _residual(pde, *(poly.to_poly(c, pde.partials[0].gens) for c in X))


def _residual(pde: EvolutionPDE, xi_t: poly.Poly, xi_x: poly.Poly,
              eta: poly.Poly) -> Expr:
    """The invariance residual of the field with these coefficients.  The
    whole computation runs on polynomials (:mod:`liesym.poly`): the
    prolongation, the products with the rhs partials, which the PDE
    computes once, and the substitution u_t -> F, u_tx -> D_x F.  For
    fields with x- or u-dependent xi_t the latter introduces third-order
    jets.  A residual that is empty once the powers of each sum in it are
    brought together (:func:`poly.merge_sums`) is the literal 0; any other
    residual is the kernel's form of the polynomial as formed."""
    F, F_t, F_x, F_u, F_ux, F_uxx = pde.partials
    eta_t, eta_x, eta_xx = poly_prolong2(xi_t, xi_x, eta, pde.table)
    applied = poly.add(
        poly.mul(xi_t, F_t),
        poly.mul(xi_x, F_x),
        poly.mul(eta, F_u),
        poly.mul(eta_x, F_ux),
        poly.mul(eta_xx, F_uxx),
    )
    residual = poly.add(eta_t, poly.scale(applied, -1))
    subs = {jet_name(1, 0): F}
    if jet_name(1, 1) in poly.symbols(residual):
        subs[jet_name(1, 1)] = pde.total_x
    residual = poly.substitute(residual, subs)
    if not poly.merge_sums(residual).coeffs:
        return ZERO
    return poly.from_poly(residual)


def is_symmetry(pde: EvolutionPDE, X: VectorField) -> SymmetryVerdict:
    """Wrap the residual with the three-valued zero test."""
    residual = invariance_residual(pde, X)
    parameters = pde.table.parameters | {
        n for n in free_symbols(residual)
        if pde.table.jet_index.get(n) is None and n not in ("t", "x")}
    v = is_zero(residual, parameters=parameters)
    if v is ZeroVerdict.ZERO:
        return SymmetryVerdict(Verdict.SYMMETRY, residual)
    if v is ZeroVerdict.NONZERO:
        return SymmetryVerdict(Verdict.NOT_SYMMETRY, residual)
    return SymmetryVerdict(Verdict.UNDECIDED, residual)


# ---------------------------------------------------------------------------
# determining equations under the polynomial ansatz
# ---------------------------------------------------------------------------

#: The four component shapes of an ansatz field with monomial m(t, x), as
#: (component, exponent on u): xi_t = m, xi_x = m, eta = m*u and eta = m.
_SHAPES = ((0, 0), (1, 0), (2, 1), (2, 0))


def _ansatz_basis(bound: int) -> List[Tuple[int, int, int]]:
    """Basis fields as (shape, i, j): the monomial t^i x^j of degree <= bound
    in component ``_SHAPES[shape]``, so xi_t, xi_x polynomial in (t, x) and
    eta = alpha(t,x)*u + beta(t,x)."""
    return [(c, i, j) for c in range(len(_SHAPES))
            for i in range(bound + 1) for j in range(bound + 1 - i)]


def _ansatz_field(terms, gens) -> Tuple[poly.Poly, ...]:
    """xi_t, xi_x, eta over ``gens`` (t, x, u first) of sum c*e over (e, c)."""
    comps: Tuple[Dict[tuple, Rational], ...] = ({}, {}, {})
    rest = (0,) * (len(gens) - 3)
    for (s, i, j), c in terms:
        comp, k = _SHAPES[s]
        comps[comp][(i, j, k, *rest)] = c
    return tuple(poly.Poly(gens, t) for t in comps)


#: the jets m, m_t, m_x, m_xx of an ansatz monomial m(t, x), by orders
_M_JETS = ((0, 0), (1, 0), (0, 1), (0, 2))


def _operators(pde: EvolutionPDE) -> Tuple[Tuple[poly.Poly, ...], ...]:
    """(C00, C10, C01, C02) per shape of ``_SHAPES``: the residual of the
    shape with monomial m is C00*m + C10*m_t + C01*m_x + C02*m_xx.  All
    sixteen are polynomials over one generator tuple that starts with t
    and x.

    This is the closed form of the determining equations of u_t = F
    (Olver 1993, section 2.4) in F, its partials F_t, F_x, F_u, F_p
    (p = u_x), F_q (q = u_xx) and D_x F."""
    F, F_t, F_x, F_u, F_p, F_q = pde.partials
    u, p, q = (poly.to_poly(sym(n), F.gens)
               for n in ("u", jet_name(0, 1), jet_name(0, 2)))
    add, mul, scale = poly.add, poly.mul, poly.scale
    ops = (
        (scale(F_t, -1), scale(F, -1),
         add(mul(F, F_p), scale(mul(F_q, pde.total_x), 2)), mul(F, F_q)),
        (scale(F_x, -1), scale(p, -1),
         add(mul(p, F_p), scale(mul(q, F_q), 2)), mul(p, F_q)),
        (add(F, scale(mul(u, F_u), -1), scale(mul(p, F_p), -1),
             scale(mul(q, F_q), -1)), u,
         add(scale(mul(u, F_p), -1), scale(mul(p, F_q), -2)),
         scale(mul(u, F_q), -1)),
        (scale(F_u, -1), poly.to_poly(ONE), scale(F_p, -1), scale(F_q, -1)),
    )
    flat = iter(poly.align(*[C for Cs in ops for C in Cs]))
    return tuple(tuple(next(flat) for _ in Cs) for Cs in ops)


def _determining_matrix(pde: EvolutionPDE, basis: List[Tuple[int, int, int]]
                        ) -> List[List[Tuple[int, Rational]]]:
    """One row per monomial of the residuals of the basis fields.

    The residual of t^i x^j in shape c is assembled in exponent space from
    the closed-form operators of :func:`_operators`: each monomial
    (coefficient, e_t, e_x, rest) of C_c,ab adds ff(i,a)*ff(j,b)*coefficient
    at t^(e_t+i-a) x^(e_x+j-b) rest, ff the falling factorial, so a C that
    t^i x^j does not reach (C02 at degree bound 1) adds nothing.  No Expr
    arithmetic runs per basis field.  Rows come in order of first
    occurrence; the nullspace does not depend on it.  Each row is the
    sparse row :func:`linalg.nullspace` takes, its nonzeros as (column,
    value) pairs in column order; no zero is stored."""
    rests: Dict[tuple, int] = {}
    # integer exponents on t and x: the rhs is polynomial in them; an
    # integral coefficient enters the matrix as an int
    ops = [[(ab, [(c.numerator if c.denominator == 1 else c,
                   int(k[0]), int(k[1]),
                   rests.setdefault(k[2:], len(rests)))
                  for k, c in C.coeffs.items()])
            for ab, C in zip(_M_JETS, Cs)]
           for Cs in _operators(pde)]
    rows: Dict[tuple, List[Tuple[int, Rational]]] = {}
    for col, (c, i, j) in enumerate(basis):
        entries: Dict[tuple, Rational] = {}
        for (a, b), terms in ops[c]:
            f = perm(i, a) * perm(j, b)
            if not f:
                continue
            for coeff, et, ex, rest in terms:
                k = (et + i - a, ex + j - b, rest)
                v = coeff if f == 1 else f * coeff
                old = entries.get(k)
                entries[k] = v if old is None else old + v
        for k, v in entries.items():
            if v:
                rows.setdefault(k, []).append((col, v))
    return list(rows.values())


def _check_rhs_supported(pde: EvolutionPDE):
    """The ansatz needs rhs coefficients polynomial in (t, x) and power
    monomials in u at fixed rational exponents."""
    table = pde.table
    for _, factors, _ in split_terms(pde.rhs, lambda f: True):
        for f in factors:
            base, expo = _base_exp(f)
            if not isinstance(base, Sym):
                raise UnsupportedCoefficientsError(
                    f"unsupported factor {f!r} in rhs")
            if not isinstance(expo, Rat):
                raise UnsupportedCoefficientsError(
                    f"symbolic exponent in rhs factor {f!r}; instantiate "
                    "parameters before the ansatz search")
            name = base.name
            if name == "u":
                continue  # any fixed rational exponent is fine
            if name in ("t", "x") or table.jet_index.get(name) is not None:
                if expo.value.denominator != 1 or expo.value < 0:
                    raise UnsupportedCoefficientsError(
                        f"non-polynomial dependence on {name}")
                continue
            raise UnsupportedCoefficientsError(
                f"free symbol {name} in rhs; instantiate parameters "
                "before the ansatz search")


class FindResult:
    """Solution basis of the determining system, each member re-verified."""

    __slots__ = ("fields", "verified")

    def __init__(self, fields: List[VectorField],
                 verified: List[SymmetryVerdict]):
        self.fields = fields
        self.verified = verified

    def __len__(self):
        return len(self.fields)


#: Marks generator k of a search by its k-th power; no declared name starts
#: with "#", so no symbol table holds it.
_GENERATOR = Sym("#generator")


#: Most unknowns (ansatz columns) a search may have.  Each monomial of the
#: determining system is a sparse row that holds only its nonzeros, so at
#: bound 30 (1984 columns), the largest bound under the limit, a whole
#: search peaks at 22 MB resident for u_t = D(u^2,x,2)+D(u^2,x)+u^3 and
#: 18 MB for the heat equation (Python 3.11, import included).
MAX_ANSATZ_COLUMNS = 2048


def find_symmetries(pde: EvolutionPDE, bound: int = 2) -> FindResult:
    """Solve the determining equations under the polynomial ansatz.

    The residual is linear in the ansatz coefficients, so the residuals of
    the basis fields already span the system: collecting every monomial
    (in t, x, u and the jets) yields one exact linear equation per monomial.
    The residual of a basis field t^i x^j in one component is a linear
    operator C00*m + C10*m_t + C01*m_x + C02*m_xx in its monomial m; the
    C's have a closed form in the rhs and its partials, so no residual is
    formed before re-verification and every row is assembled in exponent
    space (:func:`_determining_matrix`).  A bound whose ansatz would have
    more than ``MAX_ANSATZ_COLUMNS`` unknowns raises ``ResourceLimitError``
    before anything is assembled.  Returns a basis of the solution space;
    each generator component is one sum over its ansatz terms.  All are
    re-verified in one invariance residual, of the field marked by
    ``_GENERATOR`` (:func:`poly.mark`)."""
    if bound < 1:
        raise ValueError("ansatz degree bound must be >= 1")
    ncols = len(_SHAPES) * (bound + 1) * (bound + 2) // 2
    if ncols > MAX_ANSATZ_COLUMNS:
        raise ResourceLimitError(
            f"ansatz bound {bound} has {ncols} unknowns, more than the "
            f"limit of {MAX_ANSATZ_COLUMNS}")
    _check_rhs_supported(pde)
    basis = _ansatz_basis(bound)
    polys = [_ansatz_field(((e, c) for e, c in zip(basis, vec) if c),
                           pde.partials[0].gens)
             for vec in nullspace(_determining_matrix(pde, basis), len(basis))]
    # the residual is linear in the field: its _GENERATOR^k coefficient is
    # generator k's; the zero test answers ZERO for the literal 0 only
    residual = _residual(pde, *(poly.mark(c, _GENERATOR)
                                for c in zip(*polys))) if polys else ZERO
    if not residual.is_zero_literal:
        _, parts = poly.collect(poly.to_poly(residual, (_GENERATOR,)),
                                lambda g: g == _GENERATOR)
        raise RuntimeError(
            "determining-system solution failed re-verification; "
            f"residual {poly.from_poly(parts[min(parts)])!r}")
    return FindResult(
        fields=[VectorField(*map(poly.from_poly, p)) for p in polys],
        verified=[SymmetryVerdict(Verdict.SYMMETRY, residual)] * len(polys))
