"""Lie point-symmetry verification and search.

The invariance criterion for u_t = F: apply the second prolongation of
X = xi_t d/dt + xi_x d/dx + eta d/du to (u_t - F), then restrict to the
solution manifold by substituting u_t -> F and u_tx -> D_x F.  X is a
symmetry iff the residual vanishes identically in the remaining jet
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .expr import (
    Add, Expr, ExprError, Mul, Pow, Rat, Sym, ZERO, ONE, ZeroVerdict,
    _coeff_monomial, add, differentiate, free_symbols, is_zero, mul, powx, rat,
    substitute, sym,
)
from . import jets
from .jets import VectorField, jet_name, prolong2, total_derivative
from .linalg import nullspace
from .pde import EvolutionPDE


class UnsupportedCoefficientsError(ExprError):
    """The rhs is outside the class the polynomial ansatz can handle."""


class Verdict(Enum):
    SYMMETRY = "symmetry"
    NOT_SYMMETRY = "not-symmetry"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class SymmetryVerdict:
    verdict: Verdict
    residual: Expr

    @property
    def is_symmetry(self) -> bool:
        return self.verdict is Verdict.SYMMETRY


class _RhsPartials:
    """The derivatives of the rhs F that the invariance residual needs:
    F_t, F_x, F_u, F_{u_x} and F_{u_xx}, and D_x F on first use.  A search
    computes them once for all its ansatz fields."""

    def __init__(self, pde: EvolutionPDE):
        self.pde = pde
        self.partials = tuple(
            differentiate(pde.rhs, v)
            for v in ("t", "x", "u", jet_name(0, 1), jet_name(0, 2)))

    @cached_property
    def total_x(self) -> Expr:
        return total_derivative(self.pde.rhs, "x", self.pde.table,
                                max_order=3)


def invariance_residual(pde: EvolutionPDE, X: VectorField) -> Expr:
    """pr(2)X(u_t - F) restricted to the solution manifold, canonical.

    For fields with x- or u-dependent xi_t the substitution u_tx -> D_x F
    introduces third-order jets; they are tracked internally.
    """
    return _residual(X, _RhsPartials(pde))


def _residual(X: VectorField, rhs: _RhsPartials) -> Expr:
    pr = prolong2(X, rhs.pde.table)
    F_t, F_x, F_u, F_ux, F_uxx = rhs.partials
    applied = add(
        mul(X.xi_t, F_t),
        mul(X.xi_x, F_x),
        mul(X.eta, F_u),
        mul(pr.eta_x, F_ux),
        mul(pr.eta_xx, F_uxx),
    )
    residual = add(pr.eta_t, mul(-1, applied))
    subs = {jet_name(1, 0): rhs.pde.rhs}
    if jet_name(1, 1) in free_symbols(residual):
        subs[jet_name(1, 1)] = rhs.total_x
    return substitute(residual, subs)


def is_symmetry(pde: EvolutionPDE, X: VectorField,
                parameters: Optional[set] = None) -> SymmetryVerdict:
    """Wrap the residual with the three-valued zero test."""
    residual = invariance_residual(pde, X)
    if parameters is None:
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

def _poly_monomials(bound: int) -> List[Tuple[int, int]]:
    return [(i, j) for n in range(bound + 1)
            for i in range(n + 1) for j in range(n - i + 1)
            if i + j <= bound]


def _ansatz_basis(bound: int) -> List[VectorField]:
    """Basis fields: xi_t, xi_x polynomial of degree <= bound in (t, x);
    eta = alpha(t,x)*u + beta(t,x) with alpha, beta of degree <= bound."""
    t, x, u = sym("t"), sym("x"), sym("u")
    monos = [mul(powx(t, rat(i)), powx(x, rat(j)))
             for i, j in sorted(set(_poly_monomials(bound)))]
    basis = []
    for mono in monos:
        basis.append(VectorField(mono, ZERO, ZERO))
    for mono in monos:
        basis.append(VectorField(ZERO, mono, ZERO))
    for mono in monos:
        basis.append(VectorField(ZERO, ZERO, mul(mono, u)))
    for mono in monos:
        basis.append(VectorField(ZERO, ZERO, mono))
    return basis


def _check_rhs_supported(pde: EvolutionPDE):
    """The ansatz needs rhs coefficients polynomial in (t, x) and power
    monomials in u at fixed rational exponents."""
    table = pde.table
    terms = pde.rhs.terms if isinstance(pde.rhs, Add) else (pde.rhs,)
    for term in terms:
        _, mono = _coeff_monomial(term)
        factors = mono.factors if isinstance(mono, Mul) else (
            () if mono == ONE else (mono,))
        for f in factors:
            base, expo = (f.base, f.exponent) if isinstance(f, Pow) else (f, ONE)
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


@dataclass
class FindResult:
    """Solution basis of the determining system, each member re-verified."""

    fields: List[VectorField]
    bound: int
    verified: List[SymmetryVerdict] = field(default_factory=list)

    def __len__(self):
        return len(self.fields)


def find_symmetries(pde: EvolutionPDE, bound: int = 2) -> FindResult:
    """Solve the determining equations under the polynomial ansatz.

    The residual is linear in the ansatz coefficients, so the residuals of
    the basis fields already span the system: collecting every monomial
    (in t, x, u and the jets) yields one exact linear equation per monomial.
    Returns a basis of the solution space; every returned field is
    re-verified by the invariance residual."""
    if bound < 1:
        raise ValueError("ansatz degree bound must be >= 1")
    _check_rhs_supported(pde)
    basis = _ansatz_basis(bound)
    rows: Dict[tuple, List[Fraction]] = {}
    n = len(basis)
    partials = _RhsPartials(pde)
    for k, bf in enumerate(basis):
        residual = _residual(bf, partials)
        terms = residual.terms if isinstance(residual, Add) else (residual,)
        for term in terms:
            if term.is_zero_literal:
                continue
            coeff, mono = _coeff_monomial(term)
            row = rows.setdefault(mono.key(), [Fraction(0)] * n)
            row[k] += coeff
    matrix = [rows[k] for k in sorted(rows.keys())]
    solutions = nullspace(matrix, n)
    fields = []
    verified = []
    for vec in solutions:
        f = jets.ZERO_FIELD
        for c, bf in zip(vec, basis):
            if c:
                f = f + bf.scale(rat(c))
        verdict = is_symmetry(pde, f)
        if not verdict.is_symmetry:
            raise RuntimeError(
                "determining-system solution failed re-verification; "
                f"residual {verdict.residual!r}")
        fields.append(f)
        verified.append(verdict)
    return FindResult(fields=fields, bound=bound, verified=verified)
