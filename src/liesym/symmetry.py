"""Lie point-symmetry verification and search.

The invariance criterion for u_t = F: apply the second prolongation of
X = xi_t d/dt + xi_x d/dx + eta d/du to (u_t - F), then restrict to the
solution manifold by substituting u_t -> F and u_tx -> D_x F.  X is a
symmetry iff the residual vanishes identically in the remaining jet
coordinates.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import perm
from typing import Dict, List, NamedTuple, Optional, Tuple

from .expr import (
    Add, Expr, ExprError, Mul, Rat, Sym, SymbolTable, ZERO, ONE, ZeroVerdict,
    _base_exp, _coeff_monomial, add, free_symbols, is_zero, mul, powx, rat,
    substitute, sym,
)
from . import jets
from .jets import VectorField, jet, jet_name, prolong2
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


def invariance_residual(pde: EvolutionPDE, X: VectorField, *,
                        table: Optional[SymbolTable] = None) -> Expr:
    """pr(2)X(u_t - F) restricted to the solution manifold, canonical.

    For fields with x- or u-dependent xi_t the substitution u_tx -> D_x F
    introduces third-order jets; they are tracked internally.  The rhs
    derivatives come from the PDE, which computes them once.  ``table``,
    by default ``pde.table``, is the one the prolongation differentiates
    with; it may declare jets of further functions of (t, x) in X.
    """
    pr = prolong2(X, pde.table if table is None else table)
    F_t, F_x, F_u, F_ux, F_uxx = pde.partials
    applied = add(
        mul(X.xi_t, F_t),
        mul(X.xi_x, F_x),
        mul(X.eta, F_u),
        mul(pr.eta_x, F_ux),
        mul(pr.eta_xx, F_uxx),
    )
    residual = add(pr.eta_t, mul(-1, applied))
    subs = {jet_name(1, 0): pde.rhs}
    if jet_name(1, 1) in free_symbols(residual):
        subs[jet_name(1, 1)] = pde.total_x
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

_T, _X, _U = sym("t"), sym("x"), sym("u")

#: The generic function m(t, x) that stands for an ansatz monomial.  Its
#: name is no DSL identifier, so no parsed table declares it.
_AUX = "@m"
#: the jets of m of order <= 2, by their orders (a, b) in t and x
_AUX_JETS = {jet(a, n - a, _AUX): (a, n - a)
             for n in range(3) for a in range(n + 1)}

#: The four component shapes of an ansatz field with monomial m(t, x):
#: xi_t = m, xi_x = m, eta = m*u and eta = m.
_SHAPES = (
    lambda m: VectorField(m, ZERO, ZERO),
    lambda m: VectorField(ZERO, m, ZERO),
    lambda m: VectorField(ZERO, ZERO, mul(m, _U)),
    lambda m: VectorField(ZERO, ZERO, m),
)


def _ansatz_basis(bound: int) -> List[Tuple[int, int, int]]:
    """Basis fields as (shape, i, j): the monomial t^i x^j of degree <= bound
    in component ``_SHAPES[shape]``, so xi_t, xi_x polynomial in (t, x) and
    eta = alpha(t,x)*u + beta(t,x)."""
    return [(c, i, j) for c in range(len(_SHAPES))
            for i in range(bound + 1) for j in range(bound + 1 - i)]


def _basis_field(entry: Tuple[int, int, int]) -> VectorField:
    c, i, j = entry
    return _SHAPES[c](mul(powx(_T, rat(i)), powx(_X, rat(j))))


def _monomial_factors(mono: Expr) -> Tuple[Expr, ...]:
    if isinstance(mono, Mul):
        return mono.factors
    return () if mono == ONE else (mono,)


def _operator_terms(shape, pde: EvolutionPDE, table: SymbolTable,
                    rests: Dict[tuple, int]) -> Dict[Tuple[int, int], list]:
    """The residual of ``shape(m)`` as C00*m + C10*m_t + C01*m_x + C02*m_xx.

    m is the generic function ``_AUX``, prolonged with the jets ``table``
    declares.  Q = eta - xi_t*u_t - xi_x*u_x enters only through D_t Q,
    D_x Q and D_x^2 Q, so each term of the one residual holds exactly one
    of these four jets of m, and its orders (a, b) name the C the term
    belongs to.  Each C is split into terms (coefficient, t-exponent,
    x-exponent, id of the remaining factors in ``rests``)."""
    residual = invariance_residual(pde, shape(sym(_AUX)), table=table)
    out: Dict[Tuple[int, int], list] = {}
    for term in (residual.terms if isinstance(residual, Add)
                 else (residual,)):
        if term.is_zero_literal:
            continue
        coeff, mono = _coeff_monomial(term)
        et, ex, ab, rest = 0, 0, None, []
        for f in _monomial_factors(mono):
            base, e = _base_exp(f)
            # integer exponents: the rhs is polynomial in t and x
            if base == _T:
                et = int(e.value)
            elif base == _X:
                ex = int(e.value)
            elif base in _AUX_JETS:
                ab = _AUX_JETS[base]
            else:
                rest.append(f)
        out.setdefault(ab, []).append(
            (coeff, et, ex, rests.setdefault(tuple(rest), len(rests))))
    return out


def _determining_matrix(pde: EvolutionPDE, basis: List[Tuple[int, int, int]]
                        ) -> List[List[Fraction]]:
    """One row per monomial of the residuals of the basis fields.

    The residual of t^i x^j in shape c is assembled in exponent space:
    each term (coefficient, e_t, e_x, rest) of C_c,ab adds
    ff(i,a)*ff(j,b)*coefficient at t^(e_t+i-a) x^(e_x+j-b) rest, ff the
    falling factorial, so a C that t^i x^j does not reach (C02 at
    degree bound 1) adds nothing.  No Expr arithmetic runs per basis field.
    Rows come in order of first occurrence; the nullspace does not depend
    on it.  Empty positions hold the int 0, which elimination skips
    fastest.  The jets of m are declared in a copy of ``pde.table``, since
    the PDE caches its rhs derivatives against its own table."""
    table = pde.table.copy()
    for m, ab in _AUX_JETS.items():
        table.jet(m.name, _AUX, ab)
    rests: Dict[tuple, int] = {}
    ops = [_operator_terms(shape, pde, table, rests) for shape in _SHAPES]
    n = len(basis)
    rows: Dict[tuple, List[Fraction]] = {}
    for col, (c, i, j) in enumerate(basis):
        entries: Dict[tuple, Fraction] = {}
        for (a, b), terms in ops[c].items():
            f = perm(i, a) * perm(j, b)
            if not f:
                continue
            for coeff, et, ex, rest in terms:
                k = (et + i - a, ex + j - b, rest)
                entries[k] = entries.get(k, 0) + f * coeff
        for k, v in entries.items():
            if v:
                rows.setdefault(k, [0] * n)[col] = v
    return list(rows.values())


def _check_rhs_supported(pde: EvolutionPDE):
    """The ansatz needs rhs coefficients polynomial in (t, x) and power
    monomials in u at fixed rational exponents."""
    table = pde.table
    terms = pde.rhs.terms if isinstance(pde.rhs, Add) else (pde.rhs,)
    for term in terms:
        _, mono = _coeff_monomial(term)
        for f in _monomial_factors(mono):
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


def find_symmetries(pde: EvolutionPDE, bound: int = 2) -> FindResult:
    """Solve the determining equations under the polynomial ansatz.

    The residual is linear in the ansatz coefficients, so the residuals of
    the basis fields already span the system: collecting every monomial
    (in t, x, u and the jets) yields one exact linear equation per monomial.
    The residual of a basis field t^i x^j in one component is a linear
    operator C00*m + C10*m_t + C01*m_x + C02*m_xx in its monomial m, so
    the four C's of each component come from one residual of a generic
    function m(t, x) (4 residuals in all) and every row is assembled in
    exponent space
    (:func:`_determining_matrix`).  Returns a basis of the solution space;
    every returned field is re-verified by the invariance residual."""
    if bound < 1:
        raise ValueError("ansatz degree bound must be >= 1")
    _check_rhs_supported(pde)
    basis = _ansatz_basis(bound)
    solutions = nullspace(_determining_matrix(pde, basis), len(basis))
    fields = []
    verified = []
    for vec in solutions:
        f = jets.ZERO_FIELD
        for c, entry in zip(vec, basis):
            if c:
                f = f + _basis_field(entry).scale(rat(c))
        verdict = is_symmetry(pde, f)
        if not verdict.is_symmetry:
            raise RuntimeError(
                "determining-system solution failed re-verification; "
                f"residual {verdict.residual!r}")
        fields.append(f)
        verified.append(verdict)
    return FindResult(fields=fields, verified=verified)
