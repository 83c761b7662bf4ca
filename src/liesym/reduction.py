"""Symmetry reduction to ODEs, verification of exact solutions, and
solution families from one-parameter group actions.

Supported generators are affine in (t, x) with triangular time part and
eta = c*u:

    xi_t = a0 + a1*t,   xi_x = b0 + b1*t + b2*x,   eta = c*u.

This covers the family's classified generators and their linear
combinations, and the characteristic system integrates in closed form
(powers, exponentials, logarithms).  Anything outside the class raises
UnsupportedGeneratorError rather than guessing.

Every reduction ships a factorization certificate: the substituted PDE
residual equals the extracted nonzero factor times the reduced ODE,
checked as a canonical identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional

from . import poly
from .expr import (
    EULER, Expr, ExprError, Func, Mul, Pow, Rat, ZERO, ONE, ZeroVerdict,
    add, contains_func, differentiate, free_symbols, is_zero, log,
    mul, powx, rat, substitute, sym,
)
from .equivalence import _inverse_point_map
from .jets import VectorField, jet_name
from .linalg import exact_expm
from .pde import EvolutionPDE
from .symmetry import is_symmetry


class UnsupportedGeneratorError(ExprError):
    pass


class DegenerateGeneratorError(ExprError):
    pass


class NotASymmetryError(ExprError):
    pass


class SingularSolutionError(ExprError):
    """The solution puts the PDE on a pole, so its residual is undefined."""


class ReductionFailureError(ExprError):
    def __init__(self, message: str, residual: Optional[Expr] = None):
        super().__init__(message)
        self.residual = residual


PHI = "phi"
OMEGA = sym("w")


class AffineGenerator(NamedTuple):
    """Coefficient data of a supported generator; entries are constants
    (exact rationals or parameter expressions)."""

    a0: Expr
    a1: Expr
    b0: Expr
    b1: Expr
    b2: Expr
    c: Expr

    def rational(self, name: str) -> Fraction:
        e = getattr(self, name)
        if isinstance(e, Rat):
            return e.value
        raise UnsupportedGeneratorError(
            f"{name} must be an exact rational here, got {e!r}")


def _vanishes(e: Expr, what: str) -> bool:
    """Decidable zero test for structural coefficients."""
    v = is_zero(e)
    if v is ZeroVerdict.ZERO:
        return True
    if v is ZeroVerdict.NONZERO:
        return False
    raise UnsupportedGeneratorError(
        f"cannot decide whether {what} vanishes: {e!r}")


def affine_data(X: VectorField) -> AffineGenerator:
    """Extract (a0, a1, b0, b1, b2, c); reject anything outside the class."""
    t, x, u = "t", "x", "u"
    for coef, allowed in ((X.xi_t, {t}), (X.xi_x, {t, x}), (X.eta, {u})):
        got = free_symbols(coef) & {t, x, u}
        if not got <= allowed:
            raise UnsupportedGeneratorError(
                f"coefficient {coef!r} depends on {sorted(got - allowed)}")
    a1 = differentiate(X.xi_t, t)
    if not differentiate(a1, t).is_zero_literal:
        raise UnsupportedGeneratorError("xi_t must be affine in t")
    a0 = substitute(X.xi_t, {t: ZERO})
    b1 = differentiate(X.xi_x, t)
    b2 = differentiate(X.xi_x, x)
    if not (differentiate(b1, t).is_zero_literal
            and differentiate(b1, x).is_zero_literal
            and differentiate(b2, t).is_zero_literal
            and differentiate(b2, x).is_zero_literal):
        raise UnsupportedGeneratorError("xi_x must be affine in (t, x)")
    b0 = substitute(X.xi_x, {t: ZERO, x: ZERO})
    # c is checked first: eta at u = 0 can be a pole (eta = u^(-1))
    c = differentiate(X.eta, u)
    if free_symbols(c) & {"t", "x", "u"}:
        raise UnsupportedGeneratorError("eta must be c*u with constant c")
    if not add(X.eta, mul(-1, c, sym(u))).is_zero_literal:
        raise UnsupportedGeneratorError("eta must be c*u")
    return AffineGenerator(a0=a0, a1=a1, b0=b0, b1=b1, b2=b2, c=c)


class Invariants(NamedTuple):
    """Invariant variable and multiplier of the ansatz u = M * phi(omega),
    together with the section (t, x) = (T(s, w), X(s, w)) used to rewrite
    invariant coefficients as functions of omega."""

    omega: Expr
    multiplier: Expr
    section: Dict[str, Expr]


def generator_invariants(X: VectorField) -> Invariants:
    """Closed-form invariants of the characteristic system.  The outputs are
    self-verified: X(omega) = 0 and X(M) = c*M as canonical identities."""
    data = affine_data(X)
    a0, a1, b0, b1, b2, c = (data.a0, data.a1, data.b0, data.b1, data.b2,
                             data.c)
    t, x = sym("t"), sym("x")
    s = sym("s")

    def inv_of(e):
        return powx(e, rat(-1))

    a1_zero = _vanishes(a1, "xi_t slope")
    b2_zero = _vanishes(b2, "xi_x x-slope")
    if a1_zero and _vanishes(a0, "xi_t"):
        if b2_zero and _vanishes(b0, "xi_x") and _vanishes(b1, "xi_x"):
            raise DegenerateGeneratorError("xi_t = xi_x = 0")
        omega = t
        if not b2_zero:
            mult = powx(X.xi_x, mul(c, inv_of(b2)))
        else:
            mult = powx(EULER, mul(c, x, inv_of(add(b0, mul(b1, t)))))
        section = {"t": OMEGA, "x": s}
    elif a1_zero:
        # time translation-like: xi_t = a0 != 0
        mult = powx(EULER, mul(c, t, inv_of(a0)))
        if b2_zero:
            ramp = add(mul(b0, t), mul(rat(Fraction(1, 2)), b1, powx(t, 2)))
            omega = add(x, mul(-1, inv_of(a0), ramp))
            section = {"t": s,
                       "x": add(OMEGA, mul(inv_of(a0),
                                           add(mul(b0, s),
                                               mul(rat(Fraction(1, 2)), b1,
                                                   powx(s, 2)))))}
        else:
            alpha = mul(-1, b1, inv_of(b2))
            beta = mul(add(mul(a0, alpha), mul(-1, b0)), inv_of(b2))
            xp = add(mul(alpha, t), beta)
            rate = mul(b2, inv_of(a0))
            omega = mul(add(x, mul(-1, xp)),
                        powx(EULER, mul(-1, rate, t)))
            section = {"t": s,
                       "x": add(mul(OMEGA, powx(EULER, mul(rate, s))),
                                mul(alpha, s), beta)}
    else:
        # xi_t = a1*(t + a0/a1)
        shift = mul(a0, inv_of(a1))
        tbar = add(t, shift)
        b0p = add(b0, mul(-1, b1, shift))
        mult = powx(tbar, mul(c, inv_of(a1)))
        if b2_zero:
            omega = add(x, mul(-1, b1, inv_of(a1), tbar),
                        mul(-1, b0p, inv_of(a1), log(tbar)))
            xsec = add(OMEGA, mul(b1, inv_of(a1), s),
                       mul(b0p, inv_of(a1), log(s)))
        elif _vanishes(add(b2, mul(-1, a1)), "resonance b2 - a1"):
            p = mul(b1, inv_of(a1))
            omega = mul(add(x, mul(-1, p, tbar, log(tbar)),
                            mul(b0p, inv_of(a1))),
                        powx(tbar, rat(-1)))
            xsec = add(mul(OMEGA, s), mul(p, s, log(s)),
                       mul(-1, b0p, inv_of(a1)))
        else:
            p = mul(b1, inv_of(add(a1, mul(-1, b2))))
            q = mul(-1, b0p, inv_of(b2))
            expo = mul(b2, inv_of(a1))
            omega = mul(add(x, mul(-1, p, tbar), mul(-1, q)),
                        powx(tbar, mul(-1, expo)))
            xsec = add(mul(OMEGA, powx(s, expo)), mul(p, s), q)
        section = {"t": add(s, mul(-1, shift)), "x": xsec}
    inv = Invariants(omega=omega, multiplier=mult, section=section)
    _self_check(X, data, inv)
    return inv


def _self_check(X: VectorField, data: AffineGenerator, inv: Invariants):
    xo = X.apply_to(inv.omega)
    if not xo.is_zero_literal:
        raise ExprError(f"invariant check failed: X(omega) = {xo!r}")
    xm = add(X.apply_to(inv.multiplier), mul(-1, data.c, inv.multiplier))
    if not xm.is_zero_literal:
        raise ExprError(f"multiplier check failed: X(M) - c M = {xm!r}")


class ReductionAnsatz:
    """u = M(t,x) * phi(omega(t,x)) with the reduced ODE and certificate."""

    __slots__ = ("omega", "multiplier", "ode", "factor", "certificate")

    def __init__(self, omega: Expr, multiplier: Expr, ode: Expr,
                 factor: Expr, certificate: Expr):
        self.omega = omega
        self.multiplier = multiplier
        self.ode = ode                  # in w, phi(w), phi'(w), phi''(w)
        self.factor = factor            # extracted nonzero cofactor G(t, x)
        self.certificate = certificate  # R - factor * (ode at omega), zero


def _phi_monomials(e: Expr) -> list:
    """(monomial, coefficient) of e in the generators that mention phi."""
    p = poly.to_poly(e)
    phi = [contains_func(g, PHI) for g in p.gens]
    groups: Dict[tuple, dict] = {}
    for k, c in p.coeffs.items():
        groups.setdefault(tuple(q if f else 0 for q, f in zip(k, phi)), {})[
            tuple(0 if f else q for q, f in zip(k, phi))] = c
    return [(poly.from_poly(poly.Poly(p.gens, {mono: 1})),
             poly.from_poly(poly.Poly(p.gens, terms)))
            for mono, terms in groups.items()]


def reduce_pde(pde: EvolutionPDE, X: VectorField) -> ReductionAnsatz:
    """Substitute the invariant ansatz and factor the residual into
    (nonzero cofactor) * (ODE in phi(omega))."""
    verdict = is_symmetry(pde, X)
    if not verdict.is_symmetry:
        raise NotASymmetryError(
            f"field is not a symmetry; residual {verdict.residual!r}")
    inv = generator_invariants(X)
    omega, M = inv.omega, inv.multiplier
    phi = Func(PHI, 0, omega)
    u_sub = mul(M, phi)
    u_t = differentiate(u_sub, "t")
    u_x = differentiate(u_sub, "x")
    u_xx = differentiate(u_x, "x")
    residual = substitute(
        add(sym(jet_name(1, 0)), mul(-1, pde.rhs)),
        {"u": u_sub, jet_name(1, 0): u_t, jet_name(0, 1): u_x,
         jet_name(0, 2): u_xx})
    groups = _phi_monomials(residual)
    if [mono for mono, _ in groups] == [ONE]:
        raise ReductionFailureError("substituted residual has no phi part",
                                    residual)
    factor = max((g for g in groups if g[0] != ONE),
                 key=lambda g: g[0].key())[1]
    if is_zero(factor) is ZeroVerdict.ZERO:
        raise ReductionFailureError("vanishing leading cofactor", residual)
    ode_terms: List[Expr] = []
    inv_factor = powx(factor, rat(-1))
    for mono, coeff in groups:
        h = mul(coeff, inv_factor)
        if free_symbols(h) & {"t", "x"}:
            hx = X.apply_to(h)
            if not hx.is_zero_literal:
                raise ReductionFailureError(
                    "cofactor ratio is not invariant", h)
            h = substitute(h, inv.section)
            if "s" in free_symbols(h):
                raise ReductionFailureError(
                    "cofactor ratio does not collapse to the invariant", h)
        ode_terms.append(mul(h, _to_omega_symbol(mono)))
    ode = add(*ode_terms)
    # certificate: residual == factor * ode(omega)
    back = substitute(ode, {"w": omega})
    certificate = add(residual, mul(-1, factor, back))
    if not certificate.is_zero_literal:
        raise ReductionFailureError("factorization identity failed",
                                    certificate)
    return ReductionAnsatz(omega=omega, multiplier=M, ode=ode, factor=factor,
                           certificate=certificate)


def _to_omega_symbol(mono: Expr) -> Expr:
    """Replace phi(omega(t,x)) atoms by phi(w)."""
    if isinstance(mono, Func) and mono.name == PHI:
        return Func(PHI, mono.order, OMEGA)
    if isinstance(mono, Mul):
        return mul(rat(mono.coeff),
                   *[_to_omega_symbol(f) for f in mono.factors])
    if isinstance(mono, Pow):
        return powx(_to_omega_symbol(mono.base), mono.exponent)
    return mono


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------

class ClosedFormSolution:
    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        self.expr = expr

    def derivatives(self) -> Dict[str, Expr]:
        u = self.expr
        ux = differentiate(u, "x")
        return {"u": u, jet_name(1, 0): differentiate(u, "t"),
                jet_name(0, 1): ux, jet_name(0, 2): differentiate(ux, "x")}


class SolutionVerdict(NamedTuple):
    verdict: str    # solution | not-solution | undecided
    residual: Expr

    @property
    def is_solution(self) -> bool:
        return self.verdict == "solution"


def verify_solution(pde: EvolutionPDE,
                    sol: ClosedFormSolution) -> SolutionVerdict:
    """Substitute u(t, x) into u_t - F and test the canonical residual.  A
    division by zero in the substitution raises SingularSolutionError."""
    derivs = sol.derivatives()
    try:
        residual = substitute(add(sym(jet_name(1, 0)), mul(-1, pde.rhs)),
                              derivs)
    except ZeroDivisionError as exc:
        raise SingularSolutionError(
            f"substituting the solution into the PDE: {exc}") from None
    v = is_zero(residual, parameters=free_symbols(residual) - {"t", "x"})
    if v is ZeroVerdict.ZERO:
        return SolutionVerdict("solution", residual)
    if v is ZeroVerdict.NONZERO:
        return SolutionVerdict("not-solution", residual)
    return SolutionVerdict("undecided", residual)


def transform_solution(sol: ClosedFormSolution, X: VectorField,
                       epsilon) -> ClosedFormSolution:
    """One-parameter group action on a solution: u_new = e^(c eps) *
    u(old coordinates), with the affine (t, x)-flow computed as an exact
    matrix exponential (epsilon may stay symbolic)."""
    data = affine_data(X)
    eps = epsilon if isinstance(epsilon, Expr) else rat(epsilon)
    A = [[data.rational("a1"), Fraction(0), data.rational("a0")],
         [data.rational("b1"), data.rational("b2"), data.rational("b0")],
         [Fraction(0), Fraction(0), Fraction(0)]]
    flow = exact_expm(A, mul(-1, eps))  # triangular in the order 1, t, x
    t, x = sym("t"), sym("x")
    t_old = add(mul(flow[0][0], t), mul(flow[0][1], x), flow[0][2])
    x_old = add(mul(flow[1][0], t), mul(flow[1][1], x), flow[1][2])
    u_new = mul(powx(EULER, mul(data.c, eps)),
                substitute(sol.expr, {"t": t_old, "x": x_old}))
    return ClosedFormSolution(u_new)


def transform_solution_et(sol: ClosedFormSolution, et) -> ClosedFormSolution:
    """Push a solution through an equivalence transformation: a solution of P
    becomes a solution of apply_et(et, P)."""
    subs = _inverse_point_map(et)
    inner = substitute(sol.expr, {"t": subs["t"], "x": subs["x"]})
    return ClosedFormSolution(add(mul(et.k2, inner), et.d2))
