"""Evolution PDEs u_t = F(t, x, u, u_x, u_xx) and the parameterized
diffusion-convection-reaction family

    u_t = (u^m)_xx + (b0*u + b1*u^(p+1))_x + (1 - u^p)*(c0 + c1*u^p)*u^(2-m).

The right-hand side is stored expanded over jet coordinates, which is the
form the invariance condition operates on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Dict, NamedTuple, Optional, Tuple, Union

from .expr import (
    Expr, ExprError, ONE, Rat, SymbolTable, ZERO, add, differentiate,
    free_symbols, mul, powx, rat, substitute, sym,
)
from . import jets, poly
from .dsl import parse, render
from .jets import dcr_symbols, jet, jet_name


class NotInFamilyError(ExprError):
    """The PDE cannot be matched to A(u) u_xx + A'(u) u_x^2 + B(u) u_x + C(u)."""


ParamValue = Union[int, Fraction, Expr]


def _as_param(v: ParamValue) -> Expr:
    if isinstance(v, Expr):
        return v
    return rat(v)


class EvolutionPDE:
    """u_t = rhs with rhs free of u_t, u_tt, u_tx."""

    def __init__(self, rhs: Expr, table: SymbolTable):
        for name in free_symbols(rhs):
            entry = table.jet_index.get(name)
            if entry is None:
                continue
            dt, dx = entry[1]
            if dt > 0:
                raise ExprError(f"evolution rhs must not contain {name}")
            if dx > 2:
                raise ExprError(f"evolution rhs is second order; got {name}")
        self.rhs = rhs
        self.table = table

    @cached_property
    def partials(self) -> Tuple[poly.Poly, ...]:
        """F and its partials F_t, F_x, F_u, F_{u_x} and F_{u_xx}, which
        the invariance residual needs, as polynomials over one tuple of
        generators that starts with ``jets.RESIDUAL_GENERATORS``; computed
        once per PDE."""
        F = poly.to_poly(self.rhs, jets.RESIDUAL_GENERATORS)
        return poly.align(F, *[poly.derive(F, {v: ONE}) for v in (
            "t", "x", "u", jet_name(0, 1), jet_name(0, 2))])

    @cached_property
    def total_x(self) -> poly.Poly:
        """D_x F, which may contain the third-order jet u_xxx."""
        return jets.poly_total_derivative(self.partials[0], "x", self.table,
                                          max_order=3)


class DCRInstance(NamedTuple):
    """Parameter tuple (m, p, b0, b1, c0, c1); entries are exact rationals or
    symbolic expressions."""

    m: Expr
    p: Expr
    b0: Expr
    b1: Expr
    c0: Expr
    c1: Expr

    @classmethod
    def make(cls, m: ParamValue = None, p: ParamValue = None,
             b0: ParamValue = 0, b1: ParamValue = 0,
             c0: ParamValue = 0, c1: ParamValue = 0) -> "DCRInstance":
        """Build an instance; omitted m, p stay symbolic."""
        return cls(
            m=_as_param(m) if m is not None else sym("m"),
            p=_as_param(p) if p is not None else sym("p"),
            b0=_as_param(b0), b1=_as_param(b1),
            c0=_as_param(c0), c1=_as_param(c1),
        )

    def params(self) -> Dict[str, Expr]:
        return {"m": self.m, "p": self.p, "b0": self.b0, "b1": self.b1,
                "c0": self.c0, "c1": self.c1}

    def replace(self, **kw: ParamValue) -> "DCRInstance":
        d = self.params()
        d.update({k: _as_param(v) for k, v in kw.items()})
        return DCRInstance(**d)

    def instantiate(self, bindings: Dict[str, ParamValue]) -> "DCRInstance":
        """Substitute parameter symbols (e.g. m, p) by values."""
        b = {k: _as_param(v) for k, v in bindings.items()}
        return DCRInstance(**{k: substitute(v, b)
                              for k, v in self.params().items()})

    def is_symbolic(self) -> bool:
        return any(free_symbols(v) for v in self.params().values())

    def to_record(self) -> Dict[str, str]:
        """Flat key-value serialization; exact rationals as num/den."""
        return {k: render(v) for k, v in self.params().items()}

    @classmethod
    def from_record(cls, record: Dict[str, str],
                    table: Optional[SymbolTable] = None) -> "DCRInstance":
        table = table or dcr_symbols()
        vals = {k: parse(str(v), table) for k, v in record.items()}
        return cls(**vals)


class DCRFamilyMember:
    """General family member u_t = [A(u) u_x]_x + B(u) u_x + C(u), stored by
    its coefficient functions of u alone."""

    __slots__ = ("A", "B", "C")

    def __init__(self, A: Expr, B: Expr, C: Expr):
        if A.is_zero_literal:
            raise NotInFamilyError("diffusion coefficient A(u) vanishes")
        self.A, self.B, self.C = A, B, C


def reaction_term(inst: DCRInstance) -> Expr:
    u = sym("u")
    up = powx(u, inst.p)
    return mul(add(1, mul(-1, up)),
               add(inst.c0, mul(inst.c1, up)),
               powx(u, add(2, mul(-1, inst.m))))


def build_dcr(inst: DCRInstance,
              table: Optional[SymbolTable] = None) -> EvolutionPDE:
    """Expand the family member over jets:

        m u^(m-1) u_xx + m(m-1) u^(m-2) u_x^2
        + b0 u_x + b1 (p+1) u^p u_x + (1-u^p)(c0+c1 u^p) u^(2-m).
    """
    if isinstance(inst.m, Rat) and inst.m.value == 0:
        raise ExprError("diffusion exponent m must be nonzero")
    table = table or dcr_symbols()
    u = sym("u")
    diffusion = jets.total_derivative(
        jets.total_derivative(powx(u, inst.m), "x", table), "x", table)
    convection = jets.total_derivative(
        add(mul(inst.b0, u), mul(inst.b1, powx(u, add(inst.p, 1)))),
        "x", table)
    rhs = add(diffusion, convection, reaction_term(inst))
    return EvolutionPDE(rhs=rhs, table=table)


def heat_equation(table: Optional[SymbolTable] = None) -> EvolutionPDE:
    table = table or dcr_symbols()
    return EvolutionPDE(rhs=jet(0, 2), table=table)


def power_diffusion(m: ParamValue = None,
                    table: Optional[SymbolTable] = None) -> EvolutionPDE:
    """u_t = (u^m)_xx, the classical power-diffusion equation."""
    return build_dcr(DCRInstance.make(m=m, p=1), table)


def _u_only(e: Expr, table: SymbolTable, what: str) -> Expr:
    """Coefficient functions may depend on u and constants only."""
    for name in free_symbols(e):
        if name == "u":
            continue
        entry = table.jet_index.get(name)
        if entry is not None and sum(entry[1]) > 0:
            raise NotInFamilyError(f"{what} depends on jet {name}")
        if name in ("t", "x"):
            raise NotInFamilyError(f"{what} depends on {name}")
    return e


def to_family(pde: EvolutionPDE) -> DCRFamilyMember:
    """Match the rhs against A(u) u_xx + A'(u) u_x^2 + B(u) u_x + C(u):
    over the generators that mention u_xx or u_x, the rhs holds only the
    monomials u_xx, u_x^2, u_x and 1, and the coefficient of u_x^2 is A'."""
    names = (jet_name(0, 2), jet_name(0, 1))
    gens, parts = poly.collect(
        poly.to_poly(pde.rhs, tuple(map(sym, names))),
        lambda g: not free_symbols(g).isdisjoint(names))
    rest = (0,) * (len(gens) - 2)
    keys = [k + rest for k in ((1, 0), (0, 2), (0, 1), (0, 0))]
    if not parts.keys() <= set(keys):
        raise NotInFamilyError(
            "rhs is not A(u)*u_xx + A'(u)*u_x^2 + B(u)*u_x + C(u)")
    A, D, B, C = (
        _u_only(poly.from_poly(parts[k]), pde.table, what) if k in parts
        else ZERO for k, what in zip(keys, ("A(u)", "A'(u)", "B(u)", "C(u)")))
    if A.is_zero_literal:
        raise NotInFamilyError("no u_xx term (A = 0)")
    if not add(D, mul(-1, differentiate(A, "u"))).is_zero_literal:
        raise NotInFamilyError(f"the coefficient {D!r} of u_x^2 is not A'(u)")
    return DCRFamilyMember(A=A, B=B, C=C)


class SpecialCaseFlags(NamedTuple):
    """Degeneracy and special-structure markers for a parameter tuple."""

    special_power_reaction: bool   # p + 1 = m and c0 = 0
    drift_removable: bool          # b0 != 0
    pure_convection_diffusion: bool  # c0 = c1 = 0
    linear_diffusion: bool         # m = 1
    degenerate_p: bool             # p = 0


def special_case_flags(inst: DCRInstance) -> SpecialCaseFlags:
    return SpecialCaseFlags(
        special_power_reaction=(
            add(inst.p, 1, mul(-1, inst.m)).is_zero_literal
            and inst.c0.is_zero_literal),
        drift_removable=not inst.b0.is_zero_literal,
        pure_convection_diffusion=(
            inst.c0.is_zero_literal and inst.c1.is_zero_literal),
        linear_diffusion=add(inst.m, -1).is_zero_literal,
        degenerate_p=inst.p.is_zero_literal,
    )
