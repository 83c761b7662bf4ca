"""The affine equivalence-transformation group of the family

    t* = k0*t + d0,   x* = k1*x + g*t + d1,   u* = k2*u + d2,

with k0*k1*k2 != 0: application to evolution PDEs, group operations, drift
removal, coefficient normalization, pushforward of vector fields, and the
equivalence decision between family instances.

The u-shift d2 maps power nonlinearities outside monomial form, so the
instance-level operations restrict to d2 = 0 while ``apply_et`` on a general
EvolutionPDE supports d2 != 0.

Scaling systems are solved exactly: taking magnitudes turns the matching
equations into linear systems for the prime-exponent vectors of k0, k1, k2
(one small rational solve per prime), and signs are handled by an explicit
case split.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .expr import (
    Expr, ExprError, Rat, ONE, add, mul, powx, rat, substitute, sym,
)
from .expr import _factorize  # exact prime factorization of small ints
from .dsl import render
from .jets import VectorField, jet_name
from .linalg import solve
from .pde import DCRInstance, EvolutionPDE, build_dcr


class NonInvertibleError(ExprError):
    pass


class NoScalingExistsError(ExprError):
    """The multiplicative matching system has no real solution."""

    def __init__(self, message: str, system: List[str]):
        super().__init__(message + "; system: " + "; ".join(system))
        self.system = system


ParamValue = Union[int, Fraction, Expr]


def _val(v: ParamValue) -> Expr:
    return v if isinstance(v, Expr) else rat(v)


class EquivalenceTransformation:
    """Group element (k0, k1, k2, g, d0, d1, d2), exact or symbolic."""

    __slots__ = ("k0", "k1", "k2", "g", "d0", "d1", "d2")

    def __init__(self, k0: Expr, k1: Expr, k2: Expr, g: Expr, d0: Expr,
                 d1: Expr, d2: Expr):
        for name, v in (("k0", k0), ("k1", k1), ("k2", k2)):
            if v.is_zero_literal:
                raise NonInvertibleError(f"{name} must be nonzero")
        self.k0, self.k1, self.k2 = k0, k1, k2
        self.g, self.d0, self.d1, self.d2 = g, d0, d1, d2

    @classmethod
    def make(cls, k0: ParamValue = 1, k1: ParamValue = 1, k2: ParamValue = 1,
             g: ParamValue = 0, d0: ParamValue = 0, d1: ParamValue = 0,
             d2: ParamValue = 0) -> "EquivalenceTransformation":
        return cls(_val(k0), _val(k1), _val(k2), _val(g), _val(d0), _val(d1),
                   _val(d2))

    def params(self) -> Dict[str, Expr]:
        return {"k0": self.k0, "k1": self.k1, "k2": self.k2, "g": self.g,
                "d0": self.d0, "d1": self.d1, "d2": self.d2}

    def is_identity(self) -> bool:
        return (self.k0 == ONE and self.k1 == ONE and self.k2 == ONE
                and self.g.is_zero_literal and self.d0.is_zero_literal
                and self.d1.is_zero_literal and self.d2.is_zero_literal)

    def to_record(self) -> Dict[str, str]:
        return {k: render(v) for k, v in self.params().items()}


IDENTITY_ET = EquivalenceTransformation.make()


def compose_et(g1: EquivalenceTransformation,
               g2: EquivalenceTransformation) -> EquivalenceTransformation:
    """Composite doing g2 first, then g1:
    apply_et(compose_et(g1, g2), P) == apply_et(g1, apply_et(g2, P))."""
    return EquivalenceTransformation(
        k0=mul(g1.k0, g2.k0),
        k1=mul(g1.k1, g2.k1),
        k2=mul(g1.k2, g2.k2),
        g=add(mul(g1.k1, g2.g), mul(g1.g, g2.k0)),
        d0=add(mul(g1.k0, g2.d0), g1.d0),
        d1=add(mul(g1.k1, g2.d1), mul(g1.g, g2.d0), g1.d1),
        d2=add(mul(g1.k2, g2.d2), g1.d2),
    )


def invert_et(e: EquivalenceTransformation) -> EquivalenceTransformation:
    ik0 = powx(e.k0, -1)
    ik1 = powx(e.k1, -1)
    ik2 = powx(e.k2, -1)
    return EquivalenceTransformation(
        k0=ik0, k1=ik1, k2=ik2,
        g=mul(-1, e.g, ik0, ik1),
        d0=mul(-1, e.d0, ik0),
        d1=mul(ik1, add(mul(e.g, e.d0, ik0), mul(-1, e.d1))),
        d2=mul(-1, e.d2, ik2),
    )


def _inverse_point_map(e: EquivalenceTransformation) -> Dict[str, Expr]:
    """Old coordinates (t, x, u) as functions of the new ones."""
    t, x, u = sym("t"), sym("x"), sym("u")
    ik0 = powx(e.k0, -1)
    ik1 = powx(e.k1, -1)
    ik2 = powx(e.k2, -1)
    t_old = mul(add(t, mul(-1, e.d0)), ik0)
    x_old = mul(add(x, mul(-1, e.g, t_old), mul(-1, e.d1)), ik1)
    u_old = mul(add(u, mul(-1, e.d2)), ik2)
    return {"t": t_old, "x": x_old, "u": u_old}


def apply_et(e: EquivalenceTransformation, pde: EvolutionPDE) -> EvolutionPDE:
    """Exact change of variables on u_t = F, returned in evolution form in
    the starred variables (stars dropped)."""
    table = pde.table
    subs = _inverse_point_map(e)
    ux, uxx = jet_name(0, 1), jet_name(0, 2)
    subs[ux] = mul(e.k1, powx(e.k2, -1), sym(ux))
    subs[uxx] = mul(powx(e.k1, 2), powx(e.k2, -1), sym(uxx))
    transformed = substitute(pde.rhs, subs)
    ik0 = powx(e.k0, -1)
    new_rhs = add(mul(e.k2, ik0, transformed),
                  mul(-1, e.g, ik0, sym(ux)))
    return EvolutionPDE(rhs=new_rhs, table=table)


def pushforward_field(e: EquivalenceTransformation,
                      X: VectorField) -> VectorField:
    """Exact affine pushforward of a point field, written in the new
    coordinates."""
    subs = _inverse_point_map(e)
    xi_t = mul(e.k0, substitute(X.xi_t, subs))
    xi_x = add(mul(e.k1, substitute(X.xi_x, subs)),
               mul(e.g, substitute(X.xi_t, subs)))
    eta = mul(e.k2, substitute(X.eta, subs))
    return VectorField(xi_t, xi_x, eta)


def transform_instance(e: EquivalenceTransformation,
                       inst: DCRInstance) -> DCRInstance:
    """Parameter action of a d2=0 transformation, valid when the scaling
    keeps the reaction in family shape (callers arrange that)."""
    if not e.d2.is_zero_literal:
        raise ExprError("instance-level transforms require d2 = 0")
    ik0 = powx(e.k0, -1)
    s = powx(e.k2, mul(-1, inst.p))
    K = mul(powx(e.k2, add(inst.m, -1)), ik0)
    return DCRInstance(
        m=inst.m, p=inst.p,
        b0=mul(ik0, add(mul(e.k1, inst.b0), mul(-1, e.g))),
        b1=mul(e.k1, ik0, powx(e.k2, mul(-1, inst.p)), inst.b1),
        c0=mul(K, inst.c0),
        c1=mul(K, powx(s, 2), inst.c1),
    )


def remove_drift(inst: DCRInstance) -> Tuple[DCRInstance,
                                             EquivalenceTransformation]:
    """Eliminate the linear drift term via the boost x* = x + b0*t."""
    witness = EquivalenceTransformation.make(g=inst.b0)
    return inst.replace(b0=0), witness


# ---------------------------------------------------------------------------
# exact multiplicative solving
# ---------------------------------------------------------------------------

class ScalingConstraint(NamedTuple):
    """k0^a0 * k1^a1 * k2^a2 = value (value a nonzero rational)."""

    a0: Fraction
    a1: Fraction
    a2: Fraction
    value: Fraction
    label: str = ""

    def describe(self) -> str:
        return (f"k0^{self.a0} * k1^{self.a1} * k2^{self.a2} = {self.value}"
                + (f"  [{self.label}]" if self.label else ""))


def _sign_of(k: Fraction) -> int:
    return -1 if k < 0 else 1


def solve_scaling(constraints: Sequence[ScalingConstraint]
                  ) -> Optional[Tuple[Expr, Expr, Expr]]:
    """Solve for (k0, k1, k2) real and nonzero, exactly.

    Magnitudes: each prime q appearing in any constraint value gives a linear
    system A e_q = ord_q(value); primes outside stay at exponent 0.  Signs:
    explicit enumeration, rejecting assignments that put a negative base
    under a non-integer exponent.  Returns None when inconsistent."""
    rows = [[c.a0, c.a1, c.a2] for c in constraints]
    # magnitude part: ord_q(value) of every constraint, one exact solve per
    # prime q
    orders: List[Dict[int, int]] = []
    for c in constraints:
        order = dict(_factorize(abs(c.value.numerator)))
        for q, k in _factorize(c.value.denominator):
            order[q] = order.get(q, 0) - k
        orders.append(order)
    primes = sorted({q for order in orders for q in order})
    exps: Dict[int, List[Fraction]] = {}
    for q in primes:
        sol = solve(rows, [Fraction(order.get(q, 0)) for order in orders])
        if sol is None:
            return None
        exps[q] = sol
    # sign part
    frac_exp = [any(c.a0.denominator != 1 for c in constraints),
                any(c.a1.denominator != 1 for c in constraints),
                any(c.a2.denominator != 1 for c in constraints)]
    for signs in itertools.product((1, -1), repeat=3):
        if any(s == -1 and fe for s, fe in zip(signs, frac_exp)):
            continue
        ok = True
        for c in constraints:
            target = _sign_of(c.value)
            got = 1
            for s, a in zip(signs, (c.a0, c.a1, c.a2)):
                if s == -1:
                    if a.denominator != 1:
                        ok = False
                        break
                    if a.numerator % 2 == 1:
                        got = -got
            if not ok or got != target:
                ok = False
                break
        if ok:
            ks = []
            for i in range(3):
                k: Expr = rat(signs[i])
                for q in primes:
                    k = mul(k, powx(rat(q), rat(exps[q][i])))
                ks.append(k)
            return ks[0], ks[1], ks[2]
    return None


def _rational(e: Expr) -> Optional[Fraction]:
    return e.value if isinstance(e, Rat) else None


def _in_form_branches(inst: DCRInstance) -> List[Tuple[str, Optional[Fraction]]]:
    """Possible values of s = k2^(-p) keeping the reaction in family shape.

    Returns (branch label, required s) pairs; s None means unconstrained."""
    c0 = _rational(inst.c0)
    c1 = _rational(inst.c1)
    if c0 is None or c1 is None:
        raise ExprError("reaction coefficients must be rational here")
    if c0 == 0 and c1 == 0:
        return [("no-reaction", None)]
    branches: List[Tuple[str, Optional[Fraction]]] = [("s=1", Fraction(1))]
    if c1 != 0 and c0 != 0 and Fraction(-c0, c1) != 1:
        branches.append(("s=-c0/c1", Fraction(-c0, c1)))
    return branches


def _scaling_system(m: Fraction, p: Fraction,
                    matches: Sequence[Tuple[str, Fraction, str]],
                    s: Optional[Fraction]) -> List[ScalingConstraint]:
    """The diffusion normalization, one constraint per (coefficient, value,
    label) in matches, and the reaction shape k2^(-p) = s unless s is None.

    A pure scaling multiplies b1, c0 and c1 by k0^a0 * k1^a1 * k2^a2 with
    the exponents below; the diffusion coefficient scales by
    k0^-1 * k1^2 * k2^(1-m) and must stay 1."""
    weights = {"b1": (Fraction(-1), Fraction(1), -p),
               "c0": (Fraction(-1), Fraction(0), m - 1),
               "c1": (Fraction(-1), Fraction(0), m - 1 - 2 * p)}
    cons = [ScalingConstraint(Fraction(-1), Fraction(2), 1 - m, Fraction(1),
                              "diffusion normalization")]
    cons += [ScalingConstraint(*weights[name], value, label)
             for name, value, label in matches]
    if s is not None:
        cons.append(ScalingConstraint(Fraction(0), Fraction(0), -p, s,
                                      "reaction shape"))
    return cons


def _scaling_constraints(inst: DCRInstance, target: DCRInstance,
                         branch_s: Optional[Fraction]
                         ) -> Optional[List[ScalingConstraint]]:
    """Matching equations sending inst to target by a pure scaling.

    Requires rational exponents and coefficients on both sides.  Returns None
    when a vanishing-pattern invariant already separates them."""
    matches = []
    for name in ("b1", "c0", "c1"):
        src = _rational(getattr(inst, name))
        dst = _rational(getattr(target, name))
        if (src == 0) != (dst == 0):
            return None
        if src != 0:
            matches.append((name, Fraction(dst, src), f"{name} match"))
    # branch_s is None exactly when inst has no reaction term
    return _scaling_system(_rational(inst.m), _rational(inst.p), matches,
                           branch_s)


def normalize_coefficient(inst: DCRInstance, target: str
                          ) -> Tuple[DCRInstance, EquivalenceTransformation]:
    """Scale the instance so the target coefficient becomes +1 or -1.

    Works over real scalings; the achievable sign is decided by the exact
    sign case split.  Raises NoScalingExistsError with the matching system
    when no real scaling exists."""
    if target not in ("b0", "b1", "c0", "c1"):
        raise ValueError("target must be one of b0, b1, c0, c1")
    cur = _rational(getattr(inst, target))
    if cur is None:
        raise ExprError("target coefficient must be rational")
    if cur == 0:
        raise NoScalingExistsError("target coefficient vanishes", [])
    if abs(cur) == 1:
        return inst, IDENTITY_ET
    if target == "b0":
        # additive: the Galilei parameter alone reaches any b0
        want = Fraction(1) if cur > 0 else Fraction(-1)
        witness = EquivalenceTransformation.make(g=cur - want)
        return inst.replace(b0=want), witness
    m = _rational(inst.m)
    p = _rational(inst.p)
    if m is None or p is None:
        raise ExprError("exponents must be rational for normalization")
    tried: List[str] = []
    for sign in (1, -1):
        for label, s in _in_form_branches(inst):
            cons = _scaling_system(
                m, p, [(target, Fraction(sign, cur), f"{target} -> {sign}")],
                s)
            sol = solve_scaling(cons)
            tried.extend(c.describe() for c in cons)
            if sol is None:
                continue
            k0, k1, k2 = sol
            witness = EquivalenceTransformation.make(k0=k0, k1=k1, k2=k2)
            out = transform_instance(witness, inst)
            got = getattr(out, target)
            if not (isinstance(got, Rat) and abs(got.value) == 1):
                continue
            # soundness: the witness must reproduce the built equation
            if apply_et(witness, build_dcr(inst)).rhs == build_dcr(out).rhs:
                return out, witness
    raise NoScalingExistsError(
        f"no real scaling sends {target} to +-1", tried)


class EquivVerdict:
    NOT_EQUIVALENT = "not-equivalent"
    UNDECIDED = "undecided"


class EquivalenceResult:
    __slots__ = ("witness", "verdict", "detail")

    def __init__(self, witness: Optional[EquivalenceTransformation],
                 verdict: str, detail: str):
        self.witness = witness
        self.verdict = verdict  # "equivalent" | "not-equivalent" | "undecided"
        self.detail = detail

    @property
    def equivalent(self) -> bool:
        return self.witness is not None


def are_equivalent(a: DCRInstance, b: DCRInstance) -> EquivalenceResult:
    """Decide ET-equivalence of two instances with equal rational exponents.

    The witness is re-verified by applying it to the built PDE; NotEquivalent
    verdicts name the separating invariant."""
    ma, pa = _rational(a.m), _rational(a.p)
    mb, pb = _rational(b.m), _rational(b.p)
    if None in (ma, pa, mb, pb):
        return EquivalenceResult(None, EquivVerdict.UNDECIDED,
                                 "symbolic exponents")
    if (ma, pa) != (mb, pb):
        return EquivalenceResult(None, EquivVerdict.NOT_EQUIVALENT,
                                 "exponents (m, p) are ET-invariant")
    try:
        coeffs_ok = all(_rational(getattr(a, n)) is not None
                        and _rational(getattr(b, n)) is not None
                        for n in ("b0", "b1", "c0", "c1"))
    except ExprError:
        coeffs_ok = False
    if not coeffs_ok:
        return EquivalenceResult(None, EquivVerdict.UNDECIDED,
                                 "symbolic coefficients")
    for name in ("b1",):
        if (_rational(getattr(a, name)) == 0) != (_rational(getattr(b, name)) == 0):
            return EquivalenceResult(None, EquivVerdict.NOT_EQUIVALENT,
                                     f"vanishing pattern of {name}")
    tried: List[str] = []
    for label, s in _in_form_branches(a):
        cons = _scaling_constraints(a, b, s)
        if cons is None:
            continue
        sol = solve_scaling(cons)
        tried.extend(c.describe() for c in cons)
        if sol is None:
            continue
        k0, k1, k2 = sol
        # match b0 additively with the boost parameter
        g = add(mul(k1, a.b0), mul(-1, k0, b.b0))
        witness = EquivalenceTransformation.make(k0=k0, k1=k1, k2=k2, g=g)
        out = transform_instance(witness, a)
        lhs = apply_et(witness, build_dcr(a)).rhs
        rhs = build_dcr(out).rhs
        if lhs == rhs and _instances_equal(out, b):
            return EquivalenceResult(witness, "equivalent", label)
    if tried:
        return EquivalenceResult(None, EquivVerdict.NOT_EQUIVALENT,
                                 "matching system inconsistent: "
                                 + "; ".join(tried))
    return EquivalenceResult(None, EquivVerdict.NOT_EQUIVALENT,
                             "reaction shape cannot be preserved")


def _instances_equal(a: DCRInstance, b: DCRInstance) -> bool:
    return all(add(v, mul(-1, w)).is_zero_literal
               for v, w in zip(a.params().values(), b.params().values()))
