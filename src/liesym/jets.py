"""Second-order jet space: total derivatives and prolongation of point fields.

Jet coordinates are named ``u``, ``u_t``, ``u_x``, ``u_tt``, ``u_tx``,
``u_xx`` (t-derivatives listed before x-derivatives); a table may declare
the jets of further dependent functions, named the same way after them.
Public results are capped at order 2; order-3 coordinates exist so that
total derivatives of order-2 expressions can be formed where a caller
explicitly allows it.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from . import poly
from .expr import (
    Expr, ExprError, ONE, Sym, SymbolTable, add, derive, differentiate,
    free_symbols, mul, substitute, sym,
)


class OrderOverflowError(ExprError):
    """A total derivative would need a jet beyond the allowed order."""


T = sym("t")
X = sym("x")
U = sym("u")

#: dependent variable name
DEP = "u"


def jet_name(dt: int, dx: int, dep: str = DEP) -> str:
    if dt == 0 and dx == 0:
        return dep
    return dep + "_" + "t" * dt + "x" * dx


def jet(dt: int, dx: int, dep: str = DEP) -> Expr:
    return sym(jet_name(dt, dx, dep))


def base_symbols(max_order: int = 3) -> SymbolTable:
    """Symbol table with t, x and jets of u up to ``max_order``."""
    table = SymbolTable()
    table.variable("t")
    table.variable("x")
    for n in range(max_order + 1):
        for dt in range(n + 1):
            table.jet(jet_name(dt, n - dt), DEP, (dt, n - dt))
    return table


def dcr_symbols() -> SymbolTable:
    """Default table for the diffusion-convection-reaction family."""
    table = base_symbols()
    for name in ("m", "p", "b0", "b1", "c0", "c1"):
        table.parameter(name)
    table.function("phi")
    table.function("f")
    return table


def _jet_images(names, direction: str, table: SymbolTable, max_order: int):
    """The images of ``names`` under D_z, and the placeholder symbols that
    stand for jets past ``max_order``, each mapped to the name it came
    from."""
    if direction not in ("t", "x"):
        raise ValueError("direction must be 't' or 'x'")
    images = {direction: ONE}
    overflow = {}
    for name in names:
        entry = table.jet_index.get(name)
        if entry is None:
            continue
        dep, (dt, dx) = entry
        if direction == "t":
            dt += 1
        else:
            dx += 1
        target = jet_name(dt, dx, dep)
        if dt + dx > max_order:
            # no declared name starts with "#", so no term can cancel it
            overflow["#" + target] = name
            target = "#" + target
        images[name] = Sym(target)
    return images, overflow


def _check_overflow(overflow: dict, left: set, max_order: int):
    if left:
        first = min(left, key=overflow.get)
        raise OrderOverflowError(
            f"total derivative needs jet {first[1:]} beyond order {max_order}")


def total_derivative(e: Expr, direction: str, table: SymbolTable,
                     max_order: int = 2) -> Expr:
    """Total derivative D_t or D_x on a jet expression, in one walk.

    D_z is the derivation that sends z to 1 and each jet to the jet of its
    own dependent variable one order higher in z (:func:`expr.derive`).
    ``max_order`` bounds the jets allowed in the *result*: a jet that would
    pass it is sent to a placeholder symbol, and when a placeholder
    survives in the result, :class:`OrderOverflowError` names the jet of
    the first such variable in name order.
    """
    images, overflow = _jet_images(free_symbols(e), direction, table,
                                   max_order)
    out = derive(e, images)
    if overflow:
        _check_overflow(overflow, overflow.keys() & free_symbols(out),
                        max_order)
    return out


def poly_total_derivative(p: poly.Poly, direction: str, table: SymbolTable,
                          max_order: int = 2) -> poly.Poly:
    """:func:`total_derivative` on a polynomial (:func:`poly.derive`).  A
    placeholder that survives in the dict is looked up in the kernel's form
    of the result, so the error is raised exactly when the Expr version
    raises it."""
    images, overflow = _jet_images(poly.symbols(p), direction, table,
                                   max_order)
    if not p.coeffs:
        return p
    out = poly.derive(p, images)
    # a placeholder is a generator that the derivation added
    if (overflow and len(out.gens) > len(p.gens)
            and overflow.keys() & poly.symbols(out)):
        _check_overflow(
            overflow, overflow.keys() & free_symbols(poly.from_poly(out)),
            max_order)
    return out


class VectorField(NamedTuple):
    """Point-symmetry generator xi_t*d/dt + xi_x*d/dx + eta*d/du.

    Coefficients are expressions in (t, x, u) only."""

    xi_t: Expr
    xi_x: Expr
    eta: Expr

    def validate(self, table: SymbolTable) -> "VectorField":
        for coef in (self.xi_t, self.xi_x, self.eta):
            for name in free_symbols(coef):
                entry = table.jet_index.get(name)
                if entry is not None and sum(entry[1]) > 0:
                    raise ExprError(
                        f"vector field coefficient depends on jet {name}")
        return self

    def substitute(self, bindings) -> "VectorField":
        """The field with bindings (name -> Expr) substituted into each
        coefficient."""
        return VectorField(substitute(self.xi_t, bindings),
                           substitute(self.xi_x, bindings),
                           substitute(self.eta, bindings))

    def apply_to(self, e: Expr) -> Expr:
        """Apply the first-order operator to a function of (t, x, u)."""
        return add(mul(self.xi_t, differentiate(e, "t")),
                   mul(self.xi_x, differentiate(e, "x")),
                   mul(self.eta, differentiate(e, "u")))


class ProlongedField(NamedTuple):
    """Second prolongation: base field plus coefficients for d/du_t, d/du_x
    and d/du_xx."""

    field: VectorField
    eta_t: Expr
    eta_x: Expr
    eta_xx: Expr


def poly_prolong2(xi_t: poly.Poly, xi_x: poly.Poly, eta: poly.Poly,
                  table: SymbolTable
                  ) -> Tuple[poly.Poly, poly.Poly, poly.Poly]:
    """eta_t, eta_x and eta_xx of the second prolongation, by the
    recursive total-derivative formulas.

    eta^J,z = D_z(eta^J) - u_{J,t} D_z(xi_t) - u_{J,x} D_z(xi_x); the mixed
    jet u_tx enters eta_xx whenever xi_t depends on x or u.  D_x xi_t and
    D_x xi_x serve both eta_x and eta_xx, so each of the seven distinct
    total derivatives is formed once.
    """
    def d(p, z):
        return poly_total_derivative(p, z, table, max_order=2)

    dx_xi_t, dx_xi_x = d(xi_t, "x"), d(xi_x, "x")
    eta_t = poly.add(d(eta, "t"),
                     poly.mul(_MINUS_JET[1, 0], d(xi_t, "t")),
                     poly.mul(_MINUS_JET[0, 1], d(xi_x, "t")))
    eta_x = poly.add(d(eta, "x"),
                     poly.mul(_MINUS_JET[1, 0], dx_xi_t),
                     poly.mul(_MINUS_JET[0, 1], dx_xi_x))
    eta_xx = poly.add(d(eta_x, "x"),
                      poly.mul(_MINUS_JET[1, 1], dx_xi_t),
                      poly.mul(_MINUS_JET[0, 2], dx_xi_x))
    return eta_t, eta_x, eta_xx


#: t, x, u and the jets of u that the prolongation of a field in (t, x, u)
#: and the invariance residual reach: the first generators of every
#: polynomial they form, so that most of their operands share one tuple
RESIDUAL_GENERATORS = tuple(sym(n) for n in (
    "t", "x", "u", jet_name(0, 1), jet_name(0, 2), jet_name(1, 0),
    jet_name(1, 1)))

#: -u_t, -u_x, -u_tx and -u_xx, by orders
_MINUS_JET = {ab: poly.scale(poly.to_poly(jet(*ab), RESIDUAL_GENERATORS), -1)
              for ab in ((1, 0), (0, 1), (1, 1), (0, 2))}


def prolong2(field: VectorField, table: SymbolTable) -> ProlongedField:
    """Second prolongation: the kernel's form of :func:`poly_prolong2`."""
    xi_t = poly.to_poly(field.xi_t, RESIDUAL_GENERATORS)
    xi_x = poly.to_poly(field.xi_x, xi_t.gens)
    eta = poly.to_poly(field.eta, xi_x.gens)
    return ProlongedField(field, *map(
        poly.from_poly, poly_prolong2(xi_t, xi_x, eta, table)))
