"""Independent checking oracle built on sympy.

Nothing here imports liesym: every claim the program prints is re-derived
from the input text with sympy, by formulas that differ from the program's
own.  The invariance test uses the characteristic (evolutionary) form

    X symmetric for u_t = F  <=>  D_t Q - F_u Q - F_ux D_x Q - F_uxx D_x^2 Q = 0
    on solutions, with Q = eta - xi_t u_t - xi_x u_x,

where the program applies the second prolongation to u_t - F.  Equivalence
witnesses are applied by the chain rule, reductions by differentiating the
ansatz u = M * phi(omega) directly.

sympy is imported when this module is imported; the benchmark imports it only
in its checking phase, after every timed region.
"""

from __future__ import annotations

import random
import re
from typing import Dict, Sequence, Tuple

import sympy as sp

T, X = sp.symbols("t x", real=True)
U = sp.Function("U")(T, X)
u = sp.Symbol("u", positive=True)
W = sp.Symbol("w", real=True)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RESERVED = {"D", "exp", "log", "Dt", "Dx", "Du", "P0", "P1", "P2"}
_PARAMS: Dict[str, sp.Symbol] = {}


def _param(name: str) -> sp.Symbol:
    if name not in _PARAMS:
        _PARAMS[name] = sp.Symbol(name, real=True)
    return _PARAMS[name]


def _jet(dt: int, dx: int):
    if dt == 0 and dx == 0:
        return U
    return sp.Derivative(U, *([(T, dt)] if dt else []),
                         *([(X, dx)] if dx else []))


def _total_d(e, var, order=1):
    return sp.diff(e, var, int(order))


def parse(text: str):
    """DSL text -> sympy.  u and its jets u_t, u_x, u_xx, ... become U(t, x)
    and its derivatives; D(e, x, k) is the k-th total x-derivative; phi(w),
    phi'(w), phi''(w) become the symbols P0, P1, P2."""
    text = (text.replace("phi''(w)", "P2").replace("phi'(w)", "P1")
            .replace("phi(w)", "P0").replace("^", "**"))
    local = {"D": _total_d, "exp": sp.exp, "log": sp.log,
             "t": T, "x": X, "w": W}
    for name in ("Dt", "Dx", "Du", "P0", "P1", "P2"):
        local[name] = sp.Symbol(name)
    for name in set(_IDENT.findall(text)):
        if name in local or name in _RESERVED:
            continue
        if name == "u" or re.fullmatch(r"u_[tx]+", name):
            tx = name[2:] if name != "u" else ""
            local[name] = _jet(tx.count("t"), tx.count("x"))
        else:
            local[name] = _param(name)
    return sp.sympify(text, locals=local, rational=True)


def field(text: str) -> Tuple[sp.Expr, sp.Expr, sp.Expr]:
    """'a*Dt + b*Dx + c*Du' -> (xi_t, xi_x, eta), with u as U(t, x)."""
    e = sp.expand(parse(text))
    markers = [sp.Symbol(n) for n in ("Dt", "Dx", "Du")]
    return tuple(sp.expand(e.diff(mk)) for mk in markers)


def family_rhs(params: Dict[str, str]):
    """u_t = (u^m)_xx + (b0*u + b1*u^(p+1))_x
             + (1 - u^p)*(c0 + c1*u^p)*u^(2-m), as an expression in U."""
    val = {k: parse(str(params[k])) for k in ("m", "p", "b0", "b1", "c0", "c1")}
    m, p = val["m"], val["p"]
    return (sp.diff(U ** m, X, 2)
            + sp.diff(val["b0"] * U + val["b1"] * U ** (p + 1), X)
            + (1 - U ** p) * (val["c0"] + val["c1"] * U ** p) * U ** (2 - m))


def _to_jets(e):
    """Replace U and its derivatives by plain symbols u, u_x, u_xx, ..."""
    reps = {}
    for d in e.atoms(sp.Derivative):
        if d.expr != U:
            continue
        counts = {T: 0, X: 0}
        for var, k in d.variable_count:
            counts[var] += int(k)
        reps[d] = sp.Symbol("u_" + "t" * counts[T] + "x" * counts[X])
    return e.xreplace(reps).xreplace({U: u})


def _from_jets(e):
    reps = {u: U}
    for s in e.free_symbols:
        name = s.name
        if re.fullmatch(r"u_[tx]+", name):
            reps[s] = _jet(name.count("t"), name.count("x"))
    return e.xreplace(reps)


def _on_shell(e, F):
    """Eliminate every t-derivative of U with u_t = F and its consequences."""
    for _ in range(8):
        reps = {}
        for d in e.atoms(sp.Derivative):
            if d.expr != U:
                continue
            counts = {T: 0, X: 0}
            for var, k in d.variable_count:
                counts[var] += int(k)
            if counts[T] == 0:
                continue
            rep = F
            if counts[T] - 1:
                rep = sp.diff(rep, T, counts[T] - 1)
            if counts[X]:
                rep = sp.diff(rep, X, counts[X])
            reps[d] = rep
        if not reps:
            return e
        e = e.xreplace(reps)
    raise ValueError("on-shell elimination did not terminate")


def zero_verdict(e, rng_seed: int = 0) -> str:
    """'zero' when sympy reduces e to 0, 'nonzero' when an exact or
    high-precision sample point evaluates away from 0, else 'unknown'."""
    e = sp.expand(sp.powsimp(sp.expand(e), force=True))
    if e == 0:
        return "zero"
    if sp.cancel(sp.together(e)) == 0:
        return "zero"
    if sp.simplify(e) == 0:
        return "zero"
    rng = random.Random(rng_seed)
    names = sorted(e.free_symbols, key=lambda s: s.name)
    for _ in range(6):
        point = {s: sp.Rational(rng.randint(11, 97), rng.randint(5, 13))
                 for s in names}
        try:
            value = sp.N(e.xreplace(point), 40)
        except (ZeroDivisionError, ValueError, TypeError):
            continue
        if value.is_number and abs(value) > 1e-25:
            return "nonzero"
    return "unknown"


def symmetry_residual(F, xi_t, xi_x, eta):
    """Characteristic-form invariance residual on solutions of u_t = F,
    as an expression in the jet symbols."""
    Q = eta - xi_t * _jet(1, 0) - xi_x * _jet(0, 1)
    Fj = _to_jets(F)
    partial = {k: _from_jets(sp.diff(Fj, sp.Symbol(k) if k != "u" else u))
               for k in ("u", "u_x", "u_xx")}
    lin = (partial["u"] * Q + partial["u_x"] * sp.diff(Q, X)
           + partial["u_xx"] * sp.diff(Q, X, 2))
    return _to_jets(_on_shell(sp.diff(Q, T) - lin, F))


class Oracle:
    """Caches verdicts so that repeated generators are checked once."""

    def __init__(self):
        self._sym: Dict[Tuple[str, str], str] = {}

    def symmetry(self, F, F_key: str, field_text: str) -> str:
        key = (F_key, field_text)
        if key not in self._sym:
            self._sym[key] = zero_verdict(
                symmetry_residual(F, *field(field_text)))
        return self._sym[key]

    @staticmethod
    def pde(text: str):
        lhs, rhs = text.split("=", 1)
        if lhs.strip() != "u_t":
            raise ValueError(f"not an evolution equation: {text!r}")
        return parse(rhs)


# ---------------------------------------------------------------------------
# fields, brackets, independence
# ---------------------------------------------------------------------------

def _apply(fld, f):
    """X(f) for a point field on (t, x, u) with u an independent variable."""
    xi_t, xi_x, eta = fld
    return xi_t * sp.diff(f, T) + xi_x * sp.diff(f, X) + eta * sp.diff(f, u)


def point_field(text: str) -> Tuple[sp.Expr, sp.Expr, sp.Expr]:
    """Field with u as a plain coordinate (for brackets)."""
    return tuple(c.xreplace({U: u}) for c in field(text))


def bracket(a, b):
    return tuple(sp.expand(_apply(a, b[k]) - _apply(b, a[k]))
                 for k in range(3))


def combination(coeffs: Sequence, fields: Sequence):
    return tuple(sp.expand(sum(c * f[k] for c, f in zip(coeffs, fields)))
                 for k in range(3))


def fields_equal(a, b) -> bool:
    return all(zero_verdict(a[k] - b[k]) == "zero" for k in range(3))


def rank_of_fields(texts: Sequence[str]) -> int:
    """Rank of polynomial fields over the rationals, by coefficient vectors."""
    rows = []
    monos = set()
    polys = []
    for text in texts:
        comps = []
        for c in point_field(text):
            comps.append(sp.Poly(c, T, X, u).as_dict())
        polys.append(comps)
        for k, d in enumerate(comps):
            monos |= {(k, mono) for mono in d}
    order = sorted(monos)
    for comps in polys:
        rows.append([comps[k].get(mono, 0) for k, mono in order])
    return sp.Matrix(rows).rank() if rows else 0


def no_scaling_symmetry(exponents: Sequence[Tuple[int, int]]) -> bool:
    """Each term u^c * d^b/dx^b balanced against u_t under t -> l^a t,
    x -> l^s x, u -> l^k u: weight k*c - s*b must equal k - a for every term
    (c = power of u, b = x-derivatives).  True when only a = s = k = 0 is
    left."""
    a, s, k = sp.symbols("a s k")
    eqs = [sp.Eq(k * c - s * b, k - a) for c, b in exponents]
    sol = sp.solve(eqs, [a, s, k], dict=True)
    return sol == [{a: 0, s: 0, k: 0}]


# ---------------------------------------------------------------------------
# equivalence witnesses, reductions, solutions
# ---------------------------------------------------------------------------

def apply_witness(F, w: Dict[str, str]):
    """rhs of u*_t* = F* after t* = k0 t + d0, x* = k1 x + g t + d1,
    u* = k2 u + d2, by the chain rule; returned in the jet symbols of the
    starred variables."""
    k0, k1, k2, g, d0, d1, d2 = (parse(w[n]) for n in
                                 ("k0", "k1", "k2", "g", "d0", "d1", "d2"))
    ux, uxx = sp.Symbol("u_x"), sp.Symbol("u_xx")
    Fj = _to_jets(F)
    t_old = (T - d0) / k0
    old = {T: t_old, X: (X - g * t_old - d1) / k1, u: (u - d2) / k2,
           ux: k1 * ux / k2, uxx: k1 ** 2 * uxx / k2}
    return k2 / k0 * Fj.xreplace(old) - g / k0 * ux


def reduction_identity(F, omega: str, multiplier: str, ode: str,
                       factor: str) -> str:
    """u_t - F at u = M*phi(omega) minus factor*ode(omega): must vanish."""
    om, M, fac = parse(omega), parse(multiplier), parse(factor)
    P = [sp.Symbol(f"P{i}") for i in range(4)]

    def D(e, var):
        out = sp.diff(e, var)
        for i in range(3):
            out += sp.diff(e, P[i]) * P[i + 1] * sp.diff(om, var)
        return out

    us = M * P[0]
    ux = D(us, X)
    subs = {u: us, sp.Symbol("u_x"): ux, sp.Symbol("u_xx"): D(ux, X)}
    residual = D(us, T) - _to_jets(F).xreplace(subs)
    back = parse(ode).xreplace({W: om})
    if zero_verdict(fac) != "nonzero":
        return "factor-not-nonzero"
    return zero_verdict(residual - fac * back)


def solution_verdict(F, sol: str) -> str:
    s = parse(sol)
    Fj = _to_jets(F)
    subs = {u: s, sp.Symbol("u_x"): sp.diff(s, X),
            sp.Symbol("u_xx"): sp.diff(s, X, 2)}
    return zero_verdict(sp.diff(s, T) - Fj.xreplace(subs))


def same_expression(a: str, b) -> bool:
    return zero_verdict(parse(a) - b) == "zero"


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def witness_realizes_a35(fields: Sequence, rows: Sequence[Sequence[str]],
                         a: str) -> bool:
    """e'_i = sum_j rows[i][j] X_j obey the canonical brackets of A3,5^a,
    [e1, e3] = e1, [e2, e3] = a*e2, [e1, e2] = 0 (Patera & Winternitz,
    J. Math. Phys. 18 (1977))."""
    T_ = [[parse(v) for v in row] for row in rows]
    e1, e2, e3 = (combination(T_[i], fields) for i in range(3))
    zero = (0, 0, 0)
    return (fields_equal(bracket(e1, e3), e1)
            and fields_equal(bracket(e2, e3),
                             combination([parse(a)], [e2]))
            and fields_equal(bracket(e1, e2), zero))


def a35_word_maps(word: str, a: str, rows: Sequence[Sequence[str]],
                  v: Sequence, w: Sequence, tol: float = 1e-9) -> bool:
    """The adjoint word ``exp(t*ad ek) . ...``, applied from the left, maps
    the line of v onto the line of w to within tol.  v and w are given in
    the fields' basis X, and e'_i = sum_j rows[i][j] X_j is a canonical
    basis of A3,5^a (check it with witness_realizes_a35), in which
    ad e1, ad e2 and ad e3 follow from the canonical brackets."""
    A = parse(a)
    ad = [sp.Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
          sp.Matrix([[0, 0, 0], [0, 0, A], [0, 0, 0]]),
          sp.Matrix([[-1, 0, 0], [0, -A, 0], [0, 0, 0]])]
    to_canonical = sp.Matrix([[parse(t) for t in row] for row in rows]).T.inv()
    x = to_canonical * sp.Matrix([parse(str(t)) for t in v])
    y = to_canonical * sp.Matrix([parse(str(t)) for t in w])
    for letter in word.split(" . "):
        m = re.fullmatch(r"exp\((.+)\*ad e([123])\)", letter)
        if m is None:
            return False
        x = (parse(m.group(1)) * ad[int(m.group(2)) - 1]).exp() * x
    xf = [float(t) for t in x]
    yf = [float(t) for t in y]
    nx = sum(t * t for t in xf) ** 0.5
    ny = sum(t * t for t in yf) ** 0.5
    if not nx or not ny:
        return False
    return min(sum((p / nx - q / ny) ** 2 for p, q in zip(xf, yf)),
               sum((p / nx + q / ny) ** 2 for p, q in zip(xf, yf))) \
        ** 0.5 <= tol
