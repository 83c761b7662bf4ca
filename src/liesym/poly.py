"""Sparse polynomials over the kernel's canonical atoms.

A :class:`Poly` is a dict from exponent tuple to rational coefficient over
a tuple of generators, and a generator is a canonical atom of
:mod:`liesym.expr`:

* a power of a symbol or of a sum whose exponent is q0 + q1*tau1 + ... +
  qk*tauk (rational q's, tau's the non-rational terms of the canonical
  exponent) is the exponent q0 on the symbol or sum and qi on the
  generator base^taui, so u^(m-1)*u and u^m meet in one monomial, as the
  kernel merges them, and so do (1+u)^(1/2)*(1+u)^(-1/2) and 1;
* every other atom (a ``Func``, an ``exp(l)``, a numeric radical) is a
  generator of its own.

:func:`to_poly` stores exponents and coefficients as ints where integral
and Fractions otherwise; arithmetic may leave an integral Fraction, which
equals and hashes as its int.  A zero coefficient is never stored.
:func:`from_poly` rebuilds through the kernel's ``add`` and ``mul``, so the
Expr of a polynomial is the kernel's canonical form, whatever merges (of
radicals, or a positive integer power of a sum that it expands) the dict
leaves to the kernel.  Terms in powers of one sum that are equal only once
the sum is expanded, such as (1+u)^(1/2) and (1+u)*(1+u)^(-1/2), are
brought together by :func:`merge_sums`.  The arithmetic here consults the
kernel only for what a dict cannot see: the derivative of a generator that
is no symbol, and a substitution into such a generator or into a power
that is no nonnegative integer.  Expanding a power of a sum counts against
``MAX_EXPANSION_TERMS`` and a product's coefficients against
``MAX_POWER_BITS``, as in the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add as _plus
from typing import Dict, List, Sequence, Tuple

from .expr import (
    EULER, MAX_POWER_BITS, Add, Expr, Mul, Pow, Rat, Rational,
    ResourceLimitError, Sym, check_expansion, free_symbols, powx,
    split_terms,
)
from . import expr as _expr

Terms = Dict[tuple, Rational]

_F1 = Fraction(1)


class Poly:
    """Exponent tuple -> nonzero rational coefficient, over ``gens``."""

    __slots__ = ("gens", "coeffs")

    def __init__(self, gens: Tuple[Expr, ...], coeffs: Terms):
        self.gens = gens
        self.coeffs = coeffs


def _q(v: Rational) -> Rational:
    """v as an int when it is integral."""
    return v if type(v) is int else (
        v.numerator if v.denominator == 1 else v)


def _powers(f: Expr):
    """The (generator, exponent) pairs of one canonical factor."""
    if type(f) is Pow and (type(f.base) is Add or type(f.base) is Sym
                           and f.base.name != EULER.name):
        base = f.base
        return [(Pow(base, kept[0] if len(kept) == 1 else Mul(_F1, kept))
                 if kept else base, _q(c))
                for c, kept, _ in split_terms(f.exponent, _expr._keep_all)]
    return ((f, 1),)


def _rows(e: Expr, index: Dict[Expr, int]) -> list:
    """The terms of e as (coefficient, [(generator index, exponent)]),
    adding the generators that the ordered ``index`` lacks."""
    return [(_q(c), [(index.setdefault(g, len(index)), q)
                     for f in factors for g, q in _powers(f)])
            for c, factors, _ in split_terms(e, _expr._keep_all)]


def _dense(rows: list, n: int) -> Terms:
    terms: Terms = {}
    for c, pairs in rows:
        k = [0] * n
        for i, q in pairs:
            k[i] = q  # a canonical term holds each generator once
        # distinct canonical terms have distinct exponent tuples
        terms[tuple(k)] = c
    return terms


def _gens(gens: Tuple[Expr, ...], index: Dict[Expr, int]
          ) -> Tuple[Expr, ...]:
    """The generators of ``index``: ``gens`` itself when ``index`` added
    none to it, so that polynomials over one tuple share it."""
    return gens if len(index) <= len(gens) else tuple(index)


def to_poly(e: Expr, gens: Tuple[Expr, ...] = ()) -> Poly:
    """e over ``gens`` followed by the generators that e adds, in order of
    first occurrence."""
    index = {g: i for i, g in enumerate(gens)}
    rows = _rows(e, index)
    return Poly(_gens(gens, index), _dense(rows, len(index)))


def from_poly(p: Poly) -> Expr:
    """The kernel's canonical form of p."""
    gens = p.gens
    return _expr.add(*[
        _expr.mul(c, *[powx(g, q) for g, q in zip(gens, k) if q])
        for k, c in p.coeffs.items()])


def _pad(terms: Terms, extra: int) -> Terms:
    z = (0,) * extra
    return {k + z: c for k, c in terms.items()}


def _align(ps: Sequence[Poly]) -> Tuple[Tuple[Expr, ...], List[Terms]]:
    """One generator tuple for all of ``ps`` and their terms over it.  When
    every tuple is a prefix of the longest, that one is kept and the others
    are padded with zero exponents."""
    gens = ps[0].gens
    if all(p.gens is gens for p in ps):
        return gens, [p.coeffs for p in ps]
    gens = max((p.gens for p in ps), key=len)
    n = len(gens)
    if all(p.gens is gens or p.gens == gens[:len(p.gens)] for p in ps):
        return gens, [p.coeffs if len(p.gens) == n
                      else _pad(p.coeffs, n - len(p.gens)) for p in ps]
    index: Dict[Expr, int] = {}
    places = [[index.setdefault(g, len(index)) for g in p.gens] for p in ps]
    n = len(index)
    terms = []
    for p, place in zip(ps, places):
        moved = {}
        for k, c in p.coeffs.items():
            new = [0] * n
            for j, q in zip(place, k):
                new[j] = q
            moved[tuple(new)] = c
        terms.append(moved)
    return tuple(index), terms


def align(*ps: Poly) -> Tuple[Poly, ...]:
    """``ps`` over one tuple of generators."""
    gens, terms = _align(ps)
    return tuple(Poly(gens, t) for t in terms)


def mark(ps: Sequence[Poly], marker: Expr) -> Poly:
    """The sum of ps[i]*marker^i over the generators of ``ps``, aligned,
    then ``marker``, which none of ``ps`` may hold."""
    gens, terms = _align(ps)
    return Poly(gens + (marker,), {
        k + (i,): c for i, t in enumerate(terms) for k, c in t.items()})


def _nonzero(terms: Terms) -> Terms:
    if 0 in terms.values():
        return {k: c for k, c in terms.items() if c}
    return terms


def add(*ps: Poly) -> Poly:
    gens, ts = _align(ps)
    out = dict(ts[0])
    get = out.get
    for t in ts[1:]:
        for k, c in t.items():
            v = get(k)
            out[k] = c if v is None else v + c
    return Poly(gens, _nonzero(out))


def scale(p: Poly, c: Rational) -> Poly:
    if not c:
        return Poly(p.gens, {})
    return Poly(p.gens, {k: v * c for k, v in p.coeffs.items()})


def _size(c: Rational) -> int:
    if type(c) is int:
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _mul_terms(a: Terms, b: Terms) -> Terms:
    # a product of two coefficients has at most the sum of their sizes
    if (max(map(_size, a.values()), default=0)
            + max(map(_size, b.values()), default=0) > MAX_POWER_BITS):
        for ca in a.values():
            for cb in b.values():
                if _size(ca * cb) > MAX_POWER_BITS:
                    raise ResourceLimitError(
                        "a product's coefficient passes the limit of "
                        f"{MAX_POWER_BITS} bits")
    out: Terms = {}
    get = out.get
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = tuple(map(_plus, ka, kb))
            v = get(k)
            out[k] = ca * cb if v is None else v + ca * cb
    return _nonzero(out)


def mul(*ps: Poly) -> Poly:
    gens, ts = _align(ps)
    out = ts[0]
    for t in ts[1:]:
        out = _mul_terms(out, t)
    return Poly(gens, out)


def _power(p: Poly, k: int) -> Poly:
    """p^k for an integer k >= 0, expanded."""
    if k >= 2 and len(p.coeffs) >= 2:
        check_expansion(len(p.coeffs), k)
    return mul(Poly(p.gens, {(0,) * len(p.gens): 1}), *[p] * k)


def _used(p: Poly):
    """Per generator, whether some term has a nonzero exponent on it."""
    return map(any, zip(*p.coeffs)) if p.coeffs else (False for _ in p.gens)


def symbols(p: Poly) -> set:
    """The free symbols of p: those of the generators that occur."""
    out: set = set()
    for g, used in zip(p.gens, _used(p)):
        if used:
            if type(g) is Sym and g.name != EULER.name:
                out.add(g.name)
            else:
                out |= free_symbols(g)
    return out


def derive(p: Poly, images: Dict[str, Expr]) -> Poly:
    """The derivation that sends each symbol to its image in ``images`` (0
    when absent), on p: D(c*g1^e1*...*gn^en) is the sum of
    c*ei*gi^(ei-1)*D(gi)*(the other factors).  The image of a symbol
    generator is read off ``images``, that of any other generator is the
    kernel's :func:`expr.derive`, each formed once per call and only for
    generators that occur."""
    index: Dict[Expr, int] = {}
    # per generator with a nonzero image: (its index, the index of the one
    # generator of a monomial image or -1 for a constant one, the image's
    # coefficient, None) or (its index, 0, 0, the image's terms)
    found = []
    for i, used in enumerate(_used(p)):
        if not used:
            continue
        g = p.gens[i]
        img = (images.get(g.name) if type(g) is Sym
               else _expr.derive(g, images))
        if img is None:
            continue
        if type(img) is Rat:
            if img.value:
                found.append((i, -1, _q(img.value), None))
            continue
        if not index:
            index.update((h, j) for j, h in enumerate(p.gens))
        if type(img) is Sym:
            found.append((i, index.setdefault(img, len(index)), 1, None))
        else:
            found.append((i, 0, 0, _rows(img, index)))
    gens = _gens(p.gens, index)
    n = len(gens)
    terms = p.coeffs if gens is p.gens else _pad(p.coeffs, n - len(p.gens))
    found = [(i, j, a, rows if rows is None else _dense(rows, n).items())
             for i, j, a, rows in found]
    out: Terms = {}
    get = out.get
    for k, c in terms.items():
        for i, j, a, img in found:
            q = k[i]
            if not q:
                continue
            base = list(k)
            base[i] = q - 1
            if img is None:
                if j >= 0:
                    base[j] += 1
                kk = tuple(base)
                v = get(kk)
                out[kk] = c * q * a if v is None else v + c * q * a
                continue
            cq = c * q
            for ki, ci in img:
                kk = tuple(map(_plus, base, ki))
                v = get(kk)
                out[kk] = cq * ci if v is None else v + cq * ci
    return Poly(gens, _nonzero(out))


def substitute(p: Poly, bindings: Dict[str, Poly]) -> Poly:
    """Simultaneous substitution of symbols by polynomials.  The factors of
    a term that mention a bound symbol are replaced together: bound symbols
    to nonnegative integer powers by the expanded product of powers of
    their bindings, any other such product (a power that is no nonnegative
    integer, a power s^tau, an atom) by the kernel's substitution into its
    canonical form."""
    hits = [i for i, (g, used) in enumerate(zip(p.gens, _used(p)))
            if used and (g.name in bindings if type(g) is Sym
                         else free_symbols(g) & bindings.keys())]
    if not hits:
        return p
    gens = tuple(p.gens[i] for i in hits)
    # the terms grouped by their exponents on ``gens``, with those set to 0
    groups: Dict[tuple, Terms] = {}
    for k, c in p.coeffs.items():
        rest = list(k)
        for i in hits:
            rest[i] = 0
        groups.setdefault(tuple(_q(k[i]) for i in hits), {})[
            tuple(rest)] = c
    exprs: Dict[str, Expr] = {}
    parts = []
    for key, rest in groups.items():
        if all(type(g) is Sym and type(q) is int and q >= 0
               for g, q in zip(gens, key)):
            factors = [_power(bindings[g.name], q)
                       for g, q in zip(gens, key) if q]
        else:
            if not exprs:
                exprs.update((n, from_poly(b)) for n, b in bindings.items())
            factors = [to_poly(_expr.substitute(
                from_poly(Poly(gens, {key: 1})), exprs))]
        parts.append(mul(Poly(p.gens, rest), *factors))
    return add(*parts)


def merge_sums(p: Poly) -> Poly:
    """p with the powers of each sum S among its generators brought
    together: a positive integer power of S is expanded, and the terms
    whose exponent on S is fractional or a negative integer are written,
    per class of exponents modulo 1, at the least exponent of their class
    times the expanded integer power of S that makes up the rest.  So for
    S = 1 + u the terms S^(1/2) and -S^(-1/2) - u*S^(-1/2) cancel.  Terms
    free of S are left as they are: S^(-1) is a denominator, which this
    layer does not clear."""
    i = 0
    while i < len(p.gens):
        if type(p.gens[i]) is Add:
            p = _merge_sum(p, i)
        i += 1
    return p


def _merge_sum(p: Poly, i: int) -> Poly:
    # per class modulo 1 of the exponents on S that stay: the least one
    lows: Dict[Rational, Rational] = {}
    for k in p.coeffs:
        e = k[i]
        if e < 0 or e % 1:
            r = e % 1
            if r not in lows or e < lows[r]:
                lows[r] = e
    # the terms at their class's least exponent, by the power of S left
    groups: Dict[int, Terms] = {}
    for k, c in p.coeffs.items():
        e = k[i]
        low = lows[e % 1] if e < 0 or e % 1 else 0
        if low != e:
            k = k[:i] + (low,) + k[i + 1:]
        groups.setdefault(int(e - low), {})[k] = c
    if groups.keys() <= {0}:
        return p
    s = to_poly(p.gens[i], p.gens)
    return add(*[mul(Poly(p.gens, t), _power(s, n)) if n
                 else Poly(p.gens, t) for n, t in groups.items()])
