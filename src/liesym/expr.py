"""Exact symbolic expression kernel.

Expressions are immutable trees over exact rational constants, named symbols,
sums, products, powers and opaque unary functions.  Every constructor returns
a *canonical* form:

* sums and products are flattened and sorted under a fixed total order,
  like terms and like bases are merged,
* power rules ``b^x * b^y -> b^(x+y)`` and ``(b^x)^y -> b^(x*y)`` are applied,
  also for symbolic exponents,
* products distribute over sums and literal positive-integer powers of sums
  are expanded, so polynomial identities cancel to the literal zero,
* positive rational bases are split into prime powers and the integer part of
  a literal prime exponent is folded out (``4^(1/2)`` collapses to ``2``,
  ``6^m`` becomes ``2^m*3^m``, ``2^(m+3/2)`` becomes ``2*2^(m+1/2)``),
* ``exp`` is represented as a power of the reserved base ``%e`` so that
  ``exp(a)*exp(b)`` merges by exponent addition; ``log`` expands over
  products, powers and positive rationals and ``exp(c*log(b))`` collapses
  to ``b^c``.

Power-of-product and power-of-sum rules assume positive bases, which is the
regime of the power nonlinearities this kernel exists for.  The canonical
form of zero is the literal rational ``0`` and canonicalization is
idempotent; the test suite checks both bit for bit.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

Rational = Union[int, Fraction]

# shared rational constants: the kernel never mutates a Fraction
_F0 = Fraction(0)
_F1 = Fraction(1)


class ExprError(Exception):
    """Base class for kernel errors."""


class UndeclaredSymbolError(ExprError):
    pass


class NonRationalValue(ExprError):
    """Exact evaluation left the rationals (irrational power atom)."""


class ResourceLimitError(ExprError):
    """A canonical form would exceed a fixed size limit, so the question
    stays undecided rather than running without bound."""


class LogOfZeroError(ExprError, ZeroDivisionError):
    """The log of the rational 0.  Like 0 to a negative power, it is a pole:
    handlers of a division by zero catch it, and anywhere else it is an
    input outside the domain."""


class Expr:
    """Base class of all canonical expression nodes."""

    __slots__ = ("_hash", "_key")

    # -- arithmetic sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, mul(MINUS_ONE, _coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), mul(MINUS_ONE, self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return mul(self, powx(_coerce(other), MINUS_ONE))

    def __rtruediv__(self, other):
        return mul(_coerce(other), powx(self, MINUS_ONE))

    def __pow__(self, other):
        return powx(self, _coerce(other))

    def __neg__(self):
        return mul(MINUS_ONE, self)

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self.key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        from .dsl import render

        return render(self)

    def key(self) -> tuple:
        """Total-order sort key; two nodes are equal iff their keys are."""
        k = getattr(self, "_key", None)
        if k is None:
            k = self._make_key()
            object.__setattr__(self, "_key", k)
        return k

    def _make_key(self) -> tuple:
        raise NotImplementedError

    @property
    def is_zero_literal(self) -> bool:
        return isinstance(self, Rat) and self.value == 0

    @property
    def is_one_literal(self) -> bool:
        return isinstance(self, Rat) and self.value == 1


class Rat(Expr):
    """Exact rational constant."""

    __slots__ = ("value",)

    def __init__(self, value: Rational):
        object.__setattr__(self, "value", value if type(value) is Fraction
                           else Fraction(value))

    def _make_key(self):
        return (0, self.value.numerator, self.value.denominator)


class Sym(Expr):
    """Named symbol: variable, jet coordinate or parameter."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def _make_key(self):
        return (1, self.name)


class Func(Expr):
    """Opaque unary function with a derivative-order tag, e.g. phi''(w).

    ``order`` counts derivative primes.  The name ``log`` is reserved for the
    natural logarithm and gets special differentiation and canonicalization.
    """

    __slots__ = ("name", "order", "arg")

    def __init__(self, name: str, order: int, arg: Expr):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "arg", arg)

    def _make_key(self):
        return (2, self.name, self.order, self.arg.key())


class Pow(Expr):
    """Atomic power; built only through :func:`powx`."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Expr):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def _make_key(self):
        return (3, self.base.key(), self.exponent.key())


class Mul(Expr):
    """Canonical product: rational coefficient times sorted factors with
    pairwise distinct bases.  Factors are Sym, Func or Pow nodes."""

    __slots__ = ("coeff", "factors")

    def __init__(self, coeff: Fraction, factors: Tuple[Expr, ...]):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "factors", factors)

    def _make_key(self):
        return (4, tuple(f.key() for f in self.factors),
                self.coeff.numerator, self.coeff.denominator)


class Add(Expr):
    """Canonical sum: at least two terms with pairwise distinct monomials,
    sorted, at most one rational constant term."""

    __slots__ = ("terms",)

    def __init__(self, terms: Tuple[Expr, ...]):
        object.__setattr__(self, "terms", terms)

    def _make_key(self):
        return (5, tuple(t.key() for t in self.terms))


ZERO = Rat(0)
ONE = Rat(1)
MINUS_ONE = Rat(-1)
TWO = Rat(2)

#: Reserved base symbol for the exponential; rendered as exp(...).
EULER = Sym("%e")


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Rat(x)
    raise TypeError(f"cannot coerce {x!r} into Expr")


def rat(value: Rational) -> Expr:
    return Rat(value)


def sym(name: str) -> Expr:
    return Sym(name)


def func(name: str, arg, order: int = 0) -> Expr:
    """Opaque function application; ``log`` is canonicalized on the spot."""
    arg = _coerce(arg)
    if name == "log" and order == 0:
        return _log(arg)
    return Func(name, order, arg)


def exp(e) -> Expr:
    return powx(EULER, _coerce(e))


def log(e) -> Expr:
    return func("log", e)


def _log(a: Expr) -> Expr:
    """Canonical natural log, expanding over products, powers and positive
    rationals (positivity of factors is assumed, as everywhere here).  The
    log of the rational 0 raises LogOfZeroError."""
    if a == EULER:
        return ONE
    if isinstance(a, Rat):
        q = a.value
        if q == 1:
            return ZERO
        if q == 0:
            raise LogOfZeroError("log of zero")
        if q > 0:
            terms = []
            for p, k in _factorize(q.numerator):
                terms.append(mul(Rat(k), Func("log", 0, Rat(p))))
            for p, k in _factorize(q.denominator):
                terms.append(mul(Rat(-k), Func("log", 0, Rat(p))))
            return add(*terms)
        return Func("log", 0, a)
    if isinstance(a, Pow):
        return mul(a.exponent, _log(a.base))
    if isinstance(a, Mul):
        parts = [_log(Rat(a.coeff))] if a.coeff != 1 else []
        parts += [_log(f) for f in a.factors]
        return add(*parts)
    if isinstance(a, Add):
        content = _add_content(a)
        if content > 0 and content != 1:
            return add(_log(Rat(content)),
                       Func("log", 0, _scale_add(a, 1 / content)))
    return Func("log", 0, a)


#: trial division in _factorize stops past this divisor: a cofactor left
#: below its square is prime, a larger one is refused.  The tier-1 tests,
#: the golden reports and the benchmark workloads reach divisor 93.
FACTOR_LIMIT = 10 ** 5


def _factorize(n: int) -> Iterator[Tuple[int, int]]:
    """Prime factorization of a positive integer by trial division up to
    FACTOR_LIMIT.  A cofactor that may be composite raises
    ResourceLimitError; it is never kept as an opaque base, whose log
    stand-in could certify a false nonzero."""
    assert n > 0
    d = 2
    while d * d <= n:
        if d > FACTOR_LIMIT:
            raise ResourceLimitError(
                f"a {n.bit_length()}-bit cofactor has no prime factor up to "
                f"{FACTOR_LIMIT}, so it cannot be factored exactly")
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            yield d, k
        d += 1 if d == 2 else 2
    if n > 1:
        yield n, 1


def split_terms(e: Expr, keep: Callable[[Expr], bool]
                ) -> List[Tuple[Fraction, Tuple[Expr, ...], Tuple[Expr, ...]]]:
    """Each term of the canonical sum ``e`` (``e`` itself when it is no
    sum) as (rational coefficient, the factors that satisfy ``keep``, the
    other factors), both in canonical order.  Factors are Sym, Func and Pow
    atoms; a rational term has none, and the literal zero has no terms."""
    out = []
    for t in (e.terms if isinstance(e, Add) else (e,)):
        if isinstance(t, Rat):
            if t.value:
                out.append((t.value, (), ()))
            continue
        kept: List[Expr] = []
        other: List[Expr] = []
        for f in (t.factors if isinstance(t, Mul) else (t,)):
            (kept if keep(f) else other).append(f)
        out.append((t.coeff if isinstance(t, Mul) else _F1, tuple(kept),
                    tuple(other)))
    return out


def _keep_all(f: Expr) -> bool:
    return True


def add(*xs) -> Expr:
    """Canonical sum of the arguments.  A term whose monomial occurs once
    is kept as it is; only merged terms are rebuilt."""
    # monomial key -> [term (None once merged), coefficient, factors]
    acc: Dict[tuple, list] = {}
    consts: List[Rat] = []
    for x in xs:
        x = _coerce(x)
        for t in (x.terms if isinstance(x, Add) else (x,)):
            if isinstance(t, Rat):
                consts.append(t)
                continue
            if isinstance(t, Mul):
                c, fs = t.coeff, t.factors
                k = fs[0].key() if len(fs) == 1 else (4, t.key()[1])
            else:
                c, fs = _F1, (t,)
                k = t.key()
            entry = acc.get(k)
            if entry is None:
                acc[k] = [t, c, fs]
            else:
                entry[0] = None
                entry[1] += c
    out = []
    for t, c, fs in acc.values():
        if t is not None:
            out.append(t)
        elif c == 1 and len(fs) == 1:
            out.append(fs[0])
        elif c:
            out.append(Mul(c, fs))
    if consts:
        r = (consts[0] if len(consts) == 1
             else Rat(sum([q.value for q in consts], _F0)))
        if r.value:
            out.append(r)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=Expr.key)
    return Add(tuple(out))


def _base_exp(f: Expr) -> Tuple[Expr, Expr]:
    if isinstance(f, Pow):
        return f.base, f.exponent
    return f, ONE


def _add_content(a: Add) -> Fraction:
    """Rational coefficient of the leading term (canonical order)."""
    return split_terms(a.terms[0], _keep_all)[0][0]


def _scale_add(a: Add, k: Fraction) -> Expr:
    """k*a computed term by term (no re-entry into mul)."""
    return add(*[_build_mul(c * k, fs)
                 for c, fs, _ in split_terms(a, _keep_all)])


_MAX_MUL_ROUNDS = 64


def mul(*xs) -> Expr:
    """Canonical product of the arguments.  The rational coefficient is
    carried as an integer numerator and denominator and reduced once, when
    the product is built; one whose numerator or denominator passes
    MAX_POWER_BITS raises ResourceLimitError.  A factor that arrives as a
    canonical atom and whose base occurs once is kept as it is, so a
    product of atoms with pairwise distinct bases and no sum is built in
    one pass; only merged bases go through :func:`powx`."""
    num = den = 1
    # base.key() -> [base, [exponent, ...], the atom when it came as one]
    pend: Dict[tuple, List] = {}
    sums: List[Add] = []

    def absorb(e: Expr):
        nonlocal num, den
        if isinstance(e, Rat):
            num *= e.value.numerator
            den *= e.value.denominator
            return
        if isinstance(e, Mul):
            num *= e.coeff.numerator
            den *= e.coeff.denominator
            for f in e.factors:
                absorb(f)
            return
        atom = e
        if isinstance(e, Add):
            atom = None
            # factor sums by their rational content so scalar multiples of
            # the same sum share one power base
            c = _add_content(e)
            if c != 1:
                num *= c.numerator
                den *= c.denominator
                e = _scale_add(e, 1 / c)
        b, ex = _base_exp(e)
        entry = pend.get(b.key())
        if entry is None:
            pend[b.key()] = [b, [ex], atom]
        else:
            entry[1].append(ex)

    for x in xs:
        absorb(_coerce(x))

    # Fixpoint: normalize each (base, summed exponent), re-absorbing any
    # rewrites (folds of a prime's integer part, merges) until the factor
    # set is stable.  A power of a base is a rational, a sum or a product
    # of powers of that same base (a prime stays one prime, %e has no log
    # term left to pull out), so a finished base never comes back.
    atoms: List[Expr] = []
    rounds = 0
    while pend:
        rounds += 1
        if rounds > _MAX_MUL_ROUNDS:
            raise ExprError("product canonicalization did not stabilize")
        if num == 0:
            return ZERO
        work = list(pend.values())
        pend.clear()
        for b, exps, atom in work:
            if atom is not None and len(exps) == 1:
                atoms.append(atom)
                continue
            e = exps[0] if len(exps) == 1 else add(*exps)
            p = powx(b, e)
            if isinstance(p, Add):
                sums.append(p)
            elif isinstance(p, (Rat, Mul)):
                absorb(p)
            else:
                atoms.append(p)
    if num == 0:
        return ZERO

    coeff = Fraction(num, den)
    if max(coeff.numerator.bit_length(),
           coeff.denominator.bit_length()) > MAX_POWER_BITS:
        raise ResourceLimitError(
            f"a product's coefficient passes the limit of {MAX_POWER_BITS} "
            "bits")
    head = _build_mul(coeff, atoms)
    if sums:
        out = []
        for combo in itertools.product(*[s.terms for s in sums]):
            out.append(mul(head, *combo))
        return add(*out)
    return head


def _build_mul(coeff: Fraction, atoms: Sequence[Expr]) -> Expr:
    if coeff == 0:
        return ZERO
    if not atoms:
        return Rat(coeff)
    atoms = sorted(atoms, key=Expr.key)
    if coeff == 1 and len(atoms) == 1:
        return atoms[0]
    return Mul(coeff, tuple(atoms))


def _int_nth_root(n: int, k: int) -> Optional[int]:
    """Exact k-th root of a nonnegative integer, or None.  Integer
    arithmetic only, so no size of n overflows or loses the root.  For
    n > 1 and k >= n.bit_length(), 1 < n^(1/k) < 2, so the answer is None
    before the first Newton step, which would build 2^(k-1)."""
    if n < 0:
        return None
    if n in (0, 1):
        return n
    if k >= n.bit_length():
        return None
    if k == 2:
        r = math.isqrt(n)
    else:
        # Newton from above converges to floor(n^(1/k))
        r = 1 << -(-n.bit_length() // k)
        while True:
            s = ((k - 1) * r + n // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    return r if r ** k == n else None


def _rat_root(q: Fraction, k: int) -> Optional[Fraction]:
    """Exact k-th root of a nonnegative rational, or None."""
    rn = _int_nth_root(q.numerator, k)
    rd = _int_nth_root(q.denominator, k)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


#: most bits the numerator or denominator of an exact integer power of a
#: rational may reach, measured as |n| * bits(q) for q^n, and of a
#: product's coefficient.  Outside the fuzzers the tier-1 tests reach 1600
#: and the benchmark workloads 602 in powers, 26 and 12 in coefficients.
#: It stays below the 4300-digit (about 14,000-bit) limit on int-to-str
#: conversion, so a bounded power or product still renders.
MAX_POWER_BITS = 8192


def _int_pow(q: Fraction, n: int) -> Fraction:
    """q^n for an integer n.  |q^n| < 2^(|n| * bits) for the longer of q's
    numerator and denominator, so a power that could pass MAX_POWER_BITS
    raises ResourceLimitError before it is computed."""
    bits = max(q.numerator.bit_length(), q.denominator.bit_length())
    if bits > 1 and abs(n) * bits > MAX_POWER_BITS:
        raise ResourceLimitError(
            f"a power of a {bits}-bit rational to a {abs(n).bit_length()}-bit "
            f"exponent could pass the limit of {MAX_POWER_BITS} bits")
    return q ** n


def _rat_pow(q: Fraction, e: Fraction) -> Expr:
    """q^e for literal rationals, exact where possible."""
    if q == 0:
        if e > 0:
            return ZERO
        if e == 0:
            return ONE
        raise ZeroDivisionError("0 raised to a negative power")
    if e.denominator == 1:
        return Rat(_int_pow(q, e.numerator))
    if q < 0:
        return Pow(Rat(q), Rat(e))
    root = _rat_root(q, e.denominator)
    if root is not None:
        return Rat(_int_pow(root, e.numerator))
    parts = [_prime_pow(p, Rat(k * e)) for p, k in _factorize(q.numerator)]
    parts += [_prime_pow(p, Rat(-k * e)) for p, k in _factorize(q.denominator)]
    return _combine_prime_parts(parts)


def _prime_pow(p: int, e: Expr) -> Expr:
    """p^e for a prime p with the integer part of the literal-rational part
    of the exponent folded out, so atom exponents have constant part in
    [0, 1).  This keeps merged products confluent."""
    if isinstance(e, Rat):
        const, rest = e.value, ZERO
    elif isinstance(e, Add):
        const = _F0
        parts = []
        for t in e.terms:
            if isinstance(t, Rat):
                const += t.value
            else:
                parts.append(t)
        rest = add(*parts)
    else:
        const, rest = _F0, e
    n = const.numerator // const.denominator
    frac = const - n
    atom_exp = add(Rat(frac), rest)
    lead = _int_pow(Fraction(p), n)
    if atom_exp.is_zero_literal:
        return Rat(lead)
    atom = Pow(Rat(p), atom_exp)
    if lead == 1:
        return atom
    # build directly: the atom is already canonical, re-entering mul would
    # re-normalize this very power
    return Mul(lead, (atom,))


def _combine_prime_parts(parts: Sequence[Expr]) -> Expr:
    """Direct product of prime-power parts (distinct bases, canonical)."""
    coeff = _F1
    atoms: List[Expr] = []
    for r in parts:
        if isinstance(r, Rat):
            coeff *= r.value
        elif isinstance(r, Mul):
            coeff *= r.coeff
            atoms.extend(r.factors)
        else:
            atoms.append(r)
    return _build_mul(coeff, atoms)


#: most terms an integer power of a sum may expand to: an n-term sum to the
#: power k has up to C(n+k-1, k) of them
MAX_EXPANSION_TERMS = 100


def check_expansion(n: int, k: int):
    """Raise ResourceLimitError when an n-term sum to the power k could
    expand past MAX_EXPANSION_TERMS."""
    count = math.comb(n + k - 1, k)
    if count > MAX_EXPANSION_TERMS:
        raise ResourceLimitError(
            f"expanding a {n}-term sum to the power {k} could give "
            f"{count} terms, over the limit of {MAX_EXPANSION_TERMS}")


def powx(base, exponent) -> Expr:
    """Canonical power."""
    b = _coerce(base)
    e = _coerce(exponent)
    if e.is_zero_literal:
        return ONE
    if e.is_one_literal:
        return b
    if isinstance(b, Rat):
        if b.value == 1:
            return ONE
        if isinstance(e, Rat):
            return _rat_pow(b.value, e.value)
        if b.value == 0 or b.value < 0:
            return Pow(b, e)
        parts = [_prime_pow(p, mul(Rat(k), e))
                 for p, k in _factorize(b.value.numerator)]
        parts += [_prime_pow(p, mul(Rat(-k), e))
                  for p, k in _factorize(b.value.denominator)]
        return _combine_prime_parts(parts)
    if isinstance(b, Pow):
        return powx(b.base, mul(b.exponent, e))
    if isinstance(b, Mul):
        parts = [powx(Rat(b.coeff), e)] if b.coeff != 1 else []
        parts += [powx(f, e) for f in b.factors]
        return mul(*parts)
    if isinstance(b, Add):
        content = _add_content(b)
        if content != 1:
            nb = _scale_add(b, 1 / content)
            return mul(powx(Rat(content), e), powx(nb, e))
        if isinstance(e, Rat) and e.value.denominator == 1 and e.value > 1:
            k = int(e.value)
            check_expansion(len(b.terms), k)
            out: Expr = b
            for _ in range(k - 1):
                out = _expand_product(out, b)
            return out
        return Pow(b, e)
    if b == EULER:
        return _exp_of(e)
    return Pow(b, e)


def _expand_product(x: Expr, y: Expr) -> Expr:
    """Distribute a product of sums term by term (terms are never sums, so
    this cannot re-enter the whole-sum power path)."""
    xt = x.terms if isinstance(x, Add) else (x,)
    yt = y.terms if isinstance(y, Add) else (y,)
    return add(*[mul(a, b) for a in xt for b in yt])


def _is_log(f: Expr) -> bool:
    return isinstance(f, Func) and f.name == "log" and f.order == 0


def _exp_of(e: Expr) -> Expr:
    """%e^e with c*log(b) exponent terms pulled out as b^c factors."""
    plain = []
    pulled = []
    for c, logs, rest in split_terms(e, _is_log):
        if len(logs) == 1:
            pulled.append(powx(logs[0].arg, _build_mul(c, rest)))
        else:
            plain.append(_build_mul(c, logs + rest))
    rest_exp = add(*plain)
    if rest_exp.is_zero_literal:
        core: Expr = ONE
    else:
        core = Pow(EULER, rest_exp)
    if not pulled:
        return core
    return mul(core, *pulled)


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def derive(e, images: Dict[str, Expr]) -> Expr:
    """The derivation that sends each symbol to its image in ``images`` (0
    when absent), extended to every node by the chain rule in one walk:
    D(a + b) = Da + Db, D(a*b) = Da*b + a*Db, D(b^x) = x*b^(x-1)*Db +
    b^x*log(b)*Dx and D(f(a)) = f'(a)*Da."""
    e = _coerce(e)
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Sym):
        return images.get(e.name, ZERO)
    if isinstance(e, Add):
        return add(*[derive(t, images) for t in e.terms])
    if isinstance(e, Mul):
        parts = []
        factors = e.factors
        for i, f in enumerate(factors):
            df = derive(f, images)
            if df.is_zero_literal:
                continue
            rest = [Rat(e.coeff)] + [g for j, g in enumerate(factors) if j != i]
            parts.append(mul(df, *rest))
        return add(*parts)
    if isinstance(e, Pow):
        db = derive(e.base, images)
        de = derive(e.exponent, images)
        out = ZERO
        if not db.is_zero_literal:
            out = add(out, mul(e.exponent,
                               powx(e.base, add(e.exponent, MINUS_ONE)), db))
        if not de.is_zero_literal:
            out = add(out, mul(powx(e.base, e.exponent), _log(e.base), de))
        return out
    if isinstance(e, Func):
        da = derive(e.arg, images)
        if da.is_zero_literal:
            return ZERO
        if e.name == "log" and e.order == 0:
            return mul(da, powx(e.arg, MINUS_ONE))
        return mul(Func(e.name, e.order + 1, e.arg), da)
    raise TypeError(f"cannot differentiate {e!r}")


def differentiate(e, name: str) -> Expr:
    """Partial derivative with respect to the symbol ``name``; every other
    symbol is held constant."""
    return derive(e, {name: ONE})


def substitute(e, bindings: Dict[str, Expr]) -> Expr:
    """Simultaneous substitution of symbols, then canonicalization."""
    e = _coerce(e)
    if isinstance(e, Rat):
        return e
    if isinstance(e, Sym):
        r = bindings.get(e.name)
        return _coerce(r) if r is not None else e
    if isinstance(e, Add):
        return add(*[substitute(t, bindings) for t in e.terms])
    if isinstance(e, Mul):
        return mul(Rat(e.coeff), *[substitute(f, bindings) for f in e.factors])
    if isinstance(e, Pow):
        return powx(substitute(e.base, bindings),
                    substitute(e.exponent, bindings))
    if isinstance(e, Func):
        return func(e.name, substitute(e.arg, bindings), e.order)
    raise TypeError(f"cannot substitute into {e!r}")


def simplify(e) -> Expr:
    """Re-canonicalize; idempotent on canonical forms."""
    return substitute(_coerce(e), {})


def free_symbols(e) -> set:
    out: set = set()

    def walk(x: Expr):
        if isinstance(x, Sym):
            out.add(x.name)
        elif isinstance(x, Add):
            for t in x.terms:
                walk(t)
        elif isinstance(x, Mul):
            for f in x.factors:
                walk(f)
        elif isinstance(x, Pow):
            walk(x.base)
            walk(x.exponent)
        elif isinstance(x, Func):
            walk(x.arg)

    walk(_coerce(e))
    out.discard(EULER.name)
    return out


def contains_func(e: Expr, name: Optional[str] = None) -> bool:
    if isinstance(e, Func):
        if name is None or e.name == name:
            return True
        return contains_func(e.arg, name)
    if isinstance(e, Add):
        return any(contains_func(t, name) for t in e.terms)
    if isinstance(e, Mul):
        return any(contains_func(f, name) for f in e.factors)
    if isinstance(e, Pow):
        return contains_func(e.base, name) or contains_func(e.exponent, name)
    return False


# ---------------------------------------------------------------------------
# exact evaluation and the three-valued zero test
# ---------------------------------------------------------------------------

def _stable_fraction(tag: str, lo: int = 2, hi: int = 97) -> Fraction:
    """Deterministic pseudo-random positive fraction derived from a tag."""
    import hashlib  # only the samplers need it: kept off the import path

    h = hashlib.sha256(tag.encode()).digest()
    n = lo + int.from_bytes(h[:4], "big") % (hi - lo + 1)
    d = 1 + 2 * (int.from_bytes(h[4:6], "big") % 5)  # odd denominator
    return Fraction(n, d)


def evaluate_exact(e: Expr, assignment: Dict[str, Fraction],
                   memo: Optional[Dict] = None) -> Fraction:
    """Evaluate with exact rational arithmetic.

    Opaque functions are modelled by deterministic stand-in values memoized
    per (name, order, argument value) - the free-function model.  A power
    whose value leaves the rationals raises NonRationalValue: stand-ins for
    such atoms would fabricate nonzero values for expressions that vanish
    through power-law relations, so the sample is skipped instead.  A power
    past MAX_POWER_BITS raises ResourceLimitError, and its sample is
    skipped too."""
    if memo is None:
        memo = {}

    def _memo_value(k) -> Fraction:
        if k not in memo:
            memo[k] = _stable_fraction(repr(k))
        return memo[k]

    def ev(x: Expr) -> Fraction:
        if isinstance(x, Rat):
            return x.value
        if isinstance(x, Sym):
            if x.name == EULER.name:
                return _memo_value(("euler",))
            try:
                return assignment[x.name]
            except KeyError:
                raise UndeclaredSymbolError(f"no value for symbol {x.name}")
        if isinstance(x, Add):
            return sum((ev(t) for t in x.terms), Fraction(0))
        if isinstance(x, Mul):
            out = x.coeff
            for f in x.factors:
                out *= ev(f)
            return out
        if isinstance(x, Pow):
            vexp = ev(x.exponent)
            vbase = ev(x.base)
            if vexp.denominator == 1:
                n = vexp.numerator
                if vbase == 0 and n < 0:
                    raise ZeroDivisionError("pole in exact evaluation")
                return _int_pow(vbase, n)
            if vbase > 0:
                root = _rat_root(vbase, vexp.denominator)
                if root is not None:
                    return _int_pow(root, vexp.numerator)
            raise NonRationalValue(f"{x!r} has no exact rational value")
        if isinstance(x, Func):
            return _memo_value(("func", x.name, x.order, ev(x.arg)))
        raise TypeError(f"cannot evaluate {x!r}")

    return ev(e)


class ZeroVerdict(Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    UNDECIDED = "undecided"


#: number of independent sample points used by the randomized nonzero test
_NUM_SAMPLES = 3


def sample_assignment(names: Iterable[str], sample_index: int, seed: int = 0,
                      parameters: Optional[set] = None) -> Dict[str, Fraction]:
    """Deterministic sample point.

    Parameter-like symbols get integers in [2, 97] (avoiding the degenerate
    exponent values 0 and 1); other symbols get positive fractions with odd
    denominators."""
    import hashlib

    parameters = parameters or set()
    out = {}
    for name in sorted(names):
        tag = f"{seed}:{sample_index}:{name}"
        if name in parameters:
            h = hashlib.sha256(tag.encode()).digest()
            out[name] = Fraction(2 + int.from_bytes(h[:4], "big") % 96)
        else:
            # sixth powers keep the common fractional exponents (halves,
            # thirds) inside the rationals during evaluation
            out[name] = _stable_fraction(tag, lo=2, hi=7) ** 6
    return out


def is_zero(e, parameters: Optional[set] = None) -> ZeroVerdict:
    """Three-valued zero test.

    ZERO only for the literal canonical zero (sound by construction);
    NONZERO for a nonzero rational times powers of positive rationals,
    which is never 0, and when a deterministic exact-rational sample point
    evaluates to a nonzero rational; UNDECIDED otherwise."""
    e = _coerce(e)
    if e.is_zero_literal:
        return ZeroVerdict.ZERO
    factors = (e.factors if isinstance(e, Mul)
               else () if isinstance(e, Rat) else (e,))
    if all(isinstance(f, Pow) and isinstance(f.base, Rat) and f.base.value > 0
           for f in factors):
        return ZeroVerdict.NONZERO
    names = free_symbols(e)
    if parameters is None:
        parameters = set(names)
    for i in range(_NUM_SAMPLES):
        assignment = sample_assignment(names, i, parameters=parameters)
        try:
            v = evaluate_exact(e, assignment)
        except (ZeroDivisionError, UndeclaredSymbolError, NonRationalValue,
                ResourceLimitError):
            continue
        if v != 0:
            return ZeroVerdict.NONZERO
    return ZeroVerdict.UNDECIDED


# ---------------------------------------------------------------------------
# symbol table
# ---------------------------------------------------------------------------

class SymbolKind(Enum):
    VARIABLE = "variable"
    JET = "jet"
    PARAMETER = "parameter"
    FUNCTION = "function"


class SymbolTable:
    """Declared names with kinds; jet coordinates carry a derivative
    multi-index (orders in t and x)."""

    def __init__(self):
        self._kinds: Dict[str, SymbolKind] = {}
        self.jet_index: Dict[str, Tuple[str, Tuple[int, int]]] = {}

    def _declare(self, name: str, kind: SymbolKind):
        have = self._kinds.get(name)
        if have is not None and have is not kind:
            raise ExprError(f"symbol {name} already declared as {have.value}")
        self._kinds[name] = kind

    def variable(self, name: str) -> Expr:
        self._declare(name, SymbolKind.VARIABLE)
        return Sym(name)

    def jet(self, name: str, dependent: str,
            multi_index: Tuple[int, int]) -> Expr:
        self._declare(name, SymbolKind.JET)
        self.jet_index[name] = (dependent, multi_index)
        return Sym(name)

    def parameter(self, name: str) -> Expr:
        self._declare(name, SymbolKind.PARAMETER)
        return Sym(name)

    def function(self, name: str):
        self._declare(name, SymbolKind.FUNCTION)

    def kind(self, name: str) -> Optional[SymbolKind]:
        return self._kinds.get(name)

    def declared(self, name: str) -> bool:
        return name in self._kinds

    @property
    def parameters(self) -> set:
        return {n for n, k in self._kinds.items()
                if k is SymbolKind.PARAMETER}

    def names(self) -> Iterable[str]:
        return self._kinds.keys()

    def check(self, e: Expr) -> Expr:
        """Raise if the expression mentions an undeclared symbol."""
        for name in free_symbols(e):
            if name not in self._kinds:
                raise UndeclaredSymbolError(f"undeclared symbol: {name}")
        return e

    def copy(self) -> "SymbolTable":
        out = SymbolTable()
        out._kinds = dict(self._kinds)
        out.jet_index = dict(self.jet_index)
        return out
