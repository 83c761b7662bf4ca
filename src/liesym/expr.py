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
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

Rational = Union[int, Fraction]


class ExprError(Exception):
    """Base class for kernel errors."""


class UndeclaredSymbolError(ExprError):
    pass


class NonRationalValue(ExprError):
    """Exact evaluation left the rationals (irrational power atom)."""


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
    rationals (positivity of factors is assumed, as everywhere here)."""
    if a == EULER:
        return ONE
    if isinstance(a, Rat):
        q = a.value
        if q == 1:
            return ZERO
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
                       Func("log", 0, _scale_add(a, Fraction(1, 1) / content)))
    return Func("log", 0, a)


def _factorize(n: int) -> Iterator[Tuple[int, int]]:
    """Prime factorization of a positive integer (inputs stay small here)."""
    assert n > 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            yield d, k
        d += 1 if d == 2 else 2
    if n > 1:
        yield n, 1


def _coeff_monomial(e: Expr) -> Tuple[Fraction, Expr]:
    """Split a non-Add canonical expression into (coefficient, monomial)."""
    if isinstance(e, Rat):
        return e.value, ONE
    if isinstance(e, Mul):
        if len(e.factors) == 1:
            return e.coeff, e.factors[0]
        return e.coeff, Mul(Fraction(1), e.factors)
    return Fraction(1), e


def _term_from(coeff: Fraction, mono: Expr) -> Expr:
    if coeff == 0:
        return ZERO
    if mono == ONE:
        return Rat(coeff)
    if isinstance(mono, Mul):
        c = coeff * mono.coeff
        if c == 1 and len(mono.factors) == 1:
            return mono.factors[0]
        return Mul(c, mono.factors)
    if coeff == 1:
        return mono
    return Mul(coeff, (mono,))


def add(*xs) -> Expr:
    """Canonical sum of the arguments."""
    acc: Dict[tuple, List] = {}
    const = Fraction(0)
    for x in xs:
        x = _coerce(x)
        terms = x.terms if isinstance(x, Add) else (x,)
        for t in terms:
            c, mono = _coeff_monomial(t)
            if mono == ONE:
                const += c
                continue
            k = mono.key()
            entry = acc.get(k)
            if entry is None:
                acc[k] = [mono, c]
            else:
                entry[1] += c
    out = [_term_from(c, mono) for mono, c in acc.values() if c != 0]
    if const != 0:
        out.append(Rat(const))
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
    return _coeff_monomial(a.terms[0])[0]


def _scale_add(a: Add, k: Fraction) -> Expr:
    """k*a computed term by term (no re-entry into mul)."""
    out = []
    for t in a.terms:
        c, mono = _coeff_monomial(t)
        out.append(_term_from(c * k, mono))
    return add(*out)


_MAX_MUL_ROUNDS = 64


def mul(*xs) -> Expr:
    """Canonical product of the arguments."""
    coeff = Fraction(1)
    # base.key() -> [base, [exponent, ...]]
    pend: Dict[tuple, List] = {}
    sums: List[Add] = []

    def absorb(e: Expr):
        nonlocal coeff
        if isinstance(e, Rat):
            coeff *= e.value
            return
        if isinstance(e, Mul):
            coeff *= e.coeff
            for f in e.factors:
                absorb(f)
            return
        if isinstance(e, Add):
            # factor sums by their rational content so scalar multiples of
            # the same sum share one power base
            c = _add_content(e)
            if c != 1:
                coeff *= c
                e = _scale_add(e, Fraction(1, 1) / c)
        b, ex = _base_exp(e)
        entry = pend.get(b.key())
        if entry is None:
            pend[b.key()] = [b, [ex]]
        else:
            entry[1].append(ex)

    for x in xs:
        absorb(_coerce(x))

    # Fixpoint: normalize each (base, summed exponent), re-absorbing any
    # rewrites (prime splits, folds, merges) until the factor set is stable.
    atoms: Dict[tuple, Expr] = {}
    rounds = 0
    while pend:
        rounds += 1
        if rounds > _MAX_MUL_ROUNDS:
            raise ExprError("product canonicalization did not stabilize")
        if coeff == 0:
            return ZERO
        work = list(pend.values())
        pend.clear()
        for b, exps in work:
            k = b.key()
            if k in atoms:
                # merge with an already-finished atom and retry
                ab, ae = _base_exp(atoms.pop(k))
                exps = exps + [ae]
            e = add(*exps)
            p = powx(b, e)
            pb, pe = _base_exp(p)
            if not isinstance(p, (Rat, Mul, Add)) and pb == b and pe == e:
                atoms[k] = p
            elif isinstance(p, Add):
                sums.append(p)
            else:
                absorb(p)
    if coeff == 0:
        return ZERO

    head = _build_mul(coeff, list(atoms.values()))
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


def _rat_pow(q: Fraction, e: Fraction) -> Expr:
    """q^e for literal rationals, exact where possible."""
    if q == 0:
        if e > 0:
            return ZERO
        if e == 0:
            return ONE
        raise ZeroDivisionError("0 raised to a negative power")
    if e.denominator == 1:
        return Rat(q ** e.numerator)
    if q < 0:
        return Pow(Rat(q), Rat(e))
    root = _rat_root(q, e.denominator)
    if root is not None:
        return Rat(root ** e.numerator)
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
        const = Fraction(0)
        parts = []
        for t in e.terms:
            if isinstance(t, Rat):
                const += t.value
            else:
                parts.append(t)
        rest = add(*parts)
    else:
        const, rest = Fraction(0), e
    n = const.numerator // const.denominator
    frac = const - n
    atom_exp = add(Rat(frac), rest)
    lead = Fraction(p) ** n
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
    coeff = Fraction(1)
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
            nb = _scale_add(b, Fraction(1, 1) / content)
            return mul(powx(Rat(content), e), powx(nb, e))
        if isinstance(e, Rat) and e.value.denominator == 1 and e.value > 1:
            out: Expr = b
            for _ in range(int(e.value) - 1):
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


def _exp_of(e: Expr) -> Expr:
    """%e^e with c*log(b) exponent terms pulled out as b^c factors."""
    plain = []
    pulled = []
    terms = e.terms if isinstance(e, Add) else (e,)
    for t in terms:
        c, mono = _coeff_monomial(t)
        if isinstance(mono, Func) and mono.name == "log" and mono.order == 0:
            pulled.append(powx(mono.arg, Rat(c)))
            continue
        if isinstance(mono, Mul):
            logs = [f for f in mono.factors
                    if isinstance(f, Func) and f.name == "log" and f.order == 0]
            if len(logs) == 1:
                lf = logs[0]
                rest = _build_mul(c, [f for f in mono.factors if f is not lf])
                pulled.append(powx(lf.arg, rest))
                continue
        plain.append(t)
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

def differentiate(e, name: str) -> Expr:
    """Partial derivative with respect to the symbol ``name``; every other
    symbol is held constant."""
    e = _coerce(e)
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        return add(*[differentiate(t, name) for t in e.terms])
    if isinstance(e, Mul):
        parts = []
        factors = e.factors
        for i, f in enumerate(factors):
            df = differentiate(f, name)
            if df.is_zero_literal:
                continue
            rest = [Rat(e.coeff)] + [g for j, g in enumerate(factors) if j != i]
            parts.append(mul(df, *rest))
        return add(*parts)
    if isinstance(e, Pow):
        db = differentiate(e.base, name)
        de = differentiate(e.exponent, name)
        out = ZERO
        if not db.is_zero_literal:
            out = add(out, mul(e.exponent,
                               powx(e.base, add(e.exponent, MINUS_ONE)), db))
        if not de.is_zero_literal:
            out = add(out, mul(powx(e.base, e.exponent), _log(e.base), de))
        return out
    if isinstance(e, Func):
        da = differentiate(e.arg, name)
        if da.is_zero_literal:
            return ZERO
        if e.name == "log" and e.order == 0:
            return mul(da, powx(e.arg, MINUS_ONE))
        return mul(Func(e.name, e.order + 1, e.arg), da)
    raise TypeError(f"cannot differentiate {e!r}")


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
    through power-law relations, so the sample is skipped instead."""
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
                return vbase ** n
            if vbase > 0:
                root = _rat_root(vbase, vexp.denominator)
                if root is not None:
                    return root ** vexp.numerator
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


def is_zero(e, parameters: Optional[set] = None, seed: int = 0) -> ZeroVerdict:
    """Three-valued zero test.

    ZERO only for the literal canonical zero (sound by construction);
    NONZERO when a deterministic exact-rational sample point evaluates to a
    nonzero rational; UNDECIDED otherwise."""
    e = _coerce(e)
    if e.is_zero_literal:
        return ZeroVerdict.ZERO
    if isinstance(e, Rat):
        return ZeroVerdict.NONZERO
    names = free_symbols(e)
    if parameters is None:
        parameters = set(names)
    for i in range(_NUM_SAMPLES):
        assignment = sample_assignment(names, i, seed, parameters)
        try:
            v = evaluate_exact(e, assignment)
        except (ZeroDivisionError, UndeclaredSymbolError, NonRationalValue):
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
        self.assignments: Dict[str, Fraction] = {}

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

    def parameter(self, name: str, value: Optional[Rational] = None) -> Expr:
        self._declare(name, SymbolKind.PARAMETER)
        if value is not None:
            self.assignments[name] = Fraction(value)
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
        out.assignments = dict(self.assignments)
        return out
