"""Adjoint representation, conjugacy of one-dimensional subalgebras, and
optimal systems for the encoded low-dimensional classes.

Strategy: an algebra is first identified (witness basis change to canonical
coordinates); in canonical coordinates every encoded class has an exact
classifier mapping a nonzero coefficient vector to its class representative
together with a witness word of adjoint steps.  Conjugacy of two vectors is
then signature equality, confirmed by applying the composed word exactly,
and the optimal system is the classifier's image.

The conjugacy quotient is the connected adjoint group, the line reflection
v -> -v, and the per-class discrete automorphisms declared in the catalog
(reflections for the diagonal solvable classes, the factor swap for 2A2).
Subalgebra classifications in the reference tables use the same quotient.

Everything is exact.  A signature parameter is a Fraction when it is a
ratio of canonical coordinates, and a kernel value when it is a magnitude:
a rational times prime radicals, whose canonical form is unique, or a
rational times e^q, which is irrational for rational q != 0 (Lindemann).
So signatures match by plain equality.  A shift or scaling step carries
its parameter as a kernel expression (a rational, or a rational multiple
of the log of a positive rational), and a rotation step carries its exact
(cos, sin).  A shift or scaling step's group element is linalg.exact_expm
of a generator that is triangular in some order of the basis, so that its
spectrum is its diagonal; on the encoded classes every other generator is
a rotation.  A word is a certificate: `conjugate` is answered only when the
word, applied exactly, makes every 2x2 minor of (A v, w) the literal zero.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import (
    Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from .dsl import render
from .expr import (
    EULER, Add, Expr, ExprError, Pow, Rat, ZERO, ONE, _coerce, add,
    exp, log, mul, powx, rat, split_terms, substitute, sym,
)
from .algebra import (
    CanonicalClass, Identification, LieAlgebra, _in_span_coords, _series,
    ad_matrix, canonical_class_by_name, identify, sum_base,
)
from .linalg import Matrix, exact_expm, identity, inverse, matmul, matvec


DEFAULT_SEED = 20240901
DEFAULT_SAMPLES = 1000
_HALF = rat(Fraction(1, 2))


class UnsupportedClassError(ExprError):
    pass


# ---------------------------------------------------------------------------
# adjoint matrices: exact closed form for generators that are triangular in
# some order of the basis, rotation steps for the others
# ---------------------------------------------------------------------------

def ad_matrix_rational(L: LieAlgebra, i: int) -> Matrix:
    """Matrix of ad e_i."""
    return ad_matrix(L, identity(L.dim)[i])


def adjoint_matrix(L: LieAlgebra, i: int, eps: Union[Expr, Fraction]
                   ) -> List[List[Expr]]:
    """Ad(exp(eps ad e_i)) as exact expressions in eps, for an ad e_i that
    is triangular in some order of the basis, so that its spectrum is its
    rational diagonal.  On the encoded classes every other generator is a
    rotation, with no such closed form in eps: its steps are rotation steps
    (_rotate)."""
    exact = exact_expm(ad_matrix_rational(L, i), _coerce(eps))
    if exact is None:
        raise ExprError(f"ad e{i + 1} is not triangular in any order of the "
                        "basis: a rotation generator, whose group elements "
                        "are rotation steps")
    return exact


def _rotate(M: Matrix, turn: Tuple[Expr, Expr], x: List[Expr]) -> List[Expr]:
    """exp(theta M) x for a rotation generator M, with (cos theta,
    sin theta) = turn: I + sin*J + (1 - cos)*J^2, where J is M without its
    diagonal and J^3 = -J.  The A3,7 spiral's diagonal -a on its plane
    scales that plane by the positive number e^(-a*theta) on top, so the
    line of x is mapped exactly only when x lies in that plane; any other x
    raises ExprError."""
    n = len(M)
    diag = [M[i][i] for i in range(n)]
    J = [[M[i][j] if i != j else Fraction(0) for j in range(n)]
         for i in range(n)]
    J2 = matmul(J, J)
    if matmul(J, J2) != [[-m for m in row] for row in J] or any(
            J[i][j] and diag[i] != diag[j]
            for i in range(n) for j in range(n)):
        raise ExprError("a rotation step needs a rotation generator")
    if any(diag) and any(not x[i].is_zero_literal
                         for i in range(n) if not diag[i]):
        raise ExprError("a spiral rotation maps a line exactly only in its "
                        "plane")
    c, s = turn
    return [add(xi, mul(s, jx), mul(add(ONE, mul(-1, c)), j2x))
            for xi, jx, j2x in zip(x, matvec(J, x), matvec(J2, x))]


def apply_word(cls: CanonicalClass, a: Optional[Fraction],
               steps: Sequence["Step"], v: Sequence) -> List[Expr]:
    """An adjoint word applied exactly, first step first, to a coefficient
    vector in canonical coordinates."""
    alg = cls.instantiated(a)
    x = [_coerce(t) for t in v]
    for s in steps:
        if s.kind == "aut":
            x = matvec(cls.discrete_maps()[s.name], x)
        elif s.kind == "rot":
            x = _rotate(ad_matrix_rational(alg, s.index), s.turn, x)
        else:
            x = matvec(adjoint_matrix(alg, s.index, s.epsilon), x)
    return x


def _same_line(x: Sequence[Expr], y: Sequence) -> bool:
    """x is nonzero and every 2x2 minor of (x, y) is the literal zero."""
    return any(not t.is_zero_literal for t in x) and all(
        add(mul(x[i], y[j]), mul(-1, x[j], y[i])).is_zero_literal
        for i, j in itertools.combinations(range(len(x)), 2))


# ---------------------------------------------------------------------------
# subalgebra representatives, witnesses, signatures
# ---------------------------------------------------------------------------

def _sign(x) -> int:
    """Sign of a rational, or of a kernel value c * prod(b^r) over positive
    rational bases and e, which is what every irrational invariant and
    magnitude built here is."""
    if isinstance(x, Rat):
        x = x.value
    if not isinstance(x, Expr):
        return (x > 0) - (x < 0)
    (coeff, _, other), *more = split_terms(x, _is_positive_power)
    if not more and not other:
        return 1 if coeff > 0 else -1
    raise ExprError(f"no exact sign for {render(x)}")


def _is_positive_power(f: Expr) -> bool:
    return isinstance(f, Pow) and (
        f.base == EULER or isinstance(f.base, Rat) and f.base.value > 0)


# admissible domain of a free parameter, by kind (exact values, see _sign)
PARAM_KINDS = {
    "any": lambda v: True,
    "nonzero": lambda v: _sign(v) != 0,
    "positive": lambda v: _sign(v) > 0,
    "nonneg": lambda v: _sign(v) >= 0,
    "unit-interval": lambda v: 0 < abs(v) <= 1,
}


class ParamSpec(NamedTuple):
    """One named free parameter with its admissible domain."""

    name: str
    kind: str = "any"        # a key of PARAM_KINDS
    note: str = ""

    def admits(self, value) -> bool:
        return PARAM_KINDS[self.kind](value)


class SubalgebraRep(NamedTuple):
    """One-dimensional subalgebra representative: a coefficient line over the
    algebra basis, possibly carrying free parameters."""

    coeffs: Tuple[Expr, ...]
    params: Tuple[ParamSpec, ...] = ()
    rep_id: str = ""
    note: str = ""

    def instantiate(self, values: Dict[str, Fraction]) -> Tuple[Fraction, ...]:
        b = {k: rat(v) for k, v in values.items()}
        out = []
        for c in self.coeffs:
            try:
                v = substitute(c, b)
            except ZeroDivisionError:
                raise ExprError(f"coefficient {c!r} has a pole") from None
            if not isinstance(v, Rat):
                raise ExprError(f"cannot instantiate coefficient {c!r}")
            out.append(v.value)
        return tuple(out)

    def rational_coeffs(self) -> Optional[Tuple[Fraction, ...]]:
        if any(not isinstance(c, Rat) for c in self.coeffs):
            return None
        return tuple(c.value for c in self.coeffs)

    def render(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero_literal:
                continue
            cs = render(c)
            if cs == "1":
                parts.append(f"e{i + 1}")
            elif cs == "-1":
                parts.append(f"-e{i + 1}")
            else:
                parts.append(f"({cs})*e{i + 1}")
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        if self.params:
            dom = ", ".join(f"{p.name} {p.kind}" for p in self.params)
            body += f"   [{dom}]"
        return body


class Step(NamedTuple):
    """One adjoint-word letter: exp(epsilon*ad e_k) with epsilon a kernel
    expression, a rotation exp(theta*ad e_k) carried by its exact
    (cos theta, sin theta), or a declared discrete automorphism."""

    kind: str                 # "exp" | "rot" | "aut"
    index: int = -1           # canonical basis index for exp/rot steps
    name: str = ""            # automorphism name for aut steps
    epsilon: Optional[Expr] = None
    turn: Optional[Tuple[Expr, Expr]] = None   # (cos, sin) of a rot step

    def inverse(self) -> "Step":
        if self.kind == "exp":
            return Step("exp", self.index, epsilon=mul(-1, self.epsilon))
        if self.kind == "rot":
            return Step("rot", self.index,
                        turn=(self.turn[0], mul(-1, self.turn[1])))
        return self  # the declared reflections and the swap are involutions

    def describe(self) -> str:
        if self.kind == "aut":
            return f"aut[{self.name}]"
        if self.kind == "rot":
            eps = f"atan2({render(self.turn[1])}, {render(self.turn[0])})"
        else:
            eps = render(self.epsilon)
            if isinstance(self.epsilon, Add):
                eps = f"({eps})"
        return f"exp({eps}*ad e{self.index + 1})"


class ConjugacyWitness(NamedTuple):
    """A word whose exact application maps v onto the line of w: every 2x2
    minor vanished literally, so its residual is the exact 0."""

    steps: Tuple[Step, ...]
    residual: Fraction = Fraction(0)

    def describe(self) -> str:
        return " . ".join(s.describe() for s in self.steps) or "identity"


class Signature(NamedTuple):
    rep_id: str
    params: Dict[str, object]   # exact: see the module docstring
    steps: List[Step]

    def matches(self, other: "Signature") -> bool:
        return self.rep_id == other.rep_id and self.params == other.params

    def brief(self) -> str:
        if not self.params:
            return self.rep_id
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.rep_id}({inner})"


class ConjugacyResult(NamedTuple):
    verdict: str              # conjugate | not-conjugate | undecided
    witness: Optional[ConjugacyWitness] = None
    invariant: str = ""
    values: Tuple[str, str] = ("", "")
    reason: str = ""          # why an undecided answer is undecided

    @property
    def conjugate(self) -> bool:
        return self.verdict == "conjugate"

# ---------------------------------------------------------------------------
# per-class strategies in canonical coordinates
# ---------------------------------------------------------------------------

def _exp_step(i: int, eps) -> Step:
    return Step("exp", i, epsilon=_coerce(eps))


def _log_step(i: int, r: Fraction, k: Fraction = Fraction(1)) -> Step:
    """exp(k*log(r)*ad e_i) for a positive rational r: on a rational
    spectrum its group element has rational powers of r as entries."""
    return _exp_step(i, mul(k, log(rat(r))))


def _norm(*cs: Fraction) -> Expr:
    """Exact Euclidean length of a rational vector."""
    return powx(rat(sum(c * c for c in cs)), _HALF)


def _turn_to_e1(c1: Fraction, c2: Fraction) -> List[Step]:
    """exp(theta ad e3) with (cos, sin) = (c1, -c2)/r, r = |(c1, c2)|: it
    turns (c1, c2) onto (r, 0) in the plane that ad e3 rotates.  No step
    when (c1, c2) lies on that half-axis already."""
    if c2 == 0 and c1 >= 0:
        return []
    inv = powx(_norm(c1, c2), -1)
    return [Step("rot", 2, turn=(mul(c1, inv), mul(-c2, inv)))]


def _aut_step(name: str) -> Step:
    return Step("aut", name=name)


def _sig(rep_id: str, params=None, steps=None) -> Signature:
    return Signature(rep_id, params or {}, steps or [])


def _zflip(steps: List[Step], c) -> int:
    """Append the central flip v -> -v to steps when c < 0; returns the
    sign (+1 or -1) that makes c positive."""
    if _sign(c) < 0:
        steps.append(_aut_step("Z-flip"))
        return -1
    return 1


def _first_nonzero(v: Sequence[Fraction]) -> int:
    for i, x in enumerate(v):
        if x != 0:
            return i
    raise ValueError("zero vector has no direction")


class Strategy:
    """Exact one-dimensional subalgebra classification for one canonical
    class.  classify() maps any nonzero rational coefficient vector to the
    signature of its class representative with a witness word."""

    name = ""
    invariant = ""   # names the invariant behind the signature parameters

    def __init__(self, cls: CanonicalClass, a: Optional[Fraction] = None):
        self.cls = cls
        self.a = a

    def reps(self) -> List[SubalgebraRep]:
        raise NotImplementedError

    def classify(self, v: Sequence[Fraction]) -> Signature:
        raise NotImplementedError

    # vector orbits (used by direct sums with a central line); quotient is
    # the inner group, the class discretes, and the central flip
    def vector_reps(self) -> List[SubalgebraRep]:
        raise UnsupportedClassError(f"{self.cls.name}: no vector strategy")

    def vector_classify(self, v: Sequence[Fraction]) -> Signature:
        raise UnsupportedClassError(f"{self.cls.name}: no vector strategy")


def _unit_coeffs(n: int, entries: Dict[int, Expr]) -> Tuple[Expr, ...]:
    out = [ZERO] * n
    for i, e in entries.items():
        out[i] = e
    return tuple(out)


class AbelianStrategy(Strategy):
    """Trivial adjoint group: classes are projective normal forms, reported
    as parameterized families."""

    def reps(self) -> List[SubalgebraRep]:
        n = self.cls.dim
        out = []
        for k in range(n):
            entries = {k: ONE}
            params = []
            for j in range(k + 1, n):
                pname = f"a{j + 1}"
                entries[j] = sym(pname)
                params.append(ParamSpec(pname, "any"))
            out.append(SubalgebraRep(_unit_coeffs(n, entries), tuple(params),
                                     rep_id=f"e{k + 1}-normal"))
        return out

    def classify(self, v):
        k = _first_nonzero(v)
        params = {f"a{j + 1}": v[j] / v[k] for j in range(k + 1, len(v))}
        return _sig(f"e{k + 1}-normal", params)


class A2Strategy(Strategy):
    def reps(self):
        return [SubalgebraRep(_unit_coeffs(2, {0: ONE}), rep_id="e1"),
                SubalgebraRep(_unit_coeffs(2, {1: ONE}), rep_id="e2")]

    def classify(self, v):
        c1, c2 = v
        if c2 != 0:
            return _sig("e2", {}, [_exp_step(0, -c1 / c2)])
        return _sig("e1")


class A2A1Strategy(Strategy):
    """A2 + A1 with the reflection e1 -> -e1 in the quotient."""

    def reps(self):
        return [
            SubalgebraRep(_unit_coeffs(3, {1: ONE, 2: sym("d")}),
                          (ParamSpec("d", "any"),), rep_id="e2+d*e3"),
            SubalgebraRep(_unit_coeffs(3, {0: ONE, 2: ONE}), rep_id="e1+e3"),
            SubalgebraRep(_unit_coeffs(3, {0: ONE}), rep_id="e1"),
            SubalgebraRep(_unit_coeffs(3, {2: ONE}), rep_id="e3"),
        ]

    def classify(self, v):
        c1, c2, c3 = v
        if c2 != 0:
            return _sig("e2+d*e3", {"d": c3 / c2}, [_exp_step(0, -c1 / c2)])
        if c1 != 0 and c3 != 0:
            steps = []
            r = c1 / c3
            if r < 0:
                steps.append(_aut_step("R1"))
                r = -r
            steps.append(_log_step(1, r))
            return _sig("e1+e3", {}, steps)
        return _sig("e1" if c1 != 0 else "e3")

    def vector_reps(self):
        return [
            SubalgebraRep(_unit_coeffs(3, {1: sym("b"), 2: sym("d")}),
                          (ParamSpec("b", "positive"), ParamSpec("d", "any")),
                          rep_id="v:e2"),
            SubalgebraRep(_unit_coeffs(3, {0: ONE, 2: sym("d")}),
                          (ParamSpec("d", "nonneg"),), rep_id="v:e1"),
            SubalgebraRep(_unit_coeffs(3, {2: sym("d")}),
                          (ParamSpec("d", "positive"),), rep_id="v:e3"),
        ]

    def vector_classify(self, v):
        c1, c2, c3 = v
        if c2 != 0:
            steps = [_exp_step(0, -c1 / c2)]
            s = _zflip(steps, c2)
            return _sig("v:e2", {"b": s * c2, "d": s * c3}, steps)
        steps = []
        if c1 != 0:
            if c1 < 0:
                steps.append(_aut_step("R1"))
                c1 = -c1
            if c3 < 0:
                steps.append(_aut_step("Z-flip"))
                steps.append(_aut_step("R1"))
                c3 = -c3
            steps.append(_log_step(1, c1))
            return _sig("v:e1", {"d": c3}, steps)
        return _sig("v:e3", {"d": _zflip(steps, c3) * c3}, steps)


class A31Strategy(Strategy):
    def reps(self):
        return [
            SubalgebraRep(_unit_coeffs(3, {1: ONE, 2: sym("d")}),
                          (ParamSpec("d", "any"),), rep_id="e2+d*e3"),
            SubalgebraRep(_unit_coeffs(3, {2: ONE}), rep_id="e3"),
            SubalgebraRep(_unit_coeffs(3, {0: ONE}), rep_id="e1"),
        ]

    def classify(self, v):
        c1, c2, c3 = v
        if c2 != 0:
            return _sig("e2+d*e3", {"d": c3 / c2}, [_exp_step(2, c1 / c2)])
        if c3 != 0:
            return _sig("e3", {}, [_exp_step(1, -c1 / c3)])
        return _sig("e1")

    def vector_reps(self):
        return [
            SubalgebraRep(_unit_coeffs(3, {1: sym("b"), 2: sym("d")}),
                          (ParamSpec("b", "positive"), ParamSpec("d", "any")),
                          rep_id="v:e2"),
            SubalgebraRep(_unit_coeffs(3, {2: sym("d")}),
                          (ParamSpec("d", "positive"),), rep_id="v:e3"),
            SubalgebraRep(_unit_coeffs(3, {0: sym("b")}),
                          (ParamSpec("b", "positive"),), rep_id="v:e1"),
        ]

    def vector_classify(self, v):
        c1, c2, c3 = v
        if c2 != 0:
            steps = [_exp_step(2, c1 / c2)]
            s = _zflip(steps, c2)
            return _sig("v:e2", {"b": s * c2, "d": s * c3}, steps)
        if c3 != 0:
            steps = [_exp_step(1, -c1 / c3)]
            return _sig("v:e3", {"d": _zflip(steps, c3) * c3}, steps)
        steps = []
        return _sig("v:e1", {"b": _zflip(steps, c1) * c1}, steps)


class A32Strategy(Strategy):
    def reps(self):
        return [SubalgebraRep(_unit_coeffs(3, {2: ONE}), rep_id="e3"),
                SubalgebraRep(_unit_coeffs(3, {1: ONE}), rep_id="e2"),
                SubalgebraRep(_unit_coeffs(3, {0: ONE}), rep_id="e1")]

    @staticmethod
    def _kill_plane(c1, c2, c3) -> List[Step]:
        e2s = -c2 / c3
        c1b = c1 + e2s * c3   # e2 step shifts both c1 and c2 by eps*c3
        return [_exp_step(1, e2s), _exp_step(0, -c1b / c3)]

    def classify(self, v):
        c1, c2, c3 = v
        if c3 != 0:
            return _sig("e3", {}, self._kill_plane(c1, c2, c3))
        if c2 != 0:
            return _sig("e2", {}, [_exp_step(2, c1 / c2)])
        return _sig("e1")

    def vector_reps(self):
        return [
            SubalgebraRep(_unit_coeffs(3, {2: sym("d")}),
                          (ParamSpec("d", "positive"),), rep_id="v:e3"),
            SubalgebraRep(_unit_coeffs(3, {1: sym("b")}),
                          (ParamSpec("b", "positive"),), rep_id="v:e2"),
            SubalgebraRep(_unit_coeffs(3, {0: ONE}), rep_id="v:e1"),
        ]

    def vector_classify(self, v):
        c1, c2, c3 = v
        if c3 != 0:
            steps = self._kill_plane(c1, c2, c3)
            return _sig("v:e3", {"d": _zflip(steps, c3) * c3}, steps)
        if c2 != 0:
            steps = [_exp_step(2, c1 / c2)]
            b = mul(_zflip(steps, c2) * c2, exp(rat(-c1 / c2)))
            return _sig("v:e2", {"b": b}, steps)
        steps = [_log_step(2, abs(c1))]
        _zflip(steps, c1)
        return _sig("v:e1", {}, steps)


class A33Strategy(Strategy):
    def reps(self):
        return [
            SubalgebraRep(_unit_coeffs(3, {2: ONE}), rep_id="e3"),
            SubalgebraRep(_unit_coeffs(3, {0: ONE, 1: sym("d")}),
                          (ParamSpec("d", "any"),), rep_id="e1+d*e2"),
            SubalgebraRep(_unit_coeffs(3, {1: ONE}), rep_id="e2"),
        ]

    def classify(self, v):
        c1, c2, c3 = v
        if c3 != 0:
            return _sig("e3", {}, [_exp_step(0, -c1 / c3),
                                   _exp_step(1, -c2 / c3)])
        if c1 != 0:
            return _sig("e1+d*e2", {"d": c2 / c1})
        return _sig("e2")

    def vector_reps(self):
        return [
            SubalgebraRep(_unit_coeffs(3, {2: sym("d")}),
                          (ParamSpec("d", "positive"),), rep_id="v:e3"),
            SubalgebraRep(_unit_coeffs(3, {0: ONE, 1: sym("d")}),
                          (ParamSpec("d", "any"),), rep_id="v:e1"),
            SubalgebraRep(_unit_coeffs(3, {1: ONE}), rep_id="v:e2"),
        ]

    def vector_classify(self, v):
        c1, c2, c3 = v
        if c3 != 0:
            steps = [_exp_step(0, -c1 / c3), _exp_step(1, -c2 / c3)]
            return _sig("v:e3", {"d": _zflip(steps, c3) * c3}, steps)
        steps = []
        if c1 != 0:
            d = c2 / c1   # the flip negates c1 and c2 together
            c1 *= _zflip(steps, c1)
            steps.append(_log_step(2, c1))
            return _sig("v:e1", {"d": d}, steps)
        c2 *= _zflip(steps, c2)
        steps.append(_log_step(2, c2))
        return _sig("v:e2", {}, steps)


class _DiagonalStrategy(Strategy):
    """A3,4 (a = -1) and A3,5^a (0 < |a| < 1): the adjoint scaling is
    diag(e^-eps, e^-a*eps) with the reflection R2 in the quotient."""

    @property
    def _a(self) -> Fraction:
        return Fraction(-1) if self.cls.name == "A3,4" else self.a

    def reps(self):
        return [
            SubalgebraRep(_unit_coeffs(3, {2: ONE}), rep_id="e3"),
            SubalgebraRep(_unit_coeffs(3, {0: ONE}), rep_id="e1"),
            SubalgebraRep(_unit_coeffs(3, {1: ONE}), rep_id="e2"),
            SubalgebraRep(_unit_coeffs(3, {0: ONE, 1: ONE}), rep_id="e1+e2"),
        ]

    def _kill_plane(self, c1, c2, c3) -> List[Step]:
        return [_exp_step(0, -c1 / c3), _exp_step(1, -c2 / (self._a * c3))]

    def classify(self, v):
        c1, c2, c3 = v
        if c3 != 0:
            return _sig("e3", {}, self._kill_plane(c1, c2, c3))
        if c1 != 0 and c2 != 0:
            steps = []
            if c1 < 0:
                c1, c2 = -c1, -c2  # projective sign flip
            if c2 < 0:
                steps.append(_aut_step("R2"))
                c2 = -c2
            steps.append(_log_step(2, c2 / c1, 1 / (self._a - 1)))
            return _sig("e1+e2", {}, steps)
        return _sig("e1" if c1 != 0 else "e2")

    def vector_reps(self):
        return [
            SubalgebraRep(_unit_coeffs(3, {2: sym("d")}),
                          (ParamSpec("d", "positive"),), rep_id="v:e3"),
            SubalgebraRep(_unit_coeffs(3, {0: ONE, 1: sym("q")}),
                          (ParamSpec("q", "positive"),), rep_id="v:hyp"),
            SubalgebraRep(_unit_coeffs(3, {0: ONE}), rep_id="v:e1"),
            SubalgebraRep(_unit_coeffs(3, {1: ONE}), rep_id="v:e2"),
        ]

    def vector_classify(self, v):
        a = self._a
        c1, c2, c3 = v
        if c3 != 0:
            steps = self._kill_plane(c1, c2, c3)
            return _sig("v:e3", {"d": _zflip(steps, c3) * c3}, steps)
        steps = []
        if c1 != 0:
            s = _zflip(steps, c1)
            c1, c2 = s * c1, s * c2
            if c2 < 0:
                steps.append(_aut_step("R2"))
                c2 = -c2
            steps.append(_log_step(2, c1))
            if c2 == 0:
                return _sig("v:e1", {}, steps)
            # after scaling c1 -> 1 the second slot is c2*c1^(-a)
            q = mul(c2, powx(rat(c1), rat(-a)))
            return _sig("v:hyp", {"q": q}, steps)
        if c2 < 0:
            steps.append(_aut_step("R2"))
            c2 = -c2
        steps.append(_log_step(2, c2, 1 / a))
        return _sig("v:e2", {}, steps)


class _RotationStrategy(Strategy):
    """A3,6 (pure rotation) and A3,7^a (spiral, a > 0): exp(theta ad e3)
    rotates the (e1, e2) plane by theta and scales it by e^(-a*theta)."""

    def reps(self):
        return [SubalgebraRep(_unit_coeffs(3, {2: ONE}), rep_id="e3"),
                SubalgebraRep(_unit_coeffs(3, {0: ONE}), rep_id="e1")]

    def _kill_plane(self, c1, c2, c3) -> List[Step]:
        if self.cls.name == "A3,6":
            # e1 shifts c2 by -eps*c3, e2 shifts c1 by +eps*c3
            return [_exp_step(1, -c1 / c3), _exp_step(0, c2 / c3)]
        a = self.a
        det = a * a + 1
        # shifts: e1 adds (a, -1)*eps*c3, e2 adds (1, a)*eps*c3; solve
        # [a 1; -1 a] (s1, s2) = -(c1, c2)/c3
        s1 = (c2 - a * c1) / det / c3
        s2 = (-c1 - a * c2) / det / c3
        return [_exp_step(0, s1), _exp_step(1, s2)]

    def classify(self, v):
        c1, c2, c3 = v
        if c3 != 0:
            return _sig("e3", {}, self._kill_plane(c1, c2, c3))
        return _sig("e1", {}, _turn_to_e1(c1, c2))

    def vector_reps(self):
        note = "" if self.cls.name == "A3,6" else "plane vector up to sign"
        return [SubalgebraRep(_unit_coeffs(3, {2: sym("d")}),
                              (ParamSpec("d", "positive"),), rep_id="v:e3"),
                SubalgebraRep(_unit_coeffs(3, {0: sym("r")}),
                              (ParamSpec("r", "positive", note),),
                              rep_id="v:plane")]

    def vector_classify(self, v):
        """A plane vector of A3,6 is classified by its exact radius.  The
        A3,7^a invariant r*e^(a*theta) mod e^(pi*a) has no kernel form, but
        on rational vectors the plane vector up to sign is a complete key.
        If v = +-e^(-a*theta) R(theta) w for rational v and w, then
        u = e^(i*theta) and e^(-a*theta) = |v|/|w|, a value of u^(i*a), are
        algebraic.  By Gelfond-Schneider (1934) alpha^beta is transcendental
        for algebraic alpha != 0, 1 and algebraic irrational beta, here i*a;
        so u = 1, theta = 2*pi*k, and e^(-2*pi*a*k), a value of
        (-1)^(2*i*a*k), is algebraic only at k = 0: v = +-w."""
        c1, c2, c3 = v
        if c3 != 0:
            steps = self._kill_plane(c1, c2, c3)
            return _sig("v:e3", {"d": _zflip(steps, c3) * c3}, steps)
        if self.cls.name == "A3,6":
            return _sig("v:plane", {"r": _norm(c1, c2)},
                        _turn_to_e1(c1, c2))
        steps = []
        s = _zflip(steps, c1 if c1 != 0 else c2)
        return _sig("v:plane", {"r": (rat(s * c1), rat(s * c2))}, steps)


class A38Strategy(Strategy):
    """sl(2, R): sign of the invariant quadratic form Q = c2^2 + 4 c1 c3."""

    invariant = "Q = c2^2 + 4*c1*c3 (vectors: b = Q^(1/2) or (-Q)^(1/2)/2)"

    def reps(self):
        return [
            SubalgebraRep(_unit_coeffs(3, {1: ONE}), rep_id="e2",
                          note="Q > 0 (hyperbolic)"),
            SubalgebraRep(_unit_coeffs(3, {0: ONE}), rep_id="e1",
                          note="Q = 0 (nilpotent)"),
            SubalgebraRep(_unit_coeffs(3, {0: ONE, 2: MINUS_ONE_EXPR}),
                          rep_id="e1-e3", note="Q < 0 (elliptic)"),
        ]

    @staticmethod
    def _q(v) -> Fraction:
        return v[1] * v[1] + 4 * v[0] * v[2]

    def _normal_form(self, v) -> Tuple[str, List[Step], object]:
        """(representative id, witness steps, signed magnitude m): the steps
        map v to m times the representative.  exp(d ad e3) sends (c1, c2, c3)
        to (c1, c2 + 2 d c1, c3 - d c2 - d^2 c1), and exp(eps ad e1) sends it
        to (c1 + eps c2 - eps^2 c3, c2 - 2 eps c3, c3)."""
        c1, c2, c3 = v
        q = self._q(v)
        if q > 0:
            if c1 != 0 and c3 != 0:
                # d, a root of c3 - d c2 - d^2 c1, leaves (c1, Q^(1/2), 0)
                root = powx(rat(q), _HALF)
                return "e2", [_exp_step(2, add(-c2, root) / (2 * c1)),
                              _exp_step(0, mul(-c1, powx(root, -1)))], root
            # c1 = 0 or c3 = 0 makes q = c2^2
            steps = [_exp_step(2, c3 / c2)] if c3 != 0 else \
                [_exp_step(0, -c1 / c2)] if c1 != 0 else []
            return "e2", steps, c2
        if q == 0:
            if c3 == 0:   # and so c2 = 0
                return "e1", [], c1
            if c1 != 0:
                return "e1", [_exp_step(2, -c2 / (2 * c1))], c1
            # c2 = 0 here; rotate the e3 line onto the e1 line
            return "e1", [_exp_step(0, 1), _exp_step(2, -1)], -c3
        # q < 0, so c1 != 0: exp(d ad e3) leaves (c1, 0, q/(4 c1)), and the
        # e2 scaling by s2^(1/2) balances the two slots
        s2 = -q / (4 * c1 * c1)
        return "e1-e3", [_exp_step(2, -c2 / (2 * c1)),
                         _log_step(1, s2, Fraction(-1, 2))], \
            mul(c1, powx(rat(s2), _HALF))

    def classify(self, v):
        rep_id, steps, _ = self._normal_form(v)
        return _sig(rep_id, {}, steps)

    def vector_reps(self):
        return [
            SubalgebraRep(_unit_coeffs(3, {1: sym("b")}),
                          (ParamSpec("b", "positive"),), rep_id="v:hyp"),
            SubalgebraRep(_unit_coeffs(3, {0: ONE}), rep_id="v:nil"),
            SubalgebraRep(_unit_coeffs(3, {0: sym("b"), 2: mul(-1, sym("b"))}),
                          (ParamSpec("b", "positive"),), rep_id="v:ell"),
        ]

    def vector_classify(self, v):
        q = self._q(v)
        rep_id, steps, m = self._normal_form(v)
        _zflip(steps, m)
        if q > 0:
            return _sig("v:hyp", {"b": powx(rat(q), _HALF)}, steps)
        if q == 0:
            steps.append(_log_step(1, abs(m)))
            return _sig("v:nil", {}, steps)
        b = mul(_HALF, powx(rat(-q), _HALF))
        return _sig("v:ell", {"b": b}, steps)


class A39Strategy(Strategy):
    def reps(self):
        return [SubalgebraRep(_unit_coeffs(3, {0: ONE}), rep_id="e1")]

    def classify(self, v):
        c1, c2, c3 = v
        # rotate around e3 to kill c2, then around e2 to kill c3
        steps = _turn_to_e1(c1, c2)
        if c3 != 0:
            inv = powx(_norm(c1, c2, c3), -1)
            steps.append(Step("rot", 1, turn=(mul(_norm(c1, c2), inv),
                                              mul(c3, inv))))
        return _sig("e1", {}, steps)

    def vector_reps(self):
        return [SubalgebraRep(_unit_coeffs(3, {0: sym("r")}),
                              (ParamSpec("r", "positive"),), rep_id="v:e1")]

    def vector_classify(self, v):
        return _sig("v:e1", {"r": _norm(*v)}, self.classify(v).steps)


class TwoA2Strategy(Strategy):
    """2A2 with the factor swap in the quotient: seven classes, one with an
    arbitrary nonzero parameter."""

    def reps(self):
        return [
            SubalgebraRep(_unit_coeffs(4, {1: ONE, 3: sym("a")}),
                          (ParamSpec("a", "unit-interval",
                                     "arbitrary nonzero; |a|<=1 after the "
                                     "factor swap a <-> 1/a"),),
                          rep_id="e2+a*e4"),
            SubalgebraRep(_unit_coeffs(4, {1: ONE}), rep_id="e2"),
            SubalgebraRep(_unit_coeffs(4, {1: ONE, 2: ONE}), rep_id="e2+e3"),
            SubalgebraRep(_unit_coeffs(4, {1: ONE, 2: MINUS_ONE_EXPR}),
                          rep_id="e2-e3"),
            SubalgebraRep(_unit_coeffs(4, {0: ONE}), rep_id="e1"),
            SubalgebraRep(_unit_coeffs(4, {0: ONE, 2: ONE}), rep_id="e1+e3"),
            SubalgebraRep(_unit_coeffs(4, {0: ONE, 2: MINUS_ONE_EXPR}),
                          rep_id="e1-e3"),
        ]

    def classify(self, v):
        c1, c2, c3, c4 = v
        steps: List[Step] = []
        if (c2 == 0 and c4 != 0) or (c2 == 0 == c4 and c1 == 0 and c3 != 0) \
                or (c2 != 0 and c4 != 0 and abs(c4) > abs(c2)):
            steps.append(_aut_step("S"))
            c1, c2, c3, c4 = c3, c4, c1, c2
        if c2 != 0 and c4 != 0:
            steps.append(_exp_step(0, -c1 / c2))
            steps.append(_exp_step(2, -c3 / c4))
            return _sig("e2+a*e4", {"a": c4 / c2}, steps)
        if c2 != 0:
            steps.append(_exp_step(0, -c1 / c2))
            if c3 == 0:
                return _sig("e2", {}, steps)
            s = 1 if (c3 > 0) == (c2 > 0) else -1
            steps.append(_log_step(3, abs(c3 / c2)))
            return _sig("e2+e3" if s > 0 else "e2-e3", {}, steps)
        # c2 = c4 = 0
        if c1 != 0 and c3 != 0:
            s = 1 if (c1 > 0) == (c3 > 0) else -1
            steps.append(_log_step(1, abs(c1 / c3)))
            return _sig("e1+e3" if s > 0 else "e1-e3", {}, steps)
        return _sig("e1", {}, steps)


class SumA1Strategy(Strategy):
    """X + A1: lines with zero central part inherit X's classes; lines with
    a central component are classified by X's vector orbits."""

    def __init__(self, cls: CanonicalClass, base: Strategy):
        super().__init__(cls, base.a)
        self.base = base
        self.invariant = base.invariant

    def reps(self):
        n = self.cls.dim
        out = []
        for r in self.base.reps():
            out.append(SubalgebraRep(tuple(list(r.coeffs) + [ZERO]),
                                     r.params, rep_id="L:" + r.rep_id,
                                     note=r.note))
        for r in self.base.vector_reps():
            out.append(SubalgebraRep(tuple(list(r.coeffs) + [ONE]),
                                     r.params, rep_id="S:" + r.rep_id,
                                     note=r.note))
        out.append(SubalgebraRep(_unit_coeffs(n, {n - 1: ONE}),
                                 rep_id="S:zero"))
        return out

    def classify(self, v):
        c4 = v[-1]
        if c4 == 0:
            inner = self.base.classify(v[:-1])
            return _sig("L:" + inner.rep_id, inner.params, inner.steps)
        vx = tuple(x / c4 for x in v[:-1])
        if not any(vx):
            return _sig("S:zero")
        inner = self.base.vector_classify(vx)
        return _sig("S:" + inner.rep_id, inner.params, inner.steps)


MINUS_ONE_EXPR = mul(-1, ONE)


_STRATEGIES = {
    "A1": AbelianStrategy,
    "2A1": AbelianStrategy,
    "3A1": AbelianStrategy,
    "4A1": AbelianStrategy,
    "A2": A2Strategy,
    "A2+A1": A2A1Strategy,
    "A3,1": A31Strategy,
    "A3,2": A32Strategy,
    "A3,3": A33Strategy,
    "A3,4": _DiagonalStrategy,
    "A3,5": _DiagonalStrategy,
    "A3,6": _RotationStrategy,
    "A3,7": _RotationStrategy,
    "A3,8": A38Strategy,
    "A3,9": A39Strategy,
    "2A2": TwoA2Strategy,
}


def strategy_for(name: str, a: Optional[Fraction] = None) -> Strategy:
    if name in _STRATEGIES:
        return _STRATEGIES[name](canonical_class_by_name(name), a)
    base = sum_base(name)
    if base is None:
        raise UnsupportedClassError(
            f"no optimal-system strategy for class {name}")
    return SumA1Strategy(canonical_class_by_name(name), strategy_for(base, a))

# ---------------------------------------------------------------------------
# algebra-level operations through the identification witness
# ---------------------------------------------------------------------------

class ClassifiedAlgebra(NamedTuple):
    """An algebra together with its identification and strategy; all
    classification happens in the canonical coordinates of the witness."""

    L: LieAlgebra
    ident: Identification
    strategy: Strategy
    to_canonical: Matrix      # algebra -> canonical coords
    from_canonical: Matrix    # T^t: canonical rep -> algebra

    @classmethod
    def build(cls, L: LieAlgebra,
              ident: Optional[Identification] = None) -> "ClassifiedAlgebra":
        if ident is None:
            ident = identify(L)
        if ident.status != "identified":
            raise UnsupportedClassError(
                f"algebra not identified: {ident.reason}")
        strategy = strategy_for(ident.label, ident.parameter)
        T = ident.witness
        n = L.dim
        Tt = [[T[i][j] for i in range(n)] for j in range(n)]
        Tt_inv = inverse(Tt)
        if Tt_inv is None:
            raise ExprError("singular identification witness")
        return cls(L=L, ident=ident, strategy=strategy,
                   to_canonical=Tt_inv, from_canonical=Tt)

    def canonical_coords(self, v: Sequence[Fraction]) -> List[Fraction]:
        return matvec(self.to_canonical, list(v))

    def classify(self, v: Sequence[Fraction]) -> Signature:
        return self.strategy.classify(self.canonical_coords(v))


def _normalize_leading(coeffs: List[Expr]) -> Tuple[Expr, ...]:
    """Scale so the first nonzero rational coefficient is +-1 with positive
    sign preferred (subalgebra representatives are lines)."""
    lead = None
    for c in coeffs:
        if isinstance(c, Rat) and c.value != 0:
            lead = c.value
            break
        if not isinstance(c, Rat) and not c.is_zero_literal:
            break
    if lead is None or abs(lead) == 1:
        if lead == -1:
            return tuple(mul(-1, c) for c in coeffs)
        return tuple(coeffs)
    inv = rat(Fraction(1, 1) / abs(lead))
    out = [mul(inv, c) for c in coeffs]
    if lead < 0:
        out = [mul(-1, c) for c in out]
    return tuple(out)


def construct_optimal_system(L: LieAlgebra,
                             ident: Optional[Identification] = None
                             ) -> List[SubalgebraRep]:
    """Representatives of the one-dimensional subalgebra classes under the
    adjoint group (with the declared discrete quotient), in the algebra's
    own basis.  Parameter families stay symbolic."""
    ca = ClassifiedAlgebra.build(L, ident)
    out = []
    for rep in ca.strategy.reps():
        coeffs = _normalize_leading(matvec(ca.from_canonical,
                                                 rep.coeffs))
        out.append(SubalgebraRep(coeffs, rep.params, rep.rep_id, rep.note))
    return out


def are_conjugate(L: LieAlgebra, v: Sequence[Fraction],
                  w: Sequence[Fraction],
                  ident: Optional[Identification] = None) -> ConjugacyResult:
    """Conjugacy of the lines spanned by v and w under the adjoint group
    extended by the declared discrete automorphisms.

    For identified algebras the canonical classifier's exact signature is a
    complete invariant: different signatures give a not-conjugate verdict
    carrying the separating invariant.  Equal signatures give the composed
    witness word, and the verdict is conjugate only when that word, applied
    exactly, maps v onto the line of w with every 2x2 minor the literal
    zero; otherwise it is undecided.  An algebra without a classifier is
    decided by exact rules (same line, central line, derived series) or
    answered undecided with the reason."""
    if not any(v) or not any(w):
        raise ValueError("zero vector spans no subalgebra")
    try:
        ca = ClassifiedAlgebra.build(L, ident)
    except (UnsupportedClassError, ExprError) as exc:
        return _are_conjugate_generic(L, v, w, str(exc))
    sv = ca.classify(v)
    sw = ca.classify(w)
    if not sv.matches(sw):
        invariant = f"canonical representative ({ca.ident.label} classifier)"
        if ca.strategy.invariant:
            invariant += "; " + ca.strategy.invariant
        return ConjugacyResult("not-conjugate", invariant=invariant,
                               values=(sv.brief(), sw.brief()))
    back = [s.inverse() for s in reversed(sw.steps)]
    steps = tuple(s for s in sv.steps + back
                  if not (s.kind == "exp" and s.epsilon.is_zero_literal))
    try:
        image = apply_word(ca.strategy.cls, ca.strategy.a, steps,
                           ca.canonical_coords(v))
    except ExprError as exc:
        return ConjugacyResult("undecided", reason=str(exc))
    if _same_line(image, ca.canonical_coords(w)):
        return ConjugacyResult("conjugate", witness=ConjugacyWitness(steps))
    return ConjugacyResult("undecided", reason="equal signatures, but a 2x2 "
                           "minor of the word's image is not literally zero")


# ---------------------------------------------------------------------------
# algebras without a classifier: exact rules or undecided
# ---------------------------------------------------------------------------

def _membership_pattern(L: LieAlgebra, v: Sequence[Fraction]) -> Tuple[bool, ...]:
    """Membership of v in the first three derived-series terms, stopping
    after a zero term (a stabilized series repeats its last term)."""
    terms = _series(L)
    pats = []
    for k in range(3):
        cur = terms[min(k, len(terms) - 1)]
        pats.append(_in_span_coords(cur, list(v)) is not None if cur else not any(v))
        if not cur:
            break
    return tuple(pats)


def _are_conjugate_generic(L: LieAlgebra, v, w,
                           reason: str) -> ConjugacyResult:
    """Exact rules for an algebra without a classifier, in order: the same
    line, a central line (its adjoint orbit is the line itself), and the
    derived-series membership pattern; anything else is undecided, with the
    reason no classifier applies."""
    if _in_span_coords([list(v)], list(w)) is not None:
        return ConjugacyResult("conjugate", witness=ConjugacyWitness(()))
    central = [not any(map(any, ad_matrix(L, list(x)))) for x in (v, w)]
    if any(central):
        x = v if central[0] else w
        name = SubalgebraRep(tuple(rat(c) for c in x)).render()
        return ConjugacyResult(
            "not-conjugate",
            invariant=f"central element {name} (its own adjoint orbit)",
            values=tuple("central" if c else "not central" for c in central))
    pv, pw = (_membership_pattern(L, x) for x in (v, w))
    if pv != pw:
        return ConjugacyResult("not-conjugate",
                               invariant="derived-series membership",
                               values=(str(pv), str(pw)))
    return ConjugacyResult("undecided", reason=reason)


# ---------------------------------------------------------------------------
# candidate-system audits
# ---------------------------------------------------------------------------

class AuditReport(NamedTuple):
    """Pairwise conjugacy audit plus a seeded coverage audit.  A sample is
    undecided when the classifier cannot place it, or when it is uncovered
    but a candidate family reaches its class at some parameter value
    (``unsolved``: the family parameter was not solved for); only the other
    uncovered samples are gaps."""

    conjugate_pairs: List[Tuple[int, int, ConjugacyWitness]]
    gaps: List[Tuple[int, Tuple[Fraction, ...], str]]
    duplicates: List[Tuple[int, Tuple[int, ...]]]
    n_samples: int
    seed: int
    undecided: int
    unsolved: int

    @property
    def ok(self) -> bool:
        return not self.conjugate_pairs and not self.gaps

    @property
    def undecided_rate(self) -> float:
        return self.undecided / self.n_samples if self.n_samples else 0.0

    def summary(self) -> str:
        lines = [
            f"pairs flagged: {len(self.conjugate_pairs)}",
            f"coverage gaps: {len(self.gaps)} of {self.n_samples} samples",
            f"duplicate-covered samples: {len(self.duplicates)}",
            f"undecided rate: {self.undecided_rate:.4f}",
            f"seed: {self.seed}",
        ]
        if self.unsolved:
            lines.insert(-1, "undecided for an unsolved family parameter: "
                             f"{self.unsolved} samples")
        return "\n".join(lines)


def _sample_directions(n: int, count: int, seed: int):
    """count nonzero vectors of n coordinates num/den, num in [-20, 20] and
    den in [1, 4] drawn in that order, every coordinate at most 5 in
    absolute value.  The draws are random.Random(seed).randint(-20, 20) and
    randint(1, 4), read straight off getrandbits by randint's own rejection
    loops (6 bits below 41, 3 bits below 4), and each draw is looked up in a
    table of the admissible coordinates, so no draw builds a Fraction."""
    bits = random.Random(seed).getrandbits
    # table[den - 1][num + 20]; None where |num/den| > 5
    table = [[Fraction(num, den) if abs(num) <= 5 * den else None
              for num in range(-20, 21)] for den in range(1, 5)]
    out = []
    while len(out) < count:
        vec = []
        for _ in range(n):
            num = bits(6)
            while num >= 41:
                num = bits(6)
            den = bits(3)
            while den >= 4:
                den = bits(3)
            vec.append(table[den][num])
        if any(vec) and all(x is not None for x in vec):
            out.append(tuple(vec))
    return out


# probe values of a family's parameters: a family with one parameter is
# probed at each of them, a family with several at every combination of the
# first three
_PROBES = (Fraction(2), Fraction(3), Fraction(-3), Fraction(5), Fraction(1),
           Fraction(-1), Fraction(1, 2), Fraction(-2))

_Instance = Tuple[Dict[str, Fraction], Signature]


def _instances(ca: ClassifiedAlgebra, cand: SubalgebraRep,
               assignments: Iterable[Dict[str, Fraction]]) -> List[_Instance]:
    """(assignment, signature) for each assignment, in order of first
    occurrence, that every parameter admits and that instantiates the
    candidate to a nonzero rational vector."""
    seen = set()
    out = []
    for values in assignments:
        key = tuple(values.items())
        if key in seen or not all(p.admits(values[p.name])
                                  for p in cand.params):
            continue
        seen.add(key)
        try:
            vec = cand.instantiate(values)
        except ExprError:
            continue
        if any(vec):
            out.append((values, ca.classify(vec)))
    return out


class _Candidate(NamedTuple):
    """A candidate with its instances classified once, in probe order: a
    frozen line itself, a family with several parameters at every
    combination of _PROBES[:3], a one-parameter family at its special values
    (where a canonical coordinate vanishes) and then at _PROBES.  The
    canonical coordinates of a one-parameter family are read as u + p*w from
    p = 0 and p = 1 (``line``); a pole at either leaves ``line`` None."""

    rep: SubalgebraRep
    instances: List[_Instance]
    line: Optional[Tuple[List[Fraction], List[Fraction]]] = None

    @classmethod
    def build(cls, ca: ClassifiedAlgebra, rep: SubalgebraRep) -> "_Candidate":
        names = [p.name for p in rep.params]
        if len(names) != 1:
            return cls(rep, _instances(ca, rep, (
                dict(zip(names, combo))
                for combo in itertools.product(_PROBES[:3],
                                               repeat=len(names)))))
        line = None
        try:
            u, s = (ca.canonical_coords(rep.instantiate({names[0]: p}))
                    for p in (Fraction(0), Fraction(1)))
            line = u, [b - a for a, b in zip(u, s)]
        except ExprError:
            pass
        special = [-a / b for a, b in zip(*line) if b] if line else []
        return cls(rep, _instances(ca, rep, ({names[0]: p} for p in
                                             special + list(_PROBES))), line)


def _ratio_solutions(line: Tuple[List[Fraction], List[Fraction]],
                     target: Signature) -> List[Fraction]:
    """Parameter values p at which a ratio of two canonical coordinates
    u_i + p*w_i : u_j + p*w_j equals r, -r or 1/r for a rational family
    parameter r of the target (the canonical family parameters are ratios
    of canonical coordinates)."""
    ratios = set()
    for tv in target.params.values():
        if isinstance(tv, Fraction):
            ratios.add(tv)
            if tv != 0:
                ratios.add(1 / tv)
            ratios.add(-tv)
    u, w = line
    return [(r * u[j] - u[i]) / (w[i] - r * w[j])
            for i, j in itertools.permutations(range(len(u)), 2)
            for r in ratios if w[i] != r * w[j]]


def _covers(ca: ClassifiedAlgebra, cand: _Candidate, target: Signature
            ) -> Optional[Dict[str, object]]:
    """The parameter values at which the candidate lies in the target's
    class (empty for a frozen line), or None."""
    rep = cand.rep
    if rep.rep_id:
        # the candidate came from construct_optimal_system: its parameters
        # are the target's own, admissible by construction
        if rep.rep_id != target.rep_id:
            return None
        return {p.name: target.params[p.name] for p in rep.params}
    for values, sig in cand.instances:
        if sig.matches(target):
            return values
    if cand.line is None:
        return None
    name = rep.params[0].name
    probed = {values[name] for values, _ in cand.instances}
    roots = ({name: r} for r in _ratio_solutions(cand.line, target)
             if r not in probed)
    return next((values for values, sig in _instances(ca, rep, roots)
                 if sig.matches(target)), None)


def _overlap(ca: ClassifiedAlgebra, cand_i: _Candidate, cand_j: _Candidate
             ) -> Optional[Tuple[Dict[str, Fraction], Dict]]:
    """(values of i, values of j) at the first instance of i, in probe
    order, whose class j reaches, or None."""
    for values, sig in cand_i.instances:
        found = _covers(ca, cand_j, sig)
        if found is not None:
            return values, found
    return None


def _rational_instance(rep: SubalgebraRep, values: Dict
                       ) -> Optional[Tuple[Fraction, ...]]:
    """The candidate's vector at values, or None when a value is irrational
    or the coefficients are not rational there."""
    if not all(isinstance(v, Fraction) for v in values.values()):
        return None
    try:
        return rep.instantiate(values)
    except ExprError:
        return None


def verify_candidate_system(L: LieAlgebra, candidates: Sequence[SubalgebraRep],
                            n_samples: int = DEFAULT_SAMPLES,
                            seed: int = DEFAULT_SEED,
                            ident: Optional[Identification] = None
                            ) -> AuditReport:
    """Audit a candidate optimal system: flag conjugate pairs and classify
    seeded sample directions against the list (gaps and duplicates)."""
    ca = ClassifiedAlgebra.build(L, ident)
    cands = [_Candidate.build(ca, rep) for rep in candidates]
    pairs = []
    for i, j in itertools.combinations(range(len(cands)), 2):
        overlap = _overlap(ca, cands[i], cands[j])
        if overlap is None:
            continue
        vec_i = _rational_instance(cands[i].rep, overlap[0])
        vec_j = _rational_instance(cands[j].rep, overlap[1])
        if vec_i is not None and vec_j is not None:
            res = are_conjugate(L, vec_i, vec_j, ident=ca.ident)
            if res.conjugate:
                pairs.append((i, j, res.witness))
    # rep_id is a complete invariant of the discrete part, so an uncovered
    # sample is a proved gap only when no family with a free parameter
    # reaches its rep_id at the probe or special values
    reached = {sig.rep_id for cand in cands if cand.rep.params
               for _, sig in cand.instances}
    gaps = []
    duplicates = []
    undecided = unsolved = 0
    for si, vec in enumerate(_sample_directions(L.dim, n_samples, seed)):
        try:
            sig = ca.classify(vec)
        except ExprError:
            undecided += 1
            continue
        covering = [ci for ci, cand in enumerate(cands)
                    if _covers(ca, cand, sig) is not None]
        if not covering:
            if sig.rep_id in reached:
                unsolved += 1
            else:
                gaps.append((si, vec, sig.brief()))
        elif len(covering) > 1:
            duplicates.append((si, tuple(covering)))
    return AuditReport(conjugate_pairs=pairs, gaps=gaps,
                       duplicates=duplicates, n_samples=n_samples,
                       seed=seed, undecided=undecided + unsolved,
                       unsolved=unsolved)
