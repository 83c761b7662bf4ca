"""Lie brackets, structure constants, isomorphism invariants, and
identification of algebras of dimension <= 4 against the canonical catalog.

Structure constants are exact: rational, or rational functions of declared
parameters.  Identification works on instantiated (rational) constants and
always ships an explicit basis-change witness; the witness is verified by
re-deriving the canonical constants through it before anything is returned.
"""

from __future__ import annotations

import functools
import itertools
import json
from fractions import Fraction
from importlib import resources
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .dsl import parse
from . import poly
from .expr import (
    Expr, ExprError, ONE, Rat, Sym, SymbolTable, ZERO, _rat_root, add,
    free_symbols, mul, rat, substitute, sym,
)
from .jets import VectorField
from .linalg import (
    Matrix, identity, inverse, matmul, matvec, nullspace, rank, rref, solve,
    solve_symbolic, sparse_rows,
)


def load_packaged(name: str):
    """The data of the packaged catalog file data/<name>.  The packaged
    catalogs are JSON under their .yaml names (JSON is YAML, so YAML readers
    of them, such as bench/checks.py, build the same data), and json reads
    them without importing PyYAML, whose import costs more than the rest of
    a catalog call.  Their top-level "about" lists hold the files' notes and
    are not read."""
    return json.loads((resources.files("liesym") / "data" / name).read_text())


def load_yaml(text: str):
    """The data of a YAML document, such as a user's --catalog file; a
    syntax error raises ValueError with PyYAML's message.  PyYAML is
    imported here, on first use, so commands that read no user catalog skip
    its import.  libyaml's safe loader, when PyYAML was built with it, is
    about ten times faster than the pure-Python one and builds the same
    data."""
    import yaml

    try:
        return yaml.load(
            text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ValueError(str(exc)) from exc


class NotClosedError(ExprError):
    """The bracket of a pair leaves the span (``leftover`` is the bracket),
    or whether it lies in the span cannot be decided (``leftover`` is the
    reason, a str)."""

    def __init__(self, i: int, j: int, leftover):
        pair = f"[e{i + 1}, e{j + 1}]"
        super().__init__(
            f"cannot decide whether {pair} lies in the span: {leftover}"
            if isinstance(leftover, str) else
            f"bracket {pair} leaves the span; leftover {leftover!r}")
        self.pair = (i, j)
        self.leftover = leftover


class DependentBasisError(ExprError):
    pass


# ---------------------------------------------------------------------------
# brackets of vector fields
# ---------------------------------------------------------------------------

_FIELD_VARS = ("t", "x", "u")
_FIELD_GENS = tuple(map(sym, _FIELD_VARS))
#: marks each component by its exponent; no declared name starts with "#"
_MARK = Sym("#component")
Components = Tuple[poly.Poly, poly.Poly, poly.Poly]  # xi_t, xi_x, eta


def components(fields: Sequence[VectorField]) -> List[Components]:
    """The fields' coefficients over one generator tuple, t, x, u first."""
    flat = poly.align(*[poly.to_poly(c, _FIELD_GENS)
                        for X in fields for c in X])
    return [flat[k:k + 3] for k in range(0, len(flat), 3)]


def _partials(X: Components) -> Tuple[Tuple[poly.Poly, ...], ...]:
    """The partials by t, x and u of each component of X."""
    return tuple(tuple(poly.derive(c, {v: ONE}) for v in _FIELD_VARS)
                 for c in X)


def _bracket(X: Components, dX, Y: Components, dY) -> Components:
    """[X, Y] from the partials of both fields: component k is
    X(Y_k) - Y(X_k), each application a sum over t, x and u."""
    def apply(Z, d):
        return poly.add(*map(poly.mul, Z, d))
    return tuple(poly.add(apply(X, dy), poly.scale(apply(Y, dx), -1))
                 for dx, dy in zip(dX, dY))


def bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Commutator [X, Y] of point fields."""
    X, Y = components([X, Y])
    return VectorField(*map(poly.from_poly, _bracket(X, _partials(X), Y,
                                                     _partials(Y))))


def field_coordinates(fields: Sequence[Components]) -> List[List[Expr]]:
    """Exact coordinates: columns[k] is field k's vector, with one row per
    component and monomial in the generators that mention t, x or u, in the
    kernel's order (on which symbolic pivots depend), and as entries
    polynomials in the others.  Powers of a sum are first brought together
    over all the fields (:func:`poly.merge_sums`, each component marked by
    a power of ``_MARK``), so that distinct monomials are independent."""
    gens, parts = poly.collect(
        poly.merge_sums(poly.mark([c for X in fields for c in X], _MARK)),
        lambda g: g is _MARK or not free_symbols(g).isdisjoint(_FIELD_VARS))
    # merge_sums may place generators after _MARK
    mark = gens.index(_MARK)
    # (component, keyed exponents) -> field -> coefficient
    rows: Dict[tuple, Dict[int, poly.Poly]] = {}
    for k, c in parts.items():
        field, comp = divmod(k[mark], 3)
        rows.setdefault((comp, *k[:mark], *k[mark + 1:]), {})[field] = c
    keyed = gens[:mark] + gens[mark + 1:]
    columns = [[ZERO] * len(rows) for _ in fields]
    for r, row in enumerate(sorted(rows, key=lambda r: (r[0], poly.from_poly(
            poly.Poly(keyed, {r[1:]: 1})).key()))):
        for field, c in rows[row].items():
            columns[field][r] = (poly.from_poly(c) if c.gens
                                 else rat(c.coeffs[()]))
    return columns


class LieAlgebra:
    """Ordered basis with exact structure constants
    [e_i, e_j] = sum_k c[i][j][k] e_k.  A rational algebra also keeps them
    sparse, as the (k, c[i][j][k]) with c[i][j][k] != 0 of each pair, and
    its kernels loop over those entries only."""

    def __init__(self, dim: int,
                 c: Tuple[Tuple[Tuple[Expr, ...], ...], ...],
                 basis: Optional[Tuple[VectorField, ...]] = None):
        self.dim = dim
        self.c = c
        self.basis = basis

    @classmethod
    def from_constants(cls, dim: int,
                       entries: Dict[Tuple[int, int], Sequence],
                       basis: Optional[Sequence[VectorField]] = None,
                       check_jacobi: bool = True) -> "LieAlgebra":
        """entries: {(i, j) -> coefficient vector of [e_i, e_j]}, i < j."""
        c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), vec in entries.items():
            for k, v in enumerate(vec):
                ve = v if isinstance(v, Expr) else rat(v)
                c[i][j][k] = ve
                c[j][i][k] = mul(-1, ve)
        L = cls(dim=dim,
                c=tuple(tuple(tuple(row) for row in plane) for plane in c),
                basis=tuple(basis) if basis else None)
        if check_jacobi:
            L.check_jacobi()
        return L

    def parameters(self) -> set:
        names: set = set()
        for plane in self.c:
            for row in plane:
                for e in row:
                    names |= free_symbols(e)
        return names

    def is_symbolic(self) -> bool:
        return bool(self.parameters())

    def rational_constants(self) -> List[List[List[Fraction]]]:
        """c[i][j][k] as Fractions, computed once per algebra; callers share
        the lists and must not mutate them."""
        return self._rational

    @functools.cached_property
    def _rational(self) -> List[List[List[Fraction]]]:
        if self.is_symbolic():
            raise ExprError("instantiate algebra parameters first")
        return [[[e.value if isinstance(e, Rat) else Fraction(0) for e in row]
                 for row in plane] for plane in self.c]

    @functools.cached_property
    def _sparse(self) -> List[List[List[Tuple[int, Fraction]]]]:
        return [[[(k, x) for k, x in enumerate(row) if x] for row in plane]
                for plane in self._rational]

    def instantiate(self, bindings: Dict[str, "Expr | int | Fraction"]
                    ) -> "LieAlgebra":
        b = {k: (v if isinstance(v, Expr) else rat(v))
             for k, v in bindings.items()}
        entries = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                entries[(i, j)] = [substitute(e, b) for e in self.c[i][j]]
        return LieAlgebra.from_constants(self.dim, entries, self.basis,
                                         check_jacobi=False)

    def check_jacobi(self):
        """Jacobi identity as canonical-form zero, including parametric
        constants; products with a zero-literal constant are skipped."""
        n, c = self.dim, self.c
        for i, j, k in itertools.combinations(range(n), 3):
            terms: List[List[Expr]] = [[] for _ in range(n)]
            for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                for m, x in enumerate(c[a][b]):
                    if not x.is_zero_literal:
                        for l, y in enumerate(c[m][d]):
                            if not y.is_zero_literal:
                                terms[l].append(mul(x, y))
            for l, row in enumerate(terms):
                total = add(*row)
                if not total.is_zero_literal:
                    raise ExprError(
                        f"Jacobi identity fails at ({i},{j},{k};{l}): "
                        f"{total!r}")


def structure_constants(basis: Sequence[VectorField]) -> LieAlgebra:
    """Expand every pairwise bracket in the given basis.

    The constants solve one linear system, basis . C = [all brackets]: one
    coordinate map of the basis and the brackets, and one elimination with a
    right-hand-side column per bracket.  The same elimination reads off the
    rank of the basis.  Raises DependentBasisError only when it proves the
    fields linearly dependent (a basis column gets no pivot and every row
    without a pivot is literally zero on the basis columns), and
    NotClosedError for the first pair, in (i, j) order, whose bracket
    leaves the span or whose membership cannot be decided."""
    n = len(basis)
    if not n:
        return LieAlgebra.from_constants(0, {})
    pairs = list(itertools.combinations(range(n), 2))
    fields = components(basis)
    # each field's partials serve all of its n - 1 brackets
    partials = [_partials(X) for X in fields]
    brackets = [_bracket(fields[i], partials[i], fields[j], partials[j])
                for i, j in pairs]
    columns = field_coordinates(fields + brackets)
    joint = list(zip(*columns))
    solutions, basis_rank = solve_symbolic(
        [r[:n] for r in joint], [r[n:] for r in joint])
    if basis_rank is not None and basis_rank < n:
        raise DependentBasisError("basis fields are linearly dependent")
    for (i, j), Z, sol in zip(pairs, brackets, solutions):
        if not isinstance(sol, list):
            raise NotClosedError(i, j, sol if isinstance(sol, str) else
                                 VectorField(*map(poly.from_poly, Z)))
    return LieAlgebra.from_constants(n, dict(zip(pairs, solutions)), basis)


class ClosureReport:
    __slots__ = ("closed", "violations", "algebra")

    def __init__(self, closed: bool, violations: List[Tuple[int, int, str]],
                 algebra: Optional[LieAlgebra]):
        self.closed = closed
        self.violations = violations
        self.algebra = algebra


def check_closure(fields: Sequence[VectorField]) -> ClosureReport:
    """Span-closure under brackets; violations are reported, not hidden."""
    try:
        L = structure_constants(fields)
        return ClosureReport(True, [], L)
    except NotClosedError as exc:
        return ClosureReport(False, [(exc.pair[0], exc.pair[1],
                                      str(exc))], None)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _span_rows(vectors: List[List[Fraction]]) -> List[List[Fraction]]:
    if not vectors:
        return []
    red, pivots = rref(vectors)
    return [red[r] for r in range(len(pivots))]


def _bracket_rational(L: LieAlgebra, v: Sequence[Fraction],
                      w: Sequence[Fraction]) -> List[Fraction]:
    """[v, w] for coordinate vectors over the basis of a rational algebra."""
    out = [Fraction(0)] * L.dim
    for vi, row in zip(v, L._sparse):
        if vi:
            for wj, pair in zip(w, row):
                if wj:
                    for k, x in pair:
                        out[k] += vi * wj * x
    return out


def ad_matrix(L: LieAlgebra, v: Sequence[Fraction]) -> Matrix:
    """Matrix of ad v on the basis: column j holds [v, e_j]."""
    M = [[Fraction(0)] * L.dim for _ in range(L.dim)]
    for vi, row in zip(v, L._sparse):
        if vi:
            for j, pair in enumerate(row):
                for k, x in pair:
                    M[k][j] += vi * x
    return M


def _subspace_brackets(L: LieAlgebra, a: List[List[Fraction]],
                       b: List[List[Fraction]]) -> List[List[Fraction]]:
    """Row-reduced basis of [span(a), span(b)]."""
    brackets = (_bracket_rational(L, v, w) for v in a for w in b)
    return _span_rows([vec for vec in brackets if any(vec)])


def derived_subalgebra(L: LieAlgebra) -> List[List[Fraction]]:
    full = identity(L.dim)
    return _subspace_brackets(L, full, full)


def _series(L: LieAlgebra) -> List[List[List[Fraction]]]:
    """The derived series [L,L], [L',L'], ... up to the first term that is
    zero or has the dimension of the one before it."""
    terms = [derived_subalgebra(L)]
    while terms[-1]:
        cur = terms[-1]
        terms.append(_subspace_brackets(L, cur, cur))
        if len(terms[-1]) == len(cur):
            break
    return terms


def center(L: LieAlgebra) -> List[List[Fraction]]:
    """Vectors v with [e_i, v] = 0 for every basis vector e_i."""
    rows = [row for e in identity(L.dim) for row in ad_matrix(L, e)]
    return nullspace(sparse_rows(rows), L.dim)


def killing_form(L: LieAlgebra) -> Matrix:
    """K_ij = tr(ad e_i ad e_j) = sum over k, l of c[i][l][k] c[j][k][l],
    read straight off the sparse constants."""
    n, c = L.dim, L.rational_constants()
    K = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        K[i][j] = K[j][i] = sum((x * c[j][k][l] for l, pair in
                                 enumerate(L._sparse[i]) for k, x in pair),
                                Fraction(0))
    return K


def _inertia(K: Matrix) -> Tuple[int, int, int]:
    """(positive, negative, rank) of a symmetric rational matrix, read off
    its characteristic polynomial (Faddeev-LeVerrier).  Every root is real,
    so Descartes' rule of signs is exact: the positive roots are the sign
    changes of the coefficients, and the rank is n minus the multiplicity
    of the root 0."""
    n = len(K)
    coeffs = [Fraction(1)]  # of lambda^n, lambda^(n-1), ..., 1
    KM = K  # K times M_k, with M_1 the identity
    for k in range(1, n + 1):
        c = -sum(KM[i][i] for i in range(n)) / k
        coeffs.append(c)
        KM = matmul(K, [[v + c if i == j else v for j, v in enumerate(row)]
                        for i, row in enumerate(KM)])
    signs = [c > 0 for c in coeffs if c]
    rank = max(i for i, c in enumerate(coeffs) if c)
    pos = sum(a != b for a, b in zip(signs, signs[1:]))
    return pos, rank - pos, rank


class AlgebraInvariants(NamedTuple):
    """Isomorphism-invariant fingerprint used by identification."""

    dim: int
    derived_dims: Tuple[int, ...]
    center_dim: int
    killing_rank: int
    killing_signature: Tuple[int, int]
    derived_abelian: bool

    @property
    def abelian(self) -> bool:
        return not self.derived_dims


def algebra_invariants(L: LieAlgebra) -> AlgebraInvariants:
    return _invariants(L, _series(L), center(L))


def _invariants(L: LieAlgebra, derived: List[List[List[Fraction]]],
                z: List[List[Fraction]]) -> AlgebraInvariants:
    """The invariants of L from its derived series and its centre."""
    derived_dims = [len(term) for term in derived]
    # [L', L'] is the second derived term; an abelian L stops at L' = 0
    derived_ab = len(derived) == 1 or not derived[1]
    pos, neg, killing_rank = _inertia(killing_form(L))
    if derived_dims[0] == 0:
        derived_dims = []
    return AlgebraInvariants(
        dim=L.dim,
        derived_dims=tuple(derived_dims),
        center_dim=len(z),
        killing_rank=killing_rank,
        killing_signature=(pos, neg),
        derived_abelian=derived_ab,
    )


# ---------------------------------------------------------------------------
# canonical catalog
# ---------------------------------------------------------------------------

class CanonicalClass(NamedTuple):
    name: str
    dim: int
    algebra: LieAlgebra
    parameter: Optional[str] = None
    parameter_range: str = ""
    discrete: Tuple[Tuple[str, Tuple[Tuple[Fraction, ...], ...]], ...] = ()

    def instantiated(self, a: Optional[Fraction]) -> LieAlgebra:
        if self.parameter is None:
            return self.algebra
        if a is None:
            raise ValueError(f"{self.name} needs its parameter")
        return self.algebra.instantiate({self.parameter: a})

    def discrete_maps(self) -> Dict[str, Matrix]:
        return {name: [list(row) for row in mat]
                for name, mat in self.discrete}


_catalog_cache: Optional[Dict[str, CanonicalClass]] = None


def load_class_catalog() -> Dict[str, CanonicalClass]:
    """Canonical classes from the packaged data file."""
    global _catalog_cache
    if _catalog_cache is not None:
        return _catalog_cache
    raw = load_packaged("algebra_catalog.yaml")
    table = SymbolTable()
    table.parameter("a")
    out: Dict[str, CanonicalClass] = {}
    for item in raw["classes"]:
        dim = item["dim"]
        entries: Dict[Tuple[int, int], List[Expr]] = {}
        for i, j, k, coeff in item.get("brackets", []):
            vec = entries.setdefault((i - 1, j - 1), [ZERO] * dim)
            vec[k - 1] = add(vec[k - 1], parse(str(coeff), table))
        param = item.get("parameter") or {}
        discrete = tuple(
            (name, tuple(tuple(Fraction(v) for v in row) for row in mat))
            for name, mat in sorted(item.get("discrete", {}).items()))
        algebra = LieAlgebra.from_constants(dim, entries, check_jacobi=False)
        out[item["name"]] = CanonicalClass(
            name=item["name"], dim=dim, algebra=algebra,
            parameter=param.get("name"),
            parameter_range=param.get("range", ""),
            discrete=discrete)
    _catalog_cache = out
    return out


def _sum_name(base: str) -> str:
    """Name of the direct sum base + A1 (A2+A1 plus A1 is A2+2A1)."""
    return "A2+2A1" if base == "A2+A1" else f"{base}+A1"


def sum_base(name: str) -> Optional[str]:
    """The catalog class X whose direct sum X + A1 is called name, if any."""
    return next((b for b in load_class_catalog() if _sum_name(b) == name),
                None)


@functools.lru_cache(maxsize=None)
def sum_with_a1(base: CanonicalClass) -> CanonicalClass:
    """Direct sum X + A1 of a catalog class with a central line."""
    dim = base.dim + 1
    entries = {}
    for i in range(base.dim):
        for j in range(i + 1, base.dim):
            vec = list(base.algebra.c[i][j]) + [ZERO]
            entries[(i, j)] = vec
    discrete = []
    for name, mat in base.discrete:
        ext = tuple(tuple(list(row) + [Fraction(0)]) for row in mat)
        ext = ext + ((tuple([Fraction(0)] * base.dim + [Fraction(1)])),)
        discrete.append((name, ext))
    flip = tuple(
        tuple(Fraction(int(i == j)) * (Fraction(-1) if i == base.dim and j == base.dim else Fraction(1))
              for j in range(dim)) for i in range(dim))
    discrete.append(("Z-flip", flip))
    return CanonicalClass(
        name=_sum_name(base.name), dim=dim,
        algebra=LieAlgebra.from_constants(dim, entries, check_jacobi=False),
        parameter=base.parameter, parameter_range=base.parameter_range,
        discrete=tuple(discrete))


# ---------------------------------------------------------------------------
# identification
# ---------------------------------------------------------------------------

class Identification:
    __slots__ = ("status", "label", "parameter", "witness", "canonical",
                 "reason", "invariants")

    def __init__(self, status: str, label: str = "",
                 parameter: Optional[Fraction] = None,
                 witness: Optional[Matrix] = None,
                 canonical: Optional[CanonicalClass] = None,
                 reason: str = "",
                 invariants: Optional[AlgebraInvariants] = None):
        self.status = status          # "identified" | "unidentified"
        self.label = label
        self.parameter = parameter
        self.witness = witness        # rows: new basis in old coordinates
        self.canonical = canonical
        self.reason = reason
        self.invariants = invariants

    @property
    def display(self) -> str:
        if self.status != "identified":
            return f"unidentified ({self.reason})"
        if self.parameter is not None:
            return f"{self.label}^a with a={self.parameter}"
        return self.label


def _transform_constants(L: LieAlgebra, T: Matrix) -> List[List[List[Fraction]]]:
    """Structure constants in the basis f_i = sum_j T[i][j] e_j: each
    bracket [f_i, f_j], i < j, in f-coordinates, through one inverse of
    T^t.  The rest follow from antisymmetry, which holds for the bracket of
    every LieAlgebra, since from_constants sets c[j][i] = -c[i][j] and
    leaves c[i][i] zero."""
    n = L.dim
    Tt_inv = inverse([[T[i][j] for i in range(n)] for j in range(n)])
    if Tt_inv is None:
        raise ExprError("witness basis is singular")
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        out[i][j] = matvec(Tt_inv, _bracket_rational(L, T[i], T[j]))
        out[j][i] = [-x for x in out[i][j]]
    return out


def _verify_witness(L: LieAlgebra, T: Matrix, cls: CanonicalClass,
                    a: Optional[Fraction]) -> bool:
    want = cls.instantiated(a).rational_constants()
    got = _transform_constants(L, T)
    return got == want


def _ad_on_subspace(L: LieAlgebra, v: List[Fraction],
                    sub: List[List[Fraction]]) -> Optional[Matrix]:
    """Matrix of ad v restricted to span(sub) in the sub basis; None if the
    image leaves the subspace."""
    cols = []
    for w in sub:
        img = _bracket_rational(L, v, w)
        y = _in_span_coords(sub, img)
        if y is None:
            return None
        cols.append(y)
    k = len(sub)
    return [[cols[j][i] for j in range(k)] for i in range(k)]


def _in_span_coords(rows: List[List[Fraction]],
                    vec: List[Fraction]) -> Optional[List[Fraction]]:
    if not rows:
        return None if any(vec) else []
    mat = [[rows[j][i] for j in range(len(rows))] for i in range(len(vec))]
    return solve(mat, vec)


def _complement(rows: List[List[Fraction]], n: int,
                avoid: Optional[List[Fraction]] = None) -> List[List[Fraction]]:
    """Extend span(rows) to codimension 0 (or 1 avoiding a vector)."""
    out = [r[:] for r in rows]
    target = n if avoid is None else n - 1
    for j in range(n):
        if len(out) >= target:
            break
        cand = [Fraction(int(i == j)) for i in range(n)]
        trial = out + [cand]
        if rank(trial) != len(out) + 1:
            continue
        if avoid is not None and rank(trial + [avoid]) == len(trial):
            continue
        out.append(cand)
    return out


def _rational_roots_quadratic(tr: Fraction, det: Fraction
                              ) -> Optional[Tuple[Fraction, Fraction]]:
    """Rational roots of x^2 - tr x + det, if they exist."""
    s = _rat_root(tr * tr - 4 * det, 2)
    if s is None:
        return None
    return (tr + s) / 2, (tr - s) / 2


def identify(L: LieAlgebra) -> Identification:
    """Match against the canonical catalog with an explicit, verified
    basis-change witness.  Honest failures return status 'unidentified'."""
    if L.is_symbolic():
        return Identification(status="unidentified",
                              reason="parametric constants; instantiate first")
    if L.dim > 4:
        return Identification(status="unidentified",
                              reason=f"dimension {L.dim} outside the catalog")
    series, z = _series(L), center(L)
    inv = _invariants(L, series, z)
    ident = _identify_inner(L, inv, series[0], z, load_class_catalog())
    ident.invariants = inv
    if ident.status == "identified":
        if not _verify_witness(L, ident.witness, ident.canonical,
                               ident.parameter):
            return Identification(
                status="unidentified", invariants=inv,
                reason=f"witness verification failed for {ident.label}")
    return ident


def _identify_inner(L: LieAlgebra, inv: AlgebraInvariants,
                    derived: List[List[Fraction]], z: List[List[Fraction]],
                    catalog: Dict[str, CanonicalClass]) -> Identification:
    """Dispatch on dimension; derived spans [L, L] and z the centre."""
    n = L.dim
    if inv.abelian:
        name = {1: "A1", 2: "2A1", 3: "3A1", 4: "4A1"}[n]
        return Identification(status="identified", label=name,
                              witness=identity(n), canonical=catalog[name])
    if n == 2:
        return _identify_a2(L, derived[0], catalog)
    if n == 3:
        return _identify_dim3(L, inv, derived, z, catalog)
    return _identify_dim4(L, inv, derived, z, catalog)


def _scaling_partner(L: LieAlgebra, w: List[Fraction]
                     ) -> Optional[List[Fraction]]:
    """f = e_j / lam for the first basis vector with [w, e_j] = lam*w,
    lam != 0, so that [w, f] = w; None if there is none."""
    for ej in identity(L.dim):
        y = _in_span_coords([w], _bracket_rational(L, w, ej))
        if y and y[0] != 0:
            return [x / y[0] for x in ej]
    return None


def _identify_a2(L: LieAlgebra, w: List[Fraction], catalog) -> Identification:
    return Identification(status="identified", label="A2",
                          witness=[w, _scaling_partner(L, w)],
                          canonical=catalog["A2"])


def _identify_dim3(L: LieAlgebra, inv: AlgebraInvariants,
                   derived: List[List[Fraction]], z: List[List[Fraction]],
                   catalog) -> Identification:
    dd = len(derived)
    if dd == 3:
        return _identify_simple3(L, inv, catalog)
    if dd == 1:
        if z and _in_span_coords(z, derived[0]) is not None:
            # derived line is central: Heisenberg
            return _identify_heisenberg(L, derived[0], catalog)
        return _identify_a2a1(L, derived[0], z, catalog)
    # dd == 2: solvable with 2-dim abelian nilradical acted on by ad e3
    return _identify_solvable3(L, derived, catalog)


def _identify_heisenberg(L: LieAlgebra, w: List[Fraction],
                         catalog) -> Identification:
    for ei, ej in itertools.combinations(identity(3), 2):
        y = _in_span_coords([w], _bracket_rational(L, ei, ej))
        if y and y[0] != 0:
            f2, f3 = ei, [x / y[0] for x in ej]
            return Identification(
                status="identified", label="A3,1",
                witness=[w, f2, f3], canonical=catalog["A3,1"])
    return Identification(status="unidentified",
                          reason="no Heisenberg pair among basis vectors")


def _identify_a2a1(L: LieAlgebra, w: List[Fraction],
                   z: List[List[Fraction]], catalog) -> Identification:
    f2 = _scaling_partner(L, w)
    if not z or f2 is None:
        return Identification(status="unidentified",
                              reason="missing center for A2+A1 shape")
    zv = z[0]
    if rank([w, f2, zv]) != 3:
        return Identification(status="unidentified",
                              reason="center inside the A2 block")
    return Identification(status="identified", label="A2+A1",
                          witness=[w, f2, zv], canonical=catalog["A2+A1"])


def _identify_solvable3(L: LieAlgebra, derived: List[List[Fraction]],
                        catalog) -> Identification:
    n = 3
    comp = _complement(derived, n)
    v3 = comp[2] if len(comp) == 3 else None
    if v3 is None:
        return Identification(status="unidentified",
                              reason="no complement to the nilradical")
    M = _ad_on_subspace(L, v3, derived)
    if M is None:
        return Identification(status="unidentified",
                              reason="nilradical is not an ideal")
    tr = M[0][0] + M[1][1]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if det == 0:
        return Identification(status="unidentified",
                              reason="singular adjoint action on the nilradical")
    roots = _rational_roots_quadratic(tr, det)
    if roots is None:
        disc = tr * tr - 4 * det
        if disc < 0:
            return _identify_rotation3(L, derived, v3, M, tr, det, catalog)
        return Identification(
            status="unidentified",
            reason="irrational eigenvalues of the adjoint action; no exact "
                   "witness exists over the rationals")
    l1, l2 = roots
    if l1 == l2:
        lam = l1
        N = [[M[0][0] / lam - 1, M[0][1] / lam],
             [M[1][0] / lam, M[1][1] / lam - 1]]
        # N = ad(e3)/lam - I; nonzero N means Jordan block (A3,2)
        if all(x == 0 for row in N for x in row):
            f3 = [-x / lam for x in v3]
            return Identification(
                status="identified", label="A3,3",
                witness=[derived[0], derived[1], f3],
                canonical=catalog["A3,3"])
        # pick f2 outside ker N, set f1 = N f2 (in nilradical coordinates)
        f2c = [Fraction(1), Fraction(0)]
        if N[0][0] == 0 and N[1][0] == 0:
            f2c = [Fraction(0), Fraction(1)]
        f1 = _lift(derived, matvec(N, f2c))
        f2 = _lift(derived, f2c)
        f3 = [-x / lam for x in v3]
        return Identification(status="identified", label="A3,2",
                              witness=[f1, f2, f3], canonical=catalog["A3,2"])
    # distinct rational eigenvalues
    if abs(l1) < abs(l2):
        l1, l2 = l2, l1
    a = l2 / l1
    v1 = _eigvec2(M, l1)
    v2 = _eigvec2(M, l2)
    f1 = _lift(derived, v1)
    f2 = _lift(derived, v2)
    f3 = [-x / l1 for x in v3]
    if a == -1:
        return Identification(status="identified", label="A3,4",
                              witness=[f1, f2, f3], canonical=catalog["A3,4"])
    return Identification(status="identified", label="A3,5", parameter=a,
                          witness=[f1, f2, f3], canonical=catalog["A3,5"])


def _identify_rotation3(L: LieAlgebra, derived, v3, M, tr, det,
                        catalog) -> Identification:
    """Complex eigenvalues sigma +- i omega: A3,6 (sigma = 0) or A3,7^a with
    a = -sigma/omega normalized positive; needs omega rational."""
    root = _rat_root(4 * det - tr * tr, 2)
    if root is None:
        return Identification(
            status="unidentified",
            reason="irrational rotation rate; no exact witness over Q")
    omega = root / 2
    sigma = tr / 2
    # scale f3 = v3/omega' so ad f3 = [[-a,-1],[1,-a]] for some sign choice
    for sgn in (1, -1):
        scale = Fraction(sgn) / omega
        a = -sigma * scale
        if a < 0:
            continue
        Mf = [[M[0][0] * scale, M[0][1] * scale],
              [M[1][0] * scale, M[1][1] * scale]]
        N = [[Mf[0][0] + a, Mf[0][1]], [Mf[1][0], Mf[1][1] + a]]
        f1c = [Fraction(1), Fraction(0)]
        f2c = matvec(N, f1c)
        if f2c == [Fraction(0), Fraction(0)]:
            f1c = [Fraction(0), Fraction(1)]
            f2c = [N[0][1], N[1][1]]
        f1 = _lift(derived, f1c)
        f2 = _lift(derived, f2c)
        f3 = [x * scale for x in v3]
        if a == 0:
            return Identification(status="identified", label="A3,6",
                                  witness=[f1, f2, f3],
                                  canonical=catalog["A3,6"])
        return Identification(status="identified", label="A3,7", parameter=a,
                              witness=[f1, f2, f3], canonical=catalog["A3,7"])
    return Identification(status="unidentified",
                          reason="could not normalize the rotation block")


def _identify_simple3(L: LieAlgebra, inv: AlgebraInvariants,
                      catalog) -> Identification:
    pos, neg = inv.killing_signature
    if neg == 3:
        # so(3): canonical only if the constants already match
        cc = catalog["A3,9"]
        if L.rational_constants() == cc.algebra.rational_constants():
            return Identification(status="identified", label="A3,9",
                                  witness=identity(3), canonical=cc)
        return Identification(
            status="unidentified",
            reason="compact simple algebra; no rational canonical frame "
                   "found within search bounds")
    return _identify_sl2(L, catalog)


def _sl2_triple(L: LieAlgebra) -> Optional[Tuple[List[Fraction], List[Fraction], List[Fraction]]]:
    """Search small rational vectors for a nilpotent E, then complete to an
    (E, H, F) triple by exact linear solves."""
    n = 3
    coeff_range = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    for vec in itertools.product(coeff_range, repeat=n):
        E = list(vec)
        if not any(E):
            continue
        adE = ad_matrix(L, E)
        sq = matmul(adE, adE)
        cube = matmul(sq, adE)
        if any(any(r) for r in cube) or not any(any(r) for r in sq):
            continue
        # solve [H, E] = -ad(E) H = 2E, then F with [E, F] = ad(E) F = H
        # and [H, F] = -2F, i.e. (ad(H) + 2I) F = 0, jointly
        H = solve([[-x for x in row] for row in adE], [2 * x for x in E])
        if H is None:
            continue
        adH2 = [[x + 2 * (i == j) for j, x in enumerate(row)]
                for i, row in enumerate(ad_matrix(L, H))]
        F = solve(adE + adH2, list(H) + [Fraction(0)] * n)
        if F is not None:
            return E, H, F
    return None


def _identify_sl2(L: LieAlgebra, catalog) -> Identification:
    triple = _sl2_triple(L)
    if triple is None:
        return Identification(
            status="unidentified",
            reason="split form not found within search bounds (possibly an "
                   "anisotropic rational form of sl2)")
    E, H, F = triple
    f1 = E
    f2 = [-x / 2 for x in H]
    f3 = F
    return Identification(status="identified", label="A3,8",
                          witness=[f1, f2, f3], canonical=catalog["A3,8"])


def _lift(rows: List[List[Fraction]], coords: List[Fraction]) -> List[Fraction]:
    n = len(rows[0])
    out = [Fraction(0)] * n
    for c, r in zip(coords, rows):
        for i in range(n):
            out[i] += c * r[i]
    return out


def _identify_dim4(L: LieAlgebra, inv: AlgebraInvariants,
                   derived: List[List[Fraction]], Z: List[List[Fraction]],
                   catalog) -> Identification:
    n = 4
    # split off a central line not inside the derived algebra
    for z in Z:
        if _in_span_coords(derived, z) is None or not derived:
            S = _complement(derived, n, avoid=z)
            if len(S) != 3:
                continue
            sub = _sub_algebra(L, S)
            if sub is None:
                continue
            inner = identify(sub)
            if inner.status != "identified":
                return Identification(
                    status="unidentified",
                    reason=f"3-dim summand unidentified: {inner.reason}")
            sum_cls = sum_with_a1(inner.canonical)
            T = [_lift(S, row) for row in inner.witness] + [z]
            return Identification(status="identified", label=sum_cls.name,
                                  parameter=inner.parameter,
                                  witness=T, canonical=sum_cls)
    if len(derived) == 2 and inv.derived_abelian and inv.center_dim == 0:
        return _identify_2a2(L, derived, catalog)
    return Identification(
        status="unidentified",
        reason="outside the encoded 4-dimensional classes "
               "(2A2 and sums with A1)")


def canonical_class_by_name(name: str) -> CanonicalClass:
    catalog = load_class_catalog()
    if name in catalog:
        return catalog[name]
    base = sum_base(name)
    if base is None:
        raise KeyError(name)
    return sum_with_a1(catalog[base])


def _sub_algebra(L: LieAlgebra, rows: List[List[Fraction]]
                 ) -> Optional[LieAlgebra]:
    """Restriction of the bracket to span(rows), if closed."""
    k = len(rows)
    entries = {}
    for i in range(k):
        for j in range(i + 1, k):
            img = _bracket_rational(L, rows[i], rows[j])
            y = _in_span_coords(rows, img)
            if y is None:
                return None
            entries[(i, j)] = [rat(v) for v in y]
    return LieAlgebra.from_constants(k, entries, check_jacobi=False)


def _identify_2a2(L: LieAlgebra, derived: List[List[Fraction]],
                  catalog) -> Identification:
    comp = _complement(derived, 4)
    v1, v2 = comp[2], comp[3]
    M1 = _ad_on_subspace(L, v1, derived)
    M2 = _ad_on_subspace(L, v2, derived)
    if M1 is None or M2 is None:
        return Identification(status="unidentified",
                              reason="derived algebra is not an ideal")
    eig = _common_eigs(M1, M2)
    if eig is None:
        return Identification(
            status="unidentified",
            reason="no rational simultaneous eigenbasis on the derived "
                   "algebra")
    (w1, lam1), (w2, lam2) = eig
    f1 = _lift(derived, w1)
    f3 = _lift(derived, w2)
    # f2, f4 from the eigenvalue functionals: [f1,f2]=f1, [f3,f2]=0, etc.
    A = [[-lam1[0], -lam1[1]], [-lam2[0], -lam2[1]]]
    s2 = solve(A, [Fraction(1), Fraction(0)])
    s4 = solve(A, [Fraction(0), Fraction(1)])
    if s2 is None or s4 is None:
        return Identification(status="unidentified",
                              reason="degenerate eigenvalue functionals")
    f2 = [s2[0] * a + s2[1] * b for a, b in zip(v1, v2)]
    f4 = [s4[0] * a + s4[1] * b for a, b in zip(v1, v2)]
    # cancel the cross bracket [f2, f4] inside the derived algebra
    cross = _bracket_rational(L, f2, f4)
    y = _in_span_coords([f1, f3], cross)
    if y is None:
        return Identification(status="unidentified",
                              reason="cross bracket outside the eigenlines")
    rho1, rho3 = y
    f2 = [a - rho3 * b for a, b in zip(f2, f3)]
    f4 = [a + rho1 * b for a, b in zip(f4, f1)]
    return Identification(status="identified", label="2A2",
                          witness=[f1, f2, f3, f4], canonical=catalog["2A2"])


def _eigvec2(M: Matrix, lam: Fraction) -> List[Fraction]:
    rows = [[M[0][0] - lam, M[0][1]], [M[1][0], M[1][1] - lam]]
    vecs = nullspace(sparse_rows(rows), 2)
    return vecs[0]


def _common_eigs(M1: Matrix, M2: Matrix):
    """Common rational eigenvectors of two commuting 2x2 matrices with their
    eigenvalue pairs [eigenvalue of M1, eigenvalue of M2], requiring two
    independent common lines.  The eigenvectors come from M1 when its
    rational roots are distinct, else from M2."""
    for slot, (A, B) in enumerate(((M1, M2), (M2, M1))):
        tr = A[0][0] + A[1][1]
        det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
        roots = _rational_roots_quadratic(tr, det)
        if not roots or roots[0] == roots[1]:
            continue
        pairs = []
        for lam in roots:
            v = _eigvec2(A, lam)
            coef = _in_span_coords([v], matvec(B, v))
            if coef is None:
                return None
            lams = [lam, coef[0]] if slot == 0 else [coef[0], lam]
            pairs.append((v, lams))
        return pairs[0], pairs[1]
    return None
