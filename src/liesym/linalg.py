"""Exact linear algebra over the rationals, plus a pivoting solver for
small systems whose entries are symbolic expressions.

Exact elimination is sparse and fraction-free (Bareiss 1968): it runs on
Python ints alone.  The determining systems of the symmetry search have
hundreds of integer rows with under two nonzeros each, so the engine takes
sparse rows, one list of (column, value) pairs per row with distinct
columns and no zero value, which is how the search assembles them;
``_eliminate`` makes each row a dict column -> int, drops empty rows and
clears a rational row's denominators on entry.  ``nullspace`` takes sparse
rows; ``rref``, ``rank``, ``solve`` and ``inverse`` take dense rows and
read their nonzeros with ``sparse_rows``.  A presolve runs first (Andersen
and Andersen 1995): a one-entry row is its column's reduced row, so that
column is deleted from every other row with no arithmetic, and a row left
with one entry goes through the same step; about half the rows of a
determining system leave this way.  A column -> rows index finds the rows
to eliminate, pivots are taken column by column (the shortest
candidate row, ties broken by row index; see ``_choose_pivot``), a row
update row <- a*row - b*pivot row uses the cofactors a, b of the pivot and
the eliminated entry over their gcd, and each updated row is divided by
its content.  Pivots are never normalised, and entries that cancel are
deleted, so rows stay small and sparse.  Each pivot row is a multiple of
the reduced row echelon form's row, which is unique, so neither the pivot
rule nor the row order changes a result.  Fractions appear only in the
readout: ``rref``, ``solve`` and ``inverse`` divide by the pivot,
``nullspace`` reads primitive integer vectors off the pivot rows and
``rank`` counts them.  ``matmul`` and ``matvec`` skip the products with a
zero factor.

``exact_expm`` builds exp(eps*M) exactly for a rational matrix M that is
triangular in some order of its basis, which is every flow and every
non-rotation adjoint generator the program exponentiates.  Its spectrum is
its diagonal, so no characteristic polynomial or root search is needed; a
matrix whose off-diagonal entries form a cycle returns None.

``solve_symbolic`` solves small systems with Expr entries for several
right-hand sides in one elimination: the structure constants of a basis
solve basis . C = [every bracket], one column per bracket, and the same
elimination reads off the rank of the basis, or None when an undecided
entry may hide a pivot.  Span membership is one right-hand side.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import (Dict, Iterable, List, Optional, Sequence, Set, Tuple,
                    Union)

from .expr import (
    EULER, Expr, Rat, Rational, ZERO, ZeroVerdict, add, is_zero, mul, powx,
    rat,
)

Matrix = List[List[Fraction]]
#: a row as (column, value) pairs: distinct columns, no zero value
Pairs = Iterable[Tuple[int, Rational]]
SparseRow = Dict[int, int]

_ZERO = Fraction(0)


def sparse_rows(rows: Sequence[Sequence[Rational]]
                ) -> List[List[Tuple[int, Rational]]]:
    """Dense rows as sparse ones: each row's nonzeros as (column, value)
    pairs in column order."""
    return [[(j, v) for j, v in enumerate(r) if v] for r in rows]


def _choose_pivot(candidates: Set[int], rows: Dict[int, SparseRow]) -> int:
    """Markowitz-style pivot row: the shortest candidate, then the lowest
    index."""
    return min(candidates, key=lambda i: (len(rows[i]), i))


def _eliminate(rows: Iterable[Pairs]) -> Dict[int, SparseRow]:
    """Sparse fraction-free Gauss-Jordan elimination over Z of sparse rows;
    returns pivot column -> its reduced row, an integer multiple of the
    reduced row echelon form's row (the multiple is its entry at the
    pivot), zero in every other pivot column."""
    sparse: Dict[int, SparseRow] = {}
    by_col: Dict[int, Set[int]] = {}
    singles: List[int] = []
    for i, r in enumerate(rows):
        row = dict(r)
        if not row:
            continue
        for v in row.values():
            if type(v) is not int:  # clear the denominators of the row
                den = lcm(*[v.denominator for v in row.values()])
                row = {j: v.numerator * (den // v.denominator)
                       for j, v in row.items()}
                break
        sparse[i] = row
        for j in row:
            by_col.setdefault(j, set()).add(i)
        if len(row) == 1:
            singles.append(i)
    reduced: Dict[int, SparseRow] = {}
    # presolve: a one-entry row is its column's reduced row; the column is
    # deleted from every other row, and a row left with one entry follows
    for i in singles:
        row = sparse.pop(i, None)
        if row is None:  # emptied by an earlier one-entry row
            continue
        c = next(iter(row))
        reduced[c] = row
        for k in by_col.pop(c):
            if k == i:
                continue
            other = sparse[k]
            del other[c]
            if not other:
                del sparse[k]
            elif len(other) == 1:
                singles.append(k)
    pending = set(sparse)
    for c in sorted(by_col):
        holders = by_col[c]
        candidates = holders & pending
        if not candidates:
            continue
        p = _choose_pivot(candidates, sparse)
        pending.discard(p)
        prow = sparse[p]
        pv = prow[c]
        for i in list(holders):
            if i == p:
                continue
            # row <- a*row - b*prow, a/b = pv/row[c] in lowest terms, a > 0
            row = sparse[i]
            g = gcd(pv, row[c])
            a, b = pv // g, row[c] // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, v in prow.items():
                old = row.get(j)
                if old is None:
                    row[j] = -b * v
                    by_col[j].add(i)
                else:
                    new = old - b * v
                    if new:
                        row[j] = new
                    else:
                        del row[j]
                        by_col[j].discard(i)
            g = gcd(*row.values())
            if g > 1:  # divide the row by its content
                for j in row:
                    row[j] //= g
        reduced[c] = prow
    return reduced


def rref(rows: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices).  The
    result has as many rows as the input, zero rows last."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    reduced = _eliminate(sparse_rows(rows))
    pivots = sorted(reduced)
    out: Matrix = []
    for c in pivots:
        dense = [_ZERO] * ncols
        pv = reduced[c][c]
        for j, v in reduced[c].items():
            dense[j] = Fraction(v, pv)
        out.append(dense)
    out.extend([_ZERO] * ncols for _ in range(len(rows) - len(pivots)))
    return out, pivots


def rank(rows: Matrix) -> int:
    """Rank of an exact matrix."""
    return len(_eliminate(sparse_rows(rows)))


def nullspace(rows: Iterable[Pairs], ncols: int) -> List[List[Fraction]]:
    """Basis of the right nullspace of sparse rows with columns below
    ``ncols``, scaled to primitive integer vectors: one vector per free
    column, read off the pivot rows in integers (the free column's entry is
    the lcm of the pivots of the rows that hold it)."""
    reduced = _eliminate(rows)
    free: Dict[int, list] = {c: [] for c in range(ncols) if c not in reduced}
    for pc, prow in reduced.items():
        pv = prow[pc]
        for j, v in prow.items():
            if j != pc:  # a reduced row is zero in every other pivot column
                free[j].append((pc, v, pv))
    out = []
    for c, held in free.items():
        scale = lcm(*[pv for _, _, pv in held])
        vec = [0] * ncols
        vec[c] = scale
        for pc, v, pv in held:
            vec[pc] = -v * (scale // pv)
        out.append(_primitive(vec))
    return out


def _primitive(v: Sequence[Rational]) -> List[Fraction]:
    """Scale so entries are coprime integers with positive leading entry.
    The scaling runs on integers; zero entries share one Fraction(0)."""
    den = lcm(*[x.denominator for x in v])
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    if g:
        ints = [n // g for n in ints]
    lead = next((n for n in ints if n != 0), 1)
    if lead < 0:
        ints = [-n for n in ints]
    return [Fraction(n) if n else _ZERO for n in ints]


def solve(rows: Matrix, rhs: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One solution of rows * x = rhs, or None if inconsistent.  Free
    coordinates are set to zero."""
    if not rows:
        return [] if all(b == 0 for b in rhs) else None
    ncols = len(rows[0])
    reduced = _eliminate(sparse_rows([list(r) + [b]
                                      for r, b in zip(rows, rhs)]))
    if ncols in reduced:
        return None
    x = [_ZERO] * ncols
    for pc, prow in reduced.items():
        x[pc] = Fraction(prow.get(ncols, 0), prow[pc])
    return x


def _dot(xs: Sequence, ys: Sequence):
    """sum(x * y) over the pairs whose factors are both nonzero, equal in
    value and type to the dense sum started at Fraction(0) for Fraction,
    int, float and Expr entries (when a row's products share one type)."""
    acc = None
    for x, y in zip(xs, ys):
        if x and y:
            acc = x * y if acc is None else acc + x * y
    if acc is None:  # every product vanishes; the first has their type
        acc = xs[0] * ys[0] if xs and ys else 0
    # Fraction(0) + acc turns an int into a Fraction and -0.0 into 0.0
    return Fraction(0) + acc if not acc or type(acc) is int else acc


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def matvec(a: Matrix, v: Sequence[Fraction]) -> List[Fraction]:
    return [_dot(row, v) for row in a]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def inverse(a: Matrix) -> Optional[Matrix]:
    n = len(a)
    reduced = _eliminate(sparse_rows([list(a[i]) + identity(n)[i]
                                      for i in range(n)]))
    if any(c not in reduced for c in range(n)):
        return None
    return [[Fraction(reduced[c].get(n + j, 0), reduced[c][c])
             for j in range(n)] for c in range(n)]


# ---------------------------------------------------------------------------
# exact exponentials of matrices that are triangular in some basis order
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _eigen_chains(M: Tuple[Tuple[Fraction, ...], ...]):
    """(eigenvalue, Jordan chain) blocks of a rational matrix and the
    inverse of the matrix of their lead vectors, when the matrix is
    triangular in some order of its basis; None otherwise.  It is when the
    graph with an edge i -> j for each nonzero off-diagonal M[i][j] has no
    cycle, and then its spectrum is its diagonal.  The blocks do not depend
    on the group parameter, so each matrix is decomposed once."""
    n = len(M)
    left = set(range(n))
    while left:  # peel off the rows with no off-diagonal entry left
        sinks = {i for i in left if not any(M[i][j] for j in left - {i})}
        if not sinks:
            return None
        left -= sinks
    cols: List[List[Fraction]] = []
    blocks: List[Tuple[Fraction, List[List[Fraction]]]] = []
    for lam, mu in sorted(Counter(M[i][i] for i in range(n)).items()):
        B = [[M[i][j] - (lam if i == j else 0) for j in range(n)]
             for i in range(n)]
        Bp = identity(n)
        for _ in range(mu):
            Bp = matmul(B, Bp)
        for v in nullspace(sparse_rows(Bp), n):
            # exp(eps M) v = e^(lam eps) * sum_k eps^k/k! B^k v
            chain = [v]
            w = v
            for _ in range(mu - 1):
                w = matvec(B, w)
                chain.append(w)
            blocks.append((lam, chain))
            cols.append(v)
    # the generalized eigenspaces of a split spectrum span the space
    return blocks, inverse([[cols[j][i] for j in range(n)] for i in range(n)])


def exact_expm(M: Matrix, eps: Expr) -> Optional[List[List[Expr]]]:
    """exp(eps*M) as exact expressions, polynomial and exponential in eps,
    when the rational matrix M is triangular in some order of its basis;
    None when its off-diagonal entries form a cycle (a rotation
    generator, for one)."""
    n = len(M)
    data = _eigen_chains(tuple(map(tuple, M)))
    if data is None:
        return None
    blocks, Pinv = data
    # matrix whose column k is exp(eps M) applied to the lead vector of
    # block k
    exp_cols: List[List[Expr]] = []
    for lam, chain in blocks:
        phase = powx(EULER, mul(rat(lam), eps))
        col = [ZERO] * n
        for k, w in enumerate(chain):
            coef = mul(powx(eps, rat(k)), rat(Fraction(1, factorial(k))))
            for i in range(n):
                if w[i]:
                    col[i] = add(col[i], mul(coef, rat(w[i])))
        exp_cols.append([mul(phase, entry) for entry in col])
    return matmul(list(zip(*exp_cols)), Pinv)


# ---------------------------------------------------------------------------
# symbolic-entry solving (small systems; pivots need a decidable nonzero)
# ---------------------------------------------------------------------------

def solve_symbolic(rows: List[List[Expr]], rhs: List[List[Expr]]
                   ) -> Tuple[List[Union[List[Expr], str, None]], Optional[int]]:
    """Solve rows * X = rhs for Expr entries, one column of X per entry of
    each ``rhs[i]``, in one elimination.

    Pivots are chosen greedily: literal nonzero rationals first, then entries
    whose nonzero-ness the randomized test certifies.  Returns (solutions,
    rank).  ``solutions`` has one entry per column: its solution, None when
    it is inconsistent, or the reason (a str) why its consistency or the
    pivots cannot be certified, read off the first row without a pivot that
    is not zero in that column.  ``rank`` is the rank of ``rows``, the
    number of pivots, when every row without a pivot is literally zero on
    the columns of ``rows``; otherwise an entry the zero test could not
    decide may hide a pivot, and ``rank`` is None."""
    ncols = len(rows[0]) if rows else 0
    m = [list(r) + list(b) for r, b in zip(rows, rhs)]
    nrows = len(m)
    pivots: List[Tuple[int, int]] = []
    used_rows: set = set()
    for c in range(ncols):
        cand = None
        for i in range(nrows):
            if i in used_rows:
                continue
            entry = m[i][c]
            if entry.is_zero_literal:
                continue
            v = is_zero(entry)
            if v is ZeroVerdict.NONZERO:
                if isinstance(entry, Rat):
                    cand = i
                    break
                if cand is None:
                    cand = i
        if cand is None:
            continue
        pivot = m[cand][c]
        inv = powx(pivot, rat(-1))
        m[cand] = [mul(inv, v) for v in m[cand]]
        for i in range(nrows):
            if i != cand and not m[i][c].is_zero_literal:
                f = m[i][c]
                m[i] = [a if b.is_zero_literal else add(a, mul(-1, f, b))
                        for a, b in zip(m[i], m[cand])]
        used_rows.add(cand)
        pivots.append((cand, c))
    # a column fails at the first row without a pivot that is not zero
    free = [(m[i], all(v.is_zero_literal for v in m[i][:ncols]))
            for i in range(nrows) if i not in used_rows]
    out: List[Union[List[Expr], str, None]] = []
    for k in range(ncols, len(m[0]) if m else ncols):
        x: Union[List[Expr], str, None] = [ZERO] * ncols
        for i, c in pivots:
            x[c] = m[i][k]
        for row, reduced in free:
            if not reduced:
                x = "cannot certify pivots of symbolic system"
            elif row[k].is_zero_literal:
                continue
            elif is_zero(row[k]) is ZeroVerdict.NONZERO:
                x = None
            else:
                x = "cannot decide consistency of symbolic system"
            break
        out.append(x)
    return out, (len(pivots) if all(r for _, r in free) else None)
