"""Exact linear algebra over Fraction, plus a pivoting solver for small
systems whose entries are symbolic expressions.

Exact elimination is sparse.  The determining systems of the symmetry
search have hundreds of rows with under two nonzeros each, so ``rref``
stores each row as a dict column -> Fraction and drops all-zero rows on
entry.  A column -> rows index finds the rows to eliminate, pivots are
taken column by column (the shortest candidate row, ties broken by row
index; see ``_choose_pivot``), and entries that cancel are deleted, so rows
stay sparse.  The reduced row echelon form is unique, so neither the pivot
rule nor the row order changes the result.  ``rank``, ``nullspace``,
``solve`` and ``inverse`` read the pivot map of ``_eliminate`` directly;
only ``rref`` builds the dense reduced matrix.  ``matmul`` and ``matvec``
skip the products with a zero factor.

``solve_symbolic`` solves small systems with Expr entries for several
right-hand sides in one elimination: the structure constants of a basis
solve basis . C = [every bracket], one column per bracket.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .expr import Expr, Rat, ZERO, ZeroVerdict, add, is_zero, mul, powx, rat

Matrix = List[List[Fraction]]
SparseRow = Dict[int, Fraction]


def _choose_pivot(candidates: Set[int], rows: Dict[int, SparseRow]) -> int:
    """Markowitz-style pivot row: the shortest candidate, then the lowest
    index."""
    return min(candidates, key=lambda i: (len(rows[i]), i))


def _eliminate(rows: Matrix) -> Dict[int, SparseRow]:
    """Sparse Gauss-Jordan elimination; returns pivot column -> its reduced
    row, normalised to 1 at the pivot and zero in every other pivot
    column."""
    sparse: Dict[int, SparseRow] = {}
    by_col: Dict[int, Set[int]] = {}
    for i, r in enumerate(rows):
        row = {j: v if type(v) is Fraction else Fraction(v)
               for j, v in enumerate(r) if v}
        if row:
            sparse[i] = row
            for j in row:
                by_col.setdefault(j, set()).add(i)
    reduced: Dict[int, SparseRow] = {}
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
        if pv != 1:
            prow = sparse[p] = {j: v / pv for j, v in prow.items()}
        for i in list(holders):
            if i == p:
                continue
            row = sparse[i]
            f = row[c]
            for j, v in prow.items():
                old = row.get(j)
                if old is None:
                    row[j] = -f * v
                    by_col[j].add(i)
                else:
                    new = old - f * v
                    if new:
                        row[j] = new
                    else:
                        del row[j]
                        by_col[j].discard(i)
        reduced[c] = prow
    return reduced


def rref(rows: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices).  The
    result has as many rows as the input, zero rows last."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    reduced = _eliminate(rows)
    pivots = sorted(reduced)
    zero = Fraction(0)
    out: Matrix = []
    for c in pivots:
        dense = [zero] * ncols
        for j, v in reduced[c].items():
            dense[j] = v
        out.append(dense)
    out.extend([zero] * ncols for _ in range(len(rows) - len(pivots)))
    return out, pivots


def rank(rows: Matrix) -> int:
    """Rank of an exact matrix."""
    return len(_eliminate(rows))


def nullspace(rows: Matrix, ncols: int) -> List[List[Fraction]]:
    """Basis of the right nullspace, scaled to primitive integer vectors:
    one vector per free column, read off the reduced pivot rows."""
    reduced = _eliminate(rows)
    free = {c: _unit(ncols, c) for c in range(ncols) if c not in reduced}
    for pc, prow in reduced.items():
        for j, v in prow.items():
            if j != pc:  # a reduced row is zero in every other pivot column
                free[j][pc] = -v
    return [_primitive(v) for v in free.values()]


def _unit(n: int, j: int) -> List[Fraction]:
    v = [Fraction(0)] * n
    v[j] = Fraction(1)
    return v


def _primitive(v: Sequence[Fraction]) -> List[Fraction]:
    """Scale so entries are coprime integers with positive leading entry."""
    den = 1
    for x in v:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    if g:
        ints = [n // g for n in ints]
    lead = next((n for n in ints if n != 0), 1)
    if lead < 0:
        ints = [-n for n in ints]
    return [Fraction(n) for n in ints]


def solve(rows: Matrix, rhs: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One solution of rows * x = rhs, or None if inconsistent.  Free
    coordinates are set to zero."""
    if not rows:
        return [] if all(b == 0 for b in rhs) else None
    ncols = len(rows[0])
    reduced = _eliminate([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in reduced:
        return None
    zero = Fraction(0)
    x = [zero] * ncols
    for pc, prow in reduced.items():
        x[pc] = prow.get(ncols, zero)
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
    reduced = _eliminate([list(a[i]) + identity(n)[i] for i in range(n)])
    if any(c not in reduced for c in range(n)):
        return None
    zero = Fraction(0)
    return [[reduced[c].get(n + j, zero) for j in range(n)] for c in range(n)]


# ---------------------------------------------------------------------------
# symbolic-entry solving (small systems; pivots need a decidable nonzero)
# ---------------------------------------------------------------------------

def solve_symbolic(rows: List[List[Expr]], rhs: List[List[Expr]],
                   parameters=None) -> List[Union[List[Expr], str, None]]:
    """Solve rows * X = rhs for Expr entries, one column of X per entry of
    each ``rhs[i]``, in one elimination.

    Pivots are chosen greedily: literal nonzero rationals first, then entries
    whose nonzero-ness the randomized test certifies.  Returns one entry per
    column: its solution, None when it is inconsistent, or the reason (a
    str) why its consistency or the pivots cannot be certified, read off
    the first row without a pivot that is not zero in that column."""
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
            v = is_zero(entry, parameters=parameters)
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
                m[i] = [add(a, mul(-1, f, b)) for a, b in zip(m[i], m[cand])]
        used_rows.add(cand)
        pivots.append((cand, c))
    # a column fails at the first row without a pivot that is not zero
    free = [m[i] for i in range(nrows) if i not in used_rows]
    out: List[Union[List[Expr], str, None]] = []
    for k in range(ncols, len(m[0]) if m else ncols):
        x: Union[List[Expr], str, None] = [ZERO] * ncols
        for i, c in pivots:
            x[c] = m[i][k]
        for row in free:
            if not all(v.is_zero_literal for v in row[:ncols]):
                x = "cannot certify pivots of symbolic system"
            elif row[k].is_zero_literal:
                continue
            elif is_zero(row[k], parameters=parameters) is ZeroVerdict.NONZERO:
                x = None
            else:
                x = "cannot decide consistency of symbolic system"
            break
        out.append(x)
    return out
