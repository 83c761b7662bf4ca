"""Exact elimination against sympy as an independent oracle."""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from liesym.linalg import inverse, nullspace, rank, rref, solve

# mostly zeros, like the determining systems of the symmetry search
ENTRIES = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


@st.composite
def matrices(draw, min_rows=0, max_rows=8, min_cols=0, max_cols=8):
    """Random sparse rational matrices: empty, all-zero, tall, wide, and
    rank-deficient ones whose extra rows combine earlier rows."""
    nrows = draw(st.integers(min_rows, max_rows))
    ncols = draw(st.integers(min_cols, max_cols))
    shape = draw(st.sampled_from(["random", "zero", "deficient"]))
    if shape == "zero":
        return [[Fraction(0)] * ncols for _ in range(nrows)]
    rows = [[draw(ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    if shape == "deficient" and nrows > 1:
        base = draw(st.integers(1, nrows - 1))
        for i in range(base, nrows):
            coeffs = [draw(ENTRIES) for _ in range(base)]
            rows[i] = [sum((c * rows[k][j] for k, c in enumerate(coeffs)),
                           Fraction(0)) for j in range(ncols)]
    return rows


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 6))
    return draw(matrices(min_rows=n, max_rows=n, min_cols=n, max_cols=n))


def to_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(v.numerator, v.denominator)
                         for r in rows for v in r])


def from_sympy(M):
    return [[Fraction(int(M[i, j].p), int(M[i, j].q)) for j in range(M.cols)]
            for i in range(M.rows)]


def ncols_of(rows):
    return len(rows[0]) if rows else 0


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_matches_sympy(rows):
    red, pivots = rref(rows)
    if not rows:
        assert (red, pivots) == ([], [])
        return
    S, spivots = to_sympy(rows, ncols_of(rows)).rref()
    assert red == from_sympy(S)
    assert pivots == list(spivots)
    assert rank(rows) == len(pivots)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.integers(0, 8))
def test_nullspace_annihilates_rows(rows, extra):
    ncols = ncols_of(rows) if rows else extra
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - rank(rows)
    for v in basis:
        assert len(v) == ncols
        assert any(v)
        assert all(x.denominator == 1 for x in v)
        for r in rows:
            assert sum((a * b for a, b in zip(r, v)), Fraction(0)) == 0


@settings(max_examples=200, deadline=None)
@given(matrices(min_rows=1), st.data())
def test_solve_matches_sympy(rows, data):
    ncols = ncols_of(rows)
    consistent = data.draw(st.booleans())
    if consistent:
        x0 = [data.draw(ENTRIES) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(r, x0)), Fraction(0))
               for r in rows]
    else:
        rhs = [data.draw(ENTRIES) for _ in rows]
    x = solve(rows, rhs)
    A = to_sympy(rows, ncols)
    b = to_sympy([[v] for v in rhs], 1)
    if A.row_join(b).rank() > A.rank():
        assert x is None
        return
    assert x is not None
    assert [sum((a * c for a, c in zip(r, x)), Fraction(0))
            for r in rows] == rhs
    if A.rank() == ncols:
        S = A.gauss_jordan_solve(b)[0]
        assert x == [row[0] for row in from_sympy(S)]


@settings(max_examples=200, deadline=None)
@given(square_matrices(), st.data())
def test_square_solve_and_inverse_match_sympy(rows, data):
    n = len(rows)
    A = to_sympy(rows, n)
    inv = inverse(rows)
    rhs = [data.draw(ENTRIES) for _ in range(n)]
    x = solve(rows, rhs)
    if A.det() == 0:
        assert inv is None
        b = to_sympy([[v] for v in rhs], 1)
        assert (x is None) == (A.row_join(b).rank() > A.rank())
        return
    assert inv == from_sympy(A.inv())
    S = A.LUsolve(to_sympy([[v] for v in rhs], 1))
    assert x == [row[0] for row in from_sympy(S)]
