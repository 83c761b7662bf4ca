"""Exact elimination against sympy as an independent oracle."""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from liesym.expr import ZERO, powx, rat, sym
from liesym.linalg import (inverse, matmul, matvec, nullspace, rank, rref,
                           solve, solve_symbolic)

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


# the dense products that matmul and matvec replaced, kept as oracles
def dense_matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def dense_matvec(a, v):
    return [sum((a[i][k] * v[k] for k in range(len(v))), Fraction(0))
            for i in range(len(a))]


def assert_same_entries(got, want):
    """Equal matrices, entry by entry of one type; repr tells 0.0 from
    -0.0."""
    assert got == want
    for grow, wrow in zip(got, want):
        for x, y in zip(grow, wrow):
            assert type(x) is type(y) and repr(x) == repr(y)


def with_zero_lines(rows, data):
    """Zero out one row and one column of a non-empty matrix."""
    if rows and rows[0]:
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows[0]) - 1))
        rows[i] = [Fraction(0)] * len(rows[0])
        for r in rows:
            r[j] = Fraction(0)
    return rows


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
def test_sparse_products_match_dense_on_fractions(n, m, k, data):
    a = with_zero_lines(data.draw(matrices(n, n, m, m)), data)
    b = with_zero_lines(data.draw(matrices(m, m, k, k)), data)
    v = data.draw(st.lists(ENTRIES, min_size=m, max_size=m))
    assert_same_entries(matmul(a, b), dense_matmul(a, b))
    assert_same_entries([matvec(a, v)], [dense_matvec(a, v)])


def test_sparse_products_match_dense_on_ints():
    a = [[1, 0, 2], [0, 0, 0], [0, 3, 0]]
    v = [2, 0, -1]
    assert_same_entries(matmul(a, a), dense_matmul(a, a))
    assert_same_entries([matvec(a, v)], [dense_matvec(a, v)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_sparse_products_match_dense_on_floats(n, m, data):
    floats = st.one_of(st.just(0.0), st.just(-0.0),
                       st.floats(-4, 4, allow_nan=False))
    a = [data.draw(st.lists(floats, min_size=m, max_size=m))
         for _ in range(n)]
    a[data.draw(st.integers(0, n - 1))] = [0.0] * m
    b = [data.draw(st.lists(floats, min_size=n, max_size=n))
         for _ in range(m)]
    v = data.draw(st.lists(floats, min_size=m, max_size=m))
    assert_same_entries(matmul(a, b), dense_matmul(a, b))
    assert_same_entries([matvec(a, v)], [dense_matvec(a, v)])
    # a float row of zero products is 0.0, not Fraction(0)
    assert_same_entries([matvec([[0.0] * m], v)], [[0.0]])
    # rational matrix, float vector (apply_steps_numeric)
    q = [[Fraction(int(x)) for x in row] for row in a]
    assert_same_entries([matvec(q, v)], [dense_matvec(q, v)])


def test_sparse_products_match_dense_on_exprs():
    a, b = sym("a"), sym("b")
    M = [[a, ZERO, rat(2)], [ZERO, ZERO, ZERO], [b * a, rat(0), a + b]]
    for v in ([Fraction(1), Fraction(0), Fraction(-2)],
              [Fraction(0), Fraction(3), Fraction(0)],
              [Fraction(0)] * 3):
        assert_same_entries([matvec(M, v)], [dense_matvec(M, v)])
    Q = [[Fraction(1), Fraction(0), Fraction(0)], [Fraction(0)] * 3,
         [Fraction(0), Fraction(1, 2), Fraction(-1)]]
    assert_same_entries(matmul(M, Q), dense_matmul(M, Q))


def test_symbolic_solve_decides_each_column_at_its_first_failing_row():
    # 2^(1/2) is not rational at any sample, so the zero test cannot decide
    # it; each column's entry comes from the first row without a pivot
    # that is not zero in that column
    x, root2 = sym("x"), powx(rat(2), Fraction(1, 2))
    O, I = rat(0), rat(1)
    assert solve_symbolic([[I], [O]], [[x, O, x], [O, x, root2]]) == [
        [x], None, "cannot decide consistency of symbolic system"]
    assert solve_symbolic([[O], [root2]], [[O, x], [x, O]]) == [
        "cannot certify pivots of symbolic system", None]
