"""Exact elimination and the exact matrix exponential against sympy as an
independent oracle."""

from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from liesym import linalg
from liesym.algebra import canonical_class_by_name
from liesym.dsl import parse_pde, render
from liesym.expr import ZERO, powx, rat, sym
from liesym.linalg import (_primitive, exact_expm, inverse, matmul, matvec,
                           nullspace, rank, rref, solve, solve_symbolic,
                           sparse_rows)
from liesym.jets import dcr_symbols
from liesym.optimal import ad_matrix_rational
from liesym.pde import EvolutionPDE
from liesym.symmetry import _ansatz_basis, _determining_matrix

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
    basis = nullspace(sparse_rows(rows), ncols)
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


# -- the fraction-free engine against sympy ---------------------------------

# a few 30-digit entries, so that rows grow past machine words
BIG = st.integers(10 ** 29, 10 ** 30 - 1).flatmap(
    lambda n: st.sampled_from([n, -n]))


@st.composite
def engine_matrices(draw, square=False):
    """Sparse integer or rational matrices up to 12x10 like the determining
    systems: mostly at most two nonzeros per row, some dense rows, a few
    30-digit entries and, now and then, a row that combines two others
    and a staircase that one-entry rows clear in cascade.  Integer matrices
    hold Python ints, rational ones Fractions."""
    nrows = draw(st.integers(1, 10) if square else st.integers(0, 12))
    ncols = nrows if square else draw(st.integers(1, 10))
    rational = draw(st.booleans())
    small = (st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
             if rational else st.integers(-9, 9))

    def entry():
        v = draw(BIG) if draw(st.integers(0, 24)) == 0 else draw(small)
        return Fraction(v) if rational else v

    rows = []
    for _ in range(nrows):
        row = [Fraction(0) if rational else 0] * ncols
        if draw(st.integers(0, 4)) == 0:
            cols = range(ncols)
        else:
            cols = draw(st.lists(st.integers(0, ncols - 1), max_size=2))
        for j in cols:
            row[j] = entry()
        rows.append(row)
    if len(rows) > 2 and draw(st.booleans()):
        i, k = draw(st.permutations(range(len(rows))))[:2]
        a, b = entry(), entry()
        rows[i] = [a * x + b * y for x, y in zip(rows[i], rows[k])]
    if rows and draw(st.integers(0, 3)) == 0:
        # (a, b, 0), (0, c, d), (0, 0, e) in a drawn column order, and a
        # row repeated up to a scale factor, so some columns are forced
        # twice; a square matrix keeps its shape
        def nonzero():
            return entry() or (Fraction(1) if rational else 1)

        order = draw(st.permutations(range(ncols)))
        order = order[:draw(st.integers(1, min(len(order), len(rows))))]
        stair = []
        for k, j in enumerate(order):
            row = [Fraction(0) if rational else 0] * ncols
            row[j] = nonzero()
            if k + 1 < len(order):
                row[order[k + 1]] = nonzero()
            stair.append(row)
        if square:
            rows[:len(stair)] = stair
        else:
            rows.extend(stair)
        if len(rows) > 1 and draw(st.booleans()):
            i, k = draw(st.permutations(range(len(rows))))[:2]
            scale = nonzero()
            rows[i] = [scale * v for v in rows[k]]
        rows = draw(st.permutations(rows))
    return rows, ncols


def primitive_sympy(v):
    """A sympy vector scaled to coprime integers, leading entry positive."""
    den = lcm(*[int(x.q) for x in v])
    ints = [int(x.p) * (den // int(x.q)) for x in v]
    g = gcd(*ints)
    lead = next(n for n in ints if n)
    return [Fraction(n // g if lead > 0 else -n // g) for n in ints]


@settings(max_examples=150, deadline=None)
@given(engine_matrices())
def test_engine_matches_sympy(case):
    rows, ncols = case
    A = to_sympy([[Fraction(v) for v in r] for r in rows], ncols)
    assert rank(rows) == A.rank()
    assert nullspace(sparse_rows(rows), ncols) == [primitive_sympy(v)
                                                   for v in A.nullspace()]
    if rows:
        S, spivots = A.rref()
        assert rref(rows) == (from_sympy(S), list(spivots))


@settings(max_examples=100, deadline=None)
@given(engine_matrices(), st.data())
def test_engine_solve_matches_sympy(case, data):
    rows, ncols = case
    if not rows:
        return
    A = to_sympy([[Fraction(v) for v in r] for r in rows], ncols)
    rhs = [data.draw(st.integers(-9, 9)) for _ in rows]
    if data.draw(st.booleans()):  # consistent: rhs = A x0
        x0 = [data.draw(st.integers(-9, 9)) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(r, x0)) for r in rows]
    b = sympy.Matrix(rhs)
    x = solve(rows, rhs)
    try:
        S, params = A.gauss_jordan_solve(b)
    except ValueError:  # inconsistent
        assert x is None
        return
    # free coordinates are set to zero
    S = S.subs({p: 0 for p in params})
    assert x == [row[0] for row in from_sympy(S)]


@settings(max_examples=100, deadline=None)
@given(engine_matrices(square=True))
def test_engine_inverse_matches_sympy(case):
    rows, n = case
    A = to_sympy([[Fraction(v) for v in r] for r in rows], n)
    inv = inverse(rows)
    if A.det() == 0:
        assert inv is None
    else:
        assert inv == from_sympy(A.inv())


def _count_fractions(monkeypatch):
    """Count every Fraction constructed from now on, arithmetic included."""
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kw):
        made.append(args)
        return real_new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return made


@pytest.mark.parametrize("rational", [False, True])
def test_elimination_constructs_no_fraction(monkeypatch, rational):
    # a determining system and a rational matrix with 30-digit entries:
    # elimination runs on ints, Fractions appear only at the readout
    table = dcr_symbols()
    pde = EvolutionPDE(rhs=parse_pde("u_t = D(u^2,x,2)+D(u^2,x)+u^3", table),
                       table=table)
    basis = _ansatz_basis(4)
    rows = _determining_matrix(pde, basis)
    assert all(type(v) is int for r in rows for _, v in r)
    if rational:
        rows = [[(j, Fraction(v, 7) + Fraction(10 ** 30, 3)) for j, v in r]
                for r in rows]
    made = _count_fractions(monkeypatch)
    reduced = linalg._eliminate(rows)
    assert made == []
    assert all(type(v) is int for r in reduced.values() for v in r.values())
    basis_vectors = nullspace(rows, len(basis))
    # the readout builds one Fraction per nonzero entry of the basis
    assert len(made) == sum(1 for v in basis_vectors for x in v if x)


@st.composite
def sparse_input(draw):
    """Sparse rows as nullspace takes them, with the edge cases of the
    form: empty rows, rows whose only column is the last one, rows of
    Fractions whose denominators all differ, and rows mixing ints, 30-digit
    ints and Fractions."""
    ncols = draw(st.integers(1, 8))
    nonzero = st.integers(-9, 9).filter(bool)

    def row():
        kind = draw(st.sampled_from(["empty", "last", "fractions", "mixed"]))
        if kind == "empty":
            return []
        if kind == "last":
            return [(ncols - 1, draw(st.one_of(nonzero, BIG)))]
        cols = sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=1,
                                   max_size=3)))
        if kind == "fractions":
            dens = draw(st.lists(st.integers(2, 12), min_size=len(cols),
                                 max_size=len(cols), unique=True))
            # d and d + 1 are coprime, so each denominator stays as drawn
            return [(j, Fraction(draw(st.sampled_from([1, -1, d + 1, -d - 1])),
                                 d)) for j, d in zip(cols, dens)]
        value = st.one_of(nonzero, BIG, st.builds(Fraction, nonzero,
                                                  st.integers(1, 12)))
        return [(j, draw(value)) for j in cols]

    return [row() for _ in range(draw(st.integers(0, 10)))], ncols


@settings(max_examples=200, deadline=None)
@given(sparse_input())
def test_sparse_rows_match_sympy(case):
    rows, ncols = case
    dense = [[Fraction(0)] * ncols for _ in rows]
    for d, r in zip(dense, rows):
        for j, v in r:
            d[j] = Fraction(v)
    assert nullspace(rows, ncols) == [primitive_sympy(v) for v in
                                      to_sympy(dense, ncols).nullspace()]
    with pytest.MonkeyPatch.context() as mp:
        made = _count_fractions(mp)
        reduced = linalg._eliminate(rows)
    assert made == []
    assert all(type(v) is int for r in reduced.values() for v in r.values())


@pytest.mark.parametrize("rows", [
    # a permuted diagonal: every row has one entry from the start
    [[0, 0, 3, 0], [0, -2, 0, 0], [0, 0, 0, 5], [7, 0, 0, 0]],
    # a staircase: each forced column leaves the row above one entry
    [[2, 3, 0, 0], [0, 0, -1, 4], [0, 5, 7, 0], [0, 0, 0, 6]],
])
def test_one_entry_rows_need_no_row_update(monkeypatch, rows):
    # the presolve takes a one-entry row as its column's reduced row and
    # deletes the column from the other rows without arithmetic, so no
    # row update (and no gcd) runs
    calls = []
    real_gcd = linalg.gcd
    monkeypatch.setattr(linalg, "gcd",
                        lambda *a: calls.append(a) or real_gcd(*a))
    assert rref(rows) == (linalg.identity(4), [0, 1, 2, 3])
    assert calls == []


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
    # rational matrix, float vector
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
    # m^(1/2) is not rational at any sample, so the zero test cannot decide
    # it; each column's entry comes from the first row without a pivot
    # that is not zero in that column; the rank is read off the pivots only
    # when every row without one is literally zero on the left
    x, root_m = sym("x"), powx(sym("m"), Fraction(1, 2))
    O, I = rat(0), rat(1)
    assert solve_symbolic([[I], [O]], [[x, O, x], [O, x, root_m]]) == ([
        [x], None, "cannot decide consistency of symbolic system"], 1)
    assert solve_symbolic([[O], [root_m]], [[O, x], [x, O]]) == ([
        "cannot certify pivots of symbolic system", None], None)


def _primitive_by_fractions(v):
    """The former scaling: multiply each entry by the common denominator
    as a Fraction."""
    den = 1
    for x in v:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    if g:
        ints = [n // g for n in ints]
    lead = next((n for n in ints if n != 0), 1)
    if lead < 0:
        ints = [-n for n in ints]
    return [Fraction(n) for n in ints]


@pytest.mark.parametrize("v", [
    [],
    [Fraction(0), Fraction(0)],
    [Fraction(0), Fraction(-3, 4), Fraction(5, 6), Fraction(0)],
    [Fraction(-2, 3), Fraction(4, 9), Fraction(-1)],
    [Fraction(7), Fraction(-14), Fraction(21, 5)],
])
def test_primitive_scales_in_integers(v):
    got = _primitive(v)
    assert got == _primitive_by_fractions(v)
    assert all(type(x) is Fraction and x.denominator == 1 for x in got)


@settings(max_examples=150, deadline=None)
@given(st.lists(ENTRIES, max_size=9))
def test_primitive_matches_fraction_scaling(v):
    assert _primitive(v) == _primitive_by_fractions(v)


# -- the exact exponential -------------------------------------------------

# few distinct values, so that diagonals repeat and Jordan blocks occur
DIAGONAL = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2),
                            Fraction(2)])


@st.composite
def permuted_triangular(draw, min_n=1):
    """An upper triangular rational matrix up to 4x4, its basis permuted at
    random; returns the matrix and the permutation."""
    n = draw(st.integers(min_n, 4))
    perm = draw(st.permutations(range(n)))
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        M[perm[i]][perm[i]] = draw(DIAGONAL)
        for j in range(i + 1, n):
            M[perm[i]][perm[j]] = draw(ENTRIES)
    return M, perm


@settings(max_examples=25, deadline=None)
@given(permuted_triangular())
def test_exact_expm_matches_sympy(case):
    M, _ = case
    n = len(M)
    E = exact_expm(M, sym("eps"))
    S = (sympy.Symbol("eps") * to_sympy(M, n)).exp()
    for i in range(n):
        for j in range(n):
            diff = sympy.sympify(render(E[i][j])) - S[i, j]
            assert sympy.simplify(diff) == 0, (M, i, j)


@settings(max_examples=50, deadline=None)
@given(permuted_triangular(min_n=2), st.data())
def test_exact_expm_refuses_a_cycle(case, data):
    M, perm = case
    n = len(M)
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    # a nonzero pair M[a][b], M[b][a] is a 2-cycle: no basis order makes
    # the matrix triangular, whatever its spectrum
    a, b = perm[i], perm[j]
    M[a][b] = data.draw(st.sampled_from([Fraction(1), Fraction(-3, 2)]))
    M[b][a] = data.draw(st.sampled_from([Fraction(1), Fraction(2, 5)]))
    assert exact_expm(M, sym("eps")) is None


@pytest.mark.parametrize("name,i", [("A3,6", 2), ("A3,9", 0), ("A3,9", 1),
                                    ("A3,9", 2)])
def test_exact_expm_refuses_rotation_generators(name, i):
    M = ad_matrix_rational(canonical_class_by_name(name).algebra, i)
    assert exact_expm(M, sym("eps")) is None
