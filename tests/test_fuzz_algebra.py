"""Fuzzed point-field algebras for bracket-table and identify.

The fuzzer draws 2-4 fields with coefficients in (t, x, u): either free
draws, per component, of small integer terms or of one term
c*(1+u)^(+-1/2)*t^a*x^b, which mostly do not close, or integer
recombinations of a basis of a fixed closed algebra, which do unless the
recombination is singular.  It runs ``main(argv)`` in process
with both commands.  Each call must end with exit code 0 (constructed or
verified), 2 (undecided) or 3 (a field list that is dependent or does not
close), with no traceback and no internal fault, in under CASE_SECONDS.
Where bracket-table finds the fields closed, every bracket it reports,
sum_k c_ij^k X_k, must equal the commutator [X_i, X_j] that sympy computes
from the drawn coefficients, as rational functions once u = s^2 - 1.
"""

import json
import time

import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

from liesym.cli import main

CASE_SECONDS = 2.0
TOTAL_SECONDS = 4.0

T, X, U = sympy.symbols("t x u")
VARS = (T, X, U)

# closed algebras of polynomial point fields, one basis each, by
# components (xi_t, xi_x, eta)
CLOSED = [
    # translations, a dilation and the u-scaling
    [(1, 0, 0), (0, 1, 0), (T, X, 0), (0, 0, U)],
    # projective sl(2) on the line plus the u-scaling
    [(0, 1, 0), (0, X, 0), (0, X**2, X * U), (0, 0, U)],
    # the Heisenberg algebra of the heat equation's Galilean boost
    [(0, 1, 0), (0, 2 * T, -X * U), (0, 0, U)],
    # a solvable algebra in u
    [(0, 0, 1), (0, 0, U), (0, U, 0), (0, 1, 0)],
]

small = st.integers(-3, 3)
monomial = st.tuples(small.filter(bool), st.integers(0, 2), st.integers(0, 2),
                     st.integers(0, 1))
component = st.one_of(
    st.lists(monomial, max_size=2).map(
        lambda ms: sum((c * T**a * X**b * U**k for c, a, b, k in ms),
                       sympy.Integer(0))),
    # c*(1+u)^(+-1/2)*t^a*x^b: a power of a sum, whose brackets meet it at
    # other exponents
    st.builds(lambda c, s, a, b: c * (1 + U)**sympy.Rational(s, 2)
              * T**a * X**b, small.filter(bool), st.sampled_from([1, -1]),
              st.integers(0, 2), st.integers(0, 2)))
free_field = st.tuples(component, component, component).filter(
    lambda f: any(f))
free_fields = st.lists(free_field, min_size=2, max_size=4)


@st.composite
def recombined_fields(draw):
    basis = draw(st.sampled_from(CLOSED))
    n = len(basis)
    rows = draw(st.lists(st.lists(small, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return [tuple(sum((r * sympy.sympify(f[k]) for r, f in zip(row, basis)),
                      sympy.Integer(0)) for k in range(3))
            for row in rows if any(row)]


fields = st.one_of(free_fields, recombined_fields()).filter(
    lambda fs: len(fs) >= 2)


def _dsl(e) -> str:
    return str(sympy.expand(e)).replace("sqrt(u + 1)", "(u + 1)^(1/2)") \
        .replace("**", "^")


def _text(fs) -> str:
    return "; ".join(
        " + ".join(f"({_dsl(c)})*{d}" for c, d in zip(f, ("Dt", "Dx", "Du"))
                   if c != 0)
        for f in fs)


def _bracket(a, b):
    """[a, b] componentwise: a(b_k) - b(a_k)."""
    def apply(f, g):
        return sum(fc * sympy.diff(g, v) for fc, v in zip(f, VARS))
    return [apply(a, bk) - apply(b, ak) for ak, bk in zip(a, b)]


#: u = s^2 - 1 with s > 0 makes (1 + u)^(1/2) the rational function s
S = sympy.Symbol("s", positive=True)


def _vanishes(e) -> bool:
    return sympy.cancel(e.subs(U, S**2 - 1)) == 0


def _run(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(argv + ["--out", str(out)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err and "internal fault" not in err, (argv, err)
    assert elapsed < CASE_SECONDS, (argv, elapsed)
    return code, json.loads(out.read_text()) if code in (0, 2) else None


def test_bracket_table_and_identify_fuzz(tmp_path, capsys):
    start_all = time.perf_counter()

    @settings(max_examples=25, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fields)
    def case(fs):
        text = _text(fs)
        code, report = _run(["bracket-table", "--algebra", text], tmp_path,
                            capsys)
        _run(["identify", "--algebra", text], tmp_path, capsys)
        if code:
            return
        brackets = report["certificates"]["brackets"]
        assert len(brackets) == len(fs) * (len(fs) - 1) // 2
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                consts = [sympy.Rational(c)
                          for c in brackets[f"[e{i + 1},e{j + 1}]"]]
                want = _bracket(fs[i], fs[j])
                got = [sum((c * sympy.sympify(f[k])
                            for c, f in zip(consts, fs)), sympy.Integer(0))
                       for k in range(3)]
                assert all(_vanishes(g - w) for g, w in zip(got, want)), \
                    (text, i, j)

    case()
    assert time.perf_counter() - start_all < TOTAL_SECONDS
