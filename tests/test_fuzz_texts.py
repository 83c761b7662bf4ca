"""Fuzzed --field and --sol texts for verify-symmetry, verify-solution and
reduce.

The fuzzer builds expression texts from t, x, u, the parameter m, small
and 40-digit rationals, sums, products, quotients, powers (integer,
fractional, negative and symbolic), exp, log and D(., x), and mixes in
deep powers of sums such as ``(1+u)^40*(1+u)^(-1/2)``.  A field is three
such texts times Dt, Dx and Du.  Some texts lose or gain one character, so
that parse errors are reached too.  Each text goes through ``main(argv)``
in process: it must end with an exit code in 0-3, with no traceback and
no internal fault (exit 4), in under CASE_SECONDS.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from liesym.cli import main

CASE_SECONDS = 1.5
TOTAL_SECONDS = 3.0
EXAMPLES = 10

PDES = ["u_t = D(u,x,2)", "u_t = D(u^2,x,2) + u^3", "u_t = D(u^m,x,2)",
        "u_t = (1+u)^(1/2)*u_xx + u_x"]
BIG = 10 ** 40

atom = st.one_of(
    st.sampled_from(["t", "x", "u", "m", "0", "1", "2", "1/3", "-5/7",
                     str(BIG), f"1/{BIG}", "exp(1)"]),
    st.integers(-BIG, BIG).map(str))
exponent = st.sampled_from(["2", "3", "40", "-1", "-2", "1/2", "-1/2", "1/3",
                            "m", "(m-1)", "0", "-40"])


def _combine(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda ab: f"({ab[0]})+({ab[1]})"),
        pairs.map(lambda ab: f"({ab[0]})*({ab[1]})"),
        pairs.map(lambda ab: f"({ab[0]})/({ab[1]})"),
        st.tuples(children, exponent).map(lambda ab: f"({ab[0]})^{ab[1]}"),
        children.map(lambda a: f"exp({a})"),
        children.map(lambda a: f"log({a})"),
        children.map(lambda a: f"D({a},x)"))


deep = st.sampled_from(["(1+u)^40*(1+u)^(-1/2)", "(1+u)^40", "(x+t+u)^12",
                        "(1+u)^(-1/2)*(1+u)^(41/2)", "(1+x)^40*(1+x)^(-1/2)"])
piece = st.one_of(st.recursive(atom, _combine, max_leaves=6), deep)
field = st.tuples(piece, piece, piece).map(
    lambda c: f"({c[0]})*Dt + ({c[1]})*Dx + ({c[2]})*Du")


@st.composite
def mutated(draw, texts):
    """A text, or with probability 1/4 the text with one character deleted
    or one of the DSL's characters inserted."""
    text = draw(texts)
    if draw(st.integers(0, 3)):
        return text
    i = draw(st.integers(0, len(text) - 1))
    if draw(st.booleans()):
        return text[:i] + text[i + 1:]
    return text[:i] + draw(st.sampled_from("()+-*/^,=Dtxu0 ")) + text[i:]


COMMANDS = {
    "verify-symmetry": lambda fld, sol: ["--field", fld],
    "verify-solution": lambda fld, sol: ["--sol", sol],
    "reduce": lambda fld, sol: ["--field", fld],
}


def _call(argv, capsys):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err, (argv, err)
    assert "internal fault" not in err, (argv, err)
    assert elapsed < CASE_SECONDS, (argv, elapsed)
    return code


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_texts_end_in_a_verdict_or_usage_error(command, capsys):
    start_all = time.perf_counter()

    @settings(max_examples=EXAMPLES, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(st.sampled_from(PDES), mutated(field), mutated(piece))
    def case(pde, fld, sol):
        _call([command, "--pde", pde, *COMMANDS[command](fld, sol)], capsys)

    case()
    assert time.perf_counter() - start_all < TOTAL_SECONDS


@pytest.mark.parametrize("argv,code", [
    (["verify-symmetry", "--pde", "u_t = D(u^m,x,2)", "--field",
      "(1+u)^40*(1+u)^(-1/2)*Dt + (1+u)^40*(1+u)^(-1/2)*Du"], 2),
    # nonzero, but the zero test's sample points leave (1 + x)^(1/2)
    # irrational
    (["verify-solution", "--pde", "u_t = D(u,x,2)", "--sol",
      "(1+x)^40*(1+x)^(-1/2)"], 2),
    (["reduce", "--pde", "u_t = D(u,x,2)", "--field",
      "(1+x)^40*(1+x)^(-1/2)*Dt + Dx"], 3),
    (["verify-symmetry", "--pde", "u_t = D(u,x,2)", "--field",
      "(x+t+u)^12*Dx"], 1),
])
def test_deep_powers_of_a_sum(argv, code, capsys):
    assert _call(argv, capsys) == code


@pytest.mark.parametrize("command,sol,name", [
    ("verify-solution", "x*u^2", "u"),
    ("verify-solution", "u_xx + x", "u_xx"),
    ("transform-solution", "u", "u"),
])
def test_a_solution_naming_u_is_usage_error(command, sol, name, capsys):
    # found by the fuzzer: a --sol text in u was substituted for u with its
    # own u left standing, so u_t = u_xx called x*u^2 a solution
    argv = [command, "--pde", "u_t = D(u,x,2)", "--sol", sol]
    if command == "transform-solution":
        argv += ["--field", "Dx", "--epsilon", "1"]
    assert main(argv) == 3
    assert (f"--sol defines u, so it may not name {name}"
            in capsys.readouterr().err)
