"""Fuzzed --params bindings against literal values, and fixed probes.

The fuzzer draws a rational m outside {0, 1}, a PDE, a field, a solution
and an epsilon whose texts hold m, and runs ``main(argv)`` in process twice:
once with ``--params m=q`` and once with ``(q)`` written into every text in
place of m.  Both calls must give the same exit code and the same human
report (the rendered residual, invariant, ODE or transformed solution),
with an exit code in 0-3, no traceback and no internal fault, in bounded
time.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from liesym.cli import main

CASE_SECONDS = 3.0
TOTAL_SECONDS = 4.0

PDES = ["u_t = D(u^{m},x,2)",
        "u_t = D(u^{m},x,2) + D(u^({m}+1),x)",
        "u_t = D(u,x,2) + {m}*u"]
COEFFS = ["0", "1", "{m}", "-{m}", "1/{m}", "({m}-1)", "2/({m}-1)",
          "{m}^2", "log({m}^2+1)"]
FIELD_MONOMIALS = ["1", "t", "x", "u", "x*u", "u^{m}"]
SOL_MONOMIALS = ["1", "x", "t", "x^2", "x^{m}", "exp({m}*x)",
                 "(x+{m}*t)^(1/({m}-1))", "log({m}-1)*x"]

m_value = st.fractions(min_value=-4, max_value=4,
                       max_denominator=4).filter(lambda q: q not in (0, 1))
term = st.tuples(st.sampled_from(COEFFS), st.sampled_from(FIELD_MONOMIALS))
field = st.tuples(term, term, term).map(
    lambda ts: " + ".join(f"({c})*{mono}*{d}"
                          for (c, mono), d in zip(ts, ("Dt", "Dx", "Du"))))
sol = st.lists(st.tuples(st.sampled_from(COEFFS),
                         st.sampled_from(SOL_MONOMIALS)),
               min_size=1, max_size=2).map(
    lambda ts: " + ".join(f"({c})*{mono}" for c, mono in ts))
epsilon = st.sampled_from(["{m}", "1/{m}", "2/({m}-1)", "1/2"])

COMMANDS = {
    "verify-symmetry": lambda pde, fld, s, eps: [
        "--pde", pde, "--field", fld],
    "verify-solution": lambda pde, fld, s, eps: ["--pde", pde, "--sol", s],
    "reduce": lambda pde, fld, s, eps: ["--pde", pde, "--field", fld],
    "transform-solution": lambda pde, fld, s, eps: [
        "--pde", pde, "--sol", s, "--field", fld, f"--epsilon={eps}"],
}


def _call(argv, capsys):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    report = [line for line in captured.out.splitlines()
              if not line.startswith("elapsed: ")]
    assert code in (0, 1, 2, 3), (argv, captured.err)
    assert "Traceback" not in captured.err, (argv, captured.err)
    assert "internal fault" not in captured.err, (argv, captured.err)
    assert elapsed < CASE_SECONDS, (argv, elapsed)
    return code, report


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_params_match_literal_values(command, capsys):
    start_all = time.perf_counter()

    @settings(max_examples=25, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m_value, st.sampled_from(PDES), field, sol, epsilon)
    def case(q, pde, fld, s, eps):
        texts = (pde, fld, s, eps)
        bound = COMMANDS[command](*(t.format(m="m") for t in texts))
        literal = COMMANDS[command](*(t.format(m=f"({q})") for t in texts))
        got = _call([command, *bound, "--params", f"m={q}"], capsys)
        want = _call([command, *literal], capsys)
        assert got == want, (q, literal)

    case()
    assert time.perf_counter() - start_all < TOTAL_SECONDS


def test_params_bind_the_field_of_verify_symmetry(capsys):
    # at m = 2 the field is x*Dx + 2*u*Du, a symmetry of u_t = (u^2)_xx;
    # the field's m once stayed symbolic, leaving (1 - m)^(-1) in the
    # residual and the verdict not-symmetry
    argv = ["verify-symmetry", "--pde", "u_t=D(u^m,x,2)",
            "--field", "x*Dx+2/(m-1)*u*Du"]
    assert main([*argv, "--params", "m=2"]) == 0
    assert "residual: 0" in capsys.readouterr().out
    assert main([*argv, "--params", "m=1"]) == 3
    assert ("division by zero substituting --params"
            in capsys.readouterr().err)


def test_params_bind_the_field_of_reduce(capsys):
    assert main(["reduce", "--pde", "u_t=D(u^m,x,2)", "--params", "m=2",
                 "--field", "Dt + m*Dx"]) == 0
    bound = capsys.readouterr().out
    assert main(["reduce", "--pde", "u_t=D(u^2,x,2)",
                 "--field", "Dt + 2*Dx"]) == 0
    literal = capsys.readouterr().out
    assert "reduced ODE: phi'(w) + phi'(w)^2 + phi(w)*phi''(w) = 0" in bound
    assert bound.splitlines()[:-1] == literal.splitlines()[:-1]


@pytest.mark.parametrize("argv,message", [
    (["--sol", "log(0)*x"], "log of zero (at position 0)"),
    (["--sol", "log(x-x)"], "log of zero (at position 0)"),
    (["--sol", "exp(log(0))"], "log of zero (at position 4)"),
    (["--pde", "u_t=D(u^m,x,2)", "--params", "m=1", "--sol", "log(m-1)"],
     "log of zero substituting --params"),
])
def test_log_of_zero_is_usage_error(argv, message, capsys):
    # log(0) was once kept as an opaque constant, so these passed as
    # solutions
    if "--pde" not in argv:
        argv = ["--pde", "u_t=D(u,x,2)", *argv]
    assert main(["verify-solution", *argv]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_log_of_negative_rational_is_kept(capsys):
    assert main(["verify-solution", "--pde", "u_t=D(u,x,2)",
                 "--sol", "log(-2)*x"]) == 0
    assert "solution" in capsys.readouterr().out


@pytest.mark.parametrize("argv,message", [
    (["verify-solution", "--pde", "u_t=1/u", "--sol", "0"],
     "substituting the solution into the PDE"),
    (["verify-solution", "--pde", "u_t=D(u^m,x,2)", "--params", "m=1/2",
      "--sol", "0*x"], "substituting the solution into the PDE"),
    (["transform-solution", "--pde", "u_t=D(u,x,2)", "--sol", "x",
      "--field", "u^(-1)*Du", "--epsilon", "1"],
     "eta must be c*u with constant c"),
])
def test_pole_in_a_solution_or_field_is_usage_error(argv, message, capsys):
    # found by the fuzzer: a zero solution of u_t = (u^(1/2))_xx and the
    # field u^(-1)*Du divided by zero and exited 4 (internal fault)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "internal fault" not in err
