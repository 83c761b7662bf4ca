"""Fuzzed affine fields for transform-solution, and four fixed probes.

The fuzzer draws fields a1*t*Dt + a0*Dt + (b1*t + b2*x + b0)*Dx + c*u*Du
with zero, small rational and 30-digit coefficients, and a small rational
epsilon, and runs ``main(argv)`` in process on two heat solutions.  Every
case must end with a verdict exit code (0 solution, 1 not-solution,
2 undecided), with no traceback on stderr, in bounded time.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from liesym.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
HEAT = ["--pde", "u_t = D(u,x,2)"]
CASE_SECONDS = 3.0
TOTAL_SECONDS = 10.0

small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
big = st.builds(lambda n, s: Fraction(s * n), st.integers(10 ** 29, 10 ** 30),
                st.sampled_from([1, -1]))
coeff = st.one_of(st.just(Fraction(0)), small, big)
epsilon = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def _field(a1, a0, b1, b2, b0, c) -> str:
    return (f"({a1})*t*Dt + ({a0})*Dt + (({b1})*t + ({b2})*x + ({b0}))*Dx "
            f"+ ({c})*u*Du")


@pytest.mark.parametrize("sol", ["x", "x^2+2*t"])
def test_transform_solution_fuzz(sol, capsys):
    start_all = time.perf_counter()

    # the zero field has no term, a usage error (exit 3), so it is left out
    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(coeff, min_size=6, max_size=6).filter(any), epsilon)
    def case(cs, eps):
        field = _field(*cs)
        start = time.perf_counter()
        code = main(["transform-solution", *HEAT, "--sol", sol,
                     "--field", field, f"--epsilon={eps}"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (field, eps, err)
        assert "Traceback" not in err and "internal fault" not in err
        assert elapsed < CASE_SECONDS, (field, eps, elapsed)

    case()
    assert time.perf_counter() - start_all < TOTAL_SECONDS


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "liesym.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=10)
    return proc, time.perf_counter() - start


def test_large_scaling_flow_is_a_solution_quickly():
    """A 31-digit diagonal entry once sent the flow through a rational-root
    search over its divisors; a triangular flow reads its spectrum off the
    diagonal."""
    proc, elapsed = _cli("transform-solution", *HEAT, "--sol", "x",
                         "--field", "(10^30+1)*x*Dx + 2*t*Dt",
                         "--epsilon", "1/2")
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 2
    assert "verification: solution" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["verify-solution", *HEAT, "--sol", "x^(10^7)"],
    ["transform-solution", *HEAT, "--sol", "x^2", "--field", "(10^7)*x*Dx",
     "--epsilon", "1"],
    ["verify-solution", *HEAT, "--sol", "2^(10^7)*x^2"],
], ids=["sample-power", "exp-stand-in-power", "literal-power"])
def test_huge_power_is_undecided_quickly(argv):
    """Powers past MAX_POWER_BITS are refused (a literal) or skip the
    sample (an evaluation): a bounded undecided, not a hang or a fault."""
    proc, elapsed = _cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert elapsed < 2
    assert "undecided" in proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "internal fault" not in proc.stderr
