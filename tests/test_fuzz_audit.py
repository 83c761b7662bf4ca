"""Fuzzed candidate lists for audit-system, and two fixed probes.

The fuzzer draws 2-3 candidate lines with rational entries, 40-digit ones
included, on three algebras and runs ``main(argv)`` in process.  Every case
must end with a verdict exit code (0 clean, 1 flagged, 2 undecided), with no
traceback on stderr, in bounded time.
"""

import json
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

ALGEBRAS = {
    "A3,5": (3, ["--algebra", "case:eq5", "--params", "m=2,p=3"]),
    "2A2": (4, ["--algebra", "Dx; x*Dx; Du; u*Du"]),
    "A3,8+A1": (4, ["--algebra", "Dx; x*Dx; x^2*Dx; Dt"]),
}
CASE_SECONDS = 3.0

small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
big = st.builds(lambda n, d, s: Fraction(s * n, d),
                st.integers(10 ** 39, 10 ** 40), st.integers(1, 10 ** 40),
                st.sampled_from([1, -1]))
entry = st.one_of(st.just(Fraction(0)), small, big)


def _write_candidates(path: Path, lines) -> None:
    path.write_text("".join(", ".join(str(c) for c in line) + "\n"
                            for line in lines))


def _audit(tmp: Path, argv_algebra, lines, *extra):
    cands = tmp / "cands.txt"
    out = tmp / "audit.json"
    _write_candidates(cands, lines)
    return main(["audit-system", *argv_algebra, "--candidates", str(cands),
                 "--samples", "20", "--seed", "5", "--out", str(out),
                 *extra]), out


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_audit_system_fuzz(name, tmp_path_factory, capsys):
    dim, argv_algebra = ALGEBRAS[name]
    line = st.lists(entry, min_size=dim, max_size=dim).filter(any)

    @settings(max_examples=12, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(line, min_size=2, max_size=3))
    def case(lines):
        tmp = tmp_path_factory.mktemp("fuzz")
        start = time.perf_counter()
        code, _ = _audit(tmp, argv_algebra, lines)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (lines, err)
        assert "Traceback" not in err and "internal fault" not in err
        assert elapsed < CASE_SECONDS, (lines, elapsed)

    case()


def test_a38_probe_flags_no_pair(tmp_path, capsys):
    """e2 + e4 and (1 + 10^-12) e2 + e4 on A3,8+A1 differ in the invariant
    Q = c2^2 + 4 c1 c3; a float comparison within 1e-9 once called them
    conjugate via the identity."""
    near = Fraction(10 ** 12 + 1, 10 ** 12)
    code, out = _audit(tmp_path, ALGEBRAS["A3,8+A1"][1],
                       [(0, 1, 0, 1), (0, near, 0, 1)])
    doc = json.loads(out.read_text())
    assert code == 1   # two frozen lines leave coverage gaps
    assert doc["certificates"]["pairs"] == []
    assert doc["certificates"]["duplicates"] == []
    assert "conjugate pair" not in capsys.readouterr().out


def test_factorize_probe_is_undecided_quickly():
    """(10^40+1)^(1/2) needs the prime factors of 10^40 + 1, one of which
    is far beyond trial division: a bounded undecided, not a hang."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "liesym.cli", "verify-solution",
         "--pde", "u_t = D(u,x,2)", "--sol", "(10^40+1)^(1/2)"],
        env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert time.perf_counter() - start < 2
    assert "undecided" in proc.stderr and "Traceback" not in proc.stderr
