"""Fuzzed reaction-diffusion-convection equations for find-symmetries.

The fuzzer draws u_t = a sum of c*D(u^k,x,n), c*u^k and c*u_x terms, with
k in {-2, ..., 3, 1/2, -1/3}, n in {1, 2} and small rational c, and a bound
b in {1, 2, 3}, and runs ``main(argv)`` in process at b and at b + 1.  Each
call must end with exit code 0 (constructed), 2 (not-closed: generators
whose brackets leave their span, or undecided) or 3 (usage error: an rhs
outside the ansatz), with no traceback and no internal fault, and both
calls together must take under CASE_SECONDS.  The ansatz spaces are
nested, so every generator found at b must lie in the span of those found
at b + 1, closed or not; sympy decides that by the rank of their
coefficient vectors.
"""

import json
import time

import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

from liesym import dsl
from liesym.cli import main
from liesym.expr import split_terms
from liesym.jets import dcr_symbols

CASE_SECONDS = 2.0
TOTAL_SECONDS = 6.0

power = st.sampled_from(["-2", "-1", "0", "1", "2", "3", "(1/2)", "(-1/3)"])
coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
term = st.one_of(
    st.builds(lambda c, k, n: f"({c})*D(u^{k},x,{n})", coeff, power,
              st.integers(1, 2)),
    st.builds(lambda c, k: f"({c})*u^{k}", coeff, power),
    st.builds(lambda c: f"({c})*u_x", coeff))
pde = st.lists(term, min_size=1, max_size=3).map(
    lambda ts: "u_t = " + " + ".join(ts))


def _search(text, bound, tmp_path, capsys):
    """Generators (None when no search document was written) and seconds
    of one in-process find-symmetries call."""
    out = tmp_path / "find.json"
    out.unlink(missing_ok=True)
    argv = ["find-symmetries", "--pde", text, "--bound", str(bound),
            "--out", str(out)]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err and "internal fault" not in err, (argv, err)
    if not out.exists():
        assert code, argv
        return None, elapsed
    report = json.loads(out.read_text())
    assert (report["verdict"], code) in (
        ("constructed", 0), ("not-closed", 2)), (argv, report["verdict"])
    assert report["certificates"]["closed"] == (code == 0), argv
    return report["certificates"]["generators"], elapsed


def _coordinates(generators):
    """Each generator as {(component, monomial factors): coefficient}."""
    table = dcr_symbols()
    out = []
    for text in generators:
        field = dsl.parse_vector_field(text, table)
        vec = {}
        for k, comp in enumerate(field):
            for c, factors, _ in split_terms(comp, lambda f: True):
                vec[(k, factors)] = c
        out.append(vec)
    return out


def _rank(vectors, keys):
    return sympy.Matrix([[v.get(k, 0) for k in keys] for v in vectors]).rank()


def test_find_symmetries_fuzz(tmp_path, capsys):
    start_all = time.perf_counter()

    @settings(max_examples=10, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pde, st.integers(1, 3))
    def case(text, bound):
        low, low_s = _search(text, bound, tmp_path, capsys)
        high, high_s = _search(text, bound + 1, tmp_path, capsys)
        assert low_s + high_s < CASE_SECONDS, (text, bound, low_s, high_s)
        if low is None or high is None:
            return
        small, large = _coordinates(low), _coordinates(high)
        keys = list({k for v in small + large for k in v})
        assert _rank(large + small, keys) == _rank(large, keys) == \
            len(large), (text, bound)

    case()
    assert time.perf_counter() - start_all < TOTAL_SECONDS
