"""Fuzzed family instances for equiv and normalize.

The fuzzer draws instances of the diffusion-convection-reaction family by
their parameters m, p, b0, b1, c0 and c1, each absent (m and p then stay
symbolic, the coefficients 0), zero, a small rational, or a rational with
up to 40 digits, and runs ``main(argv)`` in process on
``equiv --a --b`` and on ``normalize --instance`` with each ``--target``
and with ``--drift``.  Each call must end with exit code 0 (equivalent or
constructed), 1 (not-equivalent), 2 (undecided) or 3 (usage error: no
scaling exists, or an input outside what the command decides), with no
traceback and no internal fault (exit 4), in under CASE_SECONDS.
"""

import time

from hypothesis import HealthCheck, given, settings, strategies as st

from liesym.cli import main

CASE_SECONDS = 1.0
TOTAL_SECONDS = 3.0
EXAMPLES = 15

NAMES = ("m", "p", "b0", "b1", "c0", "c1")
BIG = 10 ** 40

value = st.one_of(
    st.just(0),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.integers(-BIG, BIG),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-BIG, BIG),
              st.integers(1, BIG)))
#: the parameters of an instance, each bound to a value; m and p, which
#: equiv and normalize need rational, are mostly present
instance = st.one_of(
    st.fixed_dictionaries({"m": value, "p": value},
                          optional={n: value for n in NAMES[2:]}),
    st.fixed_dictionaries({}, optional={n: value for n in NAMES}))
#: pairs with b given a's exponents, so that the matching systems are
#: reached, and pairs drawn apart
pair = st.one_of(
    st.tuples(instance, instance).map(lambda ab: (ab[0], {
        **ab[1], **{k: v for k, v in ab[0].items() if k in ("m", "p")}})),
    st.tuples(instance, instance))
target = st.sampled_from([["--target", t] for t in ("b0", "b1", "c0", "c1")]
                         + [["--drift"]])


def _spec(params):
    return ",".join(f"{k}=({v})" for k, v in params.items()) or "m=2"


def _call(argv, capsys):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err and "internal fault" not in err, (argv, err)
    assert elapsed < CASE_SECONDS, (argv, elapsed)


def test_equiv_fuzz(capsys):
    start_all = time.perf_counter()

    @settings(max_examples=EXAMPLES, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pair)
    def case(ab):
        _call(["equiv", "--a", _spec(ab[0]), "--b", _spec(ab[1])], capsys)

    case()
    assert time.perf_counter() - start_all < TOTAL_SECONDS


def test_normalize_fuzz(capsys):
    start_all = time.perf_counter()

    @settings(max_examples=EXAMPLES, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(instance, target)
    def case(spec, option):
        _call(["normalize", "--instance", _spec(spec), *option], capsys)

    case()
    assert time.perf_counter() - start_all < TOTAL_SECONDS
