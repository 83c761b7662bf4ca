"""Command-line behavior: exit codes, determinism, report schema."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from liesym.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    return main(argv)


class TestExitCodes:
    def test_verify_symmetry_pass(self, capsys):
        code = run(["verify-symmetry",
                    "--pde", "u_t = D(u^2,x,2) + D(u^2,x)",
                    "--field", "-t*Dt + u*Du"])
        assert code == 0
        assert "symmetry" in capsys.readouterr().out

    def test_verify_symmetry_refuted(self, capsys):
        code = run(["verify-symmetry",
                    "--pde", "u_t = D(u^2,x,2) + D(u^2,x)",
                    "--field", "-t*Dt - t*Dx + u*Du"])
        assert code == 1
        out = capsys.readouterr().out
        assert "not-symmetry" in out
        assert "u_x" in out

    def test_verify_solution_case(self, capsys):
        assert run(["verify-solution", "--pde", "case:eq1",
                    "--sol", "1"]) == 0
        assert run(["verify-solution", "--pde", "u_t = D(u,x,2)",
                    "--sol", "(10^400)^(1/2)"]) == 0

    def test_verify_solution_with_huge_root_index_is_quick(self):
        # sampling takes a root of index about 1.8e9 of the stand-in for e;
        # the residual is not zero, but until the zero test can certify it
        # the verdict stays undecided, reached in bounded time
        start = time.perf_counter()
        assert run(["verify-solution", "--pde", "u_t = D(u,x,2)",
                    "--sol", "(1+exp(x+t))^(-1)*exp(x+t)"]) == 2
        assert time.perf_counter() - start < 2

    def test_oversized_power_expansion_is_undecided(self, capsys):
        # (u+x+t+1)^200 would expand to 1373701 terms: the size limit stops
        # it at once with a one-line reason
        start = time.perf_counter()
        assert run(["verify-symmetry", "--pde", "u_t=(u+x+t+1)^200",
                    "--field", "Dx"]) == 2
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert err.startswith("undecided: expanding a 4-term sum to the "
                              "power 200")
        assert err.count("\n") == 1

    def test_verify_solution_refuted(self):
        assert run(["verify-solution", "--pde", "u_t = D(u,x,2)",
                    "--sol", "x^2"]) == 1

    def test_usage_error(self, capsys):
        assert run(["verify-symmetry", "--pde", "u_t = u_x",
                    "--field", "q*Dt"]) == 3

    @pytest.mark.parametrize("argv", [
        ["transform-solution", "--pde", "u_t = D(u,x,2)", "--sol", "x",
         "--field", "0*Dt", "--epsilon", "1"],
        ["verify-symmetry", "--pde", "u_t = D(u,x,2)", "--field", "0*Dx"],
    ])
    def test_zero_field_is_named(self, capsys, argv):
        # the canonical sum of a zero field is the literal 0 and has no
        # term, so no term is to blame for a missing Dt, Dx or Du
        assert run(argv) == 3
        assert "the vector field is zero" in capsys.readouterr().err

    def test_unknown_case(self):
        assert run(["verify-solution", "--pde", "case:nope",
                    "--sol", "1"]) == 3

    def test_audit_flags_bad_candidates(self, tmp_path, capsys):
        cand = tmp_path / "c.txt"
        cand.write_text("1, 0, 0\n0, 1, 0\n0, 0, 1\n1, 1, 0\n-15/2, 0, 1\n")
        code = run(["audit-system", "--algebra", "case:eq5",
                    "--params", "m=2,p=3", "--candidates", str(cand),
                    "--samples", "200"])
        assert code == 1
        assert "pairs flagged: 1" in capsys.readouterr().out

    def test_audit_accepts_own_system(self, tmp_path, capsys):
        cand = tmp_path / "c.txt"
        cand.write_text("0, 0, 1\n1, 0, 0\n0, 1, 0\n1, 1, 0\n")
        code = run(["audit-system", "--algebra", "case:eq5",
                    "--params", "m=2,p=3", "--candidates", str(cand),
                    "--samples", "200"])
        assert code == 0

    def test_audit_rejects_zero_candidate(self, tmp_path, capsys):
        # the zero line spans no subalgebra: a usage error wherever it sits
        lines = ["0, 0, 1", "1, 0, 0", "0, 1, 0", "1, 1, 0"]
        for order in (["0, 0, 0"] + lines, lines + ["0, 0, 0"]):
            cand = tmp_path / "c.txt"
            cand.write_text("\n".join(order) + "\n")
            code = run(["audit-system", "--algebra", "case:eq5",
                        "--params", "m=2,p=3", "--candidates", str(cand),
                        "--samples", "50"])
            assert code == 3
            assert "zero vector" in capsys.readouterr().err

    @pytest.mark.parametrize("decl,message", [
        ("a postive", "unknown parameter kind 'postive'"),
        ("a b c", "needs the form 'name [kind]'"),
    ])
    def test_audit_rejects_bad_parameter_declaration(self, tmp_path, capsys,
                                                     decl, message):
        # a misspelled kind must not silently mean "any"
        cand = tmp_path / "c.txt"
        cand.write_text(f"1, 0, 0\n0, 1, 0\n0, 0, 1\n1, a, 0 | {decl}\n")
        code = run(["audit-system", "--algebra", "case:eq5",
                    "--params", "m=2,p=3", "--candidates", str(cand),
                    "--samples", "50"])
        assert code == 3
        assert message in capsys.readouterr().err

    def test_unclosed_search_is_not_constructed(self, tmp_path, capsys):
        # the heat equation's nine bound-2 generators do not close, so the
        # search proved less than "constructed": its own verdict, exit 2
        out = tmp_path / "find.json"
        assert run(["find-symmetries", "--pde", "u_t = D(u,x,2)",
                    "--out", str(out)]) == 2
        assert "bracket closure violations" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "not-closed"
        assert doc["certificates"]["count"] == 9
        assert doc["certificates"]["closed"] is False

    def test_identify(self, capsys):
        assert run(["identify", "--algebra", "case:eq5",
                    "--params", "m=2,p=3"]) == 0
        assert "A3,5" in capsys.readouterr().out

    def test_reduce(self, capsys):
        assert run(["reduce", "--pde", "case:eq4", "--params", "m=2,p=1",
                    "--field", "Dt + 3*Dx"]) == 0
        assert "phi" in capsys.readouterr().out

    def test_regress_subset(self, capsys):
        # an alias selects its case; --cases with no ids runs every case
        for cases in (["heat"], ["eq5"], []):
            assert run(["regress", "--samples", "20", "--cases", *cases]) == 0
            assert "total: 0," not in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_regress_basis_that_does_not_close_is_refuted(self, tmp_path,
                                                          capsys, jobs):
        params = 'params: {m: "2", p: "1", b0: "0", b1: "0", c0: "0", c1: "0"}'
        cat = tmp_path / "cases.yaml"
        cat.write_text(f"cases:\n"
                       f"  - {{id: fine, {params}, basis: [Dt, Dx]}}\n"
                       f"  - {{id: open, {params}, basis: [Dx, x^3*Dx],\n"
                       f"     samples: [{{label: A2}}]}}\n")
        assert run(["regress", "--catalog", str(cat), "--jobs", jobs]) == 1
        out = capsys.readouterr().out
        assert "[pass] fine: bracket closure" in out
        assert ("[FAIL] open: [-] identifies as A2 -- bracket [e1, e2] "
                "leaves the span") in out

    def test_audit_family_with_pole(self, tmp_path, capsys):
        # 1/a has a pole at a = 0: the family is probed where it is defined
        cand = tmp_path / "c.txt"
        cand.write_text("1/a, 1 | a nonzero\n1, 0\n")
        assert run(["audit-system", "--algebra", "Dx; x*Dx",
                    "--candidates", str(cand), "--samples", "100"]) == 0
        assert "clean" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["normalize", "--instance", "m2"], "name=value"),
        (["normalize", "--instance", "m=2,q=1"], "unknown instance "
                                                 "parameter 'q'"),
        (["find-symmetries", "--pde", "u_t = D(u,x,2)", "--bound", "0"],
         "--bound: must be >= 1"),
        (["optimal-system", "--algebra", "Dx; x*Dx", "--samples", "-1"],
         "--samples: must be >= 0"),
        (["regress", "--jobs", "0"], "--jobs: must be >= 1"),
        (["regress", "--jobs", "-3"], "--jobs: must be >= 1"),
        (["find-symmetries", "--pde", "u_t=D(u,x,2)/0"], "division by zero"),
        (["verify-symmetry", "--pde", "u_t=1/0", "--field", "Dx"],
         "division by zero"),
        (["verify-symmetry", "--pde", "u_t = D(u,x,2)/m", "--params", "m=0",
          "--field", "Dx"], "division by zero substituting --params"),
        (["regress", "--cases", "nope"], "unknown case id 'nope'"),
        (["bracket-table", "--algebra", ";"], "names no vector field"),
        (["identify", "--algebra", " ; ; "], "names no vector field"),
        # u^0 diffuses nothing: no member of the family, whatever the
        # command (drift removal used to construct one)
        (["normalize", "--instance", "m=0,b0=3", "--drift"],
         "diffusion exponent m must be nonzero"),
        (["normalize", "--instance", "m=(0),p=1,b0=3", "--target", "b0"],
         "diffusion exponent m must be nonzero"),
        (["equiv", "--a", "m=0,p=1", "--b", "m=2,p=1"],
         "diffusion exponent m must be nonzero"),
    ])
    def test_bad_input_is_usage_error(self, argv, message, capsys):
        # exit 1 would read as "refuted"; bad input is a usage error
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,position", [
        (["find-symmetries", "--pde", "u_t=D(u,x,2)/0"], 12),
        (["verify-symmetry", "--pde", "u_t=1/0", "--field", "Dx"], 5),
    ])
    def test_parse_error_position_counts_from_typed_text(self, argv,
                                                         position, capsys):
        # the offset of the '/' in the --pde argument, not in its rhs
        assert run(argv) == 3
        assert f"(at position {position})" in capsys.readouterr().err


class TestInternalFault:
    """An unexpected exception exits 4, never 1 ("refuted"), with one line
    on stderr."""

    def test_unexpected_exception(self, monkeypatch, capsys):
        def boom(L):
            raise KeyError("no such class")

        monkeypatch.setattr("liesym.cli.identify", boom)
        assert run(["identify", "--algebra", "Dx; x*Dx"]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("internal fault: KeyError")

    def test_failed_reverification(self, monkeypatch, capsys):
        # a determining-system solution that fails its own invariance check
        # is the program's fault, not the input's
        from liesym import symmetry

        monkeypatch.setattr(symmetry, "_residual",
                            lambda pde, *components: pde.rhs)
        assert run(["find-symmetries", "--pde", "u_t = D(u,x,2)"]) == 4
        assert "failed re-verification" in capsys.readouterr().err

    def test_audit_classifier_fault(self, tmp_path, monkeypatch, capsys):
        # a classifier bug on a sample is a fault, not an undecided sample
        from liesym import optimal

        lines = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        real = optimal.ClassifiedAlgebra.classify

        def classify(self, v):
            if tuple(v) not in lines:
                raise RuntimeError("classifier bug")
            return real(self, v)

        monkeypatch.setattr(optimal.ClassifiedAlgebra, "classify", classify)
        cand = tmp_path / "c.txt"
        cand.write_text("".join(f"{a}, {b}, {c}\n" for a, b, c in lines))
        assert run(["audit-system", "--algebra", "case:eq5",
                    "--params", "m=2,p=3", "--candidates", str(cand),
                    "--samples", "50"]) == 4
        assert capsys.readouterr().err.startswith(
            "internal fault: RuntimeError")


class TestReports:
    def test_structured_document(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        run(["verify-symmetry", "--pde", "u_t = D(u,x,2)",
             "--field", "Dt", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert set(doc) == {"tool_version", "command", "inputs", "verdict",
                            "certificates", "seed"}
        assert doc["verdict"] == "symmetry"

    def test_byte_identical_reports(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["optimal-system", "--algebra", "case:eq5",
                "--params", "m=2,p=3", "--samples", "150", "--seed", "42"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_recorded(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        run(["optimal-system", "--algebra", "case:eq5",
             "--params", "m=2,p=3", "--samples", "100", "--seed", "7",
             "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 7


def test_closed_stdout_pipe(tmp_path):
    # the reader is gone before the first line is printed: --out is still
    # written, and the exit code is the verdict's (the heat equation's nine
    # bound-2 generators do not close: not-closed, 2), not a traceback's 1
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "liesym.cli", "find-symmetries",
            "--pde", "u_t = D(u,x,2)"]
    whole = subprocess.run(argv + ["--out", str(tmp_path / "whole.json")],
                           env=env, capture_output=True, timeout=60)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv + ["--out", str(tmp_path / "cut.json")],
                              env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == whole.returncode == 2
    assert proc.stderr == ""
    assert ((tmp_path / "cut.json").read_bytes()
            == (tmp_path / "whole.json").read_bytes())


_VERIFY = ["verify-symmetry", "--pde", "u_t = D(u,x,2)", "--field", "Dt"]
_NORMALIZE = ["normalize", "--instance", "m=2,p=1,c1=4"]
_EQUIV = ["equiv", "--a", "m=2,p=1,c1=4", "--b", "m=2,p=1,c1=4"]
_UNREAD = [
    (_VERIFY, "--seed"),
    (["find-symmetries", "--pde", "u_t = D(u,x,2)"], "--seed"),
    (_NORMALIZE, "--seed"),
    (_NORMALIZE, "--params"),
    (_NORMALIZE, "--catalog"),
    (_EQUIV, "--seed"),
    (_EQUIV, "--params"),
    (_EQUIV, "--catalog"),
    (["bracket-table", "--algebra", "Dx"], "--seed"),
    (["identify", "--algebra", "Dx"], "--seed"),
    (["reduce", "--pde", "u_t = D(u,x,2)", "--field", "Dt"], "--seed"),
    (["verify-solution", "--pde", "u_t = D(u,x,2)", "--sol", "1"], "--seed"),
    (["transform-solution", "--pde", "u_t = D(u,x,2)", "--sol", "x",
      "--field", "Dt", "--epsilon", "1"], "--seed"),
    (["regress", "--cases", "heat"], "--params"),
]


@pytest.mark.parametrize("argv,option", _UNREAD,
                         ids=[f"{a[0]} {o}" for a, o in _UNREAD])
def test_subcommands_reject_options_they_do_not_read(argv, option, capsys):
    # --seed goes with --samples, --params and --catalog with --pde or
    # --algebra (and regress reads --catalog)
    assert run(argv + [option, "1"]) == 3
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    assert run(["verify-symmetry", "--pde", "u_t = D(u,x,2)", "--field", "Dt",
                "--out", str(tmp_path / "missing" / "rep.json")]) == 3
    assert capsys.readouterr().err.startswith("usage error: cannot write")


def test_oversized_product_coefficient_is_undecided():
    # each power stays under MAX_POWER_BITS, but their product has about
    # 5400 digits, past the 4300 that int-to-str conversion allows: the
    # product's bound answers undecided instead of faulting in the renderer
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "liesym.cli", "verify-solution",
         "--pde", "u_t = D(u,x,2)", "--sol", "2^4000*3^4000*7^2700*x^2"],
        env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("undecided: a product's coefficient")


@pytest.mark.parametrize("algebra,code,err", [
    # sampling cannot certify the pivot m^(1/2): membership is undecided
    ("Dx; m^(1/2)*Dt", 2, "undecided: cannot decide whether [e1, e2]"),
    # [Dx, x^3*Dx] = 3*x^2*Dx provably leaves the span
    ("Dx; x*Dx; x^3*Dx", 3, "error: bracket [e1, e3] leaves the span"),
    # a power of a positive rational is a certified pivot
    ("Dx; 2^(1/2)*Dt", 0, ""),
])
def test_bracket_table_span_verdicts(capsys, algebra, code, err):
    assert run(["bracket-table", "--algebra", algebra]) == code
    assert capsys.readouterr().err.startswith(err)


def test_oversized_ansatz_bound_is_undecided():
    # a bound-1000 ansatz has 2006004 unknowns; the search refuses it before
    # allocating one dense row per monomial of its determining system
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "liesym.cli", "find-symmetries",
         "--pde", "u_t = D(u^2,x,2)+D(u^2,x)+u^3", "--bound", "1000"],
        env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("undecided: ansatz bound 1000 has 2006004")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("module", ["yaml", "numpy", "dataclasses",
                                    "inspect", "hashlib"])
def test_import_leaves_module_out(module):
    # every CLI call pays for what importing liesym.cli loads: yaml is
    # imported only where a catalog is read, hashlib only where the zero
    # test samples, and records are classes that need no dataclasses
    # (which would pull in inspect)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, liesym.cli; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["bracket-table", "--algebra", "case:eq5"],
    ["identify", "--algebra", "case:eq5", "--params", "m=2,p=3"],
    ["regress", "--cases", "heat", "--samples", "10"],
], ids=["bracket-table", "identify", "regress"])
def test_packaged_catalog_calls_leave_yaml_out(argv):
    # the packaged catalogs are read with json: only a user --catalog file
    # needs PyYAML
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from liesym.cli import main; "
         f"code = main({argv!r}); print(code, 'yaml' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_regress_with_jobs_loads_no_pool_module():
    # regress --jobs forks its workers itself: neither concurrent.futures
    # nor multiprocessing is imported, even where two workers run
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}\n"
         "from liesym.cli import main\n"
         "code = main(['regress', '--jobs', '2', '--samples', '10'])\n"
         "print(code, sorted({'concurrent.futures', 'multiprocessing'}"
         " & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_regress_jobs_do_not_change_the_report(tmp_path, capsys,
                                               monkeypatch):
    # the whole packaged catalog at the default samples, with two processes
    # sharing the cases wherever the test runs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    docs, stdout = [], []
    for jobs in ("1", "2"):
        out = tmp_path / f"regress-{jobs}.json"
        assert main(["regress", "--jobs", jobs, "--out", str(out)]) == 0
        docs.append(out.read_bytes())
        stdout.append([line for line in capsys.readouterr().out.splitlines()
                       if not line.startswith("elapsed")])
    assert json.loads(docs[1])["inputs"]["jobs"] == 2
    assert docs[1].count(b'"jobs": 2') == 1
    assert docs[1].replace(b'"jobs": 2', b'"jobs": 1') == docs[0]
    assert stdout[0] and stdout[0] == stdout[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_import_loads_every_traced_module():
    # bench/run.py --trace 1 patches the functions in its TARGETS through
    # sys.modules after importing liesym.cli, so a lazy import there breaks
    # the trace
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bench = Path(__file__).resolve().parent.parent / "bench"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, liesym.cli\n"
         "loaded = set(sys.modules)\n"
         f"sys.path.insert(0, {str(bench)!r})\n"
         "from run import TARGETS\n"
         "print(sorted({t[0] for t in TARGETS} - loaded))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
