"""Catalog loading, schema validation, and the self-certifying regression."""

import json
import os
import textwrap
import threading
import time
from importlib import resources
from types import SimpleNamespace

import pytest
import yaml

from liesym import catalog as catalog_module
from liesym.algebra import NotClosedError
from liesym.dsl import parse_vector_field
from liesym.jets import dcr_symbols
from liesym.catalog import CatalogError, load_catalog, run_regression


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def test_load_builtin(catalog):
    assert {"eq1", "eq4", "eq5", "ovsiannikov", "special-case",
            "heat"} <= set(catalog)
    assert catalog["eq5"] is catalog["eq4"]


def test_schema_violation(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("cases:\n  - id: broken\n    basis: []\n")
    with pytest.raises(CatalogError) as err:
        load_catalog(str(bad))
    assert "params" in str(err.value)
    assert "cases[0]" in str(err.value)


def test_not_yaml(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("cases: [unbalanced")
    with pytest.raises(CatalogError):
        load_catalog(str(bad))


@pytest.mark.parametrize("name", ["cases.yaml", "algebra_catalog.yaml"])
def test_packaged_catalog_is_json_and_yaml(name):
    # liesym parses the packaged catalogs with json; a YAML reader of the
    # same file (bench/checks.py reads cases.yaml) must build the same data
    text = (resources.files("liesym") / "data" / name).read_text()
    assert json.loads(text) == yaml.safe_load(text)


def test_json_catalog_file_loads(tmp_path, catalog):
    # a --catalog file goes through PyYAML, which reads JSON too: the
    # packaged catalog given as a file loads the same cases
    path = tmp_path / "cases.json"
    path.write_text(
        (resources.files("liesym") / "data" / "cases.yaml").read_text())
    again = load_catalog(str(path))
    assert list(again) == list(catalog)
    for name, case in catalog.items():
        assert again[name].params == case.params
        assert again[name].basis_text == case.basis_text


def test_full_regression_passes(catalog):
    report = run_regression(catalog, audit_samples=150)
    assert report.ok, report.summary()


def test_injected_wrong_generator_fails(tmp_path, catalog):
    """Negative control: a catalog claiming x*Dx as a symmetry of the
    drift-free equation must fail with the nonzero residual displayed."""
    doc = textwrap.dedent("""
        cases:
          - id: broken-claim
            params: {m: "2", p: "1", b0: "0", b1: "1", c0: "0", c1: "0"}
            basis: ["Dt", "x*Dx"]
    """)
    path = tmp_path / "bad.yaml"
    path.write_text(doc)
    report = run_regression(load_catalog(str(path)), audit_samples=50)
    assert not report.ok
    failures = report.failures()
    assert any("x*Dx" in f.check and "residual" in f.detail
               for f in failures)


def test_parallel_jobs_give_same_results(catalog):
    a = run_regression(catalog, case_ids=["heat", "eq1"], audit_samples=50)
    b = run_regression(catalog, case_ids=["heat", "eq1"], audit_samples=50,
                       jobs=2)
    assert [r.line() for r in a.results] == [r.line() for r in b.results]


@pytest.fixture
def forks(monkeypatch):
    """pids of the children this process forks, through the real os.fork."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def _stub_catalog(n):
    return {f"c{i}": SimpleNamespace(case_id=f"c{i}", aliases=[])
            for i in range(n)}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case_ids, jobs, sizes", [
    (["heat"], 2, []),                   # one case: no fork
    (["heat", "eq1"], 8, [2]),           # at most one process per case
    (["heat", "eq1", "eq4"], 2, [2]),
    (["heat", "eq1"], 1, []),
])
def test_pool_size_follows_cases(catalog, monkeypatch, forks, case_ids, jobs,
                                 sizes):
    # sizes: the processes that share the cases, the caller and its forked
    # children, or none when the caller checks every case alone
    _set_cpus(monkeypatch, 8)
    monkeypatch.setattr(catalog_module, "_check_case",
                        lambda case, seed, samples: [case.case_id])
    report = run_regression(catalog, case_ids=case_ids, jobs=jobs)
    assert ([len(forks) + 1] if forks else []) == sizes
    # every case checked exactly once, merged in catalog order
    assert report.results == [c for c in catalog if c in case_ids]
    _no_child_left()


@pytest.mark.parametrize("jobs", [3, 5000])
def test_workers_capped_at_usable_cpus(monkeypatch, forks, jobs):
    _set_cpus(monkeypatch, 3)
    monkeypatch.setattr(catalog_module, "_check_case",
                        lambda case, seed, samples: [(case.case_id,
                                                      os.getpid())])
    report = run_regression(_stub_catalog(6), jobs=jobs)
    assert len(forks) == 2
    assert [c for c, _ in report.results] == [f"c{i}" for i in range(6)]
    # process k checks cases k, k + 3: the caller is process 0
    assert [pid for _, pid in report.results] == [os.getpid(), *forks] * 2
    _no_child_left()


def test_cpu_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert catalog_module._usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert catalog_module._usable_cpus() == 3


def test_no_fork_means_one_process(monkeypatch):
    _set_cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(catalog_module, "_check_case",
                        lambda case, seed, samples: [(case.case_id,
                                                      os.getpid())])
    report = run_regression(_stub_catalog(3), jobs=4)
    assert report.results == [(f"c{i}", os.getpid()) for i in range(3)]


def test_no_fork_while_other_threads_run(monkeypatch, forks):
    _set_cpus(monkeypatch, 4)
    monkeypatch.setattr(catalog_module, "_check_case",
                        lambda case, seed, samples: [case.case_id])
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        report = run_regression(_stub_catalog(3), jobs=4)
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    assert forks == []
    assert report.results == ["c0", "c1", "c2"]


def test_child_exception_keeps_its_type(monkeypatch):
    _set_cpus(monkeypatch, 2)

    def check(case, seed, samples):
        if case.case_id == "c1":
            raise ValueError(f"boom in {case.case_id}")
        return [case.case_id]

    monkeypatch.setattr(catalog_module, "_check_case", check)
    with pytest.raises(ValueError, match="boom in c1") as err:
        run_regression(_stub_catalog(4), jobs=2)
    assert "ValueError: boom in c1" in str(err.value.__cause__)
    _no_child_left()


def test_child_exception_that_cannot_be_pickled(monkeypatch):
    # a NotClosedError holds the bracket, whose Expr nodes do not pickle
    _set_cpus(monkeypatch, 2)
    leftover = parse_vector_field("x^2*Dx", dcr_symbols())

    def check(case, seed, samples):
        if case.case_id == "c1":
            raise NotClosedError(0, 1, leftover)
        return [case.case_id]

    monkeypatch.setattr(catalog_module, "_check_case", check)
    with pytest.raises(RuntimeError, match=r"^NotClosedError: bracket \[e1, "
                       r"e2\] leaves the span") as err:
        run_regression(_stub_catalog(2), jobs=2)
    assert "NotClosedError" in str(err.value.__cause__)
    _no_child_left()


def test_child_that_dies_names_its_cases(monkeypatch):
    _set_cpus(monkeypatch, 2)
    caller = os.getpid()

    def check(case, seed, samples):
        if case.case_id == "c1":
            assert os.getpid() != caller
            os._exit(3)
        return [case.case_id]

    monkeypatch.setattr(catalog_module, "_check_case", check)
    with pytest.raises(RuntimeError,
                       match="status 3 without the results of c1, c3$"):
        run_regression(_stub_catalog(4), jobs=2)
    _no_child_left()


def test_caller_failure_kills_children(monkeypatch):
    _set_cpus(monkeypatch, 3)

    def check(case, seed, samples):
        if case.case_id == "c0":
            raise KeyError(case.case_id)
        time.sleep(60)

    monkeypatch.setattr(catalog_module, "_check_case", check)
    start = time.perf_counter()
    with pytest.raises(KeyError):
        run_regression(_stub_catalog(3), jobs=3)
    assert time.perf_counter() - start < 30
    _no_child_left()
