"""Catalog loading, schema validation, and the self-certifying regression."""

import json
import os
import textwrap
from importlib import resources

import pytest
import yaml

from liesym import catalog as catalog_module
from liesym.catalog import CatalogError, load_catalog, run_regression


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def test_load_builtin(catalog):
    assert {"eq1", "eq4", "eq5", "ovsiannikov", "special-case",
            "heat"} <= set(catalog)
    assert catalog["eq5"] is catalog["eq4"]


_PARAMS = 'm: "2", p: "1", b0: "0", b1: "0", c0: "0", c1: "0"'


@pytest.mark.parametrize("case, field", [
    ("{id: broken, basis: []}", "params"),
    ('{id: c, params: {m: "2"}, basis: [Dx]}', "params"),
    (f'{{id: c, params: {{{_PARAMS}, q: "1"}}, basis: [Dx]}}', "params"),
    (f'{{id: c, params: {{{_PARAMS}}}, basis: [Dx], '
     'samples: [{label: 2A1, label_param: abc}]}', "label_param"),
], ids=["no-params", "missing-param", "extra-param", "label-param"])
def test_schema_violation(tmp_path, case, field):
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"cases:\n  - {case}\n")
    with pytest.raises(CatalogError) as err:
        load_catalog(str(bad))
    assert field in str(err.value)
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


def test_basis_that_does_not_close_fails_its_checks(tmp_path):
    # a case or sample whose basis spans no algebra fails its checks; the
    # other cases are still checked and the regression runs to its report
    path = tmp_path / "open.yaml"
    path.write_text(textwrap.dedent("""
        cases:
          - id: fine
            params: {m: "2", p: "1", b0: "0", b1: "0", c0: "0", c1: "0"}
            basis: ["Dt", "Dx"]
          - id: open
            params: {m: "2", p: "1", b0: "0", b1: "0", c0: "0", c1: "0"}
            basis: ["Dx", "x^3*Dx"]
            samples:
              - label: A2
          - id: dependent
            params: {m: "m", p: "1", b0: "0", b1: "0", c0: "0", c1: "0"}
            basis: ["Dx", "(m-2)*Dt"]
            samples:
              - {bindings: {m: "2"}, label: 2A1}
              - {bindings: {m: "2"}, optimal_count: 2}
          - id: twice
            params: {m: "2", p: "1", b0: "0", b1: "0", c0: "0", c1: "0"}
            basis: ["Dx", "2*Dx"]
    """))
    report = run_regression(load_catalog(str(path)), audit_samples=20)
    assert ({r.case_id for r in report.results}
            == {"fine", "open", "dependent", "twice"})
    assert all(r.passed for r in report.results if r.case_id == "fine")
    failed = {(r.case_id, r.check): r.detail for r in report.failures()}
    for check in ("bracket closure", "[-] identifies as A2"):
        assert failed[("open", check)].startswith(
            "bracket [e1, e2] leaves the span")
    assert failed[("twice", "bracket closure")] == \
        "basis fields are linearly dependent"
    assert failed[("dependent", "[m=2] identifies as 2A1")] == \
        "basis fields are linearly dependent"
    assert failed[("dependent", "[m=2] optimal system has 2 classes")] == \
        "basis fields are linearly dependent"


@pytest.mark.parametrize("case_ids, jobs, sizes", [
    (["heat"], 2, []),
    (["heat", "eq1"], 8, [2]),
    (["heat", "eq1", "eq4"], 2, [2]),
    (["heat", "eq1"], 1, []),
])
def test_pool_size_follows_cases(catalog, monkeypatch, case_ids, jobs,
                                 sizes):
    # sizes only keeps the rows' test ids; whatever jobs says, the caller
    # checks every case alone
    def fork():
        raise AssertionError("the regression forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(catalog_module, "_check_case",
                        lambda case, seed, samples: [(case.case_id,
                                                      os.getpid())])
    report = run_regression(catalog, case_ids=case_ids, jobs=jobs)
    # every case checked exactly once, in catalog order, in this process
    assert report.results == [(c, os.getpid()) for c in catalog
                              if c in case_ids]
