"""Catalog loading, schema validation, and the self-certifying regression."""

import concurrent.futures
import json
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


class _InlinePool:
    """Stand-in for ProcessPoolExecutor: records its size and runs each
    submitted call at once in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = concurrent.futures.Future()
        fut.set_result(fn(*args))
        return fut


@pytest.mark.parametrize("case_ids, jobs, sizes", [
    (["heat"], 2, []),                   # one case: no pool, no fork
    (["heat", "eq1"], 8, [2]),           # at most one worker per case
    (["heat", "eq1", "eq4"], 2, [2]),
    (["heat", "eq1"], 1, []),
])
def test_pool_size_follows_cases(catalog, monkeypatch, case_ids, jobs, sizes):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(catalog_module, "_check_case",
                        lambda case, seed, samples: [case.case_id])
    report = run_regression(catalog, case_ids=case_ids, jobs=jobs)
    assert _InlinePool.sizes == sizes
    assert sorted(report.results) == sorted(case_ids)
