"""Stored --out reports: every README command, the known undecided call,
candidate-list audits and one identify/optimal-system call per
identification path must reproduce the JSON documents in tests/golden/
byte for byte, with the same exit code.

Regenerate the documents (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import sys
from pathlib import Path

import pytest

from liesym.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = "11"
A35 = ["--algebra", "case:eq5", "--params", "m=2,p=3"]
A39A1 = "t*Dx - x*Dt; u*Dt - t*Du; x*Du - u*Dx; t*Dt + x*Dx + u*Du"

# one algebra per identification path, as DSL fields in (t, x, u)
ALGEBRAS = {
    "A2": "Dx; x*Dx",
    "A2+A1": "Dx; x*Dx; Du",
    "A3,1": "Du; Dx; x*Du",
    "A3,2": "Dx; Du; x*Dx + (u+x)*Du",
    "A3,3": "Dx; Du; x*Dx + u*Du",
    "A3,4": "Dx; Du; x*Dx - u*Du",
    "A3,5": "Dx; Du; x*Dx + 2/5*u*Du",
    "A3,6": "Dt; Dx; x*Dt - t*Dx",
    "A3,7": "Dt; Dx; (t/2 + x)*Dt + (x/2 - t)*Dx",
    "A3,8": "Dx; x*Dx; x^2*Dx",
    "A3,9": "t*Dx - x*Dt; u*Dt - t*Du; x*Du - u*Dx",
    "3A1": "Dt; Dx; Du",
    "2A2": "Dx; x*Dx; Du; u*Du",
    "A2+2A1": "Dx; x*Dx; Du; Dt",
    "A3,1+A1": "Du; Dx; x*Du; Dt",
    "A3,2+A1": "Dx; Du; x*Dx + (u+x)*Du; Dt",
    "A3,3+A1": "Dx; Du; x*Dx + u*Du; Dt",
    "A3,4+A1": "Dx; Du; x*Dx - u*Du; Dt",
    "A3,5+A1": "Dx; Du; x*Dx + 2/5*u*Du; Dt",
    "A3,6+A1": "Dt; Dx; x*Dt - t*Dx; Du",
    "A3,7+A1": "Dt; Dx; (t/2 + x)*Dt + (x/2 - t)*Dx; Du",
    "A3,8+A1": "Dx; x*Dx; x^2*Dx; Dt",
    "A3,9+A1": A39A1,
}

CASES = [
    ("verify-symmetry", ["verify-symmetry",
                         "--pde", "u_t = D(u^2,x,2) + D(u^2,x)",
                         "--field", "-t*Dt + u*Du"], 0),
    ("find-symmetries", ["find-symmetries", "--pde", "u_t = D(u^2,x,2)",
                         "--bound", "2"], 0),
    ("normalize", ["normalize", "--instance", "m=2,p=1,b1=1,c1=4",
                   "--target", "c1"], 0),
    ("equiv", ["equiv", "--a", "m=2,p=1,b0=3,b1=1,c1=4",
               "--b", "m=2,p=1,b1=1,c1=4"], 0),
    ("bracket-table", ["bracket-table", "--algebra", "case:eq5"], 0),
    ("identify", ["identify", *A35], 0),
    ("optimal-system", ["optimal-system", *A35, "--seed", SEED], 0),
    ("audit-system", ["audit-system", *A35, "--candidates", "candidates.txt",
                      "--seed", SEED], 0),
    ("audit-system-padded", ["audit-system", *A35, "--candidates",
                             "padded.txt", "--seed", SEED], 1),
    ("audit-system-family", ["audit-system", *A35, "--candidates",
                             "family.txt", "--seed", SEED], 1),
    # the family r*e1 + e4 reaches most samples only at irrational r: they
    # are undecided, not gaps
    ("audit-system-unsolved", ["audit-system", "--algebra", A39A1,
                               "--candidates", "a39pa1-family.txt",
                               "--samples", "200", "--seed", SEED], 2),
    ("reduce", ["reduce", "--pde", "case:eq4", "--params", "m=2,p=1",
                "--field", "Dt + 3*Dx"], 0),
    ("verify-solution", ["verify-solution", "--pde", "case:eq1",
                         "--sol", "1"], 0),
    ("transform-solution", ["transform-solution", "--pde", "u_t = D(u,x,2)",
                            "--sol", "x", "--field", "u*Du",
                            "--epsilon", "1/2"], 0),
    ("known-undecided", ["verify-symmetry", "--pde", "u_t=D(u^m,x,2)",
                         "--field", "x*Dx+2/(m-1)*u*Du"], 2),
    ("regress", ["regress", "--jobs", "1", "--seed", SEED], 0),
]
for _label, _fields in ALGEBRAS.items():
    _tag = _label.replace(",", "").replace("+", "p")
    CASES.append((f"identify-{_tag}", ["identify", "--algebra", _fields], 0))
    CASES.append((f"optimal-{_tag}", ["optimal-system", "--algebra", _fields,
                                      "--samples", "200", "--seed", SEED], 0))


def _run(argv, out: Path) -> int:
    return main([*argv, "--out", str(out)])


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, argv, code, tmp_path, monkeypatch,
                               capsys):
    # candidate paths are recorded in the report, so resolve them from here
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("LIESYM_SEED", raising=False)
    out = tmp_path / "report.json"
    assert _run(argv, out) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    import contextlib
    import io
    import os

    os.chdir(GOLDEN)
    os.environ.pop("LIESYM_SEED", None)
    for name, argv, code in CASES:
        with contextlib.redirect_stdout(io.StringIO()):
            got = _run(argv, GOLDEN / f"{name}.json")
        if got != code:
            sys.exit(f"{name}: exit {got}, expected {code}")
