"""Correctness checks of each workload's first round against the sympy oracle
and against required properties from the literature.  Imported only in the
checking phase, after every timed region.  Each check returns a list of
problems; an empty list means the outputs are correct."""

from __future__ import annotations

import json
from typing import Dict, List

import yaml

import oracle as o
from setups import HEAT, REACTION, a35_padded
from workloads import SRC


def _cases() -> Dict[str, dict]:
    raw = yaml.safe_load((SRC / "liesym" / "data" / "cases.yaml").read_text())
    out = {}
    for case in raw["cases"]:
        for name in [case["id"]] + list(case.get("aliases", [])):
            out[name] = case
    return out


def _params(case: dict, **bind) -> Dict[str, str]:
    params = {k: str(v) for k, v in case["params"].items()}
    for k, v in bind.items():
        params = {n: str(o.parse(e).subs(o._param(k), o.parse(v)))
                  for n, e in params.items()}
    return params


def _basis(case: dict, **bind):
    fields = []
    for text in case["basis"]:
        fld = o.point_field(text)
        subs = {o._param(k): o.parse(v) for k, v in bind.items()}
        fields.append(tuple(c.subs(subs) for c in fld))
    return fields


def _generators_ok(oracle, F, key: str, gens, want: int,
                   where: str) -> List[str]:
    bad = []
    if len(gens) != want:
        bad.append(f"{where}: {len(gens)} generators, theory says {want}")
    for g in gens:
        v = oracle.symmetry(F, key, g)
        if v != "zero":
            bad.append(f"{where}: generator {g} is not a symmetry ({v})")
    if gens and o.rank_of_fields(gens) != len(gens):
        bad.append(f"{where}: generators are linearly dependent")
    return bad


# ---------------------------------------------------------------------------

def check_cli(state, first, oracle) -> List[str]:
    bad: List[str] = []
    cases = _cases()
    docs = []
    for call in first.calls:
        try:
            docs.append(json.loads(call.out_bytes.decode()))
        except ValueError:
            docs.append(None)
            bad.append(f"{call.argv[0]}: no JSON report (exit {call.code})")
    if bad:
        return bad
    by = {i: (c, d) for i, (c, d) in enumerate(zip(first.calls, docs))}
    exit_of = {"symmetry": 0, "not-symmetry": 1, "solution": 0,
               "constructed": 0, "equivalent": 0, "verified": 0, "clean": 0,
               "flagged": 1}

    def expect(i, verdict):
        call, doc = by[i]
        if doc["verdict"] != verdict:
            bad.append(f"{call.argv[0]}: verdict {doc['verdict']}, "
                       f"expected {verdict}")
        elif call.code != exit_of[verdict]:
            bad.append(f"{call.argv[0]}: exit {call.code} for {verdict}")
        return doc["certificates"]

    # 0 verify-symmetry
    argv = by[0][0].argv
    F = oracle.pde(argv[2])
    expect(0, "symmetry")
    if oracle.symmetry(F, argv[2], argv[4]) != "zero":
        bad.append("verify-symmetry: oracle residual is not zero")
    # 1 find-symmetries: u_t = (u^2)_xx has four generators (Ovsiannikov)
    cert = expect(1, "constructed")
    argv = by[1][0].argv
    bad += _generators_ok(oracle, oracle.pde(argv[2]), argv[2],
                          cert["generators"], 4, "find-symmetries")
    # 2 normalize and 3 equiv: witnesses map one instance onto the other
    cert = expect(2, "constructed")
    src = by[2][1]["inputs"]["instance"]
    mapped = o.apply_witness(o.family_rhs(src), cert["witness"])
    if o.zero_verdict(mapped - o._to_jets(o.family_rhs(cert["result"]))) \
            != "zero":
        bad.append("normalize: witness does not map the instance onto result")
    if cert["result"]["c1"] not in ("1", "-1"):
        bad.append(f"normalize: c1 = {cert['result']['c1']}, not +-1")
    cert = expect(3, "equivalent")
    doc = by[3][1]
    mapped = o.apply_witness(o.family_rhs(doc["inputs"]["a"]), cert["witness"])
    if o.zero_verdict(mapped - o._to_jets(o.family_rhs(doc["inputs"]["b"]))) \
            != "zero":
        bad.append("equiv: witness does not map a onto b")
    # 4 bracket-table of the symbolic eq5 basis
    cert = expect(4, "constructed")
    basis = _basis(cases["eq5"])
    for key, coeffs in cert["brackets"].items():
        i, j = (int(s.strip("[]e")) - 1 for s in key.split(","))
        want = o.combination([o.parse(c) for c in coeffs], basis)
        if not o.fields_equal(o.bracket(basis[i], basis[j]), want):
            bad.append(f"bracket-table: {key} is wrong")
    if len(cert["brackets"]) != 3:
        bad.append("bracket-table: expected the three brackets of dim 3")
    # 5 identify: A3,5^(2/5) with a witness realizing its brackets
    cert = expect(5, "verified")
    basis = _basis(cases["eq5"], m="2", p="3")
    if cert["label"] != "A3,5^a with a=2/5":
        bad.append(f"identify: label {cert['label']}")
    elif not o.witness_realizes_a35(basis, cert["witness"], "2/5"):
        bad.append("identify: witness does not realize A3,5^(2/5)")
    # 6 optimal-system: four classes (Patera-Winternitz), clean audit
    cert = expect(6, "constructed")
    if len(cert["classes"]) != 4 or cert["audit"]["pairs"] or \
            cert["audit"]["gaps"]:
        bad.append(f"optimal-system: {cert['classes']} {cert['audit']}")
    # 7 audit-system: one seeded line per class, so the audit is clean
    cert = expect(7, "clean")
    if cert["pairs"] or cert["gap_count"]:
        bad.append(f"audit-system: pairs {cert['pairs']}, "
                   f"gaps {cert['gap_count']}")
    # 8 reduce: the factorization identity holds, the field is a symmetry
    cert = expect(8, "constructed")
    argv = by[8][0].argv
    F = o.family_rhs(_params(cases["eq4"], m="2", p="1"))
    if oracle.symmetry(F, "eq4:m=2,p=1", argv[6]) != "zero":
        bad.append("reduce: field is not a symmetry")
    if o.reduction_identity(F, cert["omega"], cert["multiplier"], cert["ode"],
                            cert["factor"]) != "zero":
        bad.append("reduce: factorization identity fails")
    # 9 verify-solution: u = 1 solves every member of the family
    expect(9, "solution")
    if o.solution_verdict(o.family_rhs(_params(cases["eq1"])), "1") != "zero":
        bad.append("verify-solution: oracle disagrees")
    # 10 transform-solution: u*Du flows u -> exp(eps)*u
    cert = expect(10, "solution")
    argv = by[10][0].argv
    if not o.same_expression(cert["transformed"],
                             o.parse(argv[4]) * o.parse(f"exp({argv[8]})")):
        bad.append(f"transform-solution: got {cert['transformed']}")
    if o.solution_verdict(oracle.pde(argv[2]), cert["transformed"]) != "zero":
        bad.append("transform-solution: result does not solve the PDE")
    # 11 the known fault: the true verdict is symmetry
    call, doc = by[11]
    F = oracle.pde(call.argv[2])
    if oracle.symmetry(F, call.argv[2], call.argv[4]) != "zero":
        bad.append("known-fault call: oracle no longer certifies symmetry")
    if doc["verdict"] == "not-symmetry":
        bad.append("known-fault call: refuted a true symmetry")
    # 12 audit-system on the padded list: the fifth line is a second
    # conjugate of the class of e3, so exactly that pair is flagged, and its
    # witness, re-applied through the identify witness, maps the lines
    cert = expect(12, "flagged")
    lines = a35_padded(state["seed"])
    e3 = next(i for i, line in enumerate(lines) if line[2])
    if [p[:2] for p in cert["pairs"]] != [[e3, 4]] or cert["gap_count"]:
        bad.append(f"padded audit-system: pairs {cert['pairs']}, "
                   f"gaps {cert['gap_count']}")
    elif not o.a35_word_maps(cert["pairs"][0][2], "2/5",
                             by[5][1]["certificates"]["witness"],
                             lines[e3], lines[4]):
        bad.append("padded audit-system: the conjugacy witness does not map "
                   "the pair's lines onto each other")
    return bad


def check_determining(first, oracle) -> List[str]:
    bad: List[str] = []
    # u_t = (u^2)_xx + (u^2)_x + u^3: terms u^2 with two and one x-derivative
    # and u^3 admit no common scaling weight, so only Dt and Dx remain.
    if not o.no_scaling_symmetry([(2, 2), (2, 1), (3, 0)]):
        bad.append("reaction PDE unexpectedly admits a scaling")
    for text, bound, gens in first.outputs:
        if gens and gens[0] == "error":
            bad.append(f"{text} bound {bound}: {gens[1]}")
            continue
        # heat: six classical generators plus the heat polynomials of
        # degree <= bound acting through Du
        want = 2 if text == REACTION else bound + 7
        bad += _generators_ok(oracle, oracle.pde(text), text, list(gens),
                              want, f"{text} bound {bound}")
    if {t for t, _, _ in first.outputs} != {REACTION, HEAT}:
        bad.append("the sweep does not cover both PDEs")
    return bad


def check_regress(state, first, oracle) -> List[str]:
    bad: List[str] = []
    ok, lines, code, out_bytes = first.outputs
    if not ok:
        bad.append("in-process regression failed: "
                   + "; ".join(l for l in lines if l.startswith("[FAIL]")))
    stdout = first.calls[0].stdout.splitlines()
    if stdout[1:-1] != lines:
        bad.append("regress --jobs 2 report differs from jobs=1")
    doc = json.loads(out_bytes.decode()) if out_bytes else {}
    cert = doc.get("certificates", {})
    if code != 0 or doc.get("verdict") != "pass" or cert.get("failed") or \
            cert.get("total") != len(lines) - 1:
        bad.append(f"regress --jobs 2: exit {code}, {doc.get('verdict')}")
    # every stored symmetry and solution verdict, re-derived symbolically
    seen = set()
    for cid, case in _cases().items():
        if case["id"] in seen:
            continue
        seen.add(case["id"])
        F = o.family_rhs(_params(case))
        for text in case["basis"]:
            if oracle.symmetry(F, cid, text) != "zero":
                bad.append(f"{cid}: basis field {text} is not a symmetry")
        for var in case.get("basis_variants", []):
            want = "zero" if var.get("expect") == "symmetry" else "nonzero"
            if oracle.symmetry(F, cid, var["field"]) != want:
                bad.append(f"{cid}: variant {var['name']} verdict wrong")
        for extra in case.get("extra_generators", []):
            if oracle.symmetry(F, cid, extra["field"]) != "zero":
                bad.append(f"{cid}: extra generator is not a symmetry")
        for sol in case.get("solutions", []):
            want = "zero" if sol["verdict"] == "solution" else "nonzero"
            if o.solution_verdict(F, str(sol["expr"])) != want:
                bad.append(f"{cid}: solution {sol['expr']} verdict wrong")
    return bad
