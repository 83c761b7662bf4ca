"""Case catalog and the self-certifying regression runner.

Every claim stored in the catalog (symmetry bases, closure, labels, counts,
optimal-system sizes, solutions) is re-derived when the regression runs;
nothing is trusted.  Failures carry the certificate that refutes the claim
(nonzero residual, flagged pair, coverage gap)."""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .dsl import parse, parse_vector_field, render
from .expr import ExprError, SymbolTable
from .jets import VectorField, dcr_symbols
from .pde import DCRInstance, EvolutionPDE, build_dcr
from .symmetry import find_symmetries, is_symmetry
from .algebra import (
    check_closure, components, field_coordinates, identify, load_packaged,
    load_yaml, structure_constants,
)
from .linalg import solve_symbolic
from .optimal import (DEFAULT_SEED, construct_optimal_system,
                      verify_candidate_system)
from .reduction import ClosedFormSolution, verify_solution
from .equivalence import apply_et, remove_drift


class CatalogError(ExprError):
    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{message}" + (f" [{location}]" if location else ""))
        self.location = location


class SampleSpec:
    """One parameter sample of a case and the counts and label claimed for
    it; an unset claim is None."""

    __slots__ = ("bindings", "overrides", "find_count", "label",
                 "label_param", "optimal_count", "extra_generator")

    def __init__(self, bindings: Dict[str, str], overrides: Dict[str, str],
                 find_count: Optional[int], label: Optional[str],
                 label_param: Optional[str], optimal_count: Optional[int],
                 extra_generator: Optional[str]):
        self.bindings = bindings
        self.overrides = overrides
        self.find_count = find_count
        self.label = label
        self.label_param = label_param
        self.optimal_count = optimal_count
        self.extra_generator = extra_generator


class CatalogCase:
    """One family member with its claimed data."""

    __slots__ = ("case_id", "description", "params", "basis_text", "aliases",
                 "basis_variants", "extra_generators", "samples",
                 "structure", "solutions", "checks", "notes")

    def __init__(self, case_id: str, description: str,
                 params: Dict[str, str], basis_text: List[str],
                 aliases: List[str], basis_variants: List[dict],
                 extra_generators: List[dict], samples: List[SampleSpec],
                 structure: List[dict], solutions: List[dict],
                 checks: List[str], notes: str):
        self.case_id = case_id
        self.description = description
        self.params = params
        self.basis_text = basis_text
        self.aliases = aliases
        self.basis_variants = basis_variants
        self.extra_generators = extra_generators
        self.samples = samples
        self.structure = structure
        self.solutions = solutions
        self.checks = checks
        self.notes = notes

    def table(self) -> SymbolTable:
        return dcr_symbols()

    def instance(self) -> DCRInstance:
        table = self.table()
        vals = {k: parse(str(v), table) for k, v in self.params.items()}
        return DCRInstance(**vals)

    def pde(self, bindings: Optional[Dict[str, str]] = None,
            overrides: Optional[Dict[str, str]] = None) -> EvolutionPDE:
        inst = self.instance()
        if overrides:
            inst = inst.replace(**{k: parse(str(v), self.table())
                                   for k, v in overrides.items()})
        if bindings:
            inst = inst.instantiate({k: parse(str(v), self.table())
                                     for k, v in bindings.items()})
        return build_dcr(inst)

    def fields(self, bindings: Optional[Dict[str, str]] = None
               ) -> List[VectorField]:
        table = self.table()
        return self.bind([parse_vector_field(text, table)
                          for text in self.basis_text], bindings)

    def bind(self, fields: List[VectorField],
             bindings: Optional[Dict[str, str]]) -> List[VectorField]:
        """The parsed basis fields with the sample bindings substituted."""
        if not bindings:
            return fields
        table = self.table()
        b = {k: parse(str(v), table) for k, v in bindings.items()}
        return [f.substitute(b) for f in fields]


def load_catalog(path: Optional[str] = None) -> Dict[str, CatalogCase]:
    """Load and validate the case catalog: the packaged file (JSON, read
    with json) by default, else the YAML file at path."""
    if path is None:
        raw = load_packaged("cases.yaml")
    else:
        text = Path(path).read_text()
        try:
            raw = load_yaml(text)
        except ValueError as exc:
            raise CatalogError(f"catalog is not valid YAML: {exc}")
    if not isinstance(raw, dict) or "cases" not in raw:
        raise CatalogError("catalog must be a mapping with a 'cases' list")
    out: Dict[str, CatalogCase] = {}
    for idx, item in enumerate(raw["cases"]):
        loc = f"cases[{idx}]"
        for key in ("id", "params", "basis"):
            if key not in item:
                raise CatalogError(f"missing field {key!r}", loc)
        samples = []
        for s in item.get("samples", []):
            extra = {k: v for k, v in s.items()
                     if k not in ("bindings", "find_count", "label",
                                  "label_param", "optimal_count",
                                  "extra_generator")}
            samples.append(SampleSpec(
                bindings=dict(s.get("bindings", {})),
                overrides=extra,
                find_count=s.get("find_count"),
                label=s.get("label"),
                label_param=s.get("label_param"),
                optimal_count=s.get("optimal_count"),
                extra_generator=s.get("extra_generator")))
        case = CatalogCase(
            case_id=item["id"],
            description=item.get("description", "").strip(),
            params={k: str(v) for k, v in item["params"].items()},
            basis_text=[str(b) for b in item["basis"]],
            aliases=list(item.get("aliases", [])),
            basis_variants=list(item.get("basis_variants", [])),
            extra_generators=list(item.get("extra_generators", [])),
            samples=samples,
            structure=list(item.get("structure", [])),
            solutions=list(item.get("solutions", [])),
            checks=list(item.get("checks", [])),
            notes=item.get("notes", "").strip(),
        )
        for name in [case.case_id] + case.aliases:
            if name in out:
                raise CatalogError(f"duplicate case id {name}", loc)
            out[name] = case
    return out


class CheckResult:
    __slots__ = ("case_id", "check", "passed", "detail")

    def __init__(self, case_id: str, check: str, passed: bool, detail: str):
        self.case_id = case_id
        self.check = check
        self.passed = passed
        self.detail = detail

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        detail = f" -- {self.detail}" if self.detail else ""
        return f"[{mark}] {self.case_id}: {self.check}{detail}"


class RegressionReport:
    __slots__ = ("results", "seed", "audit_samples")

    def __init__(self, results: List[CheckResult], seed: int,
                 audit_samples: int):
        self.results = results
        self.seed = seed
        self.audit_samples = audit_samples

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> List[CheckResult]:
        return [r for r in self.results if not r.passed]

    def summary(self) -> str:
        lines = [r.line() for r in self.results]
        lines.append(f"total: {len(self.results)}, "
                     f"failed: {len(self.failures())}, "
                     f"seed: {self.seed}, audit samples: {self.audit_samples}")
        return "\n".join(lines)


def _check_case(case: CatalogCase, seed: int,
                audit_samples: int) -> List[CheckResult]:
    out: List[CheckResult] = []

    def add_result(check, passed, detail=""):
        out.append(CheckResult(case.case_id, check, passed, detail))

    table = case.table()
    pde = case.pde()
    fields = case.fields()
    # symmetry verification of every claimed generator, symbolically
    for text, f in zip(case.basis_text, fields):
        v = is_symmetry(pde, f)
        add_result(f"symmetry of {text}", v.is_symmetry,
                   "" if v.is_symmetry else f"residual {render(v.residual)}")
    # closure of the claimed basis
    if len(fields) > 1:
        rep = check_closure(fields)
        add_result("bracket closure", rep.closed,
                   "" if rep.closed else str(rep.violations))
        if rep.closed and case.structure:
            ok = True
            detail = ""
            for entry in case.structure:
                i, j = entry["pair"]
                want = [parse(str(c), table) for c in entry["coeffs"]]
                got = rep.algebra.c[i - 1][j - 1]
                if list(got) != want:
                    ok = False
                    detail = (f"[e{i},e{j}] = "
                              f"{[render(g) for g in got]}, "
                              f"stored {[render(w) for w in want]}")
                    break
            add_result("stored bracket table", ok, detail)
    # negative-control variants
    for variant in case.basis_variants:
        f = parse_vector_field(variant["field"], table)
        v = is_symmetry(pde, f)
        expect = variant.get("expect", "not-symmetry")
        got = v.verdict.value
        add_result(f"variant {variant.get('name', '?')} is {expect}",
                   got == expect,
                   f"verdict {got}, residual {render(v.residual)}")
    # discovered non-polynomial generators
    for extra in case.extra_generators:
        f = parse_vector_field(extra["field"], table)
        v = is_symmetry(pde, f)
        add_result(f"extra generator {extra['field']}", v.is_symmetry,
                   "" if v.is_symmetry else f"residual {render(v.residual)}")
    # drift removal round trip
    if "drift-removal" in case.checks:
        inst = case.instance()
        free_inst, witness = remove_drift(inst)
        lhs = apply_et(witness, build_dcr(inst)).rhs
        rhs = build_dcr(free_inst).rhs
        add_result("drift removal witness", lhs == rhs)
    # per-sample checks; one search per sample
    founds = []
    for sample in case.samples:
        tag = ",".join(f"{k}={v}" for k, v in sample.bindings.items()) or "-"
        spde = case.pde(sample.bindings, sample.overrides)
        found = find_symmetries(spde, bound=2)
        founds.append(found)
        if sample.find_count is not None:
            add_result(f"[{tag}] generator count = {sample.find_count}",
                       len(found) == sample.find_count,
                       f"found {len(found)}")
        if sample.extra_generator:
            want = parse_vector_field(sample.extra_generator, table)
            spanned = _in_span(found.fields, want)
            add_result(f"[{tag}] contains {sample.extra_generator}", spanned)
        if sample.label is not None:
            sfields = case.bind(fields, sample.bindings)
            L = structure_constants(sfields)
            ident = identify(L)
            ok = (ident.status == "identified" and ident.label == sample.label)
            if ok and sample.label_param is not None:
                ok = ident.parameter == Fraction(sample.label_param)
            add_result(f"[{tag}] identifies as {sample.label}"
                       + (f"^a, a={sample.label_param}"
                          if sample.label_param else ""),
                       ok, ident.display)
            if ok and sample.optimal_count is not None:
                sysreps = construct_optimal_system(L, ident)
                audit = verify_candidate_system(L, sysreps,
                                                n_samples=audit_samples,
                                                seed=seed, ident=ident)
                add_result(f"[{tag}] optimal system has "
                           f"{sample.optimal_count} classes",
                           len(sysreps) == sample.optimal_count,
                           f"got {len(sysreps)}")
                add_result(f"[{tag}] optimal-system audit clean", audit.ok,
                           audit.summary().replace("\n", "; "))
        elif sample.optimal_count is not None:
            sfields = case.bind(fields, sample.bindings) or found.fields
            L = structure_constants(sfields)
            ident = identify(L)
            sysreps = construct_optimal_system(L, ident)
            add_result(f"[{tag}] optimal system has "
                       f"{sample.optimal_count} classes",
                       len(sysreps) == sample.optimal_count,
                       f"got {len(sysreps)}")
    # special handling: the four-generator algebra of u_t=(u^m)_xx samples
    if case.case_id == "ovsiannikov":
        for sample, found in zip(case.samples, founds):
            if sample.label == "2A2":
                L = structure_constants(found.fields)
                ident = identify(L)
                ok = ident.status == "identified" and ident.label == "2A2"
                add_result(f"[m={sample.bindings.get('m')}] discovered "
                           "algebra identifies as 2A2", ok, ident.display)
                if ok and sample.optimal_count:
                    sysreps = construct_optimal_system(L, ident)
                    audit = verify_candidate_system(
                        L, sysreps, n_samples=audit_samples, seed=seed,
                        ident=ident)
                    has_param = any(r.params for r in sysreps)
                    add_result("2A2 optimal system: "
                               f"{sample.optimal_count} classes with a "
                               "free-parameter family",
                               len(sysreps) == sample.optimal_count
                               and has_param and audit.ok,
                               f"got {len(sysreps)}, "
                               f"family={'yes' if has_param else 'no'}; "
                               + audit.summary().replace("\n", "; "))
    # solutions
    for entry in case.solutions:
        sol = ClosedFormSolution(parse(str(entry["expr"]), table))
        v = verify_solution(pde, sol)
        add_result(f"solution check u={entry['expr']} is {entry['verdict']}",
                   v.verdict == entry["verdict"],
                   f"got {v.verdict}, residual {render(v.residual)}")
    return out


def _in_span(fields: Sequence[VectorField], target: VectorField) -> bool:
    """Whether the elimination of the fields' coordinates solves for the
    target's."""
    cols = field_coordinates(components([*fields, target]))
    joint = list(zip(*cols))
    [sol], _ = solve_symbolic([r[:-1] for r in joint], [r[-1:] for r in joint])
    return isinstance(sol, list)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_share(cases: List[CatalogCase], k: int, workers: int, seed: int,
                 audit_samples: int) -> Dict[int, List[CheckResult]]:
    """Results of cases k, k + workers, ..., by index."""
    return {i: _check_case(cases[i], seed, audit_samples)
            for i in range(k, len(cases), workers)}


def _fork_share(cases: List[CatalogCase], k: int, workers: int, seed: int,
                audit_samples: int):
    """Fork a child that checks share k and pickles into a pipe either
    ({index: results}, None) or (exception, its traceback), then exits;
    returns the child's pid and the pipe's read end.  An exception that
    cannot be rebuilt from its pickle is sent as a RuntimeError that names
    its type and message."""
    import pickle

    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    code = 1
    try:
        os.close(r)
        try:
            msg = (_check_share(cases, k, workers, seed, audit_samples), None)
        except BaseException as exc:
            import traceback

            trace = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:   # it holds Expr nodes, or needs __init__ args
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            msg = (exc, trace)
        with os.fdopen(w, "wb") as pipe:
            pickle.dump(msg, pipe)
        code = 0
    finally:
        os._exit(code)


def run_regression(catalog: Dict[str, CatalogCase],
                   case_ids: Optional[Sequence[str]] = None,
                   seed: int = DEFAULT_SEED, audit_samples: int = 300,
                   jobs: int = 1) -> RegressionReport:
    """Re-derive every stored claim; aggregate pass/fail per check.

    jobs caps the processes that share the cases, the calling one
    included; there are never more of them than cases or CPUs this process
    may use.  Process k checks cases k, k + workers, ... in catalog order:
    the caller is process 0 and the others are children forked for the
    call, each sending its results back through a pipe.  With one worker,
    without os.fork, or while other threads run, the caller checks every
    case and nothing forks.  An exception in a child is raised again here
    with its type, a child that exits without its results raises
    RuntimeError naming the cases, and no child outlives the call: if it
    raises, the children left are killed, and every child is reaped."""
    # every name of a case maps to the same case: keep catalog order
    cases = list({c.case_id: c for c in catalog.values()
                  if case_ids is None or c.case_id in case_ids
                  or any(a in case_ids for a in c.aliases)}.values())
    workers = 1
    # a forked child holds only the forking thread: a lock that another
    # thread held at the fork would stay locked in the child forever
    if hasattr(os, "fork") and threading.active_count() == 1:
        workers = max(1, min(jobs, len(cases), _usable_cpus()))
    if workers > 1:
        import pickle
        import signal
    children = []   # (share, pid, pipe) of each child not yet reaped
    try:
        for k in range(1, workers):
            children.append(
                (k, *_fork_share(cases, k, workers, seed, audit_samples)))
        by_index = _check_share(cases, 0, workers, seed, audit_samples)
        while children:
            k, pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status or not data:
                missing = ", ".join(c.case_id for c in cases[k::workers])
                raise RuntimeError(
                    f"regression worker {pid} exited with status "
                    f"{os.waitstatus_to_exitcode(status)} without the "
                    f"results of {missing}")
            got, trace = pickle.loads(data)
            if trace is not None:
                raise got from RuntimeError(f"in regression worker {pid}:\n"
                                            f"{trace}")
            by_index.update(got)
    finally:
        for _, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = [r for i in sorted(by_index) for r in by_index[i]]
    return RegressionReport(results=results, seed=seed,
                            audit_samples=audit_samples)
