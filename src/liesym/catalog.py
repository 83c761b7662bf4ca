"""Case catalog and the self-certifying regression runner.

Every claim stored in the catalog (symmetry bases, closure, labels, counts,
optimal-system sizes, solutions) is re-derived when the regression runs;
nothing is trusted.  Failures carry the certificate that refutes the claim
(nonzero residual, flagged pair, coverage gap)."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .dsl import parse, parse_vector_field, render
from .expr import ExprError, SymbolTable
from .jets import VectorField, dcr_symbols
from .pde import DCRInstance, EvolutionPDE, build_dcr
from .symmetry import find_symmetries, is_symmetry
from .algebra import (
    DependentBasisError, NotClosedError, components, field_coordinates,
    identify, load_packaged, load_yaml, structure_constants,
)
from .linalg import solve_symbolic
from .optimal import (DEFAULT_SEED, construct_optimal_system,
                      verify_candidate_system)
from .reduction import ClosedFormSolution, verify_solution
from .equivalence import apply_et, remove_drift


class CatalogError(ExprError):
    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{message}" + (f" [{location}]" if location else ""))


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
    """One family member with its claimed data; the catalog's description
    and notes are for its readers and are not loaded."""

    __slots__ = ("case_id", "params", "basis_text", "aliases",
                 "basis_variants", "extra_generators", "samples",
                 "structure", "solutions", "checks")

    def __init__(self, case_id: str, params: Dict[str, str],
                 basis_text: List[str], aliases: List[str],
                 basis_variants: List[dict], extra_generators: List[dict],
                 samples: List[SampleSpec], structure: List[dict],
                 solutions: List[dict], checks: List[str]):
        self.case_id = case_id
        self.params = params
        self.basis_text = basis_text
        self.aliases = aliases
        self.basis_variants = basis_variants
        self.extra_generators = extra_generators
        self.samples = samples
        self.structure = structure
        self.solutions = solutions
        self.checks = checks

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
        params, names = item["params"], DCRInstance._fields
        if not isinstance(params, dict) or set(params) != set(names):
            raise CatalogError(
                "params must bind exactly " + ", ".join(names), loc)
        samples = []
        for j, s in enumerate(item.get("samples", [])):
            # every slot after bindings and overrides is a claim
            claims = {k: s.get(k) for k in SampleSpec.__slots__[2:]}
            if claims["label_param"] is not None:
                try:
                    Fraction(str(claims["label_param"]))
                except (ValueError, ZeroDivisionError):
                    raise CatalogError(
                        "label_param must be a rational literal, got "
                        f"{claims['label_param']!r}", f"{loc}.samples[{j}]")
            samples.append(SampleSpec(
                bindings=dict(s.get("bindings", {})),
                overrides={k: v for k, v in s.items()
                           if k != "bindings" and k not in claims},
                **claims))
        case = CatalogCase(
            case_id=item["id"],
            params={k: str(v) for k, v in params.items()},
            basis_text=[str(b) for b in item["basis"]],
            aliases=list(item.get("aliases", [])),
            basis_variants=list(item.get("basis_variants", [])),
            extra_generators=list(item.get("extra_generators", [])),
            samples=samples,
            structure=list(item.get("structure", [])),
            solutions=list(item.get("solutions", [])),
            checks=list(item.get("checks", [])),
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

    def algebra(fields, check):
        """The algebra of fields, or None once check has failed for it."""
        try:
            return structure_constants(fields)
        except (NotClosedError, DependentBasisError) as exc:
            add_result(check, False, str(exc))
            return None

    table = case.table()
    pde = case.pde()
    fields = case.fields()
    # symmetry verification of every claimed generator, symbolically
    for text, f in zip(case.basis_text, fields):
        v = is_symmetry(pde, f)
        add_result(f"symmetry of {text}", v.is_symmetry,
                   "" if v.is_symmetry else f"residual {render(v.residual)}")
    # closure of the claimed basis
    L = algebra(fields, "bracket closure") if len(fields) > 1 else None
    if L is not None:
        add_result("bracket closure", True)
    if L is not None and case.structure:
        ok = True
        detail = ""
        for entry in case.structure:
            i, j = entry["pair"]
            want = [parse(str(c), table) for c in entry["coeffs"]]
            got = L.c[i - 1][j - 1]
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
            check = (f"[{tag}] identifies as {sample.label}"
                     + (f"^a, a={sample.label_param}"
                        if sample.label_param else ""))
            L = algebra(case.bind(fields, sample.bindings), check)
            if L is None:
                continue
            ident = identify(L)
            ok = (ident.status == "identified" and ident.label == sample.label)
            if ok and sample.label_param is not None:
                ok = ident.parameter == Fraction(str(sample.label_param))
            add_result(check, ok, ident.display)
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
            check = (f"[{tag}] optimal system has "
                     f"{sample.optimal_count} classes")
            L = algebra(case.bind(fields, sample.bindings) or found.fields,
                        check)
            if L is None:
                continue
            sysreps = construct_optimal_system(L, identify(L))
            add_result(check, len(sysreps) == sample.optimal_count,
                       f"got {len(sysreps)}")
    # special handling: the four-generator algebra of u_t=(u^m)_xx samples
    if case.case_id == "ovsiannikov":
        for sample, found in zip(case.samples, founds):
            if sample.label == "2A2":
                check = (f"[m={sample.bindings.get('m')}] discovered "
                         "algebra identifies as 2A2")
                L = algebra(found.fields, check)
                if L is None:
                    continue
                ident = identify(L)
                ok = ident.status == "identified" and ident.label == "2A2"
                add_result(check, ok, ident.display)
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


def run_regression(catalog: Dict[str, CatalogCase],
                   case_ids: Optional[Sequence[str]] = None,
                   seed: int = DEFAULT_SEED, audit_samples: int = 300,
                   jobs: int = 1) -> RegressionReport:
    """Re-derive every stored claim of the selected cases, checked in turn
    in catalog order; jobs is accepted for compatibility and changes
    nothing (a second process made no regression faster on two cores)."""
    # every name of a case maps to the same case: keep catalog order
    cases = list({c.case_id: c for c in catalog.values()
                  if case_ids is None or c.case_id in case_ids
                  or any(a in case_ids for a in c.aliases)}.values())
    results = [r for c in cases for r in _check_case(c, seed, audit_samples)]
    return RegressionReport(results=results, seed=seed,
                            audit_samples=audit_samples)
