"""Command-line front end.

Exit codes: 0 verified/constructed, 1 refuted, 2 undecided (also when a
canonical form or a symmetry-search ansatz would pass a size limit, and for
a search whose generators do not close: not-closed), 3 usage error, 4
internal fault (an unexpected exception, reported on one stderr line).
Expressions use the input DSL; PDEs and algebras can also be drawn from the
case catalog with ``case:<id>``.  The audit seed comes from --seed or the
LIESYM_SEED environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from .expr import (ExprError, LogOfZeroError, ResourceLimitError, SymbolTable,
                   free_symbols, rat, substitute, sym)
from . import dsl
from .jets import VectorField, dcr_symbols
from .pde import DCRInstance, EvolutionPDE, build_dcr
from .symmetry import find_symmetries, is_symmetry
from .algebra import (LieAlgebra, NotClosedError, check_closure, identify,
                      structure_constants)
from .optimal import (DEFAULT_SAMPLES, DEFAULT_SEED, PARAM_KINDS, ParamSpec,
                      SubalgebraRep, construct_optimal_system,
                      verify_candidate_system)
from .reduction import ClosedFormSolution, reduce_pde, transform_solution, \
    verify_solution
from .equivalence import are_equivalent, normalize_coefficient, remove_drift
from .catalog import load_catalog, run_regression
from .report import Report, _plain

USAGE_ERROR = 3
INTERNAL_FAULT = 4


class UsageError(Exception):
    pass


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("LIESYM_SEED")
    return int(env) if env else DEFAULT_SEED


def _parse_params(spec: Optional[str]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    if not spec:
        return out
    for part in spec.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise UsageError(f"parameters need name=value, got {part!r}")
        name, value = part.split("=", 1)
        out[name.strip()] = value.strip()
    return out


@contextmanager
def _binding():
    """Report a division by zero or a log of zero while substituting
    --params as a usage error."""
    try:
        yield
    except LogOfZeroError:
        raise UsageError("log of zero substituting --params") from None
    except ZeroDivisionError:
        raise UsageError("division by zero substituting --params") from None


def _bind(bindings, parsed):
    """parsed (an expression or a vector field) with the --params values
    substituted."""
    if not bindings:
        return parsed
    with _binding():
        if isinstance(parsed, VectorField):
            return parsed.substitute(bindings)
        return substitute(parsed, bindings)


def _solution(text: str, table: SymbolTable, bindings) -> ClosedFormSolution:
    """A --sol text, with the --params values substituted: the solution
    u(t, x) itself, so it may name neither u nor a derivative of u."""
    e = _bind(bindings, dsl.parse(text, table))
    named = sorted(n for n in free_symbols(e) if n in table.jet_index)
    if named:
        raise UsageError(f"--sol defines u, so it may not name {named[0]}")
    return ClosedFormSolution(e)


def _table_with(params: Dict[str, str]) -> SymbolTable:
    table = dcr_symbols()
    for name in params:
        if not table.declared(name):
            table.parameter(name)
    return table


def _resolve_spec(args, spec: str, params: Dict[str, str]):
    """(catalog case or None, table, parsed bindings) for a --pde or
    --algebra value that is either 'case:<id>' or DSL text."""
    table = _table_with(params)
    bindings = {k: dsl.parse(v, table) for k, v in params.items()}
    if not spec.startswith("case:"):
        return None, table, bindings
    catalog = load_catalog(args.catalog)
    cid = spec[5:]
    _check_case_ids(catalog, [cid])
    return catalog[cid], table, bindings


def _check_case_ids(catalog, ids: List[str]) -> None:
    """Every id must name a case or one of its aliases."""
    for cid in ids:
        if cid not in catalog:
            raise UsageError(f"unknown case id {cid!r}")


def _resolve_pde(args, params: Dict[str, str]):
    """PDE from 'case:<id>' or a DSL string; returns (pde, table, parsed
    bindings), so that every other expression argument is bound as the PDE
    is."""
    case, table, bindings = _resolve_spec(args, args.pde, params)
    if case is not None:
        inst = case.instance()
        if bindings:
            with _binding():
                inst = inst.instantiate(bindings)
        return build_dcr(inst, table), table, bindings
    rhs = _bind(bindings, dsl.parse_pde(args.pde, table))
    return EvolutionPDE(rhs=rhs, table=table), table, bindings


def _resolve_algebra(args, params: Dict[str, str]) -> LieAlgebra:
    case, table, bindings = _resolve_spec(args, args.algebra, params)
    if case is not None:
        fields = case.fields()
    else:
        fields = [dsl.parse_vector_field(part.strip(), table)
                  for part in args.algebra.split(";") if part.strip()]
        if not fields:
            raise UsageError("--algebra names no vector field")
    return structure_constants([_bind(bindings, f) for f in fields])


def _parse_instance(spec: str, table: SymbolTable) -> DCRInstance:
    values = {"m": sym("m"), "p": sym("p"), "b0": rat(0), "b1": rat(0),
              "c0": rat(0), "c1": rat(0)}
    for name, value in _parse_params(spec).items():
        if name not in values:
            raise UsageError(f"unknown instance parameter {name!r} "
                             f"(expected {', '.join(values)})")
        values[name] = dsl.parse(value, table)
    if values["m"].is_zero_literal:     # u^0 diffuses nothing
        raise UsageError("diffusion exponent m must be nonzero")
    return DCRInstance(**values)


def _load_candidates(path: str, dim: int) -> List[SubalgebraRep]:
    """Candidate file: one representative per line, comma-separated DSL
    coefficients over the algebra basis; an optional '| name [kind]' suffix
    declares a free parameter (kind: a key of PARAM_KINDS, default any).
    An unknown kind, extra tokens, or a line whose coefficients are all zero
    (it spans no subalgebra) is a usage error."""
    out = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            param_spec = None
            if "|" in line:
                line, pdecl = line.split("|", 1)
                bits = pdecl.split()
                if not 1 <= len(bits) <= 2:
                    raise UsageError(f"parameter declaration {pdecl.strip()!r}"
                                     " needs the form 'name [kind]'")
                name, kind = (bits + ["any"])[:2]
                if kind not in PARAM_KINDS:
                    raise UsageError(f"unknown parameter kind {kind!r} "
                                     f"(expected {', '.join(PARAM_KINDS)})")
                param_spec = ParamSpec(name, kind)
            table = SymbolTable()
            if param_spec:
                table.parameter(param_spec.name)
            coeffs = [dsl.parse(c.strip(), table)
                      for c in line.split(",")]
            if len(coeffs) != dim:
                raise UsageError(
                    f"candidate needs {dim} coefficients, got {len(coeffs)}")
            if all(c.is_zero_literal for c in coeffs):
                raise UsageError(
                    f"candidate {line.strip()!r} is the zero vector, which "
                    "spans no subalgebra")
            out.append(SubalgebraRep(tuple(coeffs),
                                     (param_spec,) if param_spec else ()))
    return out


def _count(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"   # argparse names the type in its messages
    return parse


def _verdict_exit(verdict: str) -> int:
    good = ("symmetry", "solution", "equivalent", "verified", "constructed",
            "conjugate", "pass", "clean")
    bad = ("not-symmetry", "not-solution", "not-equivalent", "refuted",
           "not-conjugate", "fail", "flagged")
    if verdict in good:
        return 0
    if verdict in bad:
        return 1
    return 2


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify_symmetry(args) -> Report:
    params = _parse_params(args.params)
    pde, table, bindings = _resolve_pde(args, params)
    field = _bind(bindings, dsl.parse_vector_field(args.field, table))
    v = is_symmetry(pde, field)
    verdict = v.verdict.value
    rep = Report("verify-symmetry",
                 inputs={"pde": dsl.render(pde.rhs), "field": args.field,
                         "params": params},
                 verdict=verdict,
                 certificates={"residual": v.residual})
    rep.add(f"residual: {dsl.render(v.residual)}")
    return rep


def cmd_find_symmetries(args) -> Report:
    params = _parse_params(args.params)
    pde = _resolve_pde(args, params)[0]
    result = find_symmetries(pde, bound=args.bound)
    closure = check_closure(result.fields) if len(result) > 1 else None
    closed = closure.closed if closure else True
    rep = Report("find-symmetries",
                 inputs={"pde": dsl.render(pde.rhs), "bound": args.bound,
                         "params": params},
                 verdict="constructed" if closed else "not-closed",
                 certificates={
                     "count": len(result),
                     "generators": [dsl.render_field(f) for f in result.fields],
                     "closed": closed,
                 })
    rep.add(f"found {len(result)} generators:")
    for f in result.fields:
        rep.add(f"  {dsl.render_field(f)}")
    if not closed:
        rep.add(f"bracket closure violations: {closure.violations}")
    return rep


def cmd_normalize(args) -> Report:
    table = dcr_symbols()
    inst = _parse_instance(args.instance, table)
    if args.drift:
        out, witness = remove_drift(inst)
        label = "drift removal"
    else:
        out, witness = normalize_coefficient(inst, args.target)
        label = f"normalize {args.target}"
    rep = Report("normalize",
                 inputs={"instance": inst.to_record(),
                         "target": "b0-drift" if args.drift else args.target},
                 verdict="constructed",
                 certificates={"result": out.to_record(),
                               "witness": witness.to_record()})
    rep.add(f"{label}: {out.to_record()}")
    rep.add(f"witness: {witness.to_record()}")
    return rep


def cmd_equiv(args) -> Report:
    table = dcr_symbols()
    a = _parse_instance(args.a, table)
    b = _parse_instance(args.b, table)
    res = are_equivalent(a, b)
    verdict = "equivalent" if res.equivalent else res.verdict
    rep = Report("equiv",
                 inputs={"a": a.to_record(), "b": b.to_record()},
                 verdict=verdict,
                 certificates={"witness": res.witness.to_record()
                               if res.witness else None,
                               "detail": res.detail})
    rep.add(res.detail)
    return rep


def cmd_bracket_table(args) -> Report:
    params = _parse_params(args.params)
    L = _resolve_algebra(args, params)
    entries = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            entries[f"[e{i + 1},e{j + 1}]"] = list(L.c[i][j])
    rep = Report("bracket-table",
                 inputs={"algebra": args.algebra, "params": params},
                 verdict="constructed",
                 certificates={"dim": L.dim, "brackets": entries})
    for k, v in entries.items():
        rep.add(f"{k} = ({', '.join(dsl.render(e) for e in v)})")
    return rep


def cmd_identify(args) -> Report:
    params = _parse_params(args.params)
    L = _resolve_algebra(args, params)
    ident = identify(L)
    verdict = "verified" if ident.status == "identified" else "undecided"
    rep = Report("identify",
                 inputs={"algebra": args.algebra, "params": params},
                 verdict=verdict,
                 certificates={
                     "label": ident.display,
                     "witness": ident.witness,
                     "invariants": {
                         "derived_dims": list(ident.invariants.derived_dims),
                         "center_dim": ident.invariants.center_dim,
                         "killing_signature":
                             list(ident.invariants.killing_signature),
                     } if ident.invariants else None,
                 })
    rep.add(f"label: {ident.display}")
    if ident.witness:
        rep.add(f"basis-change witness rows: {_plain(ident.witness)}")
    return rep


def cmd_optimal_system(args) -> Report:
    params = _parse_params(args.params)
    L = _resolve_algebra(args, params)
    ident = identify(L)
    reps = construct_optimal_system(L, ident)
    audit = verify_candidate_system(L, reps, n_samples=args.samples,
                                    seed=_seed(args), ident=ident)
    verdict = "constructed" if audit.ok else "refuted"
    rep = Report("optimal-system",
                 inputs={"algebra": args.algebra, "params": params,
                         "samples": args.samples},
                 verdict=verdict,
                 seed=_seed(args),
                 certificates={
                     "label": ident.display,
                     "classes": [r.render() for r in reps],
                     "audit": {"pairs": len(audit.conjugate_pairs),
                               "gaps": len(audit.gaps),
                               "undecided_rate": audit.undecided_rate},
                 })
    rep.add(f"algebra: {ident.display}")
    rep.add(f"{len(reps)} classes:")
    for r in reps:
        rep.add(f"  {r.render()}")
    rep.add(audit.summary())
    return rep


def cmd_audit_system(args) -> Report:
    params = _parse_params(args.params)
    L = _resolve_algebra(args, params)
    candidates = _load_candidates(args.candidates, L.dim)
    audit = verify_candidate_system(L, candidates, n_samples=args.samples,
                                    seed=_seed(args))
    verdict = ("flagged" if not audit.ok
               else "undecided" if audit.undecided else "clean")
    rep = Report("audit-system",
                 inputs={"algebra": args.algebra,
                         "candidates": args.candidates,
                         "count": len(candidates)},
                 verdict=verdict,
                 seed=_seed(args),
                 certificates={
                     "pairs": [[i, j, w.describe()]
                               for i, j, w in audit.conjugate_pairs],
                     "gaps": [[i, [str(x) for x in vec], sig]
                              for i, vec, sig in audit.gaps[:20]],
                     "gap_count": len(audit.gaps),
                     "duplicates": audit.duplicates[:20],
                     "undecided_rate": audit.undecided_rate,
                 })
    rep.add(audit.summary())
    for i, j, w in audit.conjugate_pairs:
        rep.add(f"conjugate pair: candidates {i} and {j} via {w.describe()}")
    return rep


def cmd_reduce(args) -> Report:
    params = _parse_params(args.params)
    pde, table, bindings = _resolve_pde(args, params)
    field = _bind(bindings, dsl.parse_vector_field(args.field, table))
    ansatz = reduce_pde(pde, field)
    rep = Report("reduce",
                 inputs={"pde": dsl.render(pde.rhs), "field": args.field},
                 verdict="constructed",
                 certificates={
                     "omega": ansatz.omega,
                     "multiplier": ansatz.multiplier,
                     "ode": ansatz.ode,
                     "factor": ansatz.factor,
                     "certificate_zero": ansatz.certificate.is_zero_literal,
                 })
    rep.add(f"invariant: w = {dsl.render(ansatz.omega)}")
    rep.add(f"ansatz: u = ({dsl.render(ansatz.multiplier)}) * phi(w)")
    rep.add(f"reduced ODE: {dsl.render(ansatz.ode)} = 0")
    rep.add(f"extracted factor: {dsl.render(ansatz.factor)}")
    return rep


def cmd_verify_solution(args) -> Report:
    params = _parse_params(args.params)
    pde, table, bindings = _resolve_pde(args, params)
    sol = _solution(args.sol, table, bindings)
    v = verify_solution(pde, sol)
    rep = Report("verify-solution",
                 inputs={"pde": dsl.render(pde.rhs), "sol": args.sol},
                 verdict=v.verdict,
                 certificates={"residual": v.residual})
    rep.add(f"residual: {dsl.render(v.residual)}")
    return rep


def cmd_transform_solution(args) -> Report:
    params = _parse_params(args.params)
    pde, table, bindings = _resolve_pde(args, params)
    sol = _solution(args.sol, table, bindings)
    field = _bind(bindings, dsl.parse_vector_field(args.field, table))
    eps = _bind(bindings, dsl.parse(args.epsilon, table))
    out = transform_solution(sol, field, eps)
    v = verify_solution(pde, out)
    rep = Report("transform-solution",
                 inputs={"pde": dsl.render(pde.rhs), "sol": args.sol,
                         "field": args.field, "epsilon": args.epsilon},
                 verdict=v.verdict,
                 certificates={"transformed": out.expr,
                               "residual": v.residual})
    rep.add(f"transformed solution: u = {dsl.render(out.expr)}")
    rep.add(f"verification: {v.verdict}")
    return rep


def cmd_regress(args) -> Report:
    catalog = load_catalog(args.catalog)
    _check_case_ids(catalog, args.cases or [])
    report = run_regression(catalog, case_ids=args.cases or None,
                            seed=_seed(args), audit_samples=args.samples,
                            jobs=args.jobs)
    verdict = "pass" if report.ok else "fail"
    rep = Report("regress",
                 inputs={"catalog": args.catalog or "builtin",
                         "jobs": args.jobs, "samples": args.samples},
                 verdict=verdict,
                 seed=_seed(args),
                 certificates={
                     "total": len(report.results),
                     "failed": [r.line() for r in report.failures()],
                 })
    rep.add(report.summary())
    return rep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liesym",
        description="Exact Lie-symmetry toolkit for "
                    "diffusion-convection-reaction equations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pde=False, algebra=False):
        """--out on every subcommand; --params and --catalog with --pde or
        --algebra, the options that read them."""
        p.add_argument("--out", help="write the structured JSON report here")
        if pde:
            p.add_argument("--pde", required=True,
                           help="'u_t = <expr>' or case:<id>")
        if algebra:
            p.add_argument("--algebra", required=True,
                           help="semicolon-separated fields or case:<id>")
        if pde or algebra:
            p.add_argument("--params", help="name=value,... (rationals or "
                                            "symbolic names)")
            p.add_argument("--catalog", help="case catalog file")

    def sampling(p, samples: int):
        """--samples and the --seed that draws them."""
        p.add_argument("--samples", type=_count(0), default=samples)
        p.add_argument("--seed", type=int, help="audit seed "
                                                "(default LIESYM_SEED or "
                                                f"{DEFAULT_SEED})")

    p = sub.add_parser("verify-symmetry", help="invariance check")
    common(p, pde=True)
    p.add_argument("--field", required=True)
    p.set_defaults(func=cmd_verify_symmetry)

    p = sub.add_parser("find-symmetries", help="polynomial-ansatz search")
    common(p, pde=True)
    p.add_argument("--bound", type=_count(1), default=2)
    p.set_defaults(func=cmd_find_symmetries)

    p = sub.add_parser("normalize", help="coefficient normalization")
    common(p)
    p.add_argument("--instance", required=True, help="m=2,p=1,c1=4,...")
    p.add_argument("--target", default="c1",
                   choices=["b0", "b1", "c0", "c1"])
    p.add_argument("--drift", action="store_true",
                   help="remove the linear drift instead")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("equiv", help="equivalence of two instances")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("bracket-table", help="structure constants")
    common(p, algebra=True)
    p.set_defaults(func=cmd_bracket_table)

    p = sub.add_parser("identify", help="match against the class catalog")
    common(p, algebra=True)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("optimal-system",
                       help="construct and audit the optimal system")
    common(p, algebra=True)
    sampling(p, DEFAULT_SAMPLES)
    p.set_defaults(func=cmd_optimal_system)

    p = sub.add_parser("audit-system", help="audit a candidate list")
    common(p, algebra=True)
    p.add_argument("--candidates", required=True)
    sampling(p, DEFAULT_SAMPLES)
    p.set_defaults(func=cmd_audit_system)

    p = sub.add_parser("reduce", help="symmetry reduction to an ODE")
    common(p, pde=True)
    p.add_argument("--field", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify-solution", help="substitute and test")
    common(p, pde=True)
    p.add_argument("--sol", required=True)
    p.set_defaults(func=cmd_verify_solution)

    p = sub.add_parser("transform-solution",
                       help="one-parameter group action on a solution")
    common(p, pde=True)
    p.add_argument("--sol", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--epsilon", required=True)
    p.set_defaults(func=cmd_transform_solution)

    p = sub.add_parser("regress", help="run the catalog regression")
    common(p)
    p.add_argument("--catalog", help="case catalog file")
    p.add_argument("--jobs", type=_count(1), default=1,
                   help="processes that share the cases, this one included "
                        "(at most one per case and per usable CPU)")
    sampling(p, 300)
    p.add_argument("--cases", nargs="*", help="restrict to these case ids")
    p.set_defaults(func=cmd_regress)

    return parser


def _write_out(path: str, report: Report):
    try:
        with open(path, "w") as fh:
            fh.write(report.to_json())
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}") from None


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    start = time.time()
    try:
        report = args.func(args)
        if args.out:
            _write_out(args.out, report)
    except (UsageError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ResourceLimitError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return _verdict_exit("undecided")
    except ExprError as exc:
        if isinstance(exc, NotClosedError) and isinstance(exc.leftover, str):
            # whether a bracket lies in the span is undecided: no bad input
            print(f"undecided: {exc}", file=sys.stderr)
            return _verdict_exit("undecided")
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_FAULT
    try:
        print(report.human())
        print(f"elapsed: {time.time() - start:.3f}s")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (``| head``): the verdict and
        # --out stand.  Point stdout at devnull so that the flush at exit
        # raises no second error, as the signal module's docs advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return _verdict_exit(report.verdict)


if __name__ == "__main__":
    sys.exit(main())
