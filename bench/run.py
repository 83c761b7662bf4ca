"""liesym benchmark runner.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs whole rounds of the workload's operations until ``--seconds`` have
passed (at least two rounds), checks the first round against the sympy
oracle and every later round against the first, and prints the workload's
named figures followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured untraced.  With ``--trace 1`` each round runs the workload untraced
and then traced, and the metrics are the per-layer ones; the gap between the
two passes is reported as ``trace.overhead_pct``.  The program is run from
``src/`` of the checkout that holds this file; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import NoMeter, SpeedMeter, scaled  # noqa: E402
from workloads import CPUS, ROOT, SRC, WORKLOADS, child_env  # noqa: E402

MIN_ROUNDS = 2
SETUP_PROBES = 24
PROBE_TIMEOUT_S = 60
CASE_IDS = ("eq1", "eq4", "ovsiannikov", "special-case", "heat")
MATRIX_BOUNDS = (2, 3, 4, 5, 6, 8)


# ---------------------------------------------------------------------------
# set-up time: fresh processes, timed from spawn until inputs are ready
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed),
           str(workdir)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env())
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return ready


def probe_import() -> float:
    code = ("import time; t = time.perf_counter(); import liesym.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env(), timeout=PROBE_TIMEOUT_S,
                         check=True)
    return float(out.stdout.strip())


# ---------------------------------------------------------------------------
# tracing targets: (module, attribute, span name, before, after)
# ---------------------------------------------------------------------------

def _count_verdict(tr, args, kw, result):
    tr.counts[f"expr.is_zero.{result.value}"] += 1


def _push_bound(tr, args, kw):
    tr.bounds.append(kw.get("bound", args[1] if len(args) > 1 else 2))


def _pop_bound(tr, args, kw, result):
    tr.bounds.pop()
    tr.counts["symmetry.generators"] += len(result)


def _matrix_counts(tr, args, kw, result):
    if not tr.bounds:
        return
    rows, ncols = args[0], args[1]
    b = tr.bounds[-1]
    tr.counts[f"symmetry.matrix_rows.b{b}"] += len(rows)
    tr.counts[f"symmetry.matrix_cols.b{b}"] += ncols
    tr.counts[f"symmetry.matrix_nnz.b{b}"] += sum(1 for r in rows
                                                  for v in r if v)
    tr.counts[f"symmetry.matrix_rank.b{b}"] += ncols - len(result)


def _count_classes(tr, args, kw, result):
    tr.counts["optimal.classes"] += len(result)


def _count_undecided(tr, args, kw, result):
    tr.counts["optimal.audit_undecided"] += result.undecided


TARGETS = [
    ("liesym.expr", "add", "expr.add", None, None),
    ("liesym.expr", "mul", "expr.mul", None, None),
    ("liesym.expr", "powx", "expr.powx", None, None),
    ("liesym.expr", "differentiate", "expr.differentiate", None, None),
    ("liesym.expr", "substitute", "expr.substitute", None, None),
    ("liesym.expr", "is_zero", "expr.is_zero", None, _count_verdict),
    ("liesym.dsl", "parse", "dsl.parse", None, None),
    ("liesym.jets", "prolong2", "jets.prolong2", None, None),
    ("liesym.jets", "total_derivative", "jets.total_derivative", None, None),
    ("liesym.symmetry", "invariance_residual", "symmetry.invariance_residual",
     None, None),
    ("liesym.symmetry", "is_symmetry", "symmetry.is_symmetry", None, None),
    ("liesym.symmetry", "find_symmetries", "symmetry.find_symmetries",
     _push_bound, _pop_bound),
    ("liesym.linalg", "nullspace", "linalg.nullspace", None, _matrix_counts),
    ("liesym.linalg", "rref", "linalg.rref", None, None),
    ("liesym.algebra", "structure_constants", "algebra.structure_constants",
     None, None),
    ("liesym.algebra", "check_closure", "algebra.check_closure", None, None),
    ("liesym.algebra", "identify", "algebra.identify", None, None),
    ("liesym.optimal", "construct_optimal_system", "optimal.construct", None,
     _count_classes),
    ("liesym.optimal", "are_conjugate", "optimal.are_conjugate", None, None),
    ("liesym.optimal", "ClassifiedAlgebra.classify", "optimal.classify", None,
     None),
    ("liesym.optimal", "verify_candidate_system", "optimal.audit", None,
     _count_undecided),
    ("liesym.equivalence", "normalize_coefficient", "equivalence.normalize",
     None, None),
    ("liesym.equivalence", "are_equivalent", "equivalence.are_equivalent",
     None, None),
    ("liesym.reduction", "reduce_pde", "reduction.reduce_pde", None, None),
    ("liesym.reduction", "verify_solution", "reduction.verify_solution", None,
     None),
    ("liesym.catalog", "load_catalog", "catalog.load", None, None),
    ("liesym.catalog", "_check_case",
     lambda args: f"catalog.case_s.{args[0].case_id}", None, None),
    ("liesym.report", "Report.to_json", "report.to_json", None, None),
]

# per-layer metric -> (span name, field of Tracer.layer_times)
SPAN_METRICS = {
    "dsl.parse_s": ("dsl.parse", "self"),
    "dsl.parse_calls": ("dsl.parse", "calls"),
    **{f"expr.{f}_{k}": (f"expr.{f}", "self" if k == "s" else "calls")
       for f in ("add", "mul", "powx", "differentiate", "substitute")
       for k in ("s", "calls")},
    "expr.is_zero_s": ("expr.is_zero", "self"),
    "jets.prolong2_s": ("jets.prolong2", "self"),
    "jets.prolong2_calls": ("jets.prolong2", "calls"),
    "jets.total_derivative_s": ("jets.total_derivative", "self"),
    "symmetry.invariance_residual_s": ("symmetry.invariance_residual", "self"),
    "symmetry.invariance_residual_calls": ("symmetry.invariance_residual",
                                           "calls"),
    "symmetry.find_symmetries_s": ("symmetry.find_symmetries", "self"),
    "symmetry.reverify_s": ("symmetry.is_symmetry<symmetry.find_symmetries",
                            "incl"),
    "linalg.nullspace_s": ("linalg.nullspace", "self"),
    "linalg.rref_s": ("linalg.rref", "self"),
    "linalg.rref_calls": ("linalg.rref", "calls"),
    "algebra.structure_constants_s": ("algebra.structure_constants", "self"),
    "algebra.check_closure_s": ("algebra.check_closure", "self"),
    "algebra.identify_s": ("algebra.identify", "self"),
    "optimal.construct_s": ("optimal.construct", "self"),
    "optimal.are_conjugate_s": ("optimal.are_conjugate", "self"),
    "optimal.classify_s": ("optimal.classify", "self"),
    "optimal.classify_calls": ("optimal.classify", "calls"),
    "equivalence.normalize_s": ("equivalence.normalize", "self"),
    "equivalence.are_equivalent_s": ("equivalence.are_equivalent", "self"),
    "reduction.reduce_pde_s": ("reduction.reduce_pde", "self"),
    "reduction.verify_solution_s": ("reduction.verify_solution", "self"),
    "catalog.load_s": ("catalog.load", "self"),
    **{f"catalog.case_s.{c}": (f"catalog.case_s.{c}", "incl")
       for c in CASE_IDS},
    "report.to_json_s": ("report.to_json", "self"),
}
COUNTERS = (["expr.is_zero.zero", "expr.is_zero.nonzero",
             "expr.is_zero.undecided", "symmetry.generators",
             "optimal.classes", "optimal.audit_undecided"]
            + [f"symmetry.matrix_{k}.b{b}" for b in MATRIX_BOUNDS
               for k in ("rows", "cols", "nnz", "rank")])


def layer_metrics(tracer) -> dict:
    times = tracer.layer_times()
    out = {}
    for metric, (span, key) in SPAN_METRICS.items():
        out[metric] = times[span][key] if span in times else 0
    for name in COUNTERS:
        out[name] = tracer.counts.get(name, 0)
    return out


def _unit(metric: str) -> str:
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    return "count"


# ---------------------------------------------------------------------------

def run_rounds(wl, state, seconds: float, trace: bool, meter, probe_dir):
    """Runs rounds until ``seconds`` have passed.  Untraced, the set-up
    probes are spread over the same time, SETUP_PROBES in all, so that
    set-up and rounds sample the same phases of the machine's speed."""
    if trace:
        import liesym.cli  # noqa: F401  (loads every module a target lives in)
    rounds, imports, probes = [], [], []
    start = time.perf_counter()
    try:
        while True:
            # Each CPU of the shared host slows down in phases of its own
            # (tens of percent, for 10-30 s), so rounds alternate between
            # the CPUs to average independent phases.
            os.sched_setaffinity(0, {CPUS[len(rounds) % len(CPUS)]})
            rounds.append(run_round(wl, state, trace, meter))
            elapsed = time.perf_counter() - start
            if trace:
                imports.append(probe_import())
            else:
                due = min(SETUP_PROBES,
                          math.ceil(SETUP_PROBES * elapsed / seconds))
                while len(probes) < due:
                    os.sched_setaffinity(0, {CPUS[len(probes) % len(CPUS)]})
                    raw = probe_setup(wl.name, state["seed"], probe_dir)
                    probes.append((raw, scaled(raw)))
            if len(rounds) >= MIN_ROUNDS and elapsed >= seconds:
                return rounds, imports, probes
    finally:
        os.sched_setaffinity(0, CPUS)


def run_round(wl, state, trace: bool, meter):
    from spans import Tracer

    passes = {}
    for mode in wl.modes(trace):
        tracer = Tracer() if mode == "traced" else None
        if tracer is not None:
            tracer.install(TARGETS)
        try:
            p = wl.run_pass(state, mode, meter)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            p.layers = layer_metrics(tracer)
        passes[mode] = p
    return passes


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def end_to_end(wl, rounds, probes, factor, rss):
    """Times are scaled to the reference speed of calibrate.py."""
    main = [r[wl.modes(False)[0]] for r in rounds]
    return {
        "setup_s": (statistics.median(s for _, s in probes), "s"),
        "round_s": (statistics.median(p.total_s for p in main) * factor, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(rounds, imports, problems):
    traced = [r["traced"] for r in rounds]
    plain_mode = "in-process" if "in-process" in rounds[0] else "plain"
    plain = [r[plain_mode] for r in rounds]
    out = {}
    for metric in traced[0].layers:
        values = [p.layers[metric] for p in traced]
        if _unit(metric) == "count":
            if len(set(values)) != 1:
                problems.append(f"counter {metric} differs between rounds: "
                                f"{values}")
            out[metric] = values[0]
        else:
            out[metric] = statistics.median(values)
    calls = [c for r in rounds for p in r.values() for c in p.calls
             if c.elapsed_s is not None]
    out["cli.import_s"] = statistics.median(imports)
    out["cli.startup_s"] = statistics.median(
        [c.wall_s - c.elapsed_s for c in calls]) if calls else 0
    out["cli.work_s"] = statistics.median(
        [c.elapsed_s for c in calls]) if calls else 0
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(p.in_process_s for p in traced)
        / statistics.median(p.in_process_s for p in plain) - 1.0)
    return out


def compare_rounds(rounds, problems):
    """Every pass of every round must reproduce the first pass's outputs."""
    first = None
    for i, r in enumerate(rounds):
        for mode, p in r.items():
            if first is None:
                first = p.outputs
            elif p.outputs != first:
                problems.append(f"round {i} ({mode}) output differs from the "
                                "first round")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "liesym" / "__init__.py").is_file():
        print(f"error: no liesym sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    import liesym

    if Path(liesym.__file__).resolve().parent != SRC / "liesym":
        print(f"error: imported liesym from {liesym.__file__}", file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-",
                                    dir=ROOT / ".bench_work"))
    try:
        state = wl.setup(args.seed, workdir)
        probe_dir = workdir / "probe"
        probe_dir.mkdir()
        meter = NoMeter() if args.trace else SpeedMeter()
        try:
            rounds, imports, probes = run_rounds(
                wl, state, args.seconds, bool(args.trace), meter, probe_dir)
        except Exception:
            traceback.print_exc()
            return 1
        factor = meter.factor()
        rss = peak_rss_mb()

        problems = []
        compare_rounds(rounds, problems)
        import oracle

        first = rounds[0][wl.modes(bool(args.trace))[0]]
        problems += wl.check(state, first, oracle.Oracle())
        passes = [p for r in rounds for p in r.values()]
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)

        if args.trace:
            metrics = {k: (v, _unit(k)) for k, v in
                       per_layer(rounds, imports, problems).items()}
        else:
            metrics = end_to_end(wl, rounds, probes, factor, rss)
        mode = wl.modes(False)[0]
        for name, value in wl.named([r[mode] for r in rounds]).items():
            print(f"{wl.name}  {name} = {value * factor:.6g} s")
        for name, (value, unit) in sorted(metrics.items()):
            print(f"{wl.name}  {name} = {value:.6g} {unit}")
        print(f"{wl.name}  rounds = {len(rounds)}, attempted = {attempted}, "
              f"failed = {failed}, raw round times = "
              f"{[round(r[mode].total_s, 3) for r in rounds]} s, "
              + (f"raw set-up median = "
                 f"{statistics.median(r for r, _ in probes):.4f} s "
                 f"over {len(probes)} probes, " if probes else "")
              + f"speed factor = {factor:.4f}")
        for p in problems:
            print(f"CHECK FAILED: {p}", file=sys.stderr)
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
