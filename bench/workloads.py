"""The benchmark workloads.

Each workload is a closed loop of one client.  ``setup`` runs the
workload's set-up from setups.py, which probe.py also runs in the fresh
processes that measure set-up time.  ``run_pass`` performs one
round of operations, calling ``meter.note`` after each (see calibrate.py),
and returns timings, operation counts and the outputs that ``check``
compares against the sympy oracle and against the first round.  No
function here imports sympy.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import setups
from setups import HEAT, REACTION

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALL_TIMEOUT_S = 120
CPUS = sorted(os.sched_getaffinity(0))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("LIESYM_SEED", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


@contextlib.contextmanager
def all_cpus():
    """Lets a child with worker processes use every CPU of the run."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


@dataclass
class CliCall:
    argv: List[str]
    code: int
    wall_s: float
    elapsed_s: Optional[float]
    stdout: str
    out_bytes: bytes


def run_cli(argv: List[str], out: Path) -> CliCall:
    """One fresh ``python -m liesym.cli`` process, timed from spawn to exit."""
    cmd = [sys.executable, "-m", "liesym.cli", *argv, "--out", str(out)]
    if out.exists():
        out.unlink()
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=child_env(), timeout=CALL_TIMEOUT_S)
    wall = time.perf_counter() - start
    elapsed = None
    for line in proc.stdout.splitlines():
        if line.startswith("elapsed: ") and line.endswith("s"):
            elapsed = float(line[len("elapsed: "):-1])
    data = out.read_bytes() if out.exists() else b""
    return CliCall(argv, proc.returncode, wall, elapsed, proc.stdout, data)


def run_cli_in_process(argv: List[str], out: Path) -> CliCall:
    """The same command through ``liesym.cli.main`` in this process."""
    from liesym import cli

    if out.exists():
        out.unlink()
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main([*argv, "--out", str(out)])
    wall = time.perf_counter() - start
    data = out.read_bytes() if out.exists() else b""
    return CliCall(argv, code, wall, None, buf.getvalue(), data)


@dataclass
class PassResult:
    """One pass over a workload's operations."""

    attempted: int = 0
    failed: int = 0
    total_s: float = 0.0
    in_process_s: float = 0.0
    step_s: List[float] = field(default_factory=list)
    outputs: object = None
    calls: List[CliCall] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)


def _median_step(passes: List[PassResult]) -> float:
    return statistics.median(s for p in passes for s in p.step_s)


# ---------------------------------------------------------------------------
# cli-readme
# ---------------------------------------------------------------------------

KNOWN_FAULT = ["verify-symmetry", "--pde", "u_t=D(u^m,x,2)",
               "--field", "x*Dx+2/(m-1)*u*Du"]


class CliReadme:
    """Every README command except ``regress``, each as a fresh process,
    plus the known-fault call and an audit of a padded candidate list, the
    one call that makes the audit test a pair for conjugacy."""

    name = "cli-readme"

    def commands(self, seed: int, cand: Path,
                 padded: Path) -> List[List[str]]:
        a35 = ["--algebra", "case:eq5", "--params", "m=2,p=3"]
        return [
            ["verify-symmetry", "--pde", "u_t = D(u^2,x,2) + D(u^2,x)",
             "--field", "-t*Dt + u*Du"],
            ["find-symmetries", "--pde", "u_t = D(u^2,x,2)", "--bound", "2"],
            ["normalize", "--instance", "m=2,p=1,b1=1,c1=4", "--target", "c1"],
            ["equiv", "--a", "m=2,p=1,b0=3,b1=1,c1=4",
             "--b", "m=2,p=1,b1=1,c1=4"],
            ["bracket-table", "--algebra", "case:eq5"],
            ["identify", *a35],
            ["optimal-system", *a35, "--seed", str(seed)],
            ["audit-system", *a35, "--candidates", str(cand),
             "--seed", str(seed)],
            ["reduce", "--pde", "case:eq4", "--params", "m=2,p=1",
             "--field", "Dt + 3*Dx"],
            ["verify-solution", "--pde", "case:eq1", "--sol", "1"],
            ["transform-solution", "--pde", "u_t = D(u,x,2)", "--sol", "x",
             "--field", "u*Du", "--epsilon", "1/2"],
            KNOWN_FAULT,
            ["audit-system", *a35, "--candidates", str(padded),
             "--seed", str(seed)],
        ]

    def setup(self, seed: int, workdir: Path):
        state = setups.cli_readme(seed, workdir)
        state["commands"] = self.commands(seed, state["candidates"],
                                          state["padded"])
        return state

    def modes(self, trace: bool) -> List[str]:
        return ["subprocess", "in-process", "traced"] if trace \
            else ["subprocess"]

    def run_pass(self, state, mode: str, meter) -> PassResult:
        res = PassResult()
        runner = run_cli if mode == "subprocess" else run_cli_in_process
        outs = []
        for i, argv in enumerate(state["commands"]):
            call = runner(argv, state["workdir"] / f"out{i}.json")
            meter.note(call.wall_s)
            res.attempted += 1
            if call.code not in (0, 1):
                res.failed += 1
            res.calls.append(call)
            res.step_s.append(call.wall_s)
            outs.append((call.code, call.out_bytes))
        res.total_s = sum(res.step_s)
        if mode != "subprocess":
            res.in_process_s = res.total_s
        res.outputs = outs
        return res

    def named(self, passes: List[PassResult]) -> Dict[str, float]:
        return {"cli_call_s": _median_step(passes)}

    def check(self, state, first: PassResult, oracle) -> List[str]:
        from checks import check_cli

        return check_cli(state, first, oracle)


# ---------------------------------------------------------------------------
# determining-system
# ---------------------------------------------------------------------------

SWEEP = [(REACTION, b) for b in (2, 4, 6, 8)] + [(HEAT, b) for b in range(2, 7)]


class DeterminingSystem:
    name = "determining-system"

    def setup(self, seed: int, workdir: Path):
        return setups.determining_system(seed, workdir)

    def modes(self, trace: bool) -> List[str]:
        return ["plain", "traced"] if trace else ["plain"]

    def run_pass(self, state, mode: str, meter) -> PassResult:
        from liesym import dsl
        from liesym.jets import dcr_symbols
        from liesym.pde import EvolutionPDE
        from liesym.symmetry import find_symmetries

        res = PassResult()
        outs = []
        for text, bound in SWEEP:
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                table = dcr_symbols()
                pde = EvolutionPDE(rhs=dsl.parse_pde(text, table), table=table)
                found = find_symmetries(pde, bound=bound)
                gens = tuple(dsl.render_field(f) for f in found.fields)
            except Exception as exc:  # counted, reported by check
                res.failed += 1
                gens = ("error", repr(exc))
            dt = time.perf_counter() - t0
            meter.note(dt)
            res.total_s += dt
            if text == REACTION and bound == 8:
                res.step_s.append(dt)
            outs.append((text, bound, gens))
        res.in_process_s = res.total_s
        res.outputs = outs
        return res

    def named(self, passes: List[PassResult]) -> Dict[str, float]:
        return {"find_sweep_s": statistics.median(p.total_s for p in passes),
                "find_b8_s": _median_step(passes)}

    def check(self, state, first: PassResult, oracle) -> List[str]:
        from checks import check_determining

        return check_determining(first, oracle)


# ---------------------------------------------------------------------------
# regress
# ---------------------------------------------------------------------------

class Regress:
    name = "regress"
    samples = 300

    def setup(self, seed: int, workdir: Path):
        return setups.regress(seed, workdir)

    def modes(self, trace: bool) -> List[str]:
        return ["plain", "traced"] if trace else ["plain"]

    def run_pass(self, state, mode: str, meter) -> PassResult:
        from liesym.catalog import load_catalog, run_regression

        res = PassResult()
        start = time.perf_counter()
        res.attempted += 1
        try:
            report = run_regression(load_catalog(), seed=state["seed"],
                                    audit_samples=self.samples, jobs=1)
            lines = report.summary().splitlines()
            ok = report.ok
        except Exception as exc:
            lines, ok = [repr(exc)], False
        if not ok:
            res.failed += 1
        res.in_process_s = time.perf_counter() - start
        meter.note(res.in_process_s)
        res.step_s.append(res.in_process_s)
        res.attempted += 1
        with all_cpus():
            call = run_cli(["regress", "--jobs", "2", "--seed",
                            str(state["seed"]), "--samples", str(self.samples)],
                           state["workdir"] / "regress.json")
        if call.code != 0:      # 1 is the verdict "fail"
            res.failed += 1
        res.calls.append(call)
        meter.note(call.wall_s)
        res.total_s = res.in_process_s + call.wall_s
        res.outputs = (ok, lines, call.code, call.out_bytes)
        return res

    def named(self, passes: List[PassResult]) -> Dict[str, float]:
        return {"regress_s": _median_step(passes),
                "regress_jobs2_s": statistics.median(p.calls[0].wall_s
                                                     for p in passes)}

    def check(self, state, first: PassResult, oracle) -> List[str]:
        from checks import check_regress

        return check_regress(state, first, oracle)


WORKLOADS = {w.name: w for w in (CliReadme(), DeterminingSystem(), Regress())}
