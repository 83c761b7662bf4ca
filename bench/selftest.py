"""Self-test of the benchmark: every workload once at minimal length, untraced
and traced, with every check on.

    python3 bench/selftest.py

Asserts for each run: exit code 0, ``correct`` true, the metric names and
units of BENCHMARK.json, and the expected share of failed operations (only
the known-fault call on cli-readme fails).  The traced run is made twice and
its counters must repeat exactly.  Finally the benchmark must refuse to run,
without printing a result, from a directory that holds only BENCHMARK.json
and bench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
FAILED_SHARE = {"cli-readme": (1, 13)}


def run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        counters = []
        for trace in (0, 1, 1):
            proc = run(w, trace)
            tag = f"{w} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if not res["correct"]:
                problems.append(f"{tag}: incorrect\n{proc.stderr}")
            if units != wanted[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json")
            num, den = FAILED_SHARE.get(w, (0, 1))
            if res["failed"] * den != res["attempted"] * num:
                problems.append(f"{tag}: {res['failed']} of "
                                f"{res['attempted']} failed")
            if trace:
                counters.append({k: v["value"] for k, v in
                                 res["metrics"].items() if v["unit"] == "count"})
            print(f"{tag}: ok={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)
        if len(counters) == 2 and counters[0] != counters[1]:
            diff = {k for k in counters[0] if counters[0][k] != counters[1][k]}
            problems.append(f"{w}: counters differ between runs: {diff}")
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("bare directory: the benchmark did not refuse")
        print(f"bare directory: exit {proc.returncode}", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
