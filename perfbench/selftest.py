"""Self-test of the benchmark: smoke runs of every workload, traced and not.

Usage: python3 perfbench/selftest.py

Checks that each run exits 0 with a correct result, that the metric names are
exactly those BENCHMARK.json lists, that every closed-form counter check ran
on at least one op, and that the benchmark refuses to run, without printing
a result, in a directory holding only BENCHMARK.json and perfbench/.
Takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHECKS = {"traced-output-unchanged", "naive-pass-subsets", "det-per-subset",
          "mitm-listed-subsets", "gf-matrices", "pairs-per-trial", "gf-trials",
          "modp-matrices"}


def run(cwd: str, workload: str, trace: int, smoke: bool = True) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems, seen_checks = [], set()
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, wl["name"], trace)
            tag = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[n for n in want if n in got and got[n] != want[n]]}")
            seen_checks.update(ln.split()[1].rstrip(":") for ln in lines if ln.startswith("check "))
    if CHECKS - seen_checks:
        problems.append(f"counter checks never exercised: {sorted(CHECKS - seen_checks)}")

    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(bare, spec["workloads"][0]["name"], 0, smoke=False)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
