"""Reduced-size self-test of the benchmark.

Run from the root of a checkout:

    python3 bench/selftest.py

For every workload it runs ``bench/run.py --small`` once untraced and once
traced, and checks that

- the last output line has exactly the keys correct, attempted, failed
  and metrics, with correct true and no failed command;
- the untraced run emits every end_to_end metric of BENCHMARK.json, and
  the traced run every per_layer metric, each with the unit given there;
- the traced and untraced runs reach identical verdicts.

It also checks that the benchmark exits non-zero without a result line
in a directory that holds only BENCHMARK.json and the benchmark files.
Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 300


def bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0", "--trace", str(trace), "--small"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(proc, wanted: dict, label: str, problems: list) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        problems.append(f"{label}: exit {proc.returncode}, stderr {proc.stderr[-400:]}")
        return {}
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')} "
                        f"{info.get('failures')}")
    metrics = result.get("metrics", {})
    for name, unit in wanted.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"{label}: metric {name} missing")
        elif got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: metric {name} is {got}, unit should be {unit}")
    extra = set(metrics) - set(wanted)
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return info


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []
    for w in spec["workloads"]:
        name = w["name"]
        plain = check_run(bench(root, name, 0), end_to_end, f"{name} trace 0", problems)
        traced = check_run(bench(root, name, 1), per_layer, f"{name} trace 1", problems)
        if plain and traced and plain["verdict_digest"] != traced["verdict_digest"]:
            problems.append(f"{name}: traced and untraced verdicts differ")
        print(f"{name}: verdicts {plain.get('verdicts_per_pass')}, pass times of the "
              f"traced run (untraced first) {traced.get('pass_s')}", flush=True)

    bare = os.path.join(root, ".bench_run", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
