"""Census of the benchmark workloads: every command's verdict, strategy,
exit code, printed bytes, derivation nodes and checker work, for one or
two source trees.

    python3 tools/census.py --seed 1 TREE [OTHER]

TREE and OTHER are roots of fnlkit checkouts (each with `src/fnlkit`).
The commands come from `bench/workloads.py` of the checkout this script
lives in, so both trees run the same command lists; nothing under
`bench/` is written.  Each tree runs in a child process of its own, with
`PYTHONHASHSEED` fixed as `bench/run.py` fixes it, and drives every
command in-process through `fnlkit.cli.main`, clearing every fnlkit
`functools` cache before each command, as the benchmark does, and
counting the calls of `fnlkit.checker.check_derivation` and the nodes
they were handed.

Per workload it prints the verdict digest (the benchmark's), the verdict
counts, the proved commands by strategy, the printed bytes, the
derivation nodes, and the checker calls and the nodes they checked.
Given two trees it then lists every command whose verdict, strategy or
exit code differs, or that prints more bytes under OTHER than under
TREE, and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def census(tree: str, seed: int, names: list[str]) -> dict:
    """One record per command of each named workload, run on tree."""
    import run as bench  # bench/run.py: the import and the cache list

    import workloads as wl

    src = os.path.join(os.path.abspath(tree), "src")
    sys.path.insert(0, src)
    fk = bench.import_fnlkit(src)
    caches = bench.program_caches(fk)
    check, checked = fk.checker.check_derivation, [0, 0]

    def counted_check(sys_, phi, d, *rest, **kw):
        checked[0] += 1
        checked[1] += fk.proofs.size(d)
        return check(sys_, phi, d, *rest, **kw)

    fk.checker.check_derivation = counted_check
    out: dict = {}
    for name in names:
        rows = []
        with tempfile.TemporaryDirectory() as workdir:
            work = wl.WORKLOADS[name](fk, seed, workdir)
            for cmd in work.commands:
                for c in caches:
                    c.cache_clear()
                checked[:] = [0, 0]
                text = io.StringIO()
                with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = fk.cli.main(list(cmd.argv))
                    except Exception as e:  # noqa: BLE001 - a crash is a result too
                        code = f"raised {type(e).__name__}"
                printed = text.getvalue()
                try:
                    payload = json.loads(printed)
                except ValueError:
                    payload = {}
                derivation = payload.get("derivation") or {}
                rows.append({
                    "argv": [a.replace(workdir, "<workdir>") for a in cmd.argv],
                    "code": code,
                    "verdict": payload.get("verdict"),
                    "strategy": payload.get("strategy"),
                    "bytes": len(printed.encode("utf-8")),
                    "nodes": len(derivation.get("nodes", ())),
                    "checks": checked[0],
                    "checked_nodes": checked[1],
                })
        out[name] = rows
    return out


def summary(rows: list[dict]) -> dict:
    verdicts = [r["verdict"] for r in rows]
    by_strategy = Counter(r["strategy"] for r in rows if r["verdict"] == "proved")
    return {
        "commands": len(rows),
        "digest": hashlib.sha1("\n".join(map(str, verdicts)).encode()).hexdigest()[:16],
        "proved/refuted/unknown": "/".join(
            str(verdicts.count(v)) for v in ("proved", "refuted", "unknown")),
        "proved by": " ".join(f"{k}:{n}" for k, n in sorted(by_strategy.items())) or "-",
        "bytes": sum(r["bytes"] for r in rows),
        "nodes": sum(r["nodes"] for r in rows),
        "checks": sum(r["checks"] for r in rows),
        "checked nodes": sum(r["checked_nodes"] for r in rows),
    }


def differences(base: dict, other: dict) -> list[str]:
    out = []
    for name, rows in base.items():
        if len(rows) != len(other[name]):
            out.append(f"{name}: {len(rows)} commands against {len(other[name])}")
            continue
        for a, b in zip(rows, other[name]):
            what = [k for k in ("argv", "verdict", "strategy", "code") if a[k] != b[k]]
            if b["bytes"] > a["bytes"]:
                what.append(f"bytes {a['bytes']} -> {b['bytes']}")
            if what:
                out.append(f"{name}: {' '.join(a['argv'][:2])}: {', '.join(what)}")
    return out


def run_child(tree: str, seed: int, names: list[str]) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, os.path.abspath(__file__), "--seed", str(seed), "--child", tree]
    for name in names:
        argv += ["--workload", name]
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", metavar="TREE", help="one or two checkout roots")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", dest="names",
                    help="a workload to run (repeatable; default: all four)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, BENCH)
    import workloads as wl

    names = args.names or list(wl.WORKLOADS)
    if args.child:
        json.dump(census(args.trees[0], args.seed, names), sys.stdout)
        return 0
    if len(args.trees) > 2:
        ap.error("give one or two trees")
    results = [run_child(t, args.seed, names) for t in args.trees]
    for name in names:
        for tree, res in zip(args.trees, results):
            s = summary(res[name])
            print(f"{name:18} {tree}: " + ", ".join(f"{k} {v}" for k, v in s.items()))
    if len(results) == 1:
        return 0
    diffs = differences(*results)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} command(s) differ or print more bytes")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
