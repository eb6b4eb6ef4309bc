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
derivation nodes, the checker calls and the nodes they checked, and the
refuted commands by the stage of `fnlkit.sampling.find_countermodel`
that proposed their countermodel: `kernel` (the exhaustive 1- and
2-state models), `transfer` (the K countermodel pushed down the chain) or
`sampler` (the seeded samples).  It then lists each refuted command with
that stage, per tree.  Given two trees, it lists every command whose
verdict, strategy or exit code differs, or that prints more bytes under
OTHER than under TREE, and exits 1 if there is one.  Under headings of
their own it lists every command whose printed text differs, by a sha1
of the text, whatever its length, then one line per workload with how
many commands print different text and their printed bytes under TREE
and under OTHER, and every refuted command whose countermodel came from
another stage; these alone do not change the exit status.

    python3 tools/census.py --unrun --seed 1 TREE

With `--unrun` each child runs the commands under a `sys.settrace` that
traces only the frames of the tree's `src/fnlkit`, and the census then
lists, per tree, every statement inside a function body that no command
ran, as `module.py:line`.  Module-level statements and `def`/`class`
lines are not listed, nor are docstrings and other constant expression
statements, `try:` lines and `global`/`nonlocal` declarations, which
compile to no code of their own.  A
statement spread over several lines counts as run when any of its own
lines ran (for a compound statement: its header, not its body).

    python3 tools/census.py --calls --seed 1 TREE [OTHER]

With `--calls` each child counts, under `sys.setprofile`, the calls into
every function of the tree's `src/fnlkit` (a generator's resumption
counts as a call), and the census prints, per workload and tree, the
total and the TOP_CALLS functions called most, as `module.qualname`.
Given two trees it then prints every function whose count differs, with
the change, largest first.  The counts are exact and, with the hash seed
fixed, repeatable; they include the census's own `fnlkit.proofs.size`
call on each derivation handed to the checker, and they do not change the
exit status.

Each child also reloads every printed derivation table (`json.loads`,
then `fnlkit.proofs.from_json`) and checks it with
`fnlkit.checker.check_derivation` under the system and assumptions of
the derive-time call that accepted the derivation the table was written
from.  The census prints, per tree and workload, how many tables were
reloaded and accepted and each that was not, and exits 1 if one was not.
"""

from __future__ import annotations

import argparse
import ast
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
TOP_CALLS = 15


def _own_lines(stmt: ast.stmt) -> range:
    # a compound statement's header lines, or all of a simple statement's
    block = getattr(stmt, "body", None) or getattr(stmt, "cases", None)
    end = block[0].lineno - 1 if block else stmt.end_lineno
    return range(stmt.lineno, max(stmt.lineno, end) + 1)


_NO_CODE = (ast.Try, ast.Global, ast.Nonlocal)


def _function_statements(node, inside: bool, out: list) -> None:
    # the statements under node that lie in a function body, at any block
    # depth, less those that compile to no code of their own
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _function_statements(child, not isinstance(child, ast.ClassDef), out)
            continue
        if inside and isinstance(child, ast.stmt) and not isinstance(child, _NO_CODE) \
                and not (isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)):
            out.append(child)
        _function_statements(child, inside, out)


def unrun_statements(pkg: str, ran: set) -> list[str]:
    """Each statement of a function body under pkg with no line in ran."""
    out = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(pkg, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        stmts: list = []
        _function_statements(tree, False, stmts)
        for stmt in sorted(stmts, key=lambda s: s.lineno):
            if not any((path, k) in ran for k in _own_lines(stmt)):
                out.append(f"{name}:{stmt.lineno}")
    return out


def recheck_table(fk, table: dict, accepted: list, check) -> str:
    """"ok" when a printed derivation table reloads and is accepted under the
    system and assumptions of the first accepting checker call, of those in
    accepted, whose derivation the table was written from; else why not."""
    for sys_, phi, d in accepted:
        if fk.proofs.to_json(d) == table:
            break
    else:
        return "no accepting checker call wrote this table"
    try:
        again = fk.proofs.from_json(table)
    except Exception as e:  # noqa: BLE001 - a crash is a result too
        return f"reload raised {type(e).__name__}: {e}"
    trail: list = []
    if not check(sys_, phi, again, trail):
        return "reloaded derivation rejected: " + "; ".join(trail)
    return "ok"


def census(tree: str, seed: int, names: list[str], unrun: bool = False,
           calls: bool = False) -> dict:
    """One record per command of each named workload, run on tree; with
    unrun the statements of fnlkit's function bodies that no command ran,
    and with calls each workload's count of calls per fnlkit function.
    Each record says whether the printed derivation table, if any, reloads
    and passes the checker (see recheck_table)."""
    import run as bench  # bench/run.py: the import and the cache list

    import workloads as wl

    src = os.path.join(os.path.abspath(tree), "src")
    sys.path.insert(0, src)
    fk = bench.import_fnlkit(src)
    caches = bench.program_caches(fk)
    check, checked = fk.checker.check_derivation, [0, 0]
    accepted: list = []  # (system, assumptions, derivation) of accepting calls

    def counted_check(sys_, phi, d, *rest, **kw):
        checked[0] += 1
        checked[1] += fk.proofs.size(d)
        ok = check(sys_, phi, d, *rest, **kw)
        if ok:
            accepted.append((sys_, phi, d))
        return ok

    fk.checker.check_derivation = counted_check
    smp = fk.sampling
    proposed: dict = {}  # id(model) -> (model, stage) of this command's candidates
    hits: list = []  # the stage of each model find_countermodel returned

    def tag(j, stage):
        if j is not None:
            proposed[id(j)] = (j, stage)
        return j

    kernel, transfer, sampler = smp._exhaustive_ternary, smp._transfer_ternary, smp.sample_ternary
    smp._exhaustive_ternary = lambda *a, **kw: (tag(j, "kernel") for j in kernel(*a, **kw))
    smp._transfer_ternary = lambda *a, **kw: tag(transfer(*a, **kw), "transfer")
    smp.sample_ternary = lambda *a, **kw: tag(sampler(*a, **kw), "sampler")
    find = smp.find_countermodel

    def staged_find(*a, **kw):
        hit = find(*a, **kw)
        if hit is not None:
            hits.append(proposed.get(id(hit[0]), (None, "unknown"))[1])
        return hit

    smp.find_countermodel = staged_find
    pkg = os.path.join(src, "fnlkit")
    ran: set = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(pkg + os.sep) else None

    counts: Counter = Counter()  # code object -> calls, for this workload

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(pkg + os.sep):
            counts[frame.f_code] += 1

    out: dict = {}
    per_function: dict = {}
    for name in names:
        rows = []
        with tempfile.TemporaryDirectory() as workdir:
            work = wl.WORKLOADS[name](fk, seed, workdir)
            for cmd in work.commands:
                for c in caches:
                    c.cache_clear()
                checked[:] = [0, 0]
                accepted.clear()
                proposed.clear()
                hits.clear()
                text = io.StringIO()
                with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
                    sys.settrace(call if unrun else None)
                    sys.setprofile(profile if calls else None)
                    try:
                        code = fk.cli.main(list(cmd.argv))
                    except Exception as e:  # noqa: BLE001 - a crash is a result too
                        code = f"raised {type(e).__name__}"
                    finally:
                        sys.setprofile(None)
                        sys.settrace(None)
                printed = text.getvalue()
                try:
                    payload = json.loads(printed)
                except ValueError:
                    payload = {}
                derivation = payload.get("derivation") or {}
                reloaded = recheck_table(fk, derivation, accepted, check) if derivation else None
                rows.append({
                    "argv": [a.replace(workdir, "<workdir>") for a in cmd.argv],
                    "code": code,
                    "verdict": payload.get("verdict"),
                    "strategy": payload.get("strategy"),
                    "bytes": len(printed.encode("utf-8")),
                    "sha1": hashlib.sha1(printed.encode("utf-8")).hexdigest(),
                    "nodes": len(derivation.get("nodes", ())),
                    "checks": checked[0],
                    "checked_nodes": checked[1],
                    "recheck": reloaded,
                    "stage": "+".join(hits) if payload.get("verdict") == "refuted" else None,
                })
        out[name] = rows
        per_function[name] = {
            f"{os.path.basename(code.co_filename)[:-3]}.{code.co_qualname}": n
            for code, n in counts.items()}
        counts.clear()
    return {"rows": out, "unrun": unrun_statements(pkg, ran) if unrun else None,
            "calls": per_function if calls else None}


def summary(rows: list[dict]) -> dict:
    verdicts = [r["verdict"] for r in rows]
    by_strategy = Counter(r["strategy"] for r in rows if r["verdict"] == "proved")
    stages = Counter(r["stage"] for r in rows if r["stage"] is not None)
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
        "stages": " ".join(f"{k}:{n}" for k, n in sorted(stages.items())) or "-",
    }


def label(row: dict) -> str:
    """A command's name and first argument, and its system if it names one."""
    argv = row["argv"]
    head = " ".join(argv[:2])
    return f"{head} ({argv[argv.index('--system') + 1]})" if "--system" in argv else head


def differences(base: dict, other: dict) -> tuple[list[str], list[str]]:
    """The commands whose verdict, strategy or exit code differs or whose
    printed bytes grow, and apart from those the commands whose printed
    text differs."""
    out, texts = [], []
    for name, rows in base.items():
        if len(rows) != len(other[name]):
            out.append(f"{name}: {len(rows)} commands against {len(other[name])}")
            continue
        for a, b in zip(rows, other[name]):
            what = [k for k in ("argv", "verdict", "strategy", "code") if a[k] != b[k]]
            if b["bytes"] > a["bytes"]:
                what.append(f"bytes {a['bytes']} -> {b['bytes']}")
            head = f"{name}: {' '.join(a['argv'][:2])}"
            if what:
                out.append(f"{head}: {', '.join(what)}")
            if a["sha1"] != b["sha1"]:
                texts.append(f"{head}: sha1 {a['sha1'][:12]} -> {b['sha1'][:12]}, "
                             f"bytes {a['bytes']} -> {b['bytes']}")
    return out, texts


def text_totals(base: dict, other: dict) -> list[str]:
    """Per workload with a command whose printed text differs: how many
    such commands there are and their printed bytes, summed, before and
    after."""
    out = []
    for name, rows in base.items():
        if len(rows) != len(other[name]):
            continue
        pairs = [(a, b) for a, b in zip(rows, other[name]) if a["sha1"] != b["sha1"]]
        if pairs:
            before = sum(a["bytes"] for a, _ in pairs)
            after = sum(b["bytes"] for _, b in pairs)
            out.append(f"{name}: {len(pairs)} command(s), bytes {before:,} -> {after:,}")
    return out


def stage_changes(base: dict, other: dict) -> list[str]:
    """The commands whose countermodel came from another stage (or that
    one tree refutes and the other does not)."""
    return [f"{name}: {label(a)}: {a['stage']} -> {b['stage']}"
            for name, rows in base.items() if len(rows) == len(other[name])
            for a, b in zip(rows, other[name]) if a["stage"] != b["stage"]]


def call_deltas(base: dict, other: dict) -> list[tuple[str, int]]:
    """Each function whose call count differs between two counts, with
    other's count less base's, largest change first, then by name."""
    deltas = {fn: other.get(fn, 0) - base.get(fn, 0) for fn in base.keys() | other.keys()}
    return sorted(((fn, d) for fn, d in deltas.items() if d), key=lambda x: (-abs(x[1]), x[0]))


def print_calls(names: list[str], trees: list[str], counted: list[dict]) -> None:
    """Per workload, each tree's total and most called functions, then,
    given two trees, every function whose count differs."""
    for name in names:
        for tree, c in zip(trees, counted):
            n = c[name]
            print(f"calls {name:18} {tree}: {sum(n.values()):,} in {len(n)} functions")
            for fn, k in Counter(n).most_common(TOP_CALLS):
                print(f"  {k:>10,}  {fn}")
        if len(counted) == 2:
            base, other = counted[0][name], counted[1][name]
            print(f"calls {name:18} delta: {sum(base.values()):,} -> {sum(other.values()):,}")
            for fn, d in call_deltas(base, other):
                print(f"  {d:>+10,}  {fn} ({base.get(fn, 0):,} -> {other.get(fn, 0):,})")


def run_child(tree: str, seed: int, names: list[str], unrun: bool, calls: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, os.path.abspath(__file__), "--seed", str(seed), "--child", tree]
    if unrun:
        argv.append("--unrun")
    if calls:
        argv.append("--calls")
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
    ap.add_argument("--unrun", action="store_true",
                    help="trace fnlkit and list the function-body statements no command ran")
    ap.add_argument("--calls", action="store_true",
                    help="count the calls per fnlkit function and print the most called")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, BENCH)
    import workloads as wl

    names = args.names or list(wl.WORKLOADS)
    if args.child:
        json.dump(census(args.trees[0], args.seed, names, args.unrun, args.calls), sys.stdout)
        return 0
    if len(args.trees) > 2:
        ap.error("give one or two trees")
    children = [run_child(t, args.seed, names, args.unrun, args.calls) for t in args.trees]
    results = [c["rows"] for c in children]
    for name in names:
        for tree, res in zip(args.trees, results):
            s = summary(res[name])
            print(f"{name:18} {tree}: " + ", ".join(f"{k} {v}" for k, v in s.items()))
    for tree, child in zip(args.trees, children):
        if child["unrun"] is not None:
            print(f"unrun {tree}: {len(child['unrun'])} statement(s)")
            for where in child["unrun"]:
                print(f"  {where}")
    if args.calls:
        print_calls(names, args.trees, [c["calls"] for c in children])
    rejected = 0
    for tree, res in zip(args.trees, results):
        for name in names:
            done = [r for r in res[name] if r["recheck"] is not None]
            bad = [r for r in done if r["recheck"] != "ok"]
            rejected += len(bad)
            print(f"recheck {name:18} {tree}: {len(done) - len(bad)} of {len(done)} "
                  f"printed tables reloaded and accepted")
            for r in bad:
                print(f"  {' '.join(r['argv'][:2])}: {r['recheck']}")
    for tree, res in zip(args.trees, results):
        print(f"countermodel stages {tree}:")
        for name in names:
            for r in res[name]:
                if r["stage"] is not None:
                    print(f"  {name}: {label(r)}: {r['stage']}")
    if len(results) == 1:
        return 1 if rejected else 0
    diffs, texts = differences(*results)
    stages = stage_changes(*results)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} command(s) differ or print more bytes")
    print("printed text:")
    for line in texts:
        print(f"  {line}")
    print(f"{len(texts)} command(s) print different text")
    for line in text_totals(*results):
        print(f"  {line}")
    print("countermodel stage:")
    for line in stages:
        print(f"  {line}")
    print(f"{len(stages)} refuted command(s) take their countermodel from another stage")
    return 1 if diffs or rejected else 0


if __name__ == "__main__":
    sys.exit(main())
