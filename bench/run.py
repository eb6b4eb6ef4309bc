"""fnlkit benchmark: seeded CLI workloads, verdict latency and a traced
per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload lattice-mix --seed 1 --seconds 15 --trace 0

The commands are driven in-process through ``fnlkit.cli.main(argv)``
with standard output captured, from one single-threaded process.  Before
each command every ``functools`` cache in fnlkit is cleared, because
each real CLI command starts in a fresh process with them cold.

A run first sets up (imports fnlkit from ``src/``, builds the seeded
commands and writes assumption files) SETUP_REPS times, once with
``--trace 1``, and reports the median as ``setup_s``.  It then makes passes over the commands until
``--seconds`` have elapsed, and at least MIN_PASSES of them.  Every pass
runs the same commands, so verdicts, ``decided_frac`` and
``output_bytes`` are properties of the seeded workload.  With
``--trace 1`` passes alternate untraced and traced; the per-layer metrics
are per traced pass, and ``trace.overhead_s`` is the traced minus the
untraced pass time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it carries
details: verdict counts, the tail percentile, the longest command and
the clock guard.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import types
from dataclasses import dataclass, field

import spans as tracing
import workloads as wl

FNLKIT_MODULES = (
    "cli", "checker", "gk", "ktableau", "lemmas", "models", "proofs",
    "prover", "rules", "sampling", "strategy", "syntax", "systems", "transform",
)
SETUP_REPS = 5
MIN_PASSES = 3
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
# string hashing is salted per process; one salt for every run keeps dict
# and set layouts, and so the run time, the same from run to run
HASH_SEED = "0"
# the guard trips when one command takes a tenth of the ms: cap or more
CLOCK_MARGIN = 10
RUN_DIR = ".bench_run"


# ---------------------------------------------------------------------------
# machine-speed calibration
#
# On a 2-vCPU virtual machine with cores shared between guests, speed
# drifts by 15-20% over seconds.  A fixed pure-Python kernel, run between
# commands about every CALIBRATE_EVERY_S, slows down with it (correlation
# 0.95-0.98 over one-second windows).  Every reported time is scaled by CALIBRATION_NOMINAL_MS over
# the kernel's local time, i.e. expressed at the speed where the kernel
# takes CALIBRATION_NOMINAL_MS.  Raw times are kept in the details line.

CALIBRATION_ITERS = 20_000
CALIBRATION_NOMINAL_MS = 10.0
CALIBRATE_EVERY_S = 0.5
CALIBRATION_WINDOW_S = 1.0


def calibration_kernel() -> int:
    acc = 0
    seen: dict = {}
    for i in range(CALIBRATION_ITERS):
        t = (i & 255, i >> 8, "k")
        seen[t] = seen.get(t, 0) + 1
        acc += hash(t) & 7
    return acc


class SpeedGauge:
    """Kernel timings over the run; factor(t) converts a raw time taken
    around t into a time at the nominal speed."""

    def __init__(self):
        self.at: list[float] = []
        self.ms: list[float] = []

    def measure(self) -> None:
        # with the collector off, so that the kernel's time does not depend
        # on the garbage the previous command left behind
        was_on = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            calibration_kernel()
            t1 = time.perf_counter()
        finally:
            if was_on:
                gc.enable()
        self.at.append((t0 + t1) / 2)
        self.ms.append((t1 - t0) * 1000.0)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= CALIBRATE_EVERY_S

    def factor(self, t: float) -> float:
        lo = bisect.bisect_left(self.at, t - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.at, t + CALIBRATION_WINDOW_S)
        if hi - lo < 2:
            i = bisect.bisect_left(self.at, t)
            lo, hi = max(0, i - 1), min(len(self.at), i + 1)
        return CALIBRATION_NOMINAL_MS / statistics.median(self.ms[lo:hi])


# ---------------------------------------------------------------------------
# set-up


def import_fnlkit(src: str) -> types.SimpleNamespace:
    """Import fnlkit from src, dropping any copy imported before, so that
    each set-up repetition pays the import again."""
    for name in [m for m in sys.modules if m == "fnlkit" or m.startswith("fnlkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"fnlkit.{name}") for name in FNLKIT_MODULES}
    where = os.path.dirname(os.path.abspath(mods["cli"].__file__))
    if where != os.path.join(src, "fnlkit"):
        raise SystemExit(f"fnlkit was imported from {where}, not from {src}")
    return types.SimpleNamespace(**mods)


def program_caches(fk) -> list:
    """Every functools cache defined in an fnlkit module."""
    out = {}
    for mod in vars(fk).values():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "").startswith("fnlkit"):
                out[id(obj)] = obj
    return list(out.values())


def set_up(name: str, seed: int, src: str, workdir: str, reps: int, small: bool,
           gauge: SpeedGauge):
    """Returns fnlkit, the workload and the (start, raw seconds) of each
    repetition."""
    times = []
    for _ in range(reps):
        gauge.measure()
        t0 = time.perf_counter()
        fk = import_fnlkit(src)
        work = wl.WORKLOADS[name](fk, seed, workdir, small)
        times.append((t0, time.perf_counter() - t0))
    gauge.measure()
    return fk, work, times


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    traced: bool
    started: list = field(default_factory=list)  # perf_counter at each command start
    raw_ms: list = field(default_factory=list)
    latency_ms: list = field(default_factory=list)  # raw_ms at the nominal speed
    verdicts: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (command index, reason)
    output_bytes: int = 0
    span_range: tuple = (0, 0)
    counts: dict = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return sum(self.latency_ms) / 1000.0

    @property
    def raw_busy_s(self) -> float:
        return sum(self.raw_ms) / 1000.0


def run_pass(fk, work, caches, main, traced: bool, gauge: SpeedGauge) -> Pass:
    p = Pass(traced)
    payloads = []
    for i, cmd in enumerate(work.commands):
        if gauge.due():
            gauge.measure()
        for c in caches:
            c.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        code, reason = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(list(cmd.argv))
            except Exception as e:  # noqa: BLE001 - a crash is a failed command
                reason = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
        p.started.append(t0)
        p.raw_ms.append(dt * 1000.0)
        text = out.getvalue()
        p.output_bytes += len(text.encode("utf-8"))
        payload = {}
        if reason is None and code not in (0, 2):
            reason = f"exit {code}: {err.getvalue().strip()[:200]}"
        if reason is None:
            try:
                full = json.loads(text)
                payload = {k: full.get(k) for k in ("verdict", "strategy", "recheck")}
            except ValueError:
                reason = "output is not JSON"
        if reason is None and payload.get("verdict") not in (wl.PROVED, wl.REFUTED, wl.UNKNOWN):
            reason = f"no verdict in output: {payload.get('verdict')!r}"
        if reason is None and (payload["verdict"] == wl.UNKNOWN) != (code == 2):
            reason = f"exit {code} does not match verdict {payload['verdict']}"
        if reason is not None:
            p.failures.append((i, reason))
        p.verdicts.append(payload.get("verdict"))
        payloads.append(payload)
    failed = {i for i, _ in p.failures}
    for i, why in enumerate(work.judge(work.commands, p.verdicts, payloads)):
        if why is not None and i not in failed:
            p.failures.append((i, why))
    return p


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND of the n
    distinct commands of a pass above it.  (Counting repeated passes as
    samples would put the tail on a handful of inputs that change with
    the seed.)"""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            best = p
    return best


def nearest_rank(sorted_vals: list, p: float) -> float:
    k = max(1, math.ceil(p / 100.0 * len(sorted_vals)))
    return sorted_vals[k - 1]


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced-size workload, for the self-test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fnlkit", "cli.py")):
        print(f"error: no fnlkit sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, sys.orig_argv, env)
    sys.path.insert(0, src)
    workdir = os.path.join(root, RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, src, workdir, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, src, workdir, root) -> int:
    reps = 1 if args.trace else SETUP_REPS
    gauge = SpeedGauge()
    fk, work, setup_raw = set_up(args.workload, args.seed, src, workdir, reps, args.small, gauge)
    caches = program_caches(fk)
    tracer = tracing.Tracer() if args.trace else None

    passes: list[Pass] = []
    missing: list = []
    t_start = time.perf_counter()
    while True:
        done = time.perf_counter() - t_start >= args.seconds
        if args.trace:
            if done and len(passes) >= 2:
                break
            traced = len(passes) % 2 == 1
        else:
            if done and len(passes) >= MIN_PASSES:
                break
            traced = False
        if traced:
            installed = tracing.install(tracer, fk)
            missing = installed.missing
            main = tracer.wrap("cli", fk.cli.main)
            before = dict(tracer.counts)
            lo = tracer.mark()
            try:
                p = run_pass(fk, work, caches, main, True, gauge)
            finally:
                installed.uninstall()
            p.span_range = (lo, tracer.mark())
            p.counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
        else:
            p = run_pass(fk, work, caches, fk.cli.main, False, gauge)
        passes.append(p)
    gauge.measure()
    for p in passes:
        p.latency_ms = [ms * gauge.factor(t) for t, ms in zip(p.started, p.raw_ms)]
    setup_times = [raw * gauge.factor(t) for t, raw in setup_raw]

    # every pass must give the verdicts of the first
    first = passes[0].verdicts
    for p in passes[1:]:
        failed = {i for i, _ in p.failures}
        for i, (a, b) in enumerate(zip(first, p.verdicts)):
            if a != b and i not in failed:
                p.failures.append((i, f"verdict {b} where an earlier pass gave {a}"))

    n_cmd = len(work.commands)
    attempted = n_cmd * len(passes)
    failed = sum(len(p.failures) for p in passes)
    # a command's latency is its median over the run's passes
    cmd_ms = sorted(statistics.median(p.latency_ms[i] for p in passes) for i in range(n_cmd))
    longest = max(ms for p in passes for ms in p.raw_ms)
    guard_ok = longest < wl.MS_CAP / CLOCK_MARGIN
    counts = {v: first.count(v) for v in (wl.PROVED, wl.REFUTED, wl.UNKNOWN)}
    tail_p = tail_percentile(n_cmd)
    reasons = [f"{work.commands[i].argv[1]}: {why}" for p in passes for i, why in p.failures]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "commands_per_pass": n_cmd,
        "verdicts_per_pass": counts,
        "verdict_digest": hashlib.sha1("\n".join(map(str, first)).encode()).hexdigest()[:16],
        "tail_percentile": tail_p,
        "longest_command_ms": round(longest, 3),
        "ms_cap": wl.MS_CAP,
        "clock_guard": "ok" if guard_ok else "tripped: a command came within "
                       f"1/{CLOCK_MARGIN} of the ms: cap, so verdicts may depend on the clock",
        "setup_s_reps": [round(t, 4) for t in setup_times],
        "pass_s": [round(p.busy_s, 4) for p in passes],
        "raw_setup_s_reps": [round(raw, 4) for _, raw in setup_raw],
        "raw_pass_s": [round(p.raw_busy_s, 4) for p in passes],
        "calibration_ms": {"median": round(statistics.median(gauge.ms), 3),
                           "min": round(min(gauge.ms), 3), "max": round(max(gauge.ms), 3),
                           "count": len(gauge.ms)},
        "failures": reasons[:20],
    }

    if args.trace:
        metrics = traced_metrics(tracer, passes)
        info["untraced_layers"] = missing
        stem = os.path.join(root, RUN_DIR, f"trace-{args.workload}")
        tracer.write(stem, {"workload": args.workload, "seed": args.seed,
                            "passes": [p.span_range for p in passes if p.traced]})
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "verdicts_per_s": (n_cmd / (sum(cmd_ms) / 1000.0), "1/s"),
            "verdict_p50_ms": (statistics.median(cmd_ms), "ms"),
            "verdict_tail_ms": (nearest_rank(cmd_ms, tail_p), "ms"),
            "decided_frac": ((counts[wl.PROVED] + counts[wl.REFUTED]) / n_cmd, "fraction"),
            "correct_frac": ((attempted - failed) / attempted, "fraction"),
            "output_bytes": (passes[0].output_bytes, "bytes"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps(info))
    result = {
        "correct": failed == 0 and guard_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_metrics(tracer, passes) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = []
    for p in traced:
        # span times are raw; scale them like the pass's command latencies
        speed = p.busy_s / p.raw_busy_s
        layers = tracing.layer_metrics(tracer.summary(*p.span_range), p.counts)
        per_pass.append({k: (v * speed if u == "s" else v, u) for k, (v, u) in layers.items()})
    metrics = {}
    for key, (_, unit) in per_pass[0].items():
        vals = [m[key][0] for m in per_pass]
        if unit == "count" and len(set(vals)) == 1:
            metrics[key] = (vals[0], unit)
        else:
            metrics[key] = (statistics.fmean(vals), unit)
    overhead = (statistics.median(p.busy_s for p in traced)
                - statistics.median(p.busy_s for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (statistics.fmean(p.span_range[1] - p.span_range[0] for p in traced),
                              "count")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
