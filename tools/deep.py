r"""Growth of deep inputs: time at n, 2n and 4n, and the ratio per doubling.

    python3 tools/deep.py [TREE]

TREE is the root of an fnlkit checkout (with `src/fnlkit`); it defaults
to the checkout this script lives in.  Every case runs in-process, with
every fnlkit `functools` cache cleared before each run, outside its
timing, and the garbage collector run before each sample and off during
it, as `timeit` does.  A sample is a batch of k runs back to back, where
k is chosen once per case, from the least of three runs at n = `N`, so
that a sample at n = `N` lasts at least `SAMPLE_S`; the same k serves all
three sizes.  So the cases that take a few ms (`parens`, `fresh`, `chain`,
`pool`, `derive`) are timed over 50 ms or more, where the machine's drift from
one run to the next no longer swamps their ratios.  The script prints
each case's k and, at each of n = `N`, 2`N` and 4`N`, the least time per
run of `REPEAT` samples (the batch's summed run times over k):

  parens  `parse_sequent` of `(`^n `p o q` `)`^n ` => q`
  fresh   `parse_lambek` of `p{`^n `q` `}`^n
  chain   `parse_lambek` of n binary operators between letters, `\/`,
          `/\` and `*` in turn: `p \/ p /\ p * p \/ p` ...
  pool    `prover._cut_pool` on `~`^n `<>p => q` in `bfnl-star-k`
  derive  `prover.derive` on the same goal, goals:50 (it ends Unknown)
  pairs   `transform.pair_bot` and `pair_top` on `(((p0 /\ p1) \/ p2)
          /\ p3) ...`, n connectives, /\ and \/ in turn, each with a new
          letter, under its companion set
  recheck `cli.main` on `prove ~`^n `p => p --system bfnl-star --recheck`,
          its output captured: build, check, write, read and recheck of a
          derivation of about 10n nodes, so the time per node at scale

A case that grows linearly reads about 2 per doubling.  A tree whose pair
builders find each pair's core by `lat_le` search does not finish `pairs`:
its `pair_bot` certificates grow about ninefold or more per doubling of n
(7,688 nodes at n = 12, 68,237 at 24 and 763,920 at 48).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N = 1000
REPEAT = 5
SAMPLE_S = 0.05
CHAIN = ("\\/", "/\\", "*")  # the operators of the `chain` case, in turn


def _cases(fk):
    sx, pv, tr = fk.syntax, fk.prover, fk.transform
    system = fk.systems.SYSTEMS["bfnl-star-k"]
    budget = pv.parse_budget("goals:50")

    def tower(n):
        return sx.parse_sequent("~" * n + "<>p => q")

    def alternating(n):
        f = sx.LAtom("p0")
        for i in range(1, n + 1):
            f = (sx.LAnd if i % 2 else sx.LOr)(f, sx.LAtom(f"p{i}"))
        return f, tr.psi_set(tr.exn_star(tr.problem_base(sx.simple(f, sx.BOT))))

    def pairs(arg):
        f, psi = arg
        tr.pair_bot(f, psi)
        tr.pair_top(f, psi)

    def recheck(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = fk.cli.main(argv)
        if code != 0:
            raise SystemExit(f"recheck: exit code {code}")

    return {
        "parens": (lambda n: "(" * n + "p o q" + ")" * n + " => q", sx.parse_sequent),
        "fresh": (lambda n: "p{" * n + "q" + "}" * n, sx.parse_lambek),
        "chain": (lambda n: "p" + "".join(f" {CHAIN[i % 3]} p" for i in range(n)),
                  sx.parse_lambek),
        "pool": (tower, lambda g: pv._cut_pool(system, frozenset(), g)),
        "derive": (tower, lambda g: pv.derive(system, frozenset(), g, budget)),
        "pairs": (alternating, pairs),
        "recheck": (lambda n: ["prove", "~" * n + "p => p", "--system", "bfnl-star", "--recheck"],
                    recheck),
    }


def _clear():
    for name, mod in list(sys.modules.items()):
        if name == "fnlkit" or name.startswith("fnlkit."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _sample(run, arg, k: int, repeat: int) -> float:
    # the least time per run, over `repeat` samples of k runs each
    best = float("inf")
    for _ in range(repeat):
        gc.collect()
        gc.disable()
        total = 0.0
        for _ in range(k):
            _clear()
            t0 = time.perf_counter()
            run(arg)
            total += time.perf_counter() - t0
        gc.enable()
        best = min(best, total / k)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", nargs="?", default=ROOT, help="fnlkit checkout to time")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.tree), "src"))
    sys.setrecursionlimit(30000)  # as the CLI sets it
    import fnlkit.cli  # noqa: F401 - loads every module that derive uses
    import fnlkit as fk

    sizes = (N, 2 * N, 4 * N)
    print(f"{'case':8}{'k':>4}" + "".join(f"{f'n={n} s':>12}" for n in sizes)
          + "  ratio per doubling")
    for name, (make, run) in _cases(fk).items():
        once = _sample(run, make(N), 1, 3)
        k = max(1, math.ceil(SAMPLE_S / once))
        times = [_sample(run, make(n), k, REPEAT) for n in sizes]
        ratios = "  ".join(f"{b / a:.2f}" for a, b in zip(times, times[1:]))
        print(f"{name:8}{k:4}" + "".join(f"{t:12.4f}" for t in times) + f"  {ratios}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
