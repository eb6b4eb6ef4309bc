"""Record the verdicts of the lattice-mix pool.

Run from the root of a checkout:

    python3 bench/record.py

It runs every pool sequent in every lattice-mix system through the CLI,
with the lattice-mix budget at sampler seed 0, and writes
bench/lattice_verdicts.json.  The benchmark then fails any command whose
verdict is proved where the record says refuted, or the reverse.  Rerun
it only when the pool or the budget changes, and on code whose verdicts
are trusted.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run
import workloads as wl


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    fk = run.import_fnlkit(src)
    caches = run.program_caches(fk)
    rows = []
    for goal in wl.lattice_pool(fk.syntax, wl.LATTICE_POOL):
        row = {"goal": goal}
        for system in wl.LATTICE_SYSTEMS:
            for c in caches:
                c.cache_clear()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = fk.cli.main(list(wl.lattice_argv(goal, system, 0)))
            if code not in (0, 2):
                raise SystemExit(f"{goal} in {system}: exit {code}")
            row[system] = json.loads(out.getvalue())["verdict"]
        rows.append(row)
        print(goal, sorted(set(row.values()) - {goal}), file=sys.stderr)
    record = {
        "generator_seed": wl.LATTICE_POOL_SEED,
        "budget": wl.lattice_budget(0),
        "verdicts": rows,
    }
    with open(wl.LATTICE_RECORD, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
