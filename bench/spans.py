"""Span tracer for the benchmark's traced run.

Tracing is installed from outside the program: ``install`` swaps module
attributes that fnlkit looks up at call time (``rules.rule_instances``,
``checker.check_derivation``, the entries of ``strategy.STRATEGIES`` and
so on) for wrappers that open a span around the original call, and
``uninstall`` puts the originals back.  No fnlkit file is changed.

Each span records its name, start, end and parent span.  Spans are kept
in flat in-memory arrays (about 25 bytes each) and written out once, at
the end of the run.  A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

# The nine strategies of the chain, in chain order.  Layer metrics are
# emitted for each of them whether or not a workload reaches it.
STRATEGY_NAMES = (
    "axiom", "lattice", "pairs", "absorb", "boolean",
    "k-oracle", "congruence", "unneg", "unsection",
)

BOOKKEEPING = "bench.bookkeeping"


class Tracer:
    """In-memory span recorder; one per run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        # 1 when an enclosing span has the same name (recursion), so that
        # inclusive times count each outermost call once
        self.nested = array("b")
        self._open: list[int] = []
        self._depth: list[int] = []
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def enter(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.nested.append(1 if self._depth[nid] else 0)
        self._depth[nid] += 1
        self._open.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def leave(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()
        self._depth[self.name[i]] -= 1

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """fn inside a span called name; after(args, kwargs, result) runs
        once the span is closed, for counters."""
        nid = self.name_id(name)
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            i = enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(i)
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def mark(self) -> int:
        return len(self.start)

    def summary(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per span name over spans [lo, hi): calls, inclusive seconds of
        outermost calls, and self seconds."""
        child = [0.0] * (hi - lo)
        start, end, parent = self.start, self.end, self.parent
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                child[p - lo] += end[i] - start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(lo, hi):
            row = out.get(self.names[self.name[i]])
            if row is None:
                row = out[self.names[self.name[i]]] = {"calls": 0, "s": 0.0, "self_s": 0.0}
            dur = end[i] - start[i]
            row["calls"] += 1
            if not self.nested[i]:
                row["s"] += dur
            row["self_s"] += dur - child[i - lo]
        return out

    def write(self, stem: str, meta: dict) -> None:
        """stem.json holds the names and meta; stem.bin holds the columns
        start, end (float64), name, parent (int32), in that order."""
        with open(stem + ".bin", "wb") as fh:
            for col in (self.start, self.end, self.name, self.parent):
                col.tofile(fh)
        head = dict(meta, names=self.names, spans=len(self.start))
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(head, fh, indent=1)


# ---------------------------------------------------------------------------
# wrappers around fnlkit's module attributes


@dataclass
class Installed:
    patches: list = field(default_factory=list)  # (object, attribute, original)
    missing: list = field(default_factory=list)  # targets this fnlkit lacks

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self.patches):
            setattr(obj, attr, original)
        self.patches.clear()


def _count_nodes(d) -> int:
    seen: set[int] = set()
    stack = [d]
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            stack.extend(getattr(x, "premises", ()))
    return len(seen)


def install(tracer: Tracer, fk) -> Installed:
    """Wrap the layer entry points of the fnlkit modules held by fk."""
    inst = Installed()
    counts = tracer.counts

    def patch(mod, attr, name, after=None):
        fn = getattr(mod, attr, None)
        if fn is None:
            inst.missing.append(f"{mod.__name__}.{attr}")
            return
        inst.patches.append((mod, attr, fn))
        setattr(mod, attr, tracer.wrap(name, fn, after))

    def after_rules(args, kwargs, out):
        if hasattr(out, "__len__"):
            counts["rules.moves"] += len(out)
        if len(args) > 3 or "cut_pool" in kwargs:
            counts["prover.search.goals"] += 1

    def after_derive(args, kwargs, out):
        if getattr(out, "verdict", None) == "proved" and out.strategy in STRATEGY_NAMES:
            counts[f"strategy.{out.strategy}.decided"] += 1

    book = tracer.name_id(BOOKKEEPING)

    def after_check(args, kwargs, out):
        if out is False:
            counts["checker.check.rejects"] += 1
        d = args[2] if len(args) > 2 else kwargs.get("d")
        i = tracer.enter(book)
        counts["checker.nodes"] += _count_nodes(d)
        tracer.leave(i)

    def after_countermodel(args, kwargs, out):
        if out is not None:
            counts["sampling.find_countermodel.hits"] += 1

    def after_pipeline(args, kwargs, out):
        counts["transform.phi_size"] += len(out[2])

    for attr in ("parse_sequent", "parse_modal", "parse_lambek", "parse_tree"):
        patch(fk.syntax, attr, "syntax.parse")
    patch(fk.proofs, "to_json", "proofs.to_json")
    patch(fk.proofs, "from_json", "proofs.from_json")
    patch(fk.prover, "derive", "prover.derive", after_derive)
    patch(fk.prover, "validate_sequent", "systems.validate")
    patch(fk.prover, "validate_assumptions", "systems.validate")
    patch(fk.rules, "rule_instances", "rules.rule_instances", after_rules)
    patch(fk.checker, "check_derivation", "checker.check", after_check)
    patch(fk.sampling, "find_countermodel", "sampling.find_countermodel", after_countermodel)
    patch(fk.models, "satisfies_assumptions", "models.satisfies_assumptions")
    patch(fk.transform, "pipeline_k_to_dfnl", "transform.pipeline", after_pipeline)
    patch(fk.transform, "ddagger_derivation", "transform.ddagger_derivation")
    patch(fk.transform, "section_derivation", "transform.section_derivation")
    for attr in ("prove_dagger_goal", "prove_dagger_top", "prove_dagger_sequent"):
        patch(fk.gk, attr, "gk.prove")

    factory = getattr(fk.checker, "sequent_validator", None)
    if factory is None:
        inst.missing.append("fnlkit.checker.sequent_validator")
    else:
        def traced_factory(sys, _factory=factory):
            return tracer.wrap("systems.sequent_validator", _factory(sys))

        inst.patches.append((fk.checker, "sequent_validator", factory))
        fk.checker.sequent_validator = traced_factory

    chain = fk.strategy.STRATEGIES
    wrapped = []
    for name, fn in chain:
        def after_strategy(args, kwargs, out, _name=name):
            if out is not None:
                counts[f"strategy.{_name}.candidates"] += 1

        wrapped.append((name, tracer.wrap(f"strategy.{name}", fn, after_strategy)))
    inst.patches.append((fk.strategy, "STRATEGIES", chain))
    fk.strategy.STRATEGIES = tuple(wrapped)
    return inst


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(summary: dict, counts: Counter) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass: name -> (value, unit)."""

    def row(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        out[f"{name}.calls"] = (row(name)["calls"], "count")

    def secs(name, key="s"):
        out[f"{name}.{key}"] = (row(name)[key], "s")

    def count(name):
        out[name] = (counts.get(name, 0), "count")

    calls("rules.rule_instances")
    secs("rules.rule_instances")
    count("rules.moves")
    count("prover.search.goals")
    calls("prover.derive")
    secs("prover.derive", "self_s")
    calls("sampling.find_countermodel")
    secs("sampling.find_countermodel")
    count("sampling.find_countermodel.hits")
    calls("models.satisfies_assumptions")
    secs("models.satisfies_assumptions")
    calls("checker.check")
    secs("checker.check")
    count("checker.check.rejects")
    count("checker.nodes")
    calls("systems.sequent_validator")
    secs("systems.sequent_validator")
    secs("systems.validate")
    for name in STRATEGY_NAMES:
        key = f"strategy.{name}"
        calls(key)
        secs(key)
        count(f"{key}.candidates")
        count(f"{key}.decided")
        out[f"{key}.rejected"] = (
            counts.get(f"{key}.candidates", 0) - counts.get(f"{key}.decided", 0), "count")
    calls("syntax.parse")
    secs("syntax.parse")
    secs("proofs.to_json")
    secs("proofs.from_json")
    secs("cli", "self_s")
    secs("transform.pipeline")
    count("transform.phi_size")
    secs("transform.ddagger_derivation")
    secs("transform.section_derivation")
    calls("gk.prove")
    secs("gk.prove")
    return out
