"""Traced run: per-layer self time, counts and memory for one workload.

Spans are recorded from this file only, around calls into the program's
public functions. The round in `rounds.py` opens one span per operation
it issues (append, query, all_nf, seal). Below those, wrappers installed
for the duration of a pass add child spans:

- `implicit_registry.leaf_added/edge_split/phase_ended`: the registry's
  construction hooks, wrapped on the index's own registry instance;
- `implicit_registry.sync`: `member_at_depth(1)`, issued before every
  live query and live all_nf so the deferred sync is paid here and not
  inside the query;
- `suffix_tree.locate` and `suffix_tree.min_suffix_starts`, wrapped on
  the `SuffixTree` class;
- `text_store.as_symbols`, wrapped where `online_builder` calls it.

A function that is missing is reported as absent (value 0), so removing
one does not break the run. Each span keeps its name, start, end, parent
span and operation id (the id of the top-level span above it). Spans
stay in memory and the first full-length pass is written out at the end.

Besides the traced pass at full length, each cycle runs:

- the same round untraced, for `trace.overhead_share`;
- a traced pass at half length, for the `*_doubling` ratios;
- a builder without registry fed in the same call shape, at both
  lengths, for `online_builder.cascade_s`.

Memory comes from one tracemalloc pass per run, at half length to save
time: a bare `TextStore`, a bare `OnlineBuilder`, then a full index, each
fed the same text in the workload's call shape.
"""

from __future__ import annotations

import gc
import gzip
import time
import tracemalloc
from array import array
from collections import defaultdict
from contextlib import contextmanager
from statistics import median
from time import perf_counter_ns

import netfreq.online_builder as online_builder
from netfreq import NetFrequencyIndex, OnlineBuilder, SuffixTree, TextStore

from rounds import (EXTEND, EXTEND_TEXT, LIVE_ALLNF, LIVE_QUERY, SEALED_ALLNF, SEALED_QUERY,
                    Recorder, Timings, append_all, check_answers, report_failures,
                    rounds_within, run_round)
from workloads import Inputs

SYNC = "implicit_registry.sync"
LOCATE = "suffix_tree.locate"
MIN_STARTS = "suffix_tree.min_suffix_starts"
AS_SYMBOLS = "text_store.as_symbols"
HOOKS = ("leaf_added", "edge_split", "phase_ended")

# every per-layer metric of a traced run, in report order, with its unit
LAYER_UNITS = {
    "text_store.as_symbols_s": "s",
    "text_store.bytes_per_sym": "B/sym",
    "online_builder.cascade_s": "s",
    "online_builder.nodes_per_sym": "1/sym",
    "online_builder.branching_per_sym": "1/sym",
    "implicit_registry.intake_s": "s",
    "implicit_registry.leaf_added_calls": "count",
    "implicit_registry.edge_split_calls": "count",
    "implicit_registry.phase_ended_calls": "count",
    "implicit_registry.sync_s": "s",
    "implicit_registry.sync_calls": "count",
    "implicit_registry.members_at_query_max": "count",
    "implicit_registry.wall_share": "share",
    "implicit_registry.bytes_per_sym": "B/sym",
    "suffix_tree.locate_s": "s",
    "suffix_tree.min_suffix_starts_s": "s",
    "suffix_tree.bytes_per_sym": "B/sym",
    "nf_online.single_s": "s",
    "nf_offline.single_s": "s",
    "nf_online.all_nf_s": "s",
    "nf_offline.all_nf_s": "s",
    "nf_online.reports": "count",
    "nf_offline.reports": "count",
    "trace.wall_s": "s",
    "trace.overhead_share": "share",
    "online_builder.cascade_doubling": "ratio",
    "implicit_registry.intake_doubling": "ratio",
    "implicit_registry.sync_doubling": "ratio",
    "suffix_tree.locate_doubling": "ratio",
    "nf_online.all_nf_doubling": "ratio",
    "nf_offline.all_nf_doubling": "ratio",
}


class Tracer(Recorder):
    """Span recorder with the same begin/end interface as `Timings`."""

    def __init__(self):
        self.names: list[str] = []
        self.t0 = array("q")
        self.t1 = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.members_max = 0
        self.absent: set[str] = set()

    def begin(self, name: str) -> int:
        sid = len(self.names)
        parent = self.stack[-1] if self.stack else -1
        self.names.append(name)
        self.parent.append(parent)
        self.op.append(sid if parent < 0 else self.op[parent])
        self.t1.append(0)
        self.stack.append(sid)
        self.t0.append(perf_counter_ns())
        return sid

    def end(self, name: str, sid: int) -> None:
        self.t1[sid] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, name: str):
        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(name, sid)
        return timed

    def attach(self, index: NetFrequencyIndex) -> None:
        registry = index.registry
        for hook in HOOKS:
            fn = getattr(registry, hook, None)
            if fn is None:
                self.absent.add(f"implicit_registry.{hook}")
            else:
                setattr(registry, hook, self.wrap(fn, f"implicit_registry.{hook}"))

    def probe(self, index: NetFrequencyIndex) -> None:
        registry = index.registry
        sid = self.begin(SYNC)
        registry.member_at_depth(1)
        self.end(SYNC, sid)
        self.members_max = max(self.members_max, registry.member_count())

    def totals(self):
        """Per span name: seconds of self time, seconds of whole spans, and
        span count. Self time is a span's duration minus the durations of
        its child spans."""
        t0, t1, parent = self.t0, self.t1, self.parent
        child = [0] * len(t0)
        for sid, p in enumerate(parent):
            if p >= 0:
                child[p] += t1[sid] - t0[sid]
        own: dict[str, float] = defaultdict(float)
        whole: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for sid, name in enumerate(self.names):
            duration = t1[sid] - t0[sid]
            own[name] += (duration - child[sid]) / 1e9
            whole[name] += duration / 1e9
            count[name] += 1
        return own, whole, count

    def write(self, path) -> None:
        """Spans as gzip TSV, times in ns from the first span's start."""
        origin = self.t0[0] if self.t0 else 0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\top\tparent\tname\tstart_ns\tend_ns\n")
            for sid, name in enumerate(self.names):
                f.write(f"{sid}\t{self.op[sid]}\t{self.parent[sid]}\t{name}\t"
                        f"{self.t0[sid] - origin}\t{self.t1[sid] - origin}\n")


@contextmanager
def _wrapped(tracer: Tracer, targets):
    """Replace (owner, attribute, span name) targets with timed wrappers,
    restoring the originals on exit."""
    saved = []
    try:
        for owner, attr, name in targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                tracer.absent.add(name)
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, name))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def traced_pass(inp: Inputs):
    tracer = Tracer()
    gc.collect()
    with _wrapped(tracer, ((SuffixTree, "locate", LOCATE),
                           (SuffixTree, "min_suffix_starts", MIN_STARTS),
                           (online_builder, "as_symbols", AS_SYMBOLS))):
        rnd = run_round(inp, tracer)
    check_answers(inp, rnd)
    return tracer, rnd


def cascade_pass(inp: Inputs) -> float:
    """Self seconds of a registry-free builder fed in the same call shape."""
    tracer = Tracer()
    gc.collect()
    with _wrapped(tracer, ((online_builder, "as_symbols", AS_SYMBOLS),)):
        append_all(OnlineBuilder(TextStore()), inp, tracer)
    own, _whole, _count = tracer.totals()
    return own[EXTEND] + own[EXTEND_TEXT]


def memory_pass(inp: Inputs) -> dict[str, float]:
    """Peak traced bytes per symbol of the store, tree and registry."""
    n = len(inp.text)

    def peak(build) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            keep = build()
            size = tracemalloc.get_traced_memory()[1]
            del keep
        finally:
            tracemalloc.stop()
        return size

    def feed(target):
        append_all(target, inp, Recorder())
        return target

    def store():
        s = TextStore()
        for c in inp.text:
            s.append(c)
        return s

    b_store = peak(store)
    b_builder = peak(lambda: feed(OnlineBuilder(TextStore())))
    b_index = peak(lambda: feed(NetFrequencyIndex()))
    return {"text_store.bytes_per_sym": b_store / n,
            "suffix_tree.bytes_per_sym": (b_builder - b_store) / n,
            "implicit_registry.bytes_per_sym": (b_index - b_builder) / n}


def _layers(tracer: Tracer, rnd, untraced_wall_ns: int) -> dict[str, float]:
    secs, whole, count = tracer.totals()
    intake = sum(secs[f"implicit_registry.{h}"] for h in HOOKS)
    wall = rnd.wall_ns / 1e9
    out = {
        "text_store.as_symbols_s": secs[AS_SYMBOLS],
        "online_builder.nodes_per_sym": rnd.nodes / rnd.n,
        "online_builder.branching_per_sym": rnd.branching / rnd.n,
        "implicit_registry.intake_s": intake,
        "implicit_registry.sync_s": secs[SYNC],
        "implicit_registry.sync_calls": count[SYNC],
        "implicit_registry.members_at_query_max": tracer.members_max,
        "implicit_registry.wall_share": (intake + secs[SYNC]) / wall,
        "suffix_tree.locate_s": secs[LOCATE],
        "nf_online.single_s": secs[LIVE_QUERY],
        "nf_offline.single_s": secs[SEALED_QUERY],
        "nf_online.all_nf_s": secs[LIVE_ALLNF],
        "nf_offline.all_nf_s": secs[SEALED_ALLNF],
        "suffix_tree.min_suffix_starts_s": secs[MIN_STARTS],
        "nf_online.reports": len(rnd.allnf_rows[rnd.n]),
        "nf_offline.reports": len(rnd.sealed_rows),
        "trace.wall_s": wall,
        "trace.overhead_share": rnd.wall_ns / untraced_wall_ns - 1,
    }
    for h in HOOKS:
        out[f"implicit_registry.{h}_calls"] = count[f"implicit_registry.{h}"]
    # per-call costs feed the doubling ratios of the query-side bounds
    out["_locate_per_call"] = secs[LOCATE] / max(1, count[LOCATE])
    for name in (LIVE_ALLNF, SEALED_ALLNF):
        out[f"_{name}_per_call"] = whole[name] / max(1, count[name])
    return out


# (reported name, layer value it doubles); ideal ratios are 2 for the
# build and all_nf, whose work is linear in n, and 1 for locate per query
DOUBLING = (("online_builder.cascade_doubling", "online_builder.cascade_s"),
            ("implicit_registry.intake_doubling", "implicit_registry.intake_s"),
            ("implicit_registry.sync_doubling", "implicit_registry.sync_s"),
            ("suffix_tree.locate_doubling", "_locate_per_call"),
            ("nf_online.all_nf_doubling", f"_{LIVE_ALLNF}_per_call"),
            ("nf_offline.all_nf_doubling", f"_{SEALED_ALLNF}_per_call"))


def traced_run(make_inputs, seconds: float, span_path):
    """The memory pass, then cycles of (untraced, traced full, traced
    half, cascade full and half) while they fit in `seconds`; per-layer
    medians over cycles. Returns (metrics, attempted, failed, absent
    span names, cycles)."""
    start = time.monotonic()
    memory = memory_pass(make_inputs(0, 2))
    cycles = []
    attempted = failed = 0
    absent: set[str] = set()
    for k in rounds_within(seconds - (time.monotonic() - start), 1):
        full, half = make_inputs(k, 1), make_inputs(k, 2)
        gc.collect()
        untraced = run_round(full, Timings(), check=False)
        layers = {}
        for label, inp in (("full", full), ("half", half)):
            tracer, rnd = traced_pass(inp)
            attempted += rnd.ops + rnd.checks.attempted
            failed += rnd.checks.failed
            report_failures(rnd.checks)
            absent |= tracer.absent
            if label == "full" and k == 0:
                tracer.write(span_path)
            layers[label] = _layers(tracer, rnd, untraced.wall_ns)
            layers[label]["online_builder.cascade_s"] = cascade_pass(inp)
            del tracer, rnd
        full_layers = layers["full"]
        for name, base in DOUBLING:
            lo = layers["half"][base]
            full_layers[name] = full_layers[base] / lo if lo > 0 else 0.0
        cycles.append(full_layers)
    metrics = {name: memory[name] if name in memory else median(c[name] for c in cycles)
               for name in LAYER_UNITS}
    return metrics, attempted, failed, absent, len(cycles)
