"""One benchmark round: a fresh index fed one workload's inputs.

The round is a single-process closed loop. Each append or query is
issued after the previous one returns, through the public facade
(`NetFrequencyIndex`), with the garbage collector left at its default
setting. A recorder sees every operation: `Timings` keeps plain
durations for the end-to-end metrics, and the tracer in `tracing.py`
keeps spans. Both drive the same code below, so traced and untraced
rounds issue the same calls.

Answers are checked after the timed phases; the checks never run inside
a timed operation.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter_ns

from netfreq import NetFrequencyIndex, oracle_all_nf, oracle_nf

from workloads import Inputs

EXTEND_TEXT = "online_builder.extend_text"
EXTEND = "online_builder.extend"
SEAL = "online_builder.seal"
LIVE_QUERY = "nf_online.single_nf"
SEALED_QUERY = "nf_offline.single_nf"
LIVE_ALLNF = "nf_online.all_nf"
SEALED_ALLNF = "nf_offline.all_nf"

REQUERY_ROWS = 16     # all_nf rows re-asked with single_nf, live and sealed


class Recorder:
    """Records nothing: feeds the index without timing it.

    `active` is cleared while the round checks answers; the tracer uses
    it to leave those calls out of its spans."""

    active = True

    def attach(self, index: NetFrequencyIndex) -> None:
        pass

    def probe(self, index: NetFrequencyIndex) -> None:
        pass

    def begin(self, name: str) -> int:
        return 0

    def end(self, name: str, t0: int) -> None:
        pass


class Timings(Recorder):
    """Untraced recorder: every operation's duration in ns, by kind."""

    def __init__(self):
        self.ns: dict[str, list[int]] = defaultdict(list)

    def begin(self, name: str) -> int:
        return perf_counter_ns()

    def end(self, name: str, t0: int) -> None:
        self.ns[name].append(perf_counter_ns() - t0)


@dataclass
class Checks:
    """Correctness checks made and failed; the first failures kept."""
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 8:
                self.notes.append(what)

    def add(self, other: Checks) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[:8 - len(self.notes)])


@dataclass
class Round:
    """A round's answers and sizes. The answers are kept so they can be
    checked after the timed phases."""
    n: int
    ops: int                  # index operations issued in the timed phases
    live_wall_ns: int         # first append .. last live answer
    wall_ns: int              # live phase plus seal and the sealed phase
    probe_answers: dict[int, int]   # text length -> mid-stream single_nf
    allnf_rows: dict[int, list]     # text length -> live all_nf, in call order
    live: list[int]           # batch queries, live
    sealed: list[int]         # batch queries, sealed
    sealed_rows: list
    nodes: int
    branching: int
    checks: Checks


def append_all(index, inp: Inputs, rec, on_length=None) -> None:
    """Feed the whole text in the workload's call shape; works on a
    NetFrequencyIndex and on a bare OnlineBuilder alike."""
    begin, end = rec.begin, rec.end
    if inp.bulk:
        t = begin(EXTEND_TEXT)
        index.extend_text(inp.text)
        end(EXTEND_TEXT, t)
        return
    for i, c in enumerate(inp.text, 1):
        t = begin(EXTEND)
        index.extend(c)
        end(EXTEND, t)
        if on_length is not None:
            on_length(i)


def run_round(inp: Inputs, rec, check: bool = True) -> Round:
    """The timed phases of one round. With `check`, the answers that need
    the live or sealed index itself are checked in between, untimed; the
    rest are left to `check_answers`."""
    checks = Checks()
    index = NetFrequencyIndex()
    rec.attach(index)
    begin, end, probe = rec.begin, rec.end, rec.probe
    n = len(inp.text)
    probe_answers = {}
    allnf_rows = {}

    def mid_stream(i: int) -> None:
        q = inp.probes.get(i)
        if q is not None:
            probe(index)
            t = begin(LIVE_QUERY)
            probe_answers[i] = index.single_nf(q)
            end(LIVE_QUERY, t)
        if i in inp.allnf_at:
            probe(index)
            t = begin(LIVE_ALLNF)
            allnf_rows[i] = index.all_nf()
            end(LIVE_ALLNF, t)

    t_live = perf_counter_ns()
    append_all(index, inp, rec, mid_stream if inp.probes else None)
    live = []
    for q in inp.queries:
        probe(index)
        t = begin(LIVE_QUERY)
        live.append(index.single_nf(q))
        end(LIVE_QUERY, t)
    probe(index)
    t = begin(LIVE_ALLNF)
    live_rows = allnf_rows[n] = index.all_nf()
    end(LIVE_ALLNF, t)
    live_wall = perf_counter_ns() - t_live

    nodes, branching = index.node_count(), index.tree.branching_count()
    if check:
        rec.active = False
        _requery(index, inp.text, live_rows, checks, "live")
        rec.active = True

    t_sealed = perf_counter_ns()
    t = begin(SEAL)
    index.seal()
    end(SEAL, t)
    sealed = []
    for q in inp.queries:
        t = begin(SEALED_QUERY)
        sealed.append(index.single_nf(q))
        end(SEALED_QUERY, t)
    t = begin(SEALED_ALLNF)
    sealed_rows = index.all_nf()
    end(SEALED_ALLNF, t)
    sealed_wall = perf_counter_ns() - t_sealed

    if check:
        rec.active = False
        # sealing appends a unique end marker, which changes no value of
        # a marker-free string
        for q, a, b in zip(inp.queries, live, sealed):
            checks.expect(a == b, f"single_nf({q!r}): live {a}, sealed {b}")
        checks.expect(_pairs(live_rows) == _pairs(sealed_rows),
                      f"all_nf: {len(live_rows)} live rows differ from "
                      f"{len(sealed_rows)} sealed rows")
        _requery(index, inp.text, sealed_rows, checks, "sealed")
        rec.active = True

    ops = (1 if inp.bulk else n) + len(inp.probes) + len(inp.allnf_at) \
        + 2 * len(inp.queries) + 3
    return Round(n, ops, live_wall, live_wall + sealed_wall, probe_answers, allnf_rows,
                 live, sealed, sealed_rows, nodes, branching, checks)


def _pairs(rows) -> list[tuple]:
    return [(r.occurrence, r.nf) for r in rows]


def _requery(index, text: bytes, rows, checks: Checks, mode: str) -> None:
    """Re-ask an evenly spaced sample of all_nf rows with single_nf."""
    step = max(1, len(rows) // REQUERY_ROWS)
    for r in rows[::step][:REQUERY_ROWS]:
        i, j = r.occurrence
        s = text[i - 1:j]
        got = index.single_nf(s)
        checks.expect(r.nf >= 1 and got == r.nf,
                      f"{mode} all_nf row {s!r} nf={r.nf}, single_nf={got}")


def check_answers(inp: Inputs, rnd: Round) -> None:
    """The checks that need no index of the round, added to rnd.checks.
    Run them after reading memory: they build indexes of their own."""
    for i in inp.check_at:
        _check_prefix(inp, rnd, i, rnd.checks)
    if inp.sample is not None:
        _check_oracle(inp.sample, rnd.checks)


def _check_prefix(inp: Inputs, rnd: Round, i: int, checks: Checks) -> None:
    """Mid-stream answers at text length i against an index built on the
    prefix in one extend_text call and sealed, which answers from the
    tree alone, without the registry."""
    index = NetFrequencyIndex()
    index.extend_text(inp.text[:i])
    index.seal()
    q = inp.probes[i]
    got = index.single_nf(q)
    checks.expect(got == rnd.probe_answers[i],
                  f"mid-stream single_nf({q!r}) at {i}: live {rnd.probe_answers[i]}, "
                  f"sealed rebuild {got}")
    if i in rnd.allnf_rows:
        checks.expect(_pairs(rnd.allnf_rows[i]) == _pairs(index.all_nf()),
                      f"mid-stream all_nf at {i} differs from the sealed rebuild")


def _check_oracle(inp: Inputs, checks: Checks) -> None:
    """Run a small input through a whole round and compare every answer,
    mid-stream and final, live and sealed, with the brute-force
    definition."""
    rnd = run_round(inp, Recorder())
    check_answers(inp, rnd)
    checks.add(rnd.checks)
    text = inp.text

    def strings(rows):
        return sorted((tuple(text[r.occurrence.i - 1:r.occurrence.j]), r.nf) for r in rows)

    for i, answer in rnd.probe_answers.items():
        want = oracle_nf(text[:i], inp.probes[i])
        checks.expect(answer == want, f"sample mid-stream single_nf({inp.probes[i]!r}) "
                                      f"at {i}: {answer}, oracle {want}")
    for i, rows in rnd.allnf_rows.items():
        checks.expect(strings(rows) == sorted(oracle_all_nf(text[:i])),
                      f"sample live all_nf at {i} differs from the oracle")
    checks.expect(strings(rnd.sealed_rows) == sorted(oracle_all_nf(text, sealed=True)),
                  "sample sealed all_nf differs from the oracle")
    for q, a, b in zip(inp.queries, rnd.live, rnd.sealed):
        want = oracle_nf(text, q)
        checks.expect(a == want, f"sample single_nf({q!r}): live {a}, oracle {want}")
        want = oracle_nf(text, q, sealed=True)
        checks.expect(b == want, f"sample single_nf({q!r}): sealed {b}, oracle {want}")


def rounds_within(seconds: float, minimum: int):
    """Yield 0, 1, 2, ... while one more round as long as the previous
    one still ends within `seconds` of the start; at least `minimum`."""
    start = time.monotonic()
    last = 0.0
    k = 0
    while k < minimum or time.monotonic() - start + last <= seconds:
        t = time.monotonic()
        yield k
        last = time.monotonic() - t
        k += 1


def report_failures(checks: Checks) -> None:
    for note in checks.notes:
        print(f"check failed: {note}", file=sys.stderr)
