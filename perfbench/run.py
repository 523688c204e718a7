"""netfreq benchmark: one command, every workload, every metric.

    python3 perfbench/run.py                         # all workloads
    python3 perfbench/run.py --workload stream_tandem --seed 3 --seconds 35
    python3 perfbench/run.py --workload bulk_words --trace 1

With --workload, one workload runs in this process and the last line of
standard output is a JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics untraced (--trace 0), or the
per-layer metrics of a traced run (--trace 1). Without it, every
workload runs in a fresh interpreter of its own and the results are
printed one after another. See README.md for what is measured and why.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_SETUP_SPAWNS = 15  # fresh interpreters per run, at least; the median is reported
MIN_ROUNDS = 3
SETUP_CODE = ("import time, netfreq; netfreq.NetFrequencyIndex(); "
              "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))")

# every end-to-end metric, in report order, with its unit
END_TO_END = {
    "setup_s": "s",
    "ingest_sym_per_s": "1/s",
    "stream_sym_per_s": "1/s",
    "append_p50_us": "us",
    "append_p99_us": "us",
    "live_query_p50_us": "us",
    "live_query_p99_us": "us",
    "sealed_query_p50_us": "us",
    "sealed_query_p99_us": "us",
    "live_allnf_ns_per_sym": "ns/sym",
    "sealed_allnf_ns_per_sym": "ns/sym",
    "peak_rss_bytes_per_sym": "B/sym",
}


def _import_program() -> None:
    """Import netfreq from this checkout's src/; exit 2 when it is absent."""
    if not (SRC / "netfreq" / "__init__.py").is_file():
        print(f"netfreq sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import netfreq
    if Path(netfreq.__file__).resolve().parent != SRC / "netfreq":
        print(f"imported netfreq from {netfreq.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def spawn_setup() -> float:
    """Seconds from spawning a fresh interpreter to an empty index existing
    in it. Both ends read the same monotonic clock."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return (int(out.stdout) - t0) / 1e9


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated quantile q in [0, 1] of an ascending list."""
    x = q * (len(sorted_values) - 1)
    i = int(x)
    j = min(i + 1, len(sorted_values) - 1)
    return sorted_values[i] + (sorted_values[j] - sorted_values[i]) * (x - i)


def round_inputs(workload: str, seed: int):
    """inputs(round, divisor): the round's inputs at n // divisor, a pure
    function of (workload, seed, round)."""
    from workloads import WORKLOADS
    generate, n = WORKLOADS[workload]

    def inputs(rnd: int, divisor: int = 1):
        return generate(n // divisor, random.Random(f"{workload}/{seed}/{rnd}"))
    return inputs


def round_metrics(rec, rnd, inp):
    """One round's end-to-end values (all but setup and memory), and the
    number of calls behind each per-call metric."""
    from rounds import EXTEND, EXTEND_TEXT, LIVE_ALLNF, LIVE_QUERY, SEALED_ALLNF, SEALED_QUERY
    appends = sorted(rec.ns[EXTEND_TEXT if inp.bulk else EXTEND])
    live_q = sorted(rec.ns[LIVE_QUERY])
    sealed_q = sorted(rec.ns[SEALED_QUERY])
    values = {
        "ingest_sym_per_s": rnd.n / sum(appends) * 1e9,
        "stream_sym_per_s": rnd.n / rnd.live_wall_ns * 1e9,
        "append_p50_us": percentile(appends, 0.50) / 1e3,
        "append_p99_us": percentile(appends, 0.99) / 1e3,
        "live_query_p50_us": percentile(live_q, 0.50) / 1e3,
        "live_query_p99_us": percentile(live_q, 0.99) / 1e3,
        "sealed_query_p50_us": percentile(sealed_q, 0.50) / 1e3,
        "sealed_query_p99_us": percentile(sealed_q, 0.99) / 1e3,
        "live_allnf_ns_per_sym": median(t / length for t, length
                                        in zip(rec.ns[LIVE_ALLNF], rnd.allnf_rows)),
        "sealed_allnf_ns_per_sym": rec.ns[SEALED_ALLNF][0] / rnd.n,
    }
    calls = {"append": f"{len(appends)} append call(s)",
             "live_query": f"{len(live_q)} live queries",
             "sealed_query": f"{len(sealed_q)} sealed queries",
             "live_allnf": f"{len(rnd.allnf_rows)} live all_nf call(s)"}
    return values, calls


def end_to_end(workload: str, seed: int, seconds: float):
    """Set-up time, then rounds while they fit in `seconds`. Each metric is
    the median over rounds of that round's value (percentiles are taken
    within a round), so a minority of rounds slowed by other load on the
    machine does not move it."""
    from rounds import Timings, check_answers, report_failures, rounds_within, run_round
    spawn_setup()  # warms the file cache; not counted
    setup = []
    inputs = round_inputs(workload, seed)
    per_round = []
    peak_rss = None
    attempted = failed = 0
    for k in rounds_within(seconds, MIN_ROUNDS):
        # one set-up sample per round, so that the set-up median spans the
        # whole run like the other medians do rather than one burst
        setup.append(spawn_setup())
        inp = inputs(k)
        gc.collect()
        if peak_rss is None:
            base_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        rec = Timings()
        try:
            rnd = run_round(inp, rec)
            if peak_rss is None:
                peak_rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                            - base_rss) / rnd.n
            check_answers(inp, rnd)
        except Exception:
            traceback.print_exc()
            attempted += 1
            failed += 1
            if failed > 2:
                break
            continue
        attempted += rnd.ops + rnd.checks.attempted
        failed += rnd.checks.failed
        report_failures(rnd.checks)
        values, calls = round_metrics(rec, rnd, inp)
        per_round.append(values)
    if not per_round:
        return None, attempted, failed, {}
    while len(setup) < MIN_SETUP_SPAWNS:
        setup.append(spawn_setup())
    metrics = {"setup_s": median(setup)}
    metrics.update((name, median(r[name] for r in per_round)) for name in per_round[0])
    metrics["peak_rss_bytes_per_sym"] = peak_rss
    notes = {"n": f"{len(inp.text)} symbols per round",
             "setup_s": f"median of {len(setup)} interpreters spread over the run",
             "peak_rss_bytes_per_sym": "first round"}
    for name in per_round[0]:
        notes[name] = f"median of {len(per_round)} rounds"
        for prefix, what in calls.items():
            if name.startswith(prefix):
                notes[name] += f", {what} per round"
    return metrics, attempted, failed, notes


def per_layer(workload: str, seed: int, seconds: float):
    from tracing import traced_run
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    span_path = out_dir / f"{workload}.spans.tsv.gz"
    metrics, attempted, failed, absent, cycles = traced_run(
        round_inputs(workload, seed), seconds, span_path)
    notes = {name: "absent" if any(name.startswith(a) for a in absent)
             else "tracemalloc at n/2" if name.endswith("bytes_per_sym")
             else f"median of {cycles} cycles" for name in metrics}
    notes["spans"] = str(span_path.relative_to(ROOT))
    return metrics, attempted, failed, notes


def run_one(args) -> int:
    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.trace:
        from tracing import LAYER_UNITS as units
        metrics, attempted, failed, notes = per_layer(args.workload, args.seed, args.seconds)
    else:
        units = END_TO_END
        metrics, attempted, failed, notes = end_to_end(args.workload, args.seed, args.seconds)
    if metrics is None:
        print(f"{args.workload}: every round raised", file=sys.stderr)
        return 1
    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} seed={args.seed} {mode} {notes.get('n', '')}".rstrip())
    for name, value in metrics.items():
        print(f"{args.workload}\t{name}\t{value:.6g} {units[name]}\t{notes.get(name, '')}")
    correct = failed == 0
    print(f"{args.workload}\tfailed_op_share\t{failed / attempted:.6g}\t"
          f"{failed} of {attempted} operations")
    print(f"{args.workload}\tverdict\t{'correct' if correct else 'INCORRECT'}")
    if "spans" in notes:
        print(f"{args.workload}\tspans\t{notes['spans']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter, in turn."""
    _import_program()
    from workloads import WORKLOADS
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stdout.flush()
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="run this workload only (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long to keep running rounds (default 35)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
