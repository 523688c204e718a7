"""Command-line front end.

Three subcommands: ``offline`` indexes a file and answers one query or
dumps the full table, ``stream`` drives the online index interactively
over stdin, ``bench`` times construction and queries on random text.

Input is byte oriented. Positions in output are 1-based and the string
column escapes anything outside printable ASCII as ``\\xNN`` (backslash
itself doubles), so tables survive binary inputs.
"""

from __future__ import annotations

import argparse
import gc
import os
import random
import sys
import time

from .index import NetFrequencyIndex
from .nf_query import NfRows

TABLE_HEADER = "start\tend\tnf\tstring"

BYTE_ALPHABET = 256


def escape_bytes(codes) -> str:
    out = []
    for c in codes:
        if c == 0x5C:
            out.append("\\\\")
        elif 0x20 <= c <= 0x7E:
            out.append(chr(c))
        else:
            out.append("\\x%02x" % c)
    return "".join(out)


def format_table(symbols, reports: NfRows) -> str:
    """Render an all_nf result as the tab-separated table, newline
    terminated, from its key and nf columns."""
    lines = [TABLE_HEADER]
    for key, nf in zip(reports.key, reports.nf):
        i, j = divmod(key, reports.n1)
        lines.append("%d\t%d\t%d\t%s" % (i, j, nf, escape_bytes(symbols[i - 1:j])))
    return "\n".join(lines) + "\n"


def cmd_offline(args, stdout, stderr) -> int:
    try:
        with open(args.input, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print("netfreq: cannot read %s: %s" % (args.input, exc), file=stderr)
        return 1
    index = NetFrequencyIndex(BYTE_ALPHABET)
    index.extend_text(data)
    index.seal()
    if args.query is not None:
        query = os.fsencode(args.query)  # the argv bytes, even where not UTF-8
        if not query:
            print("netfreq: --query must be non-empty", file=stderr)
            return 2
        stdout.write("%d\n" % index.single_nf(query))
    else:
        stdout.write(format_table(index.store._symbols, index.all_nf()))
    return 0


def cmd_stream(args, stdin, stdout, stderr) -> int:
    index = NetFrequencyIndex(BYTE_ALPHABET)
    status = 0
    for raw in stdin:
        line = raw[:-1] if raw.endswith(b"\n") else raw
        if line.startswith(b"+"):
            for byte in line[1:]:
                index.extend(byte)
        elif line.startswith(b"? ") and len(line) > 2:
            stdout.write("%d\n" % index.single_nf(line[2:]))
        elif line == b"!":
            stdout.write(format_table(index.store._symbols, index.all_nf()))
        elif line == b"#":
            stdout.write(" ".join("%s=%d" % kv for kv in index.stats().items()) + "\n")
        else:
            print("netfreq: malformed line: %s" % escape_bytes(line), file=stderr)
            status = 1
        stdout.flush()
    return status


def cmd_bench(args, stdout, stderr) -> int:
    if args.n <= 0:
        print("netfreq: --n must be positive", file=stderr)
        return 2
    if not 2 <= args.alphabet <= BYTE_ALPHABET:
        print("netfreq: --alphabet must be in [2, 256]", file=stderr)
        return 2
    rng = random.Random(args.seed)
    data = bytes(b % args.alphabet for b in rng.randbytes(args.n))

    # cycle collection is pure overhead here: the index holds no cycles
    # worth tracing, and collector pauses would pollute the timings
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        index = NetFrequencyIndex(BYTE_ALPHABET)
        t0 = time.perf_counter_ns()
        index.extend_text(data)
        build_ns = time.perf_counter_ns() - t0

        t0 = time.perf_counter_ns()
        index.all_nf()
        allnf_ns = time.perf_counter_ns() - t0

        # per-query cost is microseconds, so a single scheduler preemption
        # would swamp one timed pass; report the fastest of several batches
        qlen = min(16, args.n)
        queries = [data[off:off + qlen]
                   for off in (rng.randrange(args.n - qlen + 1) for _ in range(256))]
        for q in queries:  # warm caches and branch paths untimed
            index.single_nf(q)
        best = None
        for _ in range(8):
            t0 = time.perf_counter_ns()
            for q in queries:
                index.single_nf(q)
            batch = time.perf_counter_ns() - t0
            if best is None or batch < best:
                best = batch
        per_query = best // len(queries)
    finally:
        if was_enabled:
            gc.enable()

    stdout.write("%d,%d,%d,%d,%d,%d\n"
                 % (args.n, args.alphabet, args.seed, build_ns, allnf_ns, per_query))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netfreq",
        description="Net-frequency indexing over append-only text.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_off = sub.add_parser("offline", help="index a file, then query or dump the table")
    p_off.add_argument("--input", required=True, help="path of the text to index")
    p_off.add_argument("--query", default=None,
                       help="print this string's net frequency instead of the table")

    sub.add_parser("stream",
                   help="read +/?/!/# commands from stdin against a growing text")

    p_bench = sub.add_parser("bench", help="time construction and queries, emit CSV")
    p_bench.add_argument("--n", type=int, required=True, help="text length")
    p_bench.add_argument("--alphabet", type=int, default=4,
                         help="alphabet size, bytes 0..k-1 (default 4)")
    p_bench.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "offline":
        return cmd_offline(args, sys.stdout, sys.stderr)
    if args.command == "stream":
        return cmd_stream(args, sys.stdin.buffer, sys.stdout, sys.stderr)
    return cmd_bench(args, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
