"""Acceptance gate: seven checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the verdict
lines stream; without -s pytest shows them in the captured-output block.
The bench check (number 6) rebuilds three multi-million-symbol indexes
three times each, so the whole module takes a few minutes.
"""

import argparse
import io
import itertools
import random
import statistics
import time

import pytest

from loci_checks import CLASS_RANK, edge_depths, progression
from netfreq import (
    NetFrequencyIndex,
    naive_implicit_tree,
    offline_single_nf_breakdown,
    online_all_nf,
    online_single_nf,
    oracle_all_nf,
    oracle_nf,
    oracle_repeated_suffixes,
)
from netfreq.cli import cmd_bench
from test_suffix_tree import _fibonacci_word


def _verdict(num: int, label: str, body):
    try:
        detail = body()
    except BaseException:
        print(f"[criterion {num}] FAIL: {label}", flush=True)
        raise
    line = f"[criterion {num}] PASS: {label}"
    if detail:
        print(line + f" ({detail})", flush=True)
    else:
        print(line, flush=True)


def _sealed(text):
    ix = NetFrequencyIndex()
    ix.extend_text(text)
    ix.seal()
    return ix


def _live(text):
    ix = NetFrequencyIndex()
    ix.extend_text(text)
    return ix


def _distinct_substrings(text):
    n = len(text)
    return {text[i:j] for i in range(n) for j in range(i + 1, n + 1)}


def _online_rows(ix):
    return {(tuple_of(ix, r), r.nf) for r in online_all_nf(ix.builder)}


def tuple_of(ix, report):
    i, j = report.occurrence
    return tuple(ix.tree.store.substring(i, j))


def test_criterion_1_worked_example():
    def body():
        t0 = time.perf_counter()
        ix = _sealed(b"rstkstcastarstast")
        tree = ix.tree
        marker = tree.store.sentinel
        assert ix.single_nf(b"st") == 1
        bd = offline_single_nf_breakdown(tree, b"st")
        assert bd.value == 1
        assert bd.right_unique == {marker, ord("c"), ord("k")}
        assert bd.left_repeated == {ord("r"), ord("a")}
        assert bd.right_unique_by_left[ord("r")] == {ord("a"), ord("k")}
        assert bd.right_unique_by_left[ord("a")] == {marker, ord("a")}
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        return f"{elapsed * 1e3:.1f} ms"

    _verdict(1, "worked example value and breakdown sets", body)


def test_criterion_2_exhaustive_offline_binary():
    def body():
        t0 = time.perf_counter()
        texts = 0
        for length in range(1, 13):
            for tup in itertools.product(b"ab", repeat=length):
                text = bytes(tup)
                ix = _sealed(text)
                for s in _distinct_substrings(text):
                    assert ix.single_nf(s) == oracle_nf(text, s, sealed=True), (text, s)
                rows = ix.all_nf()
                got = {(tuple(text[r.occurrence.i - 1:r.occurrence.j]), r.nf) for r in rows}
                assert got == set(map(tuple, oracle_all_nf(text, sealed=True))), text
                texts += 1
        elapsed = time.perf_counter() - t0
        assert texts == 8190
        assert elapsed < 300
        return f"{texts} texts, {elapsed:.1f} s"

    _verdict(2, "offline equals oracle on every binary text up to length 12", body)


def test_criterion_3_exhaustive_online_binary():
    # index state is a function of the text alone (the construction
    # equivalence tests pin this), so enumerating every binary text of
    # length <= 12 visits the state after every prefix of every stream
    def body():
        t0 = time.perf_counter()
        texts = 0
        for length in range(1, 13):
            for tup in itertools.product(b"ab", repeat=length):
                text = bytes(tup)
                ix = _live(text)
                for s in _distinct_substrings(text):
                    assert online_single_nf(ix.builder, s) == oracle_nf(text, s), (text, s)
                assert _online_rows(ix) == set(map(tuple, oracle_all_nf(text))), text
                texts += 1
        elapsed = time.perf_counter() - t0
        assert texts == 8190
        assert elapsed < 600
        return f"{texts} texts, {elapsed:.1f} s"

    _verdict(3, "online equals oracle after every prefix of every binary text up to length 12", body)


def _check_registry_prefix(ix, text, hint):
    """Cheap per-prefix registry checks, O(members) not O(tree).

    hint caps the oracle's suffix scan; the longest repeated suffix grows
    by at most one per appended symbol, so last length + 1 is always safe.
    Returns the cap for the next prefix.
    """
    tree = ix.tree
    n = len(text)
    members = ix.builder.repeated_suffixes()
    got = {(d, s) for d, s, _u, _c in members}
    expect = {(length, n - length + 1) for length, _sym in
              oracle_repeated_suffixes(text, max_length=hint)}
    assert got == expect, (text, got, expect)
    ranks = [CLASS_RANK[c] for _d, _s, _u, c in members]
    assert ranks == sorted(ranks), text
    depths = [m[0] for m in members]
    assert depths == sorted(depths, reverse=True), text
    for u, ds in edge_depths(members).items():
        top = tree.depth(tree.parent_of(u))
        if tree.is_branching(u):
            assert len(ds) <= 1 and top < ds[0] <= tree.depth(u), (text, u)
        else:
            first, step, count = progression(ds)
            assert count == len(ds) and first == ds[0] and first > top, (text, u)
            assert all(ds[k] == first + step * k for k in range(count)), (text, u)
    return (max(d for d, _s in expect) if expect else 0) + 1


def test_criterion_4_randomized_registry_and_agreement():
    def body():
        t0 = time.perf_counter()
        rng = random.Random(2024)
        texts = 0
        for alphabet in (2, 3, 4, 26):
            for _ in range(50):
                n = rng.randrange(1, 501)
                text = bytes(rng.randrange(alphabet) + 97 for _ in range(n))
                ix = NetFrequencyIndex()
                hint = 1
                for k in range(n):
                    ix.extend(text[k])
                    hint = _check_registry_prefix(ix, text[:k + 1], hint)
                live_rows = _online_rows(ix)
                ix.seal()
                rows = ix.all_nf()
                sealed_rows = {(tuple(text[r.occurrence.i - 1:r.occurrence.j]), r.nf) for r in rows}
                assert live_rows == sealed_rows, text
                texts += 1
        elapsed = time.perf_counter() - t0
        assert texts == 200
        return f"{texts} texts, {elapsed:.1f} s"

    _verdict(4, "registry matches the scan oracle after every prefix of 200 random texts", body)


def test_criterion_5_structural_isomorphism():
    def body():
        t0 = time.perf_counter()
        rng = random.Random(77)
        corpus = [
            b"a" * 200,
            b"ab" * 100,
            b"aab" * 66,
            _fibonacci_word(200),
            b"abc" * 66,
        ]
        for _ in range(20):
            n = rng.randrange(1, 201)
            sigma = rng.choice((2, 3, 4, 26))
            corpus.append(bytes(rng.randrange(sigma) + 97 for _ in range(n)))
        checked = 0
        for text in corpus:
            ix = NetFrequencyIndex()
            for k in range(len(text)):
                ix.extend(text[k])
                assert ix.tree.canonical_form() == naive_implicit_tree(text[:k + 1]), (text[:k + 1],)
                checked += 1
        elapsed = time.perf_counter() - t0
        return f"{len(corpus)} texts, {checked} prefixes, {elapsed:.1f} s"

    _verdict(5, "tree is isomorphic to the naive construction after every extension", body)


def _run_bench(n, seed):
    args = argparse.Namespace(n=n, alphabet=4, seed=seed)
    out = io.StringIO()
    t0 = time.perf_counter()
    rc = cmd_bench(args, out, io.StringIO())
    wall = time.perf_counter() - t0
    assert rc == 0
    fields = out.getvalue().strip().split(",")
    return wall, int(fields[3]), int(fields[4]), int(fields[5])


@pytest.mark.slow
def test_criterion_6_scaling_bench():
    def body():
        sizes = (1 << 20, 1 << 21, 1 << 22)
        build_med, allnf_med, query_med = {}, {}, {}
        walls = []
        for n in sizes:
            runs = [_run_bench(n, seed) for seed in (0, 1, 2)]
            for wall, _b, _a, _q in runs:
                assert wall < 60.0, (n, wall)
                walls.append(wall)
            build_med[n] = statistics.median(r[1] for r in runs)
            allnf_med[n] = statistics.median(r[2] for r in runs)
            query_med[n] = statistics.median(r[3] for r in runs)
        ratios = []
        for small, big in zip(sizes, sizes[1:]):
            for med in (build_med, allnf_med):
                r = med[big] / med[small]
                ratios.append(r)
                assert 1.5 <= r <= 3.0, (small, big, r)
        spread = max(query_med.values()) / min(query_med.values())
        assert spread <= 3.0, spread
        return ("doubling ratios " + ", ".join(f"{r:.2f}" for r in ratios)
                + f"; query spread {spread:.2f}x; max wall {max(walls):.1f} s")

    _verdict(6, "build and all-strings query scale near-linearly to 4M symbols", body)


def test_criterion_7_positive_count_bound():
    def body():
        checked = 0
        named = [b"rstkstcastarstast", b"aabaabababaa", b"aabaababa", b"abbaba",
                 b"mississippi", b"aaaa", b"ab", b"banana"]
        rng = random.Random(99)
        randoms = [bytes(rng.randrange(rng.choice((2, 3, 4, 26))) + 97
                         for _ in range(rng.randrange(1, 301))) for _ in range(60)]
        short_binary = [bytes(t) for length in range(1, 11)
                        for t in itertools.product(b"ab", repeat=length)]
        for text in named + randoms + short_binary:
            n = len(text)
            ix = _live(text)
            assert len(online_all_nf(ix.builder)) <= n, text
            ix.seal()
            assert len(ix.all_nf()) <= n, text
            checked += 1
        return f"{checked} texts"

    _verdict(7, "number of strings with positive net frequency never exceeds the text length", body)
