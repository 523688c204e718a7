"""Sealed-text net frequency through the facade: the worked example,
tables, the breakdown sets, and oracle parity."""

import random

import pytest

from netfreq import (
    NetFrequencyIndex,
    offline_single_nf_breakdown,
    oracle_all_nf,
    oracle_nf,
)
from netfreq.nf_query import _count_at_node, _sweep


def sealed(text):
    ix = NetFrequencyIndex()
    ix.extend_text(text)
    ix.seal()
    return ix


def row_strings(text, reports):
    return [(r.occurrence.i, r.occurrence.j, r.nf,
             text[r.occurrence.i - 1:r.occurrence.j].decode()) for r in reports]


def test_worked_example_single_value():
    ix = sealed(b"rstkstcastarstast")
    assert ix.single_nf(b"st") == 1


def test_worked_example_breakdown_sets():
    ix = sealed(b"rstkstcastarstast")
    bd = offline_single_nf_breakdown(ix.tree, b"st")
    marker = ix.tree.store.sentinel
    assert bd.value == 1
    assert bd.right_unique == {marker, ord("c"), ord("k")}
    assert bd.left_repeated == {ord("r"), ord("a")}
    assert bd.right_unique_by_left == {
        ord("r"): {ord("a"), ord("k")},
        ord("a"): {marker, ord("a")},
    }


def test_worked_example_full_table():
    text = b"rstkstcastarstast"
    rows = row_strings(text, sealed(text).all_nf())
    assert rows == [
        (1, 3, 2, "rst"),
        (2, 3, 1, "st"),
        (8, 10, 2, "ast"),
        (9, 11, 2, "sta"),
    ]


def test_second_text_full_table():
    text = b"aabaabababaa"
    rows = row_strings(text, sealed(text).all_nf())
    assert rows == [
        (1, 4, 2, "aaba"),
        (2, 5, 2, "abaa"),
        (5, 9, 2, "ababa"),
    ]
    assert sealed(text).single_nf(b"abaa") == 2


def test_reports_are_sorted_and_leftmost():
    text = b"aabaabababaa"
    rows = sealed(text).all_nf()
    keyed = [(r.occurrence.i, r.occurrence.j) for r in rows]
    assert keyed == sorted(keyed)
    for r in rows:
        s = text[r.occurrence.i - 1:r.occurrence.j]
        assert text.find(s) == r.occurrence.i - 1


def test_queries_without_two_occurrences_are_zero():
    ix = sealed(b"abcdef")
    assert ix.single_nf(b"abc") == 0
    assert ix.single_nf(b"zzz") == 0
    assert ix.all_nf() == []


def test_empty_query_raises_and_unsealed_tree_rejected():
    ix = sealed(b"abab")
    with pytest.raises(ValueError):
        ix.single_nf(b"")
    with pytest.raises(ValueError):
        offline_single_nf_breakdown(ix.tree, b"")
    live = NetFrequencyIndex()
    live.extend_text(b"abab")
    with pytest.raises(ValueError):
        offline_single_nf_breakdown(live.tree, b"ab")


def test_str_and_bytes_queries_agree():
    ix = sealed(b"aabaabababaa")
    assert ix.single_nf("abaa") == ix.single_nf(b"abaa") == 2


def test_single_matches_oracle_on_random_texts():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randrange(2, 70)
        sigma = rng.choice((2, 3, 4))
        text = bytes(rng.randrange(sigma) + 97 for _ in range(n))
        ix = sealed(text)
        subs = {text[i:j] for i in range(n) for j in range(i + 1, n + 1)}
        for s in subs:
            assert ix.single_nf(s) == oracle_nf(text, s, sealed=True)


def test_all_matches_oracle_on_random_texts():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randrange(2, 80)
        sigma = rng.choice((2, 3, 26))
        text = bytes(rng.randrange(sigma) + 97 for _ in range(n))
        rows = sealed(text).all_nf()
        got = {(tuple(text[r.occurrence.i - 1:r.occurrence.j]), r.nf) for r in rows}
        assert got == set(map(tuple, oracle_all_nf(text, sealed=True)))


def test_positive_reports_never_exceed_text_length():
    rng = random.Random(47)
    for _ in range(25):
        n = rng.randrange(1, 120)
        text = bytes(rng.randrange(2) + 97 for _ in range(n))
        assert len(sealed(text).all_nf()) <= n


def test_breakdown_sets_match_brute_force_counts():
    # every distinct substring S of random sealed texts, the sentinel
    # counted as a symbol: the sets are checked against substring counts
    rng = random.Random(53)
    checked = 0
    for _ in range(150):
        n = rng.randrange(1, 40)
        sigma = rng.choice((2, 3, 4))
        text = bytes(rng.randrange(sigma) + 97 for _ in range(n))
        ix = sealed(text)
        marker = ix.tree.store.sentinel
        t = tuple(text) + (marker,)
        f = {}
        for i in range(len(t)):
            for j in range(i + 1, len(t) + 1):
                f[t[i:j]] = f.get(t[i:j], 0) + 1
        symbols = set(t)
        for s in {text[i:j] for i in range(n) for j in range(i + 1, n + 1)}:
            bd = offline_single_nf_breakdown(ix.tree, s)
            assert bd.value == oracle_nf(text, s, sealed=True), (text, s)
            loc = ix.tree.locate(s)
            if loc.node > 0 and loc.d == ix.tree.depth(loc.node):
                assert bd.right_unique == {y for y in symbols
                                           if f.get(tuple(s) + (y,)) == 1}, (text, s)
            left = {x for x in symbols
                    if len([y for y in symbols if f.get((x,) + tuple(s) + (y,))]) >= 2}
            assert bd.left_repeated == left, (text, s)
            assert bd.right_unique_by_left == {
                x: {y for y in symbols if f.get((x,) + tuple(s) + (y,)) == 1}
                for x in left}, (text, s)
            checked += 1
    assert checked > 10000


def test_leaf_order_sweep_equals_the_count_at_every_branching_node():
    # the sweep pays each leaf to its parent in suffix-start order; the
    # single-string count tests the same leaves one node at a time
    rng = random.Random(59)
    texts = [bytes(rng.randrange(sigma) + 97 for _ in range(rng.randrange(1, 120)))
             for sigma in (2, 3, 4, 26) for _ in range(15)]
    texts += [b"a" * k + b"b" + b"a" * (k // 2) for k in (1, 5, 40)]
    texts += [(b"abaab" * 30)[:k] for k in (7, 61, 150)]
    for text in texts:
        tree = sealed(text).tree
        phi = _sweep(tree)
        for u in range(1, len(tree.lstart)):
            assert phi[u] == _count_at_node(tree, u), (text, u)
