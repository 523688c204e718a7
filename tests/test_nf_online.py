"""Streaming net frequency: off-node counts, coinciding repeated
suffixes, and oracle parity.

The two hand-built regression texts at the top each pinned a real bug:
"aabaababa" exercises a longest repeated suffix whose locus sits exactly
on a branching node, and "abbaba" needs the subtraction step to check the
right-hand side as well as the left before discounting an occurrence.
"""

import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from netfreq import (
    NetFrequencyIndex,
    NfReport,
    Occurrence,
    SuffixTree,
    online_all_nf,
    online_single_nf,
    oracle_all_nf,
    oracle_nf,
)
from test_suffix_tree import _fibonacci_word


def live(text):
    ix = NetFrequencyIndex()
    ix.extend_text(text)
    return ix


def query(ix, s):
    return online_single_nf(ix.builder, s)


def test_longest_repeated_suffix_on_a_branching_node():
    ix = live(b"aabaababa")
    assert query(ix, b"aba") == 1
    assert oracle_nf(b"aabaababa", b"aba") == 1


def test_subtraction_requires_both_sides_unique():
    ix = live(b"abbaba")
    assert query(ix, b"b") == 0
    assert oracle_nf(b"abbaba", b"b") == 0


def test_two_symbol_stream_has_no_positive_strings():
    ix = live(b"ab")
    assert query(ix, b"a") == 0
    assert query(ix, b"b") == 0
    assert online_all_nf(ix.builder) == []


def test_worked_text_streaming_values():
    ix = live(b"aabaabababaa")
    assert query(ix, b"abaa") == 2
    assert query(ix, b"aaba") == 2
    assert query(ix, b"ababa") == 2
    assert query(ix, b"ab") == 0
    assert query(ix, b"zzz") == 0
    rows = [(r.occurrence.i, r.occurrence.j, r.nf) for r in online_all_nf(ix.builder)]
    assert rows == [(1, 4, 2), (2, 5, 2), (5, 9, 2)]


def test_empty_query_raises():
    ix = live(b"ab")
    with pytest.raises(ValueError):
        query(ix, b"")


QUERY_TEXT = b"aabaabababaa"
QUERIES = (b"a", b"ab", b"aba", b"abaa", b"baa", b"aab", b"ababa", b"aabaab", b"zz",
           b"aabaabababaab")


def test_each_query_locates_once_live_and_sealed(monkeypatch):
    # one tree.locate per query, whether it ends on a node, off a node
    # (the longest repeated suffix among them) or nowhere
    calls = []
    locate = SuffixTree.locate

    def counting(self, s):
        calls.append(s)
        return locate(self, s)

    monkeypatch.setattr(SuffixTree, "locate", counting)
    ix = live(QUERY_TEXT)
    for sealed in (False, True):
        if sealed:
            ix.seal()
        for s in QUERIES:
            calls.clear()
            ix.single_nf(s)
            assert len(calls) == 1, (sealed, s, calls)


def test_query_types_give_one_answer_live_and_sealed():
    ix = live(QUERY_TEXT)
    for sealed in (False, True):
        if sealed:
            ix.seal()
        for s in QUERIES:
            forms = (s.decode(), s, bytearray(s), memoryview(s), list(s), tuple(s))
            got = [ix.single_nf(f) for f in forms]
            assert got == [oracle_nf(QUERY_TEXT, s, sealed=sealed)] * len(forms), (sealed, s)


def test_symbols_outside_the_alphabet_and_bad_queries():
    ix = live(QUERY_TEXT)
    for sealed in (False, True):
        if sealed:
            ix.seal()
        for sym in (-1, 256, 1000):
            assert ix.single_nf([sym]) == 0, (sealed, sym)
            assert ix.single_nf([97, 98, sym]) == 0, (sealed, sym)
        for empty in (b"", "", [], ()):
            with pytest.raises(ValueError):
                ix.single_nf(empty)
        with pytest.raises(TypeError):
            ix.single_nf([1.5])


def test_off_node_counts_on_a_run_and_an_internal_edge():
    # Off a node only the longest repeated suffix scores: on a leaf edge
    # with the text end and the occurrence further left, mid-way down an
    # internal edge with the text end alone; shorter ones score nothing.
    for text, expect in ((b"aaaa", {b"aaa": 2, b"aa": 0, b"a": 0}),
                         (b"abcxabcyab", {b"ab": 1, b"abc": 2})):
        ix = live(text)
        for s, value in expect.items():
            assert query(ix, s) == value == oracle_nf(text, s), (text, s)
    ix = live(b"aaaa")
    assert ix.tree.locate(b"aaa").node < 0  # a leaf
    ix = live(b"abcxabcyab")
    loc = ix.tree.locate(b"ab")
    assert loc.node > 0 and loc.d < ix.tree.depth(loc.node)


def coincides(ix, u):
    """str(u), u a branching node, is a repeated suffix of the text."""
    return u > 0 and ix.registry.member_at_depth(ix.tree.depth(u)) == u


def test_member_at_depth_finds_the_one_longer_repeated_suffix_or_none():
    # the one-longer repeated suffix x + S of a coinciding S, when it exists
    ix = live(b"aabaa")
    loc = ix.tree.locate(b"a")
    assert coincides(ix, loc.node)
    assert ix.registry.member_at_depth(2) == ix.tree.locate(b"aa").node
    # coinciding node with no one-longer repeated suffix
    ix2 = live(b"abcabdab")
    loc2 = ix2.tree.locate(b"ab")
    assert coincides(ix2, loc2.node)
    assert ix2.registry.member_at_depth(3) is None
    # longest repeated suffix on a branching node, nothing deeper to find
    ix3 = live(b"aabaababa")
    loc3 = ix3.tree.locate(b"aba")
    assert coincides(ix3, loc3.node)
    assert ix3.registry.member_at_depth(4) is None


def test_single_matches_oracle_after_every_prefix():
    rng = random.Random(53)
    for _ in range(8):
        n = rng.randrange(2, 40)
        text = bytes(rng.randrange(2) + 97 for _ in range(n))
        ix = NetFrequencyIndex()
        for k in range(n):
            ix.extend(text[k])
            pref = text[:k + 1]
            subs = {pref[i:j] for i in range(k + 1) for j in range(i + 1, k + 2)}
            for s in subs:
                assert query(ix, s) == oracle_nf(pref, s), (pref, s)


def test_all_matches_oracle_after_every_prefix():
    rng = random.Random(59)
    for _ in range(10):
        n = rng.randrange(2, 60)
        sigma = rng.choice((2, 3))
        text = bytes(rng.randrange(sigma) + 97 for _ in range(n))
        ix = NetFrequencyIndex()
        for k in range(n):
            ix.extend(text[k])
            pref = text[:k + 1]
            rows = online_all_nf(ix.builder)
            got = {(tuple(pref[r.occurrence.i - 1:r.occurrence.j]), r.nf) for r in rows}
            assert got == set(map(tuple, oracle_all_nf(pref))), pref


def test_streaming_agrees_with_sealed_copy():
    rng = random.Random(61)
    for _ in range(20):
        n = rng.randrange(2, 80)
        sigma = rng.choice((2, 4, 26))
        text = bytes(rng.randrange(sigma) + 97 for _ in range(n))
        a = live(text)
        b = live(text)
        b.seal()
        ra = [(r.occurrence.i, r.occurrence.j, r.nf) for r in a.all_nf()]
        rb = [(r.occurrence.i, r.occurrence.j, r.nf) for r in b.all_nf()]
        assert ra == rb


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=1, max_size=40), st.binary(min_size=1, max_size=6))
def test_property_single_value_matches_oracle(text, s):
    text = bytes(c % 3 + 97 for c in text)
    s = bytes(c % 3 + 97 for c in s)
    assert query(live(text), s) == oracle_nf(text, s)


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=1, max_size=40))
def test_property_all_rows_match_oracle(text):
    text = bytes(c % 2 + 97 for c in text)
    ix = live(text)
    rows = online_all_nf(ix.builder)
    got = {(tuple(text[r.occurrence.i - 1:r.occurrence.j]), r.nf) for r in rows}
    assert got == set(map(tuple, oracle_all_nf(text)))


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=1, max_size=50))
def test_property_positive_count_bounded_by_length(text):
    text = bytes(c % 2 + 97 for c in text)
    ix = live(text)
    assert len(online_all_nf(ix.builder)) <= len(text)


def test_all_matches_oracle_on_every_ternary_text():
    # every text over {a,b,c} up to length 8, left unsealed; among them
    # "aaabacab", on which an earlier all_nf left "a" (nf 1) unreported
    for n in range(1, 9):
        for tup in itertools.product(b"abc", repeat=n):
            text = bytes(tup)
            rows = live(text).all_nf()
            got = {(tuple(text[r.occurrence.i - 1:r.occurrence.j]), r.nf) for r in rows}
            assert got == set(map(tuple, oracle_all_nf(text))), text


def test_online_entry_points_answer_sealed_indexes():
    # a sealed index is the live case with no members: the online
    # functions must give the facade's and the sealed oracle's answers,
    # including on texts where nothing is positive
    texts = (b"ab", b"abcdef", b"a", b"aaaa", b"aabaabababaa", b"rstkstcastarstast",
             b"abbaba", b"aaabacab")
    for text in texts:
        ix = live(text)
        ix.seal()
        rows = online_all_nf(ix.builder)
        assert rows == ix.all_nf()
        got = {(tuple(text[r.occurrence.i - 1:r.occurrence.j]), r.nf) for r in rows}
        assert got == set(map(tuple, oracle_all_nf(text, sealed=True)))
        subs = {text[i:j] for i in range(len(text)) for j in range(i + 1, len(text) + 1)}
        for s in subs | {b"z"}:
            value = query(ix, s)
            assert value == ix.single_nf(s)
            assert value == oracle_nf(text, s, sealed=True), (text, s)
        if text in (b"ab", b"abcdef", b"a"):
            assert rows == []


def tandem_stream(rng, sigma):
    """Random gaps and tandem repeats of short random units over sigma
    symbols: the repeated suffixes grow long inside each repeat and cover
    several nodes' leaf children at once."""
    alphabet = bytes(range(97, 97 + sigma))
    parts = []
    for _ in range(rng.randrange(2, 4)):
        parts.append(bytes(rng.choice(alphabet) for _ in range(rng.randrange(1, 6))))
        unit = bytes(rng.choice(alphabet) for _ in range(rng.randrange(1, 4)))
        parts.append(unit * rng.randrange(2, 9))
    return b"".join(parts)


def test_single_matches_oracle_on_loaded_streams():
    # After every append: every suffix up to one longer than the longest
    # repeated suffix (each node on the chain counts against the leftmost
    # occurrence of the active string at its own depth), and random
    # substrings. Moving either end of that range by one fails here.
    rng = random.Random(67)
    for k in range(48):
        text = tandem_stream(rng, (2, 3, 4, 26)[k % 4])
        ix = NetFrequencyIndex()
        for m in range(1, len(text) + 1):
            ix.extend(text[m - 1])
            pref = text[:m]
            a = ix.active_depth()
            qs = {pref[m - length:] for length in range(1, min(a + 1, m) + 1)}
            for _ in range(4):
                i = rng.randrange(m)
                qs.add(pref[i:rng.randrange(i + 1, m + 1)])
            for s in qs:
                assert query(ix, s) == oracle_nf(pref, s), (pref, s)


def test_all_matches_oracle_where_alpha_overlaps_its_suffix_occurrence():
    # In runs, tandem repeats and the Fibonacci word the leftmost
    # occurrence of the longest repeated suffix overlaps the suffix
    # itself, so the leaves the live correction reads (iA .. iA + A - 1)
    # run past the last leaf. Moving the upper end of the range by one,
    # correcting nodes as deep as A, reading past the last leaf or
    # leaving out alpha's text end fails here.
    rng = random.Random(71)
    texts = [tandem_stream(rng, (2, 3, 4, 26)[k % 4]) for k in range(24)]
    texts += [b"a" * k + b"b" + b"a" * k for k in (1, 2, 5, 16)]
    texts.append(_fibonacci_word(90))
    for text in texts:
        ix = NetFrequencyIndex()
        for m in range(1, len(text) + 1):
            ix.extend(text[m - 1])
            pref = text[:m]
            rows = online_all_nf(ix.builder)
            got = {(tuple(pref[r.occurrence.i - 1:r.occurrence.j]), r.nf) for r in rows}
            assert got == set(map(tuple, oracle_all_nf(pref))), pref


def test_all_nf_equals_single_nf_at_every_branching_node_live():
    # the two live paths node by node after every append: all_nf corrects
    # the sweep in one pass over alpha's leaves, single_nf counts one
    # node's leaf children with the range test
    rng = random.Random(73)
    texts = [bytes(rng.randrange(sigma) + 97 for _ in range(rng.randrange(1, 70)))
             for sigma in (2, 3, 4, 26) for _ in range(6)]
    texts += [tandem_stream(rng, (2, 3, 4, 26)[k % 4]) for k in range(16)]
    for text in texts:
        ix = NetFrequencyIndex()
        tree = ix.tree
        for m in range(1, len(text) + 1):
            ix.extend(text[m - 1])
            reported = {tuple(r.occurrence): r.nf for r in online_all_nf(ix.builder)}
            for u in range(1, len(tree.lstart)):
                i, d = tree.lstart[u], tree.depth_arr[u]
                assert reported.get((i + 1, i + d), 0) == query(ix, text[i:i + d]), \
                    (text[:m], u)


def test_all_nf_rows_read_as_a_sequence():
    # rows are built on access: by index (negative too), by slice (a
    # list, steps included, as the benchmark re-queries rows[::k][:16])
    # and by iteration, all giving the same NfReport rows
    rng = random.Random(16)
    rows = live(bytes(rng.randrange(2) + 97 for _ in range(300))).all_nf()
    ref = list(rows)
    assert len(rows) == len(ref) > 48
    assert [rows[k] for k in range(len(rows))] == ref
    assert type(ref[0]) is NfReport and type(ref[0].occurrence) is Occurrence
    assert rows[-1] == ref[-1] and rows[-len(rows)] == ref[0]
    with pytest.raises(IndexError):
        rows[len(rows)]
    for sl in (slice(None, None, 3), slice(5, 1, -2), slice(-7, None), slice(4, 4)):
        assert type(rows[sl]) is list and rows[sl] == ref[sl]
    assert rows[::3][:16] == ref[::3][:16]
    assert [r.occurrence for r in rows] == sorted(r.occurrence for r in rows)


def test_all_nf_rows_compare_as_sequences():
    text = b"aabaabababaa"
    rows = live(text).all_nf()
    assert rows == live(text).all_nf() and rows == list(rows) and list(rows) == rows
    assert rows != [] and [] != rows and rows != 3
    assert live(b"ab").all_nf() == [] and [] == live(b"ab").all_nf()
    changed = list(rows)
    changed[1] = changed[1]._replace(nf=changed[1].nf + 1)
    assert rows != changed and changed != rows
    assert rows != list(rows)[:-1]
    sealed = live(text)
    sealed.seal()
    assert rows != sealed.all_nf()  # the same strings at another text length
    with pytest.raises(TypeError):
        hash(rows)


def test_mid_edge_alpha_row_lands_in_occurrence_order():
    # the longest repeated suffix ends mid-edge, on a branching edge or
    # on a leaf edge, and its row is first, in the middle or last of three
    for text, at in ((b"ababbca", 0), (b"abbcca", 0), (b"ababaccb", 1), (b"aabbab", 1),
                     (b"aababacb", 2), (b"aabbcc", 2)):
        ix = live(text)
        rows = ix.all_nf()
        alpha, a = ix.active_locus()
        i = ix.tree.start(alpha)
        assert a and not (alpha >= 0 and ix.tree.depth_arr[alpha] == a), text
        assert len(rows) == 3 and rows[at] == (Occurrence(i, i + a - 1), rows[at].nf, alpha)
        assert [r.occurrence for r in rows] == sorted(r.occurrence for r in rows)
        got = {(tuple(text[r.occurrence.i - 1:r.occurrence.j]), r.nf) for r in rows}
        assert got == set(map(tuple, oracle_all_nf(text))), text


def test_kept_all_nf_result_tracks_no_object_per_row():
    # a kept result holds its rows in columns, so the collector's tracked
    # objects grow by a constant, not by the row count
    rng = random.Random(4096)
    ix = live(bytes(rng.randrange(4) for _ in range(4096)))
    gc.collect()
    before = len(gc.get_objects())
    rows = ix.all_nf()
    grown = len(gc.get_objects()) - before
    assert len(rows) > 1000 and grown < 64, (len(rows), grown)
