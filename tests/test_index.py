"""Facade behavior: dispatch across sealing, dumps, stats, compound queries."""

import random

import pytest

from netfreq import Locus, NetFrequencyIndex, oracle_nf, oracle_repeated_suffixes


def test_starts_empty():
    ix = NetFrequencyIndex()
    assert len(ix) == 0
    assert not ix.sealed
    assert ix.active_locus() == Locus(0, 0)
    assert ix.active_depth() == 0
    assert ix.node_count() == 1
    assert ix.all_nf() == []


def test_len_counts_marker_after_seal():
    ix = NetFrequencyIndex()
    ix.extend_text(b"abc")
    assert len(ix) == 3
    ix.seal()
    assert len(ix) == 4


def test_single_nf_dispatches_on_sealed_state():
    text = b"aabaabababaa"
    ix = NetFrequencyIndex()
    ix.extend_text(text)
    live_value = ix.single_nf(b"abaa")
    ix.seal()
    assert ix.single_nf(b"abaa") == live_value == 2
    assert ix.single_nf("abaa") == 2


def test_all_nf_dispatches_on_sealed_state():
    text = b"aabaabababaa"
    ix = NetFrequencyIndex()
    ix.extend_text(text)
    before = [(r.occurrence, r.nf) for r in ix.all_nf()]
    ix.seal()
    after = [(r.occurrence, r.nf) for r in ix.all_nf()]
    assert before == after


def test_queries_between_extensions():
    ix = NetFrequencyIndex()
    text = b"abracadabra"
    for k, c in enumerate(text, 1):
        ix.extend(c)
        assert ix.single_nf(b"a") == oracle_nf(text[:k], b"a")
        assert ix.single_nf(b"abra") == oracle_nf(text[:k], b"abra")


def test_extend_text_accepts_str():
    ix = NetFrequencyIndex()
    ix.extend_text("banana")
    assert ix.single_nf("ana") == oracle_nf("banana", "ana")
    assert len(ix) == 6


def test_dumps_are_printable():
    ix = NetFrequencyIndex()
    ix.extend_text(b"aabaabababaa")
    assert len(ix.dump_tree().splitlines()) == ix.node_count()


def test_rejects_queries_on_empty_index():
    ix = NetFrequencyIndex()
    assert ix.single_nf(b"a") == 0
    with pytest.raises(ValueError):
        ix.single_nf(b"")


def test_stats_are_derived_from_the_text():
    rng = random.Random(61)
    for _ in range(20):
        text = bytes(rng.randrange(rng.choice((2, 3, 4))) + 97 for _ in range(rng.randrange(1, 60)))
        ix = NetFrequencyIndex()
        for k, c in enumerate(text, 1):
            ix.extend(c)
            st = ix.stats()
            reps = oracle_repeated_suffixes(text[:k])
            a = reps[0][0] if reps else 0
            assert (st["n"], st["active_depth"], st["leaves"]) == (k, a, k - a)
            assert st["nodes"] == 1 + st["branching"] + st["leaves"] == ix.node_count()
            assert st["external"] + st["internal"] + st["coinciding"] == a
            classes = [c for _d, _s, _u, c in ix.builder.repeated_suffixes()]
            for cls in ("external", "internal", "coinciding"):
                assert st[cls] == classes.count(cls)
            assert (st["branch_rows"], st["leaf_rows"]) == (st["branching"] + 1, st["leaves"])
        ix.seal()
        st = ix.stats()
        assert (st["n"], st["active_depth"], st["leaves"]) == (len(text) + 1, 0, len(text) + 1)
        assert st["external"] == st["internal"] == st["coinciding"] == 0
