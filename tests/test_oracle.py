"""Sanity checks for the brute-force reference functions.

The oracles arbitrate every differential test in the suite, so their own
values are pinned here by hand before anything else relies on them.
"""

import pytest

from netfreq import naive_implicit_tree, oracle_all_nf, oracle_nf, oracle_repeated_suffixes


def test_worked_example_net_frequency():
    assert oracle_nf("rstkstcastarstast", "st", sealed=True) == 1


def test_net_frequency_needs_two_occurrences():
    assert oracle_nf("abc", "abc", sealed=True) == 0
    assert oracle_nf("abc", "z", sealed=True) == 0


def test_boundary_occurrences_count():
    # both occurrences of "a" in "aa" touch a text boundary, so the
    # one-sided extension clauses hold vacuously on that side
    assert oracle_nf("aa", "a") == 2
    assert oracle_nf("aa", "a", sealed=True) == 2
    # hand-derived: occurrence 1 is right-unique via "ab", occurrence 3
    # is left-unique via "ba", and each sits on one boundary
    assert oracle_nf("aba", "a") == 2


def test_sealing_never_changes_marker_free_values():
    # the boundary clauses at i=1 and j=n hold vacuously unsealed and are
    # satisfied by the unique end marker sealed, so the two modes agree on
    # any query free of the marker
    texts = ("abxabyab", "aabaabababaa", "aaaa", "mississippi", "abcab")
    for text in texts:
        subs = {text[i:j] for i in range(len(text)) for j in range(i + 1, len(text) + 1)}
        for s in subs:
            assert oracle_nf(text, s, sealed=False) == oracle_nf(text, s, sealed=True)
    assert oracle_nf("abxabyab", "ab") == 3


def test_all_nf_matches_single_nf_per_string():
    for text in ("aabaabababaa", "rstkstcastarstast", "mississippi"):
        for sealed in (False, True):
            rows = oracle_all_nf(text, sealed=sealed)
            assert rows == sorted(rows, key=lambda p: (len(p[0]), p[0]))
            for syms, nf in rows:
                assert nf >= 1
                assert oracle_nf(text, syms, sealed=sealed) == nf


def test_all_nf_worked_example_rows():
    rows = oracle_all_nf("aabaabababaa", sealed=True)
    decoded = {"".join(map(chr, s)): nf for s, nf in rows}
    assert decoded == {"aaba": 2, "abaa": 2, "ababa": 2}


def test_repeated_suffixes_longest_first():
    got = oracle_repeated_suffixes("aabaabababaa")
    assert [(length, "".join(map(chr, s))) for length, s in got] == [
        (4, "abaa"), (3, "baa"), (2, "aa"), (1, "a"),
    ]
    assert oracle_repeated_suffixes("ab") == []
    assert oracle_repeated_suffixes("aaaa") == [
        (3, (97, 97, 97)), (2, (97, 97)), (1, (97,)),
    ]


def test_repeated_suffixes_max_length_hint_is_a_cap():
    full = oracle_repeated_suffixes("abababab")
    capped = oracle_repeated_suffixes("abababab", max_length=3)
    assert capped == [p for p in full if p[0] <= 3]


def test_naive_tree_shapes():
    # two leaves under the root, labels spelled out
    assert naive_implicit_tree("ab") == (
        (), (((97, 98), ()), ((98,), ())),
    )
    # a run collapses to a single root edge
    assert naive_implicit_tree("aaa") == ((), (((97, 97, 97), ()),))
    root = naive_implicit_tree("aabaabababaa")
    assert root[0] == ()
    assert len(root[1]) == 2  # first symbols a and b


def test_non_integer_symbols_are_rejected_not_truncated():
    # int() would read [0, 1.5] as [0, 1]; the index raises on the same
    # text, so a differential test must never see two different texts
    assert oracle_nf([0, 1, 0, 1], [True]) == oracle_nf([0, 1, 0, 1], [1])
    with pytest.raises(TypeError):
        oracle_nf([0, 1.5, 0, 1], [0])
    with pytest.raises(TypeError):
        oracle_all_nf([0, 1.5])
    with pytest.raises(TypeError):
        oracle_nf([0, 1, 0, 1], [1.0])
