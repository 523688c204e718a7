"""The repeated suffixes read off the active point: membership, classes,
progressions."""

import random

from loci_checks import (
    check_loci,
    check_repeated_suffixes,
    edge_depths,
    longest_coinciding,
    progression,
)
from netfreq import CLASS_COINCIDING, CLASS_EXTERNAL, CLASS_INTERNAL, NetFrequencyIndex

ROOT = 0


def live(text):
    ix = NetFrequencyIndex()
    ix.extend_text(text)
    return ix


def test_worked_text_member_classes_in_chain_order():
    ix = live(b"aabaabababaa")
    got = [(depth, start, cls) for depth, start, _node, cls in ix.builder.repeated_suffixes()]
    assert got == [
        (4, 9, CLASS_EXTERNAL),
        (3, 10, CLASS_EXTERNAL),
        (2, 11, CLASS_INTERNAL),
        (1, 12, CLASS_COINCIDING),
    ]


def test_member_count_and_depths_are_contiguous():
    ix = live(b"aabaabababaa")
    assert ix.active_depth() == 4
    assert [m[0] for m in ix.builder.repeated_suffixes()] == [4, 3, 2, 1]


def test_run_text_leaf_edge_progression():
    ix = live(b"aaaa")
    child = ix.tree.child_map[ROOT].get(ord("a"))
    depths = edge_depths(ix.builder.repeated_suffixes())
    assert depths[child] == [1, 2, 3]
    assert progression(depths[child]) == (1, 1, 3)
    assert list(depths) == [child]


def test_unique_symbols_leave_every_edge_clean():
    ix = live(b"ab")
    assert ix.builder.repeated_suffixes() == []
    assert ix.active_depth() == 0
    assert edge_depths(ix.builder.repeated_suffixes()) == {}


def test_coincidence_at_branching_nodes():
    ix = live(b"aabaabababaa")
    loc = ix.tree.locate(b"a")
    assert loc.d == ix.tree.depth(loc.node)
    assert ix.registry.member_at_depth(loc.d) == loc.node
    assert longest_coinciding(ix.builder.repeated_suffixes()) == (loc.node, 1)
    # "ba" is not a suffix here, so its branching node does not coincide
    loc2 = ix.tree.locate(b"ba")
    assert loc2.d == ix.tree.depth(loc2.node) == 2
    assert ix.registry.member_at_depth(2) != loc2.node


def test_coincidence_requires_a_branching_node():
    ix = live(b"abab")
    loc = ix.tree.locate(b"ab")
    assert loc.node < 0  # a leaf
    members = ix.builder.repeated_suffixes()
    assert [(d, u, c) for d, _s, u, c in members][0] == (2, loc.node, CLASS_EXTERNAL)
    assert [c for _d, _s, _u, c in members] == [CLASS_EXTERNAL, CLASS_EXTERNAL]
    assert longest_coinciding(members) is None


def test_member_at_depth_lookup():
    ix = live(b"aabaabababaa")
    reg = ix.registry
    by_depth = {d: node for d, _s, node, _c in ix.builder.repeated_suffixes()}
    for d in range(1, 5):
        assert reg.member_at_depth(d) == by_depth[d]
    assert reg.member_at_depth(5) is None
    assert reg.member_at_depth(99) is None


def test_sealing_empties_the_registry():
    ix = live(b"aabaabababaa")
    ix.seal()
    assert ix.builder.repeated_suffixes() == []
    assert longest_coinciding(ix.builder.repeated_suffixes()) is None


def test_invariants_on_random_texts():
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randrange(1, 90)
        sigma = rng.choice((2, 3, 4))
        text = bytes(rng.randrange(sigma) + 97 for _ in range(n))
        check_repeated_suffixes(live(text), text)


def test_invariants_hold_after_every_extension():
    rng = random.Random(23)
    for _ in range(12):
        n = rng.randrange(2, 50)
        text = bytes(rng.randrange(2) + 97 for _ in range(n))
        ix = NetFrequencyIndex()
        for k in range(n):
            ix.extend(text[k])
            check_repeated_suffixes(ix, text[:k + 1])


def test_verify_after_every_extension():
    rng = random.Random(29)
    for _ in range(8):
        n = rng.randrange(1, 60)
        text = bytes(rng.randrange(2) + 97 for _ in range(n))
        ix = NetFrequencyIndex()
        for c in text:
            ix.extend(c)
            check_loci(ix.builder)


def test_recompute_matches_incremental_records():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randrange(1, 70)
        text = bytes(rng.randrange(3) + 97 for _ in range(n))
        check_loci(live(text).builder)


def test_queries_resync_after_more_text():
    # interleave queries with growth so stale records must be caught up
    ix = NetFrequencyIndex()
    rng = random.Random(37)
    text = bytes(rng.randrange(2) + 97 for _ in range(200))
    for k, c in enumerate(text):
        ix.extend(c)
        if k % 7 == 0:
            check_repeated_suffixes(ix, text[:k + 1])
    check_repeated_suffixes(ix, text)
