"""Tree navigation, the leaf arena, sealing, links, and canonical-form checks."""

import itertools
import random

import pytest

from arena_checks import check_arena, edge_span, node_ids, subtree_leaf_count
from netfreq import (
    NetFrequencyIndex,
    OnlineBuilder,
    SuffixTree,
    TextStore,
    naive_implicit_tree,
    oracle_repeated_suffixes,
)

ROOT = 0


def build(text, sealed=False):
    ix = NetFrequencyIndex()
    ix.extend_text(text)
    if sealed:
        ix.seal()
    return ix.tree


def test_empty_tree_is_root_only():
    store = TextStore()
    tree = SuffixTree(store)
    assert tree.node_count() == 1
    assert tree.depth(ROOT) == 0
    assert list(tree.children(ROOT)) == []


def test_sealed_leaf_counts():
    # one leaf per suffix of text + marker, frozen by hand
    assert build(b"aabaabababaa", sealed=True).leaf_count() == 13
    assert build(b"rstkstcastarstast", sealed=True).leaf_count() == 18


def test_locate_walks_edges_and_reports_depth():
    tree = build(b"aabaabababaa")
    loc = tree.locate(b"aba")
    assert loc is not None and loc.d == 3
    assert tree.locate(b"aabaabababaa").d == 12
    assert tree.locate(b"zz") is None
    assert tree.locate(b"abz") is None
    with pytest.raises(ValueError):
        tree.locate(b"")


def test_locate_matches_brute_force():
    # every string of length <= 4 over the text's symbols plus one absent
    # symbol, so mismatches fall inside open leaf edges and branching edges
    rng = random.Random(23)
    for _ in range(40):
        sigma = rng.choice((2, 3, 4))
        text = bytes(rng.randrange(sigma) + 97 for _ in range(rng.randrange(1, 40)))
        symbols = sorted(set(text)) + [ord("z")]
        queries = [bytes(q) for k in range(1, 5)
                   for q in itertools.product(symbols, repeat=k)]
        for sealed in (False, True):
            tree = build(text, sealed)
            for q in queries:
                loc = tree.locate(q)
                if q not in text:
                    assert loc is None, (text, q)
                    continue
                assert loc is not None and loc.d == len(q), (text, q)
                i = tree.start(loc.node)
                assert text[i - 1:i - 1 + len(q)] == q, (text, q)


def _queries_near_substrings(text, rng, sigma):
    # substrings; each with one symbol changed, at every position, so that
    # a mismatch can fall anywhere inside an edge, past every branching
    # symbol; the suffix from the same start run one symbol past the end
    # of the text; and strings over a symbol the text lacks
    symbols = range(97, 97 + sigma)
    for _ in range(12):
        i = rng.randrange(len(text))
        q = text[i:i + rng.randrange(1, 41)]
        yield q
        for k in range(len(q)):
            for c in symbols:
                if c != q[k]:
                    yield q[:k] + bytes([c]) + q[k + 1:]
        for c in symbols:
            yield text[i:] + bytes([c])
    for k in (1, 2, 5):
        yield b"z" * k


def test_locate_rejects_mismatches_anywhere_in_an_edge():
    rng = random.Random(29)
    for _ in range(24):
        sigma = rng.choice((2, 3, 4))
        text = bytes(rng.randrange(sigma) + 97 for _ in range(rng.randrange(1, 201)))
        queries = list(_queries_near_substrings(text, rng, sigma))
        for sealed in (False, True):
            tree = build(text, sealed)
            for q in queries:
                loc = tree.locate(q)
                if q not in text:
                    assert loc is None, (text, q, sealed)
                    continue
                assert loc is not None, (text, q, sealed)
                u, d = loc
                assert d == len(q), (text, q, sealed)
                assert tree.depth(tree.parent_of(u)) < d <= tree.depth(u), (text, q, sealed)
                i = tree.start(u)
                assert text[i - 1:i - 1 + d] == q, (text, q, sealed)


def _path(tree, v):
    # str(v): the slice at its leftmost start, depth(v) symbols long
    i = tree.start(v) - 1 if v != ROOT else 0
    return tuple(tree.store._symbols[i:i + tree.depth(v)])


def _weiner_links(tree):
    # Weiner links are not stored; they are the suffix links read
    # backwards, keyed by the symbol the source node adds on the left,
    # and (u, x) names at most one node
    links = {}
    for w in range(1, len(tree.lstart)):
        key = (tree.slink_arr[w], _path(tree, w)[0])
        assert key not in links, (key, links[key], w)
        links[key] = w
    return links


def test_root_weiner_links_reach_the_depth_one_branching_nodes():
    # str(v) = x + str(root) for a branching v of depth 1; no other node
    # has a suffix link to the root
    for n in range(1, 7):
        for t in itertools.product(b"abc", repeat=n):
            text = bytes(t)
            for sealed in (False, True):
                tree = build(text, sealed)
                links = _weiner_links(tree)
                for x in b"abcz":
                    v = tree.child_map[ROOT].get(x)
                    want = v if v is not None and v > 0 and tree.depth(v) == 1 else None
                    assert links.get((ROOT, x)) == want, (text, sealed, x)
                assert sorted((x, w) for (u, x), w in links.items() if u == ROOT) == [
                    (x, v) for x, v in tree.children(ROOT)
                    if v > 0 and tree.depth(v) == 1], (text, sealed)


def test_weiner_links_mirror_suffix_links():
    tree = build(b"rstkstcastarstast", sealed=True)
    seen = 0
    for (u, x), w in _weiner_links(tree).items():
        seen += 1
        assert tree.slink_arr[w] == u
        assert tree.depth(w) == tree.depth(u) + 1
        # str(w) = x + str(u)
        path_w = _path(tree, w)
        assert path_w[0] == x
        assert path_w[1:] == _path(tree, u)
    assert seen >= 1


def _fibonacci_word(n):
    a, b = b"a", b"ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _arena_texts():
    rng = random.Random(19)
    for sigma in (2, 3, 4, 26):
        for _ in range(6):
            yield bytes(rng.randrange(sigma) + 97 for _ in range(rng.randrange(1, 60)))
    for period in (1, 2, 3, 5):
        block = bytes(rng.randrange(3) + 97 for _ in range(period))
        yield (block * (50 // period + 1))[:50]
    yield _fibonacci_word(89)


def test_arena_contract_after_every_append_and_sealed():
    # leaves are ~p with one leaf_parent slot; every child value is a
    # branching id in range or such a leaf, live after each append and
    # once sealed
    for text in _arena_texts():
        ix = NetFrequencyIndex()
        for c in text:
            ix.extend(c)
            check_arena(ix.tree)
        assert ix.tree.leaf_count() == len(text) - ix.active_depth()
        ix.seal()
        check_arena(ix.tree)
        assert ix.tree.leaf_count() == len(text) + 1


def _check_left_extension_leaves(tree):
    # the fact that replaces the Weiner links: when the leaf of suffix
    # p - 1 hangs deeper than the parent u of leaf ~p (depth d), it hangs
    # at depth d + 1, under the same symbol, from the node x str(u) whose
    # suffix link is u
    deeper = 0
    for u in range(len(tree.lstart)):
        d = tree.depth(u)
        for y, v in tree.children(u):
            if v >= 0 or v == ~0:  # a branching child, or the leaf of suffix 0
                continue
            w = tree.parent_of(v + 1)  # leaf ~(p - 1) is ~p + 1
            if tree.depth(w) > d:
                deeper += 1
                assert tree.depth(w) == d + 1, (u, v)
                assert tree.slink_arr[w] == u, (u, v)
                assert tree.child_map[w].get(y) == v + 1, (u, v)
    return deeper


def test_left_extension_leaf_hangs_from_the_suffix_link_source():
    deeper = 0
    for n in range(1, 7):
        for t in itertools.product(b"abc", repeat=n):
            deeper += _check_left_extension_leaves(build(bytes(t), sealed=True))
    deeper += _check_left_extension_leaves(build(b"rstkstcastarstast", sealed=True))
    for text in _arena_texts():
        deeper += _check_left_extension_leaves(build(text, sealed=True))
    assert deeper > 1000


def test_edge_labels_and_depths_are_consistent():
    tree = build(b"aabaabababaa", sealed=True)
    for u in node_ids(tree):
        p = tree.parent_of(u)
        i, j = edge_span(tree, u)
        assert 1 <= i <= j
        assert tree.depth(u) == tree.depth(p) + (j - i + 1)
        # the edge's first symbol is the child key under the parent
        assert tree.child_map[p].get(tree.store._symbols[i - 1]) == u


def test_suffix_links_drop_one_symbol():
    tree = build(b"aabaabababaa", sealed=True)
    for u in range(1, len(tree.lstart)):
        v = tree.slink_arr[u]
        assert v >= 0
        assert tree.depth(v) == tree.depth(u) - 1
        # spell both paths and compare tails
        assert _path(tree, u)[1:] == _path(tree, v)


def test_subtree_leaf_count_equals_frequency():
    text = b"aabaabababaa"
    tree = build(text, sealed=True)
    for s in (b"a", b"ab", b"aba", b"baa", b"aabaa"):
        loc = tree.locate(s)
        f = sum(1 for i in range(len(text) - len(s) + 1) if text[i:i + len(s)] == s)
        if loc is None:
            assert f == 0
        else:
            assert subtree_leaf_count(tree, loc.node) == f


def _check_starts_are_leftmost(tree):
    # str(u) spelled from the edge labels on its root path, so it does
    # not depend on the start() arithmetic under test
    text = bytes(tree.store._symbols)
    spelled = {ROOT: b""}
    stack = [ROOT]
    while stack:
        u = stack.pop()
        for _y, v in tree.children(u):
            s, e = edge_span(tree, v)
            spelled[v] = spelled[u] + text[s - 1:e]
            stack.append(v)
    assert len(spelled) == tree.node_count()
    for u in node_ids(tree):
        assert tree.start(u) == text.find(spelled[u]) + 1, (text, u)


def _texts_for_leftmost_starts():
    for n in range(1, 11):
        for bits in range(1 << n):
            yield 2, [(bits >> k) & 1 for k in range(n)]
    rng = random.Random(7)
    for sigma in (2, 3, 4, 26):
        for _ in range(25):
            yield sigma, [rng.randrange(sigma) for _ in range(rng.randrange(1, 200))]
    for k in (1, 2, 5, 40, 150):
        yield 2, [0] * k + [1]
        yield 3, [0] * k + [1] * k + [0] * k
    for period in range(1, 9):
        block = [rng.randrange(4) for _ in range(period)]
        yield 4, (block * (160 // period + 1))[:160]
        yield 4, block * 6 + [rng.randrange(4)] + block * 6


def test_start_is_the_leftmost_occurrence():
    for sigma, text in _texts_for_leftmost_starts():
        builder = OnlineBuilder(TextStore(sigma))
        builder.extend_text(text)
        _check_starts_are_leftmost(builder.tree)
        builder.seal()
        _check_starts_are_leftmost(builder.tree)


def test_canonical_form_matches_naive_construction():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 50)
        sigma = rng.choice((2, 3, 5))
        text = bytes(rng.randrange(sigma) + 97 for _ in range(n))
        assert build(text).canonical_form() == naive_implicit_tree(text)


def test_active_depth_tracks_longest_repeated_suffix():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randrange(1, 80)
        text = bytes(rng.randrange(2) + 97 for _ in range(n))
        ix = NetFrequencyIndex()
        longest = 0
        for k, c in enumerate(text, 1):
            ix.extend(c)
            reps = oracle_repeated_suffixes(text[:k], max_length=longest + 1)
            longest = reps[0][0] if reps else 0
            assert ix.active_depth() == longest


def test_dump_lists_every_node():
    tree = build(b"aabaabababaa")
    out = tree.dump()
    assert len(out.strip().splitlines()) == tree.node_count()
