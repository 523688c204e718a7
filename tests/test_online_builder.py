"""Construction paths: per-symbol vs bulk, the active point, failures, sealing."""

import random

import pytest

from arena_checks import node_ids
from loci_checks import check_loci
from netfreq import (
    NetFrequencyIndex,
    OnlineBuilder,
    TextStore,
    online_all_nf,
    online_single_nf,
    oracle_all_nf,
    oracle_nf,
    oracle_repeated_suffixes,
)
from netfreq.suffix_tree import NIL


def fresh():
    return NetFrequencyIndex()


def tree_state(ix):
    t = ix.tree
    b = ix.builder
    return (
        list(t.lstart),
        [(t.parent_of(u), t.edge_span(u)) for u in node_ids(t)],
        list(t.depth_arr), list(t.slink_arr),
        [dict(m) for m in t.child_map], list(t.leaf_parent),
        b.active_node, b.active_edge, b.active_length,
        b.repeated_suffixes(),
    )


def test_bulk_and_per_symbol_builds_agree():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(1, 120)
        sigma = rng.choice((2, 3, 4))
        text = bytes(rng.randrange(sigma) + 97 for _ in range(n))
        a = fresh()
        a.extend_text(text)
        b = fresh()
        for c in text:
            b.extend(c)
        assert tree_state(a) == tree_state(b)


def test_mixed_bulk_segments_agree_with_per_symbol():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(2, 100)
        text = bytes(rng.randrange(2) + 97 for _ in range(n))
        cut = rng.randrange(1, n)
        a = fresh()
        a.extend_text(text[:cut])
        a.extend(text[cut])
        a.extend_text(text[cut + 1:])
        b = fresh()
        b.extend_text(text)
        assert tree_state(a) == tree_state(b)


def test_event_stream_replays_into_equal_registry():
    # the repeated suffixes of a bare builder fed the same stream agree
    # with the index's after every append
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randrange(1, 80)
        text = bytes(rng.randrange(2) + 97 for _ in range(n))
        builder = OnlineBuilder(TextStore())
        ix = fresh()
        for c in text:
            builder.extend(c)
            ix.extend(c)
            assert ix.builder.repeated_suffixes() == builder.repeated_suffixes()
        check_loci(builder)


def longest_repeated(codes):
    repeated = oracle_repeated_suffixes(codes)
    return repeated[0][0] if repeated else 0


def test_active_depth_is_the_longest_repeated_suffix_after_every_update():
    rng = random.Random(11)
    texts = [b"aabaabab", b"abcabxabcd", b"aaaa"]
    texts += [bytes(rng.randrange(3) + 97 for _ in range(rng.randrange(1, 40)))
              for _ in range(10)]
    for text in texts:
        for bulk in (False, True):
            builder = OnlineBuilder(TextStore())
            k = 0
            while k < len(text):
                step = rng.randrange(1, 6) if bulk else 1
                if bulk:
                    builder.extend_text(text[k:k + step])
                else:
                    builder.extend(text[k])
                k = min(len(text), k + step)
                assert len(builder.store) == k
                assert builder.store._symbols[k - 1] == text[k - 1]
                assert builder.active_depth() == longest_repeated(text[:k])
            builder.seal()
            assert builder.store._symbols[-1] == builder.store.sentinel
            assert builder.active_depth() == 0


def test_registry_view_reads_the_current_text_after_every_update():
    # nothing about the repeated suffixes is kept between calls, so every
    # update, bulk or not, shows in the next read
    ix = fresh()
    done = b""
    for part in (b"ab", b"a", b"abaababa", b"b"):
        if len(part) == 1:
            ix.extend(part[0])
        else:
            ix.extend_text(part)
        done += part
        assert ix.active_depth() == longest_repeated(done)
        assert [m[0] for m in ix.builder.repeated_suffixes()] == list(
            range(longest_repeated(done), 0, -1))
        check_loci(ix.builder)
    ix.seal()
    assert ix.builder.repeated_suffixes() == []
    check_loci(ix.builder)


def test_worked_text_active_depth_and_nodes():
    ix = fresh()
    ix.extend_text(b"aabaabababaa")
    assert ix.active_depth() == 4
    assert ix.node_count() == 15


def test_seal_flushes_pending_suffixes():
    ix = fresh()
    ix.extend_text(b"aabaabababaa")
    ix.seal()
    assert ix.sealed
    assert ix.active_depth() == 0
    assert ix.tree.leaf_count() == 13
    assert ix.builder.repeated_suffixes() == []
    with pytest.raises(ValueError):
        ix.extend(ord("a"))
    with pytest.raises(ValueError):
        ix.seal()


def test_builder_rejects_symbols_outside_alphabet():
    ix = NetFrequencyIndex(alphabet_size=2)
    ix.extend(0)
    ix.extend(1)
    with pytest.raises(ValueError):
        ix.extend(2)
    with pytest.raises(ValueError):
        ix.extend_text([0, 1, 5])
    # the batch is rejected whole, and the index stays usable
    assert len(ix) == 2
    ix.extend_text([0, 1])
    assert ix.single_nf([0, 1]) == oracle_nf([0, 1, 0, 1], [0, 1]) == 2


def test_builder_rejects_non_integer_symbols():
    ix = NetFrequencyIndex(alphabet_size=4)
    ix.extend(1)
    ix.extend(True)  # a bool is stored as the int it equals
    with pytest.raises(TypeError):
        ix.extend(1.5)
    with pytest.raises(TypeError):
        ix.extend_text([0, 1.7, 2])
    with pytest.raises(TypeError):
        ix.extend_text(["1", "2"])
    with pytest.raises(TypeError):
        ix.single_nf([1.5])
    # nothing of a rejected symbol or batch was appended
    assert len(ix) == 2
    assert [type(c) for c in ix.store._symbols] == [int, int]
    ix.extend_text([0, 1, 1])
    text = [1, 1, 0, 1, 1]
    assert ix.single_nf([1, 1]) == oracle_nf(text, [1, 1])
    ix.seal()
    rows = {(tuple(text[r.occurrence.i - 1:r.occurrence.j]), r.nf) for r in ix.all_nf()}
    assert rows == set(map(tuple, oracle_all_nf(text, sealed=True)))


class ArenaFailure(Exception):
    pass


class FailingLeaves(list):
    """Leaf column of the arena (one slot per leaf) whose fifth append
    raises."""

    calls = 0

    def append(self, item):
        self.calls += 1
        if self.calls == 5:
            raise ArenaFailure("fifth leaf")
        super().append(item)


def test_failure_mid_phase_leaves_the_index_unusable():
    ix = fresh()
    leaves = ix.tree.leaf_parent = FailingLeaves(ix.tree.leaf_parent)
    with pytest.raises(ArenaFailure):
        ix.extend_text(b"abcabxabcd")
    for op in (lambda: ix.extend(ord("a")), lambda: ix.extend_text(b"ab"),
               ix.seal, lambda: ix.single_nf(b"ab"), ix.all_nf, ix.stats):
        with pytest.raises(RuntimeError) as err:
            op()
        assert isinstance(err.value.__cause__, ArenaFailure)
    assert leaves.calls == 5


def test_failure_mid_phase_stops_every_read_below_the_facade():
    # "abcabxabca" fails at its fifth leaf, in the phase of "x": left
    # alone, the reads below would answer from the stale active point
    # ("abca" 0 where the text gives 2, the row "ab" with nf 2 where the
    # text has "ab" 1 and "abca" 2, active depth 0 where it is 4), and
    # the tree dump would meet a leaf id with no leaf_parent slot
    ix = fresh()
    ix.tree.leaf_parent = FailingLeaves(ix.tree.leaf_parent)
    with pytest.raises(ArenaFailure):
        ix.extend_text(b"abcabxabca")
    assert oracle_nf(b"abcabxabca", b"abca") == 2
    reg = ix.registry
    for op in (lambda: online_single_nf(ix.builder, b"abca"),
               lambda: online_all_nf(ix.builder), ix.builder.repeated_suffixes,
               ix.active_locus, ix.active_depth, ix.node_count, ix.dump_tree,
               reg.member_count, lambda: reg.member_at_depth(1)):
        with pytest.raises(RuntimeError) as err:
            op()
        assert isinstance(err.value.__cause__, ArenaFailure)


def test_every_branching_node_gets_a_suffix_link():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randrange(1, 100)
        text = bytes(rng.randrange(3) + 97 for _ in range(n))
        ix = fresh()
        ix.extend_text(text)
        t = ix.tree
        for u in range(1, len(t.lstart)):
            assert t.slink(u) != NIL, (text, u)
            assert t.depth(t.slink(u)) == t.depth(u) - 1, (text, u)


def test_standalone_builder_without_registry():
    store = TextStore()
    builder = OnlineBuilder(store)
    for c in b"banana":
        builder.extend(c)
    assert builder.tree.locate(b"ana").d == 3
    assert builder.active_depth() == 3
