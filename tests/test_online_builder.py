"""Construction paths: per-symbol vs bulk, observer hooks, sealing."""

import random

import pytest

from netfreq import (
    ImplicitRegistry,
    NetFrequencyIndex,
    OnlineBuilder,
    TextStore,
    oracle_all_nf,
    oracle_nf,
)

HOOKS = ("leaf_added", "edge_split", "phase_ended")


def fresh():
    return NetFrequencyIndex()


def tree_state(ix):
    t = ix.tree
    b = ix.builder
    return (
        list(t.kind), list(t.parent), list(t.edge_start),
        [t.edge_span(u) for u in range(1, t.node_count())],
        list(t.depth_arr), list(t.slink_arr),
        [dict(m) if m else None for m in t.child_map],
        [dict(m) if m else None for m in t.wlink_map],
        b.active_node, b.active_edge, b.active_length, b.remainder,
        dict(ix.registry._member_node), dict(ix.registry._edge_members),
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
        a.registry._sync()
        b.registry._sync()
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
        a.registry._sync()
        b.registry._sync()
        assert tree_state(a) == tree_state(b)


class Forwarder:
    """Test-local observer: passes each hook call on to a target."""

    def __init__(self, target):
        self.target = target

    def leaf_added(self, leaf, parent, j):
        self.target.leaf_added(leaf, parent, j)

    def edge_split(self, old_child, new_node):
        self.target.edge_split(old_child, new_node)

    def phase_ended(self, n, c):
        self.target.phase_ended(n, c)


def test_event_stream_replays_into_equal_registry():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randrange(1, 80)
        text = bytes(rng.randrange(2) + 97 for _ in range(n))
        builder = OnlineBuilder(TextStore())
        shadow = ImplicitRegistry(builder.store, builder.tree)
        builder.registry = Forwarder(shadow)
        ix = fresh()
        for c in text:
            builder.extend(c)
            ix.extend(c)
        ix.registry._sync()
        shadow._sync()
        assert ix.registry._member_node == shadow._member_node
        assert ix.registry._edge_members == shadow._edge_members


class Recorder:
    """Checks each hook call's fields against the tree as it is called."""

    def __init__(self, builder, text):
        self.tree = builder.tree
        self.text = text
        self.seen = set()
        self.phases = 0

    def leaf_added(self, leaf, parent, j):
        self.seen.add("leaf_added")
        assert self.tree.is_leaf(leaf)
        assert self.tree.parent_of(leaf) == parent
        assert j >= 0

    def edge_split(self, old_child, new_node):
        self.seen.add("edge_split")
        assert self.tree.parent_of(old_child) == new_node
        assert self.tree.is_branching(new_node)

    def phase_ended(self, n, c):
        self.seen.add("phase_ended")
        self.phases += 1
        assert n == self.phases
        assert c == self.text[n - 1]


def test_event_types_carry_usable_fields():
    text = b"aabaabab"
    for bulk in (False, True):
        builder = OnlineBuilder(TextStore())
        rec = builder.registry = Recorder(builder, text)
        if bulk:
            builder.extend_text(text)
        else:
            for c in text:
                builder.extend(c)
        assert rec.seen == set(HOOKS)
        assert rec.phases == len(text)


def test_hooks_wrapped_on_the_registry_instance_see_every_call():
    # tooling wraps the hooks on a built index's registry instance; a
    # builder that cached the bound methods earlier would bypass them
    ix = fresh()
    ix.extend_text(b"ab")  # two leaves, no split, two phases
    calls = dict.fromkeys(HOOKS, 0)

    def counted(name, fn):
        def hook(*args):
            calls[name] += 1
            return fn(*args)
        return hook

    for name in HOOKS:
        setattr(ix.registry, name, counted(name, getattr(ix.registry, name)))
    ix.extend(ord("a"))
    assert calls["phase_ended"] == 1
    ix.extend_text(b"abaababa")
    assert calls["phase_ended"] == 9
    ix.extend(ord("b"))
    assert calls["phase_ended"] == 10
    ix.seal()
    assert calls == {"leaf_added": ix.tree.leaf_count() - 2,
                     "edge_split": ix.tree.branching_count(),
                     "phase_ended": len(ix) - 2}
    ix.registry.verify(ix.active_depth())


def test_remainder_equals_active_depth_between_phases():
    ix = fresh()
    for c in b"aabaabababaa":
        ix.extend(c)
        assert ix.builder.remainder == ix.active_depth()


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
    assert ix.registry.member_count() == 0
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


class HookFailure(Exception):
    pass


def test_failure_mid_phase_leaves_the_index_unusable():
    ix = fresh()
    leaf_added = ix.registry.leaf_added
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 5:
            raise HookFailure("fifth leaf")
        return leaf_added(*args)

    ix.registry.leaf_added = failing
    with pytest.raises(HookFailure):
        ix.extend_text(b"abcabxabcd")
    for op in (lambda: ix.extend(ord("a")), lambda: ix.extend_text(b"ab"),
               ix.seal, lambda: ix.single_nf(b"ab"), ix.all_nf):
        with pytest.raises(RuntimeError) as err:
            op()
        assert isinstance(err.value.__cause__, HookFailure)
    assert len(calls) == 5


def test_every_branching_node_gets_a_suffix_link():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randrange(1, 100)
        text = bytes(rng.randrange(3) + 97 for _ in range(n))
        ix = fresh()
        ix.extend_text(text)
        t = ix.tree
        for u in range(t.node_count()):
            if t.is_branching(u) and u != 0:
                assert t.slink(u) is not None


def test_standalone_builder_without_registry():
    store = TextStore()
    builder = OnlineBuilder(store)
    for c in b"banana":
        builder.extend(c)
    assert builder.tree.locate(b"ana").d == 3
    assert builder.active_depth() == 3
