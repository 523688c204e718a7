"""Checks of the node arena, shared by the tests.

Branching nodes have dense ids 1 .. len(lstart) - 1 (0 is the root) and
store their leftmost start, depth, suffix link and children; the leaf of
the suffix starting at 0-based p has id ~p and one stored field,
leaf_parent[p].
"""


def edge_span(tree, u) -> tuple[int, int]:
    """u's incoming edge label as 1-based (start, end), cut from the
    leftmost occurrence of str(u) at start(u): it runs from the parent's
    depth to u's own, so an open leaf edge ends at the text length."""
    s = tree.start(u)
    return (s + tree.depth(tree.parent_of(u)), s - 1 + tree.depth(u))


def subtree_leaf_count(tree, u) -> int:
    """Leaves in the subtree rooted at u (u itself counts if a leaf)."""
    total = 0
    stack = [u]
    while stack:
        v = stack.pop()
        if v < 0:
            total += 1
        else:
            stack.extend(tree.child_map[v].values())
    return total


def node_ids(tree) -> list[int]:
    """Every node id but the root's: branching ids, then leaf ids."""
    return list(range(1, len(tree.lstart))) + [~p for p in range(tree.leaf_count())]


def check_arena(tree) -> None:
    """Assert the arena contract: every child value is a branching id in
    range or a leaf id ~p with p < leaf_count(); each leaf hangs, under
    its edge's first symbol, from the node leaf_parent names; and a
    leaf's depth and start follow from p alone. Every branching v stores
    in lstart the first occurrence of str(v), found here by a plain list
    search, and its derived parent is shallower and holds v as a child."""
    n = len(tree.store)
    branching = len(tree.lstart)
    leaves = tree.leaf_count()
    columns = (tree.lstart, tree.depth_arr, tree.slink_arr, tree.child_map)
    assert all(len(col) == branching for col in columns)
    assert tree.node_count() == branching + leaves
    seen = set()
    for u in range(branching):
        for y, v in tree.child_map[u].items():
            assert 0 < v < branching or 0 <= ~v < leaves, (u, y, v)
            assert v not in seen, v
            seen.add(v)
            assert tree.parent_of(v) == u, (u, v)
            assert tree.store._symbols[edge_span(tree, v)[0] - 1] == y, (u, y, v)
    assert len(seen) == branching - 1 + leaves
    for p, u in enumerate(tree.leaf_parent):
        assert ~p in tree.child_map[u].values(), (p, u)
        assert tree.depth(~p) == n - p, p
        assert tree.start(~p) == p + 1, p
    syms = tree.store._symbols
    for v in range(1, branching):
        # str(v) spelled from a leaf below v, not from lstart
        d = tree.depth_arr[v]
        w = v
        while w >= 0:
            w = next(iter(tree.child_map[w].values()))
        s = syms[~w:~w + d]
        assert tree.lstart[v] == next(i for i in range(n) if syms[i:i + d] == s), v
        u = tree.parent_of(v)
        assert tree.depth(u) < d and v in tree.child_map[u].values(), (v, u)
