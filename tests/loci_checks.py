"""Slow checks of the repeated-suffix view, shared by the tests.

The view's members() come from one walk down the suffix links from the
active point; these helpers check them against a descent from the root
and read the per-edge depths and the coinciding members off them.
"""

from netfreq import CLASS_COINCIDING, CLASS_EXTERNAL, CLASS_INTERNAL

CLASS_RANK = {CLASS_EXTERNAL: 0, CLASS_INTERNAL: 1, CLASS_COINCIDING: 2}


def check_loci(reg) -> None:
    """Assert that the view has one member per length 1 .. A, A the
    active depth, that each member's edge child is the locus a descent
    from the root (tree.locate) gives for that suffix, and that the
    classes run in chain order. O(A^2); for tests only."""
    syms = reg.store._symbols
    n = len(syms)
    members = reg.members()
    a = reg.builder.active_depth()
    assert [d for d, _s, _u, _c in members] == list(range(a, 0, -1)), members
    for d, start, u, _c in members:
        assert start == n - d + 1, (d, start)
        assert reg.tree.locate(syms[n - d:]).node == u, (d, u)
    ranks = [CLASS_RANK[c] for _d, _s, _u, c in members]
    assert ranks == sorted(ranks), f"chain segment order violated: {members}"


def edge_depths(members) -> dict[int, list[int]]:
    """Edge child -> the depths of the members on its edge, ascending.
    A depth equal to the child's own depth means the member ends exactly
    at that branching node."""
    out: dict[int, list[int]] = {}
    for d, _s, u, _c in reversed(members):
        out.setdefault(u, []).append(d)
    return out


def progression(depths):
    """(first, step, count) of ascending depths, None when there are
    none. Depths on one edge are always an arithmetic progression;
    a violation fails the assertion."""
    if not depths:
        return None
    if len(depths) == 1:
        return (depths[0], 0, 1)
    step = depths[1] - depths[0]
    assert all(b - a == step for a, b in zip(depths, depths[1:])), (
        f"non-arithmetic depths {depths}")
    return (depths[0], step, len(depths))


def longest_coinciding(members):
    """(node, depth) of the longest member ending exactly on a branching
    node, or None."""
    return next(((u, d) for d, _s, u, c in members if c == CLASS_COINCIDING), None)
