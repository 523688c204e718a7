"""Slow checks of the repeated suffixes, shared by the tests.

OnlineBuilder.repeated_suffixes() comes from one walk down the suffix
links from the active point; these helpers check it against a descent
from the root and read the per-edge depths and the coinciding suffixes
off it.
"""

from netfreq import CLASS_COINCIDING, CLASS_EXTERNAL, CLASS_INTERNAL, oracle_repeated_suffixes

CLASS_RANK = {CLASS_EXTERNAL: 0, CLASS_INTERNAL: 1, CLASS_COINCIDING: 2}


def check_loci(builder) -> None:
    """Assert that the builder lists one repeated suffix per length
    1 .. A, A the active depth, that each one's edge child is the locus a
    descent from the root (tree.locate) gives for that suffix, and that
    the classes run in chain order. O(A^2); for tests only."""
    syms = builder.store._symbols
    n = len(syms)
    members = builder.repeated_suffixes()
    a = builder.active_depth()
    assert [d for d, _s, _u, _c in members] == list(range(a, 0, -1)), members
    for d, start, u, _c in members:
        assert start == n - d + 1, (d, start)
        assert builder.tree.locate(syms[n - d:]).node == u, (d, u)
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


def check_repeated_suffixes(ix, text, hint=None) -> int:
    """Assert the repeated suffixes of ix against the scanning oracle
    over text (the same set), their chain order (class segments in
    CLASS_RANK order, depths descending), and their spread over edges:
    at most one member on an internal edge, between the endpoint depths;
    on a leaf edge an ascending arithmetic progression that starts above
    the parent; every edge child one of node_ids(tree). O(members) apart
    from the oracle's scan, which hint caps: the longest repeated suffix
    grows by at most one per appended symbol, so the last length + 1 is
    always safe. Returns the cap for the next prefix."""
    tree = ix.tree
    n = len(text)
    members = ix.builder.repeated_suffixes()
    got = {(d, s) for d, s, _u, _c in members}
    expect = {(length, n - length + 1) for length, _sym in
              oracle_repeated_suffixes(text, max_length=hint)}
    assert got == expect, (text, got, expect)
    ranks = [CLASS_RANK[c] for _d, _s, _u, c in members]
    assert ranks == sorted(ranks), text
    depths = [m[0] for m in members]
    assert depths == sorted(depths, reverse=True), text
    for u, ds in edge_depths(members).items():
        # u is in node_ids(tree): a branching id past the root, or a leaf
        assert 0 < u < len(tree.lstart) or 0 <= ~u < tree.leaf_count(), (text, u)
        top = tree.depth(tree.parent_of(u))
        if u > 0:
            assert len(ds) <= 1 and top < ds[0] <= tree.depth(u), (text, u)
        else:
            first, step, count = progression(ds)
            assert count == len(ds) and first == ds[0] and first > top, (text, u)
            assert all(ds[k] == first + step * k for k in range(count)), (text, u)
            assert ds == sorted(ds), (text, u)
    return (depths[0] if depths else 0) + 1
