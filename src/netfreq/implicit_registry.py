"""The loci of all repeated suffixes of the growing text, read off the
active point.

Every repeated suffix ends at an implicit node: a point (child, d) on
the edge into `child` at string depth d. The repeated suffixes are
exactly the suffixes of the active string (the longest one), of lengths
1 .. A, A the active depth, and nothing needs to be stored to find
them: suffix_loci() walks from the active point down the chain of
shorter suffixes, as Ukkonen's update does, taking the suffix link (at
the root, dropping one symbol) and then skip/count down. That is O(A)
amortized for the whole chain.

ImplicitRegistry is a read-only view over that walk, computed on demand
at every call. The counts in nf_query need none of it for a single
query (the active depth and the leftmost start of the active string
suffice) and one walk for all_nf; the view serves inspection
(NetFrequencyIndex.dump_registry), the benchmark's tracer and the tests.
Like the queries, every read raises RuntimeError once an update has
failed mid-phase.
"""

from __future__ import annotations

from .online_builder import OnlineBuilder
from .suffix_tree import KIND_BRANCH, KIND_LEAF, ROOT

CLASS_EXTERNAL = "external"
CLASS_INTERNAL = "internal"
CLASS_COINCIDING = "coinciding"

_CLASS_RANK = {CLASS_EXTERNAL: 0, CLASS_INTERNAL: 1, CLASS_COINCIDING: 2}


def suffix_loci(builder: OnlineBuilder) -> list[int]:
    """Edge child of the locus of every repeated suffix, longest first:
    entry i is for the suffix of length A - i. A locus exactly at a
    branching node has that node as its edge child.

    Starts at the active point and keeps (node, edge, length) with
    str(node) + text[edge:edge + length] the current suffix. Between
    suffixes it takes the suffix link of node, or drops the first symbol
    at the root, then moves down while the point is at or past the end
    of the edge below (a leaf edge is open, so it never is). Node depth
    drops by at most one per suffix link, so the moves down total O(A)."""
    builder.ensure_usable()
    tree = builder.tree
    syms = builder.store._symbols
    child_map = tree.child_map
    depth_arr = tree.depth_arr
    slink_arr = tree.slink_arr
    node = builder.active_node
    edge = builder.active_edge
    length = builder.active_length
    out = []
    for _ in range(builder.active_depth()):
        while length:
            v = child_map[node][syms[edge]]
            dv = depth_arr[v]
            elen = dv - depth_arr[node]
            if not dv or length < elen:
                break
            node = v
            edge += elen
            length -= elen
        out.append(child_map[node][syms[edge]] if length else node)
        if node == ROOT:
            edge += 1
            length -= 1
        else:
            node = slink_arr[node]
    return out


class ImplicitRegistry:
    """Read-only view of the repeated suffixes of the builder's text:
    their number, loci and classes, each computed when asked.

    _member_node and _edge_members are snapshots of the loci (start ->
    edge child, ascending starts; edge child -> ascending starts).

    verify() checks the walk against a descent from the root for every
    member; it is for tests, far too slow for real use.
    """

    def __init__(self, builder: OnlineBuilder):
        self.builder = builder
        self.store = builder.store
        self.tree = builder.tree

    @property
    def _member_node(self) -> dict[int, int]:
        """Snapshot: start -> edge child of its locus, ascending starts."""
        n = len(self.store)
        a = self.builder.active_depth()
        return {n - a + i: u for i, u in enumerate(suffix_loci(self.builder))}

    @property
    def _edge_members(self) -> dict[int, list[int]]:
        """Snapshot: edge child -> its members' starts, ascending."""
        out: dict[int, list[int]] = {}
        for p, u in self._member_node.items():
            out.setdefault(u, []).append(p)
        return out

    # -- queries -----------------------------------------------------------

    def member_count(self) -> int:
        self.builder.ensure_usable()
        return self.builder.active_depth()

    def member_at_depth(self, depth: int):
        """Edge child of the locus of the repeated suffix of the given
        length, or None. There is at most one per length. O(depth)."""
        self.builder.ensure_usable()
        if depth <= 0 or depth > self.builder.active_depth():
            return None
        return self._descend(depth)

    def _descend(self, length: int) -> int:
        """Edge child of the locus of the suffix of the given length, by
        skip/count from the root; the suffix must occur before the end."""
        syms = self.store._symbols
        child_map = self.tree.child_map
        depth_arr = self.tree.depth_arr
        p = len(syms) - length
        u = ROOT
        d = 0
        while True:
            v = child_map[u][syms[p + d]]
            dv = depth_arr[v]
            if not dv or dv >= length:
                return v
            u = v
            d = dv

    def implicit_on_edge(self, child: int) -> list[int]:
        """Depths of implicit nodes on the edge into child, ascending.
        A depth equal to depth(child) means the repeated suffix ends
        exactly at child (see coincides_with_branching)."""
        if child == ROOT:
            raise ValueError("root has no incoming edge")
        starts = self._edge_members.get(child, ())
        n = len(self.store)
        return [n - p for p in reversed(starts)]

    def coincides_with_branching(self, u: int) -> bool:
        """True iff str(u) itself is a repeated suffix of the current text."""
        tree = self.tree
        if tree.kind[u] != KIND_BRANCH:
            raise ValueError("coincidence is defined for branching nodes")
        return self.member_at_depth(tree.depth_arr[u]) == u

    def edge_progression(self, child: int):
        """Implicit depths on the edge into child as (first_d, step, count);
        None when the edge is clean. Depths on one edge are always an
        arithmetic progression; violations raise."""
        depths = self.implicit_on_edge(child)
        if not depths:
            return None
        if len(depths) == 1:
            return (depths[0], 0, 1)
        step = depths[1] - depths[0]
        for i in range(2, len(depths)):
            if depths[i] - depths[i - 1] != step:
                raise AssertionError(f"non-arithmetic depths {depths} on edge into {child}")
        return (depths[0], step, len(depths))

    def members(self) -> list[tuple[int, int, int, str]]:
        """All members, longest first: (depth, start 1-based, edge child,
        class). Class order along the list is external, internal,
        coinciding (possibly with empty segments)."""
        n = len(self.store)
        a = self.builder.active_depth()
        kind = self.tree.kind
        depth_arr = self.tree.depth_arr
        out = []
        for i, u in enumerate(suffix_loci(self.builder)):
            d = a - i
            if kind[u] == KIND_LEAF:
                cls = CLASS_EXTERNAL
            elif d == depth_arr[u]:
                cls = CLASS_COINCIDING
            else:
                cls = CLASS_INTERNAL
            out.append((d, n - d + 1, u, cls))
        return out

    def longest_coinciding(self):
        """Deepest member whose locus is exactly a branching node, as
        (node, depth), or None."""
        a = self.builder.active_depth()
        kind = self.tree.kind
        depth_arr = self.tree.depth_arr
        for i, u in enumerate(suffix_loci(self.builder)):
            if kind[u] == KIND_BRANCH and a - i == depth_arr[u]:
                return (u, a - i)
        return None

    def dump(self) -> str:
        """One line per member in chain order (longest first):
        edge child id, depth, class, tab-separated."""
        return "\n".join(f"{u}\t{d}\t{cls}" for d, _s, u, cls in self.members())

    # -- slow differential check ---------------------------------------------

    def recompute_member_map(self, active_depth: int) -> dict[int, int]:
        """From-scratch loci of all repeated suffixes: walk each suffix of
        the active string down from the root by skip/count. O(depth) per
        member; for tests only."""
        self.builder.ensure_usable()
        n = len(self.store)
        return {n - length: self._descend(length)
                for length in range(active_depth, 0, -1)}

    def verify(self, active_depth: int) -> None:
        """Assert that the walk from the active point finds the same loci
        as a descent from the root for every member, and that the classes
        run in chain order."""
        self.builder.ensure_usable()
        assert self.builder.active_depth() == active_depth, (
            f"active depth {self.builder.active_depth()}, expected {active_depth}")
        expect = self.recompute_member_map(active_depth)
        have = self._member_node
        assert have == expect, f"member map diverged: have {have}, want {expect}"
        ranks = [_CLASS_RANK[cls] for _d, _s, _u, cls in self.members()]
        assert ranks == sorted(ranks), f"chain segment order violated: {self.members()}"
