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

ImplicitRegistry is a read-only view with four reads, each computed
when asked: member_count (the active depth), member_at_depth (one
locate from the root), members (the walk, with each locus classed) and
dump. The counts in nf_query need none of it: the active depth and the
leftmost start of the active string suffice. The walk and the view
serve inspection (NetFrequencyIndex.stats and dump_registry) and the
benchmark's tracer. Like the queries, every read raises RuntimeError once an update has failed
mid-phase.
"""

from __future__ import annotations

from .online_builder import OnlineBuilder
from .suffix_tree import ROOT

CLASS_EXTERNAL = "external"
CLASS_INTERNAL = "internal"
CLASS_COINCIDING = "coinciding"


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
            if v < 0:  # a leaf: its edge is open
                break
            elen = depth_arr[v] - depth_arr[node]
            if length < elen:
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
    their number, loci and classes, each computed when asked."""

    def __init__(self, builder: OnlineBuilder):
        self.builder = builder
        self.store = builder.store
        self.tree = builder.tree

    def member_count(self) -> int:
        self.builder.ensure_usable()
        return self.builder.active_depth()

    def member_at_depth(self, depth: int):
        """Edge child of the locus of the repeated suffix of the given
        length, or None. There is at most one per length. O(depth)."""
        self.builder.ensure_usable()
        if depth <= 0 or depth > self.builder.active_depth():
            return None
        syms = self.store._symbols
        return self.tree.locate(syms[len(syms) - depth:]).node

    def members(self) -> list[tuple[int, int, int, str]]:
        """All members, longest first: (depth, start 1-based, edge child,
        class). Class order along the list is external, internal,
        coinciding (possibly with empty segments)."""
        n = len(self.store)
        a = self.builder.active_depth()
        depth_arr = self.tree.depth_arr
        out = []
        for i, u in enumerate(suffix_loci(self.builder)):
            d = a - i
            if u < 0:
                cls = CLASS_EXTERNAL
            elif d == depth_arr[u]:
                cls = CLASS_COINCIDING
            else:
                cls = CLASS_INTERNAL
            out.append((d, n - d + 1, u, cls))
        return out

    def dump(self) -> str:
        """One line per member in chain order (longest first):
        edge child id, depth, class, tab-separated."""
        return "\n".join(f"{u}\t{d}\t{cls}" for d, _s, u, cls in self.members())
