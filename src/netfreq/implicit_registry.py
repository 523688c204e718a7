"""Tracks the loci of all repeated suffixes of the growing text.

Every repeated suffix ends at an implicit node: a point (child, d) on
the edge into `child` at string depth d. The registry keys each such
member by its suffix start, so the depth n - start needs no updates as
the text grows; leaf edges are maintenance-free because their open ends
deepen in lockstep. Membership itself is maintained exactly during
construction: drop a member the moment its suffix gets a leaf (always
the longest one alive, so always the head of its group), record each
new length-1 member at its root child, and relocate a whole group when
its edge is split.

The recorded node, by contrast, is allowed to trail: when a member's
depth passes a branching node, the pointer is not advanced until the
next query. A trailing pointer always stays on the member's own root
path (drops and split relocations preserve that), so a query-time sweep
restores every pointer with a skip/count walk from where it stopped.
The walks equal the boundary crossings they resolve, paid by the first
query after a burst of extensions.

Neither construction nor sync is constant time per event. edge_split
re-points every member of the moved group and leaf_added pops a group
head off the front of a list, both O(group size). _sync visits every
member, and once any record moved it rebuilds the edge lists from all
members. On runs (a^k then b) and short-period text both costs grow
quadratically with the text.
"""

from __future__ import annotations

from .suffix_tree import KIND_BRANCH, KIND_LEAF, ROOT, SuffixTree
from .text_store import TextStore

CLASS_EXTERNAL = "external"
CLASS_INTERNAL = "internal"
CLASS_COINCIDING = "coinciding"

_CLASS_RANK = {CLASS_EXTERNAL: 0, CLASS_INTERNAL: 1, CLASS_COINCIDING: 2}


class ImplicitRegistry:
    """Per-edge implicit-node index, kept current by the builder's
    hooks leaf_added, edge_split and phase_ended.

    State:
      _member_node: suffix start (0-based) -> recorded node, an edge
          child on the member's path; exact after _sync, possibly a
          trailing ancestor between queries. Kept in ascending start
          order: a new member has the largest start, a dropped one the
          smallest, and every other write reassigns an existing key
      _edge_members: recorded node -> suffix starts ascending (deepest
          first), the inverse of _member_node
      _synced_at: text length the records were last advanced for

    verify() checks the state against a from-scratch recomputation; it is
    for tests, far too slow for real use.
    """

    def __init__(self, store: TextStore, tree: SuffixTree):
        self.store = store
        self.tree = tree
        self._member_node: dict[int, int] = {}
        self._edge_members: dict[int, list[int]] = {}
        self._synced_at = 0
        # stable list identities, cached off the hot path
        self._syms = store._symbols
        self._kind = tree.kind
        self._edge_start = tree.edge_start
        self._depth = tree.depth_arr
        self._children = tree.child_map

    # -- construction hooks --------------------------------------------------

    def leaf_added(self, leaf: int, parent: int, j: int) -> None:
        """Suffix j (0-based) got a leaf, so it is no longer repeated.

        j is the longest suffix still alive (extensions run longest
        first), hence the smallest start and the head of its group. The
        recorded node may trail behind `parent`; the keyed pop is exact
        either way."""
        u = self._member_node.pop(j, None)
        if u is None:
            return
        lst = self._edge_members[u]
        assert lst[0] == j
        lst.pop(0)
        if not lst:
            del self._edge_members[u]

    def edge_split(self, old_child: int, new_node: int) -> None:
        """The edge into old_child was cut at new_node. Every member of
        the group sits at or above the cut (deeper ones were dropped
        earlier in the phase), so new_node stays on all their paths and
        the whole group moves to it."""
        lst = self._edge_members.pop(old_child, None)
        if lst is None:
            return
        self._edge_members[new_node] = lst
        member_node = self._member_node
        for p in lst:
            member_node[p] = new_node

    def phase_ended(self, n: int, c: int) -> None:
        """All extensions for symbol c, which made the text n long, are
        done. The only exact bookkeeping left is the birth of the length-1
        member: the new suffix c is repeated iff c occurred before, and its
        locus starts on the edge into the root's c-child. That edge starts
        at the first occurrence of c (splits keep the upper part's start),
        so it starts before n - 1 exactly when c is not new. The start
        n - 1 is the largest alive, so appending keeps the group
        ascending."""
        p = n - 1
        v = self._children[ROOT][c]
        if self._edge_start[v] < p:
            self._member_node[p] = v
            edge_members = self._edge_members
            if v in edge_members:
                edge_members[v].append(p)
            else:
                edge_members[v] = [p]

    def _sync(self) -> None:
        """Advance every recorded node past the boundaries its member's
        depth crossed since the last query. A record only ever trails
        along its member's own root path, so a skip/count walk from it
        lands exactly; records on leaf edges never move again (open ends
        deepen with the text). The walks are proportional to the crossings
        being resolved, but the scan visits every member and, if any record
        moved, the edge lists are rebuilt from all members in start order."""
        n = len(self._syms)
        if self._synced_at == n:
            return
        syms = self._syms
        member_node = self._member_node
        kind = self._kind
        depth_arr = self._depth
        child_map = self._children
        moved = False
        for p, u in member_node.items():
            if kind[u] == KIND_LEAF:
                continue
            du = depth_arr[u]
            length = n - p
            if du >= length:
                continue
            while True:
                u = child_map[u][syms[p + du]]
                if kind[u] == KIND_LEAF:
                    break
                du = depth_arr[u]
                if du >= length:
                    break
            member_node[p] = u
            moved = True
        if moved:
            edge_members = self._edge_members
            edge_members.clear()
            for p, u in member_node.items():
                if u in edge_members:
                    edge_members[u].append(p)
                else:
                    edge_members[u] = [p]
        self._synced_at = n

    # -- queries -----------------------------------------------------------

    def member_count(self) -> int:
        # membership is exact without a sync; only recorded nodes trail
        return len(self._member_node)

    def member_at_depth(self, depth: int):
        """Edge child of the locus of the repeated suffix of the given
        length, or None. There is at most one per length."""
        if depth <= 0:
            return None
        if self._synced_at != len(self._syms):
            self._sync()
        return self._member_node.get(len(self.store) - depth)

    def implicit_on_edge(self, child: int) -> list[int]:
        """Depths of implicit nodes on the edge into child, ascending.
        A depth equal to depth(child) means the repeated suffix ends
        exactly at child (see coincides_with_branching)."""
        if child == ROOT:
            raise ValueError("root has no incoming edge")
        if self._synced_at != len(self._syms):
            self._sync()
        lst = self._edge_members.get(child)
        if not lst:
            return []
        n = len(self.store)
        return [n - p for p in reversed(lst)]

    def deepest_implicit_on_edge(self, child: int):
        """Largest implicit depth on the edge into child, or None."""
        if child == ROOT:
            raise ValueError("root has no incoming edge")
        if self._synced_at != len(self._syms):
            self._sync()
        lst = self._edge_members.get(child)
        if not lst:
            return None
        return len(self.store) - lst[0]

    def has_implicit_on_edge(self, child: int) -> bool:
        if self._synced_at != len(self._syms):
            self._sync()
        return child in self._edge_members

    def coincides_with_branching(self, u: int) -> bool:
        """True iff str(u) itself is a repeated suffix of the current text."""
        tree = self.tree
        if tree.kind[u] != KIND_BRANCH:
            raise ValueError("coincidence is defined for branching nodes")
        if self._synced_at != len(self._syms):
            self._sync()
        p = len(self.store) - tree.depth_arr[u]
        return self._member_node.get(p) == u

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
        if self._synced_at != len(self._syms):
            self._sync()
        n = len(self.store)
        tree = self.tree
        out = []
        for p, u in self._member_node.items():
            d = n - p
            if tree.kind[u] == KIND_LEAF:
                cls = CLASS_EXTERNAL
            elif d == tree.depth_arr[u]:
                cls = CLASS_COINCIDING
            else:
                cls = CLASS_INTERNAL
            out.append((d, p + 1, u, cls))
        return out

    def longest_coinciding(self):
        """Deepest member whose locus is exactly a branching node, as
        (node, depth), or None."""
        if self._synced_at != len(self._syms):
            self._sync()
        n = len(self.store)
        tree = self.tree
        kind = tree.kind
        depth_arr = tree.depth_arr
        for p, u in self._member_node.items():
            if kind[u] == KIND_BRANCH and n - p == depth_arr[u]:
                return (u, n - p)
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
        n = len(self.store)
        syms = self.store._symbols
        tree = self.tree
        out: dict[int, int] = {}
        for length in range(1, active_depth + 1):
            p = n - length
            u = ROOT
            d = 0
            while True:
                v = tree.child_map[u][syms[p + d]]
                dv = tree.depth(v)
                if dv >= length:
                    out[p] = v
                    break
                u = v
                d = dv
        return out

    def verify(self, active_depth: int) -> None:
        """Assert the synced incremental state matches the slow
        recomputation."""
        self._sync()
        expect = self.recompute_member_map(active_depth)
        assert self._member_node == expect, (
            f"member map diverged: have {self._member_node}, want {expect}")
        rebuilt: dict[int, list[int]] = {}
        for p in sorted(expect):
            rebuilt.setdefault(expect[p], []).append(p)
        assert self._edge_members == rebuilt, (
            f"edge lists diverged: have {self._edge_members}, want {rebuilt}")
        ranks = [_CLASS_RANK[cls] for _d, _s, _u, cls in self.members()]
        assert ranks == sorted(ranks), f"chain segment order violated: {self.members()}"
