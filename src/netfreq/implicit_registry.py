"""Tracks the loci of all repeated suffixes of the growing text.

Every repeated suffix ends at an implicit node: a point (child, d) on
the edge into `child` at string depth d. The repeated suffixes are
exactly the starts [n - A, n) (0-based), A the length of the longest
one, and each is keyed by its start, so its depth n - start needs no
updates as the text grows; leaf edges are maintenance-free because
their open ends deepen in lockstep.

Members are kept in groups, one per recorded node, after Breslauer and
Italiano: the group holds the node and its members' starts ascending
(deepest first), and each member holds a handle to its group. The
builder's one hook, phase_ended, is told the active depth after each
Ukkonen phase. It drops the members that got leaves in the phase (the
longest, each the head of its group) and adds the new length-1 member
to the group of its root child, O(1) per member dropped or added
(amortized, as dict updates are).

The recorded node, by contrast, is allowed to trail: when a member's
depth passes a branching node, the record is not advanced until the
next query. A trailing record always stays on the member's own root
path (drops preserve that, and a group on an edge cut in a phase is
empty by its end), so a skip/count walk from it lands exactly. The head
of a group is its first member to cross the group's node, at text
length head + depth(node) + 1, and groups on branching nodes are filed
under that length (a drop only makes the filing early). The
query-time sync opens only the groups filed at the lengths passed since
the previous sync and walks only their members that crossed, one step
per node crossed; a group that gets arrivals out of start order is
sorted once. The filing is dropped once it holds far more entries than
there are groups (after a long run of appends with no query, as in a
bulk build); the next sync then opens every group once, at a cost
within the phases run since the previous sync, and files them again.
"""

from __future__ import annotations

from collections import deque

from .suffix_tree import KIND_BRANCH, KIND_LEAF, ROOT, SuffixTree
from .text_store import TextStore

CLASS_EXTERNAL = "external"
CLASS_INTERNAL = "internal"
CLASS_COINCIDING = "coinciding"

_CLASS_RANK = {CLASS_EXTERNAL: 0, CLASS_INTERNAL: 1, CLASS_COINCIDING: 2}


class _Group(deque):
    """The members recorded at one node (an edge child, `node`): their
    starts, ascending."""

    __slots__ = ("node",)


class ImplicitRegistry:
    """Per-edge implicit-node index, kept current by the builder's
    hook phase_ended.

    State:
      _handles: start -> the member's group; exactly the starts
          n - A .. n - 1, in ascending order (a new member has the
          largest start, a dropped one the smallest, and a sync only
          reassigns existing keys)
      _groups: recorded node -> its group; a node has a group iff some
          member is recorded there. Exact after _sync, possibly trailing
          ancestors between queries
      _due: text length -> groups filed under it, each group on a
          branching node once, no later than its head crosses the node;
          None once dropped
      _queued: entries in _due, those of dead groups included
      _synced_at: text length the records were last advanced for

    _member_node and _edge_members are read-only snapshots of the same
    state (start -> node, node -> ascending starts).

    verify() checks the state against a from-scratch recomputation; it is
    for tests, far too slow for real use.
    """

    def __init__(self, store: TextStore, tree: SuffixTree):
        self.store = store
        self.tree = tree
        self._handles: dict[int, _Group] = {}
        self._groups: dict[int, _Group] = {}
        self._due: dict[int, list[_Group]] | None = {}
        self._queued = 0
        self._synced_at = 0
        # stable list identities, cached off the hot path
        self._syms = store._symbols
        self._kind = tree.kind
        self._depth = tree.depth_arr
        self._children = tree.child_map

    # -- construction hook ----------------------------------------------------

    def phase_ended(self, n: int, c: int, a: int) -> None:
        """All extensions for symbol c, which made the text n long, are
        done, and a is the active depth: the repeated suffixes are now the
        starts n - a .. n - 1.

        Every member below n - a got a leaf in this phase. Those are the
        smallest starts, so each one heads its group when it is popped.
        A group may then be filed early; the sync files it again when it
        comes due. A group whose edge was cut in this phase still names
        the lower node, but it is empty by now: each member q left on it
        after the deeper ones got their leaves is shorter than the suffix
        j being extended, a prefix of it (same edge) and a suffix of it,
        and strictly inside the edge, so all of q's earlier occurrences
        continue with one symbol; one of them ends an earlier occurrence
        of j, where that symbol is the one after the cut, not c. So q + c
        is new and q gets a leaf later in the phase.

        The new suffix c is repeated iff a > 0. Its locus starts on the
        edge into the root's c-child, and n - 1 is the largest start
        alive, so appending keeps every order."""
        handles = self._handles
        p = n - 1
        if a <= len(handles):  # else every member was extended by c
            groups = self._groups
            for j in range(p - len(handles), n - a if a else p):
                g = handles.pop(j)
                g.popleft()
                if not g:
                    del groups[g.node]
        if a:
            v = self._children[ROOT][c]
            groups = self._groups
            g = groups.get(v)
            if g is None:
                g = groups[v] = _Group()
                g.node = v
                if self._due is not None and self._kind[v] == KIND_BRANCH:
                    self._file(g, n + self._depth[v])
            g.append(p)
            handles[p] = g

    # -- query-time sync -----------------------------------------------------

    def _file(self, g: _Group, t: int) -> None:
        """File g under text length t, which is past the last sync. Drops
        the whole filing instead once it holds far more entries than there
        are groups."""
        due = self._due
        if self._queued > 2 * len(self._groups) + 64:
            self._due = None
            return
        bucket = due.get(t)
        if bucket is None:
            due[t] = [g]
        else:
            bucket.append(g)
        self._queued += 1

    def _sync(self) -> None:
        """Advance every record past the boundaries its member's depth
        crossed since the last sync. Opens the groups filed at the text
        lengths passed since then, skipping dead ones; once the filing was
        dropped, opens every group on a branching node and files them all
        anew."""
        n = len(self._syms)
        if self._synced_at == n:
            return
        groups = self._groups
        unsorted: dict[int, _Group] = {}
        due = self._due
        if due is not None:
            for t in range(self._synced_at + 1, n + 1):
                bucket = due.pop(t, None)
                if bucket is not None:
                    self._queued -= len(bucket)
                    for g in bucket:
                        if groups.get(g.node) is g:
                            self._advance(g, n, unsorted)
        if self._due is None:
            kind = self._kind
            for g in list(groups.values()):
                if kind[g.node] == KIND_BRANCH:
                    self._advance(g, n, unsorted)
            self._due = {}
            self._queued = 0
            depth_arr = self._depth
            for u, g in groups.items():
                if kind[u] == KIND_BRANCH:
                    self._file(g, g[0] + depth_arr[u] + 1)
        for h in unsorted.values():
            starts = sorted(h)
            h.clear()
            h.extend(starts)
        self._synced_at = n

    def _advance(self, g: _Group, n: int, unsorted: dict[int, _Group]) -> None:
        """Walk the members of g that crossed its branching node, a prefix
        of g, down to their loci and append each to the group there, then
        file g again for its new head.

        The members landing on one edge can come from several groups, so
        a group that gets them out of order goes into unsorted, for the
        sync to sort once all groups have moved. (Members already on that
        edge are deeper than every arrival.)"""
        syms = self._syms
        kind = self._kind
        depth_arr = self._depth
        child_map = self._children
        groups = self._groups
        handles = self._handles
        u = g.node
        du = depth_arr[u]
        while g and n - g[0] > du:
            p = g.popleft()
            length = n - p
            w = u
            dw = du
            while True:
                w = child_map[w][syms[p + dw]]
                if kind[w] == KIND_LEAF:
                    break
                dw = depth_arr[w]
                if dw >= length:
                    break
            h = groups.get(w)
            if h is None:
                h = groups[w] = _Group()
                h.node = w
                if self._due is not None and kind[w] == KIND_BRANCH:
                    self._file(h, p + dw + 1)
            elif p < h[-1]:
                unsorted[w] = h
            h.append(p)
            handles[p] = h
        if not g:
            del groups[u]
        elif self._due is not None:
            self._file(g, g[0] + du + 1)

    def loaded_edges(self) -> dict[int, _Group]:
        """Synced map from each edge child carrying a member to its group
        (the members' starts, ascending). Read-only."""
        if self._synced_at != len(self._syms):
            self._sync()
        return self._groups

    @property
    def _member_node(self) -> dict[int, int]:
        """Snapshot: start -> recorded node, ascending starts."""
        return {p: g.node for p, g in self._handles.items()}

    @property
    def _edge_members(self) -> dict[int, list[int]]:
        """Snapshot: recorded node -> its members' starts, ascending."""
        return {u: list(g) for u, g in self._groups.items()}

    # -- queries -----------------------------------------------------------

    def member_count(self) -> int:
        # membership is exact without a sync; only recorded nodes trail
        return len(self._handles)

    def member_at_depth(self, depth: int):
        """Edge child of the locus of the repeated suffix of the given
        length, or None. There is at most one per length."""
        p = len(self._syms) - depth
        if depth <= 0 or p not in self._handles:
            return None
        if self._synced_at != len(self._syms):
            self._sync()
        return self._handles[p].node

    def implicit_on_edge(self, child: int) -> list[int]:
        """Depths of implicit nodes on the edge into child, ascending.
        A depth equal to depth(child) means the repeated suffix ends
        exactly at child (see coincides_with_branching)."""
        if child == ROOT:
            raise ValueError("root has no incoming edge")
        g = self.loaded_edges().get(child)
        if not g:
            return []
        n = len(self.store)
        return [n - p for p in reversed(g)]

    def deepest_implicit_on_edge(self, child: int):
        """Largest implicit depth on the edge into child, or None."""
        if child == ROOT:
            raise ValueError("root has no incoming edge")
        g = self.loaded_edges().get(child)
        if not g:
            return None
        return len(self.store) - g[0]

    def has_implicit_on_edge(self, child: int) -> bool:
        return child in self.loaded_edges()

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
        if self._synced_at != len(self._syms):
            self._sync()
        n = len(self.store)
        tree = self.tree
        out = []
        for p, g in self._handles.items():
            u = g.node
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
        for p, g in self._handles.items():
            u = g.node
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
        recomputation, that every handle is the group holding its
        member's start, and that every group on a branching node is filed
        exactly once, past n and no later than its head crosses it."""
        self._sync()
        expect = self.recompute_member_map(active_depth)
        assert self._member_node == expect, (
            f"member map diverged: have {self._member_node}, want {expect}")
        rebuilt: dict[int, list[int]] = {}
        for p in sorted(expect):
            rebuilt.setdefault(expect[p], []).append(p)
        assert self._edge_members == rebuilt, (
            f"edge lists diverged: have {self._edge_members}, want {rebuilt}")
        n = len(self._syms)
        groups = self._groups
        holder = {p: g for g in groups.values() for p in g}
        for p, g in self._handles.items():
            assert holder.get(p) is g and groups.get(g.node) is g, (
                f"handle of start {p} is not the group holding it")
        due = self._due
        if due is not None:
            assert self._queued == sum(map(len, due.values())), "filing count diverged"
            filed_at: dict[int, list[int]] = {}
            for t, bucket in due.items():
                for h in bucket:
                    filed_at.setdefault(id(h), []).append(t)
            for u, g in groups.items():
                if self._kind[u] == KIND_BRANCH:
                    ts = filed_at.get(id(g), [])
                    assert len(ts) == 1 and n < ts[0] <= g[0] + self._depth[u] + 1, (
                        f"group at {u} is filed at {ts}, not once by its crossing")
        ranks = [_CLASS_RANK[cls] for _d, _s, _u, cls in self.members()]
        assert ranks == sorted(ranks), f"chain segment order violated: {self.members()}"
