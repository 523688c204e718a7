"""Arena-based suffix tree: nodes, navigation, locate, and dump formats.

The tree stores the implicit suffix tree of an unsealed text (repeated
suffixes end mid-edge, leaf edges stay open) and becomes the classic
sentinel-terminated suffix tree once the store is sealed. Mutation lives
in online_builder; this module is the structure plus read-side queries.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .text_store import TextStore, as_symbols

NIL = -1
ROOT = 0

KIND_ROOT = 0
KIND_BRANCH = 1
KIND_LEAF = 2

_KIND_NAMES = {KIND_ROOT: "root", KIND_BRANCH: "branching", KIND_LEAF: "leaf"}


class Locus(NamedTuple):
    """A point in the tree: the node whose incoming edge holds it, plus the
    string depth d, with depth(parent(node)) < d <= depth(node)."""
    node: int
    d: int


class SuffixTree:
    """Node arena over a TextStore.

    Node ids are dense ints; id 0 is the root. Per-node data lives in
    parallel lists. Children are per-node dicts keyed by symbol code
    (None for leaves, which never have children). Edge ends are not
    stored: a branching edge is depth(v) - depth(parent) long, and a leaf
    edge is open, running to the current text length.
    """

    __slots__ = ("store", "kind", "parent", "edge_start",
                 "depth_arr", "slink_arr", "child_map", "wlink_map")

    def __init__(self, store: TextStore):
        self.store = store
        self.kind = bytearray([KIND_ROOT])
        self.parent = [NIL]
        self.edge_start = [NIL]   # 0-based first label position; NIL for root
        self.depth_arr = [0]      # string depth; 0 for leaves (open edge)
        self.slink_arr = [NIL]
        self.child_map: list = [{}]     # dict symbol -> node, None for leaves
        self.wlink_map: list = [None]   # dict symbol -> source branching node

    # -- arena basics ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def sealed(self) -> bool:
        return self.store.sealed

    def node_count(self) -> int:
        return len(self.kind)

    def leaf_count(self) -> int:
        return self.kind.count(KIND_LEAF)

    def branching_count(self) -> int:
        return self.kind.count(KIND_BRANCH)

    def is_leaf(self, u: int) -> bool:
        return self.kind[u] == KIND_LEAF

    def is_branching(self, u: int) -> bool:
        return self.kind[u] == KIND_BRANCH

    # -- navigation --------------------------------------------------------

    def parent_of(self, u: int) -> int:
        """Parent node id; NIL for the root."""
        return self.parent[u]

    def child(self, u: int, y: int):
        """Child of u along symbol y, or None when absent."""
        cm = self.child_map[u]
        if cm is None:
            return None
        return cm.get(y)

    def children(self, u: int) -> Iterator[tuple[int, int]]:
        """(symbol, child) pairs in symbol order; empty for leaves."""
        cm = self.child_map[u]
        if not cm:
            return iter(())
        return iter(sorted(cm.items()))

    def depth(self, u: int) -> int:
        """String depth of u. Leaf depth tracks the open edge end."""
        if self.kind[u] == KIND_LEAF:
            return self.depth_arr[self.parent[u]] + len(self.store) - self.edge_start[u]
        return self.depth_arr[u]

    # Leftmost because Ukkonen creates leaves in increasing suffix-start
    # order and a split keeps the older edge's alignment (the new node
    # takes the cut edge's start). So u's edge still aligns with the first
    # leaf whose path spelled str(u), and every later leaf below u starts
    # further right. An occurrence without a leaf (a repeated suffix of the
    # unsealed text) also occurs earlier, so the minimum over all
    # occurrences is the same.
    def start(self, u: int) -> int:
        """1-based text position of the leftmost occurrence of str(u).

        Derived from the incoming edge: the edge label was cut from a
        concrete occurrence, and the prefix above it aligns with the
        same occurrence.
        """
        if u == ROOT:
            raise ValueError("root has no string")
        return self.edge_start[u] - self.depth_arr[self.parent[u]] + 1

    def edge_span(self, u: int) -> tuple[int, int]:
        """Incoming edge label as 1-based (start, end); open ends resolve
        to the current text length."""
        if u == ROOT:
            raise ValueError("root has no incoming edge")
        s = self.edge_start[u]
        return (s + 1, s + self.depth(u) - self.depth_arr[self.parent[u]])

    def slink(self, u: int) -> int:
        """Suffix link of a branching node."""
        if self.kind[u] != KIND_BRANCH:
            raise ValueError("suffix links exist on branching nodes only")
        return self.slink_arr[u]

    def wlinks(self, u: int) -> list[tuple[int, int]]:
        """Stored Weiner links of u as (symbol, target) pairs in symbol
        order: wlink(u, x) = v means str(v) = x + str(u). The root holds
        one for every branching node of depth 1 (str(v) = x); error for
        leaves."""
        if self.kind[u] == KIND_LEAF:
            raise ValueError("Weiner links exist on branching nodes and the root only")
        wm = self.wlink_map[u]
        if not wm:
            return []
        return sorted(wm.items())

    def wlink(self, u: int, x: int):
        """Weiner-link target of u for symbol x, or None."""
        if self.kind[u] == KIND_LEAF:
            raise ValueError("Weiner links exist on branching nodes and the root only")
        wm = self.wlink_map[u]
        if wm is None:
            return None
        return wm.get(x)

    # -- search ------------------------------------------------------------

    def locate(self, s) -> Locus | None:
        """Locus of string s, or None when s does not occur.

        A blind descent (the String B-tree search of Ferragina and
        Grossi): from each node it reads only the branching symbol
        s[depth], skips the rest of the edge by string depth, and stops at
        the first leaf or node at least |s| deep. It then compares s once,
        in one list comparison, with the text at start() of that node.
        This is exact: when s occurs, its branching symbols fix its path,
        and every locus has an occurrence at start() of its node, so the
        comparison succeeds; when s does not occur, no text slice equals
        it, and a slice cut short by the end of the text (an open leaf
        edge) is shorter than s. O(|s|).
        """
        q = list(as_symbols(s))
        m = len(q)
        if not m:
            raise ValueError("empty query")
        child_map = self.child_map
        depth_arr = self.depth_arr
        cm = child_map[ROOT]
        d = 0
        while True:
            v = cm.get(q[d])
            if v is None:
                return None
            dv = depth_arr[v]
            if not dv or dv >= m:  # a leaf (depth 0) or deep enough
                break
            cm = child_map[v]
            d = dv
        st = self.edge_start[v] - d  # the leftmost occurrence, as in start()
        if self.store._symbols[st:st + m] != q:
            return None
        return Locus(v, m)

    def subtree_leaf_count(self, u: int) -> int:
        """Leaves in the subtree rooted at u (u itself counts if a leaf)."""
        kind = self.kind
        child_map = self.child_map
        total = 0
        stack = [u]
        while stack:
            v = stack.pop()
            if kind[v] == KIND_LEAF:
                total += 1
            else:
                stack.extend(child_map[v].values())
        return total

    # -- serialization -----------------------------------------------------

    def dump(self) -> str:
        """One line per node in preorder, children in symbol order.

        Tab-separated fields: node id, kind, parent, edge label as
        "start,end" (1-based, open ends resolved), depth, start, slink.
        Absent fields print "-".
        """
        lines = []
        stack = [ROOT]
        while stack:
            u = stack.pop()
            if u == ROOT:
                edge = par = st = "-"
            else:
                s, e = self.edge_span(u)
                edge = f"{s},{e}"
                par = str(self.parent[u])
                st = str(self.start(u))
            sl = self.slink_arr[u]
            slink = str(sl) if self.kind[u] == KIND_BRANCH and sl != NIL else "-"
            lines.append(f"{u}\t{_KIND_NAMES[self.kind[u]]}\t{par}\t{edge}\t"
                         f"{self.depth(u)}\t{st}\t{slink}")
            cm = self.child_map[u]
            if cm:
                for _, v in sorted(cm.items(), reverse=True):
                    stack.append(v)
        return "\n".join(lines)

    def canonical_form(self, u: int = ROOT):
        """Shape-and-labels form: nested (edge_symbols, child_forms) tuples
        with children in symbol order. Node ids and label positions do not
        appear, so two structurally equal trees compare equal."""
        syms = self.store._symbols
        child_map = self.child_map

        def form(v: int):
            if v == ROOT:
                label = ()
            else:
                s, e = self.edge_span(v)
                label = tuple(syms[s - 1:e])
            cm = child_map[v]
            if not cm:
                return (label, ())
            return (label, tuple(form(w) for _, w in sorted(cm.items())))

        return form(u)
