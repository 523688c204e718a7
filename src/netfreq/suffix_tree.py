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


class Locus(NamedTuple):
    """A point in the tree: the node whose incoming edge holds it, plus the
    string depth d, with depth(parent(node)) < d <= depth(node). A leaf
    node is named by its id ~p, p the 0-based start of its suffix."""
    node: int
    d: int


class SuffixTree:
    """Node arena over a TextStore.

    Branching nodes have dense ids from 0, the root. Their data lives in
    four parallel lists indexed by id: lstart, the 0-based start of the
    leftmost occurrence of str(v) (NIL at the root), the string depth,
    the suffix link, and the children, a per-node dict keyed by symbol
    code. Edges and parents are not stored: v's edge is the tail of
    str(v) = text[lstart[v]:lstart[v] + depth(v)] below its parent, and
    the parent is found by a descent along str(v) from the root, for
    inspection only (parent_of, dump, canonical_form).

    A leaf is not a row of those lists. The leaf of the suffix starting
    at 0-based position p has id ~p (a negative int), and its one stored
    field is leaf_parent[p]; leaves arrive in suffix-start order, so
    leaf_parent is appended to. Everything else is derived: the leaf's
    edge starts at p + depth(leaf_parent[p]) and is open, running to the
    current text length n, and its depth is n - p. A read of a branching
    column with a value that may be a leaf id needs a v < 0 test first:
    a list read with a negative index returns a wrong row silently.
    """

    __slots__ = ("store", "lstart", "depth_arr", "slink_arr", "child_map",
                 "leaf_parent")

    def __init__(self, store: TextStore):
        self.store = store
        self.lstart = [NIL]       # 0-based leftmost start of str(v); NIL for root
        self.depth_arr = [0]      # string depth
        self.slink_arr = [NIL]
        self.child_map: list[dict] = [{}]  # symbol -> branching id or leaf id ~p
        self.leaf_parent: list[int] = []   # suffix start p -> parent of leaf ~p

    # -- arena basics ------------------------------------------------------

    def node_count(self) -> int:
        """Root, branching nodes and leaves."""
        return len(self.lstart) + len(self.leaf_parent)

    def leaf_count(self) -> int:
        return len(self.leaf_parent)

    def branching_count(self) -> int:
        return len(self.lstart) - 1

    # -- navigation --------------------------------------------------------

    def parent_of(self, u: int) -> int:
        """Parent node id; NIL for the root. NIL (-1) is also the id ~0
        of the first leaf, so a caller that can reach the root tests for
        it first. A branching node's parent is not stored: it is found by
        a descent along str(u) from the root, one dict read per node on
        the path."""
        if u < 0:
            return self.leaf_parent[~u]
        if u == ROOT:
            return NIL
        syms = self.store._symbols
        s = self.lstart[u]
        w = ROOT
        while True:
            v = self.child_map[w][syms[s + self.depth_arr[w]]]
            if v == u:
                return w
            w = v

    def children(self, u: int) -> Iterator[tuple[int, int]]:
        """(symbol, child) pairs in symbol order; empty for leaves."""
        if u < 0:
            return iter(())
        return iter(sorted(self.child_map[u].items()))

    def depth(self, u: int) -> int:
        """String depth of u. Leaf depth tracks the open edge end."""
        if u < 0:
            return len(self.store) + u + 1  # n - p for u = ~p
        return self.depth_arr[u]

    # lstart[v] is stored, and it stays the leftmost start: Ukkonen
    # creates leaves in increasing suffix-start order, and a node cut into
    # the edge above a child takes the child's start (p for a leaf ~p), so
    # it is the start of the first leaf whose path spelled str(v), and
    # every later leaf below v starts further right. An occurrence without
    # a leaf (a repeated suffix of the unsealed text) also occurs earlier,
    # so the minimum over all occurrences is the same.
    def start(self, u: int) -> int:
        """1-based text position of the leftmost occurrence of str(u).
        A leaf ~p starts at p + 1."""
        if u < 0:
            return ~u + 1
        if u == ROOT:
            raise ValueError("root has no string")
        return self.lstart[u] + 1

    def _edge(self, u: int, par: int) -> tuple[int, int]:
        # u's incoming edge label as 1-based (start, end), cut from the
        # leftmost occurrence of str(u), given u's parent, which a walk
        # from the root holds; an open end resolves to the text length
        s = self.start(u)
        return (s + self.depth_arr[par], s - 1 + self.depth(u))

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
        q = list(s) if type(s) is bytes else list(as_symbols(s))
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
            if v < 0:  # a leaf ~p: its suffix starts at p
                st = ~v
                break
            dv = depth_arr[v]
            if dv >= m:
                st = self.lstart[v]
                break
            cm = child_map[v]
            d = dv
        if self.store._symbols[st:st + m] != q:
            return None
        return tuple.__new__(Locus, (v, m))

    # -- serialization -----------------------------------------------------

    def dump(self) -> str:
        """One line per node in preorder, children in symbol order.

        Tab-separated fields: node id, kind, parent, edge label as
        "start,end" (1-based, open ends resolved), depth, start, slink.
        Absent fields print "-".
        """
        lines = []
        stack = [(ROOT, NIL)]
        while stack:
            u, par = stack.pop()
            if u == ROOT:
                edge = par = st = "-"
            else:
                s, e = self._edge(u, par)
                edge = f"{s},{e}"
                st = str(self.start(u))
            if u < 0:
                name, slink = "leaf", "-"
            else:
                name = "branching" if u else "root"
                sl = self.slink_arr[u]
                slink = str(sl) if sl != NIL else "-"
                stack.extend((v, u) for _, v in sorted(self.child_map[u].items(), reverse=True))
            lines.append(f"{u}\t{name}\t{par}\t{edge}\t{self.depth(u)}\t{st}\t{slink}")
        return "\n".join(lines)

    def canonical_form(self, u: int = ROOT):
        """Shape-and-labels form: nested (edge_symbols, child_forms) tuples
        with children in symbol order. Node ids and label positions do not
        appear, so two structurally equal trees compare equal."""
        syms = self.store._symbols

        def form(v: int, par: int):
            if v == ROOT:
                label = ()
            else:
                s, e = self._edge(v, par)
                label = tuple(syms[s - 1:e])
            return (label, tuple(form(w, v) for _, w in self.children(v)))

        return form(u, self.parent_of(u))
