"""Online suffix tree construction, one appended symbol at a time.

Ukkonen-style update with an explicit active point, open leaf ends, and
suffix links; no Weiner links are kept (nf_query tests a leaf's left
extension at the leaf of the previous suffix instead). A new leaf costs
one child-dict entry and one leaf_parent append. A split appends one
branching row, whose leftmost start is the cut child's (see
SuffixTree.start), and rewrites nothing of a branching child: only a
leaf child's one leaf_parent entry. One phase loop serves every entry
point, and nothing observes it: the queries read the longest repeated
suffix, its length and leftmost start, off the active point (see
nf_query).

The repeated suffixes of the text are exactly the suffixes of the
active string, of lengths 1 .. A, A the active depth, so nothing needs
to be stored to find them: repeated_suffixes() walks from the active
point down the chain of shorter suffixes, as the update does, in O(A)
amortized, and classes each locus (on a leaf edge, inside an internal
edge, or exactly at a branching node).
"""

from __future__ import annotations

from operator import index

from .suffix_tree import NIL, ROOT, Locus, SuffixTree
from .text_store import TextStore, as_symbols

CLASS_EXTERNAL = "external"
CLASS_INTERNAL = "internal"
CLASS_COINCIDING = "coinciding"


class OnlineBuilder:
    """Maintains a SuffixTree over a growing TextStore.

    extend() appends one symbol and runs the update cascade. The active
    point is kept as (active_node, active_edge, active_length) where
    active_edge is a 0-based text position of the next unmatched symbol.
    Between extensions the active string is the longest repeated suffix,
    and its length, active_depth(), is the number of suffixes a phase
    still has to insert.
    """

    def __init__(self, store: TextStore):
        self.store = store
        self.tree = SuffixTree(store)
        self.active_node = ROOT
        self.active_edge = 0
        self.active_length = 0
        self._failure: BaseException | None = None
        if len(store) != 0:
            raise ValueError("builder requires an empty store")

    # -- public surface ------------------------------------------------

    def extend(self, symbol) -> None:
        """Append one symbol and update the tree. A one-character str
        stands for its code point; anything else must be an int (see
        as_symbols), or TypeError is raised before anything is appended."""
        if type(symbol) is not int:
            symbol = ord(symbol) if isinstance(symbol, str) else index(symbol)
        if self._failure is not None:  # ensure_usable(), inlined on the hot path
            self.ensure_usable()
        self._phases(self.store.append(symbol) - 1)

    def extend_text(self, text) -> None:
        """Append every symbol of text. Same effect as repeated extend();
        a symbol outside the alphabet rejects the whole text."""
        codes = as_symbols(text)
        self.ensure_usable()
        first = len(self.store)
        self.store.extend(codes)
        self._phases(first)

    def seal(self) -> None:
        """Terminate the text with the sentinel and run its extension.

        Afterwards every suffix has a leaf and the active point rests at
        the root. Further extends fail at the store."""
        self.ensure_usable()
        self._phases(self.store.seal() - 1)

    def ensure_usable(self) -> None:
        """Raise RuntimeError if an update failed mid-phase: the tree and
        the active point are then out of step with the store for good."""
        if self._failure is not None:
            raise RuntimeError("index unusable: an update failed mid-phase") \
                from self._failure

    def active_locus(self) -> Locus:
        """Canonical locus of the active string (the longest repeated
        suffix); Locus(0, 0) when it is empty."""
        u = self.active_node
        d = self.tree.depth_arr[u]
        if self.active_length:
            u = self.tree.child_map[u][self.store._symbols[self.active_edge]]
            d += self.active_length
        return tuple.__new__(Locus, (u, d))

    def active_depth(self) -> int:
        return self.tree.depth_arr[self.active_node] + self.active_length

    def repeated_suffixes(self) -> list[tuple[int, int, int, str]]:
        """Every repeated suffix, longest first, as (depth, 1-based start,
        edge child, class). A locus exactly at a branching node has that
        node as its edge child and is coinciding; otherwise it is external
        on a leaf edge and internal on a branching one. Class order along
        the list is external, internal, coinciding (segments may be empty).

        Starts at the active point and keeps (node, edge, length) with
        str(node) + text[edge:edge + length] the current suffix. Between
        suffixes it takes the suffix link of node, or drops the first symbol
        at the root, then moves down while the point is at or past the end
        of the edge below (a leaf edge is open, so it never is). Node depth
        drops by at most one per suffix link, so the moves down total O(A)."""
        self.ensure_usable()
        tree = self.tree
        syms = self.store._symbols
        child_map = tree.child_map
        depth_arr = tree.depth_arr
        slink_arr = tree.slink_arr
        node = self.active_node
        edge = self.active_edge
        length = self.active_length
        n = len(syms)
        out = []
        for d in range(self.active_depth(), 0, -1):
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
            if length:
                u = child_map[node][syms[edge]]
                out.append((d, n - d + 1, u, CLASS_EXTERNAL if u < 0 else CLASS_INTERNAL))
            else:
                out.append((d, n - d + 1, node, CLASS_COINCIDING))
            if node == ROOT:
                edge += 1
                length -= 1
            else:
                node = slink_arr[node]
        return out

    # -- update cascade --------------------------------------------------

    def _phases(self, first: int) -> None:
        """Run one Ukkonen phase for every store position from first on
        (0-based). The active point is written back only after the last
        phase; an exception escaping any phase marks the builder unusable
        instead, since the tree may then hold half of a phase.

        Each extension picks `here`, the node the new leaf hangs from: the
        active node when its edge is missing, the node cut into the edge
        on a mismatch, or NIL when the suffix is already present (rule 3,
        which ends the phase). A leaf child ~p of a node of depth d has an
        open edge from p + d to n, and the active point never reaches
        its end."""
        syms = self.store._symbols
        tree = self.tree
        lstart = tree.lstart
        depth_arr = tree.depth_arr
        slink_arr = tree.slink_arr
        child_map = tree.child_map
        leaf_parent = tree.leaf_parent

        active_node = self.active_node
        active_edge = self.active_edge
        active_length = self.active_length
        # suffixes still to insert: between calls, the active depth
        remainder = depth_arr[active_node] + active_length
        # n is the text length a phase ends with; its new symbol is at n - 1.
        # A while loop: a one-symbol extend() pays less for it than for range().
        n = first
        end = len(syms)
        try:
            while n < end:
                c = syms[n]
                n += 1
                remainder += 1
                last_new = NIL
                while remainder > 0:
                    if active_length == 0:
                        active_edge = n - 1
                    edge_sym = syms[active_edge]
                    child = child_map[active_node].get(edge_sym)
                    if child is None:
                        # the whole pending suffix (then just c) branches
                        # off right at the node
                        here = active_node
                    else:
                        if child < 0:  # a leaf ~p below active_node
                            s0 = ~child
                        else:
                            s0 = lstart[child]
                            elen = depth_arr[child] - depth_arr[active_node]
                            if active_length >= elen:
                                active_edge += elen
                                active_length -= elen
                                active_node = child
                                continue
                        # the active point is at depth dh on the edge, whose
                        # next symbol sits at s0 + dh in the child's leftmost
                        # occurrence
                        dh = depth_arr[active_node] + active_length
                        if syms[s0 + dh] == c:
                            here = NIL
                        else:
                            # cut the edge at the active point; the new node
                            # shares the child's leftmost start
                            here = len(lstart)
                            lstart.append(s0)
                            depth_arr.append(dh)
                            slink_arr.append(NIL)
                            child_map.append({syms[s0 + dh]: child})
                            child_map[active_node][edge_sym] = here
                            if child < 0:
                                leaf_parent[~child] = here
                    if here != NIL:
                        # leaves arrive in suffix-start order
                        child_map[here][c] = ~len(leaf_parent)
                        leaf_parent.append(here)
                    if last_new != NIL:
                        slink_arr[last_new] = active_node if here == NIL else here
                    if here == NIL:
                        # suffix already present: remember it and stop the phase
                        active_length += 1
                        break
                    # a node just cut into an edge waits for its suffix link
                    last_new = NIL if here == active_node else here
                    remainder -= 1
                    if active_node == ROOT and active_length > 0:
                        active_length -= 1
                        active_edge = n - remainder
                    elif active_node != ROOT:
                        sl = slink_arr[active_node]
                        active_node = sl if sl != NIL else ROOT
        except BaseException as exc:
            self._failure = exc
            raise
        self.active_node = active_node
        self.active_edge = active_edge
        self.active_length = active_length
