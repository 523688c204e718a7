"""Online suffix tree construction, one appended symbol at a time.

Ukkonen-style update with an explicit active point, open leaf ends, and
suffix links; no Weiner links are kept (nf_query tests a leaf's left
extension at the leaf of the previous suffix instead). A new leaf costs
one child-dict entry and one leaf_parent append. A split appends one
branching row, whose leftmost start is the cut child's (see
SuffixTree.start), and rewrites nothing of a branching child: only a
leaf child's one leaf_parent entry. One phase loop serves every entry
point, and nothing observes it: the repeated suffixes and their loci are
read off the active point when a query needs them (see
implicit_registry).
"""

from __future__ import annotations

from operator import index

from .suffix_tree import NIL, ROOT, Locus, SuffixTree
from .text_store import TextStore, as_symbols


class OnlineBuilder:
    """Maintains a SuffixTree over a growing TextStore.

    extend() appends one symbol and runs the update cascade. The active
    point is kept as (active_node, active_edge, active_length) where
    active_edge is a 0-based text position of the next unmatched symbol.
    Invariant between extensions: remainder equals the length of the
    active string (the longest repeated suffix).
    """

    def __init__(self, store: TextStore):
        self.store = store
        self.tree = SuffixTree(store)
        self.active_node = ROOT
        self.active_edge = 0
        self.active_length = 0
        self.remainder = 0
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
        remainder = self.remainder
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
        self.remainder = remainder
