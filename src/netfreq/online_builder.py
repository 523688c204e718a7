"""Online suffix tree construction, one appended symbol at a time.

Ukkonen-style update with an explicit active point, open leaf ends, and
suffix links. Weiner links are recorded as the mirror of every suffix
link assignment. One phase loop serves every entry point; an observer
(the implicit-locus registry) sees construction through three hooks:
leaf_added(leaf, parent, j), edge_split(old_child, new_node) and
phase_ended(n, c).
"""

from __future__ import annotations

from operator import index

from .suffix_tree import KIND_BRANCH, KIND_LEAF, NIL, ROOT, Locus, SuffixTree
from .text_store import TextStore, as_symbols


class OnlineBuilder:
    """Maintains a SuffixTree over a growing TextStore.

    extend() appends one symbol and runs the update cascade. The active
    point is kept as (active_node, active_edge, active_length) where
    active_edge is a 0-based text position of the next unmatched symbol.
    Invariant between extensions: remainder equals the length of the
    active string (the longest repeated suffix).

    registry, when set, is any object with the three hooks named in the
    module docstring. Each hook is looked up on it at every call (binding
    all three per extend() would cost more than the calls), so wrappers
    installed on the instance see every call.
    """

    def __init__(self, store: TextStore, registry=None):
        self.store = store
        self.tree = SuffixTree(store)
        self.registry = registry
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
        if self.active_length == 0:
            u = self.active_node
            return Locus(u, self.tree.depth_arr[u])
        tree = self.tree
        below = tree.child_map[self.active_node][self.store._symbols[self.active_edge]]
        return Locus(below, tree.depth_arr[self.active_node] + self.active_length)

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
        which ends the phase). Leaves keep depth 0, so an edge into a node
        of depth 0 is an open leaf edge ending at n."""
        syms = self.store._symbols
        tree = self.tree
        kind = tree.kind
        parent = tree.parent
        edge_start = tree.edge_start
        depth_arr = tree.depth_arr
        slink_arr = tree.slink_arr
        child_map = tree.child_map
        wlink_map = tree.wlink_map
        reg = self.registry

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
                        es = edge_start[child]
                        dc = depth_arr[child]
                        elen = dc - depth_arr[active_node] if dc else n - es
                        if active_length >= elen:
                            active_edge += elen
                            active_length -= elen
                            active_node = child
                            continue
                        if syms[es + active_length] == c:
                            here = NIL
                        else:
                            # cut the edge at the active point
                            here = len(kind)
                            kind.append(KIND_BRANCH)
                            parent.append(active_node)
                            edge_start.append(es)
                            depth_arr.append(depth_arr[active_node] + active_length)
                            slink_arr.append(NIL)
                            child_map.append({syms[es + active_length]: child})
                            wlink_map.append(None)
                            child_map[active_node][edge_sym] = here
                            edge_start[child] = es + active_length
                            parent[child] = here
                            if reg is not None:
                                reg.edge_split(child, here)
                    if here != NIL:
                        leaf = len(kind)
                        kind.append(KIND_LEAF)
                        parent.append(here)
                        edge_start.append(n - 1)
                        depth_arr.append(0)
                        slink_arr.append(NIL)
                        child_map.append(None)
                        wlink_map.append(None)
                        child_map[here][c] = leaf
                        if reg is not None:
                            reg.leaf_added(leaf, here, n - remainder)
                    if last_new != NIL:
                        # str(last_new) = x str(target): the suffix link
                        # is mirrored as the Weiner link on x
                        target = active_node if here == NIL else here
                        slink_arr[last_new] = target
                        x = syms[edge_start[last_new] - depth_arr[parent[last_new]]]
                        wm = wlink_map[target]
                        if wm is None:
                            wlink_map[target] = {x: last_new}
                        else:
                            wm[x] = last_new
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
                if reg is not None:
                    reg.phase_ended(n, c)
        except BaseException as exc:
            self._failure = exc
            raise
        self.active_node = active_node
        self.active_edge = active_edge
        self.active_length = active_length
        self.remainder = remainder
