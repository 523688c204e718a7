"""Net-frequency queries, live and sealed.

The net frequency of a repeated string S counts its occurrences that
are maximal on both sides: extending by the preceding or the following
symbol gives a string that occurs exactly once. On the tree this
reduces to counting unique right extensions of S and discarding those
already accounted for by a repeated left extension:

    nf(S) = |{y : f(Sy) = 1}| - sum over repeated xS of |{y : f(xSy) = 1
            and f(Sy) = 1}|

Unique right extensions are leaf children. No Weiner links are kept:
the left extension of a leaf child is tested at the leaf of the
previous suffix. Take u of depth d and its leaf child ~p (the suffix
starting at p). It is a net occurrence iff p = 0 or the leaf of suffix
p - 1 hangs from a node of depth <= d. If that leaf hangs deeper, its
parent is x str(u) at depth d + 1 (x = T[p - 1]; a deeper parent would
make x str(u) y repeated, and then str(u) y too), with the same leaf
symbol y: exactly the pair the sum above subtracts. A left extension
ending mid-edge has no unique right extension at all, so it never
contributes.

Mid-stream there is no sentinel, so the end of the text acts as a
virtual unique extension of every suffix of the text read so far. The
repeated suffixes are the suffixes of the active string alpha, the
longest one, of length A with leftmost start iA; nothing else about
them is needed for a single query. At a branching node u of depth d:

- a leaf child of u certifies a unique right extension unless its
  suffix starts inside alpha's leftmost occurrence, at iA .. iA + A - d:
  then the repeated suffix reaching that far ends on its edge (or, at
  iA + A - d itself, str(u) is a repeated suffix, and taking the leaf
  away stands for the pair below). No such leaf exists when A <= d;
- for d < A, str(u) when it is a repeated suffix gains the text end as
  one more unique right extension, and the repeated suffix one symbol
  longer, x str(u), takes it back as a vacuously unique pair, so the two
  cancel and no suffix test is needed;
- for d = A, str(u) is alpha exactly when alpha's locus is u, and then
  gains the text end.

_nf_at_locus holds this rule; off a node only alpha can score.
online_all_nf runs the sealed sweep, then takes off the leaves the
first rule drops in one pass over the leaves starting inside alpha's
leftmost occurrence.

The test is symmetric by construction: it starts from a unique right
extension y of S (a leaf child) and discounts it only when y is a
unique right extension of xS too (the leaf p - 1 hangs from xS under
y). Discounting on the xS side alone overcounts, e.g. text "abbaba",
S = "b" would come out -1. Live, when the edge of leaf p - 1 carries a
repeated suffix, the edge of leaf p carries one too and leaf p is not
counted, so leaf p - 1 needs no range test of its own.

A sealed tree is the live case with an empty active string, so the
online_* functions answer in both states. offline_single_nf_breakdown
takes a sealed tree alone and returns the sets behind one count.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, repeat
from operator import ge
from typing import NamedTuple

from .online_builder import OnlineBuilder
from .suffix_tree import ROOT, Locus, SuffixTree
from .text_store import Occurrence


class NfReport(NamedTuple):
    """One reported string with positive net frequency.

    occurrence is the leftmost occurrence; node is the arena id whose
    string was reported (for the mid-edge longest-repeated-suffix report
    of a live text, the edge child holding the locus). A leaf id is ~p,
    p the 0-based start of the leaf's suffix (see SuffixTree).
    """
    occurrence: Occurrence
    nf: int
    node: int


class NfBreakdown(NamedTuple):
    """Intermediate sets behind a single-string query, for inspection.

    right_unique: symbols y with f(Sy) = 1. left_repeated: symbols x
    with xS repeated and branching. right_unique_by_left: per such x,
    the symbols y with f(xSy) = 1.
    """
    value: int
    right_unique: frozenset
    left_repeated: frozenset
    right_unique_by_left: dict


# -- the count at one branching node ----------------------------------------

def _count_at_node(tree: SuffixTree, u: int, lo: int = 1, hi: int = 0) -> int:
    """Net frequency of str(u), u a branching node of depth d, from its
    leaf children alone: a leaf ~p with p not within lo .. hi (both
    inclusive; an empty range tests nothing) counts when its left
    extension is unique, that is when p = 0 or the leaf of suffix p - 1
    hangs no deeper than d."""
    depth_arr = tree.depth_arr
    leaf_parent = tree.leaf_parent
    d = depth_arr[u]
    count = 0
    for w in tree.child_map[u].values():
        if w < 0:
            p = ~w
            if not lo <= p <= hi and (not p or depth_arr[leaf_parent[p - 1]] <= d):
                count += 1
    return count


def _node_locus(tree: SuffixTree, s):
    """Branching node whose string is s, or None when s ends anywhere
    else or does not occur."""
    loc = tree.locate(s)
    if loc is None:
        return None
    u, d = loc
    if u < 0 or d < tree.depth_arr[u]:
        return None
    return u


def _require_sealed(tree: SuffixTree) -> None:
    if not tree.sealed:
        raise ValueError("offline queries need a sealed tree")


def offline_single_nf_breakdown(tree: SuffixTree, s) -> NfBreakdown:
    """Net frequency of s against the sealed text, plus the sets it is
    built from, read off the leaves below the node u of s (depth d).
    Every occurrence of a left extension x s is the suffix p - 1 of some
    leaf ~p below u, with x = T[p - 1], so x s is T[p - 1:p + d]; one
    locate per symbol x finds its node, when there is one."""
    _require_sealed(tree)
    u = _node_locus(tree, s)
    if u is None:
        return NfBreakdown(0, frozenset(), frozenset(), {})
    syms = tree.store._symbols
    child_map = tree.child_map
    d = tree.depth_arr[u]
    seen = set()
    by_left = {}
    stack = [u]
    while stack:
        v = stack.pop()
        if v >= 0:
            stack.extend(child_map[v].values())
            continue
        p = ~v
        if not p or syms[p - 1] in seen:
            continue
        seen.add(syms[p - 1])
        w = _node_locus(tree, syms[p - 1:p + d])
        if w is not None:
            by_left[syms[p - 1]] = frozenset(y for y, q in child_map[w].items() if q < 0)
    right_unique = frozenset(y for y, w in child_map[u].items() if w < 0)
    return NfBreakdown(_count_at_node(tree, u), right_unique, frozenset(by_left), by_left)


# -- live queries -------------------------------------------------------------

def online_single_nf(builder: OnlineBuilder, s) -> int:
    """Net frequency of s against the text read so far, or against the
    sealed text once it is sealed. O(|s|)."""
    if builder._failure is not None:  # ensure_usable(), inlined on the hot path
        builder.ensure_usable()
    loc = builder.tree.locate(s)
    if loc is None:
        return 0
    return _nf_at_locus(builder, loc)


def _nf_at_locus(builder: OnlineBuilder, locus: Locus) -> int:
    tree = builder.tree
    u, d = locus
    a = tree.depth_arr[builder.active_node] + builder.active_length
    if u < 0 or d != tree.depth_arr[u]:
        # Off a node only the longest repeated suffix can score: every
        # unique right extension is a net occurrence and nothing
        # subtracts, since a longer left extension would be a longer
        # repeated suffix. Its extensions are the text end and, on a leaf
        # edge, the one occurrence further left. At a node repeated left
        # extensions are possible ("aabaababa" S="aba") and the full
        # count below runs.
        if d != a or locus != builder.active_locus():
            return 0
        return 2 if u < 0 else 1
    if d < a:
        ia = tree.start(builder.active_locus().node) - 1
        return _count_at_node(tree, u, ia, ia + a - d)
    # str(u) is alpha: the text end is a unique right extension
    return _count_at_node(tree, u) + (d == a and locus == builder.active_locus())


# -- all strings ------------------------------------------------------------

def _sweep(tree: SuffixTree) -> list[int]:
    """Net frequency per branching node with no repeated suffix, in one
    pass over the leaves in suffix-start order: the leaf ~p pays 1 to its
    parent u when its left extension is unique, that is when p = 0 or
    the leaf p - 1 hangs no deeper than u (see _count_at_node). O(n)."""
    depth_arr = tree.depth_arr
    phi = [0] * len(depth_arr)
    prev = 0
    for u in tree.leaf_parent:
        d = depth_arr[u]
        if prev <= d:
            phi[u] += 1
        prev = d
    phi[ROOT] = 0
    return phi


def _reports(tree: SuffixTree, phi: list[int], extra) -> list[NfReport]:
    """Every branching node with phi >= 1, plus the report extra when
    given, as NfReports ascending by (start, end). The nodes are sorted
    by one int key, start * (n + 1) + end, which divmod splits back into
    the occurrence."""
    n1 = len(tree.store) + 1
    lstart = tree.lstart
    depth_arr = tree.depth_arr
    nodes = list(compress(range(len(phi)), map(ge, phi, repeat(1))))
    # with s = lstart[v] and d = depth(v): (s + 1) * n1 + s + d
    keys = [lstart[v] * (n1 + 1) + n1 + depth_arr[v] for v in nodes]
    node_at = dict(zip(keys, nodes))
    keys.sort()
    nodes = list(map(node_at.__getitem__, keys))
    del node_at  # before the rows are built, to lower the peak
    occurrences = map(tuple.__new__, repeat(Occurrence), map(divmod, keys, repeat(n1)))
    reports = list(map(tuple.__new__, repeat(NfReport),
                       zip(occurrences, map(phi.__getitem__, nodes), nodes)))
    if extra is not None:
        i, j = extra.occurrence
        reports.insert(bisect_left(keys, i * n1 + j), extra)
    return reports


def online_all_nf(builder: OnlineBuilder) -> list[NfReport]:
    """Every string with positive net frequency against the text so far
    (or the sealed text), leftmost occurrences, ascending by (start, end).
    O(n).

    The sweep gives every node its sealed count. Live, a node u of depth
    d < A loses the leaf children ~p that the sweep counted with
    iA <= p <= iA + A - d (see _count_at_node); they all lie among the
    leaves iA .. iA + A - 1, so one pass over those corrects every node.
    Nodes with d >= A keep their sealed count, but alpha gains the text
    end: +1 on its node, or, off a node, the row the single-string rule
    gives it.
    """
    builder.ensure_usable()
    tree = builder.tree
    phi = _sweep(tree)
    alpha, a = builder.active_locus()
    if not a:
        return _reports(tree, phi, None)
    depth_arr = tree.depth_arr
    leaf_parent = tree.leaf_parent
    ia = tree.start(alpha) - 1
    end = ia + a
    for p in range(ia, min(end, len(leaf_parent))):
        u = leaf_parent[p]
        d = depth_arr[u]
        if d < a and p + d <= end and (not p or depth_arr[leaf_parent[p - 1]] <= d):
            phi[u] -= 1
    if alpha >= 0 and a == depth_arr[alpha]:
        phi[alpha] += 1
        return _reports(tree, phi, None)
    return _reports(tree, phi, NfReport(Occurrence(ia + 1, end), 2 if alpha < 0 else 1, alpha))
