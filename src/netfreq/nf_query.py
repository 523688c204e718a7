"""Net-frequency queries, live and sealed.

The net frequency of a repeated string S counts its occurrences that
are maximal on both sides: extending by the preceding or the following
symbol gives a string that occurs exactly once. On the tree this
reduces to counting unique right extensions of S and discarding those
already accounted for by a repeated left extension:

    nf(S) = |{y : f(Sy) = 1}| - sum over repeated xS of |{y : f(xSy) = 1
            and f(Sy) = 1}|

Unique right extensions are leaf children; repeated left extensions are
the stored Weiner links (a left extension ending mid-edge has no unique
right extension at all, so it never contributes).

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

_live_count holds this rule for both queries. Off a node only alpha can
score (see _nf_at_locus). online_all_nf runs the sealed sweep, then
recounts with _live_count the few nodes whose count the repeated
suffixes change, found by one walk from the active point.

The subtraction conditions are deliberately symmetric: a pair (x, y) is
discounted only when y is a unique right extension of both xS and S.
Discounting on the xS side alone overcounts, e.g. text "abbaba",
S = "b" would come out -1. A leaf after xS whose edge carries a
repeated suffix has one after S too, whose symbol is then not counted,
so the Weiner sources need no test of their own.

A sealed tree is the live case with an empty active string, so the
online_* functions answer in both states. offline_single_nf_breakdown
takes a sealed tree alone and returns the sets behind one count.
"""

from __future__ import annotations

from typing import NamedTuple

from .implicit_registry import suffix_loci
from .online_builder import OnlineBuilder
from .suffix_tree import KIND_BRANCH, KIND_LEAF, NIL, ROOT, Locus, SuffixTree
from .text_store import Occurrence


class NfReport(NamedTuple):
    """One reported string with positive net frequency.

    occurrence is the leftmost occurrence; node is the arena id whose
    string was reported (for the mid-edge longest-repeated-suffix report
    of a live text, the edge child holding the locus).
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

def _count_at_node(tree: SuffixTree, u: int, lo: int = 1, hi: int = 0) -> tuple[int, set]:
    """Net frequency of str(u) from its stored links alone: leaf children
    whose edge start is not within lo .. hi (both inclusive; an empty
    range tests nothing), less the Weiner pairs (x, y) where y is a leaf
    after x str(u) and one of those leaf symbols. Returns the count and
    the leaf symbols counted."""
    kind = tree.kind
    child_map = tree.child_map
    if lo > hi:
        clean = {y for y, w in child_map[u].items() if kind[w] == KIND_LEAF}
    else:
        edge_start = tree.edge_start
        clean = {y for y, w in child_map[u].items()
                 if kind[w] == KIND_LEAF and not lo <= edge_start[w] <= hi}
    if not clean:
        return 0, clean
    count = len(clean)
    wm = tree.wlink_map[u]
    if wm:
        for w in wm.values():
            for y, p in child_map[w].items():
                if y in clean and kind[p] == KIND_LEAF:
                    count -= 1
    return count, clean


def _node_locus(tree: SuffixTree, s):
    """Branching node whose string is s, or None when s ends anywhere
    else or does not occur."""
    loc = tree.locate(s)
    if loc is None:
        return None
    u, d = loc
    if tree.kind[u] == KIND_LEAF or d < tree.depth_arr[u]:
        return None
    return u


def _require_sealed(tree: SuffixTree) -> None:
    if not tree.sealed:
        raise ValueError("offline queries need a sealed tree")


def offline_single_nf_breakdown(tree: SuffixTree, s) -> NfBreakdown:
    """Net frequency of s against the sealed text, plus the sets it is
    built from."""
    _require_sealed(tree)
    u = _node_locus(tree, s)
    if u is None:
        return NfBreakdown(0, frozenset(), frozenset(), {})
    value, clean = _count_at_node(tree, u)
    kind = tree.kind
    child_map = tree.child_map
    wm = tree.wlink_map[u] or {}
    by_left = {x: frozenset(y for y, p in child_map[w].items()
                            if kind[p] == KIND_LEAF)
               for x, w in wm.items()}
    return NfBreakdown(value, frozenset(clean), frozenset(by_left), by_left)


# -- live queries -------------------------------------------------------------

def _live_count(tree: SuffixTree, u: int, d: int, a: int, ia: int, alpha: int) -> int:
    """Net frequency of str(u), u a branching node of depth d, against a
    text whose longest repeated suffix alpha has length a, leftmost start
    ia (0-based) and locus on the edge into alpha. ia and alpha are read
    only when d <= a."""
    if d < a:
        return _count_at_node(tree, u, ia + d, ia + a)[0]
    phi = _count_at_node(tree, u)[0]
    if d == a and u == alpha:
        phi += 1  # str(u) is alpha: the text end is a unique right extension
    return phi


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
    a = builder.active_depth()
    if tree.kind[u] != KIND_BRANCH or d != tree.depth_arr[u]:
        # Off a node only the longest repeated suffix can score: every
        # unique right extension is a net occurrence and nothing
        # subtracts, since a longer left extension would be a longer
        # repeated suffix. Its extensions are the text end and, on a leaf
        # edge, the one occurrence further left. At a node repeated left
        # extensions are possible ("aabaababa" S="aba") and the full
        # count below runs.
        if d != a or locus != builder.active_locus():
            return 0
        return 2 if tree.kind[u] == KIND_LEAF else 1
    if d > a:
        return _live_count(tree, u, d, a, NIL, NIL)
    alpha = builder.active_locus().node
    return _live_count(tree, u, d, a, tree.start(alpha) - 1, alpha)


# -- all strings ------------------------------------------------------------

def _sweep(tree: SuffixTree) -> list[int]:
    """Net frequency per node with no members, in one pass over branching
    nodes in arbitrary order: each leaf child y of v pays 1 to v's string,
    and takes 1 back from its one-symbol-shorter string (the suffix-link
    target) when y is unique after that string too. O(n) overall."""
    kind = tree.kind
    child_map = tree.child_map
    slink_arr = tree.slink_arr
    phi = [0] * len(kind)
    for v, kv in enumerate(kind):
        if kv != KIND_BRANCH:
            continue
        u = slink_arr[v]
        ucm = child_map[u]
        acc = 0
        for y, w in child_map[v].items():
            if kind[w] == KIND_LEAF:
                acc += 1
                p = ucm.get(y)
                if p is not None and kind[p] == KIND_LEAF:
                    phi[u] -= 1
        phi[v] += acc
    return phi


def _reports(tree: SuffixTree, phi: list[int], extra) -> list[NfReport]:
    """Every branching node with phi >= 1, plus the report extra when
    given, as NfReports ascending by (start, end)."""
    kind = tree.kind
    depth_arr = tree.depth_arr
    start = tree.start
    reports = []
    for v, value in enumerate(phi):
        if value >= 1 and kind[v] == KIND_BRANCH:
            i = start(v)
            reports.append(NfReport(Occurrence(i, i + depth_arr[v] - 1), value, v))
    if extra is not None:
        reports.append(extra)
    reports.sort(key=lambda r: r.occurrence)
    return reports


def online_all_nf(builder: OnlineBuilder) -> list[NfReport]:
    """Every string with positive net frequency against the text so far
    (or the sealed text), leftmost occurrences, ascending by (start, end).
    O(n).

    The memberless sweep gives every node its sealed count. A node's live
    count differs only when a leaf child's suffix starts inside alpha's
    leftmost occurrence; that leaf either carries a repeated suffix, so
    the walk over them from the active point (suffix_loci) meets its
    parent, or str(node) is itself a repeated suffix. The suffix-link
    target of such a parent has a loaded leaf of its own (the suffix one
    position later), so the walk meets it too. Those parents are
    recounted with the single-string rule.

    The repeated suffixes ending exactly on branching nodes form one
    suffix-link chain, from the longest (tau) down to depth 1. Above tau
    the text end, one more unique extension of str(v), and the one symbol
    longer repeated suffix x str(v), which takes it back, cancel, so
    those nodes keep their sweep value and only tau is recounted. The
    longest repeated suffix, when it ends mid-edge, is reported with the
    single-string count.
    """
    builder.ensure_usable()
    tree = builder.tree
    phi = _sweep(tree)
    loci = suffix_loci(builder)
    a = len(loci)
    if not a:
        return _reports(tree, phi, None)
    kind = tree.kind
    parent = tree.parent
    depth_arr = tree.depth_arr
    recount = {parent[w] for w in loci if kind[w] == KIND_LEAF}
    for k, v in enumerate(loci):
        if kind[v] == KIND_BRANCH and a - k == depth_arr[v]:
            recount.add(v)  # tau
            break
    recount.discard(ROOT)
    alpha = loci[0]
    ia = tree.start(alpha) - 1
    for v in recount:
        phi[v] = _live_count(tree, v, depth_arr[v], a, ia, alpha)
    extra = None
    if kind[alpha] != KIND_BRANCH or a != depth_arr[alpha]:
        extra = NfReport(Occurrence(ia + 1, ia + a),
                         _nf_at_locus(builder, Locus(alpha, a)), alpha)
    return _reports(tree, phi, extra)
