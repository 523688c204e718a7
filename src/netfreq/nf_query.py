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

Off a node only alpha can score (see _nf_at_locus).

The subtraction conditions are deliberately symmetric: a pair (x, y) is
discounted only when y is a unique right extension of both xS and S.
Discounting on the xS side alone overcounts, e.g. text "abbaba",
S = "b" would come out -1. A leaf after xS whose edge carries a
repeated suffix has one after S too, whose symbol is then not counted,
so the Weiner sources need no test of their own.

A sealed tree is the live case with an empty active string, so the
online_* functions answer in both states; the offline_* functions are
the same counts restricted to a sealed tree.
"""

from __future__ import annotations

from typing import NamedTuple

from .implicit_registry import ImplicitRegistry, suffix_loci
from .online_builder import OnlineBuilder
from .suffix_tree import KIND_BRANCH, KIND_LEAF, ROOT, Locus, SuffixTree
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


class ImplicitWeinerTarget(NamedTuple):
    """Locus of a repeated suffix of the form x + S, one deeper than the
    queried S; node is the edge child holding it."""
    node: int
    depth: int


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


def offline_single_nf(tree: SuffixTree, s) -> int:
    """Net frequency of s against the sealed text. O(|s|) plus the
    constant-bounded Weiner fan-out."""
    _require_sealed(tree)
    u = _node_locus(tree, s)
    return 0 if u is None else _count_at_node(tree, u)[0]


def offline_single_nf_breakdown(tree: SuffixTree, s) -> NfBreakdown:
    """offline_single_nf plus the sets it is built from."""
    _require_sealed(tree)
    u = _node_locus(tree, s)
    if u is None:
        return NfBreakdown(0, frozenset(), frozenset(), {})
    value, clean = _count_at_node(tree, u)
    right_unique = frozenset(clean)
    if not right_unique:
        return NfBreakdown(0, right_unique, frozenset(), {})
    kind = tree.kind
    child_map = tree.child_map
    wm = tree.wlink_map[u] or {}
    by_left = {x: frozenset(y for y, p in child_map[w].items()
                            if kind[p] == KIND_LEAF)
               for x, w in wm.items()}
    return NfBreakdown(value, right_unique, frozenset(by_left), by_left)


# -- live queries -------------------------------------------------------------

def rho(tree: SuffixTree, registry: ImplicitRegistry, locus: Locus) -> int:
    """Number of unique right extensions of the repeated suffix ending at
    locus, counting the text end as one. Always >= 1."""
    u, d = locus
    if registry.member_at_depth(d) != u:
        raise ValueError("locus is not a repeated-suffix locus")
    if tree.kind[u] == KIND_LEAF:
        return 2 if registry.deepest_implicit_on_edge(u) == d else 1
    if d == tree.depth_arr[u]:
        kind = tree.kind
        return 1 + sum(1 for w in tree.child_map[u].values()
                       if kind[w] == KIND_LEAF and not registry.has_implicit_on_edge(w))
    return 1


def implicit_weiner_links(tree: SuffixTree, registry: ImplicitRegistry,
                          locus: Locus) -> list[ImplicitWeinerTarget]:
    """Loci of repeated suffixes x + S for the string S ending exactly at
    the branching node locus.node. At most one exists: the repeated
    suffix one longer than S, whose tail of length |S| is S itself."""
    u, d = locus
    if tree.kind[u] != KIND_BRANCH or d != tree.depth_arr[u] \
            or not registry.coincides_with_branching(u):
        raise ValueError("locus must coincide with a branching node")
    q = registry.member_at_depth(d + 1)
    if q is None:
        return []
    return [ImplicitWeinerTarget(q, d + 1)]


def online_single_nf(builder: OnlineBuilder, s) -> int:
    """Net frequency of s against the text read so far, or against the
    sealed text once it is sealed. O(|s|)."""
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
    if d < a:
        i = tree.start(builder.active_locus().node) - 1  # leftmost start of alpha
        return _count_at_node(tree, u, i + d, i + a)[0]
    phi = _count_at_node(tree, u)[0]
    if d == a and locus == builder.active_locus():
        phi += 1  # the text end is a unique right extension of S
    return phi


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


def offline_all_nf(tree: SuffixTree) -> list[NfReport]:
    """Every string with positive net frequency, one report each, with
    its leftmost occurrence, ascending by (start, end). O(n)."""
    _require_sealed(tree)
    return _reports(tree, _sweep(tree), None)


def online_all_nf(builder: OnlineBuilder) -> list[NfReport]:
    """Every string with positive net frequency against the text so far
    (or the sealed text), leftmost occurrences, ascending by (start, end).
    O(n).

    The memberless sweep, then what the repeated suffixes change, found
    by one walk over them from the active point (suffix_loci). A leaf
    edge carrying one certifies no unique extension: its parent v loses
    the 1 it was paid, slink(v) gets back the 1 it gave for the same
    symbol, and v gets back the 1 each Weiner source with a clean leaf on
    that symbol took.

    A repeated suffix ending exactly on a branching node v has the text
    end as one more unique extension, after str(v) and after
    str(slink(v)) alike: +1 at v, -1 at slink(v). Those suffixes form one
    suffix-link chain, from the longest (tau) down to depth 1, because a
    suffix of a repeated right-branching suffix is one too. So the pairs
    cancel except at the root, which is never reported, and at tau, the
    single string whose subtraction also involves a mid-edge repeated
    suffix; its slot is recomputed by the single-string count. The
    longest repeated suffix, when it ends mid-edge, is reported with the
    single-string count too.
    """
    tree = builder.tree
    phi = _sweep(tree)
    kind = tree.kind
    parent = tree.parent
    edge_start = tree.edge_start
    depth_arr = tree.depth_arr
    slink_arr = tree.slink_arr
    child_map = tree.child_map
    wlink_map = tree.wlink_map
    syms = builder.store._symbols
    loci = suffix_loci(builder)
    loaded = {w for w in loci if kind[w] == KIND_LEAF}
    for w in loaded:
        v = parent[w]
        if v == ROOT:
            continue  # the sweep pays the root nothing
        phi[v] -= 1
        y = syms[edge_start[w]]
        u = slink_arr[v]
        p = child_map[u].get(y)
        if p is not None and kind[p] == KIND_LEAF:
            phi[u] += 1
        wm = wlink_map[v]
        if wm:
            for src in wm.values():
                p = child_map[src].get(y)
                if p is not None and kind[p] == KIND_LEAF and p not in loaded:
                    phi[v] += 1
    a = len(loci)
    for k, v in enumerate(loci):
        if kind[v] == KIND_BRANCH and a - k == depth_arr[v]:
            phi[v] = _nf_at_locus(builder, Locus(v, a - k))  # tau
            break
    extra = None
    if a:
        aloc = builder.active_locus()
        node, d = aloc
        if kind[node] != KIND_BRANCH or d != depth_arr[node]:
            i = tree.start(node)
            extra = NfReport(Occurrence(i, i + d - 1), _nf_at_locus(builder, aloc), node)
    return _reports(tree, phi, extra)
