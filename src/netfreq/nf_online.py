"""Net-frequency queries on the live, unsealed tree.

Mid-stream there is no sentinel, so the end of the text acts as a
virtual unique extension of every suffix of the text read so far. The
repeated suffixes are exactly the registry members; their loci change
the counting in three ways. A leaf child only certifies a unique right
extension if its edge carries no member (otherwise the extended string
occurs again as a suffix). A query string that is itself a member gains
one unique right extension (the text end). And a member one symbol
longer than the query subtracts like a repeated left extension, even
when it ends mid-edge and therefore has no node of its own.

The subtraction conditions here are deliberately symmetric: a pair
(x, y) is discounted only when y is a unique right extension of both xS
and S, each certified leaf-plus-clean-edge. Discounting on the xS side
alone overcounts, e.g. text "abbaba", S = "b" would come out -1.
"""

from __future__ import annotations

from typing import NamedTuple

from .implicit_registry import ImplicitRegistry
from .nf_offline import NfReport
from .online_builder import OnlineBuilder
from .suffix_tree import KIND_BRANCH, KIND_LEAF, Locus, SuffixTree
from .text_store import Occurrence, as_symbols


class ImplicitWeinerTarget(NamedTuple):
    """Locus of a repeated suffix of the form x + S, one deeper than the
    queried S; node is the edge child holding it."""
    node: int
    depth: int


def rho(tree: SuffixTree, registry: ImplicitRegistry, locus: Locus) -> int:
    """Number of unique right extensions of the repeated suffix ending at
    locus, counting the text end as one. Always >= 1."""
    u, d = locus
    if registry.member_at_depth(d) != u:
        raise ValueError("locus is not a repeated-suffix locus")
    kind = tree.kind
    if kind[u] == KIND_LEAF:
        return 2 if registry.deepest_implicit_on_edge(u) == d else 1
    if d == tree.depth_arr[u]:
        total = 1
        for _y, w in tree.child_map[u].items():
            if kind[w] == KIND_LEAF and not registry.has_implicit_on_edge(w):
                total += 1
        return total
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


def online_single_nf(builder: OnlineBuilder, registry: ImplicitRegistry, s) -> int:
    """Net frequency of s against the text read so far. O(|s|)."""
    q = as_symbols(s)
    if not q:
        raise ValueError("empty query")
    loc = builder.tree.locate(q)
    if loc is None:
        return 0
    return _nf_at_locus(builder, registry, loc)


def _nf_at_locus(builder: OnlineBuilder, registry: ImplicitRegistry,
                 locus: Locus) -> int:
    tree = builder.tree
    u, d = locus
    kind = tree.kind
    if locus == builder.active_locus() \
            and (kind[u] != KIND_BRANCH or d != tree.depth_arr[u]):
        # longest repeated suffix with a mid-edge locus: every unique right
        # extension is a net occurrence and nothing subtracts. Off the node
        # any longer left extension would be a longer repeated suffix, which
        # cannot exist; at a node repeated left extensions are possible
        # ("aabaababa" S="aba") and the full cascade below must run.
        return rho(tree, registry, locus)
    if kind[u] == KIND_LEAF or d < tree.depth_arr[u]:
        return 0
    coincides = registry.member_at_depth(d) == u
    child_map = tree.child_map
    has_imp = registry.has_implicit_on_edge
    phi = 1 if coincides else 0
    clean_leaf = {}
    for y, w in child_map[u].items():
        if kind[w] == KIND_LEAF and not has_imp(w):
            phi += 1
            clean_leaf[y] = True
    if phi == 0:
        return 0
    wm = tree.wlink_map[u]
    if wm:
        for w in wm.values():
            for y, p in child_map[w].items():
                if kind[p] == KIND_LEAF and y in clean_leaf and not has_imp(p):
                    phi -= 1
    if not coincides:
        return phi
    q = registry.member_at_depth(d + 1)
    if q is not None:
        # the longer repeated suffix is x + S: its suffix of length d is
        # the repeated suffix of length d, which is S here
        phi -= 1  # both sides end the text, a vacuously unique pair
        if kind[q] == KIND_LEAF and registry.deepest_implicit_on_edge(q) == d + 1:
            # symbol following x + S along its leaf edge; the occurrence
            # aligned with the edge start gives its text position
            y = builder.store._symbols[tree.start(q) - 1 + d + 1]
            if y in clean_leaf:
                phi -= 1
    return phi


def online_all_nf(builder: OnlineBuilder, registry: ImplicitRegistry) -> list[NfReport]:
    """Every string with positive net frequency against the text so far,
    leftmost occurrences, ascending by (start, end). O(n).

    The branching-node sweep mirrors the sealed one, with member-aware
    counting. The longest repeated suffix, when it ends mid-edge, is
    reported straight from rho; when it ends on a branching node the
    sweep covers it. The longest member whose locus lands exactly on a
    branching node is the single string whose subtraction involves a
    mid-edge member, so its slot is recomputed by the single-string
    cascade.
    """
    tree = builder.tree
    store = builder.store
    n = len(store)
    if n == 0:
        return []
    kind = tree.kind
    child_map = tree.child_map
    slink_arr = tree.slink_arr
    depth_arr = tree.depth_arr
    registry._sync()  # the sweep reads the record dicts directly
    member_node = registry._member_node
    edge_members = registry._edge_members
    count = len(kind)
    phi = [0] * count
    maybe_positive = False
    for v, kv in enumerate(kind):
        if kv != KIND_BRANCH:
            continue
        u = slink_arr[v]
        ucm = child_map[u]
        acc = 0
        if member_node.get(n - depth_arr[v]) == v:
            acc = 1
            phi[u] -= 1  # text end is unique after both v's string and its tail
        for y, w in child_map[v].items():
            if kind[w] == KIND_LEAF and w not in edge_members:
                acc += 1
                p = ucm.get(y)
                if p is not None and kind[p] == KIND_LEAF and p not in edge_members:
                    phi[u] -= 1
        if acc:
            phi[v] += acc
            if phi[v] >= 1:
                # only subtractions follow, so final positives are flagged
                maybe_positive = True
    tau = registry.longest_coinciding()
    if tau is not None:
        vt, dt = tau
        phi[vt] = _nf_at_locus(builder, registry, Locus(vt, dt))
        if phi[vt] >= 1:
            maybe_positive = True
    alpha = None
    if builder.active_depth() > 0:
        aloc = builder.active_locus()
        if kind[aloc.node] != KIND_BRANCH or aloc.d != depth_arr[aloc.node]:
            value = rho(tree, registry, aloc)
            if value >= 1:
                alpha = (aloc.node, aloc.d, value)
    reports = []
    if alpha is not None or maybe_positive:
        start = tree.start
        for v in range(1, count):
            if kind[v] == KIND_BRANCH and phi[v] >= 1:
                i = start(v)
                reports.append(NfReport(Occurrence(i, i + depth_arr[v] - 1), phi[v], v))
        if alpha is not None:
            node, d, value = alpha
            i = start(node)
            reports.append(NfReport(Occurrence(i, i + d - 1), value, node))
        reports.sort(key=lambda r: r.occurrence)
    return reports
