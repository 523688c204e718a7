"""Net-frequency queries on a sealed suffix tree.

The net frequency of a repeated string S counts its occurrences that
are maximal on both sides: extending by the preceding or the following
symbol gives a string that occurs exactly once. On the sealed tree this
reduces to counting unique right extensions of S and discarding those
already accounted for by a repeated left extension:

    nf(S) = |{y : f(Sy) = 1}| - sum over repeated xS of |{y : f(xSy) = 1
            and f(Sy) = 1}|

Unique right extensions are leaf children; repeated left extensions are
exactly the stored Weiner links (a left extension ending mid-edge has
no unique right extension at all, so it never contributes).
"""

from __future__ import annotations

from typing import NamedTuple

from .suffix_tree import KIND_BRANCH, KIND_LEAF, ROOT, SuffixTree
from .text_store import Occurrence, as_symbols


class NfReport(NamedTuple):
    """One reported string with positive net frequency.

    occurrence is the leftmost occurrence; node is the arena id whose
    string was reported (for the mid-edge longest-repeated-suffix report
    of the online variant, the edge child holding the locus).
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


def _require_sealed(tree: SuffixTree) -> None:
    if not tree.sealed:
        raise ValueError("offline queries need a sealed tree")


def offline_single_nf(tree: SuffixTree, s) -> int:
    """Net frequency of s against the sealed text. O(|s|) plus the
    constant-bounded Weiner fan-out."""
    _require_sealed(tree)
    q = as_symbols(s)
    if not q:
        raise ValueError("empty query")
    loc = tree.locate(q)
    if loc is None:
        return 0
    u, d = loc
    kind = tree.kind
    if kind[u] == KIND_LEAF or d < tree.depth_arr[u]:
        return 0
    child_map = tree.child_map
    base = 0
    u_leaf_syms = set()
    for y, w in child_map[u].items():
        if kind[w] == KIND_LEAF:
            base += 1
            u_leaf_syms.add(y)
    if base == 0:
        return 0
    sub = 0
    wm = tree.wlink_map[u]
    if wm:
        for w in wm.values():
            for y, p in child_map[w].items():
                if kind[p] == KIND_LEAF and y in u_leaf_syms:
                    sub += 1
    return base - sub


def offline_single_nf_breakdown(tree: SuffixTree, s) -> NfBreakdown:
    """offline_single_nf plus the sets it is built from."""
    _require_sealed(tree)
    q = as_symbols(s)
    if not q:
        raise ValueError("empty query")
    loc = tree.locate(q)
    empty = NfBreakdown(0, frozenset(), frozenset(), {})
    if loc is None:
        return empty
    u, d = loc
    kind = tree.kind
    if kind[u] == KIND_LEAF or d < tree.depth_arr[u]:
        return empty
    child_map = tree.child_map
    right_unique = frozenset(y for y, w in child_map[u].items()
                             if kind[w] == KIND_LEAF)
    if not right_unique:
        return NfBreakdown(0, right_unique, frozenset(), {})
    wm = tree.wlink_map[u] or {}
    by_left = {x: frozenset(y for y, p in child_map[w].items()
                            if kind[p] == KIND_LEAF)
               for x, w in wm.items()}
    value = len(right_unique) - sum(len(ys & right_unique)
                                    for ys in by_left.values())
    return NfBreakdown(value, right_unique, frozenset(by_left), by_left)


def offline_all_nf(tree: SuffixTree) -> list[NfReport]:
    """Every string with positive net frequency, one report each, with
    its leftmost occurrence, ascending by (start, end).

    Single pass over branching nodes in arbitrary order: each leaf child
    y of v pays 1 to v's string, and takes 1 back from its one-symbol-
    shorter string (the suffix-link target) when y is unique after that
    string too. O(n) overall.
    """
    _require_sealed(tree)
    kind = tree.kind
    child_map = tree.child_map
    slink_arr = tree.slink_arr
    depth_arr = tree.depth_arr
    count = len(kind)
    phi = [0] * count
    any_positive = False
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
        if acc:
            phi[v] += acc
            if phi[v] >= 1:
                # later subtractions only lower it; no positives can appear
                # after this flag stays unset
                any_positive = True
    if not any_positive:
        return []
    start = tree.start
    reports = []
    for v in range(1, count):
        if kind[v] == KIND_BRANCH and phi[v] >= 1:
            i = start(v)
            reports.append(NfReport(Occurrence(i, i + depth_arr[v] - 1), phi[v], v))
    reports.sort(key=lambda r: r.occurrence)
    return reports
