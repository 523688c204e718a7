"""Brute-force reference implementations for differential testing.

Everything here works by naive scanning and counting over plain symbol
tuples. Nothing is shared with the suffix tree or the production net
frequency code; that separation is the whole point.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

# Oracle-internal end marker appended in sealed mode. Negative, so it can
# never collide with a real symbol code.
END = -1


def _codes(text) -> tuple[int, ...]:
    if isinstance(text, str):
        return tuple(ord(ch) for ch in text)
    if isinstance(text, (bytes, bytearray)):
        return tuple(text)
    return tuple(map(index, text))


def _count(t: tuple, s: tuple) -> int:
    m = len(s)
    return sum(1 for i in range(len(t) - m + 1) if t[i:i + m] == s)


def oracle_nf(text, s, sealed: bool = False) -> int:
    """Net frequency of s in text, straight from the definition.

    An occurrence [i, j] is a net occurrence when the string occurs at
    least twice, its one-symbol left extension is unique (or i is the
    first position), and its one-symbol right extension is unique (or j
    is the last position). Sealing appends an end marker, which makes
    the right-boundary case fall out of the ordinary counts.
    """
    t = _codes(text)
    if sealed:
        t = t + (END,)
    q = _codes(s)
    m = len(q)
    if m == 0:
        raise ValueError("empty query")
    n = len(t)
    occ = [i for i in range(n - m + 1) if t[i:i + m] == q]
    if len(occ) < 2:
        return 0
    nf = 0
    for i in occ:
        left_ok = i == 0 or _count(t, t[i - 1:i + m]) == 1
        right_ok = i + m == n or _count(t, t[i:i + m + 1]) == 1
        if left_ok and right_ok:
            nf += 1
    return nf


def oracle_all_nf(text, sealed: bool = False) -> list[tuple[tuple[int, ...], int]]:
    """All strings with positive net frequency, as (symbols, nf) pairs.

    Enumerates repeated substrings length by length with position tables;
    a substring of length L can only repeat if its length L-1 prefix does,
    so the sweep stops by itself. Results sorted by (length, symbols).
    """
    t = _codes(text)
    if sealed:
        t = t + (END,)
    n = len(t)
    out = []
    length = 1
    positions: dict[tuple, list[int]] = {}
    for i in range(n):
        positions.setdefault(t[i:i + 1], []).append(i)
    while positions:
        repeated = {s: ps for s, ps in positions.items() if len(ps) >= 2}
        if not repeated:
            break
        longer: dict[tuple, list[int]] = {}
        for i in range(n - length):
            longer.setdefault(t[i:i + length + 1], []).append(i)
        for s, ps in repeated.items():
            nf = 0
            for i in ps:
                left_ok = i == 0 or len(longer[t[i - 1:i + length]]) == 1
                right_ok = i + length == n or len(longer[t[i:i + length + 1]]) == 1
                if left_ok and right_ok:
                    nf += 1
            if nf >= 1:
                out.append((s, nf))
        positions = longer
        length += 1
    out.sort(key=lambda pair: (len(pair[0]), pair[0]))
    return out


def _occurs_before_suffix(t: tuple, length: int) -> bool:
    # True when the length-symbol suffix of t also occurs starting earlier.
    n = len(t)
    suf = t[n - length:]
    if all(0 <= c < 256 for c in t):
        b = bytes(t)
        return b.find(bytes(suf)) < n - length
    return any(t[i:i + length] == suf for i in range(n - length))


def oracle_repeated_suffixes(text, max_length: int | None = None) -> list[tuple[int, tuple[int, ...]]]:
    """Suffixes of text that occur at least twice, longest first.

    Returns (length, symbols) pairs. max_length optionally caps the search
    (callers tracking a text incrementally know the longest repeated suffix
    grows by at most one per appended symbol); every reported length is
    still verified by a fresh scan.
    """
    t = _codes(text)
    n = len(t)
    top = n - 1 if max_length is None else min(max_length, n - 1)
    out = []
    for length in range(top, 0, -1):
        if _occurs_before_suffix(t, length):
            out.append((length, t[n - length:]))
    return out


def naive_implicit_tree(text):
    """Canonical form of the implicit suffix tree, built the slow way.

    Inserts every suffix into a plain trie, then splices unary chains.
    The form is a nested tuple (edge_symbols, child_forms) with children
    in symbol order, comparable against SuffixTree.canonical_form().
    """
    t = _codes(text)
    n = len(t)
    root: dict = {}
    for i in range(n):
        node = root
        for c in t[i:]:
            node = node.setdefault(c, {})

    def form(label: tuple, node: dict):
        while len(node) == 1:
            (c, nxt), = node.items()
            label = label + (c,)
            node = nxt
        kids = tuple(form((c,), node[c]) for c in sorted(node))
        return (label, kids)

    return ((), tuple(form((c,), root[c]) for c in sorted(root)))
