"""One stateful differential over the public operations of the index.

Hypothesis drives extend, extend_text (sometimes with a symbol it must
reject), single_nf, all_nf, stats and seal in any order over texts of
up to 60 symbols from alphabets of 1 to 3 symbols. After every step the
index must agree with the brute-force oracles: all_nf row for row, the
repeated suffixes with their classes, and the arena contract.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from arena_checks import check_arena
from netfreq import (
    CLASS_COINCIDING,
    CLASS_EXTERNAL,
    CLASS_INTERNAL,
    NetFrequencyIndex,
    oracle_all_nf,
    oracle_nf,
    oracle_repeated_suffixes,
)

MAX_LEN = 60
CLASSES = (CLASS_EXTERNAL, CLASS_INTERNAL, CLASS_COINCIDING)


def expected_rows(text, sealed):
    """(i, j, nf) of every string of positive net frequency, at its
    leftmost occurrence, ascending by (i, j)."""
    t = bytes(text)
    rows = []
    for s, nf in oracle_all_nf(text, sealed=sealed):
        i = t.find(bytes(s)) + 1
        rows.append((i, i + len(s) - 1, nf))
    return sorted(rows)


def expected_suffixes(text):
    """(depth, 1-based start, class) of every repeated suffix of the
    unsealed text, longest first, from the text alone. A string ends at
    a branching node when two or more symbols follow its occurrences.
    Otherwise its locus lies on the edge into the first such node its
    one-symbol extensions reach (internal), or into a leaf when they run
    out of following symbols first (external)."""
    t = bytes(text)
    n = len(t)
    follow: dict[bytes, set] = {}
    for i in range(n):
        for j in range(i + 1, n):
            follow.setdefault(t[i:j], set()).add(t[j])
    out = []
    for d, _s in oracle_repeated_suffixes(t):
        w = t[n - d:]
        nxt = follow[w]  # it occurs earlier, so something follows it
        cls = CLASS_COINCIDING if len(nxt) > 1 else None
        while cls is None:
            w += bytes(nxt)
            nxt = follow.get(w, ())
            if len(nxt) != 1:
                cls = CLASS_INTERNAL if nxt else CLASS_EXTERNAL
        out.append((d, n - d + 1, cls))
    return out


def rows_of(result):
    return [(r.occurrence.i, r.occurrence.j, r.nf) for r in result]


class IndexMachine(RuleBasedStateMachine):

    @initialize(sigma=st.integers(1, 3))
    def start(self, sigma):
        self.sigma = sigma
        self.ix = NetFrequencyIndex(alphabet_size=sigma)
        self.text: list[int] = []
        self.kept = []  # (all_nf result, its rows when returned)

    def symbols(self, max_size):
        return st.lists(st.integers(0, self.sigma - 1), max_size=max_size)

    def open_room(self):
        return not self.ix.sealed and len(self.text) < MAX_LEN

    @precondition(open_room)
    @rule(data=st.data())
    def extend(self, data):
        c = data.draw(st.integers(0, self.sigma - 1))
        self.ix.extend(c)
        self.text.append(c)

    @precondition(open_room)
    @rule(data=st.data())
    def extend_text(self, data):
        part = data.draw(self.symbols(MAX_LEN - len(self.text)))
        self.ix.extend_text(data.draw(st.sampled_from((list, tuple, bytes)))(part))
        self.text.extend(part)

    @precondition(lambda self: not self.ix.sealed)
    @rule(data=st.data())
    def extend_text_with_a_bad_symbol(self, data):
        part = data.draw(self.symbols(8))
        bad = data.draw(st.one_of(st.integers(self.sigma, 300), st.integers(-3, -1),
                                  st.sampled_from((1.5, "a", None))))
        part.insert(data.draw(st.integers(0, len(part))), bad)
        with pytest.raises((TypeError, ValueError)):
            self.ix.extend_text(part)

    @precondition(lambda self: self.ix.sealed)
    @rule()
    def extend_after_seal(self):
        with pytest.raises(ValueError):
            self.ix.extend(0)
        with pytest.raises(ValueError):
            self.ix.extend_text([0])

    @rule(data=st.data())
    def single_nf(self, data):
        t = self.text
        if t and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(t) - 1))
            s = t[i:data.draw(st.integers(i + 1, len(t)))]
        else:  # the code sigma is outside the alphabet (the sentinel's)
            s = data.draw(st.lists(st.integers(0, self.sigma), min_size=1, max_size=6))
        assert self.ix.single_nf(s) == oracle_nf(t, s, sealed=self.ix.sealed), s

    @rule()
    def all_nf(self):
        result = self.ix.all_nf()
        self.kept.append((result, rows_of(result)))

    @rule()
    def stats(self):
        got = self.ix.stats()
        suffixes = self.suffixes()
        a = suffixes[0][0] if suffixes else 0
        n = len(self.ix)
        assert (got["n"], got["active_depth"], got["leaves"]) == (n, a, n - a)
        assert got["nodes"] == 1 + got["branching"] + got["leaves"] == self.ix.node_count()
        for cls in CLASSES:
            assert got[cls] == sum(c == cls for _d, _s, c in suffixes), cls

    @precondition(lambda self: not self.ix.sealed)
    @rule()
    def seal(self):
        self.ix.seal()

    def suffixes(self):
        return [] if self.ix.sealed else expected_suffixes(self.text)

    @invariant()
    def agrees_with_the_oracles(self):
        ix = self.ix
        assert ix.store._symbols[:len(self.text)] == self.text
        assert len(ix) == len(self.text) + ix.sealed
        assert rows_of(ix.all_nf()) == expected_rows(self.text, ix.sealed)
        check_arena(ix.tree)
        got = [(d, s, c) for d, s, _u, c in ix.builder.repeated_suffixes()]
        assert got == self.suffixes()
        for result, rows in self.kept:
            assert rows_of(result) == rows


IndexMachine.TestCase.settings = settings(max_examples=300, stateful_step_count=50,
                                          deadline=None)
test_index_agrees_with_the_oracles = IndexMachine.TestCase
