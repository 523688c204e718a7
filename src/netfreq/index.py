"""Convenience facade tying the store, builder, and registry view together."""

from __future__ import annotations

from collections.abc import Sequence

from .implicit_registry import (
    CLASS_COINCIDING,
    CLASS_EXTERNAL,
    CLASS_INTERNAL,
    ImplicitRegistry,
)
from .nf_query import NfReport, online_all_nf, online_single_nf
from .online_builder import OnlineBuilder
from .suffix_tree import Locus
from .text_store import TextStore


class NetFrequencyIndex:
    """An append-only text index answering net-frequency queries.

    Symbols stream in through extend()/extend_text(); queries are valid
    between extensions. seal() terminates the text, after which queries
    run against the classic sentinel-terminated tree. Queries read the
    builder's active point; the registry is a read-only view of the
    repeated suffixes, for inspection. An exception that escapes an
    update mid-phase leaves the index unusable: later updates and queries
    raise RuntimeError, chained to that exception.
    """

    def __init__(self, alphabet_size: int = 256):
        self.store = TextStore(alphabet_size)
        self.builder = OnlineBuilder(self.store)
        self.tree = self.builder.tree
        self.registry = ImplicitRegistry(self.builder)

    def __len__(self) -> int:
        return len(self.store)

    @property
    def sealed(self) -> bool:
        return self.store.sealed

    def extend(self, symbol) -> None:
        self.builder.extend(symbol)

    def extend_text(self, text) -> None:
        self.builder.extend_text(text)

    def seal(self) -> None:
        self.builder.seal()

    def single_nf(self, s) -> int:
        """Net frequency of s against the current text."""
        return online_single_nf(self.builder, s)

    def all_nf(self) -> Sequence[NfReport]:
        """All strings of positive net frequency, ascending by occurrence,
        as a read-only sequence of NfReport built on access."""
        return online_all_nf(self.builder)

    def active_locus(self) -> Locus:
        self.builder.ensure_usable()
        return self.builder.active_locus()

    def active_depth(self) -> int:
        self.builder.ensure_usable()
        return self.builder.active_depth()

    def node_count(self) -> int:
        self.builder.ensure_usable()
        return self.tree.node_count()

    def stats(self) -> dict[str, int]:
        """Sizes of the index, derived when called; no counter is kept on
        the update path. n is the text length (with the sentinel once
        sealed); nodes = 1 + branching + leaves. external, internal and
        coinciding count the repeated suffixes by the class of their
        locus, from one walk (ImplicitRegistry.members). branch_rows is
        the length of each branching column (the root's row included)
        and leaf_rows that of leaf_parent, one slot per leaf."""
        members = self.registry.members()
        tree = self.tree
        out = {"n": len(self.store), "active_depth": self.builder.active_depth(),
               "nodes": tree.node_count(), "branching": tree.branching_count(),
               "leaves": tree.leaf_count()}
        for cls in (CLASS_EXTERNAL, CLASS_INTERNAL, CLASS_COINCIDING):
            out[cls] = 0
        for _d, _s, _u, cls in members:
            out[cls] += 1
        out["branch_rows"] = len(tree.lstart)
        out["leaf_rows"] = len(tree.leaf_parent)
        return out

    def dump_tree(self) -> str:
        self.builder.ensure_usable()
        return self.tree.dump()

    def dump_registry(self) -> str:
        return self.registry.dump()
