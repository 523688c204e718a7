"""Append-only symbol store with 1-based positions and a sealing step."""

from __future__ import annotations

from operator import index
from typing import NamedTuple


class Occurrence(NamedTuple):
    """Closed 1-based interval [i, j] marking one substring occurrence."""
    i: int
    j: int


def as_symbols(text) -> tuple[int, ...]:
    """Coerce str / bytes / int sequence to a tuple of symbol codes.

    Items of a sequence go through operator.index: ints (bools as the
    ints they equal) pass, while floats and strings raise TypeError
    rather than being truncated or parsed."""
    if isinstance(text, str):
        return tuple(ord(ch) for ch in text)
    if isinstance(text, (bytes, bytearray)):
        return tuple(text)
    return tuple(map(index, text))


class TextStore:
    """Grow-only text over a fixed alphabet of integer codes.

    Symbols are ints in [0, alphabet_size). The sentinel is a distinguished
    extra code (== alphabet_size) that cannot be appended directly; seal()
    appends it exactly once and freezes the store.
    """

    __slots__ = ("alphabet_size", "sentinel", "sealed", "_symbols")

    def __init__(self, alphabet_size: int = 256):
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        self.alphabet_size = alphabet_size
        self.sentinel = alphabet_size
        self.sealed = False
        self._symbols: list[int] = []

    def __len__(self) -> int:
        return len(self._symbols)

    def append(self, c: int) -> int:
        """Append one symbol, returning its 1-based position. The symbol
        goes through operator.index, as in as_symbols."""
        if self.sealed:
            raise ValueError("store is sealed")
        if type(c) is not int:
            c = index(c)
        if not 0 <= c < self.alphabet_size:
            raise ValueError(f"symbol {c!r} outside alphabet [0, {self.alphabet_size})")
        self._symbols.append(c)
        return len(self._symbols)

    def extend(self, codes: tuple[int, ...]) -> None:
        """Append a batch of symbols, all or none: a symbol that is not an
        integer (TypeError) or lies outside the alphabet (ValueError)
        rejects the batch before any of it is appended."""
        if self.sealed:
            raise ValueError("store is sealed")
        codes = list(map(index, codes))
        asz = self.alphabet_size
        if codes and not (0 <= min(codes) and max(codes) < asz):
            c = next(c for c in codes if not 0 <= c < asz)
            raise ValueError(f"symbol {c!r} outside alphabet [0, {asz})")
        self._symbols.extend(codes)

    def seal(self) -> int:
        """Append the sentinel and freeze the store; returns its position."""
        if self.sealed:
            raise ValueError("store is already sealed")
        self._symbols.append(self.sentinel)
        self.sealed = True
        return len(self._symbols)
