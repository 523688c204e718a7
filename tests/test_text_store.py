"""Append-only store behavior: positions, bounds, sealing, naive counts."""

import pytest

from netfreq import Occurrence, TextStore, as_symbols


def test_append_returns_one_based_positions():
    st = TextStore()
    assert [st.append(c) for c in b"abc"] == [1, 2, 3]
    assert len(st) == 3


def test_symbol_at_and_substring_are_one_based_inclusive():
    st = TextStore()
    for c in b"abcd":
        st.append(c)
    assert st.symbol_at(1) == ord("a")
    assert st.symbol_at(4) == ord("d")
    assert st.substring(2, 3) == (ord("b"), ord("c"))
    assert st.substring(1, 4) == tuple(b"abcd")
    with pytest.raises(ValueError):
        st.substring(3, 2)


def test_symbol_range_is_enforced():
    st = TextStore(alphabet_size=4)
    st.append(0)
    st.append(3)
    with pytest.raises(ValueError):
        st.append(4)
    with pytest.raises(ValueError):
        st.append(-1)


def test_position_bounds_raise():
    st = TextStore()
    st.append(ord("a"))
    with pytest.raises(ValueError):
        st.symbol_at(0)
    with pytest.raises(ValueError):
        st.symbol_at(2)


def test_seal_appends_sentinel_and_freezes():
    st = TextStore(alphabet_size=4)
    st.append(1)
    st.seal()
    assert st.sealed
    assert len(st) == 2
    # sentinel sits one past the alphabet, at the final position
    assert st.sentinel == 4
    assert st.symbol_at(2) == 4
    with pytest.raises(ValueError):
        st.append(0)
    with pytest.raises(ValueError):
        st.seal()


def test_as_symbols_accepts_str_bytes_and_ints():
    assert as_symbols("ab") == (97, 98)
    assert as_symbols(b"ab") == (97, 98)
    assert as_symbols([97, 98]) == (97, 98)
    assert as_symbols("") == ()


def test_occurrence_fields():
    occ = Occurrence(2, 5)
    assert (occ.i, occ.j) == (2, 5)


def test_store_rejects_non_integer_symbols():
    st = TextStore(alphabet_size=4)
    st.append(True)
    st.extend((2, False))
    assert st._symbols == [1, 2, 0]
    assert all(type(c) is int for c in st._symbols)
    with pytest.raises(TypeError):
        st.append(1.5)
    with pytest.raises(TypeError):
        st.append("a")
    # a batch is all or nothing: nothing before the float is kept
    with pytest.raises(TypeError):
        st.extend((1, 2.5, True))
    with pytest.raises(ValueError):
        st.extend((1, 4))
    assert st._symbols == [1, 2, 0]
