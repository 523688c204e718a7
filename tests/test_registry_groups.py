"""Registry groups under queries: members moved by the query-time sync,
and the filing of groups by the text length at which they cross."""

import random

from netfreq import NetFrequencyIndex

DNA = b"acgt"


def tandem_text(rng):
    """Random gaps and tandem repeats of four units (periods 1 to 4), then
    one more repeat of the period-1 unit: its members sit on the nodes the
    first run left behind and move at every query."""
    units = [b"a", b"cg", b"tac", b"gatc"]
    rng.shuffle(units)
    parts = []
    for unit in units:
        parts.append(bytes(rng.choice(DNA) for _ in range(rng.randrange(3, 12))))
        parts.append(unit * rng.randrange(3, 15))
    parts.append(bytes(rng.choice(DNA) for _ in range(rng.randrange(2, 6))))
    parts.append(b"a" * rng.randrange(3, 20))
    return b"".join(parts)


def test_moved_members_land_in_start_order():
    # A sync can move members of several groups onto one edge, some deeper
    # than members already there; each group must stay in start order,
    # which verify() checks against a from-scratch recomputation.
    rng = random.Random(41)
    for _ in range(200):
        text = tandem_text(rng)
        for every in (3, 5):
            ix = NetFrequencyIndex()
            for k, c in enumerate(text, 1):
                ix.extend(c)
                if k % every == 0:
                    ix.registry.verify(ix.active_depth())


def test_filing_dropped_by_a_bulk_build_is_rebuilt():
    # A long bulk build files far more groups than stay alive, so the
    # filing is dropped; the next sync checks every group and files them
    # again, after which queries between appends use the filing.
    rng = random.Random(43)
    text = (b"abaab" * 400) + bytes(rng.choice(DNA) for _ in range(500)) + b"abaab" * 60
    ix = NetFrequencyIndex()
    ix.extend_text(text)
    reg = ix.registry
    assert reg._due is None
    reg.verify(ix.active_depth())
    assert reg._due is not None
    for c in b"abaabab" * 20 + b"c":
        ix.extend(c)
        reg.verify(ix.active_depth())
