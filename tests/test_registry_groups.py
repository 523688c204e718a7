"""The registry view on loaded streams: the loci the walk from the
active point finds equal a descent from the root for every member, on
tandem streams and after a bulk build."""

import random

from netfreq import NetFrequencyIndex

DNA = b"acgt"


def tandem_text(rng):
    """Random gaps and tandem repeats of four units (periods 1 to 4), then
    one more repeat of the period-1 unit: its members sit on the nodes the
    first run left behind, one deeper at every append."""
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
    # Members of several lengths share edges, some deeper than others;
    # verify() checks every locus, in start order, against a
    # from-scratch recomputation.
    rng = random.Random(41)
    for _ in range(200):
        text = tandem_text(rng)
        for every in (3, 5):
            ix = NetFrequencyIndex()
            for k, c in enumerate(text, 1):
                ix.extend(c)
                if k % every == 0:
                    ix.registry.verify(ix.active_depth())


def test_verify_after_a_bulk_build_and_every_append():
    # a long bulk build, then per-symbol appends that re-read the period,
    # checked after the build and after every append
    rng = random.Random(43)
    text = (b"abaab" * 400) + bytes(rng.choice(DNA) for _ in range(500)) + b"abaab" * 60
    ix = NetFrequencyIndex()
    ix.extend_text(text)
    reg = ix.registry
    reg.verify(ix.active_depth())
    for c in b"abaabab" * 20 + b"c":
        ix.extend(c)
        reg.verify(ix.active_depth())
