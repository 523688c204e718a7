"""suffix_loci on loaded streams: the locus the walk from the active
point finds for every repeated suffix equals a descent from the root
(tree.locate), on tandem streams and after a bulk build."""

import random

from loci_checks import check_loci
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
    # check_loci() checks every locus, in start order, against a
    # descent from the root.
    rng = random.Random(41)
    for _ in range(200):
        text = tandem_text(rng)
        for every in (3, 5):
            ix = NetFrequencyIndex()
            for k, c in enumerate(text, 1):
                ix.extend(c)
                if k % every == 0:
                    check_loci(ix.registry)


def test_verify_after_a_bulk_build_and_every_append():
    # a long bulk build, then per-symbol appends that re-read the period,
    # checked after the build and after every append
    rng = random.Random(43)
    text = (b"abaab" * 400) + bytes(rng.choice(DNA) for _ in range(500)) + b"abaab" * 60
    ix = NetFrequencyIndex()
    ix.extend_text(text)
    check_loci(ix.registry)
    for c in b"abaabab" * 20 + b"c":
        ix.extend(c)
        check_loci(ix.registry)
