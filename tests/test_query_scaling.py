"""Scaling gate for the O(|S|) single query: on a^k b every a^m sits on a
branching node of depth m, so locating it crosses m nodes, and its count
reads a constant number of children and links. b leaves no repeated
suffix, so the live count tests no leaf range. The text is built once,
untimed; a batch of queries a^m is timed for m = k/8, k/4 and k/2, live
and sealed, and each doubling of m must cost between 1.5x and 3.0x, the
window of the registry gates (tests/test_registry_scaling.py). The sizes
are timed in turn, five rounds, and each keeps its fastest time."""

import gc
import time

import pytest

from netfreq import NetFrequencyIndex

ROUNDS = 5
K = 32_768
BATCH = 50


def _wall(ix, q):
    gc.collect()
    start = time.perf_counter()
    for _ in range(BATCH):
        ix.single_nf(q)
    return time.perf_counter() - start


@pytest.mark.parametrize("sealed", [False, True], ids=["live", "sealed"])
def test_single_query_scales_linearly_in_its_length(sealed):
    ix = NetFrequencyIndex()
    ix.extend_text(b"a" * K + b"b")
    if sealed:
        ix.seal()
    assert ix.active_depth() == 0
    queries = [b"a" * (K // 8), b"a" * (K // 4), b"a" * (K // 2)]
    for q in queries:
        # the occurrence before b is the only one with a unique right
        # extension, and its left extension a^(m+1) is repeated
        assert ix.single_nf(q) == 0
        loc = ix.tree.locate(q)
        assert loc.node > 0 and ix.tree.depth(loc.node) == len(q)
    best = [float("inf")] * len(queries)
    for _ in range(ROUNDS):
        for i, q in enumerate(queries):
            best[i] = min(best[i], _wall(ix, q))
    ratios = [big / small for small, big in zip(best, best[1:])]
    for r in ratios:
        assert 1.5 <= r <= 3.0, ([round(t, 4) for t in best], ratios)
