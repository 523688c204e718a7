"""Scaling gates for the repeated suffixes on the inputs that load them
most: a run closed by a new symbol, a short-period stream queried after
every append, a short-period text built in bulk, and a run re-read after
a new symbol with queries at the end. Each gate times three
sizes, doubling, and requires every doubling to cost between 1.5x and
3.0x, criterion 6's window: linear work with room for noise, where
quadratic work reads about 4x. The sizes are timed in turn, five rounds,
and each keeps its fastest time, so a stretch of other load on the
machine slows one round of every size rather than one size."""

import gc
import time

from netfreq import NetFrequencyIndex

ROUNDS = 5


def _wall(build, n):
    gc.collect()
    start = time.perf_counter()
    build(n)
    return time.perf_counter() - start


def _doubling_ratios(build, sizes):
    best = [float("inf")] * len(sizes)
    for _ in range(ROUNDS):
        for i, n in enumerate(sizes):
            best[i] = min(best[i], _wall(build, n))
    return [big / small for small, big in zip(best, best[1:])], best


def _assert_linear(build, sizes):
    ratios, best = _doubling_ratios(build, sizes)
    for r in ratios:
        assert 1.5 <= r <= 3.0, (sizes, [round(t, 3) for t in best], ratios)


def run_then_new_symbol(k):
    # a^k, one live query with k - 1 repeated suffixes, then b: the
    # append of b drops k - 1 members and splits their leaf edge k - 1 times
    ix = NetFrequencyIndex()
    for _ in range(k):
        ix.extend(97)
    assert ix.single_nf(b"a" * (k - 1)) == 2
    ix.extend(98)
    assert ix.registry.member_count() == 0


def periodic_stream(n):
    # one member per length up to n - 7, every one of them a node deeper
    # at each query until the text outgrows the first period
    unit = b"abcabdc"
    ix = NetFrequencyIndex()
    for c in (unit * (n // len(unit) + 1))[:n]:
        ix.extend(c)
        ix.single_nf(b"ab")
    assert ix.registry.member_count() == n - len(unit)


def short_period_text(n):
    # one bulk build, a live all_nf that walks every member, then a new
    # symbol that drops them all
    ix = NetFrequencyIndex()
    ix.extend_text((b"aab" * (n // 3 + 1))[:n])
    ix.all_nf()
    ix.extend(99)
    ix.all_nf()
    assert ix.registry.member_count() == 0


def run_reread_after_a_new_symbol(k):
    # a^k b, then a^(k/2) one symbol at a time, queried over the last 64
    # appends: the repeated suffixes a^1 .. a^(k/2) each sit on a branching
    # node of the a^k b chain and pass one node per append, so anything
    # that follows them node by node is quadratic here
    ix = NetFrequencyIndex()
    ix.extend_text(b"a" * k + b"b")
    half = k // 2
    for m in range(1, half + 1):
        ix.extend(97)
        if m > half - 64:
            assert ix.single_nf(b"a" * 8) == 0
    assert ix.registry.member_count() == half


def test_run_closed_by_a_new_symbol_scales_linearly():
    _assert_linear(run_then_new_symbol, (40_000, 80_000, 160_000))


def test_periodic_stream_queried_per_append_scales_linearly():
    _assert_linear(periodic_stream, (20_000, 40_000, 80_000))


def test_short_period_text_scales_linearly():
    _assert_linear(short_period_text, (40_000, 80_000, 160_000))


def test_run_reread_after_a_new_symbol_scales_linearly():
    # four inputs per timed call: one takes about 10 ms at k = 4000, short
    # enough for a shared machine's jitter to move a doubling past 1.5
    def four(k):
        for _ in range(4):
            run_reread_after_a_new_symbol(k)
    _assert_linear(four, (4_000, 8_000, 16_000))
