"""Input generators for the benchmark workloads.

Every generator is a pure function of (length, random source): the
runner derives one random source per round from the command-line seed,
so the same seed always produces the same texts and queries. The index
only ever sees the finished inputs.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

DNA = b"acgt"
QUERY_BATCH = 2048      # live-then-sealed single_nf queries per round, at most
STREAM_QUERY_EVERY = 16  # appends between two mid-stream queries
MIN_QUERY, MAX_QUERY = 4, 32
SAMPLE_N = 384          # symbols of the small input checked against the oracle


@dataclass
class Inputs:
    """Everything one round feeds the index, fixed before the round starts.

    bulk: the text goes in with one extend_text call; otherwise it is
        streamed with one extend() per symbol.
    queries: the batch asked live after the last append, then sealed.
    probes: text length -> query issued right after that many appends.
    allnf_at: text lengths after which a live all_nf runs mid-stream.
    check_at: text lengths whose mid-stream answers are checked against
        an index rebuilt on that prefix and sealed.
    sample: a small input of the same workload, replayed and checked
        against the brute-force oracle.
    """
    text: bytes
    bulk: bool
    queries: list[bytes]
    probes: dict[int, bytes] = field(default_factory=dict)
    allnf_at: frozenset[int] = frozenset()
    check_at: tuple[int, ...] = ()
    sample: Inputs | None = None


def _batch(n: int) -> int:
    return min(QUERY_BATCH, n // STREAM_QUERY_EVERY)


def _sample(generate, n: int, rng: random.Random) -> Inputs | None:
    return generate(SAMPLE_N, rng) if n > SAMPLE_N else None


def _substrings(text: bytes, count: int, rng: random.Random) -> list[bytes]:
    out = []
    for _ in range(count):
        m = rng.randint(MIN_QUERY, MAX_QUERY)
        i = rng.randrange(len(text) - m + 1)
        out.append(text[i:i + m])
    return out


def bulk_random4(n: int, rng: random.Random) -> Inputs:
    text = bytes(rng.choices(DNA, k=n))
    queries = _substrings(text, _batch(n), rng)
    return Inputs(text, True, queries, sample=_sample(bulk_random4, n, rng))


# A fixed vocabulary, identical for every seed: the seed only picks which
# words are drawn, so the alphabet and word-length profile never move.
_vocab_rng = random.Random(20240801)
VOCAB = [bytes(_vocab_rng.choices(b"abcdefghijklmnopqrstuvwxyz",
                                  k=_vocab_rng.choice((2, 3, 3, 4, 4, 5, 5, 6, 7, 8, 9, 10))))
         for _ in range(2000)]
# Zipf weights with exponent 1: the word of rank r is drawn with weight 1/r
_ZIPF_CUM = list(itertools.accumulate(1.0 / rank for rank in range(1, len(VOCAB) + 1)))


def bulk_words(n: int, rng: random.Random) -> Inputs:
    parts = []
    word_starts = []
    size = 0
    while size < n:
        words = rng.choices(VOCAB, cum_weights=_ZIPF_CUM, k=rng.randint(4, 14))
        for k, w in enumerate(words):
            word_starts.append(size)
            sep = b". " if k == len(words) - 1 else b" "
            parts.append(w + sep)
            size += len(w) + len(sep)
    text = b"".join(parts)[:n]
    # queries are whole words or phrases of up to three words
    queries = []
    while len(queries) < _batch(n):
        i = rng.choice(word_starts)
        j = i
        for _ in range(rng.randint(1, 3)):
            k = text.find(b" ", j + 1)
            if k < 0 or k - i > MAX_QUERY:
                break
            j = k
        q = text[i:j].rstrip(b".")
        if MIN_QUERY <= len(q):
            queries.append(q)
    return Inputs(text, True, queries, sample=_sample(bulk_words, n, rng))


# (period, share of n) of the inserted repeats. The pairing is fixed so the
# registry work per round does not depend on the seed: the seed shuffles
# their order and draws the repeat units and the background. Units are
# primitive and pairwise distinct, so each repeat builds fresh structure;
# one extra repeat at the end reuses the unit of the first period-1 run,
# which puts every registry member on internal edges where each append
# moves them past a branching node (the query-time sync's worst case).
# The text ends with that repeat, so the final queries and all the
# end-of-round checks meet a loaded registry.
TANDEM_REPEATS = ((1, 1 / 8), (2, 1 / 12), (3, 1 / 16), (4, 1 / 16),
                  (5, 1 / 24), (6, 1 / 24), (7, 1 / 32), (8, 1 / 32),
                  (1, 1 / 48), (3, 1 / 48), (5, 1 / 64), (7, 1 / 64))
TANDEM_REUSE_SHARE = 1 / 48
CHECKED_REPEATS = 3  # repeats checked besides the three with a mid-stream all_nf


def _fresh_unit(period: int, taken: set[bytes], rng: random.Random) -> bytes:
    """A primitive unit none of whose rotations is already in use."""
    while True:
        u = bytes(rng.choices(DNA, k=period))
        rotations = {u[i:] + u[:i] for i in range(period)}
        if len(rotations) == period and not rotations & taken:
            taken.update(rotations)
            return u


def stream_tandem(n: int, rng: random.Random) -> Inputs:
    repeats = list(TANDEM_REPEATS)
    rng.shuffle(repeats)
    taken: set[bytes] = set()
    plan = [(_fresh_unit(p, taken, rng), max(1, int(n * share)))
            for p, share in repeats]
    first_run = next(u for u, _ in plan if len(u) == 1)
    plan.append((first_run, max(1, int(n * TANDEM_REUSE_SHARE))))
    background = n - sum(length for _, length in plan)
    gap = background // len(plan)
    parts = [bytes(rng.choices(DNA, k=background - gap * len(plan)))]
    spans = []  # (first, last) text length inside each repeat
    size = len(parts[0])
    for unit, length in plan:
        parts.append(bytes(rng.choices(DNA, k=gap)))
        parts.append((unit * (length // len(unit) + 1))[:length])
        size += gap + length
        spans.append((size - length + 1, size))
    text = b"".join(parts)
    probes = {}
    for t in range(STREAM_QUERY_EVERY, n + 1, STREAM_QUERY_EVERY):
        m = rng.randint(MIN_QUERY, min(MAX_QUERY, t))
        end = t - rng.randrange(min(MAX_QUERY, t - m) + 1)
        probes[t] = text[end - m:end]
    # one probe at least 16 symbols deep in every repeat long enough; those
    # nearest a quarter, half and three quarters of the stream also run the
    # mid-stream all_nf. Those three and three more are checked.
    deep = []
    for first, last in spans:
        inside = [t for t in range(first + STREAM_QUERY_EVERY, last + 1) if t in probes]
        if inside:
            deep.append(rng.choice(inside))
    allnf_at = {min(deep, key=lambda t: abs(t - n * k // 4)) for k in (1, 2, 3)}
    others = [t for t in deep if t not in allnf_at]
    check_at = sorted(allnf_at.union(rng.sample(others, min(CHECKED_REPEATS, len(others)))))
    queries = rng.sample(list(probes.values()), _batch(n))
    return Inputs(text, False, queries, probes, frozenset(allnf_at), tuple(check_at),
                  _sample(stream_tandem, n, rng))


WORKLOADS = {
    "bulk_random4": (bulk_random4, 1 << 16),
    "bulk_words": (bulk_words, 1 << 16),
    "stream_tandem": (stream_tandem, 1 << 15),
}
"""name -> (generator, symbols per round)."""
