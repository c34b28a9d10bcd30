"""Partial-block loading (paper Section 4.2.2, Table 8 "partial" columns).

"An alternative scheme is to load only part of the missing block, from the
accessed location to the end of that block or to a valid entry previously
loaded in.  The processor resumes execution as soon as the accessed
location comes back from main memory."

One tag per block plus a valid bit per 4-byte word.  On a miss:

* tag mismatch — the whole block is repurposed (all words invalidated),
  then words load from the missed word to the end of the block;
* tag match with an invalid word — words load from the missed word up to
  the first already-valid word (or block end).

Reported alongside miss and traffic ratios:

* ``avg_fetch`` — mean 4-byte entities transferred per miss (the paper's
  ``avg.fetch``);
* ``avg_exec`` — mean number of consecutive instructions used from a miss
  point until a taken branch (any fetch-address discontinuity) or the next
  miss (the paper's ``avg.exec``).

The kernel is exact and vectorized, by a **suffix invariant**: the valid
words of a resident block always form a suffix ``[s, end)`` of it.  An
install fills ``[w, end)``; a later miss at ``w < s`` fills ``[w, s)``,
up to the first valid word, which leaves the suffix ``[w, end)``.  So
within a block's residency episode (a maximal same-block stretch of its
set's references in stable set order, as in the plain direct-mapped
kernel) ``s`` is the running minimum of the words referenced, an access
at word ``w`` misses iff it opens the episode or ``w < s``, and it moves
``end - w`` or ``s - w`` words.  An access to the same block as its
trace predecessor at a word no lower always hits and leaves ``s`` alone,
so those are dropped before the sort.
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import (
    BUS_WORD_BYTES,
    CacheStats,
    as_trace,
    check_geometry,
    finish,
    residencies,
    trace_order,
)

__all__ = ["simulate_partial"]


def simulate_partial(
    addresses: np.ndarray, cache_bytes: int, block_bytes: int
) -> CacheStats:
    """Run a trace through a partial-loading direct-mapped cache."""
    num_sets = check_geometry(cache_bytes, block_bytes)
    addresses = as_trace(addresses)
    words_per_block = block_bytes // BUS_WORD_BYTES
    # Words per block as a shift: a displaced tag is charged to the 3C
    # probe as its block's first word (the fill unit is a word).
    words_shift = words_per_block.bit_length() - 1

    # Same block as the predecessor, at a word no lower: always a hit
    # that leaves the valid suffix as it is.
    words = addresses >> (BUS_WORD_BYTES.bit_length() - 1)
    blocks = words >> words_shift
    keep = np.ones(len(addresses), dtype=bool)
    keep[1:] = (blocks[1:] != blocks[:-1]) | (words[1:] < words[:-1])
    heads = np.flatnonzero(keep)

    order, start, evicted = residencies(blocks[heads], num_sets)
    word = words[heads][order] & (words_per_block - 1)
    # Running minimum word per episode: lowering every later episode by
    # a whole block keeps the accumulated minimum from leaking across
    # episode starts, while differences within an episode are unchanged.
    level = word - np.cumsum(start) * words_per_block
    valid_from = np.minimum.accumulate(level)
    previous = np.zeros_like(valid_from)    # row 0 always starts one
    previous[1:] = valid_from[:-1]
    miss_sorted = start | (level < previous)
    fill = np.where(start, words_per_block - word, previous - level)
    words_transferred = int(fill[miss_sorted].sum())
    positions, evictors = trace_order(
        heads, order, miss_sorted, evicted, words_shift
    )

    extras = _execution_run_stats(addresses, positions)
    extras["avg_fetch"] = (
        words_transferred / len(positions) if len(positions) else 0.0
    )
    return finish(
        addresses, positions, evictors, words_transferred,
        organization="partial", cache_bytes=cache_bytes,
        block_bytes=block_bytes, num_sets=num_sets,
        granule_bytes=BUS_WORD_BYTES, extras=extras,
    )


def _execution_run_stats(
    addresses: np.ndarray, miss_positions: np.ndarray
) -> dict[str, float]:
    """Compute ``avg_exec``: instructions used from each miss point until
    a fetch discontinuity or the next miss, whichever comes first."""
    if len(miss_positions) == 0:
        return {"avg_exec": 0.0}
    n = len(addresses)
    # Positions p where the fetch after p is not sequential (taken branch,
    # call, return, inserted-jump landing...).  The run started at a miss
    # ends after such a position.
    breaks = np.nonzero(
        addresses[1:] != addresses[:-1] + BUS_WORD_BYTES
    )[0]
    # End-of-trace always terminates a run.
    breaks = np.append(breaks, n - 1)
    # For each miss at position m, the first break >= m closes the run at
    # that break (inclusive); the next miss may close it sooner.
    next_break = breaks[np.searchsorted(breaks, miss_positions, side="left")]
    run_end = next_break + 1
    next_miss = np.append(miss_positions[1:], n)
    run_end = np.minimum(run_end, next_miss)
    lengths = run_end - miss_positions
    return {"avg_exec": float(lengths.mean())}
