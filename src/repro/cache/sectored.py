"""Sectored (sub-block) direct-mapped cache (paper Section 4.2.2, Table 8).

"One approach to decreasing the memory traffic ratio and the cache miss
penalty while increasing the miss ratio is to partition each block into
sectors and only bring in the accessed sector upon cache miss."

One tag covers the whole block; each sector has a valid bit.  A tag
mismatch invalidates every sector and loads only the accessed one, so each
miss transfers ``sector_bytes`` instead of ``block_bytes`` — halving-or-
better the traffic of traffic-heavy programs at the cost of forgoing the
spatial locality the placement algorithm worked to create (which is why
the paper finds the miss-ratio increase can outweigh the gain).

The kernel is exact and vectorized.  The tag array behaves exactly like a
plain direct-mapped cache of the same blocks, so a block's *residency
episode* is a maximal same-block stretch of its set's references in
stable set order (see :func:`repro.cache.base.residencies`).  Valid bits
start empty at the episode's first reference and a sector, once loaded,
stays valid until the episode ends.  So a reference misses iff it is the
**first touch of its sector within its block's episode**, and it evicts
the previous tag only when it opens the episode.  Repeats of the sector
just fetched always hit, so the kernel sees only sector runs.
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import (
    BUS_WORD_BYTES,
    CacheStats,
    as_trace,
    check_geometry,
    finish,
    granule_runs,
    require_power_of_two,
    residencies,
    trace_order,
)

__all__ = ["simulate_sectored"]


def simulate_sectored(
    addresses: np.ndarray,
    cache_bytes: int,
    block_bytes: int,
    sector_bytes: int,
) -> CacheStats:
    """Run a trace through a sectored direct-mapped cache.

    The paper's Table 8 uses 8-byte sectors inside 64-byte blocks of a
    2048-byte cache.
    """
    require_power_of_two(sector_bytes, "sector_bytes")
    num_sets = check_geometry(cache_bytes, block_bytes)
    if sector_bytes > block_bytes:
        raise ValueError("need sector_bytes <= block_bytes <= cache_bytes")

    addresses = as_trace(addresses)
    sector_shift = sector_bytes.bit_length() - 1
    # Sector numbers per block, as a shift: a block's first sector is
    # ``block << sectors_shift``, which is how a displaced tag is charged
    # as the evictor in the 3C probe (the fill unit is a sector).
    sectors_shift = block_bytes.bit_length() - 1 - sector_shift
    heads, sectors = granule_runs(addresses, sector_shift)
    order, start, evicted = residencies(sectors >> sectors_shift, num_sets)

    # Sorted row -> (episode, sector within the block); a miss is the
    # first row of each distinct key.
    episode = np.cumsum(start)
    offset = sectors[order] & ((1 << sectors_shift) - 1)
    _, first = np.unique(
        (episode << sectors_shift) | offset, return_index=True
    )
    miss_sorted = np.zeros(len(heads), dtype=bool)
    miss_sorted[first] = True
    positions, evictors = trace_order(
        heads, order, miss_sorted, evicted, sectors_shift
    )
    return finish(
        addresses, positions, evictors,
        len(positions) * (sector_bytes // BUS_WORD_BYTES),
        organization=f"sectored/{sector_bytes}B", cache_bytes=cache_bytes,
        block_bytes=block_bytes, num_sets=num_sets,
        granule_bytes=sector_bytes,
    )
