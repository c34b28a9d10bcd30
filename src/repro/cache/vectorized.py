"""Exact, vectorised direct-mapped cache simulation.

A direct-mapped cache has a closed-form miss condition: an access misses
iff the *previous access to the same set* touched a different memory
block (or there was none).  The kernel applies it to the trace's block
runs (a repeat of the block just fetched always hits): grouping the runs
by set index with a stable argsort turns the whole simulation into a
handful of numpy comparisons, and the block a miss evicts is simply its
predecessor in that order.  Results are identical to the sequential
reference in :mod:`repro.cache.direct` (the property-based tests assert
this).

This is what makes sweeping ten workloads across the paper's full
cache-size x block-size grid cheap.
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
    residencies,
    trace_order,
)

__all__ = ["simulate_direct_vectorized", "direct_mapped_miss_mask"]


def _direct_misses(
    addresses: np.ndarray, cache_bytes: int, block_bytes: int
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel: ``(positions, evictors)`` of every miss, in trace order."""
    num_sets = check_geometry(cache_bytes, block_bytes)
    heads, blocks = granule_runs(addresses, block_bytes.bit_length() - 1)
    order, start, evicted = residencies(blocks, num_sets)
    return trace_order(heads, order, start, evicted)


def direct_mapped_miss_mask(
    addresses: np.ndarray, cache_bytes: int, block_bytes: int
) -> np.ndarray:
    """Boolean mask (trace order): True where the access misses."""
    addresses = as_trace(addresses)
    positions, _ = _direct_misses(addresses, cache_bytes, block_bytes)
    miss = np.zeros(len(addresses), dtype=bool)
    miss[positions] = True
    return miss


def simulate_direct_vectorized(
    addresses: np.ndarray, cache_bytes: int, block_bytes: int
) -> CacheStats:
    """Vectorised equivalent of :func:`repro.cache.direct.simulate_direct`."""
    addresses = as_trace(addresses)
    positions, evictors = _direct_misses(addresses, cache_bytes, block_bytes)
    return finish(
        addresses, positions, evictors,
        len(positions) * (block_bytes // BUS_WORD_BYTES),
        organization="direct-vectorized", cache_bytes=cache_bytes,
        block_bytes=block_bytes, num_sets=cache_bytes // block_bytes,
    )
