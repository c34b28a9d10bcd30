"""Set-associative and fully associative caches with LRU replacement.

The paper's published baseline (its Table 1) is A. J. Smith's *fully
associative* design-target miss ratios; this module lets us simulate that
organisation directly on our own traces, so the headline comparison
("an optimized direct-mapped cache beats an unoptimized fully associative
one") can be reproduced end to end rather than only against constants.

The kernel replays only the trace's block runs.  A repeat of the block
just referenced is a hit that makes it most recently used, which it
already is, so dropping it changes neither the miss stream nor any set's
LRU order; the loop then touches each run head once, as a Python int.
:meth:`SetAssociativeCache.access` stays the access-by-access reference
the tests compare the kernel with.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cache.base import (
    BUS_WORD_BYTES,
    CacheStats,
    as_trace,
    check_geometry,
    finish,
    granule_runs,
    lru_misses,
)

__all__ = ["SetAssociativeCache", "simulate_set_associative", "simulate_fully_associative"]


class SetAssociativeCache:
    """An n-way set-associative cache with true LRU replacement.

    ``associativity`` equal to the number of blocks makes it fully
    associative; 1 makes it direct-mapped (and agrees with
    :mod:`repro.cache.direct`, a property the tests check).
    """

    def __init__(
        self, cache_bytes: int, block_bytes: int, associativity: int
    ) -> None:
        self.cache_bytes = cache_bytes
        self.block_bytes = block_bytes
        self.associativity = associativity
        self.num_sets = check_geometry(cache_bytes, block_bytes, associativity)
        self._block_shift = block_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        # Each set is an MRU-first list of block numbers.
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.accesses = 0
        self.misses = 0
        #: Per-set conflict-miss counts (index -> misses landing there).
        self.set_misses = [0] * self.num_sets

    def access(self, address: int) -> bool:
        """Fetch one instruction; returns True on hit."""
        self.accesses += 1
        block = address >> self._block_shift
        index = block & self._set_mask
        lru = self._sets[index]
        try:
            lru.remove(block)
        except ValueError:
            self.misses += 1
            self.set_misses[index] += 1
            if len(lru) >= self.associativity:
                lru.pop()
            lru.insert(0, block)
            return False
        lru.insert(0, block)
        return True

    def stats(self) -> CacheStats:
        """Snapshot of the metrics so far (whole-block fills)."""
        return CacheStats(
            accesses=self.accesses,
            misses=self.misses,
            words_transferred=self.misses * (
                self.block_bytes // BUS_WORD_BYTES
            ),
        )


def simulate_set_associative(
    addresses: Iterable[int],
    cache_bytes: int,
    block_bytes: int,
    associativity: int,
) -> CacheStats:
    """Run a full trace through an n-way LRU cache."""
    num_sets = check_geometry(cache_bytes, block_bytes, associativity)
    addresses = as_trace(addresses)
    heads, blocks = granule_runs(addresses, block_bytes.bit_length() - 1)
    positions, evictors = lru_misses(heads, blocks, num_sets, associativity)
    return finish(
        addresses, positions, evictors,
        len(positions) * (block_bytes // BUS_WORD_BYTES),
        organization=f"{associativity}-way", cache_bytes=cache_bytes,
        block_bytes=block_bytes, num_sets=num_sets,
    )


def simulate_fully_associative(
    addresses: Iterable[int], cache_bytes: int, block_bytes: int
) -> CacheStats:
    """Fully associative LRU: one set holding every block."""
    return simulate_set_associative(
        addresses, cache_bytes, block_bytes,
        associativity=cache_bytes // block_bytes,
    )
