"""Next-line instruction prefetching (sequential prefetch).

The paper's introduction frames the problem with the VAX-11/780's 8-byte
prefetching instruction buffer; the natural hardware companion to
compiler placement is next-line prefetch, and because placement makes
instruction streams *more* sequential, the two should compose.  This
module implements the two classic schemes over a direct-mapped cache:

* **prefetch-on-miss** — a demand miss to block ``b`` also fetches
  ``b+1`` (if absent);
* **tagged prefetch** (Gindele) — every block carries a tag bit set when
  the block arrives by prefetch; the *first demand reference* to a
  tagged block also triggers a prefetch of the next block, so a
  sequential run keeps exactly one block of lookahead in flight.

Reported: demand miss ratio, total traffic (demand + prefetch), and
prefetch accuracy (fraction of prefetched blocks that were used before
eviction).

The loop runs over the trace's block runs only.  After a run's first
access its block is resident with the tag bit clear (a miss installs it
untagged; a first use clears the bit), so every repeat is a plain hit
that changes nothing — except in a one-set cache, where the next-line
prefetch displaces the block being fetched; that geometry replays every
access.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.base import (
    BUS_WORD_BYTES,
    as_trace,
    check_geometry,
    finish,
    granule_runs,
)

__all__ = ["PrefetchStats", "simulate_prefetch"]


@dataclass(frozen=True)
class PrefetchStats:
    """Outcome of one prefetching-cache simulation."""

    accesses: int
    demand_misses: int
    prefetches: int
    useful_prefetches: int
    words_transferred: int

    @property
    def miss_ratio(self) -> float:
        """Demand misses per instruction access."""
        return self.demand_misses / self.accesses if self.accesses else 0.0

    @property
    def traffic_ratio(self) -> float:
        """Bus words (demand + prefetch) per instruction access."""
        return self.words_transferred / self.accesses if self.accesses else 0.0

    @property
    def accuracy(self) -> float:
        """Fraction of prefetched blocks referenced before eviction."""
        return (
            self.useful_prefetches / self.prefetches if self.prefetches
            else 0.0
        )


def simulate_prefetch(
    addresses: np.ndarray,
    cache_bytes: int,
    block_bytes: int,
    policy: str = "tagged",
) -> PrefetchStats:
    """Run a trace through a direct-mapped cache with next-line prefetch.

    ``policy`` is ``"on-miss"`` or ``"tagged"``.
    """
    num_sets = check_geometry(cache_bytes, block_bytes)
    if policy not in ("on-miss", "tagged"):
        raise ValueError(f"unknown prefetch policy {policy!r}")
    tagged_policy = policy == "tagged"
    addresses = as_trace(addresses)
    shift = block_bytes.bit_length() - 1
    if num_sets > 1:
        heads, blocks = granule_runs(addresses, shift)
    else:   # the next line displaces the block being fetched
        heads, blocks = np.arange(len(addresses)), addresses >> shift

    set_mask = num_sets - 1
    tags = [-1] * num_sets
    tag_bit = [False] * num_sets      # block arrived by prefetch, unused yet
    positions: list[int] = []
    evictors: list[int] = []
    prefetches = 0
    useful = 0

    def prefetch(block: int) -> None:
        nonlocal prefetches
        index = block & set_mask
        if tags[index] == block:
            return                    # already resident
        tags[index] = block
        tag_bit[index] = True
        prefetches += 1

    for position, block in zip(heads.tolist(), blocks.tolist()):
        index = block & set_mask
        if tags[index] == block:
            if tag_bit[index]:
                # First demand use of a prefetched block.
                tag_bit[index] = False
                useful += 1
                if tagged_policy:
                    prefetch(block + 1)
            continue
        positions.append(position)
        evictors.append(tags[index])
        tags[index] = block
        tag_bit[index] = False
        prefetch(block + 1)

    words_per_block = block_bytes // BUS_WORD_BYTES
    stats = PrefetchStats(
        accesses=len(addresses),
        demand_misses=len(positions),
        prefetches=prefetches,
        useful_prefetches=useful,
        words_transferred=(len(positions) + prefetches) * words_per_block,
    )
    # 3C applies to the demand-miss stream; the shadow has no prefetcher,
    # so "conflict" here is a demand miss a fully-associative non-
    # prefetching cache of the same size would have hit.
    finish(
        addresses, positions, evictors, stats.words_transferred,
        organization=f"prefetch/{policy}", cache_bytes=cache_bytes,
        block_bytes=block_bytes, num_sets=num_sets,
        extras={"prefetches": float(prefetches), "accuracy": stats.accuracy},
    )
    return stats
