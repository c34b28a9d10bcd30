"""Instruction paging simulation (the paper's Section 5, second research
direction: "experiments on the instruction paging performance.  The design
parameters under investigation include working set size, page size, and
page sectoring").

Three measurements over an instruction-fetch address trace:

* :func:`simulate_paging` — page faults under LRU with a fixed number of
  resident page frames;
* :func:`simulate_sectored_paging` — the same with page *sectoring*: a
  fault brings in only the touched sector of the page, trading fewer
  transferred bytes for extra sector faults (the page-level analogue of
  the Table 8 sector cache);
* :func:`working_set_profile` — Denning working-set statistics: the mean
  and peak number of distinct pages touched in a sliding window.

The IMPACT-I region split (effective code packed together, never-executed
code moved away) is precisely a paging optimisation — "when a page is
transferred from the secondary memory to the main memory, all the bytes
of that page are likely to be used" — and these simulators are what make
that claim measurable.

Both LRU simulators replay only the trace's page (or sector) runs: a
repeat of the unit just referenced hits and refreshes a recency the run
head already set, so it changes nothing — and instruction fetches are
overwhelmingly same-page sequential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.base import (
    BUS_WORD_BYTES,
    as_trace,
    finish,
    granule_runs,
    lru_misses,
    require_power_of_two,
)

__all__ = [
    "PagingStats",
    "WorkingSetStats",
    "simulate_paging",
    "simulate_sectored_paging",
    "working_set_profile",
]


@dataclass(frozen=True)
class PagingStats:
    """Outcome of one paging simulation."""

    accesses: int
    faults: int
    bytes_transferred: int
    distinct_pages: int

    @property
    def fault_ratio(self) -> float:
        """Faults per instruction access."""
        return self.faults / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class WorkingSetStats:
    """Denning working-set statistics for one window size."""

    window: int
    mean_pages: float
    peak_pages: int


def simulate_paging(
    addresses: np.ndarray, page_bytes: int, resident_pages: int
) -> PagingStats:
    """LRU paging with ``resident_pages`` frames of ``page_bytes`` each."""
    require_power_of_two(page_bytes, "page_bytes")
    if resident_pages < 1:
        raise ValueError("need at least one resident page")
    addresses = as_trace(addresses)
    heads, pages = granule_runs(addresses, page_bytes.bit_length() - 1)

    positions, evictors = lru_misses(heads, pages, 1, resident_pages)

    stats = PagingStats(
        accesses=len(addresses),
        faults=len(positions),
        bytes_transferred=len(positions) * page_bytes,
        distinct_pages=len(np.unique(pages)),
    )
    # The fill unit is a page and the real cache *is* fully-associative
    # LRU, so classification degenerates to compulsory + capacity — a
    # useful degenerate case the 3C tests pin (conflict == 0).
    finish(
        addresses, positions, evictors,
        stats.bytes_transferred // BUS_WORD_BYTES,
        organization="paging", cache_bytes=page_bytes * resident_pages,
        block_bytes=page_bytes, num_sets=None,
    )
    return stats


def simulate_sectored_paging(
    addresses: np.ndarray,
    page_bytes: int,
    resident_pages: int,
    sector_bytes: int,
) -> PagingStats:
    """LRU paging where a fault loads only the touched page sector.

    A page is resident or not as a whole (it occupies a frame), but its
    sectors become valid lazily; touching an invalid sector of a resident
    page is a (cheap) sector fault.
    """
    require_power_of_two(page_bytes, "page_bytes")
    require_power_of_two(sector_bytes, "sector_bytes")
    if sector_bytes > page_bytes:
        raise ValueError("sector larger than page")
    if resident_pages < 1:
        raise ValueError("need at least one resident page")

    addresses = as_trace(addresses)
    sector_shift = sector_bytes.bit_length() - 1
    # Sectors per page as a shift: the eviction of a whole page charges
    # the displaced page's first sector as the 3C evictor.
    pages_shift = page_bytes.bit_length() - 1 - sector_shift
    sector_mask = (1 << pages_shift) - 1
    heads, sectors = granule_runs(addresses, sector_shift)

    lru: list[int] = []
    valid: dict[int, int] = {}      # page -> sector bitmap
    positions: list[int] = []
    evictors: list[int] = []
    for position, sector in zip(heads.tolist(), sectors.tolist()):
        page = sector >> pages_shift
        bit = 1 << (sector & sector_mask)
        evicted = -1
        try:
            lru.remove(page)
        except ValueError:
            if len(lru) >= resident_pages:
                evicted = lru.pop()
                valid.pop(evicted, None)
            valid[page] = 0
        lru.insert(0, page)
        if not valid[page] & bit:
            valid[page] |= bit
            positions.append(position)
            evictors.append(-1 if evicted < 0 else evicted << pages_shift)

    stats = PagingStats(
        accesses=len(addresses),
        faults=len(positions),
        bytes_transferred=len(positions) * sector_bytes,
        distinct_pages=len(np.unique(sectors >> pages_shift)),
    )
    # The fill unit is a sector, so the 3C shadow is a fully-associative
    # sector cache of the same byte capacity.
    finish(
        addresses, positions, evictors,
        stats.bytes_transferred // BUS_WORD_BYTES,
        organization=f"sectored-paging/{sector_bytes}B",
        cache_bytes=page_bytes * resident_pages, block_bytes=page_bytes,
        num_sets=None, granule_bytes=sector_bytes,
    )
    return stats


def working_set_profile(
    addresses: np.ndarray, page_bytes: int, window: int
) -> WorkingSetStats:
    """Mean/peak distinct pages over sliding windows of ``window`` fetches.

    Windows are evaluated at half-window stride, which is plenty for the
    mean/peak statistics and keeps the computation linear.
    """
    require_power_of_two(page_bytes, "page_bytes")
    if window < 1:
        raise ValueError("window must be positive")
    pages = np.asarray(addresses, dtype=np.int64) >> (
        page_bytes.bit_length() - 1
    )
    n = len(pages)
    if n == 0:
        return WorkingSetStats(window=window, mean_pages=0.0, peak_pages=0)

    stride = max(window // 2, 1)
    sizes = []
    for start in range(0, max(n - window, 0) + 1, stride):
        sizes.append(len(np.unique(pages[start:start + window])))
    if not sizes:
        sizes = [len(np.unique(pages))]
    return WorkingSetStats(
        window=window,
        mean_pages=float(np.mean(sizes)),
        peak_pages=int(max(sizes)),
    )
