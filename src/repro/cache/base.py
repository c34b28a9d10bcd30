"""Common result types, geometry checks and the one kernel shape of the
cache simulators.

Metric definitions are pinned by the paper's own numbers (see DESIGN.md):

* **miss ratio** — misses / instruction accesses (one access per 4-byte
  instruction fetch);
* **memory traffic ratio** — 4-byte bus words transferred from memory /
  instruction accesses.  A 2K-byte cache with 64-byte blocks at the
  paper's average 0.5% miss ratio transfers 16 words per miss, giving the
  abstract's 8% traffic ratio.

Every simulator is a pure kernel over the trace's **granule runs** — the
maximal runs of consecutive accesses to one fill unit (block, sector,
word or page).  A repeated access to the fill unit just fetched is a hit
in every organization and changes no replacement state, so a kernel
looks only at run heads.  It returns the trace positions of its misses,
the granule each miss displaced, and the bus words it moved; :func:`finish`
turns those into :class:`CacheStats` and everything the instrumentation
sinks want (per-set miss counts, the miss sample, the 3C probe and the
``cache_sim`` event).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.obs import context

__all__ = [
    "CacheStats",
    "as_trace",
    "check_geometry",
    "finish",
    "granule_runs",
    "lru_misses",
    "miss_sample",
    "require_power_of_two",
    "residencies",
    "top_sets",
    "trace_order",
    "BUS_WORD_BYTES",
    "MISS_SAMPLE_CAP",
]

#: Width of the memory bus in bytes (paper Section 4.2.1: "a 4-byte
#: memory bus").
BUS_WORD_BYTES = 4
#: Most miss addresses a ``cache_sim`` event carries.
MISS_SAMPLE_CAP = 256


@dataclass(frozen=True)
class CacheStats:
    """Outcome of simulating one address trace through one cache."""

    accesses: int
    misses: int
    words_transferred: int
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def miss_ratio(self) -> float:
        """Misses per instruction access."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def traffic_ratio(self) -> float:
        """Memory bus words transferred per instruction access."""
        return self.words_transferred / self.accesses if self.accesses else 0.0

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.accesses} accesses, {self.misses} misses "
            f"(miss {100 * self.miss_ratio:.2f}%, "
            f"traffic {100 * self.traffic_ratio:.2f}%)"
        )


def require_power_of_two(value: int, name: str) -> int:
    """Validate a cache geometry parameter."""
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")
    return value


def check_geometry(cache_bytes: int, block_bytes: int, assoc: int = 1) -> int:
    """Validate a cache geometry; return its number of sets.

    ``assoc`` is the ways per set: 1 is direct-mapped, the block count
    fully associative.  Raises :class:`ValueError` naming the first
    parameter that is out of range.
    """
    require_power_of_two(cache_bytes, "cache_bytes")
    require_power_of_two(block_bytes, "block_bytes")
    if block_bytes > cache_bytes:
        raise ValueError("block larger than cache")
    num_blocks = cache_bytes // block_bytes
    if not 1 <= assoc <= num_blocks:
        raise ValueError(
            f"associativity must be in [1, {num_blocks}], got {assoc}"
        )
    if num_blocks % assoc:
        raise ValueError("associativity must divide the block count")
    return num_blocks // assoc


def as_trace(addresses) -> np.ndarray:
    """An address trace (array, list or any iterable) as an int64 array."""
    if isinstance(addresses, np.ndarray):
        return addresses.astype(np.int64, copy=False)
    return np.fromiter(addresses, dtype=np.int64)


def granule_runs(
    addresses: np.ndarray, shift: int
) -> tuple[np.ndarray, np.ndarray]:
    """The trace's maximal runs of accesses to one ``2**shift``-byte granule.

    Returns ``(heads, granules)``: each run's first trace position and its
    granule number.
    """
    granules = addresses >> shift
    n = len(granules)
    if n == 0:
        return np.empty(0, dtype=np.int64), granules
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(granules[1:], granules[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    return heads, granules[heads]


def residencies(
    blocks: np.ndarray, num_sets: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The residency episodes of a direct-mapped cache over ``blocks``.

    Sorting the stream stably by set index puts each set's references in
    trace order next to each other; a block stays resident exactly as
    long as the following rows of its set name it.  Returns ``(order,
    start, evicted)``: the stable set order, whether sorted row ``i``
    starts an episode (installs its block — a miss), and the block that
    row displaces (its predecessor in set order; ``-1`` on a cold set or
    where no episode starts).
    """
    n = len(blocks)
    sets = blocks & (num_sets - 1)
    # A 16-bit key gets numpy's radix sort instead of a merge sort.
    keys = sets.astype(np.uint16) if num_sets <= 1 << 16 else sets
    order = np.argsort(keys, kind="stable")
    sorted_blocks = blocks[order]
    start = np.ones(n, dtype=bool)
    evicted = np.full(n, -1, dtype=np.int64)
    if n > 1:
        sorted_sets = sets[order]
        same_set = sorted_sets[1:] == sorted_sets[:-1]
        np.not_equal(sorted_blocks[1:], sorted_blocks[:-1], out=start[1:])
        start[1:] |= ~same_set
        evicted[1:] = np.where(same_set & start[1:], sorted_blocks[:-1], -1)
    return order, start, evicted


def trace_order(
    heads: np.ndarray,
    order: np.ndarray,
    miss_sorted: np.ndarray,
    evicted: np.ndarray,
    shift: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Misses found in :func:`residencies` order, back in trace order.

    Returns ``(positions, evictors)``; the evicted blocks become granule
    numbers (a block's first granule) by ``shift``.
    """
    miss = np.empty(len(heads), dtype=bool)
    miss[order] = miss_sorted
    evictors = np.empty(len(heads), dtype=np.int64)
    evictors[order] = np.where(evicted >= 0, evicted << shift, -1)
    return heads[miss], evictors[miss]


def lru_misses(
    heads: np.ndarray, blocks: np.ndarray, num_sets: int, ways: int
) -> tuple[list[int], list[int]]:
    """True-LRU replacement over run heads: ``(positions, evictors)``.

    ``blocks[i]`` is referenced at trace position ``heads[i]`` and maps
    to set ``blocks[i] & (num_sets - 1)`` of ``ways`` entries.  Returns
    each miss's position and the block it evicted (``-1`` while its set
    still had room).
    """
    mask = num_sets - 1
    # Each set in LRU-first order; a dict keeps membership O(1) at any
    # associativity.
    sets = [OrderedDict() for _ in range(num_sets)]
    positions: list[int] = []
    evictors: list[int] = []
    for position, block in zip(heads.tolist(), blocks.tolist()):
        lru = sets[block & mask]
        if block in lru:
            lru.move_to_end(block)
            continue
        positions.append(position)
        evictors.append(lru.popitem(last=False)[0] if len(lru) >= ways else -1)
        lru[block] = None
    return positions, evictors


def miss_sample(
    miss_addresses: np.ndarray, cap: int = MISS_SAMPLE_CAP
) -> list[int]:
    """A bounded, deterministic, evenly spread sample of the miss stream.

    The rule: offer the misses in trace order, keep every ``stride``-th,
    and whenever ``cap`` are kept thin them to every other one and double
    the stride.  What survives is always every multiple of the final
    stride, and that stride is the least power of two leaving fewer than
    ``cap`` of them — so the sample is computed here in closed form.
    """
    n = len(miss_addresses)
    stride = 1
    while -(-n // stride) >= cap:
        stride *= 2
    return [int(address) for address in miss_addresses[::stride]]


def top_sets(set_misses, n: int = 8) -> list[tuple[int, int]]:
    """The ``n`` cache sets with the most misses: ``(set_index, misses)``.

    ``set_misses`` is either a dense per-set sequence or a sparse
    ``{index: count}`` mapping (the paging simulators count faults per
    page number, which is too sparse for a dense array).  Ties break on
    the lower index, so the ranking is deterministic.
    """
    items = (
        set_misses.items() if hasattr(set_misses, "items")
        else enumerate(set_misses)
    )
    ranked = sorted(
        ((int(index), int(count)) for index, count in items if count),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:n]


def finish(
    addresses: np.ndarray,
    positions,
    evictors,
    words_transferred: int,
    *,
    organization: str,
    cache_bytes: int,
    block_bytes: int,
    num_sets: int | None,
    granule_bytes: int | None = None,
    extras: dict[str, float] | None = None,
) -> CacheStats:
    """Turn one kernel's misses into :class:`CacheStats` and report them.

    ``positions`` are the misses' trace positions in order, ``evictors``
    the granule each displaced (``-1`` for none).  Under the null sinks
    that is all; otherwise the misses are counted per set (``num_sets``
    sets of ``block_bytes``; ``None`` counts per ``block_bytes`` unit in a
    sparse mapping, as the paging simulators want), the current collector
    classifies them against a fully-associative shadow of the same
    capacity in ``granule_bytes`` units (default ``block_bytes``), and
    the current recorder gets one ``cache_sim`` event inside whatever
    span is open.
    """
    stats = CacheStats(
        accesses=len(addresses),
        misses=len(positions),
        words_transferred=int(words_transferred),
        extras=extras if extras is not None else {},
    )
    sinks = context.current()
    collector, recorder = sinks.collector, sinks.recorder
    if not (collector.enabled or recorder.enabled):
        return stats

    positions = np.asarray(positions, dtype=np.int64)
    miss_addresses = addresses[positions]
    units = miss_addresses >> (block_bytes.bit_length() - 1)
    if num_sets is None:
        keys, counts = np.unique(units, return_counts=True)
        set_misses = dict(zip(keys.tolist(), counts.tolist()))
    else:
        set_misses = np.bincount(units & (num_sets - 1), minlength=num_sets)
    if collector.enabled:
        # Imported here: the 3C shadow in diagnose.classify replays its
        # trace with this module's kernels.
        from repro.diagnose.classify import MissProbe

        probe = MissProbe(granule_bytes or block_bytes, cache_bytes)
        probe.positions = positions.tolist()
        probe.evictors = np.asarray(evictors, dtype=np.int64).tolist()
        collector.record(
            organization, cache_bytes, block_bytes, addresses, probe,
            set_misses=set_misses,
        )
    if not recorder.enabled:
        return stats
    fields = {
        "organization": organization,
        "cache_bytes": cache_bytes,
        "block_bytes": block_bytes,
        "accesses": stats.accesses,
        "misses": stats.misses,
        "miss_ratio": stats.miss_ratio,
        "traffic_ratio": stats.traffic_ratio,
        "top_sets": top_sets(set_misses),
    }
    sample = miss_sample(miss_addresses)
    if sample:
        fields["miss_samples"] = sample
    recorder.event("cache_sim", **fields)
    recorder.count("cache_sims", 1)
    recorder.count("cache_sim_accesses", stats.accesses)
    recorder.count("cache_sim_misses", stats.misses)
    recorder.observe("cache_sim_miss_ratio", stats.miss_ratio)
    return stats
