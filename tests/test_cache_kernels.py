"""Differential tests: every cache kernel against an access-by-access reference.

The simulators replay granule runs, sort by set and vectorize; the
references below (and :class:`DirectMappedCache` /
:class:`SetAssociativeCache` in ``src``) step through the trace one
access at a time, exactly as the hardware would.  Each comparison covers
the whole result: miss and traffic counts, the extras, the 3C probe's
miss positions and evictors, and the per-set miss counts.

The traces are instruction-shaped — sequential runs, forward and
backward jumps (some inside one block), repeated fetches and cross-set
thrash — since those are the patterns granule collapsing depends on.
``--hypothesis-profile=deep`` (registered in ``conftest.py``) raises
the example budget.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cache.base import BUS_WORD_BYTES, MISS_SAMPLE_CAP, miss_sample
from repro.cache.direct import DirectMappedCache, simulate_direct
from repro.cache.paging import simulate_paging, simulate_sectored_paging
from repro.cache.partial import _execution_run_stats, simulate_partial
from repro.cache.prefetch import simulate_prefetch
from repro.cache.sectored import simulate_sectored
from repro.cache.set_assoc import (
    SetAssociativeCache,
    simulate_fully_associative,
    simulate_set_associative,
)
from repro.cache.vectorized import (
    direct_mapped_miss_mask,
    simulate_direct_vectorized,
)
from repro.obs import Recorder

# ---------------------------------------------------------------------------
# Instruction-shaped traces.

#: Cross-set thrash strides: cache sizes of the geometries below, so the
#: thrashing blocks share a set.
THRASH_STRIDES = (512, 1024, 2048, 4096)


@st.composite
def instruction_traces(draw, max_segments: int = 24) -> np.ndarray:
    word = draw(st.integers(0, 2047))
    addresses: list[int] = []
    for _ in range(draw(st.integers(0, max_segments))):
        kind = draw(st.sampled_from(
            ("run", "run", "jump", "near", "repeat", "thrash")
        ))
        if kind == "jump":          # anywhere, forward or backward
            word = draw(st.integers(0, 4095))
        elif kind == "near":        # a short hop, often inside one block
            word = max(0, word + draw(st.integers(-20, 20)))
        if kind == "repeat":
            addresses += [word * 4] * draw(st.integers(2, 6))
        elif kind == "thrash":
            stride = draw(st.sampled_from(THRASH_STRIDES))
            rounds = draw(st.integers(1, 4))
            ways = draw(st.integers(2, 5))
            addresses += [
                word * 4 + stride * way
                for _ in range(rounds) for way in range(ways)
            ]
        else:
            length = draw(st.integers(1, 40))
            addresses += [4 * (word + i) for i in range(length)]
            word += length
    return np.asarray(addresses, dtype=np.int64)


DIRECT_GEOMETRIES = [(64, 64), (256, 16), (512, 64), (1024, 32),
                     (2048, 64), (4096, 128)]


# ---------------------------------------------------------------------------
# What a simulation produced, from the kernel or from a reference.


@dataclass
class Outcome:
    misses: int
    words: int
    extras: dict
    positions: list
    evictors: list
    set_misses: dict


class _Capture:
    """A collector that keeps the raw probe instead of classifying it."""

    enabled = True

    def __init__(self) -> None:
        self.records: list = []

    def record(self, organization, cache_bytes, block_bytes, addresses,
               probe, set_misses=None):
        self.records.append((list(probe.positions), list(probe.evictors),
                             _nonzero(set_misses)))


def observed(simulate, trace, *args) -> Outcome:
    """Run a simulator under a capturing collector."""
    capture = _Capture()
    with obs.use(collector=capture):
        stats = simulate(trace, *args)
    ((positions, evictors, set_misses),) = capture.records
    if hasattr(stats, "demand_misses"):             # PrefetchStats
        misses, words = stats.demand_misses, stats.words_transferred
        extras = {"prefetches": stats.prefetches,
                  "useful": stats.useful_prefetches}
    elif hasattr(stats, "faults"):                  # PagingStats
        misses = stats.faults
        words = stats.bytes_transferred // BUS_WORD_BYTES
        extras = {"distinct_pages": stats.distinct_pages}
    else:
        misses, words, extras = (stats.misses, stats.words_transferred,
                                 dict(stats.extras))
    return Outcome(misses, words, extras, positions, evictors, set_misses)


def _nonzero(counts) -> dict:
    items = counts.items() if hasattr(counts, "items") else enumerate(counts)
    return {int(k): int(v) for k, v in items if v}


# ---------------------------------------------------------------------------
# Access-by-access references.


def reference_direct(trace, cache_bytes, block_bytes) -> Outcome:
    cache = DirectMappedCache(cache_bytes, block_bytes)
    positions, evictors = [], []
    for position, address in enumerate(trace.tolist()):
        index = (address >> cache._block_shift) & cache._set_mask
        resident = cache._tags[index]
        if not cache.access(address):
            positions.append(position)
            evictors.append(resident)
    stats = cache.stats()
    return Outcome(stats.misses, stats.words_transferred, {}, positions,
                   evictors, _nonzero(cache.set_misses))


def reference_lru(trace, cache_bytes, block_bytes, assoc) -> Outcome:
    cache = SetAssociativeCache(cache_bytes, block_bytes, assoc)
    positions, evictors = [], []
    for position, address in enumerate(trace.tolist()):
        lru = cache._sets[(address >> cache._block_shift) & cache._set_mask]
        victim = lru[-1] if len(lru) >= assoc else -1
        if not cache.access(address):
            positions.append(position)
            evictors.append(victim)
    stats = cache.stats()
    return Outcome(stats.misses, stats.words_transferred, {}, positions,
                   evictors, _nonzero(cache.set_misses))


def reference_sectored(trace, cache_bytes, block_bytes,
                       sector_bytes) -> Outcome:
    num_sets = cache_bytes // block_bytes
    block_shift = block_bytes.bit_length() - 1
    sector_shift = sector_bytes.bit_length() - 1
    sectors_shift = block_shift - sector_shift
    tags, valid = [-1] * num_sets, [0] * num_sets
    set_misses = [0] * num_sets
    positions, evictors = [], []
    for position, address in enumerate(trace.tolist()):
        block = address >> block_shift
        index = block & (num_sets - 1)
        bit = 1 << ((address >> sector_shift) & ((1 << sectors_shift) - 1))
        if tags[index] == block:
            if valid[index] & bit:
                continue
            valid[index] |= bit
            evictors.append(-1)
        else:
            evicted = tags[index]
            evictors.append(-1 if evicted < 0 else evicted << sectors_shift)
            tags[index], valid[index] = block, bit
        positions.append(position)
        set_misses[index] += 1
    return Outcome(len(positions),
                   len(positions) * (sector_bytes // BUS_WORD_BYTES), {},
                   positions, evictors, _nonzero(set_misses))


def reference_partial(trace, cache_bytes, block_bytes) -> Outcome:
    num_sets = cache_bytes // block_bytes
    block_shift = block_bytes.bit_length() - 1
    words_per_block = block_bytes // BUS_WORD_BYTES
    words_shift = words_per_block.bit_length() - 1
    tags, valid = [-1] * num_sets, [0] * num_sets
    set_misses = [0] * num_sets
    positions, evictors = [], []
    transferred = 0
    for position, address in enumerate(trace.tolist()):
        block = address >> block_shift
        index = block & (num_sets - 1)
        word = (address >> 2) & (words_per_block - 1)
        bits = valid[index]
        if tags[index] == block and (bits >> word) & 1:
            continue
        positions.append(position)
        set_misses[index] += 1
        if tags[index] != block:
            evicted = tags[index]
            evictors.append(-1 if evicted < 0 else evicted << words_shift)
            tags[index], bits = block, 0
        else:
            evictors.append(-1)
        ahead = bits >> word
        fill = (words_per_block - word if ahead == 0
                else (ahead & -ahead).bit_length() - 1)
        valid[index] = bits | (((1 << fill) - 1) << word)
        transferred += fill
    extras = _execution_run_stats(trace, np.asarray(positions, np.int64))
    extras["avg_fetch"] = transferred / len(positions) if positions else 0.0
    return Outcome(len(positions), transferred, extras, positions,
                   evictors, _nonzero(set_misses))


def reference_prefetch(trace, cache_bytes, block_bytes, policy) -> Outcome:
    num_sets = cache_bytes // block_bytes
    shift = block_bytes.bit_length() - 1
    tags, tag_bit = [-1] * num_sets, [False] * num_sets
    set_misses = [0] * num_sets
    positions, evictors = [], []
    counts = {"prefetches": 0, "useful": 0}

    def prefetch(block):
        index = block & (num_sets - 1)
        if tags[index] != block:
            tags[index], tag_bit[index] = block, True
            counts["prefetches"] += 1

    for position, address in enumerate(trace.tolist()):
        block = address >> shift
        index = block & (num_sets - 1)
        if tags[index] == block:
            if tag_bit[index]:
                tag_bit[index] = False
                counts["useful"] += 1
                if policy == "tagged":
                    prefetch(block + 1)
            continue
        positions.append(position)
        evictors.append(tags[index])
        set_misses[index] += 1
        tags[index], tag_bit[index] = block, False
        prefetch(block + 1)
    words = (len(positions) + counts["prefetches"]) * (
        block_bytes // BUS_WORD_BYTES)
    return Outcome(len(positions), words, counts, positions, evictors,
                   _nonzero(set_misses))


def reference_paging(trace, page_bytes, resident_pages,
                     sector_bytes=None) -> Outcome:
    """Access-by-access LRU paging; sectored when ``sector_bytes`` is set."""
    page_shift = page_bytes.bit_length() - 1
    sector_bytes = sector_bytes or page_bytes
    sector_shift = sector_bytes.bit_length() - 1
    pages_shift = page_shift - sector_shift
    lru: OrderedDict[int, int] = OrderedDict()      # page -> sector bits
    faults: dict[int, int] = {}
    positions, evictors = [], []
    for position, address in enumerate(trace.tolist()):
        page = address >> page_shift
        bit = 1 << ((address >> sector_shift) & ((1 << pages_shift) - 1))
        evicted = -1
        if page in lru:
            lru.move_to_end(page)
        else:
            if len(lru) >= resident_pages:
                evicted = lru.popitem(last=False)[0]
            lru[page] = 0
        if lru[page] & bit:
            continue
        lru[page] |= bit
        positions.append(position)
        evictors.append(-1 if evicted < 0 else evicted << pages_shift)
        faults[page] = faults.get(page, 0) + 1
    distinct = len(np.unique(trace >> page_shift))
    return Outcome(len(positions),
                   len(positions) * sector_bytes // BUS_WORD_BYTES,
                   {"distinct_pages": distinct}, positions, evictors, faults)


# ---------------------------------------------------------------------------
# Kernel == reference, organization by organization.


class TestKernelsEqualReferences:
    @given(instruction_traces(), st.sampled_from(DIRECT_GEOMETRIES))
    @settings(deadline=None)
    def test_direct(self, trace, geometry):
        expected = reference_direct(trace, *geometry)
        assert observed(simulate_direct_vectorized, trace, *geometry) \
            == expected
        assert observed(simulate_direct, trace, *geometry) == expected
        mask = direct_mapped_miss_mask(trace, *geometry)
        assert np.flatnonzero(mask).tolist() == expected.positions

    @given(instruction_traces(), st.sampled_from(
        [(2048, 64, 1), (512, 16, 2), (1024, 32, 4), (2048, 64, 2),
         (512, 64, 8), (256, 16, 16)]
    ))
    @settings(deadline=None)
    def test_set_associative(self, trace, geometry):
        assert observed(simulate_set_associative, trace, *geometry) \
            == reference_lru(trace, *geometry)

    @given(instruction_traces(), st.sampled_from(DIRECT_GEOMETRIES))
    @settings(deadline=None)
    def test_one_way_is_direct_mapped(self, trace, geometry):
        assert observed(simulate_set_associative, trace, *geometry, 1) \
            == reference_direct(trace, *geometry)

    @given(instruction_traces(), st.sampled_from([(512, 64), (2048, 64),
                                                  (256, 16)]))
    @settings(deadline=None)
    def test_fully_associative(self, trace, geometry):
        cache, block = geometry
        assert observed(simulate_fully_associative, trace, cache, block) \
            == reference_lru(trace, cache, block, cache // block)

    @given(instruction_traces(), st.sampled_from(
        [(2048, 64, 8), (512, 16, 4), (1024, 32, 32), (64, 64, 8),
         (4096, 128, 16), (256, 16, 16)]
    ))
    @settings(deadline=None)
    def test_sectored(self, trace, geometry):
        assert observed(simulate_sectored, trace, *geometry) \
            == reference_sectored(trace, *geometry)

    @given(instruction_traces(), st.sampled_from(DIRECT_GEOMETRIES))
    @settings(deadline=None)
    def test_whole_block_sectors_are_direct_mapped(self, trace, geometry):
        cache, block = geometry
        assert observed(simulate_sectored, trace, cache, block, block) \
            == reference_direct(trace, cache, block)

    @given(instruction_traces(),
           st.sampled_from([*DIRECT_GEOMETRIES, (256, 4)]))
    @settings(deadline=None)
    def test_partial(self, trace, geometry):
        assert observed(simulate_partial, trace, *geometry) \
            == reference_partial(trace, *geometry)

    @given(instruction_traces(), st.sampled_from(DIRECT_GEOMETRIES),
           st.sampled_from(("tagged", "on-miss")))
    @settings(deadline=None)
    def test_prefetch(self, trace, geometry, policy):
        expected = reference_prefetch(trace, *geometry, policy)
        assert observed(simulate_prefetch, trace, *geometry, policy) \
            == expected
        stats = simulate_prefetch(trace, *geometry, policy)
        accuracy = (expected.extras["useful"] / expected.extras["prefetches"]
                    if expected.extras["prefetches"] else 0.0)
        assert stats.accuracy == accuracy

    @given(instruction_traces(), st.sampled_from([(64, 1), (256, 2),
                                                  (512, 4)]))
    @settings(deadline=None)
    def test_paging(self, trace, geometry):
        assert observed(simulate_paging, trace, *geometry) \
            == reference_paging(trace, *geometry)

    @given(instruction_traces(), st.sampled_from([(256, 2, 16),
                                                  (512, 4, 64),
                                                  (128, 3, 128)]))
    @settings(deadline=None)
    def test_sectored_paging(self, trace, geometry):
        assert observed(simulate_sectored_paging, trace, *geometry) \
            == reference_paging(trace, *geometry)


# ---------------------------------------------------------------------------
# The same on real instruction streams.

#: Accesses of each program's optimized trace replayed per organization.
WINDOW = 20_000

ORGANIZATIONS = [
    pytest.param(simulate_direct_vectorized, reference_direct, (2048, 64),
                 id="direct"),
    pytest.param(simulate_set_associative, reference_lru, (2048, 64, 2),
                 id="2way"),
    pytest.param(simulate_fully_associative,
                 lambda trace, cache, block:
                 reference_lru(trace, cache, block, cache // block),
                 (2048, 64), id="fully"),
    pytest.param(simulate_sectored, reference_sectored, (2048, 64, 8),
                 id="sectored"),
    pytest.param(simulate_partial, reference_partial, (2048, 64),
                 id="partial"),
    pytest.param(simulate_prefetch, reference_prefetch,
                 (2048, 64, "tagged"), id="prefetch"),
    pytest.param(simulate_paging, reference_paging, (512, 4), id="paging"),
    pytest.param(simulate_sectored_paging, reference_paging, (512, 4, 64),
                 id="sect-paging"),
]


@pytest.mark.parametrize("simulate,reference,args", ORGANIZATIONS)
def test_workload_windows(small_runner, simulate, reference, args):
    for name in small_runner.names():
        window = small_runner.addresses(name)[:WINDOW]
        assert observed(simulate, window, *args) \
            == reference(window, *args), name


# ---------------------------------------------------------------------------
# One miss-sampling rule.


def offered_sample(addresses, cap: int) -> list[int]:
    """The sampling rule as a loop: offer each miss in turn."""
    samples: list[int] = []
    stride, seen = 1, 0
    for address in addresses:
        if seen % stride == 0:
            samples.append(int(address))
            if len(samples) >= cap:
                samples = samples[::2]
                stride *= 2
        seen += 1
    return samples


class TestMissSample:
    @given(st.integers(0, 6000), st.sampled_from([2, 4, 16, 256]))
    @settings(deadline=None)
    def test_closed_form_equals_offer_loop(self, n, cap):
        addresses = np.arange(n, dtype=np.int64) * 4
        assert miss_sample(addresses, cap) == offered_sample(addresses, cap)

    @given(instruction_traces(), st.sampled_from(DIRECT_GEOMETRIES))
    @settings(deadline=None)
    def test_direct_and_vectorized_sample_alike(self, trace, geometry):
        recorder = Recorder()
        with obs.use(recorder):
            simulate_direct(trace, *geometry)
            simulate_direct_vectorized(trace, *geometry)
        direct, vectorized = (
            record["fields"] for record in recorder.records
            if record.get("type") == "event"
        )
        assert direct.get("miss_samples") == vectorized.get("miss_samples")
        assert len(direct.get("miss_samples", [])) < MISS_SAMPLE_CAP

    def test_sample_spans_a_long_miss_stream(self):
        trace = np.arange(0, 64 * 5000, 64, dtype=np.int64)  # all misses
        recorder = Recorder()
        with obs.use(recorder):
            simulate_direct_vectorized(trace, 2048, 64)
        (event,) = (record for record in recorder.records
                    if record.get("type") == "event")
        samples = event["fields"]["miss_samples"]
        assert samples == offered_sample(trace, MISS_SAMPLE_CAP)
        assert samples[0] == 0 and samples[-1] > trace[-1] // 2
