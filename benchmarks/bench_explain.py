"""Benchmark of miss attribution: overhead when on, zero cost when off.

Measures the Table 6 sweep once with the null collector and once with a
live :class:`repro.diagnose.Collector`, and records both wall times plus
the resulting 3C breakdown (2048B/64B point) per workload into
``BENCH_observability.json`` — the trajectory of attribution overhead
and conflict-miss counts across commits.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit_bench
from repro import diagnose, obs
from repro.experiments import table6


def test_attribution_overhead_and_3c(benchmark, runner):
    started = time.perf_counter()
    table6.compute(runner)
    plain_s = time.perf_counter() - started

    collector = diagnose.Collector()

    def attributed():
        with obs.use(collector=collector):
            return table6.compute(runner)

    started = time.perf_counter()
    benchmark.pedantic(attributed, rounds=1, iterations=1)
    attributed_s = max(time.perf_counter() - started, 1e-9)

    breakdown = {}
    conflict_total = 0
    for key, entry in sorted(collector.entries.items()):
        workload, layout, _org, cache_bytes, _block = key
        if cache_bytes != 2048:
            continue
        assert entry.compulsory + entry.capacity + entry.conflict \
            == entry.misses
        conflict_total += entry.conflict
        breakdown[workload] = {
            "misses": entry.misses,
            "compulsory": entry.compulsory,
            "capacity": entry.capacity,
            "conflict": entry.conflict,
            "anomaly": entry.anomaly,
        }

    emit_bench(
        "explain_attribution",
        plain_s=plain_s,
        attributed_s=attributed_s,
        overhead_x=attributed_s / max(plain_s, 1e-9),
        conflict_misses_2k=conflict_total,
        three_c_2048x64=breakdown,
    )
    assert breakdown, "no 2048B attribution entries were collected"
