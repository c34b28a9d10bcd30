"""Table 6 — the effect of varying cache size (64-byte blocks,
direct-mapped, optimized layout).

Miss and memory-traffic ratios for 8K/4K/2K/1K/0.5K caches, replaying each
benchmark's evaluation trace through the vectorised direct-mapped
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.vectorized import simulate_direct_vectorized
from repro.experiments.report import fmt_pct, render_table
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.obs import context

__all__ = ["CACHE_SIZES", "BLOCK_BYTES", "Row", "compute", "render", "run"]

#: Cache sizes swept by the paper's Table 6, in bytes.
CACHE_SIZES = (8192, 4096, 2048, 1024, 512)
#: Fixed block size for Table 6.
BLOCK_BYTES = 64


@dataclass(frozen=True)
class Row:
    """Miss/traffic per cache size for one benchmark."""

    name: str
    results: dict[int, tuple[float, float]]  # cache -> (miss, traffic)


def compute(
    runner: ExperimentRunner, layout: str = "optimized"
) -> list[Row]:
    """Sweep cache sizes for every benchmark under ``layout``."""
    sinks = context.current()
    rows = []
    for name in runner.names():
        addresses = runner.addresses(name, layout)
        results = {}
        with sinks.recorder.span("simulate", cat="simulation",
                                 table="table6", workload=name,
                                 layout=layout), \
                sinks.collector.scope(workload=name, layout=layout):
            for cache_bytes in CACHE_SIZES:
                stats = simulate_direct_vectorized(
                    addresses, cache_bytes, BLOCK_BYTES
                )
                results[cache_bytes] = (stats.miss_ratio, stats.traffic_ratio)
        rows.append(Row(name=name, results=results))
    return rows


def render(rows: list[Row], layout: str = "optimized") -> str:
    """Render Table 6."""
    headers = ["name"]
    for cache_bytes in CACHE_SIZES:
        label = f"{cache_bytes // 1024}K" if cache_bytes >= 1024 else "0.5K"
        headers += [f"{label} miss", f"{label} traffic"]
    body = []
    for row in rows:
        line: list[str] = [row.name]
        for cache_bytes in CACHE_SIZES:
            miss, traffic = row.results[cache_bytes]
            line += [fmt_pct(miss), fmt_pct(traffic)]
        body.append(line)
    return render_table(
        f"Table 6. The Effect of Varying Cache Size ({layout} layout, "
        f"{BLOCK_BYTES}B blocks, direct-mapped)",
        headers,
        body,
    )


def run(runner: ExperimentRunner | None = None) -> str:
    """Regenerate Table 6."""
    runner = runner or default_runner()
    return render(compute(runner))
