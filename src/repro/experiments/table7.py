"""Table 7 — the effect of varying block size (2048-byte cache,
direct-mapped, optimized layout).

As in the paper, miss ratios fall and traffic ratios rise with block size:
each miss brings in more useful bytes — the placement algorithm packs
temporally-close instructions into the same block — but also more useless
ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.vectorized import simulate_direct_vectorized
from repro.experiments.report import fmt_pct, render_table
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.obs import context

__all__ = ["BLOCK_SIZES", "CACHE_BYTES", "Row", "compute", "render", "run"]

#: Block sizes swept by the paper's Table 7, in bytes.
BLOCK_SIZES = (16, 32, 64, 128)
#: Fixed cache size for Table 7.
CACHE_BYTES = 2048


@dataclass(frozen=True)
class Row:
    """Miss/traffic per block size for one benchmark."""

    name: str
    results: dict[int, tuple[float, float]]  # block -> (miss, traffic)


def compute(
    runner: ExperimentRunner, layout: str = "optimized"
) -> list[Row]:
    """Sweep block sizes for every benchmark under ``layout``."""
    sinks = context.current()
    rows = []
    for name in runner.names():
        addresses = runner.addresses(name, layout)
        results = {}
        with sinks.recorder.span("simulate", cat="simulation",
                                 table="table7", workload=name,
                                 layout=layout), \
                sinks.collector.scope(workload=name, layout=layout):
            for block_bytes in BLOCK_SIZES:
                stats = simulate_direct_vectorized(
                    addresses, CACHE_BYTES, block_bytes
                )
                results[block_bytes] = (stats.miss_ratio, stats.traffic_ratio)
        rows.append(Row(name=name, results=results))
    return rows


def render(rows: list[Row], layout: str = "optimized") -> str:
    """Render Table 7."""
    headers = ["name"]
    for block_bytes in BLOCK_SIZES:
        headers += [f"{block_bytes}B miss", f"{block_bytes}B traffic"]
    body = []
    for row in rows:
        line: list[str] = [row.name]
        for block_bytes in BLOCK_SIZES:
            miss, traffic = row.results[block_bytes]
            line += [fmt_pct(miss), fmt_pct(traffic)]
        body.append(line)
    return render_table(
        f"Table 7. The Effect of Varying the Block Size ({layout} layout, "
        f"{CACHE_BYTES}B cache, direct-mapped)",
        headers,
        body,
    )


def run(runner: ExperimentRunner | None = None) -> str:
    """Regenerate Table 7."""
    runner = runner or default_runner()
    return render(compute(runner))
