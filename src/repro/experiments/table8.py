"""Table 8 — schemes to reduce the memory traffic ratio (2048-byte cache,
64-byte blocks, direct-mapped, optimized layout).

* **sector** — 8-byte sectors inside each 64-byte block: each miss
  transfers one sector, cutting traffic at the cost of forgoing spatial
  locality (the miss ratio roughly doubles-or-worse for the traffic-heavy
  programs, as the paper observes for cccp).
* **partial** — load from the missed word to the end of the block or the
  first valid word; reported with the paper's ``avg.fetch`` (4-byte
  entities per miss) and ``avg.exec`` (consecutive instructions used from
  the miss point to a taken branch or the next miss).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.partial import simulate_partial
from repro.cache.sectored import simulate_sectored
from repro.experiments.report import fmt_pct, render_table
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.obs import context

__all__ = [
    "CACHE_BYTES", "BLOCK_BYTES", "SECTOR_BYTES",
    "Row", "compute", "render", "run",
]

CACHE_BYTES = 2048
BLOCK_BYTES = 64
SECTOR_BYTES = 8


@dataclass(frozen=True)
class Row:
    """Sector and partial-loading results for one benchmark."""

    name: str
    sector_miss: float
    sector_traffic: float
    partial_miss: float
    partial_traffic: float
    avg_fetch: float
    avg_exec: float


def compute(
    runner: ExperimentRunner, layout: str = "optimized"
) -> list[Row]:
    """Run the sector and partial-loading schemes on every benchmark."""
    rows = []
    for name in runner.names():
        addresses = runner.addresses(name, layout)
        with context.current().collector.scope(workload=name, layout=layout):
            sector = simulate_sectored(
                addresses, CACHE_BYTES, BLOCK_BYTES, SECTOR_BYTES
            )
            partial = simulate_partial(addresses, CACHE_BYTES, BLOCK_BYTES)
        rows.append(
            Row(
                name=name,
                sector_miss=sector.miss_ratio,
                sector_traffic=sector.traffic_ratio,
                partial_miss=partial.miss_ratio,
                partial_traffic=partial.traffic_ratio,
                avg_fetch=partial.extras["avg_fetch"],
                avg_exec=partial.extras["avg_exec"],
            )
        )
    return rows


def render(rows: list[Row]) -> str:
    """Render Table 8."""
    return render_table(
        f"Table 8. Schemes to Reduce the Memory Traffic Ratio "
        f"({CACHE_BYTES}B cache, {BLOCK_BYTES}B blocks, "
        f"{SECTOR_BYTES}B sectors)",
        ["name", "sector miss", "sector traffic",
         "partial miss", "partial traffic", "avg.fetch", "avg.exec"],
        [
            [r.name, fmt_pct(r.sector_miss), fmt_pct(r.sector_traffic),
             fmt_pct(r.partial_miss), fmt_pct(r.partial_traffic),
             f"{r.avg_fetch:.1f}", f"{r.avg_exec:.1f}"]
            for r in rows
        ],
    )


def run(runner: ExperimentRunner | None = None) -> str:
    """Regenerate Table 8."""
    return render(compute(runner or default_runner()))
