"""Instruction paging experiments (paper Section 5, future work).

The paper announces "experiments on the instruction paging performance.
The design parameters under investigation include working set size, page
size, and page sectoring."  These were never published in this paper;
we run the study its text sets up:

* page-fault ratios under LRU for several page sizes and residencies,
  optimized vs. natural layout (the region split should shrink faults);
* the page-level sectoring trade-off;
* Denning working-set sizes, optimized vs. natural layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.paging import (
    simulate_paging,
    simulate_sectored_paging,
    working_set_profile,
)
from repro.experiments.report import render_table
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.obs import context

__all__ = [
    "PAGE_BYTES", "RESIDENT_PAGES", "WS_WINDOW",
    "Row", "compute", "render", "run",
]

#: Page size swept (bytes).
PAGE_BYTES = (512, 1024, 2048)
#: Resident page frames for the fault study.
RESIDENT_PAGES = 4
#: Working-set window (instruction fetches).
WS_WINDOW = 20_000
#: Sector size for the page-sectoring study (bytes).
SECTOR_BYTES = 128

#: Benchmarks with footprints big enough for paging to matter.
PAGED_BENCHMARKS = ("cccp", "lex", "make", "yacc")


@dataclass(frozen=True)
class Row:
    """Paging metrics for one benchmark and page size."""

    name: str
    page_bytes: int
    optimized_faults: int
    natural_faults: int
    optimized_bytes: int
    sectored_bytes: int
    optimized_ws: float
    natural_ws: float


def compute(runner: ExperimentRunner) -> list[Row]:
    """Run the paging study on the large benchmarks."""
    rows = []
    for name in PAGED_BENCHMARKS:
        optimized = runner.addresses(name, "optimized")
        natural = runner.addresses(name, "natural")
        collector = context.current().collector
        for page_bytes in PAGE_BYTES:
            with collector.scope(workload=name, layout="optimized"):
                opt = simulate_paging(optimized, page_bytes, RESIDENT_PAGES)
                sect = simulate_sectored_paging(
                    optimized, page_bytes, RESIDENT_PAGES, SECTOR_BYTES
                )
            with collector.scope(workload=name, layout="natural"):
                nat = simulate_paging(natural, page_bytes, RESIDENT_PAGES)
            opt_ws = working_set_profile(optimized, page_bytes, WS_WINDOW)
            nat_ws = working_set_profile(natural, page_bytes, WS_WINDOW)
            rows.append(
                Row(
                    name=name,
                    page_bytes=page_bytes,
                    optimized_faults=opt.faults,
                    natural_faults=nat.faults,
                    optimized_bytes=opt.bytes_transferred,
                    sectored_bytes=sect.bytes_transferred,
                    optimized_ws=opt_ws.mean_pages,
                    natural_ws=nat_ws.mean_pages,
                )
            )
    return rows


def render(rows: list[Row]) -> str:
    """Render the paging study."""
    return render_table(
        f"Instruction paging ({RESIDENT_PAGES} resident pages, LRU, "
        f"{SECTOR_BYTES}B sectors, {WS_WINDOW}-fetch working-set window)",
        ["name", "page", "opt faults", "nat faults",
         "opt bytes", "sectored bytes", "opt WS", "nat WS"],
        [
            [r.name, f"{r.page_bytes}B", r.optimized_faults,
             r.natural_faults, r.optimized_bytes, r.sectored_bytes,
             f"{r.optimized_ws:.1f}", f"{r.natural_ws:.1f}"]
            for r in rows
        ],
        note="opt = IMPACT-I placement, nat = declaration order; WS = mean "
        "distinct pages per window.",
    )


def run(runner: ExperimentRunner | None = None) -> str:
    """Regenerate the paging study."""
    return render(compute(runner or default_runner()))
