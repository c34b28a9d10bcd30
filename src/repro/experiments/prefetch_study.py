"""Prefetching vs. placement: do they compose?

The paper opens with hardware prefetch buffers (the VAX-11/780's) as the
pre-RISC answer to instruction bandwidth.  This study asks the obvious
follow-up: once the *compiler* has made the fetch stream sequential, how
much does next-line prefetch still buy — and how much of prefetch's
benefit does placement provide for free?

Four configurations per stressed benchmark, 2K/64B direct-mapped:
plain and tagged-prefetch caches, each under the natural and the
optimized layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.prefetch import simulate_prefetch
from repro.cache.vectorized import simulate_direct_vectorized
from repro.experiments.report import fmt_pct, render_table
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.obs import context

__all__ = ["CACHE_BYTES", "BLOCK_BYTES", "Row", "compute", "render", "run"]

CACHE_BYTES = 2048
BLOCK_BYTES = 64

STRESS_BENCHMARKS = ("cccp", "lex", "make", "yacc")


@dataclass(frozen=True)
class Row:
    """Prefetch/placement grid for one benchmark (miss ratios + accuracy)."""

    name: str
    natural_plain: float
    natural_prefetch: float
    optimized_plain: float
    optimized_prefetch: float
    optimized_accuracy: float
    optimized_prefetch_traffic: float


def compute(runner: ExperimentRunner) -> list[Row]:
    """Measure the four configurations on the stress benchmarks."""
    rows = []
    collector = context.current().collector
    for name in STRESS_BENCHMARKS:
        natural = runner.addresses(name, "natural")
        optimized = runner.addresses(name, "optimized")
        with collector.scope(workload=name, layout="natural"):
            natural_pf = simulate_prefetch(
                natural, CACHE_BYTES, BLOCK_BYTES, "tagged"
            )
            natural_plain = simulate_direct_vectorized(
                natural, CACHE_BYTES, BLOCK_BYTES
            ).miss_ratio
        with collector.scope(workload=name, layout="optimized"):
            optimized_pf = simulate_prefetch(
                optimized, CACHE_BYTES, BLOCK_BYTES, "tagged"
            )
            optimized_plain = simulate_direct_vectorized(
                optimized, CACHE_BYTES, BLOCK_BYTES
            ).miss_ratio
        rows.append(
            Row(
                name=name,
                natural_plain=natural_plain,
                natural_prefetch=natural_pf.miss_ratio,
                optimized_plain=optimized_plain,
                optimized_prefetch=optimized_pf.miss_ratio,
                optimized_accuracy=optimized_pf.accuracy,
                optimized_prefetch_traffic=optimized_pf.traffic_ratio,
            )
        )
    return rows


def render(rows: list[Row]) -> str:
    """Render the prefetch/placement grid."""
    return render_table(
        f"Next-line prefetch vs. placement ({CACHE_BYTES}B/"
        f"{BLOCK_BYTES}B, tagged prefetch, demand miss ratio)",
        ["name", "nat", "nat+pf", "opt", "opt+pf",
         "opt+pf accuracy", "opt+pf traffic"],
        [
            [r.name, fmt_pct(r.natural_plain), fmt_pct(r.natural_prefetch),
             fmt_pct(r.optimized_plain), fmt_pct(r.optimized_prefetch),
             fmt_pct(r.optimized_accuracy),
             fmt_pct(r.optimized_prefetch_traffic)]
            for r in rows
        ],
        note="Placement raises prefetch accuracy (sequential streams) and "
        "already captures much of prefetch's benefit on its own.",
    )


def run(runner: ExperimentRunner | None = None) -> str:
    """Regenerate the prefetch study."""
    return render(compute(runner or default_runner()))
