"""The headline comparison (paper Section 4.2.4).

"The effectiveness of the instruction placement optimization can be
evaluated by comparing the numbers in Table 6 and Table 7 against the
numbers in Table 1. ... Our direct-mapped cache numbers are consistently
better than the traditional fully associative cache numbers."

This module makes that claim executable twice over:

1. **vs. Smith's constants** — the optimized direct-mapped miss ratio of
   every benchmark at each (cache, block) point Smith's table covers,
   against the published design target; including the paper's own
   worst-case framing (cccp / make) and the 10-benchmark average.
2. **vs. a simulated fully associative LRU cache on the *unoptimized*
   (natural, uninlined) layout** — the same comparison with both sides
   measured on our own traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.set_assoc import simulate_fully_associative
from repro.cache.vectorized import simulate_direct_vectorized
from repro.experiments.report import fmt_pct, render_table
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.experiments.smith import smith_target
from repro.obs import context

__all__ = ["POINTS", "Point", "compute", "render", "run"]

#: (cache_bytes, block_bytes) grid points used for the comparison.
POINTS = ((512, 64), (1024, 64), (2048, 64), (4096, 64),
          (2048, 16), (2048, 32), (2048, 128))


@dataclass(frozen=True)
class Point:
    """One (cache, block) comparison across the whole suite."""

    cache_bytes: int
    block_bytes: int
    smith: float                    # published fully-associative target
    optimized_avg: float            # our direct-mapped, optimized layout
    optimized_worst: float
    worst_name: str
    fully_assoc_natural_avg: float  # simulated FA LRU, natural layout


def compute(runner: ExperimentRunner) -> list[Point]:
    """Evaluate every comparison point over all ten benchmarks."""
    names = runner.names()
    points = []
    for cache_bytes, block_bytes in POINTS:
        optimized: list[tuple[str, float]] = []
        fully_assoc: list[float] = []
        for name in names:
            collector = context.current().collector
            with collector.scope(workload=name, layout="optimized"):
                opt_stats = simulate_direct_vectorized(
                    runner.addresses(name, "optimized"),
                    cache_bytes, block_bytes,
                )
            optimized.append((name, opt_stats.miss_ratio))
            with collector.scope(workload=name, layout="natural"):
                fa_stats = simulate_fully_associative(
                    runner.addresses(name, "natural"),
                    cache_bytes, block_bytes,
                )
            fully_assoc.append(fa_stats.miss_ratio)
        worst_name, worst = max(optimized, key=lambda item: item[1])
        points.append(
            Point(
                cache_bytes=cache_bytes,
                block_bytes=block_bytes,
                smith=smith_target(cache_bytes, block_bytes),
                optimized_avg=sum(m for _, m in optimized) / len(optimized),
                optimized_worst=worst,
                worst_name=worst_name,
                fully_assoc_natural_avg=sum(fully_assoc) / len(fully_assoc),
            )
        )
    return points


def render(points: list[Point]) -> str:
    """Render the comparison table."""
    rows = []
    for p in points:
        rows.append(
            [f"{p.cache_bytes}B/{p.block_bytes}B",
             fmt_pct(p.smith, 1),
             fmt_pct(p.optimized_avg),
             f"{fmt_pct(p.optimized_worst)} ({p.worst_name})",
             fmt_pct(p.fully_assoc_natural_avg),
             f"{p.smith / p.optimized_avg:.0f}x"
             if p.optimized_avg > 0 else "inf"]
        )
    return render_table(
        "Comparison with Previous Results (Section 4.2.4): optimized "
        "direct-mapped vs. fully associative",
        ["cache/block", "Smith FA target", "optimized DM avg",
         "optimized DM worst", "FA LRU on natural layout", "target/avg"],
        rows,
        note="The paper's claim holds when even the worst optimized "
        "direct-mapped benchmark beats the fully associative target, and "
        "the suite average is far below it.",
    )


def run(runner: ExperimentRunner | None = None) -> str:
    """Regenerate the Section 4.2.4 comparison."""
    return render(compute(runner or default_runner()))
