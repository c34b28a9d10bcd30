"""Set-associativity study on placement-optimized code.

The paper argues (citing Przybylski et al.) that associativity buys
little once it costs cycle time, and that placement makes a direct-mapped
cache competitive with associative organisations.  This study measures
exactly that: direct-mapped vs. 2-way vs. 4-way vs. fully associative LRU
on the optimized layout, plus fully associative on the natural layout —
quantifying how much of associativity's benefit the compiler already
harvested.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.set_assoc import (
    simulate_fully_associative,
    simulate_set_associative,
)
from repro.cache.vectorized import simulate_direct_vectorized
from repro.experiments.report import fmt_pct, render_table
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.obs import context

__all__ = ["CACHE_BYTES", "BLOCK_BYTES", "Row", "compute", "render", "run"]

CACHE_BYTES = 2048
BLOCK_BYTES = 64

#: The benchmarks worth studying (the rest sit at ~0 everywhere).
STRESS_BENCHMARKS = ("cccp", "lex", "make", "yacc", "tar", "compress")


@dataclass(frozen=True)
class Row:
    """Miss ratios across associativities for one benchmark."""

    name: str
    direct: float
    two_way: float
    four_way: float
    fully: float
    fully_natural: float


def compute(runner: ExperimentRunner) -> list[Row]:
    """Measure the associativity ladder on the stress benchmarks."""
    rows = []
    collector = context.current().collector
    for name in STRESS_BENCHMARKS:
        optimized = runner.addresses(name, "optimized")
        natural = runner.addresses(name, "natural")
        with collector.scope(workload=name, layout="optimized"):
            direct = simulate_direct_vectorized(
                optimized, CACHE_BYTES, BLOCK_BYTES
            ).miss_ratio
            two_way = simulate_set_associative(
                optimized, CACHE_BYTES, BLOCK_BYTES, 2
            ).miss_ratio
            four_way = simulate_set_associative(
                optimized, CACHE_BYTES, BLOCK_BYTES, 4
            ).miss_ratio
            fully = simulate_fully_associative(
                optimized, CACHE_BYTES, BLOCK_BYTES
            ).miss_ratio
        with collector.scope(workload=name, layout="natural"):
            fully_natural = simulate_fully_associative(
                natural, CACHE_BYTES, BLOCK_BYTES
            ).miss_ratio
        rows.append(
            Row(
                name=name, direct=direct, two_way=two_way,
                four_way=four_way, fully=fully,
                fully_natural=fully_natural,
            )
        )
    return rows


def render(rows: list[Row]) -> str:
    """Render the associativity study."""
    return render_table(
        f"Associativity on optimized code ({CACHE_BYTES}B, "
        f"{BLOCK_BYTES}B blocks, miss ratio)",
        ["name", "direct", "2-way", "4-way", "fully assoc",
         "fully assoc (natural)"],
        [
            [r.name, fmt_pct(r.direct), fmt_pct(r.two_way),
             fmt_pct(r.four_way), fmt_pct(r.fully),
             fmt_pct(r.fully_natural)]
            for r in rows
        ],
        note="Placement already removes most conflicts: the direct-mapped "
        "column should sit close to the fully associative one, and at or "
        "below fully-associative-on-natural.",
    )


def run(runner: ExperimentRunner | None = None) -> str:
    """Regenerate the associativity study."""
    return render(compute(runner or default_runner()))
