"""The performance observatory: durable perf history and hot-path views.

Five legs, each a module:

- :mod:`repro.perf.ledger` — the append-only, checksummed
  ``repro-perf-v1`` JSONL ledger: one record per bench/CI run (git sha,
  label, metric key→value pairs), sealed, appended and read back
  torn-tail-tolerantly by :mod:`repro.durable`, as the journal is.
- :mod:`repro.perf.sentinel` — the regression sentinel behind
  ``repro perf check``: the newest record against a rolling window,
  median ± k·MAD per metric, direction-aware.
- :mod:`repro.perf.profiler` — the profile collector behind
  ``--profile-out``: the ``profiler`` slot of the instrumentation spine
  (:mod:`repro.obs.context`), cProfile per engine job, collapsed stacks
  shipped home in the job's one instrumentation payload, with a
  zero-overhead null path when off.
- :mod:`repro.perf.flame` — collapsed stacks rendered as a
  self-contained HTML flamegraph (inline CSS/JS, no external assets).
- :mod:`repro.perf.dashboard` — the live service dashboard behind
  ``GET /dashboard`` and the ledger trend fragment that
  ``repro report --html --ledger`` embeds.
"""

from repro.perf.ledger import LedgerError, PerfLedger, harvest_metrics
from repro.perf.sentinel import check_window

__all__ = [
    "LedgerError",
    "PerfLedger",
    "check_window",
    "harvest_metrics",
]
