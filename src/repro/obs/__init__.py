"""Structured observability for the placement pipeline and simulators.

Cooperating pieces, threaded through every layer of the system:

* :mod:`repro.obs.context` — the instrumentation spine: one thread-local
  slot holding the run's three sinks (this package's recorder, the
  :mod:`repro.diagnose` attribution collector and the
  :mod:`repro.perf.profiler` profile collector), one :func:`install` and
  one :func:`use` for any subset of them, and the one payload that ships
  a pool worker's sinks home.
* :mod:`repro.obs.trace` — a span-based tracer.  Each pipeline phase
  (profiling, inlining, trace selection, layout, simulation) and each
  engine job opens a nested span; closed spans are plain dicts that
  export as JSONL and as Chrome trace-event format (viewable in
  Perfetto via ``repro table6 --chrome-trace out.json``).
* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  histograms.  It supersedes the ad-hoc counter dict the engine
  telemetry used to carry: :class:`repro.engine.telemetry.Telemetry`
  is now backed by this registry.
* :mod:`repro.obs.report` — turns one run's JSONL into a human-readable
  summary (``repro report RUN.jsonl``) and diffs two runs, flagging
  metric regressions (``repro report --compare A B``).

Instrumentation calls :func:`current` and goes through whatever recorder
is in the spine's slot.  The default is :data:`NULL` — a null recorder
whose every operation is a no-op — so an unobserved run pays nothing:
hot paths guard any extra work behind ``recorder.enabled`` and the test
suite asserts the null path records nothing.
"""

from __future__ import annotations

from repro.obs import context
from repro.obs.context import NullRecorder, install, use
from repro.obs.recorder import Recorder
from repro.obs.trace import TraceContext, mint_trace_id

#: The zero-overhead default recorder.
NULL = context.NULLS.recorder


def current() -> Recorder | NullRecorder:
    """This thread's recorder: the spine's ``recorder`` slot."""
    return context.current().recorder


__all__ = [
    "NULL",
    "NullRecorder",
    "Recorder",
    "TraceContext",
    "context",
    "current",
    "install",
    "mint_trace_id",
    "use",
]
