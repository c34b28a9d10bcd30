"""The instrumentation spine: one ambient slot for every sink.

Three instruments explain a run, and instrumented code finds all three
through this one thread-local slot:

* ``recorder`` — spans, events and metrics (:class:`repro.obs.Recorder`);
* ``collector`` — 3C miss attribution (:class:`repro.diagnose.Collector`);
* ``profiler`` — hot-path stacks
  (:class:`repro.perf.profiler.ProfileCollector`).

::

    sinks = context.current()
    with sinks.collector.scope(workload=name), sinks.profiler.capture():
        ...

Each slot defaults to a null sink whose every operation is a no-op and
whose context managers are the one shared :data:`NOOP`, so an
uninstrumented run allocates nothing and records nothing; hot paths
guard any extra computation behind ``sink.enabled``.  :func:`use` sets
any subset of the sinks for this thread and restores the slot on exit;
:func:`install` sets process-wide defaults.

Sinks in a pool worker cannot reach the parent's, so the engine crosses
the process boundary with two plain values: an :class:`InstrumentSpec`
going out (which sinks are on, plus the trace id) and an
:class:`InstrumentPayload` coming back (what the worker's own sinks
collected), which :func:`absorb` folds into the caller's sinks.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, NamedTuple

__all__ = [
    "NOOP",
    "NULLS",
    "InstrumentPayload",
    "InstrumentSpec",
    "NullCollector",
    "NullProfileCollector",
    "NullRecorder",
    "Sinks",
    "absorb",
    "current",
    "install",
    "use",
]


class _Noop:
    """The reusable no-op context manager every null sink hands out."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


NOOP = _Noop()


class NullRecorder:
    """Absorbs every observation without doing anything."""

    enabled = False

    def span(self, name, cat="phase", **attrs):
        return NOOP

    def event(self, name, **fields):
        pass

    def count(self, name, amount=1):
        pass

    def gauge(self, name, value):
        pass

    def observe(self, name, value):
        pass

    def absorb(self, records, metrics=None):
        pass


class NullCollector:
    """Absorbs every attribution call without doing anything."""

    enabled = False

    def scope(self, workload=None, layout=None):
        return NOOP

    def register_symbols(self, workload, layout, symbols):
        pass

    def record(self, organization, cache_bytes, block_bytes, addresses,
               probe, set_misses=None):
        pass

    def merge_dict(self, data):
        pass


class NullProfileCollector:
    """Absorbs nothing, allocates nothing."""

    enabled = False

    def capture(self):
        return NOOP

    def record(self, stacks):
        pass


class Sinks(NamedTuple):
    """The three sinks one thread records into."""

    recorder: Any
    collector: Any
    profiler: Any


#: The zero-overhead null sinks (``obs.NULL``, ``diagnose.NULL`` and
#: ``perf.profiler.NULL``), current until something is installed or used.
#: They live here, not beside their real sinks, because obs, diagnose and
#: perf all import this module for them: the spine imports none of those.
NULLS = Sinks(NullRecorder(), NullCollector(), NullProfileCollector())

_DEFAULT = NULLS
_TLS = threading.local()


def current() -> Sinks:
    """This thread's sinks: its :func:`use` override, else the defaults."""
    return getattr(_TLS, "sinks", None) or _DEFAULT


def _given(recorder, collector, profiler) -> dict:
    return {
        name: sink for name, sink in (
            ("recorder", recorder), ("collector", collector),
            ("profiler", profiler),
        ) if sink is not None
    }


def install(recorder=None, collector=None, profiler=None) -> None:
    """Make the given sinks the process-wide defaults.

    They also replace this thread's :func:`use` override of the same
    sinks: a forked pool worker inherits its parent thread's overrides,
    and an explicit install must supersede those dead ends.
    """
    global _DEFAULT
    given = _given(recorder, collector, profiler)
    _DEFAULT = _DEFAULT._replace(**given)
    override = getattr(_TLS, "sinks", None)
    if override is not None:
        _TLS.sinks = override._replace(**given)


@contextmanager
def use(recorder=None, collector=None, profiler=None):
    """Make the given sinks current for this thread, restoring on exit.

    Sinks left as ``None`` keep their current value.  Thread-local
    (unlike :func:`install`): concurrent service requests must not
    interleave each other's spans, attributions or stacks.
    """
    previous = getattr(_TLS, "sinks", None)
    _TLS.sinks = current()._replace(**_given(recorder, collector, profiler))
    try:
        yield _TLS.sinks
    finally:
        _TLS.sinks = previous


@dataclass(frozen=True)
class InstrumentSpec:
    """Which sinks a job should feed, plus the trace id to stamp.

    What a pool worker needs to collect on its caller's behalf; it never
    touches seeding or outputs, so instrumented runs stay byte-identical.
    """

    observe: bool = False
    attribute: bool = False
    profile: bool = False
    trace: str | None = None

    @classmethod
    def of_current(cls) -> InstrumentSpec:
        """The spec matching this thread's sinks."""
        sinks = current()
        return cls(
            observe=sinks.recorder.enabled,
            attribute=sinks.collector.enabled,
            profile=sinks.profiler.enabled,
            trace=getattr(sinks.recorder, "trace_id", None),
        )


@dataclass
class InstrumentPayload:
    """What a job's own sinks collected, shipped home in its outcome.

    Empty unless the job ran where its caller's sinks could not reach
    (a pool worker), so an uninstrumented run ships no extra bytes.
    """

    records: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    attribution: dict = field(default_factory=dict)
    profile: dict = field(default_factory=dict)

    @classmethod
    def collect(cls, recorder=None, collector=None, profiler=None):
        """The payload of a job's own sinks (``None`` for sinks it lacked)."""
        payload = cls()
        if recorder is not None:
            payload.records = recorder.records
            payload.metrics = recorder.metrics.to_dict()
        if collector is not None:
            payload.attribution = collector.to_dict()
        if profiler is not None:
            payload.profile = dict(profiler.stacks)
        return payload


def absorb(payload: InstrumentPayload) -> None:
    """Fold a shipped payload into this thread's sinks.

    Null sinks ignore it.  Attribution merging replaces whole entries, so
    ``--jobs N`` attribution is identical to ``--jobs 1`` even when two
    tables replay the same configuration.
    """
    sinks = current()
    sinks.recorder.absorb(payload.records, payload.metrics)
    sinks.collector.merge_dict(payload.attribution)
    sinks.profiler.record(payload.profile)
