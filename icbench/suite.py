"""The in-process workloads: ``cold-suite`` and ``warm-sweep``.

Both drive the program through its own entry points: an
:class:`~repro.experiments.runner.ExperimentRunner` backed by an
:class:`~repro.engine.store.ArtifactStore`, the tables' ``compute``
functions and ``explain_with_runner``, exactly as ``repro table6`` and
``repro explain`` call them.

* ``cold-suite`` (one pass = one empty store): ``table6.compute``, which
  builds, profiles, inlines, reprofiles, places and traces every program
  (store put included) and then sweeps Table 6's direct-mapped grid.
* ``warm-sweep`` (store filled during set-up): ``table6..9.compute``,
  ``associativity.compute`` and ``explain_with_runner`` per program;
  every artifact is rehydrated from the store, with no interpreter step.

A *request* is one table or one ``explain`` report.  The benchmark opens
a span around each request (category: the layer the call belongs to);
everything inside it is timed by the program's own ``repro.obs`` spans.

Inputs come from the benchmark's seed.  :func:`prepare` makes seeded
copies of the registry's workloads, generates their inputs up front, and
:func:`installed` puts the copies in the registry for the length of a
run.  The seed resamples the profiling inputs, the runs the placement
learns from and most of the interpreter's work: each profiling seed
moves by ``SEED_STRIDE * seed``.  The trace input, on which every cache
organization is evaluated, stays the registry's, so the simulated work
and the explain reports cost the same from seed to seed and the miss
ratios measure placements learned from different profiles on one
held-out input.  Seed 0 is the registry's own inputs.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cache.direct import simulate_direct
from repro.cache.partial import simulate_partial
from repro.cache.sectored import simulate_sectored
from repro.cache.set_assoc import (
    simulate_fully_associative,
    simulate_set_associative,
)
from repro.cache.vectorized import simulate_direct_vectorized
from repro.diagnose.explain import explain_with_runner
from repro.engine.store import ArtifactStore
from repro.engine.telemetry import Telemetry
from repro.experiments import associativity, table6, table7, table8, table9
from repro.experiments.runner import MAX_TRACE_INSTRUCTIONS, ExperimentRunner
from repro.interp.interpreter import Interpreter
from repro.placement.pipeline import PlacementOptions
from repro.workloads import registry
from repro.workloads.registry import Workload, get_workload, workload_names

SCALE = "default"
OPTIONS = PlacementOptions.paper()
#: The benchmark seed whose inputs are the registry's own (the committed
#: ``results/*.txt`` were rendered from them).
REGISTRY_SEED = 0
#: Profiling seeds move in steps of 100: a multiple of every modulus an
#: input maker branches on (cmp's ``seed % 2``, grep's ``seed % 4``), so a
#: seed resamples a workload without changing what it runs, and past every
#: registry seed, so no profiling input is the trace input.
SEED_STRIDE = 100
#: Accesses replayed through the reference simulators per program.
REFERENCE_WINDOW = 40_000
#: One reference geometry per program, cycled in suite order.
REFERENCE_GEOMETRIES = ((2048, 64), (1024, 32), (4096, 16), (512, 64),
                        (8192, 128))
#: The paper's headline geometry: 2 KB direct-mapped, 64 B blocks.
HEADLINE = (2048, 64)
#: Accesses per program each simulator is timed on in a traced run.
PROBE_WINDOW = 100_000
#: The simulators a traced run times, at the paper's 2 KB / 64 B point.
KERNELS = {
    "direct": lambda a: simulate_direct_vectorized(a, 2048, 64),
    "set_assoc": lambda a: simulate_set_associative(a, 2048, 64, 2),
    "fully": lambda a: simulate_fully_associative(a, 2048, 64),
    "sectored": lambda a: simulate_sectored(a, 2048, 64, 8),
    "partial": lambda a: simulate_partial(a, 2048, 64),
}
#: The tables warm-sweep computes, by the name of their results file.
TABLES = {
    "table6": table6,
    "table7": table7,
    "table8": table8,
    "table9": table9,
    "associativity": associativity,
}


# -- seeded inputs -----------------------------------------------------------


def _spanned(builder):
    """A workload builder that times itself as a ``workloads`` span."""

    def build():
        with obs.current().span("build", cat="workloads"):
            return builder()

    return build


def _pregenerated(inputs: dict[int, list[int]], scale: str):
    def input_maker(seed: int, wanted: str) -> list[int]:
        if wanted != scale:
            raise ValueError(f"inputs were generated for {scale!r}")
        return inputs[seed]

    return input_maker


def prepare(seed: int, scale: str, names: list[str] | None = None,
            generate: bool = True) -> tuple[dict[str, Workload], float]:
    """Seeded copies of the registry's workloads, and the input time.

    With ``generate`` every input is made now and the copies hand out
    those lists; otherwise the copies make them on demand.
    """
    prepared = {}
    inputs_s = 0.0
    for name in names or workload_names():
        workload = get_workload(name)
        profile_seeds = tuple(s + SEED_STRIDE * seed
                              for s in workload.profile_seeds)
        input_maker = workload.input_maker
        if generate:
            started = time.perf_counter()
            inputs = {s: workload.input_maker(s, scale)
                      for s in (*profile_seeds, workload.trace_seed)}
            inputs_s += time.perf_counter() - started
            input_maker = _pregenerated(inputs, scale)
        prepared[name] = dataclasses.replace(
            workload,
            builder=_spanned(workload.builder),
            input_maker=input_maker,
            profile_seeds=profile_seeds,
        )
    return prepared, inputs_s


@contextmanager
def installed(prepared: dict[str, Workload]):
    """The seeded workloads stand in for the registry's while active."""
    get_workload(next(iter(prepared)))  # the registry loads itself
    saved = {name: registry._REGISTRY[name] for name in prepared}
    registry._REGISTRY.update(prepared)
    try:
        yield
    finally:
        registry._REGISTRY.update(saved)


# -- passes ------------------------------------------------------------------


class SpannedStore(ArtifactStore):
    """An artifact store whose reads and writes open ``engine`` spans.

    Traced runs use it; the store itself opens no spans.
    """

    def get(self, key):
        with obs.current().span("store_get", cat="engine"):
            return super().get(key)

    def put(self, key, payload):
        with obs.current().span("store_put", cat="engine"):
            return super().put(key, payload)


@dataclass
class Pass:
    """One pass over the workload's requests, and what it measured."""

    runner: ExperimentRunner
    telemetry: Telemetry
    recorder: obs.Recorder | obs.NullRecorder
    started: float = 0.0
    ended: float = 0.0
    epoch: tuple[float, float] = (0.0, 0.0)
    latency_s: list[float] = field(default_factory=list)
    rows: dict[str, list] = field(default_factory=dict)
    checks: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.ended - self.started

    def request(self, name: str, layer: str, call, *args):
        """One public call, timed, under a span of the calling layer.

        ``name`` is ``<call>`` or ``<call>:<program>``; the span is
        named after the call and carries ``name`` as its request id.
        """
        started = time.perf_counter()
        with self.recorder.span(name.partition(":")[0], cat=layer,
                                request=name):
            value = call(*args)
        self.latency_s.append(time.perf_counter() - started)
        return value

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))


def _cold_requests(run: Pass) -> None:
    run.rows["table6"] = run.request("table6", "cache", table6.compute,
                                     run.runner)


def _warm_requests(run: Pass) -> None:
    for name, module in TABLES.items():
        run.rows[name] = run.request(name, "cache", module.compute,
                                     run.runner)
    for name in run.runner.names():
        report = run.request(f"explain:{name}", "diagnose",
                             explain_with_runner, run.runner, name)
        run.check(f"explain:{name}", report.startswith(f"explain {name}"))


REQUESTS = {"cold-suite": _cold_requests, "warm-sweep": _warm_requests}


def run_pass(workload: str, store_dir: str, traced: bool) -> Pass:
    """One pass of ``workload`` against the store in ``store_dir``."""
    store = SpannedStore(store_dir) if traced else ArtifactStore(store_dir)
    telemetry = Telemetry()
    run = Pass(
        runner=ExperimentRunner(SCALE, OPTIONS, store=store,
                                telemetry=telemetry),
        telemetry=telemetry,
        recorder=obs.Recorder() if traced else obs.NULL,
    )
    with obs.use(run.recorder):
        epoch_start = time.time()
        run.started = time.perf_counter()
        REQUESTS[workload](run)
        run.ended = time.perf_counter()
        run.epoch = (epoch_start, time.time())
    return run


# -- after the timed window ---------------------------------------------------


def suite_facts(runner: ExperimentRunner) -> dict[str, float]:
    """Placement results and headline misses of the pass's artifacts."""
    facts = dict.fromkeys(
        ("code_bytes", "traces", "original_instructions",
         "final_instructions", "headline_misses", "headline_accesses",
         "granule_runs"), 0)
    for name in runner.names():
        placement = runner.artifacts(name).placement
        facts["code_bytes"] += placement.image.total_bytes
        facts["traces"] += sum(len(selection.traces)
                               for selection in placement.selections.values())
        facts["original_instructions"] += (
            placement.inline_report.original_instructions)
        facts["final_instructions"] += (
            placement.inline_report.final_instructions)
        addresses = runner.addresses(name)
        result = simulate_direct_vectorized(addresses, *HEADLINE)
        facts["headline_misses"] += result.misses
        facts["headline_accesses"] += result.accesses
        blocks = addresses >> 6
        facts["granule_runs"] += 1 + int(
            np.count_nonzero(blocks[1:] != blocks[:-1]))
    return facts


def probe(runner: ExperimentRunner) -> dict[str, float]:
    """Per-access cost of address expansion and of every simulator.

    Each program's optimized trace is expanded once; each simulator
    replays the first ``PROBE_WINDOW`` accesses of it.
    """
    seconds = dict.fromkeys(("expand", *KERNELS), 0.0)
    accesses = dict.fromkeys(("expand", *KERNELS), 0)
    for name in runner.names():
        art = runner.artifacts(name)
        started = time.perf_counter()
        addresses = art.trace.addresses(art.image)
        seconds["expand"] += time.perf_counter() - started
        accesses["expand"] += len(addresses)
        window = addresses[:PROBE_WINDOW]
        for kind, simulate in KERNELS.items():
            started = time.perf_counter()
            simulate(window)
            seconds[kind] += time.perf_counter() - started
            accesses[kind] += len(window)
    return {
        "accesses": accesses["expand"],
        **{f"{kind}_ns_per_access": seconds[kind] * 1e9 / accesses[kind]
           for kind in seconds},
    }


def check_out_streams(run: Pass, prepared: dict[str, Workload]) -> None:
    """The placed program's OUT stream equals the original's."""
    for name in run.runner.names():
        art = run.runner.artifacts(name)
        trace_input = prepared[name].trace_input(SCALE)
        placed = Interpreter(art.program).run(
            trace_input, max_instructions=MAX_TRACE_INSTRUCTIONS)
        original = Interpreter(art.original_program).run(
            trace_input, max_instructions=MAX_TRACE_INSTRUCTIONS)
        run.check(f"out-stream:{name}",
                  placed.halted and placed.output == original.output)


def check_reference_simulators(run: Pass) -> None:
    """Vectorized direct-mapped misses against the two slow references.

    On the first ``REFERENCE_WINDOW`` accesses of each program's
    optimized trace, one geometry per program.
    """
    for index, name in enumerate(run.runner.names()):
        geometry = REFERENCE_GEOMETRIES[index % len(REFERENCE_GEOMETRIES)]
        window = run.runner.addresses(name)[:REFERENCE_WINDOW]
        fast = simulate_direct_vectorized(window, *geometry)
        slow = simulate_direct(window, *geometry)
        one_way = simulate_set_associative(window, *geometry, 1)
        run.check(f"reference-direct:{name}",
                  fast.misses == slow.misses == one_way.misses)


def check_tables(run: Pass, committed_dir) -> None:
    """At the registry seed, rendered tables equal ``results/*.txt``."""
    for table, rows in run.rows.items():
        committed = (committed_dir / f"{table}.txt").read_text()
        run.check(f"results/{table}.txt",
                  TABLES[table].render(rows).rstrip("\n")
                  == committed.rstrip("\n"))


def fill_store(store_dir: str, seed: int, names: list[str]) -> bool:
    """Set-up for warm-sweep: the cold path for ``names`` into a store."""
    prepared, _ = prepare(seed, SCALE, names)
    telemetry = Telemetry()
    runner = ExperimentRunner(SCALE, OPTIONS,
                              store=ArtifactStore(store_dir),
                              telemetry=telemetry)
    with installed(prepared):
        for name in names:
            runner.artifacts(name)
    return telemetry.totals()["store_misses"] == len(names)
