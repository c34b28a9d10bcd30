"""The repository's benchmark: one command, three workloads.

    python3 icbench/run.py --workload cold-suite --seed 1 --seconds 10 \\
        --trace 0

Run it from the root of a checkout; it imports ``repro`` from ``src/``
and needs nothing built.  Workloads (see ``README.md`` next to this file
for why each was chosen and which layer metrics should move which
end-to-end metric):

``cold-suite``
    ``table6`` over the ten paper programs at ``default`` scale against
    an empty artifact store: the full cold path.
``warm-sweep``
    The store is filled during set-up; the timed run computes Tables
    6-9, the associativity study and ``explain`` for every program, all
    rehydrated from the store.
``service-warm``
    A ``repro serve`` daemon (journal on, store warmed at ``small``
    scale) driven by a closed-loop load process with two clients.

``--seed`` derives the programs' profiling inputs on the in-process
workloads (the trace input stays the registry's; see ``suite.py``) and
the request order on ``service-warm``.  Seed 0 selects the registry's
own inputs, and then the rendered tables must equal the committed
``results/*.txt``.  Timed work repeats until ``--seconds`` have passed,
in whole passes (an in-process pass, a service round of the request
mix); ``wall_s`` is the median pass.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` does the
work twice, once under a ``repro.obs`` recorder and once untraced to
compare with, and prints the per-layer metrics of the traced pass (or
service window); its spans are written to ``.icbench_work/spans/``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (each ``{"value", "unit"}``).
Every run uses fresh store and journal directories under
``.icbench_work/``, removed when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".icbench_work"
#: Set-ups repeated per cold-suite run (median reported).
SETUP_REPEATS = 3
#: The warm-sweep store is filled during set-up by one process per
#: group; the groups take about equal cold-path time (compress alone is
#: about 40% of the suite's).
FILL_GROUPS = (("compress", "make", "tee", "lex"),
               ("cccp", "cmp", "grep", "tar", "wc", "yacc"))
#: The tail latency reported: the highest percentile with at least ten
#: of service-warm's 168 latencies beyond it.
TAIL_PERCENTILE = 94
#: The program's ``placement`` event outcomes, as engine counters.
STORE_OUTCOMES = {"hit": "engine.store_hits", "miss": "engine.store_misses"}


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method), or the lone value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- workloads --------------------------------------------------------------


def _passes(args, workload: str, store_dir) -> list:
    """Untraced: whole passes until ``--seconds`` have been measured.

    Traced: one traced pass, then one untraced pass to compare it with.
    The traced pass comes first, like the measured pass of an untraced
    run; a process's second pass tends to run faster, so the comparison
    overstates the tracing overhead rather than hiding it.
    """
    import suite

    if args.trace:
        return [suite.run_pass(workload, store_dir(0), True),
                suite.run_pass(workload, store_dir(1), False)]
    passes = [suite.run_pass(workload, store_dir(0), False)]
    while sum(p.wall_s for p in passes) < args.seconds:
        passes.append(suite.run_pass(workload, store_dir(len(passes)),
                                     False))
    return passes


def run_cold_suite(args, workdir: str, env: dict) -> dict:
    import suite

    samples = []
    for _repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        # A fresh interpreter importing the program's layers.
        subprocess.run([sys.executable, "-c", "import suite"], env=env,
                       check=True)
        prepared, inputs_s = suite.prepare(args.seed, suite.SCALE)
        samples.append(time.perf_counter() - started)
    with suite.installed(prepared):
        passes = _passes(args, "cold-suite", lambda index: os.path.join(
            workdir, f"store-{index}"))
        first = passes[0]
        first.check("cold-store-misses",
                    first.telemetry.totals()["store_misses"] == 10)
        suite.check_out_streams(first, prepared)
        return _inprocess_result(args, statistics.median(samples), inputs_s,
                                 passes)


def run_warm_sweep(args, workdir: str, env: dict) -> dict:
    import suite

    store_dir = os.path.join(workdir, "store")
    started = time.perf_counter()
    fillers = [
        subprocess.Popen(
            [sys.executable, __file__, "--fill-store", store_dir,
             "--seed", str(args.seed), "--programs", ",".join(group)],
            env=env,
        )
        for group in FILL_GROUPS
    ]
    codes = [filler.wait() for filler in fillers]
    setup_s = time.perf_counter() - started
    if any(codes):
        raise RuntimeError(f"store fill failed: exit codes {codes}")
    prepared, _ = suite.prepare(args.seed, suite.SCALE, generate=False)
    with suite.installed(prepared):
        passes = _passes(args, "warm-sweep", lambda _index: store_dir)
        first = passes[0]
        totals = first.telemetry.totals()
        first.check("warm-store-hits", totals["store_hits"] == 10)
        first.check("warm-interp-instructions",
                    totals["interp_instructions"] == 0)
        suite.check_reference_simulators(first)
        return _inprocess_result(args, setup_s, 0.0, passes)


def fill_store(args) -> int:
    """Set-up helper for warm-sweep: the cold path into ``--fill-store``."""
    import suite

    if not suite.fill_store(args.fill_store, args.seed,
                            args.programs.split(",")):
        print("store fill did not compute every program", file=sys.stderr)
        return 1
    return 0


def run_service_warm(args, workdir: str, env: dict) -> dict:
    import service_warm

    run = service_warm.run(args.seed, args.seconds, bool(args.trace),
                           workdir, env, str(BENCH_DIR))
    load = run["windows"][0]
    done = [r for r in load["records"] if r["ok"]]
    latency = [r["latency_s"] for r in done] or [0.0]
    submit_p50_ms = 1000 * statistics.median(r["submit_s"] for r in done)
    print(f"service-warm: {len(done)} of {len(load['records'])} requests "
          f"({len(load['round_walls'])} rounds) completed by "
          f"{load['clients']} closed-loop clients in {load['wall_s']:.2f} "
          f"s; latency resolution: {load['poll_s'] * 1000:.0f} ms poll "
          f"interval + one poll round trip; submit p50 "
          f"{submit_p50_ms:.2f} ms", file=sys.stderr)
    facts = run["facts"]
    round_s = statistics.median(load["round_walls"])
    end_to_end = {
        "setup_s": (run["setup_s"], "s"),
        "wall_s": (round_s, "s"),
        "request_p50_s": (statistics.median(latency), "s"),
        "request_p94_s": (_quantile(latency, TAIL_PERCENTILE), "s"),
        # The median round's throughput: a burst of host contention that
        # slows a few rounds moves the median round less than the mean.
        "requests_per_s": (load["round_size"] / round_s, "1/s"),
        "peak_rss_mb": (load["peak_rss_mb"], "MB"),
        "miss_ratio_2k": (_ratio(facts["headline_misses"],
                                 facts["headline_accesses"]), "fraction"),
        "code_bytes": (facts["code_bytes"], "bytes"),
    }
    per_layer = {}
    if args.trace:
        per_layer = _service_layers(args, run)
    return _result(args, end_to_end, per_layer, run["checks"],
                   attempted_ops=sum(len(w["records"])
                                     for w in run["windows"]))


def _service_layers(args, run: dict) -> dict:
    """Per-layer metrics of the traced window, per round of the mix."""
    untraced, traced = run["windows"]
    done = [r for r in traced["records"] if r["ok"]]
    daemon_spans = run["daemon_spans"]
    record_lists = traced["spans"] + list(daemon_spans.values())
    _write_spans(args, record_lists)

    def p50(key):
        return statistics.median(r[key] for r in done) if done else 0.0

    counters = traced["counters"]
    counts = {
        "interp.instructions": sum(r["interp_instructions"] for r in done),
        "engine.store_bytes": run["store_bytes"],
        "workloads.inputs_s": 0.0,
        "service.submit_p50_s": p50("submit_s"),
        "service.queue_wait_p50_s": p50("queue_wait_s"),
        "service.exec_p50_s": p50("exec_s"),
        "service.result_fetch_p50_s": p50("fetch_s"),
        "service.coalesced": counters.get("service.coalesced", 0),
        "service.rejected": counters.get("service.rejected", 0),
        **_distinct_request_counts(done, daemon_spans),
    }
    return _layer_metrics(
        record_lists, passes=len(traced["round_walls"]),
        window=traced["epoch"], counts=counts, facts=run["facts"],
        probed=run["probe"],
        overhead_frac=_ratio(traced["wall_s"] / len(traced["round_walls"]),
                             untraced["wall_s"] / len(untraced["round_walls"]))
        - 1)


def _distinct_request_counts(done: list[dict],
                             daemon_spans: dict[str, list]) -> dict:
    """Simulation and store counts of one execution of each distinct
    request in the mix (repeats may or may not coalesce, so totals over
    the window would not repeat exactly)."""
    counts = dict.fromkeys(("cache.accesses", "cache.misses",
                            *STORE_OUTCOMES.values()), 0)
    first_job = {}
    for record in done:
        first_job.setdefault(record["pool"], record["job"])
    for job in first_job.values():
        for record in daemon_spans[job]:
            if record.get("type") != "event":
                continue
            fields = record["fields"]
            if record["name"] == "cache_sim":
                counts["cache.accesses"] += fields["accesses"]
                counts["cache.misses"] += fields["misses"]
            elif (record["name"] == "placement"
                  and fields["store"] in STORE_OUTCOMES):
                counts[STORE_OUTCOMES[fields["store"]]] += 1
    return counts


# -- metrics ----------------------------------------------------------------


def _inprocess_result(args, setup_s: float, inputs_s: float,
                      passes: list) -> dict:
    import suite

    first = passes[0]
    if args.seed == suite.REGISTRY_SEED:
        suite.check_tables(first, ROOT / "results")
    facts = suite.suite_facts(first.runner)
    walls = [p.wall_s for p in passes]
    latency = [s for p in passes for s in p.latency_s]
    print(f"{args.workload}: {len(latency)} requests in {len(passes)} "
          f"pass(es)", file=sys.stderr)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "request_p50_s": (statistics.median(latency), "s"),
        "request_p94_s": (_quantile(latency, TAIL_PERCENTILE), "s"),
        "requests_per_s": (len(latency) / sum(walls), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "miss_ratio_2k": (_ratio(facts["headline_misses"],
                                 facts["headline_accesses"]), "fraction"),
        "code_bytes": (facts["code_bytes"], "bytes"),
    }
    per_layer = {}
    if args.trace:
        records = first.recorder.records
        _write_spans(args, [records])
        counters = first.recorder.metrics.counter_values()
        totals = first.telemetry.totals()
        counts = {
            "interp.instructions": totals["interp_instructions"],
            "cache.accesses": counters.get("cache_sim_accesses", 0),
            "cache.misses": counters.get("cache_sim_misses", 0),
            "engine.store_hits": totals["store_hits"],
            "engine.store_misses": totals["store_misses"],
            "engine.store_bytes": first.runner.store.stats()["bytes"],
            "workloads.inputs_s": inputs_s,
        }
        per_layer = _layer_metrics(
            [records], passes=1, window=first.epoch, counts=counts,
            facts=facts, probed=suite.probe(first.runner),
            overhead_frac=first.wall_s / passes[1].wall_s - 1)
    checks = [c for p in passes for c in p.checks]
    return _result(args, end_to_end, per_layer, checks,
                   attempted_ops=sum(len(p.latency_s) for p in passes))


def _write_spans(args, record_lists: list[list[dict]]) -> None:
    """Traced runs keep their spans: one JSON line per span, with the
    recorder it came from (``source``) and the request it served."""
    from layers import request_ids, spans

    directory = WORK_ROOT / "spans"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
    with open(path, "w") as handle:
        for source, records in enumerate(record_lists):
            requests = request_ids(records)
            for record in spans(records):
                handle.write(json.dumps(
                    {"source": source,
                     "request": requests[record["span_id"]], **record},
                    default=str) + "\n")


def _layer_metrics(record_lists: list[list[dict]], passes: int, window,
                   counts: dict, facts: dict, probed: dict,
                   overhead_frac: float) -> dict:
    """Per-layer metrics: span times per pass, counts, probe costs."""
    import suite
    from layers import LAYERS, covered_seconds, self_times, span_totals

    totals: dict = defaultdict(float)
    selfs: dict = defaultdict(float)
    for records in record_lists:
        for key, value in span_totals(records).items():
            totals[key] += value
        for layer, value in self_times(records).items():
            selfs[layer] += value

    def seconds(*keys):
        return sum(totals[key] for key in keys) / passes

    interp_run_s = seconds(("pipeline", "profiling"),
                           ("pipeline", "profiling_original"),
                           ("pipeline", "reprofile"),
                           ("pipeline", "trace_generation"))
    instructions = counts["interp.instructions"]
    start, end = window
    covered = covered_seconds(
        [record for records in record_lists for record in records],
        start, end)
    metrics = {
        "interp.profile_s": (seconds(("pipeline", "profiling"),
                                     ("pipeline", "profiling_original")),
                             "s"),
        "interp.reprofile_s": (seconds(("pipeline", "reprofile")), "s"),
        "interp.trace_s": (seconds(("pipeline", "trace_generation")), "s"),
        "interp.instructions": (instructions, "count"),
        "interp.ns_per_instr": (_ratio(interp_run_s * 1e9, instructions),
                                "ns"),
        "interp.expand_s": (seconds(("pipeline", "addresses")), "s"),
        "interp.expand_ns_per_access": (probed["expand_ns_per_access"],
                                        "ns"),
        "interp.accesses": (probed["accesses"], "count"),
    }
    for kind in suite.KERNELS:
        metrics[f"cache.{kind}_ns_per_access"] = (
            probed[f"{kind}_ns_per_access"], "ns")
    metrics.update({
        "cache.simulate_s": (selfs["cache"] / passes, "s"),
        "cache.accesses": (counts["cache.accesses"], "count"),
        "cache.misses": (counts["cache.misses"], "count"),
        "cache.granule_run_ratio": (
            _ratio(facts["granule_runs"], facts["headline_accesses"]),
            "fraction"),
        "workloads.build_s": (seconds(("workloads", "build"),
                                      ("pipeline", "build")), "s"),
        "workloads.inputs_s": (counts["workloads.inputs_s"], "s"),
        "placement.inline_s": (seconds(("pipeline", "inlining")), "s"),
        "placement.place_s": (seconds(("pipeline", "trace_selection"),
                                      ("pipeline", "function_layout"),
                                      ("pipeline", "global_layout")), "s"),
        "placement.inline_growth": (
            _ratio(facts["final_instructions"],
                   facts["original_instructions"]), "ratio"),
        "placement.traces": (facts["traces"], "count"),
        "engine.hydrate_s": (seconds(("pipeline", "hydrate")), "s"),
        "engine.store_get_s": (seconds(("engine", "store_get")), "s"),
        "engine.store_put_s": (seconds(("engine", "store_put")), "s"),
        "engine.store_bytes": (counts["engine.store_bytes"], "bytes"),
        "engine.store_hits": (counts["engine.store_hits"], "count"),
        "engine.store_misses": (counts["engine.store_misses"], "count"),
        "diagnose.explain_s": (seconds(("diagnose", "explain"),
                                       ("engine", "job:explain")), "s"),
    })
    for key in ("submit_p50_s", "queue_wait_p50_s", "exec_p50_s",
                "result_fetch_p50_s"):
        metrics[f"service.{key}"] = (counts.get(f"service.{key}", 0.0), "s")
    for key in ("coalesced", "rejected"):
        metrics[f"service.{key}"] = (counts.get(f"service.{key}", 0), "count")
    metrics.update({
        "trace.coverage": (_ratio(covered, end - start), "fraction"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
    })
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = (selfs[layer] / passes, "s")
    return metrics


def _result(args, end_to_end: dict, per_layer: dict, checks: list,
            attempted_ops: int) -> dict:
    failed_checks = [name for name, ok in checks if not ok]
    for name in failed_checks:
        print(f"check failed: {name}", file=sys.stderr)
    attempted = attempted_ops + len(checks)
    failed = len(failed_checks)
    end_to_end["success_rate"] = (1 - failed / attempted, "fraction")
    chosen = per_layer if args.trace else end_to_end
    return {
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }


RUNNERS = {
    "cold-suite": run_cold_suite,
    "warm-sweep": run_warm_sweep,
    "service-warm": run_service_warm,
}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the repro pipeline end to end and per layer.")
    parser.add_argument("--workload", choices=tuple(RUNNERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fill-store", metavar="DIR",
                        help="set-up helper: fill a store and exit")
    parser.add_argument("--programs", help="with --fill-store: programs")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"icbench: no repro sources under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be 0 or more")
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]))
    if args.fill_store:
        return fill_store(args)
    if args.workload is None:
        parser.error("--workload is required")
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    # Anything that falls back to the default store lands in this run's
    # own directory, never in a shared one.
    env["REPRO_CACHE_DIR"] = os.environ["REPRO_CACHE_DIR"] = os.path.join(
        workdir, "default-store")
    try:
        result = RUNNERS[args.workload](args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
