"""Layer accounting over ``repro.obs`` span records.

A traced run installs an :class:`repro.obs.Recorder`, so the program's
own spans (``profiling``, ``inlining``, ``hydrate``, ``addresses``,
``simulate`` and the rest) land next to the few spans the benchmark
opens around the public calls it makes itself.  This module maps every
span to the layer of ``src/repro`` it times and turns a record list into
per-layer totals, self times and coverage.

Span ids are unique within one recorder only, so every function here
takes the records of one recorder (one process, or one client thread,
or one daemon request) at a time.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["LAYERS", "covered_seconds", "key_of", "layer_of",
           "request_ids", "self_times", "span_totals", "spans"]

LAYERS = ("workloads", "interp", "placement", "cache", "engine",
          "diagnose", "service")

#: The program's ``pipeline`` spans, by name.
_PIPELINE = {
    "build": "workloads",
    "profiling": "interp",
    "profiling_original": "interp",
    "reprofile": "interp",
    "trace_generation": "interp",
    "addresses": "interp",
    "inlining": "placement",
    "trace_selection": "placement",
    "function_layout": "placement",
    "global_layout": "placement",
    "artifacts": "engine",
    "hydrate": "engine",
}
#: An engine job's own time (its span minus the pipeline spans inside)
#: is the work of the job's kind.
_JOBS = {"artifacts": "engine", "table": "cache", "explain": "diagnose"}
#: Every other category: the program's own (``simulation``, ``engine``,
#: ``service``, ``opt``) and the benchmark's (named after the layer).
_CATEGORY = {
    "simulation": "cache",
    "opt": "placement",
    **{layer: layer for layer in LAYERS},
}


def key_of(record: dict) -> tuple[str, str]:
    """``(category, name)``; engine jobs are named ``job:<kind>``."""
    if record["cat"] == "engine" and record["name"] == "job":
        return "engine", f"job:{record['attrs'].get('kind')}"
    return record["cat"], record["name"]


def layer_of(record: dict) -> str | None:
    """The layer a span times, or None for the benchmark's request roots."""
    category, name = key_of(record)
    if category == "pipeline":
        return _PIPELINE.get(name)
    if name.startswith("job:"):
        return _JOBS.get(name[4:], "engine")
    return _CATEGORY.get(category)


def spans(records: list[dict]) -> list[dict]:
    return [record for record in records if record.get("type") == "span"]


def span_totals(records: list[dict]) -> dict[tuple[str, str], float]:
    """Summed duration per ``(category, name)``."""
    totals: dict[tuple[str, str], float] = defaultdict(float)
    for record in spans(records):
        totals[key_of(record)] += record["dur"]
    return totals


def self_times(records: list[dict]) -> dict[str, float]:
    """Per layer: span time minus the part its child spans cover."""
    closed = spans(records)
    child_time: dict[int, float] = defaultdict(float)
    for record in closed:
        if record["parent"] is not None:
            child_time[record["parent"]] += record["dur"]
    totals: dict[str, float] = defaultdict(float)
    for record in closed:
        layer = layer_of(record)
        if layer is not None:
            totals[layer] += record["dur"] - child_time[record["span_id"]]
    return totals


def covered_seconds(records: list[dict], start: float, end: float) -> float:
    """Length of ``[start, end]`` (epoch seconds) under root spans."""
    intervals = sorted(
        (max(record["ts"], start), min(record["ts"] + record["dur"], end))
        for record in spans(records) if record["parent"] is None
    )
    covered = 0.0
    cursor = start
    for low, high in intervals:
        low = max(low, cursor)
        if high > low:
            covered += high - low
            cursor = high
    return covered


def request_ids(records: list[dict]) -> dict[int, str]:
    """Each span's request: the trace id the daemon stamped on it, or
    the ``request`` attribute of its outermost span."""
    closed = {record["span_id"]: record for record in spans(records)}
    ids = {}
    for span_id, record in closed.items():
        root = record
        while root["parent"] in closed:
            root = closed[root["parent"]]
        ids[span_id] = record.get("trace") or root["attrs"].get("request")
    return ids
