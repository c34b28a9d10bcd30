"""The ``service-warm`` workload: a ``repro serve`` daemon under load.

Set-up starts the daemon several times (its own process, journal on,
its default single worker thread) and keeps the last one; it then warms
the artifact store at ``small`` scale by sending every distinct request
once.  The timed window is one :mod:`loadgen` process driving the daemon
in a closed loop.

A traced run first measures an untraced window on that daemon, then
starts a second daemon on the same store with ``--trace-dir`` (one
``repro.obs`` trace file per request: the daemon's own spans for
hydrate, placement, expansion and simulation) and measures a traced
window on it.

After the windows every distinct result is compared byte for byte with
the in-process engine's rendering of the same request, and an in-process
:class:`~repro.experiments.runner.ExperimentRunner` on the warm store
gives the suite's placed code size and 2 KB misses at ``small`` scale.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from repro.engine.store import ArtifactStore
from repro.experiments.runner import ExperimentRunner
from repro.obs import Recorder
from repro.service.schemas import normalize_request
from repro.service.worker import execute_request

import loadgen
import suite

#: Daemon start-ups timed during set-up; the median is reported.
STARTUPS = 3
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Daemon:
    """One ``python -m repro serve`` process on an ephemeral port."""

    def __init__(self, workdir: str, store_dir: str, journal_dir: str,
                 env: dict, trace_dir: str | None = None) -> None:
        self.log_path = os.path.join(workdir, "daemon.log")
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--cache-dir", store_dir, "--journal-dir", journal_dir]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=log, env=env)
        self.url = None

    def wait_ready(self) -> None:
        """Block until the daemon listens and ``/healthz`` answers 200."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.url is None:
            with open(self.log_path) as log:
                for line in log:
                    if "listening on " in line:
                        self.url = line.split("listening on ")[1].split()[0]
            if self.url is None:
                self._wait_step(deadline)
        while self._health() != 200:
            self._wait_step(deadline)

    def _health(self) -> int:
        try:
            return loadgen.call(self.url, "GET", "/healthz")[0]
        except (OSError, http.client.HTTPException):
            return 0

    def _wait_step(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(f"daemon exited with {self.process.returncode}")
        if time.monotonic() > deadline:
            raise RuntimeError("daemon did not become ready in time")
        time.sleep(0.01)

    def warm(self) -> None:
        """Every distinct request once: fills the store, loads modules."""
        for index in range(len(loadgen.POOL)):
            record = loadgen.run_one(self.url, 0, index)
            if not record["ok"]:
                raise RuntimeError(f"warm-up request failed: {record}")

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set size so far (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM not reported")

    def counters(self) -> dict:
        return loadgen.call(self.url, "GET", "/metrics")[1].get(
            "counters", {})

    def stop(self) -> None:
        """SIGTERM (the daemon drains), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def _window(daemon: Daemon, seed: int, seconds: float, traced: bool,
            workdir: str, env: dict, bench_dir: str) -> dict:
    """One loadgen process against ``daemon``; its JSON document."""
    out = os.path.join(workdir, f"load-{int(traced)}.json")
    subprocess.run(
        [sys.executable, os.path.join(bench_dir, "loadgen.py"),
         "--url", daemon.url, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(traced)),
         "--out", out],
        env=env, check=True, timeout=seconds + 120,
    )
    with open(out) as handle:
        load = json.load(handle)
    load["counters"] = daemon.counters()
    load["peak_rss_mb"] = daemon.peak_rss_mb()
    return load


def run(seed: int, seconds: float, traced: bool, workdir: str, env: dict,
        bench_dir: str) -> dict:
    """One service-warm run; returns the raw measurements."""
    store_dir = os.path.join(workdir, "store")
    trace_dir = os.path.join(workdir, "traces")
    startups = []
    daemons = []
    windows = []
    try:
        for attempt in range(STARTUPS):
            if daemons:
                daemons.pop().stop()
            started = time.perf_counter()
            daemons.append(Daemon(workdir, store_dir,
                                  os.path.join(workdir, f"journal-{attempt}"),
                                  env))
            daemons[-1].wait_ready()
            startups.append(time.perf_counter() - started)
        started = time.perf_counter()
        daemons[-1].warm()
        warm_s = time.perf_counter() - started
        windows.append(_window(daemons[-1], seed, seconds, False, workdir,
                               env, bench_dir))
        if traced:
            daemons.pop().stop()
            daemons.append(Daemon(workdir, store_dir,
                                  os.path.join(workdir, "journal-traced"),
                                  env, trace_dir))
            daemons[-1].wait_ready()
            daemons[-1].warm()
            windows.append(_window(daemons[-1], seed, seconds, True,
                                   workdir, env, bench_dir))
    finally:
        for daemon in daemons:
            daemon.stop()

    records = [record for window in windows for record in window["records"]]
    checks = [(f"load-client:{error}", False)
              for window in windows for error in window["errors"]]
    checks += _check_outputs(records, store_dir)
    checks.append(("service-warm-interp-instructions", sum(
        r["interp_instructions"] for r in records if r["ok"]) == 0))
    checks.append(("service-warm-store-misses", sum(
        r["store_misses"] for r in records if r["ok"]) == 0))
    runner = ExperimentRunner(loadgen.SCALE, suite.OPTIONS,
                              store=ArtifactStore(store_dir))
    facts = suite.suite_facts(runner)
    print(f"service-warm set-up: daemon start-ups "
          f"{', '.join(f'{s:.3f}' for s in startups)} s, store warm "
          f"{warm_s:.3f} s", file=sys.stderr)
    return {
        "setup_s": statistics.median(startups) + warm_s,
        "windows": windows,
        "checks": checks,
        "facts": facts,
        "store_bytes": ArtifactStore(store_dir).stats()["bytes"],
        "probe": suite.probe(runner) if traced else None,
        "daemon_spans": _daemon_spans(windows[-1], trace_dir)
        if traced else None,
    }


def _daemon_spans(window: dict, trace_dir: str) -> dict[str, list[dict]]:
    """The daemon's records for each job the traced window ran."""
    jobs = sorted({r["job"] for r in window["records"] if r.get("job")})
    return {job: Recorder.load_jsonl(
        os.path.join(trace_dir, f"{job}.jsonl"))["records"] for job in jobs}


def _check_outputs(records: list[dict], store_dir: str) -> list:
    """Each served result against the in-process engine, byte for byte."""
    expected = {}
    checks = []
    for record in records:
        if not record["ok"]:
            checks.append((f"request:{record['seq']}", False))
            continue
        index = record["pool"]
        if index not in expected:
            output = execute_request(normalize_request(loadgen.POOL[index]),
                                     cache_dir=store_dir)["output"]
            expected[index] = hashlib.sha256(output.encode()).hexdigest()
        checks.append((f"service-output:{record['seq']}",
                       record["output_sha"] == expected[index]))
    return checks
