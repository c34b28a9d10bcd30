"""Closed-loop load process for the ``service-warm`` workload.

Each client thread sends its next request only after the previous one
returned its result, and opens one connection per HTTP call, as
``repro.service.ServiceClient`` does (two clients, so at most two
connections at a time).

No recorded production traffic exists for the service; the mix is the
one ``benchmarks/bench_service.py`` sends, the repository's only stated
one: Tables 4, 6, 7 and 8 and ``explain`` (top 5) for small programs,
every request twice.  It drops that benchmark's fourth explain (tee).
With eight equally frequent requests, four fast explains and four slow
tables, the median latency falls exactly between the two kinds and
jumps with the slowest explain and the fastest table (a spread of 0.24
over ten seeds); with seven, the median falls in the middle of Table
4's latencies and the 94th percentile in the middle of Table 8's.  A round holds the seven
requests in a seeded order, each followed at once by its copy, so the
two clients ask for the same computation together and the daemon
coalesces them.  The seed sets only the order; every run sends whole
rounds.  A round starts only once the one before it has been served, so
a round's wall time does not depend on which request happened to end
the round before it (with overlapping rounds it swung by up to Table
8's latency from round to round).

A request's latency runs from just before ``POST /v1/jobs`` until its
``GET /v1/jobs/<id>/result`` returned 200.  Results are polled at a
fixed interval, ``POLL_S`` (not the backing-off ``ServiceClient.wait``),
so latency resolves to that interval plus one poll round trip.

With ``--trace 1`` each client thread records ``repro.obs`` spans (a
root span per request, ``service`` spans around each HTTP call) and
sends each request's trace id in ``X-Repro-Trace``, so the daemon's own
per-request trace files carry it too.

Run it as a script; it writes one JSON document to ``--out``::

    python3 icbench/loadgen.py --url http://127.0.0.1:8787 --seed 1 \\
        --seconds 10 --out load.json
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import random
import threading
import time
import urllib.parse

from repro import obs

CLIENTS = 2
POLL_S = 0.01
#: Rounds go on past the deadline until this many were served: about
#: 20 s of load, and 168 requests, so that ten latencies lie beyond the
#: 94th percentile.
MIN_ROUNDS = 12
SCALE = "small"
#: Every distinct request the load sends (``bench_service.REQUESTS``
#: without tee's explain).
POOL = (
    [{"kind": "table", "table": table, "scale": SCALE}
     for table in ("table4", "table6", "table7", "table8")]
    + [{"kind": "explain", "workload": name, "scale": SCALE, "top": 5}
       for name in ("wc", "cmp", "grep")]
)
ROUND = 2 * len(POOL)


def request_round(rng: random.Random) -> list[int]:
    """One round of pool indices in send order: each request twice."""
    order = list(range(len(POOL)))
    rng.shuffle(order)
    return [index for index in order for _copy in range(2)]


def call(url: str, method: str, path: str, body: dict | None = None,
         headers: dict | None = None):
    """One HTTP call on its own connection: ``(status, JSON document)``."""
    parsed = urllib.parse.urlsplit(url)
    payload = None if body is None else json.dumps(body).encode()
    all_headers = {"Accept": "application/json", "Connection": "close",
                   **(headers or {})}
    if payload is not None:
        all_headers["Content-Type"] = "application/json"
    connection = http.client.HTTPConnection(parsed.hostname, parsed.port,
                                            timeout=60)
    try:
        connection.request(method, path, body=payload, headers=all_headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


def run_one(url: str, sequence: int, pool_index: int,
            recorder=obs.NULL) -> dict:
    """Submit, poll to completion, fetch; the request's record."""
    record = {"seq": sequence, "pool": pool_index, "ok": False}
    rid = f"req-{sequence}"
    headers = {}
    if recorder.enabled:
        # The daemon stamps this id on its spans of the request.
        headers["X-Repro-Trace"] = rid = obs.mint_trace_id()
    with recorder.span("request", cat="request", request=rid):
        started = time.perf_counter()
        with recorder.span("submit", cat="service", request=rid):
            status, accepted = call(url, "POST", "/v1/jobs",
                                    POOL[pool_index], headers)
        record["submit_s"] = time.perf_counter() - started
        record["status"] = status
        if status != 202:
            record["error"] = accepted.get("error")
            return record
        record["job"] = accepted["id"]
        path = f"/v1/jobs/{accepted['id']}/result"
        while True:
            fetched = time.perf_counter()
            with recorder.span("result_fetch", cat="service", request=rid):
                status, document = call(url, "GET", path)
            if status != 202:
                break
            time.sleep(POLL_S)
        finished = time.perf_counter()
    record["status"] = status
    record["latency_s"] = finished - started
    record["fetch_s"] = finished - fetched
    if status != 200:
        record["error"] = document.get("error")
        return record
    receipt = document["receipt"]
    record.update(
        ok=True,
        output_sha=hashlib.sha256(document["output"].encode()).hexdigest(),
        queue_wait_s=receipt["queue_wait_s"],
        exec_s=receipt["exec_s"],
        interp_instructions=receipt["telemetry"]["totals"].get(
            "interp_instructions", 0),
        store_misses=receipt["store"]["misses"],
    )
    return record


def run_load(url: str, seed: int, seconds: float, traced: bool) -> dict:
    """Drive the daemon with whole rounds until ``seconds`` have passed.

    A round begins only when every request of the one before it has
    returned, so a round's wall time is the time the daemon took to
    serve exactly the mix, whatever the order inside it.  The deadline
    is checked only where a round begins, so every run completes whole
    rounds, at least ``MIN_ROUNDS`` of them.
    """
    rng = random.Random(f"icbench-load:{seed}")
    turn = threading.Condition()
    queue: list[int] = []
    state = {"sequence": 0, "in_flight": 0, "stopped": False,
             "round_start": 0.0}
    round_walls: list[float] = []
    records: list[dict] = []
    recorders: list[obs.Recorder] = []
    errors: list[str] = []
    epoch_start = time.time()
    started = time.perf_counter()
    deadline = started + seconds

    def next_request() -> tuple[int, int] | None:
        with turn:
            while not queue and not state["stopped"]:
                if state["in_flight"]:
                    turn.wait()
                    continue
                now = time.perf_counter()
                if state["round_start"]:
                    round_walls.append(now - state["round_start"])
                if now >= deadline and len(round_walls) >= MIN_ROUNDS:
                    state["stopped"] = True
                    turn.notify_all()
                else:
                    queue.extend(request_round(rng))
                    state["round_start"] = now
            if not queue:
                return None
            state["sequence"] += 1
            state["in_flight"] += 1
            return state["sequence"], queue.pop(0)

    def client_loop() -> None:
        recorder = obs.Recorder() if traced else obs.NULL
        if traced:
            with turn:
                recorders.append(recorder)
        try:
            while (claimed := next_request()) is not None:
                try:
                    record = run_one(url, *claimed, recorder)
                finally:
                    with turn:
                        state["in_flight"] -= 1
                        turn.notify_all()
                with turn:
                    records.append(record)
        except Exception as exc:  # a client that dies fails the run
            with turn:
                errors.append(f"{type(exc).__name__}: {exc}")
                state["stopped"] = True
                turn.notify_all()

    threads = [threading.Thread(target=client_loop, name=f"client-{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = time.perf_counter()
    records.sort(key=lambda record: record["seq"])
    return {
        "wall_s": ended - started,
        "epoch": [epoch_start, epoch_start + (ended - started)],
        "clients": CLIENTS,
        "poll_s": POLL_S,
        "round_size": ROUND,
        "round_walls": round_walls,
        "records": records,
        "errors": errors,
        "spans": [recorder.records for recorder in recorders],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = run_load(args.url, args.seed, args.seconds, bool(args.trace))
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
