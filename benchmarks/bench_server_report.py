"""Write BENCH_server.json: the HTTP front end under concurrent load.

Boots one ``python -m repro.server`` subprocess (4 warm workers, rate
limiting off, a fresh result store) and drives it over real sockets:

Phases (shared schema, :mod:`report_schema`)::

    server/cold       # first repair request: pays the actual repair
    server/load       # >= 200 concurrent clients of cached repair
    server/sessions   # concurrent named-session command round trips
    server/async      # 202 + poll round trip through the job queue

``server/load`` is the tentpole measurement: ``--clients`` (default
200) threads each issue ``--requests-per-client`` (default 3) repair
POSTs against the 4-worker pool; every request latency is kept, and the
p50/p95/p99 computed exactly from those samples (:func:`quantile`) land
in the phase entry, alongside throughput.  Three gates fail the bench
outright rather than writing a report:

* **zero dropped-without-429** — every request must receive an HTTP
  response; transport errors (connection refused/reset, short reads)
  are drops, and the only non-200 statuses tolerated are 429/503 with
  the structured JSON error body and a ``Retry-After`` header;
* **digest parity** — the ``result_digest`` served over HTTP must be
  byte-identical to a direct in-process scheduler run of the same
  manifest (the service suite ties that to the ``Repair`` vernacular,
  so the chain reaches the semantics);
* **cache coherence** — under load every repair must be served from
  the store (``cached``), proving the shared pool + store tier behind
  the server is doing the work, not per-request recomputation.

Wall-time regressions are caught by CI diffing this report against
``baselines/BENCH_server.json`` with ``check_regression.py
--require-phase 'server/*'``.

Usage::

    PYTHONPATH=src python benchmarks/bench_server_report.py \
        [OUTPUT.json] [--clients 200] [--requests-per-client 3]
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Sequence, Tuple

from report_schema import make_report, write_report

QUICKSTART_SPEC = {
    "name": "quickstart/rev_app_distr",
    "setup": "repro.service.cases:quickstart_env",
    "target": "rev_app_distr",
    "config": {"kind": "auto", "a": "list", "b": "New.list"},
    "old": ["list"],
    "rename": {"kind": "prefix", "value": "New."},
}

REPAIR_MANIFEST = {"batch": "bench-server", "jobs": [QUICKSTART_SPEC]}

#: Statuses that count as *served* under load; anything else (or a
#: transport error) is a dropped request and fails the bench.
SHED_STATUSES = (429, 503)


class Dropped(Exception):
    """A request the server failed to answer with an HTTP response."""


def _call(
    port: int,
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
    timeout: float = 120.0,
) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)
    except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
        raise Dropped(f"{method} {path}: {exc}") from exc


def _spawn_server(store_dir: str, workers: int) -> Tuple[Any, int]:
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server",
            "--port",
            "0",
            "--workers",
            str(workers),
            "--store",
            store_dir,
            "--rate",
            "0",
            "--quiet",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    assert process.stdout is not None
    line = process.stdout.readline()
    try:
        info = json.loads(line)
        assert info["event"] == "listening"
    except Exception:
        process.kill()
        raise RuntimeError(f"server did not come up, got {line!r}")
    return process, int(info["port"])


def quantile(samples: Sequence[float], percentile: float) -> float:
    """The ``percentile`` (0..100) of ``samples``, interpolating linearly
    between the two closest ranks of the sorted samples."""
    if not samples:
        raise ValueError("quantile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * percentile / 100.0
    below = math.floor(rank)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] + (rank - below) * (ordered[above] - ordered[below])


def _percentile_entry(
    samples: Sequence[float], wall: float, workers: int
) -> Dict[str, Any]:
    """A phase entry: wall, count, throughput and exact latency quantiles."""
    entry: Dict[str, Any] = {
        "wall_time_s": round(wall, 6),
        "count": len(samples),
        "workers": workers,
        "throughput_rps": round(len(samples) / max(wall, 1e-9), 2),
    }
    for percentile in (50, 95, 99):
        entry[f"latency_p{percentile}_s"] = round(
            quantile(samples, percentile), 6
        )
    return entry


def _drive_load(
    port: int, clients: int, per_client: int
) -> Tuple[List[float], float, Dict[int, int], List[str]]:
    """``clients`` threads, ``per_client`` repair POSTs each.

    Returns every answered request's latency, the total wall time, a
    status-code tally, and every drop/shed protocol violation seen.
    """
    latencies: List[float] = []
    statuses: Dict[int, int] = {}
    problems: List[str] = []
    lock = threading.Lock()
    start_gate = threading.Event()

    def client(index: int) -> None:
        start_gate.wait()
        for _ in range(per_client):
            began = time.monotonic()
            try:
                status, payload, headers = _call(
                    port, "POST", "/v1/repair", REPAIR_MANIFEST
                )
            except Dropped as exc:
                with lock:
                    problems.append(str(exc))
                continue
            elapsed = time.monotonic() - began
            with lock:
                latencies.append(elapsed)
                statuses[status] = statuses.get(status, 0) + 1
                if status in SHED_STATUSES:
                    lowered = {k.lower() for k in headers}
                    if "retry-after" not in lowered:
                        problems.append(
                            f"shed response {status} without Retry-After"
                        )
                elif status != 200:
                    problems.append(f"unexpected status {status}: {payload}")
                elif payload["counts"] != {"cached": 1}:
                    problems.append(
                        f"load request recomputed instead of cache hit: "
                        f"{payload['counts']}"
                    )

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    began = time.monotonic()
    start_gate.set()
    for thread in threads:
        thread.join(timeout=600)
    wall = time.monotonic() - began
    return latencies, wall, statuses, problems


def _drive_sessions(port: int, sessions: int) -> Tuple[List[float], float]:
    """Concurrent named sessions: create, one Repair command, close."""
    latencies: List[float] = []
    errors: List[str] = []
    lock = threading.Lock()

    def client(index: int) -> None:
        name = f"bench-{index}"
        began = time.monotonic()
        try:
            status, _, _ = _call(
                port, "POST", "/v1/sessions", {"name": name}
            )
            assert status == 201, f"create {name}: {status}"
            status, payload, _ = _call(
                port,
                "POST",
                f"/v1/sessions/{name}/command",
                {"script": "Repair list New.list in rev_app_distr."},
            )
            assert status == 200, f"command {name}: {status}"
            assert payload["results"][0]["new_names"] == ["rev_app_distr'"]
            status, _, _ = _call(port, "DELETE", f"/v1/sessions/{name}")
            assert status == 200, f"close {name}: {status}"
        except (Dropped, AssertionError) as exc:
            with lock:
                errors.append(str(exc))
            return
        elapsed = time.monotonic() - began
        with lock:
            latencies.append(elapsed)

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(sessions)
    ]
    began = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    wall = time.monotonic() - began
    if errors:
        raise RuntimeError(
            "session round trips failed: " + "; ".join(errors[:5])
        )
    return latencies, wall


def _expected_digest() -> str:
    """The in-process scheduler's digest for the bench manifest."""
    from repro.service import BatchOptions, run_batch
    from repro.service.job import result_digest
    from repro.service.manifest import jobs_from_manifest
    from repro.service.scheduler import inprocess_runner

    jobs = jobs_from_manifest(REPAIR_MANIFEST, where="bench-server")
    report = run_batch(
        jobs, BatchOptions(jobs=1), runner=inprocess_runner()
    )
    outcome = report.outcomes[0]
    if outcome.status != "ok":
        raise RuntimeError(
            f"reference in-process repair failed: {outcome.status}"
        )
    return result_digest(outcome.result)


def build_report(
    clients: int, per_client: int, sessions: int, workers: int
) -> Tuple[dict, Dict[str, Any]]:
    phases: Dict[str, Dict[str, Any]] = {}
    extras: Dict[str, Any] = {}
    expected = _expected_digest()
    with tempfile.TemporaryDirectory(prefix="bench_server_") as tmp:
        process, port = _spawn_server(f"{tmp}/store", workers)
        try:
            # -- server/cold: the one request that pays a real repair.
            began = time.monotonic()
            status, payload, _ = _call(
                port, "POST", "/v1/repair", REPAIR_MANIFEST
            )
            cold_wall = time.monotonic() - began
            if status != 200 or payload["counts"] != {"ok": 1}:
                raise RuntimeError(
                    f"cold repair failed: {status} {payload.get('counts')}"
                )
            served = payload["outcomes"][0]["result_digest"]
            if served != expected:
                raise RuntimeError(
                    "HTTP digest differs from the in-process scheduler "
                    f"run: {served} != {expected}"
                )
            phases["server/cold"] = {
                "wall_time_s": round(cold_wall, 6),
                "count": 1,
                "workers": workers,
            }

            # -- server/load: the concurrent-clients tentpole.
            latencies, wall, statuses, problems = _drive_load(
                port, clients, per_client
            )
            if problems:
                raise RuntimeError(
                    f"{len(problems)} dropped/malformed responses under "
                    "load: " + "; ".join(problems[:5])
                )
            total = clients * per_client
            if len(latencies) != total:
                raise RuntimeError(
                    f"only {len(latencies)}/{total} requests completed"
                )
            entry = _percentile_entry(latencies, wall, workers)
            entry["clients"] = clients
            entry["cache_hit_rates"] = {"store": 1.0}
            phases["server/load"] = entry
            extras["load_statuses"] = {
                str(code): count for code, count in sorted(statuses.items())
            }

            # -- server/sessions: concurrent persistent-session traffic.
            slatencies, swall = _drive_sessions(port, sessions)
            phases["server/sessions"] = _percentile_entry(
                slatencies, swall, workers
            )

            # -- server/async: the 202 + poll path through the queue.
            began = time.monotonic()
            status, payload, _ = _call(
                port,
                "POST",
                "/v1/repair",
                dict(REPAIR_MANIFEST, **{"async": True}),
            )
            if status != 202:
                raise RuntimeError(f"async submit got {status}")
            poll = payload["poll"]
            deadline = time.monotonic() + 120
            state: Dict[str, Any] = {}
            while time.monotonic() < deadline:
                status, state, _ = _call(port, "GET", poll)
                if state["state"] in ("done", "failed", "cancelled"):
                    break
                time.sleep(0.05)
            if state.get("state") != "done":
                raise RuntimeError(f"async job did not finish: {state}")
            phases["server/async"] = {
                "wall_time_s": round(time.monotonic() - began, 6),
                "count": 1,
                "workers": workers,
            }

            # -- pool stats from the live server, for the report extras.
            status, status_body, _ = _call(port, "GET", "/v1/status")
            if status == 200:
                extras["pool"] = status_body.get("pool", {})
                extras["server"] = {
                    key: status_body.get(key)
                    for key in ("requests_total", "sessions", "queue")
                    if key in status_body
                }
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=45)
            except subprocess.TimeoutExpired:
                process.kill()
    extras["digest"] = expected
    report = make_report("server", phases, **extras)
    return report, extras


def print_summary(report: dict) -> None:
    for name in sorted(report["phases"]):
        entry = report["phases"][name]
        line = f"{name:<16} {entry['wall_time_s']:8.4f}s  x{entry['count']}"
        if "throughput_rps" in entry:
            line += (
                f"  {entry['throughput_rps']:8.1f} req/s"
                f"  p50={entry['latency_p50_s'] * 1000:.1f}ms"
                f"  p95={entry['latency_p95_s'] * 1000:.1f}ms"
                f"  p99={entry['latency_p99_s'] * 1000:.1f}ms"
            )
        print(line)
    statuses = report.get("load_statuses")
    if statuses:
        print(
            "load statuses: "
            + ", ".join(f"{code}={n}" for code, n in statuses.items())
        )


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", default="BENCH_server.json")
    parser.add_argument(
        "--clients",
        type=int,
        default=200,
        help="concurrent load clients (default: 200)",
    )
    parser.add_argument(
        "--requests-per-client",
        type=int,
        default=3,
        help="repair POSTs per client (default: 3)",
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=16,
        help="concurrent named-session round trips (default: 16)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="server warm-worker pool width (default: 4)",
    )
    args = parser.parse_args(argv[1:])
    try:
        report, _ = build_report(
            args.clients, args.requests_per_client, args.sessions, args.workers
        )
        write_report(args.output, report)
    except Exception as exc:
        print(f"bench_server_report: {exc}", file=sys.stderr)
        return 1
    print_summary(report)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
