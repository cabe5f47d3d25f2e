"""Write BENCH_kernel.json: end-to-end repair timings and cache hit rates.

Runs the replica and binary case studies with all kernel performance
layers enabled and disabled, recording wall time per configuration and
the :data:`~repro.kernel.stats.KERNEL_STATS` snapshot of the enabled
run (intern hits, per-table memo hit rates, reduction-cache hit rates).
CI uploads the resulting JSON as an artifact and diffs
it against the committed baseline with ``check_regression.py``, so
regressions in the caching layers fail the job instead of silently
dropping the speedup multiplier.

The output uses the shared report envelope of :mod:`report_schema`
(timestamp, git sha, flat per-phase entries); a failed case or
malformed results exit non-zero without writing anything — the write
is validated first and atomic.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_report.py [OUTPUT.json]
"""

from __future__ import annotations

import sys
import time

from report_schema import make_report, write_report

from repro.kernel.stats import KERNEL_STATS
from repro.kernel.term import clear_term_caches, set_kernel_caches

CASES = ("replica", "binary")


def _run_case(name: str) -> None:
    if name == "replica":
        from repro.cases.replica import run_scenario
    elif name == "binary":
        from repro.cases.binary import run_scenario
    else:
        raise ValueError(f"unknown case {name!r}")
    run_scenario()


def _set_layers(enabled: bool) -> None:
    set_kernel_caches(enabled)
    clear_term_caches()
    KERNEL_STATS.reset()


def _measure(case: str, enabled: bool) -> dict:
    _set_layers(enabled)
    start = time.perf_counter()
    _run_case(case)
    elapsed = time.perf_counter() - start
    entry = {
        "count": 1,
        "wall_time_s": round(elapsed, 4),
        "layers_enabled": enabled,
    }
    if enabled:
        snapshot = KERNEL_STATS.snapshot()
        entry["kernel_stats"] = snapshot
        entry["cache_hit_rates"] = {
            name: table["hit_rate"]
            for name, table in snapshot["tables"].items()
        }
    return entry


def build_report() -> dict:
    phases: dict = {}
    speedups: dict = {}
    try:
        for case in CASES:
            on = _measure(case, True)
            off = _measure(case, False)
            speedups[case] = round(
                off["wall_time_s"] / max(on["wall_time_s"], 1e-9), 2
            )
            phases[f"{case}/layers_on"] = on
            phases[f"{case}/layers_off"] = off
    finally:
        _set_layers(True)
    return make_report("kernel performance layers", phases, speedups=speedups)


def main(argv) -> int:
    out_path = argv[1] if len(argv) > 1 else "BENCH_kernel.json"
    try:
        report = build_report()
        write_report(out_path, report)
    except Exception as exc:
        # A failed case or malformed results must fail the job instead of
        # leaving a partial report behind (write_report is atomic).
        print(f"bench_kernel_report: {exc}", file=sys.stderr)
        return 1
    for case in CASES:
        print(
            f"{case}: on {report['phases'][f'{case}/layers_on']['wall_time_s']}s, "
            f"off {report['phases'][f'{case}/layers_off']['wall_time_s']}s, "
            f"speedup {report['speedups'][case]}x"
        )
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
