"""Write BENCH_pipeline.json: per-phase wall time and cache hit rates.

Runs the replica, binary, and ornaments case studies with tracing
forced on and aggregates the recorded spans into flat per-phase entries
(``<case>/<phase>``) in the shared report schema
(:mod:`report_schema`), so the CI regression gate can compare runs.
Optionally also writes the full Chrome trace-event JSON
(``chrome://tracing`` / Perfetto) for interactive inspection.

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline_report.py \
        [OUTPUT.json] [--trace TRACE.json]
"""

from __future__ import annotations

import sys

from report_schema import make_report, write_report

from repro.kernel.stats import KERNEL_STATS
from repro.obs import (
    get_tracer,
    reset_tracer,
    set_tracing,
    span,
    summarize_spans,
    write_chrome_trace,
)

CASES = ("replica", "binary", "ornaments")


def _analysis_phases(phases: dict) -> None:
    """Run the static-analysis sweep traced; add ``analysis/*`` phases.

    The sweep re-runs each case through :mod:`repro.analysis.cli`, so the
    existing ``<case>/...`` phases stay comparable across report versions;
    analysis shows up only under its own ``analysis/<case>`` keys:
    ``total`` (sweep wall time, scenario setup included) plus one
    sub-phase per ``analyze_*`` span (the four passes proper).
    """
    from repro.analysis.cli import run_target

    for case in CASES:
        with span("analyze", category="analysis", target=case) as a_span:
            report = run_target(case)
        if report.has_errors:
            raise RuntimeError(
                f"analysis sweep of {case!r} reported errors:\n"
                + report.render()
            )
        phases[f"analysis/{case}/total"] = {
            "count": 1,
            "wall_time_s": round(a_span.duration_s, 6),
        }
        descendants = [s for s in a_span.walk() if s is not a_span]
        for phase, entry in summarize_spans(descendants).items():
            # The sweep re-runs the scenario to get artifacts; only the
            # analyze_* spans are analysis cost proper.
            if phase.startswith("analyze"):
                phases[f"analysis/{case}/{phase}"] = entry


def _repair_outputs() -> list:
    from repro.core.repair import RepairSession
    from repro.core.search.swap import swap_configuration
    from repro.kernel import pretty
    from repro.stdlib import declare_list_type, make_env

    env = make_env(lists=True, vectors=False)
    declare_list_type(env, "New.list", swapped=True)
    config = swap_configuration(env, "list", "New.list")
    session = RepairSession(
        env, config, old_globals=["list"], rename=lambda n: f"New.{n}"
    )
    results = session.repair_module(["app", "rev", "length", "map"])
    return [(pretty(r.term), pretty(r.type)) for r in results]


def check_transparency() -> None:
    """The analysis gate must not change repair output, byte for byte."""
    from repro.analysis import set_analysis

    previous = set_analysis(True)
    try:
        gated = _repair_outputs()
    finally:
        set_analysis(previous)
    previous = set_analysis(False)
    try:
        plain = _repair_outputs()
    finally:
        set_analysis(previous)
    if gated != plain:
        raise RuntimeError(
            "repair output differs with REPRO_ANALYZE on — the analysis "
            "gate is supposed to be read-only"
        )


def _run_case(name: str) -> None:
    if name == "replica":
        from repro.cases.replica import run_scenario
    elif name == "binary":
        from repro.cases.binary import run_scenario
    elif name == "ornaments":
        from repro.cases.ornaments_example import run_scenario
    else:
        raise ValueError(f"unknown case {name!r}")
    run_scenario()


def _traced_case_phases(phases: dict, case: str) -> None:
    """Run one case traced; record its spans under ``case``.

    Term-level global caches are cleared first so every case starts
    cold: warm ``lift``/``subst``/intern tables left by an earlier case
    would otherwise hand it a head start.
    """
    from repro.kernel.term import clear_term_caches

    clear_term_caches()
    KERNEL_STATS.reset()
    with span(case, category="case") as case_span:
        _run_case(case)
    phases[f"{case}/total"] = {
        "count": 1,
        "wall_time_s": round(case_span.duration_s, 6),
        "cache_hit_rates": {
            table: delta["hit_rate"]
            for table, delta in case_span.kernel["tables"].items()
        },
    }
    descendants = [s for s in case_span.walk() if s is not case_span]
    for phase, entry in summarize_spans(descendants).items():
        phases[f"{case}/{phase}"] = entry


def build_report() -> dict:
    """Run every case traced; return the shared-schema report dict."""
    previous = set_tracing(True)
    reset_tracer()
    phases: dict = {}
    try:
        for case in CASES:
            _traced_case_phases(phases, case)
        _analysis_phases(phases)
    finally:
        set_tracing(previous)
    return make_report("pipeline", phases)


def print_summary(report: dict) -> None:
    phases = report["phases"]
    for case in CASES + tuple(f"analysis/{case}" for case in CASES):
        print(f"{case}:")
        names = sorted(
            (name for name in phases if name.startswith(f"{case}/")),
            key=lambda name: -phases[name]["wall_time_s"],
        )
        for name in names:
            entry = phases[name]
            rates = ", ".join(
                f"{table}={rate:.0%}"
                for table, rate in sorted(
                    entry.get("cache_hit_rates", {}).items()
                )
            )
            print(
                f"  {name.split('/', 1)[1]:<14} "
                f"{entry['wall_time_s']:8.4f}s  "
                f"x{entry.get('count', 1):<5} "
                f"[{rates}]"
            )


def main(argv) -> int:
    args = list(argv[1:])
    trace_path = None
    if "--trace" in args:
        at = args.index("--trace")
        try:
            trace_path = args[at + 1]
        except IndexError:
            print("--trace needs a path", file=sys.stderr)
            return 2
        del args[at : at + 2]
    out_path = args[0] if args else "BENCH_pipeline.json"

    try:
        check_transparency()
        print("analysis transparency: repair output identical with gate on")
        report = build_report()
        write_report(out_path, report)
    except Exception as exc:
        # A failed case or malformed results must fail the job instead of
        # leaving a partial report behind (write_report is atomic).
        print(f"bench_pipeline_report: {exc}", file=sys.stderr)
        return 1
    if trace_path is not None:
        write_chrome_trace(trace_path, get_tracer())
        print(f"wrote {trace_path}")
    print_summary(report)
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
