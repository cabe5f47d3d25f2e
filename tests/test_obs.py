"""Tests for ``repro.obs``: spans, counter deltas, exports, transparency.

The hard guarantees under test:

* nested spans form the right forest, with per-span wall time and
  kernel-counter deltas attributed to the span that did the work;
* spans opened on concurrent threads form one tree per thread;
* each ``CommandSession`` command gets its own span whose deltas cover
  only that command (deltas reset between commands);
* with tracing disabled, no spans are recorded, ``span()`` allocates
  nothing, and repair output is byte-identical to a traced run;
* ``KernelStats.snapshot()`` / ``report()`` round-trip through JSON and
  agree with each other;
* the Chrome trace-event export is structurally valid.
"""

import json
import sys
import threading
from collections import Counter

import pytest

from repro.commands import CommandSession
from repro.kernel.pretty import pretty
from repro.kernel.stats import CACHES_DISABLED_BY_ENV, KERNEL_STATS, KernelStats
from repro.kernel.term import App, Ind, Lam, Pi, Rel, Sort
from repro.obs import (
    chrome_trace,
    get_tracer,
    reset_tracer,
    set_tracing,
    span,
    span_forest,
    summarize_spans,
    term_depth,
    term_size,
    tracing_enabled,
    write_chrome_trace,
)
from repro.obs.metrics import binder_depth
from repro.stdlib import make_env


@pytest.fixture
def traced():
    """Tracing on, a clean tracer, previous state restored afterwards."""
    previous = set_tracing(True)
    reset_tracer()
    yield get_tracer()
    reset_tracer()
    set_tracing(previous)


@pytest.fixture
def untraced():
    """Tracing explicitly off (the suite may run under REPRO_TRACE=1)."""
    previous = set_tracing(False)
    reset_tracer()
    yield
    set_tracing(previous)


def _declare_swapped_list(env):
    from repro.stdlib.listlib import declare_list_type

    declare_list_type(env, "New.list", swapped=True)


# -- Span structure -----------------------------------------------------------


def test_nested_spans_form_a_tree(traced):
    with span("outer"):
        with span("inner_a"):
            pass
        with span("inner_b"):
            with span("leaf"):
                pass
    assert [s.name for s in traced.roots] == ["outer"]
    outer = traced.roots[0]
    assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
    assert [c.name for c in outer.children[1].children] == ["leaf"]
    assert outer.children[0].parent is outer
    # Completed spans are recorded in completion order; walk() is start
    # order.
    assert [s.name for s in outer.walk()] == [
        "outer",
        "inner_a",
        "inner_b",
        "leaf",
    ]
    assert len(traced.spans) == 4
    for s in traced.spans:
        assert s.end_ns >= s.start_ns


def test_span_durations_nest(traced):
    with span("outer"):
        with span("inner"):
            pass
    outer, inner = traced.roots[0], traced.roots[0].children[0]
    assert outer.duration_s >= inner.duration_s >= 0.0


def test_span_survives_exceptions(traced):
    with pytest.raises(ValueError):
        with span("outer"):
            with span("inner"):
                raise ValueError("boom")
    assert [s.name for s in traced.roots] == ["outer"]
    assert traced.current is None  # the stack fully unwound


def test_concurrent_threads_build_separate_trees(traced):
    """Threads with overlapping spans get one tree each, not one tree
    grafting every other request into the first."""
    tags = [f"t{i}" for i in range(8)]  # more threads than cores
    barrier = threading.Barrier(len(tags), timeout=10)

    def request(tag):
        with span("request", tag=tag):
            barrier.wait()
            with span("inner", tag=tag):
                barrier.wait()

    threads = [threading.Thread(target=request, args=(t,)) for t in tags]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(root.args["tag"] for root in traced.roots) == tags
    for root in traced.roots:
        assert root.name == "request"
        assert [(c.name, c.args["tag"]) for c in root.children] == [
            ("inner", root.args["tag"])
        ]
        assert root.children[0].children == []
    assert traced.current is None


def test_span_args_and_gauges(traced):
    with span("phase", constant="rev") as sp:
        sp.gauge("term_size_in", 17)
    recorded = traced.roots[0]
    assert recorded.args == {"constant": "rev"}
    assert recorded.gauges == {"term_size_in": 17}
    tree = recorded.to_dict()
    assert tree["name"] == "phase"
    assert tree["gauges"]["term_size_in"] == 17


# -- Kernel counter deltas -----------------------------------------------------


def test_counter_deltas_attributed_to_the_span_that_worked(traced):
    env = make_env(lists=True, vectors=False)
    with span("busy"):
        from repro.kernel.reduce import nf

        nf(env, App(Lam("x", Sort(1), Rel(0)), Ind("nat")))
    with span("idle"):
        pass
    # make_env recorded the first root span.
    busy, idle = traced.roots[1:]
    if not CACHES_DISABLED_BY_ENV:
        # The counters record cache traffic, so they only move when the
        # cache layers are on.
        assert busy.kernel["constructions"] > 0
    assert idle.kernel["constructions"] == 0
    assert idle.kernel["tables"] == {}


def test_counter_deltas_reset_between_commands(traced):
    env = make_env(lists=True, vectors=False)
    _declare_swapped_list(env)
    session = CommandSession(env)
    session.execute("Repair list New.list in rev_app_distr as New.rad")
    session.execute("Decompile New.rad")
    commands = [s for s in traced.roots if s.name == "command"]
    assert len(commands) == 2
    repair_cmd, decompile_cmd = commands
    # The repair does heavy kernel work; the decompile of an
    # already-repaired constant must not inherit its counters.  (The
    # counters record cache traffic, so they stay zero when the cache
    # layers are disabled.)
    if not CACHES_DISABLED_BY_ENV:
        assert repair_cmd.kernel["constructions"] > 0
        assert (
            decompile_cmd.kernel["constructions"]
            < repair_cmd.kernel["constructions"]
        )
    # The sum of per-command deltas accounts against the process totals:
    # each increment lands in exactly one command span.
    assert repair_cmd.kernel["constructions"] + decompile_cmd.kernel[
        "constructions"
    ] <= KERNEL_STATS.constructions


def test_command_spans_carry_the_command_text(traced):
    env = make_env(lists=True, vectors=False)
    _declare_swapped_list(env)
    session = CommandSession(env)
    session.execute("Repair list New.list in rev_app_distr")
    (command,) = [s for s in traced.roots if s.name == "command"]
    assert command.args["command"] == "Repair list New.list in rev_app_distr"
    phases = {s.name for s in command.walk()}
    assert {"configure", "repair", "transform", "typecheck"} <= phases


# -- Transparency when disabled ------------------------------------------------


def test_disabled_records_no_spans(untraced):
    with span("ghost"):
        with span("nested_ghost"):
            pass
    tracer = get_tracer()
    assert tracer.roots == []
    assert tracer.spans == []


def test_disabled_span_is_a_shared_singleton(untraced):
    a = span("one")
    b = span("two", constant="x")
    assert a is b  # no allocation on the disabled path
    assert a.__enter__() is a
    assert not tracing_enabled()
    a.gauge("ignored", 1)  # must be a no-op, not an error


def test_repair_output_identical_with_and_without_tracing():
    def run(enabled):
        previous = set_tracing(enabled)
        reset_tracer()
        try:
            env = make_env(lists=True, vectors=False)
            _declare_swapped_list(env)
            session = CommandSession(env)
            result = session.execute("Repair list New.list in rev_app_distr")
            term = result.results[0].term
            type_ = result.results[0].type
            return pretty(term, env=env) + "\n" + pretty(type_, env=env)
        finally:
            reset_tracer()
            set_tracing(previous)

    assert run(False) == run(True)


# -- KernelStats round-trip ----------------------------------------------------


def test_kernel_stats_snapshot_report_round_trip():
    stats = KernelStats()
    stats.constructions = 100
    stats.intern_hits = 25
    counter = stats.counter("whnf")
    counter.hits = 30
    counter.misses = 10
    snapshot = stats.snapshot()
    # JSON round-trip is lossless.
    assert json.loads(json.dumps(snapshot)) == snapshot
    assert snapshot["constructions"] == 100
    assert snapshot["intern_hit_rate"] == 0.25
    assert snapshot["tables"]["whnf"] == {
        "hits": 30,
        "misses": 10,
        "hit_rate": 0.75,
    }
    # The human report shows the same numbers.
    report = stats.report()
    assert "constructions : 100" in report
    assert "30 hits / 10 misses" in report
    assert "75.0%" in report


def test_kernel_stats_reset_zeroes_snapshot():
    stats = KernelStats()
    stats.counter("lift").hits = 5
    stats.reset()
    snapshot = stats.snapshot()
    assert snapshot["constructions"] == 0
    assert snapshot["tables"]["lift"]["hits"] == 0


# -- Exports -------------------------------------------------------------------


def test_chrome_trace_is_valid(traced, tmp_path):
    with span("outer", constant="rev"):
        with span("inner"):
            pass
    document = chrome_trace()
    events = document["traceEvents"]
    assert len(events) == 2
    for event in events:
        assert event["ph"] == "X"
        assert event["ts"] >= 0
        assert event["dur"] >= 0
        assert isinstance(event["name"], str)
    # Sorted by start time: outer starts before inner.
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert events[0]["args"]["constant"] == "rev"
    # Round-trips through a file.
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path))
    assert json.loads(path.read_text())["traceEvents"]


def test_span_forest_export(traced):
    with span("a"):
        with span("b"):
            pass
    with span("c"):
        pass
    forest = span_forest()
    assert [t["name"] for t in forest] == ["a", "c"]
    assert [c["name"] for c in forest[0]["children"]] == ["b"]


def test_phase_summary_aggregates(traced):
    for _ in range(3):
        with span("transform"):
            pass
    with span("decompile") as sp:
        sp.gauge("term_size_in", 42)
    summary = get_tracer().phase_summary()
    assert summary["transform"]["count"] == 3
    assert summary["transform"]["wall_time_s"] >= 0
    assert summary["decompile"]["gauges"]["term_size_in"] == 42
    # summarize_spans on a subtree matches the flat view for that span.
    sub = summarize_spans(get_tracer().roots[:1])
    assert sub["transform"]["count"] == 1


def _span_counts(tracer):
    return Counter(sp.name for sp in tracer.spans)


def test_every_configuration_and_stdlib_build_opens_a_span(traced):
    from repro.cases.replica import run_scenario

    run_scenario()
    counts = _span_counts(traced)
    # Five variants, each configured by calling swap_configuration
    # directly, over one stdlib build.
    assert counts["configure"] == 5
    assert counts["make_env"] == 1


def test_the_configure_dispatcher_opens_no_second_span(traced):
    from repro.core.search import configure

    env = make_env()
    _declare_swapped_list(env)
    reset_tracer()
    configure(env, "list", "New.list")
    # One configure span, with the equivalence proofs' span inside it.
    assert _span_counts(get_tracer()) == {"configure": 1, "equivalence": 1}


def test_each_swap_equivalence_opens_a_span_inside_its_configure(traced):
    from repro.cases.replica import run_scenario

    run_scenario()
    proofs = [sp for sp in traced.spans if sp.name == "equivalence"]
    assert len(proofs) == 5
    for sp in proofs:
        assert sp.parent is not None and sp.parent.name == "configure"
        assert sp.args["a"] == "Old.Term"


# -- Term gauges ---------------------------------------------------------------


def test_term_gauges():
    # (fun (x : Type1) => x) nat  — 5 nodes, depth 3.
    term = App(Lam("x", Sort(1), Rel(0)), Ind("nat"))
    assert term_size(term) == 5
    assert term_depth(term) == 3
    assert binder_depth(term) == 1
    pi = Pi("A", Sort(1), Pi("B", Sort(1), Rel(1)))
    assert binder_depth(pi) == 2
    assert term_size(Rel(0)) == 1
    assert term_depth(Rel(0)) == 1
