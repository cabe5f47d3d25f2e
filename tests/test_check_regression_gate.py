"""The bench regression gate: transform-phase floor + required phases.

``check_regression.compare`` applies a tighter absolute wall-time floor
to ``*/transform`` phases than to everything else: the transformer hot
path is a few milliseconds per case by design, so the general
``--min-seconds`` noise floor (sized for whole-case walls) would hide
any realistic regression in it.

``--require-phase`` pins a phase into the *current* report regardless
of the baseline — the guard that keeps a new phase (like
``warm_pool/jobs1``) from silently vanishing before its baseline
exists.
"""

import json
import pathlib
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks")
)

from check_regression import (  # noqa: E402
    _is_transform_phase,
    compare,
    main,
    missing_required,
)


def _report(phases):
    return {"phases": phases}


def _entry(wall, rates=None):
    entry = {"wall_time_s": wall}
    if rates is not None:
        entry["cache_hit_rates"] = rates
    return entry


def test_transform_phase_detection():
    assert _is_transform_phase("replica/transform")
    assert _is_transform_phase("transform_fast_off/replica/transform")
    assert _is_transform_phase("transform")  # no case prefix: still it
    assert not _is_transform_phase("replica/typecheck")
    assert not _is_transform_phase("replica/transform_cache")


def test_transform_slowdown_trips_the_tighter_floor():
    baseline = _report({"replica/transform": _entry(0.006)})
    current = _report({"replica/transform": _entry(0.016)})
    regressions = compare(
        current,
        baseline,
        tolerance=0.25,
        hit_rate_drop=0.10,
        min_seconds=0.05,
        transform_min_seconds=0.005,
    )
    assert len(regressions) == 1
    assert "replica/transform" in regressions[0]


def test_same_slowdown_on_other_phases_stays_under_general_floor():
    # Identical absolute slowdown on a non-transform phase: swallowed by
    # the general --min-seconds floor, exactly as before.
    baseline = _report({"replica/typecheck": _entry(0.006)})
    current = _report({"replica/typecheck": _entry(0.016)})
    regressions = compare(
        current,
        baseline,
        tolerance=0.25,
        hit_rate_drop=0.10,
        min_seconds=0.05,
        transform_min_seconds=0.005,
    )
    assert regressions == []


def test_transform_within_tolerance_passes():
    baseline = _report({"replica/transform": _entry(0.0068)})
    current = _report({"replica/transform": _entry(0.008)})
    regressions = compare(
        current,
        baseline,
        tolerance=0.25,
        hit_rate_drop=0.10,
        min_seconds=0.05,
        transform_min_seconds=0.005,
    )
    assert regressions == []


# -- --require-phase ----------------------------------------------------------


def test_missing_required_reports_absent_phases_in_order():
    current = _report({"cold_start/scratch": _entry(1.0)})
    assert missing_required(current, []) == []
    assert missing_required(current, ["cold_start/scratch"]) == []
    assert missing_required(
        current, ["warm_pool/jobs1", "cold_start/scratch", "warm/jobs1"]
    ) == ["warm_pool/jobs1", "warm/jobs1"]


def test_missing_required_glob_needs_at_least_one_match():
    current = _report(
        {"impact/plan": _entry(0.1), "impact/pruned": _entry(0.2)}
    )
    assert missing_required(current, ["impact/*"]) == []
    assert missing_required(current, ["cold_start/*"]) == ["cold_start/*"]
    # A glob is not a substring test: it must match the full phase name.
    assert missing_required(current, ["impact"]) == ["impact"]
    assert missing_required(current, ["plan*"]) == ["plan*"]


def test_require_phase_glob_through_main(tmp_path, capsys):
    current = _write_report(
        tmp_path / "current.json",
        {"cold/jobs1": _entry(1.0), "impact/pruned": _entry(0.2)},
    )
    baseline = _write_report(
        tmp_path / "baseline.json", {"cold/jobs1": _entry(1.0)}
    )
    argv = ["check_regression.py", current, baseline, "--require-phase", "impact/*"]
    assert main(argv) == 0
    capsys.readouterr()
    stripped = _write_report(
        tmp_path / "stripped.json", {"cold/jobs1": _entry(1.0)}
    )
    argv[1] = stripped
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "impact/*" in err and "required phase" in err


def _write_report(path, phases):
    payload = {
        "schema_version": 1,
        "benchmark": "service",
        "timestamp": "2026-08-09T00:00:00+00:00",
        "git_sha": "test",
        "phases": phases,
    }
    path.write_text(json.dumps(payload))
    return str(path)


def test_require_phase_fails_even_when_baseline_lacks_it(tmp_path, capsys):
    current = _write_report(
        tmp_path / "current.json", {"cold/jobs1": _entry(1.0)}
    )
    baseline = _write_report(
        tmp_path / "baseline.json", {"cold/jobs1": _entry(1.0)}
    )
    argv = [
        "check_regression.py",
        current,
        baseline,
        "--require-phase",
        "warm_pool/jobs1",
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "warm_pool/jobs1" in err and "required phase" in err


def test_require_phase_passes_when_current_carries_it(tmp_path, capsys):
    current = _write_report(
        tmp_path / "current.json",
        {
            "cold/jobs1": _entry(1.0),
            "cold_start/scratch": _entry(0.4),
            "warm_pool/jobs1": _entry(0.3),
        },
    )
    baseline = _write_report(
        tmp_path / "baseline.json", {"cold/jobs1": _entry(1.0)}
    )
    argv = [
        "check_regression.py",
        current,
        baseline,
        "--require-phase",
        "cold_start/scratch",
        "--require-phase",
        "warm_pool/jobs1",
    ]
    assert main(argv) == 0
    capsys.readouterr()
