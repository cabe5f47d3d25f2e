"""CI bench-regression gate: diff a fresh report against a baseline.

Compares two shared-schema reports (see :mod:`report_schema`) phase by
phase and exits non-zero when the fresh run regressed:

* **wall time** — fail when a phase is slower than
  ``baseline * (1 + tolerance)`` *and* slower by at least
  ``--min-seconds`` (absolute floor, so microsecond phases cannot trip
  the gate on scheduler noise); ``*/transform`` phases use the tighter
  ``--transform-min-seconds`` floor so the transformer hot path — a few
  milliseconds per case by design — is actually guarded rather than
  hidden under the general noise floor;
* **cache hit rates** — fail when any table's hit rate dropped by more
  than ``--hit-rate-drop`` percentage points (machine-independent, so
  this catches cache-layer regressions even across different runners);
* **missing phases** — fail when a phase present in the baseline
  disappeared (an instrumentation or pipeline regression).  New phases
  only warn;
* **required phases** — ``--require-phase NAME`` (repeatable) fails
  when the *current* report lacks ``NAME`` even if the baseline never
  carried it, so a brand-new phase (e.g. ``warm_pool/jobs1``)
  is pinned into existence the moment its gate lands in CI.  ``NAME``
  may be a shell-style glob (``impact/*``): the gate then requires at
  least one matching phase.

Usage::

    python benchmarks/check_regression.py CURRENT.json BASELINE.json \
        [--tolerance 0.25] [--hit-rate-drop 0.10] [--min-seconds 0.05] \
        [--require-phase warm_pool/jobs1]
"""

from __future__ import annotations

import argparse
import fnmatch
import sys
from typing import List

from report_schema import ReportError, load_report


def _is_transform_phase(name: str) -> bool:
    """Whether ``name`` is a transformer hot-path wall-time entry."""
    return name.rsplit("/", 1)[-1] == "transform"


def compare(
    current: dict,
    baseline: dict,
    tolerance: float,
    hit_rate_drop: float,
    min_seconds: float,
    transform_min_seconds: float = 0.005,
) -> List[str]:
    """Human-readable regression descriptions; empty means the gate passes."""
    regressions: List[str] = []
    current_phases = current["phases"]
    baseline_phases = baseline["phases"]

    for name in sorted(baseline_phases):
        base = baseline_phases[name]
        cur = current_phases.get(name)
        if cur is None:
            regressions.append(
                f"{name}: present in baseline but missing from current report"
            )
            continue

        base_wall = base["wall_time_s"]
        cur_wall = cur["wall_time_s"]
        limit = base_wall * (1.0 + tolerance)
        floor = (
            transform_min_seconds
            if _is_transform_phase(name)
            else min_seconds
        )
        if cur_wall > limit and cur_wall - base_wall > floor:
            regressions.append(
                f"{name}: wall time {cur_wall:.4f}s exceeds baseline "
                f"{base_wall:.4f}s by more than {tolerance:.0%} "
                f"(limit {limit:.4f}s)"
            )

        base_rates = base.get("cache_hit_rates", {})
        cur_rates = cur.get("cache_hit_rates", {})
        for table, base_rate in sorted(base_rates.items()):
            cur_rate = cur_rates.get(table)
            if cur_rate is None:
                # Table not exercised this run (e.g. counts below the
                # reporting threshold); wall time still guards it.
                continue
            if base_rate - cur_rate > hit_rate_drop:
                regressions.append(
                    f"{name}: {table} hit rate dropped "
                    f"{base_rate:.1%} -> {cur_rate:.1%} "
                    f"(more than {hit_rate_drop:.0%} points)"
                )
    return regressions


def missing_required(current: dict, required: List[str]) -> List[str]:
    """Required phases/globs unmatched by ``current`` (order preserved).

    A plain name must be present verbatim; a glob pattern (``*?[``)
    must match at least one phase.
    """
    phases = current["phases"]
    missing: List[str] = []
    for name in required:
        if any(ch in name for ch in "*?["):
            if not any(
                fnmatch.fnmatchcase(phase, name) for phase in phases
            ):
                missing.append(name)
        elif name not in phases:
            missing.append(name)
    return missing


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly generated report")
    parser.add_argument("baseline", help="committed baseline report")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="relative wall-time tolerance (default: 0.25 = 25%%)",
    )
    parser.add_argument(
        "--hit-rate-drop",
        type=float,
        default=0.10,
        help="max tolerated cache hit-rate drop in points (default: 0.10)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.05,
        help="absolute wall-time floor below which slowdowns are noise",
    )
    parser.add_argument(
        "--transform-min-seconds",
        type=float,
        default=0.005,
        help=(
            "absolute wall-time floor for */transform phases "
            "(default: 0.005, tighter than --min-seconds so the "
            "transformer hot path is guarded)"
        ),
    )
    parser.add_argument(
        "--require-phase",
        action="append",
        default=[],
        metavar="NAME",
        help=(
            "fail when the current report lacks this phase, even if the "
            "baseline never carried it (repeatable; shell globs like "
            "'impact/*' require at least one match)"
        ),
    )
    args = parser.parse_args(argv[1:])

    try:
        current = load_report(args.current)
        baseline = load_report(args.baseline)
    except ReportError as exc:
        print(f"check_regression: {exc}", file=sys.stderr)
        return 2

    new_phases = sorted(
        set(current["phases"]) - set(baseline["phases"])
    )
    if new_phases:
        print(
            "note: phases not in baseline (unchecked): "
            + ", ".join(new_phases)
        )

    regressions = [
        f"{name}: required phase missing from current report"
        for name in missing_required(current, args.require_phase)
    ]
    regressions += compare(
        current,
        baseline,
        tolerance=args.tolerance,
        hit_rate_drop=args.hit_rate_drop,
        min_seconds=args.min_seconds,
        transform_min_seconds=args.transform_min_seconds,
    )
    checked = len(set(baseline["phases"]) & set(current["phases"]))
    if regressions:
        print(
            f"REGRESSION: {len(regressions)} problem(s) vs baseline "
            f"{args.baseline} (git {baseline.get('git_sha', '?')[:12]}):",
            file=sys.stderr,
        )
        for line in regressions:
            print(f"  - {line}", file=sys.stderr)
        return 1
    print(
        f"ok: {checked} phase(s) within tolerance "
        f"(wall {args.tolerance:.0%}, hit-rate {args.hit_rate_drop:.0%} pts)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
