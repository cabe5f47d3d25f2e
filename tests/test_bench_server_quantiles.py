"""The server bench's latency quantiles come from its raw samples.

``benchmarks/bench_server_report.py`` keeps every request latency and
interpolates p50/p95/p99 between the closest ranks of the sorted
samples, so a phase's quantiles can never leave the range of what it
observed (a bucketed estimate once put a p50 of 3.67 s inside a 2.79 s
phase).
"""

import pathlib
import random
import sys

import pytest

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks")
)

from bench_server_report import _percentile_entry, quantile  # noqa: E402

QUANTILE_KEYS = ("latency_p50_s", "latency_p95_s", "latency_p99_s")


def test_one_sample_gives_that_sample():
    entry = _percentile_entry([0.4321], wall=0.5, workers=4)
    assert entry["count"] == 1
    assert [entry[key] for key in QUANTILE_KEYS] == [0.4321] * 3


@pytest.mark.parametrize("seed", range(5))
def test_quantiles_lie_within_the_samples(seed):
    rng = random.Random(seed)
    count = rng.randrange(2, 400)
    samples = [rng.lognormvariate(-1.0, 1.5) for _ in range(count)]
    entry = _percentile_entry(samples, wall=max(samples), workers=4)
    values = [entry[key] for key in QUANTILE_KEYS]
    assert values == sorted(values)
    for value in values:
        assert round(min(samples), 6) <= value <= round(max(samples), 6)


def test_interpolates_between_closest_ranks():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert quantile(samples, 0) == 1.0
    assert quantile(samples, 50) == 2.5
    assert quantile(samples, 100) == 4.0
    assert quantile(samples, 95) == pytest.approx(3.85)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        quantile([], 50)
