"""A job configuration builder that prints noise to stdout first.

``tests/test_service_pool.py::TestNoisyWorker`` names :func:`config` as
a job's dotted configuration, so the worker serving the job writes a
``{``-prefixed line that looks like a record into the stdout stream its
result frames travel on.
"""

from repro.core.search import configure

NOISE = '{"status": "failed", "error": "noise"}'


def config(env):
    print(NOISE, flush=True)
    return configure(env, "list", "New.list")
