"""A job configuration builder that prints noise to stdout first.

``tests/test_service_pool.py::TestNoisyWorker`` names :func:`config`
and :data:`config_again` as two jobs' dotted configurations, so the
worker serving the jobs writes a ``{``-prefixed line that looks like a
record into the stdout stream its result frames travel on, before the
first frame and again between the two.
"""

from repro.core.search import configure

NOISE = '{"status": "failed", "error": "noise"}'


def config(env):
    print(NOISE, flush=True)
    return configure(env, "list", "New.list")


#: The same builder under a second name: a job naming it has another
#: configuration key, so a warm worker builds again and prints again.
config_again = config
