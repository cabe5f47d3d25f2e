"""Environment builds leave the process-global kernel memos flat.

A pool worker's re-boot and a batch job each build a fresh environment
in a long-lived process.  The term arena and the term-keyed memos are
shared by every environment, so an entry that mentions a
per-environment object (a declaration, say) would be new on every
build and pin that object for good.  Memos over such objects live on
the objects instead (``InductiveDecl.case_types``).

Server sessions fork one resident base environment per setup, so every
session shares the base's declarations and their ``case_types`` memos:
those must stay flat over repeated sessions too.

A warm pool worker serves job after job on one resident environment.
Its pure term walks (``subst_many``, binder eta expansion, transform
keys, closed ``pretty``) memoize into process-global tables, which must
stop growing once every job has run.  Its kernel verdicts live in the
resident's reduction cache, tagged with the declaration state they were
derived in: a job that declares what an earlier job declared re-derives
none of them, and the store stops growing once every job has run.  Its
transformed subterms live in the resident configuration's transform
store, which jobs with one naming share: a steady job transforms
nothing again, and the store stops growing too.  So does the report
store beside it: a steady job stands on its predecessor's declaration
state and reuses its decompiled script and scope report.
"""

import importlib

from repro.commands import CommandSession
from repro.core import caching, transform
from repro.kernel import KERNEL_STATS, term
from repro.server.sessions import DEFAULT_SETUP, SessionManager
from repro.service.cases import quickstart_env, six_case_jobs
from repro.service.worker import build_environment, execute_warm


SESSION_SCRIPT = (
    "Repair list New.list in rev_app_distr as rev_app_distr_new.\n"
    "Decompile rev_app_distr_new."
)


def _session_round():
    """What one session does over a fresh build: repair, decompile."""
    CommandSession(build_environment(DEFAULT_SETUP)).run(SESSION_SCRIPT)


#: ``repro.kernel`` re-exports the function under the module's name.
pretty_module = importlib.import_module("repro.kernel.pretty")


def _walk_tables():
    """The process-global tables of the four memoized pure term walks."""
    return {
        "subst_many": term._SUBST_MANY_MEMO,
        "eta_expand": transform._ETA_MEMO,
        "transform_keys": caching._KEY_MEMO,
        "pretty": pretty_module._TEXT_MEMO,
    }


def _memo_sizes():
    sizes = {
        "intern": len(term._INTERN),
        "lift": len(term._LIFT_MEMO),
        "subst": len(term._SUBST_MEMO),
        "free_rels": len(term._FREE_MEMO),
    }
    for name, table in _walk_tables().items():
        sizes[name] = len(table)
    for index, cache in enumerate(term._EXTRA_CACHES):
        sizes[f"registered[{index}]"] = len(cache)
    return sizes


def _warm_pass(residents):
    """The eight six-case jobs, once, on one resident table."""
    for job in six_case_jobs():
        assert execute_warm(residents, job.payload())["status"] == "ok"


def test_environment_builds_leave_memos_flat(kernel_caches_on):
    for _ in range(2):
        _session_round()
    before = _memo_sizes()
    for _ in range(8):
        _session_round()
    assert _memo_sizes() == before


def test_sessions_forking_one_base_leave_memos_flat(
    kernel_caches_on, session_builds
):
    manager = SessionManager(max_sessions=2)

    def managed_round(i):
        """What one server session does, through the session manager."""
        name = f"s{i}"
        manager.create(name, DEFAULT_SETUP)
        manager.run(name, SESSION_SCRIPT)
        manager.close(name)

    def case_type_sizes():
        base = manager._bases[DEFAULT_SETUP]
        return {ind.name: len(ind.case_types) for ind in base.inductives()}

    for i in range(2):
        managed_round(i)
    before = _memo_sizes(), case_type_sizes()
    for i in range(2, 10):
        managed_round(i)
    assert (_memo_sizes(), case_type_sizes()) == before
    assert session_builds == [DEFAULT_SETUP]


def test_warm_worker_jobs_leave_memos_flat(kernel_caches_on):
    residents = {}
    for _ in range(2):
        _warm_pass(residents)
    before = _memo_sizes()
    assert all(before[name] for name in _walk_tables())
    for _ in range(4):
        _warm_pass(residents)
    assert _memo_sizes() == before


#: The reduction cache's verdict tables.
VERDICT_TABLES = ("check", "infer", "whnf", "nf", "conv")


def _verdict_misses():
    return {name: KERNEL_STATS.counter(name).misses for name in VERDICT_TABLES}


def test_steady_warm_jobs_rederive_no_kernel_verdict(kernel_caches_on):
    residents = {}
    _warm_pass(residents)
    before = _verdict_misses()
    _warm_pass(residents)
    assert _verdict_misses() == before


def test_steady_warm_jobs_retransform_nothing(kernel_caches_on):
    residents = {}
    _warm_pass(residents)
    counter = KERNEL_STATS.counter("transform_cache")
    before = counter.misses
    _warm_pass(residents)
    assert counter.misses == before


def test_steady_warm_jobs_reuse_every_report(kernel_caches_on):
    residents = {}
    _warm_pass(residents)
    counter = KERNEL_STATS.counter("report_cache")

    def state():
        sizes = sorted(len(r.config.reports) for r in residents.values())
        return counter.misses, sizes

    before = state()
    for _ in range(2):
        hits = counter.hits
        _warm_pass(residents)
        assert state() == before
        assert counter.hits - hits == len(six_case_jobs())


def test_distinct_targets_leave_the_reduction_cache_flat(kernel_caches_on):
    # Every quickstart constant over ``list``, each its own job; jobs
    # repairing different targets share the dependencies they declare.
    env = quickstart_env()
    refs = env.declaration_refs()
    targets = [
        name
        for name in env.declaration_order()
        if "list" in refs.get(name, ())
        and env.has_constant(name)
        and not name.startswith("New.")
        and not name.endswith("_rect")
    ]
    assert len(targets) == 16
    (job,) = [job for job in six_case_jobs() if job.name.startswith("quick")]
    residents = {}
    sizes, misses = [], []
    for _ in range(3):
        for target in targets:
            payload = dict(job.payload(), target=target)
            assert execute_warm(residents, payload)["status"] == "ok"
        (resident,) = residents.values()
        sizes.append(
            (
                resident.env.reduction_cache.size,
                resident.config.transforms.size,
                len(resident.config.reports),
            )
        )
        misses.append(_verdict_misses())
    assert sizes[1:] == sizes[:1] * 2
    assert misses[1:] == misses[:1] * 2


def test_clear_term_caches_empties_the_walk_tables(kernel_caches_on):
    _warm_pass({})
    assert all(_walk_tables().values())
    term.clear_term_caches()
    assert not any(_walk_tables().values())


def test_walk_tables_store_nothing_with_caches_off(no_kernel_caches):
    before = {name: len(table) for name, table in _walk_tables().items()}
    _warm_pass({})
    after = {name: len(table) for name, table in _walk_tables().items()}
    assert after == before
