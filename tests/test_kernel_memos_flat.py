"""Environment builds leave the process-global kernel memos flat.

A server session, a pool worker's re-boot and a batch job each build a
fresh environment in a long-lived process.  The term arena and the
term-keyed memos are shared by every environment, so an entry that
mentions a per-environment object (a declaration, say) would be new on
every build and pin that object for good.  Memos over such objects
live on the objects instead (``InductiveDecl.case_types``).
"""

from repro.commands import CommandSession
from repro.kernel import term
from repro.server.sessions import DEFAULT_SETUP
from repro.service.worker import build_environment


def _session_round():
    """What one server session does: boot, repair, decompile."""
    session = CommandSession(build_environment(DEFAULT_SETUP))
    session.execute(
        "Repair list New.list in rev_app_distr as rev_app_distr_new."
    )
    session.execute("Decompile rev_app_distr_new.")


def _memo_sizes():
    sizes = {
        "intern": len(term._INTERN),
        "lift": len(term._LIFT_MEMO),
        "subst": len(term._SUBST_MEMO),
        "free_rels": len(term._FREE_MEMO),
    }
    for index, cache in enumerate(term._EXTRA_CACHES):
        sizes[f"registered[{index}]"] = len(cache)
    return sizes


def test_environment_builds_leave_memos_flat(kernel_caches_on):
    for _ in range(2):
        _session_round()
    before = _memo_sizes()
    for _ in range(8):
        _session_round()
    assert _memo_sizes() == before
