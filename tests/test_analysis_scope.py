"""The scope & arity checker: true negatives, true positives, and fuzz."""

import pytest

from repro.analysis import check_environment, check_inductive, check_term
from repro.kernel.env import Environment
from repro.kernel.inductive import ConstructorDecl, InductiveDecl
from repro.kernel.term import (
    Constr,
    Const,
    Elim,
    Ind,
    Lam,
    Rel,
    Sort,
)
from repro.stdlib import make_env


@pytest.fixture(scope="module")
def env():
    return make_env(lists=True, vectors=True)


class TestTrueNegatives:
    def test_whole_stdlib_is_clean(self, env):
        assert check_environment(env) == []

    def test_closed_constant_body(self, env):
        body = env.constant("rev").body
        assert check_term(env, body) == []

    def test_open_term_under_declared_binders(self, env):
        # Rel(1) is fine when the checker is told two binders enclose it.
        assert check_term(env, Rel(1), depth=2) == []


class TestTruePositives:
    def test_unbound_rel(self, env):
        diags = check_term(env, Lam("x", Sort(0), Rel(1)))
        assert [d.code for d in diags] == ["RA001"]
        assert diags[0].path == ("body",)

    def test_invalid_sort_level(self, env):
        diags = check_term(env, Sort(-2))
        assert [d.code for d in diags] == ["RA002"]

    def test_unknown_constant(self, env):
        diags = check_term(env, Const("no_such_constant"))
        assert [d.code for d in diags] == ["RA003"]

    def test_unknown_inductive(self, env):
        diags = check_term(env, Ind("no_such_type"))
        assert [d.code for d in diags] == ["RA004"]

    def test_constructor_index_out_of_range(self, env):
        diags = check_term(env, Constr("nat", 7))
        assert [d.code for d in diags] == ["RA005"]

    def test_elim_with_dropped_case(self, env):
        # nat has two constructors; an Elim with one case is malformed.
        full = Elim(
            "nat",
            Lam("n", Ind("nat"), Ind("nat")),
            (Constr("nat", 0), Lam("n", Ind("nat"), Rel(0))),
            Constr("nat", 0),
        )
        assert check_term(env, full) == []
        dropped = Elim("nat", full.motive, full.cases[:1], full.scrut)
        assert "RA006" in [d.code for d in check_term(env, dropped)]

    def test_result_index_count_mismatch(self, env):
        # A hand-built (undeclared) family whose constructor supplies no
        # index for a one-index family.
        decl = InductiveDecl(
            name="Bad.indexed",
            params=(),
            indices=(("n", Ind("nat")),),
            sort=Sort(0),
            constructors=(
                ConstructorDecl("mk", args=(), result_indices=()),
            ),
        )
        diags = check_inductive(env, decl)
        assert "RA007" in [d.code for d in diags]

    def test_error_in_environment_sweep(self):
        # A dangling reference the way a real session makes one: a
        # checked declaration over a global that is later removed.
        bad = Environment()
        bad.assume("loose", Sort(1))
        bad.assume("dangling", Const("loose"))
        bad.remove("loose")
        diags = check_environment(bad)
        assert "RA003" in [d.code for d in diags]
        assert diags[0].subject == "dangling"


# -- Seeded fuzzing (stdlib random only) -------------------------------------


# The generator and its mutators live in termgen, shared with the
# reduction golden tests and the warm-cache soundness suite.
from tests.termgen import (  # noqa: E402
    bump_first_rel,
    drop_first_elim_case,
    fuzz_terms,
)


class TestFuzz:
    def test_generated_terms_are_accepted(self, env):
        for label, term in fuzz_terms(20260805, 200, env, depth=4):
            assert check_term(env, term) == [], label

    def test_off_by_one_rel_is_rejected(self, env):
        mutated_count = 0
        for label, term in fuzz_terms(20260806, 300, env, depth=4):
            mutated = bump_first_rel(term)
            if mutated is None:
                continue
            mutated_count += 1
            codes = [d.code for d in check_term(env, mutated)]
            assert "RA001" in codes, (label, term, mutated)
        assert mutated_count >= 50

    def test_dropped_elim_case_is_rejected(self, env):
        mutated_count = 0
        for label, term in fuzz_terms(20260807, 300, env, depth=4):
            mutated = drop_first_elim_case(term)
            if mutated is None:
                continue
            mutated_count += 1
            codes = [d.code for d in check_term(env, mutated)]
            assert "RA006" in codes, (label, term, mutated)
        assert mutated_count >= 50
