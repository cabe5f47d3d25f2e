"""The scope & arity checker: true negatives, true positives, and fuzz."""

import pytest

from repro.analysis import check_environment, check_inductive, check_term
from repro.kernel.env import Environment
from repro.kernel.inductive import ConstructorDecl, InductiveDecl
from repro.kernel.term import (
    App,
    Constr,
    Const,
    Elim,
    Ind,
    Lam,
    Pi,
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


# -- The (node, depth) pass against the tree walk ----------------------------


def _tree_walk(env, term, depth=0):
    """The tree walk alone: every finding, by path, in walk order.

    What :func:`check_term` must return, whatever its first pass decides.
    """
    from repro.analysis.scope import _error, _problem
    from repro.kernel.pretty import pretty

    out = []
    stack = [(term, depth, ())]
    while stack:
        t, d, p = stack.pop()
        problem = _problem(env, t, d)
        if problem is not None:
            rendering = pretty(t, env=env) if isinstance(t, Elim) else None
            out.append(_error(*problem, "", p, rendering=rendering))
        if isinstance(t, App):
            stack += [(t.fn, d, p + ("fn",)), (t.arg, d, p + ("arg",))]
        elif isinstance(t, (Lam, Pi)):
            inner = "body" if isinstance(t, Lam) else "codomain"
            stack += [
                (t.domain, d, p + ("domain",)),
                (getattr(t, inner), d + 1, p + (inner,)),
            ]
        elif isinstance(t, Elim):
            stack.append((t.motive, d, p + ("motive",)))
            stack += [
                (case, d, p + (f"case[{j}]",))
                for j, case in enumerate(t.cases)
            ]
            stack.append((t.scrut, d, p + ("scrut",)))
    return out


#: Leaves the fuzz swaps in: out-of-range and negative ``Rel``s, an
#: invalid sort, unknown globals and bad constructor indices.
_BAD_LEAVES = (
    Rel(5),
    Rel(-1),
    Sort(-2),
    Const("no_such_constant"),
    Ind("no_such_type"),
    Constr("no_such_type", 0),
    Constr("nat", 2),
    Constr("nat", -1),
)


def _corrupt(rng, term):
    """``term`` with some leaves swapped for bad ones and some eliminators
    given a wrong number of cases."""
    if isinstance(term, App):
        return App(_corrupt(rng, term.fn), _corrupt(rng, term.arg))
    if isinstance(term, (Lam, Pi)):
        inner = "body" if isinstance(term, Lam) else "codomain"
        return type(term)(
            term.name,
            _corrupt(rng, term.domain),
            _corrupt(rng, getattr(term, inner)),
        )
    if isinstance(term, Elim):
        cases = tuple(_corrupt(rng, case) for case in term.cases)
        roll = rng.random()
        if roll < 0.15:
            cases = cases[:-1]
        elif roll < 0.3:
            cases = cases + cases[:1]
        return Elim(
            term.ind,
            _corrupt(rng, term.motive),
            cases,
            _corrupt(rng, term.scrut),
        )
    if rng.random() < 0.3:
        return rng.choice(_BAD_LEAVES)
    return term


def _shared(term):
    """``term`` at three depths, the same object each time: the outer
    one, one binder deeper (visited first) and two deeper."""
    return Pi("x", term, App(term, Lam("y", term, term)))


class TestFirstPass:
    """``check_term``'s first pass visits each distinct (node, depth) once
    and only decides whether the tree walk runs."""

    @pytest.mark.parametrize("binders", [0, 2])
    def test_matches_the_tree_walk_on_generated_terms(self, env, binders):
        import random

        from repro.analysis.scope import _clean

        rng = random.Random(24011)
        checked = dirty = 0
        for label, term in fuzz_terms(24010, 300, env, 4, binders):
            for candidate in (term, _corrupt(rng, term)):
                # Shared one binder out, a term scoped for ``binders``
                # may be unbound at its outer depth only.
                for t, depth in (
                    (candidate, binders),
                    (_shared(candidate), max(binders - 1, 0)),
                ):
                    expected = _tree_walk(env, t, depth)
                    assert _clean(env, t, depth) == (not expected), label
                    assert check_term(env, t, depth) == expected, label
                    checked += 1
                    dirty += bool(expected)
        assert dirty >= 250 and checked - dirty >= 250

    def test_a_shared_subterm_is_judged_at_each_depth(self, env):
        # Rel(0) is unbound where the domain sits and bound one binder
        # in: visiting the shared node once would miss one verdict.
        from repro.analysis.scope import _clean

        open_term = Lam("x", Rel(0), Rel(0))
        assert _clean(env, Lam("y", Ind("nat"), open_term), 0)
        shared = Pi("z", open_term, open_term)
        assert not _clean(env, shared, 0)
        assert [(d.code, d.path) for d in check_term(env, shared)] == [
            ("RA001", ("domain", "domain"))
        ]
