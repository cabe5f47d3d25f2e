"""The configuration linter: Figure 8 coherence as diagnostics."""

import pytest

from repro.analysis import lint_configuration
from repro.core.config import (
    AlignedSide,
    Configuration,
    Equivalence,
    TermSide,
)
from repro.core.search.swap import swap_configuration
from repro.kernel.term import App, Ind, Lam, Rel, Sort
from repro.stdlib import declare_list_type, make_env


@pytest.fixture(scope="module")
def env():
    env = make_env(lists=True, vectors=False)
    declare_list_type(env, "New.list", swapped=True)
    return env


def codes(diags):
    return [d.code for d in diags]


class TestTrueNegatives:
    def test_swap_configuration_is_coherent(self, env):
        config = swap_configuration(env, "list", "New.list")
        assert lint_configuration(env, config) == []

    def test_binary_manual_configuration_is_coherent(self, binary_scenario):
        diags = lint_configuration(
            binary_scenario.env, binary_scenario.config
        )
        assert diags == []


class TestTruePositives:
    def test_arity_mismatch(self, env):
        # list's cons takes 2 arguments; declare 3 on the B side.
        a = AlignedSide(env, "list")
        b = TermSide(
            n_params=1,
            type_fn=Lam("T", Sort(0), App(Ind("list"), Rel(0))),
            dep_constr=(
                Lam("T", Sort(0), App(Ind("list"), Rel(0))),
                Lam("T", Sort(0), App(Ind("list"), Rel(0))),
            ),
            dep_elim=Lam("T", Sort(0), Sort(0)),
            constr_arities=(0, 3),
        )
        config = Configuration(a=a, b=b)
        diags = lint_configuration(env, config)
        assert "RA203" in codes(diags)

    def test_open_configuration_term(self, env):
        a = AlignedSide(env, "list")
        b = TermSide(
            n_params=1,
            type_fn=Lam("T", Sort(0), App(Ind("list"), Rel(0))),
            dep_constr=(
                Lam("T", Sort(0), Rel(5)),  # unbound
                Lam("T", Sort(0), App(Ind("list"), Rel(0))),
            ),
            dep_elim=Lam("T", Sort(0), Sort(0)),
            constr_arities=(0, 2),
        )
        config = Configuration(a=a, b=b)
        diags = lint_configuration(env, config)
        ra204 = [d for d in diags if d.code == "RA204"]
        assert ra204, codes(diags)
        assert any("dep_constr[0]" in d.path_str for d in ra204)

    def test_iota_count_mismatch(self, env):
        a = AlignedSide(env, "list")
        b = TermSide(
            n_params=1,
            type_fn=Lam("T", Sort(0), App(Ind("list"), Rel(0))),
            dep_constr=(
                Lam("T", Sort(0), App(Ind("list"), Rel(0))),
                Lam("T", Sort(0), App(Ind("list"), Rel(0))),
            ),
            dep_elim=Lam("T", Sort(0), Sort(0)),
            constr_arities=(0, 2),
            iota=(None,),  # two constructors, one iota entry
        )
        # TermSide would normally default this; force the defect.
        config = Configuration(a=a, b=b)
        diags = lint_configuration(env, config)
        assert "RA205" in codes(diags)

    def test_invalid_permutation(self, env):
        a = AlignedSide(env, "list")
        a.perm = (0, 0)  # corrupt it after construction
        config = Configuration(a=a, b=AlignedSide(env, "New.list"))
        diags = lint_configuration(env, config)
        assert "RA208" in codes(diags)

    def test_equivalence_function_ill_typed(self, env):
        config = Configuration(
            a=AlignedSide(env, "list"),
            b=AlignedSide(env, "New.list"),
            equivalence=Equivalence(
                f=App(Ind("nat"), Ind("nat")),  # nat is not a function
                g=Lam("x", Ind("nat"), Rel(0)),
            ),
        )
        diags = lint_configuration(env, config)
        assert "RA207" in codes(diags)

    def test_roundtrip_proof_wrong_shape(self, env):
        # eq_refl at a nat proves nothing about a roundtrip.
        from repro.syntax.parser import parse

        config = Configuration(
            a=AlignedSide(env, "list"),
            b=AlignedSide(env, "New.list"),
            equivalence=Equivalence(
                f=Lam("x", Ind("nat"), Rel(0)),
                g=Lam("x", Ind("nat"), Rel(0)),
                section=parse(env, "pred"),  # concludes in nat, not eq
            ),
        )
        diags = lint_configuration(env, config)
        assert "RA206" in codes(diags)

    def test_roundtrip_proof_of_the_wrong_equality(self, env):
        # forall T x, x = x has the roundtrip's shape (an eq concluding
        # at x) but proves nothing about swapping and swapping back.
        from repro.syntax.parser import parse

        config = swap_configuration(env, "list", "New.list")
        config.equivalence = Equivalence(
            f=config.equivalence.f,
            g=config.equivalence.g,
            section=parse(
                env, "fun (T : Type1) (x : list T) => eq_refl (list T) x"
            ),
            retraction=config.equivalence.retraction,
        )
        diags = lint_configuration(env, config)
        assert codes(diags) == ["RA206"]
        assert diags[0].path == ("section",)
