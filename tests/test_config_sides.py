"""Side implementations: AlignedSide, TermSide, MarkedIotaSide."""

import pytest

from repro.core.config import (
    AlignedSide,
    ElimMatch,
    MarkedIotaSide,
    Side,
    TermSide,
)
from repro.kernel import Const, Constr, Context, Elim, Ind, Lam, nf
from repro.stdlib import make_env
from repro.stdlib.natlib import nat_of_int
from repro.syntax.parser import parse


@pytest.fixture(scope="module")
def env():
    return make_env(lists=True, vectors=False)


class TestSideDefaults:
    def test_base_side_matches_nothing(self, env):
        side = Side()
        ctx = Context.empty()
        term = parse(env, "S O")
        assert side.match_type(env, term) is None
        assert side.match_constr(env, ctx, term) is None
        assert side.match_elim(env, ctx, term) is None
        assert side.match_iota(env, ctx, term) is None
        assert side.match_proj(env, ctx, term) is None

    def test_base_side_cannot_construct(self):
        side = Side()
        with pytest.raises(NotImplementedError):
            side.make_type(())


class TestAlignedSide:
    def test_identity_permutation_default(self, env):
        side = AlignedSide(env, "list")
        assert side.perm == (0, 1)

    def test_match_constr_requires_full_application(self, env):
        side = AlignedSide(env, "list")
        ctx = Context.empty()
        partial = Constr("list", 1).app(Ind("nat"))
        assert side.match_constr(env, ctx, partial) is None
        full = parse(env, "cons nat 1 (nil nat)")
        match = side.match_constr(env, ctx, full)
        assert match is not None
        j, params, args = match
        assert j == 1 and params == (Ind("nat"),)

    def test_match_elim_reads_params_from_scrutinee(self, env):
        side = AlignedSide(env, "list")
        ctx = Context.empty().push("l", parse(env, "list nat"))
        term = parse(env, "length nat")  # Const, not Elim
        assert side.match_elim(env, ctx, term) is None
        elim = Elim(
            "list",
            Lam("_", parse(env, "list nat"), Ind("nat")),
            (nat_of_int(0), parse(env, "fun (t : nat) (r : list nat) (IH : nat) => S IH")),
            Const("length"),  # type error would surface later; use a var
        )
        # Use a well-typed scrutinee instead:
        elim = Elim(elim.ind, elim.motive, elim.cases, parse(env, "nil nat"))
        match = side.match_elim(env, ctx, elim)
        assert match.params == (Ind("nat"),)

    def test_permuted_make_elim_restores_declaration_order(self, env):
        side = AlignedSide(env, "list", perm=(1, 0))
        match = ElimMatch(
            params=(Ind("nat"),),
            motive=Lam("_", parse(env, "list nat"), Ind("nat")),
            cases=(parse(env, "fun (t : nat) (r : list nat) (IH : nat) => S IH"),
                   nat_of_int(0)),
            scrut=parse(env, "nil nat"),
        )
        built = side.make_elim(match)
        assert isinstance(built, Elim)
        # Dependent case 1 (the common order's nil) lands at declared
        # position 0 under the permutation (1, 0).
        assert built.cases[1] == match.cases[0]


class TestTermSide:
    def test_make_constr_beta_reduces(self, env):
        side = TermSide(
            n_params=0,
            type_fn=Ind("nat"),
            dep_constr=(
                parse(env, "O"),
                parse(env, "fun (n : nat) => S n"),
            ),
            dep_elim=Const("nat_rect"),
            constr_arities=(0, 1),
        )
        built = side.make_constr(1, (), [nat_of_int(3)])
        assert built == nat_of_int(4)

    def test_make_elim_applies_in_convention_order(self, env):
        side = TermSide(
            n_params=0,
            type_fn=Ind("nat"),
            dep_constr=(parse(env, "O"), Constr("nat", 1)),
            dep_elim=Const("nat_rect"),
            constr_arities=(0, 1),
        )
        match = ElimMatch(
            params=(),
            motive=parse(env, "fun (_ : nat) => nat"),
            cases=(nat_of_int(9), parse(env, "fun (p IH : nat) => IH")),
            scrut=nat_of_int(2),
        )
        built = side.make_elim(match)
        assert nf(env, built) == nat_of_int(9)

    def test_default_iota_is_definitional(self, env):
        side = TermSide(
            n_params=0,
            type_fn=Ind("nat"),
            dep_constr=(parse(env, "O"), Constr("nat", 1)),
            dep_elim=Const("nat_rect"),
            constr_arities=(0, 1),
        )
        assert side.make_iota(0, []) is None


class TestMarkedIotaSide:
    def test_marks_are_matched_by_name(self, env_binary):
        from repro.cases.binary import declare_iota_constants

        declare_iota_constants(env_binary)
        side = MarkedIotaSide(
            env_binary, "nat", iota_names=("iota_nat_0", "iota_nat_1")
        )
        ctx = Context.empty()
        term = Const("iota_nat_1").app(nat_of_int(0))
        match = side.match_iota(env_binary, ctx, term)
        assert match == (1, (nat_of_int(0),))

    def test_other_constants_not_matched(self, env_binary):
        side = MarkedIotaSide(
            env_binary, "nat", iota_names=("iota_nat_0", "iota_nat_1")
        )
        ctx = Context.empty()
        assert side.match_iota(env_binary, ctx, Const("add")) is None


class TestReversedLimitations:
    def test_reversing_construct_only_side_cannot_repair(self, env):
        """A reversed ornament configuration has a construct-only A side:
        its unification heuristics match nothing, so the old type is never
        removed and repair reports it (the paper's incomplete-heuristics
        caveat)."""
        from repro.core.repair import RepairError, RepairSession
        from repro.core.search.ornaments import ornament_configuration

        env2 = make_env(lists=True, vectors=True)
        config = ornament_configuration(env2, prove=False).reversed()
        session = RepairSession(env2, config, old_globals=["sigT"])
        env2.define("packed_nil", parse(env2, "ornament.dep_constr_0 nat"))
        with pytest.raises(RepairError):
            session.repair_constant("packed_nil")


class TestRoundtripCheck:
    """``Configuration.check`` reads the roundtrip equalities themselves."""

    @pytest.fixture(scope="class")
    def swapped(self):
        from repro.core.search.swap import swap_configuration
        from repro.stdlib import declare_list_type

        env = make_env(lists=True, vectors=False)
        declare_list_type(env, "New.list", swapped=True)
        return env, swap_configuration(env, "list", "New.list")

    def test_swap_equivalence_passes(self, swapped):
        env, config = swapped
        config.check(env)

    def test_reflexivity_in_place_of_the_section_is_refused(self, swapped):
        from repro.core.config import ConfigError, Configuration, Equivalence

        env, config = swapped
        eqv = config.equivalence
        bogus = Configuration(
            a=config.a,
            b=config.b,
            equivalence=Equivalence(
                f=eqv.f,
                g=eqv.g,
                section=parse(
                    env, "fun (T : Type1) (x : list T) => eq_refl (list T) x"
                ),
                retraction=eqv.retraction,
            ),
        )
        with pytest.raises(ConfigError, match="section proof"):
            bogus.check(env)

    def test_section_and_retraction_swapped_are_refused(self, swapped):
        from repro.core.config import ConfigError, Configuration, Equivalence

        env, config = swapped
        eqv = config.equivalence
        bogus = Configuration(
            a=config.a,
            b=config.b,
            equivalence=Equivalence(
                f=eqv.f, g=eqv.g, section=eqv.retraction, retraction=eqv.section
            ),
        )
        with pytest.raises(ConfigError, match="section proof"):
            bogus.check(env)
