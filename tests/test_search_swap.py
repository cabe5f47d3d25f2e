"""The swap/rename search procedure and its equivalence proofs.

The section and retraction are built as terms (Section 4.3's shape).
The tactic script is the oracle: :func:`script_roundtrip` proves the
same statement by induct, simpl, rewrite and reflexivity, and the built
terms must check against that statement with every kernel cache off
and be convertible to the script's proof.
"""

from typing import List

import pytest

from repro.core import ConfigError
from repro.core.config import roundtrip_mismatch
from repro.core.search.swap import (
    build_map_function,
    find_constructor_mappings,
    prove_swap_equivalence,
    roundtrip_statement,
    swap_configuration,
)
from repro.kernel import (
    Context,
    Elim,
    Ind,
    Term,
    TermError,
    check,
    conv,
    mk_app,
    mk_lams,
    nf,
    set_kernel_caches,
    typecheck_closed,
    unfold_app,
    unfold_lams,
)
from repro.kernel.inductive import analyze_recursive_args
from repro.stdlib import declare_list_type, make_env
from repro.syntax.parser import parse
from repro.tactics.engine import Proof
from repro.tactics.tactics import induction, intros, reflexivity, rewrite, simpl


@pytest.fixture(scope="module")
def env():
    env = make_env(lists=True, vectors=False)
    declare_list_type(env, "New.list", swapped=True)
    return env


class TestMappingSearch:
    def test_swapped_list_mapping(self, env):
        mappings = list(find_constructor_mappings(env, "list", "New.list"))
        assert mappings == [(1, 0)]

    def test_identity_mapping_comes_first(self, env):
        mappings = find_constructor_mappings(env, "list", "list")
        assert next(iter(mappings)) == (0, 1)

    def test_incompatible_types_yield_nothing(self, env):
        assert list(find_constructor_mappings(env, "list", "nat")) == []

    def test_replica_term_has_24_mappings(self):
        from repro.cases.replica import (
            declare_term_language,
            setup_environment,
        )

        renv = setup_environment()
        declare_term_language(
            renv,
            "Probe.Term",
            order=["Var", "Eq", "Int", "Plus", "Times", "Minus", "Choose"],
        )
        mappings = list(
            find_constructor_mappings(renv, "Old.Term", "Probe.Term")
        )
        assert len(mappings) == 24
        # The desired swap comes first.
        assert mappings[0] == (0, 2, 1, 3, 4, 5, 6)

    def test_enum_30_first_mapping_is_lazy(self):
        import time

        from repro.cases.replica import declare_enum

        env = make_env(lists=False, vectors=False)
        declare_enum(env, "Enum", size=30)
        declare_enum(env, "Enum2", size=30)
        start = time.time()
        first = next(iter(find_constructor_mappings(env, "Enum", "Enum2")))
        assert time.time() - start < 5.0
        assert first == tuple(range(30))  # names align


class TestConfigurationConstruction:
    def test_default_mapping_is_first_candidate(self, env):
        config = swap_configuration(env, "list", "New.list", prove=False)
        assert tuple(config.b.perm) == (1, 0)

    def test_explicit_mapping(self, env):
        config = swap_configuration(
            env, "list", "New.list", mapping=(1, 0), prove=False
        )
        assert tuple(config.b.perm) == (1, 0)

    def test_no_mapping_raises(self, env):
        with pytest.raises(ConfigError):
            swap_configuration(env, "list", "nat")


class TestEquivalenceGeneration:
    def test_map_function_shape(self, env):
        f = build_map_function(env, "list", "New.list", (1, 0))
        ty = typecheck_closed(env, f)
        rendered_ok = ty is not None
        assert rendered_ok

    def test_figure3_equivalence_proved(self, env):
        config = swap_configuration(env, "list", "New.list")
        eqv = config.equivalence
        assert eqv is not None
        for proof in (eqv.section, eqv.retraction):
            typecheck_closed(env, proof)

    def test_equivalence_computes_roundtrip(self, env):
        config = swap_configuration(env, "list", "New.list")
        xs = parse(env, "list.cons nat 1 (list.cons nat 2 (list.nil nat))")
        mapped = nf(env, mk_app(config.equivalence.f, [Ind("nat"), xs]))
        back = nf(env, mk_app(config.equivalence.g, [Ind("nat"), mapped]))
        assert back == nf(env, xs)

    @staticmethod
    def _trees():
        """``Tree := leaf | node (nat -> Tree)`` and ``Tree2``, its copy
        with the constructors swapped."""
        from repro.kernel import Pi
        from repro.kernel.inductive import ConstructorDecl, InductiveDecl
        from repro.kernel.term import SET

        env = make_env(lists=False, vectors=False)
        for name, order in (("Tree", (0, 1)), ("Tree2", (1, 0))):
            ctors = (
                ConstructorDecl(f"{name}.leaf", args=()),
                ConstructorDecl(
                    f"{name}.node", args=(("f", Pi("n", Ind("nat"), Ind(name))),)
                ),
            )
            env.declare_inductive(
                InductiveDecl(
                    name=name,
                    params=(),
                    indices=(),
                    sort=SET,
                    constructors=tuple(ctors[i] for i in order),
                )
            )
        return env

    def test_function_typed_recursive_argument_is_refused(self):
        # node : (nat -> Tree) -> Tree.  Its roundtrip would need function
        # extensionality, which the Section 4.3 proof shape does not have.
        with pytest.raises(ConfigError, match="function extensionality"):
            swap_configuration(self._trees(), "Tree", "Tree2")

    def test_configure_says_why_swap_refused(self):
        from repro.core.search import configure

        with pytest.raises(ConfigError, match="function extensionality") as info:
            configure(self._trees(), "Tree", "Tree2")
        assert "no automatic configuration found" in str(info.value)
        assert isinstance(info.value.__cause__, ConfigError)

    def test_equivalence_for_multi_recursive_ctors(self):
        # The Term language has binary recursive constructors; the
        # generated section proof must rewrite along two IHs.
        from repro.cases.replica import (
            declare_term_language,
            setup_environment,
        )

        env = setup_environment()
        declare_term_language(
            env,
            "Probe.Term",
            order=["Var", "Eq", "Int", "Plus", "Times", "Minus", "Choose"],
        )
        eqv = prove_swap_equivalence(
            env, "Old.Term", "Probe.Term", (0, 2, 1, 3, 4, 5, 6)
        )
        typecheck_closed(env, eqv.section)
        typecheck_closed(env, eqv.retraction)


# -- The tactic script, as the oracle -------------------------------------------


def script_roundtrip(env, src: str, statement: Term) -> Term:
    """Prove a roundtrip statement with the Section 4.3 tactic script."""
    decl = env.inductive(src)
    proof = Proof(env, statement)
    proof.run(intros(*([name for name, _ in decl.params] + ["x"])))
    # Name case binders so the script can rewrite along each IH.
    names = []
    ih_names_per_case = []
    for j, ctor in enumerate(decl.constructors):
        rec = analyze_recursive_args(decl, j)
        case_names: List[str] = []
        ih_names: List[str] = []
        for i in range(len(ctor.args)):
            case_names.append(f"a{j}_{i}")
            if rec[i] is not None:
                case_names.append(f"IH{j}_{i}")
                ih_names.append(f"IH{j}_{i}")
        names.append(case_names)
        ih_names_per_case.append(ih_names)
    proof.run(induction("x", names=names))
    for ihs in ih_names_per_case:
        if ihs:
            proof.run(simpl())
            for ih in ihs:
                proof.run(rewrite(ih))
        proof.run(reflexivity())
    return proof.qed()


def assert_matches_oracle(env, a_name: str, b_name: str, mapping) -> None:
    """Built section/retraction check against, and convert to, the script's."""
    eqv = prove_swap_equivalence(env, a_name, b_name, mapping)
    for src, fwd, bwd, built in (
        (a_name, eqv.f, eqv.g, eqv.section),
        (b_name, eqv.g, eqv.f, eqv.retraction),
    ):
        statement = roundtrip_statement(env, src, fwd, bwd)
        assert roundtrip_mismatch(env, statement, fwd, bwd) is None
        scripted = script_roundtrip(env, src, statement)
        previous = set_kernel_caches(False)
        try:
            check(env, Context.empty(), built, statement)
            assert conv(env, built, scripted)
        finally:
            set_kernel_caches(previous)


def _replica_env():
    from repro.cases.replica import setup_environment

    return setup_environment()


def _declare_variant(env, index: int):
    """Declare replica variant ``index``; return its type and mapping."""
    from repro.cases.replica import (
        VARIANT_MAPPINGS,
        VARIANTS,
        declare_term_language,
    )

    label, order, renames = VARIANTS[index]
    name = f"Oracle{index}.Term"
    declare_term_language(env, name, order=order, renames=renames)
    mapping = VARIANT_MAPPINGS.get(label)
    if mapping is None:
        mapping = next(iter(find_constructor_mappings(env, "Old.Term", name)))
    return name, mapping


class TestBuiltProofsMatchTheScript:
    def test_list_swap(self, env):
        assert_matches_oracle(env, "list", "New.list", (1, 0))

    @pytest.mark.parametrize("index", range(5))
    def test_replica_variant(self, index):
        env = _replica_env()
        name, mapping = _declare_variant(env, index)
        assert_matches_oracle(env, "Old.Term", name, mapping)

    def test_every_figure16_mapping(self):
        from repro.cases.replica import declare_term_language

        env = _replica_env()
        declare_term_language(
            env,
            "Probe.Term",
            order=["Var", "Eq", "Int", "Plus", "Times", "Minus", "Choose"],
        )
        mappings = list(find_constructor_mappings(env, "Old.Term", "Probe.Term"))
        assert len(mappings) == 24
        for mapping in mappings:
            assert_matches_oracle(env, "Old.Term", "Probe.Term", mapping)

    def test_enum_30(self):
        from repro.cases.replica import declare_enum

        env = make_env(lists=False, vectors=False)
        declare_enum(env, "Enum", size=30)
        declare_enum(env, "Enum2", size=30)
        first = next(iter(find_constructor_mappings(env, "Enum", "Enum2")))
        assert_matches_oracle(env, "Enum", "Enum2", first)
        assert_matches_oracle(env, "Enum", "Enum2", tuple(reversed(range(30))))


# -- Mutations the kernel must refuse -----------------------------------------


def _with_case(proof: Term, j: int, new_case: Term) -> Term:
    """``proof`` with case ``j`` of its eliminator replaced."""
    binders, elim = unfold_lams(proof)
    cases = list(elim.cases)
    cases[j] = new_case
    return mk_lams(binders, Elim(elim.ind, elim.motive, tuple(cases), elim.scrut))


def _case_with_rewrites(env, src: str, proof: Term, count: int):
    """The first case of ``proof`` that rewrites along ``count`` IHs."""
    decl = env.inductive(src)
    _binders, elim = unfold_lams(proof)
    for j in range(decl.n_constructors):
        rec = analyze_recursive_args(decl, j)
        if sum(info is not None for info in rec) == count:
            height = len(rec) + count
            binders, body = unfold_lams(elim.cases[j])
            assert len(binders) == height
            return j, binders, body
    raise AssertionError(f"no case of {src} has {count} recursive arguments")


def _refused(env, proof: Term, statement: Term) -> bool:
    previous = set_kernel_caches(False)
    try:
        check(env, Context.empty(), proof, statement)
    except TermError:
        return True
    finally:
        set_kernel_caches(previous)
    return False


class TestMutatedProofsAreRefused:
    @pytest.fixture(scope="class")
    def replica(self):
        env = _replica_env()
        name, mapping = _declare_variant(env, 0)
        eqv = prove_swap_equivalence(env, "Old.Term", name, mapping)
        statement = roundtrip_statement(env, "Old.Term", eqv.f, eqv.g)
        return env, eqv.section, statement

    def test_unmutated_section_checks(self, replica):
        env, section, statement = replica
        assert not _refused(env, section, statement)

    def test_dropping_one_rewrite_is_refused(self, replica):
        env, section, statement = replica
        j, binders, body = _case_with_rewrites(env, "Old.Term", section, 2)
        head, args = unfold_app(body)
        assert head.name == "eq_ind"
        inner = args[3]  # the proof of the motive at the rewritten side
        mutant = _with_case(section, j, mk_lams(binders, inner))
        assert _refused(env, mutant, statement)

    def test_swapping_two_hypotheses_is_refused(self, replica):
        env, section, statement = replica
        j, binders, body = _case_with_rewrites(env, "Old.Term", section, 2)
        head, outer = unfold_app(body)
        inner_head, inner = unfold_app(outer[3])
        sym_head, outer_sym = unfold_app(outer[5])
        _h, inner_sym = unfold_app(inner[5])
        swapped_inner = mk_app(
            inner_head,
            inner[:5] + (mk_app(sym_head, inner_sym[:3] + (outer_sym[3],)),),
        )
        swapped = mk_app(
            head,
            outer[:3]
            + (swapped_inner,)
            + outer[4:5]
            + (mk_app(sym_head, outer_sym[:3] + (inner_sym[3],)),),
        )
        mutant = _with_case(section, j, mk_lams(binders, swapped))
        assert _refused(env, mutant, statement)
