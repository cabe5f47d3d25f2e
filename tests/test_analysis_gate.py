"""The ``REPRO_ANALYZE`` pipeline gate.

Satellite of the static-analysis layer: with the gate on, a malformed
configuration fails *at the Figure 10 rule that produced the bad term*
(an :class:`AnalysisError` naming the rule), instead of surfacing as a
deep kernel ``TypeError_`` long after the culprit rule fired.  With the
gate off, repair output is byte-identical to an analysis-free build.
"""

import pytest

from repro.analysis import AnalysisError, set_analysis
from repro.core.config import AlignedSide, Configuration, TermSide
from repro.core.repair import RepairSession
from repro.core.search.swap import swap_configuration
from repro.core.transform import Transformer
from repro.kernel import (
    App,
    Const,
    Constr,
    Ind,
    Lam,
    Rel,
    Sort,
    TermError,
    pretty,
    typecheck_closed,
)
from repro.stdlib import declare_list_type, make_env
from repro.syntax.parser import parse


@pytest.fixture
def analyze():
    previous = set_analysis(True)
    yield
    set_analysis(previous)


def fresh_env():
    env = make_env(lists=True, vectors=False)
    declare_list_type(env, "New.list", swapped=True)
    return env


def broken_configuration(env):
    """A configuration whose dep_constr[0] builds an unbound ``Rel``."""
    b = TermSide(
        n_params=1,
        type_fn=Lam("T", Sort(0), App(Ind("New.list"), Rel(0))),
        dep_constr=(
            Lam("T", Sort(0), Rel(5)),  # malformed on purpose
            Lam("T", Sort(0), App(Ind("New.list"), Rel(0))),
        ),
        dep_elim=Lam("T", Sort(0), Sort(0)),
        constr_arities=(0, 2),
    )
    return Configuration(a=AlignedSide(env, "list"), b=b)


class TestRuleGate:
    def test_broken_rule_output_names_the_rule(self, analyze):
        env = fresh_env()
        config = broken_configuration(env)
        nil = Constr("list", 0).app(Ind("nat"))
        with pytest.raises(AnalysisError) as excinfo:
            Transformer(env, config)(nil)
        assert excinfo.value.rule == "Dep-Constr"
        assert "RA001" in excinfo.value.codes

    def test_without_the_gate_failure_is_a_deep_kernel_error(self):
        # Analysis off (the default): the same defect slips through the
        # transformation and only explodes later, inside the kernel,
        # with no mention of the rule that produced it.
        env = fresh_env()
        config = broken_configuration(env)
        nil = Constr("list", 0).app(Ind("nat"))
        garbage = Transformer(env, config)(nil)  # silently succeeds
        with pytest.raises(TermError) as excinfo:
            typecheck_closed(env, garbage)
        assert not isinstance(excinfo.value, AnalysisError)

    def test_gate_is_transparent_on_well_formed_repair(self, analyze):
        def one_element_rev(env):
            decl = env.inductive("list")
            nil = Constr("list", decl.constructor_index("nil"))
            cons = Constr("list", decl.constructor_index("cons"))
            value = cons.app(
                Ind("nat"), Constr("nat", 0), nil.app(Ind("nat"))
            )
            return Const("rev").app(Ind("nat"), value)

        env = fresh_env()
        config = swap_configuration(env, "list", "New.list")
        transformed = Transformer(env, config)(one_element_rev(env))
        baseline_env = fresh_env()
        baseline_config = swap_configuration(
            baseline_env, "list", "New.list"
        )
        previous = set_analysis(False)
        try:
            baseline = Transformer(baseline_env, baseline_config)(
                one_element_rev(baseline_env)
            )
        finally:
            set_analysis(previous)
        assert pretty(transformed) == pretty(baseline)


class TestRepairGate:
    def test_transitive_residual_is_caught(self, analyze):
        # `hidden_old_ref` does not *name* list in the repaired term, so
        # the session's syntactic mentions check cannot see it; only the
        # delta-unfolding residual pass does.
        env = fresh_env()
        env.assume(
            "hidden_old_ref",
            parse(env, "forall (T : Set), list T -> list T"),
        )
        config = swap_configuration(env, "list", "New.list")
        session = RepairSession(env, config, old_globals=["list"])
        with pytest.raises(AnalysisError) as excinfo:
            session.repair_term(
                Const("hidden_old_ref"), expected_type=None
            )
        assert "RA102" in excinfo.value.codes

    def test_same_call_passes_with_analysis_off(self):
        env = fresh_env()
        env.assume(
            "hidden_old_ref",
            parse(env, "forall (T : Set), list T -> list T"),
        )
        config = swap_configuration(env, "list", "New.list")
        session = RepairSession(env, config, old_globals=["list"])
        result = session.repair_term(Const("hidden_old_ref"))
        assert result == Const("hidden_old_ref")

    def test_repair_module_is_byte_identical_with_gate_on(self, analyze):
        names = ["app", "rev", "length", "map"]
        env = fresh_env()
        config = swap_configuration(env, "list", "New.list")
        session = RepairSession(
            env, config, old_globals=["list"], rename=lambda n: f"New.{n}"
        )
        results = session.repair_module(names)
        baseline_env = fresh_env()
        baseline_config = swap_configuration(
            baseline_env, "list", "New.list"
        )
        previous = set_analysis(False)
        try:
            baseline_session = RepairSession(
                baseline_env,
                baseline_config,
                old_globals=["list"],
                rename=lambda n: f"New.{n}",
            )
            baseline = baseline_session.repair_module(names)
        finally:
            set_analysis(previous)
        assert [pretty(r.term) for r in results] == [
            pretty(r.term) for r in baseline
        ]
        assert [pretty(r.type) for r in results] == [
            pretty(r.type) for r in baseline
        ]
