"""Kernel caches stay sound while long-lived environments mutate.

A warm, caches-on environment (hash consing, the de Bruijn memo tables
and the reduction cache with its ``infer``/``check``/``conv`` verdicts)
goes through seeded random runs of ``define``, ``remove``,
``checkpoint``, ``rollback``, a replay, ``reduction_cache.clear()`` and
``fork`` — the history a warm pool worker or a server session puts an
environment through.  A checkpoint keeps aside a fork that nothing
writes; a rollback replaces the environment with a fresh fork of a kept
one.  A replay does the same with a kept fork whose declarations are a
prefix of the environment's, then declares the dropped declarations
again (the same term objects, as a warm worker's next job does in its
fork of the post-build environment), or stops at one of them and
declares that name with another body: the reduction cache tags each
entry with the declaration state it was derived in, so it must show
every verdict of a replayed state and none of a replaced one.  Each
step picks the base environment or one of the forks made so far, and
the model tracks each environment's own history.  After every step,
random terms (from :mod:`tests.termgen` plus typed terms over the user
constants) must get the same ``infer`` result, ``nf`` and ``conv``
verdicts in the environment the step changed, or the same error class,
as in a cache-free reference: a fork of an environment used with every
cache layer off, into which that environment's current user
declarations are declared from scratch.  That goes through the checked
``define``, so the reference also re-checks every declaration the warm
side accepted.

A fork starts with its source's declarations and keeps nothing aside,
and after every step every environment, and every fork kept aside,
still holds exactly its own model's declarations, so a fork's
``define``, ``remove`` or ``rollback`` never shows in its source, its
siblings or what they keep.  Generated bodies only mention user
constants declared earlier, and ``remove`` only drops constants nothing
else mentions, so no delta-unfolding can cycle.

Every warm step runs with the caches switched on and every reference
step with them off, so this suite means the same under
``REPRO_DISABLE_KERNEL_CACHES=1``.  A failure names its seed and step.

The analysis fuzzer's ill-typed mutants (an out-of-scope ``Rel``, an
eliminator missing a branch) are typechecked against caches warmed by
every term they were made from, and must be refused exactly as a fresh,
cache-free environment refuses them.
"""

import random
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.kernel.context import Context
from repro.kernel.convert import conv
from repro.kernel.env import ABSENT
from repro.kernel.pretty import pretty
from repro.kernel.reduce import nf
from repro.kernel.stats import KERNEL_STATS, CacheCounter
from repro.kernel.term import (
    App,
    Const,
    Constr,
    Elim,
    Ind,
    Lam,
    Pi,
    Rel,
    Sort,
    TermError,
    set_kernel_caches,
)
from repro.kernel.typecheck import infer
from repro.stdlib import make_env
from repro.syntax.parser import parse
from tests.termgen import (
    DEFAULT_CONSTS,
    bump_first_rel,
    drop_first_elim_case,
    fuzz_terms,
    random_term,
)

SEEDS = range(8)
STEPS = 250
NAMES = tuple(f"u{i}" for i in range(8))
TYPES = {"nat": "nat", "fun": "nat -> nat", "bool": "bool", "type": "Set"}
OPS = (
    ("define", 4),
    ("remove", 1),
    ("checkpoint", 3),
    ("rollback", 3),
    ("replay", 3),
    ("clear", 1),
    ("fork", 1),
)
#: The base environment and at most three forks.
MAX_ENVS = 4


@contextmanager
def kernel_caches(enabled):
    """Switch every kernel cache layer on or off, restoring on exit."""
    previous = set_kernel_caches(enabled)
    try:
        yield
    finally:
        set_kernel_caches(previous)


def rebuild(term):
    """A structurally equal copy built under the current cache switches."""
    if isinstance(term, Rel):
        return Rel(term.index)
    if isinstance(term, Sort):
        return Sort(term.level)
    if isinstance(term, Const):
        return Const(term.name)
    if isinstance(term, Ind):
        return Ind(term.name)
    if isinstance(term, Constr):
        return Constr(term.ind, term.index)
    if isinstance(term, Lam):
        return Lam(term.name, rebuild(term.domain), rebuild(term.body))
    if isinstance(term, Pi):
        return Pi(term.name, rebuild(term.domain), rebuild(term.codomain))
    if isinstance(term, App):
        return App(rebuild(term.fn), rebuild(term.arg))
    return Elim(
        term.ind,
        rebuild(term.motive),
        tuple(rebuild(case) for case in term.cases),
        rebuild(term.scrut),
    )


# -- Typed source over the user constants -------------------------------------
#
# Values stay small by construction: only ``S`` and ``add _ 1`` grow a
# numeral, function bodies mention no user constants, and the nat
# eliminator's successor case never recurses additively.


class Source:
    """Random well-typed source text; records the user names it uses."""

    def __init__(self, rng, visible):
        self.rng = rng
        #: kind -> user constant names usable at this point.
        self.visible = visible
        self.used = set()

    def _const(self, kind):
        name = self.rng.choice(self.visible[kind])
        self.used.add(name)
        return name

    def nat(self, depth, scope=(), consts=True):
        rng = self.rng
        choices = ["lit"]
        if scope:
            choices.append("var")
        if consts and self.visible["nat"]:
            choices.append("const")
        if depth > 0:
            choices += ["S", "pred", "add1", "elim", "if"]
            if consts and self.visible["fun"]:
                choices.append("call")
        kind = rng.choice(choices)
        sub = depth - 1
        if kind == "lit":
            return str(rng.randrange(3))
        if kind == "var":
            return rng.choice(scope)
        if kind == "const":
            return self._const("nat")
        if kind == "S":
            return f"S ({self.nat(sub, scope, consts)})"
        if kind == "pred":
            return f"pred ({self.nat(sub, scope, consts)})"
        if kind == "add1":
            return f"add ({self.nat(sub, scope, consts)}) {rng.randrange(2)}"
        if kind == "call":
            return f"{self._const('fun')} ({self.nat(sub, scope, consts)})"
        if kind == "if":
            return (
                f"Elim[bool]({self.bool(sub, scope, consts)}; "
                f"fun (_ : bool) => nat){{ {self.nat(sub, scope, consts)}, "
                f"{self.nat(sub, scope, consts)} }}"
            )
        step = rng.choice(["p", "IH", "S p"])
        return (
            f"Elim[nat]({self.nat(sub, scope, consts)}; "
            f"fun (_ : nat) => nat){{ {self.nat(sub, scope, consts)}, "
            f"fun (p : nat) (IH : nat) => {step} }}"
        )

    def bool(self, depth, scope=(), consts=True):
        rng = self.rng
        choices = ["lit"]
        if consts and self.visible["bool"]:
            choices.append("const")
        if depth > 0:
            choices += ["negb", "andb", "orb", "even"]
        kind = rng.choice(choices)
        sub = depth - 1
        if kind == "lit":
            return rng.choice(["true", "false"])
        if kind == "const":
            return self._const("bool")
        if kind == "negb":
            return f"negb ({self.bool(sub, scope, consts)})"
        if kind in ("andb", "orb"):
            return (
                f"{kind} ({self.bool(sub, scope, consts)}) "
                f"({self.bool(sub, scope, consts)})"
            )
        return (
            f"Elim[nat]({self.nat(sub, scope, consts)}; "
            "fun (_ : nat) => bool){ true, "
            "fun (p : nat) (IH : bool) => negb IH }"
        )

    def body(self, kind):
        rng = self.rng
        if kind == "nat":
            return self.nat(2)
        if kind == "bool":
            return self.bool(2)
        if kind == "type":
            if self.visible["type"] and rng.random() < 0.4:
                return self._const("type")
            return rng.choice(["nat", "bool"])
        if self.visible["fun"] and rng.random() < 0.2:
            return self._const("fun")
        if rng.random() < 0.2:
            return rng.choice(["pred", "S", "add 1"])
        var = rng.choice(["x", "y", "n"])
        return f"fun ({var} : nat) => {self.nat(2, (var,), consts=False)}"


# -- The model ----------------------------------------------------------------


class Model:
    """The user declarations an environment should hold.

    ``decls`` lists ``(name, kind, body, type, refs)`` in declaration
    order, with the warm-side terms; ``marks`` pairs each fork kept
    aside with the declarations it holds.
    """

    def __init__(self):
        self.decls = []
        self.marks = []

    def fork(self):
        """The model of a fork: the same declarations and no marks."""
        model = Model()
        model.decls = list(self.decls)
        return model

    def names(self):
        return tuple(d[0] for d in self.decls)

    def visible(self):
        """kind -> names of the declared user constants."""
        out = {kind: [] for kind in TYPES}
        for name, kind, _body, _ty, _refs in self.decls:
            out[kind].append(name)
        return out

    def referenced(self):
        return set().union(*(d[4] for d in self.decls))


class Reference:
    """A cache-free environment replaying the model's declarations."""

    def __init__(self):
        with kernel_caches(False):
            self.base = make_env(lists=False, vectors=False)
        self.env = self.base.fork()
        assert self.base.reduction_cache.size == 0

    def sync(self, decls):
        with kernel_caches(False):
            self.env = self.base.fork()
            for name, _kind, body, ty, _refs in decls:
                self.env.define(name, rebuild(body), rebuild(ty))

    def define(self, name, body, ty):
        with kernel_caches(False):
            return define_verdict(
                self.env,
                name,
                rebuild(body),
                None if ty is None else rebuild(ty),
            )


def define_verdict(env, name, body, ty):
    try:
        decl = env.define(name, body, ty)
    except TermError as exc:
        return ("error", type(exc).__name__), None
    return ("ok", pretty(decl.type)), decl


def verdicts(env, probes, pairs):
    """The infer/nf/conv verdicts (or error classes) of ``probes``."""
    out = []
    typed = []
    for term in probes:
        try:
            ty = infer(env, Context.empty(), term)
        except TermError as exc:
            out.append(("infer", "error", type(exc).__name__))
            continue
        out.append(("infer", pretty(ty)))
        try:
            out.append(("nf", pretty(nf(env, term))))
        except TermError as exc:
            out.append(("nf", "error", type(exc).__name__))
        typed.append(term)
    for i, j in pairs:
        if max(i, j) < len(typed):
            try:
                out.append(("conv", i, j, conv(env, typed[i], typed[j])))
            except TermError as exc:
                out.append(("conv", i, j, "error", type(exc).__name__))
    return out


def probe_terms(rng, env, model):
    """termgen terms, each user constant, and typed terms over them."""
    live = model.names()
    dead = tuple(n for n in NAMES if n not in live)[:2]
    probes = [
        random_term(rng, env, 3, 0, consts=DEFAULT_CONSTS + live + dead)
        for _ in range(3)
    ]
    probes += [Const(name) for name in live]
    source = Source(rng, model.visible())
    for kind in ("nat", "bool"):
        probes.append(parse(env, source.body(kind)))
    for name, kind, *_ in model.decls:
        if kind == "fun":
            probes.append(parse(env, f"{name} {rng.randrange(4)}"))
        elif kind == "type":
            probes.append(parse(env, f"fun (x : {name}) => S x"))
            probes.append(parse(env, f"fun (b : {name}) => negb b"))
    return probes


def first_difference(got, expected):
    if len(got) != len(expected):
        return f"{len(got)} verdicts != {len(expected)}"
    return next(f"{g} != {e}" for g, e in zip(got, expected) if g != e)


def define_checked(warm, model, ref, where, name, kind, body, ty, used):
    """Define on the warm side, compare with the reference, record."""
    ref.sync(model.decls)
    expected, _ = ref.define(name, body, ty)
    got, decl = define_verdict(warm, name, body, ty)
    assert got == expected, f"{where} define {name}: {got} != {expected}"
    if decl is not None:
        model.decls.append((name, kind, decl.body, decl.type, used))


def run_step(rng, envs, index, ref, where):
    """One random mutation of ``envs[index]``; returns a label for
    messages.  ``envs`` lists ``(environment, model)`` pairs; a rollback
    or a replay replaces the pair's environment, and a fork is appended
    to it."""
    warm, model = envs[index]
    op = rng.choices([o for o, _ in OPS], [w for _, w in OPS])[0]
    if op == "replay":
        # Start again from a kept fork that lacks some of the
        # declarations, then declare them again in order, the same
        # terms, or stop at one and give that name another body.
        valid = [
            i
            for i, (_, decls) in enumerate(model.marks)
            if len(decls) < len(model.decls)
            and all(a is b for a, b in zip(decls, model.decls))
        ]
        if not valid:
            return "replay (none)"
        kept, decls = model.marks[rng.choice(valid)]
        dropped = model.decls[len(decls):]
        warm = kept.fork()
        envs[index] = (warm, model)
        model.decls = list(decls)
        changed = rng.randrange(len(dropped) + 1)
        for name, kind, body, ty, used in dropped[:changed]:
            warm.define(name, body, ty)
            model.decls.append((name, kind, body, ty, used))
        if changed == len(dropped):
            return f"replay {len(dropped)}"
        name, kind = dropped[changed][:2]
        source = Source(rng, model.visible())
        body = parse(warm, source.body(kind))
        ty = parse(warm, TYPES[kind]) if rng.random() < 0.5 else None
        define_checked(
            warm, model, ref, where, name, kind, body, ty,
            frozenset(source.used),
        )
        return f"replay {changed}, then {name} with another body"
    if op == "fork":
        if len(envs) >= MAX_ENVS:
            return "fork (full)"
        envs.append((warm.fork(), model.fork()))
        return f"fork -> env {len(envs) - 1}"
    live = model.names()
    if op == "define":
        free = [n for n in NAMES if n not in live]
        if not free:
            op = "remove"
        else:
            name = rng.choice(free)
            kind = rng.choice(list(TYPES))
            source = Source(rng, model.visible())
            body = parse(warm, source.body(kind))
            ty = None
            roll = rng.random()
            if roll < 0.1:
                ty = parse(warm, TYPES[rng.choice(list(TYPES))])
            elif roll < 0.55:
                ty = parse(warm, TYPES[kind])
            define_checked(
                warm, model, ref, where, name, kind, body, ty,
                frozenset(source.used),
            )
            return f"define {name}"
    if op == "remove":
        unused = [n for n in live if n not in model.referenced()]
        if not unused:
            return "remove (none)"
        name = rng.choice(unused)
        warm.remove(name)
        model.decls = [d for d in model.decls if d[0] != name]
        return f"remove {name}"
    if op == "checkpoint":
        model.marks.append((warm.fork(), list(model.decls)))
        return "checkpoint"
    if op == "rollback":
        # Now and then from a fork another environment kept aside.
        foreign = [
            mark
            for other, (_, other_model) in enumerate(envs)
            if other != index
            for mark in other_model.marks
        ]
        if foreign and rng.random() < 0.25:
            kept, decls = rng.choice(foreign)
            label = "rollback to a foreign mark"
        elif model.marks:
            # Biased toward recent marks.
            mark = max(rng.randrange(len(model.marks)) for _ in range(2))
            kept, decls = model.marks[mark]
            label = f"rollback {mark}"
        else:
            return "rollback (none)"
        envs[index] = (kept.fork(), model)
        model.decls = list(decls)
        return label
    warm.reduction_cache.clear()
    return "clear"


@pytest.fixture(scope="module")
def reference():
    return Reference()


@pytest.mark.parametrize("seed", SEEDS)
def test_caches_agree_with_cache_free_reference(seed, reference):
    rng = random.Random(seed)
    with kernel_caches(True):
        base_env = make_env(lists=False, vectors=False)
    assert base_env.reduction_cache.size > 0
    base = base_env.declaration_order()
    envs = [(base_env, Model())]
    for step in range(STEPS):
        index = rng.randrange(len(envs))
        where = f"seed={seed} step={step} env={index}"
        with kernel_caches(True):
            label = run_step(rng, envs, index, reference, where)
            for other, (env, model) in enumerate(envs):
                assert env.declaration_order() == base + model.names(), (
                    f"{where} {label}: env {other}'s declarations drifted "
                    "from its model"
                )
                for mark, (kept, decls) in enumerate(model.marks):
                    names = tuple(d[0] for d in decls)
                    assert kept.declaration_order() == base + names, (
                        f"{where} {label}: env {other}'s mark {mark} "
                        "drifted from its model"
                    )
            warm, model = envs[index]
            probes = probe_terms(rng, warm, model)
            n_pairs = min(len(probes), 6)
            pairs = [
                (rng.randrange(n_pairs), rng.randrange(n_pairs))
                for _ in range(4)
            ]
            got = verdicts(warm, probes, pairs)
        reference.sync(model.decls)
        with kernel_caches(False):
            expected = verdicts(
                reference.env, [rebuild(t) for t in probes], pairs
            )
        assert got == expected, (
            f"{where} {label}: warm caches disagree with the cache-free "
            f"reference: {first_difference(got, expected)}"
        )


# -- Ill-typed mutants against warm caches -------------------------------------

MUTANTS = (("rel-bump", bump_first_rel), ("dropped-branch", drop_first_elim_case))


def infer_verdict(env, term):
    """The inferred type, or the class and message of the refusal."""
    try:
        return ("ok", pretty(infer(env, Context.empty(), term)))
    except TermError as exc:
        return ("error", type(exc).__name__, str(exc))


def test_warm_caches_reject_every_mutant():
    mutants = []
    with kernel_caches(True):
        warm = make_env(lists=False, vectors=False)
        for seed in SEEDS:
            for label, term in fuzz_terms(seed, 100, warm, depth=4):
                infer_verdict(warm, term)
                for kind, mutate in MUTANTS:
                    mutated = mutate(term)
                    if mutated is not None:
                        mutants.append((f"{label} {kind}", mutated))
        got = [infer_verdict(warm, mutated) for _, mutated in mutants]
    with kernel_caches(False):
        cold = make_env(lists=False, vectors=False)
        expected = [infer_verdict(cold, rebuild(m)) for _, m in mutants]
    kinds = {label.rsplit(" ", 1)[1] for label, _ in mutants}
    assert kinds == {kind for kind, _ in MUTANTS}
    for (label, _), verdict, reference in zip(mutants, got, expected):
        assert reference[0] == "error", f"{label}: accepted {reference}"
        assert verdict == reference, f"{label}: {verdict} != {reference}"


# -- Declaration states, case by case ------------------------------------------
#
# Each case makes the same declarations in a caches-on environment and
# in a cache-free one, and the probes must get the same verdicts in both.


def judgements(env, probe, other):
    """``probe``'s infer and nf verdicts and its conversion with
    ``other``, or the error classes."""
    out = []
    for judge in (
        lambda: pretty(infer(env, Context.empty(), probe), env=env),
        lambda: pretty(nf(env, probe), env=env),
        lambda: conv(env, probe, other),
    ):
        try:
            out.append(judge())
        except TermError as exc:
            out.append(type(exc).__name__)
    return out


def visible_entries(env):
    """How many reduction-cache entries ``env`` can see."""
    cache, counter = env.reduction_cache, CacheCounter()
    return sum(cache.get(key, counter) is not ABSENT for key in list(cache._store))


def verdict_misses():
    return {name: KERNEL_STATS.counter(name).misses for name in ("infer", "nf", "conv")}


def against_reference(case):
    """``case``'s verdicts on a caches-on and on a cache-free
    environment, which must agree."""
    with kernel_caches(True):
        got = case(make_env(lists=False, vectors=False))
    with kernel_caches(False):
        expected = case(make_env(lists=False, vectors=False))
    assert got == expected
    return got


def probe_u(env):
    """The judgements of ``S u``, converted with 3."""
    succ = Constr("nat", 1)
    three = App(succ, App(succ, App(succ, Constr("nat", 0))))
    return judgements(env, App(succ, Const("u")), three)


def test_a_name_declared_again_with_another_body_gets_fresh_verdicts():
    def case(env):
        # One fork per declaration, each dropped before the next is
        # made: a warm job's pattern.
        out = []
        for body in ("2", "3", "true"):
            fork = env.fork()
            fork.define("u", parse(fork, body))
            out.append(probe_u(fork))
        return out

    assert against_reference(case) == [
        ["nat", "S (S (S O))", True],
        ["nat", "S (S (S (S O)))", False],
        ["TypeError_", "S true", False],
    ]


def test_forks_share_verdicts_only_for_identical_declarations():
    def case(env):
        forks = [env.fork() for _ in range(3)]
        for fork, body in zip(forks, ("2", "3", "2")):
            fork.define("u", parse(fork, body))
        return [probe_u(fork) for fork in forks]

    assert against_reference(case) == [
        ["nat", "S (S (S O))", True],
        ["nat", "S (S (S (S O)))", False],
        ["nat", "S (S (S O))", True],
    ]
    with kernel_caches(True):
        base = make_env(lists=False, vectors=False)
        first, second = base.fork(), base.fork()
        for fork in (first, second):
            fork.define("u", parse(fork, "2"))
        probe_u(first)
        misses = verdict_misses()
        probe_u(second)
        assert verdict_misses() == misses


def test_a_failed_inductive_leaves_no_verdict_about_it_visible():
    from repro.kernel.inductive import ConstructorDecl, InductiveDecl
    from repro.kernel.term import SET

    def case(env):
        # Checking T.mk's first two argument types stores verdicts that
        # mention T; the third is ill-typed, so T is never declared.
        args = (
            ("x", Ind("T")),
            ("f", Pi("n", Ind("nat"), Ind("T"))),
            ("bad", App(Ind("nat"), Ind("nat"))),
        )
        decl = InductiveDecl(
            name="T",
            params=(),
            indices=(),
            sort=SET,
            constructors=(ConstructorDecl("T.mk", args=args),),
        )
        with pytest.raises(TermError):
            env.declare_inductive(decl)
        assert not env.has_inductive("T")
        return [
            judgements(env, term, Ind("nat"))
            for term in (Ind("T"), Pi("n", Ind("nat"), Ind("T")))
        ]

    assert against_reference(case) == [
        ["EnvError", "T", False],
        ["EnvError", "nat -> T", False],
    ]


def test_nothing_derived_before_a_remove_stays_visible():
    def case(env):
        env.define("u", parse(env, "2"))
        before = probe_u(env)
        env.remove("u")
        return before, visible_entries(env), probe_u(env)

    assert against_reference(case) == (
        ["nat", "S (S (S O))", True],
        0,
        ["EnvError", "EnvError", "EnvError"],
    )


def test_forks_on_threads_converge_and_keep_their_own_verdicts():
    # Server sessions are forks of one base, each on its own thread, so
    # forks share the base's store and trie across threads.  In each
    # round every thread makes one new declaration at once in a fresh
    # fork: they must all land on one state.  Each fork's verdicts about
    # its own declaration must stay its own, while another thread keeps
    # clearing the shared store.
    threads, rounds = 6, 100
    with kernel_caches(True):
        base = make_env(lists=False, vectors=False)
        nat, two = parse(base, "nat"), parse(base, "2")
        values = [parse(base, str(i)) for i in range(threads)]
    tips = [set() for _ in range(rounds)]
    errors = []
    barrier, stop = threading.Barrier(threads), threading.Event()

    def session(i):
        try:
            for r in range(rounds):
                fork = base.fork()
                barrier.wait(timeout=30)
                fork.define(f"u{r}", two, nat)
                tips[r].add(fork.reduction_cache._chain[-1])
                fork.define("v", values[i], nat)
                assert nf(fork, Const("v")) == values[i]
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()

    def sweeper():
        while not stop.is_set():
            base.reduction_cache.clear()

    workers = [
        threading.Thread(target=session, args=(i,)) for i in range(threads)
    ]
    cleaner = threading.Thread(target=sweeper)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with kernel_caches(True):
            for thread in workers + [cleaner]:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
            stop.set()
            cleaner.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in workers + [cleaner])
    assert errors == [], errors[0]
    assert [len(states) for states in tips] == [1] * rounds
