"""Configurations: ``((DepConstr, DepElim), (Eta, Iota))`` (Section 4.1).

A configuration instantiates the proof term transformation to a specific
equivalence ``A ~= B``.  Each side of the equivalence is described by a
:class:`Side`:

* *construction* methods (``make_type``, ``make_constr``, ``make_elim``,
  ``make_eta``, ``make_iota``) say how to build the side's dependent
  constructors, eliminators, eta, and iota — these are the configuration
  terms of the paper;
* *matching* methods (``match_type``, ``match_constr``, ``match_elim``,
  ``match_iota``) are the side's **unification heuristics**
  (Section 4.2.1): they recognize implicit applications of the
  configuration terms inside real proof terms.  Matching is only required
  on the side being transformed *from*; construct-only sides return
  ``None`` from every matcher, exactly like a manual configuration whose
  unification is left to the engine's fallbacks.

Two concrete sides cover most of the paper's case studies:

* :class:`AlignedSide` — the side is an inductive type whose dependent
  constructors/eliminator are the real ones up to a permutation of
  constructors (swap/rename/permute, Section 6.1, and the "old" side of
  nearly every change);
* :class:`TermSide` — a fully generic side built from closed
  configuration terms (the *manual configuration* of Figure 6 right, used
  for N in Section 6.3 and for factored constructors in Section 3.1.1).

The ornament and tuple/record sides live with their search procedures in
:mod:`repro.core.search`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..kernel.context import Context
from ..kernel.convert import conv
from ..kernel.env import Environment
from ..kernel.reduce import beta_reduce, beta_spine, whnf
from ..kernel.term import (
    Const,
    Constr,
    Elim,
    Ind,
    Lam,
    Rel,
    Term,
    mk_app,
    unfold_app,
    unfold_pis,
)
from ..kernel.typecheck import infer


def _applied(fn: Term, args: Sequence[Term]) -> Term:
    """Apply a configuration term and beta-reduce (Figure 11, step 4).

    The head ``Lam``-spine is contracted by :func:`beta_spine` before
    :func:`beta_reduce` normalizes the rest; beta normal forms are
    unique, so the order does not change the output.
    """
    applied = mk_app(fn, args)
    head, rest = unfold_app(applied)
    if isinstance(head, Lam) and rest:
        body, n = beta_spine(head, rest[::-1])
        applied = mk_app(body, rest[n:])
    return beta_reduce(applied)


class ConfigError(Exception):
    """Raised for malformed configurations."""


@dataclass(frozen=True)
class ElimMatch:
    """A recognized dependent-eliminator application.

    ``params`` are the type-family parameters, ``cases`` are in the
    configuration's *common* case order, and ``extra_args`` are arguments
    applied after the scrutinee (when the motive is a function type).
    """

    params: Tuple[Term, ...]
    motive: Term
    cases: Tuple[Term, ...]
    scrut: Term
    extra_args: Tuple[Term, ...] = ()


class Side:
    """One side of the equivalence: configuration terms plus heuristics.

    A side that overrides a matcher may also declare a *head-class
    hint* — ``match_<rule>_heads``, a tuple of term classes — promising
    the matcher can only succeed when the term's application head is an
    instance of one of them.  The single-pass transformer computes the
    head class once per node and skips hinted matchers that cannot
    fire; a side without hints is always consulted, so hints are purely
    an opt-in dispatch optimization.
    """

    #: number of type-family parameters (shared by both sides)
    n_params: int = 0
    #: number of dependent constructors / eliminator cases (shared)
    n_constrs: int = 0
    #: the side's Eta as a closed term ``Pi params (x : T params), T params``,
    #: or None when eta is definitional (the identity)
    eta: Optional[Term] = None

    # -- Construction -------------------------------------------------------

    def make_type(self, params: Sequence[Term]) -> Term:
        raise NotImplementedError

    def make_constr(
        self, j: int, params: Sequence[Term], args: Sequence[Term]
    ) -> Term:
        raise NotImplementedError

    def make_elim(self, match: ElimMatch) -> Term:
        raise NotImplementedError

    def constr_arity(self, j: int) -> int:
        """Number of (non-parameter) arguments of dependent constructor j."""
        raise NotImplementedError

    def make_iota(self, j: int, args: Sequence[Term]) -> Optional[Term]:
        """Apply the side's Iota for case ``j``; None when definitional."""
        return None

    # -- Unification heuristics (matching) -----------------------------------

    def trigger_globals(self) -> Optional[frozenset]:
        """Global names at least one of which every match mentions.

        A side may promise that none of its matchers (``match_type``,
        ``match_constr``, ``match_proj``, ``match_elim``, ``match_iota``)
        can succeed on a term unless the term references — in the
        :func:`~repro.kernel.term.collect_globals` sense — at least one
        of the returned names.  The single-pass transformer uses this to
        pass whole subtrees through unchanged: a subtree mentioning no
        trigger of any configuration (and no renamed constant) cannot
        match a rule anywhere inside, so it transforms to itself.
        ``None`` (the default) makes no promise and disables that skip.
        """
        return None

    def match_type(
        self, env: Environment, term: Term
    ) -> Optional[Tuple[Term, ...]]:
        """Recognize the type family applied to parameters."""
        return None

    def match_constr(
        self, env: Environment, ctx: Context, term: Term
    ) -> Optional[Tuple[int, Tuple[Term, ...], Tuple[Term, ...]]]:
        """Recognize ``DepConstr(j)`` applied to params and args."""
        return None

    def match_elim(
        self, env: Environment, ctx: Context, term: Term
    ) -> Optional[ElimMatch]:
        """Recognize ``DepElim`` applied to a motive, cases, and scrutinee."""
        return None

    def match_iota(
        self, env: Environment, ctx: Context, term: Term
    ) -> Optional[Tuple[int, Tuple[Term, ...]]]:
        """Recognize an explicit ``Iota(j)`` application."""
        return None

    def match_proj(
        self, env: Environment, ctx: Context, term: Term
    ) -> Optional[Tuple[int, Term]]:
        """Recognize a field projection (a degenerate dependent elimination).

        Projections out of product-like types are eliminations with a
        constant motive selecting one field; recognizing them directly is
        the unification heuristic the tuples<->records search procedure
        needs (Section 6.4).
        """
        return None

    def make_proj(self, i: int, base: Term) -> Term:
        raise NotImplementedError


class AlignedSide(Side):
    """A side whose configuration is an inductive type up to permutation.

    ``perm[j]`` is the declared constructor index corresponding to
    dependent constructor ``j``.  With the identity permutation this is
    the trivial configuration (the usual "old" side); with a permutation
    it is the swap/rename configuration of Figure 8.
    """

    # Every matcher guards on its application head first; declare that
    # as dispatch hints so the fast transformer can skip the calls.
    match_type_heads = (Ind,)
    match_constr_heads = (Constr,)
    match_elim_heads = (Elim,)

    def __init__(self, env: Environment, ind_name: str, perm=None) -> None:
        decl = env.inductive(ind_name)
        self.ind_name = ind_name
        self.decl = decl
        self.n_params = decl.n_params
        self.n_constrs = decl.n_constructors
        self.perm = tuple(perm) if perm is not None else tuple(
            range(decl.n_constructors)
        )
        if sorted(self.perm) != list(range(decl.n_constructors)):
            raise ConfigError(
                f"invalid constructor permutation {self.perm} for {ind_name}"
            )
        self._inv = tuple(
            self.perm.index(c) for c in range(decl.n_constructors)
        )
        self._arities = tuple(
            len(decl.constructors[self.perm[j]].args)
            for j in range(decl.n_constructors)
        )

    # -- Construction -------------------------------------------------------

    def make_type(self, params: Sequence[Term]) -> Term:
        return mk_app(Ind(self.ind_name), params)

    def make_constr(
        self, j: int, params: Sequence[Term], args: Sequence[Term]
    ) -> Term:
        return mk_app(
            Constr(self.ind_name, self.perm[j]), tuple(params) + tuple(args)
        )

    def make_elim(self, match: ElimMatch) -> Term:
        # Cases arrive in common (dependent) order; permute to declaration
        # order for the primitive eliminator.
        decl_cases: List[Term] = [None] * self.n_constrs  # type: ignore
        for j, case in enumerate(match.cases):
            decl_cases[self.perm[j]] = case
        return mk_app(
            Elim(self.ind_name, match.motive, tuple(decl_cases), match.scrut),
            match.extra_args,
        )

    def constr_arity(self, j: int) -> int:
        return self._arities[j]

    # -- Matching -----------------------------------------------------------

    def trigger_globals(self) -> Optional[frozenset]:
        # Every matcher requires an Ind/Constr/Elim head naming the family.
        return frozenset((self.ind_name,))

    def match_type(self, env: Environment, term: Term):
        head, args = unfold_app(term)
        if isinstance(head, Ind) and head.name == self.ind_name:
            if len(args) == self.n_params:
                return tuple(args)
        return None

    def match_constr(self, env: Environment, ctx: Context, term: Term):
        head, args = unfold_app(term)
        if not (isinstance(head, Constr) and head.ind == self.ind_name):
            return None
        j = self._inv[head.index]
        expected = self.n_params + len(self.decl.constructors[head.index].args)
        if len(args) != expected:
            return None
        params = tuple(args[: self.n_params])
        ctor_args = tuple(args[self.n_params :])
        return (j, params, ctor_args)

    def match_elim(self, env: Environment, ctx: Context, term: Term):
        head, extra = unfold_app(term)
        if not (isinstance(head, Elim) and head.ind == self.ind_name):
            return None
        scrut_ty = whnf(env, infer(env, ctx, head.scrut))
        ty_head, ty_args = unfold_app(scrut_ty)
        if not (isinstance(ty_head, Ind) and ty_head.name == self.ind_name):
            return None
        params = tuple(ty_args[: self.n_params])
        # Permute declared cases into the common (dependent) order.
        dep_cases = tuple(head.cases[self.perm[j]] for j in range(self.n_constrs))
        return ElimMatch(
            params=params,
            motive=head.motive,
            cases=dep_cases,
            scrut=head.scrut,
            extra_args=tuple(extra),
        )


class TermSide(Side):
    """A construct-only side built from closed configuration terms.

    This realizes the *manual configuration* workflow (Figure 6, right):
    the proof engineer supplies ``DepConstr``, ``DepElim``, ``Eta`` and
    ``Iota`` as plain terms and the transformation applies them.  Calling
    conventions:

    * ``type_fn``           : ``Pi params, sort``-shaped term (or a bare type)
    * ``dep_constr[j]``     : ``Pi params args_j, T params``
    * ``dep_elim``          : ``Pi params motive cases... (x : T params), ...``
    * ``iota[j]`` (optional): applied as-is to transformed arguments

    Construction beta-reduces the applied configuration terms, which is
    the "reduce" step of Figure 11.
    """

    def __init__(
        self,
        n_params: int,
        type_fn: Term,
        dep_constr: Sequence[Term],
        dep_elim: Term,
        constr_arities: Sequence[int],
        eta: Optional[Term] = None,
        iota: Optional[Sequence[Optional[Term]]] = None,
        match_type_fn=None,
    ) -> None:
        self.n_params = n_params
        self.n_constrs = len(dep_constr)
        self.type_fn = type_fn
        self.dep_constr = tuple(dep_constr)
        self.dep_elim = dep_elim
        self.eta = eta
        self.iota = tuple(iota) if iota is not None else (None,) * self.n_constrs
        self._arities = tuple(constr_arities)
        self._match_type_fn = match_type_fn

    def match_type(self, env: Environment, term: Term):
        if self._match_type_fn is not None:
            return self._match_type_fn(env, term)
        return None

    def make_type(self, params: Sequence[Term]) -> Term:
        return _applied(self.type_fn, params)

    def make_constr(
        self, j: int, params: Sequence[Term], args: Sequence[Term]
    ) -> Term:
        return _applied(self.dep_constr[j], tuple(params) + tuple(args))

    def make_elim(self, match: ElimMatch) -> Term:
        return _applied(
            self.dep_elim,
            tuple(match.params)
            + (match.motive,)
            + tuple(match.cases)
            + (match.scrut,)
            + tuple(match.extra_args),
        )

    def constr_arity(self, j: int) -> int:
        return self._arities[j]

    def make_iota(self, j: int, args: Sequence[Term]) -> Optional[Term]:
        if self.iota[j] is None:
            return None
        return _applied(self.iota[j], args)


class MarkedIotaSide(AlignedSide):
    """An aligned side whose proofs carry *explicit* iota marks.

    Section 6.3 requires a "manual expansion step, turning implicit casts
    in the inductive case into explicit applications of Iota over A".
    This side recognizes those marks: applications of the named constants
    ``iota_names[j]`` are matched as ``Iota(j, A)`` so the transformation
    can replace them with ``Iota(j, B)``.
    """

    match_iota_heads = (Const,)

    def __init__(
        self,
        env: Environment,
        ind_name: str,
        iota_names: Sequence[Optional[str]],
        perm=None,
    ) -> None:
        super().__init__(env, ind_name, perm)
        self.iota_names = tuple(iota_names)

    def trigger_globals(self) -> Optional[frozenset]:
        # The aligned matchers need the family name; the iota matcher
        # needs one of the mark constants.
        return frozenset((self.ind_name,)) | frozenset(
            name for name in self.iota_names if name is not None
        )

    def match_iota(self, env: Environment, ctx: Context, term: Term):
        head, args = unfold_app(term)
        if isinstance(head, Const) and head.name in self.iota_names:
            j = self.iota_names.index(head.name)
            return (j, tuple(args))
        return None

    def make_iota(self, j: int, args: Sequence[Term]) -> Optional[Term]:
        name = self.iota_names[j]
        if name is None:
            return None
        return mk_app(Const(name), args)


@dataclass
class Equivalence:
    """The functions and proofs of Figure 3: ``f``, ``g``, and roundtrips."""

    f: Term
    g: Term
    section: Optional[Term] = None
    retraction: Optional[Term] = None

    def roundtrips(self) -> Tuple[Tuple[str, Optional[Term], Term, Term], ...]:
        """``(label, proof, fwd, bwd)``: the section proves ``g . f = id``,
        the retraction ``f . g = id``."""
        return (
            ("section", self.section, self.f, self.g),
            ("retraction", self.retraction, self.g, self.f),
        )


def roundtrip_mismatch(
    env: Environment, proof_type: Term, fwd: Term, bwd: Term
) -> Optional[str]:
    """Why ``proof_type`` does not state the roundtrip ``bwd . fwd = id``.

    The statement must read ``forall ps x, eq _ (bwd ps (fwd ps x)) x``,
    where ``ps`` are the binders before ``x``, with the left side up to
    conversion.  Returns ``None`` when it does, else the reason, phrased
    to follow "<label> proof".
    """
    binders, conclusion = unfold_pis(proof_type)
    head, args = unfold_app(conclusion)
    if not (isinstance(head, Ind) and head.name == "eq" and len(args) == 3):
        return "does not conclude with an equality"
    if not binders or args[2] != Rel(0):
        return "does not conclude at the roundtrip argument itself"
    ps = tuple(Rel(len(binders) - 1 - m) for m in range(len(binders) - 1))
    roundtrip = mk_app(bwd, ps + (mk_app(fwd, ps + (Rel(0),)),))
    if not conv(env, args[1], roundtrip):
        return "does not equate the roundtrip with the argument"
    return None


@dataclass
class Configuration:
    """A configuration of the transformation for ``A ~= B``."""

    a: Side
    b: Side
    equivalence: Optional[Equivalence] = None
    #: mapping of repaired dependency constants, applied to Const heads
    const_map: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.a.n_params != self.b.n_params:
            raise ConfigError("sides disagree on the number of parameters")
        if self.a.n_constrs != self.b.n_constrs:
            raise ConfigError(
                "sides disagree on the number of dependent constructors"
            )

    def check(self, env: Environment) -> None:
        """Check the configuration's correctness criteria (Figure 12).

        Verifies what is checkable without a univalent metatheory, in the
        paper's spirit ("the proof engineer does not need to prove these
        in order to use Pumpkin Pi; the correctness criteria simply need
        to hold"):

        * the sides agree on parameter and constructor counts and on the
          per-constructor arities;
        * when an equivalence is attached, ``f``/``g`` and the
          ``section``/``retraction`` proofs type check and the roundtrip
          statements have the expected shapes (an ``eq`` whose sides are
          the roundtrip and the identity, see
          :func:`roundtrip_mismatch`).
        """
        for j in range(self.a.n_constrs):
            if self.a.constr_arity(j) != self.b.constr_arity(j):
                raise ConfigError(
                    f"dependent constructor {j} has different arities on "
                    "the two sides"
                )
        if self.equivalence is None:
            return
        eqv = self.equivalence
        infer(env, Context.empty(), eqv.f)
        infer(env, Context.empty(), eqv.g)
        for label, proof, fwd, bwd in eqv.roundtrips():
            if proof is None:
                continue
            ty = infer(env, Context.empty(), proof)
            problem = roundtrip_mismatch(env, ty, fwd, bwd)
            if problem is not None:
                raise ConfigError(f"{label} proof {problem}")

    def reversed(self) -> "Configuration":
        """The configuration for the opposite direction ``B ~= A``."""
        equivalence = None
        if self.equivalence is not None:
            equivalence = Equivalence(
                f=self.equivalence.g,
                g=self.equivalence.f,
                section=self.equivalence.retraction,
                retraction=self.equivalence.section,
            )
        return Configuration(
            a=self.b,
            b=self.a,
            equivalence=equivalence,
            const_map={v: k for k, v in self.const_map.items()},
        )
