"""Search procedure: anonymous tuples to named records (Section 6.4).

The Galois workflow ports compiler-generated nested tuples (Figure 17,
left) to named records (right) and proofs about records back to proofs
about tuples.  The configuration recognizes:

* nested ``pair`` applications against the record's field shape — with
  *eta-expansion* of components that arrive as opaque sub-tuples (the
  ``snd (snd c)`` tail in the paper's ``cork``), exactly the unification
  challenge Section 4.2.1 describes;
* ``fst``/``snd`` projection chains, mapped to named record projections
  (and back);
* record eliminations, mapped to nested dependent ``prod`` eliminations.

Both directions are supported (``Configuration.reversed()``), which is
what lets the proof engineer port ``corkLemma`` about records back to the
original tuples.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ...kernel.context import Context
from ...kernel.env import Environment
from ...kernel.term import (
    App,
    Const,
    Constr,
    Elim,
    Ind,
    Lam,
    Rel,
    Term,
    lift,
    mk_app,
    mk_lams,
    unfold_app,
)
from ...obs import span
from ..config import Configuration, ElimMatch, Equivalence, Side


class TupleSide(Side):
    """The anonymous-tuple side: right-nested binary products."""

    def __init__(
        self,
        env: Environment,
        fields: Sequence[Term],
        alias: Optional[str] = None,
    ) -> None:
        if len(fields) < 2:
            raise ValueError("a tuple needs at least two fields")
        self.env = env
        self.fields = tuple(fields)
        self.alias = alias
        self.n_params = 0
        self.n_constrs = 1

    # -- Shape helpers --------------------------------------------------------

    def rest_type(self, i: int) -> Term:
        """The type of the sub-tuple starting at field ``i``."""
        k = len(self.fields)
        if i == k - 1:
            return self.fields[i]
        return Ind("prod").app(self.fields[i], self.rest_type(i + 1))

    def tuple_type(self) -> Term:
        return self.rest_type(0)

    # -- Construction ----------------------------------------------------------

    def make_type(self, params: Sequence[Term]) -> Term:
        if self.alias is not None:
            return Const(self.alias)
        return self.tuple_type()

    def make_constr(
        self, j: int, params: Sequence[Term], args: Sequence[Term]
    ) -> Term:
        k = len(self.fields)
        if len(args) != k:
            raise ValueError(f"tuple constructor expects {k} components")
        value = args[k - 1]
        for i in reversed(range(k - 1)):
            value = Constr("prod", 0).app(
                self.fields[i], self.rest_type(i + 1), args[i], value
            )
        return value

    def constr_arity(self, j: int) -> int:
        return len(self.fields)

    def make_proj(self, i: int, base: Term) -> Term:
        k = len(self.fields)
        value = base
        for j in range(i):
            value = Const("snd").app(
                self.fields[j], self.rest_type(j + 1), value
            )
        if i < k - 1:
            value = Const("fst").app(
                self.fields[i], self.rest_type(i + 1), value
            )
        return value

    def make_elim(self, match: ElimMatch) -> Term:
        """Nested dependent elimination of the tuple.

        At every level the motive re-packs the components, so the
        conclusion is ``P scrut`` on the nose (no eta needed).
        """
        return _nested_elim(
            self, match.motive, match.cases[0], match.scrut, match.extra_args
        )

    # -- Matching ----------------------------------------------------------------

    # Head-class hints for the fast transformer driver; each mirrors the
    # matcher's own first guard (the tuple type's head is ``Ind("prod")``,
    # an alias is a ``Const``).
    match_type_heads = (Const, Ind)
    match_constr_heads = (Constr,)
    match_proj_heads = (Const,)

    def trigger_globals(self):
        # Tuple types and pairs are headed by the ``prod`` family, and
        # projections by ``fst``/``snd``; an alias adds its constant.
        names = {"prod", "fst", "snd"}
        if self.alias is not None:
            names.add(self.alias)
        return frozenset(names)

    def match_type(self, env: Environment, term: Term):
        if self.alias is not None and term == Const(self.alias):
            return ()
        if term == self.tuple_type():
            return ()
        return None

    def match_constr(self, env: Environment, ctx: Context, term: Term):
        head, args = unfold_app(term)
        if not (
            isinstance(head, Constr)
            and head.ind == "prod"
            and head.index == 0
            and len(args) == 4
        ):
            return None
        if args[0] != self.fields[0] or args[1] != self.rest_type(1):
            return None
        leaves = self._collect(term, 0)
        return (0, (), tuple(leaves))

    def _collect(self, term: Term, level: int) -> List[Term]:
        """Flatten a (partial) nested pair into field components.

        Components that are not literal pairs are eta-expanded with
        projections, which is how ``snd (snd c)`` tails are unified with
        the constructor shape.
        """
        k = len(self.fields)
        if level == k - 1:
            return [term]
        head, args = unfold_app(term)
        if (
            isinstance(head, Constr)
            and head.ind == "prod"
            and head.index == 0
            and len(args) == 4
            and args[0] == self.fields[level]
            and args[1] == self.rest_type(level + 1)
        ):
            return [args[2]] + self._collect(args[3], level + 1)
        # Opaque tail: eta-expand with projections relative to this level.
        leaves = []
        value = term
        for i in range(level, k - 1):
            leaves.append(
                Const("fst").app(self.fields[i], self.rest_type(i + 1), value)
            )
            value = Const("snd").app(
                self.fields[i], self.rest_type(i + 1), value
            )
        leaves.append(value)
        return leaves

    def match_proj(self, env: Environment, ctx: Context, term: Term):
        # Walk a chain of fst/snd from the outside in.
        ops: List[str] = []
        current = term
        while True:
            head, args = unfold_app(current)
            if (
                isinstance(head, Const)
                and head.name in ("fst", "snd")
                and len(args) == 3
            ):
                ops.append(head.name)
                current = args[2]
                continue
            break
        if not ops:
            return None
        ops.reverse()  # innermost first
        # Interpret: snd* then optionally fst, landing on a leaf.
        level = 0
        k = len(self.fields)
        for pos, op in enumerate(ops):
            is_last = pos == len(ops) - 1
            if op == "snd":
                level += 1
                if level > k - 1:
                    return None
                if is_last:
                    if level == k - 1:
                        return (k - 1, current) if self._base_ok(current, term, ops) else None
                    return None  # partial chain: not a leaf
            else:  # fst
                if not is_last or level >= k - 1:
                    return None
                return (level, current) if self._base_ok(current, term, ops) else None
        return None

    def _base_ok(self, base: Term, term: Term, ops: List[str]) -> bool:
        """Check the chain's type annotations against the tuple shape."""
        # Re-walk the original term, verifying the (A, B) arguments at
        # each level match the declared field shape.
        current = term
        expected_level = len([op for op in ops if op == "snd"])
        level = 0
        chain: List[Tuple[str, Term, Term]] = []
        while True:
            head, args = unfold_app(current)
            if (
                isinstance(head, Const)
                and head.name in ("fst", "snd")
                and len(args) == 3
            ):
                chain.append((head.name, args[0], args[1]))
                current = args[2]
                continue
            break
        chain.reverse()
        for i, (op, a_ty, b_ty) in enumerate(chain):
            if a_ty != self.fields[i] or b_ty != self.rest_type(i + 1):
                return False
        return True


def _nested_elim(
    side: TupleSide,
    motive: Term,
    case: Term,
    scrut: Term,
    extra_args: Tuple[Term, ...],
) -> Term:
    """Dependent elimination of a nested tuple with a k-field case.

    Builds ``Elim[prod](scrut; fun p => motive (ctx p)) { fun a r => ... }``
    one level at a time; the innermost body applies ``case`` to all
    collected components, and every motive re-packs the components so each
    level's conclusion lines up definitionally.
    """
    k = len(side.fields)

    def rebuild(components: List[Term], tail: Term, level: int) -> Term:
        """The full tuple from components[0..level-1] and the tail value."""
        value = tail
        for i in reversed(range(level)):
            value = Constr("prod", 0).app(
                side.fields[i], side.rest_type(i + 1), components[i], value
            )
        return value

    def build(
        level: int, scrut_term: Term, components: List[Term], depth: int
    ) -> Term:
        # components: values of fields 0..level-1, in the current context;
        # depth counts binders added below the original context (the
        # outer ``motive`` and ``case`` must be lifted by it).
        if level == k - 1:
            return mk_app(lift(case, depth), components + [scrut_term])
        field_ty = side.fields[level]
        rest_ty = side.rest_type(level + 1)
        # Motive: fun (p : prod field rest) => motive (rebuild comps p).
        lifted_components = [lift(c, 1) for c in components]
        level_motive = Lam(
            "p",
            Ind("prod").app(field_ty, rest_ty),
            App(
                lift(motive, depth + 1),
                rebuild(lifted_components, Rel(0), level),
            ),
        )
        # Case: fun (a : field) (r : rest) => <recurse>.
        inner_components = [lift(c, 2) for c in components] + [Rel(1)]
        inner = build(level + 1, Rel(0), inner_components, depth + 2)
        level_case = Lam("a", field_ty, Lam("r", rest_ty, inner))
        return Elim("prod", level_motive, (level_case,), scrut_term)

    return mk_app(build(0, scrut, [], 0), extra_args)


class RecordSide(Side):
    """The named-record side: a single-constructor inductive."""

    def __init__(self, env: Environment, record_name: str) -> None:
        decl = env.inductive(record_name)
        if decl.n_constructors != 1 or decl.params or decl.indices:
            raise ValueError(f"{record_name!r} is not a record")
        self.env = env
        self.record_name = record_name
        self.decl = decl
        self.field_names = tuple(
            fname for fname, _ in decl.constructors[0].args
        )
        self.field_types = tuple(ty for _f, ty in decl.constructors[0].args)
        self.n_params = 0
        self.n_constrs = 1

    # -- Construction -----------------------------------------------------------

    def make_type(self, params: Sequence[Term]) -> Term:
        return Ind(self.record_name)

    def make_constr(
        self, j: int, params: Sequence[Term], args: Sequence[Term]
    ) -> Term:
        return mk_app(Constr(self.record_name, 0), args)

    def constr_arity(self, j: int) -> int:
        return len(self.field_names)

    def make_proj(self, i: int, base: Term) -> Term:
        return Const(self.field_names[i]).app(base)

    def make_elim(self, match: ElimMatch) -> Term:
        return mk_app(
            Elim(self.record_name, match.motive, match.cases, match.scrut),
            match.extra_args,
        )

    # -- Matching ------------------------------------------------------------------

    match_type_heads = (Ind,)
    match_constr_heads = (Constr,)
    match_proj_heads = (Const,)
    match_elim_heads = (Elim,)

    def trigger_globals(self):
        # Record terms are headed by the record family, projections by
        # the field-name constants.
        return frozenset((self.record_name,)) | frozenset(self.field_names)

    def match_type(self, env: Environment, term: Term):
        if term == Ind(self.record_name):
            return ()
        return None

    def match_constr(self, env: Environment, ctx: Context, term: Term):
        head, args = unfold_app(term)
        if (
            isinstance(head, Constr)
            and head.ind == self.record_name
            and len(args) == len(self.field_names)
        ):
            return (0, (), tuple(args))
        return None

    def match_proj(self, env: Environment, ctx: Context, term: Term):
        head, args = unfold_app(term)
        if (
            isinstance(head, Const)
            and head.name in self.field_names
            and len(args) == 1
        ):
            return (self.field_names.index(head.name), args[0])
        return None

    def match_elim(self, env: Environment, ctx: Context, term: Term):
        head, extra = unfold_app(term)
        if isinstance(head, Elim) and head.ind == self.record_name:
            return ElimMatch(
                params=(),
                motive=head.motive,
                cases=head.cases,
                scrut=head.scrut,
                extra_args=tuple(extra),
            )
        return None


def tuples_records_configuration(
    env: Environment,
    record_name: str,
    tuple_alias: Optional[str] = None,
    prove: bool = True,
) -> Configuration:
    """Configure tuple -> record repair for ``record_name``.

    The tuple shape is derived from the record's declared fields; when
    ``tuple_alias`` names a constant definition of the tuple type, it is
    recognized and replaced as well.
    """
    with span("configure", a=tuple_alias, b=record_name):
        record = RecordSide(env, record_name)
        tup = TupleSide(env, record.field_types, alias=tuple_alias)
        config = Configuration(a=tup, b=record)
        if prove:
            config.equivalence = prove_tuple_record_equivalence(
                env, tup, record
            )
        return config


def prove_tuple_record_equivalence(
    env: Environment, tup: TupleSide, record: RecordSide
) -> Equivalence:
    """Generate and prove the tuple <-> record equivalence.

    The proofs are constructed directly (not via the tactic engine): both
    roundtrips reduce to reflexivity after full destructuring, so the
    section proof is one nested dependent elimination with ``eq_refl`` at
    the leaf, and the retraction is a single record elimination.  This
    keeps configuring wide records (Connection has nine fields) fast.
    """
    from ...kernel.context import Context
    from ...kernel.term import Pi
    from ...kernel.typecheck import check, typecheck_closed

    k = len(tup.fields)
    tuple_ty = tup.tuple_type()
    record_ty = Ind(record.record_name)

    f = Lam(
        "t",
        tuple_ty,
        mk_app(
            Constr(record.record_name, 0),
            [tup.make_proj(i, Rel(0)) for i in range(k)],
        ),
    )
    g = Lam(
        "r",
        record_ty,
        tup.make_constr(
            0, (), [record.make_proj(i, Rel(0)) for i in range(k)]
        ),
    )
    typecheck_closed(env, f)
    typecheck_closed(env, g)

    # section : forall t, g (f t) = t, by one nested elimination whose
    # leaf is reflexivity at the rebuilt tuple.
    section_stmt = Pi(
        "t",
        tuple_ty,
        Ind("eq").app(
            lift(tuple_ty, 1), App(lift(g, 1), App(lift(f, 1), Rel(0))), Rel(0)
        ),
    )
    motive = Lam(
        "p",
        tuple_ty,
        Ind("eq").app(
            lift(tuple_ty, 1),
            App(lift(g, 1), App(lift(f, 1), Rel(0))),
            Rel(0),
        ),
    )
    # Leaf case: fun (f0 : T0) .. (f_{k-1} : T_{k-1}) => eq_refl (rebuild).
    leaf_args = [Rel(k - 1 - i) for i in range(k)]
    leaf = mk_lams(
        [(f"f{i}", tup.fields[i]) for i in range(k)],
        Constr("eq", 0).app(tuple_ty, tup.make_constr(0, (), leaf_args)),
    )
    section_body = _nested_elim(tup, motive, leaf, Rel(0), ())
    section = Lam("t", tuple_ty, section_body)
    check(env, Context.empty(), section, section_stmt)

    # retraction : forall r, f (g r) = r, by one record elimination.
    retraction_stmt = Pi(
        "r",
        record_ty,
        Ind("eq").app(
            record_ty, App(lift(f, 1), App(lift(g, 1), Rel(0))), Rel(0)
        ),
    )
    r_motive = Lam(
        "r",
        record_ty,
        Ind("eq").app(
            record_ty, App(lift(f, 1), App(lift(g, 1), Rel(0))), Rel(0)
        ),
    )
    r_leaf = mk_lams(
        [(f"f{i}", tup.fields[i]) for i in range(k)],
        Constr("eq", 0).app(
            record_ty,
            mk_app(Constr(record.record_name, 0), leaf_args),
        ),
    )
    retraction = Lam(
        "r",
        record_ty,
        Elim(record.record_name, r_motive, (r_leaf,), Rel(0)),
    )
    check(env, Context.empty(), retraction, retraction_stmt)
    return Equivalence(f=f, g=g, section=section, retraction=retraction)
