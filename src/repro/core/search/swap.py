"""Search procedure: renaming and permuting constructors (Section 6.1).

Given two inductive families with the same parameters and compatible
constructors up to a bijection, this module

* enumerates the *type-correct* constructor mappings lazily, most
  plausible first (the paper reports discovering "all other 23
  type-correct permutations" for the REPLICA ``Term`` benchmark and
  handling "a large and ambiguous permutation of a 30 constructor Enum" —
  lazy enumeration is what makes the latter feasible),
* builds the :class:`~repro.core.config.Configuration` of Figure 8 for a
  chosen mapping, and
* generates the equivalence of Figure 3 (``swap``, ``swap^-1``,
  ``section``, ``retraction``) — the ``Configure`` component's
  equivalence.ml.  The roundtrip proofs have the fixed shape of
  Section 4.3, so they are built as terms and checked once by the
  kernel; ``tests/test_search_swap.py`` keeps the induct/rewrite/
  reflexivity tactic script as the oracle they must agree with.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ...kernel.context import Context
from ...kernel.env import Environment
from ...kernel.inductive import InductiveDecl, analyze_recursive_args, case_type
from ...kernel.term import (
    Const,
    Constr,
    Elim,
    Ind,
    Lam,
    Rel,
    Term,
    mk_app,
    mk_lams,
    mk_pis,
    replace_subterm,
)
from ...kernel.typecheck import check, typecheck_closed
from ...obs import span
from ..config import AlignedSide, ConfigError, Configuration, Equivalence


def find_constructor_mappings(
    env: Environment, a_name: str, b_name: str
) -> Iterator[Tuple[int, ...]]:
    """Yield type-correct constructor mappings, most plausible first.

    A mapping ``m`` sends dependent-constructor index ``j`` (= the j-th
    constructor of ``A``) to the ``m[j]``-th constructor of ``B``.
    Constructors are grouped by argument-type signature; only
    within-group permutations are type correct.  Within each group,
    name-preserving assignments are tried first, then positional order,
    so the intended mapping is the first one yielded for every variant of
    the REPLICA benchmark (swap, rename, permute, permute + rename).
    """
    a = env.inductive(a_name)
    b = env.inductive(b_name)
    if a.n_params != b.n_params or a.n_constructors != b.n_constructors:
        return
    if [ty for _n, ty in a.params] != [ty for _n, ty in b.params]:
        return
    if a.n_indices or b.n_indices:
        return

    def signature(decl: InductiveDecl, j: int, self_name: str) -> Tuple:
        ctor = decl.constructors[j]
        # Canonicalize recursive occurrences so signatures are comparable
        # across the two families.
        return tuple(
            replace_subterm(ty, Ind(self_name), Ind("<self>"))
            for _n, ty in ctor.args
        )

    groups: Dict[Tuple, Tuple[List[int], List[int]]] = {}
    for j in range(a.n_constructors):
        groups.setdefault(signature(a, j, a_name), ([], []))[0].append(j)
    for j in range(b.n_constructors):
        sig = signature(b, j, b_name)
        if sig not in groups:
            return
        groups[sig][1].append(j)
    if any(len(ja) != len(jb) for ja, jb in groups.values()):
        return

    group_list = list(groups.values())

    def group_assignments(
        a_members: List[int], b_members: List[int]
    ) -> Iterator[Tuple[Tuple[int, int], ...]]:
        # Plausibility order: name-preserving first, then positional.
        def plausibility(perm: Sequence[int]) -> Tuple[int, int]:
            name_mismatches = 0
            moves = 0
            for i, bi in enumerate(perm):
                if (
                    a.constructors[a_members[i]].name
                    != b.constructors[b_members[bi]].name
                ):
                    name_mismatches += 1
                if bi != i:
                    moves += 1
            return (name_mismatches, moves)

        if len(a_members) <= 7:
            perms = sorted(
                itertools.permutations(range(len(a_members))),
                key=plausibility,
            )
            for perm in perms:
                yield tuple(
                    (a_members[i], b_members[perm[i]])
                    for i in range(len(a_members))
                )
        else:
            # Too many to sort eagerly (e.g. a 30-constructor Enum):
            # yield the name-preserving assignment first when it exists,
            # then stream raw permutations lazily.
            by_name = {}
            for bi in b_members:
                by_name.setdefault(b.constructors[bi].name, []).append(bi)
            named: List[Tuple[int, int]] = []
            ok = True
            used = set()
            for ai in a_members:
                candidates = [
                    bi
                    for bi in by_name.get(a.constructors[ai].name, [])
                    if bi not in used
                ]
                if not candidates:
                    ok = False
                    break
                named.append((ai, candidates[0]))
                used.add(candidates[0])
            if ok:
                yield tuple(named)
            for perm in itertools.permutations(range(len(a_members))):
                assignment = tuple(
                    (a_members[i], b_members[perm[i]])
                    for i in range(len(a_members))
                )
                if ok and assignment == tuple(named):
                    continue
                yield assignment

    for combo in _lazy_product(
        [group_assignments(ja, jb) for ja, jb in group_list]
    ):
        mapping = [None] * a.n_constructors
        for pairs in combo:
            for ai, bi in pairs:
                mapping[ai] = bi
        yield tuple(mapping)  # type: ignore


class _Memo:
    """A re-iterable, lazily memoized view of an iterator."""

    def __init__(self, iterator: Iterator) -> None:
        self._iterator = iterator
        self._cache: List = []

    def __iter__(self):
        index = 0
        while True:
            if index < len(self._cache):
                yield self._cache[index]
            else:
                try:
                    item = next(self._iterator)
                except StopIteration:
                    return
                self._cache.append(item)
                yield item
            index += 1


def _lazy_product(iterators: List[Iterator]) -> Iterator[Tuple]:
    """itertools.product that does not exhaust its inputs eagerly.

    The first element of the product is available after pulling only one
    element from each input — essential when a group has 30 constructors
    of the same signature (30! permutations).
    """
    pools = [_Memo(iterator) for iterator in iterators]

    def rec(i: int) -> Iterator[Tuple]:
        if i == len(pools):
            yield ()
            return
        for item in pools[i]:
            for rest in rec(i + 1):
                yield (item,) + rest

    return rec(0)


def swap_configuration(
    env: Environment,
    a_name: str,
    b_name: str,
    mapping: Optional[Sequence[int]] = None,
    prove: bool = True,
) -> Configuration:
    """Build (and prove) the swap/rename configuration of Figure 8.

    Without an explicit ``mapping``, the most plausible type-correct one
    is used (the first option in the list the tool would present).
    """
    with span("configure", a=a_name, b=b_name):
        if mapping is None:
            try:
                mapping = next(
                    iter(find_constructor_mappings(env, a_name, b_name))
                )
            except StopIteration:
                raise ConfigError(
                    f"no type-correct constructor mapping between {a_name!r} "
                    f"and {b_name!r}"
                ) from None
        config = Configuration(
            a=AlignedSide(env, a_name),
            b=AlignedSide(env, b_name, perm=tuple(mapping)),
        )
        if prove:
            config.equivalence = prove_swap_equivalence(
                env, a_name, b_name, mapping
            )
        return config


def build_map_function(
    env: Environment,
    a_name: str,
    b_name: str,
    mapping: Sequence[int],
) -> Term:
    """The function ``swap : Pi params, A -> B`` of Figure 3 (top left).

    Folds over ``A``, rebuilding each constructor with the corresponding
    constructor of ``B`` and the induction hypotheses in recursive
    positions.
    """
    a = env.inductive(a_name)
    np = a.n_params

    def param_vars_at(depth: int) -> Tuple[Term, ...]:
        """Parameter variables under ``depth`` binders beyond the params."""
        return tuple(Rel(depth + np - 1 - m) for m in range(np))

    def b_at(depth: int) -> Term:
        return mk_app(Ind(b_name), param_vars_at(depth))

    def a_at(depth: int) -> Term:
        return mk_app(Ind(a_name), param_vars_at(depth))

    # The eliminator sits under the binders [params..., x], i.e. depth 1.
    motive = Lam("_", a_at(1), b_at(2))
    cases: List[Term] = []
    for j, ctor in enumerate(a.constructors):
        rec = analyze_recursive_args(a, j)
        # Each case binds the constructor args with an IH directly after
        # every recursive arg; the ported value of a recursive arg is its
        # IH, of any other arg the arg itself.
        value_positions: List[int] = []  # bottom-height of ported values
        height = 0
        for i in range(len(ctor.args)):
            if rec[i] is not None:
                value_positions.append(height + 1)
                height += 2
            else:
                value_positions.append(height)
                height += 1
        args_for_b = [Rel(height - 1 - pos) for pos in value_positions]
        body = mk_app(
            Constr(b_name, mapping[j]),
            param_vars_at(1 + height) + tuple(args_for_b),
        )
        # Take precise binder types from the kernel's case-type machinery.
        ct = case_type(a, j, param_vars_at(1), motive)
        binders: List[Tuple[str, Term]] = []
        for _ in range(height):
            binders.append((ct.name, ct.domain))
            ct = ct.codomain
        cases.append(mk_lams(binders, body))

    body = Elim(a_name, motive, tuple(cases), Rel(0))
    return mk_lams(list(a.params) + [("x", a_at(0))], body)


def roundtrip_statement(
    env: Environment, src: str, fwd: Term, bwd: Term
) -> Term:
    """``Pi params (x : src params), eq (src params) (bwd ps (fwd ps x)) x``.

    The section of Figure 3 is the statement for ``(A, f, g)`` and the
    retraction the one for ``(B, g, f)``.
    """
    decl = env.inductive(src)
    np = decl.n_params
    params = tuple(Rel(np - m) for m in range(np))  # under params..., x
    src_ty = mk_app(Ind(src), tuple(Rel(np - 1 - m) for m in range(np)))
    x = Rel(0)
    applied = mk_app(bwd, params + (mk_app(fwd, params + (x,)),))
    return mk_pis(
        list(decl.params) + [("x", src_ty)],
        mk_app(Ind("eq"), (mk_app(Ind(src), params), applied, x)),
    )


def roundtrip_proof(env: Environment, src: str, fwd: Term, bwd: Term) -> Term:
    """The Section 4.3 proof of :func:`roundtrip_statement`, as a term.

    ``fun params x => Elim[src](x; fun x => eq (src ps) (bwd ps (fwd ps
    x)) x) { case_j }``.  Each case binds the constructor's arguments and
    induction hypotheses as :func:`~repro.kernel.inductive.case_type`
    lays them out, and proves ``eq (src ps) (bwd ps (fwd ps (c_j ps
    args))) (c_j ps args)``: the roundtrip of a constructor computes to
    the constructor applied to the roundtrips of its recursive
    arguments, so one ``eq_ind`` per recursive argument ``a`` rewrites
    ``bwd ps (fwd ps a)`` to ``a`` along ``eq_sym`` of its hypothesis,
    and ``eq_refl`` closes the case.  The first recursive argument's
    ``eq_ind`` is outermost and each motive keeps the later roundtrips
    folded, which is the term the induct/rewrite/reflexivity script of
    the paper leaves, up to conversion.  The result is not checked here.
    """
    decl = env.inductive(src)
    np = decl.n_params

    def params_at(depth: int) -> Tuple[Term, ...]:
        """Parameter variables under ``depth`` binders beyond the params."""
        return tuple(Rel(depth + np - 1 - m) for m in range(np))

    def roundtrip(ps: Tuple[Term, ...], arg: Term) -> Term:
        return mk_app(bwd, ps + (mk_app(fwd, ps + (arg,)),))

    def equality(carrier: Term, lhs: Term, rhs: Term) -> Term:
        return mk_app(Ind("eq"), (carrier, lhs, rhs))

    # The eliminator sits under the binders [params..., x], i.e. depth 1.
    motive = Lam(
        "x",
        mk_app(Ind(src), params_at(1)),
        equality(
            mk_app(Ind(src), params_at(2)),
            roundtrip(params_at(2), Rel(0)),
            Rel(0),
        ),
    )
    cases: List[Term] = []
    for j, ctor in enumerate(decl.constructors):
        rec = analyze_recursive_args(decl, j)
        positions: List[int] = []  # bottom-height of each argument binder
        recursive: List[int] = []  # indices of the recursive arguments
        height = 0
        for i in range(len(ctor.args)):
            positions.append(height)
            height += 1
            info = rec[i]
            if info is not None:
                if info.inner_binders:
                    raise ConfigError(
                        f"{src} constructor {ctor.name!r}: a roundtrip "
                        "through a function-typed recursive argument needs "
                        "function extensionality"
                    )
                recursive.append(i)
                height += 1

        rank = {i: k for k, i in enumerate(recursive)}

        def var(pos: int, shift: int) -> Term:
            return Rel(height - 1 - pos + shift)

        def constructed(shift: int, hole: int) -> Term:
            """``c_j ps args`` under ``shift`` extra binders, with the
            recursive arguments before ``hole`` plain, the one at ``hole``
            the innermost binder and those after it roundtripped."""
            ps = params_at(1 + height + shift)
            args: List[Term] = []
            for i, pos in enumerate(positions):
                k = rank.get(i, -1)
                if k < hole:
                    args.append(var(pos, shift))
                elif k == hole:
                    args.append(Rel(0))
                else:
                    args.append(roundtrip(ps, var(pos, shift)))
            return mk_app(Constr(src, j), ps + tuple(args))

        carrier = mk_app(Ind(src), params_at(1 + height))
        target = constructed(0, len(recursive))
        body = mk_app(Constr("eq", 0), (carrier, target))
        for hole in reversed(range(len(recursive))):
            pos = positions[recursive[hole]]
            arg = var(pos, 0)
            ih = var(pos + 1, 0)
            back = roundtrip(params_at(1 + height), arg)
            rewrite_motive = Lam(
                "w",
                carrier,
                equality(
                    mk_app(Ind(src), params_at(2 + height)),
                    constructed(1, hole),
                    constructed(1, len(recursive)),
                ),
            )
            body = mk_app(
                Const("eq_ind"),
                (
                    carrier,
                    arg,
                    rewrite_motive,
                    body,
                    back,
                    mk_app(Const("eq_sym"), (carrier, back, arg, ih)),
                ),
            )
        ct = case_type(decl, j, params_at(1), motive)
        binders: List[Tuple[str, Term]] = []
        for _ in range(height):
            binders.append((ct.name, ct.domain))
            ct = ct.codomain
        cases.append(mk_lams(binders, body))

    x_ty = mk_app(Ind(src), params_at(0))
    return mk_lams(
        list(decl.params) + [("x", x_ty)],
        Elim(src, motive, tuple(cases), Rel(0)),
    )


def prove_swap_equivalence(
    env: Environment,
    a_name: str,
    b_name: str,
    mapping: Sequence[int],
) -> Equivalence:
    """Generate ``f``/``g`` and build ``section``/``retraction``.

    Section 4.3 fixes the shape of both proofs (induct, rewrite along
    each induction hypothesis, finish with reflexivity), so
    :func:`roundtrip_proof` builds them as terms and the kernel checks
    each once against its :func:`roundtrip_statement`.  All of it runs
    inside one ``equivalence`` span.
    """
    with span("equivalence", a=a_name, b=b_name):
        inverse = [0] * len(mapping)
        for j, bj in enumerate(mapping):
            inverse[bj] = j

        f = build_map_function(env, a_name, b_name, mapping)
        g = build_map_function(env, b_name, a_name, inverse)
        typecheck_closed(env, f)
        typecheck_closed(env, g)

        proofs: List[Term] = []
        for src, fwd, bwd in ((a_name, f, g), (b_name, g, f)):
            proof = roundtrip_proof(env, src, fwd, bwd)
            check(
                env,
                Context.empty(),
                proof,
                roundtrip_statement(env, src, fwd, bwd),
            )
            proofs.append(proof)
        return Equivalence(f=f, g=g, section=proofs[0], retraction=proofs[1])
