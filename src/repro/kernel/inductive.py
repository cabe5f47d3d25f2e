"""Inductive type declarations and eliminator machinery.

An inductive family is declared with a telescope of parameters, a telescope
of indices, a result sort, and a list of constructors.  From a declaration
we derive:

* the closed type of the family and of each constructor,
* the type of each case of the primitive eliminator (``case_type``),
* the iota-reduction of an eliminator applied to a constructor value
  (``iota_reduce_args``), and
* a strict-positivity check (non-nested, uniform parameters).

Constructor argument types are stored under the context
``[params..., previous args...]`` and the result indices under
``[params..., all args...]``, both as de Bruijn terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import term as _term
from .stats import KERNEL_STATS
from .term import (
    App,
    Constr,
    Elim,
    Ind,
    Lam,
    Pi,
    Rel,
    Sort,
    Term,
    TermError,
    lift,
    mk_app,
    mk_lams,
    mk_pis,
    subst,
    unfold_app,
    unfold_pis,
)


class InductiveError(TermError):
    """Raised for malformed inductive declarations or eliminations."""


Telescope = Tuple[Tuple[str, Term], ...]


@dataclass(frozen=True)
class ConstructorDecl:
    """One constructor of an inductive family.

    ``args`` is a telescope under ``[params..., previous args...]``;
    ``result_indices`` are the index values of the constructed term, under
    ``[params..., all args...]``.
    """

    name: str
    args: Telescope
    result_indices: Tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "result_indices", tuple(self.result_indices))


@dataclass(frozen=True)
class InductiveDecl:
    """A declared inductive family.

    ``case_types`` memoizes :func:`case_type` for this declaration; it
    lives on the declaration, so it dies with the environment that
    holds it (every environment build makes fresh declarations).
    """

    name: str
    params: Telescope
    indices: Telescope
    sort: Sort
    constructors: Tuple[ConstructorDecl, ...]
    case_types: Dict[tuple, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "indices", tuple(self.indices))
        object.__setattr__(self, "constructors", tuple(self.constructors))

    @property
    def n_params(self) -> int:
        return len(self.params)

    @property
    def n_indices(self) -> int:
        return len(self.indices)

    @property
    def n_constructors(self) -> int:
        return len(self.constructors)

    def constructor_index(self, name: str) -> int:
        """Return the 0-based index of the constructor called ``name``."""
        for i, ctor in enumerate(self.constructors):
            if ctor.name == name:
                return i
        raise InductiveError(f"{self.name} has no constructor {name!r}")

    # -- Closed types -------------------------------------------------------

    def arity(self) -> Term:
        """Closed type of the family: ``Pi params indices, sort``."""
        return mk_pis(tuple(self.params) + tuple(self.indices), self.sort)

    def constructor_type(self, j: int) -> Term:
        """Closed type of constructor ``j``.

        ``Pi params args, Ind params result_indices``.
        """
        ctor = self.constructors[j]
        n_binders = self.n_params + len(ctor.args)
        param_vars = [
            Rel(n_binders - 1 - i) for i in range(self.n_params)
        ]
        head = mk_app(
            Ind(self.name), tuple(param_vars) + tuple(ctor.result_indices)
        )
        return mk_pis(tuple(self.params) + tuple(ctor.args), head)


# ---------------------------------------------------------------------------
# Instantiation helpers
# ---------------------------------------------------------------------------


def instantiate_telescope(tele: Telescope, values: Sequence[Term]) -> Telescope:
    """Substitute ``values`` for the first ``len(values)`` telescope binders.

    Each value is in the ambient context; telescope types are under the
    previous binders.  After substituting a value for the first binder, the
    i-th remaining type (which was under ``1 + i`` binders) is substituted
    at index ``i`` (the subst primitive lifts the value as needed).
    """
    remaining = list(tele)
    for value in values:
        if not remaining:
            raise InductiveError("too many arguments for telescope")
        remaining.pop(0)
        remaining = [
            (name, subst(ty, value, i)) for i, (name, ty) in enumerate(remaining)
        ]
    return tuple(remaining)


_instantiate_prefix = instantiate_telescope


def constructor_args_and_indices(
    decl: InductiveDecl, j: int, params: Sequence[Term]
) -> Tuple[Telescope, Tuple[Term, ...]]:
    """Instantiate constructor ``j`` with parameter values ``params``.

    Returns ``(args, indices)`` where ``args`` is the argument telescope in
    the ambient context (parameters substituted away) and ``indices`` are
    the result indices under the argument binders.
    """
    if len(params) != decl.n_params:
        raise InductiveError(
            f"{decl.name}: expected {decl.n_params} parameters, got {len(params)}"
        )
    ctor = decl.constructors[j]
    args = _instantiate_prefix(
        tuple(decl.params) + tuple(ctor.args), params
    )
    n_args = len(ctor.args)
    n_params = decl.n_params
    indices = []
    for idx in ctor.result_indices:
        # idx is under [params..., args...]; the m-th param sits at index
        # ``n_args + n_params - 1 - m``.  Substitute outermost-first: the
        # ``subst`` primitive lifts each ambient value across the binders
        # below its index, and removing an outer binder leaves the
        # indices of the inner ones unchanged.
        inst = idx
        for m, value in enumerate(params):
            inst = subst(inst, value, n_args + n_params - 1 - m)
        indices.append(inst)
    return args, tuple(indices)


@dataclass(frozen=True)
class RecArgInfo:
    """Description of one recursive occurrence in a constructor argument.

    ``position`` is the index of the argument within the constructor's
    telescope.  ``inner_binders`` is the number of Pi binders wrapping the
    recursive occurrence (0 for a plain recursive argument).  ``indices``
    are the index values at the occurrence, under the argument telescope
    plus the inner binders.
    """

    position: int
    inner_binders: int
    indices: Tuple[Term, ...]


def analyze_recursive_args(
    decl: InductiveDecl, j: int
) -> Tuple[Optional[RecArgInfo], ...]:
    """For each argument of constructor ``j``: recursion info or None.

    An argument is recursive when its type is ``Pi Delta, Ind(name) ...``
    for the inductive being declared.  The parameters of the occurrence
    must be the declared parameter variables (uniformity); this is checked
    by :func:`check_positivity`, not here.
    """
    ctor = decl.constructors[j]
    infos: List[Optional[RecArgInfo]] = []
    for position, (_name, arg_ty) in enumerate(ctor.args):
        inner, body = unfold_pis(arg_ty)
        head, head_args = unfold_app(body)
        if isinstance(head, Ind) and head.name == decl.name:
            indices = head_args[decl.n_params :]
            infos.append(
                RecArgInfo(
                    position=position,
                    inner_binders=len(inner),
                    indices=tuple(indices),
                )
            )
        else:
            infos.append(None)
    return tuple(infos)


def check_positivity(decl: InductiveDecl) -> None:
    """Check strict positivity (non-nested, uniform parameters).

    Every constructor argument type must either not mention the inductive,
    or have the shape ``Pi Delta, Ind(name) p... i...`` where ``Delta`` does
    not mention the inductive and the parameters ``p...`` are exactly the
    declared parameter variables.
    """
    from .term import mentions_global

    for j, ctor in enumerate(decl.constructors):
        for position, (arg_name, arg_ty) in enumerate(ctor.args):
            if not mentions_global(arg_ty, decl.name):
                continue
            inner, body = unfold_pis(arg_ty)
            for _n, dom in inner:
                if mentions_global(dom, decl.name):
                    raise InductiveError(
                        f"{decl.name}.{ctor.name}: argument {arg_name!r} is "
                        "not strictly positive (recursive occurrence to the "
                        "left of an arrow)"
                    )
            head, head_args = unfold_app(body)
            if not (isinstance(head, Ind) and head.name == decl.name):
                raise InductiveError(
                    f"{decl.name}.{ctor.name}: nested occurrence of the "
                    f"inductive in argument {arg_name!r} is unsupported"
                )
            if any(
                mentions_global(a, decl.name) for a in head_args
            ):
                raise InductiveError(
                    f"{decl.name}.{ctor.name}: recursive occurrence applied "
                    "to itself"
                )
            # Uniform parameters: under [params..., prev args..., Delta...],
            # the m-th parameter variable has index
            # inner + position + (n_params - 1 - m).
            depth = len(inner) + position
            for m in range(decl.n_params):
                expected = Rel(depth + decl.n_params - 1 - m)
                if m >= len(head_args) or head_args[m] != expected:
                    raise InductiveError(
                        f"{decl.name}.{ctor.name}: non-uniform parameter "
                        f"in recursive occurrence of argument {arg_name!r}"
                    )


# ---------------------------------------------------------------------------
# Renaming helper for interleaved IH binders
# ---------------------------------------------------------------------------


def apply_rel_renaming(term: Term, ren: Sequence[int], n_new: int) -> Term:
    """Rename de Bruijn variables according to ``ren``.

    Old ``Rel(k)`` for ``k < len(ren)`` becomes ``Rel(ren[k])``; old
    ``Rel(k)`` for ``k >= len(ren)`` becomes ``Rel(k - len(ren) + n_new)``.
    """
    return _rename(term, tuple(ren), n_new, 0)


def _rename(term: Term, ren: Tuple[int, ...], n_new: int, cutoff: int) -> Term:
    if isinstance(term, Rel):
        if term.index < cutoff:
            return term
        k = term.index - cutoff
        if k < len(ren):
            return Rel(ren[k] + cutoff)
        return Rel(k - len(ren) + n_new + cutoff)
    from .term import Const

    if isinstance(term, (Sort, Const, Ind, Constr)):
        return term
    if isinstance(term, App):
        return App(
            _rename(term.fn, ren, n_new, cutoff),
            _rename(term.arg, ren, n_new, cutoff),
        )
    if isinstance(term, Lam):
        return Lam(
            term.name,
            _rename(term.domain, ren, n_new, cutoff),
            _rename(term.body, ren, n_new, cutoff + 1),
        )
    if isinstance(term, Pi):
        return Pi(
            term.name,
            _rename(term.domain, ren, n_new, cutoff),
            _rename(term.codomain, ren, n_new, cutoff + 1),
        )
    if isinstance(term, Elim):
        return Elim(
            term.ind,
            _rename(term.motive, ren, n_new, cutoff),
            tuple(_rename(c, ren, n_new, cutoff) for c in term.cases),
            _rename(term.scrut, ren, n_new, cutoff),
        )
    raise InductiveError(f"rename: unknown term {term!r}")


# ---------------------------------------------------------------------------
# Case types (the types of eliminator branches)
# ---------------------------------------------------------------------------


_CASE_TYPE_MEMO_MAX = 1 << 18
_CASE_TYPE_COUNTER = KERNEL_STATS.counter("case_type")


def case_type(
    decl: InductiveDecl, j: int, params: Sequence[Term], motive: Term
) -> Term:
    """The type of the ``j``-th case of ``Elim`` at ``params`` and ``motive``.

    ``params`` and ``motive`` live in the ambient context.  The case type
    binds the constructor arguments in order, with an induction-hypothesis
    binder inserted immediately after each recursive argument, and
    concludes ``motive result_indices (Constr j params args)``.

    The result is a pure function of the (immutable) declaration, the
    parameters, and the motive, so it is memoized on the declaration;
    the type checker asks for the same case types over and over while
    checking eliminations.
    """
    if _term._caches_enabled:
        # Keyed by identity, with the referents pinned in the value, so
        # a hit can never swap in binder names from an equal-but-
        # differently-named motive or parameter.
        memo = decl.case_types
        key = (j, tuple(id(p) for p in params), id(motive))
        entry = memo.get(key)
        if entry is not None:
            _CASE_TYPE_COUNTER.hits += 1
            return entry[-1]
        _CASE_TYPE_COUNTER.misses += 1
        result = _case_type(decl, j, params, motive)
        if len(memo) >= _CASE_TYPE_MEMO_MAX:
            memo.clear()
        memo[key] = (tuple(params), motive, result)
        return result
    return _case_type(decl, j, params, motive)


def _case_type(
    decl: InductiveDecl, j: int, params: Sequence[Term], motive: Term
) -> Term:
    args, result_indices = constructor_args_and_indices(decl, j, params)
    rec_infos = analyze_recursive_args(decl, j)
    n_args = len(args)

    binders: List[Tuple[str, Term]] = []
    heights: List[int] = []  # bottom-height of each constructor arg binder
    height = 0

    for i, (arg_name, arg_ty) in enumerate(args):
        # arg_ty is under the ambient context + previous constructor args
        # (i of them); rename into the interleaved context (height binders).
        ren = [height - 1 - heights[i - 1 - m] for m in range(i)]
        arg_ty_new = apply_rel_renaming(arg_ty, ren, height)
        binders.append((arg_name, arg_ty_new))
        heights.append(height)
        height += 1

        info = rec_infos[i]
        if info is not None:
            ih_ty = _ih_type(decl, motive, arg_ty_new, height)
            binders.append((f"IH{arg_name}", ih_ty))
            height += 1

    # Conclusion: motive (renamed result indices) (Constr j params argvars).
    ren = [height - 1 - heights[n_args - 1 - m] for m in range(n_args)]
    concl_indices = [
        apply_rel_renaming(idx, ren, height) for idx in result_indices
    ]
    arg_vars = [Rel(height - 1 - heights[i]) for i in range(n_args)]
    lifted_params = [lift(p, height) for p in params]
    value = mk_app(Constr(decl.name, j), tuple(lifted_params) + tuple(arg_vars))
    conclusion = mk_app(
        lift(motive, height), tuple(concl_indices) + (value,)
    )
    return mk_pis(binders, conclusion)


def _ih_type(
    decl: InductiveDecl, motive: Term, arg_ty_new: Term, height: int
) -> Term:
    """Type of the IH binder for a recursive argument.

    ``arg_ty_new`` is the argument's type in the interleaved context just
    *before* the argument binder was pushed; ``height`` is the number of
    binders pushed so far (including the argument binder itself).  The IH
    binder sits directly after the argument, so the argument is ``Rel(0)``
    at the IH position.
    """
    # Read the argument type under the argument binder itself.
    ty = lift(arg_ty_new, 1)
    inner, body = unfold_pis(ty)
    d = len(inner)
    _head, head_args = unfold_app(body)
    occ_indices = head_args[decl.n_params :]
    arg_var = Rel(d)  # the recursive argument, under the inner binders
    applied = mk_app(arg_var, tuple(Rel(d - 1 - k) for k in range(d)))
    motive_lifted = lift(motive, height + d)
    return mk_pis(inner, mk_app(motive_lifted, tuple(occ_indices) + (applied,)))


# ---------------------------------------------------------------------------
# Iota reduction
# ---------------------------------------------------------------------------


def iota_reduce(
    decl: InductiveDecl,
    motive: Term,
    cases: Sequence[Term],
    j: int,
    params: Sequence[Term],
    ctor_args: Sequence[Term],
) -> Term:
    """Reduce ``Elim(Constr(j) params ctor_args, motive){cases}``.

    Returns ``cases[j]`` applied to the constructor arguments with the
    recursive calls (induction hypotheses) interleaved, *unreduced* (the
    caller's normalizer will continue).
    """
    ctor = decl.constructors[j]
    if len(ctor_args) != len(ctor.args):
        raise InductiveError(
            f"iota: {decl.name} constructor {j} expects {len(ctor.args)} "
            f"arguments, got {len(ctor_args)}"
        )
    rec_infos = analyze_recursive_args(decl, j)
    inst_arg_types = instantiate_arg_types(decl, j, params, ctor_args)

    applied: List[Term] = []
    for i, value in enumerate(ctor_args):
        applied.append(value)
        info = rec_infos[i]
        if info is None:
            continue
        if info.inner_binders == 0:
            applied.append(Elim(decl.name, motive, tuple(cases), value))
        else:
            # Functional recursive argument: eta-expand the IH.  The
            # argument's type (with parameters and previous argument values
            # substituted in) gives the inner telescope.
            arg_ty = inst_arg_types[i]
            inner, _body = unfold_pis(arg_ty)
            d = len(inner)
            applied_arg = mk_app(
                lift(value, d), tuple(Rel(d - 1 - k) for k in range(d))
            )
            ih = mk_lams(
                inner,
                Elim(
                    decl.name,
                    lift(motive, d),
                    tuple(lift(c, d) for c in cases),
                    applied_arg,
                ),
            )
            applied.append(ih)
    return mk_app(cases[j], applied)


def instantiate_arg_types(
    decl: InductiveDecl, j: int, params: Sequence[Term], values: Sequence[Term]
) -> Tuple[Term, ...]:
    """Types of constructor ``j``'s arguments at concrete ``values``.

    Returns, for each argument position, its type in the ambient context
    with parameters and all previous argument values substituted in.
    """
    args_tele, _ = constructor_args_and_indices(decl, j, params)
    out: List[Term] = []
    remaining = list(args_tele)
    consumed: List[Term] = []
    for value in values:
        if not remaining:
            break
        name, ty = remaining.pop(0)
        out.append(ty)
        remaining = [
            (n, subst(t, value, i)) for i, (n, t) in enumerate(remaining)
        ]
        consumed.append(value)
    return tuple(out)
