"""Configuration linter: Figure 8 coherence as diagnostics.

``Configuration.check`` raises on the first violation it finds; this
pass reports *all* of them, as data, without raising:

* parameter / dependent-constructor counts agree across the A and B
  sides (RA201, RA202) and per-constructor arities line up (RA203);
* supplied configuration terms (``type_fn``, ``DepConstr``,
  ``DepElim``, ``Eta``, ``Iota`` — a :class:`TermSide`'s manual
  configuration) are closed and type check (RA204);
* ``Iota`` entries match the constructor count (RA205) and explicit
  iota-mark constants are declared (RA204);
* constructor permutations are genuine permutations (RA208);
* an attached equivalence's ``f``/``g`` type check (RA207) and its
  ``section``/``retraction`` proofs conclude with the roundtrip
  equality of Figure 3, ``g (f x) = x`` and ``f (g x) = x`` up to
  conversion (RA206).

Sides are inspected structurally (``perm``, ``iota_names``,
``type_fn``, ...), so the pass works on any :class:`Side` subclass —
including the ornament and record sides that live with their search
procedures — without importing :mod:`repro.core` at module scope.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..kernel.context import Context
from ..kernel.env import Environment
from ..kernel.term import Term, TermError
from ..kernel.typecheck import infer
from .diagnostics import Diagnostic, Severity
from .scope import check_term

if TYPE_CHECKING:  # pragma: no cover - annotations only, avoids a cycle
    from ..core.config import Configuration, Equivalence


def _error(
    code: str,
    message: str,
    subject: str,
    path: Tuple[str, ...] = (),
) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
        message=message,
        subject=subject,
        path=path,
    )


def _lint_config_term(
    env: Environment,
    term: Term,
    subject: str,
    name: str,
) -> List[Diagnostic]:
    """A configuration term must be closed, well-scoped, and typeable."""
    scoped = check_term(env, term, subject=subject, path=(name,))
    if scoped:
        problems = ", ".join(d.message for d in scoped)
        return [
            _error(
                "RA204",
                f"configuration term {name} is open or malformed: "
                f"{problems}",
                subject,
                (name,),
            )
        ]
    try:
        infer(env, Context.empty(), term)
    except TermError as exc:
        return [
            _error(
                "RA204",
                f"configuration term {name} fails to type check: {exc}",
                subject,
                (name,),
            )
        ]
    return []


def _lint_side(
    env: Environment, label: str, side: object
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    n_constrs = int(getattr(side, "n_constrs", 0))

    perm: Optional[Sequence[int]] = getattr(side, "perm", None)
    if perm is not None and sorted(perm) != list(range(n_constrs)):
        out.append(
            _error(
                "RA208",
                f"{tuple(perm)} is not a permutation of "
                f"0..{n_constrs - 1}",
                label,
                ("perm",),
            )
        )

    iota_names: Optional[Sequence[Optional[str]]] = getattr(
        side, "iota_names", None
    )
    if iota_names is not None:
        if len(iota_names) != n_constrs:
            out.append(
                _error(
                    "RA205",
                    f"{len(iota_names)} iota mark(s) for {n_constrs} "
                    "dependent constructor(s)",
                    label,
                    ("iota_names",),
                )
            )
        for j, name in enumerate(iota_names):
            if name is not None and not env.has_constant(name):
                out.append(
                    _error(
                        "RA204",
                        f"iota mark constant {name!r} is not declared",
                        label,
                        (f"iota_names[{j}]",),
                    )
                )

    type_fn: Optional[Term] = getattr(side, "type_fn", None)
    if type_fn is not None:
        out.extend(_lint_config_term(env, type_fn, label, "type_fn"))
        dep_constr: Sequence[Term] = getattr(side, "dep_constr", ())
        for j, ctor in enumerate(dep_constr):
            out.extend(
                _lint_config_term(env, ctor, label, f"dep_constr[{j}]")
            )
        dep_elim: Optional[Term] = getattr(side, "dep_elim", None)
        if dep_elim is not None:
            out.extend(_lint_config_term(env, dep_elim, label, "dep_elim"))
        iota: Sequence[Optional[Term]] = getattr(side, "iota", ())
        if len(iota) != n_constrs:
            out.append(
                _error(
                    "RA205",
                    f"{len(iota)} iota term(s) for {n_constrs} dependent "
                    "constructor(s)",
                    label,
                    ("iota",),
                )
            )
        for j, term in enumerate(iota):
            if term is not None:
                out.extend(
                    _lint_config_term(env, term, label, f"iota[{j}]")
                )

    eta: Optional[Term] = getattr(side, "eta", None)
    if eta is not None:
        out.extend(_lint_config_term(env, eta, label, "eta"))

    return out


def _lint_equivalence(
    env: Environment, eqv: "Equivalence", subject: str
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for name, fn in (("f", eqv.f), ("g", eqv.g)):
        if check_term(env, fn, subject=subject, path=(name,)):
            out.append(
                _error(
                    "RA207",
                    f"equivalence function {name} is open or references "
                    "undeclared globals",
                    subject,
                    (name,),
                )
            )
            continue
        try:
            infer(env, Context.empty(), fn)
        except TermError as exc:
            out.append(
                _error(
                    "RA207",
                    f"equivalence function {name} fails to type check: "
                    f"{exc}",
                    subject,
                    (name,),
                )
            )
    from ..core.config import roundtrip_mismatch

    for name, proof, fwd, bwd in eqv.roundtrips():
        if proof is None:
            continue
        if check_term(env, proof, subject=subject, path=(name,)):
            out.append(
                _error(
                    "RA206",
                    f"{name} proof is open or references undeclared "
                    "globals",
                    subject,
                    (name,),
                )
            )
            continue
        try:
            ty = infer(env, Context.empty(), proof)
        except TermError as exc:
            out.append(
                _error(
                    "RA206",
                    f"{name} proof fails to type check: {exc}",
                    subject,
                    (name,),
                )
            )
            continue
        problem = roundtrip_mismatch(env, ty, fwd, bwd)
        if problem is not None:
            out.append(
                _error("RA206", f"{name} proof {problem}", subject, (name,))
            )
    return out


def lint_configuration(
    env: Environment, config: "Configuration", subject: str = "configuration"
) -> List[Diagnostic]:
    """Lint one configuration; returns every violation found."""
    out: List[Diagnostic] = []
    a = config.a
    b = config.b
    if a.n_params != b.n_params:
        out.append(
            _error(
                "RA201",
                f"side a has {a.n_params} parameter(s), side b has "
                f"{b.n_params}",
                subject,
            )
        )
    if a.n_constrs != b.n_constrs:
        out.append(
            _error(
                "RA202",
                f"side a has {a.n_constrs} dependent constructor(s), "
                f"side b has {b.n_constrs}",
                subject,
            )
        )
    for j in range(min(a.n_constrs, b.n_constrs)):
        try:
            arity_a = a.constr_arity(j)
            arity_b = b.constr_arity(j)
        except (IndexError, NotImplementedError):
            out.append(
                _error(
                    "RA203",
                    f"dependent constructor {j} has no declared arity on "
                    "one side",
                    subject,
                    (f"constr[{j}]",),
                )
            )
            continue
        if arity_a != arity_b:
            out.append(
                _error(
                    "RA203",
                    f"dependent constructor {j} takes {arity_a} "
                    f"argument(s) on side a but {arity_b} on side b",
                    subject,
                    (f"constr[{j}]",),
                )
            )
    out.extend(_lint_side(env, f"{subject}.a", config.a))
    out.extend(_lint_side(env, f"{subject}.b", config.b))
    if config.equivalence is not None:
        out.extend(_lint_equivalence(env, config.equivalence, subject))
    return out
