"""The configurable proof term transformation (Figure 10).

:class:`Transformer` ports a term defined over ``A`` to a term defined
over ``B``, given a :class:`~repro.core.config.Configuration`.  The rules
of Figure 10 appear here directly:

* **Dep-Constr** — an application of ``DepConstr(j, A)`` (recognized by
  the A side's unification heuristic) becomes ``DepConstr(j, B)`` applied
  to the recursively transformed arguments;
* **Dep-Elim** — likewise for dependent eliminators;
* **Eta**/**Iota** — likewise for the equality configuration terms;
* **Equivalence** — the type ``A`` applied to parameters becomes ``B``;
* the remaining rules are structural recursion.

Before constructing the output, every component is transformed
recursively, and the final result is beta/iota-reduced without delta
(step 4 of Figure 11), which contracts the applied configuration terms.
Transformed subterms are cached (Section 4.4).

The pass is a single memoized bottom-up sweep over the hash-consed
arena: an explicit-stack post-order driver whose depth is heap-bounded,
which consults the :class:`~repro.core.caching.TransformCache` exactly
once per (term, pruned-context) pair, skips unification heuristics whose
head-class hints rule them out, fuses the binder eta-expansion walk into
the pass via :func:`~repro.kernel.term._transform_rels` (a process-wide
per-node memo, no Python-stack recursion), and reuses untouched subtrees
by object identity so downstream kernel caches stay hot.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..kernel import term as _term
from ..kernel.context import Context
from ..kernel.env import Environment
from ..kernel.reduce import beta_reduce, nf
from ..kernel.stats import KERNEL_STATS
from ..obs import span, term_depth, term_size, tracing_enabled
from ..kernel.term import (
    App,
    Const,
    Constr,
    Elim,
    Ind,
    Lam,
    Pi,
    Rel,
    Sort,
    Term,
    TermError,
    _transform_rels,
    collect_globals,
    lift,
    max_free_rel,
    mk_app,
    register_term_cache,
)
from ..analysis.gate import rule_gate
from .caching import TransformCache
from .config import Configuration, ElimMatch, Side


class TransformError(TermError):
    """Raised when a term cannot be ported across the equivalence."""


_ETA_COUNTER = KERNEL_STATS.counter("eta_expand")
#: Fused binder eta-expansion, per node, shared by every transformer:
#: ``(id(node), ids of (eta, *params), cut)`` -> pinned referents and
#: the result (see :meth:`Transformer._eta_expand_binder`).
_ETA_MEMO: Dict[tuple, tuple] = register_term_cache({})

_VISIT, _BUILD = 0, 1

#: The Figure 10 rules of one configuration, in application order.  Each
#: entry names the matcher method and the optional head-class hint
#: attribute a :class:`~repro.core.config.Side` may declare; matchers a
#: side does not override are dropped from its plan entirely.
_RULE_METHODS = (
    ("match_iota", "match_iota_heads"),
    ("match_constr", "match_constr_heads"),
    ("match_proj", "match_proj_heads"),
    ("match_elim", "match_elim_heads"),
    ("match_type", "match_type_heads"),
)


class _RulePlan:
    """Pre-resolved matchers of one configuration's A side.

    Resolving ``getattr`` chains and default-matcher checks once per
    transformer (instead of five times per node) is part of the hot-path
    rewrite: a matcher the side's class does not override can only
    return ``None`` (the :class:`Side` defaults), so it is dropped here,
    and a declared head-class hint lets the driver skip the call when
    the term's application head cannot possibly match.
    """

    __slots__ = (
        "config",
        "iota",
        "iota_heads",
        "constr",
        "constr_heads",
        "proj",
        "proj_heads",
        "elim",
        "elim_heads",
        "type",
        "type_heads",
    )

    def __init__(self, config: Configuration) -> None:
        self.config = config
        a = config.a
        cls = type(a)
        for (method, heads_attr), slot in zip(
            _RULE_METHODS, ("iota", "constr", "proj", "elim", "type")
        ):
            if getattr(cls, method) is getattr(Side, method):
                setattr(self, slot, None)
                setattr(self, slot + "_heads", None)
            else:
                setattr(self, slot, getattr(a, method))
                heads = getattr(a, heads_attr, None)
                setattr(
                    self,
                    slot + "_heads",
                    tuple(heads) if heads is not None else None,
                )


class Transformer:
    """Applies the Figure 10 transformation for a fixed configuration.

    ``config`` may also be a sequence of configurations, in which case
    their rules are tried in order at every subterm — the "multiple
    equivalences" extension the paper's Section 8 sketches.  With one
    configuration per nested type (e.g. Handshake and Connection in the
    Galois case study) a whole stack of changes ports in a single pass.
    """

    def __init__(
        self,
        env: Environment,
        config,
        cache: Optional[TransformCache] = None,
        reduce_output: bool = True,
    ) -> None:
        self.env = env
        if isinstance(config, Configuration):
            self.configs = (config,)
        else:
            self.configs = tuple(config)
            if not self.configs:
                raise TransformError("need at least one configuration")
        self.config = self.configs[0]
        self.cache = cache if cache is not None else TransformCache()
        self.reduce_output = reduce_output
        self._const_map: Dict[str, str] = {}
        for configuration in self.configs:
            self._const_map.update(configuration.const_map)
        self._rule_plans = tuple(_RulePlan(c) for c in self.configs)
        # Per-head-class rule lists, computed lazily: only the matchers
        # whose head hints admit the class, in configuration-then-rule
        # order.  Most head classes end up with an empty tuple, letting
        # the driver skip the rule loop entirely.
        self._head_rules: Dict[type, tuple] = {}
        # Trigger-global prune set: a subtree mentioning none of these
        # names can match no rule anywhere inside (every side promised
        # so via trigger_globals), renames no constant, and eta-expands
        # no binder, so it transforms to itself.  None disables the
        # skip (some side made no promise).
        names: Optional[set] = set()
        for configuration in self.configs:
            for side in (configuration.a, configuration.b):
                if side is configuration.b and side.eta is None:
                    # A B side without an Eta never matches during the
                    # pass (its matchers are only consulted for binder
                    # eta-expansion), so it cannot block the skip.
                    continue
                triggers = side.trigger_globals()
                if triggers is None:
                    names = None
                    break
                names.update(triggers)
            if names is None:
                break
        if names is not None:
            names.update(self._const_map)
        self._skip_names: Optional[frozenset] = (
            frozenset(names) if names is not None else None
        )

    # -- Public API -----------------------------------------------------------

    def __call__(self, term: Term) -> Term:
        """Transform a closed term and reduce the result."""
        with span("transform") as sp:
            hits0, misses0 = self.cache.hits, self.cache.misses
            if tracing_enabled():
                sp.gauge("term_size_in", term_size(term))
                sp.gauge("term_depth_in", term_depth(term))
            result = self.transform(term, Context.empty())
            if self.reduce_output:
                with span("reduce"):
                    result = nf(self.env, result, delta=False)
            if tracing_enabled():
                sp.gauge("term_size_out", term_size(result))
                sp.gauge("term_depth_out", term_depth(result))
                lookups = (self.cache.hits - hits0) + (
                    self.cache.misses - misses0
                )
                if lookups:
                    sp.gauge(
                        "transform_cache_hit_rate",
                        round((self.cache.hits - hits0) / lookups, 4),
                    )
        return result

    # -- The transformation -----------------------------------------------------

    def transform(self, term: Term, ctx: Context) -> Term:
        """One memoized post-order pass; transform depth is heap-bounded.

        ``_VISIT`` frames consult the cache and plan the node — either a
        Figure 10 rule (whose matcher runs on the *untransformed* term)
        or structural recursion; a planned node pushes a ``_BUILD`` frame
        holding its finisher closure below the child visits, so children
        complete first, in depth-first order.
        """
        cache = self.cache
        key_for = cache.key_for
        get = cache.get
        put = cache.put
        skip_names = self._skip_names
        stack: List[tuple] = [(_VISIT, term, ctx)]
        results: List[Term] = []
        append = results.append
        while stack:
            frame = stack.pop()
            if frame[0] == _VISIT:
                _tag, t, c = frame
                if skip_names is not None and skip_names.isdisjoint(
                    collect_globals(t)
                ):
                    append(t)
                    continue
                key = key_for(t, c)
                cached = get(key)
                if cached is not None:
                    append(cached)
                    continue
                self._plan_node(t, c, key, stack, results)
            else:
                _tag, build, key, nargs = frame
                if nargs:
                    vals = results[-nargs:]
                    del results[-nargs:]
                else:
                    vals = []
                out = build(vals)
                put(key, out)
                append(out)
        return results[0]

    def _plan_node(
        self,
        t: Term,
        ctx: Context,
        key: tuple,
        stack: List[tuple],
        results: List[Term],
    ) -> None:
        head = t
        while type(head) is App:
            head = head.fn
        head_cls = type(head)
        env = self.env

        rules = self._head_rules.get(head_cls)
        if rules is None:
            rules = self._head_rules[head_cls] = tuple(
                (slot, getattr(plan, slot), plan.config.b)
                for plan in self._rule_plans
                for slot in ("iota", "constr", "proj", "elim", "type")
                if getattr(plan, slot) is not None
                and (
                    getattr(plan, slot + "_heads") is None
                    or head_cls in getattr(plan, slot + "_heads")
                )
            )

        for kind, matcher, b in rules:
            if kind == "iota":
                iota = matcher(env, ctx, t)
                if iota is not None:
                    j, args = iota

                    def build(vals, j=j, b=b, ctx=ctx):
                        built = b.make_iota(j, vals)
                        if built is not None:
                            return self._gated("Iota", built, ctx)
                        # Definitional iota on the B side: the cast
                        # disappears and the proof being cast (the final
                        # argument) stands on its own.
                        if not vals:
                            raise TransformError(
                                "iota mark with no arguments cannot be "
                                "erased"
                            )
                        return self._gated("Iota", vals[-1], ctx)

                    self._push_children(stack, build, key, args, ctx)
                    return

            elif kind == "constr":
                constr = matcher(env, ctx, t)
                if constr is not None:
                    j, params, args = constr
                    n_params = len(params)

                    def build(vals, j=j, b=b, n_params=n_params, ctx=ctx):
                        return self._gated(
                            "Dep-Constr",
                            b.make_constr(
                                j, vals[:n_params], vals[n_params:]
                            ),
                            ctx,
                        )

                    self._push_children(
                        stack, build, key, tuple(params) + tuple(args), ctx
                    )
                    return

            elif kind == "proj":
                proj = matcher(env, ctx, t)
                if proj is not None:
                    i, base = proj

                    def build(vals, i=i, b=b, ctx=ctx):
                        return self._gated(
                            "Proj", b.make_proj(i, vals[0]), ctx
                        )

                    self._push_children(stack, build, key, (base,), ctx)
                    return

            elif kind == "elim":
                elim = matcher(env, ctx, t)
                if elim is not None:
                    n_params = len(elim.params)
                    n_cases = len(elim.cases)
                    pieces = (
                        elim.params
                        + (elim.motive,)
                        + elim.cases
                        + (elim.scrut,)
                        + elim.extra_args
                    )

                    def build(
                        vals, b=b, n_params=n_params, n_cases=n_cases, ctx=ctx
                    ):
                        match = ElimMatch(
                            params=tuple(vals[:n_params]),
                            motive=vals[n_params],
                            cases=tuple(
                                vals[n_params + 1 : n_params + 1 + n_cases]
                            ),
                            scrut=vals[n_params + 1 + n_cases],
                            extra_args=tuple(vals[n_params + 2 + n_cases :]),
                        )
                        return self._gated("Dep-Elim", b.make_elim(match), ctx)

                    self._push_children(stack, build, key, pieces, ctx)
                    return

            else:
                params = matcher(env, t)
                if params is not None:

                    def build(vals, b=b, ctx=ctx):
                        return self._gated(
                            "Equivalence", b.make_type(vals), ctx
                        )

                    self._push_children(stack, build, key, params, ctx)
                    return

        # Structural rules.  Leaves finish immediately (Ind cannot match
        # a side here: every match_type already ran above, so a bare
        # family reference passes through unchanged).
        if isinstance(t, (Rel, Sort, Ind, Constr)):
            self.cache.put(key, t)
            results.append(t)
            return

        if isinstance(t, Const):
            mapped = self._const_map.get(t.name)
            out = Const(mapped) if mapped is not None else t
            self.cache.put(key, out)
            results.append(out)
            return

        if isinstance(t, App):

            def build(vals, t=t):
                fn, arg = vals
                if fn is t.fn and arg is t.arg:
                    return t
                return App(fn, arg)

            stack.append((_BUILD, build, key, 2))
            stack.append((_VISIT, t.arg, ctx))
            stack.append((_VISIT, t.fn, ctx))
            return

        if isinstance(t, Lam):

            def build(vals, t=t):
                domain, body = vals
                body = self._eta_expand_binder(domain, body)
                if domain is t.domain and body is t.body:
                    return t
                return Lam(t.name, domain, body)

            stack.append((_BUILD, build, key, 2))
            stack.append((_VISIT, t.body, ctx.push(t.name, t.domain)))
            stack.append((_VISIT, t.domain, ctx))
            return

        if isinstance(t, Pi):

            def build(vals, t=t):
                domain, codomain = vals
                codomain = self._eta_expand_binder(domain, codomain)
                if domain is t.domain and codomain is t.codomain:
                    return t
                return Pi(t.name, domain, codomain)

            stack.append((_BUILD, build, key, 2))
            stack.append((_VISIT, t.codomain, ctx.push(t.name, t.domain)))
            stack.append((_VISIT, t.domain, ctx))
            return

        if isinstance(t, Elim):

            def build(vals, t=t):
                motive = vals[0]
                cases = vals[1:-1]
                scrut = vals[-1]
                if (
                    motive is t.motive
                    and scrut is t.scrut
                    and all(a is b for a, b in zip(cases, t.cases))
                ):
                    return t
                return Elim(t.ind, motive, tuple(cases), scrut)

            stack.append((_BUILD, build, key, 2 + len(t.cases)))
            stack.append((_VISIT, t.scrut, ctx))
            for case in reversed(t.cases):
                stack.append((_VISIT, case, ctx))
            stack.append((_VISIT, t.motive, ctx))
            return

        raise TransformError(f"cannot transform {t!r}")

    @staticmethod
    def _push_children(
        stack: List[tuple], build, key: tuple, children, ctx: Context
    ) -> None:
        children = tuple(children)
        stack.append((_BUILD, build, key, len(children)))
        for child in reversed(children):
            stack.append((_VISIT, child, ctx))

    def _eta_expand_binder(self, domain: Term, body: Term) -> Term:
        """Apply the B side's Eta to every occurrence of a new binder.

        When the B side declares a propositional Eta (e.g. sigma packing,
        Section 4.1.2) and the binder's domain is the B type, every
        occurrence of the bound variable is replaced with its
        eta-expansion.  This is the unification step that keeps
        eliminations of variables and iota-exposed recursions
        definitionally aligned, so transformed proofs type check without
        sigma eta in the kernel.

        Runs on the shared explicit-stack rebuilder: heap-bounded on deep
        bodies, short-circuits subtrees that cannot contain the bound
        variable, reuses untouched nodes, and memoizes per node in one
        process-wide table keyed by ``(id(node), ids of (eta, *params),
        cut)``, so nested binders are not re-walked.  An entry is a pure
        function of arena terms, so every transformer shares the table
        and a warm worker's next job hits what the last one stored.
        """
        b = None
        params = None
        for config in self.configs:
            if config.b.eta is None:
                continue
            params = config.b.match_type(self.env, domain)
            if params is not None:
                b = config.b
                break
        if b is None or params is None:
            return body
        if max_free_rel(body) == 0:
            return body
        eta = b.eta
        params = tuple(params)

        def on_rel(index: int, cut: int) -> Term:
            if index != cut:
                return Rel(index)
            applied = mk_app(
                eta,
                tuple(lift(p, cut + 1) for p in params) + (Rel(cut),),
            )
            return beta_reduce(applied)

        if not _term._caches_enabled:
            return _transform_rels(body, 0, on_rel)
        return _transform_rels(
            body, 0, on_rel, _ETA_MEMO, (eta, *params), _ETA_COUNTER
        )

    def _gated(self, rule: str, result: Term, ctx: Context) -> Term:
        """Scope-check a rule's output under ``REPRO_ANALYZE=1``.

        A no-op when analysis is off; when on, a malformed result fails
        here, naming the Figure 10 rule, instead of deep in the kernel.
        """
        rule_gate(self.env, rule, result, len(ctx))
        return result


def transform_term(
    env: Environment,
    config: Configuration,
    term: Term,
    cache: Optional[TransformCache] = None,
    reduce_output: bool = True,
) -> Term:
    """Convenience wrapper: transform a closed term across ``config``."""
    return Transformer(env, config, cache=cache, reduce_output=reduce_output)(
        term
    )
