"""The command front end: the plugin's vernacular, as text.

Pumpkin Pi is driven from Coq by vernacular commands::

    Repair Old.list New.list in rev_app_distr.
    Repair module Old.list New.list.
    Configure Old.list New.list { ... }.

:class:`CommandSession` provides the same surface for this reproduction.
Commands are plain strings; configurations found by ``Configure`` (or
implicitly by ``Repair``) are cached per type pair, and repair sessions
per type pair and rename, whose transformed-subterm cache is shared
across the commands that use them — matching the interactive workflow
the industrial proof engineer used (Section 6.4).  Two sessions never
share a cache: its entries depend on the configuration and on the names
repaired constants get.  ``Configure`` drops the pair's sessions with
the configuration it replaces.

Supported commands::

    Configure <A> <B> [mapping <j0> <j1> ...]
    Repair <A> <B> in <name> [as <new_name>]
    Repair module <A> <B> [prefix <Prefix>]
    Repair Batch <A> <B> in <name> <name> ... [prefix <Prefix>]
        [impact | no-impact]
    Decompile <name>
    Replay <name>
    Analyze [<name>]
    Remove <A>

``Repair Batch`` schedules several targets through the
:mod:`repro.service` engine: jobs are ordered over the environment's
reverse-dependency graph, a failing target skips (rather than poisons)
its dependents, and when the session has a result ``store`` attached,
previously repaired targets replay from cache without redoing any
transformation work.  A trailing ``impact`` token prunes targets a
change-impact plan certifies unaffected; ``no-impact`` runs everything and differentially asserts
the pruned set would have been byte-identical.

``Repair`` uses the automatic workflow of Figure 6 (left): when no
configuration was set up for the pair, the search procedures run first.
``Analyze`` runs the static-analysis passes (:mod:`repro.analysis`):
with a name, the scope checker over that constant plus the tactic
linter over its decompiled script; without, the scope checker over the
whole environment.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .analysis.diagnostics import Diagnostic, Severity
from .analysis.scope import check_constant, check_environment
from .analysis.tacticlint import lint_script
from .core.config import ConfigError, Configuration
from .core.repair import RepairError, RepairResult, RepairSession
from .core.search import configure
from .decompile.decompiler import decompile_to_script, print_script
from .decompile.run import ScriptError, run_script
from .kernel.env import Environment
from .kernel.term import TermError
from .obs import span
from .syntax.lexer import LexError
from .syntax.parser import ParseError
from .tactics.engine import TacticError


class CommandError(Exception):
    """Raised for unknown or malformed commands."""


#: The repair stack's own exception families.  A command failing with
#: one of these failed as a command (an unknown constant, no
#: configuration, a proof that does not check); anything else is a bug
#: and propagates as is.  ``Repair ... in`` already turns the batch
#: layer's ``JobError`` into a :class:`CommandError`.
_VERNACULAR_ERRORS = (
    TermError,
    ConfigError,
    RepairError,
    TacticError,
    ParseError,
    LexError,
    ScriptError,
)


@dataclass
class CommandResult:
    """What a command produced, plus a human-readable summary."""

    command: str
    summary: str
    results: List[RepairResult] = field(default_factory=list)
    config: Optional[Configuration] = None
    text: Optional[str] = None
    #: The batch report when the command was ``Repair Batch``.
    report: Optional[object] = None

    def __str__(self) -> str:
        return self.summary


def _rename_spec(prefix: Optional[str] = None) -> Dict[str, str]:
    """The rename spec (see :func:`repro.service.worker.make_rename`) of
    a ``prefix`` clause, ``prefix.name``; ``name'`` without one."""
    if prefix:
        return {"kind": "prefix", "value": f"{prefix}."}
    return {"kind": "suffix", "value": "'"}


class CommandSession:
    """An interactive session of repair commands over one environment."""

    def __init__(self, env: Environment, store=None) -> None:
        self.env = env
        self._configs: Dict[Tuple[str, str], Configuration] = {}
        #: Keyed by type pair and rename spec (kind, value).
        self._sessions: Dict[Tuple[str, str, str, str], RepairSession] = {}
        self.history: List[CommandResult] = []
        #: Optional :class:`repro.service.ResultStore` backing
        #: ``Repair Batch`` (no persistence when unset).
        self.store = store

    # -- Public API -------------------------------------------------------------

    def execute(self, command: str) -> CommandResult:
        """Parse and run one command; the result is also recorded."""
        words = shlex.split(command.strip().rstrip("."))
        if not words:
            raise CommandError("empty command")
        head = words[0]
        # Each command gets its own span, so kernel-counter deltas are
        # attributed per command rather than accumulating across the
        # session.
        with span("command", category="command", command=command.strip()):
            if head == "Configure":
                result = self._configure(words[1:], command)
            elif head == "Repair" and len(words) > 1 and words[1] == "module":
                result = self._repair_module(words[2:], command)
            elif head == "Repair" and len(words) > 1 and words[1] == "Batch":
                result = self._repair_batch(words[2:], command)
            elif head == "Repair":
                result = self._repair(words[1:], command)
            elif head == "Decompile":
                result = self._decompile(words[1:], command)
            elif head == "Replay":
                result = self._replay(words[1:], command)
            elif head == "Analyze":
                result = self._analyze(words[1:], command)
            elif head == "Remove":
                result = self._remove(words[1:], command)
            else:
                raise CommandError(f"unknown command {head!r}")
        self.history.append(result)
        return result

    def run(self, script: str) -> List[CommandResult]:
        """Run a batch of commands, one per non-empty line.

        A failing command reports its 1-based script line number, so an
        error deep in a long vernacular file points at the right line.
        The repair stack's own errors (see ``_VERNACULAR_ERRORS``)
        become a :class:`CommandError` naming the line and the error's
        class; any other exception propagates unchanged.
        """
        results = []
        for lineno, line in enumerate(script.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("(*"):
                continue
            try:
                results.append(self.execute(line))
            except CommandError as exc:
                raise CommandError(f"line {lineno}: {exc}") from exc
            except _VERNACULAR_ERRORS as exc:
                raise CommandError(
                    f"line {lineno}: {type(exc).__name__}: {exc}"
                ) from exc
        return results

    # -- Individual commands ------------------------------------------------------

    def _get_config(
        self, a: str, b: str, mapping: Optional[Tuple[int, ...]] = None
    ) -> Configuration:
        key = (a, b)
        if key not in self._configs:
            self._configs[key] = configure(self.env, a, b, mapping=mapping)
        return self._configs[key]

    def _get_session(
        self, a: str, b: str, rename: Dict[str, str]
    ) -> RepairSession:
        """The pair's repair session for the rename spec ``rename``.

        A session names every constant it repairs with its own rename,
        so a command that renames otherwise gets a session of its own.
        The pair's sessions share its configuration but not its
        ``const_map``, where a session records the names it repaired
        to: each starts from the built map, as a fresh session does.
        """
        key = (a, b, rename["kind"], rename["value"])
        if key not in self._sessions:
            from .service.worker import make_rename

            config = self._get_config(a, b)
            self._sessions[key] = RepairSession(
                self.env,
                replace(config, const_map=dict(config.const_map)),
                old_globals=[a],
                rename=make_rename(rename),
            )
        return self._sessions[key]

    def _configure(self, words: List[str], command: str) -> CommandResult:
        if len(words) < 2:
            raise CommandError("Configure needs two type names")
        a, b = words[0], words[1]
        mapping: Optional[Tuple[int, ...]] = None
        if len(words) > 2:
            if words[2] != "mapping":
                raise CommandError(
                    f"expected 'mapping', got {words[2]!r}"
                )
            mapping = tuple(int(w) for w in words[3:])
        config = configure(self.env, a, b, mapping=mapping)
        self._configs[(a, b)] = config
        # The pair's sessions repair through the configuration this one
        # replaces; later commands start sessions over the new one.
        for key in [key for key in self._sessions if key[:2] == (a, b)]:
            del self._sessions[key]
        return CommandResult(
            command=command,
            summary=f"configured {a} ~= {b}"
            + (f" with mapping {mapping}" if mapping else ""),
            config=config,
        )

    def _repair(self, words: List[str], command: str) -> CommandResult:
        # Repair <A> <B> in <name> [as <new>]
        if len(words) < 4 or words[2] != "in":
            raise CommandError("usage: Repair <A> <B> in <name> [as <new>]")
        a, b, name = words[0], words[1], words[3]
        new_name = None
        if len(words) >= 6 and words[4] == "as":
            new_name = words[5]
        session = self._get_session(a, b, _rename_spec())
        result = session.repair_constant(name, new_name=new_name)
        return CommandResult(
            command=command,
            summary=f"repaired {result.old_name} as {result.new_name} "
            f"({len(session.results)} constant(s) in session)",
            results=[result],
            config=self._get_config(a, b),
        )

    def _repair_module(self, words: List[str], command: str) -> CommandResult:
        if len(words) < 2:
            raise CommandError("usage: Repair module <A> <B> [prefix <P>]")
        a, b = words[0], words[1]
        prefix = None
        if len(words) >= 4 and words[2] == "prefix":
            prefix = words[3]
        session = self._get_session(a, b, _rename_spec(prefix))
        results = session.repair_module()
        return CommandResult(
            command=command,
            summary=f"repaired {len(results)} constants across {a} ~= {b}",
            results=results,
            config=self._get_config(a, b),
        )

    def _repair_batch(self, words: List[str], command: str) -> CommandResult:
        # Repair Batch <A> <B> in <name>... [prefix <P>] [impact|no-impact]
        usage = (
            "usage: Repair Batch <A> <B> in <name>... [prefix <P>] "
            "[impact|no-impact]"
        )
        if len(words) < 4 or words[2] != "in":
            raise CommandError(usage)
        a, b = words[0], words[1]
        targets = words[3:]
        from .service.planner import MODE_CHECK, MODE_PRUNE

        impact_mode: Optional[str] = None
        if targets and targets[-1] in ("impact", "no-impact"):
            impact_mode = (
                MODE_PRUNE if targets[-1] == "impact" else MODE_CHECK
            )
            targets = targets[:-1]
        prefix = None
        if len(targets) >= 2 and targets[-2] == "prefix":
            prefix = targets[-1]
            targets = targets[:-2]
        if not targets:
            raise CommandError(usage)
        from .service.job import JobError
        from .service.live import live_jobs, run_live_batch
        from .service.planner import build_batch_impact, verify_impact
        from .service.scheduler import BatchOptions

        rename_spec = _rename_spec(prefix)
        session = self._get_session(a, b, rename_spec)
        try:
            jobs = live_jobs(self.env, a, b, targets, rename=rename_spec)
            impact = (
                build_batch_impact(jobs, env=self.env)
                if impact_mode is not None
                else None
            )
            report = run_live_batch(
                session,
                jobs,
                BatchOptions(
                    jobs=1,
                    store=self.store,
                    impact=impact if impact_mode == MODE_PRUNE else None,
                ),
                batch=f"{a}~{b}",
            )
        except JobError as exc:
            raise CommandError(str(exc)) from exc
        if impact is not None and impact_mode == MODE_CHECK:
            violations = verify_impact(report, impact)
            if violations:
                raise CommandError(
                    "impact soundness violation(s):\n"
                    + "\n".join(violations)
                )
        results = [
            session.results[o.job.target]
            for o in report.outcomes
            if o.ok and o.job.target in session.results
        ]
        counts = ", ".join(
            f"{n} {status}" for status, n in sorted(report.counts.items())
        )
        return CommandResult(
            command=command,
            summary=f"batch {a} ~= {b}: {len(report.outcomes)} job(s) — "
            f"{counts}",
            results=results,
            config=self._get_config(a, b),
            text=report.render_table(),
            report=report,
        )

    def _decompile(self, words: List[str], command: str) -> CommandResult:
        if len(words) != 1:
            raise CommandError("usage: Decompile <name>")
        name = words[0]
        decl = self.env.constant(name)
        if decl.body is None:
            raise CommandError(f"{name!r} has no body to decompile")
        script = decompile_to_script(self.env, decl.body)
        text = print_script(script, name=name)
        return CommandResult(
            command=command,
            summary=f"decompiled {name} "
            f"({len(text.splitlines())} lines of script)",
            text=text,
        )

    def _replay(self, words: List[str], command: str) -> CommandResult:
        if len(words) != 1:
            raise CommandError("usage: Replay <name>")
        name = words[0]
        decl = self.env.constant(name)
        if decl.body is None:
            raise CommandError(f"{name!r} has no body to replay")
        script = decompile_to_script(self.env, decl.body)
        run_script(self.env, decl.type, script)
        return CommandResult(
            command=command,
            summary=f"decompiled script for {name} replays and checks",
            text=print_script(script, name=name),
        )

    def _analyze(self, words: List[str], command: str) -> CommandResult:
        if len(words) > 1:
            raise CommandError("usage: Analyze [<name>]")
        diagnostics: List[Diagnostic]
        if words:
            name = words[0]
            decl = self.env.constant(name)
            diagnostics = check_constant(self.env, decl)
            if decl.body is not None:
                script = decompile_to_script(self.env, decl.body)
                diagnostics.extend(
                    lint_script(self.env, script, subject=name)
                )
            what = name
        else:
            diagnostics = check_environment(self.env)
            what = "environment"
        errors = sum(
            1 for d in diagnostics if d.severity is Severity.ERROR
        )
        text = "\n".join(d.render() for d in diagnostics) or None
        return CommandResult(
            command=command,
            summary=f"analyzed {what}: {errors} error(s), "
            f"{len(diagnostics) - errors} other finding(s)",
            text=text,
        )

    def _remove(self, words: List[str], command: str) -> CommandResult:
        if len(words) != 1:
            raise CommandError("usage: Remove <A>")
        name = words[0]
        self.env.remove(name)
        rect = f"{name}_rect"
        if self.env.has_constant(rect):
            self.env.remove(rect)
        return CommandResult(
            command=command, summary=f"removed {name} from the environment"
        )
