#!/usr/bin/env python3
"""The vernacular workflow: driving repair with commands, as in Coq.

Pumpkin Pi is used from Coq through vernacular commands (``Repair ... in
...``, ``Repair module ...``).  This example drives the Section 2 repair
through the same textual surface.
"""

from repro.commands import CommandSession
from repro.stdlib import declare_list_type, make_env


def main() -> None:
    env = make_env(lists=True, vectors=False)
    declare_list_type(env, "New.list", swapped=True)
    session = CommandSession(env)

    script = """
    (* the Section 2 workflow, as vernacular *)
    Configure list New.list
    Repair list New.list in rev_app_distr as rev_app_distr_new
    Decompile rev_app_distr_new
    Replay rev_app_distr_new
    Repair module list New.list prefix New
    Remove list
    """
    for result in session.run(script):
        print(f"> {result.command.strip()}")
        print(f"  {result.summary}")
        if result.text and "Decompile" in result.command:
            print()
            for line in result.text.splitlines():
                print(f"    {line}")
            print()

    print("Old list removed:", not env.has_inductive("list"))


if __name__ == "__main__":
    main()
