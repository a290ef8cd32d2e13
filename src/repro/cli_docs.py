"""Auto-generated CLI reference.

:func:`cli_reference_markdown` walks the real ``argparse`` tree built by
:func:`repro.cli.build_parser` and renders every subcommand -- its help
line, positional arguments and options with defaults -- as markdown.
``docs/cli.md`` is this function's output, verbatim; a tier-1 test
(``tests/system/test_cli_docs.py``) regenerates the reference and fails if
the file has drifted from the actual parser, so the document cannot rot.

Regenerate with::

    PYTHONPATH=src python -m repro.cli_docs > docs/cli.md
"""

from __future__ import annotations

import argparse
from typing import List

HEADER = """\
# CLI reference

Every experiment in this repository is reachable from one entry point:
`python -m repro <subcommand> ...` (or the `repro` console script after
`pip install -e .`).  This file lists every subcommand and flag the parser
actually accepts.

> **Auto-generated** by `python -m repro.cli_docs > docs/cli.md`; do not
> edit by hand.  A tier-1 test (`tests/system/test_cli_docs.py`)
> regenerates it and fails when this file is out of sync with the parser.

See [docs/simnet.md](simnet.md) for what the `simulate` scenarios do,
[docs/performance.md](performance.md) for how the stack is measured, and
[docs/architecture.md](architecture.md) for the subsystem map (including
the cluster operations the `cluster` subcommand exercises).
"""


def _flag_cell(action: argparse.Action) -> str:
    """Render one action's invocation: flags + metavar, or the positional."""
    if action.option_strings:
        flags = ", ".join(action.option_strings)
        if action.nargs == 0:
            return f"`{flags}`"
        metavar = action.metavar or (action.dest or "").upper()
        return f"`{flags} {metavar}`"
    metavar = action.metavar or action.dest
    if action.nargs in ("*", "?"):
        return f"`[{metavar}]`"
    return f"`{metavar}`"


def _default_cell(action: argparse.Action) -> str:
    """Render an action's default value (choices shown inline)."""
    parts: List[str] = []
    if action.choices:
        parts.append("/".join(str(choice) for choice in action.choices))
    if action.default not in (None, False, argparse.SUPPRESS):
        parts.append(f"default `{action.default}`")
    return "; ".join(parts) if parts else "--"


def _escape(text: str) -> str:
    """Make free-form help text table-cell safe."""
    return (text or "").replace("|", "\\|").replace("\n", " ")


def _actions_table(parser: argparse.ArgumentParser) -> List[str]:
    """The argument table of one (sub)parser."""
    rows: List[str] = []
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._VersionAction,
                               argparse._SubParsersAction)):
            continue
        rows.append(f"| {_flag_cell(action)} | {_default_cell(action)} "
                    f"| {_escape(action.help)} |")
    if not rows:
        return []
    return ["| Argument | Choices / default | Description |",
            "|----------|-------------------|-------------|"] + rows


def cli_reference_markdown() -> str:
    """The full CLI reference as markdown (the contents of docs/cli.md)."""
    from repro.cli import build_parser

    parser = build_parser()
    subparsers_action = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction))
    help_by_name = {
        choice.dest: choice.help
        for choice in subparsers_action._choices_actions
    }

    lines = [HEADER]
    lines.append("## Subcommands")
    lines.append("")
    lines.append("| Subcommand | Purpose |")
    lines.append("|------------|---------|")
    for name in subparsers_action.choices:
        lines.append(f"| [`{name}`](#repro-{name}) | {_escape(help_by_name.get(name))} |")
    lines.append("")
    for name, subparser in subparsers_action.choices.items():
        lines.append(f"## `repro {name}`")
        lines.append("")
        summary = help_by_name.get(name)
        if summary:
            lines.append(f"{summary[0].upper()}{summary[1:]}.")
            lines.append("")
        table = _actions_table(subparser)
        if table:
            lines.extend(table)
        else:
            lines.append("_No arguments._")
        lines.append("")
    lines.append(f"_{len(subparsers_action.choices)} subcommands._")
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    """Print the reference (``python -m repro.cli_docs > docs/cli.md``)."""
    print(cli_reference_markdown(), end="")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
