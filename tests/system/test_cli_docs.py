"""docs/cli.md must be the exact output of the CLI reference generator.

Same contract as ``tests/rpc/test_docs.py`` for docs/rpc.md: the document
is generated, never hand-edited, and this test fails the CI docs job the
moment the argparse tree and the committed reference drift apart.

Regenerate with::

    PYTHONPATH=src python -m repro.cli_docs > docs/cli.md
"""

from __future__ import annotations

from pathlib import Path

from repro.cli import build_parser
from repro.cli_docs import cli_reference_markdown

REPO_ROOT = Path(__file__).resolve().parents[2]
CLI_DOC = REPO_ROOT / "docs" / "cli.md"


class TestCliReference:
    def test_document_exists(self):
        assert CLI_DOC.exists(), \
            "docs/cli.md is missing; run: python -m repro.cli_docs > docs/cli.md"

    def test_document_matches_the_parser(self):
        generated = cli_reference_markdown()
        committed = CLI_DOC.read_text()
        assert committed == generated, (
            "docs/cli.md is out of sync with the argparse tree; regenerate "
            "with: PYTHONPATH=src python -m repro.cli_docs > docs/cli.md"
        )

    def test_every_subcommand_is_documented(self):
        parser = build_parser()
        import argparse

        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        text = CLI_DOC.read_text()
        for name in subparsers.choices:
            assert f"## `repro {name}`" in text

    def test_reference_is_marked_generated(self):
        assert "Auto-generated" in CLI_DOC.read_text()

    def test_cluster_flags_are_documented(self):
        """``repro cluster`` and its replica count appear in the reference."""
        text = CLI_DOC.read_text()
        assert "## `repro cluster`" in text
        assert "--replicas" in text
