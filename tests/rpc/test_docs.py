"""docs/rpc.md must stay in sync with the gateway's served methods."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.rpc.docs import build_reference_gateway, rpc_reference_markdown
from repro.system import build_environment, quick_config

DOCS_PATH = Path(__file__).resolve().parents[2] / "docs" / "rpc.md"

REGEN_HINT = (
    "docs/rpc.md is out of date; regenerate it with\n"
    "  PYTHONPATH=src python -m repro rpc --list --markdown > docs/rpc.md"
)


@pytest.fixture(scope="module")
def reference_gateway():
    return build_reference_gateway()


class TestRpcReference:
    def test_docs_file_matches_generated_reference(self):
        generated = rpc_reference_markdown()
        assert DOCS_PATH.exists(), REGEN_HINT
        assert DOCS_PATH.read_text() == generated, REGEN_HINT

    def test_every_served_method_is_documented(self, reference_gateway):
        text = DOCS_PATH.read_text()
        for name in reference_gateway.methods():
            assert f"| `{name}` |" in text, f"{name} missing from docs/rpc.md"

    def test_reference_covers_the_runtime_environment_surface(self, reference_gateway):
        """A real environment's gateway serves no method the docs lack."""
        env = build_environment(quick_config(num_owners=2, num_samples=400,
                                             local_epochs=1))
        documented = set(reference_gateway.methods())
        assert set(env.gateway.methods()) <= documented

    def test_no_empty_descriptions(self):
        for line in DOCS_PATH.read_text().splitlines():
            if line.startswith("| `"):
                description = line.rstrip("|").rsplit("|", 1)[-1].strip()
                assert description, f"undocumented method row: {line}"

    def test_every_namespace_has_a_section(self, reference_gateway):
        text = DOCS_PATH.read_text()
        namespaces = {name.split("_", 1)[0] for name in reference_gateway.methods()}
        for namespace in namespaces:
            assert f"## `{namespace}_*`" in text
