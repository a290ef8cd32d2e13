"""Package-level tests: version, exports and the exception hierarchy."""

import ast
import configparser
import re
import sys
from pathlib import Path

import pytest

import repro
from repro import errors

ROOT = Path(__file__).resolve().parents[1]


class TestPackage:
    def test_version_exposed(self):
        assert repro.__version__
        assert repro.__version__.count(".") == 2

    def test_subpackages_importable(self):
        import repro.chain
        import repro.contracts
        import repro.data
        import repro.fl
        import repro.incentives
        import repro.ipfs
        import repro.ml
        import repro.storage
        import repro.system
        import repro.utils
        import repro.web

        assert repro.chain.EthereumNode
        assert repro.contracts.CidStorage
        assert repro.ipfs.IpfsNode
        assert repro.ml.MLP
        assert repro.fl.FLClient
        assert repro.incentives.leave_one_out
        assert repro.web.BuyerDApp
        assert repro.system.run_marketplace
        assert repro.storage.StorageEngine
        assert repro.storage.recover_node


class TestErrorHierarchy:
    def test_every_domain_error_is_a_repro_error(self):
        domain_errors = [
            errors.ChainError,
            errors.ContractError,
            errors.IpfsError,
            errors.MLError,
            errors.FLError,
            errors.IncentiveError,
            errors.WebError,
            errors.StorageError,
            errors.WorkflowError,
            errors.ConfigError,
        ]
        for exc_type in domain_errors:
            assert issubclass(exc_type, errors.ReproError)

    def test_specific_errors_subclass_their_domain(self):
        assert issubclass(errors.OutOfGasError, errors.ChainError)
        assert issubclass(errors.NonceError, errors.InvalidTransactionError)
        assert issubclass(errors.ContractRevert, errors.ContractError)
        assert issubclass(errors.BlockNotFoundError, errors.IpfsError)
        assert issubclass(errors.ShapeError, errors.MLError)
        assert issubclass(errors.AggregationError, errors.FLError)
        assert issubclass(errors.BudgetError, errors.IncentiveError)
        assert issubclass(errors.StorageCorruptionError, errors.StorageError)

    def test_contract_revert_carries_reason(self):
        exc = errors.ContractRevert("Invalid CID index")
        assert exc.reason == "Invalid CID index"
        assert "Invalid CID index" in str(exc)

    def test_contract_revert_default_reason(self):
        assert "reverted" in str(errors.ContractRevert())

    def test_catching_repro_error_catches_everything(self):
        with pytest.raises(errors.ReproError):
            raise errors.OutOfGasError("boom")
        with pytest.raises(errors.ReproError):
            raise errors.PartitionError("boom")


def _third_party_imports():
    """Top-level names of every absolute import under ``src/repro`` that is
    neither the standard library nor ``repro`` itself, lazy imports included."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro"}


def _requirement_names(lines):
    """Distribution names of requirement lines (comments and pins dropped)."""
    names = set()
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if line:
            names.add(re.split(r"[<>=!~;\[ ]", line, maxsplit=1)[0].lower())
    return names


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names is new in Python 3.10")
class TestDeclaredDependencies:
    """Every third-party package the library imports is declared where a
    user (``setup.cfg``) and CI (``requirements-ci.txt``) install from.
    Import names equal distribution names for everything imported today."""

    def test_the_scan_finds_the_known_imports(self):
        assert {"numpy", "scipy"} <= _third_party_imports()

    def test_install_requires_declares_every_import(self):
        config = configparser.ConfigParser()
        config.read(ROOT / "setup.cfg")
        declared = _requirement_names(
            config["options"]["install_requires"].splitlines())
        assert _third_party_imports() <= declared

    def test_the_ci_requirements_declare_every_import(self):
        lines = (ROOT / "requirements-ci.txt").read_text().splitlines()
        assert _third_party_imports() <= _requirement_names(lines)
