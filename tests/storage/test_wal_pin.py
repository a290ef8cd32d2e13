"""The WAL's bytes on disk are pinned.

A fixed chain workload (mints, a contract deployment, uploads with logs,
transfers, a revert, and compactions that rewrite the log) is persisted
through a ``LogBackend``, and a second topic takes records chosen for the
JSON edge cases -- floats, ``-0.0``, ``NaN``, escapes, non-ASCII text, big
integers and bytes.  The sha256 of every ``wal/*.log`` file must equal the
recorded constants, so any change to how a line is written (``_encode_line``)
shows here first.  Re-record only for a deliberate format change, with::

    PYTHONPATH=src python -c "from tests.storage.test_wal_pin import \\
wal_digests; print(wal_digests('/tmp/wal-pin'))"
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.chain.account import Address
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.executor import contract_address_for
from repro.chain.keys import KeyPair
from repro.chain.transaction import Transaction, encode_call, encode_create
from repro.contracts.registry import default_registry
from repro.storage import StorageConfig, StorageEngine
from repro.utils.clock import SimulatedClock
from repro.utils.units import ether_to_wei, gwei_to_wei

#: sha256 of each WAL file the workload below writes, recorded before
#: ``_encode_line`` stopped re-parsing each record; ``chain.log`` was
#: re-recorded when accounts moved to Ed25519 (its addresses and signatures).
WAL_SHA256 = {
    "chain.log": "0dcd02885640945f6fd37005661a40d4ce8355bf26ffea2043b9730d434813a4",
    "edge.log": "ffb8d894923a4e6b011afa30f19f3c9232c98798a83e97f84821d18fc344fa60",
}

ALICE = KeyPair.from_label("wal-pin-alice")
BOB = KeyPair.from_label("wal-pin-bob")
VALIDATOR = Address(KeyPair.from_label("wal-pin-validator").address)

#: Records whose canonical JSON exercises every encoder corner.
EDGE_RECORDS = [
    {"floats": [0.1, 1e300, 1.5e-7, -0.0, 0.0, 2.5, float("nan"),
                float("inf"), float("-inf")]},
    {"text": "quote \" backslash \\ newline \n tab \t nul \x00 bell \x07",
     "unicode": "é 漢字 \U0001f600 \u2028"},
    {"ints": [2**200, -(2**70), 0, -1, True, False, None]},
    {"bytes": b"\x00\xffraw", "nested": {"b": [{"z": 1, "a": [b""]}], "a": {}}},
    {"keys": {"b": 1, "a": 2, "A": 3, "é": 4, "10": 5, "9": 6}},
]


def _signed(sender: KeyPair, nonce: int, **fields) -> Transaction:
    return Transaction(sender=Address(sender.address), nonce=nonce,
                       gas_price=gwei_to_wei(1), **fields).sign(sender)


def write_workload(directory: str) -> None:
    """Persist the fixed workload under ``directory``."""
    engine = StorageEngine(StorageConfig(backend="log", directory=directory,
                                         snapshot_interval_blocks=2))
    chain = Blockchain(
        config=ChainConfig(),
        backend=default_registry(),
        clock=SimulatedClock(start_time=0.0),
        validators=[VALIDATOR],
        genesis_timestamp=0.0,
        store=engine.chain_store(),
    )
    for keypair in (ALICE, BOB):
        chain.mint(keypair.address, ether_to_wei(10))
    chain.submit_transaction(_signed(
        ALICE, 0, to=None, data=encode_create("CidStorage", []),
        gas_limit=3_000_000))
    chain.produce_block()
    contract = contract_address_for(Address(ALICE.address), 0)
    chain.submit_transaction(_signed(
        ALICE, 1, to=contract, data=encode_call("uploadCid", ["QmWalPiné"]),
        gas_limit=300_000))
    chain.submit_transaction(_signed(
        BOB, 0, to=Address(ALICE.address), value=12_345, gas_limit=21_000))
    chain.produce_block()
    chain.submit_transaction(_signed(
        BOB, 1, to=contract, data=encode_call("getCid", [999]),
        gas_limit=100_000))
    chain.mint(BOB.address, 7)
    chain.produce_block()
    # A transaction left pending at the end.
    chain.submit_transaction(_signed(
        ALICE, 2, to=Address(BOB.address), value=1, gas_limit=21_000))
    for record in EDGE_RECORDS:
        engine.backend.append("edge", record)
    engine.close()


def wal_digests(directory: str) -> dict:
    """Write the workload under ``directory``; sha256 of each WAL file."""
    write_workload(directory)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((Path(directory) / "wal").glob("*.log"))}


def test_wal_file_bytes_are_pinned(tmp_path):
    assert wal_digests(str(tmp_path / "store")) == WAL_SHA256
