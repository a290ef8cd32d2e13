"""The ideal-scenario md5 pin: the serial path is bit-for-bit frozen.

One fully deterministic "ideal" workload -- funded accounts, a contract
deployment, uploads, a view call, a failing call, transfers, several
blocks -- runs on a *seed-default* chain (no storage, no fork choice, no
obs, no deferred verification) and the md5 of a canonical JSON dump of every
block hash, receipt, log and account must equal a recorded constant.

This is the contract every optimisation is held to: if the serial path's
bytes move, this fails first, separating "the optimisation diverged" from
"the baseline itself drifted".  When a
*deliberate* consensus change lands, re-record the constant with:

    PYTHONPATH=src python -c "from tests.system.test_serial_pin import \
ideal_scenario_digest; print(ideal_scenario_digest())"
"""

from __future__ import annotations

import hashlib
import json

from repro.chain.account import Address
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.executor import contract_address_for
from repro.chain.keys import KeyPair
from repro.chain.transaction import Transaction, encode_call, encode_create
from repro.contracts.registry import default_registry
from repro.utils.clock import SimulatedClock
from repro.utils.units import ether_to_wei, gwei_to_wei

#: md5 of the canonical dump below.  Re-recorded when accounts moved to
#: Ed25519, which moved every address and block hash; byte-stable otherwise.
IDEAL_SCENARIO_MD5 = "f5df4170614e165a48ff77f2b959cf5c"

ALICE = KeyPair.from_label("pin-alice")
BOB = KeyPair.from_label("pin-bob")
CAROL = KeyPair.from_label("pin-carol")
VALIDATOR = Address(KeyPair.from_label("pin-validator").address)
GAS_PRICE = gwei_to_wei(1)


def _signed(sender: KeyPair, nonce: int, **fields) -> Transaction:
    return Transaction(
        sender=Address(sender.address),
        nonce=nonce,
        gas_price=GAS_PRICE,
        **fields,
    ).sign(sender)


def run_ideal_scenario(batch_verify=None) -> Blockchain:
    """The frozen workload; every input is a constant.

    ``batch_verify`` (a verify-worker count) runs the identical workload
    under deferred signature verification -- the pin then asserts the
    produced bytes did not move.
    """
    chain = Blockchain(
        config=ChainConfig(),
        backend=default_registry(),
        clock=SimulatedClock(start_time=0.0),
        validators=[VALIDATOR],
        genesis_timestamp=0.0,
        batch_verify=batch_verify,
    )
    for keypair in (ALICE, BOB, CAROL):
        chain.mint(keypair.address, ether_to_wei(10))

    # Block 1: deploy the contract.
    chain.submit_transaction(_signed(
        ALICE, 0, to=None, data=encode_create("CidStorage", []),
        gas_limit=3_000_000))
    chain.produce_block()
    contract = contract_address_for(Address(ALICE.address), 0)

    # Block 2: uploads from two senders, a transfer, a view call.
    chain.submit_transaction(_signed(
        ALICE, 1, to=contract, data=encode_call("uploadCid", ["QmPinOne"]),
        gas_limit=300_000))
    chain.submit_transaction(_signed(
        BOB, 0, to=contract, data=encode_call("uploadCid", ["QmPinTwo"]),
        gas_limit=300_000))
    chain.submit_transaction(_signed(
        CAROL, 0, to=Address(BOB.address), value=12_345, gas_limit=21_000))
    chain.submit_transaction(_signed(
        ALICE, 2, to=contract, data=encode_call("cidCount", []),
        gas_limit=100_000))
    chain.produce_block()

    # Block 3: a failing call (revert), a nonce chain, a self-transfer.
    chain.submit_transaction(_signed(
        BOB, 1, to=contract, data=encode_call("getCid", [999]),
        gas_limit=100_000))
    chain.submit_transaction(_signed(
        CAROL, 1, to=Address(ALICE.address), value=777, gas_limit=21_000))
    chain.submit_transaction(_signed(
        CAROL, 2, to=Address(CAROL.address), value=1, gas_limit=21_000))
    chain.produce_block()
    return chain


def canonical_dump(chain: Blockchain) -> str:
    """Deterministic JSON rendering of everything consensus covers."""
    payload = {
        "blocks": [
            {
                "hash": chain.get_block(i).hash,
                "gas_used": chain.get_block(i).header.gas_used,
                "timestamp": chain.get_block(i).timestamp,
            }
            for i in range(chain.height + 1)
        ],
        "receipts": {
            tx_hash: receipt.to_dict()
            for tx_hash, receipt in sorted(chain._receipts.items())
        },
        "logs": [log.to_dict() for log in chain.iter_logs()],
        "state": chain.state.to_dict(),
    }
    return json.dumps(payload, sort_keys=True, default=str)


def ideal_scenario_digest() -> str:
    return hashlib.md5(
        canonical_dump(run_ideal_scenario()).encode()).hexdigest()


class TestSerialPathPin:
    def test_ideal_scenario_md5_is_pinned(self):
        assert ideal_scenario_digest() == IDEAL_SCENARIO_MD5

    def test_batch_verify_with_pipeline_stays_pinned(self):
        # Deferred signature verification + pipelined production must be
        # byte-identical to the frozen serial scenario: same block hashes,
        # receipts, logs and state, down to the md5.  Runs both the inline
        # settle path and the worker-pool pipeline.
        for verify_workers in (0, 2):
            chain = run_ideal_scenario(batch_verify=verify_workers)
            digest = hashlib.md5(canonical_dump(chain).encode()).hexdigest()
            assert digest == IDEAL_SCENARIO_MD5, verify_workers
            assert chain.batchverify.pipeline_fallbacks == 0
            chain.batchverify.close()

    def test_scenario_shape_sanity(self):
        # Guard the pin itself: the scenario must actually exercise what it
        # claims (a deployment, a revert, logs, three non-empty blocks).
        chain = run_ideal_scenario()
        assert chain.height == 3
        receipts = list(chain._receipts.values())
        assert len(receipts) == 8
        assert any(not r.status for r in receipts)
        assert any(r.contract_address for r in receipts)
        assert len(list(chain.iter_logs())) >= 2
