"""Property-based crypto-equivalence for batch Schnorr verification.

The adversarial pin for ``repro.batchverify`` (ISSUE: the tentpole test).
Hypothesis generates hostile signature sets -- all-valid batches, exactly
one forgery, bit-flipped responses and challenges, swapped public keys,
duplicated items, zero / order-sized / above-order exponents -- and the
batch verifier's per-item verdicts must equal the scalar
``verify_signature`` verdicts *exactly*, including when the RLC gate fails
and deterministic bisection has to isolate the damage.  A second family of
properties runs whole workloads (with forged submissions interleaved)
through batch-verified, pipelined block production and requires the
resulting chain to be fingerprint-identical to the serial path -- across a
fork-choice reorg and a kill -9 WAL recovery too.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Dict, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batchverify import BatchVerifier, BatchVerifyConfig
from repro.chain.account import Address
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.keys import (
    GROUP_ORDER,
    GROUP_PRIME,
    KeyPair,
    Signature,
    _FixedBaseComb,
    verify_signature,
)
from repro.chain.node import EthereumNode
from repro.chain.transaction import Transaction
from repro.contracts.registry import default_registry
from repro.errors import InvalidSignatureError
from repro.storage import StorageConfig, recover_node, state_digest
from repro.utils.clock import SimulatedClock
from repro.utils.hashing import keccak256
from repro.utils.units import ether_to_wei, gwei_to_wei

N_SENDERS = 5
SENDERS = [KeyPair.from_label(f"bv-prop-{i}") for i in range(N_SENDERS)]
#: Dedicated forgery senders: forged transactions must not perturb the real
#: senders' pending-nonce accounting (serial rejects them at submit, batch
#: evicts them at settle), so they come from accounts that never send a
#: valid transaction.
FORGERS = [KeyPair.from_label(f"bv-prop-forger-{i}") for i in range(3)]
VALIDATOR = Address(KeyPair.from_label("bv-prop-val").address)
RIVAL_VALIDATOR = Address(KeyPair.from_label("bv-prop-rival").address)
GAS_PRICE = gwei_to_wei(1)

#: (sender index, message index) -> signature; signing dominates example
#: cost and signatures are deterministic, so one memo serves every example.
_sig_memo: Dict[Tuple[int, int], Signature] = {}
_tx_memo: Dict[tuple, Transaction] = {}


def _message(index: int) -> bytes:
    return keccak256(b"bv-prop-message-%d" % index)


def _signature(sender: int, message: int) -> Signature:
    key = (sender, message)
    signature = _sig_memo.get(key)
    if signature is None:
        signature = SENDERS[sender].sign(_message(message))
        _sig_memo[key] = signature
    return signature


# -- adversarial signature items --------------------------------------------

sender_idx = st.integers(min_value=0, max_value=N_SENDERS - 1)
message_idx = st.integers(min_value=0, max_value=11)

#: One verify item, possibly sabotaged.  Every mutation the scalar path can
#: encounter on the wire: honest items, bit-flipped s / e, a swapped public
#: key, the challenge forced to 0 / GROUP_ORDER - 1 / GROUP_ORDER / beyond /
#: below zero, a negated response, a bit-flipped or out-of-group key, and a
#: wrong claimed address.  ``test_property_verify`` runs the same items
#: through the scalar path against a builtin-``pow`` reference.
ITEM_SPECS = st.lists(
    st.tuples(
        sender_idx,
        message_idx,
        st.sampled_from([
            "valid", "flip_s", "flip_e", "swap_key", "e_zero", "e_order_m1",
            "e_order", "e_above_order", "e_negative", "s_zero", "s_order",
            "s_negative", "flip_y", "y_zero", "y_one", "y_prime",
            "y_above_prime", "y_negative", "wrong_address",
        ]),
    ),
    min_size=1,
    max_size=8,
)


def build_item(spec: Tuple[int, int, str]):
    sender, message, mutation = spec
    signature = _signature(sender, message)
    address = SENDERS[sender].address
    e, s, y = signature.e, signature.s, signature.public_key
    if mutation == "flip_s":
        s ^= 1 << (message % 64)
    elif mutation == "flip_e":
        e ^= 1 << (message % 64)
    elif mutation == "swap_key":
        y = _signature((sender + 1) % N_SENDERS, message).public_key
    elif mutation == "e_zero":
        e = 0
    elif mutation == "e_order_m1":
        e = GROUP_ORDER - 1
    elif mutation == "e_order":
        e = GROUP_ORDER
    elif mutation == "e_above_order":
        e = 2 * GROUP_ORDER + 1 + e
    elif mutation == "e_negative":
        e = -e - 1
    elif mutation == "s_zero":
        s = 0
    elif mutation == "s_order":
        s = s + GROUP_ORDER  # same group element: must still verify
    elif mutation == "s_negative":
        s = s - GROUP_ORDER  # ditto, via the negative representative
    elif mutation == "flip_y":
        y ^= 1 << (message % 64)
    elif mutation == "y_zero":
        y = 0
    elif mutation == "y_one":
        y = 1
    elif mutation == "y_prime":
        y = GROUP_PRIME
    elif mutation == "y_above_prime":
        y += GROUP_PRIME
    elif mutation == "y_negative":
        y = -y
    elif mutation == "wrong_address":
        address = SENDERS[(sender + 1) % N_SENDERS].address
    return (Signature(e=e, s=s, public_key=y), _message(message), address)


class TestBatchScalarVerdictEquivalence:
    @given(specs=ITEM_SPECS, duplicate=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_batch_verdicts_equal_scalar_verdicts(self, specs, duplicate):
        items = [build_item(spec) for spec in specs]
        if duplicate:
            items.append(items[0])
        verifier = BatchVerifier()
        assert verifier.verify_batch(items) == [
            verify_signature(signature, message, address)
            for signature, message, address in items
        ]

    @given(specs=ITEM_SPECS)
    @settings(max_examples=15, deadline=None)
    def test_exactly_one_forgery_is_attributed(self, specs):
        # However large the honest batch, one forged response must be
        # rejected at *its* position and nowhere else.
        items = [build_item((sender, message, "valid"))
                 for sender, message, _ in specs]
        position = len(items) // 2
        signature, message, address = items[position]
        items[position] = (
            Signature(e=signature.e, s=signature.s ^ 2,
                      public_key=signature.public_key), message, address)
        verdicts = BatchVerifier().verify_batch(items)
        expected = [True] * len(items)
        expected[position] = False
        assert verdicts == expected


class TestBisectionIsolation:
    """Corrupt the verifier's own arithmetic; bisection must contain it.

    Forged *signatures* never trip the RLC gate (their commitments are
    reconstructed exactly; the challenge hash check rejects them).  The
    gate exists for the optimised arithmetic itself, so these tests poison
    a promoted per-key comb table -- the batch then computes a wrong
    commitment, the RLC fails, and deterministic bisection must re-derive
    every affected verdict on the scalar path.
    """

    def _poisoned_verifier(self, victim: int) -> BatchVerifier:
        verifier = BatchVerifier()
        warm = [build_item((victim, message, "valid")) for message in range(4)]
        assert verifier.verify_batch(warm) == [True] * 4
        public_key = warm[0][0].public_key
        entry = verifier._combs.get(public_key)
        assert entry is not None and entry[1] is not None, "comb not promoted"
        # A comb for the *wrong* base: every power it serves is garbage.
        entry[1] = _FixedBaseComb(pow(public_key, -1, GROUP_PRIME) * 2
                                  % GROUP_PRIME, GROUP_PRIME, window_bits=4)
        return verifier

    @given(specs=ITEM_SPECS, victim=sender_idx)
    @settings(max_examples=15, deadline=None)
    def test_poisoned_comb_verdicts_still_scalar_identical(
            self, specs, victim):
        verifier = self._poisoned_verifier(victim)
        items = [build_item(spec) for spec in specs]
        # Guarantee the victim's poisoned table is actually consulted.
        items.append(build_item((victim, 7, "valid")))
        assert verifier.verify_batch(items) == [
            verify_signature(signature, message, address)
            for signature, message, address in items
        ]
        assert verifier.stats.rlc_failures > 0
        assert verifier.stats.scalar_fallbacks > 0

    def test_bisection_path_exercised_on_mixed_batch(self):
        verifier = self._poisoned_verifier(0)
        items = [build_item((sender, message, "valid"))
                 for sender in range(N_SENDERS) for message in range(2)]
        assert verifier.verify_batch(items) == [True] * len(items)
        # More than one fast-path item forces midpoint splits, not just a
        # single scalar retry.
        assert verifier.stats.bisections > 0
        assert verifier.stats.rlc_failures > verifier.stats.scalar_fallbacks \
            or verifier.stats.scalar_fallbacks >= 1


# -- batch-verified production vs the serial chain --------------------------

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("transfer"), sender_idx, sender_idx,
                  st.integers(min_value=1, max_value=10**15)),
        st.tuples(st.just("mint"), sender_idx,
                  st.integers(min_value=1, max_value=10**15)),
        # A forged submission: valid public key, corrupted response.  The
        # serial path raises at submit; the batch path admits and must
        # evict at settle.  Either way it never lands in a block.
        st.tuples(st.just("forge"), st.integers(min_value=0, max_value=2),
                  st.integers(min_value=1, max_value=10**6)),
        st.tuples(st.just("block")),
    ),
    min_size=1,
    max_size=10,
)


def _signed(kind: str, sender: KeyPair, nonce: int, **fields) -> Transaction:
    key = (kind, sender.address, nonce, tuple(sorted(fields.items())))
    tx = _tx_memo.get(key)
    if tx is None:
        tx = Transaction(
            sender=Address(sender.address),
            nonce=nonce,
            gas_price=GAS_PRICE,
            **fields,
        ).sign(sender)
        _tx_memo[key] = tx
    return tx


def _forged_tx(forger_idx: int, value: int) -> Transaction:
    key = ("forged", forger_idx, value)
    tx = _tx_memo.get(key)
    if tx is None:
        forger = FORGERS[forger_idx]
        tx = Transaction(
            sender=Address(forger.address),
            to=Address(SENDERS[0].address),
            value=value,
            nonce=0,
            gas_price=GAS_PRICE,
            gas_limit=21_000,
        )
        signature = forger.sign(tx.hash)
        tx.signature = Signature(e=signature.e, s=signature.s ^ 1,
                                 public_key=signature.public_key)
        _tx_memo[key] = tx
    return tx


def fund_all(chain: Blockchain) -> None:
    for keypair in SENDERS + FORGERS:
        chain.mint(keypair.address, ether_to_wei(50))


def apply_op(chain: Blockchain, op) -> None:
    def nonce(kp: KeyPair) -> int:
        return (chain.state.nonce_of(kp.address)
                + chain.mempool.pending_count(Address(kp.address).lower))
    kind = op[0]
    if kind == "transfer":
        _, src, dst, value = op
        sender = SENDERS[src]
        chain.submit_transaction(_signed(
            "transfer", sender, nonce(sender),
            to=Address(SENDERS[dst].address), value=value, gas_limit=21_000))
    elif kind == "forge":
        _, forger_idx, value = op
        try:
            chain.submit_transaction(_forged_tx(forger_idx, value))
        except InvalidSignatureError:
            pass  # the serial path rejects at submit; batch evicts at settle
    elif kind == "mint":
        _, src, amount = op
        chain.mint(SENDERS[src].address, amount)
    elif kind == "block":
        chain.produce_block()


def run_workload(ops, batch_verify=None) -> Blockchain:
    chain = Blockchain(
        config=ChainConfig(),
        backend=default_registry(),
        clock=SimulatedClock(start_time=0.0),
        validators=[VALIDATOR],
        genesis_timestamp=0.0,
        batch_verify=batch_verify,
    )
    fund_all(chain)
    for op in ops:
        apply_op(chain, op)
    chain.produce_blocks_until_empty()
    if chain.batchverify is not None:
        assert chain.batchverify.pipeline_fallbacks == 0
        chain.batchverify.close()
    return chain


def fingerprint(chain: Blockchain) -> dict:
    return {
        "digest": state_digest(chain.state),
        "blocks": [chain.get_block(i).hash for i in range(chain.height + 1)],
        "receipts": {
            tx_hash: receipt.to_dict()
            for tx_hash, receipt in sorted(chain._receipts.items())
        },
        "gas": [chain.get_block(i).header.gas_used
                for i in range(chain.height + 1)],
    }


class TestBatchProductionEquivalence:
    @given(ops=OPS)
    @settings(max_examples=12, deadline=None)
    def test_inline_batches_match_serial(self, ops):
        assert fingerprint(run_workload(
            ops, batch_verify=BatchVerifyConfig(verify_workers=0))) == \
            fingerprint(run_workload(ops))

    @given(ops=OPS)
    @settings(max_examples=5, deadline=None)
    def test_pipelined_workers_match_serial(self, ops):
        config = BatchVerifyConfig(verify_workers=2, pipeline=True)
        assert fingerprint(run_workload(ops, batch_verify=config)) == \
            fingerprint(run_workload(ops))


class TestBatchEquivalenceAcrossReorg:
    @given(ops=OPS)
    @settings(max_examples=5, deadline=None)
    def test_follower_reorgs_cleanly_over_batch_blocks(self, ops):
        # A batch-verified leader produces blocks; a scalar fork-choice
        # follower re-executes them (replay verifies on the authoritative
        # path) and must land on the identical state -- then survive being
        # reorged onto a rival branch.  The seed transfer guarantees the
        # leader is past genesis, so there is always a tip to abandon.
        ops = [("transfer", 0, 1, 7), ("block",)] + list(ops)
        leader = run_workload(
            ops, batch_verify=BatchVerifyConfig(verify_workers=0))
        follower = Blockchain(
            config=ChainConfig(),
            backend=default_registry(),
            clock=SimulatedClock(start_time=0.0),
            validators=[VALIDATOR],
            genesis_timestamp=0.0,
        )
        follower.enable_fork_choice(default_registry(), snapshot_interval=2)
        fund_all(follower)
        for op in ops:
            if op[0] == "mint":
                follower.mint(SENDERS[op[1]].address, op[2])
        for number in range(1, leader.height + 1):
            assert follower.apply_block(
                leader.get_block(number).to_record()) == "extended"
        assert state_digest(follower.state) == state_digest(leader.state)

        rival = Blockchain(
            config=ChainConfig(),
            backend=default_registry(),
            clock=SimulatedClock(start_time=leader.latest_block.timestamp),
            validators=[RIVAL_VALIDATOR],
            genesis_timestamp=0.0,
        )
        rival.enable_fork_choice(default_registry(), snapshot_interval=2)
        fund_all(rival)
        for op in ops:
            if op[0] == "mint":
                rival.mint(SENDERS[op[1]].address, op[2])
        for number in range(1, leader.height):
            assert rival.apply_block(
                leader.get_block(number).to_record()) == "extended"
        statuses = [follower.apply_block(rival.produce_block().to_record())
                    for _ in range(2)]
        assert "reorged" in statuses
        assert follower.latest_block.hash == rival.latest_block.hash
        assert state_digest(follower.state) == state_digest(rival.state)


class TestBatchEquivalenceAcrossRecovery:
    @given(ops=OPS)
    @settings(max_examples=3, deadline=None)
    def test_kill9_recovery_of_a_batch_node(self, ops):
        # A batch-verified node persists through a WAL and "dies" with a
        # *forged* transaction still pending (admitted by deferred
        # admission, recorded in the WAL, not yet settled).  Recovery
        # replays on the scalar path, so it must drop the forgery and land
        # on the identical head/state.
        directory = tempfile.mkdtemp(prefix="bv-prop-store-")
        try:
            node = EthereumNode(
                backend=default_registry(),
                clock=SimulatedClock(start_time=0.0),
                validators=[VALIDATOR],
                storage=StorageConfig(backend="log", directory=directory,
                                      snapshot_interval_blocks=3),
                batch_verify=BatchVerifyConfig(verify_workers=0),
            )
            chain = node.chain
            fund_all(chain)
            for op in ops:
                apply_op(chain, op)
            chain.produce_blocks_until_empty()
            # The dying gasp: a forged pending transaction in the WAL.
            apply_op(chain, ("forge", 0, 999_983))
            truth = {
                "head": chain.latest_block.hash,
                "height": chain.height,
                "digest": state_digest(chain.state),
            }
            chain.batchverify.close()
            node.storage.close()

            revived = recover_node(
                StorageConfig(backend="log", directory=directory),
                backend=default_registry())
            try:
                assert revived.chain.height == truth["height"]
                assert revived.chain.latest_block.hash == truth["head"]
                assert state_digest(revived.chain.state) == truth["digest"]
                assert revived.chain.dropped_pending_on_recovery >= 1
            finally:
                revived.storage.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
