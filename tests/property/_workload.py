"""The one workload generator and fingerprint of the equivalence suite.

``test_property_batchverify`` (serial == deferred/pipelined verify) and
``test_property_observed`` (observed == unobserved) execute the *identical*
submitted workload on a reference chain and on a chain with the flag turned
on, and compare :func:`fingerprint`.  This module is that
workload: the actors, the operation vocabulary (:data:`OPS`), how an
operation is applied, and what "identical" means.  It also holds the
adversarial signature items (:data:`ITEM_SPECS`, :func:`build_item`) that
``test_property_verify`` and the worker-verdict properties share.
"""

from __future__ import annotations

from typing import Dict, Tuple

from hypothesis import strategies as st

from repro.chain.account import Address
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.executor import contract_address_for
from repro.chain import keys
from repro.chain.keys import (
    KeyPair,
    Signature,
    address_from_public_key,
    to_checksum_address,
    verify_signature,
)
from repro.chain.transaction import Transaction, encode_call, encode_create
from repro.contracts.registry import default_registry
from repro.errors import InvalidSignatureError
from repro.obs import MetricsRegistry, Observability
from repro.storage import state_digest
from repro.utils.clock import SimulatedClock
from repro.utils.hashing import keccak256
from repro.utils.units import ether_to_wei, gwei_to_wei

N_SENDERS = 6
SENDERS = [KeyPair.from_label(f"prop-{i}") for i in range(N_SENDERS)]
#: Dedicated forgery senders: forged transactions must not perturb the real
#: senders' pending-nonce accounting (the default path rejects them at
#: submit, deferred admission evicts them at settle), so they come from
#: accounts that never send a valid transaction.
FORGERS = [KeyPair.from_label(f"prop-forger-{i}") for i in range(3)]
DEPLOYER = KeyPair.from_label("prop-deployer")
VALIDATOR = Address(KeyPair.from_label("prop-val").address)
RIVAL_VALIDATOR = Address(KeyPair.from_label("prop-rival").address)
GAS_PRICE = gwei_to_wei(1)

#: The shared CidStorage every example's calls target; its address is a
#: pure function of (deployer, nonce 0), identical on every chain.
SHARED_CONTRACT = contract_address_for(Address(DEPLOYER.address), 0)

#: Signing dominates example cost and is deterministic, so one memo of
#: signatures and one of signed transactions serve every example.  Handing
#: *the same transaction object* to both chains of an example also means
#: both see identical bytes by construction, not by re-derivation.
_sig_memo: Dict[Tuple[int, int], Signature] = {}
_tx_memo: Dict[tuple, Transaction] = {}

sender_idx = st.integers(min_value=0, max_value=N_SENDERS - 1)


# -- adversarial signature items --------------------------------------------

def _message(index: int) -> bytes:
    return keccak256(b"prop-message-%d" % index)


def _signature(sender: int, message: int) -> Signature:
    key = (sender, message)
    signature = _sig_memo.get(key)
    if signature is None:
        signature = SENDERS[sender].sign(_message(message))
        _sig_memo[key] = signature
    return signature


#: The response bound and the order-8 point's ``y`` (for a small-order key).
_L, _ORDER_8_Y = keys._L, keys._ORDER_8_Y

#: One verify item, possibly sabotaged.  Every mutation the verifier can
#: encounter that still fits the pool's 32-byte wire fields (or, negative,
#: cannot go on it): honest items, bit-flipped s / e, a swapped public key,
#: the commitment zeroed or made the identity, a negative commitment, the
#: response zeroed, pushed past L or made negative, a bit-flipped,
#: small-order, non-canonical or negative key, and a wrong claimed address.
ITEM_MUTATIONS = [
    "valid", "flip_s", "flip_e", "swap_key", "e_zero", "e_identity",
    "e_negative", "s_zero", "s_plus_l", "s_negative", "flip_y",
    "y_zero", "y_identity", "y_order_8", "y_non_canonical",
    "y_negative", "wrong_address",
]
ITEM_SPECS = st.lists(
    st.tuples(sender_idx, st.integers(min_value=0, max_value=11),
              st.sampled_from(ITEM_MUTATIONS)),
    min_size=1,
    max_size=8,
)


def sender_verdict(signature: Signature, message: bytes, address: str) -> bool:
    """A valid signature whose key hashes to ``address``: what a
    transaction's sender check accepts."""
    return verify_signature(signature, message) and \
        address_from_public_key(signature.public_key) == to_checksum_address(address)


def build_item(spec: Tuple[int, int, str]):
    """``(signature, message hash, claimed address)`` for one item spec."""
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
    elif mutation == "e_identity":
        e = 1
    elif mutation == "e_negative":
        e = -e - 1
    elif mutation == "s_zero":
        s = 0
    elif mutation == "s_plus_l":
        s += _L  # the same scalar mod L: refused all the same
    elif mutation == "s_negative":
        s -= _L  # ditto, via the negative representative
    elif mutation == "flip_y":
        y ^= 1 << (message % 64)
    elif mutation == "y_zero":
        y = 0
    elif mutation == "y_identity":
        y = 1
    elif mutation == "y_order_8":
        y = _ORDER_8_Y
    elif mutation == "y_non_canonical":
        y = keys._P + 2 + message  # y - P is 2..13
    elif mutation == "y_negative":
        y = -y
    elif mutation == "wrong_address":
        address = SENDERS[(sender + 1) % N_SENDERS].address
    return (Signature(e=e, s=s, public_key=y), _message(message), address)


# -- workload vocabulary ----------------------------------------------------

OPS = st.lists(
    st.one_of(
        # Plain transfer: random pair, so conflicting senders/recipients,
        # nonce chains and self-payments all occur.
        st.tuples(st.just("transfer"), sender_idx, sender_idx,
                  st.integers(min_value=1, max_value=10**15)),
        # Shared-contract write: every upload conflicts on the contract.
        st.tuples(st.just("upload"), sender_idx,
                  st.text(alphabet="abcdef", min_size=1, max_size=6)),
        # Read-only call (never blocks other reads).
        st.tuples(st.just("view"), sender_idx),
        # Failing call: getCid(10_000) reverts, exercising the
        # fee-charged/state-reverted path.
        st.tuples(st.just("fail"), sender_idx),
        # Contract creation.
        st.tuples(st.just("deploy"), sender_idx),
        # A forged submission: valid public key, corrupted response.  The
        # default path raises at submit; deferred admission admits and must
        # evict at settle.  Either way it never lands in a block.
        st.tuples(st.just("forge"), st.integers(min_value=0, max_value=2),
                  st.integers(min_value=1, max_value=10**6)),
        # Faucet mint between blocks (not a transaction at all).
        st.tuples(st.just("mint"), sender_idx,
                  st.integers(min_value=1, max_value=10**15)),
        # Explicit block boundary mid-workload.
        st.tuples(st.just("block")),
    ),
    min_size=1,
    max_size=14,
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


def fresh_chain(validator: Address = VALIDATOR, start_time: float = 0.0,
                **flags) -> Blockchain:
    """An empty chain; ``flags`` are ``Blockchain`` accelerator arguments."""
    return Blockchain(
        config=ChainConfig(),
        backend=default_registry(),
        clock=SimulatedClock(start_time=start_time),
        validators=[validator],
        genesis_timestamp=0.0,
        **flags,
    )


def fund_all(chain: Blockchain) -> None:
    for keypair in SENDERS + FORGERS + [DEPLOYER]:
        chain.mint(keypair.address, ether_to_wei(50))


def replay_mints(chain: Blockchain, ops) -> None:
    """Re-apply a workload's mints to a follower that only sees blocks.

    Mints are not transactions, so a chain that replays the leader's blocks
    must replay its mints separately.  Applying them all up front (instead
    of interleaved) is sound here: every op value is tiny against the 50
    ether seed, so no execution path depends on a mid-workload credit, and
    final balances are order-independent sums.
    """
    fund_all(chain)
    for op in ops:
        if op[0] == "mint":
            chain.mint(SENDERS[op[1]].address, op[2])


def seed_workload(chain: Blockchain) -> None:
    """Fund every actor and deploy the shared contract (block 1)."""
    fund_all(chain)
    chain.submit_transaction(_signed(
        "create", DEPLOYER, 0,
        to=None, data=encode_create("CidStorage", []), gas_limit=3_000_000))
    chain.produce_block()
    assert chain.state.get_account(SHARED_CONTRACT).is_contract


def apply_op(chain: Blockchain, op) -> None:
    def nonce(kp: KeyPair) -> int:
        return (chain.state.nonce_of(kp.address)
                + chain.mempool.pending_count(Address(kp.address).lower))

    def call(kind: str, src: int, function: str, args, gas_limit: int):
        sender = SENDERS[src]
        chain.submit_transaction(_signed(
            kind, sender, nonce(sender), to=SHARED_CONTRACT,
            data=encode_call(function, args), gas_limit=gas_limit))

    kind = op[0]
    if kind == "transfer":
        _, src, dst, value = op
        sender = SENDERS[src]
        chain.submit_transaction(_signed(
            "transfer", sender, nonce(sender),
            to=Address(SENDERS[dst].address), value=value, gas_limit=21_000))
    elif kind == "upload":
        call("upload", op[1], "uploadCid", [op[2]], 300_000)
    elif kind == "view":
        call("view", op[1], "cidCount", [], 100_000)
    elif kind == "fail":
        call("fail", op[1], "getCid", [10_000], 100_000)
    elif kind == "deploy":
        sender = SENDERS[op[1]]
        chain.submit_transaction(_signed(
            "deploy", sender, nonce(sender),
            to=None, data=encode_create("CidStorage", []),
            gas_limit=3_000_000))
    elif kind == "forge":
        try:
            chain.submit_transaction(_forged_tx(op[1], op[2]))
        except InvalidSignatureError:
            pass  # rejected at submit, or admitted and evicted at settle
    elif kind == "mint":
        chain.mint(SENDERS[op[1]].address, op[2])
    elif kind == "block":
        chain.produce_block()


def close_accelerators(chain: Blockchain) -> None:
    """Release worker processes; no pool failure may have occurred."""
    if chain.batchverify is not None:
        assert chain.batchverify.pipeline_fallbacks == 0
        chain.batchverify.close()


def run_workload(ops, batch_verify=None, observed=False) -> Blockchain:
    """Execute ``ops`` on a fresh chain; ``batch_verify`` is a worker count.

    ``observed`` attaches a real ``Observability`` (left on ``chain.obs``)
    before the first operation.
    """
    chain = fresh_chain(batch_verify=batch_verify)
    if observed:
        Observability(MetricsRegistry(), clock=chain.clock).attach_chain(chain)
    seed_workload(chain)
    for op in ops:
        apply_op(chain, op)
    chain.produce_blocks_until_empty()
    close_accelerators(chain)
    return chain


def fingerprint(chain: Blockchain) -> dict:
    """Everything equivalence promises: blocks, state, receipts, logs, gas."""
    return {
        "digest": state_digest(chain.state),
        "blocks": [chain.get_block(i).hash for i in range(chain.height + 1)],
        "receipts": {
            tx_hash: receipt.to_dict()
            for tx_hash, receipt in sorted(chain._receipts.items())
        },
        "logs": [log.to_dict() for log in chain.iter_logs()],
        "gas": [chain.get_block(i).header.gas_used
                for i in range(chain.height + 1)],
    }
