"""Push/poll parity: ``eth_subscribe`` streams must byte-match the polling
filters (``eth_getFilterChanges``) over the same block window -- including
across a fork-choice reorg.  Both surfaces share the poll cores in
``repro.rpc.filters``, so these tests pin the contract that refactors must
not split them apart."""

import json

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.account import Address
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.events import LogFilter
from repro.chain.transaction import Transaction, encode_call, encode_create
from repro.cluster.forkchoice import ForkChoice
from repro.contracts import default_registry
from repro.net import SubscriptionManager
from repro.rpc.filters import FilterManager
from repro.utils.clock import SimulatedClock
from repro.utils.units import ether_to_wei

ALICE = KeyPair.from_label("net-parity-alice")


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def make_node():
    node = EthereumNode(backend=default_registry())
    Faucet(node).drip(ALICE.address, ether_to_wei(5))
    return node


def make_fork_chain(validator_label, clock):
    chain = Blockchain(
        config=ChainConfig(),
        backend=default_registry(),
        clock=clock,
        validators=[Address(KeyPair.from_label(validator_label).address)],
        genesis_timestamp=0.0,
    )
    return ForkChoice(chain, default_registry(), snapshot_interval=2)


def node_over(chain):
    """A node whose chain is a fork choice's: the reorg tests drive the fork
    choice and read through the node."""
    node = EthereumNode(clock=chain.clock)
    node.chain = chain
    return node


def send_transfer(node, nonce):
    tx = Transaction(sender=Address(ALICE.address),
                     to=Address("0x" + "66" * 20), value=1, nonce=nonce,
                     gas_limit=21_000, gas_price=10**9).sign(ALICE)
    return node.send_transaction(tx)


def pushed(manager):
    """Payloads the subscription pushed since the last pump."""
    return [payload for _, payload in manager.pump()]


class TestSteadyStateParity:
    def test_new_heads_stream_matches_block_filter_and_get_block(self):
        node = make_node()
        filters, subs = FilterManager(node), SubscriptionManager(node)
        filter_id = filters.new_block_filter()
        subs.subscribe("newHeads")

        send_transfer(node, nonce=0)
        node.mine(3)

        polled_hashes = filters.changes(filter_id)
        payloads = pushed(subs)
        # Same window, same blocks: the pushed heads are exactly the polled
        # hashes, and each head is byte-identical to getBlockByNumber.
        assert canonical([p["header"]["hash"] for p in payloads]) == \
            canonical(polled_hashes)
        from repro.rpc import JsonRpcGateway, make_request
        gateway = JsonRpcGateway(node=node)
        for payload in payloads:
            reply = gateway.handle(make_request(
                "eth_getBlockByNumber", [payload["header"]["number"], False]))
            assert canonical(payload) == canonical(reply["result"])

    def test_pending_transaction_stream_matches_pending_filter(self):
        node = make_node()
        filters, subs = FilterManager(node), SubscriptionManager(node)
        filter_id = filters.new_pending_transaction_filter()
        subs.subscribe("newPendingTransactions")

        for nonce in range(3):
            send_transfer(node, nonce=nonce)

        assert canonical(pushed(subs)) == canonical(filters.changes(filter_id))
        node.mine(1)
        # Both drained: nothing new on either surface.
        assert pushed(subs) == filters.changes(filter_id) == []

    def test_log_stream_matches_log_filter_with_criteria(self):
        node = make_node()
        deploy = Transaction(
            sender=Address(ALICE.address), to=None,
            data=encode_create("CidStorage", []),
            nonce=node.pending_nonce(ALICE.address),
            gas_limit=3_000_000, gas_price=10**9,
        ).sign(ALICE)
        node.send_transaction(deploy)
        node.mine(1)
        contract = str(node.get_receipt(deploy.hash_hex).contract_address)

        criteria = LogFilter(address=Address(contract))
        filters, subs = FilterManager(node), SubscriptionManager(node)
        filter_id = filters.new_log_filter(criteria)
        subs.subscribe("logs", criteria=criteria)

        for index in range(2):
            upload = Transaction(
                sender=Address(ALICE.address), to=Address(contract),
                data=encode_call("uploadCid", [f"bafy-parity-{index}"]),
                nonce=node.pending_nonce(ALICE.address),
                gas_limit=1_000_000, gas_price=10**9,
            ).sign(ALICE)
            node.send_transaction(upload)
            node.mine(1)

        polled = filters.changes(filter_id)
        assert len(polled) == 2
        assert canonical(pushed(subs)) == canonical(polled)


class TestReorgParity:
    def test_surfaces_agree_across_a_fork_choice_reorg(self):
        clock = SimulatedClock()
        ours = make_fork_chain("net-parity-val-a", clock)
        theirs = make_fork_chain("net-parity-val-b", clock)
        key = KeyPair.from_label("net-parity-bob")
        for chain in (ours, theirs):
            chain.mint(key.address, 10**18)
        node = node_over(ours.chain)

        filters, subs = FilterManager(node), SubscriptionManager(node)
        filter_id = filters.new_block_filter()
        subs.subscribe("newHeads")
        polled_history, pushed_history = [], []

        def poll_both():
            polled = filters.changes(filter_id)
            payloads = pushed(subs)
            polled_history.extend(polled)
            pushed_history.extend(payloads)
            assert canonical([p["header"]["hash"] for p in payloads]) == \
                canonical(polled)
            return polled

        shared = ours.produce_block()
        theirs.apply_block(shared.to_record())
        assert poll_both() == [shared.hash]

        # Partition: we mine one block with a transfer; they mine two empty.
        tx = Transaction(sender=Address(key.address),
                         to=Address("0x" + "77" * 20), value=1, nonce=0,
                         gas_limit=21_000, gas_price=10**9).sign(key)
        ours.chain.submit_transaction(tx)
        abandoned = ours.produce_block()
        assert poll_both() == [abandoned.hash]
        their_blocks = [theirs.produce_block() for _ in range(2)]

        statuses = [ours.apply_block(block.to_record())
                    for block in their_blocks]
        assert statuses == ["side", "reorged"]
        assert node.get_block(node.block_number).hash == \
            theirs.chain.latest_block.hash

        # After the reorg BOTH surfaces report the same window -- the new
        # canonical blocks past the cursor -- with byte-identical content.
        post_reorg = poll_both()
        assert post_reorg == [their_blocks[1].hash]
        assert canonical([p["header"]["hash"] for p in pushed_history]) == \
            canonical(polled_history)
        # Both are drained identically afterwards.
        assert poll_both() == []

    def test_requeued_transactions_reach_both_pending_surfaces(self):
        clock = SimulatedClock()
        ours = make_fork_chain("net-parity-val-c", clock)
        theirs = make_fork_chain("net-parity-val-d", clock)
        key = KeyPair.from_label("net-parity-carol")
        for chain in (ours, theirs):
            chain.mint(key.address, 10**18)
        node = node_over(ours.chain)

        filters, subs = FilterManager(node), SubscriptionManager(node)
        filter_id = filters.new_pending_transaction_filter()
        subs.subscribe("newPendingTransactions")

        tx = Transaction(sender=Address(key.address),
                         to=Address("0x" + "88" * 20), value=1, nonce=0,
                         gas_limit=21_000, gas_price=10**9).sign(key)
        tx_hash = ours.chain.submit_transaction(tx)
        assert canonical(pushed(subs)) == \
            canonical(filters.changes(filter_id)) != canonical([])

        ours.produce_block()                   # includes the tx on our branch
        for block in (theirs.produce_block(), theirs.produce_block()):
            ours.apply_block(block.to_record())
        assert tx_hash in ours.chain.mempool         # reorg requeued it

        # Whatever the requeue journalled, both surfaces must agree on it.
        assert canonical(pushed(subs)) == canonical(filters.changes(filter_id))
