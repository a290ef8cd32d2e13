"""Property-based OLTP <-> analytics parity (ISSUE: the HTAP parity pin).

One marketplace chain is built once per module; hypothesis then explores
``LogFilter`` criteria, page limits and cursor walks, asserting the replica
answers are *byte-identical* to the OLTP scan path -- including full cursor
walks, and (deterministic cases) across a live reorg and a kill-9 recovery
backfill.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import PAYMENT_EVENT, SUBMISSION_EVENT, attach_analytics
from repro.chain import KeyPair
from repro.chain.account import Address
from repro.chain.events import LogFilter
from repro.chain.explorer import Explorer
from repro.contracts import default_registry
from repro.storage import StorageConfig, StorageEngine, recover_node

from tests.analytics.conftest import build_marketplace_node

#: Built once: hypothesis examples must not mutate it, only read.
NODE, _ENGINE = build_marketplace_node(label="an-prop")
CHAIN = NODE.chain
FEEDER = attach_analytics(CHAIN)
HEIGHT = CHAIN.height

EVENT_NAMES = st.sampled_from(
    [None, PAYMENT_EVENT, SUBMISSION_EVENT, "OwnerRegistered", "NoSuchEvent"])
ADDRESSES = st.sampled_from(
    [None] + sorted({str(log.address) for log in CHAIN.iter_logs()}))
BLOCK_NUMBERS = st.integers(min_value=0, max_value=HEIGHT + 2)


def scan(query):
    """Run ``query`` against the raw OLTP scan path (replica detached)."""
    CHAIN.analytics = None
    try:
        return query()
    finally:
        CHAIN.analytics = FEEDER


@st.composite
def log_filters(draw):
    lo = draw(BLOCK_NUMBERS)
    hi = draw(st.one_of(st.none(), BLOCK_NUMBERS))
    address = draw(ADDRESSES)
    return LogFilter(
        address=None if address is None else Address(address),
        event_name=draw(EVENT_NAMES),
        from_block=lo,
        to_block=hi,
    )


class TestLogParityProperties:
    @given(log_filter=log_filters())
    @settings(max_examples=60, deadline=None)
    def test_logs_match_the_scan_path(self, log_filter):
        assert CHAIN.logs(log_filter) == scan(lambda: CHAIN.logs(log_filter))

    @given(log_filter=log_filters(),
           limit=st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_full_cursor_walk_is_byte_identical(self, log_filter, limit):
        cursor = None
        for _ in range(1 + CHAIN.log_count // limit + 1):
            replica = CHAIN.logs_page(log_filter, limit=limit, cursor=cursor)
            oltp = scan(lambda: CHAIN.logs_page(log_filter, limit=limit,
                                                cursor=cursor))
            assert replica.logs == oltp.logs
            assert replica.next_cursor == oltp.next_cursor
            cursor = replica.next_cursor
            if cursor is None:
                break
        assert cursor is None

    @given(cursor=st.integers(min_value=0, max_value=60),
           limit=st.one_of(st.none(), st.integers(min_value=1, max_value=30)))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_cursor_positions_agree(self, cursor, limit):
        replica = CHAIN.logs_page(limit=limit, cursor=str(cursor))
        oltp = scan(lambda: CHAIN.logs_page(limit=limit, cursor=str(cursor)))
        assert replica.logs == oltp.logs
        assert replica.next_cursor == oltp.next_cursor


class TestRecordParityProperties:
    @given(limit=st.integers(min_value=1, max_value=20),
           use_address=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_records_page_cursor_walk(self, limit, use_address):
        explorer = Explorer(CHAIN)
        address = KeyPair.from_label("an-prop-buyer").address \
            if use_address else None
        cursor = None
        for _ in range(1 + len(FEEDER.store.records) // limit + 1):
            replica_page, replica_cursor = explorer.records_page(
                address=address, limit=limit, cursor=cursor)
            oltp_page, oltp_cursor = scan(
                lambda: Explorer(CHAIN).records_page(
                    address=address, limit=limit, cursor=cursor))
            assert [r.transaction.hash_hex for r in replica_page] == \
                [r.transaction.hash_hex for r in oltp_page]
            assert replica_cursor == oltp_cursor
            cursor = replica_cursor
            if cursor is None:
                break
        assert cursor is None


class TestReorgAndRecoveryParity:
    """Deterministic HTAP parity across the two history-rewriting hazards."""

    def test_parity_survives_a_live_reorg(self):
        from tests.analytics.test_feeder import (
            fork_transfer,
            make_fork_chain,
        )
        from repro.utils.clock import SimulatedClock

        clock = SimulatedClock()
        a = make_fork_chain("an-prop-val-a", clock)
        b = make_fork_chain("an-prop-val-b", clock)
        key = KeyPair.from_label("an-prop-forker")
        for chain in (a, b):
            chain.mint(key.address, 10**18)
        shared = a.produce_block()
        b.apply_block(shared.to_record())
        feeder = attach_analytics(a.chain)
        fork_transfer(a, key, nonce=0)
        a.produce_block()
        feeder.drain()
        for block in (b.produce_block(), b.produce_block()):
            a.apply_block(block.to_record())
        assert feeder.rollbacks == 1
        replica_logs = feeder.logs()
        replica_summary = feeder.fee_summary_by_kind()
        a.chain.analytics = None
        try:
            assert replica_logs == a.chain.logs()
            assert replica_summary == Explorer(a.chain).fee_summary_by_kind()
        finally:
            a.chain.analytics = feeder

    def test_parity_survives_kill_minus_nine_backfill(self, tmp_path):
        config = StorageConfig(backend="log", directory=str(tmp_path / "s"),
                               snapshot_interval_blocks=3)
        durable = StorageEngine(config)
        node, _ = build_marketplace_node_on(durable, label="an-prop-crash")
        truth_logs = list(node.chain.iter_logs())
        truth_summary = Explorer(node.chain).fee_summary_by_kind()
        durable.close()

        revived = recover_node(StorageConfig(backend="log",
                                             directory=str(tmp_path / "s")),
                               backend=default_registry())
        feeder = attach_analytics(revived.chain)
        assert feeder.logs() == truth_logs
        assert feeder.fee_summary_by_kind() == truth_summary
        revived.storage.close()


def build_marketplace_node_on(engine, label):
    """``build_marketplace_node`` over a caller-supplied engine."""
    from repro.chain import EthereumNode, Faucet
    from repro.utils.units import ether_to_wei, gwei_to_wei

    gas_price = gwei_to_wei(1)
    node = EthereumNode(backend=default_registry(), storage=engine)
    faucet = Faucet(node)
    buyer = KeyPair.from_label(f"{label}-buyer")
    faucet.drip(buyer.address, ether_to_wei(2))
    spec = {"task": "digit-classification", "model": [784, 100, 10],
            "max_owners": 2}
    deploy = node.wait_for_receipt(
        node.deploy_contract(buyer, "FLTask", [spec],
                             value=ether_to_wei("0.01"), gas_price=gas_price))
    for index in range(2):
        keys = KeyPair.from_label(f"{label}-owner-{index}")
        faucet.drip(keys.address, ether_to_wei("0.05"))
        node.wait_for_receipt(node.transact_contract(
            keys, deploy.contract_address, "registerOwner", [],
            gas_price=gas_price))
        node.wait_for_receipt(node.transact_contract(
            keys, deploy.contract_address, "uploadCid", [f"Qm{index:044d}"],
            gas_price=gas_price))
    return node, engine
