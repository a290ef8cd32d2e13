"""A JSON-RPC-shaped node interface, the analogue of a web3.py provider.

:class:`EthereumNode` is what every higher layer (wallet, backend, DApp,
workflow) talks to.  It wraps a :class:`~repro.chain.chain.Blockchain` and
exposes the familiar operations: ``get_balance``, ``get_transaction_count``,
``send_transaction``, ``wait_for_receipt``, ``call`` (read-only), gas
estimation and log queries.  ``wait_for_receipt`` triggers block production
and advances the simulated clock by the slot time, so callers experience the
same "submit, then wait ~12 s" rhythm as against Sepolia.
"""

from __future__ import annotations

from typing import Any, List, Optional, TYPE_CHECKING

from repro.errors import MempoolError, StorageError, UnknownTransactionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.simnet.netmodel import NetworkModel
from repro.chain.account import Address
from repro.chain.block import Block
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.events import EventLog, LogFilter, LogPage
from repro.chain.executor import BlockContext, ContractBackend
from repro.chain.keys import KeyPair
from repro.chain.receipts import TransactionReceipt
from repro.chain.transaction import Transaction, encode_call, encode_create
from repro.utils.clock import SimulatedClock


#: Gas limit of a transaction whose sender names none, contract creation included.
GAS_LIMIT = 3_000_000

#: Gas limit of a state-changing contract call.
CALL_GAS_LIMIT = 1_000_000

#: Blocks :meth:`EthereumNode.wait_for_receipt` (and its RPC and cluster
#: twins) produce before giving up on a transaction.
RECEIPT_WAIT_BLOCKS = 25


class EthereumNode:
    """Facade over the simulated chain, mirroring a web3 provider."""

    def __init__(
        self,
        config: Optional[ChainConfig] = None,
        backend: Optional[ContractBackend] = None,
        clock: Optional[SimulatedClock] = None,
        validators: Optional[List[Address]] = None,
        network: Optional["NetworkModel"] = None,
        storage: Optional[Any] = None,
        batch_verify: Optional[int] = None,
    ) -> None:
        engine = None
        if storage is not None:
            from repro.storage.engine import ensure_engine, recover_chain

            engine = ensure_engine(storage)
        if engine is not None and engine.holds_history():
            # The one door onto a store: its history is recovered, never
            # overwritten, and its stored parameters win.
            self.chain = recover_chain(engine, backend=backend, clock=clock)
            stored = [str(v) for v in self.chain.consensus.validators]
            if config not in (None, self.chain.config) or (
                    validators is not None and [str(v) for v in validators] != stored):
                raise StorageError(f"the caller's config or validators contradict the "
                                   f"stored chain's ({self.chain.config}, {stored})")
        else:
            self.chain = Blockchain(config=config, backend=backend, clock=clock,
                                    validators=validators,
                                    store=None if engine is None else engine.chain_store())
        self.clock = self.chain.clock
        #: The ``repro.storage`` engine persisting this node's chain: every
        #: mint/transaction/block is write-ahead logged and periodically
        #: snapshotted, and a later node over the same store recovers it.
        #: ``None`` (the null store) keeps the seed's in-process behaviour.
        self.storage = self.chain.store.engine
        #: Deferred signature verification (``repro.batchverify``): a
        #: verify-worker count; ``None`` (the seed default) keeps the
        #: verify-at-submission path.  Applied to a recovered chain too.
        if batch_verify is not None:
            self.chain.enable_batch_verify(batch_verify)
        #: Optional ``repro.simnet`` network model governing the client->node
        #: RPC link: submissions pay per-message latency (and retransmission
        #: timeouts for drops) on the simulated clock.  ``None`` (the seed
        #: default) keeps submission instantaneous.
        self.network = network
        self.dropped_submissions = 0

    # -- chain metadata ------------------------------------------------------

    @property
    def chain_id(self) -> int:
        """Network chain id (Sepolia's 11155111 by default)."""
        return self.chain.config.chain_id

    @property
    def block_number(self) -> int:
        """Height of the latest block."""
        return self.chain.height

    @property
    def version(self) -> int:
        """Changes whenever a read of this node could answer differently:
        its chain's :attr:`~repro.chain.chain.Blockchain.version`."""
        return self.chain.version

    def get_block(self, number_or_hash) -> Block:
        """Fetch a block by number or hash."""
        return self.chain.get_block(number_or_hash)

    # -- account queries -----------------------------------------------------

    def get_balance(self, address: Address | str) -> int:
        """Balance of ``address`` in wei."""
        return self.chain.state.balance_of(address)

    def get_transaction_count(self, address: Address | str) -> int:
        """Nonce (number of sent transactions) of ``address``."""
        return self.chain.state.nonce_of(address)

    def is_contract(self, address: Address | str) -> bool:
        """Whether a contract is deployed at ``address``."""
        return self.chain.state.get_account(address).is_contract

    # -- transaction lifecycle -----------------------------------------------

    def send_transaction(self, tx: Transaction) -> str:
        """Queue a signed transaction; returns the transaction hash.

        With a network model attached, submission traverses the sender->node
        RPC link: the clock advances by the link's delivery delay (including
        retransmission timeouts for dropped messages).  A submission lost
        after every retransmission raises :class:`MempoolError`, like an RPC
        endpoint that times out.
        """
        self._traverse_client_link(tx)
        return self.chain.submit_transaction(tx)

    def _traverse_client_link(self, tx: Transaction) -> None:
        """Charge the sender->node RPC link for one submission.

        No-op without a network model.  Shared by the single-node path and
        the cluster facade, so client-link loss/latency semantics cannot
        drift between them.
        """
        if self.network is not None:
            from repro.simnet.netmodel import CHAIN_ENDPOINT

            wire_bytes = 110 + len(tx.data)  # envelope + signature + calldata
            delivery = self.network.delivery_delay(str(tx.sender), CHAIN_ENDPOINT, wire_bytes)
            # The sender waited out every retransmission timeout even when
            # the submission was ultimately lost.
            self.clock.advance(delivery.delay_seconds)
            if not delivery.delivered:
                self.dropped_submissions += 1
                raise MempoolError(
                    f"transaction from {tx.sender} lost in transit to the RPC node "
                    f"(network partition or repeated drops)")

    def sign_and_send(
        self,
        keypair: KeyPair,
        to: Optional[Address | str],
        value: int = 0,
        data: bytes = b"",
        gas_limit: Optional[int] = None,
        gas_price: int = 10**9,
    ) -> str:
        """Convenience: build, sign and queue a transaction for ``keypair``."""
        sender = Address(keypair.address)
        tx = Transaction(
            sender=sender,
            to=Address(to) if to is not None else None,
            value=value,
            data=data,
            nonce=self.pending_nonce(sender),
            gas_limit=gas_limit if gas_limit is not None else GAS_LIMIT,
            gas_price=gas_price,
        )
        tx.sign(keypair)
        return self.send_transaction(tx)

    def pending_nonce(self, address: Address | str) -> int:
        """Next usable nonce, accounting for queued-but-unmined transactions."""
        addr = Address(address)
        base = self.chain.state.nonce_of(addr)
        # The mempool's sender index replaces the historical scan over the
        # whole fee-ordered pool; the count is identical.
        return base + self.chain.mempool.pending_count(addr.lower)

    def wait_for_receipt(self, tx_hash: str) -> TransactionReceipt:
        """Produce blocks until ``tx_hash`` is included; return its receipt.

        Advances the simulated clock by one slot per produced block, which is
        the latency the Fig. 7 breakdown attributes to blockchain interaction.
        """
        for _ in range(RECEIPT_WAIT_BLOCKS):
            if self.chain.has_receipt(tx_hash):
                return self.chain.get_receipt(tx_hash)
            self.chain.produce_block()
        if self.chain.has_receipt(tx_hash):
            return self.chain.get_receipt(tx_hash)
        raise UnknownTransactionError(
            f"transaction {tx_hash} not included after {RECEIPT_WAIT_BLOCKS} blocks"
        )

    def get_receipt(self, tx_hash: str) -> TransactionReceipt:
        """Receipt of an already included transaction."""
        return self.chain.get_receipt(tx_hash)

    def get_transaction(self, tx_hash: str) -> Transaction:
        """Look up a transaction (pending or included)."""
        return self.chain.get_transaction(tx_hash)

    def mint(self, address: Address | str, amount_wei: int) -> None:
        """Credit ``address`` with new wei through the chain, so the credit is
        write-ahead logged (see :meth:`Blockchain.mint`)."""
        self.chain.mint(Address(address), amount_wei)

    # -- contract interaction --------------------------------------------------

    def deploy_contract(
        self,
        keypair: KeyPair,
        contract_name: str,
        args: Optional[List[Any]] = None,
        value: int = 0,
        gas_price: int = 10**9,
    ) -> str:
        """Send a contract-creation transaction; returns the tx hash."""
        data = encode_create(contract_name, args or [])
        return self.sign_and_send(keypair, to=None, value=value, data=data, gas_price=gas_price)

    def transact_contract(
        self,
        keypair: KeyPair,
        contract_address: Address | str,
        method: str,
        args: Optional[List[Any]] = None,
        gas_price: int = 10**9,
    ) -> str:
        """Send a state-changing contract call; returns the tx hash."""
        data = encode_call(method, args or [])
        return self.sign_and_send(
            keypair,
            to=Address(contract_address),
            data=data,
            gas_limit=CALL_GAS_LIMIT,
            gas_price=gas_price,
        )

    def call(
        self,
        contract_address: Address | str,
        method: str,
        args: Optional[List[Any]] = None,
        caller: Optional[Address | str] = None,
    ) -> Any:
        """Read-only contract call (``eth_call``); free of gas fees."""
        caller_address = Address(caller) if caller is not None else Address("0x" + "00" * 20)
        return self.chain.executor.static_call(
            self.chain.state,
            caller_address,
            Address(contract_address),
            method,
            args or [],
            BlockContext(number=self.block_number, timestamp=self.clock.now),
        )

    def estimate_gas(self, tx: Transaction) -> int:
        """Estimate gas for ``tx`` without including it."""
        return self.chain.executor.estimate_gas(
            tx, self.chain.state, BlockContext(number=self.block_number, timestamp=self.clock.now)
        )

    # -- logs ------------------------------------------------------------------

    def get_logs(self, log_filter: Optional[LogFilter] = None) -> List[EventLog]:
        """Every matching event log on the canonical chain; a page of them,
        with its continuation cursor, is :meth:`get_logs_page`."""
        return self.chain.logs(log_filter)

    def get_logs_page(
        self,
        log_filter: Optional[LogFilter] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> LogPage:
        """Paginated log query: a page of logs plus the next cursor."""
        return self.chain.logs_page(log_filter, limit=limit, cursor=cursor)

    # -- mining control ---------------------------------------------------------

    def mine(self, blocks: int = 1) -> List[Block]:
        """Explicitly produce ``blocks`` blocks (advancing the clock each slot)."""
        return self.chain.produce_blocks(count=blocks)

    def produce_pending(self, advance_clock: bool) -> int:
        """Mine one block if the mempool has work; blocks made.

        The one door of the cadence producers: a server's wall-clock tick
        advances the simulated clock a slot; a scenario's
        :func:`~repro.simnet.runner.slot_producer` mines at the current time.
        A cluster's facade must not come through here: it would mine on one
        replica outside leader rotation and gossip.  The server refuses a
        cluster stack, and ``slot_producer`` calls the cluster's
        ``produce_now`` instead.
        """
        if len(self.chain.mempool) == 0:
            return 0
        self.chain.produce_block(advance_clock=advance_clock)
        return 1
