"""The blockchain: canonical block list, state and block production."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import (
    BlockValidationError,
    ReproError,
    UnknownBlockError,
    UnknownTransactionError,
)
from repro.chain.account import Address
from repro.chain.block import (
    Block,
    BlockHeader,
    block_from_record,
    compute_receipts_root,
    compute_transactions_root,
    make_genesis_block,
)
from repro.chain.consensus import ProofOfAuthority
from repro.chain.events import EventLog, LogFilter, LogPage, parse_cursor
from repro.chain.executor import BlockContext, ContractBackend, TransactionExecutor
from repro.chain.mempool import Mempool, next_version
from repro.chain.receipts import TransactionReceipt
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.obs import NULL_OBSERVABILITY
from repro.utils.clock import SimulatedClock


@dataclass
class ChainConfig:
    """Static parameters of the simulated network."""

    chain_id: int = 11155111  # Sepolia's chain id
    name: str = "simulated-sepolia"
    block_gas_limit: int = 30_000_000
    slot_seconds: float = 12.0


class NullChainStore:
    """What ``Blockchain.store`` is when nothing persists the chain.

    Stateless: every hook of :class:`repro.storage.ChainStore` exists and
    does nothing, so the write path never branches on durability.  It lives
    here because the chain package never imports ``repro.storage``.
    """

    __slots__ = ()

    #: No storage engine behind it (what ``EthereumNode.storage`` reads).
    engine = None

    def attach(self, chain: "Blockchain") -> None:
        return None

    def record_mint(self, address: str, amount_wei: int) -> None:
        return None

    def record_transaction(self, chain: "Blockchain", tx: Transaction) -> None:
        return None

    def record_block(self, chain: "Blockchain", block: Block) -> None:
        return None

    def snapshot(self, chain: "Blockchain") -> None:
        return None


NULL_CHAIN_STORE = NullChainStore()


class Blockchain:
    """Canonical chain: genesis, state, mempool and block production.

    Block production is explicit: callers (usually
    :class:`repro.chain.node.EthereumNode`) call :meth:`produce_block`, which
    advances the simulated clock to the next slot boundary, drains eligible
    transactions from the mempool, executes them and appends the block.

    Cluster replicas drive it through :class:`repro.cluster.forkchoice.ForkChoice`,
    which owns side blocks and reorgs and reaches the chain only through
    :meth:`replay_block`, :meth:`rewind` and :meth:`re_execute`.
    """

    def __init__(
        self,
        config: Optional[ChainConfig] = None,
        backend: Optional[ContractBackend] = None,
        clock: Optional[SimulatedClock] = None,
        validators: Optional[List[Address]] = None,
        genesis_timestamp: Optional[float] = None,
        store: Optional[Any] = None,
        batch_verify: Optional[int] = None,
    ) -> None:
        self.config = config or ChainConfig()
        self.clock = clock or SimulatedClock()
        self.state = WorldState()
        self.mempool = Mempool()
        #: Genesis anchor for slot arithmetic.  Defaults to "now", but crash
        #: recovery (``repro.storage``) passes the recorded original so a
        #: rebuilt chain keeps the same slot boundaries as the dead one.
        self.genesis_timestamp = (
            float(genesis_timestamp) if genesis_timestamp is not None else self.clock.now
        )
        self.consensus = ProofOfAuthority(
            validators=validators or [],
            slot_seconds=self.config.slot_seconds,
            genesis_timestamp=self.genesis_timestamp,
        )
        self.executor = TransactionExecutor(backend=backend)
        genesis = make_genesis_block(timestamp=self.genesis_timestamp)
        self._blocks: List[Block] = [genesis]
        self._blocks_by_hash: Dict[str, Block] = {genesis.hash: genesis}
        self._receipts: Dict[str, TransactionReceipt] = {}
        self._transactions: Dict[str, Transaction] = {}
        self._logs: List[EventLog] = []
        #: Durable write hooks: a ``repro.storage`` ``ChainStore`` (WAL +
        #: snapshots), or the null store that keeps the chain in-process.
        self.store = store or NULL_CHAIN_STORE
        self.store.attach(self)
        #: The version of the last mutation outside the mempool: a mint, an
        #: appended block or a rewind (see :attr:`version`).
        self._version = next_version()
        #: Observability hooks (``repro.obs``): the no-op facade until
        #: ``Observability.attach_chain`` overwrites it, so the write path
        #: below has one body whether or not a run is observed.
        self.obs: Any = NULL_OBSERVABILITY
        #: Replica label stamped on this chain's spans (``None`` single-node).
        self.obs_label: Optional[str] = None
        #: Optional analytics replica (``repro.analytics``).  ``None`` -- the
        #: seed default -- serves every analytical read from the in-process
        #: scan path; attached via ``repro.analytics.attach_analytics``, which
        #: routes ``logs``/``logs_page`` (and the explorer) to the replica.
        self.analytics: Optional[Any] = None
        #: Optional deferred signature verification (``repro.batchverify``).
        #: ``None`` -- the seed default -- verifies every signature at
        #: submission; same gating idiom as the attributes above.  See
        #: :meth:`enable_batch_verify`.
        self.batchverify: Optional[Any] = None
        if batch_verify is not None:
            self.enable_batch_verify(batch_verify)

    # -- chain accessors -----------------------------------------------------

    @property
    def version(self) -> int:
        """Changes at every mutation a read can observe, and only then.

        Mints, appended blocks, rewinds and mempool adds and removes each
        draw a fresh number from one process-wide counter, so the latest of
        the chain's and the mempool's names this chain's state and no other.
        The gateway's reply cache keys on it.
        """
        return max(self._version, self.mempool.version)

    @property
    def height(self) -> int:
        """Number of the latest block."""
        return self._blocks[-1].number

    @property
    def latest_block(self) -> Block:
        """The most recently produced block."""
        return self._blocks[-1]

    def get_block(self, number_or_hash) -> Block:
        """Look up a block by height (int) or hash (hex string)."""
        if isinstance(number_or_hash, int):
            if not 0 <= number_or_hash < len(self._blocks):
                raise UnknownBlockError(f"no block at height {number_or_hash}")
            return self._blocks[number_or_hash]
        block = self._blocks_by_hash.get(number_or_hash)
        if block is None:
            raise UnknownBlockError(f"no block with hash {number_or_hash}")
        return block

    def iter_blocks(self):
        """Iterate blocks from genesis to the tip without a list copy.

        The iterator variant of :meth:`blocks` for internal scan sites
        (explorer walks, replica resync, analytics backfill) that only need
        one pass and not a stable snapshot.
        """
        return iter(self._blocks)

    def get_receipt(self, tx_hash: str) -> TransactionReceipt:
        """Receipt of an included transaction."""
        receipt = self._receipts.get(tx_hash)
        if receipt is None:
            raise UnknownTransactionError(f"no receipt for transaction {tx_hash}")
        return receipt

    def has_receipt(self, tx_hash: str) -> bool:
        """Whether the transaction has been included."""
        return tx_hash in self._receipts

    def get_transaction(self, tx_hash: str) -> Transaction:
        """An included or pending transaction by hash."""
        if tx_hash in self._transactions:
            return self._transactions[tx_hash]
        pending = self.mempool.get(tx_hash)
        if pending is not None:
            return pending
        raise UnknownTransactionError(f"unknown transaction {tx_hash}")

    def logs(self, log_filter: Optional[LogFilter] = None) -> List[EventLog]:
        """All event logs on the canonical chain, optionally filtered."""
        if self.analytics is not None:
            return self.analytics.logs(log_filter)
        if log_filter is None:
            return list(self._logs)
        return log_filter.apply(self._logs)

    def iter_logs(self):
        """Iterate the canonical logs without materializing a list copy.

        It always walks the OLTP log stream (never the analytics replica),
        so the parity tests can use it as the ground truth.
        """
        return iter(self._logs)

    @property
    def log_count(self) -> int:
        """Number of logs in the canonical (append-only) log stream."""
        return len(self._logs)

    def logs_page(
        self,
        log_filter: Optional[LogFilter] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> LogPage:
        """One page of the canonical log stream, filtered.

        The cursor is an opaque position in the append-only stream: pass a
        page's ``next_cursor`` back to resume exactly where it stopped.
        Cursors never invalidate because logs are only ever appended.
        """
        if self.analytics is not None:
            return self.analytics.logs_page(log_filter, limit=limit,
                                            cursor=cursor)
        start = parse_cursor(cursor, "log")
        if limit is not None and limit <= 0:
            raise ValueError(f"log page limit must be positive, got {limit}")
        matched: List[EventLog] = []
        next_cursor: Optional[str] = None
        for position in range(start, len(self._logs)):
            log = self._logs[position]
            if log_filter is not None and not log_filter.matches(log):
                continue
            matched.append(log)
            if limit is not None and len(matched) >= limit:
                # A full page always carries a cursor -- even at the current
                # end of the stream -- so tailing callers can resume after
                # more logs land; only a short page means "exhausted".
                next_cursor = str(position + 1)
                break
        return LogPage(logs=matched, next_cursor=next_cursor)

    # -- transaction intake --------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> str:
        """Validate and queue a signed transaction; returns its hash.

        With deferred verification (:meth:`enable_batch_verify`) the
        engine's :meth:`~repro.batchverify.BatchVerifyEngine.admission_check`
        raises the scalar path's exact ``InvalidSignatureError`` for anything
        decidable without the expensive curve arithmetic; what passes is
        queued unverified and settled (or evicted) as one batch at the top
        of the next block production.  Funds/gas validation is unchanged.
        """
        obs = self.obs
        deferred = self.batchverify is not None
        span = obs.tx_span("tx.submit", tx.hash_hex, replica=self.obs_label)
        try:
            with obs.phase("chain.verify"):
                if deferred:
                    self.batchverify.admission_check(tx)
                self.executor.validate(tx, self.state, check_nonce=False,
                                       check_signature=not deferred)
            mempool_span = obs.tx_span("tx.mempool", tx.hash_hex,
                                       replica=self.obs_label, link=False)
            try:
                tx_hash = self.mempool.add(tx, verify=not deferred)
            finally:
                obs.end(mempool_span.annotate("depth", len(self.mempool)))
            self.store.record_transaction(self, tx)
        except ReproError:
            obs.end(span, status="rejected")
            raise
        obs.end(span)
        return tx_hash

    def mint(self, address: Address | str, amount_wei: int) -> None:
        """Credit ``amount_wei`` out of thin air (the faucet's privilege).

        This is the only state mutation that happens outside a transaction,
        so it gets its own write-ahead-log entry -- otherwise a recovered
        chain would be missing every faucet drip.
        """
        self.state.credit(Address(address), amount_wei)
        self._version = next_version()
        self.store.record_mint(str(Address(address)), int(amount_wei))

    # -- block production ----------------------------------------------------

    def produce_block(self, advance_clock: bool = True) -> Block:
        """Produce the next block from the mempool.

        When ``advance_clock`` is true the simulated clock first advances to
        the next slot boundary, reproducing the ~12 s inclusion latency.
        """
        obs = self.obs
        span = obs.tx_span("block.produce", f"block-{self.height + 1}",
                           replica=self.obs_label)
        start = time.perf_counter()
        try:
            with obs.phase("chain.produce_block"):
                block = self._produce_block_impl(advance_clock)
        except ReproError:
            obs.end(span, status="error")
            raise
        span.annotate("height", block.number)
        span.annotate("txs", len(block.transactions))
        obs.end(span)
        obs.observe_block_production(time.perf_counter() - start)
        return block

    def _produce_block_impl(self, advance_clock: bool) -> Block:
        """Slot, settle, select, execute, seal and append one block."""
        if advance_clock:
            timestamp = self.consensus.advance_to_next_block(self.clock)
        else:
            timestamp = self.clock.now
        slot = self.consensus.slot_at(timestamp)
        proposer = self.consensus.proposer_for_slot(slot)

        if self.batchverify is not None:
            self._settle_deferred_verifies()
        candidates = self.mempool.select_for_block(
            self.state, self.config.block_gas_limit)
        block_ctx = BlockContext(
            number=self.height + 1,
            timestamp=timestamp,
            coinbase=proposer,
            gas_price=0,
        )
        included, receipts, cumulative_gas = self._execute_transactions(
            candidates, block_ctx)

        header = BlockHeader(
            number=self.height + 1,
            parent_hash=self.latest_block.hash,
            timestamp=timestamp,
            proposer=proposer,
            gas_used=cumulative_gas,
            gas_limit=self.config.block_gas_limit,
            transactions_root=compute_transactions_root(included),
            receipts_root=compute_receipts_root(receipts),
        )
        block = Block(header=header, transactions=included, receipts=receipts)
        self._append_block(block)
        return block

    def _settle_deferred_verifies(self) -> None:
        """Resolve every deferred signature verdict; evict the failures.

        Runs *before* mempool selection, so selection sees exactly the
        valid set the scalar path would have admitted (in arrival order) --
        the step that keeps batch-produced blocks fingerprint-identical to
        serial ones.  The engine verifies inline whatever its worker pool
        failed to, so the verdicts are authoritative either way.
        """
        pending = self.mempool.pending()
        if not pending:
            self.batchverify.settle(pending)
            return
        with self.obs.phase("chain.batch_verify"):
            invalid = self.batchverify.settle(pending)
        for tx in invalid:
            self.mempool.remove(tx.hash_hex)

    def _execute_transactions(self, transactions, block_ctx: BlockContext):
        """Execute an ordered transaction list against current state.

        The ONE state-transition loop: block production and write-ahead-log
        replay (:meth:`replay_block`) both run through it, which is what
        makes "a replayed block hashes identically" a structural guarantee
        rather than two hand-synchronized code paths.  Replay running
        through here is also what attributes a ``tx.execute`` span to every
        replica that re-executed a gossiped block.
        """
        obs = self.obs
        included: List[Transaction] = []
        receipts: List[TransactionReceipt] = []
        cumulative_gas = 0
        for tx in transactions:
            span = obs.tx_span("tx.execute", tx.hash_hex,
                               replica=self.obs_label, block=block_ctx.number)
            block_ctx.gas_price = tx.gas_price
            with obs.phase("chain.execute"):
                receipt = self.executor.apply(tx, self.state, block_ctx)
            cumulative_gas += receipt.gas_used
            receipt.cumulative_gas_used = cumulative_gas
            receipt.transaction_index = len(included)
            included.append(tx)
            receipts.append(receipt)
            self.mempool.remove(tx.hash_hex)
            span.annotate("gas_used", receipt.gas_used)
            obs.end(span, status="ok" if receipt.status else "reverted")
        return included, receipts, cumulative_gas

    # -- persistence and recovery (repro.storage) -----------------------------

    def import_block(self, record: Dict[str, Any]) -> Block:
        """Append an archived block verbatim, *without* re-execution.

        Used by crash recovery for history below a state snapshot: the
        snapshot already carries the post-block state, so the block record's
        receipts are trusted after the usual linkage validation plus a hash
        check against the recorded header.
        """
        block = block_from_record(record)
        recorded_hash = record["header"].get("hash")
        if recorded_hash is not None and block.hash != recorded_hash:
            raise BlockValidationError(
                f"archived block {block.number} hashes to {block.hash}, "
                f"but {recorded_hash} was recorded"
            )
        self._append_block(block)
        return block

    def replay_block(self, record: Dict[str, Any]) -> Block:
        """Re-execute a write-ahead-log block record against current state.

        The block is rebuilt exactly as :meth:`produce_block` built it --
        same timestamp, proposer and transaction order from the record, but
        with execution re-run against the live state -- and the recomputed
        hash must equal the recorded one, which proves the replayed state
        transition is identical to the original.
        """
        header = record["header"]
        transactions = [Transaction.from_dict(payload)
                        for payload in record["transactions"]]
        block_ctx = BlockContext(
            number=int(header["number"]),
            timestamp=float(header["timestamp"]),
            coinbase=Address(header["proposer"]),
            gas_price=0,
        )
        included, receipts, cumulative_gas = self._execute_transactions(
            transactions, block_ctx)

        rebuilt = BlockHeader(
            number=int(header["number"]),
            parent_hash=self.latest_block.hash,
            timestamp=float(header["timestamp"]),
            proposer=Address(header["proposer"]),
            gas_used=cumulative_gas,
            gas_limit=int(header["gas_limit"]),
            transactions_root=compute_transactions_root(included),
            receipts_root=compute_receipts_root(receipts),
            extra_data=header.get("extra_data", ""),
        )
        block = Block(header=rebuilt, transactions=included, receipts=receipts)
        recorded_hash = header.get("hash")
        if recorded_hash is not None and block.hash != recorded_hash:
            raise BlockValidationError(
                f"replayed block {block.number} hashes to {block.hash}, "
                f"but {recorded_hash} was recorded -- replay diverged"
            )
        self._append_block(block)
        return block

    def _append_block(self, block: Block) -> None:
        """Validate linkage and append ``block`` to the canonical chain."""
        parent = self.latest_block
        if block.header.parent_hash != parent.hash:
            raise BlockValidationError(
                f"block {block.number} does not extend the tip "
                f"(parent {block.header.parent_hash} != {parent.hash})"
            )
        if block.number != parent.number + 1:
            raise BlockValidationError(
                f"block number {block.number} is not parent number + 1 ({parent.number + 1})"
            )
        if block.timestamp < parent.timestamp:
            raise BlockValidationError("block timestamp precedes its parent")
        self._blocks.append(block)
        self._blocks_by_hash[block.hash] = block
        obs = self.obs
        for tx, receipt in zip(block.transactions, block.receipts):
            receipt.block_number = block.number
            receipt.block_hash = block.hash
            self._receipts[tx.hash_hex] = receipt
            self._transactions[tx.hash_hex] = tx
            for index, log in enumerate(receipt.logs):
                positioned = EventLog(
                    address=log.address,
                    name=log.name,
                    args=log.args,
                    block_number=block.number,
                    transaction_hash=tx.hash_hex,
                    log_index=index,
                )
                self._logs.append(positioned)
            obs.end(obs.tx_span("tx.receipt", tx.hash_hex,
                                replica=self.obs_label, block=block.number),
                    status="ok" if receipt.status else "reverted")
        self._version = next_version()
        self.store.record_block(self, block)

    # -- replica primitives (repro.cluster.forkchoice) ------------------------

    def knows_block(self, block_hash: str) -> bool:
        """Whether ``block_hash`` is a block on the canonical chain."""
        return block_hash in self._blocks_by_hash

    def rewind(self, height: int, state: WorldState) -> List[Block]:
        """Cut the canonical chain back to block ``height`` and adopt ``state``.

        ``state`` must be the state as of that block.  The blocks above it
        leave with their receipts, transactions and logs, and are returned
        oldest first; re-queueing their transactions is the caller's call.
        """
        abandoned = self._blocks[height + 1:]
        del self._blocks[height + 1:]
        for block in abandoned:
            self._blocks_by_hash.pop(block.hash, None)
            for tx in block.transactions:
                self._receipts.pop(tx.hash_hex, None)
                self._transactions.pop(tx.hash_hex, None)
        self._logs = [log for log in self._logs if log.block_number <= height]
        self.state = state
        self._version = next_version()
        return abandoned

    def re_execute(self, block: Block, state: WorldState) -> None:
        """Re-run ``block``'s transactions against ``state`` (not the chain's)."""
        block_ctx = BlockContext(
            number=block.number,
            timestamp=block.timestamp,
            coinbase=block.header.proposer,
            gas_price=0,
        )
        for tx in block.transactions:
            block_ctx.gas_price = tx.gas_price
            self.executor.apply(tx, state, block_ctx)

    # -- deferred verification (repro.batchverify) ----------------------------

    def enable_batch_verify(self, verify_workers: int = 0) -> None:
        """Turn on deferred signature verification (``repro.batchverify``).

        ``verify_workers`` sizes the pool that verifies the next block's
        signatures while this one executes; ``0`` settles inline.
        Idempotent (a second call replaces the engine).  Only *submission
        and production* change: replay, import and reorg re-execution
        verify as they always do, so a follower re-checks such a block on
        the authoritative path.
        """
        # Imported lazily: repro.batchverify imports the chain package, so
        # the chain must not import it at module load (same as storage).
        from repro.batchverify import BatchVerifyEngine

        if self.batchverify is not None:
            self.batchverify.close()
        self.batchverify = BatchVerifyEngine(verify_workers)

    def batchverify_stats(self) -> Dict[str, Any]:
        """Deferred-verify counters (all zeroes when disabled)."""
        if self.batchverify is None:
            from repro.batchverify.engine import zero_stats

            return zero_stats()
        return self.batchverify.stats

    def produce_blocks(
        self,
        count: Optional[int] = None,
        until_empty: bool = False,
        max_blocks: int = 100,
    ) -> List[Block]:
        """The ONE batched block-production loop.

        Explicit mining (``EthereumNode.mine``, ``evm_mine``) and drain-the-
        mempool mining (:meth:`produce_blocks_until_empty`, the simnet block
        producer) both run through this loop, so batching improvements to the
        production path apply to every caller.  With ``count`` set, exactly
        that many blocks are produced (empty blocks included); with
        ``until_empty``, production stops once the mempool drains or
        ``max_blocks`` is hit.
        """
        produced: List[Block] = []
        while True:
            if count is not None and len(produced) >= count:
                break
            if until_empty and self.batchverify is not None \
                    and len(self.mempool) > 0:
                # Deferred admission can leave *only* doomed transactions
                # pending; settle and evict them now so a drain loop does
                # not mine an empty block (the serial path, which rejected
                # them at submit, would already see an empty mempool).
                self._settle_deferred_verifies()
            if until_empty and (len(self.mempool) == 0 or len(produced) >= max_blocks):
                break
            if count is None and not until_empty:
                break
            produced.append(self.produce_block())
        return produced

    def produce_blocks_until_empty(self, max_blocks: int = 100) -> List[Block]:
        """Keep producing blocks until the mempool drains (or the cap hits)."""
        return self.produce_blocks(until_empty=True, max_blocks=max_blocks)
