"""Wave-parallel block execution with a deterministic serial-order commit.

The :class:`ParallelExecutor` is the coordinator behind
``Blockchain(parallel_execution=...)``.  For each block it:

1. **plans** -- extracts an :class:`~repro.parallel.access.AccessSet` per
   candidate, prechecks the block (nonce continuity, worst-case spend,
   intrinsic gas), and builds the conflict-graph wave schedule;
2. **verifies** -- farms every cold Schnorr signature out to the
   multiprocessing pool, pipelined so scoped wave execution overlaps the
   verifies; the results are joined before the first shared-state side
   effect;
3. **executes** -- runs each wave's transactions concurrently, every
   transaction against a *scoped* private state pre-loaded with copies of
   its footprint accounts (optimistic concurrency with a statically-proven
   conflict-free schedule, so validation never fails);
4. **commits** -- folds each wave's written accounts back into the shared
   chain state *in block position order* and credits the transaction fees
   to the coinbase, so the post-state is byte-identical to the serial loop.

Equivalence is defended in depth:

* the **precheck** re-proves, from transaction envelopes and pre-block
  balances alone, that the serial loop could not have raised mid-block
  (the one observable difference scoped execution cannot reproduce); any
  doubt falls back to the serial path before anything is committed;
* a **containment check** after every wave asserts each scoped state never
  grew beyond its preloaded footprint; a violation (a footprint the
  extractor got wrong) discards the wave's scoped work -- nothing of it has
  been committed -- and finishes the remaining positions serially on the
  shared state, which is sound because committed waves hold only
  transactions that every remaining position was scheduled after;
* **exclusive** transactions run alone on the shared state with the real
  block context, between fully-committed waves, exactly where the serial
  loop would run them.

Fallbacks are not failures: they are counted in :class:`ParallelStats` and
surface through the ``parallel_status`` RPC so an operator can see how
often a workload defeats the planner.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chain.executor import BlockContext, TransactionExecutor
from repro.chain.receipts import TransactionReceipt
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.parallel.access import AccessSet, extract_access
from repro.parallel.scheduler import Schedule, build_schedule, trim_to_budget
from repro.parallel.verify import SignatureVerifyPool

#: Historical per-block transaction cap (`Mempool.select_for_block`'s
#: ``max_count`` default): one slot-budget unit == one serially-executed tx.
DEFAULT_SLOT_BUDGET = 500


@dataclass(frozen=True)
class ParallelConfig:
    """Tuning knobs for the parallel block executor."""

    #: Worker threads applying scoped transactions within a wave.
    workers: int = 4
    #: Processes for Schnorr verification (0 = verify inline, no pool).
    verify_workers: int = 0
    #: Serial-equivalent execution slots per block; a wave of ``s``
    #: transactions costs ``ceil(s / workers)`` slots, an exclusive one 1.
    slot_budget: int = DEFAULT_SLOT_BUDGET
    #: Candidates pulled from the mempool per block (``None`` scales the
    #: serial cap by the worker count).
    max_select: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.verify_workers < 0:
            raise ValueError(
                f"verify_workers must be >= 0, got {self.verify_workers}")
        if self.slot_budget < 1:
            raise ValueError(
                f"slot_budget must be >= 1, got {self.slot_budget}")

    @property
    def effective_max_select(self) -> int:
        """Mempool candidates to pull per block."""
        if self.max_select is not None:
            return self.max_select
        return self.slot_budget * self.workers

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dump for RPC status and loadgen reports."""
        return {
            "workers": self.workers,
            "verify_workers": self.verify_workers,
            "slot_budget": self.slot_budget,
            "max_select": self.effective_max_select,
        }


@dataclass
class ParallelStats:
    """Cumulative counters for the ``parallel_status`` RPC and obs export."""

    blocks_parallel: int = 0
    blocks_serial_fallback: int = 0
    mid_block_fallbacks: int = 0
    txs_parallel: int = 0
    txs_exclusive: int = 0
    txs_serial_fallback: int = 0
    waves_total: int = 0
    wave_width_counts: Dict[int, int] = field(default_factory=dict)
    trimmed_txs_total: int = 0
    verify_jobs_offloaded: int = 0
    #: Blocks whose verify pool failed (a dead worker, a failed fork) and
    #: which the serial loop verified instead; also counted in
    #: ``blocks_serial_fallback``.
    verify_pool_failures: int = 0
    wave_apply_seconds: float = 0.0
    conflict_ratio_last: float = 0.0
    _conflict_ratio_sum: float = 0.0

    def record_schedule(self, schedule: Schedule, trimmed: int) -> None:
        """Fold one planned block's wave layout into the counters."""
        self.blocks_parallel += 1
        self.waves_total += len(schedule.waves)
        for width, count in schedule.width_histogram().items():
            self.wave_width_counts[width] = (
                self.wave_width_counts.get(width, 0) + count)
        self.trimmed_txs_total += trimmed
        self.conflict_ratio_last = schedule.conflict_ratio
        self._conflict_ratio_sum += schedule.conflict_ratio

    @property
    def conflict_ratio_avg(self) -> float:
        """Mean conflict ratio over every parallel-executed block."""
        if not self.blocks_parallel:
            return 0.0
        return self._conflict_ratio_sum / self.blocks_parallel

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dump (deterministic key order for the RPC layer)."""
        return {
            "blocks_parallel": self.blocks_parallel,
            "blocks_serial_fallback": self.blocks_serial_fallback,
            "mid_block_fallbacks": self.mid_block_fallbacks,
            "txs_parallel": self.txs_parallel,
            "txs_exclusive": self.txs_exclusive,
            "txs_serial_fallback": self.txs_serial_fallback,
            "waves_total": self.waves_total,
            "wave_width_counts": {
                str(width): count
                for width, count in sorted(self.wave_width_counts.items())
            },
            "trimmed_txs_total": self.trimmed_txs_total,
            "verify_jobs_offloaded": self.verify_jobs_offloaded,
            "verify_pool_failures": self.verify_pool_failures,
            "wave_apply_seconds": round(self.wave_apply_seconds, 6),
            "conflict_ratio_last": round(self.conflict_ratio_last, 4),
            "conflict_ratio_avg": round(self.conflict_ratio_avg, 4),
        }


class ParallelExecutor:
    """Coordinates wave-parallel execution of one block's candidate list."""

    def __init__(
        self,
        executor: TransactionExecutor,
        config: Optional[ParallelConfig] = None,
        obs: Any = None,
    ) -> None:
        self.executor = executor
        self.config = config or ParallelConfig()
        self.obs = obs
        self.stats = ParallelStats()
        self.verify_pool = SignatureVerifyPool(self.config.verify_workers)
        self._thread_pool: Optional[ThreadPoolExecutor] = None

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release worker threads and verify processes."""
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        self.verify_pool.close()

    def _threads(self) -> ThreadPoolExecutor:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="repro-parallel",
            )
        return self._thread_pool

    def _phase(self, name: str):
        if self.obs is not None:
            return self.obs.phase(name)
        return _NullPhase()

    # -- planning -----------------------------------------------------------

    def plan(
        self,
        candidates: Sequence[Transaction],
        state: WorldState,
        block_ctx: BlockContext,
    ) -> Optional[Tuple[List[Transaction], List[AccessSet], Schedule]]:
        """Extract, precheck, schedule and trim; ``None`` = serial fallback.

        The returned candidate list may be a trimmed prefix-by-wave of the
        input when the block overflows the slot budget; accesses and the
        schedule are rebuilt over the kept transactions so positions stay
        dense.
        """
        if self.executor.fee_recipient is not None:
            # A standing fee recipient would double-credit fees under the
            # scoped coinbase=None trick; no production config sets it, so
            # fall back rather than complicate the fold.
            return None
        accesses: List[AccessSet] = []
        for tx in candidates:
            access = extract_access(tx, state, block_ctx.coinbase)
            if access is None:
                return None
            accesses.append(access)
        if not self._precheck(candidates, state):
            return None
        schedule = build_schedule(accesses)
        kept = trim_to_budget(schedule, self.config.slot_budget,
                              self.config.workers)
        trimmed = len(candidates) - len(kept)
        if trimmed:
            candidates = [candidates[i] for i in kept]
            accesses = [accesses[i] for i in kept]
            schedule = build_schedule(accesses)
        self.stats.record_schedule(schedule, trimmed)
        return list(candidates), accesses, schedule

    def _precheck(
        self,
        candidates: Sequence[Transaction],
        state: WorldState,
    ) -> bool:
        """Prove the serial loop would not raise mid-block.

        Scoped execution cannot reproduce a mid-block exception at the right
        position, so the parallel path only runs when none can occur:
        per-sender nonce chains must be gapless from the current account
        nonce, intrinsic gas must fit each gas limit, and each sender's
        *worst-case* cumulative spend (``value + max_fee`` summed over its
        transactions, ignoring any in-block credits) must fit its pre-block
        balance.  Conservative by construction: credits only increase
        balances, so a passing block cannot raise ``InsufficientFundsError``
        either.  Signatures are checked later, at the verify join.
        """
        schedule = self.executor.schedule
        expected_nonce: Dict[str, int] = {}
        worst_spend: Dict[str, int] = {}
        for tx in candidates:
            if tx.intrinsic_gas(schedule) > tx.gas_limit:
                return False
            sender = tx.sender.lower
            nonce = expected_nonce.get(sender)
            if nonce is None:
                nonce = state.nonce_of(tx.sender)
            if tx.nonce != nonce:
                return False
            expected_nonce[sender] = nonce + 1
            worst_spend[sender] = (
                worst_spend.get(sender, 0) + tx.value + tx.max_fee())
        for sender, spend in worst_spend.items():
            if state.balance_of(sender) < spend:
                return False
        return True

    # -- execution ----------------------------------------------------------

    def execute_block(
        self,
        candidates: Sequence[Transaction],
        state: WorldState,
        block_ctx: BlockContext,
    ) -> Optional[Tuple[List[Transaction], List[TransactionReceipt]]]:
        """Run one block's candidates in waves; ``None`` = run serially.

        On success the returned transactions/receipts are in block position
        order with per-transaction fields set; the caller owns cumulative
        gas, receipt indices and mempool removal (shared with the serial
        loop).  ``None`` is returned *only* before any shared-state side
        effect, so the caller's serial retry starts from a pristine state.
        """
        with self._phase("parallel.schedule"):
            plan = self.plan(candidates, state, block_ctx)
        if plan is None:
            self.stats.blocks_serial_fallback += 1
            self.stats.txs_serial_fallback += len(candidates)
            return None
        kept, accesses, schedule = plan

        # Pipeline: Schnorr verifies run in worker processes while the
        # scoped wave execution proceeds; joined before the first commit.
        # A pool that fails at either end (a dead worker, a failed fork)
        # leaves nothing committed, so the serial loop takes the block and
        # verifies it inline.
        try:
            handle = self.verify_pool.prewarm_async(kept)
        except Exception:
            self.stats.verify_pool_failures += 1
            self.stats.blocks_serial_fallback += 1
            self.stats.txs_serial_fallback += len(kept)
            return None
        self.stats.verify_jobs_offloaded += handle.jobs_submitted
        verified: Optional[bool] = None

        def signatures_ok() -> bool:
            nonlocal verified
            if verified is None:
                try:
                    handle.join()
                except Exception:
                    self.stats.verify_pool_failures += 1
                    verified = False
                else:
                    verified = all(tx.verify_signature() for tx in kept)
            return verified

        ordered: List[Tuple[int, TransactionReceipt]] = []
        committed_any = False

        with self._phase("parallel.execute"):
            for wave_index, wave in enumerate(schedule.waves):
                if wave.exclusive:
                    # Barrier: every earlier wave is fully committed, so the
                    # real shared state and block context are correct here.
                    if not signatures_ok():
                        self.stats.blocks_serial_fallback += 1
                        self.stats.txs_serial_fallback += len(kept)
                        return None
                    position = wave.positions[0]
                    tx = kept[position]
                    block_ctx.gas_price = tx.gas_price
                    receipt = self.executor.apply(tx, state, block_ctx)
                    ordered.append((position, receipt))
                    self.stats.txs_exclusive += 1
                    committed_any = True
                    continue

                started = time.perf_counter()
                tasks = []
                for position in wave.positions:
                    tx = kept[position]
                    scoped = self._scoped_state(state, accesses[position])
                    ctx = BlockContext(
                        number=block_ctx.number,
                        timestamp=block_ctx.timestamp,
                        coinbase=None,  # fees folded by the commit step
                        gas_price=tx.gas_price,
                    )
                    tasks.append((position, tx, scoped, ctx))

                # Scoped applies can raise -- validate() runs per tx, and a
                # transaction the mempool never vetted (a forged signature
                # injected below the chain API) fails there.  A raise only
                # touched its private scoped state, so before anything has
                # been committed the whole block can still fall back to the
                # serial path, which reproduces the serial loop's exception
                # at the correct position.  After a commit the failure is a
                # genuine invariant breach (the signature join precedes the
                # first commit), so it propagates.
                wave_error: Optional[BaseException] = None
                if len(tasks) > 1 and self.config.workers > 1:
                    futures = [
                        self._threads().submit(
                            self.executor.apply, tx, scoped, ctx)
                        for _, tx, scoped, ctx in tasks
                    ]
                    receipts = []
                    for future in futures:
                        try:
                            receipts.append(future.result())
                        except Exception as exc:  # noqa: BLE001
                            receipts.append(None)
                            wave_error = wave_error or exc
                else:
                    receipts = []
                    for _, tx, scoped, ctx in tasks:
                        try:
                            receipts.append(
                                self.executor.apply(tx, scoped, ctx))
                        except Exception as exc:  # noqa: BLE001
                            receipts.append(None)
                            wave_error = wave_error or exc
                self.stats.wave_apply_seconds += time.perf_counter() - started

                if wave_error is not None:
                    if committed_any:
                        raise wave_error
                    self.stats.blocks_serial_fallback += 1
                    self.stats.txs_serial_fallback += len(kept)
                    return None

                if not signatures_ok():
                    self.stats.blocks_serial_fallback += 1
                    self.stats.txs_serial_fallback += len(kept)
                    return None

                contained = all(
                    self._contained(scoped, accesses[position])
                    for (position, _, scoped, _) in tasks
                )
                if not contained:
                    # The extractor's footprint was wrong for some call shape:
                    # drop the wave's scoped work (nothing committed) and run
                    # every remaining position serially on the shared state.
                    self.stats.mid_block_fallbacks += 1
                    remaining = sorted(
                        position
                        for later in schedule.waves[wave_index:]
                        for position in later.positions
                    )
                    for position in remaining:
                        tx = kept[position]
                        block_ctx.gas_price = tx.gas_price
                        receipt = self.executor.apply(tx, state, block_ctx)
                        ordered.append((position, receipt))
                        self.stats.txs_serial_fallback += 1
                    break

                with self._phase("parallel.commit"):
                    wave_results = {
                        position: (receipt, scoped)
                        for (position, _, scoped, _), receipt in zip(
                            tasks, receipts)
                    }
                    for position in wave.positions:
                        receipt, scoped = wave_results[position]
                        self._fold(state, scoped, accesses[position])
                        fee_wei = receipt.gas_used * receipt.gas_price
                        if block_ctx.coinbase is not None and fee_wei > 0:
                            state.credit(block_ctx.coinbase, fee_wei)
                        ordered.append((position, receipt))
                        self.stats.txs_parallel += 1
                        committed_any = True

        ordered.sort(key=lambda pair: pair[0])
        return (
            [kept[position] for position, _ in ordered],
            [receipt for _, receipt in ordered],
        )

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _scoped_state(state: WorldState, access: AccessSet) -> WorldState:
        """A private state holding copies of the footprint accounts."""
        scoped = WorldState()
        for key in sorted(access.footprint):
            if state.has_account(key):
                scoped.load_account(state.get_account(key).copy())
        return scoped

    @staticmethod
    def _contained(scoped: WorldState, access: AccessSet) -> bool:
        """Whether execution stayed inside the preloaded footprint."""
        footprint = access.footprint
        return all(
            account.address.lower in footprint for account in scoped.accounts()
        )

    @staticmethod
    def _fold(state: WorldState, scoped: WorldState, access: AccessSet) -> None:
        """Copy the scoped write-set back into the shared state."""
        for key in sorted(access.writes):
            if scoped.has_account(key):
                state.load_account(scoped.get_account(key))


class _NullPhase:
    """Context manager used when no obs facade is attached."""

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None
