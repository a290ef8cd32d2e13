"""Longest-chain fork choice for one cluster replica.

:class:`ForkChoice` sits beside a replica's
:class:`~repro.chain.chain.Blockchain` and drives it only through public
primitives (``replay_block``, ``rewind``, ``re_execute``,
``submit_transaction``, ``produce_block``), so no chain method changes
meaning on a replica.  Replicas route every block append and mint through
it: one that bypasses it is missing from the mint journal or the snapshot
cadence.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.chain.account import Address
from repro.chain.block import Block, block_from_record
from repro.chain.chain import Blockchain
from repro.chain.state import WorldState
from repro.errors import BlockValidationError, ReproError, UnknownBlockError
from repro.storage.backend import MemoryBackend
from repro.storage.snapshot import SnapshotManager, restore_state


def _record_hash(record: Dict[str, Any]) -> str:
    """The hash a block record claims, or the one it hashes to."""
    recorded = record["header"].get("hash")
    return recorded if recorded is not None else block_from_record(record).hash


class ForkChoice:
    """Side blocks, rollbacks and reorgs over one replica's chain.

    Owns the side-chain block records, the mint journal (faucet credits
    happen outside blocks, so a rollback must re-interleave them with block
    re-execution), in-memory rollback snapshots every ``snapshot_interval``
    blocks, and the reorg counters.
    """

    #: Rollback snapshots retained.  Bounds memory on long runs; a reorg
    #: below the oldest retained snapshot falls back to the cluster's
    #: snap-sync path instead of an in-place rollback.
    SNAPSHOTS_RETAINED = 8

    def __init__(self, chain: Blockchain, registry: Any,
                 snapshot_interval: int = 8) -> None:
        """Start tracking ``chain`` from its current head.

        ``registry`` must expose ``contract_class(name)`` (the contract
        registry) so rolled-back states can re-instantiate contract accounts.
        """
        self.chain = chain
        self.registry = registry
        self.snapshot_interval = max(1, int(snapshot_interval))
        #: Rollback points, kept in a private in-memory backend (never the
        #: replica's durable store: they are scratch state, not recovery state).
        self.snapshots = SnapshotManager(MemoryBackend())
        #: Snapshot height -> how many mint-journal entries it includes.
        self.snapshot_mint_seq: Dict[int, int] = {}
        #: Block records of known side-chain blocks, by hash.
        self.side_records: Dict[str, Dict[str, Any]] = {}
        #: ``[height, address, amount_wei]`` per faucet mint, in order.
        self.mint_journal: List[List[Any]] = []
        self.reorgs = 0
        self.max_reorg_depth = 0
        self.side_blocks_seen = 0
        self._write_snapshot()

    def stats(self) -> Dict[str, Any]:
        """Fork-choice counters for cluster status reporting."""
        return {
            "reorgs": self.reorgs,
            "max_reorg_depth": self.max_reorg_depth,
            "side_blocks_seen": self.side_blocks_seen,
            "side_blocks_held": len(self.side_records),
        }

    # -- writes a replica routes through here -----------------------------------

    def mint(self, address: Address | str, amount_wei: int) -> None:
        """Credit ``address`` on the chain and journal it for rollbacks."""
        self.chain.mint(address, amount_wei)
        self.mint_journal.append(
            [self.chain.height, str(Address(address)), int(amount_wei)])

    def produce_block(self, advance_clock: bool = True) -> Block:
        """Produce the chain's next block, keeping the snapshot cadence."""
        block = self.chain.produce_block(advance_clock=advance_clock)
        self._checkpoint()
        return block

    # -- lookups -----------------------------------------------------------------

    def knows_block(self, block_hash: str) -> bool:
        """Whether ``block_hash`` is a known canonical *or* side block."""
        return block_hash in self.side_records or self.chain.knows_block(block_hash)

    def block_record(self, block_hash: str) -> Optional[Dict[str, Any]]:
        """Full record of a known block (canonical or side); ``None`` if unknown.

        This is what gossip peers fetch after a block announcement.
        """
        if self.chain.knows_block(block_hash):
            return self.chain.get_block(block_hash).to_record()
        return self.side_records.get(block_hash)

    # -- ingestion ---------------------------------------------------------------

    def apply_block(self, record: Dict[str, Any]) -> str:
        """Fork-aware ingestion of a replicated block (the gossip entry point).

        Returns what happened:

        * ``"extended"`` -- the record extended the canonical tip and was
          re-executed (hash-verified) onto it;
        * ``"known"`` -- duplicate of a block already held;
        * ``"side"`` -- tracked as a side-chain block (its branch is not the
          best chain);
        * ``"reorged"`` -- its branch became the best chain and the canonical
          chain switched over (:meth:`reorg_to`);
        * ``"orphan"`` -- the parent is unknown; the caller should fetch
          ancestors first.
        """
        chain = self.chain
        header = record["header"]
        block_hash = _record_hash(record)
        if self.knows_block(block_hash):
            return "known"
        parent_hash = header["parent_hash"]
        height = int(header["number"])
        if parent_hash == chain.latest_block.hash and height == chain.height + 1:
            chain.replay_block(record)
            self._checkpoint()
            return "extended"
        parent = self.block_record(parent_hash)
        if parent is None:
            return "orphan"
        parent_number = int(parent["header"]["number"])
        if height != parent_number + 1:
            raise BlockValidationError(
                f"side block number {height} is not parent "
                f"number + 1 ({parent_number} + 1)")
        self.side_records[block_hash] = record
        self.side_blocks_seen += 1
        # Longest-chain fork choice with a deterministic tie-break: at equal
        # length the lexicographically smaller head hash wins, so two healed
        # partition sides always pick the same branch.
        if height > chain.height or (
                height == chain.height and block_hash < chain.latest_block.hash):
            self.reorg_to(block_hash)
            return "reorged"
        return "side"

    def reorg_to(self, head_hash: str) -> List[Block]:
        """Switch the canonical chain to the branch ending at ``head_hash``.

        The branch is traced back through known side blocks to its canonical
        fork point; state is rolled back to the fork point (snapshot restore
        plus deterministic re-execution, with faucet mints re-interleaved),
        the abandoned canonical suffix is demoted to side blocks and its
        transactions re-queued into the mempool, and the new branch is
        adopted by hash-verified re-execution.  Returns the abandoned blocks.
        """
        chain = self.chain
        path: List[Dict[str, Any]] = []
        cursor = head_hash
        while cursor in self.side_records:
            record = self.side_records[cursor]
            path.append(record)
            cursor = record["header"]["parent_hash"]
        if not chain.knows_block(cursor):
            raise UnknownBlockError(
                f"reorg target {head_hash} does not connect to the "
                f"canonical chain")
        fork_height = chain.get_block(cursor).number
        path.reverse()
        if not path:  # the "branch" is already canonical
            return []

        abandoned = chain.rewind(fork_height, self._rollback_state_to(fork_height))
        for block in abandoned:
            self.side_records[block.hash] = block.to_record()
        # Snapshots above the fork point describe the abandoned branch.
        for height in self.snapshots.heights():
            if height > fork_height:
                self.snapshots.delete_at(height)
                self.snapshot_mint_seq.pop(height, None)
        # Surviving mints recorded during the abandoned suffix conceptually
        # apply at the fork point now (the rollback already credited them).
        for entry in self.mint_journal:
            if entry[0] > fork_height:
                entry[0] = fork_height

        # Abandoned transactions go back to the mempool; whatever the new
        # branch also includes is removed again during its re-execution.
        for block in abandoned:
            for tx in block.transactions:
                try:
                    chain.submit_transaction(tx)
                except ReproError:
                    pass  # no longer valid against the rolled-back state

        for record in path:
            self.side_records.pop(_record_hash(record), None)
            chain.replay_block(record)
            self._checkpoint()

        self.reorgs += 1
        self.max_reorg_depth = max(self.max_reorg_depth, len(abandoned))
        chain.obs.event(
            "chain.reorg",
            abandoned=len(abandoned),
            adopted=len(path),
            fork_height=fork_height,
            new_head=head_hash,
            replica=chain.obs_label,
        )
        # The WAL now holds abandoned-branch entries that a linear replay
        # could not recover through; snapshotting at the new head compacts
        # them away, so a replica restart recovers the post-reorg chain.
        chain.store.snapshot(chain)
        if chain.analytics is not None:
            # The analytics replica truncates to the fork point now and
            # replays the new branch from the archive on its next drain.
            chain.analytics.on_reorg(fork_height)
        return abandoned

    # -- rollback snapshots ------------------------------------------------------

    def _checkpoint(self) -> None:
        """Write a rollback snapshot if the head sits on the cadence."""
        if self.chain.height % self.snapshot_interval == 0:
            self._write_snapshot()

    def _write_snapshot(self) -> None:
        """Record a rollback point (state + mint-journal position) at the head."""
        self.snapshot_mint_seq[self.chain.height] = len(self.mint_journal)
        self.snapshots.write(self.chain, wal_seq=None)
        if len(self.snapshot_mint_seq) > self.SNAPSHOTS_RETAINED:
            self.snapshots.prune(keep=self.SNAPSHOTS_RETAINED)
            retained = set(self.snapshots.heights())
            for height in list(self.snapshot_mint_seq):
                if height not in retained:
                    del self.snapshot_mint_seq[height]

    def _rollback_state_to(self, target_height: int) -> WorldState:
        """State as of canonical block ``target_height``, plus every later mint.

        Restores the nearest retained snapshot at or below the target, then
        deterministically re-executes canonical blocks up to the target with
        faucet mints re-interleaved at their recorded heights.  Mints that
        happened after the target survive a reorg (they are out-of-band
        credits, not block contents), so they are re-applied at the end.
        """
        candidates = [h for h in self.snapshots.heights() if h <= target_height]
        if not candidates:
            raise BlockValidationError(
                f"cannot roll state back to height {target_height}: no fork "
                f"snapshot at or below it (replica needs a full resync)")
        base = max(candidates)
        payload = self.snapshots.load_at(base)
        state = restore_state(payload["state"], self.registry)
        journal = self.mint_journal
        index = self.snapshot_mint_seq.get(base, 0)
        for height in range(base, target_height):
            while index < len(journal) and journal[index][0] <= height:
                state.credit(Address(journal[index][1]), int(journal[index][2]))
                index += 1
            self.chain.re_execute(self.chain.get_block(height + 1), state)
        while index < len(journal):
            state.credit(Address(journal[index][1]), int(journal[index][2]))
            index += 1
        return state
