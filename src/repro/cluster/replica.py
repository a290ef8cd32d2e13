"""One chain replica: a full chain copy, its durable store, and its lifecycle.

A :class:`Replica` owns a complete :class:`~repro.chain.chain.Blockchain`
(fork choice enabled), a :class:`~repro.storage.StorageEngine` standing in
for its local disk, and an identity: a deterministic proposer address that
ends up in the headers of every block it produces, which is what makes two
partition sides' blocks *byte-different* and fork choice observable.

Lifecycle:

* :meth:`crash` -- the simulated ``kill -9``: the in-memory chain object is
  discarded wholesale; only the storage engine (the "disk") survives;
* :meth:`recover` -- rebuild the chain from the engine's snapshot + WAL
  (``repro.storage.recover_chain``), re-enable fork choice, and re-apply any
  faucet mints the cluster performed while this replica was down;
* :meth:`resync_from` -- the snap-sync fallback: copy a peer's state and
  import its blocks verbatim.  Used when a reorg would have to roll back
  below this replica's recovery point (no rollback snapshots exist there).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.errors import ClusterError
from repro.chain.account import Address
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.keys import KeyPair
from repro.obs import NULL_OBSERVABILITY


def proposer_address(index: int) -> Address:
    """The deterministic block-proposer identity of replica ``index``."""
    return Address(KeyPair.from_label(f"cluster-replica-{index}").address)


class Replica:
    """A full chain replica inside a :class:`~repro.cluster.ChainCluster`."""

    def __init__(
        self,
        index: int,
        *,
        clock: Any,
        registry: Any,
        engine: Any,
        genesis_timestamp: float,
        chain_config: Optional[ChainConfig] = None,
        fork_snapshot_interval: int = 8,
    ) -> None:
        self.index = int(index)
        self.name = f"replica-{index}"
        self.clock = clock
        self.registry = registry
        self.engine = engine
        self.genesis_timestamp = float(genesis_timestamp)
        self.chain_config = chain_config or ChainConfig()
        self.fork_snapshot_interval = int(fork_snapshot_interval)
        self.alive = True
        self.blocks_produced = 0
        self.crashes = 0
        self.recoveries = 0
        self.resyncs = 0
        #: Faucet mints performed cluster-wide while this replica was down,
        #: re-applied on :meth:`recover` so balances converge again.
        self.missed_mints: List[Tuple[str, int]] = []
        #: Observability hooks (``repro.obs``); the no-op facade by default.
        #: Recover/resync replace the chain object, so every replacement
        #: point re-attaches via :meth:`_reattach_obs`.
        self.obs: Any = NULL_OBSERVABILITY
        #: Whether this replica serves analytical reads from a columnar
        #: analytics replica over its own WAL (``repro.analytics``).  Sticky
        #: across crash/recover/resync: every chain replacement point
        #: re-attaches a fresh feeder, which backfills from the archive.
        self.analytics_enabled = False
        self.chain = self._fresh_chain()

    def _reattach_obs(self) -> None:
        """Point the observability hooks at the (possibly new) chain object."""
        self.obs.attach_chain(self.chain, self.name)

    def attach_analytics(self) -> Any:
        """Serve this replica's reads from a columnar analytics replica.

        The HTAP follower-replica pattern: the cluster's fan-out read path
        (``ClusterNode._read_chain``) already round-robins ``logs`` /
        ``logs_page`` over caught-up replicas, so attaching a feeder here
        transparently serves those reads from the columns while the leader
        keeps its ingest path untouched.  Returns the feeder.
        """
        from repro.analytics import attach_analytics

        self.analytics_enabled = True
        return attach_analytics(self.chain, obs=self.obs)

    def _reattach_analytics(self) -> None:
        """Re-attach a fresh analytics feeder after a chain replacement."""
        if self.analytics_enabled:
            from repro.analytics import attach_analytics

            attach_analytics(self.chain, obs=self.obs)

    def _fresh_chain(self) -> Blockchain:
        """A new empty chain bound to this replica's identity and store."""
        chain = Blockchain(
            config=self.chain_config,
            backend=self.registry,
            clock=self.clock,
            validators=[proposer_address(self.index)],
            genesis_timestamp=self.genesis_timestamp,
            store=self.engine.chain_store(),
        )
        chain.enable_fork_choice(self.registry,
                                 snapshot_interval=self.fork_snapshot_interval)
        return chain

    # -- status -----------------------------------------------------------------

    @property
    def height(self) -> int:
        """Canonical chain height (last persisted view while crashed)."""
        return self.chain.height

    @property
    def head_hash(self) -> str:
        """Hash of the canonical chain head."""
        return self.chain.latest_block.hash

    def status(self) -> dict:
        """One row of ``repro cluster status``: identity, head, counters."""
        return {
            "index": self.index,
            "name": self.name,
            "alive": self.alive,
            "height": self.height,
            "head_hash": self.head_hash,
            "mempool_depth": len(self.chain.mempool),
            "blocks_produced": self.blocks_produced,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "resyncs": self.resyncs,
            "fork": self.chain.fork_stats(),
        }

    # -- lifecycle ---------------------------------------------------------------

    def crash(self) -> None:
        """Kill the replica: its process memory is considered lost.

        The ``kill -9`` contract is enforced where it matters --
        :meth:`recover` rebuilds exclusively from the storage engine (the
        "disk") and never consults the old chain object.  The stale object
        is retained only so ``status()`` can report the replica's last-known
        view; gossip, production and leadership all skip dead replicas.
        """
        if not self.alive:
            raise ClusterError(f"{self.name} is already down")
        self.alive = False
        self.crashes += 1

    def recover(self) -> None:
        """Rebuild the chain from this replica's own WAL + latest snapshot.

        The recovered chain reaches the exact head the dead process had
        persisted; catching up with the rest of the cluster happens through
        ordinary gossip afterwards (announce -> fetch), or through
        :meth:`resync_from` when the cluster has reorged past this replica's
        recovery point.
        """
        if self.alive:
            raise ClusterError(f"{self.name} is not down")
        from repro.storage.engine import recover_chain

        chain = recover_chain(self.engine, backend=self.registry,
                              clock=self.clock)
        chain.enable_fork_choice(self.registry,
                                 snapshot_interval=self.fork_snapshot_interval)
        self.chain = chain
        self._reattach_obs()
        self._reattach_analytics()
        for address, amount in self.missed_mints:
            self.chain.mint(address, amount)
        self.missed_mints.clear()
        self.alive = True
        self.recoveries += 1

    def resync_from(self, origin: "Replica") -> None:
        """Snap-sync: adopt ``origin``'s chain and state wholesale.

        Builds a fresh chain over a fresh in-memory store, imports the
        peer's canonical blocks verbatim (hash-checked, no re-execution) and
        restores a copy of its world state -- the same shape as a real
        chain's snapshot sync.  The replica's previous durable store is
        abandoned: its WAL describes a branch the cluster no longer serves.
        """
        from repro.storage.engine import StorageEngine
        from repro.storage.snapshot import encode_state, restore_state

        self.engine = StorageEngine()
        chain = Blockchain(
            config=self.chain_config,
            backend=self.registry,
            clock=self.clock,
            validators=[proposer_address(self.index)],
            genesis_timestamp=self.genesis_timestamp,
            store=self.engine.chain_store(),
        )
        for block in origin.chain.iter_blocks():
            if block.number == 0:
                continue
            chain.import_block(block.to_record())
        chain.state = restore_state(encode_state(origin.chain.state),
                                    self.registry)
        # Snapshot immediately: the fresh WAL holds verbatim blocks but no
        # mint history (mints live inside the copied state), so a later
        # recovery must restore from this snapshot rather than re-execute.
        chain.store.snapshot()
        # Fork choice starts fresh *after* the state restore: the rollback
        # snapshot written here already contains every historical mint, so
        # the mint journal correctly restarts empty.
        chain.enable_fork_choice(self.registry,
                                 snapshot_interval=self.fork_snapshot_interval)
        self.chain = chain
        self._reattach_obs()
        self._reattach_analytics()
        self.resyncs += 1
        self.obs.event("cluster.resync", replica=self.name,
                       origin=origin.name, height=self.chain.height)
