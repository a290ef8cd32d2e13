"""Pull-based collectors adapting existing stat sources into the registry.

Every subsystem already keeps its own counters (``RequestMetrics``,
``LRUCache``, ``Mempool.stats()``, ``GossipStats``, the storage engine's
``describe()``); migrating them onto :class:`MetricsRegistry` must not
change their snapshot shapes or touch their hot paths.  These adapters
therefore *sample* the originals right before a snapshot or a Prometheus
render -- the sources stay authoritative and unmodified.  Each is a plain
``collect_*(reg, source)``; a stack's one registered collector
(``repro.system.stack._collect_metrics``) calls them over whatever the stack holds *when
sampled*, so a replaced node, replica or feeder needs no re-registration.

Naming: counters end ``_total``, duration histograms end ``_seconds``
(milliseconds from the RPC gateway's metrics are converted), everything is
``snake_case`` -- the CI naming gate checks the rendered output.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.registry import MetricsRegistry


def collect_rpc(reg: MetricsRegistry, metrics: Any) -> None:
    """Sample a ``repro.rpc.metrics.RequestMetrics``.

    Exposes per-method request counters, per-code error counters, and the
    latency histogram re-bucketed in **seconds** (``RequestMetrics`` keeps
    milliseconds; bounds divide by 1000, counts carry over verbatim
    because the bucketing is ``le``-inclusive in both).
    """
    from repro.rpc.metrics import LATENCY_BUCKETS_MS

    # Copy under the metrics lock: the gateway mutates these dicts on its
    # dispatch thread while /metrics renders on the server thread.
    with metrics.lock:
        by_method = dict(metrics.by_method)
        errors_by_code = dict(metrics.errors_by_code)
        bucket_counts = list(metrics.latency_bucket_counts)
        latency_total_ms = metrics.latency_total_ms
    requests = reg.counter(
        "repro_rpc_requests_total",
        "JSON-RPC requests served, by method.", ("method",))
    for method, count in by_method.items():
        requests.labels(method=method).set_total(count)
    errors = reg.counter(
        "repro_rpc_errors_total",
        "JSON-RPC error responses, by error code.", ("code",))
    for code, count in errors_by_code.items():
        errors.labels(code=str(code)).set_total(count)
    latency = reg.histogram(
        "repro_rpc_request_latency_seconds",
        "Wall-clock JSON-RPC dispatch latency.",
        buckets=tuple(b / 1000.0 for b in LATENCY_BUCKETS_MS))
    latency.child.load(bucket_counts, latency_total_ms / 1000.0)


def collect_cache(reg: MetricsRegistry, name: str, cache: Any) -> None:
    """Sample one ``LRUCache``-shaped object under the ``cache=<name>`` label."""
    stats = cache.snapshot()
    labels = {"cache": name}
    reg.gauge("repro_cache_entries", "Entries currently cached.",
              ("cache",)).labels(**labels).set(stats["entries"])
    reg.gauge("repro_cache_capacity", "Configured cache capacity.",
              ("cache",)).labels(**labels).set(stats["capacity"])
    reg.gauge("repro_cache_hit_ratio",
              "Fraction of lookups served from cache.",
              ("cache",)).labels(**labels).set(stats["hit_rate"])
    for field in ("hits", "misses", "evictions", "puts"):
        reg.counter(f"repro_cache_{field}_total",
                    f"Cache {field} since process start.",
                    ("cache",)).labels(**labels).set_total(stats[field])
    if "version_clears" in stats:
        reg.counter("repro_cache_version_clears_total",
                    "Clears caused by a changed version (not capacity evictions).",
                    ("cache",)).labels(**labels).set_total(stats["version_clears"])


def collect_chain(reg: MetricsRegistry, chain: Any,
                  label: Optional[str] = None) -> None:
    """Sample one chain's height and mempool depth."""
    labels = {"replica": label or "node"}
    reg.gauge("repro_chain_height", "Canonical chain height.",
              ("replica",)).labels(**labels).set(chain.height)
    mempool = chain.mempool.stats()
    reg.gauge("repro_mempool_depth", "Transactions pending in the mempool.",
              ("replica",)).labels(**labels).set(mempool["depth"])
    reg.gauge("repro_mempool_max_depth", "High-water mempool depth.",
              ("replica",)).labels(**labels).set(mempool["max_depth"])
    reg.counter("repro_mempool_added_total",
                "Transactions ever admitted to the mempool.",
                ("replica",)).labels(**labels).set_total(mempool["total_added"])
    batchverify = getattr(chain, "batchverify", None)
    if batchverify is not None:
        reg.counter("repro_batchverify_rejections_total",
                    "Deferred admissions evicted at settle (failed "
                    "signatures).", ("replica",)).labels(**labels).set_total(
                        batchverify.deferred_rejections)
        fallbacks = reg.counter(
            "repro_batchverify_fallbacks_total",
            "Verify-pool failures answered by verifying inline, by the "
            "exception class that caused them.", ("replica", "reason"))
        for reason, count in batchverify.fallback_reasons.items():
            fallbacks.labels(reason=reason, **labels).set_total(count)


def collect_fork(reg: MetricsRegistry, fork: Any, label: str) -> None:
    """Sample one replica's fork-choice counters."""
    labels = {"replica": label}
    reg.counter("repro_chain_reorgs_total",
                "Fork-choice reorganizations executed.",
                ("replica",)).labels(**labels).set_total(fork.reorgs)
    reg.counter("repro_chain_side_blocks_total",
                "Side-chain blocks ingested without a reorg.",
                ("replica",)).labels(**labels).set_total(fork.side_blocks_seen)


def collect_gossip(reg: MetricsRegistry, gossip: Any) -> None:
    """Sample the cluster gossip layer's traffic counters."""
    family = reg.counter("repro_gossip_events_total",
                         "Gossip-layer events, by event kind.", ("event",))
    for event, count in gossip.stats.to_dict().items():
        family.labels(event=event).set_total(count)
    depth = reg.gauge("repro_gossip_inbox_depth",
                      "Messages queued for future delivery, per replica.",
                      ("replica",))
    for index, inbox in enumerate(gossip._inboxes):
        depth.labels(replica=f"replica-{index}").set(len(inbox))


def collect_storage(reg: MetricsRegistry, engine: Any) -> None:
    """Sample a storage engine's WAL record counts and snapshot presence."""
    wal = reg.counter("repro_storage_wal_records_total",
                      "WAL records appended, by record kind.", ("kind",))
    for kind, count in engine.wal.appended.items():
        wal.labels(kind=kind).set_total(count)
    reg.gauge("repro_storage_archived_blocks",
              "Block records archived out of the live WAL.").child.set(
                  len(engine.wal.archived_block_numbers()))


def collect_analytics(reg: MetricsRegistry, feeder: Any) -> None:
    """Sample an analytics feeder's freshness and replica-size gauges.

    ``applied_seq`` / ``lag_entries`` are the HTAP freshness pair: how far
    the columnar replica trails the WAL between queries (queries drain
    first, so user-visible reads are always fresh -- the lag gauge shows
    the propagation debt that drain paid down).
    """
    status = feeder.status()
    reg.gauge("repro_analytics_applied_seq",
              "Last WAL sequence number applied to the analytics replica."
              ).child.set(status["applied_seq"])
    reg.gauge("repro_analytics_lag_entries",
              "WAL entries the analytics replica is behind.").child.set(
                  status["lag_entries"])
    reg.gauge("repro_analytics_height",
              "Chain height replicated into the analytics columns."
              ).child.set(status["height"])
    rows = reg.gauge("repro_analytics_rows",
                     "Rows held per analytics table.", ("table",))
    rows.labels(table="transactions").set(status["transactions"])
    rows.labels(table="logs").set(status["logs"])
    reg.counter("repro_analytics_rollbacks_total",
                "Reorg rollbacks applied to the analytics replica."
                ).child.set_total(status["rollbacks"])
    reg.counter("repro_analytics_queries_total",
                "Queries served from the analytics replica."
                ).child.set_total(status["queries"])


def collect_loadgen(reg: MetricsRegistry, stats: Dict[str, Any]) -> None:
    """Sample a load generator's saturation view.

    ``stats`` is ``{"offered", "submitted", "mined", "outstanding"}`` --
    offered vs mined is the saturation signal.
    """
    reg.counter("repro_loadgen_offered_total",
                "Operations the arrival process offered."
                ).child.set_total(stats["offered"])
    reg.counter("repro_loadgen_tx_submitted_total",
                "Transfer transactions submitted.").child.set_total(
                    stats["submitted"])
    reg.counter("repro_loadgen_tx_mined_total",
                "Submitted transactions seen mined.").child.set_total(
                    stats["mined"])
    reg.gauge("repro_loadgen_outstanding_txs",
              "Transactions submitted but not yet mined.").child.set(
                  stats["outstanding"])


def collect_net_server(reg: MetricsRegistry, server: Any) -> None:
    """Sample an ``repro.net`` HTTP/WebSocket server's operational counters.

    Connection and subscription gauges, per-route request counters, and
    the backpressure signals (deepest send queue, slow-consumer
    disconnects, dropped subscriptions) -- the knobs
    ``docs/networking.md`` documents are observable here.
    """
    stats = server.stats
    reg.gauge("repro_net_open_connections",
              "Sockets currently open against the server."
              ).child.set(stats.open_connections)
    reg.counter("repro_net_connections_total",
                "Sockets accepted over the server's lifetime."
                ).child.set_total(stats.connections_total)
    reg.gauge("repro_net_open_ws_connections",
              "WebSocket sessions currently upgraded."
              ).child.set(stats.open_ws_connections)
    reg.counter("repro_net_ws_connections_total",
                "WebSocket upgrades over the server's lifetime."
                ).child.set_total(stats.ws_connections_total)
    requests = reg.counter("repro_net_http_requests_total",
                           "HTTP requests served, by route.", ("route",))
    for route, count in sorted(stats.http_requests.items()):
        requests.labels(route=route).set_total(count)
    rejections = reg.counter("repro_net_rejections_total",
                             "Connections or requests refused, by reason.",
                             ("reason",))
    for reason, count in sorted(stats.rejections.items()):
        rejections.labels(reason=reason).set_total(count)
    subs = reg.gauge("repro_net_active_subscriptions",
                     "Live push subscriptions, by kind.", ("kind",))
    for kind, count in sorted(server.subscription_kinds().items()):
        subs.labels(kind=kind).set(count)
    reg.counter("repro_net_ws_messages_total",
                "Inbound WebSocket data messages."
                ).child.set_total(stats.ws_messages_total)
    reg.counter("repro_net_notifications_total",
                "Subscription notifications pushed to clients."
                ).child.set_total(stats.notifications_total)
    reg.gauge("repro_net_send_queue_depth",
              "Deepest per-socket send queue (backpressure signal)."
              ).child.set(server.send_queue_depth())
    reg.counter("repro_net_slow_consumer_disconnects_total",
                "Clients disconnected for not draining their send queue."
                ).child.set_total(stats.slow_consumer_disconnects_total)
    reg.counter("repro_net_dropped_subscriptions_total",
                "Subscriptions dropped by slow-consumer disconnects."
                ).child.set_total(stats.dropped_subscriptions_total)
