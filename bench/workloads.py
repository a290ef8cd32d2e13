"""The five workloads: each is one function that sets up, times and checks
one repetition against the program's public entry points, defaults only.

A repetition owns a fresh node, server or environment.  Set-up (everything
before the clock: boot, funding, signing, payload generation,
``build_environment``) and the timed section are measured separately;
decoding and checking replies happens after the clock stops.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import spec
import wire

clock = time.perf_counter


@dataclass
class Context:
    """What one repetition is given."""

    seed: int
    rep: int
    size: Dict[str, Any]
    src_dir: str
    work_dir: str
    #: True in the traced pass: the serve stack runs on a thread of this
    #: process, where the tracer's wrappers can reach it.
    in_process: bool = False
    #: True for the untraced pass of a traced run: also take the socket
    #: path's differential cost, which needs the child server.
    differential: bool = False


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    ops: int = 0
    #: Samples of the workload's end-to-end latency (``op_ms_*``), seconds.
    op_latency: List[float] = field(default_factory=list)
    #: (operations, wall seconds, median latency in seconds) of each round of
    #: equal work the timed section is cut into; empty when it is one piece.
    rounds: List[Tuple[int, float, float]] = field(default_factory=list)
    #: Client-side split for the per-layer table: "read"/"write" samples.
    split: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Benchmark-process CPU seconds and wall seconds of the driven sections.
    client_cpu_s: float = 0.0
    driven_wall_s: float = 0.0
    #: (start, end) of every timed section, on ``time.perf_counter``.
    windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Must be equal across the repetitions of one seed.
    fingerprint: Any = None
    #: The issue's per-workload metrics of this repetition, by their names
    #: there: tx_per_s, req_per_s, mb_per_s, task_wall_s, recover_s.
    named: Dict[str, float] = field(default_factory=dict)
    #: Numbers for single per-layer rows (store bytes, requests_total, ...).
    extras: Dict[str, float] = field(default_factory=dict)

    def check(self, condition: bool, what: str) -> None:
        self.attempted += 1
        if not condition:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- shared pieces -------------------------------------------------------------


class ServerThreadHost:
    """The serve stack on a thread of this process (traced pass only)."""

    def __init__(self, store: Optional[str]) -> None:
        from repro.net import NetConfig, ServerThread, build_serve_stack

        config = NetConfig(port=0, block_interval_seconds=float(spec.BLOCK_INTERVAL))
        self.server = build_serve_stack(config, store=store)
        self._thread = ServerThread(self.server)
        self.port = self._thread.start()
        self.peak_rss_mb = 0.0

    def stop(self) -> None:
        self._thread.stop()
        self.peak_rss_mb = own_peak_rss_mb()


def boot_server(ctx: Context, store: Optional[str] = None) -> Any:
    if ctx.in_process:
        return ServerThreadHost(store)
    return wire.ServerProcess(ctx.src_dir, store, spec.BLOCK_INTERVAL)


def sign_transfers(label: str, num_txs: int) -> Tuple[List[Any], List[List[Any]], str]:
    """Key pairs, their signed 1-wei transfers (per sender, nonces from 0)
    and the sink address -- the shape of ``presigned_transfers``, signed
    here because the node lives behind a socket."""
    from repro.chain.account import Address
    from repro.chain.keys import KeyPair
    from repro.chain.transaction import Transaction

    keypairs = [KeyPair.from_label(f"{label}-{index}") for index in range(spec.SENDERS)]
    sink = Address(KeyPair.from_label(f"{label}-sink").address)
    per_sender = (num_txs + spec.SENDERS - 1) // spec.SENDERS
    by_sender: List[List[Any]] = []
    remaining = num_txs
    for keypair in keypairs:
        sender = Address(keypair.address)
        transfers = []
        for nonce in range(min(per_sender, remaining)):
            tx = Transaction(sender=sender, to=sink, value=1, nonce=nonce,
                             gas_limit=21_000, gas_price=10**9)
            tx.sign(keypair)
            transfers.append(tx)
        remaining -= len(transfers)
        by_sender.append(transfers)
    return keypairs, by_sender, str(sink)


FUND_WEI = 5 * 10**18
TRANSFER_COST_WEI = 1 + 21_000 * 10**9


def fund(connection: wire.Connection, keypairs: Sequence[Any]) -> None:
    connection.rpc_batch([("dev_fundAccount", [keypair.address, FUND_WEI])
                          for keypair in keypairs])


def result_of(status: int, body: bytes) -> Tuple[bool, Any]:
    """(is a JSON-RPC success, its result) for one single-call reply."""
    if status != 200:
        return False, None
    try:
        reply = json.loads(body)
    except ValueError:
        return False, None
    if not isinstance(reply, dict) or "error" in reply or "result" not in reply:
        return False, None
    return True, reply["result"]


def requests_total(connection: wire.Connection) -> int:
    """Sum of ``repro_rpc_requests_total`` on the server's /metrics page."""
    total = 0.0
    for line in connection.get("/metrics").decode("utf-8").splitlines():
        if line.startswith("repro_rpc_requests_total"):
            total += float(line.rsplit(" ", 1)[1])
    return int(total)


def directory_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _dirs, names in os.walk(path) for name in names)


# -- 1. ingest ------------------------------------------------------------------


def ingest(ctx: Context) -> Rep:
    from repro.chain.keys import KeyPair
    from repro.loadgen import presigned_transfers

    rep = Rep()
    rounds, round_txs = ctx.size["rounds"], ctx.size["round_txs"]
    num_txs = rounds * round_txs
    label = f"bench-{ctx.seed}"
    began = clock()
    node, transfers = presigned_transfers(num_txs, spec.SENDERS, label)
    rep.setup_s = clock() - began

    chain = node.chain
    latencies = rep.op_latency
    cpu_before = time.process_time()
    started = clock()
    ended = started
    for offset in range(0, num_txs, round_txs):
        # One round: a block's worth of transfers submitted, then mined.
        round_began = ended
        for tx in transfers[offset:offset + round_txs]:
            sent = clock()
            chain.submit_transaction(tx)
            latencies.append(clock() - sent)
        chain.produce_blocks_until_empty(max_blocks=1 + round_txs // 10)
        ended = clock()
        rep.rounds.append((round_txs, ended - round_began,
                           statistics.median(latencies[offset:])))
    rep.client_cpu_s = time.process_time() - cpu_before
    rep.wall_s = rep.driven_wall_s = ended - started
    rep.windows.append((started, ended))
    rep.ops = num_txs
    rep.named["tx_per_s"] = num_txs / rep.wall_s

    rep.check(len(chain.mempool) == 0, "mempool not empty after production")
    for tx in transfers:
        rep.check(chain.has_receipt(tx.hash_hex)
                  and node.get_receipt(tx.hash_hex).status, f"no successful receipt for {tx.hash_hex}")
    sink = KeyPair.from_label(f"{label}-sink").address
    rep.check(node.get_balance(sink) == num_txs, "sink balance is not one wei per transfer")
    rep.fingerprint = chain.latest_block.hash
    rep.peak_rss_mb = own_peak_rss_mb()
    return rep


# -- 2. wire_mixed --------------------------------------------------------------


def wire_mixed(ctx: Context) -> Rep:
    from repro.contracts.registry import default_registry
    from repro.storage import StorageConfig, recover_node

    rep = Rep()
    rounds, round_txs = ctx.size["rounds"], ctx.size["round_txs"]
    num_txs = rounds * round_txs
    store = os.path.join(ctx.work_dir, f"store-{ctx.rep}")
    os.makedirs(store)
    began = clock()
    server = boot_server(ctx, store)
    try:
        admin = wire.Connection(server.port)
        keypairs, by_sender, _sink = sign_transfers(f"bench-{ctx.seed}", num_txs)
        fund(admin, keypairs)
        calls_sent = len(keypairs)
        # Each connection owns whole senders, so nonces never race; within a
        # connection the senders take turns, one nonce per turn.
        plans: List[List[bytes]] = []
        sent: List[List[Tuple[str, Any]]] = []
        for group in wire.deal(range(len(keypairs)), spec.connections()):
            plan, record = [], []
            for nonce in range(max(len(by_sender[index]) for index in group)):
                for index in group:
                    if nonce >= len(by_sender[index]):
                        continue
                    tx = by_sender[index][nonce]
                    address = keypairs[index].address
                    plan += [
                        wire.frame(wire.call("eth_sendRawTransaction", [tx.serialize_raw()])),
                        wire.frame(wire.call("eth_getBalance", [address, "latest"])),
                        wire.frame(wire.call("eth_getTransactionReceipt", [tx.hash_hex])),
                    ]
                    record += [("send", tx.hash_hex), ("balance", None), ("receipt", tx.hash_hex)]
            plans.append(plan)
            sent.append(record)
        last_hashes = [transfers[-1].hash_hex for transfers in by_sender if transfers]
        rep.setup_s = clock() - began

        # Each round its own closed loop over the next ``round_txs`` transfers
        # (a connection's senders, one nonce each) and their reads.
        started = clock()
        driven = [wire.drive(server.port, [wire.part(plan, index, rounds) for plan in plans])
                  for index in range(rounds)]
        while True:
            receipts = admin.rpc_batch([("eth_getTransactionReceipt", [tx_hash])
                                        for tx_hash in last_hashes])
            calls_sent += len(last_hashes)
            if all(receipts) or clock() - started > 120:
                break
            time.sleep(0.005)
        ended = clock()
        rep.wall_s = ended - started
        rep.windows.append((started, ended))
        rep.ops = num_txs
        rep.client_cpu_s = sum(one.cpu_s for one in driven)
        rep.driven_wall_s = sum(one.wall_s for one in driven)
        requests = sum(len(plan) for plan in plans)
        calls_sent += requests
        rep.named["tx_per_s"] = num_txs / rep.wall_s
        rep.named["req_per_s"] = requests / rep.driven_wall_s
        for one in driven:
            rep.rounds.append((round_txs, one.wall_s, statistics.median(
                elapsed for replies in one.replies for elapsed, _s, _b in replies[::3])))

        writes, reads = [], []
        for hand, record in enumerate(sent):
            replies = [reply for one in driven for reply in one.replies[hand]]
            for (kind, tx_hash), (elapsed, status, body) in zip(record, replies):
                ok, result = result_of(status, body)
                if kind == "send":
                    writes.append(elapsed)
                    rep.check(ok and result == tx_hash, f"send returned {result!r}, not {tx_hash}")
                    continue
                reads.append(elapsed)
                if kind == "balance":
                    rep.check(ok and isinstance(result, str)
                              and 0 < int(result, 16) <= FUND_WEI, f"bad balance {result!r}")
                else:
                    rep.check(ok and (result is None or result.get("transaction_hash") == tx_hash),
                              f"bad receipt for {tx_hash}")
        rep.op_latency = writes
        rep.split = {"read": reads, "write": writes}

        all_hashes = [tx.hash_hex for transfers in by_sender for tx in transfers]
        for offset in range(0, len(all_hashes), 100):
            chunk = all_hashes[offset:offset + 100]
            for tx_hash, receipt in zip(chunk, admin.rpc_batch(
                    [("eth_getTransactionReceipt", [tx_hash]) for tx_hash in chunk])):
                rep.check(bool(receipt) and receipt.get("status") == 1, f"{tx_hash} not mined")
            calls_sent += len(chunk)
        head = admin.rpc("eth_getBlockByNumber", ["latest", False])["header"]
        calls_sent += 1
        served = requests_total(admin)
        rep.extras["requests_total"] = served
        rep.check(served == calls_sent,
                  f"repro_rpc_requests_total is {served}, {calls_sent} calls were sent")
        admin.close()
    finally:
        server.stop()
    rep.peak_rss_mb = server.peak_rss_mb

    rep.extras["store_bytes_per_tx"] = directory_bytes(store) / num_txs
    began = clock()
    recovered = recover_node(StorageConfig(backend="log", directory=store),
                             backend=default_registry())
    rep.named["recover_s"] = clock() - began
    rep.check(recovered.chain.latest_block.hash == head["hash"],
              "recovered head differs from the last head served")
    rep.check(recovered.block_number == head["number"], "recovered height differs")
    recovered.storage.close()
    shutil.rmtree(store)
    return rep


# -- 3. wire_read ---------------------------------------------------------------


def _read_calls(count: int, addresses: Sequence[str], hashes: Sequence[str],
                height: int) -> List[Tuple[str, list]]:
    """``count`` read calls cycling five kinds, strided over what exists."""
    calls: List[Tuple[str, list]] = []
    window = 20
    for index in range(count):
        turn, kind = divmod(index, 5)
        if kind == 0:
            calls.append(("eth_blockNumber", []))
        elif kind == 1:
            calls.append(("eth_getBalance", [addresses[turn % len(addresses)], "latest"]))
        elif kind == 2:
            calls.append(("eth_getTransactionReceipt", [hashes[turn * 7 % len(hashes)]]))
        elif kind == 3:
            calls.append(("eth_getBlockByNumber", [turn * 3 % (height + 1), False]))
        else:
            first = turn * 5 % max(1, height - window + 2)
            calls.append(("eth_getLogs", [{"from_block": first,
                                           "to_block": min(height, first + window - 1)}]))
    return calls


def wire_read(ctx: Context) -> Rep:
    rep = Rep()
    setup_txs, blocks, reads = ctx.size["setup_txs"], ctx.size["blocks"], ctx.size["reads"]
    rounds = ctx.size["rounds"]
    began = clock()
    server = boot_server(ctx)
    try:
        admin = wire.Connection(server.port)
        keypairs, by_sender, _sink = sign_transfers(f"bench-{ctx.seed}", setup_txs)
        fund(admin, keypairs)
        # Mine the chain the reads will see: the transfers in nonce-major
        # order, cut into ``blocks`` runs, each run one explicit block.
        ordered = [by_sender[index][nonce]
                   for nonce in range(max(len(transfers) for transfers in by_sender))
                   for index in range(len(by_sender)) if nonce < len(by_sender[index])]
        by_block = [ordered[index * len(ordered) // blocks:(index + 1) * len(ordered) // blocks]
                    for index in range(blocks)]
        for chunk in by_block:
            admin.rpc_batch([("eth_sendRawTransaction", [tx.serialize_raw()]) for tx in chunk]
                            + [("evm_mine", [1])])
        hashes = [tx.hash_hex for tx in ordered]
        addresses = [keypair.address for keypair in keypairs]
        height = int(admin.rpc("eth_blockNumber"), 16)

        calls = _read_calls(reads, addresses, hashes, height)
        distinct = sorted({json.dumps(call) for call in calls})
        expected: Dict[str, Any] = {}
        for offset in range(0, len(distinct), spec.BATCH_CALLS):
            chunk = distinct[offset:offset + spec.BATCH_CALLS]
            for key, result in zip(chunk, admin.rpc_batch(
                    [tuple(json.loads(key)) for key in chunk])):
                expected[key] = result
        # What set-up recorded must itself be right before replies are held to it.
        rep.check(height >= blocks, f"height {height} after {blocks} mined blocks")
        for keypair, transfers in zip(keypairs, by_sender):
            key = json.dumps(["eth_getBalance", [keypair.address, "latest"]])
            if key in expected:
                rep.check(int(expected[key], 16) == FUND_WEI - len(transfers) * TRANSFER_COST_WEI,
                          f"balance of {keypair.address} after set-up")
        for tx_hash in hashes:
            receipt = expected.get(json.dumps(["eth_getTransactionReceipt", [tx_hash]]))
            if receipt is not None:
                rep.check(receipt["transaction_hash"] == tx_hash and receipt["status"] == 1,
                          f"set-up receipt of {tx_hash}")

        # Fifty single POSTs, then the next fifty calls as one batch POST.
        group = 2 * spec.BATCH_CALLS
        plans: List[List[bytes]] = [[] for _ in range(spec.connections())]
        shapes: List[List[List[str]]] = [[] for _ in plans]
        for number, offset in enumerate(range(0, len(calls), group)):
            plan, shape = plans[number % len(plans)], shapes[number % len(plans)]
            singles = calls[offset:offset + spec.BATCH_CALLS]
            batch = calls[offset + spec.BATCH_CALLS:offset + group]
            for call in singles:
                plan.append(wire.frame(wire.call(*call)))
                shape.append([json.dumps(call)])
            if batch:
                plan.append(wire.frame([wire.call(method, params, index)
                                        for index, (method, params) in enumerate(batch)]))
                shape.append([json.dumps(call) for call in batch])
        rep.setup_s = clock() - began

        # The same requests every round, each round its own closed loop, so
        # that the rounds of a run are short windows of equal work.
        started = clock()
        driven = [wire.drive(server.port, plans) for _ in range(rounds)]
        ended = clock()
        rep.wall_s = rep.driven_wall_s = sum(one.wall_s for one in driven)
        rep.client_cpu_s = sum(one.cpu_s for one in driven)
        rep.windows.append((started, ended))
        requests = sum(len(plan) for plan in plans)
        rep.ops = rounds * requests
        rep.named["req_per_s"] = rep.ops / rep.wall_s

        single_s, batch_s, batched_calls = [], 0.0, 0
        for one in driven:
            first_single = len(single_s)
            for shape, replies in zip(shapes, one.replies):
                for keys, (elapsed, status, body) in zip(shape, replies):
                    if len(keys) == 1:
                        single_s.append(elapsed)
                        ok, result = result_of(status, body)
                        rep.check(ok and result == expected[keys[0]],
                                  f"wrong reply to {keys[0]}")
                        continue
                    batch_s += elapsed
                    batched_calls += len(keys)
                    try:
                        by_id = {entry["id"]: entry for entry in json.loads(body)}
                    except (ValueError, TypeError, KeyError):
                        by_id = {}
                    for index, key in enumerate(keys):
                        entry = by_id.get(index, {})
                        rep.check(status == 200 and "error" not in entry
                                  and entry.get("result", object()) == expected[key],
                                  f"wrong batched reply to {key}")
            rep.rounds.append((requests, one.wall_s,
                               statistics.median(single_s[first_single:])))
        rep.op_latency = single_s
        rep.split["read"] = single_s
        if batched_calls and single_s:
            rep.extras["batch_gain"] = ((sum(single_s) / len(single_s))
                                        / (batch_s / batched_calls))
        if ctx.differential:
            rep.extras["net_us_per_req"] = _net_differential(admin)
        admin.close()
    finally:
        server.stop()
    rep.peak_rss_mb = server.peak_rss_mb
    return rep


def _net_differential(connection: wire.Connection, samples: int = 1000) -> float:
    """Microseconds the socket path adds to one call: median wire latency of
    ``eth_chainId`` minus median in-process ``handle_raw`` of the same text."""
    from repro.net import NetConfig, build_serve_stack

    payload = wire.call("eth_chainId", [])
    request = wire.frame(payload)
    over_wire = []
    for _ in range(samples):
        began = clock()
        connection.exchange(request)
        over_wire.append(clock() - began)
    gateway = build_serve_stack(NetConfig(port=0)).gateway
    text = json.dumps(payload)
    in_process = []
    for _ in range(samples):
        began = clock()
        gateway.handle_raw(text)
        in_process.append(clock() - began)
    return (statistics.median(over_wire) - statistics.median(in_process)) * 1e6


# -- 4. wire_ipfs ---------------------------------------------------------------


def wire_ipfs(ctx: Context) -> Rep:
    rep = Rep()
    rounds = ctx.size["rounds"]
    num_payloads, num_cats = rounds * ctx.size["round_adds"], rounds * ctx.size["round_cats"]
    began = clock()
    server = boot_server(ctx)
    try:
        source = random.Random(f"bench-{ctx.seed}-{ctx.rep}")
        payloads = ["0x" + source.randbytes(spec.IPFS_PAYLOAD_BYTES).hex()
                    for _ in range(num_payloads)]
        hands = spec.connections()
        add_frames = [wire.frame(wire.call("ipfs_add", [payload])) for payload in payloads]
        rep.setup_s = clock() - began

        # A round is its share of the adds and, once every payload is in, its
        # share of the cats, which cycle over all the CIDs.
        started = clock()
        adds = [wire.drive(server.port, wire.deal(wire.part(add_frames, index, rounds), hands))
                for index in range(rounds)]
        add_ended = clock()
        # The CIDs come out of the add replies, so the clock stops while they
        # are decoded and the cat requests are framed.
        cids: List[Optional[str]] = []
        writes: List[float] = []
        for one in adds:
            in_order = [reply for turn in itertools.zip_longest(*one.replies)
                        for reply in turn if reply is not None]
            for elapsed, status, body in in_order:
                ok, result = result_of(status, body)
                rep.check(ok and result.get("size") == spec.IPFS_PAYLOAD_BYTES,
                          "ipfs_add did not report the payload size")
                cids.append(result["cid"] if ok else None)
                writes.append(elapsed)
        known = [index for index, cid in enumerate(cids) if cid is not None]
        order = [known[turn % len(known)] for turn in range(num_cats)] if known else []
        cat_frames = [wire.frame(wire.call("ipfs_cat", [cids[index]])) for index in order]

        # A cat's reply is 636 kB: each is checked and dropped between the
        # rounds, byte-equal repeats against the first reply for the same CID.
        reads: List[float] = []
        first_reply: Dict[int, bytes] = {}
        cat_wall_s = cat_cpu_s = 0.0
        cat_started = ended = clock()
        for number in range(rounds if order else 0):
            cats = wire.drive(server.port, wire.deal(wire.part(cat_frames, number, rounds), hands))
            ended = clock()
            keys = wire.deal(wire.part(order, number, rounds), hands)
            latencies = []
            for hand_keys, replies in zip(keys, cats.replies):
                for index, (elapsed, status, body) in zip(hand_keys, replies):
                    latencies.append(elapsed)
                    good = first_reply.get(index) == body
                    if not good:
                        ok, result = result_of(status, body)
                        good = ok and result == payloads[index]
                        if good:
                            first_reply.setdefault(index, body)
                    rep.check(good, f"ipfs_cat({cids[index]}) did not return the added bytes")
            reads += latencies
            cat_wall_s += cats.wall_s
            cat_cpu_s += cats.cpu_s
            rep.rounds.append((sum(map(len, adds[number].replies)) + len(latencies),
                               adds[number].wall_s + cats.wall_s, statistics.median(latencies)))

        rep.wall_s = rep.driven_wall_s = sum(one.wall_s for one in adds) + cat_wall_s
        rep.client_cpu_s = sum(one.cpu_s for one in adds) + cat_cpu_s
        rep.windows += [(started, add_ended), (cat_started, ended)]
        rep.ops = num_payloads + len(order)
        rep.named["req_per_s"] = rep.ops / rep.wall_s
        rep.named["mb_per_s"] = rep.ops * spec.IPFS_PAYLOAD_BYTES / 1e6 / rep.wall_s
        rep.op_latency = reads
        rep.split = {"read": reads, "write": writes}

        if known:
            # Opened only now: the server drops a connection whose first
            # request does not arrive within its 10 s read timeout.
            admin = wire.Connection(server.port)
            again = admin.rpc("ipfs_add", [payloads[known[0]]])
            admin.close()
            rep.check(again["cid"] == cids[known[0]], "re-adding a payload changed its CID")
        if ctx.in_process:
            stored = sum(node.repo_stat()["repo_size_bytes"]
                         for node in server.server.gateway.ipfs.swarm.nodes())
            rep.extras["stored_per_byte"] = stored / (num_payloads * spec.IPFS_PAYLOAD_BYTES)
    finally:
        server.stop()
    rep.peak_rss_mb = server.peak_rss_mb
    return rep


# -- 5. marketplace -------------------------------------------------------------


def marketplace_config(ctx: Context) -> Any:
    from repro.system.config import quick_config

    return quick_config(seed=ctx.seed, **ctx.size.get("overrides", {}))


def marketplace(ctx: Context) -> Rep:
    from repro.system import orchestrator

    rep = Rep()
    began = clock()
    env = orchestrator.build_environment(marketplace_config(ctx))
    rep.setup_s = clock() - began

    cpu_before = time.process_time()
    started = clock()
    report = orchestrator.run_marketplace(environment=env)
    ended = clock()
    rep.client_cpu_s = time.process_time() - cpu_before
    rep.wall_s = rep.driven_wall_s = ended - started
    rep.windows.append((started, ended))
    rep.ops = 1
    rep.op_latency = [rep.wall_s]
    rep.named["task_wall_s"] = rep.wall_s

    config = env.config
    paid = sum(report.payments_wei.values())
    distributable = config.budget_wei - int(config.budget_wei * config.reserve_fraction)
    rep.check(distributable - config.num_owners < paid <= distributable,
              f"payments sum to {paid} wei of a {distributable} wei budget")
    on_chain = set(report.workflow_result.cid_listing.get("cids", []))
    for result in report.workflow_result.owner_results:
        rep.check(result["upload"]["cid"] in on_chain,
                  f"CID of {result['owner']} is not on chain")
    rep.check(len(report.workflow_result.owner_results) == config.num_owners,
              "not every owner contributed")
    rep.fingerprint = (
        report.aggregate_accuracy,
        tuple(sorted(report.buyer_breakdown.phases.items())),
        tuple(tuple(sorted(b.phases.items())) for b in report.owner_breakdowns),
    )
    rep.extras["model_owner_s"] = sum(b.total for b in report.owner_breakdowns)
    rep.extras["model_buyer_s"] = report.buyer_breakdown.total
    rep.peak_rss_mb = own_peak_rss_mb()
    return rep


def aggregator_target(ctx: Context) -> Tuple[str, str, str]:
    """The configured aggregator's ``aggregate``, as a tracer target."""
    from repro.fl.oneshot import make_aggregator

    config = marketplace_config(ctx)
    kind = type(make_aggregator(config.aggregator, **config.aggregator_kwargs))
    return (kind.__module__, f"{kind.__name__}.aggregate", "fl.aggregate")


RUNNERS: Dict[str, Callable[[Context], Rep]] = {
    "ingest": ingest,
    "wire_mixed": wire_mixed,
    "wire_read": wire_read,
    "wire_ipfs": wire_ipfs,
    "marketplace": marketplace,
}
