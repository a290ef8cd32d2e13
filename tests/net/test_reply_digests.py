"""JSON-RPC replies pinned byte for byte, over ``POST /`` and ``/ws``.

Mined blocks, receipts and transactions answer from the reply text their
objects keep, spliced into the envelope.  The sha256 of every reply group
below was recorded when each reply was ``json.dumps`` of its dict, built
anew per request: the ``wire_read`` call mix (200 single POSTs, then the same
calls as four 50-call batches) and every transaction by hash, a pending
transaction and its absent receipt, parse, arity and unknown-method errors,
``ipfs_add`` / ``ipfs_cat``, and the ``newHeads`` pushes mining sends a
``/ws`` subscriber.  The served chain is deterministic: labelled keys, the
simulated clock, explicit ``evm_mine``.  Blocks with full transactions
(``full_blocks``) were recorded after ``eth_getBlockByNumber(n, true)`` stopped
answering transaction hashes.  The undecodable body in ``errors`` is one
invalid UTF-8 byte, recorded in the same build as the rest of its group; it
replaced a bare UTF-16 byte-order mark, which is no longer decoded as UTF-16
(``tests/rpc/test_envelope_pins.py`` pins what such a body answers now).
Every group was re-recorded when accounts moved to Ed25519, which moved
each address, signature and hash the replies carry.
"""

import hashlib
import json
import random
import socket

import pytest

from repro.chain.account import Address
from repro.chain.keys import KeyPair
from repro.chain.transaction import Transaction
from repro.net import ServerThread, WebSocketClient

from .test_connection import Replies, call
from .test_http_server import make_server

SENDERS = [KeyPair.from_label(f"reply-pin-{index}") for index in range(5)]
SINK = Address(KeyPair.from_label("reply-pin-sink").address)
BLOCKS = 6

DIGESTS = {
    "setup": "72d648642dcb8805dc3d02481a54e9a4c16301cc6412683c6a58b36414240113",
    "pushes": "3147167398274689756978b8d9c0997db24b75ded7ac8aaeb7f1cd54fc242556",
    "singles": "859277fc73b5c53155f628c4ea53e097009ae53cdaf9cdb201c013b7f4ecfa9e",
    "batches": "e53b494613cc8403d34071b26675dd8f01bdaaa91279835073402605d0c80ccf",
    "errors": "c76f0125e9f168a05af086d64ca7b87318307121ec759ce01dc2e32297112a95",
    "ipfs": "d9d3d02599071794bcff6fe243953f588d6de4e8e1a664ae86d8fa7f908667f1",
    "full_blocks": "4d2976e3d19c05ab5cdd3209ad794f715b1304adfc33a26fdeb844a45aac849f",
}


def read_calls(addresses, hashes, height):
    """The ``wire_read`` mix: 200 calls cycling five kinds."""
    calls = []
    for index in range(200):
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
            first = turn % height
            calls.append(("eth_getLogs", [{"from_block": first, "to_block": height}]))
    return calls


def post(sock, replies, body: bytes) -> bytes:
    sock.sendall(b"POST / HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n"
                 % len(body) + body)
    status, reply = replies.next()
    return b"%d " % status + reply


def rpc(sock, replies, payload) -> bytes:
    return post(sock, replies, json.dumps(payload).encode())


def reply_digests(port):
    groups = {name: hashlib.sha256() for name in DIGESTS}
    transfers = [[Transaction(sender=Address(keypair.address), to=SINK, value=1,
                              nonce=nonce, gas_limit=21_000, gas_price=10**9).sign(keypair)
                  for keypair in SENDERS] for nonce in range(BLOCKS)]
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock, \
            WebSocketClient("127.0.0.1", port, timeout=30) as ws:
        replies = Replies(sock)
        setup = groups["setup"]
        for index, keypair in enumerate(SENDERS):
            setup.update(rpc(sock, replies, call("dev_fundAccount", [keypair.address, 10**18],
                                                 index)))
        start = json.loads(rpc(sock, replies, call("eth_blockNumber", [], 0))[4:])["result"]
        ws.request("eth_subscribe", ["newHeads"])
        for number, block in enumerate(transfers):
            for tx in block:
                setup.update(rpc(sock, replies, call("eth_sendRawTransaction",
                                                     [tx.serialize_raw()], number)))
            if number == 0:
                pending = block[0].hash_hex
                setup.update(rpc(sock, replies, call("eth_getTransactionByHash", [pending])))
                setup.update(rpc(sock, replies, call("eth_getTransactionReceipt", [pending])))
            setup.update(rpc(sock, replies, call("evm_mine", [1], number)))
        height = json.loads(rpc(sock, replies, call("eth_blockNumber", [], 0))[4:])["result"]
        height = int(height, 16)
        for _ in range(height - int(start, 16)):
            opcode, push = ws._read_frame()
            groups["pushes"].update(b"%d " % opcode + push)

        hashes = [tx.hash_hex for block in transfers for tx in block]
        addresses = [keypair.address for keypair in SENDERS]
        calls = read_calls(addresses, hashes, height)
        calls += [("eth_getTransactionByHash", [tx_hash]) for tx_hash in hashes]
        for index, (method, params) in enumerate(calls):
            groups["singles"].update(rpc(sock, replies, call(method, params, index)))
        for offset in range(0, len(calls), 50):
            groups["batches"].update(rpc(sock, replies, [
                call(method, params, f"b{index}")
                for index, (method, params) in enumerate(calls[offset:offset + 50], offset)]))

        for number in range(height + 1):
            groups["full_blocks"].update(rpc(sock, replies, call(
                "eth_getBlockByNumber", [number, True], number)))
        groups["full_blocks"].update(rpc(sock, replies, [
            call("eth_getBlockByNumber", [number, True], number) for number in range(height + 1)]))

        for body in (b"{bad json", b"[]", b'"text"', b"\xff"):
            groups["errors"].update(post(sock, replies, body))
        for payload in (call("eth_getBlockByNumber", [1, False, 3], 1),
                        call("eth_getTransactionReceipt", [], 2),
                        call("eth_noSuchMethod", [], 3),
                        call("eth_getBlockByNumber", ["nope", False], 4),
                        [call("eth_blockNumber", [], 5), {"jsonrpc": "2.0", "method": "x"},
                         call("eth_getBlockByNumber", [2, False], "é\"6"), {"id": 7}]):
            groups["errors"].update(rpc(sock, replies, payload))

        data = "0x" + random.Random(30).randbytes(1000).hex()
        added = rpc(sock, replies, call("ipfs_add", [data], 1))
        cid = json.loads(added[4:])["result"]["cid"]
        groups["ipfs"].update(added)
        groups["ipfs"].update(rpc(sock, replies, call("ipfs_cat", [cid], 2)))
        groups["ipfs"].update(rpc(sock, replies, [call("ipfs_cat", [cid], 3),
                                                  call("eth_getBlockByNumber", [1, False], 4)]))
    return {name: digest.hexdigest() for name, digest in groups.items()}


@pytest.fixture(scope="module")
def port():
    server = make_server()
    with ServerThread(server):
        yield server.port


def test_replies_are_byte_identical(port):
    assert reply_digests(port) == DIGESTS
