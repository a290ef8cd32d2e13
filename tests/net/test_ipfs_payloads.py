"""IPFS payloads through the socket door, byte for byte.

Each size sits on or beside a chunk boundary (262 144 bytes a leaf), plus
the bench's 318 kB model update.  The sha256 of every reply -- ``ipfs_add``,
``ipfs_cat`` and a batch mixing a cat, a stat and a missing CID, over
``POST /`` and over ``/ws`` -- is pinned to what the server answered when
``HexString`` was still text and the reply was encoded as a ``str``: taking
the payload through the door as bytes must not move one reply byte.
"""

import hashlib
import json
import random
import socket

import pytest

from repro.net import ServerThread, WebSocketClient
from repro.net.websocket import OP_TEXT, encode_frame

from .test_connection import Replies, call, frame
from .test_http_server import make_server

SIZES = (0, 1, 262_143, 262_144, 262_145, 318_000, 524_289)
#: A well-formed CID no node holds: its cat is an error envelope.
ABSENT = "QmYwAPJzv5CZsnA625s3Xf2nemtYgPpHdWEz79ojWnPbdG"

#: size -> (http add, http cat, http batch, ws add, ws cat), sha256 hex.
DIGESTS = {
    0: (
        "01e37d27121cc5a2fc189429a02f9fe6eb2f48fc0c425ad95cc735788cde9625",
        "14a71b2163f2a5130407089ea78296dfab277f3d9be831ccc67a22a185c2dd89",
        "ffdcd99f7052b8bc0fd9e19157e8782e8bfbc5c495bdf25e07987ac51d45eb05",
        "3f0a574a2b8c16b8332a265e3f176fb52465c6683463b486e7fee1b4eff34f0d",
        "2cffd17e0799166d4b427abb93a454726d3bf095ca2d469744ad8951d42f75f3",
    ),
    1: (
        "7764b94cfa9302d30a64d9b8dc59660f8dc9fb4caf7bc1db1e35d6c4e4aafdb7",
        "bd9f7b6309211f2b80865206f06c8b8f44df4ad1d51964cd688441b14868c7a3",
        "77aa7e8417691c883037c4c0dbebbbc5a4553db7626019b07fe8a6bd132771b2",
        "c3396f1fbc4d4d7c7efd6e854571117965749a999a6beb2f151762af6dc08a41",
        "63870843799b5c359e12f8827d35cc6c3dec403a9bf0ff9e6af0062c7adc98aa",
    ),
    262143: (
        "c32fb91ca35aafca17aa213ea0a01986b28441a1cd13d35faff4ddfdc304548d",
        "fd5fe8a0e36075980a607a159033987c52aab031c79ec6a9766923b4ef376ce7",
        "cf44ce087e42e2da18aaee4b6a30ea93b22977028d44691b0ce9b928e69c9bdc",
        "aea1f90bdddaf31e2dcb4c09d5e4091284c883d0679995109e32ebe3764423ea",
        "c494e6028592d29e76de37fa1dd62c1821c6f281aaa0f89b36bd27372dfb744b",
    ),
    262144: (
        "5083474e578cf2628fc133c476d47db6f67b6b1b117e97235a4dea1bd3aec60d",
        "908f2c2d38381741dfc5310aa4040f75726ed2740981e07bb9d16e9cb76e7f28",
        "6e185872b7623e90def549050179a91b7ed0e1d3002bb2e2a011f728572a3884",
        "0060a53474096b59b208643e4a57bf67aa75f9951ea9036ede98470883c844cd",
        "9aec8194e70edb03148342d619427bfd5f812b5932515ea940fd70f526b0eb84",
    ),
    262145: (
        "b930b350ed02ec874ec40cc5f5df101cf75d026fb4ee66b6c592d426bd92f80c",
        "0637ed5a47444315ac3746c5bafbb379cf54cc853ddf2608821db43e63c7e91a",
        "d25e66e58aeb6ed56cd84135fc75d6dbac7d82aeff48d06429dda02a188e3138",
        "cdf236a13f14bf8a3a35e9ff47abb89281c594dc1de82ccc5d082ff0e3460165",
        "88ba6a938270f87faf14a3c3320c1afef60b4c29d3262d8410b453aef491f259",
    ),
    318000: (
        "b98acdf23bfdb1ca1ced8e0fa91c8147c30a787fe8a37f876e023672d2ef36c8",
        "8d8fd0ba2727948547e87e60de3a93fc9595feb50de9cea399b0b56295a48659",
        "a245c8dc3133c1217e408a0b602daaa8ac58a1360da87a24755b684ad08c4b06",
        "c3b36dc14373dbac4cfa5b405a81042cbd7e96a6ad0b24771e1192258be0f216",
        "e70d9701f4a3211e8a4b66ffb621dfd0da95d7f76b2c4734bb9f22e1ea5e0d89",
    ),
    524289: (
        "6a9c3b503bc6af75b616570b14cdf0fd48683b03540712443230cc2b635ca227",
        "1dae7af76608a88852020e13fe213a55a4aaa45c316170ee7d5cc4bd4ee2a76a",
        "a429986e0d857aa8b92852f55e85e36844379577baff675f8ad715754e1d5aa0",
        "523fcc60839e94c802e758078d5743484f66fba2ac5c4606982ac5adcf27ab0d",
        "b58afb63459e85a90beae9a38de8370debf493654f5e48dfcc66dcf87c5b5427",
    ),
}


def payload_of(size: int) -> str:
    return "0x" + random.Random(size).randbytes(size).hex()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reply_digests(port: int, size: int):
    """The five replies for one payload size, as sha256 digests."""
    payload = payload_of(size)
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        replies = Replies(sock)
        sock.sendall(frame(call("ipfs_add", [payload], 1)))
        status, added = replies.next()
        assert status == 200
        cid = json.loads(added)["result"]["cid"]
        sock.sendall(frame(call("ipfs_cat", [cid], 2)))
        status, catted = replies.next()
        assert status == 200 and json.loads(catted)["result"] == payload
        sock.sendall(frame([call("ipfs_cat", [cid], 3), call("ipfs_stat", [cid], 4),
                            call("ipfs_cat", [ABSENT], 5)]))
        status, batched = replies.next()
        assert status == 200
    with WebSocketClient("127.0.0.1", port, timeout=30) as ws:
        frames = []
        for message in (call("ipfs_add", [payload], 6), call("ipfs_cat", [cid], 7)):
            ws._sock.sendall(encode_frame(OP_TEXT, json.dumps(message).encode(),
                                          mask=True))
            opcode, reply = ws._read_frame()
            assert opcode == OP_TEXT
            frames.append(reply)
    assert json.loads(frames[1])["result"] == payload
    return tuple(map(digest, (added, catted, batched, *frames)))


@pytest.fixture(scope="module")
def port():
    # The largest size's add is 1 048 580 hex digits: past the default cap.
    server = make_server(max_request_bytes=2 << 20)
    with ServerThread(server):
        yield server.port


@pytest.mark.parametrize("size", SIZES)
def test_add_and_cat_replies_are_byte_identical(port, size):
    assert reply_digests(port, size) == DIGESTS[size]
