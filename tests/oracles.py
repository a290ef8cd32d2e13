"""References the tests compare the product against.

No entry point of the product runs any of these: each is a slower or more
direct way to compute what the product computes (exact Shapley values, an
RLP decoder, a model rebuilt from its payload), or a read of state that only
a test asks for.  They live here, not in ``src/``, so that the reach ledger
(``tests/tools/reach.py``) counts only code a user path enters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.chain.account import Account, Address
from repro.data.dataset import Dataset
from repro.errors import (
    HttpVersionNotSupportedError,
    IncentiveError,
    InsufficientFundsError,
    PartitionError,
    PayloadTooLargeError,
    ProtocolViolationError,
)
from repro.incentives.contribution import (
    ContributionReport,
    ValueFunction,
    _CachedValue,
    _validate,
)
from repro.ml.mlp import MLP
from repro.ml.serialization import deserialize_parameters
from repro.net.http import REASONS, VERSIONS
from repro.rpc.protocol import JsonRpcError, make_request
from repro.utils.rng import make_rng

RlpItem = Union[bytes, Sequence["RlpItem"]]

#: Most owners :func:`shapley_exact` enumerates (2^n value evaluations).
SHAPLEY_EXACT_MAX_OWNERS = 12


def shapley_exact(num_owners: int, value_fn: ValueFunction) -> ContributionReport:
    """Exact Shapley values by enumerating all subsets.

    Complexity is ``O(2^n)`` value-function evaluations; refuse beyond
    :data:`SHAPLEY_EXACT_MAX_OWNERS` to avoid accidental blow-ups.
    """
    _validate(num_owners)
    if num_owners > SHAPLEY_EXACT_MAX_OWNERS:
        raise IncentiveError(
            f"exact Shapley over {num_owners} owners would need 2^{num_owners} evaluations; "
            f"use shapley_monte_carlo instead"
        )
    cached = _CachedValue(value_fn)
    everyone = tuple(range(num_owners))
    full_value = cached(everyone)
    scores = {owner: 0.0 for owner in range(num_owners)}
    factorial_n = math.factorial(num_owners)
    for owner in range(num_owners):
        remaining = [i for i in everyone if i != owner]
        for size in range(len(remaining) + 1):
            weight = math.factorial(size) * math.factorial(num_owners - size - 1) / factorial_n
            for subset in itertools.combinations(remaining, size):
                scores[owner] += weight * (cached(subset + (owner,)) - cached(subset))
    return ContributionReport(method="shapley_exact", scores=scores, full_value=full_value,
                              num_evaluations=cached.calls)


def deserialize_model(payload: bytes) -> MLP:
    """Rebuild a model from ``serialize_model`` output (raises as
    ``deserialize_parameters`` does)."""
    return MLP.from_parameters(deserialize_parameters(payload))


def rlp_decode(data: bytes) -> RlpItem:
    """Decode RLP-encoded bytes back into nested bytes/lists."""
    item, consumed = _decode_item(bytes(data), 0)
    if consumed != len(data):
        raise ValueError("trailing bytes after RLP item")
    return item


def _decode_item(data: bytes, offset: int) -> Tuple[Any, int]:
    """Decode one RLP item starting at ``offset``; return (item, next offset)."""
    if offset >= len(data):
        raise ValueError("unexpected end of RLP data")
    prefix = data[offset]
    if prefix < 0x80:
        return bytes([prefix]), offset + 1
    if prefix < 0xB8:
        length = prefix - 0x80
        start = offset + 1
        return data[start:start + length], start + length
    if prefix < 0xC0:
        length_size = prefix - 0xB7
        start = offset + 1
        length = int.from_bytes(data[start:start + length_size], "big")
        start += length_size
        return data[start:start + length], start + length
    if prefix < 0xF8:
        return _decode_list(data, offset + 1, prefix - 0xC0)
    length_size = prefix - 0xF7
    start = offset + 1
    length = int.from_bytes(data[start:start + length_size], "big")
    return _decode_list(data, start + length_size, length)


def _decode_list(data: bytes, start: int, length: int) -> Tuple[List[Any], int]:
    """Decode a list payload of ``length`` bytes starting at ``start``."""
    end = start + length
    items: List[RlpItem] = []
    cursor = start
    while cursor < end:
        item, cursor = _decode_item(data, cursor)
        items.append(item)
    if cursor != end:
        raise ValueError("malformed RLP list payload")
    return items, end


def label_skew_partition(dataset: Dataset, num_clients: int, classes_per_client: int,
                         rng=None) -> List[np.ndarray]:
    """Give each client samples from only ``classes_per_client`` classes (the
    "#C=k" pathological split), a harder non-IID shape than the product's
    Dirichlet partition for the FL fixtures.

    Class assignments rotate so that every class is covered by roughly the
    same number of clients; each class's samples are split evenly among the
    clients that hold it.
    """
    generator = make_rng(rng)
    holders: List[List[int]] = [[] for _ in range(dataset.num_classes)]
    for client in range(num_clients):
        for offset in range(classes_per_client):
            holders[(client + offset) % dataset.num_classes].append(client)
    client_indices: List[List[int]] = [[] for _ in range(num_clients)]
    for cls in range(dataset.num_classes):
        class_indices = np.where(dataset.labels == cls)[0]
        generator.shuffle(class_indices)
        if not holders[cls]:
            continue
        for holder, chunk in zip(holders[cls], np.array_split(class_indices, len(holders[cls]))):
            client_indices[holder].extend(chunk.tolist())
    if min(len(chunk) for chunk in client_indices) == 0:
        raise PartitionError("label-skew partition left a client with no data")
    return [np.sort(np.asarray(chunk, dtype=np.int64)) for chunk in client_indices]


def cache_peek(cache, key) -> Any:
    """An ``LRUCache`` entry (``None`` when absent), read without touching
    its recency or statistics."""
    return cache._entries.get(key)


def total_supply(state) -> int:
    """Sum of all balances of a ``WorldState`` (conserved by execution
    except for fees and mints)."""
    return sum(account.balance for account in state.accounts())


class CopySnapshotState:
    """The world state as it was before the undo journal: each snapshot
    copies every account and its storage dict, and a revert puts the copies
    back.  The property suite holds ``repro.chain.state.WorldState`` to it.
    Contract installs and storage writes assign the fields directly, as the
    executor and ``Contract.sstore`` did then.
    """

    def __init__(self) -> None:
        self._accounts: Dict[str, Account] = {}
        self._snapshots: List[Dict[str, Account]] = []

    def get_account(self, address) -> Account:
        addr = Address(address)
        key = addr.lower
        if key not in self._accounts:
            self._accounts[key] = Account(address=addr)
        return self._accounts[key]

    def accounts(self) -> Iterator[Account]:
        return iter(list(self._accounts.values()))

    def load_account(self, account: Account) -> None:
        self._accounts[account.address.lower] = account

    def install_contract(self, address, contract: Any, code_size: int) -> None:
        account = self.get_account(address)
        account.contract = contract
        account.code_size = code_size

    def set_storage(self, address, slot: str, value: Any) -> None:
        self.get_account(address).storage[slot] = value

    def balance_of(self, address) -> int:
        account = self._accounts.get(Address(address).lower)
        return account.balance if account else 0

    def credit(self, address, amount: int) -> None:
        if amount < 0:
            raise ValueError(f"credit amount must be non-negative: {amount}")
        self.get_account(address).balance += amount

    def debit(self, address, amount: int) -> None:
        if amount < 0:
            raise ValueError(f"debit amount must be non-negative: {amount}")
        account = self.get_account(address)
        if account.balance < amount:
            raise InsufficientFundsError(
                f"{address} has {account.balance} wei, needs {amount}")
        account.balance -= amount

    def transfer(self, sender, recipient, amount: int) -> None:
        self.debit(sender, amount)
        self.credit(recipient, amount)

    def nonce_of(self, address) -> int:
        account = self._accounts.get(Address(address).lower)
        return account.nonce if account else 0

    def increment_nonce(self, address) -> int:
        account = self.get_account(address)
        account.nonce += 1
        return account.nonce

    def snapshot(self) -> int:
        frame = {
            key: Account(address=account.address, balance=account.balance,
                         nonce=account.nonce, contract=account.contract,
                         code_size=account.code_size, storage=dict(account.storage))
            for key, account in self._accounts.items()}
        self._snapshots.append(frame)
        return len(self._snapshots) - 1

    def revert(self, snapshot_id: int) -> None:
        if not 0 <= snapshot_id < len(self._snapshots):
            raise ValueError(f"unknown snapshot id {snapshot_id}")
        self._accounts = self._snapshots[snapshot_id]
        del self._snapshots[snapshot_id:]

    def commit(self, snapshot_id: int) -> None:
        if not 0 <= snapshot_id < len(self._snapshots):
            raise ValueError(f"unknown snapshot id {snapshot_id}")
        del self._snapshots[snapshot_id:]

    def to_dict(self) -> dict:
        return {key: account.to_dict() for key, account in sorted(self._accounts.items())}


def is_seed_exact(spec) -> bool:
    """Whether a ``ScenarioSpec`` stays on the seed's exact code path."""
    return (spec.num_tasks == 1 and not spec.behavior_fractions
            and spec.network_profile == "ideal" and not spec.async_submissions
            and spec.node_restart_at_seconds is None
            and spec.background_load is None
            and spec.cluster is None
            and spec.analytics is None)


def last_block_entry(wal):
    """The most recent ``block`` entry still in a ``WriteAheadLog``, if any."""
    last = None
    for entry in wal.entries():
        if entry.kind == "block":
            last = entry
    return last


def replicas_for(tracer, trace_id: str) -> List[str]:
    """Sorted replica labels that recorded at least one span of a trace."""
    return sorted({span.replica for span in tracer.spans_for(trace_id)
                   if span.replica is not None})


def rpc_call(gateway, method: str, /, *params: Any, **named: Any) -> Any:
    """Dispatch one call in process and return its raw result, raising
    :class:`JsonRpcError` with the reply's error member on failure."""
    if params and named:
        raise ValueError("pass positional or named params, not both")
    request = make_request(method, dict(named) if named else list(params), 0)
    response = gateway._call(request, None)
    if "error" in response:
        raise JsonRpcError(**response["error"])
    return response["result"]


# -- the HTTP head parser and reply formatter as they were before one-pass
# parsing and the reply-head table (tests/property/test_property_http_oracle.py
# holds repro.net.http to them).

@dataclass
class HttpRequest:
    """One parsed request: method, target path, lower-cased headers, body,
    the request line's protocol version, and the lower-cased tokens of every
    ``Connection`` field line (RFC 9110 section 7.6.1)."""

    method: str
    target: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"
    connection: FrozenSet[str] = field(default=frozenset(), init=False)

    @property
    def path(self) -> str:
        """The target with any query string stripped."""
        return self.target.split("?", 1)[0]

    def wants_keep_alive(self) -> bool:
        """HTTP/1.1 default is keep-alive unless the client says close; an
        HTTP/1.0 connection stays open only when the client asks (RFC 9112
        section 9.3)."""
        if "close" in self.connection:
            return False
        return self.version != "HTTP/1.0" or "keep-alive" in self.connection

    def is_websocket_upgrade(self) -> bool:
        """Whether this is an RFC 6455 upgrade request."""
        return ("upgrade" in self.connection
                and "websocket" in self.headers.get("upgrade", "").lower())


def parse_head(data: Union[bytes, bytearray], max_bytes: int,
               scan_from: int = 0) -> Optional[Tuple[HttpRequest, int, int]]:
    """Parse one request head off the front of ``data``, synchronously.

    ``None`` while the blank line has not arrived (``scan_from`` skips bytes
    an earlier call searched); else the request, body still empty, and the
    offsets in ``data`` where its declared body starts and ends.  The head
    follows RFC 9112's grammar: a request line of exactly ``method SP target
    SP version``, no whitespace before a field line's colon or at its start
    (obs-fold), no empty field name.  Framing is strict: ``Content-Length`` is
    ASCII digits only, duplicates must agree, any ``Transfer-Encoding`` is
    refused.  Raises :class:`ProtocolViolationError` on malformed bytes,
    :class:`HttpVersionNotSupportedError` for a version other than HTTP/1.0
    or HTTP/1.1, :class:`PayloadTooLargeError` past ``max_bytes``.
    """
    end = data.find(b"\r\n\r\n", scan_from)
    if end > max_bytes - 4 or (end < 0 and len(data) > max_bytes):
        raise PayloadTooLargeError(
            f"request head exceeds the {max_bytes}-byte cap")
    if end < 0:
        return None
    request_line, *header_lines = data[:end].decode("latin-1").split("\r\n")
    try:
        method, target, version = request_line.split(" ")
    except ValueError:
        raise ProtocolViolationError("malformed HTTP request line") from None
    if not (method and target and version):
        raise ProtocolViolationError("malformed HTTP request line")
    if version not in VERSIONS:
        raise HttpVersionNotSupportedError(f"HTTP version {version[:16]!r} is not supported")
    headers: Dict[str, str] = {}
    connection = frozenset()
    for line in header_lines:
        name, colon, value = line.partition(":")
        if not colon or not name or name != name.strip():
            raise ProtocolViolationError(f"malformed HTTP header {line!r}")
        name, value = name.lower(), value.strip()
        if name == "connection":
            connection = connection.union(
                token.strip().lower() for token in value.split(","))
        elif name == "content-length" and headers.get(name, value) != value:
            raise ProtocolViolationError("conflicting content-length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise ProtocolViolationError(
            "transfer-encoding is not supported; send content-length")
    length_text = headers.get("content-length", "0")
    if not (length_text.isascii() and length_text.isdigit()):
        raise ProtocolViolationError(f"bad content-length {length_text!r}")
    if len(length_text) > 18 or int(length_text) > max_bytes:
        raise PayloadTooLargeError(
            f"request body of {length_text} bytes exceeds the {max_bytes}-byte cap")
    request = HttpRequest(method=method.upper(), target=target, headers=headers,
                          version=version)
    request.connection = connection
    return request, end + 4, end + 4 + int(length_text)


def format_response(status: int, body: bytes = b"",
                    content_type: str = "application/json",
                    keep_alive: bool = True,
                    extra_headers: Tuple[Tuple[str, str], ...] = ()) -> bytes:
    """One full HTTP/1.1 response, ready to write."""
    head = (f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n")
    for name, value in extra_headers:
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1") + body
