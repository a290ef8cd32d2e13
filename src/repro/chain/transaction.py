"""Transactions: construction, signing, hashing and payload encoding.

A transaction either

* transfers value to an externally-owned account (``to`` set, empty data),
* calls a contract method (``to`` set, ``data`` = encoded call), or
* creates a contract (``to`` is ``None``, ``data`` = encoded constructor).

Call payloads are canonical-JSON envelopes rather than ABI-packed bytes; the
byte length of the envelope is what feeds calldata gas, which is the property
the evaluation cares about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional

from repro.errors import InvalidSignatureError, InvalidTransactionError
from repro.chain.account import Address
from repro.chain.gas import GasSchedule, SEPOLIA_GAS_SCHEDULE
from repro.chain.keys import KeyPair, Signature, recover_address
from repro.utils.encoding import from_hex, to_hex
from repro.utils.hashing import keccak256
from repro.utils.serialization import canonical_dumps, canonical_loads, rlp_encode


def encode_call(method: str, args: List[Any]) -> bytes:
    """Encode a contract method call into calldata bytes."""
    return canonical_dumps({"method": method, "args": list(args)}).encode("utf-8")


def encode_create(contract_name: str, args: List[Any]) -> bytes:
    """Encode a contract-creation payload into calldata bytes."""
    return canonical_dumps({"create": contract_name, "args": list(args)}).encode("utf-8")


def decode_payload(data: bytes) -> Dict[str, Any]:
    """Decode calldata produced by :func:`encode_call` / :func:`encode_create`."""
    if not data:
        return {}
    try:
        payload = canonical_loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise InvalidTransactionError(f"undecodable calldata: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidTransactionError("calldata must decode to an object")
    return payload


@dataclass
class Transaction:
    """A (possibly signed) transaction.

    Attributes
    ----------
    sender:
        Address of the originating externally-owned account.
    to:
        Destination address, or ``None`` for contract creation.
    value:
        Amount of wei transferred to ``to`` (or to the created contract).
    data:
        Calldata bytes (see :func:`encode_call` / :func:`encode_create`).
    nonce:
        Sender's transaction count at submission time.
    gas_limit / gas_price:
        Standard Ethereum fee fields; the maximum fee is
        ``gas_limit * gas_price`` wei.
    """

    sender: Address
    to: Optional[Address]
    value: int = 0
    data: bytes = b""
    nonce: int = 0
    gas_limit: int = 21_000
    gas_price: int = 10**9
    signature: Optional[Signature] = None

    #: Fields that feed :meth:`signing_payload`; assigning any of them drops
    #: the cached payload/hash and the memoized verification verdict.
    _IDENTITY_FIELDS = frozenset(
        {"sender", "to", "value", "data", "nonce", "gas_limit", "gas_price"}
    )

    # Class-level defaults (ClassVar: not dataclass fields) so the caches
    # exist before __init__ assigns the real fields; instances shadow them.
    _payload_cache: ClassVar[Optional[bytes]] = None
    _hash_cache: ClassVar[Optional[bytes]] = None
    _hash_hex_cache: ClassVar[Optional[str]] = None
    _verified_signature: ClassVar[Optional[Signature]] = None
    _verified_ok: ClassVar[bool] = False

    def __setattr__(self, name: str, value: Any) -> None:
        object.__setattr__(self, name, value)
        if name in Transaction._IDENTITY_FIELDS:
            object.__setattr__(self, "_payload_cache", None)
            object.__setattr__(self, "_hash_cache", None)
            object.__setattr__(self, "_hash_hex_cache", None)
            object.__setattr__(self, "_verified_signature", None)
        elif name == "signature":
            object.__setattr__(self, "_verified_signature", None)

    def __post_init__(self) -> None:
        self.sender = Address(self.sender)
        if self.to is not None:
            self.to = Address(self.to)
        if self.value < 0:
            raise InvalidTransactionError(f"negative value: {self.value}")
        if self.gas_limit <= 0:
            raise InvalidTransactionError(f"non-positive gas limit: {self.gas_limit}")
        if self.gas_price < 0:
            raise InvalidTransactionError(f"negative gas price: {self.gas_price}")
        if self.nonce < 0:
            raise InvalidTransactionError(f"negative nonce: {self.nonce}")
        if not isinstance(self.data, (bytes, bytearray)):
            raise InvalidTransactionError("data must be bytes")
        self.data = bytes(self.data)

    # -- identity -----------------------------------------------------------

    @property
    def is_create(self) -> bool:
        """Whether this transaction creates a contract."""
        return self.to is None

    def signing_payload(self) -> bytes:
        """The RLP-style byte string that is hashed and signed.

        Cached: the identity fields are fixed after construction (assigning
        one invalidates the cache), and the payload is re-encoded on every
        hash access otherwise -- a measurable cost on the mempool hot path.
        """
        payload = self._payload_cache
        if payload is None:
            payload = rlp_encode([
                self.nonce,
                self.gas_price,
                self.gas_limit,
                (str(self.to).lower() if self.to is not None else ""),
                self.value,
                self.data,
                str(self.sender).lower(),
            ])
            object.__setattr__(self, "_payload_cache", payload)
        return payload

    @property
    def hash(self) -> bytes:
        """32-byte transaction hash (over the unsigned payload)."""
        digest = self._hash_cache
        if digest is None:
            digest = keccak256(self.signing_payload())
            object.__setattr__(self, "_hash_cache", digest)
        return digest

    @property
    def hash_hex(self) -> str:
        """Hex-encoded transaction hash, as shown by explorers."""
        hex_hash = self._hash_hex_cache
        if hex_hash is None:
            hex_hash = to_hex(self.hash)
            object.__setattr__(self, "_hash_hex_cache", hex_hash)
        return hex_hash

    # -- signing ------------------------------------------------------------

    def sign(self, keypair: KeyPair) -> "Transaction":
        """Sign in place with ``keypair`` (must match :attr:`sender`)."""
        if Address(keypair.address) != self.sender:
            raise InvalidSignatureError(
                f"keypair address {keypair.address} does not match sender {self.sender}"
            )
        self.signature = keypair.sign(self.hash)
        return self

    def verify_signature(self) -> bool:
        """Check that the attached signature was produced by :attr:`sender`.

        The verdict is memoized per (signature, identity-fields) pair: a
        transaction is verified on submission, again by the mempool and a
        third time at block execution, and the Schnorr check is by far the
        most expensive step on the ingest path.  Mutating any identity field
        or the signature drops the memo.
        """
        signature = self.signature
        if signature is None:
            return False
        if self._verified_signature is signature:
            return self._verified_ok
        try:
            recovered = recover_address(signature, self.hash)
            verdict = Address(recovered) == self.sender
        except InvalidSignatureError:
            verdict = False
        object.__setattr__(self, "_verified_ok", verdict)
        object.__setattr__(self, "_verified_signature", signature)
        return verdict

    def verify_job(self) -> tuple:
        """Picklable ``(signature dict, tx hash, sender)`` verify job.

        The wire format of the out-of-process verify pool
        (``repro.parallel.verify``): a worker that rebuilds the signature
        and checks it against the hash and sender reproduces
        :meth:`verify_signature` exactly.  Raises when unsigned
        -- an unsigned transaction has no job to farm out.
        """
        if self.signature is None:
            raise InvalidSignatureError(
                f"transaction {self.hash_hex} is unsigned")
        return (self.signature.to_dict(), self.hash, str(self.sender))

    # -- gas ----------------------------------------------------------------

    def intrinsic_gas(self, schedule: GasSchedule = SEPOLIA_GAS_SCHEDULE) -> int:
        """Intrinsic gas charged before any execution."""
        return schedule.intrinsic_gas(self.data, self.is_create)

    def max_fee(self) -> int:
        """Upper bound on the fee in wei (``gas_limit * gas_price``)."""
        return self.gas_limit * self.gas_price

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly representation (as returned by the node API)."""
        return {
            "hash": self.hash_hex,
            "sender": str(self.sender),
            "to": str(self.to) if self.to is not None else None,
            "value": self.value,
            "data": to_hex(self.data) if self.data else "0x",
            "nonce": self.nonce,
            "gas_limit": self.gas_limit,
            "gas_price": self.gas_price,
            "signature": self.signature.to_dict() if self.signature else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Transaction":
        """Reconstruct a transaction from :meth:`to_dict` output.

        The ``hash`` field is ignored -- the hash is always recomputed from
        the reconstructed fields, so a tampered payload cannot smuggle a
        mismatched identity.
        """
        tx = cls(
            sender=Address(payload["sender"]),
            to=Address(payload["to"]) if payload.get("to") else None,
            value=int(payload.get("value", 0)),
            data=from_hex(payload.get("data") or "0x"),
            nonce=int(payload.get("nonce", 0)),
            gas_limit=int(payload.get("gas_limit", 21_000)),
            gas_price=int(payload.get("gas_price", 10**9)),
        )
        if payload.get("signature"):
            tx.signature = Signature.from_dict(payload["signature"])
        return tx

    def serialize_raw(self) -> str:
        """Hex-encode the signed transaction for ``eth_sendRawTransaction``.

        The wire form is the canonical-JSON rendering of :meth:`to_dict`
        (signature included), hex-encoded -- the reproduction's analogue of
        an RLP-encoded raw transaction.
        """
        return to_hex(canonical_dumps(self.to_dict()).encode("utf-8"))

    @classmethod
    def deserialize_raw(cls, raw: str) -> "Transaction":
        """Decode a :meth:`serialize_raw` payload back into a transaction."""
        try:
            payload = canonical_loads(from_hex(raw).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise InvalidTransactionError(f"undecodable raw transaction: {exc}") from exc
        if not isinstance(payload, dict):
            raise InvalidTransactionError("raw transaction must decode to an object")
        return cls.from_dict(payload)

    @property
    def size_bytes(self) -> int:
        """Approximate wire size of the transaction in bytes."""
        return len(self.signing_payload()) + (3 * 32 if self.signature else 0)

    def decoded_payload(self) -> Dict[str, Any]:
        """Decode the calldata envelope (empty dict for plain transfers)."""
        return decode_payload(self.data)
