"""PARP wire messages: the request/response structures of Fig. 3.

A request is ``req = (α, h_B, a, γ, h_req, σ_a, σ_req)``:

* ``α``     — channel identifier (16 bytes),
* ``h_B``   — most recent block hash known to the light client,
* ``a``     — *cumulative* payment amount (must be monotone per channel),
* ``γ``     — the wrapped base-layer RPC call,
* ``h_req`` — ``keccak256(α ‖ h_B ‖ a ‖ γ)``,
* ``σ_a``   — LC signature over ``keccak256(α ‖ a)`` (the micropayment —
  this is what the full node redeems on-chain),
* ``σ_req`` — LC signature over ``h_req`` (binds the payment to the call,
  needed for fraud proofs).

A response is ``res = (α, m_B, a, R(γ), π_γ, h_req, σ_req, σ_res)`` where
``σ_res`` signs ``h_res = keccak256(α ‖ status ‖ m_B ‖ a ‖ rlp([R, π]) ‖
h_req ‖ σ_req)``.  On the wire the response omits ``α`` (the session is
channel-scoped) but ``α`` stays in the signed pre-image, so the 187-byte
metadata figure of Table II is met while fraud proofs remain α-bound; the
*fraud blob* (`encode_for_fraud`) re-attaches α explicitly for on-chain
decoding, mirroring ``decodeResponse`` in Algorithm 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Optional, Sequence

from ..crypto import Signature, SignatureError, keccak256, recover_address
from ..crypto.keys import Address, PrivateKey
from ..rlp import codec as rlp
from .constants import (
    ALPHA_BYTES,
    AMOUNT_BYTES,
    BATCH_REQUEST_OVERHEAD_BYTES,
    HASH_BYTES,
    HEIGHT_BYTES,
    MAX_AMOUNT,
    MILLIS_BYTES,
    OVERLOAD_OVERHEAD_BYTES,
    REQUEST_OVERHEAD_BYTES,
    RESPONSE_OVERHEAD_BYTES,
    SIGNATURE_BYTES,
    STATUS_BYTES,
)

__all__ = [
    "MessageError",
    "RpcCall",
    "PARPRequest",
    "PARPResponse",
    "BatchRequest",
    "BatchResponse",
    "OverloadedReply",
    "ResponseStatus",
    "payment_digest",
    "payment_preimage",
    "handshake_digest",
    "handshake_preimage",
    "request_digest",
    "batch_request_digest",
    "response_digest",
    "response_preimage",
    "overload_digest",
    "overload_preimage",
]


class MessageError(ValueError):
    """Raised on malformed PARP wire data."""


class ResponseStatus:
    """Response status byte values."""

    OK = 0
    ERROR = 1       # base-layer RPC error (e.g. unknown method); still signed
    OVERLOADED = 2  # admission shed: a signed refusal, not a served response


def _encode_amount(amount: int) -> bytes:
    if not 0 <= amount <= MAX_AMOUNT:
        raise MessageError(f"payment amount {amount} out of u128 range")
    return amount.to_bytes(AMOUNT_BYTES, "big")


def _encode_height(height: int) -> bytes:
    if not 0 <= height < (1 << (8 * HEIGHT_BYTES)):
        raise MessageError(f"block height {height} out of u64 range")
    return height.to_bytes(HEIGHT_BYTES, "big")


def payment_preimage(alpha: bytes, amount: int) -> bytes:
    """Bytes hashed for σ_a; shared with the on-chain CMM (metered there)."""
    if len(alpha) != ALPHA_BYTES:
        raise MessageError(f"channel id must be {ALPHA_BYTES} bytes")
    return alpha + _encode_amount(amount)


def payment_digest(alpha: bytes, amount: int) -> bytes:
    """``Hash(α, a)`` — the digest behind σ_a; also checked on-chain by the
    Channels Management Module when redeeming or disputing."""
    return keccak256(payment_preimage(alpha, amount))


def handshake_preimage(light_client: Address, expiry: int) -> bytes:
    """Bytes behind the handshake confirmation ``Sign((LC ‖ expiryDate),
    sk_FN)`` of Algorithm 1; verified again on-chain when opening a channel."""
    if expiry < 0 or expiry >= (1 << 64):
        raise MessageError("handshake expiry out of u64 range")
    return light_client.to_bytes() + expiry.to_bytes(8, "big")


def handshake_digest(light_client: Address, expiry: int) -> bytes:
    return keccak256(handshake_preimage(light_client, expiry))


def request_digest(alpha: bytes, h_b: bytes, amount: int, call_bytes: bytes) -> bytes:
    """``h_req = Hash(α, h_B, a, γ)``."""
    if len(alpha) != ALPHA_BYTES or len(h_b) != HASH_BYTES:
        raise MessageError("bad α or h_B length in request digest")
    return keccak256(alpha + h_b + _encode_amount(amount) + call_bytes)


def batch_request_digest(alpha: bytes, h_b: bytes, amount: int, version: int,
                         calls_bytes: bytes) -> bytes:
    """``h_req = Hash(α, h_B, a, v, rlp([γ_1 … γ_N]))`` for a batch.

    The version byte is bound into the digest so a server cannot silently
    downgrade the batch semantics the client signed for.
    """
    if len(alpha) != ALPHA_BYTES or len(h_b) != HASH_BYTES:
        raise MessageError("bad α or h_B length in batch request digest")
    if not 0 <= version < 256:
        raise MessageError(f"batch protocol version {version} out of u8 range")
    return keccak256(
        alpha + h_b + _encode_amount(amount) + bytes([version]) + calls_bytes
    )


def response_preimage(alpha: bytes, status: int, m_b: int, amount: int,
                      payload: bytes, h_req: bytes, sig_req: bytes) -> bytes:
    """Bytes behind h_res; shared with the on-chain FDM (metered there)."""
    if len(alpha) != ALPHA_BYTES:
        raise MessageError(f"channel id must be {ALPHA_BYTES} bytes")
    return (
        alpha + bytes([status]) + _encode_height(m_b) + _encode_amount(amount)
        + payload + h_req + sig_req
    )


def response_digest(alpha: bytes, status: int, m_b: int, amount: int,
                    payload: bytes, h_req: bytes, sig_req: bytes) -> bytes:
    """``h_res = Hash(α, status, m_B, a, rlp([R, π]), h_req, σ_req)``."""
    return keccak256(
        response_preimage(alpha, status, m_b, amount, payload, h_req, sig_req)
    )


def _encode_millis(value: int, what: str) -> bytes:
    if not 0 <= value < (1 << (8 * MILLIS_BYTES)):
        raise MessageError(f"{what} {value} out of u32 fixed-point range")
    return value.to_bytes(MILLIS_BYTES, "big")


def overload_preimage(m_b: int, load_millis: int, retry_after_millis: int,
                      fee_multiplier_millis: int, h_req: bytes) -> bytes:
    """Bytes behind σ_ovl — the full Overloaded reply, h_req included, so a
    shed of request X cannot be replayed as a shed of request Y."""
    if len(h_req) != HASH_BYTES:
        raise MessageError("bad h_req length in overload digest")
    return (
        bytes([ResponseStatus.OVERLOADED]) + _encode_height(m_b)
        + _encode_millis(load_millis, "load factor")
        + _encode_millis(retry_after_millis, "retry-after hint")
        + _encode_millis(fee_multiplier_millis, "fee multiplier")
        + h_req
    )


def overload_digest(m_b: int, load_millis: int, retry_after_millis: int,
                    fee_multiplier_millis: int, h_req: bytes) -> bytes:
    """``h_ovl = Hash(status, m_B, load, retry_after, fee_mult, h_req)``."""
    return keccak256(overload_preimage(
        m_b, load_millis, retry_after_millis, fee_multiplier_millis, h_req,
    ))


# --------------------------------------------------------------------------- #
# RPC call γ
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class RpcCall:
    """The base-layer RPC call γ wrapped inside a PARP request.

    Parameters are RLP items (bytes / nested lists); helpers convert common
    Python values.  The canonical encoding is ``rlp([method, param, …])``.
    """

    method: str
    params: tuple[rlp.Item, ...] = ()

    @classmethod
    def create(cls, method: str, *params: Any) -> "RpcCall":
        return cls(method=method, params=tuple(_param_to_item(p) for p in params))

    def encode(self) -> bytes:
        return rlp.encode([self.method.encode("utf-8"), *self.params])

    @classmethod
    def decode(cls, raw: bytes) -> "RpcCall":
        try:
            item = rlp.decode(raw)
        except rlp.RLPError as exc:
            raise MessageError(f"undecodable RPC call: {exc}") from exc
        if not isinstance(item, list) or not item or not isinstance(item[0], bytes):
            raise MessageError("RPC call must be rlp([method, params…])")
        try:
            method = item[0].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MessageError("RPC method name is not UTF-8") from exc
        return cls(method=method, params=tuple(item[1:]))

    def param_bytes(self, index: int, exact: int | None = None) -> bytes:
        if index >= len(self.params) or not isinstance(self.params[index], bytes):
            raise MessageError(f"{self.method}: missing bytes param {index}")
        value = self.params[index]
        if exact is not None and len(value) != exact:
            raise MessageError(
                f"{self.method}: param {index} must be {exact} bytes, got {len(value)}"
            )
        return value

    def param_int(self, index: int) -> int:
        raw = self.param_bytes(index)
        try:
            return rlp.decode_int(raw)
        except rlp.RLPError as exc:
            raise MessageError(f"{self.method}: bad integer param {index}") from exc

    def __repr__(self) -> str:
        return f"RpcCall({self.method}, {len(self.params)} params)"


def _param_to_item(value: Any) -> rlp.Item:
    if isinstance(value, bool):
        return rlp.encode_int(int(value))
    if isinstance(value, int):
        if value < 0:
            raise MessageError("negative RPC parameters are not encodable")
        return rlp.encode_int(value)
    if isinstance(value, Address):
        return value.to_bytes()
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, (list, tuple)):
        return [_param_to_item(v) for v in value]
    raise MessageError(f"cannot encode RPC parameter of type {type(value).__name__}")


# --------------------------------------------------------------------------- #
# Request
# --------------------------------------------------------------------------- #

def _recover(digest: bytes, sig: bytes, what: str) -> Address:
    """The signer of ``digest``; a malformed signature is a MessageError."""
    try:
        return recover_address(digest, Signature.from_bytes(sig))
    except SignatureError as exc:
        raise MessageError(f"bad {what} signature: {exc}") from exc


def _split(raw: bytes, pos: int, widths: Sequence[int]) -> tuple[list[bytes], int]:
    """Cut consecutive fixed-width fields out of ``raw`` from ``pos``."""
    fields = []
    for width in widths:
        fields.append(raw[pos:pos + width])
        pos += width
    return fields, pos


def _byte_strings(items: Sequence[rlp.Item], message: str) -> tuple[bytes, ...]:
    """``items`` as a tuple, or a MessageError when one is not a byte string."""
    for item in items:
        if not isinstance(item, bytes):
            raise MessageError(message)
    return tuple(items)


def _sign_request(key: PrivateKey, alpha: bytes, amount: int,
                  h_req: bytes) -> tuple[bytes, bytes]:
    """Step (A)'s two signatures: σ_a over ``Hash(α, a)``, σ_req over h_req."""
    return (key.sign(payment_digest(alpha, amount)).to_bytes(),
            key.sign(h_req).to_bytes())


_REQUEST_META = (ALPHA_BYTES, HASH_BYTES, AMOUNT_BYTES, HASH_BYTES,
                 SIGNATURE_BYTES, SIGNATURE_BYTES)


class _PaidRequest:
    """What both request formats share: the metadata codec ``α ‖ h_B ‖ a ‖
    h_req ‖ σ_a ‖ σ_req`` and step (B) — the digest, then the request and
    payment signatures, then the signer match.  Subclasses name themselves
    in the error strings (``_noun``, and ``_name`` for the message as a
    whole) and set their fixed ``wire_overhead``."""

    _noun = "request"
    _name = "request"

    def _meta_wire(self) -> bytes:
        return (self.alpha + self.h_b + _encode_amount(self.a) + self.h_req
                + self.sig_a + self.sig_req)

    @classmethod
    def _split_wire(cls, raw: bytes, pos: int) -> tuple[dict, bytes]:
        """The metadata fields at ``raw[pos:]`` and the call bytes after them."""
        if len(raw) < cls.wire_overhead:
            raise MessageError(
                f"{cls._name} too short: {len(raw)} < {cls.wire_overhead}"
            )
        (alpha, h_b, amount, h_req, sig_a, sig_req), pos = _split(
            raw, pos, _REQUEST_META)
        meta = dict(alpha=alpha, h_b=h_b, a=int.from_bytes(amount, "big"),
                    h_req=h_req, sig_a=sig_a, sig_req=sig_req)
        return meta, raw[pos:]

    @cached_property
    def payer(self) -> Address:
        """The signer of σ_a, recovered once per request object: step (B)
        and the channel's payment check both ask for it.  A malformed σ_a
        raises :class:`~repro.crypto.SignatureError`."""
        return recover_address(payment_digest(self.alpha, self.a),
                               Signature.from_bytes(self.sig_a))

    def verify(self, expected_sender: Optional[Address] = None) -> Address:
        """Full-node-side request verification (step (B) in Fig. 5).

        Checks the digest reconstruction and both signatures; returns the
        recovered light-client address.
        """
        noun = self._noun
        if self.h_req != self.expected_digest():
            raise MessageError(f"{noun} hash does not match {noun} contents")
        req_signer = _recover(self.h_req, self.sig_req, self._name)
        try:
            pay_signer = self.payer
        except SignatureError as exc:
            raise MessageError(f"bad {self._name} signature: {exc}") from exc
        if req_signer != pay_signer:
            raise MessageError(f"{noun} and payment signed by different keys")
        if expected_sender is not None and req_signer != expected_sender:
            raise MessageError(
                f"{noun} signer is not the channel's light client")
        return req_signer


@dataclass(frozen=True)
class PARPRequest(_PaidRequest):
    """A signed PARP request (Fig. 3, left)."""

    alpha: bytes
    h_b: bytes
    a: int
    call: RpcCall
    h_req: bytes
    sig_a: bytes
    sig_req: bytes

    @classmethod
    def build(cls, alpha: bytes, h_b: bytes, amount: int, call: RpcCall,
              key: PrivateKey) -> "PARPRequest":
        """Construct and sign a request (light-client side, step (A))."""
        h_req = request_digest(alpha, h_b, amount, call.encode())
        sig_a, sig_req = _sign_request(key, alpha, amount, h_req)
        return cls(alpha=alpha, h_b=h_b, a=amount, call=call,
                   h_req=h_req, sig_a=sig_a, sig_req=sig_req)

    #: PARP metadata bytes added on top of the base RPC call (Table II)
    wire_overhead = REQUEST_OVERHEAD_BYTES

    @property
    def calls(self) -> tuple[RpcCall, ...]:
        """γ as the one-call case of a batch's call list."""
        return (self.call,)

    # -- wire ------------------------------------------------------------- #

    def encode_wire(self) -> bytes:
        """226 bytes of PARP metadata followed by the base RPC call γ."""
        return self._meta_wire() + self.call.encode()

    @classmethod
    def decode_wire(cls, raw: bytes) -> "PARPRequest":
        meta, body = cls._split_wire(raw, 0)
        return cls(call=RpcCall.decode(body), **meta)

    # -- verification -------------------------------------------------------- #

    def expected_preimage(self) -> bytes:
        """The exact bytes behind h_req (for metered on-chain recomputation)."""
        return self.alpha + self.h_b + _encode_amount(self.a) + self.call.encode()

    def expected_digest(self) -> bytes:
        return request_digest(self.alpha, self.h_b, self.a, self.call.encode())


# --------------------------------------------------------------------------- #
# Response
# --------------------------------------------------------------------------- #

_RESPONSE_META = (HEIGHT_BYTES, AMOUNT_BYTES, HASH_BYTES, SIGNATURE_BYTES,
                  SIGNATURE_BYTES)


def _rlp_fields(raw: bytes, what: str, shape: str,
                kinds: tuple[type, ...]) -> list:
    """``raw`` decoded as an rlp list of exactly ``kinds``; ``what`` and
    ``shape`` name it in the error strings."""
    try:
        item = rlp.decode(raw)
    except rlp.RLPError as exc:
        raise MessageError(f"undecodable {what}: {exc}") from exc
    if (not isinstance(item, list) or len(item) != len(kinds)
            or not all(isinstance(x, kind) for x, kind in zip(item, kinds))):
        raise MessageError(f"{what} must be rlp({shape})")
    return item


class _SignedResponse:
    """What both response formats share: the 187-byte metadata header
    ``status ‖ m_B ‖ a ‖ h_req ‖ σ_req ‖ σ_res`` in front of an rlp payload,
    and the α-bound digest σ_res signs.  Subclasses provide ``payload``
    and name themselves (``_noun``) in the error strings."""

    _noun = "response"

    def preimage(self, alpha: bytes) -> bytes:
        """The exact bytes behind h_res (for metered on-chain recomputation)."""
        return response_preimage(
            alpha, self.status, self.m_b, self.a, self.payload, self.h_req,
            self.sig_req,
        )

    def digest(self, alpha: bytes) -> bytes:
        """Recompute h_res for the given channel id."""
        return keccak256(self.preimage(alpha))

    def _signed(self, alpha: bytes, key: PrivateKey):
        """This response with σ_res over its α-bound digest (step (C))."""
        return replace(self, sig_res=key.sign(self.digest(alpha)).to_bytes())

    def signer(self, alpha: bytes) -> Address:
        """Recover the full-node address that signed this response."""
        return _recover(self.digest(alpha), self.sig_res, self._noun)

    def encode_wire(self) -> bytes:
        """187 bytes of metadata followed by the rlp payload."""
        return (
            bytes([self.status]) + _encode_height(self.m_b)
            + _encode_amount(self.a) + self.h_req + self.sig_req + self.sig_res
            + self.payload
        )

    @classmethod
    def _split_wire(cls, raw: bytes) -> tuple[dict, bytes]:
        """The metadata fields of ``raw`` and the payload bytes after them."""
        if len(raw) < RESPONSE_OVERHEAD_BYTES:
            raise MessageError(
                f"{cls._noun} too short: {len(raw)} < {RESPONSE_OVERHEAD_BYTES}"
            )
        (m_b, amount, h_req, sig_req, sig_res), pos = _split(
            raw, STATUS_BYTES, _RESPONSE_META)
        meta = dict(status=raw[0], m_b=int.from_bytes(m_b, "big"),
                    a=int.from_bytes(amount, "big"), h_req=h_req,
                    sig_req=sig_req, sig_res=sig_res)
        return meta, raw[pos:]

    @property
    def wire_overhead(self) -> int:
        """Metadata bytes (187) + Merkle proof bytes, per Table II."""
        proof_bytes = len(rlp.encode(list(self.proof))) if self.proof else 0
        return RESPONSE_OVERHEAD_BYTES + proof_bytes


@dataclass(frozen=True)
class PARPResponse(_SignedResponse):
    """A signed PARP response (Fig. 3, right)."""

    status: int
    m_b: int
    a: int
    result: bytes                 # R(γ): rlp-encoded result payload
    proof: tuple[bytes, ...]      # π_γ: Merkle proof nodes (may be empty)
    h_req: bytes
    sig_req: bytes                # echo of the request signature
    sig_res: bytes

    @classmethod
    def build(cls, alpha: bytes, request: PARPRequest, m_b: int, result: bytes,
              proof: Sequence[bytes], key: PrivateKey,
              status: int = ResponseStatus.OK) -> "PARPResponse":
        """Construct and sign a response (full-node side, step (C))."""
        return cls(
            status=status, m_b=m_b, a=request.a, result=result,
            proof=tuple(proof), h_req=request.h_req, sig_req=request.sig_req,
            sig_res=b"",
        )._signed(alpha, key)

    @property
    def payload(self) -> bytes:
        """``rlp([R(γ), π_γ])`` — the part of h_res after the metadata."""
        return rlp.encode([self.result, list(self.proof)])

    def __len__(self) -> int:
        """A single response answers one call (cf. ``BatchResponse``)."""
        return 1

    # -- wire ------------------------------------------------------------- #

    @classmethod
    def decode_wire(cls, raw: bytes) -> "PARPResponse":
        meta, body = cls._split_wire(raw)
        result, proof = _rlp_fields(body, "response payload", "[result, proof]",
                                    (bytes, list))
        return cls(result=result, proof=_byte_strings(
            proof, "proof nodes must be byte strings"), **meta)

    # -- fraud blob (on-chain format, α re-attached) ------------------------- #

    def encode_for_fraud(self, alpha: bytes) -> bytes:
        """Serialization submitted to the Fraud Detection Module."""
        if len(alpha) != ALPHA_BYTES:
            raise MessageError(f"channel id must be {ALPHA_BYTES} bytes")
        return alpha + self.encode_wire()

    @classmethod
    def decode_for_fraud(cls, raw: bytes) -> tuple[bytes, "PARPResponse"]:
        if len(raw) < ALPHA_BYTES:
            raise MessageError("fraud blob too short for a channel id")
        return raw[:ALPHA_BYTES], cls.decode_wire(raw[ALPHA_BYTES:])

    def with_result(self, result: bytes) -> "PARPResponse":
        """A tampered copy (used by tests and the malicious-node examples)."""
        return replace(self, result=result)


# --------------------------------------------------------------------------- #
# Overloaded reply (admission control)
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class OverloadedReply:
    """A signed, typed refusal: the server's admission queue is full.

    Sent *instead of* a served response when a request (or batch) arrives
    past the admission threshold.  It is deliberately not a
    :class:`PARPResponse` — the client paid nothing for it (shedding happens
    before the payment is accepted, so the channel's server-side cumulative
    amount does not advance) and it proves nothing about state.  What the
    signature buys is **attribution**: the overload signal demonstrably came
    from the serving key, so clients can treat it as a soft failover hint
    without opening a spoofing channel (a MITM can't demote a healthy
    server by forging "I'm overloaded" replies).

    Fixed-point u32 fields (thousandths):

    * ``load_millis``           — load factor at decision time (1000 = the
      admission queue is exactly full),
    * ``retry_after_millis``    — jittered seconds until the queue is
      expected to have drained enough to admit this request's cost,
    * ``fee_multiplier_millis`` — the repriced quote (matches the
      republished :class:`~repro.parp.pricing.RepricedFeeSchedule`).
    """

    m_b: int
    load_millis: int
    retry_after_millis: int
    fee_multiplier_millis: int
    h_req: bytes
    sig_ovl: bytes

    @classmethod
    def build(cls, m_b: int, load: float, retry_after: float,
              fee_multiplier: float, h_req: bytes,
              key: PrivateKey) -> "OverloadedReply":
        """Quantize, digest, and sign (server side, the shed path)."""
        limit = (1 << (8 * MILLIS_BYTES)) - 1
        load_millis = min(limit, max(0, round(load * 1000)))
        retry_millis = min(limit, max(0, round(retry_after * 1000)))
        fee_millis = min(limit, max(0, round(fee_multiplier * 1000)))
        digest = overload_digest(m_b, load_millis, retry_millis, fee_millis,
                                 h_req)
        return cls(m_b=m_b, load_millis=load_millis,
                   retry_after_millis=retry_millis,
                   fee_multiplier_millis=fee_millis, h_req=h_req,
                   sig_ovl=key.sign(digest).to_bytes())

    # -- float views ------------------------------------------------------- #

    @property
    def load(self) -> float:
        return self.load_millis / 1000.0

    @property
    def retry_after(self) -> float:
        return self.retry_after_millis / 1000.0

    @property
    def fee_multiplier(self) -> float:
        return self.fee_multiplier_millis / 1000.0

    # -- wire ------------------------------------------------------------- #

    @staticmethod
    def is_overload_wire(raw: bytes) -> bool:
        """Cheap discriminator: served responses lead with status OK/ERROR,
        an overload reply with its own status byte — one branch before the
        normal decode path, no exception control flow."""
        return (len(raw) == OVERLOAD_OVERHEAD_BYTES
                and raw[0] == ResponseStatus.OVERLOADED)

    def encode_wire(self) -> bytes:
        """118 bytes, all metadata (see OVERLOAD_OVERHEAD_BYTES)."""
        return (
            overload_preimage(self.m_b, self.load_millis,
                              self.retry_after_millis,
                              self.fee_multiplier_millis, self.h_req)
            + self.sig_ovl
        )

    @classmethod
    def decode_wire(cls, raw: bytes) -> "OverloadedReply":
        if len(raw) != OVERLOAD_OVERHEAD_BYTES:
            raise MessageError(
                f"overload reply must be {OVERLOAD_OVERHEAD_BYTES} bytes, "
                f"got {len(raw)}"
            )
        if raw[0] != ResponseStatus.OVERLOADED:
            raise MessageError(f"not an overload reply (status {raw[0]})")
        pos = STATUS_BYTES
        m_b = int.from_bytes(raw[pos:pos + HEIGHT_BYTES], "big"); pos += HEIGHT_BYTES
        load = int.from_bytes(raw[pos:pos + MILLIS_BYTES], "big"); pos += MILLIS_BYTES
        retry = int.from_bytes(raw[pos:pos + MILLIS_BYTES], "big"); pos += MILLIS_BYTES
        fee = int.from_bytes(raw[pos:pos + MILLIS_BYTES], "big"); pos += MILLIS_BYTES
        h_req = raw[pos:pos + HASH_BYTES]; pos += HASH_BYTES
        sig_ovl = raw[pos:pos + SIGNATURE_BYTES]
        return cls(m_b=m_b, load_millis=load, retry_after_millis=retry,
                   fee_multiplier_millis=fee, h_req=h_req, sig_ovl=sig_ovl)

    # -- verification ------------------------------------------------------ #

    def digest(self) -> bytes:
        return overload_digest(self.m_b, self.load_millis,
                               self.retry_after_millis,
                               self.fee_multiplier_millis, self.h_req)

    def signer(self) -> Address:
        return _recover(self.digest(), self.sig_ovl, "overload")

    def verify(self, expected_signer: Optional[Address] = None,
               expected_h_req: Optional[bytes] = None) -> Address:
        """Client-side checks: the shed is bound to *our* request and signed
        by *our* server — anything else is an invalid response, not a soft
        failure."""
        if expected_h_req is not None and self.h_req != expected_h_req:
            raise MessageError("overload reply answers a different request")
        signer = self.signer()
        if expected_signer is not None and signer != expected_signer:
            raise MessageError(
                "overload reply signed by a key other than the serving node"
            )
        return signer


# --------------------------------------------------------------------------- #
# Batched queries (multiproof extension)
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class BatchRequest(_PaidRequest):
    """N RPC calls paid for by ONE channel update.

    Structurally a :class:`PARPRequest` whose γ is a *list* of calls and whose
    metadata is prefixed by a batch-protocol version byte.  The cumulative
    amount ``a`` covers the whole batch, so the channel advances once no
    matter how many keys the dApp fetches — and the server answers with one
    deduplicated multiproof instead of N overlapping proofs.
    """

    version: int
    alpha: bytes
    h_b: bytes
    a: int
    calls: tuple[RpcCall, ...]
    h_req: bytes
    sig_a: bytes
    sig_req: bytes

    _noun = "batch"
    _name = "batch request"
    #: the version byte in front of the single-request metadata
    wire_overhead = BATCH_REQUEST_OVERHEAD_BYTES

    @staticmethod
    def _calls_bytes(calls: Sequence[RpcCall]) -> bytes:
        return rlp.encode([call.encode() for call in calls])

    @classmethod
    def build(cls, alpha: bytes, h_b: bytes, amount: int,
              calls: Sequence[RpcCall], key: PrivateKey,
              version: int) -> "BatchRequest":
        """Construct and sign a batch request (light-client side)."""
        if not calls:
            raise MessageError("a batch must contain at least one call")
        calls_bytes = cls._calls_bytes(calls)
        h_req = batch_request_digest(alpha, h_b, amount, version, calls_bytes)
        sig_a, sig_req = _sign_request(key, alpha, amount, h_req)
        return cls(version=version, alpha=alpha, h_b=h_b, a=amount,
                   calls=tuple(calls), h_req=h_req, sig_a=sig_a,
                   sig_req=sig_req)

    # -- wire ------------------------------------------------------------- #

    def encode_wire(self) -> bytes:
        """227 bytes of metadata followed by rlp([γ_1 … γ_N])."""
        return (bytes([self.version]) + self._meta_wire()
                + self._calls_bytes(self.calls))

    @classmethod
    def decode_wire(cls, raw: bytes) -> "BatchRequest":
        meta, body = cls._split_wire(raw, 1)
        try:
            item = rlp.decode(body)
        except rlp.RLPError as exc:
            raise MessageError(f"undecodable batch call list: {exc}") from exc
        if not isinstance(item, list) or not item:
            raise MessageError("batch call list must be a non-empty rlp list")
        calls = []
        for encoded in item:
            if not isinstance(encoded, bytes):
                raise MessageError("batch calls must be rlp-encoded byte strings")
            calls.append(RpcCall.decode(encoded))
        return cls(version=raw[0], calls=tuple(calls), **meta)

    # -- verification ------------------------------------------------------ #

    def expected_digest(self) -> bytes:
        return batch_request_digest(
            self.alpha, self.h_b, self.a, self.version,
            self._calls_bytes(self.calls),
        )

    def __repr__(self) -> str:
        return f"BatchRequest(v{self.version}, {len(self.calls)} calls)"


@dataclass(frozen=True)
class BatchResponse(_SignedResponse):
    """The signed answer to a :class:`BatchRequest`.

    Carries one status byte and one result payload per call, plus a single
    *shared* proof-node pool: the deduplicated union of every per-call Merkle
    proof (state, storage, transaction, and receipt trie nodes all resolve
    by keccak hash from the same pool).  Signed exactly like a single
    response, over ``payload = rlp([statuses, [R_1 …], [node_1 …]])``.
    """

    status: int                   # whole-batch status
    m_b: int
    a: int
    statuses: tuple[int, ...]     # per-call statuses
    results: tuple[bytes, ...]    # per-call R(γ_i)
    proof: tuple[bytes, ...]      # shared multiproof node pool
    h_req: bytes
    sig_req: bytes
    sig_res: bytes

    _noun = "batch response"

    @classmethod
    def build(cls, alpha: bytes, request: BatchRequest, m_b: int,
              statuses: Sequence[int], results: Sequence[bytes],
              proof: Sequence[bytes], key: PrivateKey,
              status: int = ResponseStatus.OK) -> "BatchResponse":
        """Construct and sign a batch response (full-node side)."""
        if len(statuses) != len(results):
            raise MessageError("per-call statuses and results disagree in length")
        return cls(
            status=status, m_b=m_b, a=request.a, statuses=tuple(statuses),
            results=tuple(results), proof=tuple(proof), h_req=request.h_req,
            sig_req=request.sig_req, sig_res=b"",
        )._signed(alpha, key)

    @staticmethod
    def _payload(statuses: Sequence[int], results: Sequence[bytes],
                 proof: Sequence[bytes]) -> bytes:
        return rlp.encode([bytes(statuses), list(results), list(proof)])

    @property
    def payload(self) -> bytes:
        return self._payload(self.statuses, self.results, self.proof)

    # -- per-item view ------------------------------------------------------ #

    def item_view(self, index: int) -> PARPResponse:
        """Item ``index`` shaped as a single response over the shared pool.

        This is what lets the client (and any future on-chain batch FDM)
        reuse the per-method verifiers of :mod:`repro.parp.queries`
        unchanged: each item verifies against the same deduplicated node
        pool that authenticated every other item.
        """
        return PARPResponse(
            status=self.statuses[index], m_b=self.m_b, a=self.a,
            result=self.results[index], proof=self.proof, h_req=self.h_req,
            sig_req=self.sig_req, sig_res=self.sig_res,
        )

    def __len__(self) -> int:
        return len(self.results)

    # -- wire ------------------------------------------------------------- #

    @classmethod
    def decode_wire(cls, raw: bytes) -> "BatchResponse":
        meta, body = cls._split_wire(raw)
        statuses, results, proof = _rlp_fields(
            body, "batch payload", "[statuses, results, proof]",
            (bytes, list, list))
        results = _byte_strings(results, "batch results must be byte strings")
        proof = _byte_strings(proof, "proof nodes must be byte strings")
        if len(statuses) != len(results):
            raise MessageError("per-call statuses and results disagree in length")
        return cls(statuses=tuple(statuses), results=results, proof=proof,
                   **meta)

    def with_result(self, index: int, result: bytes) -> "BatchResponse":
        """A tampered copy (tests and the malicious-node examples)."""
        results = list(self.results)
        results[index] = result
        return replace(self, results=tuple(results))
