"""Light-client response verification — the six checks of §V-D.

The checks run in a strict order that mirrors the paper's rationale:
failures that would leave the client *unable to build a fraud proof* come
first and classify the response as INVALID (walk away, don't pay more);
only once the response is provably attributable to the full node do the
remaining checks classify failures as FRAUD (slashing evidence):

1. **Verify Request Hash** — the response must echo ``h_req``/``σ_req`` of
   our request; otherwise it is not linkable to what we asked (INVALID).
2. **Verify Response Signature** — ``σ_res`` must recover to the channel's
   full node over ``h_res`` computed with *our* channel id α; otherwise the
   response proves nothing (INVALID).
3. **Channel Identifier Check** — α is bound inside ``h_res``; a response
   signed for another channel fails check 2 (kept as an explicit step for
   fraud-blob submissions where α travels with the message) (INVALID).
4. **Payment Amount Check** — ``res.a`` must equal the signed ``req.a``;
   a mismatch is attributable and provable (FRAUD).
5. **Timestamp Check** — ``res.m_B`` must be at least the height of the
   block the request pinned via ``h_B``; staler is FRAUD.
6. **Verify Merkle Proof** — π_γ must authenticate R(γ) against the header
   roots at the relevant height; failure is FRAUD.  A header the client
   cannot obtain makes the response unverifiable (INVALID).

A single request is the one-call case of a batch: both formats run the
same envelope (checks 1–5, plus the batch-arity check after the signature,
which one call always passes) and the same per-item check 6.  A batch
reports the worst item; a single response reports its one item.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..crypto.keys import Address
from .messages import (
    BatchRequest,
    BatchResponse,
    MessageError,
    PARPRequest,
    PARPResponse,
    ResponseStatus,
)
from .queries import HeaderLookup, QueryFraud, Unverifiable, verify_query_result
from .states import ResponseClass

__all__ = ["VerificationReport", "classify_response", "classify_batch_response"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of classifying one response."""

    classification: ResponseClass
    check: str               # which §V-D check decided the outcome
    detail: str = ""
    is_error_response: bool = False

    @property
    def valid(self) -> bool:
        return self.classification is ResponseClass.VALID

    @property
    def fraudulent(self) -> bool:
        return self.classification is ResponseClass.FRAUD


def classify_response(request: PARPRequest, response: PARPResponse,
                      alpha: bytes, full_node: Address,
                      request_height: int,
                      get_header: HeaderLookup) -> VerificationReport:
    """Run the §V-D checks; never raises, always returns a report.

    ``request_height`` is the height of the block whose hash the client put
    in ``req.h_B`` (the client always knows it — it chose the hash from its
    own header chain).
    """
    return (_check_envelope(request, response, alpha, full_node,
                            request_height)
            or _classify_item(request.call, response, get_header))


def classify_batch_response(
        request: BatchRequest, response: BatchResponse, alpha: bytes,
        full_node: Address, request_height: int, get_header: HeaderLookup,
) -> tuple[VerificationReport, list[VerificationReport]]:
    """The §V-D checks lifted to a batch; never raises.

    Checks 1–5 run once over the batch envelope (digest echo, signature,
    payment amount, timestamp — the metadata is shared, so one pass covers
    all N queries).  Check 6 then runs per item against the *shared*
    multiproof node pool via :meth:`BatchResponse.item_view`.  Returns the
    overall report plus one report per item; the overall classification is
    the worst across the envelope and every item (FRAUD > INVALID > VALID).
    """
    failed = _check_envelope(request, response, alpha, full_node,
                             request_height)
    if failed is not None:
        return failed, []
    item_reports = [_classify_item(call, response.item_view(index), get_header)
                    for index, call in enumerate(request.calls)]
    worst = VerificationReport(ResponseClass.VALID, "all-checks")
    for report in item_reports:
        if _SEVERITY[report.classification] > _SEVERITY[worst.classification]:
            worst = report
    return worst, item_reports


def _check_envelope(request: PARPRequest | BatchRequest,
                    response: PARPResponse | BatchResponse, alpha: bytes,
                    full_node: Address,
                    request_height: int) -> Optional[VerificationReport]:
    """Checks 1–5 over the metadata both formats share; None when they all
    pass.  The messages name themselves (``_noun``) in the details."""
    # 1. Verify Request Hash ------------------------------------------------ #
    if response.h_req != request.h_req:
        return VerificationReport(
            ResponseClass.INVALID, "request-hash",
            f"{response._noun} echoes a different request hash",
        )
    if response.sig_req != request.sig_req:
        return VerificationReport(
            ResponseClass.INVALID, "request-hash",
            f"{response._noun} echoes a different request signature",
        )

    # 2./3. Verify Response Signature (α-bound) ------------------------------- #
    try:
        signer = response.signer(alpha)
    except MessageError as exc:
        return VerificationReport(
            ResponseClass.INVALID, "response-signature", str(exc),
        )
    if signer != full_node:
        return VerificationReport(
            ResponseClass.INVALID, "response-signature",
            f"signed by {signer.hex()}, expected {full_node.hex()}",
        )

    # Envelope sanity: the server must answer every call it signed for.
    if len(response) != len(request.calls):
        return VerificationReport(
            ResponseClass.FRAUD, "batch-arity",
            f"batch of {len(request.calls)} calls answered with "
            f"{len(response)} results",
        )

    # 4. Payment Amount Check -------------------------------------------------- #
    if response.a != request.a:
        return VerificationReport(
            ResponseClass.FRAUD, "payment-amount",
            f"{request._noun} committed {request.a}, "
            f"response claims {response.a}",
        )

    # 5. Timestamp Check --------------------------------------------------------- #
    if response.m_b < request_height:
        return VerificationReport(
            ResponseClass.FRAUD, "timestamp",
            f"response height {response.m_b} < request height {request_height}",
        )
    return None


def _classify_item(call, item: PARPResponse,
                   get_header: HeaderLookup) -> VerificationReport:
    """Check 6 for one call: a signed error carries no verifiable payload,
    anything else must prove against the header roots."""
    if item.status != ResponseStatus.OK:
        return VerificationReport(
            ResponseClass.VALID, "error-response",
            "full node signed an error outcome", is_error_response=True,
        )
    # 6. Verify Merkle Proof -------------------------------------------------------- #
    try:
        verify_query_result(call, item, get_header)
    except QueryFraud as exc:
        return VerificationReport(ResponseClass.FRAUD, "merkle-proof", str(exc))
    except (Unverifiable, MessageError) as exc:
        return VerificationReport(ResponseClass.INVALID, "merkle-proof", str(exc))
    return VerificationReport(ResponseClass.VALID, "all-checks")


_SEVERITY = {
    ResponseClass.VALID: 0,
    ResponseClass.INVALID: 1,
    ResponseClass.FRAUD: 2,
}
