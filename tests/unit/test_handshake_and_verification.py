"""Handshake messages (Algorithm 1) and the §V-D classification logic."""

from dataclasses import replace

import pytest

from repro.chain.account import Account
from repro.crypto import PrivateKey, keccak256
from repro.parp.handshake import (
    Handshake,
    HandshakeConfirm,
    HandshakeError,
    OpenChannelReceipt,
)
from repro.parp.messages import (
    BatchResponse,
    PARPRequest,
    PARPResponse,
    ResponseStatus,
    RpcCall,
)
from repro.parp.states import ResponseClass
from repro.parp.verification import classify_batch_response, classify_response

LC = PrivateKey.from_seed("hv:lc")
FN = PrivateKey.from_seed("hv:fn")
ALPHA = keccak256(b"hv")[:16]
H_B = keccak256(b"hv-block")


class TestHandshakeConfirm:
    def test_build_verify(self):
        confirm = HandshakeConfirm.build(FN, LC.address, expiry=12_345)
        confirm.verify(LC.address)  # must not raise
        assert confirm.full_node == FN.address

    def test_wrong_light_client_rejected(self):
        confirm = HandshakeConfirm.build(FN, LC.address, expiry=12_345)
        with pytest.raises(HandshakeError):
            confirm.verify(FN.address)

    def test_tampered_expiry_rejected(self):
        confirm = HandshakeConfirm.build(FN, LC.address, expiry=12_345)
        forged = HandshakeConfirm(confirm.full_node, 99_999, confirm.signature)
        with pytest.raises(HandshakeError):
            forged.verify(LC.address)

    def test_impersonation_rejected(self):
        rogue = PrivateKey.from_seed("hv:rogue")
        confirm = HandshakeConfirm.build(rogue, LC.address, expiry=1)
        forged = HandshakeConfirm(FN.address, 1, confirm.signature)
        with pytest.raises(HandshakeError):
            forged.verify(LC.address)

    def test_garbage_signature(self):
        confirm = HandshakeConfirm(FN.address, 1, b"\x00" * 65)
        with pytest.raises(HandshakeError):
            confirm.verify(LC.address)


class TestOpenChannelReceipt:
    def test_build_verify(self):
        receipt = OpenChannelReceipt.build(FN, ALPHA)
        receipt.verify(FN.address)
        assert receipt.channel_id == ALPHA

    def test_wrong_signer_rejected(self):
        rogue = PrivateKey.from_seed("hv:rogue2")
        receipt = OpenChannelReceipt.build(rogue, ALPHA)
        with pytest.raises(HandshakeError):
            receipt.verify(FN.address)

    def test_bad_channel_id_length(self):
        with pytest.raises(HandshakeError):
            OpenChannelReceipt.build(FN, b"short")


def make_pair(amount=100, m_b=5, result=b"", proof=(), status=ResponseStatus.OK):
    call = RpcCall.create("eth_blockNumber")
    request = PARPRequest.build(ALPHA, H_B, amount, call, LC)
    response = PARPResponse.build(ALPHA, request, m_b, result, list(proof),
                                  FN, status=status)
    return request, response


NO_HEADERS = staticmethod(lambda n: None)


class TestClassification:
    """Unit-level coverage of the §V-D decision table (integration tests
    drive the same logic through real servers)."""

    def classify(self, request, response, request_height=3):
        return classify_response(request, response, ALPHA, FN.address,
                                 request_height, lambda n: None)

    def test_valid_unverifiable_response(self):
        request, response = make_pair()
        report = self.classify(request, response)
        assert report.classification is ResponseClass.VALID

    def test_wrong_request_hash_invalid(self):
        request, response = make_pair()
        from dataclasses import replace

        forged = replace(response, h_req=keccak256(b"other"))
        report = self.classify(request, forged)
        assert report.classification is ResponseClass.INVALID
        assert report.check == "request-hash"

    def test_wrong_request_sig_echo_invalid(self):
        request, response = make_pair()
        from dataclasses import replace

        forged = replace(response, sig_req=b"\x01" * 65)
        report = self.classify(request, forged)
        assert report.classification is ResponseClass.INVALID

    def test_wrong_signer_invalid(self):
        call = RpcCall.create("eth_blockNumber")
        request = PARPRequest.build(ALPHA, H_B, 100, call, LC)
        rogue = PrivateKey.from_seed("hv:rogue3")
        response = PARPResponse.build(ALPHA, request, 5, b"", [], rogue)
        report = self.classify(request, response)
        assert report.classification is ResponseClass.INVALID
        assert report.check == "response-signature"

    def test_payment_mismatch_fraud(self):
        request, honest = make_pair()
        from repro.parp.adversary import _sign_response

        forged = _sign_response(FN, ALPHA, request, m_b=5,
                                amount=request.a + 1, result=b"", proof=[])
        report = self.classify(request, forged)
        assert report.classification is ResponseClass.FRAUD
        assert report.check == "payment-amount"

    def test_stale_height_fraud(self):
        request, response = make_pair(m_b=1)
        report = self.classify(request, response, request_height=4)
        assert report.classification is ResponseClass.FRAUD
        assert report.check == "timestamp"

    def test_equal_height_not_fraud(self):
        request, response = make_pair(m_b=4)
        report = self.classify(request, response, request_height=4)
        assert report.classification is ResponseClass.VALID

    def test_signed_error_is_valid_but_flagged(self):
        request, response = make_pair(status=ResponseStatus.ERROR)
        report = self.classify(request, response)
        assert report.classification is ResponseClass.VALID
        assert report.is_error_response

    def test_fraud_checks_precede_error_status(self):
        """Even an 'error' response must not lie about the amount."""
        request, _ = make_pair()
        from repro.parp.adversary import _sign_response

        forged = _sign_response(FN, ALPHA, request, m_b=5,
                                amount=request.a + 9, result=b"",
                                proof=[], status=ResponseStatus.ERROR)
        report = self.classify(request, forged)
        assert report.classification is ResponseClass.FRAUD


def _inflated(result: bytes) -> bytes:
    account = Account.decode(result)
    return account.with_balance(account.balance * 1000 + 1).encode()


#: (tamper, fields to forge from (response, request height), a rogue signing
#:  key (None: the serving node's), sign over a foreign α, expected
#:  (classification, check))
TAMPERS = [
    ("honest", lambda res, h: {}, None, False,
     (ResponseClass.VALID, "all-checks")),
    ("h_req", lambda res, h: {"h_req": keccak256(b"other")}, None, False,
     (ResponseClass.INVALID, "request-hash")),
    ("sig_req", lambda res, h: {"sig_req": b"\x01" * 65}, None, False,
     (ResponseClass.INVALID, "request-hash")),
    ("signer", lambda res, h: {}, PrivateKey.from_seed("hv:rogue4"), False,
     (ResponseClass.INVALID, "response-signature")),
    ("alpha", lambda res, h: {}, None, True,
     (ResponseClass.INVALID, "response-signature")),
    ("amount", lambda res, h: {"a": res.a + 1}, None, False,
     (ResponseClass.FRAUD, "payment-amount")),
    ("height", lambda res, h: {"m_b": h - 1}, None, False,
     (ResponseClass.FRAUD, "timestamp")),
    ("error-status", lambda res, h: {"status": ResponseStatus.ERROR}, None,
     False, (ResponseClass.VALID, "error-response")),
    ("result", lambda res, h: {"result": _inflated(
        res.results[0] if isinstance(res, BatchResponse) else res.result)},
     None, False, (ResponseClass.FRAUD, "merkle-proof")),
]


def _forge(response, fields: dict, key: PrivateKey, alpha: bytes):
    """``response`` with ``fields`` replaced (item 0 for a batch), signed by
    ``key`` over ``alpha``."""
    if isinstance(response, BatchResponse):
        if "result" in fields:
            fields["results"] = (fields.pop("result"),)
        if "status" in fields:
            fields["statuses"] = (fields["status"],)
    forged = replace(response, **fields)
    return replace(forged, sig_res=key.sign(forged.digest(alpha)).to_bytes())


class TestBatchClassificationParity:
    """A one-call batch is the single request's pipeline: every tamper
    lands on the same (classification, check) through both classifiers."""

    @pytest.fixture
    def served(self, parp_env):
        """One served eth_getBalance, as a single request and as a one-call
        batch, with the headers both responses need."""
        session, server = parp_env.session, parp_env.server
        call = RpcCall.create("eth_getBalance", parp_env.keys.alice.address)
        single = session.build_request(call, session.channel.next_amount(
            session.fee_schedule.price(call)))
        session.channel.record_request(single.a)
        single_res = PARPResponse.decode_wire(
            server.serve_request(single.encode_wire()))
        batch = session.build_batch_request((call,), session.channel.next_amount(
            session.fee_schedule.batch_price((call,))))
        session.channel.record_request(batch.a)
        batch_res = BatchResponse.decode_wire(
            server.serve_batch(batch.encode_wire()))
        session.headers.sync()
        return parp_env, (single, single_res), (batch, batch_res)

    @pytest.mark.parametrize("tamper, forge, key, foreign, expected", TAMPERS,
                             ids=[row[0] for row in TAMPERS])
    def test_single_and_one_call_batch_agree(self, served, tamper, forge, key,
                                             foreign, expected):
        env, (single, single_res), (batch, batch_res) = served
        headers = env.session.headers
        height = headers.height_of(single.h_b)
        assert headers.height_of(batch.h_b) == height
        alpha = keccak256(b"foreign")[:16] if foreign else env.alpha
        key = key or env.keys.fn

        single_report = classify_response(
            single, _forge(single_res, forge(single_res, height), key, alpha),
            env.alpha, env.server.address, height, headers.get_header)
        overall, items = classify_batch_response(
            batch, _forge(batch_res, forge(batch_res, height), key, alpha),
            env.alpha, env.server.address, height, headers.get_header)

        verdict = items[0] if items else overall
        assert (single_report.classification, single_report.check) == expected
        assert (verdict.classification, verdict.check) == expected
        assert overall.classification is single_report.classification
