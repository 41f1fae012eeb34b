"""FullNodeServer and LightClientSession unit behaviour (direct transport)."""

import pytest

from repro.parp import (
    ChannelError,
    Handshake,
    LightClientState,
    ServeError,
    SessionError,
)
from repro.parp.messages import PARPRequest, RpcCall
from repro.parp.pricing import (
    CallBasedFeeSchedule,
    DEFAULT_FEE_SCHEDULE,
    FlatFeeSchedule,
)

from ..conftest import make_parp_env


class TestPricing:
    def test_flat(self):
        schedule = FlatFeeSchedule(flat_price=500)
        assert schedule.price(RpcCall.create("eth_getBalance", b"\x00" * 20)) == 500
        assert schedule.price(RpcCall.create("anything")) == 500

    def test_call_based_differentiates(self):
        schedule = CallBasedFeeSchedule()
        read = schedule.price(RpcCall.create("eth_getBalance", b"\x00" * 20))
        write = schedule.price(RpcCall.create("eth_sendRawTransaction", b"tx"))
        assert write > read

    def test_call_based_default_for_unknown(self):
        schedule = CallBasedFeeSchedule(prices={}, default_price=77)
        assert schedule.price(RpcCall.create("eth_whatever")) == 77

    def test_describe(self):
        assert "flat" in FlatFeeSchedule().describe()
        assert "call-based" in DEFAULT_FEE_SCHEDULE.describe()


class TestServer:
    def test_handshake_has_future_expiry(self, devnet, keys):
        env = make_parp_env(devnet, keys, connect=False)
        confirm = env.server.handshake(Handshake(keys.lc.address))
        confirm.verify(keys.lc.address)
        assert confirm.expiry > devnet.chain.head.header.timestamp

    def test_unknown_channel_rejected(self, parp_env):
        request = PARPRequest.build(
            b"\x00" * 16, parp_env.net.chain.head.hash, 100,
            RpcCall.create("eth_blockNumber"), parp_env.keys.lc,
        )
        with pytest.raises(ServeError):
            parp_env.server.serve_request(request.encode_wire())
        assert parp_env.server.stats.requests_rejected == 1

    def test_underpaid_request_rejected(self, parp_env):
        request = PARPRequest.build(
            parp_env.alpha, parp_env.net.chain.head.hash, 1,  # 1 wei << price
            RpcCall.create("eth_getBalance", parp_env.keys.alice.address),
            parp_env.keys.lc,
        )
        with pytest.raises(ServeError):
            parp_env.server.serve_request(request.encode_wire())

    def test_foreign_signer_rejected(self, parp_env):
        request = PARPRequest.build(
            parp_env.alpha, parp_env.net.chain.head.hash, 10 ** 12,
            RpcCall.create("eth_blockNumber"), parp_env.keys.alice,  # not LC
        )
        with pytest.raises(ServeError):
            parp_env.server.serve_request(request.encode_wire())

    def test_garbage_wire_rejected(self, parp_env):
        with pytest.raises(ServeError):
            parp_env.server.serve_request(b"\x00" * 300)

    def test_unknown_reference_block_signed_error(self, parp_env):
        session = parp_env.session
        call = RpcCall.create("eth_blockNumber")
        amount = session.channel.next_amount(10 ** 10)
        request = PARPRequest.build(parp_env.alpha, b"\x77" * 32, amount,
                                    call, parp_env.keys.lc)
        raw = parp_env.server.serve_request(request.encode_wire())
        from repro.parp.messages import PARPResponse

        response = PARPResponse.decode_wire(raw)
        assert response.status == 1  # signed error
        assert response.signer(parp_env.alpha) == parp_env.server.address

    def test_unsupported_method_signed_error(self, parp_env):
        session = parp_env.session
        outcome = session.request("eth_gasPrice")  # not in the catalog
        assert outcome.report.is_error_response

    def test_relay_restricted_to_parp_modules(self, parp_env):
        from repro.chain import UnsignedTransaction

        tx = UnsignedTransaction(
            nonce=parp_env.net.chain.state.nonce_of(parp_env.keys.alice.address),
            gas_price=10 ** 9, gas_limit=21_000,
            to=parp_env.keys.bob.address, value=1,
        ).sign(parp_env.keys.alice)
        with pytest.raises(ServeError):
            parp_env.server.relay_transaction(tx.encode())

    def test_fees_accumulate(self, parp_env):
        before = parp_env.server.stats.fees_earned
        parp_env.session.get_balance(parp_env.keys.alice.address)
        assert parp_env.server.stats.fees_earned > before

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_serving_recovers_each_signature_once(self, parp_env, monkeypatch,
                                                  batch):
        """Step (B) costs two recoveries, σ_req and σ_a: the channel's
        payment check reuses the request's recovered payer."""
        from repro.crypto import ecdsa

        session, keys = parp_env.session, parp_env.keys
        if batch:
            calls = [RpcCall.create("eth_getBalance", a)
                     for a in (keys.alice.address, keys.bob.address)]
            amount = session.channel.next_amount(
                session.fee_schedule.batch_price(calls))
            request = session.build_batch_request(calls, amount)
            serve = parp_env.server.serve_batch
        else:
            call = RpcCall.create("eth_getBalance", keys.alice.address)
            amount = session.channel.next_amount(session.fee_schedule.price(call))
            request = session.build_request(call, amount)
            serve = parp_env.server.serve_request
        session.channel.record_request(amount)
        recovered = []
        real_recover = ecdsa.recover

        def counting_recover(msg_hash, signature):
            recovered.append(msg_hash)
            return real_recover(msg_hash, signature)

        monkeypatch.setattr(ecdsa, "recover", counting_recover)
        serve(request.encode_wire())
        assert len(recovered) == 2
        assert parp_env.server.channels[parp_env.alpha].latest_amount == amount

    def test_load_info_counts_batches_without_admission(self, parp_env):
        """Without admission control every served request and batch is
        admitted; a batch counts once, as the admission controller counts
        it."""
        keys, server = parp_env.keys, parp_env.server
        parp_env.session.query_batch([
            RpcCall.create("eth_getBalance", a)
            for a in (keys.alice.address, keys.bob.address, keys.lc.address)
        ])
        assert server.stats.batches_served == 1
        assert server.load_info()["admitted"] == 1
        parp_env.session.get_balance(keys.alice.address)
        assert server.load_info()["admitted"] == 2

    def test_open_channel_rejects_non_cmm_target(self, parp_env):
        from repro.chain import UnsignedTransaction

        tx = UnsignedTransaction(
            nonce=0, gas_price=10 ** 9, gas_limit=21_000,
            to=parp_env.keys.bob.address, value=1,
        ).sign(parp_env.keys.lc)
        with pytest.raises(ServeError):
            parp_env.server.open_channel(tx.encode())


class TestSession:
    def test_connect_transitions_to_bonded(self, parp_env):
        assert parp_env.session.state is LightClientState.BONDED
        assert parp_env.session.channel.alpha == parp_env.alpha

    def test_cannot_connect_twice(self, parp_env):
        with pytest.raises(SessionError):
            parp_env.session.connect(budget=1_000)

    def test_request_requires_bond(self, devnet, keys):
        env = make_parp_env(devnet, keys, connect=False)
        with pytest.raises(SessionError):
            env.session.request("eth_blockNumber")

    def test_budget_exhaustion_surfaces(self, devnet, keys):
        env = make_parp_env(devnet, keys, budget=15 * 10 ** 9)
        env.session.get_balance(keys.alice.address)  # 10 gwei
        with pytest.raises(SessionError):
            env.session.get_balance(keys.alice.address)  # would exceed budget

    def test_spend_tracked_per_request(self, parp_env):
        session = parp_env.session
        session.block_number()
        first = session.channel.spent
        session.get_balance(parp_env.keys.alice.address)
        assert session.channel.spent > first
        assert session.channel.requests_sent == 2

    def test_history_records_outcomes(self, parp_env):
        parp_env.session.block_number()
        assert len(parp_env.session.history) == 1
        assert parp_env.session.history[0].report.valid

    def test_tip_adds_extra_payment(self, parp_env):
        session = parp_env.session
        outcome = session.request("eth_blockNumber", tip=5_000)
        base_price = DEFAULT_FEE_SCHEDULE.price(RpcCall.create("eth_blockNumber"))
        assert outcome.amount_paid == base_price + 5_000

    def test_adopt_channel_resumes(self, devnet, keys):
        env = make_parp_env(devnet, keys)
        spent = env.session.channel.spent
        from repro.lightclient import HeaderSyncer
        from repro.parp import LightClientSession

        resumed = LightClientSession(
            keys.lc, env.server, HeaderSyncer([env.server, env.witness_node]),
        )
        resumed.headers.sync()
        resumed.adopt_channel(env.alpha, env.server.address,
                              budget=10 ** 15, spent=spent)
        assert resumed.state is LightClientState.BONDED
        balance = resumed.get_balance(keys.alice.address)
        assert balance > 0
