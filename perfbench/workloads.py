"""The three benchmark workloads: set-up, one op, and its ground-truth check.

Each workload drives the repository's public API from one thread, as one
light client in a closed loop:

* ``read_point`` — ``LightClientSession.request_call("eth_getBalance")``
  against one in-process ``FullNodeServer`` on a memory store, Zipf keys,
  head fixed.  Signatures dominate it; proofs are small, so it bypasses
  the marketplace, the network and batched hashing.
* ``read_scatter`` — ``MarketplaceClient.query_sharded`` of 16 balance
  keys with ``fanout=2`` over ``SimNetwork``, on a 4-shard x 2-replica
  cluster (replica 0 on a 20 ms link, replica 1 on 60 ms) with admission
  driven by the sim clock.  The only workload that runs the race engine,
  the transport, admission, shard slices and multiproof verification.
* ``write_block`` — an ``eth_sendRawTransaction`` that seals a 25-tx block
  on a disk-backed state dir (append-only node log + block log, fsynced
  per block, ``last:16`` retention, autocompaction).  The 24 other
  transfers arrive, pre-signed, through ``FullNode.submit_transaction``
  before each op: outside the op's latency, inside the run's wall time.

An op counts as verified only when the client's §V-D classification was
VALID *and* the value matches the devnet's own state.
"""

from __future__ import annotations

import pathlib
import shutil
from typing import Any, Optional

from repro.chain import GenesisConfig
from repro.lightclient import HeaderSyncer
from repro.net import PairwiseLatency, SimEndpoint, SimNetwork, SimServerBinding
from repro.node import Devnet
from repro.parp import (
    AdmissionConfig,
    AdmissionController,
    FlatFeeSchedule,
    LightClientSession,
    Marketplace,
    MarketplaceClient,
)
from repro.parp.messages import RpcCall
from repro.parp.pricing import GWEI
from repro.parp.queries import decode_balance, decode_inclusion
from repro.storage import RetentionPolicy
from repro.trie import ShardRange

from .inputs import BLOCK_TXS, KEYS_PER_SHARD, REPLICAS, SHARDS, Inputs

CHANNEL_BUDGET = 10 ** 16
SCATTER_FANOUT = 2
#: one-way link latency of replica 0 / replica 1 of every shard
REPLICA_LATENCY = (0.02, 0.06)
ENDPOINT_TIMEOUT = 2.0
#: admission wired as in the overload bench: backlog drains with sim time
SERVICE_TIME = 0.02
MAX_QUEUE_COST = 25.0
#: retention of the disk-backed write workload.  The autocompaction
#: trigger is lowered from its 4 MiB default to 2 MiB so that a run of a
#: few dozen 25-tx blocks (about 130 KB of log each) crosses two to four
#: compactions: the first after the 12th timed op, then one every 9-10 ops,
#: so fewer than 10% of ops compact and p90 stays a non-compacting op.  The
#: growth factor keeps its default.
RETENTION = RetentionPolicy(mode="last", k=16, min_compact_bytes=2 << 20)


class World:
    """One workload's program after set-up, plus what the bench reads off it."""

    #: verified call results one op yields
    results_per_op = 1
    #: whether background arrivals precede each op
    ingests = False

    def __init__(self) -> None:
        self.devnet: Devnet
        self.servers: list = []
        self.syncers: list[HeaderSyncer] = []
        self.network: Optional[SimNetwork] = None
        self.endpoints: list[SimEndpoint] = []
        self.marketplace_client: Optional[MarketplaceClient] = None
        #: node store and block log of a disk-backed devnet
        self.stores: list = []

    @property
    def sessions(self) -> list[LightClientSession]:
        """The client's payment-channel sessions."""
        return self._sessions

    def _attach_one_server(self, inputs: Inputs) -> None:
        """Stake one full node on ``self.devnet`` and bond the light client
        to it in process."""
        server = self.devnet.attach_server(inputs.operators[0], name="fn")
        self.devnet.advance_blocks(2)
        syncer = HeaderSyncer([server])
        session = LightClientSession(inputs.light_client, server, syncer)
        session.connect(budget=CHANNEL_BUDGET)
        self.servers, self._sessions, self.syncers = [server], [session], [syncer]

    def ingest(self, op_input: Any) -> None:
        """Background arrivals before an op."""

    def op(self, op_input: Any) -> Any:
        """One user-visible call, issued and verified; returns its outcome."""
        raise NotImplementedError

    def check(self, op_input: Any, outcome: Any) -> bool:
        """Compare a verified outcome with the devnet's own state."""
        raise NotImplementedError

    def close(self) -> None:
        self.devnet.close()


class ReadPoint(World):
    def __init__(self, inputs: Inputs, workdir: pathlib.Path) -> None:
        super().__init__()
        self.devnet = Devnet(GenesisConfig(allocations=inputs.allocations()))
        self._attach_one_server(inputs)
        for address in inputs.warm:
            self.op(address)

    def op(self, address):
        return self.sessions[0].request_call(
            RpcCall.create("eth_getBalance", address))

    def check(self, address, outcome) -> bool:
        return (outcome.report.valid
                and decode_balance(outcome.response.result)
                == self.devnet.chain.state.balance_of(address))


class ReadScatter(World):
    results_per_op = SHARDS * KEYS_PER_SHARD

    def __init__(self, inputs: Inputs, workdir: pathlib.Path) -> None:
        super().__init__()
        self.devnet = Devnet(GenesisConfig(allocations=inputs.allocations()))
        names = [f"srv-{j}" for j in range(SHARDS * REPLICAS)]
        links = {(f"lc-{j}", name): REPLICA_LATENCY[j // SHARDS]
                 for j, name in enumerate(names)}
        self.network = network = SimNetwork(
            latency=PairwiseLatency(links, default=REPLICA_LATENCY[0]))
        marketplace = Marketplace()
        for j, (key, name) in enumerate(zip(inputs.operators, names)):
            admission = AdmissionController(
                AdmissionConfig(max_queue_cost=MAX_QUEUE_COST,
                                service_time=SERVICE_TIME, seed=j),
                clock=network.clock)
            server = self.devnet.attach_server(
                key, name=name, admission=admission,
                shard_range=ShardRange.of(j % SHARDS, SHARDS),
                fee_schedule=FlatFeeSchedule(flat_price=5 * GWEI))
            SimServerBinding(network, name, server)
            endpoint = SimEndpoint(network, f"lc-{j}", name, server.address,
                                   timeout=ENDPOINT_TIMEOUT)
            marketplace.advertise_server(server, name=name, endpoint=endpoint)
            self.servers.append(server)
            self.endpoints.append(endpoint)
        self.devnet.advance_blocks(2)
        client = MarketplaceClient(inputs.light_client, marketplace,
                                   budget=CHANNEL_BUDGET, clock=network.clock)
        client.connect(min_sessions=len(names))
        client.headers.sync()
        self.marketplace_client = client
        self.syncers = [client.headers]
        for batch in inputs.warm:
            self.op(batch)

    @property
    def sessions(self) -> list[LightClientSession]:
        return list(self.marketplace_client.sessions.values())

    def op(self, addresses):
        return self.marketplace_client.query_sharded(
            [RpcCall.create("eth_getBalance", a) for a in addresses],
            fanout=SCATTER_FANOUT)

    def check(self, addresses, outcome) -> bool:
        state = self.devnet.chain.state
        return (outcome.report.valid and len(outcome) == len(addresses)
                and all(item.ok and decode_balance(item.result)
                        == state.balance_of(address)
                        for item, address in zip(outcome.items, addresses)))


class WriteBlock(World):
    ingests = True

    def __init__(self, inputs: Inputs, workdir: pathlib.Path) -> None:
        super().__init__()
        self.state_dir = workdir
        # a run that was killed leaves its state dir behind; every set-up
        # starts from genesis, never by reattaching to an old chain
        shutil.rmtree(workdir, ignore_errors=True)
        self.devnet = Devnet(GenesisConfig(allocations=inputs.allocations()),
                             state_dir=workdir, retention=RETENTION)
        self._attach_one_server(inputs)
        self.stores = [self.devnet.chain.db, self.devnet.chain.block_log]
        for op_input in inputs.warm:
            self.ingest(op_input)
            self.op(op_input)

    def ingest(self, op_input) -> None:
        background, _ = op_input
        node = self.servers[0].node
        for raw in background:
            node.submit_transaction(raw)

    def op(self, op_input):
        _, raw = op_input
        return self.sessions[0].request_call(
            RpcCall.create("eth_sendRawTransaction", raw))

    def check(self, op_input, outcome) -> bool:
        number, index, tx_hash = decode_inclusion(outcome.response.result)
        chain = self.devnet.chain
        location = chain.find_transaction(tx_hash)
        if not outcome.report.valid or location is None:
            return False
        block, at = location
        receipt = chain.get_receipt(tx_hash)
        return (block.number == number and at == index
                and len(block.transactions) == BLOCK_TXS
                and receipt is not None and receipt.status == 1)

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.state_dir, ignore_errors=True)


WORKLOADS = {
    "read_point": ReadPoint,
    "read_scatter": ReadScatter,
    "write_block": WriteBlock,
}
