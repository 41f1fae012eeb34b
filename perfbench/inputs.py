"""Seeded inputs for the PARP benchmark.

Everything a run feeds the program is generated here, before set-up, from
the workload seed alone: the funded accounts, the Zipf read stream, the
scatter batches and the pre-signed transactions.  The same seed gives the
same inputs; the program under test only ever receives these values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.chain.transaction import UnsignedTransaction
from repro.crypto import PrivateKey, keccak256
from repro.crypto.keys import Address
from repro.trie import shard_of_key
from repro.workloads import ZipfSelector

TOKEN = 10 ** 18
N_ACCOUNTS = 2000
ZIPF_EXPONENT = 1.1
SHARDS = 4
REPLICAS = 2
#: keys per scatter batch, drawn uniformly within each shard so every leg
#: carries the same number of keys and ops differ only in which keys
KEYS_PER_SHARD = 4
BLOCK_TXS = 25
TRANSFER_GAS = 21_000
GAS_PRICE = 10 ** 9
#: length of the pre-generated read streams; a run cycles through them
READ_STREAM = 20_000
SCATTER_STREAM = 2_000
#: pre-signed write ops per second of run time.  Signing is the costly
#: part of input generation, so this covers ops of 0.5 s and up (about
#: twice today's rate); a faster program runs out of inputs and ends the
#: timed phase early.
WRITE_OPS_PER_SECOND = 2.0
WARM_READS = 8


@dataclass
class Inputs:
    """One workload's generated inputs (see :func:`generate`)."""

    accounts: list[Address]
    balances: list[int]
    operators: list[PrivateKey]
    light_client: PrivateKey
    #: funded senders of pre-signed transfers (write_block only)
    senders: list[PrivateKey] = field(default_factory=list)
    #: warm-up op inputs, run during set-up
    warm: list = field(default_factory=list)
    #: timed op inputs, in issue order
    ops: list = field(default_factory=list)
    #: whether a run may wrap around ``ops`` (reads only: a write's
    #: signed nonce can be spent once)
    cyclic: bool = True

    def allocations(self) -> dict[Address, int]:
        alloc = dict(zip(self.accounts, self.balances))
        for key in self.operators + [self.light_client] + self.senders:
            alloc[key.address] = 1_000 * TOKEN
        return alloc


def _base(workload: str, seed: int, operators: int) -> tuple[random.Random, Inputs]:
    rng = random.Random(f"perfbench:{workload}:{seed}")
    accounts = [Address(rng.randbytes(20)) for _ in range(N_ACCOUNTS)]
    balances = [rng.randrange(1, 10 ** 6) * 10 ** 12 for _ in range(N_ACCOUNTS)]
    tag = f"perfbench:{seed}"
    inputs = Inputs(
        accounts=accounts, balances=balances,
        operators=[PrivateKey.from_seed(f"{tag}:op{i}") for i in range(operators)],
        light_client=PrivateKey.from_seed(f"{tag}:lc"),
    )
    return rng, inputs


def _read_point(seed: int) -> Inputs:
    rng, inputs = _base("read_point", seed, operators=1)
    # which accounts are hot depends on the seed: Zipf rank -> account
    by_rank = list(range(N_ACCOUNTS))
    rng.shuffle(by_rank)
    zipf = ZipfSelector(N_ACCOUNTS, exponent=ZIPF_EXPONENT, seed=rng.randrange(2 ** 32))
    stream = [inputs.accounts[by_rank[zipf.pick()]]
              for _ in range(WARM_READS + READ_STREAM)]
    inputs.warm, inputs.ops = stream[:WARM_READS], stream[WARM_READS:]
    return inputs


def _read_scatter(seed: int) -> Inputs:
    rng, inputs = _base("read_scatter", seed, operators=SHARDS * REPLICAS)
    buckets: list[list[Address]] = [[] for _ in range(SHARDS)]
    for address in inputs.accounts:
        buckets[shard_of_key(keccak256(bytes(address)), SHARDS)].append(address)

    def batch() -> list[Address]:
        keys = [a for bucket in buckets for a in rng.sample(bucket, KEYS_PER_SHARD)]
        rng.shuffle(keys)
        return keys

    inputs.warm = [batch()]
    inputs.ops = [batch() for _ in range(SCATTER_STREAM)]
    return inputs


def _write_block(seed: int, write_ops: int) -> Inputs:
    rng, inputs = _base("write_block", seed, operators=1)
    tag = f"perfbench:{seed}"
    # BLOCK_TXS - 1 background senders plus the light client's own wallet
    inputs.senders = [PrivateKey.from_seed(f"{tag}:sender{i}")
                      for i in range(BLOCK_TXS)]
    background, wallet = inputs.senders[:-1], inputs.senders[-1]

    def transfer(key: PrivateKey, nonce: int) -> bytes:
        return UnsignedTransaction(
            nonce=nonce, gas_price=GAS_PRICE, gas_limit=TRANSFER_GAS,
            to=inputs.accounts[rng.randrange(N_ACCOUNTS)],
            value=rng.randrange(1, 10 ** 6),
        ).sign(key).encode()

    def op(nonce: int) -> tuple[list[bytes], bytes]:
        return ([transfer(key, nonce) for key in background],
                transfer(wallet, nonce))

    inputs.warm = [op(0)]
    inputs.ops = [op(nonce) for nonce in range(1, 1 + write_ops)]
    inputs.cyclic = False
    return inputs


def generate(workload: str, seed: int, seconds: float,
             max_ops: int | None = None) -> Inputs:
    """The inputs of ``workload`` for ``seed``, sized for ``seconds`` of
    ops (or exactly ``max_ops`` writes)."""
    if workload == "read_point":
        return _read_point(seed)
    if workload == "read_scatter":
        return _read_scatter(seed)
    return _write_block(seed, max_ops if max_ops is not None
                        else max(1, round(seconds * WRITE_OPS_PER_SECOND)))
