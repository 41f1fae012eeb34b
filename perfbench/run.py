"""PARP benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload read_point --seed 1 --seconds 25 --trace 0

Run from the repository root (the program is imported from ``src/``).  A
run generates its inputs from ``--seed``, sets the program up ``SETUPS``
times (reporting the median set-up time and keeping the last set-up), then
issues ops in a closed loop — one light client, one thread — for
``--seconds``.  Every op's verified value is compared with the devnet's own
state; any failure or mismatch makes the run incorrect and the exit code 1.

``--trace 0`` reports the gated end-to-end metrics, untraced; the median
latency, throughput, failure ratio and simulated time are printed beside
them, ungated (see :func:`context`).  ``--trace 1`` reports the per-layer
metrics over op cycles — an op plus the background arrivals before it:
the first ``TRACE_WINDOW`` cycles are traced (their counts repeat exactly
for a seed), after which cycles alternate untraced/traced and the ratio of
their median op latencies gives ``trace.overhead_ratio``.  Spans are
written to ``.perfbench/``.

Every metric is printed as ``name = value unit (n=samples, basis)``; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUPS = 3
#: traced ops that give the per-layer metrics, per workload
TRACE_WINDOW = {"read_point": 60, "read_scatter": 8, "write_block": 16}
CALIBRATION_HASHES = 200

#: gated end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "op_p90_ms": "ms",
    "wire_bytes_per_result": "B",
    "paid_wei_per_result": "wei",
    "peak_rss_mb": "MB",
}

#: per-layer metrics: name -> (unit, basis)
PER_LAYER = {
    "crypto.ecdsa.sign_calls": ("count", "per op"),
    "crypto.ecdsa.recover_calls": ("count", "per op"),
    "crypto.ecdsa_ms": ("ms", "per op"),
    "crypto.keccak.calls": ("count", "per op"),
    "crypto.keccak.bytes": ("B", "per op"),
    "crypto.keccak_ms": ("ms", "per op"),
    "client.build_ms": ("ms", "per op"),
    "client.verify_ms": ("ms", "per op"),
    "client.verify.sig_ms": ("ms", "per op"),
    "client.verify.proof_ms": ("ms", "per op"),
    "server.serve_ms": ("ms", "per op"),
    "server.request_verify_ms": ("ms", "per op"),
    "server.execute_ms": ("ms", "per op"),
    "server.respond_ms": ("ms", "per op"),
    "server.proof_cache.hit_ratio": ("ratio", "per lookup"),
    "messages.request_bytes": ("B", "per op"),
    "messages.response_bytes": ("B", "per op"),
    "trie.proof.generate_ms": ("ms", "per op"),
    "trie.proof.nodes_per_key": ("count", "per key proved"),
    "trie.proof.verify.nodes_hashed": ("count", "per key verified"),
    "trie.proof.verify.useful_ratio": ("ratio", "distinct pool nodes per node hashed"),
    "trie.commit.calls": ("count", "per block"),
    "trie.commit_ms": ("ms", "per op"),
    "chain.build_block_ms": ("ms", "per op"),
    "chain.ingest_ms": ("ms", "per submitted tx"),
    "vm.apply_ms": ("ms", "per tx"),
    "storage.append_ms": ("ms", "per op"),
    "storage.bytes_per_block": ("B", "per block"),
    "storage.fsyncs_per_block": ("count", "per block"),
    "storage.blocklog.append_ms": ("ms", "per op"),
    "storage.compactions": ("count", "per run"),
    "storage.compact_ms": ("ms", "per compaction"),
    "storage.reclaimed_bytes": ("B", "per compaction"),
    "lightclient.sync_ms": ("ms", "per op"),
    "lightclient.headers_fetched": ("count", "per op"),
    "net.messages": ("count", "per op"),
    "net.bytes": ("B", "per op"),
    "net.late_replies": ("count", "per op"),
    "net.sim_p50_ms": ("ms", "simulated, per op"),
    "net.sim_p90_ms": ("ms", "simulated, per op"),
    "marketplace.legs": ("count", "per op"),
    "marketplace.launches": ("count", "per op"),
    "marketplace.cancelled": ("count", "per op"),
    "marketplace.wasted_serve_ratio": ("ratio", "discarded per served leg"),
    "marketplace.rank_ms": ("ms", "per op"),
    "admission.admitted": ("count", "per op"),
    "admission.shed": ("count", "per op"),
    "admission.queue_delay_sim_ms": ("ms", "simulated, per admitted request"),
    **{f"self.{layer}_ms": ("ms", "self time per op")
       for layer in ("crypto", "client", "server", "trie", "chain", "vm",
                     "storage", "lightclient", "marketplace", "admission",
                     "other")},
    "trace.spans_per_op": ("count", "per op"),
    "trace.overhead_ratio": ("ratio", "traced / untraced median op - 1"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("read_point", "read_scatter", "write_block"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops instead of --seconds "
                             "(small smoke runs)")
    return parser.parse_args(argv)


def percentile(values: list[float], pct: int) -> float:
    """Interpolated percentile (``pct`` in tenths: 5 = median, 9 = p90)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[pct - 1]


def keccak_us_per_hash() -> float:
    """Host speed context: a fixed pure-Keccak loop, µs per hash."""
    from repro.crypto import keccak256

    data = bytes(range(64))
    start = time.perf_counter()
    for _ in range(CALIBRATION_HASHES):
        data = keccak256(data) + data[:32]
    return (time.perf_counter() - start) / CALIBRATION_HASHES * 1e6


def probe(world) -> dict[str, float]:
    """The program's own counters that the metrics take deltas of."""
    servers = world.servers
    counters = {
        "wire_bytes": sum(s.stats.bytes_in + s.stats.bytes_out for s in servers),
        "served": sum(s.stats.requests_served + s.stats.batches_served
                      for s in servers),
        "cache_hits": sum(s.proof_cache.stats.hits for s in servers),
        "cache_misses": sum(s.proof_cache.stats.misses for s in servers),
        "paid_wei": sum(s.channel.spent for s in world.sessions if s.channel),
        "headers_fetched": sum(s.headers_fetched for s in world.syncers),
        "store_bytes": sum(s.stats.bytes_appended for s in world.stores),
        "reclaimed_bytes": sum(s.stats.bytes_reclaimed for s in world.stores),
        "compactions": sum(getattr(s.stats, "compactions", 0) for s in world.stores),
    }
    if world.network is not None:
        stats = world.marketplace_client.stats
        counters.update({
            "net_messages": world.network.stats.messages_sent,
            "net_bytes": world.network.stats.bytes_sent,
            "late_replies": sum(e.late_replies for e in world.endpoints),
            "legs": stats.scatter_legs,
            "launches": stats.hedge_launches,
            "cancelled": stats.hedges_cancelled,
        })
    return counters


@dataclass
class Cycle:
    """One op and the background arrivals before it."""

    index: int
    traced: bool
    op_s: float = 0.0
    ingest_s: float = 0.0
    sim_s: float = 0.0
    #: verified, and equal to the devnet's own state
    ok: bool = False
    #: change of each :func:`probe` counter across the cycle
    deltas: dict[str, float] = field(default_factory=dict)


def run_cycle(world, op_input, cycle: Cycle, tracer) -> None:
    from perfbench.trace import timed

    def call(root, fn):
        if cycle.traced:
            return tracer.run(cycle.index, root, fn, op_input)
        return timed(fn, op_input)

    clock = world.network.clock if world.network is not None else None
    before = probe(world)
    sim_start = clock.now() if clock is not None else 0.0
    try:
        if world.ingests:
            _, cycle.ingest_s = call("ingest", world.ingest)
        outcome, cycle.op_s = call("op", world.op)
        cycle.sim_s = clock.now() - sim_start if clock is not None else 0.0
        cycle.ok = world.check(op_input, outcome)
        if not cycle.ok:
            print(f"op {cycle.index}: verified value disagrees with the "
                  "devnet state", file=sys.stderr)
    except Exception:  # noqa: BLE001 — a failed op is counted, not fatal
        print(f"op {cycle.index} failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    after = probe(world)
    cycle.deltas = {key: after[key] - before[key] for key in after}


def trace_window(args) -> int:
    """How many leading ops a traced run traces without interleaving."""
    window = TRACE_WINDOW[args.workload]
    return window if args.ops is None else min(window, max(1, args.ops // 2))


def run_timed(world, inputs, args, tracer) -> list[Cycle]:
    window = trace_window(args)
    cycles: list[Cycle] = []
    start = time.perf_counter()
    while True:
        index = len(cycles)
        if args.ops is not None:
            if index >= args.ops:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
        if not inputs.cyclic and index >= len(inputs.ops):
            print("inputs exhausted: timed phase ended early", file=sys.stderr)
            break
        traced = tracer is not None and (index < window
                                         or (index - window) % 2 == 1)
        cycle = Cycle(index, traced)
        run_cycle(world, inputs.ops[index % len(inputs.ops)], cycle, tracer)
        cycles.append(cycle)
    return cycles


def ms(seconds: float) -> float:
    return seconds * 1e3


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summed(cycles: list[Cycle]) -> dict[str, float]:
    total: dict[str, float] = defaultdict(float)
    for cycle in cycles:
        for key, value in cycle.deltas.items():
            total[key] += value
    return total


def end_to_end(world, cycles, setup_times) -> dict[str, tuple]:
    """The gated end-to-end metrics: (value, samples, basis) by name."""
    good = [c for c in cycles if c.ok]
    results = len(good) * world.results_per_op
    deltas = summed(cycles)
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times), "median set-up"),
        "op_p90_ms": (ms(percentile([c.op_s for c in good], 9)), len(good), "per op"),
        "wire_bytes_per_result": (ratio(deltas["wire_bytes"], results), results,
                                  "per result"),
        "paid_wei_per_result": (ratio(deltas["paid_wei"], results), results,
                                "per result"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        1, "per run"),
    }


def context(world, cycles) -> dict[str, tuple]:
    """Printed beside the metrics but not gated: (value, unit, samples, basis).

    Failures end up in the result's ``failed`` count; simulated time is 0
    on in-process workloads; and the median and the throughput move with
    this host's speed regimes (see the Keccak loop) far more than p90 does.
    """
    good = [c for c in cycles if c.ok]
    busy = sum(c.op_s + c.ingest_s for c in cycles)
    sims = [c.sim_s for c in good]
    n = len(good)
    return {
        "failed_ratio": (ratio(len(cycles) - n, len(cycles)), "ratio",
                         len(cycles), "per op attempted"),
        "op_p50_ms": (ms(percentile([c.op_s for c in good], 5)), "ms", n, "per op"),
        "results_per_s": (ratio(n * world.results_per_op, busy), "1/s", n,
                          "timed phase"),
        "sim_p50_ms": (ms(percentile(sims, 5)), "ms", n, "simulated, per op"),
        "sim_p90_ms": (ms(percentile(sims, 9)), "ms", n, "simulated, per op"),
    }


def per_layer(cycles: list[Cycle], window_size: int, tracer) -> dict:
    """Per-layer metrics over the first ``window_size`` cycles; compaction,
    a few ops in ten, is counted over the whole run instead."""
    from perfbench.trace import NAME, PARENT, SpanIndex

    window = cycles[:window_size]
    idx = SpanIndex(tracer, {c.index for c in window})
    spans = tracer.spans
    ops = len(window) or 1
    deltas = summed(window)
    run_deltas = summed(cycles)
    all_traced = SpanIndex(tracer, {c.index for c in cycles if c.traced})
    count = idx.count

    blocks = count("chain.build_block")
    verifies = idx.named("trie.proof.verify")
    hashed = sum(idx.child_count(sid, "crypto.keccak") for sid in verifies)
    distinct = sum(len(tracer.pools[p]) for p in {spans[s][PARENT] for s in verifies})
    commits = [sid for sid in idx.named("trie.commit")
               if idx.child_count(sid, "crypto.keccak")]
    compactions = int(run_deltas["compactions"])
    lookups = deltas["cache_hits"] + deltas["cache_misses"]
    admitted = idx.note("admission.admitted")
    sims = [c.sim_s for c in window]
    traced = [c.op_s for c in cycles[len(window):] if c.traced]
    untraced = [c.op_s for c in cycles[len(window):] if not c.traced]

    values = {
        "crypto.ecdsa.sign_calls": count("crypto.ecdsa.sign") / ops,
        "crypto.ecdsa.recover_calls": count("crypto.ecdsa.recover") / ops,
        "crypto.ecdsa_ms": ms(idx.total("crypto.ecdsa.sign")
                              + idx.total("crypto.ecdsa.recover")) / ops,
        "crypto.keccak.calls": count("crypto.keccak") / ops,
        "crypto.keccak.bytes": idx.note("crypto.keccak.bytes") / ops,
        "crypto.keccak_ms": ms(idx.total("crypto.keccak")) / ops,
        "client.build_ms": ms(idx.total("client.build")) / ops,
        "client.verify_ms": ms(idx.total("client.verify")) / ops,
        "client.verify.sig_ms": ms(idx.total("crypto.ecdsa.recover",
                                             under="client.verify")) / ops,
        "client.verify.proof_ms": ms(idx.total("trie.proof.verify",
                                               under="client.verify")) / ops,
        "server.serve_ms": ms(idx.total("server.serve")) / ops,
        "server.request_verify_ms": ms(idx.total("server.request_verify")) / ops,
        "server.execute_ms": ms(idx.total("server.execute")) / ops,
        "server.respond_ms": ms(idx.total("server.respond")) / ops,
        "server.proof_cache.hit_ratio": ratio(deltas["cache_hits"], lookups),
        "messages.request_bytes": idx.note("messages.request_bytes") / ops,
        "messages.response_bytes": idx.note("messages.response_bytes") / ops,
        "trie.proof.generate_ms": ms(idx.total("trie.proof.generate")) / ops,
        "trie.proof.nodes_per_key": ratio(idx.note("trie.proof.nodes"),
                                          count("trie.proof.generate")),
        "trie.proof.verify.nodes_hashed": ratio(
            hashed, idx.note("trie.proof.verify.keys")),
        "trie.proof.verify.useful_ratio": ratio(distinct, hashed),
        "trie.commit.calls": ratio(len(commits), blocks),
        "trie.commit_ms": ms(sum(idx.duration(sid) for sid in commits)) / ops,
        "chain.build_block_ms": ms(idx.total("chain.build_block")) / ops,
        "chain.ingest_ms": ratio(ms(idx.total("chain.ingest")),
                                 count("chain.ingest")),
        "vm.apply_ms": ratio(ms(idx.total("vm.apply")), count("vm.apply")),
        "storage.append_ms": ms(idx.total("storage.append")) / ops,
        "storage.bytes_per_block": ratio(deltas["store_bytes"], blocks),
        "storage.fsyncs_per_block": ratio(count("storage.fsync"), blocks),
        "storage.blocklog.append_ms": ms(idx.total("storage.blocklog.append")) / ops,
        "storage.compactions": compactions,
        "storage.compact_ms": ratio(ms(all_traced.total("storage.compact")),
                                    all_traced.count("storage.compact")),
        "storage.reclaimed_bytes": ratio(run_deltas["reclaimed_bytes"], compactions),
        "lightclient.sync_ms": ms(idx.total("lightclient.sync")) / ops,
        "lightclient.headers_fetched": deltas["headers_fetched"] / ops,
        "net.messages": deltas["net_messages"] / ops,
        "net.bytes": deltas["net_bytes"] / ops,
        "net.late_replies": deltas["late_replies"] / ops,
        "net.sim_p50_ms": ms(percentile(sims, 5)),
        "net.sim_p90_ms": ms(percentile(sims, 9)),
        "marketplace.legs": deltas["legs"] / ops,
        "marketplace.launches": deltas["launches"] / ops,
        "marketplace.cancelled": deltas["cancelled"] / ops,
        # every leg has one winner; any other served leg was thrown away
        "marketplace.wasted_serve_ratio": ratio(
            deltas["served"] - deltas["legs"], deltas["served"])
            if deltas["legs"] else 0.0,
        "marketplace.rank_ms": ms(idx.total("marketplace.rank")) / ops,
        "admission.admitted": admitted / ops,
        "admission.shed": idx.note("admission.shed") / ops,
        "admission.queue_delay_sim_ms": ratio(
            ms(idx.note("admission.queue_delay_s")), admitted),
        "trace.spans_per_op": len(idx.ids) / ops,
        "trace.overhead_ratio": (statistics.median(traced)
                                 / statistics.median(untraced) - 1
                                 if traced and untraced else 0.0),
    }
    self_times = idx.self_time_by_layer()
    for name in PER_LAYER:
        if name.startswith("self."):
            values[name] = ms(self_times.get(name[5:-3], 0.0)) / ops
    unknown = {spans[sid][NAME].split(".")[0] for sid in idx.ids} - {
        name[5:-3] for name in PER_LAYER if name.startswith("self.")} - {"op", "ingest"}
    if unknown:
        raise RuntimeError(f"spans of layers without a self-time metric: {unknown}")
    samples = {"trace.overhead_ratio": min(len(traced), len(untraced)),
               "storage.compactions": len(cycles),
               "storage.compact_ms": all_traced.count("storage.compact"),
               "storage.reclaimed_bytes": compactions}
    return {name: (values[name], samples.get(name, len(window)), PER_LAYER[name][1])
            for name in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.inputs import generate
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    host_start = keccak_us_per_hash()
    inputs = generate(args.workload, args.seed, args.seconds, args.ops)
    OUT.mkdir(exist_ok=True)
    setup_times: list[float] = []
    world = None
    try:
        for k in range(SETUPS):
            if world is not None:
                world.close()
            start = time.perf_counter()
            world = WORKLOADS[args.workload](
                inputs, OUT / f"state-{args.workload}-{args.seed}-{k}")
            setup_times.append(time.perf_counter() - start)
        # garbage of the discarded set-ups is collected before timing starts
        gc.collect()
        tracer = Tracer(instances=[world.devnet.executor]) if args.trace else None
        cycles = run_timed(world, inputs, args, tracer)
        if args.trace:
            metrics = per_layer(cycles, trace_window(args), tracer)
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = end_to_end(world, cycles, setup_times)
    finally:
        if world is not None:
            world.close()
    host_end = keccak_us_per_hash()

    attempted = len(cycles)
    failed = sum(1 for c in cycles if not c.ok)
    units = ({name: unit for name, (unit, _) in PER_LAYER.items()} if args.trace
             else END_TO_END)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in the timed phase, {failed} failed")
    print(f"host.keccak_us_per_hash = {host_start} us at start, {host_end} us "
          f"at end (not gated)")
    for name, (value, unit, n, basis) in context(world, cycles).items():
        print(f"{name} = {value} {unit} (n={n}, {basis}, not gated)")
    for name, (value, n, basis) in metrics.items():
        print(f"{name} = {value} {units[name]} (n={n}, {basis})")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _, _) in metrics.items()},
    }))
    return 0 if failed == 0 and attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
