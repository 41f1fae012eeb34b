"""Spans recorded around the program's layer entry points, from outside it.

A :class:`Tracer` swaps each traced callable for a wrapper that records one
span — op id, name, start, end, parent — and, at the same boundary, the
counts a layer metric needs (Keccak input bytes, wire bytes, proof nodes,
admission verdicts).  The program is not edited: the wrappers replace class
attributes, module attributes (every module binding of ``keccak256``,
``sign``, ``recover`` and the proof functions, since ``from x import f``
copies the reference) and ``os.fsync``, and are taken out again after each
traced op.  Spans are kept in memory and written out once, at the end.

A span's *self time* is its duration minus the time its child spans cover;
calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

from repro.chain.chain import Blockchain
from repro.crypto import ecdsa, keccak
from repro.lightclient import HeaderSyncer
from repro.node import FullNode
from repro.parp import AdmissionController, FullNodeServer, LightClientSession
from repro.parp.marketplace import MarketplaceClient
from repro.parp.messages import BatchResponse, PARPResponse
from repro.storage import compaction
from repro.storage.blocklog import BlockLog
from repro.storage.filestore import AppendOnlyFileStore
from repro.trie import proof
from repro.trie.mpt import MerklePatriciaTrie
from repro.vm.runtime import TransactionExecutor

#: span fields, in tuple order
OP, NAME, START, END, PARENT = range(5)
#: names of the root spans the benchmark opens around its own calls
ROOTS = ("op", "ingest")

Note = Callable[["Tracer", int, tuple, Any], None]


def _note_keccak(tracer, sid, args, result):
    tracer.add("crypto.keccak.bytes", len(args[0]))


def _note_wire(tracer, sid, args, result):
    tracer.add("messages.request_bytes", len(args[1]))
    tracer.add("messages.response_bytes", len(result))


def _note_generate(tracer, sid, args, result):
    tracer.add("trie.proof.nodes", len(result))


def _note_verify(tracer, sid, args, result):
    # verify_proof(root, key, proof) / verify_multiproof(root, keys, proof)
    keys = 1 if isinstance(args[1], (bytes, bytearray)) else len(args[1])
    tracer.add("trie.proof.verify.keys", keys)
    tracer.pools[tracer.spans[sid][PARENT]].update(args[2])


def _note_admission(tracer, sid, args, decision):
    if decision.admitted:
        tracer.add("admission.admitted", 1)
        tracer.add("admission.queue_delay_s", decision.queue_delay)
    else:
        tracer.add("admission.shed", 1)


#: (class, attribute, span name, note) — class-level entry points
CLASS_TARGETS = [
    (LightClientSession, "build_request", "client.build", None),
    (LightClientSession, "build_batch_request", "client.build", None),
    (LightClientSession, "process_response", "client.verify", None),
    (LightClientSession, "process_batch_response", "client.verify", None),
    (HeaderSyncer, "sync", "lightclient.sync", None),
    (HeaderSyncer, "sync_to", "lightclient.sync", None),
    (FullNodeServer, "serve_request", "server.serve", _note_wire),
    (FullNodeServer, "serve_batch", "server.serve", _note_wire),
    (FullNodeServer, "_verify_request", "server.request_verify", None),
    (FullNodeServer, "_verify_batch", "server.request_verify", None),
    (FullNodeServer, "_execute_cached", "server.execute", None),
    (PARPResponse, "build", "server.respond", None),
    (BatchResponse, "build", "server.respond", None),
    (MerklePatriciaTrie, "commit", "trie.commit", None),
    (Blockchain, "build_block", "chain.build_block", None),
    (FullNode, "submit_transaction", "chain.ingest", None),
    (TransactionExecutor, "apply", "vm.apply", None),
    (AppendOnlyFileStore, "commit", "storage.append", None),
    (BlockLog, "append", "storage.blocklog.append", None),
    (MarketplaceClient, "eligible", "marketplace.rank", None),
    (AdmissionController, "offer", "admission.offer", _note_admission),
    (os, "fsync", "storage.fsync", None),
]

#: (original function, span name, note) — wrapped wherever a module binds it
FUNCTION_TARGETS = [
    (keccak.keccak256, "crypto.keccak", _note_keccak),
    (ecdsa.sign, "crypto.ecdsa.sign", None),
    (ecdsa.recover, "crypto.ecdsa.recover", None),
    (proof.generate_proof, "trie.proof.generate", _note_generate),
    (proof.verify_proof, "trie.proof.verify", _note_verify),
    (proof.verify_multiproof, "trie.proof.verify", _note_verify),
    (compaction.compact_node_store, "storage.compact", None),
]


class Tracer:
    """Records spans and boundary counts while installed.

    ``instances`` are program objects that may shadow a traced class
    attribute with one of their own (``Devnet.mine`` leaves the executor's
    ``apply`` bound on the instance); such bindings are wrapped too.
    """

    def __init__(self, instances=()) -> None:
        #: (op, name, start, end, parent-index) per span, by index
        self.spans: list[Optional[tuple]] = []
        #: boundary counts, keyed by (op, name)
        self.notes: dict[tuple[int, str], float] = defaultdict(float)
        #: distinct proof nodes handed to verification, per parent span
        self.pools: dict[int, set] = defaultdict(set)
        self.op = -1
        self._stack = [-1]
        self._patches = self._build_patches(instances)

    def add(self, name: str, amount: float) -> None:
        self.notes[(self.op, name)] += amount

    def _wrap(self, name: str, fn: Callable, note: Optional[Note]) -> Callable:
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (tracer.op, name, start, end, parent)
            if note is not None:
                note(tracer, sid, args, result)
            return result

        return traced

    def _build_patches(self, instances) -> list[tuple[Any, str, Any, Any]]:
        """(owner, attribute, original, wrapped) for every traced binding."""
        patches = []
        for owner, attr, name, note in CLASS_TARGETS:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, note))
            else:
                wrapped = self._wrap(name, raw, note)
            patches.append((owner, attr, raw, wrapped))
            for obj in instances:
                if (isinstance(owner, type) and isinstance(obj, owner)
                        and attr in vars(obj)):
                    bound = vars(obj)[attr]
                    patches.append((obj, attr, bound,
                                    self._wrap(name, bound, note)))
        for fn, name, note in FUNCTION_TARGETS:
            wrapped = self._wrap(name, fn, note)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patches.append((module, attr, fn, wrapped))
        return patches

    def run(self, op: int, root: str, fn: Callable, *args) -> tuple[Any, float]:
        """Call ``fn`` under a root span with every wrapper installed;
        returns its result and wall time."""
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self.op = op
        try:
            return timed(self._wrap(root, fn, None), *args)
        finally:
            for owner, attr, raw, _ in reversed(self._patches):
                setattr(owner, attr, raw)
            self.op = -1

    def dump(self, path: os.PathLike) -> None:
        """Write every span as one JSON object per line."""
        fields = ("op", "name", "start", "end", "parent")
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, **dict(zip(fields, span))}))
                fh.write("\n")


def timed(fn: Callable, *args) -> tuple[Any, float]:
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


class SpanIndex:
    """Aggregates over the spans of a set of ops."""

    def __init__(self, tracer: Tracer, ops: set[int]) -> None:
        self.tracer = tracer
        self.ops = ops
        spans = tracer.spans
        self.ids = [sid for sid, span in enumerate(spans) if span[OP] in ops]
        self.children: dict[int, list[int]] = defaultdict(list)
        for sid in self.ids:
            self.children[spans[sid][PARENT]].append(sid)

    def named(self, name: str) -> list[int]:
        spans = self.tracer.spans
        return [sid for sid in self.ids if spans[sid][NAME] == name]

    def count(self, name: str) -> int:
        return len(self.named(name))

    def duration(self, sid: int) -> float:
        span = self.tracer.spans[sid]
        return span[END] - span[START]

    def has_ancestor(self, sid: int, name: str) -> bool:
        spans = self.tracer.spans
        parent = spans[sid][PARENT]
        while parent >= 0:
            if spans[parent][NAME] == name:
                return True
            parent = spans[parent][PARENT]
        return False

    def total(self, name: str, under: Optional[str] = None) -> float:
        """Seconds spent in ``name`` spans, counting nested re-entries
        (``sync`` calling ``sync_to``) once; only those below an
        ``under`` span when given."""
        return sum(self.duration(sid) for sid in self.named(name)
                   if not self.has_ancestor(sid, name)
                   and (under is None or self.has_ancestor(sid, under)))

    def child_count(self, sid: int, name: str) -> int:
        spans = self.tracer.spans
        return sum(1 for child in self.children[sid] if spans[child][NAME] == name)

    def self_time_by_layer(self) -> dict[str, float]:
        """Self time summed per layer — the part of a span name before its
        first dot; the benchmark's own root spans count as ``other``."""
        spans = self.tracer.spans
        out: dict[str, float] = defaultdict(float)
        for sid in self.ids:
            name = spans[sid][NAME]
            layer = "other" if name in ROOTS else name.split(".")[0]
            covered = sum(self.duration(c) for c in self.children[sid])
            out[layer] += self.duration(sid) - covered
        return out

    def note(self, name: str) -> float:
        """A boundary count summed over the ops."""
        return sum(value for (op, key), value in self.tracer.notes.items()
                   if key == name and op in self.ops)
