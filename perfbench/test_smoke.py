"""Smoke test of the benchmark at tiny sizes (a handful of ops per workload).

    python -m pytest perfbench/ -q

Checks that one command emits every metric ``BENCHMARK.json`` names, with
its unit; that every op verifies against the devnet state; that layers
show up as exercised or bypassed on the workloads they should; that the
traced counts repeat exactly for one seed; and that the command fails
without printing a result when the program is missing.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OPS = 5

#: layers only one workload may exercise
ONLY_ON = {
    "read_scatter": ("marketplace.", "net.", "admission."),
    "write_block": ("storage.", "trie.commit"),
}
#: metrics that must be non-zero on the workload that exercises them
EXERCISED = {
    "read_point": ("crypto.ecdsa.recover_calls", "server.request_verify_ms",
                   "trie.proof.verify.nodes_hashed"),
    "read_scatter": ("marketplace.legs", "marketplace.launches", "net.messages",
                     "net.sim_p50_ms", "admission.admitted"),
    "write_block": ("storage.bytes_per_block", "storage.fsyncs_per_block",
                    "trie.commit.calls", "vm.apply_ms", "chain.ingest_ms",
                    "lightclient.headers_fetched"),
}
#: per-layer counts that must repeat exactly for one seed
COUNTS = ("crypto.ecdsa.sign_calls", "crypto.ecdsa.recover_calls",
          "crypto.keccak.calls", "crypto.keccak.bytes",
          "messages.request_bytes", "messages.response_bytes",
          "trie.commit.calls", "storage.fsyncs_per_block",
          "storage.bytes_per_block", "net.messages", "net.bytes")


def run_bench(workload: str, trace: int, cwd: pathlib.Path = ROOT,
              seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--ops", str(OPS)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w["name"]: result_of(run_bench(w["name"], 1))
            for w in SPEC["workloads"]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_are_emitted_with_units(workload):
    result = result_of(run_bench(workload, 0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == OPS
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_are_emitted_with_units(traced):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced.values():
        assert result["correct"] and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected


def test_layers_are_exercised_or_bypassed_where_expected(traced):
    for workload, result in traced.items():
        values = {n: m["value"] for n, m in result["metrics"].items()}
        for owner, prefixes in ONLY_ON.items():
            if owner == workload:
                continue
            for name, value in values.items():
                if name.startswith(prefixes):
                    assert value == 0, f"{name} is {value} on {workload}"
        for name in EXERCISED[workload]:
            assert values[name] > 0, f"{name} is 0 on {workload}"


def test_traced_counts_repeat_for_one_seed(traced):
    again = result_of(run_bench("write_block", 1))
    for name in COUNTS:
        assert (again["metrics"][name]["value"]
                == traced["write_block"]["metrics"][name]["value"]), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("read_point", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
