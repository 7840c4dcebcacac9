"""The benchmark's own tests: deterministic inputs, an oracle gate that
rejects wrong output, and traced runs that report every named metric.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from datafiller_ray.fixtures import generate_input_table  # noqa: E402
from datafiller_ray.stages.fill import make_fill_group_fn  # noqa: E402
from datafiller_ray.stages.validate import make_partial_agg_fn  # noqa: E402
from perfbench import gate, host, run, workloads as W  # noqa: E402


def _tree_digest(root: str) -> dict[str, str]:
    out = {}
    for dp, _dirs, files in os.walk(root):
        for f in files:
            p = os.path.join(dp, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("workload", ["rollup_tokens", "ingest_updates"])
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    digests = []
    for i, seed in enumerate((5, 5, 6)):
        d = tmp_path / str(i)
        d.mkdir()
        W.make_inputs(workload, seed, str(d))
        digests.append(_tree_digest(str(d)))
    assert digests[0] == digests[1]
    assert digests[0].keys() == digests[2].keys()
    assert all(digests[0][k] != digests[2][k] for k in digests[0])


def _engine_tier_rows(table, cfg, emit="rows") -> pd.DataFrame:
    """The engine's partial-agg and fill kernels, run in-process."""
    partials = make_partial_agg_fn(check_tokens=False)(table).to_pandas()
    fn = make_fill_group_fn(cfg, tiers=W.TIER_NAMES, emit=emit)
    return pd.concat([fn(g) for _, g in partials.groupby("skey")], ignore_index=True)


def test_gate_rejects_a_perturbed_tier_row():
    table = generate_input_table(3000, 5, seed=3)
    want = gate.expected_tier_rows(table, W.TIERS, W.LINEAR)
    got = _engine_tier_rows(table, W.LINEAR)
    assert gate.compare_tier_rows(got, want) is None
    for col, delta in (("sum", 1.0), ("count", 1), ("bucket_ts", 60)):
        bad = got.copy()
        bad.loc[len(bad) // 2, col] += delta
        assert gate.compare_tier_rows(bad, want) is not None, col
    assert gate.compare_tier_rows(got.iloc[1:], want) is not None


def test_gate_rejects_a_truncated_blob(tmp_path):
    table = generate_input_table(3000, 5, seed=4)
    pq.write_table(table, tmp_path / "input.parquet")
    agg = gate.input_aggregate(str(tmp_path / "*.parquet"), W.TIERS)
    blobs = _engine_tier_rows(table, W.MODEL, emit="blobs")
    assert gate.check_blobs(blobs, agg, W.TIERS) is None
    longest = int(np.argmax(blobs["n_points"].to_numpy()))
    for col in ("ts_blob", "sum_blob", "value_blob"):
        bad = blobs.copy()
        payload = bad.at[longest, col]
        bad.at[longest, col] = payload[: len(payload) // 2]
        assert gate.check_blobs(bad, agg, W.TIERS) is not None, col
    assert gate.check_blobs(blobs.iloc[1:], agg, W.TIERS) is not None


def test_host_factor_scales_with_the_probes():
    ref = host.PROBE_REF_S
    assert host.host_factor(ref, ref) == pytest.approx(1.0)
    slow = {k: 2 * v for k, v in ref.items()}
    assert host.host_factor(ref, slow) == pytest.approx(1.5)
    assert host.host_factor(slow, slow) == pytest.approx(2.0)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def _checkout(dst) -> str:
    """A copy of what the benchmark needs, like the checkout it runs in."""
    for name in ("datafiller_ray", "perfbench", os.path.join("tests", "oracle")):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dst, name),
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
    for name in ("bench.py", "BENCHMARK.json"):
        shutil.copy(os.path.join(ROOT, name), dst)
    return str(dst)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES + run.EXTRA_WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    cwd = _checkout(tmp_path)
    res = _run(cwd, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    assert res.returncode == 0, res.stderr[-3000:]
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    assert set(out["metrics"]) == set(run.PER_LAYER)
    assert all(np.isfinite(m["value"]) for m in out["metrics"].values())
    # only the trace report is left behind; no run dir and no shuffle dir
    assert os.listdir(os.path.join(cwd, ".perfbench")) == ["traces"]
    report = os.path.join(cwd, ".perfbench", "traces", f"{workload}-seed7.json")
    with open(report) as f:
        spans = json.load(f)["spans"]
    assert {s["name"] for s in spans} >= {"job"}


def test_fails_without_the_engine(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = _run(str(tmp_path), "--workload", "rollup_tokens", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
