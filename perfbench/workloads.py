"""Workload inputs and jobs, called through the engine's public functions.

Three workloads (see README.md for why each was chosen):

- ``rollup_tokens``: token-validated rollup to 1m/1h/1d, linear fill,
  ``write_tiers``.
- ``model_blobs``: same input shape, token column never read, ridge model
  fill with mean fallback, Gorilla blobs written with ``write_parquet``.
- ``ingest_updates``: a checkpointed base, then appends, a late replace, a
  tombstone batch, update-log compaction and retention.

Inputs are generated from the seed into the run's own directory; the engine
sees only the Parquet files.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import ray.data

from datafiller_ray.config import FillConfig, RetentionConfig, TIER_STEPS
from datafiller_ray.fixtures import generate_input_table
from datafiller_ray.functions.hashing import expected_tokens_flat, row_seed, string_hash64
from datafiller_ray.pipelines.checkpoint import (
    compact_updates,
    read_tier_output,
    run_checkpointed,
    run_incremental,
)
from datafiller_ray.pipelines.retention import enforce_retention
from datafiller_ray.pipelines.rollup import (
    bucketed_map_groups,
    partial_aggregates,
    rollup_tiers_bucketed,
    write_tiers,
)
from datafiller_ray.stages.compress import decode_tier_chunk, encode_tier_chunks
from datafiller_ray.stages.fill import make_fill_group_fn
from datafiller_ray.stages.validate import extract_epoch_minute, make_partial_agg_fn
from datafiller_ray.state.lineage import read_manifest

from perfbench import gate, host
from perfbench.trace import NullTracer, Tracer

#: input size: large enough that validation, fill and Gorilla encoding are
#: visible beside Ray's per-stage overhead on one core, small enough that a
#: job repeats several times within one run
N_ROWS = 100_000
N_SOURCES = 64
ROWS_PER_FILE = 16_384
TIER_NAMES = ("1m", "1h", "1d")
TIERS = {t: TIER_STEPS[t] for t in TIER_NAMES}
CHECKPOINT_BUCKETS = 8  # run_checkpointed's default n_buckets

#: ingest: share of each source's minutes in the checkpointed base; the
#: newest rest arrives as APPEND_BATCHES appends
BASE_FRAC = 0.9
APPEND_BATCHES = 3
CORRECTED_SOURCES = 4  # sources given a late replace, and as many tombstoned
KEYS_PER_SOURCE = 32

LINEAR = FillConfig("linear", max_gap=60)
MODEL = FillConfig("model", fallback="simple")


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: FillConfig
    check_tokens: bool
    emit: str


WORKLOADS = {
    "rollup_tokens": Workload("rollup_tokens", LINEAR, True, "rows"),
    "model_blobs": Workload("model_blobs", MODEL, False, "blobs"),
    "ingest_updates": Workload("ingest_updates", LINEAR, True, "rows"),
}


@dataclass
class Inputs:
    """Generated inputs of one workload. ``expected`` is the table whose tier
    rows the committed output must equal (for ingest: base + appends with
    the replace applied and the tombstoned keys removed)."""

    expected: pa.Table
    input_dir: str  # the job's input (ingest: the base)
    n_seq: int  # input sequences one job processes
    batches: list = field(default_factory=list)  # ingest: (kind, path, kwargs)
    cutoff: int | None = None  # ingest: 1m retention lower bound
    base_dir: str | None = None  # ingest: checkpointed base


def write_parts(table: pa.Table, d: str) -> None:
    os.makedirs(d)
    for i in range(max(1, -(-table.num_rows // ROWS_PER_FILE))):
        pq.write_table(table.slice(i * ROWS_PER_FILE, ROWS_PER_FILE),
                       os.path.join(d, f"part-{i:05d}.parquet"),
                       row_group_size=ROWS_PER_FILE)


def input_files(d: str) -> list[str]:
    return sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))


def _doc_ids(source: np.ndarray, minute: np.ndarray) -> np.ndarray:
    return np.char.add(np.char.add(source.astype("U"), ":"),
                       np.char.zfill(minute.astype("U10"), 10))


def _token_rows(source: np.ndarray, minute: np.ndarray, n_tok: np.ndarray) -> pa.Table:
    """Contract rows whose token payload is what the generator would emit."""
    seeds = row_seed(string_hash64(source.astype("U")), minute)
    offsets, values = expected_tokens_flat(seeds, n_tok)
    return pa.table({
        "doc_id": pa.array(_doc_ids(source, minute), pa.string()),
        "tokens": pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                           pa.array(values, pa.int32())),
        "n_tok": pa.array(n_tok, pa.int32()),
        "source": pa.array(source.astype("U"), pa.string()),
    })


def make_inputs(workload: str, seed: int, root: str) -> Inputs:
    """Write the workload's inputs under ``root``; same seed, same bytes."""
    table = generate_input_table(N_ROWS, N_SOURCES, seed=seed)
    if workload != "ingest_updates":
        d = os.path.join(root, "input")
        write_parts(table, d)
        return Inputs(expected=table, input_dir=d, n_seq=table.num_rows)

    df = pd.DataFrame({
        "source": table["source"].to_numpy(zero_copy_only=False),
        "minute": np.asarray(extract_epoch_minute(table["doc_id"])),
        "n_tok": table["n_tok"].to_numpy(),
    })
    by_src = df.groupby("source")["minute"]
    frac = (by_src.rank(method="first") - 1) / by_src.transform("size")
    base_mask = (frac < BASE_FRAC).to_numpy()
    batch_of = np.minimum(
        ((frac - BASE_FRAC) / (1 - BASE_FRAC) * APPEND_BATCHES).astype(int),
        APPEND_BATCHES - 1,
    ).to_numpy()

    d = os.path.join(root, "base")
    write_parts(table.filter(pa.array(base_mask)), d)
    batches = []
    for k in range(APPEND_BATCHES):
        p = os.path.join(root, f"append-{k}.parquet")
        pq.write_table(table.filter(pa.array(~base_mask & (batch_of == k))), p)
        batches.append(("append", p, {}))

    # late corrections on sources with enough base rows: a replace of some
    # minutes on CORRECTED_SOURCES sources, tombstones on as many others
    rng = np.random.default_rng([seed, 1])
    base = df[base_mask]
    counts = base.groupby("source").size()
    eligible = np.array(sorted(counts[counts >= 4 * KEYS_PER_SOURCE].index))
    chosen = rng.choice(eligible, 2 * CORRECTED_SOURCES, replace=False)

    def pick(sources) -> pd.DataFrame:
        rows = [base[base["source"] == s].sample(KEYS_PER_SOURCE, random_state=rng)
                for s in sources]
        return pd.concat(rows).sort_values(["source", "minute"])

    rep = pick(chosen[:CORRECTED_SOURCES])
    new_tok = np.clip(rep["n_tok"].to_numpy() + rng.integers(5, 50, len(rep)), 1, 2048)
    rep_table = _token_rows(rep["source"].to_numpy(), rep["minute"].to_numpy(),
                            new_tok.astype(np.int32))
    p = os.path.join(root, "replace.parquet")
    pq.write_table(rep_table, p)
    batches.append(("replace", p, {"mode": "replace"}))
    dele = pick(chosen[CORRECTED_SOURCES:])
    del_ids = _doc_ids(dele["source"].to_numpy(), dele["minute"].to_numpy())
    p = os.path.join(root, "delete.parquet")
    pq.write_table(pa.table({"doc_id": pa.array(del_ids, pa.string()),
                             "source": pa.array(dele["source"].to_numpy(), pa.string())}), p)
    batches.append(("delete", None, {"deletes": p}))

    eff = table.select(["doc_id", "n_tok", "source"]).to_pandas().set_index("doc_id")
    eff.loc[rep_table["doc_id"].to_pylist(), "n_tok"] = new_tok.astype(np.int32)
    eff = eff.drop(index=list(del_ids)).reset_index()
    expected = pa.Table.from_pandas(eff, preserve_index=False)
    min_ts = int(np.asarray(extract_epoch_minute(expected["doc_id"])).min()) * 60
    n_seq = sum(pq.read_metadata(b[1] or b[2]["deletes"]).num_rows for b in batches)
    return Inputs(expected=expected, input_dir=d, n_seq=n_seq, batches=batches,
                  cutoff=(min_ts // 86400 + 1) * 86400)


def build_base(inputs: Inputs, root: str) -> None:
    """Checkpoint the ingest base; part of set-up."""
    inputs.base_dir = os.path.join(root, "base_ckpt")
    run_checkpointed(inputs.input_dir, inputs.base_dir, fill=LINEAR, check_tokens=True)


def warm_read(inputs: Inputs) -> None:
    """Start the read path and check the input arrived whole."""
    got = ray.data.read_parquet(inputs.input_dir, columns=["n_tok"]).sum("n_tok")
    want = sum(pq.read_table(f, columns=["n_tok"])["n_tok"].to_numpy().sum(dtype=np.int64)
               for f in input_files(inputs.input_dir))
    if got != want:
        raise RuntimeError(f"warm read summed n_tok {got}, files hold {want}")


def raydata_stats(ds) -> list[dict]:
    """Ray Data's own per-operator stats of an executed Dataset (after a
    write, the stats live on the written plan)."""
    target = getattr(ds, "_write_ds", None) or ds
    ops = []

    def walk(summary):
        for parent in summary.parents:
            walk(parent)
        for op in summary.operators_stats:
            ops.append({
                "operator": op.operator_name,
                "wall_s": (op.wall_time or {}).get("sum", 0.0),
                "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                "rows": (op.output_num_rows or {}).get("sum", 0),
                "bytes": (op.output_size_bytes or {}).get("sum", 0),
            })

    walk(target._get_stats_summary())
    return ops


class Runner:
    """Runs one workload's jobs and checks their outputs."""

    def __init__(self, wl: Workload, inputs: Inputs, run_dir: str, tmp_dir: str):
        self.wl, self.inputs = wl, inputs
        self.run_dir, self.tmp_dir = run_dir, tmp_dir
        self._oracle: pd.DataFrame | None = None
        self._agg: pd.DataFrame | None = None
        self.leaks: list[tuple[int, int]] = []  # (dirs, bytes) per bucketed job
        self.last_ds = None
        self._n = 0

    def out_dir(self, tag: str) -> str:
        self._n += 1
        return os.path.join(self.run_dir, f"{tag}-{self._n}")

    # -- jobs ------------------------------------------------------------

    def job(self, out: str, tracer: Tracer | None = None) -> dict:
        """One job as users run it; a tracer spans only the ingest job, whose
        engine calls are its layers. Returns its times and output size."""
        if self.wl.name == "ingest_updates":
            return self._ingest(out, tracer or NullTracer())
        before = host.shuffle_dirs(self.tmp_dir)
        t0 = time.perf_counter()
        ds = rollup_tiers_bucketed(
            self.inputs.input_dir, fill=self.wl.cfg,
            check_tokens=self.wl.check_tokens, emit=self.wl.emit,
        )
        self._sink(ds, out)
        job_s = time.perf_counter() - t0
        self.leaks.append(host.reap_shuffle_dirs(self.tmp_dir, before))
        self.last_ds = ds
        return {"job_s": job_s, "batch_s": [job_s], "bytes": host.tree_bytes(out)[0]}

    def _sink(self, ds, out: str) -> None:
        if self.wl.emit == "blobs":
            ds.write_parquet(out)
        else:
            write_tiers(ds, out)

    def _ingest(self, work: str, tracer: Tracer) -> dict:
        shutil.copytree(self.inputs.base_dir, work)  # restore: not timed
        batch_s, touched = [], []
        t_job = time.perf_counter()
        with tracer.job("job") as job_span:
            for kind, path, kw in self.inputs.batches:
                with tracer.span("pipelines.checkpoint.update", kind=kind) as sp:
                    t0 = time.perf_counter()
                    res = run_incremental(work, path, **kw)
                    batch_s.append(time.perf_counter() - t0)
                touched.append(len(res["touched_buckets"]))
                tracer.count("checkpoint.touched_buckets", touched[-1], span=sp)
            with tracer.span("pipelines.checkpoint.compact"):
                t0 = time.perf_counter()
                compact_updates(work)
                compact_s = time.perf_counter() - t0
            with tracer.span("pipelines.retention") as sp:
                t0 = time.perf_counter()
                ret = enforce_retention(
                    os.path.join(work, "tiers"),
                    RetentionConfig({"1m": (self.inputs.cutoff, None)}),
                )
                retention_s = time.perf_counter() - t0
            for k, v in ret.items():
                tracer.count(f"retention.{k}", v, span=sp)
        job_s = time.perf_counter() - t_job
        layers = {
            "pipeline.traced_job_s": job_s,
            "pipeline.orchestration_s": tracer.self_times(job_span.get("trace_id")).get("job", 0.0),
            "checkpoint.update_s": statistics.median(batch_s),
            "checkpoint.touched_buckets": sum(touched),
            "checkpoint.touched_ratio": sum(touched) / (len(touched) * CHECKPOINT_BUCKETS),
            "checkpoint.compact_s": compact_s,
            "checkpoint.manifest_records": len(read_manifest(work)),
            **self._retention_metrics(retention_s, ret),
        }
        return {"job_s": job_s, "batch_s": batch_s, "layers": layers,
                "bytes": host.tree_bytes(os.path.join(work, "tiers"))[0]}

    def decomposed(self, tracer, paths, out: str, root: str) -> tuple[dict, pd.DataFrame]:
        """The rollup job split at its layer boundaries, one span per layer:
        validate -> exchange map -> exchange reduce (pass-through group fn) ->
        per-source fill on the driver -> [Gorilla encode] -> sink. Returns
        per-layer metrics and the tier rows."""
        wl, m = self.wl, {}
        before = host.shuffle_dirs(self.tmp_dir)
        with tracer.job(root) as job_span:
            with tracer.span("stages.validate") as sp_val:
                partials = partial_aggregates(paths, check_tokens=wl.check_tokens).materialize()
            m["validate.rows_out"] = partials.count()
            with tracer.span("pipelines.rollup.exchange_map") as sp_map:
                grouped = bucketed_map_groups(partials, lambda g: g)
            scratch = sorted(host.shuffle_dirs(self.tmp_dir) - before)
            with tracer.span("pipelines.rollup.exchange_reduce") as sp_red:
                grouped = grouped.materialize()
            groups = grouped.to_pandas().groupby("skey", sort=True)
            with tracer.span("stages.fill") as sp_fill:
                fill_fn = make_fill_group_fn(wl.cfg, tiers=TIER_NAMES)
                rows = pd.concat([fill_fn(g) for _, g in groups], ignore_index=True)
            result = rows
            if wl.emit == "blobs":
                with tracer.span("stages.compress") as sp_enc:
                    result = encode_tier_chunks(rows)
            with tracer.span("sink") as sp_sink:
                sink_ds = ray.data.from_pandas(result)
                self._sink(sink_ds, out)
        self.last_ds = sink_ds
        if wl.emit == "blobs":
            m.update(self._compress_metrics(result, sp_enc))

        def dur(sp):
            return sp["end"] - sp["start"]

        rows_in = sum(pq.read_metadata(p).num_rows for p in paths)
        m.update({
            "validate.task_s": dur(sp_val),
            "validate.rows_in": rows_in,
            "validate.reduction": rows_in / max(1, m["validate.rows_out"]),
            "exchange.map_s": dur(sp_map),
            "exchange.reduce_s": dur(sp_red),
            "fill.kernel_s": dur(sp_fill),
            "sink.write_s": dur(sp_sink),
            "pipeline.traced_job_s": dur(job_span),
            "pipeline.orchestration_s": tracer.self_times(job_span["trace_id"])[root],
        })
        m.update(self._exchange_metrics(scratch))
        dirs, nbytes = host.reap_shuffle_dirs(self.tmp_dir, before)
        self.leaks.append((dirs, nbytes))
        m["exchange.leaked_dirs"], m["exchange.leaked_bytes"] = dirs, nbytes
        gaps = int((rows["count"] == 0).sum())
        m.update({
            "fill.grid_cells": len(rows),
            "fill.gap_cells": gaps,
            "fill.filled_ratio": float(rows["filled"].sum()) / max(1, gaps),
        })
        m["sink.bytes"], m["sink.files"] = host.tree_bytes(out)
        layer_span = {"validate": sp_val, "exchange": sp_map, "fill": sp_fill,
                      "compress": sp_enc if wl.emit == "blobs" else None,
                      "sink": sp_sink, "pipeline": job_span}
        for name, v in m.items():
            tracer.count(name, v, span=layer_span[name.split(".")[0]])
        return m, rows

    @staticmethod
    def _exchange_metrics(scratch: list[str]) -> dict:
        sizes = []
        files = total = 0
        for s in scratch:
            for b in os.listdir(os.path.join(s, "partials")):
                nbytes, nfiles = host.tree_bytes(os.path.join(s, "partials", b))
                if b.startswith("bucket="):
                    sizes.append(nbytes)
                total += nbytes
                files += nfiles
        return {
            "exchange.scratch_bytes": total,
            "exchange.files": files,
            "exchange.bucket_skew": max(sizes) / statistics.mean(sizes) if sizes else 1.0,
        }

    @staticmethod
    def _compress_metrics(blobs: pd.DataFrame, sp) -> dict:
        blob_bytes = sum(
            len(b) for c in blobs.columns if c.endswith("_blob") for b in blobs[c]
        )
        points = int(blobs["n_points"].sum())
        t0 = time.perf_counter()
        for r in blobs.to_dict("records"):
            decode_tier_chunk(r)
        return {
            "compress.encode_s": sp["end"] - sp["start"],
            "compress.decode_s": time.perf_counter() - t0,
            "compress.points": points,
            # raw: int64 timestamp + five float64 value columns per point
            "compress.ratio": points * 6 * 8 / max(1, blob_bytes),
        }

    # -- probes (traced runs only) --------------------------------------

    def validate_kernel_s(self, tracer, paths) -> float:
        """The partial-agg kernel called in-process on each input file."""
        cols = ["doc_id", "tokens", "n_tok", "source"] if self.wl.check_tokens \
            else ["doc_id", "n_tok", "source"]
        fn = make_partial_agg_fn(check_tokens=self.wl.check_tokens)
        total = 0.0
        with tracer.job("probe.validate_kernel"):
            for p in paths:
                t = pq.read_table(p, columns=cols)
                with tracer.span("stages.validate.kernel", file=os.path.basename(p)) as sp:
                    fn(t)
                total += sp["end"] - sp["start"]
        return total

    def compress_probe(self, tracer, rows: pd.DataFrame) -> dict:
        """Gorilla-encode tier rows the job committed as rows."""
        with tracer.span("probe.compress") as sp:
            blobs = encode_tier_chunks(rows)
        return self._compress_metrics(blobs, sp)

    def checkpoint_probe(self, tracer) -> dict:
        """Checkpoint, one replace update, compaction and retention over the
        workload's input, for the batch workloads that do not checkpoint."""
        d = self.out_dir("ckpt-probe")
        files = input_files(self.inputs.input_dir)
        with tracer.span("probe.checkpoint.base") as sp_base:
            run_checkpointed(self.inputs.input_dir, d, fill=self.wl.cfg,
                             check_tokens=self.wl.check_tokens)
        with tracer.span("probe.checkpoint.update") as sp_up:
            res = run_incremental(d, files[-1], mode="replace")
        with tracer.span("probe.checkpoint.compact") as sp_c:
            compact_updates(d)
        with tracer.span("probe.retention") as sp_r:
            ret = enforce_retention(
                os.path.join(d, "tiers"),
                RetentionConfig({"1m": (self.retention_cutoff(), None)}),
            )
        m = {
            "checkpoint.base_s": sp_base["end"] - sp_base["start"],
            "checkpoint.update_s": sp_up["end"] - sp_up["start"],
            "checkpoint.touched_buckets": len(res["touched_buckets"]),
            "checkpoint.touched_ratio": len(res["touched_buckets"]) / CHECKPOINT_BUCKETS,
            "checkpoint.compact_s": sp_c["end"] - sp_c["start"],
            "checkpoint.manifest_records": len(read_manifest(d)),
        }
        m.update(self._retention_metrics(sp_r["end"] - sp_r["start"], ret))
        shutil.rmtree(d, ignore_errors=True)
        return m

    @staticmethod
    def _retention_metrics(seconds: float, ret: dict) -> dict:
        return {
            "retention.enforce_s": seconds,
            "retention.files_rewritten": ret["rewritten"],
            "retention.files_deleted": ret["deleted"],
            "retention.rows_dropped": ret["rows_dropped"],
        }

    def retention_cutoff(self) -> int:
        if self.inputs.cutoff is not None:
            return self.inputs.cutoff
        ts = np.asarray(extract_epoch_minute(self.inputs.expected["doc_id"])) * 60
        return (int(ts.min()) // 86400 + 1) * 86400

    # -- correctness gate ------------------------------------------------

    def oracle(self) -> pd.DataFrame:
        if self._oracle is None:
            want = gate.expected_tier_rows(self.inputs.expected, TIERS, self.wl.cfg)
            if self.inputs.cutoff is not None:
                want = want[~((want["tier"] == "1m") & (want["bucket_ts"] < self.inputs.cutoff))]
            self._oracle = want
        return self._oracle

    def check(self, out: str) -> str | None:
        """Problem with the committed output at ``out``, or None."""
        if self.wl.emit == "blobs":
            if self._agg is None:
                self._agg = gate.input_aggregate(
                    os.path.join(self.inputs.input_dir, "*.parquet"), TIERS)
            blobs = pds.dataset(out).to_table().to_pandas()
            return gate.check_blobs(blobs, self._agg, TIERS)
        return gate.compare_tier_rows(self.read_rows(out), self.oracle())

    def read_rows(self, out: str) -> pd.DataFrame:
        if self.wl.name == "ingest_updates":
            return read_tier_output(out).to_pandas()
        return pds.dataset(out, partitioning="hive").to_table().to_pandas()
