"""Resumable, checkpointed rollup run (the ``ray job submit`` entry).

Two phases, each manifest-committed (state/lineage.py):

1. **partials** — the single heavy pass over the token payload: one plain
   Ray task per input file validates, bucketizes and partially aggregates
   it (``rollup.scan_file``), splits the rows by ``bucket = hash(source) %
   B`` and sub-bucket, and writes them once as Parquet under
   ``bucket=b/sub=s`` (:func:`_partials_stager`, shared with update
   staging). No Ray Data executor starts. If the job dies later, this pass
   is never repeated.
2. **buckets** — one plain Ray task per bucket b
   (:func:`stages.tasks.map_tasks`): read only ``bucket=b`` partial rows
   (cheap, column-pruned), run the columnar fill kernel (``stages/fill.py``
   ``fill_tiers``: tier cascade, densify, gap fill) once per sub-partition
   over all of its sources, write tier rows to a staging dir beside
   ``tiers/``, one Arrow table per tier, audit (row count +
   order-independent checksum), atomically rename to ``tiers/bucket=b``,
   append the lineage record. A resumed run skips every
   bucket already in the manifest.

Incremental updates (:func:`run_incremental`) and update-log compaction
(:func:`compact_updates`) share one Arrow fold of base + update partials
(:func:`_fold_partial_inputs`) and one stale-bucket refresh
(:func:`_refresh_stale_buckets`), which runs the same kernel once over a
bucket's recomputed sources with the base run's tiers and retention. An
update is staged by the base pass's task, one per update file (or Dataset
block), that reads, validates, partially aggregates, buckets and writes it
— no Ray Data executor starts per update. The stage, finalize, refresh and
compaction fold all launch their tasks through
:func:`stages.tasks.map_tasks`, and each logs one ``checkpoint bucket
plan`` record. Every partial and tier file is written with
``rollup.parquet_write_options`` (``bucket_ts`` delta-packed). Every
bucket phase first sweeps the staging dirs dead attempts left at any
bucket.

Bucket granularity is the checkpoint unit: B ~ cluster nodes keeps re-done
work on failure to ~1/B of the finalize phase. Source-hash bucketing also
bounds the per-group shuffle fan-in (skew: a mega-source still lands in one
bucket, but its partials are minute-level aggregates — bounded by span, not
by corpus size; SURVEY.md §7 "ordering inside groups at scale").
"""

from __future__ import annotations

import glob
import logging
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds

import ray
import ray.data

from datafiller_ray.config import EngineValueError, FillConfig, RetentionConfig
from datafiller_ray.pipelines.rollup import (
    input_columns,
    parquet_files,
    parquet_write_options,
    read_input,
    scan_file,
)
from datafiller_ray.state import lineage
from datafiller_ray.stages.fill import (
    fill_tiers,
    reduce_segments,
    segment_starts,
    sorted_codes,
)
from datafiller_ray.stages.tasks import map_tasks
from datafiller_ray.stages.validate import PARTIAL_SCHEMA

_log = logging.getLogger(__name__)

_DELETE_COLUMNS = ["doc_id", "source"]


def _cfg_snapshot(cfg: FillConfig) -> dict:
    from dataclasses import asdict

    d = asdict(cfg)
    d["lags"] = list(d["lags"])
    return d


def _tombstones(t: pa.Table) -> pa.Table:
    """Partial rows (``op`` 2) that tombstone the (source, minute) keys of a
    deletes table's ``doc_id``/``source`` rows."""
    from datafiller_ray.functions.hashing import string_hash64
    from datafiller_ray.stages.validate import extract_epoch_minute

    minute = extract_epoch_minute(t["doc_id"])
    bucket_ts = pc.multiply(minute, pa.scalar(60, pa.int64()))
    src = np.asarray(t["source"].to_pandas(), dtype="U")
    skey = string_hash64(src).view(np.int64)
    zeros = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
    return pa.table(
        {
            "source": t["source"],
            "skey": pa.array(skey, pa.int64()),
            "bucket_ts": bucket_ts,
            "count": zeros,
            "sum": zeros,
            "min": zeros,
            "max": zeros,
            "op": pa.array(np.full(t.num_rows, 2, np.int8), pa.int8()),
        }
    )


def _work_items(x, cols, is_deletes: bool = False) -> list:
    """Stage work items of ``x``: ``(file path or Arrow block ref,
    is_deletes)``, one per file of a Parquet path (whose schema must hold
    the columns ``cols``) or per block of a ``ray.data.Dataset``. An
    in-memory input table (what :func:`rollup.read_input` takes) is one
    block; a deletes input must be a path or a Dataset."""
    if isinstance(x, (str, list)):
        return [(src, is_deletes) for src in parquet_files(x, cols)]
    if not isinstance(x, ray.data.Dataset):
        if is_deletes:
            raise EngineValueError(
                f"unsupported deletes input {type(x).__name__}: pass a Parquet "
                "path or a ray.data.Dataset"
            )
        x = read_input(x, with_tokens="tokens" in cols)
    return [(src, is_deletes) for src in x.to_arrow_refs()]


def _partials_stager(
    items: list,
    out_root: str,
    *,
    check_tokens: bool,
    n_buckets: int,
    n_subbuckets: int = 1,
    op: "int | None" = None,
):
    """The task function, for :func:`map_tasks`, that stages work item ``i``
    of ``items`` (:func:`_work_items`): read it, make its partial rows with
    the rollup scan's own function (``rollup.scan_file``; a block gets the
    same partial aggregation) or its tombstones, add the ``op`` column when
    ``op`` is given, split the rows by bucket (and sub-bucket when
    ``n_subbuckets > 1``) and write them as
    ``out_root/bucket=B[/sub=S]/part-<i>.parquet`` with the engine's writer
    options — the layout a hive ``write_parquet`` partitioned by bucket
    (and sub) writes, without the partition columns. The base pass and
    update staging both run it. Returns ``{"rows_in": input rows}``."""
    import pyarrow.parquet as pq

    from datafiller_ray.stages.validate import make_partial_agg_fn

    partial_agg = make_partial_agg_fn(check_tokens=check_tokens)

    def stage(i: int) -> dict:
        src, is_deletes = items[i]
        if isinstance(src, ray.ObjectRef):
            t = ray.get(src)
            rows_in = t.num_rows
            t = _tombstones(t) if is_deletes else partial_agg(t)
        elif is_deletes:
            t = pq.read_table(src, columns=_DELETE_COLUMNS, use_threads=False)
            rows_in = t.num_rows
            t = _tombstones(t)
        else:
            rows_in = pq.read_metadata(src).num_rows
            t = scan_file(src, check_tokens)
        if op is not None and not is_deletes:
            t = t.append_column(
                "op", pa.array(np.full(t.num_rows, op, np.int8), pa.int8())
            )
        if t.num_rows:
            # the persisted layout bucket=B/sub=S: B = skey % n_buckets,
            # S = (skey // n_buckets) % n_subbuckets
            skey = np.asarray(t["skey"]).view(np.uint64)
            ns = np.uint64(n_subbuckets)
            part = (skey % np.uint64(n_buckets)) * ns + (
                skey // np.uint64(n_buckets)
            ) % ns
            order = np.argsort(part, kind="stable")
            t, part = t.take(order), part[order]
            starts = segment_starts(part)
            for lo, hi in zip(starts, np.append(starts[1:], t.num_rows)):
                b, sb = divmod(int(part[lo]), n_subbuckets)
                d = os.path.join(out_root, f"bucket={b}")
                if n_subbuckets > 1:
                    d = os.path.join(d, f"sub={sb}")
                os.makedirs(d, exist_ok=True)
                pq.write_table(
                    t.slice(lo, hi - lo),
                    os.path.join(d, f"part-{i}.parquet"),
                    **parquet_write_options(t.schema),
                )
        return {"rows_in": rows_in}

    return stage


def _blob_payload_hashes(rows: pa.Table) -> pa.Array:
    """Per-chunk 64-bit blake2b digest of the blob columns, each framed by
    its 8-byte length so a corruption that shifts bytes across the boundary
    of adjacent columns (b'AB'+b'C' vs b'A'+b'BC') changes the digest."""
    import hashlib

    columns = [rows[c].to_pylist() for c in rows.column_names if c.endswith("_blob")]
    digests = np.fromiter(
        (
            int.from_bytes(
                hashlib.blake2b(
                    b"".join(
                        len(payload).to_bytes(8, "little") + payload
                        for payload in map(bytes, payloads)
                    ),
                    digest_size=8,
                ).digest(),
                "little",
            )
            for payloads in zip(*columns)
        ),
        dtype=np.uint64,
        count=rows.num_rows,
    )
    return pa.array(digests.view(np.int64), pa.int64())


#: pandas schema metadata per metadata-free Arrow schema
_PANDAS_METADATA: dict = {}


def _pandas_metadata(rows: pa.Table) -> dict:
    """The schema metadata ``pa.Table.from_pandas`` gives ``rows`` as a
    frame, so Arrow-built files carry the same pandas metadata as the
    pandas-built ones always did. It depends on the column types only, so
    it is derived from the first row and cached per schema."""
    schema = rows.schema.remove_metadata()
    if schema not in _PANDAS_METADATA:
        _PANDAS_METADATA[schema] = pa.Table.from_pandas(
            rows.slice(0, 1).to_pandas(), preserve_index=False
        ).schema.metadata
    return _PANDAS_METADATA[schema]


def _publish_rows(
    tier_rows: pa.Table, tmp_dir: str, emit: str, keep_rows=None, part: int = 0
):
    """Write a bucket's output rows (tier rows, or Gorilla blob rows when
    emit="blobs") under tmp_dir partitioned by tier, one Arrow table per
    tier; returns (written row count, checksum). Blob checksums cover the
    chunk identity columns plus a per-chunk digest of the payload bytes;
    row checksums cover the value columns.

    ``keep_rows`` (an Arrow table read from the published bucket, with its
    ``tier`` column) carries ALREADY-PUBLISHED rows (blob rows keep their
    payload bytes and hashes) to splice in unchanged, ahead of the new rows
    of their tier — the incremental path's untouched sources, which are
    never recomputed or recompressed."""
    import pyarrow.parquet as pq

    out_rows = tier_rows
    checksum_cols = ("source", "bucket_ts", "count", "sum")
    if emit == "blobs":
        from datafiller_ray.stages.compress import encode_tier_chunks

        blobs = encode_tier_chunks(tier_rows.to_pandas())
        out_rows = None
        if len(blobs):
            out_rows = pa.Table.from_pandas(blobs, preserve_index=False)
            # checksum must cover the payload bytes, not just chunk identity,
            # so value-level divergence in a resumed blob bucket is caught
            # the way the rows sink catches it
            out_rows = out_rows.append_column(
                "payload_hash", _blob_payload_hashes(out_rows)
            )
        checksum_cols = ("source", "start_ts", "end_ts", "n_points", "payload_hash")
    if keep_rows is not None and keep_rows.num_rows:
        if emit == "blobs" and "payload_hash" not in keep_rows.column_names:
            # blob buckets published before payload hashing existed splice
            # cleanly: the digest is a pure function of the payload bytes
            keep_rows = keep_rows.append_column(
                "payload_hash", _blob_payload_hashes(keep_rows)
            )
        out_rows = keep_rows if out_rows is None else pa.concat_tables(
            [keep_rows.select(out_rows.column_names), out_rows]
        )
    if out_rows is None or not out_rows.num_rows:
        return 0, lineage.rows_checksum({})
    tier_col = out_rows["tier"]
    for tier in sorted(pc.unique(tier_col).to_pylist()):
        sub = out_rows.filter(pc.equal(tier_col, tier)).drop_columns(["tier"])
        tdir = os.path.join(tmp_dir, f"tier={tier}")
        os.makedirs(tdir, exist_ok=True)
        pq.write_table(
            sub.replace_schema_metadata(_pandas_metadata(sub)),
            os.path.join(tdir, f"part-{part}.parquet"),
            **parquet_write_options(sub.schema),
        )
    checksum = lineage.rows_checksum({c: out_rows[c] for c in checksum_cols})
    return out_rows.num_rows, checksum


def _log_bucket_plan(phase: str, records: list, skipped=(), healed=()) -> dict:
    """Log one ``checkpoint bucket plan`` record for a phase in
    ``record.plan``: the ids launched, those skipped as already committed,
    those healed (left stale by an earlier update), the rows the tasks read
    and the longest task's wall time. The bucket phases (``finalize``,
    ``refresh`` and ``fold``) launch buckets and read partial rows;
    ``stage`` launches one task per update file or block and reads its
    input rows. Returns the plan."""
    plan = {
        "phase": phase,
        "launched": [r["id"] for r in records],
        "skipped": sorted(skipped),
        "healed": sorted(healed),
        "rows_in": sum(r["rows_in"] for r in records),
        "task_wall_max_s": max((r["wall_sec"] for r in records), default=0.0),
    }
    _log.info("checkpoint bucket plan: %s", plan, extra={"plan": plan})
    return plan


def _sweep_staging(out_dir: str, b="*") -> None:
    """Remove what dead attempts at bucket ``b`` (default: every bucket)
    left staged. Staging lies beside ``tiers/``, not in it: pyarrow skips
    only ``_``/``.`` names and DuckDB's hive reader skips none, so a stale
    dir inside ``tiers/`` is read as tier rows. Older runs staged at
    ``tiers/bucket=b.tmp-<pid>``; those are removed too. Each bucket phase
    sweeps every bucket when it starts, so a stale dir does not outlive a
    run that leaves its bucket alone."""
    for stale in glob.glob(
        os.path.join(out_dir, "_staging", f"bucket={b}.tmp-*")
    ) + glob.glob(os.path.join(out_dir, "tiers", f"bucket={b}.tmp-*")):
        shutil.rmtree(stale, ignore_errors=True)


def _staging_dir(out_dir: str, b: int) -> str:
    """An empty dir to stage bucket ``b``'s tier rows in before the rename
    to ``tiers/bucket=b``, after removing what earlier attempts at ``b``
    left behind: a retried task runs under a new pid, so a dead attempt's
    dir outlives it."""
    _sweep_staging(out_dir, b)
    tmp = os.path.join(out_dir, "_staging", f"bucket={b}.tmp-{os.getpid()}")
    os.makedirs(tmp)
    return tmp


def _drop_empty_staging(out_dir: str) -> None:
    try:
        os.rmdir(os.path.join(out_dir, "_staging"))
    except OSError:  # absent, or holding a failed attempt's dir
        pass


def run_checkpointed(
    input_path: str,
    out_dir: str,
    *,
    fill: FillConfig | None = None,
    tiers: tuple[str, ...] = ("1m", "1h", "1d"),
    retention: RetentionConfig | None = None,
    check_tokens: bool = True,
    n_buckets: int = 8,
    n_subbuckets: int = 16,
    emit: str = "rows",
    fail_after_buckets: int | None = None,  # test hook: simulate a crash
) -> dict:
    """Run (or resume) the full pipeline. Returns a summary dict.

    ``input_path`` is a Parquet path (a file, a directory or a list of
    files), a ``ray.data.Dataset`` or an in-memory table
    (:func:`rollup.read_input`); the base pass runs one plain Ray task per
    file (or block). An input without rows commits empty partials and
    empty buckets.

    ``emit="blobs"`` Gorilla-encodes each bucket's tier rows into one blob
    row per (source, tier) before publishing — the compressed sink with the
    same bucket-level commit/resume/incremental granularity as the rows
    sink (decode with ``stages.compress.decode_tier_chunk``)."""
    cfg = fill if fill is not None else FillConfig()
    os.makedirs(out_dir, exist_ok=True)
    partials_dir = os.path.join(out_dir, "partials")
    tiers_dir = os.path.join(out_dir, "tiers")
    os.makedirs(tiers_dir, exist_ok=True)

    done_partials = lineage.completed(out_dir, "partials")
    skipped = {"partials": bool(done_partials), "buckets": []}

    if not done_partials:
        tmp = partials_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        items = _work_items(input_path, input_columns(check_tokens))
        stage = _partials_stager(
            items, tmp, check_tokens=check_tokens, n_buckets=n_buckets,
            n_subbuckets=n_subbuckets,
        )
        map_tasks(stage, range(len(items)))
        # audit before publish; an input without rows stages no file
        audit_cols = ["source", "bucket_ts", "count", "sum"]
        if os.path.isdir(tmp):
            audit = pds.dataset(tmp, partitioning="hive").to_table(columns=audit_cols)
        else:
            audit = PARTIAL_SCHEMA.empty_table().select(audit_cols)
            os.makedirs(tmp)
        checksum = lineage.rows_checksum({c: audit[c] for c in audit_cols})
        shutil.rmtree(partials_dir, ignore_errors=True)
        os.replace(tmp, partials_dir)
        frags = sorted(
            os.path.join(dp, f)
            for dp, _, fs in os.walk(str(input_path))
            for f in fs
        ) if os.path.isdir(str(input_path)) else [str(input_path)]
        lineage.append_record(
            out_dir,
            lineage.LineageRecord(
                kind="partials",
                partition_id=-1,
                row_count=audit.num_rows,
                checksum=checksum,
                output_path=partials_dir,
                input_fragments=frags,
                extra={
                    "n_buckets": n_buckets,
                    "n_subbuckets": n_subbuckets,
                    "check_tokens": check_tokens,
                    "fill": _cfg_snapshot(cfg),
                    "tiers": list(tiers),
                    "emit": emit,
                    "retention": None if retention is None else {
                        t: list(b) for t, b in retention.windows.items()
                    },
                },
            ),
        )

    done_buckets = lineage.completed(out_dir, "bucket")
    todo = [b for b in range(n_buckets) if b not in done_buckets]
    skipped["buckets"] = sorted(b for b in range(n_buckets) if b in done_buckets)
    if fail_after_buckets is not None:
        # test hook: simulate preemption after completing a prefix
        todo, deferred = todo[:fail_after_buckets], todo[fail_after_buckets:]
    else:
        deferred = []

    def finalize_bucket(b: int) -> dict:
        """One task per bucket: per sub-partition, read its partials, run
        the fill kernel once over all of them, write-audit-publish.

        The atomic rename IS the bucket's commit from the task's point of
        view; the driver appends the lineage record afterwards. A bucket
        renamed but not yet recorded is simply redone on resume —
        idempotent, since the rename replaces the directory wholesale."""
        bucket_path = os.path.join(partials_dir, f"bucket={b}")
        out_bucket = os.path.join(tiers_dir, f"bucket={b}")
        tmp = _staging_dir(out_dir, b)
        total_rows, rows_in, sub_checksums = 0, 0, []
        has_partials = os.path.isdir(bucket_path)
        if has_partials:
            # stream sub-partitions sequentially: peak task memory is one
            # sub (1/n_subbuckets of the bucket), not the whole bucket; the
            # order-independent checksum is a mod-2^64 sum so per-sub
            # checksums merge exactly. Layouts without sub dirs (older
            # runs being resumed) fall back to one whole-bucket chunk.
            sub_dirs = sorted(
                glob.glob(os.path.join(bucket_path, "sub=*"))
            ) or [bucket_path]
            for si, sd in enumerate(sub_dirs):
                partial = pds.dataset(sd).to_table(use_threads=False)
                rows_in += partial.num_rows
                tier_rows = fill_tiers(partial, cfg, tiers, retention)
                n_rows, cs = _publish_rows(tier_rows, tmp, emit, part=si)
                total_rows += n_rows
                sub_checksums.append(cs)
        shutil.rmtree(out_bucket, ignore_errors=True)
        os.replace(tmp, out_bucket)
        return {
            "row_count": total_rows,
            "checksum": lineage.merge_checksums(sub_checksums),
            "output": out_bucket,
            "input": bucket_path if has_partials else "",
            "rows_in": rows_in,
        }

    _sweep_staging(out_dir)
    results = map_tasks(finalize_bucket, todo)
    _drop_empty_staging(out_dir)
    _log_bucket_plan("finalize", results, skipped=skipped["buckets"])
    for r in results:
        lineage.append_record(
            out_dir,
            lineage.LineageRecord(
                kind="bucket",
                partition_id=r["id"],
                row_count=r["row_count"],
                checksum=r["checksum"],
                output_path=r["output"],
                input_fragments=[r["input"]] if r["input"] else [],
                extra={"wall_sec": r["wall_sec"]},
            ),
        )
    if deferred:
        raise RuntimeError(
            f"injected failure before buckets {deferred} (test hook)"
        )
    return {
        "out_dir": out_dir,
        "skipped_partials": skipped["partials"],
        "skipped_buckets": skipped["buckets"],
        "completed_buckets": len(results),
        "manifest": [r.__dict__ for r in lineage.read_manifest(out_dir)],
    }


def _fold_partial_inputs(inputs) -> "tuple[pa.Table, pa.Array]":
    """Load per-bucket partial rows from ``[(dir, seq), ...]`` and apply the
    upsert/tombstone reset: for each (source, minute) key the LATEST op>=1
    row's seq wins — strictly earlier rows (base, prior adds, prior
    replaces) are dropped; tombstone rows carry no data themselves, leaving
    the minute a gap. Shared by the incremental refresh and the update-log
    compaction so both fold identically; Arrow in, Arrow out.

    Returns the surviving partial rows and the distinct sources of the
    update rows (``seq >= 1``) — the sources a refresh must recompute."""
    tables, ops, seqs = [], [], []
    for d, seq in inputs:
        # callers run one Ray task per bucket, each holding one CPU: Arrow's
        # scan threads would only contend with the other tasks' for it
        t = pds.dataset(d).to_table(use_threads=False)
        if "op" in t.column_names:
            ops.append(t["op"].to_numpy())
            t = t.drop_columns(["op"])
        else:  # base + pre-upsert updates
            ops.append(np.zeros(t.num_rows, np.int8))
        seqs.append(np.full(t.num_rows, seq, np.int64))
        tables.append(t)
    t = pa.concat_tables(tables)
    op, seq = np.concatenate(ops), np.concatenate(seqs)
    touched = pc.unique(t["source"].filter(pa.array(seq >= 1)))
    if (op != 0).any():
        code, _ = sorted_codes(t["source"])
        ts = t["bucket_ts"].to_numpy()
        order = np.lexsort((ts, code))
        starts = segment_starts(code[order], ts[order])
        reset = np.maximum.reduceat(
            np.where(op[order] >= 1, seq[order], -1), starts
        )
        reset_of = np.empty(t.num_rows, np.int64)
        reset_of[order] = np.repeat(reset, np.diff(np.append(starts, t.num_rows)))
        t = t.filter(pa.array((seq >= reset_of) & (op != 2)))
    return t, touched


def _resolve_partials(out_dir: str, records) -> "tuple[str, set]":
    """Current base-partials dir + the update ids already folded into it.

    ``partials-compact`` records move the base forward epoch by epoch; the
    manifest is the source of truth, so a compaction crash before its
    record append leaves an orphaned epoch dir that is simply ignored."""
    base = os.path.join(out_dir, "partials")
    folded: set = set()
    for r in records:
        if r.kind == "partials-compact":
            base = r.output_path
            folded.update(r.extra.get("folded", []))
    return base, folded


def _base_run(out_dir: str, records, fill: FillConfig | None = None):
    """The base run's ``partials`` record meta and its fill config; a
    given ``fill`` must equal the recorded one."""
    base = [r for r in records if r.kind == "partials"]
    if not base:
        raise ValueError(f"{out_dir} has no completed checkpointed run")
    meta = base[0].extra
    cfg = fill if fill is not None else FillConfig(
        **{**meta.get("fill", {}), "lags": tuple(meta.get("fill", {}).get("lags", (1, 2, 3, -1, -2, -3)))}
    )
    if _cfg_snapshot(cfg) != meta.get("fill", _cfg_snapshot(cfg)):
        raise ValueError(
            "incremental update must use the fill config of the base run "
            f"({meta.get('fill')})"
        )
    return meta, cfg


def _refresh_stale_buckets(
    out_dir: str, records, meta: dict, cfg: FillConfig, update_id: str | None = None
) -> dict:
    """Refresh every bucket that some committed, not yet compacted update
    touched without a ``bucket-update`` record for it; returns the logged
    bucket plan (:func:`_log_bucket_plan`). ``update_id`` names the update
    being applied: its buckets already recorded count as skipped, and a
    launched bucket is healed when another update left it stale.

    One task per bucket folds base + update partials, runs the fill kernel
    once over the recomputed sources with the base run's tiers and
    retention, splices the untouched sources' published rows and
    writes-audits-publishes. Shared by :func:`run_incremental` and
    :func:`compact_updates`."""
    tiers = tuple(meta.get("tiers", ("1m", "1h", "1d")))
    emit = meta.get("emit", "rows")
    windows = meta.get("retention")
    retention = None if windows is None else RetentionConfig(
        {t: tuple(b) for t, b in windows.items()}
    )
    _sweep_staging(out_dir)
    partials_dir, folded_ids = _resolve_partials(out_dir, records)
    updates_root = os.path.join(out_dir, "partials_updates")
    tiers_dir = os.path.join(out_dir, "tiers")

    # a bucket is stale while ANY committed update lacks its bucket-update
    # record — including prior updates that committed partials but crashed
    # before refreshing. One refresh heals every outstanding update at once
    # (the recompute always reads base + ALL update dirs), so each refreshed
    # bucket gets a record per outstanding update below.
    stale_updates: dict[int, set[str]] = {}
    bucket_done: dict[str, set[int]] = {}
    for r in records:
        if r.kind == "bucket-update":
            bucket_done.setdefault(r.extra.get("update_id"), set()).add(
                int(r.partition_id)
            )
    for r in records:
        if r.kind != "update-partials":
            continue
        uid = r.extra.get("update_id")
        if uid in folded_ids:  # already folded into the compacted base
            continue
        u_touched = {
            int(os.path.basename(p).split("=", 1)[1])
            for p in glob.glob(os.path.join(r.output_path, "bucket=*"))
        }
        for b in u_touched - bucket_done.get(uid, set()):
            stale_updates.setdefault(b, set()).add(uid)
    todo = sorted(stale_updates)

    all_update_dirs = sorted(
        p
        for p in glob.glob(os.path.join(updates_root, "*"))
        if not p.endswith(".tmp") and os.path.basename(p) not in folded_ids
    )
    # replace/tombstone resets apply to strictly-earlier rows, so updates
    # need a total order: manifest commit sequence, then (for staged-but-
    # uncommitted dirs a crashed run left behind) name order after it —
    # deterministic, and identical to what re-submitting them would yield.
    seq_of: dict = {}
    for r in records:
        if r.kind == "update-partials" and r.extra.get("update_id") not in seq_of:
            seq_of[r.extra.get("update_id")] = len(seq_of) + 1
    for uid in sorted(
        {os.path.basename(p) for p in all_update_dirs} - set(seq_of)
    ):
        seq_of[uid] = len(seq_of) + 1

    def refresh_bucket(b: int) -> dict:
        """One task per touched bucket: fold base + update partials, run the
        fill kernel once over the touched sources, splice the untouched
        sources' published rows, write-audit-publish."""
        inputs = [
            (d, seq)
            for d, seq in [(os.path.join(partials_dir, f"bucket={b}"), 0)]
            + [
                (os.path.join(u, f"bucket={b}"), seq_of[os.path.basename(u)])
                for u in all_update_dirs
            ]
            if os.path.isdir(d)
        ]
        # sources touched by ANY committed update are recomputed (and, for
        # the blob sink, recompressed); the rest splice through from the
        # published rows untouched. The union — not just THIS update's
        # sources — plus the stale_updates todo extension above makes the
        # result independent of crash history: a bucket left stale by a
        # prior crashed update is re-listed in todo and its sources
        # recomputed from base + all updates here.
        folded, touched_src = _fold_partial_inputs(inputs)
        out_bucket = os.path.join(tiers_dir, f"bucket={b}")
        # a missing published bucket (crash between the rmtree and the
        # rename below on a previous run) falls back to recomputing every
        # source from base + updates — never a partial publish
        keep = None
        if os.path.isdir(out_bucket):
            is_touched = pc.is_in(folded["source"], value_set=touched_src)
            if not pc.all(is_touched).as_py():
                # every published source has partial rows here (a fold
                # drops rows only of touched sources), so the published
                # bucket is read only when some are untouched
                keep = pds.dataset(out_bucket, partitioning="hive").to_table(
                    filter=~pc.field("source").isin(touched_src),
                    use_threads=False,
                )
                folded = folded.filter(is_touched)
        elif not folded.num_rows:
            raise ValueError(
                f"bucket {b}: no partial rows survive the update and no "
                "published rows exist to splice — nothing to publish"
            )
        tier_rows = fill_tiers(folded, cfg, tiers, retention)
        tmp_b = _staging_dir(out_dir, b)
        n_rows, checksum = _publish_rows(tier_rows, tmp_b, emit, keep_rows=keep)
        shutil.rmtree(out_bucket, ignore_errors=True)
        os.replace(tmp_b, out_bucket)
        return {
            "row_count": n_rows,
            "checksum": checksum,
            "output": out_bucket,
            "sources_recomputed": pc.count_distinct(folded["source"]).as_py(),
            "sources_spliced": (
                0 if keep is None else pc.count_distinct(keep["source"]).as_py()
            ),
            "rows_in": folded.num_rows,
        }

    results = map_tasks(refresh_bucket, todo)
    _drop_empty_staging(out_dir)
    plan = _log_bucket_plan(
        "refresh",
        results,
        skipped=bucket_done.get(update_id, ()),
        healed=[b for b in todo if stale_updates[b] - {update_id}],
    )
    for r in results:
        # one record per outstanding (update, bucket) pair: the refresh
        # settled them all, and recording each keeps healed buckets out of
        # every future run's todo
        for uid in sorted(stale_updates[r["id"]]):
            lineage.append_record(
                out_dir,
                lineage.LineageRecord(
                    kind="bucket-update",
                    partition_id=r["id"],
                    row_count=r["row_count"],
                    checksum=r["checksum"],
                    output_path=r["output"],
                    extra={
                        "update_id": uid,
                        "wall_sec": r["wall_sec"],
                        "sources_recomputed": r["sources_recomputed"],
                        "sources_spliced": r["sources_spliced"],
                        "rows_in": r["rows_in"],
                    },
                ),
            )
    return plan


def run_incremental(
    out_dir: str,
    new_input: "str | None",
    *,
    fill: FillConfig | None = None,
    mode: str = "add",
    deletes=None,
) -> dict:
    """Continuous-aggregate update: fold NEW input into a completed
    checkpointed output, recomputing only the buckets the new data touches.

    Three update shapes, all manifest-committed and idempotent by the
    order-independent checksum of the staged rows (a re-submitted identical
    update is a no-op; a crash between staging and finalize is repaired by
    re-running — the stage is committed before any tier is touched):

    - ``mode="add"`` (default): append-style ingest. Staged partials are
      ADDITIVE (count/sum/min/max combine), so recompute order between
      updates is irrelevant.
    - ``mode="replace"``: upsert. For every (source, minute) key present in
      ``new_input``, the staged partials REPLACE all earlier partials for
      that key (base and prior updates alike). Replace granularity is the
      partial key — the update input must carry the FULL new content of
      every minute it touches. Later additive updates still add on top.
    - ``deletes=<path | Dataset>`` (composable with either mode, or alone
      with ``new_input=None``): a table with ``doc_id``/``source`` columns
      whose (source, minute) keys are TOMBSTONED — all earlier partials for
      those keys are suppressed; the minutes become gaps.

    Replace/tombstone updates are ORDERED by manifest commit sequence (the
    reset applies to strictly earlier rows); additive updates commute, so
    existing add-only outputs are unaffected — their update ids and
    recompute results are bit-identical to the pre-upsert engine.

    ``new_input`` and ``deletes`` are each a Parquet path (a file, a
    directory or a list of files) or a ``ray.data.Dataset``.

    Incremental cost is O(new data) for the heavy pass plus O(touched
    buckets) for finalize — untouched buckets are never read. Staging is
    one plain Ray task per update file (a Dataset: per block) and per
    deletes file, with no Ray Data executor: it reads the file, validates
    and partially aggregates it with the rollup scan's own function
    (``rollup.scan_file``) or makes its tombstones, splits the rows by
    bucket and writes them under ``partials_updates/staging.tmp`` — the
    base pass's task (:func:`_partials_stager`). A task holds one whole
    file or block in memory, as it does in the base pass;
    split a large update into several files to bound it. Within a touched
    bucket, one task folds the partials in Arrow, runs the fill kernel once
    over the recomputed sources and reads the published rows only to
    splice untouched sources (not at all when every source is touched). The kernel runs with the
    base run's tiers and ``retention`` (both in the ``partials`` record).
    Each ``bucket-update`` record's ``extra`` carries
    ``sources_recomputed``, ``sources_spliced`` and ``rows_in`` (partial
    rows fed to the kernel). Staging logs a ``stage`` phase ``checkpoint
    bucket plan`` record: one launched id per task, and the input rows
    read as ``rows_in``. A failed stage leaves no staged rows behind. An
    update that stages no row (a zero-row file or an empty Dataset) is a
    no-op: the manifest is unchanged and ``update_id`` is None.
    """
    if mode not in ("add", "replace"):
        raise ValueError(f"mode must be 'add' or 'replace', got {mode!r}")
    if new_input is None and deletes is None:
        raise ValueError("need new_input, deletes, or both")

    records = lineage.read_manifest(out_dir)
    meta, cfg = _base_run(out_dir, records, fill)
    n_buckets = int(meta["n_buckets"])
    check_tokens = bool(meta.get("check_tokens", True))
    updates_root = os.path.join(out_dir, "partials_updates")
    os.makedirs(updates_root, exist_ok=True)

    # stage the new partials (the only pass over the new token payload)
    tmp = os.path.join(updates_root, "staging.tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    items = []
    for x, cols, is_deletes in (
        (new_input, input_columns(check_tokens), False),
        (deletes, _DELETE_COLUMNS, True),
    ):
        if x is not None:
            items += _work_items(x, cols, is_deletes)
    stage = _partials_stager(
        items, tmp, check_tokens=check_tokens, n_buckets=n_buckets,
        op=0 if mode == "add" else 1,
    )

    try:
        _log_bucket_plan("stage", map_tasks(stage, range(len(items))))
        if not os.path.isdir(tmp):  # nothing staged: an empty update
            return {
                "update_id": None,
                "touched_buckets": [],
                "refreshed_buckets": 0,
                "skipped_buckets": [],
            }
        audit = pds.dataset(tmp, partitioning="hive").to_table(
            columns=["source", "bucket_ts", "count", "sum", "op"]
        )
        if pc.max(audit["op"]).as_py() == 0:
            # pure-add updates hash exactly as the pre-upsert engine did, so
            # previously committed update ids stay recognized (idempotency)
            audit = audit.drop_columns(["op"])
        update_id = lineage.rows_checksum({c: audit[c] for c in audit.column_names})
        update_dir = os.path.join(updates_root, update_id)
        committed_updates = {
            r.extra.get("update_id") for r in records if r.kind == "update-partials"
        }
        if update_id not in committed_updates:
            shutil.rmtree(update_dir, ignore_errors=True)
            os.replace(tmp, update_dir)
            lineage.append_record(
                out_dir,
                lineage.LineageRecord(
                    kind="update-partials",
                    partition_id=-1,
                    row_count=audit.num_rows,
                    checksum=update_id,
                    output_path=update_dir,
                    input_fragments=[
                        str(x)
                        for x in (new_input, deletes)
                        if x is not None and isinstance(x, str)
                    ],
                    extra={"update_id": update_id, "mode": mode},
                ),
            )
            records = lineage.read_manifest(out_dir)
    finally:
        # a re-submitted update's stage, or what a failed stage left
        shutil.rmtree(tmp, ignore_errors=True)

    touched = sorted(
        int(os.path.basename(p).split("=", 1)[1])
        for p in glob.glob(os.path.join(update_dir, "bucket=*"))
    )
    plan = _refresh_stale_buckets(out_dir, records, meta, cfg, update_id)
    return {
        "update_id": update_id,
        "touched_buckets": touched,
        "refreshed_buckets": len(plan["launched"]),
        "skipped_buckets": plan["skipped"],
    }


def compact_updates(out_dir: str) -> dict:
    """Fold every COMMITTED update (add / replace / tombstone) into a new
    base-partials epoch, so the update log stays bounded no matter how many
    increments a long-lived output accumulates (each refresh reads base +
    all live updates; compaction resets that to one dir).

    Protocol (manifest = source of truth, crash-safe at every step):

    1. fold each bucket's base + committed-update partials with the exact
       refresh semantics (:func:`_fold_partial_inputs`, in Arrow) and
       combine to one row per (source, minute) with the fill kernel's
       segmented reduce, sorted by (source, skey, minute) — written to
       ``partials_epoch_N.tmp``;
    2. atomic ``os.replace`` to ``partials_epoch_N``;
    3. append a ``partials-compact`` lineage record naming the folded
       update ids (the commit point — a crash before this leaves an
       orphaned epoch dir that every reader ignores);
    4. GC the folded update dirs (safe any time after step 3; a crash
       between 3 and 4 just leaves dirs that are no longer read).

    Compaction changes the partials REPRESENTATION only, pinned by the
    equality tests. A committed update whose bucket refresh never ran (a
    crash after its ``update-partials`` record) is refreshed first, with
    :func:`run_incremental`'s refresh: once folded, no later update would
    list its buckets as stale. Other published tiers are untouched.
    Uncommitted staged dirs (a crashed ``run_incremental``) are left alone.
    Re-submitting a folded update remains a no-op (its id stays in the
    manifest)."""
    import pyarrow.parquet as pq

    records = lineage.read_manifest(out_dir)
    meta, cfg = _base_run(out_dir, records)
    refreshed = len(_refresh_stale_buckets(out_dir, records, meta, cfg)["launched"])
    if refreshed:
        records = lineage.read_manifest(out_dir)
    base_dir, folded = _resolve_partials(out_dir, records)
    updates_root = os.path.join(out_dir, "partials_updates")

    live: list[str] = []  # committed, not yet folded, in commit order
    seen = set()
    for r in records:
        if r.kind != "update-partials":
            continue
        uid = r.extra.get("update_id")
        if uid in folded or uid in seen:
            continue
        seen.add(uid)
        if os.path.isdir(os.path.join(updates_root, uid)):
            live.append(uid)
    if not live:
        return {"folded_updates": 0, "epoch_dir": base_dir,
                "refreshed_buckets": refreshed}

    n_epochs = sum(1 for r in records if r.kind == "partials-compact")
    epoch_dir = os.path.join(out_dir, f"partials_epoch_{n_epochs + 1}")
    tmp_root = epoch_dir + ".tmp"
    shutil.rmtree(tmp_root, ignore_errors=True)
    os.makedirs(tmp_root, exist_ok=True)

    buckets = sorted(
        {
            int(os.path.basename(p).split("=", 1)[1])
            for root in [base_dir] + [os.path.join(updates_root, u) for u in live]
            for p in glob.glob(os.path.join(root, "bucket=*"))
        }
    )

    def fold_bucket(b: int) -> dict:
        inputs = [
            (d, seq)
            for d, seq in [(os.path.join(base_dir, f"bucket={b}"), 0)]
            + [
                (os.path.join(updates_root, u, f"bucket={b}"), i + 1)
                for i, u in enumerate(live)
            ]
            if os.path.isdir(d)
        ]
        t, _ = _fold_partial_inputs(inputs)
        code, uniques = sorted_codes(t["source"])
        skey, ts = t["skey"].to_numpy(), t["bucket_ts"].to_numpy()
        order = np.lexsort((ts, skey, code))
        starts = segment_starts(code[order], skey[order], ts[order])
        count, sums, mins, maxs = reduce_segments(
            starts, *(t[c].to_numpy()[order] for c in ("count", "sum", "min", "max"))
        )
        kept = count > 0
        first = order[starts][kept]
        agg = pa.table(
            {
                "source": pa.array(uniques, pa.string()).take(
                    pa.array(code[first], pa.int64())
                ),
                "skey": skey[first],
                "bucket_ts": ts[first],
                "count": count[kept],
                "sum": sums[kept],
                "min": mins[kept],
                "max": maxs[kept],
            },
            schema=PARTIAL_SCHEMA,
        )
        bdir = os.path.join(tmp_root, f"bucket={b}")
        os.makedirs(bdir, exist_ok=True)
        pq.write_table(
            agg, os.path.join(bdir, "part-0.parquet"), **parquet_write_options(agg.schema)
        )
        return {"row_count": agg.num_rows, "rows_in": t.num_rows}

    results = map_tasks(fold_bucket, buckets)
    _log_bucket_plan("fold", results)
    os.replace(tmp_root, epoch_dir)
    lineage.append_record(
        out_dir,
        lineage.LineageRecord(
            kind="partials-compact",
            partition_id=-1,
            row_count=sum(r["row_count"] for r in results),
            checksum="",
            output_path=epoch_dir,
            extra={"epoch": n_epochs + 1, "folded": sorted(folded | set(live))},
        ),
    )
    for u in live:  # GC after the commit point
        shutil.rmtree(os.path.join(updates_root, u), ignore_errors=True)
    return {
        "folded_updates": len(live),
        "epoch_dir": epoch_dir,
        "buckets": len(buckets),
        "refreshed_buckets": refreshed,
    }


def read_tier_output(out_dir: str):
    """All committed tier rows as one pyarrow Table (test/inspection helper)."""
    return pds.dataset(
        os.path.join(out_dir, "tiers"), partitioning="hive"
    ).to_table()
