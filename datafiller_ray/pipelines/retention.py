"""Retention enforcement over committed tier outputs.

Retention at produce time is a filter (``RetentionConfig`` in the rollup
pipelines). This module is the maintenance side: prune already-committed
hive-partitioned tier outputs down to their retention windows, the way a
tiered TSDB expires old chunks.

Efficiency contract: files whose parquet footer says every row is inside
the window are untouched (no read, no rewrite); files entirely outside are
deleted; only straddling files are rewritten (atomic tmp + rename). The
footer min/max of ``bucket_ts`` makes this an O(files) metadata scan, not a
data scan — at 100 TB the pruning cost is proportional to the expired
fraction only.
"""

from __future__ import annotations

import os

import pyarrow.parquet as pq

from datafiller_ray.config import RetentionConfig
from datafiller_ray.pipelines.rollup import parquet_write_options


def _file_bounds(path: str) -> tuple[int, int] | None:
    md = pq.ParquetFile(path).metadata
    lo, hi = None, None
    schema_idx = None
    for rg in range(md.num_row_groups):
        group = md.row_group(rg)
        if schema_idx is None:
            for ci in range(group.num_columns):
                if group.column(ci).path_in_schema == "bucket_ts":
                    schema_idx = ci
                    break
            if schema_idx is None:
                return None
        stats = group.column(schema_idx).statistics
        if stats is None or not stats.has_min_max:
            return None
        lo = stats.min if lo is None else min(lo, stats.min)
        hi = stats.max if hi is None else max(hi, stats.max)
    if lo is None:
        return None
    return int(lo), int(hi)


def enforce_retention(tiers_dir: str, retention: RetentionConfig) -> dict:
    """Prune tier outputs in place. Returns per-action file counts."""
    stats = {"kept": 0, "deleted": 0, "rewritten": 0, "rows_dropped": 0}
    for root, _dirs, files in os.walk(tiers_dir):
        tier = None
        for part in root.split(os.sep):
            if part.startswith("tier="):
                tier = part.split("=", 1)[1]
        if tier is None:
            continue
        lo, hi = retention.bounds(tier)
        if lo is None and hi is None:
            stats["kept"] += sum(f.endswith(".parquet") for f in files)
            continue
        for f in files:
            if not f.endswith(".parquet"):
                continue
            path = os.path.join(root, f)
            bounds = _file_bounds(path)
            if bounds is None:
                bounds = None  # no stats: fall through to rewrite
            if bounds is not None:
                f_lo, f_hi = bounds
                inside = (lo is None or f_lo >= lo) and (hi is None or f_hi < hi)
                outside = (lo is not None and f_hi < lo) or (
                    hi is not None and f_lo >= hi
                )
                if inside:
                    stats["kept"] += 1
                    continue
                if outside:
                    os.unlink(path)
                    stats["deleted"] += 1
                    continue
            table = pq.read_table(path)
            import pyarrow.compute as pc

            keep = None
            col = table["bucket_ts"]
            if lo is not None:
                keep = pc.greater_equal(col, lo)
            if hi is not None:
                upper = pc.less(col, hi)
                keep = upper if keep is None else pc.and_(keep, upper)
            kept_table = table.filter(keep)
            stats["rows_dropped"] += table.num_rows - kept_table.num_rows
            tmp = path + ".tmp"
            if kept_table.num_rows:
                pq.write_table(
                    kept_table, tmp, **parquet_write_options(kept_table.schema)
                )
                os.replace(tmp, path)
                stats["rewritten"] += 1
            else:
                os.unlink(path)
                stats["deleted"] += 1
    return stats


def compact_small_files(
    tiers_dir: str,
    *,
    target_bytes: int = 128 << 20,
    min_merge: int = 2,
) -> dict:
    """Compact the small-file tail of committed tier outputs: within each
    hive partition directory, greedily merge runs of parquet files (in
    sorted filename order — the commit order) whose COMBINED size stays
    under ``target_bytes``, rewriting each run as one file via atomic
    tmp + rename and deleting the inputs only after the replacement is
    durable.

    Why it exists: per-bucket atomic commits (pipelines/checkpoint.py) and
    incremental updates deliberately write MANY small files — correct for
    resume, hostile to scan throughput at 100 TB (footer-per-file overhead
    and tiny row groups). Compaction is the standard maintenance pass that
    restores read efficiency without touching the commit protocol. A run
    is read, concatenated in filename order (no re-sort) and written again
    through ``pq.write_table`` with the engine's writer options
    (``rollup.parquet_write_options``): the pages are re-encoded, but the
    values and the row order are kept, so downstream readers see the
    identical rows — pinned by the round-trip test.

    Files at or above ``target_bytes`` (or alone in their run) are left
    untouched; a crash mid-compaction leaves either the old files or the
    new file plus leftover ``.compact-tmp`` garbage, never a partial state
    (the same write-audit-publish discipline as the checkpoint sink).

    Returns {"merged_files": n_inputs_removed, "created": n_outputs,
    "kept": untouched_count, "bytes_before": ..., "bytes_after": ...}.
    """
    import pyarrow as pa

    stats = {
        "merged_files": 0,
        "created": 0,
        "kept": 0,
        "bytes_before": 0,
        "bytes_after": 0,
    }
    for root, _dirs, files in os.walk(tiers_dir):
        parts = sorted(f for f in files if f.endswith(".parquet"))
        if not parts:
            continue
        sizes = {f: os.path.getsize(os.path.join(root, f)) for f in parts}
        stats["bytes_before"] += sum(sizes.values())
        runs: "list[list[str]]" = []
        cur: "list[str]" = []
        cur_bytes = 0
        for f in parts:
            if sizes[f] >= target_bytes:
                if cur:
                    runs.append(cur)
                runs.append([f])
                cur, cur_bytes = [], 0
                continue
            if cur and cur_bytes + sizes[f] > target_bytes:
                runs.append(cur)
                cur, cur_bytes = [], 0
            cur.append(f)
            cur_bytes += sizes[f]
        if cur:
            runs.append(cur)
        for run in runs:
            if len(run) < max(min_merge, 2):
                stats["kept"] += len(run)
                continue
            tables = [pq.read_table(os.path.join(root, f)) for f in run]
            merged = pa.concat_tables(tables, promote_options="default")
            tmp = os.path.join(root, f"{run[0]}.compact-tmp")
            pq.write_table(merged, tmp, **parquet_write_options(merged.schema))
            os.replace(tmp, os.path.join(root, run[0]))
            for f in run[1:]:
                os.unlink(os.path.join(root, f))
            stats["merged_files"] += len(run)
            stats["created"] += 1
    for root, _dirs, files in os.walk(tiers_dir):
        stats["bytes_after"] += sum(
            os.path.getsize(os.path.join(root, f))
            for f in files
            if f.endswith(".parquet")
        )
    return stats


# ---------------------------------------------------------------------------
# Z-order layout planning over the contract table


def _interleave16(s16, t16):
    """32-bit Morton interleave of two 16-bit dims (source bits land on the
    odd positions, time bits on the even): the multi-dimensional clustering
    key behind zone-map-prunable file layouts."""
    import numpy as np

    zv = np.zeros(s16.shape, dtype=np.int64)
    for i in range(16):
        zv |= ((s16 >> i) & 1) << (2 * i + 1)
        zv |= ((t16 >> i) & 1) << (2 * i)
    return zv


def zorder_layout(
    input_path,
    *,
    n_files: int = 64,
    coarse_width: int = 65_536,
    n_buckets: int = 64,
):
    """Z-order (Morton-curve) layout plan for the contract table — the
    lakehouse OPTIMIZE ZORDER BY (source, time) shape: interleave a
    16-bit source-hash dim with a 16-bit quantized event-minute dim,
    split the curve into ``n_files`` equal row ranges (exact NTILE), and
    report each output file's zone map (min/max of both dims + spans).
    Tight per-file spans on BOTH dims are what make min/max footer
    pruning work for queries filtering on either column — the diagnostic
    you run before committing a 100-TB rewrite.

    Physical plan — three bounded passes, nothing corpus-sized on the
    driver: (1) global event-minute min/max (per-batch scalar partials);
    (2) per-coarse-cell counts of the z-value (``zv // coarse_width``,
    <= 65536 cells) through one grouped_sum exchange, cumsummed on the
    driver into every cell's global start rank (the ppl_tercile
    distributed-exact-NTILE machinery, global instead of per-source);
    (3) a cell-keyed co-partition ranks each cell's rows by (zv,
    doc_id), applies the SQL NTILE fill rule, and collapses to per-file
    min/max partials merged by one grouped_agg exchange. The doc_id
    tie-break makes the plan bit-deterministic under any block layout;
    the DuckDB oracle is the literal ``NTILE(k) OVER (ORDER BY zv,
    doc_id)`` with the identical in-SQL FNV/splitmix source hash.

    Output: (file_id, n_rows, s16_min, s16_max, t16_min, t16_max,
    s_span, t_span)."""
    import numpy as np
    import pandas as pd
    import ray
    import ray.data

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.functions.hashing import string_hash64
    from datafiller_ray.stages.exchange import (
        coarse_map_groups,
        grouped_agg,
        grouped_sum,
    )
    from datafiller_ray.stages.validate import extract_epoch_minute

    if n_files < 1:
        raise EngineValueError(f"n_files must be >= 1, got {n_files}")
    if coarse_width < 1:
        raise EngineValueError(
            f"coarse_width must be >= 1, got {coarse_width}"
        )

    ds = (
        input_path
        if isinstance(input_path, ray.data.Dataset)
        else ray.data.read_parquet(input_path, columns=["doc_id", "source"])
    )

    def ts_partial(t) -> pd.DataFrame:
        ts = np.asarray(extract_epoch_minute(t["doc_id"]), dtype=np.int64)
        if ts.size == 0:
            return pd.DataFrame(
                {"lo": pd.Series([], dtype=np.int64),
                 "hi": pd.Series([], dtype=np.int64)}
            )
        return pd.DataFrame({"lo": [int(ts.min())], "hi": [int(ts.max())]})

    bounds = ds.map_batches(ts_partial, batch_format="pyarrow").to_pandas()
    if bounds.empty:
        return ray.data.from_arrow(_empty_zorder_table())
    tmin = int(bounds["lo"].min())
    tmax = int(bounds["hi"].max())
    span = max(tmax - tmin, 1)

    def dims(t) -> pd.DataFrame:
        ts = np.asarray(extract_epoch_minute(t["doc_id"]), dtype=np.int64)
        src = np.asarray(t["source"], dtype=object)
        s16 = (string_hash64(src.astype("U")) & np.uint64(0xFFFF)).astype(
            np.int64
        )
        t16 = ((ts - tmin) * 65_535) // span
        zv = _interleave16(s16, t16)
        return pd.DataFrame(
            {
                "doc_id": np.asarray(t["doc_id"], dtype=object),
                "s16": s16,
                "t16": t16,
                "zv": zv,
            }
        )

    tagged = ds.map_batches(dims, batch_format="pyarrow").materialize()

    def cell_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "cell": df["zv"].to_numpy(np.int64) // coarse_width,
                "cnt": np.ones(len(df), dtype=np.int64),
            }
        )
        return out.groupby("cell", sort=False, as_index=False)["cnt"].sum()

    cells = (
        grouped_sum(
            tagged.map_batches(cell_partial, batch_format="pandas"),
            "cell",
            "cnt",
            n_buckets=n_buckets,
        )
        .to_pandas()  # <= 2^32 / coarse_width cells, never rows
        .sort_values("cell", kind="stable")
    )
    cnt = cells["cnt"].to_numpy(np.int64)
    starts = dict(
        zip(
            cells["cell"].to_numpy(np.int64),
            (np.cumsum(cnt) - cnt).astype(np.int64),
        )
    )
    n_total = int(cnt.sum())
    rank_ref = ray.put((starts, n_total))

    def tag_cell(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(_cell=df["zv"].to_numpy(np.int64) // coarse_width)

    def rank_files(g: pd.DataFrame) -> pd.DataFrame:
        st, n = ray.get(rank_ref)
        g = g.sort_values(["_cell", "zv", "doc_id"], kind="mergesort")
        local = g.groupby("_cell", sort=False).cumcount().to_numpy(np.int64)
        rank0 = (
            g["_cell"].map(st).to_numpy(np.int64) + local
        )
        k = n_files
        q, r = n // k, n % k
        big = rank0 < r * (q + 1)
        file_id = np.where(
            big,
            rank0 // max(q + 1, 1) + 1,
            (rank0 - r * (q + 1)) // max(q, 1) + r + 1,
        ).astype(np.int64)
        out = pd.DataFrame(
            {
                "file_id": file_id,
                "n_rows": np.ones(len(g), dtype=np.int64),
                "s16_min": g["s16"].to_numpy(np.int64),
                "s16_max": g["s16"].to_numpy(np.int64),
                "t16_min": g["t16"].to_numpy(np.int64),
                "t16_max": g["t16"].to_numpy(np.int64),
            }
        )
        return out

    stats = grouped_agg(
        coarse_map_groups(
            tagged.map_batches(tag_cell, batch_format="pandas"),
            "_cell",
            rank_files,
            n_buckets=n_buckets,
        ),
        "file_id",
        {
            "n_rows": "sum",
            "s16_min": "min",
            "s16_max": "max",
            "t16_min": "min",
            "t16_max": "max",
        },
        n_buckets=n_buckets,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["s_span"] = df["s16_max"] - df["s16_min"]
        df["t_span"] = df["t16_max"] - df["t16_min"]
        return df[
            [
                "file_id",
                "n_rows",
                "s16_min",
                "s16_max",
                "t16_min",
                "t16_max",
                "s_span",
                "t_span",
            ]
        ]

    return stats.map_batches(finish, batch_format="pandas")


def _empty_zorder_table():
    import pyarrow as pa

    return pa.table(
        {
            c: pa.array([], pa.int64())
            for c in (
                "file_id",
                "n_rows",
                "s16_min",
                "s16_max",
                "t16_min",
                "t16_max",
                "s_span",
                "t_span",
            )
        }
    )
