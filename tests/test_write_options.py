"""Every tier and partial file the engine writes stores ``bucket_ts``
delta-packed (``rollup.parquet_write_options``): per writer, each file's
``bucket_ts`` chunk is ``DELTA_BINARY_PACKED`` with min/max statistics, and
pyarrow, DuckDB and polars read back the rows that were written."""

import ast
import glob
import inspect
import os
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import pytest
import ray.data

from datafiller_ray.config import FillConfig, RetentionConfig
from datafiller_ray.fixtures import generate_input_table
from datafiller_ray.pipelines.checkpoint import (
    compact_updates,
    read_tier_output,
    run_checkpointed,
    run_incremental,
)
from datafiller_ray.pipelines.retention import compact_small_files, enforce_retention
from datafiller_ray.pipelines.rollup import (
    parquet_write_options,
    rollup_tiers,
    write_tiers,
)
from datafiller_ray.stages.compress import decode_tier_chunk
from datafiller_ray.stages.validate import PARTIAL_SCHEMA, extract_epoch_minute
from datafiller_ray.state import lineage

CFG = FillConfig(strategy="linear", max_gap=5)
_COLS = ["source", "tier", "bucket_ts", "count", "sum", "min", "max", "value", "filled"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """12 sources split by time: base = each source's first 80 % of rows by
    minute in two files, append = the rest."""
    d = tmp_path_factory.mktemp("write_options")
    full = generate_input_table(3000, 12, seed=11, with_tokens=False)
    minute = pd.Series(np.asarray(extract_epoch_minute(full["doc_id"])))
    by_src = minute.groupby(full["source"].to_numpy(zero_copy_only=False))
    early = (by_src.rank(method="first") <= 0.8 * by_src.transform("size")).to_numpy()
    base = full.filter(pa.array(early))
    os.makedirs(d / "base")
    half = base.num_rows // 2
    pq.write_table(base.slice(0, half), d / "base" / "part-0.parquet")
    pq.write_table(base.slice(half), d / "base" / "part-1.parquet")
    pq.write_table(full.filter(pa.array(~early)), d / "late.parquet")
    pq.write_table(full, d / "full.parquet")
    return {k: str(d / f) for k, f in
            [("base", "base"), ("late", "late.parquet"), ("full", "full.parquet")]}


def _files(root: str) -> list:
    return sorted(glob.glob(os.path.join(root, "**", "*.parquet"), recursive=True))


def _assert_delta_packed(files) -> None:
    """Each file's ``bucket_ts`` chunks are delta-packed, not dictionary
    pages, and carry min/max statistics; the other columns keep theirs."""
    assert files
    for f in files:
        md = pq.ParquetFile(f).metadata
        assert md.num_rows > 0, f
        names = [md.schema.column(i).path for i in range(md.num_columns)]
        assert "bucket_ts" in names, f
        for rg in range(md.num_row_groups):
            for ci, name in enumerate(names):
                col = md.row_group(rg).column(ci)
                if name == "bucket_ts":
                    assert "DELTA_BINARY_PACKED" in col.encodings, (f, col.encodings)
                    assert "RLE_DICTIONARY" not in col.encodings, (f, col.encodings)
                    assert col.statistics is not None and col.statistics.has_min_max, f
                elif name in ("source", "fill_method"):
                    assert "RLE_DICTIONARY" in col.encodings, (f, name, col.encodings)
                assert col.compression == "SNAPPY", (f, name)


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[_COLS].assign(tier=df["tier"].astype(str))
    return df.sort_values(["tier", "source", "bucket_ts"]).reset_index(drop=True)


def _assert_readers_agree(root: str, want: pd.DataFrame) -> None:
    """pyarrow, DuckDB (``hive_partitioning=1``) and polars read ``want``'s
    rows from the hive-partitioned tier files under ``root``."""
    import duckdb
    import polars as pl

    want = _norm(want)
    got = pds.dataset(root, partitioning="hive").to_table().to_pandas()
    pd.testing.assert_frame_equal(_norm(got), want)
    con = duckdb.connect()
    try:
        got = con.sql(
            f"select * from read_parquet('{root}/**/*.parquet', hive_partitioning=1)"
        ).df()
    finally:
        con.close()
    pd.testing.assert_frame_equal(_norm(got), want, check_dtype=False)
    got = pl.scan_parquet(
        f"{root}/**/*.parquet", hive_partitioning=True
    ).collect().to_pandas()
    pd.testing.assert_frame_equal(_norm(got), want, check_dtype=False)


def test_parquet_write_options_per_schema():
    opts = parquet_write_options(PARTIAL_SCHEMA)
    assert opts == {
        "use_dictionary": ["source", "skey", "count", "sum", "min", "max"],
        "column_encoding": {"bucket_ts": "DELTA_BINARY_PACKED"},
    }
    blobs = pa.schema([("source", pa.string()), ("start_ts", pa.int64()),
                       ("ts_blob", pa.binary())])
    assert parquet_write_options(blobs) == {}
    assert parquet_write_options(pa.schema([("bucket_ts", pa.int32())])) == {}


def test_write_tiers_delta_packs(ray_session, inputs, tmp_path):
    ds = rollup_tiers(inputs["full"], fill=CFG, check_tokens=False)
    out = str(tmp_path / "out")
    write_tiers(ds, out)
    _assert_delta_packed(_files(out))
    _assert_readers_agree(out, ds.to_pandas())


def test_checkpoint_writers_delta_pack(ray_session, inputs, tmp_path):
    """The base partials and the finalize step, the update stage and its
    refresh, and the compaction fold."""
    out = str(tmp_path / "out")
    run_checkpointed(inputs["base"], out, fill=CFG, n_buckets=2, n_subbuckets=2,
                     check_tokens=False)
    partials = _files(os.path.join(out, "partials"))
    # one file per input file and (bucket, sub) the file's rows reach
    assert {os.path.basename(f) for f in partials} == {"part-0.parquet", "part-1.parquet"}
    assert {Path(f).parent.parent.name for f in partials} == {"bucket=0", "bucket=1"}
    _assert_delta_packed(partials)
    _assert_delta_packed(_files(os.path.join(out, "tiers")))
    base_rows = rollup_tiers(inputs["base"], fill=CFG, check_tokens=False).to_pandas()
    _assert_readers_agree(os.path.join(out, "tiers"), base_rows)

    uid = run_incremental(out, inputs["late"])["update_id"]
    _assert_delta_packed(_files(os.path.join(out, "partials_updates", uid)))
    refreshed = _files(os.path.join(out, "tiers"))
    _assert_delta_packed(refreshed)

    epoch = compact_updates(out)["epoch_dir"]
    _assert_delta_packed(_files(epoch))
    full_rows = rollup_tiers(inputs["full"], fill=CFG, check_tokens=False).to_pandas()
    _assert_readers_agree(os.path.join(out, "tiers"), full_rows)
    pd.testing.assert_frame_equal(_norm(read_tier_output(out).to_pandas()), _norm(full_rows))


def test_retention_writers_delta_pack(ray_session, inputs, tmp_path):
    """``enforce_retention`` and ``compact_small_files`` rewrite files with
    the same options, so maintenance does not re-inflate them; retention
    still prunes whole files on the footer statistics."""
    ds = rollup_tiers(inputs["full"], fill=CFG, check_tokens=False)
    full = ds.to_pandas()
    out = str(tmp_path / "out")
    for i in range(3):  # several small files per tier to compact
        write_tiers(ray.data.from_pandas(full.iloc[i::3]), out)
    compacted = compact_small_files(out)
    assert compacted["created"] == 3
    _assert_delta_packed(_files(out))
    _assert_readers_agree(out, full)

    ts = full.loc[full["tier"] == "1m", "bucket_ts"]
    cutoff = int(ts.quantile(0.5))
    before = set(_files(out))
    stats = enforce_retention(out, RetentionConfig({"1m": (cutoff, None)}))
    assert stats["rewritten"] == 1 and stats["kept"] == 2
    assert set(_files(out)) == before
    _assert_delta_packed(_files(out))
    keep = (full["tier"] != "1m") | (full["bucket_ts"] >= cutoff)
    _assert_readers_agree(out, full[keep])


def test_blob_sinks_still_write(ray_session, inputs, tmp_path):
    """Blob rows have no ``bucket_ts``: they are written with the writer's
    defaults and decode to the tier rows."""
    ds = rollup_tiers(inputs["full"], fill=CFG, check_tokens=False, emit="blobs")
    out = str(tmp_path / "blobs")
    write_tiers(ds, out)
    blobs = pds.dataset(out, partitioning="hive").to_table().to_pandas()
    decoded = pd.concat([decode_tier_chunk(r) for r in blobs.to_dict("records")])
    rows = rollup_tiers(inputs["full"], fill=CFG, check_tokens=False).to_pandas()
    cols = ["tier", "source", "bucket_ts", "count"]
    pd.testing.assert_frame_equal(
        decoded[cols].assign(tier=decoded["tier"].astype(str))
        .sort_values(cols).reset_index(drop=True),
        rows[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False,
    )

    ckpt = str(tmp_path / "ckpt")
    run_checkpointed(inputs["base"], ckpt, fill=CFG, n_buckets=2, check_tokens=False,
                     emit="blobs")
    files = _files(os.path.join(ckpt, "tiers"))
    assert files
    for f in files:
        assert "bucket_ts" not in pq.read_schema(f).names
        assert pq.read_metadata(f).num_rows > 0


def test_run_checkpointed_starts_no_ray_data_pipeline(
    ray_session, inputs, tmp_path, monkeypatch
):
    """The base pass stages its partials with one plain Ray task per input
    file, as an update's stage does; a Ray Data pipeline would start an
    executor per run."""
    from ray.data._internal.plan import ExecutionPlan

    source = inspect.getsource(run_checkpointed)
    calls = ("write_parquet(", "map_batches(", "partial_aggregates(")
    assert [c for c in calls if c in source] == []

    ops = []
    create = ExecutionPlan.create_executor

    def recording(self):
        ops.extend(op.name for op in self._logical_plan.dag.post_order_iter())
        return create(self)

    monkeypatch.setattr(ExecutionPlan, "create_executor", recording)
    out = str(tmp_path / "out")
    run_checkpointed(inputs["base"], out, fill=CFG, n_buckets=2, check_tokens=False)
    assert ops == []


def test_empty_input_checkpoints_no_rows(ray_session, tmp_path):
    empty = generate_input_table(10, 1, seed=1).slice(0, 0)
    pq.write_table(empty, tmp_path / "empty.parquet")
    out = str(tmp_path / "out")
    run_checkpointed(str(tmp_path / "empty.parquet"), out, n_buckets=2)
    assert read_tier_output(out).num_rows == 0
    (rec,) = [r for r in lineage.read_manifest(out) if r.kind == "partials"]
    assert (rec.row_count, rec.checksum) == (0, "0" * 16)


def test_in_memory_input_checkpoints_as_its_file(ray_session, inputs, tmp_path):
    """An in-memory table is staged as one block, as ``read_input`` takes
    it; a container it does not take is an ``EngineValueError``."""
    from datafiller_ray.config import EngineValueError

    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run_checkpointed(inputs["full"], a, fill=CFG, n_buckets=2, check_tokens=False)
    frame = pq.read_table(inputs["full"]).to_pandas()
    run_checkpointed(frame, b, fill=CFG, n_buckets=2, check_tokens=False)
    pd.testing.assert_frame_equal(
        _norm(read_tier_output(b).to_pandas()), _norm(read_tier_output(a).to_pandas())
    )
    (ra,), (rb,) = (
        [r for r in lineage.read_manifest(d) if r.kind == "partials"] for d in (a, b)
    )
    assert (ra.row_count, ra.checksum) == (rb.row_count, rb.checksum)
    with pytest.raises(EngineValueError, match="unsupported input container"):
        run_checkpointed(frame.to_numpy(), str(tmp_path / "c"))


# every write call in the modules that write tier or partial files
_WRITER_MODULES = ("pipelines/rollup.py", "pipelines/checkpoint.py", "pipelines/retention.py")
_WRITE_CALLS = ("write_table", "write_dataset", "write_parquet")


def test_writers_pass_the_write_options():
    import datafiller_ray

    root = Path(datafiller_ray.__file__).parent
    missing, seen = [], 0
    for rel in _WRITER_MODULES:
        text = (root / rel).read_text()
        for node in ast.walk(ast.parse(text)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _WRITE_CALLS
            ):
                seen += 1
                if "parquet_write_options(" not in ast.get_source_segment(text, node):
                    missing.append(f"{rel}:{node.lineno}")
    assert seen >= 6
    assert missing == [], "pass rollup.parquet_write_options(schema) to the writer"


def test_rows_checksum_arrow_columns_match_numpy():
    """``_publish_rows`` and the audits pass Arrow columns: the checksum
    equals the NumPy path's, nulls and chunking included."""
    src = pa.chunked_array([["b", None, "a"], [], ["a", "δ", None, ""]])
    ts = pa.chunked_array([[0, 60, 120], [], [180, 240, 300, 360]], pa.int64())
    val = pa.chunked_array([[1.5, None, -0.0], [], [2.0, None, 3.0, 4.0]])
    as_numpy = {"source": src.to_numpy(), "bucket_ts": ts.to_numpy(),
                "sum": val.to_numpy()}
    as_arrow = {"source": src, "bucket_ts": ts, "sum": val}
    want = lineage.rows_checksum(as_numpy)
    assert lineage.rows_checksum(as_arrow) == want
    assert lineage.rows_checksum({k: v.combine_chunks() for k, v in as_arrow.items()}) == want
    large = pc.cast(src, pa.large_string())
    assert lineage.rows_checksum({**as_arrow, "source": large}) == want
    assert lineage.rows_checksum({"source": pa.array([], pa.string())}) == "0" * 16
