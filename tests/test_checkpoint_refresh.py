"""Checkpointed refresh and compaction on the columnar fill kernel: output
pinned to golden values of the per-source pandas path it replaced, the
lineage record of each refresh, and the checksum helpers."""

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import pytest

from datafiller_ray.config import FillConfig
from datafiller_ray.fixtures import generate_input_table
from datafiller_ray.pipelines.checkpoint import (
    _blob_payload_hashes,
    compact_updates,
    read_tier_output,
    run_checkpointed,
    run_incremental,
)
from datafiller_ray.stages.validate import extract_epoch_minute
from datafiller_ray.state import lineage

CFG = FillConfig(strategy="linear", max_gap=5)
N_BUCKETS = 2


def test_rows_checksum_golden():
    """Update ids and resume audits compare checksums across runs and
    engine versions: these values were computed by the per-row string
    hash that the distinct-value hash replaced."""
    src = np.array(
        ["alpha", "beta", "alpha", "gamma-long-name", "", "beta", "δelta"], dtype=object
    )
    cols = {
        "source": src,
        "bucket_ts": np.arange(7, dtype=np.int64) * 60,
        "count": np.array([1, 2, 3, 0, 5, 6, 7], np.int64),
        "sum": np.array([1.5, -2.0, 3.25, np.nan, 0.0, 1e18, -0.0]),
    }
    assert lineage.rows_checksum(cols) == "8d391f07ac23cb3a"
    assert lineage.rows_checksum({"source": src}) == "f0ad21076ae149ad"
    assert lineage.rows_checksum({"source": src.astype("U")}) == "f0ad21076ae149ad"
    arrow_src = pa.array(src.tolist()).to_numpy(zero_copy_only=False)
    assert lineage.rows_checksum({"source": arrow_src, "n": np.arange(7)}) == "dbcf95027d2106e2"
    assert lineage.rows_checksum({"source": np.array([], dtype=object)}) == "0" * 16
    nulls = np.array(["a", None, np.nan, "a"], dtype=object)
    assert lineage.rows_checksum({"source": nulls}) == "224ce1e5f67bc557"


def test_blob_payload_hashes_golden():
    blobs = pd.DataFrame({
        "source": ["a", "b", "c"],
        "tier": ["1m", "1h", "1d"],
        "ts_blob": [b"\x00\x01", b"", b"xyz"],
        "sum_blob": [b"AB", b"C", b""],
        "value_blob": [b"", b"\xff" * 9, b"q"],
    })
    table = pa.Table.from_pandas(blobs, preserve_index=False)
    want = [3795989818423571668, 4959486001734521509, -8334607213385954261]
    assert _blob_payload_hashes(table).to_pylist() == want
    assert _blob_payload_hashes(table.slice(0, 0)).to_pylist() == []


def _write(table: pa.Table, path) -> str:
    pq.write_table(table, path)
    return str(path)


def _scenario_inputs(d):
    """base (each source's first 80 % of rows by minute), an append of the
    rest, a replace of one source's minutes and a tombstone batch on
    another source."""
    full = generate_input_table(3000, 6, seed=5, with_tokens=False)
    by_src = pd.DataFrame({
        "source": full["source"].to_numpy(zero_copy_only=False),
        "minute": np.asarray(extract_epoch_minute(full["doc_id"])),
    }).groupby("source")["minute"]
    is_early = (by_src.rank(method="first") <= 0.8 * by_src.transform("size")).to_numpy()
    early = full.filter(pa.array(is_early))
    late = full.filter(pa.array(~is_early))
    em = np.asarray(extract_epoch_minute(early["doc_id"]))
    src = np.asarray(early["source"].to_pylist())
    srcs = sorted(set(src))
    rep = early.filter(pa.array((src == srcs[0]) & (em % 5 == 1)))
    rep = rep.set_column(
        rep.schema.get_field_index("n_tok"), "n_tok", pc.add(rep["n_tok"], 3)
    )
    dele = early.filter(pa.array((src == srcs[1]) & (em % 4 == 2)))
    return {
        "early": _write(early, d / "early.parquet"),
        "late": _write(late, d / "late.parquet"),
        "replace": _write(rep, d / "replace.parquet"),
        "delete": _write(dele.select(["doc_id", "source"]), d / "delete.parquet"),
        "sources": srcs,
    }


def _run_scenario(p, out: str) -> dict:
    run_checkpointed(p["early"], out, fill=CFG, n_buckets=N_BUCKETS, check_tokens=False)
    run_incremental(out, p["late"])
    run_incremental(out, p["replace"], mode="replace")
    run_incremental(out, None, deletes=p["delete"])
    compact_updates(out)
    rows = read_tier_output(out)
    cols = ["source", "tier", "bucket_ts", "count", "sum", "min", "max", "value",
            "filled", "fill_method"]
    return {
        "manifest": [
            (r.kind, r.partition_id, r.row_count, r.checksum)
            for r in lineage.read_manifest(out)
        ],
        "rows": lineage.rows_checksum(
            {c: rows[c].to_numpy(zero_copy_only=False) for c in cols}
        ),
    }


def test_refresh_and_compaction_match_golden_output(ray_session, tmp_path):
    """run_checkpointed + append + replace + delete + compact_updates: the
    manifest (row counts, checksums, update ids) and the tier rows equal
    the values the per-source pandas fill produced on this fixture."""
    p = _scenario_inputs(tmp_path)
    out = str(tmp_path / "out")
    got = _run_scenario(p, out)
    # files hold what pa.Table.from_pandas writes: pandas metadata, NaN as null
    files = sorted(glob.glob(os.path.join(out, "tiers", "*", "*", "*.parquet")))
    assert len(files) == N_BUCKETS * 3  # both buckets refreshed: one file per tier
    for f in files:
        t = pq.read_table(f)
        assert t.equals(
            pa.Table.from_pandas(t.to_pandas(), preserve_index=False), check_metadata=True
        ), f
    assert got["manifest"] == [
        ("partials", -1, 2372, "871968eb296ebcf3"),
        ("bucket", 0, 2146, "ed3f943864ee0138"),
        ("bucket", 1, 570, "318685e1c88c457b"),
        ("update-partials", -1, 597, "6532e0b4846a7e3d"),
        ("bucket-update", 0, 2807, "3e0fa5d143c331dc"),
        ("bucket-update", 1, 708, "4fb6e2c1a6d36a16"),
        ("update-partials", -1, 213, "d65e0eb0697600fd"),
        ("bucket-update", 0, 2807, "a62b0b778482acea"),
        ("update-partials", -1, 121, "40dba386d6ed9865"),
        ("bucket-update", 1, 708, "15cd7f5ffb659aac"),
        ("partials-compact", -1, 2848, ""),
    ]
    assert got["rows"] == "e1a62aac51e9b6fc"


def _partial_rows(*dirs) -> pd.DataFrame:
    return pd.concat(
        [pds.dataset(d).to_table().to_pandas() for d in dirs], ignore_index=True
    )


def test_refresh_lineage_reports_recomputed_and_spliced(ray_session, tmp_path):
    """Each bucket-update record says how many sources the refresh
    recomputed, how many it spliced from the published rows, and how many
    partial rows went into the recompute."""
    p = _scenario_inputs(tmp_path)
    out = str(tmp_path / "out")
    run_checkpointed(p["early"], out, fill=CFG, n_buckets=N_BUCKETS, check_tokens=False)
    base = os.path.join(out, "partials")
    sources_of = (
        pds.dataset(base, partitioning="hive").to_table(columns=["source", "bucket"])
        .to_pandas().groupby("bucket")["source"].nunique().to_dict()
    )

    def records(update_id):
        return {
            r.partition_id: r.extra
            for r in lineage.read_manifest(out)
            if r.kind == "bucket-update" and r.extra["update_id"] == update_id
        }

    # append: every source gets new minutes, so nothing is spliced
    uid = run_incremental(out, p["late"])["update_id"]
    recs = records(uid)
    assert sorted(recs) == sorted(sources_of) == [0, 1]
    for b, extra in recs.items():
        assert extra["sources_recomputed"] == sources_of[b]
        assert extra["sources_spliced"] == 0
        update = os.path.join(out, "partials_updates", uid, f"bucket={b}")
        assert extra["rows_in"] == len(_partial_rows(f"{base}/bucket={b}", update))

    # replace, once the append is compacted away: the corrected source is
    # recomputed, the other sources of its bucket splice through, and the
    # replaced minutes' earlier rows fold away
    epoch = compact_updates(out)["epoch_dir"]
    target = p["sources"][0]
    uid = run_incremental(out, p["replace"], mode="replace")["update_id"]
    (b, extra), = records(uid).items()
    assert extra["sources_recomputed"] == 1
    assert extra["sources_spliced"] == sources_of[b] - 1 > 0
    old = _partial_rows(f"{epoch}/bucket={b}").query("source == @target")
    new = _partial_rows(os.path.join(out, "partials_updates", uid, f"bucket={b}"))
    assert 0 < len(new) < len(old)
    assert extra["rows_in"] == len(new) + (~old["bucket_ts"].isin(new["bucket_ts"])).sum()


def test_blob_refresh_of_wholly_tombstoned_sources(ray_session, tmp_path):
    """A blob bucket whose every recomputed source is tombstoned away
    publishes the spliced rows alone."""
    p = _scenario_inputs(tmp_path)
    out = str(tmp_path / "out")
    run_checkpointed(p["early"], out, fill=CFG, n_buckets=N_BUCKETS,
                     check_tokens=False, emit="blobs")
    early = pq.read_table(p["early"])
    gone = p["sources"][2]
    kill = early.filter(pc.equal(early["source"], gone)).select(["doc_id", "source"])
    run_incremental(out, None, deletes=_write(kill, tmp_path / "kill.parquet"))
    blobs = pds.dataset(os.path.join(out, "tiers"), partitioning="hive").to_table()
    left = set(blobs["source"].to_pylist())
    assert gone not in left
    assert left == set(p["sources"]) - {gone}
