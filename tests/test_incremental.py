"""Continuous-aggregate updates: fold new data into a committed run,
recomputing only touched buckets; idempotent by update checksum."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from datafiller_ray.config import FillConfig
from datafiller_ray.fixtures import generate_input_table
from datafiller_ray.pipelines.checkpoint import (
    read_tier_output,
    run_checkpointed,
    run_incremental,
)
from datafiller_ray.pipelines.rollup import rollup_tiers
from datafiller_ray.state import lineage

CFG = FillConfig(strategy="linear", max_gap=5)


@pytest.fixture(scope="module")
def split_inputs(tmp_path_factory):
    """One logical table split in two halves by time: base = early rows,
    update = late rows (append-style ingest)."""
    d = tmp_path_factory.mktemp("incr")
    full = generate_input_table(5000, 6, seed=23)
    import pyarrow.compute as pc

    from datafiller_ray.stages.validate import extract_epoch_minute

    minute = extract_epoch_minute(full["doc_id"])
    cutoff = int(np.quantile(np.asarray(minute), 0.7))
    early = full.filter(pc.less_equal(minute, cutoff))
    late = full.filter(pc.greater(minute, cutoff))
    pq.write_table(full, d / "full.parquet")
    pq.write_table(early, d / "early.parquet")
    pq.write_table(late, d / "late.parquet")
    return str(d / "full.parquet"), str(d / "early.parquet"), str(d / "late.parquet")


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    cols = ["source", "tier", "bucket_ts", "count", "sum", "min", "max", "value", "filled"]
    return df[cols].sort_values(["tier", "source", "bucket_ts"]).reset_index(drop=True)


def test_incremental_equals_full_recompute(ray_session, split_inputs, tmp_path):
    full, early, late = split_inputs
    out = str(tmp_path / "out")
    run_checkpointed(early, out, fill=CFG, n_buckets=5)
    summary = run_incremental(out, late)
    assert summary["refreshed_buckets"] == len(summary["touched_buckets"]) > 0

    got = _norm(read_tier_output(out).to_pandas())
    want = _norm(rollup_tiers(full, fill=CFG).to_pandas())
    pd.testing.assert_frame_equal(got, want)

    # idempotent: same update again is a no-op
    summary2 = run_incremental(out, late)
    assert summary2["update_id"] == summary["update_id"]
    assert summary2["refreshed_buckets"] == 0
    got2 = _norm(read_tier_output(out).to_pandas())
    pd.testing.assert_frame_equal(got2, want)


def test_incremental_manifest_lineage(ray_session, split_inputs, tmp_path):
    _, early, late = split_inputs
    out = str(tmp_path / "out2")
    run_checkpointed(early, out, fill=CFG, n_buckets=3)
    run_incremental(out, late)
    records = lineage.read_manifest(out)
    kinds = [r.kind for r in records]
    assert "update-partials" in kinds and "bucket-update" in kinds
    up = [r for r in records if r.kind == "update-partials"][0]
    assert up.input_fragments == [late]
    assert len(up.checksum) == 16


def test_incremental_rejects_config_mismatch(ray_session, split_inputs, tmp_path):
    _, early, late = split_inputs
    out = str(tmp_path / "out3")
    run_checkpointed(early, out, fill=CFG, n_buckets=3)
    with pytest.raises(ValueError, match="fill config"):
        run_incremental(out, late, fill=FillConfig(strategy="locf", max_gap=2))


def test_incremental_subset_sources_spliced(ray_session, split_inputs, tmp_path):
    """An update touching a SUBSET of a bucket's sources must recompute only
    those sources and splice the rest through from the published output —
    for the rows sink and the Gorilla blob sink alike."""
    import pyarrow as pa
    import pyarrow.compute as pc

    full, early, late = split_inputs
    late_t = pq.read_table(late)
    srcs = sorted(set(late_t["source"].to_pylist()))
    subset = srcs[: max(1, len(srcs) // 3)]
    late_sub = late_t.filter(pc.is_in(late_t["source"], pa.array(subset)))
    late_sub_path = str(tmp_path / "late_sub.parquet")
    pq.write_table(late_sub, late_sub_path)
    early_t = pq.read_table(early)
    expected_input = pa.concat_tables([early_t, late_sub])

    for emit in ("rows", "blobs"):
        out = str(tmp_path / f"out_{emit}")
        run_checkpointed(early, out, fill=CFG, n_buckets=5, emit=emit)
        summary = run_incremental(out, late_sub_path)
        assert summary["refreshed_buckets"] > 0

        if emit == "rows":
            got = _norm(read_tier_output(out).to_pandas())
        else:
            import glob as _glob

            import pyarrow.dataset as pds

            from datafiller_ray.stages.compress import decode_tier_chunk

            blob_df = (
                pds.dataset(f"{out}/tiers", partitioning="hive")
                .to_table()
                .to_pandas()
            )
            blob_df["tier"] = blob_df["tier"].astype(object)
            decoded = pd.concat(
                [decode_tier_chunk(r) for _, r in blob_df.iterrows()],
                ignore_index=True,
            )
            # blob rows carry (ts, count, sum, min, max, value); rebuild the
            # comparable frame without filled/fill_method
            got = (
                decoded[["source", "tier", "bucket_ts", "count", "sum", "min", "max", "value"]]
                .sort_values(["tier", "source", "bucket_ts"])
                .reset_index(drop=True)
            )
        want_full = rollup_tiers(expected_input, fill=CFG).to_pandas()
        if emit == "rows":
            want = _norm(want_full)
            pd.testing.assert_frame_equal(got, want)
        else:
            want = (
                want_full[["source", "tier", "bucket_ts", "count", "sum", "min", "max", "value"]]
                .sort_values(["tier", "source", "bucket_ts"])
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got, want)


def test_incremental_heals_crash_window_and_prior_updates(ray_session, split_inputs, tmp_path):
    """The splice must not trust history: a published bucket that vanished
    in the rmtree->rename crash window, or a prior update that committed
    its partials but never refreshed the bucket, must be healed by the next
    update (recompute = union of ALL updates' touched sources; missing
    published bucket = full recompute)."""
    import shutil as _shutil

    import pyarrow as pa
    import pyarrow.compute as pc

    full, early, late = split_inputs
    late_t = pq.read_table(late)
    half = late_t.num_rows // 2
    u1, u2 = late_t.slice(0, half), late_t.slice(half)
    u1_path, u2_path = str(tmp_path / "u1.parquet"), str(tmp_path / "u2.parquet")
    pq.write_table(u1, u1_path)
    pq.write_table(u2, u2_path)
    out = str(tmp_path / "out")
    run_checkpointed(early, out, fill=CFG, n_buckets=5)
    s1 = run_incremental(out, u1_path)
    victim = s1["touched_buckets"][0]
    _shutil.rmtree(f"{out}/tiers/bucket={victim}")  # simulated crash window
    run_incremental(out, u2_path)
    got = _norm(read_tier_output(out).to_pandas())
    want = _norm(rollup_tiers(full, fill=CFG).to_pandas())
    pd.testing.assert_frame_equal(got, want)


def test_streaming_ingest_loop_blobs(ray_session, split_inputs, tmp_path):
    """Operational shape of continuous ingest: shards arrive one at a time
    and each is folded with run_incremental (blob sink). After N folds the
    decoded output equals a from-scratch run over everything, and
    re-submitting any shard is a no-op."""
    import pyarrow.dataset as pds

    from datafiller_ray.stages.compress import decode_tier_chunk

    full, early, late = split_inputs
    late_t = pq.read_table(late)
    n_shards = 3
    step = late_t.num_rows // n_shards
    shard_paths = []
    for i in range(n_shards):
        sl = late_t.slice(i * step, step if i < n_shards - 1 else late_t.num_rows - i * step)
        p = str(tmp_path / f"shard{i}.parquet")
        pq.write_table(sl, p)
        shard_paths.append(p)
    out = str(tmp_path / "out")
    run_checkpointed(early, out, fill=CFG, n_buckets=5, emit="blobs")
    ids = []
    for p in shard_paths:
        ids.append(run_incremental(out, p)["update_id"])
    # idempotence: replay the middle shard
    replay = run_incremental(out, shard_paths[1])
    assert replay["update_id"] == ids[1] and replay["refreshed_buckets"] == 0

    blob_df = (
        pds.dataset(f"{out}/tiers", partitioning="hive").to_table().to_pandas()
    )
    blob_df["tier"] = blob_df["tier"].astype(object)
    decoded = pd.concat(
        [decode_tier_chunk(r) for _, r in blob_df.iterrows()], ignore_index=True
    )
    got = (
        decoded[["source", "tier", "bucket_ts", "count", "sum", "min", "max", "value"]]
        .sort_values(["tier", "source", "bucket_ts"]).reset_index(drop=True)
    )
    want = (
        rollup_tiers(full, fill=CFG).to_pandas()
        [["source", "tier", "bucket_ts", "count", "sum", "min", "max", "value"]]
        .sort_values(["tier", "source", "bucket_ts"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)


def _split_by_source(late: str, tmp_path) -> tuple[str, str]:
    """The late rows split by SOURCE into u1 (the first source) and u2 (the
    rest), so the two updates touch disjoint buckets."""
    import pyarrow as pa
    import pyarrow.compute as pc

    late_t = pq.read_table(late)
    srcs = sorted(set(late_t["source"].to_pylist()))
    u1_t = late_t.filter(pc.is_in(late_t["source"], value_set=pa.array(srcs[:1])))
    u2_t = late_t.filter(pc.is_in(late_t["source"], value_set=pa.array(srcs[1:])))
    u1_path, u2_path = str(tmp_path / "u1.parquet"), str(tmp_path / "u2.parquet")
    pq.write_table(u1_t, u1_path)
    pq.write_table(u2_t, u2_path)
    return u1_path, u2_path


def _crash_before_refresh(out: str, update, tmp_path) -> dict:
    """Run ``update`` fully, then rewind to simulate a crash AFTER its
    update-partials commit but BEFORE any bucket refresh: published rows
    back to pre-update, no bucket-update records for it."""
    import json
    import shutil as _shutil

    backup = str(tmp_path / "tiers_backup")
    _shutil.copytree(f"{out}/tiers", backup)
    s1 = run_incremental(out, update)
    assert s1["touched_buckets"], "the update must touch at least one bucket"
    _shutil.rmtree(f"{out}/tiers")
    _shutil.copytree(backup, f"{out}/tiers")
    mp = lineage.manifest_path(out)
    kept = [
        line
        for line in open(mp).read().splitlines()
        if not (
            json.loads(line).get("kind") == "bucket-update"
            and json.loads(line).get("extra", {}).get("update_id")
            == s1["update_id"]
        )
    ]
    with open(mp, "w") as f:
        f.write("\n".join(kept) + "\n")
    return s1


def test_heals_bucket_touched_only_by_crashed_prior_update(
    ray_session, split_inputs, tmp_path
):
    """ADVICE round-3 (checkpoint.py:437): a bucket touched ONLY by a prior
    update that committed its partials but crashed before refreshing must be
    healed by the NEXT update even when that update touches a disjoint
    bucket set — todo now includes every (committed update, bucket) pair
    lacking a bucket-update record."""
    full, early, late = split_inputs
    u1_path, u2_path = _split_by_source(late, tmp_path)

    out = str(tmp_path / "out")
    run_checkpointed(early, out, fill=CFG, n_buckets=5)
    s1 = _crash_before_refresh(out, u1_path, tmp_path)
    u1_buckets = set(s1["touched_buckets"])

    s2 = run_incremental(out, u2_path)
    # the victim buckets were refreshed by u2's run even if disjoint
    assert u1_buckets <= set(
        r.partition_id
        for r in lineage.read_manifest(out)
        if r.kind == "bucket-update"
        and r.extra.get("update_id") == s1["update_id"]
    )
    got = _norm(read_tier_output(out).to_pandas())
    want = _norm(rollup_tiers(full, fill=CFG).to_pandas())
    pd.testing.assert_frame_equal(got, want)


def test_compaction_refreshes_buckets_left_stale_by_crashed_update(
    ray_session, split_inputs, tmp_path
):
    """Compaction folds every committed update, so an update whose bucket
    refresh never ran must reach the tiers first: once folded, no later
    update lists its buckets as stale."""
    from datafiller_ray.pipelines.checkpoint import compact_updates

    full, early, late = split_inputs
    u1_path, u2_path = _split_by_source(late, tmp_path)

    out = str(tmp_path / "out")
    run_checkpointed(early, out, fill=CFG, n_buckets=5)
    s1 = _crash_before_refresh(out, u1_path, tmp_path)

    summary = compact_updates(out)
    assert summary["folded_updates"] == 1
    assert summary["refreshed_buckets"] == len(s1["touched_buckets"])
    run_incremental(out, u2_path)
    got = _norm(read_tier_output(out).to_pandas())
    want = _norm(rollup_tiers(full, fill=CFG).to_pandas())
    pd.testing.assert_frame_equal(got, want)


def test_incremental_keeps_base_retention(ray_session, split_inputs, tmp_path):
    """An update is refreshed with the base run's retention: an append with
    rows below the base's 1m lower bound publishes none of them, and the
    tiers equal a fresh retention-bounded rollup of the same input."""
    import pyarrow as pa

    from datafiller_ray.config import RetentionConfig
    from datafiller_ray.stages.validate import extract_epoch_minute

    full = pq.read_table(split_inputs[0])
    third = np.arange(full.num_rows) % 3 == 0
    base, more = str(tmp_path / "base.parquet"), str(tmp_path / "more.parquet")
    pq.write_table(full.filter(pa.array(~third)), base)
    pq.write_table(full.filter(pa.array(third)), more)
    minute = np.asarray(extract_epoch_minute(full["doc_id"]))
    bound = int(np.median(minute)) * 60
    assert (minute[third] * 60 < bound).any()  # the append reaches below it
    ret = RetentionConfig({"1m": (bound, None)})

    out = str(tmp_path / "out")
    run_checkpointed(base, out, fill=CFG, n_buckets=5, retention=ret)
    run_incremental(out, more)
    got = _norm(read_tier_output(out).to_pandas())
    assert not ((got["tier"] == "1m") & (got["bucket_ts"] < bound)).any()
    want = _norm(rollup_tiers(split_inputs[0], fill=CFG, retention=ret).to_pandas())
    pd.testing.assert_frame_equal(got, want)


def test_compaction_then_incremental_update(ray_session, split_inputs, tmp_path):
    """Compacting committed tier files must not disturb resume or the
    incremental fold: base -> compact -> update equals base -> update."""
    from datafiller_ray.pipelines.retention import compact_small_files

    full, early, late = split_inputs
    a = str(tmp_path / "plain")
    b = str(tmp_path / "compacted")
    run_checkpointed(early, a, fill=CFG, n_buckets=5)
    run_checkpointed(early, b, fill=CFG, n_buckets=5)
    stats = compact_small_files(f"{b}/tiers", target_bytes=1 << 30)
    assert stats["created"] >= 1  # compaction actually merged something
    run_incremental(a, late)
    run_incremental(b, late)
    pd.testing.assert_frame_equal(
        _norm(read_tier_output(a).to_pandas()),
        _norm(read_tier_output(b).to_pandas()),
    )


@pytest.fixture(scope="module")
def upsert_inputs(tmp_path_factory):
    """A -> B via changed (n_tok+5 at minute%7==3), removed (minute%7==5)
    and the matching replace/tombstone update tables."""
    import pyarrow as pa

    d = tmp_path_factory.mktemp("upsert")
    full = generate_input_table(4000, 5, seed=31, with_tokens=False)
    df = full.to_pandas()
    minute = df["doc_id"].str[-10:].astype(np.int64)
    changed = (minute % 7 == 3).to_numpy()
    removed = (minute % 7 == 5).to_numpy()
    assert changed.any() and removed.any()

    b = df.copy()
    b.loc[changed, "n_tok"] = b.loc[changed, "n_tok"] + 5
    b = b[~removed]

    changed_rows = df[changed].copy()
    changed_rows["n_tok"] = changed_rows["n_tok"] + 5
    removed_keys = df.loc[removed, ["doc_id", "source"]]

    paths = {}
    for name, frame in [
        ("a", df), ("b", b), ("changed", changed_rows), ("removed", removed_keys)
    ]:
        p = d / f"{name}.parquet"
        pq.write_table(pa.Table.from_pandas(frame, preserve_index=False), p)
        paths[name] = str(p)
    return paths


def test_upsert_and_delete_equals_fresh_run(ray_session, upsert_inputs, tmp_path):
    p = upsert_inputs
    out = str(tmp_path / "out")
    run_checkpointed(p["a"], out, fill=CFG, n_buckets=5, check_tokens=False)
    summary = run_incremental(
        out, p["changed"], mode="replace", deletes=p["removed"]
    )
    assert summary["refreshed_buckets"] > 0

    got = _norm(read_tier_output(out).to_pandas())
    want = _norm(rollup_tiers(p["b"], fill=CFG, check_tokens=False).to_pandas())
    pd.testing.assert_frame_equal(got, want)

    # idempotent: the same replace update re-submitted is a no-op
    summary2 = run_incremental(
        out, p["changed"], mode="replace", deletes=p["removed"]
    )
    assert summary2["update_id"] == summary["update_id"]
    assert summary2["refreshed_buckets"] == 0
    pd.testing.assert_frame_equal(_norm(read_tier_output(out).to_pandas()), want)


def test_dataset_inputs_match_path_inputs(ray_session, upsert_inputs, tmp_path):
    """An update and deletes given as Datasets (one stage task per block)
    commit the same update, and the same tier rows, as their paths."""
    import ray.data

    p = upsert_inputs
    got = {}
    for form, wrap in (("path", str), ("dataset", ray.data.read_parquet)):
        out = str(tmp_path / form)
        run_checkpointed(p["a"], out, fill=CFG, n_buckets=5, check_tokens=False)
        uid = run_incremental(
            out, wrap(p["changed"]), mode="replace", deletes=wrap(p["removed"])
        )["update_id"]
        got[form] = uid, _norm(read_tier_output(out).to_pandas())
    assert got["dataset"][0] == got["path"][0]
    pd.testing.assert_frame_equal(got["dataset"][1], got["path"][1])


def test_delete_only_update(ray_session, upsert_inputs, tmp_path):
    p = upsert_inputs
    out = str(tmp_path / "out")
    run_checkpointed(p["a"], out, fill=CFG, n_buckets=5, check_tokens=False)
    run_incremental(out, None, deletes=p["removed"])

    got = _norm(read_tier_output(out).to_pandas())
    a = pq.read_table(p["a"]).to_pandas()
    minute = a["doc_id"].str[-10:].astype(np.int64)
    a_minus = a[~(minute % 7 == 5).to_numpy()]
    import pyarrow as pa

    want = _norm(
        rollup_tiers(
            pa.Table.from_pandas(a_minus, preserve_index=False),
            fill=CFG,
            check_tokens=False,
        ).to_pandas()
    )
    pd.testing.assert_frame_equal(got, want)


def test_add_after_replace_adds_on_top(ray_session, tmp_path):
    """Ordering: replace resets a minute, a LATER additive update stacks on
    the replaced value (never on the pre-replace one)."""
    import pyarrow as pa

    def table(rows):
        return pa.Table.from_pylist(rows)

    def write(path, rows):
        pq.write_table(table(rows), path)
        return str(path)

    base = write(
        tmp_path / "base.parquet",
        [{"doc_id": f"s:{m:010d}", "source": "s", "n_tok": 100} for m in range(4)],
    )
    repl = write(
        tmp_path / "repl.parquet",
        [{"doc_id": "s:0000000001", "source": "s", "n_tok": 7}],
    )
    add = write(
        tmp_path / "add.parquet",
        [{"doc_id": "s:0000000001", "source": "s", "n_tok": 3}],
    )
    out = str(tmp_path / "out")
    cfg = FillConfig(strategy=None)
    run_checkpointed(base, out, fill=cfg, n_buckets=2, check_tokens=False)
    run_incremental(out, repl, mode="replace")
    run_incremental(out, add)  # additive on top of the replaced minute

    rows = read_tier_output(out).to_pandas()
    m1 = rows[(rows["tier"] == "1m") & (rows["bucket_ts"] == 60)]
    assert m1["sum"].tolist() == [10]  # 7 (replace wins over 100) + 3 (add)
    assert m1["count"].tolist() == [2]


def test_run_incremental_arg_guards(ray_session, upsert_inputs, tmp_path):
    p = upsert_inputs
    out = str(tmp_path / "out")
    run_checkpointed(p["a"], out, fill=CFG, n_buckets=3, check_tokens=False)
    with pytest.raises(ValueError):
        run_incremental(out, None)
    with pytest.raises(ValueError):
        run_incremental(out, p["changed"], mode="bogus")


def test_compact_updates_then_incremental(ray_session, upsert_inputs, tmp_path):
    """Update-log compaction: folding committed updates into a new base
    epoch leaves tiers untouched, later increments read the compacted base,
    and a re-submitted folded update stays a no-op."""
    import pyarrow as pa

    from datafiller_ray.pipelines.checkpoint import compact_updates

    p = upsert_inputs
    out = str(tmp_path / "out")
    run_checkpointed(p["a"], out, fill=CFG, n_buckets=5, check_tokens=False)
    s1 = run_incremental(out, p["changed"], mode="replace", deletes=p["removed"])
    before = _norm(read_tier_output(out).to_pandas())

    summary = compact_updates(out)
    assert summary["folded_updates"] == 1
    pd.testing.assert_frame_equal(_norm(read_tier_output(out).to_pandas()), before)
    # folded dir GC'd, compacted epoch present
    import glob
    import os

    assert not glob.glob(os.path.join(out, "partials_updates", s1["update_id"]))
    assert os.path.isdir(summary["epoch_dir"])

    # idempotent: nothing live to fold
    assert compact_updates(out)["folded_updates"] == 0
    # re-submitting the folded update is still a no-op
    s1b = run_incremental(out, p["changed"], mode="replace", deletes=p["removed"])
    assert s1b["update_id"] == s1["update_id"]
    assert s1b["refreshed_buckets"] == 0
    pd.testing.assert_frame_equal(_norm(read_tier_output(out).to_pandas()), before)

    # a LATER additive update reads the compacted base: result must equal a
    # fresh rollup of (B + late docs)
    b = pq.read_table(p["b"]).to_pandas()
    minute = b["doc_id"].str[-10:].astype(np.int64)
    src = b["source"].iloc[0]
    mmax = int(minute[b["source"] == src].max())
    late = pd.DataFrame(
        {
            "doc_id": [f"{src}:{mmax + 1 + i:010d}" for i in range(20)],
            "source": src,
            "n_tok": np.arange(20, dtype=np.int64) + 3,
        }
    )
    late_path = str(tmp_path / "late.parquet")
    pq.write_table(pa.Table.from_pandas(late, preserve_index=False), late_path)
    run_incremental(out, late_path)

    got = _norm(read_tier_output(out).to_pandas())
    full_b = pd.concat([b[["doc_id", "source", "n_tok"]], late], ignore_index=True)
    want = _norm(
        rollup_tiers(
            pa.Table.from_pandas(full_b, preserve_index=False),
            fill=CFG,
            check_tokens=False,
        ).to_pandas()
    )
    pd.testing.assert_frame_equal(got, want)
