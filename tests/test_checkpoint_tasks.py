"""Checkpoint tasks: the one launcher behind the update staging, finalize,
refresh and compaction-fold phases (``_map_tasks``), the plan record each
phase logs, and the staging dirs a task writes before its rename."""

import glob
import json
import logging
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from datafiller_ray.config import EngineValueError, FillConfig
from datafiller_ray.fixtures import generate_input_table
from datafiller_ray.pipelines import checkpoint
from datafiller_ray.pipelines.checkpoint import (
    compact_updates,
    read_tier_output,
    run_checkpointed,
    run_incremental,
)
from datafiller_ray.pipelines.rollup import rollup_tiers
from datafiller_ray.stages.validate import extract_epoch_minute
from datafiller_ray.state import lineage

CFG = FillConfig(strategy="linear", max_gap=5)
_LOGGER = "datafiller_ray.pipelines.checkpoint"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """24 sources (every one of 8 buckets holds some), each split by time:
    base = a source's first 70 % of rows by minute, append = the rest; plus
    a replace of one source's first rows."""
    d = tmp_path_factory.mktemp("ckpt_tasks")
    full = generate_input_table(6000, 24, seed=11, with_tokens=False)
    by_src = pd.DataFrame({
        "source": full["source"].to_numpy(zero_copy_only=False),
        "minute": np.asarray(extract_epoch_minute(full["doc_id"])),
    }).groupby("source")["minute"]
    is_early = (by_src.rank(method="first") <= 0.7 * by_src.transform("size")).to_numpy()
    early = full.filter(pa.array(is_early))
    late = full.filter(pa.array(~is_early))
    one = early.filter(pc.equal(early["source"], early["source"][0])).slice(0, 20)
    paths = {}
    for name, t in (("full", full), ("early", early), ("late", late), ("one", one)):
        paths[name] = str(d / f"{name}.parquet")
        pq.write_table(t, paths[name])
    return paths


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    cols = ["source", "tier", "bucket_ts", "count", "sum", "min", "max", "value", "filled"]
    return df[cols].sort_values(["tier", "source", "bucket_ts"]).reset_index(drop=True)


def _oracle(path) -> pd.DataFrame:
    return _norm(rollup_tiers(path, fill=CFG, check_tokens=False).to_pandas())


def _plans(caplog) -> list:
    return [r.plan for r in caplog.records if r.name == _LOGGER and hasattr(r, "plan")]


def _tmp_dirs(out: str) -> list:
    return glob.glob(os.path.join(out, "**", "*.tmp-*"), recursive=True) + glob.glob(
        os.path.join(out, "_staging")
    )


def _plant_stale(out: str, b: int) -> None:
    """Copies of a published bucket where a dead attempt at bucket ``b``
    leaves them: the staging dir, and the ``tiers/`` name older runs used."""
    src = glob.glob(os.path.join(out, "tiers", "bucket=*"))[0]
    shutil.copytree(src, os.path.join(out, "tiers", f"bucket={b}.tmp-123"))
    shutil.copytree(src, os.path.join(out, "_staging", f"bucket={b}.tmp-456"))


def test_stale_staging_dirs_are_swept(ray_session, inputs, tmp_path):
    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_checkpointed(inputs["early"], out, fill=CFG, n_buckets=4,
                         check_tokens=False, fail_after_buckets=2)
    _plant_stale(out, 3)
    summary = run_checkpointed(inputs["early"], out, fill=CFG, n_buckets=4,
                               check_tokens=False)
    assert summary["skipped_buckets"] == [0, 1]
    assert _tmp_dirs(out) == []
    pd.testing.assert_frame_equal(
        _norm(read_tier_output(out).to_pandas()), _oracle(inputs["early"])
    )

    _plant_stale(out, 0)
    summary = run_incremental(out, inputs["late"])
    assert summary["touched_buckets"] == [0, 1, 2, 3]
    assert _tmp_dirs(out) == []
    pd.testing.assert_frame_equal(
        _norm(read_tier_output(out).to_pandas()), _oracle(inputs["full"])
    )

    # stale dirs of buckets no task launches: a replace of one source's
    # first minutes, with their full content, refreshes its bucket alone
    for b in range(4):
        _plant_stale(out, b)
    full = pq.read_table(inputs["full"])
    src = full["source"][0]
    minutes = pc.unique(
        extract_epoch_minute(full.filter(pc.equal(full["source"], src))["doc_id"])
    )[:3]
    same = full.filter(
        pc.and_(
            pc.equal(full["source"], src),
            pc.is_in(extract_epoch_minute(full["doc_id"]), value_set=minutes),
        )
    )
    pq.write_table(same, tmp_path / "same.parquet")
    summary = run_incremental(out, str(tmp_path / "same.parquet"), mode="replace")
    assert len(summary["touched_buckets"]) == 1
    assert _tmp_dirs(out) == []
    pd.testing.assert_frame_equal(
        _norm(read_tier_output(out).to_pandas()), _oracle(inputs["full"])
    )


def test_bucket_plan_records(ray_session, inputs, tmp_path, caplog):
    out = str(tmp_path / "out")
    with caplog.at_level(logging.INFO, logger=_LOGGER):
        with pytest.raises(RuntimeError, match="injected failure"):
            run_checkpointed(inputs["early"], out, fill=CFG, check_tokens=False,
                             fail_after_buckets=3)
        run_checkpointed(inputs["early"], out, fill=CFG, check_tokens=False)
        (crashed, resumed) = _plans(caplog)
        assert crashed["phase"] == resumed["phase"] == "finalize"
        assert (crashed["launched"], crashed["skipped"]) == ([0, 1, 2], [])
        assert (resumed["launched"], resumed["skipped"]) == ([3, 4, 5, 6, 7], [0, 1, 2])
        partials = [r for r in lineage.read_manifest(out) if r.kind == "partials"]
        assert crashed["rows_in"] + resumed["rows_in"] == partials[0].row_count
        assert resumed["task_wall_max_s"] > 0

        caplog.clear()
        uid = run_incremental(out, inputs["late"])["update_id"]
        stage, plan = _plans(caplog)
        assert (stage["phase"], stage["launched"]) == ("stage", [0])
        assert stage["rows_in"] == pq.read_metadata(inputs["late"]).num_rows
        assert plan["phase"] == "refresh"
        assert (plan["launched"], plan["skipped"], plan["healed"]) == (
            list(range(8)), [], [])
        assert plan["rows_in"] == sum(
            r.extra["rows_in"] for r in lineage.read_manifest(out)
            if r.kind == "bucket-update" and r.extra["update_id"] == uid
        )

        # re-submitting the update launches nothing and skips its buckets
        caplog.clear()
        run_incremental(out, inputs["late"])
        _, plan = _plans(caplog)
        assert (plan["launched"], plan["skipped"]) == ([], list(range(8)))

        # a replace of one source launches its bucket alone
        caplog.clear()
        uid = run_incremental(out, inputs["one"], mode="replace")["update_id"]
        _, plan = _plans(caplog)
        (rec,) = [r for r in lineage.read_manifest(out)
                  if r.kind == "bucket-update" and r.extra["update_id"] == uid]
        assert (plan["launched"], plan["healed"]) == ([rec.partition_id], [])

        # an update whose refresh never ran (its records are cut from the
        # manifest) leaves its buckets stale; the next update heals them
        manifest = lineage.manifest_path(out)
        with open(manifest) as f:
            lines = f.readlines()
        with open(manifest, "w") as f:
            f.writelines(
                ln for ln in lines
                if json.loads(ln)["extra"].get("update_id") != uid
                or json.loads(ln)["kind"] != "bucket-update"
            )
        caplog.clear()
        compact_updates(out)
        refresh, fold = _plans(caplog)
        assert (refresh["phase"], fold["phase"]) == ("refresh", "fold")
        assert refresh["launched"] == refresh["healed"] == [rec.partition_id]
        assert fold["launched"] == list(range(8))
        compact = [r for r in lineage.read_manifest(out) if r.kind == "partials-compact"]
        assert fold["rows_in"] >= compact[-1].row_count > 0


def _kill_once(flag_path):
    def fn(b: int) -> dict:
        try:
            os.close(os.open(flag_path, os.O_CREAT | os.O_EXCL))
            # a lost worker: Ray reschedules the task, the retry passes
            os._exit(1)
        except FileExistsError:
            pass
        return {"rows_in": b, "square": b * b}

    return fn


def test_launcher_retries_a_lost_worker(ray_session, tmp_path):
    flag = str(tmp_path / "killed_once")
    got = checkpoint._map_tasks(_kill_once(flag), [0, 1, 2, 3])
    assert os.path.exists(flag), "the fault was never injected"
    clean = checkpoint._map_tasks(_kill_once(flag), [0, 1, 2, 3])
    for r in got + clean:
        assert r.pop("wall_sec") >= 0
    assert got == clean == [{"id": b, "rows_in": b, "square": b * b} for b in range(4)]


def test_bucket_task_error_reaches_the_caller(ray_session, inputs, tmp_path):
    """A ValueError raised in a bucket task surfaces as a ValueError with
    its message, and the phase appends no manifest record."""

    def boom(b: int) -> dict:
        raise ValueError(f"bucket {b}: boom")

    with pytest.raises(ValueError, match="bucket 1: boom"):
        checkpoint._map_tasks(boom, [1])

    # a refresh that has nothing to publish: every partial row of bucket b
    # is tombstoned and its published rows are gone
    out = str(tmp_path / "out")
    run_checkpointed(inputs["early"], out, fill=CFG, n_buckets=2, check_tokens=False)
    b = 1
    early = pq.read_table(inputs["early"])
    parts = pq.read_table(os.path.join(out, "partials", f"bucket={b}"))
    gone = early.filter(pc.is_in(early["source"], value_set=pc.unique(parts["source"])))
    pq.write_table(gone.select(["doc_id", "source"]), tmp_path / "gone.parquet")
    shutil.rmtree(os.path.join(out, "tiers", f"bucket={b}"))
    with pytest.raises(ValueError, match=f"bucket {b}: no partial rows survive"):
        run_incremental(out, None, deletes=str(tmp_path / "gone.parquet"))
    kinds = [r.kind for r in lineage.read_manifest(out)]
    assert kinds == ["partials", "bucket", "bucket", "update-partials"]


def test_stage_plan_record(ray_session, inputs, tmp_path, caplog):
    """Staging launches one task per update file and per deletes file and
    logs them as a ``stage`` plan with the input rows they read."""
    out = str(tmp_path / "out")
    run_checkpointed(inputs["early"], out, fill=CFG, n_buckets=4, check_tokens=False)
    one = pq.read_table(inputs["one"])
    pq.write_table(one.slice(0, 5).select(["doc_id", "source"]), tmp_path / "del.parquet")
    with caplog.at_level(logging.INFO, logger=_LOGGER):
        run_incremental(out, inputs["one"], mode="replace",
                        deletes=str(tmp_path / "del.parquet"))
    stage, refresh = _plans(caplog)
    assert (stage["phase"], refresh["phase"]) == ("stage", "refresh")
    assert stage["launched"] == [0, 1]
    assert stage["rows_in"] == one.num_rows + 5
    assert stage["task_wall_max_s"] > 0


def test_failed_stage_leaves_nothing(ray_session, tmp_path):
    """An update that breaks the token invariant fails in its stage task
    with the engine's error; no record, staged rows or tier change remain."""
    t = generate_input_table(1200, 4, seed=5)
    pq.write_table(t.slice(0, 900), tmp_path / "base.parquet")
    out = str(tmp_path / "out")
    run_checkpointed(str(tmp_path / "base.parquet"), out, fill=CFG, n_buckets=2)
    before = _norm(read_tier_output(out).to_pandas())
    manifest = lineage.read_manifest(out)
    upd = t.slice(900)
    n_tok = upd["n_tok"].to_numpy().copy()
    n_tok[0] += 1
    upd = upd.set_column(upd.column_names.index("n_tok"), "n_tok", pa.array(n_tok))
    pq.write_table(upd, tmp_path / "bad.parquet")
    with pytest.raises(EngineValueError, match="token-array invariant"):
        run_incremental(out, str(tmp_path / "bad.parquet"))
    assert lineage.read_manifest(out) == manifest
    assert os.listdir(os.path.join(out, "partials_updates")) == []
    pd.testing.assert_frame_equal(_norm(read_tier_output(out).to_pandas()), before)
