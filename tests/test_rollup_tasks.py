"""The rollup's plain-task path: the per-file scan tasks of
``rollup_tiers(path)``, the exchange they feed, and ``write_tiers``' one
write task per block — their errors, retries and output layout, and that
no Ray Data read or write operator runs on the way."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import pytest

from datafiller_ray.config import EngineValueError, FillConfig
from datafiller_ray.fixtures import generate_input_table
from datafiller_ray.pipelines import rollup
from datafiller_ray.pipelines.rollup import rollup_tiers, write_tiers

CFG = FillConfig(strategy="linear", max_gap=5)
_COLS = ["source", "tier", "bucket_ts", "count", "sum", "min", "max", "value", "filled"]


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("rollup_tasks")
    t = generate_input_table(3000, 6, seed=7)
    for i in range(3):
        pq.write_table(t.slice(i * 1000, 1000), d / f"part-{i}.parquet")
    return str(d)


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[_COLS].assign(tier=df["tier"].astype(str))
    return df.sort_values(["tier", "source", "bucket_ts"]).reset_index(drop=True)


def _written(out: str) -> pd.DataFrame:
    return pds.dataset(out, partitioning="hive").to_table().to_pandas()


def test_scan_token_violation_reaches_the_caller(ray_session, tmp_path):
    t = generate_input_table(600, 3, seed=2)
    pq.write_table(t.slice(0, 300), tmp_path / "ok.parquet")
    bad = t.slice(300)
    n_tok = bad["n_tok"].to_numpy().copy()
    n_tok[0] += 1
    bad = bad.set_column(bad.column_names.index("n_tok"), "n_tok", pa.array(n_tok))
    pq.write_table(bad, tmp_path / "bad.parquet")
    with pytest.raises(EngineValueError, match="token-array invariant"):
        rollup_tiers(str(tmp_path), fill=CFG)


def _kill_once(flag_path, scan):
    def scan_file(path, check_tokens=True):
        try:
            os.close(os.open(flag_path, os.O_CREAT | os.O_EXCL))
            # a lost worker: Ray reschedules the scan task, the retry passes
            os._exit(1)
        except FileExistsError:
            pass
        return scan(path, check_tokens)

    return scan_file


def test_scan_retries_a_lost_worker(ray_session, input_dir, tmp_path, monkeypatch):
    clean = _norm(rollup_tiers(input_dir, fill=CFG).to_pandas())
    flag = str(tmp_path / "killed_once")
    monkeypatch.setattr(rollup, "scan_file", _kill_once(flag, rollup.scan_file))
    got = _norm(rollup_tiers(input_dir, fill=CFG).to_pandas())
    assert os.path.exists(flag), "the fault was never injected"
    pd.testing.assert_frame_equal(got, clean)


def test_two_writes_into_one_dir_keep_both(ray_session, input_dir, tmp_path):
    ds = rollup_tiers(input_dir, fill=CFG)
    rows = _norm(ds.to_pandas())
    out = str(tmp_path / "out")
    write_tiers(ds, out)
    files = sorted(os.listdir(os.path.join(out, "tier=1m")))
    assert sorted(os.listdir(out)) == ["tier=1d", "tier=1h", "tier=1m"]
    pd.testing.assert_frame_equal(_norm(_written(out)), rows)
    # the second write is lazy: its blocks stream into write tasks
    write_tiers(ds.map_batches(lambda b: b, batch_format="pyarrow"), out)
    assert set(files) < set(os.listdir(os.path.join(out, "tier=1m")))
    twice = _norm(pd.concat([rows, rows], ignore_index=True))
    pd.testing.assert_frame_equal(_norm(_written(out)), twice)


def test_empty_dataset_writes_nothing(ray_session, tmp_path):
    import ray.data

    empty = pa.table({"source": pa.array([], pa.string()),
                      "tier": pa.array([], pa.string())})
    for i, ds in enumerate([
        ray.data.from_arrow(empty),
        ray.data.from_arrow(empty).materialize(),
        ray.data.range(10).filter(lambda r: False),
    ]):
        out = str(tmp_path / f"out{i}")
        write_tiers(ds, out)
        assert not os.path.exists(out)


def test_rollup_and_sink_start_no_read_or_write_operator(
    ray_session, input_dir, tmp_path, monkeypatch
):
    """``rollup_tiers(path)`` + ``write_tiers`` run on plain Ray tasks: no
    Ray Data executor reads the Parquet input or writes the tiers."""
    from ray.data._internal.plan import ExecutionPlan

    ops = []
    create = ExecutionPlan.create_executor

    def recording(self):
        ops.extend(op.name for op in self._logical_plan.dag.post_order_iter())
        return create(self)

    monkeypatch.setattr(ExecutionPlan, "create_executor", recording)
    write_tiers(rollup_tiers(input_dir, fill=CFG), str(tmp_path / "out"))
    assert os.listdir(tmp_path / "out")
    assert [op for op in ops if "ReadParquet" in op or "Write" in op] == []


class _SplitRecorder:
    """Stands in for ``rollup._split_by_skey``: records the ``n`` of every
    split task launched, then launches it."""

    def __init__(self, task):
        self.task, self.launched = task, []

    def options(self, **kw):
        from types import SimpleNamespace

        task = self.task.options(**kw)

        def remote(n, *pieces):
            self.launched.append(n)
            return task.remote(n, *pieces)

        return SimpleNamespace(remote=remote)


def _plans(caplog) -> list:
    return [r.plan for r in caplog.records if hasattr(r, "plan")]


def test_scan_tasks_split_their_own_partials(
    ray_session, input_dir, caplog, monkeypatch
):
    """With ``n`` equal to the scan's cut (derived from the CPUs, or given),
    the reduce tasks take the scan tasks' pieces: no split task runs."""
    from datafiller_ray.pipelines.rollup import bucketed_map_groups, partial_aggregates
    from datafiller_ray.stages.fill import make_fill_group_fn

    want = _norm(rollup_tiers(input_dir, fill=CFG, n_buckets=1).to_pandas())
    rec = _SplitRecorder(rollup._split_by_skey)
    monkeypatch.setattr(rollup, "_split_by_skey", rec)
    with caplog.at_level("INFO", logger="datafiller_ray.pipelines.rollup"):
        for n in (None, 1, 3, 64):
            got = rollup_tiers(input_dir, fill=CFG, n_buckets=n)
            pd.testing.assert_frame_equal(_norm(got.to_pandas()), want)
        partials = partial_aggregates(input_dir)
    assert rec.launched == []
    assert [p["n"] for p in _plans(caplog)] == [16, 1, 3, 64]  # 4 CPUs
    assert partials.num_blocks() == 3  # one uncut block per file
    # a Dataset's blocks are still split by one task each
    fn = make_fill_group_fn(CFG, batch_format="pyarrow")
    got = bucketed_map_groups(partials, fn, n_buckets=3)
    assert rec.launched == [3, 3, 3]
    pd.testing.assert_frame_equal(_norm(got.to_pandas()), want)


def test_resplit_above_the_scan_cut(ray_session, input_dir, caplog, monkeypatch):
    """Partials above ``4 x CPUs`` target blocks lift ``n`` past the scan's
    cut: one task per block regroups its pieces, and the rows and the plan
    equal a split of the whole partial blocks at that ``n``."""
    from ray.data import DataContext

    from datafiller_ray.pipelines.rollup import bucketed_map_groups, partial_aggregates
    from datafiller_ray.stages.fill import make_fill_group_fn

    want = _norm(rollup_tiers(input_dir, fill=CFG, n_buckets=1).to_pandas())
    rec = _SplitRecorder(rollup._split_by_skey)
    monkeypatch.setattr(rollup, "_split_by_skey", rec)
    ctx = DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 8 * 1024
    try:
        with caplog.at_level("INFO", logger="datafiller_ray.pipelines.rollup"):
            got = rollup_tiers(input_dir, fill=CFG)
            fused_launches = list(rec.launched)
            fn = make_fill_group_fn(CFG, batch_format="pyarrow")
            whole = bucketed_map_groups(partial_aggregates(input_dir), fn)
    finally:
        ctx.target_max_block_size = saved
    fused, split = _plans(caplog)
    assert fused["n"] > 16 and fused["derived"]
    assert fused_launches == [fused["n"]] * 3  # one re-split task per file
    pd.testing.assert_frame_equal(_norm(got.to_pandas()), want)
    pd.testing.assert_frame_equal(_norm(whole.to_pandas()), want)
    # the bytes are the scan tables' own, as a split of whole blocks read
    # them before the scan cut its pieces; the Dataset's blocks were
    # serialized, which may trim their buffers
    files = rollup.parquet_files(input_dir, rollup.INPUT_COLUMNS)
    assert fused.pop("partial_bytes") == sum(rollup.scan_file(f).nbytes for f in files)
    split.pop("partial_bytes")
    assert fused == split
