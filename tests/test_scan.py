"""The Parquet scan: one fused read + partial-agg task per input file for
``partial_aggregates``, Ray Data's split read for the other readers, and the
plan record that says which was chosen."""

import logging

import pyarrow.parquet as pq
import pytest

from datafiller_ray.config import EngineValueError
from datafiller_ray.fixtures import generate_input_table
from datafiller_ray.pipelines.rollup import partial_aggregates, read_input

_LOGGER = "datafiller_ray.pipelines.rollup"


def _write_files(d, n_files: int, rows_per_file: int = 400) -> str:
    t = generate_input_table(n_files * rows_per_file, 5, seed=3)
    for i in range(n_files):
        pq.write_table(
            t.slice(i * rows_per_file, rows_per_file), d / f"part-{i:05d}.parquet"
        )
    return str(d)


def _scan_plans(caplog) -> list:
    return [r.scan for r in caplog.records if hasattr(r, "scan")]


# conftest's session has 4 CPUs: the read fuses above and below that count
@pytest.mark.parametrize("n_files", [8, 2])
def test_scan_fuses_read_with_partial_agg_per_file(
    ray_session, tmp_path, caplog, n_files
):
    path = _write_files(tmp_path, n_files)
    with caplog.at_level(logging.INFO, logger=_LOGGER):
        partials = partial_aggregates(path).materialize()
    assert _scan_plans(caplog) == [{"files": n_files, "fused": True}]
    assert partials.num_blocks() == n_files
    assert "ReadParquet->MapBatches(partial_agg)" in partials.stats()


def test_other_readers_keep_the_split_read(ray_session, tmp_path, caplog):
    path = _write_files(tmp_path, 2)
    with caplog.at_level(logging.INFO, logger=_LOGGER):
        ds = read_input(path, with_tokens=False).materialize()
    assert _scan_plans(caplog) == [{"files": 2, "fused": False}]
    assert ds.num_blocks() > 2


def test_scan_result_does_not_depend_on_the_plan(ray_session, tmp_path):
    # the fused read and Ray Data's split read of the same files give the
    # same partial rows once the per-block partials are combined
    path = _write_files(tmp_path, 2, rows_per_file=1600)
    split = read_input(path)

    def combined(ds_or_path):
        df = partial_aggregates(ds_or_path).to_pandas()
        return (
            df.groupby(["source", "bucket_ts"])
            .agg({"count": "sum", "sum": "sum", "min": "min", "max": "max"})
            .sort_index()
        )

    split_partials = partial_aggregates(split).materialize()
    assert "ReadParquet->MapBatches" not in split_partials.stats()
    assert split_partials.num_blocks() > 2
    assert combined(path).equals(combined(split))


@pytest.mark.parametrize("runner", ["checkpointed", "incremental"])
def test_checkpoint_scans_reject_missing_contract_columns(
    ray_session, tmp_path, runner
):
    from datafiller_ray.pipelines.checkpoint import run_checkpointed, run_incremental

    bad = tmp_path / "bad.parquet"
    pq.write_table(generate_input_table(200, 2, seed=1).drop_columns(["n_tok"]), bad)
    out = str(tmp_path / "out")
    if runner == "incremental":
        good = tmp_path / "good.parquet"
        pq.write_table(generate_input_table(200, 2, seed=1), good)
        run_checkpointed(str(good), out, n_buckets=2)
    with pytest.raises(EngineValueError, match="missing contract columns"):
        if runner == "checkpointed":
            run_checkpointed(str(bad), out, n_buckets=2)
        else:
            run_incremental(out, str(bad))


def test_parquet_info_returns_none_only_for_unopenable_paths(tmp_path):
    from datafiller_ray.pipelines.rollup import _parquet_info

    assert _parquet_info(str(tmp_path / "missing")) is None  # FileNotFoundError
    junk = tmp_path / "junk.parquet"
    junk.write_text("not parquet")
    assert _parquet_info(str(junk)) is None  # ArrowInvalid
    good = tmp_path / "good"
    good.mkdir()
    _write_files(good, 3, rows_per_file=10)
    schema, files = _parquet_info(str(good))
    assert files == 3 and "tokens" in schema.names
    with pytest.raises(TypeError):  # not a path: a bug, not a fallback
        _parquet_info(42)
