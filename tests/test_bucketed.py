"""The hash exchange (bucketed_map_groups) must equal an exchange-free
reference: the same kernel over all partial rows at once, on the driver."""

import glob
import logging
import os
import tempfile

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from datafiller_ray.config import FillConfig
from datafiller_ray.fixtures import generate_input_table
from datafiller_ray.pipelines.rollup import (
    bucketed_map_groups,
    partial_aggregates,
    rollup_tiers,
    rollup_tiers_bucketed,
)
from datafiller_ray.pipelines.window import (
    _per_source_group_fn,
    _rolling_one_source,
    _topk_one_source,
    rolling_aggregates,
    topk_buckets,
)
from datafiller_ray.stages.fill import fill_tiers, make_fill_group_fn


@pytest.fixture(scope="module")
def small_input(tmp_path_factory):
    path = tmp_path_factory.mktemp("bucketed") / "in.parquet"
    pq.write_table(generate_input_table(5000, 9, seed=11), path)
    return str(path)


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    cols = ["source", "tier", "bucket_ts", "count", "sum", "min", "max", "value", "filled", "fill_method"]
    return df[cols].sort_values(["tier", "source", "bucket_ts"]).reset_index(drop=True)


def _driver_partials(path) -> pd.DataFrame:
    return partial_aggregates(path, check_tokens=False).to_pandas()


def _fill_reference(path, cfg) -> pd.DataFrame:
    """Tier rows without an exchange: one ``fill_tiers`` call over all the
    partial rows. An exchange that drops, duplicates or splits an ``skey``
    group yields other rows."""
    return _norm(fill_tiers(_driver_partials(path), cfg).to_pandas())


def _window_reference(path, one_source) -> pd.DataFrame:
    """Window rows without an exchange: the op's group fn over all the
    partial rows as one frame."""
    return _per_source_group_fn(one_source)(_driver_partials(path))


def _sorted(df: pd.DataFrame, like: pd.DataFrame, key) -> pd.DataFrame:
    """``df`` in ``like``'s columns, sorted by ``key``."""
    return df[list(like.columns)].sort_values(key).reset_index(drop=True)


_CFGS = {
    "linear": FillConfig(strategy="linear", max_gap=8),
    "model": FillConfig(strategy="model", fallback="simple"),
    "none": FillConfig(strategy=None),
}


# n_buckets=None (derived from CPUs and bytes) keeps the bare config id; 64
# partitions exceed the fixture's 9 sources, so some partitions are empty
@pytest.mark.parametrize(
    "cfg_name,n_buckets",
    [(c, n) for n in (None, 1, 3, 64) for c in _CFGS],
    ids=[c if n is None else f"{c}-n{n}" for n in (None, 1, 3, 64) for c in _CFGS],
)
def test_bucketed_equals_plain(ray_session, small_input, cfg_name, n_buckets):
    cfg = _CFGS[cfg_name]
    got = rollup_tiers(small_input, fill=cfg, check_tokens=False, n_buckets=n_buckets)
    pd.testing.assert_frame_equal(
        _norm(got.to_pandas()), _fill_reference(small_input, cfg)
    )


def test_bucketed_empty_input(ray_session, tmp_path):
    path = str(tmp_path / "empty.parquet")
    pq.write_table(generate_input_table(5000, 9, seed=11).slice(0, 0), path)
    assert len(_driver_partials(path)) == 0  # so the reference has no rows
    cfg = FillConfig(strategy="linear", max_gap=8)
    for n in (None, 1, 3):
        ds = rollup_tiers_bucketed(path, fill=cfg, check_tokens=False, n_buckets=n)
        assert ds.count() == 0
        assert len(ds.to_pandas()) == 0
    assert len(rolling_aggregates(path, window=5).to_pandas()) == 0


@pytest.mark.parametrize("n_buckets", [0, -1])
def test_bucketed_rejects_bad_n_buckets(ray_session, small_input, n_buckets):
    from datafiller_ray.config import EngineValueError

    with pytest.raises(EngineValueError, match="n_buckets"):
        rollup_tiers_bucketed(small_input, check_tokens=False, n_buckets=n_buckets)


def test_bucketed_logs_exchange_plan(ray_session, small_input, caplog):
    import ray

    cfg = FillConfig(strategy="linear", max_gap=8)
    with caplog.at_level(logging.INFO, logger="datafiller_ray.pipelines.rollup"):
        rollup_tiers_bucketed(small_input, fill=cfg, check_tokens=False)
        rollup_tiers_bucketed(small_input, fill=cfg, check_tokens=False, n_buckets=3)
    plans = [r.plan for r in caplog.records if hasattr(r, "plan")]
    assert len(plans) == 2
    derived, explicit = plans
    # the fixture's partials are far below one target block, so the derived
    # partition count is 4x the session's CPU count (conftest: num_cpus=4)
    assert ray.cluster_resources()["CPU"] == 4
    assert derived["derived"] and derived["cpus"] == 4 and derived["n"] == 16
    assert 0 < derived["partial_bytes"] < 1 << 20
    assert derived["blocks"] >= 1
    assert not explicit["derived"] and explicit["n"] == 3
    # rows per partition: the partition skew, after the split
    skey = partial_aggregates(small_input, check_tokens=False).to_pandas()["skey"]
    for plan in plans:
        part = skey.to_numpy().view(np.uint64) % np.uint64(plan["n"])
        counts = np.bincount(part.astype(np.int64), minlength=plan["n"])
        assert plan["rows_total"] == len(skey) == counts.sum()
        assert plan["rows_max"] == counts.max()
        assert plan["partitions_nonempty"] == np.count_nonzero(counts)
    assert explicit["partitions_nonempty"] == 3


def test_bucketed_streams_output_in_target_blocks(ray_session, small_input, caplog):
    import math

    from ray.data import DataContext

    cfg = FillConfig(strategy="linear", max_gap=8)
    a = _fill_reference(small_input, cfg)
    ctx = DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 8 * 1024
    try:
        # one reduce task streams its densified output in ~8 KiB blocks
        one = rollup_tiers_bucketed(small_input, fill=cfg, check_tokens=False, n_buckets=1)
        assert one.num_blocks() > 1
        pd.testing.assert_frame_equal(a, _norm(one.to_pandas()))
        # partials above 16 target blocks lift the derived n past 4x CPUs
        with caplog.at_level(logging.INFO, logger="datafiller_ray.pipelines.rollup"):
            rollup_tiers_bucketed(small_input, fill=cfg, check_tokens=False)
        (plan,) = [r.plan for r in caplog.records if hasattr(r, "plan")]
    finally:
        ctx.target_max_block_size = saved
    assert plan["partial_bytes"] > 16 * 8 * 1024
    assert plan["n"] == math.ceil(plan["partial_bytes"] / (8 * 1024))


def test_bucketed_leaves_no_scratch_dirs(ray_session, small_input):
    def shuffle_dirs():
        return set(glob.glob(os.path.join(tempfile.gettempdir(), "datafiller_ray_shuffle_*")))

    before = shuffle_dirs()
    cfg = FillConfig(strategy="linear", max_gap=8)
    assert rollup_tiers_bucketed(small_input, fill=cfg, check_tokens=False).count() > 0
    assert rolling_aggregates(small_input, window=5).count() > 0
    assert shuffle_dirs() - before == set()


def test_bucketed_blob_emit(ray_session, small_input, tmp_path):
    from datafiller_ray.stages.compress import decode_tier_chunk

    cfg = FillConfig(strategy="linear", max_gap=8)
    blobs = rollup_tiers_bucketed(
        small_input, fill=cfg, check_tokens=False, emit="blobs",
        n_buckets=5,
    ).to_pandas()
    rows = _fill_reference(small_input, cfg)
    assert len(blobs) == rows.groupby(["source", "tier"]).ngroups
    decoded = pd.concat(
        [decode_tier_chunk(r) for r in blobs.to_dict("records")], ignore_index=True
    )
    cols = ["source", "tier", "bucket_ts", "count", "sum", "min", "max", "value"]
    pd.testing.assert_frame_equal(
        _norm(decoded.assign(filled=False, fill_method=""))[cols],
        rows[cols],
        check_dtype=False,
    )


@pytest.fixture
def block_target(request):
    """Set ``DataContext.target_max_block_size`` for one test (None keeps
    the default)."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    saved = ctx.target_max_block_size
    if request.param is not None:
        ctx.target_max_block_size = request.param
    yield request.param
    ctx.target_max_block_size = saved


def _tagged_fill(cfg):
    """The bucketed rollup's fill fn, tagging its output rows with a per-call
    id, so a test can count the calls and the groups each one got."""
    fill = make_fill_group_fn(cfg, batch_format="pyarrow")

    def fn(run):
        import uuid

        import pyarrow as pa

        out = fill(run)
        return out.append_column("call", pa.array([uuid.uuid4().hex] * out.num_rows))

    return fn


def _calls(out: pd.DataFrame) -> pd.Series:
    """Calls per source; a source in two calls is an ``skey`` group split."""
    per_source = out.groupby("source")["call"].nunique()
    assert (per_source == 1).all(), "an skey group was split across calls"
    return out.groupby("call")["source"].nunique()


def test_reduce_calls_fn_once_per_partition(ray_session, small_input, caplog):
    cfg = FillConfig(strategy="linear", max_gap=8)
    partials = partial_aggregates(small_input, check_tokens=False)
    with caplog.at_level(logging.INFO, logger="datafiller_ray.pipelines.rollup"):
        out = bucketed_map_groups(partials, _tagged_fill(cfg), n_buckets=3)
    (plan,) = [r.plan for r in caplog.records if hasattr(r, "plan")]
    out = out.to_pandas()
    assert len(_calls(out)) == plan["partitions_nonempty"] == 3
    pd.testing.assert_frame_equal(_norm(out), _fill_reference(small_input, cfg))


@pytest.mark.parametrize("block_target", [8 * 1024], indirect=True)
def test_reduce_runs_close_at_the_block_target(ray_session, small_input, block_target):
    cfg = FillConfig(strategy="linear", max_gap=8)
    partials = partial_aggregates(small_input, check_tokens=False)
    ds = bucketed_map_groups(partials, _tagged_fill(cfg), n_buckets=1)
    assert ds.num_blocks() > 1
    out = ds.to_pandas()
    assert len(_calls(out)) > 1  # one partition, several runs
    pd.testing.assert_frame_equal(_norm(out), _fill_reference(small_input, cfg))


def test_skey_collision_inside_one_run_keeps_two_series(ray_session, small_input):
    import pyarrow as pa
    import ray.data

    cfg = FillConfig(strategy="linear", max_gap=8)
    partials = partial_aggregates(small_input, check_tokens=False).to_pandas()
    srcs = sorted(partials["source"].unique())
    a_key = partials.loc[partials["source"] == srcs[0], "skey"].iloc[0]
    partials.loc[partials["source"] == srcs[1], "skey"] = a_key
    fn = make_fill_group_fn(cfg, batch_format="pyarrow")
    forced = ray.data.from_arrow(pa.Table.from_pandas(partials, preserve_index=False))
    got = bucketed_map_groups(forced, fn, n_buckets=2)
    got = _norm(got.to_pandas())
    pd.testing.assert_frame_equal(got, _norm(fill_tiers(partials, cfg).to_pandas()))
    per_source = got[got["source"].isin(srcs[:2])].groupby("source")
    assert per_source.ngroups == 2
    # each collided source keeps its own series: its own first bucket
    for src, g in per_source:
        first = partials.loc[partials["source"] == src, "bucket_ts"].min()
        assert g.loc[g["tier"] == "1m", "bucket_ts"].min() == first


@pytest.mark.parametrize("block_target", [None, 8 * 1024], indirect=True)
def test_bucketed_window_ops_equal_sort(ray_session, small_input, block_target):
    for ds, one_source in (
        (
            rolling_aggregates(small_input, window=5),
            lambda obs, src: _rolling_one_source(obs, src, 5),
        ),
        (
            topk_buckets(small_input, k=3),
            lambda obs, src: _topk_one_source(obs, src, 3),
        ),
    ):
        want = _window_reference(small_input, one_source)
        key = list(want.columns)
        pd.testing.assert_frame_equal(
            _sorted(ds.to_pandas(), want, key), _sorted(want, want, key)
        )


def test_pandas_partials_equal_arrow(ray_session, small_input):
    """The exchange's split accepts pandas blocks as well as Arrow ones."""
    import pyarrow as pa
    import ray.data

    cfg = FillConfig(strategy="linear", max_gap=8)
    partials = _driver_partials(small_input)
    fn = make_fill_group_fn(cfg, batch_format="pyarrow")
    arrow = ray.data.from_arrow(pa.Table.from_pandas(partials, preserve_index=False))
    pdf = ray.data.from_pandas(partials)
    want = _norm(bucketed_map_groups(arrow, fn, n_buckets=3).to_pandas())
    pd.testing.assert_frame_equal(
        _norm(bucketed_map_groups(pdf, fn, n_buckets=3).to_pandas()), want
    )


# one exchange per op: the flagship fill and a window op over the
# partial-row contract, each with its exchange-free reference and row key
_OPS = {
    "rollup_tiers": (
        lambda path: rollup_tiers(path, fill=_CFGS["linear"], check_tokens=False),
        lambda partials: fill_tiers(partials, _CFGS["linear"]).to_pandas(),
        ["tier", "source", "bucket_ts"],
    ),
    "rolling_aggregates": (
        lambda path: rolling_aggregates(path, window=5),
        _per_source_group_fn(lambda obs, src: _rolling_one_source(obs, src, 5)),
        ["source", "bucket_ts"],
    ),
}


@pytest.mark.parametrize("op", list(_OPS))
def test_op_hot_key_matches_reference(ray_session, tmp_path, caplog, op):
    """One source: every partial row lands in one partition, through the
    op's one exchange (one plan record)."""
    run, reference, key = _OPS[op]
    t = generate_input_table(3000, 1, seed=5)
    for i in range(3):  # several partial blocks, one minute may span two
        pq.write_table(t.slice(i * 1000, 1000), tmp_path / f"part-{i}.parquet")
    path = str(tmp_path)
    with caplog.at_level(logging.INFO, logger="datafiller_ray.pipelines.rollup"):
        got = run(path).to_pandas()
    (plan,) = [r.plan for r in caplog.records if hasattr(r, "plan")]
    assert plan["blocks"] == 3 and plan["partitions_nonempty"] == 1
    assert plan["rows_max"] == plan["rows_total"]
    want = reference(_driver_partials(path))
    assert got["source"].nunique() == 1
    pd.testing.assert_frame_equal(_sorted(got, want, key), _sorted(want, want, key))


def test_grouped_topk_matches_brute_force(ray_session):
    import ray.data

    from datafiller_ray.stages.exchange import grouped_topk

    rng = np.random.default_rng(5)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c", "d"], 400),
            "h": rng.integers(0, 3, 400),
            "v": rng.integers(0, 40, 400),
            "id": [f"r{i:04d}" for i in range(400)],
        }
    )
    for nparts in (1, 7):
        ds = ray.data.from_pandas(df).repartition(nparts)
        out = (
            grouped_topk(ds, ["g", "h"], "v", ["id"], 2, n_buckets=8)
            .to_pandas()
            .sort_values(["g", "h", "rnk"])
            .reset_index(drop=True)
        )
        bf = (
            df.sort_values(["g", "h", "v", "id"], ascending=[True, True, False, True])
            .groupby(["g", "h"])
            .head(2)
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(out[["g", "h", "v", "id"]], bf)

    # ascending variant: first row per group by (v ASC, id ASC)
    ds = ray.data.from_pandas(df).repartition(5)
    out = grouped_topk(
        ds, "g", "v", ["id"], 1, descending=False
    ).to_pandas()
    bf = (
        df.sort_values(["g", "v", "id"]).groupby("g").head(1).sort_values("g")
    )
    assert out.sort_values("g")["id"].tolist() == bf["id"].tolist()


def test_grouped_topk_guards():
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.exchange import grouped_topk

    with pytest.raises(EngineValueError):
        grouped_topk(None, "g", "v", [], 0)
    with pytest.raises(EngineValueError):
        grouped_topk(None, "_gk", "v", [], 1)


def test_grouped_agg_mixed_reductions_match_pandas(ray_session):
    import ray.data

    from datafiller_ray.stages.exchange import grouped_agg

    rng = np.random.default_rng(11)
    df = pd.DataFrame(
        {
            "k1": rng.integers(0, 40, 5000).astype(np.int64),
            "k2": rng.choice(["a", "b", "c"], 5000).astype(object),
            "s": rng.integers(-100, 100, 5000).astype(np.int64),
            "mn": rng.integers(0, 10**9, 5000).astype(np.int64),
            "mx": rng.integers(-(10**9), 0, 5000).astype(np.int64),
        }
    )
    got = (
        grouped_agg(
            ray.data.from_pandas(df).repartition(7),
            ["k1", "k2"],
            {"s": "sum", "mn": "min", "mx": "max"},
        )
        .to_pandas()
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    want = (
        df.groupby(["k1", "k2"], as_index=False)
        .agg({"s": "sum", "mn": "min", "mx": "max"})
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["k1", "k2", "s", "mn", "mx"]], want, check_dtype=False
    )


def test_grouped_agg_guards(ray_session):
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.exchange import grouped_agg

    with pytest.raises(EngineValueError):
        grouped_agg(None, [], {"v": "sum"})
    with pytest.raises(EngineValueError):
        grouped_agg(None, "k", {})
    with pytest.raises(EngineValueError):
        grouped_agg(None, "k", {"v": "mean"})  # non-associative
    with pytest.raises(EngineValueError):
        grouped_agg(None, "_gk", {"v": "sum"})


def test_sql_ntile_matches_duckdb():
    import duckdb

    from __ray_entry__ import _sql_ntile

    rng = np.random.default_rng(5)
    for n in (1, 4, 5, 7, 23, 100):
        v = rng.integers(0, 10, n).astype(np.int64)
        ids = np.arange(n, dtype=np.int64)
        df = pd.DataFrame({"id": ids, "v": v})
        want = duckdb.sql(
            "SELECT id, NTILE(5) OVER (ORDER BY v DESC, id) AS t FROM df"
        ).df()
        order = np.lexsort((ids, -v))
        rank0 = np.empty(n, dtype=np.int64)
        rank0[order] = np.arange(n)
        got = _sql_ntile(rank0, n, 5)
        assert got.tolist() == want.sort_values("id")["t"].tolist()
