"""The columnar fill kernel (stages/fill.py ``fill_tiers``) against a
per-series reference: one ``apply_fill`` call per (source, tier), built the
way the engine filled before the kernel existed. The kernel must give the
same rows in the same order, bit for bit, for every strategy."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from datafiller_ray.config import TIER_STEPS, FillConfig, RetentionConfig
from datafiller_ray.fixtures import generate_input_table
from datafiller_ray.functions.gapfill import METHOD_NAMES
from datafiller_ray.stages.compress import encode_tier_chunks
from datafiller_ray.stages.fill import (
    TIER_COLUMNS,
    apply_fill,
    fill_tiers,
    make_fill_group_fn,
)
from datafiller_ray.stages.validate import make_partial_agg_fn
from tests.oracle.reference import assert_tier_rows_equal, oracle_tier_rows

STRATEGIES = [None, "linear", "locf", "nearest", "bfill", "mean", "spline", "seasonal", "model"]
TIERS = {t: TIER_STEPS[t] for t in ("1m", "1h", "1d")}


def _agg(g: pd.DataFrame) -> pd.DataFrame:
    return g.groupby("bucket_ts").agg(
        count=("count", "sum"), sum=("sum", "sum"), min=("min", "min"), max=("max", "max")
    )


def reference_rows(partials: pd.DataFrame, cfg: FillConfig, tiers=TIERS, retention=None):
    """One series at a time: combine, cascade, densify, ``apply_fill``."""
    out = []
    for (_, source), g in partials.groupby(["skey", "source"], sort=True):
        minute = _agg(g)
        for tier, step in tiers.items():
            obs = minute if step == 60 else _agg(
                minute.reset_index().assign(bucket_ts=lambda d: d["bucket_ts"] - d["bucket_ts"] % step)
            )
            grid = np.arange(obs.index[0], obs.index[-1] + step, step, dtype=np.int64)
            dense = obs.reindex(grid)
            y = dense["sum"].to_numpy(np.float64)
            value, codes = apply_fill(y, grid, cfg)
            filled = codes != 0
            count = dense["count"].fillna(0).to_numpy(np.int64)
            cells = {c: dense[c].to_numpy(np.float64) for c in ("sum", "min", "max")}
            for c in cells.values():
                c[filled] = np.round(value[filled])
            method = np.array([METHOD_NAMES[c] for c in codes], dtype=object)
            method[(count == 0) & ~filled] = "none"
            rows = pd.DataFrame({
                "source": np.full(grid.size, source, dtype=object),
                "tier": np.full(grid.size, tier, dtype=object),
                "bucket_ts": grid, "count": count, **cells,
                "value": value, "filled": filled, "fill_method": method,
            })
            if retention is not None:
                lo, hi = retention.bounds(tier)
                rows = rows[(rows["bucket_ts"] >= (lo if lo is not None else -2**62))
                            & (rows["bucket_ts"] < (hi if hi is not None else 2**62))]
            out.append(rows)
    return pd.concat(out, ignore_index=True)


@pytest.fixture(scope="module")
def partials() -> pd.DataFrame:
    """Partials of two input halves, so minutes have several partial rows
    to combine, shuffled out of any order the kernel could rely on."""
    table = generate_input_table(3000, 7, seed=41, with_tokens=False)
    agg = make_partial_agg_fn(check_tokens=False)
    half = table.num_rows // 2
    parts = pd.concat(
        [agg(table.slice(0, half)).to_pandas(), agg(table.slice(half)).to_pandas()],
        ignore_index=True,
    )
    return parts.sample(frac=1.0, random_state=3).reset_index(drop=True)


def _assert_same(got, want: pd.DataFrame) -> None:
    if isinstance(got, pa.Table):
        got = got.to_pandas()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_exact=True
    )


@pytest.mark.parametrize("fallback", [None, "simple"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_kernel_matches_per_series_reference(partials, strategy, fallback):
    cfg = FillConfig(strategy, max_gap=4, fallback=fallback)
    want = reference_rows(partials, cfg)
    _assert_same(fill_tiers(partials, cfg), want)
    # the per-skey group fn is the same kernel on one group at a time
    fn = make_fill_group_fn(cfg)
    groups = [fn(g) for _, g in partials.groupby("skey", sort=True)]
    _assert_same(pd.concat(groups, ignore_index=True), want)


@pytest.mark.parametrize("strategy", ["linear", "seasonal"])
def test_arrow_input_and_null_cells(partials, strategy):
    cfg = FillConfig(strategy, max_gap=4)
    table = fill_tiers(pa.Table.from_pandas(partials, preserve_index=False), cfg)
    assert table.equals(fill_tiers(partials, cfg))
    want = reference_rows(partials, cfg)
    # unfilled gaps are null, as pa.Table.from_pandas writes them
    assert table["sum"].null_count == int(want["sum"].isna().sum()) > 0
    assert table.equals(pa.Table.from_pandas(want, preserve_index=False).replace_schema_metadata())


def test_retention_bounds(partials):
    ts = np.sort(partials["bucket_ts"].unique())
    hour = int(ts[len(ts) * 3 // 4]) // 3600 * 3600  # a bound on the 1h grid
    retention = RetentionConfig({"1m": (int(ts[len(ts) // 2]), None), "1h": (None, hour)})
    cfg = FillConfig("linear", max_gap=4)
    want = reference_rows(partials, cfg, retention=retention)
    assert len(want) < len(reference_rows(partials, cfg))
    _assert_same(fill_tiers(partials, cfg, retention=retention), want)


def test_dict_tiers(partials):
    """The inferred path's custom steps: a {name: seconds} mapping."""
    tiers = {"300s": 300, "2h": 7200}
    cfg = FillConfig("locf", max_gap=2, fallback="simple")
    _assert_same(fill_tiers(partials, cfg, tiers), reference_rows(partials, cfg, tiers))


def test_blob_emit(partials):
    cfg = FillConfig("nearest", max_gap=3)
    fn = make_fill_group_fn(cfg, emit="blobs")
    got = pd.concat([fn(g) for _, g in partials.groupby("skey", sort=True)], ignore_index=True)
    want = pd.concat(
        [encode_tier_chunks(reference_rows(g, cfg)) for _, g in partials.groupby("skey", sort=True)],
        ignore_index=True,
    )
    _assert_same(got, want)


def test_skey_collision_keeps_sources_apart(partials):
    """Two sources forced onto one skey stay two series, ordered by source."""
    srcs = sorted(partials["source"].unique())
    forced = partials.copy()
    a_key = forced.loc[forced["source"] == srcs[0], "skey"].iloc[0]
    forced.loc[forced["source"] == srcs[1], "skey"] = a_key
    cfg = FillConfig("linear", max_gap=4)
    got = fill_tiers(forced, cfg).to_pandas()
    _assert_same(got, reference_rows(forced, cfg))
    collided = got[got["source"].isin(srcs[:2])]
    assert collided["source"].iloc[0] == srcs[0]
    assert set(collided["source"]) == set(srcs[:2])
    one = forced[forced["skey"] == a_key]
    _assert_same(make_fill_group_fn(cfg)(one), reference_rows(one, cfg))


def test_one_bucket_series(partials):
    single = partials[partials["source"] == partials["source"].iloc[0]].head(1)
    both = pd.concat([single.assign(source="lonely", skey=-5), partials], ignore_index=True)
    for cfg in (FillConfig("linear", max_gap=4), FillConfig("mean", fallback="simple")):
        got = fill_tiers(both, cfg).to_pandas()
        _assert_same(got, reference_rows(both, cfg))
        lonely = got[got["source"] == "lonely"]
        assert lonely["tier"].tolist() == ["1m", "1h", "1d"]
        assert not lonely["filled"].any()


def test_empty_frame(partials):
    cfg = FillConfig("linear", max_gap=4)
    got = fill_tiers(partials.iloc[0:0], cfg)
    assert got.num_rows == 0 and got.column_names == TIER_COLUMNS
    assert got.schema == fill_tiers(partials, cfg).schema
    arrow_in = pa.Table.from_pandas(partials.iloc[0:0], preserve_index=False)
    assert fill_tiers(arrow_in, cfg).schema == got.schema
    assert make_fill_group_fn(cfg)(partials.iloc[0:0]).empty


@pytest.mark.parametrize("max_gap", [None, 3])
def test_linear_matches_pandas_oracle(max_gap):
    table = generate_input_table(2500, 6, seed=43, with_tokens=False)
    partials = make_partial_agg_fn(check_tokens=False)(table).to_pandas()
    got = fill_tiers(partials, FillConfig("linear", max_gap=max_gap)).to_pandas()
    assert_tier_rows_equal(
        got, oracle_tier_rows(table, tiers=TIERS, strategy="linear", max_gap=max_gap)
    )
