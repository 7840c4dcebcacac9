"""The coarse-key exchange (stages/exchange.py): one dtype-stable key hash,
``coarse_map_groups`` and the grouped-aggregate plan on top of it."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _null_int_key_blocks():
    # a pandas block of the first table holds k as float64 (5.0, NaN); the
    # second as int64: key 5 must still be one group
    b1 = pa.table({"k": pa.array([5, None], pa.int64()), "v": pa.array([1, 10])})
    b2 = pa.table({"k": pa.array([5, 7], pa.int64()), "v": pa.array([100, 1000])})
    return [b1, b2]


@pytest.mark.parametrize("n_buckets", [1, 3, 64])
@pytest.mark.parametrize("op", ["grouped_sum", "grouped_agg", "grouped_topk"])
def test_null_int_key_is_one_group(ray_session, op, n_buckets):
    import ray.data

    from datafiller_ray.stages.exchange import (
        grouped_agg,
        grouped_sum,
        grouped_topk,
    )

    ds = ray.data.from_arrow(_null_int_key_blocks())
    if op == "grouped_sum":
        out, want = grouped_sum(ds, "k", "v", n_buckets=n_buckets), 101
    elif op == "grouped_agg":
        out, want = grouped_agg(ds, "k", {"v": "sum"}, n_buckets=n_buckets), 101
    else:
        out = grouped_topk(ds, "k", "v", [], 1, n_buckets=n_buckets)
        want = 100
    df = out.to_pandas()
    got = sorted(
        (-1 if pd.isna(k) else int(k), int(v)) for k, v in zip(df["k"], df["v"])
    )
    assert got == [(-1, 10), (5, want), (7, 1000)]


def _two_key_frame(n: int = 3000) -> pd.DataFrame:
    rng = np.random.default_rng(23)
    return pd.DataFrame(
        {
            "k1": rng.integers(0, 12, n).astype(np.int64),
            "k2": pd.Series(rng.choice(["a", "bb", "c", None], n), dtype=object),
            "v": rng.integers(-50, 50, n).astype(np.int64),
        }
    )


def _sorted(df: pd.DataFrame, keys) -> pd.DataFrame:
    return df.sort_values(keys, na_position="last").reset_index(drop=True)


@pytest.mark.parametrize("n_buckets", [1, 3, 64])
@pytest.mark.parametrize("how", ["sum", "min", "max"])
def test_grouped_sum_matches_pandas(ray_session, how, n_buckets):
    import ray.data

    from datafiller_ray.stages.exchange import grouped_sum, key_hash

    df = _two_key_frame()
    want = _sorted(
        df.groupby(["k1", "k2"], dropna=False, as_index=False)["v"].agg(how),
        ["k1", "k2"],
    )
    for nparts in (1, 7):
        ds = ray.data.from_pandas(df).repartition(nparts)
        got = _sorted(
            grouped_sum(ds, ["k1", "k2"], "v", n_buckets=n_buckets, how=how)
            .to_pandas(),
            ["k1", "k2"],
        )
        assert got["v"].dtype == np.int64
        pd.testing.assert_frame_equal(got[["k1", "k2", "v"]], want)
        # swapped key order: the same rows
        swapped = _sorted(
            grouped_sum(ds, ["k2", "k1"], "v", n_buckets=n_buckets, how=how)
            .to_pandas(),
            ["k1", "k2"],
        )
        pd.testing.assert_frame_equal(swapped[["k1", "k2", "v"]], want)

    # ... through different buckets: the mix is order-sensitive, and every
    # key counts (one k1 value spreads over buckets by k2)
    t = pa.Table.from_pandas(df, preserve_index=False)
    a = key_hash(t, ["k1", "k2"]) % np.uint64(64)
    b = key_hash(t, ["k2", "k1"]) % np.uint64(64)
    assert (a != b).any()
    assert np.unique(a[df["k1"].to_numpy() == 0]).size > 1

    empty = ray.data.from_pandas(df.iloc[:0])
    assert grouped_sum(empty, ["k1", "k2"], "v", how=how).count() == 0


@pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
def test_coarse_map_groups_whole_groups(ray_session, batch_format):
    import ray.data

    from datafiller_ray.stages.exchange import coarse_map_groups

    rng = np.random.default_rng(5)
    keys = rng.integers(0, 50, 2000).astype(np.int64)
    df = pd.DataFrame({"k": keys, "v": np.ones(keys.size, np.int64)})
    ds = ray.data.from_pandas(df).repartition(7)

    def fn(g):
        g = g.to_pandas() if batch_format == "pyarrow" else g
        ks = np.unique(g["k"].to_numpy())
        counts = g.groupby("k")["v"].sum().loc[ks].to_numpy()
        return pd.DataFrame(
            {
                "k": ks,
                "n": counts,
                "cols": ",".join(g.columns),
                "call": int(ks[0]),
            }
        )

    out = coarse_map_groups(
        ds, "k", fn, n_buckets=3, batch_format=batch_format
    ).to_pandas()
    # every key reached exactly one fn call, with all of its rows
    assert out["k"].is_unique
    assert sorted(out["k"]) == sorted(np.unique(keys))
    want = df.groupby("k")["v"].sum()
    assert (out.set_index("k")["n"].sort_index() == want.sort_index()).all()
    # keys share calls (3 buckets for 50 keys) and fn never sees the bucket
    assert out["call"].nunique() <= 3
    assert set(out["cols"]) == {"k,v"}
