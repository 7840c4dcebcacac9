"""asof_join / range_join unit tests (pipelines/joins.py).

Pinned against pandas.merge_asof and brute-force interval scans on seeded
random data; plus the edge/validation contract.
"""

import numpy as np
import pandas as pd
import pytest
import ray.data

from datafiller_ray.config import EngineValueError
from datafiller_ray.pipelines.joins import asof_join, range_join


def _frames(seed=0, n_l=400, n_r=250, keys=10):
    rng = np.random.default_rng(seed)
    L = pd.DataFrame(
        {
            "k": rng.integers(0, keys, n_l),
            "t": rng.integers(0, 10_000, n_l),
            "lid": np.arange(n_l),
        }
    )
    R = pd.DataFrame(
        {
            "k": rng.integers(0, keys + 2, n_r),
            "t": rng.integers(0, 10_000, n_r),
            "val": rng.normal(size=n_r),
        }
    ).drop_duplicates(["k", "t"])
    return L, R


def _expected_asof(L, R, direction, tolerance=None):
    exp = pd.merge_asof(
        L.sort_values("t"),
        R.sort_values("t"),
        on="t",
        by="k",
        direction=direction,
        tolerance=tolerance,
        suffixes=("", "_r"),
    )
    return exp.dropna(subset=["val"]).sort_values("lid").reset_index(drop=True)


@pytest.mark.parametrize("direction", ["backward", "forward"])
@pytest.mark.parametrize("seed", [0, 7])
def test_asof_matches_pandas(ray_session, direction, seed):
    L, R = _frames(seed)
    out = (
        asof_join(
            ray.data.from_pandas(L),
            ray.data.from_pandas(R),
            key="k",
            on="t",
            left_payload={"k": "k", "t": "t", "lid": "lid"},
            right_payload={"r_t": "t", "val": "val"},
            how="inner",
            direction=direction,
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    exp = _expected_asof(L, R, direction)
    assert len(out) == len(exp)
    m = out.merge(exp[["lid", "val"]], on="lid", suffixes=("", "_exp"))
    np.testing.assert_allclose(m["val"], m["val_exp"])
    # matched right timestamp obeys the direction inequality
    if direction == "backward":
        assert (out["r_t"] <= out["t"]).all()
    else:
        assert (out["r_t"] >= out["t"]).all()


def test_asof_tolerance_and_left(ray_session):
    L, R = _frames(3)
    tol = 200
    out = (
        asof_join(
            ray.data.from_pandas(L),
            ray.data.from_pandas(R),
            key="k",
            on="t",
            left_payload={"k": "k", "t": "t", "lid": "lid"},
            right_payload={"r_t": "t", "val": "val"},
            how="left",
            tolerance=tol,
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    assert len(out) == len(L), "how='left' keeps every left row"
    exp = pd.merge_asof(
        L.sort_values("t"),
        R.sort_values("t"),
        on="t",
        by="k",
        direction="backward",
        tolerance=tol,
        suffixes=("", "_r"),
    ).sort_values("lid")
    assert out["val"].notna().sum() == exp["val"].notna().sum()
    matched = out[out["val"].notna()]
    assert ((matched["t"] - matched["r_t"]) <= tol).all()
    assert ((matched["t"] - matched["r_t"]) >= 0).all()


def test_asof_exact_timestamp_is_inclusive(ray_session):
    L = pd.DataFrame({"k": [1], "t": [100], "lid": [0]})
    R = pd.DataFrame({"k": [1], "t": [100], "val": [9.0]})
    out = asof_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(R),
        key="k",
        on="t",
        left_payload={"lid": "lid"},
        right_payload={"val": "val"},
    ).to_pandas()
    assert len(out) == 1 and out["val"].iloc[0] == 9.0


def test_asof_no_right_rows_for_key(ray_session):
    L = pd.DataFrame({"k": [1, 2], "t": [10, 20], "lid": [0, 1]})
    R = pd.DataFrame({"k": [1], "t": [5], "val": [1.0]})
    inner = asof_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(R),
        key="k",
        on="t",
        left_payload={"lid": "lid"},
        right_payload={"val": "val"},
        how="inner",
    ).to_pandas()
    assert sorted(inner["lid"]) == [0]
    left = asof_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(R),
        key="k",
        on="t",
        left_payload={"lid": "lid"},
        right_payload={"val": "val"},
        how="left",
    ).to_pandas()
    assert len(left) == 2 and left.set_index("lid")["val"].isna()[1]


def test_asof_validation_errors(ray_session):
    L = pd.DataFrame({"k": [1], "t": [1], "x": [1.0]})
    ds = ray.data.from_pandas(L)
    with pytest.raises(EngineValueError, match="how must be"):
        asof_join(ds, ds, key="k", on="t", left_payload=["x"], right_payload=[], how="outer")
    with pytest.raises(EngineValueError, match="direction must be"):
        asof_join(ds, ds, key="k", on="t", left_payload=["x"], right_payload=[], direction="up")
    with pytest.raises(EngineValueError, match="not in schema"):
        asof_join(ds, ds, key="k", on="t", left_payload=["nope"], right_payload=[])
    with pytest.raises(EngineValueError, match="reserved"):
        asof_join(ds, ds, key="k", on="t", left_payload={"_side": "x"}, right_payload=[])
    with pytest.raises(EngineValueError, match="collision"):
        asof_join(ds, ds, key="k", on="t", left_payload={"x": "x"}, right_payload={"x": "x"})
    with pytest.raises(EngineValueError, match="alias"):
        asof_join(ds, ds, key="k", on="t", left_payload={"k": "x"}, right_payload=[])


def _intervals(seed, keys=8, per_key=15):
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(keys):
        starts = np.sort(rng.choice(np.arange(0, 9500, 60), size=per_key, replace=False))
        for s in starts:
            rows.append((int(k), int(s), int(s + rng.integers(5, 55)), f"iv{k}_{s}"))
    return pd.DataFrame(rows, columns=["k", "lo", "hi", "name"])


@pytest.mark.parametrize("seed", [1, 11])
def test_range_join_matches_bruteforce(ray_session, seed):
    L, _ = _frames(seed)
    IV = _intervals(seed + 100)
    out = (
        range_join(
            ray.data.from_pandas(L),
            ray.data.from_pandas(IV),
            key="k",
            point="t",
            lo="lo",
            hi="hi",
            left_payload={"k": "k", "t": "t", "lid": "lid"},
            right_payload={"lo": "lo", "name": "name"},
            how="inner",
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    merged = L.merge(IV, on="k")
    exp = merged[(merged.lo <= merged.t) & (merged.t <= merged.hi)].sort_values("lid")
    assert len(out) == len(exp)
    m = out.merge(exp[["lid", "name"]], on="lid", suffixes=("", "_exp"))
    assert (m["name"] == m["name_exp"]).all()


def test_range_join_boundaries_inclusive_and_left(ray_session):
    L = pd.DataFrame({"k": [1, 1, 1, 1], "t": [10, 20, 21, 9], "lid": [0, 1, 2, 3]})
    IV = pd.DataFrame({"k": [1], "lo": [10], "hi": [20], "name": ["w"]})
    out = range_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(IV),
        key="k",
        point="t",
        lo="lo",
        hi="hi",
        left_payload={"lid": "lid"},
        right_payload={"name": "name"},
        how="left",
    ).to_pandas()
    got = out.set_index("lid")["name"]
    assert got[0] == "w" and got[1] == "w"  # lo and hi inclusive
    assert pd.isna(got[2]) and pd.isna(got[3])


def test_range_join_empty_right(ray_session):
    L = pd.DataFrame({"k": [1], "t": [10], "lid": [0]})
    IV = pd.DataFrame({"k": pd.array([], dtype="int64"), "lo": pd.array([], dtype="int64"),
                       "hi": pd.array([], dtype="int64"), "name": pd.array([], dtype="string")})
    out = range_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(IV),
        key="k",
        point="t",
        lo="lo",
        hi="hi",
        left_payload={"lid": "lid"},
        right_payload={"name": "name"},
        how="inner",
    )
    assert out.count() == 0


# ---------------------------------------------------------------------------
# equi_join


def _two_sides(ray_session):
    import ray.data

    left = pd.DataFrame(
        {
            "k": np.array([1, 1, 2, 3], np.int64),
            "lv": np.array([10, 11, 20, 30], np.int64),
        }
    )
    right = pd.DataFrame(
        {
            "k": np.array([1, 2, 2, 4], np.int64),
            "rv": np.array([100, 200, 201, 400], np.int64),
        }
    )
    return ray.data.from_pandas(left), ray.data.from_pandas(right)


def test_equi_join_inner_cross_product(ray_session):
    from datafiller_ray.pipelines.joins import equi_join

    l, r = _two_sides(ray_session)
    out = (
        equi_join(
            l, r, key="k",
            left_payload={"k": "k", "lv": "lv"}, right_payload={"rv": "rv"},
        )
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    # key 1: 2 left x 1 right; key 2: 1 x 2; keys 3,4 unmatched
    assert out.values.tolist() == [
        [1, 10, 100],
        [1, 11, 100],
        [2, 20, 200],
        [2, 20, 201],
    ]


def test_equi_join_left_keeps_unmatched(ray_session):
    from datafiller_ray.pipelines.joins import equi_join

    l, r = _two_sides(ray_session)
    out = (
        equi_join(
            l, r, key="k", how="left",
            left_payload={"k": "k", "lv": "lv"}, right_payload={"rv": "rv"},
        )
        .to_pandas()
        .sort_values(["k", "lv"])
    )
    row3 = out[out["k"] == 3]
    assert len(row3) == 1 and row3["rv"].isna().all()
    assert len(out) == 5  # 4 matched + 1 left-only; right-only key 4 absent


def test_equi_join_group_size_guard(ray_session):
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.joins import equi_join

    l, r = _two_sides(ray_session)
    with pytest.raises(EngineValueError, match="max_group_rows"):
        equi_join(
            l, r, key="k", max_group_rows=1,
            left_payload={"k": "k", "lv": "lv"}, right_payload={"rv": "rv"},
        ).to_pandas()


def test_equi_join_matches_duckdb(ray_session):
    import duckdb

    from datafiller_ray.pipelines.joins import equi_join

    l, r = _two_sides(ray_session)
    lp, rp = l.to_pandas(), r.to_pandas()
    want = duckdb.sql(
        "SELECT l.k, l.lv, r.rv FROM lp l JOIN rp r USING (k) ORDER BY 1,2,3"
    ).df()
    got = (
        equi_join(
            l, r, key="k",
            left_payload={"k": "k", "lv": "lv"}, right_payload={"rv": "rv"},
        )
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    assert got.astype("int64").values.tolist() == want.astype("int64").values.tolist()


# ---------------------------------------------------------------------------
# broadcast_join


def test_broadcast_join_inner_left_and_guards(ray_session):
    import ray.data

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.joins import broadcast_join

    big = ray.data.from_pandas(
        pd.DataFrame(
            {"k": np.array([1, 2, 2, 9], np.int64),
             "v": np.array([10, 20, 21, 90], np.int64)}
        )
    )
    dim = ray.data.from_pandas(
        pd.DataFrame(
            {"k": np.array([1, 2, 3], np.int64),
             "name": ["a", "b", "c"],
             "extra": [0.0, 1.0, 2.0]}
        )
    )
    inner = (
        broadcast_join(big, dim, key="k", small_payload={"name": "name"})
        .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    )
    assert inner[["k", "v"]].values.tolist() == [[1, 10], [2, 20], [2, 21]]
    assert inner["name"].tolist() == ["a", "b", "b"]
    assert "extra" not in inner.columns  # payload-pruned

    left = (
        broadcast_join(big, dim, key="k", how="left",
                       small_payload={"name": "name"})
        .to_pandas().sort_values(["k", "v"])
    )
    assert len(left) == 4
    assert left[left["k"] == 9]["name"].isna().all()

    # duplicate dimension keys are an error (m:n belongs to equi_join)
    dup = ray.data.from_pandas(
        pd.DataFrame({"k": np.array([1, 1], np.int64), "name": ["a", "b"]})
    )
    with pytest.raises(EngineValueError, match="not unique"):
        broadcast_join(big, dup, key="k", small_payload={"name": "name"})

    with pytest.raises(EngineValueError, match="max_small_rows"):
        broadcast_join(big, dim, key="k", small_payload={"name": "name"},
                       max_small_rows=2)


def test_broadcast_chain_matches_sequential_hops(ray_session):
    # one chained stage == N broadcast_join stages, including a snowflake
    # dependency (hop 2 keys on a column ATTACHED by hop 1)
    import ray.data

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.joins import broadcast_chain, broadcast_join

    rng = np.random.default_rng(7)
    big = ray.data.from_pandas(
        pd.DataFrame(
            {
                "k": rng.integers(0, 10, 500).astype(np.int64),
                "v": np.arange(500, dtype=np.int64),
            }
        )
    )
    dim1 = ray.data.from_pandas(
        pd.DataFrame(
            {
                "k": np.arange(10, dtype=np.int64),
                "grp": (np.arange(10, dtype=np.int64) % 3),
            }
        )
    )
    dim2 = ray.data.from_pandas(
        pd.DataFrame(
            {"grp": np.arange(3, dtype=np.int64), "gname": ["x", "y", "z"]}
        )
    )
    hops = [
        (dim1, "k", {"grp": "grp"}),
        (dim2, "grp", {"gname": "gname"}),
    ]
    chained = (
        broadcast_chain(big, hops)
        .to_pandas().sort_values("v").reset_index(drop=True)
    )
    seq = broadcast_join(big, dim1, key="k", small_payload={"grp": "grp"})
    seq = broadcast_join(seq, dim2, key="grp", small_payload={"gname": "gname"})
    seq = seq.to_pandas().sort_values("v").reset_index(drop=True)
    pd.testing.assert_frame_equal(chained[seq.columns], seq)

    with pytest.raises(EngineValueError, match="non-empty"):
        broadcast_chain(big, [])


# ---------------------------------------------------------------------------
# semi / anti join


def _semi_frames(seed=3):
    rng = np.random.default_rng(seed)
    L = pd.DataFrame(
        {
            "k": rng.integers(0, 20, 300),
            "lid": np.arange(300),
            "tag": rng.choice(["a", "b", "c"], 300),
        }
    )
    # right side: heavy duplication + keys outside the left range + nulls
    R = pd.DataFrame({"rk": rng.integers(5, 30, 5000).astype("float64")})
    R.loc[rng.choice(5000, 200, replace=False), "rk"] = np.nan
    return L, R


def _rk_table(R):
    import pyarrow as pa

    return pa.table({"rk": pa.array(
        [None if np.isnan(v) else int(v) for v in R["rk"]], type=pa.int64()
    )})


def test_semi_join_matches_duckdb(ray_session):
    import duckdb

    from datafiller_ray.pipelines.joins import semi_join

    L, R = _semi_frames()
    out = (
        semi_join(
            ray.data.from_pandas(L),
            ray.data.from_arrow(_rk_table(R)),
            key="k",
            left_payload=["k", "lid", "tag"],
            right_key="rk",
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    exp = (
        duckdb.sql(
            "SELECT k, lid, tag FROM L WHERE EXISTS "
            "(SELECT 1 FROM R WHERE R.rk = L.k) ORDER BY lid"
        )
        .df()
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, exp, check_dtype=False)
    # left rows are never multiplied
    assert out["lid"].is_unique


def test_anti_join_matches_duckdb_and_ignores_null_right_keys(ray_session):
    import duckdb

    from datafiller_ray.pipelines.joins import anti_join

    L, R = _semi_frames(seed=9)
    out = (
        anti_join(
            ray.data.from_pandas(L),
            ray.data.from_arrow(_rk_table(R)),
            key="k",
            left_payload=["k", "lid", "tag"],
            right_key="rk",
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    exp = (
        duckdb.sql(
            "SELECT k, lid, tag FROM L WHERE NOT EXISTS "
            "(SELECT 1 FROM R WHERE R.rk = L.k) ORDER BY lid"
        )
        .df()
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, exp, check_dtype=False)
    # semi + anti partition the left side
    from datafiller_ray.pipelines.joins import semi_join

    semi_n = semi_join(
        ray.data.from_pandas(L),
        ray.data.from_arrow(_rk_table(R)),
        key="k",
        left_payload=["k", "lid", "tag"],
        right_key="rk",
    ).count()
    assert semi_n + len(out) == len(L)


def test_semi_join_validation(ray_session):
    from datafiller_ray.pipelines.joins import semi_join

    L = pd.DataFrame({"k": [1], "v": [2]})
    with pytest.raises(EngineValueError):
        semi_join(
            ray.data.from_pandas(L),
            ray.data.from_pandas(L),
            key="k",
            left_payload=["k", "v"],
            right_key="nope",
        )
    with pytest.raises(EngineValueError):
        semi_join(
            ray.data.from_pandas(L),
            ray.data.from_pandas(L),
            key="k",
            left_payload={"_side": "v"},
        )


# ---------------------------------------------------------------------------
# full outer + null keys + salted equi join


def _nullable_sides(seed=11, n_l=300, n_r=200, keys=12):
    """Random m:n frames with null keys on BOTH sides (SQL three-valued
    logic: a null never matches, but outer rows must survive)."""
    rng = np.random.default_rng(seed)
    lk = [
        None if rng.random() < 0.1 else f"k{rng.integers(0, keys)}"
        for _ in range(n_l)
    ]
    rk = [
        None if rng.random() < 0.1 else f"k{rng.integers(0, keys + 3)}"
        for _ in range(n_r)
    ]
    L = pd.DataFrame({"k": lk, "lv": np.arange(n_l, dtype=np.int64)})
    R = pd.DataFrame({"k": rk, "rv": np.arange(n_r, dtype=np.int64) + 10_000})
    return L, R


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    out = df.copy()
    for c in out.columns:
        if out[c].dtype != object:
            out[c] = out[c].astype("float64")
    out = out.sort_values(list(out.columns), na_position="last")
    return out.reset_index(drop=True)


@pytest.mark.parametrize("how", ["inner", "left", "full"])
def test_equi_join_null_keys_and_full_outer_match_duckdb(ray_session, how):
    import duckdb
    import ray.data

    from datafiller_ray.pipelines.joins import equi_join

    L, R = _nullable_sides()
    sql_how = {"inner": "JOIN", "left": "LEFT JOIN", "full": "FULL JOIN"}[how]
    want = duckdb.sql(
        f"SELECT k, l.lv, r.rv FROM L l {sql_how} R r USING (k)"
    ).df()
    got = equi_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(R),
        key="k",
        left_payload={"k": "k", "lv": "lv"},
        right_payload={"rv": "rv"},
        how=how,
    ).to_pandas()
    pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)


def _skewed_sides(seed=5, n_l=4000, n_r=60):
    """One hot key (0) holding half the fact side, plus a uniform tail."""
    rng = np.random.default_rng(seed)
    lk = np.where(rng.random(n_l) < 0.5, 0, rng.integers(1, 40, n_l))
    L = pd.DataFrame(
        {"k": lk.astype(np.int64), "lid": np.arange(n_l, dtype=np.int64)}
    )
    rk = rng.integers(0, 44, n_r)
    rk[:4] = 0  # the hot key always has right rows -> real cross blow-up
    R = pd.DataFrame({"k": rk.astype(np.int64), "rv": np.arange(n_r, dtype=np.int64)})
    return L, R


@pytest.mark.parametrize("how", ["inner", "left"])
def test_salted_equi_join_matches_plain(ray_session, how):
    import ray.data

    from datafiller_ray.pipelines.joins import equi_join, salted_equi_join

    L, R = _skewed_sides()
    kw = dict(
        key="k",
        left_payload={"k": "k", "lid": "lid"},
        right_payload={"rv": "rv"},
        how=how,
    )
    plain = equi_join(
        ray.data.from_pandas(L), ray.data.from_pandas(R), **kw
    ).to_pandas()
    salted = salted_equi_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(R),
        salt_by="lid",
        max_group_rows=500,  # hot key product ~2000 x |R_0| >> 500
        **kw,
    ).to_pandas()
    pd.testing.assert_frame_equal(_norm(salted), _norm(plain), check_dtype=False)


def test_salted_equi_join_survives_where_plain_raises(ray_session):
    import duckdb
    import ray.data

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.joins import equi_join, salted_equi_join

    L, R = _skewed_sides(seed=9)
    kw = dict(
        key="k",
        left_payload={"k": "k", "lid": "lid"},
        right_payload={"rv": "rv"},
    )
    with pytest.raises(EngineValueError, match="max_group_rows"):
        equi_join(
            ray.data.from_pandas(L),
            ray.data.from_pandas(R),
            max_group_rows=1000,
            **kw,
        ).to_pandas()
    got = salted_equi_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(R),
        salt_by="lid",
        max_group_rows=1000,
        **kw,
    ).to_pandas()
    want = duckdb.sql("SELECT k, l.lid, r.rv FROM L l JOIN R r USING (k)").df()
    pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)


def test_salted_equi_join_no_hot_delegates(ray_session):
    from datafiller_ray.pipelines.joins import equi_join, salted_equi_join

    l, r = _two_sides(ray_session)
    kw = dict(
        key="k", left_payload={"k": "k", "lv": "lv"}, right_payload={"rv": "rv"}
    )
    plain = equi_join(l, r, **kw).to_pandas()
    salted = salted_equi_join(l, r, salt_by="lv", max_group_rows=10_000, **kw).to_pandas()
    pd.testing.assert_frame_equal(_norm(salted), _norm(plain), check_dtype=False)


def test_salted_equi_join_string_keys_and_validation(ray_session):
    import duckdb
    import ray.data

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.joins import salted_equi_join

    rng = np.random.default_rng(2)
    L = pd.DataFrame(
        {
            "k": rng.choice(["hot", "a", "b"], 600, p=[0.8, 0.1, 0.1]),
            "lid": np.arange(600, dtype=np.int64),
        }
    )
    R = pd.DataFrame({"k": ["hot", "hot", "a", "c"], "rv": np.arange(4, dtype=np.int64)})
    got = salted_equi_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(R),
        key="k",
        salt_by="lid",
        max_group_rows=100,
        left_payload={"k": "k", "lid": "lid"},
        right_payload={"rv": "rv"},
    ).to_pandas()
    want = duckdb.sql("SELECT k, l.lid, r.rv FROM L l JOIN R r USING (k)").df()
    got_s = got.sort_values(["k", "lid", "rv"]).reset_index(drop=True)
    want_s = want.sort_values(["k", "lid", "rv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got_s, want_s, check_dtype=False)

    with pytest.raises(EngineValueError, match="salt_by"):
        salted_equi_join(
            ray.data.from_pandas(L),
            ray.data.from_pandas(R),
            key="k",
            salt_by="nope",
            left_payload={"k": "k"},
            right_payload={"rv": "rv"},
        )
    with pytest.raises(EngineValueError, match="full-outer"):
        salted_equi_join(
            ray.data.from_pandas(L),
            ray.data.from_pandas(R),
            key="k",
            salt_by="lid",
            how="full",
            left_payload={"k": "k"},
            right_payload={"rv": "rv"},
        )


@pytest.mark.parametrize("how", ["inner", "left", "full"])
def test_equi_join_null_keys_skewed_distribution(ray_session, how):
    """Regression: a skewed key distribution with nulls used to crash the
    sort exchange (boundary searchsorted comparing None vs str) before the
    kernel's null routing ever ran. Null keys now never enter the sort."""
    import duckdb
    import ray.data

    from datafiller_ray.pipelines.joins import equi_join

    L = pd.DataFrame(
        {
            "k": ["h"] * 300 + ["a"] * 20 + [None] * 10,
            "lv": np.arange(330, dtype=np.int64),
        }
    )
    R = pd.DataFrame({"k": ["a", "b", None], "rv": np.arange(3, dtype=np.int64)})
    sql_how = {"inner": "JOIN", "left": "LEFT JOIN", "full": "FULL JOIN"}[how]
    want = duckdb.sql(
        f"SELECT k, l.lv, r.rv FROM L l {sql_how} R r USING (k)"
    ).df()
    got = equi_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(R),
        key="k",
        left_payload={"k": "k", "lv": "lv"},
        right_payload={"rv": "rv"},
        how=how,
    ).to_pandas()
    pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)


def test_salted_equi_join_null_keys_skewed(ray_session):
    import duckdb
    import ray.data

    from datafiller_ray.pipelines.joins import salted_equi_join

    L = pd.DataFrame(
        {
            "k": ["h"] * 300 + ["a"] * 20 + [None] * 10,
            "lid": np.arange(330, dtype=np.int64),
        }
    )
    R = pd.DataFrame(
        {"k": ["h", "h", "a", None], "rv": np.arange(4, dtype=np.int64)}
    )
    for how, sql in [("inner", "JOIN"), ("left", "LEFT JOIN")]:
        got = salted_equi_join(
            ray.data.from_pandas(L),
            ray.data.from_pandas(R),
            key="k",
            salt_by="lid",
            max_group_rows=50,
            left_payload={"k": "k", "lid": "lid"},
            right_payload={"rv": "rv"},
            how=how,
        ).to_pandas()
        want = duckdb.sql(
            f"SELECT k, l.lid, r.rv FROM L l {sql} R r USING (k)"
        ).df()
        pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)


def test_semi_anti_join_null_left_keys_skewed(ray_session):
    """Regression: skewed string keys with nulls used to crash the sort
    exchange. Semi drops null-key left rows (EXISTS never true); anti
    keeps them all (NOT EXISTS never false)."""
    import ray.data

    from datafiller_ray.pipelines.joins import anti_join, semi_join

    L = pd.DataFrame(
        {
            "k": ["h"] * 200 + ["a"] * 20 + [None] * 15,
            "lid": np.arange(235, dtype=np.int64),
        }
    )
    R = pd.DataFrame({"k": ["a", None]})
    semi = semi_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(R),
        key="k",
        left_payload=["k", "lid"],
    ).to_pandas()
    assert sorted(semi["k"].unique()) == ["a"] and len(semi) == 20
    anti = anti_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(R),
        key="k",
        left_payload=["k", "lid"],
    ).to_pandas()
    assert len(anti) == 215  # 200 'h' + 15 null-key rows
    assert anti["k"].isna().sum() == 15


def test_asof_range_join_null_keys_skewed(ray_session):
    """Same latent sort crash for the ordered joins: null keys never
    match; how='left' pads them."""
    import ray.data

    from datafiller_ray.pipelines.joins import asof_join, range_join

    L = pd.DataFrame(
        {
            "k": ["h"] * 150 + ["a"] * 10 + [None] * 8,
            "t": np.arange(168, dtype=np.int64),
            "lid": np.arange(168, dtype=np.int64),
        }
    )
    R = pd.DataFrame(
        {"k": ["h", "a", None], "t": np.array([0, 0, 0], np.int64),
         "val": [1.0, 2.0, 3.0]}
    )
    inner = asof_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(R),
        key="k", on="t",
        left_payload={"k": "k", "lid": "lid"},
        right_payload={"val": "val"},
    ).to_pandas()
    assert len(inner) == 160 and inner["k"].notna().all()
    left = asof_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(R),
        key="k", on="t",
        left_payload={"k": "k", "lid": "lid"},
        right_payload={"val": "val"},
        how="left",
    ).to_pandas()
    assert len(left) == 168
    nulls = left[left["k"].isna()]
    assert len(nulls) == 8 and nulls["val"].isna().all()

    IV = pd.DataFrame(
        {"k": ["h", "a"], "lo": np.array([0, 0], np.int64),
         "hi": np.array([500, 500], np.int64), "name": ["wh", "wa"]}
    )
    rj = range_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(IV),
        key="k", point="t", lo="lo", hi="hi",
        left_payload={"k": "k", "lid": "lid"},
        right_payload={"name": "name"},
        how="left",
    ).to_pandas()
    assert len(rj) == 168
    assert rj[rj["k"].isna()]["name"].isna().all()
    assert (rj[rj["k"] == "h"]["name"] == "wh").all()


@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("join", ["asof", "range"])
def test_asof_range_join_nan_keys_never_match(ray_session, join, how):
    """A NaN float key equals nothing, itself included (as in equi_join):
    the NaN left row is dropped under 'inner' and padded with its NaN under
    'left'; the NaN right row matches no one. Arrow inputs: a pandas NaN
    would arrive as a null."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    nan = float("nan")
    L = pa.table(
        {"k": [1.0, nan, 2.0], "t": pa.array([10] * 3, pa.int64()),
         "lv": pa.array([1, 2, 3], pa.int64())}
    )
    R = pa.table(
        {"k": [1.0, nan, 2.0], "t": pa.array([5] * 3, pa.int64()),
         "lo": pa.array([0] * 3, pa.int64()),
         "hi": pa.array([100] * 3, pa.int64()),
         "rv": pa.array([100, 200, 300], pa.int64())}
    )
    common = dict(
        key="k", left_payload={"k": "k", "lv": "lv"},
        right_payload={"rv": "rv"}, how=how,
    )
    left, right = ray.data.from_arrow(L), ray.data.from_arrow(R)
    if join == "asof":
        out = asof_join(left, right, on="t", **common)
    else:
        out = range_join(left, right, point="t", lo="lo", hi="hi", **common)
    blocks = [b for b in ray.get(out.to_arrow_refs()) if b.num_rows]
    out = pa.concat_tables(blocks).sort_by("lv")
    rows = list(zip(out["lv"].to_pylist(), out["rv"].to_pylist()))
    if how == "inner":
        assert rows == [(1, 100), (3, 300)]
    else:
        assert rows == [(1, 100), (2, None), (3, 300)]
        assert pc.is_nan(out["k"]).to_pylist() == [False, True, False]


def test_salted_equi_join_block_layout_invariant(ray_session):
    """Salt depends only on hash(salt_by), never on block boundaries: the
    same input repartitioned arbitrarily yields the identical result —
    the cluster-size-independence property the 100-TB posture needs."""
    import ray.data

    from datafiller_ray.pipelines.joins import salted_equi_join

    L, R = _skewed_sides(seed=21)
    kw = dict(
        key="k",
        salt_by="lid",
        max_group_rows=300,
        left_payload={"k": "k", "lid": "lid"},
        right_payload={"rv": "rv"},
    )
    one = salted_equi_join(
        ray.data.from_pandas(L).repartition(1),
        ray.data.from_pandas(R).repartition(1),
        **kw,
    ).to_pandas()
    many = salted_equi_join(
        ray.data.from_pandas(L).repartition(13),
        ray.data.from_pandas(R).repartition(5),
        **kw,
    ).to_pandas()
    pd.testing.assert_frame_equal(_norm(one), _norm(many), check_dtype=False)


def _nan_key_sides():
    """Float keys with real NaNs (not nulls), nulls, and matching keys."""
    import pyarrow as pa

    nan = float("nan")
    L = pa.table({
        "k": pa.array([1.0, nan, 2.0, nan, None, 3.0], from_pandas=False),
        "lv": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
    })
    R = pa.table({
        "k": pa.array([1.0, nan, 2.0, 2.0, None], from_pandas=False),
        "rv": pa.array([10, 20, 30, 40, 50], pa.int64()),
    })
    return L, R


def _key_repr(k):
    return "null" if k is None else "nan" if np.isnan(k) else k


@pytest.mark.parametrize(
    "how,want",
    [
        ("inner", [(1.0, 1, 10), (2.0, 3, 30), (2.0, 3, 40)]),
        (
            "left",
            [(1.0, 1, 10), ("nan", 2, None), (2.0, 3, 30), (2.0, 3, 40),
             ("nan", 4, None), ("null", 5, None), (3.0, 6, None)],
        ),
        (
            "full",
            [(1.0, 1, 10), ("nan", 2, None), (2.0, 3, 30), (2.0, 3, 40),
             ("nan", 4, None), ("null", 5, None), (3.0, 6, None),
             ("nan", None, 20), ("null", None, 50)],
        ),
    ],
)
def test_equi_join_nan_keys_never_match(ray_session, how, want):
    # NaN keys used to reach pd.factorize's -1 code and crash np.bincount;
    # they now never match, are padded on left/full and keep their NaN
    from datafiller_ray.pipelines.joins import equi_join

    L, R = _nan_key_sides()
    got = equi_join(
        ray.data.from_arrow(L),
        ray.data.from_arrow(R),
        key="k",
        left_payload={"k": "k", "lv": "lv"},
        right_payload={"rv": "rv"},
        how=how,
    ).take_all()
    rows = [(_key_repr(r["k"]), r["lv"], r["rv"]) for r in got]

    def order(row):
        return (row[1] is None, row[1] or 0, row[2] or 0)

    assert sorted(rows, key=order) == sorted(want, key=order)


@pytest.mark.parametrize("anti", [False, True])
def test_semi_join_nan_keys_never_match(ray_session, anti):
    from datafiller_ray.pipelines.joins import semi_join

    L, R = _nan_key_sides()
    got = semi_join(
        ray.data.from_arrow(L),
        ray.data.from_arrow(R),
        key="k",
        left_payload={"k": "k", "lv": "lv"},
        anti=anti,
    ).take_all()
    rows = sorted((r["lv"], _key_repr(r["k"])) for r in got)
    if anti:
        assert rows == [(2, "nan"), (4, "nan"), (5, "null"), (6, 3.0)]
    else:
        assert rows == [(1, 1.0), (3, 2.0)]
