"""Sliding-window family (pipelines/window.py): kernel properties vs brute
force plus an end-to-end pin at the library surface. The SQL-oracle parity
(engine vs DuckDB window functions) is covered by test_entry_contract for
``rolling_window_1m`` / ``topk_buckets`` / ``rolling_anomaly``."""

import numpy as np
import pandas as pd
import pytest

from datafiller_ray.pipelines.window import (
    _rolling_one_source,
    _topk_one_source,
    sliding_max,
    sliding_min,
)


def _brute_max(x, w):
    return np.array([x[max(0, i - w + 1) : i + 1].max() for i in range(x.size)])


@pytest.mark.parametrize("w", [1, 2, 3, 5, 7, 60, 100])
def test_sliding_max_matches_brute_force(w):
    rng = np.random.default_rng(42 + w)
    for n in (1, 2, w - 1, w, w + 1, 3 * w + 2, 257):
        if n < 1:
            continue
        x = rng.integers(-(10**9), 10**9, size=n).astype(np.int64)
        np.testing.assert_array_equal(sliding_max(x, w), _brute_max(x, w))
        np.testing.assert_array_equal(sliding_min(x, w), -_brute_max(-x, w))


def test_sliding_max_pad_neutral():
    # regression: the tail block's padding must never win a suffix max
    x = np.array([100, 1, 1, 1, 1], dtype=np.int64)  # n=5, w=3 -> pad=1
    np.testing.assert_array_equal(sliding_max(x, 3), [100, 100, 100, 1, 1])


def test_sliding_max_floats():
    x = np.array([1.5, -2.25, 7.0, 7.0, 0.5])
    np.testing.assert_array_equal(sliding_max(x, 2), [1.5, 1.5, 7.0, 7.0, 7.0])


def test_rolling_one_source_exact_ints():
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(5, dtype=np.int64) * 60,
         "sum": np.array([10, 20, 30, 40, 50], dtype=np.int64)}
    )
    out = _rolling_one_source(obs, "s", window=3)
    assert out["roll_sum_tok"].tolist() == [10, 30, 60, 90, 120]
    assert out["roll_cnt"].tolist() == [1, 2, 3, 3, 3]
    assert out["roll_min_tok"].tolist() == [10, 10, 10, 20, 30]
    assert out["roll_max_tok"].tolist() == [10, 20, 30, 40, 50]
    assert out["roll_mean_tok"].tolist() == [10.0, 15.0, 20.0, 30.0, 40.0]


def test_topk_deterministic_ties():
    obs = pd.DataFrame(
        {"bucket_ts": np.array([0, 60, 120, 180], dtype=np.int64),
         "sum": np.array([5, 9, 9, 3], dtype=np.int64)}
    )
    out = _topk_one_source(obs, "s", k=3)
    # sum DESC, ts ASC under the 9-tie; rnk dense 1..k
    assert out["bucket_ts"].tolist() == [60, 120, 0]
    assert out["rnk"].tolist() == [1, 2, 3]


@pytest.fixture(scope="module")
def small_fixture(tmp_path_factory):
    import pyarrow.parquet as pq

    from datafiller_ray.fixtures import generate_input_table

    path = tmp_path_factory.mktemp("window") / "in.parquet"
    pq.write_table(generate_input_table(5000, 9, seed=7), path)
    return str(path)


def test_rolling_aggregates_end_to_end(ray_session, small_fixture):
    from datafiller_ray.pipelines.window import rolling_aggregates, topk_buckets

    out = rolling_aggregates(small_fixture, window=10).to_pandas()
    assert set(out.columns) == {
        "source", "bucket_ts", "sum_tok", "roll_cnt", "roll_sum_tok",
        "roll_min_tok", "roll_max_tok", "roll_mean_tok",
    }
    # per-source pandas cross-check on one source
    src = out["source"].iloc[0]
    sub = out[out["source"] == src].sort_values("bucket_ts")
    exp = sub["sum_tok"].rolling(10, min_periods=1).sum().astype(np.int64)
    np.testing.assert_array_equal(sub["roll_sum_tok"].to_numpy(), exp.to_numpy())

    top = topk_buckets(small_fixture, k=2).to_pandas()
    assert (top.groupby("source").size() <= 2).all()
    assert set(top["rnk"]) <= {1, 2}


def test_deltas_one_source():
    from datafiller_ray.pipelines.window import _deltas_one_source

    obs = pd.DataFrame(
        {"bucket_ts": np.array([0, 60, 240], dtype=np.int64),
         "sum": np.array([10, 40, 10], dtype=np.int64)}
    )
    out = _deltas_one_source(obs, "s")
    assert out["delta_tok"].tolist() == [30, -30]
    assert out["dt_sec"].tolist() == [60, 180]  # the gap widens dt
    # rate = floor(delta/dt * 1e6 + 0.5)/1e6, half-up toward +inf
    assert out["rate_tok_s"].iloc[0] == 0.5
    assert out["rate_tok_s"].iloc[1] == np.floor(-30 / 180 * 1e6 + 0.5) / 1e6

    single = _deltas_one_source(obs.iloc[:1], "s")
    assert len(single) == 0 and "rate_tok_s" in single.columns


def test_column_histogram_end_to_end(ray_session, small_fixture):
    import ray.data

    from datafiller_ray.pipelines.corpus import column_histogram

    ds = ray.data.read_parquet(small_fixture, columns=["source", "n_tok"])
    out = column_histogram(ds, bin_width=64).to_pandas()
    assert (out["bin_lo"] == out["bin"] * 64).all()
    # counts add up to the input row count
    import pyarrow.dataset as pds

    assert out["n_rows"].sum() == pds.dataset(small_fixture).count_rows()


def test_profile_one_source_dedup_semantics():
    from datafiller_ray.pipelines.window import _profile_one_source

    # two observed minutes in hour 0, one in hour 3
    obs = pd.DataFrame(
        {"bucket_ts": np.array([0, 120, 3 * 3600], dtype=np.int64),
         "sum": np.array([10, 20, 7], dtype=np.int64)}
    )
    out = _profile_one_source(obs, "s")
    assert out["hod"].tolist() == [0, 3]
    assert out["n_buckets"].tolist() == [2, 1]
    assert out["sum_tok"].tolist() == [30, 7]
    assert out["mean_tok"].tolist() == [15.0, 7.0]


def _oracle_fills():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "oracle_fills", "tests/oracle/fills.py"
    )
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


def test_lttb_engine_matches_loop_oracle():
    from datafiller_ray.pipelines.window import lttb_indices

    o = _oracle_fills()
    rng = np.random.default_rng(3)
    for n in (3, 4, 10, 50, 51, 997):
        for n_out in (3, 5, 50):
            x = np.sort(rng.choice(n * 10, size=n, replace=False)).astype(np.float64)
            y = rng.integers(0, 1000, size=n).astype(np.float64)
            np.testing.assert_array_equal(
                lttb_indices(x, y, n_out), o.lttb_select_loop(x, y, n_out)
            )


def test_lttb_keeps_endpoints_and_count():
    from datafiller_ray.pipelines.window import lttb_indices

    rng = np.random.default_rng(4)
    x = np.arange(500, dtype=np.float64)
    y = rng.standard_normal(500)
    idx = lttb_indices(x, y, 40)
    assert idx[0] == 0 and idx[-1] == 499 and idx.size == 40
    assert (np.diff(idx) > 0).all()  # strictly increasing selection


def test_ewma_engine_matches_recursion_oracle():
    from datafiller_ray.pipelines.window import _ewma_one_source

    o = _oracle_fills()
    rng = np.random.default_rng(5)
    s = rng.integers(0, 100000, size=4321)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(s.size, dtype=np.int64) * 60, "sum": s}
    )
    for alpha in (0.25, 0.1, 0.37):
        eng = _ewma_one_source(obs, "s", alpha)["ewma_tok"].to_numpy()
        ora = o.round_half_up(o.ewma_recursion(s.astype(np.float64), alpha))
        np.testing.assert_array_equal(eng, ora)


def test_window_param_guards():
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import ewma_smooth, lttb_downsample

    with pytest.raises(EngineValueError):
        ewma_smooth("/nonexistent", alpha=0.0)
    with pytest.raises(EngineValueError):
        lttb_downsample("/nonexistent", n_out=2)


def test_seasonal_anomaly_end_to_end(ray_session, small_fixture):
    from datafiller_ray.pipelines.window import seasonal_anomalies

    out = seasonal_anomalies(small_fixture, factor=1.1, min_buckets=1).to_pandas()
    assert set(out.columns) == {
        "source", "bucket_ts", "hod", "sum_tok", "hod_mean_tok",
    }
    assert out["hod"].between(0, 23).all()
    # every flagged bucket genuinely exceeds factor x its hour mean
    assert (
        out["sum_tok"].to_numpy(np.float64)
        > 1.1 * (out["hod_mean_tok"].to_numpy() - 1e-6)  # rounding slack
    ).all()


def _driver_reference(path, one_source) -> pd.DataFrame:
    """An op's rows without an exchange: its group fn over all the partial
    rows as one frame, on the driver."""
    from datafiller_ray.pipelines.rollup import partial_aggregates
    from datafiller_ray.pipelines.window import _per_source_group_fn

    partials = partial_aggregates(path, check_tokens=False).to_pandas()
    return _per_source_group_fn(one_source)(partials)


def test_bucketed_shuffle_matches_sort(ray_session, small_fixture):
    """The hash exchange must produce the same rows as the exchange-free
    reference for every window op routed through it: a dropped, duplicated
    or split ``skey`` group changes them."""
    from datafiller_ray.pipelines.window import (
        _profile_one_source,
        hourly_profile,
        rolling_aggregates,
    )

    def norm(df, keys):
        return df.sort_values(keys).reset_index(drop=True)

    a = norm(
        rolling_aggregates(small_fixture, window=10).to_pandas(),
        ["source", "bucket_ts"],
    )
    b = norm(
        _driver_reference(
            small_fixture, lambda obs, src: _rolling_one_source(obs, src, 10)
        ),
        ["source", "bucket_ts"],
    )
    pd.testing.assert_frame_equal(a, b)

    pa_ = norm(hourly_profile(small_fixture).to_pandas(), ["source", "hod"])
    pb = norm(
        _driver_reference(small_fixture, _profile_one_source), ["source", "hod"]
    )
    pd.testing.assert_frame_equal(pa_, pb)


def test_cusum_identity_matches_naive_max_recursion():
    """The vectorized prefix identity must equal the literal
    s_i = max(0, s_{i-1} + d_i) recursion bit-for-bit (exact min/sub ops)."""
    from datafiller_ray.pipelines.window import _cusum_one_source

    rng = np.random.default_rng(11)
    base = rng.integers(100, 200, size=600)
    base[300:] += 80  # injected level shift
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(base.size, dtype=np.int64) * 60, "sum": base}
    )
    out = _cusum_one_source(
        obs, "s", drift=0.5, threshold=5.0, min_points=20
    )
    assert (out["direction"] == "up").any()
    # naive recursion over the same standardization
    y = base.astype(np.int64)
    n = y.size
    S = int(y.sum())
    Q = int(np.dot(y, y))
    mean = S / n
    var = Q / n - mean * mean
    std = var**0.5
    z = (y.astype(np.float64) - mean) / std
    for direction, d in (("up", z - 0.5), ("down", (-z) - 0.5)):
        s = np.empty(n)
        acc = 0.0
        for i in range(n):
            acc = acc + d[i]
            if acc < 0.0:
                acc = 0.0
            s[i] = acc
        flag = s > 5.0
        got = out[out["direction"] == direction]
        np.testing.assert_array_equal(
            got["bucket_ts"].to_numpy(), obs["bucket_ts"].to_numpy()[flag]
        )
        np.testing.assert_array_equal(
            got["cusum_stat"].to_numpy(), np.floor(s[flag] * 1e6 + 0.5) / 1e6
        )


def test_cusum_short_and_constant_series_empty():
    from datafiller_ray.pipelines.window import _cusum_one_source

    short = pd.DataFrame({"bucket_ts": np.arange(5) * 60, "sum": np.arange(5)})
    assert len(_cusum_one_source(short, "s", drift=0.5, threshold=5.0,
                                 min_points=20)) == 0
    const = pd.DataFrame(
        {"bucket_ts": np.arange(50) * 60, "sum": np.full(50, 7)}
    )
    assert len(_cusum_one_source(const, "s", drift=0.5, threshold=5.0,
                                 min_points=20)) == 0


def test_cusum_param_guards():
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import cusum_changepoints

    with pytest.raises(EngineValueError):
        cusum_changepoints("/nonexistent", threshold=0.0)
    with pytest.raises(EngineValueError):
        cusum_changepoints("/nonexistent", drift=-1.0)
    with pytest.raises(EngineValueError):
        cusum_changepoints("/nonexistent", min_points=1)


# ---------------------------------------------------------------------------
# gap_stats / psi_drift


def test_gap_stats_counts_runs(ray_session):
    from datafiller_ray.fixtures import ensure_fixture
    from datafiller_ray.pipelines.window import gap_stats

    path = ensure_fixture(0.001)
    out = gap_stats(path).to_pandas().set_index("source")
    # recompute naively from the same fixture's observed buckets
    import duckdb

    obs = duckdb.sql(
        f"""SELECT source,
                  CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT) * 60 AS ts
           FROM read_parquet('{path}/*.parquet') GROUP BY 1, 2"""
    ).df()
    for src, g in obs.groupby("source"):
        ts = np.sort(g["ts"].to_numpy(np.int64))
        gaps = np.diff(ts) // 60 - 1
        gaps = gaps[gaps > 0]
        row = out.loc[src]
        assert row["n_buckets"] == len(ts)
        assert row["span_buckets"] == (ts[-1] - ts[0]) // 60 + 1
        assert row["n_gaps"] == len(gaps)
        assert row["missing_total"] == (gaps.sum() if len(gaps) else 0)
        assert row["max_gap"] == (gaps.max() if len(gaps) else 0)


def test_psi_drift_identical_halves_near_zero(ray_session):
    import ray.data

    from datafiller_ray.pipelines.window import psi_drift

    # a source whose early and late halves have IDENTICAL value multisets:
    # PSI must be exactly 0 (n_early == n_late and equal bin counts)
    vals = [10, 20, 30, 40] * 2
    rows = []
    for i, v in enumerate(vals):
        rows.append(
            {
                "doc_id": f"s:{i:010d}",
                "tokens": [1] * v,
                "n_tok": v,
                "source": "s",
            }
        )
    df = pd.DataFrame(rows)
    ds = ray.data.from_pandas(df)
    out = psi_drift(ds).to_pandas()
    assert len(out) == 1
    assert out.loc[0, "n_early"] == 4 and out.loc[0, "n_late"] == 4
    assert out.loc[0, "psi"] == 0.0


def test_psi_drift_shifted_distribution_positive(ray_session):
    import ray.data

    from datafiller_ray.pipelines.window import psi_drift

    # early half low values, late half high values -> large PSI
    vals = [10] * 8 + [1000] * 8
    rows = [
        {"doc_id": f"s:{i:010d}", "tokens": [1] * v, "n_tok": v, "source": "s"}
        for i, v in enumerate(vals)
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    out = psi_drift(ds).to_pandas()
    assert out.loc[0, "psi"] > 1.0


# ---------------------------------------------------------------------------
# ACF


def test_acf_one_source_matches_corrcoef():
    from datafiller_ray.pipelines.window import _acf_one_source

    rng = np.random.default_rng(11)
    s = rng.integers(1, 5000, size=200).astype(np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(200, dtype=np.int64) * 60, "sum": s}
    )
    out = _acf_one_source(obs, "s", (1, 2, 5), min_pairs=3)
    assert out["lag"].tolist() == [1, 2, 5]
    for _, row in out.iterrows():
        lag = int(row["lag"])
        expect = np.corrcoef(s[:-lag], s[lag:])[0, 1]
        assert abs(row["acf"] - expect) < 1e-6
        assert row["n_pairs"] == 200 - lag


def test_acf_skips_short_and_constant():
    from datafiller_ray.pipelines.window import _acf_one_source

    # constant series: zero variance -> no rows
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(50, dtype=np.int64) * 60,
         "sum": np.full(50, 7, dtype=np.int64)}
    )
    assert len(_acf_one_source(obs, "s", (1,), min_pairs=3)) == 0
    # series shorter than min_pairs + lag -> lag omitted
    obs2 = pd.DataFrame(
        {"bucket_ts": np.arange(4, dtype=np.int64) * 60,
         "sum": np.array([1, 5, 2, 9], dtype=np.int64)}
    )
    out = _acf_one_source(obs2, "s", (1, 2, 3), min_pairs=3)
    assert out["lag"].tolist() == [1]  # only lag 1 has >= 3 pairs


def test_acf_validation(ray_session, small_fixture):
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import acf

    with pytest.raises(EngineValueError):
        acf(small_fixture, lags=())
    with pytest.raises(EngineValueError):
        acf(small_fixture, lags=(0, 1))
    with pytest.raises(EngineValueError):
        acf(small_fixture, min_pairs=1)


def test_acf_end_to_end(ray_session, small_fixture):
    from datafiller_ray.pipelines.window import acf

    out = acf(small_fixture, lags=(1, 2)).to_pandas()
    assert set(out.columns) == {"source", "lag", "n_pairs", "acf"}
    assert (out["acf"].abs() <= 1.0 + 1e-9).all()
    # cross-check one source against numpy on the observed series
    src = out["source"].iloc[0]
    import pyarrow.parquet as pq

    t = pq.read_table(small_fixture).to_pandas()
    sub = t[t["source"] == src].sort_values("doc_id")
    s = sub.groupby(
        (sub["doc_id"].str[-10:].astype(np.int64) * 60)
    )["n_tok"].sum().sort_index().to_numpy(np.int64)
    got = out[(out["source"] == src) & (out["lag"] == 1)]["acf"].iloc[0]
    expect = np.corrcoef(s[:-1], s[1:])[0, 1]
    assert abs(got - expect) < 1e-6


# ---------------------------------------------------------------------------
# MAD outliers


def test_interp_median_matches_numpy():
    from datafiller_ray.pipelines.window import _interp_median

    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4, 5, 10, 101):
        x = np.sort(rng.integers(0, 1000, size=n).astype(np.float64))
        assert _interp_median(x) == np.median(x)


def test_mad_one_source_brute_force():
    from datafiller_ray.pipelines.window import _mad_one_source

    rng = np.random.default_rng(3)
    v = rng.integers(100, 200, size=500).astype(np.int64)
    v[7] = 5000  # a gross outlier
    v[300] = 1
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(500, dtype=np.int64) * 60, "sum": v}
    )
    out = _mad_one_source(obs, "s", 3.0)
    med = np.median(v.astype(np.float64))
    mad = np.median(np.abs(v - med))
    expect_ts = obs["bucket_ts"].to_numpy()[np.abs(v - med) > 3.0 * mad]
    np.testing.assert_array_equal(out["bucket_ts"].to_numpy(), expect_ts)
    assert 5000 in out["sum_tok"].tolist() and 1 in out["sum_tok"].tolist()


def test_mad_zero_spread_flags_nothing():
    from datafiller_ray.pipelines.window import _mad_one_source

    # >50% of buckets share one value -> MAD 0 -> nothing flagged, even
    # though extreme values exist
    v = np.array([7] * 10 + [10**6], dtype=np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(v.size, dtype=np.int64) * 60, "sum": v}
    )
    assert len(_mad_one_source(obs, "s", 3.0)) == 0


def test_mad_validation(ray_session, small_fixture):
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import mad_outliers

    with pytest.raises(EngineValueError):
        mad_outliers(small_fixture, c=0.0)
    with pytest.raises(EngineValueError):
        mad_outliers(small_fixture, c=float("nan"))


# ---------------------------------------------------------------------------
# rolling median


def test_rolling_median_one_source_matches_pandas():
    from datafiller_ray.pipelines.window import _rolling_median_one_source

    rng = np.random.default_rng(11)
    for n in (1, 3, 6, 7, 8, 40):
        obs = pd.DataFrame(
            {
                "bucket_ts": np.arange(n, dtype=np.int64) * 60,
                "sum": rng.integers(0, 10_000, n).astype(np.int64),
            }
        )
        out = _rolling_median_one_source(obs, "s", window=7)
        expect = (
            pd.Series(obs["sum"].astype(np.float64))
            .rolling(7, min_periods=1)
            .median()
            .to_numpy()
        )
        np.testing.assert_array_equal(out["roll_med_tok"].to_numpy(), expect)


def test_rolling_median_end_to_end(ray_session, small_fixture):
    from datafiller_ray.pipelines.window import rolling_median

    out = rolling_median(small_fixture, window=5).to_pandas()
    assert set(out.columns) == {"source", "bucket_ts", "sum_tok", "roll_med_tok"}
    # medians of int data are always k or k + 0.5
    frac = out["roll_med_tok"].to_numpy() % 0.5
    np.testing.assert_array_equal(frac, np.zeros(len(out)))
    # window=1: the median IS the value
    ident = rolling_median(small_fixture, window=1).to_pandas()
    np.testing.assert_array_equal(
        ident["roll_med_tok"].to_numpy(), ident["sum_tok"].to_numpy(np.float64)
    )


def test_rolling_median_validation(ray_session, small_fixture):
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import rolling_median

    with pytest.raises(EngineValueError):
        rolling_median(small_fixture, window=0)


# ---------------------------------------------------------------------------
# per-source OLS trend


def test_trend_one_source_matches_polyfit():
    from datafiller_ray.pipelines.window import _trend_one_source

    rng = np.random.default_rng(5)
    ts = (np.sort(rng.choice(2000, 300, replace=False)) * 60).astype(np.int64)
    y = (
        50 + 0.8 * ((ts - ts[0]) // 60) + rng.integers(-20, 20, ts.size)
    ).astype(np.int64)
    out = _trend_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": y}), "s", step=60
    )
    x = (ts - ts[0]) // 60
    slope, intercept = np.polyfit(x.astype(float), y.astype(float), 1)
    assert abs(out["slope_tok"].iloc[0] - slope) < 1e-6
    assert abs(out["intercept_tok"].iloc[0] - intercept) < 1e-6
    r = np.corrcoef(x, y)[0, 1]
    assert abs(out["r2"].iloc[0] - r * r) < 1e-6


def test_trend_degenerate_sources():
    from datafiller_ray.pipelines.window import _trend_one_source

    # single observation: omitted
    one = _trend_one_source(
        pd.DataFrame({"bucket_ts": [60], "sum": [5]}).astype(np.int64), "s", step=60
    )
    assert len(one) == 0
    # constant series: slope 0, r2 defined as 0
    ts = np.arange(10, dtype=np.int64) * 60
    flat = _trend_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": np.full(10, 7, np.int64)}),
        "s",
        step=60,
    )
    assert flat["slope_tok"].iloc[0] == 0.0
    assert flat["intercept_tok"].iloc[0] == 7.0
    assert flat["r2"].iloc[0] == 0.0


def test_source_trend_end_to_end(ray_session, small_fixture):
    from datafiller_ray.pipelines.window import source_trend

    out = source_trend(small_fixture).to_pandas()
    assert set(out.columns) == {
        "source", "n_obs", "slope_tok", "intercept_tok", "r2"
    }
    assert (out["r2"] >= 0).all() and (out["r2"] <= 1 + 1e-9).all()
    assert out["source"].is_unique


def test_adf_one_source_matches_statsmodels_formula():
    # independent re-derivation: OLS of diff(y) on [1, y_lag] via lstsq,
    # t = gamma / se(gamma) from the standard (X'X)^-1 covariance
    from datafiller_ray.pipelines.window import _adf_one_source

    rng = np.random.default_rng(11)
    # mean-reverting AR(1): should give a strongly negative t
    y = np.zeros(400)
    for i in range(1, 400):
        y[i] = 0.55 * y[i - 1] + rng.normal(0, 10)
    s = np.rint(y + 500).astype(np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(s.size, dtype=np.int64) * 60, "sum": s}
    )
    out = _adf_one_source(obs, "s")
    x = s[:-1].astype(float)
    d = np.diff(s).astype(float)
    X = np.column_stack([np.ones_like(x), x])
    beta, *_ = np.linalg.lstsq(X, d, rcond=None)
    resid = d - X @ beta
    dof = d.size - 2
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(X.T @ X)
    t_ref = beta[1] / np.sqrt(cov[1, 1])
    assert abs(out["gamma_hat"].iloc[0] - beta[1]) < 1e-6
    assert abs(out["adf_t"].iloc[0] - t_ref) < 1e-4
    assert out["adf_t"].iloc[0] < -5  # mean reversion detected


def test_adf_degenerate_sources():
    from datafiller_ray.pipelines.window import _adf_one_source

    ts = np.arange(10, dtype=np.int64) * 60
    # constant series: d1 == 0, omitted
    flat = _adf_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": np.full(10, 7, np.int64)}), "s"
    )
    assert len(flat) == 0
    # exact linear ramp: residuals are zero -> rrd == 0, omitted
    ramp = _adf_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": np.arange(10, dtype=np.int64)}),
        "s",
    )
    assert len(ramp) == 0
    # too short
    short = _adf_one_source(
        pd.DataFrame({"bucket_ts": ts[:3], "sum": np.array([1, 5, 2], np.int64)}),
        "s",
    )
    assert len(short) == 0


def test_haar_one_source_parseval_and_reconstruction():
    # independent check: level energies of the NORMALIZED Haar transform
    # relate to the unnormalized ladder by 2^k scaling, and total detail +
    # final approximation energy equals the signal energy (Parseval)
    from datafiller_ray.pipelines.window import _haar_one_source

    rng = np.random.default_rng(3)
    v = rng.integers(0, 2000, 64).astype(np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(64, dtype=np.int64) * 60, "sum": v}
    )
    out = _haar_one_source(obs, "s", 6)
    assert out["level"].tolist() == [1, 2, 3, 4, 5, 6]
    assert out["n_coefs"].tolist() == [32, 16, 8, 4, 2, 1]
    # reference: orthonormal Haar detail coefs d_k = (a - b)/sqrt(2) on the
    # running normalized approximations; energy_k(engine) * 2^k == ||d_k||^2
    a = v.astype(float)
    ref = []
    for k in range(1, 7):
        d = (a[0::2] - a[1::2]) / np.sqrt(2.0)
        a = (a[0::2] + a[1::2]) / np.sqrt(2.0)
        ref.append(float(d @ d))
    for k, e_ref in enumerate(ref, start=1):
        # engine energies are round6'd; x 2^k amplifies that half-ulp
        e_eng = out.loc[out["level"] == k, "energy"].iloc[0]
        np.testing.assert_allclose(
            e_eng * (2.0**k), e_ref, atol=(2.0**k) * 5e-7, rtol=1e-9
        )
    # Parseval: sum_k 2^k e_k + final approximation energy == ||v||^2
    total = sum((2.0**k) * out["energy"].iloc[k - 1] for k in range(1, 7))
    np.testing.assert_allclose(
        total + float(a[0] ** 2), float(v @ v), atol=1e-4, rtol=1e-9
    )


def test_haar_truncation_and_short_sources():
    from datafiller_ray.pipelines.window import _haar_one_source

    # 19 observations -> power-of-two prefix 16
    v = np.arange(19, dtype=np.int64) * 7
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(19, dtype=np.int64) * 60, "sum": v}
    )
    out = _haar_one_source(obs, "s", 3)
    assert out["n_coefs"].tolist() == [8, 4, 2]
    # too short for the requested depth: omitted
    short = _haar_one_source(obs.head(7), "s", 3)
    assert len(short) == 0


def test_adf_end_to_end(ray_session, small_fixture):
    from datafiller_ray.pipelines.window import adf_stat

    out = adf_stat(small_fixture).to_pandas()
    assert set(out.columns) == {"source", "n_pairs", "gamma_hat", "adf_t"}
    assert out["source"].is_unique
    assert (out["n_pairs"] >= 3).all()
    # gamma in a sane band: differences regressed on levels
    assert (out["gamma_hat"] <= 0.0).all() or (out["gamma_hat"] > -2.5).all()


# ---------------------------------------------------------------------------
# winsorize / ntile


def test_winsorize_one_source_brute_force():
    from datafiller_ray.pipelines.window import _winsorize_one_source

    rng = np.random.default_rng(21)
    v = rng.integers(0, 1000, 101).astype(np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(101, dtype=np.int64) * 60, "sum": v}
    )
    out = _winsorize_one_source(obs, "s", 0.25, 0.75)
    lo = np.quantile(v.astype(float), 0.25, method="linear")
    hi = np.quantile(v.astype(float), 0.75, method="linear")
    np.testing.assert_allclose(out["lo_tok"].iloc[0], lo)
    np.testing.assert_allclose(out["hi_tok"].iloc[0], hi)
    np.testing.assert_array_equal(
        out["wins_tok"].to_numpy(), np.clip(v.astype(float), lo, hi)
    )


def test_winsorize_validation(ray_session, small_fixture):
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import winsorize

    for bad in (dict(q_lo=0.05), dict(q_hi=1.5), dict(q_lo=0.75, q_hi=0.25)):
        with pytest.raises(EngineValueError):
            winsorize(small_fixture, **bad)
    # binary fractions beyond the quartiles are accepted
    out = winsorize(small_fixture, q_lo=0.125, q_hi=0.875).to_pandas()
    assert (out["wins_tok"] >= out["lo_tok"] - 1e-12).all()
    assert (out["wins_tok"] <= out["hi_tok"] + 1e-12).all()


def test_ntile_one_source_fill_rule():
    from datafiller_ray.pipelines.window import _ntile_one_source

    # n = 10, k = 4 -> sizes 3,3,2,2 in rank order
    obs = pd.DataFrame(
        {
            "bucket_ts": np.arange(10, dtype=np.int64) * 60,
            "sum": np.arange(10, dtype=np.int64) * 10,  # already sorted
        }
    )
    out = _ntile_one_source(obs, "s", 4)
    assert out["tile"].tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 4, 4]
    # ties broken by bucket_ts asc
    tied = pd.DataFrame(
        {"bucket_ts": np.array([60, 0], dtype=np.int64),
         "sum": np.array([5, 5], dtype=np.int64)}
    )
    t2 = _ntile_one_source(tied, "s", 2).set_index("bucket_ts")["tile"]
    assert t2[0] == 1 and t2[60] == 2


def test_ntile_end_to_end(ray_session, small_fixture):
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import ntile_volume

    out = ntile_volume(small_fixture, n_tiles=4).to_pandas()
    # every source's tiles are 1..4 and sizes differ by at most one
    for _, g in out.groupby("source"):
        counts = g["tile"].value_counts()
        assert counts.max() - counts.min() <= 1
        assert set(g["tile"]) <= {1, 2, 3, 4}
    with pytest.raises(EngineValueError):
        ntile_volume(small_fixture, n_tiles=0)


# ---------------------------------------------------------------------------
# Brown/Holt smoothing, STL-lite decomposition, M4 downsample, dominant period


def test_holt_engine_matches_recursion_oracle():
    from datafiller_ray.pipelines.window import _holt_one_source

    o = _oracle_fills()
    rng = np.random.default_rng(11)
    s = rng.integers(0, 100000, size=4321)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(s.size, dtype=np.int64) * 60, "sum": s}
    )
    for alpha in (0.25, 0.1, 0.37):
        eng = _holt_one_source(obs, "s", alpha)
        level, trend, forecast = o.holt_recursion(s.astype(np.float64), alpha)
        np.testing.assert_array_equal(
            eng["level_tok"].to_numpy(), o.round_half_up(level)
        )
        np.testing.assert_array_equal(
            eng["trend_tok"].to_numpy(), o.round_half_up(trend)
        )
        np.testing.assert_array_equal(
            eng["forecast_tok"].to_numpy(), o.round_half_up(forecast)
        )


def test_holt_tracks_linear_ramp():
    # on an exact ramp the one-step forecast converges to the next value;
    # plain EWMA lags by a constant — the property Holt adds
    from datafiller_ray.pipelines.window import _holt_one_source

    s = (np.arange(400, dtype=np.int64) * 10) + 1000
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(s.size, dtype=np.int64) * 60, "sum": s}
    )
    out = _holt_one_source(obs, "s", 0.3)
    tail_err = out["forecast_tok"].to_numpy()[-20:] - (s[-20:] + 10)
    assert np.abs(tail_err).max() < 1.0
    # trend estimate converges to the true slope
    assert abs(out["trend_tok"].iloc[-1] - 10.0) < 0.5


def test_stl_identity_and_trend_window():
    from datafiller_ray.pipelines.window import _stl_one_source

    rng = np.random.default_rng(17)
    n = 1000
    ts = np.arange(n, dtype=np.int64) * 60
    s = rng.integers(0, 5000, size=n).astype(np.int64)
    out = _stl_one_source(pd.DataFrame({"bucket_ts": ts, "sum": s}), "s", 6)
    # exact additive identity in micro-units
    np.testing.assert_array_equal(
        out["trend_u"] + out["seasonal_u"] + out["resid_u"],
        s * 1_000_000,
    )
    # trend at an interior point == half-up rounded 13-bucket mean
    i = 500
    w = s[i - 6 : i + 7]
    exp = (2 * int(w.sum()) * 1_000_000 + 13) // 26
    assert out["trend_u"].iloc[i] == exp


def test_stl_constant_series_zero_residual():
    from datafiller_ray.pipelines.window import _stl_one_source

    ts = np.arange(100, dtype=np.int64) * 60
    s = np.full(100, 777, dtype=np.int64)
    out = _stl_one_source(pd.DataFrame({"bucket_ts": ts, "sum": s}), "s", 6)
    assert (out["trend_u"] == 777_000_000).all()
    assert (out["seasonal_u"] == 0).all()
    assert (out["resid_u"] == 0).all()


def test_m4_one_source_brute_force():
    from datafiller_ray.pipelines.window import _m4_one_source

    rng = np.random.default_rng(23)
    # sparse grid with duplicated extrema to exercise earliest-ts ties
    ts = np.sort(rng.choice(np.arange(0, 86400, 60), size=600, replace=False))
    s = rng.integers(0, 50, size=600).astype(np.int64)  # small range: many ties
    out = _m4_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": s}), "s", 3600
    )
    px = (ts // 3600) * 3600
    for _, r in out.iterrows():
        m = px == r["px_ts"]
        tsm, sm = ts[m], s[m]
        assert r["n_buckets"] == m.sum()
        assert r["first_tok"] == sm[0] and r["last_tok"] == sm[-1]
        assert r["min_tok"] == sm.min() and r["max_tok"] == sm.max()
        assert r["min_ts"] == tsm[sm == sm.min()][0]
        assert r["max_ts"] == tsm[sm == sm.max()][0]


def test_dominant_period_finds_planted_cycle():
    from datafiller_ray.pipelines.window import _dominant_period_one_source

    n = 600
    ts = np.arange(n, dtype=np.int64) * 60
    rng = np.random.default_rng(29)
    s = (1000 + 500 * np.cos(2 * np.pi * np.arange(n) / 12)).astype(np.int64)
    s += rng.integers(0, 50, size=n)
    out = _dominant_period_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": s}), "s", 24, 3
    )
    assert out["best_lag"].tolist() == [12]
    assert out["acf"].iloc[0] > 0.9


def test_dominant_period_short_series_omitted():
    from datafiller_ray.pipelines.window import _dominant_period_one_source

    obs = pd.DataFrame(
        {"bucket_ts": np.array([0, 60], dtype=np.int64),
         "sum": np.array([1, 2], dtype=np.int64)}
    )
    out = _dominant_period_one_source(obs, "s", 24, 3)
    assert len(out) == 0 and "best_lag" in out.columns


def test_new_window_ops_end_to_end(ray_session, small_fixture):
    from datafiller_ray.pipelines.window import (
        dominant_period,
        holt_smooth,
        m4_downsample,
        stl_decompose,
    )

    holt = holt_smooth(small_fixture, alpha=0.25).to_pandas()
    assert {"level_tok", "trend_tok", "forecast_tok"} <= set(holt.columns)

    stl = stl_decompose(small_fixture, trend_window=13).to_pandas()
    np.testing.assert_array_equal(
        stl["trend_u"] + stl["seasonal_u"] + stl["resid_u"],
        stl["sum_tok"].to_numpy(np.int64) * 1_000_000,
    )

    m4 = m4_downsample(small_fixture, px_seconds=3600).to_pandas()
    assert (m4["min_tok"] <= m4["max_tok"]).all()
    assert (m4["px_ts"] % 3600 == 0).all()

    dom = dominant_period(small_fixture, max_lag=12).to_pandas()
    assert dom["best_lag"].between(2, 12).all()
    # one row per source at most
    assert dom["source"].is_unique


def test_new_window_param_guards():
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import (
        dominant_period,
        holt_smooth,
        m4_downsample,
        stl_decompose,
    )

    with pytest.raises(EngineValueError):
        holt_smooth("/nonexistent", alpha=1.0)  # coef degenerates
    with pytest.raises(EngineValueError):
        stl_decompose("/nonexistent", trend_window=12)  # even window
    with pytest.raises(EngineValueError):
        m4_downsample("/nonexistent", px_seconds=30)
    with pytest.raises(EngineValueError):
        dominant_period("/nonexistent", max_lag=1)


def test_anomaly_intervals_island_merge():
    from datafiller_ray.pipelines.window import _anomaly_intervals_one_source

    # flat series with two bursts: one 3-bucket island, one singleton;
    # window=3/min_window=1 so the trailing mean reacts late enough to flag
    base = np.full(60, 100, dtype=np.int64)
    base[20:23] = 1000  # adjacent burst
    base[40] = 1000  # lone spike
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(60, dtype=np.int64) * 60, "sum": base}
    )
    out = _anomaly_intervals_one_source(obs, "s", 60, 2.0, 10)
    assert len(out) == 2
    first = out.iloc[0]
    assert first["start_ts"] == 20 * 60 and first["end_ts"] == 22 * 60
    assert first["n_buckets"] == 3
    assert first["peak_tok"] == 1000 and first["peak_ts"] == 20 * 60  # earliest tie
    lone = out.iloc[1]
    assert lone["start_ts"] == lone["end_ts"] == 40 * 60
    assert lone["n_buckets"] == 1


def test_anomaly_intervals_gap_splits_island():
    from datafiller_ray.pipelines.window import _anomaly_intervals_one_source

    # two flagged buckets separated by an unobserved minute must NOT merge
    base = np.full(60, 100, dtype=np.int64)
    base[30] = 1000
    base[32] = 1000
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(60, dtype=np.int64) * 60, "sum": base}
    )
    # drop bucket 31 from the observed grid entirely
    obs = obs[obs["bucket_ts"] != 31 * 60].reset_index(drop=True)
    out = _anomaly_intervals_one_source(obs, "s", 60, 2.0, 10)
    assert len(out) == 2
    assert (out["n_buckets"] == 1).all()


def test_anomaly_intervals_end_to_end(ray_session, small_fixture):
    from datafiller_ray.pipelines.window import anomaly_intervals

    out = anomaly_intervals(
        small_fixture, window=60, factor=1.1, min_window=5
    ).to_pandas()
    assert set(out.columns) == {
        "source", "start_ts", "end_ts", "n_buckets", "peak_tok", "peak_ts",
    }
    assert (out["start_ts"] <= out["peak_ts"]).all()
    assert (out["peak_ts"] <= out["end_ts"]).all()
    # interval length consistent with the grid
    assert ((out["end_ts"] - out["start_ts"]) // 60 + 1 >= out["n_buckets"]).all()


def test_staleness_report_lag(ray_session, small_fixture):
    from datafiller_ray.pipelines.window import staleness_report

    out = staleness_report(small_fixture).to_pandas()
    assert set(out.columns) == {
        "source", "last_bucket_ts", "n_buckets", "n_docs", "lag_s",
    }
    assert out["source"].is_unique
    # the freshest source has zero lag; lags are relative to the global max
    assert (out["lag_s"] >= 0).all()
    assert (out["lag_s"] == 0).any()
    gmax = out["last_bucket_ts"].max()
    np.testing.assert_array_equal(
        out["lag_s"].to_numpy(), gmax - out["last_bucket_ts"].to_numpy()
    )


# ---------------------------------------------------------------------------
# seasonal-naive MASE


def test_mase_one_source_matches_literal():
    from datafiller_ray.pipelines.window import _mase_one_source

    rng = np.random.default_rng(13)
    s = rng.integers(1, 1000, size=100).astype(np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(100, dtype=np.int64) * 60, "sum": s}
    )
    out = _mase_one_source(obs, "s", season=10)
    num = np.abs(s[10:] - s[:-10]).sum() / (100 - 10)
    den = np.abs(s[1:] - s[:-1]).sum() / (100 - 1)
    assert len(out) == 1
    assert abs(float(out["mase"].iloc[0]) - num / den) < 1e-6
    assert int(out["n_obs"].iloc[0]) == 100


def test_mase_skips_short_and_constant():
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import (
        _mase_one_source,
        seasonal_naive_mase,
    )

    const = pd.DataFrame(
        {"bucket_ts": np.arange(50, dtype=np.int64) * 60,
         "sum": np.full(50, 7, dtype=np.int64)}
    )
    assert len(_mase_one_source(const, "s", season=10)) == 0
    short = const.head(5)
    assert len(_mase_one_source(short, "s", season=10)) == 0
    with pytest.raises(EngineValueError):
        seasonal_naive_mase("/nonexistent", season=0)


def test_completeness_one_source_edges_and_dense_zero_hours():
    from datafiller_ray.pipelines.window import _completeness_one_source

    # span: minute 90 .. minute 245  ->  hours 1, 2, 3, 4
    #  hour 1 expected = minutes 90..119 (30), observed 2
    #  hour 2 expected = 60, observed 60 (full)
    #  hour 3 expected = 60, observed 0  (dense zero row)
    #  hour 4 expected = minutes 240..245 (6), observed 1
    minutes = np.concatenate(
        [[90, 100], np.arange(120, 180), [245]]
    ).astype(np.int64)
    obs = pd.DataFrame({"bucket_ts": minutes * 60})
    out = _completeness_one_source(obs, "s").reset_index(drop=True)
    assert out["bucket_ts"].tolist() == [3600, 7200, 10800, 14400]
    assert out["observed_minutes"].tolist() == [2, 60, 0, 1]
    assert out["expected_minutes"].tolist() == [30, 60, 60, 6]
    exp = np.floor(np.array([2 / 30, 1.0, 0.0, 1 / 6]) * 1e6 + 0.5) / 1e6
    np.testing.assert_array_equal(out["completeness"].to_numpy(), exp)


def test_completeness_report_end_to_end(ray_session, small_fixture):
    from datafiller_ray.pipelines.window import (
        _completeness_one_source,
        completeness_report,
    )

    out = completeness_report(small_fixture).to_pandas()
    assert (out["observed_minutes"] <= out["expected_minutes"]).all()
    assert (out["expected_minutes"] >= 1).all()
    assert (out["expected_minutes"] <= 60).all()
    # every source's hour grid is dense and contiguous
    for _, g in out.groupby("source"):
        ts = np.sort(g["bucket_ts"].to_numpy(np.int64))
        assert (np.diff(ts) == 3600).all()
    # the exchange returns the report of the exchange-free reference
    b = _driver_reference(small_fixture, _completeness_one_source)
    key = ["source", "bucket_ts"]
    pd.testing.assert_frame_equal(
        out.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True),
        check_like=True,
    )


def test_ohlc_one_source_literal():
    from datafiller_ray.pipelines.window import _ohlc_one_source

    # two hourly buckets: [0, 3540] and [3600]
    obs = pd.DataFrame(
        {"bucket_ts": np.array([0, 120, 3540, 3600], dtype=np.int64),
         "sum": np.array([7, 3, 9, 4], dtype=np.int64)}
    )
    out = _ohlc_one_source(obs, "s", 3600)
    assert out["bucket_ts"].tolist() == [0, 3600]
    assert out["n_minutes"].tolist() == [3, 1]
    assert out["open_ts"].tolist() == [0, 3600]
    assert out["open_tok"].tolist() == [7, 4]
    assert out["high_tok"].tolist() == [9, 4]
    assert out["low_tok"].tolist() == [3, 4]
    assert out["close_ts"].tolist() == [3540, 3600]
    assert out["close_tok"].tolist() == [9, 4]


def test_ohlc_matches_brute_force():
    from datafiller_ray.pipelines.window import _ohlc_one_source

    rng = np.random.default_rng(11)
    minutes = np.sort(rng.choice(600, size=200, replace=False)).astype(np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": minutes * 60,
         "sum": rng.integers(1, 1000, size=minutes.size).astype(np.int64)}
    )
    out = _ohlc_one_source(obs, "s", 3600)
    df = obs.assign(hb=(obs["bucket_ts"] // 3600) * 3600)
    for _, row in out.iterrows():
        g = df[df["hb"] == row["bucket_ts"]]
        assert row["n_minutes"] == len(g)
        assert row["open_tok"] == g["sum"].iloc[0]
        assert row["close_tok"] == g["sum"].iloc[-1]
        assert row["high_tok"] == g["sum"].max()
        assert row["low_tok"] == g["sum"].min()


def test_islands_one_source_literal():
    from datafiller_ray.pipelines.window import _islands_one_source

    # runs: {0,60,120}, {300}, {420,480}
    obs = pd.DataFrame(
        {"bucket_ts": np.array([0, 60, 120, 300, 420, 480], dtype=np.int64),
         "sum": np.array([1, 2, 3, 10, 4, 5], dtype=np.int64)}
    )
    out = _islands_one_source(obs, "s")
    assert out["island_start"].tolist() == [0, 300, 420]
    assert out["island_end"].tolist() == [120, 300, 480]
    assert out["n_buckets"].tolist() == [3, 1, 2]
    assert out["sum_tok"].tolist() == [6, 10, 9]


def test_ohlc_islands_end_to_end(ray_session, small_fixture):
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import coverage_islands, ohlc_candles

    ohlc = ohlc_candles(small_fixture, step=3600).to_pandas()
    assert (ohlc["low_tok"] <= ohlc["high_tok"]).all()
    assert (ohlc["low_tok"] <= ohlc["open_tok"]).all()
    assert (ohlc["open_tok"] <= ohlc["high_tok"]).all()
    assert (ohlc["open_ts"] <= ohlc["close_ts"]).all()
    assert (ohlc["bucket_ts"] % 3600 == 0).all()
    assert (ohlc["n_minutes"].between(1, 60)).all()

    isl = coverage_islands(small_fixture).to_pandas()
    # islands of one source never overlap and are separated by >= 1 gap
    for _, g in isl.groupby("source"):
        g = g.sort_values("island_start")
        assert (g["island_end"] >= g["island_start"]).all()
        assert (
            g["island_start"].to_numpy()[1:]
            > g["island_end"].to_numpy()[:-1] + 60
        ).all()
    # island bucket counts reconcile with the rollup row count per source
    from datafiller_ray.pipelines.rollup import rollup_tiers
    from datafiller_ray.config import FillConfig

    r = rollup_tiers(small_fixture, fill=FillConfig(strategy=None),
                     tiers=("1m",), check_tokens=False).to_pandas()
    r = r[r["count"] > 0]
    per_src = r.groupby("source").size()
    got = isl.groupby("source")["n_buckets"].sum()
    pd.testing.assert_series_equal(
        per_src.sort_index(), got.sort_index(),
        check_names=False, check_dtype=False,
    )

    with pytest.raises(EngineValueError):
        ohlc_candles(small_fixture, step=90)


def test_dow_hour_one_source_literal():
    from datafiller_ray.pipelines.window import _dow_hour_one_source

    # 1970-01-01 (Thursday=4) 00:xx and 01:xx, plus 1970-01-02 (Friday=5)
    obs = pd.DataFrame(
        {"bucket_ts": np.array([0, 60, 3600, 86400], dtype=np.int64),
         "sum": np.array([10, 20, 30, 40], dtype=np.int64)}
    )
    out = _dow_hour_one_source(obs, "s")
    assert out["dow"].tolist() == [4, 4, 5]
    assert out["hour"].tolist() == [0, 1, 0]
    assert out["n_minutes"].tolist() == [2, 1, 1]
    assert out["sum_tok"].tolist() == [30, 30, 40]
    assert out["mean_tok"].tolist() == [15.0, 30.0, 40.0]


def test_rank_shift_literal(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.window import source_rank_shift

    # minutes 0..3, mid = (0*60 + 3*60)//2 = 90 -> early = {0, 60}
    rows = []
    for src, per_minute in [("a", [10, 10, 1, 1]), ("b", [1, 1, 10, 10]),
                            ("c", [5, 5, 5, 5])]:
        for m, v in enumerate(per_minute):
            rows.append({"doc_id": f"{src}:{m:010d}", "source": src, "n_tok": v})
    path = tmp_path / "in.parquet"
    pq.write_table(pa.Table.from_pylist(rows), path)
    out = source_rank_shift(str(path)).sort_values("source").reset_index(drop=True)
    assert out["tok_early"].tolist() == [20, 2, 10]
    assert out["tok_late"].tolist() == [2, 20, 10]
    assert out["rank_early"].tolist() == [1, 3, 2]
    assert out["rank_late"].tolist() == [3, 1, 2]
    assert out["rank_shift"].tolist() == [-2, 2, 0]


def test_cross_section_quantiles_literal(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.window import cross_section_quantiles

    # one hour, three sources with hourly sums 10, 20, 30
    rows = []
    for i, src in enumerate(["a", "b", "c"]):
        rows.append(
            {"doc_id": f"{src}:{0:010d}", "source": src, "n_tok": (i + 1) * 10}
        )
    path = tmp_path / "in.parquet"
    pq.write_table(pa.Table.from_pylist(rows), path)
    out = cross_section_quantiles(str(path), step=3600).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert r["n_sources"] == 3
    assert r["p50_tok"] == 20.0
    assert r["p10_tok"] == pytest.approx(12.0)  # 10 + 0.2*(20-10)
    assert r["p90_tok"] == pytest.approx(28.0)


def test_cross_section_end_to_end(ray_session, small_fixture):
    from datafiller_ray.pipelines.window import cross_section_quantiles

    out = cross_section_quantiles(small_fixture, step=3600).to_pandas()
    assert (out["p10_tok"] <= out["p50_tok"]).all()
    assert (out["p50_tok"] <= out["p90_tok"]).all()
    assert out["bucket_ts"].is_unique
    assert (out["n_sources"] >= 1).all()


def test_value_runs_one_source_literal():
    from datafiller_ray.pipelines.window import _value_runs_one_source

    # levels (width 10): 1,1 | 2 | (gap) 2 | 0
    obs = pd.DataFrame(
        {"bucket_ts": np.array([0, 60, 120, 300, 360], dtype=np.int64),
         "sum": np.array([15, 19, 25, 27, 5], dtype=np.int64)}
    )
    out = _value_runs_one_source(obs, "s", 10)
    assert out["run_start"].tolist() == [0, 120, 300, 360]
    assert out["run_end"].tolist() == [60, 120, 300, 360]
    assert out["level"].tolist() == [1, 2, 2, 0]
    assert out["run_len"].tolist() == [2, 1, 1, 1]


def test_topk_movers_end_to_end(ray_session, small_fixture):
    from datafiller_ray.pipelines.window import topk_movers

    out = topk_movers(small_fixture, step=3600, k=5).to_pandas()
    assert len(out) <= 5
    assert out["rnk"].tolist() == list(range(1, len(out) + 1))
    # ranked by |delta| descending
    d = out["delta_abs"].to_numpy()
    assert (d[1:] <= d[:-1]).all()
    assert (out["delta"].abs() == out["delta_abs"]).all()
    assert ((out["tok"] - out["prev_tok"]) == out["delta"]).all()


def test_running_records_one_source_literal():
    from datafiller_ray.pipelines.window import _records_one_source

    obs = pd.DataFrame(
        {
            "bucket_ts": np.array([0, 60, 120, 180, 240], dtype=np.int64),
            "sum": np.array([5, 3, 7, 7, 9], dtype=np.int64),
        }
    )
    out = _records_one_source(obs, "s")
    # strict records only: ties with the running max are NOT records
    assert out["bucket_ts"].tolist() == [0, 120, 240]
    assert out["sum_tok"].tolist() == [5, 7, 9]
    assert out["record_no"].tolist() == [1, 2, 3]


def test_running_records_brute_force():
    from datafiller_ray.pipelines.window import _records_one_source

    rng = np.random.default_rng(7)
    for n in (1, 2, 17, 101):
        s = rng.integers(0, 20, size=n).astype(np.int64)
        obs = pd.DataFrame(
            {"bucket_ts": np.arange(n, dtype=np.int64) * 60, "sum": s}
        )
        out = _records_one_source(obs, "s")
        expect = [i for i in range(n) if (s[:i] < s[i]).all()]
        assert out["bucket_ts"].tolist() == [i * 60 for i in expect]


def test_burstiness_literal():
    from datafiller_ray.pipelines.window import _burstiness_one_source

    # values 2, 4, 6: mean 4, pop var 8/3, fano = var/mean, cv = sd/mean
    obs = pd.DataFrame(
        {
            "bucket_ts": np.array([0, 60, 120], dtype=np.int64),
            "sum": np.array([2, 4, 6], dtype=np.int64),
        }
    )
    out = _burstiness_one_source(obs, "s")
    assert out["n_buckets"].tolist() == [3]
    assert out["sum_tok"].tolist() == [12]
    assert out["mean_tok"].tolist() == [4.0]
    var = (3 * (4 + 16 + 36) - 144) / 9.0
    assert out["var_tok"].tolist() == [np.floor(var * 1e6 + 0.5) / 1e6]
    assert out["fano"].tolist() == [np.floor(var / 4.0 * 1e6 + 0.5) / 1e6]
    import math

    assert out["cv"].tolist() == [
        np.floor(math.sqrt(var) / 4.0 * 1e6 + 0.5) / 1e6
    ]


def test_burstiness_zero_total_source_omitted():
    from datafiller_ray.pipelines.window import _burstiness_one_source

    obs = pd.DataFrame(
        {
            "bucket_ts": np.array([0, 60], dtype=np.int64),
            "sum": np.array([0, 0], dtype=np.int64),
        }
    )
    out = _burstiness_one_source(obs, "s")
    assert len(out) == 0
    # _string_typed_if_empty pins the empty source column to string dtype
    assert str(out["source"].dtype) == "string"


def test_streaks_one_source_literal():
    from datafiller_ray.pipelines.window import _streaks_one_source

    # values 1,2,3 | gap | 4,2,1 — up streak 3 (gap breaks the 3->4 step),
    # down streak 3 (4,2,1)
    obs = pd.DataFrame(
        {
            "bucket_ts": np.array([0, 60, 120, 300, 360, 420], dtype=np.int64),
            "sum": np.array([1, 2, 3, 4, 2, 1], dtype=np.int64),
        }
    )
    out = _streaks_one_source(obs, "s")
    assert out["longest_up"].tolist() == [3]
    assert out["longest_down"].tolist() == [3]
    assert out["n_buckets"].tolist() == [6]


def test_streaks_single_bucket_is_length_one():
    from datafiller_ray.pipelines.window import _streaks_one_source

    obs = pd.DataFrame(
        {"bucket_ts": np.array([0], dtype=np.int64),
         "sum": np.array([9], dtype=np.int64)}
    )
    out = _streaks_one_source(obs, "s")
    assert out["longest_up"].tolist() == [1]
    assert out["longest_down"].tolist() == [1]


def test_theilsen_one_source_literal():
    from datafiller_ray.pipelines.window import _theilsen_one_source

    # hourly sums y = [0, 10, 14] at t = [0, 3600, 7200]: pairwise slopes
    # 10/3600, 14/7200, 4/3600 -> sorted medians to the middle one
    obs = pd.DataFrame(
        {
            "bucket_ts": np.array([0, 3600, 7200], dtype=np.int64),
            "sum": np.array([0, 10, 14], dtype=np.int64),
        }
    )
    out = _theilsen_one_source(obs, "s", 3600)
    assert out["n_steps"].tolist() == [3]
    assert out["n_pairs"].tolist() == [3]
    slopes = sorted([10 / 3600, 14 / 7200, 4 / 3600])
    assert out["slope"].tolist() == [np.floor(slopes[1] * 1e6 + 0.5) / 1e6]


def test_theilsen_resists_outlier():
    from datafiller_ray.pipelines.window import _theilsen_one_source

    # linear slope 1/3600 with one corrupted point: median slope stays
    # within a factor-2 band while OLS would be dragged far off
    n = 24
    y = np.arange(n, dtype=np.int64)
    y[12] = 10_000
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(n, dtype=np.int64) * 3600, "sum": y}
    )
    out = _theilsen_one_source(obs, "s", 3600)
    true = 1 / 3600
    assert abs(out["slope"].iloc[0]) < 2 * true + 1e-9


def test_mann_kendall_one_source_literal():
    from datafiller_ray.pipelines.window import _mann_kendall_one_source

    # hourly y = [1, 3, 2]: pairs (1,3)+1, (1,2)+1, (3,2)-1 -> S=1,
    # tau = 1/3
    obs = pd.DataFrame(
        {
            "bucket_ts": np.array([0, 3600, 7200], dtype=np.int64),
            "sum": np.array([1, 3, 2], dtype=np.int64),
        }
    )
    out = _mann_kendall_one_source(obs, "s", 3600)
    assert out["n_steps"].tolist() == [3]
    assert out["s_stat"].tolist() == [1]
    assert out["tau"].tolist() == [np.floor(1 / 3 * 1e6 + 0.5) / 1e6]


def test_mann_kendall_monotone_and_ties():
    from datafiller_ray.pipelines.window import _mann_kendall_one_source

    n = 10
    obs = pd.DataFrame(
        {
            "bucket_ts": np.arange(n, dtype=np.int64) * 3600,
            "sum": np.arange(n, dtype=np.int64) + 5,
        }
    )
    out = _mann_kendall_one_source(obs, "s", 3600)
    assert out["s_stat"].tolist() == [n * (n - 1) // 2]
    assert out["tau"].tolist() == [1.0]
    # all-constant: every sign is 0
    obs["sum"] = 7
    out = _mann_kendall_one_source(obs, "s", 3600)
    assert out["s_stat"].tolist() == [0]
    assert out["tau"].tolist() == [0.0]


def test_holt_winters_engine_matches_recursion_oracle():
    from datafiller_ray.pipelines.window import _holt_winters_one_source

    o = _oracle_fills()
    rng = np.random.default_rng(13)
    for n, m in ((25, 4), (123, 7), (400, 24)):
        s = rng.integers(0, 10000, size=n)
        obs = pd.DataFrame(
            {"bucket_ts": np.arange(n, dtype=np.int64) * 60, "sum": s}
        )
        eng = _holt_winters_one_source(obs, "s", 60, m, 0.2, 0.1, 0.3)
        fc, lv, tr = o.holt_winters_recursion(
            s.astype(np.float64), m, 0.2, 0.1, 0.3
        )
        np.testing.assert_array_equal(
            eng["forecast_tok"].to_numpy(), o.round_half_up(fc)
        )
        np.testing.assert_array_equal(
            eng["level_tok"].to_numpy(), o.round_half_up(lv)
        )
        np.testing.assert_array_equal(
            eng["trend_tok"].to_numpy(), o.round_half_up(tr)
        )


def test_holt_winters_perfect_seasonal_forecast():
    from datafiller_ray.pipelines.window import _holt_winters_one_source

    # an exactly periodic series with zero trend: after init, the one-step
    # forecast reproduces the pattern exactly (all recursion corrections
    # are zero, level/trend/seasonal are fixed points)
    m = 6
    pat = np.array([10, 30, 20, 50, 40, 60], dtype=np.int64)
    s = np.tile(pat, 5)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(s.size, dtype=np.int64) * 60, "sum": s}
    )
    out = _holt_winters_one_source(obs, "s", 60, m, 0.2, 0.1, 0.3)
    np.testing.assert_allclose(
        out["forecast_tok"].to_numpy(), s[m:].astype(np.float64), atol=1e-6
    )
    assert np.allclose(out["trend_tok"].to_numpy(), 0.0, atol=1e-6)


def test_holt_winters_short_source_omitted():
    from datafiller_ray.pipelines.window import _holt_winters_one_source

    obs = pd.DataFrame(
        {"bucket_ts": np.arange(7, dtype=np.int64) * 60,
         "sum": np.arange(7, dtype=np.int64)}
    )
    out = _holt_winters_one_source(obs, "s", 60, 4, 0.2, 0.1, 0.3)
    assert len(out) == 0 and str(out["source"].dtype) == "string"


def test_holt_damped_engine_matches_recursion_oracle():
    from datafiller_ray.pipelines.window import _holt_damped_one_source

    o = _oracle_fills()
    rng = np.random.default_rng(29)
    for n in (2, 17, 250):
        s = rng.integers(0, 10000, size=n)
        obs = pd.DataFrame(
            {"bucket_ts": np.arange(n, dtype=np.int64) * 60, "sum": s}
        )
        eng = _holt_damped_one_source(obs, "s", 60, 0.25, 0.1, 0.9)
        fc, lv, tr = o.holt_damped_recursion(s.astype(np.float64), 0.25, 0.1, 0.9)
        np.testing.assert_array_equal(
            eng["forecast_tok"].to_numpy(), o.round_half_up(fc)
        )
        np.testing.assert_array_equal(
            eng["level_tok"].to_numpy(), o.round_half_up(lv)
        )
        np.testing.assert_array_equal(
            eng["trend_tok"].to_numpy(), o.round_half_up(tr)
        )


def test_holt_damped_constant_series_is_fixed_point():
    from datafiller_ray.pipelines.window import _holt_damped_one_source

    # constant series: trend init is 0 and stays 0; level == forecast == y
    s = np.full(30, 42, dtype=np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(s.size, dtype=np.int64) * 60, "sum": s}
    )
    out = _holt_damped_one_source(obs, "s", 60, 0.25, 0.1, 0.9)
    np.testing.assert_array_equal(out["forecast_tok"].to_numpy(), 42.0)
    np.testing.assert_array_equal(out["trend_tok"].to_numpy(), 0.0)


def test_holt_damped_phi_one_matches_undamped_form():
    from datafiller_ray.pipelines.window import _holt_damped_one_source

    # phi == 1 degenerates to classic (undamped) Holt: on a pure ramp the
    # forecast tracks the ramp exactly from the pinned init
    s = np.arange(0, 300, 10, dtype=np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(s.size, dtype=np.int64) * 60, "sum": s}
    )
    out = _holt_damped_one_source(obs, "s", 60, 0.25, 0.1, 1.0)
    np.testing.assert_allclose(
        out["forecast_tok"].to_numpy(), s[1:].astype(np.float64), atol=1e-9
    )


def test_holt_damped_short_source_omitted():
    from datafiller_ray.pipelines.window import _holt_damped_one_source

    obs = pd.DataFrame(
        {"bucket_ts": np.zeros(1, dtype=np.int64), "sum": np.ones(1, np.int64)}
    )
    out = _holt_damped_one_source(obs, "s", 60, 0.25, 0.1, 0.9)
    assert len(out) == 0 and str(out["source"].dtype) == "string"


def test_trimmed_mean_one_source_literal():
    from datafiller_ray.pipelines.window import _trimmed_mean_one_source

    # values 0, 10, 20, 30, 1000: p25 = 10, p75 = 30 -> keep 10, 20, 30
    obs = pd.DataFrame(
        {
            "bucket_ts": np.arange(5, dtype=np.int64) * 60,
            "sum": np.array([0, 10, 20, 30, 1000], dtype=np.int64),
        }
    )
    out = _trimmed_mean_one_source(obs, "s", 0.25, 0.75)
    assert out["n_buckets"].tolist() == [5]
    assert out["n_kept"].tolist() == [3]
    assert out["lo_tok"].tolist() == [10.0]
    assert out["hi_tok"].tolist() == [30.0]
    assert out["trimmed_mean_tok"].tolist() == [20.0]


def test_trimmed_mean_resists_outlier():
    from datafiller_ray.pipelines.window import _trimmed_mean_one_source

    rng = np.random.default_rng(17)
    base = rng.integers(100, 110, size=101).astype(np.int64)
    base[50] = 10**9  # one huge burst
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(101, dtype=np.int64) * 60, "sum": base}
    )
    out = _trimmed_mean_one_source(obs, "s", 0.25, 0.75)
    assert 100 <= out["trimmed_mean_tok"].iloc[0] <= 110


def test_source_share_end_to_end(ray_session, small_fixture):
    from datafiller_ray.pipelines.window import source_share

    out = source_share(small_fixture, step=86400).to_pandas()
    # shares per bucket sum to ~1 and the bucket totals agree
    for bt, g in out.groupby("bucket_ts"):
        assert g["tok"].sum() == g["bucket_tok"].iloc[0]
        assert abs(g["share"].sum() - 1.0) < 1e-4
    assert (out["share"] > 0).all() and (out["share"] <= 1.0).all()


def test_seasonality_strength_literal():
    from datafiller_ray.pipelines.window import _seasonality_one_source

    # two full days, hour-of-day profile is EXACTLY the value -> all the
    # variance is between hods, none within: strength == 1
    ts = np.arange(48, dtype=np.int64) * 3600
    y = (ts % 86400) // 3600 + 1
    obs = pd.DataFrame({"bucket_ts": ts, "sum": y.astype(np.int64)})
    out = _seasonality_one_source(obs, "s")
    assert out["n_buckets"].tolist() == [48]
    assert out["n_hods"].tolist() == [24]
    assert out["strength"].tolist() == [1.0]

    # constant series: SST = 0 -> omitted
    obs_c = pd.DataFrame(
        {"bucket_ts": ts, "sum": np.full(48, 7, dtype=np.int64)}
    )
    assert len(_seasonality_one_source(obs_c, "s")) == 0


def test_seasonality_strength_noise_is_weak():
    from datafiller_ray.pipelines.window import _seasonality_one_source

    rng = np.random.default_rng(5)
    ts = np.arange(24 * 14, dtype=np.int64) * 3600
    obs = pd.DataFrame(
        {
            "bucket_ts": ts,
            "sum": rng.integers(100, 200, size=ts.size).astype(np.int64),
        }
    )
    out = _seasonality_one_source(obs, "s")
    # pure noise: eta-squared stays near the expected (k-1)/(n-1) ~ 0.07
    assert 0.0 <= out["strength"].iloc[0] < 0.35


def test_seasonality_strength_end_to_end(ray_session, small_fixture):
    from datafiller_ray.pipelines.window import seasonality_strength

    out = seasonality_strength(small_fixture).to_pandas()
    assert len(out) > 0
    assert (out["strength"] <= 1.0).all()
    assert (out["n_hods"] <= 24).all()
    assert (out["n_buckets"] >= 2).all()


def test_max_drawdown_literal():
    from datafiller_ray.pipelines.window import _drawdown_one_source

    obs = pd.DataFrame(
        {
            "bucket_ts": np.arange(6, dtype=np.int64) * 60,
            "sum": np.array([5, 9, 4, 9, 2, 8], dtype=np.int64),
        }
    )
    out = _drawdown_one_source(obs, "s")
    # peak 9 (ts=60), trough 2 (ts=240): drawdown 7, first argmax
    assert out["drawdown_tok"].tolist() == [7]
    assert out["trough_ts"].tolist() == [240]
    assert out["peak_tok"].tolist() == [9]

    # monotone series: drawdown 0 at the first bucket
    obs_m = pd.DataFrame(
        {
            "bucket_ts": np.arange(4, dtype=np.int64) * 60,
            "sum": np.array([1, 2, 3, 4], dtype=np.int64),
        }
    )
    out_m = _drawdown_one_source(obs_m, "s")
    assert out_m["drawdown_tok"].tolist() == [0]
    assert out_m["trough_ts"].tolist() == [0]


def test_ar2_fit_matches_lstsq():
    from datafiller_ray.pipelines.window import _ar2_one_source

    rng = np.random.default_rng(11)
    n = 200
    y = np.zeros(n)
    for t in range(2, n):
        y[t] = 3.0 + 0.5 * y[t - 1] - 0.3 * y[t - 2] + rng.normal(0, 1)
    s = np.round(y * 100 + 1000).astype(np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(n, dtype=np.int64) * 60, "sum": s}
    )
    out = _ar2_one_source(obs, "s")
    y0 = s[2:].astype(float)
    X = np.column_stack([np.ones(n - 2), s[1:-1], s[:-2]]).astype(float)
    ref = np.linalg.lstsq(X, y0, rcond=None)[0]
    assert out["n_triples"].tolist() == [n - 2]
    assert abs(out["c0"].iloc[0] - ref[0]) < 1e-4
    assert abs(out["a1"].iloc[0] - ref[1]) < 1e-6
    assert abs(out["a2"].iloc[0] - ref[2]) < 1e-6


def test_ar2_gaps_break_triples():
    from datafiller_ray.pipelines.window import _contiguous_triples

    ts = np.array([0, 60, 120, 300, 360, 420], dtype=np.int64)
    s = np.arange(6, dtype=np.int64)
    y2, y1, y0 = _contiguous_triples(ts, s)
    # only two runs of three contiguous buckets: (0,60,120) and (300,360,420)
    assert y2.tolist() == [0, 3]
    assert y0.tolist() == [2, 5]


def test_ar2_constant_series_omitted():
    from datafiller_ray.pipelines.window import _ar2_one_source

    obs = pd.DataFrame(
        {
            "bucket_ts": np.arange(10, dtype=np.int64) * 60,
            "sum": np.full(10, 7, dtype=np.int64),
        }
    )
    assert len(_ar2_one_source(obs, "s")) == 0


def test_permutation_entropy_extremes():
    from datafiller_ray.pipelines.window import _perm_entropy_one_source

    # strictly increasing: one pattern, entropy 0
    obs_up = pd.DataFrame(
        {
            "bucket_ts": np.arange(50, dtype=np.int64) * 60,
            "sum": np.arange(50, dtype=np.int64),
        }
    )
    out = _perm_entropy_one_source(obs_up, "s")
    assert out["n_patterns"].tolist() == [1]
    assert out["perm_entropy"].tolist() == [0.0]

    # iid noise: entropy close to 1
    rng = np.random.default_rng(3)
    obs_n = pd.DataFrame(
        {
            "bucket_ts": np.arange(3000, dtype=np.int64) * 60,
            "sum": rng.integers(0, 10**6, size=3000).astype(np.int64),
        }
    )
    out_n = _perm_entropy_one_source(obs_n, "s")
    assert out_n["perm_entropy"].iloc[0] > 0.95


def test_variance_ratio_iid_vs_walk():
    from datafiller_ray.pipelines.window import _variance_ratio_one_source

    rng = np.random.default_rng(0)
    ts = np.arange(5000, dtype=np.int64) * 60
    walk = np.cumsum(rng.integers(-5, 6, size=5000)).astype(np.int64)
    vr_walk = _variance_ratio_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": walk}), "s", 4
    )["vr"].iloc[0]
    noise = rng.integers(0, 100, size=5000).astype(np.int64)
    vr_noise = _variance_ratio_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": noise}), "s", 4
    )["vr"].iloc[0]
    # random walk ~ 1; iid levels: q-diff var 2s^2 over q*1-diff var 2s^2 -> 1/q
    assert 0.85 < vr_walk < 1.15
    assert 0.15 < vr_noise < 0.35


def test_variance_ratio_gap_breaks_windows():
    from datafiller_ray.pipelines.window import _variance_ratio_one_source

    # 6 buckets with one gap: 1-step diffs skip the gap pair, 4-step
    # windows must not bridge it
    ts = np.array([0, 60, 120, 180, 600, 660], dtype=np.int64)
    s = np.array([1, 3, 2, 5, 4, 9], dtype=np.int64)
    out = _variance_ratio_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": s}), "s", 4
    )
    # n_diffs = 4 contiguous pairs; zero contiguous 5-windows -> omitted
    assert len(out) == 0

    # constant series: var1 == 0 -> omitted
    out_c = _variance_ratio_one_source(
        pd.DataFrame(
            {
                "bucket_ts": np.arange(10, dtype=np.int64) * 60,
                "sum": np.full(10, 5, dtype=np.int64),
            }
        ),
        "s",
        4,
    )
    assert len(out_c) == 0


def test_busiest_burst_literal_and_brute():
    from datafiller_ray.pipelines.window import _burst_one_source

    s = np.array([1, 1, 9, 9, 9, 1, 1, 1], dtype=np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(8, dtype=np.int64) * 60, "sum": s}
    )
    out = _burst_one_source(obs, "s")
    assert out["start_ts"].tolist() == [120]
    assert out["end_ts"].tolist() == [240]
    assert out["burst_n"].tolist() == [3]
    # each 9 is 5 above the mean 4 -> dev 3*5*n = 120 in n-scaled units
    assert out["burst_dev"].tolist() == [120]
    assert out["mean_excess"].tolist() == [5.0]

    # brute force on random series
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        sv = rng.integers(0, 50, size=n).astype(np.int64)
        d = n * sv - sv.sum()
        brute = max(
            int(d[i : j + 1].sum()) for i in range(n) for j in range(i, n)
        )
        got = _burst_one_source(
            pd.DataFrame(
                {"bucket_ts": np.arange(n, dtype=np.int64) * 60, "sum": sv}
            ),
            "s",
        )
        assert got["burst_dev"].iloc[0] == brute


def test_busiest_burst_constant_series():
    from datafiller_ray.pipelines.window import _burst_one_source

    obs = pd.DataFrame(
        {
            "bucket_ts": np.arange(5, dtype=np.int64) * 60,
            "sum": np.full(5, 3, dtype=np.int64),
        }
    )
    out = _burst_one_source(obs, "s")
    # all deviations zero: first bucket alone, dev 0
    assert out["burst_dev"].tolist() == [0]
    assert out["start_ts"].tolist() == [0]
    assert out["end_ts"].tolist() == [0]


def test_harmonic_recovers_planted_sinusoid():
    from datafiller_ray.pipelines.window import _harmonic_one_source

    rng = np.random.default_rng(2)
    nb = 3000
    ts = (np.sort(rng.choice(20 * 1440, size=nb, replace=False)) * 60).astype(
        np.int64
    )
    th = 2 * np.pi * ((ts % 86400) / 86400.0)
    y = np.rint(100 + 40 * np.cos(th - 2.0) + rng.normal(0, 5, nb)).astype(
        np.int64
    )
    out = _harmonic_one_source(pd.DataFrame({"bucket_ts": ts, "sum": y}), "s")
    assert abs(out["amp_tok"].iloc[0] - 40.0) < 1.0
    assert abs(out["peak_hour"].iloc[0] - 2.0 * 12 / np.pi) < 0.05
    assert out["r2"].iloc[0] > 0.9


def test_harmonic_degenerate_cases():
    from datafiller_ray.pipelines.window import _harmonic_one_source

    # constant series: SST == 0 -> omitted
    obs = pd.DataFrame(
        {
            "bucket_ts": np.arange(100, dtype=np.int64) * 60,
            "sum": np.full(100, 7, dtype=np.int64),
        }
    )
    assert len(_harmonic_one_source(obs, "s")) == 0
    # all buckets at the SAME time-of-day: cos/sin constant -> singular
    obs_s = pd.DataFrame(
        {
            "bucket_ts": np.arange(10, dtype=np.int64) * 86400,
            "sum": np.arange(10, dtype=np.int64),
        }
    )
    assert len(_harmonic_one_source(obs_s, "s")) == 0


def test_harmonic_partition_invariance():
    """fsum makes the fit independent of block/summation order: feeding
    the rows in any order must give the identical frame."""
    from datafiller_ray.pipelines.window import _harmonic_one_source

    rng = np.random.default_rng(9)
    ts = (np.sort(rng.choice(5000, size=800, replace=False)) * 60).astype(
        np.int64
    )
    y = rng.integers(0, 1000, size=800).astype(np.int64)
    a = _harmonic_one_source(pd.DataFrame({"bucket_ts": ts, "sum": y}), "s")
    # reversed order input (the group fn sorts, but the kernel must not care
    # beyond ts order — emulate a different combine order by re-sorting)
    perm = rng.permutation(800)
    df = (
        pd.DataFrame({"bucket_ts": ts[perm], "sum": y[perm]})
        .sort_values("bucket_ts")
        .reset_index(drop=True)
    )
    b = _harmonic_one_source(df, "s")
    pd.testing.assert_frame_equal(a, b)


def test_ntile_symbols_matches_duckdb():
    import duckdb

    from datafiller_ray.pipelines.window import _ntile_symbols

    rng = np.random.default_rng(13)
    for n in (1, 2, 5, 6, 7, 100):
        ts = np.arange(n, dtype=np.int64) * 60
        y = rng.integers(0, 8, size=n).astype(np.int64)  # heavy ties
        got = _ntile_symbols(y, ts, 4)
        df = pd.DataFrame({"bucket_ts": ts, "y": y})
        want = (
            duckdb.sql(
                "SELECT bucket_ts, NTILE(4) OVER (ORDER BY y, bucket_ts) - 1"
                " AS s FROM df"
            )
            .df()
            .sort_values("bucket_ts")["s"]
            .to_numpy(np.int64)
        )
        assert got.tolist() == want.tolist(), n


def test_sax_motifs_census_sums():
    from datafiller_ray.pipelines.window import _sax_one_source

    rng = np.random.default_rng(21)
    n = 400
    ts = np.arange(n, dtype=np.int64) * 60  # fully contiguous
    y = rng.integers(0, 1000, size=n).astype(np.int64)
    out = _sax_one_source(pd.DataFrame({"bucket_ts": ts, "sum": y}), "s")
    assert out["cnt"].sum() == n - 2  # every interior triple counted once
    assert (out["motif"] >= 0).all() and (out["motif"] < 64).all()


def test_source_profile_matches_components():
    from datafiller_ray.pipelines.window import (
        _burstiness_one_source,
        _harmonic_one_source,
        _fused_profile_one_source,
    )

    rng = np.random.default_rng(1)
    n = 500
    obs = pd.DataFrame(
        {
            "bucket_ts": np.arange(n, dtype=np.int64) * 60,
            "sum": rng.integers(50, 150, size=n).astype(np.int64),
        }
    )
    prof = _fused_profile_one_source(obs, "s")
    assert len(prof) == 1
    # fused values identical to the standalone kernels
    assert prof["fano"].iloc[0] == _burstiness_one_source(obs, "s")["fano"].iloc[0]
    assert (
        prof["amp_tok"].iloc[0]
        == _harmonic_one_source(obs, "s")["amp_tok"].iloc[0]
    )
    # degenerate for any component -> omitted entirely
    const = pd.DataFrame(
        {
            "bucket_ts": np.arange(10, dtype=np.int64) * 60,
            "sum": np.full(10, 3, dtype=np.int64),
        }
    )
    assert len(_fused_profile_one_source(const, "s")) == 0


def test_ljung_box_matches_brute_force():
    from datafiller_ray.pipelines.window import (
        _acf_rounded,
        _ljung_box_one_source,
    )

    rng = np.random.default_rng(7)
    n = 400
    ts = np.arange(n, dtype=np.int64) * 60
    s = np.cumsum(rng.integers(-3, 4, size=n)).astype(np.int64) + 100
    obs = pd.DataFrame({"bucket_ts": ts, "sum": s})
    out = _ljung_box_one_source(obs, "s", (1, 2, 3), 3)
    assert len(out) == 1
    r = _acf_rounded(s, (1, 2, 3), 3)
    expect = n * (n + 2) * sum(r[k] ** 2 / (n - k) for k in (1, 2, 3))
    assert abs(out["q_stat"].iloc[0] - expect) < 1e-5
    # a strongly autocorrelated walk has a large Q
    assert out["q_stat"].iloc[0] > 100.0
    # too-short series: lag set incomplete -> omitted
    short = pd.DataFrame(
        {
            "bucket_ts": np.arange(4, dtype=np.int64) * 60,
            "sum": np.array([1, 5, 2, 9], dtype=np.int64),
        }
    )
    assert len(_ljung_box_one_source(short, "s", (1, 2, 3), 3)) == 0


def test_pacf_matches_yule_walker():
    from datafiller_ray.pipelines.window import _acf_rounded, _pacf_one_source

    rng = np.random.default_rng(11)
    n = 2000
    ts = np.arange(n, dtype=np.int64) * 60
    s = np.cumsum(rng.integers(-4, 5, size=n)).astype(np.int64) + 500
    obs = pd.DataFrame({"bucket_ts": ts, "sum": s})
    out = _pacf_one_source(obs, "s", 3)
    assert list(out["lag"]) == [1, 2, 3]
    r = _acf_rounded(s, (1, 2, 3), 3)
    # independent check: phi_kk as the last coefficient of the
    # Yule-Walker solve on the Toeplitz correlation matrix
    import numpy.linalg as la

    rho = np.array([r[1], r[2], r[3]])
    for k in (1, 2, 3):
        R = np.eye(k)
        for i in range(k):
            for j in range(k):
                if i != j:
                    R[i, j] = rho[abs(i - j) - 1]
        phi = la.solve(R, rho[:k])
        got = out.loc[out["lag"] == k, "pacf"].iloc[0]
        assert abs(got - phi[-1]) < 1e-5, (k, got, phi[-1])
    # constant series: acf undefined -> omitted
    const = pd.DataFrame(
        {
            "bucket_ts": np.arange(50, dtype=np.int64) * 60,
            "sum": np.full(50, 9, dtype=np.int64),
        }
    )
    assert len(_pacf_one_source(const, "s", 3)) == 0


def test_scaling_exponent_walk_vs_noise():
    from datafiller_ray.pipelines.window import _scaling_one_source

    rng = np.random.default_rng(3)
    n = 8000
    ts = np.arange(n, dtype=np.int64) * 60
    walk = np.cumsum(rng.integers(-5, 6, size=n)).astype(np.int64)
    h_walk = _scaling_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": walk}), "s"
    )["hurst"].iloc[0]
    noise = rng.integers(0, 1000, size=n).astype(np.int64)
    h_noise = _scaling_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": noise}), "s"
    )["hurst"].iloc[0]
    # random walk: var(q) ~ q -> H ~ 0.5; iid levels: var(q) flat -> H ~ 0
    assert 0.4 < h_walk < 0.6
    assert -0.1 < h_noise < 0.1


def test_scaling_exponent_omissions():
    from datafiller_ray.pipelines.window import _scaling_one_source

    # gaps kill all 8-step windows -> omitted
    ts = np.array([0, 60, 120, 180, 600, 660, 720, 780, 840], np.int64)
    s = np.array([1, 3, 2, 5, 4, 9, 2, 7, 1], np.int64)
    assert len(_scaling_one_source(pd.DataFrame({"bucket_ts": ts, "sum": s}), "s")) == 0
    # constant series: zero variance -> omitted
    tsc = np.arange(40, dtype=np.int64) * 60
    sc = np.full(40, 7, np.int64)
    assert len(_scaling_one_source(pd.DataFrame({"bucket_ts": tsc, "sum": sc}), "s")) == 0


def test_kalman_fill_properties():
    from datafiller_ray.pipelines.window import _kalman_one_source

    # constant observed series -> smoother reproduces the constant exactly
    ts = np.arange(30, dtype=np.int64) * 60
    s = np.full(30, 100, np.int64)
    out = _kalman_one_source(pd.DataFrame({"bucket_ts": ts, "sum": s}), "s", 0.5)
    assert (out["observed"] == 1).all()
    assert np.allclose(out["smooth_tok"], 100.0, atol=1e-9)

    # a gap between two levels: filled minutes lie strictly between them
    ts2 = np.array([0, 60, 120, 480, 540, 600], np.int64)
    s2 = np.array([10, 10, 10, 50, 50, 50], np.int64)
    out2 = _kalman_one_source(pd.DataFrame({"bucket_ts": ts2, "sum": s2}), "s", 0.5)
    assert len(out2) == 11  # dense grid 0..600
    gapvals = out2.loc[out2["observed"] == 0, "smooth_tok"].to_numpy()
    assert len(gapvals) == 5
    assert (gapvals > 10.0).all() and (gapvals < 50.0).all()
    assert (np.diff(gapvals) > 0).all()  # monotone bridge between levels

    # smoothing: noisy series -> smoothed variance strictly smaller
    rng = np.random.default_rng(5)
    n = 500
    base = 1000.0 + 20.0 * np.sin(np.arange(n) / 40.0)
    noisy = (base + rng.normal(0, 50, n)).round().astype(np.int64)
    out3 = _kalman_one_source(
        pd.DataFrame({"bucket_ts": np.arange(n, dtype=np.int64) * 60, "sum": noisy}),
        "s",
        0.1,
    )
    resid_raw = noisy - base
    resid_smooth = out3["smooth_tok"].to_numpy() - base
    assert resid_smooth.var() < 0.5 * resid_raw.var()

    # fewer than 2 observed buckets -> omitted
    one = pd.DataFrame({"bucket_ts": np.array([0], np.int64), "sum": np.array([5], np.int64)})
    assert len(_kalman_one_source(one, "s", 0.5)) == 0


def test_kalman_fill_validation(ray_session, small_fixture):
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import kalman_fill

    with pytest.raises(EngineValueError):
        kalman_fill(small_fixture, lam=0.0)
    with pytest.raises(EngineValueError):
        kalman_fill(small_fixture, lam=-1.0)


def test_isotonic_pava_properties():
    from datafiller_ray.pipelines.window import _isotonic_one_source

    # already non-decreasing -> one pool per hour bucket
    ts = np.arange(5, dtype=np.int64) * 3600
    s = np.array([1, 2, 3, 4, 5], np.int64)
    out = _isotonic_one_source(pd.DataFrame({"bucket_ts": ts, "sum": s}), "s", 3600)
    assert len(out) == 5
    assert (out["n_steps"] == 1).all()

    # strictly decreasing -> one global pool with the overall mean
    s2 = np.array([10, 8, 6, 4, 2], np.int64)
    out2 = _isotonic_one_source(pd.DataFrame({"bucket_ts": ts, "sum": s2}), "s", 3600)
    assert len(out2) == 1
    assert out2["pool_sum"].iloc[0] == 30 and out2["n_steps"].iloc[0] == 5
    assert out2["fitted"].iloc[0] == 6.0

    # fitted levels are always non-decreasing, pools partition the span
    rng = np.random.default_rng(2)
    n = 300
    tsr = np.arange(n, dtype=np.int64) * 3600
    sr = rng.integers(0, 1000, size=n).astype(np.int64)
    out3 = _isotonic_one_source(pd.DataFrame({"bucket_ts": tsr, "sum": sr}), "s", 3600)
    fit = out3["fitted"].to_numpy()
    assert (np.diff(fit) >= 0).all()
    assert int(out3["n_steps"].sum()) == n
    assert int(out3["pool_sum"].sum()) == int(sr.sum())
    # PAVA minimizes SSE among monotone fits: check vs a simple
    # two-level alternative on a V-shaped series
    v = np.array([5, 1, 9], np.int64)
    outv = _isotonic_one_source(
        pd.DataFrame({"bucket_ts": np.arange(3, dtype=np.int64) * 3600, "sum": v}),
        "s",
        3600,
    )
    # optimal: pool [5,1] -> 3, then [9]
    assert list(outv["n_steps"]) == [2, 1]
    assert list(outv["fitted"]) == [3.0, 9.0]


def test_binseg_finds_planted_shifts():
    from datafiller_ray.pipelines.window import _binseg_one_source

    # three clean level shifts at hours 50, 120, 200
    n = 300
    ts = np.arange(n, dtype=np.int64) * 3600
    y = np.concatenate(
        [
            np.full(50, 100, np.int64),
            np.full(70, 500, np.int64),
            np.full(80, 200, np.int64),
            np.full(100, 900, np.int64),
        ]
    )
    out = _binseg_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": y}), "s", 3600, 3, 2
    )
    assert len(out) == 3
    assert set(out["cp_ts"]) == {50 * 3600, 120 * 3600, 200 * 3600}
    assert (out["gain"] > 0).all()

    # constant series: zero gain everywhere -> no changepoints
    const = pd.DataFrame(
        {
            "bucket_ts": np.arange(20, dtype=np.int64) * 3600,
            "sum": np.full(20, 7, np.int64),
        }
    )
    assert len(_binseg_one_source(const, "s", 3600, 3, 2)) == 0

    # too short -> omitted
    short = pd.DataFrame(
        {
            "bucket_ts": np.arange(3, dtype=np.int64) * 3600,
            "sum": np.array([1, 9, 1], np.int64),
        }
    )
    assert len(_binseg_one_source(short, "s", 3600, 3, 2)) == 0


def test_forecast_interval_conformal_guarantee():
    from datafiller_ray.pipelines.window import _conformal_one_source

    rng = np.random.default_rng(9)
    n = 1000
    ts = np.arange(n, dtype=np.int64) * 60
    s = (1000 + rng.integers(-50, 51, size=n)).astype(np.int64)
    out = _conformal_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": s}), "s", 60, 0.9, 10
    )
    assert len(out) == 1
    # in-sample coverage of the 0.9-quantile band is >= 0.9 by construction
    assert out["coverage"].iloc[0] >= 0.9
    assert out["n_pairs"].iloc[0] == n - 60
    assert out["qhat"].iloc[0] > 0

    # constant series: all residuals zero -> qhat 0, full coverage
    sc = np.full(200, 5, np.int64)
    outc = _conformal_one_source(
        pd.DataFrame({"bucket_ts": ts[:200], "sum": sc}), "s", 60, 0.9, 10
    )
    assert outc["qhat"].iloc[0] == 0.0
    assert outc["coverage"].iloc[0] == 1.0

    # too short -> omitted
    short = pd.DataFrame(
        {"bucket_ts": ts[:50], "sum": s[:50]}
    )
    assert len(_conformal_one_source(short, "s", 60, 0.9, 10)) == 0


def test_croston_steady_vs_intermittent():
    from datafiller_ray.pipelines.window import _croston_one_source

    # steady every-minute demand of size 10 -> z ~ 10, p ~ 1, forecast ~ 10
    n = 500
    ts = np.arange(n, dtype=np.int64) * 60
    s = np.full(n, 10, np.int64)
    out = _croston_one_source(pd.DataFrame({"bucket_ts": ts, "sum": s}), "s", 0.1, 3)
    assert abs(out["size_hat"].iloc[0] - 10.0) < 1e-9
    assert abs(out["interval_hat"].iloc[0] - 1.0) < 1e-9
    assert abs(out["forecast"].iloc[0] - 10.0) < 1e-9

    # same sizes every 5 minutes -> p ~ 5, forecast ~ 2
    ts5 = np.arange(n, dtype=np.int64) * 300
    out5 = _croston_one_source(pd.DataFrame({"bucket_ts": ts5, "sum": s}), "s", 0.1, 3)
    assert abs(out5["interval_hat"].iloc[0] - 5.0) < 1e-9
    assert abs(out5["forecast"].iloc[0] - 2.0) < 1e-9

    # fewer demands than min_demands -> omitted
    short = pd.DataFrame(
        {"bucket_ts": ts[:2], "sum": s[:2]}
    )
    assert len(_croston_one_source(short, "s", 0.1, 3)) == 0


def test_runs_test_one_source_literal():
    from datafiller_ray.pipelines.window import _runs_test_one_source

    # y = 1 5 1 5 5 1 -> median 3, above/below = 0 1 0 1 1 0 -> 5 runs
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(6, dtype=np.int64) * 60,
         "sum": np.array([1, 5, 1, 5, 5, 1], dtype=np.int64)}
    )
    out = _runs_test_one_source(obs, "s")
    assert out["n_kept"].tolist() == [6]
    assert out["n_above"].tolist() == [3]
    assert out["n_below"].tolist() == [3]
    assert out["n_runs"].tolist() == [5]
    n1 = n2 = 3
    n = 6
    mu = 1.0 + 2.0 * n1 * n2 / n
    var = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n) / (n * n * (n - 1.0))
    z = (5 - mu) / np.sqrt(var)
    assert out["z"].tolist() == [np.floor(z * 1e6 + 0.5) / 1e6]

    # median-valued points drop; one-sided sequences are omitted
    flat = pd.DataFrame(
        {"bucket_ts": np.arange(4, dtype=np.int64) * 60,
         "sum": np.array([7, 7, 7, 7], dtype=np.int64)}
    )
    assert len(_runs_test_one_source(flat, "s")) == 0


def test_turning_points_one_source_literal():
    from datafiller_ray.pipelines.window import _turning_points_one_source

    # y = 1 3 2 4 4 5: extrema at 3 (peak) and 2 (valley); plateau 4,4
    # does not count (strict products only)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(6, dtype=np.int64) * 60,
         "sum": np.array([1, 3, 2, 4, 4, 5], dtype=np.int64)}
    )
    out = _turning_points_one_source(obs, "s")
    assert out["n_turning"].tolist() == [2]
    n = 6
    z = (2 - 2.0 * (n - 2) / 3.0) / np.sqrt((16.0 * n - 29.0) / 90.0)
    assert out["z"].tolist() == [np.floor(z * 1e6 + 0.5) / 1e6]
    # fewer than 3 points -> omitted
    assert len(_turning_points_one_source(obs.head(2), "s")) == 0


def test_cox_stuart_one_source_literal():
    from datafiller_ray.pipelines.window import _cox_stuart_one_source

    # even n: pairs (1,4) (2,3): +3, +1 -> both positive
    even = pd.DataFrame(
        {"bucket_ts": np.arange(4, dtype=np.int64) * 60,
         "sum": np.array([1, 2, 4, 3], dtype=np.int64)}
    )
    out = _cox_stuart_one_source(even, "s")
    assert out[["n_pairs", "n_pos", "n_neg", "trend"]].values.tolist() == [
        [2, 2, 0, 1]
    ]
    # odd n drops the middle: y = 5 4 9 1 2 -> pairs (5,1) (4,2): both neg
    odd = pd.DataFrame(
        {"bucket_ts": np.arange(5, dtype=np.int64) * 60,
         "sum": np.array([5, 4, 9, 1, 2], dtype=np.int64)}
    )
    out = _cox_stuart_one_source(odd, "s")
    assert out[["n_pairs", "n_pos", "n_neg", "trend"]].values.tolist() == [
        [2, 0, 2, -1]
    ]
    # ties drop: y = 3 3 -> pair (3,3) gives n_pos = n_neg = 0, trend 0
    tie = pd.DataFrame(
        {"bucket_ts": np.arange(2, dtype=np.int64) * 60,
         "sum": np.array([3, 3], dtype=np.int64)}
    )
    out = _cox_stuart_one_source(tie, "s")
    assert out[["n_pairs", "n_pos", "n_neg", "trend"]].values.tolist() == [
        [1, 0, 0, 0]
    ]


def test_page_hinkley_one_source_literal():
    from datafiller_ray.pipelines.window import _page_hinkley_one_source

    # flat 10s then a jump to 110: PH accumulates after the shift
    y = np.array([10] * 6 + [110] * 6, dtype=np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(12, dtype=np.int64) * 60, "sum": y}
    )
    out = _page_hinkley_one_source(obs, "s", 0.0, 50.0)
    # scalar-recursion reference (the vendored oracle's rule)
    S, m, mn = 0, 0.0, 0.0
    ph = []
    for i, v in enumerate(y.tolist(), start=1):
        S += v
        m = m + (v - S / i - 0.0)
        mn = min(mn, m)
        ph.append(m - mn)
    ph = np.asarray(ph)
    assert out["max_ph"].tolist() == [np.floor(ph.max() * 1e6 + 0.5) / 1e6]
    alarms = ph > 50.0
    assert out["n_alarms"].tolist() == [int(alarms.sum())]
    assert out["first_alarm_ts"].tolist() == [int(np.argmax(alarms)) * 60]
    # a flat series never alarms and has PH = 0
    flat = pd.DataFrame(
        {"bucket_ts": np.arange(5, dtype=np.int64) * 60,
         "sum": np.full(5, 7, dtype=np.int64)}
    )
    out = _page_hinkley_one_source(flat, "s", 0.0, 50.0)
    assert out["n_alarms"].tolist() == [0]
    assert out["first_alarm_ts"].tolist() == [-1]
    assert out["max_ph"].tolist() == [0.0]


def test_page_hinkley_validation(ray_session):
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import page_hinkley

    with pytest.raises(EngineValueError):
        page_hinkley("/nonexistent", lam=-1.0)


def test_lomb_scargle_finds_planted_period():
    from datafiller_ray.pipelines.window import _lomb_one_source

    rng = np.random.default_rng(7)
    nb = 3000
    ts = (np.sort(rng.choice(20 * 1440, size=nb, replace=False)) * 60).astype(
        np.int64
    )
    th = 2 * np.pi * ((ts % 86400) / 86400.0)
    y = np.rint(100 + 40 * np.cos(th - 2.0) + rng.normal(0, 5, nb)).astype(
        np.int64
    )
    periods = (3600, 21600, 86400, 604800)
    out = _lomb_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": y}), "s", periods
    )
    assert out["period_s"].tolist() == list(periods)
    assert (out["n_buckets"] == nb).all()
    pw = dict(zip(out["period_s"], out["power"]))
    # the planted 24h cycle dominates every other candidate by far
    assert pw[86400] > 100 * max(pw[3600], pw[21600], pw[604800])
    assert pw[86400] > 100.0


def test_lomb_scargle_matches_vendored_oracle_bitwise():
    import sys

    sys.path.insert(0, "tests/oracle")
    import fills as o

    from datafiller_ray.pipelines.window import _lomb_one_source

    rng = np.random.default_rng(11)
    ts = np.sort(rng.choice(100_000, size=500, replace=False)).astype(np.int64) * 60
    y = rng.integers(0, 1000, size=500).astype(np.int64)
    out = _lomb_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": y}), "s", (3600, 86400)
    )
    for _, r in out.iterrows():
        want = o.lomb_scargle_power(ts, y, int(r["period_s"]))
        assert r["power"] == o.round_half_up(np.array([want]))[0]


def test_lomb_scargle_degenerate_cases():
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import _lomb_one_source, lomb_scargle

    # too short
    obs = pd.DataFrame({"bucket_ts": np.array([0, 60], dtype=np.int64),
                        "sum": np.array([1, 2], dtype=np.int64)})
    assert len(_lomb_one_source(obs, "s", (3600,))) == 0
    # zero variance
    obs = pd.DataFrame({"bucket_ts": np.arange(5, dtype=np.int64) * 60,
                        "sum": np.full(5, 9, dtype=np.int64)})
    assert len(_lomb_one_source(obs, "s", (3600,))) == 0
    with pytest.raises(EngineValueError):
        lomb_scargle("/tmp/nope.parquet", periods=())
    with pytest.raises(EngineValueError):
        lomb_scargle("/tmp/nope.parquet", periods=(1,))


def test_matrix_profile_finds_planted_motif():
    from datafiller_ray.pipelines.window import _matprof_one_source

    rng = np.random.default_rng(3)
    n_h = 200
    base = rng.integers(100, 200, size=n_h).astype(np.int64)
    shape = (50 + 40 * np.sin(np.arange(12) / 12 * 2 * np.pi) * 10).astype(
        np.int64
    )
    base[30:42] = 1000 + shape
    base[150:162] = 1000 + shape  # identical planted 12h motif
    ts = (np.arange(n_h, dtype=np.int64) * 3600) + 60
    obs = pd.DataFrame({"bucket_ts": ts, "sum": base})
    out = _matprof_one_source(obs, "s", 12)
    assert len(out) == 1
    r = out.iloc[0]
    assert r["motif_i_ts"] == ts[30] - 60  # hour-floored grid ts
    assert r["motif_j_ts"] == ts[150] - 60
    assert r["motif_dist"] == 0.0  # identical windows -> exact zero
    # discord: some window whose nearest neighbor is farther than the
    # motif's (z-normalized, so amplitude alone doesn't decide it)
    assert r["discord_dist"] > r["motif_dist"]
    assert ts[0] - 60 <= r["discord_ts"] <= ts[-1] - 60


def test_matrix_profile_matches_vendored_oracle_bitwise():
    import sys

    sys.path.insert(0, "tests/oracle")
    import fills as o

    from datafiller_ray.pipelines.window import _matprof_one_source

    rng = np.random.default_rng(5)
    n_h = 120
    keep = np.sort(rng.choice(n_h, size=90, replace=False))
    ts = keep.astype(np.int64) * 3600
    y = rng.integers(0, 500, size=keep.size).astype(np.int64)
    out = _matprof_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": y}), "s", 12
    )
    grid, s = o.hourly_linear_filled(ts, y)
    mi, mj, md, di, dd = o.matrix_profile_brute(s, 12, 6)
    r = out.iloc[0]
    assert r["motif_i_ts"] == grid[mi] and r["motif_j_ts"] == grid[mj]
    assert r["motif_dist"] == o.round_half_up(np.array([md]))[0]
    assert r["discord_ts"] == grid[di]
    assert r["discord_dist"] == o.round_half_up(np.array([dd]))[0]


def test_matrix_profile_degenerate():
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import (
        _matprof_one_source,
        matrix_profile,
    )

    # too short for any admissible pair
    ts = np.arange(20, dtype=np.int64) * 3600
    y = np.arange(20, dtype=np.int64)
    assert len(_matprof_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": y}), "s", 24)) == 0
    # constant series: all windows flat -> no motif
    y = np.full(60, 7, dtype=np.int64)
    ts = np.arange(60, dtype=np.int64) * 3600
    assert len(_matprof_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": y}), "s", 12)) == 0
    with pytest.raises(EngineValueError):
        matrix_profile("/tmp/nope.parquet", w=1)


def test_spectral_entropy_planted_harmonic():
    """A pure daily sinusoid sampled over a dense 10-day hourly grid must
    concentrate power at k = n_days (low entropy, peak_k = 10)."""
    from datafiller_ray.pipelines.window import _spectral_one_source

    days = 10
    ts = np.arange(days * 24, dtype=np.int64) * 3600
    y = np.rint(
        1000 + 500 * np.cos(2 * np.pi * (ts % 86400) / 86400.0)
    ).astype(np.int64)
    out = _spectral_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": y}), "s", 12
    )
    assert len(out) == 1
    r = out.iloc[0]
    assert r["n_slots"] == days * 24 and r["n_active"] == days * 24
    assert r["peak_k"] == days  # k=10 of T=240 slots == 24h period
    assert r["spectral_entropy"] < 0.25
    # broadband noise scores near 1
    rng = np.random.default_rng(3)
    y2 = rng.integers(0, 1000, size=ts.size).astype(np.int64)
    r2 = _spectral_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": y2}), "s", 12
    ).iloc[0]
    # K=12 exponential-ish powers put the expected normalized entropy
    # around 0.75; the separation from the planted-harmonic case is what
    # matters
    assert r2["spectral_entropy"] > 0.6


def test_spectral_entropy_matches_vendored_oracle_bitwise():
    import sys

    sys.path.insert(0, "tests/oracle")
    import fills as o

    from datafiller_ray.pipelines.window import _spectral_one_source

    rng = np.random.default_rng(5)
    nb = 400
    ts = np.sort(rng.choice(30 * 1440, size=nb, replace=False)).astype(
        np.int64
    ) * 60
    y = rng.integers(0, 500, size=nb).astype(np.int64)
    out = _spectral_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": y}), "s", 12
    )
    st = o.spectral_entropy_stats(ts, y, 12)
    assert st is not None
    n_slots, n_active, peak_k, ent = st
    r = out.iloc[0]
    assert (r["n_slots"], r["n_active"], r["peak_k"]) == (
        n_slots, n_active, peak_k,
    )
    assert r["spectral_entropy"] == o.round_half_up(np.array([ent]))[0]


def test_spectral_entropy_degenerate_cases():
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import (
        _spectral_one_source,
        spectral_entropy,
    )

    # span of 4 hourly slots -> only one harmonic -> omitted
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(4, dtype=np.int64) * 3600,
         "sum": np.array([1, 5, 2, 9], dtype=np.int64)}
    )
    assert len(_spectral_one_source(obs, "s", 12)) == 0
    # constant hourly series on a dense grid -> zero AC power -> omitted
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(24, dtype=np.int64) * 3600,
         "sum": np.full(24, 7, dtype=np.int64)}
    )
    assert len(_spectral_one_source(obs, "s", 12)) == 0
    with pytest.raises(EngineValueError):
        spectral_entropy("/tmp/nope.parquet", max_k=1)


def test_hill_tail_pareto_recovery():
    """On exact Pareto(alpha) order statistics the Hill estimator must
    land near alpha; on constant data it is omitted."""
    import math

    from datafiller_ray.pipelines.window import _hill_one_source

    rng = np.random.default_rng(13)
    alpha = 1.5
    u = rng.uniform(size=5000)
    x = np.rint(1000.0 * u ** (-1.0 / alpha)).astype(np.int64)
    ts = np.arange(x.size, dtype=np.int64) * 60
    out = _hill_one_source(
        pd.DataFrame({"bucket_ts": ts, "sum": x}), "s", 100
    )
    assert len(out) == 1
    assert abs(out.iloc[0]["tail_index"] - alpha) < 0.45
    # literal: x = [8,4,2,1], k=2 -> hill = (ln(8/2) + ln(4/2))/2
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(4, dtype=np.int64) * 60,
         "sum": np.array([8, 4, 2, 1], dtype=np.int64)}
    )
    r = _hill_one_source(obs, "s", 2).iloc[0]
    want = math.fsum(
        np.log(np.array([8.0, 4.0])) - math.log(2.0)
    ) / 2.0
    assert r["hill"] == np.floor(want * 1e6 + 0.5) / 1e6
    # constant series: omitted
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(10, dtype=np.int64) * 60,
         "sum": np.full(10, 5, dtype=np.int64)}
    )
    assert len(_hill_one_source(obs, "s", 3)) == 0


def test_hill_tail_validation():
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import hill_tail

    with pytest.raises(EngineValueError):
        hill_tail("/tmp/nope.parquet", k=1)


def test_theta_forecast_linear_series_exact():
    """On an exactly linear series the theta=2 line is the same line, SES
    lags it, and the trend half extrapolates exactly; slope must be the
    OLS slope (= 3)."""
    from datafiller_ray.pipelines.window import _theta_one_source

    n = 50
    y = 7 + 3 * np.arange(n, dtype=np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(n, dtype=np.int64) * 60, "sum": y}
    )
    out = _theta_one_source(obs, "s", 0.5, 3)
    assert len(out) == 1
    r = out.iloc[0]
    assert r["slope"] == 3.0
    # forecasts step by ~b/2 per horizon (trend half moves, SES half flat)
    assert r["forecast_2"] - r["forecast_1"] == pytest.approx(1.5, abs=1e-6)
    assert r["forecast_3"] - r["forecast_2"] == pytest.approx(1.5, abs=1e-6)


def test_theta_forecast_matches_vendored_oracle_bitwise():
    import sys

    sys.path.insert(0, "tests/oracle")
    import fills as o

    from datafiller_ray.pipelines.window import _theta_one_source

    rng = np.random.default_rng(23)
    y = rng.integers(0, 900, size=300).astype(np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(300, dtype=np.int64) * 60, "sum": y}
    )
    r = _theta_one_source(obs, "s", 0.5, 3).iloc[0]
    b, fc = o.theta_forecast_fit(y, 0.5, 3)
    assert r["slope"] == o.round_half_up(np.array([b]))[0]
    for k in range(3):
        assert r[f"forecast_{k+1}"] == o.round_half_up(
            np.array([fc[k]])
        )[0]


def test_theta_forecast_validation():
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import (
        _theta_one_source,
        theta_forecast,
    )

    obs = pd.DataFrame(
        {"bucket_ts": np.array([0, 60], dtype=np.int64),
         "sum": np.array([1, 2], dtype=np.int64)}
    )
    assert len(_theta_one_source(obs, "s", 0.5, 3)) == 0
    with pytest.raises(EngineValueError):
        theta_forecast("/tmp/nope.parquet", alpha=1.0)
    with pytest.raises(EngineValueError):
        theta_forecast("/tmp/nope.parquet", horizon=0)


def test_control_rules_planted_patterns():
    from datafiller_ray.pipelines.window import _control_one_source

    # a flat-ish base with a planted spike (r1/r2), an elevated run (r4)
    base = np.array([10, 10, 11, 9, 10, 11, 9, 10] * 4, dtype=np.int64)
    y = base.copy()
    y[10] = 60  # single extreme point -> r1 up at index 10
    obs = pd.DataFrame(
        {
            "bucket_ts": np.arange(y.size, dtype=np.int64) * 60,
            "sum": y,
        }
    )
    out = _control_one_source(obs, "s", 8)
    r1 = out[out["rule"] == "r1"]
    assert list(r1["bucket_ts"]) == [600]
    assert list(r1["side"]) == ["up"]
    # 8 consecutive points strictly above the mean fire r4 on the 8th
    mean = y.mean()
    up = y > mean
    run = 0
    expect = []
    for i, u in enumerate(up):
        run = run + 1 if u else 0
        if run >= 8:
            expect.append(i * 60)
    got = sorted(out[(out["rule"] == "r4") & (out["side"] == "up")]["bucket_ts"])
    assert got == expect


def test_control_rules_constant_and_short_series_omitted():
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import (
        _control_one_source,
        control_rules,
    )

    const = pd.DataFrame(
        {
            "bucket_ts": np.arange(20, dtype=np.int64) * 60,
            "sum": np.full(20, 7, dtype=np.int64),
        }
    )
    assert len(_control_one_source(const, "s", 8)) == 0
    short = const.iloc[:5]
    assert len(_control_one_source(short, "s", 8)) == 0
    with pytest.raises(EngineValueError):
        control_rules("/tmp/nope.parquet", min_points=0)


def test_hampel_planted_outlier_replaced():
    from datafiller_ray.pipelines.window import _hampel_one_source

    y = np.array([10, 11, 10, 9, 10, 500, 10, 11, 9, 10, 11, 10, 9],
                 dtype=np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(y.size, dtype=np.int64) * 60, "sum": y}
    )
    out = _hampel_one_source(obs, "s", 5, 3.0)
    assert len(out) == y.size
    spike = out[out["bucket_ts"] == 5 * 60].iloc[0]
    assert bool(spike["flagged"])
    assert spike["fill_value"] == 10.0  # replaced by the window median
    # inliers pass through unchanged
    ok = out[~out["flagged"]]
    assert (ok["fill_value"].to_numpy() == ok["sum_tok"].to_numpy()).all()


def test_hampel_short_series_and_validation():
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import _hampel_one_source, hampel_fill

    # shorter than one full window: every window truncates, still n rows
    y = np.array([5, 6, 100], dtype=np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(3, dtype=np.int64) * 60, "sum": y}
    )
    out = _hampel_one_source(obs, "s", 5, 3.0)
    assert len(out) == 3
    with pytest.raises(EngineValueError):
        hampel_fill("/tmp/nope.parquet", half=0)
    with pytest.raises(EngineValueError):
        hampel_fill("/tmp/nope.parquet", nsig=0.0)


def test_pelt_planted_shift_recovered():
    from datafiller_ray.pipelines.window import _pelt_one_source

    y = np.array([10] * 12 + [50] * 12, dtype=np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(y.size, dtype=np.int64) * 600, "sum": y}
    )
    out = _pelt_one_source(obs, "s", 600, 2, 2)
    assert list(out["cp_ts"]) == [12 * 600]
    assert out.iloc[0]["left_mean"] == 10.0
    assert out.iloc[0]["right_mean"] == 50.0


def test_pelt_matches_bruteforce_optimum():
    """PELT's pruned DP must hit the exact optimum of
    total-L2-cost + beta * #cps over ALL segmentations (enumerated)."""
    from fractions import Fraction
    from itertools import combinations

    from datafiller_ray.pipelines.window import _pelt_one_source

    rng = np.random.default_rng(11)
    for trial in range(12):
        y = rng.integers(0, 40, size=11).astype(np.int64)
        n = y.size
        S = np.concatenate([[0], np.cumsum(y)]).tolist()
        Q = np.concatenate([[0], np.cumsum(y * y)]).tolist()
        beta = Fraction(2 * (n * Q[n] - S[n] * S[n]), n * n)

        def cost(a, c):
            sv = S[c] - S[a]
            return Fraction((Q[c] - Q[a]) * (c - a) - sv * sv, c - a)

        best = None
        interior = list(range(2, n - 1))  # min_size=2 admissible cuts
        for k in range(0, len(interior) + 1):
            for cuts in combinations(interior, k):
                bounds = [0, *cuts, n]
                if any(b - a < 2 for a, b in zip(bounds, bounds[1:])):
                    continue
                obj = sum(
                    (cost(a, b) for a, b in zip(bounds, bounds[1:])),
                    start=Fraction(0),
                ) + beta * len(cuts)
                if best is None or obj < best:
                    best = obj
        obs = pd.DataFrame(
            {"bucket_ts": np.arange(n, dtype=np.int64) * 600, "sum": y}
        )
        out = _pelt_one_source(obs, "s", 600, 2, 2)
        cps = [int(t) // 600 for t in out["cp_ts"]]
        bounds = [0, *cps, n]
        got = sum(
            (cost(a, b) for a, b in zip(bounds, bounds[1:])),
            start=Fraction(0),
        ) + beta * len(cps)
        assert got == best, (trial, cps, float(got), float(best))


def test_pelt_validation_and_degenerate():
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import _pelt_one_source, pelt_changepoints

    const = pd.DataFrame(
        {
            "bucket_ts": np.arange(20, dtype=np.int64) * 600,
            "sum": np.full(20, 5, dtype=np.int64),
        }
    )
    assert len(_pelt_one_source(const, "s", 600, 2, 2)) == 0
    short = const.iloc[:3]
    assert len(_pelt_one_source(short, "s", 600, 2, 2)) == 0
    with pytest.raises(EngineValueError):
        pelt_changepoints("/tmp/nope.parquet", step=30)
    with pytest.raises(EngineValueError):
        pelt_changepoints("/tmp/nope.parquet", pen_mult=0)
    with pytest.raises(EngineValueError):
        pelt_changepoints("/tmp/nope.parquet", min_size=0)


def _brute_sampen_counts(y, m, r):
    # literal O(n^2 m) double loop straight from the SampEn definition
    t = len(y) - m
    b = a = 0
    for i in range(t):
        for j in range(i + 1, t):
            dm = max(abs(int(y[i + k]) - int(y[j + k])) for k in range(m))
            if dm <= r:
                b += 1
                if max(dm, abs(int(y[i + m]) - int(y[j + m]))) <= r:
                    a += 1
    return b, a


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sampen_one_source_matches_brute(m):
    import math

    from datafiller_ray.pipelines.window import _sampen_one_source

    rng = np.random.default_rng(7 + m)
    y = rng.integers(0, 50, size=300).astype(np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(300, dtype=np.int64) * 600, "sum": y}
    )
    out = _sampen_one_source(obs, "s", step=600, m=m, r_mult=0.2)
    n = y.size
    sv, qv = int(y.sum()), sum(int(v) * int(v) for v in y)
    r = 0.2 * math.sqrt(float(n * qv - sv * sv) / float(n * n))
    b, a = _brute_sampen_counts(y, m, r)
    assert out["b_count"].iloc[0] == b
    assert out["a_count"].iloc[0] == a
    exp = np.floor(-math.log(a / b) * 1e6 + 0.5) / 1e6
    assert out["sampen"].iloc[0] == exp


def test_sampen_blocked_crosses_block_boundary():
    # >1024 templates forces the blocked path to stitch counts across blocks
    from datafiller_ray.pipelines.window import _sampen_one_source

    rng = np.random.default_rng(3)
    y = rng.integers(0, 20, size=1500).astype(np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(1500, dtype=np.int64) * 600, "sum": y}
    )
    out = _sampen_one_source(obs, "s", step=600, m=2, r_mult=0.2)
    # independent vendored-oracle counter (different vectorization)
    import sys

    sys.path.insert(0, "tests")
    from oracle.fills import sampen_counts

    n = y.size
    sv, qv = int(y.sum()), sum(int(v) * int(v) for v in y)
    import math

    r = 0.2 * math.sqrt(float(n * qv - sv * sv) / float(n * n))
    b, a = sampen_counts(y, 2, r)
    assert (out["b_count"].iloc[0], out["a_count"].iloc[0]) == (b, a)


def test_sampen_constant_and_short_series():
    from datafiller_ray.pipelines.window import _sampen_one_source

    # constant series: every template matches -> SampEn exactly 0
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(10, dtype=np.int64) * 600,
         "sum": np.full(10, 7, dtype=np.int64)}
    )
    out = _sampen_one_source(obs, "s", step=600, m=2, r_mult=0.2)
    assert out["sampen"].iloc[0] == 0.0
    # too short -> empty frame with pinned schema
    short = pd.DataFrame(
        {"bucket_ts": np.arange(3, dtype=np.int64) * 600,
         "sum": np.array([1, 2, 3], dtype=np.int64)}
    )
    empty = _sampen_one_source(short, "s", step=600, m=2, r_mult=0.2)
    assert len(empty) == 0
    assert list(empty.columns) == [
        "source", "n_buckets", "r", "b_count", "a_count", "sampen",
    ]


def test_sample_entropy_validation():
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import sample_entropy

    with pytest.raises(EngineValueError):
        sample_entropy("/tmp/x", step=10)
    with pytest.raises(EngineValueError):
        sample_entropy("/tmp/x", m=0)
    with pytest.raises(EngineValueError):
        sample_entropy("/tmp/x", r_mult=0.0)


def test_vopt_matches_bruteforce_enumeration():
    """The Fraction DP must find the globally optimal K-bucket split:
    compare against brute-force enumeration of all break placements."""
    from fractions import Fraction
    from itertools import combinations

    from datafiller_ray.pipelines.window import _vopt_one_source

    rng = np.random.default_rng(13)
    for trial in range(6):
        n = int(rng.integers(6, 14))
        y = rng.integers(0, 40, size=n).astype(np.int64)
        obs = pd.DataFrame(
            {"bucket_ts": np.arange(n, dtype=np.int64) * 3600, "sum": y}
        )
        k = 3
        out = _vopt_one_source(obs, "s", step=3600, n_buckets=k)
        assert len(out) == k
        got_total = Fraction(0)
        ps = np.concatenate([[0], np.cumsum(y)]).astype(object)
        pq = np.concatenate(
            [[0], np.cumsum([int(v) * int(v) for v in y])]
        ).astype(object)

        def seg(a, c):
            sv = int(ps[c] - ps[a])
            return Fraction(int(pq[c] - pq[a]) * (c - a) - sv * sv, c - a)

        # reconstruct the engine's bounds from n_points
        sizes = out["n_points"].tolist()
        bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        got_total = sum(
            (seg(bounds[i], bounds[i + 1]) for i in range(k)),
            Fraction(0),
        )
        best = min(
            sum(
                (seg(b[i], b[i + 1]) for i in range(k)),
                Fraction(0),
            )
            for cuts in combinations(range(1, n), k - 1)
            for b in [[0, *cuts, n]]
        )
        assert got_total == best, (trial, got_total, best)


def test_vopt_planted_levels_recovered():
    from datafiller_ray.pipelines.window import _vopt_one_source

    y = np.concatenate(
        [np.full(10, 100), np.full(10, 500), np.full(10, 50)]
    ).astype(np.int64)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(30, dtype=np.int64) * 3600, "sum": y}
    )
    out = _vopt_one_source(obs, "s", step=3600, n_buckets=3)
    assert out["n_points"].tolist() == [10, 10, 10]
    assert out["mean_tok"].tolist() == [100.0, 500.0, 50.0]
    assert out["sse"].tolist() == [0.0, 0.0, 0.0]
    assert out["start_ts"].tolist() == [0, 36000, 72000]


def test_vopt_validation_and_short():
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import _vopt_one_source, vopt_histogram

    with pytest.raises(EngineValueError):
        vopt_histogram("/tmp/x", n_buckets=0)
    with pytest.raises(EngineValueError):
        vopt_histogram("/tmp/x", step=10)
    obs = pd.DataFrame(
        {"bucket_ts": np.arange(2, dtype=np.int64) * 3600,
         "sum": np.array([1, 2], dtype=np.int64)}
    )
    assert len(_vopt_one_source(obs, "s", step=3600, n_buckets=4)) == 0
