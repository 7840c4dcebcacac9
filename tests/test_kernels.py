"""Kernel-vs-oracle unit tests (the reference's own test pattern:
``/root/reference/tests/test_multivariate.py:564-574`` checks each fused
kernel against the naive formulation)."""

import numpy as np
import pandas as pd
import pytest

from datafiller_ray.functions import gapfill
from datafiller_ray.functions.features import (
    build_lag_features,
    fill_model,
    make_time_features,
)
from datafiller_ray.functions.ridge import FastRidge, fit_ridge_from_gram
from tests.oracle.reference import interpolate_small_gaps, locf_small_gaps


def random_gappy(rng, n):
    y = rng.normal(size=n) * 10
    y[rng.random(n) < 0.35] = np.nan
    return y


@pytest.mark.parametrize("max_gap", [0, 1, 2, 3, 7, None])
def test_linear_matches_reference_interpolate_small_gaps(max_gap):
    rng = np.random.default_rng(1)
    for _ in range(100):
        y = random_gappy(rng, int(rng.integers(1, 60)))
        mine, codes = gapfill.fill_linear(y, max_gap)
        oracle = interpolate_small_gaps(pd.Series(y), max_gap).to_numpy()
        np.testing.assert_array_equal(np.isnan(mine), np.isnan(oracle))
        np.testing.assert_allclose(np.nan_to_num(mine), np.nan_to_num(oracle))
        # codes mark exactly the newly-filled cells
        assert ((codes != 0) == (np.isnan(y) & ~np.isnan(mine))).all()


@pytest.mark.parametrize("max_gap", [0, 1, 2, 5, None])
def test_locf_matches_pandas_ffill_masked(max_gap):
    rng = np.random.default_rng(2)
    for _ in range(100):
        y = random_gappy(rng, int(rng.integers(1, 50)))
        mine, _ = gapfill.fill_locf(y, max_gap)
        oracle = locf_small_gaps(pd.Series(y), max_gap).to_numpy()
        np.testing.assert_array_equal(np.isnan(mine), np.isnan(oracle))
        np.testing.assert_allclose(np.nan_to_num(mine), np.nan_to_num(oracle))


def test_mean_fill_is_exact_column_mean():
    # pins the reference fallback semantics (_apply_fallback)
    y = np.array([1.0, np.nan, 2.0, np.nan, 6.0])
    out, codes = gapfill.fill_mean(y)
    assert out[1] == out[3] == np.mean([1.0, 2.0, 6.0])
    assert codes.tolist() == [0, 4, 0, 4, 0]
    # all-NaN stays all-NaN (all-NaN column survives, test_timeseries.py:208-230)
    out2, codes2 = gapfill.fill_mean(np.array([np.nan, np.nan]))
    assert np.isnan(out2).all() and (codes2 == 0).all()


def test_observed_cells_bit_exact_through_all_kernels():
    # reference invariant: observed cells returned bit-exact
    # (tests/test_multivariate.py:522-531)
    rng = np.random.default_rng(3)
    y = random_gappy(rng, 200)
    obs = ~np.isnan(y)
    ts = np.arange(200, dtype=np.int64) * 60
    for fn in [
        lambda: gapfill.fill_linear(y, 3),
        lambda: gapfill.fill_locf(y, 3),
        lambda: gapfill.fill_spline(y, 3),
        lambda: gapfill.fill_mean(y),
        lambda: fill_model(y, ts),
    ]:
        out, _ = fn()
        assert np.array_equal(out[obs], y[obs])


def test_spline_reproduces_cubic_polynomial():
    x = np.arange(60, dtype=np.float64)
    y = 0.01 * x**3 - 0.5 * x**2 + 3 * x + 7
    gappy = y.copy()
    gappy[20:23] = np.nan
    out, codes = gapfill.fill_spline(gappy, None, window=8)
    # natural cubic spline through cubic data is near-exact away from ends
    np.testing.assert_allclose(out[20:23], y[20:23], rtol=1e-3)
    assert (codes[20:23] == 3).all()


def test_spline_edge_rules_match_linear_kernel():
    y = np.array([np.nan, 1.0, 2.0, np.nan, np.nan])
    out, _ = gapfill.fill_spline(y, None)
    assert np.isnan(out[0])  # leading never filled
    assert out[3] == out[4] == 2.0  # trailing clamps to last observed


def test_spline_respects_max_gap():
    y = np.array([1.0, np.nan, np.nan, np.nan, 5.0, np.nan, 7.0])
    out, _ = gapfill.fill_spline(y, max_gap=1)
    assert np.isnan(out[1:4]).all() and not np.isnan(out[5])


def test_nan_runs():
    y = np.array([np.nan, 1, np.nan, np.nan, 2, 3, np.nan])
    starts, lengths, run_id = gapfill.nan_runs(np.isnan(y))
    assert starts.tolist() == [0, 2, 6]
    assert lengths.tolist() == [1, 2, 1]
    assert run_id.tolist() == [0, -1, 1, 1, -1, -1, 2]


def test_lag_features_match_pandas_shift():
    # oracle formulation from the reference test
    # (/root/reference/tests/test_timeseries.py:233-246): lag block == df.shift(lag)
    rng = np.random.default_rng(4)
    y = rng.normal(size=30)
    lags = (1, 3, -2)
    X = build_lag_features(y, lags)
    s = pd.Series(y)
    for t, lag in enumerate(lags):
        np.testing.assert_array_equal(
            np.isnan(X[:, t]), s.shift(lag).isna().to_numpy()
        )
        np.testing.assert_allclose(
            np.nan_to_num(X[:, t]), s.shift(lag).fillna(0).to_numpy()
        )


def test_time_features_match_pandas_datetime():
    # oracle: pandas DatetimeIndex arithmetic, mirroring _make_time_features
    # (timeseries/imputer.py:226-256)
    ts = (np.arange(0, 5000) * 60 + 1704067200).astype(np.int64)  # 2024-01-01
    F = make_time_features(ts)
    idx = pd.to_datetime(ts, unit="s")
    elapsed = ((idx - idx[0]) / pd.Timedelta(days=1)).to_numpy(np.float32)
    trend = elapsed / elapsed[-1]
    hour = idx.hour.to_numpy(np.float32) + idx.minute.to_numpy(np.float32) / 60.0
    day_angle = np.float32(2 * np.pi) * hour / np.float32(24.0)
    week_angle = (
        np.float32(2 * np.pi) * idx.dayofweek.to_numpy(np.float32) / np.float32(7.0)
    )
    np.testing.assert_allclose(F[:, 0], trend, atol=1e-6)
    np.testing.assert_allclose(F[:, 1], np.sin(day_angle), atol=1e-5)
    np.testing.assert_allclose(F[:, 2], np.cos(day_angle), atol=1e-5)
    np.testing.assert_allclose(F[:, 3], np.sin(week_angle), atol=1e-5)
    np.testing.assert_allclose(F[:, 4], np.cos(week_angle), atol=1e-5)


def test_fast_ridge_against_float64_exact_solve():
    # the reference pins the Gram path against a float64 exact solve with a
    # sigma-scaled tolerance (tests/test_multivariate.py:457-501)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(500, 6))
    beta = rng.normal(size=6)
    y = X @ beta + 0.01 * rng.normal(size=500)
    m = FastRidge(alpha=1e-2).fit(X, y)
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    A = Xc.T @ Xc + 1e-2 * np.eye(6)
    exact = np.linalg.solve(A, Xc.T @ yc)
    np.testing.assert_allclose(m.coef_, exact, atol=1e-4 * np.abs(exact).max())


def test_gram_path_equals_materialized_ridge():
    # equivalence of the two solvers (reference tests/test_multivariate.py:375-388)
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 4))
    y = rng.normal(size=200)
    Z = np.column_stack([X, y, np.ones(200)])
    gram = Z.T @ Z
    coef, intercept = fit_ridge_from_gram(gram, 200, alpha=1e-2)
    m = FastRidge(alpha=1e-2).fit(X, y)
    np.testing.assert_allclose(coef, m.coef_, atol=1e-4)
    np.testing.assert_allclose(intercept, m.intercept_, atol=1e-4)


def test_model_fill_recovers_seasonal_signal():
    t = np.arange(4000, dtype=np.int64) * 60
    sig = 100 + 50 * np.sin(2 * np.pi * (t % 86400) / 86400)
    rng = np.random.default_rng(7)
    y = sig.copy()
    y[rng.random(4000) < 0.15] = np.nan
    out, codes = fill_model(y, t)
    gaps = np.isnan(y)
    assert (codes[gaps] == 5).all()
    assert np.abs(out[gaps] - sig[gaps]).max() < 1.0


def test_model_fill_honors_min_samples_train():
    # a series too short to yield 20 complete training rows is left NaN
    t = np.arange(15, dtype=np.int64) * 60
    y = np.arange(15, dtype=np.float64)
    y[7] = np.nan
    out, codes = fill_model(y, t, min_samples_train=20)
    assert np.isnan(out[7]) and codes[7] == 0


def test_fill_seasonal_hod_mean():
    from datafiller_ray.functions.gapfill import METHOD_CODES, fill_seasonal

    # two days of hourly-resolution minutes: hour h has value 100 + h,
    # day 2 hour 3 is missing -> filled with the hour-3 mean (= 103)
    ts = []
    vals = []
    for day in range(2):
        for h in range(24):
            if day == 1 and h == 3:
                vals.append(np.nan)
            else:
                vals.append(100.0 + h)
            ts.append(day * 86400 + h * 3600)
    y = np.array(vals)
    bucket_ts = np.array(ts, dtype=np.int64)
    out, codes = fill_seasonal(y, bucket_ts)
    i = 24 + 3
    assert out[i] == 103.0
    assert codes[i] == METHOD_CODES["seasonal"]
    assert (codes[np.arange(48) != i] == 0).all()
    # observed values pass through untouched
    assert out[0] == 100.0

    # max_gap bounds the run length like the other kernels
    y2 = np.array([1.0, np.nan, np.nan, np.nan, 5.0])
    ts2 = np.arange(5, dtype=np.int64) * 60
    out2, codes2 = fill_seasonal(y2, ts2, max_gap=2)
    assert np.isnan(out2[1:4]).all() and (codes2 == 0).all()

    # slot never observed -> gap stays NaN
    y3 = np.array([np.nan, 7.0])
    ts3 = np.array([0, 3600], dtype=np.int64)  # slot 0 unobserved
    out3, codes3 = fill_seasonal(y3, ts3)
    assert np.isnan(out3[0]) and codes3[0] == 0


def _nearest_loop_oracle(y: np.ndarray, max_gap) -> np.ndarray:
    """Scalar reference: nearest observed value, ties to the LEFT anchor,
    leading runs untouched, bounded by run length."""
    out = y.astype(np.float64).copy()
    n = y.size
    obs = np.flatnonzero(~np.isnan(y))
    if obs.size == 0:
        return out
    i = 0
    while i < n:
        if not np.isnan(y[i]):
            i += 1
            continue
        j = i
        while j < n and np.isnan(y[j]):
            j += 1
        run = j - i
        prev = obs[obs < i]
        nxt = obs[obs >= j]
        if prev.size and (max_gap is None or run <= max_gap):
            for k in range(i, j):
                p = prev[-1]
                if nxt.size and (nxt[0] - k) < (k - p):
                    out[k] = y[nxt[0]]
                else:
                    out[k] = y[p]
        i = j
    return out


def _bfill_loop_oracle(y: np.ndarray, max_gap) -> np.ndarray:
    out = y.astype(np.float64).copy()
    n = y.size
    i = 0
    while i < n:
        if not np.isnan(y[i]):
            i += 1
            continue
        j = i
        while j < n and np.isnan(y[j]):
            j += 1
        run = j - i
        if j < n and (max_gap is None or run <= max_gap):
            out[i:j] = y[j]
        i = j
    return out


@pytest.mark.parametrize("max_gap", [0, 1, 2, 3, 7, None])
def test_nearest_matches_loop_oracle(max_gap):
    rng = np.random.default_rng(11)
    for _ in range(100):
        y = random_gappy(rng, int(rng.integers(1, 60)))
        mine, codes = gapfill.fill_nearest(y, max_gap)
        oracle = _nearest_loop_oracle(y, max_gap)
        np.testing.assert_array_equal(np.isnan(mine), np.isnan(oracle))
        np.testing.assert_allclose(np.nan_to_num(mine), np.nan_to_num(oracle))
        assert ((codes != 0) == (np.isnan(y) & ~np.isnan(mine))).all()


@pytest.mark.parametrize("max_gap", [0, 1, 2, 3, 7, None])
def test_bfill_matches_loop_oracle(max_gap):
    rng = np.random.default_rng(12)
    for _ in range(100):
        y = random_gappy(rng, int(rng.integers(1, 60)))
        mine, codes = gapfill.fill_bfill(y, max_gap)
        oracle = _bfill_loop_oracle(y, max_gap)
        np.testing.assert_array_equal(np.isnan(mine), np.isnan(oracle))
        np.testing.assert_allclose(np.nan_to_num(mine), np.nan_to_num(oracle))
        assert ((codes != 0) == (np.isnan(y) & ~np.isnan(mine))).all()


def test_nearest_tie_goes_left_and_edges():
    y = np.array([np.nan, 1.0, np.nan, np.nan, np.nan, 5.0, np.nan])
    mine, _ = gapfill.fill_nearest(y, None)
    # leading stays NaN; middle run: pos2->1 (closer left), pos3 tie->left,
    # pos4->5 (closer right); trailing clamps to 5
    assert np.isnan(mine[0])
    np.testing.assert_allclose(mine[1:], [1.0, 1.0, 1.0, 5.0, 5.0, 5.0])


def test_bfill_leading_filled_trailing_not():
    y = np.array([np.nan, np.nan, 3.0, np.nan, 7.0, np.nan])
    mine, _ = gapfill.fill_bfill(y, None)
    np.testing.assert_allclose(mine[:5], [3.0, 3.0, 3.0, 7.0, 7.0])
    assert np.isnan(mine[5])


# ---- chunked token-content check (stages/validate.py) ----------------------


def _token_case(rng, lengths):
    from datafiller_ray.functions.hashing import expected_tokens_flat

    n_tok = np.asarray(lengths, dtype=np.int32)
    seeds = rng.integers(0, 2**64, size=n_tok.size, dtype=np.uint64)
    return seeds, n_tok, expected_tokens_flat(seeds, n_tok)[1]


def test_tokens_match_agrees_with_expected_tokens_flat():
    from datafiller_ray.functions.hashing import tokens_match

    rng = np.random.default_rng(7)
    for _ in range(200):
        lengths = rng.integers(0, 40, size=int(rng.integers(0, 30)))
        lengths[rng.random(lengths.size) < 0.2] = 0  # zero-length rows
        chunk = int(rng.integers(1, 50))
        seeds, n_tok, want = _token_case(rng, lengths)
        assert tokens_match(seeds, n_tok, want, chunk=chunk)
        if want.size:
            bad = want.copy()
            bad[int(rng.integers(0, want.size))] ^= 1
            assert not tokens_match(seeds, n_tok, bad, chunk=chunk)


@pytest.mark.parametrize(
    "lengths",
    [
        [0, 0, 0],  # nothing to compare
        [0, 25, 0, 0, 3, 0],  # zero-length rows around and between rows
        [100],  # one row spanning several chunks
        [7, 9, 11, 0, 13],  # chunk boundaries fall inside rows
    ],
)
def test_tokens_match_chunk_layouts(lengths):
    from datafiller_ray.functions.hashing import tokens_match

    rng = np.random.default_rng(sum(lengths))
    seeds, n_tok, want = _token_case(rng, lengths)
    chunk = 8
    assert tokens_match(seeds, n_tok, want, chunk=chunk)
    # a flipped token at the first and at the last position of each chunk
    for lo in range(0, want.size, chunk):
        for pos in (lo, min(lo + chunk, want.size) - 1):
            bad = want.copy()
            bad[pos] += 1
            assert not tokens_match(seeds, n_tok, bad, chunk=chunk), pos
    # a total-length mismatch
    assert not tokens_match(seeds, n_tok, np.append(want, 0), chunk=chunk)
    if want.size:
        assert not tokens_match(seeds, n_tok, want[:-1], chunk=chunk)


def _token_batch(lengths):
    import pyarrow as pa

    from datafiller_ray.functions.hashing import (
        expected_tokens_flat,
        row_seed,
        string_hash64,
    )

    n = len(lengths)
    source = np.array([f"s{i % 3}" for i in range(n)])
    minute = 28_000_000 + np.arange(n, dtype=np.int64)
    n_tok = np.asarray(lengths, dtype=np.int32)
    offsets, values = expected_tokens_flat(
        row_seed(string_hash64(source), minute), n_tok
    )
    return pa.table(
        {
            "doc_id": [f"{s}:{m:010d}" for s, m in zip(source, minute)],
            "tokens": pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()), pa.array(values, pa.int32())
            ),
            "n_tok": pa.array(n_tok, pa.int32()),
            "source": source,
        }
    )


@pytest.mark.parametrize("flip", ["first", "chunk_last", "chunk_next", "last"])
def test_validate_tokens_raises_on_flip_at_chunk_edges(flip):
    import pyarrow as pa

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.validate import validate_tokens

    chunk = 1 << 16  # tokens_match's default chunk
    # 0-length rows, and rows that straddle the first chunk boundary
    t = _token_batch([0, 40_000, 0, 30_000, 5, 70_000, 0])
    validate_tokens(t)
    values = t["tokens"].combine_chunks()
    flat = values.values.to_numpy().copy()
    pos = {"first": 0, "chunk_last": chunk - 1, "chunk_next": chunk}.get(
        flip, flat.size - 1
    )
    flat[pos] += 1
    bad = t.set_column(
        1, "tokens", pa.ListArray.from_arrays(values.offsets, pa.array(flat))
    )
    with pytest.raises(EngineValueError, match="content mismatch"):
        validate_tokens(bad)


def test_validate_tokens_raises_on_null_token_row():
    import pyarrow as pa

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.validate import validate_tokens

    t = _token_batch([3, 4, 5])
    tokens = t["tokens"].to_pylist()
    tokens[1] = None  # its length is null, so only the total can catch it
    bad = t.set_column(1, "tokens", pa.array(tokens, pa.list_(pa.int32())))
    with pytest.raises(EngineValueError, match="content mismatch"):
        validate_tokens(bad)


# ---- exact token arithmetic near the uint64 edges ---------------------------

_M64 = (1 << 64) - 1
_GOLDEN, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_V = 50_000


def _py_splitmix64(x: int) -> int:
    """splitmix64 on Python ints: the arithmetic the NumPy kernels must
    match, with no float anywhere."""
    x = (x + _GOLDEN) & _M64
    x = ((x ^ (x >> 30)) * _MIX1) & _M64
    x = ((x ^ (x >> 27)) * _MIX2) & _M64
    return x ^ (x >> 31)


def _py_seed_for(z: int) -> int:
    """The seed whose ``_py_splitmix64`` is ``z``: each step is invertible
    (an xor-shift by iterating it, an odd multiply by its inverse)."""

    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    x = (unshift(z, 31) * pow(_MIX2, -1, 1 << 64)) & _M64
    x = (unshift(x, 27) * pow(_MIX1, -1, 1 << 64)) & _M64
    return (unshift(x, 30) - _GOLDEN) & _M64


def _edge_mixed_values() -> list:
    """Mixed values at ``k*V - 1``, ``k*V`` and ``k*V + 1`` for ``k`` from 1
    to the last multiple below 2**64, around 2**53 (where a float path
    starts to round) and at the top of the range."""
    ks = [1, 2, (1 << 53) // _V, (1 << 53) // _V + 1, (1 << 63) // _V, _M64 // _V]
    vals = [k * _V + d for k in ks for d in (-1, 0, 1)]
    vals += [(1 << 53) - 1, 1 << 53, (1 << 53) + 1, _M64 - 1, _M64, 0]
    return sorted(v for v in vals if 0 <= v <= _M64)


def test_token_values_are_exact_at_uint64_edges():
    from datafiller_ray.functions.hashing import expected_tokens_flat, tokens_match

    mixed = _edge_mixed_values()
    seeds = [_py_seed_for(z) for z in mixed]
    assert [_py_splitmix64(s) for s in seeds] == mixed
    # seeds whose ``seed + position`` wraps past 2**64 inside a row
    seeds += [_M64 - 2, _M64, (1 << 53) - 3]
    n_tok = np.array([1] * len(mixed) + [6, 4, 7], np.int32)
    want = [
        _py_splitmix64((s + j) & _M64) % _V for s, n in zip(seeds, n_tok) for j in range(n)
    ]
    seeds = np.array(seeds, np.uint64)
    offsets, values = expected_tokens_flat(seeds, n_tok)
    assert values.dtype == np.int32 and values.tolist() == want
    assert values[: len(mixed)].tolist() == [z % _V for z in mixed]
    for chunk in (1, 5, 1 << 16):
        assert tokens_match(seeds, n_tok, values, chunk=chunk)


@pytest.mark.parametrize("pos", ["first", "middle", "last"])
@pytest.mark.parametrize("wrong", ["plus_vocab", "minus_one", "minus_2_31"])
def test_tokens_match_rejects_tokens_congruent_or_negative(pos, wrong):
    """A token off by exactly the vocabulary, or a negative int32 (one that
    agrees with the expected value mod 2**31 included), is a mismatch."""
    from datafiller_ray.functions.hashing import tokens_match

    rng = np.random.default_rng(11)
    seeds, n_tok, want = _token_case(rng, [30, 0, 45, 25])
    i = {"first": 0, "middle": want.size // 2, "last": want.size - 1}[pos]
    bad = want.copy()
    bad[i] = {
        "plus_vocab": int(want[i]) + _V,
        "minus_one": -1,
        "minus_2_31": int(want[i]) - (1 << 31),
    }[wrong]
    assert bad.dtype == np.int32 and bad[i] != want[i]
    for chunk in (8, 1 << 16):
        assert tokens_match(seeds, n_tok, want, chunk=chunk)
        assert not tokens_match(seeds, n_tok, bad, chunk=chunk)


def _flip_token(t, k):
    """``t`` with flat token ``k`` of its (possibly chunked or sliced)
    ``tokens`` column incremented."""
    import pyarrow as pa
    import pyarrow.compute as pc

    flat = pc.list_flatten(t["tokens"]).to_numpy().copy()
    flat[k] += 1
    lengths = pc.list_value_length(t["tokens"]).to_numpy(zero_copy_only=False)
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int32)
    tokens = pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat))
    return t.set_column(t.column_names.index("tokens"), "tokens", tokens)


def test_validate_tokens_on_chunked_and_offset_lists():
    import pyarrow as pa

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.validate import validate_tokens

    t = _token_batch([5, 0, 70_000, 3, 12, 0, 9])
    # a multi-chunk ChunkedArray: every column in three chunks
    chunked = pa.concat_tables([t.slice(0, 2), t.slice(2, 3), t.slice(5)])
    assert chunked["tokens"].num_chunks == 3
    validate_tokens(chunked)
    total = 5 + 70_000 + 3 + 12 + 9
    for k in (0, 5 + 70_000, total - 1):  # first, second chunk's end, last
        with pytest.raises(EngineValueError, match="content mismatch"):
            validate_tokens(_flip_token(chunked, k))
    # a sliced ListArray: its offsets start past the values' first element
    sliced = t.slice(2).combine_chunks()
    tokens = sliced["tokens"].chunk(0)
    assert tokens.offset > 0 and tokens.offsets[0].as_py() == 5
    validate_tokens(sliced)
    validate_tokens(t.slice(3, 3))
    for k in (0, 70_000, 70_000 + 3 + 12 + 9 - 1):
        with pytest.raises(EngineValueError, match="content mismatch"):
            validate_tokens(_flip_token(sliced, k))
