"""Tier cascade + grid densification + gap fill, one columnar kernel.

:func:`fill_tiers` takes the partial-aggregate rows of any number of
sources — a run of whole ``skey`` groups of the hash exchange
(``bucketed_map_groups``) or a whole checkpoint bucket — and, with NumPy
over the whole frame at once:

1. orders the rows by ``skey``, then the source string (so a hash collision
   stays two series), then ``bucket_ts``;
2. final-combines the partials per (series, minute) with segmented
   ``reduceat`` (count=Σcount, sum=Σsum, min=min, max=max — the exact
   algebra the reference uses to merge per-block accumulators,
   ``multivariate/_numba_utils.py:43-66``);
3. cascades 1m -> each coarser tier from OBSERVED rows only (sum-of-sums /
   min-of-mins, exact; SURVEY.md §2.9), again with segmented ``reduceat``;
4. densifies every (series, tier) to its regular grid between its first and
   last observed bucket — the engine analogue of ``_regularize_index``
   (``timeseries/imputer.py:215-223``) — by offset arithmetic on ONE
   concatenated grid: missing buckets become null cells to impute;
5. applies the configured gap-fill kernel to each series' per-bucket
   ``sum`` slice of that grid, then the terminal fallback
   (``_apply_fallback`` semantics) — :func:`apply_fill`, one call per
   (series, tier), so a kernel that reads its whole series (mean, spline,
   seasonal, model, the fallback's mean) sees only that series;
6. builds one Arrow table: per series in (skey, source) order, the tiers in
   their configured order, buckets ascending.

Filled buckets get ``sum/min/max = round(value)`` (the reference rounds
imputed values for integer columns and casts back,
``multivariate/imputer.py:344-354``); observed buckets pass through
bit-exact (``tests/test_multivariate.py:522-531`` pins the same invariant in
the reference).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from datafiller_ray.config import FillConfig, RetentionConfig, TIER_STEPS
from datafiller_ray.functions import gapfill
from datafiller_ray.functions.features import fill_model

TIER_COLUMNS = [
    "source",
    "tier",
    "bucket_ts",
    "count",
    "sum",
    "min",
    "max",
    "value",
    "filled",
    "fill_method",
]

#: fill_method labels by method code; one past the last kernel code is the
#: label of a gap bucket nothing filled
_METHOD_LABELS = np.array(
    [gapfill.METHOD_NAMES[c] for c in range(len(gapfill.METHOD_NAMES))] + ["none"],
    dtype=object,
)
_UNFILLED = len(gapfill.METHOD_NAMES)

def reduce_sorted(
    keys: np.ndarray, count: np.ndarray, s: np.ndarray, mn: np.ndarray, mx: np.ndarray
) -> pd.DataFrame:
    """Grouped (sum, sum, min, max) over a SORTED key column via reduceat —
    the same partial-combine algebra as the reference's per-block
    accumulators (multivariate/_numba_utils.py:43-66), in O(n)."""
    starts = segment_starts(keys)
    return pd.DataFrame(
        dict(zip(
            ("bucket_ts", "count", "sum", "min", "max"),
            (keys[starts], *reduce_segments(starts, count, s, mn, mx)),
        ))
    )


def reduce_segments(starts: np.ndarray, count, s, mn, mx) -> tuple:
    """Segmented (sum, sum, min, max) of partial columns over the runs
    beginning at ``starts``."""
    return (
        np.add.reduceat(count, starts),
        np.add.reduceat(s, starts),
        np.minimum.reduceat(mn, starts),
        np.maximum.reduceat(mx, starts),
    )


def combine_partials(g: pd.DataFrame) -> pd.DataFrame:
    """Final combine of per-batch partial aggregates for one source."""
    ts = g["bucket_ts"].to_numpy(np.int64)
    order = np.argsort(ts, kind="stable")
    return reduce_sorted(
        ts[order],
        g["count"].to_numpy(np.int64)[order],
        g["sum"].to_numpy(np.int64)[order],
        g["min"].to_numpy(np.int64)[order],
        g["max"].to_numpy(np.int64)[order],
    )


def apply_fill(
    y: np.ndarray, bucket_ts: np.ndarray, cfg: FillConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch the configured kernel + terminal fallback; returns
    (filled values, method codes)."""
    if cfg.strategy == "locf":
        out, codes = gapfill.fill_locf(y, cfg.max_gap)
    elif cfg.strategy == "nearest":
        out, codes = gapfill.fill_nearest(y, cfg.max_gap)
    elif cfg.strategy == "bfill":
        out, codes = gapfill.fill_bfill(y, cfg.max_gap)
    elif cfg.strategy == "linear":
        out, codes = gapfill.fill_linear(y, cfg.max_gap)
    elif cfg.strategy == "spline":
        out, codes = gapfill.fill_spline(
            y, cfg.max_gap, window=cfg.spline_window,
            knot_radius=cfg.spline_knot_radius,
        )
    elif cfg.strategy == "mean":
        out, codes = gapfill.fill_mean(y)
    elif cfg.strategy == "seasonal":
        out, codes = gapfill.fill_seasonal(y, bucket_ts, cfg.max_gap)
    elif cfg.strategy == "model":
        out, codes = fill_model(
            y,
            bucket_ts,
            lags=cfg.lags,
            alpha=cfg.alpha,
            min_samples_train=cfg.min_samples_train,
            max_gap=cfg.max_gap,
            estimator=cfg.estimator,
            use_optimask=cfg.optimask,
        )
    else:  # None: pure rollup
        out, codes = y.astype(np.float64, copy=True), np.zeros(y.size, np.int8)
    if cfg.fallback == "simple":
        # reference _apply_fallback (multivariate/imputer.py:745-770): the
        # fallback mean is over the ORIGINAL observed cells only — kernel-
        # imputed values must not shift it (matches impute_matrix and the
        # distributed model path's rec["mus"])
        still = np.isnan(out)
        obs = y[~np.isnan(y)]
        if still.any() and obs.size:
            out[still] = obs.mean()
            codes = np.where(still, np.int8(gapfill.METHOD_CODES["mean"]), codes)
    return out, codes


def sorted_codes(source) -> tuple[np.ndarray, np.ndarray]:
    """Factorize a string column (Arrow or pandas) into int64 codes numbered
    in string order, plus the sorted distinct values (object)."""
    if isinstance(source, pa.ChunkedArray):
        # pa.array would convert a ChunkedArray one Python value at a time
        source = source.combine_chunks()
    enc = pa.array(source).dictionary_encode()
    uniques = enc.dictionary.to_numpy(zero_copy_only=False)
    rank = np.argsort(np.argsort(uniques, kind="stable"))
    return rank[enc.indices.to_numpy()].astype(np.int64), np.sort(uniques)


def segment_starts(*sorted_keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal key tuples in key-sorted arrays."""
    n = sorted_keys[0].size
    new = np.zeros(n, dtype=bool)
    if n:
        new[0] = True
        for k in sorted_keys:
            new[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(new)


def _column(partials, name: str) -> np.ndarray:
    return np.asarray(partials[name], dtype=np.int64)


def _tier_steps(tiers) -> dict[str, int]:
    # tiers may be names from TIER_STEPS or a {name: step_seconds} mapping
    # (custom steps, e.g. from infer_step)
    if isinstance(tiers, dict):
        return dict(tiers)
    return {t: TIER_STEPS[t] for t in tiers}


def fill_tiers(
    partials: pa.Table | pd.DataFrame,
    cfg: FillConfig,
    tiers=("1m", "1h", "1d"),
    retention: RetentionConfig | None = None,
) -> pa.Table:
    """Tier rows (``TIER_COLUMNS``) of every series in ``partials`` — an
    Arrow table or pandas frame of partial-aggregate rows, any number of
    sources, in any order. ``tiers`` is a tuple of ``TIER_STEPS`` names or
    a ``{name: step_seconds}`` mapping; ``retention`` drops each tier's
    rows outside its bounds after the fill. Unfilled cells are null, as
    ``pa.Table.from_pandas`` writes NaN; the label columns are taken from
    their distinct values, never built per row as Python strings."""
    steps = _tier_steps(tiers)
    names = list(steps)
    step_of = np.array([steps[t] for t in names], dtype=np.int64)
    n_tiers = len(names)
    code, uniques = sorted_codes(partials["source"])
    skey = _column(partials, "skey")
    ts = _column(partials, "bucket_ts")

    # 1. order by (skey, source, bucket_ts); combine partials per minute
    order = np.lexsort((ts, code, skey))
    skey, code, ts = skey[order], code[order], ts[order]
    series_starts = segment_starts(skey, code)
    starts = segment_starts(skey, code, ts)
    series = np.zeros(ts.size, dtype=np.int64)
    series[series_starts[1:]] = 1
    series = np.cumsum(series)[starts]
    obs_ts = ts[starts]
    obs = reduce_segments(
        starts, *(_column(partials, c)[order] for c in ("count", "sum", "min", "max"))
    )

    # 2. cascade each tier from the observed 1m rows
    tier_obs = []
    for step in step_of:
        if step == 60:
            tier_obs.append((series, obs_ts, *obs))
            continue
        tts = obs_ts - obs_ts % step
        st = segment_starts(series, tts)
        tier_obs.append((series[st], tts[st], *reduce_segments(st, *obs)))

    # 3. grid extent of every (series, tier) segment, laid out series-major
    n_series = series_starts.size
    lo = np.zeros((n_series, n_tiers), dtype=np.int64)
    length = np.zeros((n_series, n_tiers), dtype=np.int64)
    for t, (sid, tts, *_) in enumerate(tier_obs):
        first = segment_starts(sid)
        last = np.append(first[1:], sid.size)[: first.size] - 1
        lo[:, t] = tts[first]
        length[:, t] = (tts[last] - tts[first]) // step_of[t] + 1
    lo, seg_len = lo.ravel(), length.ravel()
    seg_off = np.cumsum(seg_len) - seg_len
    total = int(seg_len.sum())
    seg = np.repeat(np.arange(seg_len.size), seg_len)
    seg_tier = seg % n_tiers
    bucket_ts = lo[seg] + (np.arange(total) - seg_off[seg]) * step_of[seg_tier]

    count = np.zeros(total, dtype=np.int64)
    y = np.full(total, np.nan)
    mn = np.full(total, np.nan)
    mx = np.full(total, np.nan)
    for t, (sid, tts, c, s, lo_v, hi_v) in enumerate(tier_obs):
        flat = sid * n_tiers + t
        pos = seg_off[flat] + (tts - lo[flat]) // step_of[t]
        count[pos] = c
        y[pos] = s
        mn[pos] = lo_v
        mx[pos] = hi_v

    # 4. fill each series slice (a kernel may read its whole series); filled
    # cells take round(value), unfilled gaps are "none"
    value = np.empty(total, dtype=np.float64)
    codes = np.empty(total, dtype=np.int8)
    bounds = np.append(seg_off, total).tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        value[a:b], codes[a:b] = apply_fill(y[a:b], bucket_ts[a:b], cfg)
    filled = codes != 0
    rounded = np.round(value[filled])
    s = y.copy()
    s[filled] = rounded
    mn[filled] = rounded
    mx[filled] = rounded
    method = codes.astype(np.int64)
    method[(count == 0) & ~filled] = _UNFILLED

    def labels(values, index) -> pa.Array:
        return pa.array(values, pa.string()).take(pa.array(index, pa.int64()))

    def nullable(v: np.ndarray) -> pa.Array:
        return pa.array(v, from_pandas=True)  # NaN -> null

    out = pa.table({
        "source": labels(uniques, code[series_starts][seg // n_tiers]),
        "tier": labels(names, seg_tier),
        "bucket_ts": bucket_ts,
        "count": count,
        "sum": nullable(s),
        "min": nullable(mn),
        "max": nullable(mx),
        "value": nullable(value),
        "filled": filled,
        "fill_method": labels(_METHOD_LABELS, method),
    })
    if retention is None:
        return out
    keep = np.ones(total, dtype=bool)
    for t, name in enumerate(names):
        lo_b, hi_b = retention.bounds(name)
        if lo_b is not None:
            keep &= (seg_tier != t) | (bucket_ts >= lo_b)
        if hi_b is not None:
            keep &= (seg_tier != t) | (bucket_ts < hi_b)
    return out.filter(keep)


def make_fill_group_fn(
    cfg: FillConfig,
    tiers: tuple[str, ...] = ("1m", "1h", "1d"),
    retention: RetentionConfig | None = None,
    emit: str = "rows",
    batch_format: str = "pandas",
):
    """Build the group fn of the rollup's exchange: :func:`fill_tiers` on
    a run of whole ``skey`` groups, Arrow in and out
    (``batch_format="pyarrow"``, the form ``bucketed_map_groups`` calls),
    or returning pandas (``batch_format="pandas"``, for a caller that
    groups the partial rows itself). ``emit="rows"`` yields
    tier rows; ``emit="blobs"`` Gorilla-encodes each (source, tier) chunk
    in place (same shuffle, different sink shape)."""
    steps = _tier_steps(tiers)

    def fill_group(g):
        rows = fill_tiers(g, cfg, steps, retention)
        if emit == "blobs":
            from datafiller_ray.stages.compress import encode_tier_chunks

            blobs = encode_tier_chunks(rows.to_pandas())
            if batch_format == "pandas":
                return blobs
            return pa.Table.from_pandas(blobs, preserve_index=False)
        return rows.to_pandas() if batch_format == "pandas" else rows

    return fill_group
