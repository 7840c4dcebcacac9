"""Sliding-window aggregates over the 1m rollup tier.

The tier cascade (stages/fill.py) covers TUMBLING windows (1m/1h/1d
buckets); this module adds the SLIDING-window family — rolling
count/sum/min/max/mean over the last ``window`` observed buckets per
source, per-source top-k buckets, and a rolling-mean anomaly filter.

Physical plan: identical single-exchange shape as the flagship rollup —

    read (columns pruned) -> map_batches(partial agg)   [token payload never moves]
      -> bucketed_map_groups: hash exchange on skey     [THE shuffle — partial rows only]
      -> per (skey, source) series: combine -> vectorized window pass

Window semantics are ROWS BETWEEN (window-1) PRECEDING AND CURRENT ROW
over the OBSERVED (non-empty) 1m buckets of each source, ordered by
``bucket_ts`` — i.e. SQL window-function semantics over the rollup_1m
result, so the operator is exactly oracle-able with DuckDB ``OVER w``
clauses. Gap-aware variants (windows over the densified grid) compose by
running the gap-fill first and windowing its output.

All rolling arithmetic is int64-exact (sums/counts/extrema of int
``n_tok``); only the final mean divides, with the engine-wide
floor(x*1e6+0.5)/1e6 half-up rounding so DuckDB hashes match bit-for-bit.

Scale notes: the per-group pass is O(n) — rolling sum via one cumsum
diff (int64, exact), rolling extrema via the two-pass block prefix/suffix
trick (no O(n*window) stride). One shuffle total; no driver
materialization. The reference has no sliding-window operator; this is
part of the engine's continuous-aggregate surface (north_star).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

if TYPE_CHECKING:
    from ray.data import Dataset


def sliding_max(x: np.ndarray, w: int) -> np.ndarray:
    """Rolling max over ROWS BETWEEN (w-1) PRECEDING AND CURRENT ROW.

    Two-pass block algorithm (prefix max within w-sized blocks + suffix
    max within blocks; each window spans at most two blocks), O(n) and
    fully vectorized. Head windows (fewer than w rows available) are the
    running prefix max, matching SQL ROWS-window semantics.
    """
    n = x.size
    if n == 0:
        return x.copy()
    if w >= n:
        return np.maximum.accumulate(x)
    pad = (-n) % w
    if pad:
        # pad with the dtype's -inf so padding never wins a suffix max
        fillv = (
            np.iinfo(x.dtype).min
            if np.issubdtype(x.dtype, np.integer)
            else -np.inf
        )
        xp = np.concatenate([x, np.full(pad, fillv, dtype=x.dtype)])
    else:
        xp = x
    blocks = xp.reshape(-1, w)
    left = np.maximum.accumulate(blocks, axis=1).ravel()[:n]
    right = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    i = np.arange(n)
    lo = i - (w - 1)
    # full windows span blocks [lo // w] and [i // w]: suffix max from lo
    # to its block end, prefix max from block start to i. Head windows
    # (lo < 0) live entirely in block 0 where left IS the running max.
    out = np.where(lo <= 0, left, np.maximum(right[np.maximum(lo, 0)], left))
    return out


def sliding_min(x: np.ndarray, w: int) -> np.ndarray:
    return -sliding_max(-x, w)


def _round6_half_up(x: np.ndarray) -> np.ndarray:
    # fixed IEEE op sequence shared with the SQL oracles (events precedent)
    return np.floor(x * 1e6 + 0.5) / 1e6


def _string_typed_if_empty(df: pd.DataFrame, col: str = "source") -> pd.DataFrame:
    """A ZERO-ROW pandas frame's object column converts to Arrow type
    ``null``, which cannot unify with the string-typed blocks non-empty
    groups produce (strict schema concat raises). Filters that can drop a
    whole group (deltas on 1-bucket sources, anomaly filters) must pin the
    dtype explicitly on the empty frame."""
    if len(df) == 0:
        df = df.copy()
        df[col] = df[col].astype("string")
    return df


def _rolling_one_source(obs: pd.DataFrame, source: str, window: int) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    n = ts.size
    i = np.arange(n)
    lo = np.maximum(0, i - (window - 1))
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(s)])
    roll_sum = cs[i + 1] - cs[lo]  # int64-exact (no float cumsum drift)
    roll_cnt = i + 1 - lo
    roll_mean = _round6_half_up(
        roll_sum.astype(np.float64) / roll_cnt.astype(np.float64)
    )
    return pd.DataFrame(
        {
            "source": np.full(n, source, dtype=object),
            "bucket_ts": ts,
            "sum_tok": s,
            "roll_cnt": roll_cnt.astype(np.int64),
            "roll_sum_tok": roll_sum,
            "roll_min_tok": sliding_min(s, window),
            "roll_max_tok": sliding_max(s, window),
            "roll_mean_tok": roll_mean,
        }
    )


def _topk_one_source(obs: pd.DataFrame, source: str, k: int) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    # deterministic: sum_tok DESC, bucket_ts ASC (np.lexsort: last key primary)
    order = np.lexsort((ts, -s))[:k]
    return pd.DataFrame(
        {
            "source": np.full(order.size, source, dtype=object),
            "bucket_ts": ts[order],
            "sum_tok": s[order],
            "rnk": np.arange(1, order.size + 1, dtype=np.int64),
        }
    )


def _per_source_group_fn(one_source):
    """Wrap a per-source frame fn for the exchange. The group fn takes one
    or more whole ``skey`` groups of partial rows (an Arrow table from
    ``bucketed_map_groups``, or a pandas frame) and hands each (skey,
    source) series, combined to one row per minute, to ``one_source`` in
    (skey, source) order, so a hash collision stays two series (as in
    stages/fill.py ``fill_tiers``)."""
    from datafiller_ray.stages.fill import reduce_sorted, segment_starts, sorted_codes

    def group_fn(g) -> pd.DataFrame:
        code, uniques = sorted_codes(g["source"])
        skey = np.asarray(g["skey"], dtype=np.int64)
        ts = np.asarray(g["bucket_ts"], dtype=np.int64)
        order = np.lexsort((ts, code, skey))
        skey, code, ts = skey[order], code[order], ts[order]
        vals = [
            np.asarray(g[c], dtype=np.int64)[order]
            for c in ("count", "sum", "min", "max")
        ]
        bounds = np.append(segment_starts(skey, code), ts.size)
        return pd.concat(
            [
                one_source(
                    reduce_sorted(ts[a:b], *(v[a:b] for v in vals)), uniques[code[a]]
                )
                for a, b in zip(bounds[:-1], bounds[1:])
            ],
            ignore_index=True,
        )

    return group_fn


def _run_per_source(input_path, one_source, *, check_tokens: bool):
    """Run a per-source frame fn over the partial rows through the engine's
    hash exchange (rollup.bucketed_map_groups — the flagship rollup's key
    and exchange). The exchange derives its partition count from the
    cluster's CPUs and the partial bytes, so a reduce task reads about one
    target block on average, and it streams its output in blocks of that
    size; it writes nothing to disk and needs no shared storage. It runs
    when called, so every op built on this returns a Dataset whose blocks
    already sit in the object store, not a lazy one."""
    from datafiller_ray.pipelines.rollup import (
        bucketed_map_groups,
        partial_aggregates,
    )

    return bucketed_map_groups(
        partial_aggregates(input_path, check_tokens=check_tokens),
        _per_source_group_fn(one_source),
    )


def rolling_aggregates(
    input_path,
    *,
    window: int = 60,
    check_tokens: bool = False,
) -> "Dataset":
    """Rolling count/sum/min/max/mean of per-minute token sums over the
    last ``window`` observed 1m buckets of each source."""
    from datafiller_ray.config import EngineValueError

    if window < 1:
        raise EngineValueError(f"window must be >= 1, got {window}")
    return _run_per_source(
        input_path,
        lambda obs, src: _rolling_one_source(obs, src, window),
        check_tokens=check_tokens,
    )


def topk_buckets(input_path, *, k: int = 5, check_tokens: bool = False) -> "Dataset":
    """Per-source top-k busiest minutes (sum_tok DESC, bucket_ts ASC),
    with dense 1..k rank — deterministic under ties."""
    from datafiller_ray.config import EngineValueError

    if k < 1:
        raise EngineValueError(f"k must be >= 1, got {k}")
    return _run_per_source(
        input_path,
        lambda obs, src: _topk_one_source(obs, src, k),
        check_tokens=check_tokens,
    )


def _deltas_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    if ts.size < 2:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": np.empty(0, dtype=object),
                    "bucket_ts": np.empty(0, np.int64),
                    "sum_tok": np.empty(0, np.int64),
                    "delta_tok": np.empty(0, np.int64),
                    "dt_sec": np.empty(0, np.int64),
                    "rate_tok_s": np.empty(0, np.float64),
                }
            )
        )
    delta = s[1:] - s[:-1]
    dt = ts[1:] - ts[:-1]
    rate = _round6_half_up(delta.astype(np.float64) / dt.astype(np.float64))
    n = delta.size
    return pd.DataFrame(
        {
            "source": np.full(n, source, dtype=object),
            "bucket_ts": ts[1:],
            "sum_tok": s[1:],
            "delta_tok": delta,
            "dt_sec": dt,
            "rate_tok_s": rate,
        }
    )


def bucket_deltas(input_path, *, check_tokens: bool = False) -> "Dataset":
    """Per-source delta + rate of change between consecutive OBSERVED 1m
    buckets (LAG semantics; gaps show up as dt_sec > 60, the
    counter-rate-over-gap formulation). The first bucket of each source has
    no predecessor and is omitted. ``rate_tok_s`` divides once and rounds
    half-up at 6 decimals, matching the SQL oracle bit-for-bit."""
    return _run_per_source(input_path, _deltas_one_source, check_tokens=check_tokens)


def _profile_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    hod = (ts % 86400) // 3600
    cnt = np.bincount(hod, minlength=24).astype(np.int64)
    tot = np.zeros(24, dtype=np.int64)
    np.add.at(tot, hod, s)  # int64-exact per-hour totals
    keep = cnt > 0
    mean = _round6_half_up(
        tot[keep].astype(np.float64) / cnt[keep].astype(np.float64)
    )
    return pd.DataFrame(
        {
            "source": np.full(int(keep.sum()), source, dtype=object),
            "hod": np.flatnonzero(keep).astype(np.int64),
            "n_buckets": cnt[keep],
            "sum_tok": tot[keep],
            "mean_tok": mean,
        }
    )


def hourly_profile(input_path, *, check_tokens: bool = False) -> "Dataset":
    """Per-source hour-of-day seasonal profile: count/sum/mean of per-minute
    token sums grouped by UTC hour 0-23 over the source's whole span — the
    calendar-seasonality baseline a forecasting/anomaly layer subtracts.
    Distinct observed minutes must be combined per source BEFORE counting
    (the same minute's partials can arrive from several input blocks), so
    this rides the per-source exchange rather than a naive additive
    groupby; the per-source pass is a 24-bin bincount."""
    return _run_per_source(input_path, _profile_one_source, check_tokens=check_tokens)


def _ewma_one_source(obs: pd.DataFrame, source: str, alpha: float) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    # pandas' C ewm(adjust=False) computes the pinned scalar recursion
    # e_i = (1-alpha)*e_{i-1} + alpha*x_i bit-for-bit (verified vs a naive
    # float64 loop across alphas) — vectorized engine side, loop oracle side
    e = pd.Series(s.astype(np.float64)).ewm(alpha=alpha, adjust=False).mean()
    return pd.DataFrame(
        {
            "source": np.full(ts.size, source, dtype=object),
            "bucket_ts": ts,
            "sum_tok": s,
            "ewma_tok": _round6_half_up(e.to_numpy()),
        }
    )


def ewma_smooth(
    input_path,
    *,
    alpha: float = 0.25,
    check_tokens: bool = False,
) -> "Dataset":
    """Exponentially-weighted moving average of per-minute token sums over
    each source's OBSERVED 1m buckets (unadjusted recursion
    ``e_i = (1-alpha)*e_{i-1} + alpha*x_i``, seeded with the first value).
    The non-SQL-expressible scan is oracled by the vendored independent
    NumPy recursion (tests/oracle/fills.py)."""
    from datafiller_ray.config import EngineValueError

    if not (0.0 < alpha <= 1.0):
        raise EngineValueError(f"alpha must be in (0, 1], got {alpha}")
    return _run_per_source(
        input_path,
        lambda obs, src: _ewma_one_source(obs, src, alpha),
        check_tokens=check_tokens,
    )


def lttb_indices(x: np.ndarray, y: np.ndarray, n_out: int) -> np.ndarray:
    """Largest-Triangle-Three-Buckets point selection (Steinarsson 2013):
    keep first/last, split the interior into ``n_out - 2`` integer-bounded
    buckets (``lo_k = 1 + k*(n-2)//(n_out-2)`` — integer arithmetic, no
    float boundary ambiguity), and from each bucket keep the point forming
    the largest triangle with the previously kept point and the NEXT
    bucket's mean point. Ties keep the lowest index. The area expression
    ``abs((ax-cx)*(y-ay) - (ax-x)*(cy-ay))`` and the ``np.sum``-based
    bucket means are the pinned arithmetic contract shared with the oracle.
    """
    n = x.size
    if n_out >= n:
        return np.arange(n, dtype=np.int64)
    nb = n_out - 2
    lo = 1 + (np.arange(nb, dtype=np.int64) * (n - 2)) // nb
    hi = np.concatenate([lo[1:], np.array([n - 1], dtype=np.int64)])
    out = np.empty(n_out, dtype=np.int64)
    out[0] = 0
    out[-1] = n - 1
    a = 0
    for k in range(nb):
        if k + 1 < nb:
            nxt = slice(lo[k + 1], hi[k + 1])
        else:
            nxt = slice(n - 1, n)
        cx = float(np.sum(x[nxt])) / (nxt.stop - nxt.start)
        cy = float(np.sum(y[nxt])) / (nxt.stop - nxt.start)
        ax, ay = x[a], y[a]
        xs = x[lo[k] : hi[k]]
        ys = y[lo[k] : hi[k]]
        area = np.abs((ax - cx) * (ys - ay) - (ax - xs) * (cy - ay))
        a = int(lo[k] + np.argmax(area))
        out[k + 1] = a
    return out


def _lttb_one_source(obs: pd.DataFrame, source: str, n_out: int) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    idx = lttb_indices(
        ts.astype(np.float64), s.astype(np.float64), n_out
    )
    return pd.DataFrame(
        {
            "source": np.full(idx.size, source, dtype=object),
            "bucket_ts": ts[idx],
            "sum_tok": s[idx],
        }
    )


def lttb_downsample(
    input_path,
    *,
    n_out: int = 50,
    check_tokens: bool = False,
) -> "Dataset":
    """Visual downsample: per source, select ``n_out`` representative
    observed 1m buckets with LTTB — the downsample-for-plotting complement
    of the tier cascade (which is the aggregate downsample). Selection is
    deterministic; the oracle re-runs an independent per-point-loop LTTB
    under the same pinned arithmetic contract."""
    from datafiller_ray.config import EngineValueError

    if n_out < 3:
        raise EngineValueError(f"n_out must be >= 3, got {n_out}")
    return _run_per_source(
        input_path,
        lambda obs, src: _lttb_one_source(obs, src, n_out),
        check_tokens=check_tokens,
    )


def seasonal_anomalies(
    input_path,
    *,
    factor: float = 1.5,
    min_buckets: int = 5,
    check_tokens: bool = False,
) -> "Dataset":
    """Buckets whose token sum exceeds ``factor`` x their source's
    hour-of-day profile mean (hours with >= ``min_buckets`` observed
    buckets) — the seasonality-aware complement of the rolling-mean
    anomaly filter. Profile and flagging happen in ONE per-source pass
    (same single exchange); the comparison uses the unrounded
    one-division mean, bit-identical to the SQL oracle's tree."""

    def one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
        ts = obs["bucket_ts"].to_numpy(np.int64)
        s = obs["sum"].to_numpy(np.int64)
        hod = (ts % 86400) // 3600
        cnt = np.bincount(hod, minlength=24).astype(np.int64)
        tot = np.zeros(24, dtype=np.int64)
        np.add.at(tot, hod, s)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_raw = tot.astype(np.float64) / cnt.astype(np.float64)
        keep = (cnt[hod] >= min_buckets) & (
            s.astype(np.float64) > factor * mean_raw[hod]
        )
        n = int(keep.sum())
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": np.full(n, source, dtype=object),
                    "bucket_ts": ts[keep],
                    "hod": hod[keep],
                    "sum_tok": s[keep],
                    "hod_mean_tok": _round6_half_up(mean_raw[hod[keep]]),
                }
            )
        )

    return _run_per_source(input_path, one_source, check_tokens=check_tokens)


def rolling_anomalies(
    input_path,
    *,
    window: int = 60,
    factor: float = 2.0,
    min_window: int = 10,
    check_tokens: bool = False,
) -> "Dataset":
    """Buckets whose token sum exceeds ``factor`` x the rolling mean of the
    preceding ``window`` buckets (window populated with >= ``min_window``
    rows). The comparison uses the UNROUNDED mean computed with one
    division, bit-identical to the SQL oracle's expression tree."""
    from datafiller_ray.config import EngineValueError

    if window < 1:
        raise EngineValueError(f"window must be >= 1, got {window}")

    def one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
        out = _rolling_one_source(obs, source, window)
        mean_raw = out["roll_sum_tok"].to_numpy(np.float64) / out[
            "roll_cnt"
        ].to_numpy(np.float64)
        keep = (out["roll_cnt"].to_numpy() >= min_window) & (
            out["sum_tok"].to_numpy(np.float64) > factor * mean_raw
        )
        return _string_typed_if_empty(out.loc[keep].reset_index(drop=True))

    return _run_per_source(input_path, one_source, check_tokens=check_tokens)


def events_rolling_counts(
    events_ds, *, step: int = 60, window: int = 60
) -> "Dataset":
    """Rolling event-rate stats per event type: ROWS-window
    count/sum/min/max/mean of per-bucket EVENT COUNTS over the generic
    events rollup (pipelines/events.events_rollup). Counts are int64 so
    every rolling sum is exact; the float ``value`` column is deliberately
    not rolled (running float sums are summation-order-dependent and
    cannot hash-match a SQL window aggregate). Composition: the rollup's
    (ekey, chunk)-sharded exchange does the heavy lifting; this second
    pass groups the SMALL rolled series by type."""
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.events import events_rollup

    if window < 1:
        raise EngineValueError(f"window must be >= 1, got {window}")
    rolled = events_rollup(events_ds, step=step)

    def one_type(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("bucket_ts")
        obs = pd.DataFrame(
            {
                "bucket_ts": g["bucket_ts"].to_numpy(np.int64),
                "sum": g["n_events"].to_numpy(np.int64),
            }
        )
        out = _rolling_one_source(obs, g["event_type"].iloc[0], window)
        return out.rename(
            columns={
                "source": "event_type",
                "sum_tok": "n_events",
                "roll_sum_tok": "roll_n_events",
                "roll_min_tok": "roll_min_events",
                "roll_max_tok": "roll_max_events",
                "roll_mean_tok": "roll_mean_events",
            }
        )

    def per_type(g: pd.DataFrame) -> pd.DataFrame:
        if g["event_type"].nunique() == 1:
            return one_type(g)
        return pd.concat(
            [one_type(sub) for _, sub in g.groupby("event_type", sort=True)],
            ignore_index=True,
        )

    return rolled.groupby("event_type").map_groups(
        per_type, batch_format="pandas"
    )


def _cusum_one_source(
    obs: pd.DataFrame,
    source: str,
    *,
    drift: float,
    threshold: float,
    min_points: int,
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    y = obs["sum"].to_numpy(np.int64)
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": np.empty(0, dtype=object),
                "bucket_ts": np.empty(0, np.int64),
                "direction": np.empty(0, dtype=object),
                "cusum_stat": np.empty(0, np.float64),
            }
        ),
    )
    empty["direction"] = empty["direction"].astype("string")
    n = ts.size
    if n < min_points:
        return empty
    # moments as exact integers, then ONE pinned float op sequence shared
    # with the vendored oracle: mean = S/n; var = Q/n - mean*mean
    S = int(y.sum())
    Q = int(np.dot(y, y))
    mean = S / n
    var = Q / n - mean * mean
    if not var > 0.0:
        return empty  # constant series: no standardized scale
    std = math.sqrt(var)
    z = (y.astype(np.float64) - mean) / std
    rows = []
    for direction, d in (("up", z - drift), ("down", (-z) - drift)):
        # s_i = max(0, s_{i-1} + d_i) via the exact prefix identity
        # s_i = p_i - min(0, min_{j<=i} p_j): np.cumsum / .accumulate are
        # strictly sequential, so every float op matches the oracle's
        # scalar recursion bit-for-bit (no pairwise-summation reorder).
        p = np.cumsum(d)
        m = np.minimum.accumulate(np.minimum(p, 0.0))
        s = p - m
        keep = s > threshold
        k = int(keep.sum())
        if k:
            rows.append(
                pd.DataFrame(
                    {
                        "source": np.full(k, source, dtype=object),
                        "bucket_ts": ts[keep],
                        "direction": np.full(k, direction, dtype=object),
                        "cusum_stat": _round6_half_up(s[keep]),
                    }
                )
            )
    if not rows:
        return empty
    return pd.concat(rows, ignore_index=True)


def cusum_changepoints(
    input_path,
    *,
    drift: float = 0.5,
    threshold: float = 5.0,
    min_points: int = 20,
    check_tokens: bool = False,
) -> "Dataset":
    """Two-sided CUSUM level-shift detection over each source's observed 1m
    token sums.

    Values are standardized by the source's own population mean/std
    (computed from exact integer moments), then the classic recursion
    ``s_i = max(0, s_{i-1} + z_i - drift)`` runs in both directions and
    buckets where the statistic exceeds ``threshold`` are flagged with
    ``direction`` 'up' or 'down'. The recursion is evaluated through the
    exact prefix identity (cumsum minus running floored minimum) so the
    vectorized engine pass and the vendored scalar-loop oracle
    (tests/oracle/fills.py) execute the same float op sequence.

    Scale shape: identical to the rest of the window family — one shuffle
    of partial rows, O(n) per source, no driver materialization.
    """
    from datafiller_ray.config import EngineValueError

    if threshold <= 0:
        raise EngineValueError(f"threshold must be > 0, got {threshold}")
    if drift < 0:
        raise EngineValueError(f"drift must be >= 0, got {drift}")
    if min_points < 2:
        raise EngineValueError(f"min_points must be >= 2, got {min_points}")
    return _run_per_source(
        input_path,
        lambda obs, src: _cusum_one_source(
            obs, src, drift=drift, threshold=threshold, min_points=min_points
        ),
        check_tokens=check_tokens,
    )


# ---------------------------------------------------------------------------
# per-source gap statistics


def _gap_stats_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    n = ts.size
    span = (ts[-1] - ts[0]) // 60 + 1 if n else 0
    gaps = np.diff(ts) // 60 - 1
    gaps = gaps[gaps > 0]
    n_gaps = int(gaps.size)
    missing = int(gaps.sum()) if n_gaps else 0
    mean_gap = (
        float(_round6_half_up(np.float64(missing) / np.float64(n_gaps)))
        if n_gaps
        else 0.0
    )
    return pd.DataFrame(
        {
            "source": [source],
            "n_buckets": np.array([n], np.int64),
            "span_buckets": np.array([span], np.int64),
            "n_gaps": np.array([n_gaps], np.int64),
            "missing_total": np.array([missing], np.int64),
            "max_gap": np.array([int(gaps.max()) if n_gaps else 0], np.int64),
            "mean_gap": np.array([mean_gap], np.float64),
        }
    )


def gap_stats(input_path, *, check_tokens: bool = False):
    """Per-source missing-bucket profile over the observed 1m grid: number
    of maximal missing runs (gaps), total missing minutes, longest run and
    mean run length — the operational "how gappy is this stream" summary
    that sizes the gap-fill work (e.g. choosing ``max_gap``).

    Exact integer arithmetic throughout; the one division (mean gap) uses
    the engine-wide floor-half-up 6-decimal absorber. Same single-exchange
    shape as the rest of the window family.
    """
    return _run_per_source(input_path, _gap_stats_one_source, check_tokens=check_tokens)


def _completeness_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    minutes = obs["bucket_ts"].to_numpy(np.int64) // 60
    mn, mx = int(minutes[0]), int(minutes[-1])
    hr0, hr1 = mn // 60, mx // 60
    hours = np.arange(hr0, hr1 + 1, dtype=np.int64)
    observed = np.bincount(minutes // 60 - hr0, minlength=hours.size).astype(
        np.int64
    )
    # minutes of [hr*60, hr*60+60) inside the source's observed span
    # [mn, mx]: interval overlap, integer-exact (>= 1 on every grid hour)
    expected = np.minimum(hours * 60 + 60, mx + 1) - np.maximum(hours * 60, mn)
    completeness = _round6_half_up(
        observed.astype(np.float64) / expected.astype(np.float64)
    )
    return pd.DataFrame(
        {
            "source": source,
            "bucket_ts": hours * 3600,
            "observed_minutes": observed,
            "expected_minutes": expected,
            "completeness": completeness,
        }
    )


def completeness_report(input_path, *, check_tokens: bool = False):
    """Per-source x 1h data-completeness SLO report over the 1m grid: for
    every hour of each source's observed span (DENSE — hours with zero
    observed minutes appear with ``observed_minutes = 0``), the number of
    distinct observed minute buckets, the number of expected minutes (60,
    clipped to the span overlap on the first/last hour so partial edge
    hours are not penalized), and the ratio.

    The feed-monitoring counterpart of :func:`gap_stats`: gap_stats
    profiles the missing RUNS, this reports wall-clock completeness per
    calendar hour — the quantity an ingestion SLO alarms on. Integer
    counts throughout; the one division rounds through the engine-wide
    6-decimal floor-half-up absorber. Same single-exchange per-source
    shape as the rest of the window family (partial minute aggregates
    are what shuffles, never rows).
    """
    return _run_per_source(
        input_path,
        _completeness_one_source,
        check_tokens=check_tokens,
    )


# ---------------------------------------------------------------------------
# distribution drift (PSI) between each source's early and late halves


_PSI_BINS = 10


def _psi_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    v = obs["sum"].to_numpy(np.int64)
    half_ts = (ts[0] + ts[-1]) // 2
    early = ts <= half_ts
    lo = v.min()
    hi = v.max()
    # integer-exact equi-width binning over the source's own value range
    bins = np.minimum(_PSI_BINS - 1, ((v - lo) * _PSI_BINS) // (hi - lo + 1))
    ce = np.bincount(bins[early], minlength=_PSI_BINS).astype(np.int64)
    cl = np.bincount(bins[~early], minlength=_PSI_BINS).astype(np.int64)
    n_early = int(early.sum())
    n_late = int(v.size - n_early)
    # Laplace-smoothed bin probabilities: every bin contributes even when
    # one half never hits it (and p != q there whenever n_early != n_late)
    p = (ce + 1).astype(np.float64) / np.float64(n_early + _PSI_BINS)
    q = (cl + 1).astype(np.float64) / np.float64(n_late + _PSI_BINS)
    psi = float(_round6_half_up(np.sum((p - q) * np.log(p / q))))
    return pd.DataFrame(
        {
            "source": [source],
            "n_early": np.array([n_early], np.int64),
            "n_late": np.array([n_late], np.int64),
            "psi": np.array([psi], np.float64),
        }
    )


def psi_drift(input_path, *, check_tokens: bool = False):
    """Population-stability-index drift per source: the distribution of
    per-minute token sums in the source's EARLY half (bucket_ts at or
    below the midpoint of its observed span) vs its LATE half, over 10
    equi-width bins of the source's own value range, Laplace-smoothed.

    PSI = sum_b (p_b - q_b) * ln(p_b / q_b); the standard monitoring rule
    of thumb reads < 0.1 as stable and > 0.25 as shifted. Binning and
    counts are integer-exact; PSI is one pinned float expression, so the
    DuckDB oracle matches bit-for-bit after the engine-wide rounding.
    """
    return _run_per_source(input_path, _psi_one_source, check_tokens=check_tokens)


# ---------------------------------------------------------------------------
# per-source autocorrelation (row-lag ACF over observed buckets)


def _acf_one_source(
    obs: pd.DataFrame, source: str, lags: "tuple[int, ...]", min_pairs: int
) -> pd.DataFrame:
    s = obs["sum"].to_numpy(np.int64)
    out_lag, out_n, out_acf = [], [], []
    for lag in lags:
        n = s.size - lag
        if n < min_pairs:
            continue
        x = s[:-lag]
        y = s[lag:]
        # exact integer pair moments (source_correlation precedent): int64
        # dot products promoted to unbounded Python ints BEFORE the cross
        # terms, so n*sxy etc. can never overflow at any scale
        sx, sy = int(x.sum()), int(y.sum())
        sxy, sxx, syy = int(np.dot(x, y)), int(np.dot(x, x)), int(np.dot(y, y))
        num = n * sxy - sx * sy
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        if d1 <= 0 or d2 <= 0:
            continue  # zero variance on either slice: undefined
        out_lag.append(lag)
        out_n.append(n)
        out_acf.append(float(num) / math.sqrt(float(d1) * float(d2)))
    out = pd.DataFrame(
        {
            "source": np.full(len(out_lag), source, dtype=object),
            "lag": np.asarray(out_lag, dtype=np.int64),
            "n_pairs": np.asarray(out_n, dtype=np.int64),
            "acf": _round6_half_up(np.asarray(out_acf, dtype=np.float64)),
        }
    )
    return _string_typed_if_empty(out)


def acf(
    input_path,
    *,
    lags: "tuple[int, ...]" = (1, 2, 3),
    min_pairs: int = 3,
    check_tokens: bool = False,
):
    """Per-source autocorrelation of the observed 1m token sums at the
    given ROW lags (the series is the observed-bucket sequence in time
    order; a lag of 1 pairs each bucket with the previous OBSERVED one,
    the LAG() window semantics a SQL oracle can reproduce exactly).

    Pearson correlation of the series against its lagged self on the
    overlapping slice — the same exact-integer five-moment formulation as
    ``source_correlation``, ending in ONE pinned float expression
    ``num / sqrt(d1 * d2)`` plus the engine-wide 6-decimal floor-half-up.
    Lags with fewer than ``min_pairs`` pairs or zero variance on either
    slice are omitted. Single per-source exchange like the whole family.
    """
    from datafiller_ray.config import EngineValueError

    lags_t = tuple(dict.fromkeys(int(l) for l in lags))
    if not lags_t or any(l < 1 for l in lags_t):
        raise EngineValueError(f"lags must be unique positive ints, got {lags!r}")
    if min_pairs < 2:
        raise EngineValueError(f"min_pairs must be >= 2, got {min_pairs}")
    return _run_per_source(
        input_path,
        lambda obs, src: _acf_one_source(obs, src, lags_t, min_pairs),
        check_tokens=check_tokens,
    )


# ---------------------------------------------------------------------------
# ACF-derived diagnostics: Ljung-Box portmanteau, Durbin-Levinson PACF


def _acf_rounded(s: np.ndarray, lags: "tuple[int, ...]", min_pairs: int):
    """Rounded row-lag autocorrelations keyed by lag — THE same pinned
    five-moment expression as :func:`_acf_one_source` (exact integer
    moments, one ``num / sqrt(d1 * d2)`` float, round6), shared so the
    derived statistics (Ljung-Box, PACF) consume exactly the values the
    ``acf_1m`` oracle already hash-matches. Lags with too few pairs or a
    zero-variance slice are absent from the result."""
    out: "dict[int, float]" = {}
    for lag in lags:
        n = s.size - lag
        if n < min_pairs:
            continue
        x = s[:-lag]
        y = s[lag:]
        sx, sy = int(x.sum()), int(y.sum())
        sxy, sxx, syy = int(np.dot(x, y)), int(np.dot(x, x)), int(np.dot(y, y))
        num = n * sxy - sx * sy
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        if d1 <= 0 or d2 <= 0:
            continue
        r = float(num) / math.sqrt(float(d1) * float(d2))
        out[lag] = float(_round6_half_up(np.array([r]))[0])
    return out


def _ljung_box_one_source(
    obs: pd.DataFrame, source: str, lags: "tuple[int, ...]", min_pairs: int
) -> pd.DataFrame:
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_buckets": pd.Series([], dtype=np.int64),
                "df": pd.Series([], dtype=np.int64),
                "q_stat": pd.Series([], dtype=np.float64),
            }
        )
    )
    s = obs["sum"].to_numpy(np.int64)
    n = int(s.size)
    r = _acf_rounded(s, lags, min_pairs)
    if len(r) != len(lags):  # every lag must be defined, else omit
        return empty
    # ascending-lag left-associated accumulation: ((t1 + t2) + t3) ...
    acc = 0.0
    for lag in sorted(lags):
        acc = acc + (r[lag] * r[lag]) / float(n - lag)
    q = float(n * (n + 2)) * acc
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_buckets": np.array([n], dtype=np.int64),
            "df": np.array([len(lags)], dtype=np.int64),
            "q_stat": _round6_half_up(np.array([q])),
        }
    )


def ljung_box(
    input_path,
    *,
    lags: "tuple[int, ...]" = (1, 2, 3),
    min_pairs: int = 3,
    check_tokens: bool = False,
):
    """Per-source Ljung-Box portmanteau statistic over the observed 1m
    token sums: Q = n(n+2) * sum_k r_k^2 / (n-k) with the same row-lag
    ACF values (and the same pinned five-moment expression) as
    ``acf_1m`` — large Q rejects "white noise" for the source. The r_k
    enter ALREADY rounded (round6) so both oracle sides square identical
    doubles; the k terms accumulate in ascending lag, left-associated;
    n(n+2) is an exact integer product cast once. Sources missing any
    requested lag (too short, or zero variance on a slice) are omitted —
    the statistic is meaningless on a partial lag set."""
    from datafiller_ray.config import EngineValueError

    lags_t = tuple(dict.fromkeys(int(l) for l in lags))
    if not lags_t or any(l < 1 for l in lags_t):
        raise EngineValueError(f"lags must be unique positive ints, got {lags!r}")
    if min_pairs < 2:
        raise EngineValueError(f"min_pairs must be >= 2, got {min_pairs}")
    return _run_per_source(
        input_path,
        lambda obs, src: _ljung_box_one_source(obs, src, lags_t, min_pairs),
        check_tokens=check_tokens,
    )


def _pacf_one_source(
    obs: pd.DataFrame, source: str, min_pairs: int
) -> pd.DataFrame:
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "lag": pd.Series([], dtype=np.int64),
                "n_buckets": pd.Series([], dtype=np.int64),
                "pacf": pd.Series([], dtype=np.float64),
            }
        )
    )
    s = obs["sum"].to_numpy(np.int64)
    n = int(s.size)
    r = _acf_rounded(s, (1, 2, 3), min_pairs)
    if len(r) != 3:
        return empty
    r1, r2, r3 = r[1], r[2], r[3]
    # Durbin-Levinson unrolled to depth 3; every chain left-associated so
    # the SQL oracle reproduces the identical IEEE sequence
    d2 = 1.0 - r1 * r1
    if d2 == 0.0:
        return empty
    phi11 = r1
    phi22 = (r2 - r1 * r1) / d2
    phi21 = r1 - phi22 * r1
    d3 = (1.0 - phi21 * r1) - phi22 * r2
    if d3 == 0.0:
        return empty
    phi33 = ((r3 - phi21 * r2) - phi22 * r1) / d3
    return pd.DataFrame(
        {
            "source": np.full(3, source, dtype=object),
            "lag": np.array([1, 2, 3], dtype=np.int64),
            "n_buckets": np.full(3, n, dtype=np.int64),
            "pacf": _round6_half_up(np.array([phi11, phi22, phi33])),
        }
    )


def pacf(
    input_path,
    *,
    min_pairs: int = 3,
    check_tokens: bool = False,
):
    """Per-source partial autocorrelation at lags 1..3 of the observed 1m
    token sums, by the Durbin-Levinson recursion unrolled to closed form
    over the SAME rounded row-lag ACF values as ``acf_1m``:

        phi_11 = r1
        phi_22 = (r2 - r1^2) / (1 - r1^2)
        phi_33 = (r3 - phi_21 r2 - phi_22 r1) / (1 - phi_21 r1 - phi_22 r2)

    with phi_21 = r1 - phi_22 r1. The inputs are the round6-rounded
    correlations, every chain is left-associated, and the only new floats
    are these closed-form fractions — the DuckDB oracle mirrors them
    token-for-token. Sources missing any of r1..r3 (short series, zero
    variance on a lag slice) or hitting a zero denominator are omitted."""
    from datafiller_ray.config import EngineValueError

    if min_pairs < 2:
        raise EngineValueError(f"min_pairs must be >= 2, got {min_pairs}")
    return _run_per_source(
        input_path,
        lambda obs, src: _pacf_one_source(obs, src, min_pairs),
        check_tokens=check_tokens,
    )


# ---------------------------------------------------------------------------
# robust (median/MAD) per-source outliers


def _quantile_pos(n: int, q: float) -> "tuple[int, int, float]":
    """THE pinned quantile_cont position rule — pos = q * (n - 1), linear
    between the bracketing order statistics. Single source of truth: every
    quantile expression in this module (median, MAD, rolling median,
    winsorize bands) must derive lo/hi/frac from here so the IEEE op order
    can never drift between call sites (the oracles hash-match only
    because this exact sequence is mirrored in SQL)."""
    pos = q * (n - 1)
    lo = int(np.floor(pos))
    hi = min(lo + 1, n - 1)
    return lo, hi, pos - lo


def _interp_median(x_sorted: np.ndarray) -> float:
    """SQL quantile_cont(0.5) via the shared :func:`_quantile_pos` rule —
    integer-valued inputs yield bit-exact medians on both oracle sides."""
    lo, hi, frac = _quantile_pos(x_sorted.size, 0.5)
    return float(x_sorted[lo] + (x_sorted[hi] - x_sorted[lo]) * frac)


def _mad_one_source(obs: pd.DataFrame, source: str, c: float) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    v = obs["sum"].to_numpy(np.int64).astype(np.float64)
    med = _interp_median(np.sort(v))
    dev = np.abs(v - med)
    mad = _interp_median(np.sort(dev))
    if mad > 0.0:
        flag = dev > c * mad  # identical IEEE comparison tree as the oracle
    else:
        flag = np.zeros(v.size, dtype=bool)  # degenerate spread: no outliers
    out = pd.DataFrame(
        {
            "source": np.full(int(flag.sum()), source, dtype=object),
            "bucket_ts": ts[flag],
            "sum_tok": obs["sum"].to_numpy(np.int64)[flag],
            "med_tok": np.full(int(flag.sum()), _round6_half_up(np.float64(med))),
            "mad_tok": np.full(int(flag.sum()), _round6_half_up(np.float64(mad))),
        }
    )
    return _string_typed_if_empty(out)


def mad_outliers(
    input_path,
    *,
    c: float = 3.0,
    check_tokens: bool = False,
):
    """Robust per-source outlier detection: flag observed 1m buckets where
    ``|sum_tok - median| > c * MAD`` (median absolute deviation), the
    scale-free complement of the rolling-mean anomaly filter — immune to
    the very outliers it hunts, unlike mean/stddev rules.

    Median and MAD use the SQL ``quantile_cont`` interpolation rule; on
    integer-valued data every intermediate (median, deviations, MAD,
    ``c * MAD``) is IEEE-exact, so the flag comparison cannot straddle a
    rounding boundary between engine and oracle. Sources whose MAD is 0
    (over half the buckets share one value) flag nothing by definition.
    """
    from datafiller_ray.config import EngineValueError

    if not (c > 0.0) or not math.isfinite(c):
        raise EngineValueError(f"c must be a positive finite float, got {c}")
    return _run_per_source(
        input_path,
        lambda obs, src: _mad_one_source(obs, src, c),
        check_tokens=check_tokens,
    )


# ---------------------------------------------------------------------------
# rolling median (order-statistic sliding window)


def _rolling_median_one_source(
    obs: pd.DataFrame, source: str, window: int
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    n = s.size
    med = np.empty(n, dtype=np.float64)
    head = min(window - 1, n)
    for i in range(head):  # at most window-1 tiny prefix sorts per source
        med[i] = _interp_median(np.sort(s[: i + 1]).astype(np.float64))
    if n >= window:
        from numpy.lib.stride_tricks import sliding_window_view

        w = np.sort(sliding_window_view(s, window), axis=1).astype(np.float64)
        lo, hi, frac = _quantile_pos(window, 0.5)
        med[window - 1 :] = w[:, lo] + (w[:, hi] - w[:, lo]) * frac
    return pd.DataFrame(
        {
            "source": np.full(n, source, dtype=object),
            "bucket_ts": ts,
            "sum_tok": s,
            "roll_med_tok": med,
        }
    )


def rolling_median(
    input_path,
    *,
    window: int = 7,
    check_tokens: bool = False,
):
    """Rolling MEDIAN of per-minute token sums over the last ``window``
    observed 1m buckets per source — the order-statistic sibling of
    ``rolling_aggregates`` (cumsum tricks cannot produce a median; full
    windows are one vectorized ``sliding_window_view`` sort, head windows
    ROWS-semantics prefixes like the SQL ``median() OVER`` oracle).

    On integer-valued sums every median is IEEE-exact (an integer or a
    .5 midpoint below 2^52), so no rounding absorber is needed — the
    engine emits the raw double and still hashes identically to DuckDB's
    ``quantile_cont(0.5)`` window.
    """
    from datafiller_ray.config import EngineValueError

    if window < 1:
        raise EngineValueError(f"window must be >= 1, got {window}")
    return _run_per_source(
        input_path,
        lambda obs, src: _rolling_median_one_source(obs, src, window),
        check_tokens=check_tokens,
    )


# ---------------------------------------------------------------------------
# per-source OLS trend


def _trend_one_source(obs: pd.DataFrame, source: str, step: int) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    y = obs["sum"].to_numpy(np.int64)
    n = int(ts.size)
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_obs": pd.Series([], dtype=np.int64),
                "slope_tok": pd.Series([], dtype=np.float64),
                "intercept_tok": pd.Series([], dtype=np.float64),
                "r2": pd.Series([], dtype=np.float64),
            }
        )
    )
    if n < 2:
        return empty
    x = (ts - ts[0]) // step  # grid index: small ints, gaps preserved
    # exact integer moments, promoted to unbounded Python ints before the
    # cross terms (acf/source_correlation precedent)
    sx, sy = int(x.sum()), int(y.sum())
    sxx, sxy = int(np.dot(x, x)), int(np.dot(x, y))
    syy = int(np.dot(y, y))
    num = n * sxy - sx * sy
    d1 = n * sxx - sx * sx
    d2 = n * syy - sy * sy
    if d1 <= 0:  # single distinct x: slope undefined
        return empty
    slope = float(num) / float(d1)
    intercept = float(sy * sxx - sx * sxy) / float(d1)
    # pinned op order shared with the oracle: cast-then-multiply
    r2 = (float(num) * float(num)) / (float(d1) * float(d2)) if d2 > 0 else 0.0
    return pd.DataFrame(
        {
            "source": np.asarray([source], dtype=object),
            "n_obs": np.asarray([n], dtype=np.int64),
            "slope_tok": _round6_half_up(np.float64(slope)),
            "intercept_tok": _round6_half_up(np.float64(intercept)),
            "r2": _round6_half_up(np.float64(r2)),
        }
    )


def source_trend(
    input_path,
    *,
    step: int = 60,
    check_tokens: bool = False,
):
    """Per-source OLS trend of the observed 1m token sums against the grid
    index ``(bucket_ts - first_ts) / step``: slope (tokens per bucket),
    intercept, and R^2 — the drift summary that tells a corpus operator
    which sources are growing or decaying.

    All five moments (n, sum x, sum y, sum x^2, sum xy, sum y^2) are exact
    integers; slope and intercept are single divisions of exact integers
    (``num/d1`` and ``(sy*sxx - sx*sxy)/d1``) and R^2 is the pinned
    ``num^2/(d1*d2)`` cast-then-multiply expression, each with the
    engine-wide 6-decimal floor-half-up — so a DuckDB HUGEINT oracle
    reproduces every bit. Sources with one observation or one distinct x
    are omitted; zero-variance sources report r2 = 0.
    """
    from datafiller_ray.config import EngineValueError

    if step < 1:
        raise EngineValueError(f"step must be >= 1, got {step}")
    return _run_per_source(
        input_path,
        lambda obs, src: _trend_one_source(obs, src, step),
        check_tokens=check_tokens,
    )


def _adf_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_pairs": pd.Series([], dtype=np.int64),
                "gamma_hat": pd.Series([], dtype=np.float64),
                "adf_t": pd.Series([], dtype=np.float64),
            }
        )
    )
    s = obs["sum"].to_numpy(np.int64)
    if s.size < 4:  # need n_pairs >= 3
        return empty
    x = s[:-1]
    dy = s[1:] - s[:-1]
    n = int(x.size)
    sx, sd = int(x.sum()), int(dy.sum())
    sxx, sxd = int(np.dot(x, x)), int(np.dot(x, dy))
    sdd = int(np.dot(dy, dy))
    num = n * sxd - sx * sd
    d1 = n * sxx - sx * sx
    d2 = n * sdd - sd * sd
    if d1 <= 0:
        return empty
    # residual cross term in DOUBLES from the exact integer moments (the
    # exact product d2*d1 can exceed HUGEINT at corpus scale, so both
    # oracle sides pin the identical cast-then-multiply expression)
    rrd = float(d2) * float(d1) - float(num) * float(num)
    if not rrd > 0.0:
        return empty
    gamma = float(num) / float(d1)
    t = float(num) * math.sqrt(float(n - 2)) / math.sqrt(rrd)
    return pd.DataFrame(
        {
            "source": np.asarray([source], dtype=object),
            "n_pairs": np.asarray([n], dtype=np.int64),
            "gamma_hat": _round6_half_up(np.float64(gamma)),
            "adf_t": _round6_half_up(np.float64(t)),
        }
    )


def _haar_one_source(
    obs: pd.DataFrame, source: str, levels: int
) -> pd.DataFrame:
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "level": pd.Series([], dtype=np.int64),
                "n_coefs": pd.Series([], dtype=np.int64),
                "energy": pd.Series([], dtype=np.float64),
            }
        )
    )
    s = obs["sum"].to_numpy(np.int64)
    if s.size < (1 << levels):
        return empty
    m = 1 << int(math.floor(math.log2(s.size)))
    # integer numerators with implicit denominator 2^k after level k: the
    # unnormalized Haar ladder stays EXACT in int64-promoted Python ints,
    # so energy_k = sum(d_num^2) / 4^k is one pinned division per level
    a = s[:m].astype(object)  # unbounded ints: no overflow at any level
    rows = []
    for k in range(1, levels + 1):
        d_num = a[0::2] - a[1::2]
        a = a[0::2] + a[1::2]
        e_num = int(sum(int(d) * int(d) for d in d_num))
        rows.append(
            (
                source,
                k,
                int(d_num.size),
                float(e_num) / float(4**k),
            )
        )
    out = pd.DataFrame(rows, columns=["source", "level", "n_coefs", "energy"])
    out["level"] = out["level"].astype(np.int64)
    out["n_coefs"] = out["n_coefs"].astype(np.int64)
    out["energy"] = _round6_half_up(out["energy"].to_numpy(np.float64))
    return out


def haar_energy(
    input_path,
    *,
    levels: int = 3,
    check_tokens: bool = False,
):
    """Per-source Haar wavelet energy decomposition of the observed 1m
    token sums: the series (truncated to its largest power-of-two prefix)
    runs the unnormalized Haar ladder — level-k details are
    ``(pairwise differences) / 2^k`` — and reports the detail ENERGY per
    level, the multi-resolution variance split that separates minute-scale
    jitter (level 1) from hour-scale swings (deeper levels).

    Exactness: the unnormalized ladder keeps integer numerators with
    implicit denominator ``2^k`` (promoted to unbounded Python ints, no
    overflow at corpus scale), so each level's energy is the single
    pinned division ``sum(d_num^2) / 4^k`` + round6 — the vendored
    scalar-loop oracle (tests/oracle/fills.py) reproduces every bit.
    Sources shorter than ``2^levels`` observations are omitted."""
    from datafiller_ray.config import EngineValueError

    if not 1 <= levels <= 16:
        raise EngineValueError(f"levels must be in [1, 16], got {levels}")
    return _run_per_source(
        input_path,
        lambda obs, src: _haar_one_source(obs, src, levels),
        check_tokens=check_tokens,
    )


def adf_stat(input_path, *, check_tokens: bool = False):
    """Per-source Dickey-Fuller unit-root statistic over the observed 1m
    token sums: the t-statistic of gamma in ``diff(y)_t = alpha +
    gamma * y_{t-1}`` (drift, no lagged-difference terms — the DF(0)
    member of the ADF family; observed-bucket LAG pairing like ``acf_1m``
    so a SQL window oracle reproduces the series exactly). gamma near 0
    (t above the critical value) means the token-rate series behaves like
    a random walk; strongly negative t means it mean-reverts — the
    stationarity screen that tells a corpus operator which
    ``source_trend`` drifts are real.

    All six pair moments are exact integers; the regression reduces to
    ``gamma = num/d1`` and ``t = num * sqrt(n-2) / sqrt(d2*d1 - num^2)``
    with the residual cross term evaluated in DOUBLES from the exact
    integers (the exact product would exceed HUGEINT at corpus scale) —
    every float op pinned and mirrored token-for-token in the oracle,
    round6 on both outputs. Sources with fewer than 3 pairs, constant
    levels, or a zero-residual fit are omitted."""
    return _run_per_source(
        input_path,
        lambda obs, src: _adf_one_source(obs, src),
        check_tokens=check_tokens,
    )


# ---------------------------------------------------------------------------
# winsorization at binary-fraction quantiles


def _interp_quantile(x_sorted: np.ndarray, q: float) -> float:
    """SQL ``quantile_cont(q)`` via the shared :func:`_quantile_pos` rule —
    the generalization of :func:`_interp_median`."""
    lo, hi, frac = _quantile_pos(x_sorted.size, q)
    return float(x_sorted[lo] + (x_sorted[hi] - x_sorted[lo]) * frac)


def _winsorize_one_source(
    obs: pd.DataFrame, source: str, q_lo: float, q_hi: float
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    v = obs["sum"].to_numpy(np.int64).astype(np.float64)
    xs = np.sort(v)
    lo = _interp_quantile(xs, q_lo)
    hi = _interp_quantile(xs, q_hi)
    return pd.DataFrame(
        {
            "source": np.full(v.size, source, dtype=object),
            "bucket_ts": ts,
            "sum_tok": obs["sum"].to_numpy(np.int64),
            "lo_tok": np.full(v.size, lo),
            "hi_tok": np.full(v.size, hi),
            "wins_tok": np.minimum(np.maximum(v, lo), hi),
        }
    )


def winsorize(
    input_path,
    *,
    q_lo: float = 0.25,
    q_hi: float = 0.75,
    check_tokens: bool = False,
):
    """Per-source winsorization of the observed 1m token sums: clip each
    bucket's value into the ``[quantile(q_lo), quantile(q_hi)]`` band — the
    outlier-robust preprocessing step before trend/correlation passes.

    Exactness contract: ``q_lo``/``q_hi`` must be BINARY fractions
    (k/2^m, e.g. 0.25, 0.5, 0.75, 0.375) so ``q*(n-1)`` and the
    interpolation weights are IEEE-exact in ANY op order — then on integer
    data the band edges and every clip comparison are bit-identical to
    DuckDB's ``quantile_cont`` regardless of how either engine orders the
    float ops (non-binary fractions like 0.05 drift ~1e-13 between
    engines, which a comparison can straddle; source_quantiles handles
    those with a rounding absorber instead). Enforced at validation.
    """
    from datafiller_ray.config import EngineValueError

    for q in (q_lo, q_hi):
        if not (0.0 <= q <= 1.0) or (q * 4096.0) != float(int(q * 4096.0)):
            raise EngineValueError(
                f"quantile {q} must be a binary fraction k/4096 in [0, 1] "
                "(exactness contract; see winsorize docstring)"
            )
    if q_lo > q_hi:
        raise EngineValueError(f"q_lo {q_lo} > q_hi {q_hi}")
    return _run_per_source(
        input_path,
        lambda obs, src: _winsorize_one_source(obs, src, q_lo, q_hi),
        check_tokens=check_tokens,
    )


# ---------------------------------------------------------------------------
# per-source ntile bucketing


def _ntile_one_source(obs: pd.DataFrame, source: str, n_tiles: int) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    v = obs["sum"].to_numpy(np.int64)
    n = v.size
    # SQL NTILE order: value asc, bucket_ts asc (deterministic ties)
    order = np.lexsort((ts, v))
    # first (n % k) tiles get the extra row, exactly NTILE's rule
    base, extra = divmod(n, n_tiles)
    sizes = np.full(n_tiles, base, dtype=np.int64)
    sizes[:extra] += 1
    tile_of_rank = np.repeat(np.arange(1, n_tiles + 1, dtype=np.int64), sizes)
    tiles = np.empty(n, dtype=np.int64)
    tiles[order] = tile_of_rank
    return pd.DataFrame(
        {
            "source": np.full(n, source, dtype=object),
            "bucket_ts": ts,
            "sum_tok": v,
            "tile": tiles,
        }
    )


def ntile_volume(
    input_path,
    *,
    n_tiles: int = 4,
    check_tokens: bool = False,
):
    """Per-source NTILE bucketing of observed 1m buckets by token volume:
    rank each bucket within its source (value asc, bucket_ts asc for
    deterministic ties) and split the ranking into ``n_tiles`` groups with
    SQL NTILE's fill rule (the first ``n % n_tiles`` tiles take the extra
    row) — the load-quartile label used for tier placement decisions.
    Integer-exact end to end."""
    from datafiller_ray.config import EngineValueError

    if n_tiles < 1:
        raise EngineValueError(f"n_tiles must be >= 1, got {n_tiles}")
    return _run_per_source(
        input_path,
        lambda obs, src: _ntile_one_source(obs, src, n_tiles),
        check_tokens=check_tokens,
    )


# ---------------------------------------------------------------------------
# Brown double-exponential (Holt-equivalent) smoothing


def _holt_one_source(obs: pd.DataFrame, source: str, alpha: float) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    y = s.astype(np.float64)
    # Brown's linear (double) exponential smoothing: the trend-aware
    # sibling of ewma_smooth. Two chained unadjusted EWMA recursions
    # (pandas' C ewm kernel computes the pinned scalar recursion
    # bit-for-bit, the ewma_smooth precedent), then the classic
    # level/trend/one-step-forecast identities in a fixed op order the
    # vendored scalar oracle mirrors exactly.
    s1 = pd.Series(y).ewm(alpha=alpha, adjust=False).mean().to_numpy()
    s2 = pd.Series(s1).ewm(alpha=alpha, adjust=False).mean().to_numpy()
    coef = alpha / (1.0 - alpha)
    level = 2.0 * s1 - s2
    trend = coef * (s1 - s2)
    forecast = level + trend
    return pd.DataFrame(
        {
            "source": np.full(ts.size, source, dtype=object),
            "bucket_ts": ts,
            "sum_tok": s,
            "level_tok": _round6_half_up(level),
            "trend_tok": _round6_half_up(trend),
            "forecast_tok": _round6_half_up(forecast),
        }
    )


def holt_smooth(
    input_path,
    *,
    alpha: float = 0.25,
    check_tokens: bool = False,
) -> "Dataset":
    """Brown double-exponential (linear/Holt-equivalent) smoothing of
    per-minute token sums over each source's OBSERVED 1m buckets:
    ``s1 = ewm(y)``, ``s2 = ewm(s1)``, level ``2*s1 - s2``, trend
    ``alpha/(1-alpha) * (s1 - s2)``, one-step forecast ``level + trend``.
    Trend-aware smoothing for drifting throughput series, where plain EWMA
    lags a ramp. alpha must be in (0, 1) — the s2 recursion degenerates at
    alpha == 1 (coef divides by zero). Non-SQL scan, oracled by the
    vendored scalar double recursion (tests/oracle/fills.py)."""
    from datafiller_ray.config import EngineValueError

    if not (0.0 < alpha < 1.0):
        raise EngineValueError(f"alpha must be in (0, 1), got {alpha}")
    return _run_per_source(
        input_path,
        lambda obs, src: _holt_one_source(obs, src, alpha),
        check_tokens=check_tokens,
    )


# ---------------------------------------------------------------------------
# STL-lite seasonal decomposition (integer micro-units end to end)


def _stl_one_source(obs: pd.DataFrame, source: str, half: int) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    n = s.size
    i = np.arange(n)
    lo = np.maximum(0, i - half)
    hi = np.minimum(n - 1, i + half)
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(s)])
    wsum = cs[hi + 1] - cs[lo]
    wcnt = hi + 1 - lo
    # trend in integer micro-units via pure-integer half-up division
    # (non-negative sums): floor((2*w*1e6 + c) / (2*c)). Bounds: window
    # sums stay < 2^63 / 2e6 ~ 4.6e12 — enforced below so the int64 math
    # can never wrap silently at scale.
    if wsum.size and int(wsum.max()) > 4_600_000_000_000:
        from datafiller_ray.config import EngineValueError

        raise EngineValueError(
            "stl_decompose window sum exceeds the int64-exact micro-unit "
            "range; reduce the trend window or pre-scale the series"
        )
    trend_u = (2 * wsum * 1_000_000 + wcnt) // (2 * wcnt)
    detr_u = s * 1_000_000 - trend_u  # int64-exact, may be negative
    # hour-of-day seasonal component: mean of detrended micro-units per
    # (source, hour) bin — 24-entry bincount, one pinned double division
    # with the floor(x + 0.5) half-up absorber (negative-safe: identical
    # expression in the SQL oracle)
    hour = (ts // 3600) % 24
    bin_sum = np.bincount(hour, weights=detr_u.astype(np.float64), minlength=24)
    bin_cnt = np.bincount(hour, minlength=24)
    seas_u = np.zeros(24, dtype=np.int64)
    nz = bin_cnt > 0
    seas_u[nz] = np.floor(bin_sum[nz] / bin_cnt[nz] + 0.5).astype(np.int64)
    seasonal_u = seas_u[hour]
    resid_u = detr_u - seasonal_u
    return pd.DataFrame(
        {
            "source": np.full(n, source, dtype=object),
            "bucket_ts": ts,
            "sum_tok": s,
            "trend_u": trend_u,
            "seasonal_u": seasonal_u,
            "resid_u": resid_u,
        }
    )


def stl_decompose(
    input_path,
    *,
    trend_window: int = 13,
    check_tokens: bool = False,
) -> "Dataset":
    """STL-lite trend/seasonal/residual decomposition of each source's
    observed 1m token sums, integer micro-units end to end (hash-exact,
    no float accumulation anywhere):

    - trend: centered rolling mean over ``trend_window`` OBSERVED buckets
      (ROWS BETWEEN half PRECEDING AND half FOLLOWING, edges use the
      available window — SQL ROWS-window edge semantics), as a micro-unit
      int64 via pure-integer half-up division;
    - seasonal: hour-of-day mean of the detrended micro-units per source
      (24 bins; the hourly_profile key), one pinned ``floor(x + 0.5)``
      division per bin;
    - residual: ``y*1e6 - trend_u - seasonal_u``, exact int64.

    ``y == (trend_u + seasonal_u + resid_u) / 1e6`` by construction.
    The micro-unit columns ARE the output contract (BIGINT), so the DuckDB
    oracle (window AVG as integer sums/counts + the same two divisions)
    hashes bit-for-bit. trend_window must be odd so the window is centered.
    """
    from datafiller_ray.config import EngineValueError

    if trend_window < 1 or trend_window % 2 == 0:
        raise EngineValueError(
            f"trend_window must be a positive odd int, got {trend_window}"
        )
    half = trend_window // 2
    return _run_per_source(
        input_path,
        lambda obs, src: _stl_one_source(obs, src, half),
        check_tokens=check_tokens,
    )


# ---------------------------------------------------------------------------
# M4 min/max-preserving visual downsample


def _m4_one_source(obs: pd.DataFrame, source: str, px_w: int) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    px = (ts // px_w) * px_w
    # observed buckets arrive time-sorted per source (combine_partials
    # contract), so pixel runs are contiguous: searchsorted bounds
    starts = np.searchsorted(px, np.unique(px), side="left")
    ends = np.concatenate([starts[1:], [px.size]])
    n_px = starts.size
    first_tok = s[starts]
    last_tok = s[ends - 1]
    min_tok = np.minimum.reduceat(s, starts)
    max_tok = np.maximum.reduceat(s, starts)
    # EARLIEST bucket achieving each extremum (deterministic ties):
    # first index i in [start, end) with s[i] == extremum, vectorized as a
    # min-reduceat over positions masked to the matching rows
    eq_min = s == np.repeat(min_tok, ends - starts)
    eq_max = s == np.repeat(max_tok, ends - starts)
    idx = np.arange(px.size, dtype=np.int64)
    big = np.int64(px.size)
    min_ts = ts[np.minimum.reduceat(np.where(eq_min, idx, big), starts)]
    max_ts = ts[np.minimum.reduceat(np.where(eq_max, idx, big), starts)]
    return pd.DataFrame(
        {
            "source": np.full(n_px, source, dtype=object),
            "px_ts": px[starts],
            "n_buckets": (ends - starts).astype(np.int64),
            "first_tok": first_tok,
            "last_tok": last_tok,
            "min_tok": min_tok,
            "min_ts": min_ts,
            "max_tok": max_tok,
            "max_ts": max_ts,
        }
    )


def m4_downsample(
    input_path,
    *,
    px_seconds: int = 3600,
    check_tokens: bool = False,
) -> "Dataset":
    """M4 min/max-preserving visual downsample (Jugel et al., VLDB 2014:
    a pixel column is exactly reproduced by the first/last/min/max of the
    points that fall in it): per (source, ``px_seconds`` pixel) emit the
    first/last token sum by time plus each extremum with the EARLIEST
    bucket_ts achieving it (deterministic under ties). Integer-exact end
    to end; the LTTB complement for error-free line rendering."""
    from datafiller_ray.config import EngineValueError

    if px_seconds < 60:
        raise EngineValueError(f"px_seconds must be >= 60, got {px_seconds}")
    return _run_per_source(
        input_path,
        lambda obs, src: _m4_one_source(obs, src, px_seconds),
        check_tokens=check_tokens,
    )


# ---------------------------------------------------------------------------
# dominant seasonality period via ACF argmax


def _dominant_period_one_source(
    obs: pd.DataFrame, source: str, max_lag: int, min_pairs: int
) -> pd.DataFrame:
    cand = _acf_one_source(
        obs, source, tuple(range(2, max_lag + 1)), min_pairs
    )
    if len(cand) == 0:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": np.empty(0, dtype=object),
                    "best_lag": np.empty(0, np.int64),
                    "n_pairs": np.empty(0, np.int64),
                    "acf": np.empty(0, np.float64),
                }
            )
        )
    a = cand["acf"].to_numpy()  # already round6 — argmax on ROUNDED values
    lags = cand["lag"].to_numpy(np.int64)
    best = np.lexsort((lags, -a))[0]  # acf desc, lag asc: deterministic
    return pd.DataFrame(
        {
            "source": [source],
            "best_lag": lags[[best]],
            "n_pairs": cand["n_pairs"].to_numpy(np.int64)[[best]],
            "acf": a[[best]],
        }
    )


def dominant_period(
    input_path,
    *,
    max_lag: int = 24,
    min_pairs: int = 3,
    check_tokens: bool = False,
):
    """Per-source dominant seasonality period: the ROW lag in [2, max_lag]
    maximizing the exact five-moment ACF (acf()'s integer formulation; the
    argmax compares the ROUNDED 6-decimal values with lag-asc ties, so the
    SQL oracle's ROW_NUMBER pick is bit-deterministic). Lag 1 is excluded
    (trivially maximal on smooth series); sources with no valid lag (too
    short, or zero variance at every lag) are omitted."""
    from datafiller_ray.config import EngineValueError

    if max_lag < 2:
        raise EngineValueError(f"max_lag must be >= 2, got {max_lag}")
    if min_pairs < 2:
        raise EngineValueError(f"min_pairs must be >= 2, got {min_pairs}")
    return _run_per_source(
        input_path,
        lambda obs, src: _dominant_period_one_source(obs, src, max_lag, min_pairs),
        check_tokens=check_tokens,
    )


# ---------------------------------------------------------------------------
# anomaly intervals (gaps-and-islands over the rolling-anomaly flags)


def _anomaly_intervals_one_source(
    obs: pd.DataFrame, source: str, window: int, factor: float, min_window: int
) -> pd.DataFrame:
    empty = pd.DataFrame(
        {
            "source": np.empty(0, dtype=object),
            "start_ts": np.empty(0, np.int64),
            "end_ts": np.empty(0, np.int64),
            "n_buckets": np.empty(0, np.int64),
            "peak_tok": np.empty(0, np.int64),
            "peak_ts": np.empty(0, np.int64),
        }
    )
    roll = _rolling_one_source(obs, source, window)
    mean_raw = roll["roll_sum_tok"].to_numpy(np.float64) / roll[
        "roll_cnt"
    ].to_numpy(np.float64)
    flag = (roll["roll_cnt"].to_numpy() >= min_window) & (
        roll["sum_tok"].to_numpy(np.float64) > factor * mean_raw
    )
    if not flag.any():
        return _string_typed_if_empty(empty)
    ts = roll["bucket_ts"].to_numpy(np.int64)[flag]
    s = roll["sum_tok"].to_numpy(np.int64)[flag]
    # islands: split where flagged buckets are not grid-adjacent (gap > 60s)
    brk = np.flatnonzero(np.diff(ts) != 60) + 1
    starts = np.concatenate([[0], brk])
    ends = np.concatenate([brk, [ts.size]])
    peak = np.maximum.reduceat(s, starts)
    idx = np.arange(ts.size, dtype=np.int64)
    eq = s == np.repeat(peak, ends - starts)
    big = np.int64(ts.size)
    peak_ts = ts[np.minimum.reduceat(np.where(eq, idx, big), starts)]
    return pd.DataFrame(
        {
            "source": np.full(starts.size, source, dtype=object),
            "start_ts": ts[starts],
            "end_ts": ts[ends - 1],
            "n_buckets": (ends - starts).astype(np.int64),
            "peak_tok": peak,
            "peak_ts": peak_ts,
        }
    )


def anomaly_intervals(
    input_path,
    *,
    window: int = 60,
    factor: float = 2.0,
    min_window: int = 10,
    check_tokens: bool = False,
) -> "Dataset":
    """Contiguous anomaly INTERVALS per source: the rolling_anomalies flag
    rule (sum > factor x the unrounded trailing-``window`` mean, window
    populated with >= ``min_window`` rows), with grid-adjacent flagged 1m
    buckets merged into (start_ts, end_ts, n_buckets, peak_tok, peak_ts)
    alert rows — the page-worthy unit (one sustained burst = ONE row, not
    sixty). A gap of more than one grid step splits the island; peak_ts is
    the EARLIEST bucket achieving the interval peak (deterministic ties).
    SQL-oracle-able as the classic gaps-and-islands ROW_NUMBER difference.
    """
    from datafiller_ray.config import EngineValueError

    if window < 1:
        raise EngineValueError(f"window must be >= 1, got {window}")
    if min_window < 1:
        raise EngineValueError(f"min_window must be >= 1, got {min_window}")
    return _run_per_source(
        input_path,
        lambda obs, src: _anomaly_intervals_one_source(
            obs, src, window, factor, min_window
        ),
        check_tokens=check_tokens,
    )


# ---------------------------------------------------------------------------
# feed staleness / freshness report


def _staleness_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    return pd.DataFrame(
        {
            "source": [source],
            "last_bucket_ts": ts[[-1]] if ts.size else np.array([0], np.int64),
            "n_buckets": np.array([ts.size], np.int64),
            "n_docs": np.array([int(obs["count"].sum())], np.int64),
        }
    )


def staleness_report(input_path, *, check_tokens: bool = False):
    """Per-source feed freshness: last observed 1m bucket, observed-bucket
    and document counts, and the lag (seconds) behind the freshest source
    — the "which feeds went quiet" operational check run before blaming
    the pipeline for missing data.

    Same single per-source exchange as the whole window family; the
    per-source summary table is tiny, so the global-max lag joins in ONE
    final single-block pass (never a second shuffle). Integer-exact."""
    per_src = _run_per_source(
        input_path, _staleness_one_source,
        check_tokens=check_tokens,
    )

    def add_lag(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            out = df.copy()
            out["lag_s"] = pd.Series([], dtype="int64")
            return _string_typed_if_empty(out)
        last = df["last_bucket_ts"].to_numpy(np.int64)
        df = df.copy()
        df["lag_s"] = int(last.max()) - last
        return df

    return per_src.repartition(1).map_batches(
        add_lag, batch_format="pandas", batch_size=None
    )


def _mase_one_source(obs: pd.DataFrame, source: str, season: int) -> pd.DataFrame:
    s = obs["sum"].to_numpy(np.int64)
    n = s.size
    empty = pd.DataFrame(
        {
            "source": pd.Series([], dtype=object),
            "n_obs": pd.Series([], dtype=np.int64),
            "mase": pd.Series([], dtype=np.float64),
        }
    )
    if n <= season:
        return empty
    # exact integer error sums promoted to Python ints before the cross
    # multiply (acf/source_correlation precedent — no overflow at any scale)
    num = int(np.abs(s[season:] - s[:-season]).sum())
    den = int(np.abs(s[1:] - s[:-1]).sum())
    cnt_num = n - season
    cnt_den = n - 1
    if den == 0:
        return empty  # constant series: naive error 0, MASE undefined
    mase = float(num * cnt_den) / float(den * cnt_num)
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_obs": np.array([n], dtype=np.int64),
            "mase": _round6_half_up(np.array([mase], dtype=np.float64)),
        }
    )


def _ohlc_one_source(obs: pd.DataFrame, source: str, step: int) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    bucket = ts - ts % step
    # obs arrives sorted by bucket_ts (combine_partials), so buckets are
    # non-decreasing: candle boundaries are one vectorized diff + reduceat
    starts = np.flatnonzero(np.r_[True, bucket[1:] != bucket[:-1]])
    ends = np.r_[starts[1:], bucket.size]
    return pd.DataFrame(
        {
            "source": np.full(starts.size, source, dtype=object),
            "bucket_ts": bucket[starts],
            "n_minutes": (ends - starts).astype(np.int64),
            "open_ts": ts[starts],
            "open_tok": s[starts],
            "high_tok": np.maximum.reduceat(s, starts),
            "low_tok": np.minimum.reduceat(s, starts),
            "close_ts": ts[ends - 1],
            "close_tok": s[ends - 1],
        }
    )


def ohlc_candles(
    input_path,
    *,
    step: int = 3600,
    check_tokens: bool = False,
):
    """OHLC candle downsample of the per-minute token-sum series: per
    (source, ``step``-second bucket) the FIRST and LAST observed minute's
    sum (open/close, with their timestamps) plus the min/max over the
    bucket and the observed-minute count. First/last are order statistics
    the tumbling count/sum/min/max cascade cannot express — they need the
    arg-extreme (earliest/latest bucket) carried through the combine, which
    ``_ohlc_one_source`` gets for free from the sorted per-source frame.
    All-int64 output (no float rounding surface); one exchange, same
    physical plan as the rest of the window family."""
    from datafiller_ray.config import EngineValueError

    if step < 60 or step % 60:
        raise EngineValueError(f"step must be a positive multiple of 60, got {step}")
    return _run_per_source(
        input_path,
        lambda obs, src: _ohlc_one_source(obs, src, step),
        check_tokens=check_tokens,
    )


def _islands_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1] + 60])
    ends = np.r_[starts[1:], ts.size]
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(s)])
    return pd.DataFrame(
        {
            "source": np.full(starts.size, source, dtype=object),
            "island_start": ts[starts],
            "island_end": ts[ends - 1],
            "n_buckets": (ends - starts).astype(np.int64),
            "sum_tok": cs[ends] - cs[starts],
        }
    )


def coverage_islands(
    input_path,
    *,
    check_tokens: bool = False,
):
    """Gaps-and-islands interval merge: collapse each source's observed 1m
    buckets into maximal CONTIGUOUS runs (consecutive minutes), one row per
    island with its start/end bucket, length, and exact token sum. This is
    the interval-set view of coverage (``completeness_report`` gives the
    ratio view; ``gap_stats`` the complement) — the shape retention
    planners consume to decide which spans are compactable. Per-source
    O(n) vectorized boundary diff + cumsum-segment sums; int64 throughout;
    single exchange."""
    return _run_per_source(
        input_path,
        _islands_one_source,
        check_tokens=check_tokens,
    )


def _dow_hour_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    # pure epoch arithmetic (1970-01-01 was a Thursday -> +4), no tz lookups
    key = ((ts // 86400 + 4) % 7) * 24 + (ts % 86400) // 3600
    g = (
        pd.DataFrame({"k": key, "s": s})
        .groupby("k", sort=True)
        .agg(n=("s", "size"), tot=("s", "sum"))
        .reset_index()
    )
    n = g["n"].to_numpy(np.int64)
    tot = g["tot"].to_numpy(np.int64)
    return pd.DataFrame(
        {
            "source": np.full(len(g), source, dtype=object),
            "dow": (g["k"] // 24).to_numpy(np.int64),
            "hour": (g["k"] % 24).to_numpy(np.int64),
            "n_minutes": n,
            "sum_tok": tot,
            "mean_tok": _round6_half_up(tot.astype(np.float64) / n),
        }
    )


def dow_hour_profile(
    input_path,
    *,
    check_tokens: bool = False,
):
    """Weekly seasonality matrix: per (source, day-of-week, hour-of-day)
    observed-minute count, exact token sum, and round6 mean — the calendar
    heatmap capacity planners read (``hourly_profile`` collapses days;
    this keeps the weekday axis). Epoch arithmetic only; one exchange."""
    return _run_per_source(
        input_path,
        _dow_hour_one_source,
        check_tokens=check_tokens,
    )


def source_rank_shift(input_path, *, check_tokens: bool = False) -> pd.DataFrame:
    """Two-period league table: rank every source by total tokens in the
    early half vs the late half of the global time range (midpoint of
    [min, max] bucket) and report the rank shift — the churn view of
    corpus composition drift (``psi_drift`` gives the distributional view).

    Physical plan: pass 1 reads ONLY the ``doc_id`` column for global
    minute bounds (tiny per-block min/max partials); pass 2 is the
    standard partial-aggregate prologue + a half tag + one bounded
    grouped_sum exchange. The final pivot/rank runs on one row per
    (source, half) — bounded by source cardinality, the same
    driver-side budget as the other per-source reports."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from datafiller_ray.pipelines.rollup import partial_aggregates
    from datafiller_ray.stages.exchange import grouped_sum
    from datafiller_ray.stages.validate import extract_epoch_minute

    ids = ray.data.read_parquet(input_path, columns=["doc_id"])

    def bounds(t: pa.Table) -> pa.Table:
        m = extract_epoch_minute(t["doc_id"])
        return pa.table(
            {"mn": [pc.min(m).as_py()], "mx": [pc.max(m).as_py()]}
        )

    b = ids.map_batches(bounds, batch_format="pyarrow").to_pandas()
    mid = (int(b["mn"].min()) * 60 + int(b["mx"].max()) * 60) // 2

    partials = partial_aggregates(input_path, check_tokens=check_tokens)

    def tag(t: pa.Table) -> pa.Table:
        half = pc.if_else(
            pc.less_equal(t["bucket_ts"], pa.scalar(mid, pa.int64())),
            pa.scalar(0, pa.int64()),
            pa.scalar(1, pa.int64()),
        )
        return pa.table({"source": t["source"], "half": half, "sum": t["sum"]})

    sums = grouped_sum(
        partials.map_batches(tag, batch_format="pyarrow"), ["source", "half"], "sum"
    ).to_pandas()  # bounded: <= 2 rows per source

    pv = (
        sums.pivot_table(
            index="source", columns="half", values="sum", aggfunc="sum", fill_value=0
        )
        .reindex(columns=[0, 1], fill_value=0)
        .reset_index()
    )
    src = pv["source"].to_numpy(dtype=object)
    te = pv[0].to_numpy(np.int64)
    tl = pv[1].to_numpy(np.int64)

    def row_number(tok: np.ndarray) -> np.ndarray:
        order = np.lexsort((src, -tok))  # tok DESC, source ASC
        rnk = np.empty(tok.size, np.int64)
        rnk[order] = np.arange(1, tok.size + 1)
        return rnk

    re_, rl = row_number(te), row_number(tl)
    return pd.DataFrame(
        {
            "source": src,
            "tok_early": te,
            "tok_late": tl,
            "rank_early": re_,
            "rank_late": rl,
            "rank_shift": re_ - rl,
        }
    )


def cross_section_quantiles(
    input_path,
    *,
    step: int = 3600,
    check_tokens: bool = False,
    n_buckets: int = 64,
):
    """Cross-SECTIONAL quantiles: per ``step``-second bucket, the p10/p50/p90
    of the per-source token sums across all sources active that bucket —
    the fleet-wide dispersion band per time slice, the transpose of every
    other window op's per-source axis. Two bounded exchanges: the standard
    per-source shuffle (exact per-source step-sums, tiny output), then a
    TIME-keyed coarse exchange (``coarse_map_groups`` on ``bucket_ts``) so
    each bucket's cross-section lands in one task. quantile_cont interpolation
    (shared ``_interp_quantile``), round6-pinned outputs."""
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.exchange import coarse_map_groups

    if step < 60 or step % 60:
        raise EngineValueError(f"step must be a positive multiple of 60, got {step}")

    def step_sums(obs: pd.DataFrame, source: str) -> pd.DataFrame:
        ts = obs["bucket_ts"].to_numpy(np.int64)
        s = obs["sum"].to_numpy(np.int64)
        b = ts - ts % step
        starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        ends = np.r_[starts[1:], b.size]
        cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(s)])
        return pd.DataFrame({"bucket_ts": b[starts], "tok": cs[ends] - cs[starts]})

    tier = _run_per_source(input_path, step_sums, check_tokens=check_tokens)

    def q_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["bucket_ts", "tok"], kind="mergesort")
        b = g["bucket_ts"].to_numpy(np.int64)
        v = g["tok"].to_numpy(np.int64).astype(np.float64)
        starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        ends = np.r_[starts[1:], b.size]
        rows = []
        for s0, e0 in zip(starts, ends):  # bounded: buckets per coarse group
            xs = v[s0:e0]
            rows.append(
                (
                    b[s0],
                    e0 - s0,
                    _interp_quantile(xs, 0.1),
                    _interp_quantile(xs, 0.5),
                    _interp_quantile(xs, 0.9),
                )
            )
        out = pd.DataFrame(
            rows, columns=["bucket_ts", "n_sources", "p10_tok", "p50_tok", "p90_tok"]
        )
        out["bucket_ts"] = out["bucket_ts"].astype(np.int64)
        out["n_sources"] = out["n_sources"].astype(np.int64)
        for c in ("p10_tok", "p50_tok", "p90_tok"):
            out[c] = _round6_half_up(out[c].to_numpy(np.float64))
        return out

    return coarse_map_groups(tier, "bucket_ts", q_group, n_buckets=n_buckets)


def _value_runs_one_source(
    obs: pd.DataFrame, source: str, level_width: int
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    lvl = s // level_width
    # a run breaks on a level change OR a gap in the minute grid
    brk = np.r_[True, (lvl[1:] != lvl[:-1]) | (ts[1:] != ts[:-1] + 60)]
    starts = np.flatnonzero(brk)
    ends = np.r_[starts[1:], ts.size]
    return pd.DataFrame(
        {
            "source": np.full(starts.size, source, dtype=object),
            "run_start": ts[starts],
            "run_end": ts[ends - 1],
            "level": lvl[starts],
            "run_len": (ends - starts).astype(np.int64),
        }
    )


def value_runs(
    input_path,
    *,
    level_width: int = 64,
    check_tokens: bool = False,
):
    """Run-length view of each source's per-minute token-sum series:
    maximal CONTIGUOUS runs of equal quantized level (``sum_tok //
    level_width``), one row per run with its span and length — the
    compressibility census an RLE/Gorilla-style codec planner reads (long
    runs => delta-of-delta and XOR prefixes collapse; the blob sink's
    ratios correlate directly with this table). Runs also break on grid
    gaps, so a run never spans missing minutes. O(n) boundary diff per
    source; int64 throughout; one exchange."""
    from datafiller_ray.config import EngineValueError

    if level_width < 1:
        raise EngineValueError(f"level_width must be >= 1, got {level_width}")
    return _run_per_source(
        input_path,
        lambda obs, src: _value_runs_one_source(obs, src, level_width),
        check_tokens=check_tokens,
    )


def topk_movers(
    input_path,
    *,
    step: int = 86400,
    k: int = 20,
    check_tokens: bool = False,
):
    """Global top-k (source, bucket) movers by absolute bucket-over-bucket
    change of the ``step``-grain token sum — the "what shifted most
    day-over-day" alerting view. Composes the per-source cascade (exact
    step sums + consecutive-bucket deltas inside the group task, tiny
    output) with the global ranked reduction
    (stages/exchange.topk_block_fn: per-block k-prune, single final
    combine over <= k * blocks rows). Ties break (delta_abs DESC, source
    ASC, bucket_ts ASC); deltas only between CONSECUTIVE step buckets."""
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.exchange import topk_block_fn

    if step < 60 or step % 60:
        raise EngineValueError(f"step must be a positive multiple of 60, got {step}")
    if k < 1:
        raise EngineValueError(f"k must be >= 1, got {k}")

    def deltas(obs: pd.DataFrame, source: str) -> pd.DataFrame:
        ts = obs["bucket_ts"].to_numpy(np.int64)
        s = obs["sum"].to_numpy(np.int64)
        b = ts - ts % step
        starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        ends = np.r_[starts[1:], b.size]
        cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(s)])
        bt = b[starts]
        tok = cs[ends] - cs[starts]
        consec = bt[1:] == bt[:-1] + step
        d = tok[1:] - tok[:-1]
        out = pd.DataFrame(
            {
                "source": np.full(int(consec.sum()), source, dtype=object),
                "bucket_ts": bt[1:][consec],
                "tok": tok[1:][consec],
                "prev_tok": tok[:-1][consec],
                "delta": d[consec],
                "delta_abs": np.abs(d[consec]),
            }
        )
        return _string_typed_if_empty(out)

    per_src = _run_per_source(input_path, deltas, check_tokens=check_tokens)
    prune = topk_block_fn(k, "delta_abs", ["source", "bucket_ts"])
    pruned = per_src.map_batches(prune, batch_format="pyarrow")
    final = pruned.repartition(1).map_batches(prune, batch_format="pyarrow")

    def rank(t):
        import pyarrow as pa

        d = np.asarray(t["delta_abs"], dtype=np.int64)
        src = np.asarray(t["source"].to_pandas(), dtype="U")
        bts = np.asarray(t["bucket_ts"], dtype=np.int64)
        order = np.lexsort((bts, src, -d))
        t = t.take(pa.array(order, type=pa.int64()))
        return t.append_column(
            "rnk", pa.array(np.arange(1, t.num_rows + 1), pa.int64())
        )

    return final.map_batches(rank, batch_format="pyarrow")


def seasonal_naive_mase(
    input_path,
    *,
    season: int = 60,
    check_tokens: bool = False,
):
    """Per-source MASE (mean absolute scaled error, Hyndman & Koehler) of
    the seasonal-naive forecast ``y_hat_t = y_{t-season}`` over the
    observed 1m buckets, scaled by the one-step naive error — the
    "is this series even forecastable at this season" score read before
    trusting any smoothing/forecast output downstream. ROW-lag semantics
    (observed-bucket sequence, the ``acf`` convention) so the SQL LAG
    oracle reproduces it exactly.

    MASE = (sum|y_t - y_{t-season}| / (n - season))
         / (sum|y_t - y_{t-1}| / (n - 1)), computed as exact integer error
    sums cross-multiplied in Python ints and ONE pinned float division +
    the shared 6-decimal floor-half-up. Sources with n <= season buckets
    or a constant series (zero naive error) are omitted. Single per-source
    exchange like the rest of the window family.
    """
    from datafiller_ray.config import EngineValueError

    if season < 1:
        raise EngineValueError(f"season must be >= 1, got {season}")
    return _run_per_source(
        input_path,
        lambda obs, src: _mase_one_source(obs, src, season),
        check_tokens=check_tokens,
    )


def _records_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    # strict new running max: v > max(all preceding); first row is record 1
    prev_max = np.r_[np.int64(np.iinfo(np.int64).min), np.maximum.accumulate(s)[:-1]]
    rec = s > prev_max
    idx = np.flatnonzero(rec)
    out = pd.DataFrame(
        {
            "source": np.full(idx.size, source, dtype=object),
            "bucket_ts": ts[idx],
            "sum_tok": s[idx],
            "record_no": np.arange(1, idx.size + 1, dtype=np.int64),
        }
    )
    return _string_typed_if_empty(out)


def running_records(input_path, *, check_tokens: bool = False):
    """Record-high census: per source, the observed 1m buckets whose token
    sum STRICTLY exceeds every preceding bucket's sum (the running-max
    record events), numbered 1..n in time order — the "when did this feed
    last peak" trail. Vectorized shifted cummax per source (no Python
    loop); all-int64; ONE per-source exchange like the rest of the window
    family. The SQL oracle is MAX OVER (ROWS UNBOUNDED PRECEDING AND 1
    PRECEDING) with the NULL-first-row rule."""
    return _run_per_source(
        input_path,
        _records_one_source,
        check_tokens=check_tokens,
    )


def _burstiness_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    s = obs["sum"].to_numpy(np.int64)
    n = int(s.size)
    # exact integer power sums; population variance via the pinned
    # cross-multiplied form (n*sumsq - sum^2) / n^2 in Python ints
    tot = int(s.sum())
    sumsq = int((s.astype(object) * s.astype(object)).sum()) if n else 0
    if n == 0 or tot == 0:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "n_buckets": pd.Series([], dtype=np.int64),
                    "sum_tok": pd.Series([], dtype=np.int64),
                    "mean_tok": pd.Series([], dtype=np.float64),
                    "var_tok": pd.Series([], dtype=np.float64),
                    "fano": pd.Series([], dtype=np.float64),
                    "cv": pd.Series([], dtype=np.float64),
                }
            )
        )
    import math

    mean = float(tot) / float(n)
    var = float(n * sumsq - tot * tot) / float(n * n)
    fano = var / mean  # index of dispersion (Fano factor)
    cv = math.sqrt(var) / mean  # coefficient of variation
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_buckets": np.array([n], dtype=np.int64),
            "sum_tok": np.array([tot], dtype=np.int64),
            "mean_tok": _round6_half_up(np.array([mean])),
            "var_tok": _round6_half_up(np.array([var])),
            "fano": _round6_half_up(np.array([fano])),
            "cv": _round6_half_up(np.array([cv])),
        }
    )


def burstiness(input_path, *, check_tokens: bool = False):
    """Per-source burstiness summary of the per-minute token-sum series:
    population mean/variance plus the Fano factor (variance/mean, the
    index of dispersion — 1 for a Poisson stream, >1 bursty, <1 regular)
    and the coefficient of variation — the traffic-shape diagnostic read
    when sizing batch/shuffle budgets for a feed. Exact integer power
    sums cross-multiplied in Python ints (no float accumulation order
    anywhere); each float output is ONE pinned expression + the shared
    6-decimal floor-half-up, so the SQL oracle's SUM/COUNT expression
    tree reproduces it bit-for-bit. Sources with zero total are omitted
    (mean 0 makes both ratios undefined)."""
    return _run_per_source(
        input_path,
        _burstiness_one_source,
        check_tokens=check_tokens,
    )


def _streaks_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    consec = ts[1:] == ts[:-1] + 60
    up_step = consec & (s[1:] > s[:-1])
    dn_step = consec & (s[1:] < s[:-1])

    def longest(step: np.ndarray) -> int:
        # longest run of True steps -> streak length = run + 1 buckets
        if step.size == 0:
            return 1
        brk = np.flatnonzero(np.r_[True, ~step, True])
        return int(np.diff(brk).max())

    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_buckets": np.array([ts.size], dtype=np.int64),
            "longest_up": np.array([longest(up_step)], dtype=np.int64),
            "longest_down": np.array([longest(dn_step)], dtype=np.int64),
        }
    )


def streaks(input_path, *, check_tokens: bool = False):
    """Per-source longest monotone streak census: the maximum number of
    CONSECUTIVE 1m buckets with strictly increasing (and, separately,
    strictly decreasing) token sums — the ramp-detection summary (is this
    feed monotonically warming up / draining, or noise). A streak breaks
    on a grid gap exactly like ``value_runs`` (a run never spans missing
    minutes); a single bucket counts as streak length 1. O(n) boolean
    diffs per source, all-int64, one per-source exchange. The SQL oracle
    is the gaps-and-islands double cumsum over LAG comparisons."""
    return _run_per_source(
        input_path,
        _streaks_one_source,
        check_tokens=check_tokens,
    )


def _theilsen_one_source(
    obs: pd.DataFrame, source: str, step: int
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    b = ts - ts % step
    starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
    ends = np.r_[starts[1:], b.size]
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(s)])
    bt = b[starts]
    y = cs[ends] - cs[starts]
    n = bt.size
    if n < 2:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "n_steps": pd.Series([], dtype=np.int64),
                    "n_pairs": pd.Series([], dtype=np.int64),
                    "slope": pd.Series([], dtype=np.float64),
                }
            )
        )
    # all i<j pairwise slopes, one broadcastized divide (n = step buckets,
    # so n^2 stays small: hours of history, not minutes)
    ii, jj = np.triu_indices(n, k=1)
    slopes = (y[jj] - y[ii]).astype(np.float64) / (
        (bt[jj] - bt[ii]).astype(np.float64)
    )
    slopes.sort(kind="stable")
    med = _interp_quantile(slopes, 0.5)
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_steps": np.array([n], dtype=np.int64),
            "n_pairs": np.array([slopes.size], dtype=np.int64),
            "slope": _round6_half_up(np.array([med])),
        }
    )


def theilsen_trend(
    input_path,
    *,
    step: int = 3600,
    check_tokens: bool = False,
):
    """Per-source Theil–Sen robust trend: the median of all pairwise
    slopes ``(y_j - y_i) / (t_j - t_i)`` over the ``step``-grain token
    sums — the outlier-resistant complement of ``source_trend``'s OLS
    (one corrupted burst moves OLS, not the pairwise median). Slopes are
    single pinned IEEE divisions on exact integer sums; the median is the
    ``quantile_cont`` interpolation rule shared with the quantile family,
    under the 6-decimal floor-half-up absorber. O(n^2) pairs per source
    at the COARSE grain (hours, not minutes) so n stays bounded by the
    retention span; sources with fewer than 2 step buckets are omitted."""
    from datafiller_ray.config import EngineValueError

    if step < 60 or step % 60:
        raise EngineValueError(
            f"step must be a positive multiple of 60, got {step}"
        )
    return _run_per_source(
        input_path,
        lambda obs, src: _theilsen_one_source(obs, src, step),
        check_tokens=check_tokens,
    )


def _mann_kendall_one_source(
    obs: pd.DataFrame, source: str, step: int
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    b = ts - ts % step
    starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
    ends = np.r_[starts[1:], b.size]
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(s)])
    y = cs[ends] - cs[starts]
    n = y.size
    if n < 2:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "n_steps": pd.Series([], dtype=np.int64),
                    "s_stat": pd.Series([], dtype=np.int64),
                    "tau": pd.Series([], dtype=np.float64),
                }
            )
        )
    ii, jj = np.triu_indices(n, k=1)
    d = y[jj] - y[ii]
    s_stat = int(np.sign(d).sum())
    n_pairs = n * (n - 1) // 2
    tau = float(s_stat) / float(n_pairs)
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_steps": np.array([n], dtype=np.int64),
            "s_stat": np.array([s_stat], dtype=np.int64),
            "tau": _round6_half_up(np.array([tau])),
        }
    )


def mann_kendall(
    input_path,
    *,
    step: int = 3600,
    check_tokens: bool = False,
):
    """Per-source Mann–Kendall trend test over the ``step``-grain token
    sums: ``S = sum over i<j of sign(y_j - y_i)`` and Kendall's
    ``tau = S / (n(n-1)/2)`` — the nonparametric is-there-a-trend score
    that pairs with :func:`theilsen_trend`'s slope estimate (same pairwise
    machinery; S is INTEGER-exact, tau one pinned division under the
    round6 absorber). O(n^2) only at the coarse grain; sources with fewer
    than 2 step buckets are omitted."""
    from datafiller_ray.config import EngineValueError

    if step < 60 or step % 60:
        raise EngineValueError(
            f"step must be a positive multiple of 60, got {step}"
        )
    return _run_per_source(
        input_path,
        lambda obs, src: _mann_kendall_one_source(obs, src, step),
        check_tokens=check_tokens,
    )


def _holt_winters_one_source(
    obs: pd.DataFrame,
    source: str,
    step: int,
    season: int,
    alpha: float,
    beta: float,
    gamma: float,
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s_int = obs["sum"].to_numpy(np.int64)
    b = ts - ts % step
    starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
    ends = np.r_[starts[1:], b.size]
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(s_int)])
    bt = b[starts]
    yi = cs[ends] - cs[starts]
    n = bt.size
    m = season
    if n < 2 * m:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "bucket_ts": pd.Series([], dtype=np.int64),
                    "sum_tok": pd.Series([], dtype=np.int64),
                    "forecast_tok": pd.Series([], dtype=np.float64),
                    "level_tok": pd.Series([], dtype=np.float64),
                    "trend_tok": pd.Series([], dtype=np.float64),
                }
            )
        )
    y = yi.astype(np.float64)
    # pinned init from exact integer sums: level = mean of season 1,
    # trend = (mean of season 2 - mean of season 1) / m evaluated as ONE
    # integer difference over m*m, seasonal = first-season residuals
    s0 = int(yi[:m].sum())
    s1 = int(yi[m : 2 * m].sum())
    level = s0 / m
    trend = (s1 - s0) / (m * m)
    seas = y[:m] - level
    fc = np.empty(n - m, np.float64)
    lv = np.empty(n - m, np.float64)
    tr = np.empty(n - m, np.float64)
    for t in range(m, n):
        j = t % m
        prev = level + trend
        fc[t - m] = prev + seas[j]  # one-step-ahead, before seeing y_t
        level_new = alpha * (y[t] - seas[j]) + (1.0 - alpha) * prev
        trend = beta * (level_new - level) + (1.0 - beta) * trend
        seas[j] = gamma * (y[t] - level_new) + (1.0 - gamma) * seas[j]
        level = level_new
        lv[t - m] = level
        tr[t - m] = trend
    return pd.DataFrame(
        {
            "source": np.full(n - m, source, dtype=object),
            "bucket_ts": bt[m:],
            "sum_tok": yi[m:],
            "forecast_tok": _round6_half_up(fc),
            "level_tok": _round6_half_up(lv),
            "trend_tok": _round6_half_up(tr),
        }
    )


def holt_winters(
    input_path,
    *,
    step: int = 60,
    season: int = 60,
    alpha: float = 0.2,
    beta: float = 0.1,
    gamma: float = 0.3,
    check_tokens: bool = False,
):
    """Holt–Winters ADDITIVE triple exponential smoothing per source over
    the observed ``step``-grain token sums (ROW seasonal indexing, period
    ``season`` observed buckets) — the seasonal extension of
    :func:`holt_smooth`: one-step-ahead forecast, level, and trend per
    bucket from the classic three-recursion update. Initialization is the
    standard pinned form (first-season mean level, season-over-season mean
    trend, first-season residual seasonals) computed from EXACT integer
    sums; every float op runs in a fixed documented order mirrored by the
    vendored scalar oracle (tests/oracle/fills.py), with the shared
    6-decimal floor-half-up on outputs. Sources with fewer than
    ``2 * season`` observed buckets are omitted; output starts at bucket
    ``season`` (the spin-up season is consumed by the init). The recursion
    is inherently sequential — it runs as a per-source scalar pass inside
    the one exchange (the cusum precedent), so keep it at a coarse grain
    at corpus scale."""
    from datafiller_ray.config import EngineValueError

    if step < 60 or step % 60:
        raise EngineValueError(
            f"step must be a positive multiple of 60, got {step}"
        )
    if season < 2:
        raise EngineValueError(f"season must be >= 2, got {season}")
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not (0.0 < v < 1.0):
            raise EngineValueError(f"{name} must be in (0, 1), got {v}")
    return _run_per_source(
        input_path,
        lambda obs, src: _holt_winters_one_source(
            obs, src, step, season, alpha, beta, gamma
        ),
        check_tokens=check_tokens,
    )


def _holt_damped_one_source(
    obs: pd.DataFrame,
    source: str,
    step: int,
    alpha: float,
    beta: float,
    phi: float,
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s_int = obs["sum"].to_numpy(np.int64)
    b = ts - ts % step
    starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
    ends = np.r_[starts[1:], b.size]
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(s_int)])
    bt = b[starts]
    yi = cs[ends] - cs[starts]
    n = bt.size
    if n < 2:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "bucket_ts": pd.Series([], dtype=np.int64),
                    "sum_tok": pd.Series([], dtype=np.int64),
                    "forecast_tok": pd.Series([], dtype=np.float64),
                    "level_tok": pd.Series([], dtype=np.float64),
                    "trend_tok": pd.Series([], dtype=np.float64),
                }
            )
        )
    y = yi.astype(np.float64)
    # pinned init: level = y0, trend = y1 - y0 (both exact integers)
    level = float(yi[0])
    trend = float(int(yi[1]) - int(yi[0]))
    fc = np.empty(n - 1, np.float64)
    lv = np.empty(n - 1, np.float64)
    tr = np.empty(n - 1, np.float64)
    for t in range(1, n):
        prev = level + phi * trend
        fc[t - 1] = prev  # one-step-ahead, before seeing y_t
        level_new = alpha * y[t] + (1.0 - alpha) * prev
        trend = beta * (level_new - level) + (1.0 - beta) * (phi * trend)
        level = level_new
        lv[t - 1] = level
        tr[t - 1] = trend
    return pd.DataFrame(
        {
            "source": np.full(n - 1, source, dtype=object),
            "bucket_ts": bt[1:],
            "sum_tok": yi[1:],
            "forecast_tok": _round6_half_up(fc),
            "level_tok": _round6_half_up(lv),
            "trend_tok": _round6_half_up(tr),
        }
    )


def holt_damped(
    input_path,
    *,
    step: int = 60,
    alpha: float = 0.25,
    beta: float = 0.1,
    phi: float = 0.9,
    check_tokens: bool = False,
):
    """Damped-trend Holt (Gardner–McKenzie) smoothing per source over the
    observed ``step``-grain token sums — the member of the exponential
    family between :func:`holt_smooth` (undamped linear trend, which
    over-extrapolates ramps) and :func:`holt_winters` (seasonal): the
    trend is multiplied by ``phi`` in (0, 1] at every step so long-range
    forecasts flatten instead of running away:

        forecast_t = level + phi * trend            (before seeing y_t)
        level'     = alpha * y_t + (1 - alpha) * (level + phi * trend)
        trend'     = beta * (level' - level) + (1 - beta) * phi * trend

    Initialization is pinned to the exact integers (level = y_0,
    trend = y_1 - y_0); every float op runs in the documented fixed order
    mirrored by the vendored scalar oracle (tests/oracle/fills.py), with
    the shared 6-decimal floor-half-up on outputs. Sources with fewer than
    2 observed buckets are omitted; output starts at the second bucket.
    The recursion is sequential per source — it runs as a scalar pass
    inside the one exchange (the holt_winters precedent)."""
    from datafiller_ray.config import EngineValueError

    if step < 60 or step % 60:
        raise EngineValueError(
            f"step must be a positive multiple of 60, got {step}"
        )
    for name, v in (("alpha", alpha), ("beta", beta)):
        if not (0.0 < v < 1.0):
            raise EngineValueError(f"{name} must be in (0, 1), got {v}")
    if not (0.0 < phi <= 1.0):
        raise EngineValueError(f"phi must be in (0, 1], got {phi}")
    return _run_per_source(
        input_path,
        lambda obs, src: _holt_damped_one_source(
            obs, src, step, alpha, beta, phi
        ),
        check_tokens=check_tokens,
    )


def _trimmed_mean_one_source(
    obs: pd.DataFrame, source: str, q_lo: float, q_hi: float
) -> pd.DataFrame:
    v_int = obs["sum"].to_numpy(np.int64)
    xs = np.sort(v_int.astype(np.float64))
    lo = _interp_quantile(xs, q_lo)
    hi = _interp_quantile(xs, q_hi)
    keep = (v_int >= lo) & (v_int <= hi)  # IEEE-exact (binary-fraction qs)
    n_in = int(keep.sum())
    if n_in == 0:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "n_buckets": pd.Series([], dtype=np.int64),
                    "n_kept": pd.Series([], dtype=np.int64),
                    "lo_tok": pd.Series([], dtype=np.float64),
                    "hi_tok": pd.Series([], dtype=np.float64),
                    "trimmed_mean_tok": pd.Series([], dtype=np.float64),
                }
            )
        )
    s_in = int(v_int[keep].sum())
    mean = float(s_in) / float(n_in)
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_buckets": np.array([v_int.size], dtype=np.int64),
            "n_kept": np.array([n_in], dtype=np.int64),
            "lo_tok": np.array([lo]),
            "hi_tok": np.array([hi]),
            "trimmed_mean_tok": _round6_half_up(np.array([mean])),
        }
    )


def trimmed_mean(
    input_path,
    *,
    q_lo: float = 0.25,
    q_hi: float = 0.75,
    check_tokens: bool = False,
):
    """Per-source interquartile (trimmed) mean of the observed 1m token
    sums: the mean over ONLY the buckets inside the ``[quantile(q_lo),
    quantile(q_hi)]`` band — the robust-location summary (winsorize's
    drop-don't-clip sibling; one burst can move the plain mean, not
    this). Same exactness contract as :func:`winsorize`: binary-fraction
    quantiles (k/4096) make the band edges and every in-band comparison
    IEEE-exact in any op order on integer data; the kept sum/count are
    exact integers and the mean ONE pinned division under round6."""
    from datafiller_ray.config import EngineValueError

    for q in (q_lo, q_hi):
        if not (0.0 <= q <= 1.0) or (q * 4096.0) != float(int(q * 4096.0)):
            raise EngineValueError(
                f"quantile {q} must be a binary fraction k/4096 in [0, 1] "
                "(exactness contract; see winsorize docstring)"
            )
    if q_lo > q_hi:
        raise EngineValueError(f"q_lo {q_lo} > q_hi {q_hi}")
    return _run_per_source(
        input_path,
        lambda obs, src: _trimmed_mean_one_source(obs, src, q_lo, q_hi),
        check_tokens=check_tokens,
    )


def source_share(
    input_path,
    *,
    step: int = 86400,
    check_tokens: bool = False,
    n_buckets: int = 64,
):
    """Share-of-total per (source, ``step`` bucket): each source's token
    sum as a fraction of ALL sources' tokens that bucket — the mix-drift
    monitor (is one feed quietly taking over the training mix?). The
    cross-sectional sibling of :func:`cross_section_quantiles` and the
    same two-exchange plan: exact per-source step sums (tiny rows), then
    a TIME-keyed coarse exchange where each bucket's total and shares are
    computed together. Sums are exact integers; ``share`` is the single
    pinned division under round6 (the SQL window-SUM oracle computes the
    identical expression)."""
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.exchange import coarse_map_groups

    if step < 60 or step % 60:
        raise EngineValueError(
            f"step must be a positive multiple of 60, got {step}"
        )

    def step_sums(obs: pd.DataFrame, source: str) -> pd.DataFrame:
        ts = obs["bucket_ts"].to_numpy(np.int64)
        s = obs["sum"].to_numpy(np.int64)
        b = ts - ts % step
        starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        ends = np.r_[starts[1:], b.size]
        cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(s)])
        out = pd.DataFrame(
            {
                "source": np.full(starts.size, source, dtype=object),
                "bucket_ts": b[starts],
                "tok": cs[ends] - cs[starts],
            }
        )
        return _string_typed_if_empty(out)

    tier = _run_per_source(input_path, step_sums, check_tokens=check_tokens)

    def share_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["bucket_ts", "source"], kind="mergesort")
        tot = g.groupby("bucket_ts")["tok"].transform("sum").to_numpy(np.int64)
        # zero-total buckets (possible with empty token arrays) have no
        # defined share; dropped on both sides (oracle: WHERE total > 0)
        keep = tot > 0
        g, tot = g[keep], tot[keep]
        tok = g["tok"].to_numpy(np.int64)
        share = _round6_half_up(tok.astype(np.float64) / tot.astype(np.float64))
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": g["source"].to_numpy(),
                    "bucket_ts": g["bucket_ts"].to_numpy(np.int64),
                    "tok": tok,
                    "bucket_tok": tot,
                    "share": share,
                }
            )
        )

    return coarse_map_groups(tier, "bucket_ts", share_group, n_buckets=n_buckets)


def _seasonality_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    y = obs["sum"].to_numpy(np.int64)
    n = y.size
    hod = (ts % 86400) // 3600
    S = int(y.sum())
    Q = int(np.dot(y, y))
    # total sum of squares about the global mean, exact via cross-multiply
    sst_num = n * Q - S * S  # = n^2 * SST, exact int
    if n < 2 or sst_num <= 0:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "n_buckets": pd.Series([], dtype=np.int64),
                    "n_hods": pd.Series([], dtype=np.int64),
                    "strength": pd.Series([], dtype=np.float64),
                }
            )
        )
    # within-hod sum of squares: SSW = sum_h (Q_h - S_h^2 / n_h), summed
    # in hod-ascending order (float term order pinned; the SQL SUM over
    # <= 24 per-hod terms differs ~1e-15 relative, absorbed by round6)
    order = np.argsort(hod, kind="stable")
    hs = hod[order]
    ys = y[order]
    starts = np.flatnonzero(np.r_[True, hs[1:] != hs[:-1]])
    ends = np.r_[starts[1:], hs.size]
    ssw = 0.0
    for s0, e0 in zip(starts, ends):  # <= 24 iterations
        seg = ys[s0:e0]
        nh = int(e0 - s0)
        Sh = int(seg.sum())
        Qh = int(np.dot(seg, seg))
        ssw += float(Qh) - float(Sh * Sh) / nh
    # strength = 1 - SSW / SST with SST = sst_num / n (one pinned chain)
    strength = 1.0 - ssw / (float(sst_num) / n)
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_buckets": np.array([n], dtype=np.int64),
            "n_hods": np.array([starts.size], dtype=np.int64),
            "strength": _round6_half_up(np.array([strength])),
        }
    )


def seasonality_strength(input_path, *, check_tokens: bool = False):
    """Per-source daily-seasonality strength: the fraction of the 1m
    token-sum variance explained by the hour-of-day profile
    (``1 - SS_within_hod / SS_total``, the eta-squared of the hod
    grouping) — the "is the hourly profile real signal or noise" score
    read before trusting `hourly_profile` / `seasonal_anomaly` downstream.
    Per-hod and total moments are exact integers; the only floats are one
    ``Q_h - S_h^2/n_h`` term per hod (summed in hod order) and the final
    pinned ratio, under the shared round6 absorber (the SQL oracle's SUM
    over the same <= 24 terms differs ~1e-15 relative, absorbed).
    Constant or single-bucket sources are omitted (SST = 0)."""
    return _run_per_source(
        input_path,
        _seasonality_one_source,
        check_tokens=check_tokens,
    )


def _drawdown_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    if ts.size == 0:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "n_buckets": pd.Series([], dtype=np.int64),
                    "peak_tok": pd.Series([], dtype=np.int64),
                    "trough_tok": pd.Series([], dtype=np.int64),
                    "drawdown_tok": pd.Series([], dtype=np.int64),
                    "trough_ts": pd.Series([], dtype=np.int64),
                }
            )
        )
    peak = np.maximum.accumulate(s)
    dd = peak - s
    i = int(np.argmax(dd))  # first index attaining the max (deterministic)
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_buckets": np.array([ts.size], dtype=np.int64),
            "peak_tok": np.array([peak[i]], dtype=np.int64),
            "trough_tok": np.array([s[i]], dtype=np.int64),
            "drawdown_tok": np.array([dd[i]], dtype=np.int64),
            "trough_ts": np.array([ts[i]], dtype=np.int64),
        }
    )


def max_drawdown(input_path, *, check_tokens: bool = False):
    """Per-source maximum drawdown of the 1m token-sum series: the largest
    running-peak-to-current decline over observed buckets in time order
    (the "how far below its historical best did this feed fall" health
    metric). All integer arithmetic — running max, difference, first
    argmax — so the result is hash-exact against the SQL window oracle
    with no rounding absorber at all."""
    return _run_per_source(
        input_path,
        _drawdown_one_source,
        check_tokens=check_tokens,
    )


def _contiguous_triples(ts: np.ndarray, s: np.ndarray, step: int = 60):
    """(y0, y1, y2) columns for every run of three consecutive observed
    buckets exactly ``step`` apart — the lag-matrix contract used by the
    AR / ordinal-pattern operators (gaps break triples, never bridge)."""
    if ts.size < 3:
        z = np.empty(0, np.int64)
        return z, z, z
    ok = (ts[1:-1] - ts[:-2] == step) & (ts[2:] - ts[1:-1] == step)
    idx = np.flatnonzero(ok)
    return s[idx], s[idx + 1], s[idx + 2]


def _ar2_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    y2_, y1_, y0_ = _contiguous_triples(ts, s)  # y0_ is the target y_t
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_triples": pd.Series([], dtype=np.int64),
                "c0": pd.Series([], dtype=np.float64),
                "a1": pd.Series([], dtype=np.float64),
                "a2": pd.Series([], dtype=np.float64),
            }
        )
    )
    n = int(y0_.size)
    if n < 3:
        return empty
    # exact integer normal-equation moments (object dtype: no int64
    # overflow at any scale; n per source is bounded by the series length)
    y0 = y0_.astype(object)
    y1 = y1_.astype(object)
    y2 = y2_.astype(object)
    S1 = int(y1.sum())
    S2 = int(y2.sum())
    S0 = int(y0.sum())
    S11 = int((y1 * y1).sum())
    S22 = int((y2 * y2).sum())
    S12 = int((y1 * y2).sum())
    S01 = int((y0 * y1).sum())
    S02 = int((y0 * y2).sum())
    # OLS y_t ~ c0 + a1*y_{t-1} + a2*y_{t-2}; X'X is integer, so all four
    # Cramer determinants are EXACT integers (Python bigint) — the only
    # floats are the three final divisions (one pinned op each).
    #   | n   S1   S2  | |c0|   |S0 |
    #   | S1  S11  S12 | |a1| = |S01|
    #   | S2  S12  S22 | |a2|   |S02|
    def det3(a, b, c, d, e, f, g, h, i):
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    D = det3(n, S1, S2, S1, S11, S12, S2, S12, S22)
    if D == 0:
        return empty  # degenerate (constant / collinear lags)
    D0 = det3(S0, S1, S2, S01, S11, S12, S02, S12, S22)
    D1 = det3(n, S0, S2, S1, S01, S12, S2, S02, S22)
    D2 = det3(n, S1, S0, S1, S11, S01, S2, S12, S02)
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_triples": np.array([n], dtype=np.int64),
            "c0": _round6_half_up(np.array([float(D0) / float(D)])),
            "a1": _round6_half_up(np.array([float(D1) / float(D)])),
            "a2": _round6_half_up(np.array([float(D2) / float(D)])),
        }
    )


def ar2_fit(input_path, *, check_tokens: bool = False):
    """Per-source AR(2) fit of the 1m token sums by OLS over contiguous
    observed triples (both gaps exactly 60 s; gaps break triples rather
    than bridging them): y_t = c0 + a1*y_{t-1} + a2*y_{t-2}. The integer
    Gram matrix makes every Cramer determinant an exact Python bigint;
    the only floating-point operations in the whole operator are the
    three final D_k/D divisions (then the engine-wide round6), so the
    DuckDB oracle — the same HUGEINT determinants, same single division
    — matches bit-for-bit. Degenerate systems (constant series,
    collinear lags, n_triples < 3) are omitted."""
    return _run_per_source(
        input_path,
        _ar2_one_source,
        check_tokens=check_tokens,
    )


def _perm_entropy_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    y0, y1, y2 = _contiguous_triples(ts, s)
    n = int(y0.size)
    if n == 0:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "n_triples": pd.Series([], dtype=np.int64),
                    "n_patterns": pd.Series([], dtype=np.int64),
                    "perm_entropy": pd.Series([], dtype=np.float64),
                }
            )
        )
    # ordinal pattern of (y0, y1, y2) with ties broken by position (the
    # stable-argsort convention): rank_i = #{j: y_j < y_i} + #{j<i: y_j == y_i}
    r0 = (y1 < y0).astype(np.int64) + (y2 < y0).astype(np.int64)
    r1 = (
        (y0 < y1).astype(np.int64)
        + (y2 < y1).astype(np.int64)
        + (y0 == y1).astype(np.int64)
    )
    r2 = (
        (y0 < y2).astype(np.int64)
        + (y1 < y2).astype(np.int64)
        + (y0 == y2).astype(np.int64)
        + (y1 == y2).astype(np.int64)
    )
    pat = 9 * r0 + 3 * r1 + r2
    counts = np.bincount(pat, minlength=27).astype(np.int64)
    nz = np.flatnonzero(counts)  # ascending pattern id: pinned term order
    # H = -sum p*ln(p), normalized by ln(6) (the 3-element pattern count)
    h = 0.0
    for k in nz:  # <= 6 live patterns (ranks are a permutation of 0..2)
        p = float(int(counts[k])) / float(n)
        h -= p * math.log(p)
    pe = h / math.log(6.0)
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_triples": np.array([n], dtype=np.int64),
            "n_patterns": np.array([nz.size], dtype=np.int64),
            "perm_entropy": _round6_half_up(np.array([pe])),
        }
    )


def permutation_entropy(input_path, *, check_tokens: bool = False):
    """Per-source normalized permutation entropy (Bandt–Pompe, order 3)
    of the 1m token sums: the Shannon entropy of the ordinal-pattern
    census over contiguous observed triples, normalized by ln(3!) —
    near 1 for noise, near 0 for strongly ordered dynamics. Ties break
    by position (stable ranking), the census is exact integers, and the
    entropy sums its <= 6 ``-p ln p`` terms in ascending pattern id so
    the SQL oracle (same CASE ranking, same term order via a pattern-id
    GROUP BY) pins under round6."""
    return _run_per_source(
        input_path,
        _perm_entropy_one_source,
        check_tokens=check_tokens,
    )


def _variance_ratio_one_source(
    obs: pd.DataFrame, source: str, q: int
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_diffs": pd.Series([], dtype=np.int64),
                "n_qdiffs": pd.Series([], dtype=np.int64),
                "vr": pd.Series([], dtype=np.float64),
            }
        )
    )
    if ts.size < q + 1:
        return empty
    # 1-step diffs on contiguous pairs; q-step diffs on contiguous
    # (q+1)-windows. Buckets are strictly increasing multiples of 60, so
    # ts[i+q] - ts[i] == q*60 iff ALL q interior gaps are exactly 60.
    d1 = (s[1:] - s[:-1])[ts[1:] - ts[:-1] == 60].astype(object)
    dq = (s[q:] - s[:-q])[ts[q:] - ts[:-q] == q * 60].astype(object)
    n1, nq = int(d1.size), int(dq.size)
    if n1 < 2 or nq < 2:
        return empty
    S1, Q1 = int(d1.sum()), int((d1 * d1).sum())
    Sq, Qq = int(dq.sum()), int((dq * dq).sum())
    var1 = float(n1 * Q1 - S1 * S1) / float(n1 * n1)
    if var1 == 0.0:
        return empty
    varq = float(nq * Qq - Sq * Sq) / float(nq * nq)
    vr = varq / (float(q) * var1)
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_diffs": np.array([n1], dtype=np.int64),
            "n_qdiffs": np.array([nq], dtype=np.int64),
            "vr": _round6_half_up(np.array([vr])),
        }
    )


def variance_ratio(input_path, *, q: int = 4, check_tokens: bool = False):
    """Per-source Lo–MacKinlay variance ratio VR(q) of the 1m token-sum
    increments: population variance of q-step changes over q times the
    variance of 1-step changes, both restricted to contiguous observed
    windows (a gap breaks the window, never bridges). VR ~ 1 for a random
    walk, > 1 under momentum/trend, < 1 under mean reversion. Both
    variances come from exact integer power sums via the pinned
    cross-multiplied form (the burstiness chain); the only floats are the
    two variance chains and the final ratio, shared with the SQL oracle
    under round6. Sources with fewer than two diffs at either horizon or
    zero 1-step variance are omitted."""
    from datafiller_ray.config import EngineValueError

    if q < 2:
        raise EngineValueError(f"q must be >= 2, got {q}")
    return _run_per_source(
        input_path,
        lambda obs, src: _variance_ratio_one_source(obs, src, q),
        check_tokens=check_tokens,
    )


def _croston_one_source(
    obs: pd.DataFrame, source: str, alpha: float, min_demands: int
) -> pd.DataFrame:
    """Croston's method for one intermittent source: two simple
    exponential smoothers, one over demand SIZES (the observed 1m sums),
    one over inter-demand INTERVALS (grid steps between consecutive
    observed buckets). Init z = first size, p = first interval; each
    subsequent demand updates both (the first interval seeds p and is
    then also the first update, the standard convention — pinned here
    and replayed by the vendored oracle fills.croston_recursion).
    Forecast per grid step = z / p."""
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    n = int(ts.size)
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_demands": pd.Series([], dtype=np.int64),
                "size_hat": pd.Series([], dtype=np.float64),
                "interval_hat": pd.Series([], dtype=np.float64),
                "forecast": pd.Series([], dtype=np.float64),
            }
        )
    )
    if n < min_demands:
        return empty
    iv = ((ts[1:] - ts[:-1]) // 60).astype(np.int64)
    z = float(s[0])
    p = float(iv[0])
    for i in range(1, n):
        z = alpha * float(s[i]) + (1.0 - alpha) * z
        p = alpha * float(iv[i - 1]) + (1.0 - alpha) * p
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_demands": np.array([n], dtype=np.int64),
            "size_hat": _round6_half_up(np.array([z])),
            "interval_hat": _round6_half_up(np.array([p])),
            "forecast": _round6_half_up(np.array([z / p])),
        }
    )


def croston_forecast(
    input_path,
    *,
    alpha: float = 0.1,
    min_demands: int = 3,
    check_tokens: bool = False,
):
    """Per-source Croston intermittent-demand forecast — the forecaster
    built for EXACTLY the sparse feeds where EWMA/Holt over the dense
    grid degenerate (mostly-missing minutes): smooth demand sizes and
    inter-demand gaps separately, forecast tokens-per-minute = size/gap.
    See :func:`_croston_one_source` for the pinned recursion."""
    from datafiller_ray.config import EngineValueError

    if not (0.0 < alpha <= 1.0):
        raise EngineValueError(f"alpha must be in (0, 1], got {alpha}")
    if min_demands < 2:
        raise EngineValueError(f"min_demands must be >= 2, got {min_demands}")
    return _run_per_source(
        input_path,
        lambda obs, src: _croston_one_source(obs, src, alpha, min_demands),
        check_tokens=check_tokens,
    )


def _conformal_one_source(
    obs: pd.DataFrame, source: str, season: int, level: float, min_pairs: int
) -> pd.DataFrame:
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_pairs": pd.Series([], dtype=np.int64),
                "qhat": pd.Series([], dtype=np.float64),
                "coverage": pd.Series([], dtype=np.float64),
            }
        )
    )
    s = obs["sum"].to_numpy(np.int64)
    if s.size <= season:
        return empty
    r = np.abs(s[season:] - s[:-season])
    n = int(r.size)
    if n < min_pairs:
        return empty
    qhat = _interp_quantile(np.sort(r).astype(np.float64), level)
    cov = int((r.astype(np.float64) <= qhat).sum())
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_pairs": np.array([n], dtype=np.int64),
            "qhat": _round6_half_up(np.array([qhat])),
            "coverage": _round6_half_up(
                np.array([float(cov) / float(n)])
            ),
        }
    )


def forecast_interval(
    input_path,
    *,
    season: int = 60,
    level: float = 0.9,
    min_pairs: int = 10,
    check_tokens: bool = False,
):
    """Per-source split-conformal interval width for the seasonal-naive
    forecast: the absolute residuals |y_t - y_{t-season rows}| of the
    lag-``season`` predictor (the ``seasonal_naive_mase`` forecaster),
    summarized by qhat = the ``level`` empirical quantile (the shared
    quantile_cont interpolation rule) — "the ±qhat band catches ``level``
    of this feed's hour-over-hour moves" — plus the in-sample coverage
    (fraction of residuals <= qhat, compared on the UNROUNDED qhat so
    both oracle sides count identically). Residuals are exact integers;
    the only floats are the one quantile interpolation and the one
    coverage division."""
    from datafiller_ray.config import EngineValueError

    if season < 1:
        raise EngineValueError(f"season must be >= 1, got {season}")
    if not (0.0 < level < 1.0):
        raise EngineValueError(f"level must be in (0, 1), got {level}")
    if min_pairs < 2:
        raise EngineValueError(f"min_pairs must be >= 2, got {min_pairs}")
    return _run_per_source(
        input_path,
        lambda obs, src: _conformal_one_source(
            obs, src, season, level, min_pairs
        ),
        check_tokens=check_tokens,
    )


def _isotonic_one_source(
    obs: pd.DataFrame, source: str, step: int
) -> pd.DataFrame:
    """Non-decreasing isotonic fit (pool-adjacent-violators) of the
    ``step``-grain token sums of one source. Every merge decision is the
    EXACT integer cross-multiplication ``sum_prev * n_cur > sum_cur *
    n_prev`` (Python bigints — no float mean ever enters the algorithm),
    so pool boundaries are bit-deterministic; the only float per pool is
    the closing ``sum / n`` fitted level (round6). The vendored oracle
    (tests/oracle/fills.pava_pools) replays the identical stack algorithm."""
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    b = ts - ts % step
    starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
    ends = np.r_[starts[1:], b.size]
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(s)])
    bt = b[starts]
    y = cs[ends] - cs[starts]
    n = bt.size
    if n == 0:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "start_ts": pd.Series([], dtype=np.int64),
                    "end_ts": pd.Series([], dtype=np.int64),
                    "n_steps": pd.Series([], dtype=np.int64),
                    "pool_sum": pd.Series([], dtype=np.int64),
                    "fitted": pd.Series([], dtype=np.float64),
                }
            )
        )
    # PAVA stack: (pool_sum, pool_n, first_bucket_idx); merge while the
    # previous pool's mean strictly exceeds the current's
    pools: "list[list[int]]" = []
    for i in range(n):
        pools.append([int(y[i]), 1, i])
        while (
            len(pools) >= 2
            and pools[-2][0] * pools[-1][1] > pools[-1][0] * pools[-2][1]
        ):
            sm, cnt, first = pools.pop()
            pools[-1][0] += sm
            pools[-1][1] += cnt
    out_start, out_end, out_n, out_sum, out_fit = [], [], [], [], []
    for k, (sm, cnt, first) in enumerate(pools):
        out_start.append(int(bt[first]))
        last = pools[k + 1][2] - 1 if k + 1 < len(pools) else n - 1
        out_end.append(int(bt[last]))
        out_n.append(cnt)
        out_sum.append(sm)
        out_fit.append(float(sm) / float(cnt))
    return pd.DataFrame(
        {
            "source": np.full(len(pools), source, dtype=object),
            "start_ts": np.asarray(out_start, dtype=np.int64),
            "end_ts": np.asarray(out_end, dtype=np.int64),
            "n_steps": np.asarray(out_n, dtype=np.int64),
            "pool_sum": np.asarray(out_sum, dtype=np.int64),
            "fitted": _round6_half_up(np.asarray(out_fit, dtype=np.float64)),
        }
    )


def isotonic_fit(
    input_path,
    *,
    step: int = 3600,
    check_tokens: bool = False,
):
    """Per-source non-decreasing isotonic regression of the hourly token
    sums via pool-adjacent-violators — the monotone-trend fit that
    ``source_trend`` (OLS line) and ``theilsen_trend_1h`` (robust line)
    can't express: a step function of maximal-likelihood plateau levels.
    One row per pool; a series already non-decreasing returns one pool
    per bucket, a decreasing one collapses to a single global-mean pool.
    See :func:`_isotonic_one_source` for the exactness contract."""
    from datafiller_ray.config import EngineValueError

    if step < 60 or step % 60:
        raise EngineValueError(
            f"step must be a positive multiple of 60, got {step}"
        )
    return _run_per_source(
        input_path,
        lambda obs, src: _isotonic_one_source(obs, src, step),
        check_tokens=check_tokens,
    )


def _binseg_best_split(
    S: "list[int]", lo: int, hi: int, min_size: int
) -> "tuple[int, int, int] | None":
    """Best split of segment [lo, hi) by SSE gain, decided EXACTLY on
    integers. With prefix sums S, the split at t maximizes
    val(t) = S_l^2/n_l + S_r^2/n_r; candidates compare by the
    cross-multiplied bigint form (positive denominators), ties to the
    earliest t. Returns (t, num, den) where num/den is val_best as an
    exact fraction, or None when the segment is too short."""
    n = hi - lo
    if n < 2 * min_size:
        return None
    best = None  # (num, den, t)
    s_all = S[hi] - S[lo]
    for t in range(lo + min_size, hi - min_size + 1):
        nl = t - lo
        nr = hi - t
        sl = S[t] - S[lo]
        sr = s_all - sl
        num = sl * sl * nr + sr * sr * nl
        den = nl * nr
        if best is None or num * best[1] > best[0] * den:
            best = (num, den, t)
    if best is None:
        return None
    return best[2], best[0], best[1]


def _binseg_one_source(
    obs: pd.DataFrame, source: str, step: int, k: int, min_size: int
) -> pd.DataFrame:
    """Top-k level-shift changepoints of one source's ``step``-grain sums
    by binary segmentation: repeatedly split the segment whose best split
    yields the largest SSE reduction. EVERY comparison — best split
    within a segment, best segment across the queue, and the stop rule
    gain > 0 — is exact bigint cross-multiplication on the fraction
    gain = (S_l^2 n_r + S_r^2 n_l)/(n_l n_r) - S^2/n, so the emitted
    changepoint set is bit-deterministic; the only floats are the k
    reported gain values (one num/den division each, round6). The
    vendored oracle (tests/oracle/fills.binseg_points) replays the
    identical algorithm."""
    from fractions import Fraction

    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    b = ts - ts % step
    starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
    ends = np.r_[starts[1:], b.size]
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(s)])
    bt = b[starts]
    y = (cs[ends] - cs[starts]).tolist()
    n = len(y)
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "rank": pd.Series([], dtype=np.int64),
                "cp_ts": pd.Series([], dtype=np.int64),
                "gain": pd.Series([], dtype=np.float64),
            }
        )
    )
    if n < 2 * min_size:
        return empty
    S = [0]
    for v in y:
        S.append(S[-1] + int(v))
    segs = [(0, n)]
    out_rank, out_ts, out_gain = [], [], []
    for rank in range(1, k + 1):
        best = None  # (gain Fraction, t, seg_idx)
        for si, (lo, hi) in enumerate(segs):
            r = _binseg_best_split(S, lo, hi, min_size)
            if r is None:
                continue
            t, num, den = r
            s_all = S[hi] - S[lo]
            gain = Fraction(num, den) - Fraction(s_all * s_all, hi - lo)
            if best is None or gain > best[0] or (
                gain == best[0] and t < best[1]
            ):
                best = (gain, t, si)
        if best is None or best[0] <= 0:
            break
        gain, t, si = best
        lo, hi = segs.pop(si)
        segs.extend([(lo, t), (t, hi)])
        out_rank.append(rank)
        out_ts.append(int(bt[t]))
        out_gain.append(
            float(gain.numerator) / float(gain.denominator)
        )
    if not out_rank:
        return empty
    return pd.DataFrame(
        {
            "source": np.full(len(out_rank), source, dtype=object),
            "rank": np.asarray(out_rank, dtype=np.int64),
            "cp_ts": np.asarray(out_ts, dtype=np.int64),
            "gain": _round6_half_up(np.asarray(out_gain, dtype=np.float64)),
        }
    )


def binseg_changepoints(
    input_path,
    *,
    step: int = 3600,
    k: int = 3,
    min_size: int = 2,
    check_tokens: bool = False,
):
    """Per-source top-k level-shift changepoints by exact-arithmetic
    binary segmentation over the hourly token sums — the multi-shift
    complement of ``cusum_changepoints`` (one drift statistic) and
    ``anomaly_intervals`` (pointwise outliers): WHERE the mean level
    moved, ranked by SSE reduction. See :func:`_binseg_one_source`."""
    from datafiller_ray.config import EngineValueError

    if step < 60 or step % 60:
        raise EngineValueError(
            f"step must be a positive multiple of 60, got {step}"
        )
    if k < 1:
        raise EngineValueError(f"k must be >= 1, got {k}")
    if min_size < 1:
        raise EngineValueError(f"min_size must be >= 1, got {min_size}")
    return _run_per_source(
        input_path,
        lambda obs, src: _binseg_one_source(obs, src, step, k, min_size),
        check_tokens=check_tokens,
    )


def _kalman_one_source(
    obs: pd.DataFrame, source: str, lam: float
) -> pd.DataFrame:
    """Local-level Kalman filter + RTS smoother over the dense 1m grid of
    one source. State x_t = x_{t-1} + w (var q), observation y_t = x_t + v
    (var r), parameterized by the signal-to-noise ratio lam = q/r with
    everything in r=1 units. Missing minutes take the predict step only
    (no update) — the probabilistic gap fill: the smoother interpolates
    through gaps with uncertainty-weighted blending of both neighbors,
    unlike LOCF (past only) or linear (ignores noise). Init is x = y_0,
    P = 1 at the first observed bucket (the grid starts there by
    construction). The recursion is inherently sequential — it runs as a
    per-source scalar pass inside the one exchange (the holt/cusum
    precedent) and is mirrored bit-for-bit by the vendored oracle
    (tests/oracle/fills.kalman_rts)."""
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    if ts.size < 2:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "bucket_ts": pd.Series([], dtype=np.int64),
                    "observed": pd.Series([], dtype=np.int64),
                    "smooth_tok": pd.Series([], dtype=np.float64),
                }
            )
        )
    grid = np.arange(ts[0], ts[-1] + 60, 60, dtype=np.int64)
    n = grid.size
    y = np.full(n, np.nan, dtype=np.float64)
    y[(ts - ts[0]) // 60] = s.astype(np.float64)
    obs_mask = ~np.isnan(y)
    xf = np.empty(n)
    Pf = np.empty(n)
    xp = np.empty(n)
    Pp = np.empty(n)
    x = float(y[0])
    P = 1.0
    xf[0] = x
    Pf[0] = P
    xp[0] = x
    Pp[0] = P
    for t in range(1, n):
        px = x
        pP = P + lam
        xp[t] = px
        Pp[t] = pP
        if obs_mask[t]:
            K = pP / (pP + 1.0)
            x = px + K * (float(y[t]) - px)
            P = (1.0 - K) * pP
        else:
            x = px
            P = pP
        xf[t] = x
        Pf[t] = P
    xs = np.empty(n)
    xs[n - 1] = xf[n - 1]
    for t in range(n - 2, -1, -1):
        C = Pf[t] / Pp[t + 1]
        xs[t] = xf[t] + C * (xs[t + 1] - xp[t + 1])
    return pd.DataFrame(
        {
            "source": np.full(n, source, dtype=object),
            "bucket_ts": grid,
            "observed": obs_mask.astype(np.int64),
            "smooth_tok": _round6_half_up(xs),
        }
    )


def kalman_fill(
    input_path,
    *,
    lam: float = 0.5,
    check_tokens: bool = False,
):
    """Per-source local-level Kalman filter + RTS smoother gap fill over
    the dense 1m grid — see :func:`_kalman_one_source`. ``lam`` is the
    process/measurement variance ratio q/r: small lam trusts the level
    (heavy smoothing), large lam tracks the data. Sources with fewer than
    2 observed buckets are omitted (no dynamics to estimate)."""
    from datafiller_ray.config import EngineValueError

    if not (lam > 0.0):
        raise EngineValueError(f"lam must be > 0, got {lam!r}")
    return _run_per_source(
        input_path,
        lambda obs, src: _kalman_one_source(obs, src, lam),
        check_tokens=check_tokens,
    )


_SCALING_QS = (1, 2, 4, 8)


def _scaling_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    """Diffusion scaling exponent (Hurst estimate) of the 1m token-sum
    increments: population variance of q-step contiguous changes for
    q in {1,2,4,8}, then the OLS slope of log2(var_q) on log2(q) over the
    four points. The x design is EXACT integers (log2 q = 0,1,2,3 ->
    Sx=6, Sxx=14, denom = 4*14-6*6 = 20), so the only floats are the four
    pinned variance chains (the variance_ratio expression), four log2
    calls, and one left-associated slope chain — all mirrored
    token-for-token by the SQL oracle. H ~ 0.5 for a random walk, > 0.5
    persistent, < 0.5 anti-persistent; ~0 for iid levels (variance of
    q-diffs flat in q). Sources missing any q (short series, gaps) or
    with a non-positive variance at any q are omitted."""
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_buckets": pd.Series([], dtype=np.int64),
                "n_diffs": pd.Series([], dtype=np.int64),
                "hurst": pd.Series([], dtype=np.float64),
            }
        )
    )
    ys = []
    n1 = 0
    for q in _SCALING_QS:
        if ts.size < q + 1:
            return empty
        d = (s[q:] - s[:-q])[ts[q:] - ts[:-q] == q * 60].astype(object)
        nq = int(d.size)
        if nq < 2:
            return empty
        Sq, Qq = int(d.sum()), int((d * d).sum())
        var = float(nq * Qq - Sq * Sq) / float(nq * nq)
        if var <= 0.0:
            return empty
        ys.append(math.log2(var))
        if q == 1:
            n1 = nq
    y1, y2, y4, y8 = ys
    sxy = (y2 + 2.0 * y4) + 3.0 * y8
    sy = ((y1 + y2) + y4) + y8
    slope2 = (4.0 * sxy - 6.0 * sy) / 20.0
    hurst = slope2 / 2.0
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_buckets": np.array([int(ts.size)], dtype=np.int64),
            "n_diffs": np.array([n1], dtype=np.int64),
            "hurst": _round6_half_up(np.array([hurst])),
        }
    )


def scaling_exponent(input_path, *, check_tokens: bool = False):
    """Per-source Hurst-style diffusion scaling exponent — see
    :func:`_scaling_one_source`. The aggregated-variance complement of
    ``variance_ratio``: VR(q) tests one horizon pair, this fits the whole
    log-log scaling law var(q) ~ q^{2H} across q in {1,2,4,8}."""
    return _run_per_source(
        input_path,
        _scaling_one_source,
        check_tokens=check_tokens,
    )


def _burst_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    n = int(ts.size)
    if n == 0:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "n_buckets": pd.Series([], dtype=np.int64),
                    "start_ts": pd.Series([], dtype=np.int64),
                    "end_ts": pd.Series([], dtype=np.int64),
                    "burst_n": pd.Series([], dtype=np.int64),
                    "burst_dev": pd.Series([], dtype=np.int64),
                    "mean_excess": pd.Series([], dtype=np.float64),
                }
            )
        )
    tot = int(s.sum())
    # deviations scaled by n so they stay integers: d_k = n*y_k - tot
    # (sum(d) == 0 by construction). int64 headroom: |prefix| <= n^2*max(y),
    # safe through ~1e5 buckets x 1e8 tokens/bucket.
    d = n * s - tot
    P = np.concatenate([np.zeros(1, np.int64), np.cumsum(d)])
    runmin = np.minimum.accumulate(P[:-1])  # min P[0..m]
    best = P[1:] - runmin  # best burst ending at row m (0-based)
    m = int(np.argmax(best))  # first argmax: earliest end
    a = int(np.argmin(P[: m + 1]))  # first argmin: earliest start
    burst_n = m + 1 - a
    burst_dev = int(P[m + 1] - P[a])
    mean_excess = float(burst_dev) / float(n * burst_n)
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_buckets": np.array([n], dtype=np.int64),
            "start_ts": np.array([ts[a]], dtype=np.int64),
            "end_ts": np.array([ts[m]], dtype=np.int64),
            "burst_n": np.array([burst_n], dtype=np.int64),
            "burst_dev": np.array([burst_dev], dtype=np.int64),
            "mean_excess": _round6_half_up(np.array([mean_excess])),
        }
    )


def busiest_burst(input_path, *, check_tokens: bool = False):
    """Per-source busiest burst: the contiguous run of observed 1m buckets
    maximizing total token activity ABOVE the source's own mean — the
    max-sum subarray (Kadane) of the mean-centered series, computed on
    deviations scaled by n (``n*y_k - total``) so every prefix stays an
    exact integer. Tie-break: earliest end, then earliest start (first
    argmax / first argmin), mirroring the SQL oracle's prefix-min window
    formulation. ``burst_dev`` is in n-scaled token units; ``mean_excess``
    (= burst_dev / (n * burst_n), the average tokens-per-bucket above the
    source mean) is the single float division, under round6."""
    return _run_per_source(
        input_path,
        _burst_one_source,
        check_tokens=check_tokens,
    )


def _harmonic_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    y = obs["sum"].to_numpy(np.int64).astype(np.float64)
    n = int(ts.size)
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_buckets": pd.Series([], dtype=np.int64),
                "amp_tok": pd.Series([], dtype=np.float64),
                "peak_hour": pd.Series([], dtype=np.float64),
                "r2": pd.Series([], dtype=np.float64),
            }
        )
    )
    if n < 3:
        return empty
    # PINNED CHAIN (mirrored verbatim by the vendored oracle,
    # tests/oracle/fills.py harmonic_fit): every sum is math.fsum —
    # exactly rounded, ORDER-INDEPENDENT — so the distributed engine and
    # the scalar oracle agree bit-for-bit without absorbers on the sums.
    theta = (2.0 * np.pi) * ((ts % 86400).astype(np.float64) / 86400.0)
    c = np.cos(theta)
    s = np.sin(theta)
    fs = math.fsum
    Sc, Ss = fs(c), fs(s)
    Scc, Sss, Scs = fs(c * c), fs(s * s), fs(c * s)
    Sy, Syc, Sys = fs(y), fs(y * c), fs(y * s)

    def det3(a, b, cc, d, e, f, g, h, i):
        return a * (e * i - f * h) - b * (d * i - f * g) + cc * (d * h - e * g)

    D = det3(float(n), Sc, Ss, Sc, Scc, Scs, Ss, Scs, Sss)
    if D == 0.0:
        return empty
    a0 = det3(Sy, Sc, Ss, Syc, Scc, Scs, Sys, Scs, Sss) / D
    b1 = det3(float(n), Sy, Ss, Sc, Syc, Scs, Ss, Sys, Sss) / D
    c1 = det3(float(n), Sc, Sy, Sc, Scc, Syc, Ss, Scs, Sys) / D
    amp = math.hypot(b1, c1)
    ph = math.atan2(c1, b1)
    if ph < 0.0:
        ph += 2.0 * math.pi
    peak_hour = ph * (12.0 / math.pi)
    resid = y - (a0 + b1 * c + c1 * s)
    sse = fs(resid * resid)
    ybar = Sy / float(n)
    dev = y - ybar
    sst = fs(dev * dev)
    if sst == 0.0:
        return empty
    r2 = 1.0 - sse / sst
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_buckets": np.array([n], dtype=np.int64),
            "amp_tok": _round6_half_up(np.array([amp])),
            "peak_hour": _round6_half_up(np.array([peak_hour])),
            "r2": _round6_half_up(np.array([r2])),
        }
    )


def harmonic_24h(input_path, *, check_tokens: bool = False):
    """Per-source least-squares fit of the single 24-hour harmonic
    ``y ~ a + b*cos(theta) + c*sin(theta)`` with ``theta = 2*pi *
    (ts mod 86400)/86400`` over observed 1m buckets: reports the
    amplitude, the peak time-of-day in hours, and the fraction of
    variance the daily sinusoid explains — the parametric complement of
    the non-parametric hour-of-day eta-squared (`seasonality_strength`).
    Full OLS (not a plain Fourier projection) because observed buckets
    are non-uniform, so cos/sin are not orthogonal over the sample.
    Every sum uses math.fsum (exactly rounded, order-independent),
    making the result reproducible across any block partitioning and
    bit-equal to the vendored scalar oracle. Degenerate fits (n < 3,
    singular normal matrix, zero variance) are omitted."""
    return _run_per_source(
        input_path,
        _harmonic_one_source,
        check_tokens=check_tokens,
    )


def _ntile_symbols(y: np.ndarray, ts: np.ndarray, k: int = 4) -> np.ndarray:
    """SQL NTILE(k) replica over ORDER BY (y, ts): the first ``n % k``
    tiles take ``n//k + 1`` rows, the rest ``n//k`` — exact integer
    bucketing, no quantile floats (ties deterministic via the ts
    tie-break)."""
    n = y.size
    order = np.lexsort((ts, y))
    q, r = divmod(n, k)
    sizes = np.full(k, q, dtype=np.int64)
    sizes[:r] += 1
    tiles = np.repeat(np.arange(k, dtype=np.int64), sizes)
    sym = np.empty(n, dtype=np.int64)
    sym[order] = tiles[:n]
    return sym


def _sax_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    if ts.size < 3:
        return pd.DataFrame(
            {
                "source": pd.Series([], dtype="string"),
                "motif": pd.Series([], dtype=np.int64),
                "cnt": pd.Series([], dtype=np.int64),
            }
        )
    sym = _ntile_symbols(s, ts, 4)
    s0, s1, s2 = _contiguous_triples(ts, sym)
    if s0.size == 0:
        return pd.DataFrame(
            {
                "source": pd.Series([], dtype="string"),
                "motif": pd.Series([], dtype=np.int64),
                "cnt": pd.Series([], dtype=np.int64),
            }
        )
    motif = 16 * s0 + 4 * s1 + s2
    counts = np.bincount(motif, minlength=64).astype(np.int64)
    nz = np.flatnonzero(counts)
    return pd.DataFrame(
        {
            "source": np.full(nz.size, source, dtype=object),
            "motif": nz.astype(np.int64),
            "cnt": counts[nz],
        }
    )


def sax_motifs(input_path, *, check_tokens: bool = False):
    """Per-source SAX-style motif census: each observed 1m bucket is
    symbolized into its within-source activity quartile (rank-based
    NTILE(4) bucketing — exact integers, no breakpoint floats, ties
    broken by bucket_ts), then every contiguous triple of buckets (both
    gaps exactly 60 s) becomes a 3-symbol motif id ``16*s0 + 4*s1 + s2``
    in [0, 64). The output is the (source, motif, cnt) census — the
    shape-vocabulary a motif-discovery / series-clustering layer consumes.
    Entirely integer arithmetic, hash-exact against the SQL NTILE oracle."""
    return _run_per_source(
        input_path,
        _sax_one_source,
        check_tokens=check_tokens,
    )


_PROFILE_PARTS = (
    # (kernel, columns lifted into the profile row)
    (_burstiness_one_source, ("mean_tok", "var_tok", "fano", "cv")),
    (_drawdown_one_source, ("drawdown_tok", "trough_ts")),
    (_seasonality_one_source, ("strength",)),
    (_perm_entropy_one_source, ("n_triples", "perm_entropy")),
    (_ar2_one_source, ("c0", "a1", "a2")),
    (lambda obs, src: _variance_ratio_one_source(obs, src, 4), ("vr",)),
    (_harmonic_one_source, ("amp_tok", "peak_hour", "r2")),
    (_burst_one_source, ("burst_dev", "mean_excess")),
)


def _fused_profile_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    row: dict = {
        "source": np.array([source], dtype=object),
        "n_buckets": np.array([len(obs)], dtype=np.int64),
    }
    for kernel, cols in _PROFILE_PARTS:
        part = kernel(obs, source)
        if len(part) != 1:
            # inner-join semantics: a source degenerate for ANY stat
            # (constant series, too few triples, singular fit) is omitted
            # from the profile — mirrors the SQL oracle's inner joins
            return _string_typed_if_empty(
                pd.DataFrame(
                    {
                        "source": pd.Series([], dtype=object),
                        "n_buckets": pd.Series([], dtype=np.int64),
                        **{
                            c: pd.Series(
                                [], dtype=np.int64 if c in _PROFILE_INT else np.float64
                            )
                            for _, cs in _PROFILE_PARTS
                            for c in cs
                        },
                    }
                )
            )
        for c in cols:
            row[c] = part[c].to_numpy()
    return pd.DataFrame(row)


_PROFILE_INT = {"drawdown_tok", "trough_ts", "n_triples", "burst_dev"}


def source_profile(input_path, *, check_tokens: bool = False):
    """Fused per-source statistical profile: dispersion (mean/var/Fano/CV),
    max drawdown, hour-of-day seasonality strength, permutation entropy,
    AR(2) coefficients, variance ratio VR(4), the 24h-harmonic fit, and
    the busiest-burst summary — ALL computed in ONE exchange. At 100 TB
    this is the difference between eight shuffles of the same partial
    rows and one: the per-source kernels run back-to-back on the combined
    group already in memory, so adding a statistic costs compute only,
    never another all-to-all. Sources degenerate for any component
    (constant series, too few contiguous triples, singular fits) are
    omitted — inner-join semantics, mirroring the SQL oracle."""
    return _run_per_source(
        input_path,
        _fused_profile_one_source,
        check_tokens=check_tokens,
    )


def _runs_test_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_kept": pd.Series([], dtype=np.int64),
                "n_above": pd.Series([], dtype=np.int64),
                "n_below": pd.Series([], dtype=np.int64),
                "n_runs": pd.Series([], dtype=np.int64),
                "z": pd.Series([], dtype=np.float64),
            }
        )
    )
    y = obs["sum"].to_numpy(np.int64).astype(np.float64)
    med = _interp_median(np.sort(y))
    kept = y[y != med]  # median-valued points drop, the classical rule
    if kept.size < 2:
        return empty
    s = (kept > med).astype(np.int64)
    n1 = int(s.sum())
    n2 = int(kept.size - n1)
    if n1 < 1 or n2 < 1:
        return empty
    n = n1 + n2
    runs = 1 + int((s[1:] != s[:-1]).sum())
    # pinned float chains, mirrored token-for-token in the SQL oracle
    var = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n) / (n * n * (n - 1.0))
    if not var > 0.0:
        return empty
    z = (runs - (1.0 + 2.0 * n1 * n2 / n)) / math.sqrt(var)
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_kept": np.array([n], dtype=np.int64),
            "n_above": np.array([n1], dtype=np.int64),
            "n_below": np.array([n2], dtype=np.int64),
            "n_runs": np.array([runs], dtype=np.int64),
            "z": _round6_half_up(np.array([z])),
        }
    )


def runs_test(input_path, *, check_tokens: bool = False):
    """Per-source Wald-Wolfowitz runs test of the 1m token-sum series
    against its own median (the "is this feed's level sequence random or
    streaky" diagnostic): median-valued buckets drop, the above/below
    indicator's run count R is exact-integer, and the normal z-score is
    ONE pinned float chain ``(R - mu) / sqrt(var)`` with
    ``mu = 1 + 2 n1 n2 / n`` and the classical variance, under the shared
    round6 absorber. Sources with a one-sided or sub-2 kept sequence (or
    zero variance) are omitted."""
    return _run_per_source(
        input_path,
        _runs_test_one_source,
        check_tokens=check_tokens,
    )


def _turning_points_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    y = obs["sum"].to_numpy(np.int64)
    n = int(y.size)
    if n < 3:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "n_buckets": pd.Series([], dtype=np.int64),
                    "n_turning": pd.Series([], dtype=np.int64),
                    "z": pd.Series([], dtype=np.float64),
                }
            )
        )
    d = np.diff(y)
    t = int(((d[:-1] * d[1:]) < 0).sum())  # strict extrema; plateaus no
    z = (t - 2.0 * (n - 2) / 3.0) / math.sqrt((16.0 * n - 29.0) / 90.0)
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_buckets": np.array([n], dtype=np.int64),
            "n_turning": np.array([t], dtype=np.int64),
            "z": _round6_half_up(np.array([z])),
        }
    )


def turning_points(input_path, *, check_tokens: bool = False):
    """Per-source turning-points randomness test over observed 1m token
    sums: count strict local extrema (``(y_t - y_{t-1})(y_{t+1} - y_t) <
    0`` — exact integer products), z-scored against the i.i.d.-sequence
    moments ``E = 2(n-2)/3``, ``Var = (16n-29)/90`` in one pinned float
    chain under round6. Complements runs_test (level streaks) with a
    local-oscillation view."""
    return _run_per_source(
        input_path,
        _turning_points_one_source,
        check_tokens=check_tokens,
    )


def _cox_stuart_one_source(obs: pd.DataFrame, source: str) -> pd.DataFrame:
    y = obs["sum"].to_numpy(np.int64)
    n = int(y.size)
    m = n // 2
    if m < 1:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "n_pairs": pd.Series([], dtype=np.int64),
                    "n_pos": pd.Series([], dtype=np.int64),
                    "n_neg": pd.Series([], dtype=np.int64),
                    "trend": pd.Series([], dtype=np.int64),
                }
            )
        )
    off = n - m  # odd n skips the middle observation, the classical rule
    d = y[off : off + m] - y[:m]
    n_pos = int((d > 0).sum())
    n_neg = int((d < 0).sum())
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_pairs": np.array([m], dtype=np.int64),
            "n_pos": np.array([n_pos], dtype=np.int64),
            "n_neg": np.array([n_neg], dtype=np.int64),
            "trend": np.array(
                [1 if n_pos > n_neg else (-1 if n_pos < n_neg else 0)],
                dtype=np.int64,
            ),
        }
    )


def cox_stuart(input_path, *, check_tokens: bool = False):
    """Per-source Cox-Stuart trend test over observed 1m token sums: pair
    each first-half bucket with its second-half counterpart (odd series
    drop the middle), count strictly-positive / strictly-negative
    differences (ties drop), and report the sign of the majority. ALL
    integer arithmetic — no float anywhere, hash-exact with no rounding
    absorber. The nonparametric sanity check read next to theilsen_trend
    / mann_kendall (which rank magnitudes; this one only signs)."""
    return _run_per_source(
        input_path,
        _cox_stuart_one_source,
        check_tokens=check_tokens,
    )


def _page_hinkley_one_source(
    obs: pd.DataFrame, source: str, delta: float, lam: float
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    x = obs["sum"].to_numpy(np.int64)
    n = int(x.size)
    if n == 0:
        return _string_typed_if_empty(
            pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "n_buckets": pd.Series([], dtype=np.int64),
                    "n_alarms": pd.Series([], dtype=np.int64),
                    "first_alarm_ts": pd.Series([], dtype=np.int64),
                    "max_ph": pd.Series([], dtype=np.float64),
                }
            )
        )
    t = np.arange(1, n + 1, dtype=np.float64)
    # cumulative int sum is exact; the per-step term and the m/min
    # accumulations are the classical sequential float recursion (numpy
    # cumsum/minimum.accumulate ARE that left-to-right recursion)
    term = x - np.cumsum(x) / t - delta
    m = np.cumsum(term)
    ph = m - np.minimum.accumulate(m)
    alarms = ph > lam
    n_alarms = int(alarms.sum())
    first_ts = int(ts[int(np.argmax(alarms))]) if n_alarms else -1
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_buckets": np.array([n], dtype=np.int64),
            "n_alarms": np.array([n_alarms], dtype=np.int64),
            "first_alarm_ts": np.array([first_ts], dtype=np.int64),
            "max_ph": _round6_half_up(np.array([float(ph.max())])),
        }
    )


def page_hinkley(
    input_path,
    *,
    delta: float = 0.0,
    lam: float = 1000.0,
    check_tokens: bool = False,
):
    """Per-source Page-Hinkley upward-drift detector over observed 1m
    token sums: the sequential-recursion drift statistic ``m_t = sum(y_i
    - mean_i - delta)`` with ``PH_t = m_t - min m``, alarms where
    ``PH_t > lam`` (the streaming change-detection complement of the
    offline binseg/cusum changepoints). The cumulative mean's numerator
    stays exact-int; the m/min recursions are the pinned sequential float
    chain shared bit-for-bit with the vendored scalar oracle
    (tests/oracle/fills.page_hinkley_path). Reports alarm count, first
    alarm bucket and the peak statistic per source."""
    from datafiller_ray.config import EngineValueError

    if lam < 0:
        raise EngineValueError(f"lam must be >= 0, got {lam}")
    return _run_per_source(
        input_path,
        lambda obs, src: _page_hinkley_one_source(obs, src, delta, lam),
        check_tokens=check_tokens,
    )


def _lomb_one_source(
    obs: pd.DataFrame, source: str, periods: "tuple[int, ...]"
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    yf = obs["sum"].to_numpy(np.int64).astype(np.float64)
    n = int(ts.size)
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "period_s": pd.Series([], dtype=np.int64),
                "n_buckets": pd.Series([], dtype=np.int64),
                "power": pd.Series([], dtype=np.float64),
            }
        )
    )
    if n < 3:
        return empty
    fs = math.fsum
    ybar = fs(yf) / float(n)
    d = yf - ybar
    var = fs(d * d) / float(n - 1)
    if var == 0.0:
        return empty
    # PINNED CHAIN (mirrored verbatim by the vendored oracle,
    # tests/oracle/fills.lomb_scargle_power): fsum sums are exactly
    # rounded and order-independent, every other op is elementwise in a
    # fixed order, so the distributed engine and the scalar oracle agree
    # bit-for-bit without absorbers on the sums.
    out_p, out_pow = [], []
    for period in periods:
        w = 2.0 * math.pi / float(period)
        ang = w * (ts % period).astype(np.float64)
        s2, c2 = np.sin(2.0 * ang), np.cos(2.0 * ang)
        tau_ang = 0.5 * math.atan2(fs(s2), fs(c2))
        ct = np.cos(ang - tau_ang)
        st = np.sin(ang - tau_ang)
        CC, SS = fs(ct * ct), fs(st * st)
        if CC == 0.0 or SS == 0.0:
            continue
        Cd, Sd = fs(d * ct), fs(d * st)
        out_p.append(period)
        out_pow.append(0.5 * (Cd * Cd / CC + Sd * Sd / SS) / var)
    if not out_p:
        return empty
    return pd.DataFrame(
        {
            "source": np.full(len(out_p), source, dtype=object),
            "period_s": np.asarray(out_p, dtype=np.int64),
            "n_buckets": np.full(len(out_p), n, dtype=np.int64),
            "power": _round6_half_up(np.asarray(out_pow, dtype=np.float64)),
        }
    )


def lomb_scargle(
    input_path,
    *,
    periods: "tuple[int, ...]" = (3600, 21600, 86400, 604800),
    check_tokens: bool = False,
):
    """Per-source Lomb-Scargle periodogram over the OBSERVED (gappy,
    unevenly spaced) 1m token sums — the spectral tool built for exactly
    this engine's input shape, since classical FFT periodograms need the
    dense grid the gap-fill stage exists to reconstruct. For each
    candidate period the variance-normalized power

        P(w) = [ (sum d cos w(t-tau))^2 / sum cos^2 w(t-tau)
               + (sum d sin w(t-tau))^2 / sum sin^2 w(t-tau) ] / (2 s^2)

    uses the classic phase shift tan(2 w tau) = sum sin 2wt / sum cos 2wt
    that makes the fit invariant to time origin (Lomb 1976, Scargle
    1982); P ~ 1 is noise, P >> 1 flags a real cycle at that period.
    Angles reduce ``ts mod period`` exactly in int64 before the float
    multiply, every sum is math.fsum (order-independent), and the single
    float chain per (source, period) is shared bit-for-bit with the
    vendored scalar oracle. Degenerate series (n < 3, zero variance) and
    degenerate periods (a zero cos/sin normal sum) are omitted.

    Output: (source, period_s, n_buckets, power)."""
    from datafiller_ray.config import EngineValueError

    if not periods or any(int(p) < 2 for p in periods):
        raise EngineValueError(f"periods must all be >= 2s, got {periods!r}")
    periods = tuple(int(p) for p in periods)
    return _run_per_source(
        input_path,
        lambda obs, src: _lomb_one_source(obs, src, periods),
        check_tokens=check_tokens,
    )


def _matprof_one_source(
    obs: pd.DataFrame, source: str, w: int
) -> pd.DataFrame:
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_hours": pd.Series([], dtype=np.int64),
                "n_windows": pd.Series([], dtype=np.int64),
                "motif_i_ts": pd.Series([], dtype=np.int64),
                "motif_j_ts": pd.Series([], dtype=np.int64),
                "motif_dist": pd.Series([], dtype=np.float64),
                "discord_ts": pd.Series([], dtype=np.int64),
                "discord_dist": pd.Series([], dtype=np.float64),
            }
        )
    )
    ts = obs["bucket_ts"].to_numpy(np.int64)
    y = obs["sum"].to_numpy(np.int64)
    # exact-int hourly fold of the observed minute sums
    hb = ts - ts % 3600
    hu, inv = np.unique(hb, return_inverse=True)
    hv = np.zeros(hu.size, dtype=np.int64)
    np.add.at(hv, inv, y)
    if hu.size < 2:
        return empty
    # dense hourly grid over [first, last] with PINNED linear interior
    # fill: val = yL + (yR - yL) * ((k - L) / (R - L)), float64, the same
    # expression the vendored oracle evaluates
    grid = np.arange(hu[0], hu[-1] + 3600, 3600, dtype=np.int64)
    n = grid.size
    idx = ((hu - hu[0]) // 3600).astype(np.int64)
    s = np.full(n, np.nan, dtype=np.float64)
    s[idx] = hv.astype(np.float64)
    obs_idx = idx
    for k in range(obs_idx.size - 1):
        L, R = int(obs_idx[k]), int(obs_idx[k + 1])
        if R - L > 1:
            yL, yR = s[L], s[R]
            ks = np.arange(L + 1, R, dtype=np.int64)
            s[ks] = yL + (yR - yL) * (
                (ks - L).astype(np.float64) / float(R - L)
            )
    m = n - w + 1
    if m < 2:
        return empty
    fs = math.fsum
    mu = np.empty(m)
    sig = np.empty(m)
    for i in range(m):
        win = s[i : i + w]
        mu[i] = fs(win) / float(w)
        dev = win - mu[i]
        sig[i] = math.sqrt(fs(dev * dev) / float(w))
    ok = sig > 0.0
    ez = w // 2  # trivial-match exclusion: pairs need j - i > w // 2
    dmin = ez + 1
    if m - dmin < 1:
        return empty
    # STOMP diagonals, vectorized ACROSS diagonals: one python step-loop,
    # each element's update chain identical to the scalar recursion
    # QT(i, i+d) = QT(i-1, i-1+d) - s[i-1] s[i-1+d] + s[i+w-1] s[i+d+w-1]
    dvec = np.arange(dmin, m, dtype=np.int64)
    qt = np.empty(dvec.size)
    for t in range(dvec.size):
        d = int(dvec[t])
        qt[t] = fs(s[0:w] * s[d : d + w])
    mp = np.full(m, np.inf)
    best = (np.inf, -1, -1)
    n_steps = int(m - dmin)  # i = 0 .. m-1-d valid per diagonal
    for i in range(n_steps):
        if i > 0:
            alive = dvec <= (m - 1 - i)
            qt[alive] = (
                qt[alive]
                - s[i - 1] * s[i - 1 + dvec[alive]]
                + s[i + w - 1] * s[i + dvec[alive] + w - 1]
            )
        else:
            alive = dvec <= (m - 1)
        j = i + dvec[alive]
        qa = qt[alive]
        vi = ok[i] & ok[j]
        if not np.any(vi):
            continue
        jj = j[vi]
        denom = (float(w) * sig[i]) * sig[jj]
        d2 = 2.0 * float(w) * (
            1.0 - (qa[vi] - float(w) * mu[i] * mu[jj]) / denom
        )
        dist = np.sqrt(np.maximum(d2, 0.0))
        # per-window running min (strict <, so the EARLIEST partner wins)
        lo = np.minimum.reduce(dist)
        if lo < best[0]:
            k = int(np.flatnonzero(dist == lo)[0])
            best = (float(lo), i, int(jj[k]))
        np.minimum.at(mp, np.full(jj.size, i), dist)
        np.minimum.at(mp, jj, dist)
    if best[1] < 0:
        return empty
    has = np.isfinite(mp) & ok
    if not np.any(has):
        return empty
    di = int(np.flatnonzero(has)[np.argmax(mp[has])])
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_hours": np.array([n], dtype=np.int64),
            "n_windows": np.array([m], dtype=np.int64),
            "motif_i_ts": np.array([grid[best[1]]], dtype=np.int64),
            "motif_j_ts": np.array([grid[best[2]]], dtype=np.int64),
            "motif_dist": _round6_half_up(np.array([best[0]])),
            "discord_ts": np.array([grid[di]], dtype=np.int64),
            "discord_dist": _round6_half_up(np.array([mp[di]])),
        }
    )


def matrix_profile(
    input_path,
    *,
    w: int = 24,
    check_tokens: bool = False,
):
    """Per-source matrix profile (Yeh et al. 2016, STOMP-ordered exact
    computation) over the linear-filled dense hourly token-sum grid: the
    z-normalized Euclidean distance between every pair of w-hour windows
    more than ``w // 2`` apart, reduced to the top MOTIF pair (most
    similar recurring shape — smallest distance, earliest pair on ties)
    and the top DISCORD (the window whose nearest neighbor is farthest —
    the engine's shape-based anomaly detector, complementing the
    pointwise MAD/seasonal detectors).

    Gaps are linear-filled on the hourly grid first (interior only, the
    pinned ``yL + (yR - yL) * k/(R - L)`` chain), so windows are
    well-defined everywhere; flat (zero-sigma) windows are excluded from
    both motif and discord. Window means/sigmas use per-window math.fsum
    and the diagonal dot products follow the documented STOMP recursion
    element-for-element, so the distributed engine and the vendored
    scalar oracle (tests/oracle/fills.matrix_profile_brute) agree
    bit-for-bit; distances surface under round6 half-up.

    Output: (source, n_hours, n_windows, motif_i_ts, motif_j_ts,
    motif_dist, discord_ts, discord_dist)."""
    from datafiller_ray.config import EngineValueError

    if w < 2:
        raise EngineValueError(f"w must be >= 2, got {w}")
    return _run_per_source(
        input_path,
        lambda obs, src: _matprof_one_source(obs, src, w),
        check_tokens=check_tokens,
    )


def _spectral_one_source(
    obs: pd.DataFrame, source: str, max_k: int
) -> pd.DataFrame:
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_slots": pd.Series([], dtype=np.int64),
                "n_active": pd.Series([], dtype=np.int64),
                "peak_k": pd.Series([], dtype=np.int64),
                "spectral_entropy": pd.Series([], dtype=np.float64),
            }
        )
    )
    ts = obs["bucket_ts"].to_numpy(np.int64)
    y = obs["sum"].to_numpy(np.int64).astype(np.float64)
    hb = ts - ts % 3600
    uh, inv = np.unique(hb, return_inverse=True)
    x = np.bincount(inv, weights=y)
    t0 = int(uh[0])
    n_slots = int((int(uh[-1]) - t0) // 3600) + 1
    k_max = min(max_k, (n_slots - 1) // 2)
    if k_max < 2:
        return empty
    idx = ((uh - t0) // 3600).astype(np.float64)
    # PINNED CHAIN (mirrored by the vendored oracle, tests/oracle/fills.py
    # spectral_entropy_stats): per-harmonic angle grid built as
    # (2*pi*k/T) * idx, fsum cos/sin projections, squared-modulus power.
    # Inactive hourly slots hold exact zeros, so summing over ACTIVE
    # slots only IS the dense-grid DFT, and the k=0 (mean) line is
    # orthogonal to every k >= 1 line in exact math — no centering pass.
    powers = []
    fs = math.fsum
    T = float(n_slots)
    for k in range(1, k_max + 1):
        ang = (2.0 * np.pi * float(k) / T) * idx
        cr = fs(x * np.cos(ang))
        ci = fs(x * np.sin(ang))
        powers.append(cr * cr + ci * ci)
    tot = fs(powers)
    # noise floor: a constant hourly series has zero AC power in exact
    # math but fsum residues ~ (n*eps*|x|)^2 in floats; the relative
    # guard (mirrored by the oracle) omits it deterministically
    scale = fs(np.abs(x))
    if tot <= (1e-9 * scale) ** 2:
        return empty
    pk = [pw / tot for pw in powers]
    ent = -fs(p * math.log(p) for p in pk if p > 0.0) / math.log(
        float(k_max)
    )
    peak_k = 1 + int(np.argmax(np.asarray(powers)))  # first max wins ties
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_slots": np.array([n_slots], dtype=np.int64),
            "n_active": np.array([uh.size], dtype=np.int64),
            "peak_k": np.array([peak_k], dtype=np.int64),
            "spectral_entropy": _round6_half_up(np.array([ent])),
        }
    )


def spectral_entropy(
    input_path,
    *,
    max_k: int = 12,
    check_tokens: bool = False,
):
    """Per-source normalized spectral entropy of the hourly token-sum
    series: DFT power at harmonics ``k = 1..min(max_k, (T-1)//2)`` over
    the dense hourly grid (T slots from the source's first to last
    active hour; missing hours are exact zeros, so only active hours
    enter the projections), normalized to a distribution and summarized
    as ``-sum p ln p / ln K`` in [0, 1]. Low entropy = one dominant
    periodicity (read next to ``dominant_period``'s ACF argmax and
    ``harmonic_24h``'s parametric fit); high entropy = broadband /
    aperiodic load. Also reports ``peak_k``, the dominant harmonic
    (ties to the smallest k — deterministic because the vendored oracle
    recomputes the identical fsum chain bit-for-bit).

    Sources whose span allows fewer than two harmonics, or with zero
    total AC power (constant hourly series), are omitted.

    Output: (source, n_slots, n_active, peak_k, spectral_entropy).
    """
    from datafiller_ray.config import EngineValueError

    if max_k < 2:
        raise EngineValueError(f"max_k must be >= 2, got {max_k}")
    return _run_per_source(
        input_path,
        lambda obs, src: _spectral_one_source(obs, src, max_k),
        check_tokens=check_tokens,
    )


def _hill_one_source(obs: pd.DataFrame, source: str, k: int) -> pd.DataFrame:
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_buckets": pd.Series([], dtype=np.int64),
                "hill": pd.Series([], dtype=np.float64),
                "tail_index": pd.Series([], dtype=np.float64),
            }
        )
    )
    s = obs["sum"].to_numpy(np.int64)
    n = int(s.size)
    if n < k + 1:
        return empty
    top = np.sort(s)[::-1][: k + 1].astype(np.float64)
    xk1 = float(top[k])
    if xk1 <= 0.0:
        return empty
    # PINNED CHAIN (mirrored by the SQL oracle): per-term LN(x_i) -
    # LN(x_{k+1}), fsum over the k largest, one division
    hill = math.fsum(np.log(top[:k]) - math.log(xk1)) / float(k)
    if hill <= 0.0:
        return empty  # all top-k equal the threshold: no tail to index
    return pd.DataFrame(
        {
            "source": np.array([source], dtype=object),
            "n_buckets": np.array([n], dtype=np.int64),
            "hill": _round6_half_up(np.array([hill])),
            "tail_index": _round6_half_up(np.array([1.0 / hill])),
        }
    )


def hill_tail(
    input_path,
    *,
    k: int = 20,
    check_tokens: bool = False,
):
    """Per-source Hill tail-index estimate over the observed 1m token
    sums (Hill 1975): ``hill = (1/k) sum_{i<=k} ln(x_(i) / x_(k+1))``
    over the k+1 largest bucket sums, and ``tail_index = 1/hill`` — the
    Pareto alpha of the load distribution's upper tail. Small alpha
    (< 2) means a genuinely heavy-tailed feed whose peak minutes
    dominate capacity planning; large alpha means the spikes read next
    to ``burstiness``/``busiest_burst`` are just Poisson noise. Order
    statistics are exact integers so the top-(k+1) multiset is
    deterministic under ties; sources shorter than k+1 buckets, with a
    zero threshold value, or with all top-k equal to the threshold are
    omitted.

    Output: (source, n_buckets, hill, tail_index).
    """
    from datafiller_ray.config import EngineValueError

    if k < 2:
        raise EngineValueError(f"k must be >= 2, got {k}")
    return _run_per_source(
        input_path,
        lambda obs, src: _hill_one_source(obs, src, k),
        check_tokens=check_tokens,
    )


def _theta_one_source(
    obs: pd.DataFrame, source: str, alpha: float, h: int
) -> pd.DataFrame:
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_buckets": pd.Series([], dtype=np.int64),
                "slope": pd.Series([], dtype=np.float64),
                **{
                    f"forecast_{k}": pd.Series([], dtype=np.float64)
                    for k in range(1, h + 1)
                },
            }
        )
    )
    y = obs["sum"].to_numpy(np.int64).astype(np.float64)
    n = int(y.size)
    if n < 3:
        return empty
    # PINNED CHAIN (mirrored by tests/oracle/fills.py theta_forecast_fit):
    # OLS of y on the 0-based observation index via fsum moments, the
    # theta=2 line z = 2y - (a + bt), one unadjusted SES recursion over z
    # (pandas' C ewm kernel == the scalar recursion bit-for-bit, the
    # holt_smooth precedent), then the 50/50 theta combination.
    t = np.arange(n, dtype=np.float64)
    fs = math.fsum
    st_, sy = fs(t), fs(y)
    stt, sty = fs(t * t), fs(t * y)
    den = float(n) * stt - st_ * st_  # > 0 for n >= 2 distinct indices
    b = (float(n) * sty - st_ * sy) / den
    a = (sy - b * st_) / float(n)
    z = 2.0 * y - (a + b * t)
    ses_last = float(
        pd.Series(z).ewm(alpha=alpha, adjust=False).mean().to_numpy()[-1]
    )
    row = {
        "source": np.array([source], dtype=object),
        "n_buckets": np.array([n], dtype=np.int64),
        "slope": _round6_half_up(np.array([b])),
    }
    for k in range(1, h + 1):
        f = 0.5 * (a + b * float(n - 1 + k)) + 0.5 * ses_last
        row[f"forecast_{k}"] = _round6_half_up(np.array([f]))
    return pd.DataFrame(row)


def theta_forecast(
    input_path,
    *,
    alpha: float = 0.5,
    horizon: int = 3,
    check_tokens: bool = False,
):
    """Theta-method forecast per source over the OBSERVED 1m token sums
    (Assimakopoulos & Nikolopoulos 2000 — the M3 winner; equivalently an
    SES-with-drift): decompose the series into the theta=0 line (the OLS
    trend over the 0-based observation index) and the theta=2 line
    ``z = 2y - trend``, smooth z with one unadjusted SES recursion, and
    forecast ``0.5 * trend-extrapolation + 0.5 * ses_last`` for horizons
    1..``horizon``. Complements ``holt_smooth`` (trend-aware smoothing,
    no combination), ``croston_forecast`` (intermittent demand) and
    ``seasonal_naive_mase`` (backtest scaling). Sources with fewer than
    3 observed buckets are omitted.

    Output: (source, n_buckets, slope, forecast_1..forecast_{horizon}).
    """
    from datafiller_ray.config import EngineValueError

    if not (0.0 < alpha < 1.0):
        raise EngineValueError(f"alpha must be in (0, 1), got {alpha}")
    if not (1 <= horizon <= 12):
        raise EngineValueError(
            f"horizon must be in [1, 12], got {horizon}"
        )
    return _run_per_source(
        input_path,
        lambda obs, src: _theta_one_source(obs, src, alpha, horizon),
        check_tokens=check_tokens,
    )


def _control_one_source(
    obs: pd.DataFrame, source: str, min_points: int
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    y = obs["sum"].to_numpy(np.int64)
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": np.empty(0, dtype=object),
                "bucket_ts": np.empty(0, np.int64),
                "rule": np.empty(0, dtype=object),
                "side": np.empty(0, dtype=object),
            }
        ),
    )
    empty["rule"] = empty["rule"].astype("string")
    empty["side"] = empty["side"].astype("string")
    n = ts.size
    if n < min_points:
        return empty
    # moments as exact integers, then the cusum_changepoints float
    # sequence: mean = S/n; var = Q/n - mean*mean (population)
    S = int(y.sum())
    Q = int(np.dot(y, y))
    mean = S / n
    var = Q / n - mean * mean
    if not var > 0.0:
        return empty
    std = math.sqrt(var)
    z = (y.astype(np.float64) - mean) / std

    def roll(x: np.ndarray, k: int) -> np.ndarray:
        # trailing window sum over the last k rows INCLUDING the current,
        # truncated at the series start (== SQL ROWS k-1 PRECEDING)
        c = np.cumsum(x)
        out = c.copy()
        out[k:] = c[k:] - c[:-k]
        return out

    rows = []
    for side, s in (("up", z), ("down", -z)):
        b3, b2, b1, b0 = s > 3.0, s > 2.0, s > 1.0, s > 0.0
        fires = (
            ("r1", b3),
            ("r2", b2 & (roll(b2.astype(np.int64), 3) >= 2)),
            ("r3", b1 & (roll(b1.astype(np.int64), 5) >= 4)),
            ("r4", roll(b0.astype(np.int64), 8) == 8),
        )
        for rule, keep in fires:
            k = int(keep.sum())
            if k:
                rows.append(
                    pd.DataFrame(
                        {
                            "source": np.full(k, source, dtype=object),
                            "bucket_ts": ts[keep],
                            "rule": np.full(k, rule, dtype=object),
                            "side": np.full(k, side, dtype=object),
                        }
                    )
                )
    if not rows:
        return empty
    out = pd.concat(rows, ignore_index=True)
    return out.sort_values(["bucket_ts", "rule", "side"], ignore_index=True)


def control_rules(
    input_path,
    *,
    min_points: int = 8,
    check_tokens: bool = False,
):
    """Western Electric control-chart rules per source over the OBSERVED
    1m token sums: standardize against the source's own exact-integer
    moments (mean = S/n, population variance = Q/n - mean^2 — the
    cusum_changepoints float recipe), then flag every bucket where a rule
    fires on either side:

    - ``r1``: the point is beyond 3 sigma;
    - ``r2``: beyond 2 sigma AND at least 2 of the trailing 3 points are;
    - ``r3``: beyond 1 sigma AND at least 4 of the trailing 5 points are;
    - ``r4``: 8 consecutive points strictly the same side of the mean.

    Trailing windows truncate at the series start (SQL ``ROWS k-1
    PRECEDING`` semantics), so r4 cannot fire before the 8th bucket.
    Constant series (var == 0) and sources under ``min_points`` are
    omitted. One row per (source, bucket_ts, rule, side) fired.
    """
    from datafiller_ray.config import EngineValueError

    if min_points < 1:
        raise EngineValueError(f"min_points must be >= 1, got {min_points}")
    return _run_per_source(
        input_path,
        lambda obs, src: _control_one_source(obs, src, min_points),
        check_tokens=check_tokens,
    )


def _hampel_one_source(
    obs: pd.DataFrame, source: str, half: int, nsig: float
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    sf = s.astype(np.float64)
    n = s.size
    w = 2 * half + 1
    med = np.empty(n, dtype=np.float64)
    mad = np.empty(n, dtype=np.float64)
    lo, hi, frac = _quantile_pos(w, 0.5)
    if n >= w:
        from numpy.lib.stride_tricks import sliding_window_view

        W = np.sort(sliding_window_view(s, w), axis=1).astype(np.float64)
        mc = W[:, lo] + (W[:, hi] - W[:, lo]) * frac
        med[half : n - half] = mc
        D = np.sort(np.abs(sliding_window_view(sf, w) - mc[:, None]), axis=1)
        mad[half : n - half] = D[:, lo] + (D[:, hi] - D[:, lo]) * frac
        edge_idx = list(range(half)) + list(range(n - half, n))
    else:  # series shorter than one full window: every window truncates
        edge_idx = list(range(n))
    # truncated edge windows: at most 2*half tiny sorts per source, the
    # same quantile_cont rule via _interp_median
    for i in edge_idx:
        a, b = max(0, i - half), min(n, i + half + 1)
        win = np.sort(s[a:b]).astype(np.float64)
        mi = _interp_median(win)
        med[i] = mi
        mad[i] = _interp_median(np.sort(np.abs(s[a:b].astype(np.float64) - mi)))
    dev = np.abs(sf - med)
    flagged = dev > nsig * 1.4826 * mad
    fill = np.where(flagged, med, sf)
    return pd.DataFrame(
        {
            "source": np.full(n, source, dtype=object),
            "bucket_ts": ts,
            "sum_tok": s,
            "fill_value": fill,
            "flagged": flagged,
        }
    )


def hampel_fill(
    input_path,
    *,
    half: int = 5,
    nsig: float = 3.0,
    check_tokens: bool = False,
):
    """Hampel filter over the OBSERVED per-minute token sums of each
    source: a CENTERED rows-window of half-width ``half`` (truncated at
    both series edges) yields a rolling median and a rolling MAD — a
    point farther than ``nsig * 1.4826 * MAD`` from its window median is
    an outlier and is replaced by that median (the robust sibling of the
    z-score cleaners: one wild spike cannot drag its own threshold).

    Both order statistics use the shared :func:`_quantile_pos`
    quantile_cont rule, so on integer sums every median is IEEE-exact and
    every MAD lands on the exact .25 grid — the SQL oracle (two bounded
    rows-window self-joins) hashes identically with no rounding absorber.
    Interior windows are one vectorized ``sliding_window_view`` sort per
    source; only the <= 2*half edge windows loop.

    Output: (source, bucket_ts, sum_tok, fill_value, flagged).
    """
    from datafiller_ray.config import EngineValueError

    if half < 1:
        raise EngineValueError(f"half must be >= 1, got {half}")
    if not nsig > 0.0:
        raise EngineValueError(f"nsig must be > 0, got {nsig}")
    return _run_per_source(
        input_path,
        lambda obs, src: _hampel_one_source(obs, src, half, nsig),
        check_tokens=check_tokens,
    )


def _pelt_one_source(
    obs: pd.DataFrame, source: str, step: int, pen_mult: int, min_size: int
) -> pd.DataFrame:
    """Optimal L2 level-shift segmentation of one source's ``step``-grain
    sums by PELT (Killick et al. 2012): exact-rational dynamic program
    F[t] = min_a F[a] + C(a, t) + beta with the linear-time pruning rule
    F[a] + C(a, t) > F[t] => drop a (valid for L2 because the cost is
    segment-additive). EVERY decision — the argmin, its tie-break
    (earliest a), and the prune test — is a Fraction comparison over
    exact integer prefix sums, so the emitted changepoint set is
    bit-deterministic; the only floats are the reported segment means
    (one num/den division each, round6). beta = pen_mult * population
    variance of the bucket series, itself an exact Fraction. The vendored
    oracle (tests/oracle/fills.pelt_points) replays the identical
    semantics with its own structure."""
    from fractions import Fraction

    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    b = ts - ts % step
    starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
    ends = np.r_[starts[1:], b.size]
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(s)])
    bt = b[starts]
    y = (cs[ends] - cs[starts]).tolist()
    n = len(y)
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "cp_idx": pd.Series([], dtype=np.int64),
                "cp_ts": pd.Series([], dtype=np.int64),
                "left_mean": pd.Series([], dtype=np.float64),
                "right_mean": pd.Series([], dtype=np.float64),
            }
        )
    )
    if n < 2 * min_size:
        return empty
    S, Q = [0], [0]
    for v in y:
        v = int(v)
        S.append(S[-1] + v)
        Q.append(Q[-1] + v * v)
    beta = Fraction(pen_mult * (n * Q[n] - S[n] * S[n]), n * n)

    def cost(a: int, c: int) -> "Fraction":
        sv = S[c] - S[a]
        return Fraction((Q[c] - Q[a]) * (c - a) - sv * sv, c - a)

    F: "list[Fraction | None]" = [None] * (n + 1)
    F[0] = -beta
    prev = [0] * (n + 1)
    cands = [0]
    for t in range(min_size, n + 1):
        best = None
        barg = -1
        for a in cands:
            if t - a < min_size or F[a] is None:
                continue
            v = F[a] + cost(a, t) + beta
            if best is None or v < best or (v == best and a < barg):
                best, barg = v, a
        F[t] = best
        prev[t] = barg
        cands = [
            a
            for a in cands
            if t - a < min_size or F[a] is None or F[a] + cost(a, t) <= best
        ]
        cands.append(t)
    cps = []
    t = n
    while t > 0:
        a = prev[t]
        if a > 0:
            cps.append(a)
        t = a
    cps.reverse()
    if not cps:
        return empty
    bounds = [0] + cps + [n]
    lm, rm = [], []
    for i, cp in enumerate(cps):
        a, c = bounds[i], bounds[i + 2]
        lm.append(float(S[cp] - S[a]) / float(cp - a))
        rm.append(float(S[c] - S[cp]) / float(c - cp))
    m = len(cps)
    return pd.DataFrame(
        {
            "source": np.full(m, source, dtype=object),
            "cp_idx": np.arange(1, m + 1, dtype=np.int64),
            "cp_ts": bt[np.asarray(cps, dtype=np.int64)].astype(np.int64),
            "left_mean": _round6_half_up(np.asarray(lm, dtype=np.float64)),
            "right_mean": _round6_half_up(np.asarray(rm, dtype=np.float64)),
        }
    )


def pelt_changepoints(
    input_path,
    *,
    step: int = 600,
    pen_mult: int = 2,
    min_size: int = 2,
    check_tokens: bool = False,
):
    """Per-source OPTIMAL level-shift changepoints by exact-arithmetic
    PELT over ``step``-grain token sums — the globally-optimal complement
    of :func:`binseg_changepoints` (greedy top-k): PELT minimizes
    total-SSE + beta * #changepoints over ALL segmentations in amortized
    linear time via candidate pruning, so it recovers splits binary
    segmentation's greedy order can miss. ``left_mean``/``right_mean``
    are the adjacent segment means (the shift magnitude reads off their
    difference). See :func:`_pelt_one_source` for the exactness argument.
    """
    from datafiller_ray.config import EngineValueError

    if step < 60:
        raise EngineValueError(f"step must be >= 60, got {step}")
    if pen_mult < 1:
        raise EngineValueError(f"pen_mult must be >= 1, got {pen_mult}")
    if min_size < 1:
        raise EngineValueError(f"min_size must be >= 1, got {min_size}")
    return _run_per_source(
        input_path,
        lambda obs, src: _pelt_one_source(obs, src, step, pen_mult, min_size),
        check_tokens=check_tokens,
    )


def _step_sums(obs: pd.DataFrame, step: int):
    """Coarsen one source's observed 1m sums to ``step``-grain bucket
    sums (int64-exact, segment cumsum diff — the PELT prologue)."""
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    b = ts - ts % step
    starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
    ends = np.r_[starts[1:], b.size]
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(s)])
    return b[starts], cs[ends] - cs[starts]


def _sampen_one_source(
    obs: pd.DataFrame, source: str, step: int, m: int, r_mult: float
) -> pd.DataFrame:
    """Sample entropy (Richman & Moorman 2000) of one source's
    ``step``-grain token sums: B = matching template pairs of length m,
    A = of length m+1 (both over the n-m template starts, self-matches
    excluded, Chebyshev tolerance r = r_mult * population std), SampEn =
    -ln(A/B). All match decisions compare an INTEGER Chebyshev distance
    against one deterministically-derived float r, so the counts are
    bit-deterministic; the only final floats are r and -ln(A/B) (round6).
    The pairwise pass is blocked (1024 template rows at a time) and fully
    vectorized — O((n-m)^2) compares, ~75 MB peak at the sf0.1 grain."""
    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_buckets": pd.Series([], dtype=np.int64),
                "r": pd.Series([], dtype=np.float64),
                "b_count": pd.Series([], dtype=np.int64),
                "a_count": pd.Series([], dtype=np.int64),
                "sampen": pd.Series([], dtype=np.float64),
            }
        )
    )
    _, y = _step_sums(obs, step)
    n = int(y.size)
    t_count = n - m
    if t_count < 2:
        return empty
    sv = int(y.sum())
    qv = sum(int(v) * int(v) for v in y.tolist())
    var = float(n * qv - sv * sv) / float(n * n)
    r = r_mult * math.sqrt(var)
    b_count = 0
    a_count = 0
    col = np.arange(t_count)
    for s0 in range(0, t_count, 1024):
        e0 = min(s0 + 1024, t_count)
        dmax = None
        for k in range(m):
            d = np.abs(y[s0 + k : e0 + k, None] - y[None, k : t_count + k])
            dmax = d if dmax is None else np.maximum(dmax, d)
        upper = col[None, :] > np.arange(s0, e0)[:, None]
        ok_b = (dmax <= r) & upper
        d = np.abs(y[s0 + m : e0 + m, None] - y[None, m : t_count + m])
        ok_a = ok_b & (d <= r)
        b_count += int(np.count_nonzero(ok_b))
        a_count += int(np.count_nonzero(ok_a))
    if b_count == 0 or a_count == 0:
        return empty
    se = _round6_half_up(
        np.array([-math.log(float(a_count) / float(b_count))])
    )[0]
    return pd.DataFrame(
        {
            "source": [source],
            "n_buckets": np.array([n], dtype=np.int64),
            "r": _round6_half_up(np.array([r], dtype=np.float64)),
            "b_count": np.array([b_count], dtype=np.int64),
            "a_count": np.array([a_count], dtype=np.int64),
            "sampen": np.array([se], dtype=np.float64),
        }
    )


def sample_entropy(
    input_path,
    *,
    step: int = 600,
    m: int = 2,
    r_mult: float = 0.2,
    check_tokens: bool = False,
):
    """Per-source sample entropy of ``step``-grain token sums — the
    regularity/complexity measure of the ingest stream (low = periodic
    quota-driven traffic, high = bursty organic traffic); complements the
    spectral/permutation entropies already in the surface with the
    template-matching (SampEn) family. Sources whose A or B match count
    is zero (too short / too irregular at tolerance r) are omitted, so
    every emitted sampen is finite."""
    from datafiller_ray.config import EngineValueError

    if step < 60:
        raise EngineValueError(f"step must be >= 60, got {step}")
    if m < 1:
        raise EngineValueError(f"m must be >= 1, got {m}")
    if not (r_mult > 0):
        raise EngineValueError(f"r_mult must be > 0, got {r_mult}")
    return _run_per_source(
        input_path,
        lambda obs, src: _sampen_one_source(obs, src, step, m, r_mult),
        check_tokens=check_tokens,
    )


def _vopt_one_source(
    obs: pd.DataFrame, source: str, step: int, n_buckets: int
) -> pd.DataFrame:
    """V-optimal histogram of one source's ``step``-grain sums: the
    K-bucket piecewise-constant summary minimizing total SSE, by the
    exact-Fraction dynamic program E[k][t] = min_s E[k-1][s] + C(s, t)
    (Jagadish et al. 1998). Same exactness argument as PELT: every
    argmin/tie decision is a Fraction comparison over integer prefix
    sums (ties -> earliest split), so the bucket set is
    bit-deterministic; the reported means/SSEs are one division each."""
    from fractions import Fraction

    empty = _string_typed_if_empty(
        pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "bucket_idx": pd.Series([], dtype=np.int64),
                "start_ts": pd.Series([], dtype=np.int64),
                "end_ts": pd.Series([], dtype=np.int64),
                "n_points": pd.Series([], dtype=np.int64),
                "mean_tok": pd.Series([], dtype=np.float64),
                "sse": pd.Series([], dtype=np.float64),
            }
        )
    )
    bt, y_arr = _step_sums(obs, step)
    y = [int(v) for v in y_arr.tolist()]
    n = len(y)
    if n < n_buckets:
        return empty
    S, Q = [0], [0]
    for v in y:
        S.append(S[-1] + v)
        Q.append(Q[-1] + v * v)

    def cost(a: int, c: int) -> "Fraction":
        sv = S[c] - S[a]
        return Fraction((Q[c] - Q[a]) * (c - a) - sv * sv, c - a)

    # E[k][t]: best SSE of the first t points in k buckets (each non-empty)
    prev_row = [None] * (n + 1)
    prev_row[0] = Fraction(0)
    back: "list[list[int]]" = []
    for k in range(1, n_buckets + 1):
        cur = [None] * (n + 1)
        barg = [0] * (n + 1)
        lo = k - 1  # at least k-1 points consumed by earlier buckets
        for t in range(k, n + 1):
            if k == n_buckets and t < n:
                continue  # only the full-series cell matters in the last row
            best, bs = None, -1
            for s in range(lo, t):
                e = prev_row[s]
                if e is None:
                    continue
                v = e + cost(s, t)
                if best is None or v < best or (v == best and s < bs):
                    best, bs = v, s
            cur[t], barg[t] = best, bs
        back.append(barg)
        prev_row = cur
    bounds = [n]
    t = n
    for k in range(n_buckets, 0, -1):
        t = back[k - 1][t]
        bounds.append(t)
    bounds.reverse()  # 0 = b_0 < b_1 < ... < b_K = n
    rows = []
    for i in range(n_buckets):
        a, c = bounds[i], bounds[i + 1]
        sv = S[c] - S[a]
        m = c - a
        # raw-integer division (NOT float(Fraction)): Fraction reduces to
        # lowest terms, and float(reduced)/float(reduced_den) can differ
        # from the oracle's float(raw)/float(m) by an ulp on huge ints
        sse_num = (Q[c] - Q[a]) * m - sv * sv
        rows.append(
            (
                source,
                i + 1,
                int(bt[a]),
                int(bt[c - 1]),
                m,
                float(sv) / float(m),
                float(sse_num) / float(m),
            )
        )
    out = pd.DataFrame(
        rows,
        columns=[
            "source", "bucket_idx", "start_ts", "end_ts", "n_points",
            "mean_tok", "sse",
        ],
    )
    for c in ("bucket_idx", "start_ts", "end_ts", "n_points"):
        out[c] = out[c].astype(np.int64)
    out["mean_tok"] = _round6_half_up(out["mean_tok"].to_numpy(np.float64))
    out["sse"] = _round6_half_up(out["sse"].to_numpy(np.float64))
    return out


def vopt_histogram(
    input_path,
    *,
    step: int = 3600,
    n_buckets: int = 4,
    check_tokens: bool = False,
):
    """Per-source V-optimal histogram: the K-bucket piecewise-constant
    synopsis of the ``step``-grain token sums with MINIMUM total SSE —
    the fixed-budget sibling of :func:`pelt_changepoints` (PELT chooses
    how many segments via a penalty; V-optimal answers "summarize this
    stream in exactly K rows", the synopsis a planner or dashboard
    actually stores). Sources with fewer than ``n_buckets`` observed
    buckets are omitted."""
    from datafiller_ray.config import EngineValueError

    if step < 60:
        raise EngineValueError(f"step must be >= 60, got {step}")
    if not 1 <= n_buckets <= 64:
        raise EngineValueError(
            f"n_buckets must be in [1, 64], got {n_buckets}"
        )
    return _run_per_source(
        input_path,
        lambda obs, src: _vopt_one_source(obs, src, step, n_buckets),
        check_tokens=check_tokens,
    )
