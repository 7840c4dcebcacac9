"""Cross-source correlation over the 1m rollup tier.

``source_correlation`` answers "which streams move together?": Pearson
correlation of every source's per-minute token sums against a small set
of REFERENCE sources, computed on the buckets both have observed.

Scale shape (the broadcast-small-side pattern, SURVEY.md §4):

    pass A: read (pruned) -> filter to ref sources -> partial agg
            -> driver combine (bounded: |refs| x |buckets| rows)
            -> ray.put ONCE
    pass B: the flagship per-source exchange; each group task aligns its
            series against the broadcast reference grids (searchsorted)
            and emits one row per (source, ref) pair.

No all-pairs shuffle. Correlating all sources against all sources is
O(S^2) and is exactly the join this operator avoids — the reference set
is the small side (bounded by ``max_refs``), everything else streams.

Numerics: all five moments (sx, sy, sxy, sxx, syy) are exact integers
(int64 dot products handed to Python ints before the cross terms), so
both sides of the oracle agree bit-for-bit up to ONE pinned float
expression: ``corr = double(num) / sqrt(double(d1) * double(d2))``
followed by the engine-wide floor-half-up 6-decimal absorber. int64 is
safe while ``sum(x*x) < 2^63`` — per-minute token sums up to ~3e4 over
~1e7 buckets; beyond that, chunk the dot products.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

if TYPE_CHECKING:
    from ray.data import Dataset

_MAX_REFS_DEFAULT = 64


def _round6_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x * 1e6 + 0.5) / 1e6


def _reference_series(
    input_path, ref_sources: "tuple[str, ...]", *, check_tokens: bool
) -> "dict[str, tuple[np.ndarray, np.ndarray]]":
    """Combined (bucket_ts, sum) arrays of each reference source.

    The filter runs BEFORE the partial aggregation, so only ref-source
    rows are ever aggregated; the driver sees at most
    |refs| x |buckets| x |blocks| partial rows and combines them with the
    same exact-int reduction the main pass uses."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from datafiller_ray.pipelines.rollup import read_input
    from datafiller_ray.stages.fill import combine_partials
    from datafiller_ray.stages.validate import make_partial_agg_fn

    ds = (
        input_path
        if isinstance(input_path, ray.data.Dataset)
        else read_input(input_path, with_tokens=check_tokens)
    )
    refset = pa.array(list(ref_sources), pa.string())

    def only_refs(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["source"], value_set=refset))

    partials = ds.map_batches(
        only_refs, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(
        make_partial_agg_fn(check_tokens=check_tokens),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )
    frame = partials.to_pandas()
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    if frame.empty:  # no ref rows at all: a columnless frame can't group
        return out
    for src, g in frame.groupby("source", sort=True):
        comb = combine_partials(g)
        out[str(src)] = (
            comb["bucket_ts"].to_numpy(np.int64),
            comb["sum"].to_numpy(np.int64),
        )
    return out


def _corr_one_source(
    obs: pd.DataFrame,
    source: str,
    refs: "dict[str, tuple[np.ndarray, np.ndarray]]",
    min_common: int,
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    x_all = obs["sum"].to_numpy(np.int64)
    names, ns, corrs = [], [], []
    for ref_name in sorted(refs):
        if ref_name == source:
            continue
        rts, rsum = refs[ref_name]
        # both grids sorted: positions of obs buckets inside the ref grid
        pos = np.searchsorted(rts, ts)
        pos_c = np.minimum(pos, rts.size - 1)
        hit = (rts.size > 0) & (rts[pos_c] == ts)
        n = int(hit.sum())
        if n < min_common:
            continue
        x = x_all[hit]
        y = rsum[pos_c[hit]]
        sx, sy = int(x.sum()), int(y.sum())
        sxy, sxx, syy = int(np.dot(x, y)), int(np.dot(x, x)), int(np.dot(y, y))
        num = n * sxy - sx * sy
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        if d1 <= 0 or d2 <= 0:
            continue  # zero variance on either side: correlation undefined
        corr = float(num) / math.sqrt(float(d1) * float(d2))
        names.append(ref_name)
        ns.append(n)
        corrs.append(corr)
    out = pd.DataFrame(
        {
            "source": np.full(len(names), source, dtype=object),
            "ref_source": np.asarray(names, dtype=object),
            "n_common": np.asarray(ns, dtype=np.int64),
            "corr": _round6_half_up(np.asarray(corrs, dtype=np.float64)),
        }
    )
    if not len(out):
        # zero-row object columns convert to Arrow null and cannot unify
        # with the string blocks of non-empty groups (window.py precedent)
        out["source"] = out["source"].astype("string")
        out["ref_source"] = out["ref_source"].astype("string")
    return out


def source_correlation(
    input_path,
    *,
    ref_sources: "tuple[str, ...] | list[str]",
    min_common: int = 3,
    max_refs: int = _MAX_REFS_DEFAULT,
    check_tokens: bool = False,
) -> "Dataset":
    """Pearson correlation of every source's observed 1m token sums
    against each reference source, on their common observed buckets.

    Returns rows ``(source, ref_source, n_common, corr)``; pairs with
    fewer than ``min_common`` shared buckets or zero variance on either
    side are omitted, and a reference never correlates with itself.
    """
    import ray

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import _run_per_source

    refs_t = tuple(dict.fromkeys(ref_sources))
    if not refs_t:
        raise EngineValueError("ref_sources must be non-empty")
    if len(refs_t) > max_refs:
        raise EngineValueError(
            f"{len(refs_t)} reference sources exceed max_refs={max_refs}; "
            "the reference set is broadcast to every task and must stay small"
        )
    if min_common < 2:
        raise EngineValueError(f"min_common must be >= 2, got {min_common}")

    series = _reference_series(input_path, refs_t, check_tokens=check_tokens)
    missing = [s for s in refs_t if s not in series]
    if missing:
        raise EngineValueError(f"reference sources not in input: {missing}")
    handle = ray.put(series)

    def one_source(obs: pd.DataFrame, src: str) -> pd.DataFrame:
        refs = ray.get(handle)  # plasma-local after first fetch per node
        return _corr_one_source(obs, src, refs, min_common)

    return _run_per_source(input_path, one_source, check_tokens=check_tokens)


def _hourly(ts: np.ndarray, s: np.ndarray, step: int) -> "tuple[np.ndarray, np.ndarray]":
    b = ts - ts % step
    starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
    ends = np.r_[starts[1:], b.size]
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(s)])
    return b[starts], cs[ends] - cs[starts]


def _xcorr_one_source(
    obs: pd.DataFrame,
    source: str,
    refs: "dict[str, tuple[np.ndarray, np.ndarray]]",
    lags: "np.ndarray",
    step: int,
    min_common: int,
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    x_ts, x_sum = _hourly(ts, obs["sum"].to_numpy(np.int64), step)
    names, best_lags, ns, corrs = [], [], [], []
    for ref_name in sorted(refs):
        if ref_name == source:
            continue
        rts, rsum = refs[ref_name]
        cand: "list[tuple[float, int, int]]" = []
        for lag in lags:
            shifted = x_ts + lag * step  # correlate x(t) with ref(t + lag)
            pos = np.searchsorted(rts, shifted)
            pos_c = np.minimum(pos, max(rts.size - 1, 0))
            hit = (rts.size > 0) & (rts[pos_c] == shifted)
            n = int(hit.sum())
            if n < min_common:
                continue
            x = x_sum[hit]
            y = rsum[pos_c[hit]]
            sx, sy = int(x.sum()), int(y.sum())
            sxy = int(np.dot(x, y))
            sxx, syy = int(np.dot(x, x)), int(np.dot(y, y))
            num = n * sxy - sx * sy
            d1 = n * sxx - sx * sx
            d2 = n * syy - sy * sy
            if d1 <= 0 or d2 <= 0:
                continue
            corr = float(num) / math.sqrt(float(d1) * float(d2))
            # rank on the ROUNDED value so engine and SQL tie-break alike
            cand.append((float(_round6_half_up(np.array([corr]))[0]), int(lag), n))
        if not cand:
            continue
        cand.sort(key=lambda t: (-t[0], t[1]))
        c6, lag, n = cand[0]
        names.append(ref_name)
        best_lags.append(lag)
        ns.append(n)
        corrs.append(c6)
    out = pd.DataFrame(
        {
            "source": np.full(len(names), source, dtype=object),
            "ref_source": np.asarray(names, dtype=object),
            "best_lag": np.asarray(best_lags, dtype=np.int64),
            "n_common": np.asarray(ns, dtype=np.int64),
            "corr": np.asarray(corrs, dtype=np.float64),
        }
    )
    if not len(out):
        out["source"] = out["source"].astype("string")
        out["ref_source"] = out["ref_source"].astype("string")
    return out


def lead_lag_xcorr(
    input_path,
    *,
    ref_sources: "tuple[str, ...] | list[str]",
    max_lag: int = 6,
    step: int = 3600,
    min_common: int = 3,
    max_refs: int = _MAX_REFS_DEFAULT,
    check_tokens: bool = False,
) -> "Dataset":
    """Lead-lag discovery: for every (source, reference) pair, the lag in
    ``-max_lag..max_lag`` step buckets that maximizes the Pearson
    correlation of ``x(t)`` against ``ref(t + lag)`` on their common
    observed buckets — "does this feed lead or trail that one, and by how
    many hours". Emits (source, ref_source, best_lag, n_common, corr);
    positive ``best_lag`` means the reference trails the source.

    Same scale shape and numerics as :func:`source_correlation` (broadcast
    reference series, one per-source exchange, exact integer five-moment
    sums, ONE pinned float expression per (lag, pair)); the winning lag is
    picked on the ROUNDED correlation (corr desc, lag asc) so the SQL
    ROW_NUMBER oracle tie-breaks identically. The lag scan happens at the
    COARSE ``step`` grain, so per pair it costs |lags| vectorized
    alignments over hours, not minutes."""
    import ray

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import _run_per_source

    if not ref_sources:
        raise EngineValueError("ref_sources must be non-empty")
    if len(ref_sources) > max_refs:
        raise EngineValueError(
            f"{len(ref_sources)} reference sources exceed max_refs="
            f"{max_refs}; the reference set is the broadcast small side"
        )
    if max_lag < 0:
        raise EngineValueError(f"max_lag must be >= 0, got {max_lag}")
    if step < 60 or step % 60:
        raise EngineValueError(
            f"step must be a positive multiple of 60, got {step}"
        )
    series_1m = _reference_series(
        input_path, tuple(ref_sources), check_tokens=check_tokens
    )
    refs = {
        name: _hourly(ts, s, step) for name, (ts, s) in series_1m.items()
    }
    lags = np.arange(-max_lag, max_lag + 1, dtype=np.int64)
    refs_ref = ray.put(refs)

    def one_source(obs: pd.DataFrame, src: str) -> pd.DataFrame:
        import ray as _ray

        r = _ray.get(refs_ref) if not isinstance(refs_ref, dict) else refs_ref
        return _xcorr_one_source(obs, src, r, lags, step, min_common)

    return _run_per_source(input_path, one_source, check_tokens=check_tokens)


def _rolling_sums(v: np.ndarray, lo: np.ndarray, i: np.ndarray) -> np.ndarray:
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(v)])
    return cs[i + 1] - cs[lo]


def _rolling_corr_one_source(
    obs: pd.DataFrame,
    source: str,
    refs: "dict[str, tuple[np.ndarray, np.ndarray]]",
    window: int,
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    x_all = obs["sum"].to_numpy(np.int64)
    frames = []
    for ref_name in sorted(refs):
        if ref_name == source:
            continue
        rts, rsum = refs[ref_name]
        pos = np.searchsorted(rts, ts)
        pos_c = np.minimum(pos, max(rts.size - 1, 0))
        hit = (rts.size > 0) & (rts[pos_c] == ts)
        m = int(hit.sum())
        if m < 2:
            continue
        cts = ts[hit]
        x = x_all[hit]
        y = rsum[pos_c[hit]]
        i = np.arange(m)
        lo = np.maximum(0, i - (window - 1))
        n = (i + 1 - lo).astype(np.int64)
        sx = _rolling_sums(x, lo, i)
        sy = _rolling_sums(y, lo, i)
        sxy = _rolling_sums(x * y, lo, i)
        sxx = _rolling_sums(x * x, lo, i)
        syy = _rolling_sums(y * y, lo, i)
        num = n * sxy - sx * sy
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        valid = (n >= 2) & (d1 > 0) & (d2 > 0)
        if not valid.any():
            continue
        corr = num[valid].astype(np.float64) / np.sqrt(
            d1[valid].astype(np.float64) * d2[valid].astype(np.float64)
        )
        frames.append(
            pd.DataFrame(
                {
                    "source": np.full(int(valid.sum()), source, dtype=object),
                    "ref_source": np.full(
                        int(valid.sum()), ref_name, dtype=object
                    ),
                    "bucket_ts": cts[valid],
                    "n_win": n[valid],
                    "corr": _round6_half_up(corr),
                }
            )
        )
    if not frames:
        out = pd.DataFrame(
            {
                "source": pd.Series([], dtype="string"),
                "ref_source": pd.Series([], dtype="string"),
                "bucket_ts": pd.Series([], dtype=np.int64),
                "n_win": pd.Series([], dtype=np.int64),
                "corr": pd.Series([], dtype=np.float64),
            }
        )
        return out
    return pd.concat(frames, ignore_index=True)


def rolling_corr(
    input_path,
    *,
    ref_sources: "tuple[str, ...] | list[str]",
    window: int = 60,
    max_refs: int = _MAX_REFS_DEFAULT,
    check_tokens: bool = False,
) -> "Dataset":
    """Rolling Pearson correlation of every source against each reference
    source over the trailing ``window`` COMMON observed 1m buckets (SQL
    ROWS-window semantics over the inner-joined observed grids) — the
    time-resolved extension of :func:`source_correlation`: where that
    operator answers "do these streams move together overall", this one
    shows WHEN the coupling holds and when it breaks.

    Same scale shape (broadcast reference series, one per-source
    exchange) and numerics (exact int64 rolling five-moment sums via
    cumsum diffs — no O(n*window) restride — then the single pinned
    ``num / sqrt(d1 * d2)`` float expression per row, round6). Head
    windows shorter than ``window`` follow ROWS semantics; rows with
    fewer than 2 common buckets or zero variance on either side are
    omitted."""
    import ray

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import _run_per_source

    refs_t = tuple(dict.fromkeys(ref_sources))
    if not refs_t:
        raise EngineValueError("ref_sources must be non-empty")
    if len(refs_t) > max_refs:
        raise EngineValueError(
            f"{len(refs_t)} reference sources exceed max_refs={max_refs}; "
            "the reference set is broadcast to every task and must stay small"
        )
    if window < 2:
        raise EngineValueError(f"window must be >= 2, got {window}")
    series = _reference_series(input_path, refs_t, check_tokens=check_tokens)
    missing = [s for s in refs_t if s not in series]
    if missing:
        raise EngineValueError(f"reference sources not in input: {missing}")
    handle = ray.put(series)

    def one_source(obs: pd.DataFrame, src: str) -> pd.DataFrame:
        refs = ray.get(handle)
        return _rolling_corr_one_source(obs, src, refs, window)

    return _run_per_source(input_path, one_source, check_tokens=check_tokens)


# ---------------------------------------------------------------------------
# band-limited DTW distance against broadcast reference series


def _znorm_pinned(v: np.ndarray) -> "np.ndarray | None":
    """Z-normalization with the engine's pinned chains: mean = S/n,
    population var = (n*Q - S*S)/(n*n) on exact integers, sd = sqrt(var),
    z_i = (v_i - mean) / sd. Returns None on zero variance."""
    n = int(v.size)
    S, Q = int(v.sum()), int(np.dot(v, v))
    d = n * Q - S * S
    if d <= 0:
        return None
    mean = float(S) / float(n)
    sd = math.sqrt(float(d) / float(n * n))
    return (v.astype(np.float64) - mean) / sd


def dtw_band_distance(zx: "list[float]", zy: "list[float]", w: int) -> float:
    """Sakoe-Chiba band-limited dynamic time warping with L1 point cost
    over two z-normalized sequences. The effective band is
    ``max(w, |n - m|)`` so a path always exists. The DP accumulates plain
    Python floats cell-by-cell in a FIXED order (row-major, ascending j),
    which is what lets the vendored oracle reproduce the value
    bit-for-bit. O(n * band) time, two rolling rows of memory."""
    n, m = len(zx), len(zy)
    band = max(w, abs(n - m))
    INF = float("inf")
    prev = [INF] * m
    for i in range(n):
        lo = i - band if i - band > 0 else 0
        hi = i + band + 1 if i + band + 1 < m else m
        cur = [INF] * m
        xi = zx[i]
        for j in range(lo, hi):
            c = xi - zy[j]
            if c < 0.0:
                c = -c
            if i == 0 and j == 0:
                best = 0.0
            else:
                best = INF
                if i > 0 and prev[j] < best:
                    best = prev[j]
                if j > 0 and cur[j - 1] < best:
                    best = cur[j - 1]
                if i > 0 and j > 0 and prev[j - 1] < best:
                    best = prev[j - 1]
            cur[j] = c + best
        prev = cur
    return prev[m - 1]


def _dtw_one_source(
    obs: pd.DataFrame,
    source: str,
    refs: "dict[str, tuple[np.ndarray, np.ndarray]]",
    step: int,
    w: int,
    min_len: int,
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    x_ts, x_sum = _hourly(ts, obs["sum"].to_numpy(np.int64), step)
    names, nxs, nys, dists = [], [], [], []
    zx = _znorm_pinned(x_sum) if x_sum.size >= min_len else None
    for ref_name in sorted(refs):
        if ref_name == source or zx is None:
            continue
        _, rsum = refs[ref_name]
        if rsum.size < min_len:
            continue
        zy = _znorm_pinned(rsum)
        if zy is None:
            continue
        d = dtw_band_distance(zx.tolist(), zy.tolist(), w)
        # per-step normalization: one pinned division by the path floor
        names.append(ref_name)
        nxs.append(int(zx.size))
        nys.append(int(zy.size))
        dists.append(d / float(max(zx.size, zy.size)))
    out = pd.DataFrame(
        {
            "source": np.full(len(names), source, dtype=object),
            "ref_source": np.asarray(names, dtype=object),
            "n_x": np.asarray(nxs, dtype=np.int64),
            "n_y": np.asarray(nys, dtype=np.int64),
            "dtw": _round6_half_up(np.asarray(dists, dtype=np.float64)),
        }
    )
    if not len(out):
        out["source"] = out["source"].astype("string")
        out["ref_source"] = out["ref_source"].astype("string")
    return out


def dtw_distance(
    input_path,
    *,
    ref_sources: "tuple[str, ...] | list[str]",
    step: int = 3600,
    w: int = 12,
    min_len: int = 8,
    max_refs: int = _MAX_REFS_DEFAULT,
    check_tokens: bool = False,
) -> "Dataset":
    """Shape similarity under time warping: band-limited DTW distance
    (Sakoe-Chiba radius ``w`` hours, L1 cost, z-normalized hourly series,
    normalized by the longer length) of every source against each
    broadcast reference source — the nonlinear-alignment complement of
    ``lead_lag_xcorr`` (which only shifts rigidly). Small distance =
    same intra-day shape even when one feed stretches or delays parts of
    its day.

    Scale shape: identical to ``source_correlation`` — reference hourly
    series broadcast once via ``ray.put``, one per-source exchange, DP
    cost O(hours * band) per pair at the COARSE grain. Numerics: the
    z-normalization uses the engine's pinned integer moment chains; the
    DP is plain-float but runs in a fixed scan order, so the vendored
    oracle (tests/oracle/fills.dtw_band) reproduces it bit-for-bit.
    Pairs where either side is shorter than ``min_len`` hours or has
    zero variance are omitted."""
    import ray

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import _run_per_source

    if not ref_sources:
        raise EngineValueError("ref_sources must be non-empty")
    if len(ref_sources) > max_refs:
        raise EngineValueError(
            f"{len(ref_sources)} reference sources exceed max_refs="
            f"{max_refs}; the reference set is the broadcast small side"
        )
    if step < 60 or step % 60:
        raise EngineValueError(
            f"step must be a positive multiple of 60, got {step}"
        )
    if w < 0:
        raise EngineValueError(f"w must be >= 0, got {w}")
    if min_len < 2:
        raise EngineValueError(f"min_len must be >= 2, got {min_len}")
    series_1m = _reference_series(
        input_path, tuple(ref_sources), check_tokens=check_tokens
    )
    refs = {
        name: _hourly(ts, s, step) for name, (ts, s) in series_1m.items()
    }
    handle = ray.put(refs)

    def one_source(obs: pd.DataFrame, src: str) -> pd.DataFrame:
        import ray as _ray

        r = _ray.get(handle)
        return _dtw_one_source(obs, src, r, step, w, min_len)

    return _run_per_source(input_path, one_source, check_tokens=check_tokens)


# ---------------------------------------------------------------------------
# Granger causality (lag-1, exact rational F statistic)


def _granger_f_from_moments(
    n: int,
    sy: int,
    sa: int,
    sb: int,
    syy: int,
    saa: int,
    sbb: int,
    sya: int,
    syb: int,
    sab: int,
):
    """Exact-rational lag-1 Granger F statistic from the ten integer
    moments of the aligned triples (Y = y_t, A = y_{t-1}, B = x_{t-1}).

    Restricted model  Y ~ c + a*A          (own history only)
    Unrestricted      Y ~ c + a*A + b*B    (own history + candidate cause)

    Both normal-equation systems are solved by Cramer's rule on Python
    big ints, the residual sums of squares come from the exact identity
    ``RSS = SYY - beta . X'y`` in Fractions, and

        F = (RSS_r - RSS_u) * (n - 3) / RSS_u        (q = 1 restriction)

    stays a Fraction until the single correctly-rounded ``float()`` at
    the end — so any implementation of the same documented semantics
    produces the identical double, whatever its partitioning or
    summation order. Returns the float F, or None when a design matrix
    is singular, ``n < 4``, or ``RSS_u == 0`` (perfect fit: F
    undefined)."""
    from fractions import Fraction

    if n < 4:
        return None
    # restricted 2x2: [[n, sa], [sa, saa]] beta = [sy, sya]
    det_r = n * saa - sa * sa
    if det_r == 0:
        return None
    b0_r = Fraction(sy * saa - sa * sya, det_r)
    b1_r = Fraction(n * sya - sa * sy, det_r)
    rss_r = Fraction(syy) - (b0_r * sy + b1_r * sya)
    # unrestricted 3x3: [[n, sa, sb], [sa, saa, sab], [sb, sab, sbb]]
    #                   beta = [sy, sya, syb]
    m = ((n, sa, sb), (sa, saa, sab), (sb, sab, sbb))

    def det3(c0, c1, c2):
        return (
            c0[0] * (c1[1] * c2[2] - c1[2] * c2[1])
            - c1[0] * (c0[1] * c2[2] - c0[2] * c2[1])
            + c2[0] * (c0[1] * c1[2] - c0[2] * c1[1])
        )

    cols = tuple(tuple(m[r][c] for r in range(3)) for c in range(3))
    det_u = det3(*cols)
    if det_u == 0:
        return None
    v = (sy, sya, syb)
    b0_u = Fraction(det3(v, cols[1], cols[2]), det_u)
    b1_u = Fraction(det3(cols[0], v, cols[2]), det_u)
    b2_u = Fraction(det3(cols[0], cols[1], v), det_u)
    rss_u = Fraction(syy) - (b0_u * sy + b1_u * sya + b2_u * syb)
    if rss_u <= 0:
        return None
    f = (rss_r - rss_u) * (n - 3) / rss_u
    return float(f)


def _granger_one_source(
    obs: pd.DataFrame,
    source: str,
    refs: "dict[str, tuple[np.ndarray, np.ndarray]]",
    step: int,
    min_common: int,
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    x_ts, x_sum = _hourly(ts, obs["sum"].to_numpy(np.int64), step)
    names, ns, fs = [], [], []
    for ref_name in sorted(refs):
        if ref_name == source:
            continue
        y_ts, y_sum = refs[ref_name]
        if y_ts.size < 2 or x_ts.size == 0:
            continue
        # triples aligned at t: y observed at t AND t-step, x observed at
        # t-step (searchsorted on the sorted hourly grids, the
        # _corr_one_source idiom)
        t = y_ts[1:]
        prev = t - step
        py = np.searchsorted(y_ts, prev)
        py_c = np.minimum(py, y_ts.size - 1)
        hit_y = y_ts[py_c] == prev
        px = np.searchsorted(x_ts, prev)
        px_c = np.minimum(px, x_ts.size - 1)
        hit_x = x_ts[px_c] == prev
        keep = hit_y & hit_x
        n = int(keep.sum())
        if n < min_common:
            continue
        yv = y_sum[1:][keep]
        av = y_sum[py_c[keep]]
        bv = x_sum[px_c[keep]]
        f = _granger_f_from_moments(
            n,
            int(yv.sum()),
            int(av.sum()),
            int(bv.sum()),
            int(np.dot(yv, yv)),
            int(np.dot(av, av)),
            int(np.dot(bv, bv)),
            int(np.dot(yv, av)),
            int(np.dot(yv, bv)),
            int(np.dot(av, bv)),
        )
        if f is None:
            continue
        names.append(ref_name)
        ns.append(n)
        fs.append(f)
    out = pd.DataFrame(
        {
            "source": np.full(len(names), source, dtype=object),
            "ref_source": np.asarray(names, dtype=object),
            "n_common": np.asarray(ns, dtype=np.int64),
            "f_stat": _round6_half_up(np.asarray(fs, dtype=np.float64)),
        }
    )
    if not len(out):
        out["source"] = out["source"].astype("string")
        out["ref_source"] = out["ref_source"].astype("string")
    return out


def granger_causality(
    input_path,
    *,
    ref_sources: "tuple[str, ...] | list[str]",
    step: int = 3600,
    min_common: int = 8,
    max_refs: int = _MAX_REFS_DEFAULT,
    check_tokens: bool = False,
) -> "Dataset":
    """Lag-1 Granger causality: for every (source, reference) pair, the F
    statistic testing whether the source's ``step``-grain token sums at
    t-1 improve the one-step prediction of the reference beyond the
    reference's own history — "does this feed's volume FORECAST that
    one, not just co-move with it" (the predictive sibling of
    :func:`lead_lag_xcorr`, which only ranks contemporaneous shifted
    correlation).

    Emits ``(source, ref_source, n_common, f_stat)`` with F ~ F(1, n-3)
    under the no-causality null; larger = stronger evidence the source
    leads. Triples are aligned where the reference is observed at both t
    and t-step and the source at t-step; pairs with fewer than
    ``min_common`` aligned hours, a singular design, or a perfect
    unrestricted fit are omitted, and a reference is never tested
    against itself.

    Same scale shape as :func:`source_correlation`: the reference series
    are the broadcast small side (``ray.put`` once), everything else
    streams through the one per-source exchange. Numerics: the ten
    moments are exact int64 dots handed to Python ints, both OLS solves
    run in Fractions (Cramer on big ints), and the only float op is the
    correctly-rounded ``float(Fraction)`` at the end plus the shared
    6-decimal floor-half-up — bit-reproducible under any partitioning.
    Non-SQL (rational arithmetic), oracled by the vendored independent
    residual-space derivation (tests/oracle/fills.py)."""
    import ray

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import _run_per_source

    refs_t = tuple(dict.fromkeys(ref_sources))
    if not refs_t:
        raise EngineValueError("ref_sources must be non-empty")
    if len(refs_t) > max_refs:
        raise EngineValueError(
            f"{len(refs_t)} reference sources exceed max_refs={max_refs}; "
            "the reference set is the broadcast small side"
        )
    if step < 60 or step % 60:
        raise EngineValueError(
            f"step must be a positive multiple of 60, got {step}"
        )
    if min_common < 4:
        raise EngineValueError(f"min_common must be >= 4, got {min_common}")
    series_1m = _reference_series(input_path, refs_t, check_tokens=check_tokens)
    missing = [s for s in refs_t if s not in series_1m]
    if missing:
        raise EngineValueError(f"reference sources not in input: {missing}")
    refs = {
        name: _hourly(ts, s, step) for name, (ts, s) in series_1m.items()
    }
    handle = ray.put(refs)

    def one_source(obs: pd.DataFrame, src: str) -> pd.DataFrame:
        import ray as _ray

        r = _ray.get(handle)
        return _granger_one_source(obs, src, r, step, min_common)

    return _run_per_source(input_path, one_source, check_tokens=check_tokens)


def _eg_one_source(
    obs: pd.DataFrame,
    source: str,
    refs: "dict[str, tuple[np.ndarray, np.ndarray]]",
    step: int,
    min_common: int,
) -> pd.DataFrame:
    """Engle-Granger two-step for one source against each broadcast
    reference: (1) cointegrating OLS y = a + b*x on the common observed
    ``step``-grain buckets, residuals kept as EXACT integer numerators
    r_t = y_t*n*d1x - sy*d1x + num1*sx - num1*n*x_t over the common
    denominator n*d1x (unbounded Python ints — no overflow at any
    scale); (2) the drift-free DF(0) t on those residuals, which is
    scale-invariant in the denominator, so the pinned float expression
    t = A*sqrt(m-1)/sqrt(dd*B - A^2) runs on raw integer moments
    A = sum r_{t-1} dr_t, B = sum r_{t-1}^2, dd = sum dr_t^2."""
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    x_ts, x_sum = _hourly(ts, s, step)
    names, ns, betas, gammas, tstats = [], [], [], [], []
    for ref_name in sorted(refs):
        if ref_name == source:
            continue
        rts, rsum = refs[ref_name]
        pos = np.searchsorted(rts, x_ts)
        pos_c = np.minimum(pos, max(rts.size - 1, 0))
        hit = (rts.size > 0) & (rts[pos_c] == x_ts)
        n = int(hit.sum())
        if n < min_common:
            continue
        # y = the SOURCE series regressed on x = the reference series
        y = [int(v) for v in x_sum[hit]]
        x = [int(v) for v in rsum[pos_c[hit]]]
        sx, sy = sum(x), sum(y)
        sxx = sum(v * v for v in x)
        sxy = sum(a * b for a, b in zip(x, y))
        d1x = n * sxx - sx * sx
        if d1x <= 0:
            continue
        num1 = n * sxy - sx * sy
        c0 = num1 * sx - sy * d1x
        r = [yi * n * d1x + c0 - num1 * n * xi for xi, yi in zip(x, y)]
        prev = r[:-1]
        dr = [b - a for a, b in zip(r[:-1], r[1:])]
        m = len(dr)
        if m < 3:
            continue
        A = sum(p * d for p, d in zip(prev, dr))
        B = sum(p * p for p in prev)
        dd = sum(d * d for d in dr)
        if B <= 0:
            continue
        rrd = float(dd) * float(B) - float(A) * float(A)
        if not rrd > 0.0:
            continue
        names.append(ref_name)
        ns.append(n)
        betas.append(float(num1) / float(d1x))
        gammas.append(float(A) / float(B))
        tstats.append(float(A) * math.sqrt(float(m - 1)) / math.sqrt(rrd))
    out = pd.DataFrame(
        {
            "source": np.full(len(names), source, dtype=object),
            "ref_source": np.asarray(names, dtype=object),
            "n_common": np.asarray(ns, dtype=np.int64),
            "beta": _round6_half_up(np.asarray(betas, dtype=np.float64)),
            "gamma_hat": _round6_half_up(np.asarray(gammas, dtype=np.float64)),
            "eg_t": _round6_half_up(np.asarray(tstats, dtype=np.float64)),
        }
    )
    if not len(out):
        out["source"] = out["source"].astype("string")
        out["ref_source"] = out["ref_source"].astype("string")
    return out


def engle_granger(
    input_path,
    *,
    ref_sources: "tuple[str, ...] | list[str]",
    step: int = 3600,
    min_common: int = 8,
    max_refs: int = _MAX_REFS_DEFAULT,
    check_tokens: bool = False,
) -> "Dataset":
    """Engle-Granger cointegration screen: for every (source, reference)
    pair, the cointegrating slope ``beta`` and the drift-free
    Dickey-Fuller t statistic ``eg_t`` of the OLS residuals of the
    source's ``step``-grain token sums regressed on the reference's —
    strongly negative eg_t means the two volume series share a common
    stochastic trend (they never drift apart), the equilibrium-link test
    that :func:`source_correlation` (co-movement) and
    :func:`granger_causality` (lead-lag) cannot answer.

    Same broadcast + single-exchange shape as the rest of this module;
    numerics are exact-integer end-to-end (residual numerators are
    unbounded Python ints) with the pinned two-float-op ending shared
    with ``adf_stat``. Pairs with fewer than ``min_common`` common
    buckets, a degenerate regressor, or an exact fit are omitted; a
    reference is never tested against itself. Non-SQL (unbounded
    rational arithmetic); oracled by the vendored independent
    Fraction-residual replica (tests/oracle/fills.py)."""
    import ray

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import _run_per_source

    refs_t = tuple(dict.fromkeys(ref_sources))
    if not refs_t:
        raise EngineValueError("ref_sources must be non-empty")
    if len(refs_t) > max_refs:
        raise EngineValueError(
            f"{len(refs_t)} reference sources exceed max_refs={max_refs}; "
            "the reference set is the broadcast small side"
        )
    if step < 60 or step % 60:
        raise EngineValueError(
            f"step must be a positive multiple of 60, got {step}"
        )
    if min_common < 4:
        raise EngineValueError(f"min_common must be >= 4, got {min_common}")
    series_1m = _reference_series(input_path, refs_t, check_tokens=check_tokens)
    missing = [s for s in refs_t if s not in series_1m]
    if missing:
        raise EngineValueError(f"reference sources not in input: {missing}")
    refs = {
        name: _hourly(ts, s, step) for name, (ts, s) in series_1m.items()
    }
    handle = ray.put(refs)

    def one_source(obs: pd.DataFrame, src: str) -> pd.DataFrame:
        import ray as _ray

        r = _ray.get(handle)
        return _eg_one_source(obs, src, r, step, min_common)

    return _run_per_source(input_path, one_source, check_tokens=check_tokens)


def _double_ranks(v: np.ndarray) -> np.ndarray:
    """2x tie-averaged ranks as exact int64: for a tie run occupying
    1-based ranks [s, e], the average rank is (s+e)/2, so its double is
    the integer s+e. Vectorized via unique counts."""
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    starts = np.flatnonzero(np.r_[True, sorted_v[1:] != sorted_v[:-1]])
    ends = np.r_[starts[1:], v.size]
    run_id = np.cumsum(np.r_[False, sorted_v[1:] != sorted_v[:-1]])
    dbl_sorted = (starts + ends + 1)[run_id]  # (s+1) + e in 1-based
    out = np.empty(v.size, dtype=np.int64)
    out[order] = dbl_sorted
    return out


def _spearman_one_source(
    obs: pd.DataFrame,
    source: str,
    refs: "dict[str, tuple[np.ndarray, np.ndarray]]",
    step: int,
    min_common: int,
) -> pd.DataFrame:
    ts = obs["bucket_ts"].to_numpy(np.int64)
    s = obs["sum"].to_numpy(np.int64)
    x_ts, x_sum = _hourly(ts, s, step)
    names, ns, rhos = [], [], []
    for ref_name in sorted(refs):
        if ref_name == source:
            continue
        rts, rsum = refs[ref_name]
        pos = np.searchsorted(rts, x_ts)
        pos_c = np.minimum(pos, max(rts.size - 1, 0))
        hit = (rts.size > 0) & (rts[pos_c] == x_ts)
        n = int(hit.sum())
        if n < min_common:
            continue
        rx = _double_ranks(x_sum[hit])
        ry = _double_ranks(rsum[pos_c[hit]])
        sx, sy = int(rx.sum()), int(ry.sum())
        sxy = int(np.dot(rx, ry))
        sxx, syy = int(np.dot(rx, rx)), int(np.dot(ry, ry))
        num = n * sxy - sx * sy
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        if d1 <= 0 or d2 <= 0:  # a constant series has no rank order
            continue
        names.append(ref_name)
        ns.append(n)
        rhos.append(float(num) / math.sqrt(float(d1) * float(d2)))
    out = pd.DataFrame(
        {
            "source": np.full(len(names), source, dtype=object),
            "ref_source": np.asarray(names, dtype=object),
            "n_common": np.asarray(ns, dtype=np.int64),
            "rho": _round6_half_up(np.asarray(rhos, dtype=np.float64)),
        }
    )
    if not len(out):
        out["source"] = out["source"].astype("string")
        out["ref_source"] = out["ref_source"].astype("string")
    return out


def spearman_correlation(
    input_path,
    *,
    ref_sources: "tuple[str, ...] | list[str]",
    step: int = 3600,
    min_common: int = 8,
    max_refs: int = _MAX_REFS_DEFAULT,
    check_tokens: bool = False,
) -> "Dataset":
    """Spearman rank correlation of every source's ``step``-grain token
    sums against the broadcast reference sources — the monotone-relation
    screen that is robust to the heavy-tailed outliers Pearson
    (:func:`source_correlation`) is dragged by.

    Exactness: tie-averaged ranks are DOUBLED into exact int64
    (:func:`_double_ranks`), Pearson-on-ranks is scale-invariant, and all
    five moments are exact integers — the only float is the pinned
    ``num / sqrt(double(d1) * double(d2))`` + round6 shared with the
    Pearson operator. Same broadcast + single-exchange scale shape as the
    rest of this module. Non-SQL-trivial tie handling; oracled by the
    vendored pandas-rank replica."""
    import ray

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import _run_per_source

    refs_t = tuple(dict.fromkeys(ref_sources))
    if not refs_t:
        raise EngineValueError("ref_sources must be non-empty")
    if len(refs_t) > max_refs:
        raise EngineValueError(
            f"{len(refs_t)} reference sources exceed max_refs={max_refs}; "
            "the reference set is the broadcast small side"
        )
    if step < 60 or step % 60:
        raise EngineValueError(
            f"step must be a positive multiple of 60, got {step}"
        )
    if min_common < 3:
        raise EngineValueError(f"min_common must be >= 3, got {min_common}")
    series_1m = _reference_series(input_path, refs_t, check_tokens=check_tokens)
    missing = [s for s in refs_t if s not in series_1m]
    if missing:
        raise EngineValueError(f"reference sources not in input: {missing}")
    refs = {
        name: _hourly(ts, s, step) for name, (ts, s) in series_1m.items()
    }
    handle = ray.put(refs)

    def one_source(obs: pd.DataFrame, src: str) -> pd.DataFrame:
        import ray as _ray

        r = _ray.get(handle)
        return _spearman_one_source(obs, src, r, step, min_common)

    return _run_per_source(input_path, one_source, check_tokens=check_tokens)
