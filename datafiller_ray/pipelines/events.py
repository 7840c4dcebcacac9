"""Rollup + gap-fill pipelines over the generic ``events`` stream table
(event_id, ts:timestamp, user_id, event_type, value, props).

Demonstrates that the engine's tier/gap-fill machinery is not bound to the
tokenized-sequence schema: any (key, timestamp, measure) stream goes through
the same partial-agg -> groupby(key) -> densify -> fill plan.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data



def _bucket_partial(step: int):
    def fn(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.int64())  # microseconds
        secs = pc.divide(ts, pa.scalar(1_000_000, pa.int64()))
        bucket = pc.multiply(
            pc.divide(secs, pa.scalar(step, pa.int64())), pa.scalar(step, pa.int64())
        )
        slim = pa.table(
            {
                "event_type": batch["event_type"],
                "bucket_ts": bucket,
                "value": batch["value"],
            }
        )
        agg = slim.group_by(["event_type", "bucket_ts"]).aggregate(
            [("value", "count"), ("value", "sum"), ("value", "min"), ("value", "max")]
        )
        return pa.table(
            {
                "event_type": agg["event_type"],
                "bucket_ts": agg["bucket_ts"],
                "n_events": agg["value_count"],
                "sum_value": agg["value_sum"],
                "min_value": agg["value_min"],
                "max_value": agg["value_max"],
            }
        )

    return fn


def _final_combine(g: pd.DataFrame) -> pd.DataFrame:
    agg = g.groupby("bucket_ts", sort=True).agg(
        n_events=("n_events", "sum"),
        sum_value=("sum_value", "sum"),
        min_value=("min_value", "min"),
        max_value=("max_value", "max"),
    )
    out = agg.reset_index()
    out.insert(0, "event_type", g["event_type"].iloc[0])
    out["sum_value"] = np.round(out["sum_value"], 6)
    return out


def events_rollup(
    events: "ray.data.Dataset", *, step: int = 60, span_buckets: int = 4096
) -> "ray.data.Dataset":
    """count/sum/min/max of ``value`` per (event_type, step-aligned bucket).
    Same partial+final algebra as the token rollup. The final combine is
    sharded by (event_type, time-chunk) — buckets combine independently, so
    parallelism is #chunks, not the handful of event types."""
    from datafiller_ray.functions.hashing import string_hash64

    span = step * span_buckets

    def add_keys(t: pa.Table) -> pa.Table:
        chunk = pc.cast(pc.divide(t["bucket_ts"], pa.scalar(span, pa.int64())), pa.int64())
        ekey = string_hash64(
            np.asarray(t["event_type"].to_pandas(), dtype="U")
        ).view(np.int64)
        t = t.append_column("chunk", chunk)
        return t.append_column("ekey", pa.array(ekey, pa.int64()))

    partial = events.map_batches(
        _bucket_partial(step), batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    ).map_batches(add_keys, batch_format="pyarrow")

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        if g["event_type"].nunique() != 1:
            return pd.concat(
                [combine(sub) for _, sub in g.groupby("event_type", sort=True)],
                ignore_index=True,
            )
        return _final_combine(g.drop(columns=["chunk", "ekey"]))

    return partial.groupby(["ekey", "chunk"]).map_groups(
        combine, batch_format="pandas"
    )


def events_rollup_calendar(
    events: "ray.data.Dataset",
    *,
    unit: str = "month",
    span_units: int = 4096,
) -> "ray.data.Dataset":
    """count/sum/min/max of ``value`` per (event_type, CALENDAR bucket) —
    ``date_trunc`` semantics rather than fixed-step arithmetic. Calendar
    buckets are not epoch-aligned multiples of a step (ISO weeks start
    Monday, not the epoch's Thursday; months vary in length), so the
    bucket function is ``pc.floor_temporal`` instead of the integer
    divide used by :func:`events_rollup`; everything downstream — the
    per-batch Arrow partial, the coarse (ekey, chunk) exchange, the
    sharded final combine — is the same algebra.

    ``unit`` is one of ``"day" | "week" | "month"`` (week = ISO,
    Monday-start, matching DuckDB ``date_trunc('week', ...)``).
    Emits (event_type, bucket_ts:timestamp, n_events, sum_value,
    min_value, max_value).
    """
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.functions.hashing import string_hash64

    if unit not in ("day", "week", "month"):
        raise EngineValueError(f"unit must be day|week|month, got {unit!r}")
    # chunk span for the exchange key: calendar units are bounded below by
    # a day, so chunking on the bucket's day index keeps groups coarse
    span_us = 86_400 * 1_000_000 * span_units

    def partial(batch: pa.Table) -> pa.Table:
        bucket = pc.floor_temporal(batch["ts"], unit=unit)
        slim = pa.table(
            {
                "event_type": batch["event_type"],
                "bucket_ts": bucket,
                "value": batch["value"],
            }
        )
        agg = slim.group_by(["event_type", "bucket_ts"]).aggregate(
            [("value", "count"), ("value", "sum"), ("value", "min"), ("value", "max")]
        )
        return pa.table(
            {
                "event_type": agg["event_type"],
                "bucket_ts": agg["bucket_ts"],
                "n_events": agg["value_count"],
                "sum_value": agg["value_sum"],
                "min_value": agg["value_min"],
                "max_value": agg["value_max"],
            }
        )

    def add_keys(t: pa.Table) -> pa.Table:
        chunk = pc.divide(
            pc.cast(t["bucket_ts"], pa.int64()), pa.scalar(span_us, pa.int64())
        )
        ekey = string_hash64(
            np.asarray(t["event_type"].to_pandas(), dtype="U")
        ).view(np.int64)
        t = t.append_column("chunk", chunk)
        return t.append_column("ekey", pa.array(ekey, pa.int64()))

    partials = events.map_batches(
        partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).map_batches(add_keys, batch_format="pyarrow")

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        if g["event_type"].nunique() != 1:
            return pd.concat(
                [combine(sub) for _, sub in g.groupby("event_type", sort=True)],
                ignore_index=True,
            )
        return _final_combine(g.drop(columns=["chunk", "ekey"]))

    return partials.groupby(["ekey", "chunk"]).map_groups(
        combine, batch_format="pandas"
    )


def time_weighted_avg(
    events: "ray.data.Dataset", *, step: int = 3600, span_buckets: int = 4096
) -> "ray.data.Dataset":
    """Within-bucket time-weighted average of ``value`` per (event_type,
    step-aligned bucket) — the irregular-sampling rollup: each observation
    holds its value (LOCF) until the next observation in the SAME bucket,
    the last one until the bucket end, so densely-sampled bursts don't
    dominate the mean the way a plain AVG lets them.

    An observation's influence is clamped at its bucket boundary, which
    makes buckets independent: the exchange key is (event_type,
    time-chunk) exactly like :func:`events_rollup` — no cross-chunk
    anchors, parallelism = #chunks.

    Exactness contract (oracle-comparable): values quantize to integer
    micro-units ``floor(v * 1e6 + 0.5)`` (identical IEEE ops in numpy and
    SQL), weights are integer seconds, the numerator/denominator sums are
    int64-exact in any order, and the final ``twa`` is the single pinned
    division ``num / (1e6 * den)``. Duplicate timestamps tie-break by
    event_id (zero-width spans contribute nothing; the last duplicate
    carries the span).

    Emits (event_type, bucket_ts, n_obs, wsum, twa).
    """
    from datafiller_ray.functions.hashing import string_hash64

    if step < 1:
        from datafiller_ray.config import EngineValueError

        raise EngineValueError(f"step must be >= 1, got {step}")
    span = step * span_buckets

    def project(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"].cast(pa.timestamp("us")), pa.int64())
        ts_s = pc.divide(us, pa.scalar(1_000_000, pa.int64()))
        bucket = pc.multiply(
            pc.divide(ts_s, pa.scalar(step, pa.int64())), pa.scalar(step, pa.int64())
        )
        chunk = pc.divide(bucket, pa.scalar(span, pa.int64()))
        v = t["value"].to_numpy(zero_copy_only=False)
        v_int = np.floor(v * 1e6 + 0.5).astype(np.int64)
        ekey = string_hash64(
            np.asarray(t["event_type"].to_pandas(), dtype="U")
        ).view(np.int64)
        return pa.table(
            {
                "event_type": t["event_type"],
                "ekey": pa.array(ekey, pa.int64()),
                "chunk": chunk,
                "bucket_ts": bucket,
                "ts_s": ts_s,
                "event_id": t["event_id"].cast(pa.int64()),
                "v_int": pa.array(v_int, pa.int64()),
            }
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        if g["event_type"].nunique() != 1:
            return pd.concat(
                [combine(sub) for _, sub in g.groupby("event_type", sort=True)],
                ignore_index=True,
            )
        order = np.lexsort(
            (g["event_id"].to_numpy(np.int64), g["ts_s"].to_numpy(np.int64))
        )
        ts = g["ts_s"].to_numpy(np.int64)[order]
        bucket = g["bucket_ts"].to_numpy(np.int64)[order]
        v_int = g["v_int"].to_numpy(np.int64)[order]
        nxt = np.empty_like(ts)
        nxt[:-1] = ts[1:]
        nxt[-1] = np.iinfo(np.int64).max
        same_bucket = np.empty(ts.size, dtype=bool)
        same_bucket[:-1] = bucket[:-1] == bucket[1:]
        same_bucket[-1] = False
        w = np.where(same_bucket, nxt - ts, bucket + step - ts)
        # per-bucket int64-exact reductions (buckets are sorted runs)
        starts = np.flatnonzero(np.r_[True, bucket[1:] != bucket[:-1]])
        num = np.add.reduceat(v_int * w, starts)
        den = np.add.reduceat(w, starts)
        n_obs = np.diff(np.r_[starts, ts.size])
        twa = num.astype(np.float64) / (1e6 * den.astype(np.float64))
        return pd.DataFrame(
            {
                "event_type": g["event_type"].iloc[0],
                "bucket_ts": bucket[starts],
                "n_obs": n_obs.astype(np.int64),
                "wsum": den.astype(np.int64),
                "twa": twa,
            }
        )

    slim = events.map_batches(
        project, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    return slim.groupby(["ekey", "chunk"]).map_groups(combine, batch_format="pandas")


def _round6_half_up(x: np.ndarray) -> np.ndarray:
    """floor(x*1e6 + 0.5)/1e6 — the fill-value rounding used on BOTH the
    engine and oracle side. Unlike np.round vs DuckDB round_even (whose
    implementations disagree within ~1 ulp of a half boundary), this is a
    fixed sequence of IEEE ops, so identical input doubles give identical
    results everywhere. Idempotent on already-6-decimal values."""
    return np.floor(x * 1e6 + 0.5) / 1e6


def _interp_like_sql(
    grid: np.ndarray,
    obs_ts: np.ndarray,
    obs_val: np.ndarray,
    kind: str,
) -> np.ndarray:
    """Gap values for every grid position, anchored on the nearest observed
    point on each side (``obs_ts`` sorted, may extend beyond the grid).

    The linear formula is evaluated with the EXACT operation order of the
    SQL oracle expression ``pv + (nv - pv) * (t - pts) / (nts - pts)`` —
    IEEE doubles are deterministic per (ops, order, inputs), so matching the
    expression tree makes engine and DuckDB bit-identical even on half-ulp
    rounding boundaries (np.interp's slope formulation was one ulp off on
    ~0.02% of rows). Leading positions (no left anchor) stay NaN; trailing
    positions (no right anchor) clamp to the left anchor value."""
    out = np.full(grid.size, np.nan)
    if obs_ts.size == 0:
        return out
    # left anchor index per grid position (-1 = none)
    li = np.searchsorted(obs_ts, grid, side="right") - 1
    has_l = li >= 0
    pv = np.where(has_l, obs_val[np.clip(li, 0, None)], np.nan)
    if kind == "locf":
        return pv
    ri = li + 1
    has_r = ri < obs_ts.size
    nv = np.where(has_r, obs_val[np.clip(ri, None, obs_ts.size - 1)], np.nan)
    pts = obs_ts[np.clip(li, 0, None)]
    nts = obs_ts[np.clip(ri, None, obs_ts.size - 1)]
    with np.errstate(invalid="ignore", divide="ignore"):
        interp = pv + (nv - pv) * (grid - pts).astype(np.float64) / (
            nts - pts
        ).astype(np.float64)
    out = np.where(has_l & has_r, interp, np.where(has_l, pv, np.nan))
    # observed positions pass through exactly
    exact = has_l & (obs_ts[np.clip(li, 0, None)] == grid)
    out[exact] = pv[exact]
    return out


def _combine_chunk(g: pd.DataFrame) -> pd.DataFrame:
    """Final-combine partial rows of one (event_type, chunk): one observed
    row per bucket, sum rounded to 6 (the series the fill interpolates).
    Sub-groups by the string type for hash-collision safety (shuffle key is
    the int64 ekey)."""
    if g["event_type"].nunique() != 1:
        return pd.concat(
            [_combine_chunk(sub) for _, sub in g.groupby("event_type", sort=True)],
            ignore_index=True,
        )
    agg = g.groupby("bucket_ts", sort=True).agg(
        n_events=("n_events", "sum"), sum_value=("sum_value", "sum")
    )
    out = agg.reset_index()
    out["sum_value"] = np.round(out["sum_value"].to_numpy(np.float64), 6)
    out.insert(0, "event_type", g["event_type"].iloc[0])
    out["chunk"] = np.int64(g["chunk"].iloc[0])
    out["ekey"] = np.int64(g["ekey"].iloc[0])
    return out


def _events_gapfill_sharded(
    events: "ray.data.Dataset", *, step: int, kind: str, span_buckets: int = 4096
) -> "ray.data.Dataset":
    """Gap fill sharded by (event_type, time-chunk) with a distributed
    anchor exchange — fill parallelism is #chunks, not #event_types (a
    handful of types serialized the round-1 stage at scale).

    Ghost margins cannot cover unbounded gaps, so instead each chunk gets
    its nearest observed anchors from neighbouring chunks: pass 1 combines
    partials per chunk; a tiny per-chunk boundary table (first/last observed
    point per chunk — bounded by chunk count, not row count) is resolved
    with vectorized frame ops (per-type shifts — no Python loop over the
    chunk range) into prev/next anchor MARKER ROWS that ride the same
    (ekey, chunk) shuffle as the data; pass 2 fills each chunk independently
    and bit-exactly (the fill reads its anchors from its own group). Empty
    chunks inside long gaps are emitted as one range row per gap and
    expanded distributed."""
    span = step * span_buckets
    from datafiller_ray.functions.hashing import string_hash64

    def add_chunk(t: pa.Table) -> pa.Table:
        chunk = pc.divide(t["bucket_ts"], pa.scalar(span, pa.int64()))
        ekey = string_hash64(
            np.asarray(t["event_type"].to_pandas(), dtype="U")
        ).view(np.int64)
        t = t.append_column("chunk", pc.cast(chunk, pa.int64()))
        return t.append_column("ekey", pa.array(ekey, pa.int64()))

    partial = events.map_batches(
        _bucket_partial(step), batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    ).map_batches(add_chunk, batch_format="pyarrow")

    # int64 shuffle key (ekey) — string keys sort ~3x slower
    combined = partial.groupby(["ekey", "chunk"]).map_groups(
        _combine_chunk, batch_format="pandas"
    ).materialize()

    # pass 2 prep: per-chunk boundary summary WITH boundary values,
    # vectorized per block and resolved with frame ops on the driver (no
    # Python loop over the chunk range, no broadcast dict: anchors travel
    # through the same (ekey, chunk) shuffle as marker rows, so the fill
    # group reads them next to its own data).
    def chunk_summary(df: pd.DataFrame) -> pd.DataFrame:
        keys = ["event_type", "ekey", "chunk"]
        lo = (
            df.sort_values("bucket_ts")
            .groupby(keys, as_index=False)
            .first()[keys + ["bucket_ts", "sum_value"]]
            .rename(columns={"bucket_ts": "lo_ts", "sum_value": "lo_val"})
        )
        hi = (
            df.sort_values("bucket_ts", ascending=False)
            .groupby(keys, as_index=False)
            .first()[keys + ["bucket_ts", "sum_value"]]
            .rename(columns={"bucket_ts": "hi_ts", "sum_value": "hi_val"})
        )
        return lo.merge(hi, on=keys)

    keys = ["event_type", "ekey", "chunk"]
    summary = combined.map_batches(chunk_summary, batch_format="pandas").to_pandas()
    # cross-block resolve: a chunk split across blocks keeps its true extremes
    lo = (
        summary.sort_values("lo_ts")
        .groupby(keys, as_index=False)
        .first()[keys + ["lo_ts", "lo_val"]]
    )
    hi = (
        summary.sort_values("hi_ts", ascending=False)
        .groupby(keys, as_index=False)
        .first()[keys + ["hi_ts", "hi_val"]]
    )
    s = (
        lo.merge(hi, on=keys)
        .sort_values(["event_type", "chunk"])
        .reset_index(drop=True)
    )
    # vectorized prev/next anchors + grid bounds per present chunk
    grp = s.groupby("event_type", sort=False)
    s["prev_ts"] = grp["hi_ts"].shift(1)
    s["prev_val"] = grp["hi_val"].shift(1)
    s["next_ts"] = grp["lo_ts"].shift(-1)
    s["next_val"] = grp["lo_val"].shift(-1)
    s["next_chunk"] = grp["chunk"].shift(-1)
    t_lo = grp["lo_ts"].transform("min").to_numpy(np.int64)
    t_hi = grp["hi_ts"].transform("max").to_numpy(np.int64)
    ck = s["chunk"].to_numpy(np.int64)
    s["c_lo"] = np.maximum(ck * span, t_lo)
    s["c_hi"] = np.minimum((ck + 1) * span - step, t_hi)

    # marker rows, same schema as combined so they ride the same shuffle:
    # n_events -1 = chunk meta (bucket_ts=c_lo, sum_value=c_hi),
    #          -2 = prev anchor, -3 = next anchor
    def marker_frame(sel: pd.DataFrame, code: int, ts_col: str, val_col: str):
        return pd.DataFrame(
            {
                "event_type": sel["event_type"].to_numpy(),
                "bucket_ts": sel[ts_col].to_numpy(np.int64),
                "n_events": np.full(len(sel), code, dtype=np.int64),
                "sum_value": sel[val_col].to_numpy(np.float64),
                "chunk": sel["chunk"].to_numpy(np.int64),
                "ekey": sel["ekey"].to_numpy(np.int64),
            }
        )

    markers = pd.concat(
        [
            marker_frame(s, -1, "c_lo", "c_hi"),
            marker_frame(s[s["prev_ts"].notna()], -2, "prev_ts", "prev_val"),
            marker_frame(s[s["next_ts"].notna()], -3, "next_ts", "next_val"),
        ],
        ignore_index=True,
    )[["event_type", "bucket_ts", "n_events", "sum_value", "chunk", "ekey"]]

    def fill_chunk(g: pd.DataFrame) -> pd.DataFrame:
        if g["event_type"].nunique() != 1 or g["chunk"].nunique() != 1:
            return pd.concat(
                [
                    fill_chunk(sub)
                    for _, sub in g.groupby(["event_type", "chunk"], sort=True)
                ],
                ignore_index=True,
            )
        etype = g["event_type"].iloc[0]
        codes = g["n_events"].to_numpy(np.int64)
        meta = g[codes == -1]
        c_lo = int(meta["bucket_ts"].iloc[0])
        c_hi = int(meta["sum_value"].iloc[0])
        grid = np.arange(c_lo, c_hi + step, step, dtype=np.int64)
        data = g[codes >= 0].sort_values("bucket_ts")
        ts = data["bucket_ts"].to_numpy(np.int64)
        vals = data["sum_value"].to_numpy(np.float64)
        n = np.zeros(grid.size, dtype=np.int64)
        n[(ts - c_lo) // step] = data["n_events"].to_numpy(np.int64)
        obs_ts, obs_val = ts, vals
        prev = g[codes == -2]
        nxt = g[codes == -3]
        if len(prev):
            obs_ts = np.concatenate([prev["bucket_ts"].to_numpy(np.int64), obs_ts])
            obs_val = np.concatenate([prev["sum_value"].to_numpy(np.float64), obs_val])
        if len(nxt):
            obs_ts = np.concatenate([obs_ts, nxt["bucket_ts"].to_numpy(np.int64)])
            obs_val = np.concatenate([obs_val, nxt["sum_value"].to_numpy(np.float64)])
        filled = _interp_like_sql(grid, obs_ts, obs_val, kind)
        return pd.DataFrame(
            {
                "event_type": etype,
                "bucket_ts": grid,
                "n_events": n,
                "fill_value": _round6_half_up(filled),
            }
        )

    with_markers = combined.union(ray.data.from_pandas(markers))
    pieces = [
        with_markers.groupby(["ekey", "chunk"]).map_groups(
            fill_chunk, batch_format="pandas"
        )
    ]
    # empty chunks inside long gaps: ONE range row per observed-chunk pair
    # around a gap (not one per missing chunk), expanded distributed
    gaps = s[s["next_chunk"].notna() & (s["next_chunk"] > s["chunk"] + 1)]
    if len(gaps):
        meta_df = pd.DataFrame(
            {
                "event_type": gaps["event_type"].to_numpy(),
                "start_chunk": gaps["chunk"].to_numpy(np.int64) + 1,
                "end_chunk": gaps["next_chunk"].to_numpy(np.int64) - 1,
                "prev_ts": gaps["hi_ts"].to_numpy(np.int64),
                "prev_val": gaps["hi_val"].to_numpy(np.float64),
                "next_ts": gaps["next_ts"].to_numpy(np.int64),
                "next_val": gaps["next_val"].to_numpy(np.float64),
            }
        )

        def gen_empty(batch: pd.DataFrame) -> pd.DataFrame:
            out = []
            for r in batch.itertuples():
                # the whole gap shares its two anchors, so one grid + one
                # interpolation covers every empty chunk in it bit-exactly
                grid = np.arange(
                    r.start_chunk * span, (r.end_chunk + 1) * span, step,
                    dtype=np.int64,
                )
                filled = _interp_like_sql(
                    grid,
                    np.asarray([r.prev_ts, r.next_ts], np.int64),
                    np.asarray([r.prev_val, r.next_val], np.float64),
                    kind,
                )
                out.append(
                    pd.DataFrame(
                        {
                            "event_type": r.event_type,
                            "bucket_ts": grid,
                            "n_events": np.zeros(grid.size, np.int64),
                            "fill_value": _round6_half_up(filled),
                        }
                    )
                )
            return pd.concat(out, ignore_index=True)

        pieces.append(
            ray.data.from_pandas(meta_df).map_batches(
                gen_empty, batch_format="pandas", batch_size=16
            )
        )
    out = pieces[0]
    for p in pieces[1:]:
        out = out.union(p)
    return out


def events_gapfill_locf(
    events: "ray.data.Dataset", *, step: int = 60, span_buckets: int = 4096
) -> "ray.data.Dataset":
    """Dense per-event_type grid with LOCF-filled sum(value) — the events
    analogue of the tier gap fill (SQL-oracle-expressible via
    last_value IGNORE NULLS). Sharded by time chunk (anchor exchange)."""
    return _events_gapfill_sharded(
        events, step=step, kind="locf", span_buckets=span_buckets
    )


def events_sessions(
    events: "ray.data.Dataset", *, gap_seconds: int = 1800
) -> "ray.data.Dataset":
    """Session windows per user: consecutive events closer than
    ``gap_seconds`` belong to one session (the streaming-shaped operator of
    ray_guide.md: the log is partitioned by key and windowed inside sorted
    ``map_groups``; the ordering assumption is per-user, never global).

    Emits (user_id, session_start, n_events, duration_sec) — all integers,
    so the DuckDB oracle compares hash-exactly."""

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        s = np.sort(g["ts_s"].to_numpy(np.int64))
        brk = np.empty(s.size, dtype=bool)
        brk[0] = True
        np.greater(np.diff(s), gap_seconds, out=brk[1:])
        sid = np.cumsum(brk) - 1
        starts = s[brk]
        n = np.bincount(sid)
        ends = np.maximum.reduceat(s, np.flatnonzero(brk))
        return pd.DataFrame(
            {
                "user_id": np.int64(g["user_id"].iloc[0]),
                "session_start": starts,
                "n_events": n.astype(np.int64),
                "duration_sec": (ends - starts).astype(np.int64),
            }
        )

    def project(batch: pa.Table) -> pa.Table:
        secs = pc.divide(pc.cast(batch["ts"], pa.int64()), pa.scalar(1_000_000, pa.int64()))
        return pa.table({"user_id": batch["user_id"], "ts_s": secs})

    slim = events.map_batches(
        project, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    return slim.groupby("user_id").map_groups(per_user, batch_format="pandas")


def events_gapfill_linear(
    events: "ray.data.Dataset", *, step: int = 60, span_buckets: int = 4096
) -> "ray.data.Dataset":
    """Linear-interpolated variant (reference interpolate_small_gaps
    semantics with unbounded max_gap; interpolation evaluated in the SQL
    oracle's op order so DuckDB matches bit-exactly — see _interp_like_sql).
    Sharded by time chunk (anchor exchange)."""
    return _events_gapfill_sharded(
        events, step=step, kind="linear", span_buckets=span_buckets
    )


def funnel_analysis(
    events: "ray.data.Dataset",
    *,
    steps: "tuple[str, ...]" = ("view", "click", "purchase"),
) -> "ray.data.Dataset":
    """Ordered-funnel progression per user: the furthest step k such that
    there exist events of type ``steps[0] .. steps[k-1]`` at STRICTLY
    increasing timestamps. The earliest-chain greedy scan (take the first
    occurrence of each step after the previous milestone) is optimal for
    unwindowed funnels, so both the engine and the SQL oracle compute the
    identical chain: t1 = min ts of step 1, t_i = min ts of step i with
    ts > t_{i-1}.

    Emits (user_id, reached_step, completed_ts) with completed_ts = -1
    when the funnel was not completed. Timestamps compare in integer
    microseconds — no float ops anywhere.

    Scale shape: project (user_id, event_type, ts_us) in a pruned
    zero-copy pass (value/props never move), one groupby(user_id)
    exchange, O(n log n) per user.
    """
    from datafiller_ray.config import EngineValueError

    if len(steps) < 2:
        raise EngineValueError(f"funnel needs >= 2 steps, got {steps!r}")
    if len(set(steps)) != len(steps):
        raise EngineValueError(f"funnel steps must be distinct, got {steps!r}")
    step_list = list(steps)

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts_us"].to_numpy(np.int64)
        et = g["event_type"].to_numpy()
        reached = 0
        last = np.int64(-1)
        for s in step_list:  # bounded by funnel length, not event count
            cand = ts[(et == s) & (ts > last)]
            if cand.size == 0:
                break
            last = cand.min()
            reached += 1
        completed = last if reached == len(step_list) else np.int64(-1)
        return pd.DataFrame(
            {
                "user_id": np.array([g["user_id"].iloc[0]], np.int64),
                "reached_step": np.array([reached], np.int64),
                "completed_ts": np.array([completed], np.int64),
            }
        )

    def project(batch: pa.Table) -> pa.Table:
        # normalize the unit explicitly (parquet is timestamp[us]; pandas
        # round-trips as [ns]) so ts_us is epoch microseconds either way
        us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                "user_id": batch["user_id"],
                "event_type": batch["event_type"],
                "ts_us": us,
            }
        )

    slim = events.map_batches(
        project, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    return slim.groupby("user_id").map_groups(per_user, batch_format="pandas")


def cohort_retention(
    events: "ray.data.Dataset", *, period_seconds: int = 86400
) -> "ray.data.Dataset":
    """Cohort-retention matrix: users grouped by first-active period
    (cohort), counted once per (cohort, periods-since-cohort) they were
    active in. Emits (cohort_period, period_offset, n_active) — all
    integers.

    Two exchanges, both small: per-user distinct (cohort, offset) pairs
    (bounded by users x active periods), then a count combine over the
    matrix cells. Raw events are projected to (user_id, period) before
    anything moves.
    """
    from datafiller_ray.config import EngineValueError

    if period_seconds < 1:
        raise EngineValueError(f"period_seconds must be >= 1, got {period_seconds}")

    def project(batch: pa.Table) -> pa.Table:
        # per-batch distinct (user, period); a user-keyed map_groups would
        # pay one Python call PER USER (corpus-cardinality at scale), so
        # 256 coarse user buckets bound the group count and the per-bucket
        # pass below is vectorized across users
        us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        per = pc.divide(pc.divide(us, pa.scalar(1_000_000, pa.int64())),
                        pa.scalar(period_seconds, pa.int64()))
        t = pa.table({"user_id": batch["user_id"], "period": per})
        return t.group_by(["user_id", "period"]).aggregate([])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # all users of this bucket at once: sort by (user, period), find
        # each user's first (= min) period, offsets are vectorized diffs
        u = g["user_id"].to_numpy(np.int64)
        per = g["period"].to_numpy(np.int64)
        order = np.lexsort((per, u))
        u, per = u[order], per[order]
        keep = np.r_[True, (u[1:] != u[:-1]) | (per[1:] != per[:-1])]
        u2, p2 = u[keep], per[keep]
        newu = np.r_[True, u2[1:] != u2[:-1]]
        cohort = p2[newu][np.cumsum(newu) - 1]
        cells = pd.DataFrame(
            {"cohort_period": cohort, "period_offset": p2 - cohort}
        ).groupby(["cohort_period", "period_offset"], as_index=False).size()
        return cells.rename(columns={"size": "one"})

    slim = events.map_batches(
        project, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    from datafiller_ray.stages.exchange import coarse_map_groups, grouped_sum

    pairs = coarse_map_groups(slim, "user_id", per_bucket, n_buckets=256)
    counted = grouped_sum(pairs, ["cohort_period", "period_offset"], "one")
    return counted.map_batches(
        lambda b: b.rename(columns={"one": "n_active"}), batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# inter-arrival time statistics (exact, chunk-sharded)


def interarrival_stats(
    events: "ray.data.Dataset",
    *,
    qs: "tuple[float, ...]" = (0.5, 0.9, 0.99),
    span_seconds: int = 3600 * 4096,
) -> "ray.data.Dataset":
    """Exact per-event-type inter-arrival statistics (count, mean and
    quantiles IN SECONDS of the gaps between consecutive events of a
    type, ordered by (ts, event_id); gaps measured in exact integer
    microseconds internally) — the stream-health profile that sizes
    gap-fill ``max_gap`` and rollup steps for irregular feeds.

    Two-stage exact plan, no per-key-fits-in-a-task restriction on the
    EVENT data: stage 1 groups by (event_type-hash, time-chunk) and emits
    a (dt, count) HISTOGRAM partial per chunk plus one boundary row
    (first_ts, last_ts) — chunks are time-disjoint, so the only gaps a
    chunk cannot see are the #chunks-1 boundary gaps. Stage 2 groups the
    TINY partials by type, adds the boundary gaps between consecutive
    present chunks, and reads the quantiles off the merged histogram via
    cumulative counts — the same ``pos = q*(n-1)`` linear-interpolation
    rule as every quantile in the engine (window._quantile_pos), so
    DuckDB's ``quantile_cont`` over a LAG() oracle matches bit-for-bit.
    Duplicate timestamps contribute zero-width gaps (kept, deterministic
    by the event_id tie-break). Mean is the single pinned division over
    int64-exact sums.
    """
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.functions.hashing import string_hash64
    from datafiller_ray.pipelines.window import _quantile_pos

    if not qs or any(not (0.0 <= q <= 1.0) for q in qs):
        raise EngineValueError(f"qs must be fractions in [0, 1], got {qs!r}")
    if span_seconds < 1:
        raise EngineValueError(f"span_seconds must be >= 1, got {span_seconds}")
    span_us = span_seconds * 1_000_000

    def project(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"].cast(pa.timestamp("us")), pa.int64())
        ekey = string_hash64(
            np.asarray(t["event_type"].to_pandas(), dtype="U")
        ).view(np.int64)
        chunk = pc.divide(us, pa.scalar(span_us, pa.int64()))
        return pa.table(
            {
                "event_type": t["event_type"],
                "ekey": pa.array(ekey, pa.int64()),
                "chunk": chunk,
                "ts_us": us,
                "event_id": t["event_id"].cast(pa.int64()),
            }
        )

    def chunk_partial(g: pd.DataFrame) -> pd.DataFrame:
        def one(sub: pd.DataFrame) -> pd.DataFrame:
            order = np.lexsort(
                (sub["event_id"].to_numpy(np.int64),
                 sub["ts_us"].to_numpy(np.int64))
            )
            ts = sub["ts_us"].to_numpy(np.int64)[order]
            dts = ts[1:] - ts[:-1]
            uniq, counts = np.unique(dts, return_counts=True)
            et = sub["event_type"].iloc[0]
            ch = np.int64(sub["chunk"].iloc[0])
            h = pd.DataFrame(
                {
                    "event_type": np.full(uniq.size, et, dtype=object),
                    "ekey": np.full(uniq.size, sub["ekey"].iloc[0], np.int64),
                    "chunk": np.full(uniq.size, ch, np.int64),
                    "kind": np.zeros(uniq.size, np.int64),
                    "dt": uniq,
                    "cnt": counts.astype(np.int64),
                    "f_ts": np.zeros(uniq.size, np.int64),
                    "l_ts": np.zeros(uniq.size, np.int64),
                }
            )
            b = pd.DataFrame(
                {
                    "event_type": [et],
                    "ekey": [np.int64(sub["ekey"].iloc[0])],
                    "chunk": [ch],
                    "kind": np.ones(1, np.int64),
                    "dt": np.zeros(1, np.int64),
                    "cnt": np.zeros(1, np.int64),
                    "f_ts": ts[[0]],
                    "l_ts": ts[[-1]],
                }
            )
            return pd.concat([h, b], ignore_index=True)

        if g["event_type"].nunique() == 1:
            return one(g)
        return pd.concat(
            [one(sub) for _, sub in g.groupby("event_type", sort=True)],
            ignore_index=True,
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        def one(sub: pd.DataFrame) -> pd.DataFrame:
            hist = sub[sub["kind"] == 0]
            bound = sub[sub["kind"] == 1].sort_values("chunk")
            # boundary gaps between consecutive PRESENT chunks
            f = bound["f_ts"].to_numpy(np.int64)
            l = bound["l_ts"].to_numpy(np.int64)
            cross = f[1:] - l[:-1]
            dts = np.concatenate([hist["dt"].to_numpy(np.int64), cross])
            cnts = np.concatenate(
                [hist["cnt"].to_numpy(np.int64),
                 np.ones(cross.size, np.int64)]
            )
            order = np.argsort(dts, kind="stable")
            dts, cnts = dts[order], cnts[order]
            # re-merge equal dt bins from different chunks
            if dts.size:
                new = np.r_[True, dts[1:] != dts[:-1]]
                starts = np.flatnonzero(new)
                dts = dts[starts]
                cnts = np.add.reduceat(cnts, starts)
            n = int(cnts.sum())
            et = sub["event_type"].iloc[0]
            if n == 0:
                return pd.DataFrame(
                    {
                        "event_type": pd.Series([], dtype="string"),
                        "n_intervals": pd.Series([], dtype="int64"),
                        "mean_s": pd.Series([], dtype="float64"),
                        **{
                            f"p{str(q).replace('.', '_')}_s":
                                pd.Series([], dtype="float64")
                            for q in qs
                        },
                    }
                )
            # unbounded Python ints: dt(µs) x count products can pass 2^63
            # on wide time ranges (the acf/source_correlation precedent)
            total = sum(
                int(d) * int(c) for d, c in zip(dts.tolist(), cnts.tolist())
            )
            # report in SECONDS: µs magnitudes (~1e10) are beyond the
            # round6 absorber's reach (x*1e6 > 2^53), while second-scale
            # values leave it ~5 decades of headroom over the ~1-ulp
            # divergence of the two quantile interpolation paths
            mean = np.floor(float(total) / float(n) / 1e6 * 1e6 + 0.5) / 1e6
            cum = np.cumsum(cnts)

            def order_stat(k: int) -> float:
                return float(dts[np.searchsorted(cum, k, side="right")])

            row: dict = {
                "event_type": [et],
                "n_intervals": np.array([n], np.int64),
                "mean_s": np.array([mean], np.float64),
            }
            for q in qs:
                lo, hi, frac = _quantile_pos(n, q)
                x_lo, x_hi = order_stat(lo), order_stat(hi)
                v = (x_lo + (x_hi - x_lo) * frac) / 1e6
                row[f"p{str(q).replace('.', '_')}_s"] = np.array(
                    [np.floor(v * 1e6 + 0.5) / 1e6], np.float64
                )
            return pd.DataFrame(row)

        if g["event_type"].nunique() == 1:
            return one(g)
        return pd.concat(
            [one(sub) for _, sub in g.groupby("event_type", sort=True)],
            ignore_index=True,
        )

    slim = events.map_batches(
        project, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    partials = slim.groupby(["ekey", "chunk"]).map_groups(
        chunk_partial, batch_format="pandas"
    )
    return partials.groupby("ekey").map_groups(merge, batch_format="pandas")


def user_top_event(
    events: "ray.data.Dataset", *, n_buckets: int = 64
) -> "ray.data.Dataset":
    """Per-user modal event type — the grouped-mode operator (SQL
    ``row_number() OVER (PARTITION BY user ORDER BY count DESC, type)``):
    for every user, the event_type with the highest event count, ties to
    the lexicographically smallest type. Emits (user_id, top_event, cnt).

    Scale shape: one pruned zero-copy projection collapses each input block
    to (user_id, event_type, cnt) partial counts (the only rows that move),
    then ONE bounded coarse exchange on ``user_id`` (``coarse_map_groups``)
    — per-bucket work is a vectorized pandas sum + stable first-row-per-user
    pick, never a per-user Python call. Integer counts are order-independent
    exactly, so the plan is deterministic under any block layout.
    """
    from datafiller_ray.stages.exchange import coarse_map_groups

    def partial(t: pa.Table) -> pa.Table:
        slim = pa.table({"user_id": t["user_id"], "event_type": t["event_type"]})
        agg = slim.group_by(["user_id", "event_type"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "user_id": agg["user_id"],
                "event_type": agg["event_type"],
                "cnt": agg["count_all"],
            }
        )

    def top_per_user(g: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: null event_type forms a group exactly like the SQL
        # oracle (pandas silently DROPS it by default — grouped_sum lesson)
        summed = g.groupby(
            ["user_id", "event_type"], sort=False, as_index=False, dropna=False
        )["cnt"].sum()
        summed = summed.sort_values(
            ["user_id", "cnt", "event_type"],
            ascending=[True, False, True],
            kind="stable",
        )
        top = summed.drop_duplicates("user_id", keep="first")
        return pd.DataFrame(
            {
                "user_id": top["user_id"].to_numpy(np.int64),
                "top_event": top["event_type"].to_numpy(),
                "cnt": top["cnt"].to_numpy(np.int64),
            }
        )

    partials = events.map_batches(
        partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    return coarse_map_groups(partials, "user_id", top_per_user, n_buckets=n_buckets)


def transition_topk(
    events: "ray.data.Dataset", *, k: int = 20, n_buckets: int = 64
) -> "ray.data.Dataset":
    """Top-k event-type transitions (the first-order Markov structure of
    the stream): count consecutive (prev_type, next_type) pairs within each
    user's timeline ordered by (ts, event_id) — the deterministic ordering
    every sequential events operator here shares — and rank globally by
    (count desc, prev asc, next asc).

    Scale shape: a pruned zero-copy projection, ONE bounded coarse exchange
    on ``user_id`` (``coarse_map_groups``; each user's timeline lands
    whole in one bucket; the heavy props/value columns never move), a fully
    vectorized pair extraction per bucket (sort + shifted-equality mask —
    no per-user Python), a second tiny exchange over the (prev, next, cnt)
    partials, then the vocab_topk partial-top-k reduction. Integer counts:
    order-independent exactly.
    """
    from datafiller_ray.config import EngineValueError

    if k <= 0:
        raise EngineValueError("k must be positive")

    def project(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                "user_id": t["user_id"],
                "ts_us": us,
                "event_id": t["event_id"],
                "event_type": t["event_type"],
            }
        )

    def pair_counts(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="stable")
        u = g["user_id"].to_numpy(np.int64)
        et = g["event_type"].to_numpy()
        if u.size < 2:
            return pd.DataFrame(
                {
                    "prev": pd.Series([], dtype="string"),
                    "nxt": pd.Series([], dtype="string"),
                    "cnt": pd.Series([], dtype=np.int64),
                }
            )
        same = u[1:] == u[:-1]
        prev = et[:-1][same]
        nxt = et[1:][same]
        # a null PREV is indistinguishable from the SQL LAG boundary null,
        # so the oracle's WHERE prev IS NOT NULL drops it — mirror that;
        # null NXT survives (dropna=False keeps its group)
        ok = pd.notna(prev)
        df = pd.DataFrame({"prev": prev[ok], "nxt": nxt[ok]})
        out = (
            df.groupby(["prev", "nxt"], sort=False, dropna=False)
            .size()
            .reset_index(name="cnt")
        )
        out["cnt"] = out["cnt"].astype(np.int64)
        return out

    from datafiller_ray.stages.exchange import (
        coarse_map_groups,
        grouped_sum,
        topk_block_fn,
    )

    topk_block = topk_block_fn(k, "cnt", ["prev", "nxt"])

    slim = events.map_batches(
        project, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    partials = coarse_map_groups(slim, "user_id", pair_counts, n_buckets=n_buckets)
    counts = grouped_sum(partials, ["prev", "nxt"], "cnt")
    pruned = counts.map_batches(topk_block, batch_format="pyarrow")
    return pruned.repartition(1).map_batches(topk_block, batch_format="pyarrow")


CUBE_ALL = "<ALL>"  # grouping-sets margin sentinel (avoids null shuffle keys)


def events_cube(
    events: "ray.data.Dataset", *, step: int = 3600
) -> "ray.data.Dataset":
    """GROUPING SETS cube over the event stream: event count + value sum
    for every combination of (event_type, time bucket) INCLUDING the
    margins — per type across all time, per bucket across all types, and
    the grand total (SQL ``GROUP BY GROUPING SETS ((t, h), (t), (h),
    ())``). Margin rows carry the ``<ALL>`` / ``-1`` sentinels instead of
    SQL NULLs so the shuffle key is never null (the engine's null-key
    routing lesson from the join family, applied by construction).

    Exactness: counts are integers; the double ``value`` is floored onto
    the 1e-6 grid PER EVENT (``time_weighted_avg``'s integer micro-unit
    precedent) so all four grouping-set sums are int64-exact and
    order-independent, with one final division each.

    Scale shape: each input block pre-aggregates to at most
    ``4 * |types x buckets-in-block|`` partial rows inside ``map_batches``
    (the cube fan-out happens AFTER the per-batch collapse, not per
    event), then ONE bounded grouped_sum exchange.
    """
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.exchange import grouped_sum

    if step < 1:
        raise EngineValueError(f"step must be >= 1, got {step}")

    def partial(t: pa.Table) -> pd.DataFrame:
        if t.num_rows == 0:
            # no unconditional total row for an empty batch (and an empty
            # TABLE yields zero rows, unlike SQL's single () row — the one
            # documented divergence, which only a rowless corpus can hit)
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype=object),
                    "bucket_ts": pd.Series([], dtype=np.int64),
                    "n_events": pd.Series([], dtype=np.int64),
                    "val_u": pd.Series([], dtype=np.int64),
                }
            )
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        hr = (us // 1_000_000 // step) * step
        et = np.asarray(t["event_type"].to_pylist(), dtype=object)
        # a data-null type COALESCEs into the margin sentinel in the SQL
        # oracle; mirror it here so neither side grows a null group
        et = np.where(pd.isna(et), CUBE_ALL, et)
        val_u = np.floor(
            t["value"].to_numpy(zero_copy_only=False) * 1e6 + 0.5
        ).astype(np.int64)
        base = pd.DataFrame({"event_type": et, "bucket_ts": hr, "val_u": val_u})
        fine = (
            base.groupby(["event_type", "bucket_ts"], sort=False)
            .agg(n_events=("val_u", "size"), val_u=("val_u", "sum"))
            .reset_index()
        )
        by_type = (
            fine.groupby("event_type", sort=False)
            .agg(n_events=("n_events", "sum"), val_u=("val_u", "sum"))
            .reset_index()
        )
        by_type["bucket_ts"] = np.int64(-1)
        by_hr = (
            fine.groupby("bucket_ts", sort=False)
            .agg(n_events=("n_events", "sum"), val_u=("val_u", "sum"))
            .reset_index()
        )
        by_hr["event_type"] = CUBE_ALL
        total = pd.DataFrame(
            {
                "event_type": [CUBE_ALL],
                "bucket_ts": np.array([-1], dtype=np.int64),
                "n_events": [int(fine["n_events"].sum())],
                "val_u": [int(fine["val_u"].sum())],
            }
        )
        cols = ["event_type", "bucket_ts", "n_events", "val_u"]
        out = pd.concat(
            [fine[cols], by_type[cols], by_hr[cols], total[cols]],
            ignore_index=True,
        )
        out["n_events"] = out["n_events"].astype(np.int64)
        out["val_u"] = out["val_u"].astype(np.int64)
        return out

    partials = events.map_batches(
        partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    summed = grouped_sum(
        partials, ["event_type", "bucket_ts"], ["n_events", "val_u"]
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": df["event_type"].to_numpy(object),
                "bucket_ts": df["bucket_ts"].to_numpy(np.int64),
                "n_events": df["n_events"].to_numpy(np.int64),
                "sum_value": df["val_u"].to_numpy(np.float64) / 1e6,
            }
        )

    return summed.map_batches(finish, batch_format="pandas")


def user_lifetime(
    events: "ray.data.Dataset", *, n_buckets: int = 64
) -> "ray.data.Dataset":
    """Per-user lifetime summary: first/last event time (epoch
    microseconds), total event count, and the number of DISTINCT active
    days (UTC) — the churn/engagement profile every behavioral pipeline
    starts from.

    Scale shape: each block collapses to one partial row per (user, day)
    plus per-user min/max/count partials; ONE bounded coarse exchange on
    ``user_id`` (``coarse_map_groups``); vectorized per-bucket combine.
    All integers — exact under any layout.
    """
    from datafiller_ray.stages.exchange import coarse_map_groups

    def partial(t: pa.Table) -> pd.DataFrame:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = us // 86_400_000_000
        base = pd.DataFrame({"user_id": uid, "us": us, "day": day})
        # one row per (user, day) with that slice's min/max/count
        g = base.groupby(["user_id", "day"], sort=False, dropna=False).agg(
            first_us=("us", "min"), last_us=("us", "max"), n_events=("us", "size")
        )
        out = g.reset_index()
        out["n_events"] = out["n_events"].astype(np.int64)
        return out

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("user_id", sort=True, dropna=False).agg(
            first_us=("first_us", "min"),
            last_us=("last_us", "max"),
            n_events=("n_events", "sum"),
            active_days=("day", "nunique"),
        )
        out = agg.reset_index()
        return pd.DataFrame(
            {
                "user_id": out["user_id"].to_numpy(np.int64),
                "first_us": out["first_us"].to_numpy(np.int64),
                "last_us": out["last_us"].to_numpy(np.int64),
                "n_events": out["n_events"].to_numpy(np.int64),
                "active_days": out["active_days"].to_numpy(np.int64),
            }
        )

    partials = events.map_batches(
        partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    return coarse_map_groups(partials, "user_id", combine, n_buckets=n_buckets)


def daily_active_users(
    events: "ray.data.Dataset", *, n_buckets: int = 64
) -> "ray.data.Dataset":
    """Daily active users (the DAU metric): distinct user count + event
    count per UTC day. Per-batch (day, user) dedup collapses the stream
    before the ONE bounded coarse exchange on the day hash; per-bucket
    nunique is vectorized. All integers — exact under any layout.
    """
    from datafiller_ray.stages.exchange import coarse_map_groups

    def partial(t: pa.Table) -> pd.DataFrame:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = us // 86_400_000_000
        g = (
            pd.DataFrame({"day": day, "user_id": uid})
            .groupby(["day", "user_id"], sort=False)
            .size()
            .reset_index(name="n_events")
        )
        g["n_events"] = g["n_events"].astype(np.int64)
        return g

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("day", sort=True).agg(
            dau=("user_id", "nunique"), n_events=("n_events", "sum")
        )
        out = agg.reset_index()
        return pd.DataFrame(
            {
                "day": out["day"].to_numpy(np.int64),
                "dau": out["dau"].to_numpy(np.int64),
                "n_events": out["n_events"].to_numpy(np.int64),
            }
        )

    partials = events.map_batches(
        partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    return coarse_map_groups(partials, "day", combine, n_buckets=n_buckets)


def rolling_active_users(
    events: "ray.data.Dataset", *, window_days: int = 7, n_buckets: int = 64
) -> "ray.data.Dataset":
    """Trailing-window distinct users (the WAU/MAU metric): for every
    OBSERVED UTC day, the distinct user count over the last
    ``window_days`` days — the sliding-distinct operator SQL window
    functions cannot express (no COUNT(DISTINCT) OVER).

    Exact fan-out formulation: the stream first collapses to distinct
    (day, user) pairs per batch, each pair replicates to the <= window
    days it can serve (pair volume x window, NOT event volume x window),
    one bounded coarse exchange on the target day co-locates each day's
    contributor set, and the per-bucket nunique is vectorized. Only days
    actually present in the data are emitted (the SQL join-on-days rule);
    the observed-day set (bounded: calendar days, not rows) broadcasts
    once. All integers — exact under any layout.
    """
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.exchange import coarse_map_groups

    if window_days < 1:
        raise EngineValueError(f"window_days must be >= 1, got {window_days}")
    if n_buckets < 1:
        raise EngineValueError(f"n_buckets must be >= 1, got {n_buckets}")
    import ray

    def day_user(t: pa.Table) -> pd.DataFrame:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = us // 86_400_000_000
        g = pd.DataFrame({"day": day, "user_id": uid}).drop_duplicates()
        return g

    pairs = events.map_batches(
        day_user, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    # observed days: bounded by the calendar, collected once and broadcast
    days = np.sort(
        np.unique(
            np.array(
                [r["day"] for r in pairs.map_batches(
                    lambda df: df[["day"]].drop_duplicates(),
                    batch_format="pandas",
                ).take_all()],
                dtype=np.int64,
            )
        )
    )
    if days.size == 0:
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "day": pd.Series([], dtype=np.int64),
                    "wau": pd.Series([], dtype=np.int64),
                }
            )
        )
    dref = ray.put(days)

    def fan_out(g: pd.DataFrame) -> pd.DataFrame:
        obs = ray.get(dref)
        day = g["day"].to_numpy(np.int64)
        uid = g["user_id"].to_numpy(np.int64)
        # each (day, user) serves observed target days in [day, day+w-1]
        lo = np.searchsorted(obs, day, side="left")
        hi = np.searchsorted(obs, day + window_days - 1, side="right")
        reps = (hi - lo).astype(np.int64)
        idx = np.repeat(np.arange(day.size), reps)
        flat = np.concatenate(
            [obs[l:h] for l, h in zip(lo, hi)]
        ) if day.size else np.empty(0, np.int64)
        return pd.DataFrame(
            {"wday": flat, "user_id": uid[idx]}
        ).drop_duplicates()

    fanned = pairs.map_batches(fan_out, batch_format="pandas")

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("wday", sort=True)["user_id"].nunique()
        return pd.DataFrame(
            {
                "day": agg.index.to_numpy(np.int64),
                "wau": agg.to_numpy(np.int64),
            }
        )

    return coarse_map_groups(fanned, "wday", combine, n_buckets=n_buckets)


def session_stats(
    events: "ray.data.Dataset",
    *,
    gap_seconds: int = 1800,
    cap: int = 10,
    n_buckets: int = 16,
) -> "ray.data.Dataset":
    """Session-duration distribution by session SIZE: sessions (the
    :func:`events_sessions` windows) grouped by their event count capped at
    ``cap`` — one row per size bucket with the session count, exact total
    duration, round6 mean, and exact-interpolated median duration. The
    "how long do k-event sessions run" table engagement dashboards read.

    Physical plan: the per-user session pass (one user-keyed exchange,
    identical to events_sessions), then a tiny size-bucket-keyed coarse
    exchange over one row per session; the median sorts only within a size
    bucket. All inputs integer seconds; mean/median are the only float
    expressions, both pinned (floor-half-up / quantile_cont rule)."""
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.window import _interp_median, _round6_half_up
    from datafiller_ray.stages.exchange import coarse_map_groups

    if cap < 1:
        raise EngineValueError(f"cap must be >= 1, got {cap}")
    sessions = events_sessions(events, gap_seconds=gap_seconds)

    def to_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_bucket": np.minimum(df["n_events"].to_numpy(np.int64), cap),
                "dur": df["duration_sec"].to_numpy(np.int64),
            }
        )

    def stats_group(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for nb, sub in g.groupby("n_bucket", sort=True):
            d = np.sort(sub["dur"].to_numpy(np.int64))
            tot = int(d.sum())
            rows.append(
                (
                    int(nb),
                    d.size,
                    tot,
                    _round6_half_up(np.array([tot / d.size]))[0],
                    _interp_median(d.astype(np.float64)),
                )
            )
        out = pd.DataFrame(
            rows,
            columns=["n_bucket", "n_sessions", "total_dur", "mean_dur", "p50_dur"],
        )
        out["n_bucket"] = out["n_bucket"].astype(np.int64)
        out["n_sessions"] = out["n_sessions"].astype(np.int64)
        out["total_dur"] = out["total_dur"].astype(np.int64)
        return out

    return coarse_map_groups(
        sessions.map_batches(to_bucket, batch_format="pandas"),
        "n_bucket",
        stats_group,
        n_buckets=n_buckets,
    )


def user_entropy(
    events: "ray.data.Dataset", *, n_buckets: int = 64
) -> "ray.data.Dataset":
    """Per-user Shannon entropy (nats) of the event-type distribution —
    the behavioral-diversity score (0 = single-action bots, high = varied
    usage): ``H = ln(n) - sum(c * ln(c)) / n`` over the user's per-type
    event counts. Emits (user_id, n_events, n_types, entropy).

    Scale shape (the user_top_event plan): each input block collapses to
    (user_id, event_type, cnt) integer partials through a pruned zero-copy
    projection, then ONE bounded coarse exchange on
    ``user_id`` (``coarse_map_groups``); per-bucket work is a vectorized
    pandas sum + per-user np.add.at reduction of the ``c*ln(c)`` terms in
    (user, type-ascending) order. Counts are integer-exact and
    order-independent; the only float is the pinned ``ln(n) - S/n``
    expression under the shared 6-decimal floor-half-up absorber (the
    doc_entropy discipline — the SQL oracle's SUM(c*ln(c)) differs only
    in float summation order, ~1e-13 relative, absorbed). Null event
    types count as ONE distinct type exactly like SQL GROUP BY."""
    from datafiller_ray.stages.exchange import coarse_map_groups

    def partial(t: pa.Table) -> pa.Table:
        slim = pa.table({"user_id": t["user_id"], "event_type": t["event_type"]})
        agg = slim.group_by(["user_id", "event_type"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "user_id": agg["user_id"],
                "event_type": agg["event_type"],
                "cnt": agg["count_all"],
            }
        )

    def entropy_per_user(g: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: a null event_type is one distinct type (SQL GROUP BY)
        summed = g.groupby(
            ["user_id", "event_type"], sort=False, as_index=False, dropna=False
        )["cnt"].sum()
        summed = summed.sort_values(
            ["user_id", "event_type"], kind="stable", na_position="last"
        )
        uid = summed["user_id"].to_numpy(np.int64)
        cnt = summed["cnt"].to_numpy(np.int64)
        uu, inv = np.unique(uid, return_inverse=True)
        n = np.zeros(uu.size, np.int64)
        np.add.at(n, inv, cnt)
        ntypes = np.bincount(inv, minlength=uu.size).astype(np.int64)
        cf = cnt.astype(np.float64)
        terms = cf * np.log(cf)
        s = np.zeros(uu.size, np.float64)
        np.add.at(s, inv, terms)
        nf = n.astype(np.float64)
        ent = np.log(nf) - s / nf
        ent = np.floor(ent * 1e6 + 0.5) / 1e6
        return pd.DataFrame(
            {
                "user_id": uu,
                "n_events": n,
                "n_types": ntypes,
                "entropy": ent,
            }
        )

    partials = events.map_batches(
        partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    return coarse_map_groups(
        partials, "user_id", entropy_per_user, n_buckets=n_buckets
    )


# ---------------------------------------------------------------------------
# Kaplan-Meier survival (first touch -> first purchase)


def survival_km(
    events: "ray.data.Dataset",
    *,
    target_type: str = "purchase",
    n_buckets: int = 64,
) -> "ray.data.Dataset":
    """Kaplan-Meier time-to-conversion curve: per user, the duration in
    whole hours from their FIRST event to their FIRST ``target_type``
    event (observed) or to their LAST event (right-censored, never
    converted); then the product-limit estimator over the duration grid

        S(t) = prod over event times t_i <= t of (1 - d_i / n_i)

    with the standard tie convention (events and censorings at the same
    time both count toward that time's risk set; both leave it after).
    The survival product runs in exact Fractions (big-int numerators),
    so the curve is bit-reproducible under any partitioning — ONE
    correctly-rounded float per output row plus the engine-wide 6-dp
    floor-half-up. Non-SQL (rational products), oracled by the vendored
    independent per-user pandas derivation (tests/oracle/fills.py).

    Scale shape: per-batch per-user (min ts, max ts, min target ts)
    partials -> one bounded user-keyed grouped_agg exchange -> per-user
    durations collapse to per-(duration, observed) integer counts
    through a second TINY exchange (durations are floor-hours: the curve
    is bounded by the corpus time span, never by users) -> the KM
    recursion folds the bounded curve on the driver.

    Output: (dur_h, n_risk, n_events, n_censored, survival) — one row
    per duration with at least one conversion OR censoring, the full
    step-function support."""
    from fractions import Fraction

    import ray.data

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.exchange import grouped_agg, grouped_sum

    if n_buckets < 1:
        raise EngineValueError(f"n_buckets must be >= 1, got {n_buckets}")
    _SENT = np.int64(2**62)

    def partial(t: pa.Table) -> pd.DataFrame:
        us = pc.cast(
            pc.cast(t["ts"], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_t = (
            t["event_type"].to_numpy(zero_copy_only=False).astype(object)
            == target_type
        )
        return pd.DataFrame(
            {
                "user_id": uid,
                "first_us": us,
                "last_us": us,
                "first_t": np.where(is_t, us, _SENT),
            }
        )

    users = grouped_agg(
        events.map_batches(partial, batch_format="pyarrow"),
        "user_id",
        {"first_us": "min", "last_us": "max", "first_t": "min"},
        n_buckets=n_buckets,
    )

    def durations(df: pd.DataFrame) -> pd.DataFrame:
        f0 = df["first_us"].to_numpy(np.int64)
        fl = df["last_us"].to_numpy(np.int64)
        ft = df["first_t"].to_numpy(np.int64)
        observed = ft < _SENT
        end = np.where(observed, ft, fl)
        dur_h = (end - f0) // 3_600_000_000
        out = pd.DataFrame(
            {
                "dur_h": dur_h,
                "observed": observed.astype(np.int64),
                "cnt": np.ones(len(df), dtype=np.int64),
            }
        )
        return out.groupby(
            ["dur_h", "observed"], sort=False, as_index=False
        )["cnt"].sum()

    curve = grouped_sum(
        users.map_batches(durations, batch_format="pandas"),
        ["dur_h", "observed"],
        "cnt",
        n_buckets=n_buckets,
    ).to_pandas()  # bounded by the hour grid, never by users

    if curve.empty:
        return ray.data.from_arrow(
            pa.table(
                {
                    "dur_h": pa.array([], pa.int64()),
                    "n_risk": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "n_censored": pa.array([], pa.int64()),
                    "survival": pa.array([], pa.float64()),
                }
            )
        )
    piv = (
        curve.pivot_table(
            index="dur_h", columns="observed", values="cnt",
            aggfunc="sum", fill_value=0,
        )
        .reindex(columns=[0, 1], fill_value=0)
        .sort_index()
    )
    d = piv[1].to_numpy(np.int64)  # conversions at t
    c = piv[0].to_numpy(np.int64)  # censorings at t
    total = int(d.sum() + c.sum())
    removed = np.concatenate([[0], np.cumsum(d + c)[:-1]])
    n_risk = total - removed
    s = Fraction(1)
    surv = np.empty(d.size, dtype=np.float64)
    for i in range(d.size):
        if d[i]:
            s *= Fraction(int(n_risk[i]) - int(d[i]), int(n_risk[i]))
        surv[i] = float(s)
    out = pd.DataFrame(
        {
            "dur_h": piv.index.to_numpy(np.int64),
            "n_risk": n_risk.astype(np.int64),
            "n_events": d,
            "n_censored": c,
            "survival": np.floor(surv * 1e6 + 0.5) / 1e6,
        }
    )
    return ray.data.from_pandas(out)
