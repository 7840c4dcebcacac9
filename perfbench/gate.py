"""Correctness gate: each job's committed output against an oracle.

Tier rows are compared with ``tests/oracle/reference.oracle_tier_rows``, a
pandas re-implementation that shares no code with the engine's kernels.
Gorilla blobs are decoded with ``stages.compress.decode_tier_chunk`` and
checked against a DuckDB aggregate of the input. Every check returns a
problem string, or None when the output is correct, so a mismatch is counted
as a failed job instead of ending the run.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa

from datafiller_ray.stages.compress import VALUE_COLUMNS, decode_tier_chunk, encode_tier_chunks
from tests.oracle.reference import oracle_tier_rows

COMPARE_COLUMNS = ["source", "tier", "bucket_ts", "count", "sum", "min", "max", "value", "filled"]
EXACT_COLUMNS = ["source", "tier", "bucket_ts", "count", "filled"]
FLOAT_COLUMNS = ["sum", "min", "max", "value"]
BLOB_COLUMNS = ["ts_blob"] + [f"{c}_blob" for c in VALUE_COLUMNS]


def expected_tier_rows(table: pa.Table, tiers: dict[str, int], cfg) -> pd.DataFrame:
    return oracle_tier_rows(
        table, tiers=tiers, strategy=cfg.strategy, max_gap=cfg.max_gap,
        fallback=cfg.fallback,
    )


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    out = df[COMPARE_COLUMNS].astype({"source": str, "tier": str})
    return out.sort_values(["tier", "source", "bucket_ts"]).reset_index(drop=True)


def compare_tier_rows(got: pd.DataFrame, want: pd.DataFrame) -> str | None:
    """Exact on keys, counts and fill flags; 1e-9 absolute on float values
    (NaN equals NaN)."""
    missing = [c for c in COMPARE_COLUMNS if c not in got.columns]
    if missing:
        return f"output lacks columns {missing}"
    g, w = _sorted(got), _sorted(want)
    if len(g) != len(w):
        return f"row count {len(g)} != oracle {len(w)}"
    for c in EXACT_COLUMNS:
        bad = np.flatnonzero(g[c].to_numpy() != w[c].to_numpy())
        if bad.size:
            return f"column {c} differs at {bad.size} rows, first {g.iloc[bad[0]].to_dict()}"
    for c in FLOAT_COLUMNS:
        a, b = g[c].to_numpy(np.float64), w[c].to_numpy(np.float64)
        ok = (np.isnan(a) & np.isnan(b)) | np.isclose(a, b, rtol=0, atol=1e-9)
        bad = np.flatnonzero(~ok)
        if bad.size:
            return f"column {c} differs at {bad.size} rows, first {g.iloc[bad[0]].to_dict()}"
    return None


def input_aggregate(input_glob: str, tiers: dict[str, int]) -> pd.DataFrame:
    """Observed (source, tier, bucket) count/sum/min/max, computed by DuckDB."""
    steps = ", ".join(f"('{t}', {s})" for t, s in tiers.items())
    con = duckdb.connect()
    try:
        return con.sql(
            f"""
            WITH rows AS (
                SELECT source, n_tok, CAST(right(doc_id, 10) AS BIGINT) * 60 AS ts
                FROM read_parquet('{input_glob}')
            )
            SELECT source, tier, ts - ts % step AS bucket_ts,
                   count(*) AS count, sum(n_tok) AS sum,
                   min(n_tok) AS min, max(n_tok) AS max
            FROM rows, (VALUES {steps}) AS t(tier, step)
            GROUP BY ALL
            """
        ).df()
    finally:
        con.close()


def check_blobs(
    blobs: pd.DataFrame, agg: pd.DataFrame, tiers: dict[str, int]
) -> str | None:
    """Blobs round-trip (decode, then re-encode to the same bytes) to a full
    regular grid per (source, tier) whose observed buckets match ``agg``
    exactly and which has no gap left."""
    decoded = []
    for row in blobs.to_dict("records"):
        key = (row["source"], row["tier"])
        try:
            d = decode_tier_chunk(row)
        except Exception as e:  # a corrupt blob is a failed job, not a crash
            return f"blob {key} does not decode: {type(e).__name__}: {e}"
        step = tiers[row["tier"]]
        grid = np.arange(row["start_ts"], row["end_ts"] + step, step, dtype=np.int64)
        if len(d) != row["n_points"] or not np.array_equal(
            d["bucket_ts"].to_numpy(np.int64), grid
        ):
            return f"blob {key} decodes to {len(d)} points, header says {row['n_points']} on a {grid.size}-point grid"
        # the decoder reads zeros past the end of a short payload, so a
        # truncated blob can decode cleanly: re-encoding must give its bytes
        again = encode_tier_chunks(d).iloc[0]
        for col in BLOB_COLUMNS:
            if bytes(again[col]) != bytes(row[col]):
                return f"blob {key} {col} does not re-encode to its own bytes"
        decoded.append(d)
    if not decoded:
        return "no blobs committed"
    dec = pd.concat(decoded, ignore_index=True)
    spans = agg.groupby(["source", "tier"])["bucket_ts"].agg(["min", "max"]).reset_index()
    spans["n"] = (spans["max"] - spans["min"]) // spans["tier"].map(tiers) + 1
    if len(spans) != len(blobs):
        return f"{len(blobs)} blobs for {len(spans)} (source, tier) series"
    if int(spans["n"].sum()) != len(dec):
        return f"decoded {len(dec)} grid points, input spans {int(spans['n'].sum())}"
    if dec["value"].isna().any():
        return f"{int(dec['value'].isna().sum())} gap cells left unfilled"
    obs = dec[dec["count"] > 0]
    cols = ["source", "tier", "bucket_ts", "count", "sum", "min", "max"]
    got = obs[cols].astype({"source": str, "tier": str}).sort_values(cols[:3]).reset_index(drop=True)
    want = agg[cols].astype({"source": str, "tier": str}).sort_values(cols[:3]).reset_index(drop=True)
    if len(got) != len(want):
        return f"{len(got)} observed buckets, input has {len(want)}"
    for c in cols:
        a, b = got[c].to_numpy(), want[c].to_numpy()
        if c not in ("source", "tier"):
            a, b = a.astype(np.float64), b.astype(np.float64)
        bad = np.flatnonzero(a != b)
        if bad.size:
            return f"observed {c} differs at {bad.size} buckets, first {got.iloc[bad[0]].to_dict()}"
    return None
