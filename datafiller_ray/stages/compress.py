"""Gorilla chunk sink: one blob row per (source, tier) chunk.

Runs inside the exchange reduce of the rollup (the tier rows are already in hand
there, so compression adds no extra shuffle) or standalone over a tier-row
table that is grouped by (source, tier). Decode helpers reconstruct the tier
rows bit-exactly — the token-equality-style invariant for the compressed
path (FIXTURES.md F4).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from datafiller_ray.functions import gorilla

VALUE_COLUMNS = ("count", "sum", "min", "max", "value")


def encode_tier_chunks(tier_rows: pd.DataFrame) -> pd.DataFrame:
    """Encode tier rows (one source, multiple tiers) into blob rows."""
    out: list[dict] = []
    for (source, tier), g in tier_rows.groupby(["source", "tier"], sort=True):
        ts = g["bucket_ts"].to_numpy(np.int64)
        row: dict = {
            "source": source,
            "tier": tier,
            "start_ts": int(ts[0]) if ts.size else 0,
            "end_ts": int(ts[-1]) if ts.size else 0,
            "n_points": int(ts.size),
            "ts_blob": gorilla.encode_timestamps(ts),
        }
        for col in VALUE_COLUMNS:
            row[f"{col}_blob"] = gorilla.encode_int_column(
                g[col].to_numpy(np.float64)
            ) if col != "value" else gorilla.encode_floats(g[col].to_numpy(np.float64))
        out.append(row)
    return pd.DataFrame(out)


def decode_tier_chunk(row: pd.Series | dict) -> pd.DataFrame:
    """Inverse of ``encode_tier_chunks`` for one blob row."""
    ts = gorilla.decode_timestamps(bytes(row["ts_blob"]))
    data = {"source": row["source"], "tier": row["tier"], "bucket_ts": ts}
    for col in VALUE_COLUMNS:
        data[col] = gorilla.decode_floats(bytes(row[f"{col}_blob"]))
    df = pd.DataFrame(data)
    df["count"] = df["count"].astype(np.int64)
    return df
