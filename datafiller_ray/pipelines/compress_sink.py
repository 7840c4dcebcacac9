"""Standalone Gorilla compression sink: tier-row Parquet -> blob Parquet.

For pipelines that already persisted tier rows (e.g. the checkpointed
runner), this re-reads them column-pruned and chunk-encodes per
(source, tier) without recomputing the rollup. The inline path
(``rollup_tiers(emit="blobs")``) encodes inside the exchange reduce and is
preferred when rows are not needed separately.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from datafiller_ray.functions.hashing import string_hash64
from datafiller_ray.stages.compress import decode_tier_chunk, encode_tier_chunks

TIER_READ_COLUMNS = ["source", "tier", "bucket_ts", "count", "sum", "min", "max", "value"]


def _add_skey(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    dict_arr = pc.dictionary_encode(batch["source"].combine_chunks())
    uniq = np.asarray(dict_arr.dictionary.to_pandas(), dtype="U")
    skey = string_hash64(uniq).view(np.int64)[np.asarray(dict_arr.indices)]
    return batch.append_column("skey", pa.array(skey, pa.int64()))


def _encode_group(g: pd.DataFrame) -> pd.DataFrame:
    g = g.drop(columns=["skey"]).sort_values(["source", "tier", "bucket_ts"])
    if "filled" not in g.columns:
        g = g.assign(filled=False, fill_method="observed")
    return encode_tier_chunks(g)


def compress_tiers(tier_rows_path: str) -> "ray.data.Dataset":
    """Read tier rows (hive-partitioned or flat) and emit blob rows."""
    ds = ray.data.read_parquet(tier_rows_path)
    ds = ds.map_batches(_add_skey, batch_format="pyarrow")
    return ds.groupby("skey").map_groups(_encode_group, batch_format="pandas")


def decompress_blobs(blob_rows: "ray.data.Dataset") -> "ray.data.Dataset":
    """Inverse: blob rows -> tier rows (bit-exact round trip)."""

    def decode_batch(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.concat(
            [decode_tier_chunk(row) for _, row in batch.iterrows()],
            ignore_index=True,
        )

    return blob_rows.map_batches(decode_batch, batch_format="pandas", batch_size=64)
