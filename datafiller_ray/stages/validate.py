"""Validation + bucketization + per-batch partial aggregation.

This is the only stage that sees the heavy ``tokens`` payload. It runs as a
stateless ``map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)``
over Arrow blocks straight from the Parquet read and emits tiny partial
aggregate rows ``(source, bucket_ts, count, sum, min, max)`` — the classic
partial+final combine the reference uses per row-block
(``/root/reference/src/datafiller/multivariate/_numba_utils.py:25-66``:
per-block private accumulators summed at the end). The token arrays are
validated here (per-row ``n_tok == len(tokens)`` and optional content
equality against the deterministic generator) and then never shipped again:
the shuffle moves only partial rows.

Validation mirrors the reference's input contract
(``multivariate/_utils.py:62-106``: reject malformed shapes/values;
``timeseries/imputer.py:201-202``: duplicate timestamps are an error —
enforced downstream per group).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from datafiller_ray.config import EngineValueError
from datafiller_ray.functions.hashing import (
    row_seed,
    string_hash64,
    tokens_match,
)

PARTIAL_SCHEMA = pa.schema(
    [
        ("source", pa.string()),
        ("skey", pa.int64()),  # hash of source: int64 sorts ~3x faster than
        # strings in the groupby shuffle; group fns sub-group by the string
        # so a (astronomically unlikely) hash collision stays correct
        ("bucket_ts", pa.int64()),
        ("count", pa.int64()),
        ("sum", pa.int64()),
        ("min", pa.int64()),
        ("max", pa.int64()),
    ]
)


def extract_epoch_minute(doc_id: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Event time from ``doc_id`` = "{source}:{epoch_minute:010d}" — the
    zero-padded minute is the last 10 code units (vectorized slice, no regex)."""
    sliced = pc.utf8_slice_codeunits(doc_id, start=-10)
    return pc.cast(sliced, pa.int64())


def validate_tokens(batch: pa.Table) -> None:
    """Per-row invariants: ``n_tok == len(tokens)`` and token content equals
    the deterministic generator output (BASELINE.json per-row invariant).
    The content is compared in cache-sized chunks of the flattened tokens
    (:func:`~datafiller_ray.functions.hashing.tokens_match`), so no
    batch-sized expected array is built."""
    _validate_tokens(batch, extract_epoch_minute(batch["doc_id"]))


def _validate_tokens(batch: pa.Table, minute: "pa.ChunkedArray | pa.Array") -> None:
    """:func:`validate_tokens` given the batch's :func:`extract_epoch_minute`."""
    n_tok = batch["n_tok"]
    lengths = pc.list_value_length(batch["tokens"])
    if n_tok.null_count or not pc.all(
        pc.equal(pc.cast(lengths, pa.int64()), pc.cast(n_tok, pa.int64()))
    ).as_py():
        raise EngineValueError("token-array invariant violated: n_tok != len(tokens)")
    # hash only the (few) distinct sources per batch, then gather via the
    # dictionary indices — avoids materializing every row's Python string
    dict_arr = pc.dictionary_encode(batch["source"].combine_chunks())
    uniq = np.asarray(dict_arr.dictionary.to_pandas(), dtype="U")
    source_hash = string_hash64(uniq)[np.asarray(dict_arr.indices)]
    seeds = row_seed(source_hash, np.asarray(minute))
    actual = np.asarray(pc.list_flatten(batch["tokens"]))
    if not tokens_match(seeds, np.asarray(n_tok), actual):
        raise EngineValueError("token-array invariant violated: content mismatch")


def make_partial_agg_fn(*, check_tokens: bool = True):
    """Batch fn: validate, derive the 1-minute bucket, pre-aggregate.

    Pre-aggregation inside the map (pyarrow ``Table.group_by``, C++
    hash-aggregate) shrinks the shuffle input from one row per sequence to one
    row per (source, minute, batch) — at 100 TB this is the difference between
    shuffling the corpus and shuffling ~bytes-per-bucket."""

    def partial_agg(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return PARTIAL_SCHEMA.empty_table()
        required = {"doc_id", "n_tok", "source"}
        missing = required - set(batch.column_names)
        if missing:
            raise EngineValueError(f"input table missing columns: {sorted(missing)}")
        minute = extract_epoch_minute(batch["doc_id"])
        if check_tokens and "tokens" in batch.column_names:
            _validate_tokens(batch, minute)
        bucket = pc.multiply(minute, pa.scalar(60, pa.int64()))
        slim = pa.table(
            {
                "source": batch["source"],
                "bucket_ts": bucket,
                "n_tok": pc.cast(batch["n_tok"], pa.int64()),
            }
        )
        agg = slim.group_by(["source", "bucket_ts"]).aggregate(
            [("n_tok", "count"), ("n_tok", "sum"), ("n_tok", "min"), ("n_tok", "max")]
        )
        dict_arr = pc.dictionary_encode(agg["source"].combine_chunks())
        uniq = np.asarray(dict_arr.dictionary.to_pandas(), dtype="U")
        skey = (
            string_hash64(uniq).view(np.int64)[np.asarray(dict_arr.indices)]
        )
        out = pa.table(
            {
                "source": agg["source"],
                "skey": pa.array(skey, pa.int64()),
                "bucket_ts": agg["bucket_ts"],
                "count": agg["n_tok_count"],
                "sum": agg["n_tok_sum"],
                "min": agg["n_tok_min"],
                "max": agg["n_tok_max"],
            }
        )
        return out.cast(PARTIAL_SCHEMA)

    return partial_agg
