"""The coarse-key exchange: one key hash, one exchange, one grouped-aggregate
plan. The joins, diffs, cross-sections and every per-bucket pipeline pass
(events, corpus, text, ann, hygiene, packing, retention) exchange through
it; no exchange elsewhere buckets ``splitmix64(key) % n``. Apart by design:
the persisted bucket layouts (``checkpoint``, ``text_index``),
``rollup.bucketed_map_groups`` and the ann block-nested-loop shard pairs,
whose group key is the pair identity itself.

Why: Ray's ``Aggregate`` plans ``DataContext.min_parallelism`` (default 200)
reduce partitions regardless of data size; on a loaded box even a 21k-row
sum costs ~25 s of pure scheduling (measured; a 64-group coarse exchange is
sub-second). So rows go through ONE sort exchange on a BOUNDED coarse key,
``key_hash(keys) % n_buckets``, and the exact per-key work runs VECTORIZED
inside each coarse group:

- :func:`key_hash` does not depend on a block's dtype: integers of any
  width and the same integral float (what pandas makes of an int column
  holding a null) share a bucket, null and NaN share one fixed bucket;
- :func:`coarse_map_groups` runs ``fn`` over whole coarse groups;
- :func:`grouped_agg` (and :func:`grouped_sum`, its one-``how`` form)
  combines each batch in Arrow first, so the exchange carries at most one
  row per distinct key per block, in the input types.

Scale posture: per-task memory is ``|rows| / n_buckets`` on average — raise
``n_buckets`` when a single bucket's rows would not fit a task.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data.block import BlockAccessor

from datafiller_ray.config import EngineValueError
from datafiller_ray.functions.hashing import splitmix64, string_hash64

_GK = "_gk"
_NULL_HASH = np.uint64(0x6E756C6C6E756C6C)  # any null or NaN key


def _column_hash(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """uint64 hash of one key column: integers of any width and integral
    floats hash their int64 value, other floats their bits, strings their
    text (``string_hash64``); null and NaN hash to ``_NULL_HASH``."""
    typ = col.type
    null = pc.is_null(col, nan_is_null=True).to_numpy(zero_copy_only=False)
    if pa.types.is_integer(typ) or pa.types.is_boolean(typ):
        ints = pc.fill_null(col, 0).cast(pa.int64(), safe=False)
        h = splitmix64(ints.to_numpy(zero_copy_only=False).view(np.uint64))
    elif pa.types.is_floating(typ):
        f = pc.fill_null(col, 0).cast(pa.float64()).to_numpy(zero_copy_only=False)
        integral = np.isfinite(f) & (np.trunc(f) == f) & (np.abs(f) < 2.0**63)
        as_int = np.where(integral, f, 0).astype(np.int64).view(np.uint64)
        h = splitmix64(np.where(integral, as_int, f.view(np.uint64)))
    else:
        text = pc.fill_null(col.cast(pa.string()), "")
        h = string_hash64(text.to_numpy(zero_copy_only=False).astype("U"))
    h[null] = _NULL_HASH
    return h


def key_hash(t: "pa.Table", keys: "list[str]") -> np.ndarray:
    """uint64 hash of ``t``'s ``keys`` columns, read from Arrow directly;
    the coarse bucket is ``key_hash(t, keys) % n``. Order-sensitive: the
    accumulator is re-scrambled BEFORE the next key's hash is added, so
    (a, b) and (b, a) land differently (``splitmix64(h_a + h_b)`` alone is
    commutative)."""
    h = _column_hash(t[keys[0]])
    for k in keys[1:]:
        h = splitmix64(h) + _column_hash(t[k])
    return h


def coarse_map_groups(
    ds, keys: "list[str] | str", fn, *, n_buckets: int = 64, batch_format="pandas"
):
    """``fn`` over whole key groups through ONE bounded coarse exchange:
    append the bucket ``key_hash(keys) % n_buckets``, run one
    ``groupby(bucket).map_groups``, and drop the bucket column before ``fn``
    sees the group. Each ``fn`` call gets every row of the keys hashed to
    one bucket (all of them, in one table of ``batch_format``), so a key's
    rows never split across calls. The column name ``_gk`` is reserved."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    if n_buckets < 1:
        raise EngineValueError(f"n_buckets must be >= 1, got {n_buckets}")

    def add_bucket(block) -> "pa.Table":
        # the block as it is, converted here: a pyarrow-format map over
        # pandas blocks made minhash_near_dup 2-3 s slower (sf0.1, 4 Ray
        # CPUs on one core)
        t = BlockAccessor.for_block(block).to_arrow()
        if _GK in t.column_names:
            raise EngineValueError(f"column name {_GK!r} is reserved")
        gk = (key_hash(t, keys) % np.uint64(n_buckets)).astype(np.int64)
        return t.append_column(_GK, pa.array(gk, type=pa.int64()))

    def run(g):
        if batch_format == "pyarrow":
            return fn(g.drop_columns([_GK]))
        # in place: ``drop`` copies every group (~0.45 ms a group, +2 s
        # over minhash_near_dup's 4096 groups at sf0.1)
        del g[_GK]
        return fn(g)

    return (
        ds.map_batches(add_bucket, batch_format=None, zero_copy_batch=True)
        .groupby(_GK)
        .map_groups(run, batch_format=batch_format)
    )


def grouped_sum(
    ds,
    keys: "list[str] | str",
    values: "list[str] | str",
    *,
    n_buckets: int = 64,
    how: str = "sum",
):
    """Exact per-key ``how`` (sum, min or max) of ``values`` grouped by
    ``keys``, as a Dataset with the key columns plus the value columns
    UNDER THEIR OWN NAMES — :func:`grouped_agg` with one ``how`` for every
    value. Semantics match ``ds.groupby(keys).sum(values)``."""
    return grouped_agg(
        ds,
        keys,
        dict.fromkeys([values] if isinstance(values, str) else values, how),
        n_buckets=n_buckets,
    )


def topk_block_fn(k: int, rank_col: str, tie_cols: "list[str]"):
    """Per-block partial top-k pruner shared by the ranked-reduction
    pipelines (vocab_topk, bm25_topk, transition_topk): keep the k best
    rows by (``rank_col`` desc, ``tie_cols`` asc), preserving the block's
    row order so a final single-block pass applies the identical rule.
    Deterministic: the tie columns must totally order equal-rank rows."""

    def fn(t: "pa.Table") -> "pa.Table":
        if t.num_rows <= k:
            return t
        rank = t[rank_col].to_numpy(zero_copy_only=False)
        keys = [
            np.asarray(t[c].to_pylist(), dtype=object) for c in tie_cols
        ]
        order = np.lexsort((*reversed(keys), -rank))[:k]
        return t.take(pa.array(np.sort(order), type=pa.int64()))

    return fn


def grouped_topk(
    ds,
    group: "str | list[str]",
    rank_col: str,
    tie_cols: "list[str]",
    k: int,
    *,
    rank_name: str = "rnk",
    descending: bool = True,
    n_buckets: int = 64,
):
    """Per-group top-k ROWS (payload preserved) by (``rank_col`` DESC —
    or ASC with ``descending=False`` — then ``tie_cols`` ASC), with a
    dense 1..k rank column appended — the row-level sibling of
    :func:`topk_block_fn`'s global prune.

    Physical plan: per-BLOCK prune first (each block keeps at most k rows
    per group it sees, so the exchange carries O(groups_per_block * k)
    rows, never the corpus), then :func:`coarse_map_groups` on ``group``
    and the identical prune per group. Deterministic: ``tie_cols`` must
    totally order equal-rank rows.
    """
    group = [group] if isinstance(group, str) else list(group)
    if k < 1:
        raise EngineValueError(f"k must be >= 1, got {k}")
    if _GK in (*group, rank_col, *tie_cols, rank_name):
        raise EngineValueError(f"column name {_GK!r} is reserved")

    def prune(df: pd.DataFrame, *, final: bool) -> pd.DataFrame:
        by = [*group, rank_col, *tie_cols]
        asc = [True] * len(group) + [not descending] + [True] * len(tie_cols)
        out = df.sort_values(by, ascending=asc, kind="mergesort")
        out = out.groupby(group, sort=False, dropna=False).head(k)
        if final:
            out = out.reset_index(drop=True)
            out[rank_name] = out.groupby(group, sort=False, dropna=False).cumcount() + 1
        return out

    def block_prune(block) -> "pa.Table":
        # back to the block's own schema: the pandas hop must not turn an
        # int column holding a null into a float one in the exchange
        t = BlockAccessor.for_block(block).to_arrow()
        out = prune(t.to_pandas(), final=False)
        return pa.Table.from_pandas(out, schema=t.schema, preserve_index=False)

    # native blocks, converted in the task, as coarse_map_groups' map does
    pruned = ds.map_batches(block_prune, batch_format=None, zero_copy_batch=True)
    return coarse_map_groups(
        pruned, group, lambda g: prune(g, final=True), n_buckets=n_buckets
    )


def grouped_agg(
    ds,
    keys: "list[str] | str",
    aggs: "dict[str, str]",
    *,
    n_buckets: int = 64,
):
    """Mixed per-column reductions (``{"n": "sum", "last_ts": "max"}``)
    grouped by ``keys`` through ONE bounded coarse-key exchange; the output
    holds the key columns plus each value column under its own name.

    Each batch is first reduced in Arrow (``group_by``; sums use
    ``min_count=0``, so an all-null sum is 0 as in pandas) in the input key
    and value types — exact under any block layout, since sum/min/max are
    associative. Each bucket then runs the pandas ``groupby(keys,
    sort=True, dropna=False).agg(aggs)``: null keys form a group like Ray's
    aggregate, and the output dtypes are pandas' for the partials."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    if not keys or not aggs:
        raise EngineValueError("keys and aggs must be non-empty")
    if _GK in keys or _GK in aggs:
        raise EngineValueError(f"column name {_GK!r} is reserved")
    bad = {h for h in aggs.values() if h not in ("sum", "min", "max")}
    if bad:
        raise EngineValueError(f"aggs must be sum/min/max, got {sorted(bad)}")
    values = list(aggs)

    def partial(block) -> "pa.Table":
        t = BlockAccessor.for_block(block).to_arrow().select(keys + values)
        sum_opts = pc.ScalarAggregateOptions(min_count=0)  # not picklable
        spec = []
        for v, how in aggs.items():
            if how == "sum" and pa.types.is_boolean(t.schema.field(v).type):
                # pandas sums booleans as int64 counts
                t = t.set_column(t.column_names.index(v), v, t[v].cast(pa.int64()))
            spec.append((v, how, sum_opts) if how == "sum" else (v, how))
        g = t.group_by(keys, use_threads=False).aggregate(spec)
        cols = {k: g[k] for k in keys}
        for v, how in aggs.items():
            # Arrow widens sums (int32 -> int64, float32 -> double); pandas
            # keeps the input type, so the partial does too
            cols[v] = g[f"{v}_{how}"].cast(t.schema.field(v).type, safe=False)
        return pa.table(cols)

    def final_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(keys, sort=True, as_index=False, dropna=False)[
            values
        ].agg(aggs)

    # native blocks, converted in the task, as coarse_map_groups' map does
    partials = ds.map_batches(partial, batch_format=None, zero_copy_batch=True)
    return coarse_map_groups(partials, keys, final_bucket, n_buckets=n_buckets)
