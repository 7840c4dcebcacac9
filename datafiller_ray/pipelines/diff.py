"""Snapshot diff: keyed comparison of two table versions.

A retention/compaction engine re-publishes tier outputs; operators need to
answer "what changed between snapshot A and snapshot B" without
materializing either side — for incremental re-fills, cache invalidation,
and audit trails. ``snapshot_diff`` is the engine's FULL OUTER JOIN shape:
both sides are projected to (key, value, carry...) inside the read's
``map_batches`` (the heavy payload never moves), tagged with a side bit,
unioned, and routed through ONE bounded coarse-key exchange on the key
(``stages/exchange.coarse_map_groups`` — see that module for the
rationale); each coarse group runs a vectorized pandas outer merge and
emits only the delta rows (added / removed / changed — unchanged rows are
dropped inside the group task, so output size is bounded by the true
delta, not the corpus).

Scale posture: the shuffle carries one slim row per input row (key + value
+ carry), the reduce side is bounded by ``n_buckets``, and no stage holds
more than one coarse bucket's rows. At 100 TB raise ``n_buckets`` so a
bucket fits a task heap; the merge is O(bucket) with pandas hash joins.

The reference engine has no versioned-table surface; this is engine-native
machinery in the spirit of its masked-delta updates
(``/root/reference/src/datafiller/multivariate/imputer.py``'s
mask-and-recompute loop), re-expressed as a distributed keyed diff.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute  # noqa: F401  (pa.compute.cast in upsert_merge)

from datafiller_ray.config import EngineValueError
from datafiller_ray.stages.exchange import coarse_map_groups

if TYPE_CHECKING:
    from ray.data import Dataset

_MISSING = -1  # sentinel for "no value on this side" (output stays int64)


def _tag_side(side: int, key: str, value: str, carry: tuple):
    def fn(t: pa.Table) -> pa.Table:
        side_col = pa.array(np.full(t.num_rows, side, np.int8))
        return t.select([key, value, *carry]).append_column("_side", side_col)

    return fn


def snapshot_diff(
    old: "Dataset",
    new: "Dataset",
    *,
    key: str = "doc_id",
    value: str = "n_tok",
    carry: "tuple[str, ...]" = ("source",),
    n_buckets: int = 64,
) -> "Dataset":
    """Keyed delta between two snapshots: one row per added / removed /
    changed key with the old and new ``value`` (``-1`` sentinel where the
    side is absent, so the output is all-int64 — no nullable-hash surface).

    ``key`` must be unique within each snapshot (validated per coarse
    group; duplicate keys raise :class:`EngineValueError`). ``carry``
    columns ride along and are coalesced new-side-first.
    """
    if n_buckets < 1:
        raise EngineValueError(f"n_buckets must be >= 1, got {n_buckets}")
    if value == key or key in carry or value in carry:
        raise EngineValueError("key, value and carry columns must be distinct")

    import ray

    u = old.map_batches(_tag_side(0, key, value, carry), batch_format="pyarrow")
    u = u.union(
        new.map_batches(_tag_side(1, key, value, carry), batch_format="pyarrow")
    )
    # the union doubles the block count, and the sort exchange's cost grows
    # with the block count (it samples, splits and merges every block), while
    # too few blocks leave the group stage's wave imbalanced: coalescing to
    # ~2 blocks/CPU before the groupby measured 3x faster end-to-end at
    # sf0.1 (7.3s -> 2.2s for the exchange alone)
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    u = u.repartition(max(16, 2 * cpus))

    out_cols = [key, *carry, "status", f"old_{value}", f"new_{value}"]

    def diff_group(g: pd.DataFrame) -> pd.DataFrame:
        a = g[g["_side"] == 0]
        b = g[g["_side"] == 1]
        try:
            m = a.merge(
                b,
                on=key,
                how="outer",
                suffixes=("_old", "_new"),
                validate="one_to_one",
            )
        except pd.errors.MergeError as exc:
            raise EngineValueError(
                f"snapshot_diff requires unique {key!r} per snapshot"
            ) from exc
        vo, vn = f"{value}_old", f"{value}_new"
        in_old = m[vo].notna().to_numpy()
        in_new = m[vn].notna().to_numpy()
        old_v = m[vo].fillna(_MISSING).to_numpy(np.int64)
        new_v = m[vn].fillna(_MISSING).to_numpy(np.int64)
        status = np.where(
            ~in_old, "added", np.where(~in_new, "removed", "changed")
        )
        keep = ~in_old | ~in_new | (old_v != new_v)
        res = pd.DataFrame({key: m[key].to_numpy()[keep]})
        for c in carry:
            res[c] = (
                m[f"{c}_new"].where(in_new, m[f"{c}_old"]).to_numpy()[keep]
            )
        res["status"] = status[keep]
        res[f"old_{value}"] = old_v[keep]
        res[f"new_{value}"] = new_v[keep]
        if len(res) == 0:  # pin dtypes so empty groups unify (window.py note)
            res[key] = res[key].astype("string")
            for c in carry:
                res[c] = res[c].astype("string")
            res["status"] = res["status"].astype("string")
        return res[out_cols]

    return coarse_map_groups(u, key, diff_group, n_buckets=n_buckets)


# ---------------------------------------------------------------------------
# CDC upsert merge (lakehouse MERGE INTO semantics)


def upsert_merge(
    base: "Dataset",
    updates: "Dataset",
    *,
    key: str = "doc_id",
    version: str = "version",
    delete: str = "is_delete",
    payload: "tuple[str, ...]" = ("n_tok", "source"),
    base_version: int = 0,
    n_buckets: int = 64,
) -> "Dataset":
    """Last-writer-wins CDC merge — the lakehouse ``MERGE INTO`` shape
    applied as one keyed reduction: ``base`` rows carry implicit
    ``(version=base_version, no delete)``; ``updates`` rows carry an
    int64 ``version`` and an int ``delete`` flag. Per key the winner is
    the highest (version, side) pair — updates beat base at equal
    version — and a winning delete removes the key from the output.
    Duplicate (key, version) pairs within ``updates`` raise
    :class:`EngineValueError` (no deterministic winner exists), checked
    per coarse group.

    Physical plan (the snapshot_diff layout): both sides project to
    (key, payload, version, delete) inside the read, tag the side, union,
    and route through ONE bounded coarse-key exchange on the key; each
    group sorts by (key, version, side) and keeps the last row per key
    with a vectorized duplicated() mask — no task ever holds more than one
    coarse bucket. The heavy payload rides
    the shuffle once; at 100 TB raise ``n_buckets`` so a bucket fits a
    task heap.

    Output: (key, *payload, version) for every surviving key."""
    if n_buckets < 1:
        raise EngineValueError(f"n_buckets must be >= 1, got {n_buckets}")
    cols = (key, version, delete, *payload)
    if len(set(cols)) != len(cols):
        raise EngineValueError(
            "key, version, delete and payload columns must be distinct"
        )

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            out_cols = {key: t[key]}
            for c in payload:
                out_cols[c] = t[c]
            if side == 1:
                out_cols[version] = pa.compute.cast(t[version], pa.int64())
                out_cols[delete] = pa.compute.cast(t[delete], pa.int64())
            else:
                out_cols[version] = pa.array(
                    np.full(n, base_version, np.int64)
                )
                out_cols[delete] = pa.array(np.zeros(n, np.int64))
            out_cols["_side"] = pa.array(np.full(n, side, np.int8))
            return pa.table(out_cols)

        return fn

    u = base.map_batches(tag(0), batch_format="pyarrow").union(
        updates.map_batches(tag(1), batch_format="pyarrow")
    )
    out_cols = [key, *payload, version]

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        upd = g[g["_side"] == 1]
        if upd.duplicated([key, version]).any():
            raise EngineValueError(
                f"upsert_merge requires unique ({key!r}, {version!r}) "
                "pairs in updates"
            )
        g = g.sort_values(
            [key, version, "_side"], kind="mergesort"
        ).reset_index(drop=True)
        last = ~g.duplicated(key, keep="last")
        win = g[last & (g[delete].to_numpy(np.int64) == 0)]
        res = win[out_cols].reset_index(drop=True)
        if len(res) == 0:  # pin dtypes so empty groups unify
            res = res.astype(
                {
                    c: "string"
                    for c in res.columns
                    if res[c].dtype == object
                }
            )
        return res

    return coarse_map_groups(u, key, merge_group, n_buckets=n_buckets)
