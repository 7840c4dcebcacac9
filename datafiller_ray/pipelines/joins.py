"""Per-key ordered joins: as-of join and point-in-interval (range) join.

Ray Data has no native as-of or range join; both are expressed here as ONE
co-partitioning exchange: each side is projected to the pruned join schema
and tagged, the two datasets are unioned, and a single ``groupby(key)``
shuffle co-locates every key's rows so a vectorized ``searchsorted`` inside
``map_groups`` does the ordered matching. No broadcast, no driver
materialization, no global sort — the only all-to-all is the one hash
exchange both sides must pay anyway.

Partitioning assumption (same contract as every ``map_groups`` in this
engine): one key's rows fit in a single task. Keys here are user/source
ids; at 100 TB a single hot key would need salting by time range, which
the tolerance/window parameters make possible (match never crosses the
tolerance horizon, so time-salted sub-keys with a one-window overlap
preserve semantics).

The as-of semantics mirror DuckDB's ``ASOF JOIN`` (backward: greatest
right timestamp <= left timestamp, inclusive) so results are
oracle-comparable; ``direction="forward"`` is the symmetric variant.
The range join matches each left point to the right interval containing
it (``lo <= point <= hi``, inclusive both ends); right intervals must be
non-overlapping per key (e.g. session windows) so the match is unique.

Ties: among right rows with the SAME ordering value for a key, the one
with the highest position after the stable sort wins; callers that can
see duplicate (key, on) right rows should pre-aggregate them (the engine's
event fixtures have unique (user_id, ts), asserted in tests).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from datafiller_ray.config import EngineValueError
from datafiller_ray.stages.exchange import coarse_map_groups, key_hash

__all__ = [
    "anti_join",
    "asof_join",
    "broadcast_chain",
    "broadcast_join",
    "equi_join",
    "range_join",
    "salted_equi_join",
    "semi_join",
]


def _arrow_schema(ds) -> pa.Schema:
    """Dataset schema as a pyarrow Schema regardless of block format
    (parquet reads give pa.Schema; from_pandas gives PandasBlockSchema)."""
    base = ds.schema().base_schema
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for name, typ in zip(base.names, base.types):
        if isinstance(typ, pa.DataType):
            fields.append(pa.field(name, typ))
        elif getattr(typ, "kind", None) == "O":  # pandas object column: assume str
            fields.append(pa.field(name, pa.string()))
        else:
            fields.append(pa.field(name, pa.from_numpy_dtype(typ)))
    return pa.schema(fields)


def _payload_dict(payload, schema: pa.Schema, *, role: str) -> "dict[str, str]":
    """Normalize a payload spec (list of cols or {out_name: src_col}) and
    check every source column exists on that side."""
    if payload is None:
        return {}
    if not isinstance(payload, dict):
        payload = {c: c for c in payload}
    for out, src in payload.items():
        if src not in schema.names:
            raise EngineValueError(f"{role} payload column {src!r} not in schema")
    return dict(payload)


def _check_reserved(lp, rp, key, lschema, rschema):
    """Payload out-names may not shadow the internal columns, and may only
    reuse the key name for the key column itself (then the single union key
    column serves both roles)."""
    reserved = {"_t", "_lo", "_hi", "_side", "_salt", "_knull"}
    for pd_, role in ((lp, "left"), (rp, "right")):
        for out, src in pd_.items():
            if out in reserved:
                raise EngineValueError(f"{role} payload name {out!r} is reserved")
            if out == key and src != key:
                raise EngineValueError(
                    f"{role} payload may not alias column {src!r} to the key name"
                )


def _sentinel_filled_key(col, key_type):
    """(filled_key, knull) for a possibly-null key column: each null key
    gets a stand-in value plus a ``_knull`` flag the kernel uses to route
    it to outer padding instead of matching, so the kernels factorize a
    null-free key column. ANY stand-in value is correct (the flag, not the
    key, decides), so forward/backward fill spreads null rows across the
    data's buckets instead of piling them into the one null bucket."""
    valid = pc.is_valid(col)
    knull = pc.cast(pc.invert(valid), pa.int8())
    filled = pc.fill_null_backward(pc.fill_null_forward(col))
    if filled.null_count > 0:  # batch is entirely null-keyed
        zero = (
            pa.scalar("", key_type)
            if pa.types.is_string(key_type) or pa.types.is_large_string(key_type)
            else pa.scalar(0).cast(key_type)
        )
        filled = pc.fill_null(filled, zero)
    return filled, knull


def _union_columns(
    t: pa.Table,
    union_fields: "list[pa.Field]",
    src_map: "dict[str, str]",
    side: int,
    *,
    key: "str | None" = None,
    salt: "np.ndarray | None" = None,
) -> "list":
    """Build the union-schema column list for one side's batch: columns in
    ``src_map`` come from the batch, ``_side``/``_salt``/``_knull`` are
    computed, the rest are typed nulls. Shared by every equi-join
    projection so schema handling cannot diverge between the plain and
    salted paths."""
    n = t.num_rows
    has_knull = any(f.name == "_knull" for f in union_fields)
    filled = knull = None
    if has_knull and key is not None:
        key_type = next(f.type for f in union_fields if f.name == key)
        filled, knull = _sentinel_filled_key(t[src_map[key]], key_type)
    cols = []
    for f in union_fields:
        if f.name == "_side":
            cols.append(pa.array(np.full(n, side, dtype=np.int8)))
        elif f.name == "_salt":
            cols.append(
                pa.array(salt if salt is not None else np.zeros(n, np.int32))
            )
        elif f.name == "_knull":
            cols.append(knull if knull is not None else pa.array(np.zeros(n, np.int8)))
        elif f.name == key and filled is not None:
            cols.append(filled.cast(f.type))
        elif f.name in src_map:
            cols.append(t[src_map[f.name]].cast(f.type))
        else:
            cols.append(pa.nulls(n, type=f.type))
    return cols


def _project_side(
    ds,
    *,
    union_fields: "list[pa.Field]",
    src_map: "dict[str, str]",
    side: int,
    key: "str | None" = None,
    drop_null_keys: bool = False,
):
    """Map a side onto the shared union schema (identical field order on
    both sides — ``union`` requires it). With ``key`` set and a ``_knull``
    field present, null join keys are sentinel-filled (see
    :func:`_sentinel_filled_key`); ``drop_null_keys`` filters null and NaN
    keys out entirely (the rows never match: inner-join fast path)."""
    union_schema = pa.schema(union_fields)

    def project(t: pa.Table) -> pa.Table:
        if drop_null_keys and key is not None:
            t = t.filter(
                pc.invert(pc.is_null(t[src_map[key]], nan_is_null=True))
            )
        cols = _union_columns(t, union_fields, src_map, side, key=key)
        return pa.Table.from_arrays(cols, schema=union_schema)

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def _empty_like(schema: pa.Schema) -> pa.Table:
    return pa.table(
        {f.name: pa.array([], type=f.type) for f in schema}, schema=schema
    )


def _take_with_validity(
    g: pa.Table, names, row_idx: np.ndarray, valid: "np.ndarray | None"
):
    """Take ``row_idx`` rows of ``names`` columns, nulling where ``valid``
    is False (arrow take keeps types; invalids are masked, not sentinel)."""
    idx = pa.array(row_idx, type=pa.int64())
    out = {}
    for name in names:
        arr = g[name].take(idx)
        if valid is not None and not valid.all():
            arr = pc.if_else(pa.array(valid), arr, pa.nulls(len(row_idx), type=arr.type))
        out[name] = arr
    return out


def asof_join(
    left,
    right,
    *,
    key: str,
    on: str,
    left_payload,
    right_payload,
    how: str = "inner",
    direction: str = "backward",
    tolerance: "int | float | None" = None,
    right_on: "str | None" = None,
):
    """As-of join two datasets on ``key``, matching by the ordering column.

    ``backward`` pairs each left row with the right row having the greatest
    ``on`` value <= the left's (DuckDB ``ASOF JOIN ... ON l.t >= r.t``);
    ``forward`` with the smallest ``on`` >= the left's. ``tolerance`` bounds
    ``|l.on - r.on|``; ``how`` is ``"inner"`` (drop unmatched, DuckDB
    default) or ``"left"`` (keep with null right payload).

    Payloads are ``{out_name: source_col}`` dicts (or lists when names pass
    through); the left payload should include ``key``/``on`` if wanted in
    the output, the right payload may re-expose the right ``on`` under a
    new name. Output columns: left payload then right payload, in spec
    order, with right payload types preserved (nullable under ``"left"``).
    """
    if how not in ("inner", "left"):
        raise EngineValueError("how must be 'inner' or 'left'")
    if direction not in ("backward", "forward"):
        raise EngineValueError("direction must be 'backward' or 'forward'")
    lschema, rschema = _arrow_schema(left), _arrow_schema(right)
    lp = _payload_dict(left_payload, lschema, role="left")
    rp = _payload_dict(right_payload, rschema, role="right")
    if set(lp) & set(rp):
        raise EngineValueError(f"payload name collision: {set(lp) & set(rp)}")
    r_fields = [pa.field(o, rschema.field(s).type) for o, s in rp.items()]
    l_fields = [pa.field(o, lschema.field(s).type) for o, s in lp.items()]
    out_schema = pa.schema(l_fields + r_fields)
    _check_reserved(lp, rp, key, lschema, rschema)
    union_fields = [
        pa.field(key, lschema.field(key).type),
        pa.field("_t", lschema.field(on).type),
        *[f for f in l_fields + r_fields if f.name != key],
        pa.field("_knull", pa.int8()),
        pa.field("_side", pa.int8()),
    ]
    l_proj = _project_side(
        left, union_fields=union_fields,
        src_map={key: key, "_t": on, **{o: s for o, s in lp.items()}}, side=0,
        key=key, drop_null_keys=(how == "inner"),
    )
    r_proj = _project_side(
        right, union_fields=union_fields,
        src_map={key: key, "_t": right_on or on, **{o: s for o, s in rp.items()}},
        side=1,
        key=key, drop_null_keys=True,  # a null or NaN right key never matches
    )
    empty = _empty_like(out_schema)
    l_names, r_names = [f.name for f in l_fields], [f.name for f in r_fields]
    backward = direction == "backward"

    def per_key(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        side = g["_side"].to_numpy(zero_copy_only=False)
        knull = g["_knull"].to_numpy(zero_copy_only=False).astype(bool)
        nan = _nan_keys(g[key]) & ~knull
        parts = []
        # null and NaN left keys (how="left" only) never match; a NaN key
        # keeps its NaN in the padded row
        for unmatched, key_null in ((knull, True), (nan, False)):
            rows = np.flatnonzero((side == 0) & unmatched)
            if how == "left" and rows.size:
                parts.append(
                    _left_pad(g, rows, l_names, r_fields, out_schema, key, key_null)
                )
        l_rows = np.flatnonzero((side == 0) & ~(knull | nan))
        if l_rows.size == 0:
            if not parts:
                return empty
            return parts[0] if len(parts) == 1 else pa.concat_tables(parts)
        t = g["_t"].to_numpy(zero_copy_only=False)
        r_rows = np.flatnonzero(side == 1)
        lt = t[l_rows]
        if r_rows.size == 0:
            if how == "inner":
                return empty
            parts.append(
                _left_pad(g, l_rows, l_names, r_fields, out_schema, key, False)
            )
            return parts[0] if len(parts) == 1 else pa.concat_tables(parts)
        order = np.argsort(t[r_rows], kind="stable")
        r_sorted = r_rows[order]
        rt = t[r_sorted]
        if backward:
            pos = np.searchsorted(rt, lt, side="right") - 1
            valid = pos >= 0
        else:
            pos = np.searchsorted(rt, lt, side="left")
            valid = pos < rt.size
        safe = np.clip(pos, 0, rt.size - 1)
        if tolerance is not None:
            gap = np.abs(lt - rt[safe])
            valid &= gap <= tolerance
        if how == "inner":
            l_keep = l_rows[valid]
            r_keep = r_sorted[safe[valid]]
            cols = _take_with_validity(g, l_names, l_keep, None)
            cols.update(_take_with_validity(g, r_names, r_keep, None))
        else:
            cols = _take_with_validity(g, l_names, l_rows, None)
            cols.update(_take_with_validity(g, r_names, r_sorted[safe], valid))
        parts.append(pa.table(cols, schema=out_schema))
        return parts[0] if len(parts) == 1 else pa.concat_tables(parts)

    return l_proj.union(r_proj).groupby(key).map_groups(
        per_key, batch_format="pyarrow"
    )


def range_join(
    left,
    right,
    *,
    key: str,
    point: str,
    lo: str,
    hi: str,
    left_payload,
    right_payload,
    how: str = "inner",
):
    """Join each left point row to the right interval containing it.

    Matches ``lo <= point <= hi`` (inclusive both ends — SQL ``BETWEEN``)
    per key. Right intervals MUST be non-overlapping within a key (session
    windows, retention ranges) so each point matches at most one interval;
    this is what keeps the output 1:<=1 and the kernel a searchsorted
    instead of an interval tree. Same payload/how contract as
    :func:`asof_join`.
    """
    if how not in ("inner", "left"):
        raise EngineValueError("how must be 'inner' or 'left'")
    lschema, rschema = _arrow_schema(left), _arrow_schema(right)
    lp = _payload_dict(left_payload, lschema, role="left")
    rp = _payload_dict(right_payload, rschema, role="right")
    if set(lp) & set(rp):
        raise EngineValueError(f"payload name collision: {set(lp) & set(rp)}")
    r_fields = [pa.field(o, rschema.field(s).type) for o, s in rp.items()]
    l_fields = [pa.field(o, lschema.field(s).type) for o, s in lp.items()]
    out_schema = pa.schema(l_fields + r_fields)
    bound_type = rschema.field(lo).type
    _check_reserved(lp, rp, key, lschema, rschema)
    union_fields = [
        pa.field(key, lschema.field(key).type),
        pa.field("_lo", bound_type),
        pa.field("_hi", bound_type),
        *[f for f in l_fields + r_fields if f.name != key],
        pa.field("_knull", pa.int8()),
        pa.field("_side", pa.int8()),
    ]
    l_proj = _project_side(
        left, union_fields=union_fields,
        src_map={key: key, "_lo": point, **{o: s for o, s in lp.items()}}, side=0,
        key=key, drop_null_keys=(how == "inner"),
    )
    r_proj = _project_side(
        right, union_fields=union_fields,
        src_map={key: key, "_lo": lo, "_hi": hi, **{o: s for o, s in rp.items()}},
        side=1,
        key=key, drop_null_keys=True,  # a null or NaN right key never matches
    )
    empty = _empty_like(out_schema)
    l_names, r_names = [f.name for f in l_fields], [f.name for f in r_fields]

    def per_key(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        side = g["_side"].to_numpy(zero_copy_only=False)
        knull = g["_knull"].to_numpy(zero_copy_only=False).astype(bool)
        nan = _nan_keys(g[key]) & ~knull
        parts = []
        # null and NaN left keys (how="left" only) never match; a NaN key
        # keeps its NaN in the padded row
        for unmatched, key_null in ((knull, True), (nan, False)):
            rows = np.flatnonzero((side == 0) & unmatched)
            if how == "left" and rows.size:
                parts.append(
                    _left_pad(g, rows, l_names, r_fields, out_schema, key, key_null)
                )
        l_rows = np.flatnonzero((side == 0) & ~(knull | nan))
        if l_rows.size == 0:
            if not parts:
                return empty
            return parts[0] if len(parts) == 1 else pa.concat_tables(parts)
        # "_hi" is null on left rows: take the side's rows arrow-side BEFORE
        # to_numpy so the null slots never force a float/object conversion
        pts = g["_lo"].take(pa.array(l_rows, type=pa.int64())).to_numpy(
            zero_copy_only=False
        )
        r_rows = np.flatnonzero(side == 1)
        if r_rows.size == 0:
            if how == "inner":
                return empty
            parts.append(
                _left_pad(g, l_rows, l_names, r_fields, out_schema, key, False)
            )
            return parts[0] if len(parts) == 1 else pa.concat_tables(parts)
        r_take = pa.array(r_rows, type=pa.int64())
        los = g["_lo"].take(r_take).to_numpy(zero_copy_only=False)
        his = g["_hi"].take(r_take).to_numpy(zero_copy_only=False)
        order = np.argsort(los, kind="stable")
        r_sorted, los, his = r_rows[order], los[order], his[order]
        pos = np.searchsorted(los, pts, side="right") - 1
        valid = pos >= 0
        safe = np.clip(pos, 0, los.size - 1)
        valid &= pts <= his[safe]
        if how == "inner":
            l_keep = l_rows[valid]
            r_keep = r_sorted[safe[valid]]
            cols = _take_with_validity(g, l_names, l_keep, None)
            cols.update(_take_with_validity(g, r_names, r_keep, None))
        else:
            cols = _take_with_validity(g, l_names, l_rows, None)
            cols.update(_take_with_validity(g, r_names, r_sorted[safe], valid))
        parts.append(pa.table(cols, schema=out_schema))
        return parts[0] if len(parts) == 1 else pa.concat_tables(parts)

    return l_proj.union(r_proj).groupby(key).map_groups(
        per_key, batch_format="pyarrow"
    )


_MAX_JOIN_GROUP_ROWS = 50_000_000


def _equi_plan(left, right, *, key, left_payload, right_payload, extra_fields=()):
    """Shared front half of the equi-join family: validate payloads, build
    the tagged union schema (plus any ``extra_fields``, e.g. the salt
    column), and return everything the kernels need."""
    lschema, rschema = _arrow_schema(left), _arrow_schema(right)
    lp = _payload_dict(left_payload, lschema, role="left")
    rp = _payload_dict(right_payload, rschema, role="right")
    if set(lp) & set(rp):
        raise EngineValueError(f"payload name collision: {set(lp) & set(rp)}")
    l_fields = [pa.field(o, lschema.field(s).type) for o, s in lp.items()]
    r_fields = [pa.field(o, rschema.field(s).type) for o, s in rp.items()]
    out_schema = pa.schema(l_fields + r_fields)
    _check_reserved(lp, rp, key, lschema, rschema)
    union_fields = [
        pa.field(key, lschema.field(key).type),
        *[f for f in l_fields + r_fields if f.name != key],
        *extra_fields,
        pa.field("_knull", pa.int8()),
        pa.field("_side", pa.int8()),
    ]
    return lp, rp, l_fields, r_fields, out_schema, union_fields


def _left_pad(g, rows, l_names, r_fields, out_schema, key, key_null):
    """Left rows with null right payload (outer padding). ``key_null``
    nulls the key output column back for sentinel-filled null-key rows."""
    cols = _take_with_validity(g, l_names, rows, None)
    cols.update({f.name: pa.nulls(rows.size, type=f.type) for f in r_fields})
    if key_null and key in cols:
        cols[key] = pa.nulls(rows.size, type=out_schema.field(key).type)
    return pa.table(cols, schema=out_schema)


def _key_values_np(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """Join-key column as a numpy array suitable for ``pd.factorize``."""
    if pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
        return np.asarray(
            col.to_numpy(zero_copy_only=False)
            if hasattr(col, "to_numpy")
            else col
        )
    return np.asarray(col.to_pandas(), dtype=object)


def _nan_keys(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """Rows whose float join key is NaN. NaN equals nothing, itself
    included, so such rows never match: kernels route them like null keys
    (outer-padded, never joined) but keep the NaN in the key column.
    ``pd.factorize`` codes NaN as -1, which must never reach a count."""
    if not pa.types.is_floating(col.type):
        return np.zeros(len(col), dtype=bool)
    return pc.fill_null(pc.is_nan(col), False).to_numpy(zero_copy_only=False)


def _make_bucket_cross_kernel(
    *, key, how, l_fields, r_fields, out_schema, max_group_rows, label,
    salted: bool = False,
):
    """Per-bucket cross kernel shared by :func:`equi_join` and
    :func:`salted_equi_join`: one UDF call handles every join key in its
    coarse hash bucket, with the cross product expanded VECTORIZED across
    keys (factorize -> per-key segment counts -> one arange/repeat index
    build), instead of Ray's per-group dispatch. With star-schema keys a
    fine groupby costs a kernel invocation per distinct key (~hundreds of
    thousands for a lineitem x orders join); the bucket kernel collapses
    that to ``n_buckets`` calls. SQL inner/left/full semantics, with the
    per-key ``max_group_rows`` guard. Null keys follow three-valued logic:
    they arrive sentinel-filled with ``_knull=1`` (see
    :func:`_sentinel_filled_key`), never match, and go straight to outer
    padding with the key nulled back. NaN float keys never match either
    and are padded the same way, keeping their NaN. The key output column
    has ``USING(key)`` semantics (coalesced on right-only full-outer rows).
    ``salted`` factorizes on the (key, _salt) composite so each salt
    sub-group stays an independent cross-product unit."""
    import pandas as pd

    empty = _empty_like(out_schema)
    l_names = [f.name for f in l_fields]
    r_names = [f.name for f in r_fields]
    remedy = (
        "swap the join sides (the LEFT side is salted; a right-heavy hot "
        "key does not split) or pre-aggregate the right side"
        if label == "salted_equi_join"
        else "pre-aggregate one side or use salted_equi_join"
    )

    def left_only(g: pa.Table, l_rows: np.ndarray, key_null: bool = False):
        return _left_pad(
            g, l_rows, l_names, r_fields, out_schema, key, key_null
        )

    def right_only(g: pa.Table, r_rows: np.ndarray, key_null: bool = False):
        idx = pa.array(r_rows, type=pa.int64())
        cols = {}
        for f in l_fields:
            if f.name == key:
                cols[key] = (
                    pa.nulls(r_rows.size, type=f.type)
                    if key_null
                    else g[key].take(idx)
                )
            else:
                cols[f.name] = pa.nulls(r_rows.size, type=f.type)
        cols.update(_take_with_validity(g, r_names, r_rows, None))
        return pa.table(cols, schema=out_schema)

    def per_bucket(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        side = g["_side"].to_numpy(zero_copy_only=False)
        knull = g["_knull"].to_numpy(zero_copy_only=False).astype(bool)
        nan = _nan_keys(g[key]) & ~knull
        parts = []
        for unmatched, key_null in ((knull, True), (nan, False)):
            if not unmatched.any():
                continue
            null_l = np.flatnonzero((side == 0) & unmatched)
            null_r = np.flatnonzero((side == 1) & unmatched)
            if how in ("left", "full") and null_l.size:
                parts.append(left_only(g, null_l, key_null=key_null))
            if how == "full" and null_r.size:
                parts.append(right_only(g, null_r, key_null=key_null))
        nn = np.flatnonzero(~(knull | nan))
        if nn.size:
            kcodes, uniques = pd.factorize(_key_values_np(g[key])[nn])
            if salted:
                salt = (
                    g["_salt"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)[nn]
                )
                comp = kcodes.astype(np.int64) * np.int64(1 << 32) + salt
                ucomp, codes = np.unique(comp, return_inverse=True)
                K = ucomp.size

                def key_of(gi: int):
                    return uniques[int(ucomp[gi] >> 32)]

            else:
                codes, K = kcodes, len(uniques)

                def key_of(gi: int):
                    return uniques[gi]

            nn_side = side[nn]
            l_sel = nn_side == 0
            l_nn, l_codes = nn[l_sel], codes[l_sel]
            r_nn, r_codes = nn[~l_sel], codes[~l_sel]
            lo = np.argsort(l_codes, kind="stable")
            l_nn, l_codes = l_nn[lo], l_codes[lo]
            ro = np.argsort(r_codes, kind="stable")
            r_nn, r_codes = r_nn[ro], r_codes[ro]
            l_cnt = np.bincount(l_codes, minlength=K)
            r_cnt = np.bincount(r_codes, minlength=K)
            l_start = np.concatenate(([0], np.cumsum(l_cnt)[:-1]))
            r_start = np.concatenate(([0], np.cumsum(r_cnt)[:-1]))
            prod = l_cnt * r_cnt
            bad = np.flatnonzero(prod > max_group_rows)
            if bad.size:
                b = int(bad[0])
                raise EngineValueError(
                    f"{label} group for {key}={key_of(b)!r} would emit "
                    f"{int(prod[b])} rows (> max_group_rows="
                    f"{max_group_rows}); {remedy}"
                )
            matched = np.flatnonzero(prod > 0)
            if matched.size:
                sizes = prod[matched]
                total = int(sizes.sum())
                starts_out = np.concatenate(([0], np.cumsum(sizes)[:-1]))
                rep_k = np.repeat(matched, sizes)
                j = np.arange(total, dtype=np.int64) - np.repeat(
                    starts_out, sizes
                )
                rc = r_cnt[rep_k]
                l_idx = l_nn[l_start[rep_k] + j // rc]
                r_idx = r_nn[r_start[rep_k] + j % rc]
                cols = _take_with_validity(g, l_names, l_idx, None)
                cols.update(_take_with_validity(g, r_names, r_idx, None))
                parts.append(pa.table(cols, schema=out_schema))
            if how != "inner":
                lonly = (l_cnt > 0) & (r_cnt == 0)
                if lonly.any():
                    parts.append(left_only(g, l_nn[lonly[l_codes]]))
            if how == "full":
                ronly = (r_cnt > 0) & (l_cnt == 0)
                if ronly.any():
                    parts.append(right_only(g, r_nn[ronly[r_codes]]))
        if not parts:
            return empty
        return parts[0] if len(parts) == 1 else pa.concat_tables(parts)

    return per_bucket


def equi_join(
    left,
    right,
    *,
    key: str,
    left_payload,
    right_payload,
    how: str = "inner",
    max_group_rows: int = _MAX_JOIN_GROUP_ROWS,
    n_buckets: int = 64,
):
    """Generic hash equi-join through one coarse co-partitioning exchange:
    both sides project to the pruned tagged union schema, rows exchange on
    ``key_hash(key) % n_buckets`` (bounded reduce fan-in,
    :func:`~datafiller_ray.stages.exchange.coarse_map_groups`), and the
    per-bucket kernel emits every key's left x right cross product from
    one vectorized factorize + index expansion (standard SQL
    inner/left/full-outer semantics, duplicates multiply; the key output
    column follows SQL ``USING(key)`` — coalesced on outer-padded rows;
    null and NaN keys never match).

    Partitioning assumption: one BUCKET's output fits in a task. A reduce
    task materializes the joined rows of every key hashed to its bucket,
    sum over those keys of |L_k| x |R_k| rows (about |join| / n_buckets),
    so raise ``n_buckets`` when that would not fit. ``max_group_rows``
    bounds only one key's product: a hot key above it raises
    EngineValueError naming the key rather than silently OOMing the
    worker — the remedy is :func:`salted_equi_join`, which splits hot
    keys across salt sub-groups before the exchange. No guard checks the
    bucket total.
    """
    if how not in ("inner", "left", "full"):
        raise EngineValueError("how must be 'inner', 'left' or 'full'")
    lp, rp, l_fields, r_fields, out_schema, union_fields = _equi_plan(
        left, right, key=key, left_payload=left_payload, right_payload=right_payload
    )
    l_proj = _project_side(
        left,
        union_fields=union_fields,
        src_map={key: key, **lp},
        side=0,
        key=key,
        drop_null_keys=(how == "inner"),
    )
    r_proj = _project_side(
        right,
        union_fields=union_fields,
        src_map={key: key, **rp},
        side=1,
        key=key,
        drop_null_keys=(how in ("inner", "left")),
    )
    per_bucket = _make_bucket_cross_kernel(
        key=key,
        how=how,
        l_fields=l_fields,
        r_fields=r_fields,
        out_schema=out_schema,
        max_group_rows=max_group_rows,
        label="equi_join",
    )
    return coarse_map_groups(
        l_proj.union(r_proj), key, per_bucket, n_buckets=n_buckets,
        batch_format="pyarrow",
    )


def _nsalt_vector(keys: np.ndarray, hot: dict, n: int) -> np.ndarray:
    """Per-row salt count: ``hot[key]`` for hot keys, 1 elsewhere. Linear
    scans per hot key — the hot set is small by the skew assumption."""
    nsalt = np.ones(n, dtype=np.int64)
    for k, s in hot.items():
        nsalt[keys == k] = s
    return nsalt


def salted_equi_join(
    left,
    right,
    *,
    key: str,
    left_payload,
    right_payload,
    how: str = "inner",
    salt_by: str,
    max_group_rows: int = _MAX_JOIN_GROUP_ROWS,
    max_salt: int = 1024,
    count_buckets: int = 64,
):
    """Skew-resilient hash equi-join: the remedy :func:`equi_join` names
    when a hot key's cross product would blow a task.

    Physical plan (two exchanges, both bounded):

    1. **Hot-key census** — each side pre-aggregates per-batch key counts
       (pyarrow ``group_by`` partials, 16-byte rows), the tagged partials
       meet in one small :func:`~datafiller_ray.stages.exchange.grouped_sum`
       exchange, and only keys whose join product (or left count) exceeds
       ``max_group_rows`` reach the driver — bounded by the skew
       assumption that hot keys are few.
    2. **Salted exchange** — left rows of a hot key scatter across
       ``n_salt = ceil(max(|L|x|R|, |L|)/max_group_rows)`` sub-groups by a
       deterministic hash of ``salt_by`` (a well-distributed left column,
       e.g. a row id); the hot key's RIGHT rows replicate into every salt
       sub-group (replication cost |R_hot| x n_salt — the small side of
       the hot key pays, never the fact side). Non-hot keys ride the same
       exchange with salt 0. One coarse exchange on ``(key, salt)``
       co-locates each sub-group and the shared cross kernel runs
       unchanged.

    Results are row-identical to :func:`equi_join` (inner/left); ``full``
    is rejected because unmatched-right padding would duplicate per salt
    sub-group. With no hot keys the plan degenerates to the plain join
    plus the census cost.

    Per-salt-group products are ~``max_group_rows`` in expectation; the
    kernel guard allows 4x slack for hash variance before raising. As in
    :func:`equi_join`, a reduce task holds one bucket's output, here the
    sub-groups of the 64 buckets of ``(key, salt)``.
    """
    if how not in ("inner", "left"):
        raise EngineValueError(
            "salted_equi_join supports how='inner'/'left' only; use "
            "equi_join for full-outer (unmatched-right padding would "
            "duplicate per salt sub-group)"
        )
    import pandas as pd

    from datafiller_ray.stages.exchange import grouped_sum

    lschema = _arrow_schema(left)
    if salt_by not in lschema.names:
        raise EngineValueError(f"salt_by column {salt_by!r} not in left schema")
    if max_group_rows < 1:
        raise EngineValueError("max_group_rows must be >= 1")

    # ---- phase 1: hot-key census -------------------------------------
    def partial_counts(side):
        def fn(t: pa.Table) -> pa.Table:
            ones = pa.table(
                {key: t[key], "_n": pa.array(np.ones(t.num_rows, np.int64))}
            )
            g = ones.group_by(key).aggregate([("_n", "sum")])
            n = g["_n_sum"].cast(pa.int64())
            z = pa.array(np.zeros(len(g), np.int64))
            return pa.table(
                {key: g[key], "lcnt": n if side == 0 else z, "rcnt": z if side == 0 else n}
            )

        return fn

    census = (
        left.map_batches(partial_counts(0), batch_format="pyarrow", zero_copy_batch=True)
        .union(
            right.map_batches(
                partial_counts(1), batch_format="pyarrow", zero_copy_batch=True
            )
        )
    )
    totals = grouped_sum(census, key, ["lcnt", "rcnt"], n_buckets=count_buckets)

    def keep_hot(df: pd.DataFrame) -> pd.DataFrame:
        df = df.dropna(subset=[key])  # null keys never match: no product
        load = np.maximum(df["lcnt"].to_numpy() * df["rcnt"].to_numpy(),
                          df["lcnt"].to_numpy())
        sel = load > max_group_rows
        nsalt = np.minimum(-(-load[sel] // max_group_rows), max_salt)
        return pd.DataFrame({key: df[key].to_numpy()[sel], "_nsalt": nsalt})

    hot_rows = totals.map_batches(keep_hot, batch_format="pandas").take_all()
    hot = {r[key]: int(r["_nsalt"]) for r in hot_rows}
    if not hot:
        return equi_join(
            left,
            right,
            key=key,
            left_payload=left_payload,
            right_payload=right_payload,
            how=how,
            max_group_rows=4 * max_group_rows,
        )

    # ---- phase 2: salted exchange ------------------------------------
    lp, rp, l_fields, r_fields, out_schema, union_fields = _equi_plan(
        left,
        right,
        key=key,
        left_payload=left_payload,
        right_payload=right_payload,
        extra_fields=(pa.field("_salt", pa.int32()),),
    )
    union_schema = pa.schema(union_fields)

    def project_left(t: pa.Table) -> pa.Table:
        if how == "inner":
            t = t.filter(pc.is_valid(t[key]))  # nulls never match
        n = t.num_rows
        keys_np = t[key].to_numpy(zero_copy_only=False)
        nsalt = _nsalt_vector(keys_np, hot, n)
        salt = np.zeros(n, dtype=np.int32)
        hot_mask = nsalt > 1
        if hot_mask.any():
            hot_rows = t.select([salt_by]).filter(pa.array(hot_mask))
            h = key_hash(hot_rows, [salt_by])
            salt[hot_mask] = (h % nsalt[hot_mask].astype(np.uint64)).astype(np.int32)
        cols = _union_columns(
            t, union_fields, {key: key, **lp}, 0, key=key, salt=salt
        )
        return pa.Table.from_arrays(cols, schema=union_schema)

    def project_right(t: pa.Table) -> pa.Table:
        # inner/left only: right null keys can never contribute output
        t = t.filter(pc.is_valid(t[key]))
        n = t.num_rows
        keys_np = t[key].to_numpy(zero_copy_only=False)
        nsalt = _nsalt_vector(keys_np, hot, n)
        idx = np.repeat(np.arange(n, dtype=np.int64), nsalt)
        starts = np.cumsum(nsalt) - nsalt  # first output slot of each row
        salt = (np.arange(idx.size, dtype=np.int64) - starts[idx]).astype(np.int32)
        taken = t.take(pa.array(idx))
        cols = _union_columns(
            taken, union_fields, {key: key, **rp}, 1, key=key, salt=salt
        )
        return pa.Table.from_arrays(cols, schema=union_schema)

    l_proj = left.map_batches(
        project_left, batch_format="pyarrow", zero_copy_batch=True
    )
    r_proj = right.map_batches(
        project_right, batch_format="pyarrow", zero_copy_batch=True
    )
    per_bucket = _make_bucket_cross_kernel(
        key=key,
        how=how,
        l_fields=l_fields,
        r_fields=r_fields,
        out_schema=out_schema,
        max_group_rows=4 * max_group_rows,
        label="salted_equi_join",
        salted=True,
    )
    # the salt joins the bucket key, so a hot key's sub-groups SPREAD
    # across reduce tasks — the whole point of salting
    return coarse_map_groups(
        l_proj.union(r_proj), [key, "_salt"], per_bucket, batch_format="pyarrow"
    )


def semi_join(
    left,
    right,
    *,
    key: str,
    left_payload,
    right_key: "str | None" = None,
    anti: bool = False,
):
    """Hash semi-join (SQL ``EXISTS``): keep each left row iff at least one
    right row shares its key; ``anti=True`` flips to ``NOT EXISTS``. Left
    rows pass through unchanged and are never multiplied — the membership
    complement of :func:`equi_join`.

    Scale shape: the right side ships ONLY its per-batch DISTINCT keys into
    the exchange (8-byte rows, the partial-dedup combiner pattern), so the
    shuffle carries |left's pruned payload| + at most |right blocks| x
    |distinct keys per block| rows regardless of right-side duplication.
    The per-bucket kernel is a presence test — its output is a subset of
    the bucket's left rows (about |left| / 64), so no cross-product guard
    is needed.

    Null keys follow SQL three-valued logic: a null never matches, so
    null-key left rows survive only under ``anti`` (right-side null keys
    are dropped before the exchange). NaN float keys never match either.
    """
    right_key = right_key or key
    lschema, rschema = _arrow_schema(left), _arrow_schema(right)
    lp = _payload_dict(left_payload, lschema, role="left")
    if right_key not in rschema.names:
        raise EngineValueError(f"right key column {right_key!r} not in schema")
    key_type = lschema.field(key).type
    l_fields = [pa.field(o, lschema.field(s).type) for o, s in lp.items()]
    out_schema = pa.schema(l_fields)
    _check_reserved(lp, {}, key, lschema, rschema)
    union_fields = [
        pa.field(key, key_type),
        *[f for f in l_fields if f.name != key],
        pa.field("_knull", pa.int8()),
        pa.field("_side", pa.int8()),
    ]
    union_schema = pa.schema(union_fields)
    # null-key left rows never pass EXISTS (semi: dropped) and always pass
    # NOT EXISTS (anti: sentinel-filled, routed via _knull)
    l_proj = _project_side(
        left, union_fields=union_fields, src_map={key: key, **lp}, side=0,
        key=key, drop_null_keys=not anti,
    )

    def project_right(t: pa.Table) -> pa.Table:
        keys = pc.unique(t[right_key].combine_chunks()).drop_null().cast(key_type)
        n = len(keys)
        cols = []
        for f in union_fields:
            if f.name == key:
                cols.append(keys)
            elif f.name == "_side":
                cols.append(pa.array(np.ones(n, dtype=np.int8)))
            elif f.name == "_knull":
                cols.append(pa.array(np.zeros(n, dtype=np.int8)))
            else:
                cols.append(pa.nulls(n, type=f.type))
        return pa.Table.from_arrays(cols, schema=union_schema)

    r_proj = right.map_batches(
        project_right, batch_format="pyarrow", zero_copy_batch=True
    )
    empty = _empty_like(out_schema)
    l_names = [f.name for f in l_fields]

    def per_bucket(g: pa.Table) -> pa.Table:
        # one UDF call per coarse bucket, EXISTS/NOT-EXISTS decided
        # vectorized across every key in it (factorize + membership mask)
        # instead of Ray's per-key group dispatch
        import pandas as pd

        g = g.combine_chunks()
        side = g["_side"].to_numpy(zero_copy_only=False)
        knull = g["_knull"].to_numpy(zero_copy_only=False).astype(bool)
        nan = _nan_keys(g[key]) & ~knull
        parts = []
        if anti:  # null and NaN left keys never match: they pass NOT EXISTS
            for unmatched, key_null in ((knull, True), (nan, False)):
                null_l = np.flatnonzero((side == 0) & unmatched)
                if null_l.size:
                    parts.append(
                        _left_pad(
                            g, null_l, l_names, [], out_schema, key, key_null
                        )
                    )
        nn = np.flatnonzero(~(knull | nan))
        if nn.size:
            codes, _ = pd.factorize(_key_values_np(g[key])[nn])
            nn_side = side[nn]
            l_sel = nn_side == 0
            has_right = np.zeros(codes.max() + 1, dtype=bool)
            has_right[codes[~l_sel]] = True
            keep = has_right[codes[l_sel]] != anti
            l_rows = nn[l_sel][keep]
            if l_rows.size:
                parts.append(
                    pa.table(
                        _take_with_validity(g, l_names, l_rows, None),
                        schema=out_schema,
                    )
                )
        if not parts:
            return empty
        return parts[0] if len(parts) == 1 else pa.concat_tables(parts)

    return coarse_map_groups(
        l_proj.union(r_proj), key, per_bucket, batch_format="pyarrow"
    )


def anti_join(left, right, *, key: str, left_payload, right_key: "str | None" = None):
    """Hash anti-join (SQL ``NOT EXISTS``): left rows with NO matching right
    key — see :func:`semi_join` for the exchange shape and null semantics."""
    return semi_join(
        left, right, key=key, left_payload=left_payload,
        right_key=right_key, anti=True,
    )


_MAX_BROADCAST_ROWS = 20_000_000


def _gather_dim(small, key: str, small_payload, how: str, max_small_rows: int):
    """Validate + gather one dimension table for broadcasting: returns the
    renamed pandas frame ``[key, *payload]`` (driver-bounded, guarded)."""
    if how not in ("inner", "left"):
        raise EngineValueError("how must be 'inner' or 'left'")
    sschema = _arrow_schema(small)
    sp = _payload_dict(small_payload, sschema, role="small")
    if key in sp:
        raise EngineValueError(
            f"small_payload must not re-expose the key {key!r}; "
            "the big side already carries it"
        )
    n_small = small.count()
    if n_small > max_small_rows:
        raise EngineValueError(
            f"small side has {n_small} rows (> max_small_rows="
            f"{max_small_rows}); broadcast_join is for dimension tables — "
            "use equi_join for big-big joins"
        )
    dim = small.select_columns([key, *dict.fromkeys(sp.values())]).to_pandas()
    if dim[key].duplicated().any():
        raise EngineValueError(
            f"small side key {key!r} is not unique; use equi_join for m:n"
        )
    return dim.rename(columns={s: o for o, s in sp.items()})[[key, *sp]]


def broadcast_chain(big, hops, *, max_small_rows: int = _MAX_BROADCAST_ROWS):
    """Consecutive dimension hops collapsed into ONE actor-pool stage:
    ``hops`` is a list of ``(small, key, small_payload)`` or
    ``(small, key, small_payload, how)`` tuples, merged IN ORDER inside a
    single probe actor — a later hop may key on a column attached by an
    earlier one (the classic snowflake chain supplier -> nation -> region).

    Same semantics as chaining :func:`broadcast_join` calls; the physical
    difference matters twice at scale: every hop in its own ``map_batches``
    stage re-materializes the batch stream once per hop, and every
    actor-pool stage reserves at least one actor, so a deep dimension
    chain on a small CPU budget can deadlock the streaming scheduler
    outright (N pools x min 1 CPU + the join's own pool > budget). One
    stage does N vectorized merges per batch instead.
    """
    import pandas as pd
    import ray

    if not hops:
        raise EngineValueError("hops must be non-empty")
    norm = []
    for hop in hops:
        small, key, sp, *rest = hop
        how = rest[0] if rest else "inner"
        norm.append((key, how, _gather_dim(small, key, sp, how, max_small_rows)))
    handle = ray.put([(k, h, d) for k, h, d in norm])

    class _ChainProbe:
        def __init__(self, ref):
            self.hops = ray.get(ref)  # plasma-local per node

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            for key, how, dim in self.hops:
                batch = batch.merge(
                    dim,
                    on=key,
                    how="inner" if how == "inner" else "left",
                    sort=False,
                )
            return batch

    return big.map_batches(
        _ChainProbe,
        fn_constructor_args=(handle,),
        batch_format="pandas",
        concurrency=(1, 8),
    )


def broadcast_join(
    big,
    small,
    *,
    key: str,
    small_payload,
    how: str = "inner",
    max_small_rows: int = _MAX_BROADCAST_ROWS,
):
    """Map-side join against a SMALL dimension table: the small side is
    gathered once (driver-bounded, guarded by ``max_small_rows``), put in
    the object store ONCE via ``ray.put``, and every batch of the big side
    probes it with a vectorized pandas merge — no shuffle at all, the
    100-TB star-join path (SURVEY.md §4 broadcast-small-side pattern).

    The small side's ``key`` must be unique (dimension-table contract;
    duplicates raise EngineValueError — use equi_join for m:n). ``how`` is
    ``"inner"`` (drop unmatched big rows) or ``"left"`` (keep, null
    payload). Big-side columns all pass through; ``small_payload`` maps
    ``{out_name: small_col}`` for the attached columns. For a CHAIN of
    dimension hops prefer :func:`broadcast_chain` — one actor-pool stage
    for the whole chain instead of one per hop.
    """
    return broadcast_chain(
        big, [(small, key, small_payload, how)], max_small_rows=max_small_rows
    )
