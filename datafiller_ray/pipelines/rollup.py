"""The flagship pipeline: tokenized-sequence Parquet -> tier tables / blobs.

Physical plan (SURVEY.md §3.4):

    scan: one plain Ray task per input file (scan_file, then cut by skey % n0)
      -> read (columns pruned to the 4 contract columns) + validate + bucketize + partial agg
      -> exchange on skey: reduce tasks take the scan's pieces        [THE shuffle — partial rows only]
         (one re-split task per block only when the partial bytes lift n above n0)
      -> fill_tiers per run of whole skey groups (combine -> cascade 1m/1h/1d -> densify -> gap-fill [-> Gorilla])
      -> Dataset of tier rows (or blob rows) -> write_tiers: one plain Ray task per block

The heavy token payload never crosses the shuffle: the partial-agg stage
reduces each input block to one row per (source, minute) before the exchange.
A scan task reads one input file and partially aggregates it, so the token
payload never leaves the task that read it, and it cuts its partial rows by
``skey % n0`` itself, the exchange's map side, so the exchange gets ``n0``
pieces per file and no separate split wave (:func:`rollup_tiers`). Given a
Parquet path, the scan, the exchange and the sink all run as plain Ray tasks
(``stages/tasks.py``): no Ray Data executor starts on the way. All
per-group work is vectorized NumPy on series that are tiny relative to the
input (one row per source-minute).

One exchange implements the shuffle: the engine's in-memory hash exchange
through the object store, :func:`bucketed_map_groups`. Every step keyed on
``skey`` alone — the tier fill of :func:`rollup_tiers` and its variants, and
the per-source window ops of ``window.py`` / ``correlate.py`` — runs through
it; Ray Data's sort-based groupby remains only where the key is not ``skey``
alone (the salted paths' ``(skey, salt)`` chunks) and at the model solve,
whose rows carry no ``bucket_ts``. The exchange sizes its partition count
from the cluster's CPUs and the partial bytes; each reduce task sorts its
partition once and calls the fill kernel, ``stages/fill.fill_tiers``, once
per run of whole ``skey`` groups on Arrow tables — once per partition unless
the run's projected output passes one target block — so the output streams
in blocks of about that size, Arrow end to end, and nothing is written to
disk.
"""

from __future__ import annotations

import functools
import logging
from typing import TYPE_CHECKING

import ray
import ray.data

from datafiller_ray.config import FillConfig, RetentionConfig
from datafiller_ray.stages import tasks
from datafiller_ray.stages.fill import make_fill_group_fn
from datafiller_ray.stages.validate import make_partial_agg_fn

if TYPE_CHECKING:
    import pyarrow as pa
    from ray.data import Dataset

INPUT_COLUMNS = ["doc_id", "tokens", "n_tok", "source"]

_log = logging.getLogger(__name__)


def input_columns(with_tokens: bool = True) -> list[str]:
    """The contract columns a read keeps: without ``tokens`` when the token
    invariant is not being checked."""
    return INPUT_COLUMNS if with_tokens else ["doc_id", "n_tok", "source"]


def read_input(
    input_path: str | list[str],
    *,
    with_tokens: bool = True,
    format: str = "parquet",
) -> "Dataset":
    """Read the contract table, pruning columns at the read. When the token
    invariant is not being checked, the (dominant) ``tokens`` column never
    leaves storage. ``format="csv"`` supports the 3-column form (CSV cannot
    carry the list<int32> token payload) — the engine analogue of the
    reference's CSV dataset loaders (``datasets/_datasets.py:6-72``).

    A Parquet path is read by Ray Data's default split read, which cuts each
    file into several blocks; for the readers that use it, one block per
    file measured 13-28 % slower on 49 small files on 4 CPUs. The rollup's
    own scan is :func:`partial_aggregates`. One INFO record per Parquet
    read on this module's logger carries the plan in ``record.scan``:
    ``files`` (None when pyarrow cannot open the path and Ray's reader
    plans it) and ``fused`` (False here: the read is not fused with the
    partial aggregation)."""
    from datafiller_ray.config import EngineValueError

    cols = input_columns(with_tokens)
    # in-memory containers (the reference accepts ndarray / pandas / polars,
    # multivariate/imputer.py:864-870, 288-342, _polars.py:74-131 — the
    # engine analogues are pandas / polars / pyarrow in-memory tables)
    if not isinstance(input_path, (str, list)):
        obj = input_path
        if hasattr(obj, "to_arrow"):  # polars DataFrame
            obj = obj.to_arrow()
        import pandas as pd
        import pyarrow as pa

        if isinstance(obj, pa.Table):
            require_columns(obj.column_names, cols)
            return ray.data.from_arrow(obj.select(cols))
        if isinstance(obj, pd.DataFrame):
            require_columns(obj.columns, cols)
            return ray.data.from_pandas(obj[cols])
        raise EngineValueError(
            f"unsupported input container {type(obj).__name__}"
        )
    if format == "csv":
        if with_tokens:
            raise EngineValueError(
                "CSV input carries no token payload; use with_tokens=False"
            )
        ds = ray.data.read_csv(input_path)
        return ds.select_columns(cols)
    if format in ("json", "jsonl"):
        # JSONL carries the full contract incl. the token lists; JSON
        # integers arrive as int64, so cast back to the contract dtypes
        ds = ray.data.read_json(input_path)

        def to_contract(t):
            import pyarrow as pa

            arrays = []
            for c in cols:
                a = t[c]
                if c == "tokens":
                    a = a.cast(pa.list_(pa.int32()))
                elif c == "n_tok":
                    a = a.cast(pa.int32())
                arrays.append(a)
            return pa.table(dict(zip(cols, arrays)))

        return ds.map_batches(to_contract, batch_format="pyarrow")
    if format != "parquet":
        raise EngineValueError(f"unsupported input format {format!r}")
    # fail fast with an engine error when contract columns are absent
    # (otherwise the pruned read surfaces a raw KeyError inside read tasks)
    info = _parquet_info(input_path)
    if info is not None:
        require_columns(info[0].names, cols)
    _log_scan(info[1] if info is not None else None, fused=False)
    return ray.data.read_parquet(input_path, columns=cols)


def _log_scan(files: "int | None", fused: bool) -> None:
    scan = {"files": files, "fused": fused}
    _log.info("parquet scan plan: %s", scan, extra={"scan": scan})


def require_columns(names, cols) -> None:
    """Raise ``EngineValueError`` naming the contract columns ``cols`` that
    a table with column ``names`` lacks."""
    from datafiller_ray.config import EngineValueError

    missing = [c for c in cols if c not in names]
    if missing:
        raise EngineValueError(f"input table missing contract columns: {missing}")


def _parquet_info(input_path) -> "tuple[pa.Schema, int] | None":
    """Schema and file count of a Parquet path (a file, a directory or a
    list of files), or None when pyarrow cannot open it. Ray's own reader
    then reports the path's error, or reads what pyarrow could not."""
    import pyarrow as pa
    import pyarrow.dataset as pds

    try:
        d = pds.dataset(input_path)
    except (OSError, pa.ArrowInvalid):
        return None
    return d.schema, len(d.files)


def parquet_files(input_path, cols) -> list[str]:
    """The files of a Parquet path (a file, a directory or a list of files),
    after checking that their schema holds the contract columns ``cols``;
    pyarrow's own error when it cannot open the path."""
    import pyarrow.dataset as pds

    d = pds.dataset(input_path)
    require_columns(d.schema.names, cols)
    return d.files


def scan_file(path: str, check_tokens: bool = True) -> "pa.Table":
    """One input file's partial rows: read its contract columns and run the
    partial aggregation, token check included. The read of the rollup scan
    tasks (:func:`rollup_tiers`, :func:`partial_aggregates`) and of the
    checkpoint's partial staging.
    Its caller runs it in a task holding one CPU, so Arrow reads without
    its thread pool."""
    import pyarrow.parquet as pq

    t = pq.read_table(path, columns=input_columns(check_tokens), use_threads=False)
    return make_partial_agg_fn(check_tokens=check_tokens)(t)


@tasks.remote()
def _scan_split(scan, path: str, n: int):
    """Scan task: ``scan(path)`` (:func:`scan_file`) cut into ``n`` Arrow
    pieces by ``skey % n``; the last return is ``(per-piece row counts,
    the partial block's BlockMetadata)``."""
    from ray.data.block import BlockAccessor

    t = scan(path)
    pieces, counts = _split_skey(t, n)
    return (*pieces, (counts, BlockAccessor.for_block(t).get_metadata()))


def _scan(input_path, check_tokens: bool, n: int) -> list:
    """One plain task per input file (:func:`_scan_split`) reads it, makes
    its partial rows and cuts them into ``n`` pieces by ``skey % n``.
    Returns ``(piece refs, per-piece row counts, BlockMetadata)`` per file,
    in file order, once every task has settled; a task's error reaches the
    caller then. Only the counts and metadata are collected."""
    files = parquet_files(input_path, input_columns(check_tokens))
    _log_scan(len(files), fused=True)
    # scan_file is looked up at the call, and the partial pickled by value
    scan = ray.put(functools.partial(scan_file, check_tokens=check_tokens))
    task = _scan_split.options(num_returns=n + 1)
    refs = [task.remote(scan, f, n) for f in files]
    last = [r[-1] for r in refs]
    ray.wait(last, num_returns=len(last))
    return [(r[:-1], *info) for r, info in zip(refs, ray.get(last))]


def partial_aggregates(
    ds_or_path: "Dataset | str", *, check_tokens: bool = True
) -> "Dataset":
    """Stage 1: validation + bucketization + per-block partial rollup.

    Given a Parquet path, one plain Ray task per input file reads it and
    reduces it to partial rows (:func:`scan_file`): the token payload never
    leaves the task that read it, and no Ray Data executor starts. It is
    :func:`rollup_tiers`' scan task cutting one piece per file, so the
    returned Dataset holds one uncut partial block per file; the scan runs
    at the call. With 1-3 input files on a 4-CPU cluster, where one task
    per file leaves CPUs idle, this still measured faster than Ray Data's
    split read, whose extra map tasks cost more than they win back. A Dataset or in-memory input is mapped by Ray Data
    instead, so a lazy Dataset still streams."""
    if isinstance(ds_or_path, (str, list)):
        scanned = _scan(ds_or_path, check_tokens, 1)
        return ray.data.from_arrow_refs([pieces[0] for pieces, _, _ in scanned])
    ds = (
        ds_or_path
        if isinstance(ds_or_path, ray.data.Dataset)
        else read_input(ds_or_path, with_tokens=check_tokens)
    )
    return ds.map_batches(
        make_partial_agg_fn(check_tokens=check_tokens),
        batch_format="pyarrow",
        batch_size=None,  # whole blocks: maximal pre-aggregation before the shuffle
        zero_copy_batch=True,
    )


def rollup_tiers(
    input_path: "str | Dataset",
    *,
    fill: FillConfig | None = None,
    tiers: tuple[str, ...] = ("1m", "1h", "1d"),
    retention: RetentionConfig | None = None,
    check_tokens: bool = True,
    emit: str = "rows",
    n_buckets: int | None = None,
) -> "Dataset":
    """Full rollup + gap-fill pipeline: a Dataset of tier rows
    (``emit="rows"``) or Gorilla blob rows (``emit="blobs"``).

    The partial rows move through :func:`bucketed_map_groups`' hash
    exchange in Ray's object store: each partial block is split by
    ``skey % n``, then one task per partition runs ``fill_tiers`` (or, for
    blobs, ``fill_tiers`` then ``encode_tier_chunks``) once per run of whole
    ``skey`` groups, on Arrow tables.

    A Parquet path runs on plain Ray tasks from scan to reduce, and the
    scan does the split: one task per input file runs :func:`scan_file`
    and returns its partial rows already cut into ``n0`` pieces by
    ``skey % n0``, with the per-piece row counts and the block's metadata.
    ``n0`` is ``n_buckets`` when given, else ``4 x cluster CPUs``. This
    call then derives ``n`` from the summed partial bytes as
    :func:`bucketed_map_groups` does. When ``n == n0`` (always with
    ``n_buckets`` given, and whenever the partials stay under ``4 x CPUs``
    target blocks) the reduce tasks take the scan's pieces: no split task
    runs. When the bytes term lifts ``n`` above ``n0``, one re-split task
    per block regroups that block's pieces by ``skey % n`` with the same
    split. A Dataset input is partially aggregated by Ray Data and split
    by :func:`bucketed_map_groups`.

    The exchange runs when this function is called, so the returned
    Dataset is not lazy: its blocks are the reduce outputs, already in the
    object store. Row order inside the Dataset follows the partitions, not
    the sources.

    ``n_buckets`` is the partition count; ``None`` derives it from the
    cluster's CPUs and the partial bytes (see :func:`bucketed_map_groups`).
    Nothing is written to disk, so no shared storage is needed.
    """
    cfg = fill if fill is not None else FillConfig()
    fn = make_fill_group_fn(
        cfg, tiers=tiers, retention=retention, emit=emit, batch_format="pyarrow"
    )
    if not isinstance(input_path, (str, list)):
        partials = partial_aggregates(input_path, check_tokens=check_tokens)
        return bucketed_map_groups(partials, fn, n_buckets=n_buckets)
    _check_n_buckets(n_buckets)
    cpus = _cluster_cpus()
    n0 = n_buckets if n_buckets is not None else 4 * cpus
    return _exchange(_scan(input_path, check_tokens, n0), n0, fn, n_buckets, cpus)


rollup_tiers_bucketed = rollup_tiers


def rollup_tiers_inferred(
    input_path: "str | Dataset",
    *,
    fill: FillConfig | None = None,
    retention: RetentionConfig | None = None,
    check_tokens: bool = True,
) -> "Dataset":
    """Rollup at the input's own cadence: the base step is inferred from the
    observed bucket timestamps (stages/infer_freq.py — the engine analogue
    of the reference's ``_infer_frequency``, ``timeseries/imputer.py:
    188-213``), then a single tier at that step is rolled up and gap-filled.
    A 5-minute stream densifies to a 5-minute grid, not the fixed 1m one."""
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.infer_freq import infer_step

    cfg = fill if fill is not None else FillConfig()
    partials = partial_aggregates(input_path, check_tokens=check_tokens).materialize()
    step = infer_step(partials, ts_column="bucket_ts", key_column="source")
    if step % 60 != 0:
        raise EngineValueError(
            f"inferred step {step}s is finer than the 60s partial-aggregate "
            "resolution of the contract table"
        )
    fn = make_fill_group_fn(
        cfg, tiers={f"{step}s": step}, retention=retention, batch_format="pyarrow"
    )
    return bucketed_map_groups(partials, fn)


def _split_skey(t: "pa.Table", n: int) -> "tuple[list[pa.Table], np.ndarray]":
    """The exchange's map-side cut: ``t``'s rows in ``n`` pieces by
    ``skey % n``, and the per-piece row counts."""
    import numpy as np

    from datafiller_ray.stages.exchange import split_by_code

    part = np.asarray(t["skey"]).view(np.uint64) % np.uint64(n)
    return split_by_code(t, part.astype(np.int64), n)


@tasks.remote()
def _split_by_skey(n: int, *pieces):
    """Exchange map side: one partial block (Arrow or pandas), or the
    pieces a scan task cut it into, -> ``n`` Arrow pieces by ``skey % n``,
    plus the per-piece row counts as the last return."""
    import pyarrow as pa
    from ray.data.block import BlockAccessor

    t = pa.concat_tables([BlockAccessor.for_block(p).to_arrow() for p in pieces])
    out, counts = _split_skey(t, n)
    return (*out, counts)


@tasks.remote(num_returns="streaming")
def _reduce_partition(fn, block_bytes, *pieces):
    """Exchange reduce side: concatenate one partition's pieces, sort by
    ``skey``, cut the sorted table into runs of whole ``skey`` groups, call
    ``fn`` once per run on an Arrow table, and yield the output as Arrow
    blocks of about ``block_bytes`` each (one run and one block when it is
    None).

    A run closes at the group where its projected output reaches
    ``block_bytes``. The projection is the run's 1m-grid cells (each
    group's ``bucket_ts`` span, one segmented reduce over the sorted
    partition) times the output bytes per cell seen so far in this task;
    before the first call, the partial bytes per row stand in. A group is
    never split, so a task holds about one block of output plus one
    group's output."""
    import numpy as np
    import pyarrow as pa
    from ray.data.block import BlockAccessor

    from datafiller_ray.stages.fill import segment_starts

    t = pa.concat_tables(pieces).sort_by("skey")
    del pieces  # the sort copied them; unpin the object-store pieces
    starts = segment_starts(np.asarray(t["skey"]))
    bounds = np.append(starts, t.num_rows)
    ts = np.asarray(t["bucket_ts"])
    span = np.maximum.reduceat(ts, starts) - np.minimum.reduceat(ts, starts)
    cells = np.concatenate([[0], np.cumsum(span // 60 + 1)])  # before group g
    per_cell, seen_cells, seen_bytes = t.nbytes / t.num_rows, 0, 0
    out, held, i = [], 0, 0
    while i < starts.size:
        j = starts.size
        if block_bytes is not None:
            j = int(np.searchsorted(cells, cells[i] + block_bytes / per_cell))
            j = min(max(j, i + 1), starts.size)
        res = BlockAccessor.for_block(
            fn(t.slice(bounds[i], bounds[j] - bounds[i]))
        ).to_arrow()
        seen_cells += cells[j] - cells[i]
        seen_bytes += res.nbytes
        per_cell = max(seen_bytes, 1) / seen_cells
        out.append(res)
        held += res.nbytes
        i = j
        if block_bytes is not None and held >= block_bytes:
            yield pa.concat_tables(out, promote_options="default")
            out, held = [], 0
    if out:
        yield pa.concat_tables(out, promote_options="default")


def bucketed_map_groups(
    partials: "Dataset",
    fn,
    *,
    n_buckets: int | None = None,
) -> "Dataset":
    """The engine's explicit hash-partitioned exchange, generalized: apply
    ``fn`` to the partial rows of whole ``skey`` groups through an
    in-memory hash exchange instead of Ray Data's sort-based one. ``fn``
    takes an Arrow table holding one or more whole ``skey`` groups, sorted
    by ``skey``, and returns an Arrow table (or a pandas frame, converted as
    Ray Data converts a pandas block). Any pipeline built on the (skey,
    source, bucket_ts, ...) partial-row contract — tier fill, sliding
    windows, profiles, smoothing — reuses this one partitioning key; a fn
    over several sources sub-groups by (skey, source), so a hash collision
    stays two series.

    The partial blocks are produced first and their bytes summed. One task
    per block splits it by ``skey % n`` into ``n`` object-store pieces
    (:func:`rollup_tiers` on a Parquet path has its scan tasks cut the
    pieces instead, and re-splits only when ``n`` exceeds their cut); one
    task per non-empty partition concatenates its pieces, sorts by
    ``skey``, and calls ``fn`` once per run of whole groups
    (:func:`_reduce_partition`). A run closes when its projected output
    reaches ``DataContext.target_max_block_size``, so with the default
    target a partition is one call; the output streams as blocks of about
    that size. The reduce outputs stay in the object store. Nothing is
    written to disk, so multi-node clusters need no shared storage.

    ``n_buckets=None`` derives ``n = max(4 * cluster CPUs,
    ceil(partial_bytes / DataContext.target_max_block_size))``. The 4x-CPU
    term leaves the reduce wave room to level skewed partitions; it also
    cuts peak memory (measured on a 4-core VM, 3M rows / 2048 sources:
    -15% at 4 CPUs and -19% at 1 CPU against n = CPUs, for ~5% more wall
    at 4 CPUs; n=128 cost +50%). The bytes term bounds a reduce task's
    input to about one target block of partial rows on average, and the
    run rule bounds what a task holds of the (larger, densified) fn output
    to about one more block plus one group's output. A partition holding a hot key can be larger; a single
    series beyond worker memory is the salted path's job (choose_fill_path
    / rollup_tiers_auto).

    The plan is logged once per exchange on this module's logger, after
    the split, in ``record.plan``: partial bytes, blocks, CPUs, ``n``,
    whether ``n`` was derived, and the partial rows per partition
    (``rows_max``, ``rows_total``, ``partitions_nonempty``) — the
    partition skew. The exchange runs when this function is called, not
    lazily.
    """
    _check_n_buckets(n_buckets)
    blocks = [([ref], None, meta) for ref, meta in tasks.block_pairs(partials)]
    return _exchange(blocks, None, fn, n_buckets, _cluster_cpus())


def _check_n_buckets(n_buckets: "int | None") -> None:
    from datafiller_ray.config import EngineValueError

    if n_buckets is not None and n_buckets < 1:
        raise EngineValueError(f"n_buckets must be >= 1, got {n_buckets}")


def _cluster_cpus() -> int:
    return int(ray.cluster_resources().get("CPU", 1))


def _exchange(blocks, n0, fn, n_buckets, cpus: int) -> "Dataset":
    """:func:`bucketed_map_groups` over the partial ``blocks``, each
    ``(piece refs, per-piece row counts, BlockMetadata)``: a block cut by
    ``skey % n0``, or, when ``n0`` is None, one uncut block (one piece, no
    counts). Blocks already cut at the derived ``n`` go straight to the
    reduce; the others are (re-)split at ``n`` first, one task a block."""
    import math

    import numpy as np

    partial_bytes = sum(meta.size_bytes for _, _, meta in blocks)
    blocks = [(p, c) for p, c, meta in blocks if meta.num_rows != 0]
    target = ray.data.DataContext.get_current().target_max_block_size
    n = n_buckets
    if n is None:
        n = max(4 * cpus, math.ceil(partial_bytes / target) if target else 1)
    if n != n0:
        split = _split_by_skey.options(num_returns=n + 1)
        refs = [
            split.remote(n, *(p for i, p in enumerate(pieces) if c is None or c[i]))
            for pieces, c in blocks
        ]
        blocks = list(zip((r[:-1] for r in refs), ray.get([r[-1] for r in refs])))
    counts = sum((c for _, c in blocks), np.zeros(n, np.int64))
    plan = {
        "partial_bytes": partial_bytes,
        "blocks": len(blocks),
        "cpus": cpus,
        "n": n,
        "derived": n_buckets is None,
        "rows_max": int(counts.max()),
        "rows_total": int(counts.sum()),
        "partitions_nonempty": int(np.count_nonzero(counts)),
    }
    _log.info("bucketed exchange plan: %s", plan, extra={"plan": plan})
    fn_ref = ray.put(fn)
    outputs = [
        _reduce_partition.remote(fn_ref, target, *(p[i] for p, c in blocks if c[i]))
        for i in np.flatnonzero(counts)
    ]
    # collecting the streamed refs waits for the reduce tasks, as
    # from_arrow_refs' metadata fetch would; no output block is fetched
    return ray.data.from_arrow_refs([ref for gen in outputs for ref in gen])


def _distinct_salt_presence(partials, salt_span: int, margin: int) -> set:
    """Distributed distinct (source, salt-chunk) presence. Must EXACTLY
    mirror make_salt_fn's ghost-receiver margin windows: a chunk is present
    when it has a real row OR a row falls inside its ghost margin window.
    Runs as a tiny per-batch pyarrow aggregate; only the distinct chunk list
    (bounded by chunk count, not row count) reaches the driver."""
    import numpy as np
    import pyarrow as pa

    margin_secs = margin * 60

    def distinct_salts(t: pa.Table) -> pa.Table:
        ts = np.asarray(t["bucket_ts"])
        salt = ts // salt_span
        offset = ts - salt * salt_span
        src = np.asarray(t["source"].to_pandas(), dtype=object)
        srcs = [src, src[offset < margin_secs], src[offset >= salt_span - margin_secs]]
        salts = [salt, salt[offset < margin_secs] - 1, salt[offset >= salt_span - margin_secs] + 1]
        proj = pa.table(
            {
                "source": pa.array(np.concatenate(srcs), pa.string()),
                "salt": pa.array(np.concatenate(salts), pa.int64()),
            }
        )
        return proj.group_by(["source", "salt"]).aggregate([])

    distinct = (
        partials.map_batches(distinct_salts, batch_format="pyarrow")
        .to_pandas()
        .drop_duplicates()
    )
    return {(r.source, int(r.salt)) for r in distinct.itertuples()}


def _salted_model_1m(
    partials, cfg, tiers, retention, salt_span, margin, bounds, bounds_ref
):
    """Distributed model fill for the 1m tier (stages/distributed_model.py):
    pass 1 emits mergeable stats/Gram partials per (source, salt) chunk, a
    tiny per-source solve yields the models (broadcast via ray.put), pass 2
    predicts per chunk. Coarse tiers keep the per-source path."""
    import pickle

    import numpy as np
    import pandas as pd

    import ray

    from datafiller_ray.functions.hashing import string_hash64
    from datafiller_ray.stages.distributed_model import (
        make_predict_fn,
        make_solve_fn,
        make_stats_grams_fn,
    )
    from datafiller_ray.stages.salted_fill import make_salt_fn

    # marker partial rows so chunks with zero observations (all-gap interior
    # ranges — still predictable from calendar features) form groups;
    # presence comes from the distributed distinct aggregate (no driver-side
    # row loop over the partials)
    present = _distinct_salt_presence(partials, salt_span, margin)
    # vectorized over the (source x salt-chunk) range table — no Python
    # loop over the chunk range (mega-tenant layouts make it millions)
    srcs = np.array(sorted(bounds), dtype=object)
    base = partials
    if srcs.size:
        los = np.array([bounds[s][0] for s in srcs], np.int64)
        his = np.array([bounds[s][1] for s in srcs], np.int64)
        lo_salt = los // salt_span
        n_chunks = his // salt_span - lo_salt + 1
        total = int(n_chunks.sum())
        seg = np.concatenate([[0], np.cumsum(n_chunks)[:-1]])
        idx = np.repeat(np.arange(srcs.size), n_chunks)
        salts = np.repeat(lo_salt, n_chunks) + (
            np.arange(total) - np.repeat(seg, n_chunks)
        )
        rep_lo, rep_hi = los[idx], his[idx]
        # first global-grid point inside each chunk (chunk_grid_slice
        # algebra, vectorized); empty slices drop out via first > last
        c_lo = salts * salt_span
        first = rep_lo + (
            (np.maximum(c_lo, rep_lo) - rep_lo + 59) // 60
        ) * 60
        last = np.minimum(rep_hi, (salts + 1) * salt_span - 1)
        cand = pd.DataFrame(
            {"source": srcs[idx], "salt": salts, "bucket_ts": first}
        )[first <= last]
        if present:
            pres = pd.DataFrame(
                sorted(present), columns=["source", "salt"]
            ).assign(_p=1)
            cand = cand.merge(pres, on=["source", "salt"], how="left")
            cand = cand[cand["_p"].isna()]
        if len(cand):
            skeys = string_hash64(
                np.asarray(cand["source"].to_numpy(), dtype="U")
            ).view(np.int64)
            markers = pd.DataFrame(
                {
                    "source": cand["source"].to_numpy(),
                    "skey": skeys,
                    "bucket_ts": cand["bucket_ts"].to_numpy(np.int64),
                    "count": 0,
                    "sum": 0,
                    "min": 0,
                    "max": 0,
                }
            )
            base = partials.union(ray.data.from_pandas(markers))

    salted = base.map_batches(
        make_salt_fn(salt_span, margin), batch_format="pyarrow"
    ).materialize()

    pass1 = salted.groupby(["skey", "salt"]).map_groups(
        make_stats_grams_fn(cfg, salt_span, bounds_ref), batch_format="pandas"
    )
    solved = (
        pass1.groupby("skey")
        .map_groups(make_solve_fn(cfg), batch_format="pandas")
        .to_pandas()
    )
    models = {r.source: pickle.loads(bytes(r.payload)) for r in solved.itertuples()}
    models_ref = ray.put(models)

    rows_1m = salted.groupby(["skey", "salt"]).map_groups(
        make_predict_fn(cfg, salt_span, bounds_ref, models_ref, retention),
        batch_format="pandas",
    )
    pieces = [rows_1m] if "1m" in tiers else []
    coarse = tuple(t for t in tiers if t != "1m")
    if coarse:
        fn = make_fill_group_fn(
            cfg, tiers=coarse, retention=retention, batch_format="pyarrow"
        )
        pieces.append(bucketed_map_groups(partials, fn))
    out = pieces[0]
    for p in pieces[1:]:
        out = out.union(p)
    return out


def rollup_tiers_salted(
    input_path: "str | Dataset",
    *,
    fill: FillConfig | None = None,
    tiers: tuple[str, ...] = ("1m", "1h", "1d"),
    retention: RetentionConfig | None = None,
    check_tokens: bool = True,
    salt_span: int = 86400,
    _partials: "Dataset | None" = None,
) -> "Dataset":
    """Skew-resistant variant of :func:`rollup_tiers` (see
    stages/salted_fill.py): the 1m tier is processed per (source,
    time-range-salt) chunk with exact ghost overlap, so the hottest source
    no longer bounds the critical path; coarser tiers (60x/1440x smaller)
    keep the per-source path. Output rows are bit-identical to
    :func:`rollup_tiers` (pinned by tests)."""
    import pandas as pd

    import ray

    from datafiller_ray.stages.salted_fill import (
        make_salt_fn,
        make_salted_fill_fn,
        missing_chunk_rows,
        source_bounds,
        validate_salt_config,
    )

    cfg = fill if fill is not None else FillConfig()
    if cfg.strategy == "model":
        from datafiller_ray.config import EngineValueError
        from datafiller_ray.stages.distributed_model import margin_for

        # optimask runs distributed as the histogram rectangle search at
        # the solve step (stages/distributed_model.py:_histogram_optimask)
        margin = margin_for(cfg)
        if salt_span // 60 <= margin:
            raise EngineValueError(
                "salt_span must exceed the model ghost margin "
                f"({margin} 1m buckets)"
            )
    else:
        margin = validate_salt_config(cfg, salt_span)
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8

    if _partials is not None:  # precomputed by rollup_tiers_auto
        partials = _partials
    else:
        partials = partial_aggregates(input_path, check_tokens=check_tokens)
        partials = partials.repartition(max(16, 2 * cpus)).materialize()

    bounds = source_bounds(partials)
    bounds_ref = ray.put(bounds)

    if cfg.strategy == "model":
        return _salted_model_1m(
            partials, cfg, tiers, retention, salt_span, margin, bounds, bounds_ref
        )

    # 1m tier: salted chunks
    salted = partials.map_batches(
        make_salt_fn(salt_span, margin), batch_format="pyarrow"
    )
    fill_1m = make_salted_fill_fn(
        cfg, salt_span, bounds_ref, retention, margin_buckets=margin
    )
    rows_1m = salted.groupby(["skey", "salt"]).map_groups(
        fill_1m, batch_format="pandas"
    )

    # Chunks nobody will emit (no real rows AND no ghosts) are synthesized;
    # presence must exactly mirror make_salt_fn's ghost-receiver margin
    # windows (see _distinct_salt_presence).
    present = _distinct_salt_presence(partials, salt_span, margin)
    synth = missing_chunk_rows(bounds, present, salt_span)
    if retention is not None and len(synth):
        r_lo, r_hi = retention.bounds("1m")
        if r_lo is not None:
            synth = synth[synth["bucket_ts"] >= r_lo]
        if r_hi is not None:
            synth = synth[synth["bucket_ts"] < r_hi]
    pieces = [rows_1m] if "1m" in tiers else []
    if "1m" in tiers and len(synth):
        pieces.append(ray.data.from_pandas(synth))

    coarse_tiers = tuple(t for t in tiers if t != "1m")
    if coarse_tiers:
        fn = make_fill_group_fn(
            cfg, tiers=coarse_tiers, retention=retention, batch_format="pyarrow"
        )
        pieces.append(bucketed_map_groups(partials, fn))
    out = pieces[0]
    for p in pieces[1:]:
        out = out.union(p)
    return out


def choose_fill_path(
    bounds: dict, cfg: FillConfig, *, crossover_buckets: int = 2_000_000
) -> str:
    """Pick the fill execution path from the observed per-source spans.

    Measured crossover (stages/distributed_model.py docstring): the salted /
    chunked paths pay two extra small shuffles, so they only win when a
    single source's series is long enough to bound the critical path.
    Returns "salted" when the longest series exceeds ``crossover_buckets``
    AND the config supports chunking (bounded kernels need max_gap), else
    "plain"."""
    if not bounds:
        return "plain"
    max_len = max((hi - lo) // 60 + 1 for lo, hi in bounds.values())
    if max_len <= crossover_buckets:
        return "plain"
    if cfg.strategy == "model":
        return "salted"
    if cfg.strategy in ("locf", "linear", "spline"):
        return "salted" if cfg.max_gap is not None else "plain"
    return "plain"


def rollup_tiers_auto(
    input_path: "str | Dataset",
    *,
    fill: FillConfig | None = None,
    tiers: tuple[str, ...] = ("1m", "1h", "1d"),
    retention: RetentionConfig | None = None,
    check_tokens: bool = True,
    crossover_buckets: int = 2_000_000,
    salt_span: int = 86400 * 30,
) -> "Dataset":
    """Rollup with automatic per-source vs salted-chunk path selection: the
    partials are aggregated once, source spans are measured from them, and
    :func:`choose_fill_path` picks the cheaper execution (mega-series only
    pay the chunked path's extra shuffles when chunk parallelism wins)."""
    import ray

    from datafiller_ray.stages.salted_fill import source_bounds

    cfg = fill if fill is not None else FillConfig()
    partials = partial_aggregates(input_path, check_tokens=check_tokens)
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    partials = partials.repartition(max(16, 2 * cpus)).materialize()
    bounds = source_bounds(partials)
    path = choose_fill_path(bounds, cfg, crossover_buckets=crossover_buckets)
    if path == "salted":
        return rollup_tiers_salted(
            input_path, fill=cfg, tiers=tiers, retention=retention,
            check_tokens=check_tokens, salt_span=salt_span, _partials=partials,
        )
    fn = make_fill_group_fn(
        cfg, tiers=tiers, retention=retention, batch_format="pyarrow"
    )
    return bucketed_map_groups(partials, fn)


def parquet_write_options(schema: "pa.Schema") -> dict:
    """Parquet writer options for a table of ``schema``: when it holds an
    int64 ``bucket_ts``, that column is written ``DELTA_BINARY_PACKED`` and
    every other column keeps dictionary pages; otherwise ``{}`` (the
    writer's defaults), for example for blob rows.

    ``bucket_ts`` is a regular 60 s / 3600 s / 86400 s grid per source, so
    its deltas pack into a few bits, where dictionary pages store one
    8-byte value per distinct timestamp plus the codes. Snappy, column
    statistics (``retention._file_bounds`` prunes on them) and schema
    metadata stay the writer's defaults. Every writer of tier and partial
    files passes these options (``pq.write_table(t, path, **opts)`` or
    ``ParquetFileFormat().make_write_options(**opts)``), so a refresh,
    retention or compaction pass does not re-inflate a file."""
    import pyarrow as pa

    i = schema.get_field_index("bucket_ts")
    if i < 0 or schema.field(i).type != pa.int64():
        return {}
    return {
        "use_dictionary": [n for n in schema.names if n != "bucket_ts"],
        "column_encoding": {"bucket_ts": "DELTA_BINARY_PACKED"},
    }


@tasks.remote()
def _write_block(block, out_dir: str, basename: str) -> None:
    import pyarrow.dataset as pds
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(block).to_arrow()
    pds.write_dataset(
        t,
        out_dir,
        format="parquet",
        partitioning=["tier"],
        partitioning_flavor="hive",
        basename_template=basename,
        existing_data_behavior="overwrite_or_ignore",
        # the files hold every column but the ``tier`` partition column
        file_options=pds.ParquetFileFormat().make_write_options(
            **parquet_write_options(t.drop_columns(["tier"]).schema)
        ),
        use_threads=False,
    )


def write_tiers(tier_ds: "Dataset", out_dir: str) -> None:
    """Partitioned Parquet sink: one ``tier=<name>/`` directory per tier so
    a consumer (and a resumed run) can address tiers independently.

    One plain Ray task per non-empty block writes it with pyarrow's hive
    writer, as ``write_parquet(partition_cols=["tier"])`` lays it out, with
    :func:`parquet_write_options` (``bucket_ts`` delta-packed); no Ray Data
    executor starts for the write. File names carry a prefix
    unique to the call, so a second write into the same dir adds files, and
    a retried task rewrites its own. A lazy Dataset streams: each block's
    task starts as the block is produced. Returns once every write has
    settled; a write's error reaches the caller then. An empty Dataset
    writes nothing and makes no directory."""
    import uuid

    prefix = uuid.uuid4().hex
    refs = []
    for block, meta in tasks.block_pairs(tier_ds):
        if meta.num_rows != 0:
            name = f"{prefix}_{len(refs):06d}-{{i}}.parquet"
            refs.append(_write_block.remote(block, out_dir, name))
    if refs:
        ray.wait(refs, num_returns=len(refs))
        ray.get(refs)
