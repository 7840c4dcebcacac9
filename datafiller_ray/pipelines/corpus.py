"""Corpus-level sampling and statistics over the documents table.

Training-data pipeline operators that complement the dedup/quality family
in ``pipelines/text.py``:

- ``stratified_sample`` — deterministic per-stratum hash-threshold
  sampling: keep a document iff ``splitmix64(doc_id ^ mix(seed)) <
  rate * 2^64``. Pure ``map_batches`` filter — no shuffle, no RNG state,
  reproducible across runs/cluster sizes, and the sample of a smaller rate
  is a SUBSET of a larger rate's sample (nested samples for ablations).
- ``vocab_topk`` — global token vocabulary with counts, top-k by
  (count desc, token asc): per-batch partial counts (np.unique over the
  flattened token stream) -> one token-keyed groupby of the SMALL partial
  rows -> per-block partial top-k -> single final combine over <= k*blocks
  rows. The heavy text never shuffles; only (token, count) partials do.
- ``source_quantiles`` — exact per-source quantiles (linear interpolation,
  the SQL ``quantile_cont`` rule) of a numeric column via per-group
  ``map_groups``; strata are sources, so the per-key-fits-in-a-task
  contract of this engine applies.

Tokenization reuses the BPE-ish pre-tokenizer contract of
``pipelines/text.TokenCounts`` (``\\w+|[^\\w\\s]`` with ``re.ASCII``) so
DuckDB ``regexp_extract_all`` oracles agree token-for-token.
"""

from __future__ import annotations

import logging
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.exceptions import ObjectStoreFullError, OutOfMemoryError

from datafiller_ray.config import EngineValueError
from datafiller_ray.functions.hashing import splitmix64

_log = logging.getLogger(__name__)

__all__ = [
    "stratified_sample",
    "sample_fixed_k",
    "sample_threshold",
    "vocab_topk",
    "source_quantiles",
    "global_quantiles",
    "column_histogram",
    "budget_sample",
    "token_moments",
    "approx_quantiles",
    "token_diversity",
    "split_assign",
    "split_thresholds",
    "vocab_growth",
]

_U64 = 1 << 64


def sample_threshold(rate: float) -> int:
    """Keep-threshold for a sampling rate: ``h < floor(rate * 2^64)``.

    Computed once in Python and embedded as a literal in both the engine
    filter and the SQL oracle, so float representation can never diverge
    between the two sides."""
    if not 0.0 <= rate <= 1.0:
        raise EngineValueError("sampling rate must be between 0 and 1")
    return min(int(rate * _U64), _U64 - 1) if rate < 1.0 else _U64


def stratified_sample(
    docs,
    *,
    rate: "float | None" = None,
    rates: "dict[str, float] | None" = None,
    seed: int = 0,
    id_col: str = "doc_id",
    strata_col: str = "source",
):
    """Deterministic hash-threshold sample, optionally stratified.

    ``rate`` is the default keep-rate; ``rates`` overrides it per stratum
    (e.g. ``{"web": 0.1, "wiki": 1.0}`` — downsample the big crawl, keep
    all curated text). A document is kept iff
    ``splitmix64(doc_id ^ splitmix64(seed)) < rate * 2^64`` — seeded,
    reproducible, shuffle-free, and nested across rates.
    """
    if rate is None and not rates:
        raise EngineValueError("provide rate= and/or rates=")
    default_thr = sample_threshold(rate if rate is not None else 0.0)
    thr_map = {s: sample_threshold(r) for s, r in (rates or {}).items()}
    seed_mix = int(splitmix64(np.array([seed], dtype=np.uint64))[0])

    def keep(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = splitmix64(ids ^ np.uint64(seed_mix))
        if thr_map:
            src = np.asarray(t[strata_col].to_numpy(zero_copy_only=False))
            mask = _exact_mask(h, src, thr_map, default_thr)
        else:
            mask = _exact_mask(h, None, {}, default_thr)
        return t.filter(pa.array(mask))

    return docs.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def _exact_mask(h: np.ndarray, src, thr_map: dict, default_thr: int) -> np.ndarray:
    """Exact uint64 ``h < threshold`` comparison (object-free, vectorized):
    thresholds <= 2^64 so compare in uint64 with the rate-1.0 full-keep
    special case handled explicitly."""
    if src is None:
        if default_thr >= _U64:
            return np.ones(h.size, dtype=bool)
        return h < np.uint64(default_thr)
    mask = np.empty(h.size, dtype=bool)
    if default_thr >= _U64:
        mask[:] = True
    else:
        mask[:] = h < np.uint64(default_thr)
    for s, tv in thr_map.items():
        sel = src == s
        mask[sel] = True if tv >= _U64 else h[sel] < np.uint64(tv)
    return mask


def sample_fixed_k(
    docs,
    *,
    k: int,
    seed: int = 0,
    id_col: str = "doc_id",
    strata_col: str = "source",
):
    """Exactly-k-per-stratum deterministic sample: the k documents with the
    SMALLEST ``splitmix64(doc_id ^ mix(seed))`` hashes per stratum (ties
    broken by id — hashes of distinct ids are 64-bit, so ties are
    theoretical). A distributed bottom-k: each batch prunes to its local
    per-stratum bottom-k, so at most ``k * strata * blocks`` pruned rows
    enter the one small groupby — the full table never shuffles. Strata
    with fewer than k documents keep all of them.

    Unlike :func:`stratified_sample` (rate-based, size varies with the
    corpus) this pins the exact output size per stratum — the shape needed
    for eval-set carving and per-source budget caps.
    """
    if k <= 0:
        raise EngineValueError("k must be positive")
    seed_mix = int(splitmix64(np.array([seed], dtype=np.uint64))[0])

    def bottom_k_batch(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = splitmix64(ids ^ np.uint64(seed_mix))
        t = t.append_column("_h", pa.array(h.astype(np.int64)))
        if t.num_rows <= k:
            return t
        src = np.asarray(t[strata_col].to_numpy(zero_copy_only=False))
        order = np.lexsort((ids, h, src))  # stratum, then hash, then id
        src_sorted = src[order]
        starts = np.flatnonzero(np.r_[True, src_sorted[1:] != src_sorted[:-1]])
        bounds = np.r_[starts, src_sorted.size]
        keep = np.concatenate(
            [order[s : min(s + k, e)] for s, e in zip(bounds[:-1], bounds[1:])]
        )
        return t.take(pa.array(np.sort(keep), type=pa.int64()))

    def final_k(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        h = g["_h"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = g[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        keep = np.lexsort((ids, h))[:k]
        out = g.take(pa.array(np.sort(keep), type=pa.int64()))
        return out.drop_columns(["_h"])

    pruned = docs.map_batches(bottom_k_batch, batch_format="pyarrow")
    return pruned.groupby(strata_col).map_groups(final_k, batch_format="pyarrow")


class _VocabPartial:
    """Per-batch partial token counts (actor: regex compiled once).

    The flattened token stream of a batch collapses to (token, count)
    partial rows via np.unique — the only thing that leaves the task."""

    def __init__(self) -> None:
        self.bpe = re.compile(r"\w+|[^\w\s]", re.ASCII)

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        toks: "list[str]" = []
        findall = self.bpe.findall
        for s in texts:
            if s:
                toks.extend(findall(s))
        if not toks:
            return pa.table(
                {"tok": pa.array([], type=pa.string()),
                 "cnt": pa.array([], type=pa.int64())}
            )
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.table(
            {"tok": pa.array(uniq.tolist(), type=pa.string()),
             "cnt": pa.array(counts.astype(np.int64))}
        )


def _topk_block(k: int):
    def fn(t: pa.Table) -> pa.Table:
        if t.num_rows <= k:
            return t
        toks = np.asarray(t["tok"].to_pylist(), dtype=object)
        cnts = t["cnt"].to_numpy(zero_copy_only=False)
        order = np.lexsort((toks, -cnts))[:k]
        return t.take(pa.array(np.sort(order), type=pa.int64()))

    return fn


def vocab_topk(docs, *, k: int = 100):
    """Global top-k vocabulary by (count desc, token asc) — deterministic
    ties. Partial counts per batch -> groupby(tok) sum (small rows only) ->
    per-block top-k -> one final combine over <= k * n_blocks rows."""
    if k <= 0:
        raise EngineValueError("k must be positive")
    from datafiller_ray.stages.exchange import grouped_sum

    partial = docs.map_batches(
        _VocabPartial, batch_format="pyarrow", concurrency=(1, 8)
    )
    counts = grouped_sum(partial, "tok", "cnt")
    pruned = counts.map_batches(_topk_block(k), batch_format="pyarrow")
    return pruned.repartition(1).map_batches(_topk_block(k), batch_format="pyarrow")


def source_quantiles(
    docs,
    *,
    value_col: str = "n_chars",
    qs: "tuple[float, ...]" = (0.25, 0.5, 0.75, 0.9, 0.99),
    strata_col: str = "source",
):
    """Exact per-source quantiles with SQL ``quantile_cont`` linear
    interpolation (``pos = q*(n-1)``, linear between the two bracketing
    order statistics). DuckDB evaluates the interpolation in a different
    float op order (observed ~1e-13 relative drift), so both sides round
    through the engine's shared 6-decimal floor-half-up — the same
    absorber every float-emitting query uses.

    Output: one row per source with ``q_<pct>`` double columns.
    """
    names = [f"q{str(q).replace('.', '_')}" for q in qs]

    def per_source(g):
        import pandas as pd

        x = np.sort(g[value_col].to_numpy(np.float64))
        n = x.size
        row: "dict[str, object]" = {strata_col: g[strata_col].iloc[0]}
        for q, name in zip(qs, names):
            pos = q * (n - 1)
            lo = int(np.floor(pos))
            hi = min(lo + 1, n - 1)
            frac = pos - lo
            v = x[lo] + (x[hi] - x[lo]) * frac
            row[name] = float(np.floor(v * 1e6 + 0.5) / 1e6)
        return pd.DataFrame([row])

    slim = docs.map_batches(
        lambda t: t.select([strata_col, value_col]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return slim.groupby(strata_col).map_groups(per_source, batch_format="pandas")


def global_quantiles(
    docs,
    *,
    value_col: str = "n_chars",
    qs: "tuple[float, ...]" = (0.25, 0.5, 0.75, 0.9, 0.99),
):
    """EXACT whole-dataset quantiles of a bounded-cardinality numeric
    column, computed distributed: per-batch ``np.unique`` collapses values
    to (value, count) partials, one value-keyed groupby merges them (the
    shuffle moves at most |distinct values| rows per block, NOT the data),
    and a single tiny reduce walks the merged histogram's cumulative counts
    to evaluate the ``quantile_cont`` interpolation. This is the 100-TB
    shape for exact quantiles whenever the value domain is bounded (lengths,
    counts, scores quantized to fixed decimals); for unbounded doubles use
    :func:`source_quantiles` per group or a sketch.

    Output: ONE row with ``q_<pct>`` double columns (6-decimal
    floor-half-up, same absorber as :func:`source_quantiles`).
    """
    names = [f"q{str(q).replace('.', '_')}" for q in qs]

    def partial(t: pa.Table) -> pa.Table:
        vals = t[value_col].to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(vals, return_counts=True)
        return pa.table(
            {"value": pa.array(uniq), "cnt": pa.array(cnt.astype(np.int64))}
        )

    merged = (
        docs.map_batches(
            lambda t: t.select([value_col]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("value")
        .sum("cnt")
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.combine_chunks().rename_columns(["value", "cnt"])
        if t.num_rows == 0:
            return pa.table({n: pa.array([], type=pa.float64()) for n in names})
        vals = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        cs = np.cumsum(t["cnt"].to_numpy(zero_copy_only=False)[order])
        n = int(cs[-1])

        def element(j: int) -> float:
            return float(vals[np.searchsorted(cs, j, side="right")])

        row = {}
        for q, name in zip(qs, names):
            pos = q * (n - 1)
            lo = int(np.floor(pos))
            hi = min(lo + 1, n - 1)
            frac = pos - lo
            v = element(lo) + (element(hi) - element(lo)) * frac
            row[name] = [float(np.floor(v * 1e6 + 0.5) / 1e6)]
        return pa.table(row)

    return merged.repartition(1).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )


def column_histogram(
    ds,
    *,
    key_col: str = "source",
    value_col: str = "n_tok",
    bin_width: int = 64,
):
    """Per-key histogram of a numeric column with fixed-width bins
    (``bin = value // bin_width``) — the token-length-distribution stat of
    a training-data pipeline, computed as partial (key, bin) counts per
    batch (pyarrow ``group_by``) merged by one small keyed groupby. The
    shuffle carries at most |keys| x |occupied bins| rows per block, never
    the data.

    Output: one row per (key, bin) with ``bin_lo = bin * bin_width`` and
    the count ``n_rows``.
    """
    if bin_width < 1:
        raise EngineValueError(f"bin_width must be >= 1, got {bin_width}")

    def partial(t: pa.Table) -> pa.Table:
        vals = t[value_col].to_numpy(zero_copy_only=False)
        b = (vals // bin_width).astype(np.int64)
        proj = pa.table(
            {key_col: t[key_col], "bin": pa.array(b, pa.int64())}
        )
        agg = proj.group_by([key_col, "bin"]).aggregate([([], "count_all")])
        return agg.rename_columns([key_col, "bin", "cnt"])

    merged = (
        ds.map_batches(
            lambda t: t.select([key_col, value_col]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby([key_col, "bin"])
        .sum("cnt")
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        cnt_col = [c for c in t.column_names if c.startswith("sum")][0]
        bins = t["bin"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                key_col: t[key_col],
                "bin": t["bin"],
                "bin_lo": pa.array(bins * bin_width, pa.int64()),
                "n_rows": pc.cast(t[cnt_col], pa.int64()),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


def budget_sample(
    docs,
    *,
    budget: "int | None" = None,
    budgets: "dict[str, int] | None" = None,
    weight_col: str = "n_chars",
    seed: int = 0,
    id_col: str = "doc_id",
    strata_col: str = "source",
):
    """Deterministic mixture sampling to per-stratum WEIGHT budgets — the
    data-mixing primitive ("x billion tokens of web, y of wiki"): per
    stratum, documents are taken in splitmix64-hash order (seeded,
    reproducible, cluster-size-independent) while the running
    ``weight_col`` total stays <= the stratum's budget.

    ``budget`` is the default; ``budgets`` overrides per stratum. The
    running total is int64-exact, so the kept set is exactly the hash-order
    prefix a SQL ``SUM() OVER (ORDER BY v, id)`` window reproduces. Rows
    shuffled per stratum are the 24-byte (id, weight, hash) projection;
    the greedy prefix needs its stratum's rows ordered in one place, the
    same per-key-fits-in-a-task contract as :func:`source_quantiles`
    (a stratum beyond task memory wants pre-thinning with
    :func:`stratified_sample` first)."""
    import pandas as pd

    if budget is None and not budgets:
        raise EngineValueError("provide budget= and/or budgets=")
    seed_mix = int(splitmix64(np.array([seed], dtype=np.uint64))[0])
    bmap = dict(budgets or {})

    def add_hash(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = splitmix64(ids ^ np.uint64(seed_mix)).view(np.int64)
        return t.select([id_col, strata_col, weight_col]).append_column(
            "v", pa.array(h, pa.int64())
        )

    def take_prefix(g: pd.DataFrame) -> pd.DataFrame:
        src = g[strata_col].iloc[0]
        b = bmap.get(src, budget)
        if b is None:
            return g.drop(columns=["v"]).iloc[0:0]
        # uint64 hash order == int64-view order offset by the sign split;
        # sort on the unsigned value to match the SQL UBIGINT ordering
        v = g["v"].to_numpy(np.int64).view(np.uint64)
        ids = g[id_col].to_numpy()
        w = g[weight_col].to_numpy(np.int64)
        order = np.lexsort((ids, v))
        run = np.cumsum(w[order])
        keep = order[run <= b]
        out = g.iloc[keep].drop(columns=["v"])
        return out.reset_index(drop=True)

    return (
        docs.map_batches(add_hash, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(strata_col)
        .map_groups(take_prefix, batch_format="pandas")
    )


def temperature_sample(
    docs,
    *,
    total_budget: int,
    alpha: float = 0.5,
    weight_col: str = "n_chars",
    seed: int = 0,
    id_col: str = "doc_id",
    strata_col: str = "source",
):
    """Temperature-scaled mixture sampling (the mT5/XLM-R multilingual
    rule): stratum budgets are allocated proportional to ``n_s^alpha`` of
    each stratum's total weight ``n_s``, flattening the head so low-resource
    strata are over-represented, then the kept set per stratum is
    :func:`budget_sample`'s deterministic hash-order prefix.

    The allocation is INTEGER-exact for reproducibility across engines:
    ``s_s = floor(n_s ** alpha)`` and ``b_s = total_budget * s_s // sum(s)``
    — for ``alpha=0.5`` (default) the power is IEEE ``sqrt``, which is
    correctly rounded everywhere, so a SQL ``FLOOR(SQRT(...))`` oracle
    reproduces the budgets bit-for-bit (for n_s < 2**51); ``alpha=1`` is the
    identity (plain proportional). Other alphas are deterministic within
    this engine but ``pow`` may differ by an ulp across libms.

    Physical plan: one tiny per-stratum weight census (per-batch pyarrow
    partials through ``grouped_sum``; only |strata| rows reach the driver),
    then the single 24-byte-projection exchange of :func:`budget_sample`.
    """
    from datafiller_ray.stages.exchange import grouped_sum

    if total_budget < 0:
        raise EngineValueError("total_budget must be >= 0")
    if not (0.0 < alpha <= 1.0):
        raise EngineValueError(f"alpha must be in (0, 1], got {alpha}")

    def proj(t: pa.Table) -> pa.Table:
        ones = t[weight_col].cast(pa.int64())
        return pa.table({strata_col: t[strata_col], "_w": ones})

    totals = grouped_sum(
        docs.map_batches(proj, batch_format="pyarrow", zero_copy_batch=True),
        strata_col,
        "_w",
        n_buckets=16,
    ).take_all()  # |strata| rows only
    n = {r[strata_col]: int(r["_w"]) for r in totals}
    if alpha == 0.5:
        s = {k: int(np.floor(np.sqrt(np.float64(v)))) for k, v in n.items()}
    elif alpha == 1.0:
        s = dict(n)
    else:
        s = {k: int(np.floor(np.float64(v) ** alpha)) for k, v in n.items()}
    T = sum(s.values())
    if T == 0:
        raise EngineValueError("all strata have zero weight")
    budgets = {k: (total_budget * v) // T for k, v in s.items()}
    return budget_sample(
        docs,
        budgets=budgets,
        weight_col=weight_col,
        seed=seed,
        id_col=id_col,
        strata_col=strata_col,
    )


# -- token bigram statistics over the pre-tokenized sequence table ----------


def _bigram_partial(vocab_size: int):
    def fn(t: pa.Table) -> pa.Table:
        arr = t["tokens"].combine_chunks()
        lens = pc.list_value_length(arr).to_numpy(zero_copy_only=False)
        flat = np.asarray(pc.list_flatten(arr)).astype(np.int64)
        total = flat.size
        if total < 2:
            return pa.table(
                {"pair": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())}
            )
        key = flat[:-1] * vocab_size + flat[1:]
        # a pair is invalid where position p+1 starts a new row: p = end-1
        # for every row boundary except the last
        mask = np.ones(total - 1, dtype=bool)
        ends = np.cumsum(lens.astype(np.int64))[:-1] - 1
        ends = ends[(ends >= 0) & (ends < total - 1)]
        mask[ends] = False
        uniq, counts = np.unique(key[mask], return_counts=True)
        return pa.table(
            {"pair": pa.array(uniq, pa.int64()),
             "cnt": pa.array(counts.astype(np.int64))}
        )

    return fn


def _topk_pairs_block(k: int):
    def fn(t: pa.Table) -> pa.Table:
        if t.num_rows <= k:
            return t
        pairs = t["pair"].to_numpy(zero_copy_only=False)
        cnts = t["cnt"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pairs, -cnts))[:k]
        return t.take(pa.array(np.sort(order), type=pa.int64()))

    return fn


def bigram_topk(ds, *, k: int = 100, vocab_size: int = 50_000):
    """Global top-k adjacent token-id pairs by (count desc, pair asc).

    The language-model n-gram statistic over the pre-tokenized sequence
    table: pairs within each row's token array (never across rows). Same
    plan as ``vocab_topk`` — vectorized per-batch partial counts over the
    flattened Arrow list values (zero row loop), one groupby of the SMALL
    (pair, count) partials, per-block top-k prune, one final combine —
    so the token payload itself never shuffles. Pair key is
    ``a * vocab_size + b`` (int64-exact while ``vocab_size**2 < 2^63``),
    decomposed back to ``(tok_a, tok_b)`` on output.
    """
    if k <= 0:
        raise EngineValueError("k must be positive")
    if vocab_size <= 0 or vocab_size * vocab_size >= 1 << 63:
        raise EngineValueError(f"vocab_size out of int64-exact range: {vocab_size}")
    from datafiller_ray.stages.exchange import grouped_sum

    partial = ds.map_batches(
        _bigram_partial(vocab_size), batch_format="pyarrow", zero_copy_batch=True
    )
    counts = grouped_sum(partial, "pair", "cnt")
    pruned = counts.map_batches(_topk_pairs_block(k), batch_format="pyarrow")
    top = pruned.repartition(1).map_batches(_topk_pairs_block(k), batch_format="pyarrow")

    def decompose(t: pa.Table) -> pa.Table:
        pairs = t["pair"].to_numpy(zero_copy_only=False)
        cnts = t["cnt"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pairs, -cnts))  # emit in rank order
        return pa.table(
            {
                "tok_a": pa.array(pairs[order] // vocab_size, pa.int64()),
                "tok_b": pa.array(pairs[order] % vocab_size, pa.int64()),
                "cnt": pa.array(cnts[order], pa.int64()),
            }
        )

    return top.map_batches(decompose, batch_format="pyarrow")


def skew_report(ds, *, key_col: str = "source", qs: "tuple[float, ...]" = (0.5, 0.9, 0.99)):
    """Partition-skew diagnostics for a prospective shuffle key — the
    pre-flight check this engine's own salting/bucketing knobs are sized
    with (``salted_equi_join.max_group_rows``, ``FillConfig`` salting,
    bucket counts): per-key row counts reduce to ONE summary row with

    - ``n_keys``, ``total_rows``, ``max_rows`` (int64-exact),
    - ``q*`` quantiles of the per-key counts (the shared quantile_cont
      rule + 6-dec floor-half-up absorber),
    - ``skew_ratio`` = max/mean as the single pinned expression
      ``round6((max_rows * n_keys) / total_rows)`` (integer numerator), and
    - ``top_key`` (count desc, key asc tie-break).

    Physical plan: per-batch pyarrow count partials -> one small
    ``grouped_sum`` exchange (16-byte rows, |keys| total) -> single-block
    summary. The table itself never shuffles.
    """
    import pandas as pd

    from datafiller_ray.stages.exchange import grouped_sum

    if not qs:
        raise EngineValueError("qs must be non-empty")
    names = [f"q{str(q).replace('.', '_')}" for q in qs]

    def partial(t: pa.Table) -> pa.Table:
        ones = pa.table(
            {key_col: t[key_col], "_n": pa.array(np.ones(t.num_rows, np.int64))}
        )
        g = ones.group_by(key_col).aggregate([("_n", "sum")])
        return pa.table({key_col: g[key_col], "cnt": g["_n_sum"].cast(pa.int64())})

    counts = grouped_sum(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        key_col,
        "cnt",
        n_buckets=16,
    )

    def summarize(b: pd.DataFrame) -> pd.DataFrame:
        cnt = b["cnt"].to_numpy(np.int64)
        if cnt.size == 0:
            return pd.DataFrame(
                {
                    "n_keys": pd.Series([], dtype=np.int64),
                    "total_rows": pd.Series([], dtype=np.int64),
                    "max_rows": pd.Series([], dtype=np.int64),
                    **{n: pd.Series([], dtype=np.float64) for n in names},
                    "skew_ratio": pd.Series([], dtype=np.float64),
                    "top_key": pd.Series([], dtype=object),
                }
            )
        # top key = (count desc, key asc, nulls last): pandas masks NA
        # before sorting, so a null key (legitimate for a skew probe)
        # cannot crash the comparison the way a raw lexsort would
        top = b.sort_values(
            ["cnt", key_col],
            ascending=[False, True],
            na_position="last",
            kind="mergesort",
        )[key_col].iloc[0]
        x = np.sort(cnt.astype(np.float64))
        row = {
            "n_keys": np.int64(cnt.size),
            "total_rows": np.int64(cnt.sum()),
            "max_rows": np.int64(cnt.max()),
        }
        for q, name in zip(qs, names):
            pos = q * (cnt.size - 1)
            lo = int(np.floor(pos))
            hi = min(lo + 1, cnt.size - 1)
            v = x[lo] + (x[hi] - x[lo]) * (pos - lo)
            row[name] = float(np.floor(v * 1e6 + 0.5) / 1e6)
        row["skew_ratio"] = float(
            np.floor(
                float(row["max_rows"] * row["n_keys"]) / float(row["total_rows"])
                * 1e6 + 0.5
            ) / 1e6
        )
        row["top_key"] = top
        return pd.DataFrame([row])

    return counts.repartition(1).map_batches(summarize, batch_format="pandas")


def pmi_topk(documents, *, k: int = 100, min_count: int = 5):
    """Global top-k word collocations by pointwise mutual information —
    ``pmi(a,b) = ln( p(ab) / (p(a) p(b)) )`` with ``p(ab) = c_ab / P``
    (P = total adjacent word pairs) and ``p(w) = c_w / T`` (T = total
    words); ``min_count`` drops the unstable low-count tail as is standard
    for PMI. Words are whitespace runs via the shared
    :func:`~datafiller_ray.pipelines.hygiene.word_grams` kernel (oracle
    parity: ``regexp_extract_all(text, '\\S+')``).

    Physical plan — the text never shuffles:

    1. ONE pass over the text computes per-batch unigram AND bigram counts
       (side-tagged rows through a single ``grouped_sum`` exchange; the
       empty-string sentinel row carries the batch pair total, which
       ``str.split`` can never produce as a word);
    2. the vocabulary-bounded unigram table (plus totals) is gathered once
       and broadcast via ``ray.put`` — same contract as
       :func:`~datafiller_ray.pipelines.hygiene.unigram_logprob`;
    3. surviving bigrams score vectorized against the broadcast table;
       per-block partial top-k then one final combine.

    Exactness: counts are int64-exact; the float appears only in the
    single pinned expression ``ln(((cnt*T)*T) / ((P*ca)*cb))`` rounded
    half-even to 6 decimals on both sides (a cross-libm ulp in ``ln``
    cannot survive the rounding except on measure-zero boundaries).
    Output (wa, wb, cnt, pmi) in (pmi desc, wa asc, wb asc) rank order.
    """
    import pandas as pd
    import ray

    from datafiller_ray.pipelines.hygiene import word_grams
    from datafiller_ray.stages.exchange import grouped_sum

    if k <= 0:
        raise EngineValueError("k must be positive")
    if min_count < 1:
        raise EngineValueError("min_count must be >= 1")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        _, w1 = word_grams(batch["text"], 1)
        _, w2 = word_grams(batch["text"], 2)
        u = pd.Series(w1, dtype=object).value_counts()
        b = pd.Series(w2, dtype=object).value_counts()
        g = np.r_[u.index.to_numpy(object), np.array([""], object),
                  b.index.to_numpy(object)]
        cnt = np.r_[u.to_numpy(np.int64), [np.int64(len(w2))],
                    b.to_numpy(np.int64)]
        side = np.r_[np.zeros(len(u) + 1, np.int64), np.ones(len(b), np.int64)]
        return pd.DataFrame({"g": g, "side": side, "cnt": cnt})

    def prune(b):
        # drop the sub-min_count bigram tail BEFORE materializing: on web
        # text the hapax bigrams dominate the distinct-gram table, and
        # nothing downstream can resurrect them
        return b[(b["side"] == 0) | (b["cnt"] >= min_count)]

    counts = (
        grouped_sum(
            documents.map_batches(partial, batch_format="pandas"),
            ["g", "side"],
            "cnt",
            n_buckets=32,
        )
        .map_batches(prune, batch_format="pandas")
        .materialize()
    )  # vocab + surviving-bigram rows only; the text pass and its
    # exchange run ONCE for both the census and the scoring stage

    uni_rows = counts.map_batches(
        lambda b: b[b["side"] == 0], batch_format="pandas"
    ).take_all()  # vocabulary-bounded (+1 sentinel row)
    P = 0
    uni_words, uni_counts = [], []
    for r in uni_rows:
        if r["g"] == "":
            P = int(r["cnt"])
        else:
            uni_words.append(r["g"])
            uni_counts.append(int(r["cnt"]))
    T = int(sum(uni_counts))
    empty = pd.DataFrame(
        {
            "wa": pd.Series([], dtype=object),
            "wb": pd.Series([], dtype=object),
            "cnt": pd.Series([], dtype=np.int64),
            "pmi": pd.Series([], dtype=np.float64),
        }
    )
    if P == 0 or T == 0:
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "wa": pa.array([], pa.string()),
                    "wb": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                    "pmi": pa.array([], pa.float64()),
                }
            )
        )
    uni_ref = ray.put(pd.Series(np.asarray(uni_counts, np.float64), index=uni_words))

    class Score:
        def __init__(self, uni_ref, T, P):
            self.uni = ray.get(uni_ref)
            self.T = float(T)
            self.P = float(P)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch[(batch["side"] == 1) & (batch["cnt"] >= min_count)]
            if len(batch) == 0:
                return empty
            parts = batch["g"].str.partition(" ")
            wa = parts[0].to_numpy(object)
            wb = parts[2].to_numpy(object)
            cnts = batch["cnt"].to_numpy(np.int64)
            ca = self.uni.reindex(wa).to_numpy(np.float64)
            cb = self.uni.reindex(wb).to_numpy(np.float64)
            num = (cnts.astype(np.float64) * self.T) * self.T
            den = (self.P * ca) * cb
            pmi = np.round(np.log(num / den), 6)
            return pd.DataFrame({"wa": wa, "wb": wb, "cnt": cnts, "pmi": pmi})

    def topk_block(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) <= k:
            return b
        return b.sort_values(
            ["pmi", "wa", "wb"], ascending=[False, True, True], kind="mergesort"
        ).head(k)

    scored = counts.map_batches(
        Score, fn_constructor_args=(uni_ref, T, P), batch_format="pandas",
        concurrency=(1, 8),
    )
    top = (
        scored.map_batches(topk_block, batch_format="pandas")
        .repartition(1)
        .map_batches(topk_block, batch_format="pandas")
    )

    def rank_order(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(
            ["pmi", "wa", "wb"], ascending=[False, True, True], kind="mergesort"
        ).reset_index(drop=True)

    return top.map_batches(rank_order, batch_format="pandas")


# -- deterministic global training shuffle ----------------------------------


def shuffle_manifest(
    docs,
    *,
    n_shards: int = 64,
    seed: int = 0,
    id_col: str = "doc_id",
    carry_cols: "tuple[str, ...]" = ("source",),
):
    """Deterministic global shuffle manifest WITHOUT a global sort.

    Training wants every epoch's read order decorrelated from ingest
    order. Sorting 10^12 rows by a random key is an all-to-all sort of
    everything; this operator gets the same statistical guarantee from
    pure hash arithmetic: ``h = splitmix64(id ^ mix(seed))`` assigns each
    row to ``shard = h % n_shards`` (a map-side partition decision, no
    exchange of anything but the manifest projection), and each shard
    orders its rows by ``(h, id)`` independently. The result is a
    reproducible permutation manifest ``(shard, pos, id, carry...)``;
    a trainer streams shards in any order. Different ``seed`` -> a
    different permutation, so epochs reshuffle without touching payloads.

    Scale: the shuffle moves only the manifest columns (id + carry), one
    groupby on the int shard key; per-shard rank is a local argsort.
    """
    if n_shards < 1:
        raise EngineValueError(f"n_shards must be >= 1, got {n_shards}")
    seed_mix = int(splitmix64(np.array([seed], dtype=np.uint64))[0])
    cols = [id_col, *carry_cols]

    def add_keys(t: pa.Table) -> pa.Table:
        t = t.select(cols)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = splitmix64(ids ^ np.uint64(seed_mix))
        t = t.append_column("_h", pa.array(h, pa.uint64()))
        return t.append_column(
            "shard", pa.array((h % np.uint64(n_shards)).astype(np.int64), pa.int64())
        )

    keyed = docs.map_batches(add_keys, batch_format="pyarrow", zero_copy_batch=True)

    def rank_shard(g: pa.Table) -> pa.Table:
        h = g["_h"].to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, h))
        g = g.take(pa.array(order, type=pa.int64())).drop_columns(["_h"])
        return g.append_column(
            "pos", pa.array(np.arange(g.num_rows, dtype=np.int64))
        ).select(["shard", "pos", *cols])

    return keyed.groupby("shard").map_groups(rank_shard, batch_format="pyarrow")


# -- exact mergeable moment statistics ---------------------------------------


def token_moments(ds, *, key_col: str = "source", value_col: str = "n_tok"):
    """Exact per-key mean/variance/skewness/kurtosis of an integer column
    from mergeable power sums — the streaming-moments primitive: each batch
    contributes (n, Σx, Σx², Σx³, Σx⁴) partials (one row per key per
    block), a single small keyed groupby merges them, and the shape
    statistics come out of four PINNED float expressions over exact
    integers:

        m2num = n·s2 − s1²                  (population variance · n²)
        var   = double(m2num) / double(n²)
        skew  = double(num3) / double(m2num)**1.5
                 with num3 = n²·s3 − 3n·s2·s1 + 2·s1³
        kurt  = double(num4) / (double(m2num) · double(m2num)) − 3
                 with num4 = n³·s4 − 4n²·s3·s1 + 6n·s2·s1² − 3·s1⁴

    (the n-powers cancel, so each statistic is a single division of exact
    integers — no catastrophic cancellation in floats). Partials stay in
    int64 (safe per batch for values ≤ ~50k); the FINAL combine promotes
    to unbounded Python ints, which a SQL oracle mirrors with HUGEINT.
    Keys with n < 2 or zero variance report var 0 and NaN-free zeros for
    skew/kurt are OMITTED — callers get only well-defined shapes.

    Output: one row per key — (key, n_rows, sum_tok, mean, var, skew,
    kurt), floats through the engine-wide 6-decimal floor-half-up.
    """
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if v.size and int(v.size) * int(abs(v).max()) ** 4 >= 1 << 63:
            # per-BATCH x^4 sums would wrap int64 — route this block through
            # exact Python ints (slow path; never hit for token-length-like
            # values, where max^4 * batch_size is ~2^60)
            src = np.asarray(t[key_col].to_numpy(zero_copy_only=False))
            rows: "dict[object, list[int]]" = {}
            for s, x in zip(src, v.tolist()):
                acc = rows.setdefault(s, [0, 0, 0, 0, 0])
                acc[0] += 1
                acc[1] += x
                acc[2] += x * x
                acc[3] += x * x * x
                acc[4] += x * x * x * x
            for acc in rows.values():
                if any(a >= 1 << 63 for a in acc):
                    raise EngineValueError(
                        f"{value_col} power sums exceed int64 within one "
                        "batch; reduce batch size or rescale the column"
                    )
            return pa.table(
                {
                    key_col: pa.array(list(rows), pa.string()),
                    "n": pa.array([a[0] for a in rows.values()], pa.int64()),
                    "s1": pa.array([a[1] for a in rows.values()], pa.int64()),
                    "s2": pa.array([a[2] for a in rows.values()], pa.int64()),
                    "s3": pa.array([a[3] for a in rows.values()], pa.int64()),
                    "s4": pa.array([a[4] for a in rows.values()], pa.int64()),
                }
            )
        df = pd.DataFrame(
            {
                key_col: np.asarray(t[key_col].to_numpy(zero_copy_only=False)),
                "n": np.ones(v.size, dtype=np.int64),
                "s1": v,
                "s2": v * v,
                "s3": v * v * v,
                "s4": v * v * v * v,
            }
        )
        agg = df.groupby(key_col, sort=False, as_index=False).sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        key = g[key_col].iloc[0]
        # unbounded Python ints from here on: per-key totals of x^4 exceed
        # int64 around 10^6 rows of 4-digit values
        n = int(g["n"].sum())
        s1 = sum(int(x) for x in g["s1"])
        s2 = sum(int(x) for x in g["s2"])
        s3 = sum(int(x) for x in g["s3"])
        s4 = sum(int(x) for x in g["s4"])
        m2num = n * s2 - s1 * s1
        if n < 2 or m2num <= 0:
            return pd.DataFrame(
                {
                    key_col: pd.Series([], dtype="string"),
                    "n_rows": pd.Series([], dtype=np.int64),
                    "sum_tok": pd.Series([], dtype=np.int64),
                    "mean_tok": pd.Series([], dtype=np.float64),
                    "var_tok": pd.Series([], dtype=np.float64),
                    "skew_tok": pd.Series([], dtype=np.float64),
                    "kurt_tok": pd.Series([], dtype=np.float64),
                }
            )
        num3 = n * n * s3 - 3 * n * s2 * s1 + 2 * s1 ** 3
        num4 = (
            n ** 3 * s4 - 4 * n * n * s3 * s1 + 6 * n * s2 * s1 * s1 - 3 * s1 ** 4
        )
        r6 = lambda x: float(np.floor(x * 1e6 + 0.5) / 1e6)
        mean = float(s1) / float(n)
        var = float(m2num) / float(n * n)
        skew = float(num3) / float(m2num) ** 1.5
        kurt = float(num4) / (float(m2num) * float(m2num)) - 3.0
        return pd.DataFrame(
            {
                key_col: [key],
                "n_rows": np.array([n], np.int64),
                "sum_tok": np.array([s1], np.int64),
                "mean_tok": np.array([r6(mean)], np.float64),
                "var_tok": np.array([r6(var)], np.float64),
                "skew_tok": np.array([r6(skew)], np.float64),
                "kurt_tok": np.array([r6(kurt)], np.float64),
            }
        )

    partials = ds.map_batches(
        lambda t: t.select([key_col, value_col]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).map_batches(partial, batch_format="pyarrow")
    return partials.groupby(key_col).map_groups(finish, batch_format="pandas")


# -- approximate quantiles from a deterministic bottom-k hash sample ---------


def approx_quantiles(
    docs,
    *,
    k: int = 256,
    seed: int = 0,
    value_col: str = "n_chars",
    qs: "tuple[float, ...]" = (0.25, 0.5, 0.75, 0.9, 0.99),
    id_col: str = "doc_id",
    strata_col: str = "source",
):
    """Per-stratum approximate quantiles from the deterministic bottom-k
    hash sample — the UNBOUNDED-domain complement of
    :func:`global_quantiles` (whose exactness rides on bounded value
    cardinality): a splitmix64 bottom-k per stratum is an order-invariant,
    mergeable uniform sample (merging two bottom-k sets and re-taking the
    k smallest is associative and deterministic), so the sample — and
    therefore every quantile of it — is reproducible across cluster sizes,
    block layouts and retries, unlike reservoir sampling.

    Plan: :func:`sample_fixed_k` (per-batch bottom-k prune, one small
    groupby) then the ``quantile_cont`` interpolation of
    :func:`source_quantiles` on the ≤ k sampled rows per stratum.
    Error: standard order-statistics bounds for a uniform k-sample
    (~1/sqrt(k) quantile error), while only k·|strata| rows ever shuffle.
    """
    sample = sample_fixed_k(
        docs.map_batches(
            lambda t: t.select([id_col, strata_col, value_col]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        k=k,
        seed=seed,
        id_col=id_col,
        strata_col=strata_col,
    )
    return source_quantiles(sample, value_col=value_col, qs=qs, strata_col=strata_col)


# -- per-document token diversity (distinct-token fraction) ------------------


def _diversity_batch(t: "pa.Table") -> "pa.Table":
    arr = t["tokens"].combine_chunks()
    lens = pc.list_value_length(arr).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = np.asarray(pc.list_flatten(arr)).astype(np.int64)
    # distinct count per row without a row loop: tag each token with its
    # row id, count boundary transitions of the (row, token)-sorted stream
    row = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    if flat.size:
        if int(flat.min()) < 0:
            raise EngineValueError(
                "token_diversity requires non-negative token ids "
                "(packed-key row attribution breaks on negatives)"
            )
        key = row * (np.int64(1) << np.int64(32)) + flat  # token ids in [0, 2^31)
        key.sort(kind="stable")
        new = np.empty(key.size, dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        n_distinct = np.bincount(
            (key[new] >> np.int64(32)), minlength=lens.size
        ).astype(np.int64)
    else:
        n_distinct = np.zeros(lens.size, dtype=np.int64)
    div = np.zeros(lens.size, dtype=np.float64)
    nz = lens > 0
    div[nz] = np.floor(n_distinct[nz] / lens[nz] * 1e6 + 0.5) / 1e6
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "source": t["source"],
            "n_tok": pa.array(lens),
            "n_distinct": pa.array(n_distinct),
            "diversity": pa.array(div),
        }
    )


def token_diversity(ds) -> "object":
    """Per-document distinct-token fraction over the pre-tokenized sequence
    table: ``n_distinct / n_tok`` — the repetition-compressibility signal
    (a doc whose tokens are mostly repeats carries less training signal
    than its length suggests).

    Pure map, zero shuffles: per batch the Arrow list column flattens once,
    each token is tagged with its row id, and one sort of the (row, token)
    keys counts boundary transitions per row — no Python loop over rows.
    The ratio is the single pinned division with the engine-wide 6-decimal
    floor-half-up, so DuckDB's ``len(list_distinct(tokens))`` oracle hashes
    identically. Token ids must be < 2^31 (int32 contract column).
    """
    return ds.map_batches(
        _diversity_batch, batch_format="pyarrow", zero_copy_batch=True
    )


# -- deterministic train/val/test split assignment ---------------------------


def split_thresholds(fractions: "tuple[float, ...]") -> "list[int]":
    """Cumulative uint64 cut points for :func:`split_assign`, computed once
    in Python and embedded as literals in both the engine filter and the
    SQL oracle (the ``sample_threshold`` convention) so float
    representation can never diverge between the two sides."""
    if not fractions or any(f <= 0.0 for f in fractions):
        raise EngineValueError(f"fractions must be positive, got {fractions!r}")
    total = float(sum(fractions))
    if abs(total - 1.0) > 1e-9:
        raise EngineValueError(f"fractions must sum to 1, got {total}")
    cuts, acc = [], 0.0
    for f in fractions[:-1]:
        acc += float(f)
        cuts.append(min(int(acc * _U64), _U64 - 1))
    cuts.append(_U64)  # the last split takes the remainder exactly
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise EngineValueError("fractions too small to separate at 2^-64")
    return cuts


def split_assign(
    docs,
    *,
    fractions: "tuple[float, ...]" = (0.9, 0.05, 0.05),
    names: "tuple[str, ...]" = ("train", "val", "test"),
    seed: int = 0,
    id_col: str = "doc_id",
):
    """Deterministic train/val/test split labels: doc ``i`` lands in the
    split whose cumulative hash band contains ``splitmix64(i ^ mix(seed))``
    — the standard leakage-free assignment (stable under re-runs,
    re-shards, and corpus growth: a doc's label never depends on any other
    doc). Same seeded hash stream as ``stratified_sample``, so a
    ``rate=f_train`` sample is EXACTLY the train split (nested-sample
    property). Pure map, zero shuffles.
    """
    if len(fractions) != len(names):
        raise EngineValueError("fractions and names must have equal length")
    if len(set(names)) != len(names):
        raise EngineValueError(f"split names must be unique, got {names!r}")
    cuts = split_thresholds(tuple(fractions))
    seed_mix = int(splitmix64(np.array([seed], dtype=np.uint64))[0])
    labels = np.asarray(names, dtype=object)

    def assign(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = splitmix64(ids ^ np.uint64(seed_mix))
        idx = np.searchsorted(np.asarray(cuts[:-1], dtype=np.uint64), h, side="right")
        return t.append_column("split", pa.array(labels[idx], type=pa.string()))

    return docs.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# OOV rate vs a top-V token vocabulary


def _id_vocab_partial(t: "pa.Table") -> "pa.Table":
    arr = t["tokens"].combine_chunks()
    flat = np.asarray(pc.list_flatten(arr)).astype(np.int64)
    if flat.size == 0:
        return pa.table(
            {"tok": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())}
        )
    uniq, counts = np.unique(flat, return_counts=True)
    return pa.table(
        {"tok": pa.array(uniq, pa.int64()),
         "cnt": pa.array(counts.astype(np.int64))}
    )


def _topk_ids_block(k: int):
    def fn(t: "pa.Table") -> "pa.Table":
        if t.num_rows <= k:
            return t
        toks = t["tok"].to_numpy(zero_copy_only=False)
        cnts = t["cnt"].to_numpy(zero_copy_only=False)
        order = np.lexsort((toks, -cnts))[:k]
        return t.take(pa.array(np.sort(order), type=pa.int64()))

    return fn


def token_id_vocab(ds, *, k: int) -> np.ndarray:
    """Top-k token IDS by (count desc, tok asc) over the pre-tokenized
    sequence table, returned as a SORTED int64 id array (the broadcast
    probe side of oov_rate). Same plan as vocab_topk: per-batch np.unique
    partials, grouped_sum of the SMALL (tok, cnt) rows, per-block prune,
    one final combine — the k ids are the only thing that reaches the
    driver."""
    if k <= 0:
        raise EngineValueError("k must be positive")
    from datafiller_ray.stages.exchange import grouped_sum

    partial = ds.map_batches(
        _id_vocab_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    counts = grouped_sum(partial, "tok", "cnt")
    pruned = counts.map_batches(_topk_ids_block(k), batch_format="pyarrow")
    top = pruned.repartition(1).map_batches(
        _topk_ids_block(k), batch_format="pyarrow"
    )
    ids = np.sort(
        np.concatenate(
            [b["tok"].to_numpy(zero_copy_only=False)
             for b in top.iter_batches(batch_format="pyarrow")]
            or [np.empty(0, np.int64)]
        ).astype(np.int64)
    )
    return ids


def oov_rate(ds, *, vocab_size: int = 1024):
    """Per-source out-of-vocabulary token fraction against the corpus'
    own top-``vocab_size`` token ids — the vocabulary-coverage check run
    before committing to a tokenizer/vocab truncation.

    Two passes over the (columns-pruned) tokens column: pass 1 builds the
    top-V id vocabulary (token_id_vocab, deterministic count-desc/tok-asc
    cutoff); the sorted id array broadcasts ONCE via ``ray.put``; pass 2
    emits per-batch (source, total, oov) int64 partials — a searchsorted
    probe per batch, no Python row loop — combined by one small
    grouped_sum exchange. Ends in the single pinned division with the
    engine-wide 6-decimal floor-half-up."""
    import ray

    from datafiller_ray.stages.exchange import grouped_sum

    vocab_ref = ray.put(token_id_vocab(ds, k=vocab_size))

    class _OovPartial:
        def __init__(self) -> None:
            self.vocab = ray.get(vocab_ref)

        def __call__(self, t: "pa.Table") -> "pa.Table":
            arr = t["tokens"].combine_chunks()
            lens = pc.list_value_length(arr).to_numpy(zero_copy_only=False)
            flat = np.asarray(pc.list_flatten(arr)).astype(np.int64)
            src = np.asarray(t["source"].to_pylist(), dtype=object)
            row_src = np.repeat(src, lens)
            if flat.size:
                pos = np.searchsorted(self.vocab, flat)
                pos = np.minimum(pos, max(self.vocab.size - 1, 0))
                in_vocab = (
                    self.vocab[pos] == flat if self.vocab.size else
                    np.zeros(flat.size, dtype=bool)
                )
            else:
                in_vocab = np.zeros(0, dtype=bool)
            uniq_src, inv = np.unique(row_src, return_inverse=True)
            total = np.bincount(inv, minlength=uniq_src.size)
            oov = np.bincount(
                inv, weights=(~in_vocab).astype(np.float64),
                minlength=uniq_src.size,
            ).astype(np.int64)
            return pa.table(
                {
                    "source": pa.array(uniq_src.tolist(), pa.string()),
                    "total_tok": pa.array(total.astype(np.int64)),
                    "oov_tok": pa.array(oov),
                }
            )

    partial = ds.map_batches(
        _OovPartial, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, 8),
    )
    combined = grouped_sum(partial, "source", ["total_tok", "oov_tok"])

    def finish(t: "pa.Table") -> "pa.Table":
        total = t["total_tok"].to_numpy(zero_copy_only=False).astype(np.float64)
        oov = t["oov_tok"].to_numpy(zero_copy_only=False).astype(np.float64)
        rate = np.zeros(total.size, np.float64)
        nz = total > 0
        rate[nz] = np.floor(oov[nz] / total[nz] * 1e6 + 0.5) / 1e6
        return t.append_column("oov_rate", pa.array(rate))

    return combined.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# per-document token entropy


def _entropy_batch(t: "pa.Table") -> "pa.Table":
    arr = t["tokens"].combine_chunks()
    lens = pc.list_value_length(arr).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = np.asarray(pc.list_flatten(arr)).astype(np.int64)
    row = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    if flat.size:
        if int(flat.min()) < 0:
            raise EngineValueError(
                "doc_entropy requires non-negative token ids "
                "(packed-key row attribution breaks on negatives)"
            )
        key = row * (np.int64(1) << np.int64(32)) + flat
        key.sort(kind="stable")
        new = np.empty(key.size, dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        cnts = np.diff(np.concatenate([starts, [key.size]])).astype(np.float64)
        # per-doc sum of c*ln(c) in token-ascending order (the float sum a
        # SQL SUM reproduces to ~1e-13 relative; round6 absorbs the order)
        terms = cnts * np.log(cnts)
        doc_of_start = (key[starts] >> np.int64(32)).astype(np.int64)
        s = np.zeros(lens.size, np.float64)
        np.add.at(s, doc_of_start, terms)
    else:
        s = np.zeros(lens.size, np.float64)
    ent = np.zeros(lens.size, np.float64)
    nz = lens > 0
    nf = lens.astype(np.float64)
    ent[nz] = np.log(nf[nz]) - s[nz] / nf[nz]
    ent = np.floor(ent * 1e6 + 0.5) / 1e6
    # -0.0 from floor(-eps*1e6+0.5)/1e6 can't occur (entropy >= 0 exactly:
    # ln(n) - sum(c ln c)/n >= 0 with equality only all-same-token, where
    # the expression is exactly 0.0); single-token docs emit exact 0.0
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "source": t["source"],
            "n_tok": pa.array(lens),
            "entropy": pa.array(ent),
        }
    )


def doc_entropy(ds):
    """Per-document Shannon entropy (nats) of the token-id distribution:
    ``ln(n) - sum(c * ln(c)) / n`` over each doc's token counts — the
    repetition/compressibility quality signal on the PRE-TOKENIZED table
    (token_diversity's information-weighted sibling: a doc alternating two
    tokens has diversity ~0 but entropy ln 2).

    Pure map, zero shuffles: one flatten + one (row, token) packed-key
    sort per batch (the token_diversity kernel), ``c * ln(c)`` terms
    reduced per doc with np.add.at. The final expression is pinned
    ``ln(n) - S/n`` with the 6-decimal floor-half-up absorber; the DuckDB
    oracle (UNNEST -> per-(doc, tok) counts -> SUM(c*ln(c))) differs only
    in float summation order, ~1e-13 relative, absorbed."""
    return ds.map_batches(
        _entropy_batch, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------------------------------------------------------------------------
# binned token-id histograms -> source similarity / KL drift


def _token_bin_partial(bin_width: int, n_bins: int):
    limit = bin_width * n_bins

    def fn(t: "pa.Table") -> "pa.Table":
        arr = t["tokens"].combine_chunks()
        flat = np.asarray(pc.list_flatten(arr)).astype(np.int64)
        lens = pc.list_value_length(arr).to_numpy(zero_copy_only=False)
        src = np.repeat(np.asarray(t["source"].to_pylist(), dtype=object), lens)
        if flat.size == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "bin": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        if int(flat.min()) < 0 or int(flat.max()) >= limit:
            raise EngineValueError(
                f"token id outside [0, {limit}) — raise bin_width/n_bins"
            )
        bins = flat // bin_width
        uniq_src, inv = np.unique(src, return_inverse=True)
        key = inv * np.int64(n_bins) + bins
        uk, counts = np.unique(key, return_counts=True)
        return pa.table(
            {
                "source": pa.array(
                    uniq_src[uk // n_bins].tolist(), pa.string()
                ),
                "bin": pa.array(uk % n_bins, pa.int64()),
                "cnt": pa.array(counts.astype(np.int64)),
            }
        )

    return fn


def _source_bin_counts(ds, *, bin_width: int, n_bins: int):
    """(source, bin, cnt) exact counts of binned token ids — per-batch
    np.unique partials over the flattened Arrow list values, one small
    grouped_sum exchange. The shuffle carries at most
    |sources| x n_bins rows per block."""
    if bin_width <= 0 or n_bins <= 0:
        raise EngineValueError("bin_width and n_bins must be positive")
    from datafiller_ray.stages.exchange import grouped_sum

    partial = ds.map_batches(
        _token_bin_partial(bin_width, n_bins),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return grouped_sum(partial, ["source", "bin"], "cnt")


def source_similarity(ds, *, bin_width: int = 256, n_bins: int = 256):
    """Pairwise cosine similarity between sources' binned token-id
    histograms — the "which corpora look alike" diagnostic that drives
    mixing/dedup decisions between ingest feeds.

    Distributed part: exact (source, bin, cnt) counts via one small
    grouped_sum exchange (the token payload never shuffles). The final
    S x n_bins count matrix is tiny (sources x bins, NOT data-sized), so
    the pairwise pass runs in ONE task over one block. Dot products and
    norms are int64-exact (guarded: n_bins * max_cnt^2 must stay below
    2^63 — at bigger counts raise n_bins or pre-scale); each pair ends in
    the single pinned expression ``dot / (sqrt(na) * sqrt(nb))`` with the
    engine-wide round6, so the DuckDB HUGEINT self-join oracle hashes
    bit-for-bit. Output: (src_a < src_b, cos_sim) for every source pair.
    """
    counts = _source_bin_counts(ds, bin_width=bin_width, n_bins=n_bins)

    def pairwise(df: "object") -> "object":
        import math

        import pandas as pd

        if len(df) == 0:
            return pd.DataFrame(
                {
                    "src_a": pd.Series([], dtype="string"),
                    "src_b": pd.Series([], dtype="string"),
                    "cos_sim": pd.Series([], dtype="float64"),
                }
            )
        srcs = np.asarray(sorted(df["source"].unique()), dtype=object)
        s_idx = {s: i for i, s in enumerate(srcs)}
        C = np.zeros((srcs.size, n_bins), dtype=np.int64)
        C[
            df["source"].map(s_idx).to_numpy(np.int64),
            df["bin"].to_numpy(np.int64),
        ] = df["cnt"].to_numpy(np.int64)
        cmax = int(C.max())
        if n_bins * cmax * cmax >= 1 << 63:
            raise EngineValueError(
                "source_similarity dot product exceeds int64-exact range; "
                "increase n_bins or pre-thin the corpus"
            )
        G = C @ C.T  # int64-exact under the guard
        rows_a, rows_b, sims = [], [], []
        for i in range(srcs.size):
            for j in range(i + 1, srcs.size):
                sim = float(G[i, j]) / (
                    math.sqrt(float(G[i, i])) * math.sqrt(float(G[j, j]))
                )
                rows_a.append(srcs[i])
                rows_b.append(srcs[j])
                sims.append(np.floor(sim * 1e6 + 0.5) / 1e6)
        return pd.DataFrame(
            {"src_a": rows_a, "src_b": rows_b, "cos_sim": sims}
        )

    return counts.repartition(1).map_batches(
        pairwise, batch_format="pandas", batch_size=None
    )


def token_kl_drift(ds, *, bin_width: int = 256, n_bins: int = 256):
    """Per-source KL divergence of the binned token-id distribution vs the
    GLOBAL distribution (Laplace-smoothed over all ``n_bins`` bins) — the
    cross-sectional drift complement of psi_drift's early-vs-late split:
    which ingest feed's token mix deviates most from the corpus blend.

    Same (source, bin, cnt) exchange as source_similarity; the final pass
    is one task over the tiny count matrix. Per term the op order is
    pinned (``p = (c+1)/(n+B)``, ``q = (g+1)/(G+B)``, ``p * ln(p/q)``);
    the 256-term sum differs from SQL only in accumulation order (~1e-15
    relative), absorbed by the shared round6."""
    counts = _source_bin_counts(ds, bin_width=bin_width, n_bins=n_bins)

    def finish(df: "object") -> "object":
        import pandas as pd

        if len(df) == 0:
            return pd.DataFrame(
                {
                    "source": pd.Series([], dtype="string"),
                    "total_tok": pd.Series([], dtype="int64"),
                    "kl": pd.Series([], dtype="float64"),
                }
            )
        srcs = np.asarray(sorted(df["source"].unique()), dtype=object)
        s_idx = {s: i for i, s in enumerate(srcs)}
        C = np.zeros((srcs.size, n_bins), dtype=np.int64)
        C[
            df["source"].map(s_idx).to_numpy(np.int64),
            df["bin"].to_numpy(np.int64),
        ] = df["cnt"].to_numpy(np.int64)
        g = C.sum(axis=0)
        G = int(g.sum())
        n = C.sum(axis=1)
        B = np.float64(n_bins)
        q = (g + 1).astype(np.float64) / np.float64(G + n_bins)
        p = (C + 1).astype(np.float64) / (n + n_bins).astype(np.float64)[:, None]
        kl = np.floor(
            np.sum(p * np.log(p / q[None, :]), axis=1) * 1e6 + 0.5
        ) / 1e6
        return pd.DataFrame(
            {"source": srcs, "total_tok": n.astype(np.int64), "kl": kl}
        )

    return counts.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


# ---------------------------------------------------------------------------
# per-(source, hour) token-budget quota


def hourly_quota(ds, *, budget: int, seed: int = 0):
    """Deterministic per-(source, hour) token-budget enforcement — the
    rate-limiting complement of budget_sample's global mixing budgets:
    within each source-hour, documents are kept in seeded
    splitmix64(string_hash64(doc_id)) order while the running ``n_tok``
    total stays <= ``budget`` (hash order, so the kept set is reproducible
    and independent of block layout / cluster size).

    Shuffles only the 3-column (doc_id, source, n_tok) projection plus the
    hash; the group key is an int64 mix of the source hash and the hour,
    sub-grouped by the real (source, hour_ts) inside the task so key
    collisions can never merge quotas. SQL-exact: the kept set is the
    ``SUM(n_tok) OVER (PARTITION BY source, hour_ts ORDER BY v, doc_id)``
    prefix within budget."""
    import pandas as pd

    from datafiller_ray.stages.validate import extract_epoch_minute

    if budget < 0:
        raise EngineValueError(f"budget must be >= 0, got {budget}")
    seed_mix = int(splitmix64(np.array([seed], dtype=np.uint64))[0])

    def project(t: "pa.Table") -> "pa.Table":
        minute = np.asarray(extract_epoch_minute(t["doc_id"]), dtype=np.int64)
        hour_ts = (minute * 60 // 3600) * 3600
        ids = np.asarray(t["doc_id"].to_pylist(), dtype="U")
        from datafiller_ray.functions.hashing import string_hash64

        h = string_hash64(ids)
        v = splitmix64(h ^ np.uint64(seed_mix))
        src = np.asarray(t["source"].to_pylist(), dtype="U")
        qk = splitmix64(
            string_hash64(src) ^ hour_ts.astype(np.uint64)
        ).view(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "source": t["source"],
                "n_tok": pc.cast(t["n_tok"], pa.int64()),
                "hour_ts": pa.array(hour_ts, pa.int64()),
                "v": pa.array(v.view(np.int64), pa.int64()),
                "qk": pa.array(qk, pa.int64()),
            }
        )

    def take_prefix(g: "pd.DataFrame") -> "pd.DataFrame":
        outs = []
        for _, sub in g.groupby(["source", "hour_ts"], sort=True):
            v = sub["v"].to_numpy(np.int64).view(np.uint64)
            ids = sub["doc_id"].to_numpy()
            w = sub["n_tok"].to_numpy(np.int64)
            order = np.lexsort((ids, v))
            run = np.cumsum(w[order])
            keep = np.sort(order[run <= budget])
            outs.append(sub.iloc[keep])
        out = pd.concat(outs, ignore_index=True) if outs else g.iloc[0:0]
        out = out.drop(columns=["v", "qk"]).reset_index(drop=True)
        if len(out) == 0:
            out = out.copy()
            out["doc_id"] = out["doc_id"].astype("string")
            out["source"] = out["source"].astype("string")
        return out

    projected = ds.map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True
    )
    return projected.groupby("qk").map_groups(take_prefix, batch_format="pandas")


# ---------------------------------------------------------------------------
# corpus concentration statistics: Gini + Zipf fit


def source_gini(ds):
    """Gini coefficient of token volume across sources — the one-number
    skew/concentration summary (0 = every source contributes equally,
    ->1 = one source dominates) that motivates temperature_sample /
    budget_sample rebalancing.

    Per-batch (source, n_tok-sum) int partials -> one small grouped_sum
    exchange -> a single-row final pass: totals sorted (value asc, source
    asc; the rank-weighted sum is tie-order invariant), then the classic
    ``G = 2*sum(i*x_i)/(n*sum(x)) - (n+1)/n`` with every moment an exact
    integer and ONE pinned float expression — bit-identical to the DuckDB
    ROW_NUMBER oracle with no absorber needed beyond the shared round6."""
    import pandas as pd

    from datafiller_ray.stages.exchange import grouped_sum

    def partial(t: "pa.Table") -> "pa.Table":
        src = np.asarray(t["source"].to_pylist(), dtype=object)
        n_tok = np.asarray(t["n_tok"].to_numpy(zero_copy_only=False), dtype=np.int64)
        uniq, inv = np.unique(src, return_inverse=True)
        sums = np.bincount(inv, weights=n_tok.astype(np.float64)).astype(np.int64)
        return pa.table(
            {
                "source": pa.array(uniq.tolist(), pa.string()),
                "x": pa.array(sums),
            }
        )

    totals = grouped_sum(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "source",
        "x",
    )

    def finish(df: "pd.DataFrame") -> "pd.DataFrame":
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "n_sources": pd.Series([], dtype="int64"),
                    "total_tok": pd.Series([], dtype="int64"),
                    "gini": pd.Series([], dtype="float64"),
                }
            )
        x = df["x"].to_numpy(np.int64)
        src = df["source"].to_numpy()
        order = np.lexsort((src, x))
        xs = x[order]
        n = xs.size
        # unbounded Python ints (acf precedent): i*x_i can pass 2^63
        six = sum((i + 1) * int(v) for i, v in enumerate(xs.tolist()))
        sx = int(xs.sum())
        g = (2.0 * float(six)) / (float(n) * float(sx)) - float(n + 1) / float(n)
        return pd.DataFrame(
            {
                "n_sources": np.array([n], np.int64),
                "total_tok": np.array([sx], np.int64),
                "gini": np.array([np.floor(g * 1e6 + 0.5) / 1e6], np.float64),
            }
        )

    return totals.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def zipf_fit(ds):
    """OLS fit of the Zipf rank-frequency law over the GLOBAL token-id
    counts: slope/intercept/R^2 of ``ln(count)`` on ``ln(rank)`` (rank by
    count desc, tok asc) — the corpus-statistics check that the token
    distribution has the expected power-law shape (a collapsed or
    synthetic feed shows up as a bent curve / far-from--1 slope).

    Same exchange shape as token_id_vocab: tiny (tok, cnt) partials, one
    grouped_sum, a single-block final OLS. The log moments are float sums
    (engine reduces rank-ascending, SQL in its own order: ~1e-13 relative
    drift, absorbed by round6 on the three pinned output expressions —
    the source_trend formulas with float inputs)."""
    import pandas as pd

    from datafiller_ray.stages.exchange import grouped_sum

    partial = ds.map_batches(
        _id_vocab_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    counts = grouped_sum(partial, "tok", "cnt")

    def finish(df: "pd.DataFrame") -> "pd.DataFrame":
        empty = pd.DataFrame(
            {
                "n_types": pd.Series([], dtype="int64"),
                "slope": pd.Series([], dtype="float64"),
                "intercept": pd.Series([], dtype="float64"),
                "r2": pd.Series([], dtype="float64"),
            }
        )
        if len(df) < 2:
            return empty
        toks = df["tok"].to_numpy(np.int64)
        cnts = df["cnt"].to_numpy(np.int64)
        order = np.lexsort((toks, -cnts))
        y = np.log(cnts[order].astype(np.float64))
        x = np.log(np.arange(1, y.size + 1, dtype=np.float64))
        n = float(y.size)
        sx, sy = float(x.sum()), float(y.sum())
        sxy, sxx, syy = float(x @ y), float(x @ x), float(y @ y)
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        if d1 <= 0.0:
            return empty  # all counts identical rank curve degenerate
        num = n * sxy - sx * sy
        slope = num / d1
        intercept = (sy * sxx - sx * sxy) / d1
        r2 = (num * num) / (d1 * d2) if d2 > 0.0 else 1.0
        r6 = lambda v: np.floor(v * 1e6 + 0.5) / 1e6
        return pd.DataFrame(
            {
                "n_types": np.array([y.size], np.int64),
                "slope": np.array([r6(slope)], np.float64),
                "intercept": np.array([r6(intercept)], np.float64),
                "r2": np.array([r6(r2)], np.float64),
            }
        )

    return counts.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def bm25_topk(
    docs,
    query: str,
    *,
    k: int = 20,
    k1: float = 1.2,
    b: float = 0.75,
):
    """BM25 ranked retrieval of the top-k documents for ``query`` — the
    lexical search primitive (Robertson/Sparck-Jones idf in the Lucene
    ``ln(1 + (N - df + 0.5)/(df + 0.5))`` form, tf saturation ``k1``,
    length normalization ``b``).

    Two passes, both collapsing to tiny integer partials before anything
    moves:

    - stats pass: per-batch rows ``(term, df_partial)`` for the query's
      terms only, plus sentinel rows for the doc count and total token
      count -> one bounded ``grouped_sum`` exchange -> <= |terms|+2 rows on
      the driver. All integers, so merge order is exact.
    - score pass: broadcast (N, total_dl, df per sorted term); per batch
      each doc's (tf_t, dl) are integers and the float score is ONE pinned
      expression summed in sorted-term order, rounded through the shared
      6-decimal floor-half-up. Per-batch partial top-k by
      (score desc, doc_id asc) -> single final combine over <= k*blocks
      rows (the ``vocab_topk`` reduction shape).

    Only docs matching >= 1 query term can score; everything else is
    filtered batch-side. Output: (doc_id, score) — the top-k by
    (rounded score desc, doc_id asc).
    """
    if k <= 0:
        raise EngineValueError("k must be positive")
    if k1 < 0 or not 0 <= b <= 1:
        raise EngineValueError(f"bad BM25 params k1={k1} b={b}")
    bpe = re.compile(r"\w+|[^\w\s]", re.ASCII)
    terms = sorted(set(bpe.findall(query)))
    if not terms:
        raise EngineValueError(f"query has no tokens: {query!r}")

    # vectorized tf counting: a \w+ token equals term T iff the text
    # matches (?<!\w)T(?!\w) — the maximal-run boundary of the shared
    # tokenizer; a punctuation token ([^\w\s] branch) is its own single
    # char, so a plain escaped count suffices. (?a) pins re.ASCII exactly
    # like the compiled tokenizer. pandas str.count runs the C regex loop
    # instead of building per-doc Python token lists.
    def _term_pattern(q: str) -> str:
        if re.fullmatch(r"\w+", q, re.ASCII):
            return rf"(?a)(?<!\w){re.escape(q)}(?!\w)"
        return rf"(?a){re.escape(q)}"

    tok_pattern = r"(?a)\w+|[^\w\s]"
    term_patterns = {q: _term_pattern(q) for q in terms}

    def stats_partial(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pandas().fillna("")
        total_dl = int(texts.str.count(tok_pattern).sum())
        df_counts = {
            q: int((texts.str.count(p) > 0).sum())
            for q, p in term_patterns.items()
        }
        keys = list(terms) + ["\x00N", "\x00DL"]
        vals = [df_counts[q] for q in terms] + [len(texts), total_dl]
        return pa.table(
            {
                "term": pa.array(keys, type=pa.string()),
                "cnt": pa.array(np.asarray(vals, dtype=np.int64)),
            }
        )

    from datafiller_ray.stages.exchange import grouped_sum

    partial = docs.map_batches(stats_partial, batch_format="pyarrow")
    # |terms|+2 rows per BATCH: no exchange needed — driver-sum the bounded
    # integer partials directly (order-independent exactly)
    stats: "dict[str, int]" = {}
    for r in partial.take_all():
        stats[r["term"]] = stats.get(r["term"], 0) + int(r["cnt"])
    n_docs = stats.pop("\x00N")
    total_dl = stats.pop("\x00DL")
    if n_docs == 0 or total_dl == 0:
        import pandas as pd

        import ray.data

        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype=np.int64),
                    "score": pd.Series([], dtype=np.float64),
                }
            )
        )
    avgdl = float(total_dl) / float(n_docs)
    # ln(1 + x) spelled exactly like the SQL oracle's expression tree
    idf = {
        q: float(np.log(1.0 + (n_docs - stats[q] + 0.5) / (stats[q] + 0.5)))
        for q in terms
    }

    def scorer(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pandas().fillna("")
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(texts)
        if n == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "score": pa.array([], type=pa.float64()),
                }
            )
        dl = texts.str.count(tok_pattern).to_numpy(np.float64)
        # same float expression tree as the scalar form, element-wise:
        # (1.0 - b) + (b * dl) / avgdl, shared across terms
        inner = 1.0 - b + b * dl / avgdl
        score = np.zeros(n, dtype=np.float64)
        # b=1 + dl=0 gives 0/0 -> NaN; such docs have tf=0 everywhere so
        # the NaN only ever lands on score-0 rows (keep stays False)
        with np.errstate(invalid="ignore", divide="ignore"):
            for q in terms:  # sorted-term order: deterministic sum
                tfq = texts.str.count(term_patterns[q]).to_numpy(np.float64)
                score += idf[q] * (tfq * (k1 + 1.0)) / (tfq + k1 * inner)
        keep = score > 0.0
        return pa.table(
            {
                "doc_id": pa.array(ids[keep]),
                "score": pa.array(np.floor(score[keep] * 1e6 + 0.5) / 1e6),
            }
        )

    from datafiller_ray.stages.exchange import topk_block_fn

    topk_block = topk_block_fn(k, "score", ["doc_id"])
    scored = docs.map_batches(scorer, batch_format="pyarrow")
    pruned = scored.map_batches(topk_block, batch_format="pyarrow")
    return pruned.repartition(1).map_batches(topk_block, batch_format="pyarrow")


def length_ntile(
    docs,
    *,
    n_tiles: int = 8,
    value_col: str = "n_chars",
    n_buckets: int = 64,
):
    """Exact global NTILE over (value asc, doc_id asc) — curriculum /
    length-bucket assignment (short-to-long training schedules, per-bucket
    batch shaping) WITHOUT a global sort:

    - pass 1 collapses each block to (value, count) partials -> one bounded
      exchange -> the driver holds |distinct values| rows (lengths, not
      docs) and computes each value's global start rank by cumulative sum.
    - pass 2 shuffles only (doc_id, value) pairs on a coarse hash of the
      VALUE (all docs of one value co-locate — the engine's standing
      per-key-fits-in-a-task contract; sub-salt by doc_id range if one
      single length ever dominates a corpus), ranks doc_ids within each
      value, and adds the broadcast start rank.

    Tile assignment is the SQL NTILE rule (first ``n % k`` tiles take the
    extra row), so the ``NTILE(k) OVER (ORDER BY value, doc_id)`` oracle
    matches row-for-row. All integers — deterministic under any layout.

    Output: (doc_id, value_col, tile).
    """
    import ray

    from datafiller_ray.stages.exchange import coarse_map_groups, grouped_sum

    if n_tiles < 1:
        raise EngineValueError(f"n_tiles must be >= 1, got {n_tiles}")

    def count_partial(t: pa.Table) -> pa.Table:
        agg = (
            pa.table({"v": t[value_col]})
            .group_by("v")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "v": pc.cast(agg["v"], pa.int64()),
                "cnt": pc.cast(agg["count_all"], pa.int64()),
            }
        )

    counts = (
        grouped_sum(
            docs.map_batches(count_partial, batch_format="pyarrow"),
            "v",
            "cnt",
        ).to_pandas()  # |distinct values| rows only
    ).sort_values("v")
    vals = counts["v"].to_numpy(np.int64)
    cnts = counts["cnt"].to_numpy(np.int64)
    n = int(cnts.sum())
    if n == 0:
        import pandas as pd

        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype=np.int64),
                    value_col: pd.Series([], dtype=np.int64),
                    "tile": pd.Series([], dtype=np.int64),
                }
            )
        )
    starts = np.concatenate([[0], np.cumsum(cnts)[:-1]]).astype(np.int64)
    q, r = divmod(n, n_tiles)
    sref = ray.put((vals, starts))

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "v": pc.cast(t[value_col], pa.int64()),
            }
        )

    def rank_bucket(g):
        import pandas as pd

        vals_b, starts_b = ray.get(sref)
        g = g.sort_values(["v", "doc_id"], kind="stable")
        v = g["v"].to_numpy(np.int64)
        # local rank within each value run (input sorted by (v, doc_id))
        idx = np.arange(len(g), dtype=np.int64)
        new_run = np.concatenate([[True], v[1:] != v[:-1]])
        run_start = np.maximum.accumulate(np.where(new_run, idx, -1))
        local = idx - run_start
        rank0 = starts_b[np.searchsorted(vals_b, v)] + local
        # SQL NTILE: first r tiles take q+1 rows
        big = rank0 < r * (q + 1)
        tile = np.where(
            big,
            rank0 // max(q + 1, 1) + 1,
            (rank0 - r * (q + 1)) // max(q, 1) + r + 1,
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                value_col: v,
                "tile": tile,
            }
        )

    slim = docs.map_batches(project, batch_format="pyarrow")
    return coarse_map_groups(slim, "v", rank_bucket, n_buckets=n_buckets)


def source_ks(docs, *, value_col: str = "n_chars"):
    """Exact two-sample Kolmogorov-Smirnov distance between every pair of
    sources' ``value_col`` distributions — the distribution-drift
    complement of ``source_similarity`` (which compares token content):
    ``KS = max_v |F_a(v) - F_b(v)|`` over the union of observed values.

    Exactness: the only thing that shuffles is (source, value, count)
    integer partials (bounded by sources x distinct values, not rows); the
    driver evaluates both ECDFs on the shared value grid and maximizes the
    INTEGER cross numerator ``|c_a * n_b - c_b * n_a|`` — no float
    comparisons anywhere — ending in one pinned division + the shared
    6-decimal floor-half-up. Overflow guard: ``max(n_a) * max(n_b)`` must
    stay below 2^62 (per-source row counts, not corpus bytes); beyond
    that, pre-bin values.

    Output: (src_a < src_b, n_a, n_b, ks).
    """
    import ray

    from datafiller_ray.stages.exchange import grouped_sum

    def count_partial(t: pa.Table) -> pa.Table:
        slim = pa.table(
            {"source": t["source"], "v": pc.cast(t[value_col], pa.int64())}
        )
        agg = slim.group_by(["source", "v"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "source": agg["source"],
                "v": agg["v"],
                "cnt": pc.cast(agg["count_all"], pa.int64()),
            }
        )

    rows = grouped_sum(
        docs.map_batches(count_partial, batch_format="pyarrow"),
        ["source", "v"],
        "cnt",
    ).to_pandas()  # sources x distinct values, NOT row-sized
    import pandas as pd

    empty = pd.DataFrame(
        {
            "src_a": pd.Series([], dtype="string"),
            "src_b": pd.Series([], dtype="string"),
            "n_a": pd.Series([], dtype=np.int64),
            "n_b": pd.Series([], dtype=np.int64),
            "ks": pd.Series([], dtype=np.float64),
        }
    )
    if len(rows) == 0:
        return ray.data.from_pandas(empty)
    srcs = np.asarray(sorted(rows["source"].unique()), dtype=object)
    vals = np.sort(rows["v"].unique())
    s_idx = {s: i for i, s in enumerate(srcs)}
    v_idx = {int(v): i for i, v in enumerate(vals)}
    C = np.zeros((srcs.size, vals.size), dtype=np.int64)
    C[
        rows["source"].map(s_idx).to_numpy(np.int64),
        rows["v"].map(v_idx).to_numpy(np.int64),
    ] = rows["cnt"].to_numpy(np.int64)
    cum = np.cumsum(C, axis=1)
    n = cum[:, -1]
    if int(n.max()) ** 2 >= 1 << 62:
        raise EngineValueError(
            "source_ks cross numerator exceeds the exact int64 range; "
            "pre-bin the value column"
        )
    out_a, out_b, out_na, out_nb, out_ks = [], [], [], [], []
    for i in range(srcs.size):
        for j in range(i + 1, srcs.size):
            if n[i] == 0 or n[j] == 0:
                continue
            num = int(np.abs(cum[i] * n[j] - cum[j] * n[i]).max())
            out_a.append(srcs[i])
            out_b.append(srcs[j])
            out_na.append(int(n[i]))
            out_nb.append(int(n[j]))
            out_ks.append(
                np.floor(float(num) / float(n[i] * n[j]) * 1e6 + 0.5) / 1e6
            )
    if not out_a:
        return ray.data.from_pandas(empty)
    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "src_a": np.asarray(out_a, dtype=object),
                "src_b": np.asarray(out_b, dtype=object),
                "n_a": np.asarray(out_na, dtype=np.int64),
                "n_b": np.asarray(out_nb, dtype=np.int64),
                "ks": np.asarray(out_ks, dtype=np.float64),
            }
        )
    )


def equidepth_histogram(
    docs, *, n_tiles: int = 8, value_col: str = "n_chars"
):
    """Equi-depth (equal-count) histogram of ``value_col``: the SQL
    ``NTILE(k) OVER (ORDER BY value, doc_id)`` buckets summarized as one
    row per tile with (lo, hi, n_rows) — the boundary table a planner or
    curriculum scheduler actually consumes (the per-row assignment is
    :func:`length_ntile`).

    Fully derived on the driver from the SAME bounded (value, count) pass
    as ``length_ntile`` — |distinct values| integer rows, no second
    exchange: tile t covers global ranks [start_t, end_t) (SQL NTILE
    rule), and rank -> value is one searchsorted on the cumulative counts.
    All integers — deterministic.
    """
    import ray

    from datafiller_ray.stages.exchange import grouped_sum

    if n_tiles < 1:
        raise EngineValueError(f"n_tiles must be >= 1, got {n_tiles}")

    def count_partial(t: pa.Table) -> pa.Table:
        agg = (
            pa.table({"v": pc.cast(t[value_col], pa.int64())})
            .group_by("v")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"v": agg["v"], "cnt": pc.cast(agg["count_all"], pa.int64())}
        )

    counts = (
        grouped_sum(
            docs.map_batches(count_partial, batch_format="pyarrow"), "v", "cnt"
        )
        .to_pandas()
        .sort_values("v")
    )
    import pandas as pd

    vals = counts["v"].to_numpy(np.int64)
    cum = np.cumsum(counts["cnt"].to_numpy(np.int64))
    n = int(cum[-1]) if cum.size else 0
    if n == 0:
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "tile": pd.Series([], dtype=np.int64),
                    "lo": pd.Series([], dtype=np.int64),
                    "hi": pd.Series([], dtype=np.int64),
                    "n_rows": pd.Series([], dtype=np.int64),
                }
            )
        )
    k = min(n_tiles, n)
    q, r = divmod(n, n_tiles)
    tiles, los, his, sizes = [], [], [], []
    start = 0
    for t_ in range(1, k + 1):
        size = q + 1 if t_ <= r else q
        if size == 0:
            break
        end = start + size
        # rank -> value: first value whose cumulative count exceeds rank
        lo = int(vals[np.searchsorted(cum, start, side="right")])
        hi = int(vals[np.searchsorted(cum, end - 1, side="right")])
        tiles.append(t_)
        los.append(lo)
        his.append(hi)
        sizes.append(size)
        start = end
    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "tile": np.asarray(tiles, dtype=np.int64),
                "lo": np.asarray(los, dtype=np.int64),
                "hi": np.asarray(his, dtype=np.int64),
                "n_rows": np.asarray(sizes, dtype=np.int64),
            }
        )
    )


def vocab_growth(input_path, *, step: int = 3600, n_buckets: int = 64):
    """Vocabulary growth curve over the CONTRACT table: per (source,
    ``step``-second bucket) the number of token ids seen for the FIRST time
    in that bucket, plus the running vocabulary size — the Heaps-law view
    tokenizer/OOV planning reads before committing to a vocab truncation
    (``oov_rate`` gives the end-state fraction; this gives the trajectory).

    Physical plan — the heavy token payload NEVER shuffles:

    1. per-batch first-seen partials: flatten the token lists (zero-copy),
       repeat row timestamps over the ragged structure, collapse to one
       (source, token, first_ts) row per distinct pair IN THE BATCH;
    2. one bounded coarse-key exchange combining partials with ``min``
       (stages/exchange.grouped_sum(how="min") — same partial+final
       algebra, min instead of add);
    3. re-bucket first_ts to the step grid, grouped_sum count per
       (source, bucket) — tiny rows;
    4. per-source cumulative sum over the sorted buckets (one more
       bounded exchange over ~sources x buckets rows).
    """
    import pandas as pd
    import ray.data

    from datafiller_ray.stages.exchange import coarse_map_groups, grouped_sum
    from datafiller_ray.stages.validate import extract_epoch_minute

    if step < 60 or step % 60:
        raise EngineValueError(f"step must be a positive multiple of 60, got {step}")

    def firsts(t: pa.Table) -> pd.DataFrame:
        lens = np.asarray(pc.list_value_length(t["tokens"]), dtype=np.int64)
        parent = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        ts = (np.asarray(extract_epoch_minute(t["doc_id"])) * 60)[parent]
        toks = np.asarray(pc.list_flatten(t["tokens"]), dtype=np.int64)
        dict_arr = pc.dictionary_encode(t["source"].combine_chunks())
        uniq = np.asarray(dict_arr.dictionary.to_pandas(), dtype=object)
        src = uniq[np.asarray(dict_arr.indices)][parent]
        df = pd.DataFrame({"source": src, "token": toks, "first_ts": ts})
        return df.groupby(["source", "token"], sort=False, as_index=False)[
            "first_ts"
        ].min()

    ds = ray.data.read_parquet(input_path, columns=["doc_id", "source", "tokens"])
    partials = ds.map_batches(firsts, batch_format="pyarrow")
    first = grouped_sum(
        partials, ["source", "token"], "first_ts", how="min", n_buckets=n_buckets
    )

    def to_bucket(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["first_ts"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "source": df["source"],
                "bucket_ts": ts - ts % step,
                "new_tokens": np.ones(len(df), np.int64),
            }
        )

    counts = grouped_sum(
        first.map_batches(to_bucket, batch_format="pandas"),
        ["source", "bucket_ts"],
        "new_tokens",
        n_buckets=n_buckets,
    )

    def cumulate(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "bucket_ts"], kind="mergesort")
        g["vocab_size"] = g.groupby("source", sort=False)["new_tokens"].cumsum()
        return g

    return coarse_map_groups(counts, "source", cumulate, n_buckets=n_buckets)


def weighted_quantiles(
    ds,
    *,
    value_col: str = "n_tok",
    weight_col: str = "n_tok",
    qs: "tuple[float, ...]" = (0.25, 0.5, 0.75, 0.9, 0.99),
):
    """EXACT weighted quantiles of a bounded-cardinality integer column —
    the token-mass view of the length distribution ("50% of all TOKENS
    live in docs shorter than X", vs ``global_quantiles``'s doc-count
    view). Definition pinned to the lower weighted quantile: the smallest
    value ``v`` with ``cumweight(v) >= q * W`` — evaluated as the INTEGER
    comparison ``1e6 * cumweight >= q6 * W`` with ``q6 = round(q * 1e6)``
    (exact for 6-decimal q), so there is NO float anywhere and the result
    is an int64 value from the data.

    Scale shape (the global_quantiles plan): per-batch np.unique collapses
    each block to (value, weight-sum) partials, ONE bounded value-keyed
    exchange merges them, a single tiny reduce walks the cumulative
    weights. Output: ONE row of ``wq_<q>`` BIGINT columns.
    """
    if not qs:
        raise EngineValueError("qs must be non-empty")
    for q in qs:
        if not (0.0 < q <= 1.0):
            raise EngineValueError(f"quantiles must be in (0, 1], got {q}")
    names = [f"wq{str(q).replace('.', '_')}" for q in qs]
    q6s = [int(round(q * 1e6)) for q in qs]

    def partial(t: pa.Table) -> pa.Table:
        vals = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(vals, return_inverse=True)
        ws = np.zeros(uniq.size, np.int64)
        np.add.at(ws, inv, w)
        return pa.table({"value": pa.array(uniq), "w": pa.array(ws)})

    from datafiller_ray.stages.exchange import grouped_sum

    cols = [value_col] if value_col == weight_col else [value_col, weight_col]
    slim = ds.map_batches(
        lambda t: t.select(cols),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    merged = grouped_sum(
        slim.map_batches(partial, batch_format="pyarrow"), "value", "w"
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        if t.num_rows == 0:
            return pa.table({n: pa.array([], type=pa.int64()) for n in names})
        vals = t["value"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        w = t["w"].to_numpy(zero_copy_only=False)[order]
        # Python-int cumulative weights: W * q6 can exceed int64 at scale
        cum = [0]
        for x in w:
            cum.append(cum[-1] + int(x))
        W = cum[-1]
        row = {}
        for q6, name in zip(q6s, names):
            target = q6 * W  # exact integer threshold: 1e6*cw >= q6*W
            lo, hi = 1, len(cum) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if 1_000_000 * cum[mid] >= target:
                    hi = mid
                else:
                    lo = mid + 1
            row[name] = [int(vals[lo - 1])]
        return pa.table({n: pa.array(v, type=pa.int64()) for n, v in row.items()})

    return merged.repartition(1).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )


def length_percentile(
    docs,
    *,
    value_col: str = "n_chars",
    key_col: str = "source",
):
    """Per-document PERCENT_RANK of ``value_col`` within its ``key_col``
    group — the within-source curriculum position ((rank - 1) / (n - 1)
    with SQL RANK tie semantics: ties share the rank of their first row).
    Emits (doc_id, key, value, pct_rank).

    Scale shape: NO per-row shuffle at all. Pass 1 collapses each block to
    (key, value, count) partials through one bounded exchange (distinct
    (key, value) pairs only — lengths, not docs); the driver turns them
    into per-key cumulative start ranks and group sizes, broadcast ONCE
    via ``ray.put``. Pass 2 is a pure vectorized probe per batch
    (searchsorted on the packed key+value grid). The only float is the
    single pinned division ``rank0 / (n - 1)`` under the shared 6-decimal
    floor-half-up absorber (groups of size 1 emit exact 0.0, the SQL
    PERCENT_RANK rule)."""
    import ray

    from datafiller_ray.stages.exchange import grouped_sum

    def count_partial(t: pa.Table) -> pa.Table:
        key = t[key_col].to_numpy(zero_copy_only=False)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        import pandas as pd

        df = pd.DataFrame({"key": key, "v": v})
        agg = df.groupby(["key", "v"], sort=False, as_index=False).size()
        return pa.table(
            {
                "key": pa.array(agg["key"].to_numpy()),
                "v": pa.array(agg["v"].to_numpy(np.int64)),
                "cnt": pa.array(agg["size"].to_numpy(np.int64)),
            }
        )

    counts = (
        grouped_sum(
            docs.map_batches(count_partial, batch_format="pyarrow"),
            ["key", "v"],
            "cnt",
        ).to_pandas()  # |distinct (key, value)| rows only
    ).sort_values(["key", "v"], kind="stable")
    if len(counts) == 0:
        import pandas as pd
        import ray.data as rd

        return rd.from_pandas(
            pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype=np.int64),
                    key_col: pd.Series([], dtype=object),
                    value_col: pd.Series([], dtype=np.int64),
                    "pct_rank": pd.Series([], dtype=np.float64),
                }
            )
        )
    keys = counts["key"].to_numpy()
    vs = counts["v"].to_numpy(np.int64)
    cnts = counts["cnt"].to_numpy(np.int64)
    new_key = np.r_[True, keys[1:] != keys[:-1]]
    # start rank (0-based) of each (key, value) within its key group
    cs = np.cumsum(cnts)
    grp_base = np.maximum.accumulate(np.where(new_key, np.r_[0, cs[:-1]], -1))
    start0 = np.r_[0, cs[:-1]] - grp_base
    # group size per (key, value) row: total of its key group
    grp_id = np.cumsum(new_key) - 1
    grp_tot = np.zeros(grp_id[-1] + 1, np.int64)
    np.add.at(grp_tot, grp_id, cnts)
    n_of_row = grp_tot[grp_id]
    # broadcast LUT: one frame keyed (key, value) — probed by a vectorized
    # pandas hash merge per batch (no per-row Python, no hash-collision
    # exposure: the join is on the actual key strings)
    import pandas as pd

    lut = pd.DataFrame(
        {"key": keys, "v": vs, "rank0": start0, "n": n_of_row}
    )
    ref = ray.put(lut)

    def probe(t: pa.Table) -> pa.Table:
        import pandas as pd

        lut_b = ray.get(ref)
        key = t[key_col].to_numpy(zero_copy_only=False)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = pd.DataFrame({"key": key, "v": v}).merge(
            lut_b, on=["key", "v"], how="left", sort=False
        )
        rank0 = m["rank0"].to_numpy(np.int64)
        n = m["n"].to_numpy(np.int64)
        pct = np.zeros(v.size, np.float64)
        multi = n > 1
        pct[multi] = rank0[multi].astype(np.float64) / (
            n[multi].astype(np.float64) - 1.0
        )
        pct = np.floor(pct * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                key_col: t[key_col],
                value_col: pa.array(v),
                "pct_rank": pa.array(pct),
            }
        )

    return docs.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def vocab_overlap(ds, *, n_buckets: int = 64):
    """Pairwise Jaccard overlap of the sources' distinct token-id
    vocabularies — the lexical-overlap complement of
    ``source_similarity`` (cosine of FREQUENCY histograms): which feeds
    share a vocabulary vs merely a frequency shape. Emits one row per
    source pair with shared tokens: (source_a < source_b, n_a, n_b,
    n_common, jaccard = common / (n_a + n_b - common)).

    Scale shape: per-batch distinct (source, token) pairs (one vectorized
    drop_duplicates over the zero-copy flattened stream — the heavy token
    lists never move), ONE bounded token-keyed coarse exchange that
    dedupes globally and fans each token's source set into (a < b)
    co-occurrence partials plus side-tagged (a == b) distinct-count
    partials, then ONE tiny (a, b)-keyed grouped_sum over at most
    |sources|^2 rows. Counts are integer-exact; the only float is the
    single pinned Jaccard division under the shared 6-decimal
    floor-half-up absorber."""
    import pandas as pd

    def pair_partial(t: pa.Table) -> pa.Table:
        arr = t["tokens"].combine_chunks()
        lens = pc.list_value_length(arr).to_numpy(zero_copy_only=False)
        flat = np.asarray(pc.list_flatten(arr)).astype(np.int64)
        if flat.size and int(flat.min()) < 0:
            raise EngineValueError(
                "vocab_overlap requires non-negative token ids "
                "(packed-key dedup breaks on negatives)"
            )
        src = t["source"].to_numpy(zero_copy_only=False)
        usrc, src_idx = np.unique(src, return_inverse=True)
        # packed-int dedup (the doc_entropy kernel): (src_idx, token) pairs
        # collapse via one integer unique, no object-dtype drop_duplicates
        key = np.repeat(src_idx.astype(np.int64), lens) * (
            np.int64(1) << np.int64(32)
        ) + flat
        key = np.unique(key)
        tok = key & ((np.int64(1) << np.int64(32)) - 1)
        si = (key >> np.int64(32)).astype(np.int64)
        return pa.table({"source": pa.array(usrc[si]), "token": pa.array(tok)})

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # distinct (source, token) membership matrix T (tokens x sources);
        # ALL pair counts at once via the integer Gram T^T T — the diagonal
        # is each source's distinct count in this bucket, off-diagonal the
        # co-occurrence (no vocab x sources^2 row blow-up)
        usrc, si = np.unique(g["source"].to_numpy(), return_inverse=True)
        utok, ti = np.unique(g["token"].to_numpy(np.int64), return_inverse=True)
        key = ti.astype(np.int64) * usrc.size + si
        key = np.unique(key)
        T = np.zeros((utok.size, usrc.size), dtype=np.int64)
        T[key // usrc.size, key % usrc.size] = 1
        G = T.T @ T
        ia, ib = np.triu_indices(usrc.size)
        cnt = G[ia, ib]
        keep = cnt > 0
        return pd.DataFrame(
            {
                "a": usrc[ia[keep]],
                "b": usrc[ib[keep]],
                "cnt": cnt[keep],
            }
        )

    from datafiller_ray.stages.exchange import coarse_map_groups, grouped_sum

    partials = ds.map_batches(
        # batch_size=None: dedup whole blocks — per-1024-row micro-batches
        # collapse far fewer duplicate (source, token) pairs pre-exchange
        pair_partial, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    )
    pairs = coarse_map_groups(partials, "token", bucket_pairs, n_buckets=n_buckets)
    summed = grouped_sum(pairs, ["a", "b"], "cnt")

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        empty = pa.table(
            {
                "source_a": pa.array([], type=pa.string()),
                "source_b": pa.array([], type=pa.string()),
                "n_a": pa.array([], type=pa.int64()),
                "n_b": pa.array([], type=pa.int64()),
                "n_common": pa.array([], type=pa.int64()),
                "jaccard": pa.array([], type=pa.float64()),
            }
        )
        if len(df) == 0:
            return empty
        sizes = df[df["a"] == df["b"]].set_index("a")["cnt"]
        off = df[df["a"] != df["b"]]
        if len(off) == 0:
            return empty
        na = sizes.loc[off["a"]].to_numpy(np.int64)
        nb = sizes.loc[off["b"]].to_numpy(np.int64)
        c = off["cnt"].to_numpy(np.int64)
        jac = c.astype(np.float64) / (na + nb - c).astype(np.float64)
        jac = np.floor(jac * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "source_a": pa.array(off["a"].to_numpy()),
                "source_b": pa.array(off["b"].to_numpy()),
                "n_a": pa.array(na),
                "n_b": pa.array(nb),
                "n_common": pa.array(c),
                "jaccard": pa.array(jac),
            }
        )

    return summed.repartition(1).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )


def first_digit_profile(ds, *, value_col: str = "n_tok"):
    """Per-source first-significant-digit census of a positive integer
    column (the Benford's-law fraud/synthetic-data screen: organic count
    distributions lean log-uniform, fabricated ones don't). Emits
    (source, digit 1..9, cnt, frac) with ``frac`` the single pinned
    division cnt / total under the shared 6-decimal floor-half-up.

    The first digit is extracted with EXACT integer arithmetic (ten
    vectorized halving-by-ten passes — float log10 misrounds near powers
    of ten); rows with value <= 0 are excluded from the census on both
    sides. Scale shape: each block collapses to <= |sources| * 9 partial
    rows, ONE bounded grouped_sum exchange."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        src = t["source"].to_numpy(zero_copy_only=False)
        pos = v > 0
        v = v[pos].copy()
        src = src[pos]
        for _ in range(18):  # int64 has at most 19 digits
            big = v >= 10
            if not big.any():
                break
            v[big] //= 10
        df = pd.DataFrame({"source": src, "digit": v})
        agg = df.groupby(["source", "digit"], sort=False, as_index=False).size()
        return pa.table(
            {
                "source": pa.array(agg["source"].to_numpy()),
                "digit": pa.array(agg["digit"].to_numpy(np.int64)),
                "cnt": pa.array(agg["size"].to_numpy(np.int64)),
            }
        )

    from datafiller_ray.stages.exchange import grouped_sum

    summed = grouped_sum(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["source", "digit"],
        "cnt",
    )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("source")["cnt"].transform("sum").to_numpy(np.int64)
        cnt = g["cnt"].to_numpy(np.int64)
        frac = cnt.astype(np.float64) / tot.astype(np.float64)
        frac = np.floor(frac * 1e6 + 0.5) / 1e6
        return pd.DataFrame(
            {
                "source": g["source"].to_numpy(),
                "digit": g["digit"].to_numpy(np.int64),
                "cnt": cnt,
                "frac": frac,
            }
        )

    # per-source totals need all of a source's digit rows together: group
    # by source (bounded: <= 9 rows per source after the sum)
    return summed.groupby("source").map_groups(finish, batch_format="pandas")


RRF_SCALE = 10**12  # exact-integer reciprocal-rank grid: c = SCALE // (K + r)


def hybrid_rrf(
    docs,
    embeddings,
    query_text: str,
    query_vec,
    *,
    k_list: int = 20,
    k: int = 10,
    rrf_k: int = 60,
    query_vec_id: int = 0,
):
    """Hybrid lexical + semantic retrieval fused with reciprocal-rank
    fusion (Cormack/Clarke/Buettcher's RRF): the BM25 top-``k_list`` list
    over ``docs`` and the exact-cosine top-``k_list`` list over
    ``embeddings`` each contribute ``RRF_SCALE // (rrf_k + rank)`` per
    doc — EXACT integer division on the 1e-12 grid, so the fused score is
    an order-independent integer sum (no float RRF accumulation to
    diverge from the oracle) — and the fused top-``k`` breaks ties by
    doc_id ascending.

    Scale design: both input lists are already bounded (<= k_list rows
    each after their own partial-top-k reductions), so the fusion is a
    union of two tiny datasets, one doc_id grouped_sum over <= 2*k_list
    rows, and a single-block final sort. The heavy lifting stays inside
    the two existing operators (bm25_topk's integer-partial exchanges,
    brute_force_topk's per-batch partial top-k); fusion adds no
    corpus-sized exchange of its own.
    """
    import numpy as np
    import pandas as pd

    from datafiller_ray.stages.exchange import grouped_sum

    if k <= 0 or k_list <= 0:
        raise EngineValueError(f"k/k_list must be positive, got {k}/{k_list}")
    if rrf_k < 0:
        raise EngineValueError(f"rrf_k must be >= 0, got {rrf_k}")

    from datafiller_ray.pipelines.ann import brute_force_topk

    bm = bm25_topk(docs, query_text, k=k_list)

    def bm_contrib(b: pd.DataFrame) -> pd.DataFrame:
        # the list is <= k_list rows: one block after repartition(1)
        b = b.sort_values(
            ["score", "doc_id"], ascending=[False, True]
        ).reset_index(drop=True)
        r = np.arange(1, len(b) + 1, dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "c": RRF_SCALE // (rrf_k + r),
            }
        )

    ann = brute_force_topk(
        embeddings,
        np.asarray([query_vec_id], dtype=np.int64),
        np.asarray(query_vec, dtype=np.float64).reshape(1, -1),
        k=k_list,
    )

    def ann_contrib(b: pd.DataFrame) -> pd.DataFrame:
        r = b["rank"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": b["vec_id"].to_numpy(np.int64),
                "c": RRF_SCALE // (rrf_k + r),
            }
        )

    fused = grouped_sum(
        bm.repartition(1)
        .map_batches(bm_contrib, batch_format="pandas")
        .union(ann.map_batches(ann_contrib, batch_format="pandas")),
        ["doc_id"],
        ["c"],
    )

    def final(b: pd.DataFrame) -> pd.DataFrame:
        b = b.rename(columns={"c": "rrf_e12"})
        b = b.sort_values(
            ["rrf_e12", "doc_id"], ascending=[False, True]
        ).head(k).reset_index(drop=True)
        b["rank"] = np.arange(1, len(b) + 1, dtype=np.int64)
        return b[["rank", "doc_id", "rrf_e12"]]

    return fused.repartition(1).map_batches(final, batch_format="pandas")


def chao1_richness(input_path, *, n_buckets: int = 64):
    """Chao1 vocabulary-richness estimate per source over the CONTRACT
    table's token ids: distinct tokens D plus the bias-corrected
    singleton/doubleton tail ``f1 (f1 - 1) / (2 (f2 + 1))`` — the "how
    much vocabulary has this feed NOT shown yet" census read next to
    vocab_growth (trajectory) and oov_rate (end state).

    Physical plan mirrors vocab_growth: per-batch (source, token) count
    partials flatten zero-copy and pre-aggregate BEFORE the one bounded
    coarse-key exchange; the f1/f2 indicator pass collapses to <=
    n_sources rows through a second tiny exchange; D/f1/f2 stay exact
    integers and the estimator is ONE pinned float chain under round6.
    """
    import pandas as pd
    import ray.data

    from datafiller_ray.stages.exchange import grouped_sum

    def counts(t: "pa.Table") -> pd.DataFrame:
        lens = np.asarray(pc.list_value_length(t["tokens"]), dtype=np.int64)
        parent = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        toks = np.asarray(pc.list_flatten(t["tokens"]), dtype=np.int64)
        dict_arr = pc.dictionary_encode(t["source"].combine_chunks())
        uniq = np.asarray(dict_arr.dictionary.to_pandas(), dtype=object)
        src = uniq[np.asarray(dict_arr.indices)][parent]
        df = pd.DataFrame(
            {"source": src, "token": toks, "cnt": np.ones(len(src), np.int64)}
        )
        return df.groupby(["source", "token"], sort=False, as_index=False)[
            "cnt"
        ].sum()

    ds = ray.data.read_parquet(input_path, columns=["source", "tokens"])
    partials = ds.map_batches(counts, batch_format="pyarrow")
    per_token = grouped_sum(
        partials, ["source", "token"], "cnt", n_buckets=n_buckets
    )

    def indicators(df: pd.DataFrame) -> pd.DataFrame:
        c = df["cnt"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "source": df["source"],
                "n_distinct": np.ones(len(df), np.int64),
                "f1": (c == 1).astype(np.int64),
                "f2": (c == 2).astype(np.int64),
            }
        )

    summed = grouped_sum(
        per_token.map_batches(indicators, batch_format="pandas"),
        ["source"],
        ["n_distinct", "f1", "f2"],
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        d = b["n_distinct"].to_numpy(np.int64)
        f1 = b["f1"].to_numpy(np.int64)
        f2 = b["f2"].to_numpy(np.int64)
        # bias-corrected Chao1; f1 (f1 - 1) is an exact integer numerator
        chao1 = d + f1 * (f1 - 1) / (2.0 * (f2 + 1))
        out = b.copy()
        out["chao1"] = np.floor(chao1 * 1e6 + 0.5) / 1e6
        return out

    return summed.map_batches(finish, batch_format="pandas")




def _bigram_occurrences(input_path, *, with_source: bool = False):
    """Per-document bigram multiplicities (doc_id, key, m) over the
    contract table, key packed ``a << 32 | b`` (token ids are int32, so
    the pack is collision-free): vectorized per-batch extraction plus a
    batch-local multiplicity fold, so a doc's repeated bigram is ONE row
    and every downstream exchange shrinks. ``with_source`` carries the
    doc's source column through (constant per doc, so the fold keys are
    unchanged logically) for consumers that need per-source output
    without a second doc-level join."""
    import pandas as pd
    import ray.data

    cols = ["doc_id", "tokens"] + (["source"] if with_source else [])

    def bigrams(t: "pa.Table") -> pd.DataFrame:
        lens = np.asarray(pc.list_value_length(t["tokens"]), dtype=np.int64)
        flat = np.asarray(pc.list_flatten(t["tokens"]), dtype=np.int64)
        ends = np.cumsum(lens)
        # drop each row's LAST position: bigram (a, b) at every other slot
        keep = np.ones(flat.size, dtype=bool)
        keep[ends[lens > 0] - 1] = False
        a = flat[keep]
        b = np.roll(flat, -1)[keep]
        parent = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)[keep]
        data = {
            "doc_id": np.asarray(t["doc_id"], dtype=object)[parent],
            "key": (a << 32) | b,
        }
        gkeys = ["doc_id", "key"]
        if with_source:
            data["source"] = np.asarray(t["source"], dtype=object)[parent]
            gkeys = ["source", "doc_id", "key"]
        occ = pd.DataFrame(data)
        return occ.groupby(gkeys, sort=False).size().reset_index(name="m")

    ds = (
        input_path.select_columns(cols)
        if isinstance(input_path, ray.data.Dataset)
        else ray.data.read_parquet(input_path, columns=cols)
    )
    return ds.map_batches(bigrams, batch_format="pyarrow")


def _bigram_counts(occ, *, n_buckets: int = 64):
    """Corpus bigram count table ``c2(key, c2)`` as a DATASET
    (distinct-bigram-sized, never collected): per-batch partial counts
    through one coarse-key grouped_sum exchange."""
    import pandas as pd

    from datafiller_ray.stages.exchange import grouped_sum

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("key", sort=False, as_index=False)["m"].sum()
        return g.rename(columns={"m": "c2"})

    return grouped_sum(
        occ.map_batches(count_partial, batch_format="pandas"),
        "key",
        "c2",
        n_buckets=n_buckets,
    )


def _arrow_blocks(blocks):
    """Normalize a ``to_arrow_refs`` result: empty (or legacy) blocks can
    surface as pandas frames; convert any stragglers and drop empties."""
    import pandas as pd

    out = []
    for b in blocks:
        if isinstance(b, pd.DataFrame):
            b = pa.Table.from_pandas(b, preserve_index=False)
        if b.num_rows:
            out.append(b)
    return out


def _kn_count_tables(occ, *, n_buckets: int = 64):
    """ONE coarse-key count exchange emitting three row kinds per bucket
    (columns ``kind, key, v1, v2``, all int64):

    - kind 0 — the exact count-table rows: ``key`` = packed bigram,
      ``v1`` = corpus count c2 (every distinct bigram);
    - kind 1 — the a-side vocabulary fold: ``key`` = a, ``v1`` =
      c1 = sum of c2 over bigrams starting at a, ``v2`` = N1+(a, *)
      distinct continuations;
    - kind 2 — the b-side fold: ``key`` = b, ``v1`` = N1+(*, b)
      distinct contexts.

    The folds ride the SAME exchange's reduce tasks (each is
    vocabulary-bounded per bucket — token ids < 2^16 by contract), so
    bigram/KN scoring needs no second fold exchange. The key property
    downstream: the broadcast collect can filter kind-0 to the
    NON-SINGLETON rows only, because a lookup miss then means c2 == 1
    exactly (every scored bigram exists in the corpus, so absence from
    the >= 2 table pins its count) — on natural corpora singletons
    dominate the distinct-bigram table, so the driver/broadcast footprint
    drops by that factor while results stay bit-identical."""
    import pandas as pd

    from datafiller_ray.stages.exchange import coarse_map_groups

    def count_partial(df: pd.DataFrame) -> "pa.Table":
        # pure projection, no batch-local fold: occ rows are per-DOC
        # multiplicities already, and cross-doc overlap within a batch is
        # ~2% on natural corpora (measured 83.1M occ -> 81.8M distinct),
        # so a second pandas groupby here costs more than the rows it
        # removes from the exchange
        return pa.table(
            {
                "key": df["key"].to_numpy(np.int64),
                "c2": df["m"].to_numpy(np.int64),
            }
        )

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("key", sort=True, as_index=False)["c2"].sum()
        key = s["key"].to_numpy(np.int64)
        c2 = s["c2"].to_numpy(np.int64)
        a = (key >> 32).astype(np.int64)
        b = (key & 0xFFFFFFFF).astype(np.int64)
        # vocab-dense bucket folds (a, b < 2^16): weighted sums are exact
        # integers below 2^53
        sum_a = np.bincount(a, weights=c2)
        cnt_a = np.bincount(a)
        occ_a = np.flatnonzero(cnt_a)
        cnt_b = np.bincount(b)
        occ_b = np.flatnonzero(cnt_b)
        z = np.zeros(occ_a.size, dtype=np.int64)
        frames = [
            pd.DataFrame(
                {
                    "kind": np.zeros(key.size, dtype=np.int64),
                    "key": key,
                    "v1": c2,
                    "v2": np.zeros(key.size, dtype=np.int64),
                }
            ),
            pd.DataFrame(
                {
                    "kind": z + 1,
                    "key": occ_a,
                    "v1": sum_a[occ_a].astype(np.int64),
                    "v2": cnt_a[occ_a].astype(np.int64),
                }
            ),
            pd.DataFrame(
                {
                    "kind": np.full(occ_b.size, 2, dtype=np.int64),
                    "key": occ_b,
                    "v1": cnt_b[occ_b].astype(np.int64),
                    "v2": np.zeros(occ_b.size, dtype=np.int64),
                }
            ),
        ]
        return pd.concat(frames, ignore_index=True)

    return coarse_map_groups(
        occ.map_batches(count_partial, batch_format="pandas"),
        "key",
        reduce_bucket,
        n_buckets=n_buckets,
    ).materialize()


def _collect_kn_folds(tables):
    """Driver-side dense vocabulary folds from :func:`_kn_count_tables`:
    (ac1, ana, bnb) int64 arrays of length 2^16 — per-bucket fold rows
    are <= occupied-vocab-sized each, so the collect is bounded by
    ``n_buckets * 2^16`` rows regardless of corpus size."""
    import ray

    def fold_rows(t: "pa.Table") -> "pa.Table":
        return t.filter(pc.greater_equal(t["kind"], 1))

    blocks = ray.get(
        tables.map_batches(fold_rows, batch_format="pyarrow").to_arrow_refs()
    )
    blocks = _arrow_blocks(blocks)
    V = 1 << 16
    if not blocks:
        z = np.zeros(V, dtype=np.int64)
        return z, z.copy(), z.copy()

    def col(name: str) -> np.ndarray:
        return np.concatenate(
            [
                c.to_numpy(zero_copy_only=False)
                for b in blocks
                for c in b[name].chunks
            ]
        ).astype(np.int64, copy=False)

    kind, key, v1, v2 = col("kind"), col("key"), col("v1"), col("v2")
    k1 = kind == 1
    k2 = kind == 2
    ac1 = np.bincount(key[k1], weights=v1[k1], minlength=V).astype(np.int64)
    ana = np.bincount(key[k1], weights=v2[k1], minlength=V).astype(np.int64)
    bnb = np.bincount(key[k2], weights=v1[k2], minlength=V).astype(np.int64)
    return ac1, ana, bnb


#: the failures a size-gated broadcast collect recovers from by taking the
#: co-partition path; any other error (a failing map fn, a bad input) is
#: a real failure and propagates
_BROADCAST_OUT_OF_MEMORY = (ObjectStoreFullError, OutOfMemoryError)


def _collect_nonsingleton_counts(tables, broadcast_rows):
    """Size-gated broadcast collect of the kind-0 rows with c2 >= 2 from
    :func:`_kn_count_tables` as (sorted keys, counts) numpy arrays, or
    None above the gate / when gating is disabled (broadcast_rows=0)."""
    import ray

    if not broadcast_rows:
        return None

    def nonsingleton(t: "pa.Table") -> "pa.Table":
        f = t.filter(
            pc.and_(pc.equal(t["kind"], 0), pc.greater_equal(t["v1"], 2))
        )
        return pa.table({"key": f["key"], "c2": f["v1"]})

    try:
        ns = tables.map_batches(
            nonsingleton, batch_format="pyarrow"
        ).materialize()
        if ns.count() > broadcast_rows:
            return None
        blocks = ray.get(ns.to_arrow_refs())
    except _BROADCAST_OUT_OF_MEMORY as e:
        _log.warning(
            "non-singleton count broadcast ran out of memory (%s); "
            "falling back to the co-partition path", type(e).__name__,
        )
        return None
    blocks = _arrow_blocks(blocks)
    if not blocks:
        z = np.zeros(0, dtype=np.int64)
        return z, z

    def col(name: str) -> np.ndarray:
        return np.concatenate(
            [
                c.to_numpy(zero_copy_only=False)
                for b in blocks
                for c in b[name].chunks
            ]
        ).astype(np.int64, copy=False)

    keys, cnts = col("key"), col("c2")
    order = np.argsort(keys, kind="stable")
    return keys[order], cnts[order]


def _kind0_counts(tables):
    """The full (key, c2) count Dataset view of :func:`_kn_count_tables`
    — singletons included — for the co-partition scoring path."""

    def kind0(t: "pa.Table") -> "pa.Table":
        f = t.filter(pc.equal(t["kind"], 0))
        return pa.table({"key": f["key"], "c2": f["v1"]})

    return tables.map_batches(kind0, batch_format="pyarrow")


def _broadcast_table(c2, broadcast_rows):
    """Size gate for the broadcast-vs-shuffle join selection: return the
    count table collected to the driver as (sorted keys, counts) numpy
    arrays when it fits ``broadcast_rows`` (~16 B/row — the 120M default
    is a ~2 GB ray.put, shared zero-copy by every worker on the node;
    above it the caller keeps the co-partition, the 100-TB shape).
    ``c2`` must be materialized so the count() probe is a metadata read.

    The collect path is zero-copy Arrow block refs -> one numpy
    concatenate per column (the pandas detour cost ~4 s at 82M rows);
    the stable argsort is effectively linear here because the bucketed
    exchange delivers per-bucket sorted runs (timsort merges runs)."""
    import ray

    if not broadcast_rows:
        return None
    try:
        if c2.count() > broadcast_rows:
            return None
        blocks = ray.get(c2.to_arrow_refs())  # zero-copy plasma reads
    except _BROADCAST_OUT_OF_MEMORY as e:
        _log.warning(
            "count table broadcast ran out of memory (%s); "
            "falling back to the co-partition path", type(e).__name__,
        )
        return None
    blocks = _arrow_blocks(blocks)
    if not blocks:  # zero bigrams
        z = np.zeros(0, dtype=np.int64)
        return z, z
    def col(name: str) -> np.ndarray:
        chunks = [
            c.to_numpy(zero_copy_only=False)
            for b in blocks
            for c in b[name].chunks
        ]
        return np.concatenate(chunks).astype(np.int64, copy=False)

    keys, cnts = col("key"), col("c2")
    order = np.argsort(keys, kind="stable")
    return keys[order], cnts[order]


def _score_broadcast(
    input_path, c2_arrays, nll_fn, *, with_source=False, default_count=None
):
    """Broadcast fast path of :func:`_score_occurrences`: the count table
    fit the broadcast budget, so pin it once in the object store as two
    sorted numpy arrays (``ray.put`` -> zero-copy shared memory on every
    node) and score docs in ONE shuffle-free map pass over the ORIGINAL
    input — each input row IS a whole document, so the per-doc mean folds
    in-batch with ``np.add.reduceat`` and no doc exchange exists at all.
    Classic size-gated broadcast-vs-shuffle join selection; the caller
    falls back to the co-partition above the gate. Same output contract
    and 6-dp absorber as the co-partition path (summation order differs;
    both sides absorb). ``with_source`` also emits the doc's source
    column (free here — each input row is a whole document), so callers
    that tier per source skip a doc-level join exchange entirely.
    ``default_count`` enables the singleton-pruned broadcast contract of
    :func:`_collect_nonsingleton_counts`: a lookup miss takes that exact
    count (the pruned table only omits keys whose count it pins)."""
    import pandas as pd
    import ray
    import ray.data

    c2_ref = ray.put(c2_arrays)
    cols = ["doc_id", "tokens"] + (["source"] if with_source else [])

    def score(t: "pa.Table") -> pd.DataFrame:
        keys_r, c2_r = ray.get(c2_ref)
        lens = np.asarray(pc.list_value_length(t["tokens"]), dtype=np.int64)
        flat = np.asarray(pc.list_flatten(t["tokens"]), dtype=np.int64)
        ends = np.cumsum(lens)
        keep = np.ones(flat.size, dtype=bool)
        keep[ends[lens > 0] - 1] = False
        a = flat[keep]
        b = np.roll(flat, -1)[keep]
        key_l = (a << 32) | b
        nb = np.maximum(lens - 1, 0)
        has = nb > 0
        if not has.any():
            out = {
                "doc_id": np.empty(0, dtype=object),
                "n_bigrams": np.empty(0, dtype=np.int64),
                "mean_nll": np.empty(0, dtype=np.float64),
            }
            if with_source:
                out["source"] = np.empty(0, dtype=object)
            return pd.DataFrame(out)
        if default_count is None:
            c2v = c2_r[np.searchsorted(keys_r, key_l)]
        elif keys_r.size == 0:
            c2v = np.full(key_l.size, default_count, dtype=np.int64)
        else:
            pos = np.minimum(
                np.searchsorted(keys_r, key_l), keys_r.size - 1
            )
            c2v = np.where(
                keys_r[pos] == key_l, c2_r[pos], np.int64(default_count)
            )
        nll = nll_fn(key_l, c2v)
        # bigram rows are doc-major, so per-doc sums are one reduceat over
        # the has-docs' start offsets (zero-length docs were filtered, so
        # the offsets are strictly increasing)
        starts = np.concatenate(([0], np.cumsum(nb)[:-1]))
        sums = np.add.reduceat(nll, starts[has])
        out = {
            "doc_id": np.asarray(t["doc_id"], dtype=object)[has],
            "n_bigrams": nb[has],
            "mean_nll": np.round(sums / nb[has], 6),
        }
        if with_source:
            out["source"] = np.asarray(t["source"], dtype=object)[has]
        return pd.DataFrame(out)

    ds = ray.data.read_parquet(input_path, columns=cols)
    return ds.map_batches(score, batch_format="pyarrow")


def _score_occurrences(
    occ, c2, nll_fn, *, n_buckets: int = 64, with_source: bool = False
):
    """Score every bigram occurrence against the count table through ONE
    coarse-bucket co-partition and fold per document.

    Occurrence rows (``m >= 1``) and c2 rows (``m == 0`` marks the count
    side) share one ``coarse_map_groups`` exchange on ``key`` — so every
    bigram's count lands in the same task as all
    its occurrences (NOT the fine-key equi_join, whose per-group kernel
    costs a UDF call per distinct bigram); the in-bucket merge is one
    vectorized searchsorted. ``nll_fn(key_l, c2v)`` maps the aligned
    int64 occurrence keys and their corpus counts to per-occurrence float
    NLL terms (broadcast lookup refs live in its closure; it is called
    once per bucket on whole arrays). A per-doc partial fold inside the
    bucket means the final doc exchange carries at most
    ``n_buckets x docs`` rows, never the occurrences. Output:
    (doc_id, n_bigrams, mean_nll) with the shared 6-dp round-even
    absorber on the mean (term order differs from SQL's AVG; both sides
    absorb). This is the at-scale default; the public scorers gate into
    :func:`_score_broadcast` when the count table fits the broadcast
    budget (pass ``broadcast_rows=0`` to force this path — pytest pins
    both paths equal). ``with_source`` requires ``occ`` built with
    ``with_source=True`` and rides the source label through the doc fold
    (constant per doc, so joining it into the fold keys changes nothing
    logically) for callers that tier per source without a second doc
    join."""
    import pandas as pd

    from datafiller_ray.stages.exchange import coarse_map_groups, grouped_sum

    doc_keys = ["doc_id"] + (["source"] if with_source else [])

    def occ_tag(df: pd.DataFrame) -> pd.DataFrame:
        out = {
            "doc_id": df["doc_id"].to_numpy(object),
            "key": df["key"].to_numpy(np.int64),
            "m": df["m"].to_numpy(np.int64),
            "c2": np.zeros(len(df), dtype=np.int64),
        }
        if with_source:
            out["source"] = df["source"].to_numpy(object)
        return pd.DataFrame(out)

    def c2_tag(df: pd.DataFrame) -> pd.DataFrame:
        out = {
            "doc_id": np.full(len(df), "", dtype=object),
            "key": df["key"].to_numpy(np.int64),
            "m": np.zeros(len(df), dtype=np.int64),
            "c2": df["c2"].to_numpy(np.int64),
        }
        if with_source:
            out["source"] = np.full(len(df), "", dtype=object)
        return pd.DataFrame(out)

    tagged = occ.map_batches(occ_tag, batch_format="pandas").union(
        c2.map_batches(c2_tag, batch_format="pandas")
    )

    def bucket_merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g["m"].to_numpy(np.int64)
        is_occ = m > 0
        keys_r = g["key"].to_numpy(np.int64)[~is_occ]
        c2_r = g["c2"].to_numpy(np.int64)[~is_occ]
        ro = np.argsort(keys_r, kind="stable")
        keys_r, c2_r = keys_r[ro], c2_r[ro]
        key_l = g["key"].to_numpy(np.int64)[is_occ]
        if key_l.size == 0:
            out = {
                "doc_id": np.empty(0, dtype=object),
                "n_bigrams": np.empty(0, dtype=np.int64),
                "nll_sum": np.empty(0, dtype=np.float64),
            }
            if with_source:
                out["source"] = np.empty(0, dtype=object)
            return pd.DataFrame(out)
        pos = np.searchsorted(keys_r, key_l)
        c2v = c2_r[pos]  # every scored bigram has a count by construction
        nll = nll_fn(key_l, c2v)
        part = {
            "doc_id": g["doc_id"].to_numpy(object)[is_occ],
            "n_bigrams": m[is_occ],
            "nll_sum": m[is_occ].astype(np.float64) * nll,
        }
        if with_source:
            part["source"] = g["source"].to_numpy(object)[is_occ]
        return (
            pd.DataFrame(part)
            .groupby(doc_keys, sort=False, as_index=False)[
                ["n_bigrams", "nll_sum"]
            ]
            .sum()
        )

    summed = grouped_sum(
        coarse_map_groups(tagged, "key", bucket_merge, n_buckets=n_buckets),
        doc_keys,
        ["n_bigrams", "nll_sum"],
        n_buckets=n_buckets,
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        mean = b["nll_sum"].to_numpy(np.float64) / b["n_bigrams"].to_numpy(
            np.int64
        )
        out = {
            "doc_id": b["doc_id"].to_numpy(object),
            "n_bigrams": b["n_bigrams"].to_numpy(np.int64),
            "mean_nll": np.round(mean, 6),
        }
        if with_source:
            out["source"] = b["source"].to_numpy(object)
        return pd.DataFrame(out)

    return summed.map_batches(finish, batch_format="pandas")


def bigram_logprob(
    input_path, *, n_buckets: int = 64, broadcast_rows: int = 120_000_000
):
    """Per-document bigram-LM negative log-likelihood over the CONTRACT
    table's token ids — the sequence-level complement of the word-level
    ``unigram_logprob`` quality score (docs whose token transitions are
    atypical for the corpus score high): ``mean_nll = avg over bigrams of
    -ln( c(a,b) / c(a->*) )`` with MLE transition probabilities trained
    on the corpus itself (every scored bigram therefore has a count; no
    smoothing constant to pin).

    Physical plan — nothing unbounded reaches the driver: bigram
    multiplicities (:func:`_bigram_occurrences`) -> the tagged count+fold
    exchange (:func:`_kn_count_tables`, whose reduce tasks emit the
    vocabulary-bounded ``c1`` fold alongside the counts — no second fold
    exchange) -> either the singleton-pruned broadcast score pass (a
    lookup miss pins c2 == 1 exactly) or, above the gate, the shared
    coarse-bucket scoring co-partition (:func:`_score_occurrences`)
    against the full count view. The dense vocab-indexed ``c1`` array
    broadcasts via one ``ray.put`` on both paths.

    Output: (doc_id, n_bigrams, mean_nll).
    """
    import ray

    occ = _bigram_occurrences(input_path)
    tables = _kn_count_tables(occ, n_buckets=n_buckets)
    ac1, _, _ = _collect_kn_folds(tables)
    c1_ref = ray.put(ac1)

    def nll(key_l: np.ndarray, c2v: np.ndarray) -> np.ndarray:
        ac1_ = ray.get(c1_ref)
        c1 = ac1_[key_l >> 32]
        return np.log(c1.astype(np.float64)) - np.log(
            c2v.astype(np.float64)
        )

    bc = _collect_nonsingleton_counts(tables, broadcast_rows)
    if bc is not None:
        return _score_broadcast(input_path, bc, nll, default_count=1)

    return _score_occurrences(
        occ, _kind0_counts(tables), nll, n_buckets=n_buckets
    )


def kn_bigram_logprob(
    input_path,
    *,
    discount: float = 0.75,
    n_buckets: int = 64,
    broadcast_rows: int = 120_000_000,
    with_source: bool = False,
):
    """Interpolated Kneser-Ney smoothed bigram scoring per document — the
    classic LM-quality filter shape (CCNet-style perplexity filtering):

        P_KN(b | a) = max(c(a,b) - d, 0) / c(a)
                      + (d * N1+(a, *) / c(a)) * (N1+(*, b) / N1+(*, *))

    with fixed absolute discount ``d`` (default 0.75), ``N1+(a, *)`` the
    distinct continuations of ``a``, ``N1+(*, b)`` the distinct contexts
    of ``b`` (the continuation-probability numerator that makes KN KN),
    and ``N1+(*, *)`` the distinct-bigram total. ``mean_nll`` is the
    per-document average of ``-ln P_KN`` over its bigrams; lower = more
    corpus-typical.

    Physical plan: :func:`_kn_count_tables` — ONE coarse-key count
    exchange whose reduce tasks also emit the two vocabulary-bounded KN
    continuation folds ((c1, N1+(a,*)) by ``a``, N1+(*,b) by ``b``), so
    no second fold exchange exists. The folds collect into DENSE
    vocab-indexed driver arrays (token ids < 2^16 by contract) and
    broadcast via one ``ray.put``; the distinct-bigram total is their
    driver-scalar sum. The broadcast count table is SINGLETON-PRUNED
    (c2 >= 2 rows only — a lookup miss pins c2 == 1 exactly), which cuts
    the collected/broadcast footprint by the singleton fraction of the
    distinct-bigram table (~60x on the bench fixture). Above the gate
    the co-partition path scores against the full kind-0 count view
    with the same dense fold arrays (no grouped_sum folds either way).
    The per-occurrence probability mirrors the oracle's expression tree
    term for term; only the summation order differs, absorbed by the
    shared 6-dp round-even mean.

    Output: (doc_id, n_bigrams, mean_nll).
    """
    import ray

    d = float(discount)
    if not (0.0 < d < 1.0):
        raise EngineValueError(f"discount must be in (0, 1), got {discount}")

    occ = _bigram_occurrences(input_path, with_source=with_source)
    # the tagged count+fold table pins once inside _kn_count_tables: it
    # feeds the fold collect, the gate probe, and the scoring path, and a
    # lazy Dataset would re-run its exchange per consumer (measured ~2x
    # the pipeline wall at sf0.01). Vocab^2-bounded, spillable, never
    # driver-collected beyond the pruned/fold slices; occ stays lazy
    # (map-only recompute is cheap).
    tables = _kn_count_tables(occ, n_buckets=n_buckets)

    ac1, ana, bnb = _collect_kn_folds(tables)
    total_bc = float(ana.sum())  # N1+(*, *) = distinct bigrams
    ab_ref = ray.put((ac1, ana, bnb))

    def nll_kn(key_l: np.ndarray, c2v: np.ndarray) -> np.ndarray:
        ac1_, ana_, bnb_ = ray.get(ab_ref)
        pa_ = key_l >> 32
        pb_ = key_l & 0xFFFFFFFF
        c1 = ac1_[pa_].astype(np.float64)
        na = ana_[pa_].astype(np.float64)
        nb = bnb_[pb_].astype(np.float64)
        # mirror the oracle expression tree exactly, term for term
        p = np.maximum(c2v.astype(np.float64) - d, 0.0) / c1 + (
            d * na / c1
        ) * (nb / total_bc)
        return -np.log(p)

    bc = _collect_nonsingleton_counts(tables, broadcast_rows)
    if bc is not None:
        return _score_broadcast(
            input_path, bc, nll_kn, with_source=with_source, default_count=1
        )

    return _score_occurrences(
        occ,
        _kind0_counts(tables),
        nll_kn,
        n_buckets=n_buckets,
        with_source=with_source,
    )



def gt_coverage(input_path, *, n_buckets: int = 64):
    """Simple Good-Turing coverage estimate per source over the CONTRACT
    table's token ids: the Turing estimator puts the probability mass of
    UNSEEN vocabulary at ``f1 / N`` (singleton types over total token
    occurrences), so ``coverage = 1 - f1/N`` says how saturated each
    feed's vocabulary already is — the probability-mass companion to
    chao1_richness's type-count estimate (Good 1953; the missing-mass
    view used to decide whether a source still yields novel tokens).

    Physical plan is the chao1 census: per-batch (source, token) count
    partials pre-aggregate before one bounded coarse-key exchange; the
    indicator pass collapses to <= n_sources rows through a second tiny
    exchange; N and f1 stay exact integers and the estimator is one
    pinned float division per source under round6.

    Output: (source, n_tokens, f1, unseen_mass, coverage).
    """
    import pandas as pd
    import ray.data

    from datafiller_ray.stages.exchange import grouped_sum

    def counts(t: "pa.Table") -> pd.DataFrame:
        lens = np.asarray(pc.list_value_length(t["tokens"]), dtype=np.int64)
        parent = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        toks = np.asarray(pc.list_flatten(t["tokens"]), dtype=np.int64)
        dict_arr = pc.dictionary_encode(t["source"].combine_chunks())
        uniq = np.asarray(dict_arr.dictionary.to_pandas(), dtype=object)
        src = uniq[np.asarray(dict_arr.indices)][parent]
        df = pd.DataFrame(
            {"source": src, "token": toks, "cnt": np.ones(len(src), np.int64)}
        )
        return df.groupby(["source", "token"], sort=False, as_index=False)[
            "cnt"
        ].sum()

    ds = ray.data.read_parquet(input_path, columns=["source", "tokens"])
    per_token = grouped_sum(
        ds.map_batches(counts, batch_format="pyarrow"),
        ["source", "token"],
        "cnt",
        n_buckets=n_buckets,
    )

    def indicators(df: pd.DataFrame) -> pd.DataFrame:
        c = df["cnt"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "source": df["source"],
                "n_tokens": c,
                "f1": (c == 1).astype(np.int64),
            }
        )

    summed = grouped_sum(
        per_token.map_batches(indicators, batch_format="pandas"),
        ["source"],
        ["n_tokens", "f1"],
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n_tokens"].to_numpy(np.int64).astype(np.float64)
        f1 = b["f1"].to_numpy(np.int64).astype(np.float64)
        unseen = f1 / n
        out = b.copy()
        out["unseen_mass"] = np.floor(unseen * 1e6 + 0.5) / 1e6
        out["coverage"] = np.floor((1.0 - unseen) * 1e6 + 0.5) / 1e6
        return out

    return summed.map_batches(finish, batch_format="pandas")


def doc_lexical_stats(input_path):
    """Per-document lexical-diversity and repetition signals over the
    CONTRACT table's token ids — the Gopher-style within-doc quality
    gates (Rae et al. 2021 use repetition fractions exactly like these to
    drop degenerate documents before training):

    - ``ttr`` — type-token ratio ``n_types / n_tok`` (lexical diversity);
    - ``hapax_frac`` — fraction of TYPES occurring exactly once;
    - ``dup_bigram_frac`` — fraction of bigram positions whose bigram
      repeats within the doc (``(n_bigrams - distinct) / n_bigrams``),
      the loop/boilerplate detector.

    Entirely within-document, so the physical plan is ONE zero-shuffle
    ``map_batches`` pass: per-batch the token lists flatten zero-copy,
    per-doc distinct (token) and (bigram) counts come from packed-int64
    ``np.unique`` / lexsort runs (token ids are int32, so ``parent <<
    32 | token`` and ``a << 32 | b`` are collision-free), and every
    ratio is one pinned float division under round6 half-up. Degenerate
    docs pin to 0.0 (no tokens -> ttr/hapax 0, no bigrams -> dup 0).

    Output: (doc_id, n_tok, n_types, n_hapax, ttr, hapax_frac,
    dup_bigram_frac).
    """
    import pandas as pd
    import ray.data

    def stats(t: "pa.Table") -> pd.DataFrame:
        n = t.num_rows
        lens = np.asarray(pc.list_value_length(t["tokens"]), dtype=np.int64)
        flat = np.asarray(pc.list_flatten(t["tokens"]), dtype=np.int64)
        parent = np.repeat(np.arange(n, dtype=np.int64), lens)
        # distinct (doc, token) pairs + within-doc multiplicities
        pk = (parent << 32) | flat
        uniq, cnt = np.unique(pk, return_counts=True)
        up = uniq >> 32
        n_types = np.bincount(up, minlength=n).astype(np.int64)
        n_hapax = np.bincount(up[cnt == 1], minlength=n).astype(np.int64)
        # distinct (doc, bigram) pairs via one lexsort run over packed v
        ends = np.cumsum(lens)
        keep = np.ones(flat.size, dtype=bool)
        keep[ends[lens > 0] - 1] = False
        a = flat[keep]
        b = np.roll(flat, -1)[keep]
        bp = parent[keep]
        v = (a << 32) | b
        order = np.lexsort((v, bp))
        bps, vs = bp[order], v[order]
        first = np.ones(bps.size, dtype=bool)
        first[1:] = (bps[1:] != bps[:-1]) | (vs[1:] != vs[:-1])
        n_distinct_bg = np.bincount(bps[first], minlength=n).astype(np.int64)
        n_bigrams = np.maximum(lens - 1, 0)

        def pinned_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
            ok = den > 0
            out = np.zeros(n, dtype=np.float64)
            r = num[ok].astype(np.float64) / den[ok].astype(np.float64)
            out[ok] = np.floor(r * 1e6 + 0.5) / 1e6
            return out

        return pd.DataFrame(
            {
                "doc_id": np.asarray(t["doc_id"], dtype=object),
                "n_tok": lens,
                "n_types": n_types,
                "n_hapax": n_hapax,
                "ttr": pinned_div(n_types, lens),
                "hapax_frac": pinned_div(n_hapax, n_types),
                "dup_bigram_frac": pinned_div(
                    n_bigrams - n_distinct_bg, n_bigrams
                ),
            }
        )

    ds = ray.data.read_parquet(input_path, columns=["doc_id", "tokens"])
    return ds.map_batches(stats, batch_format="pyarrow")


def ppl_tercile(
    input_path,
    *,
    discount: float = 0.75,
    n_tiles: int = 3,
    n_buckets: int = 64,
    coarse_width: int = 8192,
):
    """CCNet-style perplexity partition of the corpus: every document is
    assigned a head/middle/tail tier PER SOURCE by its Kneser-Ney bigram
    mean NLL (Wenzek et al. 2020 split Common Crawl into LM-perplexity
    terciles per language exactly like this to grade web data quality;
    sources play the language role here).

    Physical plan: :func:`kn_bigram_logprob` produces doc-level scores
    (already bounded — one row per doc); a slim (doc_id, source)
    projection joins them through ONE coarse co-partition on
    ``hash(doc_id) % n_buckets`` (both sides doc-level, vectorized
    pandas merge per bucket). The tile pass is a DISTRIBUTED exact
    NTILE — no task ever holds a whole source: mean_nll is 6-dp pinned,
    so ``nll_int = rint(mean_nll * 1e6)`` is an exact int64 preorder and
    coarse score cells ``nll_int // coarse_width`` give (a) a bounded
    driver table of per-cell counts (sources x occupied cells, never
    docs) whose per-source cumulative sum is every cell's global start
    rank, broadcast once, and (b) the co-partition key for the rank
    pass, where each task ranks only its cells' docs by (nll_int,
    doc_id) and applies the SQL NTILE fill rule — first ``n % k`` tiles
    take the extra row — so the ``NTILE(k) OVER (PARTITION BY source
    ORDER BY mean_nll, doc_id)`` oracle matches row-for-row. Narrow
    ``coarse_width`` if one score window ever dominates a corpus. Docs
    with no bigram (n_tok < 2) have no score and no tier, matching the
    oracle's inner join.

    Output: (doc_id, source, n_bigrams, mean_nll, ppl_tile).
    """
    import pandas as pd
    import ray.data

    from datafiller_ray.stages.exchange import coarse_map_groups, grouped_sum

    if n_tiles < 1:
        raise EngineValueError(f"n_tiles must be >= 1, got {n_tiles}")
    if coarse_width < 1:
        raise EngineValueError(
            f"coarse_width must be >= 1, got {coarse_width}"
        )

    # scores carry the source label straight out of the scoring pass
    # (with_source=True: each input row is a whole document on the
    # broadcast path, and the occurrence fold keys on (doc_id, source)
    # on the co-partition path), so the former doc-level co-partition
    # join of scores back onto (doc_id, source) is gone — one fewer
    # corpus-scale union + exchange (~5 s at sf0.1).
    #
    # Pin the doc-level scores once: they feed BOTH the cell-count pass
    # and the rank pass, and a lazy Dataset would re-run the entire
    # KN-scoring chain per consumer. One row per doc — the exact table
    # being ranked — spillable, not collected.
    joined = kn_bigram_logprob(
        input_path,
        discount=discount,
        n_buckets=n_buckets,
        with_source=True,
    ).materialize()

    # ---- distributed exact NTILE over (mean_nll, doc_id) per source ----
    # mean_nll is 6-dp pinned, so nll_int = rint(mean_nll * 1e6) is an
    # exact int64 total preorder; coarse cells cb = nll_int //
    # coarse_width give (a) a BOUNDED driver table of per-cell counts
    # (sources x occupied cells, never docs) whose per-source cumsum is
    # every cell's global start rank, and (b) the co-partition key for
    # the rank pass, so no task ever holds a whole source — only the
    # docs of its cells (narrow coarse_width if one score window ever
    # dominates a corpus). Ties inside a cell rank by doc_id, matching
    # NTILE's ORDER BY (mean_nll, doc_id) row-for-row.
    import ray

    def cell_partial(df: pd.DataFrame) -> pd.DataFrame:
        nll_int = np.rint(
            df["mean_nll"].to_numpy(np.float64) * 1e6
        ).astype(np.int64)
        out = pd.DataFrame(
            {
                "source": df["source"].to_numpy(object),
                "cb": nll_int // coarse_width,
                "cnt": np.ones(len(df), dtype=np.int64),
            }
        )
        return out.groupby(["source", "cb"], sort=False, as_index=False)[
            "cnt"
        ].sum()

    cells = (
        grouped_sum(
            joined.map_batches(cell_partial, batch_format="pandas"),
            ["source", "cb"],
            "cnt",
            n_buckets=n_buckets,
        ).to_pandas()  # sources x occupied score cells, NOT docs
    ).sort_values(["source", "cb"], kind="stable")
    cum = cells.groupby("source", sort=False)["cnt"].cumsum().to_numpy(
        np.int64
    )
    cells = cells.assign(start=cum - cells["cnt"].to_numpy(np.int64))
    totals = cells.groupby("source", sort=False, as_index=False)["cnt"].sum()
    totals = totals.rename(columns={"cnt": "n_scored"})
    rank_ref = ray.put(
        (cells[["source", "cb", "start"]], totals)
    )

    def cell_tag(df: pd.DataFrame) -> pd.DataFrame:
        nll_int = np.rint(
            df["mean_nll"].to_numpy(np.float64) * 1e6
        ).astype(np.int64)
        out = df[["doc_id", "source", "n_bigrams", "mean_nll"]].copy()
        out["_nll_int"] = nll_int
        out["_cb"] = nll_int // coarse_width
        return out

    def rank_assign(g: pd.DataFrame) -> pd.DataFrame:
        starts, totals_b = ray.get(rank_ref)
        g = g.merge(
            starts.rename(columns={"cb": "_cb"}), on=["source", "_cb"]
        )
        g = g.sort_values(
            ["source", "_nll_int", "doc_id"], kind="mergesort"
        ).reset_index(drop=True)
        local = g.groupby(["source", "_cb"], sort=False).cumcount().to_numpy(
            np.int64
        )
        rank0 = g["start"].to_numpy(np.int64) + local
        tot_map = dict(zip(totals_b["source"], totals_b["n_scored"]))
        nn = g["source"].map(tot_map).to_numpy(np.int64)
        q = nn // n_tiles
        r = nn % n_tiles
        big = rank0 < r * (q + 1)
        tile = np.where(
            big,
            rank0 // np.maximum(q + 1, 1) + 1,
            (rank0 - r * (q + 1)) // np.maximum(q, 1) + r + 1,
        ).astype(np.int64)
        out = g[["doc_id", "source", "n_bigrams", "mean_nll"]].copy()
        out["ppl_tile"] = tile
        return out

    return coarse_map_groups(
        joined.map_batches(cell_tag, batch_format="pandas"),
        ["source", "_cb"],
        rank_assign,
        n_buckets=n_buckets,
    )


def heaps_fit(input_path, *, step: int = 3600, n_buckets: int = 64):
    """Heaps-law fit per source: OLS of ``ln V`` on ``ln N`` over the
    hourly vocabulary-growth snapshots (``V ~ K N^beta``; Heaps 1978) —
    the scalar summary of the :func:`vocab_growth` trajectory that
    tokenizer/vocab-budget planning actually consumes (beta near 1 means
    the feed keeps minting new ids; beta << 1 means the vocabulary is
    saturating, read next to chao1_richness/gt_coverage).

    Snapshot points are the ACTIVE hours (any tokens observed): N is the
    exact cumulative token count per source, V the running vocabulary
    carried forward from vocab_growth's first-seen buckets (vocab_size
    is nondecreasing, so a running max fills hours that minted no new
    type — the SQL oracle mirrors with ``MAX(...) OVER``). Both tables
    are bounded (sources x hours), so the fit pass groups per source
    under the same contract as every window operator; sums are math.fsum
    and the OLS expression tree mirrors the zipf_fit oracle, divergence
    absorbed by round6. Degenerate fits (n < 2 points, zero x-variance)
    are omitted.

    Output: (source, n_points, beta, log_k, r2).
    """
    import math

    import pandas as pd
    import ray.data

    from datafiller_ray.stages.exchange import grouped_sum
    from datafiller_ray.stages.validate import extract_epoch_minute

    if step < 60 or step % 60:
        raise EngineValueError(
            f"step must be a positive multiple of 60, got {step}"
        )

    vg = vocab_growth(input_path, step=step, n_buckets=n_buckets)

    def tok_partial(t: pa.Table) -> pd.DataFrame:
        ts = np.asarray(extract_epoch_minute(t["doc_id"])) * 60
        hb = ts - ts % step
        df = pd.DataFrame(
            {
                "source": np.asarray(t["source"], dtype=object),
                "bucket_ts": hb.astype(np.int64),
                "tok_cnt": np.asarray(t["n_tok"], dtype=np.int64),
            }
        )
        return df.groupby(
            ["source", "bucket_ts"], sort=False, as_index=False
        )["tok_cnt"].sum()

    ntab = grouped_sum(
        ray.data.read_parquet(
            input_path, columns=["doc_id", "source", "n_tok"]
        ).map_batches(tok_partial, batch_format="pyarrow"),
        ["source", "bucket_ts"],
        "tok_cnt",
        n_buckets=n_buckets,
    )

    def n_tag(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "source": df["source"].to_numpy(object),
                "bucket_ts": df["bucket_ts"].to_numpy(np.int64),
                "tok_cnt": df["tok_cnt"].to_numpy(np.int64),
                "vocab_size": np.zeros(len(df), dtype=np.int64),
                "_side": np.zeros(len(df), dtype=np.int64),
            }
        )

    def v_tag(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "source": df["source"].to_numpy(object),
                "bucket_ts": df["bucket_ts"].to_numpy(np.int64),
                "tok_cnt": np.zeros(len(df), dtype=np.int64),
                "vocab_size": df["vocab_size"].to_numpy(np.int64),
                "_side": np.ones(len(df), dtype=np.int64),
            }
        )

    tagged = ntab.map_batches(n_tag, batch_format="pandas").union(
        vg.map_batches(v_tag, batch_format="pandas")
    )

    def fit(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "n_points": pd.Series([], dtype=np.int64),
                "beta": pd.Series([], dtype=np.float64),
                "log_k": pd.Series([], dtype=np.float64),
                "r2": pd.Series([], dtype=np.float64),
            }
        )
        outs = []
        for src, sub in g.groupby("source", sort=True):
            nrows = sub[sub["_side"] == 0].sort_values("bucket_ts")
            vrows = sub[sub["_side"] == 1].sort_values("bucket_ts")
            if len(nrows) < 2:
                continue
            nts = nrows["bucket_ts"].to_numpy(np.int64)
            cum_n = np.cumsum(nrows["tok_cnt"].to_numpy(np.int64))
            vts = vrows["bucket_ts"].to_numpy(np.int64)
            vsz = vrows["vocab_size"].to_numpy(np.int64)
            # running vocab carried forward onto the active-hour grid
            pos = np.searchsorted(vts, nts, side="right") - 1
            if np.any(pos < 0):
                continue  # defensive: first active hour always mints
            v = vsz[pos]
            lx = np.log(cum_n.astype(np.float64))
            ly = np.log(v.astype(np.float64))
            fs = math.fsum
            n = float(lx.size)
            sx, sy = fs(lx), fs(ly)
            sxy, sxx, syy = fs(lx * ly), fs(lx * lx), fs(ly * ly)
            den = n * sxx - sx * sx
            if den <= 0.0:
                continue
            beta = (n * sxy - sx * sy) / den
            logk = (sy * sxx - sx * sxy) / den
            dy = n * syy - sy * sy
            r2 = (
                ((n * sxy - sx * sy) * (n * sxy - sx * sy)) / (den * dy)
                if dy > 0.0
                else 1.0
            )
            outs.append(
                pd.DataFrame(
                    {
                        "source": np.array([src], dtype=object),
                        "n_points": np.array([lx.size], dtype=np.int64),
                        "beta": np.floor(
                            np.array([beta]) * 1e6 + 0.5
                        ) / 1e6,
                        "log_k": np.floor(
                            np.array([logk]) * 1e6 + 0.5
                        ) / 1e6,
                        "r2": np.floor(np.array([r2]) * 1e6 + 0.5) / 1e6,
                    }
                )
            )
        if not outs:
            return empty
        return pd.concat(outs, ignore_index=True)

    return tagged.groupby("source").map_groups(fit, batch_format="pandas")


def entropy_rate(input_path, *, n_buckets: int = 64):
    """Per-source bigram conditional entropy rate over the CONTRACT
    table's token ids — the information-theoretic LM-difficulty summary
    (Shannon 1951's entropy-rate estimate at bigram order):

    ``H(B|A) = -sum_{a,b} (c2/N) ln(c2/c1)`` where ``c2`` counts bigram
    ``(a, b)`` within the source, ``c1 = sum_b c2`` its context count and
    ``N`` the source's total bigrams. Low values mean token transitions
    are predictable (templated/boilerplate feeds); high values mean the
    stream is close to context-free (compare ``doc_entropy``, which is
    per-document and order-free). Also reports the context entropy
    ``H(A) = ln N - (1/N) sum_a c1 ln c1`` so the pair gives the bigram
    joint entropy ``H(A) + H(B|A)`` for free.

    Physical plan mirrors the bigram-count passes of
    :func:`bigram_logprob` restricted to per-source totals: per-batch
    (source, packed-key) partials -> one bounded coarse-key exchange ->
    a (source, context) fold carrying exact integer counts plus the
    float ``c2 ln c2`` moment -> a tiny per-source exchange. No pass
    ships the token arrays past the first projection; every float moment
    enters ONE pinned expression per source under the engine-wide
    round6 floor-half-up absorber (ulp-order divergence vs SQL SUM
    absorbed, heaps_fit precedent). Sources with zero bigrams (every
    doc shorter than 2 tokens) are omitted, matching the SQL oracle's
    inner joins.

    Output: (source, n_bigrams, n_distinct, cond_entropy,
    context_entropy).
    """
    import pandas as pd
    import ray.data

    from datafiller_ray.stages.exchange import grouped_sum

    def bigram_partials(t: "pa.Table") -> pd.DataFrame:
        lens = np.asarray(pc.list_value_length(t["tokens"]), dtype=np.int64)
        flat = np.asarray(pc.list_flatten(t["tokens"]), dtype=np.int64)
        ends = np.cumsum(lens)
        keep = np.ones(flat.size, dtype=bool)
        keep[ends[lens > 0] - 1] = False  # drop each doc's last token
        a = flat[keep]
        b = np.roll(flat, -1)[keep]
        nb = np.maximum(lens - 1, 0)
        dict_arr = pc.dictionary_encode(t["source"].combine_chunks())
        uniq = np.asarray(dict_arr.dictionary.to_pandas(), dtype=object)
        src = np.repeat(uniq[np.asarray(dict_arr.indices)], nb)
        df = pd.DataFrame(
            {
                "source": src,
                "key": (a << 32) | b,
                "cnt": np.ones(src.size, np.int64),
            }
        )
        return df.groupby(["source", "key"], sort=False, as_index=False)[
            "cnt"
        ].sum()

    ds = ray.data.read_parquet(input_path, columns=["source", "tokens"])
    c2 = grouped_sum(
        ds.map_batches(bigram_partials, batch_format="pyarrow"),
        ["source", "key"],
        "cnt",
        n_buckets=n_buckets,
    )

    def context_partial(df: pd.DataFrame) -> pd.DataFrame:
        c = df["cnt"].to_numpy(np.int64)
        cf = c.astype(np.float64)
        return pd.DataFrame(
            {
                "source": df["source"],
                "a": df["key"].to_numpy(np.int64) >> 32,
                "c1": c,
                "nd": np.ones(c.size, np.int64),
                "s2": cf * np.log(cf),
            }
        )

    # c2 rows are already unique per (source, key), so nd sums to the
    # distinct-bigram count and s2 to sum c2*ln(c2) over bigram types
    ctx = grouped_sum(
        c2.map_batches(context_partial, batch_format="pandas"),
        ["source", "a"],
        ["c1", "nd", "s2"],
        n_buckets=n_buckets,
    )

    def source_partial(df: pd.DataFrame) -> pd.DataFrame:
        c1 = df["c1"].to_numpy(np.int64)
        c1f = c1.astype(np.float64)
        return pd.DataFrame(
            {
                "source": df["source"],
                "n_bigrams": c1,
                "n_distinct": df["nd"].to_numpy(np.int64),
                "s2": df["s2"].to_numpy(np.float64),
                "s1": c1f * np.log(c1f),
            }
        )

    summed = grouped_sum(
        ctx.map_batches(source_partial, batch_format="pandas"),
        ["source"],
        ["n_bigrams", "n_distinct", "s2", "s1"],
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n_bigrams"].to_numpy(np.int64).astype(np.float64)
        s1 = b["s1"].to_numpy(np.float64)
        s2 = b["s2"].to_numpy(np.float64)
        return pd.DataFrame(
            {
                "source": b["source"],
                "n_bigrams": b["n_bigrams"].to_numpy(np.int64),
                "n_distinct": b["n_distinct"].to_numpy(np.int64),
                "cond_entropy": np.floor((s1 - s2) / n * 1e6 + 0.5) / 1e6,
                "context_entropy": np.floor(
                    (np.log(n) - s1 / n) * 1e6 + 0.5
                )
                / 1e6,
            }
        )

    return summed.map_batches(finish, batch_format="pandas")


def dsir_weights(
    input_path,
    target_sources,
    *,
    n_feat_buckets: int = 8192,
    n_buckets: int = 64,
):
    """DSIR-style importance log-weights per document (Xie et al. 2023,
    "Data Selection for Language Models via Importance Resampling"):
    score every raw document by how much its hashed n-gram feature
    profile looks like a TARGET slice of the corpus, so a downstream
    sampler can resample the raw feed toward the target distribution.

    Features are hashed bigrams ``f = splitmix64((a << 32) | b) mod
    n_feat_buckets`` over the CONTRACT token ids (the paper's hashed
    n-gram generative model at bigram order). With add-1 smoothed bucket
    unigram models ``p_t(f) = (ct_f + 1) / (T + B)`` (target) and
    ``p_r(f) = (cr_f + 1) / (R + B)`` (raw = whole corpus), the log
    importance weight of a doc is ``sum_i ln p_t(f_i) - ln p_r(f_i)``
    over its bigram occurrences.

    Physical plan — the 100-TB shape: ONE counting pass folds per-batch
    ``np.bincount`` partials through a B-bounded exchange (B =
    n_feat_buckets rows, never the corpus); the B-row weight vector is
    then pinned once via ``ray.put`` and the scoring pass is a single
    shuffle-free ``map_batches`` over the original input (per-doc sums
    fold in-batch with ``np.add.reduceat``). No doc-level exchange
    exists at all. Docs with no bigrams are omitted (no features to
    weigh), matching the SQL oracle's joins; float term order differs
    from SQL's SUM, both absorbed by the engine-wide round6 floor-half-up.

    Output: (doc_id, n_feats, log_weight).
    """
    import pandas as pd
    import ray
    import ray.data

    from datafiller_ray.stages.exchange import grouped_sum

    targets = sorted(set(target_sources))
    if not targets:
        raise EngineValueError("target_sources must be non-empty")
    if n_feat_buckets < 2:
        raise EngineValueError(
            f"n_feat_buckets must be >= 2, got {n_feat_buckets}"
        )
    tset = frozenset(targets)
    B = int(n_feat_buckets)

    def _features(t: "pa.Table"):
        """(feature ids, per-doc bigram counts) for a batch."""
        lens = np.asarray(pc.list_value_length(t["tokens"]), dtype=np.int64)
        flat = np.asarray(pc.list_flatten(t["tokens"]), dtype=np.int64)
        ends = np.cumsum(lens)
        keep = np.ones(flat.size, dtype=bool)
        keep[ends[lens > 0] - 1] = False
        a = flat[keep]
        b = np.roll(flat, -1)[keep]
        key = ((a << 32) | b).astype(np.uint64)
        f = (splitmix64(key) % np.uint64(B)).astype(np.int64)
        return f, np.maximum(lens - 1, 0)

    def count_partial(t: "pa.Table") -> pd.DataFrame:
        f, nb = _features(t)
        dict_arr = pc.dictionary_encode(t["source"].combine_chunks())
        uniq = np.asarray(dict_arr.dictionary.to_pandas(), dtype=object)
        is_t = np.isin(uniq, np.asarray(targets, dtype=object))[
            np.asarray(dict_arr.indices)
        ]
        occ_t = np.repeat(is_t, nb)
        cr = np.bincount(f, minlength=B)
        ct = np.bincount(f[occ_t], minlength=B)
        nz = np.flatnonzero(cr)
        return pd.DataFrame(
            {
                "f": nz.astype(np.int64),
                "ct": ct[nz].astype(np.int64),
                "cr": cr[nz].astype(np.int64),
            }
        )

    ds = ray.data.read_parquet(input_path, columns=["source", "tokens"])
    counts = grouped_sum(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["f"],
        ["ct", "cr"],
        n_buckets=max(1, n_buckets // 4),
    ).to_pandas()  # bounded: <= n_feat_buckets rows by construction

    ct = np.zeros(B, dtype=np.int64)
    cr = np.zeros(B, dtype=np.int64)
    if len(counts):
        ct[counts["f"].to_numpy(np.int64)] = counts["ct"].to_numpy(np.int64)
        cr[counts["f"].to_numpy(np.int64)] = counts["cr"].to_numpy(np.int64)
    T = int(ct.sum())
    R = int(cr.sum())
    w = (np.log(ct + 1.0) - np.log(float(T + B))) - (
        np.log(cr + 1.0) - np.log(float(R + B))
    )
    w_ref = ray.put(w)

    def score(t: "pa.Table") -> pd.DataFrame:
        wv = ray.get(w_ref)
        f, nb = _features(t)
        has = nb > 0
        if not has.any():
            return pd.DataFrame(
                {
                    "doc_id": np.empty(0, dtype=object),
                    "n_feats": np.empty(0, dtype=np.int64),
                    "log_weight": np.empty(0, dtype=np.float64),
                }
            )
        starts = np.concatenate(([0], np.cumsum(nb)[:-1]))
        sums = np.add.reduceat(wv[f], starts[has])
        return pd.DataFrame(
            {
                "doc_id": np.asarray(t["doc_id"], dtype=object)[has],
                "n_feats": nb[has],
                "log_weight": np.floor(sums * 1e6 + 0.5) / 1e6,
            }
        )

    scored = ray.data.read_parquet(input_path, columns=["doc_id", "tokens"])
    return scored.map_batches(score, batch_format="pyarrow")


def source_ngram_overlap(input_path, *, n: int = 3, n_buckets: int = 64):
    """Cross-source n-gram contamination matrix over the CONTRACT
    token ids: for every ordered source pair (a, b), the fraction of
    a's DISTINCT token n-grams (``n`` of 2 or 3) that also occur
    anywhere in b — ``overlap = |G_a intersect G_b| / |G_a|``. The
    n-gram-level companion to ``vocab_overlap`` (unigram Jaccard) and
    ``hygiene.decontaminate`` (probe-set k-grams): high overlap between
    nominally distinct feeds flags shared upstream scrapes before they
    poison held-out splits. Pairs with an empty intersection are
    omitted (SQL inner-join semantics).

    n-grams pack exactly into int64 (vocab < 2^16 per FIXTURES.md F1:
    ``(t0 << 32) | (t1 << 16) | t2`` at n=3, ``(t0 << 16) | t1`` at
    n=2) so the whole census runs on integer keys. Physical plan: per-batch DISTINCT (source, key)
    partials -> one coarse-key exchange collapses global duplicates ->
    the distinct table is pinned once (two consumers) -> a key-keyed
    coarse exchange co-locates each trigram's source set and a
    vectorized self-merge emits ordered-pair partials (bounded by
    n_sources^2 per key) -> a tiny pair exchange sums, with per-source
    denominators broadcast via ``ray.put``. Token arrays never shuffle;
    the widest exchange carries one row per distinct (source, trigram).

    Output: (source_a, source_b, n_a, n_common, overlap).
    """
    import pandas as pd
    import ray
    import ray.data

    from datafiller_ray.stages.exchange import coarse_map_groups, grouped_sum

    if n not in (2, 3):
        raise EngineValueError(f"n must be 2 or 3, got {n}")

    def tri_partial(t: "pa.Table") -> pd.DataFrame:
        lens = np.asarray(pc.list_value_length(t["tokens"]), dtype=np.int64)
        flat = np.asarray(pc.list_flatten(t["tokens"]), dtype=np.int64)
        ends = np.cumsum(lens)
        keep = np.ones(flat.size, dtype=bool)
        for off in range(1, n):
            keep[ends[lens >= off] - off] = False
        if n == 2:
            key = (flat[keep] << 16) | np.roll(flat, -1)[keep]
        else:
            key = (
                (flat[keep] << 32)
                | (np.roll(flat, -1)[keep] << 16)
                | np.roll(flat, -2)[keep]
            )
        nt = np.maximum(lens - (n - 1), 0)
        dict_arr = pc.dictionary_encode(t["source"].combine_chunks())
        uniq = np.asarray(dict_arr.dictionary.to_pandas(), dtype=object)
        src = np.repeat(uniq[np.asarray(dict_arr.indices)], nt)
        df = pd.DataFrame(
            {
                "source": src,
                "key": key,
                "cnt": np.ones(src.size, np.int64),
            }
        ).drop_duplicates(["source", "key"])
        return df

    ds = ray.data.read_parquet(input_path, columns=["source", "tokens"])
    # one row per distinct (source, trigram) after the exchange; pinned
    # because it feeds BOTH the denominator fold and the pair census
    distinct = grouped_sum(
        ds.map_batches(tri_partial, batch_format="pyarrow"),
        ["source", "key"],
        "cnt",
        n_buckets=n_buckets,
    ).materialize()

    ones = distinct.map_batches(
        lambda df: pd.DataFrame(
            {"source": df["source"], "n_a": np.ones(len(df), np.int64)}
        ),
        batch_format="pandas",
    )
    na = grouped_sum(ones, ["source"], "n_a").to_pandas()  # <= n_sources
    na_ref = ray.put(
        dict(zip(na["source"].tolist(), na["n_a"].to_numpy(np.int64)))
    )

    def pair_partial(g: pd.DataFrame) -> pd.DataFrame:
        m = g[["source", "key"]].merge(
            g[["source", "key"]], on="key", suffixes=("_a", "_b")
        )
        m = m[m["source_a"] != m["source_b"]]
        if not len(m):
            return pd.DataFrame(
                {
                    "source_a": pd.Series([], dtype=object),
                    "source_b": pd.Series([], dtype=object),
                    "n_common": pd.Series([], dtype=np.int64),
                }
            )
        out = (
            m.groupby(["source_a", "source_b"], sort=False, as_index=False)
            .size()
            .rename(columns={"size": "n_common"})
        )
        out["n_common"] = out["n_common"].astype(np.int64)
        return out

    pairs = grouped_sum(
        coarse_map_groups(
            distinct.select_columns(["source", "key"]),
            "key",
            pair_partial,
            n_buckets=n_buckets,
        ),
        ["source_a", "source_b"],
        "n_common",
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(na_ref)
        n_a = np.array(
            [lut[s] for s in b["source_a"]], dtype=np.int64
        )
        return pd.DataFrame(
            {
                "source_a": b["source_a"],
                "source_b": b["source_b"],
                "n_a": n_a,
                "n_common": b["n_common"].to_numpy(np.int64),
                "overlap": np.floor(
                    b["n_common"].to_numpy(np.int64) / n_a * 1e6 + 0.5
                )
                / 1e6,
            }
        )

    return pairs.map_batches(finish, batch_format="pandas")


def yule_k(input_path, *, n_buckets: int = 64):
    """Yule's characteristic K per source over the CONTRACT token ids —
    the classic repetitiveness / vocabulary-concentration statistic
    (Yule 1944): ``K = 1e4 * (sum_t c_t^2 - N) / N^2`` with ``c_t`` the
    source-level count of token t and N the total occurrences. K is
    (asymptotically) independent of text length, so it compares feeds of
    different sizes directly: high K = a few tokens dominate
    (templated/boilerplate feeds); low K = flat usage. Reads next to
    ``token_diversity`` (per-doc TTR) and ``source_gini``.

    Physical plan is the gt_coverage census: per-batch (source, token)
    partials pre-aggregate before one bounded coarse-key exchange; the
    second moment collapses to <= n_sources rows through a second tiny
    exchange; all moments stay exact integers and K is one pinned float
    expression per source under round6.

    Output: (source, n_tokens, n_types, yule_k).
    """
    import pandas as pd
    import ray.data

    from datafiller_ray.stages.exchange import grouped_sum

    def counts(t: "pa.Table") -> pd.DataFrame:
        lens = np.asarray(pc.list_value_length(t["tokens"]), dtype=np.int64)
        parent = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        toks = np.asarray(pc.list_flatten(t["tokens"]), dtype=np.int64)
        dict_arr = pc.dictionary_encode(t["source"].combine_chunks())
        uniq = np.asarray(dict_arr.dictionary.to_pandas(), dtype=object)
        src = uniq[np.asarray(dict_arr.indices)][parent]
        df = pd.DataFrame(
            {"source": src, "token": toks, "cnt": np.ones(len(src), np.int64)}
        )
        return df.groupby(["source", "token"], sort=False, as_index=False)[
            "cnt"
        ].sum()

    ds = ray.data.read_parquet(input_path, columns=["source", "tokens"])
    per_token = grouped_sum(
        ds.map_batches(counts, batch_format="pyarrow"),
        ["source", "token"],
        "cnt",
        n_buckets=n_buckets,
    )

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        c = df["cnt"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "source": df["source"],
                "n_tokens": c,
                "n_types": np.ones(c.size, np.int64),
                "sq": c * c,
            }
        )

    summed = grouped_sum(
        per_token.map_batches(moments, batch_format="pandas"),
        ["source"],
        ["n_tokens", "n_types", "sq"],
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n_tokens"].to_numpy(np.int64).astype(np.float64)
        sq = b["sq"].to_numpy(np.int64).astype(np.float64)
        return pd.DataFrame(
            {
                "source": b["source"],
                "n_tokens": b["n_tokens"].to_numpy(np.int64),
                "n_types": b["n_types"].to_numpy(np.int64),
                "yule_k": np.floor(
                    1e4 * (sq - n) / (n * n) * 1e6 + 0.5
                )
                / 1e6,
            }
        )

    return summed.map_batches(finish, batch_format="pandas")


def token_burstiness(input_path, *, min_count: int = 3, n_buckets: int = 64):
    """Church-Gale burstiness census per source: for every token whose
    source-level count reaches ``min_count``, the variance-to-mean ratio
    (VMR) of its PER-DOCUMENT counts over all of the source's documents
    (zeros included). Poisson scatter gives VMR ~ 1; VMR >> 1 marks
    bursty content words that concentrate in few documents, VMR < 1
    near-uniform function tokens (Church & Gale 1995) — the token-level
    companion to the time-axis ``window.burstiness``.

    A document is one CONTRACT row, so per-doc counts are exact within a
    batch and the only exchange carries (source, token) moment partials
    (sum, sum of squares, doc frequency); per-source document totals are
    a tiny second exchange broadcast into the finish pass. VMR is one
    pinned float chain (mean = c/D, ex2 = csq/D, (ex2 - mean*mean)/mean)
    under round6.

    Output: (source, token, total_cnt, df_docs, vmr).
    """
    import pandas as pd
    import ray
    import ray.data

    from datafiller_ray.stages.exchange import grouped_sum

    if min_count < 1:
        raise EngineValueError(f"min_count must be >= 1, got {min_count}")

    def per_doc_partial(t: "pa.Table") -> pd.DataFrame:
        lens = np.asarray(pc.list_value_length(t["tokens"]), dtype=np.int64)
        parent = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        toks = np.asarray(pc.list_flatten(t["tokens"]), dtype=np.int64)
        packed = (parent << 32) | toks
        uk, cnt = np.unique(packed, return_counts=True)
        dict_arr = pc.dictionary_encode(t["source"].combine_chunks())
        uniq = np.asarray(dict_arr.dictionary.to_pandas(), dtype=object)
        src = uniq[np.asarray(dict_arr.indices)][uk >> 32]
        c = cnt.astype(np.int64)
        df = pd.DataFrame(
            {
                "source": src,
                "token": uk & 0xFFFFFFFF,
                "c_sum": c,
                "c_sq": c * c,
                "df_docs": np.ones(c.size, np.int64),
            }
        )
        return df.groupby(["source", "token"], sort=False, as_index=False)[
            ["c_sum", "c_sq", "df_docs"]
        ].sum()

    ds = ray.data.read_parquet(input_path, columns=["source", "tokens"])
    st = grouped_sum(
        ds.map_batches(per_doc_partial, batch_format="pyarrow"),
        ["source", "token"],
        ["c_sum", "c_sq", "df_docs"],
        n_buckets=n_buckets,
    )

    def doc_counts(t: "pa.Table") -> pd.DataFrame:
        dict_arr = pc.dictionary_encode(t["source"].combine_chunks())
        uniq = np.asarray(dict_arr.dictionary.to_pandas(), dtype=object)
        idx = np.asarray(dict_arr.indices)
        cnt = np.bincount(idx, minlength=len(uniq)).astype(np.int64)
        return pd.DataFrame({"source": uniq, "nd": cnt})

    nd = grouped_sum(
        ray.data.read_parquet(input_path, columns=["source"]).map_batches(
            doc_counts, batch_format="pyarrow"
        ),
        ["source"],
        "nd",
    ).to_pandas()  # <= n_sources rows
    nd_ref = ray.put(
        dict(zip(nd["source"].tolist(), nd["nd"].to_numpy(np.int64)))
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(nd_ref)
        keep = b["c_sum"].to_numpy(np.int64) >= min_count
        b = b[keep]
        if not len(b):
            return pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "token": pd.Series([], dtype=np.int64),
                    "total_cnt": pd.Series([], dtype=np.int64),
                    "df_docs": pd.Series([], dtype=np.int64),
                    "vmr": pd.Series([], dtype=np.float64),
                }
            )
        d = np.array([lut[s] for s in b["source"]], dtype=np.int64).astype(
            np.float64
        )
        c = b["c_sum"].to_numpy(np.int64).astype(np.float64)
        csq = b["c_sq"].to_numpy(np.int64).astype(np.float64)
        mean = c / d
        ex2 = csq / d
        return pd.DataFrame(
            {
                "source": b["source"],
                "token": b["token"].to_numpy(np.int64),
                "total_cnt": b["c_sum"].to_numpy(np.int64),
                "df_docs": b["df_docs"].to_numpy(np.int64),
                "vmr": np.floor(
                    (ex2 - mean * mean) / mean * 1e6 + 0.5
                )
                / 1e6,
            }
        )

    return st.map_batches(finish, batch_format="pandas")


def token_pagerank(
    input_path,
    *,
    k: int = 20,
    n_iter: int = 8,
    damping_pct: int = 85,
    n_buckets: int = 64,
    broadcast_rows: int = 120_000_000,
):
    """Top-``k`` tokens by PageRank over the corpus bigram digraph — the
    graph-centrality view of the token-transition structure (which ids
    sit at the hubs of the sequence graph, vs ``vocab_topk``'s raw
    frequency): nodes are token ids, edge (a -> b) carries the corpus
    bigram count, and ``n_iter`` synchronous power-iteration steps run
    the classic damped update.

    All arithmetic is INTEGER, so the iteration is bit-reproducible
    under any partitioning: rank mass starts as ``S = 2**40`` split
    evenly over the active vocabulary, each step sends
    ``share[a] = rank[a] // out_occ[a]`` along every bigram occurrence,
    and the damped recombination is the documented fixed form

        teleport   = (100 - d) * S          // (100 * n_active)
        dang_share = d * dangling           // (100 * n_active)
        rank'[v]   = teleport + dang_share + d * inflow[v] // 100

    with ``dangling`` the mass of sink tokens plus the floor-division
    remainders. Rank mass drifts slightly downward from the floors —
    accepted and documented; the vendored oracle replicates the exact
    recurrence (the HLL/Bloom bit-exactness precedent).

    Physical plan: the :func:`bigram_logprob` count machinery — per-doc
    bigram multiplicities -> one coarse-key count exchange, materialized
    ONCE and iterated over — then per iteration a vocabulary-bounded fold
    (token ids < 2^16 by contract, so every dense vector is <= 65536
    int64s; the rank/share vectors broadcast via ``ray.put`` and the
    inflow folds through a tiny grouped_sum exchange). When the count
    table fits ``broadcast_rows`` the iterations run on the collected
    arrays instead (the size-gated broadcast fast path, equality-pinned
    to the exchange path in tests); above the gate nothing
    corpus-sized ever reaches the driver.

    Output: (rank 1..k, token, pr_mass, out_occ), ordered by final
    integer mass desc, token asc."""
    import pandas as pd
    import ray
    import ray.data

    from datafiller_ray.stages.exchange import grouped_sum

    if k < 1:
        raise EngineValueError(f"k must be >= 1, got {k}")
    if n_iter < 1:
        raise EngineValueError(f"n_iter must be >= 1, got {n_iter}")
    if not (0 < damping_pct < 100):
        raise EngineValueError(
            f"damping_pct must be in (0, 100), got {damping_pct}"
        )

    occ = _bigram_occurrences(input_path)
    c2 = _bigram_counts(occ, n_buckets=n_buckets).materialize()

    bc = _broadcast_table(c2, broadcast_rows)
    if bc is not None:
        keys_s, cnts_s = bc
        a_all = (keys_s >> 32).astype(np.int64)
        b_all = (keys_s & 0xFFFFFFFF).astype(np.int64)
    else:
        # vocabulary-bounded out-occurrence fold (the c1 fold of
        # bigram_logprob): a -> total bigram occurrences starting at a
        def a_partial(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame(
                {
                    "a": df["key"].to_numpy(np.int64) >> 32,
                    "occ": df["c2"].to_numpy(np.int64),
                }
            )
            return out.groupby("a", sort=False, as_index=False)["occ"].sum()

        def b_partial(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame(
                {
                    "b": df["key"].to_numpy(np.int64) & 0xFFFFFFFF,
                    "occ": df["c2"].to_numpy(np.int64),
                }
            )
            return out.groupby("b", sort=False, as_index=False)["occ"].sum()

        a_rows = grouped_sum(
            c2.map_batches(a_partial, batch_format="pandas"), "a", "occ"
        ).to_pandas()  # vocabulary-sized, NOT corpus-sized
        b_rows = grouped_sum(
            c2.map_batches(b_partial, batch_format="pandas"), "b", "occ"
        ).to_pandas()

    if bc is not None:
        if keys_s.size == 0:
            return ray.data.from_arrow(
                pa.table(
                    {
                        "rank": pa.array([], pa.int64()),
                        "token": pa.array([], pa.int64()),
                        "pr_mass": pa.array([], pa.int64()),
                        "out_occ": pa.array([], pa.int64()),
                    }
                )
            )
        vmax = int(max(a_all.max(), b_all.max()))
    else:
        if not len(a_rows):
            return ray.data.from_arrow(
                pa.table(
                    {
                        "rank": pa.array([], pa.int64()),
                        "token": pa.array([], pa.int64()),
                        "pr_mass": pa.array([], pa.int64()),
                        "out_occ": pa.array([], pa.int64()),
                    }
                )
            )
        vmax = int(
            max(
                a_rows["a"].to_numpy(np.int64).max(),
                b_rows["b"].to_numpy(np.int64).max(),
            )
        )
    nv = vmax + 1
    out_occ = np.zeros(nv, dtype=np.int64)
    active = np.zeros(nv, dtype=bool)
    if bc is not None:
        np.add.at(out_occ, a_all, cnts_s)
        active[a_all] = True
        active[b_all] = True
    else:
        out_occ[a_rows["a"].to_numpy(np.int64)] = a_rows["occ"].to_numpy(
            np.int64
        )
        active[a_rows["a"].to_numpy(np.int64)] = True
        active[b_rows["b"].to_numpy(np.int64)] = True
    n_active = int(active.sum())
    S = 1 << 40
    d = int(damping_pct)
    rank = np.zeros(nv, dtype=np.int64)
    rank[active] = S // n_active
    teleport = ((100 - d) * S) // (100 * n_active)
    for _ in range(n_iter):
        share = np.zeros(nv, dtype=np.int64)
        src_mask = out_occ > 0
        share[src_mask] = rank[src_mask] // out_occ[src_mask]
        if bc is not None:
            # contributions are exact int64 (share[a] * c2 <= rank[a] <= S)
            inflow = np.bincount(
                b_all,
                weights=(share[a_all] * cnts_s).astype(np.float64),
                minlength=nv,
            ).astype(np.int64)  # float64 sums exact: total mass <= 2^40
        else:
            share_ref = ray.put(share)

            def inflow_partial(df: pd.DataFrame) -> pd.DataFrame:
                sh = ray.get(share_ref)
                keys = df["key"].to_numpy(np.int64)
                contrib = sh[keys >> 32] * df["c2"].to_numpy(np.int64)
                out = pd.DataFrame(
                    {"b": keys & 0xFFFFFFFF, "inflow": contrib}
                )
                return out.groupby("b", sort=False, as_index=False)[
                    "inflow"
                ].sum()

            rows = grouped_sum(
                c2.map_batches(inflow_partial, batch_format="pandas"),
                "b",
                "inflow",
            ).to_pandas()  # vocabulary-sized
            inflow = np.zeros(nv, dtype=np.int64)
            inflow[rows["b"].to_numpy(np.int64)] = rows["inflow"].to_numpy(
                np.int64
            )
        distributed = int((share[src_mask] * out_occ[src_mask]).sum())
        dangling = int(rank[active].sum()) - distributed
        dang_share = (d * dangling) // (100 * n_active)
        new_rank = np.zeros(nv, dtype=np.int64)
        new_rank[active] = (
            teleport + dang_share + (d * inflow[active]) // 100
        )
        rank = new_rank
    # deterministic top-k: mass desc, token asc
    toks = np.flatnonzero(active)
    order = np.lexsort((toks, -rank[toks]))[:k]
    sel = toks[order]
    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "rank": np.arange(1, sel.size + 1, dtype=np.int64),
                "token": sel.astype(np.int64),
                "pr_mass": rank[sel],
                "out_occ": out_occ[sel],
            }
        )
    )


def wasserstein_drift(docs, *, value_col: str = "n_chars"):
    """Exact 1-D Wasserstein-1 (earth-mover) distance between every
    source's ``value_col`` distribution and the POOLED corpus
    distribution — the integral counterpart of :func:`source_ks` (KS is
    the max CDF gap; W1 is its area, so it sees persistent small drift KS
    underweights): ``W1 = sum_k |F_s(v_k) - F_pool(v_k)| * (v_{k+1} -
    v_k)`` over the sorted union grid of observed values.

    Same bounded exchange as ``source_ks``: only (source, value, count)
    integer partials shuffle; the driver evaluates both ECDFs on the
    shared grid with pure integer cross numerators ``|cum_s * N -
    cum_pool * n_s|`` (Python-int accumulation, immune to int64 overflow)
    and ends in one pinned division + floor-half-up round6. Sources are
    emitted only when the grid has >= 2 points (W1 needs a width).

    Output: (source, n_rows, w1).
    """
    import ray

    from datafiller_ray.stages.exchange import grouped_sum

    def count_partial(t: pa.Table) -> pa.Table:
        slim = pa.table(
            {"source": t["source"], "v": pc.cast(t[value_col], pa.int64())}
        )
        agg = slim.group_by(["source", "v"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "source": agg["source"],
                "v": agg["v"],
                "cnt": pc.cast(agg["count_all"], pa.int64()),
            }
        )

    rows = grouped_sum(
        docs.map_batches(count_partial, batch_format="pyarrow"),
        ["source", "v"],
        "cnt",
    ).to_pandas()  # sources x distinct values, NOT row-sized
    import pandas as pd

    empty = pd.DataFrame(
        {
            "source": pd.Series([], dtype="string"),
            "n_rows": pd.Series([], dtype=np.int64),
            "w1": pd.Series([], dtype=np.float64),
        }
    )
    srcs = np.asarray(sorted(rows["source"].unique()), dtype=object)
    vals = np.sort(rows["v"].unique())
    if len(rows) == 0 or vals.size < 2:
        return ray.data.from_pandas(empty)
    s_idx = {s: i for i, s in enumerate(srcs)}
    v_idx = {int(v): i for i, v in enumerate(vals)}
    C = np.zeros((srcs.size, vals.size), dtype=np.int64)
    C[
        rows["source"].map(s_idx).to_numpy(np.int64),
        rows["v"].map(v_idx).to_numpy(np.int64),
    ] = rows["cnt"].to_numpy(np.int64)
    cum = np.cumsum(C, axis=1)
    n = cum[:, -1]
    pool = cum.sum(axis=0)  # pooled ECDF numerator (int64: total rows)
    big_n = int(pool[-1])
    if int(n.max()) * big_n >= 1 << 62:
        raise EngineValueError(
            "wasserstein_drift cross numerator exceeds the exact int64 "
            "range; pre-bin the value column"
        )
    dv = np.diff(vals)
    out_s, out_n, out_w1 = [], [], []
    for i in range(srcs.size):
        if n[i] == 0:
            continue
        terms = np.abs(cum[i][:-1] * big_n - pool[:-1] * int(n[i]))
        # per-term cross numerators fit int64 under the guard; the *dv
        # products and their sum may not at corpus scale -> exact
        # Python-int accumulation
        num = sum(
            int(t) * int(d) for t, d in zip(terms.tolist(), dv.tolist())
        )
        out_s.append(srcs[i])
        out_n.append(int(n[i]))
        out_w1.append(
            np.floor(
                float(num) / float(int(n[i]) * big_n) * 1e6 + 0.5
            )
            / 1e6
        )
    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "source": np.asarray(out_s, dtype=object),
                "n_rows": np.asarray(out_n, dtype=np.int64),
                "w1": np.asarray(out_w1, dtype=np.float64),
            }
        )
    )


def lang_source_contingency(docs):
    """Chi-square contingency analysis of the source x lang table: per
    cell, the observed count, the independence-expected count
    ``row_total * col_total / n``, and the standardized Pearson residual
    ``(o - e) / sqrt(e)`` — the census that shows WHICH source/language
    pairings are over- or under-represented (residual beyond ~2 = the
    cell drives the dependence), the categorical counterpart of
    :func:`wasserstein_drift`.

    Scale shape: only (source, lang, count) integer partials shuffle
    (bounded by the cross-cardinality, not rows); margins and per-cell
    floats are a driver fold over that bounded table. Exactness: counts
    and margins are exact ints; expected/residual are the pinned
    per-cell float expressions e = double(r)*double(c)/double(n) and
    (double(o) - e)/sqrt(e), + round6. Cells with observed = 0 are
    emitted too (they carry the under-representation signal).

    Output: (source, lang, observed, expected, std_resid).
    """
    import math

    import ray

    from datafiller_ray.stages.exchange import grouped_sum

    def count_partial(t: pa.Table) -> pa.Table:
        slim = pa.table({"source": t["source"], "lang": t["lang"]})
        agg = slim.group_by(["source", "lang"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "source": agg["source"],
                "lang": agg["lang"],
                "cnt": pc.cast(agg["count_all"], pa.int64()),
            }
        )

    rows = grouped_sum(
        docs.map_batches(count_partial, batch_format="pyarrow"),
        ["source", "lang"],
        "cnt",
    ).to_pandas()  # |sources| x |langs| integer rows, NOT row-sized
    import pandas as pd

    empty = pd.DataFrame(
        {
            "source": pd.Series([], dtype="string"),
            "lang": pd.Series([], dtype="string"),
            "observed": pd.Series([], dtype=np.int64),
            "expected": pd.Series([], dtype=np.float64),
            "std_resid": pd.Series([], dtype=np.float64),
        }
    )
    if len(rows) == 0:
        return ray.data.from_pandas(empty)
    srcs = sorted(rows["source"].unique())
    langs = sorted(rows["lang"].unique())
    s_idx = {s: i for i, s in enumerate(srcs)}
    l_idx = {v: i for i, v in enumerate(langs)}
    O = np.zeros((len(srcs), len(langs)), dtype=np.int64)
    O[
        rows["source"].map(s_idx).to_numpy(np.int64),
        rows["lang"].map(l_idx).to_numpy(np.int64),
    ] = rows["cnt"].to_numpy(np.int64)
    r = O.sum(axis=1)
    c = O.sum(axis=0)
    n = int(O.sum())
    out_rows = []
    for i, s in enumerate(srcs):
        for j, lg in enumerate(langs):
            e = float(r[i]) * float(c[j]) / float(n)
            resid = (
                (float(O[i, j]) - e) / math.sqrt(e) if e > 0.0 else 0.0
            )
            out_rows.append(
                (
                    s,
                    lg,
                    int(O[i, j]),
                    np.floor(e * 1e6 + 0.5) / 1e6,
                    np.floor(resid * 1e6 + 0.5) / 1e6,
                )
            )
    out = pd.DataFrame(
        out_rows,
        columns=["source", "lang", "observed", "expected", "std_resid"],
    )
    out["observed"] = out["observed"].astype(np.int64)
    for col in ("expected", "std_resid"):
        out[col] = out[col].astype(np.float64)
    return ray.data.from_pandas(out)
