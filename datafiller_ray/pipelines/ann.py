"""Similarity search over an embedding column (list<float>).

Brute-force cosine top-k as the exact baseline: the (small) query matrix is
broadcast once via ``ray.put`` and every map task does one numpy matmul per
batch (never re-shipped per batch); per-batch partial top-k rows are then
reduced per query. The scale path (LSH-bucketed variant) hashes vectors into
``n_planes``-bit sign buckets so candidate generation is a bucket join
instead of a full scan.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data


def _batch_matrix(batch: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    ids = batch["vec_id"].to_numpy(np.int64)
    M = np.stack(batch["embedding"].to_numpy())
    return ids, M.astype(np.float64)


class BruteForceTopK:
    """Per-batch partial top-k against a broadcast query matrix."""

    def __init__(self, queries_ref, k: int) -> None:
        q = ray.get(queries_ref) if not isinstance(queries_ref, dict) else queries_ref
        self.query_ids = q["ids"]  # (nq,)
        Q = q["matrix"].astype(np.float64)  # (nq, d)
        self.Qn = Q / np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-300)
        self.k = k

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids, M = _batch_matrix(batch)
        Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
        sims = self.Qn @ Mn.T  # (nq, nb)
        k = min(self.k, ids.size)
        out = []
        for qi in range(sims.shape[0]):
            s = sims[qi]
            # deterministic partial top-k: similarity desc, vec_id asc
            order = np.lexsort((ids, -s))[:k]
            out.append(
                pd.DataFrame(
                    {
                        "query_id": self.query_ids[qi],
                        "vec_id": ids[order],
                        "sim": np.round(s[order], 6),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)


def _final_topk(k: int):
    def reduce_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return reduce_group


def brute_force_topk(
    embeddings: "ray.data.Dataset",
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    *,
    k: int = 10,
) -> "ray.data.Dataset":
    """Exact cosine top-k per query. Deterministic tie-break (sim desc,
    vec_id asc); similarities rounded to 1e-6 so the DuckDB oracle ranks
    identically."""
    ref = ray.put({"ids": np.asarray(query_ids), "matrix": np.asarray(query_matrix)})
    partial = embeddings.map_batches(
        BruteForceTopK,
        fn_constructor_args=(ref, k),
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, 8),
    )
    return partial.groupby("query_id").map_groups(
        _final_topk(k), batch_format="pandas"
    )


class FilteredTopK:
    """Metadata-filtered exact top-k: each query scores ONLY the corpus
    vectors sharing its ``label`` — the filtered-vector-search shape
    (category-restricted retrieval). The per-batch matmul runs on the
    label-pruned sub-matrices, so the filter cuts compute, not just
    output rows; queries/labels are broadcast once via ``ray.put``."""

    def __init__(self, queries_ref, k: int) -> None:
        q = ray.get(queries_ref) if not isinstance(queries_ref, dict) else queries_ref
        self.query_ids = q["ids"]  # (nq,)
        self.query_labels = np.asarray(q["labels"], np.int64)
        Q = q["matrix"].astype(np.float64)
        self.Qn = Q / np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-300)
        self.k = k

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids, M = _batch_matrix(batch)
        labels = batch["label"].to_numpy(np.int64)
        Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
        out = []
        for lab in np.unique(self.query_labels):
            bsel = np.flatnonzero(labels == lab)
            if bsel.size == 0:
                continue
            qsel = np.flatnonzero(self.query_labels == lab)
            sims = self.Qn[qsel] @ Mn[bsel].T
            k = min(self.k, bsel.size)
            sub_ids = ids[bsel]
            for row, qi in enumerate(qsel):
                s = sims[row]
                # deterministic partial top-k: similarity desc, vec_id asc
                order = np.lexsort((sub_ids, -s))[:k]
                out.append(
                    pd.DataFrame(
                        {
                            "query_id": self.query_ids[qi],
                            "vec_id": sub_ids[order],
                            "sim": np.round(s[order], 6),
                        }
                    )
                )
        if not out:
            return pd.DataFrame(
                {
                    "query_id": pd.Series([], dtype=np.int64),
                    "vec_id": pd.Series([], dtype=np.int64),
                    "sim": pd.Series([], dtype=np.float64),
                }
            )
        return pd.concat(out, ignore_index=True)


def filtered_topk(
    embeddings: "ray.data.Dataset",
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    query_labels: np.ndarray,
    *,
    k: int = 10,
) -> "ray.data.Dataset":
    """Exact cosine top-k per query restricted to corpus vectors with the
    query's ``label`` (filtered vector search). Same deterministic
    contract as :func:`brute_force_topk` (sim desc, vec_id asc, sims
    rounded to 1e-6 so the SQL oracle ranks identically); a query whose
    label has no corpus vectors emits no rows, matching the oracle's
    inner join."""
    ref = ray.put(
        {
            "ids": np.asarray(query_ids),
            "matrix": np.asarray(query_matrix),
            "labels": np.asarray(query_labels),
        }
    )
    partial = embeddings.map_batches(
        FilteredTopK,
        fn_constructor_args=(ref, k),
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, 8),
    )
    return partial.groupby("query_id").map_groups(
        _final_topk(k), batch_format="pandas"
    )


class LshCandidateTopK:
    """Approximate top-k: per batch, only vectors whose sign-bucket matches
    a query's bucket are scored (candidate pruning — at corpus scale this
    replaces the full scan with a bucket-partitioned lookup; recall trades
    off against ``n_planes``)."""

    def __init__(self, queries_ref, k: int, n_planes: int, seed: int = 7) -> None:
        q = ray.get(queries_ref) if not isinstance(queries_ref, dict) else queries_ref
        self.query_ids = q["ids"]
        Q = q["matrix"].astype(np.float64)
        self.Qn = Q / np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-300)
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((Q.shape[1], n_planes))
        signs = (Q @ self.planes) > 0
        self.qbuckets = (signs @ (1 << np.arange(n_planes))).astype(np.int64)
        self.k = k

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids, M = _batch_matrix(batch)
        signs = (M @ self.planes) > 0
        buckets = (signs @ (1 << np.arange(self.planes.shape[1]))).astype(np.int64)
        out = []
        for qi, qb in enumerate(self.qbuckets):
            cand = np.flatnonzero(buckets == qb)
            if cand.size == 0:
                continue
            Mn = M[cand] / np.maximum(
                np.linalg.norm(M[cand], axis=1, keepdims=True), 1e-300
            )
            s = Mn @ self.Qn[qi]
            k = min(self.k, cand.size)
            order = np.lexsort((ids[cand], -s))[:k]
            out.append(
                pd.DataFrame(
                    {
                        "query_id": self.query_ids[qi],
                        "vec_id": ids[cand][order],
                        "sim": np.round(s[order], 6),
                    }
                )
            )
        if not out:
            return pd.DataFrame(
                {"query_id": pd.Series([], dtype=np.int64),
                 "vec_id": pd.Series([], dtype=np.int64),
                 "sim": pd.Series([], dtype=np.float64)}
            )
        return pd.concat(out, ignore_index=True)


def lsh_topk(
    embeddings: "ray.data.Dataset",
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    *,
    k: int = 10,
    n_planes: int = 6,
) -> "ray.data.Dataset":
    """Approximate cosine top-k via sign-bucket candidate pruning (the scale
    path next to :func:`brute_force_topk`)."""
    ref = ray.put({"ids": np.asarray(query_ids), "matrix": np.asarray(query_matrix)})
    partial = embeddings.map_batches(
        LshCandidateTopK,
        fn_constructor_args=(ref, k, n_planes),
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, 8),
    )
    return partial.groupby("query_id").map_groups(
        _final_topk(k), batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# partition-pruned LSH index: queries touch only matching bucket partitions


def build_lsh_index(
    embeddings: "ray.data.Dataset",
    index_dir: str,
    *,
    dim: int,
    n_planes: int = 12,
    seed: int = 7,
) -> str:
    """Persist the embedding table hash-partitioned by LSH sign bucket
    (``index_dir/bucket=N/``) plus a manifest of the plane parameters.

    This is the I/O-pruning step LshCandidateTopK lacks: that stage prunes
    COMPUTE but still reads every batch; a query against this index reads
    only the partitions whose bucket matches (2^n_planes-fold read fan-in
    reduction at corpus scale)."""
    import json
    import os

    def add_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        rng = np.random.default_rng(seed)
        planes = rng.standard_normal((dim, n_planes))
        ids, M = _batch_matrix(batch)
        signs = (M @ planes) > 0
        batch = batch.copy()
        batch["bucket"] = (signs @ (1 << np.arange(n_planes))).astype(np.int64)
        return batch

    embeddings.map_batches(
        add_bucket, batch_format="pandas", batch_size=4096
    ).write_parquet(index_dir, partition_cols=["bucket"])
    with open(os.path.join(index_dir, "_lsh_manifest.json"), "w") as f:
        json.dump({"dim": dim, "n_planes": n_planes, "seed": seed}, f)
    return index_dir


def lsh_index_query_paths(
    index_dir: str, query_matrix: np.ndarray
) -> tuple[np.ndarray, list[str]]:
    """Query buckets + the partition directories a query run will read —
    exposed separately so tests can assert the pruning."""
    import json
    import os

    with open(os.path.join(index_dir, "_lsh_manifest.json")) as f:
        manifest = json.load(f)
    rng = np.random.default_rng(manifest["seed"])
    planes = rng.standard_normal((manifest["dim"], manifest["n_planes"]))
    Q = np.asarray(query_matrix, dtype=np.float64)
    signs = (Q @ planes) > 0
    qbuckets = (signs @ (1 << np.arange(manifest["n_planes"]))).astype(np.int64)
    paths = [
        os.path.join(index_dir, f"bucket={b}")
        for b in sorted(set(int(b) for b in qbuckets))
        if os.path.isdir(os.path.join(index_dir, f"bucket={b}"))
    ]
    return qbuckets, paths


def lsh_topk_indexed(
    index_dir: str,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    *,
    k: int = 10,
) -> "ray.data.Dataset":
    """Approximate cosine top-k served from the bucket-partitioned index:
    only partitions matching a query's bucket are read (same candidate set
    and tie-breaking as :func:`lsh_topk` with identical plane parameters).
    Queries whose bucket partition does not exist return no rows, exactly
    like an empty candidate set."""
    import os

    query_ids = np.asarray(query_ids)
    query_matrix = np.asarray(query_matrix, dtype=np.float64)
    qbuckets, _ = lsh_index_query_paths(index_dir, query_matrix)

    def make_scorer(sub_ids: np.ndarray, sub_Q: np.ndarray):
        # stateless task fn; the per-bucket query slice is tiny and ships in
        # the closure (an actor pool per bucket piece can deadlock a small
        # CPU budget when several pieces each reserve min-1 actors)
        Qn = sub_Q / np.maximum(np.linalg.norm(sub_Q, axis=1, keepdims=True), 1e-300)

        def score(batch: pd.DataFrame) -> pd.DataFrame:
            ids, M = _batch_matrix(batch)
            Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
            sims = Qn @ Mn.T
            kk = min(k, ids.size)
            out = []
            for qi in range(sims.shape[0]):
                s = sims[qi]
                order = np.lexsort((ids, -s))[:kk]
                out.append(
                    pd.DataFrame(
                        {
                            "query_id": sub_ids[qi],
                            "vec_id": ids[order],
                            "sim": np.round(s[order], 6),
                        }
                    )
                )
            return pd.concat(out, ignore_index=True)

        return score

    pieces = []
    for b in sorted(set(int(x) for x in qbuckets)):
        path = os.path.join(index_dir, f"bucket={b}")
        if not os.path.isdir(path):
            continue
        sel = qbuckets == b
        part = ray.data.read_parquet(
            path, columns=["vec_id", "embedding"]
        ).map_batches(
            make_scorer(query_ids[sel], query_matrix[sel]),
            batch_format="pandas",
            batch_size=4096,
        )
        pieces.append(part)
    if not pieces:
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "query_id": pd.Series([], dtype=np.int64),
                    "vec_id": pd.Series([], dtype=np.int64),
                    "sim": pd.Series([], dtype=np.float64),
                    "rank": pd.Series([], dtype=np.int64),
                }
            )
        )
    out = pieces[0]
    for p in pieces[1:]:
        out = out.union(p)
    return out.groupby("query_id").map_groups(_final_topk(k), batch_format="pandas")


# ---------------------------------------------------------------------------
# embedding-cosine near-duplicate detection


class _BruteNearDup:
    """Per-batch exact near-dup scorer against the broadcast corpus matrix:
    emits (vec_a < vec_b) pairs with rounded cosine >= threshold."""

    def __init__(self, all_ref, threshold: float) -> None:
        d = ray.get(all_ref) if not isinstance(all_ref, dict) else all_ref
        self.ids = d["ids"]
        M = d["matrix"].astype(np.float64)
        self.Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
        self.threshold = threshold

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids, B = _batch_matrix(batch)
        Bn = B / np.maximum(np.linalg.norm(B, axis=1, keepdims=True), 1e-300)
        sims = np.round(Bn @ self.Mn.T, 6)
        ia, ib = np.nonzero(sims >= self.threshold)
        keep = ids[ia] < self.ids[ib]
        return pd.DataFrame(
            {
                "vec_a": ids[ia][keep],
                "vec_b": self.ids[ib][keep],
                "cosine": sims[ia, ib][keep],
            }
        )


def _normalize_rows(M: np.ndarray) -> np.ndarray:
    return M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)


def _vec_shard(ids: np.ndarray, n_shards: int) -> np.ndarray:
    from datafiller_ray.functions.hashing import splitmix64

    return (
        splitmix64(ids.astype(np.int64).view(np.uint64))
        % np.uint64(n_shards)
    ).astype(np.int64)


_EMPTY_PAIRS = {
    "vec_a": np.empty(0, dtype=np.int64),
    "vec_b": np.empty(0, dtype=np.int64),
    "cosine": np.empty(0, dtype=np.float64),
}


def _blockwise_near_dup(
    embeddings: "ray.data.Dataset", *, threshold: float, n_shards: int
) -> "ray.data.Dataset":
    """Exact embedding-cosine near-dup pairs with BOUNDED task memory — the
    block-nested-loop exchange: vectors are hash-sharded by ``vec_id`` into
    ``n_shards`` blocks, each vector is replicated into the ``n_shards``
    unordered shard-pair groups it participates in (shuffle volume
    ``n * n_shards`` embedding rows, never a driver or whole-corpus
    collect), and each (q, c) group scores one shard-pair matmul. Every
    unordered vector pair lands in exactly one group, so the union of the
    group outputs equals the brute broadcast scan bit-for-bit under the
    shared 6-dp round. O(n^2) similarity work stays by definition; peak
    memory per task is two shards, tuned by ``n_shards``."""

    def replicate(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[["vec_id", "embedding"]]
        shard = _vec_shard(b["vec_id"].to_numpy(np.int64), n_shards)
        frames = []
        for t in range(n_shards):
            f = b.copy()
            f["shard"] = shard
            f["gkey"] = (
                np.minimum(shard, t) * n_shards + np.maximum(shard, t)
            )
            frames.append(f)
        return pd.concat(frames, ignore_index=True)

    def pair_group(g: pd.DataFrame) -> pd.DataFrame:
        q, c = divmod(int(g["gkey"].iloc[0]), n_shards)
        ids = g["vec_id"].to_numpy(np.int64)
        shard = g["shard"].to_numpy(np.int64)
        Mn = _normalize_rows(np.stack(g["embedding"].to_numpy()).astype(np.float64))
        if q == c:
            sims = np.round(Mn @ Mn.T, 6)
            ia, ib = np.nonzero(sims >= threshold)
            keep = ids[ia] < ids[ib]
            va, vb = ids[ia][keep], ids[ib][keep]
            cos = sims[ia, ib][keep]
        else:
            qm, cm = shard == q, shard == c
            ids_q, ids_c = ids[qm], ids[cm]
            sims = np.round(Mn[qm] @ Mn[cm].T, 6)
            ia, ib = np.nonzero(sims >= threshold)
            a, b = ids_q[ia], ids_c[ib]
            va, vb = np.minimum(a, b), np.maximum(a, b)
            cos = sims[ia, ib]
        if va.size == 0:
            return pd.DataFrame(_EMPTY_PAIRS)
        return pd.DataFrame({"vec_a": va, "vec_b": vb, "cosine": cos})

    return (
        embeddings.map_batches(replicate, batch_format="pandas")
        .groupby("gkey")
        .map_groups(pair_group, batch_format="pandas")
    )


def embedding_near_dup(
    embeddings: "ray.data.Dataset",
    *,
    threshold: float = 0.4,
    max_broadcast_rows: int = 200_000,
    n_shards: int = 8,
) -> "ray.data.Dataset":
    """Exact embedding-cosine near-duplicate pairs, size-gated between two
    physical plans with identical output:

    - corpus row count (distributed ``count()``, parquet-metadata cheap)
      <= ``max_broadcast_rows``: the brute broadcast scan — (normalized)
      corpus matrix shipped once via ``ray.put``, one matmul per batch;
    - above the gate: the :func:`_blockwise_near_dup` shard-pair exchange,
      whose per-task memory is two hash-shards — no whole-corpus driver
      collect or broadcast anywhere, the 100-TB shape.

    O(n^2) similarity work either way (exactness costs that by
    definition); for sub-quadratic candidates at corpus scale use
    :func:`embedding_near_dup_lsh` (bucketed candidates, same verify)."""
    if embeddings.count() > max_broadcast_rows:
        return _blockwise_near_dup(
            embeddings, threshold=threshold, n_shards=n_shards
        )
    df = embeddings.to_pandas()  # under the gate: bounded corpus broadcast
    ids = df["vec_id"].to_numpy(np.int64)
    M = np.stack(df["embedding"].to_numpy())
    ref = ray.put({"ids": ids, "matrix": M})
    return embeddings.map_batches(
        _BruteNearDup,
        fn_constructor_args=(ref, threshold),
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, 8),
    )


def embedding_near_dup_lsh(
    embeddings: "ray.data.Dataset",
    *,
    dim: int,
    threshold: float = 0.4,
    n_planes: int = 4,
    n_tables: int = 8,
    base_seed: int = 101,
    max_candidates: int = 5_000_000,
) -> "ray.data.Dataset":
    """Embedding-cosine near-dup pairs via multi-table sign-LSH — the scale
    path: ``n_tables`` independent hyperplane tables; vectors sharing a
    (table, bucket) are candidates (within-bucket pairs, vectorized via a
    frame self-merge — bucket size is held O(1) by scaling ``n_planes``
    with corpus size); candidate edges are deduped globally and verified
    with exact cosine through a broadcast semi-join of candidate vectors.
    Recall per true pair at angle theta is 1-(1-(1-theta/pi)^p)^T
    (documented approximation; the brute-force variant is the exact
    baseline)."""
    from datafiller_ray.stages.exchange import coarse_map_groups

    # plane matrices are constants of (dim, n_planes, seed): build once and
    # close over them instead of re-drawing RNGs in every batch
    table_planes = [
        np.random.default_rng(base_seed + t).standard_normal((dim, n_planes))
        for t in range(n_tables)
    ]
    bit_weights = 1 << np.arange(n_planes)

    def add_table_buckets(batch: pd.DataFrame) -> pd.DataFrame:
        ids, M = _batch_matrix(batch)
        frames = []
        for t in range(n_tables):
            signs = (M @ table_planes[t]) > 0
            bucket = (signs @ bit_weights).astype(np.int64)
            frames.append(
                pd.DataFrame(
                    {
                        "vec_id": ids,
                        "bkey": t * (1 << n_planes) + bucket,
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # all exact buckets inside this coarse group at once: a self-merge
        # on the exact bucket id is vectorized across buckets
        m = g[["vec_id", "bkey"]].merge(g[["vec_id", "bkey"]], on="bkey")
        m = m[m["vec_id_x"] < m["vec_id_y"]]
        return (
            m.rename(columns={"vec_id_x": "vec_a", "vec_id_y": "vec_b"})
            [["vec_a", "vec_b"]]
        )

    # shuffle on a COARSE key (256 groups per table) so group count stays
    # bounded — tens of thousands of tiny map_groups calls cost seconds of
    # per-group Python overhead (minhash precedent)
    cand = coarse_map_groups(
        embeddings.map_batches(add_table_buckets, batch_format="pandas"),
        "bkey",
        bucket_pairs,
        n_buckets=n_tables * 256,
    )
    # cross-table edge dedup through a second SMALL shuffle (groupby the
    # left endpoint, drop duplicates inside the group) — on a near-dup-heavy
    # corpus the edge set is not "orders smaller" than the corpus, so a
    # driver-side to_pandas() dedup is the wrong shape at 100 TB
    deduped = cand.groupby("vec_a").map_groups(
        lambda g: g.drop_duplicates(), batch_format="pandas"
    ).materialize()  # consumed twice (id pass + verify); edges, not corpus
    # only the DISTINCT candidate ids (8-byte ints) reach the driver to
    # build the broadcast vector LUT, never the edge frame itself
    def uniq_ids(batch: pd.DataFrame) -> pd.DataFrame:
        vals = np.unique(
            np.concatenate(
                [
                    batch["vec_a"].to_numpy(np.int64),
                    batch["vec_b"].to_numpy(np.int64),
                ]
            )
        )
        return pd.DataFrame({"vec_id": vals})

    id_ds = deduped.map_batches(uniq_ids, batch_format="pandas").materialize()
    # distributed count BEFORE any driver collect (the dedup_sequences
    # guard discipline): the candidate-vector LUT broadcast is bounded by
    # the DISTINCT candidate ids, which on a near-dup-heavy corpus can
    # approach corpus size — fail with a named remedy instead of a silent
    # driver/worker OOM
    n_cand = id_ds.count()
    if n_cand > max_candidates:
        from datafiller_ray.config import EngineValueError

        raise EngineValueError(
            f"{n_cand} distinct candidate ids exceed max_candidates="
            f"{max_candidates}; raise n_planes (smaller buckets), raise the "
            "guard explicitly, or verify through a co-partition join "
            "instead of the broadcast LUT"
        )
    id_df = id_ds.to_pandas()
    cand_ids = set(id_df["vec_id"].tolist())
    if not cand_ids:
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "vec_a": pd.Series([], dtype=np.int64),
                    "vec_b": pd.Series([], dtype=np.int64),
                    "cosine": pd.Series([], dtype=np.float64),
                }
            )
        )
    from datafiller_ray.stages.lookup import gather_rows

    hits = gather_rows(embeddings, "vec_id", cand_ids).sort_values("vec_id")
    ids = hits["vec_id"].to_numpy(np.int64)
    M = np.stack(hits["embedding"].to_numpy()).astype(np.float64)
    Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
    lut_ref = ray.put({"ids": ids, "matrix": Mn})

    # stateless task fn: the LUT resolves zero-copy per task and row lookup
    # is a vectorized searchsorted on the vec_id-sorted LUT — nothing to
    # precompute per actor, so no actor-pool spin-up cost
    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        d = ray.get(lut_ref)
        ids_s, Mn_s = d["ids"], d["matrix"]
        a = ids_s.searchsorted(batch["vec_a"].to_numpy(np.int64))
        b = ids_s.searchsorted(batch["vec_b"].to_numpy(np.int64))
        cos = np.round(np.einsum("ij,ij->i", Mn_s[a], Mn_s[b]), 6)
        out = batch[["vec_a", "vec_b"]].copy()
        out["cosine"] = cos
        return out[out["cosine"] >= threshold]

    return deduped.map_batches(verify, batch_format="pandas", batch_size=4096)


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN: k-means coarse quantizer + probed cells


_SAMPLE_MOD = 1 << 16


def ivf_sample_threshold(count: int, n_train: int) -> int:
    """Keep-threshold for the deterministic hash sample: row kept iff
    ``splitmix64(vec_id) % 2^16 < threshold``. Keep-all when the corpus
    already fits the training budget."""
    if count <= n_train:
        return _SAMPLE_MOD
    return max(1, int(np.ceil(n_train * _SAMPLE_MOD / count)))


def ivf_training_sample(
    embeddings: "ray.data.Dataset", *, n_train: int
) -> np.ndarray:
    """Bounded k-means training sample, gathered DISTRIBUTED: each batch
    keeps rows whose ``splitmix64(vec_id)`` falls under the hash threshold
    (expected sample size ~= n_train regardless of corpus size), and only
    the ~n_train surviving vectors reach the driver — never the corpus
    (the round-3 ``to_pandas()`` trainer OOMs the driver at corpus scale).
    Rows are sorted by vec_id so the matrix is independent of block order."""
    from datafiller_ray.functions.hashing import splitmix64

    count = embeddings.count()  # parquet metadata, no scan
    thr = ivf_sample_threshold(count, n_train)

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        h = splitmix64(batch["vec_id"].to_numpy(np.int64).view(np.uint64))
        return batch[(h % np.uint64(_SAMPLE_MOD)) < thr]

    sample = embeddings.map_batches(
        keep, batch_format="pandas", batch_size=4096
    ).to_pandas()
    sample = sample.sort_values("vec_id")
    return np.stack(sample["embedding"].to_numpy()).astype(np.float64)


def train_ivf_centroids(
    M: np.ndarray, *, n_cells: int = 16, n_iters: int = 5, seed: int = 7
) -> np.ndarray:
    """Deterministic Lloyd k-means over (a sample of) the corpus: init =
    seeded choice of distinct rows, fixed iteration count, empty cells keep
    their previous centroid. The training sample must fit driver memory
    (standard IVF practice — train on a sample, assign distributed)."""
    rng = np.random.default_rng(seed)
    M = np.asarray(M, dtype=np.float64)
    init = rng.choice(M.shape[0], size=n_cells, replace=False)
    C = M[np.sort(init)].copy()
    for _ in range(n_iters):
        # ||v-c||^2 = ||v||^2 - 2 v.c + ||c||^2; argmin ties -> first cell
        d = (
            (M * M).sum(axis=1, keepdims=True)
            - 2.0 * (M @ C.T)
            + (C * C).sum(axis=1)
        )
        assign = np.argmin(d, axis=1)
        for c in range(n_cells):
            sel = assign == c
            if sel.any():
                C[c] = M[sel].mean(axis=0)
    return C


def _assign_cells(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    d = (
        (M * M).sum(axis=1, keepdims=True)
        - 2.0 * (M @ C.T)
        + (C * C).sum(axis=1)
    )
    return np.argmin(d, axis=1).astype(np.int64)


def ivf_topk(
    embeddings: "ray.data.Dataset",
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    *,
    k: int = 10,
    n_cells: int = 16,
    n_probe: int = 4,
    n_iters: int = 5,
    seed: int = 7,
    n_train: int = 1024,
) -> "ray.data.Dataset":
    """IVF approximate top-k: corpus vectors are binned to their nearest
    k-means centroid; each query scores ONLY vectors in its ``n_probe``
    nearest cells (exact cosine within candidates, deterministic
    sim-desc/vec_id-asc ranking like the brute path). At corpus scale the
    cells become storage partitions and probing prunes I/O, not just
    compute — that path is :func:`build_ivf_index` + :func:`ivf_topk_indexed`.
    The quantizer trains on the bounded hash sample
    (``ivf_training_sample``); assignment is distributed. Mirrored exactly
    by the SQL oracle via literal centroids."""
    M = ivf_training_sample(embeddings, n_train=n_train)
    C = train_ivf_centroids(M, n_cells=n_cells, n_iters=n_iters, seed=seed)

    Q = np.asarray(query_matrix, dtype=np.float64)
    qd = (
        (Q * Q).sum(axis=1, keepdims=True)
        - 2.0 * (Q @ C.T)
        + (C * C).sum(axis=1)
    )
    probes = np.argsort(qd, axis=1, kind="stable")[:, :n_probe]  # (nq, n_probe)
    ref = ray.put(
        {
            "ids": np.asarray(query_ids),
            "matrix": Q,
            "centroids": C,
            "probes": probes,
        }
    )

    class CellScorer:
        def __init__(self, ref, k: int) -> None:
            d = ray.get(ref) if not isinstance(ref, dict) else ref
            self.query_ids = d["ids"]
            Qm = d["matrix"]
            # same zero-norm guard as the corpus side: an all-zero query
            # must yield sim 0 everywhere (deterministic vec_id ranking),
            # not NaN sims and an arbitrary lexsort order
            self.Qn = Qm / np.maximum(
                np.linalg.norm(Qm, axis=1, keepdims=True), 1e-300
            )
            self.C = d["centroids"]
            self.probes = d["probes"]
            self.k = k

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            ids, M = _batch_matrix(batch)
            cells = _assign_cells(M.astype(np.float64), self.C)
            Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
            out = []
            for qi in range(self.query_ids.size):
                cand = np.flatnonzero(np.isin(cells, self.probes[qi]))
                if cand.size == 0:
                    continue
                sims = np.round(Mn[cand] @ self.Qn[qi], 6)
                # deterministic partial top-k: sim desc, vec_id asc — ties
                # at rank k must not depend on batch row order (brute path
                # and SQL oracle both break them by vec_id)
                top = np.lexsort((ids[cand], -sims))[: self.k]
                out.append(
                    pd.DataFrame(
                        {
                            "query_id": self.query_ids[qi],
                            "vec_id": ids[cand[top]],
                            "sim": sims[top],
                        }
                    )
                )
            if not out:
                return pd.DataFrame(
                    {
                        "query_id": pd.Series([], dtype=np.int64),
                        "vec_id": pd.Series([], dtype=np.int64),
                        "sim": pd.Series([], dtype=np.float64),
                    }
                )
            return pd.concat(out, ignore_index=True)

    partial = embeddings.map_batches(
        CellScorer,
        fn_constructor_args=(ref, k),
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, 8),
    )
    return partial.groupby("query_id").map_groups(
        _final_topk(k), batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# storage-partitioned IVF index: probing prunes reads, not just compute


def build_ivf_index(
    embeddings: "ray.data.Dataset",
    index_dir: str,
    *,
    n_cells: int = 16,
    n_iters: int = 5,
    seed: int = 7,
    n_train: int = 1024,
) -> str:
    """Persist the embedding table partitioned by IVF cell
    (``index_dir/cell=N/``) plus a manifest carrying the trained centroids.

    The IVF analogue of :func:`build_lsh_index`: the quantizer trains on the
    bounded hash sample, every corpus vector is assigned to its nearest
    centroid DISTRIBUTED (one matmul per batch), and a query run against the
    index reads only its ``n_probe`` probed cell partitions — an
    n_cells/n_probe-fold read fan-in reduction at corpus scale."""
    import json
    import os

    M = ivf_training_sample(embeddings, n_train=n_train)
    C = train_ivf_centroids(M, n_cells=n_cells, n_iters=n_iters, seed=seed)

    def add_cell(batch: pd.DataFrame) -> pd.DataFrame:
        ids, Mb = _batch_matrix(batch)
        batch = batch.copy()
        batch["cell"] = _assign_cells(Mb, C)
        return batch

    embeddings.map_batches(
        add_cell, batch_format="pandas", batch_size=4096
    ).write_parquet(index_dir, partition_cols=["cell"])
    with open(os.path.join(index_dir, "_ivf_manifest.json"), "w") as f:
        json.dump(
            {
                "n_cells": n_cells,
                "n_iters": n_iters,
                "seed": seed,
                "n_train": n_train,
                "centroids": C.tolist(),
            },
            f,
        )
    return index_dir


def ivf_index_query_paths(
    index_dir: str, query_matrix: np.ndarray, *, n_probe: int = 4
) -> tuple[np.ndarray, list[str]]:
    """Per-query probed cells + the partition directories a query run will
    read — exposed separately so tests can assert the pruning."""
    import json
    import os

    with open(os.path.join(index_dir, "_ivf_manifest.json")) as f:
        manifest = json.load(f)
    C = np.asarray(manifest["centroids"], dtype=np.float64)
    Q = np.asarray(query_matrix, dtype=np.float64)
    qd = (
        (Q * Q).sum(axis=1, keepdims=True)
        - 2.0 * (Q @ C.T)
        + (C * C).sum(axis=1)
    )
    probes = np.argsort(qd, axis=1, kind="stable")[:, :n_probe]
    paths = [
        os.path.join(index_dir, f"cell={c}")
        for c in sorted(set(int(c) for c in probes.ravel()))
        if os.path.isdir(os.path.join(index_dir, f"cell={c}"))
    ]
    return probes, paths


def ivf_topk_indexed(
    index_dir: str,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    *,
    k: int = 10,
    n_probe: int = 4,
) -> "ray.data.Dataset":
    """IVF top-k served from the cell-partitioned index: only probed cell
    partitions are read; within each cell every query probing it scores
    exact cosine with the same round-6 + sim-desc/vec_id-asc ranking as
    :func:`ivf_topk`, so results are identical given identical centroids."""
    import os

    query_ids = np.asarray(query_ids)
    Q = np.asarray(query_matrix, dtype=np.float64)
    Qn = Q / np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-300)
    probes, _ = ivf_index_query_paths(index_dir, Q, n_probe=n_probe)

    def make_scorer(sub_ids: np.ndarray, sub_Qn: np.ndarray):
        # stateless task fn with the per-cell query slice in the closure
        # (min-1 actor pools per unioned piece deadlock small CPU budgets)
        def score(batch: pd.DataFrame) -> pd.DataFrame:
            ids, M = _batch_matrix(batch)
            Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
            sims = np.round(sub_Qn @ Mn.T, 6)
            kk = min(k, ids.size)
            out = []
            for qi in range(sims.shape[0]):
                s = sims[qi]
                order = np.lexsort((ids, -s))[:kk]
                out.append(
                    pd.DataFrame(
                        {
                            "query_id": sub_ids[qi],
                            "vec_id": ids[order],
                            "sim": s[order],
                        }
                    )
                )
            return pd.concat(out, ignore_index=True)

        return score

    pieces = []
    for c in sorted(set(int(x) for x in probes.ravel())):
        path = os.path.join(index_dir, f"cell={c}")
        if not os.path.isdir(path):
            continue
        sel = (probes == c).any(axis=1)
        part = ray.data.read_parquet(
            path, columns=["vec_id", "embedding"]
        ).map_batches(
            make_scorer(query_ids[sel], Qn[sel]),
            batch_format="pandas",
            batch_size=4096,
        )
        pieces.append(part)
    if not pieces:
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "query_id": pd.Series([], dtype=np.int64),
                    "vec_id": pd.Series([], dtype=np.int64),
                    "sim": pd.Series([], dtype=np.float64),
                    "rank": pd.Series([], dtype=np.int64),
                }
            )
        )
    out = pieces[0]
    for p in pieces[1:]:
        out = out.union(p)
    return out.groupby("query_id").map_groups(_final_topk(k), batch_format="pandas")


def embedding_clusters(
    embeddings: "ray.data.Dataset",
    *,
    n_cells: int = 16,
    n_iters: int = 5,
    seed: int = 7,
    n_train: int = 1024,
) -> "ray.data.Dataset":
    """K-means cluster assignment for EVERY corpus vector — the corpus
    cartography primitive (balance the training mix across embedding
    clusters, spot collapsed feeds) and the standalone face of the IVF
    quantizer: train on the bounded hash sample (``ivf_training_sample``;
    ~n_train rows reach the driver, never the corpus), broadcast the
    centroid matrix once via ``ray.put``, assign distributed with the
    exact-int (vec_id, cell) output — ties break to the FIRST nearest
    cell exactly like ``ivf_topk``'s assignment, so the literal-centroid
    CASE oracle matches bit-for-bit."""
    import ray

    from datafiller_ray.config import EngineValueError

    if n_cells < 1:
        raise EngineValueError(f"n_cells must be >= 1, got {n_cells}")
    M = ivf_training_sample(embeddings, n_train=n_train)
    C = train_ivf_centroids(M, n_cells=n_cells, n_iters=n_iters, seed=seed)
    cref = ray.put(C)

    class Assign:
        def __init__(self) -> None:
            self.C = ray.get(cref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            ids, Mb = _batch_matrix(batch)
            return pd.DataFrame(
                {"vec_id": ids, "cell": _assign_cells(Mb, self.C)}
            )

    return embeddings.map_batches(
        Assign, batch_format="pandas", batch_size=4096, concurrency=(1, 8)
    )


PCA_SCALE_BITS = 16  # quantization grid: q = floor(v * 2^16 + 0.5), exact int64


def embedding_pca(
    embeddings: "ray.data.Dataset",
    *,
    n_components: int = 2,
) -> "ray.data.Dataset":
    """Distributed PCA projection of the embedding corpus — the corpus
    cartography / visualization primitive (project every vector onto the
    top principal components of the corpus covariance).

    Exactness contract (the engine's standing pattern: integer-exact
    distributed part + one pinned float expression): input floats are
    quantized onto the ``2^-16`` grid (``q = floor(v * 2^16 + 0.5)``,
    exact in int64), and the ONLY thing that crosses the exchange is the
    per-batch integer Gram upper triangle + column sums + count —
    ``d*(d+1)/2 + d + 1`` int64 rows per batch, order-independent exactly.
    The driver combines them with Python-int (arbitrary precision)
    arithmetic into the pinned covariance ``C_ij = (n*G_ij - S_i*S_j) /
    (n^2 * 2^32)``, runs ``np.linalg.eigh`` ONCE on the tiny d x d matrix,
    takes the top ``n_components`` eigenvectors (eigenvalue desc, sign
    fixed so each component's largest-|w| element is positive, ties to the
    first index), and broadcasts (mu, W) for a distributed projection pass
    ``(q/2^16 - mu) @ W`` with the shared 6-decimal floor-half-up on the
    output. n_pc columns are named pc1..pcK.

    Overflow guard: per-partial sums need ``rows_per_batch * maxq^2 <
    2^63`` and the combined Gram needs ``n * maxq^2 < 2^63`` — with
    unit-ish embeddings (|v| <= ~1 -> maxq ~ 2^16) that is n < ~2^30
    vectors; beyond that, shrink PCA_SCALE_BITS or pre-sample. Checked at
    combine time, raising EngineValueError rather than wrapping silently.
    """
    from datafiller_ray.config import EngineValueError

    if n_components < 1:
        raise EngineValueError(f"n_components must be >= 1, got {n_components}")
    scale = float(1 << PCA_SCALE_BITS)

    def gram_partial(batch: pd.DataFrame) -> pd.DataFrame:
        # empty guard BEFORE _batch_matrix (np.stack raises on zero rows)
        if len(batch) == 0:
            return pd.DataFrame(
                {
                    "i": pd.Series([], dtype=np.int64),
                    "j": pd.Series([], dtype=np.int64),
                    "s": pd.Series([], dtype=np.int64),
                }
            )
        ids, M = _batch_matrix(batch)
        Q = np.floor(M.astype(np.float64) * scale + 0.5).astype(np.int64)
        # per-batch wraparound guard: the combine-time check can't see a
        # Gram entry that already wrapped inside this batch's int64 matmul
        maxq = int(np.abs(Q).max(initial=0))
        if maxq and Q.shape[0] * maxq * maxq >= 1 << 63:
            from datafiller_ray.config import EngineValueError

            raise EngineValueError(
                "embedding_pca per-batch integer Gram exceeds the exact "
                "int64 range; reduce PCA_SCALE_BITS, batch_size, or rescale "
                "the embeddings"
            )
        d = Q.shape[1]
        G = Q.T @ Q  # int64 exact under the per-batch guard above
        i_idx, j_idx = np.triu_indices(d)
        rows_i = np.concatenate([i_idx, np.arange(d), [-1]])
        rows_j = np.concatenate([j_idx, np.full(d, -1), [-1]])
        vals = np.concatenate(
            [G[i_idx, j_idx], Q.sum(axis=0, dtype=np.int64), [Q.shape[0]]]
        )
        return pd.DataFrame(
            {
                "i": rows_i.astype(np.int64),
                "j": rows_j.astype(np.int64),
                "s": vals.astype(np.int64),
            }
        )

    from datafiller_ray.stages.exchange import grouped_sum

    partials = embeddings.map_batches(
        gram_partial, batch_format="pandas", batch_size=4096
    )
    rows = grouped_sum(partials, ["i", "j"], "s").to_pandas()  # <= d(d+1)/2+d+1
    if len(rows) == 0:
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "vec_id": pd.Series([], dtype=np.int64),
                    **{
                        f"pc{c + 1}": pd.Series([], dtype=np.float64)
                        for c in range(n_components)
                    },
                }
            )
        )
    n = int(rows.loc[(rows["i"] == -1) & (rows["j"] == -1), "s"].iloc[0])
    svec = rows[(rows["i"] >= 0) & (rows["j"] == -1)].sort_values("i")
    d = len(svec)
    if n_components > d:
        raise EngineValueError(
            f"n_components={n_components} exceeds embedding dim {d}"
        )
    # Python-int exact combine (n*G - S S^T overflows int64 at corpus scale)
    S = [int(v) for v in svec["s"]]
    G = [[0] * d for _ in range(d)]
    tri = rows[(rows["i"] >= 0) & (rows["j"] >= 0)]
    maxabs = 0
    for i_, j_, s_ in zip(tri["i"], tri["j"], tri["s"]):
        G[int(i_)][int(j_)] = int(s_)
        G[int(j_)][int(i_)] = int(s_)
        maxabs = max(maxabs, abs(int(s_)))
    if maxabs >= (1 << 62):
        raise EngineValueError(
            "embedding_pca integer Gram exceeds the exact int64 range; "
            "reduce PCA_SCALE_BITS or pre-sample the corpus"
        )
    denom = float(n) * float(n) * scale * scale
    C = np.empty((d, d), dtype=np.float64)
    for i_ in range(d):
        for j_ in range(d):
            C[i_, j_] = float(n * G[i_][j_] - S[i_] * S[j_]) / denom
    evals, evecs = np.linalg.eigh(C)
    order = np.argsort(-evals, kind="stable")[:n_components]
    W = evecs[:, order].copy()
    for c in range(W.shape[1]):
        a = int(np.argmax(np.abs(W[:, c])))  # first index on ties
        if W[a, c] < 0:
            W[:, c] = -W[:, c]
    mu = np.array([float(si) / (float(n) * scale) for si in S], dtype=np.float64)
    wref = ray.put((mu, W))

    class Project:
        def __init__(self) -> None:
            self.mu, self.W = ray.get(wref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            ids, M = _batch_matrix(batch)
            Q = np.floor(M.astype(np.float64) * scale + 0.5) / scale
            P = (Q - self.mu) @ self.W
            out = {"vec_id": ids}
            for c in range(P.shape[1]):
                out[f"pc{c + 1}"] = np.floor(P[:, c] * 1e6 + 0.5) / 1e6
            return pd.DataFrame(out)

    return embeddings.map_batches(
        Project, batch_format="pandas", batch_size=4096, concurrency=(1, 8)
    )


def kmeans_quality(
    embeddings: "ray.data.Dataset",
    *,
    n_cells: int = 16,
    n_iters: int = 5,
    seed: int = 7,
    n_train: int = 1024,
) -> "ray.data.Dataset":
    """Clustering-quality report for the :func:`embedding_clusters`
    assignment: per cell, the member count and the inertia (sum of squared
    Euclidean distance to the assigned centroid) — the "is my quantizer any
    good / which cells collapsed" diagnostic read before trusting IVF
    probes or cluster-balanced mixing.

    Determinism: the per-vector squared distance is ONE pinned expression
    (``<x,x> - 2<x,c> + <c,c>``, the `_assign_cells` form), floored onto
    the 1e-6 grid as integer micro-units per vector (the
    ``time_weighted_avg`` precedent) so per-cell sums are int64-exact and
    order-independent; the single final division by 1e6 happens once per
    cell. Trained exactly like ``embedding_clusters`` (bounded hash
    sample, deterministic Lloyd) so both queries describe the same cells.

    Scale shape: centroids broadcast once; each batch collapses to
    <= n_cells (cell, n, usq) partial rows; one bounded grouped_sum.
    """
    from datafiller_ray.config import EngineValueError

    if n_cells < 1:
        raise EngineValueError(f"n_cells must be >= 1, got {n_cells}")
    M = ivf_training_sample(embeddings, n_train=n_train)
    C = train_ivf_centroids(M, n_cells=n_cells, n_iters=n_iters, seed=seed)
    cref = ray.put(C)

    class Partial:
        def __init__(self) -> None:
            self.C = ray.get(cref)
            self.cnorm = (self.C * self.C).sum(axis=1)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            ids, Mb = _batch_matrix(batch)
            Mb = Mb.astype(np.float64)
            cells = _assign_cells(Mb, self.C)
            sq = (
                (Mb * Mb).sum(axis=1)
                - 2.0 * np.einsum("ij,ij->i", Mb, self.C[cells])
                + self.cnorm[cells]
            )
            usq = np.floor(sq * 1e6 + 0.5).astype(np.int64)
            n = np.bincount(cells, minlength=self.C.shape[0]).astype(np.int64)
            usum = np.zeros(self.C.shape[0], dtype=np.int64)
            np.add.at(usum, cells, usq)
            present = n > 0
            return pd.DataFrame(
                {
                    "cell": np.flatnonzero(present).astype(np.int64),
                    "n_vecs": n[present],
                    "usq": usum[present],
                }
            )

    from datafiller_ray.stages.exchange import grouped_sum

    partials = embeddings.map_batches(
        Partial, batch_format="pandas", batch_size=4096, concurrency=(1, 8)
    )
    summed = grouped_sum(partials, "cell", ["n_vecs", "usq"])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "cell": df["cell"].to_numpy(np.int64),
                "n_vecs": df["n_vecs"].to_numpy(np.int64),
                "inertia": df["usq"].to_numpy(np.float64) / 1e6,
            }
        )

    return summed.map_batches(finish, batch_format="pandas")


def centroid_silhouette(
    embeddings: "ray.data.Dataset",
    *,
    n_cells: int = 16,
    n_iters: int = 5,
    seed: int = 7,
    n_train: int = 1024,
) -> "ray.data.Dataset":
    """Simplified (centroid-based) silhouette per cluster for the
    :func:`embedding_clusters` assignment: for each vector, a = Euclidean
    distance to the nearest centroid (its cell), b = distance to the
    second-nearest, s = (b - a) / b — the O(n * k) silhouette variant
    that needs no pairwise pass (the full silhouette is O(n^2) and dead at
    corpus scale). Per cell: member count and mean s. s near 1 = tight,
    well-separated cell; near 0 = boundary points / collapsed centroids.

    Determinism: per-vector distances use the pinned quadratic form
    ``sqrt(<x,x> - 2<x,c> + <c,c>)`` for EVERY cell (the kmeans_quality
    expression), a/b are the two smallest by value (ties collapse: equal
    mins give s = 0), each s floors onto the 1e-6 integer grid so
    per-cell sums are int64-exact and order-independent; the only final
    floats are ``(sum/1e6)/n`` per cell. Trained exactly like
    ``embedding_clusters`` (bounded hash sample, deterministic Lloyd) so
    all three quantizer queries describe the same cells.

    Scale shape: centroids broadcast once; each batch collapses to
    <= n_cells (cell, n, us) partial rows; one bounded grouped_sum.
    """
    from datafiller_ray.config import EngineValueError

    if n_cells < 2:
        raise EngineValueError(f"n_cells must be >= 2, got {n_cells}")
    M = ivf_training_sample(embeddings, n_train=n_train)
    C = train_ivf_centroids(M, n_cells=n_cells, n_iters=n_iters, seed=seed)
    cref = ray.put(C)

    class Partial:
        def __init__(self) -> None:
            self.C = ray.get(cref)
            self.cnorm = (self.C * self.C).sum(axis=1)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            ids, Mb = _batch_matrix(batch)
            Mb = Mb.astype(np.float64)
            cells = _assign_cells(Mb, self.C)
            G = Mb @ self.C.T
            xx = (Mb * Mb).sum(axis=1)
            sq = (xx[:, None] - 2.0 * G) + self.cnorm[None, :]
            d = np.sqrt(np.maximum(sq, 0.0))
            two = np.sort(d, axis=1)[:, :2]
            a, b = two[:, 0], two[:, 1]
            s = np.where(b > 0.0, (b - a) / np.where(b > 0.0, b, 1.0), 0.0)
            us = np.floor(s * 1e6 + 0.5).astype(np.int64)
            n = np.bincount(cells, minlength=self.C.shape[0]).astype(np.int64)
            usum = np.zeros(self.C.shape[0], dtype=np.int64)
            np.add.at(usum, cells, us)
            present = n > 0
            return pd.DataFrame(
                {
                    "cell": np.flatnonzero(present).astype(np.int64),
                    "n_vecs": n[present],
                    "us": usum[present],
                }
            )

    from datafiller_ray.stages.exchange import grouped_sum

    partials = embeddings.map_batches(
        Partial, batch_format="pandas", batch_size=4096, concurrency=(1, 8)
    )
    summed = grouped_sum(partials, "cell", ["n_vecs", "us"])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n_vecs"].to_numpy(np.int64)
        su = df["us"].to_numpy(np.float64)
        mean_sil = (su / 1e6) / n.astype(np.float64)
        return pd.DataFrame(
            {
                "cell": df["cell"].to_numpy(np.int64),
                "n_vecs": n,
                "mean_sil": np.floor(mean_sil * 1000000 + 0.5) / 1000000.0,
            }
        )

    return summed.map_batches(finish, batch_format="pandas")


def label_centroid_similarity(
    embeddings: "ray.data.Dataset",
) -> "ray.data.Dataset":
    """Pairwise cosine similarity between per-label embedding centroids —
    the supervised complement of ``source_similarity`` (which labels'
    vector populations overlap enough to confuse a classifier / collapse
    under mixing).

    Exactness (the embedding_pca pattern): vectors are quantized onto the
    2^-16 grid, and only per-(label, dim) int64 sums + per-label counts
    cross the ONE bounded exchange — order-independent exactly. Centroids
    and each pair's cosine are computed on the driver over the tiny
    |labels| x d table with the engine's pinned pair expression
    ``dot / (sqrt(na) * sqrt(nb))`` + 6-decimal floor-half-up
    (source_similarity precedent). Output: (label_a < label_b, n_a, n_b,
    cos_sim).
    """
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.exchange import grouped_sum

    scale = float(1 << PCA_SCALE_BITS)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # empty guard BEFORE _batch_matrix (np.stack raises on zero rows)
        if len(batch) == 0:
            return pd.DataFrame(
                {
                    "label": pd.Series([], dtype=np.int64),
                    "i": pd.Series([], dtype=np.int64),
                    "s": pd.Series([], dtype=np.int64),
                }
            )
        ids, M = _batch_matrix(batch)
        labels = batch["label"].to_numpy(np.int64)
        Q = np.floor(M.astype(np.float64) * scale + 0.5).astype(np.int64)
        d = Q.shape[1]
        uniq, inv = np.unique(labels, return_inverse=True)
        S = np.zeros((uniq.size, d), dtype=np.int64)
        np.add.at(S, inv, Q)
        n = np.bincount(inv).astype(np.int64)
        lab_rows = np.repeat(uniq, d)
        i_rows = np.tile(np.arange(d, dtype=np.int64), uniq.size)
        out = pd.DataFrame(
            {
                "label": np.concatenate([lab_rows, uniq]),
                "i": np.concatenate([i_rows, np.full(uniq.size, -1)]),
                "s": np.concatenate([S.ravel(), n]),
            }
        )
        return out.astype({"label": np.int64, "i": np.int64, "s": np.int64})

    partials = embeddings.map_batches(
        partial, batch_format="pandas", batch_size=4096
    )
    rows = grouped_sum(partials, ["label", "i"], "s").to_pandas()
    empty = pd.DataFrame(
        {
            "label_a": pd.Series([], dtype=np.int64),
            "label_b": pd.Series([], dtype=np.int64),
            "n_a": pd.Series([], dtype=np.int64),
            "n_b": pd.Series([], dtype=np.int64),
            "cos_sim": pd.Series([], dtype=np.float64),
        }
    )
    if len(rows) == 0:
        return ray.data.from_pandas(empty)
    counts = rows[rows["i"] == -1].set_index("label")["s"]
    dims = rows[rows["i"] >= 0]
    labels = np.sort(counts.index.to_numpy(np.int64))
    d = int(dims["i"].max()) + 1
    C = np.zeros((labels.size, d), dtype=np.float64)
    lab_pos = {int(l): p for p, l in enumerate(labels)}
    for l_, i_, s_ in zip(dims["label"], dims["i"], dims["s"]):
        # centroid element: ONE pinned expression from exact integers
        C[lab_pos[int(l_)], int(i_)] = float(int(s_)) / (
            float(int(counts.loc[int(l_)])) * scale
        )
    import math

    rows_a, rows_b, nas, nbs, sims = [], [], [], [], []
    for a in range(labels.size):
        for b in range(a + 1, labels.size):
            na = float(np.dot(C[a], C[a]))
            nb = float(np.dot(C[b], C[b]))
            if na <= 0.0 or nb <= 0.0:
                continue  # zero centroid: cosine undefined
            sim = float(np.dot(C[a], C[b])) / (math.sqrt(na) * math.sqrt(nb))
            rows_a.append(int(labels[a]))
            rows_b.append(int(labels[b]))
            nas.append(int(counts.loc[int(labels[a])]))
            nbs.append(int(counts.loc[int(labels[b])]))
            sims.append(math.floor(sim * 1e6 + 0.5) / 1e6)
    out = pd.DataFrame(
        {
            "label_a": np.asarray(rows_a, dtype=np.int64),
            "label_b": np.asarray(rows_b, dtype=np.int64),
            "n_a": np.asarray(nas, dtype=np.int64),
            "n_b": np.asarray(nbs, dtype=np.int64),
            "cos_sim": np.asarray(sims, dtype=np.float64),
        }
    )
    return ray.data.from_pandas(out if len(out) else empty)


def semantic_dedup(
    embeddings: "ray.data.Dataset",
    *,
    tau: float = 0.35,
    n_cells: int = 16,
    n_iters: int = 5,
    seed: int = 7,
    n_train: int = 1024,
    col_block: int = 2048,
) -> "ray.data.Dataset":
    """SemDeDup-style semantic deduplication (cluster first, then prune
    near-identical pairs INSIDE each cluster — the published web-scale
    recipe, arXiv:2303.09540): every vector is assigned to the shared
    deterministic k-means quantizer cell (the ``embedding_clusters``
    derivation: bounded hash sample -> Lloyd -> broadcast centroids), and
    within a cell a vector is a DUPLICATE when some SMALLER-``vec_id``
    cellmate has cosine similarity >= tau. Keep-lowest-id makes the
    output deterministic with no dependence on scan or pair order.

    Exactness contract: ``sim = <a,b> / (max(|a|,1e-300) *
    max(|b|,1e-300))`` in float64, floored onto the 1e-6 grid BEFORE the
    threshold compare, so the compare is integer (tau enters as
    ``round(tau * 1e6)``) and the SQL oracle mirrors it token-for-token.

    Scale design: the only exchange is the ``groupby(cell)``; per-cell
    work is a column-blocked lower-triangle matmul whose peak memory is
    ``cell_rows x col_block`` floats — never cell^2 at once. Cells must
    stay bounded: ``n_cells`` is the partitioning knob and grows with the
    corpus (SemDeDup's own regime is tens of thousands of clusters at web
    scale) so one cell fits one task.
    """
    import ray

    from datafiller_ray.config import EngineValueError

    if not (0.0 < tau <= 1.0):
        raise EngineValueError(f"tau must be in (0, 1], got {tau}")
    if n_cells < 1:
        raise EngineValueError(f"n_cells must be >= 1, got {n_cells}")
    tau_micro = int(round(tau * 1e6))

    M = ivf_training_sample(embeddings, n_train=n_train)
    C = train_ivf_centroids(M, n_cells=n_cells, n_iters=n_iters, seed=seed)
    cref = ray.put(C)

    class Assign:
        def __init__(self) -> None:
            self.C = ray.get(cref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            ids, Mb = _batch_matrix(batch)
            out = pd.DataFrame({"vec_id": ids, "cell": _assign_cells(Mb, self.C)})
            out["embedding"] = batch["embedding"].to_numpy()
            return out

    assigned = embeddings.map_batches(
        Assign, batch_format="pandas", batch_size=4096, concurrency=(1, 8)
    )

    def dedup_cell(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g["vec_id"].to_numpy(np.int64), kind="stable")
        g = g.iloc[order]
        ids = g["vec_id"].to_numpy(np.int64)
        Mg = np.stack(
            [np.asarray(v, dtype=np.float64) for v in g["embedding"].to_numpy()]
        )
        n = len(ids)
        nrm = np.maximum(np.sqrt((Mg * Mg).sum(axis=1)), 1e-300)
        dup = np.zeros(n, dtype=np.int64)
        for j0 in range(1, n, col_block):
            j1 = min(j0 + col_block, n)
            ip = Mg @ Mg[j0:j1].T  # (n, block)
            sim = ip / (nrm[:, None] * nrm[j0:j1][None, :])
            micro = np.floor(sim * 1e6 + 0.5)
            # only strictly-earlier rows may mark column j a duplicate
            tri = np.arange(n)[:, None] < np.arange(j0, j1)[None, :]
            dup[j0:j1] = np.where(
                ((micro >= tau_micro) & tri).any(axis=0), 1, 0
            )
        return pd.DataFrame(
            {"vec_id": ids, "cell": g["cell"].to_numpy(np.int64), "is_dup": dup}
        )

    return assigned.groupby("cell").map_groups(dedup_cell, batch_format="pandas")


def train_pq_codebooks(
    M: np.ndarray,
    *,
    n_sub: int = 4,
    n_codes: int = 16,
    n_iters: int = 5,
    seed: int = 7,
) -> "list[np.ndarray]":
    """Product-quantizer training: L2-NORMALIZE the (sampled) training
    matrix, split its dims into ``n_sub`` contiguous subspaces, and run
    the deterministic Lloyd of :func:`train_ivf_centroids` independently
    per subspace (seed offset by the subspace index). Normalizing FIRST
    makes the reconstructed vector approximate the unit vector, so the
    asymmetric-distance score below approximates cosine similarity."""
    from datafiller_ray.config import EngineValueError

    M = np.asarray(M, dtype=np.float64)
    d = M.shape[1]
    if d % n_sub != 0:
        raise EngineValueError(
            f"embedding dim {d} not divisible by n_sub={n_sub}"
        )
    Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
    dsub = d // n_sub
    return [
        train_ivf_centroids(
            Mn[:, m * dsub : (m + 1) * dsub],
            n_cells=n_codes,
            n_iters=n_iters,
            seed=seed + m,
        )
        for m in range(n_sub)
    ]


def pq_encode(Mn: np.ndarray, codebooks: "list[np.ndarray]") -> np.ndarray:
    """Assign each NORMALIZED row to its nearest centroid per subspace
    (the expanded ||v||^2 - 2 v.c + ||c||^2 distance of
    :func:`_assign_cells`, argmin ties -> first code). Returns an
    (n, n_sub) int64 code matrix — at scale this 4-8 byte code replaces
    the 256-512 byte float vector, the whole point of PQ."""
    n_sub = len(codebooks)
    dsub = Mn.shape[1] // n_sub
    codes = np.empty((Mn.shape[0], n_sub), dtype=np.int64)
    for m, C in enumerate(codebooks):
        codes[:, m] = _assign_cells(Mn[:, m * dsub : (m + 1) * dsub], C)
    return codes


class _PQScorer:
    """Per-batch PQ asymmetric-distance scoring: normalize the batch,
    encode it against the broadcast codebooks, then score every query via
    its per-subspace lookup table (LUT_m = Qn_sub @ C_m^T) — one gather +
    add per subspace instead of a d-dim matmul per candidate. The LUT sum
    accumulates subspace-by-subspace in a pinned left-to-right order so
    the vendored oracle reproduces every float bit."""

    def __init__(self, ref, k: int) -> None:
        d = ray.get(ref) if not isinstance(ref, dict) else ref
        self.query_ids = d["ids"]
        self.codebooks = d["codebooks"]
        Q = d["matrix"].astype(np.float64)
        Qn = Q / np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-300)
        n_sub = len(self.codebooks)
        dsub = Qn.shape[1] // n_sub
        self.luts = [
            Qn[:, m * dsub : (m + 1) * dsub] @ self.codebooks[m].T
            for m in range(n_sub)
        ]
        self.k = k

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids, M = _batch_matrix(batch)
        Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
        codes = pq_encode(Mn, self.codebooks)
        sims = self.luts[0][:, codes[:, 0]]
        for m in range(1, len(self.luts)):
            sims = sims + self.luts[m][:, codes[:, m]]
        k = min(self.k, ids.size)
        out = []
        for qi in range(sims.shape[0]):
            s = sims[qi]
            order = np.lexsort((ids, -s))[:k]
            out.append(
                pd.DataFrame(
                    {
                        "query_id": self.query_ids[qi],
                        "vec_id": ids[order],
                        "sim": np.round(s[order], 6),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)


def pq_topk(
    embeddings: "ray.data.Dataset",
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    *,
    k: int = 10,
    n_sub: int = 4,
    n_codes: int = 16,
    n_iters: int = 5,
    seed: int = 7,
    n_train: int = 1024,
) -> "ray.data.Dataset":
    """Product-quantization approximate top-k (Jegou et al. 2011): train
    per-subspace codebooks on the bounded hash sample (the IVF trainer's
    sample — ~n_train rows reach the driver, never the corpus), broadcast
    codebooks + query LUTs once, encode + score each corpus batch
    distributed, partial top-k per batch, final per-query reduce.

    Scale shape: the corpus is read once and never materialized; at
    100 TB the natural extension stores the (n, n_sub) int64 codes as a
    compact sidecar table (build once, re-score any query set from codes
    alone) — the scoring stage here IS that path, since it only needs
    ``codes`` + LUTs after encoding. Deterministic end-to-end: seeded
    Lloyd per subspace, first-code ties, sim-desc/vec_id-asc ranking on
    1e-6-rounded scores."""
    M = ivf_training_sample(embeddings, n_train=n_train)
    codebooks = train_pq_codebooks(
        M, n_sub=n_sub, n_codes=n_codes, n_iters=n_iters, seed=seed
    )
    ref = ray.put(
        {
            "ids": np.asarray(query_ids),
            "matrix": np.asarray(query_matrix, dtype=np.float64),
            "codebooks": codebooks,
        }
    )
    partial = embeddings.map_batches(
        _PQScorer,
        fn_constructor_args=(ref, k),
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, 8),
    )
    return partial.groupby("query_id").map_groups(
        _final_topk(k), batch_format="pandas"
    )


class _MMRCandScorer(BruteForceTopK):
    """Stage-1 candidate generation for MMR: the brute partial top-k
    scorer, except each emitted candidate row also carries its NORMALIZED
    embedding so the per-query rerank group can compute candidate-to-
    candidate cosines without a second corpus pass."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids, M = _batch_matrix(batch)
        Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
        sims = self.Qn @ Mn.T
        k = min(self.k, ids.size)
        out = []
        for qi in range(sims.shape[0]):
            s = sims[qi]
            order = np.lexsort((ids, -s))[:k]
            df = pd.DataFrame(
                {
                    "query_id": self.query_ids[qi],
                    "vec_id": ids[order],
                    "sim": np.round(s[order], 6),
                }
            )
            df["embedding"] = list(Mn[order])
            out.append(df)
        return pd.concat(out, ignore_index=True)


def _mmr_select(rel, cc, vids, k, lam):
    """Deterministic MMR selection loop over one query's candidates:
    pick argmax of lam*rel - (1-lam)*max_sim_to_selected (both terms
    round6), ties -> lowest vec_id; max-sim-to-selected is 0 for the
    first pick. Returns (selected positions, their scores)."""
    n = rel.size
    maxsim = np.zeros(n, dtype=np.float64)
    remaining = np.ones(n, dtype=bool)
    picks, scores = [], []
    for _ in range(min(k, n)):
        score = np.round(lam * rel - (1.0 - lam) * maxsim, 6)
        cand = np.flatnonzero(remaining)
        best = cand[np.lexsort((vids[cand], -score[cand]))[0]]
        picks.append(best)
        scores.append(score[best])
        remaining[best] = False
        maxsim = np.maximum(maxsim, cc[:, best])
    return np.asarray(picks, dtype=np.int64), np.asarray(scores)


def mmr_rerank(
    embeddings: "ray.data.Dataset",
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    *,
    k: int = 10,
    n_cand: int = 50,
    lam: float = 0.7,
) -> "ray.data.Dataset":
    """Maximal-marginal-relevance diversified top-k (Carbonell &
    Goldstein 1998): exact cosine top-``n_cand`` candidates per query
    (distributed partial top-k, broadcast query matrix), then the MMR
    greedy rerank — score = lam * rel(q, d) - (1 - lam) * max sim(d, s)
    over already-selected s — inside a per-query ``map_groups``.

    Scale shape: stage 1 is the brute scan (swap in the LSH/IVF candidate
    generators for the pruned path); stage 2 touches only k x n_cand
    values per query, distributed per query group — the driver never sees
    candidates. Deterministic: round6 sims/scores, vec_id tie-breaks."""
    from datafiller_ray.config import EngineValueError

    if k < 1:
        raise EngineValueError(f"k must be >= 1, got {k}")
    if n_cand < k:
        raise EngineValueError(f"n_cand must be >= k, got {n_cand} < {k}")
    if not (0.0 < lam <= 1.0):
        raise EngineValueError(f"lam must be in (0, 1], got {lam}")
    ref = ray.put(
        {"ids": np.asarray(query_ids), "matrix": np.asarray(query_matrix)}
    )
    partial = embeddings.map_batches(
        _MMRCandScorer,
        fn_constructor_args=(ref, n_cand),
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, 8),
    )

    def rerank_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sim", "vec_id"], ascending=[False, True]).head(
            n_cand
        )
        vids = g["vec_id"].to_numpy(np.int64)
        rel = g["sim"].to_numpy(np.float64)
        V = np.stack(g["embedding"].to_numpy())
        cc = np.round(V @ V.T, 6)
        picks, scores = _mmr_select(rel, cc, vids, k, lam)
        return pd.DataFrame(
            {
                "query_id": g["query_id"].to_numpy(np.int64)[picks],
                "rank": np.arange(1, picks.size + 1, dtype=np.int64),
                "vec_id": vids[picks],
                "relevance": rel[picks],
                "mmr_score": scores,
            }
        )

    return partial.groupby("query_id").map_groups(
        rerank_group, batch_format="pandas"
    )


class _KnnEdgeScorer:
    """Per-batch directed kNN edges against the broadcast normalized
    corpus: one matmul per batch, self-match masked, deterministic
    per-row top-k (round6 sim desc, vec_id asc)."""

    def __init__(self, ref, k: int) -> None:
        d = ray.get(ref) if not isinstance(ref, dict) else ref
        self.ids = d["ids"]
        self.Mn = d["matrix"]
        self.order = np.argsort(self.ids)
        self.k = k

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids, M = _batch_matrix(batch)
        Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
        sims = np.round(Mn @ self.Mn.T, 6)
        # mask each row's own corpus position (ids are unique)
        pos = self.order[
            np.searchsorted(self.ids, ids, sorter=self.order)
        ]
        sims[np.arange(ids.size), pos] = -np.inf
        k = min(self.k, self.ids.size - 1)
        out = []
        for r in range(ids.size):
            s = sims[r]
            top = np.lexsort((self.ids, -s))[:k]
            out.append(
                pd.DataFrame(
                    {
                        "src": ids[r],
                        "dst": self.ids[top],
                        "sim": s[top],
                        "rank": np.arange(1, top.size + 1, dtype=np.int64),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)


def _blockwise_knn_edges(
    embeddings: "ray.data.Dataset", *, k: int, n_shards: int
) -> "ray.data.Dataset":
    """Exact directed cosine-kNN edges with BOUNDED task memory — the
    block-nested-loop exchange: vectors hash-shard by ``vec_id``; each
    vector is replicated as QUERY into its row of shard-pair groups and as
    CORPUS into its column (``2 * n_shards - 1`` replicas, the shuffle is
    ``O(n * n_shards)`` embedding rows — never a corpus broadcast or
    driver collect). Each (q, c) group emits per-query partial top-k
    edges from one shard-pair matmul (ties included past the boundary so
    the deterministic rule survives the merge); a second bounded exchange
    (:func:`~datafiller_ray.stages.exchange.grouped_topk` on ``src``, at
    most ``k * n_shards`` rows per query) applies the identical
    (sim desc round6, vec_id asc) rule globally. Global top-k of a union
    is the top-k of per-part top-ks under one total order, so the result
    matches the brute broadcast scorer bit-for-bit."""
    from datafiller_ray.stages.exchange import grouped_topk

    def replicate(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[["vec_id", "embedding"]]
        shard = _vec_shard(b["vec_id"].to_numpy(np.int64), n_shards)
        frames = []
        for t in range(n_shards):
            f = b.copy()
            # query replica in group (shard, t); at t == shard the single
            # replica carries both roles (bit 1 = query, bit 2 = corpus)
            f["role"] = np.where(shard == t, 3, 1)
            f["gkey"] = shard * n_shards + t
            frames.append(f)
            off = shard != t
            f2 = b[off].copy()
            f2["role"] = 2
            f2["gkey"] = t * n_shards + shard[off]
            frames.append(f2)
        return pd.concat(frames, ignore_index=True)

    _empty = {
        "src": np.empty(0, dtype=np.int64),
        "dst": np.empty(0, dtype=np.int64),
        "sim": np.empty(0, dtype=np.float64),
    }

    def edge_group(g: pd.DataFrame) -> pd.DataFrame:
        q, c = divmod(int(g["gkey"].iloc[0]), n_shards)
        role = g["role"].to_numpy(np.int64)
        ids = g["vec_id"].to_numpy(np.int64)
        Mn = _normalize_rows(np.stack(g["embedding"].to_numpy()).astype(np.float64))
        qm, cm = (role & 1) > 0, (role & 2) > 0
        ids_q, ids_c = ids[qm], ids[cm]
        sims = np.round(Mn[qm] @ Mn[cm].T, 6)
        if q == c:
            # same shard: query and corpus rows are the identical slice,
            # so self-pairs are exactly the diagonal
            np.fill_diagonal(sims, -np.inf)
        kk = min(k, ids_c.size - (1 if q == c else 0))
        if kk <= 0:
            return pd.DataFrame(_empty)
        # kk-th largest per row, ties kept past the boundary then cut by
        # the deterministic (sim desc, vec_id asc) rule
        thr = np.partition(sims, ids_c.size - kk, axis=1)[:, ids_c.size - kk]
        rows, cols = np.nonzero((sims >= thr[:, None]) & np.isfinite(sims))
        sel = sims[rows, cols]
        order = np.lexsort((ids_c[cols], -sel, rows))
        rows, cols, sel = rows[order], cols[order], sel[order]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        counts = np.diff(np.r_[starts, rows.size])
        rank_in = np.arange(rows.size) - np.repeat(starts, counts)
        keep = rank_in < kk
        return pd.DataFrame(
            {"src": ids_q[rows[keep]], "dst": ids_c[cols[keep]], "sim": sel[keep]}
        )

    partial = (
        embeddings.map_batches(replicate, batch_format="pandas")
        .groupby("gkey")
        .map_groups(edge_group, batch_format="pandas")
    )
    return grouped_topk(partial, "src", "sim", ["dst"], k, rank_name="rank")


def _directed_knn_edges(
    embeddings: "ray.data.Dataset",
    *,
    k: int,
    count: int,
    max_broadcast_rows: int,
    n_shards: int,
) -> "ray.data.Dataset":
    """Directed cosine top-k edges (src, dst, sim, rank), size-gated
    between the brute broadcast scorer (corpus matrix ``ray.put`` once,
    exact baseline under the gate) and the bit-identical
    :func:`_blockwise_knn_edges` shard-pair exchange above it — the same
    gate-then-delegate shape as the IVF trainer's bounded sample."""
    if count > max_broadcast_rows:
        return _blockwise_knn_edges(embeddings, k=k, n_shards=n_shards)
    df = embeddings.to_pandas()  # under the gate: bounded corpus broadcast
    ids = df["vec_id"].to_numpy(np.int64)
    M = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
    ref = ray.put({"ids": ids, "matrix": Mn})
    return embeddings.map_batches(
        _KnnEdgeScorer,
        fn_constructor_args=(ref, k),
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, 8),
    )


def mutual_knn(
    embeddings: "ray.data.Dataset",
    *,
    k: int = 5,
    max_broadcast_rows: int = 200_000,
    n_shards: int = 8,
) -> "ray.data.Dataset":
    """Mutual-kNN graph: undirected edges (vec_a < vec_b) where each
    endpoint is in the OTHER's cosine top-k — the standard high-precision
    candidate graph for agglomerative dedup/clustering (one-sided kNN
    edges from hub vectors don't survive the mutuality test).

    Shape: directed edges come from :func:`_directed_knn_edges` — the
    brute broadcast scan under the ``max_broadcast_rows`` gate, the
    bounded-memory shard-pair exchange above it (bit-identical output; no
    whole-corpus driver collect on either path). The mutuality check is a
    bounded hash exchange: each directed edge lands on its unordered-pair
    coarse key, and a vectorized self-merge inside each of the <=1024
    groups keeps pairs present in both directions — no driver pass."""
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.exchange import coarse_map_groups

    if k < 1:
        raise EngineValueError(f"k must be >= 1, got {k}")
    edges = _directed_knn_edges(
        embeddings,
        k=k,
        count=embeddings.count(),
        max_broadcast_rows=max_broadcast_rows,
        n_shards=n_shards,
    )

    def pair_key(batch: pd.DataFrame) -> pd.DataFrame:
        src = batch["src"].to_numpy(np.int64)
        dst = batch["dst"].to_numpy(np.int64)
        return batch.assign(lo=np.minimum(src, dst), hi=np.maximum(src, dst))

    def mutual_group(g: pd.DataFrame) -> pd.DataFrame:
        fwd = g[g["src"] == g["lo"]]
        rev = g[g["src"] == g["hi"]]
        m = fwd.merge(
            rev[["lo", "hi", "rank"]],
            on=["lo", "hi"],
            suffixes=("", "_rev"),
        )
        out = pd.DataFrame(
            {
                "vec_a": m["lo"].to_numpy(np.int64),
                "vec_b": m["hi"].to_numpy(np.int64),
                "sim": m["sim"].to_numpy(np.float64),
                "rank_ab": m["rank"].to_numpy(np.int64),
                "rank_ba": m["rank_rev"].to_numpy(np.int64),
            }
        )
        if len(out) == 0:
            out["vec_a"] = out["vec_a"].astype(np.int64)
        return out

    return coarse_map_groups(
        edges.map_batches(pair_key, batch_format="pandas"),
        ["lo", "hi"],
        mutual_group,
        n_buckets=1024,
    )


def knn_outlier(
    embeddings: "ray.data.Dataset",
    *,
    k: int = 5,
    max_broadcast_rows: int = 200_000,
    n_shards: int = 8,
) -> "ray.data.Dataset":
    """k-th-nearest-neighbor novelty score per vector: score = 1 -
    cosine(v, its k-th NN) — the classic distance-based outlier measure
    (Ramaswamy et al. 2000) adapted to cosine space; high score = the
    vector sits in no local neighborhood (candidate mislabeled / noise /
    novel-domain doc worth routing to review before training).

    Shape: the directed edges of :func:`_directed_knn_edges` (brute
    broadcast under the ``max_broadcast_rows`` gate, bounded shard-pair
    exchange above it — bit-identical, no whole-corpus driver collect),
    keeping only each row's rank-k edge; the score is a per-row
    reduction."""
    from datafiller_ray.config import EngineValueError

    if k < 1:
        raise EngineValueError(f"k must be >= 1, got {k}")
    count = embeddings.count()
    if k >= count:
        raise EngineValueError(
            f"k={k} needs at least k+1 vectors, got {count}"
        )
    edges = _directed_knn_edges(
        embeddings,
        k=k,
        count=count,
        max_broadcast_rows=max_broadcast_rows,
        n_shards=n_shards,
    )

    def kth_only(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch[batch["rank"] == k]
        return pd.DataFrame(
            {
                "vec_id": m["src"].to_numpy(np.int64),
                "kth_nn": m["dst"].to_numpy(np.int64),
                "kth_sim": m["sim"].to_numpy(np.float64),
                "score": np.round(1.0 - m["sim"].to_numpy(np.float64), 6),
            }
        )

    return edges.map_batches(kth_only, batch_format="pandas")
