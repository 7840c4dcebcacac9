"""Corpus-hygiene operators for training-data preparation over the
``documents`` table (doc_id:int64, text:string, lang:string, source:string,
n_chars:int64).

Engine-level additions beyond the reference (which has no text ops): the
standard pre-training filters published for large text corpora —

- benchmark decontamination (flag training docs sharing word n-grams with a
  held-out benchmark set, the GPT-3 "13-gram" style check),
- within-document repetition ratios (Gopher-style duplicate n-gram
  fraction),
- unigram log-probability quality scoring (corpus-LM perplexity proxy),
- per-source TF-IDF top terms,
- PII scrubbing (email/phone redaction).

Scale posture: every per-document stage is a vectorized ``map_batches``
(object-level NumPy / pandas C kernels, no Python loop over rows). The only
aggregates are bounded small tables — the benchmark n-gram set (bounded by
the benchmark corpus, thousands of docs by construction), the unigram
vocabulary, and the per-word document frequencies (both bounded by
tokenizer-vocabulary size, ~1e5 at 100 TB) — each gathered once and
broadcast via ``ray.put``, never reshuffled per batch. Nothing materializes
the corpus on the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

# ---------------------------------------------------------------------------
# shared vectorized word n-gram kernel


def word_grams(texts: pd.Series, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a batch of texts into word ``n``-grams.

    Words are ``\\s+`` runs of ``str.split()`` (identical to the oracle's
    ``regexp_extract_all(text, '\\S+')``); grams are the words joined by a
    single space, matching DuckDB's ``array_to_string(w[i:i+n-1], ' ')``.

    Returns ``(doc_pos, grams)`` — positional row index into the batch and
    the gram strings, both 1-D, one entry per n-gram. Vectorized: one
    pandas ``explode`` plus ``n-1`` object-array shifts; no per-row loop.
    """
    words = texts.fillna("").str.split()
    ex = words.reset_index(drop=True).explode()
    ex = ex[ex.notna()]
    if len(ex) == 0:
        return np.empty(0, np.int64), np.empty(0, object)
    doc_pos = ex.index.to_numpy(np.int64)
    flat = ex.to_numpy(dtype=object)
    if len(flat) < n:
        return np.empty(0, np.int64), np.empty(0, object)
    m = len(flat) - n + 1
    # a gram starting at i is valid only if all n words are from the same doc
    mask = doc_pos[:m] == doc_pos[n - 1 :]
    grams = flat[:m].copy()
    sep = np.full(m, " ", dtype=object)
    for j in range(1, n):
        grams = grams + sep + flat[j : m + j]
    return doc_pos[:m][mask], grams[mask]


# ---------------------------------------------------------------------------
# benchmark decontamination


def _bench_gram_partial(n: int):
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        _, grams = word_grams(batch["text"], n)
        if len(grams) == 0:
            return pd.DataFrame({"g": pd.Series([], dtype=object)})
        return pd.DataFrame({"g": pd.unique(grams)})

    return fn


class _ContaminationProbe:
    """Per-batch membership probe against the broadcast benchmark gram set.

    The set is fetched from the object store ONCE per actor (``ray.get`` of
    the ``ray.put`` handle in ``__init__``), not per batch.
    """

    def __init__(self, bench_ref, n: int, holdout_mod: int) -> None:
        self.bench: frozenset = frozenset(ray.get(bench_ref))
        self.n = n
        self.holdout_mod = holdout_mod

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        train = batch[batch["doc_id"].to_numpy(np.int64) % self.holdout_mod != 0]
        train = train.reset_index(drop=True)
        doc_pos, grams = word_grams(train["text"], self.n)
        n_hits = np.zeros(len(train), np.int64)
        if len(grams):
            hit = pd.Series(grams).isin(self.bench).to_numpy()
            if hit.any():
                # distinct matched grams per doc (the oracle's COUNT(DISTINCT g))
                pairs = pd.DataFrame({"d": doc_pos[hit], "g": grams[hit]})
                cnt = pairs.drop_duplicates().groupby("d").size()
                n_hits[cnt.index.to_numpy(np.int64)] = cnt.to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": train["doc_id"].to_numpy(np.int64),
                "n_hits": n_hits,
            }
        )


def decontaminate(
    documents: "ray.data.Dataset",
    *,
    n: int = 5,
    holdout_mod: int = 50,
) -> "ray.data.Dataset":
    """Flag training documents that share any word ``n``-gram with the
    held-out benchmark slice (``doc_id % holdout_mod == 0`` stands in for
    the external eval set; in production the benchmark is its own corpus).

    Two stages: (1) the benchmark docs' distinct grams are aggregated
    through a small ``groupby`` (set size bounded by the benchmark corpus)
    and broadcast once; (2) every training doc probes the broadcast set in
    a vectorized batch kernel. Output: one row per training doc with the
    distinct-matched-gram count. The training corpus itself is never
    shuffled or gathered.
    """
    def bench_slice(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["doc_id"].to_numpy(np.int64) % holdout_mod == 0]

    # per-batch distinct grams, deduped on the driver — the benchmark slice
    # is bounded by contract, and this avoids Ray's aggregate operator
    # (min_parallelism reduce partitions: ~25 s of scheduling for tiny data)
    bench_grams = documents.map_batches(
        bench_slice, batch_format="pandas"
    ).map_batches(_bench_gram_partial(n), batch_format="pandas")
    gram_list = list({r["g"] for r in bench_grams.take_all()})
    bench_ref = ray.put(gram_list)
    return documents.map_batches(
        _ContaminationProbe,
        fn_constructor_args=(bench_ref, n, holdout_mod),
        batch_format="pandas",
        concurrency=(1, 4),
        # per-doc text stages: small batches so the pool parallelizes even
        # on a 5k-doc table (4096-doc batches -> 2 tasks total)
        batch_size=512,
    )


# ---------------------------------------------------------------------------
# within-document repetition (duplicate n-gram fraction)


class _RepetitionStats:
    def __init__(self, n: int) -> None:
        self.n = n

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        doc_pos, grams = word_grams(batch["text"], self.n)
        n_grams = np.zeros(len(batch), np.int64)
        n_distinct = np.zeros(len(batch), np.int64)
        if len(grams):
            frame = pd.DataFrame({"d": doc_pos, "g": grams})
            per = frame.groupby("d")["g"].agg(["size", "nunique"])
            idx = per.index.to_numpy(np.int64)
            n_grams[idx] = per["size"].to_numpy(np.int64)
            n_distinct[idx] = per["nunique"].to_numpy(np.int64)
        dup_ratio = np.where(
            n_grams > 0,
            np.round(1.0 - n_distinct / np.maximum(n_grams, 1), 6),
            0.0,
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "n_grams": n_grams,
                "n_distinct": n_distinct,
                "dup_ratio": dup_ratio,
            }
        )


def doc_repetition(documents: "ray.data.Dataset", *, n: int = 3) -> "ray.data.Dataset":
    """Gopher-style within-document repetition: per doc, the fraction of
    word ``n``-grams that are duplicates (``1 - distinct/total``). Purely
    per-document — a single vectorized ``map_batches``, no shuffle."""
    return documents.map_batches(
        _RepetitionStats,
        fn_constructor_args=(n,),
        batch_format="pandas",
        concurrency=(1, 4),
        # per-doc text stages: small batches so the pool parallelizes even
        # on a 5k-doc table (4096-doc batches -> 2 tasks total)
        batch_size=512,
    )


# ---------------------------------------------------------------------------
# unigram log-probability scoring


def _word_count_partial(batch: pd.DataFrame) -> pd.DataFrame:
    ex = batch["text"].fillna("").str.split().explode()
    ex = ex[ex.notna()]
    vc = ex.value_counts()
    return pd.DataFrame(
        {"w": vc.index.to_numpy(dtype=object), "cnt": vc.to_numpy(np.int64)}
    )


class _LogProbScorer:
    """Scores docs by mean negative log unigram probability under the
    corpus's own unigram LM. The (word -> -ln p) table is vocabulary-sized,
    fetched once per actor from the broadcast handle."""

    def __init__(self, logp_ref) -> None:
        w, logp = ray.get(logp_ref)
        self.table = pd.Series(logp, index=w)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        ex = batch["text"].fillna("").str.split().explode()
        ex = ex[ex.notna()]
        out_n = np.zeros(len(batch), np.int64)
        out_s = np.full(len(batch), np.nan)
        if len(ex):
            doc_pos = ex.index.to_numpy(np.int64)
            # vocabulary lookup at C speed; unseen words cannot occur (the
            # vocab was built from this corpus) but map to NaN defensively
            nlp = self.table.reindex(ex.to_numpy(dtype=object)).to_numpy()
            frame = pd.DataFrame({"d": doc_pos, "v": nlp})
            agg = frame.groupby("d")["v"].agg(["size", "mean"])
            idx = agg.index.to_numpy(np.int64)
            out_n[idx] = agg["size"].to_numpy(np.int64)
            out_s[idx] = np.round(agg["mean"].to_numpy(), 6)
        out = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "n_words": out_n,
                "mean_nll": out_s,
            }
        )
        # 0-word docs have no unigram distribution: drop them (the oracle's
        # GROUP BY over exploded words produces no row for them either)
        return out[out["n_words"] > 0]


def unigram_logprob(documents: "ray.data.Dataset") -> "ray.data.Dataset":
    """Two-pass unigram-LM quality score: (1) corpus word counts via
    partial ``value_counts`` per batch + one small ``groupby`` combine
    (vocabulary-bounded); (2) broadcast the -ln p table and score every doc
    in a vectorized batch kernel. Output: (doc_id, n_words, mean_nll)."""
    from datafiller_ray.stages.exchange import grouped_sum

    counts = grouped_sum(
        documents.map_batches(_word_count_partial, batch_format="pandas"),
        "w",
        "cnt",
    )
    rows = counts.take_all()  # vocabulary-sized, NOT corpus-sized
    words = np.array([r["w"] for r in rows], dtype=object)
    cnt = np.array([r["cnt"] for r in rows], dtype=np.int64)
    total = int(cnt.sum())
    logp_ref = ray.put((words, -np.log(cnt / float(total))))
    return documents.map_batches(
        _LogProbScorer,
        fn_constructor_args=(logp_ref,),
        batch_format="pandas",
        concurrency=(1, 4),
        # per-doc text stages: small batches so the pool parallelizes even
        # on a 5k-doc table (4096-doc batches -> 2 tasks total)
        batch_size=512,
    )


# ---------------------------------------------------------------------------
# per-source TF-IDF top terms


def _tf_partial(batch: pd.DataFrame) -> pd.DataFrame:
    ex = batch.set_index("source")["text"].fillna("").str.split().explode()
    ex = ex[ex.notna()]
    frame = pd.DataFrame(
        {"source": ex.index.to_numpy(dtype=object), "w": ex.to_numpy(dtype=object)}
    )
    return frame.groupby(["source", "w"]).size().reset_index(name="tf")


class _TfIdfScore:
    def __init__(self, df_ref, n_src: int) -> None:
        w, df = ray.get(df_ref)
        self.idf = pd.Series(np.log(n_src / df.astype(np.float64)), index=w)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        idf = self.idf.reindex(batch["w"].to_numpy(dtype=object)).to_numpy()
        tf = batch["tf"].to_numpy(np.int64)
        score = np.round(tf.astype(np.float64) * idf, 6)
        return pd.DataFrame(
            {"source": batch["source"], "w": batch["w"], "tf": tf, "score": score}
        )


def _topk_group(k: int):
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "w"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return fn


def tfidf_topterms(documents: "ray.data.Dataset", *, k: int = 10) -> "ray.data.Dataset":
    """Top-``k`` TF-IDF terms per source. tf comes from per-batch partial
    counts combined by one ``groupby((source, w))``; document frequency and
    the source count are derived from that (vocabulary-bounded) table,
    broadcast once; ranking is a per-source ``map_groups`` top-k —
    deterministic ties ``(score DESC, w ASC)``."""
    from datafiller_ray.stages.exchange import grouped_sum

    tf = grouped_sum(
        documents.map_batches(_tf_partial, batch_format="pandas"),
        ["source", "w"],
        "tf",
    ).materialize()  # consumed three times below (df, n_src, ranking)
    df_rows = grouped_sum(
        tf.map_batches(
            lambda b: pd.DataFrame({"w": b["w"], "one": np.ones(len(b), np.int64)}),
            batch_format="pandas",
        ),
        "w",
        "one",
    ).take_all()  # vocabulary-sized
    words = np.array([r["w"] for r in df_rows], dtype=object)
    df = np.array([r["one"] for r in df_rows], dtype=np.int64)
    n_src = len(
        {
            r["source"]
            for r in tf.map_batches(
                lambda b: pd.DataFrame({"source": pd.unique(b["source"])}),
                batch_format="pandas",
            ).take_all()
        }
    )
    df_ref = ray.put((words, df))
    scored = tf.map_batches(
        _TfIdfScore,
        fn_constructor_args=(df_ref, n_src),
        batch_format="pandas",
        concurrency=(1, 4),
    )
    return scored.groupby("source").map_groups(_topk_group(k), batch_format="pandas")


# ---------------------------------------------------------------------------
# PII scrubbing


class PiiScrubber:
    """Email/phone redaction with counts. Regexes compile once per actor;
    the patterns are RE2-compatible so DuckDB's regexp functions serve as
    the oracle verbatim."""

    EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
    PHONE = r"\+?[0-9]{3}[-. ][0-9]{3}[-. ][0-9]{4}"

    def __init__(self) -> None:
        import re

        self.email = re.compile(self.EMAIL)
        self.phone = re.compile(self.PHONE)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        n_emails = text.str.count(self.email).to_numpy(np.int64)
        clean = text.str.replace(self.email, "<EMAIL>", regex=True)
        n_phones = clean.str.count(self.phone).to_numpy(np.int64)
        clean = clean.str.replace(self.phone, "<PHONE>", regex=True)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "n_emails": n_emails,
                "n_phones": n_phones,
                "clean_text": clean,
            }
        )


def pii_scrub(documents: "ray.data.Dataset") -> "ray.data.Dataset":
    """Redact emails then phone numbers (in that order — a phone inside an
    already-redacted email span is not re-counted), reporting per-doc
    counts. Pure per-document ``map_batches``; no shuffle."""
    return documents.map_batches(
        PiiScrubber,
        batch_format="pandas",
        concurrency=(1, 4),
        # per-doc text stages: small batches so the pool parallelizes even
        # on a 5k-doc table (4096-doc batches -> 2 tasks total)
        batch_size=512,
    )


# ---------------------------------------------------------------------------
# cross-document shared-substring (window) duplication


def _window_totals(n: int):
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        # window count is just max(n_words - n + 1, 0): one vectorized
        # token count, no gram materialization in this pass (fillna first —
        # str.count on null text yields NaN, word_grams' contract is "")
        words = (
            batch["text"].fillna("").str.count(r"\S+").to_numpy(np.int64)
        )
        nw = np.maximum(words - (n - 1), 0)
        return pd.DataFrame(
            {"doc_id": batch["doc_id"].to_numpy(np.int64), "nw": nw}
        )

    return fn


def _window_partial(n: int):
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        doc_pos, grams = word_grams(batch["text"], n)
        if len(grams) == 0:
            return pd.DataFrame(
                {
                    "g": pd.Series([], dtype=object),
                    "doc_id": pd.Series([], dtype=np.int64),
                    "npos": pd.Series([], dtype=np.int64),
                }
            )
        df = pd.DataFrame(
            {
                "g": grams,
                "doc_id": batch["doc_id"].to_numpy(np.int64)[doc_pos],
            }
        )
        # one partial row per (gram, doc) with its position count — a doc is
        # one input row, so partials never split a (gram, doc) pair
        agg = df.groupby(["g", "doc_id"], sort=False, as_index=False).size()
        return pd.DataFrame(
            {
                "g": agg["g"].to_numpy(dtype=object),
                "doc_id": agg["doc_id"].to_numpy(np.int64),
                "npos": agg["size"].to_numpy(np.int64),
            }
        )

    return fn


def _shared_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
    # the hash only ROUTES grams; equality is decided on the gram string
    # (factorize), so hash collisions cannot merge distinct windows. Each
    # (gram, doc) pair is GLOBALLY unique — a doc's grams are built in one
    # batch and the partial collapsed within-batch repeats — so the
    # distinct-doc count per gram is simply its row count here. All-numpy
    # per call: this fn runs once per coarse bucket, and pandas
    # groupby/transform per call was the dominant cost of the operator.
    codes, _ = pd.factorize(g["g"].to_numpy(dtype=object), sort=False)
    nd = np.bincount(codes)
    dup = nd[codes] > 1
    if not dup.any():
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype=np.int64),
                "ns": pd.Series([], dtype=np.int64),
            }
        )
    dcodes, duniq = pd.factorize(g["doc_id"].to_numpy(np.int64)[dup], sort=False)
    ns = np.bincount(dcodes, weights=g["npos"].to_numpy(np.int64)[dup])
    return pd.DataFrame(
        {
            "doc_id": duniq.astype(np.int64),
            "ns": ns.astype(np.int64),
        }
    )


def substring_dup(
    documents: "ray.data.Dataset",
    *,
    n: int = 8,
    n_buckets: int = 1024,
) -> "ray.data.Dataset":
    """Cross-document substring duplication (the RefinedWeb-style exact
    window dedup signal): per document, how many of its word ``n``-gram
    window POSITIONS also occur in at least one OTHER document, and the
    fraction of such positions.

    Unlike :func:`doc_repetition` (within-doc) and the MinHash family
    (whole-doc similarity), this finds verbatim passage reuse — boilerplate,
    licence blocks, syndicated paragraphs — at exact n-gram granularity.

    Plan: (1) a map-only pass counts each doc's window positions;
    (2) per-batch partials collapse to one (gram, doc, n_positions) row,
    routed by ``coarse_map_groups`` on the gram (``n_buckets`` coarse
    groups bound the exchange fan-in, the minhash-LSH precedent) — within
    a bucket a vectorized pandas pass finds grams spanning >1 distinct
    doc (equality on the gram STRING, the hash only routes) and credits
    each doc its shared positions; (3) the two small (doc, count) streams merge through
    one int-keyed groupby. The documents themselves never shuffle — only
    gram partials do, and per-batch dedup already collapsed repeats.

    Output: (doc_id, n_windows, n_shared, shared_frac), shared_frac
    banker's-rounded to 6 decimals like :func:`doc_repetition`.
    """
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.exchange import coarse_map_groups, grouped_sum

    if n < 2:
        raise EngineValueError(f"n must be >= 2, got {n}")

    totals = documents.map_batches(
        _window_totals(n), batch_format="pandas", batch_size=4096
    )
    grams = documents.map_batches(
        # SMALL batches: gram explosion is the heavy stage (~2 ms/doc,
        # ~50x fan-out) — a 4096-doc batch serializes the whole table
        # into 2 tasks; 256 docs/task keeps every core busy
        _window_partial(n), batch_format="pandas", batch_size=256
    )
    shared = coarse_map_groups(
        grams, "g", _shared_in_bucket, n_buckets=n_buckets
    )

    def tag_totals(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": b["doc_id"], "nw": b["nw"],
             "ns": np.zeros(len(b), np.int64)}
        )

    def tag_shared(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": b["doc_id"], "nw": np.zeros(len(b), np.int64),
             "ns": b["ns"]}
        )

    merged = grouped_sum(
        totals.map_batches(tag_totals, batch_format="pandas")
        .union(shared.map_batches(tag_shared, batch_format="pandas")),
        "doc_id",
        ["nw", "ns"],
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        nw = b["nw"].to_numpy(np.int64)
        ns = b["ns"].to_numpy(np.int64)
        frac = np.where(
            nw > 0, np.round(ns / np.maximum(nw, 1), 6), 0.0
        )
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "n_windows": nw,
                "n_shared": ns,
                "shared_frac": frac,
            }
        )

    return merged.map_batches(finish, batch_format="pandas")


# ---------------------------------------------------------------------------
# Deequ-style data-quality check suite


_QC_CHECKS = (
    "text_nonempty",
    "nchars_consistent",
    "lang_present",
    "nchars_range",
    "doc_id_unique",
)


def quality_checks(
    documents: "ray.data.Dataset", *, max_chars: int = 100_000
) -> "ray.data.Dataset":
    """One-pass constraint validation over the documents table — the
    Deequ/Great-Expectations shape re-expressed Ray-Data-first. Five
    checks, each a (check_name, n_rows, n_violations, passed) row:

    - ``text_nonempty``: text is non-null and non-empty,
    - ``nchars_consistent``: n_chars equals length(text) (null = violation),
    - ``lang_present``: lang is non-null and non-empty,
    - ``nchars_range``: 1 <= n_chars <= max_chars,
    - ``doc_id_unique``: duplicates counted as n_rows - n_distinct.

    Scale shape: the four row-local checks collapse to <= 4 counter rows
    per batch (integer partials, one bounded grouped_sum exchange — the
    corpus never leaves the workers); uniqueness needs co-location, so it
    rides the ONE doc_id-keyed grouped_sum and re-collapses to per-batch
    (dup_excess, distinct) counters. All counts are exact integers; there
    are no floats anywhere in the operator.
    """
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.exchange import grouped_sum

    if max_chars < 1:
        raise EngineValueError(f"max_chars must be >= 1, got {max_chars}")

    def part(b: pd.DataFrame) -> pd.DataFrame:
        n = len(b)
        text = b["text"]
        tlen = text.str.len()
        bad_text = int((text.isna() | (tlen.fillna(0) == 0)).sum())
        mismatch = int(
            (text.isna() | b["n_chars"].isna() | (b["n_chars"] != tlen)).sum()
        )
        lang = b["lang"]
        bad_lang = int((lang.isna() | (lang.str.len().fillna(0) == 0)).sum())
        ncr = b["n_chars"]
        bad_range = int((ncr.isna() | (ncr < 1) | (ncr > max_chars)).sum())
        return pd.DataFrame(
            {
                "check_name": np.array(
                    [
                        "text_nonempty",
                        "nchars_consistent",
                        "lang_present",
                        "nchars_range",
                    ],
                    dtype=object,
                ),
                "n_rows": np.full(4, n, dtype=np.int64),
                "n_violations": np.array(
                    [bad_text, mismatch, bad_lang, bad_range], dtype=np.int64
                ),
            }
        )

    row_checks = grouped_sum(
        documents.map_batches(part, batch_format="pandas"),
        ["check_name"],
        ["n_rows", "n_violations"],
    )

    def id_part(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "one": np.ones(len(b), dtype=np.int64),
            }
        )

    per_id = grouped_sum(
        documents.map_batches(id_part, batch_format="pandas"),
        ["doc_id"],
        "one",
    )

    def dup_part(b: pd.DataFrame) -> pd.DataFrame:
        cnt = b["one"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "check_name": np.array(["doc_id_unique"], dtype=object),
                "n_rows": np.array([int(cnt.sum())], dtype=np.int64),
                "n_violations": np.array(
                    [int((cnt - 1).sum())], dtype=np.int64
                ),
            }
        )

    uniq_check = grouped_sum(
        per_id.map_batches(dup_part, batch_format="pandas"),
        ["check_name"],
        ["n_rows", "n_violations"],
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["passed"] = (b["n_violations"] == 0).astype(np.int64)
        return b[["check_name", "n_rows", "n_violations", "passed"]]

    return row_checks.union(uniq_check).map_batches(
        finish, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Gopher-rules composite quality census


_GOPHER_STOPWORDS = (
    "the", "and", "of", "to", "a", "in", "is", "that", "it", "for",
)


def gopher_rules(
    documents: "ray.data.Dataset",
    *,
    min_words: int = 20,
    max_words: int = 90,
    min_mean_wl: float = 4.3,
    max_mean_wl: float = 4.7,
    min_stop_hits: int = 2,
    min_distinct_ratio: float = 0.4,
) -> "ray.data.Dataset":
    """Gopher-style composite quality-rule census per source — the
    published Rae et al. 2021 repetition/length/stopword filter suite
    re-expressed as exact counters (which rules kill how many documents
    where, the diagnostic you run BEFORE committing to a filter config):

    - words:    word count outside [min_words, max_words]
    - wordlen:  mean word length outside [min_mean_wl, max_mean_wl]
    - stop:     fewer than ``min_stop_hits`` stopword occurrences
    - rep:      distinct-word ratio below ``min_distinct_ratio``
                (the duplicate-word repetition rule)

    Words are the ``' '``-split tokens (the documents fixture is
    single-spaced; the SQL oracle uses the identical ``string_split``).
    Both float rules compare on the shared round-even 6-dp ratios
    (the text_stats absorber), so the DuckDB oracle matches
    hash-exactly. Output: one row per source with n_docs, one
    n_fail_<rule> counter each, and n_pass (docs failing NO rule).

    Scale shape: per-batch vectorized predicates (one explode for the
    distinct/stopword counts, pandas C kernels) collapse to per-source
    integer counters — the corpus never leaves the workers; one bounded
    grouped_sum exchange merges the counters (quality_checks precedent).
    """
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.exchange import grouped_sum

    if min_words < 0 or max_words < min_words:
        raise EngineValueError(
            f"need 0 <= min_words <= max_words, got {min_words}, {max_words}"
        )
    if min_stop_hits < 0:
        raise EngineValueError(
            f"min_stop_hits must be >= 0, got {min_stop_hits}"
        )
    stop = frozenset(_GOPHER_STOPWORDS)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"].fillna("")
        n = len(df)
        nonempty = text.str.len().to_numpy(np.int64) > 0
        wc = np.where(
            nonempty, text.str.count(" ").to_numpy(np.int64) + 1, 0
        )
        chars = text.str.len().to_numpy(np.int64)
        wcd = np.maximum(wc, 1).astype(np.float64)
        mean_wl = np.round((chars - (wc - 1)) / wcd, 6)
        words = text.str.split(" ").reset_index(drop=True).explode()
        words = words[words.notna() & (words.str.len() > 0)]
        stop_hits = np.zeros(n, dtype=np.int64)
        distinct = np.zeros(n, dtype=np.int64)
        if len(words):
            h = words.isin(stop).groupby(level=0).sum()
            stop_hits[h.index.to_numpy(np.int64)] = h.to_numpy(np.int64)
            d = words.groupby(level=0).nunique()
            distinct[d.index.to_numpy(np.int64)] = d.to_numpy(np.int64)
        distinct_ratio = np.round(distinct / wcd, 6)
        fail_words = (wc < min_words) | (wc > max_words)
        fail_wordlen = (mean_wl < min_mean_wl) | (mean_wl > max_mean_wl)
        fail_stop = stop_hits < min_stop_hits
        fail_rep = distinct_ratio < min_distinct_ratio
        n_pass = ~(fail_words | fail_wordlen | fail_stop | fail_rep)
        out = pd.DataFrame(
            {
                "source": df["source"].to_numpy(object),
                "n_docs": np.ones(n, dtype=np.int64),
                "n_fail_words": fail_words.astype(np.int64),
                "n_fail_wordlen": fail_wordlen.astype(np.int64),
                "n_fail_stop": fail_stop.astype(np.int64),
                "n_fail_rep": fail_rep.astype(np.int64),
                "n_pass": n_pass.astype(np.int64),
            }
        )
        return out.groupby("source", sort=False, as_index=False).sum()

    cols = [
        "n_docs",
        "n_fail_words",
        "n_fail_wordlen",
        "n_fail_stop",
        "n_fail_rep",
        "n_pass",
    ]
    return grouped_sum(
        documents.map_batches(partial, batch_format="pandas"),
        "source",
        cols,
    )
