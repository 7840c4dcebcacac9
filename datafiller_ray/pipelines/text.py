"""Training-data text operations over a ``documents`` table
(doc_id:int64, text:string, lang:string, source:string, n_chars:int64).

All hot paths are vectorized (pandas str / numpy) inside ``map_batches``;
stateful pieces (compiled regexes, stopword tables, permutation matrices)
live in callable-class actors initialized once per actor.

These are engine-level additions beyond the reference (which has no text
ops); they follow the same partial+final aggregation discipline as the
rollup pipeline.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from datafiller_ray.functions.hashing import splitmix64, string_hash64
from datafiller_ray.stages.exchange import coarse_map_groups

# ---------------------------------------------------------------------------
# exact dedup


def _hash_stage(batch: pd.DataFrame) -> pd.DataFrame:
    batch = batch.copy()
    batch["_h"] = string_hash64(batch["text"].to_numpy(dtype="U")).astype(np.int64)
    return batch


def _dedup_group(g: pd.DataFrame) -> pd.DataFrame:
    # exact-equality check within the hash bucket (collision-proof): keep the
    # min doc_id per distinct text
    keep = g.sort_values("doc_id").drop_duplicates("text", keep="first")
    return keep.drop(columns=["_h"])


def exact_dedup(documents: "ray.data.Dataset") -> "ray.data.Dataset":
    """Exact dedup: content-hash in a vectorized map, hash-partitioned
    groupby, per-group first-by-doc_id. The shuffle key is the 64-bit hash
    (small), never the text payload ordering."""
    return (
        documents.map_batches(_hash_stage, batch_format="pandas")
        .groupby("_h")
        .map_groups(_dedup_group, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# normalized (case/whitespace-insensitive) dedup


def _normalize_series(text: pd.Series) -> pd.Series:
    # ASCII-pinned \s (token_count_bpe precedent) so DuckDB's RE2 '\s'
    # matches the same characters; lower() agrees on ASCII by definition.
    # strip(" ") — ASCII space ONLY, matching DuckDB trim(); bare .strip()
    # would also eat Unicode whitespace (NBSP) the oracle keeps
    return (
        text.str.lower()
        .str.replace(r"[ \t\n\r\f\v]+", " ", regex=True)
        .str.strip(" ")
    )


def _norm_hash_stage(batch: pd.DataFrame) -> pd.DataFrame:
    batch = batch.copy()
    norm = _normalize_series(batch["text"])
    batch["_norm"] = norm
    batch["_h"] = string_hash64(norm.to_numpy(dtype="U")).astype(np.int64)
    return batch


def _norm_dedup_group(g: pd.DataFrame) -> pd.DataFrame:
    keep = g.sort_values("doc_id").drop_duplicates("_norm", keep="first")
    return keep.drop(columns=["_h", "_norm"])


def normalized_dedup(documents: "ray.data.Dataset") -> "ray.data.Dataset":
    """Near-exact dedup after canonical text normalization (lowercase +
    whitespace-run collapse + strip): catches the trivially-reformatted
    duplicates byte-exact dedup misses — re-wrapped lines, case-variant
    boilerplate — without any similarity machinery.

    Same scale shape as :func:`exact_dedup`: the shuffle key is the 64-bit
    hash OF THE NORMALIZED text (equality decided on the normalized string
    inside the bucket, collision-proof), keep = min doc_id per class."""
    return (
        documents.map_batches(_norm_hash_stage, batch_format="pandas")
        .groupby("_h")
        .map_groups(_norm_dedup_group, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# token counting / quality / language id


class TextStats:
    """Whitespace token count + character-class quality ratios.

    Definitions are deliberately SQL-expressible so DuckDB can serve as the
    oracle: tok_count = number of \\s+-separated tokens of trim(text);
    alpha/digit/space ratios over n_chars.
    """

    def __init__(self) -> None:
        import re

        self.ws = re.compile(r"\s+")
        self.alpha = re.compile(r"[A-Za-z]")
        self.digit = re.compile(r"[0-9]")
        self.space = re.compile(r" ")

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        trimmed = text.str.strip()
        n = text.str.len().to_numpy(np.int64)
        tok = trimmed.str.split(self.ws).str.len().to_numpy()
        tok = np.where(trimmed.str.len().to_numpy(np.int64) == 0, 0, tok).astype(
            np.int64
        )
        alpha = text.str.count(self.alpha).to_numpy(np.int64)
        digit = text.str.count(self.digit).to_numpy(np.int64)
        space = text.str.count(self.space).to_numpy(np.int64)
        denom = np.maximum(n, 1).astype(np.float64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "tok_count": tok,
                "n_chars": n,
                "alpha_ratio": np.round(alpha / denom, 6),
                "digit_ratio": np.round(digit / denom, 6),
                "space_ratio": np.round(space / denom, 6),
            }
        )


def text_stats(documents: "ray.data.Dataset") -> "ray.data.Dataset":
    return documents.map_batches(
        TextStats, batch_format="pandas", concurrency=(1, 4), batch_size=4096
    )


_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for"},
    "fr": {"le", "la", "les", "de", "des", "et", "un", "une", "que", "est"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "nicht", "mit", "sich"},
    "es": {"el", "la", "los", "de", "y", "que", "un", "una", "es", "en"},
}


class LangId:
    """N-gram/stopword language heuristic (engine addition; no external
    models). Deterministic: argmax of stopword hit counts, ties -> 'und'."""

    def __init__(self) -> None:
        import re

        self.word = re.compile(r"[a-zà-ÿ]+")
        self.tables = {k: frozenset(v) for k, v in _STOPWORDS.items()}

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        # vectorized: one findall pass, explode to a (row, word) series, then
        # per-language membership counts via isin + groupby — no Python loop
        # over documents
        lang_names = sorted(self.tables)
        n = len(batch)
        scores = np.zeros((n, len(lang_names)), dtype=np.int64)
        words = (
            batch["text"].fillna("").str.lower().str.findall(self.word).reset_index(drop=True).explode().dropna()
        )
        if len(words):
            for j, lang in enumerate(lang_names):
                hits = words.isin(self.tables[lang]).groupby(level=0).sum()
                scores[hits.index.to_numpy(np.int64), j] = hits.to_numpy(np.int64)
        best = scores.max(axis=1)
        n_top = (scores == best[:, None]).sum(axis=1)
        # unique positive argmax wins; zero hits or ties -> 'und'
        pred = np.asarray(lang_names, dtype=object)[scores.argmax(axis=1)]
        pred[(best == 0) | (n_top > 1)] = "und"
        return pd.DataFrame(
            {"doc_id": batch["doc_id"].to_numpy(np.int64), "lang_pred": pred}
        )


class QualityFilter(TextStats):
    """Single-pass quality filter: the predicate depends only on the row, so
    ratios are computed and thresholded inside ONE map_batches — no id-set
    materialization, no second corpus pass (the round-1 two-pass shape would
    hold billions of ids on the driver at corpus scale)."""

    def __init__(self, min_tok: int, min_alpha_ratio: float, max_digit_ratio: float):
        super().__init__()
        self.min_tok = min_tok
        self.min_alpha = min_alpha_ratio
        self.max_digit = max_digit_ratio

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        stats = super().__call__(batch)
        m = (
            (stats["tok_count"].to_numpy() >= self.min_tok)
            & (stats["alpha_ratio"].to_numpy() >= self.min_alpha)
            & (stats["digit_ratio"].to_numpy() <= self.max_digit)
        )
        return batch.loc[m, ["doc_id", "source", "n_chars"]]


def quality_filter(
    documents: "ray.data.Dataset",
    *,
    min_tok: int = 5,
    min_alpha_ratio: float = 0.5,
    max_digit_ratio: float = 0.3,
) -> "ray.data.Dataset":
    """The actionable side of quality scoring: keep documents passing the
    token-count and character-class thresholds (the standard pre-training
    corpus filter shape). Returns the surviving (doc_id, source, n_chars)
    rows; thresholds are compared on the same round-6 ratios the stats op
    emits so the DuckDB oracle matches hash-exactly."""
    return documents.map_batches(
        QualityFilter,
        fn_constructor_args=(min_tok, min_alpha_ratio, max_digit_ratio),
        batch_format="pandas",
        concurrency=(1, 4),
        batch_size=4096,
    )


class _PrepareTag(TextStats):
    """Fused tag stage for :func:`corpus_prepare`: ONE pass computes the
    quality predicate (TextStats ratios), the language ID (LangId tables),
    and the routing key. Docs dropped by quality/lang leave this stage with
    their reason and an EMPTY text payload — only survivors carry text into
    the dedup exchange."""

    def __init__(self, min_tok, min_alpha_ratio, max_digit_ratio, keep_langs):
        super().__init__()
        self.min_tok = min_tok
        self.min_alpha = min_alpha_ratio
        self.max_digit = max_digit_ratio
        self.keep_langs = frozenset(keep_langs)
        self.lang = LangId()

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        stats = TextStats.__call__(self, batch)
        pass_q = (
            (stats["tok_count"].to_numpy() >= self.min_tok)
            & (stats["alpha_ratio"].to_numpy() >= self.min_alpha)
            & (stats["digit_ratio"].to_numpy() <= self.max_digit)
        )
        pred = self.lang(batch)["lang_pred"]
        lang_ok = pred.isin(self.keep_langs).to_numpy()
        reason = np.where(~pass_q, "quality", np.where(~lang_ok, "lang", ""))
        survivor = pass_q & lang_ok
        doc_id = batch["doc_id"].to_numpy(np.int64)
        # survivors route by content hash; dropped docs get a synthetic
        # singleton key (marker bit keeps the spaces disjoint in practice;
        # the group combine handles a freak collision generically)
        h = np.where(
            survivor,
            string_hash64(batch["text"].fillna("").to_numpy(dtype="U")).astype(
                np.int64
            ),
            splitmix64(doc_id.astype(np.uint64) ^ np.uint64(0xD1B54A32D192ED03))
            .view(np.int64),
        )
        return pd.DataFrame(
            {
                "doc_id": doc_id,
                "source": batch["source"].to_numpy(object),
                "n_chars": batch["n_chars"].to_numpy(np.int64),
                "reason": reason,
                "_h": h,
                "text": np.where(survivor, batch["text"].fillna(""), ""),
            }
        )


def _prepare_group(g: pd.DataFrame) -> pd.DataFrame:
    # rows already dropped upstream pass through with their reason; the
    # survivors in the bucket dedup by exact text equality (collision-proof),
    # min doc_id per distinct text wins
    out = g.drop(columns=["_h", "text"]).copy()
    surv = g["reason"].to_numpy(dtype="U") == ""
    if surv.any():
        s = g.loc[surv].sort_values("doc_id")
        winners = s.drop_duplicates("text", keep="first")["doc_id"].to_numpy()
        reason = np.where(
            np.isin(g["doc_id"].to_numpy(), winners), "kept", "duplicate"
        )
        out.loc[surv, "reason"] = reason[surv]
    return out


def corpus_prepare(
    documents: "ray.data.Dataset",
    *,
    min_tok: int = 5,
    min_alpha_ratio: float = 0.5,
    max_digit_ratio: float = 0.3,
    keep_langs=("en",),
) -> "ray.data.Dataset":
    """The composed pre-training cleaning stack as ONE pipeline: quality
    filter -> language keep -> exact dedup, emitting a per-document manifest
    (doc_id, source, n_chars, reason) with first-drop-wins attribution
    (reason in {'quality', 'lang', 'duplicate', 'kept'}).

    Scale shape: one fused map pass tags every doc (ratios + stopword lang
    ID, both vectorized) so rejected docs drop their text payload BEFORE the
    exchange; only quality+lang survivors carry text through the single
    hash-keyed dedup groupby (the :func:`exact_dedup` plan). Dedup runs
    among survivors only — matching the semantics of running the stages in
    sequence — and a dropped doc never shuffles more than its manifest row.
    """
    return (
        documents.map_batches(
            _PrepareTag,
            fn_constructor_args=(
                min_tok,
                min_alpha_ratio,
                max_digit_ratio,
                tuple(keep_langs),
            ),
            batch_format="pandas",
            concurrency=(1, 4),
            batch_size=4096,
        )
        .groupby("_h")
        .map_groups(_prepare_group, batch_format="pandas")
    )


def lang_fill(
    documents: "ray.data.Dataset", *, mask_mod: int = 7, min_samples_train: int = 5
) -> "ray.data.Dataset":
    """Categorical imputation demo over documents: deterministically mask the
    ``lang`` label (doc_id % mask_mod == 0), then recover it per source
    cohort with the mixed-dtype imputer (nearest-centroid classifier over
    text-stat features — functions/categorical.py, the engine analogue of
    the reference's classifier path). Emits (doc_id, lang_orig, lang_filled,
    was_masked)."""
    from datafiller_ray.functions.categorical import impute_mixed

    def fill_group(g: pd.DataFrame) -> pd.DataFrame:
        if g["source"].nunique() != 1:
            return pd.concat(
                [fill_group(sub) for _, sub in g.groupby("source", sort=True)],
                ignore_index=True,
            )
        g = g.sort_values("doc_id").reset_index(drop=True)
        masked = (g["doc_id"].to_numpy(np.int64) % mask_mod) == 0
        df = pd.DataFrame(
            {
                "lang": g["lang"].astype(object).mask(masked),
                "tok_count": g["tok_count"].astype(np.float64),
                "alpha_ratio": g["alpha_ratio"],
                "digit_ratio": g["digit_ratio"],
                "space_ratio": g["space_ratio"],
            }
        )
        out = impute_mixed(
            df, cols_to_impute=["lang"], min_samples_train=min_samples_train
        )
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "lang_orig": g["lang"].astype(object),
                "lang_filled": out["lang"].astype(object),
                "was_masked": masked,
            }
        )

    # one pass carries stats + labels: recompute stats columns inside the
    # merged projection to avoid a shuffle join of two datasets
    def project(batch: pd.DataFrame) -> pd.DataFrame:
        st = TextStats()(batch)
        st["source"] = batch["source"].to_numpy()
        st["lang"] = batch["lang"].to_numpy()
        return st

    per_doc = documents.map_batches(project, batch_format="pandas", batch_size=4096)
    return per_doc.groupby("source").map_groups(fill_group, batch_format="pandas")


class TokenCounts:
    """Token counting two ways: whitespace tokens and a BPE-ish pre-tokenizer
    count (``\\w+|[^\\w\\s]`` — words plus standalone punctuation, the shape
    GPT-style pre-tokenizers reduce to on ASCII). Both are vectorized
    pandas-str passes; definitions are SQL-expressible so DuckDB serves as
    the oracle."""

    def __init__(self) -> None:
        import re

        # re.ASCII pins \w and \s to the ASCII classes so the counts agree
        # with the DuckDB/RE2 oracle on ANY input, not just the (currently
        # all-ASCII) fixture — a non-ASCII letter counts as punctuation on
        # both sides instead of only one
        self.ws = re.compile(r"\s+", re.ASCII)
        self.bpe = re.compile(r"\w+|[^\w\s]", re.ASCII)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        trimmed = text.str.strip()
        ws = trimmed.str.split(self.ws).str.len().to_numpy()
        ws = np.where(trimmed.str.len().to_numpy(np.int64) == 0, 0, ws).astype(
            np.int64
        )
        bpe = text.str.count(self.bpe).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "tok_ws": ws,
                "tok_bpe": bpe,
            }
        )


def token_counts(documents: "ray.data.Dataset") -> "ray.data.Dataset":
    return documents.map_batches(
        TokenCounts, batch_format="pandas", concurrency=(1, 4), batch_size=2048
    )


def lang_id(documents: "ray.data.Dataset") -> "ray.data.Dataset":
    return documents.map_batches(
        LangId, batch_format="pandas", concurrency=(1, 4), batch_size=2048
    )


# ---------------------------------------------------------------------------
# fingerprints: simhash + rolling-hash document fingerprint


class SimHash:
    """64-bit SimHash over word unigrams (Charikar 2002).

    Whole-batch vectorized (the ``MinHasher.signatures_batch`` pattern): one
    regex pass per doc feeds a single flat word array, hashed in ONE
    ``string_hash64`` call; per-doc bit popcounts come from 64 per-bit 1-D
    ``np.add.reduceat`` segment sums (the 2-D axis-0 reduceat is ~60x
    slower). Bit-identical to the per-doc formulation (sums are
    order-free)."""

    def __init__(self) -> None:
        import re

        self.word = re.compile(r"\w+")
        self.bitpos = np.arange(64, dtype=np.uint64)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = np.zeros(len(batch), dtype=np.int64)
        word_lists = [self.word.findall(t.lower()) for t in batch["text"].fillna("")]
        counts = np.fromiter(
            (len(w) for w in word_lists), dtype=np.int64, count=len(word_lists)
        )
        keep = np.flatnonzero(counts > 0)
        if keep.size:
            flat = np.asarray(
                [w for wl in word_lists for w in wl], dtype="U"
            )
            h = string_hash64(flat)
            kept_counts = counts[keep]
            seg = np.concatenate([[0], np.cumsum(kept_counts)[:-1]])
            sums = np.empty((keep.size, 64), dtype=np.int64)
            for b in range(64):
                col = ((h >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
                sums[:, b] = np.add.reduceat(col, seg)
            v = (sums * 2 > kept_counts[:, None]).astype(np.uint64)
            out[keep] = np.bitwise_or.reduce(v << self.bitpos, axis=1).astype(
                np.int64
            )
        return pd.DataFrame(
            {"doc_id": batch["doc_id"].to_numpy(np.int64), "simhash": out}
        )


def simhash(documents: "ray.data.Dataset") -> "ray.data.Dataset":
    return documents.map_batches(
        SimHash, batch_format="pandas", concurrency=(1, 4), batch_size=2048
    )


class Fingerprint:
    """Rolling-hash (Rabin-Karp style) document fingerprint: min of rolling
    window hashes over the byte stream — a cheap content sketch.

    Whole-batch vectorized (the ``MinHasher.signatures_batch`` pattern): one
    concatenated byte buffer, window hashes in L3-sized chunks with
    ``np.minimum.reduceat`` segment mins; docs shorter than the window take
    a segment-summed per-byte splitmix. Bit-identical to the per-doc
    formulation (min and mod-2^64 sum are order-free)."""

    WINDOW = 16
    BASE = np.uint64(1_000_003)
    WINDOW_CHUNK = 131_072  # windows per chunk: (CH x 16) u64 stays ~16 MB

    def __init__(self) -> None:
        self.powers_desc = self.BASE ** np.arange(
            self.WINDOW, dtype=np.uint64
        )[::-1].copy()

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        w = self.WINDOW
        mask = np.uint64(0x7FFFFFFFFFFFFFFF)
        out = np.zeros(len(batch), dtype=np.int64)
        bufs = [t.encode("utf-8", "ignore") for t in batch["text"].fillna("")]
        lens = np.fromiter((len(b) for b in bufs), dtype=np.int64, count=len(bufs))
        data = np.frombuffer(b"".join(bufs), dtype=np.uint8)
        doc_start = np.concatenate([[0], np.cumsum(lens)[:-1]])

        with np.errstate(over="ignore"):
            keep_l = np.flatnonzero(lens >= w)
            if keep_l.size:
                counts = lens[keep_l] - w + 1
                total = int(counts.sum())
                seg = np.concatenate([[0], np.cumsum(counts)[:-1]])
                pos = np.repeat(doc_start[keep_l], counts) + (
                    np.arange(total) - np.repeat(seg, counts)
                )
                sliding = np.lib.stride_tricks.sliding_window_view(data, w)
                mins = np.full(keep_l.size, np.iinfo(np.uint64).max, np.uint64)
                for s0 in range(0, total, self.WINDOW_CHUNK):
                    s1 = min(s0 + self.WINDOW_CHUNK, total)
                    windows = sliding[pos[s0:s1]].astype(np.uint64)
                    h = splitmix64((windows * self.powers_desc).sum(axis=1))
                    j0 = int(np.searchsorted(seg, s0, side="right")) - 1
                    j1 = int(np.searchsorted(seg, s1, side="left"))
                    local = np.clip(seg[j0:j1] - s0, 0, None)
                    np.minimum(
                        mins[j0:j1],
                        np.minimum.reduceat(h, local),
                        out=mins[j0:j1],
                    )
                out[keep_l] = (mins & mask).astype(np.int64)

            keep_s = np.flatnonzero((lens > 0) & (lens < w))
            if keep_s.size:
                s_lens = lens[keep_s]
                seg_s = np.concatenate([[0], np.cumsum(s_lens)[:-1]])
                pos_s = np.repeat(doc_start[keep_s], s_lens) + (
                    np.arange(int(s_lens.sum())) - np.repeat(seg_s, s_lens)
                )
                h = splitmix64(data[pos_s].astype(np.uint64))
                out[keep_s] = (np.add.reduceat(h, seg_s) & mask).astype(np.int64)
        return pd.DataFrame(
            {"doc_id": batch["doc_id"].to_numpy(np.int64), "fingerprint": out}
        )


def fingerprint(documents: "ray.data.Dataset") -> "ray.data.Dataset":
    return documents.map_batches(
        Fingerprint, batch_format="pandas", concurrency=(1, 4), batch_size=2048
    )


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup


class MinHasher:
    """Char-shingle MinHash signatures (k=5 shingles, 128 permutations via
    universal hashing), banded for LSH (16 bands x 8 rows).

    Permutation parameters are built once per actor in __init__ (stateful
    actor-pool stage)."""

    K = 5
    NUM_PERM = 128
    BANDS = 16

    def __init__(self) -> None:
        rng = np.random.default_rng(1234)
        self.a = rng.integers(1, 2**61 - 1, self.NUM_PERM, dtype=np.uint64) | np.uint64(1)
        self.b = rng.integers(0, 2**61 - 1, self.NUM_PERM, dtype=np.uint64)

    SHINGLE_CHUNK = 8192  # (NUM_PERM, CHUNK) work buffer = 8 MB: L3-resident.
    # Larger chunks go DRAM-bound (measured 0.26 s at 8k vs 10+ s unchunked
    # for 1.5M shingles on this VM); smaller ones pay per-chunk overhead.

    def signature(self, text: str) -> np.ndarray | None:
        """Per-doc reference path (kept as the oracle for the batch path)."""
        data = np.frombuffer(text.lower().encode("utf-8", "ignore"), dtype=np.uint8)
        if data.size < self.K:
            return None
        windows = np.lib.stride_tricks.sliding_window_view(data, self.K).astype(np.uint64)
        with np.errstate(over="ignore"):
            powers = np.uint64(257) ** np.arange(self.K, dtype=np.uint64)
            shingles = np.unique(splitmix64((windows * powers).sum(axis=1)))
            # (num_perm, n_shingles) universal hash, min per row
            hashed = self.a[:, None] * shingles[None, :] + self.b[:, None]
        return hashed.min(axis=1)

    def signatures_batch(self, texts: "pd.Series") -> tuple[np.ndarray, np.ndarray]:
        """Vectorized signatures for a whole batch: one concatenated byte
        buffer, one sliding-window hash pass, then segment-min per doc via
        ``minimum.reduceat`` (duplicate shingles cannot change a min, so the
        per-doc ``np.unique`` is skipped). Returns (kept_row_idx, sig matrix
        of shape (n_kept, NUM_PERM)); bit-identical to ``signature``."""
        bufs = [t.lower().encode("utf-8", "ignore") for t in texts]
        lens = np.fromiter((len(b) for b in bufs), dtype=np.int64, count=len(bufs))
        keep = np.flatnonzero(lens >= self.K)
        if keep.size == 0:
            return keep, np.empty((0, self.NUM_PERM), dtype=np.uint64)
        data = np.frombuffer(b"".join(bufs), dtype=np.uint8)
        doc_start = np.concatenate([[0], np.cumsum(lens)[:-1]])
        counts = lens[keep] - self.K + 1  # valid windows per kept doc
        total = int(counts.sum())
        seg = np.concatenate([[0], np.cumsum(counts)[:-1]])
        # global positions of every in-doc window (never crossing doc bounds)
        pos = np.repeat(doc_start[keep], counts) + (np.arange(total) - np.repeat(seg, counts))
        windows = np.lib.stride_tricks.sliding_window_view(data, self.K)[pos].astype(np.uint64)
        CH = self.SHINGLE_CHUNK
        buf = np.empty((self.NUM_PERM, CH), dtype=np.uint64)
        sig = np.full((self.NUM_PERM, keep.size), np.iinfo(np.uint64).max, dtype=np.uint64)
        with np.errstate(over="ignore"):
            powers = np.uint64(257) ** np.arange(self.K, dtype=np.uint64)
            shingles = splitmix64((windows * powers).sum(axis=1))
            for s0 in range(0, total, CH):
                s1 = min(s0 + CH, total)
                m = s1 - s0
                np.multiply(self.a[:, None], shingles[None, s0:s1], out=buf[:, :m])
                np.add(buf[:, :m], self.b[:, None], out=buf[:, :m])
                # segments overlapping this chunk; partial segments at the
                # boundary min-merge into the accumulated signature
                j0 = int(np.searchsorted(seg, s0, side="right")) - 1
                j1 = int(np.searchsorted(seg, s1, side="left"))
                local = np.clip(seg[j0:j1] - s0, 0, None)
                r = np.minimum.reduceat(buf[:, :m], local, axis=1)
                np.minimum(sig[:, j0:j1], r, out=sig[:, j0:j1])
        return keep, sig.T.copy()

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        rows_per_band = self.NUM_PERM // self.BANDS
        keep, sig = self.signatures_batch(batch["text"].fillna(""))
        if keep.size == 0:
            return pd.DataFrame(
                {
                    "doc_id": np.empty(0, dtype=np.int64),
                    "band": np.empty(0, dtype=np.int64),
                    "band_hash": np.empty(0, dtype=np.int64),
                }
            )
        bands = sig.reshape(keep.size, self.BANDS, rows_per_band)
        with np.errstate(over="ignore"):
            band_hash = splitmix64(
                (bands * (np.uint64(31) ** np.arange(rows_per_band, dtype=np.uint64))).sum(axis=2)
            ).astype(np.int64)
        doc_ids = batch["doc_id"].to_numpy(np.int64)[keep]
        return pd.DataFrame(
            {
                "doc_id": np.repeat(doc_ids, self.BANDS),
                "band": np.tile(np.arange(self.BANDS, dtype=np.int64), keep.size),
                "band_hash": band_hash.ravel(),
            }
        )


def _bucket_to_pairs(g: pd.DataFrame) -> pd.DataFrame:
    """Emit (bucket_min, member) candidate edges for EVERY (band, band_hash)
    bucket inside this coarse group, vectorized (per-bucket Python calls
    made this stage 20x slower than the signature computation). Pairs
    against the bucket minimum are enough for connected-component
    clustering without quadratic blowup."""
    df = g.sort_values(["band", "band_hash", "doc_id"])
    ids = df["doc_id"].to_numpy(np.int64)
    if ids.size == 0:
        import pyarrow as pa

        return pa.table(
            {"doc_a": np.empty(0, np.int64), "doc_b": np.empty(0, np.int64)}
        )
    bh = df["band_hash"].to_numpy(np.int64)
    bd = df["band"].to_numpy(np.int64)
    new = np.concatenate([[True], (np.diff(bh) != 0) | (np.diff(bd) != 0)])
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, ids.size))
    first = np.repeat(ids[starts], counts)
    member = ~new  # non-first rows of each bucket pair with the bucket min
    import pyarrow as pa

    # arrow edges: the downstream dedup exchange moves zero-copy int pairs
    return pa.table(
        {"doc_a": first[member], "doc_b": ids[member]}
    )


def minhash_near_dup(
    documents: "ray.data.Dataset", *, verify_threshold: float = 0.8
) -> "ray.data.Dataset":
    """MinHash-LSH near-duplicate candidate clusters.

    shingle -> minhash -> band -> groupby(band, band_hash) -> candidate pairs
    (ray_guide.md pattern). Returns (doc_a, doc_b) candidate edges with
    doc_a = bucket-min id; exact Jaccard verification is the caller's choice
    (verify_near_dup_pairs) since it needs a second text lookup.
    """
    sigs = documents.map_batches(
        MinHasher, batch_format="pandas", concurrency=(1, 8), batch_size=1024
    )

    # every (band, band_hash) bucket lands wholly in one of 4096 coarse
    # groups (enough parallelism, no per-bucket Python calls)
    pairs = coarse_map_groups(
        sigs, ["band", "band_hash"], _bucket_to_pairs, n_buckets=4096
    )
    # global dedup of the edge set: a pair colliding in several bands must
    # appear ONCE regardless of block layout (per-block dedup made the edge
    # count vary run to run). The edge set is orders of magnitude smaller
    # than the corpus; group by doc_a (cluster seeds) and dedup vectorized.
    return pairs.groupby("doc_a").map_groups(
        lambda g: g.drop_duplicates(), batch_format="pandas"
    )


def verify_near_dup_pairs(
    documents: "ray.data.Dataset",
    pairs: "ray.data.Dataset",
    *,
    threshold: float = 0.8,
    k: int = 5,
) -> "ray.data.Dataset":
    """Exact-Jaccard verification of LSH candidate pairs.

    The candidate TEXTS are broadcast once (``ray.put`` of a dict) and each
    verify batch computes char-k-gram Jaccard locally — a broadcast
    semi-join, not a shuffle join (ray_guide.md "Joins and lookups"). The
    pair frame itself never lands on the driver (only the distinct candidate
    ids do, to build the broadcast), and each verify actor builds every
    doc's gram set ONCE in ``__init__`` — the round-3 shape rebuilt two
    fresh Python sets per PAIR and was the slowest bench row."""
    pairs = pairs.materialize()  # consumed twice (id pass + verify)

    def uniq_ids(batch: pd.DataFrame) -> pd.DataFrame:
        vals = np.unique(
            np.concatenate(
                [
                    batch["doc_a"].to_numpy(np.int64),
                    batch["doc_b"].to_numpy(np.int64),
                ]
            )
        )
        return pd.DataFrame({"doc_id": vals})

    id_df = pairs.map_batches(uniq_ids, batch_format="pandas").to_pandas()
    if len(id_df) == 0:
        return pairs.filter(lambda row: False)
    from datafiller_ray.stages.lookup import gather_rows

    hits = gather_rows(
        documents, "doc_id", set(id_df["doc_id"].tolist()), columns=["doc_id", "text"]
    )
    texts: dict[int, str] = dict(zip(hits["doc_id"], hits["text"]))
    ref = ray.put(texts)

    class Verify:
        def __init__(self) -> None:
            texts = ray.get(ref)
            # per-doc gram sets computed once per ACTOR, reused across pairs
            self.grams = {
                d: frozenset(t[i : i + k] for i in range(max(0, len(t) - k + 1)))
                for d, t in texts.items()
            }
            self.empty: frozenset = frozenset()

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            g = self.grams
            sims = np.empty(len(batch), dtype=np.float64)
            for i, (a, b) in enumerate(zip(batch["doc_a"], batch["doc_b"])):
                sa = g.get(int(a), self.empty)
                sb = g.get(int(b), self.empty)
                if not sa and not sb:
                    sims[i] = 1.0
                elif not sa or not sb:
                    sims[i] = 0.0
                else:
                    inter = len(sa & sb)
                    sims[i] = inter / (len(sa) + len(sb) - inter)
            batch = batch.copy()
            batch["jaccard"] = np.round(sims, 6)
            return batch[batch["jaccard"] >= threshold]

    return pairs.map_batches(
        Verify, batch_format="pandas", batch_size=1024, concurrency=(1, 4)
    )


def near_dup_clusters(verified_pairs: pd.DataFrame) -> pd.DataFrame:
    """Connected components over verified near-dup edges -> (doc_id,
    cluster_id=min id in component). Union-find on the driver — valid only
    because the verified edge set is provably small (candidates that passed
    Jaccard); at corpus scale this becomes iterated min-label propagation
    via groupby (ray_guide.md), which these edges also support."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(verified_pairs["doc_a"], verified_pairs["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    rows = sorted((doc, find(doc)) for doc in parent)
    return pd.DataFrame(rows, columns=["doc_id", "cluster_id"])


def near_dup_clusters_distributed(
    verified_pairs: "ray.data.Dataset", *, max_iters: int = 50
) -> pd.DataFrame:
    """Connected components over verified near-dup edges via iterated
    min-label propagation — the at-scale alternative to the driver
    union-find in :func:`near_dup_clusters` (same output contract:
    (doc_id, cluster_id=min id in component), sorted by doc_id).

    Each iteration is one reduce-side join (union + groupby on a COARSE
    node-hash key, vectorized merge inside — per-node groups would pay the
    tiny-group Python overhead) followed by a groupby-min over the same
    coarse key — two bounded shuffles over (node, label) int64 rows, no
    driver-side edge materialization. Labels are monotonically
    non-increasing, so the global label sum (a distributed aggregate) is a
    convergence witness; iteration count is O(component diameter), which
    for near-dup clusters (dense clique-ish blobs) is small."""
    G = 256  # coarse shuffle groups: enough parallelism, no tiny groups

    def to_sym(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch["doc_a"].to_numpy(np.int64)
        b = batch["doc_b"].to_numpy(np.int64)
        return pd.DataFrame(
            {"node": np.concatenate([a, b]), "nbr": np.concatenate([b, a])}
        )

    half_edges = verified_pairs.map_batches(
        to_sym, batch_format="pandas"
    ).materialize()
    if half_edges.count() == 0:
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype=np.int64),
                "cluster_id": pd.Series([], dtype=np.int64),
            }
        )

    def init_labels(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("node")["nbr"].min()
        lab = np.minimum(m.index.to_numpy(np.int64), m.to_numpy(np.int64))
        return pd.DataFrame({"node": m.index.to_numpy(np.int64), "label": lab})

    labels = coarse_map_groups(
        half_edges, "node", init_labels, n_buckets=G
    ).materialize()

    def forward(g: pd.DataFrame) -> pd.DataFrame:
        # label rows (nbr == -1 sentinel) rewrite the half-edge rows of the
        # same node; every half-edge forwards the label to its neighbor and
        # the node keeps its own label
        lab = g[g["nbr"] == -1]
        edges = g.loc[g["nbr"] != -1, ["node", "nbr"]]
        fwd = edges.merge(lab[["node", "label"]], on="node", how="left")
        return pd.DataFrame(
            {
                "node": np.concatenate(
                    [fwd["nbr"].to_numpy(np.int64), lab["node"].to_numpy(np.int64)]
                ),
                "label": np.concatenate(
                    [
                        fwd["label"].to_numpy(np.int64),
                        lab["label"].to_numpy(np.int64),
                    ]
                ),
            }
        )

    def min_label(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("node")["label"].min()
        return pd.DataFrame(
            {"node": m.index.to_numpy(np.int64), "label": m.to_numpy(np.int64)}
        )

    prev_sum: int | None = None
    for _ in range(max_iters):
        tagged = labels.map_batches(
            # same column ORDER as edges_tagged: union requires one schema
            lambda b: pd.DataFrame(
                {
                    "node": b["node"].to_numpy(np.int64),
                    "nbr": np.full(len(b), -1, dtype=np.int64),
                    "label": b["label"].to_numpy(np.int64),
                }
            ),
            batch_format="pandas",
        )
        edges_tagged = half_edges.map_batches(
            lambda b: b.assign(label=np.int64(-1)), batch_format="pandas"
        )
        msgs = coarse_map_groups(
            edges_tagged.union(tagged), "node", forward, n_buckets=G
        )
        labels = coarse_map_groups(
            msgs, "node", min_label, n_buckets=G
        ).materialize()
        cur_sum = int(labels.sum("label"))
        if prev_sum is not None and cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    out = labels.to_pandas().rename(columns={"node": "doc_id", "label": "cluster_id"})
    return out.sort_values("doc_id").reset_index(drop=True)


def ngram_jaccard(a: str, b: str, k: int = 5) -> float:
    """Exact char-k-gram Jaccard similarity (verification kernel)."""
    sa = {a[i : i + k] for i in range(max(0, len(a) - k + 1))}
    sb = {b[i : i + k] for i in range(max(0, len(b) - k + 1))}
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def near_dup_keep_best(
    docs: "ray.data.Dataset", clusters: pd.DataFrame
) -> "ray.data.Dataset":
    """Cluster-representative dedup: from each near-dup cluster keep the
    single "best" document (longest ``n_chars``, ties to the smallest
    ``doc_id``) and pass every un-clustered document through untouched —
    the keep-one policy that turns the near-dup edge machinery into an
    actual corpus-shrinking dedup step.

    ``clusters`` is the (doc_id, cluster_id) frame from
    :func:`near_dup_clusters` / :func:`near_dup_clusters_distributed` —
    driver-resident by that contract (bounded by the VERIFIED near-dup doc
    set, orders smaller than the corpus; the at-scale escape hatch is the
    same as theirs: keep it a Dataset and swap the merge below for one
    bounded exchange).

    Scale shape: two broadcast set-membership passes over the corpus —
    pass 1 projects (doc_id, n_chars) for clustered ids only (the text
    column never moves), the winner pick is a vectorized stable sort over
    the tiny clustered frame on the driver, pass 2 filters the corpus
    against the broadcast LOSER id set (survivors stream through). All
    integer/string ops — deterministic under any block layout.

    Output: (doc_id, source, n_chars) of surviving documents.
    """
    import ray

    if len(clusters) == 0:
        def ident(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "source": t["source"],
                    "n_chars": t["n_chars"],
                }
            )

        return docs.map_batches(
            ident, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )

    cluster_ids = np.sort(clusters["doc_id"].to_numpy(np.int64))
    idref = ray.put(cluster_ids)

    def clustered_meta(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        member = np.isin(ids, ray.get(idref), assume_unique=False)
        sub = t.select(["doc_id", "n_chars"]).filter(pa.array(member))
        return sub

    meta = docs.map_batches(
        clustered_meta, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).to_pandas()  # bounded: one row per clustered doc

    merged = clusters.merge(meta, on="doc_id", how="left")
    merged = merged.sort_values(
        ["cluster_id", "n_chars", "doc_id"],
        ascending=[True, False, True],
        kind="stable",
    )
    winners = merged.drop_duplicates("cluster_id", keep="first")["doc_id"]
    losers = np.sort(
        np.setdiff1d(
            merged["doc_id"].to_numpy(np.int64), winners.to_numpy(np.int64)
        )
    )
    lref = ray.put(losers)

    def keep_survivors(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ~np.isin(ids, ray.get(lref))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "source": t["source"],
                "n_chars": t["n_chars"],
            }
        ).filter(pa.array(keep))

    return docs.map_batches(
        keep_survivors, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


class Readability:
    """Flesch–Kincaid-style grade from regex-countable proxies — words are
    ``\\S+`` runs, sentences are ``[.!?]+`` runs, syllables are vowel-group
    runs ``[aeiouyAEIOUY]+`` (the standard no-dictionary approximation).
    Every count is an exact integer shared with the DuckDB oracle's
    ``regexp_extract_all``; the grade is the single pinned float chain
    ``0.39*(W/S) + 11.8*(Y/W) - 15.59`` under round6. A document with no
    terminator runs counts as ONE sentence (the standard fragment
    fallback); documents with zero words are filtered out."""

    def __init__(self) -> None:
        import re

        self.word = re.compile(r"\S+")
        self.sent = re.compile(r"[.!?]+")
        self.syll = re.compile(r"[aeiouyAEIOUY]+")

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        w = text.str.count(self.word).to_numpy(np.int64)
        s = np.maximum(text.str.count(self.sent).to_numpy(np.int64), 1)
        y = text.str.count(self.syll).to_numpy(np.int64)
        keep = w > 0
        wf = w[keep].astype(np.float64)
        sf = s[keep].astype(np.float64)
        yf = y[keep].astype(np.float64)
        grade = 0.39 * (wf / sf) + 11.8 * (yf / wf) - 15.59
        out = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64)[keep],
                "n_words": w[keep],
                "n_sents": s[keep],
                "n_syll": y[keep],
                "fk_grade": np.floor(grade * 1e6 + 0.5) / 1e6,
            }
        )
        return out


def readability(documents: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-document Flesch–Kincaid grade level over the corpus (quality
    signal for training-data curation: filter or stratify by reading
    difficulty). Stateless vectorized pandas-str kernel; compiled patterns
    built once per actor in ``__init__``."""
    return documents.map_batches(
        Readability, batch_format="pandas", concurrency=(1, 4), batch_size=4096
    )


class _FertilityPartial:
    """Per-batch per-source integer partials for tokenizer_fertility:
    (n_docs, sum_tok, sum_words, sum_chars). Compiled patterns once per
    actor; all counts vectorized pandas-str; partials collapse to <=
    n_sources rows per batch before the exchange."""

    def __init__(self) -> None:
        import re

        self.ws = re.compile(r"\s+", re.ASCII)
        self.bpe = re.compile(r"\w+|[^\w\s]", re.ASCII)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        trimmed = text.str.strip()
        words = trimmed.str.split(self.ws).str.len().to_numpy()
        words = np.where(
            trimmed.str.len().to_numpy(np.int64) == 0, 0, words
        ).astype(np.int64)
        toks = text.str.count(self.bpe).to_numpy(np.int64)
        chars = batch["n_chars"].to_numpy(np.int64)
        g = pd.DataFrame(
            {
                "source": batch["source"].to_numpy(),
                "n_docs": np.ones(len(batch), dtype=np.int64),
                "sum_tok": toks,
                "sum_words": words,
                "sum_chars": chars,
            }
        ).groupby("source", sort=True, as_index=False)
        return g.sum()


def tokenizer_fertility(documents: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-source tokenizer-efficiency census: BPE-ish tokens per
    whitespace word (fertility — how many subwords the tokenizer spends
    per word; the cross-corpus comparability metric from the multilingual
    tokenizer literature) and chars per token. Integer sums are exact
    through one bounded grouped_sum exchange; the two ratios are the only
    floats, under the shared 6-decimal floor-half-up."""
    from datafiller_ray.stages.exchange import grouped_sum

    partials = documents.map_batches(
        _FertilityPartial, batch_format="pandas", concurrency=(1, 4),
        batch_size=4096,
    )
    summed = grouped_sum(
        partials, ["source"], ["n_docs", "sum_tok", "sum_words", "sum_chars"]
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        st = b["sum_tok"].to_numpy(np.int64)
        sw = b["sum_words"].to_numpy(np.int64)
        sc = b["sum_chars"].to_numpy(np.int64)
        # GREATEST(x, 1) guards mirror the SQL oracle exactly (a zero
        # denominator yields the numerator, not NULL/NaN, on both sides)
        fert = st / np.maximum(sw, 1)
        cpt = sc / np.maximum(st, 1)
        out = b.copy()
        out["fertility"] = np.floor(fert * 1e6 + 0.5) / 1e6
        out["chars_per_tok"] = np.floor(cpt * 1e6 + 0.5) / 1e6
        return out

    return summed.map_batches(finish, batch_format="pandas")


# ---------------------------------------------------------------------------
# distributed logistic-regression quality classifier (IRLS / Newton)

_LOGIT_SCALE = float(1 << 20)
_LOGIT_DIM = 5  # [1, log1p(tok_count), alpha_ratio, digit_ratio, space_ratio]


class _LogitFeatures(TextStats):
    """Shared feature/label extraction for the logistic quality model:
    x = [1, log1p(tok_count), alpha_ratio, digit_ratio, space_ratio]
    (ratios are the round-6 TextStats values), y = the QualityFilter
    predicate on the same rounded stats — i.e. the classifier learns to
    REPLICATE the rule filter from soft features, the standard bootstrap
    for quality models trained on rule-labeled corpora."""

    def __init__(self, min_tok: int, min_alpha: float, max_digit: float):
        super().__init__()
        self.min_tok = min_tok
        self.min_alpha = min_alpha
        self.max_digit = max_digit

    def design(self, batch: pd.DataFrame):
        stats = TextStats.__call__(self, batch)
        tok = stats["tok_count"].to_numpy(np.int64)
        alpha = stats["alpha_ratio"].to_numpy(np.float64)
        digit = stats["digit_ratio"].to_numpy(np.float64)
        space = stats["space_ratio"].to_numpy(np.float64)
        X = np.column_stack(
            [
                np.ones(len(stats), dtype=np.float64),
                np.log1p(tok.astype(np.float64)),
                alpha,
                digit,
                space,
            ]
        )
        y = (
            (tok >= self.min_tok)
            & (alpha >= self.min_alpha)
            & (digit <= self.max_digit)
        ).astype(np.int64)
        return stats["doc_id"].to_numpy(np.int64), X, y


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # piecewise-stable: never exponentiates a positive argument, so no
    # overflow warnings and bit-identical in engine and oracle
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class _IRLSPartial(_LogitFeatures):
    """One Newton-iteration partial: per-row fixed-point quantization
    (u = round(sqrt(w) x * S), v = round((y - p) x * S), int64) followed
    by exact integer accumulation — commutative, so the combined Gram and
    gradient are bit-identical under ANY block layout (the embedding_pca
    discipline). Emits (i, j, s) rows: j>=0 Gram upper triangle, j=-1
    gradient vector, (-1, -1) row count."""

    def __init__(self, beta, min_tok, min_alpha, max_digit):
        super().__init__(min_tok, min_alpha, max_digit)
        self.beta = np.asarray(beta, dtype=np.float64)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        from datafiller_ray.config import EngineValueError

        _, X, y = self.design(batch)
        p = _sigmoid(X @ self.beta)
        w = p * (1.0 - p)
        U = np.floor(np.sqrt(w)[:, None] * X * _LOGIT_SCALE + 0.5).astype(
            np.int64
        )
        V = np.floor(
            (y.astype(np.float64) - p)[:, None] * X * _LOGIT_SCALE + 0.5
        ).astype(np.int64)
        maxu = int(np.abs(U).max(initial=0))
        if maxu and U.shape[0] * maxu * maxu >= 1 << 62:
            raise EngineValueError(
                "logistic_quality per-batch integer Gram exceeds the exact "
                "int64 range; reduce the batch size or feature scale"
            )
        G = U.T @ U  # int64 exact under the guard
        d = X.shape[1]
        iu, ju = np.triu_indices(d)
        rows_i = np.concatenate([iu, np.arange(d), [-1]])
        rows_j = np.concatenate([ju, np.full(d, -1), [-1]])
        vals = np.concatenate(
            [G[iu, ju], V.sum(axis=0, dtype=np.int64), [len(X)]]
        )
        return pd.DataFrame(
            {
                "i": rows_i.astype(np.int64),
                "j": rows_j.astype(np.int64),
                "s": vals.astype(np.int64),
            }
        )


class _LogitScore(_LogitFeatures):
    def __init__(self, beta, min_tok, min_alpha, max_digit):
        super().__init__(min_tok, min_alpha, max_digit)
        self.beta = np.asarray(beta, dtype=np.float64)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids, X, y = self.design(batch)
        p = np.round(_sigmoid(X @ self.beta), 6)
        return pd.DataFrame(
            {
                "doc_id": ids,
                "label": y,
                "prob": p,
                "pred": (p >= 0.5).astype(np.int64),
            }
        )


def fit_logistic_irls(
    documents: "ray.data.Dataset",
    *,
    n_iters: int = 4,
    ridge: float = 1e-3,
    min_tok: int = 5,
    min_alpha: float = 0.5,
    max_digit: float = 0.3,
) -> np.ndarray:
    """Distributed IRLS/Newton fit of the logistic quality model: each
    iteration is ONE streaming pass (map_batches partials -> bounded
    grouped_sum exchange of d(d+1)/2 + d + 1 integer rows -> a d x d
    driver solve), so T iterations cost T corpus scans and the driver
    never holds more than ~21 numbers. beta_new = beta +
    (X'WX/S^2 + ridge*I)^-1 X'(y-p)/S."""
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.exchange import grouped_sum

    if n_iters < 1:
        raise EngineValueError(f"n_iters must be >= 1, got {n_iters}")
    if not (ridge > 0):
        raise EngineValueError(f"ridge must be > 0, got {ridge}")
    d = _LOGIT_DIM
    beta = np.zeros(d, dtype=np.float64)
    for _ in range(n_iters):
        partials = documents.map_batches(
            _IRLSPartial,
            fn_constructor_args=(beta.tolist(), min_tok, min_alpha, max_digit),
            batch_format="pandas",
            batch_size=4096,
            concurrency=(1, 8),
        )
        rows = grouped_sum(partials, ["i", "j"], "s").to_pandas()
        H = np.zeros((d, d), dtype=np.float64)
        tri = rows[(rows["i"] >= 0) & (rows["j"] >= 0)]
        for i_, j_, s_ in zip(tri["i"], tri["j"], tri["s"]):
            v = float(int(s_)) / (_LOGIT_SCALE * _LOGIT_SCALE)
            H[int(i_), int(j_)] = v
            H[int(j_), int(i_)] = v
        gv = rows[(rows["i"] >= 0) & (rows["j"] == -1)].sort_values("i")
        g = gv["s"].to_numpy(np.float64) / _LOGIT_SCALE
        beta = beta + np.linalg.solve(H + ridge * np.eye(d), g)
    return beta


def logistic_quality(
    documents: "ray.data.Dataset",
    *,
    n_iters: int = 4,
    ridge: float = 1e-3,
    min_tok: int = 5,
    min_alpha: float = 0.5,
    max_digit: float = 0.3,
) -> "ray.data.Dataset":
    """Logistic-regression quality scoring: fit by distributed IRLS
    (:func:`fit_logistic_irls`), then one more streaming pass scores
    every document — (doc_id, label, prob, pred). The model-based
    complement of the rule-based :func:`quality_filter`: at corpus scale
    the soft ``prob`` supports threshold sweeps and importance sampling
    where the binary rule cannot."""
    beta = fit_logistic_irls(
        documents,
        n_iters=n_iters,
        ridge=ridge,
        min_tok=min_tok,
        min_alpha=min_alpha,
        max_digit=max_digit,
    )
    return documents.map_batches(
        _LogitScore,
        fn_constructor_args=(beta.tolist(), min_tok, min_alpha, max_digit),
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, 8),
    )
