"""Text analysis stages for training-data pipelines: token counting,
quality scoring, language ID, document fingerprinting.

All stages are vectorized `map_batches` bodies (pyarrow.compute / numpy);
LangId is a callable class (actor pool) because it compiles patterns and
holds stopword tables once per actor.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from tokcodec.functions.hashing import (
    flat_utf8,
    fnv1a_spans,
    fnv1a_words2,
    hash_str,
    poly_spans,
)

WORD_RE = r"[A-Za-z0-9]+"  # identical semantics in pyarrow (RE2) and DuckDB
NONWORD_RE = r"[^A-Za-z0-9]+"  # split form: split + drop empties == findall


# byte-class lookup: [A-Za-z0-9] is ASCII-only in both RE2 and DuckDB's
# regex engine, and UTF-8 continuation bytes are all >= 0x80, so a byte
# LUT over the raw UTF-8 buffer yields exactly the regex word runs
_WORD_LUT = np.zeros(256, dtype=bool)
for _r in (range(48, 58), range(65, 91), range(97, 123)):
    _WORD_LUT[list(_r)] = True


def word_spans(
    texts: pa.Array | pa.ChunkedArray,
    lut: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Vectorized word extraction with NO string materialization:
    (byte buffer, word starts, word lengths, doc index per word, n_docs).
    Word runs are found by a byte-class LUT over the flat UTF-8 buffer —
    equivalent to per-doc ``re.findall(WORD_RE, s)`` with the default
    LUT; pass a custom 256-bool `lut` for other ASCII character classes.
    Runs touching a doc boundary are split there."""
    if lut is None:
        lut = _WORD_LUT
    data, off, n = flat_utf8(texts)
    if len(data) == 0:
        z = np.empty(0, np.int64)
        return data, z, z, z, n
    w = lut[data]
    # run boundaries from one boolean-XOR pass (runs alternate, so the
    # split into starts/ends is determined by w[0]/w[-1])
    t = np.flatnonzero(w[1:] != w[:-1]) + 1
    if w[0]:
        starts = np.concatenate(([0], t[1::2]))
        ends = t[0::2]
    else:
        starts = t[0::2]
        ends = t[1::2]
    if w[-1]:
        ends = np.concatenate((ends, [len(w)]))
    # a run spanning a doc boundary must break there (docs are independent)
    doc_off = off[1:-1]
    if len(doc_off):
        ok = (doc_off > 0) & (doc_off < len(w))
        inside = np.unique(
            doc_off[ok & w[np.minimum(doc_off, len(w) - 1)] & w[doc_off - 1]]
        )
        if len(inside):
            starts = np.sort(np.concatenate([starts, inside]))
            ends = np.sort(np.concatenate([ends, inside]))
    doc_idx = np.searchsorted(off, starts, side="right") - 1
    return data, starts, ends - starts, doc_idx, n


def split_words(
    texts: pa.Array | pa.ChunkedArray,
    lut: np.ndarray | None = None,
) -> tuple[pa.Array, np.ndarray, int]:
    """Vectorized word extraction: (flat word array, doc index per word,
    n_docs).  Equivalent to per-doc ``re.findall(WORD_RE, s)``."""
    data, starts, lengths, doc_idx, n = word_spans(texts, lut=lut)
    total = int(lengths.sum())
    out_off = np.empty(len(starts) + 1, dtype=np.int64)
    out_off[0] = 0
    np.cumsum(lengths, out=out_off[1:])
    # compact gather: each word's bytes into one contiguous buffer (one
    # repeat of the per-word shift + an in-place add — no extra temps)
    idx = np.arange(total, dtype=np.int64)
    idx += np.repeat(starts - out_off[:-1], lengths)
    out_data = data[idx]
    flat = pa.Array.from_buffers(
        pa.large_utf8(),
        len(starts),
        [None, pa.py_buffer(out_off), pa.py_buffer(out_data)],
    )
    return flat, doc_idx, n


def add_token_count(batch: pa.Table, text_col: str = "text", out: str = "n_words") -> pa.Table:
    """n_words = count of [A-Za-z0-9]+ runs (oracle:
    len(regexp_extract_all(text, '[A-Za-z0-9]+')) in DuckDB)."""
    n = pc.count_substring_regex(batch.column(text_col), WORD_RE)
    return batch.append_column(out, n.cast(pa.int64()))


def add_quality(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Cheap quality signals: chars, words, mean word length, space ratio."""
    text = batch.column(text_col)
    n_chars = pc.utf8_length(text).cast(pa.float64())
    n_words = pc.count_substring_regex(text, WORD_RE).cast(pa.float64())
    n_space = pc.count_substring(text, " ").cast(pa.float64())
    safe_words = pc.max_element_wise(n_words, 1.0)
    safe_chars = pc.max_element_wise(n_chars, 1.0)
    batch = batch.append_column("q_words", n_words.cast(pa.int64()))
    batch = batch.append_column(
        "q_mean_word_len", pc.divide(pc.subtract(n_chars, n_space), safe_words)
    )
    batch = batch.append_column("q_space_ratio", pc.divide(n_space, safe_chars))
    return batch


def add_fingerprint(batch: pa.Table, text_col: str = "text", out: str = "fp") -> pa.Table:
    """Content fingerprint = md5 hex of the utf-8 text (bit-compatible
    with DuckDB's md5() so dedup results are oracle-checkable).  Per-row
    Python — the ORACLE-PARITY mode; hot paths use `fnv128` /
    `add_fingerprint128` (vectorized, ~2 ns/byte)."""
    # md5(NULL) IS NULL in the DuckDB contract (NULL != empty string);
    # GROUP BY still clusters the NULLs together on both sides
    fps = [
        None if s is None else hashlib.md5(
            s.encode() if isinstance(s, str) else s
        ).hexdigest()
        for s in batch.column(text_col).to_pylist()
    ]
    return batch.append_column(out, pa.array(fps, type=pa.string()))


def fnv128(texts: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized 128-bit content hash: two independent word-at-a-time
    FNV-style lanes (distinct offset bases, length-mixed) over the flat
    UTF-8 buffer → (lo, hi) uint64[n].  Collision odds at 10^10 docs:
    ~(10^10)^2 / 2^129 ≈ 1.5e-19 — safe as exact-dedup's default key;
    md5 stays as the DuckDB-parity mode.  8 bytes per numpy step, so it
    beats the per-row C md5 loop on long docs too (throughput numbers:
    tools/bench_fingerprint.py, logged in BASELINE.md)."""
    data, off, _ = flat_utf8(texts)
    lo, hi = fnv1a_words2(data, off)
    return lo, hi


def add_fingerprint128(
    batch: pa.Table, text_col: str = "text", out: str = "fp"
) -> pa.Table:
    """Vectorized fingerprint as a fixed 16-byte binary column (the
    packed form of `fnv128`)."""
    lo, hi = fnv128(batch.column(text_col))
    n = len(lo)
    raw = np.empty((n, 16), np.uint8)
    raw[:, :8] = lo.view(np.uint8).reshape(n, 8)
    raw[:, 8:] = hi.view(np.uint8).reshape(n, 8)
    fp = pa.Array.from_buffers(pa.binary(16), n, [None, pa.py_buffer(raw)])
    return batch.append_column(out, fp)


_STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "it", "that", "was", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "von", "zu"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "des", "que", "pour"},
    "es": {"el", "la", "los", "las", "es", "un", "una", "que", "para", "por"},
}


class LangId:
    """Stopword-vote language heuristic as a stateful actor-pool stage:
    tables and the [a-z] byte LUT are built once per actor in __init__;
    per-batch work is fully vectorized (utf8_lower + slice, LUT word
    runs, pc.is_in per language, bincount votes — no per-row Python).
    Prediction = first language (en, de, fr, es order) with strictly
    more stopword hits than any earlier one; 'unknown' when zero hits,
    matching the original scalar loop's semantics."""

    PREFIX = 2000  # score only the head of each doc

    def __init__(self, text_col: str = "text", out: str = "lang_pred"):
        self.text_col = text_col
        self.out = out
        self.langs = list(_STOPWORDS)
        # hashed stopword tables: membership = sorted-array search over
        # FNV-64 word hashes (no word-string materialization per batch)
        self.hash_tables = [
            np.sort(
                np.array([hash_str(w) for w in _STOPWORDS[lang]], dtype=np.uint64)
            )
            for lang in self.langs
        ]
        lut = np.zeros(256, dtype=bool)
        lut[np.arange(ord("a"), ord("z") + 1)] = True  # [a-z]+, not alnum
        self.lut = lut

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.text_col)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        lowered = pc.utf8_slice_codeunits(
            pc.utf8_lower(pc.fill_null(col, "")), 0, self.PREFIX
        )
        data, starts, lens, doc_idx, n = word_spans(lowered, lut=self.lut)
        h = fnv1a_spans(data, starts, lens)[0]
        scores = np.zeros((n, len(self.langs)), dtype=np.int64)
        for li, table in enumerate(self.hash_tables):
            pos = np.searchsorted(table, h)
            hit = table[np.minimum(pos, len(table) - 1)] == h
            if hit.any():
                scores[:, li] = np.bincount(doc_idx[hit], minlength=n)
        best = scores.argmax(axis=1)  # first max wins, like the scalar loop
        preds = np.array(self.langs, dtype=object)[best]
        preds[scores.max(axis=1) == 0] = "unknown"
        return batch.append_column(
            self.out, pa.array(preds.tolist(), type=pa.string())
        )


VOCAB = 50257


def tokenize(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id",
             source_col: str = "source") -> pa.Table:
    """documents → the north-rule tokenized table (doc_id:string,
    tokens:list<int32>, n_tok:int32, source:string).

    Deterministic hash-vocabulary 'BPE-ish' tokenizer: words via the
    shared WORD_RE (so `n_tok` is oracle-checkable as
    len(regexp_extract_all(text, WORD_RE)) in DuckDB), token id =
    FNV-1a(word) % VOCAB.  Fully vectorized: one RE2 split pass + one
    batched FNV pass over the flat word buffer — no per-row Python
    (values identical to the scalar hash_str(word) % VOCAB)."""
    ids = batch.column(id_col)
    srcs = batch.column(source_col) if source_col in batch.column_names else pa.array(
        ["unknown"] * batch.num_rows
    )
    data, starts, lengths_b, doc_idx, n = word_spans(batch.column(text_col))
    flat = (fnv1a_spans(data, starts, lengths_b)[0] % np.uint64(VOCAB)).astype(np.int32)
    lengths = np.bincount(doc_idx, minlength=n).astype(np.int32)
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int32)
    tok_arr = pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat, type=pa.int32()))
    return pa.table(
        {
            "doc_id": pc.cast(ids, pa.string()),
            "tokens": tok_arr,
            "n_tok": pa.array(lengths, type=pa.int32()),
            "source": pc.cast(srcs, pa.string()),
        }
    )


def rolling_hash(batch: pa.Table, text_col: str = "text", out: str = "rh") -> pa.Table:
    """64-bit polynomial rolling hash of the whole text (``h = h*P + b``
    from 0), vectorized with the length-sorted active-suffix pass
    (`poly_spans`) — O(total bytes), length-skew-proof: one huge doc in
    a batch no longer forces full-batch passes per byte position, and
    once it is one of the last few spans left its tail is folded in
    closed form rather than one vectorized pass per byte."""
    data, off, _ = flat_utf8(batch.column(text_col))
    out_h = poly_spans(data, off[:-1], np.diff(off))
    return batch.append_column(out, pa.array(out_h.view(np.int64), type=pa.int64()))


REDACT_RULES = [
    (r"\b[a-z]+[0-9]+[a-z0-9]*\b", "<ID>"),  # alnum identifiers first —
    (r"[0-9]+", "<NUM>"),                    # — then bare digit runs
]


def redact(
    batch: pa.Table,
    text_col: str = "text",
    out: str = "redacted",
    rules: list[tuple[str, str]] | None = None,
) -> pa.Table:
    """Rule-based text redaction (the transformation counterpart to the
    analysis ops): RE2 global substitutions applied IN ORDER via
    ``pc.replace_substring_regex`` — one vectorized Arrow kernel pass
    per rule, no Python per row.  Both Arrow and DuckDB run RE2, so
    ``regexp_replace(..., 'g')`` chains are an exact oracle."""
    col = batch.column(text_col)
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    for pat, rep in rules if rules is not None else REDACT_RULES:
        col = pc.replace_substring_regex(col, pattern=pat, replacement=rep)
    return batch.append_column(out, col)
