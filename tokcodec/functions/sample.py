"""Deterministic corpus-mix operators: hash-threshold sampling,
stratified train/val/test splits, and per-group mass quotas.

Everything keys off a stable per-row hash of a key column, so the
selection is reproducible across runs, cluster sizes and partitionings
— the property a 100 TB training-data mix pipeline needs (re-running a
failed shard must select exactly the same rows, and growing the corpus
must not reshuffle previous selections: threshold samples are nested,
``rate=0.1`` ⊂ ``rate=0.2``).

Two hash modes:

- ``"fnv"`` (default): vectorized 128-bit FNV over the key bytes
  (``functions/hashing.py``) — the scale path, no per-row Python.
- ``"md5"``: bit-parity with DuckDB's ``md5_number_lower`` (last 8
  digest bytes, little-endian) — per-row hashlib; used by the driver
  oracles so every operator here is SQL-checkable end to end.

Scale notes (100 TB): sampling and splitting are embarrassingly
parallel single-pass ``map_batches`` — no shuffle, no driver state.
``group_quota`` needs a global ordered prefix-sum per group; it runs as
a two-wave plan: wave 1 reduces to O(groups x 1024) bucket masses
(tiny), the driver picks each group's boundary bucket, wave 2 keeps
whole buckets below the boundary and resolves ONLY the boundary bucket
(~1/1024 of a group) with an exact per-group sort — never a full-corpus
sort, never per-doc driver state.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from tokcodec.functions.hashing import splitmix64
from tokcodec.functions.text import fnv128

_QUOTA_BUCKET_BITS = 10
_QUOTA_BUCKETS = 1 << _QUOTA_BUCKET_BITS


def md5_lower_u64(keys: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """DuckDB ``md5_number_lower`` parity: last 8 md5 digest bytes as a
    little-endian uint64.  Per-row Python — the ORACLE-PARITY mode; the
    default scale path is :func:`key_hash_u64` with ``method="fnv"``."""
    out = np.empty(len(keys), dtype=np.uint64)
    for i, s in enumerate(keys.to_pylist()):
        d = hashlib.md5(s.encode() if isinstance(s, str) else (s or b"")).digest()
        out[i] = struct.unpack("<Q", d[8:])[0]
    return out


def key_hash_u64(keys: pa.Array | pa.ChunkedArray, method: str = "fnv") -> np.ndarray:
    """Stable uint64 hash of a key column (cast to string first, so
    integer and string keys hash identically to their decimal text —
    matching ``CAST(key AS VARCHAR)`` on the SQL side)."""
    strs = pc.cast(keys, pa.string())
    if method == "md5":
        return md5_lower_u64(strs)
    if method == "fnv":
        lo, _hi = fnv128(strs)
        return splitmix64(lo)
    raise ValueError(f"unknown hash method: {method!r}")


def rate_threshold(rate: float) -> int:
    """Exact integer keep-threshold for a [0,1] rate: keep iff
    hash < floor(rate * 2^64).  Computed once here and inlined verbatim
    into the oracle SQL, so both sides compare against the same int.

    rate >= 1.0 clamps to 2^64-1, which a STRICT compare would still
    drop a hash equal to 2^64-1 — callers must treat the clamped max as
    a keep-all sentinel (compare ``u < thr or thr == KEEP_ALL``), which
    `sample_dataset` / `mix_sources` and the oracle SQL both do."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    return min(int(rate * 2.0**64), 2**64 - 1)


# the clamped maximum threshold: "keep everything", checked inclusively
KEEP_ALL = 2**64 - 1


def sample_dataset(ds, rate: float, key_col: str = "doc_id", method: str = "fnv"):
    """Deterministic Bernoulli(rate) sample: keep rows whose key hash
    falls below the rate threshold.  Single-pass, shuffle-free, and
    nested across rates (a row kept at 0.1 is kept at every higher
    rate) — so mixture weights can be tuned without re-selecting the
    whole corpus.  rate >= 1.0 keeps every row (no filter at all)."""
    if rate >= 1.0:
        return ds
    thr = np.uint64(rate_threshold(rate))

    def keep(t: pa.Table) -> pa.Table:
        u = key_hash_u64(t.column(key_col), method)
        return t.filter(pa.array(_mask_valid(u < thr, t.column(key_col))))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def _mask_valid(mask: np.ndarray, keys) -> np.ndarray:
    """AND a keep-mask with key validity: SQL's ``hash(key) < thr`` is
    NULL (→ dropped) for NULL keys, while key_hash_u64 hashes them as
    the empty string — which would keep or drop every NULL row as one
    block instead of per-row Bernoulli."""
    if keys.null_count:
        mask = mask & pc.is_valid(keys).combine_chunks().to_numpy(
            zero_copy_only=False
        )
    return mask


def split_thresholds(fractions: dict[str, float]) -> list[tuple[str, int]]:
    """Cumulative integer thresholds for a stratified split, in the
    dict's insertion order; the last split takes the remainder so the
    fractions need not sum to exactly 1.0 in float."""
    names = list(fractions)
    out, acc = [], 0.0
    for name in names[:-1]:
        acc += fractions[name]
        out.append((name, rate_threshold(acc)))
    out.append((names[-1], 2**64 - 1))
    return out


def split_dataset(
    ds,
    fractions: dict[str, float] | None = None,
    key_col: str = "doc_id",
    out: str = "split",
    method: str = "fnv",
):
    """Stratified split: append a split-name column chosen by the key
    hash against cumulative fraction thresholds.  Deterministic and
    partition-independent — the same doc lands in the same split on
    every run and every cluster size."""
    fractions = fractions or {"train": 0.9, "val": 0.05, "test": 0.05}
    cuts = split_thresholds(fractions)
    names = [n for n, _ in cuts]
    bounds = np.array([t for _, t in cuts[:-1]], dtype=np.uint64)

    def assign(t: pa.Table) -> pa.Table:
        u = key_hash_u64(t.column(key_col), method)
        idx = np.searchsorted(bounds, u, side="right")
        lab = pa.DictionaryArray.from_arrays(
            pa.array(idx, pa.int32()), pa.array(names, pa.string())
        )
        return t.append_column(out, lab.cast(pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def _group_lut(groups: pa.Array | pa.ChunkedArray, table: dict, default):
    """Vectorized dict lookup on a (low-cardinality) group column:
    dictionary-encode, map the DICTIONARY values through the Python
    dict (O(distinct groups), not O(rows)), gather by code."""
    enc = pc.dictionary_encode(groups).combine_chunks()
    if isinstance(enc, pa.ChunkedArray):  # pragma: no cover - 1-chunk after combine
        enc = enc.chunk(0)
    vals = [table.get(v, default) for v in enc.dictionary.to_pylist()]
    # NULL group values have null dictionary indices (NaN -> INT64_MIN
    # under a raw asarray cast, which the gather then IndexErrors on);
    # route them through the dict under key None — SQL partitions NULLs
    # together as one group, so a None entry in `table` applies to them
    codes = np.asarray(enc.indices.fill_null(len(vals)), dtype=np.int64)
    return np.asarray(vals + [table.get(None, default)])[codes]


def group_quota(
    ds,
    group_col: str,
    mass_col: str,
    budget: int,
    key_col: str = "doc_id",
    method: str = "fnv",
):
    """Per-group mass budget: within each group, rank rows by key hash
    (then key) and keep rows while the running mass total stays <=
    budget — SQL semantics ``SUM(mass) OVER (PARTITION BY group ORDER
    BY hash, key) <= budget``.

    Two-wave plan (see module docstring): bucket = top 10 hash bits, so
    bucket order IS hash order up to within-bucket ties.  Wave 1
    reduces to per-(group, bucket) masses; the driver accumulates each
    group's buckets in order and finds the boundary bucket where the
    budget is crossed.  Wave 2 keeps buckets strictly below the
    boundary as-is and sort-resolves only the boundary bucket's rows
    (per group, ~1/1024 of the group's mass) via ``map_groups``.
    Driver state and the broadcast decision table are O(groups).
    """
    shift = np.uint64(64 - _QUOTA_BUCKET_BITS)

    def annotate(t: pa.Table) -> pa.Table:
        u = key_hash_u64(t.column(key_col), method)
        t = t.append_column("_u", pa.array(u, pa.uint64()))
        return t.append_column("_bucket", pa.array((u >> shift).astype(np.int64)))

    ann = ds.map_batches(annotate, batch_format="pyarrow", zero_copy_batch=True)

    # wave 1: per-batch partial sums -> tiny groupby -> driver.  Native
    # Arrow group_by, which KEEPS a null group — the previous pandas
    # detour's default dropna=True silently dropped NULL-group rows
    # from the mass table, so their budget was never enforced (SQL's
    # PARTITION BY puts all NULLs in one group and caps them too)
    def partial(t: pa.Table) -> pa.Table:
        agg = (
            pa.table(
                {
                    "g": t.column(group_col),
                    "b": t.column("_bucket"),
                    "m": pc.cast(t.column(mass_col), pa.int64()),
                }
            )
            .group_by(["g", "b"])
            .aggregate([("m", "sum")])
        )
        return pa.table(
            {"g": agg.column("g"), "b": agg.column("b"), "m": agg.column("m_sum")}
        )

    rows = (
        ann.map_batches(partial, batch_format="pyarrow")
        .groupby(["g", "b"])
        .sum("m")
        .take_all()  # O(groups x 1024) rows
    )
    masses: dict = {}
    for r in rows:
        masses.setdefault(r["g"], {})[r["b"]] = int(r["sum(m)"])

    # boundary bucket per group: first bucket (ascending) whose running
    # total exceeds the budget; base = mass accumulated before it
    bstar: dict = {}
    base_of: dict = {}
    for g, per in masses.items():
        cum = 0
        bstar[g] = _QUOTA_BUCKETS  # budget never crossed: keep everything
        for b in sorted(per):
            if cum + per[b] > budget:
                bstar[g] = b
                base_of[g] = cum
                break
            cum += per[b]

    def keep_interior(t: pa.Table) -> pa.Table:
        thr = _group_lut(t.column(group_col), bstar, _QUOTA_BUCKETS)
        b = t.column("_bucket").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(b < thr))

    def keep_boundary(t: pa.Table) -> pa.Table:
        thr = _group_lut(t.column(group_col), bstar, _QUOTA_BUCKETS)
        b = t.column("_bucket").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(b == thr))

    interior = ann.map_batches(keep_interior, batch_format="pyarrow", zero_copy_batch=True)

    def resolve(g: pa.Table) -> pa.Table:
        gname = g.column(group_col)[0].as_py()
        left = budget - base_of.get(gname, 0)
        u = g.column("_u").to_numpy(zero_copy_only=False).astype(np.uint64)
        key = np.array(pc.cast(g.column(key_col), pa.string()).to_pylist())
        order = np.lexsort((key, u))
        mass = pc.cast(g.column(mass_col), pa.int64()).to_numpy(zero_copy_only=False)
        cum = np.cumsum(mass[order])
        kept = order[cum <= left]
        return g.take(pa.array(np.sort(kept)))

    boundary = (
        ann.map_batches(keep_boundary, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(group_col)
        .map_groups(resolve, batch_format="pyarrow")
    )

    drop = ["_u", "_bucket"]
    cols = [c for c in ds.schema().names if c not in drop]
    return interior.union(boundary).map_batches(
        lambda t: t.select(cols), batch_format="pyarrow", zero_copy_batch=True
    )


def grouped_topk(
    ds,
    group_col: str,
    order_col: str,
    k: int,
    tie_col: str = "doc_id",
    descending: bool = True,
):
    """Top-k rows per group WITHOUT a global sort — SQL semantics
    ``ROW_NUMBER() OVER (PARTITION BY group ORDER BY order [DESC],
    tie) <= k`` (the "keep the best k docs per source" corpus-mix op).

    Two-wave plan: wave 1 prunes every block to at most k rows per
    group present (one vectorized block-local sort + run-length rank —
    no per-row Python), so the only exchange, wave 2's
    ``groupby(group)``, moves <= k rows per group per block instead of
    the whole table; the per-group merge re-applies the same selection
    on <= k x blocks rows.  Deterministic via the tie column.  At 100 TB
    the shuffle volume is O(groups x k x blocks), independent of row
    count; a hot group costs one bounded merge, not a skewed sort."""
    order_dir = "descending" if descending else "ascending"
    keys = [(group_col, "ascending"), (order_col, order_dir), (tie_col, "ascending")]

    def _rank_prune(t: pa.Table, sort_keys) -> pa.Table:
        if t.num_rows == 0:
            return t
        s = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        g = s.column(group_col)
        g = g.combine_chunks() if isinstance(g, pa.ChunkedArray) else g
        codes = np.asarray(pc.dictionary_encode(g).indices)
        n = len(codes)
        starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
        runs = np.diff(np.concatenate((starts, [n])))
        rank = np.arange(n, dtype=np.int64) - np.repeat(starts, runs)
        return s.filter(pa.array(rank < k))

    def prune(t: pa.Table) -> pa.Table:
        return _rank_prune(t, keys)

    def merge(g: pa.Table) -> pa.Table:
        s = g.take(pc.sort_indices(g, sort_keys=keys[1:]))
        return s.slice(0, k)

    return (
        ds.map_batches(prune, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(group_col)
        .map_groups(merge, batch_format="pyarrow")
    )


def mix_sources(
    ds,
    rates: dict[str, float],
    group_col: str = "source",
    key_col: str = "doc_id",
    method: str = "fnv",
    default_rate: float = 0.0,
):
    """Deterministic corpus mixing: per-group Bernoulli rates in ONE
    shuffle-free pass — ``keep iff hash(key) < threshold(rates[group])``
    with the threshold gathered through a vectorized group LUT.  The
    properties that matter for retuning a 100 TB mixture hold per
    group: nested across rates (raising web 0.1 → 0.2 only ADDS rows,
    never reshuffles the kept set) and partition-independent.  Groups
    absent from `rates` fall to `default_rate` (0 = drop).  A group
    rate >= 1.0 keeps the whole group (its clamped threshold is the
    KEEP_ALL sentinel, compared inclusively)."""
    # clamp oversample weights: any rate >= 1.0 is keep-all, as documented
    # (rate_threshold itself rejects values outside [0, 1])
    thr = {g: np.uint64(rate_threshold(min(r, 1.0))) for g, r in rates.items()}
    thr_default = np.uint64(rate_threshold(min(default_rate, 1.0)))
    keep_all = np.uint64(KEEP_ALL)

    def keep(t: pa.Table) -> pa.Table:
        u = key_hash_u64(t.column(key_col), method)
        bound = _group_lut(t.column(group_col), thr, thr_default).astype(np.uint64)
        m = _mask_valid((u < bound) | (bound == keep_all), t.column(key_col))
        return t.filter(pa.array(m))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
