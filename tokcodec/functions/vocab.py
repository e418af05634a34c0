"""Vocabulary compaction: frequency-ranked id remap for int columns and
token-list columns.

A tokenized corpus routinely carries a vocabulary far sparser than its
id space (hash vocabularies, subsetted corpora, merged tokenizers).
Remapping ids to their global frequency rank (0 = most common) makes
every downstream lightweight codec cheaper — bit-pack width drops to
ceil(log2(|used vocab|)), and the rank-coded vtop stream (in
codecs/intcodecs.py) becomes the identity permutation — at the cost of
one counting pass and one rewrite pass.

Ray-Data shape (no driver-side data loops):

* wave 1 — `token_frequencies`: per-block `np.unique(counts)` partial
  inside `map_batches`, then ONE native `groupby(token).sum` whose
  input is bounded by (blocks x per-block vocab), never by corpus rows.
* driver — `build_remap`: sorts the (token, cnt) table by
  (cnt desc, token asc).  Bounded by the vocabulary (<= 2^22 ids for
  token columns), not the data.
* wave 2 — `remap_column`: the mapping ships ONCE via `ray.put`; each
  batch rewrites through a dense LUT (O(1) gather; when the id span is
  small) or `np.searchsorted` (sparse int64 ids).  List columns rewrite
  only the values buffer and keep their offsets buffer untouched.

No reference-repo counterpart (nevillelyh/parquet-extra delegates all
encoding decisions to parquet-mr); this is one of the token-payload
operators the round brief adds on top of the reference surface.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from tokcodec.functions.sortagg import sorted_group_reduce

# dense-LUT fast path bound: one uint8/int64 LUT per actor, L2-friendly
# for token vocabularies and safely allocatable for anything below it
_DENSE_MAX_SPAN = 1 << 22


def _flat_values(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Flat int ndarray of a plain int column or a list<int> column."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
        return np.asarray(col.values)
    return col.to_numpy(zero_copy_only=False)


def token_frequencies(ds, col: str = "tokens"):
    """Global (token, cnt) counts of an int or list<int> column: per-block
    unique+count partials (each bounded by the block's own vocabulary)
    merged by `sorted_group_reduce` (functions/sortagg.py — vocabulary
    keys are high-cardinality, where Ray's native aggregate reduce is
    per-group Python) — the only shuffle, sized by vocabulary x blocks,
    not by corpus rows."""

    def partial(t: pa.Table) -> pa.Table:
        vals = _flat_values(t.column(col))
        if len(vals) == 0:
            return pa.table(
                {"token": pa.array([], pa.int64()), "partial_cnt": pa.array([], pa.int64())}
            )
        lo, hi = int(vals.min()), int(vals.max())
        if 0 <= lo and hi < _DENSE_MAX_SPAN:
            # token-shaped block: O(n) bincount beats np.unique's sort.
            # bincount refuses uint64 (not safely castable to intp);
            # values are bounded by _DENSE_MAX_SPAN so int64 is lossless.
            c = np.bincount(vals.astype(np.int64) if vals.dtype == np.uint64 else vals)
            uniq = np.flatnonzero(c)
            counts = c[uniq]
        else:
            uniq, counts = np.unique(vals, return_counts=True)
        return pa.table(
            {
                "token": pa.array(uniq.astype(np.int64), pa.int64()),
                "partial_cnt": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    return sorted_group_reduce(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["token"],
        [("partial_cnt", "sum", "cnt")],
    )


def build_remap(freq) -> tuple[np.ndarray, np.ndarray]:
    """(old_ids sorted asc, new_ids) from a (token, cnt) Dataset or Arrow
    table: new id = rank by (cnt desc, token asc).  Materializes only the
    vocabulary — guarded so a mistakenly-passed corpus can't land on the
    driver."""
    if hasattr(freq, "to_arrow_refs"):  # ray Dataset
        import ray

        parts = [
            t for t in (ray.get(r) for r in freq.to_arrow_refs()) if t.num_rows
        ]  # groupby emits schema-less empty blocks — drop before concat
        tbl = (
            pa.concat_tables(parts)
            if parts
            else pa.table({"token": pa.array([], pa.int64()),
                           "cnt": pa.array([], pa.int64())})
        )
    else:
        tbl = freq
    if tbl.num_rows > _DENSE_MAX_SPAN:
        raise ValueError(
            f"vocabulary of {tbl.num_rows} ids exceeds the {_DENSE_MAX_SPAN} "
            "driver bound; compact per-shard or raise _DENSE_MAX_SPAN"
        )
    tok = tbl.column("token").to_numpy(zero_copy_only=False).astype(np.int64)
    cnt = tbl.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64)
    # rank by (cnt desc, token asc), deterministic
    order = np.lexsort((tok, -cnt))
    new_of_order = np.empty(len(tok), dtype=np.int64)
    new_of_order[order] = np.arange(len(tok), dtype=np.int64)
    # return keyed by ascending old id for searchsorted lookups
    asc = np.argsort(tok, kind="stable")
    return tok[asc], new_of_order[asc]


class _Remapper:
    """Picklable per-batch remap kernel; the mapping arrays ride the
    closure via ray.put so they ship to each actor once, not per batch."""

    def __init__(self, old_ref, new_ref, col: str):
        self.old_ref = old_ref
        self.new_ref = new_ref
        self.col = col
        self._lut = None  # built lazily once per worker

    def _mapper(self):
        if self._lut is None:
            import ray

            old = ray.get(self.old_ref)
            new = ray.get(self.new_ref)
            lo = int(old[0]) if len(old) else 0
            span = int(old[-1]) - lo + 1 if len(old) else 0
            if 0 < span <= _DENSE_MAX_SPAN:
                dense = np.full(span, -1, dtype=np.int64)
                dense[old - lo] = new
                self._lut = ("dense", lo, dense)
            else:
                self._lut = ("sparse", old, new)
        return self._lut

    def map_values(self, vals: np.ndarray) -> np.ndarray:
        kind, a, b = self._mapper()
        if kind == "dense":
            lo, dense = a, b
            shifted = vals.astype(np.int64, copy=False) - lo
            if len(shifted) and (shifted.min() < 0 or shifted.max() >= len(dense)):
                raise ValueError("value outside the remap vocabulary")
            out = dense[shifted]  # -1 marks an in-span miss
        else:
            old, new = a, b
            if len(vals) and not len(old):
                raise ValueError("value outside the remap vocabulary")
            idx = np.searchsorted(old, vals)
            idx[idx >= len(old)] = 0
            hit = old[idx] == vals
            if not hit.all():
                raise ValueError("value outside the remap vocabulary")
            out = new[idx]
        if len(out) and out.min() < 0:
            raise ValueError("value outside the remap vocabulary")
        return out

    def __call__(self, t: pa.Table) -> pa.Table:
        col = t.column(self.col)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        i = t.schema.get_field_index(self.col)
        if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            if col.null_count:
                raise ValueError("remap_column: null lists unsupported")
            new_vals = self.map_values(np.asarray(col.values))
            # preserve the input VALUE type (ranks always fit: < 2^22);
            # keying this off the list kind would rewrite list<int64>
            # values as int32 and large_list<int32> as int64
            width = col.type.value_type.to_pandas_dtype()
            arr = type(col).from_arrays(
                col.offsets,
                pa.array(new_vals.astype(width, copy=False)),
            )
            return t.set_column(i, self.col, arr)
        new_vals = self.map_values(col.to_numpy(zero_copy_only=False))
        return t.set_column(i, self.col, pa.array(new_vals, pa.int64()))


def remap_column(ds, old_ids: np.ndarray, new_ids: np.ndarray,
                 col: str = "tokens"):
    """Rewrite `col` (int or list<int>) through the old→new mapping.
    Mapping is broadcast once (`ray.put`); each batch is one LUT gather.
    Raises on ids missing from the mapping (a frequency pass over
    different data)."""
    import ray

    return ds.map_batches(
        _Remapper(ray.put(old_ids), ray.put(new_ids), col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def compact_vocab(ds, col: str = "tokens"):
    """Frequency-compact `col` end-to-end: count → rank → rewrite.
    Returns (remapped dataset, old_ids, new_ids)."""
    old_ids, new_ids = build_remap(token_frequencies(ds, col))
    return remap_column(ds, old_ids, new_ids, col), old_ids, new_ids
