"""Vocabulary compaction (functions/vocab.py): frequency counts,
rank mapping, dense/sparse remap paths, tokens-list rewrite vs a numpy
reference, misses."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from tokcodec.functions import vocab


def _ref_remap(all_vals: np.ndarray) -> dict[int, int]:
    """Reference mapping: rank by (count desc, value asc)."""
    uniq, counts = np.unique(all_vals, return_counts=True)
    order = np.lexsort((uniq, -counts))
    return {int(uniq[o]): r for r, o in enumerate(order)}


def test_build_remap_rank_order():
    freq = pa.table({"token": pa.array([7, 3, 9, 1], pa.int64()),
                     "cnt": pa.array([5, 9, 5, 1], pa.int64())})
    old, new = vocab.build_remap(freq)
    got = dict(zip(old.tolist(), new.tolist()))
    # 3 (cnt 9) -> 0; tie at cnt 5 broken by value: 7 -> 1, 9 -> 2; 1 -> 3
    assert got == {3: 0, 7: 1, 9: 2, 1: 3}


def test_compact_vocab_tokens_list(ray_session, fixture_parquet):
    import ray.data

    ds = ray.data.read_parquet(fixture_parquet, columns=["doc_id", "tokens"])
    remapped, old_ids, new_ids = vocab.compact_vocab(ds, col="tokens")
    src = ray.data.read_parquet(fixture_parquet, columns=["doc_id", "tokens"])
    orig = {r["doc_id"]: np.asarray(r["tokens"]) for r in src.take_all()}
    flat = np.concatenate(list(orig.values()))
    ref = _ref_remap(flat)
    # mapping matches the reference rank table
    assert {int(o): int(n) for o, n in zip(old_ids, new_ids)} == ref
    out = {r["doc_id"]: np.asarray(r["tokens"]) for r in remapped.take_all()}
    assert set(out) == set(orig)
    checked = 0
    for k, toks in orig.items():
        got = out[k]
        assert got.dtype == toks.dtype  # list<int32> stays int32
        assert len(got) == len(toks)
        assert all(ref[int(t)] == int(g) for t, g in zip(toks[:50], got[:50]))
        checked += 1
        if checked >= 200:
            break
    # compaction: new ids are exactly 0..|vocab|-1
    assert new_ids.min() == 0 and new_ids.max() == len(old_ids) - 1


def test_remap_sparse_int64_ids(ray_session):
    import ray.data

    # ids far beyond the dense-LUT span force the searchsorted path
    rng = np.random.default_rng(3)
    ids = rng.choice(np.array([10**12, 5, 10**15, 999, 10**13]), size=4000)
    ds = ray.data.from_arrow(pa.table({"user_id": pa.array(ids, pa.int64())}))
    remapped, old_ids, new_ids = vocab.compact_vocab(ds, col="user_id")
    ref = _ref_remap(ids)
    got = np.array([r["user_id"] for r in remapped.take_all()])
    want = np.array([ref[int(v)] for v in ids])
    # row order within blocks is preserved by map_batches
    assert sorted(got.tolist()) == sorted(want.tolist())
    counts_by_new = {}
    for v in got:
        counts_by_new[int(v)] = counts_by_new.get(int(v), 0) + 1
    want_counts = {}
    for v in want:
        want_counts[int(v)] = want_counts.get(int(v), 0) + 1
    assert counts_by_new == want_counts


def test_remap_strict_raises_on_unknown(ray_session):
    """A miss raises on both paths: outside the dense span, inside it
    (a hole in the mapping), on the sparse searchsorted path and with an
    empty mapping."""
    import ray.data

    old = np.array([1, 2, 3, 5], dtype=np.int64)
    new = np.array([0, 1, 2, 3], dtype=np.int64)
    none = np.array([], dtype=np.int64)
    for vals, o, n in (([1, 2, 99], old, new), ([1, 4], old, new),
                       ([10**12, 7], old * 10**12, new), ([1], none, none)):
        ds = ray.data.from_arrow(pa.table({"x": pa.array(vals, pa.int64())}))
        with pytest.raises(Exception, match="outside the remap vocabulary"):
            vocab.remap_column(ds, o, n, col="x").take_all()


def test_remap_rejects_null_lists(ray_session):
    import ray.data

    arr = pa.array([[1, 2], None, [3]], pa.list_(pa.int32()))
    ds = ray.data.from_arrow(pa.table({"tokens": arr}))
    old = np.array([1, 2, 3], dtype=np.int64)
    new = np.array([2, 1, 0], dtype=np.int64)
    with pytest.raises(Exception):
        vocab.remap_column(ds, old, new, col="tokens").take_all()


def test_token_frequencies_uint64_dense_branch(ray_session):
    import ray.data

    # uint64 values inside the dense-LUT span: np.bincount rejects uint64
    # (not safely castable to intp), so the partial must view int64 first
    rng = np.random.default_rng(5)
    vals = rng.integers(0, 3000, size=4000).astype(np.uint64)
    ds = ray.data.from_arrow(pa.table({"x": pa.array(vals, pa.uint64())}))
    freq = vocab.token_frequencies(ds, col="x").take_all()
    got = {int(r["token"]): int(r["cnt"]) for r in freq}
    uniq, counts = np.unique(vals, return_counts=True)
    assert got == {int(u): int(c) for u, c in zip(uniq, counts)}


def test_remap_preserves_list_value_type(ray_session):
    import ray.data

    # list<int64> values must come back as list<int64> — keying the
    # rewritten width off the list's OFFSET type would narrow to int32
    old = np.array([10, 20, 30], dtype=np.int64)
    new = np.array([2, 1, 0], dtype=np.int64)
    for list_ty, val_ty in [
        (pa.list_(pa.int64()), pa.int64()),
        (pa.list_(pa.int32()), pa.int32()),
        (pa.large_list(pa.int32()), pa.int32()),
    ]:
        arr = pa.array([[10, 20], [30], [20, 20, 10]], list_ty)
        ds = ray.data.from_arrow(pa.table({"tokens": arr}))
        out = vocab.remap_column(ds, old, new, col="tokens")
        got_ty = out.schema().base_schema.field("tokens").type
        assert got_ty.value_type == val_ty
        assert pa.types.is_large_list(got_ty) == pa.types.is_large_list(list_ty)
        rows = [r["tokens"] for r in out.take_all()]
        assert [list(map(int, r)) for r in rows] == [[2, 1], [0], [1, 1, 2]]
