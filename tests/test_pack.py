"""Tests for concat-and-chunk sequence packing (pipelines/pack.py)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tokcodec.pipelines import pack
from tokcodec.synth import write_fixture

L = 1024


def _reference(path: str, seq_len: int):
    """Driver-side ground truth: concatenate every doc's tokens in file
    order, slice at multiples of seq_len, derive per-chunk metadata."""
    t = pq.read_table(path, columns=["doc_id", "tokens", "n_tok"])
    tok = t.column("tokens").combine_chunks()
    flat = np.asarray(tok.values, dtype=np.int32)
    lens = np.diff(np.asarray(tok.offsets, dtype=np.int64))
    keys = t.column("doc_id").to_pylist()
    ends = np.cumsum(lens)
    starts = ends - lens
    total = int(ends[-1]) if len(ends) else 0
    chunks = {}
    for cid in range(-(-total // seq_len) if total else 0):
        lo, hi = cid * seq_len, min((cid + 1) * seq_len, total)
        nz = lens > 0
        s, e = starts[nz], ends[nz]
        k = [x for x, keep in zip(keys, nz) if keep]
        i0 = int(np.searchsorted(e, lo, side="right"))
        i1 = int(np.searchsorted(s, hi, side="left"))
        chunks[cid] = {
            "tokens": flat[lo:hi],
            "n_tok": hi - lo,
            "n_docs": i1 - i0,
            "first_doc": k[i0],
            "last_doc": k[i1 - 1],
        }
    return chunks, total


def _load_packed(out_dir: str) -> dict:
    import os

    got = {}
    cdir = f"{out_dir}/chunks"
    for f in sorted(os.listdir(cdir)):
        if not f.endswith(".parquet"):
            continue
        for r in pq.read_table(f"{cdir}/{f}").to_pylist():
            assert r["chunk_id"] not in got, f"duplicate chunk {r['chunk_id']}"
            got[r["chunk_id"]] = r
    return got


def test_pack_matches_reference(ray_session, tmp_path):
    p = str(tmp_path / "tok.parquet")
    write_fixture(p, n_rows=600, seed=5, row_group_size=97)
    res = pack.pack_dataset(p, str(tmp_path / "out"), seq_len=L, target_tokens=40_000)
    ref, total = _reference(p, L)
    got = _load_packed(str(tmp_path / "out"))
    assert set(got) == set(ref)
    assert res["n_chunks"] == len(ref)
    for cid, r in ref.items():
        g = got[cid]
        assert np.array_equal(np.asarray(g["tokens"], np.int32), r["tokens"]), cid
        assert g["n_tok"] == r["n_tok"]
        assert g["n_docs"] == r["n_docs"]
        assert g["first_doc"] == r["first_doc"]
        assert g["last_doc"] == r["last_doc"]
    # conservation + fixed length everywhere except the tail
    assert sum(g["n_tok"] for g in got.values()) == total
    for cid, g in got.items():
        assert g["n_tok"] == (L if cid < max(got) else total - L * max(got))


def test_pack_partitioning_independent(ray_session, tmp_path):
    """Chunk content must not depend on the partition plan granularity
    (stitching across many small partitions == few big ones)."""
    p = str(tmp_path / "tok.parquet")
    write_fixture(p, n_rows=400, seed=9, row_group_size=64)
    a = pack.pack_dataset(p, str(tmp_path / "a"), seq_len=L, target_tokens=10_000)
    b = pack.pack_dataset(p, str(tmp_path / "b"), seq_len=L, target_tokens=10**9)
    assert len(a["metrics"]) > 3 and len(b["metrics"]) == 1
    ga, gb = _load_packed(str(tmp_path / "a")), _load_packed(str(tmp_path / "b"))
    assert set(ga) == set(gb)
    for cid in ga:
        assert ga[cid]["tokens"] == gb[cid]["tokens"], cid
        for k in ("n_tok", "n_docs", "first_doc", "last_doc"):
            assert ga[cid][k] == gb[cid][k], (cid, k)


def test_pack_resume(ray_session, tmp_path):
    p = str(tmp_path / "tok.parquet")
    write_fixture(p, n_rows=300, seed=11)
    out = str(tmp_path / "out")
    r1 = pack.pack_dataset(p, out, seq_len=L, target_tokens=20_000)
    r2 = pack.pack_dataset(p, out, seq_len=L, target_tokens=20_000)
    assert all(m["resumed"] for m in r2["metrics"])
    assert not any(m["resumed"] for m in r1["metrics"])
    # changing seq_len invalidates the resume stamp
    r3 = pack.pack_dataset(p, out, seq_len=L * 2, target_tokens=20_000)
    assert not any(m["resumed"] for m in r3["metrics"])


def test_pack_empty_docs_and_tail(ray_session, tmp_path):
    """Zero-length docs contribute nothing and are not counted in
    n_docs; the tail chunk is short."""
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(6)]),
            "tokens": pa.array(
                [[1, 2, 3], [], list(range(100, 110)), [], [7] * 5, [9] * 4],
                type=pa.list_(pa.int32()),
            ),
            "n_tok": pa.array([3, 0, 10, 0, 5, 4], pa.int32()),
        }
    )
    p = str(tmp_path / "small.parquet")
    pq.write_table(t, p)
    pack.pack_dataset(p, str(tmp_path / "out"), seq_len=8, target_tokens=10)
    got = _load_packed(str(tmp_path / "out"))
    assert sum(g["n_tok"] for g in got.values()) == 22
    assert got[0]["tokens"] == [1, 2, 3, 100, 101, 102, 103, 104]
    assert got[0]["n_docs"] == 2  # empty d1 not counted
    assert got[0]["first_doc"] == "d0" and got[0]["last_doc"] == "d2"
    last = got[max(got)]
    assert last["n_tok"] == 22 - 8 * max(got)


def test_pack_rejects_stale_token_counts(ray_session, tmp_path):
    """A token-count column desynced from the tokens lists must fail
    fast: the plan derives every partition's global base offset from it,
    so packing through it would silently corrupt chunk layout."""
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(2000)]),
            "tokens": pa.array([[1, 2, 3]] * 2000, type=pa.list_(pa.int32())),
            "n_tok": pa.array([4] * 2000, pa.int64()),  # lies: lists hold 3
        }
    )
    p = str(tmp_path / "stale.parquet")
    pq.write_table(t, p)
    with pytest.raises(Exception, match="stale"):
        pack.pack_dataset(p, str(tmp_path / "out"), seq_len=8, target_tokens=1000)


def test_pack_rejects_missing_token_count_column(ray_session, tmp_path):
    """Without the token-count column plan_partitions would fall back to
    row-count mass — pack_dataset must refuse instead."""
    t = pa.table(
        {
            "doc_id": pa.array(["a", "b"]),
            "tokens": pa.array([[1], [2, 3]], type=pa.list_(pa.int32())),
        }
    )
    p = str(tmp_path / "nocount.parquet")
    pq.write_table(t, p)
    with pytest.raises(ValueError, match="requires column 'n_tok'"):
        pack.pack_dataset(p, str(tmp_path / "out"), seq_len=8)


def test_list_slice_rejects_int32_offset_overflow():
    """_list_slice guards the list<int32> offset width BEFORE slicing, so
    a >=2^31-token partition raises instead of wrapping offsets."""
    flat = np.zeros(4, dtype=np.int32)
    bounds = np.array([0, 2**31], dtype=np.int64)
    with pytest.raises(ValueError, match="int32-offset"):
        pack._list_slice(flat, bounds)


def test_read_packed_streams(ray_session, tmp_path):
    p = str(tmp_path / "tok.parquet")
    write_fixture(p, n_rows=200, seed=13)
    pack.pack_dataset(p, str(tmp_path / "out"), seq_len=L, target_tokens=50_000)
    ds = pack.read_packed(str(tmp_path / "out"), columns=["chunk_id", "n_tok"])
    rows = ds.take_all()
    assert {r["chunk_id"] for r in rows} == set(range(len(rows)))


def test_pack_reads_each_shared_span_once(tmp_path, monkeypatch):
    """Adjacent partitions cut from one row-group span are packed from
    one read, and every chunk and fragment file equals the one packed
    from its own read."""
    from tokcodec.pipelines import encode
    from tokcodec.pipelines.encode import _read_groups, plan_partitions

    p = str(tmp_path / "tok.parquet")
    write_fixture(p, n_rows=600, seed=5, row_group_size=100)
    specs = plan_partitions(p, target_tokens=20_000, parallel=False)["partitions"]
    bases = np.concatenate(([0], np.cumsum([s["n_tok"] for s in specs])))
    specs = [{**s, "base": int(bases[i])} for i, s in enumerate(specs)]
    groups = _read_groups(specs, 1)
    assert len(groups) < len(specs)

    reads = []
    read_rows = encode._read_rows
    monkeypatch.setattr(encode, "_read_rows", lambda *a: reads.append(a) or read_rows(*a))
    rest = ("fp", "doc_id", "tokens")
    shared = [m for g in groups for m in pack._pack_group(g, L, str(tmp_path / "shared"), *rest)]
    assert len(reads) == len(groups)
    assert [m["read_group"] for m in shared] == [len(g) for g in groups for _ in g]
    for s in specs:
        pack._pack_group([s], L, str(tmp_path / "own"), *rest)
    assert len(reads) == len(groups) + len(specs)
    for sub in ("chunks", "fragments"):
        names = sorted(os.listdir(tmp_path / "own" / sub))
        assert names == sorted(os.listdir(tmp_path / "shared" / sub))
        assert len(names) == len(specs)
        for n in names:
            assert pq.read_table(tmp_path / "shared" / sub / n).equals(
                pq.read_table(tmp_path / "own" / sub / n)), (sub, n)


def test_pack_writes_every_chunk_and_fragment_durably(tmp_path, monkeypatch):
    """Every chunk, fragment and stitched file is written through the
    fsync'd `manifest.atomic_write_bytes`, so the state marker written
    after a partition's files never vouches for a file that did not
    reach the disk."""
    from tokcodec import manifest
    from tokcodec.pipelines.encode import plan_partitions

    p = str(tmp_path / "tok.parquet")
    write_fixture(p, n_rows=600, seed=5, row_group_size=100)
    specs = plan_partitions(p, target_tokens=20_000, parallel=False)["partitions"]
    bases = np.concatenate(([0], np.cumsum([s["n_tok"] for s in specs])))
    written = []
    real = manifest.atomic_write_bytes
    monkeypatch.setattr(
        manifest, "atomic_write_bytes",
        lambda path, data: written.append(path) or real(path, data),
    )
    out = str(tmp_path / "out")
    for i, s in enumerate(specs):
        pack._pack_group([{**s, "base": int(bases[i])}], L, out, "fp", "doc_id", "tokens")
    pack._merge_fragments(
        os.path.join(out, "fragments"), os.path.join(out, "chunks", "stitched.parquet")
    )
    files = [
        os.path.join(out, sub, n)
        for sub in ("chunks", "fragments")
        for n in os.listdir(os.path.join(out, sub))
    ]
    assert len(files) == 2 * len(specs) + 1
    assert set(files) <= set(written)
