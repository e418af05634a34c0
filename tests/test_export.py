"""Trainer-shard export: TOKB → flat .bin token streams + parquet
indexes, bit-identical to the decoded token arrays."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tokcodec.pipelines.export import (
    TokenBinDatasink,
    export_token_bin,
    iter_token_bin,
)
from tokcodec.sources.sink import TokbDatasink


def test_token_bin_roundtrip(ray_session, fixture_parquet, tmp_path):
    import ray.data

    tokb = str(tmp_path / "tokb")
    out = str(tmp_path / "bin")
    ray.data.read_parquet(fixture_parquet).write_datasink(TokbDatasink(tokb))
    summary = export_token_bin(tokb, out)

    src = pq.read_table(fixture_parquet, columns=["doc_id", "tokens", "n_tok"])
    want = {
        d: np.asarray(t, dtype=np.int32)
        for d, t in zip(
            src.column("doc_id").to_pylist(), src.column("tokens").to_pylist()
        )
    }
    got = dict(iter_token_bin(out))
    assert set(got) == set(want)
    assert all(np.array_equal(got[d], want[d]) for d in want)
    assert summary["docs"] == len(want)
    assert summary["tokens"] == int(src.column("n_tok").to_numpy().sum())
    # every shard pairs a .bin with its .idx.parquet; _SUCCESS totals hold
    bins = [f for f in os.listdir(out) if f.endswith(".bin")]
    assert len(bins) == summary["shards"] > 0
    for b in bins:
        assert os.path.exists(os.path.join(out, b[:-4] + ".idx.parquet"))


def test_token_bin_rejects_null_tokens(ray_session, tmp_path):
    import ray.data

    t = pa.table(
        {
            "doc_id": pa.array(["a", "b"]),
            "tokens": pa.array([[1, 2], None], pa.list_(pa.int32())),
        }
    )
    with pytest.raises(Exception, match="null"):
        ray.data.from_arrow(t).write_datasink(
            TokenBinDatasink(str(tmp_path / "o"))
        )


def test_token_bin_rejects_null_elements(ray_session, tmp_path):
    """A null INSIDE a token list must be rejected — numpy would
    convert it through float64 NaN to INT32_MIN and write garbage."""
    import ray.data

    t = pa.table(
        {
            "doc_id": pa.array(["a"]),
            "tokens": pa.array([[3, None]], pa.list_(pa.int32())),
        }
    )
    with pytest.raises(Exception, match="null"):
        ray.data.from_arrow(t).write_datasink(
            TokenBinDatasink(str(tmp_path / "n"))
        )


def test_token_bin_all_empty_docs_iterable(tmp_path):
    """Docs with zero tokens produce a 0-byte shard; iter_token_bin
    must yield their (id, empty) rows instead of crashing on memmap."""
    t = pa.table(
        {
            "doc_id": pa.array(["e1", "e2"]),
            "tokens": pa.array([[], []], pa.list_(pa.int32())),
        }
    )

    class Ctx:
        task_idx = 0

    sink = TokenBinDatasink(str(tmp_path))
    sink.on_write_start()
    sink.write([t], Ctx())
    got = dict(iter_token_bin(str(tmp_path)))
    assert set(got) == {"e1", "e2"}
    assert all(len(v) == 0 for v in got.values())


def test_token_bin_rejects_wide_token_type(ray_session, tmp_path):
    """int64 token lists must be rejected, not silently truncated."""
    import ray.data

    t = pa.table(
        {
            "doc_id": pa.array(["a"]),
            "tokens": pa.array([[1, 2**40]], pa.list_(pa.int64())),
        }
    )
    with pytest.raises(Exception, match="int32"):
        ray.data.from_arrow(t).write_datasink(
            TokenBinDatasink(str(tmp_path / "w"))
        )


def test_token_bin_sliced_offsets(tmp_path):
    """A block whose ListArray is a non-zero-offset slice must still
    export the right tokens (offsets rebase against the slice start)."""
    full = pa.array([[1, 2, 3], [4], [5, 6], [7, 8, 9]], pa.list_(pa.int32()))
    t = pa.table({"doc_id": pa.array(["b", "c"]), "tokens": full.slice(1, 2)})

    class Ctx:
        task_idx = 0

    sink = TokenBinDatasink(str(tmp_path))
    sink.on_write_start()
    res = sink.write([t], Ctx())
    assert res == [{"shard": "shard-00000-000", "docs": 2, "tokens": 3}]
    got = dict(iter_token_bin(str(tmp_path)))
    assert np.array_equal(got["b"], [4]) and np.array_equal(got["c"], [5, 6])


def test_token_bin_rejects_non_list_tokens(tmp_path):
    """A tokens column that is not a variable-length list (fixed-size
    list, plain ints) gets the contract ValueError, not AttributeError."""

    class Ctx:
        task_idx = 0

    sink = TokenBinDatasink(str(tmp_path))
    sink.on_write_start()
    for toks in (pa.array([[1, 2], [3, 4]], pa.list_(pa.int32(), 2)),
                 pa.array([1, 2], pa.int32())):
        t = pa.table({"doc_id": pa.array(["a", "b"]), "tokens": toks})
        with pytest.raises(ValueError, match="list<int32>"):
            sink.write([t], Ctx())


def test_token_bin_write_start_clears_stale_markers(tmp_path):
    """A re-export into a dir whose earlier export failed before writing
    any shard must not end up holding both _FAILED and _SUCCESS."""
    for marker in ("_SUCCESS", "_FAILED"):
        (tmp_path / marker).write_text("old run")
    TokenBinDatasink(str(tmp_path)).on_write_start()
    assert not (tmp_path / "_SUCCESS").exists()
    assert not (tmp_path / "_FAILED").exists()


def test_token_bin_refuses_a_used_dir(ray_session, tmp_path):
    """A second export over a dir that holds .bin shards is refused, and
    the refused dir gains no _FAILED next to its first export's
    _SUCCESS."""
    import ray.data

    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(100)]),
        "tokens": pa.array([[i, i + 1] for i in range(100)], pa.list_(pa.int32())),
    })
    out = str(tmp_path / "bin")
    ray.data.from_arrow(t).write_datasink(TokenBinDatasink(out))
    shards = sorted(n for n in os.listdir(out) if n.endswith(".bin"))
    assert shards
    with pytest.raises(ValueError, match="fresh directory"):
        ray.data.from_arrow(t).write_datasink(TokenBinDatasink(out))
    assert sorted(n for n in os.listdir(out) if n.endswith(".bin")) == shards
    assert os.path.exists(os.path.join(out, "_SUCCESS"))
    assert not os.path.exists(os.path.join(out, "_FAILED"))
    assert len(dict(iter_token_bin(out))) == 100
