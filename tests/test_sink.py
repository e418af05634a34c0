"""TokbDatasink tests: streaming write path + read back."""

from __future__ import annotations

import os
import shutil

import pyarrow.parquet as pq
import pytest


def test_datasink_round_trip(ray_session, fixture_parquet, tmp_path):
    import ray.data

    from tokcodec.sources.sink import TokbDatasink, _read_summary, read_tokb

    out = str(tmp_path / "sink")
    ds = ray.data.read_parquet(fixture_parquet)
    ds.write_datasink(TokbDatasink(out))
    summary = _read_summary(out)
    n = pq.read_metadata(fixture_parquet).num_rows
    assert summary["rows"] == n
    assert os.path.exists(os.path.join(out, "_SUCCESS"))

    back = read_tokb(out).to_pandas().sort_values("doc_id").reset_index(drop=True)
    orig = pq.read_table(fixture_parquet).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (back["doc_id"] == orig["doc_id"]).all()
    for a, b in zip(back["tokens"], orig["tokens"]):
        assert (a == b).all()


def test_read_tokb_empty_dir_raises(ray_session, tmp_path):
    import pytest

    from tokcodec.sources.sink import read_tokb

    with pytest.raises(ValueError, match="no .tokb blocks"):
        read_tokb(str(tmp_path))


def test_sink_write_side_schema_validation(ray_session, tmp_path):
    """Malformed tables must fail AT WRITE with field context
    (ExampleParquetWriter.java:46-52 + Schema.java:171-174 semantics),
    not encode silently."""
    import pyarrow as pa
    import ray.data

    from tokcodec.schema import Schema, Type
    from tokcodec.sources.sink import TokbDatasink

    schema = (
        Schema.Builder().required("doc_id", Type.INT64).named("doc")
    )
    bad = pa.table({"doc_id": pa.array([1, None, 3], pa.int64())})
    out = str(tmp_path / "bad")
    with pytest.raises(Exception, match="doc_id"):
        ray.data.from_arrow(bad).write_datasink(TokbDatasink(out, schema=schema))


def test_encode_dataset_schema_validation(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tokcodec.pipelines import encode_dataset
    from tokcodec.schema import Schema, Type

    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({"x": pa.array([1, None, 3], pa.int64())}), src)
    schema = Schema.Builder().required("x", Type.INT64).named("t")
    with pytest.raises(Exception, match="Required field x"):
        encode_dataset(
            src, str(tmp_path / "out"), token_col=None, schema=schema
        )


def test_read_tokb_raw_dir_uses_the_one_read_path(ray_session, tmp_path):
    """Blocks without manifests read through the same datasource: one
    read operator, rows in block-name order, zone maps pruned before any
    task is scheduled."""
    import shutil

    import numpy as np
    import pyarrow as pa
    import ray.data

    from tokcodec.blocks import decode_file, header_stats, read_header_file
    from tokcodec.predicate import col
    from tokcodec.sources.sink import TokbDatasink, read_tokb

    n = 3000
    t = pa.table({"k": pa.array(np.arange(n), pa.int64()),
                  "s": pa.array([f"r{i}" for i in range(n)])})
    sink = str(tmp_path / "sink")
    ray.data.from_arrow(t).repartition(6).write_datasink(TokbDatasink(sink))
    raw = str(tmp_path / "raw")
    os.makedirs(raw)
    names = sorted(n for n in os.listdir(sink) if n.endswith(".tokb"))
    for name in names:
        shutil.copy(os.path.join(sink, name), raw)
    paths = [os.path.join(raw, name) for name in names]

    ds = read_tokb(raw).materialize()
    assert "ReadTOKB" in ds.stats() and "MapBatches" not in ds.stats()
    want = [k for p in paths for k in decode_file(p)[0]["k"].to_pylist()]
    assert [r["k"] for r in ds.take_all()] == want
    assert sorted(want) == list(range(n))

    bound = header_stats(read_header_file(paths[2]))["k"]["min"]
    kept = [p for p in paths if header_stats(read_header_file(p))["k"]["max"] >= bound]
    assert 0 < len(kept) < len(paths)
    pruned = read_tokb(raw, columns=["k"], predicate=col("k") >= bound)
    assert sorted(pruned.input_files()) == kept
    assert [r["k"] for r in pruned.take_all()] == [k for k in want if k >= bound]


def test_sink_refuses_a_used_dir(ray_session, tmp_path):
    """Block names key on executor task ids: a 2-way write over a 4-way
    write would leave part-00002/part-00003 behind and read_tokb would
    return 1,500 of the 1,000 rows written."""
    import pyarrow as pa
    import ray.data

    from tokcodec.sources.sink import TokbDatasink, read_tokb

    t = pa.table({"k": pa.array(range(1000), pa.int64())})
    out = str(tmp_path / "sink")
    ray.data.from_arrow(t).repartition(4).write_datasink(TokbDatasink(out))
    blocks = sorted(n for n in os.listdir(out) if n.endswith(".tokb"))
    assert len(blocks) == 4
    with pytest.raises(ValueError, match="fresh directory"):
        ray.data.from_arrow(t).repartition(2).write_datasink(TokbDatasink(out))
    assert sorted(n for n in os.listdir(out) if n.endswith(".tokb")) == blocks
    # Ray reports the refusal to on_write_failed too: the used dir keeps
    # its first write's _SUCCESS and gains no _FAILED
    assert os.path.exists(os.path.join(out, "_SUCCESS"))
    assert not os.path.exists(os.path.join(out, "_FAILED"))
    assert read_tokb(out).count() == 1000


@pytest.mark.parametrize("kind", ["tokb", "bin"])
def test_claimed_write_that_fails_leaves_failed(kind, tmp_path):
    """A write whose claim succeeded still marks its failure."""
    from tokcodec.pipelines.export import TokenBinDatasink
    from tokcodec.sources.sink import TokbDatasink

    sink = (TokbDatasink if kind == "tokb" else TokenBinDatasink)(str(tmp_path))
    sink.on_write_start()
    sink.on_write_failed(RuntimeError("a task died"))
    assert (tmp_path / "_FAILED").read_text() == "a task died"


def test_sink_clears_stale_markers(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data

    from tokcodec.sources.sink import TokbDatasink, _read_summary

    out = tmp_path / "sink"
    out.mkdir()
    (out / "_FAILED").write_text("an earlier run")
    (out / "_SUCCESS").write_text("{}")
    t = pa.table({"k": pa.array(range(100), pa.int64())})
    ray.data.from_arrow(t).write_datasink(TokbDatasink(str(out)))
    assert not (out / "_FAILED").exists()
    assert _read_summary(str(out))["rows"] == 100


@pytest.fixture
def docs_sf(tmp_path, monkeypatch):
    """A one-table scale-factor dir (documents) and catalog scratch dirs
    under tmp_path."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tokcodec.pipelines import queries

    sf = tmp_path / "sf"
    sf.mkdir()
    n = 3000
    docs = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array([f"w{i % 7} x{i % 13} y" for i in range(n)]),
        "lang": pa.array(["en", "de", "fr"][i % 3] for i in range(n)),
        "source": pa.array(["web", "book"][i % 2] for i in range(n)),
        "n_chars": pa.array([len(f"w{i % 7} x{i % 13} y") for i in range(n)], pa.int64()),
    })
    pq.write_table(docs, str(sf / "documents.parquet"))

    def scratch(tag, sf_dir):
        path = tmp_path / "scratch" / tag
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return str(path)

    monkeypatch.setattr(queries, "_scratch_dir", scratch)
    return str(sf), docs, tmp_path / "scratch"


def test_encode_stats_rows_are_the_sink_manifests(ray_session, docs_sf):
    from tokcodec import manifest as mf
    from tokcodec.pipelines.queries import build_queries

    sf, docs, scratch = docs_sf
    got = build_queries()["encode_stats_documents"](sf)
    assert got.column_names == ["rows", "bytes_in", "bytes_out"]
    mans = mf.list_manifests(str(scratch / "stats_documents"))
    assert len(mans) >= 2
    assert got.to_pylist() == [
        {k: m["metrics"][k] for k in ("rows", "bytes_in", "bytes_out")}
        for m in mans
    ]
    assert sum(got["rows"].to_pylist()) == docs.num_rows


def test_catalog_roundtrip_reads_the_sink_through_read_tokb(ray_session, docs_sf):
    import pyarrow as pa
    import ray

    from tokcodec.pipelines.queries import build_queries

    sf, docs, scratch = docs_sf
    cols = ["doc_id", "text", "lang", "source", "n_chars"]
    ds = build_queries()["roundtrip_documents"](sf).materialize()
    assert "ReadTOKB" in ds.stats() and "MapBatches" not in ds.stats()
    assert os.listdir(scratch / "rt_documents")
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert got.sort_by("doc_id").select(cols).equals(docs.select(cols))
