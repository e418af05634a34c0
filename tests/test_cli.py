"""CLI surface tests (in-process; the session fixture owns Ray and the
CLI must not shut it down)."""

from __future__ import annotations

import json
import os

import pytest

from tokcodec.cli import main


def _run(capsys, *argv) -> dict:
    rc = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert rc == 0, out
    return json.loads(out)


def test_cli_end_to_end(ray_session, fixture_parquet, tmp_path, capsys):
    enc = str(tmp_path / "enc")
    res = _run(capsys, "encode", "--input", fixture_parquet, "--out", enc,
               "--target-tokens", "2000000")
    assert res["rows"] == 5000 and res["partitions"] >= 2

    res = _run(capsys, "plan", "--input", fixture_parquet,
               "--target-tokens", "2000000")
    assert res["partitions"] >= 2 and res["max_tokens"] < 4_000_000

    res = _run(capsys, "verify", "--encoded", enc)
    assert res["bit_identical"] is True

    dec = str(tmp_path / "dec")
    res = _run(capsys, "decode", "--input", enc, "--out", dec)
    assert res["rows"] == 5000 and os.listdir(dec)

    import ray

    assert ray.is_initialized()  # CLI must not kill the caller's session


def test_cli_verify_empty_dir_fails(ray_session, tmp_path, capsys):
    rc = main(["verify", "--encoded", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1 and "no manifests" in out


def test_tables_bit_identical_nan_aware():
    import numpy as np
    import pyarrow as pa

    from tokcodec.cli import tables_bit_identical

    nan = float("nan")
    a = pa.table(
        {
            "f": pa.array([1.0, nan, None], pa.float64()),
            "l": pa.array([[1.0, nan], [0.5], None], pa.list_(pa.float64())),
            "i": pa.array([1, 2, 3], pa.int64()),
        }
    )
    b = pa.table(
        {
            "f": pa.array([1.0, nan, None], pa.float64()),
            "l": pa.array([[1.0, nan], [0.5], None], pa.list_(pa.float64())),
            "i": pa.array([1, 2, 3], pa.int64()),
        }
    )
    assert not a.equals(b)  # the Table.equals NaN pitfall this fixes
    assert tables_bit_identical(a, b)
    c = b.set_column(0, "f", pa.array([1.0, 2.0, None], pa.float64()))
    assert not tables_bit_identical(a, c)
    # distinct NaN payloads are distinct bits
    neg_nan = np.frombuffer(np.uint64(0xFFF8000000000001).tobytes(), dtype=np.float64)[0]
    d = b.set_column(0, "f", pa.array([1.0, neg_nan, None], pa.float64()))
    assert not tables_bit_identical(a, d)


def test_cli_ingest_jsonl(ray_session, tmp_path, capsys):
    import json as _json

    src = tmp_path / "docs.jsonl"
    src.write_text(
        "\n".join(
            _json.dumps({"doc_id": f"d{i}", "text": f"hello world number {i}", "source": "web"})
            for i in range(50)
        )
        + "\n"
    )
    out = str(tmp_path / "ing")
    res = _run(capsys, "ingest", "--input", str(src), "--out", out)
    assert res["rows"] == 50 and res["blocks"] >= 1
    assert os.path.exists(os.path.join(out, "_SUCCESS"))


def test_cli_compact(ray_session, fixture_parquet, tmp_path, capsys):
    import ray

    from tokcodec.sources.sink import TokbDatasink

    tiny = str(tmp_path / "tiny")
    ray.data.read_parquet(fixture_parquet, columns=["doc_id", "tokens", "n_tok"]) \
        .repartition(12).write_datasink(TokbDatasink(tiny))
    out = str(tmp_path / "compacted")
    res = _run(capsys, "compact", "--input", tiny, "--out", out,
               "--target-tokens", "100000000")
    assert res["buckets"] == 1 and res["rows"] == 5000


def test_cli_audit_detects_corruption(ray_session, fixture_parquet, tmp_path, capsys):
    enc = str(tmp_path / "enc_audit")
    _run(capsys, "encode", "--input", fixture_parquet, "--out", enc,
         "--target-tokens", "2000000")
    res = _run(capsys, "audit", "--encoded", enc)
    assert res["corrupt"] == [] and res["ok"] == res["blocks"]

    # flip one payload byte -> audit must flag exactly that block
    blocks = sorted(f for f in os.listdir(enc) if f.endswith(".tokb"))
    victim = os.path.join(enc, blocks[0])
    data = bytearray(open(victim, "rb").read())
    data[-1] ^= 0xFF
    open(victim, "wb").write(bytes(data))
    from tokcodec.cli import main as _main

    rc = _main(["audit", "--encoded", enc])
    out = capsys.readouterr().out.strip().splitlines()[-1]
    import json as _json

    res2 = _json.loads(out)
    assert rc == 1 and res2["corrupt"] == [blocks[0]]


def test_cli_dedup_index(ray_session, tmp_path, capsys):
    import pyarrow as pa
    import pyarrow.parquet as pq

    seed = tmp_path / "seed.parquet"
    pq.write_table(
        pa.table({"doc_id": ["a", "b", "c"], "text": ["x", "y", "x"]}), str(seed)
    )
    batch = tmp_path / "batch.parquet"
    pq.write_table(
        pa.table({"doc_id": ["d", "e", "f"], "text": ["x", "z", "z"]}), str(batch)
    )
    idx = str(tmp_path / "idx")
    res = _run(capsys, "dedup", "--input", str(seed), "--index", idx,
               "--run-id", "seed", "--n-buckets", "8",
               "--out", str(tmp_path / "seed_acc"))
    assert res["accepted"] == 2  # a (x), b (y); c loses to a

    out = str(tmp_path / "acc")
    res = _run(capsys, "dedup", "--input", str(batch), "--index", idx,
               "--run-id", "b1", "--n-buckets", "8", "--out", out)
    assert res["accepted"] == 1  # e wins z; d's x is known
    import ray

    got = ray.data.read_parquet(out).to_pandas()
    assert sorted(got["doc_id"]) == ["e"]

    res = _run(capsys, "dedup", "--index", idx, "--compact-only")
    assert res["hashes"] == 3  # x, y, z


def test_cli_dedup_marks_complete_only_with_out(ray_session, tmp_path, capsys):
    """A count-only dedup run stays unmarked, so compaction keeps its
    run-scoped shards and a same-run_id re-run can recover the accepted
    ids; a run whose accepted rows were written is marked complete."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = tmp_path / "docs.parquet"
    pq.write_table(pa.table({"doc_id": ["a", "b"], "text": ["x", "y"]}), str(src))
    idx = str(tmp_path / "idx")

    def completed():
        with open(os.path.join(idx, "index.json")) as f:
            return json.load(f).get("completed_runs", [])

    res = _run(capsys, "dedup", "--input", str(src), "--index", idx,
               "--run-id", "r1", "--n-buckets", "4")
    assert res["accepted"] == 2 and completed() == []
    out = str(tmp_path / "acc")
    res = _run(capsys, "dedup", "--input", str(src), "--index", idx,
               "--run-id", "r1", "--n-buckets", "4", "--out", out)
    assert res["accepted"] == 2  # the retry recovers both ids
    assert completed() == ["r1"]


def test_cli_dedup_minhash(ray_session, tmp_path, capsys):
    import pyarrow as pa
    import pyarrow.parquet as pq

    base = " ".join(f"v{j}" for j in range(20))
    other = " ".join(f"u{j}" for j in range(20))
    seed = tmp_path / "seed.parquet"
    pq.write_table(pa.table({"doc_id": ["a"], "text": [base]}), str(seed))
    batch = tmp_path / "batch.parquet"
    pq.write_table(
        pa.table({"doc_id": ["b", "c"], "text": [base + " tail", other]}), str(batch)
    )
    idx = str(tmp_path / "nidx")
    res = _run(capsys, "dedup", "--method", "minhash", "--input", str(seed),
               "--index", idx, "--run-id", "seed", "--n-buckets", "8")
    assert res["accepted"] == 1
    res = _run(capsys, "dedup", "--method", "minhash", "--input", str(batch),
               "--index", idx, "--run-id", "b1", "--n-buckets", "8")
    assert res["accepted"] == 1  # b near-dups a; c is fresh


@pytest.mark.parametrize("kind", ["planned", "sink", "compacted", "sidecar"])
def test_cli_audit_passes_every_kind_of_dir(kind, written_dirs, capsys):
    """Every block writer records its block's checksum, so a fresh dir of
    each kind audits clean with no block of unknown state."""
    res = _run(capsys, "audit", "--encoded", written_dirs[kind])
    assert res["blocks"] >= 1 and res["corrupt"] == []
    assert res["unknown"] == 0 and res["ok"] == res["blocks"]
