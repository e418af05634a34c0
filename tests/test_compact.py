"""Compaction: many small TOKB blocks → target-sized blocks, order- and
content-preserving, resumable, stale-output-purging."""

from __future__ import annotations

import os

import pyarrow as pa
import pytest

from tokcodec import manifest as mf
from tokcodec.pipelines.compact import compact_blocks, plan_compaction
from tokcodec.pipelines.encode import decode_dataset
from tokcodec.sources.sink import TokbDatasink


@pytest.fixture(scope="module")
def small_blocks(ray_session, fixture_parquet, tmp_path_factory):
    """Encode the fixture into MANY tiny blocks via the streaming sink."""
    import ray.data

    out = str(tmp_path_factory.mktemp("tiny"))
    ds = ray.data.read_parquet(fixture_parquet, columns=["doc_id", "tokens", "n_tok"])
    ds.repartition(24).write_datasink(TokbDatasink(out))
    return out


def test_plan_buckets_respect_target_and_order(small_blocks):
    mans = mf.list_manifests(small_blocks)
    total = sum(m["metrics"]["rows"] for m in mans)
    plan = plan_compaction(small_blocks, target_tokens=total // 4)
    assert 3 <= len(plan) <= 8
    # order-preserving: concatenated member lists == manifest order
    flat = [b for spec in plan for b in spec["blocks"]]
    assert flat == [m["block"] for m in mans]


def test_compact_preserves_rows_and_order(small_blocks, ray_session, tmp_path):
    out = str(tmp_path / "compacted")
    before = decode_dataset(small_blocks).to_pandas()
    mans = mf.list_manifests(small_blocks)
    total_mass = sum(m["metrics"]["rows"] for m in mans)
    res = compact_blocks(small_blocks, out, target_tokens=total_mass // 3)
    assert res["buckets"] < len(mans)
    after = decode_dataset(out).to_pandas()
    assert len(after) == len(before)
    assert list(after["doc_id"]) == list(before["doc_id"])  # order kept
    assert (after["n_tok"].to_numpy() == before["n_tok"].to_numpy()).all()


def test_compact_is_resumable_and_purges_stale(small_blocks, ray_session, tmp_path):
    out = str(tmp_path / "c2")
    mans = mf.list_manifests(small_blocks)
    total_mass = sum(m["metrics"]["rows"] for m in mans)
    r1 = compact_blocks(small_blocks, out, target_tokens=total_mass // 3)
    r2 = compact_blocks(small_blocks, out, target_tokens=total_mass // 3)
    assert r2["resumed"] == r1["buckets"] and r2["rows"] == 0

    # a NEW plan with a larger target must purge the now-stale extra
    # buckets (else decode would read both layouts)
    r3 = compact_blocks(small_blocks, out, target_tokens=total_mass)
    assert r3["buckets"] == 1 and r3["purged"] >= 1
    got = decode_dataset(out).to_pandas()
    before = decode_dataset(small_blocks).to_pandas()
    assert len(got) == len(before)


def test_compact_in_place_refused(small_blocks):
    with pytest.raises(ValueError, match="in place"):
        compact_blocks(small_blocks, small_blocks)


def test_compact_can_add_blooms(small_blocks, ray_session, tmp_path):
    """Compaction is the natural time to add point-lookup blooms."""
    from tokcodec.blocks import header_stats, read_header_file
    from tokcodec.predicate import col

    out = str(tmp_path / "c3")
    compact_blocks(small_blocks, out, target_tokens=10**9, bloom_cols=["doc_id"])
    mans = mf.list_manifests(out)
    stats = header_stats(read_header_file(os.path.join(out, mans[0]["block"])))
    assert "bloom" in stats["doc_id"]
    assert (col("doc_id") == "no_such_doc").stats_may_match(stats) is False


def test_compact_refuses_dir_with_foreign_blocks(small_blocks, ray_session, tmp_path):
    """Compacting INTO a dir that already holds sink/planned blocks would
    make decode concatenate both manifest sets (row duplication)."""
    import shutil

    out = str(tmp_path / "mixed")
    shutil.copytree(small_blocks, out)
    with pytest.raises(ValueError, match="non-compaction block"):
        compact_blocks(small_blocks, out, target_tokens=10**9)


def test_compact_resume_respects_config(small_blocks, ray_session, tmp_path):
    """Re-running with different bloom/zstd settings must rebuild, not
    silently resume bloomless blocks."""
    from tokcodec.blocks import header_stats, read_header_file

    out = str(tmp_path / "cfg")
    r1 = compact_blocks(small_blocks, out, target_tokens=10**9)
    r2 = compact_blocks(small_blocks, out, target_tokens=10**9, bloom_cols=["doc_id"])
    assert r2["resumed"] == 0 and r2["rows"] > 0
    man = mf.list_manifests(out)[0]
    stats = header_stats(read_header_file(os.path.join(out, man["block"])))
    assert "bloom" in stats["doc_id"]


def test_compact_manifest_never_mislabels_rows_as_tokens(small_blocks, ray_session, tmp_path):
    """Sink manifests carry no token counts; the compacted manifest must
    not publish the row-count fallback mass under the n_tok key."""
    out = str(tmp_path / "mass")
    compact_blocks(small_blocks, out, target_tokens=10**9)
    for man in mf.list_manifests(out):
        assert "n_tok" not in man["metrics"]


def test_compacted_manifests_weigh_blocks_by_decoded_bytes(small_blocks, ray_session, tmp_path):
    """Compaction manifests record the decoded bytes the read path
    balances on, so each compacted block decodes into one Ray block."""
    out = str(tmp_path / "weigh")
    res = compact_blocks(small_blocks, out, target_tokens=10**4)
    mans = mf.list_manifests(out)
    assert all(m["metrics"]["bytes_in"] > m["block_bytes"] for m in mans)
    assert decode_dataset(out).materialize().num_blocks() == res["buckets"] == len(mans)
