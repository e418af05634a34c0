"""Sidecar reads go through the one TOKB read path (`read_blocks`): one
read operator, manifest order, pruning on the merged base + sidecar zone
maps before any task runs, and decode_dataset's manifest guards."""

from __future__ import annotations

import json
import os
import shutil

import pytest

from tokcodec import manifest as mf
from tokcodec.blocks import decode_file
from tokcodec.pipelines import append_columns, encode_dataset, read_with_sidecars
from tokcodec.pipelines.sidecar import _sidecar_dir
from tokcodec.predicate import col


def _len_fn():
    # nested so cloudpickle ships it by value to the workers
    def _tok_len(t):
        import pyarrow as _pa
        import pyarrow.compute as _pc

        return _pa.table(
            {"tok_len": _pc.list_value_length(t.column("tokens")).cast(_pa.int64())}
        )

    return _tok_len


@pytest.fixture(scope="module")
def planned(ray_session, fixture_parquet, tmp_path_factory):
    """A planned encode with a `len` sidecar."""
    out = str(tmp_path_factory.mktemp("scr_planned"))
    encode_dataset(fixture_parquet, out, target_tokens=1_000_000)
    append_columns(out, "len", _len_fn(), input_columns=["tokens"])
    assert len(mf.list_manifests(out)) >= 3
    return out


@pytest.fixture(scope="module")
def sorted_sink(ray_session, fixture_parquet, tmp_path_factory):
    """Sink blocks sorted by n_tok, so base and sidecar zone maps are
    disjoint per block, with a `len` sidecar (tok_len == n_tok)."""
    import ray.data

    from tokcodec.sources.sink import TokbDatasink

    out = str(tmp_path_factory.mktemp("scr_sorted") / "enc")
    ds = ray.data.read_parquet(fixture_parquet, columns=["doc_id", "n_tok", "tokens"])
    ds.sort("n_tok").repartition(6).write_datasink(TokbDatasink(out))
    append_columns(out, "len", _len_fn(), input_columns=["tokens"])
    return out


def _pairs(enc: str) -> list[tuple[str, str]]:
    """(base block, sidecar block) paths in manifest order."""
    side = _sidecar_dir(enc, "len")
    return [
        (os.path.join(enc, m["block"]), os.path.join(side, m["block"]))
        for m in mf.list_manifests(enc)
    ]


def test_sidecar_read_is_one_read_operator(planned):
    ds = read_with_sidecars(planned, ["len"])
    assert sorted(ds.input_files()) == sorted(p for pair in _pairs(planned) for p in pair)
    stats = ds.materialize().stats()
    assert "ReadTOKB" in stats
    assert "MapBatches" not in stats and "FromItems" not in stats


def test_sidecar_read_rows_in_manifest_order(planned):
    want = [
        d for base, _ in _pairs(planned)
        for d in decode_file(base, columns=["doc_id"])[0]["doc_id"].to_pylist()
    ]
    for _ in range(2):
        rows = read_with_sidecars(planned, ["len"], columns=["doc_id", "tok_len"]).take_all()
        assert [r["doc_id"] for r in rows] == want


def test_sidecar_predicate_schedules_only_blocks_whose_merged_zone_maps_match(sorted_sink):
    pairs = _pairs(sorted_sink)
    ranges = []
    for base, _ in pairs:
        n_tok = decode_file(base, columns=["n_tok"])[0]["n_tok"].to_pylist()
        ranges.append((min(n_tok), max(n_tok)))
    # a window over the middle blocks: the base bound alone keeps every
    # block from lo up, the sidecar bound drops the ones from hi up
    lo, hi = ranges[1][0], ranges[3][1]
    pred = (col("n_tok") >= lo) & (col("tok_len") <= hi)
    kept = [pair for pair, (a, b) in zip(pairs, ranges) if b >= lo and a <= hi]
    base_only = [pair for pair, (a, b) in zip(pairs, ranges) if b >= lo]
    assert 0 < len(kept) < len(base_only) <= len(pairs)

    ds = read_with_sidecars(sorted_sink, ["len"], columns=["doc_id", "tok_len"],
                            predicate=pred)
    assert sorted(ds.input_files()) == sorted(p for pair in kept for p in pair)
    got = ds.to_pandas()
    assert list(got.columns) == ["doc_id", "tok_len"]
    all_rows = read_with_sidecars(sorted_sink, ["len"]).to_pandas()
    want = all_rows[(all_rows["n_tok"] >= lo) & (all_rows["tok_len"] <= hi)]
    assert got["doc_id"].tolist() == want["doc_id"].tolist()


def test_sidecar_read_refuses_an_incomplete_encode(planned, tmp_path):
    enc = str(tmp_path / "enc")
    shutil.copytree(planned, enc)
    name = mf.list_manifests(enc)[1]["block"].replace(".tokb", ".manifest.json")
    os.remove(os.path.join(enc, name))
    with pytest.raises(ValueError, match="incomplete encode"):
        read_with_sidecars(enc, ["len"])


def test_sidecar_read_refuses_a_foreign_manifest(planned, tmp_path):
    enc = str(tmp_path / "enc")
    shutil.copytree(planned, enc)
    name = mf.list_manifests(enc)[0]["block"].replace(".tokb", ".manifest.json")
    path = os.path.join(enc, name)
    with open(path) as f:
        man = json.load(f)
    man["fingerprint"] = "foreign"
    with open(path, "w") as f:
        json.dump(man, f)
    with pytest.raises(ValueError, match="different plan"):
        read_with_sidecars(enc, ["len"])
