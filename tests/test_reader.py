"""Reader-options resolution tests (SURVEY.md §2 #14, #18): precedence,
mutual exclusivity, fail-fast projection, footer schema recovery, and
evolution applied at decode."""

from __future__ import annotations

import pytest

from tokcodec.pipelines import encode_dataset
from tokcodec.schema import Repetition, Schema, Type
from tokcodec.sources import TokbReader, read_decoded


@pytest.fixture(scope="module")
def enc_dir(ray_session, fixture_parquet, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("rdr"))
    encode_dataset(fixture_parquet, out, target_tokens=2_000_000)
    return out


def test_footer_schema_recovery(enc_dir):
    s = TokbReader(enc_dir).schema()
    names = [f.name for f in s.fields]
    assert names == ["doc_id", "tokens", "n_tok", "source"]
    by = {f.name: f for f in s.fields}
    assert by["tokens"].repetition is Repetition.REPEATED
    assert by["tokens"].type is Type.INT64  # int32 widens into the 3-type system


def test_fields_projection_keeps_order_and_fails_fast(enc_dir):
    ds = read_decoded(enc_dir, fields=["n_tok", "doc_id"])
    assert ds.schema().names == ["doc_id", "n_tok"]  # file order kept
    with pytest.raises(ValueError, match="Invalid fields"):
        read_decoded(enc_dir, fields=["doc_id", "bogus"]).schema()


def test_schema_and_fields_mutually_exclusive(enc_dir):
    r = TokbReader(enc_dir).with_fields(["doc_id"])
    with pytest.raises(ValueError, match="mutually exclusive"):
        r.with_schema(Schema.new_builder().required("doc_id", Type.BYTES).build())


def test_config_precedence(enc_dir):
    # config fields used when no explicit option given
    ds = read_decoded(enc_dir, config={"fields": ["source"]})
    assert ds.schema().names == ["source"]
    # explicit fields beat config
    ds = read_decoded(enc_dir, fields=["doc_id"], config={"fields": ["source"]})
    assert ds.schema().names == ["doc_id"]
    # config schema beats config fields
    s = Schema.new_builder().optional("n_tok", Type.INT64).build()
    ds = read_decoded(enc_dir, config={"schema": s.to_json(), "fields": ["source"]})
    assert ds.schema().names == ["n_tok"]


def test_evolution_new_optional_field_reads_absent(enc_dir):
    s = (
        Schema.new_builder()
        .optional("doc_id", Type.BYTES)
        .optional("brand_new", Type.FLOAT)
        .build()
    )
    rows = read_decoded(enc_dir, schema=s).take(5)
    assert all(r["brand_new"] is None for r in rows)


def test_evolution_new_required_field_fails(enc_dir):
    s = Schema.new_builder().required("nope", Type.INT64).build()
    with pytest.raises(ValueError, match="missing from the file schema"):
        read_decoded(enc_dir, schema=s).schema()


def test_read_schema_applies_inside_the_read_task(enc_dir):
    """One read operator, no extra map stage: the read schema is applied
    to each decoded block in its task, and rows keep manifest order."""
    import os

    from tokcodec import manifest as mf
    from tokcodec.blocks import decode_file

    s = (
        Schema.new_builder()
        .optional("doc_id", Type.BYTES)
        .optional("brand_new", Type.FLOAT)
        .build()
    )
    ds = read_decoded(enc_dir, schema=s).materialize()
    stats = ds.stats()
    assert "ReadTOKB" in stats and "MapBatches" not in stats
    mans = mf.list_manifests(enc_dir)
    want = [d.encode() for m in mans
            for d in decode_file(os.path.join(enc_dir, m["block"]), columns=["doc_id"])[0]
            .column("doc_id").to_pylist()]
    rows = ds.take_all()
    assert [r["doc_id"] for r in rows] == want
    assert all(r["brand_new"] is None for r in rows)
