"""Regression tests for code-review findings (round 1)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from tokcodec.blocks import decode_table, encode_table
from tokcodec.codecs import intcodecs
from tokcodec.functions.dedup import _word_shingles, simhash_batch
from tokcodec.projection import Projection


def test_projection_preserves_null_list_slots():
    t = pa.table(
        {
            "id": [1, 2, 3],
            "tags": pa.array(
                [[{"k": "a", "v": 1}], None, [{"k": "b", "v": 2}]],
                type=pa.list_(pa.struct([("k", pa.string()), ("v", pa.int64())])),
            ),
        }
    )
    out = Projection(["id", "tags.k"]).project_table(t)
    col = out.column("tags").combine_chunks()
    assert col.null_count == 1 and col.is_null()[1].as_py()
    assert col.to_pylist() == [[{"k": "a"}], None, [{"k": "b"}]]


@pytest.mark.parametrize("codec", ["plain", "bp", "for", "delta", "rle", "dict"])
def test_forced_codec_empty_array_decodes(codec):
    a = np.array([], dtype=np.int64)
    name = "bitpack" if codec == "bp" else codec
    enc = getattr(intcodecs, f"_enc_{name}")(a)
    dec = getattr(intcodecs, f"_dec_{name}")(enc)
    assert len(dec) == 0 and dec.dtype == a.dtype


def test_empty_batch_shingles_and_simhash():
    d, h = _word_shingles([])
    assert len(d) == 0 and len(h) == 0
    t = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    out = simhash_batch(t)
    assert out.num_rows == 0 and "simhash" in out.column_names


def test_decode_table_column_pruning():
    t = pa.table({"a": [1, 2], "b": ["x", "y"], "c": [0.5, 1.5]})
    blob = encode_table(t)
    out, _ = decode_table(blob, columns=["c", "a"])
    assert out.column_names == ["a", "c"]  # file order preserved
    assert out.column("a").to_pylist() == [1, 2]
    with pytest.raises(ValueError, match="Invalid fields"):
        decode_table(blob, columns=["nope"])


def test_datasink_dir_decodes_via_decode_dataset(ray_session, fixture_parquet, tmp_path):
    import ray.data

    from tokcodec.pipelines import decode_dataset
    from tokcodec.sources.sink import TokbDatasink

    out = str(tmp_path / "sink2")
    ray.data.read_parquet(fixture_parquet).write_datasink(TokbDatasink(out))
    # manifests have no 'pid'; decode_dataset must still work
    ds = decode_dataset(out, columns=["doc_id"])
    assert ds.count() == 5000


def test_brute_force_handles_empty_blocks(ray_session):
    import ray.data

    from tokcodec.functions.ann import brute_force_topk

    rng = np.random.default_rng(1)
    m = rng.standard_normal((20, 8)).astype(np.float32)
    offs = np.arange(0, 21 * 8, 8, dtype=np.int32)
    t = pa.table({
        "vec_id": pa.array(range(20), type=pa.int64()),
        "embedding": pa.ListArray.from_arrays(
            pa.array(offs), pa.array(m.reshape(-1), type=pa.float32())
        ),
    })
    # over-partitioned so some blocks may be empty after a filter
    ds = ray.data.from_arrow(t).repartition(8).filter(
        expr="vec_id < 5"
    )
    rows = brute_force_topk(ds, m[:1].astype(np.float64), k=3)
    assert {r["vec_id"] for r in rows} <= set(range(5))
    assert any(r["vec_id"] == 0 for r in rows)


# ---- round-4 audit: schema/predicate/projection/reader/sink guards ----


def test_validate_table_rejects_type_and_repetition_mismatch():
    import pyarrow as pa
    import pytest

    from tokcodec.schema import Schema, Type

    sch = (
        Schema.new_builder("t")
        .required("x", Type.INT64)
        .repeated("toks", Type.INT64)
        .build()
    )
    # a list column for a required field = >1 value per row
    bad_rep = pa.table(
        {"x": pa.array([[1, 2, 3], [4]], pa.list_(pa.int64())),
         "toks": pa.array([[1], [2]], pa.list_(pa.int64()))}
    )
    with pytest.raises(ValueError, match="one value per row"):
        sch.validate_table(bad_rep)
    # a string column for an INT64 field
    bad_ty = pa.table(
        {"x": pa.array(["a", "b"]),
         "toks": pa.array([[1], [2]], pa.list_(pa.int64()))}
    )
    with pytest.raises(ValueError, match="expects INT64"):
        sch.validate_table(bad_ty)
    # repeated value-type mismatch
    bad_vals = pa.table(
        {"x": pa.array([1, 2], pa.int64()),
         "toks": pa.array([["a"], ["b"]], pa.list_(pa.string()))}
    )
    with pytest.raises(ValueError, match="INT64 values"):
        sch.validate_table(bad_vals)
    # widened-but-compatible dtypes still pass (int32 under INT64)
    ok = pa.table(
        {"x": pa.array([1, 2], pa.int32()),
         "toks": pa.array([[1], [2]], pa.list_(pa.int32()))}
    )
    sch.validate_table(ok)


def test_projection_full_column_absorbs_dotted_sibling():
    import pyarrow as pa

    from tokcodec.projection import Projection, project_schema

    schema = pa.schema(
        [
            pa.field("a", pa.struct([pa.field("x", pa.int64()), pa.field("y", pa.int64())])),
            pa.field("k", pa.int64()),
        ]
    )
    for order in (["a", "a.x", "k"], ["a.x", "a", "k"]):
        out = project_schema(schema, order)
        assert out.field("a").type.num_fields == 2  # full 'a' wins
    t = pa.table(
        {
            "a": pa.array([{"x": 1, "y": 2}], pa.struct([("x", pa.int64()), ("y", pa.int64())])),
            "k": pa.array([3], pa.int64()),
        }
    )
    got = Projection(["a", "a.x"]).project_table(t)
    assert got.column("a").type.num_fields == 2


def test_pruned_and_decoded_blocks_union_with_dotted_and_full(tmp_path):
    import pyarrow as pa

    from tokcodec.blocks import decode_file, encode_table
    from tokcodec.manifest import atomic_write_bytes
    from tokcodec.predicate import col

    st = pa.struct([("x", pa.int64()), ("y", pa.int64())])
    lo = pa.table({"a": pa.array([{"x": 1, "y": 2}] * 8, st), "k": pa.array([1] * 8, pa.int64())})
    hi = pa.table({"a": pa.array([{"x": 9, "y": 9}] * 8, st), "k": pa.array([99] * 8, pa.int64())})
    p1, p2 = str(tmp_path / "b1.tokb"), str(tmp_path / "b2.tokb")
    atomic_write_bytes(p1, encode_table(lo))
    atomic_write_bytes(p2, encode_table(hi))
    pred = col("k") < 50  # zone maps prune b2 entirely
    cols = ["a", "a.x", "k"]
    t1, _ = decode_file(p1, columns=cols, predicate=pred)
    t2, _ = decode_file(p2, columns=cols, predicate=pred)
    merged = pa.concat_tables([t1, t2])  # schemas must agree pruned-vs-decoded
    assert merged.num_rows == 8
    assert merged.column("a").type.num_fields == 2


def test_expr_refuses_python_boolean_ops():
    import pytest

    from tokcodec.predicate import col

    with pytest.raises(TypeError, match="not truthy"):
        bool((col("a") > 1) and (col("b") > 2))
    with pytest.raises(TypeError, match="not truthy"):
        if col("a") > 1:
            pass


def test_read_parquet_filtered_widens_projection(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tokcodec.predicate import col, read_parquet_filtered

    p = str(tmp_path / "t.parquet")
    pq.write_table(
        pa.table({"a": pa.array(range(100)), "b": pa.array(range(100))}), p
    )
    ds = read_parquet_filtered(p, col("b") > 90, columns=["a"])
    rows = ds.take_all()
    assert sorted(r["a"] for r in rows) == list(range(91, 100))
    assert all(set(r) == {"a"} for r in rows)  # 'b' re-projected away


def test_scanned_narrow_ints_roundtrip_through_schema():
    import pyarrow as pa

    from tokcodec.scanner import scan_table
    from tokcodec.schema import Schema

    t = pa.table({"x": pa.array([1, 2, 3], pa.int8()), "u": pa.array([1, 2, 3], pa.uint32())})
    inferred = scan_table(t)
    assert {f.name for f in inferred.fields} == {"x", "u"}
    # the same table must be readable under its own from_arrow schema —
    # previously int8/uint32 raised "Only primitive fields are supported"
    own = Schema.from_arrow(t.schema)
    out = own.read_table(t)
    assert out.column("x").type == pa.int64()
    assert out.column("u").type == pa.int64()


def test_read_tokb_applies_manifest_guards(ray_session, tmp_path, fixture_parquet):
    import json
    import os
    import shutil

    import pytest

    from tokcodec.pipelines import encode_dataset
    from tokcodec.sources.sink import read_tokb

    out = str(tmp_path / "enc")
    encode_dataset(fixture_parquet, out, target_tokens=1_000_000)
    n = read_tokb(out).count()
    assert n > 0
    # foreign-fingerprint block: read_tokb must refuse like decode_dataset
    man = json.load(open(os.path.join(out, "part-00000.manifest.json")))
    man.update(fingerprint="deadbeef", pid=999, block="part-00999.tokb")
    shutil.copy(os.path.join(out, "part-00000.tokb"), os.path.join(out, "part-00999.tokb"))
    with open(os.path.join(out, "part-00999.manifest.json"), "w") as f:
        json.dump(man, f)
    with pytest.raises(ValueError, match="different plan"):
        read_tokb(out)


# ---- round-4 audit, third pass: pack purge, sketch, quantiles, cli ----


def test_pack_replan_purges_stale_partitions(ray_session, fixture_parquet, tmp_path):
    import os

    import pyarrow.parquet as pq

    from tokcodec.pipelines.pack import pack_dataset, read_packed

    out = str(tmp_path / "pack")
    r1 = pack_dataset(fixture_parquet, out, seq_len=2048, target_tokens=300_000)
    n1 = len(r1["metrics"])
    # re-plan with far fewer partitions: old pids must be swept
    r2 = pack_dataset(fixture_parquet, out, seq_len=2048, target_tokens=3_000_000)
    n2 = len(r2["metrics"])
    assert n2 < n1 and r2["purged"] >= n1 - n2
    chunk_files = [f for f in os.listdir(os.path.join(out, "chunks")) if f.startswith("part-")]
    assert len(chunk_files) == n2
    packed = read_packed(out).to_pandas()
    # chunk ids unique and token mass conserved
    assert packed["chunk_id"].is_unique
    assert int(packed["n_tok"].sum()) == r2["n_tokens"]


def test_hll_uint64_and_float_columns(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from tokcodec.functions.sketch import hll_count_distinct

    rng = np.random.default_rng(5)
    # uint64 with values >= 2^63 (hash-shaped) — previously ArrowInvalid
    u = rng.integers(0, 2**63, 5000, dtype=np.uint64) + np.uint64(2**63)
    u[: 2500] = u[2500:]  # 2500 distinct
    ds = ray.data.from_arrow(pa.table({"h": pa.array(u, pa.uint64())}))
    est = hll_count_distinct(ds, "h")
    assert 0.85 * 2500 <= est <= 1.15 * 2500
    f = rng.standard_normal(3000)
    f[:1500] = f[1500:]
    dsf = ray.data.from_arrow(pa.table({"x": pa.array(f, pa.float64())}))
    estf = hll_count_distinct(dsf, "x")
    assert 0.85 * 1500 <= estf <= 1.15 * 1500


def test_grouped_quantiles_exclude_nulls(ray_session):
    import pyarrow as pa
    import ray.data

    from tokcodec.functions.quantile import grouped_quantiles_disc

    t = pa.table(
        {
            "g": pa.array(["a"] * 4 + ["b"] * 3),
            "v": pa.array([1.0, None, 3.0, float("nan"), 5.0, 7.0, None]),
        }
    )
    out = grouped_quantiles_disc(ray.data.from_arrow(t), "g", "v", [1.0]).to_pandas()
    got = dict(zip(out["g"], out["v"]))
    # q=1.0 over non-null values: a -> 3.0 (not NaN-shifted), b -> 7.0
    assert got["a"] == 3.0 and got["b"] == 7.0


def test_band_join_rejects_inverted_bounds(ray_session):
    import pyarrow as pa
    import pytest
    import ray.data

    from tokcodec.functions.joins import band_join_count

    t = pa.table({"k": pa.array([1]), "ts": pa.array([10], pa.int64())})
    ds = ray.data.from_arrow(t)
    with pytest.raises(ValueError, match="empty band"):
        band_join_count(ds, ds, "k", "k", "ts", "ts", ["k"], 0, -10)


def test_cli_verify_input_override(ray_session, fixture_parquet, tmp_path, capsys):
    import json
    import os
    import shutil

    from tokcodec.cli import main

    out = str(tmp_path / "enc")
    assert main(["encode", "--input", fixture_parquet, "--out", out,
                 "--target-tokens", "1000000"]) == 0
    capsys.readouterr()
    # relocate the source; --input re-roots the recorded path
    moved = tmp_path / "moved"
    moved.mkdir()
    shutil.copy(fixture_parquet, moved / os.path.basename(fixture_parquet))
    assert main(["verify", "--encoded", out, "--input", str(moved)]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["bit_identical"] is True


# --------------------- round-5 review: NULL keys in the op family ----


def test_asof_join_drops_null_timestamps(ray_session):
    """SQL ASOF never matches on NULL: a NULL-ts left row must produce
    no output (previously it silently matched the group's max right
    ts), and NULL right rows must not crash or match."""
    import ray.data

    from tokcodec.functions.joins import asof_join

    left = pa.table(
        {
            "k": pa.array([1, 1, 1], pa.int64()),
            "lt": pa.array([100, None, 300], pa.int64()),
            "tag": pa.array(["a", "b", "c"]),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 1, None], pa.int64()),
            "rt": pa.array([50, None, 250], pa.int64()),
        }
    )
    out = asof_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        "k", "k", "lt", "rt", ["tag"],
    ).to_pandas().sort_values("tag").reset_index(drop=True)
    # 'a' matches rt=50; 'b' (null lt) dropped; 'c' matches rt=50 (the
    # null-rt and null-key rights never participate)
    assert list(out["tag"]) == ["a", "c"]
    assert [t.value // 1000 for t in out["asof_ts"]] == [50, 50]  # ns -> us


def test_band_join_null_ts_rows_never_crash_or_match(ray_session):
    import ray.data

    from tokcodec.functions.joins import band_join_count

    left = pa.table(
        {
            "k": pa.array([1, 1], pa.int64()),
            "lt": pa.array([100, None], pa.int64()),
            "tag": pa.array(["a", "b"]),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 1, 1], pa.int64()),
            "rt": pa.array([90, None, 110], pa.int64()),
        }
    )
    out = band_join_count(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        "k", "k", "lt", "rt", ["tag"], -20, 20,
    ).to_pandas()
    assert list(out["tag"]) == ["a"] and list(out["n"]) == [2]


def test_join_revenue_by_nation_probes(ray_session, tmp_path):
    """The star join's two index_in + take probes: no ASIA supplier
    gives an empty result; one ASIA supplier gives its exact revenue."""
    import pyarrow.parquet as pq

    from tokcodec.pipelines.queries import join_revenue_by_nation

    def write(d, supp_nation):
        d.mkdir()
        pq.write_table(pa.table({
            "r_regionkey": pa.array([0, 1], pa.int32()), "r_name": ["ASIA", "EUROPE"],
        }), d / "region.parquet")
        pq.write_table(pa.table({
            "n_nationkey": pa.array([5, 6], pa.int32()), "n_name": ["JAPAN", "FRANCE"],
            "n_regionkey": pa.array([0, 1], pa.int32()),
        }), d / "nation.parquet")
        pq.write_table(pa.table({
            "s_suppkey": pa.array([10, 11], pa.int64()),
            "s_nationkey": pa.array(supp_nation, pa.int32()),
        }), d / "supplier.parquet")
        pq.write_table(pa.table({
            "l_suppkey": pa.array([10, 11, 10, 12], pa.int64()),
            "l_extendedprice": [100.25, 7.0, 3.5, 9.0],
            "l_discount": [0.05, 0.0, 0.1, 0.0],
        }), d / "lineitem.parquet")
        return str(d)

    none = join_revenue_by_nation(write(tmp_path / "none", [6, 6])).to_pandas()
    assert len(none) == 0
    one = join_revenue_by_nation(write(tmp_path / "one", [5, 6])).to_pandas()
    # supplier 10 only: 10025 * 95 + 350 * 90
    assert one["n_name"].tolist() == ["JAPAN"]
    assert one["revenue"].tolist() == [10025 * 95 + 350 * 90]


def test_sessionize_rejects_null_user_or_ts(ray_session):
    import ray.data

    from tokcodec.functions.sessionize import sessionize

    t = pa.table(
        {
            "user_id": pa.array(["u", None]),
            "ts": pa.array([1, 2], pa.int64()),
        }
    )
    with pytest.raises(Exception, match="null"):
        sessionize(ray.data.from_arrow(t)).materialize()


def test_grouped_quantiles_rejects_null_group(ray_session):
    import ray.data

    from tokcodec.functions.quantile import grouped_quantiles_disc

    t = pa.table(
        {
            "g": pa.array(["a", None, "a"]),
            "v": pa.array([1.0, 2.0, 3.0]),
        }
    )
    with pytest.raises(Exception, match="null"):
        grouped_quantiles_disc(ray.data.from_arrow(t), "g", "v", [0.5])


def test_group_quota_enforces_null_group_budget(ray_session):
    """SQL PARTITION BY puts all NULLs in one group: its budget must be
    enforced too (the pandas-era wave-1 dropped NULL groups, so they
    kept everything)."""
    import ray.data

    from tokcodec.functions.sample import group_quota

    t = pa.table(
        {
            "group": pa.array(["a"] * 5 + [None] * 40),
            "mass": pa.array([10] * 5 + [25] * 40, pa.int64()),
            "doc_id": pa.array([f"d{i}" for i in range(45)]),
        }
    )
    out = group_quota(
        ray.data.from_arrow(t), "group", "mass", budget=100
    ).to_pandas()
    sums = out.groupby(out["group"].fillna("<null>"), dropna=False)["mass"].sum()
    assert sums.get("a", 0) == 50          # under budget: all kept
    assert 0 < sums.get("<null>", 0) <= 100  # null group capped


def test_approx_quantiles_null_keys_excluded(ray_session):
    """NULL sample keys all hash identically; they must be excluded
    per-row like sample_dataset, not enter/leave the sample as a
    block."""
    import ray.data

    from tokcodec.functions.quantile import approx_quantiles_disc

    n = 2000
    t = pa.table(
        {
            "doc_id": pa.array(
                [f"d{i}" if i % 2 else None for i in range(n)]
            ),
            "v": pa.array([float(i) for i in range(n)]),
        }
    )
    got = approx_quantiles_disc(
        ray.data.from_arrow(t), "v", [0.5], rate=0.5
    )
    nonnull = t.filter(pa.compute.is_valid(t.column("doc_id")))
    want = approx_quantiles_disc(
        ray.data.from_arrow(nonnull), "v", [0.5], rate=0.5
    )
    assert got == want  # identical sample: null-key rows contributed 0 rows
