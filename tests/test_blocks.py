"""Block container round-trip tests: every supported Arrow type, nulls,
bit-identical floats, and the size criterion vs parquet-zstd
(BASELINE.json line 6)."""

from __future__ import annotations

import io

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tokcodec.blocks import decode_table, encode_table, read_header
from tokcodec.synth import make_table


def _assert_tables_equal(a: pa.Table, b: pa.Table):
    assert a.schema == b.schema
    for name in a.column_names:
        ca = a.column(name).combine_chunks()
        cb = b.column(name).combine_chunks()
        if pa.types.is_floating(ca.type):
            w = np.uint32 if ca.type == pa.float32() else np.uint64
            na = ca.to_numpy(zero_copy_only=False)
            nb = cb.to_numpy(zero_copy_only=False)
            mask_a = np.asarray(pa.compute.is_null(ca))
            mask_b = np.asarray(pa.compute.is_null(cb))
            assert (mask_a == mask_b).all()
            va = np.nan_to_num(na[~mask_a], nan=0.0)
            vb = np.nan_to_num(nb[~mask_b], nan=0.0)
            # bit-level where finite; NaN payload check done in codec tests
            assert (va == vb).all()
        else:
            assert ca.equals(cb), name


def test_tokenized_table_roundtrip_bit_identical():
    t = make_table(3000, seed=42)
    blob = encode_table(t, meta={"part": 7})
    back, meta = decode_table(blob)
    assert meta == {"part": 7}
    assert back.equals(t)  # token arrays bit-identical (no floats involved)


def test_mixed_types_roundtrip():
    rng = np.random.default_rng(1)
    n = 2000
    t = pa.table({
        "i64": pa.array(rng.integers(-(2**40), 2**40, n), type=pa.int64()),
        "i32_null": pa.array([None if i % 7 == 0 else i for i in range(n)], type=pa.int32()),
        "f32": pa.array(rng.random(n).astype(np.float32)),
        "bool": pa.array([i % 3 == 0 for i in range(n)]),
        "s_null": pa.array([f"name-{i % 50}" if i % 5 else None for i in range(n)]),
        "bin": pa.array([bytes([i % 256])*3 for i in range(n)], type=pa.binary()),
        "ts": pa.array(np.arange(n) * 1_000_000, type=pa.timestamp("us")),
        "lst": pa.array([[1, 2, 3] if i % 2 else [] for i in range(n)], type=pa.list_(pa.int64())),
        "lst_null": pa.array([None if i % 11 == 0 else [i, i+1] for i in range(n)], type=pa.list_(pa.int32())),
        "st": pa.array([{"a": i, "b": f"x{i % 10}"} for i in range(n)],
                        type=pa.struct([("a", pa.int64()), ("b", pa.string())])),
        "lst_str": pa.array([["a", "bb"] if i % 2 else ["ccc"] for i in range(n)],
                            type=pa.list_(pa.string())),
    })
    back, _ = decode_table(encode_table(t))
    _assert_tables_equal(t, back)


def test_empty_table_roundtrip():
    t = make_table(50, seed=1).slice(0, 0)
    back, _ = decode_table(encode_table(t))
    assert back.num_rows == 0 and back.schema == t.schema


def test_decode_empty_projection_preserves_row_count():
    """columns=[] is a count-only read: it must report the block's real
    row count (parquet semantics), not a silent 0-row table."""
    import pyarrow as pa

    from tokcodec.blocks import decode_table, encode_table

    blob = encode_table(pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]}))
    t, _ = decode_table(blob, columns=[])
    assert t.num_rows == 3 and t.num_columns == 0


def test_size_beats_parquet_zstd():
    """BASELINE.json size criterion: encoded bytes <= reference Parquet
    (zstd) bytes on the same table."""
    t = make_table(4000, seed=42)
    blob = encode_table(t)
    buf = io.BytesIO()
    pq.write_table(t, buf, compression="zstd")
    assert len(blob) <= buf.tell(), (len(blob), buf.tell())


def test_header_readable_without_decode():
    t = make_table(100, seed=2)
    blob = encode_table(t, meta={"lineage": {"file": "x.parquet"}})
    h = read_header(blob)
    assert h["n_rows"] == 100
    assert {c["name"] for c in h["columns"]} == {"doc_id", "tokens", "n_tok", "source"}
    assert h["meta"]["lineage"]["file"] == "x.parquet"


def test_unsupported_type_raises():
    t = pa.table({"m": pa.array([[(1, 2)]], type=pa.map_(pa.int32(), pa.int32()))})
    with pytest.raises(TypeError):
        encode_table(t)


def test_other_block_format_raises_format_error(tmp_path):
    """A block of another format version (TOKB1 could hold codecs this
    reader no longer has) fails on its magic with a ValueError naming
    both formats, from the in-memory and the file header paths."""
    from tokcodec.blocks import MAGIC, read_header_file

    blob = encode_table(pa.table({"a": [1, 2, 3]}))
    old = b"TOKB1\x00" + blob[len(MAGIC):]
    with pytest.raises(ValueError, match="'TOKB1' is not the supported 'TOKB3'"):
        decode_table(old)
    path = tmp_path / "old.tokb"
    path.write_bytes(old)
    with pytest.raises(ValueError, match="'TOKB1' is not the supported 'TOKB3'"):
        read_header_file(str(path))


def test_tokb2_block_raises_format_error(tmp_path):
    """A TOKB2 block (no ``fdec`` codec) is refused on its magic by every
    header path, the file decode included, before any codec name is read."""
    from tokcodec.blocks import MAGIC, decode_file, read_header_file

    blob = encode_table(pa.table({"p": np.round(np.linspace(1, 900, 500), 2)}))
    assert read_header(blob)["columns"][0]["enc"]["k"]["data"]["c"] == "fdec"
    old = b"TOKB2\x00" + blob[len(MAGIC):]
    path = tmp_path / "old.tokb"
    path.write_bytes(old)
    for read in (lambda: read_header(old), lambda: read_header_file(str(path)),
                 lambda: decode_file(str(path)), lambda: decode_file(str(path), ["p"])):
        with pytest.raises(ValueError, match="'TOKB2' is not the supported 'TOKB3'"):
            read()


def _with_codec(blob: bytes, column: str, name: str) -> bytes:
    """``blob`` with the codec name of ``column``'s data node set to
    ``name`` (header re-serialized, payloads as they were)."""
    import json

    from tokcodec.blocks import MAGIC

    header = read_header(blob)
    hlen = int.from_bytes(blob[len(MAGIC):len(MAGIC) + 8], "little")
    for c in header["columns"]:
        if c["name"] == column:
            c["enc"]["k"]["data"]["c"] = name
    hb = json.dumps(header, separators=(",", ":")).encode()
    return MAGIC + len(hb).to_bytes(8, "little") + hb + blob[len(MAGIC) + 8 + hlen:]


@pytest.mark.parametrize("column", ["i", "f", "s"])
def test_unknown_codec_name_raises_value_error(column):
    """An int, float or bytes column whose header names a codec this
    reader does not have fails with a typed error naming it: not a
    KeyError, and never a decode by another codec."""
    t = pa.table({"i": np.arange(100), "f": np.linspace(0, 1, 100),
                  "s": [f"v{i % 7}" for i in range(100)]})
    blob = encode_table(t)
    assert decode_table(_with_codec(blob, column, read_header(blob)["columns"][
        t.column_names.index(column)]["enc"]["k"]["data"]["c"]))[0].equals(t)
    bad = _with_codec(blob, column, "zzz")
    with pytest.raises(ValueError, match="unknown codec 'zzz'"):
        decode_table(bad)
    others = [c for c in t.column_names if c != column]
    assert decode_table(bad, columns=others)[0].equals(t.select(others))


def test_codec_summary_renders_every_column_kind():
    """codec_summary nests child codecs for codec nodes and for list,
    dictionary-encoded and fixed-size-list columns, lists struct
    children positionally and leaves validity out."""
    from tokcodec.blocks import codec_summary

    t = pa.table({
        "s": pa.array([{"a": 1, "b": "x"}] * 3),
        "l": pa.array([[1.5], None, [2.0]]),
        "d": pa.array(["a", "b", "a"]).dictionary_encode(),
        "f": pa.array([[1, 2], [3, 4], [5, 6]], pa.list_(pa.int8(), 2)),
        "n": pa.nulls(3),
    })
    assert codec_summary(read_header(encode_table(t))) == {
        "s": "struct(for,dbytes(codes=bp,uvals=pbytes(len=for)))",
        "l": "list(len=bp,values=fplain)",
        "d": "dictenc(idx=bp,dict=pbytes(len=for))",
        "f": "fsl(values=delta(z=for))",
        "n": "null",
    }


def _strip_validity(a: pa.Array) -> pa.Array:
    """``a`` with every slot valid: the values stored under its nulls show."""
    children = [a.values] if pa.types.is_list(a.type) else None
    return pa.Array.from_buffers(a.type, len(a), [None] + a.buffers()[1:a.type.num_buffers],
                                 children=children)


def _nulls_over(typ, good: pa.Array, rng) -> pa.Array:
    """``good``'s buffers under a validity bitmap with ~20% nulls (the
    first slot among them), so the null slots keep real values."""
    valid = rng.random(len(good)) > 0.2
    valid[0] = False
    bitmap = pa.py_buffer(np.packbits(valid, bitorder="little"))
    children = [good.values] if pa.types.is_list(typ) else None
    return pa.Array.from_buffers(typ, len(good), [bitmap] + good.buffers()[1:typ.num_buffers],
                                 null_count=int((~valid).sum()), children=children)


def _null_slot_column(kind: str, rng) -> tuple[pa.Array, pa.Array]:
    """A column with nulls over non-empty values, and what encode stores
    for it: raw float values and list slots as they are, bool and bytes
    null slots filled with false and the empty string."""
    n = 600
    if kind in ("float32", "float64"):
        vals = rng.standard_normal(n).astype(kind)
        vals[::7] = np.nan
        arr = _nulls_over(pa.from_numpy_dtype(vals.dtype), pa.array(vals), rng)
        return arr, arr
    if kind == "bool":
        arr = _nulls_over(pa.bool_(), pa.array(rng.random(n) < 0.7), rng)
        return arr, pa.compute.fill_null(arr, False)
    if kind in ("string", "binary"):
        typ = pa.string() if kind == "string" else pa.binary()
        arr = _nulls_over(typ, pa.array([f"v{i % 37}" for i in range(n)], typ), rng)
        return arr, pa.compute.fill_null(arr, "" if kind == "string" else b"")
    typ = pa.list_(pa.int32())
    arr = _nulls_over(typ, pa.array([list(range(i % 5)) for i in range(n)], typ), rng)
    return arr, arr


@pytest.mark.parametrize("kind", ["float32", "float64", "bool", "string", "binary", "list"])
def test_null_slots_decode_what_encode_stored(kind):
    """Every kind with a validity bitmap decodes to its stored validity over
    the data encode stored, values under null slots included."""
    arr, stored = _null_slot_column(kind, np.random.default_rng(4))
    back, _ = decode_table(encode_table(pa.table({"c": arr})))
    out = back.column("c").combine_chunks()
    assert out.type == arr.type and out.null_count == arr.null_count
    assert pa.compute.is_valid(out).equals(pa.compute.is_valid(arr))
    got, want = _strip_validity(out), _strip_validity(stored)
    if kind.startswith("float"):
        w = np.dtype(kind).itemsize
        assert got.to_numpy().view(f"u{w}").tolist() == want.to_numpy().view(f"u{w}").tolist()
    else:
        assert got.to_pylist() == want.to_pylist()
    if kind == "list":  # a null slot over a non-empty list keeps its values
        assert any(v and not ok for v, ok in zip(got.to_pylist(), pa.compute.is_valid(arr).to_pylist()))


def test_sliced_columns_encode_as_their_copies():
    """A table slice's single chunks are encoded where they lie, offsets
    and all, to the block of a table built from offset-0 copies of them:
    nullable ints and floats, bools, strings, lists, structs, fixed-size
    lists and dictionaries at an odd row offset."""
    rng = np.random.default_rng(9)
    n = 3001
    valid = rng.random(n) > 0.1
    t = pa.table({
        "i": pa.array(rng.integers(-50, 50, n), mask=~valid),
        "f": pa.array(np.round(rng.random(n) * 100, 2), mask=valid),
        "b": pa.array(rng.random(n) > 0.5),
        "s": pa.array([f"k{v}" for v in rng.integers(0, 40, n)]),
        "l": pa.array([list(range(v)) for v in rng.integers(0, 6, n)], pa.list_(pa.int32())),
        "st": pa.array([{"a": int(v), "b": str(v)} for v in rng.integers(0, 9, n)]),
        "fsl": pa.FixedSizeListArray.from_arrays(pa.array(rng.random(2 * n).astype(np.float32)), 2),
        "d": pa.array([f"c{v}" for v in rng.integers(0, 5, n)]).dictionary_encode(),
    }).slice(117, 2500)
    copies = pa.table({name: t.column(name).combine_chunks() for name in t.column_names})
    assert all(t.column(name).chunk(0).offset == 117 for name in t.column_names)
    assert all(copies.column(name).chunk(0).offset == 0 for name in t.column_names)
    blob = encode_table(t)
    assert blob == encode_table(copies)
    _assert_tables_equal(decode_table(blob)[0], copies)
