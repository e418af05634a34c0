"""Flat token-stream export: TOKB (or any tokenized Dataset) → the
.bin/.idx shard layout a trainer's data loader memory-maps.

Each write task emits ``shard-<task>-<seq>.bin`` — the raw
little-endian int32 token stream of its docs, concatenated — plus a
parquet index ``shard-<task>-<seq>.idx.parquet`` of (doc_id, offset,
n_tok), offset in TOKEN units into the shard.  The layout is
self-describing per shard (shard membership follows executor blocks,
the same at-least-once naming contract as TokbDatasink), every file is
written atomically (temp + rename), and a shard is consumed with
``np.memmap(shard, np.int32)[offset : offset + n_tok]`` — zero parsing
in the training loop.

No reference-repo counterpart: the consumption-side sibling of the
ingest pipeline (raw corpus → TOKB → trainer shards), one of the
training-pipeline extras the round brief asks for beyond
parquet-extra's operator surface.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from tokcodec import manifest as mf
from tokcodec.sources.sink import ClaimedDatasink


class TokenBinDatasink(ClaimedDatasink):
    """Pass to ``ds.write_datasink(TokenBinDatasink(dir))``; the input
    needs (id_col, tokens_col) where tokens is list<int32-compatible>."""

    suffix = ".bin"
    name = "TokenBin"

    def __init__(self, out_dir: str, tokens_col: str = "tokens",
                 id_col: str = "doc_id"):
        self.out_dir = out_dir
        self.tokens_col = tokens_col
        self.id_col = id_col

    def write_table(self, t: pa.Table, task_idx: int, seq: int) -> dict:
        toks = t.column(self.tokens_col).combine_chunks()
        is_list = pa.types.is_list(toks.type) or pa.types.is_large_list(toks.type)
        vt = toks.type.value_type if is_list else None
        if not (
            is_list
            and pa.types.is_integer(vt)
            and (vt.bit_width < 32 or vt == pa.int32())
        ):
            # the shard format is int32 lists; a silent astype from
            # int64 (or uint32 above 2^31) would corrupt token ids
            raise ValueError(
                f"{self.tokens_col} holds {toks.type}; the .bin shard "
                "format is list<int32> — cast upstream if the values fit"
            )
        # ListArray offsets may start past 0 after slicing
        offs = np.asarray(toks.offsets, dtype=np.int64)
        base = offs[0]
        # element nulls are counted INSIDE this block's value window
        # only — a sliced ListArray's child buffer can carry nulls
        # belonging to rows sliced away, which must not reject a
        # clean block
        elem_nulls = toks.values.slice(base, offs[-1] - base).null_count
        if toks.null_count or elem_nulls:
            # a null token array OR a null element inside one has no
            # defined trainer semantics — fail fast instead of
            # silently emitting a 0-length doc (list-level) or an
            # INT32_MIN garbage token (element-level: numpy converts
            # the null through float64 NaN)
            raise ValueError(
                f"{self.tokens_col} holds "
                f"{toks.null_count} null row(s) and "
                f"{elem_nulls} null element(s); "
                "filter or fix upstream before export"
            )
        flat = np.asarray(toks.values, dtype=np.int32)
        name = f"shard-{task_idx:05d}-{seq:03d}"
        mf.atomic_write_bytes(
            os.path.join(self.out_dir, name + ".bin"),
            flat[base : offs[-1]].astype("<i4", copy=False).tobytes(),
        )
        idx = pa.table(
            {
                self.id_col: t.column(self.id_col),
                "offset": pa.array(offs[:-1] - base, pa.int64()),
                "n_tok": pa.array(np.diff(offs).astype(np.int32), pa.int32()),
            }
        )
        buf = io.BytesIO()
        pq.write_table(idx, buf, compression="zstd")
        mf.atomic_write_bytes(
            os.path.join(self.out_dir, name + ".idx.parquet"), buf.getvalue()
        )
        return {
            "shard": name,
            "docs": t.num_rows,
            "tokens": int(offs[-1] - base),
        }

    def summary(self, rows: list[dict]) -> dict:
        return {
            "shards": len(rows),
            "docs": int(sum(s["docs"] for s in rows)),
            "tokens": int(sum(s["tokens"] for s in rows)),
        }


def export_token_bin(tokb_dir: str, out_dir: str) -> dict:
    """Decode a TOKB corpus and export it as trainer shards; returns the
    _SUCCESS summary {"shards", "docs", "tokens"}."""
    from tokcodec.pipelines.encode import decode_dataset

    ds = decode_dataset(tokb_dir, columns=["doc_id", "tokens"])
    ds.write_datasink(TokenBinDatasink(out_dir))
    with open(os.path.join(out_dir, "_SUCCESS")) as f:
        return json.load(f)


def iter_token_bin(out_dir: str):
    """Test/consumer helper: yield (doc_id, np.ndarray int32 tokens) from
    every shard — each shard via one np.memmap, per-doc zero-copy
    slices (the trainer-loop access pattern)."""
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".bin"):
            continue
        path = os.path.join(out_dir, name)
        if os.path.getsize(path) == 0:
            # a shard whose docs all have zero tokens: np.memmap refuses
            # an empty file, but the idx rows are still real docs
            stream = np.empty(0, dtype="<i4")
        else:
            stream = np.memmap(path, dtype="<i4", mode="r")
        idx = pq.read_table(
            os.path.join(out_dir, name[: -len(".bin")] + ".idx.parquet")
        )
        ids = idx.column(idx.schema.names[0]).to_pylist()
        offs = idx.column("offset").to_numpy(zero_copy_only=False)
        ntk = idx.column("n_tok").to_numpy(zero_copy_only=False)
        for i, did in enumerate(ids):
            yield did, np.asarray(stream[offs[i] : offs[i] + ntk[i]])
