"""Ray-native Datasink for TOKB blocks: ``ds.write_datasink(TokbDatasink(dir))``.

The streaming counterpart of the planned `encode_dataset` path — blocks
arrive from the streaming executor with backpressure, each write task
encodes its blocks and writes `part-<task>-<seq>.tokb` + manifest
atomically through `manifest.write_block`, and `on_write_complete`
drops a `_SUCCESS` summary.  Unlike the planned path, partition
identity follows executor task ids (stable only per execution), so
resume semantics are at-least-once per run rather than cross-run; use
`encode_dataset` when cross-run resume matters.  This is the analog of the reference's MR output format
(ExampleParquetOutputFormat.java:7-14) in idiomatic Ray Data.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

import pyarrow as pa
from ray.data import Datasink

from tokcodec import manifest as mf
from tokcodec.sources.datasource import read_blocks


class ClaimedDatasink(Datasink):
    """The lifecycle every tokcodec datasink shares.  `on_write_start`
    claims `out_dir` for files ending in `suffix` (a dir holding another
    write's files is refused); each non-empty block goes to
    `write_table(table, task_idx, seq)`, whose result rows `summary`
    folds into the `_SUCCESS` marker; a failed write leaves `_FAILED`
    in a dir this write claimed."""

    suffix = ""
    name = ""

    def on_write_start(self):
        self._claimed = False
        mf.claim_out_dir(self.out_dir, self.suffix)
        self._claimed = True

    @property
    def supports_distributed_writes(self) -> bool:
        return True

    @property
    def min_rows_per_write(self):
        return None

    def get_name(self) -> str:
        return self.name

    def write(self, blocks: Iterable, ctx) -> list[dict]:
        out = []
        for seq, block in enumerate(blocks):
            t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
            if t.num_rows:
                out.append(self.write_table(t, ctx.task_idx, seq))
        return out

    def write_table(self, t: pa.Table, task_idx: int, seq: int) -> dict:
        raise NotImplementedError

    def summary(self, rows: list[dict]) -> dict:
        raise NotImplementedError

    def on_write_complete(self, write_result) -> None:
        rows = [r for task in write_result.write_returns for r in task]
        mf.atomic_write_json(os.path.join(self.out_dir, "_SUCCESS"), self.summary(rows))

    def on_write_failed(self, error: Exception) -> None:
        # Ray also calls this when on_write_start refused the dir: that
        # dir holds another write's files and gets no marker
        if self._claimed:
            with open(os.path.join(self.out_dir, "_FAILED"), "w") as f:
                f.write(str(error))


class TokbDatasink(ClaimedDatasink):
    """Pass to ``ds.write_datasink(TokbDatasink(dir))``.

    With `schema` (a tokcodec.schema.Schema), every incoming block is
    validated before encoding — the reference writer's schema
    enforcement (ExampleParquetWriter.java:46-52 resolves the schema,
    Schema.java:171-174 checks each record's repetition at write)."""

    suffix = ".tokb"
    name = "TOKB"

    def __init__(self, out_dir: str, zstd: bool = True, schema=None,
                 bloom_cols: list[str] | None = None):
        self.out_dir = out_dir
        self.zstd = zstd
        self.schema = schema
        self.bloom_cols = bloom_cols

    def write_table(self, t: pa.Table, task_idx: int, seq: int) -> dict:
        if self.schema is not None:
            self.schema.validate_table(t)  # fail fast, with field context
        return mf.write_block(
            self.out_dir, f"part-{task_idx:05d}-{seq:03d}", t,
            {"task": task_idx, "seq": seq}, zstd=self.zstd,
            bloom_cols=self.bloom_cols,
        )

    def summary(self, rows: list[dict]) -> dict:
        return {
            "blocks": len(rows),
            "rows": sum(m["metrics"]["rows"] for m in rows),
            "bytes_out": sum(m["block_bytes"] for m in rows),
        }


def read_tokb(out_dir: str, columns: list[str] | None = None, predicate=None):
    """Dataset over a TokbDatasink/encode_dataset output dir, in block
    order.  `predicate` enables zone-map block skipping + residual
    filtering (see decode_dataset).

    Delegates to decode_dataset when the dir carries manifests, so the
    stale-plan / completeness guards apply here too — a raw *.tokb scan
    would silently concatenate leftover blocks from an earlier plan (the
    exact row-duplication case the manifest guard exists for).  Dirs
    without manifests (hand-assembled blocks) read their *.tokb files in
    name order through the same datasource, weighted by file size."""
    if mf.list_manifests(out_dir):
        from tokcodec.pipelines.encode import decode_dataset

        return decode_dataset(out_dir, columns=columns, predicate=predicate)

    paths = sorted(
        os.path.join(out_dir, n) for n in os.listdir(out_dir) if n.endswith(".tokb")
    )
    if not paths:
        raise ValueError(f"no .tokb blocks under {out_dir}")
    items = [((p,), os.path.getsize(p)) for p in paths]
    return read_blocks(items, columns=columns, predicate=predicate)


def _read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "_SUCCESS")) as f:
        return json.load(f)
