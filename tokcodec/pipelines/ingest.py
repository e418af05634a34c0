"""Document ingestion: raw text corpora → tokenized TOKB blocks.

The reference repo's value proposition is reading/writing many record
formats through one schema layer (parquet-avro / parquet-types /
parquet-tensorflow modules); this is the Ray-Data analog for the text
corpus formats an LLM-data pipeline actually receives: JSONL, CSV,
parquet document tables, and one-document-per-file directories, all
funneled into the north-rule tokenized schema (doc_id, tokens, n_tok,
source) and encoded as TOKB blocks.

One streaming pass, no shuffle: read → tokenize (vectorized
`functions.text.tokenize`, no per-row Python) → `TokbDatasink`.  Each
format maps to the matching `ray.data.read_*` reader so column pruning
and block-parallel reads come from Ray's native datasources.  At 100 TB
the pipeline is read-bound; blocks stream through the object store with
backpressure and the sink writes each encoded block + manifest
atomically.
"""

from __future__ import annotations

import pyarrow as pa


_FORMATS = ("jsonl", "csv", "parquet", "files")


def _reader(fmt: str):
    import ray.data

    return {
        "jsonl": ray.data.read_json,
        "csv": ray.data.read_csv,
        "parquet": ray.data.read_parquet,
    }[fmt]


def _read_doc_files(input_paths):
    """fmt="files": one document per FILE (the rawest corpus layout —
    a directory of .txt shards).  `read_binary_files(include_paths=True)`
    gives block-parallel reads with per-row provenance; doc_id is the
    file's path RELATIVE to the common root of ``input_paths`` —
    unique by construction (two files can't share a relative path) and
    stable across corpus relocation, unlike a bare basename (which
    silently collides across subdirectories or multiple input dirs —
    doc_id is the dedup/lineage key downstream) or an absolute path
    (which changes with the mount point).  For remote URIs
    (``s3://...``) the reader-reported path is used verbatim (os.path
    relpath would mangle the scheme).  Text is utf-8 with
    errors="replace" (a corrupt byte must not kill a 100 TB run —
    per-ROW Python here is per-FILE, the same cost shape as the
    multimodal payload stages)."""
    import os

    import pyarrow as pa
    import ray.data

    paths_list = [input_paths] if isinstance(input_paths, str) else list(input_paths)
    remote = ["://" in str(p) for p in paths_list]
    if any(remote) and not all(remote):
        # silently falling back to verbatim ids would give the LOCAL
        # files mount-point-dependent absolute ids — the instability
        # the relative scheme exists to avoid
        raise ValueError(
            "fmt='files' cannot mix local and remote input paths in one "
            "call (doc_id derivation differs); ingest them separately"
        )
    if any(remote):
        # remote storage (s3://, gs://, ...): os.path abspath/relpath
        # would mangle the scheme, so use the reader-reported path
        # verbatim — unique and stable within the bucket
        root = None
    else:
        root = os.path.commonpath([os.path.abspath(p) for p in paths_list])
        if os.path.isfile(root):
            root = os.path.dirname(root)
    ds = ray.data.read_binary_files(input_paths, include_paths=True)

    def to_docs(batch: pa.Table) -> pa.Table:
        paths = batch.column("path").to_pylist()
        payloads = batch.column("bytes").to_pylist()
        if root is None:
            ids = [str(p) for p in paths]
        else:
            ids = [os.path.relpath(os.path.abspath(p), root) for p in paths]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.string()),
                "text": pa.array(
                    [b.decode("utf-8", errors="replace") for b in payloads],
                    pa.string(),
                ),
            }
        )

    return ds.map_batches(to_docs, batch_format="pyarrow")


def ingest_documents(
    input_paths,
    out_dir: str,
    fmt: str = "jsonl",
    text_col: str = "text",
    id_col: str = "doc_id",
    source_col: str = "source",
    zstd: bool = True,
    batch_size: int | None = None,
):
    """Read a document corpus (`fmt` in jsonl/csv/parquet), tokenize it
    with the deterministic hash-vocabulary tokenizer, and write TOKB
    blocks to `out_dir`.  Returns the sink's _SUCCESS summary
    ({"blocks", "rows", "bytes_out"}) — the pipeline executes exactly
    once (a Dataset.count() here would re-run the whole read+tokenize).

    Documents missing `source_col` get source="unknown"; `id_col` must
    exist (ids are the dedup/lineage key downstream — refuse to invent
    them silently).  Exception: `fmt="files"` reads one document per
    FILE and derives doc_id from the file's path relative to the
    common input root (explicit, deterministic, collision-free
    provenance — not an invented id), text from its utf-8 bytes;
    `text_col`/`id_col` overrides don't apply there.
    """
    from tokcodec.functions.text import tokenize
    from tokcodec.sources.sink import TokbDatasink

    if fmt not in _FORMATS:
        raise ValueError(f"fmt must be one of {_FORMATS}, got {fmt!r}")
    if fmt == "files":
        ds = _read_doc_files(input_paths)
        id_col, text_col = "doc_id", "text"
    else:
        ds = _reader(fmt)(input_paths)
        names = ds.schema().names
        for col in (id_col, text_col):
            if col not in names:
                raise ValueError(
                    f"input is missing required column {col!r} (has {names})"
                )

    def _tok(batch: pa.Table) -> pa.Table:
        # csv/json readers may surface ids as ints — the north-rule
        # schema wants doc_id:string
        if not pa.types.is_string(batch.schema.field(id_col).type):
            idx = batch.column_names.index(id_col)
            batch = batch.set_column(
                idx, id_col, batch.column(id_col).cast(pa.string())
            )
        return tokenize(batch, text_col=text_col, id_col=id_col, source_col=source_col)

    kw = {"batch_format": "pyarrow"}
    if batch_size is not None:
        kw["batch_size"] = batch_size
    tokenized = ds.map_batches(_tok, **kw)
    tokenized.write_datasink(TokbDatasink(out_dir, zstd=zstd))
    import json
    import os

    with open(os.path.join(out_dir, "_SUCCESS")) as f:
        return json.load(f)
