"""Sequence packing: concatenate tokenized documents in deterministic
global order and slice into fixed-length training rows (the standard
"concat-and-chunk" LLM pretraining layout).

Global semantics: lay every document's tokens end-to-end in input order
(file order, then row order — for doc_id-sorted inputs that is doc_id
order, which is what the SQL oracle checks) and cut at every multiple
of ``seq_len``.  Chunk ``c`` owns global token span
``[c*L, (c+1)*L)``; the last chunk may be short.  Documents are never
reordered or dropped, and a document may span chunk boundaries.

Scale design (mirrors ``encode_dataset``): a token-mass-balanced
partition plan (``plan_partitions`` — the same ~0.1% stats pass) gives
each partition its GLOBAL base token offset, so every partition packs
its complete chunks independently and in parallel — zero shuffle for
the interior, and the chunk construction is O(1) Arrow work (one
contiguous value slice + arange offsets), not per-chunk Python.
Adjacent partitions cut from the same row-group span are packed by one
task from one read, as in ``encode_dataset``.  Only
the ≤2 ragged edges of each partition (spans that don't cover a whole
chunk) become "fragment" rows; they are written to a tiny side dir
during the pass, then stitched on the driver from O(partitions) rows.
Output is partitioned parquet (one file per partition + one stitched
file), so a failed run resumes by skipping finished partitions.

No reference-repo counterpart: this is one of the training-data extras
the round brief asks for beyond parquet-extra's operator surface.
"""

from __future__ import annotations

import io
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from tokcodec import manifest as mf
from tokcodec.pipelines.encode import _read_groups, _read_slices, plan_partitions

DEFAULT_SEQ_LEN = 2048


def _doc_meta(
    doc_starts: np.ndarray,
    doc_ends: np.ndarray,
    keys: pa.Array,
    los: np.ndarray,
    his: np.ndarray,
):
    """Vectorized per-chunk doc metadata: for chunk spans [los, his) in
    global token coordinates, the count of (nonempty) docs overlapping
    each span plus first/last doc ids.  Any span with >= 1 token
    overlaps >= 1 doc, so first/last are always defined."""
    i0 = np.searchsorted(doc_ends, los, side="right")
    i1 = np.searchsorted(doc_starts, his, side="left")
    n_docs = (i1 - i0).astype(np.int64)
    first = keys.take(pa.array(i0, pa.int64()))
    last = keys.take(pa.array(i1 - 1, pa.int64()))
    return n_docs, first, last


def _chunk_table(
    chunk_ids: np.ndarray,
    tokens: pa.ListArray,
    n_docs: np.ndarray,
    first: pa.Array,
    last: pa.Array,
    frag_start: np.ndarray | None = None,
) -> pa.Table:
    n_tok = np.diff(np.asarray(tokens.offsets, dtype=np.int64))
    cols = {
        "chunk_id": pa.array(chunk_ids, pa.int64()),
        "tokens": tokens,
        "n_tok": pa.array(n_tok, pa.int64()),
        "n_docs": pa.array(n_docs, pa.int64()),
        "first_doc": first,
        "last_doc": last,
    }
    if frag_start is not None:
        cols["frag_start"] = pa.array(frag_start, pa.int64())
    return pa.table(cols)


def _list_slice(flat: np.ndarray, bounds: np.ndarray) -> pa.ListArray:
    """list<int32> array whose row i is flat[bounds[i]:bounds[i+1]] —
    built from ONE values buffer, no per-row splitting."""
    span = int(bounds[-1] - bounds[0])
    if span >= 2**31:  # list<int32> offsets are int32 — wrap = corruption
        raise ValueError(
            f"partition holds {span} tokens, over the 2^31 int32-offset "
            "limit; lower target_tokens"
        )
    vals = flat[bounds[0] : bounds[-1]]
    offs = (bounds - bounds[0]).astype(np.int32)
    return pa.ListArray.from_arrays(pa.array(offs), pa.array(vals, type=pa.int32()))


def _part_paths(out_dir: str, pid: int) -> tuple[str, str, str]:
    """Partition `pid`'s chunk file, fragment file and state marker."""
    return (
        os.path.join(out_dir, "chunks", f"part-{pid:05d}.parquet"),
        os.path.join(out_dir, "fragments", f"part-{pid:05d}.parquet"),
        os.path.join(out_dir, "state", f"part-{pid:05d}.json"),
    )


def _pack_resumed(pid: int, out_dir: str, fp: str) -> dict | None:
    """The metrics of partition `pid` when its outputs and its
    fingerprint-stamped marker under ``out_dir/state`` are complete."""
    part_path, frag_path, done = _part_paths(out_dir, pid)
    if not os.path.exists(done):
        return None
    with open(done) as f:
        man = json.load(f)
    if man.get("fp") == fp and os.path.exists(part_path) and os.path.exists(frag_path):
        m = dict(man["metrics"])
        m["resumed"] = True
        return m
    return None


def _pack_group(
    specs: list[dict], seq_len: int, out_dir: str, fp: str, key_col: str, tokens_col: str
) -> list[dict]:
    """Pack a group of adjacent partitions that overlap the same
    row-group span: skip the complete ones, read the union row range of
    the rest once, then pack each from its slice.  Returns one metrics
    dict per spec, in spec order."""
    done: dict[int, dict] = {}
    todo = []
    for spec in specs:
        m = _pack_resumed(int(spec["pid"]), out_dir, fp)
        if m is None:
            todo.append(spec)
        else:
            done[int(spec["pid"])] = m
    if todo:
        tables, t_read = _read_slices(todo, [key_col, tokens_col])
        for spec, table in zip(todo, tables):
            done[int(spec["pid"])] = _pack_partition(
                spec, table, t_read, len(todo), seq_len, out_dir, fp, key_col, tokens_col
            )
    return [done[int(spec["pid"])] for spec in specs]


def _pack_partition(
    spec: dict,
    table: pa.Table,
    t_read: float,
    read_group: int,
    seq_len: int,
    out_dir: str,
    fp: str,
    key_col: str,
    tokens_col: str,
) -> dict:
    """Pack one partition's rows `table`, whose first token sits at
    global offset ``spec["base"]``: complete chunks to
    ``out_dir/chunks/part-{pid}.parquet``, ragged edges to
    ``out_dir/fragments/part-{pid}.parquet`` (both atomic), then the
    fingerprint-stamped marker under ``out_dir/state``; returns
    metrics."""
    pid = int(spec["pid"])
    base = int(spec["base"])
    part_path, frag_path, done = _part_paths(out_dir, pid)
    t0 = time.monotonic()
    tok_col = table.column(tokens_col).combine_chunks()
    if isinstance(tok_col, pa.ChunkedArray):  # pragma: no cover - 1 chunk
        tok_col = tok_col.chunk(0)
    flat = np.asarray(tok_col.values, dtype=np.int32)
    lens = np.diff(np.asarray(tok_col.offsets, dtype=np.int64))
    mass = int(lens.sum())
    if mass != int(spec["n_tok"]):
        # the plan's per-partition mass (summed from the token-count
        # column) sets every later partition's global base offset — a
        # stale n_tok column would silently shift chunk boundaries
        raise ValueError(
            f"partition {pid}: token-count column says {spec['n_tok']} "
            f"tokens but the tokens lists hold {mass}; the n_tok column "
            "is stale relative to tokens — regenerate it before packing"
        )
    if mass >= 2**31:
        raise ValueError(
            f"partition {pid} holds {mass} tokens, over the 2^31 "
            "int32-offset limit; lower target_tokens"
        )
    ends_local = np.cumsum(lens, dtype=np.int64)
    nz = lens > 0
    doc_starts = (ends_local - lens)[nz] + base
    doc_ends = ends_local[nz] + base
    keys = table.column(key_col).combine_chunks()
    if isinstance(keys, pa.ChunkedArray):  # pragma: no cover - 1 chunk
        keys = keys.chunk(0)
    keys = keys.filter(pa.array(nz))
    key_type = keys.type

    E = base + mass
    first_b = -(-base // seq_len) * seq_len  # first chunk boundary >= base
    last_b = (E // seq_len) * seq_len  # last boundary <= E
    n_complete = max(0, (last_b - first_b) // seq_len)

    if n_complete > 0:
        bounds = first_b - base + np.arange(n_complete + 1, dtype=np.int64) * seq_len
        los = first_b + np.arange(n_complete, dtype=np.int64) * seq_len
        n_docs, first, last = _doc_meta(doc_starts, doc_ends, keys, los, los + seq_len)
        complete = _chunk_table(los // seq_len, _list_slice(flat, bounds), n_docs, first, last)
        edges = [(base, first_b), (last_b, E)]
    else:
        complete = _empty_chunks(key_type)
        b = first_b if base < first_b <= E else None
        edges = [(base, b), (b, E)] if b is not None else [(base, E)]

    edges = [(lo, hi) for lo, hi in edges if hi > lo]
    if edges:
        elo = np.array([lo for lo, _ in edges], dtype=np.int64)
        ehi = np.array([hi for _, hi in edges], dtype=np.int64)
        ebounds = np.concatenate([elo - base, [ehi[-1] - base]])
        # edge spans are adjacent-or-disjoint; build each fragment's
        # tokens from its own slice (spans may be non-contiguous only
        # when complete chunks sit between them — handle per edge)
        frag_toks = []
        for lo, hi in edges:
            frag_toks.append(flat[lo - base : hi - base])
        offs = np.concatenate(([0], np.cumsum([len(x) for x in frag_toks]))).astype(np.int32)
        tok_arr = pa.ListArray.from_arrays(
            pa.array(offs),
            pa.array(
                np.concatenate(frag_toks) if frag_toks else np.empty(0, np.int32),
                type=pa.int32(),
            ),
        )
        n_docs, first, last = _doc_meta(doc_starts, doc_ends, keys, elo, ehi)
        frags = _chunk_table(elo // seq_len, tok_arr, n_docs, first, last, frag_start=elo)
    else:
        frags = _empty_chunks(key_type, frag=True)

    os.makedirs(os.path.join(out_dir, "chunks"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "fragments"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "state"), exist_ok=True)
    for path, tbl in ((part_path, complete), (frag_path, frags)):
        _write_parquet(path, tbl)
    metrics = {
        "pid": pid,
        "rows": table.num_rows,
        "n_tok": mass,
        "complete_chunks": int(complete.num_rows),
        "fragments": int(frags.num_rows),
        "read_s": round(t_read, 4),
        "pack_s": round(time.monotonic() - t0, 4),
        "read_group": read_group,
        "resumed": False,
    }
    mf.atomic_write_json(done, {"fp": fp, "metrics": metrics})
    return metrics


def _write_parquet(path: str, table: pa.Table) -> None:
    """Durable write (fsync'd, atomic): the state marker written after a
    partition's files vouches for them after a crash."""
    buf = io.BytesIO()
    pq.write_table(table, buf, compression="zstd")
    mf.atomic_write_bytes(path, buf.getvalue())


def _empty_chunks(key_type: pa.DataType, frag: bool = False) -> pa.Table:
    cols = {
        "chunk_id": pa.array([], pa.int64()),
        "tokens": pa.array([], pa.list_(pa.int32())),
        "n_tok": pa.array([], pa.int64()),
        "n_docs": pa.array([], pa.int64()),
        "first_doc": pa.array([], key_type),
        "last_doc": pa.array([], key_type),
    }
    if frag:
        cols["frag_start"] = pa.array([], pa.int64())
    return pa.table(cols)


def _merge_fragments(frag_dir: str, out_path: str) -> int:
    """Stitch fragment rows (O(partitions) of them — driver-safe) into
    chunks: group by chunk_id, order by global start offset,
    concatenate.  Partition cuts land on row boundaries, so one chunk's
    fragments come from disjoint doc ranges — doc counts add."""
    files = sorted(
        os.path.join(frag_dir, f) for f in os.listdir(frag_dir) if f.endswith(".parquet")
    )
    t = pa.concat_tables([pq.read_table(f) for f in files])
    key_type = t.schema.field("first_doc").type
    rows = sorted(t.to_pylist(), key=lambda r: (r["chunk_id"], r["frag_start"]))
    merged = []
    for r in rows:
        if merged and merged[-1]["chunk_id"] == r["chunk_id"]:
            m = merged[-1]
            m["tokens"] = m["tokens"] + r["tokens"]
            m["n_tok"] += r["n_tok"]
            m["n_docs"] += r["n_docs"]
            m["last_doc"] = r["last_doc"]
        else:
            merged.append(
                {k: r[k] for k in ("chunk_id", "tokens", "n_tok", "n_docs", "first_doc", "last_doc")}
            )
    out = pa.Table.from_pylist(
        merged,
        schema=pa.schema(
            [
                ("chunk_id", pa.int64()),
                ("tokens", pa.list_(pa.int32())),
                ("n_tok", pa.int64()),
                ("n_docs", pa.int64()),
                ("first_doc", key_type),
                ("last_doc", key_type),
            ]
        ),
    )
    _write_parquet(out_path, out)
    return len(merged)


def pack_dataset(
    input_paths: str | list[str],
    out_dir: str,
    seq_len: int = DEFAULT_SEQ_LEN,
    target_tokens: int | None = None,
    key_col: str = "doc_id",
    tokens_col: str = "tokens",
    token_col: str = "n_tok",
) -> dict:
    """Plan → pack every partition in parallel → stitch boundary
    fragments → partitioned parquet under ``out_dir/chunks/``.

    Output schema: (chunk_id int64, tokens list<int32>, n_tok int64,
    n_docs int64, first_doc, last_doc).  Every chunk except the last
    has exactly ``seq_len`` tokens; token order is the exact
    concatenation of the input — loaders consume the result with plain
    ``read_parquet``.
    """
    from tokcodec.sources.datasource import cpu_slots, run_tasks

    if target_tokens is None:
        # partitions >> seq_len keep fragments rare; small enough to
        # still parallelize tiny inputs
        target_tokens = max(seq_len * 64, 4_000_000)
    os.makedirs(out_dir, exist_ok=True)
    # fail fast on a missing token-count column: plan_partitions would
    # silently fall back to row-count mass, desyncing every partition's
    # global base offset from the real token layout
    first = input_paths if isinstance(input_paths, str) else input_paths[0]
    if os.path.isdir(first):
        cands = [n for n in sorted(os.listdir(first)) if n.endswith(".parquet")]
        if not cands:
            raise ValueError(f"no parquet files under {first!r}")
        first = os.path.join(first, cands[0])
    schema_names = set(pq.ParquetFile(first).schema_arrow.names)
    for col in (token_col, key_col, tokens_col):
        if col not in schema_names:
            raise ValueError(
                f"pack_dataset requires column {col!r} in the input "
                f"schema; found {sorted(schema_names)}"
            )
    plan = plan_partitions(input_paths, target_tokens, token_col)
    fp = f'{plan["fingerprint"]}:L={seq_len}'
    mf.atomic_write_json(os.path.join(out_dir, "plan.json"), {**plan, "seq_len": seq_len})

    specs = plan["partitions"]
    purged = _purge_stale_pack(out_dir, fp, len(specs))
    bases = np.concatenate(([0], np.cumsum([s["n_tok"] for s in specs]))).astype(np.int64)
    groups = _read_groups(
        [{**s, "base": int(bases[i])} for i, s in enumerate(specs)], cpu_slots()
    )

    def run(group: list[dict]) -> list[dict]:
        return _pack_group(group, seq_len, out_dir, fp, key_col, tokens_col)

    metrics = run_tasks(groups, run)
    n_stitched = _merge_fragments(
        os.path.join(out_dir, "fragments"),
        os.path.join(out_dir, "chunks", "stitched.parquet"),
    )
    total_tok = int(bases[-1])
    return {
        "out_dir": out_dir,
        "seq_len": seq_len,
        "metrics": metrics,
        "n_chunks": -(-total_tok // seq_len) if total_tok else 0,
        "n_stitched": n_stitched,
        "n_tokens": total_tok,
        "purged": purged,
    }


def _purge_stale_pack(out_dir: str, fp: str, n_specs: int) -> int:
    """Remove chunk/fragment/state files left by an earlier run with a
    DIFFERENT plan over this out_dir (encode_dataset's purge_stale analog
    — without it _merge_fragments globs stale fragments and read_packed
    reads stale chunk files, silently merging two plans' rows).  A file
    survives iff its state marker matches `fp` AND its pid is inside the
    current plan.  ``*.tmp`` leftovers of crashed writes are swept too.
    Returns the number of partitions purged."""
    keep: set[int] = set()
    purged: set[int] = set()
    state_dir = os.path.join(out_dir, "state")
    if os.path.isdir(state_dir):
        for name in sorted(os.listdir(state_dir)):
            if not (name.startswith("part-") and name.endswith(".json")):
                continue
            try:
                pid = int(name[len("part-"):-len(".json")])
            except ValueError:
                continue
            ok = False
            try:
                with open(os.path.join(state_dir, name)) as f:
                    ok = json.load(f).get("fp") == fp
            except (OSError, json.JSONDecodeError):
                ok = False
            if ok and 0 <= pid < n_specs:
                keep.add(pid)
            else:
                purged.add(pid)
                try:
                    os.remove(os.path.join(state_dir, name))
                except FileNotFoundError:
                    pass
    for sub in ("chunks", "fragments"):
        d = os.path.join(out_dir, sub)
        if not os.path.isdir(d):
            continue
        for name in sorted(os.listdir(d)):
            path = os.path.join(d, name)
            if name.endswith(".tmp"):
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
                continue
            if not (name.startswith("part-") and name.endswith(".parquet")):
                continue
            try:
                pid = int(name[len("part-"):-len(".parquet")])
            except ValueError:
                continue
            if pid not in keep:
                purged.add(pid)
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
    return len(purged)


def read_packed(out_dir: str, columns: list[str] | None = None):
    """The packed output as a streaming Dataset."""
    import ray.data

    return ray.data.read_parquet(os.path.join(out_dir, "chunks"), columns=columns)
