"""Block + manifest writes and the plan manifest for resumable runs
(north rule: "checkpoint-resumable ... per-partition lineage + metrics";
design in SURVEY.md §4 'Checkpoint / resume').

Every TOKB block is written by `write_block` (planned encode, the
streaming sink, compaction and sidecars); perfbench's replay writes
through `write_partition`, a wrapper over the same write step.  Layout
under an output dir:

    plan.json                      # planned encode: specs + config fingerprint
    <stem>.tokb                    # encoded block (atomic tmp+rename)
    <stem>.manifest.json           # the block's manifest

One manifest schema for every block:

    block, block_bytes, checksum   # file name, its size and its sha256
    codecs                         # codec tree per column (codec_summary)
    metrics: rows, bytes_in, bytes_out, encode_s, zstd_s, write_s

`bytes_in` is the decoded table's Arrow bytes (the read path's block
weight), `bytes_out` equals `block_bytes`, `zstd_s` is the container's
compress pass inside `encode_s`, `write_s` the block's fsync'd write
plus its sha256.  Each writer adds its extras:

    planned    pid, fingerprint, lineage; metrics.pid, n_tok, read_s,
               read_group, resumed
    compaction bucket, members, member_idents, config; metrics.n_tok
               only when every member carried a token count
    sidecar    base, base_bytes, base_checksum, base_rows
    sink       none

A planned partition is complete iff its manifest exists, carries the
current plan fingerprint, and its block file exists with the recorded
size.  Resume = skip complete partitions; everything is a pure function
of (input files, config) so a rerun reproduces identical partitioning.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any

import pyarrow as pa

from tokcodec.blocks import codec_summary, encode_table, read_header


def fingerprint(obj: Any) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def atomic_write_bytes(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def atomic_write_json(path: str, obj: Any) -> None:
    atomic_write_bytes(path, json.dumps(obj, indent=1, sort_keys=True).encode())


def part_stem(pid: int) -> str:
    """File stem of planned partition `pid`'s block and manifest."""
    return f"part-{pid:05d}"


def manifest_path(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, part_stem(pid) + ".manifest.json")


def _write(out_dir: str, stem: str, blob: bytes, codecs: dict, metrics: dict,
           extra: dict) -> dict:
    """Write the block file, then its manifest (both atomic and fsync'd).
    The manifest's metrics are `metrics` plus ``write_s``: the seconds of
    the block write and its sha256 (the manifest's own write cannot be in
    the manifest)."""
    t0 = time.monotonic()
    name = stem + ".tokb"
    atomic_write_bytes(os.path.join(out_dir, name), blob)
    man = {
        **extra,
        "block": name,
        "block_bytes": len(blob),
        "checksum": hashlib.sha256(blob).hexdigest(),
        # which codec won per column (SURVEY.md §7 step 3's
        # choice-recording requirement)
        "codecs": codecs,
        "metrics": dict(metrics, write_s=round(time.monotonic() - t0, 4)),
    }
    atomic_write_json(os.path.join(out_dir, stem + ".manifest.json"), man)
    return man


def write_block(
    out_dir: str,
    stem: str,
    table: pa.Table,
    meta: dict,
    *,
    zstd: bool,
    bloom_cols: list[str] | None = None,
    metrics: dict | None = None,
    **extra,
) -> dict:
    """Encode `table` (block meta `meta`) into ``<stem>.tokb`` under
    `out_dir` and write its manifest; returns the manifest.  `metrics`
    adds the writer's own metrics to the common ones, `extra` its
    top-level keys (see the module docstring)."""
    t0 = time.monotonic()
    timings: dict = {}
    blob = encode_table(table, meta=meta, zstd=zstd, bloom_cols=bloom_cols,
                        timings=timings)
    metrics = {
        "rows": table.num_rows,
        "bytes_in": int(table.nbytes),
        "bytes_out": len(blob),
        "encode_s": round(time.monotonic() - t0, 4),
        "zstd_s": round(timings["zstd_s"], 4),
        **(metrics or {}),
    }
    return _write(out_dir, stem, blob, codec_summary(read_header(blob)), metrics, extra)


def write_partition(
    out_dir: str,
    pid: int,
    blob: bytes,
    lineage: dict,
    metrics: dict,
    fp: str,
    codecs: dict | None = None,
) -> dict:
    """Write an already-encoded planned partition: `blob` with `metrics`
    as given (plus ``write_s``)."""
    return _write(out_dir, part_stem(pid), blob, codecs or {}, metrics,
                  {"pid": pid, "fingerprint": fp, "lineage": lineage})


def load_manifest(out_dir: str, pid: int) -> dict | None:
    # OSError (not just FileNotFoundError) → None: an unreadable manifest
    # (EIO, permissions, a directory squatting on the name) means
    # "re-encode this partition", not "kill the whole resume run" —
    # purge_stale treats the identical read the same way
    try:
        with open(manifest_path(out_dir, pid)) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def has_schema(man: dict) -> bool:
    """Whether `man` carries the one manifest schema's common keys."""
    return "block" in man and "block_bytes" in man and isinstance(man.get("metrics"), dict)


def load_if_complete(out_dir: str, pid: int, fp: str) -> dict | None:
    """Single-read resume check: return the manifest when the partition
    is complete under ``fp``, else None.  One open+parse per partition:
    the resume hot path is 100k+ partitions of small-file round trips.
    A manifest without the one schema counts as not-complete, so its
    partition is re-encoded (a reader would refuse it)."""
    man = load_manifest(out_dir, pid)
    if man is None or man.get("fingerprint") != fp or not has_schema(man):
        return None
    try:
        if os.path.getsize(os.path.join(out_dir, man["block"])) != man["block_bytes"]:
            return None
    except OSError:
        return None
    return man


def claim_out_dir(out_dir: str, suffix: str) -> None:
    """Ready `out_dir` for a streaming sink's write: refuse a dir that
    already holds `suffix` files and clear an earlier run's _SUCCESS /
    _FAILED marker.  Sink file names key on executor task ids (stable
    only per execution), so a write over a used dir would leave the
    earlier run's extra files in place and a reader would take both
    with no error."""
    os.makedirs(out_dir, exist_ok=True)
    stale = [f for f in os.listdir(out_dir) if f.endswith(suffix)]
    if stale:
        raise ValueError(
            f"{out_dir} already holds {len(stale)} {suffix} file(s) "
            f"(e.g. {stale[0]}); write into a fresh directory"
        )
    for marker in ("_SUCCESS", "_FAILED"):
        path = os.path.join(out_dir, marker)
        if os.path.exists(path):
            os.remove(path)


def list_manifests(out_dir: str) -> list[dict]:
    out = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".manifest.json"):
            with open(os.path.join(out_dir, name)) as f:
                man = json.load(f)
            if not has_schema(man):
                raise ValueError(
                    f"{os.path.join(out_dir, name)} predates the one manifest "
                    "schema (no block/block_bytes/metrics); rewrite this dir"
                )
            out.append(man)
    return out


def purge_stale(out_dir: str, fp: str) -> int:
    """Remove manifest+block pairs whose plan fingerprint differs from
    `fp` — leftovers of an earlier run with a DIFFERENT plan (other
    target_tokens, changed inputs) over the same out_dir.  Without the
    purge those surplus blocks survive the new run and decode_dataset
    would concatenate rows from both plans (measured: 3000-row input
    decoded to 5338 rows after re-encoding with a larger target).
    Unreadable (half-written) manifests are removed too.  Returns the
    number of partitions purged.  Concurrent encodes of different plans
    into one out_dir were never supported; with the purge the outcome
    is last-writer-wins instead of silent row duplication.  Orphans are
    swept too: ``*.tmp`` leftovers of crashed atomic writes, and
    ``part-*.tokb`` blocks with no surviving same-plan manifest (a crash
    between the block write and the manifest write) — without this a
    100 TB out_dir leaks disk forever."""
    n = 0
    names = sorted(os.listdir(out_dir))
    kept_blocks: set[str] = set()
    for name in names:
        if not name.endswith(".manifest.json"):
            continue
        path = os.path.join(out_dir, name)
        try:
            with open(path) as f:
                man = json.load(f)
        except (json.JSONDecodeError, OSError):
            man = None
        if man is not None and man.get("fingerprint") == fp:
            if man.get("block"):
                kept_blocks.add(man["block"])
            continue
        if man is not None and man.get("block"):
            try:
                os.remove(os.path.join(out_dir, man["block"]))
            except FileNotFoundError:
                pass
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        n += 1
    for name in names:
        orphan = name.endswith(".tmp") or (
            name.endswith(".tokb") and name not in kept_blocks
        )
        if orphan:
            try:
                os.remove(os.path.join(out_dir, name))
            except FileNotFoundError:
                pass
    return n
