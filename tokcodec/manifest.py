"""Per-partition lineage/metrics manifests + plan manifest for resumable
runs (north rule: "checkpoint-resumable ... per-partition lineage +
metrics"; design in SURVEY.md §4 'Checkpoint / resume').

Layout under an output dir:

    plan.json                      # partition specs + config fingerprint
    part-00042.tokb                # encoded block (atomic tmp+rename)
    part-00042.manifest.json       # lineage, metrics, checksum

A partition is complete iff its manifest exists, carries the current
plan fingerprint, and its block file exists with the recorded size.
Resume = skip complete partitions; everything is a pure function of
(input files, config) so a rerun reproduces identical partitioning.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any


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


def block_path(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, f"part-{pid:05d}.tokb")


def manifest_path(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, f"part-{pid:05d}.manifest.json")


def write_partition(
    out_dir: str,
    pid: int,
    blob: bytes,
    lineage: dict,
    metrics: dict,
    fp: str,
    codecs: dict | None = None,
) -> dict:
    """Write the block file, then its manifest (both atomic and fsync'd).
    The manifest's metrics are ``metrics`` plus ``write_s``: the seconds of
    the block write and its sha256 (the manifest's own write cannot be in
    the manifest)."""
    t0 = time.monotonic()
    bp = block_path(out_dir, pid)
    atomic_write_bytes(bp, blob)
    checksum = hashlib.sha256(blob).hexdigest()
    man = {
        "pid": pid,
        "fingerprint": fp,
        "block": os.path.basename(bp),
        "block_bytes": len(blob),
        "checksum": checksum,
        "lineage": lineage,
        "metrics": dict(metrics, write_s=round(time.monotonic() - t0, 4)),
        # which codec won per column (SURVEY.md §7 step 3's
        # choice-recording requirement)
        "codecs": codecs or {},
    }
    atomic_write_json(manifest_path(out_dir, pid), man)
    return man


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


def load_if_complete(
    out_dir: str, pid: int, fp: str, verify_checksum: bool = False
) -> dict | None:
    """Single-read resume check: return the manifest when the partition
    is verifiably complete under ``fp``, else None.  Callers that need
    the manifest use this instead of is_complete + load_manifest (one
    open+parse, not two — the resume hot path is 100k+ partitions of
    small-file round trips).  Manifests missing expected keys (older /
    foreign layouts) count as not-complete — re-encode, never KeyError
    the run."""
    man = load_manifest(out_dir, pid)
    if man is None or man.get("fingerprint") != fp:
        return None
    block, size = man.get("block"), man.get("block_bytes")
    if block is None or size is None:
        return None
    bp = os.path.join(out_dir, block)
    try:
        if os.path.getsize(bp) != size:
            return None
    except OSError:
        return None
    if verify_checksum:
        with open(bp, "rb") as f:
            if hashlib.sha256(f.read()).hexdigest() != man.get("checksum"):
                return None
    return man


def is_complete(out_dir: str, pid: int, fp: str, verify_checksum: bool = False) -> bool:
    return load_if_complete(out_dir, pid, fp, verify_checksum) is not None


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
                out.append(json.load(f))
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
