"""Compaction: merge many small TOKB blocks into target-sized ones.

The small-files problem at 100 TB: streaming sinks (TokbDatasink) emit
one block per executor task, filtered/derived outputs can be tiny, and
tiny blocks make every downstream scan pay per-block overhead (header
reads, task scheduling, manifest stats) out of proportion to payload.
`compact_blocks` re-buckets an encoded dir into ~target_tokens blocks:

- the plan is driver-side and O(blocks): greedy consecutive bucketing
  over manifest masses (`metrics.n_tok` when the manifests carry it,
  `metrics.rows` otherwise) — no data moves to the driver;
- one Ray task per output bucket decodes its member blocks, concats,
  and re-encodes ONCE (per-partition dictionaries/FSST tables rebuild
  over the merged rows — compaction often SHRINKS the corpus);
- resumable: each output manifest records its member blocks' content
  checksums; a bucket whose output already matches is skipped, and a
  changed input invalidates exactly the buckets it feeds;
- zero shuffle, storage→worker→storage exactly once, same as encode.

Blocks keep their manifest order, so compaction preserves row order for
planned dirs (pid order) and sink dirs (task/seq order) alike.
"""

from __future__ import annotations

import os

import pyarrow as pa

from tokcodec import manifest as mf
from tokcodec.blocks import decode_file


def _mass(man: dict) -> tuple[int, bool]:
    """(mass, is_token_mass): the block's token count when its manifest
    has one, its row count otherwise — callers must not label rows as
    tokens."""
    m = man["metrics"]
    if "n_tok" in m:
        return int(m["n_tok"]), True
    return int(m["rows"]), False


def plan_compaction(in_dir: str, target_tokens: int) -> list[dict]:
    """Greedy consecutive bucketing: [{bucket, blocks: [...], idents,
    mass}], each bucket ≈ target mass (a block bigger than target forms
    its own bucket; order preserved)."""
    mans = mf.list_manifests(in_dir)
    if not mans:
        raise ValueError(f"no manifests under {in_dir}")
    buckets: list[dict] = []
    cur: list[dict] = []
    cur_mass = 0
    for man in mans:
        w, _tok = _mass(man)
        if cur and cur_mass + w > target_tokens:
            buckets.append(cur)
            cur, cur_mass = [], 0
        cur.append(man)
        cur_mass += w
    if cur:
        buckets.append(cur)
    return [
        {
            "bucket": i,
            "blocks": [m["block"] for m in bs],
            "idents": [m["checksum"] for m in bs],
            "mass": sum(_mass(m)[0] for m in bs),
            "token_mass": all(_mass(m)[1] for m in bs),
        }
        for i, bs in enumerate(buckets)
    ]


def compact_blocks(
    in_dir: str,
    out_dir: str,
    target_tokens: int = 32_000_000,
    zstd: bool = True,
    bloom_cols: list[str] | None = None,
) -> dict:
    """Compact `in_dir` into `out_dir` (must differ).  Returns
    {"buckets", "resumed", "rows", "bytes_out"}."""
    from tokcodec.sources.datasource import run_tasks

    if os.path.abspath(in_dir) == os.path.abspath(out_dir):
        raise ValueError("compact in place is not supported: pick a new out_dir")
    os.makedirs(out_dir, exist_ok=True)
    plan = plan_compaction(in_dir, target_tokens)
    # resume identity includes the encode config: re-running with
    # different blooms/zstd must rebuild, not silently skip (the same
    # invariant the planned path's fingerprint enforces)
    cfg = {"zstd": bool(zstd), "bloom_cols": sorted(bloom_cols or [])}

    existing = {}
    foreign = []
    for man in mf.list_manifests(out_dir):
        if "members" in man:
            existing[man["bucket"]] = man
        else:
            foreign.append(man["block"])
    if foreign:
        # decode_dataset lists EVERY manifest in a dir — mixing compacted
        # blocks into a dir that already holds sink/planned blocks would
        # silently duplicate each row on decode
        raise ValueError(
            f"{out_dir} holds {len(foreign)} non-compaction block(s) "
            f"(e.g. {foreign[0]}); compact into a fresh directory"
        )

    todo = []
    resumed = 0
    for spec in plan:
        prev = existing.get(spec["bucket"])
        try:
            size_ok = prev is not None and os.path.getsize(
                os.path.join(out_dir, prev["block"])
            ) == prev["block_bytes"]
        except OSError:  # manifest without its block: rebuild
            size_ok = False
        if (
            size_ok
            and prev["members"] == spec["blocks"]
            and prev["member_idents"] == spec["idents"]
            and prev.get("config") == cfg
        ):
            resumed += 1
            continue
        todo.append(spec)

    def _compact(spec: dict) -> list[dict]:
        # cfg is captured by value via cloudpickle with the closure
        tabs = [decode_file(os.path.join(in_dir, b))[0] for b in spec["blocks"]]
        man = mf.write_block(
            out_dir, f"compact-{spec['bucket']:05d}",
            pa.concat_tables(tabs).combine_chunks(),
            {"compacted_from": len(spec["blocks"])}, zstd=zstd, bloom_cols=bloom_cols,
            # only label token masses as tokens; a row-count fallback
            # mass must not masquerade as n_tok downstream
            metrics={"n_tok": int(spec["mass"])} if spec["token_mass"] else None,
            bucket=spec["bucket"],
            members=list(spec["blocks"]),
            member_idents=list(spec["idents"]),
            config=cfg,
        )
        return [{"rows": man["metrics"]["rows"], "bytes_out": man["block_bytes"]}]

    res = run_tasks(todo, _compact)
    rows = sum(r["rows"] for r in res)
    bytes_out = sum(r["bytes_out"] for r in res)
    # stale outputs from an earlier plan (different target): buckets past
    # the current plan's range would silently duplicate rows on decode
    valid = {s["bucket"] for s in plan}
    purged = 0
    for man in mf.list_manifests(out_dir):
        if "members" in man and man["bucket"] not in valid:
            for suffix in (".tokb", ".manifest.json"):
                p = os.path.join(out_dir, man["block"].removesuffix(".tokb") + suffix)
                if os.path.exists(p):
                    os.remove(p)
            purged += 1
    return {
        "buckets": len(plan),
        "resumed": resumed,
        "rows": rows,
        "bytes_out": bytes_out,
        "purged": purged,
        "out_dir": out_dir,
    }
