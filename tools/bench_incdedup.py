"""Bench: incremental dedup against the persisted hash index — the
numbers cited in SCALE.md's "Incremental dedup" section.

The testdata `documents` tables are small (5000 rows at sf0.1), so the
exact-index bench synthesizes its own corpus: N deterministic ~60-char
docs (default 3M) with a 12.5% duplicate rate, written once to /tmp as
sharded parquet.  Measures, at 32 CPUs:
- exact index seed pass over the first half (read + fnv128 + bucket
  exchange + anti-join + shard writes), then the second half as an
  incremental batch (mixed known/new), then an all-known re-run, then
  compact_index;
- the near-dup (MinHash band) sibling on its own synthetic corpus
  (default 200k docs, same generator) — its num_perm=64 signature pass
  dominates, so the smaller corpus keeps the bench short while still
  showing per-doc cost;
- the trickle regime for per-shard-file blooms (file_blooms=True):
  small vs large all-new batches against identical 8-run indexes with
  blooms on/off, reporting the read-side speedup at each batch size
  (the skip only triggers when a bucket's candidate count is small
  enough that a whole file can prove no-overlap).

Usage: python tools/bench_incdedup.py [n_docs] [near_n]
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _synth_corpus(root: str, n: int, shards: int = 32) -> tuple[str, str]:
    """Deterministic ~60-char docs, 12.5% exact-dup rate (key = i with
    every 8th doc repeating the previous key).  Returns (half_a, half_b)
    parquet dirs, built once and reused across invocations."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    a_dir, b_dir = os.path.join(root, "a"), os.path.join(root, "b")
    marker = os.path.join(root, f"ready_{n}")
    if os.path.exists(marker):
        return a_dir, b_dir
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(a_dir), os.makedirs(b_dir)
    per = n // (2 * shards)
    for half, d in ((0, a_dir), (1, b_dir)):
        for s in range(shards):
            base = (half * shards + s) * per
            i = np.arange(base, base + per, dtype=np.int64)
            key = np.where(i % 8 == 7, i - 1, i)  # every 8th repeats
            texts = pa.array(
                [f"synthetic document body number {k} with some padding words"
                 for k in key], pa.string()
            )
            pq.write_table(
                pa.table({"doc_id": pa.array(i), "text": texts}),
                os.path.join(d, f"part-{s:04d}.parquet"),
            )
    open(marker, "w").close()
    return a_dir, b_dir


def _trickle_docs(base: int, n: int, tag: str):
    """n distinct docs with ids/texts keyed off `base` — all-new
    content relative to any other (base, tag) range."""
    import numpy as np
    import pyarrow as pa

    i = np.arange(base, base + n, dtype=np.int64)
    return pa.table(
        {
            "doc_id": pa.array(i),
            "text": pa.array(
                [f"{tag} trickle document {k} body words" for k in i], pa.string()
            ),
        }
    )


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 3_000_000
    near_arg = sys.argv[2] if len(sys.argv) > 2 else ""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    import tokcodec  # noqa: F401  (malloc/THP tuning on import)
    from tokcodec.functions.incdedup import (
        compact_index,
        dedup_against_index,
        mark_run_complete,
        near_dup_against_index,
    )

    out: dict = {}
    a_dir, b_dir = _synth_corpus("/tmp/tokcodec_bench_docs", n)
    half = n // 2

    idx = "/tmp/tokcodec_bench_incidx"
    shutil.rmtree(idx, ignore_errors=True)
    t0 = time.time()
    acc = dedup_against_index(ray.data.read_parquet(a_dir), idx,
                              run_id="seed", n_buckets=256)
    seed_s = time.time() - t0
    out["exact"] = {
        "docs_per_batch": half,
        "seed_s": round(seed_s, 2),
        "seed_docs_per_s": round(half / seed_s),
        "accepted_seed": acc.count(),
    }
    t0 = time.time()
    acc2 = dedup_against_index(ray.data.read_parquet(b_dir), idx,
                               run_id="b1", n_buckets=256)
    incr_s = time.time() - t0
    out["exact"]["incr_s"] = round(incr_s, 2)
    out["exact"]["incr_docs_per_s"] = round(half / incr_s)
    out["exact"]["accepted_incr"] = acc2.count()
    t0 = time.time()
    acc3 = dedup_against_index(ray.data.read_parquet(b_dir), idx,
                               run_id="b2", n_buckets=256)
    out["exact"]["known_rerun_s"] = round(time.time() - t0, 2)
    out["exact"]["accepted_rerun"] = acc3.count()
    for r in ("seed", "b1", "b2"):  # outputs consumed above -> foldable
        mark_run_complete(idx, r)
    t0 = time.time()
    comp = compact_index(idx)
    out["exact"]["compact_s"] = round(time.time() - t0, 2)
    out["exact"]["hashes"] = comp["hashes"]
    sz = sum(os.path.getsize(os.path.join(r, f))
             for r, _, fs in os.walk(idx) for f in fs)
    out["exact"]["index_bytes"] = sz
    out["exact"]["bytes_per_hash"] = round(sz / max(1, comp["hashes"]), 2)
    shutil.rmtree(idx, ignore_errors=True)

    # ---- trickle regime: per-shard-file blooms on vs off -------------
    # A small all-new batch against a many-run index: with few
    # candidates per bucket, a file's bloom sidecar can prove "no
    # overlap" and skip the read.  Both legs get IDENTICAL indexes
    # (8 seed runs of 100k docs → 8 files per bucket); the trickle
    # query runs update_index=False so reps are pure read+anti-join.
    out["trickle"] = {}
    legs = {}
    for name, fb in (("plain", False), ("bloomed", True)):
        lidx = f"/tmp/tokcodec_bench_trickle_{name}"
        shutil.rmtree(lidx, ignore_errors=True)
        for r in range(8):
            seed_tbl = _trickle_docs(r * 100_000, 100_000, "seed")
            dedup_against_index(ray.data.from_arrow(seed_tbl), lidx,
                                run_id=f"s{r}", n_buckets=256, file_blooms=fb)
        legs[name] = lidx
    for n_new in (20_000, 200_000):
        batch_tbl = _trickle_docs(10_000_000, n_new, "new")
        for name, lidx in legs.items():
            reps = []
            for _ in range(3):
                t0 = time.time()
                q = dedup_against_index(
                    ray.data.from_arrow(batch_tbl), lidx, run_id="q",
                    n_buckets=256, update_index=False,
                    file_blooms=(name == "bloomed"))
                n_acc = q.count()
                reps.append(time.time() - t0)
            out["trickle"][f"{name}_{n_new}"] = {
                "best_s": round(min(reps), 3),
                "accepted": n_acc,
            }
        p = out["trickle"][f"plain_{n_new}"]["best_s"]
        b = out["trickle"][f"bloomed_{n_new}"]["best_s"]
        out["trickle"][f"speedup_{n_new}"] = round(p / b, 2)
    for lidx in legs.values():
        shutil.rmtree(lidx, ignore_errors=True)

    # near-dup sibling on a synthetic corpus sized by the MinHash pass
    # (num_perm=64 signatures dominate; near_n defaults to 200k docs)
    near_n = int(near_arg) if near_arg.isdigit() else 200_000
    na_dir, nb_dir = _synth_corpus("/tmp/tokcodec_bench_neardocs", near_n)
    nhalf = near_n // 2
    nidx = "/tmp/tokcodec_bench_nearidx"
    shutil.rmtree(nidx, ignore_errors=True)
    t0 = time.time()
    nacc = near_dup_against_index(ray.data.read_parquet(na_dir), nidx,
                                  run_id="seed", n_buckets=256)
    nseed_s = time.time() - t0
    out["near"] = {
        "docs_per_batch": nhalf,
        "seed_s": round(nseed_s, 2),
        "seed_docs_per_s": round(nhalf / nseed_s),
        "accepted_seed": nacc.count(),
    }
    t0 = time.time()
    nacc2 = near_dup_against_index(ray.data.read_parquet(nb_dir), nidx,
                                   run_id="b1", n_buckets=256)
    nincr_s = time.time() - t0
    out["near"]["incr_s"] = round(nincr_s, 2)
    out["near"]["incr_docs_per_s"] = round(nhalf / nincr_s)
    out["near"]["accepted_incr"] = nacc2.count()
    shutil.rmtree(nidx, ignore_errors=True)

    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
