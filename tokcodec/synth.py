"""Deterministic synthetic tokenized-sequence tables (FIXTURES.md F1).

North-rule input shape: (doc_id:string, tokens:list<int32>, n_tok:int32,
source:string).  Seeded numpy generation — same args → bit-identical
table — so tests, benchmarks and resume checks all agree on the input.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = 50257
SOURCES = ["web", "books", "code", "wiki", "news", "forums", "papers", "social"]


def make_table(
    n_rows: int, seed: int = 42, heavy_tail: bool = True, id_offset: int = 0
) -> pa.Table:
    """Zipfian token ids; lognormal lengths (median ~500) with a 1% heavy
    tail up to ~50k tokens so skew-balancing is actually exercised."""
    rng = np.random.default_rng(seed)
    lengths = rng.lognormal(mean=np.log(500.0), sigma=0.8, size=n_rows)
    if heavy_tail and n_rows >= 100:
        tail = rng.random(n_rows) < 0.01
        lengths[tail] = rng.uniform(20_000, 50_000, size=int(tail.sum()))
    lengths = np.clip(lengths, 0, 60_000).astype(np.int32)
    total = int(lengths.sum())
    # Zipf-like over the vocab via vectorized inverse-CDF (Pareto rounding:
    # rank = floor(u^(-1/(s-1))), s=1.3) — ~15x faster than rng.zipf at
    # billion-token scale and equally deterministic/skewed.  Generated in
    # fixed reused slabs (identical stream: Generator.random(out=) draws
    # the same values as one big call) so peak temp memory is ~0.2 GB
    # instead of ~3x the token array — on this sandbox, first-touch page
    # faults are the cost that matters (see tokcodec.__init__ fixes).
    tokens = np.empty(total, np.int32)
    SLAB = 16_777_216
    u = np.empty(min(SLAB, total))
    r = np.empty(min(SLAB, total), np.int64)
    for s in range(0, total, SLAB):
        n = min(SLAB, total - s)
        us, rs = u[:n], r[:n]
        rng.random(out=us)
        np.maximum(us, 1e-9, out=us)  # floor avoids inf at u→0
        np.power(us, -1.0 / 0.3, out=us)
        np.floor(us, out=us)
        np.minimum(us, 2.0**62, out=us)
        np.copyto(rs, us, casting="unsafe")
        rs -= 1
        rs %= VOCAB
        np.copyto(tokens[s : s + n], rs, casting="unsafe")
    del u, r
    if total >= 2**31:  # list<int32> offsets are int32 — wrap = corruption
        raise ValueError(
            f"make_table: {total} tokens in one table exceeds the 2^31 "
            "int32-offset limit; generate in smaller chunks "
            "(write_fixture_dir does this automatically)"
        )
    offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))).astype(np.int32)
    tok_arr = pa.ListArray.from_arrays(pa.array(offsets), pa.array(tokens, type=pa.int32()))
    src_ids = rng.integers(0, len(SOURCES), size=n_rows)
    doc_id = pa.array(
        [f"src{int(s)}-doc{i + id_offset:08d}" for i, s in enumerate(src_ids)],
        type=pa.string(),
    )
    source = pa.array([SOURCES[int(s)] for s in src_ids], type=pa.string())
    return pa.Table.from_arrays(
        [doc_id, tok_arr, pa.array(lengths, type=pa.int32()), source],
        names=["doc_id", "tokens", "n_tok", "source"],
    )


def write_fixture_dir(
    dir_path: str,
    n_rows: int,
    seed: int = 42,
    row_group_size: int = 8192,
    heavy_tail: bool = True,
    chunk_rows: int = 200_000,
) -> str:
    """Multi-file fixture: one parquet file per chunk, generated in
    parallel Ray tasks when a session is active (serial fallback gives
    byte-identical files).  Complete iff `_SUCCESS` exists."""
    done = os.path.join(dir_path, "_SUCCESS")
    if os.path.exists(done):
        return dir_path
    os.makedirs(dir_path, exist_ok=True)
    jobs = []
    for i, off in enumerate(range(0, n_rows, chunk_rows)):
        n = min(chunk_rows, n_rows - off)
        jobs.append((os.path.join(dir_path, f"chunk-{i:03d}.parquet"), n, seed + i, off))

    def _one(path, n, s, off):
        if not os.path.exists(path):
            t = make_table(n, seed=s, heavy_tail=heavy_tail, id_offset=off)
            tmp = path + ".tmp"
            pq.write_table(t, tmp, compression="zstd", row_group_size=row_group_size)
            os.rename(tmp, path)
        return path

    try:
        import ray

        use_ray = ray.is_initialized() and len(jobs) > 1
    except ImportError:
        use_ray = False
    if use_ray:
        # num_cpus=2 halves generation concurrency: each task peaks at
        # ~3 GB RSS and saturates a core for tens of seconds, and this
        # sandbox host throttles HARD under sustained all-core load
        # (BASELINE.md probes) — a narrower burst finishes sooner and
        # leaves the host healthier for whatever is timed next.  Capped
        # at the session's CPUs: a 2-CPU task never schedules on 1 CPU.
        cpus = min(2.0, ray.cluster_resources().get("CPU", 1.0))
        task = ray.remote(num_cpus=cpus)(_one)
        ray.get([task.remote(*j) for j in jobs])
    else:
        for j in jobs:
            _one(*j)
    with open(done, "w") as f:
        f.write("ok")
    return dir_path


def write_fixture(
    path: str,
    n_rows: int,
    seed: int = 42,
    row_group_size: int = 2048,
    heavy_tail: bool = True,
    chunk_rows: int = 200_000,
) -> str:
    """Write the fixture as Parquet (zstd, like the reference comparison
    anchor) if not already present; returns the path.  Generated and
    written in bounded chunks so billion-token fixtures don't need
    tens of GB of RAM; deterministic given (n_rows, seed)."""
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = path + ".tmp"
        writer = None
        try:
            for off in range(0, n_rows, chunk_rows):
                n = min(chunk_rows, n_rows - off)
                t = make_table(
                    n, seed=seed + off // chunk_rows, heavy_tail=heavy_tail, id_offset=off
                )
                if writer is None:
                    writer = pq.ParquetWriter(tmp, t.schema, compression="zstd")
                writer.write_table(t, row_group_size=row_group_size)
        finally:
            if writer is not None:
                writer.close()
        os.rename(tmp, path)
    return path
