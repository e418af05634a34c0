"""Micro-bench: `asof_join` and `band_join_count` on two skew regimes.

Both sides have N rows (default 2,000,000 each) over 100,000 keys and
~11.6 days of microsecond timestamps, split into 8 input blocks:

* ``hot``: 90% of the rows on ONE key, the rest uniform over the others
  (the regime where a key-only sort lands the hot key in one block);
* ``flat``: every key equally likely.

Each repeat times every (shape, join) pair once, in turn, so the
repeats of one join interleave with the others; the first call of each
join on a tiny input warms the workers and is not timed.  The band
window is [-1 h, +1 h].  Each output is digested (sha256 of its rows
sorted by event id), so two checkouts can show value-for-value equal
output from their JSON lines alone.

Usage: python tools/bench_joins.py [--rows N] [--reps R] [--cpus C]
Prints one JSON line: host shape, rows, per-run seconds, medians and
digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time

import numpy as np
import pyarrow as pa

sys.path.insert(0, ".")
from tokcodec.functions.joins import asof_join, band_join_count  # noqa: E402

N_KEYS = 100_000
SPAN_US = 10**12
BAND_US = 3_600_000_000
BLOCKS = 8


def _tables(n: int, hot: bool, seed: int):
    rng = np.random.default_rng(seed)

    def keys(m):
        k = rng.integers(1, N_KEYS, m)
        return np.where(rng.random(m) < 0.9, 0, k) if hot else k

    us = lambda m: pa.array(rng.integers(0, SPAN_US, m)).cast(pa.timestamp("us"))
    left = pa.table({"event_id": np.arange(n, dtype=np.int64), "k": keys(n), "ts": us(n)})
    right = pa.table({"k": keys(n), "ts": us(n)})
    return left, right


def _blocks(t: pa.Table):
    import ray.data

    step = -(-t.num_rows // BLOCKS)
    return ray.data.from_arrow([t.slice(i, step) for i in range(0, t.num_rows, step)])


def _run(join: str, left: pa.Table, right: pa.Table):
    """Seconds to materialize the join, and its rows sorted by event id."""
    kw = dict(left_key="k", right_key="k", left_ts="ts", right_ts="ts",
              left_cols=["event_id"])
    t0 = time.perf_counter()
    if join == "asof":
        ds = asof_join(_blocks(left), _blocks(right), **kw)
    else:
        ds = band_join_count(_blocks(left), _blocks(right), **kw,
                             lo_offset_us=-BAND_US, hi_offset_us=BAND_US)
    ds = ds.materialize()
    dt = time.perf_counter() - t0
    parts = [b for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)
             if b.num_rows]
    out = pa.concat_tables(parts) if parts else None
    return dt, out


def _digest(out: pa.Table | None) -> str:
    if out is None:
        return "empty"
    out = out.sort_by("event_id")
    h = hashlib.sha256()
    for c in out.column_names:
        h.update(out.column(c).combine_chunks().cast(pa.int64()).to_numpy().tobytes())
    return f"{out.num_rows}:{h.hexdigest()[:16]}"


def main() -> dict:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rows", type=int, default=2_000_000)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--cpus", type=int, default=4)
    a = ap.parse_args()

    import ray
    import ray.data

    cpus = min(a.cpus, len(os.sched_getaffinity(0)))
    ray.init(num_cpus=cpus, object_store_memory=2 * 2**30,
             include_dashboard=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    shapes = {"hot": _tables(a.rows, True, 1), "flat": _tables(a.rows, False, 2)}
    joins = ("asof", "band")
    warm = _tables(1000, True, 3)
    for j in joins:
        _run(j, *warm)
    runs = {f"{s}.{j}": [] for s in shapes for j in joins}
    digests = {}
    for _ in range(a.reps):
        for s, (left, right) in shapes.items():
            for j in joins:
                dt, out = _run(j, left, right)
                runs[f"{s}.{j}"].append(round(dt, 3))
                digests[f"{s}.{j}"] = _digest(out)
    ray.shutdown()
    return {
        "cpus": cpus,
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "rows_per_side": a.rows,
        "reps": a.reps,
        "median_s": {k: round(statistics.median(v), 3) for k, v in runs.items()},
        "runs_s": runs,
        "digest": digests,
    }


if __name__ == "__main__":
    print(json.dumps(main()))
